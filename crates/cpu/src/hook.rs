//! Simulation hooks: the mechanism by which resizing controllers observe a
//! running simulation.
//!
//! The dynamic resizing framework of the paper monitors the cache in
//! fixed-length intervals measured in cache accesses and resizes it
//! mid-execution. To keep the policy out of the processor model, the engines
//! call a [`SimHook`] after every committed instruction with mutable access
//! to the memory hierarchy, and the functional warm-up of
//! [`crate::Simulator::run_warm_measure`] calls it after every warm-up
//! record; `rescache-core`'s controllers implement the trait.

use rescache_cache::MemoryHierarchy;

/// Observer invoked by the execution engines during simulation.
pub trait SimHook {
    /// Called after each committed instruction.
    ///
    /// * `committed` — number of instructions committed so far in this
    ///   region (1-based).
    /// * `hierarchy` — the memory hierarchy, mutable so the hook may resize
    ///   the L1 caches.
    ///
    /// There is no cycle argument: the functional warm-up of
    /// [`crate::Simulator::run_warm_measure`] has no clock, and a hook sees
    /// the same calls, in the same order and with the same cache state,
    /// there as in a timed region.
    fn post_commit(&mut self, committed: u64, hierarchy: &mut MemoryHierarchy);
}

/// A hook that does nothing (plain, non-resizing simulation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopHook;

impl SimHook for NoopHook {
    fn post_commit(&mut self, _committed: u64, _hierarchy: &mut MemoryHierarchy) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescache_cache::HierarchyConfig;

    struct CountingHook {
        calls: u64,
    }

    impl SimHook for CountingHook {
        fn post_commit(&mut self, committed: u64, _h: &mut MemoryHierarchy) {
            self.calls = committed;
        }
    }

    #[test]
    fn hooks_receive_progress() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut hook = CountingHook { calls: 0 };
        hook.post_commit(10, &mut h);
        assert_eq!(hook.calls, 10);
    }

    #[test]
    fn noop_hook_is_callable() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        NoopHook.post_commit(1, &mut h);
    }
}
