//! The fetch front end shared by both engines: each engine calls
//! [`FetchUnit::fetch`] once per record, which accesses the i-cache once per
//! fetch group and reports stall cycles on i-cache misses.

use rescache_cache::MemoryHierarchy;

/// Tracks fetch-group boundaries and performs i-cache accesses.
///
/// The i-cache is accessed whenever a new fetch group starts — either because
/// `fetch_width` instructions have been delivered from the previous access or
/// because the stream crossed into a different cache block (sequential
/// overrun or a taken branch). This mirrors Wattch's accounting, where the
/// i-cache is read (and all its enabled subarrays precharged) once per fetch
/// cycle rather than once per instruction.
///
/// An i-cache miss stalls fetch for the full miss latency — in both engine
/// styles instruction misses sit on the critical path, which is exactly the
/// asymmetry the paper's Section 4.2 exploits.
#[derive(Debug, Clone)]
pub struct FetchUnit {
    /// log2 of the i-cache block size; blocks are power-of-two sized
    /// (validated by `CacheConfig`), so the per-instruction block computation
    /// is a shift rather than a division.
    block_shift: u32,
    fetch_width: u32,
    /// Block address of the current fetch group, or `u64::MAX` when no group
    /// is active (block addresses are byte addresses shifted right, so the
    /// sentinel can never collide with a real block).
    last_block: u64,
    delivered_in_group: u32,
}

/// Sentinel for "no active fetch group".
const NO_BLOCK: u64 = u64::MAX;

impl FetchUnit {
    /// Creates a fetch unit for an i-cache with the given block size and a
    /// front end delivering `fetch_width` instructions per access.
    ///
    /// # Panics
    ///
    /// Panics if `fetch_width` is zero.
    pub fn new(block_bytes: u64, fetch_width: u32) -> Self {
        assert!(fetch_width > 0, "fetch width must be positive");
        Self {
            block_shift: block_bytes.max(1).trailing_zeros(),
            fetch_width,
            last_block: NO_BLOCK,
            delivered_in_group: 0,
        }
    }

    /// Fetches the instruction at `pc` at the given cycle.
    ///
    /// Returns the number of stall cycles fetch imposes on the pipeline
    /// (zero when the instruction comes from the current fetch group or the
    /// access hits in the L1 i-cache). Forced inline: both engines call this
    /// once per record, and the common case is the group check alone.
    #[inline(always)]
    pub fn fetch(&mut self, pc: u64, cycle: u64, hierarchy: &mut MemoryHierarchy) -> u64 {
        let block = pc >> self.block_shift;
        if self.last_block == block && self.delivered_in_group < self.fetch_width {
            self.delivered_in_group += 1;
            0
        } else {
            self.last_block = block;
            self.delivered_in_group = 1;
            Self::access(pc, cycle, hierarchy)
        }
    }

    /// Performs the i-cache access that starts a fetch group and returns the
    /// stall cycles it imposes (zero on an L1 i-cache hit).
    #[inline]
    fn access(pc: u64, cycle: u64, hierarchy: &mut MemoryHierarchy) -> u64 {
        let result = hierarchy.access_instruction(pc, cycle);
        if result.l1_hit {
            0
        } else {
            // The hit latency is pipelined away; only the miss portion stalls.
            result
                .latency
                .saturating_sub(hierarchy.config().l1i.hit_latency)
        }
    }

    /// Forgets the current fetch group (e.g. after a redirect in tests).
    pub fn reset(&mut self) {
        self.last_block = NO_BLOCK;
        self.delivered_in_group = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescache_cache::HierarchyConfig;

    #[test]
    fn fetch_group_reuses_one_access() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut f = FetchUnit::new(32, 4);
        let stall = f.fetch(0x40_0000, 0, &mut h);
        assert!(stall > 0, "cold miss stalls");
        assert_eq!(f.fetch(0x40_0004, 1, &mut h), 0);
        assert_eq!(f.fetch(0x40_0008, 2, &mut h), 0);
        assert_eq!(f.fetch(0x40_000C, 3, &mut h), 0);
        assert_eq!(h.l1i().stats().accesses, 1);
    }

    #[test]
    fn exhausted_group_accesses_again_even_in_same_block() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut f = FetchUnit::new(32, 4);
        for i in 0..5u64 {
            f.fetch(0x40_0000 + i * 4, i, &mut h);
        }
        assert_eq!(
            h.l1i().stats().accesses,
            2,
            "fifth instruction starts a new group"
        );
    }

    #[test]
    fn new_block_accesses_icache_again() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut f = FetchUnit::new(32, 8);
        f.fetch(0x40_0000, 0, &mut h);
        f.fetch(0x40_0020, 1, &mut h);
        assert_eq!(h.l1i().stats().accesses, 2);
    }

    #[test]
    fn warm_blocks_do_not_stall() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut f = FetchUnit::new(32, 4);
        f.fetch(0x40_0000, 0, &mut h);
        f.reset();
        assert_eq!(f.fetch(0x40_0000, 5, &mut h), 0);
    }

    #[test]
    #[should_panic(expected = "fetch width")]
    fn zero_width_panics() {
        let _ = FetchUnit::new(32, 0);
    }
}
