//! The [`Simulator`] facade: picks the engine named by the configuration
//! and runs it over a record slice.
//!
//! Records reach an engine as one resident slice (a [`Trace`]'s records);
//! the experiment's warm-up and measured regions are index ranges into it
//! ([`Simulator::run_warm_measure`]). The warm-up region is replayed
//! functionally, through the memory hierarchy alone; only the measured
//! region runs on the timing engine.

use rescache_cache::MemoryHierarchy;
use rescache_trace::{kind, InstrRecord, Trace};

use crate::config::{CpuConfig, EngineKind};
use crate::fetch::FetchUnit;
use crate::hook::{NoopHook, SimHook};
use crate::result::SimResult;
use crate::{inorder, ooo};

/// Runs a trace on the processor configuration's engine.
///
/// # Examples
///
/// ```
/// use rescache_cache::{HierarchyConfig, MemoryHierarchy};
/// use rescache_cpu::{CpuConfig, Simulator};
/// use rescache_trace::{spec, TraceGenerator};
///
/// let trace = TraceGenerator::new(spec::ammp(), 7).generate(2_000);
/// let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
/// let result = Simulator::new(CpuConfig::base_in_order()).run(&trace, &mut hierarchy);
/// assert_eq!(result.instructions, 2_000);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: CpuConfig,
}

impl Simulator {
    /// Creates a simulator for the given processor configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero-sized structures.
    pub fn new(config: CpuConfig) -> Self {
        config.assert_valid();
        Self { config }
    }

    /// The processor configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Replays `trace` against `hierarchy` with no observer hook.
    pub fn run(&self, trace: &Trace, hierarchy: &mut MemoryHierarchy) -> SimResult {
        self.run_hooked(trace.records(), hierarchy, &mut NoopHook)
    }

    /// One engine invocation over `records`, with `hook` invoked after every
    /// committed instruction. With [`NoopHook`] the engine loops pay no
    /// per-instruction virtual call — the path every static sweep run takes.
    fn run_hooked<H: SimHook + ?Sized>(
        &self,
        records: &[InstrRecord],
        hierarchy: &mut MemoryHierarchy,
        hook: &mut H,
    ) -> SimResult {
        match self.config.engine {
            EngineKind::InOrderBlocking => inorder::run(&self.config, records, hierarchy, hook),
            EngineKind::OutOfOrderNonBlocking => ooo::run(&self.config, records, hierarchy, hook),
        }
    }

    /// The experiment sequence over one record slice on the configured
    /// engine: warms the caches with `records[..warm]` (the warm-up
    /// region), resets the hierarchy statistics, then times
    /// `records[warm..warm + measure]` on the engine and returns that
    /// region's result. `hook` sees every record of both regions, and its
    /// state carries across the boundary — this is how the dynamic resizing
    /// controller rides an experiment.
    ///
    /// The warm-up is *functional cache warming*: the records go through
    /// the memory hierarchy alone, with no pipeline, predictor or clock.
    /// Per record it makes the calls both engines make, in their order: a
    /// [`FetchUnit`] i-cache access when a fetch group starts, the d-cache
    /// access of a load or store, then `hook`'s
    /// [`SimHook::post_commit`]. Under LRU, cache contents depend only on
    /// that access sequence, so the caches, the resize decisions a
    /// controller takes during warm-up and the measured result are
    /// identical to timing the warm-up region on the engine first. The
    /// measured region is a fresh engine invocation (pipeline, predictor,
    /// window and fetch state restart; cache state carries over), and the
    /// statistics reset also empties the write-back buffer, whose entries
    /// are timed on the previous region's clock.
    ///
    /// # Panics
    ///
    /// Panics if `warm + measure` exceeds `records.len()`.
    pub fn run_warm_measure<H: SimHook + ?Sized>(
        &self,
        records: &[InstrRecord],
        warm: usize,
        measure: usize,
        hierarchy: &mut MemoryHierarchy,
        hook: &mut H,
    ) -> SimResult {
        let (warm_records, rest) = records.split_at(warm);
        let measured = &rest[..measure];
        self.warm_caches(warm_records, hierarchy, hook);
        hierarchy.reset_stats();
        self.run_hooked(measured, hierarchy, hook)
    }

    /// Replays `records`' cache accesses and hook calls with no timing
    /// model: the functional warm-up of [`Simulator::run_warm_measure`].
    /// The write-back buffer is the one hierarchy part that reads a cycle;
    /// the record index stands in for it, and the statistics reset that
    /// follows empties the buffer.
    fn warm_caches<H: SimHook + ?Sized>(
        &self,
        records: &[InstrRecord],
        hierarchy: &mut MemoryHierarchy,
        hook: &mut H,
    ) {
        let mut fetch = FetchUnit::new(hierarchy.config().l1i.block_bytes, self.config.issue_width);
        for (idx, rec) in (1u64..).zip(records) {
            fetch.fetch(rec.pc(), idx, hierarchy);
            let k = rec.kind_tag();
            if k == kind::LOAD || k == kind::STORE {
                hierarchy.access_data(u64::from(rec.addr_raw()), k == kind::STORE, idx);
            }
            hook.post_commit(idx, hierarchy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescache_cache::HierarchyConfig;
    use rescache_trace::{spec, TraceGenerator};

    #[test]
    fn dispatches_to_the_configured_engine() {
        let trace = TraceGenerator::new(spec::compress(), 9).generate(10_000);
        let mut h1 = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut h2 = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let ooo = Simulator::new(CpuConfig::base_out_of_order()).run(&trace, &mut h1);
        let ino = Simulator::new(CpuConfig::base_in_order()).run(&trace, &mut h2);
        assert_eq!(ooo.instructions, ino.instructions);
        assert_ne!(
            ooo.cycles, ino.cycles,
            "the two engines have different timing"
        );
    }

    #[test]
    fn warm_measure_split_matches_the_two_trace_sequence() {
        let warm = 3_000;
        let measure = 9_000;
        let full = TraceGenerator::new(spec::su2cor(), 5).generate(warm + measure);
        let (warm_trace, measure_trace) = full.split_at(warm);

        for config in [CpuConfig::base_in_order(), CpuConfig::base_out_of_order()] {
            let sim = Simulator::new(config);

            let mut h_mat = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
            sim.run(&warm_trace, &mut h_mat);
            h_mat.reset_stats();
            let materialized = sim.run(&measure_trace, &mut h_mat);

            let mut h_slice = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
            let sliced =
                sim.run_warm_measure(full.records(), warm, measure, &mut h_slice, &mut NoopHook);

            let mut h_hook = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
            // The same entry through a type-erased hook, as a caller holding
            // only a `dyn SimHook` would drive it.
            let hook: &mut dyn SimHook = &mut NoopHook;
            let hooked = sim.run_warm_measure(full.records(), warm, measure, &mut h_hook, hook);

            assert_eq!(materialized, sliced, "{config:?}");
            assert_eq!(materialized, hooked, "{config:?}");
            assert_eq!(h_mat.snapshot(), h_slice.snapshot(), "{config:?}");
            assert_eq!(h_mat.snapshot(), h_hook.snapshot(), "{config:?}");
        }
    }

    #[test]
    fn results_are_deterministic() {
        let trace = TraceGenerator::new(spec::vpr(), 1).generate(5_000);
        let sim = Simulator::new(CpuConfig::base_out_of_order());
        let mut h1 = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut h2 = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        assert_eq!(sim.run(&trace, &mut h1), sim.run(&trace, &mut h2));
    }
}
