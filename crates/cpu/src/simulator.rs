//! The [`Simulator`] facade: picks the engine named by the configuration.

use rescache_cache::MemoryHierarchy;
use rescache_trace::{Trace, TraceSource};

use crate::config::{CpuConfig, EngineKind};
use crate::hook::{NoopHook, SimHook};
use crate::inorder::InOrderEngine;
use crate::ooo::OutOfOrderEngine;
use crate::result::SimResult;

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

    /// Replays `trace` against `hierarchy` with no observer hook: a
    /// [`Simulator::run_source`] over the trace's cursor and the no-op hook.
    pub fn run(&self, trace: &Trace, hierarchy: &mut MemoryHierarchy) -> SimResult {
        self.run_source(&mut trace.cursor(), hierarchy, &mut NoopHook)
    }

    /// Consumes `source` chunk by chunk against `hierarchy` on the configured
    /// engine, invoking `hook` after every committed instruction. With a
    /// [`rescache_trace::TraceStream`] source, generation and simulation
    /// interleave per chunk and only one chunk buffer is ever resident; with
    /// [`NoopHook`] the engine loops pay no per-instruction virtual call —
    /// the path every static sweep run takes.
    pub fn run_source<S: TraceSource, H: SimHook + ?Sized>(
        &self,
        source: &mut S,
        hierarchy: &mut MemoryHierarchy,
        hook: &mut H,
    ) -> SimResult {
        match self.config.engine {
            EngineKind::InOrderBlocking => {
                InOrderEngine::new(self.config).run_source(source, hierarchy, hook)
            }
            EngineKind::OutOfOrderNonBlocking => {
                OutOfOrderEngine::new(self.config).run_source(source, hierarchy, hook)
            }
        }
    }

    /// The experiment sequence over one source on the configured engine:
    /// runs the next `warm` records (the warm-up region), resets the
    /// hierarchy statistics, then runs the following `measure` records and
    /// returns that region's result. `hook` sees every committed instruction
    /// of both regions, and its state carries across the boundary — this is
    /// how the dynamic resizing controller rides an experiment.
    ///
    /// Each region is a fresh engine invocation (pipeline, predictor, window
    /// and fetch state restart; cache state carries over), exactly as two
    /// separate [`Simulator::run`] calls over pre-split traces behave — so a
    /// streamed warm/measure run is bit-identical to splitting the trace up
    /// front (asserted by `tests/dynamic_streaming_equivalence.rs`). With a
    /// [`rescache_trace::TraceStream`] or an on-disk
    /// [`rescache_trace::TraceFileSource`] only one chunk buffer is resident.
    pub fn run_warm_measure<S: TraceSource, H: SimHook + ?Sized>(
        &self,
        source: &mut S,
        warm: usize,
        measure: usize,
        hierarchy: &mut MemoryHierarchy,
        hook: &mut H,
    ) -> SimResult {
        let start = source.position();
        source.split_at(start + warm);
        self.run_source(source, hierarchy, hook);
        hierarchy.reset_stats();
        source.split_at(start + warm + measure);
        self.run_source(source, hierarchy, hook)
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
        let generator = TraceGenerator::new(spec::su2cor(), 5);
        let full = generator.generate(warm + measure);
        let (warm_trace, measure_trace) = full.split_at(warm);

        for config in [CpuConfig::base_in_order(), CpuConfig::base_out_of_order()] {
            let sim = Simulator::new(config);

            let mut h_mat = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
            sim.run(&warm_trace, &mut h_mat);
            h_mat.reset_stats();
            let materialized = sim.run(&measure_trace, &mut h_mat);

            let mut stream = generator.stream(warm + measure);
            let mut h_stream = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
            let streamed =
                sim.run_warm_measure(&mut stream, warm, measure, &mut h_stream, &mut NoopHook);

            let mut stream = generator.stream(warm + measure);
            let mut h_hook = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
            // The same entry through a type-erased hook, as a caller holding
            // only a `dyn SimHook` would drive it.
            let hook: &mut dyn SimHook = &mut NoopHook;
            let hooked = sim.run_warm_measure(&mut stream, warm, measure, &mut h_hook, hook);

            assert_eq!(materialized, streamed, "{config:?}");
            assert_eq!(materialized, hooked, "{config:?}");
            assert_eq!(h_mat.snapshot(), h_stream.snapshot(), "{config:?}");
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
