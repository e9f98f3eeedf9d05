//! Streaming-vs-materialized equivalence: for the same `(spec, seed,
//! lengths)`, simulating through a resumable [`TraceStream`] must produce the
//! identical [`SimResult`] and hierarchy statistics as materializing the
//! trace first — the two `TraceSource` implementations are interchangeable
//! everywhere.

use rescache::prelude::*;
use rescache_trace::WorkloadRegistry;

fn engines() -> [CpuConfig; 2] {
    [CpuConfig::base_in_order(), CpuConfig::base_out_of_order()]
}

/// Runs one profile both ways on fresh hierarchies and asserts identical
/// results and statistics.
fn assert_equivalent(profile: &rescache_trace::AppProfile, seed: u64, instructions: usize) {
    let generator = TraceGenerator::new(profile.clone(), seed);
    for config in engines() {
        let sim = Simulator::new(config);

        let trace = generator.generate(instructions);
        let mut h_mat = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let materialized = sim.run(&trace, &mut h_mat);

        let mut stream = generator.stream(instructions);
        let mut h_stream = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let streamed = sim.run_source(&mut stream, &mut h_stream);

        let name = profile.name;
        assert_eq!(materialized, streamed, "{name} ({config:?}): SimResult");
        assert_eq!(
            h_mat.snapshot(),
            h_stream.snapshot(),
            "{name} ({config:?}): hierarchy statistics"
        );
        assert_eq!(streamed.instructions, instructions as u64, "{name}");
    }
}

#[test]
fn registry_workloads_stream_and_materialize_identically() {
    let registry = WorkloadRegistry::builtin();
    // A cross-section of the registry: nominal behaviour, serial misses,
    // MSHR saturation, phase alternation.
    for name in ["nominal", "pointer_chase", "mshr_burst", "phase_flip"] {
        let spec = registry.get(name).expect("registered workload");
        // Longer than two chunks so chunk boundaries are really crossed.
        assert_equivalent(&spec.profile(), 42, 2 * rescache_trace::CHUNK_RECORDS + 123);
    }
}

#[test]
fn paper_profiles_stream_and_materialize_identically() {
    for profile in [spec::gcc(), spec::swim()] {
        assert_equivalent(&profile, 7, 30_000);
    }
}

#[test]
fn trace_cursor_source_matches_direct_run() {
    // The materialized TraceSource impl itself must be transparent: running
    // through Trace::cursor equals running the trace directly.
    let trace = TraceGenerator::new(spec::vpr(), 3).generate(20_000);
    for config in engines() {
        let sim = Simulator::new(config);
        let mut h1 = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let mut h2 = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let direct = sim.run(&trace, &mut h1);
        let mut cursor = trace.cursor();
        let via_source = sim.run_source(&mut cursor, &mut h2);
        assert_eq!(direct, via_source);
        assert_eq!(h1.snapshot(), h2.snapshot());
    }
}

#[test]
fn streaming_respects_hooks() {
    // The hook path sees the same per-instruction sequence either way.
    struct CommitLog(Vec<(u64, u64)>);
    impl SimHook for CommitLog {
        fn post_commit(&mut self, committed: u64, cycle: u64, _h: &mut MemoryHierarchy) {
            if committed.is_multiple_of(1000) {
                self.0.push((committed, cycle));
            }
        }
    }
    let profile = spec::compress();
    let generator = TraceGenerator::new(profile, 9);
    let sim = Simulator::new(CpuConfig::base_out_of_order());

    let trace = generator.generate(10_000);
    let mut h1 = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
    let mut log1 = CommitLog(Vec::new());
    sim.run_with_hook(&trace, &mut h1, &mut log1);

    let mut stream = generator.stream(10_000);
    let mut h2 = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
    let mut log2 = CommitLog(Vec::new());
    sim.run_source_with_hook(&mut stream, &mut h2, &mut log2);

    assert_eq!(log1.0, log2.0);
    assert!(!log1.0.is_empty());
}
