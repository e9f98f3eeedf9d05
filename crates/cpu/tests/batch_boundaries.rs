//! Differential property tests for the batched engine pipeline: the
//! struct-of-arrays issue/complete loops in `rescache_cpu::{ooo, inorder}`
//! must be bit-identical to the scalar per-record reference loops in
//! `rescache_cpu::scalar` — for every source kind, every warm/measure split
//! plan (0, batch ± 1 == chunk ± 1, full length, arbitrary), and with the
//! observer hook attached.
//!
//! The batch width equals the streaming chunk width, so the `LANE_BATCH ± 1`
//! split points exercised here are simultaneously the chunk-boundary cases
//! the issue calls out.

use rescache_cache::{HierarchyConfig, HierarchySnapshot, MemoryHierarchy};
use rescache_cpu::hook::{NoopHook, SimHook};
use rescache_cpu::{scalar, CpuConfig, SimResult, Simulator, LANE_BATCH};
use rescache_testutil::{check_cases, TestRng};
use rescache_trace::{spec, TraceGenerator, TraceSource, CHUNK_RECORDS};

/// A hook that folds every observation into a checksum, so hook-visible
/// divergence (call count, committed index, or the cycle passed) is caught
/// even where the final result would agree.
struct ChecksumHook {
    calls: u64,
    digest: u64,
}

impl ChecksumHook {
    fn new() -> Self {
        Self {
            calls: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl SimHook for ChecksumHook {
    fn post_commit(&mut self, committed: u64, cycle: u64, _hierarchy: &mut MemoryHierarchy) {
        self.calls += 1;
        self.digest =
            (self.digest ^ committed ^ cycle.rotate_left(17)).wrapping_mul(0x100_0000_01b3);
    }
}

/// One engine run's observable outcome: the measured-region result, the
/// final hierarchy snapshot, and the hook's call count and digest.
type Outcome = (SimResult, HierarchySnapshot, u64, u64);

/// Runs the batched engine and the scalar reference over identical fresh
/// hierarchies and sources, through the same warm/measure split plan, and
/// returns both outcomes.
fn run_both<S: TraceSource + Clone>(
    config: CpuConfig,
    source: &S,
    warm: usize,
    measure: usize,
    hooked: bool,
) -> (Outcome, Outcome) {
    let run_scalar = |src: &mut S, hierarchy: &mut MemoryHierarchy, hook: &mut dyn SimHook| {
        let start = src.position();
        src.split_at(start + warm);
        scalar::run_engine_reference(&config, src, hierarchy, hook);
        hierarchy.reset_stats();
        src.split_at(start + warm + measure);
        scalar::run_engine_reference(&config, src, hierarchy, hook)
    };
    let run_batched = |src: &mut S, hierarchy: &mut MemoryHierarchy, hook: &mut dyn SimHook| {
        let sim = Simulator::new(config);
        sim.run_warm_measure_with_hook(src, warm, measure, hierarchy, hook)
    };

    let mut batched_hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
    let mut scalar_hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
    let mut batched_source = source.clone();
    let mut scalar_source = source.clone();

    if hooked {
        let mut batched_hook = ChecksumHook::new();
        let mut scalar_hook = ChecksumHook::new();
        let batched = run_batched(
            &mut batched_source,
            &mut batched_hierarchy,
            &mut batched_hook,
        );
        let scalar = run_scalar(&mut scalar_source, &mut scalar_hierarchy, &mut scalar_hook);
        (
            (
                batched,
                batched_hierarchy.snapshot(),
                batched_hook.calls,
                batched_hook.digest,
            ),
            (
                scalar,
                scalar_hierarchy.snapshot(),
                scalar_hook.calls,
                scalar_hook.digest,
            ),
        )
    } else {
        let batched = run_batched(&mut batched_source, &mut batched_hierarchy, &mut NoopHook);
        let scalar = run_scalar(&mut scalar_source, &mut scalar_hierarchy, &mut NoopHook);
        (
            (batched, batched_hierarchy.snapshot(), 0, 0),
            (scalar, scalar_hierarchy.snapshot(), 0, 0),
        )
    }
}

/// The boundary-sensitive warm lengths the issue names: 0, batch ± 1 (which
/// equals chunk ± 1), the exact batch width, twice it, and the full trace.
fn boundary_warm_lengths(total: usize) -> Vec<usize> {
    assert_eq!(
        LANE_BATCH, CHUNK_RECORDS,
        "batch width is defined to match the streaming chunk width"
    );
    vec![
        0,
        1,
        LANE_BATCH - 1,
        LANE_BATCH,
        LANE_BATCH + 1,
        2 * LANE_BATCH,
        total.saturating_sub(1),
        total,
    ]
}

fn assert_equivalent(
    config: CpuConfig,
    profile_name: &str,
    warm: usize,
    measure: usize,
    hooked: bool,
    source_label: &str,
    outcome: (Outcome, Outcome),
) {
    let (batched, reference) = outcome;
    let label = format!(
        "{profile_name}/{source_label} engine={:?} warm={warm} measure={measure} hooked={hooked}",
        config.engine
    );
    // Asserted before the whole-struct comparison so a latency-accounting
    // divergence is named as such: the lanes path and the scalar oracle must
    // count delayed hits, primary misses and their cycles identically at
    // every split point.
    assert_eq!(
        batched.0.latency, reference.0.latency,
        "LatencyStats diverged: {label}"
    );
    assert_eq!(batched.0, reference.0, "SimResult diverged: {label}");
    assert_eq!(batched.1, reference.1, "snapshot diverged: {label}");
    assert_eq!(batched.2, reference.2, "hook call count diverged: {label}");
    assert_eq!(batched.3, reference.3, "hook digest diverged: {label}");
}

#[test]
fn batched_ooo_and_inorder_match_scalar_reference_at_batch_boundaries() {
    // Long enough that every boundary warm length leaves a measured region
    // crossing at least one further batch boundary.
    let total = 2 * LANE_BATCH + 2 * LANE_BATCH / 3;
    let trace = TraceGenerator::new(spec::gcc(), 23).generate(total);
    for config in [CpuConfig::base_out_of_order(), CpuConfig::base_in_order()] {
        for &warm in &boundary_warm_lengths(total) {
            let measure = total - warm;
            for hooked in [false, true] {
                assert_equivalent(
                    config,
                    "gcc",
                    warm,
                    measure,
                    hooked,
                    "cursor",
                    run_both(config, &trace.cursor(), warm, measure, hooked),
                );
            }
        }
    }
}

#[test]
fn batched_engines_match_scalar_reference_on_streamed_sources() {
    // The streamed generator delivers true CHUNK_RECORDS-wide chunks, so this
    // exercises the one-batch-per-chunk path (plus a trailing short chunk).
    let total = LANE_BATCH + LANE_BATCH / 2;
    let generator = TraceGenerator::new(spec::su2cor(), 7);
    for config in [CpuConfig::base_out_of_order(), CpuConfig::base_in_order()] {
        for warm in [0, 1, LANE_BATCH - 1, LANE_BATCH, LANE_BATCH + 1, total] {
            let measure = total - warm;
            for hooked in [false, true] {
                assert_equivalent(
                    config,
                    "su2cor",
                    warm,
                    measure,
                    hooked,
                    "stream",
                    run_both(config, &generator.stream(total), warm, measure, hooked),
                );
            }
        }
    }
}

#[test]
fn latency_parity_is_not_vacuous() {
    // The LatencyStats assertions above would pass trivially if neither
    // path accounted anything; pin that a missy profile actually produces
    // nonzero latency counters in the measured region under both engines,
    // and that the means derive from those counters.
    let total = 2 * LANE_BATCH;
    let trace = TraceGenerator::new(spec::gcc(), 23).generate(total);
    for config in [CpuConfig::base_out_of_order(), CpuConfig::base_in_order()] {
        let (batched, reference) = run_both(
            config,
            &trace.cursor(),
            LANE_BATCH / 2,
            total - LANE_BATCH / 2,
            false,
        );
        let latency = batched.0.latency;
        assert!(
            latency.d_primary_misses > 0,
            "gcc must miss in the measured region (engine {:?})",
            config.engine
        );
        assert!(
            latency.d_miss_cycles >= latency.d_primary_misses,
            "every primary miss costs at least one cycle (engine {:?})",
            config.engine
        );
        assert_eq!(
            latency.l2_hit_fills + latency.memory_fills,
            latency.d_primary_misses,
            "every primary miss fills from exactly one level (engine {:?})",
            config.engine
        );
        assert_eq!(latency, reference.0.latency);
    }
}

#[test]
fn batched_engines_match_scalar_reference_on_arbitrary_splits() {
    let profiles = [spec::ammp(), spec::vortex(), spec::swim()];
    check_cases(12, |rng: &mut TestRng| {
        let profile = profiles[rng.below_usize(profiles.len())].clone();
        let total = LANE_BATCH + rng.below_usize(2 * LANE_BATCH);
        let warm = rng.below_usize(total + 1);
        let measure = total - warm;
        let seed = rng.next_u64();
        let name = profile.name;
        let generator = TraceGenerator::new(profile, seed);
        let trace = generator.generate(total);
        let config = if rng.below(2) == 0 {
            CpuConfig::base_out_of_order()
        } else {
            CpuConfig::base_in_order()
        };
        let hooked = rng.below(2) == 0;
        assert_equivalent(
            config,
            name,
            warm,
            measure,
            hooked,
            "cursor",
            run_both(config, &trace.cursor(), warm, measure, hooked),
        );
        assert_equivalent(
            config,
            name,
            warm,
            measure,
            hooked,
            "stream",
            run_both(config, &generator.stream(total), warm, measure, hooked),
        );
    });
}
