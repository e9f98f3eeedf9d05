//! Differential property tests for the batched engine pipeline: the
//! dispatch-lane issue/complete loops in `rescache_cpu::{ooo, inorder}`
//! must be bit-identical to the scalar per-record reference loops in
//! `rescache_cpu::scalar` — for every warm/measure split plan (0, 1,
//! batch ± 1, full length, arbitrary), with and without the observer hook.
//!
//! The batched side runs `Simulator::run_warm_measure` over the whole
//! record slice; the scalar side slices the two regions itself, so an
//! off-by-one in either the batch sub-slicing or the region split shows.

use rescache_cache::{HierarchyConfig, HierarchySnapshot, MemoryHierarchy};
use rescache_cpu::hook::{NoopHook, SimHook};
use rescache_cpu::{scalar, CpuConfig, EngineKind, SimResult, Simulator, LANE_BATCH};
use rescache_testutil::{check_cases, TestRng};
use rescache_trace::{spec, InstrRecord, Op, TraceGenerator};

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
/// hierarchies and the same records, through the same warm/measure split
/// plan, and returns both outcomes.
fn run_both(
    config: CpuConfig,
    records: &[InstrRecord],
    warm: usize,
    measure: usize,
    hooked: bool,
) -> (Outcome, Outcome) {
    let run_scalar = |hierarchy: &mut MemoryHierarchy, hook: &mut dyn SimHook| {
        scalar::run_engine_reference(&config, &records[..warm], hierarchy, hook);
        hierarchy.reset_stats();
        scalar::run_engine_reference(&config, &records[warm..warm + measure], hierarchy, hook)
    };
    let run_batched = |hierarchy: &mut MemoryHierarchy, hook: &mut dyn SimHook| {
        let sim = Simulator::new(config);
        sim.run_warm_measure(records, warm, measure, hierarchy, hook)
    };

    let mut batched_hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
    let mut scalar_hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();

    if hooked {
        let mut batched_hook = ChecksumHook::new();
        let mut scalar_hook = ChecksumHook::new();
        let batched = run_batched(&mut batched_hierarchy, &mut batched_hook);
        let scalar = run_scalar(&mut scalar_hierarchy, &mut scalar_hook);
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
        let batched = run_batched(&mut batched_hierarchy, &mut NoopHook);
        let scalar = run_scalar(&mut scalar_hierarchy, &mut NoopHook);
        (
            (batched, batched_hierarchy.snapshot(), 0, 0),
            (scalar, scalar_hierarchy.snapshot(), 0, 0),
        )
    }
}

/// The boundary-sensitive warm lengths: 0, 1, batch ± 1, the exact batch
/// width, twice it, and the full trace (less one, and whole).
fn boundary_warm_lengths(total: usize) -> Vec<usize> {
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
    outcome: (Outcome, Outcome),
) {
    let (batched, reference) = outcome;
    let label = format!(
        "{profile_name} engine={:?} warm={warm} measure={measure} hooked={hooked}",
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
                    run_both(config, trace.records(), warm, measure, hooked),
                );
            }
        }
    }
}

#[test]
fn dependency_chains_across_batch_boundaries_match_scalar_reference() {
    // Every record depends on the one or two before it, and every fourth is
    // a load that misses: any record that reads the wrong producer at a
    // batch boundary shifts the run's cycles.
    let total = 2 * LANE_BATCH + 5;
    let records: Vec<InstrRecord> = (0..total as u64)
        .map(|i| {
            let op = if i % 4 == 0 {
                Op::Load(0x100_0000 + i * 4096)
            } else {
                Op::Fp
            };
            InstrRecord::with_deps(0x40_0000 + (i % 64) * 4, op, 1, 2)
        })
        .collect();
    for config in [CpuConfig::base_out_of_order(), CpuConfig::base_in_order()] {
        for &warm in &boundary_warm_lengths(total) {
            assert_equivalent(
                config,
                "chain",
                warm,
                total - warm,
                false,
                run_both(config, &records, warm, total - warm, false),
            );
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
            trace.records(),
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
        // gcc's misses overlap on the non-blocking engine, so loads land on
        // blocks whose fill is still in flight: the delayed-hit branch runs
        // and the parity below covers it. A blocking cache never has one.
        assert_eq!(
            latency.delayed_hits > 0,
            config.engine == EngineKind::OutOfOrderNonBlocking,
            "delayed hits: {} (engine {:?})",
            latency.delayed_hits,
            config.engine
        );
        assert!(latency.delayed_hit_cycles >= latency.delayed_hits);
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
        // The measured region may stop short of the trace's end.
        let measure = rng.below_usize(total - warm + 1);
        let seed = rng.next_u64();
        let name = profile.name;
        let trace = TraceGenerator::new(profile, seed).generate(total);
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
            run_both(config, trace.records(), warm, measure, hooked),
        );
    });
}
