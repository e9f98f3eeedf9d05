//! Differential property tests for the engines: the kind-tag loops in
//! `rescache_cpu::{ooo, inorder}` must be bit-identical to the `Op`-matching
//! oracle loops in `rescache_cpu::scalar` — in the result, the final
//! hierarchy snapshot and every hook observation — for every warm/measure
//! split plan (0, 1, the landmarks around 8 Ki and 16 Ki records, full
//! length, arbitrary), with and without the observer hook.
//!
//! The engine side runs `Simulator::run_warm_measure` over the whole record
//! slice, which warms the caches functionally and times only the measured
//! region; the oracle side slices the two regions itself and times both, so
//! an off-by-one in the region split, or a warm-up that leaves other cache
//! state or makes other hook calls, shows.

use rescache_cache::{HierarchyConfig, HierarchySnapshot, MemoryHierarchy};
use rescache_cpu::hook::{NoopHook, SimHook};
use rescache_cpu::{scalar, CpuConfig, EngineKind, SimResult, Simulator};
use rescache_testutil::{check_cases, TestRng};
use rescache_trace::{spec, InstrRecord, Op, TraceGenerator};

/// The split landmark: 8 Ki records. The warm lengths below sit on and
/// around its multiples.
const LANDMARK: usize = 8 * 1024;

/// A hook that folds every observation into a checksum, so hook-visible
/// divergence (call count or committed index) is caught even where the
/// final result would agree.
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
    fn post_commit(&mut self, committed: u64, _hierarchy: &mut MemoryHierarchy) {
        self.calls += 1;
        self.digest = (self.digest ^ committed).wrapping_mul(0x100_0000_01b3);
    }
}

/// One engine run's observable outcome: the measured-region result, the
/// final hierarchy snapshot, and the hook's call count and digest.
type Outcome = (SimResult, HierarchySnapshot, u64, u64);

/// Runs the engine and the oracle over identical fresh hierarchies and the
/// same records, through the same warm/measure split plan, and returns both
/// outcomes.
fn run_both(
    config: CpuConfig,
    records: &[InstrRecord],
    warm: usize,
    measure: usize,
    hooked: bool,
) -> (Outcome, Outcome) {
    let run_oracle = |hierarchy: &mut MemoryHierarchy, hook: &mut dyn SimHook| {
        scalar::run_engine_reference(&config, &records[..warm], hierarchy, hook);
        hierarchy.reset_stats();
        scalar::run_engine_reference(&config, &records[warm..warm + measure], hierarchy, hook)
    };
    let run_engine = |hierarchy: &mut MemoryHierarchy, hook: &mut dyn SimHook| {
        let sim = Simulator::new(config);
        sim.run_warm_measure(records, warm, measure, hierarchy, hook)
    };

    let mut engine_hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
    let mut oracle_hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();

    if hooked {
        let mut engine_hook = ChecksumHook::new();
        let mut oracle_hook = ChecksumHook::new();
        let engine = run_engine(&mut engine_hierarchy, &mut engine_hook);
        let oracle = run_oracle(&mut oracle_hierarchy, &mut oracle_hook);
        (
            (
                engine,
                engine_hierarchy.snapshot(),
                engine_hook.calls,
                engine_hook.digest,
            ),
            (
                oracle,
                oracle_hierarchy.snapshot(),
                oracle_hook.calls,
                oracle_hook.digest,
            ),
        )
    } else {
        let engine = run_engine(&mut engine_hierarchy, &mut NoopHook);
        let oracle = run_oracle(&mut oracle_hierarchy, &mut NoopHook);
        (
            (engine, engine_hierarchy.snapshot(), 0, 0),
            (oracle, oracle_hierarchy.snapshot(), 0, 0),
        )
    }
}

/// The landmark warm lengths: 0, 1, the landmark ± 1, the landmark itself,
/// twice it, and the full trace (less one, and whole).
fn landmark_warm_lengths(total: usize) -> Vec<usize> {
    vec![
        0,
        1,
        LANDMARK - 1,
        LANDMARK,
        LANDMARK + 1,
        2 * LANDMARK,
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
    let (engine, reference) = outcome;
    let label = format!(
        "{profile_name} engine={:?} warm={warm} measure={measure} hooked={hooked}",
        config.engine
    );
    // Asserted before the whole-struct comparison so a latency-accounting
    // divergence is named as such: the engine and the oracle must count
    // delayed hits, primary misses and their cycles identically at every
    // split point.
    assert_eq!(
        engine.0.latency, reference.0.latency,
        "LatencyStats diverged: {label}"
    );
    assert_eq!(engine.0, reference.0, "SimResult diverged: {label}");
    assert_eq!(engine.1, reference.1, "snapshot diverged: {label}");
    assert_eq!(engine.2, reference.2, "hook call count diverged: {label}");
    assert_eq!(engine.3, reference.3, "hook digest diverged: {label}");
}

#[test]
fn both_engines_match_oracle_at_landmark_splits_hooked_and_unhooked() {
    // Long enough that every landmark warm length leaves a measured region
    // crossing at least one further landmark.
    let total = 2 * LANDMARK + 2 * LANDMARK / 3;
    let trace = TraceGenerator::new(spec::gcc(), 23).generate(total);
    for config in [CpuConfig::base_out_of_order(), CpuConfig::base_in_order()] {
        for &warm in &landmark_warm_lengths(total) {
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
fn dependency_chains_across_the_warm_measure_split_match_oracle() {
    // Every record depends on the one or two before it, and every fourth is
    // a load that misses: any record that reads the wrong producer across
    // the warm/measure split shifts the run's cycles.
    let total = 2 * LANDMARK + 5;
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
        for &warm in &landmark_warm_lengths(total) {
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
    let total = 2 * LANDMARK;
    let trace = TraceGenerator::new(spec::gcc(), 23).generate(total);
    for config in [CpuConfig::base_out_of_order(), CpuConfig::base_in_order()] {
        let (engine, reference) = run_both(
            config,
            trace.records(),
            LANDMARK / 2,
            total - LANDMARK / 2,
            false,
        );
        let latency = engine.0.latency;
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
fn both_engines_match_oracle_on_arbitrary_splits_and_seeds() {
    let profiles = [spec::ammp(), spec::vortex(), spec::swim()];
    check_cases(12, |rng: &mut TestRng| {
        let profile = profiles[rng.below_usize(profiles.len())].clone();
        let total = LANDMARK + rng.below_usize(2 * LANDMARK);
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
