//! Differential harness for the store-backed runner: a dynamic-controller
//! run by `Runner::run_dynamic` over its trace store's resident trace
//! (in memory, or loaded from and persisted to a store directory) must
//! be **bit-identical** to the independent oracle of `common/mod.rs` over a
//! freshly generated trace — same timing, same resize counts, same energy
//! breakdowns — on both engines, across registry workloads and controller
//! parameter candidates. A whole dynamic sweep over a store directory must
//! equal the same sweep over an in-memory store, and a static run through
//! the store must equal the oracle too.
//!
//! The store-backed variants also assert the memory contract: however many
//! candidates a sweep runs, the store keeps **one** resident trace per
//! application.

mod common;

use rescache::prelude::*;
use rescache_core::experiment::{Measurement, RunSetup};
use rescache_trace::WorkloadRegistry;
use std::path::PathBuf;

fn engines() -> [SystemConfig; 2] {
    [SystemConfig::in_order(), SystemConfig::base()]
}

fn fast_config() -> RunnerConfig {
    RunnerConfig {
        warmup_instructions: 6_000,
        measure_instructions: 18_000,
        trace_seed: 42,
        dynamic_interval: 256,
        ..RunnerConfig::fast()
    }
}

/// Two miss-bound/size-bound candidates per sweep. The registry workloads
/// miss ~10–15 times per 256-access interval at full size, so a generous
/// miss-bound (64) commands steady downsizing to the floor while a tight one
/// (8) sits near the equilibrium and oscillates — both regimes exercise the
/// controller across the warm/measure boundary.
fn candidate_params(space: &ConfigSpace, interval: u64) -> Vec<DynamicParams> {
    vec![
        DynamicParams::new(interval, 64, space.min_bytes()).expect("valid params"),
        DynamicParams::new(interval, 8, space.sizes_bytes()[space.len() / 2])
            .expect("valid params"),
    ]
}

/// Asserts every observable of the two measurements is identical (not merely
/// close): timing, activity-derived energy breakdown, mean sizes, miss
/// ratios and resize counts.
fn assert_identical(label: &str, expected: &Measurement, got: &Measurement) {
    assert_eq!(
        expected, got,
        "{label}: store-backed run diverged from the oracle"
    );
    // Measurement's PartialEq covers every field, but spell out the ones the
    // differentials care about so a divergence pinpoints itself.
    assert_eq!(expected.cycles, got.cycles, "{label}: cycles");
    assert_eq!(
        expected.breakdown, got.breakdown,
        "{label}: energy breakdown"
    );
    assert_eq!(
        (expected.l1d_resizes, expected.l1i_resizes),
        (got.l1d_resizes, got.l1i_resizes),
        "{label}: resize counts"
    );
}

/// The core differential: for one (profile, system) pair, run every
/// candidate through the store-backed `Runner::run_dynamic` and through
/// the oracle, and require equality. `store_dir` selects the store
/// mode (None = in-memory, Some = persisted). Returns the total resizes
/// observed so callers can assert controller activity where the workload
/// makes it deterministic.
fn assert_dynamic_equivalence(
    profile: &AppProfile,
    system: &SystemConfig,
    store_dir: Option<PathBuf>,
) -> u64 {
    let cfg = fast_config();
    let trace = common::trace(profile, &cfg);
    let store_runner = Runner::with_store(cfg, SharedTier::with_dir(store_dir));

    let space = ConfigSpace::enumerate(
        ResizableCacheSide::Data.config_of(&system.hierarchy),
        Organization::SelectiveSets,
    )
    .expect("selective-sets applies to the base d-cache");

    let mut resizes = 0;
    for params in candidate_params(&space, cfg.dynamic_interval) {
        let setup = RunSetup {
            dynamic: Some((ResizableCacheSide::Data, space.clone(), params)),
            d_tag_bits: 4,
            ..RunSetup::default()
        };
        let expected = common::measure(&trace, &cfg, system, (None, None), &setup);
        let got = store_runner.run_dynamic(profile, system, &setup, |_| {});
        let label = format!(
            "{} / {:?} / miss_bound {} size_bound {}",
            profile.name, system.cpu.engine, params.miss_bound, params.size_bound_bytes
        );
        assert_identical(&label, &expected, &got);
        resizes += got.l1d_resizes;
    }

    assert_eq!(
        store_runner.trace_store().resident_full_traces(),
        1,
        "{}: every candidate replays the one resident trace",
        profile.name
    );
    resizes
}

#[test]
fn registry_workloads_match_across_engines_with_a_persistent_store() {
    let registry = WorkloadRegistry::builtin();
    // ≥4 registry workloads covering the controller's interesting regimes:
    // the all-round baseline, the dynamic-resizing target case, serial
    // misses, and MSHR saturation.
    for name in ["nominal", "phase_flip", "pointer_chase", "mshr_burst"] {
        let spec = registry.get(name).expect("registered workload");
        let profile = spec.profile();
        for system in engines() {
            let dir = std::env::temp_dir().join(format!(
                "rescache-dyneq-{name}-{:?}-{}",
                system.cpu.engine,
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let resizes = assert_dynamic_equivalence(&profile, &system, Some(dir.clone()));
            if name == "nominal" || name == "phase_flip" {
                assert!(
                    resizes > 0,
                    "{name}: an L1-friendly workload must trigger downsizing"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn paper_profiles_match_with_an_in_memory_store() {
    // The in-memory store generates the trace instead of loading and
    // persisting it: same contract.
    for profile in [spec::su2cor(), spec::compress()] {
        for system in engines() {
            assert_dynamic_equivalence(&profile, &system, None);
        }
    }
}

#[test]
fn full_dynamic_sweep_is_identical_with_a_store_dir() {
    // End-to-end: `dynamic_best` (snapped candidates profiled from the
    // static search) over a store with a persistence directory must equal
    // the same sweep run by an in-memory reference runner, every candidate
    // must equal the oracle, and the sweep must finish with one resident
    // trace and one persisted entry.
    let cfg = fast_config();
    let app = spec::su2cor();
    let trace = common::trace(&app, &cfg);
    let dir = std::env::temp_dir().join(format!("rescache-dyneq-sweep-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let reference = Runner::new(cfg);
    let backed = Runner::with_store(cfg, SharedTier::with_dir(Some(dir.clone())));
    let (org, side) = (Organization::SelectiveSets, ResizableCacheSide::Data);
    for system in engines() {
        let sweep = |runner: &Runner| {
            let static_outcome = runner
                .static_best(&app, &system, org, side)
                .expect("static search runs");
            runner
                .dynamic_best(&app, &system, org, side, &static_outcome)
                .expect("sweep runs")
        };
        let expected = sweep(&reference);
        let got = sweep(&backed);
        assert_eq!(expected.evaluated.len(), got.evaluated.len());
        for ((p_ref, m_ref), (p_got, m_got)) in expected.evaluated.iter().zip(&got.evaluated) {
            assert_eq!(p_ref, p_got);
            let label = format!("sweep {:?} {p_ref:?}", system.cpu.engine);
            assert_identical(&label, m_ref, m_got);
            let space = ConfigSpace::enumerate(system.hierarchy.l1d, org).expect("space");
            let setup = RunSetup {
                dynamic: Some((side, space, *p_got)),
                d_tag_bits: system.hierarchy.l1d.resizing_tag_bits(),
                ..RunSetup::default()
            };
            let oracle = common::measure(&trace, &cfg, &system, (None, None), &setup);
            assert_identical(&format!("{label} vs oracle"), &oracle, m_got);
        }
        assert_identical(
            &format!("sweep base {:?}", system.cpu.engine),
            &expected.base,
            &got.base,
        );
        assert_eq!(
            expected.best.edp_reduction_percent,
            got.best.edp_reduction_percent
        );
    }
    assert_eq!(
        backed.trace_store().resident_full_traces(),
        1,
        "the whole dynamic sweep replayed one resident trace"
    );
    assert_eq!(std::fs::read_dir(&dir).expect("store dir").count(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_backed_dynamic_run_survives_a_corrupted_store_entry() {
    // Corrupt the persisted entry after it is written: a fresh store's
    // load faults mid-read, and the run must fall back to regeneration and
    // still produce the oracle's exact result.
    let cfg = fast_config();
    let app = spec::m88ksim();
    let system = SystemConfig::base();
    let dir = std::env::temp_dir().join(format!("rescache-dyneq-corrupt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Populate the entry.
    SharedTier::with_dir(Some(dir.clone())).fetch(&app, &cfg);
    let entry = std::fs::read_dir(&dir)
        .expect("store dir")
        .next()
        .expect("one entry")
        .expect("entry")
        .path();
    let mut bytes = std::fs::read(&entry).expect("read entry");
    // Write a bad kind byte into a record past the codec's first read
    // buffer (4 Ki records) so the fault hits mid-read. v4 container:
    // magic(8) + name_len(4) + name + count(8), then 11 bytes per record
    // [pc u32][addr u32][kind][dep1][dep2].
    assert_eq!(&bytes[..8], b"RCTRACE4");
    let record = 10_000;
    let total = cfg.warmup_instructions + cfg.measure_instructions;
    assert!(record < total);
    let body = 8 + 4 + app.name.len() + 8;
    assert_eq!(bytes.len(), body + 11 * total);
    bytes[body + 11 * record + 8] = 0xff;
    std::fs::write(&entry, &bytes).expect("corrupt entry");

    let space = ConfigSpace::enumerate(
        ResizableCacheSide::Data.config_of(&system.hierarchy),
        Organization::SelectiveSets,
    )
    .expect("space");
    let params = DynamicParams::new(cfg.dynamic_interval, 4, space.min_bytes()).expect("params");
    let setup = RunSetup {
        dynamic: Some((ResizableCacheSide::Data, space, params)),
        d_tag_bits: 4,
        ..RunSetup::default()
    };

    let expected = common::measure(
        &common::trace(&app, &cfg),
        &cfg,
        &system,
        (None, None),
        &setup,
    );
    let backed = Runner::with_store(cfg, SharedTier::with_dir(Some(dir.clone())));
    let got = backed.run_dynamic(&app, &system, &setup, |_| {});
    assert_identical("corrupt-entry fallback", &expected, &got);
    let health = backed.trace_store().health();
    assert_eq!((health.regenerations, health.misses), (1, 0));

    // The regeneration's save replaces the corrupt entry, so the store
    // self-heals: a new store loads it from disk instead of paying the
    // doomed partial read forever.
    let healed = Runner::with_store(cfg, SharedTier::with_dir(Some(dir.clone())));
    let again = healed.run_dynamic(&app, &system, &setup, |_| {});
    assert_identical("healed entry", &expected, &again);
    let health = healed.trace_store().health();
    assert_eq!((health.hits, health.regenerations), (1, 0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn static_setups_also_match_through_the_store() {
    // A static point through the store-backed memo, and a setup with no
    // controller through `run_dynamic` (which delegates to the
    // memoized full-size static path): both bit-identical to the oracle.
    let cfg = fast_config();
    let app = spec::ammp();
    let system = SystemConfig::base();
    let dir = std::env::temp_dir().join(format!("rescache-dyneq-static-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let trace = common::trace(&app, &cfg);
    let backed = Runner::with_store(cfg, SharedTier::with_dir(Some(dir.clone())));
    let point = CachePoint { sets: 64, ways: 2 };
    let setup = RunSetup {
        d_tag_bits: 4,
        ..RunSetup::default()
    };
    let expected = common::measure(&trace, &cfg, &system, (Some(point), None), &setup);
    let got = backed.run_static(&app, &system, Some(point), None, 4, 0);
    assert_identical("store-backed static", &expected, &got);
    let expected = common::measure(&trace, &cfg, &system, (None, None), &setup);
    let got = backed.run_dynamic(&app, &system, &setup, |_| {});
    assert_identical("store-backed setup without a controller", &expected, &got);
    assert_eq!(backed.trace_store().resident_full_traces(), 1);
    std::fs::remove_dir_all(&dir).ok();
}
