//! Multi-threaded stress for the shared store/memo tier.
//!
//! N worker threads share one [`SharedTier`] (one trace memo, one sim memo,
//! one persistence directory) and each computes the full sweep of
//! (application, setup) measurements. The contract under test:
//!
//! * **Determinism** — whether the store directory works or not, every
//!   thread's every measurement is bit-identical to a single-threaded,
//!   in-memory reference. A directory that cannot be used costs
//!   degradation to in-memory operation; it must never change a result.
//! * **Single-flight** — the shared memos admit one generation per key; the
//!   threaded sweep's miss count stays within the key-count bound no matter
//!   how many threads race.

use rescache::prelude::*;
use rescache_core::experiment::{Measurement, RunSetup, SharedTier};
use rescache_trace::IoPolicy;
use std::path::PathBuf;

const THREADS: usize = 8;

fn stress_config() -> RunnerConfig {
    RunnerConfig {
        warmup_instructions: 4_000,
        measure_instructions: 12_000,
        trace_seed: 42,
        dynamic_interval: 256,
        ..RunnerConfig::fast()
    }
}

fn apps() -> [AppProfile; 4] {
    [spec::ammp(), spec::gcc(), spec::vpr(), spec::swim()]
}

/// One static baseline and one dynamic-controller setup per application —
/// the static arm exercises the memoized sim path, the dynamic arm streams
/// every record through the store on every call.
fn setups(system: &SystemConfig, interval: u64) -> Vec<RunSetup> {
    let space = ConfigSpace::enumerate(
        ResizableCacheSide::Data.config_of(&system.hierarchy),
        Organization::SelectiveSets,
    )
    .expect("selective-sets applies to the base d-cache");
    let params = DynamicParams::new(interval, 8, space.min_bytes()).expect("valid dynamic params");
    vec![
        RunSetup::default(),
        RunSetup {
            dynamic: Some((ResizableCacheSide::Data, space, params)),
            d_tag_bits: 4,
            ..RunSetup::default()
        },
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rescache-stress-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The fault-free, single-threaded, in-memory reference sweep.
fn reference_sweep(cfg: RunnerConfig) -> Vec<Measurement> {
    let runner = Runner::new(cfg);
    let system = SystemConfig::base();
    let mut out = Vec::new();
    for app in apps() {
        for setup in setups(&system, cfg.dynamic_interval) {
            out.push(runner.run_dynamic_observed(&app, &system, &setup, None));
        }
    }
    out
}

/// Runs the full sweep on `THREADS` threads sharing `tier`; every thread
/// computes every measurement. Panics in a worker propagate to the caller.
fn threaded_sweep(cfg: RunnerConfig, tier: &SharedTier) -> Vec<Vec<Measurement>> {
    let runner = Runner::with_store(cfg, tier.clone());
    let system = SystemConfig::base();
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let runner = runner.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for app in apps() {
                    for setup in setups(&system, cfg.dynamic_interval) {
                        out.push(runner.run_dynamic_observed(&app, &system, &setup, None));
                    }
                }
                out
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("worker thread completes"))
        .collect()
}

#[test]
fn fault_free_threaded_sweep_is_identical_and_single_flight() {
    let cfg = stress_config();
    let expected = reference_sweep(cfg);

    let dir = temp_dir("clean");
    let tier = SharedTier::new(Some(dir.clone()), IoPolicy::none());
    let results = threaded_sweep(cfg, &tier);
    for (t, sweep) in results.iter().enumerate() {
        assert_eq!(sweep, &expected, "thread {t} diverged from the reference");
    }

    let health = tier.health();
    // Single-flight: one persisted entry per store key and one simulation
    // per sim key, no matter how many threads race. Misses are counted at
    // both the sim memo and the persist initializer, so the bound is the
    // sum of the two key populations (static arm only — dynamic runs are
    // not memoized — plus slack for a cold source racing a persist).
    let store_keys = apps().len();
    let sim_keys = apps().len();
    assert!(
        health.misses as usize <= sim_keys + 2 * store_keys,
        "single-flight bound exceeded: {health:?}"
    );
    assert!(health.hits > 0, "threaded reuse must register hits");
    assert_eq!(health.regenerations, 0, "no faults, no regenerations");
    assert!(!health.degraded, "no faults, no degradation");
    assert_eq!(
        std::fs::read_dir(&dir).expect("store dir").count(),
        store_keys,
        "exactly one persisted entry per application"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unusable_store_dir_leaves_the_threaded_sweep_bit_identical() {
    let cfg = stress_config();
    let expected = reference_sweep(cfg);

    // The store directory's path is a regular file: no entry can be read
    // or created there.
    let dir = temp_dir("occupied");
    std::fs::write(&dir, b"occupied").expect("occupy the store path");
    let tier = SharedTier::new(Some(dir.clone()), IoPolicy::none());
    let results = threaded_sweep(cfg, &tier);
    for (t, sweep) in results.iter().enumerate() {
        assert_eq!(
            sweep, &expected,
            "thread {t} diverged over an unusable store"
        );
    }
    // The first save latched degraded mode with its one-time warning;
    // every later request stayed in memory, however many threads raced.
    let health = tier.health();
    assert!(health.degraded, "{health:?}");
    assert_eq!(health.warnings, 1, "{health:?}");
    assert_eq!(health.regenerations, 0, "{health:?}");
    std::fs::remove_file(&dir).ok();
}
