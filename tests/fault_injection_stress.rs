//! Multi-threaded fault-injection stress for the shared store/memo tier.
//!
//! N worker threads share one [`SharedTier`] (one trace memo, one sim memo,
//! one persistence directory, one fault injector) and each computes the full
//! sweep of (application, setup) measurements. The contract under test:
//!
//! * **Determinism** — with or without injected faults, every thread's every
//!   measurement is bit-identical to a fault-free, single-threaded,
//!   in-memory reference. Faults may cost retries, regenerations or
//!   degradation to in-memory streaming; they must never change a result.
//! * **Single-flight** — the shared memos admit one generation per key; the
//!   fault-free threaded sweep's miss count stays within the key-count
//!   bound no matter how many threads race.
//! * **No poisoning** — a worker that panics mid-generation (injected via a
//!   scripted fault) must not wedge or poison the tier: sibling threads
//!   complete with correct results and a later request regenerates cleanly.

use rescache::prelude::*;
use rescache_core::experiment::{Measurement, RunSetup, SharedTier};
use rescache_trace::{FaultInjector, FaultKind, FaultSpec, IoOp, IoPolicy, ScriptedFault};
use std::path::PathBuf;
use std::sync::Arc;

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
    let runner = Runner::with_store(cfg, TraceStore::with_tier(tier.clone()));
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

    let health = tier.health_snapshot();
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
    assert_eq!(health.quarantines, 0, "no faults, no quarantines");
    assert!(!health.degraded, "no faults, no degradation");
    assert_eq!(
        std::fs::read_dir(&dir).expect("store dir").count(),
        store_keys,
        "exactly one persisted entry per application"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_faults_leave_the_threaded_sweep_bit_identical() {
    let cfg = stress_config();
    let expected = reference_sweep(cfg);

    let dir = temp_dir("faulted");
    let spec = FaultSpec::parse("seed=11,open=0.05,read=0.02,write=0.05,rename=0.05,full=0.01")
        .expect("valid fault spec");
    let injector = Arc::new(FaultInjector::seeded(spec));
    let tier = SharedTier::new(Some(dir.clone()), IoPolicy::with_injector(injector.clone()));
    let results = threaded_sweep(cfg, &tier);
    for (t, sweep) in results.iter().enumerate() {
        assert_eq!(
            sweep, &expected,
            "thread {t} diverged under injected faults"
        );
    }
    assert!(
        injector.injected() > 0,
        "the stress run must actually exercise the fault paths"
    );
    // Recovery must be *accounted*, not silent: every injected fault lands
    // in a health counter (retry, regeneration, quarantine, extra miss or
    // degradation) rather than vanishing.
    let health = tier.health_snapshot();
    assert!(
        health.retries + health.regenerations + health.misses + health.warnings > 0,
        "injected faults left no recovery trace: {health:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_panicking_worker_does_not_poison_its_siblings() {
    let cfg = stress_config();
    let app = spec::ammp();
    let reference = {
        let runner = Runner::new(cfg);
        runner.trace(&app)
    };

    let dir = temp_dir("panic");
    let injector = Arc::new(FaultInjector::scripted([ScriptedFault {
        op: IoOp::Write,
        kind: FaultKind::Panic,
    }]));
    let tier = SharedTier::new(Some(dir.clone()), IoPolicy::with_injector(injector));
    let store = TraceStore::with_tier(tier.clone());

    // Whichever worker reaches the persist write first consumes the one
    // scripted panic and dies inside the trace memo's initializer; the
    // others must complete with the correct trace regardless.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let store = store.clone();
            let app = app.clone();
            std::thread::spawn(move || store.fetch(&app, &cfg))
        })
        .collect();
    let mut panicked = 0;
    for handle in handles {
        match handle.join() {
            Ok(fetched) => assert_eq!(fetched, reference, "sibling served a wrong trace"),
            Err(_) => panicked += 1,
        }
    }
    assert_eq!(
        panicked, 1,
        "exactly one worker consumes the scripted panic"
    );

    // The tier survived the unwound initializer: a later fetch on the main
    // thread is served (memoized by a sibling) and the store is not
    // degraded or quarantining anything.
    assert_eq!(store.fetch(&app, &cfg), reference);
    let health = store.health();
    assert!(!health.degraded, "a panic is not a degradation: {health:?}");
    assert_eq!(health.quarantines, 0, "{health:?}");
    std::fs::remove_dir_all(&dir).ok();
}
