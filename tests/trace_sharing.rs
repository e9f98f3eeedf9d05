//! The copy-free, cached trace path produces byte-identical results to a
//! freshly generated, owned trace.
//!
//! `Runner::trace` returns `Arc`-shared sub-slices of one generated buffer,
//! memoized per (application name, profile fingerprint, seed, total
//! length), so configurations whose totals agree share one buffer and split
//! it at fetch time; these tests pin down
//! that sharing is purely an optimization: the shared views equal owned
//! copies record-for-record, and measurements taken through the cached path
//! equal the independent oracle's (`common/mod.rs`) over independently
//! generated traces.

mod common;

use rescache::core::experiment::{RunSetup, Runner, RunnerConfig, TraceStore};
use rescache::core::{CachePoint, SystemConfig};
use rescache::trace::{spec, Trace, TraceGenerator};

fn runner() -> Runner {
    Runner::new(RunnerConfig::fast())
}

/// Generates the same regions the runner serves, as owned copies.
fn owned_regions(config: &RunnerConfig, app: &rescache::trace::AppProfile) -> (Trace, Trace) {
    let total = config.warmup_instructions + config.measure_instructions;
    let full = TraceGenerator::new(app.clone(), config.trace_seed).generate(total);
    let warm = Trace::new(
        app.name,
        full.records()[..config.warmup_instructions].to_vec(),
    );
    let measure = Trace::new(
        app.name,
        full.records()[config.warmup_instructions..].to_vec(),
    );
    (warm, measure)
}

#[test]
fn shared_trace_views_equal_owned_copies() {
    let r = runner();
    for app in [spec::ammp(), spec::gcc(), spec::swim()] {
        let (warm, measure) = r.trace(&app);
        let (owned_warm, owned_measure) = owned_regions(r.config(), &app);
        assert_eq!(warm, owned_warm, "{}: warm region", app.name);
        assert_eq!(measure, owned_measure, "{}: measured region", app.name);
    }
}

#[test]
fn repeated_trace_requests_share_one_buffer() {
    let r = runner();
    let (warm_a, measure_a) = r.trace(&spec::vpr());
    let (warm_b, measure_b) = r.trace(&spec::vpr());
    // Same underlying allocation: the record slices point at the same memory.
    assert_eq!(warm_a.records().as_ptr(), warm_b.records().as_ptr());
    assert_eq!(measure_a.records().as_ptr(), measure_b.records().as_ptr());
    // And a clone of the runner shares the cache.
    let (warm_c, _) = r.clone().trace(&spec::vpr());
    assert_eq!(warm_a.records().as_ptr(), warm_c.records().as_ptr());
}

#[test]
fn disk_loaded_traces_equal_fresh_generation_and_share_one_buffer() {
    let dir = std::env::temp_dir().join(format!("rescache-sharing-disk-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = RunnerConfig::fast();
    let app = spec::gcc();

    // The first runner generates the trace and persists its store entry.
    let writer = Runner::with_store(config, TraceStore::with_dir(Some(dir.clone())));
    writer.trace(&app);
    assert_eq!(writer.trace_store().health().misses, 1);

    // A second store over the same directory has nothing resident, so its
    // trace is decoded from the entry rather than generated.
    let reader = Runner::with_store(config, TraceStore::with_dir(Some(dir.clone())));
    let (warm_a, measure_a) = reader.trace(&app);
    let health = reader.trace_store().health();
    assert_eq!((health.hits, health.misses), (1, 0), "served from disk");
    let (owned_warm, owned_measure) = owned_regions(&config, &app);
    assert_eq!(warm_a, owned_warm, "disk-loaded warm region");
    assert_eq!(measure_a, owned_measure, "disk-loaded measured region");

    // Repeated requests are served the one decoded buffer.
    let (warm_b, measure_b) = reader.trace(&app);
    assert_eq!(warm_a.records().as_ptr(), warm_b.records().as_ptr());
    assert_eq!(measure_a.records().as_ptr(), measure_b.records().as_ptr());
    assert_eq!(
        measure_a.records().as_ptr(),
        warm_a
            .records()
            .as_ptr()
            .wrapping_add(config.warmup_instructions),
        "warm and measured regions are windows of one buffer"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn same_named_but_different_profiles_do_not_alias() {
    use rescache::trace::InstructionMix;
    let r = runner();
    let base = spec::gcc();
    let tweaked = spec::gcc().with_mix(InstructionMix::new(0.05, 0.02, 0.01));
    assert_ne!(base.fingerprint(), tweaked.fingerprint());
    let (_, measure_base) = r.trace(&base);
    let (_, measure_tweaked) = r.trace(&tweaked);
    assert_ne!(
        measure_base, measure_tweaked,
        "a tweaked profile sharing a name must not be served the cached trace"
    );
}

#[test]
fn shared_traces_yield_identical_measurements() {
    let r = runner();
    let system = SystemConfig::base();
    let app = spec::m88ksim();
    let point = CachePoint { sets: 128, ways: 2 };

    let from_shared = r.run_static(&app, &system, Some(point), None, 2, 0);
    let owned = common::trace(&app, r.config());
    let from_owned = common::measure(
        &owned,
        r.config(),
        &system,
        (Some(point), None),
        &RunSetup {
            d_tag_bits: 2,
            ..RunSetup::default()
        },
    );
    assert_eq!(
        from_shared, from_owned,
        "a shared trace view must measure identically to a fresh copy"
    );
}

#[test]
fn memoized_static_runs_match_uncached_runs() {
    let r = runner();
    let app = spec::su2cor();
    let trace = common::trace(&app, r.config());
    let d_point = CachePoint { sets: 256, ways: 2 };
    let i_point = CachePoint { sets: 128, ways: 2 };
    // The baseline runs first: a memo keyed on less than both geometries
    // would serve its simulation again for a resized point. Unequal d- and
    // i-cache tag bits catch a pricing that mixes the two sides up.
    let cases = [
        (None, None, 0, 0),
        (Some(d_point), None, 4, 0),
        (None, Some(i_point), 0, 3),
        (Some(d_point), Some(i_point), 4, 3),
    ];
    for system in [SystemConfig::in_order(), SystemConfig::base()] {
        for (d, i, d_bits, i_bits) in cases {
            let label = format!("{:?} d {d:?} i {i:?}", system.cpu.engine);
            // Through the memoized path (twice: the second is a memo hit).
            let cached_first = r.run_static(&app, &system, d, i, d_bits, i_bits);
            let cached_second = r.run_static(&app, &system, d, i, d_bits, i_bits);
            assert_eq!(cached_first, cached_second, "{label}");
            // Through the oracle with the same setup.
            let setup = RunSetup {
                d_tag_bits: d_bits,
                i_tag_bits: i_bits,
                ..RunSetup::default()
            };
            let uncached = common::measure(&trace, r.config(), &system, (d, i), &setup);
            assert_eq!(cached_first, uncached, "{label}");
        }
    }

    // Different tag bits share the simulation but price differently.
    let system = SystemConfig::base();
    let tagged = r.run_static(&app, &system, Some(d_point), None, 4, 0);
    let repriced = r.run_static(&app, &system, Some(d_point), None, 0, 0);
    assert_eq!(repriced.cycles, tagged.cycles);
    assert!(repriced.energy_pj < tagged.energy_pj);
}
