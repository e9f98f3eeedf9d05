//! Integration tests of the resizing strategies across crates: the dynamic
//! controller really resizes the cache mid-simulation, tracks working-set
//! phases, and respects its bounds.

use rescache::core::experiment::{RunSetup, Runner, RunnerConfig};
use rescache::prelude::*;

fn runner() -> Runner {
    Runner::new(RunnerConfig {
        warmup_instructions: 10_000,
        measure_instructions: 60_000,
        trace_seed: 42,
        dynamic_interval: 1_024,
        ..RunnerConfig::fast()
    })
}

/// The dynamic controller attached to a full simulation downsizes a cache
/// that is far too large for the application, and the measured mean enabled
/// size reflects it.
#[test]
fn dynamic_controller_downsizes_an_oversized_cache() {
    let r = runner();
    let system = SystemConfig::base();
    let app = spec::m88ksim(); // ~2.5 KiB working set in a 32 KiB cache
    let space = ConfigSpace::enumerate(system.hierarchy.l1d, Organization::SelectiveSets).unwrap();
    let setup = RunSetup {
        dynamic: Some((
            ResizableCacheSide::Data,
            space,
            DynamicParams::new(1_024, 40, 4 * 1024).unwrap(),
        )),
        d_tag_bits: 4,
        ..RunSetup::default()
    };
    let resized = r.run_dynamic(&app, &system, &setup, |_| {});
    let base = r.run_static(&app, &system, None, None, 0, 0);
    assert!(
        resized.l1d_mean_bytes < 12.0 * 1024.0,
        "the controller should ride well below the full 32 KiB, got {:.1} KiB",
        resized.l1d_mean_bytes / 1024.0
    );
    assert!(
        resized.breakdown.l1d_pj < base.breakdown.l1d_pj * 0.6,
        "d-cache energy should drop accordingly"
    );
    let slowdown = resized.cycles as f64 / base.cycles as f64;
    assert!(
        slowdown < 1.08,
        "m88ksim fits comfortably, so the slowdown must stay small (got {slowdown:.3})"
    );
}

/// The i-cache controller leaves the d-cache untouched and vice versa.
#[test]
fn controllers_only_touch_their_own_cache() {
    let r = runner();
    let system = SystemConfig::base();
    let app = spec::swim(); // tiny instruction footprint
    let space = ConfigSpace::enumerate(system.hierarchy.l1i, Organization::SelectiveSets).unwrap();
    let setup = RunSetup {
        dynamic: Some((
            ResizableCacheSide::Instruction,
            space,
            DynamicParams::new(1_024, 30, 2 * 1024).unwrap(),
        )),
        i_tag_bits: 4,
        ..RunSetup::default()
    };
    let m = r.run_dynamic(&app, &system, &setup, |_| {});
    assert!(m.l1i_mean_bytes < 16.0 * 1024.0, "i-cache should shrink");
    assert_eq!(
        m.l1d_mean_bytes,
        32.0 * 1024.0,
        "d-cache must stay at full size"
    );
    assert_eq!(m.l1d_resizes, 0);
}

/// Static resizing of both caches simultaneously composes: the measurement
/// reflects both masks and neither interferes with the other.
#[test]
fn static_points_on_both_sides_compose() {
    let r = runner();
    let system = SystemConfig::base();
    let app = spec::ammp();
    let d_point = CachePoint { sets: 64, ways: 2 }; // 4 KiB
    let i_point = CachePoint { sets: 128, ways: 2 }; // 8 KiB
    let m = r.run_static(&app, &system, Some(d_point), Some(i_point), 4, 4);
    assert_eq!(m.l1d_mean_bytes, 4.0 * 1024.0);
    assert_eq!(m.l1i_mean_bytes, 8.0 * 1024.0);
    let base = r.run_static(&app, &system, None, None, 0, 0);
    assert!(m.breakdown.l1d_pj < base.breakdown.l1d_pj);
    assert!(m.breakdown.l1i_pj < base.breakdown.l1i_pj);
}

/// The miss-ratio controller's size-bound is honoured end to end: the cache
/// never shrinks below it no matter how quiet the workload is.
#[test]
fn size_bound_is_never_violated() {
    let r = runner();
    let system = SystemConfig::base();
    let app = spec::compress();
    let space = ConfigSpace::enumerate(system.hierarchy.l1d, Organization::SelectiveSets).unwrap();
    let setup = RunSetup {
        dynamic: Some((
            ResizableCacheSide::Data,
            space,
            DynamicParams::new(1_024, 10_000, 8 * 1024).unwrap(),
        )),
        d_tag_bits: 4,
        ..RunSetup::default()
    };
    let m = r.run_dynamic(&app, &system, &setup, |_| {});
    assert!(
        m.l1d_mean_bytes >= 8.0 * 1024.0 - 1.0,
        "mean enabled size {:.1} KiB dipped below the 8 KiB size-bound",
        m.l1d_mean_bytes / 1024.0
    );
}

/// Selective-ways and selective-sets static resizing reach the same capacity
/// through different geometries, and both register in the energy model.
#[test]
fn ways_and_sets_reach_the_same_capacity_differently() {
    let r = runner();
    let system = SystemConfig::with_l1(32 * 1024, 4);
    let app = spec::ijpeg();
    let ways_point = CachePoint { sets: 256, ways: 2 }; // 16 KiB as 2-way
    let sets_point = CachePoint { sets: 128, ways: 4 }; // 16 KiB as 4-way
    let ways = r.run_static(&app, &system, Some(ways_point), None, 0, 0);
    let sets = r.run_static(&app, &system, Some(sets_point), None, 3, 0);
    assert_eq!(ways.l1d_mean_bytes, 16.0 * 1024.0);
    assert_eq!(sets.l1d_mean_bytes, 16.0 * 1024.0);
    // ijpeg has conflict structure: keeping 4 ways at 16 KiB must not miss
    // more than the 2-way variant.
    assert!(sets.l1d_miss_ratio <= ways.l1d_miss_ratio + 1e-9);
}
