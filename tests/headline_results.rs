//! Integration tests for the paper's headline claims, run at a reduced scale
//! (the full-scale figures are printed by `cargo bench --bench paper`).

use rescache::core::experiment::{
    dual_resizing, mean_edp_reduction, static_grid, static_vs_dynamic, Runner, RunnerConfig,
    StaticOutcome,
};
use rescache::prelude::*;
use rescache::trace::AppProfile;

fn test_config() -> RunnerConfig {
    RunnerConfig {
        warmup_instructions: 8_000,
        measure_instructions: 40_000,
        trace_seed: 42,
        dynamic_interval: 1_024,
        ..RunnerConfig::fast()
    }
}

fn test_runner() -> Runner {
    Runner::new(test_config())
}

fn small_ws_apps() -> Vec<AppProfile> {
    vec![spec::ammp(), spec::applu(), spec::m88ksim()]
}

/// The mean energy-delay reduction of `org`'s cell in a one-associativity
/// grid.
fn mean_edp(cells: &[(u32, Organization, Vec<StaticOutcome>)], org: Organization) -> f64 {
    cells
        .iter()
        .find(|(_, o, _)| *o == org)
        .map(|(_, _, outcomes)| mean_edp_reduction(outcomes))
        .unwrap()
}

/// Claim 3 (Figures 7/8): dynamic resizing is never worse than static
/// resizing — its candidate set includes a controller anchored at the static
/// best size — so for every application and trace seed the best dynamic
/// energy-delay reduction reaches the static one, to within 0.05 points.
/// In-order engine, i-cache, selective-sets.
///
/// The anchored controller walks from full size to its floor one size per
/// interval, flushing at every step. The claim needs that walk, and the
/// refill after it, to end inside the warm-up, as it does at paper length.
/// `test_config()`'s 8,000-instruction warm-up gives the walk only one or
/// two 1,024-access intervals, so it spills into the measured region; this
/// test warms up for 50,000 instructions instead.
#[test]
fn dynamic_matches_or_beats_static_on_every_app_and_seed() {
    let apps = spec::all_profiles();
    for seed in [42, 43, 44] {
        let runner = Runner::new(RunnerConfig {
            trace_seed: seed,
            warmup_instructions: 50_000,
            ..test_config()
        });
        let pairs = static_vs_dynamic(
            &runner,
            &apps,
            &[SystemConfig::in_order()],
            Organization::SelectiveSets,
            ResizableCacheSide::Instruction,
        )
        .unwrap()
        .remove(0);
        assert_eq!(pairs.len(), apps.len());
        for (s, d) in pairs {
            assert!(
                d.best.edp_reduction_percent >= s.best.edp_reduction_percent - 0.05,
                "{} (seed {seed}): dynamic {:.2} % below static {:.2} %",
                s.app,
                d.best.edp_reduction_percent,
                s.best.edp_reduction_percent
            );
        }
    }
}

/// Claim 1 (organization): for low-associativity caches, selective-sets
/// offers better energy-delay than selective-ways because it reaches smaller
/// sizes and keeps associativity.
#[test]
fn selective_sets_beats_selective_ways_at_two_way() {
    let runner = test_runner();
    let apps = small_ws_apps();
    let cells = static_grid(
        &runner,
        &apps,
        &[2],
        &[Organization::SelectiveWays, Organization::SelectiveSets],
        ResizableCacheSide::Data,
    );
    let ways = mean_edp(&cells, Organization::SelectiveWays);
    let sets = mean_edp(&cells, Organization::SelectiveSets);
    assert!(
        sets > ways + 1.0,
        "selective-sets ({sets:.1} %) should clearly beat selective-ways ({ways:.1} %) at 2-way"
    );
}

/// Claim 1 (organization, other end): for highly associative caches,
/// selective-ways offers the better spectrum and wins.
#[test]
fn selective_ways_beats_selective_sets_at_sixteen_way() {
    let runner = test_runner();
    let apps = small_ws_apps();
    let cells = static_grid(
        &runner,
        &apps,
        &[16],
        &[Organization::SelectiveWays, Organization::SelectiveSets],
        ResizableCacheSide::Data,
    );
    let ways = mean_edp(&cells, Organization::SelectiveWays);
    let sets = mean_edp(&cells, Organization::SelectiveSets);
    assert!(
        ways > sets,
        "selective-ways ({ways:.1} %) should beat selective-sets ({sets:.1} %) at 16-way"
    );
}

/// Claim 2 (hybrid): the hybrid organization at least matches the better of
/// the two single organizations.
#[test]
fn hybrid_matches_or_beats_both_organizations() {
    let runner = test_runner();
    let apps = vec![spec::ammp(), spec::ijpeg(), spec::compress()];
    for assoc in [2u32, 4] {
        let cells = static_grid(
            &runner,
            &apps,
            &[assoc],
            &Organization::ALL,
            ResizableCacheSide::Data,
        );
        let get = |org: Organization| mean_edp(&cells, org);
        let hybrid = get(Organization::Hybrid);
        let best_single = get(Organization::SelectiveWays).max(get(Organization::SelectiveSets));
        assert!(
            hybrid >= best_single - 1.0,
            "{assoc}-way: hybrid ({hybrid:.1} %) must not lose to the best single organization ({best_single:.1} %)"
        );
    }
}

/// Claim 3 (dual resizing): resizing both L1 caches together saves roughly
/// the sum of the individual savings, and clearly more than either alone.
#[test]
fn dual_resizing_is_additive() {
    let runner = test_runner();
    let apps = small_ws_apps();
    let outcomes = dual_resizing(
        &runner,
        &apps,
        &SystemConfig::base(),
        Organization::SelectiveSets,
    )
    .unwrap();
    for outcome in &outcomes {
        let app = &outcome.d_alone.app;
        let [d, i, both] = outcome.edp_reductions();
        assert!(
            both >= d.max(i) - 1.0,
            "{app}: both ({both:.1} %) should beat either alone"
        );
        let stacked = outcome.stacked_edp_reduction();
        assert!(
            (both - stacked).abs() <= 7.0,
            "{app}: combined saving {both:.1} % should track the stacked sum {stacked:.1} %"
        );
    }
    // Small-working-set applications should already show a sizeable combined
    // saving even at this reduced simulation scale.
    let mean_both: f64 =
        outcomes.iter().map(|o| o.edp_reductions()[2]).sum::<f64>() / outcomes.len() as f64;
    assert!(
        mean_both > 15.0,
        "combined d+i resizing for small-working-set apps should save well over 15 %, got {mean_both:.1} %"
    );
}

/// Claim 4 (performance guardrail): the minimum-EDP configurations come at a
/// small performance cost (the paper reports <6 % for every experiment).
#[test]
fn best_static_points_have_bounded_slowdown() {
    let runner = test_runner();
    for app in [spec::ammp(), spec::ijpeg(), spec::vpr()] {
        let outcome = runner
            .static_best(
                &app,
                &SystemConfig::base(),
                Organization::SelectiveSets,
                ResizableCacheSide::Data,
            )
            .unwrap();
        assert!(
            outcome.best.slowdown_percent < 8.0,
            "{}: the chosen static point should not slow execution by more than a few percent, got {:.1} %",
            outcome.app,
            outcome.best.slowdown_percent
        );
    }
}

/// End-to-end determinism: the whole pipeline (trace, simulation, energy,
/// search) produces identical results for identical inputs.
#[test]
fn experiment_pipeline_is_deterministic() {
    let runner = test_runner();
    let a = runner
        .static_best(
            &spec::gcc(),
            &SystemConfig::base(),
            Organization::SelectiveSets,
            ResizableCacheSide::Data,
        )
        .unwrap();
    let b = runner
        .static_best(
            &spec::gcc(),
            &SystemConfig::base(),
            Organization::SelectiveSets,
            ResizableCacheSide::Data,
        )
        .unwrap();
    assert_eq!(a.best.choice, b.best.choice);
    assert_eq!(a.base.cycles, b.base.cycles);
    assert_eq!(a.best.measurement.cycles, b.best.measurement.cycles);
    assert!((a.best.edp_reduction_percent - b.best.edp_reduction_percent).abs() < 1e-12);
}
