//! Drivers for Figures 4–9. Each returns the runner's own outcomes
//! ([`StaticOutcome`], [`DynamicOutcome`], [`Measurement`]) in application
//! order; the benches derive the plotted percentages from them.

use rescache_trace::AppProfile;

use crate::error::CoreError;
use crate::experiment::parallel::parallel_map;
use crate::experiment::report::mean;
use crate::experiment::runner::{DynamicOutcome, Measurement, Runner, StaticOutcome};
use crate::org::{ConfigSpace, Organization};
use crate::system::{ResizableCacheSide, SystemConfig};

/// Figures 4, 5 and 6: static resizing of `side` with each of
/// `organizations`, on a 32K L1 of each base associativity, on the base
/// out-of-order processor. Returns, per applicable (associativity,
/// organization) pair in input order, every application's outcome in the
/// order of `apps`.
///
/// Organizations that are inapplicable at an associativity (selective-ways
/// on a direct-mapped cache) are skipped; the paper evaluates only
/// meaningful combinations.
pub fn static_grid(
    runner: &Runner,
    apps: &[AppProfile],
    associativities: &[u32],
    organizations: &[Organization],
    side: ResizableCacheSide,
) -> Vec<(u32, Organization, Vec<StaticOutcome>)> {
    let mut cells = Vec::new();
    for &assoc in associativities {
        let system = SystemConfig::with_l1(32 * 1024, assoc);
        for &org in organizations {
            if ConfigSpace::enumerate(side.config_of(&system.hierarchy), org).is_err() {
                continue;
            }
            let outcomes = parallel_map(apps, |app| {
                runner
                    .static_best(app, &system, org, side)
                    .expect("applicability checked above")
            });
            cells.push((assoc, org, outcomes));
        }
    }
    cells
}

/// The mean (over applications) energy-delay reduction of the chosen static
/// points, in percent: one bar of Figure 4 or 6.
pub fn mean_edp_reduction(outcomes: &[StaticOutcome]) -> f64 {
    let reductions: Vec<f64> = outcomes
        .iter()
        .map(|o| o.best.edp_reduction_percent)
        .collect();
    mean(&reductions)
}

/// Figures 7 and 8: for every application, the best static and the best
/// dynamic (miss-ratio based) resizing of `side` on `system`. The dynamic
/// candidates are profiled from the static search
/// ([`Runner::dynamic_best`]).
///
/// The paper uses 32K 2-way L1 caches and selective-sets here;
/// `organization` is a parameter so the ablation bench can vary it.
///
/// # Errors
///
/// Returns an error if the organization cannot be applied to the cache.
pub fn static_vs_dynamic(
    runner: &Runner,
    apps: &[AppProfile],
    system: &SystemConfig,
    organization: Organization,
    side: ResizableCacheSide,
) -> Result<Vec<(StaticOutcome, DynamicOutcome)>, CoreError> {
    parallel_map(apps, |app| {
        let static_outcome = runner.static_best(app, system, organization, side)?;
        let dynamic_outcome =
            runner.dynamic_best(app, system, organization, side, &static_outcome)?;
        Ok((static_outcome, dynamic_outcome))
    })
    .into_iter()
    .collect()
}

/// One application of Figure 9: the best static d-cache-only and
/// i-cache-only searches, and both caches run together at their
/// individually chosen points.
#[derive(Debug, Clone)]
pub struct DualOutcome {
    /// Static search of the d-cache alone (its `base` is the baseline).
    pub d_alone: StaticOutcome,
    /// Static search of the i-cache alone.
    pub i_alone: StaticOutcome,
    /// Both caches at their chosen points.
    pub both: Measurement,
    /// Full d-cache capacity in bytes.
    pub l1d_bytes: u64,
    /// Full i-cache capacity in bytes.
    pub l1i_bytes: u64,
}

impl DualOutcome {
    /// Size reductions of the d-cache alone, the i-cache alone and both, in
    /// percent of the *combined* capacity of the two caches, as the paper
    /// plots them.
    pub fn size_reductions(&self) -> [f64; 3] {
        let (d_full, i_full) = (self.l1d_bytes as f64, self.l1i_bytes as f64);
        let combined = (self.l1d_bytes + self.l1i_bytes) as f64;
        let reduction = |d_bytes: f64, i_bytes: f64| (1.0 - (d_bytes + i_bytes) / combined) * 100.0;
        [
            reduction(self.d_alone.best.measurement.l1d_mean_bytes, i_full),
            reduction(d_full, self.i_alone.best.measurement.l1i_mean_bytes),
            reduction(self.both.l1d_mean_bytes, self.both.l1i_mean_bytes),
        ]
    }

    /// Energy-delay reductions of the d-cache alone, the i-cache alone and
    /// both, in percent of the baseline.
    pub fn edp_reductions(&self) -> [f64; 3] {
        let base = self.d_alone.base.energy_delay();
        [
            &self.d_alone.best.measurement,
            &self.i_alone.best.measurement,
            &self.both,
        ]
        .map(|m| m.energy_delay().reduction_vs(&base))
    }

    /// The sum of the two single-cache energy-delay reductions: Figure 9
    /// stacks these next to the combined bar to show additivity.
    pub fn stacked_edp_reduction(&self) -> f64 {
        let [d, i, _] = self.edp_reductions();
        d + i
    }

    /// Execution-time increase of resizing both caches, in percent.
    pub fn both_slowdown(&self) -> f64 {
        self.both
            .energy_delay()
            .slowdown_vs(&self.d_alone.base.energy_delay())
    }
}

/// Figure 9: static resizing with `organization` of the d-cache alone, the
/// i-cache alone, and both caches together, on `system`.
///
/// # Errors
///
/// Returns an error if the organization cannot be applied to the L1 caches.
pub fn dual_resizing(
    runner: &Runner,
    apps: &[AppProfile],
    system: &SystemConfig,
    organization: Organization,
) -> Result<Vec<DualOutcome>, CoreError> {
    let (d_cfg, i_cfg) = (system.hierarchy.l1d, system.hierarchy.l1i);
    parallel_map(apps, |app| {
        let d_alone = runner.static_best(app, system, organization, ResizableCacheSide::Data)?;
        let i_alone =
            runner.static_best(app, system, organization, ResizableCacheSide::Instruction)?;
        // Memoized: when either side's choice is the full size, this shares
        // a simulation already run above.
        let both = runner.run_static(
            app,
            system,
            d_alone.best.point,
            i_alone.best.point,
            organization.tag_bits(&d_cfg),
            organization.tag_bits(&i_cfg),
        );
        Ok(DualOutcome {
            d_alone,
            i_alone,
            both,
            l1d_bytes: d_cfg.size_bytes,
            l1i_bytes: i_cfg.size_bytes,
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::runner::RunnerConfig;
    use rescache_trace::spec;

    fn tiny_runner(warmup: usize, measure: usize) -> Runner {
        Runner::new(RunnerConfig {
            warmup_instructions: warmup,
            measure_instructions: measure,
            trace_seed: 7,
            dynamic_interval: 1_024,
            ..RunnerConfig::fast()
        })
    }

    /// The runner of the Figure 4–6 tests.
    fn grid_runner() -> Runner {
        tiny_runner(4_000, 12_000)
    }

    fn edp(cells: &[(u32, Organization, Vec<StaticOutcome>)], org: Organization) -> f64 {
        cells
            .iter()
            .find(|(_, o, _)| *o == org)
            .map(|(_, _, outcomes)| mean_edp_reduction(outcomes))
            .unwrap()
    }

    #[test]
    fn assoc_sweep_produces_one_point_per_combination() {
        let runner = grid_runner();
        let orgs = [Organization::SelectiveWays, Organization::SelectiveSets];
        let apps = vec![spec::ammp(), spec::m88ksim()];
        let cells = static_grid(&runner, &apps, &[2, 4], &orgs, ResizableCacheSide::Data);
        assert_eq!(cells.len(), 4);
        for (_, _, outcomes) in &cells {
            assert_eq!(outcomes.len(), 2);
            let sizes: Vec<f64> = outcomes
                .iter()
                .map(|o| o.best.size_reduction_percent)
                .collect();
            assert!(mean(&sizes) >= 0.0);
        }
    }

    #[test]
    fn per_app_rows_cover_every_app_and_org() {
        // The Figure 5 shape: 4-way, both organizations, every app present
        // in input order.
        let runner = grid_runner();
        let orgs = [Organization::SelectiveWays, Organization::SelectiveSets];
        let apps = vec![spec::ammp(), spec::compress()];
        let cells = static_grid(&runner, &apps, &[4], &orgs, ResizableCacheSide::Data);
        assert_eq!(cells.len(), 2);
        for (_, _, outcomes) in &cells {
            let names: Vec<&str> = outcomes.iter().map(|o| o.app.as_str()).collect();
            assert_eq!(names, ["ammp", "compress"]);
        }
    }

    #[test]
    fn small_working_sets_prefer_selective_sets_at_low_assoc() {
        // ammp and m88ksim have ~2-3K working sets: at 2-way, selective-sets
        // can reach 2K while selective-ways stops at 16K, so the sets
        // organization must save clearly more energy-delay.
        let runner = grid_runner();
        let apps = vec![spec::ammp(), spec::m88ksim()];
        let cells = static_grid(
            &runner,
            &apps,
            &[2],
            &[Organization::SelectiveWays, Organization::SelectiveSets],
            ResizableCacheSide::Data,
        );
        let ways = edp(&cells, Organization::SelectiveWays);
        let sets = edp(&cells, Organization::SelectiveSets);
        assert!(
            sets > ways,
            "selective-sets ({sets:.1}%) should beat selective-ways ({ways:.1}%) at 2-way"
        );
    }

    #[test]
    fn hybrid_is_at_least_as_good_as_either_organization() {
        let runner = grid_runner();
        let apps = vec![spec::ammp(), spec::compress()];
        let cells = static_grid(
            &runner,
            &apps,
            &[4],
            &Organization::ALL,
            ResizableCacheSide::Data,
        );
        let (ways, sets, hybrid) = (
            edp(&cells, Organization::SelectiveWays),
            edp(&cells, Organization::SelectiveSets),
            edp(&cells, Organization::Hybrid),
        );
        // The hybrid offers a superset of configurations, so with the same
        // exhaustive static search it can only tie or win (allow a small
        // tolerance for the extra tag-bit energy it pays relative to
        // selective-ways).
        assert!(
            hybrid >= ways - 1.0 && hybrid >= sets - 1.0,
            "hybrid {hybrid:.2}% must not lose to ways {ways:.2}% or sets {sets:.2}%"
        );
    }

    #[test]
    fn inapplicable_direct_mapped_ways_is_skipped() {
        let runner = grid_runner();
        let apps = vec![spec::ammp()];
        let cells = static_grid(
            &runner,
            &apps,
            &[1],
            &[Organization::SelectiveWays, Organization::SelectiveSets],
            ResizableCacheSide::Data,
        );
        assert_eq!(
            cells.len(),
            1,
            "only selective-sets applies to a direct-mapped cache"
        );
        assert_eq!(cells[0].1, Organization::SelectiveSets);
    }

    #[test]
    fn produces_one_row_per_app() {
        let runner = tiny_runner(4_000, 16_000);
        let apps = vec![spec::ammp(), spec::su2cor()];
        let rows = static_vs_dynamic(
            &runner,
            &apps,
            &SystemConfig::in_order(),
            Organization::SelectiveSets,
            ResizableCacheSide::Data,
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|(s, d)| {
            s.best.size_reduction_percent >= 0.0 && d.best.size_reduction_percent >= -1.0
        }));
    }

    #[test]
    fn strategies_both_find_savings_on_small_working_sets() {
        let runner = tiny_runner(4_000, 16_000);
        let apps = vec![spec::ammp(), spec::m88ksim()];
        let rows = static_vs_dynamic(
            &runner,
            &apps,
            &SystemConfig::base(),
            Organization::SelectiveSets,
            ResizableCacheSide::Data,
        )
        .unwrap();
        let static_mean = mean(
            &rows
                .iter()
                .map(|(s, _)| s.best.edp_reduction_percent)
                .collect::<Vec<_>>(),
        );
        let dynamic_mean = mean(
            &rows
                .iter()
                .map(|(_, d)| d.best.edp_reduction_percent)
                .collect::<Vec<_>>(),
        );
        assert!(
            static_mean > 2.0,
            "static should save energy-delay, got {static_mean:.1}%"
        );
        assert!(
            dynamic_mean > 0.0,
            "dynamic should save energy-delay, got {dynamic_mean:.1}%"
        );
    }

    #[test]
    fn dual_resizing_is_roughly_additive_for_small_working_sets() {
        let runner = tiny_runner(4_000, 16_000);
        let apps = vec![spec::ammp(), spec::m88ksim()];
        let outcomes = dual_resizing(
            &runner,
            &apps,
            &SystemConfig::base(),
            Organization::SelectiveSets,
        )
        .unwrap();
        assert_eq!(outcomes.len(), 2);
        for outcome in &outcomes {
            let app = &outcome.d_alone.app;
            assert!(!app.is_empty());
            let [d, i, both] = outcome.edp_reductions();
            assert!(
                both > d.max(i) - 1.0,
                "{app}: resizing both ({both:.1}%) should beat either alone ({d:.1}% / {i:.1}%)"
            );
            let stacked = outcome.stacked_edp_reduction();
            assert!(
                (both - stacked).abs() < 7.0,
                "{app}: combined saving {both:.1}% should be close to the stacked {stacked:.1}%"
            );
        }
    }

    #[test]
    fn size_reductions_are_normalised_to_the_combined_capacity() {
        let runner = tiny_runner(2_000, 8_000);
        let apps = vec![spec::ammp()];
        let outcomes = dual_resizing(
            &runner,
            &apps,
            &SystemConfig::base(),
            Organization::SelectiveSets,
        )
        .unwrap();
        let [d, i, both] = outcomes[0].size_reductions();
        // Resizing only one 32K cache of the 64K total can never exceed 50%.
        assert!(d <= 50.0);
        assert!(i <= 50.0);
        assert!(both <= 100.0);
        assert!(both >= d);
    }
}
