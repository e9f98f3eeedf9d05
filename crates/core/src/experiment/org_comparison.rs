//! Drivers for Figures 4, 5 and 6: static selective-ways versus
//! selective-sets, and (Figure 6) the hybrid organization against both.

use rescache_trace::AppProfile;

use crate::error::CoreError;
use crate::experiment::parallel::parallel_map;
use crate::experiment::report::mean;
use crate::experiment::runner::Runner;
use crate::org::Organization;
use crate::system::{ResizableCacheSide, SystemConfig};

/// One bar of Figure 4 / Figure 6: the mean energy-delay reduction of one
/// organization at one base associativity.
#[derive(Debug, Clone, PartialEq)]
pub struct OrgAssocPoint {
    /// Base L1 associativity.
    pub associativity: u32,
    /// Resizing organization.
    pub organization: Organization,
    /// Which L1 cache was resized.
    pub side: ResizableCacheSide,
    /// Mean (over applications) reduction of the processor energy-delay
    /// product, in percent.
    pub mean_edp_reduction: f64,
    /// Mean (over applications) reduction of the cache size, in percent.
    pub mean_size_reduction: f64,
    /// Per-application energy-delay reductions, in the order of `apps`.
    pub per_app_edp_reduction: Vec<f64>,
}

/// One pair of bars of Figure 5: per-application size and energy-delay
/// reduction of one organization.
#[derive(Debug, Clone, PartialEq)]
pub struct PerAppOrgRow {
    /// Application name.
    pub app: String,
    /// Resizing organization.
    pub organization: Organization,
    /// Reduction of the average cache size, in percent.
    pub size_reduction: f64,
    /// Reduction of the processor energy-delay product, in percent.
    pub edp_reduction: f64,
    /// Execution-time increase of the chosen configuration, in percent.
    pub slowdown: f64,
}

/// Figure 4 (and Figure 6 when `organizations` includes the hybrid):
/// sweeps base associativities and reports the mean energy-delay reduction
/// each organization achieves with static resizing of `side`, on the
/// out-of-order base processor.
///
/// Organizations that are inapplicable at a given associativity (e.g.
/// selective-ways on a direct-mapped cache) are skipped silently; the paper
/// only evaluates meaningful combinations.
///
/// # Errors
///
/// Returns an error only if an applicable combination fails to enumerate its
/// configuration space, which indicates an invalid base cache configuration.
pub fn organization_vs_associativity(
    runner: &Runner,
    apps: &[AppProfile],
    associativities: &[u32],
    organizations: &[Organization],
    side: ResizableCacheSide,
) -> Result<Vec<OrgAssocPoint>, CoreError> {
    let mut points = Vec::new();
    for &assoc in associativities {
        let system = SystemConfig::with_l1(32 * 1024, assoc);
        for &org in organizations {
            // Skip inapplicable combinations up front.
            let cache_cfg = side.config_of(&system.hierarchy);
            if crate::org::ConfigSpace::enumerate(cache_cfg, org).is_err() {
                continue;
            }
            let outcomes = parallel_map(apps, |app| {
                runner
                    .static_best(app, &system, org, side)
                    .expect("applicability checked above")
            });
            let reductions: Vec<f64> = outcomes
                .iter()
                .map(|o| o.best.edp_reduction_percent)
                .collect();
            let sizes: Vec<f64> = outcomes
                .iter()
                .map(|o| o.best.size_reduction_percent)
                .collect();
            points.push(OrgAssocPoint {
                associativity: assoc,
                organization: org,
                side,
                mean_edp_reduction: mean(&reductions),
                mean_size_reduction: mean(&sizes),
                per_app_edp_reduction: reductions,
            });
        }
    }
    Ok(points)
}

/// Figure 5: per-application comparison of static selective-ways and
/// selective-sets for a 32K 4-way L1 on the base out-of-order processor.
///
/// # Errors
///
/// Returns an error if an organization cannot be applied to the 4-way cache
/// (it can; both organizations are applicable at 4-way).
pub fn per_app_org_comparison(
    runner: &Runner,
    apps: &[AppProfile],
    associativity: u32,
    organizations: &[Organization],
    side: ResizableCacheSide,
) -> Result<Vec<PerAppOrgRow>, CoreError> {
    let system = SystemConfig::with_l1(32 * 1024, associativity);
    let mut rows = Vec::new();
    for &org in organizations {
        let outcomes = parallel_map(apps, |app| runner.static_best(app, &system, org, side));
        for outcome in outcomes {
            let outcome = outcome?;
            rows.push(PerAppOrgRow {
                app: outcome.app.clone(),
                organization: org,
                size_reduction: outcome.best.size_reduction_percent,
                edp_reduction: outcome.best.edp_reduction_percent,
                slowdown: outcome.best.slowdown_percent,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::runner::RunnerConfig;
    use rescache_trace::spec;

    fn tiny_runner() -> Runner {
        Runner::new(RunnerConfig {
            warmup_instructions: 4_000,
            measure_instructions: 12_000,
            trace_seed: 7,
            dynamic_interval: 1_024,
            ..RunnerConfig::fast()
        })
    }

    #[test]
    fn assoc_sweep_produces_one_point_per_combination() {
        let runner = tiny_runner();
        let apps = vec![spec::ammp(), spec::m88ksim()];
        let points = organization_vs_associativity(
            &runner,
            &apps,
            &[2, 4],
            &[Organization::SelectiveWays, Organization::SelectiveSets],
            ResizableCacheSide::Data,
        )
        .unwrap();
        assert_eq!(points.len(), 4);
        for p in &points {
            assert_eq!(p.per_app_edp_reduction.len(), 2);
            assert!(p.mean_size_reduction >= 0.0);
        }
    }

    #[test]
    fn small_working_sets_prefer_selective_sets_at_low_associativity() {
        // ammp and m88ksim have ~2-3K working sets: at 2-way, selective-sets
        // can reach 2K while selective-ways stops at 16K, so the sets
        // organization must save clearly more energy-delay.
        let runner = tiny_runner();
        let apps = vec![spec::ammp(), spec::m88ksim()];
        let points = organization_vs_associativity(
            &runner,
            &apps,
            &[2],
            &[Organization::SelectiveWays, Organization::SelectiveSets],
            ResizableCacheSide::Data,
        )
        .unwrap();
        let ways = points
            .iter()
            .find(|p| p.organization == Organization::SelectiveWays)
            .unwrap();
        let sets = points
            .iter()
            .find(|p| p.organization == Organization::SelectiveSets)
            .unwrap();
        assert!(
            sets.mean_edp_reduction > ways.mean_edp_reduction,
            "selective-sets ({:.1}%) should beat selective-ways ({:.1}%) at 2-way",
            sets.mean_edp_reduction,
            ways.mean_edp_reduction
        );
    }

    #[test]
    fn hybrid_is_at_least_as_good_as_either_organization() {
        let runner = tiny_runner();
        let apps = vec![spec::ammp(), spec::compress()];
        let points = organization_vs_associativity(
            &runner,
            &apps,
            &[4],
            &Organization::ALL,
            ResizableCacheSide::Data,
        )
        .unwrap();
        let edp = |org: Organization| {
            points
                .iter()
                .find(|p| p.organization == org)
                .map(|p| p.mean_edp_reduction)
                .unwrap()
        };
        let (ways, sets, hybrid) = (
            edp(Organization::SelectiveWays),
            edp(Organization::SelectiveSets),
            edp(Organization::Hybrid),
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
    fn per_app_rows_cover_every_app_and_org() {
        let runner = tiny_runner();
        let apps = vec![spec::ammp(), spec::compress()];
        let rows = per_app_org_comparison(
            &runner,
            &apps,
            4,
            &[Organization::SelectiveWays, Organization::SelectiveSets],
            ResizableCacheSide::Data,
        )
        .unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().any(|r| r.app == "ammp"));
        assert!(rows.iter().any(|r| r.app == "compress"));
    }

    #[test]
    fn inapplicable_direct_mapped_ways_is_skipped() {
        let runner = tiny_runner();
        let apps = vec![spec::ammp()];
        let points = organization_vs_associativity(
            &runner,
            &apps,
            &[1],
            &[Organization::SelectiveWays, Organization::SelectiveSets],
            ResizableCacheSide::Data,
        )
        .unwrap();
        assert_eq!(
            points.len(),
            1,
            "only selective-sets applies to a direct-mapped cache"
        );
        assert_eq!(points[0].organization, Organization::SelectiveSets);
    }
}
