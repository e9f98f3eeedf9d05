//! Driver for Figure 9: resizing the d-cache alone, the i-cache alone, and
//! both caches simultaneously (the additivity result).

use rescache_trace::AppProfile;

use crate::error::CoreError;
use crate::experiment::parallel::parallel_map;
use crate::experiment::runner::{Measurement, Runner};
use crate::org::{ConfigSpace, Organization};
use crate::system::{ResizableCacheSide, SystemConfig};

/// The three resizing scopes of Figure 9 for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct DualOutcome {
    /// Application name.
    pub app: String,
    /// The non-resizable baseline.
    pub base: Measurement,
    /// Best static d-cache-only configuration.
    pub d_alone: Measurement,
    /// Best static i-cache-only configuration.
    pub i_alone: Measurement,
    /// Both caches resized to their individually profiled best sizes.
    pub both: Measurement,
}

/// One application's bars in Figure 9, expressed as the paper plots them:
/// cache-size reductions are normalised to the *sum* of the two base cache
/// sizes, and energy-delay reductions to the base processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualRow {
    /// Index of the application in the input slice.
    pub app_index: usize,
    /// Combined-size reduction from resizing the d-cache alone, in percent.
    pub d_alone_size_reduction: f64,
    /// Combined-size reduction from resizing the i-cache alone, in percent.
    pub i_alone_size_reduction: f64,
    /// Combined-size reduction from resizing both, in percent.
    pub both_size_reduction: f64,
    /// Energy-delay reduction from resizing the d-cache alone, in percent.
    pub d_alone_edp_reduction: f64,
    /// Energy-delay reduction from resizing the i-cache alone, in percent.
    pub i_alone_edp_reduction: f64,
    /// Energy-delay reduction from resizing both, in percent.
    pub both_edp_reduction: f64,
    /// Execution-time increase from resizing both, in percent.
    pub both_slowdown: f64,
}

impl DualRow {
    /// The sum of the two single-cache energy-delay reductions — Figure 9
    /// stacks these next to the combined bar to show additivity.
    pub fn stacked_edp_reduction(&self) -> f64 {
        self.d_alone_edp_reduction + self.i_alone_edp_reduction
    }
}

/// Figure 9: static selective-sets resizing of the d-cache alone, the
/// i-cache alone, and both caches together, on the base out-of-order system.
///
/// # Errors
///
/// Returns an error if the organization cannot be applied to the L1 caches.
pub fn dual_resizing(
    runner: &Runner,
    apps: &[AppProfile],
    system: &SystemConfig,
    organization: Organization,
) -> Result<Vec<(DualOutcome, DualRow)>, CoreError> {
    // Validate applicability once up front so per-app workers can't fail.
    ConfigSpace::enumerate(
        ResizableCacheSide::Data.config_of(&system.hierarchy),
        organization,
    )?;
    ConfigSpace::enumerate(
        ResizableCacheSide::Instruction.config_of(&system.hierarchy),
        organization,
    )?;

    let outcomes: Vec<Result<(DualOutcome, DualRow), CoreError>> =
        parallel_map(apps, |app| evaluate_app(runner, app, system, organization));
    let mut result = Vec::with_capacity(apps.len());
    for (index, outcome) in outcomes.into_iter().enumerate() {
        let (mut outcome, mut row) = outcome?;
        row.app_index = index;
        outcome.app = apps[index].name.to_string();
        result.push((outcome, row));
    }
    Ok(result)
}

fn evaluate_app(
    runner: &Runner,
    app: &AppProfile,
    system: &SystemConfig,
    organization: Organization,
) -> Result<(DualOutcome, DualRow), CoreError> {
    let d_search = runner.static_best(app, system, organization, ResizableCacheSide::Data)?;
    let i_search =
        runner.static_best(app, system, organization, ResizableCacheSide::Instruction)?;
    let base = d_search.base;

    let d_cfg = system.hierarchy.l1d;
    let i_cfg = system.hierarchy.l1i;

    // Run both caches together at their individually profiled best points
    // (memoized: if either side's best is the full size, this shares the
    // single-side simulation already performed above).
    let both = runner.run_static(
        app,
        system,
        d_search.best.point,
        i_search.best.point,
        organization.tag_bits(&d_cfg),
        organization.tag_bits(&i_cfg),
    );

    let base_ed = base.energy_delay();
    let combined_full = (d_cfg.size_bytes + i_cfg.size_bytes) as f64;
    let size_reduction =
        |d_bytes: f64, i_bytes: f64| (1.0 - (d_bytes + i_bytes) / combined_full) * 100.0;

    let d_alone = d_search.best.measurement;
    let i_alone = i_search.best.measurement;
    let row = DualRow {
        app_index: 0,
        d_alone_size_reduction: size_reduction(d_alone.l1d_mean_bytes, i_cfg.size_bytes as f64),
        i_alone_size_reduction: size_reduction(d_cfg.size_bytes as f64, i_alone.l1i_mean_bytes),
        both_size_reduction: size_reduction(both.l1d_mean_bytes, both.l1i_mean_bytes),
        d_alone_edp_reduction: d_alone.energy_delay().reduction_vs(&base_ed),
        i_alone_edp_reduction: i_alone.energy_delay().reduction_vs(&base_ed),
        both_edp_reduction: both.energy_delay().reduction_vs(&base_ed),
        both_slowdown: both.energy_delay().slowdown_vs(&base_ed),
    };
    let outcome = DualOutcome {
        app: app.name.to_string(),
        base,
        d_alone,
        i_alone,
        both,
    };
    Ok((outcome, row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::runner::RunnerConfig;
    use rescache_trace::spec;

    #[test]
    fn dual_resizing_is_roughly_additive_for_small_working_sets() {
        let runner = Runner::new(RunnerConfig {
            warmup_instructions: 4_000,
            measure_instructions: 16_000,
            trace_seed: 7,
            dynamic_interval: 1_024,
            ..RunnerConfig::fast()
        });
        let apps = vec![spec::ammp(), spec::m88ksim()];
        let rows = dual_resizing(
            &runner,
            &apps,
            &SystemConfig::base(),
            Organization::SelectiveSets,
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        for (outcome, row) in &rows {
            assert!(!outcome.app.is_empty());
            assert!(
                row.both_edp_reduction
                    > row.d_alone_edp_reduction.max(row.i_alone_edp_reduction) - 1.0,
                "{}: resizing both ({:.1}%) should beat either alone ({:.1}% / {:.1}%)",
                outcome.app,
                row.both_edp_reduction,
                row.d_alone_edp_reduction,
                row.i_alone_edp_reduction
            );
            let stacked = row.stacked_edp_reduction();
            assert!(
                (row.both_edp_reduction - stacked).abs() < 7.0,
                "{}: combined saving {:.1}% should be close to the stacked {:.1}%",
                outcome.app,
                row.both_edp_reduction,
                stacked
            );
        }
    }

    #[test]
    fn size_reductions_are_normalised_to_the_combined_capacity() {
        let runner = Runner::new(RunnerConfig {
            warmup_instructions: 2_000,
            measure_instructions: 8_000,
            trace_seed: 7,
            dynamic_interval: 1_024,
            ..RunnerConfig::fast()
        });
        let apps = vec![spec::ammp()];
        let rows = dual_resizing(
            &runner,
            &apps,
            &SystemConfig::base(),
            Organization::SelectiveSets,
        )
        .unwrap();
        let (_, row) = &rows[0];
        // Resizing only one 32K cache of the 64K total can never exceed 50%.
        assert!(row.d_alone_size_reduction <= 50.0);
        assert!(row.i_alone_size_reduction <= 50.0);
        assert!(row.both_size_reduction <= 100.0);
        assert!(row.both_size_reduction >= row.d_alone_size_reduction);
    }
}
