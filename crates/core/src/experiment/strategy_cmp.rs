//! Drivers for Figures 7 and 8: static versus dynamic resizing of one L1
//! cache on the two processor configurations.

use rescache_trace::AppProfile;

use crate::error::CoreError;
use crate::experiment::parallel::parallel_map;
use crate::experiment::runner::Runner;
use crate::org::Organization;
use crate::system::{ResizableCacheSide, SystemConfig};

/// One application's bars in Figure 7 (d-cache) or Figure 8 (i-cache) for
/// one processor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyRow {
    /// Application name.
    pub app: String,
    /// `true` when the processor is the in-order engine with a blocking
    /// d-cache, `false` for the out-of-order engine with a non-blocking
    /// d-cache.
    pub in_order: bool,
    /// Cache-size reduction of the best static configuration, in percent.
    pub static_size_reduction: f64,
    /// Cache-size reduction of the best dynamic configuration, in percent.
    pub dynamic_size_reduction: f64,
    /// Energy-delay reduction of the best static configuration, in percent.
    pub static_edp_reduction: f64,
    /// Energy-delay reduction of the best dynamic configuration, in percent.
    pub dynamic_edp_reduction: f64,
    /// Resize operations performed by the chosen dynamic configuration.
    pub dynamic_resizes: u64,
}

/// Figures 7 and 8: for every application, compares the best static and the
/// best dynamic (miss-ratio based) selective-sets resizing of `side`, on the
/// given processor configuration.
///
/// The paper uses 32K 2-way L1 caches and the selective-sets organization for
/// this comparison (both organizations behave similarly here); `organization`
/// is a parameter so the ablation benches can vary it.
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
) -> Result<Vec<StrategyRow>, CoreError> {
    let in_order = matches!(system.cpu.engine, rescache_cpu::EngineKind::InOrderBlocking);
    let rows: Vec<Result<StrategyRow, CoreError>> = parallel_map(apps, |app| {
        let static_outcome = runner.static_best(app, system, organization, side)?;
        // The dynamic controller's size-bound is profiled offline, like the
        // paper's: offer the static best size, half of it, a quarter, and the
        // smallest offered size (the `1` floor). The runner snaps each bound
        // to an offered capacity and collapses duplicates, so fractions that
        // fall between (or below) offered sizes never waste a simulation.
        // The static best size also anchors one never-upsizing candidate,
        // so dynamic resizing can always match static.
        let full = side.config_of(&system.hierarchy).size_bytes;
        let static_best_bytes = static_outcome
            .best
            .point
            .map(|p| p.bytes(side.config_of(&system.hierarchy).block_bytes))
            .unwrap_or(full);
        let bounds = [
            static_best_bytes,
            static_best_bytes / 2,
            static_best_bytes / 4,
            1,
        ];
        let dynamic_outcome = runner.dynamic_best_with_size_bounds(
            app,
            system,
            organization,
            side,
            &bounds,
            Some(static_best_bytes),
        )?;
        let dynamic_resizes = match side {
            ResizableCacheSide::Data => dynamic_outcome.best.measurement.l1d_resizes,
            ResizableCacheSide::Instruction => dynamic_outcome.best.measurement.l1i_resizes,
        };
        Ok(StrategyRow {
            app: app.name.to_string(),
            in_order,
            static_size_reduction: static_outcome.best.size_reduction_percent,
            dynamic_size_reduction: dynamic_outcome.best.size_reduction_percent,
            static_edp_reduction: static_outcome.best.edp_reduction_percent,
            dynamic_edp_reduction: dynamic_outcome.best.edp_reduction_percent,
            dynamic_resizes,
        })
    });
    rows.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::report::mean;
    use crate::experiment::runner::RunnerConfig;
    use rescache_trace::spec;

    fn tiny_runner() -> Runner {
        Runner::new(RunnerConfig {
            warmup_instructions: 4_000,
            measure_instructions: 16_000,
            trace_seed: 7,
            dynamic_interval: 1_024,
            ..RunnerConfig::fast()
        })
    }

    #[test]
    fn produces_one_row_per_app() {
        let runner = tiny_runner();
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
        assert!(rows.iter().all(|r| r.in_order));
        assert!(rows
            .iter()
            .all(|r| r.static_size_reduction >= 0.0 && r.dynamic_size_reduction >= -1.0));
    }

    #[test]
    fn strategies_both_find_savings_on_small_working_sets() {
        let runner = tiny_runner();
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
                .map(|r| r.static_edp_reduction)
                .collect::<Vec<_>>(),
        );
        let dynamic_mean = mean(
            &rows
                .iter()
                .map(|r| r.dynamic_edp_reduction)
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
}
