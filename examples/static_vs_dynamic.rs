//! Compare the static (profile once, fix the size) and dynamic (miss-ratio
//! controller) resizing strategies on the two processor configurations of the
//! paper, for one application with a periodically varying working set.
//!
//! The static search and every dynamic candidate replay one resident trace
//! from the trace store; with `RESCACHE_TRACE_DIR` set, that trace is loaded
//! from (or persisted to) the store directory.
//!
//! Run with: `cargo run --release --example static_vs_dynamic`

use rescache::prelude::*;

fn report(
    runner: &Runner,
    system: &SystemConfig,
    label: &str,
    app: &AppProfile,
) -> Result<(), CoreError> {
    let side = ResizableCacheSide::Data;
    let org = Organization::SelectiveSets;
    let static_outcome = runner.static_best(app, system, org, side)?;
    let static_best_bytes = static_outcome
        .best
        .point
        .map(|p| p.bytes(32))
        .unwrap_or(32 * 1024);
    let dynamic_outcome = runner.dynamic_best_with_size_bounds(
        app,
        system,
        org,
        side,
        &[
            static_best_bytes,
            static_best_bytes / 2,
            static_best_bytes / 4,
            1,
        ],
        Some(static_best_bytes),
    )?;
    println!("{label}:");
    println!(
        "  static : best size {:>5.1} KiB, energy-delay reduction {:>5.1} %, slowdown {:>4.1} %",
        static_outcome.best.measurement.l1d_mean_bytes / 1024.0,
        static_outcome.best.edp_reduction_percent,
        static_outcome.best.slowdown_percent
    );
    println!(
        "  dynamic: mean size {:>5.1} KiB, energy-delay reduction {:>5.1} %, slowdown {:>4.1} %, {} resizes",
        dynamic_outcome.best.measurement.l1d_mean_bytes / 1024.0,
        dynamic_outcome.best.edp_reduction_percent,
        dynamic_outcome.best.slowdown_percent,
        dynamic_outcome.best.measurement.l1d_resizes
    );
    Ok(())
}

fn main() -> Result<(), CoreError> {
    // su2cor's data working set alternates between a small and a large phase,
    // which is exactly the behaviour dynamic resizing is meant to exploit.
    let app = spec::su2cor();
    let runner = Runner::new(RunnerConfig {
        warmup_instructions: 50_000,
        measure_instructions: 400_000,
        trace_seed: 42,
        dynamic_interval: 4_096,
        ..RunnerConfig::fast()
    });

    println!(
        "application: {} (periodic data working set, {:.1} KiB on average)",
        app.name,
        app.mean_data_working_set() / 1024.0
    );
    println!();
    report(
        &runner,
        &SystemConfig::in_order(),
        "in-order issue, blocking d-cache (miss latency exposed)",
        &app,
    )?;
    println!();
    report(
        &runner,
        &SystemConfig::base(),
        "out-of-order issue, non-blocking d-cache (miss latency largely hidden)",
        &app,
    )?;
    Ok(())
}
