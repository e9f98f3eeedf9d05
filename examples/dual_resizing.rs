//! Resize the d-cache alone, the i-cache alone, and both caches together,
//! demonstrating the additivity result of the paper's Figure 9 on a small set
//! of applications.
//!
//! Run with: `cargo run --release --example dual_resizing`

use rescache::core::experiment::dual_resizing;
use rescache::prelude::*;

fn main() -> Result<(), CoreError> {
    let runner = Runner::new(RunnerConfig {
        warmup_instructions: 50_000,
        measure_instructions: 300_000,
        trace_seed: 42,
        dynamic_interval: 4_096,
        ..RunnerConfig::fast()
    });
    let apps = vec![spec::ammp(), spec::m88ksim(), spec::ijpeg(), spec::su2cor()];

    let outcomes = dual_resizing(
        &runner,
        &apps,
        &SystemConfig::base(),
        Organization::SelectiveSets,
    )?;

    println!("static selective-sets resizing on the base out-of-order system (32K 2-way L1s):");
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>12}",
        "app", "d-cache alone", "i-cache alone", "both", "d+i stacked"
    );
    for outcome in &outcomes {
        let [d, i, both] = outcome.edp_reductions();
        println!(
            "{:<10} {:>13.1}% {:>13.1}% {:>13.1}% {:>11.1}%",
            outcome.d_alone.app,
            d,
            i,
            both,
            outcome.stacked_edp_reduction()
        );
    }
    println!();
    println!("The 'both' column should be close to the stacked sum of the individual");
    println!("savings: the two caches' resizings are essentially decoupled (additive).");
    Ok(())
}
