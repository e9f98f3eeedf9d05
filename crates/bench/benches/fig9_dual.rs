//! Figure 9: resizing the d-cache alone, the i-cache alone, and both caches
//! simultaneously (additivity of the savings), with static selective-sets on
//! the base out-of-order system.

use rescache_bench::{all_apps, bench_runner, print_app_table, print_header, timed, Column};
use rescache_core::experiment::dual_resizing;
use rescache_core::{Organization, SystemConfig};

fn main() {
    print_header(
        "Figure 9 — decoupled resizings on d-cache and i-cache",
        "Static selective-sets, 32K 2-way L1s, base out-of-order processor. Size reductions are normalised to the combined 64K of L1 capacity.",
    );
    let runner = bench_runner();
    let apps = all_apps();

    let outcomes = timed("dual resizing sweep", || {
        dual_resizing(
            &runner,
            &apps,
            &SystemConfig::base(),
            Organization::SelectiveSets,
        )
        .expect("selective-sets applies to both 2-way L1s")
    });

    let sizes: Vec<(&str, Vec<f64>)> = outcomes
        .iter()
        .map(|o| (o.d_alone.app.as_str(), o.size_reductions().to_vec()))
        .collect();
    print_app_table(
        "(a) Cache size reduction (% of combined d+i capacity)",
        &[
            Column::averaged("d-cache alone", 0),
            Column::averaged("i-cache alone", 0),
            Column::averaged("both", 0),
        ],
        &sizes,
    );
    let edps: Vec<(&str, Vec<f64>)> = outcomes
        .iter()
        .map(|o| {
            let [d, i, both] = o.edp_reductions();
            let values = vec![d, i, both, o.stacked_edp_reduction(), o.both_slowdown()];
            (o.d_alone.app.as_str(), values)
        })
        .collect();
    print_app_table(
        "(b) Energy-delay reduction (%)",
        &[
            Column::averaged("d-cache alone", 1),
            Column::averaged("i-cache alone", 1),
            Column::averaged("both together", 1),
            Column::averaged("d+i stacked", 1),
            Column::averaged("slowdown % (both)", 1),
        ],
        &edps,
    );
    println!(
        "Paper reference: simultaneous resizing saves ~20 % of processor energy-delay on average,"
    );
    println!("and the combined saving is close to the sum of the individual savings (additivity).");
}
