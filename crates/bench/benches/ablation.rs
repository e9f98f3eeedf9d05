//! Ablation studies of three design choices:
//!
//! * subarray size (the resizing granule), against the static
//!   selective-sets d-cache saving,
//! * the dynamic controller's interval length, against the dynamic saving
//!   and the measured resize count of the Figure 7 comparison,
//! * the number of configurations each organization offers per
//!   associativity.

use rescache_bench::{all_apps, bench_runner, print_header, timed};
use rescache_cache::CacheConfig;
use rescache_core::experiment::{format_table, mean, static_vs_dynamic, Runner};
use rescache_core::org::ConfigSpace;
use rescache_core::{Organization, ResizableCacheSide, SystemConfig};
use rescache_trace::AppProfile;

/// Mean energy-delay reduction of static selective-sets d-cache resizing for
/// the given subarray size.
fn subarray_sweep(runner: &Runner, apps: &[AppProfile], subarray_bytes: u64) -> f64 {
    let mut system = SystemConfig::base();
    system.hierarchy.l1d.subarray_bytes = subarray_bytes;
    let reductions: Vec<f64> = apps
        .iter()
        .map(|app| {
            runner
                .static_best(
                    app,
                    &system,
                    Organization::SelectiveSets,
                    ResizableCacheSide::Data,
                )
                .expect("selective-sets applies")
                .best
                .edp_reduction_percent
        })
        .collect();
    mean(&reductions)
}

/// Mean dynamic energy-delay reduction and resize count for one controller
/// interval length, from the Figure 7 comparison (in-order processor,
/// selective-sets d-cache). The runner shares `runner`'s store, so the
/// static searches, which do not depend on the interval, run once.
fn interval_sweep(runner: &Runner, apps: &[AppProfile], interval: u64) -> (f64, f64) {
    let mut cfg = *runner.config();
    cfg.dynamic_interval = interval;
    let runner = Runner::with_store(cfg, runner.trace_store().clone());
    let side = ResizableCacheSide::Data;
    let pairs = static_vs_dynamic(
        &runner,
        apps,
        &SystemConfig::in_order(),
        Organization::SelectiveSets,
        side,
    )
    .expect("selective-sets applies");
    let (reductions, resizes): (Vec<f64>, Vec<f64>) = pairs
        .iter()
        .map(|(_, d)| {
            let resizes = d.best.measurement.resizes(side) as f64;
            (d.best.edp_reduction_percent, resizes)
        })
        .unzip();
    (mean(&reductions), mean(&resizes))
}

fn main() {
    print_header(
        "Ablations — subarray size, controller interval, offered-point counts",
        "Sensitivity of the savings to the resizing granule and the controller interval.",
    );
    let runner = bench_runner();
    // A subset of applications keeps the ablation sweep affordable while
    // covering small, conflict-heavy and large working sets.
    let apps: Vec<AppProfile> = all_apps()
        .into_iter()
        .filter(|a| ["ammp", "compress", "gcc", "su2cor", "swim", "vpr"].contains(&a.name))
        .collect();

    // 1. Subarray size: larger subarrays coarsen the offered sizes.
    let mut rows = Vec::new();
    for subarray in [1024u64, 2048, 4096] {
        let reduction = timed(&format!("subarray {} B", subarray), || {
            subarray_sweep(&runner, &apps, subarray)
        });
        let points = ConfigSpace::enumerate(
            CacheConfig {
                subarray_bytes: subarray,
                ..CacheConfig::l1_default(32 * 1024, 2)
            },
            Organization::SelectiveSets,
        )
        .expect("selective-sets applies")
        .len();
        rows.push(vec![
            format!("{} B", subarray),
            format!("{points}"),
            format!("{reduction:.1}"),
        ]);
    }
    println!("(a) Subarray size vs. static selective-sets d-cache saving");
    println!(
        "{}",
        format_table(&["subarray", "offered sizes", "mean EDP red. %"], &rows)
    );

    // 2. Dynamic controller interval length.
    let mut rows = Vec::new();
    for interval in [1024u64, 4096, 16384] {
        let (reduction, resizes) = timed(&format!("interval {interval} accesses"), || {
            interval_sweep(&runner, &apps, interval)
        });
        rows.push(vec![
            format!("{interval}"),
            format!("{reduction:.1}"),
            format!("{resizes:.1}"),
        ]);
    }
    println!("(b) Dynamic-controller interval length (in-order processor, d-cache)");
    println!(
        "{}",
        format_table(
            &["interval (accesses)", "mean EDP red. %", "mean resizes"],
            &rows
        )
    );

    // 3. Offered-point counts per organization and associativity.
    let mut rows = Vec::new();
    for assoc in [2u32, 4, 8, 16] {
        let mut row = vec![format!("{assoc}-way")];
        for org in Organization::ALL {
            let count = ConfigSpace::enumerate(CacheConfig::l1_default(32 * 1024, assoc), org)
                .map(|s| s.len())
                .unwrap_or(0);
            row.push(format!("{count}"));
        }
        rows.push(row);
    }
    println!("(c) Number of offered configurations per organization");
    println!(
        "{}",
        format_table(&["associativity", "ways", "sets", "hybrid"], &rows)
    );
}
