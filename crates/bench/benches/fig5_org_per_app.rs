//! Figure 5: per-application comparison of static selective-ways and
//! selective-sets for 32K 4-way L1 caches (cache-size and energy-delay
//! reductions).

use rescache_bench::{
    all_apps, bench_runner, print_app_table, print_header, side_label, timed, Column,
};
use rescache_core::experiment::static_grid;
use rescache_core::{Organization, ResizableCacheSide};

fn main() {
    print_header(
        "Figure 5 — selective-ways vs. selective-sets for 4-way set-associative caches",
        "Per-application reductions in average cache size and processor energy-delay, static resizing, 32K 4-way L1s.",
    );
    let runner = bench_runner();
    let apps = all_apps();
    let orgs = [Organization::SelectiveWays, Organization::SelectiveSets];
    let columns = [
        Column::averaged("size red. % (ways)", 0),
        Column::averaged("size red. % (sets)", 0),
        Column::averaged("EDP red. % (ways)", 1),
        Column::averaged("EDP red. % (sets)", 1),
    ];

    for side in ResizableCacheSide::ALL {
        let label = side_label(side);
        let cells = timed(label, || static_grid(&runner, &apps, &[4], &orgs, side));
        let [(_, _, ways), (_, _, sets)] = &cells[..] else {
            panic!("both organizations apply to a 4-way cache");
        };
        let rows: Vec<(&str, Vec<f64>)> = ways
            .iter()
            .zip(sets)
            .map(|(w, s)| {
                let values = vec![
                    w.best.size_reduction_percent,
                    s.best.size_reduction_percent,
                    w.best.edp_reduction_percent,
                    s.best.edp_reduction_percent,
                ];
                (w.app.as_str(), values)
            })
            .collect();
        print_app_table(label, &columns, &rows);
    }
    println!("Paper reference: selective-sets wins for 10 of 12 applications on the d-cache;");
    println!("compress favours selective-ways; swim does not downsize; gcc/tomcatv do not downsize the i-cache.");
}
