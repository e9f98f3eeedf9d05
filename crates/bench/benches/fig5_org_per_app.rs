//! Figure 5: per-application comparison of static selective-ways and
//! selective-sets for 32K 4-way L1 caches (cache-size and energy-delay
//! reductions).

use rescache_bench::{all_apps, bench_runner, print_header, timed};
use rescache_core::experiment::{format_table, mean, per_app_org_comparison, PerAppOrgRow};
use rescache_core::{Organization, ResizableCacheSide};

fn print_side(rows: &[PerAppOrgRow], label: &str) {
    let apps: Vec<String> = {
        let mut seen = Vec::new();
        for r in rows {
            if !seen.contains(&r.app) {
                seen.push(r.app.clone());
            }
        }
        seen
    };
    let find = |app: &str, org: Organization| -> &PerAppOrgRow {
        rows.iter()
            .find(|r| r.app == app && r.organization == org)
            .expect("row exists for every app/org pair")
    };
    let mut table = Vec::new();
    for app in &apps {
        let ways = find(app, Organization::SelectiveWays);
        let sets = find(app, Organization::SelectiveSets);
        table.push(vec![
            app.clone(),
            format!("{:.0}", ways.size_reduction),
            format!("{:.0}", sets.size_reduction),
            format!("{:.1}", ways.edp_reduction),
            format!("{:.1}", sets.edp_reduction),
        ]);
    }
    let avg = |org: Organization, field: fn(&PerAppOrgRow) -> f64| {
        let values: Vec<f64> = rows
            .iter()
            .filter(|r| r.organization == org)
            .map(field)
            .collect();
        mean(&values)
    };
    let (ways, sets) = (Organization::SelectiveWays, Organization::SelectiveSets);
    table.push(vec![
        "AVG.".to_string(),
        format!("{:.0}", avg(ways, |r| r.size_reduction)),
        format!("{:.0}", avg(sets, |r| r.size_reduction)),
        format!("{:.1}", avg(ways, |r| r.edp_reduction)),
        format!("{:.1}", avg(sets, |r| r.edp_reduction)),
    ]);
    println!("{label}");
    println!(
        "{}",
        format_table(
            &[
                "application",
                "size red. % (ways)",
                "size red. % (sets)",
                "EDP red. % (ways)",
                "EDP red. % (sets)",
            ],
            &table
        )
    );
}

fn main() {
    print_header(
        "Figure 5 — selective-ways vs. selective-sets for 4-way set-associative caches",
        "Per-application reductions in average cache size and processor energy-delay, static resizing, 32K 4-way L1s.",
    );
    let runner = bench_runner();
    let apps = all_apps();
    let orgs = [Organization::SelectiveWays, Organization::SelectiveSets];

    for side in ResizableCacheSide::ALL {
        let label = match side {
            ResizableCacheSide::Data => "(a) D-Cache",
            ResizableCacheSide::Instruction => "(b) I-Cache",
        };
        let rows = timed(label, || {
            per_app_org_comparison(&runner, &apps, 4, &orgs, side)
                .expect("both organizations apply to a 4-way cache")
        });
        print_side(&rows, label);
    }
    println!("Paper reference: selective-sets wins for 10 of 12 applications on the d-cache;");
    println!("compress favours selective-ways; swim does not downsize; gcc/tomcatv do not downsize the i-cache.");
}
