//! Tables 1 and 2 and Figures 4–9 of the paper, every figure printed from
//! one [`paper`] run. A quick look at one figure is a reduced-length run,
//! e.g. `RESCACHE_WARMUP=5000 RESCACHE_MEASURE=30000 cargo bench --bench
//! paper` (a few seconds on two cores).

use rescache_bench::{all_apps, bench_runner, print_config, print_header, timed};
use rescache_cache::{CacheConfig, HierarchyConfig};
use rescache_core::experiment::{
    format_table, mean, mean_edp_reduction, paper, DualOutcome, DynamicOutcome, GridOutcome,
    PaperOutcome, SearchOutcome, StaticOutcome, PAPER_ASSOCIATIVITIES,
};
use rescache_core::org::{hybrid_grid, ConfigSpace};
use rescache_core::{Organization, ResizableCacheSide};
use rescache_cpu::CpuConfig;

/// Each cache side's sub-figure label, in [`ResizableCacheSide::ALL`] order.
const SIDE_LABELS: [&str; 2] = ["(a) D-Cache", "(b) I-Cache"];

fn main() {
    print_config();
    let runner = bench_runner();
    let outcome = timed("paper", || paper(&runner, &all_apps()));
    table1();
    table2();
    org_assoc_figure(
        "Figure 4 — resizable cache organizations and energy-delay reductions",
        &outcome.grids,
        &[Organization::SelectiveWays, Organization::SelectiveSets],
        &[
            "associativity",
            "selective-ways EDP red. %",
            "selective-sets EDP red. %",
        ],
        "Paper reference (d-cache): ways 5/8/11/15 %, sets 9/11/9/6 % for 2/4/8/16-way.\n\
         Paper reference (i-cache): ways 6/10/13/17 %, sets 11/12/11/8 %.",
    );
    figure5(&outcome);
    org_assoc_figure(
        "Figure 6 — effectiveness of hybrid organizations",
        &outcome.grids,
        &Organization::ALL,
        &[
            "associativity",
            "ways EDP red. %",
            "sets EDP red. %",
            "hybrid EDP red. %",
        ],
        "Paper reference (d-cache hybrid): 9/12/13/15 % for 2/4/8/16-way;\n\
         (i-cache hybrid): 11/13/14/17 %. Hybrid always >= max(ways, sets).",
    );
    for (side, per_system) in ResizableCacheSide::ALL.into_iter().zip(&outcome.strategies) {
        strategy_figure(side, per_system);
    }
    figure9(&outcome.dual);
}

/// Table 1: the hybrid resizing grid of a 32K 4-way cache with 1K
/// subarrays, and the sizes each organization offers.
fn table1() {
    print_header(
        "Table 1 — enhanced resizing granularity using the hybrid organization",
        "Sizes offered by a 32K 4-way L1 with 1 KiB subarrays under each organization.",
    );
    let config = CacheConfig::l1_default(32 * 1024, 4);
    let grid = hybrid_grid(config).expect("hybrid applies to the 32K 4-way cache");
    println!("{}", grid.render());
    for org in Organization::ALL {
        let space = ConfigSpace::enumerate(config, org).expect("organization applies");
        let sizes: Vec<String> = space
            .sizes_bytes()
            .iter()
            .map(|b| format!("{}K", b / 1024))
            .collect();
        println!("{:<16} offers: {}", org.label(), sizes.join(", "));
    }
}

/// Table 2: the base system configuration.
fn table2() {
    println!();
    println!("Table 2 — base system configuration");
    let cpu = CpuConfig::base_out_of_order();
    let hier = HierarchyConfig::base();
    let cache = |cache: CacheConfig, cycles| {
        let (kib, ways) = (cache.size_bytes / 1024, cache.associativity);
        format!("{kib}K {ways}-way; {} {cycles}", cache.hit_latency)
    };
    let (issue, rob, lsq) = (cpu.issue_width, cpu.rob_entries, cpu.lsq_entries);
    let (wb, mshr) = (hier.writeback_entries, cpu.mshr_entries);
    let (mem, per_8) = (hier.memory_base_latency, hier.memory_per_8_bytes);
    for (name, value) in [
        (
            "issue/decode width",
            format!("{issue} instructions per cycle"),
        ),
        ("ROB / LSQ", format!("{rob} entries / {lsq} entries")),
        (
            "writeback buffer / MSHR",
            format!("{wb} entries / {mshr} entries"),
        ),
        ("L1 i-cache", cache(hier.l1i, "cycle")),
        ("L1 d-cache", cache(hier.l1d, "cycle")),
        ("L2 unified cache", cache(hier.l2, "cycles")),
        (
            "memory access latency",
            format!("({mem} + {per_8} per 8 bytes) cycles"),
        ),
    ] {
        println!("  {name:<23}: {value}");
    }
}

/// Figures 4 and 6: per cache, the mean energy-delay reduction of each of
/// `orgs` (columns `headers` after the associativity) at each associativity
/// of `grids`, between the header `title` and the paper's `reference`.
fn org_assoc_figure(
    title: &str,
    grids: &[GridOutcome],
    orgs: &[Organization],
    headers: &[&str],
    reference: &str,
) {
    print_header(
        title,
        "Mean reduction (%) in processor energy-delay across the 12 applications, static resizing, base out-of-order processor.",
    );
    for (label, cells) in SIDE_LABELS.into_iter().zip(grids) {
        let rows: Vec<Vec<String>> = PAPER_ASSOCIATIVITIES
            .iter()
            .map(|&assoc| {
                let values = orgs
                    .iter()
                    .map(|&org| format!("{:.1}", mean_edp_reduction(cell(cells, assoc, org))));
                std::iter::once(format!("{assoc}-way"))
                    .chain(values)
                    .collect()
            })
            .collect();
        println!("{label}");
        println!("{}", format_table(headers, &rows));
    }
    println!("{reference}");
}

/// Every application's outcome in the (`assoc`, `org`) cell of a grid.
fn cell(cells: &GridOutcome, assoc: u32, org: Organization) -> &[StaticOutcome] {
    let found = cells.iter().find(|(a, o, _)| *a == assoc && *o == org);
    &found.expect("every organization applies at 2 to 16 ways").2
}

/// Figure 5: per-application comparison of static selective-ways and
/// selective-sets for 32K 4-way L1 caches (cache-size and energy-delay
/// reductions), read from the grids' 4-way cells.
fn figure5(outcome: &PaperOutcome) {
    print_header(
        "Figure 5 — selective-ways vs. selective-sets for 4-way set-associative caches",
        "Per-application reductions in average cache size and processor energy-delay, static resizing, 32K 4-way L1s.",
    );
    let columns = [
        ("size red. % (ways)", 0, true),
        ("size red. % (sets)", 0, true),
        ("EDP red. % (ways)", 1, true),
        ("EDP red. % (sets)", 1, true),
    ];
    for (label, cells) in SIDE_LABELS.into_iter().zip(&outcome.grids) {
        let ways = cell(cells, 4, Organization::SelectiveWays);
        let sets = cell(cells, 4, Organization::SelectiveSets);
        let rows: Vec<_> = ways.iter().zip(sets).map(|(w, s)| compared(w, s)).collect();
        print_app_table(label, &columns, &rows);
    }
    println!(
        "Paper reference: selective-sets wins for 10 of 12 applications on the d-cache;\n\
         compress favours selective-ways; swim does not downsize; gcc/tomcatv do not downsize the i-cache."
    );
}

/// Figures 7 (d-cache) and 8 (i-cache): static vs. dynamic selective-sets
/// resizing of `side`, one table per processor configuration of
/// `per_system` (in-order/blocking, then out-of-order/non-blocking).
fn strategy_figure(side: ResizableCacheSide, per_system: &[Vec<(StaticOutcome, DynamicOutcome)>]) {
    let (title, reference) = match side {
        ResizableCacheSide::Data => (
            "Figure 7 — d-cache resizing in two processor configurations",
            "Paper reference: in-order static 5 % vs dynamic 9 %; out-of-order static 9 % vs dynamic 11 %.\n\
             Dynamic's advantage should be clearly larger on the in-order/blocking configuration.",
        ),
        ResizableCacheSide::Instruction => (
            "Figure 8 — i-cache resizing in two processor configurations",
            "Paper reference: in-order static 16 % vs dynamic 18 %; out-of-order static 11 % vs dynamic 15 %.\n\
             For the i-cache, dynamic's advantage is larger on the out-of-order configuration,\n\
             where i-cache misses are more exposed to performance.",
        ),
    };
    let detail = format!(
        "Static vs. miss-ratio-based dynamic selective-sets resizing of the 32K 2-way {side}."
    );
    print_header(title, &detail);
    let labels = [
        "(a) In-order issue engine with blocking d-cache",
        "(b) Out-of-order issue engine with non-blocking d-cache",
    ];
    let columns = [
        ("size red. % (static)", 0, true),
        ("size red. % (dynamic)", 0, true),
        ("EDP red. % (static)", 1, true),
        ("EDP red. % (dynamic)", 1, true),
        ("resizes", 0, false),
    ];
    for (label, pairs) in labels.into_iter().zip(per_system) {
        let rows: Vec<_> = pairs
            .iter()
            .map(|(s, d)| {
                let (app, mut values) = compared(s, d);
                values.push(d.best.measurement.resizes(side) as f64);
                (app, values)
            })
            .collect();
        print_app_table(label, &columns, &rows);
    }
    println!("{reference}");
}

/// Figure 9: static selective-sets resizing of the d-cache alone, the
/// i-cache alone, and both at once (additivity of the savings).
fn figure9(outcomes: &[DualOutcome]) {
    print_header(
        "Figure 9 — decoupled resizings on d-cache and i-cache",
        "Static selective-sets, 32K 2-way L1s, base out-of-order processor. Size reductions are normalised to the combined 64K of L1 capacity.",
    );
    let sizes: Vec<(&str, Vec<f64>)> = outcomes
        .iter()
        .map(|o| (o.d_alone.app.as_str(), o.size_reductions().to_vec()))
        .collect();
    print_app_table(
        "(a) Cache size reduction (% of combined d+i capacity)",
        &[
            ("d-cache alone", 0, true),
            ("i-cache alone", 0, true),
            ("both", 0, true),
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
            ("d-cache alone", 1, true),
            ("i-cache alone", 1, true),
            ("both together", 1, true),
            ("d+i stacked", 1, true),
            ("slowdown % (both)", 1, true),
        ],
        &edps,
    );
    println!(
        "Paper reference: simultaneous resizing saves ~20 % of processor energy-delay on average,\n\
         and the combined saving is close to the sum of the individual savings (additivity)."
    );
}

/// An application's row comparing search `a` with search `b`: both size
/// reductions, then both energy-delay reductions.
fn compared<'a, A, B>(a: &'a SearchOutcome<A>, b: &SearchOutcome<B>) -> (&'a str, Vec<f64>) {
    let values = vec![
        a.best.size_reduction_percent,
        b.best.size_reduction_percent,
        a.best.edp_reduction_percent,
        b.best.edp_reduction_percent,
    ];
    (a.app.as_str(), values)
}

/// A column of [`print_app_table`]: header, decimals, and whether its `AVG.`
/// cell is the mean over the applications (a count of resizes is not).
type Column = (&'static str, usize, bool);

/// Prints `label`, then a table with an "application" column and
/// `columns`: one row per `(application, values)` with `values[i]` under
/// `columns[i]`, then an `AVG.` row.
fn print_app_table(label: &str, columns: &[Column], rows: &[(&str, Vec<f64>)]) {
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|(app, values)| {
            let cells = columns
                .iter()
                .zip(values)
                .map(|((_, decimals, _), v)| format!("{v:.*}", decimals));
            std::iter::once(app.to_string()).chain(cells).collect()
        })
        .collect();
    let averages = columns
        .iter()
        .enumerate()
        .map(|(i, &(_, decimals, averaged))| {
            if averaged {
                let values: Vec<f64> = rows.iter().map(|(_, values)| values[i]).collect();
                format!("{:.*}", decimals, mean(&values))
            } else {
                String::new()
            }
        });
    table.push(
        std::iter::once("AVG.".to_string())
            .chain(averages)
            .collect(),
    );
    let headers: Vec<&str> = std::iter::once("application")
        .chain(columns.iter().map(|(header, _, _)| *header))
        .collect();
    println!("{label}");
    println!("{}", format_table(&headers, &table));
}
