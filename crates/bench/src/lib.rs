//! Shared helpers for the `rescache` benchmark harness.
//!
//! Each `[[bench]]` target of this crate regenerates one table or figure of
//! the HPCA 2002 resizable-cache paper and prints the corresponding rows or
//! series. The helpers here keep the targets small: a common runner
//! configuration (the paper's, with the `RESCACHE_*` knobs of
//! [`rescache_core::Knobs`] applied; a malformed knob stops the bench before
//! any work, with exit status 2), the full application list, a tiny
//! stopwatch for reporting how long a sweep took, the median/min/max
//! summary the throughput harness reports its timing samples with, the one
//! function behind Figures 4 and 6, the one behind Figures 7 and 8, and the
//! per-application table printer of Figures 5, 7, 8 and 9.

use std::time::Instant;

use rescache_core::experiment::{
    format_table, mean, mean_edp_reduction, static_grid, static_vs_dynamic, Runner, RunnerConfig,
};
use rescache_core::{Knobs, Organization, ResizableCacheSide, SystemConfig};
use rescache_trace::{spec, AppProfile};

/// The configuration every figure bench runs: the paper-quality
/// configuration with the length, seed and interval knobs applied (see
/// [`knobs`]).
pub fn bench_config() -> RunnerConfig {
    knobs().runner_config(RunnerConfig::paper())
}

/// The process's runtime knobs. Any malformed `RESCACHE_*` knob — not only
/// the ones a bench reads itself — prints the typed error and exits with
/// status 2, so a typo stops the run instead of silently changing it.
pub fn knobs() -> &'static Knobs {
    Knobs::resolved().unwrap_or_else(|e| {
        eprintln!("rescache: {e}");
        std::process::exit(2)
    })
}

/// The runner used by every figure bench (see [`bench_config`]).
pub fn bench_runner() -> Runner {
    Runner::new(bench_config())
}

/// The twelve applications of the paper's evaluation.
pub fn all_apps() -> Vec<AppProfile> {
    spec::all_profiles()
}

/// Prints a standard header for a figure bench.
pub fn print_header(title: &str, detail: &str) {
    println!();
    println!("=== {title} ===");
    println!("{detail}");
    let cfg = bench_config();
    println!(
        "(warm-up {} instr, measured {} instr per run, seed {}, dynamic interval {} accesses)",
        cfg.warmup_instructions, cfg.measure_instructions, cfg.trace_seed, cfg.dynamic_interval
    );
    println!();
}

/// Runs `body` and reports its wall-clock time.
pub fn timed<T>(label: &str, body: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = body();
    println!(
        "[{label}: completed in {:.1} s]",
        start.elapsed().as_secs_f64()
    );
    value
}

/// Figures 4 and 6: the mean energy-delay reduction of static resizing with
/// each of `orgs`, on 2/4/8/16-way 32K L1 d- and i-caches of the base
/// out-of-order processor. Prints the header `title`, one table per cache
/// (columns `headers`: the associativity, then one per organization), then
/// the paper's `reference` lines.
pub fn org_assoc_figure(title: &str, orgs: &[Organization], headers: &[&str], reference: &[&str]) {
    print_header(
        title,
        "Mean reduction (%) in processor energy-delay across the 12 applications, static resizing, base out-of-order processor.",
    );
    let runner = bench_runner();
    let apps = all_apps();
    let assocs = [2u32, 4, 8, 16];
    for side in ResizableCacheSide::ALL {
        let label = side_label(side);
        let cells = timed(label, || static_grid(&runner, &apps, &assocs, orgs, side));
        let mut rows = Vec::new();
        for assoc in assocs {
            let mut row = vec![format!("{assoc}-way")];
            for &org in orgs {
                let value = cells
                    .iter()
                    .find(|(a, o, _)| *a == assoc && *o == org)
                    .map(|(_, _, outcomes)| format!("{:.1}", mean_edp_reduction(outcomes)))
                    .unwrap_or_else(|| "n/a".to_string());
                row.push(value);
            }
            rows.push(row);
        }
        println!("{label}");
        println!("{}", format_table(headers, &rows));
    }
    for line in reference {
        println!("{line}");
    }
}

/// The sub-figure label of one cache side: "(a) D-Cache" or "(b) I-Cache".
pub fn side_label(side: ResizableCacheSide) -> &'static str {
    match side {
        ResizableCacheSide::Data => "(a) D-Cache",
        ResizableCacheSide::Instruction => "(b) I-Cache",
    }
}

/// Figures 7 and 8: static vs. miss-ratio-based dynamic selective-sets
/// resizing of `side`'s cache, on the in-order/blocking and
/// out-of-order/non-blocking configurations, each application's two
/// configurations in one job (one trace generation). Prints the header
/// `title`, one `completed in` line for both, one table per configuration,
/// then the paper's `reference` lines.
pub fn strategy_figure(side: ResizableCacheSide, title: &str, reference: &[&str]) {
    print_header(
        title,
        &format!(
            "Static vs. miss-ratio-based dynamic selective-sets resizing of the 32K 2-way {side}."
        ),
    );
    let runner = bench_runner();
    let apps = all_apps();
    let applies = format!("selective-sets applies to the 2-way {side}");
    let configurations = [
        (
            "(a) In-order issue engine with blocking d-cache",
            SystemConfig::in_order(),
        ),
        (
            "(b) Out-of-order issue engine with non-blocking d-cache",
            SystemConfig::base(),
        ),
    ];
    let columns = [
        Column::averaged("size red. % (static)", 0),
        Column::averaged("size red. % (dynamic)", 0),
        Column::averaged("EDP red. % (static)", 1),
        Column::averaged("EDP red. % (dynamic)", 1),
        Column::unaveraged("resizes", 0),
    ];
    let systems = configurations.map(|(_, system)| system);
    let per_system = timed("(a) and (b)", || {
        static_vs_dynamic(&runner, &apps, &systems, Organization::SelectiveSets, side)
            .expect(&applies)
    });
    for ((label, _), pairs) in configurations.iter().zip(&per_system) {
        let rows: Vec<(&str, Vec<f64>)> = pairs
            .iter()
            .map(|(s, d)| {
                let values = vec![
                    s.best.size_reduction_percent,
                    d.best.size_reduction_percent,
                    s.best.edp_reduction_percent,
                    d.best.edp_reduction_percent,
                    d.best.measurement.resizes(side) as f64,
                ];
                (s.app.as_str(), values)
            })
            .collect();
        print_app_table(label, &columns, &rows);
    }
    for line in reference {
        println!("{line}");
    }
}

/// One column of a per-application table (see [`print_app_table`]).
#[derive(Clone, Copy, Debug)]
pub struct Column {
    header: &'static str,
    decimals: usize,
    averaged: bool,
}

impl Column {
    /// A column printed with `decimals` decimals whose `AVG.` cell is the
    /// mean over the applications.
    pub const fn averaged(header: &'static str, decimals: usize) -> Self {
        Self {
            header,
            decimals,
            averaged: true,
        }
    }

    /// A column whose `AVG.` cell stays empty, such as a count of resizes.
    pub const fn unaveraged(header: &'static str, decimals: usize) -> Self {
        Self {
            header,
            decimals,
            averaged: false,
        }
    }
}

/// Prints `label`, then a table with an "application" column and
/// `columns`: one row per `(application, values)`, where `values[i]` goes
/// under `columns[i]`, then an `AVG.` row with the mean of every averaged
/// column.
pub fn print_app_table(label: &str, columns: &[Column], rows: &[(&str, Vec<f64>)]) {
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|(app, values)| {
            let cells = columns
                .iter()
                .zip(values)
                .map(|(c, v)| format!("{v:.*}", c.decimals));
            std::iter::once(app.to_string()).chain(cells).collect()
        })
        .collect();
    let averages = columns.iter().enumerate().map(|(i, c)| {
        if c.averaged {
            let values: Vec<f64> = rows.iter().map(|(_, values)| values[i]).collect();
            format!("{:.*}", c.decimals, mean(&values))
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
        .chain(columns.iter().map(|c| c.header))
        .collect();
    println!("{label}");
    println!("{}", format_table(&headers, &table));
}

/// Median, minimum and maximum of a set of timing samples: how the
/// throughput harness reports each stage, so a number carries its spread
/// instead of a lucky best-of-k.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    /// Summarizes `samples`, given in any order. The median of an even
    /// count is the mean of the two middle samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Self {
            median,
            min: sorted[0],
            max: sorted[n - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_list_matches_the_paper() {
        let apps = all_apps();
        assert_eq!(apps.len(), 12);
        assert_eq!(apps[0].name, "ammp");
        assert_eq!(apps[11].name, "vpr");
    }

    #[test]
    fn timed_returns_the_body_value() {
        assert_eq!(timed("test", || 21 * 2), 42);
    }

    #[test]
    fn spread_of_an_odd_count_takes_the_middle_sample() {
        let s = Spread::of(&[0.3, 0.1, 0.5, 0.2, 0.4]);
        assert_eq!(
            s,
            Spread {
                median: 0.3,
                min: 0.1,
                max: 0.5
            }
        );
        assert_eq!(Spread::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn spread_of_an_even_count_averages_the_two_middle_samples() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            s,
            Spread {
                median: 2.5,
                min: 1.0,
                max: 4.0
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn spread_of_no_samples_panics() {
        Spread::of(&[]);
    }
}
