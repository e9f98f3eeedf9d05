//! Shared helpers for the `rescache` benchmark harness.
//!
//! Each `[[bench]]` target of this crate regenerates one table or figure of
//! the HPCA 2002 resizable-cache paper and prints the corresponding rows or
//! series. The helpers here keep the targets small: a common runner
//! configuration (the paper's, with the `RESCACHE_*` knobs of
//! [`rescache_core::Knobs`] applied; a malformed knob stops the bench before
//! any work, with exit status 2), the full application list, a tiny
//! stopwatch for reporting how long a sweep took, the median/min/max
//! summary the throughput harness reports its timing samples with, and the
//! one function behind Figures 7 and 8.

use std::time::Instant;

use rescache_core::experiment::{
    format_table, mean, static_vs_dynamic, Runner, RunnerConfig, StrategyRow,
};
use rescache_core::{Knobs, Organization, ResizableCacheSide, SystemConfig};
use rescache_trace::{spec, AppProfile, WorkloadRegistry};

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

/// The scenario workloads of the registry (see
/// [`rescache_trace::workload`]): what the non-figure benches enumerate
/// instead of hand-rolled profiles.
pub fn registry_workloads() -> Vec<AppProfile> {
    WorkloadRegistry::builtin().profiles()
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

/// Figures 7 and 8: static vs. miss-ratio-based dynamic selective-sets
/// resizing of `side`'s cache, on the in-order/blocking and
/// out-of-order/non-blocking configurations. Prints the header `title`, one
/// table per configuration, then the paper's `reference` lines.
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
            "(a) in-order issue, blocking d-cache",
            "(a) In-order issue engine with blocking d-cache",
            SystemConfig::in_order(),
        ),
        (
            "(b) out-of-order issue, non-blocking d-cache",
            "(b) Out-of-order issue engine with non-blocking d-cache",
            SystemConfig::base(),
        ),
    ];
    for (stage, label, system) in configurations {
        let rows = timed(stage, || {
            static_vs_dynamic(&runner, &apps, &system, Organization::SelectiveSets, side)
                .expect(&applies)
        });
        print_strategy_rows(&rows, label);
    }
    for line in reference {
        println!("{line}");
    }
}

/// One Figure 7/8 table: a row per application, then the averages.
fn print_strategy_rows(rows: &[StrategyRow], label: &str) {
    let avg = |field: fn(&StrategyRow) -> f64| mean(&rows.iter().map(field).collect::<Vec<_>>());
    let mut table = Vec::new();
    for r in rows {
        table.push(vec![
            r.app.clone(),
            format!("{:.0}", r.static_size_reduction),
            format!("{:.0}", r.dynamic_size_reduction),
            format!("{:.1}", r.static_edp_reduction),
            format!("{:.1}", r.dynamic_edp_reduction),
            format!("{}", r.dynamic_resizes),
        ]);
    }
    table.push(vec![
        "AVG.".to_string(),
        format!("{:.0}", avg(|r| r.static_size_reduction)),
        format!("{:.0}", avg(|r| r.dynamic_size_reduction)),
        format!("{:.1}", avg(|r| r.static_edp_reduction)),
        format!("{:.1}", avg(|r| r.dynamic_edp_reduction)),
        String::new(),
    ]);
    println!("{label}");
    println!(
        "{}",
        format_table(
            &[
                "application",
                "size red. % (static)",
                "size red. % (dynamic)",
                "EDP red. % (static)",
                "EDP red. % (dynamic)",
                "resizes",
            ],
            &table
        )
    );
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

    #[test]
    fn registry_workloads_are_available() {
        let workloads = registry_workloads();
        assert!(workloads.len() >= 8);
        assert!(workloads.iter().any(|p| p.name == "nominal"));
    }
}
