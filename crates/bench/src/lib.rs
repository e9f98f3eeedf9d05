//! Shared helpers of the `rescache` benches: `paper` (Tables 1 and 2 and
//! Figures 4–9 of the HPCA 2002 resizable-cache paper), `ablation` and the
//! `sim_throughput` harness. They share the runner configuration (the
//! paper's, with the `RESCACHE_*` knobs of [`rescache_core::Knobs`] applied;
//! a malformed knob exits with status 2 before any work), the application
//! list, the headers, a stopwatch and a median/min/max [`Spread`].

use std::time::Instant;

use rescache_core::experiment::{Runner, RunnerConfig};
use rescache_core::Knobs;
use rescache_trace::{spec, AppProfile};

/// The configuration the `paper` and `ablation` benches run: the
/// paper-quality configuration with the length, seed and interval knobs
/// applied (see [`knobs`]).
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

/// The runner of the `paper` and `ablation` benches (see [`bench_config`]).
pub fn bench_runner() -> Runner {
    Runner::new(bench_config())
}

/// The twelve applications of the paper's evaluation.
pub fn all_apps() -> Vec<AppProfile> {
    spec::all_profiles()
}

/// Prints the run's configuration line: region lengths, seed and
/// controller interval.
pub fn print_config() {
    let cfg = bench_config();
    println!(
        "(warm-up {} instr, measured {} instr per run, seed {}, dynamic interval {} accesses)",
        cfg.warmup_instructions, cfg.measure_instructions, cfg.trace_seed, cfg.dynamic_interval
    );
}

/// Prints a standard header for one table or figure.
pub fn print_header(title: &str, detail: &str) {
    println!();
    println!("=== {title} ===");
    println!("{detail}");
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
