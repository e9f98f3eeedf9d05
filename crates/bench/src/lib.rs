//! Shared helpers for the `rescache` benchmark harness.
//!
//! Each `[[bench]]` target of this crate regenerates one table or figure of
//! the HPCA 2002 resizable-cache paper and prints the corresponding rows or
//! series. The helpers here keep the targets small: a common runner
//! configuration (the paper's, with the `RESCACHE_*` knobs of
//! [`rescache_core::Knobs`] applied; a malformed knob stops the bench before
//! any work, with exit status 2), the full application list, and a tiny
//! stopwatch for reporting how long a sweep took.

use std::time::Instant;

use rescache_core::experiment::{Runner, RunnerConfig};
use rescache_core::Knobs;
use rescache_trace::{spec, AppProfile, WorkloadRegistry};

/// The configuration every figure bench runs: the paper-quality
/// configuration with the length, seed, interval and objective knobs
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
    fn registry_workloads_are_available() {
        let workloads = registry_workloads();
        assert!(workloads.len() >= 8);
        assert!(workloads.iter().any(|p| p.name == "nominal"));
    }
}
