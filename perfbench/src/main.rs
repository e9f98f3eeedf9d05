//! The rescache benchmark.
//!
//! ```text
//! perfbench --workload <fig5_paper|serve_hot|serve_cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run measures one workload for about `--seconds` seconds of host
//! time, checks every output, and prints as its last stdout line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end set (see
//! [`report::END_TO_END`]); with `--trace 1` the run records spans around
//! its calls into each layer and reports the per-layer set
//! ([`report::PER_LAYER`]). The seed sets the trace seed of every runner
//! and the order of every generated request. Host time is measured;
//! simulated statistics are checked and reported, never timed. The model
//! has not been validated against real hardware, so no accuracy figure is
//! given. `perfbench/METRICS.md` describes every metric and workload.
//!
//! Scratch output (span files, store directories) goes under
//! `$CARGO_TARGET_DIR/perfbench-out`, or `.bench_build/perfbench-out` when
//! the variable is unset.

mod fig5;
mod layers;
mod reference;
mod report;
mod requests;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;

use rescache_core::experiment::{effective_workers, StoreHealth};

use crate::report::{note, Outcome};
use crate::spans::{Ledger, Recorder, LEDGER_TOLERANCE};

/// The command line of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(serve::CHILD_FLAG) {
        serve::child_main(&argv[1..]);
        return;
    }
    // Runner knobs come from the command line only: a stray RESCACHE_*
    // variable must not change what this run measures. Nothing else runs
    // yet, so editing the environment is safe.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RESCACHE_") {
            std::env::remove_var(&key);
        }
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "fig5_paper" => fig5::run(&args),
        "serve_hot" => serve::run(&args, serve::Mode::Hot),
        "serve_cold" => serve::run(&args, serve::Mode::Cold),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (fig5_paper, serve_hot, serve_cold)");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} trace {} nproc {} effective_workers {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc(),
        effective_workers()
    );
    for problem in &outcome.problems {
        eprintln!("perfbench: CHECK FAILED: {problem}");
    }
    println!("{}", outcome.final_line(args.trace));
}

/// Host parallelism: the client count and server worker count of the serve
/// workloads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where runs leave span files and scratch stores.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let dir = target.join("perfbench-out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    dir
}

/// CPU seconds this process has used so far, summed over its threads
/// (exited ones included).
pub fn cpu_seconds() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and the clock id is one Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

/// Peak resident set (VmHWM) of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The shared tier's counters as `tier.*` metrics. They mix trace-store
/// lookups with simulation-memo lookups, as the tier counts them.
pub fn set_tier(health: &StoreHealth, outcome: &mut Outcome) {
    outcome.set("tier.hits", health.hits as f64);
    outcome.set("tier.misses", health.misses as f64);
    outcome.set("tier.coalesced", health.coalesced as f64);
    outcome.set(
        "tier.hit_rate",
        health.result_cache_hit_rate().unwrap_or(0.0),
    );
}

/// Closes a traced run: builds the ledger from the recorded spans, checks
/// its coverage, writes the spans out and sets the `ledger.*` metrics.
pub fn finish_traced(
    rec: &Recorder,
    wall_s: f64,
    overhead_pct: f64,
    args: &Args,
    outcome: &mut Outcome,
) -> Ledger {
    let spans = rec.spans();
    let ledger = Ledger::from_spans(&spans);
    if let Err(e) = ledger.check(LEDGER_TOLERANCE) {
        outcome.problems.push(format!("ledger: {e}"));
    }
    let path = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = spans::write_spans(&path, &spans) {
        outcome
            .problems
            .push(format!("writing {}: {e}", path.display()));
    }
    println!("spans: {} written to {}", spans.len(), path.display());
    for (layer, seconds) in &ledger.layers {
        note(&format!("self.{layer}"), *seconds, "s");
    }
    note("self.unattributed", ledger.unattributed_s, "s");
    note("ledger.traced", ledger.traced_s(), "thread-s");
    outcome.set("ledger.wall_s", wall_s);
    outcome.set("ledger.attributed_s", ledger.attributed_s());
    outcome.set("ledger.unattributed_s", ledger.unattributed_s);
    outcome.set("ledger.overhead_pct", overhead_pct);
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&argv(
            "--workload serve_hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.workload, "serve_hot");
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
        for bad in [
            "--workload x --seed 1 --seconds 1",
            "--workload x --seed -1 --seconds 1 --trace 0",
            "--workload x --seed 1 --seconds 0 --trace 0",
            "--workload x --seed 1 --seconds 1 --trace 2",
            "--workload x --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn cpu_seconds_count_work_on_other_threads() {
        let before = cpu_seconds();
        std::thread::spawn(|| {
            let start = std::time::Instant::now();
            while start.elapsed().as_secs_f64() < 0.05 {
                std::hint::black_box(());
            }
        })
        .join()
        .unwrap();
        let used = cpu_seconds() - before;
        // The exited thread's busy 50 ms still count.
        assert!((0.04..1.0).contains(&used), "{used}");
    }
}
