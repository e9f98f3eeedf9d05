//! `fig5_paper`: the Figure-5 static sweep in-process at the paper's region
//! lengths — selective-ways and selective-sets `static_best` on a 32K 4-way
//! d-cache, over apps that span small and large working sets.
//!
//! A *row* is one application — the workload's request: its trace, its
//! full-size baseline (the row's first result) and one `static_best` search
//! per organization (the row's sweeps). A *pass* is every
//! application once, on a fresh in-memory runner, so each pass pays trace
//! generation the way a figure run does. Whole passes run until the run's
//! seconds are used up, so every run measures the same row mix.
//!
//! The workload is CPU-bound with one caller, so its durations are process
//! CPU seconds (every thread, the runner's sweep workers included) rather
//! than wall seconds: a host that lends the benchmark less processor time
//! slows the wall clock but not the work, and the end-to-end figures
//! should follow the work. The wall-clock rate is printed beside them.

use std::time::Instant;

use rescache_core::experiment::{Runner, RunnerConfig, StaticOutcome, StoreHealth, TraceStore};
use rescache_core::json::{obj, Json};
use rescache_core::{CachePoint, ConfigSpace, Organization, ResizableCacheSide, SystemConfig};
use rescache_trace::{spec, AppProfile};

use crate::layers::{self, ProbeInput};
use crate::report::{note, Outcome};
use crate::spans::Recorder;
use crate::{cpu_seconds, stats, Args};

/// Small (ammp), mid-sized (compress), varying and conflict-heavy (gcc) and
/// cache-filling (swim) data working sets.
const APPS: [&str; 4] = ["ammp", "compress", "gcc", "swim"];
const ORGS: [Organization; 2] = [Organization::SelectiveWays, Organization::SelectiveSets];

fn system() -> SystemConfig {
    SystemConfig::with_l1(32 * 1024, 4)
}

fn apps() -> Vec<AppProfile> {
    APPS.iter()
        .map(|a| spec::profile(a).expect("fig5 apps are spec profiles"))
        .collect()
}

struct Row {
    app: &'static str,
    /// CPU seconds to the row's full-size baseline.
    first_result_s: f64,
    /// CPU seconds each `static_best` search took.
    sweep_s: Vec<f64>,
    points: u64,
    pricings: u64,
    digest: u64,
    lines: Vec<String>,
}

/// Everything one timed phase measured.
#[derive(Default)]
struct Phase {
    rows: Vec<Row>,
    wall_s: f64,
    /// CPU seconds each pass took.
    pass_s: Vec<f64>,
    health: StoreHealth,
    sims_executed: u64,
}

impl Phase {
    fn points(&self) -> u64 {
        self.rows.iter().map(|r| r.points).sum()
    }
}

/// Distinct (set count, way count) geometries a row simulates: the
/// full-size baseline plus every point either organization offers.
fn distinct_geometries(system: &SystemConfig) -> u64 {
    let cache = ResizableCacheSide::Data.config_of(&system.hierarchy);
    let mut geometries = vec![CachePoint::full(&cache)];
    for org in ORGS {
        let space = ConfigSpace::enumerate(cache, org).expect("fig5 organizations apply");
        geometries.extend_from_slice(space.points());
    }
    geometries.sort_by_key(|p| (p.sets, p.ways));
    geometries.dedup();
    geometries.len() as u64
}

/// FNV-1a over a row's measurements, bit for bit.
fn digest(outcomes: &[StaticOutcome]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for outcome in outcomes {
        eat(outcome.base.cycles);
        eat(outcome.base.energy_pj.to_bits());
        for (point, m) in &outcome.evaluated {
            eat(point.sets);
            eat(u64::from(point.ways));
            eat(m.cycles);
            eat(m.energy_pj.to_bits());
            eat(m.l1d_miss_ratio.to_bits());
            eat(m.latency.delayed_hits);
        }
        eat(outcome.best.edp_reduction_percent.to_bits());
    }
    hash
}

/// A row's measurements as sweep-service-shaped result lines (the JSON
/// layer's input on this workload).
fn result_lines(outcomes: &[StaticOutcome]) -> Vec<String> {
    let mut lines = Vec::new();
    for outcome in outcomes {
        for (point, m) in &outcome.evaluated {
            let line = obj([
                ("ok", Json::Bool(true)),
                ("kind", Json::Str("result".into())),
                ("app", Json::Str(outcome.app.clone())),
                (
                    "point",
                    obj([
                        ("sets", Json::Num(point.sets as f64)),
                        ("ways", Json::Num(f64::from(point.ways))),
                    ]),
                ),
                ("cycles", Json::Num(m.cycles as f64)),
                ("ipc", Json::Num(m.ipc)),
                ("energy_pj", Json::Num(m.energy_pj)),
                ("edp", Json::Num(m.energy_delay().product())),
                ("l1d_miss_ratio", Json::Num(m.l1d_miss_ratio)),
                ("l1i_miss_ratio", Json::Num(m.l1i_miss_ratio)),
            ]);
            lines.push(line.render());
        }
    }
    lines
}

/// One pass: every application once on a fresh runner.
fn pass(config: RunnerConfig, rec: &Recorder, phase: &mut Phase, outcome: &mut Outcome) {
    let system = system();
    let runner = Runner::with_store(config, TraceStore::with_dir(None));
    let apps = apps();
    for (index, app) in apps.iter().enumerate() {
        let request = phase.rows.len() as u64;
        let start = cpu_seconds();
        rec.time("trace.fetch", request, || runner.trace(app));
        rec.time("runner.run_static", request, || {
            runner.run_static(app, &system, None, None, 0, 0)
        });
        let first_result_s = cpu_seconds() - start;
        let mut sweep_s = Vec::new();
        let outcomes: Vec<StaticOutcome> = ORGS
            .iter()
            .map(|org| {
                let start = cpu_seconds();
                let outcome = rec
                    .time("runner.static_best", request, || {
                        runner.static_best(app, &system, *org, ResizableCacheSide::Data)
                    })
                    .expect("fig5 organizations apply");
                sweep_s.push(cpu_seconds() - start);
                outcome
            })
            .collect();
        let points: u64 = outcomes.iter().map(|o| o.evaluated.len() as u64).sum();
        phase.rows.push(Row {
            app: APPS[index],
            first_result_s,
            sweep_s,
            points,
            // One pricing per run_static call: the explicit baseline, then
            // each search's baseline and points.
            pricings: 1 + outcomes.len() as u64 + points,
            digest: digest(&outcomes),
            lines: if rec.enabled() {
                result_lines(&outcomes)
            } else {
                Vec::new()
            },
        });
    }
    let health = runner.trace_store().health();
    // One cold trace generation per application is the only non-simulation
    // miss of a fresh in-memory runner.
    let sims = health.misses.saturating_sub(apps.len() as u64);
    let expected = apps.len() as u64 * distinct_geometries(&system);
    if sims != expected {
        outcome.problems.push(format!(
            "fig5 pass simulated {sims} times; the rows have {expected} distinct \
             (app, geometry) pairs"
        ));
    }
    phase.sims_executed += sims;
    phase.health.hits += health.hits;
    phase.health.misses += health.misses;
    phase.health.coalesced += health.coalesced;
}

/// Whole passes until `seconds` of wall time have gone by (at least two,
/// so rows can be compared across passes).
fn timed(config: RunnerConfig, seconds: f64, rec: &Recorder, outcome: &mut Outcome) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut passes = 0;
    while passes < 2 || start.elapsed().as_secs_f64() < seconds {
        let pass_start = cpu_seconds();
        pass(config, rec, &mut phase, outcome);
        phase.pass_s.push(cpu_seconds() - pass_start);
        passes += 1;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Every pass of one seed must produce bit-identical rows.
fn check_rows(phase: &Phase, outcome: &mut Outcome) {
    outcome.attempted += phase.rows.len() as u64;
    for app in APPS {
        let mut digests = phase.rows.iter().filter(|r| r.app == app).map(|r| r.digest);
        let Some(first) = digests.next() else {
            continue;
        };
        let mismatches = digests.filter(|d| *d != first).count();
        for _ in 0..mismatches {
            outcome.fail(format!(
                "fig5 row of {app} differs between passes of one seed"
            ));
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let config = RunnerConfig {
        trace_seed: args.seed,
        ..RunnerConfig::paper()
    };

    // Set-up: one pass at reduced region lengths warms code, allocator and
    // worker threads before anything is timed.
    let setups: Vec<f64> = (0..3)
        .map(|_| {
            let start = cpu_seconds();
            let warm = RunnerConfig {
                trace_seed: args.seed,
                ..RunnerConfig::fast()
            };
            pass(
                warm,
                &Recorder::new(false),
                &mut Phase::default(),
                &mut Outcome::default(),
            );
            cpu_seconds() - start
        })
        .collect();

    if !args.trace {
        let off = Recorder::new(false);
        let phase = timed(config, args.seconds, &off, &mut outcome);
        check_rows(&phase, &mut outcome);
        let latencies: Vec<f64> = phase
            .rows
            .iter()
            .flat_map(|r| r.sweep_s.iter().map(|s| s * 1e3))
            .collect();
        let firsts: Vec<f64> = phase.rows.iter().map(|r| r.first_result_s * 1e3).collect();
        let tail = stats::tail(&latencies);
        if tail.is_none() {
            outcome
                .problems
                .push("fewer than 11 fig5 searches: no tail".into());
        }
        // Every pass does the same work; rates over the median pass are
        // robust to a stretch of host interference shorter than the run.
        let passes = phase.pass_s.len() as f64;
        let median_pass = stats::median(&phase.pass_s).unwrap_or(phase.wall_s);
        outcome.set("points_per_s", phase.points() as f64 / passes / median_pass);
        note(
            "wall.points_per_s",
            phase.points() as f64 / phase.wall_s,
            "1/s",
        );
        outcome.set(
            "requests_per_s",
            phase.rows.len() as f64 / passes / median_pass,
        );
        outcome.set("sweep_p50_ms", stats::median(&latencies).unwrap_or(0.0));
        outcome.set("sweep_tail_ms", tail.map_or(0.0, |t| t.value));
        outcome.set("first_result_p50_ms", stats::median(&firsts).unwrap_or(0.0));
        outcome.set("setup_s", stats::median(&setups).unwrap_or(0.0));
        outcome.set(
            "peak_rss_mb",
            crate::peak_rss_mb(std::process::id()).unwrap_or(0.0),
        );
        if let Some(t) = tail {
            println!(
                "sweep tail: p{:.1} over {} searches; a request is one figure row",
                t.percentile, t.samples
            );
        }
        note("rows", phase.rows.len() as f64, "count");
        note("runner.sims_executed", phase.sims_executed as f64, "count");
        return outcome;
    }

    // Traced run: the same phase untraced and traced (half the seconds
    // each) for the overhead, then the layer probe.
    let off = Recorder::new(false);
    let untraced = timed(config, args.seconds / 2.0, &off, &mut outcome);
    let rec = Recorder::new(true);
    let traced_start = Instant::now();
    let traced = {
        let _root = rec.span("bench.timed", 0);
        timed(config, args.seconds / 2.0, &rec, &mut outcome)
    };
    check_rows(&untraced, &mut outcome);
    check_rows(&traced, &mut outcome);
    let lines: Vec<String> = traced.rows.iter().flat_map(|r| r.lines.clone()).collect();
    let dir = crate::out_dir().join(format!("probe-{}", std::process::id()));
    let counts = layers::probe(
        &ProbeInput {
            pairs: apps().into_iter().map(|a| (a, system())).collect(),
            config,
            price_calls: traced.rows.iter().map(|r| r.pricings).sum(),
            lines: &lines,
            dir: &dir,
        },
        &rec,
        &mut outcome,
    );
    let wall_s = traced_start.elapsed().as_secs_f64();
    let overhead_pct = 100.0
        * ((traced.wall_s / traced.points() as f64) / (untraced.wall_s / untraced.points() as f64)
            - 1.0);
    let ledger = crate::finish_traced(&rec, wall_s, overhead_pct, args, &mut outcome);
    layers::set_metrics(&counts, |name| ledger.op(name), &mut outcome);
    outcome.set(
        "runner.static_s",
        ledger.layers.get("runner").copied().unwrap_or(0.0),
    );
    outcome.set("runner.sims_executed", traced.sims_executed as f64);
    crate::set_tier(&traced.health, &mut outcome);
    outcome.set("strategy.decisions", 0.0);
    outcome.set("strategy.resizes", 0.0);
    outcome.set("server.lines", 0.0);
    outcome.set("server.bytes_out", 0.0);
    outcome
}
