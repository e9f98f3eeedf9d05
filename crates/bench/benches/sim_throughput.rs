//! Throughput harness for the simulation substrate itself: measures simulated
//! instructions (or cache accesses) per wall-clock second for the stages every
//! experiment runs through — trace generation, the cache access path, the two
//! execution engines, and a figure-5-style static sweep — and records the
//! numbers in `BENCH_sim_throughput.json` at the workspace root so successive
//! performance PRs have a tracked trajectory.
//!
//! Unlike the figure benches (which reproduce the paper's *results*), this
//! bench measures the *simulator*: its unit is MIPS, millions of simulated
//! instructions per second of wall-clock time.
//!
//! Run with `cargo bench --bench sim_throughput`. Set
//! `RESCACHE_BENCH_QUICK=1` to run a fast smoke-test variant (used by CI;
//! `0`, `false` and the empty string count as unset). Quick runs only ever
//! write the `.quick.json` sibling — the committed full-run trajectory file
//! is never touched in quick mode.
//!
//! The store-backed stages (`trace_store_load`, `dyn_streamed`,
//! `sweep_service_multiproc`) exercise the persistent-store path and
//! therefore need `RESCACHE_TRACE_DIR`;
//! when it is not set they are skipped — recorded in the JSON with
//! `"status": "skipped"` — rather than silently writing into a fabricated
//! temp directory or failing. Each run uses (and removes) a
//! `bench-<stage>-<pid>` subdirectory so a real store is never polluted.

use std::time::Instant;

use rescache_bench::knobs;
use rescache_cache::{Cache, CacheConfig, HierarchyConfig, MemoryHierarchy, ReplacementPolicy};
use rescache_core::experiment::{
    effective_workers, per_app_org_comparison, RunSetup, Runner, RunnerConfig, ServeConfig,
    StoreHealth, SweepServer, TraceStore,
};
use rescache_core::{ConfigSpace, DynamicParams, Organization, ResizableCacheSide, SystemConfig};
use rescache_cpu::{CpuConfig, LatencyStats, Simulator};
use rescache_trace::{codec, spec, TraceFormat, TraceGenerator, TraceSource, WorkloadRegistry};

/// One measured stage of the simulation pipeline.
struct EngineResult {
    name: &'static str,
    /// Work items per repetition (instructions, or cache accesses for the
    /// pure cache stages).
    items: u64,
    /// Best wall-clock seconds over the measured repetitions.
    seconds: f64,
    /// Millions of items per second at the best repetition.
    mips: f64,
    /// `true` when `items` counts the sweep's *nominal* workload (runs ×
    /// instructions as the pre-optimization kernel executed them) rather
    /// than instructions literally simulated: memoization legitimately
    /// skips redundant runs, so the quotient is an *equivalent* MIPS — a
    /// figure of merit for "figure produced per second" whose before/after
    /// ratio equals the wall-clock ratio.
    nominal_workload: bool,
    /// `true` when the stage did not run (missing `RESCACHE_TRACE_DIR`);
    /// recorded in the JSON as `"status": "skipped"` with zeroed values so
    /// trajectory consumers can tell "not measured" from "measured as 0".
    skipped: bool,
    /// The trace-format version whose bit stream the stage generated,
    /// replayed or simulated; `None` only for the stages that touch no
    /// trace records at all (the pure cache-access kernels).
    trace_format: Option<TraceFormat>,
    /// On-disk size of the store entry the stage replays, and the ratio of
    /// the packed 12-byte in-memory record to that size; `Some` only for
    /// `trace_store_load`, the stage whose whole point is the disk format.
    store_bytes: Option<u64>,
    compression_ratio: Option<f64>,
    /// Request lines the sweep service answered, and the shared tier's
    /// result-cache hit rate over the stage (hits + coalesced over all
    /// lookups); `Some` only for `sweep_service` (one process, one tier)
    /// and `sweep_service_multiproc` (N server processes sharing a store
    /// directory, counters aggregated across them), the stages whose whole
    /// point is serving shared results.
    requests: Option<u64>,
    hit_rate: Option<f64>,
    /// Latency-domain counters from the stage's last engine run; `Some`
    /// only for the replacement-policy pair, whose whole point is the
    /// delayed-hit stall profile rather than raw MIPS.
    latency: Option<LatencyStats>,
}

/// The record for a stage that was skipped because its prerequisite
/// environment (the trace-store directory) is absent.
fn skipped(name: &'static str) -> EngineResult {
    println!("{name:<24} skipped (RESCACHE_TRACE_DIR not set)");
    EngineResult {
        name,
        items: 0,
        seconds: 0.0,
        mips: 0.0,
        nominal_workload: false,
        skipped: true,
        trace_format: None,
        store_bytes: None,
        compression_ratio: None,
        requests: None,
        hit_rate: None,
        latency: None,
    }
}

/// A per-stage scratch subdirectory under `RESCACHE_TRACE_DIR`, or `None`
/// (skip the stage) when the variable is unset. The subdirectory is
/// namespaced by stage and pid so concurrent runs cannot collide and a real
/// store's entries are never touched; callers remove it when done.
fn store_scratch_dir(stage: &str) -> Option<std::path::PathBuf> {
    let root = knobs().trace_dir.as_ref()?;
    Some(root.join(format!("bench-{stage}-{}", std::process::id())))
}

/// Runs `body` `reps` times (after one untimed warm-up) and keeps the fastest
/// repetition; `items` is the simulated work per repetition.
fn measure(
    name: &'static str,
    items: u64,
    reps: usize,
    mut body: impl FnMut() -> u64,
) -> EngineResult {
    let mut check = body(); // warm-up, also keeps the result alive
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        check = check.wrapping_add(body());
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed < best {
            best = elapsed;
        }
    }
    // Keep the accumulated check value observable so the work is not elided.
    if check == u64::MAX {
        eprintln!("(unreachable checksum {check})");
    }
    let mips = items as f64 / best / 1.0e6;
    println!("{name:<24} {items:>10} items   {best:>9.4} s   {mips:>9.2} MIPS");
    EngineResult {
        name,
        items,
        seconds: best,
        mips,
        nominal_workload: false,
        skipped: false,
        trace_format: None,
        store_bytes: None,
        compression_ratio: None,
        requests: None,
        hit_rate: None,
        latency: None,
    }
}

fn bench_trace_gen(scale: u64) -> EngineResult {
    let n = (50_000 * scale) as usize;
    let mut result = measure("trace_gen", n as u64, 5, || {
        TraceGenerator::new(spec::gcc(), 7).generate(n).len() as u64
    });
    result.trace_format = Some(TraceFormat::V3);
    result
}

/// Chunked generation through the `TraceSource` pull interface: the same
/// record sequence as `trace_gen`, but only one `CHUNK_RECORDS` buffer ever
/// resident — the rate a streaming (fused generate-and-simulate) run feeds
/// its engine at.
fn bench_trace_gen_streaming(scale: u64) -> EngineResult {
    let n = (50_000 * scale) as usize;
    let mut result = measure("trace_gen_streaming", n as u64, 5, || {
        let mut stream = TraceGenerator::new(spec::gcc(), 7).stream(n);
        let mut records = 0u64;
        loop {
            let chunk = stream.next_chunk();
            if chunk.is_empty() {
                break;
            }
            records += chunk.len() as u64;
        }
        records
    });
    result.trace_format = Some(TraceFormat::V3);
    result
}

/// Replaying a persisted trace from the on-disk store (the cross-process
/// reuse path `RESCACHE_TRACE_DIR` enables): the store-serve path decodes
/// each chunk straight into a resident buffer the engine batch lanes read
/// from, so the stage drains `TraceFileSource` chunk by chunk — it never
/// materializes a whole-trace `Vec<InstrRecord>`.
fn bench_trace_store_load(scale: u64) -> EngineResult {
    let n = (50_000 * scale) as usize;
    let Some(dir) = store_scratch_dir("store-load") else {
        return skipped("trace_store_load");
    };
    std::fs::create_dir_all(&dir).expect("create bench store dir");
    let path = dir.join("gcc.rctrace");
    codec::save_trace(&path, &TraceGenerator::new(spec::gcc(), 7).generate(n))
        .expect("persist bench trace");
    let store_bytes = std::fs::metadata(&path).expect("stat bench trace").len();
    let mut result = measure("trace_store_load", n as u64, 5, || {
        let mut source = codec::TraceFileSource::open(&path, None).expect("open bench trace");
        let mut records = 0u64;
        loop {
            let chunk = source.next_chunk();
            if chunk.is_empty() {
                break;
            }
            records += chunk.len() as u64;
        }
        records
    });
    result.trace_format = Some(TraceFormat::V3);
    result.store_bytes = Some(store_bytes);
    // Ratio of the packed in-memory record (12 bytes) to what the entry
    // actually occupies on disk.
    result.compression_ratio = Some(12.0 * n as f64 / store_bytes as f64);
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn bench_hit_stream(scale: u64) -> EngineResult {
    let n = 200_000 * scale;
    let mut cache = Cache::new(CacheConfig::l1_default(32 * 1024, 2)).unwrap();
    cache.fill(0x1000, false);
    measure("hit_stream", n, 5, move || {
        let mut hits = 0u64;
        for i in 0..n {
            if cache.access_read(0x1000 + (i % 4) * 8).hit {
                hits += 1;
            }
        }
        hits
    })
}

fn bench_evict_stream(scale: u64) -> EngineResult {
    // Aliasing addresses so every fill evicts: this is the allocation-prone
    // miss path (choose_victim) of the pre-optimization kernel.
    let n = 100_000 * scale;
    let mut cache = Cache::new(CacheConfig::l1_default(32 * 1024, 4)).unwrap();
    let way_span = 8 * 1024u64;
    measure("evict_stream", n, 5, move || {
        let mut evictions = 0u64;
        for i in 0..n {
            let addr = (i % 8) * way_span; // 8 aliases over 4 ways
            if !cache.access_read(addr).hit && cache.fill(addr, i % 2 == 0).is_some() {
                evictions += 1;
            }
        }
        evictions
    })
}

fn bench_engine(name: &'static str, config: CpuConfig, scale: u64) -> EngineResult {
    let n = (20_000 * scale) as usize;
    let trace = TraceGenerator::new(spec::m88ksim(), 3).generate(n);
    // These stages finish in ~2 ms, so on a shared host a best-of-3 is
    // regularly inflated by scheduler interference; 15 repetitions (still
    // ~30 ms per stage) land the best-of reliably near the true minimum.
    // More repetitions can only tighten the same statistic, so engine values
    // stay comparable with the earlier best-of-3 trajectory entries.
    let mut result = measure(name, n as u64, 15, move || {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        Simulator::new(config).run(&trace, &mut h).instructions
    });
    result.trace_format = Some(TraceFormat::V3);
    result
}

/// The cold-start ("trace-limited") stage every sweep pays once per
/// application: generate a fresh trace and simulate it for the first time.
/// `fused: false` is the pre-streaming pipeline (materialize, then replay);
/// `fused: true` interleaves generation and simulation per chunk through
/// `run_source`, with only one chunk buffer resident.
fn bench_gen_plus_first_sim(name: &'static str, fused: bool, scale: u64) -> EngineResult {
    let n = (20_000 * scale) as usize;
    let config = CpuConfig::base_out_of_order();
    let mut result = measure(name, n as u64, 3, move || {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let generator = TraceGenerator::new(spec::m88ksim(), 3);
        if fused {
            let mut stream = generator.stream(n);
            Simulator::new(config)
                .run_source(&mut stream, &mut h)
                .instructions
        } else {
            let trace = generator.generate(n);
            Simulator::new(config).run(&trace, &mut h).instructions
        }
    });
    result.trace_format = Some(TraceFormat::V3);
    result
}

/// One out-of-order engine run per registry workload, fed through the
/// streaming source: tracks how the engine responds to each scenario's
/// stress pattern (quick mode covers a three-workload subset).
fn bench_workloads(scale: u64, quick: bool) -> Vec<EngineResult> {
    let n = (20_000 * scale) as usize;
    let registry = WorkloadRegistry::builtin();
    let quick_set = ["nominal", "pointer_chase", "mshr_burst"];
    registry
        .specs()
        .iter()
        .filter(|spec| !quick || quick_set.contains(&spec.name))
        .map(|spec| {
            let profile = spec.profile();
            let config = CpuConfig::base_out_of_order();
            // Registry names are 'static, but `measure` labels want a
            // stable prefixed name; leak once per stage (bounded by the
            // registry size).
            let label: &'static str = Box::leak(format!("wl_{}", spec.name).into_boxed_str());
            let mut result = measure(label, n as u64, 3, move || {
                let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
                let mut stream = TraceGenerator::new(profile.clone(), 3).stream(n);
                Simulator::new(config)
                    .run_source(&mut stream, &mut h)
                    .instructions
            });
            result.trace_format = Some(TraceFormat::V3);
            result
        })
        .collect()
}

/// The replacement-policy headline pair: one delayed-hit-heavy registry
/// workload simulated under baseline LRU and under latency-aware LRU-MAD,
/// back to back in the same process. The interesting output is not MIPS but
/// the latency block each entry carries — mean delayed-hit stall cycles under
/// `lru` vs `lru_mad` compare *within the run*, so the pair's ratio is
/// host-drift-free even on a shared 1-core container.
///
/// The pair runs `conflict_storm` against a conflict-prone 4K 2-way L1
/// (not the 32K base): delayed hits in this model come from a line being
/// evicted while its fill is still in flight, which the base geometry
/// almost never does. Under that pressure MAD's victim scan evicts the
/// lines whose outstanding fills are cheapest, so the merges that remain
/// land close to completion — the *mean* stall per delayed hit drops well
/// below LRU's even though MAD admits more (cheap) merges.
fn bench_policy_pair(scale: u64) -> Vec<EngineResult> {
    let n = (100_000 * scale) as usize;
    let registry = WorkloadRegistry::builtin();
    let spec = registry
        .get("conflict_storm")
        .expect("conflict_storm is a builtin workload");
    let profile = spec.profile();
    [
        ("policy_lru", ReplacementPolicy::Lru),
        ("policy_lru_mad", ReplacementPolicy::LruMad),
    ]
    .into_iter()
    .map(|(label, policy)| {
        let config = CpuConfig::base_out_of_order();
        let profile = profile.clone();
        let mut latency = LatencyStats::default();
        let mut result = measure(label, n as u64, 3, || {
            let mut h =
                MemoryHierarchy::new(HierarchyConfig::with_l1(4 * 1024, 2).with_l1d_policy(policy))
                    .unwrap();
            let mut stream = TraceGenerator::new(profile.clone(), 3).stream(n);
            let r = Simulator::new(config).run_source(&mut stream, &mut h);
            latency = r.latency;
            r.instructions
        });
        println!(
            "{:<24} {:>10} delayed hits   {:>9.3} mean stall cycles",
            format!("  ({label})"),
            latency.delayed_hits,
            latency.mean_delayed_hit_cycles()
        );
        result.trace_format = Some(TraceFormat::V3);
        result.latency = Some(latency);
        result
    })
    .collect()
}

/// One dynamic-controller run (warm-up + measured region with the miss-ratio
/// resizing hook attached), either through the classic materialized path
/// (`Runner::run` over pre-split traces) or through the streamed store path
/// (`Runner::run_dynamic` replaying a persisted entry chunk by chunk, with
/// no full-length trace resident). The pair tracks what the streamed dynamic
/// pipeline costs/saves against the in-memory replay rate.
fn bench_dynamic(
    name: &'static str,
    streamed: bool,
    scale: u64,
    health_out: &mut Option<StoreHealth>,
) -> EngineResult {
    let warm_len = (4_000 * scale) as usize;
    let measure_len = (16_000 * scale) as usize;
    let cfg = RunnerConfig {
        warmup_instructions: warm_len,
        measure_instructions: measure_len,
        trace_seed: 42,
        dynamic_interval: 1_024,
        ..RunnerConfig::paper()
    };
    // The materialized baseline replays resident traces; only the streamed
    // variant needs (and requires) a store directory.
    let dir = if streamed {
        match store_scratch_dir(name) {
            Some(dir) => Some(dir),
            None => return skipped(name),
        }
    } else {
        None
    };
    if let Some(dir) = &dir {
        std::fs::remove_dir_all(dir).ok();
    }
    let store = TraceStore::with_dir(dir.clone());
    let tier = store.tier().clone();
    let runner = Runner::with_store(cfg, store);
    let app = spec::su2cor();
    let system = SystemConfig::base();
    let space = ConfigSpace::enumerate(
        ResizableCacheSide::Data.config_of(&system.hierarchy),
        Organization::SelectiveSets,
    )
    .expect("selective-sets applies to the base d-cache");
    let params = DynamicParams::new(cfg.dynamic_interval, 8, space.min_bytes()).expect("params");
    let setup = RunSetup {
        dynamic: Some((ResizableCacheSide::Data, space, params)),
        d_tag_bits: 4,
        ..RunSetup::default()
    };
    // `measure`'s untimed warm-up call populates the store (generate-to-disk
    // for the streamed variant, materialize-and-memoize for the baseline),
    // so the timed repetitions measure steady-state replay.
    let mut result = measure(name, (warm_len + measure_len) as u64, 3, move || {
        let m = if streamed {
            runner.run_dynamic(&app, &system, &setup)
        } else {
            let (warm_trace, measure_trace) = runner.trace(&app);
            runner.run(&warm_trace, &measure_trace, &system, &setup)
        };
        m.l1d_resizes + m.cycles
    });
    result.trace_format = Some(TraceFormat::V3);
    // The streamed stage's tier health goes into the JSON record: a bench
    // run that quietly retried, regenerated or degraded is not measuring
    // what it claims to measure.
    *health_out = Some(tier.health_snapshot());
    if let Some(dir) = &dir {
        std::fs::remove_dir_all(dir).ok();
    }
    result
}

/// A figure-5-style static sweep over a subset of applications: the
/// end-to-end path (trace cache, runner, parallel sweep) every figure bench
/// takes. Returns total simulated instructions and the measured result.
fn bench_fig5_sweep(cfg: RunnerConfig, scale: u64) -> EngineResult {
    let runner = Runner::new(cfg);
    let apps = [
        spec::ammp(),
        spec::m88ksim(),
        spec::compress(),
        spec::su2cor(),
    ];
    let orgs = [Organization::SelectiveWays, Organization::SelectiveSets];
    let side = ResizableCacheSide::Data;

    // Count the simulations the sweep performs: per (app, org) one baseline
    // plus one run per offered point, each over warm-up + measured regions.
    let system = SystemConfig::with_l1(32 * 1024, 4);
    let per_run = (cfg.warmup_instructions + cfg.measure_instructions) as u64;
    let mut runs = 0u64;
    for org in orgs {
        let points = ConfigSpace::enumerate(side.config_of(&system.hierarchy), org)
            .expect("both organizations apply to a 4-way cache")
            .points()
            .len() as u64;
        runs += (apps.len() as u64) * (1 + points);
    }
    let total_instructions = runs * per_run;

    let reps = if scale > 1 { 4 } else { 1 };
    let mut result = measure("fig5_sweep", total_instructions, reps, || {
        // Each repetition is one full figure sweep: traces stay shared (they
        // are generated once per process in real sweeps too), but the
        // simulation memoization starts empty so every repetition performs
        // the sweep's full deduplicated simulation work.
        let runner = runner.with_fresh_simulations();
        let rows = per_app_org_comparison(&runner, &apps, 4, &orgs, side)
            .expect("both organizations apply to a 4-way cache");
        rows.len() as u64
    });
    // The sweep's item count is its nominal workload (see `EngineResult`):
    // the runner memoizes simulations shared between sweep arms (e.g. the
    // baseline and each organization's full-size point), so fewer
    // instructions execute than the divisor counts, by design.
    result.nominal_workload = true;
    result.trace_format = Some(TraceFormat::V3);
    result
}

/// The sweep service end to end: concurrent clients run identical sweeps
/// against one server over TCP, so almost all of the nominal workload is
/// served from the shared tier's single-flight memos — that sharing *is*
/// the feature under test. The stage therefore reports an *equivalent*
/// MIPS (nominal workload over wall-clock) plus the service's headline
/// counters: requests answered and the result-cache hit rate.
fn bench_sweep_service(scale: u64) -> EngineResult {
    use std::io::{BufRead, Write};

    const CLIENTS: usize = 4;
    const SWEEPS_PER_CLIENT: usize = 2;
    let cfg = RunnerConfig {
        warmup_instructions: (4_000 * scale) as usize,
        measure_instructions: (12_000 * scale) as usize,
        trace_seed: 42,
        dynamic_interval: 1_024,
        ..RunnerConfig::paper()
    };
    // In-memory tier: the stage measures the serving path, not the disk, so
    // it runs everywhere (no RESCACHE_TRACE_DIR requirement).
    let store = TraceStore::with_dir(None);
    let tier = store.tier().clone();
    let server = SweepServer::bind(
        Runner::with_store(cfg, store),
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let (handle, join) = server.spawn().expect("spawn sweep service");

    let system = SystemConfig::base();
    let points = ConfigSpace::enumerate(
        ResizableCacheSide::Data.config_of(&system.hierarchy),
        Organization::SelectiveSets,
    )
    .expect("selective-sets applies to the base d-cache")
    .points()
    .len() as u64;
    // Nominal workload: every sweep's baseline plus one run per point, as
    // the pre-coalescing service would have simulated them.
    let per_run = (cfg.warmup_instructions + cfg.measure_instructions) as u64;
    let nominal = (CLIENTS * SWEEPS_PER_CLIENT) as u64 * (points + 1) * per_run;

    let mut result = measure("sweep_service", nominal, 3, || {
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let stream =
                            std::net::TcpStream::connect(addr).expect("connect bench client");
                        let mut reader =
                            std::io::BufReader::new(stream.try_clone().expect("clone stream"));
                        let mut writer = stream;
                        let mut served = 0u64;
                        for _ in 0..SWEEPS_PER_CLIENT {
                            writeln!(
                                writer,
                                r#"{{"req":"sweep","app":"gcc","org":"selective_sets"}}"#
                            )
                            .expect("send sweep");
                            let mut line = String::new();
                            loop {
                                line.clear();
                                let n = reader.read_line(&mut line).expect("read response");
                                assert!(n > 0, "server closed mid-sweep");
                                assert!(line.contains("\"ok\":true"), "sweep failed: {line}");
                                if line.contains("\"kind\":\"done\"") {
                                    break;
                                }
                                served += 1;
                            }
                        }
                        served
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("bench client"))
                .sum()
        })
    });
    let health = tier.health_snapshot();
    result.requests = Some(health.requests);
    result.hit_rate = health.result_cache_hit_rate();
    result.nominal_workload = true;
    result.trace_format = Some(TraceFormat::V3);
    handle.stop();
    join.join().expect("sweep service drains");
    result
}

/// The server process the multi-process stage re-execs this binary into:
/// binds an ephemeral port over the store directory the parent points
/// `RESCACHE_TRACE_DIR` at, prints the port on a marker line, and serves
/// until a client sends `shutdown`.
fn sweep_service_worker() {
    use std::io::Write;

    let env_usize = |name: &str, default: usize| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(default)
    };
    // Mirrors bench_sweep_service's runner configuration; the parent passes
    // the scaled region sizes explicitly so every server process keys the
    // same memo entries.
    let cfg = RunnerConfig {
        warmup_instructions: env_usize("RESCACHE_BENCH_SWEEP_WARMUP", 4_000),
        measure_instructions: env_usize("RESCACHE_BENCH_SWEEP_MEASURE", 12_000),
        trace_seed: 42,
        dynamic_interval: 1_024,
        ..RunnerConfig::paper()
    };
    let server = SweepServer::bind(
        Runner::new(cfg),
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        },
    )
    .expect("bind worker server");
    let port = server.local_addr().expect("local addr").port();
    println!("SWEEP_WORKER_PORT={port}");
    std::io::stdout().flush().expect("flush port marker");
    server.serve().expect("worker serves until shutdown");
}

/// The multi-process face of the sweep service: N independent server
/// *processes* (re-execs of this binary) share one `RESCACHE_TRACE_DIR`
/// through the store's entry locks, instead of one in-process tier.
/// Sharing is shallower here — persisted traces cross process boundaries,
/// simulation memos do not — so the aggregate result-cache hit rate
/// measures exactly the single-process-vs-multi-process gap, against
/// `sweep_service`'s within-run rate.
fn bench_sweep_service_multiproc(scale: u64) -> EngineResult {
    use std::io::{BufRead, Write};

    const SERVERS: usize = 2;
    const CLIENTS_PER_SERVER: usize = 2;
    const SWEEPS_PER_CLIENT: usize = 2;

    let Some(dir) = store_scratch_dir("sweep-multiproc") else {
        return skipped("sweep_service_multiproc");
    };
    std::fs::create_dir_all(&dir).expect("create multiproc scratch directory");
    let exe = std::env::current_exe().expect("bench binary path");
    let mut children = Vec::new();
    for _ in 0..SERVERS {
        children.push(
            std::process::Command::new(&exe)
                .env("RESCACHE_BENCH_SWEEP_WORKER", "1")
                .env("RESCACHE_TRACE_DIR", &dir)
                .env("RESCACHE_BENCH_SWEEP_WARMUP", (4_000 * scale).to_string())
                .env("RESCACHE_BENCH_SWEEP_MEASURE", (12_000 * scale).to_string())
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn server process"),
        );
    }
    let mut addrs = Vec::new();
    for child in &mut children {
        let stdout = child.stdout.take().expect("piped worker stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let port = loop {
            let line = lines
                .next()
                .expect("worker prints its port before EOF")
                .expect("read worker stdout");
            if let Some(port) = line.strip_prefix("SWEEP_WORKER_PORT=") {
                break port.trim().parse::<u16>().expect("valid port");
            }
        };
        addrs.push(std::net::SocketAddr::from(([127, 0, 0, 1], port)));
        // Keep draining the pipe so the child never blocks writing to it.
        std::thread::spawn(move || for _ in lines {});
    }

    let system = SystemConfig::base();
    let points = ConfigSpace::enumerate(
        ResizableCacheSide::Data.config_of(&system.hierarchy),
        Organization::SelectiveSets,
    )
    .expect("selective-sets applies to the base d-cache")
    .points()
    .len() as u64;
    let per_run = (4_000 + 12_000) * scale;
    let nominal =
        (SERVERS * CLIENTS_PER_SERVER * SWEEPS_PER_CLIENT) as u64 * (points + 1) * per_run;

    let run_sweeps = |addr: std::net::SocketAddr| {
        let stream = std::net::TcpStream::connect(addr).expect("connect bench client");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        let mut served = 0u64;
        for _ in 0..SWEEPS_PER_CLIENT {
            writeln!(
                writer,
                r#"{{"req":"sweep","app":"gcc","org":"selective_sets"}}"#
            )
            .expect("send sweep");
            let mut line = String::new();
            loop {
                line.clear();
                let n = reader.read_line(&mut line).expect("read response");
                assert!(n > 0, "server closed mid-sweep");
                assert!(line.contains("\"ok\":true"), "sweep failed: {line}");
                if line.contains("\"kind\":\"done\"") {
                    break;
                }
                served += 1;
            }
        }
        served
    };
    let mut result = measure("sweep_service_multiproc", nominal, 1, || {
        std::thread::scope(|scope| {
            let clients: Vec<_> = addrs
                .iter()
                .flat_map(|&addr| (0..CLIENTS_PER_SERVER).map(move |_| addr))
                .map(|addr| scope.spawn(move || run_sweeps(addr)))
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("bench client"))
                .sum()
        })
    });

    // Aggregate the per-process tier counters through the protocol (the
    // tiers live in the worker processes) and wind the servers down.
    let mut hits = 0u64;
    let mut coalesced = 0u64;
    let mut misses = 0u64;
    let mut requests = 0u64;
    for &addr in &addrs {
        let stream = std::net::TcpStream::connect(addr).expect("connect for health");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        writeln!(writer, r#"{{"req":"health"}}"#).expect("send health");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read health");
        let health = rescache_core::json::Json::parse(line.trim_end()).expect("health JSON");
        let counter = |name: &str| {
            health
                .get(name)
                .and_then(rescache_core::json::Json::as_u64)
                .unwrap_or(0)
        };
        hits += counter("hits");
        coalesced += counter("coalesced");
        misses += counter("misses");
        requests += counter("requests");
        writeln!(writer, r#"{{"req":"shutdown"}}"#).expect("send shutdown");
        line.clear();
        reader.read_line(&mut line).expect("read bye");
    }
    for mut child in children {
        let status = child.wait().expect("worker exits");
        assert!(
            status.success(),
            "worker process exited cleanly: {status:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();

    result.requests = Some(requests);
    let lookups = hits + coalesced + misses;
    result.hit_rate = (lookups > 0).then(|| (hits + coalesced) as f64 / lookups as f64);
    result.nominal_workload = true;
    result.trace_format = Some(TraceFormat::V3);
    result
}

// `results` is deliberately built push by push, not as a `vec![...]`
// literal — see the comment at its declaration.
#[allow(clippy::vec_init_then_push)]
fn main() {
    // A malformed runtime knob stops the bench here, before any work.
    let knobs = knobs();
    // Re-exec mode: the multi-process sweep-service stage spawns this same
    // binary as its server processes.
    if std::env::var("RESCACHE_BENCH_SWEEP_WORKER").is_ok() {
        sweep_service_worker();
        return;
    }
    // "0", "false" and the empty string count as unset, so e.g.
    // `RESCACHE_BENCH_QUICK=0` runs the full bench as intended rather than
    // silently selecting quick mode.
    let quick = std::env::var("RESCACHE_BENCH_QUICK")
        .map(|v| !matches!(v.trim(), "" | "0" | "false"))
        .unwrap_or(false);
    // The sweep bench honours the runner knobs; unset lengths default to a
    // bench-sized region so a full run finishes in minutes, not hours.
    let sweep_config = knobs.runner_config(RunnerConfig {
        warmup_instructions: 20_000,
        measure_instructions: if quick { 30_000 } else { 200_000 },
        ..RunnerConfig::paper()
    });
    let scale = if quick { 1 } else { 5 };

    println!("=== sim_throughput: simulator wall-clock throughput ===");
    println!(
        "(quick={quick}, warm-up {} / measure {} instructions per sweep run)",
        sweep_config.warmup_instructions, sweep_config.measure_instructions
    );
    println!();

    // Captured by the last store-backed dynamic stage (the streamed one):
    // the shared tier's recovery counters for the whole bench run.
    let mut store_health = None;
    // Stages are pushed one at a time rather than built as one `vec![...]`
    // literal: materializing a dozen stage results as macro temporaries
    // perturbed the store-load stage's measured time by ~1.5x run over run.
    let mut results = Vec::new();
    results.push(bench_trace_gen(scale));
    results.push(bench_trace_gen_streaming(scale));
    results.push(bench_trace_store_load(scale));
    results.push(bench_hit_stream(scale));
    results.push(bench_evict_stream(scale));
    results.push(bench_engine("in_order", CpuConfig::base_in_order(), scale));
    results.push(bench_engine(
        "out_of_order",
        CpuConfig::base_out_of_order(),
        scale,
    ));
    results.push(bench_gen_plus_first_sim(
        "gen_first_sim_split",
        false,
        scale,
    ));
    results.push(bench_gen_plus_first_sim("gen_first_sim_fused", true, scale));
    results.push(bench_dynamic(
        "dyn_materialized",
        false,
        scale,
        &mut store_health,
    ));
    results.push(bench_dynamic(
        "dyn_streamed",
        true,
        scale,
        &mut store_health,
    ));
    results.extend(bench_workloads(scale, quick));
    results.extend(bench_policy_pair(scale));
    results.push(bench_fig5_sweep(sweep_config, scale));
    results.push(bench_sweep_service(scale));
    results.push(bench_sweep_service_multiproc(scale));

    let json = render_json(&results, quick, store_health);
    // Quick (CI smoke) runs record to a sibling file so they never clobber
    // the committed full-run trajectory baseline.
    let out_path = if quick {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_sim_throughput.quick.json"
        )
    } else {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_sim_throughput.json"
        )
    };
    std::fs::write(out_path, &json).expect("write throughput record");
    println!();
    println!("wrote {out_path}");
}

/// Renders the result list as JSON by hand (the workspace builds offline and
/// carries no serde dependency).
fn render_json(results: &[EngineResult], quick: bool, health: Option<StoreHealth>) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"rescache-sim-throughput/10\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    // The streamed dynamic stage's shared-tier recovery counters. All-zero
    // with `"degraded": false` on a healthy machine; anything else flags a
    // run whose numbers were taken while the store was fighting its disk.
    if let Some(h) = health {
        out.push_str(&format!(
            "  \"store_health\": {{\"hits\": {}, \"misses\": {}, \"coalesced\": {}, \"evictions\": {}, \"regenerations\": {}, \"retries\": {}, \"quarantines\": {}, \"lock_steals\": {}, \"warnings\": {}, \"degraded\": {}}},\n",
            h.hits, h.misses, h.coalesced, h.evictions, h.regenerations, h.retries, h.quarantines, h.lock_steals, h.warnings, h.degraded
        ));
    }
    out.push_str(&format!(
        "  \"host_threads\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str(&format!(
        "  \"effective_threads\": {},\n",
        effective_workers()
    ));
    out.push_str("  \"engines\": [\n");
    for (i, r) in results.iter().enumerate() {
        let mut trace_format = match r.trace_format {
            Some(format) => format!(", \"trace_format\": \"{format}\""),
            None => String::new(),
        };
        if let (Some(bytes), Some(ratio)) = (r.store_bytes, r.compression_ratio) {
            trace_format.push_str(&format!(
                ", \"store_bytes\": {bytes}, \"compression_ratio\": {ratio:.3}"
            ));
        }
        if let Some(requests) = r.requests {
            trace_format.push_str(&format!(", \"requests\": {requests}"));
        }
        if let Some(rate) = r.hit_rate {
            trace_format.push_str(&format!(", \"result_cache_hit_rate\": {rate:.4}"));
        }
        if let Some(lat) = r.latency {
            trace_format.push_str(&format!(
                ", \"latency\": {{\"delayed_hits\": {}, \"delayed_hit_cycles\": {}, \"mean_delayed_hit_cycles\": {:.4}, \"d_primary_misses\": {}, \"d_miss_cycles\": {}, \"mean_miss_cycles\": {:.4}}}",
                lat.delayed_hits,
                lat.delayed_hit_cycles,
                lat.mean_delayed_hit_cycles(),
                lat.d_primary_misses,
                lat.d_miss_cycles,
                lat.mean_miss_cycles()
            ));
        }
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"status\": \"{}\", \"items\": {}, \"seconds\": {:.6}, \"mips\": {:.3}, \"workload\": \"{}\"{trace_format}}}{}\n",
            r.name,
            if r.skipped { "skipped" } else { "measured" },
            r.items,
            r.seconds,
            r.mips,
            if r.nominal_workload { "nominal" } else { "measured" },
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
