//! Throughput harness for the simulation substrate itself: measures simulated
//! instructions (or cache accesses) per wall-clock second for the stages every
//! experiment runs through — trace generation and store replay, the cache
//! access path, the two execution engines, the dynamic controller and one
//! engine run per registry workload — and records the numbers in `BENCH_sim_throughput.json` at the workspace root so successive
//! performance PRs have a tracked trajectory.
//!
//! Unlike the figure benches (which reproduce the paper's *results*), this
//! bench measures the *simulator*: its unit is MIPS, millions of simulated
//! instructions per second of wall-clock time. End-to-end sweeps (a paper
//! figure in-process, a sweep service under load) are measured by
//! `perfbench/`, not here.
//!
//! Run with `cargo bench --bench sim_throughput`. Every stage reports the
//! median, minimum and maximum of [`SAMPLES`] timed repetitions. The
//! store-backed stages (`trace_store_load`, `dyn_run`) work in a
//! `rescache-bench-<stage>-<pid>` directory under the system temp directory
//! and remove it afterwards.

use std::path::PathBuf;
use std::time::Instant;

use rescache_bench::{knobs, Spread};
use rescache_cache::{Cache, CacheConfig, HierarchyConfig, MemoryHierarchy};
use rescache_core::experiment::{RunSetup, Runner, RunnerConfig, SharedTier, StoreHealth};
use rescache_core::{ConfigSpace, DynamicParams, Organization, ResizableCacheSide, SystemConfig};
use rescache_cpu::{CpuConfig, Simulator};
use rescache_trace::{codec, spec, TraceGenerator, WorkloadRegistry};

/// Timed repetitions per stage (after one untimed warm-up).
const SAMPLES: usize = 21;

/// One measured stage of the simulation pipeline.
struct EngineResult {
    name: &'static str,
    /// Work items per repetition (instructions, or cache accesses for the
    /// pure cache stages).
    items: u64,
    /// Wall-clock seconds per repetition over the timed samples.
    seconds: Spread,
    /// Millions of items per second at the median repetition.
    mips: f64,
    /// On-disk size of the store entry the stage replays, and the ratio of
    /// the packed 12-byte in-memory record to that size; `Some` only for
    /// `trace_store_load`, the stage whose whole point is the disk format.
    store_bytes: Option<u64>,
    compression_ratio: Option<f64>,
}

/// A per-stage scratch store directory under the system temp directory,
/// namespaced by stage and pid so concurrent runs cannot collide; callers
/// remove it when done.
fn scratch_dir(stage: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rescache-bench-{stage}-{}", std::process::id()))
}

/// Runs `body` [`SAMPLES`] times (after one untimed warm-up) and summarizes
/// the repetitions' wall-clock times; `items` is the simulated work per
/// repetition.
fn measure(name: &'static str, items: u64, mut body: impl FnMut() -> u64) -> EngineResult {
    std::hint::black_box(body());
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(body());
            start.elapsed().as_secs_f64()
        })
        .collect();
    let seconds = Spread::of(&samples);
    let mips = items as f64 / seconds.median / 1.0e6;
    println!(
        "{name:<24} {items:>10} items   {:>9.4} s [{:.4}, {:.4}]   {mips:>9.2} MIPS",
        seconds.median, seconds.min, seconds.max
    );
    EngineResult {
        name,
        items,
        seconds,
        mips,
        store_bytes: None,
        compression_ratio: None,
    }
}

fn bench_trace_gen() -> EngineResult {
    let n = 250_000;
    measure("trace_gen", n as u64, || {
        TraceGenerator::new(spec::gcc(), 7).generate(n).len() as u64
    })
}

/// Decoding a persisted trace from the on-disk store (the cross-process
/// reuse path `RESCACHE_TRACE_DIR` enables): the stage times
/// `codec::load`, the whole-entry load the store runs.
fn bench_trace_store_load() -> EngineResult {
    let n = 250_000;
    let dir = scratch_dir("store-load");
    std::fs::create_dir_all(&dir).expect("create bench store dir");
    let path = dir.join("gcc.rctrace");
    codec::save_trace(&path, &TraceGenerator::new(spec::gcc(), 7).generate(n))
        .expect("persist bench trace");
    let store_bytes = std::fs::metadata(&path).expect("stat bench trace").len();
    let mut result = measure("trace_store_load", n as u64, || {
        codec::load(&path).expect("load bench trace").len() as u64
    });
    result.store_bytes = Some(store_bytes);
    // Ratio of the packed in-memory record (12 bytes) to what the entry
    // actually occupies on disk.
    result.compression_ratio = Some(12.0 * n as f64 / store_bytes as f64);
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn bench_hit_stream() -> EngineResult {
    let n = 1_000_000;
    let mut cache = Cache::new(CacheConfig::l1_default(32 * 1024, 2)).unwrap();
    cache.fill(0x1000, false);
    measure("hit_stream", n, move || {
        let mut hits = 0u64;
        for i in 0..n {
            if cache.access_read(0x1000 + (i % 4) * 8).hit {
                hits += 1;
            }
        }
        hits
    })
}

fn bench_evict_stream() -> EngineResult {
    // Aliasing addresses so every fill evicts: this is the allocation-prone
    // miss path (choose_victim) of the pre-optimization kernel.
    let n = 500_000;
    let mut cache = Cache::new(CacheConfig::l1_default(32 * 1024, 4)).unwrap();
    let way_span = 8 * 1024u64;
    measure("evict_stream", n, move || {
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

fn bench_engine(name: &'static str, config: CpuConfig) -> EngineResult {
    let n = 100_000;
    let trace = TraceGenerator::new(spec::m88ksim(), 3).generate(n);
    measure(name, n as u64, move || {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        Simulator::new(config).run(&trace, &mut h).instructions
    })
}

/// The cold-start ("trace-limited") stage every sweep pays once per
/// application: generate a fresh trace, then simulate it for the first time.
fn bench_gen_plus_first_sim() -> EngineResult {
    let n = 100_000;
    let config = CpuConfig::base_out_of_order();
    measure("gen_first_sim", n as u64, move || {
        let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let trace = TraceGenerator::new(spec::m88ksim(), 3).generate(n);
        Simulator::new(config).run(&trace, &mut h).instructions
    })
}

/// One out-of-order engine run per registry workload, each repetition
/// generating the workload's trace and then running it: tracks how the
/// engine responds to each scenario's stress pattern.
fn bench_workloads() -> Vec<EngineResult> {
    let n = 100_000;
    WorkloadRegistry::builtin()
        .specs()
        .iter()
        .map(|spec| {
            let profile = spec.profile();
            let config = CpuConfig::base_out_of_order();
            // Registry names are 'static, but `measure` labels want a
            // stable prefixed name; leak once per stage (bounded by the
            // registry size).
            let label: &'static str = Box::leak(format!("wl_{}", spec.name).into_boxed_str());
            measure(label, n as u64, move || {
                let mut h = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
                let trace = TraceGenerator::new(profile.clone(), 3).generate(n);
                Simulator::new(config).run(&trace, &mut h).instructions
            })
        })
        .collect()
}

/// One dynamic-controller run (warm-up + measured region with the miss-ratio
/// resizing hook attached) through `Runner::run_dynamic` with an empty
/// observer, on a runner whose store persists to a scratch directory: the
/// path every dynamic experiment takes. The untimed first call generates and
/// persists the entry; the timed repetitions replay the resident trace.
fn bench_dynamic(name: &'static str, health_out: &mut Option<StoreHealth>) -> EngineResult {
    let warm_len = 20_000;
    let measure_len = 80_000;
    let cfg = RunnerConfig {
        warmup_instructions: warm_len,
        measure_instructions: measure_len,
        trace_seed: 42,
        dynamic_interval: 1_024,
        ..RunnerConfig::paper()
    };
    let dir = scratch_dir(name);
    std::fs::remove_dir_all(&dir).ok();
    let tier = SharedTier::with_dir(Some(dir.clone()));
    let runner = Runner::with_store(cfg, tier.clone());
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
    let result = measure(name, (warm_len + measure_len) as u64, move || {
        let m = runner.run_dynamic(&app, &system, &setup, |_| {});
        m.l1d_resizes + m.cycles
    });
    // The stage's tier health goes into the JSON record: a bench run that
    // quietly retried, regenerated or degraded is not measuring what it
    // claims to measure.
    *health_out = Some(tier.health());
    std::fs::remove_dir_all(&dir).ok();
    result
}

// `results` is deliberately built push by push, not as a `vec![...]`
// literal — see the comment at its declaration.
#[allow(clippy::vec_init_then_push)]
fn main() {
    // A malformed runtime knob stops the bench here, before any work.
    knobs();

    println!("=== sim_throughput: simulator wall-clock throughput ===");
    println!("(median [min, max] seconds over {SAMPLES} timed repetitions per stage)");
    println!();

    // Captured by the store-backed dynamic stage: its shared tier's
    // health counters.
    let mut store_health = None;
    // Stages are pushed one at a time rather than built as one `vec![...]`
    // literal: materializing a dozen stage results as macro temporaries
    // perturbed the store-load stage's measured time by ~1.5x run over run.
    let mut results = Vec::new();
    results.push(bench_trace_gen());
    results.push(bench_trace_store_load());
    results.push(bench_hit_stream());
    results.push(bench_evict_stream());
    results.push(bench_engine("in_order", CpuConfig::base_in_order()));
    results.push(bench_engine("out_of_order", CpuConfig::base_out_of_order()));
    results.push(bench_gen_plus_first_sim());
    results.push(bench_dynamic("dyn_run", &mut store_health));
    results.extend(bench_workloads());

    let json = render_json(&results, store_health);
    let out_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_sim_throughput.json"
    );
    std::fs::write(out_path, &json).expect("write throughput record");
    println!();
    println!("wrote {out_path}");
}

/// Renders the result list as JSON by hand (the workspace builds offline and
/// carries no serde dependency).
fn render_json(results: &[EngineResult], health: Option<StoreHealth>) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"rescache-sim-throughput/15\",\n");
    // The dynamic stage's shared-tier health counters. `regenerations` and
    // `warnings` read 0 with `"degraded": false` on a healthy machine;
    // anything else flags a run whose numbers were taken while the store
    // was fighting its disk.
    if let Some(h) = health {
        out.push_str(&format!(
            "  \"store_health\": {{\"hits\": {}, \"misses\": {}, \"coalesced\": {}, \"evictions\": {}, \"regenerations\": {}, \"warnings\": {}, \"degraded\": {}}},\n",
            h.hits, h.misses, h.coalesced, h.evictions, h.regenerations, h.warnings, h.degraded
        ));
    }
    out.push_str(&format!(
        "  \"host_threads\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str(&format!("  \"samples\": {SAMPLES},\n"));
    out.push_str("  \"engines\": [\n");
    for (i, r) in results.iter().enumerate() {
        let mut extra = String::new();
        if let (Some(bytes), Some(ratio)) = (r.store_bytes, r.compression_ratio) {
            extra.push_str(&format!(
                ", \"store_bytes\": {bytes}, \"compression_ratio\": {ratio:.3}"
            ));
        }
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"items\": {}, \"median_s\": {:.6}, \"min_s\": {:.6}, \"max_s\": {:.6}, \"mips\": {:.3}{extra}}}{}\n",
            r.name,
            r.items,
            r.seconds.median,
            r.seconds.min,
            r.seconds.max,
            r.mips,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
