//! The traced run's layer probe: the workload's own inputs pushed through
//! each layer's public entry points one layer at a time, so that layers the
//! workload only reaches inside another process (the server) or inside one
//! opaque call (`static_best`) still get a self time of their own.
//!
//! The probe runs sequentially on the calling thread under a `bench.probe`
//! root span. Its results are checked where a second path computes the same
//! thing: the decoded store entry must equal the generated trace.

use std::hint::black_box;
use std::path::Path;

use rescache_cache::{HierarchySnapshot, MemoryHierarchy};
use rescache_core::experiment::RunnerConfig;
use rescache_core::json::Json;
use rescache_core::{ConfigSpace, Organization, ResizableCacheSide, SystemConfig};
use rescache_cpu::{SimResult, Simulator};
use rescache_energy::{EnergyModel, ResizingTagOverhead};
use rescache_trace::{codec, AppProfile, Op, Trace, TraceGenerator, TraceSource};

use crate::report::Outcome;
use crate::spans::Recorder;

/// Bytes per record in the raw (uncompressed) trace encoding.
const RAW_RECORD_BYTES: f64 = 12.0;

/// What the probe should push through the layers.
pub struct ProbeInput<'a> {
    /// (application, system) pairs the probe simulates, at full size and at
    /// the smallest selective-sets d-cache; each distinct application's
    /// trace is generated, stored and decoded once.
    pub pairs: Vec<(AppProfile, SystemConfig)>,
    /// Region lengths and trace seed of the workload.
    pub config: RunnerConfig,
    /// Energy pricings the workload performed; the probe performs as many.
    pub price_calls: u64,
    /// Response lines the workload produced, for the JSON layer.
    pub lines: &'a [String],
    /// Scratch directory for the probe's store entries.
    pub dir: &'a Path,
}

/// Work counts of the probe (times live in the spans).
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeCounts {
    pub generated: u64,
    pub decoded: u64,
    pub store_bytes: u64,
    pub simulated: u64,
    pub measured_instructions: u64,
    pub measured_cycles: u64,
    pub l1d_accesses: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub delayed_hits: u64,
    pub delayed_hit_cycles: u64,
    pub cache_accesses: u64,
    pub price_calls: u64,
    pub json_lines: u64,
}

/// Runs the probe, recording spans on `rec` and failures on `outcome`.
pub fn probe(input: &ProbeInput, rec: &Recorder, outcome: &mut Outcome) -> ProbeCounts {
    let _root = rec.span("bench.probe", 0);
    let mut counts = ProbeCounts::default();
    let cfg = input.config;
    let total = cfg.warmup_instructions + cfg.measure_instructions;
    std::fs::create_dir_all(input.dir).expect("create the probe's scratch directory");

    let mut traces: Vec<(&'static str, Trace)> = Vec::new();
    for (app, _) in &input.pairs {
        if traces.iter().any(|(name, _)| *name == app.name) {
            continue;
        }
        let trace = rec.time("trace.generate", 0, || {
            TraceGenerator::new(app.clone(), cfg.trace_seed)
                .with_format(cfg.trace_format)
                .generate(total)
        });
        counts.generated += trace.len() as u64;
        let path = input.dir.join(format!("{}.rctrace", app.name));
        rec.time("trace.write", 0, || codec::save_trace(&path, &trace))
            .expect("write the probe's store entry");
        counts.store_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        let matches = rec.time("trace.decode", 0, || {
            let mut source =
                codec::TraceFileSource::open(&path, None).expect("open the probe's store entry");
            let mut at = 0usize;
            let mut same = true;
            loop {
                let chunk = source.next_chunk();
                if chunk.is_empty() {
                    break;
                }
                same &= trace.records().get(at..at + chunk.len()) == Some(chunk);
                at += chunk.len();
            }
            same && at == trace.len() && source.fault().is_none()
        });
        counts.decoded += trace.len() as u64;
        if !matches {
            outcome.fail(format!(
                "store entry of {} did not decode to the generated trace",
                app.name
            ));
        }
        traces.push((app.name, trace));
    }

    let mut sims: Vec<(SimResult, HierarchySnapshot, SystemConfig)> = Vec::new();
    for (app, system) in &input.pairs {
        let full = &traces
            .iter()
            .find(|(name, _)| *name == app.name)
            .expect("generated above")
            .1;
        let (warm, measure) = full.split_at(cfg.warmup_instructions);
        // The smallest d-cache misses most, so merges into in-flight fills
        // (delayed hits) show up at all.
        let smallest = ConfigSpace::enumerate(system.hierarchy.l1d, Organization::SelectiveSets)
            .ok()
            .and_then(|space| {
                space
                    .points()
                    .iter()
                    .copied()
                    .min_by_key(|p| p.sets * u64::from(p.ways))
            });
        for point in [None, smallest] {
            let (result, snapshot) = rec.time("cpu.run", 0, || {
                let mut hierarchy =
                    MemoryHierarchy::new(system.hierarchy).expect("base hierarchies are valid");
                if let Some(point) = point {
                    let effect = point.apply(hierarchy.l1d_mut());
                    hierarchy.note_resize_flush_writebacks(effect.dirty_writebacks);
                }
                let sim = Simulator::new(system.cpu);
                sim.run(&warm, &mut hierarchy);
                hierarchy.reset_stats();
                let result = sim.run(&measure, &mut hierarchy);
                (result, hierarchy.snapshot())
            });
            counts.simulated += (warm.len() + measure.len()) as u64;
            counts.measured_instructions += result.instructions;
            counts.measured_cycles += result.cycles;
            counts.l1d_accesses += snapshot.l1d.accesses;
            counts.l1d_misses += snapshot.l1d.misses();
            counts.l2_misses += snapshot.l2.misses();
            counts.delayed_hits += snapshot.stats.delayed_hits;
            counts.delayed_hit_cycles += snapshot.stats.delayed_hit_cycles;
            sims.push((result, snapshot, *system));
        }
        counts.cache_accesses += rec.time("cache.replay", 0, || replay(full, system));
    }

    rec.time("energy.price", 0, || {
        let mut total_pj = 0.0;
        for i in 0..input.price_calls {
            let (result, snapshot, system) = &sims[i as usize % sims.len()];
            // Alternate between the plain and the selective-sets pricing,
            // as a sweep's arms do.
            let l1d_bits = if i % 2 == 0 {
                0
            } else {
                ResizableCacheSide::Data
                    .config_of(&system.hierarchy)
                    .resizing_tag_bits()
            };
            let model = EnergyModel::with_overhead(
                &system.hierarchy,
                ResizingTagOverhead {
                    l1i_bits: 0,
                    l1d_bits,
                },
            );
            total_pj += model.breakdown_snapshot(result, snapshot).total_pj();
        }
        black_box(total_pj)
    });
    counts.price_calls = input.price_calls;

    let parsed: Vec<Json> = rec.time("json.parse", 0, || {
        input
            .lines
            .iter()
            .map(|line| Json::parse(line).expect("response lines are valid JSON"))
            .collect()
    });
    rec.time("json.render", 0, || {
        black_box(parsed.iter().map(|v| v.render().len()).sum::<usize>())
    });
    counts.json_lines = input.lines.len() as u64;
    std::fs::remove_dir_all(input.dir).ok();
    counts
}

/// Replays a trace's memory stream — instruction fetches at each new block,
/// then every load and store — through a fresh hierarchy, with no engine
/// around it. Returns the number of accesses made.
fn replay(trace: &Trace, system: &SystemConfig) -> u64 {
    let mut hierarchy = MemoryHierarchy::new(system.hierarchy).expect("base hierarchies are valid");
    let block = system.hierarchy.l1i.block_bytes;
    let mut last_block = u64::MAX;
    let mut accesses = 0u64;
    for (cycle, record) in trace.records().iter().enumerate() {
        let cycle = cycle as u64;
        let pc_block = record.pc() / block;
        if pc_block != last_block {
            last_block = pc_block;
            black_box(hierarchy.access_instruction(record.pc(), cycle));
            accesses += 1;
        }
        match record.op() {
            Op::Load(addr) => {
                black_box(hierarchy.access_data(addr, false, cycle));
                accesses += 1;
            }
            Op::Store(addr) => {
                black_box(hierarchy.access_data(addr, true, cycle));
                accesses += 1;
            }
            _ => {}
        }
    }
    accesses
}

/// Sets the probe-derived per-layer metrics from its counts and the
/// ledger's self times (seconds per span name).
pub fn set_metrics(counts: &ProbeCounts, op: impl Fn(&str) -> f64, outcome: &mut Outcome) {
    let per_s = |n: u64, s: f64| if s > 0.0 { n as f64 / s / 1e6 } else { 0.0 };
    let gen_s = op("trace.generate");
    let decode_s = op("trace.decode");
    let cpu_s = op("cpu.run");
    let replay_s = op("cache.replay");
    outcome.set("trace.gen_s", gen_s);
    outcome.set("trace.gen_mips", per_s(counts.generated, gen_s));
    outcome.set("trace.write_s", op("trace.write"));
    outcome.set("trace.decode_s", decode_s);
    outcome.set("trace.decode_mips", per_s(counts.decoded, decode_s));
    outcome.set("trace.store_bytes", counts.store_bytes as f64);
    outcome.set(
        "trace.compression_ratio",
        RAW_RECORD_BYTES * counts.generated as f64 / counts.store_bytes.max(1) as f64,
    );
    outcome.set("cpu.run_s", cpu_s);
    outcome.set("cpu.mips", per_s(counts.simulated, cpu_s));
    outcome.set("cpu.instructions", counts.measured_instructions as f64);
    outcome.set("cpu.cycles", counts.measured_cycles as f64);
    outcome.set(
        "cpu.ipc",
        counts.measured_instructions as f64 / counts.measured_cycles.max(1) as f64,
    );
    outcome.set("cache.replay_s", replay_s);
    outcome.set(
        "cache.maccess_per_s",
        per_s(counts.cache_accesses, replay_s),
    );
    outcome.set("cache.l1d_accesses", counts.l1d_accesses as f64);
    outcome.set(
        "cache.l1d_miss_ratio",
        counts.l1d_misses as f64 / counts.l1d_accesses.max(1) as f64,
    );
    outcome.set("cache.l2_misses", counts.l2_misses as f64);
    outcome.set("cache.delayed_hits", counts.delayed_hits as f64);
    outcome.set("cache.delayed_hit_cycles", counts.delayed_hit_cycles as f64);
    outcome.set("energy.price_s", op("energy.price"));
    outcome.set("energy.price_calls", counts.price_calls as f64);
    let lines = counts.json_lines.max(1) as f64;
    outcome.set("json.parse_us", op("json.parse") * 1e6 / lines);
    outcome.set("json.render_us", op("json.render") * 1e6 / lines);
}
