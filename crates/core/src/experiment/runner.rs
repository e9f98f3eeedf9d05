//! The shared experiment runner: simulates one application under one cache
//! setup and reports energy, delay and cache-size statistics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rescache_cache::{HierarchySnapshot, MemoryHierarchy};
use rescache_cpu::{LatencyStats, NoopHook, SimHook, SimResult, Simulator};
use rescache_energy::{EnergyBreakdown, EnergyDelay, EnergyModel, Objective, ResizingTagOverhead};
use rescache_trace::{AppProfile, Trace, TraceFormat};

use crate::error::CoreError;
use crate::experiment::parallel::{effective_workers, parallel_map, parallel_map_on};
use crate::experiment::shared_tier::SharedTier;
use crate::experiment::trace_store::TraceKey;
use crate::org::{CachePoint, ConfigSpace, Organization};
use crate::strategy::{DynamicController, DynamicParams, ResizeDecision};
use crate::system::{ResizableCacheSide, SystemConfig};

/// Simulation lengths and seeds used by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Instructions executed to warm the caches before measurement begins.
    pub warmup_instructions: usize,
    /// Instructions executed in the measured region.
    pub measure_instructions: usize,
    /// Seed for trace generation (the same seed is reused for every cache
    /// configuration so all configurations see an identical trace).
    pub trace_seed: u64,
    /// Interval length (in cache accesses) of the dynamic resizing
    /// controller.
    pub dynamic_interval: u64,
    /// Trace-format version the generated bit streams and store entries
    /// use. v4 is the only format, so this field has one value; it stays
    /// because the standalone benchmark (`perfbench/src/layers.rs`) reads
    /// it.
    pub trace_format: TraceFormat,
}

impl RunnerConfig {
    /// The evaluation-quality configuration used by the benches.
    pub fn paper() -> Self {
        Self {
            warmup_instructions: 200_000,
            measure_instructions: 2_400_000,
            trace_seed: 42,
            dynamic_interval: 8_192,
            trace_format: TraceFormat::default(),
        }
    }

    /// A reduced configuration for unit and integration tests.
    pub fn fast() -> Self {
        Self {
            warmup_instructions: 10_000,
            measure_instructions: 30_000,
            trace_seed: 42,
            dynamic_interval: 256,
            trace_format: TraceFormat::default(),
        }
    }
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Everything measured from one simulation of the measured region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Execution time in cycles.
    pub cycles: u64,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// Total processor energy in picojoules.
    pub energy_pj: f64,
    /// Per-structure energy breakdown.
    pub breakdown: EnergyBreakdown,
    /// Access-weighted mean enabled d-cache capacity in bytes.
    pub l1d_mean_bytes: f64,
    /// Access-weighted mean enabled i-cache capacity in bytes.
    pub l1i_mean_bytes: f64,
    /// Measured d-cache miss ratio.
    pub l1d_miss_ratio: f64,
    /// Measured i-cache miss ratio.
    pub l1i_miss_ratio: f64,
    /// d-cache resize operations during the measured region.
    pub l1d_resizes: u64,
    /// i-cache resize operations during the measured region.
    pub l1i_resizes: u64,
    /// Latency-domain breakdown of the measured region's data accesses
    /// (delayed hits, primary misses and their cycle costs).
    pub latency: LatencyStats,
}

impl Measurement {
    /// The energy-delay point of this measurement.
    pub fn energy_delay(&self) -> EnergyDelay {
        EnergyDelay::new(self.energy_pj, self.cycles)
    }

    /// This measurement's score under `objective` (smaller is better); the
    /// searches rank by [`EnergyDelay::product`] directly.
    pub fn score(&self, objective: Objective) -> f64 {
        objective.score(&self.energy_delay())
    }

    /// Resize operations of `side`'s cache during the measured region.
    pub fn resizes(&self, side: ResizableCacheSide) -> u64 {
        match side {
            ResizableCacheSide::Data => self.l1d_resizes,
            ResizableCacheSide::Instruction => self.l1i_resizes,
        }
    }
}

/// The cache setup of a dynamic run: tag-bit overheads and an optional
/// dynamic controller on one side. Static points are not part of a setup:
/// they go through [`Runner::run_static`].
#[derive(Debug, Clone, Default)]
pub struct RunSetup {
    /// Extra tag bits charged on every d-cache access (selective-sets/hybrid).
    pub d_tag_bits: u32,
    /// Extra tag bits charged on every i-cache access (selective-sets/hybrid).
    pub i_tag_bits: u32,
    /// Dynamic controller: which side it drives, over which configuration
    /// space, with which parameters.
    pub dynamic: Option<(ResizableCacheSide, ConfigSpace, DynamicParams)>,
}

impl RunSetup {
    /// A dynamic controller on `side` over `space`, charged the space's
    /// resizing tag bits on that side's accesses.
    pub(crate) fn dynamic(
        side: ResizableCacheSide,
        space: ConfigSpace,
        params: DynamicParams,
    ) -> Self {
        let tag_bits = space.organization().tag_bits(space.config());
        let mut setup = Self::default();
        match side {
            ResizableCacheSide::Data => setup.d_tag_bits = tag_bits,
            ResizableCacheSide::Instruction => setup.i_tag_bits = tag_bits,
        }
        setup.dynamic = Some((side, space, params));
        setup
    }
}

/// The first of the `(key, measurement)` pairs with the lowest energy-delay
/// product (`None` when `evaluated` is empty).
fn best_under<T: Copy>(evaluated: &[(T, Measurement)]) -> Option<(T, Measurement)> {
    let edp = |m: &Measurement| m.energy_delay().product();
    evaluated
        .iter()
        .min_by(|a, b| edp(&a.1).total_cmp(&edp(&b.1)))
        .copied()
}

/// Summary of the best candidate found for one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestSummary<K> {
    /// The chosen candidate: a static point, or dynamic controller
    /// parameters.
    pub choice: K,
    /// The measurement of the chosen configuration.
    pub measurement: Measurement,
    /// Reduction of the processor energy-delay product versus the
    /// non-resizable base, in percent.
    pub edp_reduction_percent: f64,
    /// Reduction of the processor energy versus the base, in percent.
    pub energy_reduction_percent: f64,
    /// Reduction of the resized cache's mean size versus full size, in
    /// percent.
    pub size_reduction_percent: f64,
    /// Execution-time increase versus the base, in percent.
    pub slowdown_percent: f64,
}

/// Outcome of one profiled search for one application: every evaluated
/// candidate and the minimum-EDP choice. The static and dynamic strategies
/// are the same search over different candidates ([`StaticOutcome`],
/// [`DynamicOutcome`]).
#[derive(Debug, Clone)]
pub struct SearchOutcome<K> {
    /// Application name.
    pub app: String,
    /// The non-resizable baseline.
    pub base: Measurement,
    /// Every candidate and its measurement, in search order (static
    /// points largest first).
    pub evaluated: Vec<(K, Measurement)>,
    /// The minimum-EDP choice: the first evaluated candidate with the
    /// lowest energy-delay product.
    pub best: BestSummary<K>,
}

/// Outcome of a static-resizing search: one candidate per offered point.
pub type StaticOutcome = SearchOutcome<CachePoint>;

/// Outcome of a dynamic-resizing parameter sweep: one candidate per
/// controller parameter set.
pub type DynamicOutcome = SearchOutcome<DynamicParams>;

impl<K: Copy> SearchOutcome<K> {
    /// Chooses the first minimum-EDP entry of `evaluated` and summarises it
    /// against `base` on `side`'s cache of `system`.
    fn new(
        app: &AppProfile,
        base: Measurement,
        evaluated: Vec<(K, Measurement)>,
        side: ResizableCacheSide,
        system: &SystemConfig,
    ) -> Self {
        let (choice, measurement) =
            best_under(&evaluated).expect("a search evaluates at least one candidate");
        let base_ed = base.energy_delay();
        let ed = measurement.energy_delay();
        let full_bytes = side.config_of(&system.hierarchy).size_bytes as f64;
        let mean_bytes = match side {
            ResizableCacheSide::Data => measurement.l1d_mean_bytes,
            ResizableCacheSide::Instruction => measurement.l1i_mean_bytes,
        };
        let best = BestSummary {
            choice,
            measurement,
            edp_reduction_percent: ed.reduction_vs(&base_ed),
            energy_reduction_percent: ed.energy_reduction_vs(&base_ed),
            size_reduction_percent: (1.0 - mean_bytes / full_bytes) * 100.0,
            slowdown_percent: ed.slowdown_vs(&base_ed),
        };
        Self {
            app: app.name.to_string(),
            base,
            evaluated,
            best,
        }
    }
}

/// Normalized enabled geometry of one L1 in a static run: (sets, ways).
/// "No static point" normalizes to the full geometry, so a baseline and an
/// explicitly-applied full-size point share a key.
type GeometryKey = (u64, u32);

/// Key identifying one static simulation: the trace, the system, and the
/// enabled (d-cache, i-cache) geometries. Resizing-tag-bit overheads are
/// deliberately absent — they only change the energy model, not the
/// simulation — so sweep arms that differ only in tag accounting share one
/// simulation.
pub(crate) type SimKey = (TraceKey, SystemConfig, GeometryKey, GeometryKey);

/// A finished static simulation: the engine result plus the post-run
/// statistics snapshot (a few hundred bytes; the tag arrays are dropped).
#[derive(Debug, Clone)]
pub(crate) struct StaticSim {
    pub(crate) result: SimResult,
    pub(crate) snapshot: HierarchySnapshot,
}

/// A dynamic run's hook: the controller, handing each decision to the
/// observer (a trait object, so every observer shares one engine instance).
struct Observed<'a> {
    controller: DynamicController,
    observe: &'a mut dyn FnMut(&ResizeDecision),
}

impl SimHook for Observed<'_> {
    fn post_commit(&mut self, _committed: u64, hierarchy: &mut MemoryHierarchy) {
        if let Some(decision) = self.controller.step(hierarchy) {
            (self.observe)(&decision);
        }
    }
}

/// Turns (application, system, cache setup) into measurements, handling
/// trace generation, cache warm-up and energy evaluation identically for
/// every experiment.
///
/// Each kind of run has one entry point — [`Runner::run_static`] for fixed
/// L1 geometries, [`Runner::run_dynamic`] for a dynamic controller and its
/// decision observer — and each resizing strategy has one search:
/// [`Runner::static_best`] and [`Runner::dynamic_best`], whose candidates
/// are profiled from the static search.
///
/// The runner memoizes two pure, deterministic computations, keyed by their
/// full inputs:
///
/// * **traces** — `(profile, seed, lengths)` always expands to the same
///   record stream, and every configuration of an experiment replays it, so
///   it is generated once and shared copy-free through the [`SharedTier`];
/// * **static simulations** — a static run is a pure function of
///   `(trace, system, enabled geometry)`; the baseline, the full-size point
///   every organization offers, and sweep arms that differ only in
///   resizing-tag-bit accounting all share one simulation, and only the
///   (cheap) energy pricing is re-applied per arm.
///
/// Clones of a runner share both caches — they live in its [`SharedTier`] —
/// which is what lets the parallel sweeps fan out over applications without
/// regenerating per-worker state.
#[derive(Debug, Clone)]
pub struct Runner {
    config: RunnerConfig,
    tier: SharedTier,
}

impl Runner {
    /// Creates a runner with empty trace and simulation caches over an
    /// in-memory [`SharedTier`], which keeps the traces running jobs hold
    /// plus the one used last (see [`SharedTier::resident_cap`]).
    pub fn new(config: RunnerConfig) -> Self {
        Self::with_store(config, SharedTier::default())
    }

    /// Creates a runner over an explicit shared tier: a raised resident
    /// cap, or a persistence directory ([`SharedTier::with_dir`]). The
    /// tier carries the simulation memo as well as the traces, so two
    /// runners over one tier share simulations too.
    pub fn with_store(config: RunnerConfig, tier: SharedTier) -> Self {
        Self { config, tier }
    }

    /// The runner configuration.
    pub fn config(&self) -> &RunnerConfig {
        &self.config
    }

    /// The shared tier backing this runner.
    pub fn trace_store(&self) -> &SharedTier {
        &self.tier
    }

    /// Returns the warm-up and measurement traces for an application.
    ///
    /// The underlying full trace is generated (or loaded from the store's
    /// persistence directory) at most once per `(application, seed, lengths)`
    /// and split copy-free; concurrent callers for the same application
    /// block on the one generation instead of duplicating it, while
    /// different applications generate in parallel.
    pub fn trace(&self, app: &AppProfile) -> (Trace, Trace) {
        self.tier.fetch(app, &self.config)
    }

    /// The one experiment sequence every run takes: build a hierarchy with
    /// the static points applied (flush writebacks noted, as a real pre-run
    /// resize would), then warm-up, statistics reset and measured region over
    /// `app`'s resident trace, with this runner's region lengths. `hook` —
    /// the dynamic controller with its observer, or [`NoopHook`] for a
    /// static run — sees every commit of both regions.
    ///
    /// The memoized static path and the dynamic path both come through here.
    /// `tests/common/mod.rs` rebuilds the same sequence from the crates'
    /// public parts without the runner, and `tests/trace_sharing.rs` and
    /// `tests/store_equivalence.rs` require both paths to match it bit for
    /// bit.
    fn simulate<H: SimHook + ?Sized>(
        &self,
        app: &AppProfile,
        system: &SystemConfig,
        d_static: Option<CachePoint>,
        i_static: Option<CachePoint>,
        hook: &mut H,
    ) -> StaticSim {
        let mut hierarchy = MemoryHierarchy::new(system.hierarchy)
            .expect("base hierarchy configurations are valid");
        if let Some(point) = d_static {
            let effect = point.apply(hierarchy.l1d_mut());
            hierarchy.note_resize_flush_writebacks(effect.dirty_writebacks);
        }
        if let Some(point) = i_static {
            let effect = point.apply(hierarchy.l1i_mut());
            hierarchy.note_resize_flush_writebacks(effect.dirty_writebacks);
        }
        let result = Simulator::new(system.cpu).run_warm_measure(
            self.tier.fetch_full(app, &self.config).records(),
            self.config.warmup_instructions,
            self.config.measure_instructions,
            &mut hierarchy,
            hook,
        );
        StaticSim {
            snapshot: hierarchy.snapshot(),
            result,
        }
    }

    /// Prices a finished simulation with the given resizing-tag-bit
    /// overheads and assembles the [`Measurement`] the experiments consume.
    fn price(
        sim: &StaticSim,
        system: &SystemConfig,
        d_tag_bits: u32,
        i_tag_bits: u32,
    ) -> Measurement {
        let model = EnergyModel::with_overhead(
            &system.hierarchy,
            ResizingTagOverhead {
                l1i_bits: i_tag_bits,
                l1d_bits: d_tag_bits,
            },
        );
        let (result, snapshot) = (&sim.result, &sim.snapshot);
        let breakdown = model.breakdown_snapshot(result, snapshot);
        let block_d = system.hierarchy.l1d.block_bytes;
        let block_i = system.hierarchy.l1i.block_bytes;
        Measurement {
            cycles: result.cycles,
            ipc: result.ipc(),
            energy_pj: breakdown.total_pj(),
            breakdown,
            l1d_mean_bytes: snapshot.l1d.mean_enabled_bytes(block_d),
            l1i_mean_bytes: snapshot.l1i.mean_enabled_bytes(block_i),
            l1d_miss_ratio: snapshot.l1d.miss_ratio(),
            l1i_miss_ratio: snapshot.l1i.miss_ratio(),
            l1d_resizes: snapshot.l1d.resizes,
            l1i_resizes: snapshot.l1i.resizes,
            latency: result.latency,
        }
    }

    /// Runs (or reuses) the static simulation of `app` on `system` with the
    /// given L1 points applied, and prices it with the given resizing-tag-bit
    /// overheads.
    ///
    /// Static runs are pure functions of `(trace, system, geometry)`, so the
    /// simulation is memoized: the baseline (`None`/`None`), the full-size
    /// point every organization's space offers, and arms differing only in
    /// tag-bit accounting all resolve to one simulation. Concurrent callers
    /// for the same geometry block on the one simulation; different
    /// geometries simulate in parallel.
    pub fn run_static(
        &self,
        app: &AppProfile,
        system: &SystemConfig,
        d_static: Option<CachePoint>,
        i_static: Option<CachePoint>,
        d_tag_bits: u32,
        i_tag_bits: u32,
    ) -> Measurement {
        let normalize = |cfg: rescache_cache::CacheConfig, point: Option<CachePoint>| match point {
            Some(p) => (p.sets, p.ways),
            None => (cfg.num_sets(), cfg.associativity),
        };
        let key: SimKey = (
            self.trace_key(app),
            *system,
            normalize(system.hierarchy.l1d, d_static),
            normalize(system.hierarchy.l1i, i_static),
        );
        let tier = &self.tier;
        let sim = tier.sims.get_or_init(key, tier.counters(), || {
            tier.counters().note_miss();
            Arc::new(self.simulate(app, system, d_static, i_static, &mut NoopHook))
        });
        Self::price(&sim, system, d_tag_bits, i_tag_bits)
    }

    /// Runs (or reuses) the static simulation of `point` on `side` alone,
    /// priced with `organization`'s resizing-tag-bit overhead on that side;
    /// `None` is the non-resizable baseline (full size, no tag overhead).
    pub(crate) fn run_point(
        &self,
        app: &AppProfile,
        system: &SystemConfig,
        organization: Organization,
        side: ResizableCacheSide,
        point: Option<CachePoint>,
    ) -> Measurement {
        let tag_bits = point.map_or(0, |_| {
            organization.tag_bits(&side.config_of(&system.hierarchy))
        });
        match side {
            ResizableCacheSide::Data => self.run_static(app, system, point, None, tag_bits, 0),
            ResizableCacheSide::Instruction => {
                self.run_static(app, system, None, point, 0, tag_bits)
            }
        }
    }

    /// Runs one simulation of `setup` over the store's resident trace of
    /// `app`: the path every dynamic-controller experiment takes. A setup
    /// without a controller is the memoized full-size [`Runner::run_static`]
    /// priced with the setup's tag bits.
    ///
    /// `observe` sees every resize the controller performs, as a
    /// [`ResizeDecision`], on the calling thread while the simulation runs
    /// (the sweep service's `dynamic` verb writes each to its connection).
    /// The returned [`Measurement`] is bit-identical whatever it does.
    pub fn run_dynamic(
        &self,
        app: &AppProfile,
        system: &SystemConfig,
        setup: &RunSetup,
        mut observe: impl FnMut(&ResizeDecision),
    ) -> Measurement {
        let Some((side, space, params)) = setup.dynamic.clone() else {
            return self.run_static(app, system, None, None, setup.d_tag_bits, setup.i_tag_bits);
        };
        let mut hook = Observed {
            controller: DynamicController::new(side, space, params)
                .expect("dynamic parameters validated by the caller"),
            observe: &mut observe,
        };
        let sim = self.simulate(app, system, None, None, &mut hook);
        Self::price(&sim, system, setup.d_tag_bits, setup.i_tag_bits)
    }

    /// [`Runner::run_dynamic`] sending each decision into `sink` (a dropped
    /// receiver is ignored): an adapter kept only because perfbench's
    /// reference calls it and infers its channel's type from `sink`.
    pub fn run_dynamic_observed(
        &self,
        app: &AppProfile,
        system: &SystemConfig,
        setup: &RunSetup,
        sink: Option<&std::sync::mpsc::Sender<ResizeDecision>>,
    ) -> Measurement {
        self.run_dynamic(app, system, setup, |decision| {
            if let Some(sink) = sink {
                let _ = sink.send(*decision);
            }
        })
    }

    /// The trace-store key of an application under this runner's config.
    fn trace_key(&self, app: &AppProfile) -> TraceKey {
        SharedTier::key(app, &self.config)
    }

    /// Static resizing: evaluates every configuration the organization
    /// offers for `side` and keeps the one with the lowest processor
    /// energy-delay product (the paper's profiling-based static strategy).
    ///
    /// # Errors
    ///
    /// Returns an error if the organization is not applicable to the cache
    /// (e.g. selective-ways on a direct-mapped cache).
    pub fn static_best(
        &self,
        app: &AppProfile,
        system: &SystemConfig,
        organization: Organization,
        side: ResizableCacheSide,
    ) -> Result<StaticOutcome, CoreError> {
        self.static_search(
            app,
            system,
            organization,
            side,
            effective_workers(),
            |_, _| true,
        )
    }

    /// The static search behind [`Runner::static_best`] and the sweep
    /// service: runs the full-size base, then every offered point over
    /// `workers` threads (one runs inline; each point replays the shared
    /// trace on its own hierarchy). The worker that finishes a point calls
    /// `observe(point, &measurement)`; once it returns false no further
    /// point starts, while points already running finish and are kept.
    /// `evaluated` stays in space order, so ties resolve as in a full search.
    pub(crate) fn static_search(
        &self,
        app: &AppProfile,
        system: &SystemConfig,
        organization: Organization,
        side: ResizableCacheSide,
        workers: usize,
        observe: impl Fn(CachePoint, &Measurement) -> bool + Sync,
    ) -> Result<StaticOutcome, CoreError> {
        let space = ConfigSpace::enumerate(side.config_of(&system.hierarchy), organization)?;
        let base = self.run_point(app, system, organization, side, None);

        let stopped = AtomicBool::new(false);
        let evaluated = parallel_map_on(workers, space.points(), |point| {
            if stopped.load(Ordering::Relaxed) {
                return None;
            }
            let measurement = self.run_point(app, system, organization, side, Some(*point));
            if !observe(*point, &measurement) {
                stopped.store(true, Ordering::Relaxed);
            }
            Some((*point, measurement))
        });
        let evaluated = evaluated.into_iter().flatten().collect();

        Ok(SearchOutcome::new(app, base, evaluated, side, system))
    }

    /// Dynamic resizing: sweeps the profiled parameter candidates of the
    /// miss-ratio controller and keeps the best energy-delay product.
    ///
    /// The paper extracts the controller's bounds offline through
    /// profiling; here the profile is `static_best`, the static search of
    /// the same application, system, organization and side. The size-bound
    /// candidates are the static best size, half of it, a quarter, and the
    /// smallest offered size (the `1` floor), each crossed with the
    /// miss-bounds of [`DynamicParams::candidates`]. Bounds snap to offered
    /// capacities and duplicates collapse, so fractions that fall between
    /// (or below) offered sizes never waste a simulation.
    ///
    /// The static best size also anchors one more candidate: floor at that
    /// size, with a miss-bound no interval reaches. That controller settles
    /// at the anchor and never upsizes, so the best dynamic candidate is
    /// never worse than static resizing at the anchor.
    ///
    /// The baseline is `static_best`'s, and every candidate replays the
    /// store's one resident trace of `app`.
    ///
    /// # Errors
    ///
    /// Returns an error if the organization is not applicable to the cache.
    pub fn dynamic_best(
        &self,
        app: &AppProfile,
        system: &SystemConfig,
        organization: Organization,
        side: ResizableCacheSide,
        static_best: &StaticOutcome,
    ) -> Result<DynamicOutcome, CoreError> {
        let cache = side.config_of(&system.hierarchy);
        let space = ConfigSpace::enumerate(cache, organization)?;
        let base = static_best.base;
        let base_miss_ratio = match side {
            ResizableCacheSide::Data => base.l1d_miss_ratio,
            ResizableCacheSide::Instruction => base.l1i_miss_ratio,
        };

        let static_best_bytes = static_best.best.choice.bytes(cache.block_bytes);
        let bounds = [
            static_best_bytes,
            static_best_bytes / 2,
            static_best_bytes / 4,
            1,
        ];
        let mut params = DynamicParams::candidates(
            self.config.dynamic_interval,
            base_miss_ratio,
            &space,
            &bounds,
        );
        params.push(DynamicParams {
            interval_accesses: self.config.dynamic_interval,
            miss_bound: u64::MAX,
            size_bound_bytes: space.snap_size_bound(static_best_bytes),
        });
        // Parameter candidates are independent simulations over the shared
        // trace; sweep them in parallel like the static points.
        let evaluated: Vec<(DynamicParams, Measurement)> = parallel_map(&params, |p| {
            let setup = RunSetup::dynamic(side, space.clone(), *p);
            (*p, self.run_dynamic(app, system, &setup, |_| {}))
        });
        Ok(SearchOutcome::new(app, base, evaluated, side, system))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::Knobs;
    use rescache_trace::spec;

    fn runner() -> Runner {
        Runner::new(RunnerConfig::fast())
    }

    #[test]
    fn runner_config_sources() {
        assert_eq!(RunnerConfig::default(), RunnerConfig::paper());
        assert!(
            RunnerConfig::fast().measure_instructions < RunnerConfig::paper().measure_instructions
        );
    }

    #[test]
    fn knobs_parse_strictly() {
        // The length, seed and interval knobs land in the runner config;
        // unset ones keep the base's value.
        let base = RunnerConfig::fast();
        let lookup = |set: &'static [(&'static str, &'static str)]| {
            move |name: &str| {
                set.iter()
                    .find(|(k, _)| *k == name)
                    .map(|(_, v)| v.to_string())
            }
        };
        let knobs = Knobs::parse(lookup(&[
            ("RESCACHE_MEASURE", "20000"),
            ("RESCACHE_SEED", " 7 "),
        ]))
        .expect("valid knobs");
        let config = knobs.runner_config(base);
        assert_eq!(config.measure_instructions, 20_000);
        assert_eq!(config.trace_seed, 7);
        assert_eq!(config.warmup_instructions, base.warmup_instructions);
        assert_eq!(config.dynamic_interval, base.dynamic_interval);
        let unset = Knobs::parse(lookup(&[])).expect("no knobs set");
        assert_eq!(unset.runner_config(base), base);

        for bad in ["", "20k", "2e4", "-1", "0x10", "1.5"] {
            let err =
                Knobs::parse(|name: &str| (name == "RESCACHE_MEASURE").then(|| bad.to_string()))
                    .unwrap_err();
            assert!(
                matches!(
                    &err,
                    CoreError::InvalidParameter {
                        parameter: "RESCACHE_MEASURE",
                        ..
                    }
                ),
                "{bad:?}: {err}"
            );
            assert!(err.to_string().contains("RESCACHE_MEASURE"), "{err}");
        }
    }

    #[test]
    fn trace_split_lengths() {
        let r = runner();
        let (warm, measure) = r.trace(&spec::ammp());
        assert_eq!(warm.len(), r.config().warmup_instructions);
        assert_eq!(measure.len(), r.config().measure_instructions);
    }

    #[test]
    fn baseline_measurement_is_sane() {
        let r = runner();
        let m = r.run_static(&spec::m88ksim(), &SystemConfig::base(), None, None, 0, 0);
        assert!(m.cycles > 0);
        assert!(m.energy_pj > 0.0);
        assert_eq!(m.l1d_mean_bytes, 32.0 * 1024.0);
        assert_eq!(m.l1i_mean_bytes, 32.0 * 1024.0);
        assert_eq!(m.l1d_resizes, 0);
    }

    #[test]
    fn static_point_reduces_dcache_energy_for_small_working_sets() {
        let r = runner();
        let app = spec::ammp();
        let system = SystemConfig::base();
        let base = r.run_static(&app, &system, None, None, 0, 0);
        let point = CachePoint { sets: 64, ways: 2 }; // 4 KiB
        let small = r.run_static(&app, &system, Some(point), None, 4, 0);
        assert!(small.breakdown.l1d_pj < base.breakdown.l1d_pj * 0.5);
        assert!(small.l1d_mean_bytes < 5.0 * 1024.0);
        // ammp's working set fits in 4K, so the slowdown must be small.
        let slowdown = small.cycles as f64 / base.cycles as f64;
        assert!(slowdown < 1.06, "slowdown {slowdown}");
    }

    /// A synthetic measurement: only energy and cycles feed a score.
    fn measured(energy_pj: f64, cycles: u64) -> Measurement {
        Measurement {
            cycles,
            ipc: 1.0,
            energy_pj,
            breakdown: EnergyBreakdown::default(),
            l1d_mean_bytes: 0.0,
            l1i_mean_bytes: 0.0,
            l1d_miss_ratio: 0.0,
            l1i_miss_ratio: 0.0,
            l1d_resizes: 0,
            l1i_resizes: 0,
            latency: LatencyStats::default(),
        }
    }

    #[test]
    fn best_under_picks_the_minimum() {
        // The minimum wins wherever it sits.
        let evaluated = [5, 3, 1, 4].map(|c| (c, measured(1.0, c)));
        assert_eq!(best_under(&evaluated).map(|b| b.0), Some(1));
        assert_eq!(best_under::<u64>(&[]), None);
    }

    #[test]
    fn best_under_ties_keep_the_first_point() {
        // Equal scores keep the first point: the largest cache, since
        // configuration spaces list the full size first.
        let tied = [32, 16, 8, 4].map(|kib| (kib, measured(2.0, 1_000)));
        assert_eq!(best_under(&tied).map(|b| b.0), Some(32));
    }

    #[test]
    fn best_under_ranks_by_the_energy_delay_product() {
        // Smaller caches spend less energy but more cycles: the
        // energy-delay product trades the slowdown for the saving, so the
        // smallest cache wins although the full size is the fastest.
        let sized = [32u32, 16, 8, 4].map(|kib| {
            let cycles = 1_000_000 + 50_000 * u64::from(32 / kib);
            (kib, measured(f64::from(kib), cycles))
        });
        let (kib, best) = best_under(&sized).expect("non-empty");
        assert_eq!(kib, 4);
        let edp = |m: &Measurement| m.energy_delay().product();
        assert!(sized.iter().all(|(_, m)| edp(&best) <= edp(m)));
    }

    #[test]
    fn search_outcome_chooses_the_first_minimum_edp_entry() {
        let (app, system, side) = (spec::ammp(), SystemConfig::base(), ResizableCacheSide::Data);
        let base = measured(4.0, 1_000);

        // Static points, largest first. Energy-delay products 3000, 2000,
        // 2000, 2500: the 128-set point and the 64-set point tie at the
        // minimum with different measurements, and the earlier one wins.
        let point = |sets| CachePoint { sets, ways: 2 };
        let statics = vec![
            (point(256), measured(3.0, 1_000)),
            (point(128), measured(2.0, 1_000)),
            (point(64), measured(1.0, 2_000)),
            (point(32), measured(2.5, 1_000)),
        ];
        let outcome = SearchOutcome::new(&app, base, statics.clone(), side, &system);
        assert_eq!(outcome.best.choice, point(128));
        assert_eq!(outcome.best.measurement, statics[1].1);
        assert!((outcome.best.edp_reduction_percent - 50.0).abs() < 1e-9);
        assert_eq!(outcome.evaluated, statics, "every entry kept, in order");
        assert_eq!((outcome.app.as_str(), outcome.base), ("ammp", base));

        // Dynamic parameters: the minimum is last once, then a full tie
        // keeps the first candidate.
        let params = |miss_bound| DynamicParams {
            interval_accesses: 256,
            miss_bound,
            size_bound_bytes: 4_096,
        };
        let dynamics = vec![
            (params(10), measured(2.0, 1_000)),
            (params(20), measured(2.0, 1_000)),
            (params(u64::MAX), measured(1.5, 1_000)),
        ];
        let outcome = SearchOutcome::new(&app, base, dynamics, side, &system);
        assert_eq!(outcome.best.choice, params(u64::MAX));
        let tied = vec![
            (params(30), measured(2.0, 1_000)),
            (params(10), measured(1.0, 2_000)),
            (params(20), measured(2.0, 1_000)),
        ];
        let outcome = SearchOutcome::new(&app, base, tied, side, &system);
        assert_eq!(outcome.best.choice, params(30));
    }

    #[test]
    fn static_best_finds_a_saving_for_ammp() {
        let r = runner();
        let outcome = r
            .static_best(
                &spec::ammp(),
                &SystemConfig::base(),
                Organization::SelectiveSets,
                ResizableCacheSide::Data,
            )
            .unwrap();
        assert_eq!(outcome.evaluated.len(), 5); // 32/16/8/4/2 KiB at 2-way
        assert!(
            outcome.best.edp_reduction_percent > 3.0,
            "ammp should benefit from d-cache downsizing, got {:.2}%",
            outcome.best.edp_reduction_percent
        );
        assert!(outcome.best.size_reduction_percent > 50.0);
        let chosen = (outcome.best.choice, outcome.best.measurement);
        assert!(outcome.evaluated.contains(&chosen), "{chosen:?}");
    }

    #[test]
    fn static_search_stops_starting_points_once_observe_returns_false() {
        let (app, system) = (spec::ammp(), SystemConfig::base());
        let (org, side) = (Organization::SelectiveSets, ResizableCacheSide::Data);
        let offered = ConfigSpace::enumerate(side.config_of(&system.hierarchy), org)
            .unwrap()
            .len();
        assert_eq!(offered, 5);
        // An observer that stops the search at the first point it sees.
        let stop_at_first = |_: CachePoint, _: &Measurement| false;

        // One worker runs inline: exactly the first point, measured as the
        // full search measures it.
        let r = runner();
        let stopped = r
            .static_search(&app, &system, org, side, 1, stop_at_first)
            .unwrap();
        let full = r.static_best(&app, &system, org, side).unwrap();
        assert_eq!(stopped.evaluated, full.evaluated[..1]);
        assert_eq!(stopped.base, full.base);

        // Two workers on a cold tier: the point running beside the first
        // finishes and is kept, and no further point starts.
        let stopped = runner()
            .static_search(&app, &system, org, side, 2, stop_at_first)
            .unwrap();
        let evaluated = stopped.evaluated.len();
        assert!(
            (1..offered).contains(&evaluated),
            "{evaluated} of {offered}"
        );
        for (point, measurement) in &stopped.evaluated {
            assert!(
                full.evaluated.contains(&(*point, *measurement)),
                "{point:?}"
            );
        }
    }

    #[test]
    fn static_best_declines_to_downsize_swim() {
        let r = runner();
        let outcome = r
            .static_best(
                &spec::swim(),
                &SystemConfig::base(),
                Organization::SelectiveSets,
                ResizableCacheSide::Data,
            )
            .unwrap();
        // swim's working set exceeds the cache: the best point stays at (or
        // near) the full size and the EDP reduction is small.
        assert!(
            outcome.best.size_reduction_percent < 55.0,
            "swim should not shrink aggressively, got {:.1}%",
            outcome.best.size_reduction_percent
        );
    }

    #[test]
    fn dynamic_best_runs_and_reports_resizes() {
        let r = runner();
        let (app, system) = (spec::su2cor(), SystemConfig::in_order());
        let (org, side) = (Organization::SelectiveSets, ResizableCacheSide::Data);
        let static_outcome = r.static_best(&app, &system, org, side).unwrap();
        let outcome = r
            .dynamic_best(&app, &system, org, side, &static_outcome)
            .unwrap();
        // The profiled candidates, then the static-anchored one.
        let (anchor, profiled) = outcome.evaluated.split_last().unwrap();
        assert_eq!(anchor.0.miss_bound, u64::MAX);
        assert!(profiled.iter().all(|(p, _)| p.miss_bound < u64::MAX));
        assert_eq!(outcome.base, static_outcome.base);
        assert!(outcome.best.measurement.l1d_mean_bytes <= 32.0 * 1024.0);
        assert!(
            outcome.evaluated.iter().any(|(_, m)| m.l1d_resizes > 0),
            "at least one candidate should resize"
        );
    }

    #[test]
    fn inapplicable_organization_is_an_error() {
        let r = runner();
        let err = r.static_best(
            &spec::ammp(),
            &SystemConfig::with_l1(32 * 1024, 1),
            Organization::SelectiveWays,
            ResizableCacheSide::Data,
        );
        assert!(err.is_err());
    }
}
