//! Drivers for Figures 4–9. Each returns the runner's own outcomes
//! ([`StaticOutcome`], [`DynamicOutcome`], [`Measurement`]) in application
//! order; the benches derive the plotted percentages from them, and each
//! search's `best.choice` names the point or parameters it chose.
//!
//! Every driver is application-major: one job per application runs all of
//! that application's searches — every cell of a grid, every processor
//! configuration — and holds the application's trace for the whole job, so
//! each trace is generated once per driver call, and a sibling job's cold
//! trace never evicts it between searches. The tier keeps the held traces
//! plus the one used last, so no more traces are resident than jobs
//! running, plus one.

use rescache_trace::AppProfile;

use crate::error::CoreError;
use crate::experiment::parallel::{effective_workers, parallel_map_on};
use crate::experiment::report::mean;
use crate::experiment::runner::{DynamicOutcome, Measurement, Runner, StaticOutcome};
use crate::org::{ConfigSpace, Organization};
use crate::system::{ResizableCacheSide, SystemConfig};

/// One (associativity, organization) cell of a static grid, with its system.
type GridCell = (u32, Organization, SystemConfig);

/// Every application's outcome of each cell of a static grid, as
/// [`static_grid`] returns it.
pub type GridOutcome = Vec<(u32, Organization, Vec<StaticOutcome>)>;

/// The associativities of Figures 4 and 6: 32K L1s of 2, 4, 8 and 16 ways.
pub const PAPER_ASSOCIATIVITIES: [u32; 4] = [2, 4, 8, 16];

/// Figures 4, 5 and 6: static resizing of `side` with each of
/// `organizations`, on a 32K L1 of each base associativity, on the base
/// out-of-order processor. Returns, per applicable (associativity,
/// organization) pair in input order, every application's outcome in the
/// order of `apps`. Inapplicable cells (selective-ways on a direct-mapped
/// cache) are skipped, as in the paper.
pub fn static_grid(
    runner: &Runner,
    apps: &[AppProfile],
    associativities: &[u32],
    organizations: &[Organization],
    side: ResizableCacheSide,
) -> GridOutcome {
    let cells = grid_cells(associativities, organizations, side);
    let rows = per_app(runner, apps, |app| grid_row(runner, app, &cells, side));
    label_cells(&cells, rows)
}

/// The applicable cells of a 32K grid of `side`, associativity-major.
fn grid_cells(
    associativities: &[u32],
    organizations: &[Organization],
    side: ResizableCacheSide,
) -> Vec<GridCell> {
    associativities
        .iter()
        .flat_map(|&assoc| {
            let system = SystemConfig::with_l1(32 * 1024, assoc);
            organizations.iter().map(move |&org| (assoc, org, system))
        })
        .filter(|(_, org, system)| {
            ConfigSpace::enumerate(side.config_of(&system.hierarchy), *org).is_ok()
        })
        .collect()
}

/// One application's static search of `side` in every cell of `cells`.
fn grid_row(
    runner: &Runner,
    app: &AppProfile,
    cells: &[GridCell],
    side: ResizableCacheSide,
) -> Vec<StaticOutcome> {
    cells
        .iter()
        .map(|(_, org, system)| {
            runner
                .static_best(app, system, *org, side)
                .expect("grid cells are applicable")
        })
        .collect()
}

/// Per-application rows of [`grid_row`] as one column per cell, labelled.
fn label_cells(cells: &[GridCell], rows: Vec<Vec<StaticOutcome>>) -> GridOutcome {
    cells
        .iter()
        .zip(by_cell(rows, cells.len()))
        .map(|(&(assoc, org, _), outcomes)| (assoc, org, outcomes))
        .collect()
}

/// `job` over every application, on every worker at once and in
/// application order. Each job holds its application's trace until it
/// returns, so the tier keeps it resident across the job's searches however
/// many cold traces sibling jobs fetch meanwhile.
fn per_app<R: Send>(
    runner: &Runner,
    apps: &[AppProfile],
    job: impl Fn(&AppProfile) -> R + Sync,
) -> Vec<R> {
    parallel_map_on(effective_workers(), apps, |app| {
        let _trace = runner.trace(app);
        job(app)
    })
}

/// Transposes per-application rows of `cells` results each into one column
/// per cell, in application order.
fn by_cell<T>(rows: Vec<Vec<T>>, cells: usize) -> Vec<Vec<T>> {
    let mut rows: Vec<_> = rows.into_iter().map(Vec::into_iter).collect();
    (0..cells)
        .map(|_| {
            rows.iter_mut()
                .map(|row| row.next().expect("one result per cell"))
                .collect()
        })
        .collect()
}

/// The mean (over applications) energy-delay reduction of the chosen static
/// points, in percent: one bar of Figure 4 or 6.
pub fn mean_edp_reduction(outcomes: &[StaticOutcome]) -> f64 {
    let reductions: Vec<f64> = outcomes
        .iter()
        .map(|o| o.best.edp_reduction_percent)
        .collect();
    mean(&reductions)
}

/// Figures 7 and 8: for every application and each of `systems`, the best
/// static and the best dynamic (miss-ratio based) resizing of `side`.
/// Returns one list per system, in input order, of every application's
/// outcomes in the order of `apps`. The dynamic candidates are profiled
/// from the static search ([`Runner::dynamic_best`]).
///
/// The paper uses 32K 2-way L1 caches and selective-sets here;
/// `organization` is a parameter so the ablation bench can vary it.
///
/// # Errors
///
/// Returns an error if the organization cannot be applied to the cache.
pub fn static_vs_dynamic(
    runner: &Runner,
    apps: &[AppProfile],
    systems: &[SystemConfig],
    organization: Organization,
    side: ResizableCacheSide,
) -> Result<Vec<Vec<(StaticOutcome, DynamicOutcome)>>, CoreError> {
    let rows = per_app(runner, apps, |app| {
        strategy_row(runner, app, systems, organization, side)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    Ok(by_cell(rows, systems.len()))
}

/// One application's static and dynamic searches of `side` on each of
/// `systems`.
fn strategy_row(
    runner: &Runner,
    app: &AppProfile,
    systems: &[SystemConfig],
    organization: Organization,
    side: ResizableCacheSide,
) -> Result<Vec<(StaticOutcome, DynamicOutcome)>, CoreError> {
    systems
        .iter()
        .map(|system| {
            let static_outcome = runner.static_best(app, system, organization, side)?;
            let dynamic_outcome =
                runner.dynamic_best(app, system, organization, side, &static_outcome)?;
            Ok((static_outcome, dynamic_outcome))
        })
        .collect()
}

/// One application of Figure 9: the best static d-cache-only and
/// i-cache-only searches, and both caches run together at their
/// individually chosen points.
#[derive(Debug, Clone)]
pub struct DualOutcome {
    /// Static search of the d-cache alone (its `base` is the baseline).
    pub d_alone: StaticOutcome,
    /// Static search of the i-cache alone.
    pub i_alone: StaticOutcome,
    /// Both caches at their chosen points.
    pub both: Measurement,
    /// Full d-cache capacity in bytes.
    pub l1d_bytes: u64,
    /// Full i-cache capacity in bytes.
    pub l1i_bytes: u64,
}

impl DualOutcome {
    /// Size reductions of the d-cache alone, the i-cache alone and both, in
    /// percent of the *combined* capacity of the two caches, as the paper
    /// plots them.
    pub fn size_reductions(&self) -> [f64; 3] {
        let (d_full, i_full) = (self.l1d_bytes as f64, self.l1i_bytes as f64);
        let combined = (self.l1d_bytes + self.l1i_bytes) as f64;
        let reduction = |d_bytes: f64, i_bytes: f64| (1.0 - (d_bytes + i_bytes) / combined) * 100.0;
        [
            reduction(self.d_alone.best.measurement.l1d_mean_bytes, i_full),
            reduction(d_full, self.i_alone.best.measurement.l1i_mean_bytes),
            reduction(self.both.l1d_mean_bytes, self.both.l1i_mean_bytes),
        ]
    }

    /// Energy-delay reductions of the d-cache alone, the i-cache alone and
    /// both, in percent of the baseline.
    pub fn edp_reductions(&self) -> [f64; 3] {
        let base = self.d_alone.base.energy_delay();
        [
            &self.d_alone.best.measurement,
            &self.i_alone.best.measurement,
            &self.both,
        ]
        .map(|m| m.energy_delay().reduction_vs(&base))
    }

    /// The sum of the two single-cache energy-delay reductions: Figure 9
    /// stacks these next to the combined bar to show additivity.
    pub fn stacked_edp_reduction(&self) -> f64 {
        let [d, i, _] = self.edp_reductions();
        d + i
    }

    /// Execution-time increase of resizing both caches, in percent.
    pub fn both_slowdown(&self) -> f64 {
        self.both
            .energy_delay()
            .slowdown_vs(&self.d_alone.base.energy_delay())
    }
}

/// Figure 9: static resizing with `organization` of the d-cache alone, the
/// i-cache alone, and both caches together, on `system`.
///
/// # Errors
///
/// Returns an error if the organization cannot be applied to the L1 caches.
pub fn dual_resizing(
    runner: &Runner,
    apps: &[AppProfile],
    system: &SystemConfig,
    organization: Organization,
) -> Result<Vec<DualOutcome>, CoreError> {
    per_app(runner, apps, |app| {
        dual_row(runner, app, system, organization)
    })
    .into_iter()
    .collect()
}

/// One application of Figure 9: its single-cache searches on `system`, and
/// both caches run together at the points those searches chose.
fn dual_row(
    runner: &Runner,
    app: &AppProfile,
    system: &SystemConfig,
    organization: Organization,
) -> Result<DualOutcome, CoreError> {
    let d_alone = runner.static_best(app, system, organization, ResizableCacheSide::Data)?;
    let i_alone = runner.static_best(app, system, organization, ResizableCacheSide::Instruction)?;
    let (d_cfg, i_cfg) = (system.hierarchy.l1d, system.hierarchy.l1i);
    // Memoized: when either side's choice is the full size, this shares a
    // simulation the searches already ran.
    let both = runner.run_static(
        app,
        system,
        Some(d_alone.best.choice),
        Some(i_alone.best.choice),
        organization.tag_bits(&d_cfg),
        organization.tag_bits(&i_cfg),
    );
    Ok(DualOutcome {
        d_alone,
        i_alone,
        both,
        l1d_bytes: d_cfg.size_bytes,
        l1i_bytes: i_cfg.size_bytes,
    })
}

/// Every cell the paper plots, from one [`paper`] call. Per-side lists are
/// in [`ResizableCacheSide::ALL`] order (d-cache first), and every list of
/// outcomes is in application order.
#[derive(Debug, Clone)]
pub struct PaperOutcome {
    /// Figures 4–6: every organization at each of [`PAPER_ASSOCIATIVITIES`],
    /// as [`static_grid`] returns it.
    pub grids: Vec<GridOutcome>,
    /// Figures 7 (d-cache) and 8 (i-cache): selective-sets on the 32K 2-way
    /// L1, as [`static_vs_dynamic`] returns it for the in-order processor,
    /// then the base out-of-order one.
    pub strategies: Vec<Vec<Vec<(StaticOutcome, DynamicOutcome)>>>,
    /// Figure 9: selective-sets on the base system, as [`dual_resizing`]
    /// returns it.
    pub dual: Vec<DualOutcome>,
}

/// Figures 4–9 in one run: each application's one job runs the rows of
/// [`static_grid`], [`static_vs_dynamic`] and [`dual_resizing`] for every
/// figure. The base system's L1s are 32K 2-way, so the static searches on
/// it replay simulations the grid's 2-way selective-sets cell ran.
pub fn paper(runner: &Runner, apps: &[AppProfile]) -> PaperOutcome {
    let sets = Organization::SelectiveSets;
    let systems = [SystemConfig::in_order(), SystemConfig::base()];
    let applies = "selective-sets applies to the 32K 2-way L1s";
    // Each cell's system sets both L1s alike: both sides have these cells.
    let data = ResizableCacheSide::Data;
    let cells = grid_cells(&PAPER_ASSOCIATIVITIES, &Organization::ALL, data);
    let (sides, dual): (Vec<_>, Vec<_>) = per_app(runner, apps, |app| {
        let sides = ResizableCacheSide::ALL.map(|side| {
            let grid = grid_row(runner, app, &cells, side);
            let strategies = strategy_row(runner, app, &systems, sets, side).expect(applies);
            (grid, strategies)
        });
        let dual = dual_row(runner, app, &systems[1], sets).expect(applies);
        (Vec::from(sides), dual)
    })
    .into_iter()
    .unzip();
    let (grids, strategies) = by_cell(sides, 2)
        .into_iter()
        .map(|rows| {
            let (grid, pairs): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
            (label_cells(&cells, grid), by_cell(pairs, systems.len()))
        })
        .unzip();
    PaperOutcome {
        grids,
        strategies,
        dual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::runner::{RunnerConfig, SearchOutcome};
    use crate::experiment::SharedTier;
    use crate::org::CachePoint;
    use rescache_trace::spec;

    fn tiny_runner(warmup: usize, measure: usize) -> Runner {
        Runner::new(RunnerConfig {
            warmup_instructions: warmup,
            measure_instructions: measure,
            trace_seed: 7,
            dynamic_interval: 1_024,
            ..RunnerConfig::fast()
        })
    }

    /// The runner of the Figure 4–6 tests.
    fn grid_runner() -> Runner {
        tiny_runner(4_000, 12_000)
    }

    fn edp(cells: &[(u32, Organization, Vec<StaticOutcome>)], org: Organization) -> f64 {
        cells
            .iter()
            .find(|(_, o, _)| *o == org)
            .map(|(_, _, outcomes)| mean_edp_reduction(outcomes))
            .unwrap()
    }

    #[test]
    fn assoc_sweep_produces_one_point_per_combination() {
        let runner = grid_runner();
        let orgs = [Organization::SelectiveWays, Organization::SelectiveSets];
        let apps = vec![spec::ammp(), spec::m88ksim()];
        let cells = static_grid(&runner, &apps, &[2, 4], &orgs, ResizableCacheSide::Data);
        assert_eq!(cells.len(), 4);
        for (_, _, outcomes) in &cells {
            assert_eq!(outcomes.len(), 2);
            let sizes: Vec<f64> = outcomes
                .iter()
                .map(|o| o.best.size_reduction_percent)
                .collect();
            assert!(mean(&sizes) >= 0.0);
        }
    }

    /// Distinct simulations one application's static searches of `side`
    /// run on `system` with each of `orgs`: the full-size baseline plus
    /// every point either organization offers.
    fn distinct_points(
        system: &SystemConfig,
        side: ResizableCacheSide,
        orgs: &[Organization],
    ) -> usize {
        let cache = side.config_of(&system.hierarchy);
        let mut points = vec![CachePoint::full(&cache)];
        for &org in orgs {
            let space = ConfigSpace::enumerate(cache, org).unwrap();
            points.extend_from_slice(space.points());
        }
        points.sort_by_key(|p| (p.sets, p.ways));
        points.dedup();
        points.len()
    }

    /// Distinct simulations per application of a 32K static grid.
    fn grid_points(assocs: &[u32], orgs: &[Organization], side: ResizableCacheSide) -> usize {
        assocs
            .iter()
            .map(|&assoc| distinct_points(&SystemConfig::with_l1(32 * 1024, assoc), side, orgs))
            .sum()
    }

    #[test]
    fn static_grid_generates_each_trace_once_under_a_cap_of_one() {
        let config = *grid_runner().config();
        let runner = Runner::with_store(config, SharedTier::with_dir(None).with_resident_cap(1));
        let orgs = [Organization::SelectiveWays, Organization::SelectiveSets];
        let assocs = [2, 4];
        let apps = vec![spec::ammp(), spec::m88ksim()];
        let side = ResizableCacheSide::Data;
        let cells = static_grid(&runner, &apps, &assocs, &orgs, side);

        let order: Vec<(u32, Organization)> = cells.iter().map(|(a, o, _)| (*a, *o)).collect();
        let expected: Vec<(u32, Organization)> = assocs
            .iter()
            .flat_map(|&a| orgs.iter().map(move |&o| (a, o)))
            .collect();
        assert_eq!(order, expected, "associativity-then-organization order");
        for (_, _, outcomes) in &cells {
            let names: Vec<&str> = outcomes.iter().map(|o| o.app.as_str()).collect();
            assert_eq!(names, ["ammp", "m88ksim"]);
        }

        // The tier counts trace generations and simulations in one counter:
        // one generation per application means nothing regenerated.
        let health = runner.trace_store().health();
        assert_eq!(
            health.misses as usize,
            apps.len() + apps.len() * grid_points(&assocs, &orgs, side),
            "{health:?}"
        );
        // Jobs that run at once hold their traces, so only an application
        // whose job starts after another's has ended evicts a trace; the
        // last trace stays resident.
        let evictions = health.evictions as usize;
        assert!(
            (apps.len().saturating_sub(effective_workers())..apps.len()).contains(&evictions),
            "{health:?}"
        );
    }

    #[test]
    fn static_grid_on_a_default_tier_generates_each_trace_once() {
        let runner = Runner::with_store(*grid_runner().config(), SharedTier::with_dir(None));
        let orgs = [Organization::SelectiveWays, Organization::SelectiveSets];
        let assocs = [4];
        let apps = vec![spec::ammp(), spec::m88ksim(), spec::compress()];
        let side = ResizableCacheSide::Data;
        static_grid(&runner, &apps, &assocs, &orgs, side);
        // Each job holds its trace, so a sibling's cold trace never evicts
        // it mid-job and forces a regeneration.
        let health = runner.trace_store().health();
        assert_eq!(
            health.misses as usize,
            apps.len() + apps.len() * grid_points(&assocs, &orgs, side),
            "{health:?}"
        );
        // Traces stay resident only while their jobs run, and the last ones
        // until the next cold fetch: at most one per worker.
        let resident = runner.trace_store().resident_full_traces();
        assert!((1..=effective_workers()).contains(&resident), "{resident}");
    }

    #[test]
    fn a_job_keeps_its_trace_while_a_sibling_fetches_a_cold_one() {
        let runner = Runner::with_store(*grid_runner().config(), SharedTier::with_dir(None));
        let system = SystemConfig::with_l1(32 * 1024, 4);
        let orgs = [Organization::SelectiveWays, Organization::SelectiveSets];
        let side = ResizableCacheSide::Data;
        per_app(&runner, &[spec::ammp()], |app| {
            runner.static_best(app, &system, orgs[0], side).unwrap();
            // What a sibling job's cold trace does between two searches.
            runner.trace(&spec::gcc());
            runner.static_best(app, &system, orgs[1], side).unwrap();
        });
        // Two generations: ammp's trace was held, not evicted and rebuilt.
        let health = runner.trace_store().health();
        assert_eq!(
            health.misses as usize,
            2 + distinct_points(&system, side, &orgs),
            "{health:?}"
        );
    }

    #[test]
    fn static_vs_dynamic_generates_each_trace_once_across_systems() {
        let runner = Runner::with_store(
            *tiny_runner(2_000, 8_000).config(),
            SharedTier::with_dir(None),
        );
        let apps = vec![spec::ammp(), spec::m88ksim(), spec::su2cor()];
        let systems = [SystemConfig::in_order(), SystemConfig::base()];
        let org = Organization::SelectiveSets;
        let side = ResizableCacheSide::Data;
        let per_system = static_vs_dynamic(&runner, &apps, &systems, org, side).unwrap();
        assert_eq!(per_system.len(), systems.len());
        for (system, pairs) in systems.iter().zip(&per_system) {
            assert_eq!(pairs.len(), apps.len());
            for (app, (s, d)) in apps.iter().zip(pairs) {
                // A memo hit: the system's own baseline, in input order.
                let base = runner.run_static(app, system, None, None, 0, 0);
                assert_eq!(s.app, app.name);
                assert_eq!((s.base.cycles, d.base.cycles), (base.cycles, base.cycles));
            }
        }
        // Dynamic runs are not memoized, so every miss is a trace or a
        // static simulation: one generation per application, not per system.
        let sims: usize = systems
            .iter()
            .map(|system| distinct_points(system, side, &[org]))
            .sum();
        let health = runner.trace_store().health();
        assert_eq!(
            health.misses as usize,
            apps.len() * (1 + sims),
            "{health:?}"
        );
    }

    /// The fields of a search outcome that every figure derives from.
    fn search_bits<K: Copy>(o: &SearchOutcome<K>) -> (String, K, u64, u64, usize) {
        let m = &o.best.measurement;
        (
            o.app.clone(),
            o.best.choice,
            m.cycles,
            m.energy_pj.to_bits(),
            o.evaluated.len(),
        )
    }

    #[test]
    fn paper_shares_every_run() {
        let config = *tiny_runner(2_000, 8_000).config();
        let apps = vec![spec::ammp(), spec::m88ksim(), spec::su2cor()];
        let sets = Organization::SelectiveSets;
        let shared = Runner::with_store(config, SharedTier::with_dir(None));
        let outcome = paper(&shared, &apps);
        let resident = shared.trace_store().resident_full_traces();
        assert!(resident <= effective_workers(), "{resident}");

        // The per-figure drivers in sequence, on a tier that keeps every
        // trace, so each trace and static simulation runs once across them.
        let separate = Runner::with_store(
            config,
            SharedTier::with_dir(None).with_resident_cap(usize::MAX),
        );
        for (side, grid) in ResizableCacheSide::ALL.into_iter().zip(&outcome.grids) {
            let alone = static_grid(
                &separate,
                &apps,
                &PAPER_ASSOCIATIVITIES,
                &Organization::ALL,
                side,
            );
            assert_eq!(grid.len(), alone.len());
            for ((a, o, ours), (alone_a, alone_o, theirs)) in grid.iter().zip(&alone) {
                assert_eq!((a, o), (alone_a, alone_o));
                let ours: Vec<_> = ours.iter().map(search_bits).collect();
                assert_eq!(ours, theirs.iter().map(search_bits).collect::<Vec<_>>());
            }
        }
        let systems = [SystemConfig::in_order(), SystemConfig::base()];
        for (side, per_system) in ResizableCacheSide::ALL.into_iter().zip(&outcome.strategies) {
            let alone = static_vs_dynamic(&separate, &apps, &systems, sets, side).unwrap();
            let bits = |pairs: &[(StaticOutcome, DynamicOutcome)]| -> Vec<_> {
                pairs
                    .iter()
                    .map(|(s, d)| (search_bits(s), search_bits(d)))
                    .collect()
            };
            let ours: Vec<_> = per_system.iter().map(|pairs| bits(pairs)).collect();
            let theirs: Vec<_> = alone.iter().map(|pairs| bits(pairs)).collect();
            assert_eq!(ours, theirs);
        }
        let alone = dual_resizing(&separate, &apps, &SystemConfig::base(), sets).unwrap();
        let dual_bits = |o: &DualOutcome| {
            let both = (o.both.cycles, o.both.energy_pj.to_bits());
            (search_bits(&o.d_alone), search_bits(&o.i_alone), both)
        };
        let ours: Vec<_> = outcome.dual.iter().map(dual_bits).collect();
        assert_eq!(ours, alone.iter().map(dual_bits).collect::<Vec<_>>());

        // One generation per trace and one run per static simulation on
        // both tiers: the paper run repeats nothing the drivers share.
        assert_eq!(
            shared.trace_store().health().misses,
            separate.trace_store().health().misses
        );
    }

    #[test]
    fn per_app_rows_cover_every_app_and_org() {
        // The Figure 5 shape: 4-way, both organizations, every app present
        // in input order.
        let runner = grid_runner();
        let orgs = [Organization::SelectiveWays, Organization::SelectiveSets];
        let apps = vec![spec::ammp(), spec::compress()];
        let cells = static_grid(&runner, &apps, &[4], &orgs, ResizableCacheSide::Data);
        assert_eq!(cells.len(), 2);
        for (_, _, outcomes) in &cells {
            let names: Vec<&str> = outcomes.iter().map(|o| o.app.as_str()).collect();
            assert_eq!(names, ["ammp", "compress"]);
        }
    }

    #[test]
    fn small_working_sets_prefer_selective_sets_at_low_assoc() {
        // ammp and m88ksim have ~2-3K working sets: at 2-way, selective-sets
        // can reach 2K while selective-ways stops at 16K, so the sets
        // organization must save clearly more energy-delay.
        let runner = grid_runner();
        let apps = vec![spec::ammp(), spec::m88ksim()];
        let cells = static_grid(
            &runner,
            &apps,
            &[2],
            &[Organization::SelectiveWays, Organization::SelectiveSets],
            ResizableCacheSide::Data,
        );
        let ways = edp(&cells, Organization::SelectiveWays);
        let sets = edp(&cells, Organization::SelectiveSets);
        assert!(
            sets > ways,
            "selective-sets ({sets:.1}%) should beat selective-ways ({ways:.1}%) at 2-way"
        );
    }

    #[test]
    fn hybrid_is_at_least_as_good_as_either_organization() {
        let runner = grid_runner();
        let apps = vec![spec::ammp(), spec::compress()];
        let cells = static_grid(
            &runner,
            &apps,
            &[4],
            &Organization::ALL,
            ResizableCacheSide::Data,
        );
        let (ways, sets, hybrid) = (
            edp(&cells, Organization::SelectiveWays),
            edp(&cells, Organization::SelectiveSets),
            edp(&cells, Organization::Hybrid),
        );
        // The hybrid offers a superset of configurations, so with the same
        // exhaustive static search it can only tie or win (allow a small
        // tolerance for the extra tag-bit energy it pays relative to
        // selective-ways).
        assert!(
            hybrid >= ways - 1.0 && hybrid >= sets - 1.0,
            "hybrid {hybrid:.2}% must not lose to ways {ways:.2}% or sets {sets:.2}%"
        );
    }

    #[test]
    fn inapplicable_direct_mapped_ways_is_skipped() {
        let runner = grid_runner();
        let apps = vec![spec::ammp()];
        let cells = static_grid(
            &runner,
            &apps,
            &[1],
            &[Organization::SelectiveWays, Organization::SelectiveSets],
            ResizableCacheSide::Data,
        );
        assert_eq!(
            cells.len(),
            1,
            "only selective-sets applies to a direct-mapped cache"
        );
        assert_eq!(cells[0].1, Organization::SelectiveSets);
    }

    #[test]
    fn produces_one_row_per_app() {
        let runner = tiny_runner(4_000, 16_000);
        let apps = vec![spec::ammp(), spec::su2cor()];
        let rows = static_vs_dynamic(
            &runner,
            &apps,
            &[SystemConfig::in_order()],
            Organization::SelectiveSets,
            ResizableCacheSide::Data,
        )
        .unwrap()
        .remove(0);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|(s, d)| {
            s.best.size_reduction_percent >= 0.0 && d.best.size_reduction_percent >= -1.0
        }));
    }

    #[test]
    fn strategies_both_find_savings_on_small_working_sets() {
        let runner = tiny_runner(4_000, 16_000);
        let apps = vec![spec::ammp(), spec::m88ksim()];
        let rows = static_vs_dynamic(
            &runner,
            &apps,
            &[SystemConfig::base()],
            Organization::SelectiveSets,
            ResizableCacheSide::Data,
        )
        .unwrap()
        .remove(0);
        let static_mean = mean(
            &rows
                .iter()
                .map(|(s, _)| s.best.edp_reduction_percent)
                .collect::<Vec<_>>(),
        );
        let dynamic_mean = mean(
            &rows
                .iter()
                .map(|(_, d)| d.best.edp_reduction_percent)
                .collect::<Vec<_>>(),
        );
        assert!(
            static_mean > 2.0,
            "static should save energy-delay, got {static_mean:.1}%"
        );
        assert!(
            dynamic_mean > 0.0,
            "dynamic should save energy-delay, got {dynamic_mean:.1}%"
        );
    }

    #[test]
    fn dual_resizing_is_roughly_additive_for_small_working_sets() {
        let runner = tiny_runner(4_000, 16_000);
        let apps = vec![spec::ammp(), spec::m88ksim()];
        let outcomes = dual_resizing(
            &runner,
            &apps,
            &SystemConfig::base(),
            Organization::SelectiveSets,
        )
        .unwrap();
        assert_eq!(outcomes.len(), 2);
        for outcome in &outcomes {
            let app = &outcome.d_alone.app;
            assert!(!app.is_empty());
            let [d, i, both] = outcome.edp_reductions();
            assert!(
                both > d.max(i) - 1.0,
                "{app}: resizing both ({both:.1}%) should beat either alone ({d:.1}% / {i:.1}%)"
            );
            let stacked = outcome.stacked_edp_reduction();
            assert!(
                (both - stacked).abs() < 7.0,
                "{app}: combined saving {both:.1}% should be close to the stacked {stacked:.1}%"
            );
        }
    }

    #[test]
    fn size_reductions_are_normalised_to_the_combined_capacity() {
        let runner = tiny_runner(2_000, 8_000);
        let apps = vec![spec::ammp()];
        let outcomes = dual_resizing(
            &runner,
            &apps,
            &SystemConfig::base(),
            Organization::SelectiveSets,
        )
        .unwrap();
        let [d, i, both] = outcomes[0].size_reductions();
        // Resizing only one 32K cache of the 64K total can never exceed 50%.
        assert!(d <= 50.0);
        assert!(i <= 50.0);
        assert!(both <= 100.0);
        assert!(both >= d);
    }
}
