//! Differential test for the functional warm-up: `Simulator::run_warm_measure`
//! replays the warm-up region through the memory hierarchy alone, and must
//! leave exactly the state that timing the warm-up region on the engine
//! leaves.
//!
//! The reference is the sequence the functional warm-up replaces: a timed
//! engine run over the warm-up region, `reset_stats`, then a timed engine
//! run over the measured region, on one hierarchy and one hook. For every
//! SPEC profile and registry workload, on both engines, at full size, at the
//! smallest selective-sets and selective-ways points and under one dynamic
//! controller, the two must agree in the measured `SimResult`, the final
//! hierarchy snapshot and every resize decision. A hand-built trace pins the
//! order of the two accesses within a record, which the unified L2's LRU
//! state can see.

use rescache::prelude::*;
use rescache_cache::HierarchySnapshot;
use rescache_cpu::{inorder, ooo};
use rescache_trace::{InstrRecord, Op};

const WARM: usize = 8_000;
const MEASURE: usize = 4_000;
const SEED: u64 = 42;

/// One engine invocation over `records`: what `Simulator::run` does, with a
/// hook attached.
fn timed_region(
    cpu: CpuConfig,
    records: &[InstrRecord],
    hierarchy: &mut MemoryHierarchy,
    hook: &mut dyn SimHook,
) -> SimResult {
    match cpu.engine {
        EngineKind::InOrderBlocking => inorder::run(&cpu, records, hierarchy, hook),
        EngineKind::OutOfOrderNonBlocking => ooo::run(&cpu, records, hierarchy, hook),
    }
}

/// How a case configures its hierarchy and hook.
#[derive(Debug, Clone)]
enum Setup {
    /// Both L1s at this static point (`None`: full size), no hook.
    Static(Option<CachePoint>),
    /// A dynamic controller on one side, full-size L1s to start.
    Dynamic(ResizableCacheSide, ConfigSpace, DynamicParams),
}

/// The measured result, the final snapshot and the resize decisions of one
/// warm-up + measure sequence.
type Outcome = (SimResult, HierarchySnapshot, Vec<ResizeDecision>);

/// One case's hook: its controller (none for a static setup), keeping
/// every decision the controller's steps return.
struct Recorder {
    controller: Option<DynamicController>,
    decisions: Vec<ResizeDecision>,
}

impl SimHook for Recorder {
    fn post_commit(&mut self, _committed: u64, hierarchy: &mut MemoryHierarchy) {
        if let Some(controller) = &mut self.controller {
            self.decisions.extend(controller.step(hierarchy));
        }
    }
}

/// Runs `setup` over `records`, the first `warm` of them the warm-up
/// region and the rest the measured region, with the functional warm-up
/// (`functional`) or the timed reference. Also returns how many decisions
/// the timed reference took during its warm-up (0 for the functional run,
/// which cannot tell).
fn run(
    system: &SystemConfig,
    records: &[InstrRecord],
    warm: usize,
    setup: &Setup,
    functional: bool,
) -> (Outcome, usize) {
    let mut hierarchy = MemoryHierarchy::new(system.hierarchy).expect("valid hierarchy");
    let controller = match setup {
        Setup::Static(point) => {
            if let Some(point) = point {
                point.apply(hierarchy.l1d_mut());
                point.apply(hierarchy.l1i_mut());
            }
            None
        }
        Setup::Dynamic(side, space, params) => {
            Some(DynamicController::new(*side, space.clone(), *params).expect("valid params"))
        }
    };
    let mut hook = Recorder {
        controller,
        decisions: Vec::new(),
    };
    let mut warmup_decisions = 0;
    let result = if functional {
        let measure = records.len() - warm;
        Simulator::new(system.cpu).run_warm_measure(
            records,
            warm,
            measure,
            &mut hierarchy,
            &mut hook,
        )
    } else {
        timed_region(system.cpu, &records[..warm], &mut hierarchy, &mut hook);
        warmup_decisions = hook.decisions.len();
        hierarchy.reset_stats();
        timed_region(system.cpu, &records[warm..], &mut hierarchy, &mut hook)
    };
    (
        (result, hierarchy.snapshot(), hook.decisions),
        warmup_decisions,
    )
}

fn profiles() -> Vec<AppProfile> {
    let mut profiles = spec::all_profiles();
    profiles.extend(WorkloadRegistry::builtin().profiles());
    profiles
}

/// The smallest point `organization` offers on the base L1.
fn smallest(organization: Organization) -> CachePoint {
    let cache = HierarchyConfig::base().l1d;
    let space = ConfigSpace::enumerate(cache, organization).expect("base L1 resizes");
    *space
        .points()
        .iter()
        .min_by_key(|p| p.bytes(cache.block_bytes))
        .expect("non-empty space")
}

/// A controller with a short interval, so it decides many times in both
/// regions, on the data side for even profile indices and the instruction
/// side for odd ones.
fn dynamic(index: usize) -> Setup {
    let side = if index.is_multiple_of(2) {
        ResizableCacheSide::Data
    } else {
        ResizableCacheSide::Instruction
    };
    let space = ConfigSpace::enumerate(
        side.config_of(&HierarchyConfig::base()),
        Organization::SelectiveSets,
    )
    .expect("base L1 resizes");
    let params = DynamicParams::new(256, 4, space.min_bytes()).expect("valid params");
    Setup::Dynamic(side, space, params)
}

#[test]
fn functional_warmup_matches_the_timed_warmup_everywhere() {
    let profiles = profiles();
    assert_eq!(
        profiles.len(),
        21,
        "12 SPEC profiles and 9 registry workloads"
    );
    let mut decisions = 0;
    let mut warmup_decisions = 0;
    for (index, profile) in profiles.iter().enumerate() {
        let trace = TraceGenerator::new(profile.clone(), SEED).generate(WARM + MEASURE);
        let setups = [
            Setup::Static(None),
            Setup::Static(Some(smallest(Organization::SelectiveSets))),
            Setup::Static(Some(smallest(Organization::SelectiveWays))),
            dynamic(index),
        ];
        for system in [SystemConfig::base(), SystemConfig::in_order()] {
            for setup in &setups {
                let label = format!("{} {:?} {setup:?}", profile.name, system.cpu.engine);
                let (functional, _) = run(&system, trace.records(), WARM, setup, true);
                let (timed, in_warmup) = run(&system, trace.records(), WARM, setup, false);
                assert_eq!(functional.0, timed.0, "SimResult diverged: {label}");
                assert_eq!(functional.1, timed.1, "snapshot diverged: {label}");
                assert_eq!(functional.2, timed.2, "resize decisions diverged: {label}");
                decisions += timed.2.len();
                warmup_decisions += in_warmup;
            }
        }
    }
    // Not vacuous: the controllers resized, and did so during warm-ups.
    assert!(
        warmup_decisions > 21 && decisions > warmup_decisions + 21,
        "{decisions} resize decisions, {warmup_decisions} of them in warm-ups"
    );
}

#[test]
fn functional_warmup_keeps_the_access_order_within_a_record() {
    // Every warm-up block below maps to L2 set 0 (4-way, sets 128 KiB
    // apart). Records 1 and 2 each fetch a new code block and load a new
    // data block; record 3 stays in record 2's fetch group and loads a
    // fifth block, which evicts the set's least recently used line: `p1`
    // when the fetch of record 1 came before its load, `a1` otherwise.
    // The measured load of `a1` then hits in the L2 or goes to memory.
    const SET_STRIDE: u64 = 128 * 1024;
    let (p1, p2) = (0x40_0000, 0x40_0000 + SET_STRIDE);
    let a = |k: u64| 0x1000_0000 + k * SET_STRIDE;
    let records = [
        InstrRecord::new(p1, Op::Load(a(0))),
        InstrRecord::new(p2, Op::Load(a(1))),
        InstrRecord::new(p2 + 4, Op::Load(a(2))),
        InstrRecord::new(p1 + 0x40, Op::Load(a(0))),
    ];
    for system in [SystemConfig::base(), SystemConfig::in_order()] {
        let (functional, _) = run(&system, &records, 3, &Setup::Static(None), true);
        let (timed, _) = run(&system, &records, 3, &Setup::Static(None), false);
        assert_eq!(functional, timed, "{:?}", system.cpu.engine);
        assert_eq!(
            (timed.1.l2.accesses, timed.1.l2.misses()),
            (2, 1),
            "the measured load of a1 hits in the L2 ({:?})",
            system.cpu.engine
        );
    }
}
