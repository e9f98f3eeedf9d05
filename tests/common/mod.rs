//! An independent oracle for the experiment runner's measurements.
//!
//! [`measure`] rebuilds one experiment from the crates' public parts: a
//! trace generated here, [`CachePoint::apply`],
//! [`Simulator::run_warm_measure`] and
//! `EnergyModel::with_overhead(..).breakdown_snapshot`. It uses no
//! `Runner`, trace store or simulation memo, so the runner's memoized
//! static path (`Runner::run_static`) and its dynamic path
//! (`Runner::run_dynamic`, whatever its decision observer does) can both
//! be required to match it bit for bit.

use rescache::core::experiment::{Measurement, RunSetup, RunnerConfig};
use rescache::energy::ResizingTagOverhead;
use rescache::prelude::*;

/// `app`'s full trace (warm-up region, then measured region) under
/// `config`, generated afresh.
pub fn trace(app: &AppProfile, config: &RunnerConfig) -> Trace {
    let total = config.warmup_instructions + config.measure_instructions;
    TraceGenerator::new(app.clone(), config.trace_seed).generate(total)
}

/// One experiment over `trace`: the L1 `points` (d-cache, i-cache; `None`
/// is full size) applied to a fresh hierarchy, `config`'s warm-up and
/// measured regions on `system`'s engine with `setup`'s controller (if
/// any) attached, priced with `setup`'s resizing-tag-bit overheads.
pub fn measure(
    trace: &Trace,
    config: &RunnerConfig,
    system: &SystemConfig,
    (d_point, i_point): (Option<CachePoint>, Option<CachePoint>),
    setup: &RunSetup,
) -> Measurement {
    let mut hierarchy = MemoryHierarchy::new(system.hierarchy).expect("valid hierarchy");
    if let Some(point) = d_point {
        let effect = point.apply(hierarchy.l1d_mut());
        hierarchy.note_resize_flush_writebacks(effect.dirty_writebacks);
    }
    if let Some(point) = i_point {
        let effect = point.apply(hierarchy.l1i_mut());
        hierarchy.note_resize_flush_writebacks(effect.dirty_writebacks);
    }
    let mut controller = setup.dynamic.clone().map(|(side, space, params)| {
        DynamicController::new(side, space, params).expect("valid params")
    });
    let mut noop = NoopHook;
    let hook: &mut dyn SimHook = match controller.as_mut() {
        Some(controller) => controller,
        None => &mut noop,
    };
    let result = Simulator::new(system.cpu).run_warm_measure(
        trace.records(),
        config.warmup_instructions,
        config.measure_instructions,
        &mut hierarchy,
        hook,
    );
    let snapshot = hierarchy.snapshot();
    let overhead = ResizingTagOverhead {
        l1i_bits: setup.i_tag_bits,
        l1d_bits: setup.d_tag_bits,
    };
    let breakdown = EnergyModel::with_overhead(&system.hierarchy, overhead)
        .breakdown_snapshot(&result, &snapshot);
    Measurement {
        cycles: result.cycles,
        ipc: result.ipc(),
        energy_pj: breakdown.total_pj(),
        breakdown,
        l1d_mean_bytes: snapshot
            .l1d
            .mean_enabled_bytes(system.hierarchy.l1d.block_bytes),
        l1i_mean_bytes: snapshot
            .l1i
            .mean_enabled_bytes(system.hierarchy.l1i.block_bytes),
        l1d_miss_ratio: snapshot.l1d.miss_ratio(),
        l1i_miss_ratio: snapshot.l1i.miss_ratio(),
        l1d_resizes: snapshot.l1d.resizes,
        l1i_resizes: snapshot.l1i.resizes,
        latency: result.latency,
    }
}
