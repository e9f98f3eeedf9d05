//! Quick start: simulate one application on the paper's base system, print
//! the energy breakdown, then resize the d-cache statically and show the
//! energy-delay effect.
//!
//! Run with: `cargo run --release --example quickstart`

use rescache::prelude::*;

fn main() -> Result<(), CoreError> {
    // 1. Pick an application profile (the synthetic stand-in for SPEC95 gcc)
    //    and generate a deterministic instruction trace.
    let profile = spec::gcc();
    let trace = TraceGenerator::new(profile.clone(), 42).generate(200_000);
    println!(
        "generated {} instructions for {} ({:.1} KiB mean data working set)",
        trace.len(),
        trace.name(),
        profile.mean_data_working_set() / 1024.0
    );

    // 2. Simulate it on the base out-of-order processor with full-size caches.
    let system = SystemConfig::base();
    let mut hierarchy = MemoryHierarchy::new(system.hierarchy).expect("base hierarchy is valid");
    let sim = Simulator::new(system.cpu);
    let result = sim.run(&trace, &mut hierarchy);
    let model = EnergyModel::for_hierarchy(&system.hierarchy);
    let breakdown = model.breakdown(&result, &hierarchy);
    println!(
        "baseline: {} cycles (IPC {:.2}), d-cache miss ratio {:.1} %",
        result.cycles,
        result.ipc(),
        hierarchy.l1d().stats().miss_ratio() * 100.0
    );
    println!(
        "energy breakdown: d-cache {:.1} %, i-cache {:.1} %, total {:.2e} pJ",
        breakdown.l1d_fraction() * 100.0,
        breakdown.l1i_fraction() * 100.0,
        breakdown.total_pj()
    );

    // 3. Ask the experiment runner for the best static selective-sets d-cache
    //    size for this application (the paper's static resizing strategy).
    let runner = Runner::new(RunnerConfig::fast());
    let outcome = runner.static_best(
        &profile,
        &system,
        Organization::SelectiveSets,
        ResizableCacheSide::Data,
    )?;
    println!();
    println!("static selective-sets search over the 32K 2-way d-cache:");
    for (point, measurement) in &outcome.evaluated {
        println!(
            "  {:>5} KiB -> energy-delay {:+.1} % vs base, slowdown {:+.1} %",
            point.bytes(32) / 1024,
            measurement
                .energy_delay()
                .reduction_vs(&outcome.base.energy_delay()),
            measurement
                .energy_delay()
                .slowdown_vs(&outcome.base.energy_delay()),
        );
    }
    println!(
        "best point: {:?} -> {:.1} % energy-delay reduction with {:.1} % slowdown",
        outcome.best.choice, outcome.best.edp_reduction_percent, outcome.best.slowdown_percent
    );
    Ok(())
}
