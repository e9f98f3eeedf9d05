//! Tour of the workload registry: run every registered scenario through
//! both execution engines and print how each stress pattern lands.
//!
//! Each workload's trace is generated once and replayed by both engines.
//!
//! Run with: `cargo run --release --example workloads`

use rescache::prelude::*;

fn main() {
    let instructions = 200_000;
    let registry = WorkloadRegistry::builtin();
    println!(
        "{} registered workloads, {} instructions each (one trace per workload, both engines):",
        registry.len(),
        instructions
    );
    println!();
    println!(
        "{:<16} {:>8} {:>8} {:>9} {:>9} {:>9}  intent",
        "workload", "ooo IPC", "ino IPC", "l1d miss", "l1i miss", "mispred"
    );

    for spec in registry.specs() {
        let trace = TraceGenerator::new(spec.profile(), 42).generate(instructions);

        let mut ooo_h = MemoryHierarchy::new(HierarchyConfig::base()).expect("base hierarchy");
        let ooo = Simulator::new(CpuConfig::base_out_of_order()).run(&trace, &mut ooo_h);

        let mut ino_h = MemoryHierarchy::new(HierarchyConfig::base()).expect("base hierarchy");
        let ino = Simulator::new(CpuConfig::base_in_order()).run(&trace, &mut ino_h);

        println!(
            "{:<16} {:>8.2} {:>8.2} {:>8.1}% {:>8.1}% {:>8.1}%  {}",
            spec.name,
            ooo.ipc(),
            ino.ipc(),
            ooo_h.l1d().stats().miss_ratio() * 100.0,
            ooo_h.l1i().stats().miss_ratio() * 100.0,
            ooo.branch.mispredict_ratio() * 100.0,
            spec.intent
        );
    }

    println!();
    println!(
        "(out-of-order: 4-wide, 64 ROB, 8 MSHRs; in-order: blocking d-cache. \
         Both over the paper's base 32K/32K/512K hierarchy.)"
    );
}
