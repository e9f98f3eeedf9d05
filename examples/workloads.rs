//! Tour of the workload registry: stream every registered scenario through
//! both execution engines and print how each stress pattern lands.
//!
//! Each workload is simulated through the streaming path
//! ([`Simulator::run_source`] over a [`TraceStream`]), so no trace is ever
//! materialized — generation and simulation interleave chunk by chunk.
//!
//! Run with: `cargo run --release --example workloads`

use rescache::prelude::*;

fn main() {
    let instructions = 200_000;
    let registry = WorkloadRegistry::builtin();
    println!(
        "{} registered workloads, {} instructions each (streamed, nothing materialized):",
        registry.len(),
        instructions
    );
    println!();
    println!(
        "{:<16} {:>8} {:>8} {:>9} {:>9} {:>9}  intent",
        "workload", "ooo IPC", "ino IPC", "l1d miss", "l1i miss", "mispred"
    );

    for spec in registry.specs() {
        let profile = spec.profile();
        let generator = TraceGenerator::new(profile, 42);

        let mut ooo_h = MemoryHierarchy::new(HierarchyConfig::base()).expect("base hierarchy");
        let ooo = Simulator::new(CpuConfig::base_out_of_order()).run_source(
            &mut generator.stream(instructions),
            &mut ooo_h,
            &mut NoopHook,
        );

        let mut ino_h = MemoryHierarchy::new(HierarchyConfig::base()).expect("base hierarchy");
        let ino = Simulator::new(CpuConfig::base_in_order()).run_source(
            &mut generator.stream(instructions),
            &mut ino_h,
            &mut NoopHook,
        );

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
