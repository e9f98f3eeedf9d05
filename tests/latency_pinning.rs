//! Bit-identity pinning of the simulated timing and energy.
//!
//! These goldens (warmup 6k / measure 18k, seed 42, interval 256) cover
//! four registry workloads on both engines, across a base run, a statically
//! shrunk run and a dynamically controlled run; any drift in cycles, energy
//! bits, miss-ratio bits, mean-size bits or resize counts fails here.
//!
//! The `InOrderBlocking` rows date from before the delayed-hit accounting,
//! the MSHR issue timestamps and the fused `lookup_retire` pass, none of
//! which changed anything observable. The `OutOfOrderNonBlocking` rows were
//! re-captured when the non-blocking engine began pricing hit-under-fill: a
//! load that hits a block whose fill is still in flight now completes at
//! `max(fill ready, ready + hit latency)` instead of after the hit latency
//! alone. That changes timing only, never cache contents, so the miss-ratio
//! and mean-size bits are the same as before.
//!
//! The bit patterns are `f64::to_bits()` of the respective measurement
//! fields, so equality is exact — not epsilon-close.

use rescache::prelude::*;
use rescache_core::experiment::RunSetup;
use rescache_trace::WorkloadRegistry;

struct Golden {
    base_cycles: u64,
    base_energy_bits: u64,
    base_l1d_miss_bits: u64,
    base_l1i_miss_bits: u64,
    small_cycles: u64,
    small_energy_bits: u64,
    small_l1d_miss_bits: u64,
    dyn_cycles: u64,
    dyn_energy_bits: u64,
    dyn_mean_bytes_bits: u64,
    dyn_resizes: u64,
}

fn fast_config() -> RunnerConfig {
    RunnerConfig {
        warmup_instructions: 6_000,
        measure_instructions: 18_000,
        trace_seed: 42,
        dynamic_interval: 256,
        ..RunnerConfig::fast()
    }
}

#[rustfmt::skip]
fn goldens() -> Vec<(&'static str, &'static str, Golden)> {
    vec![
        ("nominal", "InOrderBlocking", Golden { base_cycles: 48628, base_energy_bits: 0x418374f15eafe148, base_l1d_miss_bits: 0x3faa7efe1217c08c, base_l1i_miss_bits: 0x3f7d208a5a912e32, small_cycles: 71976, small_energy_bits: 0x41865108ad53f0a3, small_l1d_miss_bits: 0x3fd765ff3a6fe69e, dyn_cycles: 65034, dyn_energy_bits: 0x4185be9815a48915, dyn_mean_bytes_bits: 0x40cd5b9f1ae1c61f, dyn_resizes: 21 }),
        ("nominal", "OutOfOrderNonBlocking", Golden { base_cycles: 24512, base_energy_bits: 0x417d94e4fad06667, base_l1d_miss_bits: 0x3faa7efe1217c08c, base_l1i_miss_bits: 0x3f7d208a5a912e32, small_cycles: 27225, small_energy_bits: 0x417b53fb22f9cccd, small_l1d_miss_bits: 0x3fd765ff3a6fe69e, dyn_cycles: 26283, dyn_energy_bits: 0x417c800e506aeb46, dyn_mean_bytes_bits: 0x40cd5b9f1ae1c61f, dyn_resizes: 21 }),
        ("phase_flip", "InOrderBlocking", Golden { base_cycles: 46115, base_energy_bits: 0x4182fad00e9be147, base_l1d_miss_bits: 0x3fa87b5740e3b4c7, base_l1i_miss_bits: 0x3f7d208a5a912e32, small_cycles: 51350, small_energy_bits: 0x4181ba5f6d14051f, small_l1d_miss_bits: 0x3fbdf21b725c8171, dyn_cycles: 59539, dyn_energy_bits: 0x4183e2b90bdf6833, dyn_mean_bytes_bits: 0x40bd37101865a790, dyn_resizes: 23 }),
        ("phase_flip", "OutOfOrderNonBlocking", Golden { base_cycles: 23579, base_energy_bits: 0x417d3d2727753333, base_l1d_miss_bits: 0x3fa87b5740e3b4c7, base_l1i_miss_bits: 0x3f7d208a5a912e32, small_cycles: 24094, small_energy_bits: 0x4178ea8fac138f5d, small_l1d_miss_bits: 0x3fbdf21b725c8171, dyn_cycles: 25168, dyn_energy_bits: 0x417a7aa40dd4f98a, dyn_mean_bytes_bits: 0x40bd37101865a790, dyn_resizes: 23 }),
        ("pointer_chase", "InOrderBlocking", Golden { base_cycles: 146732, base_energy_bits: 0x4194aa5c02b3eb84, base_l1d_miss_bits: 0x3fe0e0e9d4a6f37e, base_l1i_miss_bits: 0x3f6d208a5a912e32, small_cycles: 187365, small_energy_bits: 0x4197588ee7cb851f, small_l1d_miss_bits: 0x3fedbd5e4027a1e0, dyn_cycles: 146732, dyn_energy_bits: 0x4194b1a362550000, dyn_mean_bytes_bits: 0x40e0000000000000, dyn_resizes: 0 }),
        ("pointer_chase", "OutOfOrderNonBlocking", Golden { base_cycles: 81065, base_energy_bits: 0x418ca026760bae14, base_l1d_miss_bits: 0x3fe0e0e9d4a6f37e, base_l1i_miss_bits: 0x3f6d208a5a912e32, small_cycles: 98724, small_energy_bits: 0x418d8da58a266667, small_l1d_miss_bits: 0x3fedbd5e4027a1e0, dyn_cycles: 81065, dyn_energy_bits: 0x418caeb5354dd70a, dyn_mean_bytes_bits: 0x40e0000000000000, dyn_resizes: 0 }),
        ("mshr_burst", "InOrderBlocking", Golden { base_cycles: 536108, base_energy_bits: 0x41ae5796c49363d7, base_l1d_miss_bits: 0x3fec8e5fd431488e, base_l1i_miss_bits: 0x3f7d208a5a912e32, small_cycles: 546908, small_energy_bits: 0x41adfad2f4343852, small_l1d_miss_bits: 0x3fef97f50c522398, dyn_cycles: 536108, dyn_energy_bits: 0x41ae5b941f9e3ae2, dyn_mean_bytes_bits: 0x40e0000000000000, dyn_resizes: 0 }),
        ("mshr_burst", "OutOfOrderNonBlocking", Golden { base_cycles: 57748, base_energy_bits: 0x418cd0964580c28f, base_l1d_miss_bits: 0x3fec8e5fd431488e, base_l1i_miss_bits: 0x3f7d208a5a912e32, small_cycles: 58399, small_energy_bits: 0x418977882641851f, small_l1d_miss_bits: 0x3fef97f50c522398, dyn_cycles: 57748, dyn_energy_bits: 0x418ce08bb1ac1eb8, dyn_mean_bytes_bits: 0x40e0000000000000, dyn_resizes: 0 }),
    ]
}

fn system_for(engine: &str) -> SystemConfig {
    match engine {
        "InOrderBlocking" => SystemConfig::in_order(),
        "OutOfOrderNonBlocking" => SystemConfig::base(),
        other => panic!("unknown engine tag {other}"),
    }
}

#[test]
fn defaults_are_bit_identical_to_the_pre_refactor_tree() {
    let registry = WorkloadRegistry::builtin();
    let runner = Runner::new(fast_config());

    for (workload, engine, golden) in goldens() {
        let profile = registry
            .get(workload)
            .expect("registered workload")
            .profile();
        let system = system_for(engine);
        assert_eq!(
            format!("{:?}", system.cpu.engine),
            engine,
            "system/engine tag mismatch in the golden table"
        );
        let label = format!("{workload}/{engine}");

        // Base run: the unmodified hierarchy.
        let base = runner.run_static(&profile, &system, None, None, 0, 0);
        assert_eq!(base.cycles, golden.base_cycles, "{label}: base cycles");
        assert_eq!(
            base.energy_pj.to_bits(),
            golden.base_energy_bits,
            "{label}: base energy bits"
        );
        assert_eq!(
            base.l1d_miss_ratio.to_bits(),
            golden.base_l1d_miss_bits,
            "{label}: base l1d miss bits"
        );
        assert_eq!(
            base.l1i_miss_ratio.to_bits(),
            golden.base_l1i_miss_bits,
            "{label}: base l1i miss bits"
        );

        // Statically shrunk d-cache (64 sets x 2 ways, 4 extra tag bits).
        let small_point = CachePoint { sets: 64, ways: 2 };
        let small = runner.run_static(&profile, &system, Some(small_point), None, 4, 0);
        assert_eq!(small.cycles, golden.small_cycles, "{label}: small cycles");
        assert_eq!(
            small.energy_pj.to_bits(),
            golden.small_energy_bits,
            "{label}: small energy bits"
        );
        assert_eq!(
            small.l1d_miss_ratio.to_bits(),
            golden.small_l1d_miss_bits,
            "{label}: small l1d miss bits"
        );

        // Dynamically controlled run over the selective-sets space.
        let space = ConfigSpace::enumerate(
            ResizableCacheSide::Data.config_of(&system.hierarchy),
            Organization::SelectiveSets,
        )
        .expect("selective-sets applies to the base d-cache");
        let params = DynamicParams::new(256, 64, space.min_bytes()).expect("valid params");
        let dyn_setup = RunSetup {
            dynamic: Some((ResizableCacheSide::Data, space, params)),
            d_tag_bits: 4,
            ..RunSetup::default()
        };
        let dynamic = runner.run_dynamic(&profile, &system, &dyn_setup, |_| {});
        assert_eq!(dynamic.cycles, golden.dyn_cycles, "{label}: dynamic cycles");
        assert_eq!(
            dynamic.energy_pj.to_bits(),
            golden.dyn_energy_bits,
            "{label}: dynamic energy bits"
        );
        assert_eq!(
            dynamic.l1d_mean_bytes.to_bits(),
            golden.dyn_mean_bytes_bits,
            "{label}: dynamic mean-size bits"
        );
        assert_eq!(
            dynamic.l1d_resizes, golden.dyn_resizes,
            "{label}: dynamic resize count"
        );
    }
}
