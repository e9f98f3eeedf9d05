//! The whole-processor energy model: activity counters + cache statistics →
//! a per-structure energy breakdown.

use rescache_cache::{HierarchyConfig, HierarchySnapshot, MemoryHierarchy};
use rescache_cpu::SimResult;

use crate::cache_energy::{CacheEnergyModel, PrechargePolicy};
use crate::metrics::EnergyDelay;
use crate::processor::ProcessorEnergyParams;
use crate::technology::Technology;

/// Per-structure energy of one simulation, in picojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// L1 instruction cache switching energy.
    pub l1i_pj: f64,
    /// L1 data cache switching energy.
    pub l1d_pj: f64,
    /// Unified L2 switching energy (including resize-flush writebacks).
    pub l2_pj: f64,
    /// Off-chip access energy.
    pub memory_pj: f64,
    /// Core pipeline structures (rename, window, ROB, LSQ, register file,
    /// ALUs, branch predictor, result bus).
    pub core_pj: f64,
    /// Clock tree and residual per-cycle energy.
    pub clock_pj: f64,
    /// Leakage of the three caches (scales with enabled capacity).
    pub leakage_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.l1i_pj
            + self.l1d_pj
            + self.l2_pj
            + self.memory_pj
            + self.core_pj
            + self.clock_pj
            + self.leakage_pj
    }

    /// Fraction of total energy dissipated in the L1 d-cache.
    pub fn l1d_fraction(&self) -> f64 {
        let total = self.total_pj();
        if total == 0.0 {
            0.0
        } else {
            self.l1d_pj / total
        }
    }

    /// Fraction of total energy dissipated in the L1 i-cache.
    pub fn l1i_fraction(&self) -> f64 {
        let total = self.total_pj();
        if total == 0.0 {
            0.0
        } else {
            self.l1i_pj / total
        }
    }
}

/// Which L1 caches carry the selective-sets resizing-tag-bit overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResizingTagOverhead {
    /// Extra tag bits on the i-cache.
    pub l1i_bits: u32,
    /// Extra tag bits on the d-cache.
    pub l1d_bits: u32,
}

/// The whole-processor energy model.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    params: ProcessorEnergyParams,
    tech: Technology,
    l1i: CacheEnergyModel,
    l1d: CacheEnergyModel,
    l2: CacheEnergyModel,
}

impl EnergyModel {
    /// Builds an energy model for a hierarchy configuration with no resizing
    /// tag overhead.
    pub fn for_hierarchy(config: &HierarchyConfig) -> Self {
        Self::with_overhead(config, ResizingTagOverhead::default())
    }

    /// Builds an energy model, charging extra tag bits on the L1s that use a
    /// selective-sets or hybrid organization.
    pub fn with_overhead(config: &HierarchyConfig, overhead: ResizingTagOverhead) -> Self {
        let tech = Technology::default();
        Self {
            params: ProcessorEnergyParams::default(),
            tech,
            l1i: CacheEnergyModel::new(config.l1i, PrechargePolicy::AllEnabled, tech)
                .with_extra_tag_bits(overhead.l1i_bits),
            l1d: CacheEnergyModel::new(config.l1d, PrechargePolicy::AllEnabled, tech)
                .with_extra_tag_bits(overhead.l1d_bits),
            l2: CacheEnergyModel::new(config.l2, PrechargePolicy::AccessedOnly, tech),
        }
    }

    /// The L1 d-cache energy model.
    pub fn l1d_model(&self) -> &CacheEnergyModel {
        &self.l1d
    }

    /// Computes the per-structure energy of one simulation.
    pub fn breakdown(&self, result: &SimResult, hierarchy: &MemoryHierarchy) -> EnergyBreakdown {
        self.breakdown_snapshot(result, &hierarchy.snapshot())
    }

    /// Computes the per-structure energy of one simulation from a detached
    /// statistics snapshot.
    ///
    /// The energy model only reads statistics, never tag arrays, so a cached
    /// [`HierarchySnapshot`] can be re-priced under different models (e.g.
    /// with and without resizing-tag-bit overhead) without re-simulating.
    pub fn breakdown_snapshot(
        &self,
        result: &SimResult,
        snapshot: &HierarchySnapshot,
    ) -> EnergyBreakdown {
        let p = &self.params;
        let a = &result.activity;

        let core_pj = a.dispatched as f64 * (p.rename_pj + p.window_pj)
            + a.rob_accesses as f64 * p.rob_pj
            + a.lsq_accesses as f64 * p.lsq_pj
            + a.regfile_reads as f64 * p.regfile_read_pj
            + a.regfile_writes as f64 * p.regfile_write_pj
            + a.int_alu_ops as f64 * p.int_alu_pj
            + a.fp_ops as f64 * p.fp_alu_pj
            + a.bpred_accesses as f64 * p.bpred_pj
            + a.result_bus as f64 * p.result_bus_pj;

        let clock_pj = result.cycles as f64 * (p.clock_pj_per_cycle + p.other_pj_per_cycle);

        let l1i_pj = self.l1i.switching_energy_pj(&snapshot.l1i);
        let l1d_pj = self.l1d.switching_energy_pj(&snapshot.l1d);

        // L2 switching energy: regular accesses plus the dirty blocks flushed
        // into it by L1 resizes (the paper notes this traffic is minor; we
        // model it so the claim is checkable).
        let l2_sets = snapshot.l2_config.num_sets();
        let l2_assoc = snapshot.l2_config.associativity;
        let l2_pj = self.l2.switching_energy_pj(&snapshot.l2)
            + snapshot.stats.resize_flush_writebacks as f64
                * self.l2.access_energy_pj(l2_sets, l2_assoc);

        let memory_pj = snapshot.stats.memory_accesses as f64 * p.memory_access_pj;

        // The paper focuses on switching energy; leakage is small but
        // always charged.
        let leakage_pj = self.l1i.leakage_energy_pj(&snapshot.l1i, result.cycles)
            + self.l1d.leakage_energy_pj(&snapshot.l1d, result.cycles)
            + self.l2.leakage_energy_pj(&snapshot.l2, result.cycles);

        EnergyBreakdown {
            l1i_pj,
            l1d_pj,
            l2_pj,
            memory_pj,
            core_pj,
            clock_pj,
            leakage_pj,
        }
    }

    /// Convenience: computes the [`EnergyDelay`] point of one simulation.
    pub fn energy_delay(&self, result: &SimResult, hierarchy: &MemoryHierarchy) -> EnergyDelay {
        EnergyDelay::new(self.breakdown(result, hierarchy).total_pj(), result.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescache_cpu::{CpuConfig, Simulator};
    use rescache_trace::{spec, TraceGenerator};

    fn simulate(app: &str, instructions: usize) -> (SimResult, MemoryHierarchy) {
        let trace = TraceGenerator::new(spec::profile(app).unwrap(), 17).generate(instructions);
        let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let result = Simulator::new(CpuConfig::base_out_of_order()).run(&trace, &mut hierarchy);
        (result, hierarchy)
    }

    #[test]
    fn breakdown_components_are_positive() {
        let (result, hierarchy) = simulate("gcc", 20_000);
        let model = EnergyModel::for_hierarchy(&HierarchyConfig::base());
        let b = model.breakdown(&result, &hierarchy);
        assert!(b.l1i_pj > 0.0);
        assert!(b.l1d_pj > 0.0);
        assert!(b.l2_pj > 0.0);
        assert!(b.core_pj > 0.0);
        assert!(b.clock_pj > 0.0);
        assert!(b.leakage_pj > 0.0);
        assert!(b.total_pj() > b.l1d_pj);
    }

    #[test]
    fn leakage_adds_to_the_total() {
        let (result, hierarchy) = simulate("ammp", 10_000);
        let model = EnergyModel::for_hierarchy(&HierarchyConfig::base());
        let b = model.breakdown(&result, &hierarchy);
        let dynamic_only = EnergyBreakdown {
            leakage_pj: 0.0,
            ..b
        };
        assert!(b.total_pj() > dynamic_only.total_pj());
    }

    #[test]
    fn cache_fractions_are_in_the_papers_band() {
        // The paper's activity-weighted averages are 18.5 % (d-cache) and
        // 17.5 % (i-cache); the synthetic workloads should land in a band
        // around those numbers on average.
        let model = EnergyModel::for_hierarchy(&HierarchyConfig::base());
        let mut d_sum = 0.0;
        let mut i_sum = 0.0;
        let apps = ["gcc", "swim", "m88ksim", "vortex", "ijpeg", "su2cor"];
        for app in apps {
            let (result, hierarchy) = simulate(app, 20_000);
            let b = model.breakdown(&result, &hierarchy);
            d_sum += b.l1d_fraction();
            i_sum += b.l1i_fraction();
        }
        let d_mean = d_sum / apps.len() as f64;
        let i_mean = i_sum / apps.len() as f64;
        assert!(
            (0.12..=0.26).contains(&d_mean),
            "mean d-cache energy fraction {d_mean} outside the calibration band"
        );
        assert!(
            (0.10..=0.24).contains(&i_mean),
            "mean i-cache energy fraction {i_mean} outside the calibration band"
        );
    }

    #[test]
    fn energy_delay_matches_breakdown() {
        let (result, hierarchy) = simulate("vpr", 10_000);
        let model = EnergyModel::for_hierarchy(&HierarchyConfig::base());
        let ed = model.energy_delay(&result, &hierarchy);
        let b = model.breakdown(&result, &hierarchy);
        assert!((ed.energy_pj - b.total_pj()).abs() < 1e-6);
        assert_eq!(ed.cycles, result.cycles);
    }

    #[test]
    fn smaller_enabled_cache_lowers_l1d_energy() {
        let trace = TraceGenerator::new(spec::ammp(), 3).generate(20_000);
        let sim = Simulator::new(CpuConfig::base_out_of_order());
        let model = EnergyModel::for_hierarchy(&HierarchyConfig::base());

        let mut full = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        let full_result = sim.run(&trace, &mut full);
        let full_b = model.breakdown(&full_result, &full);

        let mut small = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
        small.l1d_mut().set_enabled_sets(64); // 4 KiB of 32 KiB
        let small_result = sim.run(&trace, &mut small);
        let small_b = model.breakdown(&small_result, &small);

        assert!(
            small_b.l1d_pj < full_b.l1d_pj * 0.45,
            "a 4K-enabled d-cache should spend far less than the 32K one: {} vs {}",
            small_b.l1d_pj,
            full_b.l1d_pj
        );
    }
}
