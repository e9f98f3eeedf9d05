//! The simulated system: processor configuration plus memory hierarchy, and
//! which L1 cache(s) an experiment resizes.

use rescache_cache::{CacheConfig, HierarchyConfig};
use rescache_cpu::CpuConfig;

/// Which L1 cache a resizing organization/strategy is applied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResizableCacheSide {
    /// Resize the L1 data cache.
    Data,
    /// Resize the L1 instruction cache.
    Instruction,
}

impl ResizableCacheSide {
    /// Both sides, d-cache first (the order the paper's figures use).
    pub const ALL: [ResizableCacheSide; 2] =
        [ResizableCacheSide::Data, ResizableCacheSide::Instruction];

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            ResizableCacheSide::Data => "d-cache",
            ResizableCacheSide::Instruction => "i-cache",
        }
    }

    /// The cache configuration of this side within a hierarchy configuration.
    pub fn config_of(&self, hierarchy: &HierarchyConfig) -> CacheConfig {
        match self {
            ResizableCacheSide::Data => hierarchy.l1d,
            ResizableCacheSide::Instruction => hierarchy.l1i,
        }
    }
}

impl std::fmt::Display for ResizableCacheSide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A complete simulated system: processor plus memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    /// The processor configuration.
    pub cpu: CpuConfig,
    /// The memory hierarchy configuration.
    pub hierarchy: HierarchyConfig,
}

impl SystemConfig {
    /// The paper's base system (Table 2): four-way out-of-order issue,
    /// non-blocking 32K 2-way L1s, 512K 4-way L2.
    pub fn base() -> Self {
        Self {
            cpu: CpuConfig::base_out_of_order(),
            hierarchy: HierarchyConfig::base(),
        }
    }

    /// The paper's alternative processor: in-order issue with a blocking
    /// d-cache, same memory hierarchy.
    pub fn in_order() -> Self {
        Self {
            cpu: CpuConfig::base_in_order(),
            hierarchy: HierarchyConfig::base(),
        }
    }

    /// The base system with both L1s set to `size_bytes` and `associativity`
    /// (used by the associativity sweeps of Figures 4 and 6).
    pub fn with_l1(size_bytes: u64, associativity: u32) -> Self {
        Self {
            cpu: CpuConfig::base_out_of_order(),
            hierarchy: HierarchyConfig::with_l1(size_bytes, associativity),
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescache_cpu::EngineKind;

    #[test]
    fn base_matches_table_2() {
        let s = SystemConfig::base();
        assert_eq!(s.cpu.issue_width, 4);
        assert_eq!(s.hierarchy.l1d.size_bytes, 32 * 1024);
        assert_eq!(s.hierarchy.l1d.associativity, 2);
        assert_eq!(s.hierarchy.l2.size_bytes, 512 * 1024);
        assert_eq!(s.cpu.engine, EngineKind::OutOfOrderNonBlocking);
    }

    #[test]
    fn in_order_variant() {
        assert_eq!(
            SystemConfig::in_order().cpu.engine,
            EngineKind::InOrderBlocking
        );
    }

    #[test]
    fn with_l1_changes_both_l1s() {
        let s = SystemConfig::with_l1(32 * 1024, 8);
        assert_eq!(s.hierarchy.l1i.associativity, 8);
        assert_eq!(s.hierarchy.l1d.associativity, 8);
    }

    #[test]
    fn side_accessors() {
        let s = SystemConfig::base();
        assert_eq!(
            ResizableCacheSide::Data.config_of(&s.hierarchy),
            s.hierarchy.l1d
        );
        assert_eq!(
            ResizableCacheSide::Instruction.config_of(&s.hierarchy),
            s.hierarchy.l1i
        );
        assert_eq!(ResizableCacheSide::Data.label(), "d-cache");
        assert_eq!(format!("{}", ResizableCacheSide::Instruction), "i-cache");
        assert_eq!(ResizableCacheSide::ALL.len(), 2);
    }
}
