//! Resizable cache organizations and the configuration points they offer.

pub mod config_space;
pub mod table1;

pub use config_space::ConfigSpace;
pub use table1::{hybrid_grid, HybridGrid};

use rescache_cache::{Cache, CacheConfig, ResizeEffect};

/// Which cache dimension(s) an organization may resize.
///
/// The three organizations of the paper:
///
/// * `SelectiveWays` (Albonesi): a way-mask disables individual ways, so the
///   offered sizes are multiples of the way size and associativity shrinks
///   with the cache. Cheap to build (no extra tag bits, no flush of surviving
///   blocks) but unusable or coarse for low-associativity caches.
/// * `SelectiveSets` (Yang et al.): a set-mask disables power-of-two groups
///   of sets, preserving associativity but requiring the tag array of the
///   smallest size and flushes when mappings change.
/// * `Hybrid` (this paper's proposal): both masks, offering the union of the
///   two size spectra (Table 1) and always at least matching the better of
///   the other two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Organization {
    /// Resize by masking associative ways.
    SelectiveWays,
    /// Resize by masking sets (power-of-two), keeping associativity.
    SelectiveSets,
    /// Resize by masking both sets and ways.
    Hybrid,
}

impl Organization {
    /// All three organizations, in the order the paper's figures use.
    pub const ALL: [Organization; 3] = [
        Organization::SelectiveWays,
        Organization::SelectiveSets,
        Organization::Hybrid,
    ];

    /// Short label used in tables and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Organization::SelectiveWays => "selective-ways",
            Organization::SelectiveSets => "selective-sets",
            Organization::Hybrid => "hybrid",
        }
    }

    /// Whether this organization needs the enlarged ("resizing") tag array:
    /// anything that changes the number of sets does.
    pub fn needs_resizing_tag_bits(&self) -> bool {
        matches!(self, Organization::SelectiveSets | Organization::Hybrid)
    }

    /// Extra tag bits charged on every access to `cache` under this
    /// organization: the cache's resizing tag bits when the organization
    /// needs them, zero otherwise.
    pub(crate) fn tag_bits(&self, cache: &CacheConfig) -> u32 {
        if self.needs_resizing_tag_bits() {
            cache.resizing_tag_bits()
        } else {
            0
        }
    }
}

impl std::fmt::Display for Organization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One resized cache configuration: a number of enabled sets and ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CachePoint {
    /// Enabled sets.
    pub sets: u64,
    /// Enabled ways.
    pub ways: u32,
}

impl CachePoint {
    /// The full-size point of a cache configuration.
    pub fn full(config: &CacheConfig) -> Self {
        Self {
            sets: config.num_sets(),
            ways: config.associativity,
        }
    }

    /// Enabled capacity in bytes for the given block size.
    pub fn bytes(&self, block_bytes: u64) -> u64 {
        self.sets * u64::from(self.ways) * block_bytes
    }

    /// Applies this point to a cache, returning the flush effect.
    pub fn apply(&self, cache: &mut Cache) -> ResizeEffect {
        cache.resize(self.sets, self.ways)
    }
}

impl std::fmt::Display for CachePoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} sets x {} ways", self.sets, self.ways)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescache_cache::CacheConfig;

    #[test]
    fn labels_and_display() {
        assert_eq!(Organization::SelectiveWays.label(), "selective-ways");
        assert_eq!(format!("{}", Organization::Hybrid), "hybrid");
        assert_eq!(Organization::ALL.len(), 3);
    }

    #[test]
    fn tag_overhead_only_for_set_changing_orgs() {
        assert!(!Organization::SelectiveWays.needs_resizing_tag_bits());
        assert!(Organization::SelectiveSets.needs_resizing_tag_bits());
        assert!(Organization::Hybrid.needs_resizing_tag_bits());
    }

    #[test]
    fn tag_bits_are_the_cache_resizing_bits_only_where_needed() {
        let config = CacheConfig::l1_default(32 * 1024, 4);
        assert!(config.resizing_tag_bits() > 0);
        assert_eq!(Organization::SelectiveWays.tag_bits(&config), 0);
        for org in [Organization::SelectiveSets, Organization::Hybrid] {
            assert_eq!(org.tag_bits(&config), config.resizing_tag_bits(), "{org}");
        }
    }

    #[test]
    fn point_bytes_and_apply() {
        let config = CacheConfig::l1_default(32 * 1024, 4);
        let full = CachePoint::full(&config);
        assert_eq!(full.bytes(config.block_bytes), 32 * 1024);
        let mut cache = Cache::new(config).unwrap();
        let point = CachePoint { sets: 128, ways: 3 };
        point.apply(&mut cache);
        assert_eq!(cache.enabled_bytes(), 12 * 1024);
        assert_eq!(format!("{point}"), "128 sets x 3 ways");
    }
}
