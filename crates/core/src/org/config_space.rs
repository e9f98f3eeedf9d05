//! The set of cache configurations an organization offers for a given base
//! cache.

use rescache_cache::CacheConfig;

use crate::error::CoreError;
use crate::org::{CachePoint, Organization};

/// The ordered (largest to smallest) list of configurations an organization
/// offers for one base cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigSpace {
    config: CacheConfig,
    organization: Organization,
    points: Vec<CachePoint>,
}

impl ConfigSpace {
    /// Enumerates the configurations `organization` offers for `config`.
    ///
    /// * Selective-ways offers every way count from the full associativity
    ///   down to one way, at the full set count.
    /// * Selective-sets offers every power-of-two set count from the full
    ///   number of sets down to one subarray per way, at full associativity.
    /// * Hybrid offers the cross product of the two, with redundant sizes
    ///   collapsed onto the highest-associativity point (the paper's Table 1
    ///   rule: "the hybrid cache offers the highest set-associativity to
    ///   minimize miss ratio").
    ///
    /// Points are sorted by decreasing capacity; the first point is always
    /// the full-size cache.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] if the base configuration is invalid, or
    /// [`CoreError::Inapplicable`] if the organization cannot offer any size
    /// other than the full cache (e.g. selective-ways on a direct-mapped
    /// cache).
    pub fn enumerate(config: CacheConfig, organization: Organization) -> Result<Self, CoreError> {
        config.validate()?;
        let full_sets = config.num_sets();
        let min_sets = config.min_sets();
        let assoc = config.associativity;

        let mut points: Vec<CachePoint> = Vec::new();
        match organization {
            Organization::SelectiveWays => {
                for ways in (1..=assoc).rev() {
                    points.push(CachePoint {
                        sets: full_sets,
                        ways,
                    });
                }
            }
            Organization::SelectiveSets => {
                let mut sets = full_sets;
                while sets >= min_sets {
                    points.push(CachePoint { sets, ways: assoc });
                    if sets == min_sets {
                        break;
                    }
                    sets /= 2;
                }
            }
            Organization::Hybrid => {
                let mut sets = full_sets;
                loop {
                    for ways in (1..=assoc).rev() {
                        points.push(CachePoint { sets, ways });
                    }
                    if sets == min_sets {
                        break;
                    }
                    sets /= 2;
                }
            }
        }

        let block = config.block_bytes;
        // Sort by decreasing size; among equal sizes keep the highest
        // associativity first, then drop the redundant smaller-associativity
        // duplicates.
        points.sort_by(|a, b| {
            b.bytes(block)
                .cmp(&a.bytes(block))
                .then(b.ways.cmp(&a.ways))
        });
        points.dedup_by_key(|p| p.bytes(block));

        if points.len() < 2 {
            return Err(CoreError::Inapplicable {
                detail: format!(
                    "{organization} offers no size other than the full cache for {}K {}-way",
                    config.size_bytes / 1024,
                    assoc
                ),
            });
        }
        Ok(Self {
            config,
            organization,
            points,
        })
    }

    /// The base cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The organization that produced this space.
    pub fn organization(&self) -> Organization {
        self.organization
    }

    /// The offered points, largest first.
    pub fn points(&self) -> &[CachePoint] {
        &self.points
    }

    /// Number of offered points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `false`: a config space always offers at least two points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The offered capacities in bytes, largest first.
    pub fn sizes_bytes(&self) -> Vec<u64> {
        self.points
            .iter()
            .map(|p| p.bytes(self.config.block_bytes))
            .collect()
    }

    /// The index of the full-size point (always 0).
    pub fn full_index(&self) -> usize {
        0
    }

    /// The smallest offered capacity in bytes.
    pub fn min_bytes(&self) -> u64 {
        *self.sizes_bytes().last().expect("non-empty space")
    }

    /// Snaps a requested size-bound to the capacity the controller would
    /// actually be floored at: the smallest offered capacity that is at
    /// least `bytes`, with bounds beyond the full size clamped to the full
    /// size.
    ///
    /// Sweeping un-snapped bounds silently wastes simulations — two bounds
    /// that fall between the same pair of offered sizes behave identically —
    /// and a bound above the full capacity would be rejected outright by
    /// [`crate::strategy::DynamicController::new`]; snapping makes both
    /// cases explicit (see `DynamicParams::candidates`).
    pub fn snap_size_bound(&self, bytes: u64) -> u64 {
        self.sizes_bytes()[self.index_of_at_least(bytes)]
    }

    /// Index of the smallest offered point whose capacity is at least
    /// `bytes` (used to translate a size-bound into a point index).
    pub fn index_of_at_least(&self, bytes: u64) -> usize {
        let sizes = self.sizes_bytes();
        let mut idx = 0;
        for (i, size) in sizes.iter().enumerate() {
            if *size >= bytes {
                idx = i;
            } else {
                break;
            }
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(size_kib: u64, assoc: u32, org: Organization) -> ConfigSpace {
        ConfigSpace::enumerate(CacheConfig::l1_default(size_kib * 1024, assoc), org).unwrap()
    }

    #[test]
    fn selective_ways_4way_offers_paper_sizes() {
        let s = space(32, 4, Organization::SelectiveWays);
        let sizes_kib: Vec<u64> = s.sizes_bytes().iter().map(|b| b / 1024).collect();
        assert_eq!(sizes_kib, vec![32, 24, 16, 8]);
    }

    #[test]
    fn selective_sets_4way_offers_paper_sizes() {
        let s = space(32, 4, Organization::SelectiveSets);
        let sizes_kib: Vec<u64> = s.sizes_bytes().iter().map(|b| b / 1024).collect();
        assert_eq!(sizes_kib, vec![32, 16, 8, 4]);
        assert!(
            s.points().iter().all(|p| p.ways == 4),
            "associativity preserved"
        );
    }

    #[test]
    fn selective_sets_2way_reaches_2k() {
        let s = space(32, 2, Organization::SelectiveSets);
        let sizes_kib: Vec<u64> = s.sizes_bytes().iter().map(|b| b / 1024).collect();
        assert_eq!(sizes_kib, vec![32, 16, 8, 4, 2]);
    }

    #[test]
    fn selective_ways_2way_is_coarse() {
        let s = space(32, 2, Organization::SelectiveWays);
        let sizes_kib: Vec<u64> = s.sizes_bytes().iter().map(|b| b / 1024).collect();
        assert_eq!(sizes_kib, vec![32, 16]);
    }

    #[test]
    fn hybrid_4way_matches_table_1() {
        let s = space(32, 4, Organization::Hybrid);
        let sizes_kib: Vec<u64> = s.sizes_bytes().iter().map(|b| b / 1024).collect();
        assert_eq!(sizes_kib, vec![32, 24, 16, 12, 8, 6, 4, 3, 2, 1]);
        // Redundant 16K point keeps the highest associativity (4-way, not 2-way).
        let sixteen = s
            .points()
            .iter()
            .find(|p| p.bytes(32) == 16 * 1024)
            .unwrap();
        assert_eq!(sixteen.ways, 4);
        // The 24K point is the 3-way configuration.
        let twenty_four = s
            .points()
            .iter()
            .find(|p| p.bytes(32) == 24 * 1024)
            .unwrap();
        assert_eq!(twenty_four.ways, 3);
    }

    #[test]
    fn hybrid_is_superset_of_both_organizations() {
        for assoc in [2u32, 4, 8, 16] {
            let hybrid = space(32, assoc, Organization::Hybrid);
            let hybrid_sizes = hybrid.sizes_bytes();
            for org in [Organization::SelectiveWays, Organization::SelectiveSets] {
                let other = space(32, assoc, org);
                for size in other.sizes_bytes() {
                    assert!(
                        hybrid_sizes.contains(&size),
                        "hybrid must offer every size {org} offers ({size} bytes, {assoc}-way)"
                    );
                }
            }
        }
    }

    #[test]
    fn selective_ways_16way_is_fine_grained() {
        let s = space(32, 16, Organization::SelectiveWays);
        assert_eq!(s.len(), 16);
        assert_eq!(s.min_bytes(), 2 * 1024);
    }

    #[test]
    fn selective_sets_16way_is_coarse() {
        let s = space(32, 16, Organization::SelectiveSets);
        let sizes_kib: Vec<u64> = s.sizes_bytes().iter().map(|b| b / 1024).collect();
        assert_eq!(sizes_kib, vec![32, 16]);
    }

    #[test]
    fn direct_mapped_selective_ways_is_inapplicable() {
        let err = ConfigSpace::enumerate(
            CacheConfig::l1_default(32 * 1024, 1),
            Organization::SelectiveWays,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Inapplicable { .. }));
    }

    #[test]
    fn first_point_is_full_size() {
        for org in Organization::ALL {
            let s = space(32, 4, org);
            assert_eq!(s.points()[s.full_index()], CachePoint::full(s.config()));
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn index_of_at_least_translates_size_bounds() {
        let s = space(32, 4, Organization::SelectiveSets); // 32, 16, 8, 4 KiB
        assert_eq!(s.index_of_at_least(32 * 1024), 0);
        assert_eq!(s.index_of_at_least(16 * 1024), 1);
        assert_eq!(s.index_of_at_least(5 * 1024), 2, "8K is the smallest >= 5K");
        assert_eq!(s.index_of_at_least(1024), 3);
    }

    #[test]
    fn snap_size_bound_lands_on_offered_capacities() {
        let s = space(32, 4, Organization::SelectiveSets); // 32, 16, 8, 4 KiB
        assert_eq!(s.snap_size_bound(16 * 1024), 16 * 1024, "offered: exact");
        assert_eq!(s.snap_size_bound(5 * 1024), 8 * 1024, "between: rounds up");
        assert_eq!(s.snap_size_bound(1), 4 * 1024, "below: smallest offered");
        assert_eq!(
            s.snap_size_bound(64 * 1024),
            32 * 1024,
            "beyond full: clamped to the full size"
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let err = ConfigSpace::enumerate(
            CacheConfig::l1_default(33 * 1024, 2),
            Organization::SelectiveSets,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Cache(_)));
    }
}
