//! Replacement policies.

/// Block replacement policy used within a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Evict the least recently used block (the paper's baseline).
    #[default]
    Lru,
    /// LRU with minimum-aggregate-delay victim choice ("LRU-MAD", after the
    /// delayed-hits line of work): among the resident blocks, evict the one
    /// whose accrued fetch-plus-delayed-hit cost is lowest — it is the
    /// cheapest to lose — breaking ties toward the least recently used.
    LruMad,
}

impl ReplacementPolicy {
    /// Returns `true` if the policy weighs per-frame aggregate-delay costs
    /// (and thus needs the cache to maintain them).
    pub fn tracks_delay(&self) -> bool {
        matches!(self, ReplacementPolicy::LruMad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_lru_mad_tracks_delay() {
        assert!(ReplacementPolicy::LruMad.tracks_delay());
        assert!(!ReplacementPolicy::Lru.tracks_delay());
    }

    #[test]
    fn default_is_lru() {
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }
}
