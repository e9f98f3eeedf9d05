//! The two-level memory hierarchy: split L1 caches, a unified L2, and main
//! memory, with the paper's base latencies (Table 2).

use crate::cache::Cache;
use crate::config::{CacheConfig, CacheConfigError};
use crate::writeback::WritebackBuffer;

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierarchyConfig {
    /// L1 instruction cache configuration.
    pub l1i: CacheConfig,
    /// L1 data cache configuration.
    pub l1d: CacheConfig,
    /// Unified L2 configuration.
    pub l2: CacheConfig,
    /// Fixed portion of the memory access latency in cycles (80 in Table 2).
    pub memory_base_latency: u64,
    /// Additional cycles per 8 bytes transferred (5 in Table 2).
    pub memory_per_8_bytes: u64,
    /// Write-back buffer entries between L1D and L2 (8 in Table 2).
    pub writeback_entries: usize,
}

impl HierarchyConfig {
    /// The paper's base system: 32K 2-way L1s, 512K 4-way L2, 80 + 5/8B
    /// memory latency, 8 write-back buffer entries, LRU replacement.
    pub fn base() -> Self {
        Self {
            l1i: CacheConfig::l1_default(32 * 1024, 2),
            l1d: CacheConfig::l1_default(32 * 1024, 2),
            l2: CacheConfig::l2_default(),
            memory_base_latency: 80,
            memory_per_8_bytes: 5,
            writeback_entries: 8,
        }
    }

    /// The base system with the given L1 size and associativity for both L1s.
    pub fn with_l1(size_bytes: u64, associativity: u32) -> Self {
        Self {
            l1i: CacheConfig::l1_default(size_bytes, associativity),
            l1d: CacheConfig::l1_default(size_bytes, associativity),
            ..Self::base()
        }
    }

    /// Latency in cycles of a main-memory access for one L2 block.
    pub fn memory_latency(&self) -> u64 {
        self.memory_base_latency + self.memory_per_8_bytes * (self.l2.block_bytes / 8)
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::base()
    }
}

/// The outcome of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles, including the L1 access itself.
    pub latency: u64,
    /// Whether the access hit in the L1.
    pub l1_hit: bool,
    /// Whether the access hit in the L2 (only meaningful on an L1 miss).
    pub l2_hit: bool,
}

impl AccessResult {
    /// Classifies this access in the latency domain, given what the MSHR
    /// file knew at `cycle`: the completion cycle of an in-flight fill
    /// covering the block (`outstanding`), if any. The non-blocking engine
    /// prices every load by this rule.
    ///
    /// Any access to a block whose fill is still in flight is a **delayed
    /// hit**, whether the tag array already holds the block (the hierarchy
    /// fills lines at access time, so a hit can find its data not yet
    /// arrived) or the line was evicted mid-fill (a secondary miss). It
    /// pays the fill's *remaining* latency, floored at the L1 hit latency
    /// on a tag hit and at the one-cycle merge on a secondary miss — the
    /// SimpleScalar-class `max(hit_latency, ready - now)`.
    #[inline]
    pub fn classify(&self, outstanding: Option<u64>, cycle: u64) -> AccessClass {
        match outstanding {
            Some(ready) => {
                let floor = if self.l1_hit { self.latency } else { 1 };
                AccessClass::DelayedHit {
                    remaining: ready.max(cycle + floor) - cycle,
                }
            }
            None if self.l1_hit => AccessClass::Hit,
            None => AccessClass::PrimaryMiss,
        }
    }
}

/// Latency-domain classification of one access (see
/// [`AccessResult::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// The block was resident and its data present: the access pays the L1
    /// hit latency.
    Hit,
    /// The block's fill is in flight: the access pays the fill's remaining
    /// cycles.
    DelayedHit {
        /// Cycles until the access completes: the fill's remaining latency,
        /// at least the hit latency on a tag hit and at least one cycle on
        /// a secondary miss.
        remaining: u64,
    },
    /// The block was neither resident nor in flight: a full miss.
    PrimaryMiss,
}

/// Counters the individual caches cannot track themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Main-memory accesses (L2 misses plus dirty L2 evictions).
    pub memory_accesses: u64,
    /// Dirty L1D victims written to the L2 through the write-back buffer.
    pub l1d_writebacks_to_l2: u64,
    /// Cycles lost because the write-back buffer was full.
    pub writeback_stall_cycles: u64,
    /// Blocks written to the L2 because a resize flushed dirty L1 blocks.
    pub resize_flush_writebacks: u64,
    /// Data accesses that found their block's fill still in flight
    /// (delayed hits).
    pub delayed_hits: u64,
    /// Total remaining-latency cycles those delayed hits paid.
    pub delayed_hit_cycles: u64,
}

/// The statistics of a hierarchy after a run, detached from the (large) tag
/// arrays.
///
/// Everything the energy model and the experiment measurements consume lives
/// here, so a finished simulation can be summarised in a few hundred bytes —
/// which is what lets the experiment runner memoize simulations across the
/// sweep arms that share a cache geometry without retaining whole
/// hierarchies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchySnapshot {
    /// L1 instruction cache statistics.
    pub l1i: crate::stats::CacheStats,
    /// L1 data cache statistics.
    pub l1d: crate::stats::CacheStats,
    /// Unified L2 statistics.
    pub l2: crate::stats::CacheStats,
    /// The L2 configuration (needed by the energy model's flush charging).
    pub l2_config: CacheConfig,
    /// Hierarchy-level counters.
    pub stats: HierarchyStats,
}

/// The simulated memory hierarchy.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    writeback: WritebackBuffer,
    stats: HierarchyStats,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if any cache configuration is invalid.
    pub fn new(config: HierarchyConfig) -> Result<Self, CacheConfigError> {
        Ok(Self {
            l1i: Cache::new(config.l1i)?,
            l1d: Cache::new(config.l1d)?,
            l2: Cache::new(config.l2)?,
            writeback: WritebackBuffer::new(config.writeback_entries),
            stats: HierarchyStats::default(),
            config,
        })
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// The L1 instruction cache.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The L1 instruction cache, mutably (used by resizing controllers).
    pub fn l1i_mut(&mut self) -> &mut Cache {
        &mut self.l1i
    }

    /// The L1 data cache.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The L1 data cache, mutably (used by resizing controllers).
    pub fn l1d_mut(&mut self) -> &mut Cache {
        &mut self.l1d
    }

    /// The unified L2 cache.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Hierarchy-level statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Captures the post-run statistics of the whole hierarchy (see
    /// [`HierarchySnapshot`]).
    pub fn snapshot(&self) -> HierarchySnapshot {
        HierarchySnapshot {
            l1i: self.l1i.stats().clone(),
            l1d: self.l1d.stats().clone(),
            l2: self.l2.stats().clone(),
            l2_config: self.config.l2,
            stats: self.stats,
        }
    }

    /// Resets all statistics (cache-level and hierarchy-level), keeping
    /// contents and geometry. Used after warm-up.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.stats = HierarchyStats::default();
    }

    /// Fetches the block containing `pc` through the instruction path.
    ///
    /// `_cycle` mirrors [`MemoryHierarchy::access_data`]'s signature: an
    /// instruction fill never writes back, so its latency does not depend on
    /// when it happens.
    #[inline]
    pub fn access_instruction(&mut self, pc: u64, _cycle: u64) -> AccessResult {
        let l1_latency = self.config.l1i.hit_latency;
        if self.l1i.access_read(pc).hit {
            return AccessResult {
                latency: l1_latency,
                l1_hit: true,
                l2_hit: false,
            };
        }
        let (beyond, l2_hit) = self.refill_from_l2(pc);
        // Instruction blocks are never dirty, so the L1I fill cannot produce
        // a writeback.
        self.l1i.fill(pc, false);
        AccessResult {
            latency: l1_latency + beyond,
            l1_hit: false,
            l2_hit,
        }
    }

    /// Performs a data access (load if `write` is false, store otherwise).
    ///
    /// Forced inline: it sits in every engine's per-instruction loop, and a
    /// plain hint left it out of line in some engine instantiations.
    #[inline(always)]
    pub fn access_data(&mut self, addr: u64, write: bool, cycle: u64) -> AccessResult {
        let l1_latency = self.config.l1d.hit_latency;
        let outcome = if write {
            self.l1d.access_write(addr)
        } else {
            self.l1d.access_read(addr)
        };
        if outcome.hit {
            return AccessResult {
                latency: l1_latency,
                l1_hit: true,
                l2_hit: false,
            };
        }
        let (beyond, l2_hit) = self.refill_from_l2(addr);
        let mut latency = l1_latency + beyond;
        if let Some(eviction) = self.l1d.fill(addr, write) {
            if eviction.dirty {
                latency += self.push_writeback(eviction.block_addr, cycle);
            }
        }
        AccessResult {
            latency,
            l1_hit: false,
            l2_hit,
        }
    }

    /// Records a delayed hit: a data access that found its block's fill
    /// still in flight and paid `remaining` cycles of its latency.
    #[inline]
    pub fn note_delayed_hit(&mut self, remaining: u64) {
        self.stats.delayed_hits += 1;
        self.stats.delayed_hit_cycles += remaining;
    }

    /// Reads a block from the L2 (refilling it from memory on an L2 miss).
    /// Returns the latency beyond the L1 and whether the L2 hit.
    fn refill_from_l2(&mut self, addr: u64) -> (u64, bool) {
        let l2_latency = self.config.l2.hit_latency;
        if self.l2.access_read(addr).hit {
            return (l2_latency, true);
        }
        self.stats.memory_accesses += 1;
        if let Some(eviction) = self.l2.fill(addr, false) {
            if eviction.dirty {
                // Dirty L2 victims drain to memory in the background; charge
                // the access for energy purposes but not for latency.
                self.stats.memory_accesses += 1;
            }
        }
        (l2_latency + self.config.memory_latency(), false)
    }

    /// Pushes a dirty L1D victim into the write-back buffer and performs the
    /// L2 write. Returns stall cycles caused by a full buffer.
    fn push_writeback(&mut self, block_addr: u64, cycle: u64) -> u64 {
        let stall = self.writeback.push(cycle, self.config.l2.hit_latency);
        self.stats.writeback_stall_cycles += stall;
        self.stats.l1d_writebacks_to_l2 += 1;
        let addr = block_addr * self.config.l1d.block_bytes;
        if !self.l2.access_write(addr).hit {
            self.stats.memory_accesses += 1;
            if let Some(eviction) = self.l2.fill(addr, true) {
                if eviction.dirty {
                    self.stats.memory_accesses += 1;
                }
            }
        }
        stall
    }

    /// Records `count` dirty blocks flushed to the L2 by a resize operation.
    ///
    /// Resizing controllers call this after `Cache::resize` so the extra L2
    /// traffic shows up in the energy accounting (the paper notes this
    /// traffic exists but is insignificant; modelling it keeps the claim
    /// checkable).
    pub fn note_resize_flush_writebacks(&mut self, count: u64) {
        self.stats.resize_flush_writebacks += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::base()).unwrap()
    }

    #[test]
    fn base_config_latencies() {
        let c = HierarchyConfig::base();
        assert_eq!(c.memory_latency(), 80 + 5 * 4);
        assert_eq!(c.l2.hit_latency, 12);
        assert_eq!(c.l1d.hit_latency, 1);
    }

    #[test]
    fn instruction_miss_then_hit() {
        let mut h = hierarchy();
        let cold = h.access_instruction(0x40_0000, 0);
        assert!(!cold.l1_hit);
        assert!(!cold.l2_hit);
        assert_eq!(cold.latency, 1 + 12 + 100);
        let warm = h.access_instruction(0x40_0000, 10);
        assert!(warm.l1_hit);
        assert_eq!(warm.latency, 1);
        assert_eq!(h.stats().memory_accesses, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = hierarchy();
        let addr = 0x10_0000;
        h.access_data(addr, false, 0);
        // Evict it from L1 by filling two aliasing blocks (2-way L1).
        h.access_data(addr + 16 * 1024, false, 1);
        h.access_data(addr + 32 * 1024, false, 2);
        assert!(!h.l1d().contains(addr));
        let r = h.access_data(addr, false, 3);
        assert!(!r.l1_hit);
        assert!(r.l2_hit, "block should still be in the L2");
        assert_eq!(r.latency, 1 + 12);
    }

    #[test]
    fn store_miss_write_allocates_dirty() {
        let mut h = hierarchy();
        let addr = 0x20_0000;
        h.access_data(addr, true, 0);
        assert!(h.l1d().contains(addr));
        // Evicting it later must produce a writeback to L2.
        h.access_data(addr + 16 * 1024, false, 1);
        h.access_data(addr + 32 * 1024, false, 2);
        assert_eq!(h.stats().l1d_writebacks_to_l2, 1);
    }

    #[test]
    fn data_hit_is_single_cycle() {
        let mut h = hierarchy();
        h.access_data(0x30_0000, false, 0);
        let r = h.access_data(0x30_0008, false, 1);
        assert!(r.l1_hit);
        assert_eq!(r.latency, 1);
    }

    #[test]
    fn resize_flush_counter() {
        let mut h = hierarchy();
        h.note_resize_flush_writebacks(5);
        assert_eq!(h.stats().resize_flush_writebacks, 5);
    }

    #[test]
    fn delayed_hit_classification_and_counters() {
        let mut h = hierarchy();
        let hit = h.access_data(0x50_0000, false, 0);
        let miss = h.access_data(0x50_0000, false, 1); // now resident: a hit
        assert_eq!(
            hit.classify(None, 0),
            AccessClass::PrimaryMiss,
            "cold access with no in-flight fill is a primary miss"
        );
        assert_eq!(miss.classify(None, 1), AccessClass::Hit);
        // A miss that merges into a fill completing at cycle 40, seen at
        // cycle 10, pays the remaining 30 cycles; one completing this cycle
        // still pays the one-cycle merge.
        assert_eq!(
            hit.classify(Some(40), 10),
            AccessClass::DelayedHit { remaining: 30 }
        );
        assert_eq!(
            hit.classify(Some(5), 10),
            AccessClass::DelayedHit { remaining: 1 }
        );
        // A tag hit on a block whose fill is still in flight waits for the
        // fill too, but never completes faster than a plain hit.
        assert_eq!(
            miss.classify(Some(40), 10),
            AccessClass::DelayedHit { remaining: 30 }
        );
        let slow_hit = AccessResult {
            latency: 3,
            l1_hit: true,
            l2_hit: false,
        };
        assert_eq!(
            slow_hit.classify(Some(11), 10),
            AccessClass::DelayedHit { remaining: 3 }
        );
        h.note_delayed_hit(30);
        h.note_delayed_hit(1);
        assert_eq!(h.stats().delayed_hits, 2);
        assert_eq!(h.stats().delayed_hit_cycles, 31);
    }

    #[test]
    fn reset_stats_clears_counters_but_not_contents() {
        let mut h = hierarchy();
        h.access_data(0x40_0000, false, 0);
        h.reset_stats();
        assert_eq!(h.stats().memory_accesses, 0);
        assert_eq!(h.l1d().stats().accesses, 0);
        assert!(h.l1d().contains(0x40_0000));
    }

    #[test]
    fn l1_resizing_through_hierarchy_accessors() {
        let mut h = hierarchy();
        h.access_data(0x0, true, 0);
        let effect = h.l1d_mut().set_enabled_sets(256);
        h.note_resize_flush_writebacks(effect.dirty_writebacks);
        assert_eq!(h.l1d().enabled_bytes(), 16 * 1024);
    }
}
