//! The resizable [`Cache`]: lookups, fills, and way/set resizing with the
//! paper's flush semantics.

use crate::config::{CacheConfig, CacheConfigError};
use crate::stats::CacheStats;

/// Valid bit of a packed frame word.
const FRAME_VALID: u64 = 1 << 62;
/// Dirty bit of a packed frame word.
const FRAME_DIRTY: u64 = 1 << 63;
/// Block-address bits of a packed frame word.
const FRAME_ADDR_MASK: u64 = FRAME_VALID - 1;

/// One tag-store frame, packed into 16 bytes.
///
/// The block address, valid bit and dirty bit share one word
/// (addresses are byte addresses shifted right by the block size, so 62 bits
/// is far beyond any simulated address), which halves the tag array relative
/// to the earlier bool-field layout — a 512K L2's frames drop from 512 KB to
/// 256 KB, most of which is randomly indexed on every simulated L1 miss — and
/// turns the hit check into a single masked compare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Frame {
    /// `block_addr | FRAME_VALID | FRAME_DIRTY` packed together.
    word: u64,
    /// Replacement stamp: the frame's last-use time.
    stamp: u64,
}

impl Frame {
    #[inline(always)]
    fn valid(self) -> bool {
        self.word & FRAME_VALID != 0
    }

    #[inline(always)]
    fn dirty(self) -> bool {
        self.word & FRAME_DIRTY != 0
    }

    #[inline(always)]
    fn block_addr(self) -> u64 {
        self.word & FRAME_ADDR_MASK
    }

    /// The word a resident, clean-or-dirty frame holding `block_addr` has,
    /// ignoring the dirty bit (used for the one-compare hit check).
    #[inline(always)]
    fn match_word(block_addr: u64) -> u64 {
        block_addr | FRAME_VALID
    }

    /// Fills the frame with a block.
    #[inline(always)]
    fn fill(&mut self, block_addr: u64, dirty: bool, stamp: u64) {
        debug_assert_eq!(block_addr & !FRAME_ADDR_MASK, 0);
        self.word = block_addr | FRAME_VALID | (u64::from(dirty) << 63);
        self.stamp = stamp;
    }

    /// Invalidates the frame, returning `true` if it held a dirty block.
    #[inline(always)]
    fn invalidate(&mut self) -> bool {
        let was_dirty = self.valid() && self.dirty();
        self.word = 0;
        was_dirty
    }
}

/// Whether an access reads or writes the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load or instruction fetch.
    Read,
    /// A store (write-allocate, write-back).
    Write,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the block was resident (in an enabled way of the indexed set).
    pub hit: bool,
}

/// A block evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Block address of the evicted block.
    pub block_addr: u64,
    /// Whether the evicted block was dirty (must be written back).
    pub dirty: bool,
}

/// Effect of a resize operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResizeEffect {
    /// Blocks invalidated because their frame was disabled or their set
    /// mapping changed.
    pub invalidated: u64,
    /// Of those, blocks that were dirty and must be written back downstream.
    pub dirty_writebacks: u64,
}

impl ResizeEffect {
    /// Merges two effects (used when a hybrid resize changes both masks).
    pub fn merge(self, other: Self) -> Self {
        Self {
            invalidated: self.invalidated + other.invalidated,
            dirty_writebacks: self.dirty_writebacks + other.dirty_writebacks,
        }
    }
}

/// A set-associative, write-back, write-allocate cache with way and set
/// masking.
///
/// The cache always allocates frames for its full geometry; `enabled_ways`
/// and `enabled_sets` restrict which frames lookups and fills may use, which
/// is exactly what the way-mask and set-mask of the paper's resizable
/// organizations do.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// The tag store as one contiguous buffer: set `s` occupies
    /// `frames[s * associativity ..][.. associativity]`.
    ///
    /// A flat buffer instead of a `Vec` of per-set `Vec`s means a single
    /// allocation at construction (a base hierarchy previously performed one
    /// per set — about five thousand) and no dependent pointer chase on the
    /// per-access path.
    frames: Vec<Frame>,
    /// Full associativity (the row stride of `frames`), as a `usize`.
    ways: usize,
    enabled_sets: u64,
    enabled_ways: u32,
    /// log2 of the block size: block addresses are `addr >> block_shift`.
    block_shift: u32,
    /// `enabled_sets - 1`: the set index is `block_addr & set_mask`.
    ///
    /// Both are maintained instead of derived per access so the access and
    /// fill paths never divide — the div/mod pair dominated the original
    /// access cost (the figure sweeps perform hundreds of millions of
    /// accesses per run).
    set_mask: u64,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache with LRU replacement.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid
    /// (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Result<Self, CacheConfigError> {
        config.validate()?;
        let ways = config.associativity as usize;
        let frames = vec![Frame::default(); config.num_sets() as usize * ways];
        Ok(Self {
            config,
            frames,
            ways,
            enabled_sets: config.num_sets(),
            enabled_ways: config.associativity,
            block_shift: config.block_bytes.trailing_zeros(),
            set_mask: config.num_sets() - 1,
            clock: 0,
            stats: CacheStats::new(config.num_sets(), config.associativity),
        })
    }

    /// The static configuration of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of currently enabled sets.
    pub fn enabled_sets(&self) -> u64 {
        self.enabled_sets
    }

    /// Number of currently enabled ways.
    pub fn enabled_ways(&self) -> u32 {
        self.enabled_ways
    }

    /// Currently enabled capacity in bytes.
    pub fn enabled_bytes(&self) -> u64 {
        self.enabled_sets * u64::from(self.enabled_ways) * self.config.block_bytes
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics (e.g. after a warm-up period), keeping cache
    /// contents and the current geometry.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new(self.enabled_sets, self.enabled_ways);
    }

    #[inline(always)]
    fn block_addr(&self, addr: u64) -> u64 {
        addr >> self.block_shift
    }

    #[inline(always)]
    fn set_index(&self, block_addr: u64) -> usize {
        (block_addr & self.set_mask) as usize
    }

    /// The frames of set `index` (all ways, masked or not).
    #[inline(always)]
    fn row(&self, index: usize) -> &[Frame] {
        &self.frames[index * self.ways..(index + 1) * self.ways]
    }

    /// Performs a read access. Returns whether it hit; on a miss the caller
    /// is responsible for probing the next level and calling [`Self::fill`].
    #[inline]
    pub fn access_read(&mut self, addr: u64) -> AccessOutcome {
        self.access(addr, AccessKind::Read)
    }

    /// Performs a write access (write-allocate: on a miss the caller fills
    /// and then the block is marked dirty by a subsequent write, or fills
    /// with `dirty = true`).
    #[inline]
    pub fn access_write(&mut self, addr: u64) -> AccessOutcome {
        self.access(addr, AccessKind::Write)
    }

    /// Performs an access of the given kind.
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        self.clock += 1;
        let block_addr = self.block_addr(addr);
        let index = self.set_index(block_addr);
        let enabled_ways = self.enabled_ways as usize;
        let write = kind == AccessKind::Write;
        let clock = self.clock;
        let base = index * self.ways;
        let row = &mut self.frames[base..base + enabled_ways];
        let want = Frame::match_word(block_addr);
        let mut hit = false;
        for frame in row {
            // One masked compare covers the valid bit and the tag.
            if frame.word & !FRAME_DIRTY == want {
                frame.stamp = clock;
                // `write` follows simulated data; OR-ing avoids an
                // unpredictable host branch on the hot hit path.
                frame.word |= u64::from(write) << 63;
                hit = true;
                break;
            }
        }
        self.stats.record_access(write, hit);
        AccessOutcome { hit }
    }

    /// Returns whether the block is resident without updating any state
    /// (used by tests and invariant checks).
    pub fn contains(&self, addr: u64) -> bool {
        let block_addr = self.block_addr(addr);
        let index = self.set_index(block_addr);
        let want = Frame::match_word(block_addr);
        self.row(index)[..self.enabled_ways as usize]
            .iter()
            .any(|f| f.word & !FRAME_DIRTY == want)
    }

    /// Fills the block containing `addr`, evicting a victim if necessary.
    ///
    /// `dirty` marks the freshly filled block as modified (used when a store
    /// misses and write-allocates).
    #[inline]
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<Eviction> {
        self.clock += 1;
        let block_addr = self.block_addr(addr);
        let index = self.set_index(block_addr);
        let enabled_ways = self.enabled_ways as usize;
        let clock = self.clock;
        let base = index * self.ways;
        let row = &mut self.frames[base..base + enabled_ways];

        // One allocation-free pass resolves the resident / invalid-frame /
        // oldest-stamp cases together: if the block is already resident (e.g.
        // filled by a racing access in the same cycle) its state is updated
        // in place, otherwise an invalid frame is preferred and the oldest
        // stamp (first occurrence on ties) is the LRU victim.
        let mut victim_way = 0usize;
        let mut oldest_stamp = u64::MAX;
        let mut invalid_way = None;
        for (way, frame) in row.iter_mut().enumerate() {
            if frame.valid() {
                if frame.block_addr() == block_addr {
                    frame.stamp = clock;
                    frame.word |= u64::from(dirty) << 63;
                    return None;
                }
                if frame.stamp < oldest_stamp {
                    oldest_stamp = frame.stamp;
                    victim_way = way;
                }
            } else if invalid_way.is_none() {
                invalid_way = Some(way);
            }
        }
        let victim = &mut row[invalid_way.unwrap_or(victim_way)];
        let eviction = if victim.valid() {
            Some(Eviction {
                block_addr: victim.block_addr(),
                dirty: victim.dirty(),
            })
        } else {
            None
        };
        victim.fill(block_addr, dirty, clock);
        self.stats.record_fill();
        if let Some(e) = &eviction {
            if e.dirty {
                self.stats.writebacks += 1;
            }
        }
        eviction
    }

    /// Invalidates the block containing `addr` if present, returning whether
    /// it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let block_addr = self.block_addr(addr);
        let index = self.set_index(block_addr);
        let enabled_ways = self.enabled_ways as usize;
        let base = index * self.ways;
        let want = Frame::match_word(block_addr);
        self.frames[base..base + enabled_ways]
            .iter_mut()
            .find(|f| f.word & !FRAME_DIRTY == want)
            .map(|f| f.invalidate())
            .unwrap_or(false)
    }

    /// Number of valid blocks in enabled frames.
    pub fn resident_blocks(&self) -> u64 {
        let enabled_ways = self.enabled_ways as usize;
        (0..self.enabled_sets as usize)
            .map(|index| {
                self.row(index)[..enabled_ways]
                    .iter()
                    .filter(|f| f.valid())
                    .count() as u64
            })
            .sum()
    }

    /// Changes the number of enabled ways (the selective-ways mechanism).
    ///
    /// Disabling ways flushes the blocks they hold (the frames lose power);
    /// enabling ways needs no flush because the set mapping of the remaining
    /// blocks does not change.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds the configured associativity.
    pub fn set_enabled_ways(&mut self, ways: u32) -> ResizeEffect {
        assert!(
            ways >= 1 && ways <= self.config.associativity,
            "enabled ways {ways} outside 1..={}",
            self.config.associativity
        );
        if ways == self.enabled_ways {
            return ResizeEffect::default();
        }
        let mut effect = ResizeEffect::default();
        if ways < self.enabled_ways {
            let lo = ways as usize;
            let hi = self.enabled_ways as usize;
            for set in self.frames.chunks_exact_mut(self.ways) {
                for frame in &mut set[lo..hi] {
                    if frame.valid() {
                        effect.invalidated += 1;
                        if frame.invalidate() {
                            effect.dirty_writebacks += 1;
                        }
                    }
                }
            }
        }
        self.enabled_ways = ways;
        self.note_resize(effect);
        effect
    }

    /// Changes the number of enabled sets (the selective-sets mechanism).
    ///
    /// Downsizing flushes blocks held in the disabled sets. Upsizing flushes
    /// blocks whose set mapping changes under the larger index (the paper's
    /// requirement to flush "all blocks, clean or modified, for which
    /// set-mappings change upon enabling subarrays").
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, is below one subarray per way,
    /// or exceeds the configured number of sets.
    pub fn set_enabled_sets(&mut self, sets: u64) -> ResizeEffect {
        assert!(
            sets.is_power_of_two(),
            "enabled sets {sets} must be a power of two"
        );
        assert!(
            sets >= self.config.min_sets() && sets <= self.config.num_sets(),
            "enabled sets {sets} outside {}..={}",
            self.config.min_sets(),
            self.config.num_sets()
        );
        if sets == self.enabled_sets {
            return ResizeEffect::default();
        }
        let mut effect = ResizeEffect::default();
        if sets < self.enabled_sets {
            // Downsize: flush every block residing in a set that is being
            // disabled. Blocks in the surviving sets keep their mapping
            // because `addr % new_sets == addr % old_sets` whenever
            // `addr % old_sets < new_sets` for power-of-two set counts.
            let lo = sets as usize * self.ways;
            let hi = self.enabled_sets as usize * self.ways;
            for frame in &mut self.frames[lo..hi] {
                if frame.valid() {
                    effect.invalidated += 1;
                    if frame.invalidate() {
                        effect.dirty_writebacks += 1;
                    }
                }
            }
        } else {
            // Upsize: blocks whose index under the larger set count differs
            // from the set they currently occupy must be flushed.
            let new_mask = sets - 1;
            let enabled = self.enabled_sets as usize;
            for (index, set) in self
                .frames
                .chunks_exact_mut(self.ways)
                .take(enabled)
                .enumerate()
            {
                for frame in set {
                    if frame.valid() && (frame.block_addr() & new_mask) as usize != index {
                        effect.invalidated += 1;
                        if frame.invalidate() {
                            effect.dirty_writebacks += 1;
                        }
                    }
                }
            }
        }
        self.enabled_sets = sets;
        self.set_mask = sets - 1;
        self.note_resize(effect);
        effect
    }

    /// Applies a combined geometry change, adjusting ways first when
    /// shrinking and sets first when growing (the order only affects which
    /// flush bucket blocks land in, not correctness).
    pub fn resize(&mut self, sets: u64, ways: u32) -> ResizeEffect {
        let first = self.set_enabled_ways(ways);
        let second = self.set_enabled_sets(sets);
        first.merge(second)
    }

    fn note_resize(&mut self, effect: ResizeEffect) {
        self.stats.resize_invalidations += effect.invalidated;
        self.stats.resize_writebacks += effect.dirty_writebacks;
        self.stats.open_slice(self.enabled_sets, self.enabled_ways);
    }

    /// Flushes the entire cache (writes back dirty blocks, invalidates all),
    /// e.g. at a context switch. Returns the number of dirty blocks.
    pub fn flush_all(&mut self) -> u64 {
        let mut dirty = 0;
        for frame in &mut self.frames {
            if frame.valid() && frame.invalidate() {
                dirty += 1;
            }
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(size_kib: u64, assoc: u32) -> Cache {
        Cache::new(CacheConfig::l1_default(size_kib * 1024, assoc)).unwrap()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache(32, 2);
        assert!(!c.access_read(0x1000).hit);
        c.fill(0x1000, false);
        assert!(c.access_read(0x1000).hit);
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn same_block_different_words_hit() {
        let mut c = cache(32, 2);
        c.fill(0x1000, false);
        assert!(c.access_read(0x1008).hit);
        assert!(c.access_read(0x101F).hit);
        assert!(!c.access_read(0x1020).hit, "next block is separate");
    }

    #[test]
    fn write_marks_dirty_and_eviction_reports_it() {
        let mut c = cache(32, 2);
        c.fill(0x1000, false);
        assert!(c.access_write(0x1000).hit);
        // Force eviction of 0x1000 by filling two conflicting blocks.
        let conflict1 = 0x1000 + 16 * 1024;
        let conflict2 = 0x1000 + 32 * 1024;
        c.fill(conflict1, false);
        let evicted = c.fill(conflict2, false).expect("set is full, must evict");
        assert_eq!(evicted.block_addr, 0x1000 / 32);
        assert!(evicted.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = cache(32, 2);
        let a = 0x1000u64;
        let b = a + 16 * 1024;
        let d = a + 32 * 1024;
        c.fill(a, false);
        c.fill(b, false);
        // Touch `a` so `b` becomes LRU.
        assert!(c.access_read(a).hit);
        let evicted = c.fill(d, false).unwrap();
        assert_eq!(evicted.block_addr, b / 32);
        assert!(c.contains(a));
        assert!(!c.contains(b));
    }

    #[test]
    fn fill_of_resident_block_does_not_evict() {
        let mut c = cache(32, 2);
        c.fill(0x1000, false);
        assert!(c.fill(0x1000, true).is_none());
        assert_eq!(c.stats().fills, 1, "second fill is a no-op");
    }

    #[test]
    fn way_downsize_flushes_disabled_ways() {
        let mut c = cache(32, 4);
        // Fill all four ways of one set.
        let base = 0x2000u64;
        let way_span = 8 * 1024;
        for i in 0..4 {
            c.fill(base + i * way_span, i % 2 == 0);
        }
        assert_eq!(c.resident_blocks(), 4);
        let effect = c.set_enabled_ways(2);
        assert_eq!(effect.invalidated, 2);
        assert!(effect.dirty_writebacks >= 1);
        assert_eq!(c.enabled_ways(), 2);
        assert_eq!(c.enabled_bytes(), 16 * 1024);
        assert_eq!(c.resident_blocks(), 2);
    }

    #[test]
    fn way_upsize_needs_no_flush() {
        let mut c = cache(32, 4);
        c.set_enabled_ways(2);
        c.fill(0x3000, true);
        let effect = c.set_enabled_ways(4);
        assert_eq!(effect, ResizeEffect::default());
        assert!(c.contains(0x3000), "blocks survive a way upsize");
    }

    #[test]
    fn set_downsize_keeps_low_sets_and_flushes_high_sets() {
        let mut c = cache(32, 2);
        // Block mapping to set 0 and one mapping to a high set.
        let low = 0x0u64;
        let high = 500 * 32; // set 500 of 512
        c.fill(low, false);
        c.fill(high, true);
        let effect = c.set_enabled_sets(256);
        assert_eq!(effect.invalidated, 1);
        assert_eq!(effect.dirty_writebacks, 1);
        assert!(c.contains(low), "low-set blocks keep their mapping");
        assert!(!c.contains(high));
        assert_eq!(c.enabled_bytes(), 16 * 1024);
    }

    #[test]
    fn set_upsize_flushes_remapped_blocks() {
        let mut c = cache(32, 2);
        c.set_enabled_sets(256);
        // Two blocks that map to set 1 with 256 sets but to different sets
        // with 512 sets.
        let a = 32u64; // block 1 -> set 1 under both mappings
        let b = 32 + 256 * 32; // block 257 -> set 1 under 256 sets, set 257 under 512 sets
        c.fill(a, false);
        c.fill(b, false);
        assert!(c.contains(a) && c.contains(b));
        let effect = c.set_enabled_sets(512);
        assert_eq!(effect.invalidated, 1, "only the remapped block is flushed");
        assert!(c.contains(a));
        assert!(!c.contains(b));
    }

    #[test]
    fn masked_sets_redirect_indexing() {
        let mut c = cache(32, 2);
        c.set_enabled_sets(32); // 2 KiB: the minimum for 2-way with 1K subarrays
        assert_eq!(c.enabled_bytes(), 2 * 1024);
        // Two blocks 32 sets apart now collide in the same set.
        let a = 0u64;
        let b = 32 * 32;
        let d = 2 * 32 * 32;
        c.fill(a, false);
        c.fill(b, false);
        let evicted = c.fill(d, false);
        assert!(evicted.is_some(), "three aliasing blocks overflow 2 ways");
    }

    #[test]
    fn resize_combined_changes_both_dimensions() {
        let mut c = cache(32, 4);
        let effect = c.resize(128, 3);
        assert_eq!(c.enabled_sets(), 128);
        assert_eq!(c.enabled_ways(), 3);
        assert_eq!(c.enabled_bytes(), 12 * 1024);
        assert_eq!(
            effect,
            ResizeEffect::default(),
            "empty cache flushes nothing"
        );
        assert_eq!(c.stats().resizes, 2);
    }

    #[test]
    fn resize_noop_does_not_open_slice() {
        let mut c = cache(32, 2);
        let slices_before = c.stats().slices.len();
        c.set_enabled_ways(2);
        c.set_enabled_sets(512);
        assert_eq!(c.stats().slices.len(), slices_before);
        assert_eq!(c.stats().resizes, 0);
    }

    #[test]
    #[should_panic(expected = "enabled ways")]
    fn zero_ways_panics() {
        cache(32, 2).set_enabled_ways(0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        cache(32, 2).set_enabled_sets(300);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn too_few_sets_panics() {
        cache(32, 2).set_enabled_sets(16); // below one 1K subarray per way
    }

    #[test]
    fn flush_all_counts_dirty() {
        let mut c = cache(32, 2);
        c.fill(0x0, true);
        c.fill(0x40, false);
        assert_eq!(c.flush_all(), 1);
        assert_eq!(c.resident_blocks(), 0);
    }

    #[test]
    fn invalidate_single_block() {
        let mut c = cache(32, 2);
        c.fill(0x80, true);
        assert!(c.invalidate(0x80));
        assert!(!c.invalidate(0x80), "already gone");
        assert!(!c.contains(0x80));
    }

    #[test]
    fn reset_stats_preserves_contents_and_geometry() {
        let mut c = cache(32, 2);
        c.set_enabled_sets(256);
        c.fill(0x100, false);
        c.access_read(0x100);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().slices.len(), 1);
        assert_eq!(c.stats().slices[0].enabled_sets, 256);
        assert!(c.contains(0x100));
    }
}
