//! Miss-status holding registers (MSHRs) for non-blocking caches.
//!
//! The out-of-order configuration of the paper uses a non-blocking d-cache:
//! multiple misses may be outstanding, and any later load to a block that
//! is already being fetched (a tag hit whose data has not arrived, or a
//! secondary miss) waits on the existing entry. The MSHR file bounds that
//! concurrency (8 entries in the paper's base configuration).

/// One outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MshrEntry {
    block_addr: u64,
    /// Cycle the primary miss was issued (when the fill left for the next
    /// level) — lets a merging secondary miss price itself at the fill's
    /// *remaining* latency, the delayed-hit cost model.
    issue_cycle: u64,
    ready_cycle: u64,
}

/// An outstanding miss found by [`MshrFile::lookup_retire`]: a load to
/// this block is a *delayed hit* that completes no earlier than
/// `ready_cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrHit {
    /// Cycle the covering primary miss was issued.
    pub issue_cycle: u64,
    /// Cycle the in-flight fill completes.
    pub ready_cycle: u64,
}

/// A file of miss-status holding registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<MshrEntry>,
}

impl MshrFile {
    /// Creates an MSHR file with the given number of entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an MSHR file needs at least one entry");
        Self {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of entries the file can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently outstanding misses.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no more primary misses can be accepted.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Looks up an outstanding miss covering `block_addr` at `cycle`,
    /// retiring every entry whose fill has completed in the same pass.
    ///
    /// One scan is both the retirement and the merge check, so capacity is
    /// always current by construction: a caller that looked up *before*
    /// retiring could see a full file of already-expired entries and take
    /// the structural-hazard stall path for free capacity.
    #[inline]
    pub fn lookup_retire(&mut self, block_addr: u64, cycle: u64) -> Option<MshrHit> {
        let mut found = None;
        self.entries.retain(|e| {
            if e.ready_cycle <= cycle {
                return false;
            }
            if e.block_addr == block_addr {
                found = Some(MshrHit {
                    issue_cycle: e.issue_cycle,
                    ready_cycle: e.ready_cycle,
                });
            }
            true
        });
        found
    }

    /// Allocates an entry for a primary miss issued at `issue_cycle` and
    /// completing at `ready_cycle`.
    ///
    /// Returns `false` (and allocates nothing) if the file is full.
    pub fn allocate(&mut self, block_addr: u64, issue_cycle: u64, ready_cycle: u64) -> bool {
        if self.is_full() {
            return false;
        }
        self.entries.push(MshrEntry {
            block_addr,
            issue_cycle,
            ready_cycle,
        });
        true
    }

    /// Releases every entry whose miss has completed by `cycle`.
    #[inline]
    pub fn retire_completed(&mut self, cycle: u64) {
        if !self.entries.is_empty() {
            self.entries.retain(|e| e.ready_cycle > cycle);
        }
    }

    /// The earliest cycle at which any outstanding miss completes, if any.
    pub fn earliest_completion(&self) -> Option<u64> {
        self.entries.iter().map(|e| e.ready_cycle).min()
    }

    /// Removes all entries (e.g. on a pipeline flush in simplified models).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full() {
        let mut m = MshrFile::new(2);
        assert!(m.allocate(1, 2, 10));
        assert!(m.allocate(2, 4, 12));
        assert!(m.is_full());
        assert!(!m.allocate(3, 6, 14), "full file rejects allocation");
        assert_eq!(m.outstanding(), 2);
        assert_eq!(m.capacity(), 2);
    }

    #[test]
    fn secondary_miss_merges() {
        let mut m = MshrFile::new(4);
        m.allocate(7, 30, 42);
        assert_eq!(m.lookup_retire(7, 35).map(|hit| hit.ready_cycle), Some(42));
        assert_eq!(m.lookup_retire(8, 35), None);
        assert_eq!(m.outstanding(), 1, "a lookup does not consume the entry");
    }

    #[test]
    fn retire_frees_entries() {
        let mut m = MshrFile::new(2);
        m.allocate(1, 0, 10);
        m.allocate(2, 0, 20);
        m.retire_completed(15);
        assert_eq!(m.outstanding(), 1);
        assert_eq!(m.lookup_retire(1, 15), None);
        assert_eq!(m.lookup_retire(2, 15).map(|hit| hit.ready_cycle), Some(20));
        assert_eq!(m.earliest_completion(), Some(20));
    }

    #[test]
    fn lookup_retire_is_one_pass() {
        let mut m = MshrFile::new(4);
        m.allocate(1, 0, 10);
        m.allocate(2, 5, 20);
        // At cycle 15 entry 1 has completed: the fused pass retires it while
        // finding the still-outstanding entry 2 with its issue timestamp.
        let hit = m.lookup_retire(2, 15).expect("entry 2 outstanding");
        assert_eq!(
            hit,
            MshrHit {
                issue_cycle: 5,
                ready_cycle: 20
            }
        );
        assert_eq!(m.outstanding(), 1, "completed entry retired in the pass");
        assert_eq!(m.lookup_retire(1, 15), None);
    }

    #[test]
    fn full_file_of_expired_entries_accepts_a_new_primary_miss() {
        // The retire-ordering hazard the fused pass removes: a full file
        // whose entries have all completed must not stall a new miss behind
        // a separate retire call.
        let mut m = MshrFile::new(2);
        m.allocate(1, 0, 10);
        m.allocate(2, 0, 12);
        assert!(m.is_full());
        assert_eq!(
            m.lookup_retire(3, 20),
            None,
            "block 3 has no outstanding fill"
        );
        assert!(
            !m.is_full(),
            "the lookup itself retired the expired entries"
        );
        assert!(m.allocate(3, 20, 133), "freed capacity accepts the miss");
        assert_eq!(m.outstanding(), 1);
    }

    #[test]
    fn clear_empties_file() {
        let mut m = MshrFile::new(2);
        m.allocate(1, 0, 10);
        m.clear();
        assert_eq!(m.outstanding(), 0);
        assert_eq!(m.earliest_completion(), None);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
