//! The batched decode front end shared by both execution engines.
//!
//! Both engines replay one resident slice of packed [`InstrRecord`]s (a
//! trace's records, or the warm-up or measured index range of them). The
//! timing loops are serial by nature — every
//! instruction's dispatch cycle depends on its predecessor's — but a share of
//! the per-record work is *not* serial: classifying the operation, counting
//! activity (FP/memory/branch populations and register-file reads), and
//! deciding whether the instruction starts a new fetch group are all pure
//! functions of the record stream. Interleaving that work with the timing
//! recurrence keeps it on the critical dependency chain.
//!
//! [`LaneBatch::decode`] hoists it into one branch-light pass per batch:
//! a *dispatch lane* of one byte per record (the raw kind tag with the
//! i-cache-access mark — the PC-pure half of the [`FetchUnit`] — in the top
//! bit) plus the batch's activity totals, accumulated as four scalars. The
//! timing loop then zips the records with the dispatch lane: per-kind
//! dispatch reads one precomputed byte (the ALU-latency split is a two-entry
//! table lookup, not a branch), and no counters or group tracking remain in
//! the loop.
//!
//! A full struct-of-arrays transpose (separate kind/PC/address/dependency
//! lanes) was measured here first and *lost* 6–19 % against the scalar
//! loops: the 12-byte packed record is already the densest layout the timing
//! loop can stream, and mirroring it into six lanes only added memory
//! traffic. The dispatch lane keeps the batching win — classification and
//! accounting off the serial chain — at one byte per record.
//!
//! Each engine sub-slices its records into [`LANE_BATCH`]-record batches
//! and decodes one batch at a time into a reused lane buffer. Batch
//! boundaries are invisible to the timing loop: results are bit-identical
//! wherever a region starts or ends relative to them (pinned by
//! `tests/batch_boundaries.rs` against the scalar reference engines in
//! [`crate::scalar`]).

use rescache_trace::{kind, InstrRecord};

use crate::fetch::FetchUnit;

/// Records per decoded batch: 8 Ki records keep the dispatch lane (8 KiB)
/// and the batch's records (96 KiB) L2-resident on any host.
pub const LANE_BATCH: usize = 8 * 1024;

/// Bit set in a dispatch-lane byte when the instruction starts a new fetch
/// group and must access the i-cache at its dispatch cycle.
pub const ICACHE_FLAG: u8 = 0x80;

/// Mask extracting the raw kind tag from a dispatch-lane byte.
pub const KIND_MASK: u8 = 0x7f;

/// Ring-buffer size for producer completion times. Valid dependency
/// distances are `1..=COMPLETION_RING`; see [`producer_ready`] for how
/// out-of-range distances are resolved (generated traces never exceed 63).
pub const COMPLETION_RING: usize = 128;

/// Activity totals of one decoded batch, accumulated during the decode pass
/// so the timing loop carries no per-instruction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTotals {
    /// Floating-point operations in the batch.
    pub fp_ops: u64,
    /// Loads and stores in the batch.
    pub mem_ops: u64,
    /// Conditional branches in the batch.
    pub branches: u64,
    /// Register-file reads (non-zero dependency distances) in the batch.
    pub regfile_reads: u64,
}

/// A reusable buffer holding one decoded batch's dispatch lane and totals.
///
/// Allocated once per engine run ([`LANE_BATCH`] capacity, 8 KiB) and
/// refilled per batch by [`LaneBatch::decode`].
#[derive(Debug)]
pub struct LaneBatch {
    len: usize,
    dispatch: Box<[u8]>,
    totals: BatchTotals,
}

impl LaneBatch {
    /// Creates an empty batch buffer with [`LANE_BATCH`] capacity.
    pub fn new() -> Self {
        Self {
            len: 0,
            dispatch: vec![0; LANE_BATCH].into_boxed_slice(),
            totals: BatchTotals::default(),
        }
    }

    /// Number of records in the currently decoded batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no batch has been decoded (or the last one was empty).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Activity totals of the currently decoded batch.
    pub fn totals(&self) -> BatchTotals {
        self.totals
    }

    /// The decoded dispatch lane: per record, the raw kind tag with
    /// [`ICACHE_FLAG`] set when the instruction starts a new fetch group.
    pub fn dispatch(&self) -> &[u8] {
        &self.dispatch[..self.len]
    }

    /// Decodes `records` into the dispatch lane and accumulates the batch's
    /// activity totals.
    ///
    /// `fetch` supplies (and advances) the PC-pure fetch-group tracking; the
    /// i-cache accesses themselves are performed later, in program order, by
    /// the timing loop wherever [`ICACHE_FLAG`] is set.
    ///
    /// # Panics
    ///
    /// Panics if `records` exceeds [`LANE_BATCH`] entries.
    pub fn decode(&mut self, records: &[InstrRecord], fetch: &mut FetchUnit) {
        let n = records.len();
        assert!(n <= LANE_BATCH, "batch of {n} exceeds {LANE_BATCH} records");
        self.len = n;
        let dispatch = &mut self.dispatch[..n];
        let mut totals = BatchTotals::default();
        for (slot, rec) in dispatch.iter_mut().zip(records) {
            let k = rec.kind_tag();
            let group = fetch.advance_group(rec.pc());
            *slot = k | (u8::from(group) << 7);
            totals.fp_ops += u64::from(k == kind::FP);
            totals.mem_ops += u64::from(k == kind::LOAD || k == kind::STORE);
            totals.branches += u64::from(k >= kind::BRANCH_NOT_TAKEN);
            totals.regfile_reads += u64::from(rec.dep1() > 0) + u64::from(rec.dep2() > 0);
        }
        self.totals = totals;
    }
}

impl Default for LaneBatch {
    fn default() -> Self {
        Self::new()
    }
}

/// Completion cycle of the producer `distance` instructions before `idx`,
/// or 0 if there is no such producer (shared by both engines).
///
/// The ring read is unconditional (the index is masked into range) and the
/// no-producer case resolves through a select rather than a branch: the
/// dependency distances follow the simulated program, so a host branch here
/// is unpredictable, and this runs twice per simulated instruction.
///
/// Distances are saturated against the ring capacity: the ring slot for
/// `distance == COMPLETION_RING` still holds that exact producer's completion
/// (it is overwritten only after the current instruction's operands are
/// read), but any larger distance would alias a *younger* instruction's slot,
/// so distances beyond `COMPLETION_RING` — which generated traces never emit
/// (their maximum is 63) but hand-built or foreign decoded traces may carry —
/// are treated as producers that have long since completed, exactly like the
/// pre-history case `distance > idx`.
#[inline(always)]
pub fn producer_ready(completion: &[u64; COMPLETION_RING], idx: usize, distance: u8) -> u64 {
    let distance = distance as usize;
    let value = completion[idx.wrapping_sub(distance) % COMPLETION_RING];
    if distance == 0 || distance > idx || distance > COMPLETION_RING {
        0
    } else {
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescache_trace::Op;

    fn sample_records() -> Vec<InstrRecord> {
        (0..20u64)
            .map(|i| {
                let op = match i % 5 {
                    0 => Op::Load(0x10_0000 + i * 64),
                    1 => Op::Fp,
                    2 => Op::Store(0x20_0000 + i * 64),
                    3 => Op::Branch { taken: i % 2 == 1 },
                    _ => Op::Int,
                };
                InstrRecord::with_deps(0x40_0000 + i * 4, op, (i % 3) as u8, (i % 7) as u8)
            })
            .collect()
    }

    #[test]
    fn decode_tags_and_group_marks_match_the_records() {
        let records = sample_records();
        let mut decode_fetch = FetchUnit::new(32, 4);
        let mut lanes = LaneBatch::new();
        lanes.decode(&records, &mut decode_fetch);
        assert_eq!(lanes.len(), records.len());
        assert!(!lanes.is_empty());

        let mut reference_fetch = FetchUnit::new(32, 4);
        for (&flags, rec) in lanes.dispatch().iter().zip(&records) {
            assert_eq!(flags & KIND_MASK, rec.kind_tag());
            assert_eq!(
                flags & ICACHE_FLAG != 0,
                reference_fetch.advance_group(rec.pc()),
                "group mark at pc {:#x}",
                rec.pc()
            );
        }
    }

    #[test]
    fn decode_totals_match_a_scalar_count() {
        let records = sample_records();
        let mut fetch = FetchUnit::new(32, 4);
        let mut lanes = LaneBatch::new();
        lanes.decode(&records, &mut fetch);
        let expected = BatchTotals {
            fp_ops: records.iter().filter(|r| r.op() == Op::Fp).count() as u64,
            mem_ops: records.iter().filter(|r| r.op().is_mem()).count() as u64,
            branches: records.iter().filter(|r| r.op().is_branch()).count() as u64,
            regfile_reads: records
                .iter()
                .map(|r| u64::from(r.dep1() > 0) + u64::from(r.dep2() > 0))
                .sum(),
        };
        assert_eq!(lanes.totals(), expected);
    }

    #[test]
    fn decode_reuses_the_buffer_across_batches() {
        let records = sample_records();
        let mut fetch = FetchUnit::new(32, 4);
        let mut lanes = LaneBatch::new();
        lanes.decode(&records, &mut fetch);
        lanes.decode(&records[..3], &mut fetch);
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes.dispatch().len(), 3);
        lanes.decode(&[], &mut fetch);
        assert!(lanes.is_empty());
        assert_eq!(lanes.totals(), BatchTotals::default());
    }

    #[test]
    fn producer_ready_reads_in_ring_producers() {
        let mut completion = [0u64; COMPLETION_RING];
        completion[5] = 42;
        assert_eq!(producer_ready(&completion, 6, 1), 42);
        assert_eq!(producer_ready(&completion, 6, 0), 0, "no producer");
        assert_eq!(producer_ready(&completion, 6, 7), 0, "pre-history");
    }

    #[test]
    fn producer_ready_full_ring_distance_reads_the_exact_producer() {
        // Slot idx % RING is written *after* operands are read, so it still
        // holds the completion of the instruction exactly RING back.
        let mut completion = [0u64; COMPLETION_RING];
        let idx = 300usize;
        completion[(idx - COMPLETION_RING) % COMPLETION_RING] = 77;
        assert_eq!(producer_ready(&completion, idx, COMPLETION_RING as u8), 77);
    }

    #[test]
    fn producer_ready_saturates_beyond_the_ring() {
        // A distance one past the ring would alias the slot written one
        // iteration ago (a *younger* instruction); the saturation returns
        // "long completed" instead.
        let completion = [7777u64; COMPLETION_RING];
        for distance in [129u8, 200, 255] {
            assert_eq!(
                producer_ready(&completion, 300, distance),
                0,
                "distance {distance} exceeds the ring and must read as complete"
            );
        }
    }
}
