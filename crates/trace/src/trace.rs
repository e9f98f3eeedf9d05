//! The [`Trace`] container and summary statistics.

use std::ops::Range;
use std::sync::Arc;

use crate::record::{InstrRecord, Op};

/// A dynamic instruction trace for one application.
///
/// A trace is generated once per application (deterministically from a seed)
/// and then replayed under every cache configuration of an experiment, which
/// keeps the thousands of simulations behind the paper's figures tractable.
///
/// The record storage is an `Arc<Vec<InstrRecord>>` window. [`Trace::new`]
/// adopts the caller's vector as is, so the buffer a generator or a disk
/// decode fills is the one every view reads: it is never copied, not even
/// at construction. Cloning a trace, or slicing it into warm-up and measured
/// regions with [`Trace::slice`] / [`Trace::split_at`], shares that buffer.
/// A paper-length trace is ~2.6 million 12-byte records (~31 MB each, ~375 MB
/// across twelve applications), and every experiment replays it under many
/// cache configurations — copy-free sharing is what makes a per-application
/// trace cache affordable.
#[derive(Debug, Clone)]
pub struct Trace {
    name: Arc<str>,
    records: Arc<Vec<InstrRecord>>,
    /// Window into `records` occupied by this trace view.
    start: usize,
    len: usize,
}

impl Trace {
    /// Creates a trace from a name and a record vector, adopting the
    /// vector's allocation (capacity included) rather than copying it.
    pub fn new(name: impl Into<String>, records: Vec<InstrRecord>) -> Self {
        let len = records.len();
        Self {
            name: name.into().into(),
            records: Arc::new(records),
            start: 0,
            len,
        }
    }

    /// The application name this trace was generated from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The trace records, in dynamic program order.
    pub fn records(&self) -> &[InstrRecord] {
        &self.records[self.start..self.start + self.len]
    }

    /// Number of dynamic instructions in the trace.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the trace contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether another handle — a clone, a slice or a split of this trace
    /// or of the trace it came from — shares this trace's record buffer, so
    /// dropping this handle would not free it.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.records) > 1
    }

    /// Returns a copy-free sub-trace covering `range` of this trace's
    /// records. The returned trace shares the underlying record buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Trace {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {range:?} out of bounds for a trace of {} records",
            self.len
        );
        Self {
            name: Arc::clone(&self.name),
            records: Arc::clone(&self.records),
            start: self.start + range.start,
            len: range.end - range.start,
        }
    }

    /// Splits the trace into copy-free `[..mid]` and `[mid..]` sub-traces
    /// (e.g. a warm-up region and a measured region).
    ///
    /// # Panics
    ///
    /// Panics if `mid` exceeds the trace length.
    pub fn split_at(&self, mid: usize) -> (Trace, Trace) {
        (self.slice(0..mid), self.slice(mid..self.len))
    }

    /// Iterates over the records in dynamic program order.
    pub fn iter(&self) -> std::slice::Iter<'_, InstrRecord> {
        self.records().iter()
    }

    /// Computes summary statistics over the whole trace.
    pub fn stats(&self) -> TraceStats {
        let mut stats = TraceStats::default();
        for r in self.records() {
            stats.instructions += 1;
            match r.op() {
                Op::Int => stats.int_ops += 1,
                Op::Fp => stats.fp_ops += 1,
                Op::Load(_) => stats.loads += 1,
                Op::Store(_) => stats.stores += 1,
                Op::Branch { taken } => {
                    stats.branches += 1;
                    if taken {
                        stats.taken_branches += 1;
                    }
                }
            }
        }
        stats
    }
}

impl PartialEq for Trace {
    /// Traces compare by name and visible records, so a copy-free view is
    /// equal to an owned trace with the same contents.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.records() == other.records()
    }
}

impl Eq for Trace {}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a InstrRecord;
    type IntoIter = std::slice::Iter<'a, InstrRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records().iter()
    }
}

/// Aggregate counts over a [`Trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total dynamic instructions.
    pub instructions: u64,
    /// Integer ALU operations.
    pub int_ops: u64,
    /// Floating-point operations.
    pub fp_ops: u64,
    /// Load instructions.
    pub loads: u64,
    /// Store instructions.
    pub stores: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Taken conditional branches.
    pub taken_branches: u64,
}

impl TraceStats {
    /// Fraction of instructions that access memory.
    pub fn mem_fraction(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        (self.loads + self.stores) as f64 / self.instructions as f64
    }

    /// Fraction of instructions that are conditional branches.
    pub fn branch_fraction(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.branches as f64 / self.instructions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            "t",
            vec![
                InstrRecord::new(0, Op::Int),
                InstrRecord::new(4, Op::Load(64)),
                InstrRecord::new(8, Op::Store(128)),
                InstrRecord::new(12, Op::Branch { taken: true }),
                InstrRecord::new(0, Op::Branch { taken: false }),
                InstrRecord::new(4, Op::Fp),
            ],
        )
    }

    #[test]
    fn stats_counts() {
        let s = sample().stats();
        assert_eq!(s.instructions, 6);
        assert_eq!(s.int_ops, 1);
        assert_eq!(s.fp_ops, 1);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.branches, 2);
        assert_eq!(s.taken_branches, 1);
    }

    #[test]
    fn fractions() {
        let s = sample().stats();
        assert!((s.mem_fraction() - 2.0 / 6.0).abs() < 1e-12);
        assert!((s.branch_fraction() - 2.0 / 6.0).abs() < 1e-12);
        let empty = TraceStats::default();
        assert_eq!(empty.mem_fraction(), 0.0);
        assert_eq!(empty.branch_fraction(), 0.0);
    }

    #[test]
    fn slicing_is_copy_free_and_consistent() {
        let t = sample();
        let (warm, measure) = t.split_at(2);
        assert_eq!(warm.len(), 2);
        assert_eq!(measure.len(), 4);
        assert_eq!(warm.records(), &t.records()[..2]);
        assert_eq!(measure.records(), &t.records()[2..]);
        assert_eq!(warm.name(), t.name());
        // Nested slicing stays anchored to the right window.
        let inner = measure.slice(1..3);
        assert_eq!(inner.records(), &t.records()[3..5]);
        // A view equals an owned trace with the same contents.
        assert_eq!(inner, Trace::new("t", t.records()[3..5].to_vec()));
    }

    #[test]
    fn construction_adopts_the_vector_and_views_share_it() {
        let records = sample().records().to_vec();
        let base = records.as_ptr();
        let t = Trace::new("t", records);
        assert_eq!(t.records().as_ptr(), base, "Trace::new copied the records");
        assert_eq!(t.clone().records().as_ptr(), base);
        let (warm, measure) = t.split_at(2);
        assert_eq!(warm.records().as_ptr(), base);
        assert_eq!(measure.records().as_ptr(), base.wrapping_add(2));
        assert_eq!(measure.slice(1..3).records().as_ptr(), base.wrapping_add(3));
    }

    #[test]
    fn sharing_counts_every_view_of_the_buffer() {
        let t = sample();
        assert!(!t.is_shared(), "a fresh trace is its buffer's only handle");
        let (warm, measure) = t.split_at(2);
        assert!(t.is_shared() && warm.is_shared());
        drop((warm, measure));
        assert!(!t.is_shared(), "dropped views release the buffer");
        let copy = t.clone();
        assert!(copy.is_shared());
        drop(t);
        assert!(!copy.is_shared());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_slice_panics() {
        sample().slice(3..99);
    }

    #[test]
    fn trace_accessors() {
        let t = sample();
        assert_eq!(t.name(), "t");
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        assert_eq!(t.iter().count(), 6);
        assert_eq!((&t).into_iter().count(), 6);
        assert!(Trace::new("e", vec![]).is_empty());
    }
}
