//! The [`TraceSource`] abstraction: pull-based, chunked record delivery.
//!
//! Every consumer of a trace — the in-order engine, the out-of-order engine,
//! summary statistics — iterates records in dynamic program order exactly
//! once. `TraceSource` captures that contract as a pull-based chunk stream,
//! which admits several very different producers behind one monomorphized
//! interface:
//!
//! * [`TraceCursor`] — a window over an already-materialized
//!   [`Trace`](crate::Trace) (`Arc<Vec<InstrRecord>>` storage). It yields each
//!   delivery region as a single chunk, so the engines' hot loops run over
//!   one contiguous slice exactly as they did before this abstraction
//!   existed; memoization and copy-free trace sharing are untouched.
//! * [`TraceStream`](crate::TraceStream) — a resumable generator that
//!   expands an [`AppProfile`](crate::AppProfile) chunk by chunk on demand,
//!   so a simulation over a fresh trace needs only one fixed-size chunk
//!   buffer resident instead of the full record array.
//! * [`TraceFileSource`](crate::codec::TraceFileSource) — a chunk-by-chunk
//!   decoder over a persisted trace-store entry, the replay path of
//!   `RESCACHE_TRACE_DIR`-backed experiments.
//!
//! # The warm/measure split
//!
//! Experiments simulate a warm-up region, reset statistics, then simulate a
//! measured region over the *same* source with carried-over cache state. The
//! trait therefore exposes a resumable split protocol: [`TraceSource::split_at`]
//! fences delivery at an absolute record index — once [`TraceSource::position`]
//! reaches the fence, `next_chunk` reports exhaustion — and a later
//! `split_at` further out resumes delivery exactly where the previous region
//! stopped, even mid-chunk. This works across chunk boundaries for every
//! implementation (property-tested in `tests/source_split_properties.rs`).

use crate::record::InstrRecord;
use crate::trace::Trace;

/// Number of records per chunk used by streaming sources.
///
/// 8 Ki records × 12 bytes = 96 KiB per chunk: large enough that the
/// per-chunk dispatch cost vanishes against per-record simulation work, small
/// enough to stay L2-resident on any host.
pub const CHUNK_RECORDS: usize = 8 * 1024;

/// A pull-based source of trace records, delivered in program order as
/// chunks.
///
/// Implementations hand out successive chunks until the trace — or the
/// current split region (see [`TraceSource::split_at`]) — is exhausted, at
/// which point [`TraceSource::next_chunk`] returns an empty slice (and
/// continues to do so until the fence moves). Consumers are expected to be
/// generic over `S: TraceSource`, so the materialized, streaming and on-disk
/// paths all monomorphize down to a plain slice loop.
pub trait TraceSource {
    /// The application name the records were generated from.
    fn name(&self) -> &str;

    /// Total number of records this source yields over its lifetime.
    fn total_records(&self) -> usize;

    /// Returns the next chunk of records, or an empty slice when the source
    /// (or the current split region) is exhausted.
    fn next_chunk(&mut self) -> &[InstrRecord];

    /// Number of records delivered so far.
    fn position(&self) -> usize;

    /// Fences delivery at absolute record index `at`, clamped into
    /// `[position(), total_records()]`: `next_chunk` never crosses the fence,
    /// and reports exhaustion once `position()` reaches it. Calling
    /// `split_at` again with a larger index resumes delivery from exactly the
    /// fenced position — the warm/measure split of an experiment is
    /// `split_at(warm)`, drain, then `split_at(warm + measure)`, drain.
    fn split_at(&mut self, at: usize);
}

/// A [`TraceSource`] over a materialized [`Trace`] window.
///
/// Cloning the underlying trace is an `Arc` bump, so a cursor is cheap to
/// create per simulation; each delivery region it yields is one contiguous
/// sub-slice of the trace's record slice, keeping the consuming loop
/// identical to direct slice iteration.
#[derive(Debug, Clone)]
pub struct TraceCursor {
    trace: Trace,
    pos: usize,
    fence: usize,
}

impl TraceCursor {
    /// Creates a cursor over (a copy-free clone of) the given trace window.
    pub fn new(trace: Trace) -> Self {
        let fence = trace.len();
        Self {
            trace,
            pos: 0,
            fence,
        }
    }
}

impl TraceSource for TraceCursor {
    fn name(&self) -> &str {
        self.trace.name()
    }

    fn total_records(&self) -> usize {
        self.trace.len()
    }

    fn next_chunk(&mut self) -> &[InstrRecord] {
        // Deliver the whole remaining region as one chunk: the consuming
        // loop stays a single contiguous-slice pass per region.
        let (start, end) = (self.pos, self.fence);
        self.pos = end;
        &self.trace.records()[start..end]
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn split_at(&mut self, at: usize) {
        self.fence = at.clamp(self.pos, self.trace.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Op;

    fn sample() -> Trace {
        Trace::new(
            "s",
            vec![
                InstrRecord::new(0, Op::Int),
                InstrRecord::new(4, Op::Load(64)),
                InstrRecord::new(8, Op::Branch { taken: true }),
            ],
        )
    }

    #[test]
    fn cursor_yields_the_window_once() {
        let trace = sample();
        let mut cursor = TraceCursor::new(trace.clone());
        assert_eq!(cursor.name(), "s");
        assert_eq!(cursor.total_records(), 3);
        assert_eq!(cursor.next_chunk(), trace.records());
        assert!(cursor.next_chunk().is_empty());
        assert!(cursor.next_chunk().is_empty());
        assert_eq!(cursor.position(), 3);
    }

    #[test]
    fn cursor_respects_window_slicing() {
        let trace = sample();
        let (_, tail) = trace.split_at(1);
        let mut cursor = TraceCursor::new(tail);
        assert_eq!(cursor.next_chunk(), &trace.records()[1..]);
        assert!(cursor.next_chunk().is_empty());
    }

    #[test]
    fn cursor_split_resumes_at_the_fence() {
        let trace = sample();
        let mut cursor = TraceCursor::new(trace.clone());
        cursor.split_at(1);
        assert_eq!(cursor.next_chunk(), &trace.records()[..1]);
        assert!(cursor.next_chunk().is_empty(), "region exhausted");
        assert_eq!(cursor.position(), 1);
        cursor.split_at(3);
        assert_eq!(cursor.next_chunk(), &trace.records()[1..]);
        assert!(cursor.next_chunk().is_empty());
    }

    #[test]
    fn cursor_split_clamps_into_the_window() {
        let trace = sample();
        let mut cursor = TraceCursor::new(trace.clone());
        cursor.split_at(99);
        assert_eq!(cursor.next_chunk().len(), 3);
        // A fence behind the position clamps up to it (empty region).
        cursor.split_at(0);
        assert!(cursor.next_chunk().is_empty());
    }
}
