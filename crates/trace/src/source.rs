//! The on-disk chunk size and [`TraceSource`], a pull interface kept only
//! for the standalone benchmark.
//!
//! Records reach the execution engines as one resident slice
//! ([`Trace::records`](crate::Trace::records)), and a persisted trace is
//! loaded whole ([`codec::load`](crate::codec::load)); nothing streams. The
//! one implementor left is the benchmark's
//! [`TraceFileSource`](crate::codec::TraceFileSource) shim.

use crate::record::InstrRecord;

/// Number of records per on-disk chunk.
///
/// 8 Ki records × 12 bytes = 96 KiB per decoded chunk: large enough that the
/// per-chunk framing cost vanishes against the per-record decode, small
/// enough to stay L2-resident on any host.
pub const CHUNK_RECORDS: usize = 8 * 1024;

/// A pull-based source of trace records, delivered in program order. Kept
/// only because the standalone benchmark (`perfbench/src/layers.rs`) reads
/// a store entry through it.
pub trait TraceSource {
    /// Returns the next chunk of records, or an empty slice once the source
    /// is exhausted (and on every call after that).
    fn next_chunk(&mut self) -> &[InstrRecord];
}
