//! The on-disk chunk size and [`TraceSource`], the pull interface of the
//! chunked store reader.
//!
//! Records reach the execution engines as one resident slice
//! ([`Trace::records`](crate::Trace::records)); nothing streams into an
//! engine. The one chunked producer left is
//! [`TraceFileSource`](crate::codec::TraceFileSource), which decodes a
//! persisted trace-store entry chunk by chunk so its reader can copy each
//! chunk into the entry's resident record buffer.

use crate::record::InstrRecord;

/// Number of records per on-disk chunk.
///
/// 8 Ki records × 12 bytes = 96 KiB per decoded chunk: large enough that the
/// per-chunk framing cost vanishes against the per-record decode, small
/// enough to stay L2-resident on any host.
pub const CHUNK_RECORDS: usize = 8 * 1024;

/// A pull-based source of trace records, delivered in program order as
/// chunks of at most [`CHUNK_RECORDS`] records.
pub trait TraceSource {
    /// Returns the next chunk of records, or an empty slice once the source
    /// is exhausted (and on every call after that).
    fn next_chunk(&mut self) -> &[InstrRecord];
}
