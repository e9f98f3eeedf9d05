//! [`TraceSource`], a pull interface kept only for the standalone benchmark.
//!
//! Records reach the execution engines as one resident slice
//! ([`Trace::records`](crate::Trace::records)), and a persisted trace is
//! loaded whole ([`codec::load`](crate::codec::load)); nothing streams. The
//! one implementor left is the benchmark's
//! [`TraceFileSource`](crate::codec::TraceFileSource) shim.

use crate::record::InstrRecord;

/// A pull-based source of trace records, delivered in program order. Kept
/// only because the standalone benchmark (`perfbench/src/layers.rs`) reads
/// a store entry through it.
pub trait TraceSource {
    /// Returns the next chunk of records, or an empty slice once the source
    /// is exhausted (and on every call after that).
    fn next_chunk(&mut self) -> &[InstrRecord];
}
