//! Resizing strategies: *when* the cache changes size.
//!
//! * The static strategy of Albonesi's proposal — one size per application,
//!   chosen offline by profiling every offered configuration and keeping the
//!   one with the lowest processor energy-delay product — is
//!   [`Runner::static_best`](crate::experiment::Runner::static_best).
//! * [`DynamicController`] — the miss-ratio-based dynamic strategy of Yang et
//!   al.: the cache is monitored in fixed-length intervals of accesses; a
//!   miss counter compared against a profiled **miss-bound** decides whether
//!   to upsize or downsize, and a **size-bound** prevents downsizing past a
//!   floor.

pub mod dynamic;

pub use dynamic::{DynamicController, DynamicParams, ResizeDecision};
