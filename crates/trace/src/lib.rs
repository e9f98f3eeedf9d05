//! Synthetic SPEC-like workload and trace generation for the `rescache`
//! resizable-cache study.
//!
//! The HPCA 2002 paper this workspace reproduces evaluates resizable caches by
//! running SPEC95/SPEC2000 binaries on a SimpleScalar/Wattch simulator. SPEC
//! binaries and reference inputs are proprietary, so this crate provides the
//! closest synthetic equivalent: per-application *profiles* that encode the
//! properties the paper's evaluation actually depends on — data working-set
//! size and its phase behaviour, instruction footprint and its phase
//! behaviour, conflict-miss propensity, instruction mix, branch behaviour and
//! instruction-level parallelism — and a deterministic generator that expands
//! a profile into an instruction [`Trace`] consumable by `rescache-cpu`.
//!
//! # Crate map
//!
//! * [`record`] — the [`InstrRecord`]/[`Op`] trace record types.
//! * [`format`](mod@format) — the [`TraceFormat`]: the one generation algorithm and
//!   on-disk container.
//! * [`trace`] — the [`Trace`] container and [`TraceStats`] summary.
//! * [`source`] — [`TraceSource`], a pull interface kept for the standalone
//!   benchmark.
//! * [`codec`] — binary persistence for traces: one container of a
//!   length-prefixed header and every record verbatim (11 bytes each),
//!   saved from a [`Trace`] and loaded back whole, with one typed error
//!   ([`CodecError`]) for a file that cannot be served.
//! * [`rng`] — a small deterministic pseudo-random number generator.
//! * [`phase`] — [`PhaseSchedule`]: how a working set evolves over time.
//! * [`working_set`] — [`WorkingSetSpec`]: size, aliasing segments, locality.
//! * [`address`] — data-address stream generation for a working set.
//! * [`code`] — instruction-address (PC) stream generation for a footprint.
//! * [`mix`] — instruction mix (loads/stores/FP/branches).
//! * [`branch`] — branch outcome behaviour.
//! * [`ilp`] — dependency-distance (ILP) behaviour.
//! * [`profile`] — [`AppProfile`]: everything needed to generate one app.
//! * [`spec`] — the twelve SPEC-like application profiles used by the paper.
//! * [`workload`] — [`WorkloadRegistry`]: named scenario workloads.
//! * [`generator`] — [`TraceGenerator`]: expands a profile into a [`Trace`].
//!
//! Every consumer replays a resident [`Trace`]: the engines take its record
//! slice, and warm-up and measured regions are index ranges into it.
//!
//! # Example
//!
//! ```
//! use rescache_trace::{spec, TraceGenerator};
//!
//! let profile = spec::profile("gcc").expect("gcc profile exists");
//! let trace = TraceGenerator::new(profile.clone(), 42).generate(10_000);
//! assert_eq!(trace.len(), 10_000);
//! let stats = trace.stats();
//! assert!(stats.loads + stats.stores > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod branch;
pub mod code;
pub mod codec;
pub mod format;
pub mod generator;
pub mod ilp;
pub mod mix;
pub mod phase;
pub mod profile;
pub mod record;
pub mod rng;
pub mod source;
pub mod spec;
pub mod trace;
pub mod working_set;
pub mod workload;

pub use address::AddressStream;
pub use branch::BranchBehavior;
pub use code::CodeStream;
pub use codec::{CodecError, IoPolicy};
pub use format::TraceFormat;
pub use generator::TraceGenerator;
pub use ilp::{DistanceSampler, DistanceTable, IlpBehavior, MAX_DISTANCE};
pub use mix::{InstructionMix, MixClass, MixThresholds};
pub use phase::{Phase, PhaseSchedule, ScheduleCursor, ScheduleKind};
pub use profile::{AppProfile, CodeBehavior, DataBehavior};
pub use record::{kind, InstrRecord, Op};
pub use rng::{chance_bits, Prng};
pub use source::TraceSource;
pub use trace::{Trace, TraceStats};
pub use working_set::WorkingSetSpec;
pub use workload::{WorkloadRegistry, WorkloadSpec};
