//! Trace-driven in-order and out-of-order processor models with activity
//! accounting.
//!
//! The HPCA 2002 resizable-cache study evaluates two processor
//! configurations, because the win of dynamic over static resizing hinges on
//! whether cache-miss latency is exposed to the execution's critical path:
//!
//! * an **in-order issue engine with a blocking d-cache** — every d-cache
//!   miss stalls the pipeline, i-cache misses are comparatively less critical;
//! * an **out-of-order issue engine with a non-blocking d-cache** (the base
//!   configuration of Table 2: 4-wide, 64-entry ROB, 32-entry LSQ, 8 MSHRs) —
//!   d-cache misses largely overlap with independent work, i-cache misses
//!   stall fetch and are exposed.
//!
//! Both engines are trace-driven: each is one loop over a resident slice of
//! a [`rescache_trace::Trace`]'s records, replayed against a
//! [`rescache_cache::MemoryHierarchy`]. Per record the loop fetches through
//! the shared [`FetchUnit`] and dispatches on the record's one-byte kind tag.
//! A run produces a cycle count and per-structure [`ActivityCounters`] for
//! the energy model, and invokes a [`SimHook`] after every committed
//! instruction so that resizing controllers (in `rescache-core`) can observe
//! and resize the caches mid-run. The hidden `scalar` module keeps the
//! `Op`-matching oracle loops both engines are differentially tested
//! against.
//!
//! # Example
//!
//! ```
//! use rescache_cache::{HierarchyConfig, MemoryHierarchy};
//! use rescache_cpu::{CpuConfig, Simulator};
//! use rescache_trace::{spec, TraceGenerator};
//!
//! let trace = TraceGenerator::new(spec::m88ksim(), 1).generate(5_000);
//! let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::base()).unwrap();
//! let result = Simulator::new(CpuConfig::base_out_of_order()).run(&trace, &mut hierarchy);
//! assert!(result.cycles > 0);
//! assert_eq!(result.instructions, 5_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod branch;
mod completion;
pub mod config;
pub mod fetch;
pub mod hook;
pub mod inorder;
pub mod lsq;
pub mod ooo;
pub mod result;
pub mod rob;
pub mod scalar;
pub mod simulator;

pub use activity::ActivityCounters;
pub use branch::{BranchPredictor, BranchStats};
pub use completion::COMPLETION_RING;
pub use config::{CpuConfig, EngineKind};
pub use fetch::FetchUnit;
pub use hook::{NoopHook, SimHook};
pub use inorder::InOrderEngine;
pub use lsq::LoadStoreQueue;
pub use ooo::OutOfOrderEngine;
pub use result::{LatencyStats, SimResult};
pub use rob::ReorderBuffer;
pub use simulator::Simulator;
