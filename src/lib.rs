//! # rescache — resizable cache design-space exploration
//!
//! A from-scratch Rust reproduction of *"Exploiting Choice in Resizable Cache
//! Design to Optimize Deep-Submicron Processor Energy-Delay"* (Yang, Powell,
//! Falsafi, Vijaykumar — HPCA 2002), including every substrate the study
//! depends on: synthetic SPEC-like workloads, a resizable cache hierarchy,
//! in-order and out-of-order processor models, and a Wattch-style energy
//! model.
//!
//! This facade crate re-exports the workspace's public API under one roof and
//! hosts the runnable examples and cross-crate integration tests. The
//! individual crates are:
//!
//! * [`trace`] (`rescache-trace`) — workload profiles and trace generation.
//! * [`cache`] (`rescache-cache`) — the resizable cache hierarchy.
//! * [`cpu`] (`rescache-cpu`) — the two execution engines.
//! * [`energy`] (`rescache-energy`) — energy models and energy-delay metrics.
//! * [`core`] (`rescache-core`) — organizations, strategies and experiments.
//!
//! # Quick start
//!
//! ```
//! use rescache::core::experiment::{Runner, RunnerConfig};
//! use rescache::core::{CoreError, Organization, ResizableCacheSide, SystemConfig};
//! use rescache::trace::spec;
//!
//! # fn main() -> Result<(), CoreError> {
//! let runner = Runner::new(RunnerConfig::fast());
//! let outcome = runner.static_best(
//!     &spec::m88ksim(),
//!     &SystemConfig::base(),
//!     Organization::SelectiveSets,
//!     ResizableCacheSide::Data,
//! )?;
//! println!(
//!     "m88ksim: best d-cache point {:?}, energy-delay reduction {:.1} %",
//!     outcome.best.choice,
//!     outcome.best.edp_reduction_percent
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rescache_cache as cache;
pub use rescache_core as core;
pub use rescache_cpu as cpu;
pub use rescache_energy as energy;
pub use rescache_trace as trace;

/// The most commonly used types, re-exported flat for convenience.
pub mod prelude {
    pub use rescache_cache::{Cache, CacheConfig, HierarchyConfig, MemoryHierarchy};
    pub use rescache_core::experiment::{
        Runner, RunnerConfig, ServeConfig, ServerHandle, SharedTier, SweepServer,
    };
    pub use rescache_core::{
        CachePoint, ConfigSpace, CoreError, DynamicController, DynamicParams, Organization,
        ResizableCacheSide, ResizeDecision, SystemConfig,
    };
    pub use rescache_cpu::{CpuConfig, EngineKind, NoopHook, SimHook, SimResult, Simulator};
    pub use rescache_energy::{EnergyBreakdown, EnergyDelay, EnergyModel};
    pub use rescache_trace::{spec, AppProfile, Trace, TraceGenerator, WorkloadRegistry};
}
