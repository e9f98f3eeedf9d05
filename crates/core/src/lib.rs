//! Resizable cache organizations, resizing strategies, and the experiment
//! drivers that reproduce the HPCA 2002 study
//! *"Exploiting Choice in Resizable Cache Design to Optimize Deep-Submicron
//! Processor Energy-Delay"* (Yang, Powell, Falsafi, Vijaykumar).
//!
//! The paper compares, on top of a Wattch/SimpleScalar-style simulated
//! processor:
//!
//! * **Organizations** — [`Organization::SelectiveWays`] (mask off associative
//!   ways), [`Organization::SelectiveSets`] (mask off sets, keeping
//!   associativity), and the paper's proposed [`Organization::Hybrid`] which
//!   offers the union of both size spectra (Table 1).
//! * **Strategies** — [`experiment::Runner::static_best`] (one profiled size
//!   per application) and [`strategy::DynamicController`] (the miss-ratio-based
//!   interval controller with a miss-bound and size-bound).
//! * **Scope** — resizing the d-cache, the i-cache, or both at once
//!   (Figure 9's additivity result).
//!
//! The [`experiment`] module contains one driver per table/figure of the
//! paper; the `rescache-bench` crate turns each into a `cargo bench` target,
//! and each figure bench (`fig4_*` to `fig9_*`) ends with "Paper reference"
//! lines that give the paper's values for its measured rows.
//!
//! # Quick start
//!
//! ```
//! use rescache_core::{CoreError, Organization, ResizableCacheSide, SystemConfig};
//! use rescache_core::experiment::{Runner, RunnerConfig};
//! use rescache_trace::spec;
//!
//! # fn main() -> Result<(), CoreError> {
//! // Evaluate static selective-sets resizing of the d-cache for one app.
//! let runner = Runner::new(RunnerConfig::fast());
//! let outcome = runner.static_best(
//!     &spec::ammp(),
//!     &SystemConfig::base(),
//!     Organization::SelectiveSets,
//!     ResizableCacheSide::Data,
//! )?;
//! assert!(outcome.best.edp_reduction_percent > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod experiment;
pub mod json;
pub mod knobs;
pub mod org;
pub mod strategy;
pub mod system;

pub use error::CoreError;
pub use experiment::{Runner, RunnerConfig};
pub use knobs::Knobs;
pub use org::{CachePoint, ConfigSpace, Organization};
pub use strategy::{DynamicController, DynamicParams, ResizeDecision};
pub use system::{ResizableCacheSide, SystemConfig};
