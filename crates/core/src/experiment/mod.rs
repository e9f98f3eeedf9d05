//! Experiment drivers, built on a shared [`Runner`] that turns
//! (application, system, cache setup) into a [`Measurement`]. The figure
//! drivers in [`figures`] return the runner's own outcomes.
//!
//! | Paper artefact | Driver |
//! |---|---|
//! | Table 1 (hybrid size grid) | [`crate::org::hybrid_grid`] |
//! | Figure 4 (orgs vs. associativity) | [`figures::static_grid`] |
//! | Figure 5 (orgs per application, 4-way) | [`figures::static_grid`] at `&[4]` |
//! | Figure 6 (hybrid effectiveness) | [`figures::static_grid`] over [`Organization::ALL`](crate::org::Organization::ALL) |
//! | Figure 7 (d-cache static vs. dynamic) | [`figures::static_vs_dynamic`] |
//! | Figure 8 (i-cache static vs. dynamic) | [`figures::static_vs_dynamic`] |
//! | Figure 9 (resizing both L1s) | [`figures::dual_resizing`] |

pub mod figures;
pub mod parallel;
pub mod report;
pub mod runner;
pub mod server;
pub mod shared_tier;
pub mod trace_store;

pub use figures::{dual_resizing, mean_edp_reduction, static_grid, static_vs_dynamic, DualOutcome};
pub use parallel::{effective_workers, parallel_map};
pub use report::{format_table, mean};
pub use runner::{
    BestSummary, DynamicOutcome, Measurement, RunSetup, Runner, RunnerConfig, StaticOutcome,
};
pub use server::{ServeConfig, ServerHandle, SweepServer};
pub use shared_tier::{HealthCounters, Memo, SharedTier, StoreHealth, DEFAULT_RESIDENT_CAP};
pub use trace_store::TraceStore;
