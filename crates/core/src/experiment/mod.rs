//! Experiment drivers, built on a shared [`Runner`] that turns
//! (application, system, cache setup) into a [`Measurement`]. The figure
//! drivers in [`figures`] return the runner's own outcomes.
//!
//! Both resizing strategies are one profiled search, so both return a
//! [`SearchOutcome`]: every evaluated candidate and the minimum-EDP
//! `best`, whose `choice` names the winner — a
//! [`CachePoint`](crate::org::CachePoint) in a [`StaticOutcome`], the
//! controller's [`DynamicParams`](crate::strategy::DynamicParams) in a
//! [`DynamicOutcome`]. The static search is one function: the figure
//! drivers collect it through [`Runner::static_best`], and the sweep
//! service's `sweep` verb ([`server`]) streams each point of the same
//! search as it completes and ends with its outcome.
//!
//! Every runner's traces and static simulations live in one [`SharedTier`]
//! (the trace memo, the simulation memo and their health counters);
//! [`TraceStore`] is another name for it.
//!
//! [`figures::paper`] runs every figure in one call, each read from one
//! field of its outcome; the parametric drivers run subsets of its jobs.
//!
//! | Paper artefact | [`PaperOutcome`] field | Outcome per application |
//! |---|---|---|
//! | Table 1 (hybrid size grid) | — ([`crate::org::hybrid_grid`]) | — |
//! | Figure 4 (orgs vs. associativity) | `grids`, selective-ways and selective-sets cells | [`StaticOutcome`] per (associativity, organization) |
//! | Figure 5 (orgs per application, 4-way) | `grids`, 4-way selective-ways and selective-sets cells | [`StaticOutcome`] per organization |
//! | Figure 6 (hybrid effectiveness) | `grids` | [`StaticOutcome`] per (associativity, organization) |
//! | Figure 7 (d-cache static vs. dynamic) | `strategies[0]` | ([`StaticOutcome`], [`DynamicOutcome`]) per processor |
//! | Figure 8 (i-cache static vs. dynamic) | `strategies[1]` | ([`StaticOutcome`], [`DynamicOutcome`]) per processor |
//! | Figure 9 (resizing both L1s) | `dual` | [`DualOutcome`] |

pub mod figures;
pub mod parallel;
pub mod report;
pub mod runner;
pub mod server;
pub mod shared_tier;
pub mod trace_store;

pub use figures::{
    dual_resizing, mean_edp_reduction, paper, static_grid, static_vs_dynamic, DualOutcome,
    GridOutcome, PaperOutcome, PAPER_ASSOCIATIVITIES,
};
pub use parallel::{effective_workers, parallel_map};
pub use report::{format_table, mean};
pub use runner::{
    BestSummary, DynamicOutcome, Measurement, RunSetup, Runner, RunnerConfig, SearchOutcome,
    StaticOutcome,
};
pub use server::{ServeConfig, ServerHandle, SweepServer};
pub use shared_tier::{SharedTier, StoreHealth};
pub use trace_store::TraceStore;
