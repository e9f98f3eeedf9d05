//! Experiment drivers: one module per table/figure of the paper, built on a
//! shared [`Runner`] that turns (application, system, cache setup) into a
//! [`Measurement`].
//!
//! | Paper artefact | Driver |
//! |---|---|
//! | Table 1 (hybrid size grid) | [`crate::org::hybrid_grid`] |
//! | Figure 4 (orgs vs. associativity) | [`org_comparison::organization_vs_associativity`] |
//! | Figure 5 (orgs per application, 4-way) | [`org_comparison::per_app_org_comparison`] |
//! | Figure 6 (hybrid effectiveness) | [`org_comparison::organization_vs_associativity`] over [`Organization::ALL`](crate::org::Organization::ALL) |
//! | Figure 7 (d-cache static vs. dynamic) | [`strategy_cmp::static_vs_dynamic`] |
//! | Figure 8 (i-cache static vs. dynamic) | [`strategy_cmp::static_vs_dynamic`] |
//! | Figure 9 (resizing both L1s) | [`dual::dual_resizing`] |

pub mod dual;
pub mod org_comparison;
pub mod parallel;
pub mod report;
pub mod runner;
pub mod server;
pub mod shared_tier;
pub mod strategy_cmp;
pub mod trace_store;

pub use dual::{dual_resizing, DualOutcome, DualRow};
pub use org_comparison::{
    organization_vs_associativity, per_app_org_comparison, OrgAssocPoint, PerAppOrgRow,
};
pub use parallel::{effective_workers, parallel_map};
pub use report::{format_table, mean};
pub use runner::{
    BestSummary, DynamicOutcome, Measurement, RunSetup, Runner, RunnerConfig, StaticOutcome,
};
pub use server::{ServeConfig, ServerHandle, SweepServer};
pub use shared_tier::{HealthCounters, Memo, SharedTier, StoreHealth, DEFAULT_RESIDENT_CAP};
pub use strategy_cmp::{static_vs_dynamic, StrategyRow};
pub use trace_store::TraceStore;
