#![warn(missing_docs)]
//! Query processor: the DBMS the speculation subsystem prepares.
//!
//! The paper ran against Oracle 8i; this crate is the from-scratch
//! equivalent sized to the paper's workload (conjunctive queries over a
//! TPC-H subset):
//!
//! * [`context`] — execution context and cancellation tokens (speculative
//!   manipulations are cancellable mid-flight, paper Section 3.1),
//! * [`plan`] — physical plan trees with bound predicates,
//! * [`run`] — the push-based row-at-a-time executor for plans,
//! * [`batch`] — the columnar batch executor (the default path):
//!   operators exchange [`batch::ColumnBatch`]es of `Arc`-shared column
//!   vectors with selection vectors; scans forward cached column
//!   segments zero-copy and fuse filter/project,
//! * [`estimate`] — cardinality/cost estimation from catalog statistics
//!   and histograms,
//! * [`optimizer`] — access-path selection and greedy join ordering,
//! * [`rewrite`] — the materialized-view registry and sub-graph
//!   rewriting (the mechanism speculative materializations plug into),
//! * [`engine`] — [`Database`]: the public facade binding storage,
//!   catalog, optimizer and executor together, measuring every
//!   operation's virtual elapsed time.

pub mod batch;
pub mod context;
pub mod engine;
pub mod error;
pub mod estimate;
pub mod optimizer;
pub mod parallel;
pub mod plan;
pub mod plan_cache;
pub mod rewrite;
pub mod run;

pub use batch::{run_batched, run_collect_batched, ColumnBatch, DEFAULT_BATCH_SIZE};
pub use context::{BatchStats, CancelToken, ExecCtx};
pub use engine::{
    threads_from_env, Database, DatabaseConfig, ExecMode, MaterializeOutcome, OpOutcome,
    QueryOutput, ViewMode,
};
pub use error::{ExecError, ExecResult};
pub use estimate::{CostEstimate, Estimator};
pub use parallel::effective_workers;
pub use plan::{BoundPred, Plan, PlanNode};
pub use plan_cache::{PlanCache, PlanCacheStats};
pub use rewrite::{MatchMode, ViewDef, ViewRegistry};
