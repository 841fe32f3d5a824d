#![warn(missing_docs)]
//! Discrete-event experiment harness.
//!
//! Reproduces the paper's methodology (Section 4): traces are replayed
//! against the engine twice — once under normal processing, once under
//! speculative processing — on a *virtual* clock, and speculation's
//! effect is reported as percentage improvement per execution-time
//! bucket.
//!
//! * [`dataset`] — dataset specifications (the paper's 100 MB / 500 MB /
//!   1 GB configurations, with the scaled-clock substitution from
//!   DESIGN.md) and the all-subset-join materialized-view baseline of
//!   Figure 6,
//! * [`replay`] — the one replay event loop: the speculator issues
//!   cancellable asynchronous manipulations during recorded think time,
//!   for one user ([`replay_trace`]), a fleet of sessions sharing
//!   artifacts under the `specdb-serve` governor
//!   ([`replay_multi_session`]), or simultaneous users contending for a
//!   processor-sharing server (Figure 7, [`replay_multi`]); the entry
//!   point picks the contention rule,
//! * [`report`] — the improvement metric, bucketing, and table rendering,
//! * [`dashboard`] — self-contained HTML speculation-timeline rendering
//!   from a traced replay's events and spans.

pub mod dashboard;
pub mod dataset;
pub mod replay;
pub mod report;

pub use dataset::{
    build_base_db, build_base_db_spilling, materialize_all_subset_joins,
    materialize_subset_joins_up_to, DatasetSpec,
};
pub use replay::{
    replay_multi, replay_multi_session, replay_trace, MultiSessionConfig, MultiSessionOutcome,
    ProfileKind, QueryMeasurement, ReplayConfig, ReplayOutcome,
};
pub use report::{bucketize, improvement, Bucket, BucketRow, PairedRun};
