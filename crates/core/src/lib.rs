#![warn(missing_docs)]
//! The speculation subsystem — the paper's primary contribution.
//!
//! Architecture (paper Figure 3): a **Speculator** watches the partial
//! query on the visual interface; a **Manipulation Space** enumerates the
//! asynchronous actions that could prepare the database; a **Cost Model**
//! scores each action's expected effect on the final query's execution
//! cost (Theorem 3.1 makes this computable without enumerating the
//! infinite universe of possible final queries); and a **Learner** builds
//! a per-user profile supplying the probability terms.
//!
//! * [`manipulation`] — the paper's operation types (null, histogram
//!   creation, index creation, data staging, and one materialization
//!   manipulation: whether it acts as the paper's query materialization
//!   or query rewriting is the database's `ViewMode`), plus whole-query
//!   prediction,
//! * [`space`] — candidate enumeration over the current partial query,
//! * [`cost_model`] — `Cost⊆(m) = f⊆(qm)·(cost(qm,m) − cost(qm,m∅))`,
//!   with the depth-n extension and a completion-probability factor,
//! * [`learner`] — survival/persistence/think-time estimators plus an
//!   online logistic-regression alternative, behind the [`Profile`]
//!   trait (with uniform and oracle baselines),
//! * [`speculator`] — decision making, cancellation tests, and the
//!   garbage-collection heuristic,
//! * [`session`] — [`session::apply_manipulation`], the routine every
//!   runtime uses to carry out a chosen manipulation. The live runtime
//!   that runs it on a background thread while the caller edits is
//!   `specdb_serve::ServeSession`; the experiment harness in `specdb-sim`
//!   drives the speculator on a virtual clock instead.

pub mod cost_model;
pub mod learner;
pub mod manipulation;
pub mod session;
pub mod space;
pub mod speculator;

pub use cost_model::{CostModel, CostModelConfig};
pub use learner::predict::EditPredictor;
pub use learner::{Learner, LearnerConfig, OracleProfile, Profile, UniformProfile};
pub use manipulation::Manipulation;
pub use space::{ManipulationSpace, SpaceConfig};
pub use speculator::{Decision, Speculator, SpeculatorConfig};

/// The learner's user-profile type alias used across the workspace.
pub type UserProfile = Learner;
