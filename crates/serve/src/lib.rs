//! # specdb-serve — the live session runtime
//!
//! The paper's runtime serves *one* interactive user; this crate is the
//! production story on top of the `Send + Sync` engine core: a
//! [`SessionManager`] runs N simultaneous interactive sessions against
//! one shared [`Database`], each session with its own partial-query
//! state and Learner profile, fronted by a small line/JSON wire
//! protocol over TCP ([`serve`]). It is also the single-user runtime: an
//! embedding application opens one [`ServeSession`] under the default
//! governor, which a lone session never meets.
//!
//! Two fleet-level mechanisms replace the paper's single-user
//! conventions:
//!
//! - the **speculation [`Governor`]** generalizes the one-outstanding-
//!   manipulation rule into admission control: candidate builds from
//!   every session are ranked by expected benefit per build-second
//!   ([`Decision::benefit_rate`], straight from the Theorem 3.1 cost
//!   model), a global outstanding-build budget is enforced, and weaker
//!   in-flight builds can be preempted at morsel boundaries;
//! - the **[`SharedArtifactCache`]** extends the engine's canonical-
//!   query-keyed view registry into a refcounted (per-session leases),
//!   GC'd, build-deduplicating cache, so one session's speculative
//!   materialization serves hits for every session
//!   (`spec.shared_hits` / `spec.cross_session_reuse` metrics).
//!
//! See `docs/serving.md` for the operator's guide and the full wire-
//! protocol reference.
//!
//! ## Embedding
//!
//! ```
//! use specdb_core::SpeculatorConfig;
//! use specdb_exec::{Database, DatabaseConfig};
//! use specdb_query::EditOp;
//! use specdb_serve::{GovernorConfig, SessionManager};
//!
//! let mut db = Database::new(DatabaseConfig::with_buffer_pages(256));
//! # use specdb_catalog::{ColumnDef, DataType, Schema};
//! # use specdb_storage::{Tuple, Value};
//! db.create_table(
//!     "employee",
//!     Schema::new(vec![
//!         ColumnDef::new("name", DataType::Str),
//!         ColumnDef::new("age", DataType::Int),
//!     ]),
//! )
//! .unwrap();
//! db.load("employee", (0..2000i64).map(|i| {
//!     Tuple::new(vec![Value::Str(format!("e{i}")), Value::Int(20 + i % 45)])
//! }))
//! .unwrap();
//!
//! let manager = SessionManager::new(db, SpeculatorConfig::default(), GovernorConfig::default());
//! let (_, alice) = manager.connect("alice");
//! alice.lock().edit(EditOp::AddRelation("employee".into()));
//! let out = alice.lock().go().unwrap();
//! assert_eq!(out.output.row_count, 2000);
//! assert_eq!(manager.fleet_stats().sessions, 1);
//! ```
//!
//! ## Serving over TCP
//!
//! ```no_run
//! use specdb_exec::{Database, DatabaseConfig};
//! use specdb_serve::{serve, ServeConfig};
//!
//! let db = Database::new(DatabaseConfig::default());
//! let handle = serve(db, ServeConfig::default()).unwrap();
//! println!("listening on {}", handle.addr());
//! // ... clients connect with `nc`, send `CONNECT alice`, `EDIT ...`, `GO` ...
//! handle.shutdown();
//! ```
//!
//! [`Database`]: specdb_exec::Database
//! [`Decision::benefit_rate`]: specdb_core::Decision::benefit_rate

#![warn(missing_docs)]

pub mod artifacts;
pub mod governor;
pub mod manager;
pub mod proto;
pub mod server;
pub mod session;

pub use artifacts::{
    BeginBuild, BuildTicket, CacheStats, CompleteBuild, SessionId, SharedArtifactCache,
};
pub use governor::{Admission, Governor, GovernorConfig, GovernorStats};
pub use manager::{FleetStats, SessionManager};
pub use proto::{parse_request, Request};
pub use server::{serve, ServeConfig, ServerHandle};
pub use session::{GoOutcome, ServeSession, ServeSessionStats};
