//! One live session: the [`SessionCore`] protocol driven by threads and
//! the wall clock.
//!
//! [`ServeSession`] is the embeddable runtime: feed it [`EditOp`]s as
//! the user works, call [`ServeSession::go`] when they hit the button.
//! Every speculative decision — what to build, when an edit invalidates
//! a bet, which artifacts a GO settles and collects — is the core's, the
//! same protocol the virtual-clock replay in `specdb-sim` drives. This
//! driver adds only what is live: a background thread per admitted build
//! against the shared database (cancelled at the next page boundary by
//! an invalidating edit, a GO, or the governor's preemption), the
//! database lock, and the manager's clock. A build hands its governor
//! slot and its artifact (or its claim) back to the fleet the moment it
//! ends; the session counts it at its next call. Live sessions run the paper's
//! conventions: GO cancels a build still running, and the speculator
//! decides only on edits.
//!
//! The database is *shared* with every other session of the
//! [`SessionManager`], builds must win a slot from the [`Governor`], and
//! speculative artifacts are registered in the [`FleetRegistry`] so any
//! session's GO can reuse them. A single-user application opens one
//! session under the default governor: a session never proposes a
//! second build while its own is outstanding, so a lone session never
//! meets the budget.
//!
//! [`SessionManager`]: crate::SessionManager
//! [`FleetRegistry`]: crate::FleetRegistry

use crate::governor::Governor;
use crate::manager::Clock;
use crate::registry::SessionId;
use crate::speculation::{CancelReason, Publisher, SessionCore};
use parking_lot::Mutex;
use serde::Serialize;
use specdb_core::session::{apply_manipulation, Applied};
use specdb_core::{Learner, Manipulation};
use specdb_exec::{CancelToken, Database, ExecResult, QueryOutput};
use specdb_query::{EditOp, Query, QueryGraph};
use specdb_storage::VirtualTime;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Counters describing one serving session's activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ServeSessionStats {
    /// Speculative builds admitted and started.
    pub issued: u64,
    /// Builds that completed and installed their artifact.
    pub completed: u64,
    /// Builds cancelled (edit invalidation, GO, or preemption).
    pub cancelled: u64,
    /// Candidate builds the governor denied.
    pub denied: u64,
    /// Candidate builds skipped because the artifact already existed
    /// (or was being built) fleet-wide.
    pub deduped: u64,
    /// Final queries executed.
    pub queries: u64,
    /// This session's GO plans that read an artifact built by a
    /// *different* session.
    pub shared_hits: u64,
    /// Artifacts garbage-collected by this session's sweeps.
    pub collected: u64,
    /// This session's completed builds that a final query read.
    pub used: u64,
    /// This session's completed builds dropped without being read.
    pub wasted: u64,
}

/// A build running on its own thread; it returns its result and the
/// instant it finished.
struct Build {
    cancel: CancelToken,
    handle: JoinHandle<(ExecResult<Applied>, VirtualTime)>,
}

/// One interactive session against the shared database.
pub struct ServeSession {
    name: String,
    db: Arc<Mutex<Database>>,
    core: SessionCore,
    build: Option<Build>,
    governor: Arc<Governor>,
    clock: Clock,
}

impl ServeSession {
    /// The live driver of `core` over the shared database, created by
    /// [`SessionManager::connect`], which wires the shared governor,
    /// registry and clock.
    ///
    /// [`SessionManager::connect`]: crate::SessionManager::connect
    pub(crate) fn new(
        name: String,
        db: Arc<Mutex<Database>>,
        core: SessionCore,
        governor: Arc<Governor>,
        clock: Clock,
    ) -> Self {
        ServeSession { name, db, core, build: None, governor, clock }
    }

    /// Session id.
    pub fn id(&self) -> SessionId {
        self.core.id()
    }

    /// Session name (from CONNECT).
    pub fn name(&self) -> &str {
        &self.name
    }

    fn now(&self) -> VirtualTime {
        (self.clock)()
    }

    /// Hand the running build's result to the core at `at`. A build is
    /// waited for only when `cancel` names why it must stop (it is
    /// cancelled first); otherwise it is settled only if it already
    /// finished. A build that failed without being asked to stop was
    /// preempted, when it finished.
    fn resolve(&mut self, cancel: Option<CancelReason>, at: VirtualTime) {
        let Some(build) = &self.build else { return };
        if !build.handle.is_finished() {
            if cancel.is_none() {
                return;
            }
            build.cancel.cancel();
        }
        let build = self.build.take().expect("checked above");
        match build.handle.join() {
            Ok((Ok(applied), finished)) => {
                self.core.built(applied);
                self.core.commit(finished);
            }
            // A cancelled live build leaves nothing to roll back.
            Ok((Err(_), finished)) => match cancel {
                Some(reason) => drop(self.core.abort(reason, at)),
                None => drop(self.core.abort(CancelReason::Preempted, finished)),
            },
            Err(_) => drop(self.core.abort(cancel.unwrap_or(CancelReason::Preempted), at)),
        }
    }

    /// Apply one user edit; may cancel the in-flight build and propose
    /// a new build to the governor.
    ///
    /// An edit that leaves a running build in place returns without
    /// touching the database, whose lock the build holds; the registry
    /// still records the new partial query as the session's support.
    pub fn edit(&mut self, op: EditOp) {
        let now = self.now();
        let invalid = self.core.edit(&op, now);
        self.resolve(invalid.then_some(CancelReason::Edit), now);
        if self.build.is_some() {
            return;
        }
        let issue = self.core.propose(&self.db.lock(), now);
        if let Some(issue) = issue {
            let publisher = self.core.publisher();
            self.spawn(issue.manipulation, publisher);
        }
    }

    fn spawn(&mut self, manipulation: Manipulation, publisher: Publisher) {
        let cancel = CancelToken::new();
        let id = self.id();
        self.governor.attach_cancel(id, cancel.clone());
        let db = Arc::clone(&self.db);
        let clock = Arc::clone(&self.clock);
        let token = cancel.clone();
        let handle = std::thread::spawn(move || {
            let mut db = db.lock();
            let result = apply_manipulation(&mut db, &manipulation, token);
            let finished = clock();
            // Still under the lock: no GO reads the new view before the
            // registry can settle it.
            publisher.publish(&result);
            (result, finished)
        });
        self.build = Some(Build { cancel, handle });
    }

    /// Whether this session's speculative build is still running.
    pub fn building(&self) -> bool {
        self.build.as_ref().is_some_and(|b| !b.handle.is_finished())
    }

    /// Cancel the in-flight build, if any. Returns whether one was
    /// outstanding.
    pub fn cancel(&mut self) -> bool {
        let had = self.build.is_some();
        self.resolve(Some(CancelReason::Client), self.now());
        had
    }

    /// The user pressed GO: resolve the in-flight build, execute the
    /// canvas query, settle the bets it read, and run the fleet GC
    /// sweep.
    pub fn go(&mut self) -> ExecResult<GoOutcome> {
        let final_query = self.core.query();
        self.go_with(&final_query)
    }

    /// GO with an explicit final query whose *core* is the current
    /// canvas. Lets a front end attach layers the canvas cannot express
    /// (projection lists built elsewhere, aggregates — see the
    /// `sql_shell` example); speculation and learning still key off the
    /// canvas graph.
    pub fn go_with(&mut self, final_query: &Query) -> ExecResult<GoOutcome> {
        self.go_inner(final_query, true)
    }

    /// GO for the wire protocol, whose reply carries only the row count:
    /// the canvas query runs count-only, so no result row is ever
    /// materialized. Everything else is [`ServeSession::go`].
    pub(crate) fn go_counted(&mut self) -> ExecResult<GoOutcome> {
        let final_query = self.core.query();
        self.go_inner(&final_query, false)
    }

    fn go_inner(&mut self, final_query: &Query, collect_rows: bool) -> ExecResult<GoOutcome> {
        let now = self.now();
        self.resolve(Some(CancelReason::Go), now);
        self.core.go(&final_query.graph, now);
        let mut db = self.db.lock();
        let output =
            if collect_rows { db.execute(final_query)? } else { db.execute_discard(final_query)? };
        self.core.answered(output.elapsed, output.row_count);
        let shared = self.core.settle(&mut db, final_query, &output, now);
        Ok(GoOutcome { output, shared_hit: shared > 0 })
    }

    /// The current partial query graph.
    pub fn partial(&self) -> &QueryGraph {
        self.core.graph()
    }

    /// The session's user profile: export it with [`Learner::to_json`],
    /// or resume a previous session's profile by assigning one restored
    /// with [`Learner::from_json`] — the paper's Learner accumulates
    /// knowledge of a user *across* sessions.
    pub fn learner_mut(&mut self) -> &mut Learner {
        self.core.learner_mut().expect("live sessions learn their profile")
    }

    /// Session counters (settles a build that already finished first).
    pub fn stats(&mut self) -> ServeSessionStats {
        self.resolve(None, self.now());
        let o = self.core.outcome();
        ServeSessionStats {
            issued: o.issued,
            completed: o.completed,
            cancelled: o.cancelled,
            denied: o.denied,
            deduped: o.deduped,
            queries: o.queries.len() as u64,
            shared_hits: o.shared_hits,
            collected: o.collected,
            used: o.used,
            wasted: o.wasted,
        }
    }

    /// Tear down: cancel in-flight work, sweep what no other session
    /// supports, and leave the fleet. Called by
    /// [`SessionManager::disconnect`].
    ///
    /// [`SessionManager::disconnect`]: crate::SessionManager::disconnect
    pub fn close(&mut self) {
        let now = self.now();
        self.resolve(Some(CancelReason::Client), now);
        self.core.close(&mut self.db.lock(), now);
    }
}

/// Result of [`ServeSession::go`].
#[derive(Debug)]
pub struct GoOutcome {
    /// The final query's output.
    pub output: QueryOutput,
    /// Whether the plan read at least one artifact built by a
    /// different session.
    pub shared_hit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GovernorConfig, SessionManager};
    use specdb_core::SpeculatorConfig;
    use specdb_exec::DatabaseConfig;
    use specdb_query::{CompareOp, Predicate, Selection};
    use specdb_storage::StorageError;
    use specdb_tpch::{generate_into, TpchConfig};
    use std::thread::sleep;
    use std::time::Duration;

    fn db() -> Database {
        let mut db = Database::new(DatabaseConfig::with_buffer_pages(2048));
        generate_into(&mut db, &TpchConfig::new(1).build_aux(false)).unwrap();
        db
    }

    /// A single-user embedding: a manager with the default governor, to
    /// which each test connects one session.
    fn manager() -> SessionManager {
        SessionManager::new(db(), SpeculatorConfig::default(), GovernorConfig::default())
    }

    fn nation(v: &str) -> EditOp {
        EditOp::AddSelection(Selection::new(
            "customer",
            Predicate::new("c_nation", CompareOp::Eq, v),
        ))
    }

    #[test]
    fn session_speculates_and_answers() {
        let manager = manager();
        let (id, s) = manager.connect("solo");
        let mut s = s.lock();
        s.edit(EditOp::AddRelation("customer".into()));
        s.edit(nation("FRANCE"));
        // Give the background worker a moment to complete.
        sleep(Duration::from_millis(300));
        let out = s.go().unwrap();
        assert!(out.output.row_count > 0);
        let st = s.stats();
        assert!(st.issued >= 1, "a manipulation should have been issued");
        assert_eq!(st.queries, 1);
        drop(s);
        assert!(manager.disconnect(id));
    }

    #[test]
    fn speculative_session_speeds_up_query() {
        // Run the same final query twice: once plain, once after the
        // session has had think time to materialize.
        let q_sql = |db: &Database| {
            specdb_query::parse_sql(db, "SELECT * FROM customer WHERE c_nation = 'PERU'").unwrap()
        };
        // Plain run (cold).
        let mut plain = db();
        plain.clear_buffer();
        let q = q_sql(&plain);
        let normal = plain.execute(&q).unwrap();
        // Speculative run.
        let manager = manager();
        let (_, s) = manager.connect("solo");
        let mut s = s.lock();
        manager.with_db(|db| db.clear_buffer());
        s.edit(EditOp::AddRelation("customer".into()));
        s.edit(nation("PERU"));
        sleep(Duration::from_millis(500));
        manager.with_db(|db| db.clear_buffer());
        let spec = s.go().unwrap().output;
        assert_eq!(spec.row_count, normal.row_count);
        if s.stats().completed >= 1 {
            assert!(
                spec.elapsed <= normal.elapsed,
                "speculation should not be slower: {} vs {}",
                spec.elapsed,
                normal.elapsed
            );
        }
    }

    #[test]
    fn edits_cancel_invalidated_manipulations() {
        let manager = manager();
        let (_, s) = manager.connect("solo");
        let mut s = s.lock();
        s.edit(EditOp::AddRelation("customer".into()));
        s.edit(nation("FRANCE"));
        // Immediately recant the predicate: the in-flight materialization
        // loses support and must be cancelled (or already completed).
        s.edit(EditOp::RemoveSelection(Selection::new(
            "customer",
            Predicate::new("c_nation", CompareOp::Eq, "FRANCE"),
        )));
        let _ = s.go().unwrap();
        let st = s.stats();
        assert!(st.issued >= 1);
        assert_eq!(st.issued, st.completed + st.cancelled, "bookkeeping must balance");
    }

    #[test]
    fn profile_round_trips_through_sessions() {
        let manager = manager();
        let (id1, s1) = manager.connect("solo");
        let profile = {
            let mut s1 = s1.lock();
            s1.edit(EditOp::AddRelation("customer".into()));
            s1.edit(nation("FRANCE"));
            let _ = s1.go().unwrap();
            s1.learner_mut().to_json()
        };
        assert!(manager.disconnect(id1));
        let restored = Learner::from_json(&profile).expect("profile parses");
        let (_, s2) = manager.connect("solo-again");
        let mut s2 = s2.lock();
        *s2.learner_mut() = restored;
        assert_eq!(s2.learner_mut().observed_gos(), 1, "knowledge carries over");
    }

    #[test]
    fn edit_beside_a_running_build_never_waits_for_the_database() {
        let manager = manager();
        let (_, s) = manager.connect("solo");
        // Stand in for a running build that no edit below invalidates;
        // it parks until `release` drops.
        let (release, parked) = std::sync::mpsc::channel::<()>();
        s.lock().build = Some(Build {
            cancel: CancelToken::new(),
            handle: std::thread::spawn(move || {
                let _ = parked.recv();
                let cancelled = specdb_exec::ExecError::Storage(StorageError::Cancelled);
                (Err(cancelled), VirtualTime::ZERO)
            }),
        });
        // Hold the database lock the way a build does for its whole run.
        manager.with_db(|_| {
            let (done, edited) = std::sync::mpsc::channel();
            let session = Arc::clone(&s);
            std::thread::spawn(move || {
                session.lock().edit(EditOp::AddRelation("customer".into()));
                let _ = done.send(());
            });
            assert!(
                edited.recv_timeout(Duration::from_secs(10)).is_ok(),
                "the edit waited for the database lock"
            );
        });
        drop(release);
        assert!(s.lock().cancel(), "the stand-in build was still outstanding");
    }

    #[test]
    fn gc_drops_views_after_pivot() {
        let manager = manager();
        let (_, s) = manager.connect("solo");
        let mut s = s.lock();
        s.edit(EditOp::AddRelation("customer".into()));
        s.edit(nation("FRANCE"));
        sleep(Duration::from_millis(300));
        let _ = s.go().unwrap();
        let views_after_first = manager.with_db(|db| db.views().len());
        // Pivot to a completely different exploration: supplier only.
        s.edit(EditOp::RemoveRelation("customer".into()));
        s.edit(EditOp::AddRelation("supplier".into()));
        let _ = s.go().unwrap();
        let views_after_pivot = manager.with_db(|db| db.views().len());
        assert!(
            views_after_pivot <= views_after_first,
            "pivot must not grow the view set ({views_after_first} -> {views_after_pivot})"
        );
        assert_eq!(views_after_pivot, 0, "nothing supports the old views");
    }

    #[test]
    fn go_keeps_tables_staged_that_another_session_reads() {
        let spec = SpeculatorConfig {
            space: specdb_core::SpaceConfig::staging_only(),
            ..Default::default()
        };
        let manager = SessionManager::new(db(), spec, GovernorConfig::default());
        manager.with_db(|db| db.stage("orders", 4)).unwrap();
        let (_, a) = manager.connect("a");
        let (_, b) = manager.connect("b");
        b.lock().edit(EditOp::AddRelation("orders".into()));
        let mut a = a.lock();
        a.edit(EditOp::AddRelation("customer".into()));
        a.go().unwrap();
        assert!(
            manager.with_db(|db| db.is_staged("orders")),
            "A's GO unstaged the table B's partial query reads"
        );
        drop(a);
        let mut b = b.lock();
        b.edit(EditOp::RemoveRelation("orders".into()));
        b.edit(EditOp::AddRelation("supplier".into()));
        b.go().unwrap();
        assert!(!manager.with_db(|db| db.is_staged("orders")), "nobody reads orders any more");
    }

    #[test]
    fn an_idle_sessions_finished_build_leaves_the_fleet_free() {
        let budget = GovernorConfig { max_outstanding: 1, preempt: false };
        let manager = SessionManager::new(db(), SpeculatorConfig::default(), budget);
        // Edit, then wait out any build without calling the session again.
        let edit = |s: &Arc<Mutex<ServeSession>>, op: EditOp| {
            s.lock().edit(op);
            while s.lock().building() {
                sleep(Duration::from_millis(5));
            }
        };
        let (_, a) = manager.connect("a");
        edit(&a, EditOp::AddRelation("customer".into()));
        edit(&a, nation("FRANCE"));
        // A sits idle on its finished build; B's proposal finds the one
        // slot free.
        let (_, b) = manager.connect("b");
        edit(&b, EditOp::AddRelation("customer".into()));
        edit(&b, nation("PERU"));
        let governor = manager.fleet_stats().governor;
        assert_eq!((governor.admitted, governor.denied), (2, 0), "A's idle build held the slot");
        // C's GO reads A's view and the registry settles the read.
        let (_, c) = manager.connect("c");
        edit(&c, EditOp::AddRelation("customer".into()));
        edit(&c, nation("FRANCE"));
        assert!(c.lock().go().unwrap().shared_hit, "C read a view the registry did not know");
        let cache = manager.fleet_stats().cache;
        assert_eq!((cache.uses, cache.shared_hits, cache.used), (1, 1, 1));
        let a = a.lock().stats();
        assert_eq!((a.completed, a.used, a.wasted), (1, 1, 0));
    }

    #[test]
    fn an_edit_beside_a_running_build_still_supports_views() {
        let manager = manager();
        let (_, a) = manager.connect("a");
        let mut a = a.lock();
        a.edit(EditOp::AddRelation("customer".into()));
        a.edit(nation("FRANCE"));
        while a.building() {
            sleep(Duration::from_millis(5));
        }
        a.go().unwrap();
        assert_eq!(manager.with_db(|db| db.views().len()), 1, "A's build answered its GO");
        // B edits onto A's question while a build of its own runs.
        let (_, b) = manager.connect("b");
        let (release, parked) = std::sync::mpsc::channel::<()>();
        b.lock().build = Some(Build {
            cancel: CancelToken::new(),
            handle: std::thread::spawn(move || {
                let _ = parked.recv();
                let cancelled = specdb_exec::ExecError::Storage(StorageError::Cancelled);
                (Err(cancelled), VirtualTime::ZERO)
            }),
        });
        b.lock().edit(EditOp::AddRelation("customer".into()));
        b.lock().edit(nation("FRANCE"));
        // A pivots away: B's partial query still supports the view.
        a.edit(EditOp::RemoveRelation("customer".into()));
        a.edit(EditOp::AddRelation("supplier".into()));
        a.go().unwrap();
        assert_eq!(manager.with_db(|db| db.views().len()), 1, "A's GO dropped B's support");
        drop(release);
        assert!(b.lock().cancel());
    }
}
