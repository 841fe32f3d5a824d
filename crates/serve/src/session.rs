//! One live session: per-user partial query, Learner profile, and
//! speculative builds gated by the fleet governor.
//!
//! [`ServeSession`] is the embeddable runtime: feed it [`EditOp`]s as
//! the user works, call [`ServeSession::go`] when they hit the button.
//! Between edits a background thread executes the speculator's chosen
//! manipulation against the shared database; edits that invalidate it
//! cancel it at the next page boundary, and GO cancels whatever is still
//! running — the paper's asynchronous-execution conventions, on real
//! threads and wall-clock time. (The replay harness in `specdb-sim`
//! implements the same conventions on a virtual clock instead.)
//!
//! The database is *shared* with every other session of the
//! [`SessionManager`], builds must win a slot from the [`Governor`], and
//! speculative artifacts are registered in the [`SharedArtifactCache`]
//! so any session's GO can reuse them. A single-user application opens
//! one session under the default governor: a session never proposes a
//! second build while its own is outstanding, so a lone session never
//! meets the budget.
//!
//! [`SessionManager`]: crate::SessionManager

use crate::artifacts::{BeginBuild, CompleteBuild, SessionId, SharedArtifactCache};
use crate::governor::{Admission, Governor};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use serde::Serialize;
use specdb_core::session::apply_manipulation;
use specdb_core::{Learner, Manipulation, Speculator, SpeculatorConfig};
use specdb_exec::{CancelToken, Database, ExecResult, QueryOutput};
use specdb_query::{EditOp, PartialQuery, Query};
use specdb_storage::VirtualTime;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

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
}

enum WorkerEvent {
    Done,
    Cancelled,
}

struct Outstanding {
    manipulation: Manipulation,
    cancel: CancelToken,
    handle: JoinHandle<()>,
}

/// One interactive session against the shared database.
pub struct ServeSession {
    id: SessionId,
    name: String,
    db: Arc<Mutex<Database>>,
    speculator: Arc<Speculator>,
    governor: Arc<Governor>,
    artifacts: Arc<SharedArtifactCache>,
    learner: Learner,
    partial: PartialQuery,
    outstanding: Option<Outstanding>,
    events: (Sender<WorkerEvent>, Receiver<WorkerEvent>),
    epoch: Instant,
    stats: ServeSessionStats,
}

impl ServeSession {
    /// A new session over the shared database. Sessions are normally
    /// created through [`SessionManager::connect`], which wires the
    /// shared governor and artifact cache.
    ///
    /// [`SessionManager::connect`]: crate::SessionManager::connect
    pub fn new(
        id: SessionId,
        name: String,
        db: Arc<Mutex<Database>>,
        spec: SpeculatorConfig,
        governor: Arc<Governor>,
        artifacts: Arc<SharedArtifactCache>,
    ) -> Self {
        ServeSession {
            id,
            name,
            db,
            speculator: Arc::new(Speculator::new(spec)),
            governor,
            artifacts,
            learner: Learner::default(),
            partial: PartialQuery::new(),
            outstanding: None,
            events: unbounded(),
            epoch: Instant::now(),
            stats: ServeSessionStats::default(),
        }
    }

    /// Session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Session name (from CONNECT).
    pub fn name(&self) -> &str {
        &self.name
    }

    fn now(&self) -> VirtualTime {
        VirtualTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn drain_events(&mut self) {
        while let Ok(ev) = self.events.1.try_recv() {
            match ev {
                WorkerEvent::Done => self.stats.completed += 1,
                WorkerEvent::Cancelled => self.stats.cancelled += 1,
            }
        }
    }

    fn resolve_outstanding(&mut self, force_cancel: bool) {
        if let Some(out) = &self.outstanding {
            let finished = out.handle.is_finished();
            let invalid = force_cancel
                || self.speculator.should_cancel(&out.manipulation, self.partial.graph());
            if finished || invalid {
                if !finished {
                    out.cancel.cancel();
                }
                let out = self.outstanding.take().unwrap();
                let _ = out.handle.join();
            }
        }
        self.drain_events();
    }

    /// Apply one user edit; may cancel the in-flight build, refresh the
    /// session's artifact leases, and propose a new build to the
    /// governor.
    ///
    /// An edit that leaves a running build in place returns without
    /// touching the database, whose lock the build holds: the leases
    /// from the last refresh stand until the build resolves, and GO
    /// re-leases against the final query before it sweeps.
    pub fn edit(&mut self, op: EditOp) {
        let now = self.now();
        self.learner.observe_edit(now, &op);
        self.partial.apply(&op);
        self.resolve_outstanding(false);
        if self.outstanding.is_some() {
            return;
        }
        // Lease exactly the artifacts the new partial query supports.
        let keys = self.db.lock().supported_view_keys(self.partial.graph());
        self.artifacts.set_leases(self.id, &keys);
        let elapsed = self
            .learner
            .formulation_start()
            .map(|s| now.saturating_sub(s))
            .unwrap_or(VirtualTime::ZERO);
        let decision = {
            let db = self.db.lock();
            self.speculator.decide(self.partial.graph(), &db, &self.learner, elapsed)
        };
        if decision.is_idle() {
            return;
        }
        // Fleet-wide dedupe: if any session already built (or is
        // building) this artifact, don't propose a duplicate.
        let artifact_key = decision.manipulation.graph().map(Database::graph_key);
        if let Some(key) = &artifact_key {
            match self.artifacts.begin_build(key, self.id) {
                BeginBuild::Started(ticket) => {
                    // We hold the build claim; now win a slot or give
                    // the claim back.
                    let cand = decision.manipulation.to_string();
                    match self.governor.admit(self.id, decision.benefit_rate(), &cand) {
                        Admission::Admit | Admission::Preempt(_) => {
                            self.spawn_build(decision.manipulation.clone(), Some(ticket));
                        }
                        Admission::Deny => {
                            self.artifacts.abort_build(ticket);
                            self.stats.denied += 1;
                        }
                    }
                }
                BeginBuild::InFlight | BeginBuild::Ready(_) => {
                    self.stats.deduped += 1;
                }
            }
            return;
        }
        // Non-materializing manipulations (index, histogram, staging)
        // still consume a governor slot but register no artifact.
        let cand = decision.manipulation.to_string();
        match self.governor.admit(self.id, decision.benefit_rate(), &cand) {
            Admission::Admit | Admission::Preempt(_) => {
                self.spawn_build(decision.manipulation, None);
            }
            Admission::Deny => self.stats.denied += 1,
        }
    }

    fn spawn_build(&mut self, m: Manipulation, ticket: Option<crate::artifacts::BuildTicket>) {
        let cancel = CancelToken::new();
        self.governor.attach_cancel(self.id, cancel.clone());
        let db = Arc::clone(&self.db);
        let governor = Arc::clone(&self.governor);
        let artifacts = Arc::clone(&self.artifacts);
        let tx = self.events.0.clone();
        let token = cancel.clone();
        let id = self.id;
        let manipulation = m.clone();
        let handle = std::thread::spawn(move || {
            let result = {
                let mut db = db.lock();
                apply_manipulation(&mut db, &manipulation, token)
            };
            governor.finish(id);
            match result {
                Ok(applied) => {
                    if let Some(ticket) = ticket {
                        let table = applied.table.clone().unwrap_or_default();
                        if artifacts.complete_build(ticket, table.clone()) == CompleteBuild::Stale {
                            // A DDL epoch bump raced the build: the
                            // result answers a stale snapshot. Drop it.
                            db.lock().drop_materialized(&table);
                            let _ = tx.send(WorkerEvent::Cancelled);
                            return;
                        }
                    }
                    let _ = tx.send(WorkerEvent::Done);
                }
                Err(_) => {
                    if let Some(ticket) = ticket {
                        artifacts.abort_build(ticket);
                    }
                    let _ = tx.send(WorkerEvent::Cancelled);
                }
            }
        });
        self.stats.issued += 1;
        self.outstanding = Some(Outstanding { manipulation: m, cancel, handle });
    }

    /// Cancel the in-flight build, if any. Returns whether one was
    /// cancelled.
    pub fn cancel(&mut self) -> bool {
        let had = self.outstanding.is_some();
        self.resolve_outstanding(true);
        had
    }

    /// The user pressed GO: resolve the in-flight build, execute the
    /// canvas query, account cross-session artifact hits, and run the
    /// lease-aware GC sweep.
    pub fn go(&mut self) -> ExecResult<GoOutcome> {
        let final_query: Query = self.partial.query().clone();
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
        let final_query: Query = self.partial.query().clone();
        self.go_inner(&final_query, false)
    }

    fn go_inner(&mut self, final_query: &Query, collect_rows: bool) -> ExecResult<GoOutcome> {
        self.resolve_outstanding(true);
        let now = self.now();
        self.learner.observe_go(now, &final_query.graph);
        let (result, collected) = {
            let mut db = self.db.lock();
            let r = if collect_rows {
                db.execute(final_query)?
            } else {
                db.execute_discard(final_query)?
            };
            // Lease against the final query, then sweep artifacts no
            // session supports any more.
            let keys = db.supported_view_keys(&final_query.graph);
            self.artifacts.set_leases(self.id, &keys);
            let doomed = self.artifacts.collect_unleased();
            for (_, table) in &doomed {
                db.drop_materialized(table);
            }
            for table in db.unsupported_staged(&final_query.graph) {
                db.unstage(&table);
            }
            (r, doomed.len() as u64)
        };
        self.stats.collected += collected;
        self.stats.queries += 1;
        let mut shared_hit = false;
        for view in &result.used_views {
            if self.artifacts.note_use(view, self.id) {
                self.stats.shared_hits += 1;
                shared_hit = true;
            }
        }
        Ok(GoOutcome { output: result, shared_hit })
    }

    /// The current partial query graph.
    pub fn partial(&self) -> &specdb_query::QueryGraph {
        self.partial.graph()
    }

    /// The session's user profile: export it with [`Learner::to_json`],
    /// or resume a previous session's profile by assigning one restored
    /// with [`Learner::from_json`] — the paper's Learner accumulates
    /// knowledge of a user *across* sessions.
    pub fn learner_mut(&mut self) -> &mut Learner {
        &mut self.learner
    }

    /// Session counters (drains pending worker events first).
    pub fn stats(&mut self) -> ServeSessionStats {
        self.drain_events();
        self.stats
    }

    /// Tear down: cancel in-flight work and release every artifact
    /// lease. Called by [`SessionManager::disconnect`].
    ///
    /// [`SessionManager::disconnect`]: crate::SessionManager::disconnect
    pub fn close(&mut self) {
        self.resolve_outstanding(true);
        self.artifacts.release_session(self.id);
        let doomed = self.artifacts.collect_unleased();
        if !doomed.is_empty() {
            let mut db = self.db.lock();
            for (_, table) in &doomed {
                db.drop_materialized(table);
            }
        }
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
    use specdb_exec::DatabaseConfig;
    use specdb_query::{CompareOp, Predicate, Selection};
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
        s.lock().outstanding = Some(Outstanding {
            manipulation: Manipulation::Null,
            cancel: CancelToken::new(),
            handle: std::thread::spawn(move || {
                let _ = parked.recv();
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
}
