//! The speculation protocol of one session, written once for both
//! drivers.
//!
//! [`SessionCore`] is the paper's Speculator as one middleware component
//! between the interface and the DBMS (§4). It owns one session's
//! partial query, speculator, profile and formulation clock; its one
//! pending bet, which each edit may invalidate; the issue gate (fleet
//! dedupe, then [`Governor::admit`]); commit and cancel with their
//! rollback; the settlement of bets at GO; and the lifecycle instants
//! ([`SpanKind::Speculation`]) of every build.
//!
//! The core runs no build, reads no clock and takes no lock. Its driver
//! feeds it edits, GOs and build results with their instants, lends it
//! the database where a step reads or settles against it, and carries
//! out what it returns: a manipulation to build, a rollback to apply.
//! Two drivers exist. The virtual-clock replay in `specdb-sim` builds
//! inline and commits each build when it drains from its virtual
//! server; the live [`ServeSession`] builds on a thread, which publishes
//! the build to the fleet when it ends (see [`SessionCore::publisher`]).
//! Both share one [`FleetRegistry`] per fleet.
//!
//! [`ServeSession`]: crate::ServeSession

use crate::governor::{Admission, Governor};
use crate::registry::{FleetRegistry, SessionId};
use specdb_core::session::Applied;
use specdb_core::{
    Learner, LearnerConfig, Manipulation, OracleProfile, Profile, Speculator, SpeculatorConfig,
    UniformProfile,
};
use specdb_exec::{Database, ExecResult, QueryOutput};
use specdb_obs::{Observer, SpanKind};
use specdb_query::{EditOp, PartialQuery, Query, QueryGraph};
use specdb_storage::VirtualTime;
use std::sync::Arc;

/// Which probability source drives the cost model.
#[derive(Debug, Clone)]
pub enum ProfileKind {
    /// The Learner, trained online on the session itself (the paper's
    /// configuration: the profile "is continuously updated").
    Learner(LearnerConfig),
    /// The true generator parameters (learner-ablation upper bound).
    Oracle(OracleProfile),
    /// Fixed probabilities (learner-ablation lower bound).
    Uniform(UniformProfile),
}

impl Default for ProfileKind {
    fn default() -> Self {
        ProfileKind::Learner(LearnerConfig::default())
    }
}

enum ProfileState {
    Learner(Box<Learner>),
    Oracle(OracleProfile),
    Uniform(UniformProfile),
}

impl ProfileState {
    fn new(kind: &ProfileKind) -> Self {
        match kind {
            ProfileKind::Learner(cfg) => ProfileState::Learner(Box::new(Learner::new(cfg.clone()))),
            ProfileKind::Oracle(o) => ProfileState::Oracle(o.clone()),
            ProfileKind::Uniform(u) => ProfileState::Uniform(u.clone()),
        }
    }

    fn as_profile(&self) -> &dyn Profile {
        match self {
            ProfileState::Learner(l) => l.as_ref(),
            ProfileState::Oracle(o) => o,
            ProfileState::Uniform(u) => u,
        }
    }

    fn learner_mut(&mut self) -> Option<&mut Learner> {
        match self {
            ProfileState::Learner(l) => Some(l),
            _ => None,
        }
    }
}

/// One final query's measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryMeasurement {
    /// Query index within the session.
    pub index: usize,
    /// Virtual time from GO to the answer. The replay adds any
    /// wait-at-GO and, under processor sharing, stretches it by
    /// contention (a sojourn time, as the paper measures under load).
    pub elapsed: VirtualTime,
    /// Result rows.
    pub rows: u64,
}

/// What one session's speculation did. `PartialEq` so the determinism
/// suite can assert that two replays (e.g. plan-cache on vs. off) agree
/// field-for-field. The replay reports it as `ReplayOutcome`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionOutcome {
    /// Per-query measurements, in session order.
    pub queries: Vec<QueryMeasurement>,
    /// Manipulations issued.
    pub issued: u64,
    /// Manipulations that completed before GO / invalidation.
    pub completed: u64,
    /// Manipulations cancelled.
    pub cancelled: u64,
    /// Candidate builds the governor denied.
    pub denied: u64,
    /// Candidate builds skipped because another build of the identical
    /// artifact was in flight or installed.
    pub deduped: u64,
    /// This session's final-query reads of a build another session made.
    pub shared_hits: u64,
    /// Durations of completed materializations (for the §6.1 averages).
    pub manipulation_times: Vec<VirtualTime>,
    /// Artifacts this session's GOs garbage-collected.
    pub collected: u64,
    /// GO events that waited for a nearly-done manipulation (only with
    /// the replay's wait-at-GO policy).
    pub waited: u64,
    /// Completed materializations later read by a final query's plan.
    pub used: u64,
    /// Completed materializations dropped without ever being read.
    pub wasted: u64,
    /// Whole-query predictions issued (`PredictQuery` manipulations).
    pub predicted_issued: u64,
    /// Predicted queries whose artifact matched the GO query exactly —
    /// the answer was already sitting there when the user hit GO.
    pub predicted_hits: u64,
    /// Predicted queries that missed the GO query but were still read
    /// through the subsumption rewrite (residual filters on top of the
    /// predicted partial materialization).
    pub salvaged_hits: u64,
    /// Predicted builds thrown away: cancelled mid-build or completed
    /// but never read by any final query.
    pub predicted_wasted: u64,
}

impl SessionOutcome {
    /// Total execution time over all queries.
    pub fn total(&self) -> VirtualTime {
        self.queries.iter().map(|q| q.elapsed).sum()
    }

    /// Fraction of issued manipulations that did not complete.
    pub fn non_completion_rate(&self) -> f64 {
        ratio(self.cancelled, self.issued)
    }

    /// Fraction of completed materializations a final query actually
    /// read (the paper's bets that paid off).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.used, self.used + self.wasted)
    }

    /// Fraction of issued manipulations whose work was thrown away —
    /// cancelled mid-build or completed but never read.
    pub fn waste_ratio(&self) -> f64 {
        ratio(self.cancelled + self.wasted, self.issued)
    }

    /// Fraction of issued whole-query predictions whose work was thrown
    /// away (cancelled or never read). Zero when prediction is off.
    pub fn prediction_waste_ratio(&self) -> f64 {
        ratio(self.predicted_wasted, self.predicted_issued)
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The reason a build was abandoned before it committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// A query edit invalidated the bet.
    Edit,
    /// The user issued GO while the build was still running.
    Go,
    /// The fleet governor gave the build's slot to a stronger candidate.
    Preempted,
    /// The live client cancelled it or disconnected.
    Client,
}

impl CancelReason {
    fn as_str(self) -> &'static str {
        match self {
            CancelReason::Edit => "edit",
            CancelReason::Go => "go",
            CancelReason::Preempted => "preempted",
            CancelReason::Client => "client",
        }
    }
}

/// Record one step in a build's life — `cancel`, `complete`, `used`,
/// `wasted` or `gc` — as a [`SpanKind::Speculation`] instant at `at`
/// (virtual micros). It carries the session whose outcome counts the
/// step, the build's `speculate` span id when known, and an optional
/// extra attribute (a cancel's reason, a collected table).
pub(crate) fn mark(
    observer: &Observer,
    step: &'static str,
    at: u64,
    session: SessionId,
    build: Option<u64>,
    extra: Option<(&'static str, &str)>,
) {
    observer.tracer().instant(SpanKind::Speculation, step, at, |a| {
        a.push(("session", session.into()));
        if let Some(id) = build {
            a.push(("build", id.into()));
        }
        if let Some((key, value)) = extra {
            a.push((key, value.into()));
        }
    });
}

/// Short label for an edit op (the name of its trace instant).
fn edit_label(op: &EditOp) -> &'static str {
    match op {
        EditOp::AddRelation(_) => "add_relation",
        EditOp::RemoveRelation(_) => "remove_relation",
        EditOp::AddSelection(_) => "add_selection",
        EditOp::RemoveSelection(_) => "remove_selection",
        EditOp::UpdateSelection { .. } => "update_selection",
        EditOp::AddJoin(_) => "add_join",
        EditOp::RemoveJoin(_) => "remove_join",
        EditOp::AddProjection(_, _) => "add_projection",
        EditOp::RemoveProjection(_, _) => "remove_projection",
        EditOp::Go => "go",
    }
}

/// An admitted manipulation: the session's one pending bet, and once it
/// commits, the artifact the registry settles as used or wasted.
#[derive(Clone)]
pub(crate) struct Bet {
    pub(crate) manipulation: Manipulation,
    /// Canonical key of the artifact's graph (materializations only) —
    /// the dedupe key, and compared against the GO query's key to
    /// classify a prediction as an exact hit or a subsumption salvage.
    pub(crate) key: Option<String>,
    /// The cost model's build estimate at issue.
    pub(crate) estimate: VirtualTime,
    /// Estimated per-query benefit (positive seconds) at issue time.
    pub(crate) benefit_secs: f64,
    /// Raw predicted per-query time change (negative = beneficial),
    /// kept for benefit calibration when the result is used at GO.
    pub(crate) predicted_delta_secs: f64,
    /// True for whole-query predictions (`PredictQuery`).
    pub(crate) predicted: bool,
    /// The build's result, once its work is done.
    pub(crate) applied: Option<Applied>,
    /// Whether a [`Publisher`] already handed the build to the fleet.
    pub(crate) published: bool,
}

impl Bet {
    /// The materialized table, once built.
    pub(crate) fn table(&self) -> Option<&str> {
        self.applied.as_ref()?.table.as_deref()
    }

    /// Id of the build's `speculate` span (tracing only).
    pub(crate) fn build(&self) -> Option<u64> {
        self.applied.as_ref()?.build
    }
}

/// A manipulation the core admitted: the driver builds it.
pub struct Issue {
    /// What to build.
    pub manipulation: Manipulation,
    /// The session whose build the governor preempted for this one. A
    /// live victim stops through its cancel token; the replay aborts it.
    pub victim: Option<SessionId>,
}

/// The fleet's side of the pending build's end, run by the driver the
/// moment the build ends (see [`SessionCore::publisher`]).
pub struct Publisher {
    session: SessionId,
    bet: Bet,
    governor: Arc<Governor>,
    registry: Arc<FleetRegistry>,
}

impl Publisher {
    /// The build ended with `result`: free its governor slot, and make
    /// its artifact readable by every session or, if it failed, release
    /// its claim so another session may build it. Run it before any
    /// other session can read what the build wrote (the live driver runs
    /// it under the database lock the build holds), so no GO reads an
    /// artifact the registry cannot settle.
    pub fn publish(self, result: &ExecResult<Applied>) {
        self.governor.finish(self.session);
        match result {
            Ok(applied) => {
                let bet = Bet { applied: Some(applied.clone()), ..self.bet };
                self.registry.commit(self.session, bet);
            }
            Err(_) => {
                if let Some(key) = &self.bet.key {
                    self.registry.release(key, self.session);
                }
            }
        }
    }
}

/// Undo what an abandoned build already did to the database. Only a
/// build run ahead of its commit (the replay's inline builds) has
/// anything to undo; a cancelled live build leaves no trace.
pub struct Rollback {
    manipulation: Manipulation,
    table: Option<String>,
}

impl Rollback {
    /// Drop the build's table, index, histogram or staged pages.
    pub fn apply(self, db: &mut Database) {
        match (&self.manipulation, &self.table) {
            (_, Some(t)) => db.drop_materialized(t),
            (Manipulation::CreateIndex { table, column }, None) => db.drop_index(table, column),
            (Manipulation::CreateHistogram { table, column }, None) => {
                db.drop_histogram(table, column)
            }
            (Manipulation::DataStage { table, .. }, None) => db.unstage(table),
            _ => {}
        }
    }
}

/// One session's speculation protocol (see the [module docs](self)).
pub struct SessionCore {
    id: SessionId,
    speculator: Speculator,
    profile: ProfileState,
    partial: PartialQuery,
    pending: Option<Bet>,
    /// Virtual instant the current question (formulation) started —
    /// feeds the `lat.time_to_go_secs` histogram.
    question_start: Option<VirtualTime>,
    /// Everything but the verdicts, which the registry keeps per owner.
    outcome: SessionOutcome,
    governor: Arc<Governor>,
    registry: Arc<FleetRegistry>,
    observer: Observer,
}

impl SessionCore {
    /// Session `id` of the fleet that `governor` and `registry` serve,
    /// reporting through `observer`.
    pub fn new(
        id: SessionId,
        speculator: SpeculatorConfig,
        profile: &ProfileKind,
        governor: Arc<Governor>,
        registry: Arc<FleetRegistry>,
        observer: Observer,
    ) -> Self {
        registry.join(id);
        SessionCore {
            id,
            speculator: Speculator::new(speculator),
            profile: ProfileState::new(profile),
            partial: PartialQuery::new(),
            pending: None,
            question_start: None,
            outcome: SessionOutcome::default(),
            governor,
            registry,
            observer,
        }
    }

    /// The session's id within its fleet.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The current partial query graph.
    pub fn graph(&self) -> &QueryGraph {
        self.partial.graph()
    }

    /// The canvas query: the partial query as the user would run it.
    pub fn query(&self) -> Query {
        self.partial.query().clone()
    }

    /// The Learner, when it is the session's profile.
    pub fn learner_mut(&mut self) -> Option<&mut Learner> {
        self.profile.learner_mut()
    }

    /// Whether a bet is pending.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// The pending bet's estimated per-query benefit in seconds.
    pub fn pending_benefit(&self) -> Option<f64> {
        self.pending.as_ref().map(|b| b.benefit_secs)
    }

    /// The session's counts so far, with the verdicts on its builds.
    pub fn outcome(&self) -> SessionOutcome {
        let v = self.registry.verdicts(self.id);
        SessionOutcome {
            used: v.used,
            wasted: v.wasted,
            predicted_hits: v.predicted_hits,
            salvaged_hits: v.salvaged_hits,
            predicted_wasted: self.outcome.predicted_wasted + v.predicted_wasted,
            ..self.outcome.clone()
        }
    }

    /// Count a GO that waited out the pending build (wait-at-GO).
    pub fn note_wait(&mut self) {
        self.outcome.waited += 1;
    }

    /// The user edited the partial query at `at`. The registry records
    /// the new graph as the session's support. Returns whether the edit
    /// invalidated the pending bet, which the driver must then stop.
    pub fn edit(&mut self, op: &EditOp, at: VirtualTime) -> bool {
        if let ProfileState::Learner(l) = &mut self.profile {
            l.observe_edit(at, op);
        }
        self.partial.apply(op);
        self.question_start.get_or_insert(at);
        self.observer
            .tracer()
            .instant(SpanKind::Edit, edit_label(op), at.as_micros(), |a| {
                a.push(("session", self.id.into()));
            });
        self.registry.support(self.id, self.partial.graph());
        self.pending
            .as_ref()
            .is_some_and(|b| self.speculator.should_cancel(&b.manipulation, self.partial.graph()))
    }

    /// Decide at `at` and pass the best manipulation through the issue
    /// gate: fleet dedupe, then the governor. An admitted manipulation
    /// becomes the pending bet and is returned for the driver to build.
    pub fn propose(&mut self, db: &Database, at: VirtualTime) -> Option<Issue> {
        debug_assert!(self.pending.is_none(), "one outstanding manipulation");
        let observer = &self.observer;
        observer.set_now_micros(at.as_micros());
        let elapsed_formulation = match &self.profile {
            ProfileState::Learner(l) => l.formulation_start().map(|s| at.saturating_sub(s)),
            _ => None,
        };
        // Wall-clock decision latency: observational only, never fed
        // back into the virtual clock or the decision itself.
        let t0 = std::time::Instant::now();
        let decision = self.speculator.decide(
            self.partial.graph(),
            db,
            self.profile.as_profile(),
            elapsed_formulation.unwrap_or_default(),
        );
        observer
            .metrics()
            .histogram("lat.decide_us")
            .record(t0.elapsed().as_micros() as f64);
        if decision.is_idle() {
            return None;
        }
        let key = decision.manipulation.graph().map(Database::graph_key);
        if key.as_ref().is_some_and(|k| !self.registry.claim(k, self.id)) {
            self.outcome.deduped += 1;
            return None;
        }
        let cand = decision.manipulation.to_string();
        let victim = match self.governor.admit(self.id, decision.benefit_rate(), &cand) {
            Admission::Admit => None,
            Admission::Preempt(v) => Some(v),
            Admission::Deny => {
                if let Some(k) = &key {
                    self.registry.release(k, self.id);
                }
                self.outcome.denied += 1;
                return None;
            }
        };
        let metrics = observer.metrics();
        metrics.counter("spec.decisions").incr();
        self.outcome.issued += 1;
        metrics.counter("spec.issued").incr();
        let predicted = decision.manipulation.kind() == "predict";
        if predicted {
            self.outcome.predicted_issued += 1;
            metrics.counter("spec.predicted_issued").incr();
        }
        self.pending = Some(Bet {
            manipulation: decision.manipulation.clone(),
            key,
            estimate: decision.build,
            benefit_secs: (-decision.delta_secs).max(0.0),
            predicted_delta_secs: decision.delta_secs,
            predicted,
            applied: None,
            published: false,
        });
        Some(Issue { manipulation: decision.manipulation, victim })
    }

    /// Hand the fleet's side of the pending build's end to the driver,
    /// which runs it when the build ends rather than at the session's
    /// next call: a live build must not hold its governor slot or claim,
    /// nor keep its artifact from other sessions, while its session is
    /// idle. [`SessionCore::commit`] and [`SessionCore::abort`] then
    /// settle only the session's own counts.
    pub fn publisher(&mut self) -> Publisher {
        let bet = self.pending.as_mut().expect("a pending bet to publish");
        bet.published = true;
        Publisher {
            session: self.id,
            bet: bet.clone(),
            governor: Arc::clone(&self.governor),
            registry: Arc::clone(&self.registry),
        }
    }

    /// The pending build's work is done: record its measured cost
    /// against the decision's estimate. The replay runs a build inline
    /// at issue; a live build reports when its thread returns.
    pub fn built(&mut self, applied: Applied) {
        let bet = self.pending.as_mut().expect("a pending bet to build");
        self.observer
            .calibration()
            .record_build(bet.estimate.as_secs_f64(), applied.elapsed.as_secs_f64());
        bet.applied = Some(applied);
    }

    /// The pending build takes effect at `at`: count it and, unless a
    /// [`Publisher`] already did, free its governor slot and hand its
    /// artifact to the registry, which settles it as used or wasted.
    pub fn commit(&mut self, at: VirtualTime) {
        let bet = self.pending.take().expect("a pending bet to commit");
        let duration = bet.applied.as_ref().expect("commit after the build").elapsed;
        self.outcome.completed += 1;
        self.outcome.manipulation_times.push(duration);
        let metrics = self.observer.metrics();
        metrics.counter("spec.completed").incr();
        metrics.histogram("lat.spec_build_secs").record(duration.as_secs_f64());
        mark(&self.observer, "complete", at.as_micros(), self.id, bet.build(), None);
        if !bet.published {
            self.governor.finish(self.id);
            self.registry.commit(self.id, bet);
        }
    }

    /// Abandon the pending bet (if any) for `reason` at `at` and free its
    /// slot and claim (a no-op once a [`Publisher`] has). Returns the
    /// rollback of whatever its build already did.
    pub fn abort(&mut self, reason: CancelReason, at: VirtualTime) -> Option<Rollback> {
        let bet = self.pending.take()?;
        let metrics = self.observer.metrics();
        self.outcome.cancelled += 1;
        if bet.predicted {
            self.outcome.predicted_wasted += 1;
            metrics.counter("spec.predicted_wasted").incr();
        }
        let counter = match reason {
            CancelReason::Edit => "spec.cancelled.edit",
            CancelReason::Go => "spec.cancelled.go",
            CancelReason::Preempted => "spec.cancelled.preempt",
            CancelReason::Client => "spec.cancelled.client",
        };
        metrics.counter(counter).incr();
        mark(
            &self.observer,
            "cancel",
            at.as_micros(),
            self.id,
            bet.build(),
            Some(("reason", reason.as_str())),
        );
        self.governor.finish(self.id);
        if let Some(key) = &bet.key {
            self.registry.release(key, self.id);
        }
        let applied = bet.applied?;
        Some(Rollback { manipulation: bet.manipulation, table: applied.table })
    }

    /// The user pressed GO at `at` on `graph`; the driver has resolved
    /// the pending bet and runs the final query next.
    pub fn go(&mut self, graph: &QueryGraph, at: VirtualTime) {
        debug_assert!(self.pending.is_none(), "GO resolves the pending bet first");
        let query_index = self.outcome.queries.len();
        self.observer.tracer().instant(SpanKind::Edit, "go", at.as_micros(), |a| {
            a.push(("query", query_index.into()));
            a.push(("session", self.id.into()));
        });
        if let Some(qs) = self.question_start.take() {
            self.observer
                .metrics()
                .histogram("lat.time_to_go_secs")
                .record(at.saturating_sub(qs).as_secs_f64());
        }
        if let ProfileState::Learner(l) = &mut self.profile {
            l.observe_go(at, graph);
        }
    }

    /// The final query was answered after `elapsed` with `rows` rows.
    pub fn answered(&mut self, elapsed: VirtualTime, rows: u64) {
        self.observer
            .metrics()
            .histogram("lat.query_secs")
            .record(elapsed.as_secs_f64());
        let index = self.outcome.queries.len();
        self.outcome.queries.push(QueryMeasurement { index, elapsed, rows });
    }

    /// Settle the bets the final query `query`, run at `at`, read —
    /// each committed build it read counts as used once, for the session
    /// that built it — and calibrate this session's own bets against the
    /// realized saving. Then collect what no session supports any more.
    /// Returns how many of the plan's reads were of another session's
    /// build.
    pub fn settle(
        &mut self,
        db: &mut Database,
        query: &Query,
        output: &QueryOutput,
        at: VirtualTime,
    ) -> u64 {
        let go_key = Database::graph_key(&query.graph);
        let (shared, own_deltas) = self.registry.settle(self.id, &output.used_views, &go_key, at);
        for predicted in own_deltas {
            if let Ok(base) = db.estimate_query_time_base(query) {
                let realized = output.elapsed.as_secs_f64() - base.as_secs_f64();
                self.observer.calibration().record_delta(predicted, realized);
            }
        }
        self.outcome.shared_hits += shared;
        self.outcome.collected += self.registry.collect(db, self.id, &query.graph, at);
        shared
    }

    /// The session ends at `at`: collect what no other session supports
    /// any more, then leave the fleet.
    pub fn close(&mut self, db: &mut Database, at: VirtualTime) {
        self.outcome.collected += self.registry.collect(db, self.id, &QueryGraph::new(), at);
        self.registry.leave(self.id);
    }
}
