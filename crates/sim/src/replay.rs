//! Trace replay on a virtual clock: one event loop for one session, a
//! governed fleet of sessions, or users contending for one server.
//!
//! Traces replay against one shared [`Database`] on one virtual clock.
//! Each session keeps its own partial query, profile, speculator, and
//! [`ReplayOutcome`]. Under speculative processing each edit gives the
//! Speculator a decision point; a chosen manipulation is executed against
//! the engine immediately (to obtain its true cost and effects) but
//! *commits* only once its build drains from the virtual server — an edit
//! that invalidates it, or a GO arriving first, cancels it and rolls its
//! effects back, exactly the paper's conventions (asynchronous execution,
//! one outstanding manipulation, cancel-on-GO, and the garbage-collection
//! heuristic after each final query).
//!
//! In-flight builds and running final queries are jobs on one virtual
//! server. The loop's next event is the earlier of the next edit of a
//! session that is not blocked (ties fall to the lowest session index)
//! and the next job to drain (drains first at a tie). A GO blocks its
//! session until its query drains; the rest of the trace then shifts so
//! that the user's recorded post-GO think gap starts at the answer, so
//! normal and speculative replays of the same trace diverge in absolute
//! time while preserving the user's think gaps. A drained build commits
//! at its session's next event, stamped with the drain instant; under
//! processor sharing the drain itself is that event.
//!
//! The entry point picks how jobs share the server:
//!
//! * [`replay_trace`] and [`replay_multi_session`] run every job at full
//!   rate, as if alone: a build drains exactly its measured duration after
//!   its issue and a final query takes exactly its measured time;
//! * [`replay_multi`] shares the server (Figure 7): while `k` jobs are
//!   active each runs at rate `1/k`, so concurrent speculation stretches
//!   everyone's queries and query times are sojourn times.
//!
//! Every candidate build asks the `specdb-serve` fleet [`Governor`] for
//! a slot. [`replay_trace`] is the one-session case under a fixed
//! one-slot governor (budget 1, no preemption, no minimum rate): the
//! paper's one-outstanding-manipulation rule, which [`replay_multi`]
//! applies per user (one slot per session). [`replay_multi_session`]
//! models the serving layer: the governor's budget and preemption
//! replace the per-session rule. In every mode speculative artifacts are
//! shared — a view materialized for one session serves every session's
//! final queries, with cross-session reuse accounted per use. A lone
//! session replays identically under any budget ≥ 1 and under either
//! contention rule: a free slot always exists, non-idle decisions carry a
//! positive benefit rate, one job never shares the server, and the
//! cross-session hooks never fire (`tests/determinism.rs` pins this).
//!
//! **Approximations.** A job's service demand is measured by executing it
//! atomically against the shared engine at its issue (build) or GO
//! (query); contention only decides when it drains. The cost model does
//! not account for other sessions' load. A build another session
//! registered but has not yet committed is visible to the planner; only
//! *committed* foreign builds count toward `shared_hits`.

use specdb_core::session::apply_manipulation;
use specdb_core::{
    Decision, Learner, LearnerConfig, Manipulation, OracleProfile, Profile, Speculator,
    SpeculatorConfig, UniformProfile,
};
use specdb_exec::{CancelToken, Database, ExecResult};
use specdb_obs::{Observer, SpanKind};
use specdb_query::{EditOp, PartialQuery, QueryGraph};
use specdb_serve::{Admission, Governor, GovernorConfig};
use specdb_storage::VirtualTime;
use specdb_trace::Trace;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Which probability source drives the cost model.
#[derive(Debug, Clone)]
pub enum ProfileKind {
    /// The Learner, trained online on this very trace (the paper's
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

    fn observe_edit(&mut self, at: VirtualTime, op: &specdb_query::EditOp) {
        if let ProfileState::Learner(l) = self {
            l.observe_edit(at, op);
        }
    }

    fn observe_go(&mut self, at: VirtualTime, g: &specdb_query::QueryGraph) {
        if let ProfileState::Learner(l) = self {
            l.observe_go(at, g);
        }
    }

    fn formulation_start(&self) -> Option<VirtualTime> {
        match self {
            ProfileState::Learner(l) => l.formulation_start(),
            _ => None,
        }
    }
}

/// Replay configuration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Run speculation (false = the paper's "normal processing" arm).
    pub speculative: bool,
    /// Speculator configuration (space + cost model).
    pub speculator: SpeculatorConfig,
    /// Probability source.
    pub profile: ProfileKind,
    /// Wait-at-GO policy (paper Section 7 extension): instead of always
    /// cancelling the in-flight manipulation at GO, wait for it when its
    /// remaining time is smaller than its estimated per-query benefit.
    /// The wait is charged to the query's measured time, as a user would
    /// experience it. `false` reproduces the paper's conservative
    /// prototype behaviour.
    pub wait_at_go: bool,
    /// Load-aware speculation (paper Section 7): do not issue a
    /// manipulation while at least this many jobs — in-flight builds
    /// plus running final queries — are on the replay's virtual server.
    /// `None` reproduces the paper's prototype, which speculates
    /// regardless of load.
    pub suspend_when_busy: Option<usize>,
    /// Evict the buffer pool before the replay (the paper replays every
    /// trace "with a cold buffer pool"). Disable for the §6.1
    /// memory-resident experiment, which measures warm, CPU-only runs.
    pub cold_start: bool,
    /// Re-decide immediately when a manipulation completes mid-think
    /// (back-to-back pipelining). The paper's Speculator is edit-driven —
    /// it "accepts a partial query as input" — so the faithful default
    /// only decides on user actions; pipelining is an extension that
    /// keeps the server busier for marginal single-user gain.
    pub pipeline: bool,
}

impl ReplayConfig {
    /// Normal processing: no speculation.
    pub fn normal() -> Self {
        ReplayConfig { speculative: false, ..Default::default() }
    }

    /// Speculative processing with default configuration.
    pub fn speculative() -> Self {
        ReplayConfig { speculative: true, ..Default::default() }
    }

    /// Keep the buffer warm across the replay (memory-resident runs).
    pub fn warm(mut self) -> Self {
        self.cold_start = false;
        self
    }
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            speculative: false,
            speculator: SpeculatorConfig::default(),
            profile: ProfileKind::default(),
            wait_at_go: false,
            suspend_when_busy: None,
            cold_start: true,
            pipeline: false,
        }
    }
}

/// One final query's measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryMeasurement {
    /// Query index within the trace.
    pub index: usize,
    /// Virtual time from GO to the answer: the measured execution time
    /// plus any wait-at-GO, stretched by contention under
    /// [`replay_multi`] (a sojourn time, as the paper measures under
    /// load).
    pub elapsed: VirtualTime,
    /// Result rows.
    pub rows: u64,
}

/// The outcome of replaying one trace. `PartialEq` so the determinism
/// suite can assert that two replays (e.g. plan-cache on vs. off) agree
/// field-for-field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayOutcome {
    /// Per-query measurements, in trace order.
    pub queries: Vec<QueryMeasurement>,
    /// Manipulations issued.
    pub issued: u64,
    /// Manipulations that completed before GO / invalidation.
    pub completed: u64,
    /// Manipulations cancelled.
    pub cancelled: u64,
    /// Durations of completed materializations (for the §6.1 averages).
    pub manipulation_times: Vec<VirtualTime>,
    /// Materialized relations garbage-collected.
    pub collected: u64,
    /// GO events that waited for a nearly-done manipulation (only with
    /// the wait-at-GO policy).
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

impl ReplayOutcome {
    /// Total execution time over all queries.
    pub fn total(&self) -> VirtualTime {
        self.queries.iter().map(|q| q.elapsed).sum()
    }

    /// Fraction of issued manipulations that did not complete.
    pub fn non_completion_rate(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.cancelled as f64 / self.issued as f64
        }
    }

    /// Mean completed-manipulation duration.
    pub fn mean_manipulation_time(&self) -> VirtualTime {
        if self.manipulation_times.is_empty() {
            VirtualTime::ZERO
        } else {
            self.manipulation_times.iter().copied().sum::<VirtualTime>()
                / self.manipulation_times.len() as u64
        }
    }

    /// Fraction of completed materializations a final query actually
    /// read (the paper's bets that paid off).
    pub fn hit_rate(&self) -> f64 {
        let resolved = self.used + self.wasted;
        if resolved == 0 {
            0.0
        } else {
            self.used as f64 / resolved as f64
        }
    }

    /// Fraction of issued manipulations whose work was thrown away —
    /// cancelled mid-build or completed but never read.
    pub fn waste_ratio(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            (self.cancelled + self.wasted) as f64 / self.issued as f64
        }
    }

    /// Fraction of issued whole-query predictions whose work was thrown
    /// away (cancelled or never read). Zero when prediction is off.
    pub fn prediction_waste_ratio(&self) -> f64 {
        if self.predicted_issued == 0 {
            0.0
        } else {
            self.predicted_wasted as f64 / self.predicted_issued as f64
        }
    }
}

/// Multi-session replay configuration: per-session replay behaviour
/// plus the fleet governor's policy.
#[derive(Debug, Clone, Default)]
pub struct MultiSessionConfig {
    /// Per-session replay knobs (profile, wait-at-GO, pipelining,
    /// load-aware suspension, …).
    pub replay: ReplayConfig,
    /// Fleet-wide admission policy.
    pub governor: GovernorConfig,
}

impl MultiSessionConfig {
    /// Speculative sessions under the default governor policy.
    pub fn speculative() -> Self {
        MultiSessionConfig {
            replay: ReplayConfig::speculative(),
            governor: GovernorConfig::default(),
        }
    }
}

/// The outcome of a multi-session replay: one [`ReplayOutcome`] per
/// trace plus fleet-level counters. `PartialEq` so the determinism
/// suite can compare whole runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MultiSessionOutcome {
    /// Per-session outcomes, in input-trace order.
    pub per_session: Vec<ReplayOutcome>,
    /// Final-query plan reads of a *committed* speculative build made
    /// by a different session.
    pub shared_hits: u64,
    /// Final-query plan reads of any committed speculative build
    /// (own or foreign); denominator of [`cross_session_reuse`].
    ///
    /// [`cross_session_reuse`]: MultiSessionOutcome::cross_session_reuse
    pub artifact_uses: u64,
    /// Candidate builds the governor admitted.
    pub admitted: u64,
    /// Candidate builds the governor denied (budget full, no victim).
    pub denied: u64,
    /// In-flight builds preempted by stronger candidates.
    pub preempted: u64,
    /// Candidate builds skipped because another session had already
    /// built (or was building) the identical artifact.
    pub deduped: u64,
}

impl MultiSessionOutcome {
    /// Fraction of speculative-artifact reads served by another
    /// session's build.
    pub fn cross_session_reuse(&self) -> f64 {
        if self.artifact_uses == 0 {
            0.0
        } else {
            self.shared_hits as f64 / self.artifact_uses as f64
        }
    }

    /// Total execution time summed over every session's queries.
    pub fn total(&self) -> VirtualTime {
        self.per_session.iter().map(|o| o.total()).sum()
    }

    /// Every GO latency in the fleet (seconds), in session-major trace
    /// order — feed to a quantile estimator for p95 reporting.
    pub fn go_latency_secs(&self) -> Vec<f64> {
        self.per_session
            .iter()
            .flat_map(|o| o.queries.iter().map(|q| q.elapsed.as_secs_f64()))
            .collect()
    }
}

struct Pending {
    manipulation: Manipulation,
    table: Option<String>,
    /// The instant its build drained from the server, once it has; it
    /// commits at its session's next event (under processor sharing, at
    /// once).
    drained_at: Option<VirtualTime>,
    duration: VirtualTime,
    /// Estimated per-query benefit (positive seconds) at issue time.
    benefit_secs: f64,
    /// Raw predicted per-query time change (negative = beneficial),
    /// kept for benefit calibration when the result is used at GO.
    predicted_delta_secs: f64,
    /// True for whole-query predictions (`PredictQuery`).
    predicted: bool,
    /// Canonical key of the built artifact's graph (materializations
    /// only) — compared against the GO query's key to classify a
    /// prediction as an exact hit or a subsumption salvage.
    artifact_key: Option<String>,
    /// Id of the build's `speculate` span (tracing only): the key of
    /// every lifecycle instant [`mark`] records for it.
    build: Option<u64>,
}

/// The reason a build was abandoned before it committed.
#[derive(Clone, Copy)]
enum CancelReason {
    /// A query edit invalidated the bet.
    Edit,
    /// The user issued GO while the build was still running.
    Go,
    /// The fleet governor gave the build's slot to a stronger candidate.
    Preempted,
}

impl CancelReason {
    fn as_str(self) -> &'static str {
        match self {
            CancelReason::Edit => "edit",
            CancelReason::Go => "go",
            CancelReason::Preempted => "preempted",
        }
    }
}

/// Record one step in a build's life — `cancel`, `complete`, `used`,
/// `wasted` or `gc` — as a [`SpanKind::Speculation`] instant at `at`
/// (virtual micros). It carries the session whose outcome counts the
/// step, the build's `speculate` span id when known, and an optional
/// extra attribute (a cancel's reason, a collected table).
fn mark(
    observer: &Observer,
    step: &'static str,
    at: u64,
    session: usize,
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

/// A completed materialization awaiting its verdict: read by a final
/// query (used) or dropped untouched (wasted).
struct CompletedView {
    used: bool,
    build: Pending,
}

/// Cancel session `si`'s in-flight build: count and mark it, then roll
/// its effects back.
fn cancel_pending(
    db: &mut Database,
    si: usize,
    out: &mut ReplayOutcome,
    p: &Pending,
    reason: CancelReason,
) {
    let observer = db.observer();
    out.cancelled += 1;
    if p.predicted {
        out.predicted_wasted += 1;
        observer.metrics().counter("spec.predicted_wasted").incr();
    }
    let counter = match reason {
        CancelReason::Edit => "spec.cancelled.edit",
        CancelReason::Go => "spec.cancelled.go",
        CancelReason::Preempted => "spec.cancelled.preempt",
    };
    observer.metrics().counter(counter).incr();
    mark(observer, "cancel", observer.now_micros(), si, p.build, Some(("reason", reason.as_str())));
    match (&p.manipulation, &p.table) {
        (_, Some(t)) => db.drop_materialized(t),
        (Manipulation::CreateIndex { table, column }, None) => db.drop_index(table, column),
        (Manipulation::CreateHistogram { table, column }, None) => db.drop_histogram(table, column),
        (Manipulation::DataStage { table, .. }, None) => db.unstage(table),
        _ => {}
    }
}

/// Count session `si`'s finished build and mark its completion at `at`.
fn complete(observer: &Observer, si: usize, out: &mut ReplayOutcome, p: &Pending, at: VirtualTime) {
    out.completed += 1;
    out.manipulation_times.push(p.duration);
    observer.metrics().counter("spec.completed").incr();
    observer
        .metrics()
        .histogram("lat.spec_build_secs")
        .record(p.duration.as_secs_f64());
    mark(observer, "complete", at.as_micros(), si, p.build, None);
}

/// Charge session `si`'s build, dropped without ever being read, as
/// sunk cost.
fn charge_if_unread(observer: &Observer, si: usize, out: &mut ReplayOutcome, cv: &CompletedView) {
    if cv.used {
        return;
    }
    out.wasted += 1;
    observer.metrics().counter("spec.wasted").incr();
    if cv.build.predicted {
        out.predicted_wasted += 1;
        observer.metrics().counter("spec.predicted_wasted").incr();
    }
    mark(observer, "wasted", observer.now_micros(), si, cv.build.build, None);
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

/// Issue the speculator's best manipulation at `at`, if `admit` lets
/// it through; returns the new pending build. The gate is consulted
/// between the decision and its execution: the event loop hangs fleet
/// dedupe and the governor there.
fn issue_gated(
    db: &mut Database,
    speculator: &Speculator,
    profile: &ProfileState,
    pq: &PartialQuery,
    out: &mut ReplayOutcome,
    at: VirtualTime,
    admit: &mut dyn FnMut(&Decision) -> bool,
) -> ExecResult<Option<Pending>> {
    let observer = db.observer().clone();
    observer.set_now_micros(at.as_micros());
    let elapsed_formulation =
        profile.formulation_start().map(|s| at.saturating_sub(s)).unwrap_or_default();
    // Wall-clock decision latency: observational only, never fed
    // back into the virtual clock or the decision itself.
    let t0 = std::time::Instant::now();
    let decision = speculator.decide(pq.graph(), db, profile.as_profile(), elapsed_formulation);
    observer
        .metrics()
        .histogram("lat.decide_us")
        .record(t0.elapsed().as_micros() as f64);
    if decision.is_idle() {
        return Ok(None);
    }
    if !admit(&decision) {
        return Ok(None);
    }
    observer.metrics().counter("spec.decisions").incr();
    // Execute now to learn the true duration and effects; the effects
    // become usable at `at + duration` (cancellation before then
    // rolls them back).
    match apply_manipulation(db, &decision.manipulation, CancelToken::new()) {
        Ok(applied) => {
            out.issued += 1;
            observer.metrics().counter("spec.issued").incr();
            let predicted = decision.manipulation.kind() == "predict";
            if predicted {
                out.predicted_issued += 1;
                observer.metrics().counter("spec.predicted_issued").incr();
            }
            let artifact_key = decision.manipulation.graph().map(Database::graph_key);
            // The cost model predicted `decision.build`; the engine
            // just measured the true virtual build time.
            observer
                .calibration()
                .record_build(decision.build.as_secs_f64(), applied.elapsed.as_secs_f64());
            Ok(Some(Pending {
                manipulation: decision.manipulation,
                table: applied.table,
                drained_at: None,
                duration: applied.elapsed,
                benefit_secs: (-decision.delta_secs).max(0.0),
                predicted_delta_secs: decision.delta_secs,
                predicted,
                artifact_key,
                build: applied.build,
            }))
        }
        Err(e) if e.is_cancelled() => Ok(None),
        Err(e) => Err(e),
    }
}

/// The governor of a lone [`replay_trace`] session: one slot, no
/// preemption, no minimum rate — the paper's one outstanding
/// manipulation. Fixed; never read from `SPECDB_GOVERNOR_*`.
const ONE_SLOT: GovernorConfig =
    GovernorConfig { max_outstanding: 1, preempt: false, min_benefit_rate: 0.0 };

/// Replay one trace against the database (cold buffer at start, unless
/// `config.cold_start` is off): the one-session case of
/// [`replay_multi_session`] under the fixed one-slot governor.
pub fn replay_trace(
    db: &mut Database,
    trace: &Trace,
    config: &ReplayConfig,
) -> ExecResult<ReplayOutcome> {
    // The lone session's governor reports nothing: its admissions are
    // the paper's rule, not a fleet policy worth tracing.
    let governor = Governor::new(ONE_SLOT);
    let traces = std::slice::from_ref(trace);
    let mut out = replay_sessions(db, traces, config, &governor, Contention::Isolated)?;
    Ok(out.per_session.remove(0))
}

/// Replay `traces` concurrently against `db`, one session per trace,
/// under the fleet governor of `config`. Sessions do not contend: each
/// job runs as if alone.
pub fn replay_multi_session(
    db: &mut Database,
    traces: &[Trace],
    config: &MultiSessionConfig,
) -> ExecResult<MultiSessionOutcome> {
    let governor = Governor::with_observer(config.governor.clone(), db.observer().clone());
    replay_sessions(db, traces, &config.replay, &governor, Contention::Isolated)
}

/// Replay `traces` as simultaneous users of one processor-sharing server
/// (Figure 7): while `k` jobs — in-flight builds and running final
/// queries — are active, each proceeds at rate `1/k`. Every user keeps
/// the paper's one outstanding manipulation (one governor slot per
/// session, no preemption), and query `elapsed` values are sojourn
/// times.
pub fn replay_multi(
    db: &mut Database,
    traces: &[Trace],
    config: &ReplayConfig,
) -> ExecResult<MultiSessionOutcome> {
    let governor = Governor::new(GovernorConfig { max_outstanding: traces.len(), ..ONE_SLOT });
    replay_sessions(db, traces, config, &governor, Contention::Shared)
}

/// How the jobs on the replay's virtual server share it.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum Contention {
    /// Every job runs at full rate, as if it were alone.
    #[default]
    Isolated,
    /// Processor sharing: while `k` jobs are active each runs at rate
    /// `1/k`.
    Shared,
}

/// The one virtual server every session's work runs on. Each session
/// has at most one job on it: its in-flight build, or the final query
/// it is blocked on.
///
/// Progress is a service clock: `attained` is the work each active job
/// has received since the server started, and a job drains when
/// `attained` reaches its tag. Under isolation `attained` equals the
/// clock, so all arithmetic stays in exact integer [`VirtualTime`].
#[derive(Default)]
struct Server {
    contention: Contention,
    /// The instant the server was last advanced to.
    clock: VirtualTime,
    attained: VirtualTime,
    /// `(session, tag)` per active job.
    jobs: Vec<(usize, VirtualTime)>,
}

impl Server {
    /// How many jobs split the server's rate.
    fn sharers(&self) -> u64 {
        match self.contention {
            Contention::Isolated => 1,
            Contention::Shared => self.jobs.len().max(1) as u64,
        }
    }

    fn advance(&mut self, to: VirtualTime) {
        if to > self.clock {
            self.attained += (to - self.clock) / self.sharers();
            self.clock = to;
        }
    }

    /// Put `session`'s job of `work`, issued at `at`, on the server.
    /// Only an isolated job may be issued in the past (a lazy pipelined
    /// refill): it runs as if alone from `at`. Returns the drain instant
    /// if that is not after the clock — a job without work, or a past
    /// job that is already done.
    fn start(&mut self, session: usize, at: VirtualTime, work: VirtualTime) -> Option<VirtualTime> {
        debug_assert!(
            at == self.clock || (at < self.clock && self.contention == Contention::Isolated)
        );
        let alone = at + work;
        if alone <= self.clock {
            return Some(alone);
        }
        self.jobs.push((session, self.attained + (alone - self.clock)));
        None
    }

    /// Time until `session`'s job drains at the current rate (zero when
    /// it has none).
    fn remaining(&self, session: usize) -> VirtualTime {
        self.jobs
            .iter()
            .find(|(s, _)| *s == session)
            .map_or(VirtualTime::ZERO, |&(_, tag)| (tag - self.attained) * self.sharers())
    }

    fn remove(&mut self, session: usize) {
        self.jobs.retain(|(s, _)| *s != session);
    }

    /// Drain the job that finishes first (ties to the lowest session),
    /// if it finishes no later than `by`; returns the drain instant and
    /// the job's session.
    fn drain_next(&mut self, by: Option<VirtualTime>) -> Option<(VirtualTime, usize)> {
        let (i, &(session, tag)) =
            self.jobs.iter().enumerate().min_by_key(|&(_, &(s, tag))| (tag, s))?;
        let at = self.clock + (tag - self.attained) * self.sharers();
        if by.is_some_and(|by| at > by) {
            return None;
        }
        self.advance(at);
        self.jobs.swap_remove(i);
        Some((at, session))
    }
}

/// A session's final query on the server: the session is blocked until
/// it drains.
struct RunningGo {
    /// The GO's instant on the trace's own clock.
    trace_at: VirtualTime,
    /// The GO's instant on the replay clock.
    at: VirtualTime,
    rows: u64,
}

struct SessionState<'t> {
    trace: &'t Trace,
    speculator: Speculator,
    profile: ProfileState,
    pq: PartialQuery,
    offset: VirtualTime,
    pending: Option<Pending>,
    running: Option<RunningGo>,
    /// Ordered, so the end-of-run sunk-cost pass reports in a fixed
    /// order.
    completed_views: BTreeMap<String, CompletedView>,
    out: ReplayOutcome,
    /// Virtual instant the current question (formulation) started —
    /// feeds the `lat.time_to_go_secs` histogram.
    question_start: Option<VirtualTime>,
    /// Next unprocessed edit in `trace`.
    idx: usize,
}

impl SessionState<'_> {
    fn active(&self) -> bool {
        self.idx < self.trace.edits.len()
    }

    /// The instant of this session's next edit, unless it is blocked on
    /// a running final query.
    fn next_at(&self) -> Option<VirtualTime> {
        if self.running.is_some() {
            return None;
        }
        self.trace.edits.get(self.idx).map(|te| te.at + self.offset)
    }

    /// Commit this session's build, finished at `at`: count it, free its
    /// governor slot, and open its used-or-wasted verdict.
    fn commit(
        &mut self,
        si: usize,
        p: Pending,
        at: VirtualTime,
        observer: &Observer,
        governor: &Governor,
        fleet: &mut FleetState,
    ) {
        complete(observer, si, &mut self.out, &p, at);
        governor.finish(si as u64);
        fleet.track_commit(si, &p);
        if let Some(table) = p.table.clone() {
            self.completed_views.insert(table, CompletedView { used: false, build: p });
        }
    }

    /// Cancel this session's in-flight build, take it off the server and
    /// free its governor slot.
    fn abort(
        &mut self,
        db: &mut Database,
        si: usize,
        p: &Pending,
        reason: CancelReason,
        governor: &Governor,
        fleet: &mut FleetState,
    ) {
        cancel_pending(db, si, &mut self.out, p, reason);
        governor.finish(si as u64);
        fleet.forget_pending(p);
        fleet.server.remove(si);
    }

    /// The running final query drained at `at`: record its time and
    /// resume the trace, whose recorded post-GO gap starts now.
    fn finish_go(&mut self, at: VirtualTime, observer: &Observer) {
        let go = self.running.take().expect("a draining query job has a running GO");
        let elapsed = at - go.at;
        observer.metrics().histogram("lat.query_secs").record(elapsed.as_secs_f64());
        let index = self.out.queries.len();
        self.out.queries.push(QueryMeasurement { index, elapsed, rows: go.rows });
        self.offset = at - go.trace_at;
    }
}

/// Cross-session state: the virtual server and who owns which artifact.
#[derive(Default)]
struct FleetState {
    server: Server,
    /// Canonical graph key → builder index for every live speculative
    /// artifact (pending or committed).
    owner_by_key: HashMap<String, usize>,
    /// Backing table → canonical graph key (for removal on drop).
    key_by_table: HashMap<String, String>,
    /// Backing table → builder index, for *committed* builds only.
    builder_of: HashMap<String, usize>,
    shared_hits: u64,
    artifact_uses: u64,
    deduped: u64,
}

impl FleetState {
    fn track_issue(&mut self, si: usize, p: &Pending) {
        if let (Some(g), Some(table)) = (p.manipulation.graph(), &p.table) {
            let key = Database::graph_key(g);
            self.owner_by_key.insert(key.clone(), si);
            self.key_by_table.insert(table.clone(), key);
        }
    }

    fn track_commit(&mut self, si: usize, p: &Pending) {
        if let Some(table) = &p.table {
            self.builder_of.insert(table.clone(), si);
        }
    }

    fn forget_pending(&mut self, p: &Pending) {
        if let Some(table) = &p.table {
            self.forget_table(table);
        }
    }

    fn forget_table(&mut self, table: &str) {
        if let Some(key) = self.key_by_table.remove(table) {
            self.owner_by_key.remove(&key);
        }
        self.builder_of.remove(table);
    }
}

/// The event loop behind [`replay_trace`], [`replay_multi_session`] and
/// [`replay_multi`].
fn replay_sessions(
    db: &mut Database,
    traces: &[Trace],
    config: &ReplayConfig,
    governor: &Governor,
    contention: Contention,
) -> ExecResult<MultiSessionOutcome> {
    if config.cold_start {
        db.clear_buffer();
    }
    let observer = db.observer().clone();
    let tracer = observer.tracer().clone();
    let session_span = tracer.begin(
        SpanKind::Session,
        if config.speculative { "replay_speculative" } else { "replay_normal" },
        0,
    );
    let mut fleet =
        FleetState { server: Server { contention, ..Default::default() }, ..Default::default() };
    let mut sessions: Vec<SessionState> = traces
        .iter()
        .map(|trace| SessionState {
            trace,
            speculator: Speculator::new(config.speculator.clone()),
            profile: ProfileState::new(&config.profile),
            pq: PartialQuery::new(),
            offset: VirtualTime::ZERO,
            pending: None,
            running: None,
            completed_views: BTreeMap::new(),
            out: ReplayOutcome::default(),
            question_start: None,
            idx: 0,
        })
        .collect();

    loop {
        // Next edit across the fleet: earliest virtual time, ties to the
        // lowest session index (strict `<` keeps the first seen).
        let mut next: Option<(VirtualTime, usize)> = None;
        for (i, s) in sessions.iter().enumerate() {
            if let Some(at) = s.next_at() {
                if next.is_none_or(|(best, _)| at < best) {
                    next = Some((at, i));
                }
            }
        }
        // A job that drains first is the next event.
        if let Some((at, si)) = fleet.server.drain_next(next.map(|(at, _)| at)) {
            let s = &mut sessions[si];
            let Some(p) = &mut s.pending else {
                s.finish_go(at, &observer);
                continue;
            };
            p.drained_at = Some(at);
            // A shared server cannot take work in the past, so there the
            // drain is an event of its session: the build commits now and
            // a pipelined refill joins at once. Isolated builds commit at
            // the session's next edit, which for one session is the same
            // and keeps fleet governor slots held until then.
            if contention == Contention::Shared {
                drain_completions(db, &mut sessions, si, config, governor, &mut fleet)?;
            }
            continue;
        }
        let Some((now, si)) = next else { break };
        fleet.server.advance(now);
        observer.set_now_micros(now.as_micros());
        drain_completions(db, &mut sessions, si, config, governor, &mut fleet)?;
        let op = sessions[si].trace.edits[sessions[si].idx].op.clone();
        if op.is_go() {
            process_go(db, &mut sessions, si, now, config, governor, &mut fleet)?;
        } else {
            process_edit(db, &mut sessions, si, now, &op, config, governor, &mut fleet)?;
        }
        sessions[si].idx += 1;
    }

    // Builds that survived every GC without ever being read are sunk
    // cost all the same.
    for (si, s) in sessions.iter_mut().enumerate() {
        for cv in s.completed_views.values() {
            charge_if_unread(&observer, si, &mut s.out, cv);
        }
    }
    let predicted_issued: u64 = sessions.iter().map(|s| s.out.predicted_issued).sum();
    if predicted_issued > 0 {
        let wasted: u64 = sessions.iter().map(|s| s.out.predicted_wasted).sum();
        observer
            .metrics()
            .gauge("spec.prediction_waste_ratio")
            .set(wasted as f64 / predicted_issued as f64);
    }

    let gov = governor.stats();
    let out = MultiSessionOutcome {
        per_session: sessions.into_iter().map(|s| s.out).collect(),
        shared_hits: fleet.shared_hits,
        artifact_uses: fleet.artifact_uses,
        admitted: gov.admitted,
        denied: gov.denied,
        preempted: gov.preempted,
        deduped: fleet.deduped,
    };
    observer
        .metrics()
        .gauge("spec.cross_session_reuse")
        .set(out.cross_session_reuse());
    session_span.finish_with(observer.now_micros(), |a| {
        let sum = |f: fn(&ReplayOutcome) -> u64| -> u64 { out.per_session.iter().map(f).sum() };
        a.push(("sessions", out.per_session.len().into()));
        a.push(("queries", sum(|o| o.queries.len() as u64).into()));
        a.push(("issued", sum(|o| o.issued).into()));
        a.push(("completed", sum(|o| o.completed).into()));
        a.push(("cancelled", sum(|o| o.cancelled).into()));
        a.push(("used", sum(|o| o.used).into()));
        a.push(("wasted", sum(|o| o.wasted).into()));
        a.push(("shared_hits", out.shared_hits.into()));
        a.push(("admitted", gov.admitted.into()));
        a.push(("denied", gov.denied.into()));
        a.push(("preempted", gov.preempted.into()));
    });
    Ok(out)
}

/// Issue session `si`'s best manipulation through the governor gate and
/// put its build on the server.
fn try_issue(
    db: &mut Database,
    sessions: &mut [SessionState],
    si: usize,
    at: VirtualTime,
    config: &ReplayConfig,
    governor: &Governor,
    fleet: &mut FleetState,
) -> ExecResult<()> {
    // Load-aware suspension (paper §7): leave the server alone while it
    // is already busy enough. Checked before the decision, so a
    // suspended session costs no decide.
    if config.suspend_when_busy.is_some_and(|busy| fleet.server.jobs.len() >= busy) {
        return Ok(());
    }
    let mut victim: Option<usize> = None;
    let mut deduped = false;
    let mut admitted = false;
    let pending = {
        let s = &mut sessions[si];
        let owner_by_key = &fleet.owner_by_key;
        issue_gated(db, &s.speculator, &s.profile, &s.pq, &mut s.out, at, &mut |d| {
            // Fleet dedupe: an identical artifact already exists (or is
            // being built) for another session — reuse, don't rebuild.
            if let Some(g) = d.manipulation.graph() {
                if let Some(&owner) = owner_by_key.get(&Database::graph_key(g)) {
                    if owner != si {
                        deduped = true;
                        return false;
                    }
                }
            }
            match governor.admit(si as u64, d.benefit_rate(), &d.manipulation.to_string()) {
                Admission::Admit => {
                    admitted = true;
                    true
                }
                Admission::Preempt(v) => {
                    admitted = true;
                    victim = Some(v as usize);
                    true
                }
                Admission::Deny => false,
            }
        })?
    };
    if deduped {
        fleet.deduped += 1;
    }
    match pending {
        Some(mut p) => {
            fleet.track_issue(si, &p);
            p.drained_at = fleet.server.start(si, at, p.duration);
            sessions[si].pending = Some(p);
        }
        // Admission without an issue (the engine refused the build):
        // give the slot back so it is not leaked.
        None if admitted => {
            governor.finish(si as u64);
        }
        None => {}
    }
    // Preemption resolves after the issue returns the database: the
    // victim's half-built artifact rolls back at the admission instant.
    // (The governor already moved the victim's slot to `si`, so the
    // victim's own release is a no-op.)
    if let Some(vi) = victim {
        if let Some(p) = sessions[vi].pending.take() {
            sessions[vi].abort(db, vi, &p, CancelReason::Preempted, governor, fleet);
        }
    }
    Ok(())
}

/// Commit session `si`'s drained builds. With pipelining on, each
/// commit frees the session's slot and the speculator immediately issues
/// the next-best manipulation at the drain instant; the paper-faithful
/// default waits for the next edit.
fn drain_completions(
    db: &mut Database,
    sessions: &mut [SessionState],
    si: usize,
    config: &ReplayConfig,
    governor: &Governor,
    fleet: &mut FleetState,
) -> ExecResult<()> {
    if !config.speculative {
        return Ok(());
    }
    let observer = db.observer().clone();
    while let Some(p) = sessions[si].pending.take() {
        let Some(drained_at) = p.drained_at else {
            sessions[si].pending = Some(p);
            break;
        };
        sessions[si].commit(si, p, drained_at, &observer, governor, fleet);
        if config.pipeline {
            try_issue(db, sessions, si, drained_at, config, governor, fleet)?;
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn process_edit(
    db: &mut Database,
    sessions: &mut [SessionState],
    si: usize,
    now: VirtualTime,
    op: &EditOp,
    config: &ReplayConfig,
    governor: &Governor,
    fleet: &mut FleetState,
) -> ExecResult<()> {
    let observer = db.observer().clone();
    let s = &mut sessions[si];
    s.profile.observe_edit(now, op);
    s.pq.apply(op);
    s.question_start.get_or_insert(now);
    observer.tracer().instant(SpanKind::Edit, edit_label(op), now.as_micros(), |a| {
        a.push(("session", (si as u64).into()));
    });
    // Cancel the in-flight manipulation if the edit invalidated it.
    if let Some(p) = s.pending.take() {
        if s.speculator.should_cancel(&p.manipulation, s.pq.graph()) {
            s.abort(db, si, &p, CancelReason::Edit, governor, fleet);
        } else {
            s.pending = Some(p);
        }
    }
    if config.speculative && s.pending.is_none() {
        try_issue(db, sessions, si, now, config, governor, fleet)?;
    }
    Ok(())
}

fn process_go(
    db: &mut Database,
    sessions: &mut [SessionState],
    si: usize,
    now: VirtualTime,
    config: &ReplayConfig,
    governor: &Governor,
    fleet: &mut FleetState,
) -> ExecResult<()> {
    let observer = db.observer().clone();
    let s = &mut sessions[si];
    // Resolve the in-flight manipulation at GO. The paper's prototype
    // always cancels; with `wait_at_go` (its Section 7 suggestion) we
    // wait out the remainder when it is smaller than the manipulation's
    // estimated per-query benefit, charging the wait to the query's
    // measured time: the build's remaining work joins the query's job.
    let mut wait = VirtualTime::ZERO;
    if let Some(p) = s.pending.take() {
        let remaining = fleet.server.remaining(si);
        if config.wait_at_go && remaining.as_secs_f64() < p.benefit_secs {
            wait = remaining;
            s.out.waited += 1;
            fleet.server.remove(si);
            s.commit(si, p, now + remaining, &observer, governor, fleet);
        } else {
            s.abort(db, si, &p, CancelReason::Go, governor, fleet);
        }
    }
    let query_index = s.out.queries.len();
    observer.tracer().instant(SpanKind::Edit, "go", now.as_micros(), |a| {
        a.push(("query", query_index.into()));
        a.push(("session", (si as u64).into()));
    });
    if let Some(qs) = s.question_start.take() {
        observer
            .metrics()
            .histogram("lat.time_to_go_secs")
            .record(now.saturating_sub(qs).as_secs_f64());
    }
    let final_query = s.pq.query().clone();
    s.profile.observe_go(now, &final_query.graph);
    let result = db.execute_discard(&final_query)?;
    // The session blocks until its query's job drains.
    let trace_at = s.trace.edits[s.idx].at;
    s.running = Some(RunningGo { trace_at, at: now, rows: result.row_count });
    if let Some(drained_at) = fleet.server.start(si, now, result.elapsed + wait) {
        s.finish_go(drained_at, &observer);
    }
    // Settle bets: a committed build read by this plan counts as used
    // exactly once, charged to the session that built it — a read of a
    // foreign build is also a shared hit. A used prediction whose graph
    // key equals this GO query's key served the answer outright;
    // anything else got there through the subsumption rewrite. The
    // reading session's own bets calibrate their predicted per-query
    // benefit against the realized saving.
    let go_key = Database::graph_key(&final_query.graph);
    for view in &result.used_views {
        let Some(&owner) = fleet.builder_of.get(view) else { continue };
        fleet.artifact_uses += 1;
        if owner != si {
            fleet.shared_hits += 1;
            observer.metrics().counter("spec.shared_hits").incr();
        }
        let o = &mut sessions[owner];
        let Some(cv) = o.completed_views.get_mut(view).filter(|cv| !cv.used) else { continue };
        cv.used = true;
        o.out.used += 1;
        observer.metrics().counter("spec.used").incr();
        if cv.build.predicted {
            if cv.build.artifact_key.as_deref() == Some(go_key.as_str()) {
                o.out.predicted_hits += 1;
                observer.metrics().counter("spec.predicted_hits").incr();
            } else {
                o.out.salvaged_hits += 1;
                observer.metrics().counter("spec.salvaged_hits").incr();
            }
        }
        mark(&observer, "used", now.as_micros(), owner, cv.build.build, None);
        if owner == si {
            if let Ok(base) = db.estimate_query_time_base(&final_query) {
                observer.calibration().record_delta(
                    cv.build.predicted_delta_secs,
                    result.elapsed.as_secs_f64() - base.as_secs_f64(),
                );
            }
        }
    }
    collect_unsupported(db, sessions, si, &final_query.graph, VIEWS, fleet);
    collect_unsupported(db, sessions, si, &final_query.graph, STAGED, fleet);
    Ok(())
}

/// How the GC lists the artifacts of one kind that a query graph does
/// not support, and how it drops one.
type ArtifactKind = (fn(&Database, &QueryGraph) -> Vec<String>, fn(&mut Database, &str));
/// Materialized views.
const VIEWS: ArtifactKind = (Database::unsupported_views, Database::drop_materialized);
/// Tables whose pages are staged in the buffer pool.
const STAGED: ArtifactKind = (Database::unsupported_staged, Database::unstage);

/// Garbage-collect artifacts of one kind after session `si`'s GO, by
/// the fleet rule: an artifact drops only when *no* session supports it
/// — neither this session's final query, nor any other active session's
/// current partial query, nor another session's in-flight build. With
/// one session this is exactly the paper's single-user GC. A dropped
/// build nobody read is charged as waste to the session that built it.
fn collect_unsupported(
    db: &mut Database,
    sessions: &mut [SessionState],
    si: usize,
    final_graph: &QueryGraph,
    (unsupported, drop): ArtifactKind,
    fleet: &mut FleetState,
) {
    let observer = db.observer().clone();
    let mut doomed = unsupported(db, final_graph);
    let inflight: HashSet<&str> = sessions
        .iter()
        .enumerate()
        .filter(|(oi, _)| *oi != si)
        .filter_map(|(_, o)| o.pending.as_ref().and_then(|p| p.table.as_deref()))
        .collect();
    doomed.retain(|name| !inflight.contains(name.as_str()));
    for (oi, other) in sessions.iter().enumerate() {
        if oi == si || doomed.is_empty() || !other.active() {
            continue;
        }
        let theirs: HashSet<String> = unsupported(db, other.pq.graph()).into_iter().collect();
        doomed.retain(|name| theirs.contains(name));
    }
    for table in doomed {
        drop(db, &table);
        sessions[si].out.collected += 1;
        observer.metrics().counter("spec.collected").incr();
        // A table another session built is charged to, and marked
        // against, that session's build.
        let owner = fleet.builder_of.get(&table).copied().unwrap_or(si);
        fleet.forget_table(&table);
        let cv = sessions[owner].completed_views.remove(&table);
        let build = cv.as_ref().and_then(|cv| cv.build.build);
        mark(&observer, "gc", observer.now_micros(), si, build, Some(("table", &table)));
        if let Some(cv) = cv {
            charge_if_unread(&observer, owner, &mut sessions[owner].out, &cv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{build_base_db, DatasetSpec};
    use specdb_obs::AttrValue;
    use specdb_trace::{UserModel, UserModelConfig};

    fn small_trace(queries: usize, seed: u64) -> Trace {
        let cfg = UserModelConfig { queries, questions: 2, ..Default::default() };
        UserModel::new(cfg, specdb_tpch::ExploreDomain::tpch()).generate("u", seed)
    }

    /// Figure 7's configuration: the multi-user (selection-only) space.
    fn contended_config(speculative: bool) -> ReplayConfig {
        ReplayConfig {
            speculative,
            speculator: SpeculatorConfig {
                space: specdb_core::SpaceConfig::multi_user(),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn normal_and_speculative_same_answers() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let trace = small_trace(8, 3);
        let mut db1 = base.clone();
        let normal = replay_trace(&mut db1, &trace, &ReplayConfig::normal()).unwrap();
        let mut db2 = base.clone();
        let spec = replay_trace(&mut db2, &trace, &ReplayConfig::speculative()).unwrap();
        assert_eq!(normal.queries.len(), 8);
        assert_eq!(spec.queries.len(), 8);
        for (n, s) in normal.queries.iter().zip(&spec.queries) {
            assert_eq!(n.rows, s.rows, "query {} must return identical results", n.index);
        }
        assert_eq!(normal.issued, 0);
    }

    #[test]
    fn speculation_reduces_total_time() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        // Average over several traces: per-query wins dominate losses.
        let mut normal_total = VirtualTime::ZERO;
        let mut spec_total = VirtualTime::ZERO;
        let mut issued = 0;
        for seed in 0..3 {
            let trace = small_trace(12, 100 + seed);
            let mut db1 = base.clone();
            normal_total +=
                replay_trace(&mut db1, &trace, &ReplayConfig::normal()).unwrap().total();
            let mut db2 = base.clone();
            let s = replay_trace(&mut db2, &trace, &ReplayConfig::speculative()).unwrap();
            spec_total += s.total();
            issued += s.issued;
        }
        assert!(issued > 0, "speculation must actually fire");
        assert!(
            spec_total < normal_total,
            "speculation should win overall: {spec_total} vs {normal_total}"
        );
    }

    #[test]
    fn completion_bookkeeping_consistent() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let trace = small_trace(12, 42);
        let mut db = base.clone();
        let out = replay_trace(&mut db, &trace, &ReplayConfig::speculative()).unwrap();
        assert_eq!(out.issued, out.completed + out.cancelled);
        assert_eq!(out.manipulation_times.len() as u64, out.completed);
        assert!(out.non_completion_rate() <= 1.0);
    }

    #[test]
    fn gc_bounds_view_count() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let trace = small_trace(20, 9);
        let mut db = base.clone();
        let out = replay_trace(&mut db, &trace, &ReplayConfig::speculative()).unwrap();
        // After the replay, only views supported by the last query's graph
        // may remain — a handful, not one per manipulation.
        assert!(db.views().len() as u64 <= out.completed);
        assert!(db.views().len() <= 4, "views left: {}", db.views().len());
    }

    #[test]
    fn wait_at_go_policy_waits_and_counts() {
        use specdb_query::{CompareOp, EditOp, Predicate, Selection};
        use specdb_trace::TimedEdit;
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        // Measure the manipulation's deterministic virtual build time and
        // benefit, then craft a GO instant that lands inside the wait
        // window: remaining = benefit/2 < benefit.
        let sel = Selection::new("lineitem", Predicate::new("l_quantity", CompareOp::Le, 2i64));
        let sub = {
            let mut g = specdb_query::QueryGraph::new();
            g.add_selection(sel.clone());
            g
        };
        let (build, benefit) = {
            let mut probe = base.clone();
            probe.clear_buffer();
            let est = probe.estimate_materialization(&sub).unwrap();
            let benefit = est.compute_now.as_secs_f64() - est.scan_result.as_secs_f64();
            let m = probe.materialize(&sub, specdb_exec::CancelToken::new()).unwrap();
            (m.elapsed, benefit)
        };
        assert!(benefit > 0.0, "fixture predicate must be beneficial");
        let t_edit = VirtualTime::from_secs(1);
        let go_at = t_edit + build.saturating_sub(VirtualTime::from_secs_f64(benefit / 2.0));
        assert!(go_at > t_edit, "build must exceed half the benefit");
        let trace = Trace {
            user: "crafted".into(),
            seed: 0,
            edits: vec![
                TimedEdit { at: VirtualTime::ZERO, op: EditOp::AddRelation("lineitem".into()) },
                TimedEdit { at: t_edit, op: EditOp::AddSelection(sel) },
                TimedEdit { at: go_at, op: EditOp::Go },
            ],
        };
        // Without the policy: the pending manipulation is cancelled.
        let mut db1 = base.clone();
        let plain = replay_trace(&mut db1, &trace, &ReplayConfig::speculative()).unwrap();
        assert_eq!(plain.waited, 0);
        assert_eq!(plain.cancelled, 1);
        // With it: the replay waits out the remainder and uses the view.
        let mut db2 = base.clone();
        let cfg = ReplayConfig { wait_at_go: true, ..ReplayConfig::speculative() };
        let waity = replay_trace(&mut db2, &trace, &cfg).unwrap();
        assert_eq!(waity.waited, 1, "policy must fire in the crafted window");
        assert_eq!(waity.cancelled, 0);
        assert_eq!(plain.queries[0].rows, waity.queries[0].rows);
        // The wait is bounded by the *estimated* benefit; the realized
        // trade can go either way (the cancelled build still warmed the
        // buffer for the plain run), so assert the wait stayed bounded
        // rather than strictly profitable.
        let ratio = waity.queries[0].elapsed.as_secs_f64()
            / plain.queries[0].elapsed.as_secs_f64().max(1e-9);
        assert!(
            ratio < 1.6,
            "waiting {} should stay comparable to recomputing {}",
            waity.queries[0].elapsed,
            plain.queries[0].elapsed
        );
    }

    #[test]
    fn subsumption_match_mode_reuses_tweaked_views() {
        use specdb_exec::MatchMode;
        let mut base = build_base_db(&DatasetSpec::tiny()).unwrap();
        base.set_match_mode(MatchMode::Subsume);
        let trace = small_trace(15, 77);
        let mut db_exact = {
            let mut d = base.clone();
            d.set_match_mode(MatchMode::Exact);
            d
        };
        let exact = replay_trace(&mut db_exact, &trace, &ReplayConfig::speculative()).unwrap();
        let mut db_sub = base.clone();
        let sub = replay_trace(&mut db_sub, &trace, &ReplayConfig::speculative()).unwrap();
        assert_eq!(exact.queries.len(), sub.queries.len());
        for (a, b) in exact.queries.iter().zip(&sub.queries) {
            assert_eq!(a.rows, b.rows, "subsumption must preserve answers");
        }
    }

    #[test]
    fn observer_tracks_speculation_lifecycle() {
        use specdb_obs::{Observer, Tracer};
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let tracer = Tracer::enabled();
        let mut db = base.clone();
        db.set_observer(Observer::enabled().with_tracer(tracer.clone()));
        let trace = small_trace(12, 42);
        let out = replay_trace(&mut db, &trace, &ReplayConfig::speculative()).unwrap();
        assert!(out.issued > 0, "fixture must speculate");

        // Counters mirror the outcome's bookkeeping exactly.
        let snap = db.observer().metrics().snapshot();
        assert_eq!(snap.counter("spec.issued"), out.issued);
        assert_eq!(snap.counter("spec.completed"), out.completed);
        assert_eq!(
            snap.counter("spec.cancelled.edit") + snap.counter("spec.cancelled.go"),
            out.cancelled
        );
        assert_eq!(snap.counter("spec.collected"), out.collected);
        assert_eq!(snap.counter("spec.used"), out.used);
        assert_eq!(snap.counter("spec.wasted"), out.wasted);
        assert!(snap.counter("spec.decisions") >= out.issued);
        assert!(snap.counter("buffer.hit") > 0, "replay must touch the buffer pool");

        // Lifecycle instants mirror the counters, and each one that names
        // a build names a `speculate` span of this replay.
        let spans = tracer.spans();
        let builds: HashSet<u64> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Speculation && !s.instant)
            .map(|s| s.id)
            .collect();
        assert!(builds.len() as u64 >= out.issued);
        let steps: Vec<_> =
            spans.iter().filter(|s| s.kind == SpanKind::Speculation && s.instant).collect();
        let count = |name: &str| steps.iter().filter(|s| s.name == name).count() as u64;
        assert_eq!(count("cancel"), out.cancelled);
        assert_eq!(count("complete"), out.completed);
        assert_eq!(count("used"), out.used);
        assert_eq!(count("wasted"), out.wasted);
        assert_eq!(count("gc"), out.collected);
        for step in &steps {
            match step.attr("build").and_then(AttrValue::as_u64) {
                Some(id) => assert!(builds.contains(&id), "{} names unknown build {id}", step.name),
                None => assert_eq!(step.name, "gc", "only a gc may lack its build"),
            }
            assert!(step.attr("session").is_some());
        }

        // Every completed materialization resolves to used or wasted
        // (non-view manipulations — indexes, staging — are exempt).
        assert!(out.used + out.wasted <= out.completed);
        assert!(out.hit_rate() <= 1.0);
        assert!(out.waste_ratio() <= 1.0);

        // The build-calibration channel saw one sample per issue.
        let report = db.observer().calibration().build_report().expect("samples recorded");
        assert_eq!(report.count as u64, out.issued);
    }

    #[test]
    fn oracle_and_uniform_profiles_run() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let trace = small_trace(6, 5);
        for profile in [
            ProfileKind::Oracle(specdb_trace::gen::oracle_profile(&UserModelConfig::default())),
            ProfileKind::Uniform(UniformProfile::default()),
        ] {
            let mut db = base.clone();
            let cfg = ReplayConfig { speculative: true, profile, ..Default::default() };
            let out = replay_trace(&mut db, &trace, &cfg).unwrap();
            assert_eq!(out.queries.len(), 6);
        }
    }

    #[test]
    fn single_session_is_bit_identical_to_replay_trace() {
        use specdb_exec::MatchMode;
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let cfg = UserModelConfig {
            queries: 8,
            questions: 2,
            think_median_secs: 0.3,
            think_min_secs: 0.05,
            think_max_secs: 5.0,
            ..Default::default()
        };
        let trace = UserModel::new(cfg, specdb_tpch::ExploreDomain::tpch()).generate("u", 21);
        let spec = ReplayConfig::speculative();
        let mut predict = spec.clone();
        predict.speculator.predict = true;
        predict.speculator.predict_topk = 3;
        let oracle = specdb_trace::gen::oracle_profile(&UserModelConfig::default());
        let configs = [
            (ReplayConfig::normal(), MatchMode::Exact),
            (spec.clone(), MatchMode::Exact),
            (ReplayConfig { pipeline: true, ..spec.clone() }, MatchMode::Exact),
            (predict.clone(), MatchMode::Exact),
            (spec.clone(), MatchMode::Subsume),
            (ReplayConfig { pipeline: true, ..predict }, MatchMode::Subsume),
            (ReplayConfig { wait_at_go: true, ..spec.clone() }, MatchMode::Exact),
            (spec.clone().warm(), MatchMode::Exact),
            (
                ReplayConfig { profile: ProfileKind::Oracle(oracle), ..spec.clone() },
                MatchMode::Exact,
            ),
            (
                ReplayConfig { profile: ProfileKind::Uniform(UniformProfile::default()), ..spec },
                MatchMode::Exact,
            ),
        ];
        for (replay, mode) in configs {
            for threads in [1usize, 4] {
                let engine = || {
                    let mut db = base.clone();
                    db.set_threads(threads);
                    db.set_match_mode(mode);
                    db
                };
                let single = replay_trace(&mut engine(), &trace, &replay).unwrap();
                for budget in [1usize, 2, 8] {
                    let cfg = MultiSessionConfig {
                        replay: replay.clone(),
                        governor: GovernorConfig { max_outstanding: budget, ..Default::default() },
                    };
                    let multi =
                        replay_multi_session(&mut engine(), std::slice::from_ref(&trace), &cfg)
                            .unwrap();
                    assert_eq!(multi.per_session.len(), 1);
                    assert_eq!(
                        multi.per_session[0], single,
                        "governor with budget {budget} must not change a lone session \
                         ({replay:?}, {mode:?}, {threads} threads)"
                    );
                    assert_eq!(multi.shared_hits, 0);
                    assert_eq!(multi.preempted, 0);
                    assert_eq!(multi.deduped, 0);
                }
                // One user never shares the processor-sharing server.
                let contended =
                    replay_multi(&mut engine(), std::slice::from_ref(&trace), &replay).unwrap();
                assert_eq!(
                    contended.per_session,
                    [single],
                    "a lone contended user must replay as alone ({replay:?}, {mode:?}, \
                     {threads} threads)"
                );
            }
        }
    }

    #[test]
    fn twin_sessions_share_artifacts() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        // Two users exploring the same question stream: the second
        // session's identical candidate builds dedupe against the
        // first's, and its final queries read the first's views.
        let trace = small_trace(10, 42);
        let traces = vec![trace.clone(), trace];
        let mut db = base.clone();
        let out =
            replay_multi_session(&mut db, &traces, &MultiSessionConfig::speculative()).unwrap();
        assert_eq!(out.per_session.len(), 2);
        for (a, b) in out.per_session[0].queries.iter().zip(&out.per_session[1].queries) {
            assert_eq!(a.rows, b.rows, "identical traces must see identical answers");
        }
        // The speculator's candidate space is registry-aware, so the
        // twin proposes *complementary* builds rather than duplicates
        // (the dedupe gate is defense-in-depth, not the common path) —
        // the sharing shows up as cross-session reads at GO.
        assert!(out.shared_hits > 0, "the twin must read the first session's views: {out:?}");
        assert!(out.cross_session_reuse() > 0.0);
        assert!(out.cross_session_reuse() <= 1.0);
    }

    #[test]
    fn bookkeeping_stays_consistent_per_session() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let traces: Vec<Trace> = (0..4).map(|s| small_trace(6, 300 + s)).collect();
        let mut db = base.clone();
        let cfg = MultiSessionConfig {
            replay: ReplayConfig::speculative(),
            governor: GovernorConfig { max_outstanding: 1, ..Default::default() },
        };
        let out = replay_multi_session(&mut db, &traces, &cfg).unwrap();
        let mut issued_total = 0;
        for s in &out.per_session {
            assert_eq!(s.issued, s.completed + s.cancelled);
            assert_eq!(s.manipulation_times.len() as u64, s.completed);
            assert_eq!(s.queries.len(), 6);
            issued_total += s.issued;
        }
        assert_eq!(issued_total, out.admitted, "every admitted candidate must issue");
        assert!(out.artifact_uses >= out.shared_hits);
        assert_eq!(out.go_latency_secs().len(), 24);

        // Contended users settle every build and every bet too.
        let mut db = base.clone();
        let out = replay_multi(&mut db, &traces[..3], &contended_config(true)).unwrap();
        assert_eq!(out.per_session.len(), 3);
        for s in &out.per_session {
            assert_eq!(s.queries.len(), 6);
            assert_eq!(s.issued, s.completed + s.cancelled);
            assert!(s.used + s.wasted <= s.completed);
        }
        assert!(out.per_session.iter().any(|s| s.issued > 0), "fixture must speculate");
    }

    #[test]
    fn tight_budget_denies_more_than_loose() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let traces: Vec<Trace> = (0..4).map(|s| small_trace(6, 900 + s)).collect();
        let run = |budget: usize, preempt: bool| {
            let mut db = base.clone();
            let cfg = MultiSessionConfig {
                replay: ReplayConfig::speculative(),
                governor: GovernorConfig { max_outstanding: budget, preempt, ..Default::default() },
            };
            replay_multi_session(&mut db, &traces, &cfg).unwrap()
        };
        let tight = run(1, false);
        let loose = run(16, false);
        assert!(
            tight.denied >= loose.denied,
            "budget 1 must deny at least as often as budget 16: {} vs {}",
            tight.denied,
            loose.denied
        );
        assert!(tight.admitted <= loose.admitted);
        // Same fleet, same answers, regardless of the budget.
        for (a, b) in tight.per_session.iter().zip(&loose.per_session) {
            for (qa, qb) in a.queries.iter().zip(&b.queries) {
                assert_eq!(qa.rows, qb.rows, "admission policy must never change answers");
            }
        }
    }

    #[test]
    fn preemption_reclaims_slots_for_stronger_candidates() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let traces: Vec<Trace> = (0..6).map(|s| small_trace(6, 40 + s)).collect();
        let run = |preempt: bool| {
            let mut db = base.clone();
            let cfg = MultiSessionConfig {
                replay: ReplayConfig::speculative(),
                governor: GovernorConfig { max_outstanding: 1, preempt, ..Default::default() },
            };
            replay_multi_session(&mut db, &traces, &cfg).unwrap()
        };
        let without = run(false);
        assert_eq!(without.preempted, 0);
        let with = run(true);
        // Preemption count shows up both fleet-wide and in the victims'
        // cancellation tallies.
        let cancelled: u64 = with.per_session.iter().map(|s| s.cancelled).sum();
        assert!(with.preempted <= cancelled);
        for (a, b) in without.per_session.iter().zip(&with.per_session) {
            for (qa, qb) in a.queries.iter().zip(&b.queries) {
                assert_eq!(qa.rows, qb.rows, "preemption must never change answers");
            }
        }
    }

    #[test]
    fn contention_stretches_queries() {
        // Three users replaying the *same* trace issue their GOs at the
        // same instants: the processor-sharing server must stretch the
        // first user's total beyond their solo run. (With *different*
        // traces the comparison is confounded by shared-buffer warming,
        // which can legitimately make the contended run faster.)
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let one = small_trace(6, 50);
        let same = vec![one.clone(), one.clone(), one.clone()];
        let solo = replay_trace(&mut base.clone(), &one, &ReplayConfig::normal()).unwrap();
        let multi = replay_multi(&mut base.clone(), &same, &contended_config(false)).unwrap();
        let solo_total = solo.total().as_secs_f64();
        let multi_total = multi.per_session[0].total().as_secs_f64();
        assert!(
            multi_total > solo_total,
            "identical concurrent traces must contend: {multi_total} vs solo {solo_total}"
        );
    }

    #[test]
    fn load_aware_suspension_reduces_issued_manipulations() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let traces: Vec<Trace> = (0..3).map(|s| small_trace(8, 21 + s * 31)).collect();
        let free = contended_config(true);
        let strict = ReplayConfig { suspend_when_busy: Some(1), ..contended_config(true) };
        let a = replay_multi(&mut base.clone(), &traces, &free).unwrap();
        let b = replay_multi(&mut base.clone(), &traces, &strict).unwrap();
        let issued = |o: &MultiSessionOutcome| o.per_session.iter().map(|u| u.issued).sum::<u64>();
        assert!(
            issued(&b) <= issued(&a),
            "suspension must not issue more: {} vs {}",
            issued(&b),
            issued(&a)
        );
        // Answers unchanged either way.
        for (x, y) in a.per_session.iter().zip(&b.per_session) {
            for (qa, qb) in x.queries.iter().zip(&y.queries) {
                assert_eq!(qa.rows, qb.rows);
            }
        }
    }

    #[test]
    fn speculative_multi_user_improves_most_users() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let traces: Vec<Trace> = (0..3).map(|s| small_trace(8, 11 + s * 31)).collect();
        let normal = replay_multi(&mut base.clone(), &traces, &contended_config(false)).unwrap();
        let spec = replay_multi(&mut base.clone(), &traces, &contended_config(true)).unwrap();
        let issued: u64 = spec.per_session.iter().map(|u| u.issued).sum();
        assert!(issued > 0);
        let (n_total, s_total) = (normal.total().as_secs_f64(), spec.total().as_secs_f64());
        assert!(
            s_total < n_total * 1.15,
            "speculation should not catastrophically regress: {s_total} vs {n_total}"
        );
    }
}
