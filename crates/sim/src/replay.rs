//! Trace replay on a virtual clock: one event loop for one session, a
//! governed fleet of sessions, or users contending for one server.
//!
//! Traces replay against one shared [`Database`] on one virtual clock.
//! Each session is a `specdb-serve` [`SessionCore`] — the same
//! speculation protocol the live server runs — and its [`ReplayOutcome`].
//! The cores of a fleet share one [`FleetRegistry`] and one
//! [`Governor`]. This module is the core's virtual-clock driver: it
//! paces the traces, runs each admitted build inline against the engine
//! (to obtain its true cost and effects) and lets it *commit* only once
//! its build drains from the virtual server. An edit that invalidates
//! it, or a GO arriving first, cancels it and rolls its effects back:
//! the paper's conventions (asynchronous execution, one outstanding
//! manipulation, cancel-on-GO, and the garbage-collection heuristic
//! after each final query).
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
//! Every candidate build asks the fleet [`Governor`] for a slot.
//! [`replay_trace`] is the one-session case under a fixed one-slot
//! governor (budget 1, no preemption, no minimum rate): the paper's
//! one-outstanding-manipulation rule, which [`replay_multi`] applies per
//! user (one slot per session). [`replay_multi_session`] models the
//! serving layer: the governor's budget and preemption replace the
//! per-session rule. In every mode speculative artifacts are shared — a
//! view materialized for one session serves every session's final
//! queries, with cross-session reuse accounted per use. A lone session
//! replays identically under any budget ≥ 1 and under either contention
//! rule: a free slot always exists, non-idle decisions carry a positive
//! benefit rate, one job never shares the server, and the cross-session
//! hooks never fire (`tests/determinism.rs` pins this).
//!
//! Beyond the live server's conventions the replay offers wait-at-GO and
//! back-to-back pipelining ([`ReplayConfig`]).
//!
//! **Approximations.** A job's service demand is measured by executing it
//! atomically against the shared engine at its issue (build) or GO
//! (query); contention only decides when it drains. The cost model does
//! not account for other sessions' load. A build another session
//! registered but has not yet committed is visible to the planner; only
//! *committed* foreign builds count toward `shared_hits`.

use specdb_core::session::apply_manipulation;
use specdb_core::SpeculatorConfig;
use specdb_exec::{CancelToken, Database, ExecResult};
use specdb_obs::SpanKind;
use specdb_serve::{CancelReason, FleetRegistry, Governor, GovernorConfig, SessionCore, SessionId};
use specdb_storage::VirtualTime;
use specdb_trace::Trace;
use std::sync::Arc;

/// The outcome of replaying one trace is the `specdb-serve` session
/// outcome, with the replay's virtual per-query times.
pub use specdb_serve::{ProfileKind, QueryMeasurement, SessionOutcome as ReplayOutcome};

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
            cold_start: true,
            pipeline: false,
        }
    }
}

/// Multi-session replay configuration: per-session replay behaviour
/// plus the fleet governor's policy.
#[derive(Debug, Clone, Default)]
pub struct MultiSessionConfig {
    /// Per-session replay knobs (profile, wait-at-GO, pipelining, …).
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

/// The governor of a lone [`replay_trace`] session: one slot and no
/// preemption — the paper's one outstanding manipulation.
const ONE_SLOT: GovernorConfig = GovernorConfig { max_outstanding: 1, preempt: false };

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
    let mut out = replay_sessions(db, traces, config, governor, Contention::Isolated)?;
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
    replay_sessions(db, traces, &config.replay, governor, Contention::Isolated)
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
    replay_sessions(db, traces, config, governor, Contention::Shared)
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
    core: SessionCore,
    offset: VirtualTime,
    /// The instant the pending build drained from the server, once it
    /// has; it commits at the session's next event (under processor
    /// sharing, at once).
    drained_at: Option<VirtualTime>,
    running: Option<RunningGo>,
    /// Next unprocessed edit in `trace`.
    idx: usize,
}

impl SessionState<'_> {
    /// The instant of this session's next edit, unless it is blocked on
    /// a running final query.
    fn next_at(&self) -> Option<VirtualTime> {
        if self.running.is_some() {
            return None;
        }
        self.trace.edits.get(self.idx).map(|te| te.at + self.offset)
    }

    /// Cancel this session's pending build at `at`, roll its effects
    /// back and take it off the server.
    fn abort(
        &mut self,
        db: &mut Database,
        si: usize,
        reason: CancelReason,
        at: VirtualTime,
        server: &mut Server,
    ) {
        if !self.core.has_pending() {
            return;
        }
        if let Some(rollback) = self.core.abort(reason, at) {
            rollback.apply(db);
        }
        self.drained_at = None;
        server.remove(si);
    }

    /// The running final query drained at `at`: record its time and
    /// resume the trace, whose recorded post-GO gap starts now.
    fn finish_go(&mut self, at: VirtualTime) {
        let go = self.running.take().expect("a draining query job has a running GO");
        self.core.answered(at - go.at, go.rows);
        self.offset = at - go.trace_at;
    }
}

/// The event loop behind [`replay_trace`], [`replay_multi_session`] and
/// [`replay_multi`].
fn replay_sessions(
    db: &mut Database,
    traces: &[Trace],
    config: &ReplayConfig,
    governor: Governor,
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
    let governor = Arc::new(governor);
    let registry = Arc::new(FleetRegistry::new(observer.clone()));
    let mut server = Server { contention, ..Default::default() };
    let mut sessions: Vec<SessionState> = traces
        .iter()
        .enumerate()
        .map(|(si, trace)| {
            let core = SessionCore::new(
                si as SessionId,
                config.speculator.clone(),
                &config.profile,
                Arc::clone(&governor),
                Arc::clone(&registry),
                observer.clone(),
            );
            if trace.edits.is_empty() {
                registry.retire(si as SessionId);
            }
            SessionState {
                trace,
                core,
                offset: VirtualTime::ZERO,
                drained_at: None,
                running: None,
                idx: 0,
            }
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
        if let Some((at, si)) = server.drain_next(next.map(|(at, _)| at)) {
            let s = &mut sessions[si];
            if !s.core.has_pending() {
                s.finish_go(at);
                continue;
            }
            s.drained_at = Some(at);
            // A shared server cannot take work in the past, so there the
            // drain is an event of its session: the build commits now and
            // a pipelined refill joins at once. Isolated builds commit at
            // the session's next edit, which for one session is the same
            // and keeps fleet governor slots held until then.
            if contention == Contention::Shared {
                drain_completions(db, &mut sessions, si, config, &mut server)?;
            }
            continue;
        }
        let Some((now, si)) = next else { break };
        server.advance(now);
        observer.set_now_micros(now.as_micros());
        drain_completions(db, &mut sessions, si, config, &mut server)?;
        let op = sessions[si].trace.edits[sessions[si].idx].op.clone();
        if op.is_go() {
            process_go(db, &mut sessions[si], si, now, config, &mut server)?;
        } else {
            // Cancel the in-flight manipulation if the edit invalidated it.
            if sessions[si].core.edit(&op, now) {
                sessions[si].abort(db, si, CancelReason::Edit, now, &mut server);
            }
            if config.speculative && !sessions[si].core.has_pending() {
                try_issue(db, &mut sessions, si, now, &mut server)?;
            }
        }
        let s = &mut sessions[si];
        s.idx += 1;
        if s.idx == s.trace.edits.len() {
            registry.retire(si as SessionId);
        }
    }

    // Builds that survived every GC without ever being read are sunk
    // cost all the same, charged when the replay ends.
    let end = observer.now_micros();
    registry.charge_unread(VirtualTime::from_micros(end));
    let per_session: Vec<ReplayOutcome> = sessions.iter().map(|s| s.core.outcome()).collect();
    let predicted_issued: u64 = per_session.iter().map(|o| o.predicted_issued).sum();
    if predicted_issued > 0 {
        let wasted: u64 = per_session.iter().map(|o| o.predicted_wasted).sum();
        observer
            .metrics()
            .gauge("spec.prediction_waste_ratio")
            .set(wasted as f64 / predicted_issued as f64);
    }

    let (gov, cache) = (governor.stats(), registry.stats());
    let out = MultiSessionOutcome {
        per_session,
        shared_hits: cache.shared_hits,
        artifact_uses: cache.uses,
        admitted: gov.admitted,
        denied: gov.denied,
        preempted: gov.preempted,
        deduped: cache.deduped,
    };
    session_span.finish_with(end, |a| {
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

/// Let session `si`'s core propose a manipulation at `at`, build the
/// admitted one inline and put it on the server.
fn try_issue(
    db: &mut Database,
    sessions: &mut [SessionState],
    si: usize,
    at: VirtualTime,
    server: &mut Server,
) -> ExecResult<()> {
    let s = &mut sessions[si];
    let Some(issue) = s.core.propose(db, at) else { return Ok(()) };
    // Execute now to learn the true duration and effects; the effects
    // become usable at `at + duration` (cancellation before then rolls
    // them back).
    let applied = apply_manipulation(db, &issue.manipulation, CancelToken::new())?;
    s.drained_at = server.start(si, at, applied.elapsed);
    s.core.built(applied);
    // Preemption resolves after the issue returns the database: the
    // victim's half-built artifact rolls back at the admission instant.
    // (The governor already moved the victim's slot to `si`, so the
    // victim's own release is a no-op.)
    if let Some(v) = issue.victim {
        sessions[v as usize].abort(db, v as usize, CancelReason::Preempted, at, server);
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
    server: &mut Server,
) -> ExecResult<()> {
    if !config.speculative {
        return Ok(());
    }
    while let Some(at) = sessions[si].drained_at.take() {
        sessions[si].core.commit(at);
        if config.pipeline {
            try_issue(db, sessions, si, at, server)?;
        }
    }
    Ok(())
}

fn process_go(
    db: &mut Database,
    s: &mut SessionState,
    si: usize,
    now: VirtualTime,
    config: &ReplayConfig,
    server: &mut Server,
) -> ExecResult<()> {
    // Resolve the in-flight manipulation at GO. The paper's prototype
    // always cancels; with `wait_at_go` (its Section 7 suggestion) we
    // wait out the remainder when it is smaller than the manipulation's
    // estimated per-query benefit, charging the wait to the query's
    // measured time: the build's remaining work joins the query's job.
    let mut wait = VirtualTime::ZERO;
    if let Some(benefit_secs) = s.core.pending_benefit() {
        let remaining = server.remaining(si);
        if config.wait_at_go && remaining.as_secs_f64() < benefit_secs {
            wait = remaining;
            s.core.note_wait();
            server.remove(si);
            s.core.commit(now + remaining);
        } else {
            s.abort(db, si, CancelReason::Go, now, server);
        }
    }
    let final_query = s.core.query();
    s.core.go(&final_query.graph, now);
    let result = db.execute_discard(&final_query)?;
    // The session blocks until its query's job drains.
    let trace_at = s.trace.edits[s.idx].at;
    s.running = Some(RunningGo { trace_at, at: now, rows: result.row_count });
    if let Some(drained_at) = server.start(si, now, result.elapsed + wait) {
        s.finish_go(drained_at);
    }
    s.core.settle(db, &final_query, &result, now);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{build_base_db, DatasetSpec};
    use specdb_core::UniformProfile;
    use specdb_obs::AttrValue;
    use specdb_trace::{UserModel, UserModelConfig};
    use std::collections::HashSet;

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
    fn pre_materialized_views_survive_every_replay() {
        // Figure 6's Views arms: the DBMS's own views are not the
        // speculator's to collect, whatever the session's final query.
        let mut base = build_base_db(&DatasetSpec::tiny()).unwrap();
        assert!(crate::dataset::materialize_subset_joins_up_to(&mut base, 2).unwrap() > 0);
        let views: Vec<String> = base.views().iter().map(|v| v.name.clone()).collect();
        let trace = small_trace(12, 9);
        for config in [ReplayConfig::normal(), ReplayConfig::speculative()] {
            let mut db = base.clone();
            replay_trace(&mut db, &trace, &config).unwrap();
            for name in &views {
                assert!(db.views().iter().any(|v| &v.name == name), "{name} was dropped");
            }
        }
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
                governor: GovernorConfig { max_outstanding: budget, preempt },
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
                governor: GovernorConfig { max_outstanding: 1, preempt },
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
