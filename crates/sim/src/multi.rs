//! Multi-user replay with a processor-sharing disk (Figure 7).
//!
//! Several traces replay simultaneously against one shared engine. Work
//! (final queries and speculative manipulations) is modelled as jobs on
//! a processor-sharing server: when `k` jobs are active each proceeds at
//! rate `1/k`, so concurrent speculation stretches everyone's queries —
//! the contention effect behind the paper's 1 GB multi-user penalties.
//! This is the only replay that models contention; each user's
//! speculation lifecycle (profile, issue, cancel, completion) runs
//! through the same per-session helpers as [`crate::replay`].
//!
//! Approximations (mirroring the paper's own): the cost model does not
//! account for other users; a job's *service demand* is measured by
//! executing it atomically against the shared engine at issue time, with
//! completion (and cancellation rollback) handled on the virtual clock.

use crate::replay::{
    cancel_pending, complete, issue_gated, Pending, ProfileState, QueryMeasurement, ReplayConfig,
    ReplayOutcome,
};
use specdb_core::Speculator;
use specdb_exec::{Database, ExecResult};
use specdb_obs::CancelReason;
use specdb_query::{EditOp, PartialQuery};
use specdb_storage::VirtualTime;
use specdb_trace::Trace;

/// Outcome of a multi-user replay.
#[derive(Debug, Clone)]
pub struct MultiOutcome {
    /// Per-user outcomes, in input order. Query `elapsed` values are
    /// *sojourn* times (service stretched by contention), matching the
    /// elapsed times the paper measures under load.
    pub per_user: Vec<ReplayOutcome>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Query,
    Manipulation,
}

struct Job {
    id: u64,
    user: usize,
    kind: JobKind,
    remaining_secs: f64,
}

struct UserSim {
    edits: Vec<specdb_trace::TimedEdit>,
    idx: usize,
    offset: VirtualTime,
    pq: PartialQuery,
    profile: ProfileState,
    /// The in-flight manipulation and the id of its job.
    pending: Option<(u64, Pending)>,
    blocked: Option<BlockedOn>,
    out: ReplayOutcome,
    query_index: usize,
}

struct BlockedOn {
    job_id: u64,
    go_trace_at: VirtualTime,
    go_sim_at: f64,
    rows: u64,
}

/// Replay several traces simultaneously against one shared database.
pub fn replay_multi(
    db: &mut Database,
    traces: &[Trace],
    config: &ReplayConfig,
) -> ExecResult<MultiOutcome> {
    db.clear_buffer();
    let speculator = Speculator::new(config.speculator.clone());
    let mut users: Vec<UserSim> = traces
        .iter()
        .map(|t| UserSim {
            edits: t.edits.clone(),
            idx: 0,
            offset: VirtualTime::ZERO,
            pq: PartialQuery::new(),
            profile: ProfileState::new(&config.profile),
            pending: None,
            blocked: None,
            out: ReplayOutcome::default(),
            query_index: 0,
        })
        .collect();
    let mut jobs: Vec<Job> = Vec::new();
    let mut next_job_id = 0u64;
    let mut now_secs = 0.0f64;
    const EPS: f64 = 1e-9;

    loop {
        // Next user arrival (non-blocked users with edits remaining).
        let mut next_arrival: Option<(f64, usize)> = None;
        for (u, user) in users.iter().enumerate() {
            if user.blocked.is_some() || user.idx >= user.edits.len() {
                continue;
            }
            let t = (user.edits[user.idx].at + user.offset).as_secs_f64();
            let t = t.max(now_secs);
            if next_arrival.map(|(bt, _)| t < bt).unwrap_or(true) {
                next_arrival = Some((t, u));
            }
        }
        // Next job completion under processor sharing.
        let next_completion: Option<f64> = jobs
            .iter()
            .map(|j| j.remaining_secs)
            .fold(None, |acc: Option<f64>, r| Some(acc.map_or(r, |a| a.min(r))))
            .map(|min_rem| now_secs + min_rem * jobs.len() as f64);

        let (event_time, is_arrival, arrival_user) = match (next_arrival, next_completion) {
            (None, None) => break,
            (Some((ta, u)), None) => (ta, true, u),
            (None, Some(tc)) => (tc, false, 0),
            (Some((ta, u)), Some(tc)) => {
                if ta <= tc {
                    (ta, true, u)
                } else {
                    (tc, false, 0)
                }
            }
        };
        // Advance the processor-sharing server.
        let dt = (event_time - now_secs).max(0.0);
        if dt > 0.0 && !jobs.is_empty() {
            let share = dt / jobs.len() as f64;
            for j in &mut jobs {
                j.remaining_secs -= share;
            }
        }
        now_secs = event_time;

        if is_arrival {
            handle_arrival(
                db,
                &speculator,
                config,
                &mut users[arrival_user],
                arrival_user,
                &mut jobs,
                &mut next_job_id,
                now_secs,
            )?;
        }
        // Handle all completions that are due (whether or not the event
        // was nominally an arrival — shares may have drained jobs).
        let done: Vec<u64> =
            jobs.iter().filter(|j| j.remaining_secs <= EPS).map(|j| j.id).collect();
        for id in done {
            let pos = jobs.iter().position(|j| j.id == id).unwrap();
            let job = jobs.remove(pos);
            match job.kind {
                JobKind::Query => {
                    let user = &mut users[job.user];
                    let blocked = user.blocked.take().expect("query job implies blocked user");
                    debug_assert_eq!(blocked.job_id, job.id);
                    let sojourn = now_secs - blocked.go_sim_at;
                    user.out.queries.push(QueryMeasurement {
                        index: user.query_index,
                        elapsed: VirtualTime::from_secs_f64(sojourn),
                        rows: blocked.rows,
                    });
                    user.query_index += 1;
                    // Resume the trace: the recorded post-GO gap starts now.
                    user.offset =
                        VirtualTime::from_secs_f64(now_secs).saturating_sub(blocked.go_trace_at);
                }
                JobKind::Manipulation => {
                    if let Some((id, p)) = users[job.user].pending.take() {
                        debug_assert_eq!(id, job.id);
                        let at = VirtualTime::from_secs_f64(now_secs);
                        complete(db.observer(), &mut users[job.user].out, &p, at);
                    }
                    // With pipelining on, the freed slot is refilled
                    // immediately (unless the user is blocked on their
                    // final query); the paper-faithful default re-decides
                    // only on the user's next edit.
                    if config.pipeline && users[job.user].blocked.is_none() {
                        maybe_issue(
                            db,
                            &speculator,
                            config,
                            &mut users[job.user],
                            job.user,
                            &mut jobs,
                            &mut next_job_id,
                            now_secs,
                        )?;
                    }
                }
            }
        }
    }
    Ok(MultiOutcome { per_user: users.into_iter().map(|u| u.out).collect() })
}

#[allow(clippy::too_many_arguments)]
fn handle_arrival(
    db: &mut Database,
    speculator: &Speculator,
    config: &ReplayConfig,
    user: &mut UserSim,
    user_idx: usize,
    jobs: &mut Vec<Job>,
    next_job_id: &mut u64,
    now_secs: f64,
) -> ExecResult<()> {
    let te = user.edits[user.idx].clone();
    user.idx += 1;
    let now_vt = VirtualTime::from_secs_f64(now_secs);
    let observer = db.observer().clone();
    if let EditOp::Go = te.op {
        // Cancel an unfinished in-flight manipulation (paper convention).
        if let Some((id, p)) = user.pending.take() {
            if let Some(pos) = jobs.iter().position(|j| j.id == id) {
                jobs.remove(pos);
                cancel_pending(db, &mut user.out, &p, CancelReason::Go);
            } else {
                // Its job already drained: count as completed.
                complete(&observer, &mut user.out, &p, now_vt);
            }
        }
        let final_query = user.pq.query().clone();
        user.profile.observe_go(now_vt, &final_query.graph);
        let result = db.execute_discard(&final_query)?;
        for name in speculator.gc_candidates(db, &final_query.graph) {
            db.drop_materialized(&name);
            user.out.collected += 1;
        }
        for table in db.unsupported_staged(&final_query.graph) {
            db.unstage(&table);
            user.out.collected += 1;
        }
        let id = *next_job_id;
        *next_job_id += 1;
        jobs.push(Job {
            id,
            user: user_idx,
            kind: JobKind::Query,
            remaining_secs: result.elapsed.as_secs_f64().max(1e-6),
        });
        user.blocked = Some(BlockedOn {
            job_id: id,
            go_trace_at: te.at,
            go_sim_at: now_secs,
            rows: result.row_count,
        });
        return Ok(());
    }
    user.profile.observe_edit(now_vt, &te.op);
    user.pq.apply(&te.op);
    // Invalidation check for the in-flight manipulation.
    if let Some((id, p)) = user.pending.take() {
        if !jobs.iter().any(|j| j.id == id) {
            complete(&observer, &mut user.out, &p, now_vt);
        } else if speculator.should_cancel(&p.manipulation, user.pq.graph()) {
            jobs.retain(|j| j.id != id);
            cancel_pending(db, &mut user.out, &p, CancelReason::Edit);
        } else {
            user.pending = Some((id, p));
        }
    }
    maybe_issue(db, speculator, config, user, user_idx, jobs, next_job_id, now_secs)?;
    Ok(())
}

/// Issue the speculator's best manipulation for `user` at `now`, if
/// speculation is on, the outstanding slot is free, and the server is
/// not too busy.
#[allow(clippy::too_many_arguments)]
fn maybe_issue(
    db: &mut Database,
    speculator: &Speculator,
    config: &ReplayConfig,
    user: &mut UserSim,
    user_idx: usize,
    jobs: &mut Vec<Job>,
    next_job_id: &mut u64,
    now_secs: f64,
) -> ExecResult<()> {
    if !config.speculative || user.pending.is_some() {
        return Ok(());
    }
    // Load-aware suspension (paper §7): leave the server alone while it
    // is already busy with enough concurrent work. Checked before the
    // decision, so a suspended user costs no decide.
    if let Some(threshold) = config.suspend_when_busy {
        if jobs.len() >= threshold {
            return Ok(());
        }
    }
    let now_vt = VirtualTime::from_secs_f64(now_secs);
    let issued =
        issue_gated(db, speculator, &user.profile, &user.pq, &mut user.out, now_vt, &mut |_| true)?;
    if let Some(p) = issued {
        let id = *next_job_id;
        *next_job_id += 1;
        jobs.push(Job {
            id,
            user: user_idx,
            kind: JobKind::Manipulation,
            remaining_secs: p.duration.as_secs_f64().max(1e-6),
        });
        user.pending = Some((id, p));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{build_base_db, DatasetSpec};
    use crate::replay::replay_trace;
    use specdb_core::SpaceConfig;
    use specdb_core::SpeculatorConfig;
    use specdb_trace::{UserModel, UserModelConfig};

    fn traces(n: usize, queries: usize, seed: u64) -> Vec<Trace> {
        let cfg = UserModelConfig { queries, questions: 2, ..Default::default() };
        let m = UserModel::new(cfg, specdb_tpch::ExploreDomain::tpch());
        (0..n).map(|i| m.generate(&format!("u{i}"), seed + i as u64 * 31)).collect()
    }

    fn multi_config(speculative: bool) -> ReplayConfig {
        ReplayConfig {
            speculative,
            speculator: SpeculatorConfig { space: SpaceConfig::multi_user(), ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn all_queries_complete_for_all_users() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let ts = traces(3, 6, 5);
        let mut db = base.clone();
        let out = replay_multi(&mut db, &ts, &multi_config(true)).unwrap();
        assert_eq!(out.per_user.len(), 3);
        for u in &out.per_user {
            assert_eq!(u.queries.len(), 6);
            assert_eq!(u.issued, u.completed + u.cancelled);
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
        let one = traces(1, 6, 50);
        let same = vec![one[0].clone(), one[0].clone(), one[0].clone()];
        let mut db_solo = base.clone();
        let solo = replay_trace(&mut db_solo, &one[0], &ReplayConfig::normal()).unwrap();
        let mut db_multi = base.clone();
        let multi = replay_multi(&mut db_multi, &same, &multi_config(false)).unwrap();
        let solo_total = solo.total().as_secs_f64();
        let multi_total = multi.per_user[0].total().as_secs_f64();
        assert!(
            multi_total > solo_total,
            "identical concurrent traces must contend: {multi_total} vs solo {solo_total}"
        );
    }

    #[test]
    fn single_user_multi_matches_plain_replay_shape() {
        // With one user the PS server is k=1: results should be close to
        // the dedicated single-user loop (not identical: the loops make
        // different commit-ordering approximations).
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let ts = traces(1, 6, 77);
        let mut db1 = base.clone();
        let plain = replay_trace(&mut db1, &ts[0], &ReplayConfig::normal()).unwrap();
        let mut db2 = base.clone();
        let multi = replay_multi(&mut db2, &ts, &multi_config(false)).unwrap();
        assert_eq!(plain.queries.len(), multi.per_user[0].queries.len());
        for (a, b) in plain.queries.iter().zip(&multi.per_user[0].queries) {
            assert_eq!(a.rows, b.rows);
            let ra = a.elapsed.as_secs_f64();
            let rb = b.elapsed.as_secs_f64();
            assert!((ra - rb).abs() <= 0.05 * ra.max(rb) + 1e-3, "{ra} vs {rb}");
        }
    }

    #[test]
    fn load_aware_suspension_reduces_issued_manipulations() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let ts = traces(3, 8, 21);
        let free = multi_config(true);
        let strict = ReplayConfig { suspend_when_busy: Some(1), ..multi_config(true) };
        let mut db_a = base.clone();
        let a = replay_multi(&mut db_a, &ts, &free).unwrap();
        let mut db_b = base.clone();
        let b = replay_multi(&mut db_b, &ts, &strict).unwrap();
        let issued_free: u64 = a.per_user.iter().map(|u| u.issued).sum();
        let issued_strict: u64 = b.per_user.iter().map(|u| u.issued).sum();
        assert!(
            issued_strict <= issued_free,
            "suspension must not issue more: {issued_strict} vs {issued_free}"
        );
        // Answers unchanged either way.
        for (x, y) in a.per_user.iter().zip(&b.per_user) {
            for (qa, qb) in x.queries.iter().zip(&y.queries) {
                assert_eq!(qa.rows, qb.rows);
            }
        }
    }

    #[test]
    fn speculative_multi_user_improves_most_users() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let ts = traces(3, 8, 11);
        let mut db_n = base.clone();
        let normal = replay_multi(&mut db_n, &ts, &multi_config(false)).unwrap();
        let mut db_s = base.clone();
        let spec = replay_multi(&mut db_s, &ts, &multi_config(true)).unwrap();
        let n_total: f64 = normal.per_user.iter().map(|u| u.total().as_secs_f64()).sum();
        let s_total: f64 = spec.per_user.iter().map(|u| u.total().as_secs_f64()).sum();
        let issued: u64 = spec.per_user.iter().map(|u| u.issued).sum();
        assert!(issued > 0);
        assert!(
            s_total < n_total * 1.15,
            "speculation should not catastrophically regress: {s_total} vs {n_total}"
        );
    }
}
