//! The replay workloads: `solo_think` through `sim::replay_trace` and
//! `fleet_twins` through `sim::replay_multi_session`.

use crate::layers::ServeCounts;
use crate::workload::{Prepared, Workload};
use specdb_exec::{Database, MatchMode};
use specdb_obs::{Observer, SpanKind, Tracer};
use specdb_sim::{
    replay_multi_session, replay_trace, MultiSessionConfig, ReplayConfig, ReplayOutcome,
};
use std::time::Instant;

/// The result of replaying some of a workload's traces.
pub struct ReplayPass {
    /// Index of the first trace replayed.
    pub first_trace: usize,
    /// Wall time inside the replay calls.
    pub wall_s: f64,
    /// One outcome per trace replayed; empty for a trace whose replay
    /// failed, so each of its GOs counts as a wrong answer.
    pub outcomes: Vec<ReplayOutcome>,
    /// Fleet counters (`fleet_twins` only).
    pub serve: ServeCounts,
    /// Plan-cache hits and lookups made during the replays.
    pub plan_cache: (u64, u64),
}

impl ReplayPass {
    fn empty(first_trace: usize) -> Self {
        ReplayPass {
            first_trace,
            wall_s: 0.0,
            outcomes: Vec::new(),
            serve: ServeCounts::default(),
            plan_cache: (0, 0),
        }
    }

    /// Fold a later unit's result into this one.
    fn absorb(&mut self, other: ReplayPass) {
        self.wall_s += other.wall_s;
        self.outcomes.extend(other.outcomes);
        self.serve = other.serve;
        self.plan_cache =
            (self.plan_cache.0 + other.plan_cache.0, self.plan_cache.1 + other.plan_cache.1);
    }
}

/// Timing units of a workload: each `solo_think` trace replays on its
/// own engine; the `fleet_twins` fleet replays as one call.
pub fn units(prep: &Prepared) -> usize {
    match prep.workload {
        Workload::SoloThink => prep.traces.len(),
        _ => 1,
    }
}

/// Replay every trace once.
pub fn run_pass(prep: &Prepared, observer: Option<&Observer>, tracer: &Tracer) -> ReplayPass {
    let mut pass = ReplayPass::empty(0);
    for unit in 0..units(prep) {
        pass.absorb(run_unit(prep, unit, observer, tracer));
    }
    pass
}

/// `solo_think`'s replay: speculation with top-3 whole-query prediction,
/// back-to-back pipelining, and subsumption matching.
fn solo_config() -> ReplayConfig {
    let mut cfg = ReplayConfig::speculative();
    cfg.pipeline = true;
    cfg.speculator.predict = true;
    cfg.speculator.predict_topk = 3;
    cfg
}

/// A fresh engine for one replay call, with `observer` attached.
fn engine(prep: &Prepared, observer: Option<&Observer>) -> Database {
    let mut db = prep.base.clone();
    if prep.workload == Workload::SoloThink {
        db.set_match_mode(MatchMode::Subsume);
    }
    if let Some(o) = observer {
        db.set_observer(o.clone());
    }
    db
}

fn plan_cache_delta(before: &Database, after: &Database) -> (u64, u64) {
    let (b, a) = (before.plan_cache_stats(), after.plan_cache_stats());
    let hits = a.hits - b.hits;
    (hits, hits + a.misses - b.misses)
}

/// Replay one timing unit. Each replay call is one span of `tracer`.
pub fn run_unit(
    prep: &Prepared,
    unit: usize,
    observer: Option<&Observer>,
    tracer: &Tracer,
) -> ReplayPass {
    match prep.workload {
        Workload::SoloThink => {
            let mut pass = ReplayPass::empty(unit);
            let trace = &prep.traces[unit];
            let mut db = engine(prep, observer);
            let span = tracer.begin(SpanKind::Session, "replay_trace", 0);
            let t = Instant::now();
            let out = replay_trace(&mut db, trace, &solo_config());
            pass.wall_s = t.elapsed().as_secs_f64();
            span.finish(0);
            pass.plan_cache = plan_cache_delta(&prep.base, &db);
            pass.outcomes.push(match out {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("perfbench: replay of {} failed: {e}", trace.user);
                    ReplayOutcome::default()
                }
            });
            pass
        }
        Workload::FleetTwins => {
            let mut pass = ReplayPass::empty(0);
            let mut db = engine(prep, observer);
            let span = tracer.begin(SpanKind::Session, "replay_multi_session", 0);
            let t = Instant::now();
            let out =
                replay_multi_session(&mut db, &prep.traces, &MultiSessionConfig::speculative());
            pass.wall_s = t.elapsed().as_secs_f64();
            span.finish(0);
            pass.plan_cache = plan_cache_delta(&prep.base, &db);
            match out {
                Ok(out) => {
                    let sum = |f: fn(&ReplayOutcome) -> u64| out.per_session.iter().map(f).sum();
                    pass.serve = ServeCounts {
                        admitted: out.admitted,
                        denied: out.denied,
                        preempted: out.preempted,
                        shared_hits: out.shared_hits,
                        deduped: out.deduped,
                        collected: sum(|o| o.collected),
                        artifact_uses: out.artifact_uses,
                        builds_issued: sum(|o| o.issued),
                        builds_completed: sum(|o| o.completed),
                    };
                    pass.outcomes = out.per_session;
                }
                Err(e) => {
                    eprintln!("perfbench: fleet replay failed: {e}");
                    pass.outcomes = vec![ReplayOutcome::default(); prep.traces.len()];
                }
            }
            pass
        }
        Workload::WirePair => unreachable!("wire_pair is not a replay workload"),
    }
}
