//! Decision-loop latency: how fast can the speculator re-decide after
//! each edit of an evolving partial query?
//!
//! The paper's speculation loop runs `decide()` on *every* edit, so its
//! latency bounds how large a manipulation space (and how small a think
//! gap) the system can afford. This bench drives a recorded TPC-H edit
//! session through the loop twice — with the engine's plan cache on and
//! with it off — and reports per-edit decide() wall-clock plus
//! end-to-end replay throughput for each arm, verifying along the way
//! that the two arms produce identical decisions and replay outcomes
//! (the plan cache must be pure memoization).
//!
//! Results land in `BENCH_decision_loop.json` at the repository root;
//! the criterion-style stderr lines participate in `--save-baseline` /
//! `--baseline` regression tracking. Set `SPECDB_BENCH_SMOKE=1` for a
//! seconds-scale smoke run, which writes `target/BENCH_decision_loop.json`
//! instead so the checked-in full-scale copy stays as it is.

use criterion::{black_box, Criterion};
use specdb_bench::BenchEnv;
use specdb_core::{Manipulation, Speculator, UniformProfile};
use specdb_exec::Database;
use specdb_query::{PartialQuery, QueryGraph};
use specdb_sim::replay::{replay_trace, ReplayConfig, ReplayOutcome};
use specdb_sim::{build_base_db, DatasetSpec};
use specdb_storage::VirtualTime;
use specdb_trace::Trace;
use std::time::Instant;

/// Snapshot of a decision (the fields `decide()` is judged on).
#[derive(PartialEq, Debug)]
struct DecisionKey {
    manipulation: Manipulation,
    score_bits: u64,
    build: VirtualTime,
}

/// Per-edit partial-query snapshots for the first `min_edits`+ non-GO
/// edits of the trace (each one is a decision point).
fn decision_points(trace: &Trace, min_edits: usize) -> Vec<QueryGraph> {
    let mut pq = PartialQuery::new();
    let mut points = Vec::new();
    for te in &trace.edits {
        let is_go = pq.apply(&te.op);
        if !is_go {
            points.push(pq.graph().clone());
            if points.len() >= min_edits {
                break;
            }
        }
    }
    points
}

/// One full sweep of `decide()` over the session's decision points.
fn sweep(spec: &Speculator, points: &[QueryGraph], db: &Database) -> Vec<DecisionKey> {
    let profile = UniformProfile { p: 0.9, think_mean_secs: 120.0 };
    points
        .iter()
        .map(|g| {
            let d = spec.decide(g, db, &profile, VirtualTime::ZERO);
            DecisionKey {
                manipulation: d.manipulation,
                score_bits: d.score.to_bits(),
                build: d.build,
            }
        })
        .collect()
}

/// An arm of the comparison: a database with the plan cache on or off,
/// and a default speculator.
fn arm(base: &Database, cached: bool) -> (Database, Speculator) {
    let mut db = base.clone();
    db.set_plan_cache(cached);
    (db, Speculator::default())
}

/// Per-edit decide() wall times over `passes` sweeps, in microseconds —
/// one sample per (pass, edit), so the artifact can report exact
/// p50/p95/p99 alongside the mean.
fn time_decides(base: &Database, points: &[QueryGraph], cached: bool, passes: usize) -> Vec<f64> {
    let (db, spec) = arm(base, cached);
    let profile = UniformProfile { p: 0.9, think_mean_secs: 120.0 };
    let mut samples = Vec::with_capacity(passes * points.len());
    for _ in 0..passes {
        for g in points {
            let start = Instant::now();
            black_box(spec.decide(g, &db, &profile, VirtualTime::ZERO));
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    samples
}

/// Wall-clock seconds for a full speculative replay of the trace.
fn time_replay(base: &Database, trace: &Trace, cached: bool) -> (f64, ReplayOutcome) {
    let mut db = base.clone();
    db.set_plan_cache(cached);
    let start = Instant::now();
    let outcome = replay_trace(&mut db, trace, &ReplayConfig::speculative()).expect("replay");
    (start.elapsed().as_secs_f64(), outcome)
}

fn main() {
    let smoke = std::env::var("SPECDB_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    let env = BenchEnv::from_env();
    let spec_ds =
        if smoke { DatasetSpec::tiny() } else { DatasetSpec::paper_trio(env.divisor).remove(0) };
    let passes = if smoke { 3 } else { 30 };
    let min_edits = 20;

    eprintln!(
        "decision_loop: dataset {} ({} MB), {} passes{}",
        spec_ds.label,
        spec_ds.actual_mb(),
        passes,
        if smoke { " [smoke]" } else { "" }
    );
    let base = build_base_db(&spec_ds).expect("base db");
    let trace = env.cohort().remove(0);
    let points = decision_points(&trace, min_edits);
    assert!(
        points.len() >= min_edits,
        "trace too short: {} decision points (need {min_edits})",
        points.len()
    );

    // The plan cache must be pure memoization: identical decisions
    // either way.
    let (db_c, spec_c) = arm(&base, true);
    let (db_u, spec_u) = arm(&base, false);
    let cached_decisions = sweep(&spec_c, &points, &db_c);
    let uncached_decisions = sweep(&spec_u, &points, &db_u);
    let decisions_identical = cached_decisions == uncached_decisions;
    assert!(decisions_identical, "caching changed decisions");

    // Criterion lines (participate in --save-baseline / --baseline).
    let mut c = Criterion::default().sample_size(if smoke { 2 } else { 10 });
    {
        let (db, spec) = arm(&base, true);
        c.bench_function("decision_loop/session_cached", |b| b.iter(|| sweep(&spec, &points, &db)));
    }
    {
        let (db, spec) = arm(&base, false);
        c.bench_function("decision_loop/session_uncached", |b| {
            b.iter(|| sweep(&spec, &points, &db))
        });
    }

    // Headline numbers: per-edit decide latency samples per arm.
    let cached_samples = time_decides(&base, &points, true, passes);
    let uncached_samples = time_decides(&base, &points, false, passes);
    let cached_us = specdb_bench::mean(&cached_samples);
    let uncached_us = specdb_bench::mean(&uncached_samples);
    let decide_speedup = uncached_us / cached_us.max(1e-9);

    // End-to-end replay throughput, plus bit-identity of the outcome.
    let (cached_secs, out_c) = time_replay(&base, &trace, true);
    let (uncached_secs, out_u) = time_replay(&base, &trace, false);
    let replay_identical = out_c == out_u;
    assert!(replay_identical, "caching changed replay outcome");
    let queries = trace.query_count();
    let replay_speedup = uncached_secs / cached_secs.max(1e-9);

    println!();
    println!(
        "per-edit decide: cached {cached_us:.1} us (p50 {:.1} p95 {:.1} p99 {:.1}), \
         uncached {uncached_us:.1} us (p50 {:.1} p95 {:.1} p99 {:.1}) \
         ({decide_speedup:.2}x), {} edits x {passes} passes",
        specdb_bench::quantile(&cached_samples, 0.50),
        specdb_bench::quantile(&cached_samples, 0.95),
        specdb_bench::quantile(&cached_samples, 0.99),
        specdb_bench::quantile(&uncached_samples, 0.50),
        specdb_bench::quantile(&uncached_samples, 0.95),
        specdb_bench::quantile(&uncached_samples, 0.99),
        points.len()
    );
    println!(
        "replay ({queries} queries): cached {cached_secs:.3} s, uncached {uncached_secs:.3} s \
         ({replay_speedup:.2}x), outcomes identical: {replay_identical}"
    );

    let json = format!(
        "{{\n  \"bench\": \"decision_loop\",\n  \"smoke\": {smoke},\n  \
         \"dataset\": \"{}\",\n  \"dataset_mb\": {},\n  \"edits\": {},\n  \"passes\": {passes},\n  \
         \"decide_us_per_edit\": {{ \"cached\": {cached_us:.3}, \"uncached\": {uncached_us:.3} }},\n  \
         \"decide_us_quantiles\": {{ \"cached\": {}, \"uncached\": {} }},\n  \
         \"decide_speedup\": {decide_speedup:.3},\n  \"decisions_identical\": {decisions_identical},\n  \
         \"replay\": {{ \"queries\": {queries}, \"cached_secs\": {cached_secs:.4}, \
         \"uncached_secs\": {uncached_secs:.4}, \"speedup\": {replay_speedup:.3}, \
         \"identical\": {replay_identical} }}\n}}\n",
        spec_ds.label,
        spec_ds.actual_mb(),
        points.len(),
        specdb_bench::quantiles_json(&cached_samples),
        specdb_bench::quantiles_json(&uncached_samples),
    );
    specdb_bench::write_artifact("BENCH_decision_loop.json", smoke, &json);
}
