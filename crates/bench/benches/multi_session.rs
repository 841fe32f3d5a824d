//! Multi-session serving scale-out: p95 GO latency and cross-session
//! artifact reuse as the fleet grows.
//!
//! N concurrent sessions (N in {1, 8, 64}) replay against one shared
//! engine under the fleet governor (admission budget, priority by
//! benefit rate, preemption at morsel boundaries) with the shared
//! speculative-artifact cache enabled. Sessions arrive in look-alike
//! pairs — half the fleet converges on a twin's question — so
//! cross-session reuse has something to find, mirroring the "popular
//! dashboard query" serving workload.
//!
//! Reported per N: p50/p95/p99 GO latency (virtual seconds), shared
//! artifact hits, cross-session reuse rate, and governor admission
//! counters. Results land in `BENCH_multi_session.json` at the
//! repository root so EXPERIMENTS.md can quote them; set
//! `SPECDB_BENCH_SMOKE=1` for a seconds-scale smoke run.

use specdb_bench::{quantile, quantiles_json};
use specdb_exec::Database;
use specdb_serve::GovernorConfig;
use specdb_sim::{build_base_db, replay_multi_session, DatasetSpec, MultiSessionConfig};
use specdb_trace::{Trace, UserModel, UserModelConfig};
use std::time::Instant;

/// Fleet sizes the acceptance bar names: lone session, small fleet,
/// saturated fleet.
const FLEET_SIZES: [usize; 3] = [1, 8, 64];

/// Generate `n` traces in look-alike pairs: sessions 2k and 2k+1 share
/// a seed (identical exploration), so half the fleet re-asks a question
/// someone else is already speculating on.
fn fleet_traces(n: usize, queries: usize, base_seed: u64) -> Vec<Trace> {
    let cfg = UserModelConfig { queries, ..Default::default() };
    let model = UserModel::new(cfg, specdb_tpch::ExploreDomain::tpch());
    (0..n)
        .map(|i| model.generate(&format!("s{i}"), base_seed + (i / 2) as u64))
        .collect()
}

struct FleetRun {
    sessions: usize,
    go_latency: Vec<f64>,
    shared_hits: u64,
    artifact_uses: u64,
    reuse: f64,
    admitted: u64,
    denied: u64,
    preempted: u64,
    wall_secs: f64,
}

fn run_fleet(base: &Database, traces: &[Trace], config: &MultiSessionConfig) -> FleetRun {
    let mut db = base.clone();
    let start = Instant::now();
    let out = replay_multi_session(&mut db, traces, config).expect("multi-session replay");
    let wall_secs = start.elapsed().as_secs_f64();
    FleetRun {
        sessions: traces.len(),
        go_latency: out.go_latency_secs(),
        shared_hits: out.shared_hits,
        artifact_uses: out.artifact_uses,
        reuse: out.cross_session_reuse(),
        admitted: out.admitted,
        denied: out.denied,
        preempted: out.preempted,
        wall_secs,
    }
}

fn main() {
    let smoke = std::env::var("SPECDB_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    let spec_ds = if smoke {
        DatasetSpec::tiny()
    } else {
        DatasetSpec::paper_trio(
            std::env::var("SPECDB_DIVISOR").ok().and_then(|v| v.parse().ok()).unwrap_or(50),
        )
        .remove(0)
    };
    let queries = if smoke { 4 } else { 12 };
    let governor = GovernorConfig::default();

    eprintln!(
        "multi_session: dataset {} ({} MB), {} queries/session, budget {}, preempt {}{}",
        spec_ds.label,
        spec_ds.actual_mb(),
        queries,
        governor.max_outstanding,
        governor.preempt,
        if smoke { " [smoke]" } else { "" }
    );
    let base = build_base_db(&spec_ds).expect("base db");
    let config =
        MultiSessionConfig { governor: governor.clone(), ..MultiSessionConfig::speculative() };

    let mut runs = Vec::new();
    for &n in &FLEET_SIZES {
        eprintln!("multi_session: replaying fleet of {n}...");
        let traces = fleet_traces(n, queries, 9000);
        let run = run_fleet(&base, &traces, &config);
        println!(
            "N={:<3} GO p50 {:.3}s p95 {:.3}s p99 {:.3}s | shared hits {:>4} (reuse {:.1}%) | \
             admitted {} denied {} preempted {} | {:.1}s wall",
            run.sessions,
            quantile(&run.go_latency, 0.50),
            quantile(&run.go_latency, 0.95),
            quantile(&run.go_latency, 0.99),
            run.shared_hits,
            run.reuse * 100.0,
            run.admitted,
            run.denied,
            run.preempted,
            run.wall_secs,
        );
        if n >= 8 {
            assert!(
                run.shared_hits > 0,
                "a fleet of {n} look-alike pairs must produce cross-session shared hits"
            );
        }
        runs.push(run);
    }

    let fleets: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{ \"sessions\": {}, \"go_latency_secs\": {}, \"queries\": {}, \
                 \"shared_hits\": {}, \"artifact_uses\": {}, \"cross_session_reuse\": {:.4}, \
                 \"admitted\": {}, \"denied\": {}, \"preempted\": {}, \"wall_secs\": {:.2} }}",
                r.sessions,
                quantiles_json(&r.go_latency),
                r.go_latency.len(),
                r.shared_hits,
                r.artifact_uses,
                r.reuse,
                r.admitted,
                r.denied,
                r.preempted,
                r.wall_secs,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"multi_session\",\n  \"smoke\": {smoke},\n  \
         \"dataset\": \"{}\",\n  \"dataset_mb\": {},\n  \"queries_per_session\": {queries},\n  \
         \"governor\": {{ \"max_outstanding\": {}, \"preempt\": {} }},\n  \
         \"fleets\": [\n{}\n  ]\n}}\n",
        spec_ds.label,
        spec_ds.actual_mb(),
        governor.max_outstanding,
        governor.preempt,
        fleets.join(",\n"),
    );
    specdb_bench::write_artifact("BENCH_multi_session.json", false, &json);
}
