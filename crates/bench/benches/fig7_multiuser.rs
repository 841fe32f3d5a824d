//! Figure 7: speculation with three simultaneous users.
//!
//! Three traces replay concurrently against one shared engine with a
//! 96 MB buffer pool (the paper's scale-up for three users) and a
//! processor-sharing server (`replay_multi`). The speculator runs the paper's multi-user
//! enumeration strategy — materializations of selection predicates only
//! — to keep the extra load low. Improvement is measured against the
//! same three traces replayed concurrently *without* speculation.
//!
//! Expected shape: clear improvements at 100 MB and 500 MB, noticeably
//! smaller gains and some nontrivial penalties at 1 GB where the server
//! is already saturated.

use specdb_bench::BenchEnv;
use specdb_core::{SpaceConfig, SpeculatorConfig};
use specdb_sim::replay::ReplayConfig;
use specdb_sim::report::pair_runs;
use specdb_sim::report::{bucketize, improvement, render_rows};
use specdb_sim::{build_base_db, replay_multi};

fn main() {
    let env = BenchEnv::from_env();
    let trios: usize = std::env::var("SPECDB_TRIOS").ok().and_then(|v| v.parse().ok()).unwrap_or(2);
    let traces = env.cohort();
    println!(
        "figure 7: {} trios of 3 users x {} queries, divisor {}, 96MB pool",
        trios, env.queries, env.divisor
    );
    let spec_cfg = ReplayConfig {
        speculative: true,
        speculator: SpeculatorConfig { space: SpaceConfig::multi_user(), ..Default::default() },
        ..Default::default()
    };
    let normal_cfg = ReplayConfig { speculative: false, ..spec_cfg.clone() };
    for spec in env.specs() {
        let spec = spec.multi_user();
        eprintln!("[{}] generating base database...", spec.label);
        let base = build_base_db(&spec).expect("base db");
        let mut pairs = Vec::new();
        let (mut issued, mut used, mut wasted, mut shared_hits) = (0, 0, 0, 0);
        for trio in 0..trios {
            let start = (trio * 3) % traces.len().max(1);
            let group: Vec<_> =
                (0..3).map(|i| traces[(start + i) % traces.len()].clone()).collect();
            eprintln!("[{}] trio {trio}: normal concurrent replay...", spec.label);
            let mut db_n = base.clone();
            let normal = replay_multi(&mut db_n, &group, &normal_cfg).expect("normal multi");
            drop(db_n);
            eprintln!("[{}] trio {trio}: speculative concurrent replay...", spec.label);
            let mut db_s = base.clone();
            let specr = replay_multi(&mut db_s, &group, &spec_cfg).expect("spec multi");
            drop(db_s);
            for (n, s) in normal.per_session.iter().zip(&specr.per_session) {
                pairs.extend(pair_runs(&n.queries, &s.queries).expect("aligned replays"));
                issued += s.issued;
                used += s.used;
                wasted += s.wasted;
            }
            shared_hits += specr.shared_hits;
        }
        // The paper re-ranges Figure 7's x-axes for the contended runs:
        // 1-10 s (100 MB), 0-100 s (500 MB), 10-160 s (1 GB).
        let (lo, hi, step) = match spec.label {
            "100MB" => (1.0, 10.0, 1.0),
            "500MB" => (0.0, 100.0, 10.0),
            _ => (10.0, 160.0, 15.0),
        };
        let min_count = if pairs.len() >= 200 { 5 } else { 2 };
        let rows = bucketize(&pairs, lo, hi, step, min_count);
        println!();
        print!(
            "{}",
            render_rows(
                &format!("Figure 7: three simultaneous users, {} dataset", spec.label),
                &rows,
                true,
            )
        );
        println!("   overall: {:+.1}% over {} queries", improvement(&pairs) * 100.0, pairs.len());
        println!(
            "   speculation: {issued} issued, {used} used, {wasted} wasted, \
             {shared_hits} shared hits"
        );
    }
}
