//! Depth-n speculation ablation (paper Section 3.3 extension).
//!
//! The paper proves its cost model extends to sequences of future
//! queries: a materialization that persists is amortized across them.
//! This ablation replays the cohort with the extended cost model at
//! depths 1 (the base model), 2, 3, and 5, on the 100 MB dataset. With
//! the cohort's measured selection persistence ≈ 3 queries, deeper
//! speculation should value durable materializations more and win
//! slightly overall.

use specdb_bench::{run_paired, BenchEnv};
use specdb_core::{CostModelConfig, SpeculatorConfig};
use specdb_sim::build_base_db;
use specdb_sim::replay::ReplayConfig;

fn main() {
    let env = BenchEnv::from_env();
    let traces = env.cohort();
    let spec = env.specs().remove(0); // 100MB
    println!(
        "depth-n ablation: {} dataset, {} traces x {} queries, divisor {}",
        spec.label, env.users, env.queries, env.divisor
    );
    eprintln!("generating base database...");
    let base = build_base_db(&spec).expect("base db");
    println!();
    println!(
        "{:<8} {:>12} {:>8} {:>10} {:>10}",
        "depth", "improvement%", "issued", "completed", "collected"
    );
    for depth in [1usize, 2, 3, 5] {
        eprintln!("replaying depth {depth}...");
        let cfg = ReplayConfig {
            speculative: true,
            speculator: SpeculatorConfig { cost: CostModelConfig { depth }, ..Default::default() },
            ..Default::default()
        };
        let cohort = run_paired(&base, &traces, &ReplayConfig::normal(), &cfg);
        let collected: u64 = cohort.treatment.iter().map(|o| o.collected).sum();
        println!(
            "{:<8} {:>12.1} {:>8} {:>10} {:>10}",
            depth,
            cohort.improvement_pct(),
            cohort.issued(),
            cohort.completed(),
            collected
        );
    }
}
