//! Whole-query prediction: GO latency with the edit predictor on vs
//! off, on a think-time-heavy exploration where prediction has room to
//! pay off.
//!
//! Long formulations (median ~30 s of think time) give the speculator
//! time to pre-execute top-k predicted completed queries; on GO, exact
//! hits serve instantly and near-misses are salvaged through
//! subsumption rewriting (`MatchMode::Subsume`). Both arms replay the
//! identical traces on the identical database, differing only in the
//! `predict` knob.
//!
//! Reported: p50/p95 GO latency (virtual seconds) per arm, the on/off
//! p50 ratio, exact-prediction and salvage hit rates, and the
//! prediction waste ratio, plus a held-out predictor accuracy section
//! over a train/held-out corpus split. Results land in
//! `BENCH_prediction.json` at the repository root; set
//! `SPECDB_BENCH_SMOKE=1` for a seconds-scale smoke run. The JSON's
//! `dataset` is the paper's nominal label: the data actually generated
//! is `nominal_mb / divisor` (`dataset_mb`).

use specdb_bench::{quantile, quantiles_json};
use specdb_core::{Learner, LearnerConfig};
use specdb_exec::{Database, MatchMode};
use specdb_query::{canonical_key, EditOp, PartialQuery};
use specdb_sim::replay::{replay_trace, ReplayConfig};
use specdb_sim::{build_base_db, DatasetSpec};
use specdb_trace::{SplitSummary, Trace, UserModel, UserModelConfig};
use std::time::Instant;

/// Think-time-heavy exploration: the paper's user shape slowed down to
/// a 30 s median formulation, pursuing a single exploration question —
/// the regime where edit sequences repeat enough for the n-gram
/// predictor to anticipate whole queries.
fn think_heavy_model(queries: usize) -> UserModel {
    let cfg =
        UserModelConfig { queries, questions: 1, think_median_secs: 30.0, ..Default::default() };
    UserModel::new(cfg, specdb_tpch::ExploreDomain::tpch())
}

#[derive(Default)]
struct Arm {
    go_latency: Vec<f64>,
    issued: u64,
    predicted_issued: u64,
    predicted_hits: u64,
    salvaged_hits: u64,
    predicted_wasted: u64,
    wall_secs: f64,
}

fn run_arm(base: &Database, traces: &[Trace], predict: bool) -> Arm {
    let mut cfg = ReplayConfig::speculative();
    // Back-to-back pipelining keeps the server busy through the long
    // think gaps — the setting where whole-query pre-execution can
    // follow the one-step manipulation it extends.
    cfg.pipeline = true;
    cfg.speculator.predict = predict;
    cfg.speculator.predict_topk = 3;
    let start = Instant::now();
    let mut arm = Arm::default();
    for trace in traces {
        let mut db = base.clone();
        db.set_match_mode(MatchMode::Subsume);
        let out = replay_trace(&mut db, trace, &cfg).expect("replay");
        arm.go_latency.extend(out.queries.iter().map(|q| q.elapsed.as_secs_f64()));
        arm.issued += out.issued;
        arm.predicted_issued += out.predicted_issued;
        arm.predicted_hits += out.predicted_hits;
        arm.salvaged_hits += out.salvaged_hits;
        arm.predicted_wasted += out.predicted_wasted;
    }
    arm.wall_secs = start.elapsed().as_secs_f64();
    arm
}

/// Held-out top-k hit rate of the standalone predictor (no database):
/// at the instant before each GO, is the final query's canonical key in
/// the top-k predicted completions?
fn held_out_accuracy(model: &UserModel, train: usize, held_out: usize, k: usize) -> (f64, usize) {
    let split = model.generate_split(train, held_out, 60123);
    let mut learner = Learner::new(LearnerConfig::default());
    for t in &split.train {
        for f in t.formulations() {
            let ops: Vec<EditOp> = f.edits.iter().map(|te| te.op.clone()).collect();
            learner.train_predictor(&ops);
        }
    }
    let (mut hits, mut total) = (0usize, 0usize);
    for t in &split.held_out {
        let mut pq = PartialQuery::new();
        let mut hist: Vec<EditOp> = Vec::new();
        for te in &t.edits {
            if te.op.is_go() {
                let final_key = canonical_key(pq.graph());
                total += 1;
                let preds = learner.predictor().predict(&hist, pq.graph(), k);
                if preds.iter().any(|(g, _)| canonical_key(g) == final_key) {
                    hits += 1;
                }
                hist.clear();
            } else {
                hist.push(te.op.clone());
            }
            pq.apply(&te.op);
        }
    }
    eprintln!("prediction: {}", SplitSummary::of(&split).render());
    (hits as f64 / total.max(1) as f64, total)
}

fn write_json(path: &std::path::Path, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("prediction: cannot write {}: {e}", path.display());
    } else {
        eprintln!("prediction: wrote {}", path.display());
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
    // The predictor trains online within each trace, so formulations per
    // user must clear its cold start (~15 GOs before predictions fire)
    // with enough warm GOs left to move the median.
    let (queries, users) = if smoke { (60, 2) } else { (60, 5) };
    let model = think_heavy_model(queries);
    let traces: Vec<Trace> =
        (0..users).map(|i| model.generate(&format!("p{i}"), 7000 + i as u64)).collect();

    eprintln!(
        "prediction: dataset {} ({} MB), {} users x {} queries, think-heavy{}",
        spec_ds.label,
        spec_ds.actual_mb(),
        users,
        queries,
        if smoke { " [smoke]" } else { "" }
    );
    let base = build_base_db(&spec_ds).expect("base db");

    let off = run_arm(&base, &traces, false);
    let on = run_arm(&base, &traces, true);

    let p50_off = quantile(&off.go_latency, 0.50);
    let p50_on = quantile(&on.go_latency, 0.50);
    let ratio = if p50_off > 0.0 { p50_on / p50_off } else { f64::NAN };
    let gos = on.go_latency.len() as f64;
    let exact_rate = on.predicted_hits as f64 / gos;
    let salvage_rate = on.salvaged_hits as f64 / gos;
    let waste = if on.predicted_issued > 0 {
        on.predicted_wasted as f64 / on.predicted_issued as f64
    } else {
        0.0
    };
    let (top3, held_out_gos) = held_out_accuracy(&model, 8, 2, 3);

    for (label, arm) in [("predict=0", &off), ("predict=1", &on)] {
        println!(
            "{label}  GO p50 {:.3}s p95 {:.3}s | issued {} predicted {} | {:.1}s wall",
            quantile(&arm.go_latency, 0.50),
            quantile(&arm.go_latency, 0.95),
            arm.issued,
            arm.predicted_issued,
            arm.wall_secs,
        );
    }
    println!(
        "p50 ratio {ratio:.3} | exact hits {} ({:.1}%) salvaged {} ({:.1}%) | \
         waste {:.1}% | held-out top-3 {:.1}% over {held_out_gos} GOs",
        on.predicted_hits,
        exact_rate * 100.0,
        on.salvaged_hits,
        salvage_rate * 100.0,
        waste * 100.0,
        top3 * 100.0,
    );

    assert!(
        on.predicted_hits + on.salvaged_hits > 0,
        "prediction must land exact or salvaged hits (gate)"
    );
    assert!(
        ratio <= 0.7,
        "predict=1 p50 GO latency must be <= 0.7x the predict=0 baseline, got {ratio:.3}"
    );

    let arm_json = |arm: &Arm| {
        format!(
            "{{ \"go_latency_secs\": {}, \"queries\": {}, \"issued\": {}, \
             \"predicted_issued\": {}, \"predicted_hits\": {}, \"salvaged_hits\": {}, \
             \"predicted_wasted\": {}, \"wall_secs\": {:.2} }}",
            quantiles_json(&arm.go_latency),
            arm.go_latency.len(),
            arm.issued,
            arm.predicted_issued,
            arm.predicted_hits,
            arm.salvaged_hits,
            arm.predicted_wasted,
            arm.wall_secs,
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"prediction\",\n  \"smoke\": {smoke},\n  \"dataset\": \"{}\",\n  \
         \"nominal_mb\": {},\n  \"divisor\": {},\n  \"dataset_mb\": {},\n  \"users\": {users},\n  \"queries_per_user\": {queries},\n  \
         \"predict_off\": {},\n  \"predict_on\": {},\n  \"p50_ratio\": {ratio:.4},\n  \
         \"exact_hit_rate\": {exact_rate:.4},\n  \"salvage_hit_rate\": {salvage_rate:.4},\n  \
         \"prediction_waste_ratio\": {waste:.4},\n  \"held_out_top3\": {top3:.4}\n}}\n",
        spec_ds.label,
        spec_ds.nominal_mb,
        spec_ds.divisor,
        spec_ds.actual_mb(),
        arm_json(&off),
        arm_json(&on),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_prediction.json");
    write_json(&path, &json);
}
