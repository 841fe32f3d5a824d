//! Executor throughput: row-at-a-time vs columnar.
//!
//! The columnar pipeline (`specdb_exec::batch`) forwards cached column
//! segments zero-copy, filters build selection vectors, projection is
//! column pointer selection, and index-nested-loop joins probe
//! batch-at-a-time. This bench runs a memory-resident TPC-H workload
//! (scans, joins, aggregates) through both [`ExecMode`]s plus a third
//! arm running the columnar pipeline with four morsel workers
//! (`Database::set_threads(4)`) — the columnar arms with every table's
//! segments pinned — verifying along the way that rows and
//! virtual-time accounting are bit-identical across modes and thread
//! counts (both wall-clock optimizations only). The artifact also
//! records the number of pages zone maps let the scans skip.
//!
//! Results land in `BENCH_executor.json` at the repository root so CI
//! can archive them; the criterion-style stderr lines participate in
//! `--save-baseline` / `--baseline` regression tracking. Set
//! `SPECDB_BENCH_SMOKE=1` for a seconds-scale smoke run — in smoke mode
//! the process exits non-zero if the columnar path is slower than the
//! row baseline, which is the CI regression gate.

use criterion::{black_box, Criterion};
use specdb_bench::BenchEnv;
use specdb_exec::{Database, ExecMode};
use specdb_query::{parse_sql, Query};
use specdb_sim::{build_base_db, DatasetSpec};
use specdb_storage::ResourceDemand;
use std::time::Instant;

/// The measured workload: decode-heavy scans, two hash joins (the last
/// one fan-out), and grouped aggregates over the TPC-H subset. The
/// first and third queries are projection-narrow (the columnar layout's
/// best case: two of eight and one of nine columns survive the scan).
const WORKLOAD: &[&str] = &[
    "SELECT c_name, c_acctbal FROM customer WHERE c_nation = 'FRANCE'",
    "SELECT * FROM customer WHERE c_acctbal >= 9500",
    "SELECT o_totalprice FROM orders WHERE o_orderpriority = 1",
    "SELECT count(*), avg(o_totalprice), max(o_totalprice) FROM orders \
     WHERE o_orderpriority = 1",
    "SELECT customer.c_name, orders.o_totalprice FROM customer, orders \
     WHERE orders.o_custkey = customer.c_custkey AND c_nation = 'FRANCE' \
     AND o_orderpriority <= 2",
    // Clustered-predicate scan: c_custkey is loaded in key order, so the
    // zone maps of every page past the first prove `< 100` matches
    // nothing — the page-skip fast path (PR 7) in its best case.
    "SELECT c_name FROM customer WHERE c_custkey < 100",
    // Fan-out hash join: a weak customer filter builds most customers
    // and every order probes, returning several times the build side's
    // rows — the late-materialized probe's best case.
    "SELECT customer.c_name, orders.o_totalprice FROM customer, orders \
     WHERE orders.o_custkey = customer.c_custkey AND c_acctbal > 0",
];

fn workload(db: &Database) -> Vec<Query> {
    WORKLOAD
        .iter()
        .map(|sql| parse_sql(db, sql).unwrap_or_else(|e| panic!("{sql}: {e:?}")))
        .collect()
}

/// Run every workload query, returning total rows and summed demand
/// (compared across arms to assert the modes behave identically).
fn run_workload(db: &mut Database, qs: &[Query]) -> (u64, ResourceDemand) {
    let mut rows = 0u64;
    let mut demand = ResourceDemand::default();
    for q in qs {
        let out = db.execute_discard(q).expect("execute");
        rows += out.row_count;
        demand = demand.plus(&out.demand);
    }
    (rows, demand)
}

/// Mean wall-clock microseconds per workload query over `passes` passes.
fn time_arm(db: &mut Database, qs: &[Query], passes: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..passes {
        black_box(run_workload(db, qs));
    }
    start.elapsed().as_secs_f64() * 1e6 / (passes * qs.len()) as f64
}

/// Per-query wall times over `passes` passes, in microseconds — one
/// sample per (pass, query), for exact p50/p95/p99 in the artifact.
fn sample_arm(db: &mut Database, qs: &[Query], passes: usize) -> Vec<f64> {
    let mut samples = Vec::with_capacity(passes * qs.len());
    for _ in 0..passes {
        for q in qs {
            let start = Instant::now();
            black_box(run_workload(db, std::slice::from_ref(q)));
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    samples
}

fn write_json(path: &std::path::Path, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("executor: cannot write {}: {e}", path.display());
    } else {
        eprintln!("executor: wrote {}", path.display());
    }
}

/// The two measured pipelines: the row oracle and the columnar default.
const MODES: [ExecMode; 2] = [ExecMode::Row, ExecMode::Columnar];

fn main() {
    let smoke = std::env::var("SPECDB_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    let env = BenchEnv::from_env();
    let spec_ds =
        if smoke { DatasetSpec::tiny() } else { DatasetSpec::paper_trio(env.divisor).remove(0) };
    let passes = if smoke { 10 } else { 50 };

    eprintln!(
        "executor: dataset {} ({} MB), {} passes{}",
        spec_ds.label,
        spec_ds.actual_mb(),
        passes,
        if smoke { " [smoke]" } else { "" }
    );
    let base = build_base_db(&spec_ds).expect("base db");
    // One arm per mode. The memory-resident fast path under test: pin
    // every table's decoded column segments for the columnar arm
    // (materialized speculation results get this automatically from
    // `Database::materialize`); the row path never reads the cache.
    let mut arms: Vec<Database> = MODES
        .iter()
        .map(|&mode| {
            let mut db = base.clone();
            db.set_exec_mode(mode);
            if mode != ExecMode::Row {
                for t in specdb_tpch::TPCH_TABLES {
                    db.cache_table_segments(t).expect("cache segments");
                }
            }
            db
        })
        .collect();
    // Third arm: the columnar pipeline with four morsel workers
    // (bit-identical to serial columnar by contract; wall-clock only).
    {
        let mut db = arms.last().expect("columnar arm").clone();
        db.set_threads(4);
        arms.push(db);
    }
    let qs = workload(&base);

    // Warm every arm (buffer pool + segment cache) and hold them to the
    // equivalence contract: same rows, same virtual-time accounting.
    let warm: Vec<(u64, ResourceDemand)> =
        arms.iter_mut().map(|db| run_workload(db, &qs)).collect();
    let identical = warm.iter().all(|w| *w == warm[0]);
    assert!(identical, "executor modes diverged: {warm:?}");
    let seg_pages = arms[1].pool().seg_resident();
    let fan_out = arms[1].execute_discard(qs.last().expect("fan-out query")).expect("execute");
    assert!(
        fan_out.plan.contains("HashJoin"),
        "fan-out query lost its hash join:\n{}",
        fan_out.plan
    );

    // Zone-map page skips over one workload pass, on a dedicated clone
    // of the columnar arm so the metrics observer never perturbs the
    // timed arms.
    let pages_skipped = {
        let mut db = arms[1].clone();
        db.set_observer(specdb_obs::Observer::enabled());
        run_workload(&mut db, &qs);
        db.observer().metrics().snapshot().counter("exec.pages_skipped")
    };

    // Criterion lines (participate in --save-baseline / --baseline).
    let labels: Vec<String> = MODES
        .iter()
        .map(|m| m.as_str().replace('-', "_"))
        .chain(["batch_columnar_par4".into()])
        .collect();
    let mut c = Criterion::default().sample_size(if smoke { 2 } else { 10 });
    for (db, label) in arms.iter_mut().zip(&labels) {
        c.bench_function(&format!("executor/workload_{label}"), |b| {
            b.iter(|| run_workload(db, &qs))
        });
    }

    // Headline numbers: mean per-query wall-clock per arm, plus raw
    // per-query samples for exact latency quantiles.
    let us: Vec<f64> = arms.iter_mut().map(|db| time_arm(db, &qs, passes)).collect();
    let arm_samples: Vec<Vec<f64>> =
        arms.iter_mut().map(|db| sample_arm(db, &qs, passes)).collect();
    let (row_us, columnar_us, par4_us) = (us[0], us[1], us[2]);
    let speedup = row_us / columnar_us.max(1e-9);
    let par4_speedup = columnar_us / par4_us.max(1e-9);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Per-query breakdown (stderr only; helps attribute regressions).
    for (qi, (q, sql)) in qs.iter().zip(WORKLOAD).enumerate() {
        let per: Vec<f64> = arms
            .iter_mut()
            .map(|db| time_arm(db, std::slice::from_ref(q), passes))
            .collect();
        eprintln!(
            "executor:   q{qi}: row {:7.1} | columnar {:7.1} | par4 {:7.1} us \
             ({:.2}x vs row)  {}",
            per[0],
            per[1],
            per[2],
            per[0] / per[1].max(1e-9),
            sql
        );
    }

    println!();
    println!(
        "executor ({} queries x {passes} passes, {seg_pages} segment-cached pages, \
         {cores} cores): row {row_us:.1} | columnar {columnar_us:.1} | \
         par4 {par4_us:.1} us/query ({speedup:.2}x vs row, \
         par4 {par4_speedup:.2}x vs columnar, {pages_skipped} pages skipped)",
        qs.len()
    );

    let json = format!(
        "{{\n  \"bench\": \"executor\",\n  \"smoke\": {smoke},\n  \
         \"dataset\": \"{}\",\n  \"dataset_mb\": {},\n  \"queries\": {},\n  \"passes\": {passes},\n  \
         \"seg_cached_pages\": {seg_pages},\n  \"host_cores\": {cores},\n  \
         \"us_per_query\": {{ \"row\": {row_us:.3}, \
         \"batch_columnar\": {columnar_us:.3}, \"batch_columnar_par4\": {par4_us:.3} }},\n  \
         \"us_per_query_quantiles\": {{ \"row\": {}, \
         \"batch_columnar\": {}, \"batch_columnar_par4\": {} }},\n  \
         \"speedup\": {speedup:.3},\n  \
         \"par4_speedup_vs_columnar\": {par4_speedup:.3},\n  \
         \"pages_skipped\": {pages_skipped},\n  \
         \"identical\": {identical}\n}}\n",
        spec_ds.label,
        spec_ds.actual_mb(),
        qs.len(),
        specdb_bench::quantiles_json(&arm_samples[0]),
        specdb_bench::quantiles_json(&arm_samples[1]),
        specdb_bench::quantiles_json(&arm_samples[2]),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_executor.json");
    write_json(&path, &json);

    // CI regression gate: on the smoke workload the columnar path must
    // not be slower than the row baseline.
    if smoke && speedup < 1.0 {
        eprintln!("executor: FAIL — columnar path slower than row path ({speedup:.2}x)");
        std::process::exit(1);
    }
    // Morsel-parallel gate: only meaningful with real cores to run on —
    // on a single-core host four workers time-slice one CPU and the arm
    // measures pure scheduling overhead (10% noise allowance — per-query
    // smoke timings are short).
    if smoke && cores >= 2 && par4_speedup < 0.9 {
        eprintln!(
            "executor: FAIL — parallel-4 slower than serial columnar \
             ({par4_speedup:.2}x on {cores} cores)"
        );
        std::process::exit(1);
    }
    if cores < 2 {
        eprintln!("executor: note — single-core host, parallel-4 gate skipped");
    }
}
