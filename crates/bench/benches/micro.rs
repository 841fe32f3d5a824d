//! Criterion micro-benchmarks for the substrate hot paths.
//!
//! These are not paper artefacts; they guard the performance of the
//! pieces every experiment leans on: page codec, buffer pool, histogram
//! estimation, graph algebra, optimizer planning, executor joins, and
//! the speculator's decision loop.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use specdb_catalog::Histogram;
use specdb_core::{Speculator, UniformProfile};
use specdb_exec::{Database, DatabaseConfig};
use specdb_query::{canonical_key, CompareOp, Join, Predicate, Query, QueryGraph, Selection};
use specdb_storage::{AccessKind, BufferPool, Page, PageId, Tuple, Value, VirtualTime};
use specdb_tpch::{generate_into, TpchConfig};

fn bench_page_codec(c: &mut Criterion) {
    let tuple = Tuple::new(vec![
        Value::Int(42),
        Value::Str("supplier-00042".into()),
        Value::Float(1234.56),
        Value::Int(7),
    ]);
    let encoded = tuple.encode();
    c.bench_function("tuple_encode", |b| b.iter(|| black_box(&tuple).encode()));
    c.bench_function("tuple_decode", |b| b.iter(|| Tuple::decode(black_box(&encoded)).unwrap()));
    c.bench_function("page_fill", |b| {
        b.iter(|| {
            let mut p = Page::new();
            while p.insert(black_box(&encoded)).unwrap().is_some() {}
            p.live_count()
        })
    });
}

fn bench_buffer_pool(c: &mut Criterion) {
    let mut pool = BufferPool::new(256);
    let f = pool.create_file();
    for i in 0..512u32 {
        let mut p = Page::new();
        p.insert(&[0u8; 64]).unwrap();
        pool.put_page(PageId::new(f, i), p).unwrap();
    }
    c.bench_function("buffer_hit", |b| {
        // Page 511 was written last and stays resident.
        b.iter(|| pool.read_page(PageId::new(f, 511), AccessKind::Random).unwrap())
    });
    c.bench_function("buffer_miss_evict", |b| {
        let mut i = 0u32;
        b.iter(|| {
            // Cycle over 2x capacity: every read misses and evicts.
            let page_no = (i * 97) % 512;
            i = i.wrapping_add(1);
            pool.read_page(PageId::new(f, page_no), AccessKind::Sequential).unwrap()
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    let values: Vec<Value> = (0..50_000).map(|i| Value::Int((i * 37) % 5000)).collect();
    c.bench_function("histogram_build_50k", |b| b.iter(|| Histogram::build(black_box(&values))));
    let h = Histogram::build(&values);
    c.bench_function("histogram_estimate", |b| {
        b.iter(|| h.fraction_lt(black_box(&Value::Int(2500))))
    });
}

fn figure2_graph() -> QueryGraph {
    let mut g = QueryGraph::new();
    g.add_join(Join::new("R", "a", "S", "a"));
    g.add_join(Join::new("S", "b", "W", "b"));
    g.add_selection(Selection::new("R", Predicate::new("c", CompareOp::Gt, 10i64)));
    g.add_selection(Selection::new("W", Predicate::new("d", CompareOp::Lt, 2000i64)));
    g
}

fn bench_graph_algebra(c: &mut Criterion) {
    let g = figure2_graph();
    let sub = g.selection_subgraph(g.selections().next().unwrap());
    c.bench_function("graph_containment", |b| b.iter(|| black_box(&g).contains(&sub)));
    c.bench_function("graph_union", |b| b.iter(|| black_box(&g).union(&sub)));
    c.bench_function("graph_canonical_key", |b| b.iter(|| canonical_key(black_box(&g))));
}

fn tpch_db() -> Database {
    let mut db = Database::new(DatabaseConfig::with_buffer_pages(2048));
    generate_into(&mut db, &TpchConfig::new(2)).unwrap();
    db
}

fn tpch_join_query() -> Query {
    let mut g = QueryGraph::new();
    g.add_join(Join::new("orders", "o_custkey", "customer", "c_custkey"));
    g.add_join(Join::new("lineitem", "l_orderkey", "orders", "o_orderkey"));
    g.add_selection(Selection::new(
        "customer",
        Predicate::new("c_nation", CompareOp::Eq, "FRANCE"),
    ));
    Query::star(g)
}

fn bench_optimizer_and_executor(c: &mut Criterion) {
    let mut db = tpch_db();
    let q = tpch_join_query();
    c.bench_function("optimizer_plan_3way", |b| {
        b.iter(|| db.estimate_query_time(black_box(&q)).unwrap())
    });
    c.bench_function("execute_3way_join", |b| {
        b.iter(|| db.execute_discard(black_box(&q)).unwrap().row_count)
    });
}

fn bench_observer_overhead(c: &mut Criterion) {
    // The same buffer-pool hot loop under each observability mode. The
    // disabled observer must be indistinguishable from the seed's
    // instrumentation-free pool; the enabled-metrics mode buys counters
    // for one relaxed atomic per access.
    let build_pool = || {
        let mut pool = BufferPool::new(256);
        let f = pool.create_file();
        for i in 0..512u32 {
            let mut p = Page::new();
            p.insert(&[0u8; 64]).unwrap();
            pool.put_page(PageId::new(f, i), p).unwrap();
        }
        (pool, f)
    };
    let (mut pool, f) = build_pool();
    c.bench_function("buffer_hit_obs_disabled", |b| {
        b.iter(|| pool.read_page(PageId::new(f, 511), AccessKind::Random).unwrap())
    });
    let (mut pool, f) = build_pool();
    pool.set_observer(specdb_obs::Observer::enabled());
    c.bench_function("buffer_hit_obs_metrics", |b| {
        b.iter(|| pool.read_page(PageId::new(f, 511), AccessKind::Random).unwrap())
    });
}

fn bench_speculator_decide(c: &mut Criterion) {
    let db = tpch_db();
    let speculator = Speculator::default();
    let profile = UniformProfile { p: 0.8, think_mean_secs: 28.0 };
    let partial = tpch_join_query().graph;
    c.bench_function("speculator_decide", |b| {
        b.iter(|| speculator.decide(black_box(&partial), &db, &profile, VirtualTime::ZERO))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets =
        bench_page_codec,
        bench_buffer_pool,
        bench_histogram,
        bench_graph_algebra,
        bench_optimizer_and_executor,
        bench_observer_overhead,
        bench_speculator_decide
}
criterion_main!(benches);
