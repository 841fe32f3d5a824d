//! Plan-cache invalidation: a cached plan or estimate must be dropped
//! and re-derived after every catalog-shape change — index and histogram
//! creation/drop, materialization, and data loads — so cached planning
//! can never serve stale answers.

use specdb::exec::{CancelToken, Database, DatabaseConfig};
use specdb::query::{CompareOp, Join, Predicate, Query, QueryGraph, Selection};
use specdb::storage::Tuple;
use specdb::storage::Value;
use specdb::tpch::{generate_into, TpchConfig};

/// TPC-H subset *without* auxiliary indexes/histograms, so the DDL each
/// test issues is the first of its kind and genuinely changes the
/// catalog (`build_base_db` pre-builds aux structures on every skewed
/// column, which would make `create_histogram` etc. no-ops here).
fn db() -> Database {
    let mut db = Database::new(DatabaseConfig::with_buffer_pages(2048));
    generate_into(&mut db, &TpchConfig::new(2).build_aux(false)).unwrap();
    db
}

fn partial() -> QueryGraph {
    let mut g = QueryGraph::new();
    g.add_join(Join::new("orders", "o_custkey", "customer", "c_custkey"));
    g.add_selection(Selection::new(
        "customer",
        Predicate::new("c_nation", CompareOp::Eq, "FRANCE"),
    ));
    g.add_selection(Selection::new(
        "orders",
        Predicate::new("o_orderpriority", CompareOp::Le, 2i64),
    ));
    g
}

/// Warm the estimate cache for the partial query and return the cached
/// estimate (hits confirmed via the stats counters).
fn warm(db: &specdb::exec::Database, q: &Query) -> specdb::storage::VirtualTime {
    let first = db.estimate_query_time(q).unwrap();
    let misses = db.plan_cache_stats().misses;
    let second = db.estimate_query_time(q).unwrap();
    assert_eq!(first, second);
    assert_eq!(db.plan_cache_stats().misses, misses, "second estimate must be a cache hit");
    first
}

#[test]
fn index_create_and_drop_invalidate_cached_estimates() {
    let mut db = db();
    let q = Query::star(partial());
    let before = warm(&db, &q);
    let epoch = db.ddl_epoch();

    db.create_index("customer", "c_custkey").unwrap();
    assert_eq!(db.ddl_epoch(), epoch + 1);
    // The optimizer may or may not pick the index on a tiny table, but
    // the estimate must be *re-derived* against the new catalog rather
    // than served from the pre-DDL cache.
    let misses = db.plan_cache_stats().misses;
    let _ = db.estimate_query_time(&q).unwrap();
    assert!(
        db.plan_cache_stats().misses > misses,
        "post-create_index estimate must miss the cache and re-derive"
    );

    db.drop_index("customer", "c_custkey");
    assert_eq!(db.ddl_epoch(), epoch + 2);
    let misses = db.plan_cache_stats().misses;
    assert_eq!(db.estimate_query_time(&q).unwrap(), before, "dropping must restore the estimate");
    assert!(
        db.plan_cache_stats().misses > misses,
        "post-drop_index estimate must miss the cache and re-derive"
    );

    // Dropping a non-existent index is a no-op and must NOT invalidate.
    let invalidations = db.plan_cache_stats().invalidations;
    db.drop_index("customer", "c_custkey");
    assert_eq!(db.ddl_epoch(), epoch + 2);
    assert_eq!(db.plan_cache_stats().invalidations, invalidations);
}

#[test]
fn histogram_create_invalidates_cached_estimates() {
    let mut db = db();
    // A join query: the histogram shifts the selectivity of the orders
    // predicate, which changes the orders-side output cardinality feeding
    // the hash join's CPU cost. (A single-table scan would not do: its
    // cost is pages + cpu(input rows), independent of output selectivity.)
    let q = Query::star(partial());
    let before = warm(&db, &q);
    db.create_histogram("orders", "o_orderpriority").unwrap();
    let after = db.estimate_query_time(&q).unwrap();
    // The histogram changes the selectivity estimate for the predicate;
    // equality would mean the cache served the pre-histogram answer.
    assert_ne!(before, after, "histogram must be visible to post-DDL estimates");
    db.drop_histogram("orders", "o_orderpriority");
    assert_eq!(db.estimate_query_time(&q).unwrap(), before);
}

#[test]
fn materialize_invalidates_cached_plans_and_estimates() {
    let mut db = db();
    let q = Query::star(partial());
    let before = warm(&db, &q);
    let out_before = db.execute_discard(&q).unwrap();
    assert!(out_before.used_views.is_empty());

    let sub =
        partial().selection_subgraph(partial().selections().find(|s| s.rel == "customer").unwrap());
    let mat = db.materialize(&sub, CancelToken::new()).unwrap();

    // Both the estimate and the executed plan must now see the view.
    let after = db.estimate_query_time(&q).unwrap();
    assert_ne!(before, after, "estimate must re-derive against the view");
    let out_after = db.execute_discard(&q).unwrap();
    assert_eq!(out_after.used_views, vec![mat.table.clone()]);
    assert_eq!(out_after.row_count, out_before.row_count);

    db.drop_materialized(&mat.table);
    assert_eq!(db.estimate_query_time(&q).unwrap(), before);
    assert!(db.execute_discard(&q).unwrap().used_views.is_empty());
}

#[test]
fn load_invalidates_cached_estimates() {
    let mut db = db();
    let mut g = QueryGraph::new();
    g.add_selection(Selection::new(
        "customer",
        Predicate::new("c_nation", CompareOp::Eq, "FRANCE"),
    ));
    let q = Query::star(g);
    let before = warm(&db, &q);
    let rows_before = db.execute_discard(&q).unwrap().row_count;
    // Append more FRANCE customers: stats re-analyze, estimates shift.
    // Column 2 is c_nation in the TPC-H subset schema; verify rather
    // than trust the fixture's hard-coded row shape.
    let nation_idx = db.catalog().table("customer").unwrap().schema.index_of("c_nation").unwrap();
    assert_eq!(nation_idx, 2, "test fixture assumes c_nation at position 2");
    let extra = (0..500i64).map(|i| {
        Tuple::new(vec![
            Value::Int(1_000_000 + i),
            Value::Str(format!("extra#{i}")),
            Value::Str("FRANCE".into()),
            Value::Str("BUILDING".into()),
            Value::Float(i as f64),
        ])
    });
    let epoch = db.ddl_epoch();
    db.load("customer", extra).unwrap();
    assert_eq!(db.ddl_epoch(), epoch + 1);
    let after = db.estimate_query_time(&q).unwrap();
    assert_ne!(before, after, "load must invalidate the cached estimate");
    assert_eq!(db.execute_discard(&q).unwrap().row_count, rows_before + 500);
}
