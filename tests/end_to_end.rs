//! Cross-crate integration tests: the whole pipeline from SQL text to
//! speculative execution and the experiment harness.

use specdb::core::{SpaceConfig, SpeculatorConfig};
use specdb::exec::{CancelToken, Database, DatabaseConfig, ViewMode};
use specdb::prelude::*;
use specdb::query::{Join, Query};
use specdb::sim::replay::{replay_trace, ReplayConfig};
use specdb::sim::report::pair_runs;
use specdb::sim::{build_base_db, replay_multi, DatasetSpec};
use specdb::tpch::{generate_into, TpchConfig};
use specdb::trace::{UserModel, UserModelConfig};

fn tpch_db(mb: u64) -> Database {
    let mut db = Database::new(DatabaseConfig::with_buffer_pages(4096));
    generate_into(&mut db, &TpchConfig::new(mb)).expect("generate");
    db.clear_buffer();
    db
}

#[test]
fn sql_to_execution_over_tpch() {
    let mut db = tpch_db(2);
    let q = parse_sql(
        &db,
        "SELECT customer.c_name, orders.o_totalprice \
         FROM customer, orders \
         WHERE orders.o_custkey = customer.c_custkey AND c_nation = 'FRANCE' \
         AND o_orderpriority <= 2",
    )
    .expect("parse");
    let out = db.execute(&q).expect("execute");
    assert!(out.row_count > 0);
    assert!(out.rows.iter().all(|r| r.arity() == 2));
    // Cross-check against the unfiltered join count.
    let q_all = parse_sql(
        &db,
        "SELECT * FROM customer, orders WHERE orders.o_custkey = customer.c_custkey",
    )
    .unwrap();
    let all = db.execute_discard(&q_all).unwrap();
    assert!(out.row_count < all.row_count);
    assert_eq!(all.row_count, 2 * 2400, "every order joins exactly one customer");
}

#[test]
fn materialization_correctness_under_rewriting() {
    // For a grid of final queries, answers with and without a
    // speculatively materialized sub-query must agree exactly.
    let base = tpch_db(2);
    let mut sub = QueryGraph::new();
    sub.add_join(Join::new("orders", "o_custkey", "customer", "c_custkey"));
    sub.add_selection(Selection::new(
        "customer",
        Predicate::new("c_nation", CompareOp::Eq, "GERMANY"),
    ));
    for priority in 1..=5i64 {
        let mut g = sub.clone();
        g.add_selection(Selection::new(
            "orders",
            Predicate::new("o_orderpriority", CompareOp::Le, priority),
        ));
        let q = Query::star(g);
        let mut plain = base.clone();
        let expected = plain.execute_discard(&q).unwrap();
        let mut spec = base.clone();
        spec.materialize(&sub, CancelToken::new()).unwrap();
        let got = spec.execute_discard(&q).unwrap();
        assert!(!got.used_views.is_empty(), "forced mode must rewrite");
        assert_eq!(expected.row_count, got.row_count, "priority {priority}");
    }
}

#[test]
fn view_scans_are_priced_with_their_base_columns_statistics() {
    // A materialized `lineitem ⋈ orders` has no histograms of its own.
    // Its columns borrow the base histograms, so `o_orderpriority <= 1`
    // (the column minimum) is not estimated at zero rows on the view, and
    // the optimizer does not stack index nested-loop joins on its scan.
    let mut base = Database::new(DatabaseConfig::with_buffer_pages(128).spill_model(false));
    generate_into(&mut base, &TpchConfig::new(1).build_aux(true)).expect("generate");
    let mut g = QueryGraph::new();
    g.add_join(Join::new("lineitem", "l_orderkey", "orders", "o_orderkey"));
    g.add_join(Join::new("orders", "o_custkey", "customer", "c_custkey"));
    g.add_join(Join::new("lineitem", "l_partkey", "part", "p_partkey"));
    g.add_join(Join::new("lineitem", "l_suppkey", "supplier", "s_suppkey"));
    g.add_selection(Selection::new("lineitem", Predicate::new("l_quantity", CompareOp::Le, 36i64)));
    g.add_selection(Selection::new(
        "orders",
        Predicate::new("o_orderpriority", CompareOp::Le, 1i64),
    ));
    let q = Query::star(g.clone());
    let mut view = QueryGraph::new();
    view.add_join(Join::new("lineitem", "l_orderkey", "orders", "o_orderkey"));
    let mut spec = base.clone();
    spec.materialize(&view, CancelToken::new()).unwrap();
    // Prices the same rewrite and plan that `execute` runs.
    let est_rows = spec.estimate_materialization(&g).unwrap().rows;
    spec.clear_buffer();
    base.clear_buffer();
    let plain = base.execute_discard(&q).unwrap();
    let got = spec.execute_discard(&q).unwrap();
    assert_eq!(got.used_views.len(), 1, "the view must be used:\n{}", got.plan);
    assert_eq!(got.row_count, plain.row_count);
    assert!(
        got.elapsed <= plain.elapsed,
        "view {:?} slower than base {:?}:\n{}",
        got.elapsed,
        plain.elapsed,
        got.plan
    );
    let actual = got.row_count as f64;
    assert!(
        est_rows >= actual / 4.0 && est_rows <= actual * 4.0,
        "estimated {est_rows} rows, got {actual}:\n{}",
        got.plan
    );
}

#[test]
fn subsumption_salvage_matches_cold_execution() {
    use specdb::exec::MatchMode;
    // A near-miss prediction: the speculated query over-shoots the
    // user's final GO (missing one selection), so serving it requires
    // subsumption salvage — rewrite onto the superset view plus a
    // residual filter. The salvaged answer must be bit-identical to a
    // cold execution: same rows, same order, same count.
    let base = tpch_db(2);
    let mut predicted = QueryGraph::new();
    predicted.add_join(Join::new("orders", "o_custkey", "customer", "c_custkey"));
    predicted.add_selection(Selection::new(
        "customer",
        Predicate::new("c_nation", CompareOp::Eq, "GERMANY"),
    ));
    let mut go = predicted.clone();
    go.add_selection(Selection::new(
        "orders",
        Predicate::new("o_orderpriority", CompareOp::Le, 2i64),
    ));
    let q = Query::star(go);

    let mut cold = base.clone();
    let expected = cold.execute(&q).unwrap();
    assert!(expected.row_count > 0, "differential needs a non-empty answer");
    assert!(expected.used_views.is_empty(), "cold run must touch base tables only");

    let mut warm = base.clone();
    warm.set_observer(specdb::obs::Observer::enabled());
    warm.set_match_mode(MatchMode::Subsume);
    warm.materialize(&predicted, CancelToken::new()).unwrap();
    let got = warm.execute(&q).unwrap();
    assert!(!got.used_views.is_empty(), "subsumption must salvage the predicted view");
    assert_eq!(expected.row_count, got.row_count);
    assert_eq!(expected.rows, got.rows, "salvaged rows must match cold execution exactly");

    // The salvage path accounts its rewrite time.
    let rendered = warm.observer().metrics().snapshot().render();
    assert!(
        rendered.contains("lat.salvage_rewrite_us"),
        "salvage rewrite timing must be recorded:\n{rendered}"
    );
}

#[test]
fn cost_based_mode_never_worse_than_forced_estimates() {
    let mut db = tpch_db(2);
    db.set_view_mode(ViewMode::CostBased);
    let mut sub = QueryGraph::new();
    sub.add_selection(Selection::new(
        "lineitem",
        Predicate::new("l_quantity", CompareOp::Le, 45i64),
    ));
    db.materialize(&sub, CancelToken::new()).unwrap();
    // Highly selective final query: the base index should win over the
    // big unindexed view; cost-based mode is free to skip the view.
    let mut g = sub.clone();
    g.add_selection(Selection::new("lineitem", Predicate::new("l_orderkey", CompareOp::Eq, 3i64)));
    let q = Query::star(g);
    let cost_based = db.execute_discard(&q).unwrap();
    db.set_view_mode(ViewMode::Forced);
    let forced = db.execute_discard(&q).unwrap();
    assert_eq!(cost_based.row_count, forced.row_count);
    assert!(!forced.used_views.is_empty());
}

#[test]
fn query_from_figure2_runs() {
    // The paper's Figure 2 query shape over real TPC-H relations.
    let mut db = tpch_db(1);
    let q = parse_sql(
        &db,
        "SELECT * FROM lineitem, orders, customer \
         WHERE lineitem.l_orderkey = orders.o_orderkey \
         AND orders.o_custkey = customer.c_custkey \
         AND l_quantity > 10 AND c_acctbal < 2000.0",
    )
    .unwrap();
    let out = db.execute_discard(&q).unwrap();
    assert!(out.row_count > 0);
}

#[test]
fn replay_preserves_answers_and_wins_on_average() {
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let model = UserModel::new(
        UserModelConfig { queries: 15, questions: 3, ..Default::default() },
        specdb::tpch::ExploreDomain::tpch(),
    );
    let mut total_normal = 0.0;
    let mut total_spec = 0.0;
    for seed in [11u64, 22, 33] {
        let trace = model.generate("u", seed);
        let mut db_n = base.clone();
        let n = replay_trace(&mut db_n, &trace, &ReplayConfig::normal()).unwrap();
        let mut db_s = base.clone();
        let s = replay_trace(&mut db_s, &trace, &ReplayConfig::speculative()).unwrap();
        for (a, b) in n.queries.iter().zip(&s.queries) {
            assert_eq!(a.rows, b.rows, "answers must not change under speculation");
        }
        total_normal += n.total().as_secs_f64();
        total_spec += s.total().as_secs_f64();
        let pairs = pair_runs(&n.queries, &s.queries).expect("aligned replays");
        assert_eq!(pairs.len(), 15);
    }
    assert!(
        total_spec < total_normal,
        "speculation should help on average: {total_spec} vs {total_normal}"
    );
}

#[test]
fn multi_user_replay_preserves_answers() {
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let model = UserModel::new(
        UserModelConfig { queries: 8, questions: 2, ..Default::default() },
        specdb::tpch::ExploreDomain::tpch(),
    );
    let traces: Vec<_> = (0..3).map(|i| model.generate(&format!("u{i}"), 40 + i)).collect();
    let cfg = ReplayConfig {
        speculative: true,
        speculator: SpeculatorConfig { space: SpaceConfig::multi_user(), ..Default::default() },
        ..Default::default()
    };
    let mut db_n = base.clone();
    let normal = replay_multi(&mut db_n, &traces, &ReplayConfig::normal()).unwrap();
    let mut db_s = base.clone();
    let spec = replay_multi(&mut db_s, &traces, &cfg).unwrap();
    for (n_user, s_user) in normal.per_session.iter().zip(&spec.per_session) {
        assert_eq!(n_user.queries.len(), s_user.queries.len());
        for (a, b) in n_user.queries.iter().zip(&s_user.queries) {
            assert_eq!(a.rows, b.rows);
        }
    }
}

#[test]
fn learner_improves_over_a_session() {
    // Replay two traces from the same (synthetic) user; the learner
    // carries no state across replays here, but within one long trace the
    // speculator's completion rate should be healthy.
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let model = UserModel::default();
    let trace = model.generate("u", 5);
    let mut db = base.clone();
    let out = replay_trace(&mut db, &trace, &ReplayConfig::speculative()).unwrap();
    assert!(out.issued >= 10, "42-query trace should speculate often: {}", out.issued);
    assert!(
        out.completed as f64 >= out.issued as f64 * 0.3,
        "most manipulations should complete at tiny scale: {}/{}",
        out.completed,
        out.issued
    );
}
