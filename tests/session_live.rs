//! Live-runtime integration tests: a single-user embedding — one
//! `ServeSession` on a `SessionManager` under the default governor —
//! under realistic interaction patterns (wall-clock think time, pivots,
//! aggregate GOs, and many consecutive queries).

use specdb::core::SpeculatorConfig;
use specdb::exec::{Database, DatabaseConfig};
use specdb::prelude::*;
use specdb::query::{Join, Query};
use specdb::serve::{GovernorConfig, SessionManager};
use specdb::tpch::{generate_into, TpchConfig};
use std::thread::sleep;
use std::time::Duration;

fn db() -> Database {
    let mut db = Database::new(DatabaseConfig::with_buffer_pages(2048));
    generate_into(&mut db, &TpchConfig::new(1)).expect("generate");
    db.clear_buffer();
    db
}

/// A fresh manager with the default governor; each test connects one
/// session to it.
fn manager() -> SessionManager {
    SessionManager::new(db(), SpeculatorConfig::default(), GovernorConfig::default())
}

fn nation(v: &str) -> EditOp {
    EditOp::AddSelection(Selection::new("customer", Predicate::new("c_nation", CompareOp::Eq, v)))
}

#[test]
fn consecutive_queries_reuse_surviving_views() {
    let manager = manager();
    let (_, s) = manager.connect("solo");
    let mut s = s.lock();
    s.edit(EditOp::AddRelation("customer".into()));
    s.edit(nation("FRANCE"));
    sleep(Duration::from_millis(400));
    let first = s.go().expect("first GO").output;
    // Same predicate again (inter-query locality): if the view survived
    // GC, the second query must use it.
    sleep(Duration::from_millis(50));
    let second = s.go().expect("second GO").output;
    assert_eq!(first.row_count, second.row_count);
    if s.stats().completed >= 1 {
        assert!(!second.used_views.is_empty(), "surviving view should answer the repeat query");
    }
}

#[test]
fn go_with_aggregate_layers_over_canvas() {
    let manager = manager();
    let (_, s) = manager.connect("solo");
    let mut s = s.lock();
    s.edit(EditOp::AddRelation("customer".into()));
    s.edit(nation("GERMANY"));
    sleep(Duration::from_millis(300));
    // Plain canvas GO for the expected count.
    let rows = {
        let q = Query::star(s.partial().clone());
        manager.with_db(|db| db.execute_discard(&q)).expect("probe").row_count
    };
    let agg_query = Query::star(s.partial().clone()).aggregate(specdb::query::AggSpec {
        group_by: vec![],
        aggs: vec![specdb::query::Aggregate::count_star()],
    });
    let out = s.go_with(&agg_query).expect("aggregate GO").output;
    assert_eq!(out.row_count, 1);
    assert_eq!(out.rows[0].get(0), &Value::Int(rows as i64));
}

#[test]
fn rapid_fire_edits_never_deadlock_or_crash() {
    // Hammer the session with edits faster than manipulations can finish;
    // every path (issue, cancel, supersede, GO) must stay consistent.
    let manager = manager();
    let (_, s) = manager.connect("solo");
    let mut s = s.lock();
    let nations = ["FRANCE", "GERMANY", "RUSSIA", "JAPAN", "CHINA"];
    for round in 0..4 {
        s.edit(EditOp::AddRelation("customer".into()));
        for (i, n) in nations.iter().enumerate() {
            s.edit(nation(n));
            if i % 2 == round % 2 {
                s.edit(EditOp::RemoveSelection(Selection::new(
                    "customer",
                    Predicate::new("c_nation", CompareOp::Eq, *n),
                )));
            }
        }
        s.edit(EditOp::AddJoin(Join::new("orders", "o_custkey", "customer", "c_custkey")));
        let _ = s.go().expect("GO under churn");
        // Clear the canvas for the next round.
        for rel in ["customer", "orders"] {
            s.edit(EditOp::RemoveRelation(rel.into()));
        }
    }
    let st = s.stats();
    assert_eq!(st.queries, 4);
    assert_eq!(st.issued, st.completed + st.cancelled, "bookkeeping must balance");
    // A lone session never meets the governor: it never proposes a
    // second build while its own is outstanding.
    let gov = manager.fleet_stats().governor;
    assert_eq!(gov.denied, 0, "a lone session is never denied");
    assert_eq!(gov.preempted, 0, "a lone session is never preempted");
    assert_eq!(gov.admitted, st.issued);
}

#[test]
fn disconnect_leaves_database_with_consistent_views() {
    let manager = manager();
    let (id, s) = manager.connect("solo");
    let views = {
        let mut s = s.lock();
        s.edit(EditOp::AddRelation("customer".into()));
        s.edit(nation("FRANCE"));
        sleep(Duration::from_millis(300));
        let _ = s.go().expect("GO");
        // While the session is connected, every registered view has a
        // backing catalog table.
        let views: Vec<String> =
            manager.with_db(|db| db.views().iter().map(|v| v.name.clone()).collect());
        manager.with_db(|db| {
            for v in &views {
                assert!(db.catalog().table(v).is_some(), "view {v} must have storage");
            }
        });
        if s.stats().completed >= 1 {
            assert!(!views.is_empty(), "the completed build's view survives the GO it answers");
        }
        views
    };
    assert!(manager.disconnect(id));
    assert_eq!(manager.fleet_stats().governor.outstanding, 0, "no build survives disconnect");
    // Disconnect releases the lone session's leases, so GC drops every
    // view together with its storage.
    manager.with_db(|db| {
        assert!(db.views().is_empty(), "no session supports any view after disconnect");
        for v in &views {
            assert!(db.catalog().table(v).is_none(), "dropped view {v} must lose its storage");
        }
    });
}
