//! A live speculative session over the TPC-H subset.
//!
//! Drives the embeddable runtime — one [`specdb::serve::ServeSession`]
//! on a [`specdb::serve::SessionManager`] with the default governor —
//! the way a visual query builder would: edits arrive one at a time with
//! real think-time pauses between them, a background thread runs the
//! speculator's chosen manipulations, and GO executes the final query —
//! rewritten onto whatever speculation managed to prepare.
//!
//! Run with: `cargo run --release --example exploratory_session`

use specdb::core::SpeculatorConfig;
use specdb::exec::{Database, DatabaseConfig};
use specdb::prelude::*;
use specdb::serve::{GovernorConfig, SessionManager};
use specdb::tpch::{generate_into, TpchConfig};
use std::thread::sleep;
use std::time::Duration;

fn main() {
    println!("generating 8MB skewed TPC-H subset...");
    let mut db = Database::new(DatabaseConfig::with_buffer_pages(4096));
    generate_into(&mut db, &TpchConfig::new(8)).expect("generate");
    db.clear_buffer();

    // A single user is a fleet of one: a lone session never meets the
    // governor's budget, so the default governor changes nothing.
    let manager = SessionManager::new(db, SpeculatorConfig::default(), GovernorConfig::default());
    let (id, session) = manager.connect("analyst");
    let mut session = session.lock();

    // The user explores: which French customers place urgent orders?
    println!("user: placing `customer` on the canvas");
    session.edit(EditOp::AddRelation("customer".into()));
    think(300);

    println!("user: filtering c_nation = 'FRANCE'");
    session.edit(EditOp::AddSelection(Selection::new(
        "customer",
        Predicate::new("c_nation", CompareOp::Eq, "FRANCE"),
    )));
    think(700); // speculation materializes σ(nation)(customer)

    println!("user: joining in `orders`");
    session.edit(EditOp::AddJoin(specdb::query::Join::new(
        "orders",
        "o_custkey",
        "customer",
        "c_custkey",
    )));
    think(700);

    println!("user: filtering o_orderpriority <= 2");
    session.edit(EditOp::AddSelection(Selection::new(
        "orders",
        Predicate::new("o_orderpriority", CompareOp::Le, 2i64),
    )));
    think(800);

    println!("user: GO");
    let out = session.go().expect("final query").output;
    println!(
        "  -> {} rows in {} (virtual), plan used views: [{}]",
        out.row_count,
        out.elapsed,
        out.used_views.join(", ")
    );

    // A follow-up query in the same session reuses surviving views.
    println!("user: tightening to o_orderpriority = 1, GO again");
    session.edit(EditOp::UpdateSelection {
        old: Selection::new("orders", Predicate::new("o_orderpriority", CompareOp::Le, 2i64)),
        new: Selection::new("orders", Predicate::new("o_orderpriority", CompareOp::Eq, 1i64)),
    });
    think(600);
    let out2 = session.go().expect("second query").output;
    println!(
        "  -> {} rows in {} (virtual), plan used views: [{}]",
        out2.row_count,
        out2.elapsed,
        out2.used_views.join(", ")
    );

    let stats = session.stats();
    println!(
        "\nsession stats: issued={} completed={} cancelled={} queries={} gc'd={}",
        stats.issued, stats.completed, stats.cancelled, stats.queries, stats.collected
    );
    drop(session);
    manager.disconnect(id);
}

/// Let the background speculation worker make progress, like a user
/// pausing to think (the worker runs on its own thread; nothing to poll).
fn think(ms: u64) {
    sleep(Duration::from_millis(ms));
}
