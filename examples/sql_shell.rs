//! An interactive SQL shell with live speculation.
//!
//! Reads SQL from stdin against a generated TPC-H subset. Every query's
//! WHERE clause acts as the "visual canvas": after answering, the shell
//! feeds the query's parts to the speculative session as edits, so think
//! time between queries prepares the database for the next one — type a
//! similar follow-up query and watch `used views` light up.
//!
//! Commands: plain SQL, `\views`, `\stats`, `\explain <sql>`, `\quit`.
//!
//! Run with: `cargo run --release --example sql_shell`
//! (pipe a script: `echo "SELECT * FROM customer WHERE c_nation='PERU'" | cargo run --release --example sql_shell`)

use specdb::core::SpeculatorConfig;
use specdb::exec::{Database, DatabaseConfig};
use specdb::prelude::*;
use specdb::serve::{GovernorConfig, SessionManager};
use specdb::tpch::{generate_into, TpchConfig};
use std::io::{BufRead, Write};

fn main() {
    println!(
        "generating 8MB skewed TPC-H subset (customer/orders/lineitem/part/partsupp/supplier)..."
    );
    let mut db = Database::new(DatabaseConfig::with_buffer_pages(4096));
    generate_into(&mut db, &TpchConfig::new(8)).expect("generate");
    db.clear_buffer();
    let manager = SessionManager::new(db, SpeculatorConfig::default(), GovernorConfig::default());
    let (id, session) = manager.connect("shell");
    let mut session = session.lock();
    println!(
        "ready. SQL (conjunctive SELECT-FROM-WHERE), \\views, \\stats, \\explain <sql>, \\quit"
    );

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("specdb> ");
        out.flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            "\\quit" | "\\q" => break,
            "\\views" => {
                manager.with_db(|db| {
                    if db.views().is_empty() {
                        println!("(no materialized views)");
                    }
                    for v in db.views().iter() {
                        let rows = db.catalog().table(&v.name).map(|t| t.stats.rows).unwrap_or(0);
                        println!("{}  {} rows  := {}", v.name, rows, v.graph);
                    }
                });
                continue;
            }
            "\\stats" => {
                let s = session.stats();
                println!(
                    "manipulations: issued={} completed={} cancelled={} | queries={} | gc'd={}",
                    s.issued, s.completed, s.cancelled, s.queries, s.collected
                );
                continue;
            }
            _ => {}
        }
        let (explain_only, sql) = match line.strip_prefix("\\explain ") {
            Some(rest) => (true, rest),
            None => (false, line),
        };
        let parsed = manager.with_db(|db| parse_sql(db, sql));
        let query = match parsed {
            Ok(q) => q,
            Err(e) => {
                println!("parse error: {e}");
                continue;
            }
        };
        if explain_only {
            // Plan without executing.
            let plan = manager.with_db(|db| {
                db.estimate_query_time(&query).map(|t| {
                    let out = db.execute_discard(&query); // executes to show the real plan
                    (t, out)
                })
            });
            match plan {
                Ok((est, Ok(out))) => {
                    println!("estimated: {est}  measured: {}\n{}", out.elapsed, out.plan)
                }
                Ok((_, Err(e))) | Err(e) => println!("plan error: {e}"),
            }
            continue;
        }
        // Feed the query's parts as canvas edits (training + speculation),
        // then GO.
        for rel in query.graph.relations() {
            session.edit(EditOp::AddRelation(rel.to_string()));
        }
        for j in query.graph.joins() {
            session.edit(EditOp::AddJoin(j.clone()));
        }
        for s in query.graph.selections() {
            session.edit(EditOp::AddSelection(s.clone()));
        }
        for (rel, col) in &query.projections {
            session.edit(EditOp::AddProjection(rel.clone(), col.clone()));
        }
        match session.go_with(&query) {
            Ok(outp) => {
                let outp = outp.output;
                for row in outp.rows.iter().take(10) {
                    let cells: Vec<String> = row.values().iter().map(|v| format!("{v}")).collect();
                    println!("{}", cells.join(" | "));
                }
                if outp.row_count > 10 {
                    println!("... ({} rows total)", outp.row_count);
                }
                println!(
                    "{} rows in {} (virtual){}",
                    outp.row_count,
                    outp.elapsed,
                    if outp.used_views.is_empty() {
                        String::new()
                    } else {
                        format!(", used views: {}", outp.used_views.join(", "))
                    }
                );
            }
            Err(e) => println!("execution error: {e}"),
        }
        // Reset the canvas for the next query (each shell query is a
        // fresh formulation; views persist per the GC heuristic).
        let rels: Vec<String> = session.partial().relations().map(str::to_string).collect();
        for r in rels {
            session.edit(EditOp::RemoveRelation(r));
        }
    }
    println!("bye");
    drop(session);
    manager.disconnect(id);
}
