//! Applying a chosen manipulation to a database.
//!
//! The one routine every runtime shares: the live sessions of
//! `specdb-serve` run it on a background build thread, and the replay
//! harness in `specdb-sim` runs it on a virtual clock.

use crate::manipulation::Manipulation;
use specdb_exec::{CancelToken, Database, ExecResult};
use specdb_storage::VirtualTime;

/// Application of a manipulation to a database (shared by the live
/// sessions and the simulation harness).
#[derive(Debug, Clone)]
pub struct Applied {
    /// Virtual elapsed time of the work.
    pub elapsed: VirtualTime,
    /// Materialized table name, for materializations.
    pub table: Option<String>,
    /// Id of the build's `speculate` span, when tracing is on: the key
    /// every later instant in the build's life carries as `build`.
    pub build: Option<u64>,
}

/// Execute a manipulation against the database. Cancellation aborts with
/// `ExecError::Storage(StorageError::Cancelled)` and leaves no trace.
pub fn apply_manipulation(
    db: &mut Database,
    m: &Manipulation,
    cancel: CancelToken,
) -> ExecResult<Applied> {
    let tracer = db.observer().tracer().clone();
    let virt_now = db.observer().now_micros();
    let span = tracer.begin(specdb_obs::SpanKind::Speculation, "speculate", virt_now);
    let build = span.id();
    let result = apply_manipulation_inner(db, m, cancel).map(|(elapsed, table)| Applied {
        elapsed,
        table,
        build,
    });
    match &result {
        Ok(applied) => {
            let build_secs = applied.elapsed.as_secs_f64();
            let table = applied.table.clone();
            span.finish_with(virt_now + applied.elapsed.as_micros(), |a| {
                a.push(("manipulation", m.to_string().into()));
                a.push(("build_secs", build_secs.into()));
                if let Some(t) = table {
                    a.push(("table", t.into()));
                }
            });
        }
        Err(e) => {
            let cancelled = e.is_cancelled();
            span.finish_with(virt_now, |a| {
                a.push(("manipulation", m.to_string().into()));
                a.push(("cancelled", cancelled.into()));
            });
        }
    }
    result
}

/// Run the work of `m`: its virtual elapsed time and, for
/// materializations, the table it wrote.
fn apply_manipulation_inner(
    db: &mut Database,
    m: &Manipulation,
    cancel: CancelToken,
) -> ExecResult<(VirtualTime, Option<String>)> {
    match m {
        Manipulation::Null => Ok((VirtualTime::ZERO, None)),
        Manipulation::DataStage { table, pages } => {
            // The paper's prototype could not stage through Oracle's
            // interface; this engine pins buffer pages natively.
            Ok((db.stage(table, *pages)?.elapsed, None))
        }
        Manipulation::CreateHistogram { table, column } => {
            Ok((db.create_histogram(table, column)?.elapsed, None))
        }
        Manipulation::CreateIndex { table, column } => {
            Ok((db.create_index(table, column)?.elapsed, None))
        }
        Manipulation::Rewrite { graph } | Manipulation::PredictQuery { graph } => {
            let out = db.materialize(graph, cancel)?;
            Ok((out.elapsed, Some(out.table)))
        }
    }
}
