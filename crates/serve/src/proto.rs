//! The wire protocol: line-oriented requests, JSON-line responses.
//!
//! Requests are single lines of whitespace-separated tokens — easy to
//! type into `nc` — and every response is a single JSON object
//! terminated by `\n`. The verbs mirror the session lifecycle:
//!
//! ```text
//! CONNECT [name]                             open a session
//! EDIT ADD_RELATION <table>                  place a relation
//! EDIT REMOVE_RELATION <table>
//! EDIT ADD_SELECTION <table> <col> <op> <v>  op ∈ = != < <= > >=
//! EDIT REMOVE_SELECTION <table> <col> <op> <v>
//! EDIT UPDATE_SELECTION <table> <col> <op> <old> <new>
//! EDIT ADD_JOIN <t1> <c1> <t2> <c2>
//! EDIT REMOVE_JOIN <t1> <c1> <t2> <c2>
//! EDIT ADD_PROJECTION <table> <col>
//! EDIT REMOVE_PROJECTION <table> <col>
//! GO                                         submit the final query
//! CANCEL                                     cancel the in-flight build
//! STATS                                      session + fleet counters
//! QUIT                                       close the session
//! ```
//!
//! Values parse as integers when they look like one, strings otherwise
//! (single quotes optional: `FRANCE` and `'FRANCE'` are the same).
//! A worked transcript lives in `docs/serving.md`.

use crate::governor::GovernorStats;
use crate::registry::CacheStats;
use crate::session::ServeSessionStats;
use serde::Serialize;
use specdb_query::{CompareOp, EditOp, Join, Predicate, Selection};
use specdb_storage::Value;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session, optionally naming it.
    Connect {
        /// Client-chosen session label (defaults to `anon`).
        name: Option<String>,
    },
    /// Apply one partial-query edit.
    Edit(EditOp),
    /// Submit the final query.
    Go,
    /// Cancel the in-flight speculative build.
    Cancel,
    /// Report session and fleet counters.
    Stats,
    /// Close the session and the connection.
    Quit,
}

/// Parse one request line. Verbs are case-insensitive.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut tokens = line.split_whitespace();
    let verb = tokens.next().ok_or("empty request")?.to_ascii_uppercase();
    let rest: Vec<&str> = tokens.collect();
    match verb.as_str() {
        "CONNECT" => Ok(Request::Connect { name: rest.first().map(|s| s.to_string()) }),
        "EDIT" => parse_edit(&rest).map(Request::Edit),
        "GO" => Ok(Request::Go),
        "CANCEL" => Ok(Request::Cancel),
        "STATS" => Ok(Request::Stats),
        "QUIT" | "EXIT" => Ok(Request::Quit),
        other => Err(format!("unknown verb {other:?} (try CONNECT/EDIT/GO/CANCEL/STATS/QUIT)")),
    }
}

fn parse_edit(args: &[&str]) -> Result<EditOp, String> {
    let op = args.first().ok_or("EDIT needs a sub-command")?.to_ascii_uppercase();
    let need = |n: usize| -> Result<(), String> {
        if args.len() - 1 == n {
            Ok(())
        } else {
            Err(format!("EDIT {op} takes {n} argument(s), got {}", args.len() - 1))
        }
    };
    match op.as_str() {
        "ADD_RELATION" => {
            need(1)?;
            Ok(EditOp::AddRelation(args[1].to_string()))
        }
        "REMOVE_RELATION" => {
            need(1)?;
            Ok(EditOp::RemoveRelation(args[1].to_string()))
        }
        "ADD_SELECTION" => {
            need(4)?;
            Ok(EditOp::AddSelection(parse_selection(&args[1..5])?))
        }
        "REMOVE_SELECTION" => {
            need(4)?;
            Ok(EditOp::RemoveSelection(parse_selection(&args[1..5])?))
        }
        "UPDATE_SELECTION" => {
            need(5)?;
            let old = parse_selection(&args[1..5])?;
            let new = Selection::new(
                args[1],
                Predicate::new(args[2], parse_op(args[3])?, parse_value(args[5])),
            );
            Ok(EditOp::UpdateSelection { old, new })
        }
        "ADD_JOIN" => {
            need(4)?;
            Ok(EditOp::AddJoin(Join::new(args[1], args[2], args[3], args[4])))
        }
        "REMOVE_JOIN" => {
            need(4)?;
            Ok(EditOp::RemoveJoin(Join::new(args[1], args[2], args[3], args[4])))
        }
        "ADD_PROJECTION" => {
            need(2)?;
            Ok(EditOp::AddProjection(args[1].to_string(), args[2].to_string()))
        }
        "REMOVE_PROJECTION" => {
            need(2)?;
            Ok(EditOp::RemoveProjection(args[1].to_string(), args[2].to_string()))
        }
        "GO" => {
            need(0)?;
            Ok(EditOp::Go)
        }
        other => Err(format!("unknown EDIT sub-command {other:?}")),
    }
}

fn parse_selection(args: &[&str]) -> Result<Selection, String> {
    Ok(Selection::new(args[0], Predicate::new(args[1], parse_op(args[2])?, parse_value(args[3]))))
}

fn parse_op(tok: &str) -> Result<CompareOp, String> {
    match tok.to_ascii_uppercase().as_str() {
        "=" | "==" | "EQ" => Ok(CompareOp::Eq),
        "!=" | "<>" | "NE" => Ok(CompareOp::Ne),
        "<" | "LT" => Ok(CompareOp::Lt),
        "<=" | "LE" => Ok(CompareOp::Le),
        ">" | "GT" => Ok(CompareOp::Gt),
        ">=" | "GE" => Ok(CompareOp::Ge),
        other => Err(format!("unknown operator {other:?} (= != < <= > >=)")),
    }
}

fn parse_value(tok: &str) -> Value {
    let unquoted = tok.trim_matches('\'');
    if unquoted.len() == tok.len() {
        if let Ok(i) = tok.parse::<i64>() {
            return Value::Int(i);
        }
    }
    Value::Str(unquoted.to_string())
}

/// A serialized response line (without the trailing newline).
pub fn render<T: Serialize>(resp: &T) -> String {
    serde_json::to_string(resp).unwrap_or_else(|_| "{\"ok\":false,\"error\":\"render\"}".into())
}

/// Response to `CONNECT`.
#[derive(Debug, Serialize)]
pub struct ConnectResponse {
    /// Always true on success.
    pub ok: bool,
    /// The assigned session id.
    pub session: u64,
    /// Echo of the session name.
    pub name: String,
}

/// Response to `EDIT`.
#[derive(Debug, Serialize)]
pub struct EditResponse {
    /// Always true on success.
    pub ok: bool,
    /// Relations currently on the canvas.
    pub relations: u64,
    /// Selections currently on the canvas.
    pub selections: u64,
    /// Join edges currently on the canvas.
    pub joins: u64,
    /// Whether a speculative build is in flight for this session.
    pub outstanding: bool,
}

/// Response to `GO`.
#[derive(Debug, Serialize)]
pub struct GoResponse {
    /// Always true on success.
    pub ok: bool,
    /// Result row count.
    pub rows: u64,
    /// Virtual execution time in seconds.
    pub elapsed_secs: f64,
    /// Materialized views the plan read.
    pub used_views: Vec<String>,
    /// Whether the plan read an artifact built by a different session.
    pub shared_hit: bool,
}

/// Response to `CANCEL`.
#[derive(Debug, Serialize)]
pub struct CancelResponse {
    /// Always true on success.
    pub ok: bool,
    /// Whether a build was actually cancelled.
    pub cancelled: bool,
}

/// Response to `STATS`.
#[derive(Debug, Serialize)]
pub struct StatsResponse {
    /// Always true on success.
    pub ok: bool,
    /// This session's counters.
    pub session: ServeSessionStats,
    /// Sessions currently connected.
    pub sessions: u64,
    /// Governor admission counters.
    pub governor: GovernorStats,
    /// Shared artifact-cache counters.
    pub cache: CacheSummary,
}

/// Artifact-cache counters in wire form.
#[derive(Debug, Serialize)]
pub struct CacheSummary {
    /// Installed artifacts resident.
    pub ready: u64,
    /// Builds in flight.
    pub building: u64,
    /// Hits/uses served by another session's build.
    pub shared_hits: u64,
    /// Fraction of plan uses served cross-session.
    pub cross_session_reuse: f64,
}

impl From<CacheStats> for CacheSummary {
    fn from(s: CacheStats) -> Self {
        CacheSummary {
            ready: s.ready,
            building: s.building,
            shared_hits: s.shared_hits,
            cross_session_reuse: s.cross_session_reuse(),
        }
    }
}

/// Error response (any verb).
#[derive(Debug, Serialize)]
pub struct ErrorResponse {
    /// Always false.
    pub ok: bool,
    /// Human-readable diagnostic.
    pub error: String,
}

impl ErrorResponse {
    /// Build an error line.
    pub fn line(error: impl Into<String>) -> String {
        render(&ErrorResponse { ok: false, error: error.into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        assert_eq!(
            parse_request("connect alice").unwrap(),
            Request::Connect { name: Some("alice".into()) }
        );
        assert_eq!(
            parse_request("EDIT add_relation customer").unwrap(),
            Request::Edit(EditOp::AddRelation("customer".into()))
        );
        let sel = parse_request("EDIT ADD_SELECTION customer c_nation = 'FRANCE'").unwrap();
        assert_eq!(
            sel,
            Request::Edit(EditOp::AddSelection(Selection::new(
                "customer",
                Predicate::new("c_nation", CompareOp::Eq, "FRANCE"),
            )))
        );
        assert_eq!(
            parse_request("EDIT ADD_SELECTION lineitem l_quantity <= 2").unwrap(),
            Request::Edit(EditOp::AddSelection(Selection::new(
                "lineitem",
                Predicate::new("l_quantity", CompareOp::Le, 2i64),
            )))
        );
        assert_eq!(
            parse_request("edit add_join orders o_custkey customer c_custkey").unwrap(),
            Request::Edit(EditOp::AddJoin(Join::new(
                "orders",
                "o_custkey",
                "customer",
                "c_custkey"
            )))
        );
        assert_eq!(parse_request("GO").unwrap(), Request::Go);
        assert_eq!(parse_request("cancel").unwrap(), Request::Cancel);
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("quit").unwrap(), Request::Quit);
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("").is_err());
        assert!(parse_request("FROB x").is_err());
        assert!(parse_request("EDIT ADD_SELECTION customer c_nation").is_err());
        assert!(parse_request("EDIT ADD_SELECTION customer c_nation ~ FRANCE").is_err());
    }

    #[test]
    fn responses_render_as_json_lines() {
        let line = render(&ConnectResponse { ok: true, session: 7, name: "alice".into() });
        assert!(line.contains("\"session\":7"), "{line}");
        let parsed = serde_json::parse(&line).expect("valid JSON");
        drop(parsed);
        assert!(ErrorResponse::line("nope").contains("\"ok\":false"));
    }
}
