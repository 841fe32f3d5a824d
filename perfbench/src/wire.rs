//! The client side of the live-server workload: trace edits rendered as
//! protocol lines, and a blocking line-in, JSON-line-out connection.

use serde::Value as Json;
use specdb_query::{CompareOp, EditOp, Selection};
use specdb_storage::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn op_token(op: CompareOp) -> &'static str {
    match op {
        CompareOp::Eq => "=",
        CompareOp::Ne => "!=",
        CompareOp::Lt => "<",
        CompareOp::Le => "<=",
        CompareOp::Gt => ">",
        CompareOp::Ge => ">=",
    }
}

/// A constant as the protocol spells it. The protocol has integers and
/// strings only; strings are quoted so digits stay strings.
fn value_token(v: &Value) -> Result<String, String> {
    match v {
        Value::Int(i) => Ok(i.to_string()),
        Value::Str(s) if !s.is_empty() && !s.contains(char::is_whitespace) && !s.contains('\'') => {
            Ok(format!("'{s}'"))
        }
        other => Err(format!("the wire protocol cannot carry the constant {other:?}")),
    }
}

fn selection_args(s: &Selection) -> Result<String, String> {
    Ok(format!(
        "{} {} {} {}",
        s.rel,
        s.pred.column,
        op_token(s.pred.op),
        value_token(&s.pred.value)?
    ))
}

/// Render one edit as the request lines that reproduce it. The protocol's
/// `UPDATE_SELECTION` changes only the constant, so an update that also
/// changes the column or operator becomes a remove followed by an add.
pub fn render_edit(op: &EditOp) -> Result<Vec<String>, String> {
    let one = |s: String| Ok(vec![s]);
    match op {
        EditOp::AddRelation(t) => one(format!("EDIT ADD_RELATION {t}")),
        EditOp::RemoveRelation(t) => one(format!("EDIT REMOVE_RELATION {t}")),
        EditOp::AddSelection(s) => one(format!("EDIT ADD_SELECTION {}", selection_args(s)?)),
        EditOp::RemoveSelection(s) => one(format!("EDIT REMOVE_SELECTION {}", selection_args(s)?)),
        EditOp::UpdateSelection { old, new }
            if old.rel == new.rel
                && old.pred.column == new.pred.column
                && old.pred.op == new.pred.op =>
        {
            one(format!(
                "EDIT UPDATE_SELECTION {} {}",
                selection_args(old)?,
                value_token(&new.pred.value)?
            ))
        }
        EditOp::UpdateSelection { old, new } => Ok(vec![
            format!("EDIT REMOVE_SELECTION {}", selection_args(old)?),
            format!("EDIT ADD_SELECTION {}", selection_args(new)?),
        ]),
        EditOp::AddJoin(j) => {
            one(format!("EDIT ADD_JOIN {} {} {} {}", j.left, j.lcol, j.right, j.rcol))
        }
        EditOp::RemoveJoin(j) => {
            one(format!("EDIT REMOVE_JOIN {} {} {} {}", j.left, j.lcol, j.right, j.rcol))
        }
        EditOp::AddProjection(t, c) => one(format!("EDIT ADD_PROJECTION {t} {c}")),
        EditOp::RemoveProjection(t, c) => one(format!("EDIT REMOVE_PROJECTION {t} {c}")),
        EditOp::Go => one("GO".into()),
    }
}

/// One parsed JSON reply line.
pub struct Reply(Vec<(String, Json)>);

impl Reply {
    /// The reply's `ok` flag.
    pub fn ok(&self) -> bool {
        matches!(self.get("ok"), Some(Json::Bool(true)))
    }

    /// A field by dotted path (`session.issued`).
    pub fn get(&self, path: &str) -> Option<&Json> {
        let mut fields: &[(String, Json)] = &self.0;
        let mut parts = path.split('.').peekable();
        while let Some(part) = parts.next() {
            let v = serde::get_field(fields, part)?;
            if parts.peek().is_none() {
                return Some(v);
            }
            fields = v.as_object()?;
        }
        None
    }

    /// A numeric field, as `f64`.
    pub fn num(&self, path: &str) -> Option<f64> {
        match self.get(path)? {
            Json::I64(v) => Some(*v as f64),
            Json::U64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }
}

/// A blocking connection speaking the line protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer, line: String::new() })
    }

    /// Send one request line and wait for its reply line.
    pub fn request(&mut self, request: &str) -> Result<Reply, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send {request:?}: {e}"))?;
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).map_err(|e| format!("read reply: {e}"))?;
        if n == 0 {
            return Err(format!("server closed the connection after {request:?}"));
        }
        let parsed = serde_json::parse(self.line.trim_end())
            .map_err(|e| format!("reply to {request:?} is not JSON: {e}"))?;
        match parsed {
            Json::Object(fields) => Ok(Reply(fields)),
            other => Err(format!("reply to {request:?} is a JSON {}", other.kind())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdb_query::{Join, PartialQuery, Predicate};
    use specdb_serve::{parse_request, Request};

    fn sel(rel: &str, col: &str, op: CompareOp, v: impl Into<Value>) -> Selection {
        Selection::new(rel, Predicate::new(col, op, v))
    }

    fn every_variant() -> Vec<EditOp> {
        let nation = sel("customer", "c_nation", CompareOp::Eq, "FRANCE");
        let qty = sel("lineitem", "l_quantity", CompareOp::Le, 20i64);
        vec![
            EditOp::AddRelation("customer".into()),
            EditOp::AddRelation("lineitem".into()),
            EditOp::AddSelection(nation.clone()),
            EditOp::AddSelection(qty.clone()),
            EditOp::UpdateSelection {
                old: qty.clone(),
                new: sel("lineitem", "l_quantity", CompareOp::Le, 7i64),
            },
            EditOp::UpdateSelection {
                old: sel("lineitem", "l_quantity", CompareOp::Le, 7i64),
                new: sel("lineitem", "l_shipdate", CompareOp::Gt, 9000i64),
            },
            EditOp::RemoveSelection(nation),
            EditOp::AddJoin(Join::new("orders", "o_custkey", "customer", "c_custkey")),
            EditOp::RemoveJoin(Join::new("orders", "o_custkey", "customer", "c_custkey")),
            EditOp::AddProjection("customer".into(), "c_name".into()),
            EditOp::RemoveProjection("customer".into(), "c_name".into()),
            EditOp::RemoveRelation("customer".into()),
            EditOp::Go,
        ]
    }

    #[test]
    fn every_edit_variant_round_trips_through_the_server_parser() {
        let (mut direct, mut wired) = (PartialQuery::new(), PartialQuery::new());
        for op in every_variant() {
            let lines = render_edit(&op).expect("renderable");
            let parsed: Vec<EditOp> = lines
                .iter()
                .map(|l| match parse_request(l).expect("server parses the line") {
                    Request::Edit(e) => e,
                    Request::Go => EditOp::Go,
                    other => panic!("{l:?} parsed as {other:?}"),
                })
                .collect();
            if lines.len() == 1 {
                assert_eq!(parsed[0], op, "{:?}", lines[0]);
            }
            direct.apply(&op);
            for e in &parsed {
                wired.apply(e);
            }
            assert_eq!(direct, wired, "after {op:?}");
        }
    }

    #[test]
    fn unsendable_constants_are_refused() {
        let float = EditOp::AddSelection(sel("part", "p_retailprice", CompareOp::Gt, 950.5));
        assert!(render_edit(&float).is_err());
        let spaced =
            EditOp::AddSelection(sel("customer", "c_nation", CompareOp::Eq, "NEW ZEALAND"));
        assert!(render_edit(&spaced).is_err());
    }
}
