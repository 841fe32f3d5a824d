//! Physical plan trees.
//!
//! A [`Plan`] is a tree of physical operators with all column references
//! resolved to output positions at plan-build time. Every node records
//! its output column *qualified names* (`"rel.col"` form), which is what
//! lets materialized views — whose stored schemas use the same qualified
//! names — slot into plans transparently (see [`crate::rewrite`]).

use specdb_query::{AggFunc, CompareOp};
use specdb_storage::Value;
use std::fmt;
use std::ops::Bound;

/// A predicate bound to an output column position.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundPred {
    /// Column position in the operator's input tuples.
    pub idx: usize,
    /// Comparison operator.
    pub op: CompareOp,
    /// Constant operand.
    pub value: Value,
}

impl BoundPred {
    /// Evaluate against a tuple.
    pub fn matches(&self, t: &specdb_storage::Tuple) -> bool {
        self.op.eval(t.get(self.idx), &self.value)
    }
}

/// A physical plan node.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Sequential scan of a stored table with pushed-down filters.
    SeqScan {
        /// Catalog table name.
        table: String,
        /// Filters over the table's own column positions.
        filters: Vec<BoundPred>,
    },
    /// Index range scan: probe the index, fetch rids, apply residual filters.
    IndexScan {
        /// Catalog table name.
        table: String,
        /// Indexed column name (in the stored schema).
        column: String,
        /// Lower bound on the indexed column.
        lo: Bound<Value>,
        /// Upper bound on the indexed column.
        hi: Bound<Value>,
        /// Residual filters over the table's own column positions
        /// (including any non-range predicates on the indexed column).
        filters: Vec<BoundPred>,
    },
    /// Hash join on one equality; extra equalities become residuals.
    HashJoin {
        /// Build side.
        left: Box<Plan>,
        /// Probe side.
        right: Box<Plan>,
        /// Key position in the left output.
        lkey: usize,
        /// Key position in the right output.
        rkey: usize,
        /// Residual equality pairs `(left_pos, right_pos)`.
        residual: Vec<(usize, usize)>,
    },
    /// Index nested-loop join: for each outer tuple, probe an index on a
    /// stored inner table.
    IndexNLJoin {
        /// Outer input.
        outer: Box<Plan>,
        /// Inner stored table name.
        inner_table: String,
        /// Indexed inner column name.
        inner_column: String,
        /// Join key position in the outer output.
        okey: usize,
        /// Filters over the inner table's own column positions.
        inner_filters: Vec<BoundPred>,
        /// Residual equality pairs `(outer_pos, inner_pos)`.
        residual: Vec<(usize, usize)>,
    },
    /// Nested-loop join with arbitrary equality conditions (empty =
    /// cartesian product; used for disconnected query graphs).
    NestedLoop {
        /// Materialized side.
        left: Box<Plan>,
        /// Streamed side.
        right: Box<Plan>,
        /// Equality pairs `(left_pos, right_pos)`.
        cond: Vec<(usize, usize)>,
    },
    /// Projection to a subset of input positions.
    Project {
        /// Input.
        input: Box<Plan>,
        /// Positions to keep, in output order.
        keep: Vec<usize>,
    },
    /// Hash aggregation over the input: group by key positions, compute
    /// aggregate functions. Output = group keys ++ aggregate values.
    Aggregate {
        /// Input.
        input: Box<Plan>,
        /// Group-key positions in the input, in output order.
        group: Vec<usize>,
        /// Aggregates: function plus input position (`None` = COUNT(*)).
        aggs: Vec<(AggFunc, Option<usize>)>,
    },
}

/// A plan node with its output schema (qualified column names).
#[derive(Debug, Clone)]
pub struct Plan {
    /// The operator.
    pub node: PlanNode,
    /// Qualified output column names, parallel to tuple positions.
    pub cols: Vec<String>,
}

impl Plan {
    /// Position of a qualified column name in the output.
    pub fn col_index(&self, qualified: &str) -> Option<usize> {
        self.cols.iter().position(|c| c == qualified)
    }

    /// Call `f(access)` for every base-relation access in the plan tree:
    /// `seq_scan`, `index_scan`, or `index_probe` (the inner side of an
    /// index nested-loop join). Feeds the `exec.plan.{access}` counters.
    pub fn visit_accesses(&self, f: &mut impl FnMut(&'static str)) {
        match &self.node {
            PlanNode::SeqScan { .. } => f("seq_scan"),
            PlanNode::IndexScan { .. } => f("index_scan"),
            PlanNode::HashJoin { left, right, .. } | PlanNode::NestedLoop { left, right, .. } => {
                left.visit_accesses(f);
                right.visit_accesses(f);
            }
            PlanNode::IndexNLJoin { outer, .. } => {
                outer.visit_accesses(f);
                f("index_probe");
            }
            PlanNode::Project { input, .. } | PlanNode::Aggregate { input, .. } => {
                input.visit_accesses(f)
            }
        }
    }

    /// One-line operator description (indented tree via [`Plan::explain`]).
    fn describe(&self) -> String {
        match &self.node {
            PlanNode::SeqScan { table, filters } => {
                format!("SeqScan({table}, {} filters)", filters.len())
            }
            PlanNode::IndexScan { table, column, filters, .. } => {
                format!("IndexScan({table}.{column}, {} residual)", filters.len())
            }
            PlanNode::HashJoin { lkey, rkey, residual, .. } => {
                format!("HashJoin(l[{lkey}] = r[{rkey}], {} residual)", residual.len())
            }
            PlanNode::IndexNLJoin { inner_table, inner_column, okey, .. } => {
                format!("IndexNLJoin(outer[{okey}] -> {inner_table}.{inner_column})")
            }
            PlanNode::NestedLoop { cond, .. } => {
                if cond.is_empty() {
                    "NestedLoop(cartesian)".to_string()
                } else {
                    format!("NestedLoop({} eq conds)", cond.len())
                }
            }
            PlanNode::Project { keep, .. } => format!("Project({} cols)", keep.len()),
            PlanNode::Aggregate { group, aggs, .. } => {
                format!("Aggregate({} keys, {} aggs)", group.len(), aggs.len())
            }
        }
    }

    /// Render the plan tree as an indented EXPLAIN-style string.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.describe());
        out.push('\n');
        match &self.node {
            PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } => {}
            PlanNode::HashJoin { left, right, .. } | PlanNode::NestedLoop { left, right, .. } => {
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            PlanNode::IndexNLJoin { outer, .. } => outer.explain_into(out, depth + 1),
            PlanNode::Project { input, .. } | PlanNode::Aggregate { input, .. } => {
                input.explain_into(out, depth + 1)
            }
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdb_storage::Tuple;

    #[test]
    fn bound_pred_evaluates() {
        let p = BoundPred { idx: 1, op: CompareOp::Ge, value: Value::Int(10) };
        assert!(p.matches(&Tuple::new(vec![Value::Null, Value::Int(10)])));
        assert!(!p.matches(&Tuple::new(vec![Value::Null, Value::Int(9)])));
    }

    #[test]
    fn explain_renders_tree() {
        let scan = Plan {
            node: PlanNode::SeqScan { table: "t".into(), filters: vec![] },
            cols: vec!["t.a".into()],
        };
        let proj = Plan {
            node: PlanNode::Project { input: Box::new(scan), keep: vec![0] },
            cols: vec!["t.a".into()],
        };
        let text = proj.explain();
        assert!(text.contains("Project"));
        assert!(text.contains("  SeqScan"));
    }

    #[test]
    fn col_index_lookup() {
        let p = Plan {
            node: PlanNode::SeqScan { table: "t".into(), filters: vec![] },
            cols: vec!["t.a".into(), "t.b".into()],
        };
        assert_eq!(p.col_index("t.b"), Some(1));
        assert_eq!(p.col_index("t.z"), None);
    }
}
