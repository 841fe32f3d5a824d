//! Speculative manipulations.
//!
//! The paper's Manipulation Space (Section 3.2) defines five operation
//! types. *Data staging* (buffer-pool pre-fetch/pin) was defined but
//! unimplementable over the paper's closed DBMS; this engine pins buffer
//! pages natively, so staging is fully supported here (off by default to
//! mirror the paper's experiments; see `SpaceConfig::staging`).
//!
//! The paper's *query materialization* and *query rewriting* build the
//! same thing, a materialized sub-query; they differ only in whether the
//! optimizer may ignore the result at GO. That choice belongs to the
//! database ([`specdb_exec::ViewMode`]: `CostBased` is materialization,
//! `Forced`, the default, is rewriting), so one manipulation,
//! [`Manipulation::Rewrite`], carries both.

use specdb_exec::Database;
use specdb_query::QueryGraph;
use std::fmt;

/// One speculative action the system may issue against the database.
#[derive(Debug, Clone, PartialEq)]
pub enum Manipulation {
    /// The null manipulation `m∅`: do nothing.
    Null,
    /// Pre-fetch and pin the first pages of a relation.
    DataStage {
        /// Relation to warm.
        table: String,
        /// Number of leading pages to pin.
        pages: u32,
    },
    /// Build a histogram on `table.column` to improve optimizer estimates.
    CreateHistogram {
        /// Relation.
        table: String,
        /// Attribute.
        column: String,
    },
    /// Build an index on `table.column`.
    CreateIndex {
        /// Relation.
        table: String,
        /// Attribute.
        column: String,
    },
    /// Materialize a sub-query. Whether GO must substitute the result
    /// or may cost it against the original is the database's
    /// [`specdb_exec::ViewMode`].
    Rewrite {
        /// Sub-query to materialize (a sub-graph of the partial query).
        graph: QueryGraph,
    },
    /// Pre-execute a *predicted completed query* during think time
    /// (whole-query speculation, ROADMAP item 2). Unlike
    /// [`Manipulation::Rewrite`], the graph is usually a
    /// *superset* of the current partial query — the predictor's guess
    /// at what the user will eventually GO with. An exact hit serves
    /// the GO instantly; a near miss can still be salvaged through the
    /// subsumption rewrite algebra.
    PredictQuery {
        /// The predicted final query graph.
        graph: QueryGraph,
    },
}

impl Manipulation {
    /// The materialized sub-query `qm`, when this manipulation
    /// materializes one.
    pub fn graph(&self) -> Option<&QueryGraph> {
        match self {
            Manipulation::Rewrite { graph } | Manipulation::PredictQuery { graph } => Some(graph),
            _ => None,
        }
    }

    /// True for `m∅`.
    pub fn is_null(&self) -> bool {
        matches!(self, Manipulation::Null)
    }

    /// Does the current partial query still indicate this manipulation
    /// will pay off? Used both to cancel in-flight manipulations and to
    /// garbage-collect completed ones (paper Section 3.1 conventions).
    pub fn supported_by(&self, partial: &QueryGraph) -> bool {
        match self {
            Manipulation::Null => true,
            Manipulation::DataStage { table, .. } => partial.has_relation(table),
            Manipulation::CreateHistogram { table, column }
            | Manipulation::CreateIndex { table, column } => {
                partial.selections_on(table).any(|s| &s.pred.column == column)
                    || partial
                        .joins_on(table)
                        .any(|j| j.other(table).map(|(c, _, _)| c == column).unwrap_or(false))
            }
            Manipulation::Rewrite { graph } => partial.contains(graph),
            // Containment is *reversed* for predictions: the build stays
            // plausible while the evolving partial stays inside the
            // predicted future. Extra partial selections never cancel —
            // subsumption keeps them as residual filters at GO.
            Manipulation::PredictQuery { graph } => {
                partial.relations().all(|r| graph.has_relation(r))
                    && partial.joins().all(|pj| graph.joins().any(|gj| gj == pj))
            }
        }
    }

    /// Has this manipulation's effect already been applied to the
    /// database (making re-issuing it pointless)?
    pub fn already_applied(&self, db: &Database) -> bool {
        match self {
            Manipulation::Null => false,
            Manipulation::DataStage { table, .. } => db.is_staged(table),
            Manipulation::CreateHistogram { table, column } => db.has_histogram(table, column),
            Manipulation::CreateIndex { table, column } => db.has_index(table, column),
            Manipulation::Rewrite { graph } | Manipulation::PredictQuery { graph } => {
                db.has_view(graph)
            }
        }
    }

    /// Short kind label for reporting.
    pub fn kind(&self) -> &'static str {
        match self {
            Manipulation::Null => "null",
            Manipulation::DataStage { .. } => "stage",
            Manipulation::CreateHistogram { .. } => "histogram",
            Manipulation::CreateIndex { .. } => "index",
            Manipulation::Rewrite { .. } => "rewrite",
            Manipulation::PredictQuery { .. } => "predict",
        }
    }
}

impl fmt::Display for Manipulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Manipulation::Null => write!(f, "m∅"),
            Manipulation::DataStage { table, pages } => write!(f, "stage({table}, {pages}p)"),
            Manipulation::CreateHistogram { table, column } => {
                write!(f, "histogram({table}.{column})")
            }
            Manipulation::CreateIndex { table, column } => write!(f, "index({table}.{column})"),
            Manipulation::Rewrite { graph } => write!(f, "rewrite{graph}"),
            Manipulation::PredictQuery { graph } => write!(f, "predict{graph}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdb_query::{CompareOp, Join, Predicate, Selection};

    fn partial() -> QueryGraph {
        let mut g = QueryGraph::new();
        g.add_join(Join::new("orders", "o_custkey", "customer", "c_custkey"));
        g.add_selection(Selection::new(
            "customer",
            Predicate::new("c_nation", CompareOp::Eq, "FRANCE"),
        ));
        g
    }

    #[test]
    fn materialization_support_follows_containment() {
        let p = partial();
        let mut sub = QueryGraph::new();
        sub.add_selection(Selection::new(
            "customer",
            Predicate::new("c_nation", CompareOp::Eq, "FRANCE"),
        ));
        let m = Manipulation::Rewrite { graph: sub.clone() };
        assert!(m.supported_by(&p));
        // The user changes the constant: support vanishes.
        let mut p2 = p.clone();
        p2.remove_selection(&Selection::new(
            "customer",
            Predicate::new("c_nation", CompareOp::Eq, "FRANCE"),
        ));
        p2.add_selection(Selection::new(
            "customer",
            Predicate::new("c_nation", CompareOp::Eq, "JAPAN"),
        ));
        assert!(!m.supported_by(&p2));
    }

    #[test]
    fn index_support_via_selection_or_join_column() {
        let p = partial();
        let on_sel =
            Manipulation::CreateIndex { table: "customer".into(), column: "c_nation".into() };
        assert!(on_sel.supported_by(&p));
        let on_join =
            Manipulation::CreateIndex { table: "orders".into(), column: "o_custkey".into() };
        assert!(on_join.supported_by(&p));
        let unrelated =
            Manipulation::CreateIndex { table: "customer".into(), column: "c_acctbal".into() };
        assert!(!unrelated.supported_by(&p));
    }

    #[test]
    fn prediction_support_is_reversed_containment() {
        // Prediction: the full partial plus one more selection.
        let mut predicted = partial();
        predicted.add_selection(Selection::new(
            "orders",
            Predicate::new("o_orderpriority", CompareOp::Le, 2i64),
        ));
        let m = Manipulation::PredictQuery { graph: predicted.clone() };
        // Supported while the partial grows *inside* the prediction...
        assert!(m.supported_by(&partial()));
        assert!(m.supported_by(&predicted));
        // ...even when the user adds a selection the predictor missed
        // (subsumption keeps it as a residual filter at GO)...
        let mut stronger = predicted.clone();
        stronger.add_selection(Selection::new(
            "customer",
            Predicate::new("c_acctbal", CompareOp::Lt, 500i64),
        ));
        assert!(m.supported_by(&stronger));
        // ...but a relation or join outside the prediction cancels it.
        let mut pivoted = partial();
        pivoted.add_join(Join::new("lineitem", "l_orderkey", "orders", "o_orderkey"));
        assert!(!m.supported_by(&pivoted));
    }

    #[test]
    fn null_is_always_supported() {
        assert!(Manipulation::Null.supported_by(&QueryGraph::new()));
        assert!(Manipulation::Null.is_null());
    }

    #[test]
    fn kind_labels() {
        assert_eq!(Manipulation::Null.kind(), "null");
        assert_eq!(Manipulation::Rewrite { graph: QueryGraph::new() }.kind(), "rewrite");
    }
}
