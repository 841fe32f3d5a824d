//! Canonical keys for query graphs.
//!
//! Materialized-view registries and the speculator's bookkeeping need to
//! ask "have I already materialized this sub-query?" — which requires a
//! canonical, hashable rendering of a graph. `QueryGraph` stores its
//! parts in ordered sets, so a deterministic rendering doubles as a
//! canonical key.

use crate::graph::QueryGraph;
use std::fmt::Write;

/// Deterministic canonical key: equal graphs produce equal keys, and
/// (modulo hash collisions in names) distinct graphs produce distinct keys.
pub fn canonical_key(g: &QueryGraph) -> String {
    let mut s = String::new();
    for r in g.relations() {
        write!(s, "R({r});").unwrap();
    }
    for sel in g.selections() {
        write!(s, "S({},{},{},{});", sel.rel, sel.pred.column, sel.pred.op.sql(), sel.pred.value)
            .unwrap();
    }
    for j in g.joins() {
        write!(s, "J({},{},{},{});", j.left, j.lcol, j.right, j.rcol).unwrap();
    }
    s
}

/// A short, filesystem/table-name-safe digest of the canonical key
/// (FNV-1a 64-bit). Used to name materialized relations (`mv_<digest>`).
pub fn short_digest(g: &QueryGraph) -> String {
    short_digest_of_key(&canonical_key(g))
}

/// [`short_digest`] over an already-rendered canonical key, so a caller
/// that has the key (the engine's `materialize`) derives the digest
/// without re-walking the graph.
pub fn short_digest_of_key(key: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Join, Selection};
    use crate::predicate::{CompareOp, Predicate};

    fn sample() -> QueryGraph {
        let mut g = QueryGraph::new();
        g.add_join(Join::new("R", "a", "S", "a"));
        g.add_selection(Selection::new("R", Predicate::new("c", CompareOp::Gt, 10i64)));
        g
    }

    #[test]
    fn equal_graphs_equal_keys() {
        // Build the same graph in a different order.
        let mut g2 = QueryGraph::new();
        g2.add_selection(Selection::new("R", Predicate::new("c", CompareOp::Gt, 10i64)));
        g2.add_join(Join::new("S", "a", "R", "a"));
        assert_eq!(canonical_key(&sample()), canonical_key(&g2));
        assert_eq!(short_digest(&sample()), short_digest(&g2));
    }

    #[test]
    fn different_graphs_different_keys() {
        let mut g2 = sample();
        g2.add_selection(Selection::new("S", Predicate::new("d", CompareOp::Lt, 5i64)));
        assert_ne!(canonical_key(&sample()), canonical_key(&g2));
        assert_ne!(short_digest(&sample()), short_digest(&g2));
    }

    #[test]
    fn digest_is_hex_16() {
        let d = short_digest(&sample());
        assert_eq!(d.len(), 16);
        assert!(d.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn digest_of_key_matches_digest_of_graph() {
        let g = sample();
        assert_eq!(short_digest(&g), short_digest_of_key(&canonical_key(&g)));
    }

    #[test]
    fn predicate_constant_is_part_of_key() {
        let mut a = QueryGraph::new();
        a.add_selection(Selection::new("R", Predicate::new("c", CompareOp::Gt, 10i64)));
        let mut b = QueryGraph::new();
        b.add_selection(Selection::new("R", Predicate::new("c", CompareOp::Gt, 11i64)));
        assert_ne!(canonical_key(&a), canonical_key(&b));
    }
}
