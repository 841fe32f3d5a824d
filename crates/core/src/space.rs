//! Manipulation-space enumeration.
//!
//! The paper's enumeration strategy (Section 3.5): consider
//! materializations of **individual selection edges** and of
//! **individual join edges enhanced with all attached selection edges**,
//! restricted to sub-graphs of the current partial query. The engine's
//! view-aware optimizer automatically considers previously completed
//! materializations when *building* a new one (the σθ(T) vs σθ(R)⋈S
//! alternative in the paper's example), so reuse does not need separate
//! enumeration entries here.
//!
//! Histogram- and index-creation manipulations are enumerated for every
//! selection column without the structure, so the manipulation-type
//! ablation (the paper's "we verified experimentally that materialization
//! and rewriting are best") can be reproduced by toggling the config.

use crate::manipulation::Manipulation;
use specdb_exec::Database;
use specdb_query::QueryGraph;

/// Which manipulation types the space generates.
#[derive(Debug, Clone)]
pub struct SpaceConfig {
    /// Enumerate histogram creations.
    pub histograms: bool,
    /// Enumerate index creations.
    pub indexes: bool,
    /// Enumerate materializations (of the engine's current view mode —
    /// *query rewriting* in the paper's experiments).
    pub materializations: bool,
    /// Restrict materializations to selection edges only — the paper's
    /// multi-user configuration ("a modified enumeration strategy that
    /// generates materializations of selection predicates only").
    pub selections_only: bool,
    /// Enumerate data-staging manipulations (pre-fetch + pin a prefix of
    /// each relation on the canvas). The paper defines the operation but
    /// could not implement it over a closed DBMS; this engine can, so it
    /// is available for the manipulation-type ablation.
    pub staging: bool,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        // The paper's single-user experimental configuration.
        SpaceConfig {
            histograms: false,
            indexes: false,
            materializations: true,
            selections_only: false,
            staging: false,
        }
    }
}

impl SpaceConfig {
    /// The paper's multi-user configuration.
    pub fn multi_user() -> Self {
        SpaceConfig { selections_only: true, ..Default::default() }
    }

    /// All manipulation types on (for ablations).
    pub fn everything() -> Self {
        SpaceConfig {
            histograms: true,
            indexes: true,
            materializations: true,
            selections_only: false,
            staging: true,
        }
    }

    /// Only histogram creation (ablation arm).
    pub fn histograms_only() -> Self {
        SpaceConfig {
            histograms: true,
            indexes: false,
            materializations: false,
            selections_only: false,
            staging: false,
        }
    }

    /// Only data staging (ablation arm; an extension beyond the paper's
    /// prototype).
    pub fn staging_only() -> Self {
        SpaceConfig {
            histograms: false,
            indexes: false,
            materializations: false,
            selections_only: false,
            staging: true,
        }
    }

    /// Only index creation (ablation arm).
    pub fn indexes_only() -> Self {
        SpaceConfig {
            histograms: false,
            indexes: true,
            materializations: false,
            selections_only: false,
            staging: false,
        }
    }
}

/// The Manipulation Space component (paper Figure 3).
#[derive(Debug, Clone, Default)]
pub struct ManipulationSpace {
    config: SpaceConfig,
}

impl ManipulationSpace {
    /// Space with the given configuration.
    pub fn new(config: SpaceConfig) -> Self {
        ManipulationSpace { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SpaceConfig {
        &self.config
    }

    /// Enumerate candidate manipulations for the current partial query.
    /// `m∅` is always the first element. Candidates whose effect already
    /// exists in the database are skipped.
    pub fn enumerate(&self, partial: &QueryGraph, db: &Database) -> Vec<Manipulation> {
        let mut out = vec![Manipulation::Null];
        if self.config.materializations {
            for s in partial.selections() {
                let g = partial.selection_subgraph(s);
                self.push_unique(&mut out, Manipulation::Rewrite { graph: g }, db);
            }
            if !self.config.selections_only {
                for j in partial.joins() {
                    let g = partial.join_subgraph(j);
                    self.push_unique(&mut out, Manipulation::Rewrite { graph: g }, db);
                }
            }
        }
        if self.config.staging {
            for rel in partial.relations() {
                self.push_unique(
                    &mut out,
                    Manipulation::DataStage { table: rel.to_string(), pages: u32::MAX },
                    db,
                );
            }
        }
        if self.config.indexes || self.config.histograms {
            for s in partial.selections() {
                if self.config.indexes {
                    self.push_unique(
                        &mut out,
                        Manipulation::CreateIndex {
                            table: s.rel.clone(),
                            column: s.pred.column.clone(),
                        },
                        db,
                    );
                }
                if self.config.histograms {
                    self.push_unique(
                        &mut out,
                        Manipulation::CreateHistogram {
                            table: s.rel.clone(),
                            column: s.pred.column.clone(),
                        },
                        db,
                    );
                }
            }
        }
        out
    }

    fn push_unique(&self, out: &mut Vec<Manipulation>, m: Manipulation, db: &Database) {
        if !m.already_applied(db) && !out.contains(&m) {
            out.push(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdb_exec::{CancelToken, DatabaseConfig};
    use specdb_query::{CompareOp, Join, Predicate, Selection};
    use specdb_tpch::{generate_into, TpchConfig};

    fn db() -> Database {
        let mut db = Database::new(DatabaseConfig::with_buffer_pages(2048));
        generate_into(&mut db, &TpchConfig::new(1).build_aux(false)).unwrap();
        db
    }

    fn partial() -> QueryGraph {
        let mut g = QueryGraph::new();
        g.add_join(Join::new("orders", "o_custkey", "customer", "c_custkey"));
        g.add_selection(Selection::new(
            "customer",
            Predicate::new("c_nation", CompareOp::Eq, "FRANCE"),
        ));
        g.add_selection(Selection::new(
            "orders",
            Predicate::new("o_orderpriority", CompareOp::Le, 2i64),
        ));
        g
    }

    #[test]
    fn default_space_enumerates_selections_and_joins() {
        let db = db();
        let space = ManipulationSpace::default();
        let ms = space.enumerate(&partial(), &db);
        assert!(ms[0].is_null());
        let kinds: Vec<&str> = ms.iter().map(|m| m.kind()).collect();
        // 2 selection edges + 1 join edge = 3 rewrites + null.
        assert_eq!(kinds.iter().filter(|k| **k == "rewrite").count(), 3);
        assert_eq!(ms.len(), 4);
        // The join materialization carries both attached selections.
        let join_m = ms
            .iter()
            .filter_map(Manipulation::graph)
            .find(|g| g.join_count() == 1)
            .expect("join candidate");
        assert_eq!(join_m.selection_count(), 2);
    }

    #[test]
    fn selections_only_drops_join_candidates() {
        let db = db();
        let space = ManipulationSpace::new(SpaceConfig::multi_user());
        let ms = space.enumerate(&partial(), &db);
        assert!(ms.iter().filter_map(Manipulation::graph).all(|g| g.join_count() == 0));
        assert_eq!(ms.len(), 3, "null + 2 selection rewrites");
    }

    #[test]
    fn index_and_histogram_candidates() {
        let db = db();
        let space = ManipulationSpace::new(SpaceConfig::everything());
        let ms = space.enumerate(&partial(), &db);
        let kinds: Vec<&str> = ms.iter().map(|m| m.kind()).collect();
        assert!(kinds.contains(&"index"));
        assert!(kinds.contains(&"histogram"));
        assert!(kinds.contains(&"rewrite"));
    }

    #[test]
    fn existing_structures_are_skipped() {
        let mut db = db();
        db.create_index("customer", "c_nation").unwrap();
        db.create_histogram("customer", "c_nation").unwrap();
        let space = ManipulationSpace::new(SpaceConfig::everything());
        let ms = space.enumerate(&partial(), &db);
        assert!(!ms.contains(&Manipulation::CreateIndex {
            table: "customer".into(),
            column: "c_nation".into()
        }));
        assert!(!ms.contains(&Manipulation::CreateHistogram {
            table: "customer".into(),
            column: "c_nation".into()
        }));
        // The orders column is still offered.
        assert!(ms.contains(&Manipulation::CreateIndex {
            table: "orders".into(),
            column: "o_orderpriority".into()
        }));
    }

    #[test]
    fn existing_view_not_re_enumerated() {
        let mut db = db();
        let mut sub = QueryGraph::new();
        sub.add_selection(Selection::new(
            "customer",
            Predicate::new("c_nation", CompareOp::Eq, "FRANCE"),
        ));
        let view = db.materialize(&sub, CancelToken::new()).unwrap().table;
        let space = ManipulationSpace::default();
        let ms = space.enumerate(&partial(), &db);
        assert!(
            !ms.iter().any(|m| m.graph() == Some(&sub)),
            "already-materialized sub-query must not reappear"
        );
        db.drop_materialized(&view);
        let ms = space.enumerate(&partial(), &db);
        assert!(
            ms.iter().any(|m| m.graph() == Some(&sub)),
            "a dropped view's sub-query must be offered again"
        );
    }

    #[test]
    fn staging_arm_enumerates_canvas_relations() {
        let db = db();
        let space = ManipulationSpace::new(SpaceConfig::staging_only());
        let ms = space.enumerate(&partial(), &db);
        let stages: Vec<&Manipulation> = ms.iter().filter(|m| m.kind() == "stage").collect();
        assert_eq!(stages.len(), 2, "customer and orders are on the canvas");
        assert!(ms.iter().all(|m| m.is_null() || m.kind() == "stage"));
    }

    #[test]
    fn staged_tables_not_re_enumerated() {
        let mut db = db();
        db.stage("customer", 4).unwrap();
        let space = ManipulationSpace::new(SpaceConfig::staging_only());
        let ms = space.enumerate(&partial(), &db);
        assert!(!ms
            .iter()
            .any(|m| matches!(m, Manipulation::DataStage { table, .. } if table == "customer")));
    }

    #[test]
    fn empty_partial_yields_only_null() {
        let db = db();
        let ms = ManipulationSpace::default().enumerate(&QueryGraph::new(), &db);
        assert_eq!(ms.len(), 1);
        assert!(ms[0].is_null());
    }
}
