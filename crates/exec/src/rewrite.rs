//! Materialized-view registry and sub-graph rewriting.
//!
//! Speculative *query materialization* stores the result of a sub-query
//! `qm`; when the final query `q` arrives with `qm ⊆ q`, the sub-graph
//! `qm` is replaced by a scan of the stored result. The paper's two
//! flavours map to [`crate::engine::ViewMode`]:
//!
//! * **query rewriting** — the replacement is forced (what the paper's
//!   prototype used against Oracle 8i, and the source of its occasional
//!   penalties when the materialized relation lacks a useful index),
//! * **query materialization** — the optimizer costs the rewritten and
//!   original forms and keeps the cheaper (classic matview matching).
//!
//! Stored view tables name their columns with base-qualified names
//! (`"R.a"`), so a rewritten graph — whose selections and joins against
//! the view reference those dotted names — plans and executes through
//! the ordinary optimizer with no special cases.

use crate::optimizer::qualify;
use specdb_query::{canonical_key, Join, Query, QueryGraph, Selection};
use std::collections::BTreeMap;

/// A registered materialized view.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// Catalog table holding the materialized rows (`mv_<digest>`).
    pub name: String,
    /// Definition over base relations.
    pub graph: QueryGraph,
}

impl ViewDef {
    /// Number of atomic parts (used to prefer larger rewrites).
    pub fn weight(&self) -> usize {
        self.graph.rel_count() + self.graph.selection_count() + 2 * self.graph.join_count()
    }
}

/// Registry of materialized views keyed by canonical graph key.
/// Ordered by key, so every iteration (rewrite candidates, the greedy
/// rewrite's tie-break among equal-weight views, GC sweeps) is the same
/// in every process.
#[derive(Debug, Default, Clone)]
pub struct ViewRegistry {
    by_key: BTreeMap<String, ViewDef>,
}

impl ViewRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a view (replaces any previous view of the same graph).
    pub fn register(&mut self, def: ViewDef) {
        self.by_key.insert(canonical_key(&def.graph), def);
    }

    /// [`ViewRegistry::register`] with the defining graph's canonical key
    /// already rendered — callers that computed the key for other
    /// bookkeeping (the engine's `materialize`) avoid re-walking the
    /// graph. `key` must equal `canonical_key(&def.graph)`.
    pub fn register_with_key(&mut self, key: String, def: ViewDef) {
        debug_assert_eq!(key, canonical_key(&def.graph));
        self.by_key.insert(key, def);
    }

    /// Look up a view by its defining graph.
    pub fn get(&self, graph: &QueryGraph) -> Option<&ViewDef> {
        self.by_key.get(&canonical_key(graph))
    }

    /// [`ViewRegistry::get`] for a pre-rendered canonical key.
    pub fn get_by_key(&self, key: &str) -> Option<&ViewDef> {
        self.by_key.get(key)
    }

    /// Remove a view by table name; returns it if present.
    pub fn remove_by_name(&mut self, name: &str) -> Option<ViewDef> {
        let key = self.by_key.iter().find(|(_, v)| v.name == name).map(|(k, _)| k.clone())?;
        self.by_key.remove(&key)
    }

    /// All registered views.
    pub fn iter(&self) -> impl Iterator<Item = &ViewDef> {
        self.by_key.values()
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// True if no views are registered.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Views applicable to a query graph under a [`MatchMode`]: the
    /// view's graph must be a sub-graph, and every join edge of the query
    /// between two replaced relations must itself be part of the view
    /// (otherwise the rewrite would need a self-join on the view, which
    /// the conjunctive planner does not express). With
    /// [`MatchMode::Subsume`], a view whose selections are *implied* by
    /// the query's (e.g. the view kept `age < 30`, the query asks
    /// `age < 20`) also qualifies; [`apply_view`] then keeps the query's
    /// stronger predicates as residual filters over the view.
    pub fn applicable<'a>(
        &'a self,
        graph: &'a QueryGraph,
        mode: MatchMode,
    ) -> impl Iterator<Item = &'a ViewDef> {
        self.by_key.values().filter(move |v| {
            !v.graph.is_empty() && view_matches(&v.graph, graph, mode) && {
                graph.joins().all(|j| {
                    let both_inside =
                        v.graph.has_relation(&j.left) && v.graph.has_relation(&j.right);
                    !both_inside || v.graph.joins().any(|vj| vj == j)
                })
            }
        })
    }

    /// Views whose defining graph is contained in `graph` under a
    /// [`MatchMode`] — used by the paper's garbage-collection heuristic
    /// ("the result of a manipulation persists as long as the current
    /// partial query indicates it will be useful"). With subsumption, a
    /// view stays alive while the partial query's predicates still imply
    /// its own.
    pub fn supported_by<'a>(
        &'a self,
        graph: &'a QueryGraph,
        mode: MatchMode,
    ) -> impl Iterator<Item = &'a ViewDef> {
        self.by_key.values().filter(move |v| view_matches(&v.graph, graph, mode))
    }
}

/// How view definitions are matched against query graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// The paper's matching: the view graph must be a sub-graph of the
    /// query graph, predicate constants and all.
    #[default]
    Exact,
    /// Extension: view selections may be *implied* by query selections
    /// (predicate subsumption); relations and joins still match exactly.
    Subsume,
}

/// Does `view` answer `query` under `mode`? (Relations and joins must be
/// contained either way; selections differ by mode.)
fn view_matches(view: &QueryGraph, query: &QueryGraph, mode: MatchMode) -> bool {
    match mode {
        MatchMode::Exact => query.contains(view),
        MatchMode::Subsume => {
            view.relations().all(|r| query.has_relation(r))
                && view.joins().all(|vj| query.joins().any(|qj| qj == vj))
                && view
                    .selections()
                    .all(|vs| query.selections_on(&vs.rel).any(|qs| qs.pred.implies(&vs.pred)))
        }
    }
}

/// Rewrite `query` to use `view`, which must be applicable (see
/// [`ViewRegistry::applicable`]). Returns the rewritten query whose graph
/// references the view's table as an ordinary relation.
pub fn apply_view(query: &Query, view: &ViewDef) -> Query {
    let replaced: Vec<&str> = view.graph.relations().collect();
    let is_replaced = |r: &str| replaced.contains(&r);
    let mut graph = QueryGraph::new();
    graph.add_relation(view.name.clone());
    for r in query.graph.relations() {
        if !is_replaced(r) {
            graph.add_relation(r);
        }
    }
    // Selections: the view's own are pre-applied; others on replaced
    // relations retarget to the view's qualified columns.
    for s in query.graph.selections() {
        if view.graph.selections().any(|vs| vs == s) {
            continue;
        }
        if is_replaced(&s.rel) {
            graph.add_selection(Selection::new(
                view.name.clone(),
                specdb_query::Predicate {
                    column: qualify(&s.rel, &s.pred.column),
                    op: s.pred.op,
                    value: s.pred.value.clone(),
                },
            ));
        } else {
            graph.add_selection(s.clone());
        }
    }
    // Joins: the view's own disappear; edges crossing the boundary
    // retarget their replaced endpoint to the view.
    for j in query.graph.joins() {
        if view.graph.joins().any(|vj| vj == j) {
            continue;
        }
        let (lrel, lcol) = if is_replaced(&j.left) {
            (view.name.clone(), qualify(&j.left, &j.lcol))
        } else {
            (j.left.clone(), j.lcol.clone())
        };
        let (rrel, rcol) = if is_replaced(&j.right) {
            (view.name.clone(), qualify(&j.right, &j.rcol))
        } else {
            (j.right.clone(), j.rcol.clone())
        };
        graph.add_join(Join::new(lrel, lcol, rrel, rcol));
    }
    // Projections retarget similarly.
    let retarget = |rel: &str, col: &str| -> (String, String) {
        if is_replaced(rel) {
            (view.name.clone(), qualify(rel, col))
        } else {
            (rel.to_string(), col.to_string())
        }
    };
    let projections = query.projections.iter().map(|(rel, col)| retarget(rel, col)).collect();
    // The aggregate layer sits on top of the core: its column references
    // retarget exactly like projections.
    let agg = query.agg.as_ref().map(|a| specdb_query::AggSpec {
        group_by: a.group_by.iter().map(|(r, c)| retarget(r, c)).collect(),
        aggs: a
            .aggs
            .iter()
            .map(|ag| specdb_query::Aggregate {
                func: ag.func,
                arg: ag.arg.as_ref().map(|(r, c)| retarget(r, c)),
            })
            .collect(),
    });
    Query { graph, projections, agg }
}

/// Greedily rewrite with the largest applicable views (under `mode`)
/// until none apply. This is the paper's *query rewriting*:
/// materialized sub-queries are always replaced. Returns the rewritten
/// query and the names of the views used (empty when nothing applied).
pub fn rewrite_greedy(
    query: &Query,
    registry: &ViewRegistry,
    mode: MatchMode,
) -> (Query, Vec<String>) {
    let mut current = query.clone();
    let mut used = Vec::new();
    loop {
        let best = registry.applicable(&current.graph, mode).max_by_key(|v| v.weight()).cloned();
        match best {
            Some(v) => {
                current = apply_view(&current, &v);
                used.push(v.name);
            }
            None => break,
        }
    }
    (current, used)
}

/// Candidate rewritings for cost-based selection under `mode`: the
/// original, each single applicable view, and the greedy full rewrite.
pub fn rewrite_candidates(
    query: &Query,
    registry: &ViewRegistry,
    mode: MatchMode,
) -> Vec<(Query, Vec<String>)> {
    let mut out = vec![(query.clone(), Vec::new())];
    for v in registry.applicable(&query.graph, mode) {
        out.push((apply_view(query, v), vec![v.name.clone()]));
    }
    let (greedy, used) = rewrite_greedy(query, registry, mode);
    if used.len() > 1 {
        out.push((greedy, used));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdb_query::{CompareOp, Predicate};

    fn sel(rel: &str, col: &str, op: CompareOp, v: i64) -> Selection {
        Selection::new(rel, Predicate::new(col, op, v))
    }

    /// σ(R.c>10)(R) ⋈a S ⋈b W with σ(W.d<2000), paper Figure 2.
    fn figure2_query() -> Query {
        let mut g = QueryGraph::new();
        g.add_join(Join::new("R", "a", "S", "a"));
        g.add_join(Join::new("S", "b", "W", "b"));
        g.add_selection(sel("R", "c", CompareOp::Gt, 10));
        g.add_selection(sel("W", "d", CompareOp::Lt, 2000));
        Query::star(g)
    }

    fn view_sigma_r() -> ViewDef {
        let mut g = QueryGraph::new();
        g.add_selection(sel("R", "c", CompareOp::Gt, 10));
        ViewDef { name: "mv_sigr".into(), graph: g }
    }

    fn view_rs_join() -> ViewDef {
        let mut g = QueryGraph::new();
        g.add_join(Join::new("R", "a", "S", "a"));
        g.add_selection(sel("R", "c", CompareOp::Gt, 10));
        ViewDef { name: "mv_rs".into(), graph: g }
    }

    #[test]
    fn registry_round_trip() {
        let mut reg = ViewRegistry::new();
        reg.register(view_sigma_r());
        assert_eq!(reg.len(), 1);
        assert!(reg.get(&view_sigma_r().graph).is_some());
        assert!(reg.remove_by_name("mv_sigr").is_some());
        assert!(reg.is_empty());
    }

    #[test]
    fn keyed_register_and_lookup_agree_with_graph_paths() {
        let mut reg = ViewRegistry::new();
        let v = view_sigma_r();
        let key = canonical_key(&v.graph);
        reg.register_with_key(key.clone(), v.clone());
        assert_eq!(reg.get_by_key(&key).unwrap().name, "mv_sigr");
        assert_eq!(reg.get(&v.graph).unwrap().name, "mv_sigr");
        assert!(reg.get_by_key("R(nope);").is_none());
    }

    #[test]
    fn applicable_respects_containment() {
        let mut reg = ViewRegistry::new();
        reg.register(view_sigma_r());
        let q = figure2_query();
        assert_eq!(reg.applicable(&q.graph, MatchMode::Exact).count(), 1);
        // A view with a different constant is not contained.
        let mut g = QueryGraph::new();
        g.add_selection(sel("R", "c", CompareOp::Gt, 99));
        reg.register(ViewDef { name: "mv_other".into(), graph: g });
        assert_eq!(reg.applicable(&q.graph, MatchMode::Exact).count(), 1);
    }

    #[test]
    fn apply_selection_view() {
        let q = figure2_query();
        let rewritten = apply_view(&q, &view_sigma_r());
        assert!(rewritten.graph.has_relation("mv_sigr"));
        assert!(!rewritten.graph.has_relation("R"));
        // R's selection is pre-applied; W's survives untouched.
        assert_eq!(rewritten.graph.selection_count(), 1);
        assert_eq!(rewritten.graph.selections().next().unwrap().rel, "W");
        // The R-S join crosses the boundary and retargets.
        let joins: Vec<_> = rewritten.graph.joins().collect();
        assert_eq!(joins.len(), 2);
        assert!(joins
            .iter()
            .any(|j| j.touches("mv_sigr") && j.other("mv_sigr").unwrap().0 == "R.a"));
    }

    #[test]
    fn apply_join_view() {
        let q = figure2_query();
        let rewritten = apply_view(&q, &view_rs_join());
        assert!(rewritten.graph.has_relation("mv_rs"));
        assert!(!rewritten.graph.has_relation("R"));
        assert!(!rewritten.graph.has_relation("S"));
        assert!(rewritten.graph.has_relation("W"));
        assert_eq!(rewritten.graph.join_count(), 1);
        let j = rewritten.graph.joins().next().unwrap();
        assert!(j.touches("mv_rs") && j.touches("W"));
        assert_eq!(j.other("W").unwrap().2, "S.b");
    }

    #[test]
    fn projections_retarget() {
        let q = figure2_query().project("R", "c").project("W", "d");
        let rewritten = apply_view(&q, &view_sigma_r());
        assert_eq!(
            rewritten.projections,
            vec![("mv_sigr".to_string(), "R.c".to_string()), ("W".to_string(), "d".to_string())]
        );
    }

    #[test]
    fn greedy_prefers_larger_view() {
        let mut reg = ViewRegistry::new();
        reg.register(view_sigma_r());
        reg.register(view_rs_join());
        let (rewritten, used) = rewrite_greedy(&figure2_query(), &reg, MatchMode::Exact);
        assert_eq!(used, vec!["mv_rs".to_string()]);
        assert!(rewritten.graph.has_relation("mv_rs"));
        // After the join view applies, the selection view's R is gone, so
        // it cannot also apply.
        assert!(!rewritten.graph.has_relation("mv_sigr"));
    }

    #[test]
    fn join_between_replaced_rels_blocks_view() {
        // Query has two join edges between R and S; a view covering only
        // one of them must not be applicable.
        let mut g = QueryGraph::new();
        g.add_join(Join::new("R", "a", "S", "a"));
        g.add_join(Join::new("R", "x", "S", "y"));
        let q = Query::star(g);
        let mut vg = QueryGraph::new();
        vg.add_join(Join::new("R", "a", "S", "a"));
        let mut reg = ViewRegistry::new();
        reg.register(ViewDef { name: "mv_partial".into(), graph: vg });
        assert_eq!(reg.applicable(&q.graph, MatchMode::Exact).count(), 0);
    }

    #[test]
    fn rewrite_candidates_include_original() {
        let mut reg = ViewRegistry::new();
        reg.register(view_sigma_r());
        let cands = rewrite_candidates(&figure2_query(), &reg, MatchMode::Exact);
        assert_eq!(cands.len(), 2);
        assert!(cands[0].1.is_empty());
        assert_eq!(cands[1].1, vec!["mv_sigr".to_string()]);
    }

    #[test]
    fn subsumption_matches_weaker_view() {
        // View kept R.c > 10; the query asks R.c > 50 (stronger).
        let mut reg = ViewRegistry::new();
        reg.register(view_sigma_r()); // σ(R.c > 10)
        let mut g = QueryGraph::new();
        g.add_selection(sel("R", "c", CompareOp::Gt, 50));
        assert_eq!(reg.applicable(&g, MatchMode::Exact).count(), 0);
        assert_eq!(reg.applicable(&g, MatchMode::Subsume).count(), 1);
        // The rewritten query keeps the stronger predicate as a residual
        // over the view's qualified column.
        let (rewritten, used) = rewrite_greedy(&Query::star(g), &reg, MatchMode::Subsume);
        assert_eq!(used.len(), 1);
        assert!(rewritten.graph.has_relation("mv_sigr"));
        let residuals: Vec<_> = rewritten.graph.selections().collect();
        assert_eq!(residuals.len(), 1);
        assert_eq!(residuals[0].rel, "mv_sigr");
        assert_eq!(residuals[0].pred.column, "R.c");
        assert_eq!(residuals[0].pred.op, CompareOp::Gt);
    }

    #[test]
    fn subsumption_rejects_stronger_view() {
        // View kept R.c > 50; the query asks R.c > 10 — the view is
        // missing rows and must NOT match in either mode.
        let mut vg = QueryGraph::new();
        vg.add_selection(sel("R", "c", CompareOp::Gt, 50));
        let mut reg = ViewRegistry::new();
        reg.register(ViewDef { name: "mv_strong".into(), graph: vg });
        let mut g = QueryGraph::new();
        g.add_selection(sel("R", "c", CompareOp::Gt, 10));
        assert_eq!(reg.applicable(&g, MatchMode::Exact).count(), 0);
        assert_eq!(reg.applicable(&g, MatchMode::Subsume).count(), 0);
    }

    #[test]
    fn subsumption_requires_exact_joins() {
        let mut reg = ViewRegistry::new();
        reg.register(view_rs_join()); // R ⋈a S with σ(R.c>10)
                                      // Same selection (stronger), but a different join column.
        let mut g = QueryGraph::new();
        g.add_join(Join::new("R", "z", "S", "z"));
        g.add_selection(sel("R", "c", CompareOp::Gt, 99));
        assert_eq!(reg.applicable(&g, MatchMode::Subsume).count(), 0);
    }

    #[test]
    fn subsumption_gc_keeps_still_useful_views() {
        let mut reg = ViewRegistry::new();
        reg.register(view_sigma_r()); // σ(R.c > 10)
        let mut g = QueryGraph::new();
        g.add_selection(sel("R", "c", CompareOp::Gt, 60));
        assert_eq!(reg.supported_by(&g, MatchMode::Exact).count(), 0);
        assert_eq!(reg.supported_by(&g, MatchMode::Subsume).count(), 1);
    }

    #[test]
    fn supported_by_tracks_gc_heuristic() {
        let mut reg = ViewRegistry::new();
        reg.register(view_sigma_r());
        let q = figure2_query();
        assert_eq!(reg.supported_by(&q.graph, MatchMode::Exact).count(), 1);
        // Partial query loses the predicate: the view is no longer supported.
        let mut g2 = q.graph.clone();
        g2.remove_selection(&sel("R", "c", CompareOp::Gt, 10));
        assert_eq!(reg.supported_by(&g2, MatchMode::Exact).count(), 0);
    }
}
