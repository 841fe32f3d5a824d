//! The speculative cost model.
//!
//! Theorem 3.1 of the paper: under containment dependence (P1) and
//! linearity (P2), minimizing the expected final-query cost over the
//! infinite universe of possible queries reduces to minimizing
//!
//! ```text
//! Cost⊆(m) = f⊆(qm) × (cost(qm, m) − cost(qm, m∅))
//! ```
//!
//! per manipulation — a *local* quantity: the probability the
//! materialized sub-query stays in the final query, times the difference
//! between scanning the materialized result and computing it from
//! scratch. Negative values are expected benefit; `Cost⊆(m∅) = 0`.
//!
//! Two extensions the paper sketches are implemented:
//!
//! * **depth-n speculation** (Section 3.3, `CostModelConfig::depth`): a
//!   materialization that persists across queries is reused; the
//!   expected benefit over the next `n` final queries is
//!   `Σ_{k=0}^{n-1} p_persist(qm)^k` times the single-query benefit,
//! * **completion probability**: a manipulation only helps if it
//!   finishes before GO, so the benefit is weighted by
//!   `P(remaining think time > build time)` from the profile's
//!   think-time model.

use crate::learner::Profile;
use crate::manipulation::Manipulation;
use specdb_exec::{Database, Estimator};
use specdb_query::{CompareOp, Query, QueryGraph};
use specdb_storage::{ResourceDemand, VirtualTime, PAGE_SIZE};

/// Heuristic benefit fraction for histogram creation (histograms
/// improve estimates, not execution directly; the paper notes their
/// low cost / low specificity trade-off).
const HISTOGRAM_BENEFIT: f64 = 0.05;

/// Candidates whose completion probability falls below this floor score
/// zero: issuing a manipulation that almost surely cannot finish before
/// GO wastes the single outstanding slot (the paper keeps "the overall
/// system load low" with the one-outstanding rule; this guard keeps the
/// slot useful).
const MIN_COMPLETION_PROB: f64 = 0.15;

/// Materializations must beat recomputation by at least this fraction
/// (`scan(result) ≤ (1 − f) · compute`): near-useless views (e.g. a
/// 90%-selectivity predicate) are never worth the rewriting risk of
/// losing an index-based plan on the base relation.
const MIN_RELATIVE_BENEFIT: f64 = 0.3;

/// Cost model configuration.
#[derive(Debug, Clone)]
pub struct CostModelConfig {
    /// Speculation depth `n ≥ 1`: how many future queries a
    /// materialization is scored against.
    pub depth: usize,
}

impl Default for CostModelConfig {
    fn default() -> Self {
        CostModelConfig { depth: 1 }
    }
}

/// A scored view of one manipulation.
#[derive(Debug, Clone)]
pub struct Scored {
    /// `Cost⊆(m)` in virtual seconds; negative = expected benefit.
    pub score: f64,
    /// Estimated execution time of the manipulation itself.
    pub build: VirtualTime,
    /// Raw `cost(qm, m) − cost(qm, m∅)` in seconds, before weighting
    /// (negative = the prepared form is cheaper). Drives the wait-at-GO
    /// policy, which needs the undiscounted benefit of a completed
    /// manipulation.
    pub delta_secs: f64,
}

/// The Cost Model component (paper Figure 3).
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    config: CostModelConfig,
}

impl CostModel {
    /// Cost model with the given configuration.
    pub fn new(config: CostModelConfig) -> Self {
        CostModel { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CostModelConfig {
        &self.config
    }

    /// Score a manipulation against the current partial query.
    /// `elapsed` is how long the current formulation has been running
    /// (for the completion-probability term).
    pub fn score(
        &self,
        m: &Manipulation,
        partial: &QueryGraph,
        db: &Database,
        profile: &dyn Profile,
        elapsed: VirtualTime,
    ) -> Scored {
        match m {
            Manipulation::Null => Scored { score: 0.0, build: VirtualTime::ZERO, delta_secs: 0.0 },
            Manipulation::DataStage { table, pages } => {
                self.score_stage(table, *pages, db, profile, elapsed)
            }
            Manipulation::Rewrite { graph } => {
                self.score_materialization(graph, db, profile, elapsed)
            }
            Manipulation::CreateIndex { table, column } => {
                self.score_index(table, column, partial, db, profile, elapsed)
            }
            Manipulation::CreateHistogram { table, column } => {
                self.score_histogram(table, column, partial, db, profile, elapsed)
            }
            // Generic entry point has no sequence probability; callers
            // with predictor output use `score_prediction` directly.
            Manipulation::PredictQuery { graph } => {
                self.score_prediction(graph, 1.0, db, profile, elapsed)
            }
        }
    }

    /// Score a predicted *completed* query (whole-query speculation):
    /// Theorem 3.1 extended from part-survival to sequence probability —
    /// `seq_prob` (the predictor's probability of reaching exactly this
    /// final query) replaces `f⊆(qm)`, and the benefit is the same
    /// scan-result-vs-recompute delta, completion-weighted. No depth
    /// multiplier: a predicted query is consumed by the GO it targets.
    pub fn score_prediction(
        &self,
        qm: &QueryGraph,
        seq_prob: f64,
        db: &Database,
        profile: &dyn Profile,
        elapsed: VirtualTime,
    ) -> Scored {
        let Ok(est) = db.estimate_materialization(qm) else {
            return Scored { score: 0.0, build: VirtualTime::ZERO, delta_secs: 0.0 };
        };
        let delta = est.scan_result.as_secs_f64() - est.compute_now.as_secs_f64();
        let required = -MIN_RELATIVE_BENEFIT * est.compute_now.as_secs_f64();
        if delta > required {
            return Scored { score: 0.0, build: est.build, delta_secs: delta };
        }
        let p_c = self.completion(profile, elapsed, est.build);
        Scored {
            score: p_c * seq_prob.clamp(0.0, 1.0) * delta,
            build: est.build,
            delta_secs: delta,
        }
    }

    /// Depth-n multiplier: `Σ_{k=0}^{n-1} p^k`.
    fn depth_multiplier(&self, p_persist: f64) -> f64 {
        let n = self.config.depth.max(1);
        let p = p_persist.clamp(0.0, 1.0);
        if (1.0 - p).abs() < 1e-12 {
            n as f64
        } else {
            (1.0 - p.powi(n as i32)) / (1.0 - p)
        }
    }

    fn completion(&self, profile: &dyn Profile, elapsed: VirtualTime, build: VirtualTime) -> f64 {
        let p = profile.p_think_exceeds(elapsed, build);
        if p < MIN_COMPLETION_PROB {
            0.0
        } else {
            p
        }
    }

    fn score_materialization(
        &self,
        qm: &QueryGraph,
        db: &Database,
        profile: &dyn Profile,
        elapsed: VirtualTime,
    ) -> Scored {
        let Ok(est) = db.estimate_materialization(qm) else {
            return Scored { score: 0.0, build: VirtualTime::ZERO, delta_secs: 0.0 };
        };
        let delta = est.scan_result.as_secs_f64() - est.compute_now.as_secs_f64();
        // Relative-benefit guard: a view that barely beats recomputation
        // is all risk (forced rewrites forgo base-table indexes).
        let required = -MIN_RELATIVE_BENEFIT * est.compute_now.as_secs_f64();
        if delta > required {
            return Scored { score: 0.0, build: est.build, delta_secs: delta };
        }
        let f_sub = profile.p_contained(qm);
        let mult = self.depth_multiplier(profile.p_graph_persists(qm));
        let p_c = self.completion(profile, elapsed, est.build);
        Scored { score: p_c * f_sub * mult * delta, build: est.build, delta_secs: delta }
    }

    fn score_index(
        &self,
        table: &str,
        column: &str,
        partial: &QueryGraph,
        db: &Database,
        profile: &dyn Profile,
        elapsed: VirtualTime,
    ) -> Scored {
        // The index benefits the selection edge(s) on this column.
        let Some(sel) = partial
            .selections_on(table)
            .find(|s| s.pred.column == column && s.pred.op != CompareOp::Ne)
        else {
            return Scored { score: 0.0, build: VirtualTime::ZERO, delta_secs: 0.0 };
        };
        let est = Estimator::new(db.catalog(), db.pool());
        let (rows, pages) = est.table_size(table);
        let sel_frac = est.selectivity(table, column, sel.pred.op, &sel.pred.value);
        let matched = rows * sel_frac;
        // cost(qm, m): index probe + unclustered fetches.
        let with_index = db.disk().time(&ResourceDemand {
            rand_reads: (1.0 + matched.min(pages)).round() as u64,
            cpu_tuples: (2.0 * matched).round() as u64,
            ..Default::default()
        });
        // cost(qm, m∅): current best access for the selection alone.
        let qm = partial.selection_subgraph(sel);
        let Ok(without) = db.estimate_query_time(&Query::star(qm.clone())) else {
            return Scored { score: 0.0, build: VirtualTime::ZERO, delta_secs: 0.0 };
        };
        // Build: scan the table + sort + write leaf pages.
        let leaf_pages = (rows * 40.0 / PAGE_SIZE as f64).ceil() as u64;
        let build = db.disk().time(&ResourceDemand {
            seq_reads: pages as u64,
            writes: leaf_pages,
            cpu_tuples: (rows * 2.0) as u64,
            ..Default::default()
        });
        let delta = with_index.as_secs_f64() - without.as_secs_f64();
        let f_sub = profile.p_contained(&qm);
        let mult = self.depth_multiplier(profile.p_graph_persists(&qm));
        let p_c = self.completion(profile, elapsed, build);
        Scored { score: p_c * f_sub * mult * delta, build, delta_secs: delta }
    }

    fn score_histogram(
        &self,
        table: &str,
        column: &str,
        partial: &QueryGraph,
        db: &Database,
        profile: &dyn Profile,
        elapsed: VirtualTime,
    ) -> Scored {
        let Some(sel) = partial.selections_on(table).find(|s| s.pred.column == column) else {
            return Scored { score: 0.0, build: VirtualTime::ZERO, delta_secs: 0.0 };
        };
        let qm = partial.selection_subgraph(sel);
        let Ok(compute_now) = db.estimate_query_time(&Query::star(qm.clone())) else {
            return Scored { score: 0.0, build: VirtualTime::ZERO, delta_secs: 0.0 };
        };
        let est = Estimator::new(db.catalog(), db.pool());
        let (rows, pages) = est.table_size(table);
        let build = db.disk().time(&ResourceDemand {
            seq_reads: pages as u64,
            cpu_tuples: rows as u64,
            ..Default::default()
        });
        // Better statistics are worth a (configured) fraction of the
        // query cost they inform — a deliberate heuristic, see module docs.
        let delta = -HISTOGRAM_BENEFIT * compute_now.as_secs_f64();
        let f_sub = profile.p_contained(&qm);
        let p_c = self.completion(profile, elapsed, build);
        Scored { score: p_c * f_sub * delta, build, delta_secs: delta }
    }

    fn score_stage(
        &self,
        table: &str,
        pages: u32,
        db: &Database,
        profile: &dyn Profile,
        elapsed: VirtualTime,
    ) -> Scored {
        // Staging saves the sequential read of the pinned pages.
        let est = Estimator::new(db.catalog(), db.pool());
        let (_, tpages) = est.table_size(table);
        let staged = (pages as f64).min(tpages);
        let build = db
            .disk()
            .time(&ResourceDemand { seq_reads: staged as u64, ..Default::default() });
        let delta = -build.as_secs_f64();
        let p_c = self.completion(profile, elapsed, build);
        Scored { score: p_c * delta * 0.5, build, delta_secs: delta }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::UniformProfile;
    use specdb_exec::DatabaseConfig;
    use specdb_query::Selection;
    use specdb_query::{Join, Predicate};
    use specdb_tpch::{generate_into, TpchConfig};

    /// Mean think time long enough that every build completes before GO
    /// (`p_think_exceeds` ≈ 1), so scores are not discounted by completion.
    const PATIENT: f64 = 1e9;

    fn db() -> Database {
        let mut db = Database::new(DatabaseConfig::with_buffer_pages(2048));
        generate_into(&mut db, &TpchConfig::new(2).build_aux(false)).unwrap();
        db
    }

    fn nation_sel() -> Selection {
        Selection::new("customer", Predicate::new("c_nation", CompareOp::Eq, "FRANCE"))
    }

    fn partial_with_selection() -> QueryGraph {
        let mut g = QueryGraph::new();
        g.add_selection(nation_sel());
        g
    }

    #[test]
    fn null_scores_zero() {
        let db = db();
        let cm = CostModel::default();
        let p = UniformProfile::default();
        let s = cm.score(&Manipulation::Null, &QueryGraph::new(), &db, &p, VirtualTime::ZERO);
        assert_eq!(s.score, 0.0);
    }

    #[test]
    fn selective_materialization_is_beneficial() {
        let db = db();
        let cm = CostModel::default();
        let p = UniformProfile { p: 0.9, think_mean_secs: PATIENT };
        let g = partial_with_selection();
        let m = Manipulation::Rewrite { graph: g.clone() };
        let s = cm.score(&m, &g, &db, &p, VirtualTime::ZERO);
        assert!(s.score < 0.0, "selective materialization should score negative: {}", s.score);
        assert!(s.build > VirtualTime::ZERO);
    }

    #[test]
    fn survival_probability_scales_score() {
        let db = db();
        let cm = CostModel::default();
        let g = partial_with_selection();
        let m = Manipulation::Rewrite { graph: g.clone() };
        let hi = cm.score(
            &m,
            &g,
            &db,
            &UniformProfile { p: 0.9, think_mean_secs: PATIENT },
            VirtualTime::ZERO,
        );
        let lo = cm.score(
            &m,
            &g,
            &db,
            &UniformProfile { p: 0.1, think_mean_secs: PATIENT },
            VirtualTime::ZERO,
        );
        assert!(hi.score < lo.score, "higher survival → more negative score");
    }

    #[test]
    fn depth_multiplier_formula() {
        let cm = CostModel::new(CostModelConfig { depth: 3 });
        assert!((cm.depth_multiplier(0.0) - 1.0).abs() < 1e-9);
        assert!((cm.depth_multiplier(1.0) - 3.0).abs() < 1e-9);
        assert!((cm.depth_multiplier(0.5) - 1.75).abs() < 1e-9);
        let cm1 = CostModel::default();
        assert!((cm1.depth_multiplier(0.99) - 1.0).abs() < 1e-9, "depth 1 ignores persistence");
    }

    #[test]
    fn deeper_speculation_values_persistence() {
        let db = db();
        let g = partial_with_selection();
        let m = Manipulation::Rewrite { graph: g.clone() };
        let p = UniformProfile { p: 0.9, think_mean_secs: PATIENT };
        let shallow =
            CostModel::new(CostModelConfig { depth: 1 }).score(&m, &g, &db, &p, VirtualTime::ZERO);
        let deep =
            CostModel::new(CostModelConfig { depth: 3 }).score(&m, &g, &db, &p, VirtualTime::ZERO);
        assert!(deep.score < shallow.score, "depth 3 should find more benefit");
    }

    #[test]
    fn completion_probability_discounts_slow_builds() {
        let db = db();
        let g = partial_with_selection();
        let m = Manipulation::Rewrite { graph: g.clone() };
        // Think time of ~1 ms: the build almost never completes, so the
        // discounted benefit must be a tiny fraction of the raw benefit.
        let impatient = UniformProfile { p: 0.9, think_mean_secs: 0.0001 };
        let patient = UniformProfile { p: 0.9, think_mean_secs: PATIENT };
        let cm = CostModel::default();
        let discounted = cm.score(&m, &g, &db, &impatient, VirtualTime::ZERO);
        let raw = cm.score(&m, &g, &db, &patient, VirtualTime::ZERO);
        assert!(raw.score < 0.0);
        assert!(
            discounted.score.abs() < 0.05 * raw.score.abs(),
            "impatient {} vs patient {}",
            discounted.score,
            raw.score
        );
    }

    #[test]
    fn index_scores_negative_when_it_helps() {
        let db = db();
        let cm = CostModel::default();
        let p = UniformProfile { p: 0.9, think_mean_secs: PATIENT };
        // Very selective predicate (near-key equality) on the biggest
        // table: the index pays. Lower-selectivity predicates correctly
        // score positive because unclustered fetches cost random I/O —
        // exactly the trade-off the paper's cost model must capture.
        let mut g = QueryGraph::new();
        g.add_selection(Selection::new(
            "lineitem",
            Predicate::new("l_orderkey", CompareOp::Eq, 37i64),
        ));
        let m = Manipulation::CreateIndex { table: "lineitem".into(), column: "l_orderkey".into() };
        let s = cm.score(&m, &g, &db, &p, VirtualTime::ZERO);
        assert!(s.score < 0.0, "selective index should help: {}", s.score);
    }

    #[test]
    fn histogram_scores_a_heuristic_fraction() {
        let db = db();
        let cm = CostModel::default();
        let p = UniformProfile { p: 1.0, think_mean_secs: PATIENT };
        let g = partial_with_selection();
        let m =
            Manipulation::CreateHistogram { table: "customer".into(), column: "c_nation".into() };
        let s = cm.score(&m, &g, &db, &p, VirtualTime::ZERO);
        assert!(s.score < 0.0);
        // Histogram benefit is small relative to materialization benefit.
        let mat =
            cm.score(&Manipulation::Rewrite { graph: g.clone() }, &g, &db, &p, VirtualTime::ZERO);
        assert!(mat.score < s.score, "materialization should dominate histogram");
    }

    #[test]
    fn index_without_matching_selection_scores_zero() {
        let db = db();
        let cm = CostModel::default();
        let p = UniformProfile::default();
        let g = partial_with_selection();
        let m = Manipulation::CreateIndex { table: "orders".into(), column: "o_custkey".into() };
        assert_eq!(cm.score(&m, &g, &db, &p, VirtualTime::ZERO).score, 0.0);
    }

    #[test]
    fn join_materialization_scored() {
        let db = db();
        let cm = CostModel::default();
        let p = UniformProfile { p: 0.9, think_mean_secs: PATIENT };
        let mut g = QueryGraph::new();
        g.add_join(Join::new("orders", "o_custkey", "customer", "c_custkey"));
        g.add_selection(nation_sel());
        let sub = g.join_subgraph(g.joins().next().unwrap());
        let m = Manipulation::Rewrite { graph: sub };
        let s = cm.score(&m, &g, &db, &p, VirtualTime::ZERO);
        assert!(s.score < 0.0, "join+selection materialization should help: {}", s.score);
    }
}
