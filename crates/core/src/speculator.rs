//! The Speculator (paper Section 3.5): choose, cancel, collect.
//!
//! On every partial-query change the speculator enumerates the
//! manipulation space, scores each candidate with the cost model and the
//! user profile, and picks the minimum — `m∅` (do nothing) when no
//! candidate has negative expected cost. The surrounding runtime (the
//! discrete-event harness in `specdb-sim`, or the live
//! `specdb_serve::ServeSession`) enforces the paper's three
//! operating conventions: manipulations run asynchronously, at most one
//! is outstanding, and results are garbage-collected when the partial
//! query stops supporting them.

use crate::cost_model::CostModel;
use crate::learner::Profile;
use crate::manipulation::Manipulation;
use crate::space::{IncrementalSpace, ManipulationSpace, SpaceConfig};
use crate::CostModelConfig;
use parking_lot::Mutex;
use specdb_exec::Database;
use specdb_query::QueryGraph;
use specdb_storage::VirtualTime;

/// Speculator configuration.
#[derive(Debug, Clone)]
pub struct SpeculatorConfig {
    /// Manipulation-space configuration.
    pub space: SpaceConfig,
    /// Cost-model configuration.
    pub cost: CostModelConfig,
    /// Minimum expected benefit (virtual seconds) before acting; filters
    /// out noise-level wins that are not worth the system load.
    pub min_benefit_secs: f64,
    /// Maintain the candidate set incrementally across edits
    /// ([`IncrementalSpace`]) instead of re-enumerating from scratch.
    /// Produces bit-identical decisions either way; on by default, and
    /// the decision-loop benchmark's no-cache arm turns it off.
    pub incremental: bool,
    /// Whole-query speculation: also score the profile's top-k predicted
    /// *completed* queries as candidates (`SPECDB_PREDICT`, default on).
    pub predict: bool,
    /// How many predicted completions to consider per decision
    /// (`SPECDB_PREDICT_TOPK`, default 3).
    pub predict_topk: usize,
}

impl Default for SpeculatorConfig {
    fn default() -> Self {
        SpeculatorConfig {
            space: SpaceConfig::default(),
            cost: CostModelConfig::default(),
            min_benefit_secs: 0.0,
            incremental: true,
            predict: predict_from_env(),
            predict_topk: predict_topk_from_env(),
        }
    }
}

/// Whole-query speculation toggle from `SPECDB_PREDICT`; unset, empty,
/// and anything but `0`/`false` mean *on*.
pub fn predict_from_env() -> bool {
    match std::env::var("SPECDB_PREDICT") {
        Ok(v) => !(v == "0" || v.eq_ignore_ascii_case("false")),
        Err(_) => true,
    }
}

/// Predicted-completion fan-out from `SPECDB_PREDICT_TOPK` (default 3).
pub fn predict_topk_from_env() -> usize {
    std::env::var("SPECDB_PREDICT_TOPK")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// The speculator's choice for the current partial query.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Chosen manipulation (`Null` when speculation should idle).
    pub manipulation: Manipulation,
    /// Its `Cost⊆` score (negative = expected benefit).
    pub score: f64,
    /// Estimated execution time of the manipulation.
    pub build: VirtualTime,
    /// Raw per-query benefit estimate `cost(qm,m) − cost(qm,m∅)` in
    /// seconds (negative = beneficial); used by the wait-at-GO policy.
    pub delta_secs: f64,
}

impl Decision {
    /// True if the decision is to do nothing.
    pub fn is_idle(&self) -> bool {
        self.manipulation.is_null()
    }

    /// Expected benefit per unit of build resource, in benefit-seconds
    /// per build-second — the fleet-wide speculation governor's ranking
    /// key. A decision that saves a lot but costs little to build ranks
    /// highest; idle decisions rank at zero.
    ///
    /// ```
    /// use specdb_core::{Decision, Manipulation};
    /// use specdb_storage::VirtualTime;
    ///
    /// let cheap_win = Decision {
    ///     manipulation: Manipulation::CreateIndex {
    ///         table: "customer".into(),
    ///         column: "c_nation".into(),
    ///     },
    ///     score: -2.0,
    ///     build: VirtualTime::from_secs_f64(0.5),
    ///     delta_secs: -2.0,
    /// };
    /// let dear_win = Decision { build: VirtualTime::from_secs(8), ..cheap_win.clone() };
    /// assert!(cheap_win.benefit_rate() > dear_win.benefit_rate());
    /// assert_eq!(Decision::idle().benefit_rate(), 0.0);
    /// ```
    pub fn benefit_rate(&self) -> f64 {
        if self.is_idle() || self.score >= 0.0 {
            return 0.0;
        }
        // Floor the denominator: a sub-millisecond build estimate would
        // otherwise produce an unstable, effectively infinite priority.
        (-self.score) / self.build.as_secs_f64().max(1e-3)
    }

    /// The do-nothing decision (`m∅`).
    pub fn idle() -> Self {
        Decision {
            manipulation: Manipulation::Null,
            score: 0.0,
            build: VirtualTime::ZERO,
            delta_secs: 0.0,
        }
    }
}

/// The Speculator component.
pub struct Speculator {
    space: ManipulationSpace,
    /// Delta-maintained candidate state when `incremental` is on. Behind
    /// a mutex because `decide` takes `&self` and the speculator is
    /// shared (`Arc`) with the session worker; contention is nil — one
    /// decide runs at a time.
    incremental: Option<Mutex<IncrementalSpace>>,
    cost_model: CostModel,
    min_benefit: f64,
    predict: bool,
    predict_topk: usize,
}

impl Default for Speculator {
    fn default() -> Self {
        Self::new(SpeculatorConfig::default())
    }
}

impl Speculator {
    /// Speculator with the given configuration.
    pub fn new(config: SpeculatorConfig) -> Self {
        Speculator {
            space: ManipulationSpace::new(config.space.clone()),
            incremental: config
                .incremental
                .then(|| Mutex::new(IncrementalSpace::new(config.space))),
            cost_model: CostModel::new(config.cost),
            min_benefit: config.min_benefit_secs.max(0.0),
            predict: config.predict,
            predict_topk: config.predict_topk,
        }
    }

    /// Enumerate, score, and pick the best manipulation for the current
    /// partial query. `elapsed` is how long this formulation has run.
    pub fn decide(
        &self,
        partial: &QueryGraph,
        db: &Database,
        profile: &dyn Profile,
        elapsed: VirtualTime,
    ) -> Decision {
        let tracer = db.observer().tracer().clone();
        let virt_now = db.observer().now_micros();
        let span = tracer.begin(specdb_obs::SpanKind::Decide, "decide", virt_now);
        let mut best = Decision {
            manipulation: Manipulation::Null,
            score: 0.0,
            build: VirtualTime::ZERO,
            delta_secs: 0.0,
        };
        let candidates = match &self.incremental {
            Some(inc) => inc.lock().candidates(partial, db),
            None => self.space.enumerate(partial, db),
        };
        let mut scored_n = 0u64;
        for m in candidates {
            if m.is_null() {
                continue;
            }
            scored_n += 1;
            let scored = self.cost_model.score(&m, partial, db, profile, elapsed);
            if scored.score < best.score {
                best = Decision {
                    manipulation: m,
                    score: scored.score,
                    build: scored.build,
                    delta_secs: scored.delta_secs,
                };
            }
        }
        // Whole-query candidates: the profile's top-k predicted completed
        // queries, scored by sequence probability × benefit. Injected
        // after the one-step manipulations so ties (strict `<` above)
        // keep the paper's behaviour.
        let mut predicted_n = 0u64;
        if self.predict && !partial.is_empty() {
            for (graph, prob) in profile.predict_completions(partial, self.predict_topk) {
                if db.has_view(&graph) {
                    continue;
                }
                predicted_n += 1;
                let scored = self.cost_model.score_prediction(&graph, prob, db, profile, elapsed);
                if scored.score < best.score {
                    best = Decision {
                        manipulation: Manipulation::PredictQuery { graph },
                        score: scored.score,
                        build: scored.build,
                        delta_secs: scored.delta_secs,
                    };
                }
            }
        }
        if best.score > -self.min_benefit {
            best = Decision {
                manipulation: Manipulation::Null,
                score: 0.0,
                build: VirtualTime::ZERO,
                delta_secs: 0.0,
            };
        }
        // Speculative prefetch: the chosen manipulation is about to run
        // against its base tables, so warm their segments through the
        // background workers during the think-time window. Fire-and-
        // forget and version-fenced — replay determinism cannot observe
        // whether (or when) the warm-up lands; only wall-clock does.
        let prefetched = if best.is_idle() {
            0
        } else {
            let kind = if matches!(best.manipulation, Manipulation::PredictQuery { .. }) {
                specdb_storage::PrefetchKind::Prediction
            } else {
                specdb_storage::PrefetchKind::Manipulation
            };
            db.prefetch_tables_kind(&best.manipulation.base_tables(), kind)
        };
        span.finish_with(virt_now, |a| {
            a.push(("candidates", scored_n.into()));
            a.push(("predicted", predicted_n.into()));
            a.push(("idle", best.is_idle().into()));
            a.push(("score", best.score.into()));
            if !best.is_idle() {
                a.push(("chosen", best.manipulation.to_string().into()));
            }
            if prefetched > 0 {
                a.push(("prefetch_pages", prefetched.into()));
            }
        });
        best
    }

    /// Should an in-flight manipulation be cancelled after an edit?
    /// (Paper Section 3.1: "if the user modifies the partial query in a
    /// manner that makes the expected benefits of a manipulation under
    /// way disappear, then the manipulation is canceled".)
    pub fn should_cancel(&self, outstanding: &Manipulation, partial: &QueryGraph) -> bool {
        !outstanding.supported_by(partial)
    }

    /// Materialized relations no longer supported by the partial query —
    /// the garbage-collection sweep (paper Section 3.1 convention 2).
    pub fn gc_candidates(&self, db: &Database, partial: &QueryGraph) -> Vec<String> {
        db.unsupported_views(partial)
    }

    /// Access to the cost model (for reporting).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Access to the manipulation space (for reporting).
    pub fn space(&self) -> &ManipulationSpace {
        &self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::UniformProfile;
    use specdb_exec::{CancelToken, DatabaseConfig};
    use specdb_query::{CompareOp, Join, Predicate, Selection};
    use specdb_tpch::{generate_into, TpchConfig};

    fn db() -> Database {
        let mut db = Database::new(DatabaseConfig::with_buffer_pages(2048));
        generate_into(&mut db, &TpchConfig::new(2).build_aux(false)).unwrap();
        db
    }

    fn confident() -> UniformProfile {
        UniformProfile { p: 0.9, think_mean_secs: 120.0 }
    }

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
    fn decides_to_materialize_selective_predicate() {
        let db = db();
        let spec = Speculator::default();
        let d = spec.decide(&partial(), &db, &confident(), VirtualTime::ZERO);
        assert!(!d.is_idle(), "a selective predicate should trigger speculation");
        assert!(d.score < 0.0);
        assert!(d.manipulation.graph().is_some());
    }

    #[test]
    fn idles_on_empty_partial_query() {
        let db = db();
        let spec = Speculator::default();
        let d = spec.decide(&QueryGraph::new(), &db, &confident(), VirtualTime::ZERO);
        assert!(d.is_idle());
    }

    #[test]
    fn idles_when_user_is_too_fast() {
        let db = db();
        let spec = Speculator::default();
        // Mean think time of 1 ms: completion probability ≈ 0, and with
        // min_benefit filtering the speculator stays idle.
        let spec_filtered =
            Speculator::new(SpeculatorConfig { min_benefit_secs: 0.05, ..Default::default() });
        let impatient = UniformProfile { p: 0.9, think_mean_secs: 0.001 };
        let d = spec_filtered.decide(&partial(), &db, &impatient, VirtualTime::ZERO);
        assert!(d.is_idle(), "score {}", d.score);
        let _ = spec;
    }

    #[test]
    fn cancellation_follows_support() {
        let spec = Speculator::default();
        let p = partial();
        let sub = p.selection_subgraph(p.selections().next().unwrap());
        let m = Manipulation::Rewrite { graph: sub };
        assert!(!spec.should_cancel(&m, &p));
        // The user removes the predicate.
        let mut p2 = p.clone();
        let s = p.selections().next().unwrap().clone();
        p2.remove_selection(&s);
        assert!(spec.should_cancel(&m, &p2));
    }

    #[test]
    fn gc_candidates_surface_unsupported_views() {
        let mut db = db();
        let p = partial();
        let sub = p.selection_subgraph(p.selections().next().unwrap());
        db.materialize(&sub, CancelToken::new()).unwrap();
        let spec = Speculator::default();
        assert!(spec.gc_candidates(&db, &p).is_empty());
        let empty = QueryGraph::new();
        assert_eq!(spec.gc_candidates(&db, &empty).len(), 1);
    }

    #[test]
    fn decision_prefetches_base_table_segments() {
        let db = db();
        let spec = Speculator::default();
        assert_eq!(db.pool().seg_resident(), 0, "cache starts cold");
        let d = spec.decide(&partial(), &db, &confident(), VirtualTime::ZERO);
        assert!(!d.is_idle(), "fixture should speculate");
        // The warm-up is fire-and-forget on the worker pool; poll for it.
        for _ in 0..500 {
            if db.pool().seg_resident() > 0 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        panic!("prefetch never warmed the segment cache");
    }

    #[test]
    fn decision_respects_min_benefit_threshold() {
        let db = db();
        let generous = Speculator::new(SpeculatorConfig::default());
        let strict = Speculator::new(SpeculatorConfig {
            min_benefit_secs: 1e9, // absurd threshold: nothing qualifies
            ..Default::default()
        });
        let d1 = generous.decide(&partial(), &db, &confident(), VirtualTime::ZERO);
        let d2 = strict.decide(&partial(), &db, &confident(), VirtualTime::ZERO);
        assert!(!d1.is_idle());
        assert!(d2.is_idle());
    }

    #[test]
    fn join_candidate_chosen_for_join_heavy_partial() {
        // With survival certain and deep persistence, the join
        // materialization (bigger saving) should win over the selection.
        let db = db();
        let spec = Speculator::new(SpeculatorConfig {
            cost: CostModelConfig { depth: 3, use_completion_prob: false, ..Default::default() },
            ..Default::default()
        });
        let profile = UniformProfile { p: 1.0, think_mean_secs: 1e6 };
        let d = spec.decide(&partial(), &db, &profile, VirtualTime::ZERO);
        let g = d.manipulation.graph().expect("materialization chosen");
        assert_eq!(g.join_count(), 1, "join subgraph should win: {}", d.manipulation);
    }
}
