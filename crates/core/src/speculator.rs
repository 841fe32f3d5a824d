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
use crate::space::{ManipulationSpace, SpaceConfig};
use crate::CostModelConfig;
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
    /// Whole-query speculation: also score the profile's top-k predicted
    /// *completed* queries as candidates (`SPECDB_PREDICT`, default on).
    pub predict: bool,
    /// How many predicted completions to consider per decision
    /// (default 3).
    pub predict_topk: usize,
}

impl Default for SpeculatorConfig {
    fn default() -> Self {
        SpeculatorConfig {
            space: SpaceConfig::default(),
            cost: CostModelConfig::default(),
            predict: predict_from_env(),
            predict_topk: 3,
        }
    }
}

/// Whole-query speculation toggle from `SPECDB_PREDICT`: `0`, `off`,
/// `false` and `no` (any case) mean *off*; unset or anything else, *on*.
pub fn predict_from_env() -> bool {
    std::env::var("SPECDB_PREDICT").map_or(true, |v| parse_predict(&v))
}

/// Parse a `SPECDB_PREDICT` value; `false` only for the four off words.
fn parse_predict(value: &str) -> bool {
    !["0", "off", "false", "no"]
        .iter()
        .any(|off| value.trim().eq_ignore_ascii_case(off))
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
    cost_model: CostModel,
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
            space: ManipulationSpace::new(config.space),
            cost_model: CostModel::new(config.cost),
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
        let mut scored_n = 0u64;
        for m in self.space.enumerate(partial, db) {
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
        span.finish_with(virt_now, |a| {
            a.push(("candidates", scored_n.into()));
            a.push(("predicted", predicted_n.into()));
            a.push(("idle", best.is_idle().into()));
            a.push(("score", best.score.into()));
            if !best.is_idle() {
                a.push(("chosen", best.manipulation.to_string().into()));
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
    use specdb_exec::DatabaseConfig;
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
        // Mean think time of 1 ms: no build can complete before GO, so
        // every candidate falls under the completion floor and scores 0.
        let impatient = UniformProfile { p: 0.9, think_mean_secs: 0.001 };
        let d = Speculator::default().decide(&partial(), &db, &impatient, VirtualTime::ZERO);
        assert!(d.is_idle(), "score {}", d.score);
    }

    #[test]
    fn parse_predict_accepts_the_four_off_words() {
        for off in ["0", "off", "OFF", "false", "False", "no", "No", " no "] {
            assert!(!parse_predict(off), "{off:?} must turn prediction off");
        }
        for on in ["", "1", "on", "true", "yes", "nope"] {
            assert!(parse_predict(on), "{on:?} must leave prediction on");
        }
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
    fn join_candidate_chosen_for_join_heavy_partial() {
        // With survival certain and deep persistence, the join
        // materialization (bigger saving) should win over the selection.
        let db = db();
        let spec = Speculator::new(SpeculatorConfig {
            cost: CostModelConfig { depth: 3 },
            ..Default::default()
        });
        let profile = UniformProfile { p: 1.0, think_mean_secs: 1e6 };
        let d = spec.decide(&partial(), &db, &profile, VirtualTime::ZERO);
        let g = d.manipulation.graph().expect("materialization chosen");
        assert_eq!(g.join_count(), 1, "join subgraph should win: {}", d.manipulation);
    }
}
