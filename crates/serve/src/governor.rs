//! The fleet-wide speculation governor.
//!
//! The paper's prototype enforces *one outstanding manipulation* for
//! its single user (Section 3.1). With N concurrent sessions sharing
//! one database and one morsel worker pool, the rule generalizes to
//! admission control: every candidate build asks the governor for a
//! slot, the governor ranks candidates across **all** sessions by
//! expected benefit per unit of build resource
//! ([`Decision::benefit_rate`], derived from the Theorem 3.1 cost model
//! and the PR 1 calibration), enforces a global outstanding-build
//! budget, and — when configured — preempts the weakest in-flight build
//! for a stronger candidate. Preemption cancels through the build's
//! [`CancelToken`], which the morsel pipeline checks at morsel/page
//! boundaries, so a preempted build stops within one morsel.
//!
//! The governor is a pure policy object: no threads, no clock. The
//! same instance drives both the wall-clock serving layer
//! ([`SessionManager`]) and the virtual-clock replay loop in
//! `specdb-sim`, whose single-user case runs under a one-slot governor;
//! the determinism suite asserts that a single session under the
//! default governor is bit-identical to it.
//!
//! [`Decision::benefit_rate`]: specdb_core::Decision::benefit_rate
//! [`CancelToken`]: specdb_exec::CancelToken
//! [`SessionManager`]: crate::SessionManager

use crate::registry::SessionId;
use parking_lot::Mutex;
use serde::Serialize;
use specdb_exec::CancelToken;
use specdb_obs::{Observer, SpanKind};
use std::collections::BTreeMap;

/// Governor policy knobs (see `docs/knobs.md`).
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Global outstanding-build budget across every session. The
    /// default of 2 keeps speculative builds from monopolizing the
    /// shared morsel worker pool.
    pub max_outstanding: usize,
    /// Allow a strictly stronger candidate to cancel the weakest
    /// in-flight build when the budget is full (default on).
    pub preempt: bool,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig { max_outstanding: 2, preempt: true }
    }
}

/// The governor's verdict on a candidate build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A slot was free: the build may start.
    Admit,
    /// The budget was full but this candidate outranked the weakest
    /// in-flight build, which has been cancelled (its session id is
    /// returned); the new build takes its slot.
    Preempt(SessionId),
    /// No slot, no preemptable victim (or the candidate has no positive
    /// benefit): do not build.
    Deny,
}

struct Build {
    priority: f64,
    /// Display form of the candidate manipulation — the final
    /// tie-breaker when two in-flight builds share a priority, so the
    /// preemption victim never depends on map iteration order.
    key: String,
    cancel: Option<CancelToken>,
}

#[derive(Default)]
struct State {
    outstanding: BTreeMap<SessionId, Build>,
    admitted: u64,
    denied: u64,
    preempted: u64,
}

/// Counters describing the governor's admission history; also the
/// `STATS` reply's `governor` object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct GovernorStats {
    /// Builds admitted (including those admitted by preemption).
    pub admitted: u64,
    /// Candidates denied.
    pub denied: u64,
    /// In-flight builds cancelled to make room for stronger candidates.
    pub preempted: u64,
    /// Builds currently holding a slot.
    pub outstanding: u64,
}

/// Fleet-wide admission control over speculative builds.
///
/// ```
/// use specdb_serve::{Admission, Governor, GovernorConfig};
///
/// let gov = Governor::new(GovernorConfig { max_outstanding: 1, preempt: true });
/// // Session 1's build takes the only slot.
/// assert_eq!(gov.admit(1, 2.0, "rewrite{a}"), Admission::Admit);
/// // A weaker candidate from session 2 is denied...
/// assert_eq!(gov.admit(2, 1.0, "rewrite{b}"), Admission::Deny);
/// // ...but a stronger one from session 3 preempts session 1.
/// assert_eq!(gov.admit(3, 5.0, "predict{c}"), Admission::Preempt(1));
/// gov.finish(3);
/// assert_eq!(gov.outstanding(), 0);
/// ```
pub struct Governor {
    cfg: GovernorConfig,
    state: Mutex<State>,
    observer: Observer,
}

impl Default for Governor {
    fn default() -> Self {
        Self::new(GovernorConfig::default())
    }
}

impl Governor {
    /// A governor with the given policy and observability disabled.
    pub fn new(cfg: GovernorConfig) -> Self {
        Self::with_observer(cfg, Observer::disabled())
    }

    /// A governor emitting `governor` spans and counters through the
    /// given observer.
    pub fn with_observer(cfg: GovernorConfig, observer: Observer) -> Self {
        Governor { cfg, state: Mutex::new(State::default()), observer }
    }

    /// The active policy.
    pub fn config(&self) -> &GovernorConfig {
        &self.cfg
    }

    /// Ask for a build slot for `session` at the given priority
    /// (benefit-seconds per build-second; see
    /// [`Decision::benefit_rate`]) for the candidate identified by
    /// `key` (its display form; used only to break priority ties
    /// deterministically). On [`Admission::Preempt`], the victim's
    /// [`CancelToken`] — if one was attached — has already been
    /// cancelled; the caller only needs bookkeeping.
    ///
    /// [`Decision::benefit_rate`]: specdb_core::Decision::benefit_rate
    pub fn admit(&self, session: SessionId, priority: f64, key: &str) -> Admission {
        let mut st = self.state.lock();
        let verdict = self.decide_locked(&mut st, session, priority, key);
        match verdict {
            Admission::Admit => st.admitted += 1,
            Admission::Preempt(_) => {
                st.admitted += 1;
                st.preempted += 1;
            }
            Admission::Deny => st.denied += 1,
        }
        let outstanding = st.outstanding.len();
        drop(st);
        self.trace(session, priority, verdict, outstanding);
        verdict
    }

    fn decide_locked(
        &self,
        st: &mut State,
        session: SessionId,
        priority: f64,
        key: &str,
    ) -> Admission {
        // One-outstanding-per-session still holds inside the fleet rule:
        // a session must resolve its own build before proposing another.
        if priority <= 0.0 || st.outstanding.contains_key(&session) {
            return Admission::Deny;
        }
        if st.outstanding.len() < self.cfg.max_outstanding {
            st.outstanding
                .insert(session, Build { priority, key: key.to_string(), cancel: None });
            return Admission::Admit;
        }
        if !self.cfg.preempt {
            return Admission::Deny;
        }
        // Weakest in-flight build; priority ties fall to the lowest
        // (session id, candidate key) pair, never to map iteration
        // order, so the victim is the same in every run and at every
        // thread count.
        let victim = st
            .outstanding
            .iter()
            .min_by(|a, b| {
                a.1.priority
                    .total_cmp(&b.1.priority)
                    .then_with(|| a.0.cmp(b.0))
                    .then_with(|| a.1.key.cmp(&b.1.key))
            })
            .map(|(id, b)| (*id, b.priority));
        match victim {
            Some((vid, vprio)) if priority > vprio => {
                if let Some(b) = st.outstanding.remove(&vid) {
                    if let Some(token) = b.cancel {
                        token.cancel();
                    }
                }
                st.outstanding
                    .insert(session, Build { priority, key: key.to_string(), cancel: None });
                Admission::Preempt(vid)
            }
            _ => Admission::Deny,
        }
    }

    /// Attach the live cancel token for `session`'s admitted build so a
    /// later preemption can stop it at the next morsel boundary. The
    /// virtual-clock replay never attaches tokens (cancellation there
    /// is a bookkeeping rollback).
    pub fn attach_cancel(&self, session: SessionId, token: CancelToken) {
        if let Some(b) = self.state.lock().outstanding.get_mut(&session) {
            b.cancel = Some(token);
        }
    }

    /// Release `session`'s slot (build completed, cancelled, or rolled
    /// back). Returns whether a slot was actually held.
    pub fn finish(&self, session: SessionId) -> bool {
        self.state.lock().outstanding.remove(&session).is_some()
    }

    /// Builds currently holding a slot.
    pub fn outstanding(&self) -> usize {
        self.state.lock().outstanding.len()
    }

    /// Admission-history counters.
    pub fn stats(&self) -> GovernorStats {
        let st = self.state.lock();
        GovernorStats {
            admitted: st.admitted,
            denied: st.denied,
            preempted: st.preempted,
            outstanding: st.outstanding.len() as u64,
        }
    }

    fn trace(&self, session: SessionId, priority: f64, verdict: Admission, outstanding: usize) {
        let counter = match verdict {
            Admission::Admit => "governor.admitted",
            Admission::Preempt(_) => "governor.preempted",
            Admission::Deny => "governor.denied",
        };
        self.observer.metrics().counter(counter).incr();
        let tracer = self.observer.tracer().clone();
        let now = self.observer.now_micros();
        let label = match verdict {
            Admission::Admit => "admit",
            Admission::Preempt(_) => "preempt",
            Admission::Deny => "deny",
        };
        tracer.instant(SpanKind::Governor, label, now, |a| {
            a.push(("session", session.into()));
            a.push(("priority", priority.into()));
            a.push(("outstanding", (outstanding as u64).into()));
            if let Admission::Preempt(victim) = verdict {
                a.push(("victim", victim.into()));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov(max: usize, preempt: bool) -> Governor {
        Governor::new(GovernorConfig { max_outstanding: max, preempt })
    }

    #[test]
    fn budget_is_enforced() {
        let g = gov(2, false);
        assert_eq!(g.admit(1, 1.0, "a"), Admission::Admit);
        assert_eq!(g.admit(2, 1.0, "b"), Admission::Admit);
        assert_eq!(g.admit(3, 9.0, "c"), Admission::Deny, "no preemption configured");
        assert!(g.finish(1));
        assert_eq!(g.admit(3, 9.0, "c"), Admission::Admit);
        assert_eq!(g.outstanding(), 2);
    }

    #[test]
    fn preemption_cancels_weakest_victim() {
        let g = gov(2, true);
        g.admit(1, 1.0, "a");
        g.admit(2, 3.0, "b");
        let token = CancelToken::new();
        g.attach_cancel(1, token.clone());
        assert_eq!(g.admit(3, 2.0, "c"), Admission::Preempt(1), "session 1 is the weakest");
        assert!(token.is_cancelled(), "victim's build must stop at the next morsel");
        assert_eq!(g.admit(4, 1.9, "d"), Admission::Deny, "weaker than both survivors");
        let s = g.stats();
        assert_eq!((s.admitted, s.denied, s.preempted), (3, 1, 1));
    }

    #[test]
    fn equal_priority_victim_is_lowest_session_then_key() {
        let g = gov(2, true);
        // Two in-flight builds at exactly the same priority: the victim
        // must be the lower session id regardless of insertion order.
        g.admit(7, 1.0, "rewrite{z}");
        g.admit(3, 1.0, "rewrite{a}");
        assert_eq!(g.admit(9, 2.0, "c"), Admission::Preempt(3), "lowest session id loses the tie");
        // Refill and preempt again: now 7 (the remaining equal-priority
        // build) is the deterministic victim.
        assert_eq!(g.admit(1, 2.0, "d"), Admission::Preempt(7));
    }

    #[test]
    fn one_outstanding_per_session_still_holds() {
        let g = gov(4, true);
        assert_eq!(g.admit(1, 1.0, "a"), Admission::Admit);
        assert_eq!(g.admit(1, 5.0, "b"), Admission::Deny, "own slot must be freed first");
    }

    #[test]
    fn zero_priority_never_admits() {
        let g = gov(4, true);
        assert_eq!(g.admit(1, 0.0, "a"), Admission::Deny, "idle decisions rank at zero");
    }
}
