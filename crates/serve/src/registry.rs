//! The fleet registry: who builds which speculative artifact, what each
//! session's partial query supports, and the one GC rule.
//!
//! Speculative materializations are keyed by the *canonical query* they
//! answer ([`Database::graph_key`]). A build claims its key before the
//! governor admits it, so sessions converging on one query produce one
//! build, not N. A committed build is an artifact every session's GO may
//! read; the registry settles each as **used** (a plan read it) or
//! **wasted** (it was dropped unread), charged to the session that built
//! it. Each edit records the session's current graph as its *support*.
//!
//! GC is the multi-session form of the paper's Section 3.1 convention
//! ("the result of a manipulation persists as long as the current
//! partial query indicates it will be useful"): after a GO, a view or a
//! staged table is dropped only when neither that final query nor any
//! other active session's current graph supports it, and no other
//! session's build of it is still in flight. With one session this is
//! exactly the paper's single-user GC.
//!
//! The registry keeps bookkeeping and policy only; the bytes live in the
//! shared [`Database`] as ordinary materialized tables.
//!
//! [`Database::graph_key`]: specdb_exec::Database::graph_key

use crate::speculation::{mark, Bet};
use parking_lot::Mutex;
use specdb_exec::Database;
use specdb_obs::Observer;
use specdb_query::QueryGraph;
use specdb_storage::VirtualTime;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Identifies one session within a fleet.
pub type SessionId = u64;

/// One speculative artifact: in flight until its bet commits.
struct Artifact {
    owner: SessionId,
    /// The committed bet; `None` while the build is in flight.
    bet: Option<Bet>,
    /// Whether a final query has read it.
    used: bool,
}

/// The verdicts on one session's committed builds.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Verdicts {
    pub(crate) used: u64,
    pub(crate) wasted: u64,
    pub(crate) predicted_hits: u64,
    pub(crate) salvaged_hits: u64,
    pub(crate) predicted_wasted: u64,
}

#[derive(Default)]
struct Member {
    /// The session's current partial query; `None` once it retired.
    support: Option<QueryGraph>,
    verdicts: Verdicts,
}

/// Point-in-time counters for the registry (see [`FleetRegistry::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Committed artifacts currently resident.
    pub ready: u64,
    /// Builds currently in flight.
    pub building: u64,
    /// Final-query plan reads of an artifact another session built —
    /// the cross-session wins.
    pub shared_hits: u64,
    /// Final-query plan reads of any committed artifact.
    pub uses: u64,
    /// Builds committed.
    pub installed: u64,
    /// Builds avoided because an identical one was in flight or ready.
    pub deduped: u64,
    /// Artifacts garbage-collected.
    pub collected: u64,
    /// Committed builds read by some final query, fleet-wide.
    pub used: u64,
    /// Committed builds dropped unread, fleet-wide.
    pub wasted: u64,
}

impl CacheStats {
    /// Fraction of artifact uses served by another session's build —
    /// the value of the `spec.cross_session_reuse` gauge.
    pub fn cross_session_reuse(&self) -> f64 {
        if self.uses == 0 {
            0.0
        } else {
            self.shared_hits as f64 / self.uses as f64
        }
    }
}

#[derive(Default)]
struct Inner {
    artifacts: BTreeMap<String, Artifact>,
    /// Committed table → canonical key; plans report tables.
    by_table: HashMap<String, String>,
    members: BTreeMap<SessionId, Member>,
    totals: CacheStats,
}

impl Inner {
    /// Charge `owner`'s build, dropped without ever being read, as sunk
    /// cost.
    fn charge_unread(
        &mut self,
        observer: &Observer,
        owner: SessionId,
        predicted: bool,
        build: Option<u64>,
        at: VirtualTime,
    ) {
        let metrics = observer.metrics();
        self.totals.wasted += 1;
        metrics.counter("spec.wasted").incr();
        let mut verdicts = self.members.get_mut(&owner).map(|m| &mut m.verdicts);
        if let Some(v) = verdicts.as_deref_mut() {
            v.wasted += 1;
        }
        if predicted {
            if let Some(v) = verdicts {
                v.predicted_wasted += 1;
            }
            metrics.counter("spec.predicted_wasted").incr();
        }
        mark(observer, "wasted", at.as_micros(), owner, build, None);
    }
}

/// Which speculative artifacts exist fleet-wide, who built them and who
/// still supports them (see the [module docs](self)). One registry
/// serves every session of a [`SessionManager`] or of a replayed fleet.
///
/// [`SessionManager`]: crate::SessionManager
pub struct FleetRegistry {
    inner: Mutex<Inner>,
    observer: Observer,
}

impl FleetRegistry {
    /// An empty registry emitting `spec.*` counters and lifecycle
    /// instants through `observer`.
    pub fn new(observer: Observer) -> Self {
        FleetRegistry { inner: Mutex::new(Inner::default()), observer }
    }

    /// Enrol `session` with an empty support graph.
    pub(crate) fn join(&self, session: SessionId) {
        let member = Member { support: Some(QueryGraph::new()), ..Default::default() };
        self.inner.lock().members.insert(session, member);
    }

    /// `session`'s partial query is now `graph`.
    pub(crate) fn support(&self, session: SessionId, graph: &QueryGraph) {
        if let Some(m) = self.inner.lock().members.get_mut(&session) {
            m.support = Some(graph.clone());
        }
    }

    /// `session` makes no more edits: its graph stops supporting
    /// anything, but its builds are still settled and charged to it.
    pub fn retire(&self, session: SessionId) {
        if let Some(m) = self.inner.lock().members.get_mut(&session) {
            m.support = None;
        }
    }

    /// `session` disconnected: forget it. Its artifacts stay until GC.
    pub(crate) fn leave(&self, session: SessionId) {
        self.inner.lock().members.remove(&session);
    }

    /// The verdicts on `session`'s builds so far.
    pub(crate) fn verdicts(&self, session: SessionId) -> Verdicts {
        self.inner.lock().members.get(&session).map(|m| m.verdicts).unwrap_or_default()
    }

    /// Claim the build of artifact `key` for `session`. Returns false —
    /// and counts a dedupe — when the artifact is already built or in
    /// flight.
    pub(crate) fn claim(&self, key: &str, session: SessionId) -> bool {
        let mut inner = self.inner.lock();
        if inner.artifacts.contains_key(key) {
            inner.totals.deduped += 1;
            return false;
        }
        inner
            .artifacts
            .insert(key.into(), Artifact { owner: session, bet: None, used: false });
        true
    }

    /// Give up `session`'s in-flight claim on `key`.
    pub(crate) fn release(&self, key: &str, session: SessionId) {
        let mut inner = self.inner.lock();
        if inner.artifacts.get(key).is_some_and(|a| a.owner == session && a.bet.is_none()) {
            inner.artifacts.remove(key);
        }
    }

    /// `owner`'s build committed: its artifact, if it made one, is now
    /// readable by every session and awaits its verdict.
    pub(crate) fn commit(&self, owner: SessionId, bet: Bet) {
        let (Some(key), Some(table)) = (bet.key.clone(), bet.table().map(str::to_owned)) else {
            return;
        };
        let mut inner = self.inner.lock();
        inner.by_table.insert(table, key.clone());
        inner.artifacts.insert(key, Artifact { owner, bet: Some(bet), used: false });
        inner.totals.installed += 1;
    }

    /// Settle the artifacts among `used_views` that `session`'s final
    /// query read at `at`; `go_key` is that query's canonical key. Each
    /// committed build counts as used once, for its builder. Returns the
    /// number of reads of another session's build, and the predicted
    /// per-query deltas of `session`'s own builds read for the first
    /// time (for benefit calibration).
    pub(crate) fn settle(
        &self,
        session: SessionId,
        used_views: &[String],
        go_key: &str,
        at: VirtualTime,
    ) -> (u64, Vec<f64>) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let metrics = self.observer.metrics();
        let (mut shared, mut own_deltas) = (0, Vec::new());
        for view in used_views {
            let Some(a) = inner.by_table.get(view).and_then(|k| inner.artifacts.get_mut(k)) else {
                continue;
            };
            let Some(bet) = &a.bet else { continue };
            inner.totals.uses += 1;
            if a.owner != session {
                shared += 1;
                inner.totals.shared_hits += 1;
                metrics.counter("spec.shared_hits").incr();
            }
            if a.used {
                continue;
            }
            a.used = true;
            inner.totals.used += 1;
            metrics.counter("spec.used").incr();
            let mut verdicts = inner.members.get_mut(&a.owner).map(|m| &mut m.verdicts);
            if let Some(v) = verdicts.as_deref_mut() {
                v.used += 1;
            }
            if bet.predicted {
                let exact = bet.key.as_deref() == Some(go_key);
                if let Some(v) = verdicts {
                    *(if exact { &mut v.predicted_hits } else { &mut v.salvaged_hits }) += 1;
                }
                let counter = if exact { "spec.predicted_hits" } else { "spec.salvaged_hits" };
                metrics.counter(counter).incr();
            }
            mark(&self.observer, "used", at.as_micros(), a.owner, bet.build(), None);
            if a.owner == session {
                own_deltas.push(bet.predicted_delta_secs);
            }
        }
        if inner.totals.uses > 0 {
            let reuse = inner.totals.cross_session_reuse();
            metrics.gauge("spec.cross_session_reuse").set(reuse);
        }
        (shared, own_deltas)
    }

    /// The GC sweep after `session`'s GO on `final_graph` at `at` (an
    /// empty graph when the session disconnects): drop every committed view
    /// and staged table that neither `final_graph` nor any other active
    /// session's support graph supports. A view still in flight is its
    /// builder's and is never dropped. A dropped build nobody read is
    /// charged as waste to its builder. Returns how many were dropped.
    pub(crate) fn collect(
        &self,
        db: &mut Database,
        session: SessionId,
        final_graph: &QueryGraph,
        at: VirtualTime,
    ) -> u64 {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let mut collected = 0;
        for views in [true, false] {
            let unsupported = |db: &Database, g: &QueryGraph| {
                if views {
                    db.unsupported_views(g)
                } else {
                    db.unsupported_staged(g)
                }
            };
            let mut doomed = unsupported(db, final_graph);
            if views {
                doomed.retain(|t| inner.by_table.contains_key(t));
            }
            for (&id, member) in &inner.members {
                let Some(support) = member.support.as_ref().filter(|_| id != session) else {
                    continue;
                };
                if doomed.is_empty() {
                    break;
                }
                let theirs: HashSet<String> = unsupported(db, support).into_iter().collect();
                doomed.retain(|t| theirs.contains(t));
            }
            for table in doomed {
                if views {
                    db.drop_materialized(&table);
                } else {
                    db.unstage(&table);
                }
                collected += 1;
                inner.totals.collected += 1;
                self.observer.metrics().counter("spec.collected").incr();
                let artifact =
                    inner.by_table.remove(&table).and_then(|k| inner.artifacts.remove(&k));
                let build = artifact.as_ref().and_then(|a| a.bet.as_ref()?.build());
                mark(&self.observer, "gc", at.as_micros(), session, build, Some(("table", &table)));
                if let Some(Artifact { owner, bet: Some(bet), used: false }) = artifact {
                    inner.charge_unread(&self.observer, owner, bet.predicted, build, at);
                }
            }
        }
        collected
    }

    /// Charge every committed build that was never read as waste at
    /// `at`, in (builder, table) order — the end of a replay, where
    /// builds that survived every GC are sunk cost all the same.
    pub fn charge_unread(&self, at: VirtualTime) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let mut unread: Vec<(SessionId, &str, &Bet)> = inner
            .artifacts
            .values()
            .filter(|a| !a.used)
            .filter_map(|a| a.bet.as_ref().map(|bet| (a.owner, bet.table().unwrap_or(""), bet)))
            .collect();
        unread.sort_by_key(|&(owner, table, _)| (owner, table));
        let unread: Vec<(SessionId, bool, Option<u64>)> = unread
            .into_iter()
            .map(|(owner, _, bet)| (owner, bet.predicted, bet.build()))
            .collect();
        for (owner, predicted, build) in unread {
            inner.charge_unread(&self.observer, owner, predicted, build, at);
        }
    }

    /// Snapshot of the registry's counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        let ready = inner.artifacts.values().filter(|a| a.bet.is_some()).count() as u64;
        let building = inner.artifacts.len() as u64 - ready;
        CacheStats { ready, building, ..inner.totals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdb_core::session::apply_manipulation;
    use specdb_core::Manipulation;
    use specdb_exec::{CancelToken, DatabaseConfig};
    use specdb_query::{CompareOp, Predicate, Selection};
    use specdb_tpch::{generate_into, TpchConfig};

    fn db() -> Database {
        let mut db = Database::new(DatabaseConfig::with_buffer_pages(512));
        generate_into(&mut db, &TpchConfig::new(1).build_aux(false)).unwrap();
        db
    }

    fn nation(v: &str) -> QueryGraph {
        let mut g = QueryGraph::new();
        g.add_selection(Selection::new("customer", Predicate::new("c_nation", CompareOp::Eq, v)));
        g
    }

    /// Build `graph` for `owner` the way a driver does: claim, build,
    /// commit. Returns the view's table.
    fn build(
        registry: &FleetRegistry,
        db: &mut Database,
        owner: SessionId,
        g: &QueryGraph,
    ) -> String {
        let key = Database::graph_key(g);
        assert!(registry.claim(&key, owner));
        let manipulation = Manipulation::Rewrite { graph: g.clone() };
        let applied = apply_manipulation(db, &manipulation, CancelToken::new()).unwrap();
        let table = applied.table.clone().unwrap();
        let bet = Bet {
            manipulation,
            key: Some(key),
            estimate: VirtualTime::ZERO,
            benefit_secs: 0.0,
            predicted_delta_secs: 0.0,
            predicted: false,
            applied: Some(applied),
            published: false,
        };
        registry.commit(owner, bet);
        table
    }

    #[test]
    fn claims_dedupe_until_released() {
        let registry = FleetRegistry::new(Observer::disabled());
        assert!(registry.claim("k", 1));
        assert!(!registry.claim("k", 2), "an in-flight build dedupes");
        registry.release("k", 2);
        assert!(!registry.claim("k", 3), "only the owner releases its claim");
        registry.release("k", 1);
        assert!(registry.claim("k", 3));
        let stats = registry.stats();
        assert_eq!((stats.deduped, stats.building, stats.ready), (2, 1, 0));
    }

    #[test]
    fn a_busy_sessions_edit_keeps_the_view_it_supports() {
        let mut db = db();
        let registry = FleetRegistry::new(Observer::disabled());
        registry.join(1);
        registry.join(2);
        let france = nation("FRANCE");
        let view = build(&registry, &mut db, 1, &france);
        // B's own build is in flight while B edits onto a graph that
        // supports A's view.
        assert!(registry.claim("b's build", 2));
        registry.support(2, &france);
        // A pivots away and GOs: B's support keeps the view.
        assert_eq!(registry.collect(&mut db, 1, &nation("PERU"), VirtualTime::ZERO), 0);
        assert!(db.catalog().table(&view).is_some(), "B still supports {view}");
        // Once B pivots too, A's next GO collects it, charged to A unread.
        registry.support(2, &nation("PERU"));
        assert_eq!(registry.collect(&mut db, 1, &nation("PERU"), VirtualTime::ZERO), 1);
        assert!(db.catalog().table(&view).is_none());
        assert_eq!(registry.verdicts(1).wasted, 1);
    }

    #[test]
    fn reads_settle_once_and_count_every_shared_use() {
        let mut db = db();
        let registry = FleetRegistry::new(Observer::disabled());
        registry.join(1);
        registry.join(2);
        let view = build(&registry, &mut db, 1, &nation("FRANCE"));
        let views = [view];
        let at = VirtualTime::ZERO;
        assert_eq!(registry.settle(2, &views, "other", at), (1, vec![]), "a foreign read");
        assert_eq!(registry.settle(1, &views, "other", at).0, 0, "the builder's read");
        let stats = registry.stats();
        assert_eq!((stats.uses, stats.shared_hits, stats.used), (2, 1, 1));
        assert_eq!(registry.verdicts(1).used, 1, "used once, for its builder");
        assert!((stats.cross_session_reuse() - 0.5).abs() < 1e-12);
        // A read build is never charged as waste, even unread survivors' pass.
        registry.charge_unread(VirtualTime::ZERO);
        assert_eq!(registry.verdicts(1).wasted, 0);
    }

    #[test]
    fn retired_and_departed_sessions_support_nothing() {
        let mut db = db();
        let registry = FleetRegistry::new(Observer::disabled());
        for id in 1..=3 {
            registry.join(id);
        }
        let france = nation("FRANCE");
        build(&registry, &mut db, 1, &france);
        registry.support(2, &france);
        registry.support(3, &france);
        registry.retire(2);
        registry.leave(3);
        assert_eq!(registry.collect(&mut db, 1, &QueryGraph::new(), VirtualTime::ZERO), 1);
        assert_eq!(registry.stats().ready, 0);
    }
}
