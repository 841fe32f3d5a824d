//! Plan and estimate memoization keyed on canonical graph keys.
//!
//! Planning the same query graph repeatedly is the common case in this
//! workspace: the speculator re-scores the same candidate sub-queries on
//! every user edit, and trace replay executes canonically identical
//! final queries many times. Every planning input is a pure function of
//! catalog state (tables, statistics, indexes, histograms, registered
//! views) plus static pool parameters (capacity, spill model) — buffer
//! *residency* is never consulted — so a cached plan or estimate stays
//! exact until a DDL-ish operation changes the catalog.
//!
//! Invalidation is wholesale by **DDL epoch**: [`crate::Database`] bumps
//! the epoch on `create_table`/`load`/`create_index`/`drop_index`/
//! `create_histogram`/`drop_histogram`/`materialize`/`drop_materialized`
//! and on view-mode/match-mode changes, and the bump empties the cache.
//! Entries are therefore never stale, which is what makes cached and
//! uncached replays bit-identical (see `tests/determinism.rs`).

use crate::engine::MatEstimate;
use crate::plan::Plan;
use specdb_query::canonical_key;
use specdb_storage::VirtualTime;
use std::collections::HashMap;
use std::fmt::Write;

/// Per-map entry ceiling; hitting it clears that map (deterministic, and
/// far above what a replay session accumulates between DDL epochs).
const MAX_ENTRIES: usize = 4096;

/// Hit/miss counters, exposed via `Database::plan_cache_stats` so tests
/// and benchmarks can observe invalidation behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the planner/estimator.
    pub misses: u64,
    /// DDL-epoch bumps that emptied the cache.
    pub invalidations: u64,
}

/// Bounded memo table for plans and estimates, invalidated by DDL epoch.
#[derive(Clone, Default)]
pub struct PlanCache {
    enabled: bool,
    epoch: u64,
    plans: HashMap<String, (Plan, Vec<String>)>,
    times: HashMap<String, VirtualTime>,
    mats: HashMap<String, MatEstimate>,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// Empty cache; `enabled = false` makes every lookup miss without
    /// storing anything (the comparison arm for benchmarks and the
    /// determinism test).
    pub fn new(enabled: bool) -> Self {
        PlanCache { enabled, ..Default::default() }
    }

    /// Is memoization active?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Toggle memoization; disabling drops all entries.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.clear();
        }
    }

    /// Current DDL epoch (bumped by every catalog-changing operation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Record a catalog change: advance the epoch and drop every entry.
    /// The epoch advances even while disabled, so it counts catalog
    /// changes whichever way the cache is toggled.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
        if !self.plans.is_empty() || !self.times.is_empty() || !self.mats.is_empty() {
            self.stats.invalidations += 1;
            self.clear();
        }
    }

    /// Counters since construction.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Total entries currently cached.
    pub fn len(&self) -> usize {
        self.plans.len() + self.times.len() + self.mats.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn clear(&mut self) {
        self.plans.clear();
        self.times.clear();
        self.mats.clear();
    }

    /// Cached physical plan and the view names its rewrite used.
    pub fn get_plan(&mut self, key: &str) -> Option<(Plan, Vec<String>)> {
        if !self.enabled {
            return None;
        }
        let hit = self.plans.get(key).cloned();
        self.count(hit.is_some());
        hit
    }

    /// Store a plan (no-op while disabled).
    pub fn put_plan(&mut self, key: String, plan: &Plan, used_views: &[String]) {
        if self.enabled {
            if self.plans.len() >= MAX_ENTRIES {
                self.plans.clear();
            }
            self.plans.insert(key, (plan.clone(), used_views.to_vec()));
        }
    }

    /// Cached time estimate (`est:`/`base:`-prefixed keys).
    pub fn get_time(&mut self, key: &str) -> Option<VirtualTime> {
        if !self.enabled {
            return None;
        }
        let hit = self.times.get(key).copied();
        self.count(hit.is_some());
        hit
    }

    /// Store a time estimate (no-op while disabled).
    pub fn put_time(&mut self, key: String, t: VirtualTime) {
        if self.enabled {
            if self.times.len() >= MAX_ENTRIES {
                self.times.clear();
            }
            self.times.insert(key, t);
        }
    }

    /// Cached materialization estimate.
    pub fn get_mat(&mut self, key: &str) -> Option<MatEstimate> {
        if !self.enabled {
            return None;
        }
        let hit = self.mats.get(key).copied();
        self.count(hit.is_some());
        hit
    }

    /// Store a materialization estimate (no-op while disabled).
    pub fn put_mat(&mut self, key: String, est: MatEstimate) {
        if self.enabled {
            if self.mats.len() >= MAX_ENTRIES {
                self.mats.clear();
            }
            self.mats.insert(key, est);
        }
    }

    fn count(&mut self, hit: bool) {
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
    }
}

/// Cache key for a full query: the graph's canonical key plus the
/// projection list and aggregate layer (two queries over the same graph
/// can differ in either). View-mode/match-mode/join-order are not part
/// of the key because changing them bumps the DDL epoch (or is fixed at
/// construction, for join order).
pub fn query_key(query: &specdb_query::Query) -> String {
    let mut s = canonical_key(&query.graph);
    for (rel, col) in &query.projections {
        write!(s, "P({rel},{col});").unwrap();
    }
    if let Some(agg) = &query.agg {
        for (rel, col) in &agg.group_by {
            write!(s, "G({rel},{col});").unwrap();
        }
        for a in &agg.aggs {
            write!(s, "A({a});").unwrap();
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdb_query::{CompareOp, Predicate, Query, QueryGraph, Selection};

    fn graph() -> QueryGraph {
        let mut g = QueryGraph::new();
        g.add_selection(Selection::new("t", Predicate::new("a", CompareOp::Lt, 5i64)));
        g
    }

    #[test]
    fn disabled_cache_never_stores() {
        let mut c = PlanCache::new(false);
        c.put_time("k".into(), VirtualTime::from_secs(1));
        assert_eq!(c.get_time("k"), None);
        assert_eq!(c.stats(), PlanCacheStats::default());
        assert!(c.is_empty());
    }

    #[test]
    fn epoch_bump_empties_and_counts() {
        let mut c = PlanCache::new(true);
        c.put_time("k".into(), VirtualTime::from_secs(1));
        assert!(c.get_time("k").is_some());
        c.bump_epoch();
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.get_time("k"), None);
        assert_eq!(c.stats().invalidations, 1);
        // Bumping an empty cache advances the epoch without counting an
        // invalidation.
        c.bump_epoch();
        assert_eq!(c.epoch(), 2);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut c = PlanCache::new(true);
        assert!(c.get_time("k").is_none());
        c.put_time("k".into(), VirtualTime::from_secs(2));
        assert_eq!(c.get_time("k"), Some(VirtualTime::from_secs(2)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn query_key_separates_projection_and_aggregate_variants() {
        let star = Query::star(graph());
        let proj = Query::star(graph()).project("t", "a");
        assert_ne!(query_key(&star), query_key(&proj));
        assert!(query_key(&star).starts_with(&canonical_key(&graph())));
    }

    #[test]
    fn capacity_clears_rather_than_grows() {
        let mut c = PlanCache::new(true);
        for i in 0..(MAX_ENTRIES + 10) {
            c.put_time(format!("k{i}"), VirtualTime::from_secs(1));
        }
        assert!(c.len() <= MAX_ENTRIES);
    }
}
