//! Shared decoded-segment cache.
//!
//! PR 4 kept decoded [`ColumnSegment`]s in a plain `HashMap` inside the
//! buffer pool, reachable only through `&mut BufferPool`. Morsel-driven
//! execution needs worker threads to consult and populate the cache
//! *without* the pool's exclusive borrow, so the cache now lives behind
//! an [`Arc`] with a vendored `parking_lot` mutex: the pool holds one
//! handle, every scan worker holds another.
//!
//! The cache budgets by **resident bytes** of the decoded columns (see
//! [`ColumnSegment::bytes`]) rather than entry count, and the budget is
//! its only admission rule: a decoded page is cached when it fits. The
//! cache has one fill path, [`SegCache::get_or_decode`] on a synchronous
//! read. Beside the segments it retains **zone maps**
//! ([`crate::column::ZoneMap`]), which survive segment eviction: they are
//! a few dozen bytes per page, and a retained zone map lets a re-scan
//! skip the page without re-decoding it.
//!
//! The cache is a wall-clock fast path only. Virtual-time I/O accounting
//! happens in [`crate::buffer::BufferPool::read_page`] *before* any
//! segment lookup, so whether a decode is served from the cache or
//! recomputed never changes a replay's [`crate::disk::ResourceDemand`].
//! Under concurrent decodes the `segcache.hit`/`segcache.miss` counters
//! may attribute a racing decode to two misses where a serial run would
//! see a miss then a hit — the cached *contents* are identical either
//! way because [`ColumnSegment::decode_page`] is deterministic. A replay
//! at one thread repeats the counters exactly. Every filler is a
//! reader, and writes take `&mut BufferPool`, so no decode of a stale
//! page image can race an invalidation.

use crate::column::{ColumnSegment, ZoneMap};
use crate::error::StorageResult;
use crate::page::{FileId, Page, PageId};
use parking_lot::Mutex;
use specdb_obs::{Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::sync::Arc;

/// Metric handles bumped by the cache (no-ops until the pool's observer
/// hookup, [`crate::buffer::BufferPool::set_observer`], installs them via
/// [`SegCache::set_metrics`]).
#[derive(Clone, Default)]
pub(crate) struct SegMetrics {
    pub hit: Counter,
    pub miss: Counter,
    pub evict: Counter,
    pub resident_bytes: Gauge,
    /// Wall-clock decode cost per page, microseconds. Observational
    /// only — never feeds virtual accounting.
    pub decode_us: Histogram,
}

#[derive(Default)]
struct SegCacheInner {
    map: HashMap<PageId, Arc<ColumnSegment>>,
    /// Zone maps by page, retained after segment eviction (dropped only
    /// when the page is overwritten or its file freed).
    zones: HashMap<PageId, Arc<Vec<ZoneMap>>>,
    /// Max resident bytes; a decoded page is admitted only if it fits.
    budget_bytes: usize,
    /// Resident bytes across all cached segments.
    resident_bytes: usize,
    metrics: SegMetrics,
}

impl SegCacheInner {
    fn insert(&mut self, pid: PageId, seg: &Arc<ColumnSegment>) {
        if self.map.insert(pid, Arc::clone(seg)).is_none() {
            self.resident_bytes += seg.bytes();
            self.metrics.resident_bytes.set(self.resident_bytes as f64);
        }
    }

    fn forget(&mut self, pid: PageId) -> bool {
        match self.map.remove(&pid) {
            Some(seg) => {
                self.resident_bytes -= seg.bytes();
                self.metrics.resident_bytes.set(self.resident_bytes as f64);
                true
            }
            None => false,
        }
    }

    /// Drop every cached segment not matching `keep`, counting
    /// evictions. Zone maps are retained: the underlying pages are
    /// unchanged.
    fn evict_where(&mut self, keep: impl Fn(&PageId) -> bool) {
        let victims: Vec<PageId> = self.map.keys().filter(|pid| !keep(pid)).copied().collect();
        for pid in victims {
            self.forget(pid);
            self.metrics.evict.incr();
        }
    }

    fn fits(&self, seg: &ColumnSegment) -> bool {
        self.resident_bytes + seg.bytes() <= self.budget_bytes
    }
}

/// A thread-safe cache of decoded column segments, shared between the
/// buffer pool and morsel-scan workers via `Arc<SegCache>`.
pub struct SegCache {
    inner: Mutex<SegCacheInner>,
}

impl SegCache {
    /// Create a cache that holds up to `budget_bytes` of decoded
    /// segments.
    pub fn new(budget_bytes: usize) -> Self {
        SegCache { inner: Mutex::new(SegCacheInner { budget_bytes, ..SegCacheInner::default() }) }
    }

    /// Install metric handles (called when the pool's observer changes).
    pub(crate) fn set_metrics(&self, m: SegMetrics) {
        let mut inner = self.inner.lock();
        inner.metrics = m;
        inner.metrics.resident_bytes.set(inner.resident_bytes as f64);
    }

    /// Look up the decoded form of `pid`, decoding on miss and caching
    /// the result when it fits the byte budget.
    ///
    /// The decode itself runs outside the lock so concurrent workers
    /// never serialize on CPU work; a racing double-decode inserts one
    /// winner and both callers get a correct segment.
    pub fn get_or_decode(&self, pid: PageId, page: &Page) -> StorageResult<Arc<ColumnSegment>> {
        let metrics;
        {
            let inner = self.inner.lock();
            if let Some(seg) = inner.map.get(&pid) {
                inner.metrics.hit.incr();
                return Ok(Arc::clone(seg));
            }
            inner.metrics.miss.incr();
            metrics = inner.metrics.clone();
        }
        let t0 = std::time::Instant::now();
        let seg = Arc::new(ColumnSegment::decode_page(page)?);
        metrics.decode_us.record(t0.elapsed().as_micros() as f64);
        let mut inner = self.inner.lock();
        inner.zones.entry(pid).or_insert_with(|| seg.zones_arc());
        if inner.fits(&seg) {
            if let Some(existing) = inner.map.get(&pid) {
                return Ok(Arc::clone(existing));
            }
            inner.insert(pid, &seg);
        }
        Ok(seg)
    }

    /// True if `pid`'s segment is currently resident.
    pub fn contains(&self, pid: PageId) -> bool {
        self.inner.lock().map.contains_key(&pid)
    }

    /// Retained zone maps for `pid`, if any — available even after the
    /// segment itself was evicted.
    pub fn zone_maps(&self, pid: PageId) -> Option<Arc<Vec<ZoneMap>>> {
        self.inner.lock().zones.get(&pid).cloned()
    }

    /// Drop the cached decode of `pid` (its page image was overwritten).
    /// Its zone maps go with it.
    pub(crate) fn invalidate(&self, pid: PageId) {
        let mut inner = self.inner.lock();
        inner.zones.remove(&pid);
        if inner.forget(pid) {
            inner.metrics.evict.incr();
        }
    }

    /// Forget `file` entirely (it was freed): drop its pages *and* zone
    /// maps, counting each segment as an eviction.
    /// `FileId`s are reused, so nothing may survive.
    pub(crate) fn drop_file(&self, file: FileId) {
        let mut inner = self.inner.lock();
        inner.zones.retain(|pid, _| pid.file != file);
        inner.evict_where(|pid| pid.file != file);
    }

    /// Number of decoded pages currently resident.
    pub fn resident(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Resident bytes across all cached segments.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().resident_bytes
    }

    /// Replace the byte budget; shrinking below the resident size drops
    /// every segment.
    pub(crate) fn set_budget(&self, bytes: usize) {
        let mut inner = self.inner.lock();
        inner.budget_bytes = bytes;
        if inner.resident_bytes > bytes {
            inner.evict_where(|_| false);
        }
    }

    /// An independent copy with the same contents, budget and
    /// metric handles. Cloning a [`crate::buffer::BufferPool`] must
    /// *not* share cache state: two clones can allocate the same fresh
    /// `FileId` for different relations, and a shared cache would serve
    /// one clone's decodes to the other.
    pub(crate) fn deep_clone(&self) -> SegCache {
        let inner = self.inner.lock();
        SegCache {
            inner: Mutex::new(SegCacheInner {
                map: inner.map.clone(),
                zones: inner.zones.clone(),
                budget_bytes: inner.budget_bytes,
                resident_bytes: inner.resident_bytes,
                metrics: inner.metrics.clone(),
            }),
        }
    }
}

impl std::fmt::Debug for SegCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SegCache")
            .field("resident", &inner.map.len())
            .field("resident_bytes", &inner.resident_bytes)
            .field("zones", &inner.zones.len())
            .field("budget_bytes", &inner.budget_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Tuple, Value};

    fn one_row_page(v: i64) -> Page {
        let mut p = Page::new();
        p.insert(&Tuple::new(vec![Value::Int(v)]).encode()).unwrap();
        p
    }

    /// A page big enough that its resident bytes are nontrivial.
    fn wide_page(rows: i64) -> Page {
        let mut p = Page::new();
        for i in 0..rows {
            p.insert(&Tuple::new(vec![Value::Int(i), Value::Str(format!("v{}", i % 4))]).encode())
                .unwrap();
        }
        p
    }

    #[test]
    fn concurrent_get_or_decode_is_safe_and_correct() {
        let cache = Arc::new(SegCache::new(64 * crate::page::PAGE_SIZE));
        let f = FileId(0);
        let pages: Vec<Page> = (0..8).map(one_row_page).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let pages = &pages;
                s.spawn(move || {
                    for (i, page) in pages.iter().enumerate() {
                        let pid = PageId::new(f, i as u32);
                        let seg = cache.get_or_decode(pid, page).unwrap();
                        assert_eq!(seg.rows(), 1);
                        assert_eq!(seg.col(0)[0], Value::Int(i as i64));
                    }
                });
            }
        });
        assert_eq!(cache.resident(), 8);
        assert!(cache.resident_bytes() > 0);
    }

    #[test]
    fn deep_clone_diverges_from_original() {
        let cache = SegCache::new(64 * crate::page::PAGE_SIZE);
        let f = FileId(3);
        let pid = PageId::new(f, 0);
        cache.get_or_decode(pid, &one_row_page(1)).unwrap();
        let copy = cache.deep_clone();
        assert_eq!(copy.resident(), 1);
        copy.invalidate(pid);
        assert_eq!(copy.resident(), 0);
        assert_eq!(cache.resident(), 1, "clone removal must not touch the original");
    }

    #[test]
    fn budget_alone_decides_admission() {
        let cache = SegCache::new(0);
        let pid = PageId::new(FileId(1), 0);
        let page = one_row_page(7);
        cache.get_or_decode(pid, &page).unwrap();
        assert_eq!(cache.resident(), 0, "budget 0 admits nothing");
        cache.set_budget(usize::MAX);
        cache.get_or_decode(pid, &page).unwrap();
        assert_eq!(cache.resident(), 1, "a page that fits is admitted");
        cache.set_budget(0);
        assert_eq!(cache.resident(), 0, "shrinking the budget evicts");
    }

    #[test]
    fn budget_is_in_resident_bytes() {
        let page = wide_page(100);
        let one = ColumnSegment::decode_page(&page).unwrap().bytes();
        assert!(one > 0);
        // Budget for exactly two segments: the third must be refused.
        let cache = SegCache::new(2 * one);
        for i in 0..3 {
            cache.get_or_decode(PageId::new(FileId(1), i), &page).unwrap();
        }
        assert_eq!(cache.resident(), 2, "third segment exceeds the byte budget");
        assert_eq!(cache.resident_bytes(), 2 * one);
        // Shrinking the budget evicts down.
        cache.set_budget(one - 1);
        assert_eq!(cache.resident(), 0);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn zone_maps_survive_segment_eviction() {
        let cache = SegCache::new(usize::MAX);
        let f = FileId(2);
        let pid = PageId::new(f, 0);
        cache.get_or_decode(pid, &wide_page(50)).unwrap();
        assert!(cache.zone_maps(pid).is_some());
        cache.set_budget(0); // evict everything
        assert_eq!(cache.resident(), 0);
        let zones = cache.zone_maps(pid).expect("zones outlive eviction");
        assert_eq!(zones[0].min, Some(Value::Int(0)));
        assert_eq!(zones[0].max, Some(Value::Int(49)));
        // A write to the page drops them (content changed).
        cache.invalidate(pid);
        assert!(cache.zone_maps(pid).is_none());
    }
}
