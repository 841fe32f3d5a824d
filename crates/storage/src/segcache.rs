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
//! its only admission rule: a decoded page is cached when it fits. It
//! also retains two lightweight side structures:
//!
//! - **Zone maps** ([`crate::column::ZoneMap`]) survive segment
//!   eviction: they are a few dozen bytes per page, and a retained zone
//!   map lets a re-scan skip the page without re-decoding it.
//! - **Prefetch marks** track pages warmed speculatively (see
//!   [`SegCache::prefetch`]), remembering *why* each page was warmed
//!   ([`PrefetchKind`]); a later regular lookup that hits a marked page
//!   counts as `segcache.prefetch_useful.manip` or
//!   `segcache.prefetch_useful.predict` depending on whether a one-step
//!   manipulation or a whole-query prediction issued the warm-up.
//!
//! The cache is a wall-clock fast path only. Virtual-time I/O accounting
//! happens in [`crate::buffer::BufferPool::read_page`] *before* any
//! segment lookup, so whether a decode is served from the cache or
//! recomputed never changes a replay's [`crate::disk::ResourceDemand`].
//! Under concurrent decodes the `segcache.hit`/`segcache.miss` counters
//! may attribute a racing decode to two misses where a serial run would
//! see a miss then a hit — the cached *contents* are identical either
//! way because [`ColumnSegment::decode_page`] is deterministic.
//! Speculative prefetch is asynchronous and guarded by a cache version:
//! any page write or file drop bumps the version and in-flight prefetch
//! results against the old version are discarded, so a stale page image
//! can never enter the cache.

use crate::column::{ColumnSegment, ZoneMap};
use crate::error::StorageResult;
use crate::page::{FileId, Page, PageId};
use parking_lot::Mutex;
use specdb_obs::{Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::sync::Arc;

/// Why a page was speculatively warmed. Useful-prefetch accounting is
/// split by kind so the observability layer can tell whether warm hits
/// came from one-step manipulation builds or from whole-query
/// prediction pre-execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchKind {
    /// Warmed ahead of a one-step speculative manipulation build.
    Manipulation,
    /// Warmed ahead of a predicted completed query's pre-execution.
    Prediction,
}

/// Metric handles bumped by the cache (no-ops until the pool's observer
/// hookup, [`crate::buffer::BufferPool::set_observer`], installs them via
/// [`SegCache::set_metrics`]).
#[derive(Clone, Default)]
pub(crate) struct SegMetrics {
    pub hit: Counter,
    pub miss: Counter,
    pub evict: Counter,
    pub prefetch_issued: Counter,
    pub prefetch_useful_manip: Counter,
    pub prefetch_useful_predict: Counter,
    pub resident_bytes: Gauge,
    /// Wall-clock decode cost per page, microseconds. Observational
    /// only — never feeds virtual accounting.
    pub decode_us: Histogram,
}

/// A retained zone-map entry. `confirmed` means a synchronous
/// (deterministic) code path — a regular scan or decode — has touched
/// this page; entries populated only by asynchronous prefetch stay
/// unconfirmed until then. Consumers that must stay deterministic
/// across prefetch timing (the cost estimator) only read confirmed
/// entries; scans may use either, since a zone-based skip decision is a
/// pure function of page content.
struct ZoneEntry {
    zones: Arc<Vec<ZoneMap>>,
    confirmed: bool,
}

#[derive(Default)]
struct SegCacheInner {
    map: HashMap<PageId, Arc<ColumnSegment>>,
    /// Zone maps by page, retained after segment eviction (dropped only
    /// when the page is overwritten or its file freed).
    zones: HashMap<PageId, ZoneEntry>,
    /// Pages inserted by speculative prefetch and not yet re-read,
    /// tagged with the kind of speculation that warmed them.
    prefetched: HashMap<PageId, PrefetchKind>,
    /// Max resident bytes; a decoded page is admitted only if it fits.
    budget_bytes: usize,
    /// Resident bytes across all cached segments.
    resident_bytes: usize,
    /// Bumped on every invalidation/file drop; in-flight prefetches
    /// carry the version they observed and discard on mismatch.
    version: u64,
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
                self.prefetched.remove(&pid);
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

    fn put_zones(&mut self, pid: PageId, seg: &ColumnSegment, confirmed: bool) {
        match self.zones.get_mut(&pid) {
            Some(e) => e.confirmed |= confirmed,
            None => {
                self.zones.insert(pid, ZoneEntry { zones: seg.zones_arc(), confirmed });
            }
        }
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
            let mut inner = self.inner.lock();
            if let Some(seg) = inner.map.get(&pid) {
                let seg = Arc::clone(seg);
                inner.metrics.hit.incr();
                if let Some(kind) = inner.prefetched.remove(&pid) {
                    match kind {
                        PrefetchKind::Manipulation => inner.metrics.prefetch_useful_manip.incr(),
                        PrefetchKind::Prediction => inner.metrics.prefetch_useful_predict.incr(),
                    }
                }
                // A regular read confirms the page's zones for
                // deterministic consumers.
                if let Some(e) = inner.zones.get_mut(&pid) {
                    e.confirmed = true;
                }
                return Ok(seg);
            }
            inner.metrics.miss.incr();
            metrics = inner.metrics.clone();
        }
        let t0 = std::time::Instant::now();
        let seg = Arc::new(ColumnSegment::decode_page(page)?);
        metrics.decode_us.record(t0.elapsed().as_micros() as f64);
        let mut inner = self.inner.lock();
        inner.put_zones(pid, &seg, true);
        if inner.fits(&seg) {
            if let Some(existing) = inner.map.get(&pid) {
                return Ok(Arc::clone(existing));
            }
            inner.insert(pid, &seg);
        }
        Ok(seg)
    }

    /// Speculatively warm `pid`: decode and cache it ahead of a
    /// predicted query, without touching hit/miss accounting. `version`
    /// must be [`SegCache::version`] observed when the page image was
    /// captured; if the cache has been invalidated since, the result is
    /// discarded (the image may be stale). `kind` records whether a
    /// manipulation or a whole-query prediction is warming the page, so
    /// a later useful hit is attributed to the right counter. Returns
    /// `true` if the page was newly warmed.
    pub fn prefetch(&self, pid: PageId, page: &Page, version: u64, kind: PrefetchKind) -> bool {
        let metrics;
        {
            let inner = self.inner.lock();
            if inner.version != version || inner.map.contains_key(&pid) {
                return false;
            }
            metrics = inner.metrics.clone();
        }
        metrics.prefetch_issued.incr();
        let t0 = std::time::Instant::now();
        let Ok(seg) = ColumnSegment::decode_page(page) else {
            return false;
        };
        let seg = Arc::new(seg);
        metrics.decode_us.record(t0.elapsed().as_micros() as f64);
        let mut inner = self.inner.lock();
        if inner.version != version || inner.map.contains_key(&pid) {
            return false;
        }
        inner.put_zones(pid, &seg, false);
        if inner.fits(&seg) {
            inner.insert(pid, &seg);
            inner.prefetched.insert(pid, kind);
            return true;
        }
        false
    }

    /// True if `pid`'s segment is currently resident.
    pub fn contains(&self, pid: PageId) -> bool {
        self.inner.lock().map.contains_key(&pid)
    }

    /// Current invalidation version (pair with [`SegCache::prefetch`]).
    pub fn version(&self) -> u64 {
        self.inner.lock().version
    }

    /// Retained zone maps for `pid`, if any — available even after the
    /// segment itself was evicted. Calling this from a scan confirms
    /// the entry (scans are deterministic readers).
    pub fn zone_maps(&self, pid: PageId) -> Option<Arc<Vec<ZoneMap>>> {
        let mut inner = self.inner.lock();
        inner.zones.get_mut(&pid).map(|e| {
            e.confirmed = true;
            Arc::clone(&e.zones)
        })
    }

    /// Zone maps for `pid` only if a deterministic (non-prefetch) path
    /// has touched the page — safe for cost estimation, which must not
    /// vary with asynchronous prefetch timing.
    pub fn confirmed_zone_maps(&self, pid: PageId) -> Option<Arc<Vec<ZoneMap>>> {
        let inner = self.inner.lock();
        inner.zones.get(&pid).filter(|e| e.confirmed).map(|e| Arc::clone(&e.zones))
    }

    /// Drop the cached decode of `pid` (its page image was overwritten).
    /// Its zone maps go with it, and in-flight prefetches are fenced.
    pub(crate) fn invalidate(&self, pid: PageId) {
        let mut inner = self.inner.lock();
        inner.version += 1;
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
        inner.version += 1;
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
                zones: inner
                    .zones
                    .iter()
                    .map(|(pid, e)| {
                        (*pid, ZoneEntry { zones: Arc::clone(&e.zones), confirmed: e.confirmed })
                    })
                    .collect(),
                prefetched: inner.prefetched.clone(),
                budget_bytes: inner.budget_bytes,
                resident_bytes: inner.resident_bytes,
                version: inner.version,
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
        let v = cache.version();
        assert!(!cache.prefetch(pid, &page, v, PrefetchKind::Manipulation), "nor a prefetch");
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

    #[test]
    fn prefetch_warms_and_marks_pages() {
        let cache = SegCache::new(usize::MAX);
        let pid = PageId::new(FileId(4), 0);
        let page = wide_page(20);
        let v = cache.version();
        assert!(cache.prefetch(pid, &page, v, PrefetchKind::Manipulation));
        assert!(cache.contains(pid));
        assert!(!cache.prefetch(pid, &page, v, PrefetchKind::Prediction), "already resident");
        // Prefetch-only zones are unconfirmed: estimators must not see
        // them until a regular read lands.
        assert!(cache.confirmed_zone_maps(pid).is_none());
        cache.get_or_decode(pid, &page).unwrap();
        assert!(cache.confirmed_zone_maps(pid).is_some());
    }

    #[test]
    fn stale_prefetch_is_discarded() {
        let cache = SegCache::new(usize::MAX);
        let pid = PageId::new(FileId(5), 0);
        let v = cache.version();
        // A write lands between page capture and the prefetch decode.
        cache.invalidate(pid);
        assert!(
            !cache.prefetch(pid, &wide_page(20), v, PrefetchKind::Manipulation),
            "stale version must be fenced"
        );
        assert!(!cache.contains(pid));
        assert!(cache.zone_maps(pid).is_none());
    }
}
