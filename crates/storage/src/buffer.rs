//! Buffer pool with CLOCK (second-chance) replacement and I/O accounting.
//!
//! The pool fronts a virtual disk (an in-memory map of page images). All
//! page traffic in the workspace flows through [`BufferPool::read_page`]
//! and [`BufferPool::put_page`], so the hit/miss/write counters here are
//! an exact record of the I/O a real system would have performed — the
//! raw material for the paper's timing results.
//!
//! Frames can be pinned (pinned frames are never evicted), which is what
//! the paper's *data staging* manipulation requires; it is exposed here
//! even though the reproduction, like the paper's prototype, focuses on
//! materialization-based manipulations.

use crate::column::ColumnSegment;
use crate::disk::ResourceDemand;
use crate::error::{StorageError, StorageResult};
use crate::page::{FileId, Page, PageId, PAGE_SIZE};
use crate::segcache::SegCache;
use specdb_obs::{Counter, Observer};
use std::collections::HashMap;
use std::sync::Arc;

/// Pre-resolved metric handles so the per-access hot path never touches
/// the registry's name map. All handles are no-ops until
/// [`BufferPool::set_observer`] installs a live observer.
#[derive(Clone, Default)]
struct PoolMetrics {
    hit: Counter,
    read_seq: Counter,
    read_rand: Counter,
    write: Counter,
    eviction: Counter,
    cpu_tuples: Counter,
    mem_bytes: Counter,
}

impl PoolMetrics {
    fn resolve(observer: &Observer) -> Self {
        let m = observer.metrics();
        PoolMetrics {
            hit: m.counter("buffer.hit"),
            read_seq: m.counter("disk.read.seq"),
            read_rand: m.counter("disk.read.rand"),
            write: m.counter("disk.write"),
            eviction: m.counter("buffer.eviction"),
            cpu_tuples: m.counter("cpu.tuples"),
            mem_bytes: m.counter("mem.build.bytes"),
        }
    }

    /// Segment-cache handles, resolved alongside the pool's own.
    fn resolve_seg(observer: &Observer) -> crate::segcache::SegMetrics {
        let m = observer.metrics();
        crate::segcache::SegMetrics {
            hit: m.counter("segcache.hit"),
            miss: m.counter("segcache.miss"),
            evict: m.counter("segcache.evictions"),
            resident_bytes: m.gauge("segcache.resident_bytes"),
            decode_us: m.histogram("segcache.decode_us"),
        }
    }
}

/// How a page is being accessed; misses are charged differently by the
/// disk model (sequential transfer vs. seek + read).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Part of a sequential scan of a file.
    Sequential,
    /// A random fetch (index traversal, rid lookup).
    Random,
}

/// Monotonic I/O counters. Snapshot before an execution and diff after to
/// obtain its [`ResourceDemand`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Buffer hits.
    pub hits: u64,
    /// Misses during sequential access.
    pub seq_misses: u64,
    /// Misses during random access.
    pub rand_misses: u64,
    /// Pages written.
    pub writes: u64,
    /// Tuples processed by operators (charged by the executor).
    pub cpu_tuples: u64,
    /// Operator working-memory bytes charged by the executor (hash-join
    /// build sides). Footprint accounting, not timed by the disk model.
    pub mem_bytes: u64,
}

/// An opaque snapshot of [`IoStats`], used to compute deltas.
#[derive(Debug, Clone, Copy)]
pub struct IoSnapshot(IoStats);

#[derive(Clone)]
struct Frame {
    pid: PageId,
    page: Arc<Page>,
    pin: u32,
    referenced: bool,
}

/// An LRU-approximating (CLOCK) buffer pool over an in-memory virtual disk.
///
/// Cloning is cheap-ish (page images are `Arc`-shared): the experiment
/// harness clones a loaded database once per trace replay.
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Frame>,
    page_table: HashMap<PageId, usize>,
    hand: usize,
    disk: HashMap<PageId, Arc<Page>>,
    file_pages: HashMap<FileId, u32>,
    next_file: u32,
    stats: IoStats,
    spill_model: bool,
    observer: Observer,
    metrics: PoolMetrics,
    /// Decoded segment cache: pages kept in columnar form
    /// ([`ColumnSegment`]) while they fit its byte budget, so batch scans
    /// skip per-tuple decoding and share column vectors zero-copy. Purely
    /// a wall-clock fast path — every access still goes through
    /// [`BufferPool::read_page`] accounting, so virtual-time I/O charges
    /// are identical whether or not a segment is cached. `Arc`-shared so
    /// morsel-scan workers can consult and populate it concurrently
    /// without the pool's exclusive borrow (see [`SegCache`]).
    seg_cache: Arc<SegCache>,
}

impl Clone for BufferPool {
    fn clone(&self) -> Self {
        BufferPool {
            capacity: self.capacity,
            frames: self.frames.clone(),
            page_table: self.page_table.clone(),
            hand: self.hand,
            disk: self.disk.clone(),
            file_pages: self.file_pages.clone(),
            next_file: self.next_file,
            stats: self.stats,
            spill_model: self.spill_model,
            observer: self.observer.clone(),
            metrics: self.metrics.clone(),
            // Deep copy, never a shared handle: a clone can allocate the
            // same fresh `FileId` as the original for a different
            // relation, so sharing decoded segments across clones would
            // serve wrong data.
            seg_cache: Arc::new(self.seg_cache.deep_clone()),
        }
    }
}

impl BufferPool {
    /// Create a pool holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: Vec::with_capacity(capacity),
            page_table: HashMap::new(),
            hand: 0,
            disk: HashMap::new(),
            file_pages: HashMap::new(),
            next_file: 0,
            stats: IoStats::default(),
            spill_model: true,
            observer: Observer::disabled(),
            metrics: PoolMetrics::default(),
            // The decoded-segment cache is a wall-clock fast path, so its
            // budget is fixed rather than tied to the modelled pool: the
            // pool is scaled down with the dataset to keep virtual I/O
            // faithful, and a cache that shrank with it would decode most
            // pages again on every read.
            seg_cache: Arc::new(SegCache::new(Self::SEG_BUDGET_BYTES)),
        }
    }

    /// Install an observer: buffer and disk traffic is counted against
    /// its metrics registry, and evictions are emitted as events. The
    /// default observer is disabled and costs nothing.
    pub fn set_observer(&mut self, observer: Observer) {
        self.metrics = PoolMetrics::resolve(&observer);
        self.seg_cache.set_metrics(PoolMetrics::resolve_seg(&observer));
        self.observer = observer;
    }

    /// The observer currently attached to this pool.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocate a fresh file id.
    pub fn create_file(&mut self) -> FileId {
        let id = FileId(self.next_file);
        self.next_file += 1;
        self.file_pages.insert(id, 0);
        id
    }

    /// Number of pages currently allocated to a file.
    pub fn file_len(&self, file: FileId) -> u32 {
        self.file_pages.get(&file).copied().unwrap_or(0)
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.file_pages.len()
    }

    /// Drop a file: remove its pages from the disk and the pool.
    /// Used when materialized relations are garbage-collected.
    pub fn free_file(&mut self, file: FileId) {
        let pages = self.file_len(file);
        self.seg_cache.drop_file(file);
        for page_no in 0..pages {
            let pid = PageId::new(file, page_no);
            self.disk.remove(&pid);
            if let Some(idx) = self.page_table.remove(&pid) {
                // Replace the frame with a tombstone by swap-removing from
                // the frame vector and fixing up the moved frame's index.
                let last = self.frames.len() - 1;
                self.frames.swap(idx, last);
                self.frames.pop();
                if idx < self.frames.len() {
                    let moved_pid = self.frames[idx].pid;
                    self.page_table.insert(moved_pid, idx);
                }
                if self.hand >= self.frames.len() {
                    self.hand = 0;
                }
            }
        }
        self.file_pages.remove(&file);
    }

    /// Read a page through the pool, charging a hit or a miss.
    pub fn read_page(&mut self, pid: PageId, kind: AccessKind) -> StorageResult<Arc<Page>> {
        if let Some(&idx) = self.page_table.get(&pid) {
            self.stats.hits += 1;
            self.metrics.hit.incr();
            self.frames[idx].referenced = true;
            return Ok(Arc::clone(&self.frames[idx].page));
        }
        let page = Arc::clone(self.disk.get(&pid).ok_or(StorageError::PageNotFound(pid))?);
        match kind {
            AccessKind::Sequential => {
                self.stats.seq_misses += 1;
                self.metrics.read_seq.incr();
            }
            AccessKind::Random => {
                self.stats.rand_misses += 1;
                self.metrics.read_rand.incr();
            }
        }
        self.install(pid, Arc::clone(&page))?;
        Ok(page)
    }

    /// Write a page image: it goes to the virtual disk (write-through) and
    /// is installed in the pool. Appending past the end of the file grows it.
    pub fn put_page(&mut self, pid: PageId, page: Page) -> StorageResult<()> {
        let page = Arc::new(page);
        self.stats.writes += 1;
        self.metrics.write.incr();
        // Decoded image is stale now.
        self.seg_cache.invalidate(pid);
        self.disk.insert(pid, Arc::clone(&page));
        let len = self.file_pages.entry(pid.file).or_insert(0);
        if pid.page_no >= *len {
            *len = pid.page_no + 1;
        }
        if let Some(&idx) = self.page_table.get(&pid) {
            self.frames[idx].page = Arc::clone(&page);
            self.frames[idx].referenced = true;
            Ok(())
        } else {
            self.install(pid, page)
        }
    }

    /// Pin a page in the pool (loading it if necessary); pinned pages are
    /// never evicted until unpinned. Supports the paper's data-staging
    /// manipulation.
    pub fn pin(&mut self, pid: PageId) -> StorageResult<()> {
        self.pin_with(pid, AccessKind::Random)
    }

    /// [`BufferPool::pin`] with an explicit access kind (staging warms
    /// pages with sequential reads).
    pub fn pin_with(&mut self, pid: PageId, kind: AccessKind) -> StorageResult<()> {
        self.read_page(pid, kind)?;
        let idx = self.page_table[&pid];
        self.frames[idx].pin += 1;
        Ok(())
    }

    /// Release one pin on a page. Unpinning an unpinned page is a no-op.
    pub fn unpin(&mut self, pid: PageId) {
        if let Some(&idx) = self.page_table.get(&pid) {
            let f = &mut self.frames[idx];
            f.pin = f.pin.saturating_sub(1);
        }
    }

    /// Charge `n` tuples of CPU work to the current execution.
    pub fn charge_cpu(&mut self, n: u64) {
        self.stats.cpu_tuples += n;
        self.metrics.cpu_tuples.add(n);
    }

    /// Charge `bytes` of operator working memory (hash-join build sides).
    /// Footprint accounting only: the disk model assigns it no time, but
    /// it flows through [`ResourceDemand::mem_bytes`] and the
    /// `mem.build.bytes` metric so the cost model and observability layer
    /// see pipeline-breaker memory.
    pub fn charge_mem(&mut self, bytes: u64) {
        self.stats.mem_bytes += bytes;
        self.metrics.mem_bytes.add(bytes);
    }

    /// Resident bytes the segment cache may hold. A decoded page is
    /// admitted while it fits; once full the cache stops admitting pages.
    pub const SEG_BUDGET_BYTES: usize = 64 << 20;

    /// Read a page through the pool and return it as a columnar
    /// [`ColumnSegment`], serving repeat reads from the decoded segment
    /// cache. The underlying [`BufferPool::read_page`] is always
    /// performed first, so hit/miss accounting, frame installs, and
    /// evictions are bit-identical to the undecoded path — the cache only
    /// skips the per-tuple decode work on repeat access (the dominant
    /// wall-clock cost of memory-resident scans).
    pub fn read_page_columnar(
        &mut self,
        pid: PageId,
        kind: AccessKind,
    ) -> StorageResult<Arc<ColumnSegment>> {
        let page = self.read_page(pid, kind)?;
        self.seg_cache.get_or_decode(pid, &page)
    }

    /// A shareable handle to the decoded segment cache, for morsel-scan
    /// workers that decode pages off-thread.
    pub fn seg_cache(&self) -> Arc<SegCache> {
        Arc::clone(&self.seg_cache)
    }

    /// Number of decoded pages currently held by the segment cache.
    pub fn seg_resident(&self) -> usize {
        self.seg_cache.resident()
    }

    /// Resident bytes held by the segment cache.
    pub fn seg_resident_bytes(&self) -> usize {
        self.seg_cache.resident_bytes()
    }

    /// Replace the segment cache's budget, denominated in pages for caller
    /// convenience (the cache itself budgets the equivalent bytes of
    /// decoded segments; default [`BufferPool::SEG_BUDGET_BYTES`]).
    pub fn set_seg_budget(&mut self, pages: usize) {
        self.seg_cache.set_budget(pages * PAGE_SIZE);
    }

    /// Charge synthetic I/O that bypasses the page cache — used for
    /// modelled effects like hash-join partition spills, whose scratch
    /// files a real system streams straight to and from disk.
    pub fn charge_io(&mut self, seq_reads: u64, writes: u64) {
        self.stats.seq_misses += seq_reads;
        self.stats.writes += writes;
        self.metrics.read_seq.add(seq_reads);
        self.metrics.write.add(writes);
    }

    /// Whether memory-overflow spills are modelled (hybrid hash joins
    /// charge partition I/O when their build side exceeds this pool).
    pub fn spill_model(&self) -> bool {
        self.spill_model
    }

    /// Toggle spill modelling. The experiment harness turns it off: the
    /// paper's reported per-query times imply its workload ran in a
    /// regime where plans rarely spilled (filtered intermediates), and
    /// the reproduction targets that observable regime.
    pub fn set_spill_model(&mut self, on: bool) {
        self.spill_model = on;
    }

    /// Snapshot the counters (use with [`BufferPool::demand_since`]).
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot(self.stats)
    }

    /// Resource demand accumulated since `snap`.
    pub fn demand_since(&self, snap: IoSnapshot) -> ResourceDemand {
        ResourceDemand {
            seq_reads: self.stats.seq_misses - snap.0.seq_misses,
            rand_reads: self.stats.rand_misses - snap.0.rand_misses,
            writes: self.stats.writes - snap.0.writes,
            hits: self.stats.hits - snap.0.hits,
            cpu_tuples: self.stats.cpu_tuples - snap.0.cpu_tuples,
            mem_bytes: self.stats.mem_bytes - snap.0.mem_bytes,
        }
    }

    /// Current raw counters.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Number of resident (buffered) pages.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Evict everything unpinned (cold restart between trace replays).
    pub fn clear(&mut self) {
        let pinned: Vec<Frame> = self.frames.drain(..).filter(|f| f.pin > 0).collect();
        self.page_table.clear();
        self.frames = pinned;
        for (idx, f) in self.frames.iter().enumerate() {
            self.page_table.insert(f.pid, idx);
        }
        self.hand = 0;
    }

    fn install(&mut self, pid: PageId, page: Arc<Page>) -> StorageResult<()> {
        if self.frames.len() < self.capacity {
            self.frames.push(Frame { pid, page, pin: 0, referenced: true });
            self.page_table.insert(pid, self.frames.len() - 1);
            return Ok(());
        }
        // CLOCK sweep: clear reference bits until an unreferenced,
        // unpinned victim is found. Two full sweeps guarantee progress
        // unless every frame is pinned.
        let n = self.frames.len();
        for _ in 0..2 * n {
            let f = &mut self.frames[self.hand];
            if f.pin == 0 && !f.referenced {
                let victim = self.hand;
                let evicted = self.frames[victim].pid;
                self.page_table.remove(&evicted);
                self.frames[victim] = Frame { pid, page, pin: 0, referenced: true };
                self.page_table.insert(pid, victim);
                self.hand = (self.hand + 1) % n;
                self.metrics.eviction.incr();
                return Ok(());
            }
            f.referenced = false;
            self.hand = (self.hand + 1) % n;
        }
        Err(StorageError::PoolExhausted { capacity: self.capacity })
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident", &self.frames.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn page_with(byte: u8) -> Page {
        let mut p = Page::new();
        p.insert(&[byte; 16]).unwrap();
        p
    }

    #[test]
    fn pool_and_segcache_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool>();
        assert_send_sync::<SegCache>();
    }

    #[test]
    fn clone_does_not_share_segment_cache() {
        let mut pool = BufferPool::new(4);
        let f = pool.create_file();
        let mut page = Page::new();
        page.insert(&Tuple::new(vec![crate::tuple::Value::Int(7)]).encode()).unwrap();
        pool.put_page(PageId::new(f, 0), page).unwrap();
        pool.read_page_columnar(PageId::new(f, 0), AccessKind::Sequential).unwrap();
        let mut copy = pool.clone();
        assert_eq!(copy.seg_resident(), 1);
        copy.set_seg_budget(0);
        assert_eq!(copy.seg_resident(), 0);
        assert_eq!(pool.seg_resident(), 1, "clone eviction must not leak into the original");
    }

    #[test]
    fn read_miss_then_hit() {
        let mut pool = BufferPool::new(4);
        let f = pool.create_file();
        let pid = PageId::new(f, 0);
        pool.put_page(pid, page_with(1)).unwrap();
        let before = pool.snapshot();
        pool.read_page(pid, AccessKind::Sequential).unwrap();
        let d = pool.demand_since(before);
        // Already resident from the write: a hit, not a miss.
        assert_eq!(d.hits, 1);
        assert_eq!(d.seq_reads, 0);
    }

    #[test]
    fn eviction_causes_miss_on_reread() {
        let mut pool = BufferPool::new(2);
        let f = pool.create_file();
        for i in 0..4u32 {
            pool.put_page(PageId::new(f, i), page_with(i as u8)).unwrap();
        }
        // Pages 0 and 1 must have been evicted; rereading them misses.
        let before = pool.snapshot();
        pool.read_page(PageId::new(f, 0), AccessKind::Sequential).unwrap();
        pool.read_page(PageId::new(f, 1), AccessKind::Random).unwrap();
        let d = pool.demand_since(before);
        assert_eq!(d.seq_reads, 1);
        assert_eq!(d.rand_reads, 1);
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let mut pool = BufferPool::new(2);
        let f = pool.create_file();
        let hot = PageId::new(f, 0);
        pool.put_page(hot, page_with(0)).unwrap();
        pool.pin(hot).unwrap();
        for i in 1..10u32 {
            pool.put_page(PageId::new(f, i), page_with(i as u8)).unwrap();
        }
        let before = pool.snapshot();
        pool.read_page(hot, AccessKind::Random).unwrap();
        assert_eq!(pool.demand_since(before).hits, 1);
        pool.unpin(hot);
    }

    #[test]
    fn all_pinned_pool_exhausts() {
        let mut pool = BufferPool::new(1);
        let f = pool.create_file();
        pool.put_page(PageId::new(f, 0), page_with(0)).unwrap();
        pool.pin(PageId::new(f, 0)).unwrap();
        pool.put_page(PageId::new(f, 1), page_with(1)).unwrap_err();
    }

    #[test]
    fn free_file_removes_pages() {
        let mut pool = BufferPool::new(8);
        let f = pool.create_file();
        for i in 0..3u32 {
            pool.put_page(PageId::new(f, i), page_with(i as u8)).unwrap();
        }
        assert_eq!(pool.file_len(f), 3);
        pool.free_file(f);
        assert_eq!(pool.file_len(f), 0);
        assert!(pool.read_page(PageId::new(f, 0), AccessKind::Random).is_err());
    }

    #[test]
    fn free_file_fixes_swapped_frame_index() {
        let mut pool = BufferPool::new(8);
        let a = pool.create_file();
        let b = pool.create_file();
        pool.put_page(PageId::new(a, 0), page_with(1)).unwrap();
        pool.put_page(PageId::new(b, 0), page_with(2)).unwrap();
        pool.free_file(a);
        // b's frame index must still resolve after the swap-remove.
        let before = pool.snapshot();
        pool.read_page(PageId::new(b, 0), AccessKind::Random).unwrap();
        assert_eq!(pool.demand_since(before).hits, 1);
    }

    #[test]
    fn clear_flushes_unpinned_only() {
        let mut pool = BufferPool::new(4);
        let f = pool.create_file();
        pool.put_page(PageId::new(f, 0), page_with(0)).unwrap();
        pool.put_page(PageId::new(f, 1), page_with(1)).unwrap();
        pool.pin(PageId::new(f, 1)).unwrap();
        pool.clear();
        assert_eq!(pool.resident(), 1);
        let before = pool.snapshot();
        pool.read_page(PageId::new(f, 0), AccessKind::Sequential).unwrap();
        pool.read_page(PageId::new(f, 1), AccessKind::Sequential).unwrap();
        let d = pool.demand_since(before);
        assert_eq!(d.seq_reads, 1);
        assert_eq!(d.hits, 1);
    }

    #[test]
    fn clock_gives_second_chance_to_referenced_frames() {
        // Fill capacity-3 pool with pages 0,1,2. Inserting page 3 sweeps
        // all reference bits clear and evicts page 0 (hand at 0). Then
        // touch page 1 (sets its bit) and insert page 4: the sweep must
        // skip the referenced page 1 and evict page 2 instead.
        let mut pool = BufferPool::new(3);
        let f = pool.create_file();
        for i in 0..5u32 {
            pool.put_page(PageId::new(f, i), page_with(i as u8)).unwrap();
            if i == 2 {
                pool.clear();
                for j in 0..3u32 {
                    pool.read_page(PageId::new(f, j), AccessKind::Sequential).unwrap();
                }
            }
            if i == 3 {
                pool.read_page(PageId::new(f, 1), AccessKind::Sequential).unwrap();
            }
        }
        let before = pool.snapshot();
        pool.read_page(PageId::new(f, 1), AccessKind::Sequential).unwrap();
        assert_eq!(pool.demand_since(before).hits, 1, "referenced page 1 must survive");
        pool.read_page(PageId::new(f, 2), AccessKind::Sequential).unwrap();
        assert_eq!(
            pool.demand_since(before).seq_reads,
            1,
            "unreferenced page 2 must have been evicted"
        );
    }

    #[test]
    fn cpu_charge_flows_to_demand() {
        let mut pool = BufferPool::new(2);
        let before = pool.snapshot();
        pool.charge_cpu(123);
        assert_eq!(pool.demand_since(before).cpu_tuples, 123);
    }

    #[test]
    fn mem_charge_flows_to_demand_without_io() {
        let mut pool = BufferPool::new(2);
        let before = pool.snapshot();
        pool.charge_mem(4096);
        let d = pool.demand_since(before);
        assert_eq!(d.mem_bytes, 4096);
        assert_eq!(d.disk_reads(), 0);
        assert_eq!(d.cpu_tuples, 0);
    }

    #[test]
    fn decoded_reads_charge_identically_to_raw_reads() {
        let mut pool = BufferPool::new(4);
        let f = pool.create_file();
        let mut page = Page::new();
        page.insert(&Tuple::new(vec![crate::tuple::Value::Int(7)]).encode()).unwrap();
        pool.put_page(PageId::new(f, 0), page).unwrap();
        pool.clear();
        // First columnar read: one sequential miss, exactly like read_page.
        let before = pool.snapshot();
        let seg = pool.read_page_columnar(PageId::new(f, 0), AccessKind::Sequential).unwrap();
        assert_eq!(seg.rows(), 1);
        let d = pool.demand_since(before);
        assert_eq!((d.seq_reads, d.hits), (1, 0));
        // Repeat read: a buffer hit, served from the segment cache.
        let before = pool.snapshot();
        let again = pool.read_page_columnar(PageId::new(f, 0), AccessKind::Sequential).unwrap();
        let d = pool.demand_since(before);
        assert_eq!((d.seq_reads, d.hits), (0, 1));
        assert!(Arc::ptr_eq(&seg, &again), "repeat read must reuse the decoded segment");
    }

    /// The segment cache's budget is not the modelled pool's size: a
    /// table five times the pool is decoded once, and re-scanning it
    /// serves every page from the cache while charging the same I/O.
    #[test]
    fn segment_cache_holds_data_larger_than_the_pool() {
        use crate::tuple::Value;
        let observer = Observer::enabled();
        let mut pool = BufferPool::new(8);
        pool.set_observer(observer.clone());
        let f = pool.create_file();
        for i in 0..40u32 {
            // Long distinct strings: the table's decoded bytes exceed the
            // pool's.
            let mut page = Page::new();
            let mut row = 0;
            loop {
                let t = Tuple::new(vec![Value::Str(format!("p{i}-r{row}-{row:040}"))]);
                if page.insert(&t.encode()).unwrap().is_none() {
                    break;
                }
                row += 1;
            }
            pool.put_page(PageId::new(f, i), page).unwrap();
        }
        let scan = |pool: &mut BufferPool| {
            pool.clear();
            let before = pool.snapshot();
            for i in 0..40u32 {
                pool.read_page_columnar(PageId::new(f, i), AccessKind::Sequential).unwrap();
            }
            pool.demand_since(before)
        };
        let misses = || observer.metrics().snapshot().counter("segcache.miss");
        let first = scan(&mut pool);
        assert_eq!(misses(), 40, "a cold scan decodes every page");
        let cold = misses();
        let second = scan(&mut pool);
        assert_eq!(misses() - cold, 0, "a re-scan decodes nothing");
        assert_eq!(first, second, "the cache never changes the charged I/O");
        assert_eq!(first.seq_reads, 40);
        assert!(pool.seg_resident_bytes() > 8 * PAGE_SIZE, "the table outgrows the pool");
    }

    #[test]
    fn segment_cache_invalidated_by_write_and_free() {
        let mut pool = BufferPool::new(4);
        let f = pool.create_file();
        let mut page = Page::new();
        page.insert(&Tuple::new(vec![crate::tuple::Value::Int(1)]).encode()).unwrap();
        pool.put_page(PageId::new(f, 0), page).unwrap();
        pool.read_page_columnar(PageId::new(f, 0), AccessKind::Sequential).unwrap();
        assert_eq!(pool.seg_resident(), 1);
        // Overwriting the page drops the stale decode.
        let mut page2 = Page::new();
        page2.insert(&Tuple::new(vec![crate::tuple::Value::Int(2)]).encode()).unwrap();
        pool.put_page(PageId::new(f, 0), page2).unwrap();
        assert_eq!(pool.seg_resident(), 0);
        let t = pool.read_page_columnar(PageId::new(f, 0), AccessKind::Sequential).unwrap();
        assert_eq!(t.tuple(0), Tuple::new(vec![crate::tuple::Value::Int(2)]));
        // Freeing the file drops its decoded pages.
        pool.free_file(f);
        assert_eq!(pool.seg_resident(), 0);
    }

    #[test]
    fn seg_budget_admits_under_it_and_shrinking_evicts() {
        let mut pool = BufferPool::new(8);
        pool.set_seg_budget(0);
        let f = pool.create_file();
        let mut page = Page::new();
        page.insert(&Tuple::new(vec![crate::tuple::Value::Int(1)]).encode()).unwrap();
        pool.put_page(PageId::new(f, 0), page).unwrap();
        pool.read_page_columnar(PageId::new(f, 0), AccessKind::Sequential).unwrap();
        assert_eq!(pool.seg_resident(), 0, "a page over the budget is refused");
        pool.set_seg_budget(1);
        pool.read_page_columnar(PageId::new(f, 0), AccessKind::Sequential).unwrap();
        assert_eq!(pool.seg_resident(), 1, "a page under the budget is admitted");
        pool.set_seg_budget(0);
        assert_eq!(pool.seg_resident(), 0, "shrinking the budget evicts");
    }

    #[test]
    fn segcache_evictions_are_counted_on_every_removal_path() {
        use crate::tuple::Value;
        let observer = Observer::enabled();
        let mut pool = BufferPool::new(16);
        pool.set_observer(observer.clone());
        let evictions = || observer.metrics().snapshot().counter("segcache.evictions");

        let f = pool.create_file();
        for i in 0..3u32 {
            let mut page = Page::new();
            page.insert(&Tuple::new(vec![Value::Int(i as i64)]).encode()).unwrap();
            pool.put_page(PageId::new(f, i), page).unwrap();
            pool.read_page_columnar(PageId::new(f, i), AccessKind::Sequential).unwrap();
        }
        assert_eq!(pool.seg_resident(), 3);
        assert_eq!(evictions(), 0, "populating the cache evicts nothing");

        // Shrinking the budget drops every segment.
        pool.set_seg_budget(0);
        assert_eq!(pool.seg_resident(), 0);
        assert_eq!(evictions(), 3);
        pool.set_seg_budget(BufferPool::SEG_BUDGET_BYTES / PAGE_SIZE);

        // Stale-invalidation on overwrite.
        pool.read_page_columnar(PageId::new(f, 0), AccessKind::Sequential).unwrap();
        let mut page = Page::new();
        page.insert(&Tuple::new(vec![Value::Int(9)]).encode()).unwrap();
        pool.put_page(PageId::new(f, 0), page).unwrap();
        assert_eq!(evictions(), 4);

        // Freeing a file drops whatever it still has cached.
        pool.read_page_columnar(PageId::new(f, 1), AccessKind::Sequential).unwrap();
        pool.read_page_columnar(PageId::new(f, 2), AccessKind::Sequential).unwrap();
        pool.free_file(f);
        assert_eq!(pool.seg_resident(), 0);
        assert_eq!(evictions(), 6);
    }

    #[test]
    fn observer_counts_traffic_and_evictions() {
        let observer = Observer::enabled();
        let mut pool = BufferPool::new(2);
        pool.set_observer(observer.clone());

        let f = pool.create_file();
        for i in 0..4u32 {
            pool.put_page(PageId::new(f, i), page_with(i as u8)).unwrap();
        }
        pool.read_page(PageId::new(f, 3), AccessKind::Sequential).unwrap();
        pool.read_page(PageId::new(f, 0), AccessKind::Random).unwrap();
        pool.charge_cpu(10);

        let snap = observer.metrics().snapshot();
        assert_eq!(snap.counter("disk.write"), 4);
        assert_eq!(snap.counter("buffer.hit"), 1);
        assert_eq!(snap.counter("disk.read.rand"), 1);
        assert_eq!(snap.counter("cpu.tuples"), 10);
        // Four writes into two frames force evictions, plus one more to
        // bring page 0 back in.
        assert_eq!(snap.counter("buffer.eviction"), 3);
    }

    #[test]
    fn metrics_match_iostats_exactly() {
        let observer = Observer::enabled();
        let mut pool = BufferPool::new(4);
        pool.set_observer(observer.clone());
        let f = pool.create_file();
        for i in 0..6u32 {
            pool.put_page(PageId::new(f, i), page_with(i as u8)).unwrap();
        }
        for i in 0..6u32 {
            let _ = pool.read_page(PageId::new(f, i), AccessKind::Sequential);
        }
        pool.charge_io(5, 2);
        let stats = pool.stats();
        let snap = observer.metrics().snapshot();
        assert_eq!(snap.counter("buffer.hit"), stats.hits);
        assert_eq!(snap.counter("disk.read.seq"), stats.seq_misses);
        assert_eq!(snap.counter("disk.read.rand"), stats.rand_misses);
        assert_eq!(snap.counter("disk.write"), stats.writes);
    }
}
