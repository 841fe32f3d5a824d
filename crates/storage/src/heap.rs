//! Heap files: unordered tuple storage over slotted pages.
//!
//! A [`HeapFile`] is a sequence of pages in a [`BufferPool`] file. Tuples
//! are appended through a [`BulkLoader`] (which fills whole pages in
//! memory, so each page is written once) and read back either
//! page-at-a-time for scans or by [`TupleId`] for index lookups.

use crate::buffer::{AccessKind, BufferPool};
use crate::error::{StorageError, StorageResult};
use crate::page::{FileId, Page, PageId};
use crate::tuple::{encode_values, Tuple, Value};
use serde::{Deserialize, Serialize};

/// Physical address of a tuple: page plus slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TupleId {
    /// Page holding the tuple.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

/// A heap file handle. Cheap to copy; all state lives in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeapFile {
    /// Underlying buffer-pool file.
    pub file: FileId,
}

impl HeapFile {
    /// Create an empty heap file.
    pub fn create(pool: &mut BufferPool) -> Self {
        HeapFile { file: pool.create_file() }
    }

    /// Number of pages in the file.
    pub fn pages(&self, pool: &BufferPool) -> u32 {
        pool.file_len(self.file)
    }

    /// Read all live tuples of one page (sequential access).
    pub fn read_page(&self, pool: &mut BufferPool, page_no: u32) -> StorageResult<Vec<Tuple>> {
        let page = pool.read_page(PageId::new(self.file, page_no), AccessKind::Sequential)?;
        page.iter().map(|(_, bytes)| Tuple::decode(bytes)).collect()
    }

    /// Read one page as a columnar segment through the decoded segment
    /// cache (sequential access) — the batch executor's scan primitive.
    /// I/O accounting is identical to [`HeapFile::read_page`]; repeat
    /// reads skip per-tuple decoding while the page stays cached (see
    /// [`BufferPool::read_page_columnar`]).
    pub fn read_page_columnar(
        &self,
        pool: &mut BufferPool,
        page_no: u32,
    ) -> StorageResult<std::sync::Arc<crate::column::ColumnSegment>> {
        pool.read_page_columnar(PageId::new(self.file, page_no), AccessKind::Sequential)
    }

    /// Read all live tuples of one page together with their ids.
    pub fn read_page_with_ids(
        &self,
        pool: &mut BufferPool,
        page_no: u32,
    ) -> StorageResult<Vec<(TupleId, Tuple)>> {
        let pid = PageId::new(self.file, page_no);
        let page = pool.read_page(pid, AccessKind::Sequential)?;
        page.iter()
            .map(|(slot, bytes)| {
                Ok((TupleId { page: pid, slot: slot as u16 }, Tuple::decode(bytes)?))
            })
            .collect()
    }

    /// Fetch a single tuple by id (random access).
    pub fn get(&self, pool: &mut BufferPool, tid: TupleId) -> StorageResult<Tuple> {
        let page = pool.read_page(tid.page, AccessKind::Random)?;
        match page.get(tid.slot as usize)? {
            Some(bytes) => Tuple::decode(bytes),
            None => Err(StorageError::TupleNotFound(tid)),
        }
    }

    /// Visit every live tuple; the closure may stop the scan early by
    /// returning `false`.
    pub fn for_each(
        &self,
        pool: &mut BufferPool,
        mut f: impl FnMut(TupleId, Tuple) -> bool,
    ) -> StorageResult<()> {
        for page_no in 0..self.pages(pool) {
            for (tid, tuple) in self.read_page_with_ids(pool, page_no)? {
                if !f(tid, tuple) {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Collect every tuple (test/convenience helper; scans the whole file).
    pub fn collect_all(&self, pool: &mut BufferPool) -> StorageResult<Vec<Tuple>> {
        let mut out = Vec::new();
        self.for_each(pool, |_, t| {
            out.push(t);
            true
        })?;
        Ok(out)
    }

    /// Drop the file's pages (garbage collection of materializations).
    pub fn destroy(self, pool: &mut BufferPool) {
        pool.free_file(self.file);
    }
}

/// The one appender of heap files (loads, index leaves, materializations).
///
/// Filling is pool-free, so a build can fill pages while its executor
/// holds the pool exclusively. [`BulkLoader::install`] then appends the
/// pages to a heap file, one [`BufferPool::put_page`] per page in order
/// — the same pool operations as writing each page the moment it fills.
#[derive(Default)]
pub struct BulkLoader {
    full: Vec<Page>,
    current: Page,
    loaded: u64,
}

impl BulkLoader {
    /// An empty loader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one tuple, returning the index (among the pages this
    /// loader builds) of the page it landed on.
    pub fn push(&mut self, tuple: &Tuple) -> StorageResult<u32> {
        self.push_values(tuple.values().iter())
    }

    /// Append one row given as its values in column order, encoded in
    /// place into the page exactly as [`Tuple::encode`] would encode
    /// them: no [`Tuple`] is built and no value is cloned.
    pub fn push_values<'a>(
        &mut self,
        values: impl Iterator<Item = &'a Value> + Clone,
    ) -> StorageResult<u32> {
        let (arity, len) =
            values.clone().fold((0, 2), |(n, len), v| (n + 1, len + v.encoded_len()));
        if len > self.current.free_space() && len <= Page::max_tuple_size() {
            self.full.push(std::mem::take(&mut self.current));
        }
        self.current
            .insert_with(len, |buf| encode_values(arity, values, buf))?
            .expect("an empty page holds any tuple that fits a page");
        self.loaded += 1;
        Ok(self.full.len() as u32)
    }

    /// Append the built pages to the end of `heap`, in order, and return
    /// the tuple count. `check` runs before each page write; its error
    /// stops the install and is returned, leaving the pages already
    /// written to the caller to discard.
    pub fn install(
        self,
        pool: &mut BufferPool,
        heap: HeapFile,
        mut check: impl FnMut() -> StorageResult<()>,
    ) -> StorageResult<u64> {
        let first = heap.pages(pool);
        let tail = (self.current.slot_count() > 0).then_some(self.current);
        for (i, page) in self.full.into_iter().chain(tail).enumerate() {
            check()?;
            pool.put_page(PageId::new(heap.file, first + i as u32), page)?;
        }
        Ok(self.loaded)
    }

    /// [`BulkLoader::install`] with no cancellation point.
    pub fn finish(self, pool: &mut BufferPool, heap: HeapFile) -> StorageResult<u64> {
        self.install(pool, heap, || Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i), Value::Str(format!("row-{i}"))])
    }

    fn load(pool: &mut BufferPool, n: i64) -> (HeapFile, Vec<TupleId>) {
        let heap = HeapFile::create(pool);
        let mut loader = BulkLoader::new();
        for i in 0..n {
            loader.push(&tuple(i)).unwrap();
        }
        loader.finish(pool, heap).unwrap();
        let mut tids = Vec::new();
        heap.for_each(pool, |tid, _| {
            tids.push(tid);
            true
        })
        .unwrap();
        (heap, tids)
    }

    #[test]
    fn load_and_scan_round_trip() {
        let mut pool = BufferPool::new(64);
        let (heap, _) = load(&mut pool, 1000);
        let all = heap.collect_all(&mut pool).unwrap();
        assert_eq!(all.len(), 1000);
        assert_eq!(all[0], tuple(0));
        assert_eq!(all[999], tuple(999));
        assert!(heap.pages(&pool) > 1, "1000 tuples should span pages");
    }

    #[test]
    fn get_by_tuple_id() {
        let mut pool = BufferPool::new(64);
        let (heap, tids) = load(&mut pool, 500);
        assert_eq!(heap.get(&mut pool, tids[123]).unwrap(), tuple(123));
        assert_eq!(heap.get(&mut pool, tids[499]).unwrap(), tuple(499));
    }

    #[test]
    fn for_each_early_stop() {
        let mut pool = BufferPool::new(64);
        let (heap, _) = load(&mut pool, 100);
        let mut seen = 0;
        heap.for_each(&mut pool, |_, _| {
            seen += 1;
            seen < 10
        })
        .unwrap();
        assert_eq!(seen, 10);
    }

    #[test]
    fn destroy_frees_pages() {
        let mut pool = BufferPool::new(64);
        let (heap, tids) = load(&mut pool, 100);
        heap.destroy(&mut pool);
        assert!(HeapFile { file: heap.file }.get(&mut pool, tids[0]).is_err());
    }

    #[test]
    fn loader_counts_and_flushes_partial_page() {
        let mut pool = BufferPool::new(64);
        let heap = HeapFile::create(&mut pool);
        let mut loader = BulkLoader::new();
        assert_eq!(loader.push(&tuple(1)).unwrap(), 0);
        assert_eq!(loader.finish(&mut pool, heap).unwrap(), 1);
        assert_eq!(heap.pages(&pool), 1);
        assert_eq!(heap.collect_all(&mut pool).unwrap().len(), 1);
    }

    #[test]
    fn appending_after_finish_continues_file() {
        let mut pool = BufferPool::new(64);
        let (heap, _) = load(&mut pool, 10);
        let mut loader = BulkLoader::new();
        loader.push(&tuple(100)).unwrap();
        loader.finish(&mut pool, heap).unwrap();
        assert_eq!(heap.collect_all(&mut pool).unwrap().len(), 11);
        assert_eq!(heap.pages(&pool), 2, "an append starts a fresh page");
    }

    #[test]
    fn install_writes_each_page_once_and_stops_at_a_failed_check() {
        let build = || {
            let mut loader = BulkLoader::new();
            let last = (0..1000).map(|i| loader.push(&tuple(i)).unwrap()).last().unwrap();
            (loader, last + 1)
        };
        let mut pool = BufferPool::new(64);
        let (loader, pages) = build();
        assert!(pages > 2, "fixture must span pages");
        let heap = HeapFile::create(&mut pool);
        let before = pool.snapshot();
        assert_eq!(loader.finish(&mut pool, heap).unwrap(), 1000);
        assert_eq!(pool.demand_since(before).writes, pages as u64);
        assert_eq!(heap.pages(&pool), pages);
        // A check failing before page 2 leaves exactly pages 0 and 1.
        let (loader, _) = build();
        let heap = HeapFile::create(&mut pool);
        let mut checks = 0;
        let err = loader
            .install(&mut pool, heap, || {
                checks += 1;
                if checks > 2 {
                    Err(StorageError::Cancelled)
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert_eq!(err, StorageError::Cancelled);
        assert_eq!(heap.pages(&pool), 2);
    }

    #[test]
    fn scan_of_large_file_counts_sequential_misses() {
        let mut pool = BufferPool::new(4);
        let (heap, _) = load(&mut pool, 5000);
        pool.clear();
        let before = pool.snapshot();
        heap.collect_all(&mut pool).unwrap();
        let d = pool.demand_since(before);
        assert_eq!(d.seq_reads as u32, heap.pages(&pool));
        assert_eq!(d.rand_reads, 0);
    }
}
