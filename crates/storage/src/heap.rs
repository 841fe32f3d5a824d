//! Heap files: unordered tuple storage over slotted pages.
//!
//! A [`HeapFile`] is a sequence of pages in a [`BufferPool`] file. Tuples
//! are appended through a [`BulkLoader`] (which buffers the tail page to
//! avoid read-modify-write traffic during loads and materializations) and
//! read back either page-at-a-time for scans or by [`TupleId`] for index
//! lookups.

use crate::buffer::{AccessKind, BufferPool};
use crate::error::{StorageError, StorageResult};
use crate::page::{FileId, Page, PageId};
use crate::tuple::Tuple;
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
    /// reads of small or hot files skip per-tuple decoding entirely (see
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

/// Buffered appender for a heap file.
///
/// Keeps the tail page in memory and flushes it when full or on
/// [`BulkLoader::finish`]; each flush is a single page write.
pub struct BulkLoader {
    heap: HeapFile,
    next_page_no: u32,
    current: Page,
    current_dirty: bool,
    loaded: u64,
}

impl BulkLoader {
    /// Start loading at the end of `heap`.
    pub fn new(heap: HeapFile, pool: &BufferPool) -> Self {
        BulkLoader {
            heap,
            next_page_no: heap.pages(pool),
            current: Page::new(),
            current_dirty: false,
            loaded: 0,
        }
    }

    /// Append one tuple, returning its id.
    pub fn push(&mut self, pool: &mut BufferPool, tuple: &Tuple) -> StorageResult<TupleId> {
        let encoded = tuple.encode();
        let slot = match self.current.insert(&encoded)? {
            Some(slot) => slot,
            None => {
                self.flush(pool)?;
                self.current
                    .insert(&encoded)?
                    .expect("fresh page must accept a tuple that fits a page")
            }
        };
        self.current_dirty = true;
        self.loaded += 1;
        Ok(TupleId { page: PageId::new(self.heap.file, self.next_page_no), slot: slot as u16 })
    }

    /// Number of tuples pushed so far.
    pub fn loaded(&self) -> u64 {
        self.loaded
    }

    fn flush(&mut self, pool: &mut BufferPool) -> StorageResult<()> {
        if self.current_dirty {
            let page = std::mem::take(&mut self.current);
            pool.put_page(PageId::new(self.heap.file, self.next_page_no), page)?;
            self.next_page_no += 1;
            self.current_dirty = false;
        }
        Ok(())
    }

    /// Flush the tail page and return the tuple count loaded.
    pub fn finish(mut self, pool: &mut BufferPool) -> StorageResult<u64> {
        self.flush(pool)?;
        Ok(self.loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Value;

    fn tuple(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i), Value::Str(format!("row-{i}"))])
    }

    fn load(pool: &mut BufferPool, n: i64) -> (HeapFile, Vec<TupleId>) {
        let heap = HeapFile::create(pool);
        let mut loader = BulkLoader::new(heap, pool);
        let tids: Vec<_> = (0..n).map(|i| loader.push(pool, &tuple(i)).unwrap()).collect();
        loader.finish(pool).unwrap();
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
        let mut loader = BulkLoader::new(heap, &pool);
        loader.push(&mut pool, &tuple(1)).unwrap();
        assert_eq!(loader.loaded(), 1);
        assert_eq!(loader.finish(&mut pool).unwrap(), 1);
        assert_eq!(heap.pages(&pool), 1);
        assert_eq!(heap.collect_all(&mut pool).unwrap().len(), 1);
    }

    #[test]
    fn appending_after_finish_continues_file() {
        let mut pool = BufferPool::new(64);
        let (heap, _) = load(&mut pool, 10);
        let mut loader = BulkLoader::new(heap, &pool);
        loader.push(&mut pool, &tuple(100)).unwrap();
        loader.finish(&mut pool).unwrap();
        assert_eq!(heap.collect_all(&mut pool).unwrap().len(), 11);
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
