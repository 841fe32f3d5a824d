//! Page-backed ordered indexes.
//!
//! The paper's *index creation* manipulation builds one of these on a
//! column. The structure is a static two-level B-tree: sorted
//! `(key, rid)` entries packed into leaf pages (stored through the buffer
//! pool, so leaf I/O is costed honestly) plus an in-memory fence array
//! standing in for the inner nodes, which in a real system are almost
//! always cached.
//!
//! Indexes here are built once over existing data and never updated in
//! place — exactly the paper's setting, where the database is read-only
//! during exploration and indexes are created speculatively.

use crate::schema::Schema;
use serde::{Deserialize, Serialize};
use specdb_storage::{AccessKind, BufferPool, HeapFile, StorageResult, Tuple, TupleId, Value};
use std::collections::HashMap;
use std::ops::Bound;

/// A static ordered index mapping key values to tuple ids.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OrderedIndex {
    /// Leaf storage: tuples of `(key, file, page_no, slot)` in key order.
    leaves: HeapFile,
    /// First key of each leaf page, parallel to leaf page numbers.
    fences: Vec<Value>,
    /// Total entries.
    entries: u64,
}

impl OrderedIndex {
    /// Build an index from `(key, rid)` pairs. Pairs need not be sorted.
    /// Null keys are skipped (consistent with SQL index semantics).
    pub fn build(
        pool: &mut BufferPool,
        mut pairs: Vec<(Value, TupleId)>,
    ) -> StorageResult<OrderedIndex> {
        pairs.retain(|(k, _)| !k.is_null());
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        // Charge sort CPU: n log n comparisons approximated as n·log2(n) tuples.
        let n = pairs.len() as u64;
        if n > 0 {
            pool.charge_cpu(n * (64 - n.leading_zeros() as u64).max(1));
        }
        let leaves = HeapFile::create(pool);
        let mut loader = specdb_storage::heap::BulkLoader::new();
        let mut fences: Vec<Value> = Vec::new();
        for (key, tid) in &pairs {
            let entry = Tuple::new(vec![
                key.clone(),
                Value::Int(tid.page.file.0 as i64),
                Value::Int(tid.page.page_no as i64),
                Value::Int(tid.slot as i64),
            ]);
            if loader.push(&entry)? as usize == fences.len() {
                fences.push(key.clone());
            }
        }
        loader.finish(pool, leaves)?;
        Ok(OrderedIndex { leaves, fences, entries: n })
    }

    /// Number of entries.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Number of leaf pages.
    pub fn leaf_pages(&self, pool: &BufferPool) -> u32 {
        self.leaves.pages(pool)
    }

    /// Look up all rids whose key falls in the given bounds.
    pub fn lookup(
        &self,
        pool: &mut BufferPool,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> StorageResult<Vec<TupleId>> {
        let mut out = Vec::new();
        if self.fences.is_empty() {
            return Ok(out);
        }
        // Find the first leaf that could contain a qualifying key: the
        // last leaf whose fence (first key) is *strictly below* the
        // bound. A leaf whose fence equals the bound can have equal keys
        // spilled into the tail of the previous leaf, so starting at the
        // first equal fence would silently drop those entries.
        let start_leaf = match &lo {
            Bound::Unbounded => 0,
            Bound::Included(v) | Bound::Excluded(v) => {
                self.fences.partition_point(|f| f < *v).saturating_sub(1)
            }
        } as u32;
        let total = self.leaves.pages(pool);
        let mut first = true;
        'pages: for page_no in start_leaf..total {
            let pid = specdb_storage::PageId::new(self.leaves.file, page_no);
            let kind = if first { AccessKind::Random } else { AccessKind::Sequential };
            first = false;
            let page = pool.read_page(pid, kind)?;
            for (_, bytes) in page.iter() {
                let entry = Tuple::decode(bytes)?;
                let key = entry.get(0);
                let below_lo = match &lo {
                    Bound::Unbounded => false,
                    Bound::Included(v) => key < *v,
                    Bound::Excluded(v) => key <= *v,
                };
                if below_lo {
                    continue;
                }
                let above_hi = match &hi {
                    Bound::Unbounded => false,
                    Bound::Included(v) => key > *v,
                    Bound::Excluded(v) => key >= *v,
                };
                if above_hi {
                    break 'pages;
                }
                out.push(decode_rid(&entry));
            }
        }
        Ok(out)
    }

    /// Point lookup convenience wrapper.
    pub fn lookup_eq(&self, pool: &mut BufferPool, key: &Value) -> StorageResult<Vec<TupleId>> {
        self.lookup(pool, Bound::Included(key), Bound::Included(key))
    }

    /// Start a batch of point probes against this index (see
    /// [`BatchProber`]). One prober should serve one executor batch.
    pub fn batch_prober(&self) -> BatchProber<'_> {
        BatchProber {
            index: self,
            leaves: HashMap::new(),
            results: HashMap::new(),
            probes: 0,
            saved_descents: 0,
        }
    }

    /// Drop the index's leaf pages.
    pub fn destroy(self, pool: &mut BufferPool) {
        self.leaves.destroy(pool);
    }

    /// Estimated leaf pages touched by a lookup matching `matched` entries.
    pub fn probe_pages(&self, pool: &BufferPool, matched: u64) -> u64 {
        let pages = self.leaves.pages(pool) as u64;
        if pages == 0 || self.entries == 0 {
            return 1;
        }
        let per_page = (self.entries / pages).max(1);
        1 + matched / per_page
    }
}

/// Amortizes a batch of point probes over one ordered pass of the leaf
/// level: each leaf page a batch touches is decoded at most once, and
/// repeat probes for a key already seen in the batch reuse the first
/// probe's result outright.
///
/// **Accounting contract**: every probe still issues exactly the
/// [`BufferPool::read_page`] calls (same pages, same order, same
/// [`AccessKind`]s) that a per-tuple [`OrderedIndex::lookup_eq`] descent
/// would, so buffer state, hit/miss counts, and virtual-time demand are
/// bit-identical to the row-at-a-time path. What the batch saves is the
/// wall-clock descent work: per-entry tuple decoding of every visited
/// leaf, once per probe.
pub struct BatchProber<'i> {
    index: &'i OrderedIndex,
    /// Leaf page number → entries decoded once for the whole batch.
    leaves: HashMap<u32, Vec<(Value, TupleId)>>,
    /// Key → (leaf pages its descent reads, matching rids), filled by the
    /// first probe of each distinct key in the batch.
    results: HashMap<Value, (Vec<u32>, Vec<TupleId>)>,
    probes: u64,
    saved_descents: u64,
}

impl BatchProber<'_> {
    /// Probes served by this prober so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Probes that decoded no leaf entries at all — descents saved
    /// relative to per-tuple [`OrderedIndex::lookup_eq`] calls.
    pub fn saved_descents(&self) -> u64 {
        self.saved_descents
    }

    /// Point lookup with per-batch leaf memoization. Results and I/O
    /// accounting are identical to [`OrderedIndex::lookup_eq`].
    pub fn lookup_eq(&mut self, pool: &mut BufferPool, key: &Value) -> StorageResult<Vec<TupleId>> {
        self.probes += 1;
        let index = self.index;
        if index.fences.is_empty() {
            self.saved_descents += 1;
            return Ok(Vec::new());
        }
        if let Some((pages, rids)) = self.results.get(key) {
            // A descent for this key replays the same page-read sequence
            // regardless of pool state; charge it, then reuse the rids.
            for (i, &page_no) in pages.iter().enumerate() {
                let pid = specdb_storage::PageId::new(index.leaves.file, page_no);
                let kind = if i == 0 { AccessKind::Random } else { AccessKind::Sequential };
                pool.read_page(pid, kind)?;
            }
            self.saved_descents += 1;
            return Ok(rids.clone());
        }
        // Same start leaf as `lookup` (fence-spill rule: start at the last
        // leaf whose fence is strictly below the key).
        let start_leaf = index.fences.partition_point(|f| f < key).saturating_sub(1) as u32;
        let total = index.leaves.pages(pool);
        let mut visited: Vec<u32> = Vec::new();
        let mut out: Vec<TupleId> = Vec::new();
        let mut fresh_decode = false;
        for page_no in start_leaf..total {
            let pid = specdb_storage::PageId::new(index.leaves.file, page_no);
            let kind = if visited.is_empty() { AccessKind::Random } else { AccessKind::Sequential };
            let page = pool.read_page(pid, kind)?;
            visited.push(page_no);
            let entries = match self.leaves.entry(page_no) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    fresh_decode = true;
                    let mut decoded = Vec::with_capacity(page.slot_count());
                    for (_, bytes) in page.iter() {
                        let entry = Tuple::decode(bytes)?;
                        let rid = decode_rid(&entry);
                        decoded.push((entry.get(0).clone(), rid));
                    }
                    e.insert(decoded)
                }
            };
            // Entries are sorted within a leaf: binary-search the equal
            // range instead of decoding and comparing every entry.
            let lo = entries.partition_point(|(k, _)| k < key);
            let hi = entries.partition_point(|(k, _)| k <= key);
            out.extend(entries[lo..hi].iter().map(|(_, rid)| *rid));
            if hi < entries.len() {
                // This page holds an entry above the key: the per-tuple
                // descent stops here too (after reading this page).
                break;
            }
        }
        if !fresh_decode {
            self.saved_descents += 1;
        }
        self.results.insert(key.clone(), (visited, out.clone()));
        Ok(out)
    }
}

fn decode_rid(entry: &Tuple) -> TupleId {
    let int = |i: usize| match entry.get(i) {
        Value::Int(v) => *v,
        other => panic!("index entry field {i} should be Int, got {other:?}"),
    };
    TupleId {
        page: specdb_storage::PageId::new(specdb_storage::FileId(int(1) as u32), int(2) as u32),
        slot: int(3) as u16,
    }
}

/// Extract `(key, rid)` pairs for a column from a heap file (index build input).
pub fn column_pairs(
    pool: &mut BufferPool,
    heap: HeapFile,
    schema: &Schema,
    column: &str,
) -> StorageResult<Vec<(Value, TupleId)>> {
    let idx = schema
        .index_of(column)
        .unwrap_or_else(|| panic!("column {column} not in schema {schema}"));
    let mut pairs = Vec::new();
    heap.for_each(pool, |tid, tuple| {
        pairs.push((tuple.get(idx).clone(), tid));
        true
    })?;
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdb_storage::heap::BulkLoader;

    /// Load `rows` into a fresh heap; return it with each row's first
    /// value and tuple id, in load order.
    fn load_keyed(pool: &mut BufferPool, rows: Vec<Tuple>) -> (HeapFile, Vec<(Value, TupleId)>) {
        let heap = HeapFile::create(pool);
        let mut loader = BulkLoader::new();
        for t in &rows {
            loader.push(t).unwrap();
        }
        loader.finish(pool, heap).unwrap();
        let mut pairs = Vec::new();
        heap.for_each(pool, |tid, t| {
            pairs.push((t.get(0).clone(), tid));
            true
        })
        .unwrap();
        (heap, pairs)
    }

    fn setup(n: i64) -> (BufferPool, HeapFile, OrderedIndex) {
        let mut pool = BufferPool::new(256);
        let mut rows = Vec::new();
        for i in 0..n {
            // Insert keys in scrambled order to exercise the sort.
            let key = (i * 37) % n;
            let t = Tuple::new(vec![Value::Int(key), Value::Str(format!("r{key}"))]);
            rows.push(t);
        }
        let (heap, pairs) = load_keyed(&mut pool, rows);
        let idx = OrderedIndex::build(&mut pool, pairs).unwrap();
        (pool, heap, idx)
    }

    #[test]
    fn point_lookup_finds_exactly_one() {
        let (mut pool, heap, idx) = setup(1000);
        let rids = idx.lookup_eq(&mut pool, &Value::Int(123)).unwrap();
        assert_eq!(rids.len(), 1);
        let t = heap.get(&mut pool, rids[0]).unwrap();
        assert_eq!(t.get(0), &Value::Int(123));
    }

    #[test]
    fn range_lookup_bounds_semantics() {
        let (mut pool, _, idx) = setup(100);
        let count = |lo: Bound<&Value>, hi: Bound<&Value>, pool: &mut BufferPool| {
            idx.lookup(pool, lo, hi).unwrap().len()
        };
        let v10 = Value::Int(10);
        let v20 = Value::Int(20);
        assert_eq!(count(Bound::Included(&v10), Bound::Included(&v20), &mut pool), 11);
        assert_eq!(count(Bound::Excluded(&v10), Bound::Included(&v20), &mut pool), 10);
        assert_eq!(count(Bound::Included(&v10), Bound::Excluded(&v20), &mut pool), 10);
        assert_eq!(count(Bound::Unbounded, Bound::Excluded(&v10), &mut pool), 10);
        assert_eq!(count(Bound::Included(&v10), Bound::Unbounded, &mut pool), 90);
        assert_eq!(count(Bound::Unbounded, Bound::Unbounded, &mut pool), 100);
    }

    #[test]
    fn duplicate_keys_all_found() {
        let mut pool = BufferPool::new(256);
        let mut rows = Vec::new();
        for i in 0..300i64 {
            let key = i % 3;
            rows.push(Tuple::new(vec![Value::Int(key)]));
        }
        let (_, pairs) = load_keyed(&mut pool, rows);
        let idx = OrderedIndex::build(&mut pool, pairs).unwrap();
        assert_eq!(idx.lookup_eq(&mut pool, &Value::Int(0)).unwrap().len(), 100);
        assert_eq!(idx.lookup_eq(&mut pool, &Value::Int(2)).unwrap().len(), 100);
    }

    #[test]
    fn duplicates_straddling_leaf_pages_all_found() {
        // Enough duplicate keys to guarantee a key spans multiple leaves.
        let mut pool = BufferPool::new(1024);
        let mut rows = Vec::new();
        for i in 0..2000i64 {
            let key = if i < 1000 { 5 } else { i };
            rows.push(Tuple::new(vec![Value::Int(key)]));
        }
        let (_, pairs) = load_keyed(&mut pool, rows);
        let idx = OrderedIndex::build(&mut pool, pairs).unwrap();
        assert!(idx.leaf_pages(&pool) > 2);
        assert_eq!(idx.lookup_eq(&mut pool, &Value::Int(5)).unwrap().len(), 1000);
    }

    #[test]
    fn duplicates_spilling_into_previous_leaf_tail_all_found() {
        // Regression: keys equal to a leaf's fence can also sit at the
        // *end of the previous leaf*. Build: ~185 ones filling most of
        // leaf 0, then 20 fives straddling the leaf boundary. A point
        // lookup for 5 must find all 20, including those in leaf 0.
        let mut pool = BufferPool::new(1024);
        let mut rows = Vec::new();
        for i in 0..400i64 {
            let key = if i < 185 {
                1
            } else if i < 205 {
                5
            } else {
                9 + i
            };
            rows.push(Tuple::new(vec![Value::Int(key)]));
        }
        let (_, pairs) = load_keyed(&mut pool, rows);
        let idx = OrderedIndex::build(&mut pool, pairs).unwrap();
        assert!(idx.leaf_pages(&pool) >= 2, "fixture must span leaves");
        assert_eq!(idx.lookup_eq(&mut pool, &Value::Int(5)).unwrap().len(), 20);
        assert_eq!(idx.lookup_eq(&mut pool, &Value::Int(1)).unwrap().len(), 185);
        // Range starting exactly at a fence-adjacent key.
        let v5 = Value::Int(5);
        assert_eq!(
            idx.lookup(&mut pool, Bound::Included(&v5), Bound::Unbounded).unwrap().len(),
            400 - 185
        );
        assert_eq!(
            idx.lookup(&mut pool, Bound::Excluded(&v5), Bound::Unbounded).unwrap().len(),
            400 - 205
        );
    }

    #[test]
    fn null_keys_are_skipped() {
        let mut pool = BufferPool::new(64);
        let mut rows = Vec::new();
        for i in 0..10i64 {
            let key = if i % 2 == 0 { Value::Null } else { Value::Int(i) };
            rows.push(Tuple::new(vec![key.clone()]));
        }
        let (_, pairs) = load_keyed(&mut pool, rows);
        let idx = OrderedIndex::build(&mut pool, pairs).unwrap();
        assert_eq!(idx.entries(), 5);
        assert_eq!(idx.lookup(&mut pool, Bound::Unbounded, Bound::Unbounded).unwrap().len(), 5);
    }

    #[test]
    fn empty_index_lookups() {
        let mut pool = BufferPool::new(16);
        let idx = OrderedIndex::build(&mut pool, Vec::new()).unwrap();
        assert_eq!(idx.entries(), 0);
        assert!(idx.lookup_eq(&mut pool, &Value::Int(1)).unwrap().is_empty());
    }

    #[test]
    fn lookup_charges_random_then_sequential() {
        let (mut pool, _, idx) = setup(5000);
        pool.clear();
        let before = pool.snapshot();
        let v0 = Value::Int(0);
        let v4999 = Value::Int(4999);
        idx.lookup(&mut pool, Bound::Included(&v0), Bound::Included(&v4999)).unwrap();
        let d = pool.demand_since(before);
        assert_eq!(d.rand_reads, 1, "first leaf is a random read");
        assert!(d.seq_reads > 0, "subsequent leaves are sequential");
    }

    /// Probe `keys` through a fresh per-tuple descent and through a
    /// [`BatchProber`] on identical cold pools; rids and resource demand
    /// must match exactly.
    fn assert_prober_agrees(
        make: impl Fn() -> (BufferPool, OrderedIndex),
        keys: &[Value],
        expect_saved: u64,
    ) {
        let (mut pool_a, idx_a) = make();
        let (mut pool_b, idx_b) = make();
        pool_a.clear();
        pool_b.clear();
        let snap_a = pool_a.snapshot();
        let snap_b = pool_b.snapshot();
        let mut prober = idx_b.batch_prober();
        for key in keys {
            let per_tuple = idx_a.lookup_eq(&mut pool_a, key).unwrap();
            let batched = prober.lookup_eq(&mut pool_b, key).unwrap();
            assert_eq!(per_tuple, batched, "rids for {key} must match");
        }
        assert_eq!(
            pool_a.demand_since(snap_a),
            pool_b.demand_since(snap_b),
            "probe accounting must be identical"
        );
        assert_eq!(prober.probes(), keys.len() as u64);
        // Repeat keys are guaranteed savings (leaf-memo hits can add
        // more, depending on how keys pack into leaf pages).
        assert!(
            prober.saved_descents() >= expect_saved,
            "expected at least {expect_saved} saved descents, got {}",
            prober.saved_descents()
        );
        assert!(prober.saved_descents() < prober.probes());
    }

    #[test]
    fn batch_prober_matches_per_tuple_descents() {
        let make = || {
            let (pool, _, idx) = setup(5000);
            (pool, idx)
        };
        // Duplicate and missing keys; every repeat after the first pass
        // over a key's leaves is a saved descent.
        let keys: Vec<Value> =
            [7i64, 4999, 7, 0, 7, 12345, 0].iter().map(|&k| Value::Int(k)).collect();
        assert_prober_agrees(make, &keys, 3);
    }

    #[test]
    fn batch_prober_handles_fence_spilled_duplicates() {
        // Same fixture as duplicates_spilling_into_previous_leaf_tail:
        // keys equal to a fence also sit at the previous leaf's tail.
        let make = || {
            let mut pool = BufferPool::new(1024);
            let mut rows = Vec::new();
            for i in 0..400i64 {
                let key = if i < 185 {
                    1
                } else if i < 205 {
                    5
                } else {
                    9 + i
                };
                rows.push(Tuple::new(vec![Value::Int(key)]));
            }
            let (_, pairs) = load_keyed(&mut pool, rows);
            let idx = OrderedIndex::build(&mut pool, pairs).unwrap();
            (pool, idx)
        };
        let keys: Vec<Value> = [5i64, 1, 5, 300, 1].iter().map(|&k| Value::Int(k)).collect();
        assert_prober_agrees(make, &keys, 2);
        let (mut pool, idx) = make();
        let mut prober = idx.batch_prober();
        assert_eq!(prober.lookup_eq(&mut pool, &Value::Int(5)).unwrap().len(), 20);
    }

    #[test]
    fn batch_prober_on_empty_index() {
        let mut pool = BufferPool::new(16);
        let idx = OrderedIndex::build(&mut pool, Vec::new()).unwrap();
        let mut prober = idx.batch_prober();
        assert!(prober.lookup_eq(&mut pool, &Value::Int(1)).unwrap().is_empty());
        assert_eq!(prober.saved_descents(), 1);
    }

    #[test]
    fn column_pairs_extracts_keys() {
        let mut pool = BufferPool::new(64);
        let heap = HeapFile::create(&mut pool);
        let mut loader = BulkLoader::new();
        for i in 0..5i64 {
            loader
                .push(&Tuple::new(vec![Value::Str(format!("n{i}")), Value::Int(i)]))
                .unwrap();
        }
        loader.finish(&mut pool, heap).unwrap();
        let schema = Schema::new(vec![
            crate::schema::ColumnDef::new("name", crate::schema::DataType::Str),
            crate::schema::ColumnDef::new("v", crate::schema::DataType::Int),
        ]);
        let pairs = column_pairs(&mut pool, heap, &schema, "v").unwrap();
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[3].0, Value::Int(3));
    }
}
