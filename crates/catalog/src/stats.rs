//! Table and column statistics.
//!
//! Basic statistics (row count, page count, per-column min/max/distinct)
//! are collected when a table is loaded, mirroring a DBMS `ANALYZE`.
//! Histograms are *not* built automatically — in the paper they are one
//! of the speculative manipulations — but the plain stats give the
//! optimizer fallback estimates when no histogram exists.

use serde::{Deserialize, Serialize};
use specdb_storage::{BufferPool, HeapFile, StorageResult, Value};
use std::collections::HashSet;

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Estimated number of distinct values.
    pub distinct: u64,
    /// Minimum non-null value, if any.
    pub min: Option<Value>,
    /// Maximum non-null value, if any.
    pub max: Option<Value>,
    /// Number of nulls.
    pub nulls: u64,
}

/// Whole-table statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    /// Row count.
    pub rows: u64,
    /// Page count.
    pub pages: u64,
    /// One entry per column.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Empty-table stats with the right arity.
    pub fn empty(arity: usize) -> Self {
        TableStats {
            rows: 0,
            pages: 0,
            columns: vec![ColumnStats { distinct: 0, min: None, max: None, nulls: 0 }; arity],
        }
    }

    /// Scan a heap file and gather statistics (charges the scan's I/O,
    /// just like a real `ANALYZE` would).
    pub fn analyze(pool: &mut BufferPool, heap: HeapFile, arity: usize) -> StorageResult<Self> {
        let mut rows = 0u64;
        let mut mins: Vec<Option<Value>> = vec![None; arity];
        let mut maxs: Vec<Option<Value>> = vec![None; arity];
        let mut nulls = vec![0u64; arity];
        let mut distincts: Vec<HashSet<Value>> = vec![HashSet::new(); arity];
        // Cap the distinct-tracking set; beyond the cap, scale up by the
        // sampled rate (standard sketch-free approximation).
        const DISTINCT_CAP: usize = 1 << 16;
        let mut saturated = vec![false; arity];
        heap.for_each(pool, |_, t| {
            rows += 1;
            for (i, v) in t.values().iter().enumerate().take(arity) {
                if v.is_null() {
                    nulls[i] += 1;
                    continue;
                }
                match &mins[i] {
                    Some(m) if v >= m => {}
                    _ => mins[i] = Some(v.clone()),
                }
                match &maxs[i] {
                    Some(m) if v <= m => {}
                    _ => maxs[i] = Some(v.clone()),
                }
                if !saturated[i] {
                    distincts[i].insert(v.clone());
                    if distincts[i].len() >= DISTINCT_CAP {
                        saturated[i] = true;
                    }
                }
            }
            true
        })?;
        let columns = (0..arity)
            .map(|i| ColumnStats {
                distinct: if saturated[i] {
                    // Assume distinct grows proportionally past the cap.
                    (DISTINCT_CAP as u64).max(rows / 2)
                } else {
                    distincts[i].len() as u64
                },
                min: mins[i].clone(),
                max: maxs[i].clone(),
                nulls: nulls[i],
            })
            .collect();
        Ok(TableStats { rows, pages: heap.pages(pool) as u64, columns })
    }

    /// Column stats accessor.
    pub fn column(&self, idx: usize) -> &ColumnStats {
        &self.columns[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdb_storage::heap::BulkLoader;
    use specdb_storage::Tuple;

    #[test]
    fn analyze_computes_basic_stats() {
        let mut pool = BufferPool::new(64);
        let heap = HeapFile::create(&mut pool);
        let mut loader = BulkLoader::new();
        for i in 0..100i64 {
            let v = if i % 10 == 0 { Value::Null } else { Value::Int(i % 7) };
            loader.push(&Tuple::new(vec![Value::Int(i), v])).unwrap();
        }
        loader.finish(&mut pool, heap).unwrap();
        let stats = TableStats::analyze(&mut pool, heap, 2).unwrap();
        assert_eq!(stats.rows, 100);
        assert!(stats.pages >= 1);
        assert_eq!(stats.column(0).distinct, 100);
        assert_eq!(stats.column(0).min, Some(Value::Int(0)));
        assert_eq!(stats.column(0).max, Some(Value::Int(99)));
        assert_eq!(stats.column(1).nulls, 10);
        assert_eq!(stats.column(1).distinct, 7);
    }

    #[test]
    fn empty_table_stats() {
        let mut pool = BufferPool::new(8);
        let heap = HeapFile::create(&mut pool);
        let stats = TableStats::analyze(&mut pool, heap, 3).unwrap();
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.columns.len(), 3);
        assert_eq!(stats.column(0).min, None);
    }
}
