//! The catalog proper: name → table, plus per-column indexes and histograms.

use crate::histogram::Histogram;
use crate::index::OrderedIndex;
use crate::schema::Schema;
use crate::stats::TableStats;
use crate::table::Table;
use specdb_storage::{BufferPool, HeapFile, StorageResult};
use std::collections::HashMap;

/// Key for per-column auxiliary structures: `(table, column)` names.
type ColKey = (String, String);

/// The system catalog.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    indexes: HashMap<ColKey, OrderedIndex>,
    histograms: HashMap<ColKey, Histogram>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table backed by an existing heap file. Replaces any
    /// previous table of the same name (the old table's storage is *not*
    /// freed here; callers own that decision).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        heap: HeapFile,
        stats: TableStats,
    ) {
        let name = name.into();
        self.tables.insert(name.clone(), Table { name, schema, heap, stats });
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// All table names (unordered).
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Remove a table and its auxiliary structures, freeing storage.
    pub fn drop_table(&mut self, pool: &mut BufferPool, name: &str) -> Option<Table> {
        let table = self.tables.remove(name)?;
        let keys: Vec<ColKey> = self.indexes.keys().filter(|(t, _)| t == name).cloned().collect();
        for k in keys {
            if let Some(idx) = self.indexes.remove(&k) {
                idx.destroy(pool);
            }
        }
        self.histograms.retain(|(t, _), _| t != name);
        table.heap.destroy(pool);
        Some(table)
    }

    /// Install an index on `(table, column)`, replacing any existing one.
    pub fn put_index(
        &mut self,
        pool: &mut BufferPool,
        table: &str,
        column: &str,
        index: OrderedIndex,
    ) {
        if let Some(old) = self.indexes.insert((table.into(), column.into()), index) {
            old.destroy(pool);
        }
    }

    /// Index on `(table, column)`, if any.
    pub fn index(&self, table: &str, column: &str) -> Option<&OrderedIndex> {
        self.indexes.get(&(table.to_string(), column.to_string()))
    }

    /// Install a histogram on `(table, column)`.
    pub fn put_histogram(&mut self, table: &str, column: &str, hist: Histogram) {
        self.histograms.insert((table.into(), column.into()), hist);
    }

    /// Histogram on `(table, column)`, if any.
    pub fn histogram(&self, table: &str, column: &str) -> Option<&Histogram> {
        self.histograms.get(&(table.to_string(), column.to_string()))
    }

    /// Build an index over an existing table's column and install it.
    /// Charges the build I/O (scan + sort + leaf writes) to the pool.
    pub fn build_index(
        &mut self,
        pool: &mut BufferPool,
        table: &str,
        column: &str,
    ) -> StorageResult<()> {
        let (heap, schema) = {
            let t = self.tables.get(table).expect("build_index: unknown table");
            (t.heap, t.schema.clone())
        };
        let pairs = crate::index::column_pairs(pool, heap, &schema, column)?;
        let index = OrderedIndex::build(pool, pairs)?;
        self.put_index(pool, table, column, index);
        Ok(())
    }

    /// Build a histogram over an existing table's column and install it.
    pub fn build_histogram(
        &mut self,
        pool: &mut BufferPool,
        table: &str,
        column: &str,
    ) -> StorageResult<()> {
        let (heap, idx) = {
            let t = self.tables.get(table).expect("build_histogram: unknown table");
            (t.heap, t.schema.index_of(column).expect("build_histogram: unknown column"))
        };
        let mut values = Vec::new();
        heap.for_each(pool, |_, t| {
            values.push(t.get(idx).clone());
            true
        })?;
        pool.charge_cpu(values.len() as u64);
        self.put_histogram(table, column, Histogram::build(&values));
        Ok(())
    }

    /// Remove an index (cancellation rollback). No-op when absent.
    pub fn drop_index(&mut self, pool: &mut BufferPool, table: &str, column: &str) {
        if let Some(idx) = self.indexes.remove(&(table.to_string(), column.to_string())) {
            idx.destroy(pool);
        }
    }

    /// Remove a histogram (cancellation rollback). No-op when absent.
    pub fn drop_histogram(&mut self, table: &str, column: &str) {
        self.histograms.remove(&(table.to_string(), column.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};
    use specdb_storage::heap::BulkLoader;
    use specdb_storage::{Tuple, Value};

    fn setup() -> (BufferPool, Catalog) {
        let mut pool = BufferPool::new(256);
        let mut cat = Catalog::new();
        let heap = HeapFile::create(&mut pool);
        let mut loader = BulkLoader::new();
        for i in 0..200i64 {
            loader.push(&Tuple::new(vec![Value::Int(i), Value::Int(i % 10)])).unwrap();
        }
        loader.finish(&mut pool, heap).unwrap();
        let stats = TableStats::analyze(&mut pool, heap, 2).unwrap();
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("grp", DataType::Int),
        ]);
        cat.register("t", schema, heap, stats);
        (pool, cat)
    }

    #[test]
    fn register_and_lookup() {
        let (_, cat) = setup();
        let t = cat.table("t").unwrap();
        assert_eq!(t.stats.rows, 200);
        assert!(cat.table("missing").is_none());
    }

    #[test]
    fn build_and_use_index() {
        let (mut pool, mut cat) = setup();
        cat.build_index(&mut pool, "t", "grp").unwrap();
        let idx = cat.index("t", "grp").unwrap();
        let rids = idx.lookup_eq(&mut pool, &Value::Int(3)).unwrap();
        assert_eq!(rids.len(), 20);
    }

    #[test]
    fn build_and_use_histogram() {
        let (mut pool, mut cat) = setup();
        cat.build_histogram(&mut pool, "t", "id").unwrap();
        let h = cat.histogram("t", "id").unwrap();
        assert!((h.fraction_lt(&Value::Int(100)) - 0.5).abs() < 0.05);
        assert!(cat.histogram("t", "grp").is_none());
    }

    #[test]
    fn drop_table_cleans_up() {
        let (mut pool, mut cat) = setup();
        cat.build_index(&mut pool, "t", "grp").unwrap();
        cat.build_histogram(&mut pool, "t", "id").unwrap();
        let dropped = cat.drop_table(&mut pool, "t").unwrap();
        assert_eq!(dropped.name, "t");
        assert!(cat.table("t").is_none());
        assert!(cat.index("t", "grp").is_none());
        assert!(cat.histogram("t", "id").is_none());
    }
}
