//! Table metadata.

use crate::schema::Schema;
use crate::stats::TableStats;
use serde::{Deserialize, Serialize};
use specdb_storage::HeapFile;

/// A table: name, schema, storage, statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// Unique name within the catalog.
    pub name: String,
    /// Column layout.
    pub schema: Schema,
    /// Heap file holding the rows.
    pub heap: HeapFile,
    /// Statistics gathered at load time.
    pub stats: TableStats,
}
