#![warn(missing_docs)]
//! Catalog substrate: what the DBMS knows about its data.
//!
//! * [`schema`] — column and table schemas,
//! * [`stats`] — table and column statistics gathered at load time,
//! * [`histogram`] — equi-depth histograms for selectivity estimation
//!   (the paper's *histogram creation* manipulation produces these),
//! * [`index`] — page-backed ordered indexes (the paper's *index
//!   creation* manipulation produces these),
//! * [`table`] — table metadata binding schema, heap file, and stats,
//! * [`registry`] — the catalog proper: name → table, plus per-column
//!   indexes and histograms.
//!
//! Materialized-view *definitions* (query graphs) live above this crate
//! in the executor; the catalog only stores their result tables like any
//! other relation.

pub mod histogram;
pub mod index;
pub mod registry;
pub mod schema;
pub mod stats;
pub mod table;

pub use histogram::Histogram;
pub use index::{BatchProber, OrderedIndex};
pub use registry::Catalog;
pub use schema::{ColumnDef, DataType, Schema};
pub use stats::{ColumnStats, TableStats};
pub use table::Table;
