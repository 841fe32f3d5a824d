#![warn(missing_docs)]
//! Storage substrate for the speculative query processing reproduction.
//!
//! The paper ran on Oracle 8i; this crate provides the equivalent
//! low-level machinery built from scratch:
//!
//! * [`page`] — fixed-size slotted pages holding encoded tuples,
//! * [`heap`] — heap files (ordered collections of pages) with append and scan,
//! * [`buffer`] — an LRU buffer pool with pin/unpin and hit/miss accounting,
//! * [`disk`] — a virtual-time disk model that converts I/O counts into
//!   simulated elapsed time calibrated to 2002-era hardware,
//! * [`mod@tuple`] — the value/tuple representation and its page encoding,
//! * [`clock`] — virtual time types shared by the whole workspace.
//!
//! Everything is deterministic and in-memory: the "disk" is a map of page
//! images, and reads that miss the buffer pool are charged virtual time
//! by the [`disk::DiskModel`]. Query "execution time" throughout the
//! workspace is the virtual time accumulated here, which is what lets the
//! experiment harness reproduce the paper's timing-based figures without
//! the original testbed.

pub mod buffer;
pub mod clock;
pub mod column;
pub mod disk;
pub mod error;
pub mod heap;
pub mod page;
pub mod segcache;
pub mod tuple;

pub use buffer::{AccessKind, BufferPool, IoSnapshot, IoStats};
pub use clock::VirtualTime;
pub use column::{ColumnSegment, ColumnVec, ZoneMap};
pub use disk::{DiskModel, ResourceDemand};
pub use error::{StorageError, StorageResult};
pub use heap::{HeapFile, TupleId};
pub use page::{FileId, Page, PageId, PAGE_SIZE};
pub use segcache::{PrefetchKind, SegCache};
pub use tuple::{value_hash, Tuple, Value, ValueBuildHasher, ValueMap};
