//! Execution context and cancellation.
//!
//! The paper's speculation conventions (Section 3.1) require that an
//! in-flight manipulation can be cancelled when the user edits away its
//! supporting query parts or presses GO. [`CancelToken`] is a cheap,
//! clonable flag the executor checks once per page of work; execution
//! aborts with [`specdb_storage::StorageError::Cancelled`].

use specdb_storage::{BufferPool, StorageError, StorageResult};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cancellation flag shared between the issuing thread and the executor.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation; the executor notices at the next page boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Error out if cancelled.
    pub fn check(&self) -> StorageResult<()> {
        if self.is_cancelled() {
            Err(StorageError::Cancelled)
        } else {
            Ok(())
        }
    }
}

/// Counters accumulated by the batch executor during one execution.
///
/// Zero when the row-at-a-time path ran. The engine publishes these as
/// the `exec.*` batch metrics after each query (`exec.batches`,
/// `exec.fused_scans`, `exec.cols_scanned`, `exec.sel_vec_density`,
/// `exec.index_probe_batches`, `exec.index_probe_saved_descents`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches emitted by batch-producing operators.
    pub batches: u64,
    /// Scan loops that fused filtering (and projection) into batch
    /// production instead of running them as separate operators.
    pub fused_scans: u64,
    /// Column vectors carried by scan-produced batches — with projection
    /// pushed into the scan this counts only the columns a query touches,
    /// not the table width (columnar path only).
    pub cols_scanned: u64,
    /// Rows decoded by sequential scans before filtering.
    pub rows_scanned: u64,
    /// Rows surviving scan filters into selection vectors.
    pub rows_selected: u64,
    /// Outer batches probed through a batched index pass in
    /// index-nested-loop joins (columnar path only).
    pub index_probe_batches: u64,
    /// Index descents served from a batch prober's per-batch memo instead
    /// of decoding leaf pages again.
    pub index_probe_saved: u64,
    /// Pages whose zone maps proved no row could pass the scan filters,
    /// so the fused scan skipped decoding (and filtering) them entirely.
    /// The page's I/O and per-row CPU are still charged — zone skipping
    /// is a wall-clock optimisation that leaves demand accounting and
    /// results bit-identical to a full scan.
    pub pages_skipped: u64,
}

/// Mutable state threaded through plan execution.
pub struct ExecCtx<'a> {
    /// The buffer pool (I/O accounting flows through it).
    pub pool: &'a mut BufferPool,
    /// Cancellation flag.
    pub cancel: CancelToken,
    /// Maximum logical rows per [`crate::batch::ColumnBatch`] on the
    /// columnar path.
    pub batch_size: usize,
    /// Batch-pipeline counters (written by [`crate::batch::run_batched`]).
    pub batch_stats: BatchStats,
    /// Worker threads for morsel-driven scans on the columnar path
    /// (see [`crate::parallel`]). `1` (the default) runs every operator
    /// serially; higher counts split sequential scans into page morsels
    /// dispatched to the shared worker pool. Results and virtual-time
    /// accounting are identical at any value.
    pub threads: usize,
}

impl<'a> ExecCtx<'a> {
    /// Context with no cancellation.
    pub fn new(pool: &'a mut BufferPool) -> Self {
        Self::with_cancel(pool, CancelToken::new())
    }

    /// Context with a shared cancellation token.
    pub fn with_cancel(pool: &'a mut BufferPool, cancel: CancelToken) -> Self {
        ExecCtx {
            pool,
            cancel,
            batch_size: crate::batch::DEFAULT_BATCH_SIZE,
            batch_stats: BatchStats::default(),
            threads: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clean_and_cancels() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        let t2 = t.clone();
        t2.cancel();
        assert!(t.is_cancelled(), "clones share the flag");
        assert_eq!(t.check(), Err(StorageError::Cancelled));
    }
}
