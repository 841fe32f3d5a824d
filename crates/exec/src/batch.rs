//! Columnar batch execution: column vectors plus selection vectors.
//!
//! The default executor path. Operators exchange [`ColumnBatch`]es —
//! per-column `Vec<Value>` vectors shared by `Arc`, each optionally read
//! through a gather index, plus an optional selection vector listing the
//! live row indexes — instead of row-major `Vec<Tuple>` chunks:
//!
//! * **scans** forward a heap page's cached [`ColumnSegment`] columns
//!   zero-copy ([`specdb_storage::BufferPool::read_page_columnar`]),
//! * **filters** evaluate one predicate column at a time into a
//!   selection vector — survivors are never copied,
//! * **projection** is `Arc` pointer selection of the kept columns,
//! * **hash joins** store the build side column-major and emit matches
//!   late-materialized: output columns share the build and probe column
//!   vectors through gather indexes, so the probe clones no value. Rows
//!   materialize only where a consumer needs owned values: result
//!   collection ([`ColumnBatch::to_tuples`]), a downstream join's build
//!   side, and aggregate keys; `materialize` encodes rows straight into
//!   heap pages ([`ColumnBatch::load_into`]),
//! * **index-nested-loop joins** probe each outer batch through a
//!   [`specdb_catalog::BatchProber`], decoding every touched index leaf
//!   at most once per batch instead of once per outer tuple.
//!
//! Filter kernels are specialized from catalog column metadata
//! ([`specdb_catalog::DataType`]) for `Int`/`Float` columns, but columns
//! themselves stay `Vec<Value>`-backed: a `Float` column may legally
//! store `Int` values (`DataType::admits`) and `Int`/`Int` comparisons
//! must stay integer-exact, so a fixed-stride `f64` layout would break
//! bit-identity with the row oracle. The kernels keep the exact
//! [`Value`] comparison semantics per element and only skip the generic
//! tag dispatch.
//!
//! Per-column zone maps ([`specdb_storage::ZoneMap`]) let a scan skip
//! pages that provably contain no qualifying row (`exec.pages_skipped`)
//! before any filter runs.
//!
//! **Equivalence contract**: for any plan, this path produces the same
//! tuples in the same order as [`crate::run::run`], and charges the same
//! virtual-time resource demand (page reads, hits, CPU tuples, writes,
//! memory). Columnar layout, selection vectors, and batched index probes
//! elide wall-clock work only; every page access still flows through
//! [`specdb_storage::BufferPool::read_page`] accounting in the same
//! order. The differential suite `tests/batch_exec.rs` holds both
//! executor paths to this contract.

use crate::context::{BatchStats, CancelToken, ExecCtx};
use crate::error::{ExecError, ExecResult};
use crate::parallel::{
    check_abort, effective_workers, morsel_size, stream_ordered, MorselTask, MIN_MORSEL_PAGES,
};
use crate::plan::{BoundPred, Plan, PlanNode};
use crate::run::{as_ref_bound, charge_spill, rids_by_page, spill_fraction, Acc, Groups};
use specdb_catalog::{Catalog, DataType, Schema};
use specdb_obs::SpanKind;
use specdb_query::{AggFunc, CompareOp};
use specdb_storage::heap::BulkLoader;
use specdb_storage::{
    AccessKind, ColumnSegment, ColumnVec, Page, PageId, SegCache, StorageResult, Tuple, Value,
    ValueMap, ZoneMap,
};
use std::cmp::Ordering;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Default maximum number of logical rows per [`ColumnBatch`].
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// One column of a [`ColumnBatch`]: `Arc`-shared values plus an optional
/// gather index. Physical row `p` reads `data[idx[p]]`, or `data[p]`
/// when there is no index (scan columns).
#[derive(Debug, Clone)]
struct Col {
    data: ColumnVec,
    idx: Option<GatherIdx>,
}

/// A gather index: physical row → position in a column's values.
type GatherIdx = Arc<Vec<u32>>;

impl Col {
    fn plain(data: ColumnVec) -> Self {
        Col { data, idx: None }
    }

    /// Value at physical row `p`.
    #[inline]
    fn at(&self, p: usize) -> &Value {
        match &self.idx {
            Some(idx) => &self.data[idx[p] as usize],
            None => &self.data[p],
        }
    }
}

/// A columnar chunk of rows exchanged between batch operators: `Arc`ed
/// column vectors, each optionally read through a gather index, plus an
/// optional selection vector of live row indexes (in output order).
/// `sel == None` means every underlying row is live.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    cols: Vec<Col>,
    sel: Option<Arc<Vec<u32>>>,
    /// Underlying (pre-selection) row count: the length of the gather
    /// indexes, or of the column vectors where there are none.
    rows: usize,
}

impl ColumnBatch {
    /// Batch over owned column vectors, all rows live. Columns must have
    /// equal lengths.
    pub fn new(cols: Vec<ColumnVec>) -> Self {
        let rows = cols.first().map_or(0, |c| c.len());
        debug_assert!(cols.iter().all(|c| c.len() == rows), "ragged column batch");
        ColumnBatch { cols: cols.into_iter().map(Col::plain).collect(), sel: None, rows }
    }

    /// Batch over only the `keep` columns of a segment (`None` keeps
    /// all), sharing the segment's column vectors with every batch over
    /// the page.
    fn from_segment_keep(seg: &ColumnSegment, keep: Option<&[usize]>) -> Self {
        let cols = match keep {
            Some(keep) => keep.iter().map(|&c| Col::plain(Arc::clone(seg.col(c)))).collect(),
            None => seg.cols().into_iter().map(Col::plain).collect(),
        };
        // Explicit row count: a zero-column projection still carries the
        // segment's row extent for selection vectors.
        ColumnBatch { cols, sel: None, rows: seg.rows() }
    }

    /// Replace the selection vector (row indexes into the underlying
    /// columns, in output order).
    pub fn with_sel(mut self, sel: Vec<u32>) -> Self {
        debug_assert!(sel.iter().all(|&i| (i as usize) < self.rows));
        self.sel = Some(Arc::new(sel));
        self
    }

    /// Logical (selected) row count.
    pub fn len(&self) -> usize {
        self.sel.as_ref().map_or(self.rows, |s| s.len())
    }

    /// True if no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Physical row index of logical row `row`.
    fn phys(&self, row: usize) -> usize {
        match &self.sel {
            Some(sel) => sel[row] as usize,
            None => row,
        }
    }

    /// Value at logical `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> &Value {
        self.cols[col].at(self.phys(row))
    }

    /// Project to the given columns: pure `Arc` pointer selection, the
    /// selection vector and gather indexes are shared untouched.
    pub fn project(&self, keep: &[usize]) -> ColumnBatch {
        ColumnBatch {
            cols: keep.iter().map(|&c| self.cols[c].clone()).collect(),
            sel: self.sel.clone(),
            rows: self.rows,
        }
    }

    /// Encoded byte size of one logical row, equal to the row path's
    /// [`Tuple::encoded_len`] for the gathered tuple (accounting parity
    /// for hash-join build/probe byte charges).
    fn row_encoded_len(&self, row: usize) -> usize {
        let p = self.phys(row);
        2 + self.cols.iter().map(|c| c.at(p).encoded_len()).sum::<usize>()
    }

    /// Clone one logical row's values in column order.
    fn gather_row(&self, row: usize) -> Vec<Value> {
        let p = self.phys(row);
        self.cols.iter().map(|c| c.at(p).clone()).collect()
    }

    /// Encode every logical row straight into `loader`'s pages — the
    /// materialization sink. Each row's bytes equal [`Tuple::encode`] of
    /// the gathered row, but no value is cloned and no [`Tuple`] built.
    pub fn load_into(&self, loader: &mut BulkLoader) -> StorageResult<()> {
        for row in 0..self.len() {
            let p = self.phys(row);
            loader.push_values(self.cols.iter().map(|c| c.at(p)))?;
        }
        Ok(())
    }

    /// Materialize every logical row as a [`Tuple`], appended to `out` —
    /// the row-major boundary for result collection.
    pub fn to_tuples(&self, out: &mut Vec<Tuple>) {
        out.reserve(self.len());
        for row in 0..self.len() {
            out.push(Tuple::new(self.gather_row(row)));
        }
    }

    /// Split into chunks of at most `cap` logical rows (columns stay
    /// shared; only selection vectors are built).
    fn emit_chunked(
        self,
        cap: usize,
        out: &mut dyn FnMut(ColumnBatch) -> ExecResult<()>,
    ) -> ExecResult<u64> {
        let cap = cap.max(1);
        let n = self.len();
        if n == 0 {
            return Ok(0);
        }
        if n <= cap {
            out(self)?;
            return Ok(1);
        }
        let mut emitted = 0u64;
        let mut start = 0usize;
        while start < n {
            let end = (start + cap).min(n);
            let sel: Vec<u32> = match &self.sel {
                Some(sel) => sel[start..end].to_vec(),
                None => (start as u32..end as u32).collect(),
            };
            out(ColumnBatch {
                cols: self.cols.clone(),
                sel: Some(Arc::new(sel)),
                rows: self.rows,
            })?;
            emitted += 1;
            start = end;
        }
        Ok(emitted)
    }
}

/// Accumulates row-built operator output column-wise and flushes a
/// [`ColumnBatch`] to `out` whenever `cap` rows are buffered (and once
/// more at the end for the tail). Scans bypass this and forward their
/// zero-copy batches via [`ColumnBatch::emit_chunked`]; hash joins emit
/// gather-indexed batches per probe batch (`probe_columnar`).
struct Emitter<'o> {
    cols: Vec<Vec<Value>>,
    len: usize,
    cap: usize,
    batches: u64,
    out: &'o mut dyn FnMut(ColumnBatch) -> ExecResult<()>,
}

impl<'o> Emitter<'o> {
    fn new(
        width: usize,
        cap: usize,
        out: &'o mut dyn FnMut(ColumnBatch) -> ExecResult<()>,
    ) -> Self {
        Emitter {
            cols: (0..width).map(|_| Vec::new()).collect(),
            len: 0,
            cap: cap.max(1),
            batches: 0,
            out,
        }
    }

    fn push_row(&mut self, values: impl IntoIterator<Item = Value>) -> ExecResult<()> {
        let mut n = 0;
        for (col, v) in self.cols.iter_mut().zip(values) {
            col.push(v);
            n += 1;
        }
        debug_assert_eq!(n, self.cols.len(), "row narrower than emitter");
        self.len += 1;
        if self.len >= self.cap {
            self.flush()
        } else {
            Ok(())
        }
    }

    fn flush(&mut self) -> ExecResult<()> {
        if self.len == 0 {
            return Ok(());
        }
        let width = self.cols.len();
        let full = std::mem::replace(&mut self.cols, (0..width).map(|_| Vec::new()).collect());
        self.len = 0;
        self.batches += 1;
        (self.out)(ColumnBatch::new(full.into_iter().map(Arc::new).collect()))
    }

    /// Flush the tail and return how many batches were emitted.
    fn finish(mut self) -> ExecResult<u64> {
        self.flush()?;
        Ok(self.batches)
    }
}

/// Execute a plan, invoking `out` for every [`ColumnBatch`] of results.
///
/// Batches are non-empty and hold at most [`ExecCtx::batch_size`]
/// logical rows; gathered row-major and concatenated they are exactly
/// the row path's output.
///
/// When the observer's tracer is enabled, every operator subtree gets a
/// [`SpanKind::Operator`] span counting the rows and batches it emitted;
/// disabled tracing adds a single branch per subtree.
pub fn run_batched(
    plan: &Plan,
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(ColumnBatch) -> ExecResult<()>,
) -> ExecResult<()> {
    let tracer = ctx.pool.observer().tracer().clone();
    if !tracer.is_enabled() {
        return run_node(plan, catalog, ctx, out);
    }
    let virt = ctx.pool.observer().now_micros();
    let span = tracer.begin(SpanKind::Operator, op_label(&plan.node), virt);
    let mut rows = 0u64;
    let mut batches = 0u64;
    let result = run_node(plan, catalog, ctx, &mut |b| {
        rows += b.len() as u64;
        batches += 1;
        out(b)
    });
    // Operators have no virtual extent of their own (the disk model
    // prices the whole query); their wall extent is the payload here.
    span.finish_with(virt, |a| {
        a.push(("rows", rows.into()));
        a.push(("batches", batches.into()));
    });
    result
}

/// Stable operator label for spans and profiles.
fn op_label(node: &PlanNode) -> &'static str {
    match node {
        PlanNode::SeqScan { .. } => "seq_scan",
        PlanNode::Project { .. } => "project",
        PlanNode::IndexScan { .. } => "index_scan",
        PlanNode::HashJoin { .. } => "hash_join",
        PlanNode::IndexNLJoin { .. } => "index_nl_join",
        PlanNode::NestedLoop { .. } => "nested_loop",
        PlanNode::Aggregate { .. } => "aggregate",
    }
}

fn run_node(
    plan: &Plan,
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(ColumnBatch) -> ExecResult<()>,
) -> ExecResult<()> {
    match &plan.node {
        PlanNode::SeqScan { table, filters } => {
            fused_seq_scan(table, filters, None, catalog, ctx, out)
        }
        // Scan→filter→project fusion: a projection directly above a
        // sequential scan folds into the scan's batch-producing loop.
        PlanNode::Project { input, keep } => match &input.node {
            PlanNode::SeqScan { table, filters } => {
                fused_seq_scan(table, filters, Some(keep), catalog, ctx, out)
            }
            _ => run_batched(input, catalog, ctx, &mut |b: ColumnBatch| out(b.project(keep))),
        },
        PlanNode::IndexScan { table, column, lo, hi, filters } => {
            index_scan_batched(table, column, lo, hi, filters, catalog, ctx, out)
        }
        PlanNode::HashJoin { left, right, lkey, rkey, residual } => {
            hash_join_batched(left, right, *lkey, *rkey, residual, catalog, ctx, out)
        }
        PlanNode::IndexNLJoin {
            outer,
            inner_table,
            inner_column,
            okey,
            inner_filters,
            residual,
        } => index_nl_join_batched(
            outer,
            inner_table,
            inner_column,
            *okey,
            inner_filters,
            residual,
            catalog,
            ctx,
            out,
        ),
        PlanNode::NestedLoop { left, right, cond } => {
            nested_loop_batched(left, right, cond, catalog, ctx, out)
        }
        PlanNode::Aggregate { input, group, aggs } => {
            aggregate_batched(input, group, aggs, catalog, ctx, out)
        }
    }
}

/// Execute a plan on the columnar path and collect all results row-major.
pub fn run_collect_batched(
    plan: &Plan,
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
) -> ExecResult<Vec<Tuple>> {
    let mut rows = Vec::new();
    run_batched(plan, catalog, ctx, &mut |b: ColumnBatch| {
        b.to_tuples(&mut rows);
        Ok(())
    })?;
    Ok(rows)
}

/// Collect a plan's output as column batches (pipeline breakers that
/// re-iterate their input, e.g. the index-nested-loop outer side).
fn collect_batches(
    plan: &Plan,
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
) -> ExecResult<Vec<ColumnBatch>> {
    let mut batches = Vec::new();
    run_batched(plan, catalog, ctx, &mut |b: ColumnBatch| {
        batches.push(b);
        Ok(())
    })?;
    Ok(batches)
}

// ---------------------------------------------------------------------
// Filter kernels
// ---------------------------------------------------------------------

/// Does `ord` (of `left.cmp(right)`) satisfy `op`? Mirrors
/// [`CompareOp::eval`] exactly.
#[inline]
fn ord_matches(op: CompareOp, ord: Ordering) -> bool {
    match op {
        CompareOp::Eq => ord == Ordering::Equal,
        CompareOp::Ne => ord != Ordering::Equal,
        CompareOp::Lt => ord == Ordering::Less,
        CompareOp::Le => ord != Ordering::Greater,
        CompareOp::Gt => ord == Ordering::Greater,
        CompareOp::Ge => ord != Ordering::Less,
    }
}

/// Which specialized comparison loop a predicate column gets, chosen
/// from the catalog's column type and the predicate constant. Every
/// kernel is still total over [`Value`] variants (loose typing:
/// `DataType::admits` lets `Int` into `Float` columns), so a wrong hint
/// could never change results — only speed.
enum FilterKernel<'v> {
    /// `Int` column vs `Int` constant: integer-exact comparison.
    IntInt { k: i64, c: &'v Value },
    /// Numeric column vs numeric constant: `total_cmp` after widening,
    /// exactly as [`Value::cmp`]'s mixed arms do.
    Numeric(&'v Value),
    /// `Str` column vs `Str` constant.
    StrStr { s: &'v str, c: &'v Value },
    /// Anything else: the generic [`CompareOp::eval`].
    General(&'v Value),
}

impl<'v> FilterKernel<'v> {
    fn choose(col_ty: Option<DataType>, value: &'v Value) -> FilterKernel<'v> {
        match (col_ty, value) {
            (Some(DataType::Int), Value::Int(k)) => FilterKernel::IntInt { k: *k, c: value },
            (Some(DataType::Int | DataType::Float), Value::Int(_) | Value::Float(_)) => {
                FilterKernel::Numeric(value)
            }
            (Some(DataType::Str), Value::Str(s)) => FilterKernel::StrStr { s, c: value },
            _ => FilterKernel::General(value),
        }
    }

    /// Evaluate `v op constant` with the specialized loop body.
    #[inline]
    fn matches(&self, op: CompareOp, v: &Value) -> bool {
        match self {
            FilterKernel::IntInt { k, c } => match v {
                Value::Int(x) => ord_matches(op, x.cmp(k)),
                Value::Null => false,
                other => op.eval(other, c),
            },
            FilterKernel::Numeric(c) => match (v, c) {
                (Value::Int(x), Value::Int(k)) => ord_matches(op, x.cmp(k)),
                (Value::Int(x), Value::Float(k)) => ord_matches(op, (*x as f64).total_cmp(k)),
                (Value::Float(x), Value::Int(k)) => ord_matches(op, x.total_cmp(&(*k as f64))),
                (Value::Float(x), Value::Float(k)) => ord_matches(op, x.total_cmp(k)),
                (Value::Null, _) => false,
                (other, c) => op.eval(other, c),
            },
            FilterKernel::StrStr { s, c } => match v {
                Value::Str(x) => ord_matches(op, x.as_str().cmp(s)),
                Value::Null => false,
                other => op.eval(other, c),
            },
            FilterKernel::General(c) => op.eval(v, c),
        }
    }
}

/// Evaluate scan filters column-at-a-time into a selection vector.
/// `None` means "all rows live" (no filters). A predicate on a NULL
/// constant matches nothing ([`CompareOp::eval`] three-valued logic).
fn eval_filters(seg: &ColumnSegment, filters: &[BoundPred], schema: &Schema) -> Option<Vec<u32>> {
    if filters.is_empty() {
        return None;
    }
    let mut sel: Option<Vec<u32>> = None;
    for f in filters {
        let col_ty = schema.columns().get(f.idx).map(|c| c.ty);
        let kernel = FilterKernel::choose(col_ty, &f.value);
        let col = seg.col(f.idx).as_slice();
        let next = match &sel {
            None => {
                let mut v = Vec::new();
                for (i, val) in col.iter().enumerate() {
                    if kernel.matches(f.op, val) {
                        v.push(i as u32);
                    }
                }
                v
            }
            Some(prev) => {
                let mut v = Vec::with_capacity(prev.len());
                for &i in prev {
                    if kernel.matches(f.op, &col[i as usize]) {
                        v.push(i);
                    }
                }
                v
            }
        };
        if next.is_empty() {
            return Some(next);
        }
        sel = Some(next);
    }
    sel
}

/// Can `filters` provably select zero rows on a page whose per-column
/// summaries are `zones`? Uses only [`Value`]'s total order — the same
/// order [`CompareOp::eval`] and every kernel comparison reduce to — so
/// an excluded page skips decode and filtering with results identical
/// to scanning it.
///
/// The rules, per predicate (`mn`/`mx` are the column's non-null
/// min/max; comparisons against NULL never match, so null counts are
/// irrelevant to exclusion):
/// * NULL constant: matches nothing — every page is excludable.
/// * all-NULL column (`mn` absent): nothing to match.
/// * `Eq`: `c < mn` or `c > mx`; `Ne`: `mn == mx == c`;
///   `Lt`: `mn >= c`; `Le`: `mn > c`; `Gt`: `mx <= c`; `Ge`: `mx < c`.
pub(crate) fn zones_exclude(zones: &[ZoneMap], filters: &[BoundPred]) -> bool {
    filters.iter().any(|f| {
        let Some(zone) = zones.get(f.idx) else { return false };
        if f.value.is_null() {
            return true;
        }
        let (Some(mn), Some(mx)) = (&zone.min, &zone.max) else { return true };
        let c = &f.value;
        match f.op {
            CompareOp::Eq => c.cmp(mn).is_lt() || c.cmp(mx).is_gt(),
            CompareOp::Ne => mn.cmp(c).is_eq() && mx.cmp(c).is_eq(),
            CompareOp::Lt => mn.cmp(c).is_ge(),
            CompareOp::Le => mn.cmp(c).is_gt(),
            CompareOp::Gt => mx.cmp(c).is_le(),
            CompareOp::Ge => mx.cmp(c).is_lt(),
        }
    })
}

fn apply_filters(t: &Tuple, filters: &[BoundPred]) -> bool {
    filters.iter().all(|f| f.matches(t))
}

// ---------------------------------------------------------------------
// The fused scan loop
// ---------------------------------------------------------------------
//
// Every sequential-scan consumer (scan, projected scan, hash-join probe,
// scan→aggregate fusion) runs through one driver, `fused_scan`. The
// coordinator walks the heap pages in order through
// `BufferPool::read_page` and charges each page's CPU, so every hit,
// miss, eviction and CPU charge lands in the same order at any thread
// count — virtual-time accounting never sees the thread count. Each read
// page then goes through `scan_morsel`: zone maps, decode via the shared
// `SegCache`, filters, the page's batch, and an operator-specific
// `ScanMap` that pushes its results into a sink. The driver runs in one
// of two modes:
//
// * inline (one thread, or a scan shorter than one minimum morsel): each
//   page is mapped as soon as it is read, and the sink is the consumer
//   itself, so no page or result is buffered;
// * pooled: all pages are read first (phase A), then morsels of pages
//   run on the worker pool (phase B) and the ordered merge feeds each
//   morsel's buffered results to the consumer in page order.
//
// Both modes map the same pages in the same order, so batch boundaries,
// emit order, per-group accumulation order and batch stats are
// bit-identical at any thread count.

/// Per-scan state every morsel reads (shared behind an `Arc` in pooled
/// mode; workers only need the decoded-segment cache, never the pool).
struct ScanShared {
    schema: Schema,
    filters: Vec<BoundPred>,
    keep: Option<Vec<usize>>,
    seg_cache: Arc<SegCache>,
    cancel: CancelToken,
}

/// Batch-stat deltas a morsel accumulates privately; the coordinator
/// merges them into [`crate::context::BatchStats`] in morsel order.
#[derive(Default, Clone, Copy)]
struct MorselStats {
    rows_scanned: u64,
    rows_selected: u64,
    cols_scanned: u64,
    batches: u64,
    pages_skipped: u64,
}

impl MorselStats {
    fn merge_into(self, s: &mut BatchStats) {
        s.rows_scanned += self.rows_scanned;
        s.rows_selected += self.rows_selected;
        s.cols_scanned += self.cols_scanned;
        s.batches += self.batches;
        s.pages_skipped += self.pages_skipped;
    }
}

/// Where a scan map delivers its results: the consumer itself on the
/// inline path, the morsel's result buffer on a worker.
type Sink<'s, R> = &'s mut dyn FnMut(R) -> ExecResult<()>;

/// Operator-specific transform applied to each live page batch (post
/// filter and projection), pushing its results into the sink.
type ScanMap<R> =
    dyn Fn(ColumnBatch, &mut MorselStats, Sink<'_, R>) -> ExecResult<()> + Send + Sync;

/// Decode, filter and map a run of pages the coordinator already read
/// and charged: zone-map skipping, the filters' selection vector, the
/// projected batch, then `map` into `sink`.
fn scan_morsel<R>(
    shared: &ScanShared,
    pages: &[(PageId, Arc<Page>)],
    abort: &AtomicBool,
    map: &ScanMap<R>,
    stats: &mut MorselStats,
    sink: Sink<'_, R>,
) -> ExecResult<()> {
    for (pid, page) in pages {
        check_abort(abort)?;
        shared.cancel.check()?;
        stats.rows_scanned += page.live_count() as u64;
        // Zone-map page skipping, checked both before decode (the zone
        // side-cache survives segment eviction, so a warm re-scan skips
        // without decoding) and after (cold cache): `pages_skipped` is a
        // pure function of page data and filters, never of cache state.
        if let Some(zones) = shared.seg_cache.zone_maps(*pid) {
            if zones_exclude(&zones, &shared.filters) {
                stats.pages_skipped += 1;
                continue;
            }
        }
        let seg = shared.seg_cache.get_or_decode(*pid, page)?;
        if zones_exclude(seg.zones(), &shared.filters) {
            stats.pages_skipped += 1;
            continue;
        }
        let sel = eval_filters(&seg, &shared.filters, &shared.schema);
        let live = sel.as_ref().map_or(seg.rows(), |s| s.len());
        stats.rows_selected += live as u64;
        if live == 0 {
            continue;
        }
        let mut batch = ColumnBatch::from_segment_keep(&seg, shared.keep.as_deref());
        if let Some(sel) = sel {
            batch = batch.with_sel(sel);
        }
        map(batch, stats, &mut *sink)?;
    }
    Ok(())
}

/// Gate for the pooled mode: enabled by the context's thread count and
/// worth dispatching. Results are identical either way, so this is pure
/// wall-clock policy: a scan shorter than one minimum-size morsel pays
/// more in dispatch overhead (boxing, channel hops, ordered-merge
/// buffering) than a worker saves, so it runs inline (the
/// `batch_columnar_par4` regression was exactly this, per-page tasks
/// over small tables).
fn use_parallel(ctx: &ExecCtx<'_>, pages: u32) -> bool {
    ctx.threads > 1 && pages as usize >= MIN_MORSEL_PAGES
}

/// The fused scan→filter(→project)→map loop over `table`, the one driver
/// of every sequential scan: each page's cached column vectors are
/// forwarded zero-copy, filters evaluate into selection vectors and
/// projection (`keep`) is column selection; `map` turns each live page
/// batch into results for `emit`, in page order.
///
/// Accounting matches the row path exactly: one sequential page access
/// and `charge_cpu(page tuples)` per page, whether or not the decoded
/// segment cache serves the columns or zone maps skip the page.
fn fused_scan<R: Send + 'static>(
    table: &str,
    filters: &[BoundPred],
    keep: Option<&[usize]>,
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    map: Arc<ScanMap<R>>,
    emit: Sink<'_, R>,
) -> ExecResult<()> {
    let t = catalog.table(table).ok_or_else(|| ExecError::UnknownTable(table.into()))?;
    let heap = t.heap;
    let shared = ScanShared {
        schema: t.schema.clone(),
        filters: filters.to_vec(),
        keep: keep.map(<[usize]>::to_vec),
        seg_cache: ctx.pool.seg_cache(),
        cancel: ctx.cancel.clone(),
    };
    let pages = heap.pages(ctx.pool);
    let pooled = use_parallel(ctx, pages);
    let mut stats = MorselStats::default();
    let mut work: Vec<(PageId, Arc<Page>)> =
        Vec::with_capacity(if pooled { pages as usize } else { 1 });
    let no_abort = AtomicBool::new(false);
    for page_no in 0..pages {
        ctx.cancel.check()?;
        let pid = PageId::new(heap.file, page_no);
        let page = ctx.pool.read_page(pid, AccessKind::Sequential)?;
        // `live_count` is exactly the row count decoding will produce.
        ctx.pool.charge_cpu(page.live_count() as u64);
        work.push((pid, page));
        if !pooled {
            scan_morsel(&shared, &work, &no_abort, &*map, &mut stats, &mut *emit)?;
            work.clear();
        }
    }
    if pooled {
        let shared = Arc::new(shared);
        let threads = effective_workers(ctx.threads);
        let chunk = morsel_size(work.len(), threads);
        // Morsel spans are wall-clock lanes parented on the coordinator's
        // current (operator) span; workers never touch the span stack.
        let tracer = ctx.pool.observer().tracer().clone();
        let span_parent = tracer.current();
        let virt_now = ctx.pool.observer().now_micros();
        let tasks: Vec<MorselTask<(Vec<R>, MorselStats)>> = work
            .chunks(chunk)
            .map(|pages| {
                let pages = pages.to_vec();
                let (shared, map, tracer) = (Arc::clone(&shared), Arc::clone(&map), tracer.clone());
                let task: MorselTask<(Vec<R>, MorselStats)> = Box::new(move |abort| {
                    let span =
                        tracer.begin_at(span_parent, SpanKind::Morsel, "scan_morsel", virt_now);
                    let (mut results, mut stats) = (Vec::new(), MorselStats::default());
                    scan_morsel(&shared, &pages, abort, &*map, &mut stats, &mut |r| {
                        results.push(r);
                        Ok(())
                    })?;
                    span.finish_with(virt_now, |a| {
                        a.push(("pages", pages.len().into()));
                        a.push(("rows", stats.rows_scanned.into()));
                    });
                    Ok((results, stats))
                });
                task
            })
            .collect();
        let batch_stats = &mut ctx.batch_stats;
        stream_ordered(threads, tasks, &mut |(results, m)| {
            m.merge_into(batch_stats);
            results.into_iter().try_for_each(&mut *emit)
        })?;
    }
    stats.merge_into(&mut ctx.batch_stats);
    ctx.batch_stats.fused_scans += 1;
    Ok(())
}

// ---------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------

/// A sequential scan, optionally projected: each live page batch is
/// re-chunked to at most `batch_size` rows.
fn fused_seq_scan(
    table: &str,
    filters: &[BoundPred],
    keep: Option<&[usize]>,
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(ColumnBatch) -> ExecResult<()>,
) -> ExecResult<()> {
    let cap = ctx.batch_size;
    let map: Arc<ScanMap<ColumnBatch>> = Arc::new(move |batch, stats, sink| {
        stats.cols_scanned += batch.width() as u64;
        stats.batches += batch.emit_chunked(cap, sink)?;
        Ok(())
    });
    fused_scan(table, filters, keep, catalog, ctx, map, out)
}

#[allow(clippy::too_many_arguments)]
fn index_scan_batched(
    table: &str,
    column: &str,
    lo: &Bound<Value>,
    hi: &Bound<Value>,
    filters: &[BoundPred],
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(ColumnBatch) -> ExecResult<()>,
) -> ExecResult<()> {
    let t = catalog.table(table).ok_or_else(|| ExecError::UnknownTable(table.into()))?;
    let width = t.schema.arity();
    let index = catalog.index(table, column).ok_or_else(|| ExecError::UnknownColumn {
        rel: table.into(),
        column: format!("{column} (no index)"),
    })?;
    ctx.cancel.check()?;
    let rids = index.lookup(ctx.pool, as_ref_bound(lo), as_ref_bound(hi))?;
    ctx.pool.charge_cpu(rids.len() as u64);
    let mut em = Emitter::new(width, ctx.batch_size, out);
    for (pid, slots) in rids_by_page(rids) {
        ctx.cancel.check()?;
        let page = ctx.pool.read_page(pid, AccessKind::Random)?;
        ctx.pool.charge_cpu(slots.len() as u64);
        for slot in slots {
            if let Some(bytes) = page.get(slot as usize)? {
                let tuple = Tuple::decode(bytes)?;
                if apply_filters(&tuple, filters) {
                    em.push_row(tuple.into_values())?;
                }
            }
        }
    }
    let batches = em.finish()?;
    ctx.batch_stats.batches += batches;
    Ok(())
}

/// Hash-join build storage: the build rows column-major in arrival
/// order (row id = arrival position) plus key → row-id buckets. Buckets
/// hash with [`specdb_storage::tuple::ValueHasher`], whose fixed
/// constants make the layout the same in every run, and every bucket
/// lists its row ids in arrival order, so probe output order is the row
/// path's. Probe output references the columns by gather index instead
/// of copying them.
struct JoinTable {
    cols: Vec<ColumnVec>,
    buckets: ValueMap<Vec<u32>>,
}

impl JoinTable {
    fn row_count(&self) -> u64 {
        self.cols.first().map_or(0, |c| c.len() as u64)
    }

    /// One output batch of the join: build row `ids[i]` beside probe
    /// physical row `prows[i]`. Build columns gather by `ids`; probe
    /// columns gather by `prows` composed with their own gather index,
    /// once per distinct index (every column of a scan batch shares the
    /// absent one). No value is cloned.
    fn gather(&self, probe: &ColumnBatch, ids: &[u32], prows: &[u32]) -> ColumnBatch {
        let ids = Arc::new(ids.to_vec());
        let mut cols: Vec<Col> = self
            .cols
            .iter()
            .map(|c| Col { data: Arc::clone(c), idx: Some(Arc::clone(&ids)) })
            .collect();
        let mut composed: Vec<(Option<*const Vec<u32>>, GatherIdx)> = Vec::new();
        for col in &probe.cols {
            let key = col.idx.as_ref().map(Arc::as_ptr);
            let idx = match composed.iter().find(|(k, _)| *k == key) {
                Some((_, idx)) => Arc::clone(idx),
                None => {
                    let idx = Arc::new(match &col.idx {
                        Some(inner) => prows.iter().map(|&p| inner[p as usize]).collect(),
                        None => prows.to_vec(),
                    });
                    composed.push((key, Arc::clone(&idx)));
                    idx
                }
            };
            cols.push(Col { data: Arc::clone(&col.data), idx: Some(idx) });
        }
        ColumnBatch { cols, sel: None, rows: ids.len() }
    }
}

/// Consume the join's left input into a [`JoinTable`], returning it with
/// the total encoded bytes of the stored rows. Rows arrive through
/// [`run_batched`] in the same order at any thread count, and the buckets
/// fill as they arrive.
fn build_join_table(
    left: &Plan,
    lkey: usize,
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
) -> ExecResult<(JoinTable, u64)> {
    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); left.cols.len()];
    let mut buckets = ValueMap::<Vec<u32>>::default();
    let mut bytes = 0u64;
    run_batched(left, catalog, ctx, &mut |b: ColumnBatch| {
        for row in 0..b.len() {
            let key = b.value(row, lkey);
            if key.is_null() {
                continue;
            }
            bytes += b.row_encoded_len(row) as u64;
            buckets.entry(key.clone()).or_default().push(cols[0].len() as u32);
            for (c, col) in cols.iter_mut().enumerate() {
                col.push(b.value(row, c).clone());
            }
        }
        Ok(())
    })?;
    let cols = cols.into_iter().map(Arc::new).collect();
    Ok((JoinTable { cols, buckets }, bytes))
}

#[allow(clippy::too_many_arguments)]
fn hash_join_batched(
    left: &Plan,
    right: &Plan,
    lkey: usize,
    rkey: usize,
    residual: &[(usize, usize)],
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(ColumnBatch) -> ExecResult<()>,
) -> ExecResult<()> {
    // Build phase: consume the left input batch-wise into column-major
    // build storage indexed by the hash table's buckets.
    let (table, build_bytes) = build_join_table(left, lkey, catalog, ctx)?;
    ctx.pool.charge_cpu(table.row_count());
    ctx.pool.charge_mem(build_bytes);
    // Same hybrid-hash spill model as the row path. Probe bytes only
    // price the spill, so they are summed only then (on any thread: sums
    // commute).
    let spill = spill_fraction(ctx.pool, build_bytes as f64);
    let probe_bytes = (spill > 0.0).then(|| Arc::new(AtomicU64::new(0)));
    let (table, residual, cap) = (Arc::new(table), residual.to_vec(), ctx.batch_size);
    let counter = probe_bytes.clone();
    // Probe phase: probe rows arrive in scan order, so match output
    // order is identical to the row path (bucket insertion order), and
    // every probe batch's matches are emitted as its own run of batches.
    // A sequential-scan probe side fuses into the scan loop: keys and
    // residual columns are read straight from the segment's columns.
    let probe = move |b: &ColumnBatch, sink: Sink<'_, ColumnBatch>| {
        probe_columnar(b, rkey, &residual, &table, counter.as_deref(), cap, sink)
    };
    if let PlanNode::SeqScan { table: rtable, filters } = &right.node {
        let map: Arc<ScanMap<ColumnBatch>> = Arc::new(move |batch, stats, sink| {
            stats.batches += probe(&batch, sink)?;
            Ok(())
        });
        fused_scan(rtable, filters, None, catalog, ctx, map, out)?;
    } else {
        let mut batches = 0u64;
        run_batched(right, catalog, ctx, &mut |b: ColumnBatch| {
            batches += probe(&b, &mut *out)?;
            Ok(())
        })?;
        ctx.batch_stats.batches += batches;
    }
    let probe_bytes = probe_bytes.map_or(0, |b| b.load(AtomicOrdering::Relaxed));
    charge_spill(ctx.pool, spill, build_bytes + probe_bytes);
    Ok(())
}

/// Probe one batch against the build side and emit its matches, in
/// probe-row then bucket order, as gather-indexed batches of at most
/// `cap` rows; returns how many batches were emitted. Adds the probe
/// rows' encoded bytes to `probe_bytes` when given.
#[allow(clippy::too_many_arguments)]
fn probe_columnar(
    b: &ColumnBatch,
    rkey: usize,
    residual: &[(usize, usize)],
    table: &JoinTable,
    probe_bytes: Option<&AtomicU64>,
    cap: usize,
    out: &mut dyn FnMut(ColumnBatch) -> ExecResult<()>,
) -> ExecResult<u64> {
    if let Some(bytes) = probe_bytes {
        let sum = (0..b.len()).map(|row| b.row_encoded_len(row) as u64).sum::<u64>();
        bytes.fetch_add(sum, AtomicOrdering::Relaxed);
    }
    let mut ids: Vec<u32> = Vec::new();
    let mut prows: Vec<u32> = Vec::new();
    for row in 0..b.len() {
        let key = b.value(row, rkey);
        if key.is_null() {
            continue;
        }
        let Some(matches) = table.buckets.get(key) else { continue };
        let p = b.phys(row) as u32;
        for &id in matches {
            let pass = residual.iter().all(|&(lc, rc)| {
                let l = &table.cols[lc][id as usize];
                l == b.value(row, rc) && !l.is_null()
            });
            if pass {
                ids.push(id);
                prows.push(p);
            }
        }
    }
    let cap = cap.max(1);
    let mut emitted = 0u64;
    for (ids, prows) in ids.chunks(cap).zip(prows.chunks(cap)) {
        out(table.gather(b, ids, prows))?;
        emitted += 1;
    }
    Ok(emitted)
}

#[allow(clippy::too_many_arguments)]
fn index_nl_join_batched(
    outer: &Plan,
    inner_table: &str,
    inner_column: &str,
    okey: usize,
    inner_filters: &[BoundPred],
    residual: &[(usize, usize)],
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(ColumnBatch) -> ExecResult<()>,
) -> ExecResult<()> {
    let inner = catalog
        .table(inner_table)
        .ok_or_else(|| ExecError::UnknownTable(inner_table.into()))?;
    let heap = inner.heap;
    let inner_width = inner.schema.arity();
    // As on the row path, the outer side is materialized first: index
    // probes need the pool mutably. Batches are kept columnar.
    let outer_batches = collect_batches(outer, catalog, ctx)?;
    let index =
        catalog
            .index(inner_table, inner_column)
            .ok_or_else(|| ExecError::UnknownColumn {
                rel: inner_table.into(),
                column: format!("{inner_column} (no index)"),
            })?;
    let width = outer.cols.len() + inner_width;
    let mut em = Emitter::new(width, ctx.batch_size, out);
    for b in &outer_batches {
        if b.is_empty() {
            continue;
        }
        // One batched index pass per outer batch: the prober decodes each
        // leaf the batch touches at most once and reuses results for
        // duplicate keys. Probes stay in outer-row order (not sorted key
        // order) because the virtual I/O accounting must replay the
        // per-tuple descent sequence exactly; only decode work is saved.
        let mut prober = index.batch_prober();
        ctx.batch_stats.index_probe_batches += 1;
        for row in 0..b.len() {
            ctx.cancel.check()?;
            let key = b.value(row, okey);
            if key.is_null() {
                continue;
            }
            let rids = prober.lookup_eq(ctx.pool, key)?;
            ctx.pool.charge_cpu(1 + rids.len() as u64);
            for rid in rids {
                let inner_tuple = heap.get(ctx.pool, rid)?;
                if !apply_filters(&inner_tuple, inner_filters) {
                    continue;
                }
                let pass = residual.iter().all(|&(oc, ic)| {
                    *b.value(row, oc) == *inner_tuple.get(ic) && !b.value(row, oc).is_null()
                });
                if pass {
                    em.push_row(b.gather_row(row).into_iter().chain(inner_tuple.into_values()))?;
                }
            }
        }
        ctx.batch_stats.index_probe_saved += prober.saved_descents();
    }
    let batches = em.finish()?;
    ctx.batch_stats.batches += batches;
    Ok(())
}

fn nested_loop_batched(
    left: &Plan,
    right: &Plan,
    cond: &[(usize, usize)],
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(ColumnBatch) -> ExecResult<()>,
) -> ExecResult<()> {
    // Materialize the gathered left rows once; they are re-walked for
    // every right row.
    let mut left_rows: Vec<Vec<Value>> = Vec::new();
    run_batched(left, catalog, ctx, &mut |b: ColumnBatch| {
        for row in 0..b.len() {
            left_rows.push(b.gather_row(row));
        }
        Ok(())
    })?;
    let mut right_count: u64 = 0;
    let width = left.cols.len() + right.cols.len();
    let mut em = Emitter::new(width, ctx.batch_size, out);
    run_batched(right, catalog, ctx, &mut |b: ColumnBatch| {
        for row in 0..b.len() {
            right_count += 1;
            for l in &left_rows {
                let pass =
                    cond.iter().all(|&(lc, rc)| l[lc] == *b.value(row, rc) && !l[lc].is_null());
                if pass {
                    em.push_row(l.iter().cloned().chain(b.gather_row(row)))?;
                }
            }
        }
        Ok(())
    })?;
    let batches = em.finish()?;
    ctx.batch_stats.batches += batches;
    // Same post-hoc CPU charge as the row path.
    ctx.pool.charge_cpu(right_count.saturating_mul(left_rows.len() as u64));
    Ok(())
}

fn aggregate_batched(
    input: &Plan,
    group: &[usize],
    aggs: &[(AggFunc, Option<usize>)],
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(ColumnBatch) -> ExecResult<()>,
) -> ExecResult<()> {
    let mut groups = Groups::default();
    let mut input_rows: u64 = 0;
    // Accumulators read straight from column vectors: group keys gather
    // only the grouping columns, aggregates only their input column.
    let mut feed = |b: ColumnBatch| -> ExecResult<()> {
        for row in 0..b.len() {
            input_rows += 1;
            let key: Vec<Value> = group.iter().map(|&c| b.value(row, c).clone()).collect();
            let accs = groups
                .entry(key)
                .or_insert_with(|| aggs.iter().map(|&(f, _)| Acc::new(f)).collect());
            for (acc, &(_, pos)) in accs.iter_mut().zip(aggs) {
                acc.feed(pos.map(|c| b.value(row, c)));
            }
        }
        Ok(())
    };
    // Scan→aggregate fusion: a sequential-scan input feeds the
    // accumulators each page's selected rows directly — nothing is
    // gathered except the grouping and aggregate columns.
    if let PlanNode::SeqScan { table, filters } = &input.node {
        let map: Arc<ScanMap<ColumnBatch>> = Arc::new(|batch, _stats, sink| sink(batch));
        fused_scan(table, filters, None, catalog, ctx, map, &mut feed)?;
    } else {
        run_batched(input, catalog, ctx, &mut feed)?;
    }
    ctx.pool.charge_cpu(input_rows);
    // Same SQL convention as the row path: global aggregate over an
    // empty input yields one row.
    if groups.is_empty() && group.is_empty() {
        groups.insert(Vec::new(), aggs.iter().map(|&(f, _)| Acc::new(f)).collect());
    }
    let mut rows: Vec<(Vec<Value>, Vec<Acc>)> = groups.into_iter().collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let mut em = Emitter::new(group.len() + aggs.len(), ctx.batch_size, out);
    for (key, accs) in rows {
        em.push_row(key.into_iter().chain(accs.into_iter().map(Acc::finish)))?;
    }
    let batches = em.finish()?;
    ctx.batch_stats.batches += batches;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CancelToken;
    use crate::run;
    use specdb_catalog::{ColumnDef, Schema, TableStats};
    use specdb_storage::{BufferPool, HeapFile};

    fn fixture() -> (BufferPool, Catalog) {
        let mut pool = BufferPool::new(512);
        let mut cat = Catalog::new();
        let emp_heap = HeapFile::create(&mut pool);
        let mut loader = BulkLoader::new();
        for i in 0..3000i64 {
            loader
                .push(&Tuple::new(vec![Value::Int(i), Value::Int(i % 10), Value::Int(20 + i % 50)]))
                .unwrap();
        }
        loader.finish(&mut pool, emp_heap).unwrap();
        let emp_stats = TableStats::analyze(&mut pool, emp_heap, 3).unwrap();
        cat.register(
            "emp",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("dept", DataType::Int),
                ColumnDef::new("age", DataType::Int),
            ]),
            emp_heap,
            emp_stats,
        );
        let dept_heap = HeapFile::create(&mut pool);
        let mut loader = BulkLoader::new();
        for i in 0..10i64 {
            loader
                .push(&Tuple::new(vec![Value::Int(i), Value::Str(format!("d{i}"))]))
                .unwrap();
        }
        loader.finish(&mut pool, dept_heap).unwrap();
        let dept_stats = TableStats::analyze(&mut pool, dept_heap, 2).unwrap();
        cat.register(
            "dept",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Str),
            ]),
            dept_heap,
            dept_stats,
        );
        // proj.lead (an emp id) is NULL on every fourth row and proj.dept
        // on every fifth: NULL join keys and NULL residual columns.
        let proj_heap = HeapFile::create(&mut pool);
        let mut loader = BulkLoader::new();
        let or_null = |null: bool, v: i64| if null { Value::Null } else { Value::Int(v) };
        for i in 0..3000i64 {
            let row =
                vec![Value::Int(i), or_null(i % 4 == 0, i * 7 % 3000), or_null(i % 5 == 0, i % 10)];
            loader.push(&Tuple::new(row)).unwrap();
        }
        loader.finish(&mut pool, proj_heap).unwrap();
        let proj_stats = TableStats::analyze(&mut pool, proj_heap, 3).unwrap();
        cat.register(
            "proj",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("lead", DataType::Int),
                ColumnDef::new("dept", DataType::Int),
            ]),
            proj_heap,
            proj_stats,
        );
        (pool, cat)
    }

    fn scan(table: &str, cols: &[&str], filters: Vec<BoundPred>) -> Plan {
        Plan {
            node: PlanNode::SeqScan { table: table.into(), filters },
            cols: cols.iter().map(|c| c.to_string()).collect(),
        }
    }

    /// Run a plan on both paths from identical cold pools and assert
    /// identical tuples, order, and resource demand.
    fn assert_paths_agree(plan: &Plan) {
        let (mut pool_a, cat_a) = fixture();
        let (mut pool_b, cat_b) = fixture();
        pool_a.clear();
        pool_b.clear();
        let snap_a = pool_a.snapshot();
        let snap_b = pool_b.snapshot();
        let mut ctx = ExecCtx::new(&mut pool_a);
        let rows_row = run::run_collect(plan, &cat_a, &mut ctx).unwrap();
        let mut ctx = ExecCtx::new(&mut pool_b);
        let rows_batch = run_collect_batched(plan, &cat_b, &mut ctx).unwrap();
        assert_eq!(rows_row, rows_batch, "tuples and order must be identical");
        let d_row = pool_a.demand_since(snap_a);
        let d_batch = pool_b.demand_since(snap_b);
        assert_eq!(d_row, d_batch, "resource demand must be identical");
    }

    /// Run a plan serially and with four morsel workers from identical
    /// cold pools and assert identical tuples, order, batch stats, and
    /// resource demand — the bit-identity contract of [`crate::parallel`].
    fn assert_parallel_agrees(plan: &Plan) {
        let (mut pool_a, cat_a) = fixture();
        let (mut pool_b, cat_b) = fixture();
        pool_a.clear();
        pool_b.clear();
        let snap_a = pool_a.snapshot();
        let snap_b = pool_b.snapshot();
        let mut ctx = ExecCtx::new(&mut pool_a);
        let rows_serial = run_collect_batched(plan, &cat_a, &mut ctx).unwrap();
        let stats_serial = ctx.batch_stats;
        let mut ctx = ExecCtx::new(&mut pool_b);
        ctx.threads = 4;
        let rows_parallel = run_collect_batched(plan, &cat_b, &mut ctx).unwrap();
        assert_eq!(rows_serial, rows_parallel, "tuples and order must be identical");
        assert_eq!(stats_serial, ctx.batch_stats, "batch stats must be identical");
        assert_eq!(
            pool_a.demand_since(snap_a),
            pool_b.demand_since(snap_b),
            "resource demand must be identical"
        );
    }

    #[test]
    fn morsel_scan_matches_serial() {
        assert_parallel_agrees(&scan(
            "emp",
            &["emp.id", "emp.dept", "emp.age"],
            vec![BoundPred { idx: 2, op: CompareOp::Lt, value: Value::Int(30) }],
        ));
    }

    #[test]
    fn morsel_projected_scan_matches_serial() {
        let inner = scan(
            "emp",
            &["emp.id", "emp.dept", "emp.age"],
            vec![BoundPred { idx: 1, op: CompareOp::Eq, value: Value::Int(3) }],
        );
        assert_parallel_agrees(&Plan {
            cols: vec!["emp.age".into(), "emp.id".into()],
            node: PlanNode::Project { input: Box::new(inner), keep: vec![2, 0] },
        });
    }

    #[test]
    fn morsel_hash_join_matches_serial() {
        // emp as the build side makes the build input a pooled scan;
        // dept as the probe side stays inline (single page), covering
        // the mixed case too.
        let emp = || scan("emp", &["emp.id", "emp.dept", "emp.age"], vec![]);
        let dept = || scan("dept", &["dept.id", "dept.name"], vec![]);
        assert_parallel_agrees(&hash_join(emp(), dept(), 1, 0, vec![]));
        // And the reverse orientation: a pooled probe over emp.
        assert_parallel_agrees(&hash_join(dept(), emp(), 0, 1, vec![]));
    }

    fn hash_join(
        left: Plan,
        right: Plan,
        lkey: usize,
        rkey: usize,
        residual: Vec<(usize, usize)>,
    ) -> Plan {
        Plan {
            cols: left.cols.iter().chain(&right.cols).cloned().collect(),
            node: PlanNode::HashJoin {
                left: Box::new(left),
                right: Box::new(right),
                lkey,
                rkey,
                residual,
            },
        }
    }

    /// `dept ⋈ emp` on `dept.id = emp.dept`: 3000 rows whose columns all
    /// carry gather indexes (`dept.id, dept.name, emp.id, emp.dept, emp.age`).
    fn dept_emp() -> Plan {
        let dept = scan("dept", &["dept.id", "dept.name"], vec![]);
        hash_join(dept, scan("emp", &["emp.id", "emp.dept", "emp.age"], vec![]), 0, 1, vec![])
    }

    #[test]
    fn join_probing_a_join_output_composes_gather_indexes() {
        let d2 = || scan("dept", &["d2.id", "d2.name"], vec![]);
        // Probe on emp.dept; then a residual `d2.id = emp.id` that keeps
        // only emp ids 0..10; then a probe input whose projection keeps
        // a subset of the inner join's indexed columns, reordered.
        let projected = Plan {
            cols: vec!["emp.age".into(), "dept.name".into(), "emp.dept".into()],
            node: PlanNode::Project { input: Box::new(dept_emp()), keep: vec![4, 1, 3] },
        };
        for plan in [
            hash_join(d2(), dept_emp(), 0, 3, vec![]),
            hash_join(d2(), dept_emp(), 0, 3, vec![(0, 2)]),
            hash_join(d2(), projected, 0, 2, vec![]),
        ] {
            assert_paths_agree(&plan);
            assert_parallel_agrees(&plan);
        }
    }

    #[test]
    fn join_building_on_a_join_output_splits_wide_fan_out() {
        // Build on the 3000-row join output; the probe side is dept's
        // single 10-row batch, whose 3000 matches must split into
        // batches of at most `batch_size` rows.
        let plan = hash_join(dept_emp(), scan("dept", &["d2.id", "d2.name"], vec![]), 3, 0, vec![]);
        assert_paths_agree(&plan);
        assert_parallel_agrees(&plan);
        let (mut pool, cat) = fixture();
        let mut ctx = ExecCtx::new(&mut pool);
        let mut sizes = Vec::new();
        run_batched(&plan, &cat, &mut ctx, &mut |b: ColumnBatch| {
            sizes.push(b.len());
            Ok(())
        })
        .unwrap();
        assert_eq!(sizes, vec![1024, 1024, 952]);
    }

    #[test]
    fn hash_join_skips_null_keys_and_null_residuals() {
        let proj = || scan("proj", &["proj.id", "proj.lead", "proj.dept"], vec![]);
        let emp = || scan("emp", &["emp.id", "emp.dept", "emp.age"], vec![]);
        let (pool, cat) = fixture();
        let pages = cat.table("proj").unwrap().heap.pages(&pool) as usize;
        assert!(pages >= MIN_MORSEL_PAGES, "proj must take the pooled build and probe");
        let p2 = || scan("proj", &["p2.id", "p2.lead", "p2.dept"], vec![]);
        // NULL keys on the build side, then on the probe side; a residual
        // never passes on a NULL, not even NULL = NULL in the self-join.
        for plan in [
            hash_join(proj(), emp(), 1, 0, vec![]),
            hash_join(emp(), proj(), 0, 1, vec![]),
            hash_join(proj(), emp(), 1, 0, vec![(2, 1)]),
            hash_join(emp(), proj(), 0, 1, vec![(1, 2)]),
            hash_join(proj(), p2(), 0, 0, vec![(2, 2)]),
        ] {
            assert_paths_agree(&plan);
            assert_parallel_agrees(&plan);
        }
    }

    #[test]
    fn morsel_aggregate_matches_serial() {
        assert_parallel_agrees(&Plan {
            cols: vec!["emp.dept".into(), "count".into(), "avg_age".into()],
            node: PlanNode::Aggregate {
                input: Box::new(scan("emp", &["emp.id", "emp.dept", "emp.age"], vec![])),
                group: vec![1],
                aggs: vec![(AggFunc::Count, None), (AggFunc::Avg, Some(2))],
            },
        });
    }

    #[test]
    fn morsel_batch_boundaries_match_serial() {
        let plan = scan("emp", &["emp.id", "emp.dept", "emp.age"], vec![]);
        let boundary_sizes = |threads: usize| {
            let (mut pool, cat) = fixture();
            let mut ctx = ExecCtx::new(&mut pool);
            ctx.batch_size = 256;
            ctx.threads = threads;
            let mut sizes = Vec::new();
            run_batched(&plan, &cat, &mut ctx, &mut |b: ColumnBatch| {
                sizes.push(b.len());
                Ok(())
            })
            .unwrap();
            sizes
        };
        assert_eq!(boundary_sizes(1), boundary_sizes(4), "same batch stream at any thread count");
    }

    #[test]
    fn morsel_scan_respects_cancellation() {
        let (mut pool, cat) = fixture();
        let token = CancelToken::new();
        token.cancel();
        let mut ctx = ExecCtx::with_cancel(&mut pool, token);
        ctx.threads = 4;
        let plan = scan("emp", &["emp.id", "emp.dept", "emp.age"], vec![]);
        let err = run_collect_batched(&plan, &cat, &mut ctx);
        assert!(err.is_err(), "pre-cancelled token must abort the parallel scan");
    }

    #[test]
    fn operator_spans_do_not_depend_on_thread_count() {
        let emp = || scan("emp", &["emp.id", "emp.dept", "emp.age"], vec![]);
        let dept = || scan("dept", &["dept.id", "dept.name"], vec![]);
        let operator_spans = |plan: &Plan, threads: usize| {
            let (mut pool, cat) = fixture();
            let tracer = specdb_obs::Tracer::enabled();
            pool.set_observer(specdb_obs::Observer::disabled().with_tracer(tracer.clone()));
            let mut ctx = ExecCtx::new(&mut pool);
            ctx.threads = threads;
            run_collect_batched(plan, &cat, &mut ctx).unwrap();
            let spans = tracer.spans();
            let name = |id| spans.iter().find(|s| Some(s.id) == id).map(|s| s.name);
            let count = |s: &specdb_obs::SpanRecord, key| s.attr(key).and_then(|v| v.as_u64());
            spans
                .iter()
                .filter(|s| s.kind == SpanKind::Operator)
                .map(|s| (s.name, name(s.parent), count(s, "rows"), count(s, "batches")))
                .collect::<Vec<_>>()
        };
        // emp ⋈ dept builds on the multi-page emp scan (pooled at four
        // threads); dept ⋈ emp probes it.
        for plan in [hash_join(emp(), dept(), 1, 0, vec![]), hash_join(dept(), emp(), 0, 1, vec![])]
        {
            let serial = operator_spans(&plan, 1);
            // The probe scan fuses into the join; the build scan is its
            // own operator at every thread count.
            assert_eq!(serial.len(), 2, "build scan and join: {serial:?}");
            assert_eq!(serial, operator_spans(&plan, 4));
        }
    }

    #[test]
    fn consumer_errors_surface_after_exactly_k_batches() {
        let emp = || scan("emp", &["emp.id", "emp.dept", "emp.age"], vec![]);
        let proj = || scan("proj", &["proj.id", "proj.lead", "proj.dept"], vec![]);
        for threads in [1, 4] {
            let (mut pool, cat) = fixture();
            // A scan, then joins whose build and probe sides both span
            // many pages (proj.lead = emp.id), in both orientations.
            for plan in [
                emp(),
                hash_join(emp(), proj(), 0, 1, vec![]),
                hash_join(proj(), emp(), 1, 0, vec![]),
            ] {
                let mut deliver = |stop: usize| {
                    let mut ctx = ExecCtx::new(&mut pool);
                    ctx.threads = threads;
                    ctx.batch_size = 64;
                    let mut delivered = 0;
                    let result = run_batched(&plan, &cat, &mut ctx, &mut |_| {
                        if delivered == stop {
                            return Err(ExecError::UnknownTable("consumer".into()));
                        }
                        delivered += 1;
                        Ok(())
                    });
                    (result, delivered)
                };
                let (result, total) = deliver(usize::MAX);
                result.unwrap();
                assert!(total > 30, "{total} batches");
                for k in 0..total {
                    let (result, delivered) = deliver(k);
                    assert!(
                        matches!(result, Err(ExecError::UnknownTable(_))),
                        "threads {threads}, k {k}: {result:?}"
                    );
                    assert_eq!(delivered, k, "threads {threads}");
                }
            }
        }
    }

    #[test]
    fn fused_scan_matches_row_path() {
        let plan = scan(
            "emp",
            &["emp.id", "emp.dept", "emp.age"],
            vec![BoundPred { idx: 2, op: CompareOp::Lt, value: Value::Int(30) }],
        );
        assert_paths_agree(&plan);
    }

    #[test]
    fn fused_scan_project_matches_row_path() {
        let inner = scan(
            "emp",
            &["emp.id", "emp.dept", "emp.age"],
            vec![BoundPred { idx: 1, op: CompareOp::Eq, value: Value::Int(3) }],
        );
        let plan = Plan {
            cols: vec!["emp.age".into(), "emp.id".into()],
            node: PlanNode::Project { input: Box::new(inner), keep: vec![2, 0] },
        };
        assert_paths_agree(&plan);
    }

    #[test]
    fn hash_join_and_aggregate_match_row_path() {
        let join = dept_emp();
        assert_paths_agree(&join);
        let agg = Plan {
            cols: vec!["dept.name".into(), "count".into(), "avg_age".into()],
            node: PlanNode::Aggregate {
                input: Box::new(join),
                group: vec![1],
                aggs: vec![(AggFunc::Count, None), (AggFunc::Avg, Some(4))],
            },
        };
        assert_paths_agree(&agg);
    }

    #[test]
    fn batches_respect_size_and_cover_all_rows() {
        let (mut pool, cat) = fixture();
        let plan = scan("emp", &["emp.id", "emp.dept", "emp.age"], vec![]);
        let mut ctx = ExecCtx::new(&mut pool);
        ctx.batch_size = 256;
        let mut sizes = Vec::new();
        run_batched(&plan, &cat, &mut ctx, &mut |b: ColumnBatch| {
            sizes.push(b.len());
            Ok(())
        })
        .unwrap();
        assert_eq!(sizes.iter().sum::<usize>(), 3000);
        assert!(sizes.iter().all(|&s| s > 0 && s <= 256));
        assert_eq!(ctx.batch_stats.batches, sizes.len() as u64);
        assert_eq!(ctx.batch_stats.fused_scans, 1);
        assert_eq!(ctx.batch_stats.rows_scanned, 3000);
        assert_eq!(ctx.batch_stats.rows_selected, 3000);
        assert_eq!(
            ctx.batch_stats.cols_scanned,
            3 * pool_pages(&pool, &cat),
            "three columns per scanned page"
        );
    }

    fn pool_pages(pool: &BufferPool, cat: &Catalog) -> u64 {
        cat.table("emp").unwrap().heap.pages(pool) as u64
    }

    #[test]
    fn selection_vectors_do_not_copy_columns() {
        let (mut pool, cat) = fixture();
        let plan = scan(
            "emp",
            &["emp.id", "emp.dept", "emp.age"],
            vec![BoundPred { idx: 1, op: CompareOp::Eq, value: Value::Int(7) }],
        );
        // Warm the segment cache, then check batches share its columns.
        let mut ctx = ExecCtx::new(&mut pool);
        run_collect_batched(&plan, &cat, &mut ctx).unwrap();
        let mut shared = 0usize;
        let mut ctx = ExecCtx::new(&mut pool);
        run_batched(&plan, &cat, &mut ctx, &mut |b: ColumnBatch| {
            // 300 of 3000 rows match; every batch must carry a selection
            // vector over the full page columns rather than copied rows.
            assert!(b.len() < b.rows, "filter must select, not copy");
            shared += 1;
            Ok(())
        })
        .unwrap();
        assert!(shared > 0);
        let density = ctx.batch_stats.rows_selected as f64 / ctx.batch_stats.rows_scanned as f64;
        assert!((density - 0.1).abs() < 0.01, "dept = 7 selects ~10%, got {density}");
    }

    #[test]
    fn index_nl_join_uses_batch_prober_and_matches_row_path() {
        let build = || {
            let (mut pool, mut cat) = fixture();
            cat.build_index(&mut pool, "emp", "dept").unwrap();
            (pool, cat)
        };
        let plan = Plan {
            cols: vec![
                "dept.id".into(),
                "dept.name".into(),
                "emp.id".into(),
                "emp.dept".into(),
                "emp.age".into(),
            ],
            node: PlanNode::IndexNLJoin {
                outer: Box::new(scan("dept", &["dept.id", "dept.name"], vec![])),
                inner_table: "emp".into(),
                inner_column: "dept".into(),
                okey: 0,
                inner_filters: vec![],
                residual: vec![],
            },
        };
        let (mut pool_a, cat_a) = build();
        let (mut pool_b, cat_b) = build();
        pool_a.clear();
        pool_b.clear();
        let snap_a = pool_a.snapshot();
        let snap_b = pool_b.snapshot();
        let mut ctx = ExecCtx::new(&mut pool_a);
        let rows_row = run::run_collect(&plan, &cat_a, &mut ctx).unwrap();
        let mut ctx = ExecCtx::new(&mut pool_b);
        let rows_batch = run_collect_batched(&plan, &cat_b, &mut ctx).unwrap();
        let stats = ctx.batch_stats;
        assert_eq!(rows_row, rows_batch);
        assert_eq!(pool_a.demand_since(snap_a), pool_b.demand_since(snap_b));
        assert_eq!(stats.index_probe_batches, 1, "10 outer rows = one batch");
    }

    #[test]
    fn repeat_scan_hits_segment_cache_without_changing_accounting() {
        let (mut pool, cat) = fixture();
        let heap = cat.table("dept").unwrap().heap;
        let plan = scan("dept", &["dept.id", "dept.name"], vec![]);
        let mut ctx = ExecCtx::new(&mut pool);
        let first = run_collect_batched(&plan, &cat, &mut ctx).unwrap();
        let resident = pool.seg_resident();
        assert!(resident > 0, "a scan should populate the segment cache");
        let snap = pool.snapshot();
        let mut ctx = ExecCtx::new(&mut pool);
        let second = run_collect_batched(&plan, &cat, &mut ctx).unwrap();
        assert_eq!(first, second);
        let d = pool.demand_since(snap);
        // Accounting still sees the page accesses (as hits, pool is warm).
        assert_eq!(d.hits, heap.pages(&pool) as u64);
        assert_eq!(d.cpu_tuples, 10);
    }

    #[test]
    fn zone_maps_skip_pages_without_changing_results_or_accounting() {
        // emp.id is loaded in sorted order, so every page's id zone is a
        // disjoint range and `id < 100` qualifies only the first page.
        let plan = scan(
            "emp",
            &["emp.id", "emp.dept", "emp.age"],
            vec![BoundPred { idx: 0, op: CompareOp::Lt, value: Value::Int(100) }],
        );
        // Bit-identity with the row oracle (tuples, order, demand) and
        // with the morsel path (including `pages_skipped` stat equality).
        assert_paths_agree(&plan);
        assert_parallel_agrees(&plan);
        let (mut pool, cat) = fixture();
        let pages = pool_pages(&pool, &cat);
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect_batched(&plan, &cat, &mut ctx).unwrap();
        assert_eq!(rows.len(), 100);
        assert_eq!(
            ctx.batch_stats.pages_skipped,
            pages - 1,
            "all pages but the first are provably out of range"
        );
        assert_eq!(ctx.batch_stats.rows_scanned, 3000, "skipped pages still count their rows");
        // A warm re-scan skips identically (the zone side-cache makes it
        // decode-free, but the counter must not depend on cache state).
        let mut ctx = ExecCtx::new(&mut pool);
        let again = run_collect_batched(&plan, &cat, &mut ctx).unwrap();
        assert_eq!(rows, again);
        assert_eq!(ctx.batch_stats.pages_skipped, pages - 1);
    }

    #[test]
    fn filters_match_row_oracle() {
        // dept (i % 10) is low-cardinality, age (20 + i % 50) repeats in
        // short runs, id is unique: each predicate's filter kernel and
        // zone logic are checked against the row oracle.
        for (idx, op, value) in [
            (1, CompareOp::Eq, Value::Int(7)),
            (1, CompareOp::Ne, Value::Int(3)),
            (2, CompareOp::Ge, Value::Int(60)),
            (0, CompareOp::Gt, Value::Int(2900)),
        ] {
            let plan =
                scan("emp", &["emp.id", "emp.dept", "emp.age"], vec![BoundPred { idx, op, value }]);
            assert_paths_agree(&plan);
        }
    }

    #[test]
    fn cancellation_aborts_batched_scan() {
        let (mut pool, cat) = fixture();
        let plan = scan("emp", &["emp.id", "emp.dept", "emp.age"], vec![]);
        let token = CancelToken::new();
        token.cancel();
        let mut ctx = ExecCtx::with_cancel(&mut pool, token);
        let err = run_collect_batched(&plan, &cat, &mut ctx).unwrap_err();
        assert!(err.is_cancelled());
    }

    /// The materialization sink writes each row exactly as
    /// [`Tuple::encode`] would, for every value kind, through selection
    /// vectors and gather indexes alike.
    #[test]
    fn load_into_writes_tuple_encode_bytes() {
        let plain = ColumnBatch::new(vec![
            Arc::new(vec![Value::Int(-3), Value::Null, Value::Int(i64::MAX), Value::Int(0)]),
            Arc::new(vec![Value::Float(1.5), Value::Float(-0.0), Value::Null, Value::Float(1e300)]),
            Arc::new(vec![
                Value::Str(String::new()),
                Value::Str("ü-ß".into()),
                Value::Str("x".repeat(300)),
                Value::Null,
            ]),
        ]);
        let selected = plain.clone().with_sel(vec![3, 1, 2]);
        let mut gathered = plain.clone();
        for col in &mut gathered.cols {
            col.idx = Some(Arc::new(vec![2, 0, 0, 3, 1]));
        }
        gathered.rows = 5;
        for batch in [plain, selected, gathered.with_sel(vec![4, 0, 3])] {
            let mut loader = BulkLoader::new();
            batch.load_into(&mut loader).unwrap();
            let mut pool = BufferPool::new(4);
            let heap = HeapFile::create(&mut pool);
            loader.finish(&mut pool, heap).unwrap();
            let page = pool.read_page(PageId::new(heap.file, 0), AccessKind::Sequential).unwrap();
            let got: Vec<&[u8]> = page.iter().map(|(_, bytes)| bytes).collect();
            let want: Vec<Vec<u8>> =
                (0..batch.len()).map(|r| Tuple::new(batch.gather_row(r)).encode()).collect();
            assert_eq!(got, want);
        }
    }
}
