//! Cardinality and cost estimation.
//!
//! The optimizer and — crucially — the paper's speculative cost model
//! (Theorem 3.1) both need `cost(q, m)` estimates computed from catalog
//! statistics. Estimates use histograms when the column has one (which
//! is exactly what the *histogram creation* manipulation buys) and fall
//! back to System-R-style heuristics otherwise: `1/distinct` for
//! equality, linear interpolation between min and max for ranges, `1/3`
//! when nothing is known.
//!
//! A materialized view has no histograms of its own, but its columns are
//! named `rel.col` after the base columns they copy. A view column
//! **borrows** the base column's histogram, conditioned on the view
//! column's own `[min, max]`: the selectivity of `x` is
//! `(F(x) − F(<min)) / (F(≤max) − F(<min))`, so a view that already
//! filters the column is not charged for that filter a second time.
//!
//! The min/max interpolation gives each of the column's `distinct`
//! values a **boundary share** of `1/distinct` of the rows: `< min` and
//! `> max` select nothing, `<= max` and `>= min` select everything, and
//! inside the range `<=` and `>=` add the point's share to `<` and `>`.
//! An equality index scan, priced as `<= x` minus `< x`, therefore
//! matches `1/distinct` of the rows, never zero.
//!
//! Estimated cost is expressed as a [`CostEstimate`] with the same
//! components as a measured [`ResourceDemand`], so the one
//! [`specdb_storage::DiskModel`] converts both estimated and measured
//! work into virtual time.

use crate::plan::{BoundPred, Plan, PlanNode};
use specdb_catalog::{Catalog, Histogram};
use specdb_query::CompareOp;
use specdb_storage::{BufferPool, DiskModel, PageId, ResourceDemand, Value, VirtualTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Bound;

/// Estimated output cardinality and resource demand of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated sequential page reads.
    pub seq_pages: f64,
    /// Estimated random page reads.
    pub rand_pages: f64,
    /// Estimated tuples of CPU work.
    pub cpu: f64,
    /// Estimated page writes (spill traffic).
    pub write_pages: f64,
    /// Estimated bytes of operator working memory (hash-join build sides).
    /// Charged to [`ResourceDemand::mem_bytes`]; the disk model assigns it
    /// no time, but the speculator sees build-side footprint.
    pub mem_bytes: f64,
}

impl CostEstimate {
    /// The zero estimate.
    pub fn zero() -> Self {
        CostEstimate {
            rows: 0.0,
            seq_pages: 0.0,
            rand_pages: 0.0,
            cpu: 0.0,
            write_pages: 0.0,
            mem_bytes: 0.0,
        }
    }

    /// Convert to a resource demand (for the disk model).
    pub fn demand(&self) -> ResourceDemand {
        ResourceDemand {
            seq_reads: self.seq_pages.max(0.0).round() as u64,
            rand_reads: self.rand_pages.max(0.0).round() as u64,
            writes: self.write_pages.max(0.0).round() as u64,
            hits: 0,
            cpu_tuples: self.cpu.max(0.0).round() as u64,
            mem_bytes: self.mem_bytes.max(0.0).round() as u64,
        }
    }

    /// Estimated virtual time under a disk model.
    pub fn time(&self, disk: &DiskModel) -> VirtualTime {
        disk.time(&self.demand())
    }

    /// Add another estimate's resource components (not its rows).
    fn absorb(&mut self, other: &CostEstimate) {
        self.seq_pages += other.seq_pages;
        self.rand_pages += other.rand_pages;
        self.cpu += other.cpu;
        self.write_pages += other.write_pages;
        self.mem_bytes += other.mem_bytes;
    }
}

/// Statistics-driven estimator over a catalog snapshot.
///
/// An instance lives for one optimization pass over one catalog state, so
/// it memoizes per-(table, predicate) selectivities and per-subplan cost
/// estimates without any invalidation scheme: the greedy join-order
/// search and the access-path and join-method choices re-visit the same
/// scan and join subplans many times.
pub struct Estimator<'a> {
    catalog: &'a Catalog,
    pool: &'a BufferPool,
    sel_memo: RefCell<HashMap<String, f64>>,
    est_memo: RefCell<HashMap<String, CostEstimate>>,
}

impl<'a> Estimator<'a> {
    /// Construct over the current catalog and pool.
    pub fn new(catalog: &'a Catalog, pool: &'a BufferPool) -> Self {
        Estimator {
            catalog,
            pool,
            sel_memo: RefCell::new(HashMap::new()),
            est_memo: RefCell::new(HashMap::new()),
        }
    }

    /// Selectivity of `table.column op value` (memoized per instance).
    pub fn selectivity(&self, table: &str, column: &str, op: CompareOp, value: &Value) -> f64 {
        let key = format!("{table}|{column}|{}|{value}", op.sql());
        if let Some(&s) = self.sel_memo.borrow().get(&key) {
            return s;
        }
        let s = self.selectivity_uncached(table, column, op, value);
        self.sel_memo.borrow_mut().insert(key, s);
        s
    }

    fn selectivity_uncached(&self, table: &str, column: &str, op: CompareOp, value: &Value) -> f64 {
        let own = self.catalog.histogram(table, column);
        if let Some(s) = own.and_then(|h| histogram_selectivity(h, None, op, value)) {
            return s;
        }
        let stats = self
            .catalog
            .table(table)
            .and_then(|t| t.schema.index_of(column).map(|i| t.stats.column(i)));
        let Some(stats) = stats else { return 0.33 };
        // A view column `rel.col` borrows its base column's histogram.
        let base = column.split_once('.').and_then(|(rel, col)| self.catalog.histogram(rel, col));
        if let Some(s) = base.and_then(|h| {
            histogram_selectivity(h, stats.min.as_ref().zip(stats.max.as_ref()), op, value)
        }) {
            return s;
        }
        // Fall back to basic column stats.
        let point = 1.0 / stats.distinct.max(1) as f64;
        match op {
            CompareOp::Eq => point,
            CompareOp::Ne => 1.0 - point,
            _ => {
                let (Some(min), Some(max)) = (&stats.min, &stats.max) else {
                    return 0.33;
                };
                let (lo, hi, x) = (min.as_numeric(), max.as_numeric(), value.as_numeric());
                if hi < lo || !x.is_finite() {
                    return 0.33;
                }
                // `distinct` evenly spaced values from min to max, each
                // holding `point` of the rows: the value at min starts
                // the mass, the value at max ends it.
                let lt = if x <= lo {
                    0.0
                } else if x > hi {
                    1.0
                } else {
                    (x - lo) / (hi - lo) * (1.0 - point)
                };
                let le = if x < lo {
                    0.0
                } else if x >= hi {
                    1.0
                } else {
                    lt + point
                };
                match op {
                    CompareOp::Lt => lt,
                    CompareOp::Le => le,
                    CompareOp::Gt => 1.0 - le,
                    CompareOp::Ge => 1.0 - lt,
                    _ => unreachable!(),
                }
            }
        }
        .clamp(0.0, 1.0)
    }

    /// Combined selectivity of a conjunction of bound predicates on a table.
    fn filters_selectivity(&self, table: &str, filters: &[BoundPred]) -> f64 {
        let Some(t) = self.catalog.table(table) else { return 1.0 };
        filters
            .iter()
            .map(|f| {
                let col = t.schema.columns().get(f.idx).map(|c| c.name.as_str()).unwrap_or("");
                self.selectivity(table, col, f.op, &f.value)
            })
            .product()
    }

    /// Join selectivity for an equi-join between two *columns* with the
    /// given distinct counts, `1 / max(d1, d2)` (System R).
    pub fn join_selectivity_from_distinct(&self, d1: u64, d2: u64) -> f64 {
        1.0 / d1.max(d2).max(1) as f64
    }

    /// Distinct count of a stored table's column (1 if unknown).
    pub fn distinct(&self, table: &str, column: &str) -> u64 {
        self.catalog
            .table(table)
            .and_then(|t| t.schema.index_of(column).map(|i| t.stats.column(i).distinct))
            .unwrap_or(1)
            .max(1)
    }

    /// Range selectivity for index-scan bounds on a column.
    fn bounds_selectivity(
        &self,
        table: &str,
        column: &str,
        lo: &Bound<Value>,
        hi: &Bound<Value>,
    ) -> f64 {
        let below_hi = match hi {
            Bound::Unbounded => 1.0,
            Bound::Included(v) => self.selectivity(table, column, CompareOp::Le, v),
            Bound::Excluded(v) => self.selectivity(table, column, CompareOp::Lt, v),
        };
        let below_lo = match lo {
            Bound::Unbounded => 0.0,
            Bound::Included(v) => self.selectivity(table, column, CompareOp::Lt, v),
            Bound::Excluded(v) => self.selectivity(table, column, CompareOp::Le, v),
        };
        (below_hi - below_lo).clamp(0.0, 1.0)
    }

    /// Recursively estimate a plan (memoized per instance: the join-order
    /// search estimates the same subplans repeatedly).
    pub fn estimate(&self, plan: &Plan) -> CostEstimate {
        // Plan trees are pure data with a complete `Debug` rendering, so
        // the rendering doubles as a structural memo key; `cols.len()`
        // joins it because the hash-join width heuristic reads it.
        let key = format!("{}|{:?}", plan.cols.len(), plan.node);
        if let Some(&e) = self.est_memo.borrow().get(&key) {
            return e;
        }
        let e = self.estimate_uncached(plan);
        self.est_memo.borrow_mut().insert(key, e);
        e
    }

    fn estimate_uncached(&self, plan: &Plan) -> CostEstimate {
        match &plan.node {
            PlanNode::SeqScan { table, filters } => {
                let (rows, pages) = self.table_size(table);
                let sel = self.filters_selectivity(table, filters);
                CostEstimate {
                    rows: rows * sel,
                    seq_pages: pages,
                    rand_pages: 0.0,
                    cpu: rows,
                    write_pages: 0.0,
                    mem_bytes: 0.0,
                }
            }
            PlanNode::IndexScan { table, column, lo, hi, filters } => {
                let (rows, pages) = self.table_size(table);
                let range_sel = self.bounds_selectivity(table, column, lo, hi);
                let matched = rows * range_sel;
                let leaf_pages = match self.catalog.index(table, column) {
                    Some(idx) => idx.probe_pages(self.pool, matched.round() as u64) as f64,
                    None => 1.0 + matched / 200.0,
                };
                // Unclustered fetches: distinct data pages touched.
                let fetch_pages = matched.min(pages);
                let residual_sel = self.filters_selectivity(table, filters);
                CostEstimate {
                    rows: matched * residual_sel,
                    seq_pages: (leaf_pages - 1.0).max(0.0),
                    rand_pages: 1.0 + fetch_pages,
                    cpu: 2.0 * matched,
                    write_pages: 0.0,
                    mem_bytes: 0.0,
                }
            }
            PlanNode::HashJoin { left, right, lkey, rkey, residual } => {
                let l = self.estimate(left);
                let r = self.estimate(right);
                let sel = self.key_join_selectivity(left, *lkey, right, *rkey);
                let res_sel = 0.1f64.powi(residual.len() as i32).max(1e-9);
                // Hybrid hash spill estimate: the overflow fraction of
                // both inputs pays one extra write+read pass.
                let width = 2.0 + 12.0 * plan.cols.len() as f64;
                let build_bytes = l.rows * width;
                let spill_fraction = crate::run::spill_fraction(self.pool, build_bytes);
                let spill_pages =
                    spill_fraction * (l.rows + r.rows) * width / specdb_storage::PAGE_SIZE as f64;
                let mut est = CostEstimate {
                    rows: (l.rows * r.rows * sel * res_sel).max(0.0),
                    seq_pages: spill_pages,
                    rand_pages: 0.0,
                    cpu: l.rows + r.rows,
                    write_pages: spill_pages,
                    mem_bytes: build_bytes,
                };
                est.absorb(&l);
                est.absorb(&r);
                est
            }
            PlanNode::IndexNLJoin { outer, inner_table, inner_column, residual, .. } => {
                let o = self.estimate(outer);
                let (irows, ipages) = self.table_size(inner_table);
                let d_inner = self.distinct(inner_table, inner_column);
                let matched_per_probe = irows / d_inner as f64;
                let probes = o.rows;
                let res_sel = 0.1f64.powi(residual.len() as i32).max(1e-9);
                // Probe I/O is cache-aware: an inner table that fits the
                // buffer pool is read at most once (subsequent probes
                // hit); a larger inner pays random fetches per probe,
                // bounded by a few passes over the table.
                let pool_pages = self.pool.capacity() as f64;
                let fetch = if ipages <= pool_pages * 0.8 {
                    ipages.min(probes * (1.0 + matched_per_probe))
                } else {
                    (probes * (1.0 + matched_per_probe)).min(3.0 * ipages + probes)
                };
                let mut est = CostEstimate {
                    rows: probes * matched_per_probe * res_sel,
                    seq_pages: 0.0,
                    rand_pages: fetch,
                    cpu: probes * (1.0 + matched_per_probe),
                    write_pages: 0.0,
                    mem_bytes: 0.0,
                };
                est.absorb(&o);
                est
            }
            PlanNode::NestedLoop { left, right, cond } => {
                let l = self.estimate(left);
                let r = self.estimate(right);
                let sel = if cond.is_empty() { 1.0 } else { 0.1f64.powi(cond.len() as i32) };
                let mut est = CostEstimate {
                    rows: l.rows * r.rows * sel,
                    seq_pages: 0.0,
                    rand_pages: 0.0,
                    cpu: l.rows * r.rows,
                    write_pages: 0.0,
                    mem_bytes: 0.0,
                };
                est.absorb(&l);
                est.absorb(&r);
                est
            }
            PlanNode::Project { input, .. } => {
                let i = self.estimate(input);
                CostEstimate { rows: i.rows, cpu: i.cpu + i.rows, ..i }
            }
            PlanNode::Aggregate { input, group, .. } => {
                let i = self.estimate(input);
                // Output rows bounded by input rows; assume ~1/10 of input
                // rows per grouping column as a coarse group-count guess.
                let rows = if group.is_empty() {
                    1.0
                } else {
                    (i.rows / 10.0_f64.powi(group.len() as i32)).clamp(1.0, i.rows)
                };
                CostEstimate { rows, cpu: i.cpu + i.rows, ..i }
            }
        }
    }

    /// `(rows, pages)` of a stored table (zero if unknown).
    pub fn table_size(&self, table: &str) -> (f64, f64) {
        match self.catalog.table(table) {
            Some(t) => (t.stats.rows as f64, t.stats.pages as f64),
            None => (0.0, 0.0),
        }
    }

    /// Pages of `table` whose retained zone maps already prove no row
    /// can pass `filters` — the pages a fused scan will skip decoding
    /// (`exec.pages_skipped`).
    ///
    /// Planning/observability metadata only: a skipped page still
    /// charges its read and per-row CPU (zone skipping elides wall-clock
    /// decode, not demand), so this deliberately does **not** feed the
    /// demand numbers [`Estimator::estimate`] returns — those stay
    /// faithful to what execution will charge. Only zones *confirmed* by
    /// deterministic readers count ([`SegCache::confirmed_zone_maps`]);
    /// asynchronous prefetch can never make two identical optimization
    /// passes disagree.
    ///
    /// [`SegCache::confirmed_zone_maps`]: specdb_storage::SegCache::confirmed_zone_maps
    pub fn zone_skippable_pages(&self, table: &str, filters: &[BoundPred]) -> u32 {
        if filters.is_empty() {
            return 0;
        }
        let Some(t) = self.catalog.table(table) else { return 0 };
        let cache = self.pool.seg_cache();
        let mut skippable = 0u32;
        for page_no in 0..t.heap.pages(self.pool) {
            let pid = PageId::new(t.heap.file, page_no);
            if let Some(zones) = cache.confirmed_zone_maps(pid) {
                if crate::batch::zones_exclude(&zones, filters) {
                    skippable += 1;
                }
            }
        }
        skippable
    }

    /// Join selectivity between two plan outputs on given key positions:
    /// resolve each key back to a stored column when the input is a scan,
    /// to use its distinct count; otherwise assume 1/10 of rows distinct.
    fn key_join_selectivity(&self, left: &Plan, lkey: usize, right: &Plan, rkey: usize) -> f64 {
        let d = |p: &Plan, key: usize| -> u64 {
            match &p.node {
                PlanNode::SeqScan { table, .. } | PlanNode::IndexScan { table, .. } => self
                    .catalog
                    .table(table)
                    .map(|t| t.stats.columns.get(key).map(|c| c.distinct).unwrap_or(1))
                    .unwrap_or(1),
                _ => (self.estimate(p).rows / 10.0).max(1.0) as u64,
            }
        };
        self.join_selectivity_from_distinct(d(left, lkey), d(right, rkey))
    }
}

/// Selectivity of `op value` from histogram `h`. With `within = Some((min,
/// max))` it is the share of the rows in `[min, max]` that pass,
/// `(F(x) − F(<min)) / (F(≤max) − F(<min))`, so a view that already
/// filters the column is not charged for that filter twice. `None` when
/// `h` puts no rows in the range.
fn histogram_selectivity(
    h: &Histogram,
    within: Option<(&Value, &Value)>,
    op: CompareOp,
    value: &Value,
) -> Option<f64> {
    let (below, mass, inside) = match within {
        None => (0.0, 1.0, true),
        Some((min, max)) => {
            let x = value.as_numeric();
            let below = h.fraction_lt(min);
            (below, h.fraction_le(max) - below, x >= min.as_numeric() && x <= max.as_numeric())
        }
    };
    if mass <= 0.0 {
        return None;
    }
    let share = |f: f64| (f - below) / mass;
    let eq = if inside { h.fraction_eq(value) / mass } else { 0.0 };
    let s = match op {
        CompareOp::Eq => eq,
        CompareOp::Ne => 1.0 - eq,
        CompareOp::Lt => share(h.fraction_lt(value)),
        CompareOp::Le => share(h.fraction_le(value)),
        CompareOp::Gt => 1.0 - share(h.fraction_le(value)),
        CompareOp::Ge => 1.0 - share(h.fraction_lt(value)),
    };
    Some(s.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdb_catalog::{ColumnDef, DataType, Schema, TableStats};
    use specdb_storage::heap::BulkLoader;
    use specdb_storage::{HeapFile, Tuple};

    fn fixture() -> (BufferPool, Catalog) {
        let mut pool = BufferPool::new(256);
        let mut cat = Catalog::new();
        let rows = (0..2000i64).map(|i| vec![Value::Int(i), Value::Int(i % 20)]);
        register(&mut pool, &mut cat, "t", &["id", "grp"], rows);
        (pool, cat)
    }

    /// Register `rows` as table `name` with Int columns `cols`.
    fn register(
        pool: &mut BufferPool,
        cat: &mut Catalog,
        name: &str,
        cols: &[&str],
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) {
        let heap = HeapFile::create(pool);
        let mut loader = BulkLoader::new();
        for r in rows {
            loader.push(&Tuple::new(r)).unwrap();
        }
        loader.finish(pool, heap).unwrap();
        let stats = TableStats::analyze(pool, heap, cols.len()).unwrap();
        let schema = Schema::new(cols.iter().map(|c| ColumnDef::new(*c, DataType::Int)).collect());
        cat.register(name, schema, heap, stats, name.starts_with("mv"));
    }

    #[test]
    fn stats_fallback_selectivity() {
        let (pool, cat) = fixture();
        let e = Estimator::new(&cat, &pool);
        // Equality on grp: 20 distinct → 0.05.
        let s = e.selectivity("t", "grp", CompareOp::Eq, &Value::Int(3));
        assert!((s - 0.05).abs() < 0.01, "{s}");
        // Range on id: interpolation.
        let s = e.selectivity("t", "id", CompareOp::Lt, &Value::Int(500));
        assert!((s - 0.25).abs() < 0.05, "{s}");
    }

    #[test]
    fn histogram_improves_estimates() {
        let (mut pool, mut cat) = fixture();
        cat.build_histogram(&mut pool, "t", "id").unwrap();
        let e = Estimator::new(&cat, &pool);
        let s = e.selectivity("t", "id", CompareOp::Lt, &Value::Int(500));
        assert!((s - 0.25).abs() < 0.02, "{s}");
    }

    #[test]
    fn seq_scan_estimate_matches_stats() {
        let (pool, cat) = fixture();
        let e = Estimator::new(&cat, &pool);
        let plan = Plan {
            node: PlanNode::SeqScan { table: "t".into(), filters: vec![] },
            cols: vec!["t.id".into(), "t.grp".into()],
        };
        let est = e.estimate(&plan);
        assert!((est.rows - 2000.0).abs() < 1.0);
        assert_eq!(est.seq_pages, cat.table("t").unwrap().stats.pages as f64);
    }

    #[test]
    fn index_scan_cheaper_when_selective() {
        // A 9-page table legitimately favours a sequential scan even for
        // point lookups (1-2 random I/Os ≈ 16 ms vs 5 ms of scanning), so
        // this test uses a table large enough for the index to matter.
        let mut pool = BufferPool::new(2048);
        let mut cat = Catalog::new();
        let rows = (0..50_000i64).map(|i| vec![Value::Int(i), Value::Int(i % 20)]);
        register(&mut pool, &mut cat, "t", &["id", "grp"], rows);
        cat.build_index(&mut pool, "t", "id").unwrap();
        let e = Estimator::new(&cat, &pool);
        // Point lookup: one matched row. Random reads cost ~20× a
        // sequential page, so equality is where the index clearly wins
        // even on this small table.
        let seq = Plan {
            node: PlanNode::SeqScan {
                table: "t".into(),
                filters: vec![BoundPred { idx: 0, op: CompareOp::Eq, value: Value::Int(10) }],
            },
            cols: vec!["t.id".into(), "t.grp".into()],
        };
        let idx = Plan {
            node: PlanNode::IndexScan {
                table: "t".into(),
                column: "id".into(),
                lo: Bound::Included(Value::Int(10)),
                hi: Bound::Included(Value::Int(10)),
                filters: vec![],
            },
            cols: vec!["t.id".into(), "t.grp".into()],
        };
        let disk = DiskModel::default();
        let t_seq = e.estimate(&seq).time(&disk);
        let t_idx = e.estimate(&idx).time(&disk);
        assert!(t_idx < t_seq, "index {t_idx} should beat seq {t_seq} for a point lookup");
    }

    #[test]
    fn unknown_table_estimates_zero() {
        let (pool, cat) = fixture();
        let e = Estimator::new(&cat, &pool);
        assert_eq!(e.table_size("nope"), (0.0, 0.0));
        assert_eq!(e.selectivity("nope", "x", CompareOp::Eq, &Value::Int(1)), 0.33);
    }

    #[test]
    fn zone_skippable_pages_counts_confirmed_exclusions() {
        let (pool, cat) = fixture();
        let e = Estimator::new(&cat, &pool);
        let filters = vec![BoundPred { idx: 0, op: CompareOp::Lt, value: Value::Int(100) }];
        // Cold cache: no confirmed zones, so nothing is provably skippable.
        assert_eq!(e.zone_skippable_pages("t", &filters), 0);
        // Warm and confirm zones the way a scan would.
        let heap = cat.table("t").unwrap().heap;
        let cache = pool.seg_cache();
        let pages = heap.pages(&pool);
        for page_no in 0..pages {
            let pid = PageId::new(heap.file, page_no);
            let page = pool.peek_page(pid).unwrap();
            cache.get_or_decode(pid, &page).unwrap();
        }
        // id is sorted 0..2000, so only the first page can hold id < 100.
        assert_eq!(e.zone_skippable_pages("t", &filters), pages - 1);
        assert_eq!(e.zone_skippable_pages("t", &[]), 0);
        assert_eq!(e.zone_skippable_pages("nope", &filters), 0);
    }

    #[test]
    fn min_max_fallback_gives_the_boundary_value_its_share() {
        let (pool, cat) = fixture();
        let e = Estimator::new(&cat, &pool);
        // grp holds 0..=19, 20 distinct values of 100 rows each.
        let sel = |op, v: i64| e.selectivity("t", "grp", op, &Value::Int(v));
        let close = |got: f64, want: f64| assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        use CompareOp::*;
        // At min.
        close(sel(Lt, 0), 0.0);
        close(sel(Le, 0), 0.05);
        close(sel(Gt, 0), 0.95);
        close(sel(Ge, 0), 1.0);
        // At max.
        close(sel(Lt, 19), 0.95);
        close(sel(Le, 19), 1.0);
        close(sel(Gt, 19), 0.0);
        close(sel(Ge, 19), 0.05);
        // Inside: `<=` and `>=` add the point's share.
        close(sel(Le, 10) - sel(Lt, 10), 0.05);
        close(sel(Ge, 10) - sel(Gt, 10), 0.05);
        // Outside the range, below and above.
        for op in [Lt, Le] {
            close(sel(op, -5), 0.0);
            close(sel(op, 100), 1.0);
        }
        for op in [Gt, Ge] {
            close(sel(op, -5), 1.0);
            close(sel(op, 100), 0.0);
        }
    }

    #[test]
    fn eq_index_scan_matches_at_least_one_row() {
        let (pool, cat) = fixture();
        let e = Estimator::new(&cat, &pool);
        for id in [0, 7, 1999] {
            let plan = Plan {
                node: PlanNode::IndexScan {
                    table: "t".into(),
                    column: "id".into(),
                    lo: Bound::Included(Value::Int(id)),
                    hi: Bound::Included(Value::Int(id)),
                    filters: vec![],
                },
                cols: vec!["t.id".into(), "t.grp".into()],
            };
            let rows = e.estimate(&plan).rows;
            assert!(rows > 1.0 - 1e-9, "id = {id} estimated at {rows} rows");
        }
    }

    /// Base table `b(k)` whose value `k` in 0..20 appears `10 (k + 1)`
    /// times (a histogram on `k`), and two views over it: `mv_all` copies
    /// every row, `mv_hi` only those with `k >= 10`.
    fn view_fixture() -> (BufferPool, Catalog) {
        let mut pool = BufferPool::new(256);
        let mut cat = Catalog::new();
        let ks: Vec<i64> =
            (0..20i64).flat_map(|k| std::iter::repeat_n(k, 10 * (k as usize + 1))).collect();
        let rows = |keep: fn(i64) -> bool| -> Vec<Vec<Value>> {
            ks.iter().filter(|&&k| keep(k)).map(|&k| vec![Value::Int(k)]).collect()
        };
        register(&mut pool, &mut cat, "b", &["k"], rows(|_| true));
        cat.build_histogram(&mut pool, "b", "k").unwrap();
        register(&mut pool, &mut cat, "mv_all", &["b.k"], rows(|_| true));
        register(&mut pool, &mut cat, "mv_hi", &["b.k"], rows(|k| k >= 10));
        (pool, cat)
    }

    #[test]
    fn view_column_borrows_the_base_histogram() {
        let (pool, cat) = view_fixture();
        let e = Estimator::new(&cat, &pool);
        let h = cat.histogram("b", "k").unwrap();
        let v = Value::Int(4);
        // Over the base column's full range the view reads the base
        // histogram's fractions as they are.
        for (op, want) in [
            (CompareOp::Le, h.fraction_le(&v)),
            (CompareOp::Lt, h.fraction_lt(&v)),
            (CompareOp::Gt, 1.0 - h.fraction_le(&v)),
            (CompareOp::Eq, h.fraction_eq(&v)),
        ] {
            let got = e.selectivity("mv_all", "b.k", op, &v);
            assert!((got - want).abs() < 1e-9, "{op:?}: {got} vs {want}");
        }
        // The true share of k <= 4 is 150 / 2100; the min/max fallback
        // would say ~0.25.
        let got = e.selectivity("mv_all", "b.k", CompareOp::Le, &v);
        assert!((got - 150.0 / 2100.0).abs() < 0.02, "{got}");
    }

    #[test]
    fn borrowed_histogram_is_conditioned_on_the_view_range() {
        let (pool, cat) = view_fixture();
        let e = Estimator::new(&cat, &pool);
        let h = cat.histogram("b", "k").unwrap();
        let (lo, hi, v) = (Value::Int(10), Value::Int(19), Value::Int(14));
        let mass = h.fraction_le(&hi) - h.fraction_lt(&lo);
        let want = (h.fraction_le(&v) - h.fraction_lt(&lo)) / mass;
        let got = e.selectivity("mv_hi", "b.k", CompareOp::Le, &v);
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        // True share inside the view: (11 + .. + 15) / (11 + .. + 20).
        assert!((got - 65.0 / 155.0).abs() < 0.05, "{got}");
        // The view's own filter is not counted again.
        assert!((e.selectivity("mv_hi", "b.k", CompareOp::Ge, &lo) - 1.0).abs() < 1e-9);
        assert_eq!(e.selectivity("mv_hi", "b.k", CompareOp::Lt, &lo), 0.0);
        assert_eq!(e.selectivity("mv_hi", "b.k", CompareOp::Eq, &Value::Int(3)), 0.0);
        let eq = e.selectivity("mv_hi", "b.k", CompareOp::Eq, &v);
        assert!((eq - h.fraction_eq(&v) / mass).abs() < 1e-9, "{eq}");
    }

    #[test]
    fn estimate_clamps_selectivity() {
        let (pool, cat) = fixture();
        let e = Estimator::new(&cat, &pool);
        // Out-of-range constant: Lt far below min → ~0.
        let s = e.selectivity("t", "id", CompareOp::Lt, &Value::Int(-1000));
        assert!(s <= 0.001);
        let s = e.selectivity("t", "id", CompareOp::Ge, &Value::Int(-1000));
        assert!(s >= 0.999);
    }
}
