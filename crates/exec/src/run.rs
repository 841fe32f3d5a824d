//! Push-based plan execution.
//!
//! Plans execute by driving tuples into a callback, which keeps the
//! memory footprint bounded by the pipeline-breaking operators (hash
//! join builds, nested-loop materializations) rather than whole result
//! sets. CPU work is charged to the buffer pool's counters (one unit per
//! tuple touched) so the virtual-time disk model can include it, and
//! cancellation is checked once per page/batch of work.

use crate::context::ExecCtx;
use crate::error::{ExecError, ExecResult};
use crate::plan::{BoundPred, Plan, PlanNode};
use specdb_catalog::Catalog;
use specdb_query::AggFunc;
use specdb_storage::{
    AccessKind, BufferPool, PageId, Tuple, TupleId, Value, ValueBuildHasher, ValueMap,
};
use std::collections::HashMap;
use std::ops::Bound;

/// Execute a plan, invoking `out` for every result tuple.
pub fn run(
    plan: &Plan,
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(Tuple) -> ExecResult<()>,
) -> ExecResult<()> {
    match &plan.node {
        PlanNode::SeqScan { table, filters } => seq_scan(table, filters, catalog, ctx, out),
        PlanNode::IndexScan { table, column, lo, hi, filters } => {
            index_scan(table, column, lo, hi, filters, catalog, ctx, out)
        }
        PlanNode::HashJoin { left, right, lkey, rkey, residual } => {
            hash_join(left, right, *lkey, *rkey, residual, catalog, ctx, out)
        }
        PlanNode::IndexNLJoin {
            outer,
            inner_table,
            inner_column,
            okey,
            inner_filters,
            residual,
        } => index_nl_join(
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
            nested_loop(left, right, cond, catalog, ctx, out)
        }
        PlanNode::Project { input, keep } => {
            run(input, catalog, ctx, &mut |t| out(t.project(keep)))
        }
        PlanNode::Aggregate { input, group, aggs } => {
            aggregate(input, group, aggs, catalog, ctx, out)
        }
    }
}

/// Aggregate groups: group key → one accumulator per aggregate. Never
/// iterated for output without sorting by key first.
pub(crate) type Groups = HashMap<Vec<Value>, Vec<Acc>, ValueBuildHasher>;

/// Accumulator state for one aggregate function (shared with the batch
/// executor so both paths aggregate identically).
#[derive(Clone)]
pub(crate) enum Acc {
    Count(u64),
    Sum(f64, bool),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg(f64, u64),
}

impl Acc {
    pub(crate) fn new(f: AggFunc) -> Acc {
        match f {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(0.0, false),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg(0.0, 0),
        }
    }

    /// Feed one input value (`None` = COUNT(*) semantics: count the row).
    pub(crate) fn feed(&mut self, v: Option<&Value>) {
        match (self, v) {
            (Acc::Count(n), None) => *n += 1,
            (Acc::Count(n), Some(v)) if !v.is_null() => *n += 1,
            (Acc::Count(_), _) => {}
            (Acc::Sum(s, seen), Some(v)) if !v.is_null() => {
                *s += v.as_numeric();
                *seen = true;
            }
            (Acc::Min(m), Some(v)) if !v.is_null() => match m {
                Some(cur) if &*cur <= v => {}
                _ => *m = Some(v.clone()),
            },
            (Acc::Max(m), Some(v)) if !v.is_null() => match m {
                Some(cur) if &*cur >= v => {}
                _ => *m = Some(v.clone()),
            },
            (Acc::Avg(s, n), Some(v)) if !v.is_null() => {
                *s += v.as_numeric();
                *n += 1;
            }
            _ => {}
        }
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n as i64),
            Acc::Sum(s, true) => Value::Float(s),
            Acc::Sum(_, false) => Value::Null,
            Acc::Min(m) => m.unwrap_or(Value::Null),
            Acc::Max(m) => m.unwrap_or(Value::Null),
            Acc::Avg(_, 0) => Value::Null,
            Acc::Avg(s, n) => Value::Float(s / n as f64),
        }
    }
}

fn aggregate(
    input: &Plan,
    group: &[usize],
    aggs: &[(AggFunc, Option<usize>)],
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(Tuple) -> ExecResult<()>,
) -> ExecResult<()> {
    let mut groups = Groups::default();
    let mut input_rows: u64 = 0;
    run(input, catalog, ctx, &mut |t| {
        input_rows += 1;
        let key: Vec<Value> = group.iter().map(|&i| t.get(i).clone()).collect();
        let accs = groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|&(f, _)| Acc::new(f)).collect());
        for (acc, &(_, pos)) in accs.iter_mut().zip(aggs) {
            acc.feed(pos.map(|i| t.get(i)));
        }
        Ok(())
    })?;
    ctx.pool.charge_cpu(input_rows);
    // SQL convention: with no GROUP BY, an empty input still yields one
    // row of "empty" aggregates (count = 0).
    if groups.is_empty() && group.is_empty() {
        groups.insert(Vec::new(), aggs.iter().map(|&(f, _)| Acc::new(f)).collect());
    }
    // Deterministic output order: sort by group key.
    let mut rows: Vec<(Vec<Value>, Vec<Acc>)> = groups.into_iter().collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    for (mut key, accs) in rows {
        key.extend(accs.into_iter().map(Acc::finish));
        out(Tuple::new(key))?;
    }
    Ok(())
}

/// Execute a plan and collect all results (convenience wrapper).
pub fn run_collect(
    plan: &Plan,
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
) -> ExecResult<Vec<Tuple>> {
    let mut rows = Vec::new();
    run(plan, catalog, ctx, &mut |t| {
        rows.push(t);
        Ok(())
    })?;
    Ok(rows)
}

fn apply_filters(t: &Tuple, filters: &[BoundPred]) -> bool {
    filters.iter().all(|f| f.matches(t))
}

fn seq_scan(
    table: &str,
    filters: &[BoundPred],
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(Tuple) -> ExecResult<()>,
) -> ExecResult<()> {
    let t = catalog.table(table).ok_or_else(|| ExecError::UnknownTable(table.into()))?;
    let heap = t.heap;
    for page_no in 0..heap.pages(ctx.pool) {
        ctx.cancel.check()?;
        let tuples = heap.read_page(ctx.pool, page_no)?;
        ctx.pool.charge_cpu(tuples.len() as u64);
        for tuple in tuples {
            if apply_filters(&tuple, filters) {
                out(tuple)?;
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn index_scan(
    table: &str,
    column: &str,
    lo: &Bound<Value>,
    hi: &Bound<Value>,
    filters: &[BoundPred],
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(Tuple) -> ExecResult<()>,
) -> ExecResult<()> {
    let _t = catalog.table(table).ok_or_else(|| ExecError::UnknownTable(table.into()))?;
    let index = catalog.index(table, column).ok_or_else(|| ExecError::UnknownColumn {
        rel: table.into(),
        column: format!("{column} (no index)"),
    })?;
    ctx.cancel.check()?;
    let rids = index.lookup(ctx.pool, as_ref_bound(lo), as_ref_bound(hi))?;
    ctx.pool.charge_cpu(rids.len() as u64);
    for (pid, slots) in rids_by_page(rids) {
        ctx.cancel.check()?;
        let page = ctx.pool.read_page(pid, AccessKind::Random)?;
        ctx.pool.charge_cpu(slots.len() as u64);
        for slot in slots {
            if let Some(bytes) = page.get(slot as usize)? {
                let tuple = Tuple::decode(bytes)?;
                if apply_filters(&tuple, filters) {
                    out(tuple)?;
                }
            }
        }
    }
    Ok(())
}

/// Sort `rids` and group their slots by page, so one (random) page
/// access serves every slot of a page instead of re-reading it per rid.
pub(crate) fn rids_by_page(mut rids: Vec<TupleId>) -> Vec<(PageId, Vec<u16>)> {
    rids.sort();
    let mut by_page: Vec<(PageId, Vec<u16>)> = Vec::new();
    for rid in rids {
        match by_page.last_mut() {
            Some((pid, slots)) if *pid == rid.page => slots.push(rid.slot),
            _ => by_page.push((rid.page, vec![rid.slot])),
        }
    }
    by_page
}

/// Hybrid hash-join spill model: when the build side exceeds the buffer
/// pool, the overflow fraction `f = 1 − pool/build` of *both* inputs is
/// partitioned to scratch files and read back. Zero when the build fits
/// or the pool does not model spilling. Both executors and the estimator
/// price the spill with this one formula (`f64` comparison is exact for
/// byte counts below 2⁵³).
pub(crate) fn spill_fraction(pool: &BufferPool, build_bytes: f64) -> f64 {
    let pool_bytes = (pool.capacity() * specdb_storage::PAGE_SIZE) as f64;
    if pool.spill_model() && build_bytes > pool_bytes {
        1.0 - pool_bytes / build_bytes
    } else {
        0.0
    }
}

/// Charge the spilled `fraction` of `bytes` (build plus probe input) as
/// one write and one read pass over scratch pages. The in-memory
/// execution is unaffected; only the virtual clock pays the I/O.
pub(crate) fn charge_spill(pool: &mut BufferPool, fraction: f64, bytes: u64) {
    if fraction > 0.0 {
        let pages = (fraction * bytes as f64 / specdb_storage::PAGE_SIZE as f64).ceil() as u64;
        pool.charge_io(pages, pages);
    }
}

pub(crate) fn as_ref_bound(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
        Bound::Unbounded => Bound::Unbounded,
    }
}

#[allow(clippy::too_many_arguments)]
fn hash_join(
    left: &Plan,
    right: &Plan,
    lkey: usize,
    rkey: usize,
    residual: &[(usize, usize)],
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(Tuple) -> ExecResult<()>,
) -> ExecResult<()> {
    // Build phase: materialize the left input into a hash table.
    let mut table: ValueMap<Vec<Tuple>> = ValueMap::default();
    let mut build_bytes: u64 = 0;
    run(left, catalog, ctx, &mut |t| {
        let key = t.get(lkey).clone();
        if !key.is_null() {
            build_bytes += t.encoded_len() as u64;
            table.entry(key).or_default().push(t);
        }
        Ok(())
    })?;
    ctx.pool.charge_cpu(table.values().map(|v| v.len() as u64).sum());
    // The build side is a pipeline breaker held wholly in memory; charge
    // its footprint so the cost model and metrics see it. The disk model
    // assigns no time to memory, so virtual durations are unchanged.
    ctx.pool.charge_mem(build_bytes);
    let spill = spill_fraction(ctx.pool, build_bytes as f64);
    let mut probe_bytes: u64 = 0;
    // Probe phase.
    let lwidth = left.cols.len();
    run(right, catalog, ctx, &mut |r| {
        probe_bytes += r.encoded_len() as u64;
        let key = r.get(rkey);
        if key.is_null() {
            return Ok(());
        }
        if let Some(matches) = table.get(key) {
            for l in matches {
                let pass = residual.iter().all(|&(li, ri)| {
                    debug_assert!(li < lwidth);
                    l.get(li) == r.get(ri) && !l.get(li).is_null()
                });
                if pass {
                    out(l.concat(&r))?;
                }
            }
        }
        Ok(())
    })?;
    charge_spill(ctx.pool, spill, build_bytes + probe_bytes);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn index_nl_join(
    outer: &Plan,
    inner_table: &str,
    inner_column: &str,
    okey: usize,
    inner_filters: &[BoundPred],
    residual: &[(usize, usize)],
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(Tuple) -> ExecResult<()>,
) -> ExecResult<()> {
    let inner = catalog
        .table(inner_table)
        .ok_or_else(|| ExecError::UnknownTable(inner_table.into()))?;
    let heap = inner.heap;
    // The outer side is materialized first: the index probes borrow the
    // pool mutably, so streaming both sides at once is not possible.
    let outer_rows = run_collect(outer, catalog, ctx)?;
    let index =
        catalog
            .index(inner_table, inner_column)
            .ok_or_else(|| ExecError::UnknownColumn {
                rel: inner_table.into(),
                column: format!("{inner_column} (no index)"),
            })?;
    for o in &outer_rows {
        ctx.cancel.check()?;
        let key = o.get(okey);
        if key.is_null() {
            continue;
        }
        let rids = index.lookup_eq(ctx.pool, key)?;
        ctx.pool.charge_cpu(1 + rids.len() as u64);
        for rid in rids {
            let inner_tuple = heap.get(ctx.pool, rid)?;
            if !apply_filters(&inner_tuple, inner_filters) {
                continue;
            }
            let pass = residual
                .iter()
                .all(|&(oi, ii)| o.get(oi) == inner_tuple.get(ii) && !o.get(oi).is_null());
            if pass {
                out(o.concat(&inner_tuple))?;
            }
        }
    }
    Ok(())
}

fn nested_loop(
    left: &Plan,
    right: &Plan,
    cond: &[(usize, usize)],
    catalog: &Catalog,
    ctx: &mut ExecCtx<'_>,
    out: &mut dyn FnMut(Tuple) -> ExecResult<()>,
) -> ExecResult<()> {
    let left_rows = run_collect(left, catalog, ctx)?;
    let mut right_count: u64 = 0;
    run(right, catalog, ctx, &mut |r| {
        right_count += 1;
        for l in &left_rows {
            let pass = cond.iter().all(|&(li, ri)| l.get(li) == r.get(ri) && !l.get(li).is_null());
            if pass {
                out(l.concat(&r))?;
            }
        }
        Ok(())
    })?;
    // The pool is exclusively borrowed while the right side streams, so
    // the pairwise comparison CPU is charged once afterwards.
    ctx.pool.charge_cpu(right_count.saturating_mul(left_rows.len() as u64));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CancelToken;
    use specdb_catalog::{ColumnDef, DataType, Schema, TableStats};
    use specdb_query::CompareOp;
    use specdb_storage::heap::BulkLoader;
    use specdb_storage::{BufferPool, HeapFile};

    /// Build a catalog with two joinable tables:
    /// emp(id, dept, age), dept(id, name).
    fn fixture() -> (BufferPool, Catalog) {
        let mut pool = BufferPool::new(512);
        let mut cat = Catalog::new();
        let emp_heap = HeapFile::create(&mut pool);
        let mut loader = BulkLoader::new();
        for i in 0..1000i64 {
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
            false,
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
            false,
        );
        (pool, cat)
    }

    fn scan(table: &str, cols: &[&str], filters: Vec<BoundPred>) -> Plan {
        Plan {
            node: PlanNode::SeqScan { table: table.into(), filters },
            cols: cols.iter().map(|c| c.to_string()).collect(),
        }
    }

    #[test]
    fn seq_scan_with_filter() {
        let (mut pool, cat) = fixture();
        let plan = scan(
            "emp",
            &["emp.id", "emp.dept", "emp.age"],
            vec![BoundPred { idx: 2, op: CompareOp::Lt, value: Value::Int(25) }],
        );
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect(&plan, &cat, &mut ctx).unwrap();
        // ages cycle 20..69; ages 20-24 → 5 of every 50 → 100 rows.
        assert_eq!(rows.len(), 100);
        assert!(rows.iter().all(|r| matches!(r.get(2), Value::Int(a) if *a < 25)));
    }

    #[test]
    fn index_scan_range() {
        let (mut pool, mut cat) = fixture();
        cat.build_index(&mut pool, "emp", "age").unwrap();
        let plan = Plan {
            node: PlanNode::IndexScan {
                table: "emp".into(),
                column: "age".into(),
                lo: Bound::Included(Value::Int(20)),
                hi: Bound::Excluded(Value::Int(25)),
                filters: vec![],
            },
            cols: vec!["emp.id".into(), "emp.dept".into(), "emp.age".into()],
        };
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect(&plan, &cat, &mut ctx).unwrap();
        assert_eq!(rows.len(), 100);
    }

    #[test]
    fn seq_and_index_scan_agree() {
        let (mut pool, mut cat) = fixture();
        cat.build_index(&mut pool, "emp", "age").unwrap();
        let seq = scan(
            "emp",
            &["emp.id", "emp.dept", "emp.age"],
            vec![BoundPred { idx: 2, op: CompareOp::Ge, value: Value::Int(60) }],
        );
        let idx = Plan {
            node: PlanNode::IndexScan {
                table: "emp".into(),
                column: "age".into(),
                lo: Bound::Included(Value::Int(60)),
                hi: Bound::Unbounded,
                filters: vec![],
            },
            cols: seq.cols.clone(),
        };
        let mut ctx = ExecCtx::new(&mut pool);
        let mut a = run_collect(&seq, &cat, &mut ctx).unwrap();
        let mut b = run_collect(&idx, &cat, &mut ctx).unwrap();
        let key = |t: &Tuple| format!("{:?}", t.values());
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn hash_join_produces_all_matches() {
        let (mut pool, cat) = fixture();
        let left = scan("dept", &["dept.id", "dept.name"], vec![]);
        let right = scan("emp", &["emp.id", "emp.dept", "emp.age"], vec![]);
        let join = Plan {
            cols: vec![
                "dept.id".into(),
                "dept.name".into(),
                "emp.id".into(),
                "emp.dept".into(),
                "emp.age".into(),
            ],
            node: PlanNode::HashJoin {
                left: Box::new(left),
                right: Box::new(right),
                lkey: 0,
                rkey: 1,
                residual: vec![],
            },
        };
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect(&join, &cat, &mut ctx).unwrap();
        assert_eq!(rows.len(), 1000, "every emp matches exactly one dept");
        assert!(rows.iter().all(|r| r.get(0) == r.get(3)));
    }

    #[test]
    fn index_nl_join_matches_hash_join() {
        let (mut pool, mut cat) = fixture();
        cat.build_index(&mut pool, "dept", "id").unwrap();
        let outer = scan(
            "emp",
            &["emp.id", "emp.dept", "emp.age"],
            vec![BoundPred { idx: 0, op: CompareOp::Lt, value: Value::Int(50) }],
        );
        let join = Plan {
            cols: vec![
                "emp.id".into(),
                "emp.dept".into(),
                "emp.age".into(),
                "dept.id".into(),
                "dept.name".into(),
            ],
            node: PlanNode::IndexNLJoin {
                outer: Box::new(outer),
                inner_table: "dept".into(),
                inner_column: "id".into(),
                okey: 1,
                inner_filters: vec![],
                residual: vec![],
            },
        };
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect(&join, &cat, &mut ctx).unwrap();
        assert_eq!(rows.len(), 50);
        assert!(rows.iter().all(|r| r.get(1) == r.get(3)));
    }

    #[test]
    fn cartesian_nested_loop() {
        let (mut pool, cat) = fixture();
        let left = scan("dept", &["dept.id", "dept.name"], vec![]);
        let right = scan(
            "dept",
            &["d2.id", "d2.name"],
            vec![BoundPred { idx: 0, op: CompareOp::Lt, value: Value::Int(3) }],
        );
        let nl = Plan {
            cols: vec!["dept.id".into(), "dept.name".into(), "d2.id".into(), "d2.name".into()],
            node: PlanNode::NestedLoop {
                left: Box::new(left),
                right: Box::new(right),
                cond: vec![],
            },
        };
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect(&nl, &cat, &mut ctx).unwrap();
        assert_eq!(rows.len(), 30);
    }

    #[test]
    fn project_keeps_positions() {
        let (mut pool, cat) = fixture();
        let inner = scan("dept", &["dept.id", "dept.name"], vec![]);
        let plan = Plan {
            cols: vec!["dept.name".into()],
            node: PlanNode::Project { input: Box::new(inner), keep: vec![1] },
        };
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect(&plan, &cat, &mut ctx).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r.arity() == 1 && matches!(r.get(0), Value::Str(_))));
    }

    #[test]
    fn cancellation_aborts_scan() {
        let (mut pool, cat) = fixture();
        let plan = scan("emp", &["emp.id", "emp.dept", "emp.age"], vec![]);
        let token = CancelToken::new();
        token.cancel();
        let mut ctx = ExecCtx::with_cancel(&mut pool, token);
        let err = run_collect(&plan, &cat, &mut ctx).unwrap_err();
        assert!(err.is_cancelled());
    }

    #[test]
    fn unknown_table_errors() {
        let (mut pool, cat) = fixture();
        let plan = scan("ghost", &["ghost.x"], vec![]);
        let mut ctx = ExecCtx::new(&mut pool);
        assert!(matches!(run_collect(&plan, &cat, &mut ctx), Err(ExecError::UnknownTable(_))));
    }

    #[test]
    fn hash_join_residual_filters() {
        // Self-join emp with itself on dept, residual on id=id → only
        // identical rows survive.
        let (mut pool, cat) = fixture();
        let l = scan("emp", &["l.id", "l.dept", "l.age"], vec![]);
        let r = scan("emp", &["r.id", "r.dept", "r.age"], vec![]);
        let join = Plan {
            cols: vec![
                "l.id".into(),
                "l.dept".into(),
                "l.age".into(),
                "r.id".into(),
                "r.dept".into(),
                "r.age".into(),
            ],
            node: PlanNode::HashJoin {
                left: Box::new(l),
                right: Box::new(r),
                lkey: 1,
                rkey: 1,
                residual: vec![(0, 0)],
            },
        };
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect(&join, &cat, &mut ctx).unwrap();
        assert_eq!(rows.len(), 1000, "residual id=id keeps exactly the diagonal");
    }

    #[test]
    fn hash_join_spill_charged_when_build_exceeds_pool() {
        // Tiny pool (2 pages): the 1000-row emp build side must spill.
        let (big_pool, cat) = fixture();
        drop(big_pool);
        let mut pool = BufferPool::new(2);
        // Rebuild data in the tiny pool via a fresh fixture-like load.
        let mut cat2 = Catalog::new();
        let heap = HeapFile::create(&mut pool);
        let mut loader = BulkLoader::new();
        for i in 0..5000i64 {
            loader.push(&Tuple::new(vec![Value::Int(i), Value::Int(i % 10)])).unwrap();
        }
        loader.finish(&mut pool, heap).unwrap();
        let stats = TableStats::analyze(&mut pool, heap, 2).unwrap();
        cat2.register(
            "big",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("grp", DataType::Int),
            ]),
            heap,
            stats,
            false,
        );
        let l = scan("big", &["l.id", "l.grp"], vec![]);
        let r = scan("big", &["r.id", "r.grp"], vec![]);
        let join = Plan {
            cols: vec!["l.id".into(), "l.grp".into(), "r.id".into(), "r.grp".into()],
            node: PlanNode::HashJoin {
                left: Box::new(l),
                right: Box::new(r),
                lkey: 0,
                rkey: 0,
                residual: vec![],
            },
        };
        pool.clear();
        let before = pool.snapshot();
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect(&join, &cat2, &mut ctx).unwrap();
        assert_eq!(rows.len(), 5000);
        let d = pool.demand_since(before);
        assert!(d.writes > 0, "spill must charge writes: {d:?}");
        assert!(
            d.seq_reads > heap.pages(&pool) as u64 * 2,
            "spill must charge extra read pass: {d:?}"
        );
        let _ = cat;
    }

    #[test]
    fn null_keys_never_join() {
        let mut pool = BufferPool::new(64);
        let mut cat = Catalog::new();
        let heap = HeapFile::create(&mut pool);
        let mut loader = BulkLoader::new();
        loader.push(&Tuple::new(vec![Value::Null])).unwrap();
        loader.push(&Tuple::new(vec![Value::Int(1)])).unwrap();
        loader.finish(&mut pool, heap).unwrap();
        let stats = TableStats::analyze(&mut pool, heap, 1).unwrap();
        cat.register(
            "n",
            Schema::new(vec![ColumnDef::new("k", DataType::Int)]),
            heap,
            stats,
            false,
        );
        let l = scan("n", &["l.k"], vec![]);
        let r = scan("n", &["r.k"], vec![]);
        let join = Plan {
            cols: vec!["l.k".into(), "r.k".into()],
            node: PlanNode::HashJoin {
                left: Box::new(l),
                right: Box::new(r),
                lkey: 0,
                rkey: 0,
                residual: vec![],
            },
        };
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect(&join, &cat, &mut ctx).unwrap();
        assert_eq!(rows.len(), 1, "null keys must not match null keys");
    }
}
