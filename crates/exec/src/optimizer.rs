//! Cost-based plan construction.
//!
//! A deliberately compact System-R-flavoured optimizer sized to the
//! paper's workload (≤ 6-way joins over the TPC-H subset):
//!
//! * **access paths** — for every relation, a sequential scan with
//!   pushed-down filters competes against one index scan per indexed,
//!   range-usable predicate; the estimated-cheapest wins,
//! * **join order** — greedy: start from the smallest estimated input,
//!   repeatedly attach the join edge that minimizes the estimated result,
//! * **join method** — hash join (smaller side builds) competes against
//!   an index nested-loop join when the inner is a stored table with an
//!   index on the join column,
//! * disconnected graph components are combined with cartesian products
//!   (partial queries are often disconnected mid-formulation).

use crate::error::{ExecError, ExecResult};
use crate::estimate::Estimator;
use crate::plan::{BoundPred, Plan, PlanNode};
use specdb_catalog::Catalog;
use specdb_query::{CompareOp, Join, Query, QueryGraph, Selection};
use specdb_storage::{BufferPool, DiskModel, Value, VirtualTime};
use std::collections::BTreeSet;
use std::ops::Bound;

/// Qualified column name: view columns are already dotted, base columns
/// get their relation prefix.
pub fn qualify(rel: &str, col: &str) -> String {
    if col.contains('.') {
        col.to_string()
    } else {
        format!("{rel}.{col}")
    }
}

/// Build the cheapest estimated plan for a query under the current
/// catalog (tables, indexes, histograms — materialized views are handled
/// a level up, in [`crate::rewrite`]).
pub fn plan_query(
    catalog: &Catalog,
    pool: &BufferPool,
    disk: &DiskModel,
    query: &Query,
) -> ExecResult<Plan> {
    if query.graph.is_empty() {
        return Err(ExecError::EmptyQuery);
    }
    let est = Estimator::new(catalog, pool);
    let mut comp_plans: Vec<Plan> = query
        .graph
        .connected_components()
        .iter()
        .map(|c| plan_component(catalog, &est, disk, c))
        .collect::<ExecResult<Vec<_>>>()?;
    // Combine disconnected components: smallest estimated output first,
    // folded into left-deep cartesian products. Estimate once per plan,
    // not once per comparison.
    let mut keyed: Vec<(f64, Plan)> =
        comp_plans.drain(..).map(|p| (est.estimate(&p).rows, p)).collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut iter = keyed.into_iter().map(|(_, p)| p);
    let mut plan = iter.next().expect("nonempty graph yields at least one component");
    for right in iter {
        let mut cols = plan.cols.clone();
        cols.extend(right.cols.iter().cloned());
        plan = Plan {
            node: PlanNode::NestedLoop {
                left: Box::new(plan),
                right: Box::new(right),
                cond: vec![],
            },
            cols,
        };
    }
    // Aggregate layer (mutually exclusive with a projection list: the
    // SQL front end produces one or the other).
    if let Some(agg) = &query.agg {
        let mut group = Vec::with_capacity(agg.group_by.len());
        let mut cols = Vec::new();
        for (rel, col) in &agg.group_by {
            let q = qualify(rel, col);
            let idx = plan.col_index(&q).ok_or_else(|| ExecError::UnknownColumn {
                rel: rel.clone(),
                column: col.clone(),
            })?;
            group.push(idx);
            cols.push(q);
        }
        let mut aggs = Vec::with_capacity(agg.aggs.len());
        for a in &agg.aggs {
            let pos = match &a.arg {
                None => None,
                Some((rel, col)) => {
                    let q = qualify(rel, col);
                    Some(plan.col_index(&q).ok_or_else(|| ExecError::UnknownColumn {
                        rel: rel.clone(),
                        column: col.clone(),
                    })?)
                }
            };
            cols.push(format!("{a}"));
            aggs.push((a.func, pos));
        }
        return Ok(Plan { node: PlanNode::Aggregate { input: Box::new(plan), group, aggs }, cols });
    }
    // Projection.
    if !query.projections.is_empty() {
        let mut keep = Vec::with_capacity(query.projections.len());
        let mut cols = Vec::with_capacity(query.projections.len());
        for (rel, col) in &query.projections {
            let q = qualify(rel, col);
            let idx = plan.col_index(&q).ok_or_else(|| ExecError::UnknownColumn {
                rel: rel.clone(),
                column: col.clone(),
            })?;
            keep.push(idx);
            cols.push(q);
        }
        plan = Plan { node: PlanNode::Project { input: Box::new(plan), keep }, cols };
    }
    Ok(plan)
}

fn plan_component(
    catalog: &Catalog,
    est: &Estimator<'_>,
    disk: &DiskModel,
    graph: &QueryGraph,
) -> ExecResult<Plan> {
    let rels: Vec<&str> = graph.relations().collect();
    // Best access path per relation.
    let mut access: Vec<(String, Plan)> = rels
        .iter()
        .map(|&r| {
            let sels: Vec<&Selection> = graph.selections_on(r).collect();
            Ok((r.to_string(), access_plan(catalog, est, disk, r, &sels)?))
        })
        .collect::<ExecResult<Vec<_>>>()?;
    // Seed with the smallest estimated output (estimate once per plan).
    let mut keyed: Vec<(f64, (String, Plan))> =
        access.drain(..).map(|a| (est.estimate(&a.1).rows, a)).collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut access: Vec<(String, Plan)> = keyed.into_iter().map(|(_, a)| a).collect();
    let (seed_rel, seed_plan) = access.remove(0);
    let mut joined: BTreeSet<String> = BTreeSet::new();
    joined.insert(seed_rel);
    let mut plan = seed_plan;
    while !access.is_empty() {
        // Candidate next relations: connected to the joined set by an edge.
        let mut best: Option<(usize, Plan, f64)> = None;
        for (i, (rel, acc)) in access.iter().enumerate() {
            let edges: Vec<&Join> = graph
                .joins()
                .filter(|j| {
                    (joined.contains(&j.left) && j.right == *rel)
                        || (joined.contains(&j.right) && j.left == *rel)
                })
                .collect();
            if edges.is_empty() {
                continue;
            }
            let candidate = join_candidate(catalog, est, disk, graph, &plan, rel, acc, &edges)?;
            let rows = est.estimate(&candidate).rows;
            if best.as_ref().map(|(_, _, r)| rows < *r).unwrap_or(true) {
                best = Some((i, candidate, rows));
            }
        }
        match best {
            Some((i, candidate, _)) => {
                let (rel, _) = access.remove(i);
                joined.insert(rel);
                plan = candidate;
            }
            None => {
                // Should not happen inside a connected component, but fall
                // back to a cartesian with the smallest remaining input.
                let (rel, acc) = access.remove(0);
                joined.insert(rel);
                let mut cols = plan.cols.clone();
                cols.extend(acc.cols.iter().cloned());
                plan = Plan {
                    node: PlanNode::NestedLoop {
                        left: Box::new(plan),
                        right: Box::new(acc),
                        cond: vec![],
                    },
                    cols,
                };
            }
        }
    }
    Ok(plan)
}

/// Best access path for one relation given its selections.
fn access_plan(
    catalog: &Catalog,
    est: &Estimator<'_>,
    disk: &DiskModel,
    rel: &str,
    sels: &[&Selection],
) -> ExecResult<Plan> {
    let table = catalog.table(rel).ok_or_else(|| ExecError::UnknownTable(rel.into()))?;
    let cols: Vec<String> = table.schema.columns().iter().map(|c| qualify(rel, &c.name)).collect();
    let bind = |s: &Selection| -> ExecResult<BoundPred> {
        let idx = table.schema.index_of(&s.pred.column).ok_or_else(|| {
            ExecError::UnknownColumn { rel: rel.into(), column: s.pred.column.clone() }
        })?;
        Ok(BoundPred { idx, op: s.pred.op, value: s.pred.value.clone() })
    };
    let all_filters: Vec<BoundPred> =
        sels.iter().map(|s| bind(s)).collect::<ExecResult<Vec<_>>>()?;
    let seq = Plan {
        node: PlanNode::SeqScan { table: rel.into(), filters: all_filters.clone() },
        cols: cols.clone(),
    };
    let mut best = seq;
    let mut best_time = est.estimate(&best).time(disk);
    // One index-scan candidate per indexed, range-usable predicate.
    for (i, s) in sels.iter().enumerate() {
        if s.pred.op == CompareOp::Ne {
            continue;
        }
        if catalog.index(rel, &s.pred.column).is_none() {
            continue;
        }
        let (lo, hi) = range_bounds(&s.pred.op, &s.pred.value);
        let residual: Vec<BoundPred> = sels
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, s)| bind(s))
            .collect::<ExecResult<Vec<_>>>()?;
        let cand = Plan {
            node: PlanNode::IndexScan {
                table: rel.into(),
                column: s.pred.column.clone(),
                lo,
                hi,
                filters: residual,
            },
            cols: cols.clone(),
        };
        let t = est.estimate(&cand).time(disk);
        if t < best_time {
            best = cand;
            best_time = t;
        }
    }
    Ok(best)
}

fn range_bounds(op: &CompareOp, v: &Value) -> (Bound<Value>, Bound<Value>) {
    match op {
        CompareOp::Eq => (Bound::Included(v.clone()), Bound::Included(v.clone())),
        CompareOp::Lt => (Bound::Unbounded, Bound::Excluded(v.clone())),
        CompareOp::Le => (Bound::Unbounded, Bound::Included(v.clone())),
        CompareOp::Gt => (Bound::Excluded(v.clone()), Bound::Unbounded),
        CompareOp::Ge => (Bound::Included(v.clone()), Bound::Unbounded),
        CompareOp::Ne => (Bound::Unbounded, Bound::Unbounded),
    }
}

/// Build the best join of `plan` (already covering `joined` relations)
/// with relation `rel`, connected by `edges` (first edge is the primary
/// key condition, the rest become residual equality checks).
#[allow(clippy::too_many_arguments)]
fn join_candidate(
    catalog: &Catalog,
    est: &Estimator<'_>,
    disk: &DiskModel,
    graph: &QueryGraph,
    plan: &Plan,
    rel: &str,
    access: &Plan,
    edges: &[&Join],
) -> ExecResult<Plan> {
    // Resolve each edge into (outer position, inner qualified name).
    let resolve = |j: &Join| -> ExecResult<(usize, String)> {
        let (ocol_rel, ocol, icol) = if j.left == rel {
            (&j.right, &j.rcol, qualify(rel, &j.lcol))
        } else {
            (&j.left, &j.lcol, qualify(rel, &j.rcol))
        };
        let oq = qualify(ocol_rel, ocol);
        let opos = plan.col_index(&oq).ok_or_else(|| ExecError::UnknownColumn {
            rel: ocol_rel.clone(),
            column: ocol.clone(),
        })?;
        Ok((opos, icol))
    };
    let resolved: Vec<(usize, String)> =
        edges.iter().map(|j| resolve(j)).collect::<ExecResult<Vec<_>>>()?;
    let inner_pos = |q: &str| -> ExecResult<usize> {
        access
            .col_index(q)
            .ok_or_else(|| ExecError::UnknownColumn { rel: rel.into(), column: q.into() })
    };

    let mut out_cols = plan.cols.clone();
    out_cols.extend(access.cols.iter().cloned());

    // Hash join: build on the smaller estimated side.
    let plan_rows = est.estimate(plan).rows;
    let access_rows = est.estimate(access).rows;
    let (okey, ikey_name) = &resolved[0];
    let ikey = inner_pos(ikey_name)?;
    let residual: Vec<(usize, usize)> = resolved[1..]
        .iter()
        .map(|(o, iname)| Ok((*o, inner_pos(iname)?)))
        .collect::<ExecResult<Vec<_>>>()?;
    let hash = if plan_rows <= access_rows {
        Plan {
            node: PlanNode::HashJoin {
                left: Box::new(plan.clone()),
                right: Box::new(access.clone()),
                lkey: *okey,
                rkey: ikey,
                residual: residual.clone(),
            },
            cols: out_cols.clone(),
        }
    } else {
        // Build on the access side: swap operands; output order becomes
        // access ++ plan, so swap the column list too.
        let mut cols = access.cols.clone();
        cols.extend(plan.cols.iter().cloned());
        Plan {
            node: PlanNode::HashJoin {
                left: Box::new(access.clone()),
                right: Box::new(plan.clone()),
                lkey: ikey,
                rkey: *okey,
                residual: residual.iter().map(|&(o, i)| (i, o)).collect(),
            },
            cols,
        }
    };
    let mut best = hash;
    let best_time = est.estimate(&best).time(disk);

    // Index nested-loop candidate: inner must be a stored table with an
    // index on the (unqualified) join column; inner filters re-bound to
    // stored positions.
    if let Some(table) = catalog.table(rel) {
        let inner_col = edges[0].other(rel).map(|_| {
            if edges[0].left == rel {
                edges[0].lcol.clone()
            } else {
                edges[0].rcol.clone()
            }
        });
        if let Some(inner_col) = inner_col {
            if catalog.index(rel, &inner_col).is_some() {
                let inner_filters: Vec<BoundPred> = graph
                    .selections_on(rel)
                    .map(|s| {
                        let idx = table.schema.index_of(&s.pred.column).ok_or_else(|| {
                            ExecError::UnknownColumn {
                                rel: rel.into(),
                                column: s.pred.column.clone(),
                            }
                        })?;
                        Ok(BoundPred { idx, op: s.pred.op, value: s.pred.value.clone() })
                    })
                    .collect::<ExecResult<Vec<_>>>()?;
                let inner_residual: Vec<(usize, usize)> = resolved[1..]
                    .iter()
                    .map(|(o, iname)| {
                        // Residual inner positions are in the stored schema.
                        let plain = iname.rsplit('.').next().unwrap_or(iname);
                        let idx = table
                            .schema
                            .index_of(iname)
                            .or_else(|| table.schema.index_of(plain))
                            .ok_or_else(|| ExecError::UnknownColumn {
                                rel: rel.into(),
                                column: iname.clone(),
                            })?;
                        Ok((*o, idx))
                    })
                    .collect::<ExecResult<Vec<_>>>()?;
                let cand = Plan {
                    node: PlanNode::IndexNLJoin {
                        outer: Box::new(plan.clone()),
                        inner_table: rel.into(),
                        inner_column: inner_col,
                        okey: *okey,
                        inner_filters,
                        residual: inner_residual,
                    },
                    cols: out_cols,
                };
                let t = est.estimate(&cand).time(disk);
                if t < best_time {
                    best = cand;
                }
            }
        }
    }
    Ok(best)
}

/// Estimated execution time of the best plan for `query` (the
/// `cost(q, m)` the speculator's cost model consumes).
pub fn estimate_query_time(
    catalog: &Catalog,
    pool: &BufferPool,
    disk: &DiskModel,
    query: &Query,
) -> ExecResult<VirtualTime> {
    let plan = plan_query(catalog, pool, disk, query)?;
    Ok(Estimator::new(catalog, pool).estimate(&plan).time(disk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecCtx;
    use crate::run::run_collect;
    use specdb_catalog::{ColumnDef, DataType, Schema, TableStats};
    use specdb_query::{Predicate, Selection};
    use specdb_storage::heap::BulkLoader;
    use specdb_storage::{HeapFile, Tuple};

    fn fixture() -> (BufferPool, Catalog) {
        let mut pool = BufferPool::new(1024);
        let mut cat = Catalog::new();
        // orders(id, cust, total), customer(id, region)
        let orders = HeapFile::create(&mut pool);
        let mut loader = BulkLoader::new();
        for i in 0..3000i64 {
            loader
                .push(&Tuple::new(vec![Value::Int(i), Value::Int(i % 100), Value::Int(i % 500)]))
                .unwrap();
        }
        loader.finish(&mut pool, orders).unwrap();
        let stats = TableStats::analyze(&mut pool, orders, 3).unwrap();
        cat.register(
            "orders",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("cust", DataType::Int),
                ColumnDef::new("total", DataType::Int),
            ]),
            orders,
            stats,
        );
        let cust = HeapFile::create(&mut pool);
        let mut loader = BulkLoader::new();
        for i in 0..100i64 {
            loader.push(&Tuple::new(vec![Value::Int(i), Value::Int(i % 5)])).unwrap();
        }
        loader.finish(&mut pool, cust).unwrap();
        let stats = TableStats::analyze(&mut pool, cust, 2).unwrap();
        cat.register(
            "customer",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("region", DataType::Int),
            ]),
            cust,
            stats,
        );
        (pool, cat)
    }

    fn join_query() -> Query {
        let mut g = QueryGraph::new();
        g.add_join(Join::new("orders", "cust", "customer", "id"));
        g.add_selection(Selection::new("customer", Predicate::new("region", CompareOp::Eq, 2i64)));
        Query::star(g)
    }

    #[test]
    fn plans_and_runs_join_query() {
        let (mut pool, cat) = fixture();
        let disk = DiskModel::default();
        let plan = plan_query(&cat, &pool, &disk, &join_query()).unwrap();
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect(&plan, &cat, &mut ctx).unwrap();
        // region 2 → 20 customers → 30 orders each = 600 rows.
        assert_eq!(rows.len(), 600);
        assert_eq!(rows[0].arity(), 5);
    }

    #[test]
    fn projection_trims_output() {
        let (mut pool, cat) = fixture();
        let disk = DiskModel::default();
        let q = join_query().project("orders", "id");
        let plan = plan_query(&cat, &pool, &disk, &q).unwrap();
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect(&plan, &cat, &mut ctx).unwrap();
        assert_eq!(rows.len(), 600);
        assert!(rows.iter().all(|r| r.arity() == 1));
        assert_eq!(plan.cols, vec!["orders.id".to_string()]);
    }

    #[test]
    fn index_access_path_chosen_when_selective() {
        // A point lookup costs two random reads (~16 ms), more than a
        // scan of the 13-page `orders` fixture, so this test uses a table
        // large enough for the index to win.
        let mut pool = BufferPool::new(1024);
        let mut cat = Catalog::new();
        let heap = HeapFile::create(&mut pool);
        let mut loader = BulkLoader::new();
        for i in 0..30_000i64 {
            loader.push(&Tuple::new(vec![Value::Int(i), Value::Int(i % 500)])).unwrap();
        }
        loader.finish(&mut pool, heap).unwrap();
        let stats = TableStats::analyze(&mut pool, heap, 2).unwrap();
        cat.register(
            "big",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("total", DataType::Int),
            ]),
            heap,
            stats,
        );
        cat.build_index(&mut pool, "big", "id").unwrap();
        let disk = DiskModel::default();
        let mut g = QueryGraph::new();
        g.add_selection(Selection::new("big", Predicate::new("id", CompareOp::Eq, 7i64)));
        let plan = plan_query(&cat, &pool, &disk, &Query::star(g)).unwrap();
        assert!(
            matches!(plan.node, PlanNode::IndexScan { .. }),
            "expected index scan, got: {}",
            plan.explain()
        );
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect(&plan, &cat, &mut ctx).unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn seq_scan_chosen_when_unselective() {
        let (mut pool, mut cat) = fixture();
        cat.build_index(&mut pool, "orders", "id").unwrap();
        let disk = DiskModel::default();
        let mut g = QueryGraph::new();
        g.add_selection(Selection::new("orders", Predicate::new("id", CompareOp::Ge, 0i64)));
        let plan = plan_query(&cat, &pool, &disk, &Query::star(g)).unwrap();
        assert!(
            matches!(plan.node, PlanNode::SeqScan { .. }),
            "full-range predicate should seq scan: {}",
            plan.explain()
        );
        let mut ctx = ExecCtx::new(&mut pool);
        assert_eq!(run_collect(&plan, &cat, &mut ctx).unwrap().len(), 3000);
    }

    #[test]
    fn disconnected_graph_gets_cartesian() {
        let (mut pool, cat) = fixture();
        let disk = DiskModel::default();
        let mut g = QueryGraph::new();
        g.add_relation("orders");
        g.add_relation("customer");
        // No join edge: cartesian product.
        let plan = plan_query(&cat, &pool, &disk, &Query::star(g)).unwrap();
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect(&plan, &cat, &mut ctx).unwrap();
        assert_eq!(rows.len(), 3000 * 100);
    }

    #[test]
    fn empty_graph_rejected() {
        let (pool, cat) = fixture();
        let disk = DiskModel::default();
        assert!(matches!(
            plan_query(&cat, &pool, &disk, &Query::star(QueryGraph::new())),
            Err(ExecError::EmptyQuery)
        ));
    }

    #[test]
    fn unknown_relation_and_column_rejected() {
        let (pool, cat) = fixture();
        let disk = DiskModel::default();
        let mut g = QueryGraph::new();
        g.add_relation("ghost");
        assert!(matches!(
            plan_query(&cat, &pool, &disk, &Query::star(g)),
            Err(ExecError::UnknownTable(_))
        ));
        let mut g = QueryGraph::new();
        g.add_selection(Selection::new("orders", Predicate::new("nope", CompareOp::Eq, 1i64)));
        assert!(matches!(
            plan_query(&cat, &pool, &disk, &Query::star(g)),
            Err(ExecError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn estimate_query_time_positive() {
        let (pool, cat) = fixture();
        let disk = DiskModel::default();
        let t = estimate_query_time(&cat, &pool, &disk, &join_query()).unwrap();
        assert!(t > VirtualTime::ZERO);
    }

    #[test]
    fn index_nl_join_used_for_selective_outer() {
        let (mut pool, mut cat) = fixture();
        cat.build_index(&mut pool, "orders", "cust").unwrap();
        let disk = DiskModel::default();
        let mut g = QueryGraph::new();
        g.add_join(Join::new("orders", "cust", "customer", "id"));
        g.add_selection(Selection::new("customer", Predicate::new("id", CompareOp::Eq, 3i64)));
        let plan = plan_query(&cat, &pool, &disk, &Query::star(g)).unwrap();
        let mut ctx = ExecCtx::new(&mut pool);
        let rows = run_collect(&plan, &cat, &mut ctx).unwrap();
        assert_eq!(rows.len(), 30, "30 orders for customer 3");
    }
}
