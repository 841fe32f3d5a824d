//! The `Database` engine facade.
//!
//! Binds storage, catalog, optimizer, executor, and the materialized-view
//! registry into the one object the rest of the workspace (and a library
//! user) talks to. Every operation that touches data returns its measured
//! [`ResourceDemand`] and the virtual elapsed time the
//! [`DiskModel`] assigns to it — the raw material for all of
//! the paper's timing experiments.

use crate::batch;
use crate::context::{BatchStats, CancelToken, ExecCtx};
use crate::error::{ExecError, ExecResult};
use crate::estimate::Estimator;
use crate::optimizer::{self, qualify};
use crate::plan::Plan;
use crate::plan_cache::{query_key, PlanCache, PlanCacheStats};
use crate::rewrite::{rewrite_candidates, rewrite_greedy, MatchMode, ViewDef, ViewRegistry};
use crate::run;
use parking_lot::Mutex;
use specdb_catalog::{Catalog, ColumnDef, Schema, TableStats};
use specdb_obs::Observer;
use specdb_query::{canonical_key, ColumnResolver, Query, QueryGraph};
use specdb_storage::heap::BulkLoader;
use specdb_storage::{
    BufferPool, DiskModel, HeapFile, ResourceDemand, StorageResult, Tuple, VirtualTime, PAGE_SIZE,
};

/// How materialized views participate in final-query planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViewMode {
    /// The optimizer costs rewritten and original forms and keeps the
    /// cheaper (the paper's *query materialization*).
    CostBased,
    /// Materialized sub-queries are always substituted (the paper's
    /// *query rewriting*, used in its experiments).
    #[default]
    Forced,
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct DatabaseConfig {
    /// Buffer pool size in pages.
    pub buffer_pages: usize,
    /// Virtual-time disk model.
    pub disk: DiskModel,
    /// View participation mode.
    pub view_mode: ViewMode,
    /// View matching mode (exact, per the paper, or predicate
    /// subsumption — see [`MatchMode`]).
    pub match_mode: MatchMode,
    /// Model hybrid hash-join spills when builds exceed the buffer pool.
    pub spill_model: bool,
    /// Memoize plans and estimates per canonical graph key, invalidated
    /// by DDL epoch (see [`crate::plan_cache`]). On by default; the
    /// decision-loop benchmark disables it for its comparison arm.
    pub plan_cache: bool,
    /// Which executor pipeline plans run on (see [`ExecMode`]). Columnar
    /// by default; results and virtual-time accounting are identical
    /// across all modes, only wall-clock differs. The executor benchmark
    /// switches modes for its comparison arms.
    pub exec_mode: ExecMode,
    /// Worker threads for morsel-driven scans on the columnar pipeline
    /// (see [`crate::parallel`]). Defaults to the `SPECDB_THREADS`
    /// environment variable, or `1` (fully serial) when unset. Results
    /// and virtual-time accounting are bit-identical at any value; only
    /// wall-clock changes.
    pub threads: usize,
}

/// Which executor pipeline the engine runs plans on.
///
/// Both modes are bit-identical in results, order, and virtual-time
/// resource accounting (enforced by `tests/batch_exec.rs` and the
/// in-crate differential tests); they differ only in wall-clock speed.
/// The `executor` bench reports the gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Row-at-a-time oracle ([`crate::run`]).
    Row,
    /// Columnar batch pipeline ([`crate::batch`]): `Arc`-shared column
    /// vectors with selection vectors (the default).
    #[default]
    Columnar,
}

impl ExecMode {
    /// Stable lowercase label (bench arms, logs).
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::Row => "row",
            ExecMode::Columnar => "batch-columnar",
        }
    }
}

impl DatabaseConfig {
    /// Config with a pool of `pages` pages and default disk model.
    pub fn with_buffer_pages(pages: usize) -> Self {
        DatabaseConfig {
            buffer_pages: pages,
            disk: DiskModel::default(),
            view_mode: ViewMode::Forced,
            match_mode: MatchMode::Exact,
            spill_model: true,
            plan_cache: true,
            exec_mode: ExecMode::Columnar,
            threads: threads_from_env(),
        }
    }

    /// Replace the disk model.
    pub fn disk(mut self, disk: DiskModel) -> Self {
        self.disk = disk;
        self
    }

    /// Replace the view mode.
    pub fn view_mode(mut self, mode: ViewMode) -> Self {
        self.view_mode = mode;
        self
    }

    /// Replace the view matching mode.
    pub fn match_mode(mut self, mode: MatchMode) -> Self {
        self.match_mode = mode;
        self
    }

    /// Toggle spill modelling (see [`specdb_storage::BufferPool::set_spill_model`]).
    pub fn spill_model(mut self, on: bool) -> Self {
        self.spill_model = on;
        self
    }

    /// Toggle plan/estimate memoization (see [`crate::plan_cache`]).
    pub fn plan_cache(mut self, on: bool) -> Self {
        self.plan_cache = on;
        self
    }

    /// Select the executor pipeline (see [`ExecMode`]).
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Set the morsel worker thread count (clamped to at least 1).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }
}

/// Parse a `SPECDB_THREADS`-style value: a positive integer, anything
/// else (including `0`) is rejected.
fn parse_threads(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// The default morsel worker thread count: `SPECDB_THREADS` when set to
/// a positive integer, else `1` (fully serial).
pub fn threads_from_env() -> usize {
    std::env::var("SPECDB_THREADS")
        .ok()
        .as_deref()
        .and_then(parse_threads)
        .unwrap_or(1)
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        Self::with_buffer_pages(4096) // 32 MB at 8 KB pages, the paper's pool
    }
}

/// Result of a query execution.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Result rows (empty if executed with `collect = false`).
    pub rows: Vec<Tuple>,
    /// Number of result rows (always populated).
    pub row_count: u64,
    /// Qualified output column names.
    pub cols: Vec<String>,
    /// Measured resource demand.
    pub demand: ResourceDemand,
    /// Virtual elapsed time under the engine's disk model.
    pub elapsed: VirtualTime,
    /// EXPLAIN-style plan rendering.
    pub plan: String,
    /// Names of materialized views the executed plan used.
    pub used_views: Vec<String>,
}

/// Result of a DDL-ish operation (index/histogram creation, load).
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// Measured resource demand.
    pub demand: ResourceDemand,
    /// Virtual elapsed time.
    pub elapsed: VirtualTime,
}

/// Result of a materialization.
#[derive(Debug, Clone)]
pub struct MaterializeOutcome {
    /// Catalog table name holding the result (`mv_<digest>`).
    pub table: String,
    /// Result rows.
    pub rows: u64,
    /// Result pages.
    pub pages: u64,
    /// Measured resource demand of the build.
    pub demand: ResourceDemand,
    /// Virtual elapsed time of the build.
    pub elapsed: VirtualTime,
    /// True if the view already existed and no work was done.
    pub already_existed: bool,
}

/// Calibration factor applied to [`MatEstimate::build`]. The raw
/// demand-based prediction runs ~2x hot against measured virtual build
/// times (the analytic model charges full write+CPU cost for work the
/// bulk loader amortises); scaling it down brings mean |relative error|
/// on the tiny dataset from ~107% to ~37%, inside the 50% bound asserted
/// by `tests/calibration.rs`. A static constant (not residency- or
/// history-dependent) so estimates stay deterministic.
pub const BUILD_TIME_SCALE: f64 = 0.46;

/// Optimizer-estimated consequences of materializing a sub-query.
#[derive(Debug, Clone, Copy)]
pub struct MatEstimate {
    /// Estimated build time (compute + write).
    pub build: VirtualTime,
    /// Estimated time to scan the materialized result afterwards.
    pub scan_result: VirtualTime,
    /// Estimated time to compute the sub-query from the current state
    /// (this is `cost(qm, m∅)` in the paper's cost model).
    pub compute_now: VirtualTime,
    /// Estimated result rows.
    pub rows: f64,
    /// Estimated result pages.
    pub pages: f64,
}

/// The database engine.
///
/// Cloning duplicates catalog/view metadata and shares page images via
/// `Arc`; the experiment harness uses this to replay every trace against
/// an identical starting state.
pub struct Database {
    pool: BufferPool,
    catalog: Catalog,
    views: ViewRegistry,
    disk: DiskModel,
    view_mode: ViewMode,
    match_mode: MatchMode,
    /// Staged tables and their pinned page counts; ordered so GC
    /// unstages in the same order in every process.
    staged: std::collections::BTreeMap<String, u32>,
    exec_mode: ExecMode,
    threads: usize,
    /// Plan/estimate memo. A mutex (never contended: each memo access is
    /// a short critical section on the engine's own thread) because
    /// estimate paths take `&self` and `Database` is shared across
    /// threads (`Send + Sync`).
    plan_cache: Mutex<PlanCache>,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database {
            pool: self.pool.clone(),
            catalog: self.catalog.clone(),
            views: self.views.clone(),
            disk: self.disk.clone(),
            view_mode: self.view_mode,
            match_mode: self.match_mode,
            staged: self.staged.clone(),
            exec_mode: self.exec_mode,
            threads: self.threads,
            plan_cache: Mutex::new(self.plan_cache.lock().clone()),
        }
    }
}

impl Database {
    /// Create an empty database.
    pub fn new(config: DatabaseConfig) -> Self {
        let mut pool = BufferPool::new(config.buffer_pages);
        pool.set_spill_model(config.spill_model);
        Database {
            pool,
            catalog: Catalog::new(),
            views: ViewRegistry::new(),
            disk: config.disk,
            view_mode: config.view_mode,
            match_mode: config.match_mode,
            staged: std::collections::BTreeMap::new(),
            exec_mode: config.exec_mode,
            threads: config.threads.max(1),
            plan_cache: Mutex::new(PlanCache::new(config.plan_cache)),
        }
    }

    /// Set the morsel worker thread count at runtime (clamped to at
    /// least 1). Safe at any point: results and accounting are
    /// bit-identical at any value (see [`crate::parallel`]).
    pub fn set_threads(&mut self, n: usize) {
        self.threads = n.max(1);
    }

    /// The morsel worker thread count queries run with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Always `false`: column segments are always stored plain (see
    /// [`specdb_storage::column`]). The accessor exists only because the
    /// benchmark's run provenance (`perfbench/src/main.rs`) reads it.
    pub fn encoding(&self) -> bool {
        false
    }

    /// Select the executor pipeline at runtime (see [`ExecMode`]). Safe
    /// at any point: both pipelines produce bit-identical results and
    /// accounting.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The executor pipeline plans currently run on.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Current DDL epoch: advances on every catalog-shape change
    /// (load, index/histogram create+drop, materialize/drop, view-mode
    /// changes), and each advance clears the plan cache. Tests read it to
    /// check that an operation invalidated (or, on failure, left alone)
    /// the cached plans and estimates.
    pub fn ddl_epoch(&self) -> u64 {
        self.plan_cache.lock().epoch()
    }

    /// Toggle plan/estimate memoization at runtime (disabling clears it).
    pub fn set_plan_cache(&mut self, on: bool) {
        self.plan_cache.get_mut().set_enabled(on);
    }

    /// True when plan/estimate memoization is active.
    pub fn plan_cache_enabled(&self) -> bool {
        self.plan_cache.lock().enabled()
    }

    /// Hit/miss/invalidation counters for the plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.lock().stats()
    }

    /// Advance the DDL epoch, dropping every cached plan and estimate.
    fn bump_ddl_epoch(&mut self) {
        self.plan_cache.get_mut().bump_epoch();
    }

    /// The catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The buffer pool (read-only).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Attach an observer: page/disk traffic is counted by the pool,
    /// and the engine emits per-query and plan-choice events.
    pub fn set_observer(&mut self, observer: Observer) {
        self.pool.set_observer(observer);
    }

    /// The observer attached to this database (disabled by default).
    pub fn observer(&self) -> &Observer {
        self.pool.observer()
    }

    /// The view registry (read-only).
    pub fn views(&self) -> &ViewRegistry {
        &self.views
    }

    /// The disk model.
    pub fn disk(&self) -> &DiskModel {
        &self.disk
    }

    /// Current view mode.
    pub fn view_mode(&self) -> ViewMode {
        self.view_mode
    }

    /// Change the view mode.
    pub fn set_view_mode(&mut self, mode: ViewMode) {
        if self.view_mode != mode {
            self.view_mode = mode;
            self.bump_ddl_epoch();
        }
    }

    /// Current view matching mode.
    pub fn match_mode(&self) -> MatchMode {
        self.match_mode
    }

    /// Change the view matching mode.
    pub fn set_match_mode(&mut self, mode: MatchMode) {
        if self.match_mode != mode {
            self.match_mode = mode;
            self.bump_ddl_epoch();
        }
    }

    /// Evict all unpinned pages (cold restart, used between trace replays).
    pub fn clear_buffer(&mut self) {
        self.pool.clear();
    }

    /// Create an empty table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> ExecResult<()> {
        let heap = HeapFile::create(&mut self.pool);
        let arity = schema.arity();
        self.catalog.register(name, schema, heap, TableStats::empty(arity));
        self.bump_ddl_epoch();
        Ok(())
    }

    /// Bulk-load rows into a table and re-analyze its statistics.
    /// Values are type-checked against the schema.
    pub fn load(
        &mut self,
        name: &str,
        rows: impl IntoIterator<Item = Tuple>,
    ) -> ExecResult<OpOutcome> {
        let snap = self.pool.snapshot();
        let (heap, schema) = {
            let t = self.catalog.table(name).ok_or_else(|| ExecError::UnknownTable(name.into()))?;
            (t.heap, t.schema.clone())
        };
        let mut loader = BulkLoader::new();
        for row in rows {
            for (i, v) in row.values().iter().enumerate() {
                let col = schema.columns().get(i).ok_or_else(|| ExecError::TypeMismatch {
                    table: name.into(),
                    column: format!("arity {} > {}", row.arity(), schema.arity()),
                })?;
                if !col.ty.admits(v) {
                    return Err(ExecError::TypeMismatch {
                        table: name.into(),
                        column: col.name.clone(),
                    });
                }
            }
            loader.push(&row)?;
        }
        loader.finish(&mut self.pool, heap)?;
        let stats = TableStats::analyze(&mut self.pool, heap, schema.arity())?;
        // Re-register with fresh stats (same heap, same schema).
        self.catalog.register(name, schema, heap, stats);
        self.bump_ddl_epoch();
        Ok(self.outcome_since(snap))
    }

    /// Create an index on `table.column` (a speculative manipulation).
    pub fn create_index(&mut self, table: &str, column: &str) -> ExecResult<OpOutcome> {
        self.require_column(table, column)?;
        let snap = self.pool.snapshot();
        self.catalog.build_index(&mut self.pool, table, column)?;
        self.bump_ddl_epoch();
        Ok(self.outcome_since(snap))
    }

    /// Create a histogram on `table.column` (a speculative manipulation).
    pub fn create_histogram(&mut self, table: &str, column: &str) -> ExecResult<OpOutcome> {
        self.require_column(table, column)?;
        let snap = self.pool.snapshot();
        self.catalog.build_histogram(&mut self.pool, table, column)?;
        self.bump_ddl_epoch();
        Ok(self.outcome_since(snap))
    }

    /// Stage (pre-fetch and pin) the first `pages` pages of a table —
    /// the paper's *data staging* manipulation, which its prototype could
    /// not implement over a closed DBMS but this engine supports
    /// natively. Pages stay pinned until [`Database::unstage`]. At most a
    /// quarter of the buffer pool is ever pinned per call.
    pub fn stage(&mut self, table: &str, pages: u32) -> ExecResult<OpOutcome> {
        let heap = self
            .catalog
            .table(table)
            .ok_or_else(|| ExecError::UnknownTable(table.into()))?
            .heap;
        let snap = self.pool.snapshot();
        // Cap *total* staged pins at a quarter of the pool so staging can
        // never starve the executor of evictable frames.
        let already: u32 = self.staged.values().sum();
        let cap = (self.pool.capacity() as u32 / 4).saturating_sub(already);
        let n = pages.min(heap.pages(&self.pool)).min(cap);
        for page_no in 0..n {
            self.pool.pin_with(
                specdb_storage::PageId::new(heap.file, page_no),
                specdb_storage::AccessKind::Sequential,
            )?;
        }
        self.staged.insert(table.to_string(), n);
        Ok(self.outcome_since(snap))
    }

    /// Unpin a previously staged table (cancellation rollback / GC).
    pub fn unstage(&mut self, table: &str) {
        if let Some((_, n)) = self.staged.remove_entry(table) {
            if let Some(t) = self.catalog.table(table) {
                let file = t.heap.file;
                for page_no in 0..n {
                    self.pool.unpin(specdb_storage::PageId::new(file, page_no));
                }
            }
        }
    }

    /// True if the table currently has staged pages.
    pub fn is_staged(&self, table: &str) -> bool {
        self.staged.contains_key(table)
    }

    /// Staged tables no longer present in `graph` (GC candidates,
    /// symmetric to [`Database::unsupported_views`]).
    pub fn unsupported_staged(&self, graph: &specdb_query::QueryGraph) -> Vec<String> {
        self.staged.keys().filter(|t| !graph.has_relation(t)).cloned().collect()
    }

    /// Remove an index (cancellation rollback). Unknown names are a no-op.
    pub fn drop_index(&mut self, table: &str, column: &str) {
        if self.has_index(table, column) {
            self.catalog.drop_index(&mut self.pool, table, column);
            self.bump_ddl_epoch();
        }
    }

    /// Remove a histogram (cancellation rollback). Unknown names are a no-op.
    pub fn drop_histogram(&mut self, table: &str, column: &str) {
        if self.has_histogram(table, column) {
            self.catalog.drop_histogram(table, column);
            self.bump_ddl_epoch();
        }
    }

    /// True if an index exists on `table.column`.
    pub fn has_index(&self, table: &str, column: &str) -> bool {
        self.catalog.index(table, column).is_some()
    }

    /// True if a histogram exists on `table.column`.
    pub fn has_histogram(&self, table: &str, column: &str) -> bool {
        self.catalog.histogram(table, column).is_some()
    }

    /// Execute a query, collecting its rows.
    pub fn execute(&mut self, query: &Query) -> ExecResult<QueryOutput> {
        self.execute_inner(query, CancelToken::new(), true)
    }

    /// Execute a query, discarding rows (keeps `row_count`); used by the
    /// experiment harness where only timing matters.
    pub fn execute_discard(&mut self, query: &Query) -> ExecResult<QueryOutput> {
        self.execute_inner(query, CancelToken::new(), false)
    }

    fn execute_inner(
        &mut self,
        query: &Query,
        cancel: CancelToken,
        collect: bool,
    ) -> ExecResult<QueryOutput> {
        let tracer = self.pool.observer().tracer().clone();
        let virt_start = self.pool.observer().now_micros();
        let span = tracer.begin(specdb_obs::SpanKind::Execute, "query", virt_start);
        let key = query_key(query);
        let mut plan_cache_hit = true;
        let (plan, used_views) = match self.plan_cache.get_mut().get_plan(&key) {
            Some(hit) => hit,
            None => {
                plan_cache_hit = false;
                // Wall-clock cost of the rewrite search; recorded as
                // `lat.salvage_rewrite_us` when a subsumption (non-exact)
                // view match salvages the query. Observational only —
                // virtual accounting never sees it.
                let t_rewrite = std::time::Instant::now();
                let (chosen, used_views) = self.choose_rewrite(query)?;
                if self.match_mode == MatchMode::Subsume && !used_views.is_empty() {
                    let qkey = canonical_key(&query.graph);
                    let salvaged = used_views.iter().any(|name| {
                        self.views
                            .iter()
                            .any(|v| &v.name == name && canonical_key(&v.graph) != qkey)
                    });
                    if salvaged {
                        self.pool
                            .observer()
                            .metrics()
                            .histogram("lat.salvage_rewrite_us")
                            .record(t_rewrite.elapsed().as_micros() as f64);
                    }
                }
                let plan = optimizer::plan_query(&self.catalog, &self.pool, &self.disk, &chosen)?;
                self.plan_cache.get_mut().put_plan(key, &plan, &used_views);
                (plan, used_views)
            }
        };
        let snap = self.pool.snapshot();
        let mut rows = Vec::new();
        let mut row_count = 0u64;
        let batch_stats;
        {
            let mut ctx = ExecCtx::with_cancel(&mut self.pool, cancel);
            ctx.threads = self.threads;
            match self.exec_mode {
                ExecMode::Columnar => {
                    batch::run_batched(&plan, &self.catalog, &mut ctx, &mut |b| {
                        row_count += b.len() as u64;
                        if collect {
                            b.to_tuples(&mut rows);
                        }
                        Ok(())
                    })?;
                }
                ExecMode::Row => {
                    run::run(&plan, &self.catalog, &mut ctx, &mut |t| {
                        row_count += 1;
                        if collect {
                            rows.push(t);
                        }
                        Ok(())
                    })?;
                }
            }
            batch_stats = ctx.batch_stats;
        }
        let demand = self.pool.demand_since(snap);
        let elapsed = self.disk.time(&demand);
        self.record_query_metrics(&plan, &used_views, batch_stats);
        // The query's virtual extent is [now, now + its modelled cost]:
        // the replay loop advances the clock *after* execution.
        span.finish_with(virt_start + elapsed.as_micros(), |a| {
            a.push(("rows", row_count.into()));
            a.push(("plan_cache_hit", plan_cache_hit.into()));
            a.push(("batches", batch_stats.batches.into()));
            a.push(("cost_secs", elapsed.as_secs_f64().into()));
            // The estimator reads no buffer residency, so pricing the plan
            // after the run gives the optimizer's figure for it.
            let est = Estimator::new(&self.catalog, &self.pool).estimate(&plan);
            a.push(("est_cost_secs", est.time(&self.disk).as_secs_f64().into()));
            if !used_views.is_empty() {
                a.push(("used_views", used_views.join(",").into()));
            }
        });
        Ok(QueryOutput {
            rows,
            row_count,
            cols: plan.cols.clone(),
            demand,
            elapsed,
            plan: plan.explain(),
            used_views,
        })
    }

    /// Count one executed query: batch statistics, view rewrites, and
    /// one `exec.plan.{access}` per base-relation access.
    fn record_query_metrics(&self, plan: &Plan, used_views: &[String], batch_stats: BatchStats) {
        let metrics = self.pool.observer().metrics();
        metrics.counter("exec.queries").incr();
        if batch_stats != BatchStats::default() {
            metrics.counter("exec.batches").add(batch_stats.batches);
            metrics.counter("exec.fused_scans").add(batch_stats.fused_scans);
            metrics.counter("exec.cols_scanned").add(batch_stats.cols_scanned);
            if batch_stats.rows_scanned > 0 {
                metrics
                    .gauge("exec.sel_vec_density")
                    .set(batch_stats.rows_selected as f64 / batch_stats.rows_scanned as f64);
            }
            if batch_stats.index_probe_batches > 0 {
                metrics.counter("exec.index_probe_batches").add(batch_stats.index_probe_batches);
                metrics
                    .counter("exec.index_probe_saved_descents")
                    .add(batch_stats.index_probe_saved);
            }
            if batch_stats.pages_skipped > 0 {
                metrics.counter("exec.pages_skipped").add(batch_stats.pages_skipped);
            }
        }
        if !used_views.is_empty() {
            metrics.counter("exec.queries.view_rewritten").incr();
        }
        if metrics.is_enabled() {
            plan.visit_accesses(&mut |access| {
                metrics.counter(&format!("exec.plan.{access}")).incr();
            });
        }
    }

    /// Pick the rewriting the current [`ViewMode`] dictates.
    fn choose_rewrite(&self, query: &Query) -> ExecResult<(Query, Vec<String>)> {
        if self.views.is_empty() {
            return Ok((query.clone(), Vec::new()));
        }
        match self.view_mode {
            ViewMode::Forced => Ok(rewrite_greedy(query, &self.views, self.match_mode)),
            ViewMode::CostBased => {
                // Conservative view matching: a rewriting must beat the
                // original plan's estimate by a clear margin before the
                // optimizer abandons base access paths — estimates carry
                // error, and a wrong switch onto an unindexed view is far
                // costlier than a missed marginal win (the paper's §6
                // penalty analysis).
                const SWITCH_MARGIN: f64 = 0.95;
                let mut candidates =
                    rewrite_candidates(query, &self.views, self.match_mode).into_iter();
                let (orig_q, orig_used) =
                    candidates.next().expect("candidates always include the original");
                let orig_t =
                    optimizer::estimate_query_time(&self.catalog, &self.pool, &self.disk, &orig_q)?;
                let mut best = (orig_q, orig_used, orig_t);
                let threshold =
                    VirtualTime::from_micros((orig_t.as_micros() as f64 * SWITCH_MARGIN) as u64);
                for (cand, used) in candidates {
                    let t = optimizer::estimate_query_time(
                        &self.catalog,
                        &self.pool,
                        &self.disk,
                        &cand,
                    )?;
                    if t < threshold && t < best.2 {
                        best = (cand, used, t);
                    }
                }
                Ok((best.0, best.1))
            }
        }
    }

    /// Materialize a sub-query's result as a new relation and register it
    /// as a view (the paper's *query materialization* manipulation). The
    /// build may itself use existing materializations (the enumeration
    /// example in the paper's Section 3.5). Cancellation leaves no trace.
    pub fn materialize(
        &mut self,
        graph: &QueryGraph,
        cancel: CancelToken,
    ) -> ExecResult<MaterializeOutcome> {
        let token = cancel.clone();
        self.materialize_checked(graph, cancel, move || token.check())
    }

    /// [`Database::materialize`], running `install_check` before each
    /// result page is written; its error discards the build.
    fn materialize_checked(
        &mut self,
        graph: &QueryGraph,
        cancel: CancelToken,
        install_check: impl FnMut() -> StorageResult<()>,
    ) -> ExecResult<MaterializeOutcome> {
        let graph_key = canonical_key(graph);
        if let Some(existing) = self.views.get_by_key(&graph_key) {
            let t = self
                .catalog
                .table(&existing.name)
                .ok_or_else(|| ExecError::UnknownTable(existing.name.clone()))?;
            return Ok(MaterializeOutcome {
                table: existing.name.clone(),
                rows: t.stats.rows,
                pages: t.stats.pages,
                demand: ResourceDemand::default(),
                elapsed: VirtualTime::ZERO,
                already_existed: true,
            });
        }
        // Target schema: qualified columns of the graph's base relations,
        // in the graph's (sorted) relation order.
        let mut columns: Vec<ColumnDef> = Vec::new();
        for rel in graph.relations() {
            let t = self.catalog.table(rel).ok_or_else(|| ExecError::UnknownTable(rel.into()))?;
            for c in t.schema.columns() {
                columns.push(ColumnDef::new(qualify(rel, &c.name), c.ty));
            }
        }
        let schema = Schema::new(columns);
        let query = Query::star(graph.clone());
        // Choose the cheapest build plan (views may help the build even
        // in Forced mode — the paper reuses completed materializations).
        let (chosen, _) = match self.view_mode {
            ViewMode::Forced => rewrite_greedy(&query, &self.views, self.match_mode),
            ViewMode::CostBased => self.choose_rewrite(&query)?,
        };
        let plan = optimizer::plan_query(&self.catalog, &self.pool, &self.disk, &chosen)?;
        // Reorder plan output into the canonical schema order.
        let keep: Vec<usize> = schema
            .columns()
            .iter()
            .map(|c| {
                plan.col_index(&c.name).ok_or_else(|| ExecError::UnknownColumn {
                    rel: "materialization".into(),
                    column: c.name.clone(),
                })
            })
            .collect::<ExecResult<Vec<_>>>()?;
        let snap = self.pool.snapshot();
        // The executor exclusively borrows the pool, so result rows are
        // encoded into pages in memory and installed afterwards.
        let mut loader = BulkLoader::new();
        {
            let mut ctx = ExecCtx::with_cancel(&mut self.pool, cancel);
            ctx.threads = self.threads;
            match self.exec_mode {
                ExecMode::Columnar => {
                    batch::run_batched(&plan, &self.catalog, &mut ctx, &mut |b| {
                        Ok(b.project(&keep).load_into(&mut loader)?)
                    })?;
                }
                ExecMode::Row => {
                    run::run(&plan, &self.catalog, &mut ctx, &mut |t| {
                        loader.push_values(keep.iter().map(|&c| t.get(c)))?;
                        Ok(())
                    })?;
                }
            }
        }
        let heap = HeapFile::create(&mut self.pool);
        let rows = loader
            .install(&mut self.pool, heap, install_check)
            .inspect_err(|_| heap.destroy(&mut self.pool))?;
        let pages = heap.pages(&self.pool) as u64;
        let name = format!("mv_{}", specdb_query::short_digest_of_key(&graph_key));
        let stats = TableStats::analyze(&mut self.pool, heap, schema.arity())?;
        self.catalog.register(&name, schema, heap, stats);
        self.views
            .register_with_key(graph_key, ViewDef { name: name.clone(), graph: graph.clone() });
        self.bump_ddl_epoch();
        let demand = self.pool.demand_since(snap);
        Ok(MaterializeOutcome {
            table: name,
            rows,
            pages,
            demand,
            elapsed: self.disk.time(&demand),
            already_existed: false,
        })
    }

    /// Drop a materialized view and its storage. Unknown names are a no-op.
    pub fn drop_materialized(&mut self, name: &str) {
        if self.views.remove_by_name(name).is_some() {
            self.catalog.drop_table(&mut self.pool, name);
            self.bump_ddl_epoch();
        }
    }

    /// Names of views *not* supported by `graph` (candidates for the
    /// paper's garbage-collection heuristic).
    pub fn unsupported_views(&self, graph: &QueryGraph) -> Vec<String> {
        let supported: std::collections::HashSet<&str> = self
            .views
            .supported_by(graph, self.match_mode)
            .map(|v| v.name.as_str())
            .collect();
        self.views
            .iter()
            .filter(|v| !supported.contains(v.name.as_str()))
            .map(|v| v.name.clone())
            .collect()
    }

    /// True if a view over exactly this graph exists.
    pub fn has_view(&self, graph: &QueryGraph) -> bool {
        self.views.get(graph).is_some()
    }

    /// Optimizer estimate of the best execution time for `query` under
    /// the current state (`cost(q, m∅)` relative to hypothetical
    /// manipulations).
    pub fn estimate_query_time(&self, query: &Query) -> ExecResult<VirtualTime> {
        let key = format!("est:{}", query_key(query));
        if let Some(t) = self.plan_cache.lock().get_time(&key) {
            return Ok(t);
        }
        let (chosen, _) = self.choose_rewrite(query)?;
        let t = optimizer::estimate_query_time(&self.catalog, &self.pool, &self.disk, &chosen)?;
        self.plan_cache.lock().put_time(key, t);
        Ok(t)
    }

    /// Optimizer estimate for `query` with view rewriting disabled —
    /// the counterfactual "what would this cost against base tables",
    /// used to calibrate the speculator's predicted per-query benefit.
    pub fn estimate_query_time_base(&self, query: &Query) -> ExecResult<VirtualTime> {
        let key = format!("base:{}", query_key(query));
        if let Some(t) = self.plan_cache.lock().get_time(&key) {
            return Ok(t);
        }
        let t = optimizer::estimate_query_time(&self.catalog, &self.pool, &self.disk, query)?;
        self.plan_cache.lock().put_time(key, t);
        Ok(t)
    }

    /// Optimizer estimates for materializing `graph` now.
    pub fn estimate_materialization(&self, graph: &QueryGraph) -> ExecResult<MatEstimate> {
        let tracer = self.pool.observer().tracer().clone();
        let virt_now = self.pool.observer().now_micros();
        let key = format!("mat:{}", canonical_key(graph));
        if let Some(hit) = self.plan_cache.lock().get_mat(&key) {
            if tracer.is_enabled() {
                let span = tracer.begin(specdb_obs::SpanKind::Estimate, "estimate_mat", virt_now);
                span.finish_with(virt_now, |a| a.push(("plan_cache_hit", true.into())));
            }
            return Ok(hit);
        }
        // Estimates are free on the virtual clock; the span still shows
        // their wall cost (optimizer work) under the decide span.
        let span = tracer.begin(specdb_obs::SpanKind::Estimate, "estimate_mat", virt_now);
        let query = Query::star(graph.clone());
        let (chosen, _) = self.choose_rewrite(&query)?;
        let plan = optimizer::plan_query(&self.catalog, &self.pool, &self.disk, &chosen)?;
        let est = Estimator::new(&self.catalog, &self.pool).estimate(&plan);
        let width: usize = graph
            .relations()
            .filter_map(|r| self.catalog.table(r))
            .map(|t| t.schema.estimated_tuple_bytes())
            .sum();
        let pages = (est.rows * width as f64 / PAGE_SIZE as f64).ceil().max(1.0);
        let mut build_demand = est.demand();
        build_demand.writes = pages as u64;
        build_demand.cpu_tuples += est.rows as u64;
        let raw_build = self.disk.time(&build_demand);
        let out = MatEstimate {
            build: VirtualTime::from_micros(
                (raw_build.as_micros() as f64 * BUILD_TIME_SCALE) as u64,
            ),
            scan_result: self.disk.scan_time(pages as u64, est.rows as u64),
            compute_now: est.time(&self.disk),
            rows: est.rows,
            pages,
        };
        self.plan_cache.lock().put_mat(key, out);
        span.finish_with(virt_now, |a| {
            a.push(("plan_cache_hit", false.into()));
            a.push(("est_rows", out.rows.into()));
            a.push(("build_secs", out.build.as_secs_f64().into()));
        });
        Ok(out)
    }

    /// Canonical key of a graph (exposed for bookkeeping layers).
    pub fn graph_key(graph: &QueryGraph) -> String {
        canonical_key(graph)
    }

    fn require_column(&self, table: &str, column: &str) -> ExecResult<()> {
        let t = self.catalog.table(table).ok_or_else(|| ExecError::UnknownTable(table.into()))?;
        if t.schema.index_of(column).is_none() {
            return Err(ExecError::UnknownColumn { rel: table.into(), column: column.into() });
        }
        Ok(())
    }

    fn outcome_since(&self, snap: specdb_storage::IoSnapshot) -> OpOutcome {
        let demand = self.pool.demand_since(snap);
        OpOutcome { demand, elapsed: self.disk.time(&demand) }
    }
}

impl ColumnResolver for Database {
    fn resolve_column(&self, tables: &[String], column: &str) -> Option<String> {
        let mut found = None;
        for t in tables {
            if let Some(table) = self.catalog.table(t) {
                if table.schema.index_of(column).is_some() {
                    if found.is_some() {
                        return None; // ambiguous
                    }
                    found = Some(t.clone());
                }
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdb_catalog::DataType;
    use specdb_query::{parse_sql, CompareOp, Join, Predicate, Selection};
    use specdb_storage::Value;

    fn emp_db() -> Database {
        let mut db = Database::new(DatabaseConfig::with_buffer_pages(512));
        db.create_table(
            "employee",
            Schema::new(vec![
                ColumnDef::new("name", DataType::Str),
                ColumnDef::new("age", DataType::Int),
                ColumnDef::new("salary", DataType::Int),
            ]),
        )
        .unwrap();
        let rows = (0..2000i64).map(|i| {
            Tuple::new(vec![
                Value::Str(format!("emp{i}")),
                Value::Int(20 + i % 40),
                Value::Int(30_000 + (i * 13) % 50_000),
            ])
        });
        db.load("employee", rows).unwrap();
        db
    }

    /// Three joinable tables whose rows carry Int, Float, Str and NULL
    /// values: `emp.e_dept` references `dept`, `proj.p_emp` references
    /// `emp`.
    fn company_db(threads: usize) -> Database {
        let mut db = Database::new(DatabaseConfig::with_buffer_pages(256).threads(threads));
        let col = ColumnDef::new;
        db.create_table(
            "dept",
            Schema::new(vec![col("d_id", DataType::Int), col("d_name", DataType::Str)]),
        )
        .unwrap();
        db.create_table(
            "emp",
            Schema::new(vec![
                col("e_id", DataType::Int),
                col("e_dept", DataType::Int),
                col("e_pay", DataType::Float),
                col("e_note", DataType::Str),
            ]),
        )
        .unwrap();
        db.create_table(
            "proj",
            Schema::new(vec![col("p_emp", DataType::Int), col("p_cost", DataType::Float)]),
        )
        .unwrap();
        let dept =
            (0..20i64).map(|d| Tuple::new(vec![Value::Int(d), Value::Str(format!("dept-{d}"))]));
        db.load("dept", dept).unwrap();
        let emp = (0..3000i64).map(|i| {
            let note = if i % 7 == 0 { Value::Null } else { Value::Str(format!("note-{i}")) };
            Tuple::new(vec![Value::Int(i), Value::Int(i % 20), Value::Float(i as f64 * 1.5), note])
        });
        db.load("emp", emp).unwrap();
        let proj = (0..1500i64)
            .map(|p| Tuple::new(vec![Value::Int(p * 7 % 3000), Value::Float(p as f64 / 4.0)]));
        db.load("proj", proj).unwrap();
        db
    }

    /// A selection, a two-way join and a three-way join over `company_db`.
    fn company_graphs() -> Vec<QueryGraph> {
        let mut sel = QueryGraph::new();
        sel.add_selection(Selection::new("emp", Predicate::new("e_dept", CompareOp::Lt, 10)));
        let mut two = QueryGraph::new();
        two.add_join(Join::new("emp", "e_dept", "dept", "d_id"));
        let mut three = two.clone();
        three.add_join(Join::new("proj", "p_emp", "emp", "e_id"));
        three.add_selection(Selection::new("dept", Predicate::new("d_id", CompareOp::Lt, 15)));
        vec![sel, two, three]
    }

    fn age_query(limit: i64) -> Query {
        let mut g = QueryGraph::new();
        g.add_selection(Selection::new("employee", Predicate::new("age", CompareOp::Lt, limit)));
        Query::star(g).project("employee", "name")
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 2 "), Some(2));
        assert_eq!(parse_threads("0"), None, "zero workers is not a thing");
        assert_eq!(parse_threads("-1"), None);
        assert_eq!(parse_threads("many"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
    }

    #[test]
    fn parallel_execution_matches_serial_at_engine_level() {
        let mut serial = emp_db();
        let mut parallel = emp_db();
        parallel.set_threads(4);
        assert_eq!(parallel.threads(), 4);
        for q in [age_query(30), age_query(45)] {
            serial.clear_buffer();
            parallel.clear_buffer();
            let a = serial.execute(&q).unwrap();
            let b = parallel.execute(&q).unwrap();
            assert_eq!(a.rows, b.rows, "identical rows in identical order");
            assert_eq!(a.demand, b.demand, "identical resource demand");
            assert_eq!(a.elapsed, b.elapsed, "identical virtual time");
        }
    }

    #[test]
    fn set_threads_clamps_to_one() {
        let mut db = Database::new(DatabaseConfig::with_buffer_pages(16).threads(0));
        assert_eq!(db.threads(), 1);
        db.set_threads(0);
        assert_eq!(db.threads(), 1);
    }

    #[test]
    fn paper_intro_flow() {
        // The introduction's example: materialize σ(age<30)(employee)
        // during think time, then the final query runs on the view.
        let mut db = emp_db();
        let q = age_query(30);
        db.clear_buffer();
        let normal = db.execute(&q).unwrap();
        db.clear_buffer();
        let mut sub = QueryGraph::new();
        sub.add_selection(Selection::new("employee", Predicate::new("age", CompareOp::Lt, 30)));
        let mat = db.materialize(&sub, CancelToken::new()).unwrap();
        assert!(!mat.already_existed);
        assert!(mat.rows > 0);
        db.clear_buffer();
        let spec = db.execute(&q).unwrap();
        assert_eq!(spec.row_count, normal.row_count);
        assert_eq!(spec.used_views, vec![mat.table.clone()]);
        assert!(
            spec.demand.disk_reads() < normal.demand.disk_reads(),
            "rewritten query must read fewer pages ({} vs {})",
            spec.demand.disk_reads(),
            normal.demand.disk_reads()
        );
        assert!(spec.elapsed < normal.elapsed);
    }

    #[test]
    fn sql_round_trip_execution() {
        let mut db = emp_db();
        let q = parse_sql(&db, "SELECT name FROM employee WHERE age < 25").unwrap();
        let out = db.execute(&q).unwrap();
        assert_eq!(out.row_count, 2000 / 40 * 5);
        assert!(out.rows.iter().all(|r| r.arity() == 1));
    }

    #[test]
    fn materialize_is_idempotent() {
        let mut db = emp_db();
        let mut sub = QueryGraph::new();
        sub.add_selection(Selection::new("employee", Predicate::new("age", CompareOp::Lt, 30)));
        let first = db.materialize(&sub, CancelToken::new()).unwrap();
        let second = db.materialize(&sub, CancelToken::new()).unwrap();
        assert!(!first.already_existed);
        assert!(second.already_existed);
        assert_eq!(first.table, second.table);
        assert_eq!(second.elapsed, VirtualTime::ZERO);
    }

    #[test]
    fn cancelled_materialization_leaves_no_trace() {
        let mut db = emp_db();
        let mut sub = QueryGraph::new();
        sub.add_selection(Selection::new("employee", Predicate::new("age", CompareOp::Lt, 30)));
        let token = CancelToken::new();
        token.cancel();
        let err = db.materialize(&sub, token).unwrap_err();
        assert!(err.is_cancelled());
        assert!(!db.has_view(&sub));
        assert_eq!(db.views().len(), 0);
    }

    #[test]
    fn drop_materialized_frees_everything() {
        let mut db = emp_db();
        let mut sub = QueryGraph::new();
        sub.add_selection(Selection::new("employee", Predicate::new("age", CompareOp::Lt, 30)));
        let mat = db.materialize(&sub, CancelToken::new()).unwrap();
        db.drop_materialized(&mat.table);
        assert!(!db.has_view(&sub));
        assert!(db.catalog().table(&mat.table).is_none());
        // The query still runs (against the base table).
        let out = db.execute(&age_query(30)).unwrap();
        assert!(out.used_views.is_empty());
        assert!(out.row_count > 0);
    }

    #[test]
    fn gc_candidates_follow_partial_query() {
        let mut db = emp_db();
        let mut sub = QueryGraph::new();
        sub.add_selection(Selection::new("employee", Predicate::new("age", CompareOp::Lt, 30)));
        db.materialize(&sub, CancelToken::new()).unwrap();
        // Partial query still containing the predicate: no GC candidates.
        assert!(db.unsupported_views(&sub).is_empty());
        // Partial query without it: the view is condemned.
        let empty = QueryGraph::relation("employee");
        assert_eq!(db.unsupported_views(&empty).len(), 1);
    }

    #[test]
    fn type_mismatch_on_load() {
        let mut db = Database::new(DatabaseConfig::with_buffer_pages(16));
        db.create_table("t", Schema::new(vec![ColumnDef::new("a", DataType::Int)]))
            .unwrap();
        let err = db.load("t", vec![Tuple::new(vec![Value::Str("oops".into())])]).unwrap_err();
        assert!(matches!(err, ExecError::TypeMismatch { .. }));
    }

    #[test]
    fn estimates_track_reality_directionally() {
        let mut db = emp_db();
        let cheap = db.estimate_query_time(&age_query(21)).unwrap();
        let expensive = db.estimate_query_time(&age_query(60)).unwrap();
        assert!(cheap <= expensive);
        let mut sub = QueryGraph::new();
        sub.add_selection(Selection::new("employee", Predicate::new("age", CompareOp::Lt, 30)));
        let est = db.estimate_materialization(&sub).unwrap();
        assert!(est.rows > 0.0);
        assert!(est.scan_result < est.compute_now, "scanning the view must beat recomputing");
        let real = db.materialize(&sub, CancelToken::new()).unwrap();
        let ratio = est.rows / real.rows as f64;
        assert!((0.2..5.0).contains(&ratio), "estimate {} vs real {}", est.rows, real.rows);
    }

    #[test]
    fn forced_vs_cost_based_modes() {
        // Build a view that is *worse* than the base access path (the
        // paper's penalty case): index on age makes the base fast, the
        // view must be scanned.
        let mut db = emp_db();
        db.create_index("employee", "age").unwrap();
        let mut sub = QueryGraph::new();
        sub.add_selection(Selection::new("employee", Predicate::new("age", CompareOp::Lt, 58)));
        db.materialize(&sub, CancelToken::new()).unwrap();
        // Narrow final query: index would fetch few rows; forced rewrite
        // scans the big view.
        let mut g = QueryGraph::new();
        g.add_selection(Selection::new("employee", Predicate::new("age", CompareOp::Lt, 58)));
        g.add_selection(Selection::new("employee", Predicate::new("age", CompareOp::Lt, 21)));
        let q = Query::star(g);
        db.set_view_mode(ViewMode::Forced);
        let forced = db.execute(&q).unwrap();
        assert!(!forced.used_views.is_empty(), "forced mode must use the view");
        db.set_view_mode(ViewMode::CostBased);
        let cost_based = db.execute(&q).unwrap();
        assert_eq!(cost_based.row_count, forced.row_count);
    }

    #[test]
    fn index_and_histogram_manipulations_report_cost() {
        let mut db = emp_db();
        let idx = db.create_index("employee", "salary").unwrap();
        assert!(idx.elapsed > VirtualTime::ZERO);
        assert!(idx.demand.writes > 0, "index build writes leaf pages");
        let h = db.create_histogram("employee", "age").unwrap();
        assert!(h.elapsed > VirtualTime::ZERO);
        assert!(db.has_index("employee", "salary"));
        assert!(db.has_histogram("employee", "age"));
        assert!(db.create_index("employee", "ghost").is_err());
    }

    #[test]
    fn staging_pins_and_speeds_scans() {
        let mut db = emp_db();
        db.clear_buffer();
        let pages = db.catalog().table("employee").unwrap().stats.pages as u32;
        let out = db.stage("employee", pages).unwrap();
        assert!(db.is_staged("employee"));
        assert!(out.demand.seq_reads > 0, "staging reads the pages");
        // A scan right after an unrelated buffer flood still hits the
        // pinned pages.
        db.clear_buffer(); // clear() keeps pinned frames
        let q = age_query(60);
        let warm = db.execute_discard(&q).unwrap();
        assert_eq!(warm.demand.disk_reads(), 0, "staged pages must stay resident");
        db.unstage("employee");
        assert!(!db.is_staged("employee"));
        db.clear_buffer();
        let cold = db.execute_discard(&q).unwrap();
        assert!(cold.demand.disk_reads() > 0, "after unstage the scan is cold again");
    }

    #[test]
    fn staging_caps_at_quarter_pool() {
        let mut db = emp_db(); // 512-page pool
        db.stage("employee", u32::MAX).unwrap();
        let staged_resident = db.pool().resident();
        assert!(staged_resident <= 512, "sanity");
        // Cap is pool/4 = 128 pins.
        db.clear_buffer();
        assert!(db.pool().resident() <= 128 + 1);
        db.unstage("employee");
    }

    #[test]
    fn unsupported_staged_tracks_graph() {
        let mut db = emp_db();
        db.stage("employee", 4).unwrap();
        let mut g = QueryGraph::new();
        g.add_relation("employee");
        assert!(db.unsupported_staged(&g).is_empty());
        let empty = QueryGraph::new();
        assert_eq!(db.unsupported_staged(&empty), vec!["employee".to_string()]);
    }

    #[test]
    fn execute_discard_counts_without_rows() {
        let mut db = emp_db();
        let out = db.execute_discard(&age_query(30)).unwrap();
        assert!(out.rows.is_empty());
        assert!(out.row_count > 0);
    }

    #[test]
    fn aggregates_compute_correctly() {
        let mut db = emp_db();
        // Global aggregates over a filtered scan.
        let q = parse_sql(
            &db,
            "SELECT count(*), min(age), max(age), sum(age), avg(age) \
             FROM employee WHERE age < 25",
        )
        .unwrap();
        let out = db.execute(&q).unwrap();
        assert_eq!(out.row_count, 1);
        let row = &out.rows[0];
        // Ages cycle 20..59; ages 20-24 → 5/40 of 2000 = 250 rows.
        assert_eq!(row.get(0), &Value::Int(250));
        assert_eq!(row.get(1), &Value::Int(20));
        assert_eq!(row.get(2), &Value::Int(24));
        // sum = 250/5 * (20+21+22+23+24) = 50 * 110 = 5500.
        assert_eq!(row.get(3), &Value::Float(5500.0));
        assert_eq!(row.get(4), &Value::Float(22.0));
        assert_eq!(
            out.cols,
            vec![
                "count(*)",
                "min(employee.age)",
                "max(employee.age)",
                "sum(employee.age)",
                "avg(employee.age)"
            ]
        );
    }

    #[test]
    fn group_by_produces_sorted_groups() {
        let mut db = emp_db();
        let q = parse_sql(&db, "SELECT age, count(*) FROM employee WHERE age < 23 GROUP BY age")
            .unwrap();
        let out = db.execute(&q).unwrap();
        assert_eq!(out.row_count, 3);
        for (i, row) in out.rows.iter().enumerate() {
            assert_eq!(row.get(0), &Value::Int(20 + i as i64));
            assert_eq!(row.get(1), &Value::Int(50));
        }
    }

    #[test]
    fn empty_input_global_aggregate_yields_one_row() {
        let mut db = emp_db();
        let q = parse_sql(&db, "SELECT count(*) FROM employee WHERE age < 0").unwrap();
        let out = db.execute(&q).unwrap();
        assert_eq!(out.row_count, 1);
        assert_eq!(out.rows[0].get(0), &Value::Int(0));
        // ... but a grouped aggregate over nothing yields no rows.
        let q = parse_sql(&db, "SELECT age, count(*) FROM employee WHERE age < 0 GROUP BY age")
            .unwrap();
        assert_eq!(db.execute(&q).unwrap().row_count, 0);
    }

    #[test]
    fn aggregates_survive_view_rewriting() {
        let mut db = emp_db();
        let q = parse_sql(&db, "SELECT age, count(*) FROM employee WHERE age < 30 GROUP BY age")
            .unwrap();
        let before = db.execute(&q).unwrap();
        let mut sub = QueryGraph::new();
        sub.add_selection(Selection::new("employee", Predicate::new("age", CompareOp::Lt, 30)));
        db.materialize(&sub, CancelToken::new()).unwrap();
        let after = db.execute(&q).unwrap();
        assert!(!after.used_views.is_empty(), "forced mode must rewrite the core");
        assert_eq!(before.rows, after.rows, "aggregates over a view must agree");
    }

    #[test]
    fn batch_and_row_paths_agree_end_to_end() {
        let mut batch_db = emp_db();
        let mut row_db = emp_db();
        row_db.set_exec_mode(ExecMode::Row);
        assert_eq!(batch_db.exec_mode(), ExecMode::Columnar);
        let mut sub = QueryGraph::new();
        sub.add_selection(Selection::new("employee", Predicate::new("age", CompareOp::Lt, 30)));
        let mat_b = batch_db.materialize(&sub, CancelToken::new()).unwrap();
        let mat_r = row_db.materialize(&sub, CancelToken::new()).unwrap();
        assert_eq!(mat_b.rows, mat_r.rows);
        assert_eq!(mat_b.demand, mat_r.demand);
        for q in [age_query(30), age_query(55)] {
            batch_db.clear_buffer();
            row_db.clear_buffer();
            let b = batch_db.execute(&q).unwrap();
            let r = row_db.execute(&q).unwrap();
            assert_eq!(b.rows, r.rows, "tuples and order must be identical");
            assert_eq!(b.demand, r.demand, "virtual-time accounting must be identical");
            assert_eq!(b.elapsed, r.elapsed);
        }
    }

    #[test]
    fn materialized_views_are_segment_cached() {
        let mut db = emp_db();
        let mut sub = QueryGraph::new();
        sub.add_selection(Selection::new("employee", Predicate::new("age", CompareOp::Lt, 30)));
        let mat = db.materialize(&sub, CancelToken::new()).unwrap();
        let heap = db.catalog().table(&mat.table).unwrap().heap;
        let view_pages: Vec<specdb_storage::PageId> = (0..heap.pages(db.pool()))
            .map(|n| specdb_storage::PageId::new(heap.file, n))
            .collect();
        assert!(!view_pages.is_empty());
        let resident = |db: &Database| {
            let cache = db.pool().seg_cache();
            view_pages.iter().filter(|&&pid| cache.contains(pid)).count()
        };
        // A query over the view decodes its pages into the cache.
        db.execute_discard(&age_query(30)).unwrap();
        assert_eq!(resident(&db), view_pages.len(), "every view page is cached after a read");
        db.drop_materialized(&mat.table);
        assert_eq!(resident(&db), 0, "dropping the view drops its decoded pages");
    }

    #[test]
    fn table_segments_are_cached_within_the_budget_only() {
        let mut db = emp_db();
        db.pool.set_seg_budget(0);
        db.execute_discard(&age_query(60)).unwrap();
        assert_eq!(db.pool().seg_resident(), 0, "a scan over the budget caches nothing");
        db.pool.set_seg_budget(BufferPool::SEG_BUDGET_BYTES / PAGE_SIZE);
        db.execute_discard(&age_query(60)).unwrap();
        assert!(db.pool().seg_resident() > 0, "a scan under the budget caches its pages");
        db.pool.set_seg_budget(0);
        assert_eq!(db.pool().seg_resident(), 0, "shrinking the budget evicts");
    }

    #[test]
    fn join_materialization_round_trip() {
        // Two-table schema; materialize the join; final query uses it.
        let mut db = emp_db();
        db.create_table(
            "dept",
            Schema::new(vec![
                ColumnDef::new("age", DataType::Int),
                ColumnDef::new("label", DataType::Str),
            ]),
        )
        .unwrap();
        db.load(
            "dept",
            (20..60i64).map(|a| Tuple::new(vec![Value::Int(a), Value::Str(format!("d{a}"))])),
        )
        .unwrap();
        let mut sub = QueryGraph::new();
        sub.add_join(Join::new("employee", "age", "dept", "age"));
        sub.add_selection(Selection::new("employee", Predicate::new("age", CompareOp::Lt, 30)));
        let mat = db.materialize(&sub, CancelToken::new()).unwrap();
        assert!(mat.rows > 0);
        // Final query adds a predicate on dept on top of the join.
        let mut g = sub.clone();
        g.add_selection(Selection::new("dept", Predicate::new("label", CompareOp::Eq, "d25")));
        let out = db.execute(&Query::star(g)).unwrap();
        assert_eq!(out.used_views, vec![mat.table]);
        assert_eq!(out.row_count, 2000 / 40);
    }

    /// A build holds exactly the query's result: a scan of the view
    /// returns the executed rows in the executed order, on the same
    /// pages (byte for byte) and with the same statistics as a plain
    /// load of those rows — on both executors.
    #[test]
    fn materialized_view_equals_a_load_of_the_query_result() {
        for mode in [ExecMode::Columnar, ExecMode::Row] {
            for g in company_graphs() {
                let mut db = company_db(1);
                db.set_exec_mode(mode);
                let out = db.execute(&Query::star(g.clone())).unwrap();
                let mat = db.materialize(&g, CancelToken::new()).unwrap();
                let view = db.catalog().table(&mat.table).unwrap().clone();
                // The view stores the graph's columns in canonical order.
                let order: Vec<usize> = view
                    .schema
                    .columns()
                    .iter()
                    .map(|c| out.cols.iter().position(|n| *n == c.name).unwrap())
                    .collect();
                let rows: Vec<Tuple> = out.rows.iter().map(|t| t.project(&order)).collect();
                assert!(rows.len() > 1000, "{g:?} must span several pages");
                assert_eq!(view.heap.collect_all(&mut db.pool).unwrap(), rows, "{mode:?} {g:?}");
                let mut pool = BufferPool::new(256);
                let heap = HeapFile::create(&mut pool);
                let mut loader = BulkLoader::new();
                for t in &rows {
                    loader.push(t).unwrap();
                }
                loader.finish(&mut pool, heap).unwrap();
                assert_eq!(mat.pages, heap.pages(&pool) as u64);
                let stats = TableStats::analyze(&mut pool, heap, view.schema.arity()).unwrap();
                assert_eq!(view.stats, stats);
                for page_no in 0..heap.pages(&pool) {
                    let page = |pool: &mut BufferPool, file| {
                        let pid = specdb_storage::PageId::new(file, page_no);
                        pool.read_page(pid, specdb_storage::AccessKind::Sequential).unwrap()
                    };
                    let built = page(&mut db.pool, view.heap.file);
                    assert_eq!(built.as_bytes(), page(&mut pool, heap.file).as_bytes());
                }
            }
        }
    }

    /// The decoded-segment cache is wall-clock state only: a clone that
    /// caches nothing answers a multi-join query set with the same rows,
    /// virtual time and resource demand as one that caches every page.
    #[test]
    fn segment_cache_never_changes_results_or_accounting() {
        let db = company_db(1);
        let mut cached = db.clone();
        let mut uncached = db.clone();
        uncached.pool.set_seg_budget(0);
        for round in 0..2 {
            for g in company_graphs() {
                let q = Query::star(g.clone());
                let a = cached.execute(&q).unwrap();
                let b = uncached.execute(&q).unwrap();
                assert_eq!(a.rows, b.rows, "round {round} {g:?}");
                assert_eq!(a.elapsed, b.elapsed, "round {round} {g:?}");
                assert_eq!(a.demand, b.demand, "round {round} {g:?}");
            }
        }
        assert!(cached.pool().seg_resident() > 0, "the cached clone must serve decoded pages");
        assert_eq!(uncached.pool().seg_resident(), 0);
    }

    /// Everything a build could leave behind.
    fn build_traces(db: &Database) -> (Vec<String>, Vec<String>, usize, u64, usize) {
        let mut tables: Vec<String> = db.catalog().table_names().map(String::from).collect();
        tables.sort();
        let views = db.views().iter().map(|v| v.name.clone()).collect();
        let pool = db.pool();
        (tables, views, pool.file_count(), db.ddl_epoch(), pool.seg_resident_bytes())
    }

    /// A cancel that fires after execution, before page `k` of the result
    /// is installed, leaves no trace — for every `k`, at 1 and 4 threads.
    #[test]
    fn cancel_during_install_leaves_no_trace() {
        let g = company_graphs().pop().unwrap();
        let pages = company_db(1).materialize(&g, CancelToken::new()).unwrap().pages as usize;
        assert!(pages >= 3, "the result must span several pages");
        for threads in [1, 4] {
            let mut db = company_db(threads);
            // Warm the segment cache with the build's own reads, so only
            // the build's writes could move it.
            db.execute_discard(&Query::star(g.clone())).unwrap();
            let before = build_traces(&db);
            for k in 0..pages {
                let token = CancelToken::new();
                let mut installed = 0;
                let err = db
                    .materialize_checked(&g, token.clone(), || {
                        if installed == k {
                            token.cancel();
                        }
                        installed += 1;
                        token.check()
                    })
                    .unwrap_err();
                assert!(err.is_cancelled());
                assert_eq!(installed, k + 1, "every page before the cancel was installed");
                assert_eq!(build_traces(&db), before, "cancel before page {k}, {threads} threads");
            }
            let mat = db.materialize(&g, CancelToken::new()).unwrap();
            assert_eq!(mat.pages as usize, pages, "the database still builds the view");
        }
    }
}
