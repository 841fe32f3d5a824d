//! Per-layer metrics of a traced run.
//!
//! Inputs come from outside the program: the spans its tracer already
//! records (Decide, Speculation, Execute, Operator), its metric counters,
//! its calibration tracker, replay outcomes, `STATS` replies, and the
//! benchmark's own spans around each call into a layer. Every metric is
//! always emitted; a layer a workload does not exercise reads 0.

use crate::report::Metrics;
use crate::spans::{durations_us, wall_us, Layer, SpanTree};
use crate::stats::quantile;
use specdb_obs::{MetricsSnapshot, SpanKind, SpanRecord};

/// Operators whose GO-time self time is reported.
pub const OPERATORS: [&str; 6] =
    ["seq_scan", "index_scan", "hash_join", "index_nl_join", "aggregate", "project"];

/// Speculation counters of the `core` layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreCounts {
    pub issued: u64,
    pub completed: u64,
    pub cancelled: u64,
    pub used: u64,
    pub wasted: u64,
    pub predicted_issued: u64,
    pub predicted_hits: u64,
    pub salvaged_hits: u64,
    pub predicted_wasted: u64,
}

impl CoreCounts {
    /// Sum the counters of replay outcomes.
    pub fn of(outcomes: &[specdb_sim::ReplayOutcome]) -> Self {
        let mut c = CoreCounts::default();
        for o in outcomes {
            c.issued += o.issued;
            c.completed += o.completed;
            c.cancelled += o.cancelled;
            c.used += o.used;
            c.wasted += o.wasted;
            c.predicted_issued += o.predicted_issued;
            c.predicted_hits += o.predicted_hits;
            c.salvaged_hits += o.salvaged_hits;
            c.predicted_wasted += o.predicted_wasted;
        }
        c
    }
}

/// Fleet counters of the `serve` layer: governor, shared artifacts, and
/// build completion.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeCounts {
    pub admitted: u64,
    pub denied: u64,
    pub preempted: u64,
    pub shared_hits: u64,
    pub deduped: u64,
    pub collected: u64,
    pub artifact_uses: u64,
    pub builds_issued: u64,
    pub builds_completed: u64,
}

/// Set-up phase durations, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub datagen_s: f64,
    pub tracegen_s: f64,
    pub oracle_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.datagen_s + self.tracegen_s + self.oracle_s
    }
}

/// Everything a traced run collects.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// Spans of the traced pass (program and benchmark).
    pub spans: Vec<SpanRecord>,
    /// Spans the tracer discarded at its cap.
    pub spans_dropped: u64,
    /// Wall time of the traced pass, microseconds.
    pub traced_wall_us: f64,
    /// Wall time of the same work untraced, microseconds.
    pub untraced_wall_us: f64,
    /// GOs answered per second of program wall time, untraced.
    pub gos_per_s: f64,
    /// The program's metric counters after the traced pass.
    pub counters: MetricsSnapshot,
    /// Mean relative error of build-time estimates, with its sample count.
    pub build_est: Option<(f64, u64)>,
    pub core: CoreCounts,
    pub serve: ServeCounts,
    /// Final queries answered in the traced pass.
    pub gos: u64,
    /// Rows those final queries returned.
    pub rows_returned: u64,
    /// Plan-cache hits and lookups in the traced pass.
    pub plan_cache: (u64, u64),
    /// Time to take the live server's database lock, sampled in think time.
    pub lock_wait_us: Vec<f64>,
    /// `STATS` round trips, sampled in think time.
    pub stats_rtt_us: Vec<f64>,
    /// Untraced GO and EDIT round trips at the client.
    pub go_rtt_ms: Vec<f64>,
    pub edit_rtt_ms: Vec<f64>,
    pub setup: SetupTimes,
}

/// Quantile, or 0 for an empty sample (the layer did not run).
fn q0(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        quantile(samples, q)
    }
}

/// Compute every per-layer metric.
pub fn per_layer(i: &LayerInputs) -> Metrics {
    let mut m = Metrics::default();
    let tree = SpanTree::new(&i.spans);
    let by_layer = tree.self_by_layer();
    let busy = |l: Layer| by_layer.get(&l).copied().unwrap_or(0) as f64;
    let wall = i.traced_wall_us;
    let c = |name: &str| i.counters.counter(name) as f64;

    // serve
    m.put("serve.db_lock_wait_us.p50", q0(&i.lock_wait_us, 0.50), "us");
    m.put("serve.db_lock_wait_us.p99", q0(&i.lock_wait_us, 0.99), "us");
    m.put("serve.stats_rtt_us.p50", q0(&i.stats_rtt_us, 0.50), "us");
    m.put("serve.go_rtt_ms.p50", q0(&i.go_rtt_ms, 0.50), "ms");
    m.put("serve.go_rtt_ms.p95", q0(&i.go_rtt_ms, 0.95), "ms");
    m.put("serve.edit_rtt_ms.p50", q0(&i.edit_rtt_ms, 0.50), "ms");
    m.put("serve.edit_rtt_ms.p95", q0(&i.edit_rtt_ms, 0.95), "ms");
    let s = &i.serve;
    m.put("serve.governor.admitted", s.admitted as f64, "count");
    m.put("serve.governor.denied", s.denied as f64, "count");
    m.put("serve.governor.preempted", s.preempted as f64, "count");
    m.put("serve.cache.shared_hits", s.shared_hits as f64, "count");
    m.put("serve.cache.deduped", s.deduped as f64, "count");
    m.put("serve.cache.collected", s.collected as f64, "count");
    m.ratio(
        "serve.cross_session_reuse",
        "ratio",
        s.shared_hits as f64,
        "serve.artifact_uses",
        s.artifact_uses as f64,
        "count",
    );
    m.ratio(
        "serve.build_completed_ratio",
        "ratio",
        s.builds_completed as f64,
        "serve.builds_issued",
        s.builds_issued as f64,
        "count",
    );

    // core
    let decide_us = durations_us(&i.spans, SpanKind::Decide);
    m.put("core.decide_us.p50", q0(&decide_us, 0.50), "us");
    m.put("core.decide_us.p99", q0(&decide_us, 0.99), "us");
    m.ratio("core.decide_share", "ratio", busy(Layer::Decide), "obs.traced_wall_us", wall, "us");
    let k = &i.core;
    m.put("core.issued", k.issued as f64, "count");
    m.put("core.completed", k.completed as f64, "count");
    m.put("core.cancelled", k.cancelled as f64, "count");
    m.put("core.used", k.used as f64, "count");
    m.put("core.wasted", k.wasted as f64, "count");
    m.ratio(
        "core.hit_ratio",
        "ratio",
        k.used as f64,
        "core.resolved",
        (k.used + k.wasted) as f64,
        "count",
    );
    m.put("core.predicted_hits", k.predicted_hits as f64, "count");
    m.put("core.salvaged_hits", k.salvaged_hits as f64, "count");
    m.ratio(
        "core.prediction_waste_ratio",
        "ratio",
        k.predicted_wasted as f64,
        "core.predicted_issued",
        k.predicted_issued as f64,
        "count",
    );
    let build_ms = |predicted: bool| -> f64 {
        i.spans
            .iter()
            .filter(|s| {
                s.kind == SpanKind::Speculation && crate::spans::is_predicted_build(s) == predicted
            })
            .map(|s| wall_us(s) as f64 / 1e3)
            .sum()
    };
    m.put("core.build_wall_ms.manip", build_ms(false), "ms");
    m.put("core.build_wall_ms.predict", build_ms(true), "ms");
    m.ratio(
        "core.build_share.manip",
        "ratio",
        busy(Layer::BuildManip),
        "obs.traced_wall_us",
        wall,
        "us",
    );
    m.ratio(
        "core.build_share.predict",
        "ratio",
        busy(Layer::BuildPredict),
        "obs.traced_wall_us",
        wall,
        "us",
    );
    let (err, samples) = i.build_est.unwrap_or((0.0, 0));
    m.with_base(
        "core.build_est_rel_err",
        err,
        "ratio",
        "core.build_est_samples",
        samples as f64,
        "count",
    );

    // exec
    let go_us: Vec<f64> = durations_us(&i.spans, SpanKind::Execute);
    m.put("exec.go_wall_us.p50", q0(&go_us, 0.50), "us");
    m.put("exec.go_wall_us.p95", q0(&go_us, 0.95), "us");
    m.ratio("exec.go_share", "ratio", busy(Layer::Go), "obs.traced_wall_us", wall, "us");
    let ops = tree.go_operator_self_us();
    for op in OPERATORS {
        let total = ops.get(op).copied().unwrap_or(0) as f64;
        m.ratio(
            &format!("exec.op_self_us.{op}"),
            "us",
            total,
            "exec.go_queries",
            i.gos as f64,
            "count",
        );
    }
    let (hits, lookups) = i.plan_cache;
    m.ratio(
        "exec.plan_cache_hit_ratio",
        "ratio",
        hits as f64,
        "exec.plan_cache_lookups",
        lookups as f64,
        "count",
    );
    m.ratio(
        "exec.view_rewritten_ratio",
        "ratio",
        c("exec.queries.view_rewritten"),
        "exec.go_queries",
        i.gos as f64,
        "count",
    );
    m.put("exec.pages_skipped", c("exec.pages_skipped"), "count");
    m.ratio(
        "exec.tuples_per_row",
        "tuples/row",
        c("cpu.tuples"),
        "exec.rows_returned",
        i.rows_returned as f64,
        "count",
    );

    // storage
    let reads = c("disk.read.seq") + c("disk.read.rand");
    m.ratio(
        "storage.buffer_hit_ratio",
        "ratio",
        c("buffer.hit"),
        "storage.page_accesses",
        c("buffer.hit") + reads,
        "count",
    );
    m.ratio(
        "storage.disk_reads_per_go",
        "pages/GO",
        reads,
        "exec.go_queries",
        i.gos as f64,
        "count",
    );
    m.ratio(
        "storage.disk_writes_per_build",
        "pages/build",
        c("disk.write"),
        "core.completed",
        k.completed as f64,
        "count",
    );
    m.ratio(
        "storage.segcache_hit_ratio",
        "ratio",
        c("segcache.hit"),
        "storage.segcache_lookups",
        c("segcache.hit") + c("segcache.miss"),
        "count",
    );
    m.put("storage.segcache_evictions", c("segcache.evictions"), "count");
    let decode = i.counters.histograms.get("segcache.decode_us").map_or(0.0, |h| h.p50());
    m.put("storage.decode_us.p50", decode, "us");
    m.ratio(
        "storage.prefetch_useful_ratio",
        "ratio",
        c("segcache.prefetch_useful.manip") + c("segcache.prefetch_useful.predict"),
        "storage.prefetch_issued",
        c("segcache.prefetch_issued"),
        "count",
    );

    // sim and obs
    m.put("sim.gos_per_s", i.gos_per_s, "1/s");
    m.ratio("sim.self_share", "ratio", busy(Layer::Sim), "obs.traced_wall_us", wall, "us");
    let overhead =
        if i.untraced_wall_us > 0.0 { (wall / i.untraced_wall_us - 1.0) * 100.0 } else { 0.0 };
    m.put("obs.trace_overhead_pct", overhead, "%");
    m.put("obs.spans_dropped", i.spans_dropped as f64, "count");

    // set-up
    m.put("setup.datagen_s", i.setup.datagen_s, "s");
    m.put("setup.tracegen_s", i.setup.tracegen_s, "s");
    m.put("setup.oracle_s", i.setup.oracle_s, "s");
    m
}

/// Where the traced wall time went, one line per layer: the answer to
/// "what does replay wall time consist of" for a replay workload.
pub fn render_breakdown(m: &Metrics) -> String {
    let wall_ms = m.get("obs.traced_wall_us").unwrap_or(0.0) / 1e3;
    let rows = [
        ("decide", "core.decide_share"),
        ("manipulation builds", "core.build_share.manip"),
        ("predicted builds", "core.build_share.predict"),
        ("GO execution", "exec.go_share"),
        ("replay bookkeeping", "sim.self_share"),
    ];
    let mut out = format!("traced wall {wall_ms:.1} ms:\n");
    let mut sum = 0.0;
    for (label, key) in rows {
        let share = m.get(key).unwrap_or(0.0);
        sum += share;
        out.push_str(&format!(
            "  {label:<20} {:>9.1} ms  {:>5.1}%\n",
            share * wall_ms,
            share * 100.0
        ));
    }
    out.push_str(&format!("  {:<20} {:>9}     {:>5.1}%\n", "accounted", "", sum * 100.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ratio_is_printed_with_its_base() {
        let m = per_layer(&LayerInputs::default());
        let mut ratios = 0;
        for name in m.names() {
            let looks_like_ratio = name.contains("ratio")
                || name.ends_with("_share")
                || name.contains("_share.")
                || name.contains("_per_go")
                || name.contains("_per_build")
                || name.contains("_per_row")
                || name.starts_with("exec.op_self_us.")
                || name == "core.build_est_rel_err"
                || name == "serve.cross_session_reuse";
            if looks_like_ratio {
                ratios += 1;
                let base = m.base_of(name).unwrap_or_else(|| panic!("{name} has no base"));
                assert!(m.get(base).is_some(), "{name}'s base {base} is not printed");
            }
        }
        assert!(ratios >= 20, "found only {ratios} ratios");
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let root = serde_json::parse(&text).expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<String> {
            let list = serde::get_field(root.as_object().unwrap(), key).unwrap();
            let mut v: Vec<String> = list
                .as_array()
                .unwrap()
                .iter()
                .map(|e| {
                    let n = serde::get_field(e.as_object().unwrap(), "name").unwrap();
                    n.as_str().unwrap().to_string()
                })
                .collect();
            v.sort();
            v
        };
        let emitted: Vec<String> =
            per_layer(&LayerInputs::default()).names().map(str::to_string).collect();
        assert_eq!(names("per_layer"), emitted);
        let mut e2e: Vec<String> = crate::END_TO_END.iter().map(|s| s.to_string()).collect();
        e2e.sort();
        assert_eq!(names("end_to_end"), e2e);
    }
}
