//! The life of every speculative bet in one trace, as data.
//!
//! Replays a single exploration trace with full observability switched
//! on. The tracer records each bet on the virtual clock: its decision, its
//! build (a `speculate` span), and the instants that follow it — cancel,
//! complete, used at GO, wasted, and garbage-collected — each keyed to
//! its build's span. The run prints them as a timeline, exports the spans
//! as Chrome/Perfetto `trace_event` JSON, and renders a self-contained
//! HTML timeline dashboard (lanes for edits, builds colored
//! used/wasted/cancelled, queries, and worker occupancy). It ends with a
//! per-operator profile table, the metrics registry's counter/histogram
//! summary, and the speculator's prediction-calibration report, and exits
//! 1 if the dashboard's verdict counts differ from the replay's own.
//!
//! Run with: `cargo run --release --example speculation_timeline`
//! (optional first argument: path for the Perfetto trace, default
//! `target/speculation_timeline.trace.json`; the HTML dashboard is
//! written next to it with an `.html` extension).

use specdb::obs::span::validate_chrome_trace;
use specdb::obs::{AttrValue, Observer, SpanKind, SpanRecord, Tracer};
use specdb::sim::dashboard::render_timeline_html;
use specdb::sim::replay::{replay_trace, ReplayConfig};
use specdb::sim::report::{
    render_operator_profiles, render_speculation_summary, SpeculationSummary,
};
use specdb::sim::{build_base_db, DatasetSpec};
use specdb::trace::{UserModel, UserModelConfig};
use std::collections::HashMap;

/// `span`'s attribute `key` as text (empty when absent).
fn attr(span: &SpanRecord, key: &str) -> String {
    match span.attr(key) {
        Some(AttrValue::Str(s)) => s.clone(),
        Some(AttrValue::Float(f)) => format!("{f:.3}"),
        Some(v) => v.as_u64().map_or_else(|| format!("{v:?}"), |n| n.to_string()),
        None => String::new(),
    }
}

/// One timeline line for `span`, if it is a step in a bet's life.
/// Lifecycle instants name their build through `builds`.
fn describe(span: &SpanRecord, builds: &HashMap<u64, &SpanRecord>) -> Option<String> {
    match span.kind {
        SpanKind::Decide if !attr(span, "chosen").is_empty() => {
            Some(format!("decide   {} (score {})", attr(span, "chosen"), attr(span, "score")))
        }
        SpanKind::Speculation if !span.instant => {
            Some(format!("start    {} -> {}", attr(span, "manipulation"), attr(span, "table")))
        }
        SpanKind::Speculation => {
            let build =
                span.attr("build").and_then(AttrValue::as_u64).and_then(|id| builds.get(&id));
            let of_build = |key| build.map(|b| attr(b, key)).unwrap_or_default();
            let table = Some(of_build("table"))
                .filter(|t| !t.is_empty())
                .unwrap_or_else(|| attr(span, "table"));
            Some(match span.name {
                "cancel" => {
                    format!("cancel   {} ({})", of_build("manipulation"), attr(span, "reason"))
                }
                "complete" => format!("complete {table} (built in {}s)", of_build("build_secs")),
                "used" => format!("used     {table} by the GO query"),
                "wasted" => format!("wasted   {table} (never read)"),
                step => format!("{step:<8} {table}"),
            })
        }
        _ => None,
    }
}

/// Report a bad output path and exit non-zero.
fn exit_bad_path(path: &str, why: impl std::fmt::Display) -> ! {
    eprintln!("speculation_timeline: cannot write the trace to {path}: {why}");
    std::process::exit(2);
}

fn main() {
    let trace_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/speculation_timeline.trace.json".to_string());
    // Fail on a bad path before the replay, not after it.
    if let Some(dir) = std::path::Path::new(&trace_path).parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            exit_bad_path(&trace_path, e);
        }
    }
    if let Err(e) = std::fs::File::create(&trace_path) {
        exit_bad_path(&trace_path, e);
    }

    let spec = DatasetSpec::tiny();
    println!("building {} base database...", spec.label);
    let base = build_base_db(&spec).expect("base db");

    let observer = Observer::enabled().with_tracer(Tracer::enabled());
    let mut db = base.clone();
    db.set_observer(observer.clone());

    let seed = std::env::var("SPECDB_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
    // A hurried user: think gaps comparable to build times, so the
    // timeline shows cancellations as well as completed-and-used bets.
    let model = UserModel::new(
        UserModelConfig {
            queries: 12,
            questions: 3,
            think_median_secs: 0.2,
            think_min_secs: 0.05,
            think_max_secs: 2.0,
            ..Default::default()
        },
        specdb::tpch::ExploreDomain::tpch(),
    );
    let trace = model.generate("explorer", seed);
    println!("replaying {} timed edits with speculation on...\n", trace.edits.len());
    let outcome = replay_trace(&mut db, &trace, &ReplayConfig::speculative()).expect("replay");

    // The spans, in virtual-time order, as a human-readable timeline.
    let tracer = observer.tracer();
    let spans = tracer.spans();
    let builds: HashMap<u64, &SpanRecord> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Speculation && !s.instant)
        .map(|s| (s.id, s))
        .collect();
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.virt_start_us, s.id));
    println!("## Speculation timeline ({} spans)", spans.len());
    for span in ordered {
        if let Some(line) = describe(span, &builds) {
            println!("  t={:8.2}s  {line}", span.virt_start_us as f64 / 1e6);
        }
    }

    // Export the spans: Perfetto trace + HTML dashboard.
    let chrome = tracer.to_chrome_trace();
    let n = validate_chrome_trace(&chrome).expect("trace JSON must satisfy the schema");
    std::fs::write(&trace_path, &chrome).unwrap_or_else(|e| exit_bad_path(&trace_path, e));
    println!("\nwrote {n} trace events to {trace_path} (open in ui.perfetto.dev)");

    let stem = trace_path.strip_suffix(".trace.json").unwrap_or(&trace_path);
    let html_path = format!("{stem}.html");
    let html = render_timeline_html(
        &format!("speculation timeline — {} / seed {seed}", spec.label),
        &spans,
    );
    std::fs::write(&html_path, &html).expect("write timeline dashboard");
    println!("wrote timeline dashboard to {html_path}");

    println!();
    print!("{}", render_operator_profiles(&tracer.operator_profiles()));

    println!();
    let summary = SpeculationSummary::from_outcomes(std::slice::from_ref(&outcome));
    print!("{}", render_speculation_summary(&summary, Some(observer.calibration())));

    println!("\n## Metrics");
    print!("{}", observer.metrics().snapshot().render());
    println!("\nspans recorded: {} (dropped {})", spans.len(), tracer.dropped());

    // The dashboard must draw the replay's own verdicts.
    let verdicts = format!(
        "{} used, {} wasted, {} cancelled",
        outcome.used, outcome.wasted, outcome.cancelled
    );
    if !html.contains(&verdicts) {
        eprintln!("speculation_timeline: the dashboard does not show the replay's {verdicts}");
        std::process::exit(1);
    }
    println!("dashboard agrees with the replay: {verdicts}");
}
