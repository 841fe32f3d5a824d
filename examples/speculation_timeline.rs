//! The life of every speculative bet in one trace, as data.
//!
//! Replays a single exploration trace with full observability switched
//! on: every speculation-lifecycle event (decision, start, cancel,
//! completion, used-at-GO, wasted) streams to a JSONL file stamped in
//! virtual time; the tracer's spans are exported as Chrome/Perfetto
//! `trace_event` JSON and rendered as a self-contained HTML timeline
//! dashboard (lanes for edits, builds colored used/wasted/cancelled,
//! queries, and worker occupancy); and the run ends with a per-operator
//! profile table, the metrics registry's counter/histogram summary, and
//! the speculator's prediction-calibration report.
//!
//! Run with: `cargo run --release --example speculation_timeline`
//! (optional first argument: path for the JSONL event log, default
//! `target/speculation_timeline.jsonl`; the Perfetto trace and HTML
//! dashboard are written next to it with `.trace.json` and `.html`
//! extensions).

use specdb::obs::events::parse_jsonl;
use specdb::obs::span::validate_chrome_trace;
use specdb::obs::{Event, JsonlSink, Observer, Tracer};
use specdb::sim::dashboard::render_timeline_html;
use specdb::sim::replay::{replay_trace, ReplayConfig};
use specdb::sim::report::{
    render_operator_profiles, render_speculation_summary, SpeculationSummary,
};
use specdb::sim::{build_base_db, DatasetSpec};
use specdb::trace::{UserModel, UserModelConfig};
use std::sync::Arc;

fn describe(event: &Event) -> Option<String> {
    Some(match event {
        Event::SpecDecision { manipulation, score, predicted_build_secs, .. } => format!(
            "decide   {manipulation} (score {score:.3}, predicted build {predicted_build_secs:.2}s)"
        ),
        Event::SpecStarted { manipulation, table } => {
            format!("start    {manipulation} -> {table}")
        }
        Event::SpecCancelled { manipulation, reason, .. } => {
            format!("cancel   {manipulation} ({reason:?})")
        }
        Event::SpecCompleted { table, build_secs, .. } => {
            format!("complete {table} (built in {build_secs:.2}s)")
        }
        Event::SpecUsed { table } => format!("used     {table} by the GO query"),
        Event::SpecWasted { table } => format!("wasted   {table} (never read)"),
        Event::SpecCollected { table } => format!("gc       {table}"),
        _ => return None,
    })
}

/// Report a bad output path and exit non-zero.
fn exit_bad_path(path: &str, why: impl std::fmt::Display) -> ! {
    eprintln!("speculation_timeline: cannot write the event log to {path}: {why}");
    std::process::exit(2);
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/speculation_timeline.jsonl".to_string());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            exit_bad_path(&path, e);
        }
    }
    let sink = Arc::new(JsonlSink::create(&path).unwrap_or_else(|e| exit_bad_path(&path, e)));

    let spec = DatasetSpec::tiny();
    println!("building {} base database...", spec.label);
    let base = build_base_db(&spec).expect("base db");

    let observer = Observer::enabled().with_sink(sink.clone()).with_tracer(Tracer::enabled());
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
    sink.flush().expect("flush event log");

    // Replay the event log back as a human-readable timeline.
    let log = std::fs::read_to_string(&path).expect("read event log");
    let events = parse_jsonl(&log).expect("parse event log");
    println!("## Speculation timeline ({} events total, log at {path})", events.len());
    for timed in &events {
        if let Some(line) = describe(&timed.event) {
            println!("  t={:8.2}s  {line}", timed.t_micros as f64 / 1e6);
        }
    }

    // Export the tracer's spans: Perfetto trace + HTML dashboard.
    let tracer = observer.tracer();
    let spans = tracer.spans();
    let stem = path.strip_suffix(".jsonl").unwrap_or(&path);
    let trace_path = format!("{stem}.trace.json");
    let chrome = tracer.to_chrome_trace();
    let n = validate_chrome_trace(&chrome).expect("trace JSON must satisfy the schema");
    std::fs::write(&trace_path, &chrome).expect("write Perfetto trace");
    println!("\nwrote {n} trace events to {trace_path} (open in ui.perfetto.dev)");

    let html_path = format!("{stem}.html");
    let timed: Vec<(u64, Event)> = events.iter().map(|t| (t.t_micros, t.event.clone())).collect();
    let html = render_timeline_html(
        &format!("speculation timeline — {} / seed {seed}", spec.label),
        &timed,
        &spans,
    );
    std::fs::write(&html_path, html).expect("write timeline dashboard");
    println!("wrote timeline dashboard to {html_path}");

    println!();
    print!("{}", render_operator_profiles(&tracer.operator_profiles()));

    println!();
    let summary = SpeculationSummary::from_outcomes(std::slice::from_ref(&outcome));
    print!("{}", render_speculation_summary(&summary, Some(observer.calibration())));

    println!("\n## Metrics");
    print!("{}", observer.metrics().snapshot().render());
    println!(
        "\nspans recorded: {} (dropped {}), sink events dropped: {}",
        spans.len(),
        tracer.dropped(),
        sink.dropped()
    );
}
