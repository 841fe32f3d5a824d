//! End-to-end tracing: a multi-threaded speculative replay with the
//! tracer attached must yield a schema-valid Chrome/Perfetto trace, a
//! populated per-operator profile, latency histograms, and a timeline
//! dashboard whose build verdicts are the replay's own counts.

use specdb::obs::span::{validate_chrome_trace, SpanKind};
use specdb::obs::{Observer, Tracer};
use specdb::sim::dashboard::render_timeline_html;
use specdb::sim::replay::{replay_trace, ReplayConfig};
use specdb::sim::report::render_operator_profiles;
use specdb::sim::{build_base_db, DatasetSpec};
use specdb::trace::{UserModel, UserModelConfig};

#[test]
fn traced_replay_produces_valid_artifacts() {
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    // A hurried user: think gaps comparable to build times, so edits and
    // GOs cancel builds as well as settle them.
    let cfg = UserModelConfig {
        queries: 8,
        questions: 2,
        think_median_secs: 0.2,
        think_min_secs: 0.05,
        think_max_secs: 2.0,
        ..Default::default()
    };
    let trace =
        UserModel::new(cfg, specdb::tpch::ExploreDomain::tpch()).generate("tracing-user", 42);
    assert!(trace.edits.len() >= 20, "fixture trace too small: {} edits", trace.edits.len());

    let tracer = Tracer::enabled();
    let mut db = base.clone();
    db.set_threads(4);
    db.set_observer(Observer::enabled().with_tracer(tracer.clone()));
    let outcome = replay_trace(&mut db, &trace, &ReplayConfig::speculative()).unwrap();
    assert!(outcome.issued > 0, "fixture must speculate");
    assert!(outcome.cancelled > 0, "fixture must cancel a build");

    let spans = tracer.spans();
    let count = |k: SpanKind| spans.iter().filter(|s| s.kind == k).count();
    assert_eq!(count(SpanKind::Session), 1, "one session span per replay");
    assert_eq!(count(SpanKind::Execute), outcome.queries.len(), "one execute span per GO query");
    assert!(count(SpanKind::Decide) > 0, "speculator decisions must be traced");
    let builds =
        spans.iter().filter(|s| s.kind == SpanKind::Speculation && !s.instant).count() as u64;
    assert!(builds >= outcome.issued, "every issued build has its speculate span");
    assert!(count(SpanKind::Operator) > 0, "per-operator spans must be recorded");
    assert!(count(SpanKind::Morsel) > 0, "4-thread run must record morsel spans");
    assert!(count(SpanKind::Edit) >= 20, "every user edit leaves an instant");
    assert_eq!(tracer.dropped(), 0, "span cap must not trip on a small replay");

    // Spans nest: every parent id must exist, and operator spans sit
    // under an execute (or another operator) span.
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    for s in &spans {
        if let Some(p) = s.parent {
            assert!(ids.contains(&p), "span {} has dangling parent {p}", s.id);
        }
        assert!(s.virt_end_us >= s.virt_start_us);
        assert!(s.wall_end_us >= s.wall_start_us);
    }

    // Chrome trace_event export passes the schema check and round-trips
    // through the JSON parser.
    let chrome = tracer.to_chrome_trace();
    let n = validate_chrome_trace(&chrome).expect("trace JSON must satisfy the schema");
    assert!(n >= spans.len(), "every span becomes at least one event");

    // Operator profiles aggregate and render.
    let profiles = tracer.operator_profiles();
    assert!(!profiles.is_empty());
    let table = render_operator_profiles(&profiles);
    assert!(table.contains("seq_scan") || table.contains("project"), "table:\n{table}");

    // Latency histograms landed in the metrics registry with quantiles.
    let snapshot = db.observer().metrics().snapshot();
    let rendered = snapshot.render();
    for h in ["lat.decide_us", "lat.query_secs", "lat.time_to_go_secs", "lat.spec_build_secs"] {
        assert!(rendered.contains(h), "missing histogram {h} in:\n{rendered}");
    }
    assert!(rendered.contains("p95="), "histograms must render quantiles");

    // The dashboard renders from the same spans and draws the replay's
    // own verdicts.
    let html = render_timeline_html("tracing test", &spans);
    assert!(html.contains("<svg"), "dashboard must draw charts");
    assert!(html.contains("queries"), "dashboard must label lanes");
    let verdicts = format!(
        "{} used, {} wasted, {} cancelled",
        outcome.used, outcome.wasted, outcome.cancelled
    );
    assert!(html.contains(&verdicts), "dashboard disagrees with the replay ({verdicts})");
}

/// Disabled tracing stays zero-cost and empty: no spans accumulate and
/// exports degrade gracefully.
#[test]
fn disabled_tracer_records_nothing_during_replay() {
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let cfg = UserModelConfig { queries: 2, questions: 1, ..Default::default() };
    let trace = UserModel::new(cfg, specdb::tpch::ExploreDomain::tpch()).generate("u", 7);
    let mut db = base.clone();
    // Observer enabled (metrics flow) but tracer left at its default:
    // disabled unless SPECDB_TRACE opts in.
    db.set_observer(Observer::enabled().with_tracer(Tracer::disabled()));
    replay_trace(&mut db, &trace, &ReplayConfig::speculative()).unwrap();
    let tracer = db.observer().tracer().clone();
    assert!(!tracer.is_enabled());
    assert!(tracer.spans().is_empty());
    assert!(tracer.operator_profiles().is_empty());
    validate_chrome_trace(&tracer.to_chrome_trace()).expect("empty trace still schema-valid");
}
