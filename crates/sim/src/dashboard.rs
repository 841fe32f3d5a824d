//! Speculation-timeline dashboard: a self-contained HTML/SVG rendering
//! of one replay, in the style of the Jovis visualizer — lanes for user
//! edits, speculative builds (colored by verdict), final queries, and
//! worker-pool occupancy.
//!
//! The top chart draws the *virtual* clock (the experiment timeline the
//! paper reasons about); the bottom chart draws *wall* time per worker
//! thread (where the engine actually spent CPU). The one input is the
//! tracer's span records: a build is a `speculate` span, and its verdict
//! is the `cancel`, `used` or `wasted` instant whose `build` attribute
//! names that span, so two builds of the same view keep their own
//! verdicts. Everything is inlined — no external scripts or styles — so
//! the file can be archived as a CI artifact.

use specdb_obs::{AttrValue, SpanKind, SpanRecord};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;

const CHART_W: f64 = 1160.0;
const MARGIN: f64 = 80.0;
const LANE_H: f64 = 30.0;
const BAR_H: f64 = 18.0;

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn attr_str<'a>(span: &'a SpanRecord, key: &str) -> Option<&'a str> {
    match span.attr(key) {
        Some(AttrValue::Str(s)) => Some(s),
        _ => None,
    }
}

fn attr_u64(span: &SpanRecord, key: &str) -> u64 {
    span.attr(key).and_then(AttrValue::as_u64).unwrap_or(0)
}

/// A speculative build's fate, as drawn on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Used,
    Wasted,
    Cancelled,
    Unresolved,
}

impl Verdict {
    fn color(self) -> &'static str {
        match self {
            Verdict::Used => "#2e7d32",
            Verdict::Wasted => "#ef6c00",
            Verdict::Cancelled => "#c62828",
            Verdict::Unresolved => "#607d8b",
        }
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Used => "used",
            Verdict::Wasted => "wasted",
            Verdict::Cancelled => "cancelled",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Render the speculation timeline of `spans`, a tracer's finished span
/// records from one replay, as a complete HTML document. With no spans
/// the lanes simply come out blank.
pub fn render_timeline_html(title: &str, spans: &[SpanRecord]) -> String {
    let mut settled: HashMap<u64, Verdict> = HashMap::new();
    for s in spans.iter().filter(|s| s.kind == SpanKind::Speculation && s.instant) {
        let verdict = match s.name {
            "cancel" => Verdict::Cancelled,
            "used" => Verdict::Used,
            "wasted" => Verdict::Wasted,
            _ => continue,
        };
        if let Some(build) = s.attr("build").and_then(AttrValue::as_u64) {
            settled.insert(build, verdict);
        }
    }

    let edits: Vec<&SpanRecord> =
        spans.iter().filter(|s| s.kind == SpanKind::Edit && s.instant).collect();
    let builds: Vec<(&SpanRecord, Verdict)> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Speculation && !s.instant)
        .map(|b| (b, settled.get(&b.id).copied().unwrap_or(Verdict::Unresolved)))
        .collect();
    let queries: Vec<&SpanRecord> = spans.iter().filter(|s| s.kind == SpanKind::Execute).collect();
    let mut morsels: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.kind == SpanKind::Morsel) {
        morsels.entry(s.thread).or_default().push(s);
    }

    let virt_max = edits
        .iter()
        .map(|s| s.virt_end_us)
        .chain(builds.iter().map(|(s, _)| s.virt_end_us))
        .chain(queries.iter().map(|s| s.virt_end_us))
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let wall_max = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Morsel || s.kind == SpanKind::Operator)
        .map(|s| s.wall_end_us)
        .max()
        .unwrap_or(1)
        .max(1) as f64;

    let vx = |t: u64| MARGIN + t as f64 / virt_max * (CHART_W - 2.0 * MARGIN);
    let wx = |t: u64| MARGIN + t as f64 / wall_max * (CHART_W - 2.0 * MARGIN);
    let lane_y = |lane: usize| 30.0 + lane as f64 * LANE_H;

    let mut html = String::new();
    writeln!(html, "<!DOCTYPE html>").unwrap();
    writeln!(html, "<html lang=\"en\"><head><meta charset=\"utf-8\">").unwrap();
    writeln!(html, "<title>{}</title>", esc(title)).unwrap();
    writeln!(
        html,
        "<style>\n\
         body {{ font: 13px/1.5 system-ui, sans-serif; margin: 24px; color: #222; }}\n\
         h1 {{ font-size: 18px; }} h2 {{ font-size: 15px; margin-top: 28px; }}\n\
         svg {{ background: #fafafa; border: 1px solid #ddd; border-radius: 4px; }}\n\
         .lane-label {{ font-size: 11px; fill: #555; }}\n\
         .axis {{ stroke: #bbb; stroke-width: 1; }}\n\
         .tick-label {{ font-size: 10px; fill: #888; }}\n\
         .legend span {{ display: inline-block; margin-right: 18px; }}\n\
         .swatch {{ display: inline-block; width: 11px; height: 11px; border-radius: 2px;\n\
                    margin-right: 4px; vertical-align: -1px; }}\n\
         </style></head><body>"
    )
    .unwrap();
    writeln!(html, "<h1>{}</h1>", esc(title)).unwrap();

    // Legend.
    writeln!(html, "<p class=\"legend\">").unwrap();
    for v in [Verdict::Used, Verdict::Wasted, Verdict::Cancelled, Verdict::Unresolved] {
        writeln!(
            html,
            "<span><i class=\"swatch\" style=\"background:{}\"></i>build {}</span>",
            v.color(),
            v.label()
        )
        .unwrap();
    }
    writeln!(
        html,
        "<span><i class=\"swatch\" style=\"background:#1565c0\"></i>final query</span>\
         <span><i class=\"swatch\" style=\"background:#9e9e9e\"></i>edit</span>\
         <span><i class=\"swatch\" style=\"background:#000\"></i>GO</span></p>"
    )
    .unwrap();

    // ---- Virtual-time chart: edits, builds, queries. ----
    let vh = lane_y(3) + 30.0;
    writeln!(html, "<h2>Virtual timeline ({:.2}s)</h2>", virt_max / 1e6).unwrap();
    writeln!(html, "<svg width=\"{CHART_W}\" height=\"{vh}\" role=\"img\">").unwrap();
    for (lane, label) in ["user edits", "spec builds", "queries"].iter().enumerate() {
        let y = lane_y(lane);
        writeln!(
            html,
            "<text class=\"lane-label\" x=\"6\" y=\"{:.1}\">{}</text>",
            y + BAR_H - 5.0,
            label
        )
        .unwrap();
        writeln!(
            html,
            "<line class=\"axis\" x1=\"{MARGIN}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\"/>",
            y + BAR_H + 2.0,
            CHART_W - MARGIN / 2.0,
            y + BAR_H + 2.0
        )
        .unwrap();
    }
    // Time ticks (5 divisions).
    for i in 0..=5u32 {
        let t = virt_max * i as f64 / 5.0;
        let x = MARGIN + (CHART_W - 2.0 * MARGIN) * i as f64 / 5.0;
        writeln!(
            html,
            "<text class=\"tick-label\" x=\"{:.1}\" y=\"{:.1}\">{:.1}s</text>",
            x - 8.0,
            vh - 6.0,
            t / 1e6
        )
        .unwrap();
    }
    // Edits: ticks; GO gets a full-height black marker.
    for e in &edits {
        let x = vx(e.virt_start_us);
        let go = e.name == "go";
        let (color, h) = if go { ("#000", BAR_H + 4.0) } else { ("#9e9e9e", BAR_H - 4.0) };
        writeln!(
            html,
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"2\" height=\"{:.1}\" fill=\"{}\">\
             <title>{} @ {:.3}s</title></rect>",
            x,
            lane_y(0) + if go { -2.0 } else { 2.0 },
            h,
            color,
            esc(e.name),
            e.virt_start_us as f64 / 1e6
        )
        .unwrap();
    }
    // Builds, colored by verdict; hit/miss markers ride on the same lane.
    for &(b, verdict) in &builds {
        let (x0, x1) = (vx(b.virt_start_us), vx(b.virt_end_us));
        let manip = attr_str(b, "manipulation").unwrap_or_default();
        writeln!(
            html,
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{BAR_H}\" rx=\"2\" \
             fill=\"{}\" fill-opacity=\"0.85\">\
             <title>{} [{}] {:.3}s\u{2013}{:.3}s</title></rect>",
            x0,
            lane_y(1),
            (x1 - x0).max(2.0),
            verdict.color(),
            esc(manip),
            verdict.label(),
            b.virt_start_us as f64 / 1e6,
            b.virt_end_us as f64 / 1e6,
        )
        .unwrap();
        if verdict == Verdict::Used || verdict == Verdict::Wasted {
            let (mark, my) =
                if verdict == Verdict::Used { ("#2e7d32", -4.0) } else { ("#ef6c00", -4.0) };
            writeln!(
                html,
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3.5\" fill=\"{}\" stroke=\"#fff\">\
                 <title>{} {}</title></circle>",
                x1,
                lane_y(1) + my,
                mark,
                attr_str(b, "table").unwrap_or(""),
                if verdict == Verdict::Used { "hit" } else { "miss" }
            )
            .unwrap();
        }
    }
    // Final queries.
    for q in &queries {
        let (x0, x1) = (vx(q.virt_start_us), vx(q.virt_end_us));
        writeln!(
            html,
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{BAR_H}\" rx=\"2\" \
             fill=\"#1565c0\" fill-opacity=\"0.85\">\
             <title>query: {} rows, {:.3}s\u{2013}{:.3}s</title></rect>",
            x0,
            lane_y(2),
            (x1 - x0).max(2.0),
            attr_u64(q, "rows"),
            q.virt_start_us as f64 / 1e6,
            q.virt_end_us as f64 / 1e6,
        )
        .unwrap();
    }
    writeln!(html, "</svg>").unwrap();

    // ---- Wall-time chart: worker-pool occupancy from morsel spans. ----
    writeln!(html, "<h2>Worker occupancy, wall time ({:.1}ms)</h2>", wall_max / 1e3).unwrap();
    if morsels.is_empty() {
        writeln!(html, "<p>(no morsel spans — single-threaded run or tracing disabled)</p>")
            .unwrap();
    } else {
        let wh = 30.0 + morsels.len() as f64 * LANE_H + 30.0;
        writeln!(html, "<svg width=\"{CHART_W}\" height=\"{wh}\" role=\"img\">").unwrap();
        for (lane, (thread, spans)) in morsels.iter().enumerate() {
            let y = lane_y(lane);
            writeln!(
                html,
                "<text class=\"lane-label\" x=\"6\" y=\"{:.1}\">thread {}</text>",
                y + BAR_H - 5.0,
                thread
            )
            .unwrap();
            writeln!(
                html,
                "<line class=\"axis\" x1=\"{MARGIN}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\"/>",
                y + BAR_H + 2.0,
                CHART_W - MARGIN / 2.0,
                y + BAR_H + 2.0
            )
            .unwrap();
            for m in spans {
                let (x0, x1) = (wx(m.wall_start_us), wx(m.wall_end_us));
                writeln!(
                    html,
                    "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{BAR_H}\" \
                     fill=\"#00897b\" fill-opacity=\"0.7\">\
                     <title>{}: {} rows, {}\u{00b5}s</title></rect>",
                    x0,
                    y,
                    (x1 - x0).max(1.0),
                    esc(m.name),
                    attr_u64(m, "rows"),
                    m.wall_end_us - m.wall_start_us,
                )
                .unwrap();
            }
        }
        writeln!(html, "</svg>").unwrap();
    }

    // ---- Summary counts. ----
    let verdict_count = |v: Verdict| builds.iter().filter(|(_, got)| *got == v).count();
    writeln!(
        html,
        "<p>{} edits \u{00b7} {} builds ({} used, {} wasted, {} cancelled) \u{00b7} {} queries \
         \u{00b7} {} worker threads</p>",
        edits.len(),
        builds.len(),
        verdict_count(Verdict::Used),
        verdict_count(Verdict::Wasted),
        verdict_count(Verdict::Cancelled),
        queries.len(),
        morsels.len(),
    )
    .unwrap();
    writeln!(html, "</body></html>").unwrap();
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdb_obs::Tracer;

    fn span(kind: SpanKind, name: &'static str, v0: u64, v1: u64) -> SpanRecord {
        SpanRecord {
            id: 1,
            parent: None,
            kind,
            name,
            virt_start_us: v0,
            virt_end_us: v1,
            wall_start_us: v0,
            wall_end_us: v1,
            thread: 0,
            instant: kind == SpanKind::Edit,
            attrs: Vec::new(),
        }
    }

    fn build(id: u64, table: &str, v0: u64, v1: u64) -> SpanRecord {
        let mut b = span(SpanKind::Speculation, "speculate", v0, v1);
        b.id = id;
        b.attrs.push(("table", AttrValue::Str(table.into())));
        b
    }

    fn step(name: &'static str, build: u64, at: u64) -> SpanRecord {
        let mut s = span(SpanKind::Speculation, name, at, at);
        s.instant = true;
        s.attrs.push(("build", AttrValue::Uint(build)));
        s
    }

    #[test]
    fn timeline_renders_all_lanes_and_verdicts() {
        // Builds 3 and 4 write the same view: one is cancelled and one is
        // wasted, and each keeps its own verdict.
        let mut morsel = span(SpanKind::Morsel, "scan_morsel", 0, 800);
        morsel.thread = 3;
        let spans = vec![
            span(SpanKind::Edit, "add_selection", 500, 500),
            span(SpanKind::Edit, "go", 14_000, 14_000),
            build(2, "mv_1", 1_000, 5_000),
            step("complete", 2, 5_000),
            build(3, "mv_2", 6_000, 9_000),
            step("cancel", 3, 7_000),
            build(4, "mv_2", 10_000, 12_000),
            step("complete", 4, 12_000),
            span(SpanKind::Execute, "query", 14_000, 15_000),
            step("used", 2, 14_000),
            step("gc", 4, 15_000),
            step("wasted", 4, 15_000),
            morsel,
        ];
        let html = render_timeline_html("test replay", &spans);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("#2e7d32"), "used build color present");
        assert!(html.contains("#ef6c00"), "wasted build color present");
        assert!(html.contains("#c62828"), "cancelled build color present");
        assert!(html.contains("thread 3"), "worker lane present");
        assert!(html.contains("3 builds (1 used, 1 wasted, 1 cancelled)"), "summary:\n{html}");
        assert!(!html.contains("<script"), "must be inert static HTML");
    }

    #[test]
    fn timeline_survives_empty_inputs() {
        let html = render_timeline_html("empty", &[]);
        assert!(html.contains("no morsel spans"));
        assert!(html.contains("0 edits"));
        let _ = Tracer::disabled(); // module sanity: obs API reachable
    }
}
