//! Self time and per-layer attribution over finished spans.
//!
//! The tracer records each span's parent from one coordinator stack that
//! every thread shares, so when several threads trace at once (the live
//! server's connection and build threads) a recorded parent may belong
//! to another thread. Nesting is therefore rebuilt from the wall clock:
//! a span's parent is the innermost span *on the same thread* whose
//! interval contains it. On a single thread this is the recorded nesting.

use specdb_obs::{AttrValue, SpanKind, SpanRecord};
use std::collections::BTreeMap;

/// The layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Replay bookkeeping: the replay loop and the benchmark's replay spans.
    Sim,
    /// Wire requests, timed at the client.
    Serve,
    /// The speculator's `decide()`, estimates included.
    Decide,
    /// Builds of one-step manipulations.
    BuildManip,
    /// Builds of whole-query predictions.
    BuildPredict,
    /// Final-query (GO) execution, operators included.
    Go,
    /// The benchmark's set-up phases.
    Setup,
}

/// Prefix of the benchmark's own span names for wire requests.
const WIRE_PREFIX: &str = "wire.";
/// Prefix of the benchmark's own span names for set-up phases.
const SETUP_PREFIX: &str = "setup.";

/// The layer a span opens, if it opens one.
fn opens(span: &SpanRecord) -> Option<Layer> {
    match span.kind {
        SpanKind::Decide | SpanKind::Estimate => Some(Layer::Decide),
        SpanKind::Speculation if is_predicted_build(span) => Some(Layer::BuildPredict),
        SpanKind::Speculation => Some(Layer::BuildManip),
        SpanKind::Execute => Some(Layer::Go),
        SpanKind::Session if span.name.starts_with(WIRE_PREFIX) => Some(Layer::Serve),
        SpanKind::Session if span.name.starts_with(SETUP_PREFIX) => Some(Layer::Setup),
        _ => None,
    }
}

/// True for a build of a whole-query prediction (`predict{...}`).
pub fn is_predicted_build(span: &SpanRecord) -> bool {
    span.attrs.iter().any(|(k, v)| {
        *k == "manipulation" && matches!(v, AttrValue::Str(m) if m.starts_with("predict"))
    })
}

/// Wall duration of a span in microseconds.
pub fn wall_us(span: &SpanRecord) -> u64 {
    span.wall_end_us - span.wall_start_us
}

/// Spans with their rebuilt nesting, self times and layers.
pub struct SpanTree<'a> {
    spans: &'a [SpanRecord],
    self_us: Vec<u64>,
    layer: Vec<Layer>,
}

impl<'a> SpanTree<'a> {
    /// Rebuild nesting per thread and charge every span's self time.
    pub fn new(spans: &'a [SpanRecord]) -> Self {
        let n = spans.len();
        let mut order: Vec<usize> = (0..n).filter(|&i| !spans[i].instant).collect();
        order.sort_by(|&a, &b| {
            let (x, y) = (&spans[a], &spans[b]);
            x.thread
                .cmp(&y.thread)
                .then(x.wall_start_us.cmp(&y.wall_start_us))
                .then(y.wall_end_us.cmp(&x.wall_end_us))
                .then(x.id.cmp(&y.id))
        });
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut stack: Vec<usize> = Vec::new();
        for &i in &order {
            let s = &spans[i];
            while let Some(&top) = stack.last() {
                let t = &spans[top];
                if t.thread == s.thread && t.wall_end_us >= s.wall_end_us {
                    break;
                }
                stack.pop();
            }
            if let Some(&p) = stack.last() {
                parent[i] = Some(p);
                children[p].push(i);
            }
            stack.push(i);
        }
        let self_us = (0..n)
            .map(|i| {
                if spans[i].instant {
                    return 0;
                }
                let covered = covered_us(children[i].iter().map(|&c| &spans[c]));
                wall_us(&spans[i]).saturating_sub(covered)
            })
            .collect();
        let layer = (0..n)
            .map(|i| {
                let mut at = Some(i);
                while let Some(j) = at {
                    if let Some(l) = opens(&spans[j]) {
                        return l;
                    }
                    at = parent[j];
                }
                match spans[i].kind {
                    SpanKind::Operator | SpanKind::Morsel => Layer::Go,
                    _ => Layer::Sim,
                }
            })
            .collect();
        SpanTree { spans, self_us, layer }
    }

    /// Self time of span `i`: its duration minus what its children cover.
    #[cfg(test)]
    pub fn self_us(&self, i: usize) -> u64 {
        self.self_us[i]
    }

    /// The layer span `i`'s self time is charged to.
    #[cfg(test)]
    pub fn layer(&self, i: usize) -> Layer {
        self.layer[i]
    }

    /// Total self time per layer.
    pub fn self_by_layer(&self) -> BTreeMap<Layer, u64> {
        let mut out = BTreeMap::new();
        for i in 0..self.spans.len() {
            *out.entry(self.layer[i]).or_insert(0) += self.self_us[i];
        }
        out
    }

    /// Self time of operators executing final queries, by operator label.
    pub fn go_operator_self_us(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.kind == SpanKind::Operator && self.layer[i] == Layer::Go {
                *out.entry(s.name).or_insert(0) += self.self_us[i];
            }
        }
        out
    }
}

/// Length of the union of the spans' wall intervals.
fn covered_us<'s>(spans: impl Iterator<Item = &'s SpanRecord>) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans.map(|s| (s.wall_start_us, s.wall_end_us)).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Wall durations, in microseconds, of the spans of one kind.
pub fn durations_us(spans: &[SpanRecord], kind: SpanKind) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.kind == kind && !s.instant)
        .map(|s| wall_us(s) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, thread: u64, kind: SpanKind, name: &'static str, w: (u64, u64)) -> SpanRecord {
        SpanRecord {
            id,
            parent: None,
            kind,
            name,
            virt_start_us: 0,
            virt_end_us: 0,
            wall_start_us: w.0,
            wall_end_us: w.1,
            thread,
            instant: false,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(1, 0, SpanKind::Session, "replay", (0, 100)),
            span(2, 0, SpanKind::Decide, "decide", (10, 30)),
            span(3, 0, SpanKind::Estimate, "estimate_mat", (12, 20)),
            span(4, 0, SpanKind::Execute, "query", (40, 70)),
            span(5, 0, SpanKind::Operator, "hash_join", (41, 69)),
            span(6, 0, SpanKind::Operator, "seq_scan", (42, 50)),
            span(7, 0, SpanKind::Operator, "seq_scan", (50, 60)),
        ];
        let t = SpanTree::new(&spans);
        assert_eq!(t.self_us(0), 100 - 20 - 30);
        assert_eq!(t.self_us(1), 20 - 8);
        assert_eq!(t.self_us(2), 8);
        assert_eq!(t.self_us(3), 30 - 28);
        assert_eq!(t.self_us(4), 28 - 18, "adjacent siblings both count");
        assert_eq!(t.self_us(5), 8);
        let by_layer = t.self_by_layer();
        assert_eq!(by_layer[&Layer::Sim], 50);
        assert_eq!(by_layer[&Layer::Decide], 20);
        assert_eq!(by_layer[&Layer::Go], 30);
        assert_eq!(by_layer.values().sum::<u64>(), 100, "self times partition the root");
        let ops = t.go_operator_self_us();
        assert_eq!((ops["hash_join"], ops["seq_scan"]), (10, 18));
    }

    #[test]
    fn other_threads_never_cover_a_span() {
        let spans = vec![
            span(1, 0, SpanKind::Session, "wire.go", (0, 100)),
            span(2, 1, SpanKind::Execute, "query", (20, 60)),
            span(3, 1, SpanKind::Operator, "seq_scan", (25, 55)),
        ];
        let t = SpanTree::new(&spans);
        assert_eq!(t.self_us(0), 100);
        assert_eq!(t.layer(0), Layer::Serve);
        assert_eq!(t.self_us(1), 10);
        assert_eq!(t.layer(2), Layer::Go);
    }

    #[test]
    fn build_operators_charge_their_build_kind() {
        let mut predicted = span(2, 0, SpanKind::Speculation, "speculate", (0, 50));
        predicted.attrs.push(("manipulation", AttrValue::Str("predict{orders}".into())));
        let mut manip = span(4, 0, SpanKind::Speculation, "speculate", (60, 90));
        manip.attrs.push(("manipulation", AttrValue::Str("materialize{orders}".into())));
        let spans = vec![
            predicted,
            span(3, 0, SpanKind::Operator, "seq_scan", (5, 45)),
            manip,
            span(5, 0, SpanKind::Operator, "seq_scan", (61, 89)),
            span(6, 0, SpanKind::Session, "setup.datagen", (100, 120)),
        ];
        let t = SpanTree::new(&spans);
        assert_eq!(t.layer(1), Layer::BuildPredict);
        assert_eq!(t.layer(3), Layer::BuildManip);
        assert_eq!(t.layer(4), Layer::Setup);
        assert!(t.go_operator_self_us().is_empty(), "build operators are not GO operators");
    }

    #[test]
    fn union_of_overlapping_children() {
        let spans = [
            span(1, 0, SpanKind::Morsel, "m", (0, 10)),
            span(2, 0, SpanKind::Morsel, "m", (5, 20)),
            span(3, 0, SpanKind::Morsel, "m", (30, 40)),
        ];
        assert_eq!(covered_us(spans.iter()), 30);
    }
}
