//! Hierarchical dual-clock spans for tracing the speculative pipeline.
//!
//! A [`Tracer`] records nested spans for every stage of a speculative
//! session — session → edit → decide → estimate → speculation →
//! execute → per-operator → per-morsel — with **two clocks** per span:
//!
//! * *virtual* time (microseconds on the experiment clock fed by
//!   [`crate::Observer::set_now_micros`]), which is replay-faithful and
//!   bit-identical across thread counts, and
//! * *wall* time (a monotonic [`std::time::Instant`] anchored at tracer
//!   creation), which shows where real CPU time goes — morsel
//!   interleaving, decode costs, decide latency.
//!
//! Wall times are strictly observational: nothing read from the wall
//! clock ever feeds back into virtual accounting or speculation
//! decisions, so enabling tracing cannot perturb a replay.
//!
//! A disabled tracer is a `None`: beginning or finishing a span
//! allocates nothing and reduces to one branch, so instrumentation can
//! stay in place on hot paths. Enable it explicitly with
//! [`Tracer::enabled`] or from the environment (`SPECDB_TRACE=1`) via
//! [`Tracer::from_env`].
//!
//! Finished spans export as Chrome/Perfetto `trace_event` JSON
//! ([`Tracer::to_chrome_trace`], loadable in `ui.perfetto.dev`) with the
//! two clock domains rendered as two processes, and aggregate into
//! per-operator profiles ([`Tracer::operator_profiles`]) for replay
//! reports.

use parking_lot::Mutex;
use serde_json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What stage of the pipeline a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One whole replayed session (trace replay).
    Session,
    /// A single user edit applied to the partial query (instant).
    Edit,
    /// One `decide()` invocation of the speculator.
    Decide,
    /// An optimizer estimate (materialization costing).
    Estimate,
    /// One speculative manipulation build (issue → finish), named
    /// `speculate`; or an instant in a build's life after it (`cancel`,
    /// `complete`, `used`, `wasted`, `gc`) whose `build` attribute is the
    /// id of that `speculate` span.
    Speculation,
    /// One final-query execution.
    Execute,
    /// One operator subtree within an execution.
    Operator,
    /// One morsel processed by a worker thread (wall clock only).
    Morsel,
    /// A fleet-wide speculation-governor verdict (admit / deny /
    /// preempt) over a candidate build (instant).
    Governor,
}

impl SpanKind {
    /// Stable lowercase name, used as the Chrome trace event category.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Session => "session",
            SpanKind::Edit => "edit",
            SpanKind::Decide => "decide",
            SpanKind::Estimate => "estimate",
            SpanKind::Speculation => "speculation",
            SpanKind::Execute => "execute",
            SpanKind::Operator => "operator",
            SpanKind::Morsel => "morsel",
            SpanKind::Governor => "governor",
        }
    }
}

/// A structured attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (counts: rows, batches, pages).
    Uint(u64),
    /// Floating point (seconds, scores, selectivities).
    Float(f64),
    /// Boolean flag (cache hit, chosen).
    Bool(bool),
    /// Free-form text (operator kind, manipulation description).
    Str(String),
}

macro_rules! attr_from {
    ($t:ty, $variant:ident) => {
        impl From<$t> for AttrValue {
            fn from(v: $t) -> Self {
                AttrValue::$variant(v.into())
            }
        }
    };
}
attr_from!(i64, Int);
attr_from!(u64, Uint);
attr_from!(u32, Uint);
attr_from!(f64, Float);
attr_from!(bool, Bool);
attr_from!(String, Str);
attr_from!(&str, Str);

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Uint(v as u64)
    }
}

impl AttrValue {
    fn to_json(&self) -> Value {
        match self {
            AttrValue::Int(v) => Value::I64(*v),
            AttrValue::Uint(v) => Value::U64(*v),
            AttrValue::Float(v) => Value::F64(*v),
            AttrValue::Bool(v) => Value::Bool(*v),
            AttrValue::Str(v) => Value::Str(v.clone()),
        }
    }

    /// The value as `u64`, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::Uint(v) => Some(*v),
            AttrValue::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }
}

/// One finished span: identity, hierarchy, both clocks, attributes.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id within the tracer (1-based; 0 is never issued).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Pipeline stage.
    pub kind: SpanKind,
    /// Static label ("hash_join", "decide", …).
    pub name: &'static str,
    /// Virtual start, microseconds on the experiment clock.
    pub virt_start_us: u64,
    /// Virtual end, microseconds on the experiment clock.
    pub virt_end_us: u64,
    /// Wall start, microseconds since tracer creation.
    pub wall_start_us: u64,
    /// Wall end, microseconds since tracer creation.
    pub wall_end_us: u64,
    /// Ordinal of the recording thread (0 = first thread seen process-wide).
    pub thread: u64,
    /// True for zero-duration markers (edits, lifecycle steps, governor
    /// verdicts).
    pub instant: bool,
    /// Structured attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// The attribute `key`, if this span carries it.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Process-wide small thread ordinals: stable, dense, human-readable in
/// trace viewers (unlike `ThreadId`'s opaque integers).
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

fn thread_names() -> &'static Mutex<Vec<(u64, String)>> {
    static NAMES: OnceLock<Mutex<Vec<(u64, String)>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

fn register_thread() -> u64 {
    let ord = thread_ordinal();
    let mut names = thread_names().lock();
    if !names.iter().any(|(o, _)| *o == ord) {
        let name = std::thread::current().name().unwrap_or("thread").to_string();
        names.push((ord, name));
    }
    ord
}

/// Spans kept per tracer before further `begin` calls are counted as
/// dropped instead of growing memory without bound.
const SPAN_CAP: usize = 1 << 20;

struct TracerInner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    /// Open-span stack of the *coordinator* thread; worker threads
    /// parent explicitly through [`Tracer::begin_at`] and never touch it.
    stack: Mutex<Vec<u64>>,
    dropped: AtomicU64,
}

/// A cheaply clonable handle to a span recorder; see the module docs.
///
/// `Tracer::default()` is disabled: every operation is a branch on
/// `None` with no allocation.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<TracerInner>>);

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Self {
        Tracer(Some(Arc::new(TracerInner {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            stack: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })))
    }

    /// A tracer for which every operation is a no-op.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// Enabled iff `SPECDB_TRACE` is set to anything but `0` or empty.
    pub fn from_env() -> Self {
        match std::env::var("SPECDB_TRACE") {
            Ok(v) if !v.is_empty() && v != "0" => Tracer::enabled(),
            _ => Tracer::disabled(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Spans recorded but discarded because the span cap (`SPAN_CAP`) was reached.
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    fn wall_now_us(inner: &TracerInner) -> u64 {
        inner.epoch.elapsed().as_micros() as u64
    }

    /// Open a span on the coordinator: its parent is the innermost span
    /// opened by [`Tracer::begin`] that has not yet finished.
    pub fn begin(&self, kind: SpanKind, name: &'static str, virt_start_us: u64) -> SpanHandle {
        let Some(inner) = &self.0 else { return SpanHandle(None) };
        let parent = inner.stack.lock().last().copied();
        let mut handle = self.begin_at(parent, kind, name, virt_start_us);
        if let Some(open) = &mut handle.0 {
            open.on_stack = true;
            inner.stack.lock().push(open.id);
        }
        handle
    }

    /// Open a span with an explicit parent, bypassing the coordinator
    /// stack — the form worker threads use for morsel spans.
    pub fn begin_at(
        &self,
        parent: Option<u64>,
        kind: SpanKind,
        name: &'static str,
        virt_start_us: u64,
    ) -> SpanHandle {
        let Some(inner) = &self.0 else { return SpanHandle(None) };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        SpanHandle(Some(Box::new(OpenSpan {
            tracer: self.clone(),
            id,
            parent,
            kind,
            name,
            virt_start_us,
            wall_start_us: Self::wall_now_us(inner),
            on_stack: false,
            instant: false,
        })))
    }

    /// The innermost open coordinator span, for cross-thread parenting.
    pub fn current(&self) -> Option<u64> {
        self.0.as_ref().and_then(|i| i.stack.lock().last().copied())
    }

    /// Record a zero-duration marker (e.g. a user edit) at `virt_us`.
    pub fn instant(
        &self,
        kind: SpanKind,
        name: &'static str,
        virt_us: u64,
        attrs: impl FnOnce(&mut Vec<(&'static str, AttrValue)>),
    ) {
        let Some(inner) = &self.0 else { return };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = inner.stack.lock().last().copied();
        let wall = Self::wall_now_us(inner);
        let mut a = Vec::new();
        attrs(&mut a);
        self.push(SpanRecord {
            id,
            parent,
            kind,
            name,
            virt_start_us: virt_us,
            virt_end_us: virt_us,
            wall_start_us: wall,
            wall_end_us: wall,
            thread: register_thread(),
            instant: true,
            attrs: a,
        });
    }

    fn push(&self, record: SpanRecord) {
        let Some(inner) = &self.0 else { return };
        let mut spans = inner.spans.lock();
        if spans.len() >= SPAN_CAP {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(record);
    }

    fn unstack(&self, id: u64) {
        let Some(inner) = &self.0 else { return };
        let mut stack = inner.stack.lock();
        if stack.last() == Some(&id) {
            stack.pop();
        } else if let Some(pos) = stack.iter().rposition(|&s| s == id) {
            stack.remove(pos);
        }
    }

    /// A snapshot of all finished spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.0.as_ref().map_or_else(Vec::new, |i| i.spans.lock().clone())
    }

    /// Drain all finished spans, leaving the tracer empty.
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        self.0.as_ref().map_or_else(Vec::new, |i| std::mem::take(&mut i.spans.lock()))
    }

    /// Render all finished spans as Chrome/Perfetto `trace_event` JSON.
    ///
    /// The two clocks become two trace "processes": pid 1 plots spans on
    /// the **virtual** clock (morsel spans excluded — they have no
    /// meaningful virtual extent of their own), pid 2 plots every span
    /// on the **wall** clock with real thread lanes, showing how morsels
    /// interleave across the worker pool. Load in `ui.perfetto.dev` or
    /// `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace(&self.spans())
    }

    /// Aggregate [`SpanKind::Operator`] spans into per-operator totals.
    pub fn operator_profiles(&self) -> Vec<OperatorProfile> {
        operator_profiles(&self.spans())
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.is_enabled()).finish()
    }
}

struct OpenSpan {
    tracer: Tracer,
    id: u64,
    parent: Option<u64>,
    kind: SpanKind,
    name: &'static str,
    virt_start_us: u64,
    wall_start_us: u64,
    on_stack: bool,
    instant: bool,
}

/// An open span returned by [`Tracer::begin`] / [`Tracer::begin_at`].
///
/// Finish it with [`SpanHandle::finish`] or [`SpanHandle::finish_with`];
/// dropping an unfinished handle closes it at its own start time.
pub struct SpanHandle(Option<Box<OpenSpan>>);

impl SpanHandle {
    /// The span's id, for parenting child spans across threads.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|o| o.id)
    }

    /// Close the span at virtual time `virt_end_us` with no attributes.
    pub fn finish(self, virt_end_us: u64) {
        self.finish_with(virt_end_us, |_| {});
    }

    /// Close the span at virtual time `virt_end_us`, building attributes
    /// in `attrs` — the closure never runs when tracing is disabled, so
    /// attribute construction costs nothing on the fast path.
    pub fn finish_with(
        mut self,
        virt_end_us: u64,
        attrs: impl FnOnce(&mut Vec<(&'static str, AttrValue)>),
    ) {
        let Some(open) = self.0.take() else { return };
        let mut a = Vec::new();
        attrs(&mut a);
        Self::close(*open, virt_end_us, a);
    }

    fn close(open: OpenSpan, virt_end_us: u64, attrs: Vec<(&'static str, AttrValue)>) {
        let tracer = open.tracer.clone();
        if open.on_stack {
            tracer.unstack(open.id);
        }
        let wall_end = tracer.0.as_ref().map_or(0, |i| Tracer::wall_now_us(i));
        tracer.push(SpanRecord {
            id: open.id,
            parent: open.parent,
            kind: open.kind,
            name: open.name,
            virt_start_us: open.virt_start_us,
            virt_end_us: virt_end_us.max(open.virt_start_us),
            wall_start_us: open.wall_start_us,
            wall_end_us: wall_end.max(open.wall_start_us),
            thread: register_thread(),
            instant: open.instant,
            attrs,
        });
    }
}

impl Drop for SpanHandle {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            let virt = open.virt_start_us;
            Self::close(*open, virt, Vec::new());
        }
    }
}

/// Aggregated totals for one operator label across an execution or a
/// whole session, computed from [`SpanKind::Operator`] spans.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorProfile {
    /// Operator label ("hash_join", "seq_scan", …).
    pub name: &'static str,
    /// Number of operator-subtree invocations.
    pub calls: u64,
    /// Rows emitted by the operator.
    pub rows: u64,
    /// Batches emitted by the operator.
    pub batches: u64,
    /// Total wall time inside the operator subtree, microseconds.
    pub wall_us: u64,
}

/// Aggregate [`SpanKind::Operator`] spans from `spans` by label,
/// sorted by descending wall time.
pub fn operator_profiles(spans: &[SpanRecord]) -> Vec<OperatorProfile> {
    let mut by_name: Vec<OperatorProfile> = Vec::new();
    for s in spans.iter().filter(|s| s.kind == SpanKind::Operator) {
        let attr = |key: &str| s.attr(key).and_then(AttrValue::as_u64).unwrap_or(0);
        let (rows, batches) = (attr("rows"), attr("batches"));
        let wall = s.wall_end_us - s.wall_start_us;
        match by_name.iter_mut().find(|p| p.name == s.name) {
            Some(p) => {
                p.calls += 1;
                p.rows += rows;
                p.batches += batches;
                p.wall_us += wall;
            }
            None => by_name.push(OperatorProfile {
                name: s.name,
                calls: 1,
                rows,
                batches,
                wall_us: wall,
            }),
        }
    }
    by_name.sort_by(|a, b| b.wall_us.cmp(&a.wall_us).then(a.name.cmp(b.name)));
    by_name
}

/// Chrome pid for the virtual-clock domain in exported traces.
pub const PID_VIRTUAL: u64 = 1;
/// Chrome pid for the wall-clock domain in exported traces.
pub const PID_WALL: u64 = 2;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Render `spans` as Chrome/Perfetto `trace_event` JSON (see
/// [`Tracer::to_chrome_trace`]).
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut events: Vec<Value> = Vec::with_capacity(spans.len() * 2 + 8);
    for (pid, label) in [(PID_VIRTUAL, "virtual clock"), (PID_WALL, "wall clock")] {
        events.push(obj(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(0)),
            ("args", obj(vec![("name", Value::Str(label.into()))])),
        ]));
    }
    for (ord, name) in thread_names().lock().iter() {
        events.push(obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(PID_WALL)),
            ("tid", Value::U64(*ord)),
            ("args", obj(vec![("name", Value::Str(name.clone()))])),
        ]));
    }
    let mut emit = |s: &SpanRecord, pid: u64, tid: u64, ts: u64, dur: u64| {
        let args: Vec<(String, Value)> =
            s.attrs.iter().map(|(k, v)| (k.to_string(), v.to_json())).collect();
        let mut pairs =
            vec![("name", Value::Str(s.name.into())), ("cat", Value::Str(s.kind.as_str().into()))];
        if s.instant {
            pairs.push(("ph", Value::Str("i".into())));
            pairs.push(("s", Value::Str("t".into())));
        } else {
            pairs.push(("ph", Value::Str("X".into())));
            pairs.push(("dur", Value::U64(dur)));
            pairs.push(("id", Value::U64(s.id)));
        }
        pairs.push(("ts", Value::U64(ts)));
        pairs.push(("pid", Value::U64(pid)));
        pairs.push(("tid", Value::U64(tid)));
        pairs.push(("args", Value::Object(args)));
        events.push(Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()));
    };
    for s in spans {
        // Virtual domain: one lane (tid 0) per the single experiment
        // clock. Morsel spans only exist in wall time.
        if s.kind != SpanKind::Morsel {
            emit(s, PID_VIRTUAL, 0, s.virt_start_us, s.virt_end_us - s.virt_start_us);
        }
        // Wall domain: real thread lanes.
        emit(s, PID_WALL, s.thread, s.wall_start_us, s.wall_end_us - s.wall_start_us);
    }
    let root = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ]);
    serde_json::to_string(&root).expect("trace serializes")
}

/// Parse `json` as Chrome `trace_event` output and check the schema:
/// a `traceEvents` array whose entries all carry `name`/`ph`/`pid`/`tid`
/// (and `ts` + `dur` for complete events). Returns the event count.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let root = serde_json::parse(json).map_err(|e| format!("trace is not JSON: {e}"))?;
    let pairs = root.as_object().ok_or("trace root must be an object")?;
    let events = serde::get_field(pairs, "traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("missing traceEvents array")?;
    for (i, ev) in events.iter().enumerate() {
        let fields = ev.as_object().ok_or_else(|| format!("event {i} is not an object"))?;
        let field = |name: &str| {
            serde::get_field(fields, name).ok_or_else(|| format!("event {i} missing `{name}`"))
        };
        let ph = field("ph")?.as_str().ok_or_else(|| format!("event {i} ph not a string"))?;
        field("name")?;
        field("pid")?;
        field("tid")?;
        if ph != "M" {
            field("ts")?;
        }
        if ph == "X" {
            field("dur")?;
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        let span = t.begin(SpanKind::Execute, "query", 10);
        assert_eq!(span.id(), None);
        span.finish_with(20, |_| panic!("attrs closure must not run when disabled"));
        t.instant(SpanKind::Edit, "edit", 5, |_| panic!("must not run"));
        assert!(t.spans().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn spans_nest_via_coordinator_stack() {
        let t = Tracer::enabled();
        let outer = t.begin(SpanKind::Session, "session", 0);
        let outer_id = outer.id().unwrap();
        let inner = t.begin(SpanKind::Execute, "query", 100);
        assert_eq!(t.current(), inner.id());
        inner.finish_with(200, |a| a.push(("rows", 42u64.into())));
        assert_eq!(t.current(), Some(outer_id));
        outer.finish(1_000);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(outer_id));
        assert_eq!(spans[0].virt_end_us, 200);
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[1].virt_end_us, 1_000);
    }

    #[test]
    fn begin_at_bypasses_stack() {
        let t = Tracer::enabled();
        let outer = t.begin(SpanKind::Execute, "query", 0);
        let parent = outer.id();
        let worker = t.begin_at(parent, SpanKind::Morsel, "scan_morsel", 0);
        assert_eq!(t.current(), parent, "begin_at must not push onto the stack");
        worker.finish(0);
        outer.finish(10);
        let spans = t.spans();
        assert_eq!(spans[0].kind, SpanKind::Morsel);
        assert_eq!(spans[0].parent, parent);
    }

    #[test]
    fn dropped_handle_closes_span() {
        let t = Tracer::enabled();
        {
            let _span = t.begin(SpanKind::Decide, "decide", 7);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].virt_start_us, 7);
        assert_eq!(spans[0].virt_end_us, 7);
        assert_eq!(t.current(), None, "drop must unwind the stack");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_both_domains() {
        let t = Tracer::enabled();
        let s = t.begin(SpanKind::Execute, "query", 100);
        let m = t.begin_at(s.id(), SpanKind::Morsel, "scan_morsel", 100);
        m.finish(100);
        s.finish_with(300, |a| a.push(("rows", 3u64.into())));
        t.instant(SpanKind::Edit, "edit", 50, |a| a.push(("op", "select".into())));
        let json = t.to_chrome_trace();
        assert!(validate_chrome_trace(&json).unwrap() >= 5);
        let root = serde_json::parse(&json).unwrap();
        let events = serde::get_field(root.as_object().unwrap(), "traceEvents")
            .and_then(|v| v.as_array())
            .unwrap()
            .to_vec();
        let get = |e: &Value, k: &str| serde::get_field(e.as_object().unwrap(), k).cloned();
        assert!(events.iter().any(|e| get(e, "ph") == Some(Value::Str("M".into()))));
        // The execute span appears in both pids; the morsel span only in wall.
        let pids_of = |name: &str| -> Vec<Value> {
            events
                .iter()
                .filter(|e| {
                    get(e, "name") == Some(Value::Str(name.into()))
                        && get(e, "ph") != Some(Value::Str("M".into()))
                })
                .filter_map(|e| get(e, "pid"))
                .collect()
        };
        // The vendored parser reads small integers back as I64.
        assert_eq!(
            pids_of("query"),
            vec![Value::I64(PID_VIRTUAL as i64), Value::I64(PID_WALL as i64)]
        );
        assert_eq!(pids_of("scan_morsel"), vec![Value::I64(PID_WALL as i64)]);
        let edit = events
            .iter()
            .find(|e| get(e, "name") == Some(Value::Str("edit".into())))
            .unwrap();
        assert_eq!(get(edit, "ph"), Some(Value::Str("i".into())));
        let args = get(edit, "args").unwrap();
        assert_eq!(
            serde::get_field(args.as_object().unwrap(), "op"),
            Some(&Value::Str("select".into()))
        );
    }

    #[test]
    fn operator_profiles_aggregate_by_label() {
        let t = Tracer::enabled();
        for rows in [10u64, 20] {
            let s = t.begin(SpanKind::Operator, "seq_scan", 0);
            s.finish_with(0, |a| {
                a.push(("rows", rows.into()));
                a.push(("batches", 1u64.into()));
            });
        }
        let s = t.begin(SpanKind::Operator, "hash_join", 0);
        s.finish_with(0, |a| a.push(("rows", 5u64.into())));
        let profiles = t.operator_profiles();
        assert_eq!(profiles.len(), 2);
        let scan = profiles.iter().find(|p| p.name == "seq_scan").unwrap();
        assert_eq!((scan.calls, scan.rows, scan.batches), (2, 30, 2));
        let join = profiles.iter().find(|p| p.name == "hash_join").unwrap();
        assert_eq!((join.calls, join.rows), (1, 5));
    }

    #[test]
    fn from_env_respects_specdb_trace() {
        // Can't mutate the environment safely in parallel tests; just
        // exercise the parse of the current value.
        let t = Tracer::from_env();
        let want = std::env::var("SPECDB_TRACE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        assert_eq!(t.is_enabled(), want);
    }
}
