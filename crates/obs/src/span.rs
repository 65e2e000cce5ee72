//! Hierarchical, thread-aware span tracing with Perfetto/flamegraph
//! export.
//!
//! The tracer answers one question the CPI stacks cannot: where does
//! *wall-clock* time go across the serve → grid → cell → simulator
//! stack? Guards ([`enter`] / the [`span!`] macro) time a scope and
//! record its parent, so the trace is a forest; every record carries a
//! thread id and arbitrary correlation fields (job id, cell label,
//! trace fingerprint) shared with the `RVP_LOG` lines emitted from the
//! same scopes.
//!
//! # Cost model
//!
//! The tracer is *disarmed* by default. A disarmed [`enter`] is one
//! relaxed atomic load and returns an empty guard — no allocation, no
//! clock read, no lock (the disarmed-overhead gate in
//! `tests/span_disarmed_gate.rs` proves the no-allocation part with a
//! counting allocator). When armed, completed spans collect in a per-thread buffer
//! and are drained into a bounded global ring in chunks — at top-level
//! span completion or every [`FLUSH_CHUNK`] spans — so the global lock
//! is amortized, not per-span. A full ring drops new spans and counts
//! them ([`TraceData::dropped`]); it never blocks or grows.
//!
//! # Exporters
//!
//! [`chrome_trace_json`] renders Chrome trace-event JSON (`"ph":"X"`
//! complete events; open directly in [Perfetto](https://ui.perfetto.dev)
//! or `chrome://tracing`), with `span_id`/`parent_id` in each event's
//! `args` since complete events have no native hierarchy.
//! [`folded_stacks`] renders `root;child;leaf <self_us>` lines for
//! flamegraph tooling. [`from_chrome_trace`] parses the JSON back for
//! `rvp-report`'s spans section and the round-trip tests.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use rvp_json::Json;

use crate::clock::Clock;

/// Per-thread completed-span buffer size that forces a flush into the
/// global ring even mid-nest (bounds memory under recovery bursts).
pub const FLUSH_CHUNK: usize = 256;

/// Default global ring capacity when arming without an explicit one.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned counter/id.
    U64(u64),
    /// Floating-point measurement.
    F64(f64),
    /// Free-form label.
    Str(String),
}

impl FieldValue {
    fn to_json(&self) -> Json {
        match self {
            FieldValue::U64(v) => (*v).into(),
            FieldValue::F64(v) => (*v).into(),
            FieldValue::Str(v) => v.as_str().into(),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_owned())
    }
}
impl From<&String> for FieldValue {
    fn from(v: &String) -> FieldValue {
        FieldValue::Str(v.clone())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// A span field: name plus value. Names are `'static` when built by the
/// [`span!`] macro and owned when parsed back from an exported trace.
pub type Field = (Cow<'static, str>, FieldValue);

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Process-unique nonzero id.
    pub id: u64,
    /// Parent span id; 0 marks a root.
    pub parent: u64,
    /// Scope name, e.g. `serve.request` or `sim.steady`.
    pub name: Cow<'static, str>,
    /// Start, microseconds on the tracer clock.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Small process-local thread id (assigned in thread-start order).
    pub tid: u64,
    /// Correlation fields (job/cell ids, fingerprints, labels).
    pub fields: Vec<Field>,
}

impl SpanRecord {
    /// The field with the given name, if present.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// A drained or snapshotted trace: the spans plus how many were lost to
/// the ring bound.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Completed spans, in ring (roughly completion) order.
    pub spans: Vec<SpanRecord>,
    /// Spans discarded because the ring was full when they completed.
    pub dropped: u64,
}

// --------------------------------------------------------------------
// Global tracer state.

static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

struct Ring {
    spans: Vec<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring { spans: Vec::new(), capacity: 0, dropped: 0 });

/// The clock timestamps are read from. Swappable (with the mock) only
/// via [`arm_with_clock`]; guards clone it once at creation.
static TRACER_CLOCK: Mutex<Clock> = Mutex::new(Clock::Monotonic);

fn tracer_clock() -> Clock {
    TRACER_CLOCK.lock().unwrap().clone()
}

/// A clone of the tracer's clock. Long-lived instrumentation (the sim
/// cycle loop, queue-wait accounting) captures it once and reads
/// timestamps lock-free instead of paying the clock lock per reading.
pub fn clock() -> Clock {
    tracer_clock()
}

/// A reading of the tracer's clock, for explicit-timestamp spans built
/// with [`record`]. Call only when [`armed`] — it takes the clock lock.
pub fn now_us() -> u64 {
    tracer_clock().now_us()
}

/// Arms the tracer with the given ring capacity, clearing anything a
/// previous arming left behind. Timestamps come from the monotonic
/// process clock.
pub fn arm(capacity: usize) {
    arm_with_clock(capacity, Clock::Monotonic);
}

/// [`arm`], but timestamps come from `clock` — pass a [`Clock::mock`]
/// in tests for deterministic span times.
pub fn arm_with_clock(capacity: usize, clock: Clock) {
    *TRACER_CLOCK.lock().unwrap() = clock;
    {
        let mut ring = RING.lock().unwrap();
        ring.spans.clear();
        ring.capacity = capacity.max(1);
        ring.dropped = 0;
    }
    ARMED.store(true, Ordering::Release);
}

/// Disarms the tracer. Already-buffered spans stay drainable; guards
/// created while armed still record on drop.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
}

/// Whether the tracer is recording. One relaxed load — this is the
/// entire disarmed cost of [`enter`].
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

// --------------------------------------------------------------------
// Per-thread buffers.

struct ThreadBuf {
    tid: u64,
    /// Ids of the spans currently open on this thread, innermost last.
    stack: Vec<u64>,
    /// Completed spans not yet flushed to the global ring.
    done: Vec<SpanRecord>,
}

impl ThreadBuf {
    fn flush(&mut self) {
        if self.done.is_empty() {
            return;
        }
        let mut ring = RING.lock().unwrap();
        for span in self.done.drain(..) {
            if ring.spans.len() < ring.capacity {
                ring.spans.push(span);
            } else {
                ring.dropped += 1;
            }
        }
    }
}

impl Drop for ThreadBuf {
    // A thread exiting mid-nest still publishes what it completed.
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        done: Vec::new(),
    });
}

/// The innermost open span id on this thread (0 when none). Hand it to
/// another thread and open the work there with [`child_of`] to keep
/// cross-thread work parented.
pub fn current() -> u64 {
    if !armed() {
        return 0;
    }
    TLS.with(|tls| tls.borrow().stack.last().copied().unwrap_or(0))
}

// --------------------------------------------------------------------
// Guards.

struct Active {
    id: u64,
    parent: u64,
    name: Cow<'static, str>,
    start_us: u64,
    clock: Clock,
    fields: Vec<Field>,
}

/// An open span; records itself on drop. Empty (and free) when the
/// tracer is disarmed.
pub struct SpanGuard {
    active: Option<Active>,
}

impl SpanGuard {
    /// This span's id, or 0 when the tracer was disarmed at creation.
    /// Use it to parent cross-thread work via [`child_of`].
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.id)
    }

    /// Attaches a field discovered after the span opened (an outcome,
    /// a retry count). No-op on a disarmed guard.
    pub fn add_field(&mut self, name: impl Into<Cow<'static, str>>, value: impl Into<FieldValue>) {
        if let Some(active) = &mut self.active {
            active.fields.push((name.into(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else { return };
        let end_us = active.clock.now_us();
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            start_us: active.start_us,
            dur_us: end_us.saturating_sub(active.start_us),
            tid: 0, // filled below from the thread buffer
            fields: active.fields,
        };
        TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            // Guards usually drop in LIFO order; tolerate a moved guard
            // outliving its scope by removing its id wherever it sits.
            if let Some(pos) = tls.stack.iter().rposition(|&id| id == record.id) {
                tls.stack.remove(pos);
            }
            let mut record = record;
            record.tid = tls.tid;
            tls.done.push(record);
            if tls.stack.is_empty() || tls.done.len() >= FLUSH_CHUNK {
                tls.flush();
            }
        });
    }
}

fn open(name: &'static str, explicit_parent: Option<u64>, fields: Vec<Field>) -> SpanGuard {
    let clock = tracer_clock();
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        let parent = explicit_parent.unwrap_or_else(|| tls.stack.last().copied().unwrap_or(0));
        tls.stack.push(id);
        parent
    });
    SpanGuard {
        active: Some(Active {
            id,
            parent,
            name: Cow::Borrowed(name),
            start_us: clock.now_us(),
            clock,
            fields,
        }),
    }
}

/// Opens a span parented to this thread's innermost open span (a root
/// when there is none). Disarmed: a single relaxed load, empty guard.
pub fn enter(name: &'static str) -> SpanGuard {
    if !armed() {
        return SpanGuard { active: None };
    }
    open(name, None, Vec::new())
}

/// [`enter`] with correlation fields. The closure runs only when armed,
/// so building field values costs nothing when disarmed.
pub fn enter_with(name: &'static str, fields: impl FnOnce() -> Vec<Field>) -> SpanGuard {
    if !armed() {
        return SpanGuard { active: None };
    }
    open(name, None, fields())
}

/// Opens a span under an explicit parent id — the cross-thread handoff
/// (e.g. a queued cell executing on a worker, parented to the request
/// span that enqueued it). `parent` 0 makes a root.
pub fn child_of(parent: u64, name: &'static str, fields: impl FnOnce() -> Vec<Field>) -> SpanGuard {
    if !armed() {
        return SpanGuard { active: None };
    }
    open(name, Some(parent), fields())
}

/// Records an already-measured interval (explicit timestamps on the
/// tracer clock) straight into the ring — for spans whose start and end
/// live on different threads, like queue wait. Returns the span id, or
/// 0 when disarmed.
pub fn record(
    name: &'static str,
    parent: u64,
    start_us: u64,
    end_us: u64,
    fields: Vec<Field>,
) -> u64 {
    if !armed() {
        return 0;
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let tid = TLS.with(|tls| tls.borrow().tid);
    let span = SpanRecord {
        id,
        parent,
        name: Cow::Borrowed(name),
        start_us,
        dur_us: end_us.saturating_sub(start_us),
        tid,
        fields,
    };
    let mut ring = RING.lock().unwrap();
    if ring.spans.len() < ring.capacity {
        ring.spans.push(span);
        id
    } else {
        ring.dropped += 1;
        0
    }
}

/// Flushes this thread's buffered spans into the ring (drains and
/// snapshots already see every *completed top-level* span; this is for
/// a thread that wants its mid-nest completions visible now).
pub fn flush_thread() {
    TLS.with(|tls| tls.borrow_mut().flush());
}

/// Removes and returns everything in the ring.
pub fn drain() -> TraceData {
    flush_thread();
    let mut ring = RING.lock().unwrap();
    let data = TraceData { spans: std::mem::take(&mut ring.spans), dropped: ring.dropped };
    ring.dropped = 0;
    data
}

/// Copies the ring without clearing it — what `GET /trace` serves, so
/// repeated fetches see a growing trace.
pub fn snapshot() -> TraceData {
    flush_thread();
    let ring = RING.lock().unwrap();
    TraceData { spans: ring.spans.clone(), dropped: ring.dropped }
}

// --------------------------------------------------------------------
// The span! macro.

/// Opens a [`SpanGuard`]: `span!("cell.run")`, or with correlation
/// fields `span!("cell.run", {fnv, label: cell.label().as_str()})` — a
/// bare identifier is shorthand for `name: name`. Fields are only
/// evaluated when the tracer is armed.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
    ($name:expr, { $($key:ident $(: $val:expr)?),+ $(,)? }) => {
        $crate::span::enter_with($name, || vec![
            $((
                std::borrow::Cow::Borrowed(stringify!($key)),
                $crate::span::FieldValue::from($crate::span_field_value!($key $(: $val)?)),
            )),+
        ])
    };
}

/// Helper for [`span!`]: a bare `ident` field evaluates the identifier
/// itself; `ident: expr` evaluates the expression.
#[doc(hidden)]
#[macro_export]
macro_rules! span_field_value {
    ($key:ident) => {
        $key
    };
    ($key:ident : $val:expr) => {
        $val
    };
}

// --------------------------------------------------------------------
// Exporters.

/// Renders a trace as Chrome trace-event JSON — the object form
/// (`{"traceEvents": [...]}`) with `"ph":"X"` complete events, which
/// Perfetto and `chrome://tracing` open directly. Complete events have
/// no native parent links, so every event's `args` carries `span_id`
/// and `parent_id` alongside the correlation fields.
pub fn chrome_trace_json(data: &TraceData) -> Json {
    let events: Vec<Json> = data
        .spans
        .iter()
        .map(|span| {
            let mut args = vec![
                ("span_id".to_owned(), Json::from(span.id)),
                ("parent_id".to_owned(), Json::from(span.parent)),
            ];
            for (name, value) in &span.fields {
                args.push((name.clone().into_owned(), value.to_json()));
            }
            Json::obj([
                ("name", Json::from(span.name.as_ref())),
                ("cat", "rvp".into()),
                ("ph", "X".into()),
                ("ts", span.start_us.into()),
                ("dur", span.dur_us.into()),
                ("pid", 1u64.into()),
                ("tid", span.tid.into()),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::arr(events)),
        ("displayTimeUnit", "ms".into()),
        ("otherData", Json::obj([("dropped_spans", data.dropped.into())])),
    ])
}

/// Parses [`chrome_trace_json`] output back into a [`TraceData`] —
/// the report reader and the round-trip tests. Non-`X` events and
/// events without a `span_id` are skipped.
pub fn from_chrome_trace(json: &Json) -> Option<TraceData> {
    let events = json.get("traceEvents")?.as_arr()?;
    let dropped = json
        .get("otherData")
        .and_then(|o| o.get("dropped_spans"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let mut spans = Vec::with_capacity(events.len());
    for event in events {
        if event.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let args = event.get("args");
        let Some(id) = args.and_then(|a| a.get("span_id")).and_then(Json::as_u64) else {
            continue;
        };
        let mut fields = Vec::new();
        if let Some(Json::Obj(pairs)) = args {
            for (name, value) in pairs {
                if name == "span_id" || name == "parent_id" {
                    continue;
                }
                let value = match value {
                    Json::UInt(v) => FieldValue::U64(*v),
                    Json::Float(v) => FieldValue::F64(*v),
                    Json::Str(v) => FieldValue::Str(v.clone()),
                    _ => continue,
                };
                fields.push((Cow::Owned(name.clone()), value));
            }
        }
        spans.push(SpanRecord {
            id,
            parent: args.and_then(|a| a.get("parent_id")).and_then(Json::as_u64).unwrap_or(0),
            name: Cow::Owned(
                event.get("name").and_then(Json::as_str).unwrap_or("unnamed").to_owned(),
            ),
            start_us: event.get("ts").and_then(Json::as_u64).unwrap_or(0),
            dur_us: event.get("dur").and_then(Json::as_u64).unwrap_or(0),
            tid: event.get("tid").and_then(Json::as_u64).unwrap_or(0),
            fields,
        });
    }
    Some(TraceData { spans, dropped })
}

/// Renders `parent;child;leaf <self_us>` folded-stack lines (sorted,
/// merged), the input format of flamegraph tooling. Values are self
/// time: a span's duration minus its children's.
pub fn folded_stacks(data: &TraceData) -> String {
    let by_id: HashMap<u64, &SpanRecord> = data.spans.iter().map(|s| (s.id, s)).collect();
    let mut merged: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for span in &data.spans {
        let mut path = vec![span.name.as_ref()];
        let mut cursor = span.parent;
        // Walk to the root, defensively bounded against parent cycles
        // in a hand-edited trace.
        for _ in 0..data.spans.len() {
            let Some(parent) = by_id.get(&cursor) else { break };
            path.push(parent.name.as_ref());
            cursor = parent.parent;
        }
        path.reverse();
        *merged.entry(path.join(";")).or_insert(0) += self_time_us(span, data);
    }
    let mut out = String::new();
    for (path, us) in merged {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

/// Writes a trace to `path` via `Json::to_writer` streaming: folded
/// stacks when the extension is `.folded`, Chrome trace-event JSON
/// otherwise.
pub fn write_trace_file(path: &Path, data: &TraceData) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = io::BufWriter::new(file);
    if path.extension().is_some_and(|e| e == "folded") {
        out.write_all(folded_stacks(data).as_bytes())?;
    } else {
        chrome_trace_json(data).to_writer(&mut out)?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

// --------------------------------------------------------------------
// Analysis (rvp-report's spans section).

/// A span's self time: duration minus the summed durations of its
/// direct children (saturating — overlapping child clocks can exceed
/// the parent on a multi-threaded trace).
pub fn self_time_us(span: &SpanRecord, data: &TraceData) -> u64 {
    let children: u64 = data.spans.iter().filter(|s| s.parent == span.id).map(|s| s.dur_us).sum();
    span.dur_us.saturating_sub(children)
}

/// Total self time and count per span name, heaviest first.
pub fn self_time_by_name(data: &TraceData) -> Vec<(String, u64, u64)> {
    let mut by_name: HashMap<&str, (u64, u64)> = HashMap::new();
    for span in &data.spans {
        let slot = by_name.entry(span.name.as_ref()).or_insert((0, 0));
        slot.0 += self_time_us(span, data);
        slot.1 += 1;
    }
    let mut rows: Vec<(String, u64, u64)> =
        by_name.into_iter().map(|(name, (us, n))| (name.to_owned(), us, n)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}

/// The critical path under `root`: from the root, repeatedly descend
/// into the longest child. Returns the chain including the root.
pub fn critical_path<'a>(data: &'a TraceData, root: &'a SpanRecord) -> Vec<&'a SpanRecord> {
    let mut path = vec![root];
    let mut cursor = root;
    for _ in 0..data.spans.len() {
        let Some(next) =
            data.spans.iter().filter(|s| s.parent == cursor.id).max_by_key(|s| s.dur_us)
        else {
            break;
        };
        path.push(next);
        cursor = next;
    }
    path
}

/// Root spans (no recorded parent), longest first.
pub fn roots(data: &TraceData) -> Vec<&SpanRecord> {
    let ids: std::collections::HashSet<u64> = data.spans.iter().map(|s| s.id).collect();
    let mut roots: Vec<&SpanRecord> =
        data.spans.iter().filter(|s| s.parent == 0 || !ids.contains(&s.parent)).collect();
    roots.sort_by_key(|s| std::cmp::Reverse(s.dur_us));
    roots
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracer is process-global; every test that arms it holds this.
    pub(super) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disarmed_guard_is_empty_and_records_nothing() {
        let _lock = test_lock();
        disarm();
        let guard = span!("idle", { n: 7u64 });
        assert_eq!(guard.id(), 0);
        drop(guard);
        arm(16);
        assert!(drain().spans.is_empty());
        disarm();
    }

    #[test]
    fn ring_bound_drops_and_counts() {
        let _lock = test_lock();
        arm_with_clock(2, Clock::mock(0));
        for _ in 0..5 {
            drop(enter("tiny"));
        }
        let data = drain();
        assert_eq!(data.spans.len(), 2);
        assert_eq!(data.dropped, 3);
        disarm();
    }

    #[test]
    fn folded_stacks_carry_self_time() {
        let _lock = test_lock();
        let clock = Clock::mock(0);
        arm_with_clock(64, clock.clone());
        {
            let _outer = enter("outer");
            clock.advance_us(10);
            {
                let _inner = enter("inner");
                clock.advance_us(30);
            }
            clock.advance_us(5);
        }
        let folded = folded_stacks(&drain());
        assert!(folded.contains("outer 15\n"), "{folded:?}");
        assert!(folded.contains("outer;inner 30\n"), "{folded:?}");
        disarm();
    }

    #[test]
    fn critical_path_follows_longest_child() {
        let _lock = test_lock();
        let clock = Clock::mock(0);
        arm_with_clock(64, clock.clone());
        {
            let _root = enter("root");
            {
                let _short = enter("short");
                clock.advance_us(5);
            }
            {
                let _long = enter("long");
                clock.advance_us(50);
                let _leaf = enter("leaf");
                clock.advance_us(10);
            }
        }
        let data = drain();
        let roots = roots(&data);
        assert_eq!(roots.len(), 1);
        let path: Vec<&str> =
            critical_path(&data, roots[0]).iter().map(|s| s.name.as_ref()).collect();
        assert_eq!(path, ["root", "long", "leaf"]);
        disarm();
    }
}
