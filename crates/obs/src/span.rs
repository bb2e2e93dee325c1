//! Nested spans: enter/exit timing with thread-safe aggregation.
//!
//! A [`Span`] is an RAII guard: [`Span::enter`] opens it, dropping it
//! closes it and records the measurement into the [`Recorder`] it was
//! opened against. Every enter therefore has exactly one matching exit,
//! and nesting is tracked per thread — a span opened while another span is
//! live on the same thread records that span as its parent, which is what
//! makes the Chrome-trace export render a proper flame graph.
//!
//! Recorders come in three modes:
//!
//! * **Off** — `Span::enter` is one branch; no clock read, no allocation.
//! * **Aggregating** — only per-(category, name) totals are kept, bounded
//!   by [`MAX_TOTAL_KEYS`] names per category, so a daemon can run
//!   forever. This feeds the span section of the `stats` snapshot.
//! * **Recording** — every span record is kept and
//!   [`Recorder::chrome_trace_json`] exports them in Chrome trace format
//!   (load the file in `chrome://tracing` or Perfetto).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Names kept per category by an aggregating recorder before new names in
/// that category fold into its `other` bucket. Bounds daemon memory when
/// span names carry unbounded cardinality (per-function spans); categories
/// are string literals, so the cap per category bounds the whole map, and
/// a flood of function names cannot push a pass out of its own row.
pub const MAX_TOTAL_KEYS: usize = 1024;

/// What a recorder keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecorderMode {
    /// Totals only, bounded — for long-lived daemons.
    Aggregating,
    /// Every span record — for one-shot profiling and export.
    Recording,
}

/// One closed span, as kept by a recording recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the recorder.
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Dense per-process thread number (not the OS tid).
    pub tid: u64,
    /// Category (`pass`, `function`, `request`, ...).
    pub cat: String,
    /// Name within the category.
    pub name: String,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Key=value attachments (`Span::arg` / `Span::counter`).
    pub args: Vec<(String, String)>,
}

/// Aggregated totals for one (category, name) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTotal {
    /// Category.
    pub cat: String,
    /// Name (the literal `"other"` bucket absorbs a category's overflow
    /// past [`MAX_TOTAL_KEYS`]).
    pub name: String,
    /// Number of spans closed under this key.
    pub count: u64,
    /// Cumulative wall-clock microseconds.
    pub total_us: u64,
}

/// Category → name → (count, total microseconds). Recording a span under
/// a key already present allocates nothing.
#[derive(Debug, Default)]
struct Totals {
    map: BTreeMap<&'static str, BTreeMap<String, (u64, u64)>>,
}

impl Totals {
    fn record(&mut self, cat: &'static str, name: &str, dur_us: u64) {
        let names = self.map.entry(cat).or_default();
        let name = if names.len() >= MAX_TOTAL_KEYS && !names.contains_key(name) {
            "other"
        } else {
            name
        };
        let slot = match names.get_mut(name) {
            Some(slot) => slot,
            None => names.entry(name.to_string()).or_insert((0, 0)),
        };
        slot.0 += 1;
        slot.1 += dur_us;
    }
}

#[derive(Debug)]
struct RecorderInner {
    epoch: Instant,
    mode: RecorderMode,
    next_id: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
    totals: Mutex<Totals>,
}

/// The span sink. Cloning shares the sink; the default recorder is off.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<RecorderInner>>,
}

thread_local! {
    /// Live span ids on this thread, innermost last. Shared across
    /// recorders: interleaving two live recorders on one thread would
    /// cross-link parents, which no in-tree layer does.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    /// Dense thread number for trace export (ThreadId has no stable u64).
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder::default()
    }

    fn with_mode(mode: RecorderMode) -> Recorder {
        Recorder {
            inner: Some(Arc::new(RecorderInner {
                epoch: Instant::now(),
                mode,
                next_id: AtomicU64::new(1),
                records: Mutex::new(Vec::new()),
                totals: Mutex::new(Totals::default()),
            })),
        }
    }

    /// Totals-only recorder (bounded; daemon-safe).
    pub fn aggregating() -> Recorder {
        Recorder::with_mode(RecorderMode::Aggregating)
    }

    /// Full recorder (keeps every span; exportable as a Chrome trace).
    pub fn recording() -> Recorder {
        Recorder::with_mode(RecorderMode::Recording)
    }

    /// Is anything being recorded?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span. Equivalent to [`Span::enter`].
    pub fn span(&self, cat: &'static str, name: &str) -> Span {
        let Some(inner) = &self.inner else {
            return Span { state: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        Span {
            state: Some(SpanState {
                rec: inner.clone(),
                id,
                parent,
                cat,
                name: name.to_string(),
                start: Instant::now(),
                args: Vec::new(),
            }),
        }
    }

    /// Aggregated per-(category, name) totals, sorted by key.
    pub fn totals(&self) -> Vec<SpanTotal> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .totals
            .lock()
            .unwrap()
            .map
            .iter()
            .flat_map(|(cat, names)| {
                names.iter().map(|(name, (count, total_us))| SpanTotal {
                    cat: cat.to_string(),
                    name: name.clone(),
                    count: *count,
                    total_us: *total_us,
                })
            })
            .collect()
    }

    /// Every closed span record (empty unless in recording mode).
    pub fn records(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner.records.lock().unwrap().clone(),
            None => Vec::new(),
        }
    }

    /// Export every recorded span as Chrome trace format JSON — the
    /// `{"traceEvents": [...]}` object form, one complete (`"ph":"X"`)
    /// event per span, timestamps in microseconds since the recorder's
    /// epoch. Loads directly in `chrome://tracing` and Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        let records = self.records();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
                json_str(&r.name),
                json_str(&r.cat),
                r.start_us,
                r.dur_us,
                r.tid,
            );
            out.push_str(",\"args\":{");
            for (j, (k, v)) in r.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_str(k), json_str(v));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string literal writer (escapes quotes, backslashes, and
/// control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Debug)]
struct SpanState {
    rec: Arc<RecorderInner>,
    id: u64,
    parent: Option<u64>,
    cat: &'static str,
    name: String,
    start: Instant,
    args: Vec<(String, String)>,
}

/// An open span; closing (dropping) it records the measurement.
#[derive(Debug)]
pub struct Span {
    /// `None` when the recorder is off — every method is then a no-op.
    state: Option<SpanState>,
}

impl Span {
    /// Open a span against `recorder`. The paper-facing spelling of
    /// [`Recorder::span`]: `Span::enter(&rec, "pass", name)`.
    pub fn enter(recorder: &Recorder, cat: &'static str, name: &str) -> Span {
        recorder.span(cat, name)
    }

    /// Attach a key=value argument (rendered into the Chrome trace).
    pub fn arg(&mut self, key: &'static str, value: impl Display) {
        if let Some(state) = &mut self.state {
            state.args.push((key.to_string(), value.to_string()));
        }
    }

    /// Attach a counter value — spelled separately from [`Span::arg`] to
    /// document intent at call sites, stored identically.
    pub fn counter(&mut self, key: &'static str, value: u64) {
        self.arg(key, value);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let dur_us = state.start.elapsed().as_micros() as u64;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Spans are guards, so this thread's innermost open span is us;
            // be tolerant if a span was moved across threads before drop.
            if stack.last() == Some(&state.id) {
                stack.pop();
            } else {
                stack.retain(|&id| id != state.id);
            }
        });
        state
            .rec
            .totals
            .lock()
            .unwrap()
            .record(state.cat, &state.name, dur_us);
        if state.rec.mode == RecorderMode::Recording {
            let start_us = state.start.duration_since(state.rec.epoch).as_micros() as u64;
            state.rec.records.lock().unwrap().push(SpanRecord {
                id: state.id,
                parent: state.parent,
                tid: TID.with(|t| *t),
                cat: state.cat.to_string(),
                name: state.name,
                start_us,
                dur_us,
                args: state.args,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::off();
        let mut span = rec.span("pass", "X");
        span.arg("k", 1);
        drop(span);
        assert!(rec.totals().is_empty());
        assert!(rec.records().is_empty());
        assert!(!rec.is_enabled());
    }

    #[test]
    fn nesting_is_well_formed() {
        let rec = Recorder::recording();
        {
            let _outer = Span::enter(&rec, "pass", "OUTER");
            {
                let mut inner = Span::enter(&rec, "function", "f");
                inner.counter("edits", 3);
            }
            let _inner2 = Span::enter(&rec, "function", "g");
        }
        let records = rec.records();
        assert_eq!(records.len(), 3);
        let outer = records.iter().find(|r| r.name == "OUTER").unwrap();
        for name in ["f", "g"] {
            let child = records.iter().find(|r| r.name == name).unwrap();
            assert_eq!(child.parent, Some(outer.id), "{name} nests in OUTER");
            assert!(child.start_us >= outer.start_us);
            assert!(child.start_us + child.dur_us <= outer.start_us + outer.dur_us);
        }
        assert_eq!(outer.parent, None);
        let f = records.iter().find(|r| r.name == "f").unwrap();
        assert_eq!(f.args, vec![("edits".to_string(), "3".to_string())]);
    }

    #[test]
    fn cross_thread_spans_keep_their_own_stacks() {
        let rec = Recorder::recording();
        let _outer = Span::enter(&rec, "pass", "OUTER");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let rec = rec.clone();
                scope.spawn(move || {
                    let _s = Span::enter(&rec, "function", "worker");
                });
            }
        });
        drop(_outer);
        let records = rec.records();
        let workers: Vec<_> = records.iter().filter(|r| r.name == "worker").collect();
        assert_eq!(workers.len(), 2);
        for w in workers {
            assert_eq!(w.parent, None, "worker threads have their own stack");
        }
    }

    #[test]
    fn aggregating_mode_keeps_totals_only() {
        let rec = Recorder::aggregating();
        for _ in 0..3 {
            let _s = rec.span("pass", "REDTEST");
        }
        let _other = rec.span("pass", "DCE");
        drop(_other);
        assert!(rec.records().is_empty(), "no per-span records kept");
        let totals = rec.totals();
        assert_eq!(totals.len(), 2);
        let redtest = totals.iter().find(|t| t.name == "REDTEST").unwrap();
        assert_eq!(redtest.count, 3);
        assert_eq!(redtest.cat, "pass");
    }

    #[test]
    fn totals_cardinality_is_bounded() {
        let rec = Recorder::aggregating();
        for i in 0..(MAX_TOTAL_KEYS + 50) {
            let _s = rec.span("function", &format!("f{i}"));
        }
        let totals = rec.totals();
        assert!(totals.len() <= MAX_TOTAL_KEYS + 1);
        let other = totals.iter().find(|t| t.name == "other").unwrap();
        assert_eq!(other.count, 50, "overflow folds into the `other` bucket");
        let total_count: u64 = totals.iter().map(|t| t.count).sum();
        assert_eq!(total_count, (MAX_TOTAL_KEYS + 50) as u64);
    }

    #[test]
    fn overflow_in_one_category_leaves_others_their_rows() {
        let rec = Recorder::aggregating();
        for i in 0..(MAX_TOTAL_KEYS + 50) {
            let _s = rec.span("function", &format!("f{i}"));
        }
        drop(rec.span("pass", "LOOP16"));
        let totals = rec.totals();
        let loop16 = totals
            .iter()
            .find(|t| t.cat == "pass" && t.name == "LOOP16")
            .expect("a pass keeps its own row past the function cap");
        assert_eq!(loop16.count, 1);
        assert!(!totals.iter().any(|t| t.cat == "pass" && t.name == "other"));
        let functions = totals.iter().filter(|t| t.cat == "function").count();
        assert_eq!(functions, MAX_TOTAL_KEYS + 1, "the cap holds per category");
    }

    #[test]
    fn chrome_export_escapes_and_shapes() {
        let rec = Recorder::recording();
        {
            let mut s = rec.span("pass", "quote\"back\\slash");
            s.arg("note", "line\nbreak");
        }
        let json = rec.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("quote\\\"back\\\\slash"));
        assert!(json.contains("line\\nbreak"));
        assert!(json.ends_with("]}"));
    }
}
