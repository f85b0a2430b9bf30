//! Structured spans and JSONL trace export.
//!
//! A [`Span`] is an RAII guard: entering writes an `enter` record (id,
//! parent id, thread, name, timestamp, optional numeric fields), dropping
//! writes an `exit` record with the wall-clock duration.  Parent links come
//! from a thread-local span stack, so traces reconstruct the call tree per
//! thread.  [`event`] writes a point record with no duration.
//!
//! Everything is gated on one process-wide activity bitmask:
//!
//! * `ACCLTL_TRACE=<path>` appends JSONL records to `<path>` and enables
//!   span timing;
//! * `ACCLTL_STATS=1` enables span timing only — durations accumulate into
//!   the [`crate::metrics`] registry (`span.<name>.ns` / `span.<name>.calls`)
//!   for the end-of-run summary.
//!
//! Both variables are read **once per process**, on first use, following
//! the `EngineConfig::from_env` convention.  With neither set,
//! [`span`]/[`event`] cost one relaxed atomic load and construct a no-op
//! guard — no allocation, no clock read, no branching in callers.
//!
//! Because the environment is read only once, tests and the trace validator
//! install sinks programmatically with [`set_trace_path`].
//!
//! # Record shapes
//!
//! ```text
//! {"ev":"enter","id":3,"parent":2,"thread":1,"name":"engine.expand","t_ns":81736,"fields":{"tasks":4}}
//! {"ev":"exit","id":3,"thread":1,"name":"engine.expand","dur_ns":51892}
//! {"ev":"event","thread":1,"name":"chase.report","t_ns":99121,"fields":{"passes":3}}
//! ```
//!
//! `id`s are unique per process; `parent` is `0` for root spans; `t_ns` is
//! nanoseconds since the sink was installed.  All field values are
//! non-negative integers — the `trace_check` example validates exactly this
//! grammar.

use std::cell::{Cell, RefCell};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, Once, OnceLock, RwLock};
use std::time::Instant;

use crate::json::JsonObject;
use crate::metrics;

/// The environment variable naming the JSONL trace output path.
pub const TRACE_ENV_VAR: &str = "ACCLTL_TRACE";

/// The environment variable enabling the human-readable stats summary.
pub const STATS_ENV_VAR: &str = "ACCLTL_STATS";

/// Activity bit: measure span durations and accumulate them as metrics.
const TIMING: u8 = 1;
/// Activity bit: a JSONL sink is installed; write enter/exit/event records.
const TRACING: u8 = 2;

static ACTIVE: AtomicU8 = AtomicU8::new(0);
static STATS: AtomicU8 = AtomicU8::new(0);
static INIT: Once = Once::new();
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

struct Sink {
    file: Mutex<File>,
    epoch: Instant,
}

impl Sink {
    fn write_line(&self, line: &str) {
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // A full disk mid-trace should not take the search down with it;
        // drop the record and keep the verdict path untouched.
        let _ = file.write_all(line.as_bytes());
        let _ = file.write_all(b"\n");
    }
}

fn sink_slot() -> &'static RwLock<Option<&'static Sink>> {
    static SLOT: OnceLock<RwLock<Option<&'static Sink>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

fn init_from_env() {
    INIT.call_once(|| {
        if std::env::var(STATS_ENV_VAR).is_ok_and(|v| v == "1") {
            STATS.store(TIMING, Ordering::Relaxed);
        }
        let path = std::env::var_os(TRACE_ENV_VAR);
        match path {
            Some(path) if !path.is_empty() => install_sink(Path::new(&path)),
            _ => ACTIVE.store(STATS.load(Ordering::Relaxed), Ordering::Relaxed),
        }
    });
}

fn install_sink(path: &Path) {
    let file = OpenOptions::new().create(true).append(true).open(path);
    let slot = sink_slot();
    let mut guard = slot
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    match file {
        Ok(file) => {
            // Sinks are leaked: spans already in flight may still hold the
            // previous sink's records, and a process traces at most a
            // handful of sinks (env init plus test installs).
            let sink: &'static Sink = Box::leak(Box::new(Sink {
                file: Mutex::new(file),
                epoch: Instant::now(),
            }));
            *guard = Some(sink);
            ACTIVE.store(TIMING | TRACING, Ordering::Relaxed);
        }
        Err(_) => {
            // An unopenable trace path must not change verdicts or output:
            // fall back to the stats-only bits.
            *guard = None;
            ACTIVE.store(STATS.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

fn active() -> u8 {
    init_from_env();
    ACTIVE.load(Ordering::Relaxed)
}

/// Whether the `ACCLTL_STATS=1` summary is enabled for this process.
pub fn stats_enabled() -> bool {
    init_from_env();
    STATS.load(Ordering::Relaxed) != 0
}

/// Whether a JSONL trace sink is currently installed.  Callers may use this
/// to gate loops that emit many [`event`]s; single events need no guard.
pub fn tracing() -> bool {
    init_from_env();
    ACTIVE.load(Ordering::Relaxed) & TRACING != 0
}

/// Installs (`Some(path)`) or removes (`None`) the JSONL trace sink,
/// overriding whatever `ACCLTL_TRACE` said at process start.
///
/// The environment is read once per process, so tests and harnesses that
/// need tracing after startup use this hook.  Do not swap sinks while spans
/// are open: their exit records would land in the new sink unmatched.
pub fn set_trace_path(path: Option<&Path>) {
    init_from_env();
    match path {
        Some(path) => install_sink(path),
        None => {
            let mut guard = sink_slot()
                .write()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            *guard = None;
            ACTIVE.store(STATS.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

fn current_sink() -> Option<&'static Sink> {
    *sink_slot()
        .read()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn thread_id() -> u64 {
    THREAD_ID.with(|cell| {
        let id = cell.get();
        if id != 0 {
            id
        } else {
            let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            cell.set(id);
            id
        }
    })
}

fn render_fields(fields: &[(&str, u64)]) -> String {
    let mut object = JsonObject::new();
    for (key, value) in fields {
        object = object.num(key, *value);
    }
    object.build()
}

/// An RAII span guard; see the module docs.  When observability is fully
/// disabled this is a no-op zero-field-work guard.
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    id: u64,
    name: &'static str,
    start: Instant,
    traced: bool,
}

/// Opens a span named `name`.  Equivalent to [`span_fields`] with no fields.
pub fn span(name: &'static str) -> Span {
    span_fields(name, &[])
}

/// Opens a span named `name` carrying numeric `fields` on its enter record.
///
/// Field values must be non-negative by construction (`u64`) — the trace
/// validator rejects anything else.
pub fn span_fields(name: &'static str, fields: &[(&str, u64)]) -> Span {
    let active = active();
    if active == 0 {
        return Span { inner: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    let traced = active & TRACING != 0;
    if traced {
        if let Some(sink) = current_sink() {
            let mut record = JsonObject::new()
                .str("ev", "enter")
                .num("id", id)
                .num("parent", parent)
                .num("thread", thread_id())
                .str("name", name)
                .num("t_ns", sink.epoch.elapsed().as_nanos() as u64);
            if !fields.is_empty() {
                record = record.raw("fields", render_fields(fields));
            }
            sink.write_line(&record.build());
        }
    }
    Span {
        inner: Some(SpanInner {
            id,
            name,
            start: Instant::now(),
            traced,
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_ns = inner.start.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Spans are scoped guards, so this is the top unless a caller
            // leaked one across threads; search from the end to stay safe.
            if let Some(at) = stack.iter().rposition(|&id| id == inner.id) {
                stack.remove(at);
            }
        });
        metrics::add(&format!("span.{}.ns", inner.name), dur_ns);
        metrics::add(&format!("span.{}.calls", inner.name), 1);
        if inner.traced {
            if let Some(sink) = current_sink() {
                let record = JsonObject::new()
                    .str("ev", "exit")
                    .num("id", inner.id)
                    .num("thread", thread_id())
                    .str("name", inner.name)
                    .num("dur_ns", dur_ns)
                    .build();
                sink.write_line(&record);
            }
        }
    }
}

/// Writes a point event named `name` with numeric `fields` to the trace
/// sink.  A no-op (one atomic load) unless tracing is active.
pub fn event(name: &str, fields: &[(&str, u64)]) {
    if active() & TRACING == 0 {
        return;
    }
    let Some(sink) = current_sink() else { return };
    let mut record = JsonObject::new()
        .str("ev", "event")
        .num("thread", thread_id())
        .str("name", name)
        .num("t_ns", sink.epoch.elapsed().as_nanos() as u64);
    if !fields.is_empty() {
        record = record.raw("fields", render_fields(fields));
    }
    sink.write_line(&record.build());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use std::sync::Mutex as StdMutex;

    // Trace state is process-global; serialize the tests that touch it.
    static TRACE_TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn temp_trace_path(tag: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "accltl_obs_trace_{tag}_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn disabled_spans_are_noops() {
        let _guard = TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        set_trace_path(None);
        if stats_enabled() {
            // An outer ACCLTL_STATS=1 keeps timing on; nothing to assert.
            return;
        }
        let before = crate::metrics::snapshot();
        {
            let _span = span("test.noop");
            event("test.noop.event", &[("n", 1)]);
        }
        let after = crate::metrics::snapshot();
        assert_eq!(
            after.counter("span.test.noop.calls"),
            before.counter("span.test.noop.calls")
        );
    }

    #[test]
    fn traced_spans_round_trip_through_the_sink() {
        let _guard = TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let path = temp_trace_path("roundtrip");
        set_trace_path(Some(&path));
        {
            let _outer = span_fields("test.outer", &[("k", 7)]);
            {
                let _inner = span("test.inner");
            }
            event("test.point", &[("v", 3)]);
        }
        set_trace_path(None);

        let contents = std::fs::read_to_string(&path).unwrap();
        let records: Vec<JsonValue> = contents
            .lines()
            .map(|line| parse(line).expect("every trace line parses"))
            .collect();
        assert_eq!(records.len(), 5, "enter/enter/exit/event/exit");

        let enters: Vec<&JsonValue> = records
            .iter()
            .filter(|r| r.get("ev").and_then(JsonValue::as_str) == Some("enter"))
            .collect();
        assert_eq!(enters.len(), 2);
        let outer_id = enters[0].get("id").unwrap().as_int().unwrap();
        assert_eq!(
            enters[0].get("fields").unwrap().get("k").unwrap().as_int(),
            Some(7)
        );
        // The inner span's parent link points at the outer span.
        assert_eq!(enters[1].get("parent").unwrap().as_int(), Some(outer_id));
        // Exits carry durations; the timing metrics accumulated too.
        assert!(records.iter().any(|r| {
            r.get("ev").and_then(JsonValue::as_str) == Some("exit")
                && r.get("dur_ns").and_then(JsonValue::as_int).is_some()
        }));
        assert!(crate::metrics::snapshot().counter("span.test.inner.calls") >= 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn events_only_reach_installed_sinks() {
        let _guard = TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        set_trace_path(None);
        assert!(!tracing());
        event("test.dropped", &[]);
        let path = temp_trace_path("events");
        set_trace_path(Some(&path));
        assert!(tracing());
        event("test.kept", &[("count", 2)]);
        set_trace_path(None);
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains("test.kept"));
        assert!(!contents.contains("test.dropped"));
        let _ = std::fs::remove_file(&path);
    }
}
