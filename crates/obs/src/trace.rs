//! Lock-free, thread-local trace-event buffers and a Chrome/Perfetto
//! `trace_event` exporter.
//!
//! Where the metric layer (`counter_add`, [`crate::span`]) aggregates,
//! tracing keeps the *sequence*: every begin/end/instant event lands in a
//! bounded per-thread ring with a monotonic timestamp, so a multi-threaded
//! Figure 12 sweep (`reproduce resilient --trace`) can be opened in
//! Perfetto and read as per-worker timelines — which worker ran which
//! sweep point, where the memo hits are, how long each solver call took.
//!
//! The recording path takes no lock and allocates only on the first event
//! of a thread (the ring itself): one relaxed atomic load while tracing
//! is off, a `RefCell` borrow plus a `Vec` write while on. When a ring is
//! full, *new* events are dropped and counted ([`TraceData::dropped`]) —
//! dropping the newest keeps every retained per-thread sequence a
//! contiguous, time-ordered prefix. Rings of exited threads flush into a
//! global sink; [`take_trace`] drains that sink plus the calling thread's
//! ring, which covers the scoped-worker pattern of `par_map`
//! (workers always exit before the harness exports).

use crate::json::JsonValue;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity, in events. At ~64 bytes per event a
/// full ring is ~4 MiB; a 180-point figure sweep with per-point spans and
/// health instants stays well below it.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Event kind, mirroring the Chrome `trace_event` phases we emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Span opened (`ph: "B"`).
    Begin,
    /// Span closed (`ph: "E"`).
    End,
    /// Point event (`ph: "i"`).
    Instant,
}

impl TracePhase {
    fn code(self) -> &'static str {
        match self {
            TracePhase::Begin => "B",
            TracePhase::End => "E",
            TracePhase::Instant => "i",
        }
    }
}

/// One recorded event. Metadata is deliberately static-only (a `'static`
/// name plus at most one numeric argument) so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Small dense thread id (1-based, process-wide).
    pub tid: u64,
    /// Nanoseconds since the process trace epoch; monotonic per thread.
    pub ts_ns: u64,
    /// Begin / end / instant.
    pub phase: TracePhase,
    /// Event name.
    pub name: &'static str,
    /// Optional `(key, value)` argument, e.g. `("shard", 3.0)`.
    pub arg: Option<(&'static str, f64)>,
}

/// Everything [`take_trace`] collected: the events plus how many were
/// dropped to ring overflow.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Collected events; per-tid subsequences are in recording order.
    pub events: Vec<TraceEvent>,
    /// Events lost to full rings across all contributing threads.
    pub dropped: u64,
}

impl TraceData {
    /// Renders the events as a Chrome/Perfetto `trace_event` JSON array
    /// (`chrome://tracing`, <https://ui.perfetto.dev>). Events are
    /// stably sorted by timestamp, so per-thread order survives;
    /// timestamps are fractional microseconds as the format requires.
    pub fn to_chrome_trace(&self) -> String {
        let mut ordered: Vec<&TraceEvent> = self.events.iter().collect();
        ordered.sort_by_key(|e| e.ts_ns);
        let mut out = String::with_capacity(ordered.len() * 96 + 2);
        out.push('[');
        for (i, e) in ordered.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut fields = vec![
                ("name", JsonValue::str(e.name)),
                ("ph", JsonValue::str(e.phase.code())),
                ("pid", JsonValue::UInt(1)),
                ("tid", JsonValue::UInt(e.tid)),
                ("ts", JsonValue::Float(e.ts_ns as f64 / 1e3)),
            ];
            if e.phase == TracePhase::Instant {
                // Thread-scoped instants render as ticks on their track.
                fields.push(("s", JsonValue::str("t")));
            }
            if let Some((key, value)) = e.arg {
                fields.push((
                    "args",
                    JsonValue::object(vec![(key, JsonValue::Float(value))]),
                ));
            }
            out.push_str(&JsonValue::object(fields).to_string());
        }
        out.push(']');
        out
    }
}

/// Checks that `text` is a well-formed Chrome trace: a JSON array whose
/// elements carry `name`/`ph`/`pid`/`tid`/`ts`, with `ph` one of
/// `B`/`E`/`X`/`i` and `ts` non-decreasing within each `tid`.
///
/// # Errors
///
/// A description of the first offending event.
///
/// Returns the event count on success.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let parsed = crate::json::parse(text)?;
    let events = parsed
        .as_array()
        .ok_or_else(|| "chrome trace must be a JSON array".to_string())?;
    let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for (i, event) in events.iter().enumerate() {
        let field = |key: &str| {
            event
                .get(key)
                .ok_or_else(|| format!("event {i}: missing {key:?}"))
        };
        field("name")?
            .as_str()
            .ok_or_else(|| format!("event {i}: name must be a string"))?;
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i}: ph must be a string"))?;
        if !matches!(ph, "B" | "E" | "X" | "i") {
            return Err(format!("event {i}: unexpected phase {ph:?}"));
        }
        field("pid")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: pid must be an integer"))?;
        let tid = field("tid")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: tid must be an integer"))?;
        let ts = field("ts")?
            .as_f64()
            .ok_or_else(|| format!("event {i}: ts must be a number"))?;
        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!(
                    "event {i}: ts {ts} goes backwards on tid {tid} (previous {prev})"
                ));
            }
        }
        last_ts.insert(tid, ts);
    }
    Ok(events.len())
}

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Running total of events lost to ring overflow since the last
/// [`reset`], across all threads. Unlike [`TraceData::dropped`] this
/// survives [`take_trace`] drains, so overflow that happened before an
/// export is never silently forgotten — the metrics artifact and the
/// `/metrics` endpoint publish it as the `trace.dropped` counter.
static DROPPED_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Events lost to ring overflow since the last [`reset`], process-wide.
pub fn dropped_total() -> u64 {
    DROPPED_TOTAL.load(Ordering::Relaxed)
}
/// Capacity applied to rings created after the last [`reset`]; settable
/// (before recording) so overflow behaviour is testable.
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_TRACE_CAPACITY);

/// Events of exited threads (flushed by the thread-local ring's `Drop`)
/// plus their overflow drop counts.
static SINK: Mutex<TraceData> = Mutex::new(TraceData {
    events: Vec::new(),
    dropped: 0,
});

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns trace recording on or off. Independent of [`crate::set_enabled`]
/// so timelines can be captured with or without the metric layer; off
/// (the default) makes every trace call a single relaxed atomic load.
pub fn set_trace_enabled(on: bool) {
    if on {
        // Pin the epoch before the first event so timestamps stay small.
        epoch();
    }
    TRACE_ENABLED.store(on, Ordering::SeqCst);
}

/// Whether trace recording is on. Call sites that need to prepare an
/// argument should check this first so the disabled path does no work.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Caps rings created from now on at `capacity` events (test hook; the
/// default is [`DEFAULT_TRACE_CAPACITY`]). Existing rings keep theirs
/// until [`reset`] discards them.
pub fn set_trace_capacity(capacity: usize) {
    RING_CAPACITY.store(capacity.max(1), Ordering::SeqCst);
}

struct Ring {
    tid: u64,
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Vec::new(),
            capacity: RING_CAPACITY.load(Ordering::Relaxed),
            dropped: 0,
        }
    }

    fn push(&mut self, phase: TracePhase, name: &'static str, arg: Option<(&'static str, f64)>) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            DROPPED_TOTAL.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.events.push(TraceEvent {
            tid: self.tid,
            ts_ns: now_ns(),
            phase,
            name,
            arg,
        });
    }

    fn flush_into(&mut self, sink: &mut TraceData) {
        sink.events.append(&mut self.events);
        sink.dropped += self.dropped;
        self.dropped = 0;
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // Thread exit: hand the ring's events to the global sink so
        // scoped workers' timelines survive them.
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        self.flush_into(&mut sink);
    }
}

thread_local! {
    static LOCAL_RING: RefCell<Option<Ring>> = const { RefCell::new(None) };
}

fn record(phase: TracePhase, name: &'static str, arg: Option<(&'static str, f64)>) {
    if !trace_enabled() {
        return;
    }
    // try_with: a drop during thread teardown must not abort the process.
    let _ = LOCAL_RING.try_with(|cell| {
        cell.borrow_mut()
            .get_or_insert_with(Ring::new)
            .push(phase, name, arg);
    });
}

/// Records a span-begin event on the current thread; no-op while tracing
/// is off.
#[inline]
pub fn trace_begin(name: &'static str) {
    record(TracePhase::Begin, name, None);
}

/// Records a span-begin event carrying one `(key, value)` argument.
#[inline]
pub fn trace_begin_arg(name: &'static str, key: &'static str, value: f64) {
    record(TracePhase::Begin, name, Some((key, value)));
}

/// Records a span-end event on the current thread; no-op while tracing
/// is off.
#[inline]
pub fn trace_end(name: &'static str) {
    record(TracePhase::End, name, None);
}

/// Records an instant event on the current thread; no-op while tracing
/// is off.
#[inline]
pub fn trace_instant(name: &'static str) {
    record(TracePhase::Instant, name, None);
}

/// Records an instant event carrying one `(key, value)` argument.
#[inline]
pub fn trace_instant_arg(name: &'static str, key: &'static str, value: f64) {
    record(TracePhase::Instant, name, Some((key, value)));
}

/// RAII pair of [`trace_begin`]/[`trace_end`]: emits `B` on creation and
/// `E` on drop (including unwinds). Inert while tracing is off.
#[must_use = "a trace span marks the scope it is bound to; dropping it immediately records an empty span"]
#[derive(Debug)]
pub struct TraceSpan {
    name: Option<&'static str>,
}

impl TraceSpan {
    /// Opens a trace span named `name`.
    pub fn enter(name: &'static str) -> TraceSpan {
        if !trace_enabled() {
            return TraceSpan { name: None };
        }
        trace_begin(name);
        TraceSpan { name: Some(name) }
    }

    /// Opens a trace span whose begin event carries one argument.
    pub fn enter_with_arg(name: &'static str, key: &'static str, value: f64) -> TraceSpan {
        if !trace_enabled() {
            return TraceSpan { name: None };
        }
        trace_begin_arg(name, key, value);
        TraceSpan { name: Some(name) }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            trace_end(name);
        }
    }
}

/// Drains every flushed ring plus the calling thread's ring into one
/// [`TraceData`]. Rings of threads that are still alive (other than the
/// caller) are not visible until those threads exit or call
/// [`flush_current_thread`] — the engine's worker loops flush explicitly
/// before returning, because a joined `std::thread::scope` does not imply
/// its workers' thread-local destructors have run.
pub fn take_trace() -> TraceData {
    let mut data = {
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *sink)
    };
    let _ = LOCAL_RING.try_with(|cell| {
        if let Some(ring) = cell.borrow_mut().as_mut() {
            ring.flush_into(&mut data);
        }
    });
    data
}

/// Flushes the calling thread's ring into the global sink without waiting
/// for thread exit.
///
/// `std::thread::scope` joins when a worker's *closure* finishes, which
/// happens before the worker's thread-local destructors run — so a
/// freshly-joined scope does not guarantee its workers' rings reached the
/// sink yet, and a [`take_trace`] racing that teardown window silently
/// loses those workers' events. Worker loops call this as their last act
/// so everything they recorded is visible the moment the scope returns.
pub fn flush_current_thread() {
    let _ = LOCAL_RING.try_with(|cell| {
        if let Some(ring) = cell.borrow_mut().as_mut() {
            if !ring.events.is_empty() || ring.dropped > 0 {
                let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
                ring.flush_into(&mut sink);
            }
        }
    });
}

/// Discards all buffered trace events and drop counts (sink and calling
/// thread) and re-arms the ring capacity for the next recording.
pub fn reset() {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    sink.events.clear();
    sink.dropped = 0;
    drop(sink);
    DROPPED_TOTAL.store(0, Ordering::SeqCst);
    let _ = LOCAL_RING.try_with(|cell| {
        // Dropping the ring would flush into the sink; discard instead.
        if let Some(ring) = cell.borrow_mut().as_mut() {
            ring.events.clear();
            ring.dropped = 0;
            ring.capacity = RING_CAPACITY.load(Ordering::Relaxed);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is process-global; tests of it serialize here.
    fn with_tracing<R>(capacity: usize, f: impl FnOnce() -> R) -> R {
        let _guard = crate::test_support::lock();
        set_trace_capacity(capacity);
        set_trace_enabled(true);
        reset();
        let result = f();
        set_trace_enabled(false);
        set_trace_capacity(DEFAULT_TRACE_CAPACITY);
        reset();
        result
    }

    #[test]
    fn disabled_records_nothing() {
        assert!(!trace_enabled());
        trace_instant("ignored");
        let _span = TraceSpan::enter("ignored");
    }

    #[test]
    fn spans_and_instants_round_trip_through_chrome_export() {
        let data = with_tracing(DEFAULT_TRACE_CAPACITY, || {
            {
                let _outer = TraceSpan::enter("outer");
                trace_instant_arg("cache.hit", "shard", 3.0);
                let _inner = TraceSpan::enter_with_arg("inner", "point", 7.0);
            }
            take_trace()
        });
        assert_eq!(data.dropped, 0);
        let phases: Vec<TracePhase> = data.events.iter().map(|e| e.phase).collect();
        assert_eq!(
            phases,
            vec![
                TracePhase::Begin,
                TracePhase::Instant,
                TracePhase::Begin,
                TracePhase::End,
                TracePhase::End,
            ]
        );
        let json = data.to_chrome_trace();
        let count = validate_chrome_trace(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert_eq!(count, 5);
        assert!(json.contains("\"args\":{\"shard\":3.0}"), "{json}");
        assert!(json.contains("\"s\":\"t\""), "instants are thread-scoped");
    }

    #[test]
    fn worker_threads_flush_on_exit_and_keep_distinct_tids() {
        let data = with_tracing(DEFAULT_TRACE_CAPACITY, || {
            // Plain spawn + join, not a scope: a scope can return before a
            // worker's TLS destructor has flushed its ring, while `join`
            // waits for the thread to exit.
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    std::thread::spawn(|| {
                        let _w = TraceSpan::enter("worker");
                        trace_instant("tick");
                    })
                })
                .collect();
            for worker in workers {
                worker.join().expect("worker thread");
            }
            take_trace()
        });
        let tids: std::collections::BTreeSet<u64> = data.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3, "one tid per worker: {tids:?}");
        assert_eq!(data.events.len(), 9, "B + i + E per worker");
        validate_chrome_trace(&data.to_chrome_trace()).unwrap();
    }

    #[test]
    fn overflow_drops_newest_and_counts_exactly() {
        const CAP: usize = 8;
        const TOTAL: usize = 30;
        let (data, total_after_drain) = with_tracing(CAP, || {
            for _ in 0..TOTAL {
                trace_instant("tick");
            }
            let data = take_trace();
            // The process-wide total survives the take_trace drain.
            (data, dropped_total())
        });
        assert_eq!(data.events.len(), CAP);
        assert_eq!(data.dropped, (TOTAL - CAP) as u64);
        assert_eq!(total_after_drain, (TOTAL - CAP) as u64);
        // The retained prefix is still a valid, monotonic timeline.
        let json = data.to_chrome_trace();
        assert_eq!(validate_chrome_trace(&json).unwrap(), CAP);
        for pair in data.events.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns);
        }
    }

    #[test]
    fn chrome_validator_rejects_defects() {
        assert!(validate_chrome_trace("{}").is_err(), "not an array");
        assert!(
            validate_chrome_trace(r#"[{"name":"x","ph":"Q","pid":1,"tid":1,"ts":0}]"#).is_err(),
            "unknown phase"
        );
        assert!(
            validate_chrome_trace(r#"[{"ph":"B","pid":1,"tid":1,"ts":0}]"#).is_err(),
            "missing name"
        );
        assert!(
            validate_chrome_trace(
                r#"[{"name":"a","ph":"B","pid":1,"tid":1,"ts":5.0},
                    {"name":"a","ph":"E","pid":1,"tid":1,"ts":4.0}]"#
            )
            .is_err(),
            "ts must be monotonic per tid"
        );
        // Interleaved tids are fine as long as each is monotonic.
        validate_chrome_trace(
            r#"[{"name":"a","ph":"B","pid":1,"tid":1,"ts":1.0},
                {"name":"b","ph":"B","pid":1,"tid":2,"ts":0.5},
                {"name":"a","ph":"E","pid":1,"tid":1,"ts":2.0},
                {"name":"b","ph":"E","pid":1,"tid":2,"ts":2.5}]"#,
        )
        .unwrap();
    }
}
