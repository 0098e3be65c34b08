//! # uavail-obs
//!
//! Zero-dependency, in-tree observability for the evaluation and
//! simulation engine — the same spirit as the vendored `rand` and
//! `proptest` shims: the build environment cannot reach crates.io, so
//! the workspace carries its own minimal metrics layer.
//!
//! The design contract, in order of importance:
//!
//! 1. **Instrumentation never changes results.** Recording only ever
//!    observes wall-clock time and event counts; no instrumented code
//!    path branches on recorder state in a way that affects numerics.
//!    The `uavail-travel` test suite pins this: every reproduced figure
//!    and table is bit-identical with recording on and off.
//! 2. **The disabled path is as close to free as possible.** The global
//!    recorder is a no-op until [`set_enabled`]`(true)`: every
//!    instrumentation call starts with one relaxed atomic load and
//!    returns immediately, with no clock read, no allocation and no lock.
//! 3. **Aggregation is deterministic.** Counters, gauges, histograms
//!    ([`Histogram`]) and span timers ([`SpanStats`]) accumulate in
//!    integer atomics, and [`Recorder::merge`] uses only commutative,
//!    associative integer operations — merging per-thread recorders in
//!    any order yields bit-identical snapshots, the integer analogue of
//!    `OnlineStats::merge` in `uavail-sim`.
//!
//! # Metric kinds
//!
//! * **Counters** — monotone `u64` sums ([`counter_add`]); cache
//!   hits/misses, points evaluated, sessions simulated.
//! * **Gauges** — last-written `u64` values ([`gauge_set`]); cache size.
//! * **Histograms** — 64 log₂ buckets over `u64` samples
//!   ([`histogram_record`], [`Stopwatch`]); per-point sweep latencies.
//! * **Spans** — hierarchical wall-clock timers ([`span`]) keyed by the
//!   `/`-joined path of open spans on the current thread.
//! * **Labels** — sets of descriptive strings ([`label`]); RNG stream
//!   identities of replication batches.
//! * **Health** — `f64` count/min/max channels ([`health_record`]) fed by
//!   the numerical kernels; solver residuals, pivot minima, probability
//!   drift. See [`HealthStats`] for why only extremes are kept.
//!
//! Orthogonal to the aggregating recorder, the [`trace`] module keeps
//! *sequences*: bounded per-thread rings of begin/end/instant events
//! exported as Chrome/Perfetto timelines ([`trace::TraceData::to_chrome_trace`]),
//! behind their own [`set_trace_enabled`] flag.
//!
//! For resident (serve-loop) use the [`window`] module adds sliding
//! windows — rings of epochs with a deterministic, injected clock — and
//! the [`slo`] module folds request outcomes into a rolling
//! user-perceived availability estimate graded against the analytic
//! `A(WS)` target ([`SloMonitor`]). Both share the process-wide
//! telemetry clock ([`clock_advance_to`]) and gate their global entry
//! points on the same [`enabled`] flag.
//!
//! # Example
//!
//! ```
//! uavail_obs::set_enabled(true);
//! uavail_obs::reset();
//! {
//!     let _span = uavail_obs::span("sweep");
//!     for point in 0..90u64 {
//!         uavail_obs::counter_add("sweep.points", 1);
//!         uavail_obs::histogram_record("sweep.point_cost", point % 7);
//!     }
//! }
//! let snap = uavail_obs::snapshot();
//! assert_eq!(snap.counter("sweep.points"), 90);
//! assert_eq!(snap.spans["sweep"].count, 1);
//! uavail_obs::set_enabled(false);
//! ```

mod health;
mod histogram;
pub mod json;
pub mod slo;
mod span;
pub mod trace;
pub mod window;

pub use health::{HealthStats, HealthSummary};
pub use histogram::{Histogram, HistogramSummary, BUCKET_COUNT};
pub use slo::{
    slo_configure, slo_degraded, slo_record_outcomes, slo_reset, slo_snapshot, Outcome, SloConfig,
    SloMonitor, SloSnapshot, SloState,
};
pub use span::{SpanGuard, SpanStats, SpanSummary, Stopwatch};
pub use trace::{
    set_trace_enabled, take_trace, trace_enabled, trace_instant, trace_instant_arg, TraceData,
    TraceEvent, TraceSpan,
};
pub use window::{
    clock_advance_to, clock_now_ns, window_configure, window_record, window_reset,
    window_summaries, SlidingWindow, WindowCounter, WindowSummary,
};

use json::JsonValue;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A set of named metrics.
///
/// The global instance (see [`global`]) is what the free functions write
/// to; standalone instances exist for per-thread collection and for
/// testing, and fold together via [`Recorder::merge`].
#[derive(Debug, Default)]
pub struct Recorder {
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<HashMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
    spans: RwLock<HashMap<String, Arc<SpanStats>>>,
    health: RwLock<HashMap<String, Arc<HealthStats>>>,
    labels: Mutex<BTreeMap<String, BTreeSet<String>>>,
}

/// Reads a lock even if a writer panicked: metrics must never take the
/// application down, and every critical section below is panic-free.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Looks up (read lock) or registers (write lock, first time only) the
/// metric cell for `name`; after registration all updates are lock-free
/// atomic operations on the shared cell.
fn intern<T>(
    map: &RwLock<HashMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    if let Some(existing) = read_lock(map).get(name) {
        return Arc::clone(existing);
    }
    let mut guard = write_lock(map);
    Arc::clone(
        guard
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(make())),
    )
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Adds `delta` to counter `name` (registering it at 0 first).
    pub fn counter_add(&self, name: &str, delta: u64) {
        intern(&self.counters, name, AtomicU64::default).fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value of counter `name` (0 when never written).
    pub fn counter(&self, name: &str) -> u64 {
        read_lock(&self.counters)
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: u64) {
        intern(&self.gauges, name, AtomicU64::default).store(value, Ordering::Relaxed);
    }

    /// Records `value` into histogram `name`.
    pub fn histogram_record(&self, name: &str, value: u64) {
        intern(&self.histograms, name, Histogram::new).record(value);
    }

    /// Records a completed span of `nanos` under `path`.
    pub fn record_span(&self, path: &str, nanos: u64) {
        intern(&self.spans, path, SpanStats::new).record(nanos);
    }

    /// Records `value` into health channel `name`.
    pub fn health_record(&self, name: &str, value: f64) {
        intern(&self.health, name, HealthStats::new).record(value);
    }

    /// Inserts `value` into the label set `name`.
    pub fn label(&self, name: &str, value: &str) {
        let mut labels = self.labels.lock().unwrap_or_else(|e| e.into_inner());
        labels
            .entry(name.to_string())
            .or_default()
            .insert(value.to_string());
    }

    /// Folds every metric of `other` into `self`.
    ///
    /// Counters, histogram buckets and span timings add; gauges take the
    /// maximum (the only merge of two last-written values that is
    /// order-independent); health channels merge count/min/max. Merging
    /// any permutation of the same recorders therefore produces identical
    /// snapshots.
    ///
    /// **Label-conflict policy:** when both recorders carry the same
    /// label name, the merged set is the *union* of both value sets —
    /// deliberately neither first-writer-wins nor last-writer-wins, both
    /// of which would make the result depend on merge order. Duplicate
    /// values collapse (sets), and snapshots render each set sorted, so
    /// any merge order yields byte-identical output. Pinned by the
    /// `merge_label_conflicts_union_deterministically` test.
    pub fn merge(&self, other: &Recorder) {
        for (name, counter) in read_lock(&other.counters).iter() {
            let delta = counter.load(Ordering::Relaxed);
            if delta > 0 {
                self.counter_add(name, delta);
            }
        }
        for (name, gauge) in read_lock(&other.gauges).iter() {
            let theirs = gauge.load(Ordering::Relaxed);
            intern(&self.gauges, name, AtomicU64::default).fetch_max(theirs, Ordering::Relaxed);
        }
        for (name, histogram) in read_lock(&other.histograms).iter() {
            intern(&self.histograms, name, Histogram::new).merge(histogram);
        }
        for (path, stats) in read_lock(&other.spans).iter() {
            intern(&self.spans, path, SpanStats::new).merge(stats);
        }
        for (name, stats) in read_lock(&other.health).iter() {
            intern(&self.health, name, HealthStats::new).merge(stats);
        }
        let other_labels = other.labels.lock().unwrap_or_else(|e| e.into_inner());
        let mut labels = self.labels.lock().unwrap_or_else(|e| e.into_inner());
        for (name, values) in other_labels.iter() {
            labels
                .entry(name.clone())
                .or_default()
                .extend(values.iter().cloned());
        }
    }

    /// Clears every metric.
    pub fn reset(&self) {
        write_lock(&self.counters).clear();
        write_lock(&self.gauges).clear();
        write_lock(&self.histograms).clear();
        write_lock(&self.spans).clear();
        write_lock(&self.health).clear();
        self.labels
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// Point-in-time copy of every metric, with deterministic (sorted)
    /// ordering.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: read_lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: read_lock(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: read_lock(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
            spans: read_lock(&self.spans)
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
            health: read_lock(&self.health)
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
            labels: self
                .labels
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.iter().cloned().collect()))
                .collect(),
        }
    }
}

/// Deterministically ordered copy of a [`Recorder`]'s state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Span summaries by `/`-joined path.
    pub spans: BTreeMap<String, SpanSummary>,
    /// Health-channel summaries by name.
    pub health: BTreeMap<String, HealthSummary>,
    /// Label sets by name, sorted.
    pub labels: BTreeMap<String, Vec<String>>,
}

impl Snapshot {
    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Serializes the snapshot as JSON lines, one self-describing record
    /// per metric (`{"type":"counter",...}`, `{"type":"span",...}`, …),
    /// sorted by kind then name. See EXPERIMENTS.md for the schema.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            push_line(
                &mut out,
                JsonValue::object(vec![
                    ("type", JsonValue::str("counter")),
                    ("name", JsonValue::str(name.as_str())),
                    ("value", JsonValue::UInt(*value)),
                ]),
            );
        }
        for (name, value) in &self.gauges {
            push_line(
                &mut out,
                JsonValue::object(vec![
                    ("type", JsonValue::str("gauge")),
                    ("name", JsonValue::str(name.as_str())),
                    ("value", JsonValue::UInt(*value)),
                ]),
            );
        }
        for (path, s) in &self.spans {
            push_line(
                &mut out,
                JsonValue::object(vec![
                    ("type", JsonValue::str("span")),
                    ("path", JsonValue::str(path.as_str())),
                    ("count", JsonValue::UInt(s.count)),
                    ("total_ns", JsonValue::UInt(s.total_nanos)),
                    ("min_ns", JsonValue::UInt(s.min_nanos)),
                    ("max_ns", JsonValue::UInt(s.max_nanos)),
                    ("mean_ns", JsonValue::Float(s.mean_nanos)),
                ]),
            );
        }
        for (name, s) in &self.histograms {
            push_line(
                &mut out,
                JsonValue::object(vec![
                    ("type", JsonValue::str("histogram")),
                    ("name", JsonValue::str(name.as_str())),
                    ("count", JsonValue::UInt(s.count)),
                    ("sum", JsonValue::UInt(s.sum)),
                    ("min", JsonValue::UInt(s.min)),
                    ("max", JsonValue::UInt(s.max)),
                    ("mean", JsonValue::Float(s.mean)),
                    ("p50", JsonValue::UInt(s.p50)),
                    ("p90", JsonValue::UInt(s.p90)),
                    ("p99", JsonValue::UInt(s.p99)),
                    (
                        "buckets",
                        JsonValue::Array(
                            s.buckets
                                .iter()
                                .map(|&(upper, count)| {
                                    JsonValue::Array(vec![
                                        JsonValue::UInt(upper),
                                        JsonValue::UInt(count),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            );
        }
        for (name, s) in &self.health {
            push_line(
                &mut out,
                JsonValue::object(vec![
                    ("type", JsonValue::str("health")),
                    ("name", JsonValue::str(name.as_str())),
                    ("count", JsonValue::UInt(s.count)),
                    ("min", JsonValue::Float(s.min)),
                    ("max", JsonValue::Float(s.max)),
                ]),
            );
        }
        for (name, values) in &self.labels {
            push_line(
                &mut out,
                JsonValue::object(vec![
                    ("type", JsonValue::str("label")),
                    ("name", JsonValue::str(name.as_str())),
                    (
                        "values",
                        JsonValue::Array(
                            values.iter().map(|v| JsonValue::str(v.as_str())).collect(),
                        ),
                    ),
                ]),
            );
        }
        out
    }
}

fn push_line(out: &mut String, value: JsonValue) {
    out.push_str(&value.to_string());
    out.push('\n');
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns global recording on or off. Off (the default) makes every
/// instrumentation call a single relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether global recording is on. Instrumented call sites that need to
/// prepare inputs (e.g. format a label) should check this first so the
/// disabled path does no work.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide recorder the free functions write to.
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

/// Adds `delta` to global counter `name`; no-op while disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        global().counter_add(name, delta);
    }
}

/// Sets global gauge `name`; no-op while disabled.
#[inline]
pub fn gauge_set(name: &str, value: u64) {
    if enabled() {
        global().gauge_set(name, value);
    }
}

/// Records into global histogram `name`; no-op while disabled.
#[inline]
pub fn histogram_record(name: &str, value: u64) {
    if enabled() {
        global().histogram_record(name, value);
    }
}

/// Records into global health channel `name`; no-op while disabled.
/// When tracing is also on, mirrors the observation as an instant event
/// so precision excursions are visible on the timeline.
#[inline]
pub fn health_record(name: &'static str, value: f64) {
    if enabled() {
        global().health_record(name, value);
        if trace_enabled() {
            trace_instant_arg(name, "value", value);
        }
    }
}

/// Inserts into global label set `name`; no-op while disabled.
#[inline]
pub fn label(name: &str, value: &str) {
    if enabled() {
        global().label(name, value);
    }
}

/// Opens a named span on the current thread; the guard records its
/// wall-clock lifetime under the hierarchical span path when dropped.
/// Inert while disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::enter(name)
}

/// Snapshot of the global recorder.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clears the global recorder.
pub fn reset() {
    global().reset();
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard};

    /// Recorder and trace state are process-wide, so every test in this
    /// binary that toggles either enable flag serializes on this lock.
    pub(crate) fn lock() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global enable flag is shared across tests in this binary, so
    /// exercises of the global API run under one lock.
    fn with_global_recording<R>(f: impl FnOnce() -> R) -> R {
        let _guard = test_support::lock();
        set_enabled(true);
        reset();
        let result = f();
        set_enabled(false);
        result
    }

    #[test]
    fn disabled_global_records_nothing() {
        // Outside with_global_recording the flag is off (each assertion
        // here re-checks to stay robust against parallel tests).
        let r = Recorder::new();
        r.counter_add("direct", 1);
        assert_eq!(r.counter("direct"), 1, "local recorders always record");
    }

    #[test]
    fn global_counters_gauges_histograms_spans_labels() {
        let snap = with_global_recording(|| {
            counter_add("c", 2);
            counter_add("c", 3);
            gauge_set("g", 7);
            gauge_set("g", 4);
            histogram_record("h", 100);
            label("l", "x");
            label("l", "x");
            label("l", "y");
            {
                let _outer = span("outer");
                let _inner = span("inner");
            }
            snapshot()
        });
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.gauges["g"], 4, "gauge keeps the last write");
        assert_eq!(snap.histograms["h"].count, 1);
        assert_eq!(snap.labels["l"], vec!["x".to_string(), "y".to_string()]);
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["outer/inner"].count, 1, "paths nest");
    }

    #[test]
    fn merge_is_order_independent() {
        let parts: Vec<Recorder> = (0..4)
            .map(|i| {
                let r = Recorder::new();
                r.counter_add("c", i + 1);
                r.gauge_set("g", 10 * (i + 1));
                r.histogram_record("h", 1 << i);
                r.record_span("s", 100 * (i + 1));
                r.label("l", &format!("part-{i}"));
                r
            })
            .collect();
        let forward = Recorder::new();
        for p in &parts {
            forward.merge(p);
        }
        let backward = Recorder::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward.snapshot(), backward.snapshot());
        assert_eq!(forward.counter("c"), 1 + 2 + 3 + 4);
        assert_eq!(forward.snapshot().gauges["g"], 40, "gauges merge by max");
    }

    #[test]
    fn merge_label_conflicts_union_deterministically() {
        // The documented policy: a label name present in both recorders
        // merges to the union of both value sets (never first- or
        // last-writer-wins), duplicates collapse, and the snapshot
        // renders the set sorted — so merge order cannot show through.
        let a = Recorder::new();
        a.label("rng.streams", "seed=1");
        a.label("rng.streams", "seed=7");
        let b = Recorder::new();
        b.label("rng.streams", "seed=7");
        b.label("rng.streams", "seed=3");

        let ab = Recorder::new();
        ab.merge(&a);
        ab.merge(&b);
        let ba = Recorder::new();
        ba.merge(&b);
        ba.merge(&a);

        let expected = vec!["seed=1".to_string(), "seed=3".into(), "seed=7".into()];
        assert_eq!(ab.snapshot().labels["rng.streams"], expected);
        assert_eq!(ba.snapshot().labels["rng.streams"], expected);
        assert_eq!(
            ab.snapshot().to_json_lines(),
            ba.snapshot().to_json_lines(),
            "serialized snapshots are byte-identical either way"
        );
    }

    #[test]
    fn merge_health_is_order_independent() {
        let a = Recorder::new();
        a.health_record("lu.residual", 1e-15);
        let b = Recorder::new();
        b.health_record("lu.residual", 4e-17);
        let ab = Recorder::new();
        ab.merge(&a);
        ab.merge(&b);
        let ba = Recorder::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab.snapshot(), ba.snapshot());
        let s = ab.snapshot().health["lu.residual"];
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 4e-17);
        assert_eq!(s.max, 1e-15);
    }

    #[test]
    fn snapshot_serializes_to_valid_json_lines() {
        let r = Recorder::new();
        r.counter_add("a.count", 3);
        r.gauge_set("a.size", 9);
        r.histogram_record("a.latency", 1234);
        r.record_span("run/phase", 5_000);
        r.health_record("a.residual", 3.5e-16);
        r.label("a.streams", "seed=42");
        let text = r.snapshot().to_json_lines();
        let lines = json::validate_lines(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(lines, 6);
        assert!(text.contains("\"type\":\"span\""));
        assert!(text.contains("\"path\":\"run/phase\""));
        assert!(text.contains("\"type\":\"health\""));
    }

    #[test]
    fn reset_clears_everything() {
        let r = Recorder::new();
        r.counter_add("c", 1);
        r.record_span("s", 1);
        r.reset();
        assert_eq!(r.snapshot(), Snapshot::default());
    }
}
