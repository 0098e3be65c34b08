//! A rolling user-perceived availability SLO monitor.
//!
//! The paper's measure is the probability that a user's request actually
//! completes; this module computes the live, windowed estimate of it
//! from observed request outcomes and compares it against the analytic
//! `A(WS)` prediction — the online cross-check between *measured* and
//! *modelled* availability.
//!
//! An [`SloMonitor`] folds outcomes ([`Outcome::Success`] /
//! [`Outcome::Loss`] / [`Outcome::Timeout`], per operation class) into
//! per-class [`WindowCounter`]s, derives the window's availability with
//! a Wilson score interval, and grades the divergence from the analytic
//! target into a threshold state ([`SloState`]): `Ok` while the target
//! sits inside the slack-widened interval and no numerical degradation
//! was seen, `Warn`/`Breach` as the divergence or the degraded-event
//! count grows. Degraded events are numerical fallbacks, such as a farm
//! solve whose drifting stationary vector had to be replaced; they feed
//! the same window, so a fault burst flips the state and the state
//! recovers once the window rotates past it.
//!
//! Like everything in `uavail-obs`, the monitor is clock-injected and
//! deterministic: feeding it only ever *reads* already-computed results,
//! so recording on vs off cannot change a reproduced number, and the
//! disabled global path ([`slo_record_outcomes`]) is one relaxed atomic
//! load.

use crate::json::JsonValue;
use crate::window::{clock_now_ns, WindowCounter, DEFAULT_EPOCHS, DEFAULT_EPOCH_NS};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// How a user-perceived request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The request completed.
    Success,
    /// The request was refused or dropped (buffer overflow, reconfiguration).
    Loss,
    /// The request exceeded its deadline. Counts against availability
    /// exactly like a loss — the user perceives no difference.
    Timeout,
}

/// Threshold state of the SLO monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloState {
    /// Target inside the slack-widened Wilson interval, no degradation.
    Ok,
    /// Degraded events in the window, or the target drifted outside the
    /// slack-widened interval.
    Warn,
    /// Heavy degradation, or the target is outside even the
    /// triple-slack-widened interval.
    Breach,
}

impl SloState {
    /// Lower-case name, as rendered in artifacts and HTTP responses.
    pub fn as_str(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warn => "warn",
            SloState::Breach => "breach",
        }
    }
}

/// Geometry and thresholds of an [`SloMonitor`].
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Epoch width of the underlying windows.
    pub epoch_ns: u64,
    /// Ring length of the underlying windows.
    pub epochs: usize,
    /// Analytic availability to compare against (e.g. `A(WS)`); `None`
    /// disables the divergence grading and the state is degradation-only.
    pub target_availability: Option<f64>,
    /// Relative widening applied to the Wilson interval on the
    /// *unavailability* side before comparing the target — the same
    /// convention as the sim validators' `agrees` slack.
    pub slack: f64,
    /// Wilson critical value (the validators use 3.9 ≈ 99.99% two-sided).
    pub z: f64,
    /// Degraded events in the window that force at least [`SloState::Warn`].
    pub degraded_warn: u64,
    /// Degraded events in the window that force [`SloState::Breach`].
    pub degraded_breach: u64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            epoch_ns: DEFAULT_EPOCH_NS,
            epochs: DEFAULT_EPOCHS,
            target_availability: None,
            slack: 0.15,
            z: 3.9,
            degraded_warn: 1,
            degraded_breach: 8,
        }
    }
}

/// Wilson score interval for a proportion of `x` events in `n` trials at
/// critical value `z`, clamped to `[0, 1]`; `(0, 1)` when `n == 0`.
///
/// Re-implemented here (identically to `uavail_sim::stats::Proportion`)
/// because `uavail-obs` is the workspace's zero-dependency leaf crate.
pub fn wilson_interval(x: u64, n: u64, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let n = n as f64;
    let p = x as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

#[derive(Debug, Clone)]
struct ClassCounters {
    success: WindowCounter,
    loss: WindowCounter,
    timeout: WindowCounter,
}

impl ClassCounters {
    fn new(cfg: &SloConfig) -> ClassCounters {
        ClassCounters {
            success: WindowCounter::new(cfg.epoch_ns, cfg.epochs),
            loss: WindowCounter::new(cfg.epoch_ns, cfg.epochs),
            timeout: WindowCounter::new(cfg.epoch_ns, cfg.epochs),
        }
    }
}

/// Folds request outcomes into a rolling user-perceived availability
/// estimate graded against an analytic target. Clock-injected like the
/// windows it is built on.
#[derive(Debug)]
pub struct SloMonitor {
    cfg: SloConfig,
    classes: BTreeMap<String, ClassCounters>,
    degraded: WindowCounter,
}

impl SloMonitor {
    /// Creates a monitor with the given configuration.
    pub fn new(cfg: SloConfig) -> SloMonitor {
        let degraded = WindowCounter::new(cfg.epoch_ns, cfg.epochs);
        SloMonitor {
            cfg,
            classes: BTreeMap::new(),
            degraded,
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// Folds one outcome of operation class `class` at `now_ns`.
    pub fn record(&mut self, now_ns: u64, class: &str, outcome: Outcome) {
        let (s, l, t) = match outcome {
            Outcome::Success => (1, 0, 0),
            Outcome::Loss => (0, 1, 0),
            Outcome::Timeout => (0, 0, 1),
        };
        self.record_outcomes(now_ns, class, s, l, t);
    }

    /// Folds a pre-aggregated batch of outcomes (e.g. one replication's
    /// arrival/loss counts) of class `class` at `now_ns`.
    pub fn record_outcomes(
        &mut self,
        now_ns: u64,
        class: &str,
        successes: u64,
        losses: u64,
        timeouts: u64,
    ) {
        let cfg = &self.cfg;
        let counters = self
            .classes
            .entry(class.to_string())
            .or_insert_with(|| ClassCounters::new(cfg));
        if successes > 0 {
            counters.success.add(now_ns, successes);
        } else {
            counters.success.rotate_to(now_ns);
        }
        if losses > 0 {
            counters.loss.add(now_ns, losses);
        }
        if timeouts > 0 {
            counters.timeout.add(now_ns, timeouts);
        }
    }

    /// Records `n` degraded events (numerical fallbacks) at `now_ns`.
    pub fn degraded_event(&mut self, now_ns: u64, n: u64) {
        self.degraded.add(now_ns, n);
    }

    /// The monitor's state as of `now_ns`.
    pub fn snapshot(&mut self, now_ns: u64) -> SloSnapshot {
        let z = self.cfg.z;
        let mut classes = BTreeMap::new();
        let (mut successes, mut losses, mut timeouts) = (0u64, 0u64, 0u64);
        let mut window_ns = 0u64;
        for (name, counters) in &mut self.classes {
            let s = counters.success.total(now_ns);
            let l = counters.loss.total(now_ns);
            let t = counters.timeout.total(now_ns);
            successes += s;
            losses += l;
            timeouts += t;
            window_ns = window_ns.max(counters.success.window_ns());
            let total = s + l + t;
            let (unavail_lo, unavail_hi) = wilson_interval(l + t, total, z);
            classes.insert(
                name.clone(),
                SloClassSnapshot {
                    total,
                    successes: s,
                    losses: l,
                    timeouts: t,
                    availability: availability(s, l, t),
                    availability_lo: 1.0 - unavail_hi,
                    availability_hi: 1.0 - unavail_lo,
                },
            );
        }
        let total = successes + losses + timeouts;
        let degraded = self.degraded.total(now_ns);
        window_ns = window_ns.max(self.degraded.window_ns());
        let (unavail_lo, unavail_hi) = wilson_interval(losses + timeouts, total, z);
        let measured = availability(successes, losses, timeouts);
        let target = self.cfg.target_availability;
        let divergence = target.map_or(0.0, |t| measured - t);
        let state = self.grade(total, unavail_lo, unavail_hi, degraded);
        SloSnapshot {
            now_ns,
            window_ns,
            total,
            successes,
            losses,
            timeouts,
            availability: measured,
            availability_lo: 1.0 - unavail_hi,
            availability_hi: 1.0 - unavail_lo,
            target,
            divergence,
            degraded,
            state,
            classes,
        }
    }

    /// Grades the window. Comparison happens on the unavailability side
    /// (where the Wilson interval is informative for rare losses): the
    /// target unavailability must sit inside the interval widened by
    /// `slack` for `Ok`, inside the 3×-slack widening for `Warn`, and is
    /// a `Breach` beyond that. Degraded events override upward.
    fn grade(&self, total: u64, unavail_lo: f64, unavail_hi: f64, degraded: u64) -> SloState {
        let cfg = &self.cfg;
        if degraded >= cfg.degraded_breach {
            return SloState::Breach;
        }
        let divergence_state = match cfg.target_availability {
            Some(target) if total > 0 => {
                let target_unavail = 1.0 - target;
                let covered = |slack: f64| {
                    unavail_lo * (1.0 - slack) <= target_unavail
                        && target_unavail <= unavail_hi * (1.0 + slack)
                };
                if covered(cfg.slack) {
                    SloState::Ok
                } else if covered(3.0 * cfg.slack) {
                    SloState::Warn
                } else {
                    SloState::Breach
                }
            }
            _ => SloState::Ok,
        };
        if degraded >= cfg.degraded_warn && divergence_state == SloState::Ok {
            return SloState::Warn;
        }
        divergence_state
    }
}

fn availability(successes: u64, losses: u64, timeouts: u64) -> f64 {
    let total = successes + losses + timeouts;
    if total == 0 {
        1.0
    } else {
        successes as f64 / total as f64
    }
}

/// Windowed availability of one operation class.
#[derive(Debug, Clone, PartialEq)]
pub struct SloClassSnapshot {
    /// Outcomes in the window.
    pub total: u64,
    /// Successful requests.
    pub successes: u64,
    /// Lost requests.
    pub losses: u64,
    /// Timed-out requests.
    pub timeouts: u64,
    /// Measured availability (1.0 when empty).
    pub availability: f64,
    /// Wilson lower bound on availability.
    pub availability_lo: f64,
    /// Wilson upper bound on availability.
    pub availability_hi: f64,
}

/// Point-in-time state of an [`SloMonitor`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloSnapshot {
    /// Logical time the snapshot was taken at.
    pub now_ns: u64,
    /// Logical time the window covers.
    pub window_ns: u64,
    /// Outcomes in the window, all classes.
    pub total: u64,
    /// Successful requests.
    pub successes: u64,
    /// Lost requests.
    pub losses: u64,
    /// Timed-out requests.
    pub timeouts: u64,
    /// Measured user-perceived availability (1.0 when empty).
    pub availability: f64,
    /// Wilson lower bound on availability.
    pub availability_lo: f64,
    /// Wilson upper bound on availability.
    pub availability_hi: f64,
    /// Analytic target availability, when configured.
    pub target: Option<f64>,
    /// `availability − target` (0 when no target).
    pub divergence: f64,
    /// Degraded (numerical-fallback) events in the window.
    pub degraded: u64,
    /// Threshold state.
    pub state: SloState,
    /// Per-operation-class breakdowns.
    pub classes: BTreeMap<String, SloClassSnapshot>,
}

impl SloSnapshot {
    /// Renders the snapshot as a JSON object (the `/slo` endpoint body
    /// and the `slo` record of the metrics artifact).
    pub fn to_json(&self) -> JsonValue {
        let classes = JsonValue::object(
            self.classes
                .iter()
                .map(|(name, c)| {
                    (
                        name.as_str(),
                        JsonValue::object(vec![
                            ("total", JsonValue::UInt(c.total)),
                            ("successes", JsonValue::UInt(c.successes)),
                            ("losses", JsonValue::UInt(c.losses)),
                            ("timeouts", JsonValue::UInt(c.timeouts)),
                            ("availability", JsonValue::Float(c.availability)),
                            ("availability_lo", JsonValue::Float(c.availability_lo)),
                            ("availability_hi", JsonValue::Float(c.availability_hi)),
                        ]),
                    )
                })
                .collect(),
        );
        let mut fields = vec![
            ("now_ns", JsonValue::UInt(self.now_ns)),
            ("window_ns", JsonValue::UInt(self.window_ns)),
            ("total", JsonValue::UInt(self.total)),
            ("successes", JsonValue::UInt(self.successes)),
            ("losses", JsonValue::UInt(self.losses)),
            ("timeouts", JsonValue::UInt(self.timeouts)),
            ("availability", JsonValue::Float(self.availability)),
            ("availability_lo", JsonValue::Float(self.availability_lo)),
            ("availability_hi", JsonValue::Float(self.availability_hi)),
        ];
        if let Some(target) = self.target {
            fields.push(("target", JsonValue::Float(target)));
        }
        fields.push(("divergence", JsonValue::Float(self.divergence)));
        fields.push(("degraded", JsonValue::UInt(self.degraded)));
        fields.push(("state", JsonValue::str(self.state.as_str())));
        fields.push(("classes", classes));
        JsonValue::object(fields)
    }
}

// ---------------------------------------------------------------------
// Global monitor, driven by the shared telemetry clock.
// ---------------------------------------------------------------------

fn global_slo() -> MutexGuard<'static, Option<SloMonitor>> {
    static SLO: OnceLock<Mutex<Option<SloMonitor>>> = OnceLock::new();
    SLO.get_or_init(|| Mutex::new(None))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Installs a fresh global monitor with `cfg`, replacing any previous
/// one (and its accumulated windows).
pub fn slo_configure(cfg: SloConfig) {
    *global_slo() = Some(SloMonitor::new(cfg));
}

/// Drops the global monitor.
pub fn slo_reset() {
    *global_slo() = None;
}

/// Folds a batch of outcomes into the global monitor at the current
/// telemetry clock; no-op while recording is disabled. Records create a
/// default-configured monitor on first use.
pub fn slo_record_outcomes(class: &str, successes: u64, losses: u64, timeouts: u64) {
    if !crate::enabled() {
        return;
    }
    let now = clock_now_ns();
    global_slo()
        .get_or_insert_with(|| SloMonitor::new(SloConfig::default()))
        .record_outcomes(now, class, successes, losses, timeouts);
}

/// Records `n` degraded (numerical-fallback) events into the global
/// monitor at the current telemetry clock; no-op while disabled.
pub fn slo_degraded(n: u64) {
    if !crate::enabled() {
        return;
    }
    let now = clock_now_ns();
    global_slo()
        .get_or_insert_with(|| SloMonitor::new(SloConfig::default()))
        .degraded_event(now, n);
}

/// Snapshot of the global monitor at the current telemetry clock;
/// `None` until the monitor is configured or first written to.
pub fn slo_snapshot() -> Option<SloSnapshot> {
    let now = clock_now_ns();
    global_slo().as_mut().map(|m| m.snapshot(now))
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    fn cfg(target: Option<f64>) -> SloConfig {
        SloConfig {
            epoch_ns: S,
            epochs: 10,
            target_availability: target,
            ..SloConfig::default()
        }
    }

    #[test]
    fn wilson_matches_pinned_values() {
        // Same formula (and pinned behaviour) as uavail_sim's Proportion.
        assert_eq!(wilson_interval(0, 0, 3.9), (0.0, 1.0));
        let (lo, hi) = wilson_interval(50, 100, 1.96);
        assert!(lo > 0.40 && lo < 0.41, "{lo}");
        assert!(hi > 0.59 && hi < 0.60, "{hi}");
        let (lo, hi) = wilson_interval(0, 1000, 3.9);
        assert!(lo.abs() < 1e-12, "{lo}");
        assert!(hi > 0.0 && hi < 0.02, "{hi}");
    }

    #[test]
    fn empty_monitor_is_ok_and_fully_available() {
        let mut m = SloMonitor::new(cfg(Some(0.999995587)));
        let s = m.snapshot(0);
        assert_eq!(s.total, 0);
        assert_eq!(s.availability, 1.0);
        assert_eq!(s.state, SloState::Ok);
        assert_eq!(s.divergence, 1.0 - 0.999995587);
    }

    #[test]
    fn measured_availability_matching_target_is_ok() {
        let target = 0.999;
        let mut m = SloMonitor::new(cfg(Some(target)));
        // 1 loss per 1000 requests, exactly the target unavailability.
        m.record_outcomes(0, "search", 99_900, 100, 0);
        let s = m.snapshot(0);
        assert_eq!(s.state, SloState::Ok);
        assert!((s.availability - target).abs() < 1e-9);
        assert!(s.availability_lo <= target && target <= s.availability_hi);
        assert_eq!(s.classes["search"].losses, 100);
    }

    #[test]
    fn collapsed_availability_breaches_and_recovers_after_rotation() {
        let mut m = SloMonitor::new(cfg(Some(0.999995587)));
        // An availability collapse: 20% of requests lost.
        m.record_outcomes(0, "search", 8_000, 2_000, 0);
        assert_eq!(m.snapshot(0).state, SloState::Breach);
        // Healthy traffic after the burst, burst still in window: the
        // pooled window is still far off target.
        m.record_outcomes(5 * S, "search", 100_000, 0, 0);
        assert_eq!(m.snapshot(5 * S).state, SloState::Breach);
        // Window rotates past the burst; only healthy traffic remains,
        // and zero observed losses cover the tiny target unavailability.
        m.record_outcomes(12 * S, "search", 100_000, 0, 0);
        let s = m.snapshot(12 * S);
        assert_eq!(s.losses, 0);
        assert_eq!(s.state, SloState::Ok);
    }

    #[test]
    fn timeouts_count_against_availability_like_losses() {
        let mut m = SloMonitor::new(cfg(None));
        m.record_outcomes(0, "book", 900, 0, 100);
        let s = m.snapshot(0);
        assert!((s.availability - 0.9).abs() < 1e-12);
        assert_eq!(s.timeouts, 100);
        assert_eq!(s.state, SloState::Ok, "no target: degradation-only");
    }

    #[test]
    fn degraded_events_warn_then_breach_then_recover() {
        let mut m = SloMonitor::new(cfg(Some(0.9999)));
        m.record_outcomes(0, "search", 10_000, 1, 0);
        assert_eq!(m.snapshot(0).state, SloState::Ok);
        m.degraded_event(S, 1);
        assert_eq!(m.snapshot(S).state, SloState::Warn);
        m.degraded_event(2 * S, 10);
        assert_eq!(m.snapshot(2 * S).state, SloState::Breach);
        // Rotation retires the fault burst together with its epoch.
        let s = m.snapshot(15 * S);
        assert_eq!(s.degraded, 0);
        assert_eq!(s.state, SloState::Ok);
    }

    #[test]
    fn snapshot_json_is_valid_and_carries_the_state() {
        let mut m = SloMonitor::new(cfg(Some(0.999995587)));
        m.record_outcomes(0, "search", 1_000_000, 4, 1);
        let text = m.snapshot(0).to_json().to_string();
        crate::json::validate(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(parsed.get("state").unwrap().as_str(), Some("ok"));
        assert_eq!(parsed.get("total").unwrap().as_u64(), Some(1_000_005));
        assert!(parsed.get("classes").unwrap().get("search").is_some());
    }

    #[test]
    fn global_monitor_gates_on_enabled() {
        let _guard = crate::test_support::lock();
        crate::set_enabled(false);
        slo_reset();
        crate::window::clock_reset();
        slo_record_outcomes("search", 10, 1, 0);
        assert!(slo_snapshot().is_none(), "disabled records nothing");
        crate::set_enabled(true);
        slo_configure(cfg(Some(0.9)));
        slo_record_outcomes("search", 9, 1, 0);
        slo_degraded(0);
        let s = slo_snapshot().unwrap();
        assert_eq!(s.total, 10);
        assert_eq!(s.losses, 1);
        crate::set_enabled(false);
        slo_reset();
        crate::window::clock_reset();
    }
}
