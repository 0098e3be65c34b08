//! Deterministic fault injection for the uavail stack.
//!
//! The paper's core robustness idea — imperfect failure coverage — asks
//! what happens when a fault is *not* handled cleanly. This crate turns
//! that question on the evaluation stack itself: named injection sites
//! threaded through the solvers (LU pivots, GTH mass, M/M/c/K parameters,
//! the M/M/i/K loss probabilities, replication streams, parallel workers)
//! can be armed to fire deterministically, so the hardening layers above
//! them (panic isolation, resilient sweeps, the farm solve's drift check,
//! typed errors) can be exercised in tests and CI instead of trusted on
//! faith.
//!
//! # Contract
//!
//! * **Zero-cost when disabled.** Every entry point first reads one
//!   relaxed [`AtomicBool`]; with injection disabled (the default) no
//!   lock is taken, no TLS is touched, and every value passes through
//!   unchanged, so production outputs are bit-for-bit identical to a
//!   build without this crate. This is the same contract the obs layer
//!   pins for its recorder.
//! * **Deterministic.** Whether a site fires is a pure function of the
//!   configured seed, the site name, a per-thread key (assigned in
//!   thread-creation order from a process-global counter) and the
//!   per-thread invocation count of that site. Re-running the same
//!   process with the same seed and the same work schedule reproduces
//!   the same faults.
//! * **Observable.** Armed sites and fired faults are counted through
//!   `uavail-obs` (`faultinject.armed`, `faultinject.fired`, and
//!   `faultinject.fired.<site>`) so a metrics artifact records exactly
//!   which faults a run was subjected to.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// Registry of every injection site: `(shorthand, site name, effect)`.
///
/// The shorthand is what `reproduce --inject` and [`arm_spec`] accept on
/// the command line; the site name is what the instrumented code passes
/// to [`fired`] / [`corrupt_f64`].
pub const SITES: &[(&str, &str, &str)] = &[
    (
        "lu",
        "linalg.lu.pivot_perturb",
        "scales an LU pivot, degrading solve accuracy",
    ),
    (
        "singular",
        "linalg.lu.force_singular",
        "forces an LU factorization to report singularity",
    ),
    (
        "gth",
        "markov.gth.mass_drift",
        "drifts probability mass after GTH normalization",
    ),
    (
        "mmck",
        "queueing.mmck.corrupt",
        "corrupts the M/M/c/K arrival rate to NaN",
    ),
    (
        "loss",
        "travel.loss.poison",
        "poisons an M/M/i/K loss probability p_K(i) with NaN",
    ),
    (
        "drop",
        "sim.replicate.event_drop",
        "drops a simulation replication",
    ),
    (
        "dup",
        "sim.replicate.event_dup",
        "duplicates a simulation replication",
    ),
    (
        "panic",
        "core.par.worker_panic",
        "panics inside a parallel map worker",
    ),
    (
        "wpanic",
        "serve.worker_panic",
        "panics an /eval query-plane worker mid-request",
    ),
];

/// Default firing probability when a spec arms a site without a rate.
pub const DEFAULT_RATE: f64 = 0.25;

/// Global on/off switch; the only state consulted on the fast path.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotone source of per-thread keys.
static NEXT_THREAD_KEY: AtomicU64 = AtomicU64::new(0);

struct Config {
    seed: u64,
    /// Armed sites with their firing probability in `(0, 1]`.
    rates: HashMap<&'static str, f64>,
}

fn config() -> &'static RwLock<Config> {
    static CONFIG: OnceLock<RwLock<Config>> = OnceLock::new();
    CONFIG.get_or_init(|| {
        RwLock::new(Config {
            seed: 0,
            rates: HashMap::new(),
        })
    })
}

thread_local! {
    /// Lazily assigned per-thread key, stable for the thread's lifetime.
    static THREAD_KEY: Cell<u64> = const { Cell::new(u64::MAX) };
    /// Per-site invocation counters on this thread.
    static SITE_COUNTS: RefCell<HashMap<&'static str, u64>> = RefCell::new(HashMap::new());
}

fn thread_key() -> u64 {
    THREAD_KEY.with(|k| {
        let v = k.get();
        if v != u64::MAX {
            return v;
        }
        let fresh = NEXT_THREAD_KEY.fetch_add(1, Ordering::Relaxed);
        k.set(fresh);
        fresh
    })
}

/// SplitMix64 output function — the same scrambler `uavail-sim` uses for
/// replication seeds, reused here so firing decisions are well mixed.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the site name, so each site gets an independent stream.
fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in site.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Enables or disables the injection layer globally.
///
/// Disabled is the default; with the flag off every site is inert and
/// outputs are bit-for-bit identical to an uninstrumented build.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the injection layer is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the base seed for firing decisions.
pub fn set_seed(seed: u64) {
    config().write().expect("faultinject config").seed = seed;
}

/// Resolves a site shorthand or full site name from [`SITES`].
pub fn resolve_site(name: &str) -> Option<&'static str> {
    SITES
        .iter()
        .find(|(short, full, _)| *short == name || *full == name)
        .map(|(_, full, _)| *full)
}

/// Arms one site with the given firing probability.
///
/// # Errors
///
/// An unknown site name or a rate outside `(0, 1]` is reported as text
/// (the caller is typically a CLI parsing `--inject`).
pub fn arm(name: &str, rate: f64) -> Result<(), String> {
    let site = resolve_site(name).ok_or_else(|| {
        let known: Vec<&str> = SITES.iter().map(|(short, _, _)| *short).collect();
        format!("unknown injection site {name:?}; known sites: {known:?}")
    })?;
    if !(rate.is_finite() && rate > 0.0 && rate <= 1.0) {
        return Err(format!("injection rate {rate} for {site} not in (0, 1]"));
    }
    config()
        .write()
        .expect("faultinject config")
        .rates
        .insert(site, rate);
    uavail_obs::counter_add("faultinject.armed", 1);
    Ok(())
}

/// Arms a comma-separated spec of `site[:rate]` entries, e.g.
/// `"lu,panic:0.05"`. Sites may be named by shorthand or full name;
/// entries without a rate use [`DEFAULT_RATE`].
///
/// # Errors
///
/// The first unparsable entry, unknown site, or out-of-range rate.
pub fn arm_spec(spec: &str) -> Result<(), String> {
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let entry = entry.trim();
        let (name, rate) = match entry.split_once(':') {
            Some((name, rate_text)) => {
                let rate: f64 = rate_text
                    .parse()
                    .map_err(|_| format!("bad injection rate in {entry:?}"))?;
                (name, rate)
            }
            None => (entry, DEFAULT_RATE),
        };
        arm(name, rate)?;
    }
    Ok(())
}

/// Disarms every site and disables injection. The per-thread invocation
/// counters of the calling thread are cleared; other threads keep theirs
/// (determinism is defined over a fixed schedule from process start).
pub fn reset() {
    set_enabled(false);
    let mut cfg = config().write().expect("faultinject config");
    cfg.rates.clear();
    cfg.seed = 0;
    SITE_COUNTS.with(|c| c.borrow_mut().clear());
}

/// The currently armed sites and their rates, in registry order.
pub fn armed_sites() -> Vec<(&'static str, f64)> {
    let cfg = config().read().expect("faultinject config");
    SITES
        .iter()
        .filter_map(|(_, full, _)| cfg.rates.get(full).map(|&r| (*full, r)))
        .collect()
}

/// Decides whether the named site fires at this invocation.
///
/// Disabled (the common case) this is one relaxed atomic load. Enabled,
/// the decision hashes `(seed, site, thread key, invocation index)`
/// through SplitMix64 and compares against the armed rate; unarmed sites
/// never fire but still advance their invocation counter so arming one
/// site does not shift another site's schedule.
#[inline]
pub fn fired(site: &'static str) -> bool {
    if !ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    fired_slow(site)
}

#[cold]
fn fired_slow(site: &'static str) -> bool {
    let invocation = SITE_COUNTS.with(|c| {
        let mut counts = c.borrow_mut();
        let n = counts.entry(site).or_insert(0);
        let current = *n;
        *n += 1;
        current
    });
    let (seed, rate) = {
        let cfg = config().read().expect("faultinject config");
        match cfg.rates.get(site) {
            Some(&rate) => (cfg.seed, rate),
            None => return false,
        }
    };
    let mix = splitmix64(
        seed ^ site_hash(site)
            ^ thread_key().wrapping_mul(0xA24B_AED4_963E_E407)
            ^ invocation.wrapping_mul(0x9FB2_1C65_1E98_DF25),
    );
    // Top 53 bits → uniform in [0, 1); rate = 1.0 always fires.
    let u = (mix >> 11) as f64 / (1u64 << 53) as f64;
    let fire = u < rate;
    if fire {
        uavail_obs::counter_add("faultinject.fired", 1);
        if uavail_obs::enabled() {
            uavail_obs::counter_add(&format!("faultinject.fired.{site}"), 1);
        }
    }
    fire
}

/// Passes `value` through unchanged unless the site fires, in which case
/// it returns NaN — the canonical "corrupted parameter" for sites whose
/// hardening is a typed validation error downstream.
#[inline]
pub fn corrupt_f64(site: &'static str, value: f64) -> f64 {
    if fired(site) {
        f64::NAN
    } else {
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Injection state is process-global; tests that touch it serialize
    /// here (the same pattern the obs tests use for their recorder).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_is_inert() {
        let _guard = lock();
        reset();
        arm("lu", 1.0).unwrap();
        // Armed but not enabled: nothing fires, values pass through.
        assert!(!fired("linalg.lu.pivot_perturb"));
        assert_eq!(
            corrupt_f64("queueing.mmck.corrupt", 3.5).to_bits(),
            3.5f64.to_bits()
        );
        reset();
    }

    #[test]
    fn rate_one_always_fires_and_unarmed_never() {
        let _guard = lock();
        reset();
        set_seed(7);
        arm("mmck", 1.0).unwrap();
        set_enabled(true);
        for _ in 0..32 {
            assert!(fired("queueing.mmck.corrupt"));
            assert!(!fired("markov.gth.mass_drift"));
        }
        assert!(corrupt_f64("queueing.mmck.corrupt", 1.0).is_nan());
        reset();
    }

    #[test]
    fn firing_schedule_is_deterministic_per_seed() {
        let _guard = lock();
        let schedule = |seed: u64| -> Vec<bool> {
            reset();
            set_seed(seed);
            arm("panic", 0.5).unwrap();
            set_enabled(true);
            let out = (0..64).map(|_| fired("core.par.worker_panic")).collect();
            reset();
            out
        };
        let a = schedule(42);
        let b = schedule(42);
        let c = schedule(43);
        assert_eq!(a, b, "same seed must reproduce the same faults");
        assert_ne!(a, c, "different seeds should differ (64 draws at p=0.5)");
        let fires = a.iter().filter(|&&f| f).count();
        assert!(
            (10..=54).contains(&fires),
            "p=0.5 schedule fired {fires}/64"
        );
    }

    #[test]
    fn spec_parsing_accepts_shorthands_rates_and_rejects_junk() {
        let _guard = lock();
        reset();
        arm_spec("lu, gth:0.125, core.par.worker_panic:1").unwrap();
        let armed = armed_sites();
        assert_eq!(
            armed,
            vec![
                ("linalg.lu.pivot_perturb", DEFAULT_RATE),
                ("markov.gth.mass_drift", 0.125),
                ("core.par.worker_panic", 1.0),
            ]
        );
        assert!(arm_spec("bogus").is_err());
        assert!(arm_spec("lu:nope").is_err());
        assert!(arm_spec("lu:0.0").is_err());
        assert!(arm_spec("lu:1.5").is_err());
        reset();
    }

    #[test]
    fn registry_shorthands_resolve_and_are_unique() {
        let mut shorts: Vec<&str> = SITES.iter().map(|(s, _, _)| *s).collect();
        shorts.sort_unstable();
        shorts.dedup();
        assert_eq!(shorts.len(), SITES.len());
        for (short, full, _) in SITES {
            assert_eq!(resolve_site(short), Some(*full));
            assert_eq!(resolve_site(full), Some(*full));
        }
        assert_eq!(resolve_site("nope"), None);
    }
}
