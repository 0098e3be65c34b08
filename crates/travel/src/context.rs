//! Reusable evaluation scratch for repeated what-if queries.
//!
//! Every web-service evaluation fills the same buffers: the web-server
//! farm's stationary vector and a composite-state list. [`EvalContext`]
//! owns both so a query worker (the `/eval` plane gives each worker one)
//! allocates them once and reuses them for every subsequent query. The
//! farm is solved in O(N_W), by GTH on the chain's non-zero entries or by
//! its closed form, and the N_W loss probabilities of equation (3) come
//! from their closed form at O(1) each without allocating, so no buffer
//! grows with N_W² or with the capacity K.
//!
//! The context is transparent: the `*_with` evaluation paths in
//! [`crate::webservice`] and [`crate::user`] call the same farm solve and
//! run the exact same floating-point operations as their allocating
//! counterparts, and the context's two memos replay the exact bits of the
//! first computation, so results are bit-for-bit identical (pinned in the
//! crate's integration tests). The memos are the ones measured `/eval`
//! traffic hits: per-point web availabilities (every repeated ws query)
//! and per-scenario service expansions (every class A/B query). The
//! paper's figure and table drivers in [`crate::evaluation`] do not use a
//! context: they run the allocating path. Reuse is instrumented through
//! the `uavail-obs` counters `travel.eval_context.created` and
//! `travel.eval_context.reuses`.

use std::collections::HashMap;

use uavail_core::composite::CompositeState;

use crate::TaParameters;

/// Memo key for an imperfect-coverage farm availability: the bit patterns
/// of every parameter the result depends on.
pub(crate) type AvailKey = (usize, usize, [u64; 6]);

/// Memo key for a user-scenario service expansion: the scenario's function
/// list plus the path-choice probabilities (`q23`, `q24`, `q45`, `q47`)
/// the interaction diagrams branch on.
pub(crate) type ScenarioKey = (Vec<String>, [u64; 4]);

/// Bound on the per-context availability memo; dense custom sweeps can
/// exceed it, at which point it simply starts over.
const AVAIL_MEMO_CAP: usize = 1 << 14;

/// Bound on the scenario-expansion memo (12 entries cover both paper
/// classes; the cap only matters for callers sweeping the `q` parameters).
const SCENARIO_MEMO_CAP: usize = 256;

/// Per-thread scratch arena for the travel-agency evaluation paths.
///
/// Thread one context through
/// [`crate::webservice::redundant_imperfect_availability_with`] and
/// [`crate::user::user_availability_with`]; for parallel work, give each
/// worker its own (e.g. via the `make` closure of
/// [`uavail_core::sweep::sweep`]). A context is cheap to create — buffers
/// grow lazily on first use.
///
/// # Examples
///
/// ```
/// use uavail_travel::{EvalContext, TaParameters, webservice};
///
/// # fn main() -> Result<(), uavail_travel::TravelError> {
/// let mut ctx = EvalContext::new();
/// let params = TaParameters::paper_defaults();
/// let warm = webservice::redundant_imperfect_availability_with(&params, &mut ctx)?;
/// let cold = webservice::redundant_imperfect_availability(&params)?;
/// assert_eq!(warm.to_bits(), cold.to_bits());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct EvalContext {
    /// Stationary vector of the imperfect-coverage farm, operational
    /// states `0 ..= N_W` then reconfiguration states `y_1 ..= y_{N_W}`.
    pub(crate) pi: Vec<f64>,
    /// Composite-availability state list.
    pub(crate) states: Vec<CompositeState>,
    /// Memoized farm availabilities, keyed by every parameter bit the
    /// result depends on; values are the exact bits of the first
    /// computation.
    pub(crate) avail_memo: HashMap<AvailKey, f64>,
    /// Memoized user-scenario service expansions: the DFS terminals of
    /// [`crate::user::scenario_availability`] in exact pop order, so a
    /// replay multiplies the same factors in the same order.
    pub(crate) scenario_memo: HashMap<ScenarioKey, Vec<(f64, Vec<String>)>>,
    /// Whether this context has served at least one evaluation.
    used: bool,
    /// Evaluations served beyond the first (storage actually reused).
    reuses: u64,
}

impl EvalContext {
    /// Creates an empty context; buffers grow on first use.
    pub fn new() -> Self {
        EvalContext::default()
    }

    /// Number of evaluations that reused previously-warmed storage (every
    /// evaluation after the first).
    pub fn reuse_count(&self) -> u64 {
        self.reuses
    }

    /// Memo key for one farm-availability evaluation.
    pub(crate) fn avail_key(params: &TaParameters) -> AvailKey {
        (
            params.web_servers,
            params.buffer_size,
            [
                params.failure_rate_per_hour.to_bits(),
                params.repair_rate_per_hour.to_bits(),
                params.arrival_rate_per_second.to_bits(),
                params.service_rate_per_second.to_bits(),
                params.coverage.to_bits(),
                params.reconfiguration_rate_per_hour.to_bits(),
            ],
        )
    }

    /// Stores a freshly computed availability, restarting the memo when it
    /// reaches its bound so dense open-ended sweeps cannot grow it forever.
    pub(crate) fn remember_availability(&mut self, key: AvailKey, value: f64) {
        if self.avail_memo.len() >= AVAIL_MEMO_CAP {
            self.avail_memo.clear();
        }
        self.avail_memo.insert(key, value);
    }

    /// Stores a freshly expanded scenario, bounded like the availability
    /// memo.
    pub(crate) fn remember_scenario(&mut self, key: ScenarioKey, terms: Vec<(f64, Vec<String>)>) {
        if self.scenario_memo.len() >= SCENARIO_MEMO_CAP {
            self.scenario_memo.clear();
        }
        self.scenario_memo.insert(key, terms);
    }

    /// Records one evaluation served by this context, feeding the
    /// `travel.eval_context.*` obs counters.
    pub(crate) fn note_use(&mut self) {
        if self.used {
            self.reuses += 1;
            uavail_obs::counter_add("travel.eval_context.reuses", 1);
        } else {
            self.used = true;
            uavail_obs::counter_add("travel.eval_context.created", 1);
        }
    }
}
