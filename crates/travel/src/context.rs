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
//! and per-scenario service expansions (every class A/B query), keyed on
//! the exact bits of one [`Layer`] of [`PARAMS`] each.
//!
//! Neither memo builds, clones or hashes a string. A scenario's key is
//! its ordered function list packed three bits to a function (a code of
//! 1 + the function's index, so order, repeats and length all count)
//! beside the profile bits; a list too long to pack, or naming no
//! function, is expanded without being stored. Each stored term is a
//! probability and a `u16` set of distinct services, one bit per service
//! in the order of the services' names, so a replay multiplies a term's
//! availabilities in the order a sorted name set would. The paper's figure
//! and table drivers in [`crate::evaluation`] do not use a context: they
//! run the allocating path. Reuse is instrumented through the
//! `uavail-obs` counters `travel.eval_context.created` and
//! `travel.eval_context.reuses`; drift fallbacks are counted per context
//! ([`EvalContext::fallback_count`]), recorder or not.

use std::collections::HashMap;

use uavail_core::composite::CompositeState;

use crate::functions::TaFunction;
use crate::params::{Layer, PARAMS};
use crate::user::Term;
use crate::TaParameters;

/// Memo key for a farm availability: the bits of the web-farm parameters.
pub(crate) type AvailKey = [u64; Layer::WebFarm.width()];

/// The bits of the profile parameters a scenario expansion depends on.
pub(crate) type ProfileKey = [u64; Layer::Profile.width()];

/// Memo key for a scenario expansion: its function list, packed by
/// [`EvalContext::functions_key`], and its profile bits.
pub(crate) type ScenarioKey = (u64, ProfileKey);

/// Bits per function in a packed function list.
const FUNCTION_BITS: usize = 3;

const WEB_FARM_ROWS: [usize; Layer::WebFarm.width()] = Layer::WebFarm.rows();

const PROFILE_ROWS: [usize; Layer::Profile.width()] = Layer::Profile.rows();

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
    pub(crate) scenario_memo: HashMap<ScenarioKey, Vec<Term>>,
    /// See [`EvalContext::fallback_count`].
    pub(crate) fallbacks: u64,
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

    /// Farm solves of this context whose drifting vector (only an
    /// injected fault makes one) the closed form replaced.
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks
    }

    /// Memo key for one farm-availability evaluation.
    pub(crate) fn avail_key(params: &TaParameters) -> AvailKey {
        WEB_FARM_ROWS.map(|i| PARAMS[i].bits(params))
    }

    /// The profile half of every scenario memo key for `params`.
    pub(crate) fn profile_key(params: &TaParameters) -> ProfileKey {
        PROFILE_ROWS.map(|i| PARAMS[i].bits(params))
    }

    /// The function half of a scenario memo key: each function as
    /// [`FUNCTION_BITS`] bits holding 1 + its index in [`TaFunction::all`],
    /// the first function lowest. Codes start at 1, so lists that differ
    /// in order, in repeats or in length pack differently. `None` for a
    /// list too long to pack or a name that is no function; such a
    /// scenario is expanded without being stored.
    pub(crate) fn functions_key(functions: &[String]) -> Option<u64> {
        if functions.len() > u64::BITS as usize / FUNCTION_BITS {
            return None;
        }
        functions
            .iter()
            .enumerate()
            .try_fold(0, |packed, (i, name)| {
                let index = TaFunction::all().iter().position(|f| f.name() == name)?;
                Some(packed | (index as u64 + 1) << (FUNCTION_BITS * i))
            })
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
    pub(crate) fn remember_scenario(&mut self, key: ScenarioKey, terms: Vec<Term>) {
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
