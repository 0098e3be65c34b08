//! Reusable evaluation scratch for repeated what-if queries.
//!
//! Every web-service evaluation rebuilds the same machinery: a CTMC
//! generator for the web-server farm, a GTH elimination scratch matrix, a
//! stationary vector, an M/M/c/K state distribution, and a composite-state
//! list. [`EvalContext`] owns all of those buffers so a query worker (the
//! `/eval` plane gives each worker one) allocates them once and reuses
//! them for every subsequent query.
//!
//! The context is transparent: the `*_with` evaluation paths in
//! [`crate::webservice`] and [`crate::user`] run the exact same
//! floating-point operations as their allocating counterparts on a fresh
//! buffer, fall back through the same solver chain when a solve is
//! unhealthy, and the context's private memos (per-point web
//! availabilities, per-scenario service expansions) replay the exact bits
//! of the first computation, so results are bit-for-bit identical (pinned
//! in the crate's integration tests). The paper's figure and table drivers
//! in [`crate::evaluation`] do not use a context: they run the allocating
//! path. Reuse is instrumented through the
//! `uavail-obs` counters `travel.eval_context.created` and
//! `travel.eval_context.reuses`.

use std::collections::HashMap;

use uavail_core::composite::CompositeState;
use uavail_linalg::{CsrMatrix, Matrix};

use crate::TaParameters;

/// Memo key for a redundant-farm availability: the architecture flavor
/// plus the bit patterns of every parameter the result depends on.
pub(crate) type AvailKey = (bool, usize, usize, [u64; 6]);

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

/// Memo key for one imperfect-farm solve: the farm size plus the bit
/// patterns of the four rates the Figure 10 chain depends on
/// (`λ`, `µ`, `c`, `β`).
pub(crate) type FarmKey = (usize, [u64; 4]);

/// Bound on the farm-solution memo. Entries for a sparse-cutoff farm hold
/// `2n + 1` probabilities (~32 KiB at `n = 2000`), so the cap is kept far
/// below the availability memo's.
const FARM_MEMO_CAP: usize = 64;

/// Cached CSR sparsity pattern of the Figure 10 farm generator.
///
/// The pattern depends only on the farm *shape* — the server count and
/// whether covered-failure transitions exist (`c > 0`) — not on the rates,
/// so consecutive same-shape sweep points can skip the triplet
/// sort-and-merge assembly and refill a value buffer in place. `slots[k]`
/// is the value index that triplet `k` of the canonical transition
/// expansion accumulates into ([`crate::webservice`] pushes two triplets
/// per transition: the off-diagonal rate, then its diagonal compensation).
#[derive(Debug)]
pub(crate) struct FarmStructure {
    /// Farm size the pattern was extracted for.
    pub(crate) web_servers: usize,
    /// Whether covered-failure transitions were present (`c > 0`).
    pub(crate) covered: bool,
    /// CSR row offsets of the assembled generator.
    pub(crate) row_offsets: Vec<usize>,
    /// CSR column indices of the assembled generator.
    pub(crate) col_indices: Vec<usize>,
    /// Value index each canonical triplet accumulates into.
    pub(crate) slots: Vec<usize>,
}

impl FarmStructure {
    /// Extracts the sparsity pattern of `q` and the triplet→slot map for
    /// the canonical `transitions` expansion. Returns `None` if any
    /// coordinate is missing from the assembled matrix (possible only if
    /// merged entries cancelled to exact zero and were dropped) — callers
    /// then simply skip caching.
    pub(crate) fn extract(
        web_servers: usize,
        covered: bool,
        transitions: &[(usize, usize, f64)],
        q: &CsrMatrix,
    ) -> Option<Self> {
        let (row_offsets, col_indices, _) = q.raw_parts();
        let slot = |row: usize, col: usize| -> Option<usize> {
            let (lo, hi) = (row_offsets[row], row_offsets[row + 1]);
            col_indices[lo..hi].binary_search(&col).ok().map(|k| lo + k)
        };
        let mut slots = Vec::with_capacity(2 * transitions.len());
        for &(from, to, _) in transitions {
            slots.push(slot(from, to)?);
            slots.push(slot(from, from)?);
        }
        Some(FarmStructure {
            web_servers,
            covered,
            row_offsets: row_offsets.to_vec(),
            col_indices: col_indices.to_vec(),
            slots,
        })
    }
}

/// Per-thread scratch arena for the travel-agency evaluation paths.
///
/// Thread one context through the `*_availability_with` functions and
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
    /// Generator assembly for the imperfect-coverage farm CTMC.
    pub(crate) generator: Matrix,
    /// GTH elimination scratch.
    pub(crate) gth_scratch: Matrix,
    /// Stationary-distribution output.
    pub(crate) pi: Vec<f64>,
    /// Farm operational-state probabilities `Π_0 ..= Π_{N_W}`.
    pub(crate) farm_op: Vec<f64>,
    /// Farm reconfiguration-state probabilities `Π_{y_1} ..= Π_{y_{N_W}}`.
    pub(crate) farm_y: Vec<f64>,
    /// Composite-availability state list.
    pub(crate) states: Vec<CompositeState>,
    /// M/M/c/K state-distribution buffer.
    pub(crate) dist_buf: Vec<f64>,
    /// Birth-death birth-rate buffer.
    pub(crate) births: Vec<f64>,
    /// Birth-death death-rate buffer.
    pub(crate) deaths: Vec<f64>,
    /// Transition-list buffer for the sparse farm assembly path (farms
    /// past the sparse cutoff never touch the dense `generator` buffer).
    pub(crate) farm_transitions: Vec<(usize, usize, f64)>,
    /// Cached CSR pattern of the last sparse farm generator; reused for
    /// every subsequent same-shape point.
    pub(crate) farm_structure: Option<FarmStructure>,
    /// Memoized imperfect-farm solutions `(farm_op, farm_y)`; values are
    /// the exact bits of the first computation.
    pub(crate) farm_memo: HashMap<FarmKey, (Vec<f64>, Vec<f64>)>,
    /// Memoized redundant-farm availabilities, keyed by every parameter
    /// bit the result depends on; values are the exact bits of the first
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

    /// Memo key for one redundant-farm evaluation.
    pub(crate) fn avail_key(perfect: bool, params: &TaParameters) -> AvailKey {
        (
            perfect,
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

    /// Memo key for one imperfect-farm solve.
    pub(crate) fn farm_key(params: &TaParameters) -> FarmKey {
        (
            params.web_servers,
            [
                params.failure_rate_per_hour.to_bits(),
                params.repair_rate_per_hour.to_bits(),
                params.coverage.to_bits(),
                params.reconfiguration_rate_per_hour.to_bits(),
            ],
        )
    }

    /// Copies a memoized farm solution into `farm_op` / `farm_y`. Returns
    /// `false` (leaving the buffers untouched) on a miss.
    pub(crate) fn recall_farm(&mut self, key: &FarmKey) -> bool {
        match self.farm_memo.get(key) {
            Some((op, y)) => {
                self.farm_op.clear();
                self.farm_op.extend_from_slice(op);
                self.farm_y.clear();
                self.farm_y.extend_from_slice(y);
                true
            }
            None => false,
        }
    }

    /// Stores the current `farm_op` / `farm_y` under `key`, restarting the
    /// memo at its (deliberately small) bound.
    pub(crate) fn remember_farm(&mut self, key: FarmKey) {
        if self.farm_memo.len() >= FARM_MEMO_CAP {
            self.farm_memo.clear();
        }
        self.farm_memo
            .insert(key, (self.farm_op.clone(), self.farm_y.clone()));
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
