//! Preallocated per-replication scratch for the farm's epoch kernel.

use crate::farm::FarmScratch;

/// Reusable simulation workspace for
/// [`crate::FarmSimulation::run_counts_with`].
///
/// A replication loop creates one context (one per worker thread in
/// parallel runs) and threads it through every replication. The context
/// holds the farm's occupancy-time buffer and its epoch-resolvent tables,
/// built lazily per up-server count and kept while the parameters stay
/// the same, so steady-state replication performs no heap allocation per
/// replication.
///
/// Contexts are storage only: results are bit-identical whether a context
/// is fresh or warm, which is what keeps serial and parallel replication
/// streams interchangeable.
#[derive(Debug, Clone, Default)]
pub struct SimContext {
    pub(crate) farm: FarmScratch,
}

impl SimContext {
    /// Creates an empty context; tables grow on first use and are kept
    /// across runs.
    pub fn new() -> Self {
        SimContext::default()
    }
}
