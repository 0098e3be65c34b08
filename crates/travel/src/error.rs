use std::fmt;

use uavail_core::CoreError;
use uavail_faulttree::FaultTreeError;
use uavail_markov::MarkovError;
use uavail_profile::ProfileError;
use uavail_queueing::QueueingError;
use uavail_sim::SimError;

/// Errors produced by the travel-agency case study.
#[derive(Debug)]
#[non_exhaustive]
pub enum TravelError {
    /// A parameter violated its domain requirement.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// The offending value, displayed in its shortest round-trip form
        /// (`1e308`).
        value: f64,
        /// The violated requirement.
        requirement: &'static str,
    },
    /// Framework-level modeling failure.
    Core(CoreError),
    /// Markov-chain analysis failure.
    Markov(MarkovError),
    /// Queueing-formula failure.
    Queueing(QueueingError),
    /// Operational-profile failure.
    Profile(ProfileError),
    /// Fault-tree analysis failure.
    FaultTree(FaultTreeError),
    /// Simulation failure.
    Sim(SimError),
}

impl fmt::Display for TravelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TravelError::InvalidParameter {
                name,
                value,
                requirement,
            } => write!(f, "parameter {name} = {value:?} must be {requirement}"),
            TravelError::Core(e) => write!(f, "modeling failure: {e}"),
            TravelError::Markov(e) => write!(f, "markov failure: {e}"),
            TravelError::Queueing(e) => write!(f, "queueing failure: {e}"),
            TravelError::Profile(e) => write!(f, "profile failure: {e}"),
            TravelError::FaultTree(e) => write!(f, "fault-tree failure: {e}"),
            TravelError::Sim(e) => write!(f, "simulation failure: {e}"),
        }
    }
}

impl std::error::Error for TravelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TravelError::InvalidParameter { .. } => None,
            TravelError::Core(e) => Some(e),
            TravelError::Markov(e) => Some(e),
            TravelError::Queueing(e) => Some(e),
            TravelError::Profile(e) => Some(e),
            TravelError::FaultTree(e) => Some(e),
            TravelError::Sim(e) => Some(e),
        }
    }
}

impl From<CoreError> for TravelError {
    fn from(e: CoreError) -> Self {
        TravelError::Core(e)
    }
}

impl uavail_core::FromWorkerPanic for TravelError {
    fn from_worker_panic(index: usize, payload: String) -> Self {
        TravelError::Core(CoreError::WorkerPanicked { index, payload })
    }
}

impl From<MarkovError> for TravelError {
    fn from(e: MarkovError) -> Self {
        TravelError::Markov(e)
    }
}

impl From<QueueingError> for TravelError {
    fn from(e: QueueingError) -> Self {
        TravelError::Queueing(e)
    }
}

impl From<ProfileError> for TravelError {
    fn from(e: ProfileError) -> Self {
        TravelError::Profile(e)
    }
}

impl From<FaultTreeError> for TravelError {
    fn from(e: FaultTreeError) -> Self {
        TravelError::FaultTree(e)
    }
}

impl From<SimError> for TravelError {
    fn from(e: SimError) -> Self {
        TravelError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = TravelError::InvalidParameter {
            name: "coverage",
            value: 1.5,
            requirement: "within [0, 1]",
        };
        assert!(e.to_string().contains("coverage"));
        assert!(e.source().is_none());
        let wrapped = TravelError::from(CoreError::Undefined { name: "x".into() });
        assert!(wrapped.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TravelError>();
    }
}
