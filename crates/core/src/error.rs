use std::fmt;

/// Errors produced by the hierarchical modeling framework.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A referenced quantity is not defined in the model.
    Undefined {
        /// The missing name.
        name: String,
    },
    /// A quantity was defined twice.
    Redefined {
        /// The duplicated name.
        name: String,
    },
    /// A value is not a probability (outside `[0, 1]` or non-finite).
    InvalidProbability {
        /// Where the value appeared.
        context: String,
        /// The offending value.
        value: f64,
    },
    /// Definitions form a reference cycle, or a definition references a
    /// quantity at the same or a higher level.
    BadDependency {
        /// Explanation.
        reason: String,
    },
    /// An interaction diagram is structurally invalid (unreachable End,
    /// cyclic, dangling branch probabilities).
    BadDiagram {
        /// Explanation.
        reason: String,
    },
    /// A weighted sum's weights are invalid (negative, or not summing to
    /// at most one).
    BadWeights {
        /// Explanation.
        reason: String,
    },
    /// A sweep evaluation failed at a specific point. Wraps the underlying
    /// error with enough context (the swept value) to identify the failing
    /// point.
    EvalAt {
        /// Human-readable description of the failing point, e.g.
        /// `sweep point x = 0.001`.
        context: String,
        /// The underlying error.
        source: Box<CoreError>,
    },
    /// A worker closure panicked during a parallel (or panic-isolated
    /// serial) evaluation. The panic was caught at the item boundary and
    /// converted into this typed error, preserving the input index so
    /// first-error semantics stay deterministic.
    WorkerPanicked {
        /// Index of the input item whose evaluation panicked.
        index: usize,
        /// The panic payload rendered as text (`&str`/`String` payloads
        /// verbatim; anything else as a placeholder).
        payload: String,
    },
}

/// Conversion from a caught worker panic into a typed error.
///
/// The parallel map and its callers are generic over the error type, so
/// panic isolation needs a way to build an `E` out of a caught payload.
/// Every error type flowing through [`crate::par::par_map`] or the sweep
/// engine implements this; domain crates implement it for their own error
/// enums (usually by wrapping [`CoreError::WorkerPanicked`] or adding an
/// equivalent variant).
pub trait FromWorkerPanic {
    /// Builds the error representing a panic at input `index` with the
    /// stringified panic `payload`.
    fn from_worker_panic(index: usize, payload: String) -> Self;
}

impl FromWorkerPanic for CoreError {
    fn from_worker_panic(index: usize, payload: String) -> Self {
        CoreError::WorkerPanicked { index, payload }
    }
}

/// Renders a caught panic payload (`Box<dyn Any>`) as text.
pub fn panic_payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Undefined { name } => write!(f, "undefined quantity {name:?}"),
            CoreError::Redefined { name } => write!(f, "quantity {name:?} defined twice"),
            CoreError::InvalidProbability { context, value } => {
                write!(f, "invalid probability {value} in {context}")
            }
            CoreError::BadDependency { reason } => write!(f, "bad dependency: {reason}"),
            CoreError::BadDiagram { reason } => write!(f, "bad interaction diagram: {reason}"),
            CoreError::BadWeights { reason } => write!(f, "bad weights: {reason}"),
            CoreError::EvalAt { context, source } => {
                write!(f, "evaluating {context}: {source}")
            }
            CoreError::WorkerPanicked { index, payload } => {
                write!(f, "worker panicked at input index {index}: {payload}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::EvalAt { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(CoreError::Undefined { name: "x".into() }
            .to_string()
            .contains('x'));
        assert!(CoreError::BadDiagram {
            reason: "cycle".into()
        }
        .to_string()
        .contains("cycle"));
    }

    #[test]
    fn eval_at_carries_point_context_and_source() {
        let inner = CoreError::BadWeights {
            reason: "boom".into(),
        };
        let wrapped = CoreError::EvalAt {
            context: "x = 2".into(),
            source: Box::new(inner.clone()),
        };
        let text = wrapped.to_string();
        assert!(text.contains("x = 2"), "{text}");
        assert!(text.contains("boom"), "{text}");
        use std::error::Error;
        assert_eq!(wrapped.source().unwrap().to_string(), inner.to_string());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }

    #[test]
    fn worker_panic_conversion_and_display() {
        let e = CoreError::from_worker_panic(7, "index out of bounds".into());
        assert_eq!(
            e,
            CoreError::WorkerPanicked {
                index: 7,
                payload: "index out of bounds".into()
            }
        );
        let text = e.to_string();
        assert!(text.contains("index 7"), "{text}");
        assert!(text.contains("out of bounds"), "{text}");
    }

    #[test]
    fn panic_payload_text_handles_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("literal");
        assert_eq!(panic_payload_text(s.as_ref()), "literal");
        let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_payload_text(owned.as_ref()), "owned");
        let other: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(
            panic_payload_text(other.as_ref()),
            "non-string panic payload"
        );
    }
}
