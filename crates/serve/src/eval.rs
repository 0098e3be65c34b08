//! `/eval` request parsing and evaluation: parameter-vector what-if
//! queries against the travel-agency model, parsed with the hardened
//! `uavail-obs` JSON machinery and executed on a worker's warm
//! [`EvalContext`].
//!
//! Request shape:
//!
//! ```json
//! {
//!   "queries": [
//!     {"web_servers": 6, "failure_rate_per_hour": 1e-3, "class": "ws"},
//!     {"coverage": 0.9, "class": "A"}
//!   ],
//!   "spin_us": 0
//! }
//! ```
//!
//! Each query starts from [`TaParameters::paper_defaults`] and applies
//! the named overrides, one per [`PARAMS`] row; unknown keys are rejected
//! (a typo must not silently evaluate the defaults). The result must pass
//! [`TaParameters::validate`] and keep `buffer_size` within
//! [`MAX_BUFFER_SIZE`]. `class` selects what is computed:
//! `"ws"` (default) the web-service availability `A(WS)`, `"A"`/`"B"`
//! the user-perceived availability of the paper's user classes.
//! `spin_us` busy-spins per query — the service-time control knob for
//! overload experiments (`reproduce loadgen`), capped so a hostile
//! client cannot park a worker.

use std::sync::LazyLock;
use std::time::{Duration, Instant};

use uavail_obs::json::JsonValue;
use uavail_travel::params::{Domain, PARAMS};
use uavail_travel::user::{class_a, class_b, UserClass};
use uavail_travel::webservice::redundant_imperfect_availability_with;
use uavail_travel::{services, user, Architecture, Coverage, EvalContext, TaParameters};

/// Most queries a single `/eval` batch may carry.
pub const MAX_BATCH: usize = 256;

/// Largest `buffer_size` (the M/M/i/K capacity `K`) a query may set.
/// Validation requires `web_servers ≤ buffer_size`, so this bound caps the
/// farm size too: the farm solve allocates O(N_W), and an unbounded farm
/// lets one query abort the process on allocation failure.
pub const MAX_BUFFER_SIZE: usize = 10_000;

/// Cap on the per-query `spin_us` service-time knob (50 ms).
pub const MAX_SPIN_US: u64 = 50_000;

/// What a query computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Web-service availability `A(WS)` (equation 9).
    WebService,
    /// User-perceived availability of class A (equation 10).
    ClassA,
    /// User-perceived availability of class B.
    ClassB,
}

impl QueryClass {
    /// The wire name, echoed back in results.
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::WebService => "ws",
            QueryClass::ClassA => "A",
            QueryClass::ClassB => "B",
        }
    }
}

/// One validated what-if query.
#[derive(Debug, Clone)]
pub struct EvalQuery {
    pub params: TaParameters,
    pub class: QueryClass,
}

/// A parsed `/eval` batch.
#[derive(Debug)]
pub struct EvalRequest {
    pub queries: Vec<EvalQuery>,
    pub spin_us: u64,
}

/// Parses and validates an `/eval` body.
///
/// # Errors
///
/// A human-readable message naming the offending field or query index;
/// the caller answers it as a `400`.
pub fn parse_eval_request(body: &[u8]) -> Result<EvalRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Err("empty body; expected a JSON object with \"queries\"".to_string());
    }
    let root = uavail_obs::json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let queries_json = root
        .get("queries")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing \"queries\" array".to_string())?;
    if queries_json.is_empty() {
        return Err("\"queries\" is empty".to_string());
    }
    if queries_json.len() > MAX_BATCH {
        return Err(format!(
            "batch of {} exceeds the {MAX_BATCH}-query limit",
            queries_json.len()
        ));
    }
    let mut spin_us = 0;
    if let Some(v) = root.get("spin_us") {
        spin_us = v
            .as_u64()
            .ok_or_else(|| "\"spin_us\" must be a non-negative integer".to_string())?;
        if spin_us > MAX_SPIN_US {
            return Err(format!("\"spin_us\" exceeds the {MAX_SPIN_US} µs cap"));
        }
    }
    if let JsonValue::Object(fields) = &root {
        for (key, _) in fields {
            if key != "queries" && key != "spin_us" {
                return Err(format!("unknown top-level field {key:?}"));
            }
        }
    } else {
        return Err("body must be a JSON object".to_string());
    }
    let mut queries = Vec::with_capacity(queries_json.len());
    for (i, q) in queries_json.iter().enumerate() {
        queries.push(parse_query(q).map_err(|e| format!("query {i}: {e}"))?);
    }
    Ok(EvalRequest { queries, spin_us })
}

fn parse_query(value: &JsonValue) -> Result<EvalQuery, String> {
    let JsonValue::Object(fields) = value else {
        return Err("must be a JSON object".to_string());
    };
    let mut params = TaParameters::paper_defaults();
    let mut class = QueryClass::WebService;
    for (key, v) in fields {
        match key.as_str() {
            "class" => {
                class = match v.as_str() {
                    Some("ws") => QueryClass::WebService,
                    Some("A") => QueryClass::ClassA,
                    Some("B") => QueryClass::ClassB,
                    _ => {
                        return Err(format!(
                            "\"class\" must be \"ws\", \"A\" or \"B\", got {v:?}"
                        ))
                    }
                };
            }
            _ => apply_override(&mut params, key, v)?,
        }
    }
    if params.buffer_size > MAX_BUFFER_SIZE {
        return Err(format!(
            "\"buffer_size\" {} exceeds the {MAX_BUFFER_SIZE} cap",
            params.buffer_size
        ));
    }
    params
        .validate()
        .map_err(|e| format!("invalid parameters: {e}"))?;
    Ok(EvalQuery { params, class })
}

/// Sets the [`PARAMS`] row named `key` from its JSON value: a count from a
/// non-negative integer, a probability or a rate from any number.
fn apply_override(params: &mut TaParameters, key: &str, v: &JsonValue) -> Result<(), String> {
    let row = PARAMS
        .iter()
        .find(|row| row.name == key)
        .ok_or_else(|| format!("unknown parameter {key:?}"))?;
    let bits = match row.domain {
        Domain::Count => v
            .as_u64()
            .ok_or_else(|| format!("{key:?} must be a non-negative integer"))?,
        Domain::Probability | Domain::Rate => v
            .as_f64()
            .ok_or_else(|| format!("{key:?} must be a number"))?
            .to_bits(),
    };
    row.set_bits(params, bits);
    Ok(())
}

/// The stale-answer cache key of a query: the exact bits of every
/// [`PARAMS`] row, and the class.
pub type QueryKey = ([u64; PARAMS.len()], QueryClass);

/// The stale-answer cache key of `query`. Two queries share a key exactly
/// when they ask for the same class with bit-identical parameters.
pub fn query_key(query: &EvalQuery) -> QueryKey {
    let bits = std::array::from_fn(|i| PARAMS[i].bits(&query.params));
    (bits, query.class)
}

/// The paper's two Table 1 classes, built once per process.
static CLASSES: LazyLock<[UserClass; 2]> = LazyLock::new(|| [class_a(), class_b()]);

/// Evaluates one query on a warm context. `"ws"` queries hit the
/// context's availability memo directly; class queries additionally
/// compose the service-level environment ([`services::environment`]) around
/// the memoized web-service availability and replay the context's
/// scenario expansions.
///
/// # Errors
///
/// Propagates solver failures.
pub fn evaluate_query(
    query: &EvalQuery,
    ctx: &mut EvalContext,
) -> Result<f64, uavail_travel::TravelError> {
    let p = &query.params;
    let a_ws = redundant_imperfect_availability_with(p, ctx)?;
    let class = match query.class {
        QueryClass::WebService => return Ok(a_ws),
        QueryClass::ClassA => &CLASSES[0],
        QueryClass::ClassB => &CLASSES[1],
    };
    let env = services::environment(p, Architecture::Redundant(Coverage::Imperfect), a_ws)?;
    user::user_availability_with(class, p, &env, ctx)
}

/// Busy-spins for `spin_us` microseconds — the loadgen's service-time
/// knob. A plain sleep would park the worker thread without occupying
/// it, which would break the M/M/c/K self-model's busy-time clock.
pub fn spin(spin_us: u64) {
    if spin_us == 0 {
        return;
    }
    let deadline = Instant::now() + Duration::from_micros(spin_us.min(MAX_SPIN_US));
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// The outcome of one query within a batch.
#[derive(Debug)]
pub enum QueryResult {
    Ok {
        availability: f64,
        stale: bool,
    },
    Err(String),
    /// Deadline expired before this query ran.
    Skipped,
}

/// Renders the `/eval` response body.
pub fn render_results(
    queries: &[EvalQuery],
    results: &[QueryResult],
    degraded: bool,
    partial: bool,
) -> String {
    let items: Vec<JsonValue> = results
        .iter()
        .zip(queries)
        .map(|(r, q)| match r {
            QueryResult::Ok {
                availability,
                stale,
            } => JsonValue::object(vec![
                ("class", JsonValue::str(q.class.name())),
                ("availability", JsonValue::Float(*availability)),
                ("unavailability", JsonValue::Float(1.0 - availability)),
                ("stale", JsonValue::Bool(*stale)),
            ]),
            QueryResult::Err(msg) => JsonValue::object(vec![
                ("class", JsonValue::str(q.class.name())),
                ("error", JsonValue::str(msg.clone())),
            ]),
            QueryResult::Skipped => JsonValue::object(vec![
                ("class", JsonValue::str(q.class.name())),
                (
                    "error",
                    JsonValue::str("deadline expired before evaluation"),
                ),
            ]),
        })
        .collect();
    JsonValue::object(vec![
        ("results", JsonValue::Array(items)),
        ("degraded", JsonValue::Bool(degraded)),
        ("partial", JsonValue::Bool(partial)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_query_reproduces_paper_defaults() {
        let req = parse_eval_request(br#"{"queries":[{}]}"#).expect("parse");
        assert_eq!(req.queries.len(), 1);
        assert_eq!(req.queries[0].class, QueryClass::WebService);
        assert_eq!(req.queries[0].params, TaParameters::paper_defaults());
        assert_eq!(req.spin_us, 0);
    }

    #[test]
    fn overrides_and_classes_apply() {
        let req = parse_eval_request(
            br#"{"queries":[{"web_servers":7,"coverage":0.9,"class":"A"}],"spin_us":100}"#,
        )
        .expect("parse");
        let q = &req.queries[0];
        assert_eq!(q.params.web_servers, 7);
        assert!((q.params.coverage - 0.9).abs() < 1e-15);
        assert_eq!(q.class, QueryClass::ClassA);
        assert_eq!(req.spin_us, 100);
    }

    #[test]
    fn unknown_fields_are_rejected_loudly() {
        let err = parse_eval_request(br#"{"queries":[{"web_serverz":7}]}"#).expect_err("typo");
        assert!(err.contains("web_serverz"), "{err}");
        let err = parse_eval_request(br#"{"queries":[{}],"spin":1}"#).expect_err("typo");
        assert!(err.contains("spin"), "{err}");
    }

    #[test]
    fn invalid_parameters_are_rejected_with_index() {
        let err =
            parse_eval_request(br#"{"queries":[{},{"coverage":1.5}]}"#).expect_err("bad coverage");
        assert!(err.starts_with("query 1:"), "{err}");
    }

    #[test]
    fn batch_and_spin_limits_enforced() {
        let big = format!("{{\"queries\":[{}]}}", vec!["{}"; MAX_BATCH + 1].join(","));
        assert!(parse_eval_request(big.as_bytes()).is_err());
        let err = parse_eval_request(br#"{"queries":[{}],"spin_us":999999999}"#).expect_err("cap");
        assert!(err.contains("cap"), "{err}");
    }

    #[test]
    fn buffer_size_is_capped() {
        let at_cap = format!(r#"{{"queries":[{{"buffer_size":{MAX_BUFFER_SIZE}}}]}}"#);
        let req = parse_eval_request(at_cap.as_bytes()).expect("at the cap");
        assert_eq!(req.queries[0].params.buffer_size, MAX_BUFFER_SIZE);
        let over = format!(
            r#"{{"queries":[{{"buffer_size":{}}}]}}"#,
            MAX_BUFFER_SIZE + 1
        );
        let err = parse_eval_request(over.as_bytes()).expect_err("over the cap");
        assert!(
            err.starts_with("query 0:") && err.contains("buffer_size"),
            "{err}"
        );
    }

    #[test]
    fn query_key_separates_params_and_classes() {
        let base = EvalQuery {
            params: TaParameters::paper_defaults(),
            class: QueryClass::WebService,
        };
        let mut other = base.clone();
        other.params.web_servers += 1;
        assert_ne!(query_key(&base), query_key(&other));
        let mut classed = base.clone();
        classed.class = QueryClass::ClassA;
        assert_ne!(query_key(&base), query_key(&classed));
        assert_eq!(query_key(&base), query_key(&base.clone()));
    }

    #[test]
    fn ws_eval_matches_direct_computation_bit_for_bit() {
        let q = EvalQuery {
            params: TaParameters::paper_defaults(),
            class: QueryClass::WebService,
        };
        let mut ctx = EvalContext::new();
        let via_plane = evaluate_query(&q, &mut ctx).expect("eval");
        let direct =
            uavail_travel::webservice::redundant_imperfect_availability(&q.params).expect("direct");
        assert_eq!(via_plane.to_bits(), direct.to_bits());
    }

    #[test]
    fn class_eval_matches_model_path() {
        let q = EvalQuery {
            params: TaParameters::paper_defaults(),
            class: QueryClass::ClassA,
        };
        let mut ctx = EvalContext::new();
        let via_plane = evaluate_query(&q, &mut ctx).expect("eval");
        let model = uavail_travel::TravelAgencyModel::new(
            TaParameters::paper_defaults(),
            Architecture::Redundant(Coverage::Imperfect),
        )
        .expect("model");
        let direct = model.user_availability(&class_a()).expect("direct");
        assert_eq!(via_plane.to_bits(), direct.to_bits());
    }
}
