//! Correctness checks on `/eval` answers.

use uavail_obs::json::JsonValue;
use uavail_serve::eval::{evaluate_query, parse_eval_request, EvalQuery, QueryClass};
use uavail_travel::user::{class_a, class_b};
use uavail_travel::{
    webservice, Architecture, Coverage, EvalContext, TravelAgencyModel, TravelError,
};

use crate::load::Exchange;
use crate::stats::Tally;
use crate::workload::{body, Workload};

/// Every this-many-th request of a client is re-evaluated in-process and
/// compared bit for bit, twice: with the worker's own `evaluate_query` on
/// a fresh context, and through the memo-free model path the reproduction
/// prints from. Results print as shortest round-trip floats, so the wire
/// value parses back to the exact bits.
pub const BIT_CHECK_EVERY: u64 = 97;

/// Checks every exchange and counts each as one succeeded or failed
/// operation.
pub fn verify(workload: Workload, seed: u64, exchanges: &[Exchange], tally: &mut Tally) {
    for exchange in exchanges {
        match verify_one(workload, seed, exchange) {
            Ok(()) => tally.succeed(),
            Err(e) => tally.fail(format!(
                "{} client {} request {}: {e}",
                workload.name(),
                exchange.client,
                exchange.n
            )),
        }
    }
}

fn verify_one(workload: Workload, seed: u64, exchange: &Exchange) -> Result<(), String> {
    let (status, raw) = exchange.outcome.as_ref().map_err(String::clone)?;
    if *status != 200 {
        return Err(format!("status {status}"));
    }
    let text = std::str::from_utf8(raw).map_err(|_| "body is not UTF-8".to_string())?;
    let availabilities = check_response(text, workload.queries_per_request())?;
    if exchange.n.is_multiple_of(BIT_CHECK_EVERY) {
        let sent = body(workload, seed, exchange.client, exchange.n);
        let request = parse_eval_request(sent.as_bytes())?;
        for (i, (query, served)) in request.queries.iter().zip(&availabilities).enumerate() {
            let local = evaluate_query(query, &mut EvalContext::new())
                .map_err(|e| format!("in-process query {i}: {e}"))?;
            let model = model_answer(query).map_err(|e| format!("model query {i}: {e}"))?;
            if local.to_bits() != served.to_bits() || model.to_bits() != served.to_bits() {
                return Err(format!(
                    "query {i}: served {served:e}, in-process {local:e}, model {model:e}"
                ));
            }
        }
    }
    Ok(())
}

/// The query's answer through `TravelAgencyModel`, which solves without
/// any memo or reusable context.
fn model_answer(query: &EvalQuery) -> Result<f64, TravelError> {
    let class = match query.class {
        QueryClass::WebService => {
            return webservice::redundant_imperfect_availability(&query.params)
        }
        QueryClass::ClassA => class_a(),
        QueryClass::ClassB => class_b(),
    };
    TravelAgencyModel::new(
        query.params.clone(),
        Architecture::Redundant(Coverage::Imperfect),
    )?
    .user_availability(&class)
}

/// Checks one `/eval` answer: `queries` results, none stale, each a
/// finite availability in [0, 1], and neither `degraded` nor `partial`.
/// Returns the availabilities in query order.
pub fn check_response(text: &str, queries: usize) -> Result<Vec<f64>, String> {
    let root = uavail_obs::json::parse(text.trim()).map_err(|e| format!("invalid JSON: {e}"))?;
    for flag in ["degraded", "partial"] {
        if root.get(flag) != Some(&JsonValue::Bool(false)) {
            return Err(format!("{flag} is not false"));
        }
    }
    let results = root
        .get("results")
        .and_then(JsonValue::as_array)
        .ok_or("no results array")?;
    if results.len() != queries {
        return Err(format!("{} results for {queries} queries", results.len()));
    }
    results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if let Some(error) = r.get("error") {
                return Err(format!("query {i}: error {error}"));
            }
            if r.get("stale") != Some(&JsonValue::Bool(false)) {
                return Err(format!("query {i}: stale is not false"));
            }
            let a = r
                .get("availability")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("query {i}: no availability"))?;
            if !(a.is_finite() && (0.0..=1.0).contains(&a)) {
                return Err(format!("query {i}: availability {a} outside [0, 1]"));
            }
            Ok(a)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_clean_answer_and_rejects_each_defect() {
        let ok = r#"{"results":[{"class":"ws","availability":0.999995587,"unavailability":4.413e-6,"stale":false}],"degraded":false,"partial":false}"#;
        assert_eq!(check_response(ok, 1), Ok(vec![0.999995587]));
        assert!(check_response(ok, 2).is_err());
        for bad in [
            ok.replace("\"degraded\":false", "\"degraded\":true"),
            ok.replace("\"partial\":false", "\"partial\":true"),
            ok.replace("\"stale\":false", "\"stale\":true"),
            ok.replace("0.999995587", "1.5"),
            r#"{"results":[{"class":"ws","error":"boom"}],"degraded":false,"partial":false}"#
                .to_string(),
            "not json".to_string(),
        ] {
            assert!(check_response(&bad, 1).is_err(), "{bad}");
        }
    }

    #[test]
    fn counts_transport_errors_and_bad_statuses_as_failures() {
        let exchanges = [
            Exchange {
                client: 0,
                n: 1,
                outcome: Err("transport: refused".to_string()),
            },
            Exchange {
                client: 0,
                n: 2,
                outcome: Ok((503, Box::from(&b"{}"[..]))),
            },
        ];
        let mut tally = Tally::default();
        verify(Workload::EvalHot, 1, &exchanges, &mut tally);
        assert_eq!((tally.ok, tally.failed), (0, 2));
    }

    #[test]
    fn model_path_agrees_with_the_worker_path_on_every_workload() {
        for w in [Workload::EvalHot, Workload::EvalCold, Workload::EvalUser] {
            for n in 0..20 {
                let sent = body(w, 6, 0, n);
                for q in parse_eval_request(sent.as_bytes()).expect("parse").queries {
                    let local = evaluate_query(&q, &mut EvalContext::new()).expect("eval");
                    let model = model_answer(&q).expect("model");
                    assert_eq!(local.to_bits(), model.to_bits(), "{sent}");
                }
            }
        }
    }

    #[test]
    fn bit_check_compares_against_a_fresh_context() {
        let seed = 4;
        let sent = body(Workload::EvalCold, seed, 0, 0);
        let request = parse_eval_request(sent.as_bytes()).expect("parse");
        let a = evaluate_query(&request.queries[0], &mut EvalContext::new()).expect("eval");
        let answer = |a: f64| {
            format!(
                "{{\"results\":[{{\"class\":\"ws\",\"availability\":{},\"stale\":false}}],\"degraded\":false,\"partial\":false}}",
                JsonValue::Float(a)
            )
        };
        let exchange = |a: f64| Exchange {
            client: 0,
            n: 0,
            outcome: Ok((200, answer(a).into_bytes().into_boxed_slice())),
        };
        let mut tally = Tally::default();
        verify(Workload::EvalCold, seed, &[exchange(a)], &mut tally);
        assert_eq!((tally.ok, tally.failed), (1, 0), "{:?}", tally.messages);
        verify(
            Workload::EvalCold,
            seed,
            &[exchange(f64::from_bits(a.to_bits() - 1))],
            &mut tally,
        );
        assert_eq!((tally.ok, tally.failed), (1, 1));
    }
}
