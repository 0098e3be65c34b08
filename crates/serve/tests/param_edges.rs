//! Every pair of parameters at every pair of their domain edges.
//!
//! Each query sets two rows of the `PARAMS` table to edges of their
//! domains and leaves the other 23 at the paper's values, then runs
//! through `/eval`'s own parser and evaluator as each class. It must give
//! a finite availability in `[0, 1]`, or an error that names one of the
//! two fields (directly or through a cross-field rule) and carries no NaN.

use uavail_serve::eval::{evaluate_query, parse_eval_request, MAX_BUFFER_SIZE};
use uavail_travel::params::{Domain, PARAMS};
use uavail_travel::EvalContext;

/// A domain's edges, as JSON numbers that parse back to the exact value.
fn edges(domain: Domain) -> Vec<String> {
    let reals = |values: [f64; 4]| values.map(|v| format!("{v:e}")).to_vec();
    match domain {
        Domain::Probability => reals([0.0, 5e-324, f64::MIN_POSITIVE, 1.0]),
        Domain::Rate => reals([5e-324, f64::MIN_POSITIVE, 1.0, f64::MAX]),
        Domain::Count => [1, MAX_BUFFER_SIZE as u64, u64::MAX]
            .map(|n| n.to_string())
            .to_vec(),
    }
}

#[test]
fn every_pair_of_domain_edges_answers_or_names_its_field() {
    let mut ctx = EvalContext::new();
    let (mut answered, mut rejected) = (0, 0);
    let mut failures = Vec::new();
    for (i, a) in PARAMS.iter().enumerate() {
        for b in &PARAMS[i + 1..] {
            for va in edges(a.domain) {
                for vb in edges(b.domain) {
                    for class in ["ws", "A", "B"] {
                        let body = format!(
                            r#"{{"queries":[{{"{}":{va},"{}":{vb},"class":"{class}"}}]}}"#,
                            a.name, b.name
                        );
                        let outcome = parse_eval_request(body.as_bytes()).and_then(|request| {
                            evaluate_query(&request.queries[0], &mut ctx).map_err(|e| e.to_string())
                        });
                        match outcome {
                            Ok(availability) if (0.0..=1.0).contains(&availability) => {
                                answered += 1;
                            }
                            Err(message)
                                if (message.contains(a.name) || message.contains(b.name))
                                    && !message.contains("NaN") =>
                            {
                                rejected += 1;
                            }
                            outcome => failures.push(format!("{body}: {outcome:?}")),
                        }
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} failures:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(answered > 0 && rejected > 0);
    eprintln!("{answered} answered, {rejected} rejected by name");
}
