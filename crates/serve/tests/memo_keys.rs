//! The `EvalContext` memos key on every input that changes an answer.
//!
//! A worker's context memoizes farm availabilities and scenario
//! expansions across queries. A key that omits a field the answer depends
//! on would replay a stale answer for a query that differs only in that
//! field. Each case draws a random base query over every row of the
//! `PARAMS` table and the three classes, follows it with one variant per
//! row that changes exactly that field, evaluates them all on one
//! context, and compares every answer bit for bit with the memo-free
//! computation. Nothing here lists the parameters: a row added to the
//! table is drawn and varied like the others.

use proptest::prelude::*;
use uavail_serve::eval::{evaluate_query, EvalQuery, QueryClass};
use uavail_travel::params::{Domain, Param, PARAMS};
use uavail_travel::user::{class_a, class_b};
use uavail_travel::webservice::redundant_imperfect_availability;
use uavail_travel::{Architecture, Coverage, EvalContext, TaParameters, TravelAgencyModel};

/// How far a probability bound by a sum rule may move alone: half the
/// `1e-9` slack below 1 that validation allows on `q23 + q24` and
/// `q45 + q47`.
const Q_STEP: f64 = 5e-10;

const CLASSES: [QueryClass; 3] = [
    QueryClass::WebService,
    QueryClass::ClassA,
    QueryClass::ClassB,
];

/// `params` with `row`'s field set to `value` (rounded down for a count).
fn with(params: &TaParameters, row: &Param, value: f64) -> TaParameters {
    let mut p = params.clone();
    let bits = match row.domain {
        Domain::Count => value as u64,
        Domain::Probability | Domain::Rate => value.to_bits(),
    };
    row.set_bits(&mut p, bits);
    p
}

/// A valid query from one uniform draw in `[0, 1)` per row, plus one for
/// the class. A probability is the draw itself, a rate lies within a
/// factor of ten of its paper value (log-uniform), and a count between 1
/// and twice its paper value. The cross-field rules then fix the partners
/// of the sum rules, and leave one buffer slot above `N_W` so `N_W + 1`
/// stays valid.
fn base_query(u: &[f64]) -> EvalQuery {
    let paper = TaParameters::paper_defaults();
    let mut params = paper.clone();
    for (row, &u) in PARAMS.iter().zip(u) {
        let default = row.value(&paper);
        let value = match row.domain {
            Domain::Probability => u,
            Domain::Rate => default * 10f64.powf(2.0 * u - 1.0),
            Domain::Count => 1.0 + (u * 2.0 * default).floor(),
        };
        params = with(&params, row, value);
    }
    params.q24 = 1.0 - params.q23;
    params.q47 = 1.0 - params.q45;
    params.buffer_size = params.buffer_size.max(params.web_servers + 1);
    let class = CLASSES[(u[PARAMS.len()] * 3.0) as usize];
    EvalQuery { params, class }
}

/// `params` with `row`'s field moved a little inside its domain: a
/// probability by 0.01, or down by [`Q_STEP`] where 0.01 would break a
/// sum rule (a sum may fall short of 1 but not exceed it); a rate scaled
/// by 1.5; a count up by 1.
fn vary(params: &TaParameters, row: &Param) -> TaParameters {
    let v = row.value(params);
    match row.domain {
        Domain::Probability => {
            let nudged = with(params, row, if v > 0.5 { v - 0.01 } else { v + 0.01 });
            if nudged.validate().is_ok() {
                nudged
            } else {
                with(params, row, v - Q_STEP)
            }
        }
        Domain::Rate => with(params, row, v * 1.5),
        Domain::Count => {
            let mut p = params.clone();
            row.set_bits(&mut p, row.bits(params) + 1);
            p
        }
    }
}

/// One variant per row and per other class, each differing from `base`
/// in exactly that field.
fn variants(base: &EvalQuery) -> Vec<(&'static str, EvalQuery)> {
    let mut out: Vec<(&'static str, EvalQuery)> = PARAMS
        .iter()
        .map(|row| {
            let params = vary(&base.params, row);
            (row.name, EvalQuery { params, ..*base })
        })
        .collect();
    for class in CLASSES {
        if class != base.class {
            out.push((
                "class",
                EvalQuery {
                    params: base.params.clone(),
                    class,
                },
            ));
        }
    }
    out
}

/// The answer without any `EvalContext` memo: the allocating web-service
/// path for `ws`, the model's user availability for classes A and B.
fn memo_free(q: &EvalQuery) -> f64 {
    let user = |class| {
        TravelAgencyModel::new(
            q.params.clone(),
            Architecture::Redundant(Coverage::Imperfect),
        )
        .and_then(|model| model.user_availability(&class))
    };
    match q.class {
        QueryClass::WebService => redundant_imperfect_availability(&q.params),
        QueryClass::ClassA => user(class_a()),
        QueryClass::ClassB => user(class_b()),
    }
    .expect("valid query evaluates")
}

proptest! {
    #[test]
    fn memo_keys_cover_every_field_that_changes_an_answer(
        u in prop::collection::vec(0.0f64..1.0, PARAMS.len() + 1)
    ) {
        let base = base_query(&u);
        let mut ctx = EvalContext::new();
        let queries = std::iter::once(("base", base.clone())).chain(variants(&base));
        for (field, q) in queries {
            prop_assert!(q.params.validate().is_ok(), "{field} variant is invalid: {q:?}");
            let answer = evaluate_query(&q, &mut ctx).expect("valid query evaluates");
            let reference = memo_free(&q);
            prop_assert_eq!(
                answer.to_bits(),
                reference.to_bits(),
                "{} after changing {}: memo {} vs memo-free {}",
                q.class.name(),
                field,
                answer,
                reference
            );
        }
    }
}
