//! The `EvalContext` memos key on every input that changes an answer.
//!
//! A worker's context memoizes farm availabilities and scenario
//! expansions across queries. A key that omits a field the answer depends
//! on would replay a stale answer for a query that differs only in that
//! field. Each case draws a random base query over all 25 `/eval`
//! overrides and the three classes, follows it with one variant per field
//! that changes exactly that field, evaluates them all on one context, and
//! compares every answer bit for bit with the memo-free computation.

use proptest::prelude::*;
use uavail_serve::eval::{evaluate_query, EvalQuery, QueryClass};
use uavail_travel::user::{class_a, class_b};
use uavail_travel::webservice::redundant_imperfect_availability;
use uavail_travel::{Architecture, Coverage, EvalContext, TaParameters, TravelAgencyModel};

/// How far a branch probability may move alone: half the `1e-9` slack
/// validation allows on `q23 + q24` and `q45 + q47`.
const Q_STEP: f64 = 5e-10;

fn lerp(u: f64, lo: f64, hi: f64) -> f64 {
    lo + u * (hi - lo)
}

fn log_uniform(u: f64, lo: f64, hi: f64) -> f64 {
    (lo.ln() + u * (hi.ln() - lo.ln())).exp()
}

fn count(u: f64, lo: usize, hi: usize) -> usize {
    lo + (u * (hi - lo + 1) as f64) as usize
}

/// A valid query from 24 uniform draws in `[0, 1)`.
fn base_query(u: &[f64]) -> EvalQuery {
    let web_servers = count(u[15], 1, 10);
    let q23 = u[13];
    let q45 = u[14];
    let params = TaParameters {
        a_net: lerp(u[0], 0.9, 1.0),
        a_lan: lerp(u[1], 0.9, 1.0),
        a_cas: lerp(u[2], 0.9, 1.0),
        a_cds: lerp(u[3], 0.9, 1.0),
        a_disk: lerp(u[4], 0.5, 1.0),
        a_cws: lerp(u[5], 0.9, 1.0),
        a_payment: lerp(u[6], 0.5, 1.0),
        a_flight_system: lerp(u[7], 0.5, 1.0),
        a_hotel_system: lerp(u[8], 0.5, 1.0),
        a_car_system: lerp(u[9], 0.5, 1.0),
        num_flight_systems: count(u[10], 1, 6),
        num_hotel_systems: count(u[11], 1, 6),
        num_car_systems: count(u[12], 1, 6),
        q23,
        q24: 1.0 - q23,
        q45,
        q47: 1.0 - q45,
        web_servers,
        // At least one slot above N_W, so N_W + 1 stays valid.
        buffer_size: count(u[16], web_servers + 1, web_servers + 12),
        failure_rate_per_hour: log_uniform(u[17], 1e-5, 1e-1),
        repair_rate_per_hour: log_uniform(u[18], 0.1, 10.0),
        coverage: u[19],
        reconfiguration_rate_per_hour: lerp(u[20], 1.0, 50.0),
        arrival_rate_per_second: lerp(u[21], 1.0, 300.0),
        service_rate_per_second: lerp(u[22], 10.0, 200.0),
    };
    let class = [
        QueryClass::WebService,
        QueryClass::ClassA,
        QueryClass::ClassB,
    ][count(u[23], 0, 2)];
    EvalQuery { params, class }
}

/// A probability moved by 0.01, staying inside `[0, 1]`.
fn nudge(v: f64) -> f64 {
    if v > 0.5 {
        v - 0.01
    } else {
        v + 0.01
    }
}

/// A branch probability moved by [`Q_STEP`], staying inside `[0, 1]`.
fn q_step(v: f64) -> f64 {
    if v + Q_STEP <= 1.0 {
        v + Q_STEP
    } else {
        v - Q_STEP
    }
}

/// One variant per override and per other class, each differing from
/// `base` in exactly that field.
fn variants(base: &EvalQuery) -> Vec<(&'static str, EvalQuery)> {
    type Edit = fn(&mut TaParameters);
    let edits: [(&str, Edit); 25] = [
        ("a_net", |p| p.a_net = nudge(p.a_net)),
        ("a_lan", |p| p.a_lan = nudge(p.a_lan)),
        ("a_cas", |p| p.a_cas = nudge(p.a_cas)),
        ("a_cds", |p| p.a_cds = nudge(p.a_cds)),
        ("a_disk", |p| p.a_disk = nudge(p.a_disk)),
        ("a_cws", |p| p.a_cws = nudge(p.a_cws)),
        ("a_payment", |p| p.a_payment = nudge(p.a_payment)),
        ("a_flight_system", |p| {
            p.a_flight_system = nudge(p.a_flight_system)
        }),
        ("a_hotel_system", |p| {
            p.a_hotel_system = nudge(p.a_hotel_system)
        }),
        ("a_car_system", |p| p.a_car_system = nudge(p.a_car_system)),
        ("num_flight_systems", |p| p.num_flight_systems += 1),
        ("num_hotel_systems", |p| p.num_hotel_systems += 1),
        ("num_car_systems", |p| p.num_car_systems += 1),
        ("q23", |p| p.q23 = q_step(p.q23)),
        ("q24", |p| p.q24 = q_step(p.q24)),
        ("q45", |p| p.q45 = q_step(p.q45)),
        ("q47", |p| p.q47 = q_step(p.q47)),
        ("web_servers", |p| p.web_servers += 1),
        ("failure_rate_per_hour", |p| p.failure_rate_per_hour *= 1.5),
        ("repair_rate_per_hour", |p| p.repair_rate_per_hour *= 1.5),
        ("coverage", |p| p.coverage = nudge(p.coverage)),
        ("reconfiguration_rate_per_hour", |p| {
            p.reconfiguration_rate_per_hour *= 1.5
        }),
        ("arrival_rate_per_second", |p| {
            p.arrival_rate_per_second *= 1.5
        }),
        ("service_rate_per_second", |p| {
            p.service_rate_per_second *= 1.5
        }),
        ("buffer_size", |p| p.buffer_size += 1),
    ];
    let mut out: Vec<(&'static str, EvalQuery)> = edits
        .iter()
        .map(|&(name, edit)| {
            let mut q = base.clone();
            edit(&mut q.params);
            (name, q)
        })
        .collect();
    for class in [
        QueryClass::WebService,
        QueryClass::ClassA,
        QueryClass::ClassB,
    ] {
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
        u in prop::collection::vec(0.0f64..1.0, 24)
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
