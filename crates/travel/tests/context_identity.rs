//! Bit-for-bit identity of the context-reusing web-service paths.
//!
//! The `EvalContext` plumbing behind the `/eval` query plane
//! (`redundant_imperfect_availability_with`) must be pure plumbing: every
//! reuse path calls the same farm solve and executes the same
//! floating-point operations in the same order as its allocating twin, so
//! results agree to the last bit — not merely within tolerance, and
//! errors are the same errors. These tests compare raw bit patterns,
//! including the paper's pinned headline values.

use uavail_core::composite::{composite_availability, CompositeState};
use uavail_travel::{webservice, EvalContext, TaParameters};

/// The paper's reference parameters with the given farm rates.
fn farm(lambda: f64, mu: f64, coverage: f64, beta: f64) -> TaParameters {
    TaParameters {
        failure_rate_per_hour: lambda,
        repair_rate_per_hour: mu,
        coverage,
        reconfiguration_rate_per_hour: beta,
        ..TaParameters::paper_defaults()
    }
}

/// Equation (9) over the closed form of equations (6)–(8), summed state
/// by state through the public API.
fn closed_form_availability(params: &TaParameters) -> f64 {
    let (op, y) = webservice::farm_distribution_imperfect_closed_form(params).unwrap();
    let mut states = vec![CompositeState::new(op[0], 0.0)];
    for (i, &pi) in op.iter().enumerate().skip(1) {
        let loss = webservice::loss_probability(params, i).unwrap();
        states.push(CompositeState::new(pi, 1.0 - loss));
    }
    states.extend(y.iter().map(|&pi| CompositeState::new(pi, 0.0)));
    composite_availability(&states).unwrap()
}

#[test]
fn context_path_pins_paper_headline_availability() {
    // Table 7: A(WS) = 0.999995587 at the reference parameters — the
    // reuse path must hit the same pinned value as the allocating path.
    let params = TaParameters::paper_defaults();
    let mut ctx = EvalContext::new();
    let warm = webservice::redundant_imperfect_availability_with(&params, &mut ctx).unwrap();
    assert!(
        (warm - 0.999995587).abs() < 1e-8,
        "A(WS) = {warm:.9}, expected 0.999995587"
    );
    let cold = webservice::redundant_imperfect_availability(&params).unwrap();
    assert_eq!(warm.to_bits(), cold.to_bits());
}

#[test]
fn context_path_pins_figure12_reversal() {
    // Figure 12's key finding — A(10) < A(4) at λ = 1e-2/h, α = 50/s —
    // must survive on the reuse path.
    let mut ctx = EvalContext::new();
    let availability = |nw: usize, ctx: &mut EvalContext| {
        let p = TaParameters::builder()
            .web_servers(nw)
            .arrival_rate_per_second(50.0)
            .failure_rate_per_hour(1e-2)
            .build()
            .unwrap();
        webservice::redundant_imperfect_availability_with(&p, ctx).unwrap()
    };
    let a4 = availability(4, &mut ctx);
    let a10 = availability(10, &mut ctx);
    assert!(
        a10 < a4,
        "expected reversal on context path: A(10) = {a10} should be below A(4) = {a4}"
    );
}

#[test]
fn full_coverage_degenerate_case_matches_on_context_path() {
    // c = 1 short-circuits Figure 10 into Figure 9; the context path
    // takes the same branch and must agree bit for bit.
    let p = TaParameters::builder().coverage(1.0).build().unwrap();
    let mut ctx = EvalContext::new();
    let warm = webservice::redundant_imperfect_availability_with(&p, &mut ctx).unwrap();
    let cold = webservice::redundant_imperfect_availability(&p).unwrap();
    assert_eq!(warm.to_bits(), cold.to_bits());
}

#[test]
fn context_path_matches_allocating_path_on_large_farms() {
    // A farm whose GTH weights overflow: both paths take the closed form
    // and evaluate every state's M/M/i/K loss.
    let params = TaParameters::builder()
        .web_servers(700)
        .buffer_size(700)
        .build()
        .unwrap();
    let direct = webservice::redundant_imperfect_availability(&params).unwrap();
    let mut ctx = EvalContext::new();
    let warm = webservice::redundant_imperfect_availability_with(&params, &mut ctx).unwrap();
    assert_eq!(direct.to_bits(), warm.to_bits());
    // A second call on the same, now warm, context.
    let again = webservice::redundant_imperfect_availability_with(&params, &mut ctx).unwrap();
    assert_eq!(direct.to_bits(), again.to_bits());
    assert!(ctx.reuse_count() >= 1);
}

#[test]
fn context_path_answers_wherever_the_allocating_path_falls_back() {
    // Farms on which dense GTH fails outright — a zero pivot at
    // λ = 5e-324, an overflowing factor µ/d_k at the other two. Both
    // paths must reach the same answer, not return the raw GTH error.
    let paper = TaParameters::paper_defaults();
    let (mu, c, beta) = (
        paper.repair_rate_per_hour,
        paper.coverage,
        paper.reconfiguration_rate_per_hour,
    );
    for params in [
        farm(5e-324, mu, 0.0, beta),
        farm(1e-320, mu, 0.0, 1e3),
        farm(1e-300, 1e300, c, beta),
    ] {
        let cold = webservice::redundant_imperfect_availability(&params).unwrap();
        let warm =
            webservice::redundant_imperfect_availability_with(&params, &mut EvalContext::new())
                .unwrap_or_else(|e| panic!("{params:?}: {e}"));
        assert_eq!(cold.to_bits(), warm.to_bits(), "{params:?}");
    }
}

#[test]
fn both_paths_answer_by_the_closed_form_where_gth_cannot() {
    // β = 1e-310 overflows the fold factor u_i/β. At λ = 1e-313,
    // c = 1e-12 the covered rate c·λ underflows to zero, which the chain
    // builder rejects. GTH solves neither farm; both paths answer from the
    // closed form, to its bits.
    let paper = TaParameters::paper_defaults();
    let one_server = TaParameters {
        web_servers: 1,
        ..farm(1e-313, 1e-5, 1e-12, paper.reconfiguration_rate_per_hour)
    };
    for params in [
        farm(1.0, paper.repair_rate_per_hour, paper.coverage, 1e-310),
        one_server,
    ] {
        let closed = closed_form_availability(&params);
        assert!((0.0..=1.0).contains(&closed), "{params:?}: {closed}");
        let cold = webservice::redundant_imperfect_availability(&params)
            .unwrap_or_else(|e| panic!("{params:?}: {e}"));
        let warm =
            webservice::redundant_imperfect_availability_with(&params, &mut EvalContext::new())
                .unwrap_or_else(|e| panic!("{params:?}: {e}"));
        assert_eq!(cold.to_bits(), closed.to_bits(), "{params:?}");
        assert_eq!(warm.to_bits(), closed.to_bits(), "{params:?}");
    }
}
