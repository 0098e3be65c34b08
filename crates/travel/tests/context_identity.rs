//! Bit-for-bit identity of the context-reusing web-service paths.
//!
//! The `EvalContext` plumbing behind the `/eval` query plane
//! (`redundant_imperfect_availability_with`, `gth_steady_state_into`
//! solves, `MMcK::with_distribution_buf`) must be pure plumbing: every
//! reuse path executes the same floating-point operations in the same
//! order as its allocating twin, so results agree to the last bit — not
//! merely within tolerance. These tests compare raw bit patterns, including the paper's
//! pinned headline values.

use uavail_travel::{webservice, EvalContext, TaParameters};

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
    // Past the dense cutoff both paths take the closed form and apply
    // the same negligible-mass skip rule to the M/M/i/K solves; small
    // enough that the allocating path stays fast.
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
