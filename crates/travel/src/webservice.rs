//! Web-service availability — Table 5 and equations (1)–(9) of the paper.
//!
//! The web service fails in two ways: the hosts fail (availability model)
//! or the input buffer overflows (performance model). This module combines
//! them with the composite approach for three settings:
//!
//! * the **basic** architecture: one host, equation (2);
//! * the **redundant** farm with **perfect coverage**: equations (3)–(5),
//!   the Markov chain of Figure 9;
//! * the **redundant** farm with **imperfect coverage**: equations
//!   (6)–(9), the Markov chain of Figure 10 including the manual-
//!   reconfiguration down states `y_i`.
//!
//! Every setting's loss `p_K(i)` comes from equation (3) in closed form,
//! `uavail_queueing::mmck::loss_probabilities`, at O(1) per server count;
//! the M/M/c/K recurrence is its test oracle.
//!
//! Both evaluation paths, [`redundant_imperfect_availability`] and the
//! `/eval` worker's [`redundant_imperfect_availability_with`], solve the
//! imperfect-coverage farm through one routine, in O(N_W) at every size:
//! GTH on the chain's non-zero entries only
//! ([`gth_imperfect_coverage_farm`], the bits of dense GTH on the explicit
//! CTMC), and wherever its weights overflow or its rates leave the normal
//! floating-point range, the product form of equations (6)–(8). Both
//! answers are exact, so neither is degraded. Dense GTH and dense LU on
//! the explicit chain are the tests' oracles.

use uavail_core::composite::{composite_availability, CompositeState};
use uavail_markov::{
    gth_imperfect_coverage_farm, steady_state_mass_drift, BirthDeath, Ctmc, CtmcBuilder, StateId,
    STEADY_STATE_DRIFT_TOLERANCE,
};
use uavail_queueing::mmck::{check_servers, loss_probabilities};
use uavail_queueing::MM1K;

use crate::context::EvalContext;
use crate::{TaParameters, TravelError};

/// Does nothing: equation (3) is evaluated in closed form, and there is
/// no loss-probability memo left to empty.
///
/// Kept so that benchmarks written against the memo, which call it
/// before every cold repetition, still build.
pub fn reset_loss_cache() {}

/// Loss probability `p_K` of the basic single-server buffer —
/// equation (1).
///
/// # Errors
///
/// Propagates parameter-domain failures from the queueing model.
pub fn loss_probability_basic(params: &TaParameters) -> Result<f64, TravelError> {
    let q = MM1K::new(
        params.arrival_rate_per_second,
        params.service_rate_per_second,
        params.buffer_size,
    )?;
    Ok(q.loss_probability())
}

/// Loss probability `p_K(i)` with `i` operational servers — equation (3),
/// the `i`-th item of [`uavail_queueing::mmck::loss_probabilities`].
///
/// # Errors
///
/// Propagates parameter-domain failures; `i` must satisfy
/// `1 ≤ i ≤ buffer_size`.
pub fn loss_probability(params: &TaParameters, operational: usize) -> Result<f64, TravelError> {
    let mut losses = losses(params)?;
    check_servers(operational, params.buffer_size)?;
    Ok(losses
        .nth(operational - 1)
        .expect("the family has buffer_size items"))
}

/// `p_K(1), p_K(2), …, p_K(K)` for `params`, by
/// [`uavail_queueing::mmck::loss_probabilities`] in O(1) each. Every item
/// passes the `travel.loss.poison` injection site (inert unless
/// `uavail-faultinject` is enabled), which turns it into NaN.
fn losses(params: &TaParameters) -> Result<impl Iterator<Item = f64>, TravelError> {
    Ok(loss_probabilities(
        params.arrival_rate_per_second,
        params.service_rate_per_second,
        params.buffer_size,
    )?
    .map(|p| uavail_faultinject::corrupt_f64("travel.loss.poison", p)))
}

/// Equations (5) and (9): the availability of a farm whose state
/// distribution is `op` (`Π_0 ..= Π_{N_W}`, by operational servers) and
/// `y` (the reconfiguration states, empty under perfect coverage). State
/// `Π_0` serves nothing, state `Π_i` serves `1 − p_K(i)`, and every `y_i`
/// is down. The composite states are built in `states`.
///
/// # Errors
///
/// Propagates parameter-domain failures and the composite's probability
/// validation.
pub(crate) fn farm_availability(
    params: &TaParameters,
    op: &[f64],
    y: &[f64],
    states: &mut Vec<CompositeState>,
) -> Result<f64, TravelError> {
    check_servers(op.len() - 1, params.buffer_size)?;
    states.clear();
    states.push(CompositeState::new(op[0], 0.0)); // all servers down
    for (&p, loss) in op[1..].iter().zip(losses(params)?) {
        states.push(CompositeState::new(p, 1.0 - loss));
    }
    // Reconfiguration = down.
    states.extend(y.iter().map(|&p| CompositeState::new(p, 0.0)));
    Ok(composite_availability(states)?)
}

/// Basic-architecture web-service availability — equation (2):
/// `A(WS) = A(C_WS) · (1 − p_K)`.
///
/// # Errors
///
/// Propagates parameter-domain failures.
pub fn basic_availability(params: &TaParameters) -> Result<f64, TravelError> {
    params.validate()?;
    Ok(params.a_cws * (1.0 - loss_probability_basic(params)?))
}

/// Steady-state probabilities `Π_0 ..= Π_{N_W}` of the perfect-coverage
/// farm (Figure 9 / equation 4), indexed by the number of operational
/// servers.
///
/// # Errors
///
/// Propagates parameter-domain failures.
pub fn farm_distribution_perfect(params: &TaParameters) -> Result<Vec<f64>, TravelError> {
    Ok(BirthDeath::shared_repair_farm(
        params.web_servers,
        params.failure_rate_per_hour,
        params.repair_rate_per_hour,
    )?)
}

/// Steady-state solution of the imperfect-coverage farm
/// (Figure 10 / equations 6–8).
///
/// Returns `(operational, reconfiguring)`:
/// `operational[i]` is `Π_i` (i operational servers, `0 ..= N_W`);
/// `reconfiguring[i]` is `Π_{y_i}` for `i = 1 ..= N_W` (stored at
/// `i - 1`), the down states awaiting manual reconfiguration.
///
/// Every farm is solved in O(N_W) time and memory by the routine the
/// `/eval` worker runs: GTH on the chain's non-zero entries, to the bits
/// of dense GTH on the explicit chain (which every table and figure of
/// the paper pins), and [`farm_distribution_imperfect_closed_form`]
/// wherever those weights overflow or GTH would lose precision.
/// (The paper's printed summation bound `N_W − 2` in equations
/// (7)–(9) is a typographical slip — reproducing `A(WS) = 0.999995587`
/// from Table 7 requires including every `y_i` state, which both
/// solvers do by construction.)
///
/// # Errors
///
/// Propagates parameter-domain failures.
pub fn farm_distribution_imperfect(
    params: &TaParameters,
) -> Result<(Vec<f64>, Vec<f64>), TravelError> {
    params.validate()?;
    let mut pi = Vec::new();
    solve_farm(params, &mut pi)?;
    let reconfiguring = pi.split_off(params.web_servers + 1);
    Ok((pi, reconfiguring))
}

/// Solves the farm of validated `params` into `pi`, in the layout of
/// [`imperfect_farm_chain`]: `Π_0 ..= Π_{N_W}`, then
/// `Π_{y_1} ..= Π_{y_{N_W}}`. Both web-service paths call it.
///
/// Under perfect coverage the y states are unreachable and Figure 10
/// degenerates to Figure 9: `pi` is that distribution followed by `N_W`
/// zeros. Otherwise [`structured_farm_solve`] answers wherever GTH keeps
/// its precision ([`gth_stays_normal`]), and the closed form everywhere
/// else. The drift check guards the GTH vector against the
/// `markov.gth.mass_drift` injection site: a drifting vector counts
/// `travel.farm.pi_fallbacks` and one SLO degraded event, and the closed
/// form answers instead (`travel.farm.pi_recovered`). Returns whether
/// that fallback ran.
fn solve_farm(params: &TaParameters, pi: &mut Vec<f64>) -> Result<bool, TravelError> {
    if params.coverage >= 1.0 {
        *pi = farm_distribution_perfect(params)?;
        pi.resize(2 * params.web_servers + 1, 0.0);
    } else if !gth_stays_normal(params) || !structured_farm_solve(params, pi) {
        closed_form_into(params, pi);
    } else if steady_state_mass_drift(pi) > STEADY_STATE_DRIFT_TOLERANCE {
        uavail_obs::counter_add("travel.farm.pi_fallbacks", 1);
        uavail_obs::slo_degraded(1);
        closed_form_into(params, pi);
        uavail_obs::counter_add("travel.farm.pi_recovered", 1);
        return Ok(true);
    }
    Ok(false)
}

/// The imperfect-coverage farm chain of Figure 10 for `c < 1`, with the
/// handles of its operational states `0 ..= N_W` and of its
/// reconfiguration states `y_1 ..= y_{N_W}`, added in that order.
fn imperfect_farm_chain(
    params: &TaParameters,
) -> Result<(Ctmc, Vec<StateId>, Vec<StateId>), TravelError> {
    let n = params.web_servers;
    let c = params.coverage;
    let mut b = CtmcBuilder::new();
    let op: Vec<_> = (0..=n).map(|i| b.add_state(format!("up{i}"))).collect();
    let y: Vec<_> = (1..=n).map(|i| b.add_state(format!("y{i}"))).collect();
    for i in 1..=n {
        let (covered, uncovered) = failure_rates(params, i);
        // Covered failure: i -> i-1 at rate i·c·λ.
        if c > 0.0 {
            b.add_transition(op[i], op[i - 1], covered)?;
        }
        // Uncovered failure: i -> y_i at rate i·(1-c)·λ.
        b.add_transition(op[i], y[i - 1], uncovered)?;
        // Manual reconfiguration: y_i -> i-1 at rate β.
        b.add_transition(y[i - 1], op[i - 1], params.reconfiguration_rate_per_hour)?;
        // Shared repair: i-1 -> i at rate µ.
        b.add_transition(op[i - 1], op[i], params.repair_rate_per_hour)?;
    }
    Ok((b.build()?, op, y))
}

/// Covered (`i·c·λ`, `0.0` when `c = 0`) and uncovered (`i·(1−c)·λ`)
/// failure rates out of the farm state with `i` operational servers.
fn failure_rates(params: &TaParameters, i: usize) -> (f64, f64) {
    let lambda = params.failure_rate_per_hour;
    let c = params.coverage;
    let covered = if c > 0.0 { i as f64 * c * lambda } else { 0.0 };
    (covered, i as f64 * (1.0 - c) * lambda)
}

/// Whether GTH keeps its precision on the farm of `params` (`c < 1`): the
/// uncovered-failure rate `u_i`, the fold factor `u_i/β` and β must be
/// normal floats. Then every pivot `d_i ≥ u_i` is normal, and a weight
/// `w·µ/d_i` or `w·u_i/β` whose product underflows is off by at most
/// 2^-53 of the total weight. Otherwise GTH loses precision without
/// noticing, where an overflow makes it decline: a fold factor that
/// underflows drops the uncovered failures from every pivot, and a
/// subnormal pivot or β scales the rounding of an underflowed product up
/// to the size of the weights. `u_i` and `u_i/β` grow with `i`, so the
/// one-server values are the ones to check.
fn gth_stays_normal(params: &TaParameters) -> bool {
    let beta = params.reconfiguration_rate_per_hour;
    let (_, uncovered) = failure_rates(params, 1);
    [beta, uncovered, uncovered / beta]
        .iter()
        .all(|r| r.is_normal())
}

/// Solves the farm of `params` (`c < 1`) into `pi` by
/// [`gth_imperfect_coverage_farm`], in the layout of
/// [`imperfect_farm_chain`]. Returns `false` when that solve declines, and
/// also when a failure rate underflowed to zero: that rate drops a
/// transition the chain has, and the closed form keeps it.
fn structured_farm_solve(params: &TaParameters, pi: &mut Vec<f64>) -> bool {
    // Both rates grow with i, so the one-server rates are the smallest.
    let (covered, uncovered) = failure_rates(params, 1);
    if uncovered == 0.0 || (params.coverage > 0.0 && covered == 0.0) {
        return false;
    }
    gth_imperfect_coverage_farm(
        params.web_servers,
        |i| failure_rates(params, i),
        params.repair_rate_per_hour,
        params.reconfiguration_rate_per_hour,
        pi,
    )
}

/// Closed-form state probabilities of the imperfect-coverage farm —
/// the corrected equations (6)–(8): `Π_i = (1/i!)(µ/λ)^i Π_0` and
/// `Π_{y_i} = µ(1−c)/(β(i−1)!) (µ/λ)^{i−1} Π_0` for `i = 1 ..= N_W`.
///
/// Runs in O(N_W) time, in log space, and answers every farm that
/// passes validation. [`farm_distribution_imperfect`] returns it wherever
/// the structured GTH declines or would lose precision; elsewhere it is
/// the reference the GTH solution is tested against.
///
/// # Errors
///
/// Propagates parameter-domain failures.
pub fn farm_distribution_imperfect_closed_form(
    params: &TaParameters,
) -> Result<(Vec<f64>, Vec<f64>), TravelError> {
    params.validate()?;
    let mut pi = Vec::new();
    closed_form_into(params, &mut pi);
    let reconfiguring = pi.split_off(params.web_servers + 1);
    Ok((pi, reconfiguring))
}

/// [`farm_distribution_imperfect_closed_form`] of validated `params` into
/// `pi`, in the layout of [`imperfect_farm_chain`]. Each logarithm is a
/// sum of the logarithms of single rates, so no product or ratio of rates
/// overflows or underflows before the weights are normalized.
fn closed_form_into(params: &TaParameters, pi: &mut Vec<f64>) {
    let n = params.web_servers;
    let log_mu = params.repair_rate_per_hour.ln();
    // ln(µ/λ), and ln(µ(1−c)/β): −∞ at c = 1, where every y_i is empty.
    let log_ratio = log_mu - params.failure_rate_per_hour.ln();
    let log_y1 = log_mu + (1.0 - params.coverage).ln() - params.reconfiguration_rate_per_hour.ln();
    // Log weights relative to Π_0 = 1, normalized at the end.
    pi.clear();
    pi.resize(2 * n + 1, 0.0);
    // ln(i!) so far; just before ln i is added it holds ln((i−1)!), the
    // factorial Π_{y_i} needs.
    let mut log_fact = 0.0;
    for i in 1..=n {
        pi[n + i] = log_y1 + (i as f64 - 1.0) * log_ratio - log_fact;
        log_fact += (i as f64).ln();
        pi[i] = i as f64 * log_ratio - log_fact;
    }
    let max = pi.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for v in pi.iter_mut() {
        *v = (*v - max).exp();
    }
    let total: f64 = pi.iter().sum();
    for v in pi.iter_mut() {
        *v /= total;
    }
}

/// Redundant-farm web-service availability with perfect coverage —
/// equation (5): `A(WS) = 1 − [Σ_i Π_i p_K(i) + Π_0]`.
///
/// # Errors
///
/// Propagates parameter-domain failures.
pub fn redundant_perfect_availability(params: &TaParameters) -> Result<f64, TravelError> {
    params.validate()?;
    let pi = farm_distribution_perfect(params)?;
    farm_availability(params, &pi, &[], &mut Vec::with_capacity(pi.len()))
}

/// Redundant-farm web-service availability with imperfect coverage —
/// equation (9):
/// `A(WS) = 1 − [Σ_i Π_i p_K(i) + Σ_i Π_{y_i} + Π_0]`.
///
/// # Errors
///
/// Propagates parameter-domain failures.
pub fn redundant_imperfect_availability(params: &TaParameters) -> Result<f64, TravelError> {
    params.validate()?;
    let (op, y) = farm_distribution_imperfect(params)?;
    farm_availability(params, &op, &y, &mut Vec::with_capacity(op.len() + y.len()))
}

/// Redundant-farm web-service availability with imperfect coverage,
/// computed in `ctx`'s reusable buffers by the same farm solve as
/// [`redundant_imperfect_availability`], so bit-for-bit identical to it.
/// A drift fallback counts in [`EvalContext::fallback_count`].
///
/// # Errors
///
/// Propagates parameter-domain failures.
pub fn redundant_imperfect_availability_with(
    params: &TaParameters,
    ctx: &mut EvalContext,
) -> Result<f64, TravelError> {
    params.validate()?;
    ctx.note_use();
    let key = EvalContext::avail_key(params);
    if let Some(&a) = ctx.avail_memo.get(&key) {
        uavail_obs::trace_instant("travel.eval_context.memo_hit");
        return Ok(a);
    }
    if solve_farm(params, &mut ctx.pi)? {
        ctx.fallbacks += 1;
    }
    let (op, y) = ctx.pi.split_at(params.web_servers + 1);
    let a = farm_availability(params, op, y, &mut ctx.states)?;
    ctx.remember_availability(key, a);
    Ok(a)
}

/// Mean time (hours) from the all-up state until the web service is
/// structurally down — all servers failed or a manual reconfiguration in
/// progress (the Figure 10 down states).
///
/// Complements the steady-state availability: two architectures with the
/// same availability can have very different outage frequencies.
///
/// # Errors
///
/// Propagates parameter-domain and chain failures.
pub fn mean_time_to_web_down(params: &TaParameters) -> Result<f64, TravelError> {
    params.validate()?;
    let n = params.web_servers;
    let lambda = params.failure_rate_per_hour;
    let mu = params.repair_rate_per_hour;

    if params.coverage >= 1.0 {
        // Pure birth-death descent: use the numerically stable closed
        // form — at λ = 1e-4, µ = 1 and N_W ≥ 6 the MTTF exceeds 1e20 h
        // and dense hitting-time solvers cancel catastrophically.
        let births = vec![mu; n];
        let deaths: Vec<f64> = (1..=n).map(|i| i as f64 * lambda).collect();
        return Ok(BirthDeath::new(births, deaths)?.mean_passage_to_zero(n)?);
    }

    let (chain, op, y) = imperfect_farm_chain(params)?;
    // Down = state 0 plus every reconfiguration state.
    let mut targets = vec![op[0]];
    targets.extend(y.iter().copied());
    Ok(chain.mean_time_to(op[n], &targets)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TaParameters {
        TaParameters::paper_defaults()
    }

    #[test]
    fn equation_1_at_full_load() {
        // rho = 1, K = 10: p_K = 1/11.
        let p = loss_probability_basic(&params()).unwrap();
        assert!((p - 1.0 / 11.0).abs() < 1e-14);
    }

    #[test]
    fn equation_2_basic_architecture() {
        let a = basic_availability(&params()).unwrap();
        let expected = 0.996 * (1.0 - 1.0 / 11.0);
        assert!((a - expected).abs() < 1e-14);
    }

    #[test]
    fn equation_3_known_value() {
        // Hand-computed in the reproduction notes: p_K(4) ≈ 3.737e-6 for
        // a = 1, K = 10.
        let p = loss_probability(&params(), 4).unwrap();
        assert!((p - 3.737e-6).abs() < 0.01e-6, "{p}");
    }

    #[test]
    fn loss_probability_matches_the_mmck_oracle() {
        // Equation (3) in closed form against the birth–death recurrence,
        // for every server count of the paper's buffer and at a tenfold
        // overload.
        for alpha in [100.0, 1000.0] {
            let p = TaParameters::builder()
                .arrival_rate_per_second(alpha)
                .build()
                .unwrap();
            for i in 1..=p.buffer_size {
                let closed = loss_probability(&p, i).unwrap();
                let oracle = uavail_queueing::MMcK::new(
                    p.arrival_rate_per_second,
                    p.service_rate_per_second,
                    i,
                    p.buffer_size,
                )
                .unwrap()
                .loss_probability();
                assert!(
                    (closed - oracle).abs() <= 1e-14 * oracle,
                    "α={alpha} i={i}: {closed:e} vs MMcK {oracle:e}"
                );
            }
        }
        // The typed errors of the recurrence's constructor.
        let p = params();
        for (i, name) in [(0, "servers"), (p.buffer_size + 1, "capacity")] {
            assert!(
                matches!(
                    loss_probability(&p, i),
                    Err(TravelError::Queueing(
                        uavail_queueing::QueueingError::InvalidParameter { name: n, .. }
                    )) if n == name
                ),
                "i={i}"
            );
        }
    }

    #[test]
    fn overflowing_offered_load_loses_every_request_on_every_path() {
        // α/ν = 1e302, and α/ν = ∞: p_K(i) rounds to 1 for every i, so the
        // farm serves nothing. The M/M/c/K recurrence turns both into NaN.
        for (alpha, nu) in [(100.0, 1e-300), (1e308, 1e-300)] {
            let p = TaParameters::builder()
                .arrival_rate_per_second(alpha)
                .service_rate_per_second(nu)
                .build()
                .unwrap();
            let perfect = redundant_perfect_availability(&p).unwrap();
            let imperfect = redundant_imperfect_availability(&p).unwrap();
            let with = redundant_imperfect_availability_with(&p, &mut EvalContext::new()).unwrap();
            for a in [perfect, imperfect, with] {
                assert_eq!(a.to_bits(), 0.0f64.to_bits(), "α={alpha} ν={nu}");
            }
        }
        // α/ν underflows to 0: no request is lost, and the answer is the
        // farm's structural availability.
        let p = TaParameters::builder()
            .arrival_rate_per_second(5e-324)
            .service_rate_per_second(1e300)
            .build()
            .unwrap();
        let imperfect = redundant_imperfect_availability(&p).unwrap();
        let with = redundant_imperfect_availability_with(&p, &mut EvalContext::new()).unwrap();
        assert_eq!(imperfect.to_bits(), 0.9999993334004552f64.to_bits());
        assert_eq!(with.to_bits(), imperfect.to_bits());
    }

    #[test]
    fn equation_4_shape() {
        let pi = farm_distribution_perfect(&params()).unwrap();
        assert_eq!(pi.len(), 5);
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Overwhelming mass at all-up for λ = 1e-4, µ = 1.
        assert!(pi[4] > 0.999);
    }

    /// The farm of `p` solved on its assembled generator: dense GTH where
    /// its vector is healthy, else dense LU, whose elimination carries no
    /// running weight that could overflow.
    fn dense_farm_solution(p: &TaParameters) -> Vec<f64> {
        let (chain, _, _) = imperfect_farm_chain(p).unwrap();
        match chain.steady_state() {
            Ok(pi) if steady_state_mass_drift(&pi) <= STEADY_STATE_DRIFT_TOLERANCE => pi,
            _ => chain
                .steady_state_with(uavail_markov::SteadyStateMethod::DirectLu)
                .unwrap(),
        }
    }

    #[test]
    fn closed_form_matches_gth_solution() {
        for coverage in [0.5, 0.9, 0.98] {
            let p = TaParameters::builder().coverage(coverage).build().unwrap();
            let (op_num, y_num) = farm_distribution_imperfect(&p).unwrap();
            let (op_cf, y_cf) = farm_distribution_imperfect_closed_form(&p).unwrap();
            for (a, b) in op_num.iter().zip(&op_cf) {
                let scale = a.abs().max(1e-300);
                assert!(
                    ((a - b) / scale).abs() < 1e-8,
                    "coverage {coverage}: {a} vs {b}"
                );
            }
            for (a, b) in y_num.iter().zip(&y_cf) {
                let scale = a.abs().max(1e-300);
                assert!(
                    ((a - b) / scale).abs() < 1e-8,
                    "coverage {coverage} y: {a} vs {b}"
                );
            }
        }
        // Against a solve of the assembled generator at every farm size
        // up to 511 servers: states with real mass agree in relative
        // terms, negligible ones absolutely.
        let paper_coverage = (1..=128).chain([256, 511]).map(|nw| (nw, 0.98));
        let no_coverage = (1..=64).map(|nw| (nw, 0.0));
        for (nw, coverage) in paper_coverage.chain(no_coverage) {
            let p = TaParameters::builder()
                .web_servers(nw)
                .buffer_size(nw.max(10))
                .coverage(coverage)
                .build()
                .unwrap();
            let dense = dense_farm_solution(&p);
            let (op_cf, y_cf) = farm_distribution_imperfect_closed_form(&p).unwrap();
            for (a, b) in dense.iter().zip(op_cf.iter().chain(&y_cf)) {
                assert!(
                    (a - b).abs() <= 1e-12,
                    "N_W = {nw}, c = {coverage}: {a} vs {b}"
                );
                if *b > 1e-9 {
                    assert!(
                        ((a - b) / b).abs() <= 1e-6,
                        "N_W = {nw}, c = {coverage}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn availability_is_the_steady_state_reward_of_figure_10() {
        // Equation (9) as a Markov reward (Meyer's performability view):
        // on the assembled Figure 10 chain, up_i earns the share of
        // requests served, 1 − p_K(i) from the M/M/i/K recurrence, while
        // up_0 and every y_i earn nothing. The expected steady-state
        // reward must be A(WS), at Table 7's point and at every point of
        // Figure 12.
        let (lambdas, alphas) = crate::evaluation::figure_grid();
        let mut points = vec![params()];
        for &lambda in &lambdas {
            for &alpha in &alphas {
                for nw in 1..=10 {
                    points.push(
                        TaParameters::builder()
                            .web_servers(nw)
                            .failure_rate_per_hour(lambda)
                            .arrival_rate_per_second(alpha)
                            .build()
                            .unwrap(),
                    );
                }
            }
        }
        assert_eq!(points.len(), 91);
        for p in &points {
            let (chain, op, _) = imperfect_farm_chain(p).unwrap();
            let mut rates = vec![0.0; chain.num_states()];
            for (i, state) in op.iter().enumerate().skip(1) {
                let loss = uavail_queueing::MMcK::new(
                    p.arrival_rate_per_second,
                    p.service_rate_per_second,
                    i,
                    p.buffer_size,
                )
                .unwrap()
                .loss_probability();
                rates[state.index()] = 1.0 - loss;
            }
            let reward = uavail_markov::reward::RewardModel::new(rates)
                .unwrap()
                .steady_state_reward(&chain)
                .unwrap();
            let a = redundant_imperfect_availability(p).unwrap();
            assert!(
                (reward - a).abs() <= 1e-12,
                "N_W = {}, λ = {}, α = {}: reward {reward} vs A(WS) {a}",
                p.web_servers,
                p.failure_rate_per_hour,
                p.arrival_rate_per_second
            );
        }
    }

    #[test]
    fn paper_headline_ws_availability() {
        // Table 7: A(WS) = 0.999995587 for the reference parameters.
        let a = redundant_imperfect_availability(&params()).unwrap();
        assert!(
            (a - 0.999995587).abs() < 1e-8,
            "A(WS) = {a:.9}, expected 0.999995587"
        );
    }

    #[test]
    fn perfect_coverage_beats_imperfect() {
        let p = params();
        let perfect = redundant_perfect_availability(&p).unwrap();
        let imperfect = redundant_imperfect_availability(&p).unwrap();
        assert!(perfect > imperfect);
    }

    #[test]
    fn imperfect_with_full_coverage_equals_perfect() {
        let p = TaParameters::builder().coverage(1.0).build().unwrap();
        let a = redundant_imperfect_availability(&p).unwrap();
        let b = redundant_perfect_availability(&p).unwrap();
        assert!((a - b).abs() < 1e-12);
        // Figure 9's distribution, and every y state empty.
        let (op, y) = farm_distribution_imperfect(&p).unwrap();
        assert_eq!(op, farm_distribution_perfect(&p).unwrap());
        assert_eq!(y, vec![0.0; p.web_servers]);
    }

    #[test]
    fn single_server_farm_matches_basic_performance_part() {
        // With one server, the M/M/i/K part must equal equation (1).
        let p = TaParameters::builder().web_servers(1).build().unwrap();
        let pk1 = loss_probability(&p, 1).unwrap();
        let pk_basic = loss_probability_basic(&p).unwrap();
        assert!((pk1 - pk_basic).abs() < 1e-14);
    }

    #[test]
    fn redundancy_helps_at_moderate_load() {
        // At alpha = 50/s, more servers monotonically improve A(WS) under
        // perfect coverage.
        let mut prev = 0.0;
        for nw in 1..=6 {
            let p = TaParameters::builder()
                .web_servers(nw)
                .arrival_rate_per_second(50.0)
                .build()
                .unwrap();
            let a = redundant_perfect_availability(&p).unwrap();
            assert!(a > prev, "NW = {nw}: {a} !> {prev}");
            prev = a;
        }
    }

    #[test]
    fn mttf_two_server_perfect_coverage_closed_form() {
        // Known result for 2 machines, shared repair, perfect coverage:
        // MTTF = (3λ + µ) / (2λ²).
        let (lambda, mu) = (0.01, 1.0);
        let p = TaParameters::builder()
            .web_servers(2)
            .failure_rate_per_hour(lambda)
            .repair_rate_per_hour(mu)
            .coverage(1.0)
            .build()
            .unwrap();
        let mttf = mean_time_to_web_down(&p).unwrap();
        let expected = (3.0 * lambda + mu) / (2.0 * lambda * lambda);
        assert!(
            ((mttf - expected) / expected).abs() < 1e-12,
            "{mttf} vs {expected}"
        );
    }

    #[test]
    fn imperfect_coverage_slashes_mttf() {
        // Uncovered failures create a much nearer down state: MTTF drops
        // by orders of magnitude relative to perfect coverage.
        let perfect = TaParameters::builder().coverage(1.0).build().unwrap();
        let imperfect = params(); // c = 0.98
        let mttf_perfect = mean_time_to_web_down(&perfect).unwrap();
        let mttf_imperfect = mean_time_to_web_down(&imperfect).unwrap();
        assert!(
            mttf_imperfect < mttf_perfect / 100.0,
            "perfect {mttf_perfect:.3e} vs imperfect {mttf_imperfect:.3e}"
        );
        // Roughly 1 / (N λ (1-c)) for the first uncovered failure.
        let rough = 1.0 / (4.0 * 1e-4 * 0.02);
        assert!(
            mttf_imperfect > 0.5 * rough && mttf_imperfect < 2.0 * rough,
            "{mttf_imperfect} vs rough {rough}"
        );
    }

    #[test]
    fn more_servers_longer_mttf_under_perfect_coverage() {
        let mttf = |nw: usize| {
            let p = TaParameters::builder()
                .web_servers(nw)
                .coverage(1.0)
                .failure_rate_per_hour(1e-2)
                .build()
                .unwrap();
            mean_time_to_web_down(&p).unwrap()
        };
        assert!(mttf(3) > mttf(2));
        assert!(mttf(4) > mttf(3));
    }

    /// `‖πQ‖∞ / max exit rate` of the Figure 10 generator at
    /// `π = (op, y)`, accumulated transition by transition in O(N_W).
    ///
    /// The generator is taken with every rate scaled by the power of two
    /// that brings the largest of λ, µ and β into [1, 2). The stationary
    /// vector and the ratio do not change, but rates such as 5e-324 keep
    /// their precision: unscaled, `i·c·λ` and every flow out of it would
    /// round to a multiple of the smallest subnormal.
    fn balance_residual(p: &TaParameters, op: &[f64], y: &[f64]) -> f64 {
        let largest = p
            .failure_rate_per_hour
            .max(p.repair_rate_per_hour)
            .max(p.reconfiguration_rate_per_hour);
        let k = -(largest.log2().floor() as i32);
        // Two steps, so that 2^k itself stays finite for k up to 1 074.
        let scale = |rate: f64| rate * 2f64.powi(k / 2) * 2f64.powi(k - k / 2);
        let (lambda, mu, beta) = (
            scale(p.failure_rate_per_hour),
            scale(p.repair_rate_per_hour),
            scale(p.reconfiguration_rate_per_hour),
        );
        let n = p.web_servers;
        let c = p.coverage;
        let pi: Vec<f64> = op.iter().chain(y).copied().collect();
        let mut flow = vec![0.0; pi.len()];
        let mut exit = vec![0.0; pi.len()];
        // Operational state i sits at index i, y_i at index n + i.
        let mut edge = |from: usize, to: usize, rate: f64| {
            flow[to] += pi[from] * rate;
            flow[from] -= pi[from] * rate;
            exit[from] += rate;
        };
        for i in 1..=n {
            if c > 0.0 {
                edge(i, i - 1, i as f64 * c * lambda);
            }
            if c < 1.0 {
                edge(i, n + i, i as f64 * (1.0 - c) * lambda);
                edge(n + i, i - 1, beta);
            }
            edge(i - 1, i, mu);
        }
        let residual = flow.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        residual / exit.iter().fold(0.0, |a: f64, &v| a.max(v))
    }

    #[test]
    fn large_farms_take_the_closed_form_and_satisfy_balance() {
        // Large farms at the paper's rates, then every combination of
        // extreme rates. Wherever the structured GTH declines or would
        // leave the normal range, the route is the closed form, bit for
        // bit; elsewhere it is the structured GTH, within 1e-12 of the
        // closed form in every state. Every answer is a distribution that
        // satisfies the balance equations, and both evaluation paths give
        // the same availability bits.
        let paper = params();
        let rates = [5e-324, 1e-310, 1e-300, 1e-4, 1.0, 1e300];
        let large = [512, 2_000, 10_000, 50_000].into_iter().flat_map(|nw| {
            [0.0, 0.98].map(|c| {
                let (lambda, mu, beta) = (
                    paper.failure_rate_per_hour,
                    paper.repair_rate_per_hour,
                    paper.reconfiguration_rate_per_hour,
                );
                (nw, c, lambda, mu, beta)
            })
        });
        let extreme = [1, 64, 511, 512, 2_000].into_iter().flat_map(move |nw| {
            [0.0, 1e-12, 0.98, 1.0 - 1e-12]
                .into_iter()
                .flat_map(move |c| {
                    rates.into_iter().flat_map(move |lambda| {
                        rates
                            .into_iter()
                            .flat_map(move |mu| rates.map(|beta| (nw, c, lambda, mu, beta)))
                    })
                })
        });
        let mut ctx = EvalContext::new();
        let mut structured = Vec::new();
        let (mut by_gth, mut by_closed_form) = (0, 0);
        for (nw, c, lambda, mu, beta) in large.chain(extreme) {
            let p = TaParameters {
                web_servers: nw,
                buffer_size: nw,
                coverage: c,
                failure_rate_per_hour: lambda,
                repair_rate_per_hour: mu,
                reconfiguration_rate_per_hour: beta,
                ..paper.clone()
            };
            let case = format!("N_W={nw} c={c} λ={lambda} µ={mu} β={beta}");
            let (op, y) = farm_distribution_imperfect(&p).unwrap();
            assert_eq!((op.len(), y.len()), (nw + 1, nw), "{case}");
            let route: Vec<f64> = op.iter().chain(&y).copied().collect();
            let (op_cf, y_cf) = farm_distribution_imperfect_closed_form(&p).unwrap();
            let closed_form: Vec<f64> = op_cf.into_iter().chain(y_cf).collect();
            let expected = if gth_stays_normal(&p) && structured_farm_solve(&p, &mut structured) {
                by_gth += 1;
                for (k, (s, cf)) in structured.iter().zip(&closed_form).enumerate() {
                    assert!(
                        (s - cf).abs() <= 1e-12,
                        "{case}, state {k}: {s:e} vs {cf:e}"
                    );
                }
                &structured
            } else {
                by_closed_form += 1;
                &closed_form
            };
            for (k, (a, b)) in route.iter().zip(expected).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{case}, state {k}");
            }
            assert!(
                route.iter().all(|pi| pi.is_finite() && *pi >= 0.0),
                "{case}"
            );
            let mass = route.iter().sum::<f64>();
            assert!((mass - 1.0).abs() <= 1e-12, "{case}: mass {mass}");
            let residual = balance_residual(&p, &op, &y);
            assert!(residual <= 1e-12, "{case}: ‖πQ‖∞ / max exit = {residual:e}");
            let cold = redundant_imperfect_availability(&p).unwrap();
            let warm = redundant_imperfect_availability_with(&p, &mut ctx).unwrap();
            assert!((0.0..=1.0).contains(&cold), "{case}: A(WS) = {cold}");
            assert_eq!(cold.to_bits(), warm.to_bits(), "{case}");
        }
        assert!(by_gth > 0 && by_closed_form > 0);
        eprintln!("{by_gth} farms solved by GTH, {by_closed_form} by the closed form");
    }

    #[test]
    fn large_farms_sum_every_state_of_equation_9() {
        // Every operational state's loss enters the composite, however
        // small its mass: the farm availability is equation (9) summed
        // with `loss_probability` per state, to the bit.
        let nw = 2_000;
        for coverage in [0.0, 0.98] {
            let p = TaParameters::builder()
                .web_servers(nw)
                .buffer_size(nw)
                .coverage(coverage)
                .build()
                .unwrap();
            let (op, y) = farm_distribution_imperfect(&p).unwrap();
            assert!(op.iter().any(|&pi| pi < 1e-15), "no negligible state");
            let mut states = vec![CompositeState::new(op[0], 0.0)];
            for (i, &pi) in op.iter().enumerate().skip(1) {
                states.push(CompositeState::new(
                    pi,
                    1.0 - loss_probability(&p, i).unwrap(),
                ));
            }
            states.extend(y.iter().map(|&pi| CompositeState::new(pi, 0.0)));
            let summed = composite_availability(&states).unwrap();
            let cold = redundant_imperfect_availability(&p).unwrap();
            let warm = redundant_imperfect_availability_with(&p, &mut EvalContext::new()).unwrap();
            assert_eq!(cold.to_bits(), summed.to_bits(), "c = {coverage}");
            assert_eq!(warm.to_bits(), summed.to_bits(), "c = {coverage}");
        }
    }

    #[test]
    fn structured_farm_solve_matches_dense_gth_bit_for_bit() {
        // Rates from subnormal to near overflow. Wherever dense GTH on the
        // builder's generator is healthy, the structured solve must give
        // the same bits; it may decline only where dense GTH fails or
        // drifts, or where the builder rejects a rate. Farms past 64
        // servers get a thinner grid: their dense solves dominate a debug
        // build's time.
        let coverages = [0.0, 1e-12, 0.5, 0.98, 0.999999];
        let full = (
            &[1e-320, 1e-300, 1e-4, 1e2, 1e306][..],
            &[1e-300, 1.0, 1e3, 1e300][..],
            &[1e-310, 1e-2, 12.0, 1e300][..],
        );
        let thin = (&[1e-4, 1e-2][..], &[1.0, 1e3][..], &[12.0][..]);
        let sizes = (1..=64)
            .map(|nw| (nw, full))
            .chain([128, 255, 511].map(|nw| (nw, thin)));
        let (mut identical, mut declined, mut rejected) = (0, 0, 0);
        let mut pi = Vec::new();
        for (nw, (lambdas, mus, betas)) in sizes {
            for &c in &coverages {
                for &lambda in lambdas {
                    for &mu in mus {
                        for &beta in betas {
                            let p = TaParameters {
                                web_servers: nw,
                                buffer_size: nw,
                                coverage: c,
                                failure_rate_per_hour: lambda,
                                repair_rate_per_hour: mu,
                                reconfiguration_rate_per_hour: beta,
                                ..TaParameters::paper_defaults()
                            };
                            let case = format!("N_W={nw} c={c} λ={lambda} µ={mu} β={beta}");
                            let solved = structured_farm_solve(&p, &mut pi);
                            let Ok((chain, _, _)) = imperfect_farm_chain(&p) else {
                                assert!(!solved, "{case}: answered a farm the builder rejects");
                                rejected += 1;
                                continue;
                            };
                            match uavail_markov::gth_steady_state(chain.generator()) {
                                Ok(dense)
                                    if steady_state_mass_drift(&dense)
                                        <= STEADY_STATE_DRIFT_TOLERANCE =>
                                {
                                    assert!(solved, "{case}: declined a healthy farm");
                                    assert_eq!(pi.len(), dense.len());
                                    for (k, (s, d)) in pi.iter().zip(&dense).enumerate() {
                                        assert_eq!(s.to_bits(), d.to_bits(), "{case}, state {k}");
                                    }
                                    identical += 1;
                                }
                                _ => {
                                    assert!(!solved, "{case}: answered an unhealthy farm");
                                    declined += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(identical > 0 && declined > 0 && rejected > 0);
        eprintln!("{identical} identical, {declined} declined, {rejected} rejected by the builder");
    }

    #[test]
    fn context_solve_recovers_wherever_the_allocating_solve_does() {
        // Farms whose GTH weights overflow, so that dense GTH's vector
        // drifts past the mass tolerance: both paths answer from the
        // closed form, to the same bits, and count no fallback. No test in
        // this binary arms an injection site, so the counter moves only if
        // one of these solves falls back.
        uavail_obs::set_enabled(true);
        let fallbacks = || uavail_obs::snapshot().counter("travel.farm.pi_fallbacks");
        let before = fallbacks();
        for (lambda, nw) in [(1e-5, 89), (1e-4, 135), (1e-3, 346)] {
            let p = TaParameters::builder()
                .web_servers(nw)
                .buffer_size(nw + 8)
                .failure_rate_per_hour(lambda)
                .build()
                .unwrap();
            let cold = redundant_imperfect_availability(&p).unwrap();
            let warm = redundant_imperfect_availability_with(&p, &mut EvalContext::new())
                .unwrap_or_else(|e| panic!("λ={lambda} N_W={nw}: {e}"));
            assert_eq!(cold.to_bits(), warm.to_bits(), "λ={lambda} N_W={nw}");
        }
        assert_eq!(fallbacks(), before, "a fallback was counted");
        uavail_obs::set_enabled(false);
    }

    #[test]
    fn imperfect_coverage_reversal_at_high_server_count() {
        // Figure 12's key finding: with imperfect coverage, adding servers
        // beyond ~4 *hurts*, because uncovered failures scale with N_W.
        let availability = |nw: usize| {
            let p = TaParameters::builder()
                .web_servers(nw)
                .arrival_rate_per_second(50.0)
                .failure_rate_per_hour(1e-2)
                .build()
                .unwrap();
            redundant_imperfect_availability(&p).unwrap()
        };
        let a4 = availability(4);
        let a10 = availability(10);
        assert!(
            a10 < a4,
            "expected reversal: A(10) = {a10} should be below A(4) = {a4}"
        );
    }
}
