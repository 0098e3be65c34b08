//! Property-based tests for `uavail-markov`: invariants that must hold for
//! arbitrary well-formed chains.

use proptest::prelude::*;
use uavail_linalg::Matrix;
use uavail_markov::{gth_steady_state, BirthDeath, Ctmc, Dtmc, SteadyStateMethod};

/// Strategy: a random irreducible-ish row-stochastic matrix (all entries
/// strictly positive, so irreducibility and aperiodicity are guaranteed).
fn stochastic_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(0.05f64..1.0, n * n).prop_map(move |data| {
        let mut m = Matrix::from_vec(n, n, data).expect("shape ok");
        for r in 0..n {
            let sum: f64 = m.row(r).iter().sum();
            for c in 0..n {
                m[(r, c)] /= sum;
            }
        }
        m
    })
}

/// Strategy: a random irreducible CTMC generator with positive off-diagonal
/// rates spanning several orders of magnitude.
fn generator(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-4.0f64..3.0, n * n).prop_map(move |exponents| {
        let mut q = Matrix::zeros(n, n);
        for r in 0..n {
            let mut total = 0.0;
            for c in 0..n {
                if r != c {
                    let rate = 10f64.powf(exponents[r * n + c]);
                    q[(r, c)] = rate;
                    total += rate;
                }
            }
            q[(r, r)] = -total;
        }
        q
    })
}

proptest! {
    #[test]
    fn dtmc_stationary_is_probability_and_fixed_point(
        p in (2usize..7).prop_flat_map(stochastic_matrix)
    ) {
        let chain = Dtmc::new(p).unwrap();
        let pi = chain.stationary().unwrap();
        let sum: f64 = pi.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-10);
        prop_assert!(pi.iter().all(|&v| v >= 0.0));
        let next = chain.transition_matrix().vec_mul(&pi).unwrap();
        for (a, b) in pi.iter().zip(&next) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn dtmc_gth_agrees_with_direct_solve(
        p in (2usize..7).prop_flat_map(stochastic_matrix)
    ) {
        let chain = Dtmc::new(p).unwrap();
        let gth = chain.stationary().unwrap();
        let direct = chain.stationary_direct().unwrap();
        for (a, b) in gth.iter().zip(&direct) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn ctmc_methods_agree(q in (2usize..6).prop_flat_map(generator)) {
        let chain = Ctmc::from_generator(q).unwrap();
        let gth = chain.steady_state_with(SteadyStateMethod::Gth).unwrap();
        let lu = chain.steady_state_with(SteadyStateMethod::DirectLu).unwrap();
        for (a, b) in gth.iter().zip(&lu) {
            // Relative agreement on non-negligible entries, absolute on tiny.
            let scale = a.abs().max(1e-12);
            prop_assert!(((a - b) / scale).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn ctmc_steady_state_satisfies_balance(
        q in (2usize..6).prop_flat_map(generator)
    ) {
        let chain = Ctmc::from_generator(q).unwrap();
        let pi = chain.steady_state().unwrap();
        let residual = chain.generator().vec_mul(&pi).unwrap();
        // pi Q = 0, scaled by the largest rate present.
        let scale = chain.generator().max_abs().max(1.0);
        for v in residual {
            prop_assert!((v / scale).abs() < 1e-10);
        }
    }

    #[test]
    fn transient_is_probability_vector_at_all_times(
        q in (2usize..5).prop_flat_map(generator),
        t in 0.0f64..20.0
    ) {
        let chain = Ctmc::from_generator(q).unwrap();
        let n = chain.num_states();
        let mut initial = vec![0.0; n];
        initial[0] = 1.0;
        let p_t = chain.transient(&initial, t).unwrap();
        let sum: f64 = p_t.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(p_t.iter().all(|&v| (-1e-12..=1.0 + 1e-12).contains(&v)));
    }

    #[test]
    fn birth_death_closed_form_matches_numeric(
        rates in prop::collection::vec((0.01f64..100.0, 0.01f64..100.0), 1..8)
    ) {
        let births: Vec<f64> = rates.iter().map(|r| r.0).collect();
        let deaths: Vec<f64> = rates.iter().map(|r| r.1).collect();
        let bd = BirthDeath::new(births, deaths).unwrap();
        let closed = bd.steady_state();
        let numeric = bd.to_ctmc().unwrap().steady_state().unwrap();
        for (a, b) in closed.iter().zip(&numeric) {
            let scale = a.abs().max(1e-12);
            prop_assert!(((a - b) / scale).abs() < 1e-8);
        }
    }

    #[test]
    fn gth_distribution_normalized_for_generators(
        q in (2usize..8).prop_flat_map(generator)
    ) {
        let pi = gth_steady_state(&q).unwrap();
        let sum: f64 = pi.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-12);
        prop_assert!(pi.iter().all(|&v| v > 0.0)); // irreducible => all positive
    }
}
