//! Cross-validation integration tests: every analytic layer checked
//! against an independent implementation — closed form vs numeric solver
//! vs discrete-event simulation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use uavail::markov::{BirthDeath, CtmcBuilder};
use uavail::profile::ProfileGraph;
use uavail::queueing::MMcK;
use uavail::sim::{AlternatingRenewal, FarmSimulation, QueueSimulation};
use uavail::travel::sim_validation::compressed_parameters;
use uavail::travel::user::equation_10;
use uavail::travel::{user, webservice, Architecture, TaParameters, TravelAgencyModel};

#[test]
fn renewal_simulation_matches_two_state_ctmc() {
    let (lambda, mu) = (0.25, 2.0);
    // Analytic: CTMC steady state.
    let mut b = CtmcBuilder::new();
    let up = b.add_state("up");
    let down = b.add_state("down");
    b.add_transition(up, down, lambda).unwrap();
    b.add_transition(down, up, mu).unwrap();
    let pi = b.build().unwrap().steady_state().unwrap();
    // Simulation.
    let sim = AlternatingRenewal::new(lambda, mu).unwrap();
    let obs = sim.run(&mut StdRng::seed_from_u64(99), 300_000.0).unwrap();
    assert!(
        (obs.availability - pi[0]).abs() < 0.003,
        "sim {} vs ctmc {}",
        obs.availability,
        pi[0]
    );
}

#[test]
fn queue_simulation_matches_equation_3() {
    // The paper's p_K(i): i = 3 operational servers, K = 10, rho = 1.
    let analytic = MMcK::new(100.0, 100.0, 3, 10).unwrap().loss_probability();
    let sim = QueueSimulation::new(100.0, 100.0, 3, 10).unwrap();
    let obs = sim.run(&mut StdRng::seed_from_u64(5), 500_000).unwrap();
    let (lo, hi) = obs.loss_confidence_interval(4.0);
    assert!(
        lo <= analytic && analytic <= hi,
        "eq. 3 gives {analytic}, simulation CI [{lo}, {hi}]"
    );
}

#[test]
fn farm_state_occupancy_matches_figure9_model() {
    // Perfect coverage: simulated state occupancy vs equation (4).
    let (n, lambda, mu) = (4usize, 0.1, 1.0);
    let analytic = BirthDeath::shared_repair_farm(n, lambda, mu).unwrap();
    let sim = FarmSimulation::new(n, lambda, mu, 1.0, 10.0, 2.0, 2.0, 4).unwrap();
    let obs = sim.run(&mut StdRng::seed_from_u64(42), 400_000.0).unwrap();
    let dist = obs.state_distribution();
    for (i, &expected) in analytic.iter().enumerate() {
        assert!(
            (dist[i] - expected).abs() < 0.01,
            "state {i}: sim {} vs eq. 4 {expected}",
            dist[i]
        );
    }
}

#[test]
fn composite_equation_9_matches_joint_simulation() {
    // Per-event stepping of every arrival, service, failure and repair:
    // the joint model, with no separation argument.
    let p = compressed_parameters();
    let analytic = 1.0 - webservice::redundant_imperfect_availability(&p).unwrap();
    let sim = FarmSimulation::new(
        p.web_servers,
        p.failure_rate_per_hour,
        p.repair_rate_per_hour,
        p.coverage,
        p.reconfiguration_rate_per_hour,
        p.arrival_rate_per_second,
        p.service_rate_per_second,
        p.buffer_size,
    )
    .unwrap();
    let obs = sim
        .run(&mut StdRng::seed_from_u64(314159), 40_000.0)
        .unwrap();
    let (lo, hi) = obs.loss_confidence_interval(3.9);
    // Widened by 15% for the residual quasi-steady-state error.
    assert!(
        lo * 0.85 <= analytic && analytic <= hi * 1.15,
        "analytic {analytic:.4e} vs simulated {:.4e}, CI {:?}",
        obs.loss_fraction(),
        (lo, hi)
    );
}

#[test]
fn exact_scenario_classes_match_monte_carlo() {
    // A five-function profile graph: exact taboo-chain enumeration vs
    // 200k sampled sessions.
    let mut g = ProfileGraph::new(vec!["Home", "Browse", "Search", "Book", "Pay"]).unwrap();
    g.set_start_transition("Home", 0.6).unwrap();
    g.set_start_transition("Browse", 0.4).unwrap();
    g.set_transition("Home", Some("Browse"), 0.3).unwrap();
    g.set_transition("Home", Some("Search"), 0.3).unwrap();
    g.set_transition("Home", None, 0.4).unwrap();
    g.set_transition("Browse", Some("Home"), 0.2).unwrap();
    g.set_transition("Browse", Some("Search"), 0.3).unwrap();
    g.set_transition("Browse", None, 0.5).unwrap();
    g.set_transition("Search", Some("Book"), 0.4).unwrap();
    g.set_transition("Search", None, 0.6).unwrap();
    g.set_transition("Book", Some("Search"), 0.1).unwrap();
    g.set_transition("Book", Some("Pay"), 0.6).unwrap();
    g.set_transition("Book", None, 0.3).unwrap();
    g.set_transition("Pay", None, 1.0).unwrap();
    let g = g.validated().unwrap();

    let exact = g.scenario_class_probabilities(0.0).unwrap();
    let total: f64 = exact.iter().map(|(_, p)| p).sum();
    assert!((total - 1.0).abs() < 1e-10);

    let mc = g
        .monte_carlo_scenarios(&mut StdRng::seed_from_u64(8), 200_000)
        .unwrap();
    for (mask, p) in exact.iter().filter(|(_, p)| *p > 0.01) {
        let est = mc.get(mask).copied().unwrap_or(0.0);
        assert!(
            (est - p).abs() < 0.01,
            "mask {mask:#b} ({:?}): exact {p}, MC {est}",
            g.mask_to_names(*mask)
        );
    }
}

#[test]
fn generic_user_composition_equals_paper_equation_10() {
    // The two independent user-level implementations must agree to
    // machine precision for every architecture and class.
    for arch in [Architecture::Basic, Architecture::paper_reference()] {
        for n in [1usize, 3, 5] {
            let params = TaParameters::paper_defaults().with_reservation_systems(n);
            let model = TravelAgencyModel::new(params.clone(), arch).unwrap();
            let env = model.service_availabilities().unwrap();
            for class in [user::class_a(), user::class_b()] {
                let generic = user::user_availability(&class, &params, &env).unwrap();
                let closed = equation_10(&class, &params, &env).unwrap();
                assert!(
                    (generic - closed).abs() < 1e-13,
                    "{arch} N={n} class {}: {generic} vs {closed}",
                    class.name()
                );
            }
        }
    }
}

#[test]
fn expected_invocations_match_sampled_sessions() {
    let mut g = ProfileGraph::new(vec!["Page", "Action"]).unwrap();
    g.set_start_transition("Page", 1.0).unwrap();
    g.set_transition("Page", Some("Action"), 0.5).unwrap();
    g.set_transition("Page", None, 0.5).unwrap();
    g.set_transition("Action", Some("Page"), 0.5).unwrap();
    g.set_transition("Action", None, 0.5).unwrap();
    let g = g.validated().unwrap();
    let expected = g.expected_invocations().unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let sessions = 100_000usize;
    let mut counts = [0f64; 2];
    for _ in 0..sessions {
        for f in g.sample_session(&mut rng).unwrap() {
            counts[f] += 1.0;
        }
    }
    for i in 0..2 {
        let mean = counts[i] / sessions as f64;
        assert!(
            (mean - expected[i]).abs() < 0.02,
            "function {i}: sampled {mean} vs fundamental-matrix {}",
            expected[i]
        );
    }
}
