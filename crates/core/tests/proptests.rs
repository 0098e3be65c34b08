//! Property-based tests for `uavail-core`.

use std::collections::HashMap;

use proptest::prelude::*;
use uavail_core::{AvailExpr, Dual, HierarchicalModel, InteractionDiagram, Level};

/// Strategy: a random availability expression over parameters p0..p4.
fn expr_strategy() -> impl Strategy<Value = AvailExpr> {
    let leaf = prop_oneof![
        (0usize..5).prop_map(|i| AvailExpr::param(format!("p{i}"))),
        (0.0f64..=1.0).prop_map(AvailExpr::constant),
    ];
    leaf.prop_recursive(3, 20, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(AvailExpr::product),
            prop::collection::vec(inner.clone(), 1..4).prop_map(AvailExpr::parallel),
            (prop::collection::vec(inner.clone(), 1..4), any::<u8>()).prop_map(|(ch, raw)| {
                let k = (raw as usize % ch.len()) + 1;
                AvailExpr::k_of_n(k, ch)
            }),
            prop::collection::vec((0.0f64..=0.33, inner.clone()), 1..3)
                .prop_map(AvailExpr::weighted_sum),
            inner.prop_map(AvailExpr::complement),
        ]
    })
}

fn env(values: &[f64]) -> HashMap<String, f64> {
    values
        .iter()
        .enumerate()
        .map(|(i, &v)| (format!("p{i}"), v))
        .collect()
}

proptest! {
    #[test]
    fn expressions_evaluate_to_probabilities(
        expr in expr_strategy(),
        values in prop::collection::vec(0.0f64..=1.0, 5)
    ) {
        prop_assume!(expr.validate().is_ok());
        let v = expr.eval(&env(&values)).unwrap();
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v), "value {v}");
    }

    #[test]
    fn dual_derivative_matches_finite_difference(
        expr in expr_strategy(),
        values in prop::collection::vec(0.05f64..=0.95, 5),
        which in 0usize..5
    ) {
        prop_assume!(expr.validate().is_ok());
        let name = format!("p{which}");
        let e = env(&values);
        let (_, exact) = expr.eval_partial(&e, &name).unwrap();
        let h = 1e-6;
        let mut up = e.clone();
        up.insert(name.clone(), values[which] + h);
        let mut down = e.clone();
        down.insert(name.clone(), values[which] - h);
        let fd = (expr.eval(&up).unwrap() - expr.eval(&down).unwrap()) / (2.0 * h);
        prop_assert!((exact - fd).abs() < 1e-5, "exact {exact} vs fd {fd}");
    }

    #[test]
    fn expressions_monotone_in_parameters(
        expr in expr_strategy(),
        values in prop::collection::vec(0.05f64..=0.9, 5),
        which in 0usize..5
    ) {
        // Products, parallels, k-of-n and non-negative mixtures of
        // monotone pieces are monotone; complements flip the sign locally
        // but the derivative test above covers gradients — here restrict
        // to complement-free expressions.
        fn has_complement(e: &AvailExpr) -> bool {
            match e {
                AvailExpr::Complement(_) => true,
                AvailExpr::Product(ch) | AvailExpr::Parallel(ch) | AvailExpr::KOfN(_, ch) => {
                    ch.iter().any(has_complement)
                }
                AvailExpr::WeightedSum(terms) => terms.iter().any(|(_, c)| has_complement(c)),
                _ => false,
            }
        }
        prop_assume!(expr.validate().is_ok());
        prop_assume!(!has_complement(&expr));
        let base = expr.eval(&env(&values)).unwrap();
        let mut bumped = values.clone();
        bumped[which] = (bumped[which] + 0.05).min(1.0);
        let after = expr.eval(&env(&bumped)).unwrap();
        prop_assert!(after >= base - 1e-10);
    }

    #[test]
    fn dual_arithmetic_is_a_derivation(
        a in -5.0f64..5.0,
        b in -5.0f64..5.0,
        x in 0.1f64..3.0
    ) {
        // (a + b x)(a - b x) has derivative -2 b^2 x.
        let xv = Dual::variable(x);
        let av = Dual::constant(a);
        let bv = Dual::constant(b);
        let y = (av + bv * xv) * (av - bv * xv);
        prop_assert!((y.derivative() + 2.0 * b * b * x).abs() < 1e-9);
        prop_assert!((y.value() - (a * a - b * b * x * x)).abs() < 1e-9);
    }

    #[test]
    fn layered_interaction_diagrams_normalize(
        widths in prop::collection::vec(1usize..4, 1..4),
        seedp in 0.1f64..0.9
    ) {
        // Build a layered DAG: Begin -> layer 0 -> ... -> End, each stage
        // branching to the next layer or End.
        let mut d = InteractionDiagram::new();
        let mut layers: Vec<Vec<uavail_core::NodeId>> = Vec::new();
        for (li, &w) in widths.iter().enumerate() {
            let layer: Vec<_> = (0..w)
                .map(|si| d.add_stage(vec![format!("svc{li}_{si}")]))
                .collect();
            layers.push(layer);
        }
        // Begin spreads uniformly over layer 0.
        let w0 = layers[0].len();
        for &s in &layers[0] {
            d.connect_begin(s, 1.0 / w0 as f64).unwrap();
        }
        for li in 0..layers.len() {
            let next: Option<&Vec<_>> = layers.get(li + 1);
            for &s in &layers[li] {
                match next {
                    Some(next_layer) => {
                        let to_end = seedp;
                        d.connect_end(s, to_end).unwrap();
                        let share = (1.0 - to_end) / next_layer.len() as f64;
                        for &n in next_layer {
                            d.connect(s, n, share).unwrap();
                        }
                    }
                    None => d.connect_end(s, 1.0).unwrap(),
                }
            }
        }
        let scenarios = d.scenarios().unwrap();
        let total: f64 = scenarios.iter().map(|(p, _)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
        // Compiling and evaluating with all services perfect gives 1.
        let expr = d.compile().unwrap();
        let mut full = HashMap::new();
        for p in expr.parameters() {
            full.insert(p, 1.0);
        }
        prop_assert!((expr.eval(&full).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn simplify_preserves_value_and_shrinks(
        expr in expr_strategy(),
        values in prop::collection::vec(0.0f64..=1.0, 5)
    ) {
        prop_assume!(expr.validate().is_ok());
        let simplified = expr.simplify();
        let e = env(&values);
        let before = expr.eval(&e).unwrap();
        let after = simplified.eval(&e).unwrap();
        prop_assert!((before - after).abs() < 1e-12, "{before} vs {after}");
        prop_assert!(simplified.node_count() <= expr.node_count());
    }

    #[test]
    fn hierarchical_sensitivity_chain_rule(
        a in 0.1f64..0.99,
        b in 0.1f64..0.99
    ) {
        // user = svc^1 where svc = a * b: d(user)/d(a) must equal b.
        let mut m = HierarchicalModel::new();
        m.define_value("a", Level::Resource, a).unwrap();
        m.define_value("b", Level::Resource, b).unwrap();
        m.define_expr(
            "svc",
            Level::Service,
            AvailExpr::product(vec![AvailExpr::param("a"), AvailExpr::param("b")]),
        )
        .unwrap();
        m.define_expr("user", Level::User, AvailExpr::param("svc")).unwrap();
        let d = m.sensitivity("user", "a").unwrap();
        prop_assert!((d - b).abs() < 1e-12);
    }
}

// --- Parallel-evaluation equivalence -----------------------------------

fn exec(threads: usize, on_failure: uavail_core::par::OnFailure) -> uavail_core::par::Exec {
    uavail_core::par::Exec {
        threads,
        on_failure,
    }
}

proptest! {
    /// `par_map` against the serial map, over random failure and panic
    /// positions and thread counts. Under `Abort` the collected outcome is
    /// exactly the serial map's, lowest-index error included; under
    /// `Report` every item is evaluated and each outcome is the one the
    /// item produces on its own.
    #[test]
    fn par_map_abort_equals_serial_and_report_evaluates_every_item(
        len in 0usize..80,
        threads in 1usize..9,
        fail_at in prop::collection::vec(0usize..80, 0..4),
        panic_at in prop::collection::vec(0usize..80, 0..3)
    ) {
        use uavail_core::par::{par_map, OnFailure};
        use uavail_core::CoreError;
        let items: Vec<usize> = (0..len).collect();
        let f = |&i: &usize| -> Result<f64, CoreError> {
            if panic_at.contains(&i) {
                panic!("property panic at {i}");
            }
            if fail_at.contains(&i) {
                return Err(CoreError::Undefined { name: format!("item-{i}") });
            }
            Ok((i as f64 * 0.37).sin() / (1.0 + i as f64))
        };
        // The serial reference, with a caught panic typed exactly as the
        // map types it.
        let own = |i: usize| -> Result<f64, CoreError> {
            if panic_at.contains(&i) {
                Err(CoreError::WorkerPanicked { index: i, payload: format!("property panic at {i}") })
            } else {
                f(&i)
            }
        };
        let serial: Result<Vec<f64>, CoreError> = items.iter().map(|&i| own(i)).collect();

        let aborted = par_map(&items, &exec(threads, OnFailure::Abort), || (), |(), i| f(i));
        let first_failure = items.iter().position(|&i| own(i).is_err());
        prop_assert_eq!(aborted.len(), first_failure.map_or(len, |k| k + 1));
        let collected: Result<Vec<f64>, CoreError> = aborted.into_iter().collect();
        match (&serial, &collected) {
            (Ok(s), Ok(p)) => {
                prop_assert_eq!(s.len(), p.len());
                for (a, b) in s.iter().zip(p) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (s, p) => prop_assert!(false, "serial {:?} vs abort {:?}", s, p),
        }

        let reported = par_map(&items, &exec(threads, OnFailure::Report), || (), |(), i| f(i));
        prop_assert_eq!(reported.len(), len);
        for (i, outcome) in reported.into_iter().enumerate() {
            match (own(i), outcome) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "item {}: own {:?} vs report {:?}", i, a, b),
            }
        }
    }

    /// `sweep` is observationally identical for any thread count and
    /// failure pattern: same points bit for bit on success, the same
    /// `EvalAt` error otherwise.
    #[test]
    fn sweep_parallel_equals_sweep(
        values in prop::collection::vec(-100.0f64..100.0, 0..60),
        threads in 1usize..9,
        fail_above in 0.0f64..120.0
    ) {
        use uavail_core::par::OnFailure;
        let f = |(): &mut (), x: f64| -> Result<f64, uavail_core::CoreError> {
            if x.abs() > fail_above {
                Err(uavail_core::CoreError::InvalidProbability {
                    context: "property sweep".into(),
                    value: x,
                })
            } else {
                Ok((x * 0.1).sin() * (x * 0.01).exp())
            }
        };
        let serial = uavail_core::sweep::sweep(&values, &exec(1, OnFailure::Abort), || (), f);
        let parallel =
            uavail_core::sweep::sweep(&values, &exec(threads, OnFailure::Abort), || (), f);
        match (serial, parallel) {
            (Ok(s), Ok(p)) => {
                prop_assert_eq!(s.points.len(), p.points.len());
                for (a, b) in s.points.iter().zip(&p.points) {
                    prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
                    prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (s, p) => prop_assert!(false, "serial {:?} vs parallel {:?}", s, p),
        }
    }

}
