//! The Figure 2 operational-profile graph: structure, construction and
//! fitting.
//!
//! The paper presents the profile graph (Figure 2) but publishes only the
//! derived scenario probabilities (Table 1). This module closes the loop:
//! it encodes the Figure 2 *structure* — which transitions exist — and fits
//! the transition probabilities `p_ij` to a target scenario table by
//! direct search, recovering a concrete graph whose exact scenario-class
//! probabilities (computed by `uavail-profile`'s taboo-chain algorithm)
//! match the published table.

use rand::Rng;

use uavail_profile::{ProfileGraph, ScenarioTable};

use crate::functions::TaFunction;
use crate::TravelError;

/// Free transition probabilities of the Figure 2 graph.
///
/// The structure is fixed: Start → {Home, Browse}; Home → {Browse, Search,
/// Exit}; Browse → {Home, Search, Exit}; Search → {Book, Exit};
/// Book → {Search, Pay, Exit}; Pay → Exit. Each node's outgoing
/// probabilities must sum to one; the *last* alternative of each node is
/// implied (`1 − rest`), so the parameter vector has 9 free entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Probabilities {
    /// `P(Start → Home)`; Start → Browse is the complement.
    pub start_home: f64,
    /// `P(Home → Browse)`.
    pub home_browse: f64,
    /// `P(Home → Search)`; Home → Exit is the complement.
    pub home_search: f64,
    /// `P(Browse → Home)`.
    pub browse_home: f64,
    /// `P(Browse → Search)`; Browse → Exit is the complement.
    pub browse_search: f64,
    /// `P(Search → Book)`; Search → Exit is the complement.
    pub search_book: f64,
    /// `P(Book → Search)` (the `{Se-Bo}*` cycle).
    pub book_search: f64,
    /// `P(Book → Pay)`; Book → Exit is the complement.
    pub book_pay: f64,
    /// Unused degree of freedom kept for future structure variants.
    pub reserved: f64,
}

impl Fig2Probabilities {
    /// Validates the node-level constraints.
    ///
    /// # Errors
    ///
    /// [`TravelError::InvalidParameter`], naming the offending field or
    /// node sum (`"home_browse + home_search"`), when any probability is
    /// outside `[0, 1]` or a node's outgoing probabilities exceed one.
    pub fn validate(&self) -> Result<(), TravelError> {
        let entries = [
            ("start_home", self.start_home, 1.0),
            (
                "home_browse + home_search",
                self.home_browse + self.home_search,
                1.0,
            ),
            (
                "browse_home + browse_search",
                self.browse_home + self.browse_search,
                1.0,
            ),
            ("search_book", self.search_book, 1.0),
            (
                "book_search + book_pay",
                self.book_search + self.book_pay,
                1.0,
            ),
        ];
        for (name, v, cap) in entries {
            if !(v.is_finite() && (0.0..=cap + 1e-12).contains(&v)) {
                return Err(TravelError::InvalidParameter {
                    name,
                    value: v,
                    requirement: "each node's outgoing probabilities within [0, 1]",
                });
            }
        }
        for (name, v) in [
            ("start_home", self.start_home),
            ("home_browse", self.home_browse),
            ("home_search", self.home_search),
            ("browse_home", self.browse_home),
            ("browse_search", self.browse_search),
            ("search_book", self.search_book),
            ("book_search", self.book_search),
            ("book_pay", self.book_pay),
        ] {
            if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
                return Err(TravelError::InvalidParameter {
                    name,
                    value: v,
                    requirement: "within [0, 1]",
                });
            }
        }
        Ok(())
    }

    /// Builds the concrete profile graph.
    ///
    /// # Errors
    ///
    /// Propagates validation failures from this type and from
    /// [`ProfileGraph`].
    pub fn to_graph(&self) -> Result<ProfileGraph, TravelError> {
        self.validate()?;
        let mut g = ProfileGraph::new(
            TaFunction::all()
                .iter()
                .map(|f| f.name())
                .collect::<Vec<_>>(),
        )?;
        let eps_free = |v: f64| v.clamp(0.0, 1.0);
        g.set_start_transition("Home", eps_free(self.start_home))?;
        g.set_start_transition("Browse", eps_free(1.0 - self.start_home))?;
        g.set_transition("Home", Some("Browse"), eps_free(self.home_browse))?;
        g.set_transition("Home", Some("Search"), eps_free(self.home_search))?;
        g.set_transition(
            "Home",
            None,
            eps_free(1.0 - self.home_browse - self.home_search),
        )?;
        g.set_transition("Browse", Some("Home"), eps_free(self.browse_home))?;
        g.set_transition("Browse", Some("Search"), eps_free(self.browse_search))?;
        g.set_transition(
            "Browse",
            None,
            eps_free(1.0 - self.browse_home - self.browse_search),
        )?;
        g.set_transition("Search", Some("Book"), eps_free(self.search_book))?;
        g.set_transition("Search", None, eps_free(1.0 - self.search_book))?;
        g.set_transition("Book", Some("Search"), eps_free(self.book_search))?;
        g.set_transition("Book", Some("Pay"), eps_free(self.book_pay))?;
        g.set_transition(
            "Book",
            None,
            eps_free(1.0 - self.book_search - self.book_pay),
        )?;
        g.set_transition("Pay", None, 1.0)?;
        Ok(g.validated()?)
    }

    /// Exact scenario-class probabilities of this graph, as a map
    /// `function-set bitmask → probability` (bit order =
    /// [`TaFunction::all`]).
    ///
    /// # Errors
    ///
    /// Propagates graph failures.
    pub fn scenario_probabilities(&self) -> Result<Vec<(u32, f64)>, TravelError> {
        Ok(self.to_graph()?.scenario_class_probabilities(0.0)?)
    }
}

/// Sum of squared differences between a graph's exact scenario-class
/// probabilities and a target table.
///
/// # Errors
///
/// Propagates graph failures.
pub fn table_distance(
    probs: &Fig2Probabilities,
    target: &ScenarioTable,
) -> Result<f64, TravelError> {
    distance_to(probs, &target_masks(target))
}

/// [`table_distance`] against a target already converted by
/// [`target_masks`]. Classes the graph never generates count as 0.
fn distance_to(probs: &Fig2Probabilities, target: &[(u32, f64)]) -> Result<f64, TravelError> {
    let computed = probs.scenario_probabilities()?;
    let mut err = 0.0;
    for &(mask, pi) in target {
        let got = computed
            .iter()
            .find(|&&(m, _)| m == mask)
            .map_or(0.0, |&(_, p)| p);
        err += (got - pi).powi(2);
    }
    Ok(err)
}

fn target_masks(target: &ScenarioTable) -> Vec<(u32, f64)> {
    target
        .scenarios()
        .iter()
        .map(|s| {
            let mut mask = 0u32;
            for (bit, f) in TaFunction::all().iter().enumerate() {
                if s.invokes(f.name()) {
                    mask |= 1 << bit;
                }
            }
            (mask, s.probability)
        })
        .collect()
}

/// Fits Figure 2 transition probabilities to a target scenario table by
/// random multi-start search followed by coordinate refinement.
///
/// Returns the best-found parameters and their squared-error distance.
/// Deterministic for a fixed `rng` seed.
///
/// # Errors
///
/// Propagates graph failures.
pub fn fit_to_table<R: Rng + ?Sized>(
    rng: &mut R,
    target: &ScenarioTable,
    starts: usize,
    refinement_rounds: usize,
) -> Result<(Fig2Probabilities, f64), TravelError> {
    let sample = |rng: &mut R| -> Fig2Probabilities {
        // Draw each node's distribution from a flat Dirichlet via
        // normalized exponentials.
        let dir2 = |rng: &mut R| -> (f64, f64) {
            let a: f64 = -(1.0 - rng.random::<f64>()).ln();
            let b: f64 = -(1.0 - rng.random::<f64>()).ln();
            (a / (a + b), b / (a + b))
        };
        let dir3 = |rng: &mut R| -> (f64, f64, f64) {
            let a: f64 = -(1.0 - rng.random::<f64>()).ln();
            let b: f64 = -(1.0 - rng.random::<f64>()).ln();
            let c: f64 = -(1.0 - rng.random::<f64>()).ln();
            let z = a + b + c;
            (a / z, b / z, c / z)
        };
        let (sh, _) = dir2(rng);
        let (hb, hs, _) = dir3(rng);
        let (bh, bs, _) = dir3(rng);
        let (sb, _) = dir2(rng);
        let (bks, bkp, _) = dir3(rng);
        Fig2Probabilities {
            start_home: sh,
            home_browse: hb,
            home_search: hs,
            browse_home: bh,
            browse_search: bs,
            search_book: sb,
            book_search: bks,
            book_pay: bkp,
            reserved: 0.0,
        }
    };

    let target = target_masks(target);
    let mut best = sample(rng);
    let mut best_err = distance_to(&best, &target)?;
    for _ in 1..starts {
        let candidate = sample(rng);
        let err = distance_to(&candidate, &target)?;
        if err < best_err {
            best = candidate;
            best_err = err;
        }
    }

    // Pattern search: at each step size, descend until no move from the
    // direction set improves, then halve the step. Rounds count step
    // levels (not individual moves), so large early steps cannot exhaust
    // the budget before the fine-polish levels run. The direction set
    // contains single-coordinate moves and opposite-signed coordinate
    // pairs: each node's outgoing probabilities are sum-constrained (the
    // implied Exit complement moves with them), so the error surface has
    // diagonal valleys that axis-aligned moves alone cannot descend.
    fn coord_mut(c: &mut Fig2Probabilities, i: usize) -> &mut f64 {
        match i {
            0 => &mut c.start_home,
            1 => &mut c.home_browse,
            2 => &mut c.home_search,
            3 => &mut c.browse_home,
            4 => &mut c.browse_search,
            5 => &mut c.search_book,
            6 => &mut c.book_search,
            _ => &mut c.book_pay,
        }
    }
    let mut directions: Vec<Vec<(usize, f64)>> = Vec::new();
    for i in 0..8 {
        directions.push(vec![(i, 1.0)]);
        directions.push(vec![(i, -1.0)]);
        for j in 0..8 {
            if i != j {
                directions.push(vec![(i, 1.0), (j, -1.0)]);
            }
        }
    }
    let mut step = 0.25;
    for _ in 0..refinement_rounds {
        for _ in 0..200 {
            let mut improved = false;
            for direction in &directions {
                let mut cand = best;
                for &(coord, sign) in direction {
                    let field = coord_mut(&mut cand, coord);
                    *field = (*field + sign * step).clamp(0.0, 1.0);
                }
                // A move clamped to a no-op re-evaluates `best` itself,
                // whose error cannot beat `best_err`: skip it. Bit
                // patterns, not `==`, so -0.0 never passes for 0.0.
                if cand.validate().is_err() || param_bits(&cand) == param_bits(&best) {
                    continue;
                }
                if let Ok(err) = distance_to(&cand, &target) {
                    if err < best_err {
                        best = cand;
                        best_err = err;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        step *= 0.5;
        if step < 1e-9 {
            break;
        }
    }
    Ok((best, best_err))
}

/// Bit patterns of every field, for exact equality of parameter sets.
fn param_bits(p: &Fig2Probabilities) -> [u64; 9] {
    [
        p.start_home,
        p.home_browse,
        p.home_search,
        p.browse_home,
        p.browse_search,
        p.search_book,
        p.book_search,
        p.book_pay,
        p.reserved,
    ]
    .map(f64::to_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::{class_a, class_b};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn example() -> Fig2Probabilities {
        Fig2Probabilities {
            start_home: 0.6,
            home_browse: 0.3,
            home_search: 0.3,
            browse_home: 0.2,
            browse_search: 0.3,
            search_book: 0.3,
            book_search: 0.2,
            book_pay: 0.5,
            reserved: 0.0,
        }
    }

    #[test]
    fn validation() {
        assert!(example().validate().is_ok());
        let mut bad = example();
        bad.home_browse = 0.9; // 0.9 + 0.3 > 1
        assert!(bad.validate().is_err());
        let mut bad = example();
        bad.start_home = -0.1;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_names_the_failing_node() {
        let mut bad = example();
        bad.home_browse = 0.9; // 0.9 + 0.3 > 1
        let err = bad.validate().unwrap_err();
        assert!(
            matches!(
                err,
                TravelError::InvalidParameter {
                    name: "home_browse + home_search",
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "parameter home_browse + home_search = 1.2 must be each node's outgoing \
             probabilities within [0, 1]"
        );
        let mut bad = example();
        bad.book_pay = f64::NAN;
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("book_search + book_pay"), "{err}");
        let mut bad = example();
        bad.browse_home = -0.25; // the node sum stays within [0, 1]
        let err = bad.validate().unwrap_err();
        assert_eq!(
            err.to_string(),
            "parameter browse_home = -0.25 must be within [0, 1]"
        );
    }

    #[test]
    fn graph_produces_twelve_table1_classes() {
        let probs = example().scenario_probabilities().unwrap();
        // The Figure 2 structure generates exactly the 12 Table 1 classes.
        assert_eq!(probs.len(), 12);
        let total: f64 = probs.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-10);
        // Every class includes Home or Browse (bit 0 or 1).
        for (mask, _) in probs {
            assert!(mask & 0b11 != 0, "mask {mask:#b}");
        }
    }

    #[test]
    fn self_fit_recovers_scenarios() {
        // Fit to the table generated by a known parameter set: the fitted
        // graph's scenario probabilities must match that table closely
        // (the parameters themselves may differ — the map is many-to-one).
        let truth = example();
        let scenario_probs = truth.scenario_probabilities().unwrap();
        let g = truth.to_graph().unwrap();
        let table = uavail_profile::ScenarioTable::new(
            scenario_probs
                .iter()
                .enumerate()
                .map(|(i, (mask, p))| {
                    uavail_profile::Scenario::new(format!("s{i}"), g.mask_to_names(*mask), *p)
                })
                .collect(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let (fitted, err) = fit_to_table(&mut rng, &table, 200, 60).unwrap();
        assert!(err < 1e-5, "fit error {err}");
        let check = table_distance(&fitted, &table).unwrap();
        assert!((check - err).abs() < 1e-12);
    }

    #[test]
    fn fit_class_a_reasonably() {
        // The published Table 1 may not be exactly realizable by the
        // Figure 2 structure (the paper's columns are rounded), but the
        // fit must land close: mean absolute scenario error below 1%.
        let mut rng = StdRng::seed_from_u64(5);
        let (fitted, err) = fit_to_table(&mut rng, class_a().table(), 300, 80).unwrap();
        assert!(err < 5e-4, "squared error {err}");
        let per_scenario = (err / 12.0f64).sqrt();
        assert!(per_scenario < 0.01, "rms scenario error {per_scenario}");
        assert!(fitted.validate().is_ok());
    }

    #[test]
    fn reproduce_fit_trajectory_is_pinned() {
        // `reproduce fit`'s exact call sequence: class A then class B on
        // one rng. The printed 4-decimal table cannot catch a search path
        // that drifts by a few ulps, so every fitted parameter and both
        // errors are pinned by bit pattern.
        fn bits(p: &Fig2Probabilities, err: f64) -> [u64; 9] {
            [
                p.start_home.to_bits(),
                p.home_browse.to_bits(),
                p.home_search.to_bits(),
                p.browse_home.to_bits(),
                p.browse_search.to_bits(),
                p.search_book.to_bits(),
                p.book_search.to_bits(),
                p.book_pay.to_bits(),
                err.to_bits(),
            ]
        }
        let mut rng = StdRng::seed_from_u64(20240601);
        let (a, err_a) = fit_to_table(&mut rng, class_a().table(), 300, 80).unwrap();
        let (b, err_b) = fit_to_table(&mut rng, class_b().table(), 300, 80).unwrap();
        assert_eq!(
            bits(&a, err_a),
            [
                0x3fe00c7528aed83c,
                0x3fd34aff5f182cbe,
                0x3fdff14d5d1e523c,
                0x3fc0cc3712670dfd,
                0x3fd5514df10811ed,
                0x3fd0f5df4e549ea3,
                0x3fdad79234000000,
                0x3fdef7696f7d7952,
                0x3e96697fdd41b69f,
            ]
        );
        assert_eq!(
            bits(&b, err_b),
            [
                0x3fdfc036712a4370,
                0x3fd2d64b3c4cb730,
                0x3fe0217b4610bba2,
                0x3fc1fd0246615434,
                0x3fe74fa57ef4151f,
                0x3fdc6fe7055b8018,
                0x3fc2b17340000000,
                0x3fe1419d1128e0ee,
                0x3e788f2b811ed272,
            ]
        );
    }
}
