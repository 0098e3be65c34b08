//! User-level model — Table 1 and equation (10) of the paper.
//!
//! Two implementations of the user-perceived availability are provided and
//! tested against each other:
//!
//! * [`equation_10`] — the paper's closed form, transcribed literally;
//! * [`user_availability`] — a *generic* composition that, for every user
//!   scenario, enumerates the joint function-scenario combinations and
//!   multiplies the availabilities of the **distinct** services used. This
//!   performs mechanically the "careful analysis of the dependencies …
//!   due to shared services" the paper calls for, and reproduces
//!   equation (10) exactly (shared services counted once; Browse's
//!   conditional availability collapsing to 1 in Search scenarios).

use std::collections::HashMap;

use uavail_profile::{Scenario, ScenarioCategory, ScenarioTable};

use crate::context::EvalContext;
use crate::functions::{self, TaFunction};
use crate::{TaParameters, TravelError};

/// A named user class: an operational profile in scenario-table form.
#[derive(Debug, Clone, PartialEq)]
pub struct UserClass {
    name: String,
    table: ScenarioTable,
}

impl UserClass {
    /// Wraps a validated scenario table under a display name.
    pub fn new(name: impl Into<String>, table: ScenarioTable) -> Self {
        UserClass {
            name: name.into(),
            table,
        }
    }

    /// The class name (`"A"` or `"B"` for the paper's profiles).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scenario table.
    pub fn table(&self) -> &ScenarioTable {
        &self.table
    }
}

fn scenario(label: &str, functions: &[TaFunction], percent: f64) -> Scenario {
    Scenario::new(
        label,
        functions.iter().map(|f| f.name()).collect::<Vec<_>>(),
        percent / 100.0,
    )
}

/// The twelve Table 1 scenarios with a class-specific probability column.
fn table1(percentages: [f64; 12]) -> ScenarioTable {
    use TaFunction::{Book, Browse, Home, Pay, Search};
    let rows: [(&str, &[TaFunction]); 12] = [
        ("St-Ho-Ex", &[Home]),
        ("St-Br-Ex", &[Browse]),
        ("St-{Ho-Br}*-Ex", &[Home, Browse]),
        ("St-Ho-Se-Ex", &[Home, Search]),
        ("St-Br-Se-Ex", &[Browse, Search]),
        ("St-{Ho-Br}*-Se-Ex", &[Home, Browse, Search]),
        ("St-Ho-{Se-Bo}*-Ex", &[Home, Search, Book]),
        ("St-Br-{Se-Bo}*-Ex", &[Browse, Search, Book]),
        ("St-{Ho-Br}*-{Se-Bo}*-Ex", &[Home, Browse, Search, Book]),
        ("St-Ho-{Se-Bo}*-Pa-Ex", &[Home, Search, Book, Pay]),
        ("St-Br-{Se-Bo}*-Pa-Ex", &[Browse, Search, Book, Pay]),
        (
            "St-{Ho-Br}*-{Se-Bo}*-Pa-Ex",
            &[Home, Browse, Search, Book, Pay],
        ),
    ];
    let scenarios = rows
        .iter()
        .zip(percentages)
        .map(|((label, fns), pct)| scenario(label, fns, pct))
        .collect();
    ScenarioTable::new(scenarios).expect("Table 1 percentages sum to 100")
}

/// The paper's class A profile (information seekers; Table 1, column A).
pub fn class_a() -> UserClass {
    UserClass::new(
        "A",
        table1([
            10.0, 26.7, 11.3, 18.4, 12.2, 7.6, 3.0, 2.0, 1.3, 3.6, 2.4, 1.5,
        ]),
    )
}

/// The paper's class B profile (buyers; Table 1, column B).
pub fn class_b() -> UserClass {
    UserClass::new(
        "B",
        table1([
            10.0, 6.6, 4.2, 13.9, 20.4, 9.7, 4.7, 6.9, 3.3, 6.4, 9.4, 4.5,
        ]),
    )
}

/// The function a scenario names, or an [`undefined`] error naming it.
pub(crate) fn parse_function(name: &str) -> Result<TaFunction, TravelError> {
    TaFunction::all()
        .into_iter()
        .find(|f| f.name() == name)
        .ok_or_else(|| undefined(name))
}

/// The nine services in `str` order: bit `i` of a [`Term`]'s service set
/// stands for `SERVICES[i]`, so multiplying a term's services in
/// ascending bit order multiplies them in the order of their sorted names.
const SERVICES: [&str; 9] = [
    functions::SERVICE_APP,
    functions::SERVICE_CAR,
    functions::SERVICE_DB,
    functions::SERVICE_FLIGHT,
    functions::SERVICE_HOTEL,
    functions::SERVICE_PAYMENT,
    functions::SERVICE_WEB,
    functions::SERVICE_LAN,
    functions::SERVICE_NET,
];

/// One term of a scenario's service expansion: the probability of one
/// combination of its functions' path choices, and the distinct services
/// that combination uses, as bits over [`SERVICES`].
pub(crate) type Term = (f64, u16);

fn undefined(name: &str) -> TravelError {
    TravelError::Core(uavail_core::CoreError::Undefined { name: name.into() })
}

/// The [`SERVICES`] bits of a function path's service names.
fn service_mask(names: &[String]) -> Result<u16, TravelError> {
    names.iter().try_fold(0, |mask, name| {
        let bit = SERVICES
            .iter()
            .position(|s| s == name)
            .ok_or_else(|| undefined(name))?;
        Ok(mask | 1 << bit)
    })
}

/// The caller's service availabilities looked up once, by [`SERVICES`] bit.
fn resolve(services: &HashMap<String, f64>) -> [Option<f64>; SERVICES.len()] {
    SERVICES.map(|name| services.get(name).copied())
}

/// Availability of one user scenario given per-service availabilities:
/// the expectation, over the functions' internal path choices, of the
/// probability that every *distinct* service used is available.
///
/// # Errors
///
/// Propagates diagram failures and missing service availabilities.
pub fn scenario_availability(
    scenario: &Scenario,
    params: &TaParameters,
    services: &HashMap<String, f64>,
) -> Result<f64, TravelError> {
    replay(&expand_scenario(scenario, params)?, &resolve(services))
}

/// The Cartesian service expansion of one scenario: a [`Term`] per
/// combination of its functions' path choices, in depth-first pop order.
fn expand_scenario(scenario: &Scenario, params: &TaParameters) -> Result<Vec<Term>, TravelError> {
    let mut per_function: Vec<Vec<Term>> = Vec::with_capacity(scenario.functions.len());
    for fname in &scenario.functions {
        let function = parse_function(fname)?;
        per_function.push(
            functions::function_scenarios(function, params)?
                .iter()
                .map(|(p, svcs)| Ok((*p, service_mask(svcs)?)))
                .collect::<Result<_, TravelError>>()?,
        );
    }
    let mut terms = Vec::new();
    let mut stack: Vec<(usize, f64, u16)> = vec![(0, 1.0, 0)];
    while let Some((depth, prob, used)) = stack.pop() {
        if depth == per_function.len() {
            terms.push((prob, used));
            continue;
        }
        for &(p, svcs) in &per_function[depth] {
            stack.push((depth + 1, prob * p, used | svcs));
        }
    }
    Ok(terms)
}

/// `Σ_terms p · Π_services A(s)` over an [`expand_scenario`] expansion, in
/// its order and with each term's services in ascending bit order, so a
/// memoized expansion reproduces a fresh one bit for bit.
fn replay(terms: &[Term], services: &[Option<f64>; SERVICES.len()]) -> Result<f64, TravelError> {
    let mut total = 0.0;
    for &(prob, mut svcs) in terms {
        let mut product = prob;
        while svcs != 0 {
            let bit = svcs.trailing_zeros() as usize;
            svcs &= svcs - 1;
            product *= services[bit].ok_or_else(|| undefined(SERVICES[bit]))?;
        }
        total += product;
    }
    Ok(total)
}

/// [`user_availability`] backed by `ctx`'s scenario-expansion memo: an
/// expansion depends only on the scenario's functions and the profile
/// parameters, so it is computed once and replayed, bit for bit.
///
/// # Errors
///
/// Propagates scenario-availability failures.
pub fn user_availability_with(
    class: &UserClass,
    params: &TaParameters,
    services: &HashMap<String, f64>,
    ctx: &mut EvalContext,
) -> Result<f64, TravelError> {
    let services = resolve(services);
    let profile = EvalContext::profile_key(params);
    let mut total = 0.0;
    for s in class.table.scenarios() {
        let key = EvalContext::functions_key(&s.functions).map(|f| (f, profile));
        let a = match key.as_ref().and_then(|k| ctx.scenario_memo.get(k)) {
            Some(terms) => replay(terms, &services)?,
            None => {
                let terms = expand_scenario(s, params)?;
                let a = replay(&terms, &services);
                if let Some(key) = key {
                    ctx.remember_scenario(key, terms);
                }
                a?
            }
        };
        total += s.probability * a;
    }
    Ok(total)
}

/// User-perceived availability for a class: `Σ_i π_i · A(scenario_i)`
/// with [`scenario_availability`] — the generic composition.
///
/// # Errors
///
/// Propagates scenario-availability failures.
pub fn user_availability(
    class: &UserClass,
    params: &TaParameters,
    services: &HashMap<String, f64>,
) -> Result<f64, TravelError> {
    let mut total = 0.0;
    for s in class.table.scenarios() {
        total += s.probability * scenario_availability(s, params, services)?;
    }
    Ok(total)
}

/// The paper's equation (10), transcribed literally.
///
/// # Errors
///
/// [`TravelError::Core`] when a service availability is missing from the
/// environment.
pub fn equation_10(
    class: &UserClass,
    params: &TaParameters,
    services: &HashMap<String, f64>,
) -> Result<f64, TravelError> {
    let get = |name: &str| services.get(name).copied().ok_or_else(|| undefined(name));
    let a_net = get(functions::SERVICE_NET)?;
    let a_lan = get(functions::SERVICE_LAN)?;
    let a_ws = get(functions::SERVICE_WEB)?;
    let a_as = get(functions::SERVICE_APP)?;
    let a_ds = get(functions::SERVICE_DB)?;
    let a_f = get(functions::SERVICE_FLIGHT)?;
    let a_h = get(functions::SERVICE_HOTEL)?;
    let a_c = get(functions::SERVICE_CAR)?;
    let a_ps = get(functions::SERVICE_PAYMENT)?;

    let table = class.table();
    let pi1 =
        table.probability_where(|s| s.functions.len() == 1 && s.invokes(TaFunction::Home.name()));
    let cats = table.by_category(
        TaFunction::Search.name(),
        TaFunction::Book.name(),
        TaFunction::Pay.name(),
    );
    let sc1 = cats
        .get(&ScenarioCategory::Sc1InformationOnly)
        .copied()
        .unwrap_or(0.0);
    let pi23 = sc1 - pi1;
    let sc23 = cats
        .get(&ScenarioCategory::Sc2SearchOnly)
        .copied()
        .unwrap_or(0.0)
        + cats
            .get(&ScenarioCategory::Sc3BookWithoutPay)
            .copied()
            .unwrap_or(0.0);
    let sc4 = cats.get(&ScenarioCategory::Sc4Pay).copied().unwrap_or(0.0);

    let browse_bracket =
        params.q23 + a_as * (params.q24 * params.q45 + params.q24 * params.q47 * a_ds);
    let reservation = a_as * a_ds * a_f * a_h * a_c;
    Ok(a_net * a_lan * a_ws * (pi1 + pi23 * browse_bracket + reservation * (sc23 + sc4 * a_ps)))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;
    use uavail_core::CoreError;

    use super::*;
    use crate::functions::{
        SERVICE_APP, SERVICE_CAR, SERVICE_DB, SERVICE_FLIGHT, SERVICE_HOTEL, SERVICE_LAN,
        SERVICE_NET, SERVICE_PAYMENT, SERVICE_WEB,
    };

    fn env() -> HashMap<String, f64> {
        let mut env = HashMap::new();
        env.insert(SERVICE_NET.to_string(), 0.9966);
        env.insert(SERVICE_LAN.to_string(), 0.9966);
        env.insert(SERVICE_WEB.to_string(), 0.999995587);
        env.insert(SERVICE_APP.to_string(), 0.999984);
        env.insert(SERVICE_DB.to_string(), 0.98998416);
        env.insert(SERVICE_FLIGHT.to_string(), 0.9);
        env.insert(SERVICE_HOTEL.to_string(), 0.9);
        env.insert(SERVICE_CAR.to_string(), 0.9);
        env.insert(SERVICE_PAYMENT.to_string(), 0.9);
        env
    }

    #[test]
    fn table1_probabilities_sum_to_one() {
        for class in [class_a(), class_b()] {
            let total: f64 = class
                .table()
                .scenarios()
                .iter()
                .map(|s| s.probability)
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "class {}", class.name());
            assert_eq!(class.table().len(), 12);
        }
    }

    #[test]
    fn class_b_buys_more() {
        // The paper: ~20% of class B sessions pay vs ~7.5% for class A.
        let pay = |class: &UserClass| class.table().probability_where(|s| s.invokes("Pay"));
        assert!((pay(&class_b()) - 0.203).abs() < 1e-9);
        assert!((pay(&class_a()) - 0.075).abs() < 1e-9);
    }

    #[test]
    fn class_b_uses_reservation_systems_more() {
        // 80% of class B sessions invoke Search/Book/Pay vs 50% for A.
        let heavy = |class: &UserClass| class.table().probability_where(|s| s.invokes("Search"));
        assert!((heavy(&class_b()) - 0.792).abs() < 1e-9);
        assert!((heavy(&class_a()) - 0.52).abs() < 1e-9);
    }

    #[test]
    fn generic_composition_matches_equation_10() {
        let params = TaParameters::paper_defaults();
        let env = env();
        for class in [class_a(), class_b()] {
            let generic = user_availability(&class, &params, &env).unwrap();
            let closed = equation_10(&class, &params, &env).unwrap();
            assert!(
                (generic - closed).abs() < 1e-12,
                "class {}: generic {generic} vs eq10 {closed}",
                class.name()
            );
        }
    }

    #[test]
    fn scenario_availability_home_only() {
        let params = TaParameters::paper_defaults();
        let env = env();
        let class = class_a();
        let s = &class.table().scenarios()[0]; // St-Ho-Ex
        let a = scenario_availability(s, &params, &env).unwrap();
        let expected = 0.9966 * 0.9966 * 0.999995587;
        assert!((a - expected).abs() < 1e-12);
    }

    #[test]
    fn search_scenarios_unaffected_by_browse_branching() {
        // In a {Browse, Search} scenario the Browse bracket collapses to 1.
        let params = TaParameters::paper_defaults();
        let env = env();
        let table = class_a();
        let with_browse = table
            .table()
            .scenarios()
            .iter()
            .find(|s| s.label == "St-Br-Se-Ex")
            .unwrap();
        let without_browse = table
            .table()
            .scenarios()
            .iter()
            .find(|s| s.label == "St-Ho-Se-Ex")
            .unwrap();
        let a1 = scenario_availability(with_browse, &params, &env).unwrap();
        let a2 = scenario_availability(without_browse, &params, &env).unwrap();
        assert!((a1 - a2).abs() < 1e-15);
    }

    #[test]
    fn class_a_availability_exceeds_class_b() {
        // Buyers touch more services, so class B perceives lower
        // availability (Table 8's consistent ordering).
        let params = TaParameters::paper_defaults();
        let env = env();
        let a = user_availability(&class_a(), &params, &env).unwrap();
        let b = user_availability(&class_b(), &params, &env).unwrap();
        assert!(a > b, "A {a} vs B {b}");
    }

    #[test]
    fn memoized_user_availability_is_bit_identical() {
        let params = TaParameters::paper_defaults();
        let env = env();
        let mut ctx = EvalContext::new();
        for class in [class_a(), class_b()] {
            let cold = user_availability(&class, &params, &env).unwrap();
            // First call builds the expansion memo; later calls replay it.
            for _ in 0..3 {
                let warm = user_availability_with(&class, &params, &env, &mut ctx).unwrap();
                assert_eq!(warm.to_bits(), cold.to_bits());
            }
        }
    }

    #[test]
    fn memoized_path_still_reports_missing_services() {
        let params = TaParameters::paper_defaults();
        let mut bad_env = env();
        bad_env.remove(SERVICE_DB);
        let mut ctx = EvalContext::new();
        // The first call expands and stores; the second replays the memo.
        for _ in 0..2 {
            let err = user_availability_with(&class_a(), &params, &bad_env, &mut ctx).unwrap_err();
            assert!(
                matches!(&err, TravelError::Core(CoreError::Undefined { name }) if name == SERVICE_DB),
                "{err}"
            );
        }
    }

    #[test]
    fn distinct_function_lists_get_distinct_keys() {
        // Every list of up to four functions, repeats and orders included.
        let names = TaFunction::all().map(|f| f.name().to_string());
        let mut lists: Vec<Vec<String>> = vec![vec![]];
        for len in 1..=4 {
            let longer: Vec<Vec<String>> = lists
                .iter()
                .filter(|l| l.len() == len - 1)
                .flat_map(|l| {
                    names.iter().map(move |n| {
                        let mut l = l.clone();
                        l.push(n.clone());
                        l
                    })
                })
                .collect();
            lists.extend(longer);
        }
        assert_eq!(lists.len(), 1 + 5 + 25 + 125 + 625);
        let keys: std::collections::HashSet<u64> = lists
            .iter()
            .map(|l| EvalContext::functions_key(l).expect("packs"))
            .collect();
        assert_eq!(keys.len(), lists.len());

        let homes = |n| vec!["Home".to_string(); n];
        assert!(EvalContext::functions_key(&homes(21)).is_some());
        assert_eq!(EvalContext::functions_key(&homes(22)), None);
        assert_eq!(EvalContext::functions_key(&["Checkout".to_string()]), None);
    }

    #[test]
    fn unpackable_lists_are_expanded_without_being_stored() {
        let params = TaParameters::paper_defaults();
        let env = env();
        let long: Vec<&str> = std::iter::repeat_n("Home", 21).chain(["Browse"]).collect();
        let class = UserClass::new(
            "long",
            ScenarioTable::new(vec![
                Scenario::new("long", long, 0.5),
                Scenario::new("short", vec!["Browse"], 0.5),
            ])
            .unwrap(),
        );
        let mut ctx = EvalContext::new();
        for _ in 0..2 {
            let warm = user_availability_with(&class, &params, &env, &mut ctx).unwrap();
            let reference = reference_user(&class, &params, &env).unwrap();
            assert_eq!(warm.to_bits(), reference.to_bits());
            assert_eq!(ctx.scenario_memo.len(), 1);
        }
        let bad = UserClass::new(
            "bad",
            ScenarioTable::new(vec![Scenario::new("bad", vec!["Checkout"], 1.0)]).unwrap(),
        );
        assert!(user_availability_with(&bad, &params, &env, &mut ctx).is_err());
        assert_eq!(ctx.scenario_memo.len(), 1);
    }

    /// The string expansion the bitmask terms replaced: each term's
    /// distinct services as a sorted set of names, each looked up by name.
    fn reference_scenario(
        s: &Scenario,
        params: &TaParameters,
        services: &HashMap<String, f64>,
    ) -> Result<f64, TravelError> {
        let mut per_function = Vec::new();
        for fname in &s.functions {
            per_function.push(functions::function_scenarios(
                parse_function(fname)?,
                params,
            )?);
        }
        let mut total = 0.0;
        let mut stack: Vec<(usize, f64, BTreeSet<String>)> = vec![(0, 1.0, BTreeSet::new())];
        while let Some((depth, prob, used)) = stack.pop() {
            if depth == per_function.len() {
                let mut product = prob;
                for svc in &used {
                    product *= services.get(svc).copied().ok_or_else(|| undefined(svc))?;
                }
                total += product;
                continue;
            }
            for (p, svcs) in &per_function[depth] {
                let mut next = used.clone();
                next.extend(svcs.iter().cloned());
                stack.push((depth + 1, prob * p, next));
            }
        }
        Ok(total)
    }

    fn reference_user(
        class: &UserClass,
        params: &TaParameters,
        services: &HashMap<String, f64>,
    ) -> Result<f64, TravelError> {
        let mut total = 0.0;
        for s in class.table().scenarios() {
            total += s.probability * reference_scenario(s, params, services)?;
        }
        Ok(total)
    }

    /// A class over one drawn function list `l`: `l`, `l` reversed, `l`
    /// twice over and `l`'s first function alone, a quarter each.
    fn custom_class(picks: &[usize]) -> UserClass {
        let all = TaFunction::all();
        let l: Vec<&str> = picks.iter().map(|&i| all[i].name()).collect();
        let reversed: Vec<&str> = l.iter().rev().copied().collect();
        let twice: Vec<&str> = l.iter().chain(&l).copied().collect();
        UserClass::new(
            "custom",
            ScenarioTable::new(vec![
                Scenario::new("l", l.clone(), 0.25),
                Scenario::new("reversed", reversed, 0.25),
                Scenario::new("twice", twice, 0.25),
                Scenario::new("first", vec![l[0]], 0.25),
            ])
            .unwrap(),
        )
    }

    proptest! {
        #[test]
        fn bitmask_expansion_matches_the_string_reference(
            q in (0.0f64..=1.0, 0.0f64..=1.0),
            a in prop::collection::vec(0.0f64..=1.0, 9),
            picks in prop::collection::vec(0usize..5, 1..5),
        ) {
            let params = TaParameters {
                q23: q.0,
                q24: 1.0 - q.0,
                q45: q.1,
                q47: 1.0 - q.1,
                ..TaParameters::paper_defaults()
            };
            prop_assert!(params.validate().is_ok(), "{params:?}");
            let env: HashMap<String, f64> = SERVICES
                .iter()
                .zip(&a)
                .map(|(name, &a)| (name.to_string(), a))
                .collect();
            let mut ctx = EvalContext::new();
            // Twice round, so the second pass replays every stored expansion.
            for _ in 0..2 {
                for class in [class_a(), class_b(), custom_class(&picks)] {
                    let reference = reference_user(&class, &params, &env).unwrap();
                    let warm = user_availability_with(&class, &params, &env, &mut ctx).unwrap();
                    let cold = user_availability(&class, &params, &env).unwrap();
                    let name = class.name();
                    prop_assert_eq!(warm.to_bits(), reference.to_bits(), "class {name}: memo {warm} vs reference {reference}");
                    prop_assert_eq!(cold.to_bits(), reference.to_bits(), "class {name}: cold {cold} vs reference {reference}");
                }
            }
        }
    }

    #[test]
    fn missing_service_is_reported() {
        let params = TaParameters::paper_defaults();
        let mut bad_env = env();
        bad_env.remove(SERVICE_DB);
        assert!(user_availability(&class_a(), &params, &bad_env).is_err());
        assert!(equation_10(&class_a(), &params, &bad_env).is_err());
    }

    #[test]
    fn paper_table8_class_a_single_reservation_system() {
        // Table 8 row N=1, class A: 0.84235. Our model reproduces it to
        // ~1e-4 absolute (the paper's own intermediate values are printed
        // rounded).
        let params = TaParameters::paper_defaults().with_reservation_systems(1);
        let env = env(); // env already uses A(system) = 0.9, N = 1
        let a = user_availability(&class_a(), &params, &env).unwrap();
        assert!((a - 0.84235).abs() < 2e-4, "got {a}, paper 0.84235");
    }
}
