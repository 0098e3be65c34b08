//! Function-level models — Table 2, Figures 3–6 and Table 6 of the paper.
//!
//! Each TA function is described by an interaction diagram over services;
//! compiling the diagram yields the Table 6 availability formula. Service
//! names are shared constants so the function, service and user levels
//! compose without stringly-typed drift.

use std::collections::HashMap;

use uavail_core::{AvailExpr, InteractionDiagram};

use crate::{TaParameters, TravelError};

/// Internet-connectivity pseudo-service (`A_net`).
pub const SERVICE_NET: &str = "net";
/// LAN pseudo-service (`A_LAN`).
pub const SERVICE_LAN: &str = "lan";
/// Web service.
pub const SERVICE_WEB: &str = "WS";
/// Application service.
pub const SERVICE_APP: &str = "AS";
/// Database service.
pub const SERVICE_DB: &str = "DS";
/// External flight-reservation service.
pub const SERVICE_FLIGHT: &str = "Flight";
/// External hotel-reservation service.
pub const SERVICE_HOTEL: &str = "Hotel";
/// External car-reservation service.
pub const SERVICE_CAR: &str = "Car";
/// External payment service.
pub const SERVICE_PAYMENT: &str = "PS";

/// The five user-visible functions of the TA site (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaFunction {
    /// The home page.
    Home,
    /// Navigating the site's static/dynamic pages.
    Browse,
    /// Searching trip offers across the reservation systems.
    Search,
    /// Booking a selected trip.
    Book,
    /// Paying for booked trips.
    Pay,
}

impl TaFunction {
    /// All functions in paper order.
    pub fn all() -> [TaFunction; 5] {
        [
            TaFunction::Home,
            TaFunction::Browse,
            TaFunction::Search,
            TaFunction::Book,
            TaFunction::Pay,
        ]
    }

    /// The function's display name.
    pub fn name(&self) -> &'static str {
        match self {
            TaFunction::Home => "Home",
            TaFunction::Browse => "Browse",
            TaFunction::Search => "Search",
            TaFunction::Book => "Book",
            TaFunction::Pay => "Pay",
        }
    }
}

impl std::fmt::Display for TaFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Table 2: which services each function requires (the checkmark matrix).
pub fn service_mapping() -> Vec<(TaFunction, Vec<&'static str>)> {
    vec![
        (TaFunction::Home, vec![SERVICE_WEB]),
        (
            TaFunction::Browse,
            vec![SERVICE_WEB, SERVICE_APP, SERVICE_DB],
        ),
        (
            TaFunction::Search,
            vec![
                SERVICE_WEB,
                SERVICE_APP,
                SERVICE_DB,
                SERVICE_FLIGHT,
                SERVICE_HOTEL,
                SERVICE_CAR,
            ],
        ),
        (
            TaFunction::Book,
            vec![
                SERVICE_WEB,
                SERVICE_APP,
                SERVICE_DB,
                SERVICE_FLIGHT,
                SERVICE_HOTEL,
                SERVICE_CAR,
            ],
        ),
        (
            TaFunction::Pay,
            vec![SERVICE_WEB, SERVICE_APP, SERVICE_DB, SERVICE_PAYMENT],
        ),
    ]
}

/// Builds the interaction diagram of a function (Figures 3–6).
///
/// Every diagram's first stage carries the Internet-connectivity and LAN
/// pseudo-services, implementing the paper's rule that `A_net · A_LAN`
/// multiplies every function availability.
///
/// # Errors
///
/// Propagates parameter-validation failures (the branch probabilities
/// `q_ij` come from `params`).
pub fn interaction_diagram(
    function: TaFunction,
    params: &TaParameters,
) -> Result<InteractionDiagram, TravelError> {
    params.validate()?;
    let mut d = InteractionDiagram::new();
    match function {
        TaFunction::Home => {
            let ws = d.add_stage(vec![SERVICE_NET, SERVICE_LAN, SERVICE_WEB]);
            d.connect_begin(ws, 1.0)?;
            d.connect_end(ws, 1.0)?;
        }
        TaFunction::Browse => {
            // Figure 3: cache hit (q23), dynamic page without DB
            // (q24·q45), dynamic page with DB (q24·q47).
            let ws = d.add_stage(vec![SERVICE_NET, SERVICE_LAN, SERVICE_WEB]);
            let app = d.add_stage(vec![SERVICE_APP]);
            let db = d.add_stage(vec![SERVICE_DB]);
            d.connect_begin(ws, 1.0)?;
            d.connect_end(ws, params.q23)?;
            d.connect(ws, app, params.q24)?;
            d.connect_end(app, params.q45)?;
            d.connect(app, db, params.q47)?;
            d.connect_end(db, 1.0)?;
        }
        TaFunction::Search | TaFunction::Book => {
            // Figures 4–5: WS → AS → DS → AND-fork over the three
            // reservation services → back through AS/WS (already counted).
            let ws = d.add_stage(vec![SERVICE_NET, SERVICE_LAN, SERVICE_WEB]);
            let app = d.add_stage(vec![SERVICE_APP]);
            let db = d.add_stage(vec![SERVICE_DB]);
            let fork = d.add_stage(vec![SERVICE_FLIGHT, SERVICE_HOTEL, SERVICE_CAR]);
            d.connect_begin(ws, 1.0)?;
            d.connect(ws, app, 1.0)?;
            d.connect(app, db, 1.0)?;
            d.connect(db, fork, 1.0)?;
            d.connect_end(fork, 1.0)?;
        }
        TaFunction::Pay => {
            // Figure 6: WS → AS → payment server → DS update.
            let ws = d.add_stage(vec![SERVICE_NET, SERVICE_LAN, SERVICE_WEB]);
            let app = d.add_stage(vec![SERVICE_APP]);
            let ps = d.add_stage(vec![SERVICE_PAYMENT]);
            let db = d.add_stage(vec![SERVICE_DB]);
            d.connect_begin(ws, 1.0)?;
            d.connect(ws, app, 1.0)?;
            d.connect(app, ps, 1.0)?;
            d.connect(ps, db, 1.0)?;
            d.connect_end(db, 1.0)?;
        }
    }
    Ok(d)
}

/// Function scenarios: `(probability, services used)` for each path of the
/// function's interaction diagram.
///
/// # Errors
///
/// Propagates diagram failures.
pub fn function_scenarios(
    function: TaFunction,
    params: &TaParameters,
) -> Result<Vec<(f64, Vec<String>)>, TravelError> {
    Ok(interaction_diagram(function, params)?.scenarios()?)
}

/// The function's availability expression over service names — the
/// symbolic form of a Table 6 row.
///
/// # Errors
///
/// Propagates diagram failures.
pub fn availability_expr(
    function: TaFunction,
    params: &TaParameters,
) -> Result<AvailExpr, TravelError> {
    Ok(interaction_diagram(function, params)?.compile()?)
}

/// Evaluates a function's availability against concrete service
/// availabilities (keys are the `SERVICE_*` constants).
///
/// # Errors
///
/// Propagates diagram and evaluation failures (missing service names).
pub fn availability(
    function: TaFunction,
    params: &TaParameters,
    services: &HashMap<String, f64>,
) -> Result<f64, TravelError> {
    Ok(availability_expr(function, params)?.eval(services)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service_env() -> HashMap<String, f64> {
        let mut env = HashMap::new();
        env.insert(SERVICE_NET.to_string(), 0.9966);
        env.insert(SERVICE_LAN.to_string(), 0.9966);
        env.insert(SERVICE_WEB.to_string(), 0.999995587);
        env.insert(SERVICE_APP.to_string(), 0.999984);
        env.insert(SERVICE_DB.to_string(), 0.98998416);
        env.insert(SERVICE_FLIGHT.to_string(), 0.999);
        env.insert(SERVICE_HOTEL.to_string(), 0.999);
        env.insert(SERVICE_CAR.to_string(), 0.999);
        env.insert(SERVICE_PAYMENT.to_string(), 0.9);
        env
    }

    fn params() -> TaParameters {
        TaParameters::paper_defaults()
    }

    #[test]
    fn home_is_net_lan_ws() {
        // Table 6: A(Home) = Anet · ALAN · A(WS).
        let env = service_env();
        let a = availability(TaFunction::Home, &params(), &env).unwrap();
        let expected = 0.9966 * 0.9966 * 0.999995587;
        assert!((a - expected).abs() < 1e-12);
    }

    #[test]
    fn browse_matches_table6_formula() {
        // A(Browse) = Anet ALAN A(WS)[q23 + A(AS)(q24 q45 + q24 q47 A(DS))],
        // also where a branch probability is zero.
        let env = service_env();
        let mut all_cached = params();
        (all_cached.q23, all_cached.q24) = (1.0, 0.0);
        let mut always_db = params();
        (always_db.q45, always_db.q47) = (0.0, 1.0);
        for p in [params(), all_cached, always_db] {
            let a = availability(TaFunction::Browse, &p, &env).unwrap();
            let (ws, asv, ds) = (env[SERVICE_WEB], env[SERVICE_APP], env[SERVICE_DB]);
            let bracket = p.q23 + asv * (p.q24 * p.q45 + p.q24 * p.q47 * ds);
            let expected = 0.9966 * 0.9966 * ws * bracket;
            assert!(
                (a - expected).abs() < 1e-12,
                "q23={} q45={}: {a} vs {expected}",
                p.q23,
                p.q45
            );
        }
    }

    #[test]
    fn search_matches_table6_formula() {
        let env = service_env();
        let a = availability(TaFunction::Search, &params(), &env).unwrap();
        let expected = 0.9966
            * 0.9966
            * env[SERVICE_WEB]
            * env[SERVICE_APP]
            * env[SERVICE_DB]
            * env[SERVICE_FLIGHT]
            * env[SERVICE_HOTEL]
            * env[SERVICE_CAR];
        assert!((a - expected).abs() < 1e-12);
    }

    #[test]
    fn book_equals_search() {
        // Table 6: A(Book) = A(Search) by the subset assumption.
        let env = service_env();
        let p = params();
        let search = availability(TaFunction::Search, &p, &env).unwrap();
        let book = availability(TaFunction::Book, &p, &env).unwrap();
        assert!((search - book).abs() < 1e-15);
    }

    #[test]
    fn pay_matches_table6_formula() {
        let env = service_env();
        let a = availability(TaFunction::Pay, &params(), &env).unwrap();
        let expected = 0.9966
            * 0.9966
            * env[SERVICE_WEB]
            * env[SERVICE_APP]
            * env[SERVICE_DB]
            * env[SERVICE_PAYMENT];
        assert!((a - expected).abs() < 1e-12);
    }

    #[test]
    fn browse_scenarios_structure() {
        let scenarios = function_scenarios(TaFunction::Browse, &params()).unwrap();
        assert_eq!(scenarios.len(), 3);
        let total: f64 = scenarios.iter().map(|(p, _)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // The cache-hit path uses no application service.
        let cache_hit = scenarios
            .iter()
            .find(|(_, s)| !s.contains(&SERVICE_APP.to_string()))
            .expect("cache-hit path");
        assert!((cache_hit.0 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn table2_mapping_is_consistent_with_diagrams() {
        // Every service in the Table 2 row must appear in some diagram
        // path of the function.
        let p = params();
        for (function, required) in service_mapping() {
            let scenarios = function_scenarios(function, &p).unwrap();
            for svc in required {
                assert!(
                    scenarios.iter().any(|(_, s)| s.iter().any(|x| x == svc)),
                    "{function}: service {svc} missing from all paths"
                );
            }
        }
    }

    #[test]
    fn all_functions_enumerated() {
        assert_eq!(TaFunction::all().len(), 5);
        assert_eq!(TaFunction::Search.to_string(), "Search");
    }

    #[test]
    fn availability_monotone_in_every_service() {
        let p = params();
        let base = service_env();
        for function in TaFunction::all() {
            let a0 = availability(function, &p, &base).unwrap();
            for svc in base.keys() {
                let mut degraded = base.clone();
                degraded.insert(svc.clone(), base[svc] * 0.5);
                let a1 = availability(function, &p, &degraded).unwrap();
                assert!(
                    a1 <= a0 + 1e-12,
                    "{function}: degrading {svc} raised availability"
                );
            }
        }
    }
}
