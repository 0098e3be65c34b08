//! The assembled travel-agency model: parameters + architecture → the full
//! four-level hierarchy, ready for evaluation and sensitivity analysis.

use std::collections::HashMap;

use uavail_core::{AvailExpr, HierarchicalModel, Level};

use crate::functions::{self, TaFunction};
use crate::user::{self, UserClass};
use crate::{services, webservice, Architecture, TaParameters, TravelError};

/// The complete TA availability model for one architecture and parameter
/// set — the programmatic equivalent of Sections 3–4 of the paper.
///
/// # Examples
///
/// ```
/// use uavail_travel::{Architecture, TaParameters, TravelAgencyModel};
/// use uavail_travel::user::class_a;
///
/// # fn main() -> Result<(), uavail_travel::TravelError> {
/// let model = TravelAgencyModel::new(
///     TaParameters::paper_defaults(),
///     Architecture::paper_reference(),
/// )?;
/// let a = model.user_availability(&class_a())?;
/// assert!(a > 0.97 && a < 0.99); // Table 8 plateau region
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TravelAgencyModel {
    params: TaParameters,
    architecture: Architecture,
}

impl TravelAgencyModel {
    /// Validates the parameters and assembles the model.
    ///
    /// # Errors
    ///
    /// See [`TaParameters::validate`].
    pub fn new(params: TaParameters, architecture: Architecture) -> Result<Self, TravelError> {
        params.validate()?;
        Ok(TravelAgencyModel {
            params,
            architecture,
        })
    }

    /// The parameter set.
    pub fn params(&self) -> &TaParameters {
        &self.params
    }

    /// The architecture under evaluation.
    pub fn architecture(&self) -> Architecture {
        self.architecture
    }

    /// Web-service availability for this architecture (equations 2, 5
    /// or 9).
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn web_availability(&self) -> Result<f64, TravelError> {
        match self.architecture {
            Architecture::Basic => webservice::basic_availability(&self.params),
            Architecture::Redundant(crate::Coverage::Perfect) => {
                webservice::redundant_perfect_availability(&self.params)
            }
            Architecture::Redundant(crate::Coverage::Imperfect) => {
                webservice::redundant_imperfect_availability(&self.params)
            }
        }
    }

    /// All service-level availabilities keyed by the
    /// [`functions`] `SERVICE_*` names, including the `net`/`lan`
    /// pseudo-services.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn service_availabilities(&self) -> Result<HashMap<String, f64>, TravelError> {
        services::environment(&self.params, self.architecture, self.web_availability()?)
    }

    /// Availability of one function (a Table 6 row).
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn function_availability(&self, function: TaFunction) -> Result<f64, TravelError> {
        let env = self.service_availabilities()?;
        functions::availability(function, &self.params, &env)
    }

    /// User-perceived availability for a user class (equation 10, via the
    /// generic shared-service composition).
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn user_availability(&self, class: &UserClass) -> Result<f64, TravelError> {
        let env = self.service_availabilities()?;
        user::user_availability(class, &self.params, &env)
    }

    /// User-perceived *unavailability* for a class.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn user_unavailability(&self, class: &UserClass) -> Result<f64, TravelError> {
        Ok(1.0 - self.user_availability(class)?)
    }

    /// The user-level availability expression over service names for a
    /// class — the symbolic equation (10).
    ///
    /// # Errors
    ///
    /// Propagates diagram failures.
    pub fn user_expression(&self, class: &UserClass) -> Result<AvailExpr, TravelError> {
        let mut terms: Vec<(f64, AvailExpr)> = Vec::new();
        for s in class.table().scenarios() {
            // Expand each scenario into function-path combinations over
            // distinct services, as in `user::scenario_availability`.
            let mut per_function = Vec::new();
            for fname in &s.functions {
                let f = user::parse_function(fname)?;
                per_function.push(functions::function_scenarios(f, &self.params)?);
            }
            let mut stack: Vec<(usize, f64, std::collections::BTreeSet<String>)> =
                vec![(0, s.probability, Default::default())];
            while let Some((depth, prob, used)) = stack.pop() {
                if depth == per_function.len() {
                    let product =
                        AvailExpr::product(used.iter().cloned().map(AvailExpr::param).collect());
                    terms.push((prob, product));
                    continue;
                }
                for (p, svcs) in &per_function[depth] {
                    let mut next = used.clone();
                    next.extend(svcs.iter().cloned());
                    stack.push((depth + 1, prob * p, next));
                }
            }
        }
        // Distinct scenarios often expand to identical service products
        // (e.g. every Search-without-Pay scenario); simplification merges
        // them, shrinking the expression several-fold.
        let expr = AvailExpr::weighted_sum(terms).simplify();
        expr.validate()?;
        Ok(expr)
    }

    /// Builds the full four-level [`HierarchicalModel`] (Figure 1) for a
    /// user class: resources at the bottom, the web service's composite
    /// result injected at the service level, Table 6 functions, and the
    /// equation-(10) user measure named `"user"`.
    ///
    /// # Errors
    ///
    /// Propagates solver and construction failures.
    pub fn hierarchical(&self, class: &UserClass) -> Result<HierarchicalModel, TravelError> {
        let p = &self.params;
        let mut m = HierarchicalModel::new();
        // Resource level.
        m.define_value(functions::SERVICE_NET, Level::Resource, p.a_net)?;
        m.define_value(functions::SERVICE_LAN, Level::Resource, p.a_lan)?;
        m.define_value("host_as", Level::Resource, p.a_cas)?;
        m.define_value("host_ds", Level::Resource, p.a_cds)?;
        m.define_value("disk", Level::Resource, p.a_disk)?;
        m.define_value("flight_system", Level::Resource, p.a_flight_system)?;
        m.define_value("hotel_system", Level::Resource, p.a_hotel_system)?;
        m.define_value("car_system", Level::Resource, p.a_car_system)?;
        m.define_value("payment_system", Level::Resource, p.a_payment)?;

        // Service level. The web service is the output of the composite
        // Markov/queueing model — a directly supplied value, exactly as
        // Figure 1 prescribes ("the outputs of a given level are used in
        // the next immediately upper level").
        m.define_value(
            functions::SERVICE_WEB,
            Level::Service,
            self.web_availability()?,
        )?;
        let dup =
            |name: &str| AvailExpr::parallel(vec![AvailExpr::param(name), AvailExpr::param(name)]);
        match self.architecture {
            Architecture::Basic => {
                m.define_expr(
                    functions::SERVICE_APP,
                    Level::Service,
                    AvailExpr::param("host_as"),
                )?;
                m.define_expr(
                    functions::SERVICE_DB,
                    Level::Service,
                    AvailExpr::product(vec![AvailExpr::param("host_ds"), AvailExpr::param("disk")]),
                )?;
            }
            Architecture::Redundant(_) => {
                m.define_expr(functions::SERVICE_APP, Level::Service, dup("host_as"))?;
                m.define_expr(
                    functions::SERVICE_DB,
                    Level::Service,
                    AvailExpr::product(vec![dup("host_ds"), dup("disk")]),
                )?;
            }
        }
        let bank = |name: &str, n: usize| AvailExpr::parallel(vec![AvailExpr::param(name); n]);
        m.define_expr(
            functions::SERVICE_FLIGHT,
            Level::Service,
            bank("flight_system", p.num_flight_systems),
        )?;
        m.define_expr(
            functions::SERVICE_HOTEL,
            Level::Service,
            bank("hotel_system", p.num_hotel_systems),
        )?;
        m.define_expr(
            functions::SERVICE_CAR,
            Level::Service,
            bank("car_system", p.num_car_systems),
        )?;
        m.define_expr(
            functions::SERVICE_PAYMENT,
            Level::Service,
            AvailExpr::param("payment_system"),
        )?;

        // Function level: Table 6, compiled from the Figures 3–6 diagrams.
        for f in TaFunction::all() {
            m.define_expr(
                f.name(),
                Level::Function,
                functions::availability_expr(f, p)?,
            )?;
        }

        // User level: equation (10).
        m.define_expr("user", Level::User, self.user_expression(class)?)?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use uavail_profile::{Scenario, ScenarioTable};

    use super::*;
    use crate::user::{class_a, class_b};
    use crate::{Coverage, EvalContext};

    fn model() -> TravelAgencyModel {
        TravelAgencyModel::new(
            TaParameters::paper_defaults(),
            Architecture::paper_reference(),
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let mut p = TaParameters::paper_defaults();
        p.coverage = 2.0;
        assert!(TravelAgencyModel::new(p, Architecture::Basic).is_err());
    }

    #[test]
    fn web_availability_per_architecture() {
        let p = TaParameters::paper_defaults();
        let basic = TravelAgencyModel::new(p.clone(), Architecture::Basic)
            .unwrap()
            .web_availability()
            .unwrap();
        let perfect = TravelAgencyModel::new(p.clone(), Architecture::Redundant(Coverage::Perfect))
            .unwrap()
            .web_availability()
            .unwrap();
        let imperfect = model().web_availability().unwrap();
        assert!(basic < imperfect, "basic {basic} vs imperfect {imperfect}");
        assert!(imperfect < perfect);
        assert!((imperfect - 0.999995587).abs() < 1e-8);
    }

    #[test]
    fn basic_architecture_holds_its_loss_limit_where_rho_to_the_k_overflows() {
        // ρ = 1.5 and K = 2 000: ρ^(K+1) overflows, and p_K = 1 − 1/ρ.
        let mut p = TaParameters::paper_defaults();
        p.arrival_rate_per_second = 150.0;
        p.service_rate_per_second = 100.0;
        p.buffer_size = 2_000;
        let basic = TravelAgencyModel::new(p.clone(), Architecture::Basic).unwrap();
        let web = basic.web_availability().unwrap();
        assert!((web - p.a_cws * (1.0 - 1.0 / 3.0)).abs() < 1e-12, "{web}");
        for class in [class_a(), class_b()] {
            let user = basic.user_availability(&class).unwrap();
            assert!(
                (0.0..=1.0).contains(&user),
                "class {}: {user}",
                class.name()
            );
        }
    }

    #[test]
    fn hierarchical_model_agrees_with_direct_computation() {
        let m = model();
        for class in [class_a(), class_b()] {
            let direct = m.user_availability(&class).unwrap();
            let hierarchical = m.hierarchical(&class).unwrap();
            let eval = hierarchical.evaluate().unwrap();
            let via_model = eval.value("user").unwrap();
            assert!(
                (direct - via_model).abs() < 1e-12,
                "class {}: {direct} vs {via_model}",
                class.name()
            );
        }
    }

    #[test]
    fn hierarchical_function_level_matches_direct() {
        let m = model();
        let eval = m.hierarchical(&class_a()).unwrap().evaluate().unwrap();
        for f in TaFunction::all() {
            let direct = m.function_availability(f).unwrap();
            let via = eval.value(f.name()).unwrap();
            assert!((direct - via).abs() < 1e-12, "{f}: {direct} vs {via}");
        }
    }

    #[test]
    fn lan_and_net_are_most_influential_services() {
        // The paper's observation below equation (10): LAN, net and web
        // service dominate because every scenario uses them.
        let m = model();
        let h = m.hierarchical(&class_a()).unwrap();
        let ranked = h
            .ranked_sensitivities("user", uavail_core::Level::Resource)
            .unwrap();
        let top2: Vec<&str> = ranked[..2].iter().map(|(n, _)| n.as_str()).collect();
        assert!(top2.contains(&"lan"), "top sensitivities: {ranked:?}");
        assert!(top2.contains(&"net"), "top sensitivities: {ranked:?}");
    }

    #[test]
    fn redundant_architecture_beats_basic_for_users() {
        let p = TaParameters::paper_defaults();
        let basic = TravelAgencyModel::new(p.clone(), Architecture::Basic).unwrap();
        let redundant = model();
        for class in [class_a(), class_b()] {
            let ab = basic.user_availability(&class).unwrap();
            let ar = redundant.user_availability(&class).unwrap();
            assert!(ar > ab, "class {}: {ar} !> {ab}", class.name());
        }
    }

    #[test]
    fn unavailability_complement() {
        let m = model();
        let a = m.user_availability(&class_a()).unwrap();
        let u = m.user_unavailability(&class_a()).unwrap();
        assert!((a + u - 1.0).abs() < 1e-15);
    }

    #[test]
    fn unknown_scenario_function_is_an_error_naming_it() {
        // A class whose one scenario calls a function Table 1 lacks: every
        // user-level entry point must name it, and no message may carry
        // a NaN.
        let table =
            ScenarioTable::new(vec![Scenario::new("St-Hone-Ex", vec!["Hone"], 1.0)]).unwrap();
        let class = UserClass::new("typo", table);
        let m = model();
        let env = m.service_availabilities().unwrap();
        let errors = [
            user::user_availability(&class, m.params(), &env).unwrap_err(),
            user::user_availability_with(&class, m.params(), &env, &mut EvalContext::new())
                .unwrap_err(),
            m.user_expression(&class).unwrap_err(),
            m.hierarchical(&class).unwrap_err(),
        ];
        for error in errors {
            let text = error.to_string();
            assert!(text.contains("Hone") && !text.contains("NaN"), "{text}");
        }
    }

    #[test]
    fn accessors() {
        let m = model();
        assert_eq!(m.architecture(), Architecture::paper_reference());
        assert_eq!(m.params().web_servers, 4);
    }
}
