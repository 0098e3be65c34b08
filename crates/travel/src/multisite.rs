//! Geographic distribution — the paper's multi-site option.
//!
//! Section 3.3 notes that "replicated servers can be located at one site
//! or be geographically distributed at distinct sites" and that fault
//! tolerance can provide "redundant accesses to the Internet". This module
//! evaluates that option: the TA deployed at `S` independent sites, each a
//! full Figure-8 stack behind its own Internet uplink and LAN; the user
//! reaches the service while at least one site is fully reachable and
//! serving.
//!
//! External services (reservation systems, payment) remain global — they
//! are third parties, shared by all sites.

use std::collections::HashMap;

use crate::user::{self, UserClass};
use crate::{functions, services, Architecture, TaParameters, TravelAgencyModel, TravelError};

/// A multi-site deployment: `sites` identical replicas of the single-site
/// architecture.
#[derive(Debug, Clone)]
pub struct MultiSiteModel {
    params: TaParameters,
    architecture: Architecture,
    sites: usize,
}

impl MultiSiteModel {
    /// Creates a deployment of `sites` identical replicas.
    ///
    /// # Errors
    ///
    /// * [`TravelError::InvalidParameter`] when `sites == 0`.
    /// * Propagated parameter-validation failures.
    pub fn new(
        params: TaParameters,
        architecture: Architecture,
        sites: usize,
    ) -> Result<Self, TravelError> {
        if sites == 0 {
            return Err(TravelError::InvalidParameter {
                name: "sites",
                value: 0.0,
                requirement: "at least 1",
            });
        }
        params.validate()?;
        Ok(MultiSiteModel {
            params,
            architecture,
            sites,
        })
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// Service availabilities as perceived through the multi-site front
    /// end: per-site internal stacks (uplink + LAN + internal services)
    /// compose in parallel; external (third-party) services stay global.
    ///
    /// The composition is exact under the paper's independence
    /// assumptions: a user request is routed to any *fully working* site,
    /// so the "internal platform" availability becomes
    /// `1 − (1 − A_site)^S` with
    /// `A_site = A_net·A_LAN·A(WS)·A(AS)·A(DS)` — and the user-level
    /// formulas then consume an equivalent environment in which the
    /// internal factors of one site are replaced by the multi-site
    /// platform availability.
    ///
    /// # Errors
    ///
    /// Propagated solver failures.
    pub fn effective_service_availabilities(&self) -> Result<HashMap<String, f64>, TravelError> {
        let single = TravelAgencyModel::new(self.params.clone(), self.architecture)?;
        let env = single.service_availabilities()?;
        // Per-site internal platform: everything the provider hosts.
        let internal = [
            functions::SERVICE_NET,
            functions::SERVICE_LAN,
            functions::SERVICE_WEB,
            functions::SERVICE_APP,
            functions::SERVICE_DB,
        ];
        let site_platform: f64 = internal.iter().map(|s| env[*s]).product();
        let multi_platform = services::parallel_bank(self.sites, site_platform)?;
        // Equivalent environment: fold the whole platform into the "net"
        // factor (every function uses all internal services of a site
        // together once a request is routed there; Browse's partial paths
        // make this a slight *underestimate* of the true multi-site
        // availability, so the reported gain is conservative).
        let mut effective = env.clone();
        effective.insert(functions::SERVICE_NET.to_string(), multi_platform);
        for s in [
            functions::SERVICE_LAN,
            functions::SERVICE_WEB,
            functions::SERVICE_APP,
            functions::SERVICE_DB,
        ] {
            effective.insert(s.to_string(), 1.0);
        }
        Ok(effective)
    }

    /// User-perceived availability of the multi-site deployment
    /// (conservative; see
    /// [`MultiSiteModel::effective_service_availabilities`]).
    ///
    /// # Errors
    ///
    /// Propagated solver failures.
    pub fn user_availability(&self, class: &UserClass) -> Result<f64, TravelError> {
        let env = self.effective_service_availabilities()?;
        user::user_availability(class, &self.params, &env)
    }

    /// The gain over a single site for the given class (absolute
    /// availability difference).
    ///
    /// # Errors
    ///
    /// Propagated solver failures.
    pub fn gain_over_single_site(&self, class: &UserClass) -> Result<f64, TravelError> {
        let single = TravelAgencyModel::new(self.params.clone(), self.architecture)?
            .user_availability(class)?;
        Ok(self.user_availability(class)? - single)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::{class_a, class_b};

    fn model(sites: usize) -> MultiSiteModel {
        MultiSiteModel::new(
            TaParameters::paper_defaults(),
            Architecture::paper_reference(),
            sites,
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(MultiSiteModel::new(
            TaParameters::paper_defaults(),
            Architecture::paper_reference(),
            0
        )
        .is_err());
        assert_eq!(model(3).sites(), 3);
    }

    #[test]
    fn single_site_is_conservative_bound() {
        // The one-site multi-site model folds the platform into a single
        // factor, which can only *lower* Browse availability (partial
        // paths), so it must not exceed... actually it must closely match
        // the direct model from below.
        let multi = model(1);
        let direct = TravelAgencyModel::new(
            TaParameters::paper_defaults(),
            Architecture::paper_reference(),
        )
        .unwrap();
        for class in [class_a(), class_b()] {
            let m = multi.user_availability(&class).unwrap();
            let d = direct.user_availability(&class).unwrap();
            assert!(m <= d + 1e-12, "class {}: {m} vs {d}", class.name());
            assert!(d - m < 5e-3, "bound should be tight: {m} vs {d}");
        }
    }

    #[test]
    fn more_sites_help_and_saturate() {
        let class = class_b();
        let a1 = model(1).user_availability(&class).unwrap();
        let a2 = model(2).user_availability(&class).unwrap();
        let a3 = model(3).user_availability(&class).unwrap();
        let a6 = model(6).user_availability(&class).unwrap();
        assert!(a2 > a1);
        assert!(a3 > a2);
        // Diminishing returns: external services cap the benefit.
        assert!(a6 - a3 < a2 - a1);
        // The cap: even infinitely many sites cannot beat the external
        // services' availability.
        let params = TaParameters::paper_defaults();
        let direct =
            TravelAgencyModel::new(params.clone(), Architecture::paper_reference()).unwrap();
        let env = direct.service_availabilities().unwrap();
        let mut ideal_env = env.clone();
        for s in [
            functions::SERVICE_NET,
            functions::SERVICE_LAN,
            functions::SERVICE_WEB,
            functions::SERVICE_APP,
            functions::SERVICE_DB,
        ] {
            ideal_env.insert(s.to_string(), 1.0);
        }
        let cap = user::user_availability(&class, &params, &ideal_env).unwrap();
        assert!(a6 <= cap + 1e-12);
        assert!(cap - a6 < 1e-3, "six sites nearly saturate the cap");
    }

    #[test]
    fn gain_positive_for_two_sites() {
        let gain = model(2).gain_over_single_site(&class_a()).unwrap();
        assert!(gain > 0.0);
        // The single-site Internet uplink (0.9966) is a dominant single
        // point of failure; duplicating the site buys whole percentage
        // points? The uplink alone contributes ~0.68% unavailability,
        // so the two-site gain must be at least half of that... it also
        // loses the Browse-partial-path slack; just require a visible win.
        assert!(gain > 2e-3, "gain {gain}");
    }
}
