//! Service-level availabilities — Tables 3 and 4 of the paper.
//!
//! External services (flight / hotel / car reservation, payment) are black
//! boxes replicated `N` times; internal services (application, database)
//! depend on the architecture. The web service lives in
//! [`crate::webservice`] because of its composite model.

use std::collections::HashMap;

use uavail_rbd::{component, parallel, series, BlockDiagram};

use crate::{functions, Architecture, TaParameters, TravelError};

/// Every service availability of `arch` by [`functions`] `SERVICE_*` name,
/// with the caller's web-service availability `a_ws`.
///
/// # Errors
///
/// Propagates parameter failures.
pub fn environment(
    params: &TaParameters,
    arch: Architecture,
    a_ws: f64,
) -> Result<HashMap<String, f64>, TravelError> {
    Ok(HashMap::from([
        (functions::SERVICE_NET.to_string(), params.a_net),
        (functions::SERVICE_LAN.to_string(), params.a_lan),
        (functions::SERVICE_WEB.to_string(), a_ws),
        (
            functions::SERVICE_APP.to_string(),
            application(params, arch)?,
        ),
        (functions::SERVICE_DB.to_string(), database(params, arch)?),
        (functions::SERVICE_FLIGHT.to_string(), flight(params)?),
        (functions::SERVICE_HOTEL.to_string(), hotel(params)?),
        (functions::SERVICE_CAR.to_string(), car(params)?),
        (functions::SERVICE_PAYMENT.to_string(), payment(params)),
    ]))
}

/// Availability of a parallel bank of `n` identical systems each with
/// availability `a` — Table 3's `1 − (1 − A)^n`. Counts that fit an `i32`
/// use `powi`; larger ones use `powf`, since `powi` takes an `i32`
/// exponent and a cast would wrap.
///
/// # Errors
///
/// [`TravelError::InvalidParameter`] when `n == 0` or `a` is outside
/// `[0, 1]`.
pub fn parallel_bank(n: usize, a: f64) -> Result<f64, TravelError> {
    if n == 0 {
        return Err(TravelError::InvalidParameter {
            name: "n",
            value: 0.0,
            requirement: "at least 1",
        });
    }
    if !(a.is_finite() && (0.0..=1.0).contains(&a)) {
        return Err(TravelError::InvalidParameter {
            name: "a",
            value: a,
            requirement: "within [0, 1]",
        });
    }
    let down = match i32::try_from(n) {
        Ok(n) => (1.0 - a).powi(n),
        Err(_) => (1.0 - a).powf(n as f64),
    };
    Ok(1.0 - down)
}

/// Availability of the external flight-reservation service
/// (`1 − Π(1 − A_Fi)`, Table 3).
///
/// # Errors
///
/// As for [`parallel_bank`].
pub fn flight(params: &TaParameters) -> Result<f64, TravelError> {
    parallel_bank(params.num_flight_systems, params.a_flight_system)
}

/// Availability of the external hotel-reservation service (Table 3).
///
/// # Errors
///
/// As for [`parallel_bank`].
pub fn hotel(params: &TaParameters) -> Result<f64, TravelError> {
    parallel_bank(params.num_hotel_systems, params.a_hotel_system)
}

/// Availability of the external car-reservation service (Table 3).
///
/// # Errors
///
/// As for [`parallel_bank`].
pub fn car(params: &TaParameters) -> Result<f64, TravelError> {
    parallel_bank(params.num_car_systems, params.a_car_system)
}

/// Availability of the external payment service (`A_PS`, Table 3).
pub fn payment(params: &TaParameters) -> f64 {
    params.a_payment
}

/// Application-service availability (Table 4): the bare host in the basic
/// architecture, two replicated hosts in the redundant one.
///
/// # Errors
///
/// Propagates parameter failures.
pub fn application(params: &TaParameters, arch: Architecture) -> Result<f64, TravelError> {
    params.validate()?;
    Ok(match arch {
        Architecture::Basic => params.a_cas,
        Architecture::Redundant(_) => parallel_bank(2, params.a_cas)?,
    })
}

/// Database-service availability (Table 4): host and disk in series for
/// the basic architecture; duplicated hosts and mirrored disks for the
/// redundant one.
///
/// # Errors
///
/// Propagates parameter failures.
pub fn database(params: &TaParameters, arch: Architecture) -> Result<f64, TravelError> {
    params.validate()?;
    Ok(match arch {
        Architecture::Basic => params.a_cds * params.a_disk,
        Architecture::Redundant(_) => {
            parallel_bank(2, params.a_cds)? * parallel_bank(2, params.a_disk)?
        }
    })
}

/// The database service of the redundant architecture as an explicit
/// reliability block diagram (duplicated hosts in series with mirrored
/// disks) — used to double-check the Table 4 formula against the RBD
/// engine, and to extract cut sets.
pub fn database_block_diagram() -> BlockDiagram {
    let spec = series(vec![
        parallel(vec![component("db_host_1"), component("db_host_2")]),
        parallel(vec![component("disk_1"), component("disk_2")]),
    ]);
    BlockDiagram::new(spec).expect("fixed diagram structure is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn params() -> TaParameters {
        TaParameters::paper_defaults()
    }

    #[test]
    fn parallel_bank_formula() {
        assert!((parallel_bank(1, 0.9).unwrap() - 0.9).abs() < 1e-15);
        assert!((parallel_bank(2, 0.9).unwrap() - 0.99).abs() < 1e-15);
        assert!((parallel_bank(3, 0.9).unwrap() - 0.999).abs() < 1e-15);
        assert!(parallel_bank(0, 0.9).is_err());
        assert!(parallel_bank(1, 1.5).is_err());
    }

    #[test]
    fn parallel_bank_counts_past_i32_do_not_wrap() {
        // (1 − 1e-10)^n stays well inside (0, 1) around n = 2³¹, so a
        // wrapped exponent (negative, zero or one) shows up as a wrong
        // value or a non-finite one.
        let a = 1e-10;
        // Below 2³¹ the bits are exactly the `powi` ones.
        assert_eq!(
            parallel_bank(i32::MAX as usize, a).unwrap().to_bits(),
            (1.0 - (1.0 - a).powi(i32::MAX)).to_bits()
        );
        for n in [i32::MAX as usize, 1 << 31, 1 << 32, (1 << 32) + 1] {
            let got = parallel_bank(n, a).unwrap();
            let expected = 1.0 - (n as f64 * (1.0 - a).ln()).exp();
            assert!(
                (got - expected).abs() < 1e-8,
                "n = {n}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn external_services_with_paper_counts() {
        let p = params().with_reservation_systems(3);
        let expected = 1.0 - 0.1f64.powi(3);
        assert!((flight(&p).unwrap() - expected).abs() < 1e-15);
        assert!((hotel(&p).unwrap() - expected).abs() < 1e-15);
        assert!((car(&p).unwrap() - expected).abs() < 1e-15);
        assert_eq!(payment(&p), 0.9);
    }

    #[test]
    fn application_service_both_architectures() {
        let p = params();
        assert!((application(&p, Architecture::Basic).unwrap() - 0.996).abs() < 1e-15);
        let redundant = application(&p, Architecture::paper_reference()).unwrap();
        assert!((redundant - (1.0 - 0.004f64.powi(2))).abs() < 1e-15);
        assert!(redundant > 0.996);
    }

    #[test]
    fn database_service_both_architectures() {
        let p = params();
        let basic = database(&p, Architecture::Basic).unwrap();
        assert!((basic - 0.996 * 0.9).abs() < 1e-15);
        let redundant = database(&p, Architecture::paper_reference()).unwrap();
        let expected = (1.0 - 0.004f64.powi(2)) * (1.0 - 0.1f64.powi(2));
        assert!((redundant - expected).abs() < 1e-15);
        assert!(redundant > basic);
    }

    /// The availability of each part of [`database_block_diagram`].
    fn database_parts(p: &TaParameters) -> HashMap<String, f64> {
        [
            ("db_host_1", p.a_cds),
            ("db_host_2", p.a_cds),
            ("disk_1", p.a_disk),
            ("disk_2", p.a_disk),
        ]
        .into_iter()
        .map(|(name, a)| (name.to_string(), a))
        .collect()
    }

    #[test]
    fn database_rbd_agrees_with_formula() {
        let p = params();
        let d = database_block_diagram();
        let rbd_avail = d.availability(&database_parts(&p)).unwrap();
        let formula = database(&p, Architecture::paper_reference()).unwrap();
        assert!((rbd_avail - formula).abs() < 1e-15);
        // No single point of failure in the redundant database.
        assert!(d.single_points_of_failure().is_empty());
    }

    #[test]
    fn database_fault_tree_agrees_with_formula() {
        // Table 4's redundant database through the RBD ↔ fault-tree
        // duality: the service is up unless the dual tree's top event
        // occurs, each part failing with probability 1 − a.
        let p = params();
        let tree =
            uavail_faulttree::convert::fault_tree_of(&database_block_diagram().to_spec()).unwrap();
        let failures: HashMap<String, f64> = database_parts(&p)
            .into_iter()
            .map(|(name, a)| (name, 1.0 - a))
            .collect();
        let via_tree = 1.0 - tree.top_event_probability(&failures).unwrap();
        let formula = database(&p, Architecture::paper_reference()).unwrap();
        assert!(
            (via_tree - formula).abs() < 1e-15,
            "{via_tree} vs {formula}"
        );
    }
}
