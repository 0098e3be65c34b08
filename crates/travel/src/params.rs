//! The model's 25 inputs (Table 7 and the §5.1 web-farm setting): the
//! [`TaParameters`] struct, and the [`PARAMS`] table that declares each
//! one's name, domain, layer and field once. Validation, the `/eval`
//! parser and every memo key read the table; the rules that tie fields
//! together stay explicit in [`TaParameters::validate`].

use crate::TravelError;

/// The full parameter set of the TA study — Table 7 of the paper plus the
/// Section 5.1 web-farm parameters.
///
/// ## Units
///
/// Failure (`lambda`), repair (`mu`) and reconfiguration (`beta`) rates are
/// **per hour**; request arrival (`alpha`) and service (`nu`) rates are
/// **per second**. The two groups never mix inside a formula: the
/// availability chain uses only per-hour rates, the queueing model only the
/// dimensionless ratio `alpha / nu`, which is exactly why the paper's
/// composite approach is sound.
///
/// # Examples
///
/// ```
/// use uavail_travel::TaParameters;
///
/// let p = TaParameters::paper_defaults();
/// assert_eq!(p.web_servers, 4);
/// assert_eq!(p.buffer_size, 10);
/// let tweaked = TaParameters::builder()
///     .web_servers(6)
///     .coverage(0.95)
///     .build()
///     .unwrap();
/// assert_eq!(tweaked.web_servers, 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaParameters {
    /// Availability of the TA connectivity to the Internet (`A_net`).
    pub a_net: f64,
    /// Availability of the internal LAN (`A_LAN`).
    pub a_lan: f64,
    /// Availability of the computer host running the application server
    /// (`A(C_AS)`).
    pub a_cas: f64,
    /// Availability of the computer host running the database server
    /// (`A(C_DS)`).
    pub a_cds: f64,
    /// Availability of one disk (`A(Disk)`).
    pub a_disk: f64,
    /// Availability of the computer host running a web server
    /// (`A(C_WS)`), used by the basic architecture's equation (2). In the
    /// redundant architecture host availability is produced by the Markov
    /// farm model instead.
    pub a_cws: f64,
    /// Availability of the external payment system (`A_PS`).
    pub a_payment: f64,
    /// Availability of one flight reservation system (`A_Fi`).
    pub a_flight_system: f64,
    /// Availability of one hotel reservation system (`A_Hi`).
    pub a_hotel_system: f64,
    /// Availability of one car reservation system (`A_Ci`).
    pub a_car_system: f64,
    /// Number of flight reservation systems (`N_F`).
    pub num_flight_systems: usize,
    /// Number of hotel reservation systems (`N_H`).
    pub num_hotel_systems: usize,
    /// Number of car reservation systems (`N_C`).
    pub num_car_systems: usize,
    /// Browse diagram branch probability `q23` (cache hit).
    pub q23: f64,
    /// Browse diagram branch probability `q24` (to application server).
    pub q24: f64,
    /// Browse diagram branch probability `q45` (no database needed).
    pub q45: f64,
    /// Browse diagram branch probability `q47` (database involved).
    pub q47: f64,
    /// Number of web servers in the farm (`N_W`).
    pub web_servers: usize,
    /// Web-server failure rate `λ` (per hour).
    pub failure_rate_per_hour: f64,
    /// Shared repair rate `µ` (per hour).
    pub repair_rate_per_hour: f64,
    /// Failure coverage factor `c`.
    pub coverage: f64,
    /// Manual reconfiguration rate `β` (per hour; `1/β` = mean manual
    /// reconfiguration time).
    pub reconfiguration_rate_per_hour: f64,
    /// Request arrival rate `α` (per second).
    pub arrival_rate_per_second: f64,
    /// Per-server request service rate `ν` (per second).
    pub service_rate_per_second: f64,
    /// Web-server input buffer size `K`.
    pub buffer_size: usize,
}

impl TaParameters {
    /// The paper's reference parameters: Table 7 combined with the
    /// Section 5.1 web-farm setting (`N_W = 4`, `c = 0.98`,
    /// `α = 100/s`, `λ = 10⁻⁴/h`, `ν = 100/s`, `µ = 1/h`, `β = 12/h`,
    /// `K = 10`).
    pub fn paper_defaults() -> Self {
        TaParameters {
            a_net: 0.9966,
            a_lan: 0.9966,
            a_cas: 0.996,
            a_cds: 0.996,
            a_disk: 0.9,
            a_cws: 0.996,
            a_payment: 0.9,
            a_flight_system: 0.9,
            a_hotel_system: 0.9,
            a_car_system: 0.9,
            num_flight_systems: 5,
            num_hotel_systems: 5,
            num_car_systems: 5,
            q23: 0.2,
            q24: 0.8,
            q45: 0.4,
            q47: 0.6,
            web_servers: 4,
            failure_rate_per_hour: 1e-4,
            repair_rate_per_hour: 1.0,
            coverage: 0.98,
            reconfiguration_rate_per_hour: 12.0,
            arrival_rate_per_second: 100.0,
            service_rate_per_second: 100.0,
            buffer_size: 10,
        }
    }

    /// Starts a builder initialized with [`TaParameters::paper_defaults`].
    pub fn builder() -> TaParametersBuilder {
        TaParametersBuilder {
            params: TaParameters::paper_defaults(),
        }
    }

    /// Validates every parameter against its [`PARAMS`] domain, then the
    /// cross-field rules: `q23 + q24 = 1` and `q45 + q47 = 1` (each in
    /// `[1 − 1e-9, 1]`, so no class answer can exceed 1 through them),
    /// `buffer_size ≥ web_servers`, and a finite
    /// `web_servers · failure_rate_per_hour`, so every failure rate `i·λ`
    /// the farm chains build is finite.
    ///
    /// # Errors
    ///
    /// [`TravelError::InvalidParameter`] naming the first violated field,
    /// in table order, or else the first violated rule.
    pub fn validate(&self) -> Result<(), TravelError> {
        let sum_rule =
            |name, sum: f64| ((1.0 - 1e-9..=1.0).contains(&sum), name, sum, "equal to 1");
        let violation = PARAMS
            .iter()
            .map(|row| {
                let value = row.value(self);
                let (ok, requirement) = match row.domain {
                    Domain::Probability => ((0.0..=1.0).contains(&value), "within [0, 1]"),
                    Domain::Rate => (value.is_finite() && value > 0.0, "finite and > 0"),
                    Domain::Count => (value >= 1.0, "at least 1"),
                };
                (ok, row.name, value, requirement)
            })
            .chain([
                sum_rule("q23 + q24", self.q23 + self.q24),
                sum_rule("q45 + q47", self.q45 + self.q47),
                (
                    self.buffer_size >= self.web_servers,
                    "buffer_size",
                    self.buffer_size as f64,
                    "at least web_servers",
                ),
                (
                    (self.web_servers as f64 * self.failure_rate_per_hour).is_finite(),
                    "failure_rate_per_hour",
                    self.failure_rate_per_hour,
                    "finite when multiplied by web_servers",
                ),
            ])
            .find(|&(ok, ..)| !ok);
        match violation {
            Some((_, name, value, requirement)) => Err(TravelError::InvalidParameter {
                name,
                value,
                requirement,
            }),
            None => Ok(()),
        }
    }

    /// Sets the same count for `N_F`, `N_H` and `N_C`, the sweep used by
    /// Table 8.
    pub fn with_reservation_systems(mut self, n: usize) -> Self {
        self.num_flight_systems = n;
        self.num_hotel_systems = n;
        self.num_car_systems = n;
        self
    }
}

impl Default for TaParameters {
    fn default() -> Self {
        TaParameters::paper_defaults()
    }
}

/// The values a parameter may take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// A probability in `[0, 1]`.
    Probability,
    /// A rate that is finite and `> 0`.
    Rate,
    /// A count `≥ 1`.
    Count,
}

/// The part of the model a parameter feeds, which decides the memo key
/// that must carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The web farm and its buffers: the inputs of `A(WS)` and of the
    /// context's availability memo key.
    WebFarm,
    /// The interaction diagrams' branch probabilities: the inputs of a
    /// scenario's service expansion and of the scenario memo key.
    Profile,
    /// Every other parameter, read afresh by each evaluation.
    Services,
}

impl Layer {
    /// How many rows of [`PARAMS`] feed this layer.
    pub(crate) const fn width(self) -> usize {
        let (mut i, mut n) = (0, 0);
        while i < PARAMS.len() {
            if PARAMS[i].layer as u8 == self as u8 {
                n += 1;
            }
            i += 1;
        }
        n
    }

    /// The [`PARAMS`] indices of this layer's rows, in table order; `N`
    /// must be [`Layer::width`].
    pub(crate) const fn rows<const N: usize>(self) -> [usize; N] {
        let mut rows = [0; N];
        let (mut i, mut n) = (0, 0);
        while i < PARAMS.len() {
            if PARAMS[i].layer as u8 == self as u8 {
                rows[n] = i;
                n += 1;
            }
            i += 1;
        }
        assert!(n == N, "N must be the layer's width");
        rows
    }
}

/// One row of [`PARAMS`]. Its accessor reads and writes the field as 64
/// bits: `f64::to_bits` of a probability or a rate, the value of a count.
#[derive(Debug, Clone, Copy)]
pub struct Param {
    /// The [`TaParameters`] field, which is also the `/eval` override key.
    pub name: &'static str,
    pub domain: Domain,
    pub layer: Layer,
    get: fn(&TaParameters) -> u64,
    set: fn(&mut TaParameters, u64),
}

impl Param {
    /// The field's exact bits in `params`.
    pub fn bits(&self, params: &TaParameters) -> u64 {
        (self.get)(params)
    }

    /// Sets the field from bits in the encoding of [`Param::bits`].
    pub fn set_bits(&self, params: &mut TaParameters, bits: u64) {
        (self.set)(params, bits)
    }

    /// The field's value as a float; a count past 2^53 rounds.
    pub fn value(&self, params: &TaParameters) -> f64 {
        let bits = self.bits(params);
        match self.domain {
            Domain::Count => bits as f64,
            Domain::Probability | Domain::Rate => f64::from_bits(bits),
        }
    }
}

/// The [`PARAMS`] row of field `$field`.
macro_rules! param {
    ($field:ident, Count, $layer:ident) => {
        Param {
            name: stringify!($field),
            domain: Domain::Count,
            layer: Layer::$layer,
            get: |p| p.$field as u64,
            set: |p, bits| p.$field = bits as usize,
        }
    };
    ($field:ident, $domain:ident, $layer:ident) => {
        Param {
            name: stringify!($field),
            domain: Domain::$domain,
            layer: Layer::$layer,
            get: |p| p.$field.to_bits(),
            set: |p, bits| p.$field = f64::from_bits(bits),
        }
    };
}

/// The 25 model parameters, one row each, in [`TaParameters`] field order.
pub const PARAMS: &[Param] = &[
    param!(a_net, Probability, Services),
    param!(a_lan, Probability, Services),
    param!(a_cas, Probability, Services),
    param!(a_cds, Probability, Services),
    param!(a_disk, Probability, Services),
    param!(a_cws, Probability, Services),
    param!(a_payment, Probability, Services),
    param!(a_flight_system, Probability, Services),
    param!(a_hotel_system, Probability, Services),
    param!(a_car_system, Probability, Services),
    param!(num_flight_systems, Count, Services),
    param!(num_hotel_systems, Count, Services),
    param!(num_car_systems, Count, Services),
    param!(q23, Probability, Profile),
    param!(q24, Probability, Profile),
    param!(q45, Probability, Profile),
    param!(q47, Probability, Profile),
    param!(web_servers, Count, WebFarm),
    param!(failure_rate_per_hour, Rate, WebFarm),
    param!(repair_rate_per_hour, Rate, WebFarm),
    param!(coverage, Probability, WebFarm),
    param!(reconfiguration_rate_per_hour, Rate, WebFarm),
    param!(arrival_rate_per_second, Rate, WebFarm),
    param!(service_rate_per_second, Rate, WebFarm),
    param!(buffer_size, Count, WebFarm),
];

/// Builder for [`TaParameters`], seeded with the paper defaults.
#[derive(Debug, Clone)]
pub struct TaParametersBuilder {
    params: TaParameters,
}

impl TaParametersBuilder {
    /// Sets the number of web servers `N_W`.
    pub fn web_servers(mut self, n: usize) -> Self {
        self.params.web_servers = n;
        self
    }

    /// Sets the web-server failure rate `λ` (per hour).
    pub fn failure_rate_per_hour(mut self, v: f64) -> Self {
        self.params.failure_rate_per_hour = v;
        self
    }

    /// Sets the shared repair rate `µ` (per hour).
    pub fn repair_rate_per_hour(mut self, v: f64) -> Self {
        self.params.repair_rate_per_hour = v;
        self
    }

    /// Sets the coverage factor `c`.
    pub fn coverage(mut self, v: f64) -> Self {
        self.params.coverage = v;
        self
    }

    /// Sets the reconfiguration rate `β` (per hour).
    pub fn reconfiguration_rate_per_hour(mut self, v: f64) -> Self {
        self.params.reconfiguration_rate_per_hour = v;
        self
    }

    /// Sets the request arrival rate `α` (per second).
    pub fn arrival_rate_per_second(mut self, v: f64) -> Self {
        self.params.arrival_rate_per_second = v;
        self
    }

    /// Sets the per-server service rate `ν` (per second).
    pub fn service_rate_per_second(mut self, v: f64) -> Self {
        self.params.service_rate_per_second = v;
        self
    }

    /// Sets the buffer size `K`.
    pub fn buffer_size(mut self, v: usize) -> Self {
        self.params.buffer_size = v;
        self
    }

    /// Sets the common reservation-system count `N_F = N_H = N_C`.
    pub fn reservation_systems(mut self, n: usize) -> Self {
        self.params = self.params.with_reservation_systems(n);
        self
    }

    /// Sets the per-reservation-system availability (all three kinds).
    pub fn reservation_availability(mut self, a: f64) -> Self {
        self.params.a_flight_system = a;
        self.params.a_hotel_system = a;
        self.params.a_car_system = a;
        self
    }

    /// Validates and returns the parameters.
    ///
    /// # Errors
    ///
    /// See [`TaParameters::validate`].
    pub fn build(self) -> Result<TaParameters, TravelError> {
        self.params.validate()?;
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_valid() {
        assert!(TaParameters::paper_defaults().validate().is_ok());
    }

    #[test]
    fn builder_overrides() {
        let p = TaParameters::builder()
            .web_servers(2)
            .coverage(0.9)
            .arrival_rate_per_second(50.0)
            .reservation_systems(3)
            .build()
            .unwrap();
        assert_eq!(p.web_servers, 2);
        assert_eq!(p.num_hotel_systems, 3);
        assert_eq!(p.coverage, 0.9);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut p = TaParameters::paper_defaults();
        p.coverage = 1.5;
        assert!(p.validate().is_err());
        let mut p = TaParameters::paper_defaults();
        p.q23 = 0.5; // q23 + q24 != 1
        assert!(p.validate().is_err());
        let mut p = TaParameters::paper_defaults();
        p.failure_rate_per_hour = 0.0;
        assert!(p.validate().is_err());
        let mut p = TaParameters::paper_defaults();
        p.web_servers = 0;
        assert!(p.validate().is_err());
        let mut p = TaParameters::paper_defaults();
        p.buffer_size = 2; // < web_servers
        assert!(p.validate().is_err());
        let mut p = TaParameters::paper_defaults();
        p.failure_rate_per_hour = 1e308; // N_W·λ overflows
        assert!(p.validate().is_err());
        let mut p = TaParameters::paper_defaults();
        p.q24 = 0.8 + 9e-10; // a sum above 1 could lift a class answer above 1
        assert!(p.validate().is_err());
        p.q24 = 0.8 - 9e-10; // slack below 1 stays
        assert!(p.validate().is_ok());
    }

    #[test]
    fn decimal_pairs_that_sum_to_one_pass_the_sum_rules() {
        // k/10^d and (10^d − k)/10^d as `/eval` parses them, for every
        // decimal with up to five places: each pair sums to 1.0 exactly.
        for d in 1..=5 {
            let scale = 10f64.powi(d);
            for k in 0..=scale as u64 {
                let (x, y) = (k as f64 / scale, (scale as u64 - k) as f64 / scale);
                let p = TaParameters {
                    q23: x,
                    q24: y,
                    q45: y,
                    q47: x,
                    ..TaParameters::paper_defaults()
                };
                assert!(p.validate().is_ok(), "{x} + {y}");
            }
        }
    }

    /// The fields of `p` as its derived Debug output prints them.
    fn debug_fields(p: &TaParameters) -> Vec<String> {
        let debug = format!("{p:?}");
        let inner = debug
            .trim_start_matches("TaParameters { ")
            .trim_end_matches(" }");
        inner.split(", ").map(String::from).collect()
    }

    #[test]
    fn rows_are_the_struct_fields_in_order_and_each_writes_its_own() {
        let defaults = TaParameters::paper_defaults();
        let fields = debug_fields(&defaults);
        let names: Vec<&str> = fields
            .iter()
            .map(|f| f.split(':').next().unwrap())
            .collect();
        assert_eq!(names, PARAMS.iter().map(|row| row.name).collect::<Vec<_>>());
        for (i, row) in PARAMS.iter().enumerate() {
            // One more than the default's bits: the next float up, or the
            // next count.
            let bits = row.bits(&defaults) + 1;
            let mut p = defaults.clone();
            row.set_bits(&mut p, bits);
            assert_eq!(row.bits(&p), bits, "{}", row.name);
            let changed: Vec<usize> = (0..fields.len())
                .filter(|&k| debug_fields(&p)[k] != fields[k])
                .collect();
            assert_eq!(changed, [i], "{}", row.name);
        }
    }

    #[test]
    fn layer_rows_partition_the_table() {
        let farm: [usize; Layer::WebFarm.width()] = Layer::WebFarm.rows();
        let profile: [usize; Layer::Profile.width()] = Layer::Profile.rows();
        let services: [usize; Layer::Services.width()] = Layer::Services.rows();
        let mut all: Vec<usize> = [&farm[..], &profile, &services].concat();
        all.sort_unstable();
        assert_eq!(all, (0..PARAMS.len()).collect::<Vec<_>>());
        assert!(farm.iter().all(|&i| PARAMS[i].layer == Layer::WebFarm));
        assert!(profile.iter().all(|&i| PARAMS[i].layer == Layer::Profile));
    }

    #[test]
    fn every_row_rejects_values_outside_its_domain() {
        for row in PARAMS {
            let outside: &[u64] = match row.domain {
                Domain::Probability => &[
                    (-0.1f64).to_bits(),
                    1.5f64.to_bits(),
                    f64::NAN.to_bits(),
                    f64::INFINITY.to_bits(),
                ],
                Domain::Rate => &[
                    0.0f64.to_bits(),
                    (-1.0f64).to_bits(),
                    f64::NAN.to_bits(),
                    f64::INFINITY.to_bits(),
                ],
                Domain::Count => &[0],
            };
            for &bits in outside {
                let mut p = TaParameters::paper_defaults();
                row.set_bits(&mut p, bits);
                match p.validate() {
                    Err(TravelError::InvalidParameter { name, .. }) => assert_eq!(name, row.name),
                    other => panic!("{} = {:e}: {other:?}", row.name, row.value(&p)),
                }
            }
        }
    }

    #[test]
    fn builder_rejects_invalid() {
        assert!(TaParameters::builder().coverage(2.0).build().is_err());
    }

    #[test]
    fn with_reservation_systems() {
        let p = TaParameters::paper_defaults().with_reservation_systems(10);
        assert_eq!(p.num_flight_systems, 10);
        assert_eq!(p.num_car_systems, 10);
    }
}
