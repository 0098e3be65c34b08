//! Evaluation drivers — Section 5 of the paper: Table 8, Figures 11–13,
//! the revenue analysis, and the §5.1 capacity-planning rules.

use std::collections::HashMap;

use uavail_core::downtime::{RevenueModel, HOURS_PER_YEAR};
use uavail_core::par::{par_map, Exec, OnFailure};
use uavail_profile::ScenarioCategory;

use crate::user::{class_a, class_b, scenario_availability, UserClass};
use crate::{webservice, Architecture, Coverage, TaParameters, TravelAgencyModel, TravelError};

/// The paper's published Table 8, `(N, class A, class B)` with
/// `N = N_F = N_H = N_C`: the reference column every Table 8 reproduction
/// is compared against.
pub const PAPER_TABLE8: [(usize, f64, f64); 6] = [
    (1, 0.84235, 0.76875),
    (2, 0.96509, 0.95529),
    (3, 0.97867, 0.97593),
    (4, 0.98004, 0.97802),
    (5, 0.98018, 0.97822),
    (10, 0.98020, 0.97825),
];

/// The paper's headline web-service availability `A(WS)` at the Table 7
/// parameters.
pub const PAPER_A_WS: f64 = 0.999995587;

/// One row of Table 8: user availability for both classes at a common
/// reservation-system count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table8Row {
    /// `N_F = N_H = N_C`.
    pub reservation_systems: usize,
    /// Class A user availability.
    pub class_a: f64,
    /// Class B user availability.
    pub class_b: f64,
}

/// Reproduces Table 8: user availability vs. number of reservation
/// systems, classes A and B, on the paper's reference architecture.
///
/// # Errors
///
/// Propagates solver failures.
pub fn table8() -> Result<Vec<Table8Row>, TravelError> {
    let _span = uavail_obs::span("travel.table8");
    let counts = [1usize, 2, 3, 4, 5, 10];
    uavail_obs::counter_add("travel.table8.rows", counts.len() as u64);
    let mut rows = Vec::with_capacity(counts.len());
    for n in counts {
        let params = TaParameters::paper_defaults().with_reservation_systems(n);
        let model = TravelAgencyModel::new(params, Architecture::paper_reference())?;
        rows.push(Table8Row {
            reservation_systems: n,
            class_a: model.user_availability(&class_a())?,
            class_b: model.user_availability(&class_b())?,
        });
    }
    Ok(rows)
}

/// One point of Figures 11–12: web-service unavailability at a given farm
/// size for one (failure rate, arrival rate) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FigurePoint {
    /// Web-server failure rate `λ` (per hour).
    pub failure_rate_per_hour: f64,
    /// Request arrival rate `α` (per second).
    pub arrival_rate_per_second: f64,
    /// Number of web servers `N_W`.
    pub web_servers: usize,
    /// Web-service unavailability `1 − A(WS)`.
    pub unavailability: f64,
}

/// The sensitivity grids of Figures 11–12: `λ ∈ {1e-2, 1e-3, 1e-4}`,
/// `α ∈ {50, 100, 150}`.
pub fn figure_grid() -> (Vec<f64>, Vec<f64>) {
    (vec![1e-2, 1e-3, 1e-4], vec![50.0, 100.0, 150.0])
}

/// The flattened `(λ, α, N_W)` evaluation grid of Figures 11–12, in the
/// order the serial sweep visits it.
fn figure_points_grid() -> Vec<(f64, f64, usize)> {
    let (lambdas, alphas) = figure_grid();
    let mut grid = Vec::with_capacity(lambdas.len() * alphas.len() * 10);
    for &lambda in &lambdas {
        for &alpha in &alphas {
            for nw in 1..=10usize {
                grid.push((lambda, alpha, nw));
            }
        }
    }
    grid
}

/// Evaluates one point of the Figure 11/12 grid through the allocating
/// solver path, whatever the sweep's execution options.
fn figure_point(
    coverage: Coverage,
    lambda: f64,
    alpha: f64,
    nw: usize,
) -> Result<FigurePoint, TravelError> {
    let _point = uavail_obs::Stopwatch::start("travel.figure.point_ns");
    let _trace = uavail_obs::TraceSpan::enter_with_arg("travel.figure.point", "nw", nw as f64);
    let params = TaParameters::builder()
        .web_servers(nw)
        .failure_rate_per_hour(lambda)
        .arrival_rate_per_second(alpha)
        .build()?;
    let a = match coverage {
        Coverage::Perfect => webservice::redundant_perfect_availability(&params)?,
        Coverage::Imperfect => webservice::redundant_imperfect_availability(&params)?,
    };
    Ok(FigurePoint {
        failure_rate_per_hour: lambda,
        arrival_rate_per_second: alpha,
        web_servers: nw,
        unavailability: 1.0 - a,
    })
}

/// Counts the points of one figure sweep under the figure's own name, so
/// the metrics artifact reports per-figure coverage.
fn count_figure_points(coverage: Coverage, points: usize) {
    let name = match coverage {
        Coverage::Perfect => "travel.fig11.points",
        Coverage::Imperfect => "travel.fig12.points",
    };
    uavail_obs::counter_add(name, points as u64);
}

/// One failed point of a reporting figure sweep: which grid point failed
/// and the typed error it failed with.
#[derive(Debug)]
pub struct FigureFailure {
    /// Index of the point in the flattened `(λ, α, N_W)` grid.
    pub index: usize,
    /// Web-server failure rate `λ` (per hour) at the failing point.
    pub failure_rate_per_hour: f64,
    /// Request arrival rate `α` (per second) at the failing point.
    pub arrival_rate_per_second: f64,
    /// Number of web servers `N_W` at the failing point.
    pub web_servers: usize,
    /// Why the point failed (a caught panic surfaces as
    /// `TravelError::Core(CoreError::WorkerPanicked { .. })`).
    pub error: TravelError,
}

/// Outcome of a figure sweep: every successfully evaluated point plus a
/// typed record of every point that failed — under
/// [`OnFailure::Report`], the graceful degradation the paper argues for,
/// applied to the evaluation stack itself.
#[derive(Debug, Default)]
pub struct FigureReport {
    /// Successfully evaluated points, in grid order.
    pub points: Vec<FigurePoint>,
    /// Failed points, in grid order.
    pub failures: Vec<FigureFailure>,
}

impl FigureReport {
    /// `true` when every grid point evaluated successfully.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The Figure 11/12 sweep: web-service unavailability over the 90-point
/// `(λ, α, N_W)` grid under `coverage`, evaluated on `exec`.
///
/// Every point runs the allocating solver path, so the points are
/// bit-for-bit the same for any thread count and failure policy. Under
/// [`OnFailure::Report`] every point is evaluated, each failure (including
/// a caught panic) becomes a [`FigureFailure`], and the
/// `travel.figure.resilient.{points,failures}` counters record the split.
///
/// # Errors
///
/// Under [`OnFailure::Abort`], the error at the first failing grid point
/// in sweep order. Under `Report` the sweep never fails.
///
/// # Examples
///
/// ```
/// use uavail_core::par::Exec;
/// use uavail_travel::evaluation::{figure12, figure_sweep};
/// use uavail_travel::Coverage;
///
/// # fn main() -> Result<(), uavail_travel::TravelError> {
/// let report = figure_sweep(Coverage::Imperfect, &Exec::parallel())?;
/// assert_eq!(report.points, figure12()?);
/// # Ok(())
/// # }
/// ```
pub fn figure_sweep(coverage: Coverage, exec: &Exec) -> Result<FigureReport, TravelError> {
    let _span = uavail_obs::span("travel.figure_sweep");
    let grid = figure_points_grid();
    count_figure_points(coverage, grid.len());
    let outcomes = par_map(
        &grid,
        exec,
        || (),
        |(), &(lambda, alpha, nw)| figure_point(coverage, lambda, alpha, nw),
    );
    let mut report = FigureReport::default();
    for (index, (&(lambda, alpha, nw), outcome)) in grid.iter().zip(outcomes).enumerate() {
        match outcome {
            Ok(point) => report.points.push(point),
            Err(error) if exec.on_failure == OnFailure::Abort => return Err(error),
            Err(error) => report.failures.push(FigureFailure {
                index,
                failure_rate_per_hour: lambda,
                arrival_rate_per_second: alpha,
                web_servers: nw,
                error,
            }),
        }
    }
    if exec.on_failure == OnFailure::Report {
        // Recorded unconditionally (a zero is still a record), so a
        // metrics artifact always shows whether the reporting path ran.
        uavail_obs::counter_add("travel.figure.resilient.points", report.points.len() as u64);
        uavail_obs::counter_add(
            "travel.figure.resilient.failures",
            report.failures.len() as u64,
        );
    }
    Ok(report)
}

/// Reproduces Figure 11: web-service unavailability vs. `N_W` under
/// **perfect** coverage, for the full λ × α grid — [`figure_sweep`] run
/// serially.
///
/// # Errors
///
/// Propagates solver failures.
pub fn figure11() -> Result<Vec<FigurePoint>, TravelError> {
    Ok(figure_sweep(Coverage::Perfect, &Exec::serial())?.points)
}

/// Reproduces Figure 12: the same sweep under **imperfect** coverage
/// (`c = 0.98`, `β = 12/h`) — [`figure_sweep`] run serially.
///
/// # Errors
///
/// Propagates solver failures.
pub fn figure12() -> Result<Vec<FigurePoint>, TravelError> {
    Ok(figure_sweep(Coverage::Imperfect, &Exec::serial())?.points)
}

/// Per-category user-unavailability contributions (Figure 13) for one
/// user class.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryBreakdown {
    /// The class name.
    pub class_name: String,
    /// Total user unavailability.
    pub total_unavailability: f64,
    /// `(category, unavailability contribution, downtime hours/year)` in
    /// SC1..SC4 order.
    pub categories: Vec<(ScenarioCategory, f64, f64)>,
}

/// Reproduces Figure 13: the contribution of each scenario category
/// SC1–SC4 to the user-perceived unavailability, for one class on the
/// reference architecture.
///
/// # Errors
///
/// Propagates solver failures.
pub fn figure13(class: &UserClass) -> Result<CategoryBreakdown, TravelError> {
    let _span = uavail_obs::span("travel.figure13");
    let params = TaParameters::paper_defaults();
    let model = TravelAgencyModel::new(params.clone(), Architecture::paper_reference())?;
    let env = model.service_availabilities()?;
    let mut per_category: HashMap<ScenarioCategory, f64> = HashMap::new();
    let mut total = 0.0;
    for s in class.table().scenarios() {
        let a = scenario_availability(s, &params, &env)?;
        let contribution = s.probability * (1.0 - a);
        total += contribution;
        let cat = ScenarioCategory::classify(s, "Search", "Book", "Pay");
        *per_category.entry(cat).or_insert(0.0) += contribution;
    }
    let categories = ScenarioCategory::all()
        .into_iter()
        .map(|c| {
            let u = per_category.get(&c).copied().unwrap_or(0.0);
            (c, u, u * HOURS_PER_YEAR)
        })
        .collect();
    Ok(CategoryBreakdown {
        class_name: class.name().to_string(),
        total_unavailability: total,
        categories,
    })
}

/// The Section 5.2 revenue analysis for one class: transactions and
/// revenue lost to SC4 (payment-scenario) downtime.
#[derive(Debug, Clone, PartialEq)]
pub struct RevenueAnalysis {
    /// The class name.
    pub class_name: String,
    /// SC4 downtime in hours per year.
    pub sc4_downtime_hours: f64,
    /// Payment transactions lost per year.
    pub lost_transactions: f64,
    /// Revenue lost per year (dollars).
    pub lost_revenue: f64,
}

/// Reproduces the Section 5.2 loss-of-revenue estimate: a transaction
/// rate of 100/s and $100 average revenue applied to the SC4 downtime.
///
/// # Errors
///
/// Propagates solver failures.
pub fn revenue_analysis(class: &UserClass) -> Result<RevenueAnalysis, TravelError> {
    let breakdown = figure13(class)?;
    let (_, sc4_unavail, sc4_hours) = breakdown
        .categories
        .iter()
        .find(|(c, _, _)| *c == ScenarioCategory::Sc4Pay)
        .copied()
        .expect("SC4 always present");
    let model = RevenueModel::new(100.0, 100.0)?;
    let loss = model.annual_loss(1.0 - sc4_unavail)?;
    Ok(RevenueAnalysis {
        class_name: breakdown.class_name,
        sc4_downtime_hours: sc4_hours,
        lost_transactions: loss.lost_transactions,
        lost_revenue: loss.lost_revenue,
    })
}

/// Section 5.1 capacity planning: the smallest `N_W` (up to `max_servers`)
/// whose **web-service** unavailability under imperfect coverage is below
/// `target_unavailability`, or `None` if no size qualifies.
///
/// # Errors
///
/// Propagates solver failures.
pub fn min_web_servers_for(
    target_unavailability: f64,
    failure_rate_per_hour: f64,
    arrival_rate_per_second: f64,
    max_servers: usize,
) -> Result<Option<usize>, TravelError> {
    for nw in 1..=max_servers {
        let params = TaParameters::builder()
            .web_servers(nw)
            // The paper holds K = 10 up to N_W = 10; for larger farms the
            // buffer must at least hold one request per server.
            .buffer_size(10.max(nw))
            .failure_rate_per_hour(failure_rate_per_hour)
            .arrival_rate_per_second(arrival_rate_per_second)
            .build()?;
        let a = webservice::redundant_imperfect_availability(&params)?;
        if 1.0 - a < target_unavailability {
            return Ok(Some(nw));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavail_core::par::default_threads;

    fn exec(threads: usize, on_failure: OnFailure) -> Exec {
        Exec {
            threads,
            on_failure,
        }
    }

    #[test]
    fn table8_reproduces_paper_within_tolerance() {
        let rows = table8().unwrap();
        assert_eq!(rows.len(), 6);
        for (row, (n, a, b)) in rows.iter().zip(PAPER_TABLE8) {
            assert_eq!(row.reservation_systems, n);
            // The paper's own intermediate roundings leave ≤ 1.5e-2
            // absolute slack on some entries; shape tolerances below pin
            // the trends exactly.
            assert!(
                (row.class_a - a).abs() < 2e-2,
                "N={n} class A: {} vs paper {a}",
                row.class_a
            );
            assert!(
                (row.class_b - b).abs() < 2e-2,
                "N={n} class B: {} vs paper {b}",
                row.class_b
            );
        }
        // Class A N=1 reproduces to 4 decimals.
        assert!((rows[0].class_a - 0.84235).abs() < 2e-4);
    }

    #[test]
    fn table8_shape_properties() {
        let rows = table8().unwrap();
        for w in rows.windows(2) {
            // Monotone increasing in N for both classes.
            assert!(w[1].class_a >= w[0].class_a);
            assert!(w[1].class_b >= w[0].class_b);
        }
        for row in &rows {
            // Class B users always perceive lower availability.
            assert!(row.class_b < row.class_a);
        }
        // Plateau: the jump from 1 to 4 dominates; 5 -> 10 is negligible.
        let early_gain = rows[3].class_a - rows[0].class_a;
        let late_gain = rows[5].class_a - rows[4].class_a;
        assert!(late_gain < early_gain / 100.0);
    }

    #[test]
    fn figure11_shape() {
        let points = figure11().unwrap();
        assert_eq!(points.len(), 3 * 3 * 10);
        // Perfect coverage: unavailability decreases monotonically in N_W
        // for every (lambda, alpha) pair.
        let (lambdas, alphas) = figure_grid();
        for &l in &lambdas {
            for &a in &alphas {
                let series: Vec<&FigurePoint> = points
                    .iter()
                    .filter(|p| p.failure_rate_per_hour == l && p.arrival_rate_per_second == a)
                    .collect();
                assert_eq!(series.len(), 10);
                for w in series.windows(2) {
                    assert!(
                        w[1].unavailability <= w[0].unavailability * (1.0 + 1e-9),
                        "lambda={l} alpha={a} N_W={}",
                        w[1].web_servers
                    );
                }
            }
        }
    }

    #[test]
    fn figure12_reversal_beyond_four_servers() {
        // The imperfect-coverage curves turn back up for N_W > 4
        // (for load < 1 where the buffer effect saturates).
        let points = figure12().unwrap();
        let series: Vec<&FigurePoint> = points
            .iter()
            .filter(|p| p.failure_rate_per_hour == 1e-2 && p.arrival_rate_per_second == 50.0)
            .collect();
        let u4 = series.iter().find(|p| p.web_servers == 4).unwrap();
        let u10 = series.iter().find(|p| p.web_servers == 10).unwrap();
        let u1 = series.iter().find(|p| p.web_servers == 1).unwrap();
        assert!(
            u4.unavailability < u1.unavailability,
            "redundancy helps first"
        );
        assert!(
            u10.unavailability > u4.unavailability,
            "trend must reverse: U(10) = {} vs U(4) = {}",
            u10.unavailability,
            u4.unavailability
        );
    }

    #[test]
    fn figure12_matches_figure11_at_full_coverage_direction() {
        // Imperfect coverage is never better than perfect coverage.
        let f11 = figure11().unwrap();
        let f12 = figure12().unwrap();
        for (p11, p12) in f11.iter().zip(&f12) {
            assert!(p12.unavailability >= p11.unavailability - 1e-15);
        }
    }

    #[test]
    fn parallel_figure_sweeps_match_serial_bit_for_bit() {
        // Every execution option reproduces the serial figures bit for
        // bit: both coverages × several thread counts × both failure
        // policies.
        for (coverage, serial) in [
            (Coverage::Perfect, figure11().unwrap()),
            (Coverage::Imperfect, figure12().unwrap()),
        ] {
            for threads in [1, 2, 3, default_threads()] {
                for on_failure in [OnFailure::Abort, OnFailure::Report] {
                    let report = figure_sweep(coverage, &exec(threads, on_failure)).unwrap();
                    assert!(report.is_complete());
                    assert_eq!(serial.len(), report.points.len());
                    for (s, p) in serial.iter().zip(&report.points) {
                        assert_eq!(s.web_servers, p.web_servers);
                        assert_eq!(s.failure_rate_per_hour, p.failure_rate_per_hour);
                        assert_eq!(s.arrival_rate_per_second, p.arrival_rate_per_second);
                        assert_eq!(
                            s.unavailability.to_bits(),
                            p.unavailability.to_bits(),
                            "{coverage} threads={threads} {on_failure:?} N_W={} λ={} α={}",
                            s.web_servers,
                            s.failure_rate_per_hour,
                            s.arrival_rate_per_second
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn table7_headline_pinned_on_serial_and_parallel_paths() {
        // Table 7: A(WS) = 0.999995587 at λ = 1e-4, α = 100, N_W = 4 —
        // that point sits on the Figure 12 grid, so every sweep path must
        // reproduce it.
        for (label, points) in [
            ("serial", figure12().unwrap()),
            (
                "parallel",
                figure_sweep(Coverage::Imperfect, &Exec::parallel())
                    .unwrap()
                    .points,
            ),
        ] {
            let p = points
                .iter()
                .find(|p| {
                    p.failure_rate_per_hour == 1e-4
                        && p.arrival_rate_per_second == 100.0
                        && p.web_servers == 4
                })
                .unwrap();
            assert!(
                (p.unavailability - (1.0 - PAPER_A_WS)).abs() < 1e-8,
                "{label}: U(WS) = {:.3e}",
                p.unavailability
            );
        }
    }

    #[test]
    fn figure12_reversal_on_parallel_path() {
        let points = figure_sweep(Coverage::Imperfect, &Exec::parallel())
            .unwrap()
            .points;
        let series: Vec<&FigurePoint> = points
            .iter()
            .filter(|p| p.failure_rate_per_hour == 1e-2 && p.arrival_rate_per_second == 50.0)
            .collect();
        let u4 = series.iter().find(|p| p.web_servers == 4).unwrap();
        let u10 = series.iter().find(|p| p.web_servers == 10).unwrap();
        assert!(
            u10.unavailability > u4.unavailability,
            "parallel path must show the Figure 12 reversal: U(10) = {} vs U(4) = {}",
            u10.unavailability,
            u4.unavailability
        );
    }

    #[test]
    fn resilient_figure_sweep_is_complete_and_bit_for_bit_when_healthy() {
        let report = figure_sweep(
            Coverage::Imperfect,
            &exec(default_threads(), OnFailure::Report),
        )
        .unwrap();
        assert!(report.is_complete(), "failures: {:?}", report.failures);
        let plain = figure12().unwrap();
        assert_eq!(report.points.len(), plain.len());
        for (r, p) in report.points.iter().zip(&plain) {
            assert_eq!(r.web_servers, p.web_servers);
            assert_eq!(r.unavailability.to_bits(), p.unavailability.to_bits());
        }
    }

    #[test]
    fn figure13_totals_match_model_unavailability() {
        for class in [class_a(), class_b()] {
            let breakdown = figure13(&class).unwrap();
            let model = TravelAgencyModel::new(
                TaParameters::paper_defaults(),
                Architecture::paper_reference(),
            )
            .unwrap();
            let u = model.user_unavailability(&class).unwrap();
            assert!(
                (breakdown.total_unavailability - u).abs() < 1e-12,
                "class {}",
                class.name()
            );
            // Four categories, each non-negative.
            assert_eq!(breakdown.categories.len(), 4);
            assert!(breakdown.categories.iter().all(|(_, u, _)| *u >= 0.0));
        }
    }

    #[test]
    fn figure13_sc4_higher_for_class_b() {
        // Paper: SC4 downtime is ~2.7x higher for class B (43 h/yr vs
        // 16 h/yr). The *ratio* is fully determined by the Table 1
        // probabilities (0.203 / 0.075 ≈ 2.71) and must reproduce; the
        // paper's absolute hours are inconsistent with its own
        // A(PS) = 0.9 (Table 7) and are documented as a deviation in
        // EXPERIMENTS.md.
        let a = figure13(&class_a()).unwrap();
        let b = figure13(&class_b()).unwrap();
        let sc4 = |x: &CategoryBreakdown| {
            x.categories
                .iter()
                .find(|(c, _, _)| *c == ScenarioCategory::Sc4Pay)
                .unwrap()
                .2
        };
        let (h_a, h_b) = (sc4(&a), sc4(&b));
        assert!(h_b > 2.0 * h_a, "SC4 hours: A {h_a}, B {h_b}");
        let ratio = h_b / h_a;
        assert!(
            (ratio - 0.203 / 0.075).abs() < 0.01,
            "SC4 ratio should equal the scenario-probability ratio, got {ratio}"
        );
        // Both classes lose real time to payment scenarios (A(PS) = 0.9
        // dominates SC4 unavailability).
        assert!(h_a > 10.0 && h_b > 30.0, "A {h_a} h, B {h_b} h");
    }

    #[test]
    fn revenue_analysis_is_consistent_and_ranked() {
        // Paper magnitudes (5.7M / 15.5M lost transactions) derive from
        // its Figure 13 hours; our SC4 hours differ (see EXPERIMENTS.md),
        // but the *structure* must hold exactly: transactions = downtime ×
        // rate, revenue = transactions × $100, and class B loses ~2.7× as
        // much as class A.
        let a = revenue_analysis(&class_a()).unwrap();
        let b = revenue_analysis(&class_b()).unwrap();
        for r in [&a, &b] {
            let expected_tx = r.sc4_downtime_hours * 3600.0 * 100.0;
            assert!(
                (r.lost_transactions - expected_tx).abs() / expected_tx < 1e-9,
                "class {}: {} vs {expected_tx}",
                r.class_name,
                r.lost_transactions
            );
            assert!((r.lost_revenue / r.lost_transactions - 100.0).abs() < 1e-9);
        }
        let ratio = b.lost_transactions / a.lost_transactions;
        assert!((ratio - 0.203 / 0.075).abs() < 0.01, "ratio {ratio}");
        // Order-of-magnitude sanity: tens of millions of transactions,
        // billions of dollars at stake — the paper's qualitative point.
        assert!(a.lost_transactions > 1e6 && b.lost_transactions > 1e7);
        assert!(b.lost_revenue > 1e9);
    }

    #[test]
    fn capacity_planning_rules_from_section_5_1() {
        // "unavailability lower than 5 min/year (unavailability < 1e-5)".
        let target = 1e-5;
        // λ = 1e-3/h, α = 50/s: at least 2 servers.
        let n = min_web_servers_for(target, 1e-3, 50.0, 10).unwrap();
        assert_eq!(n, Some(2));
        // λ = 1e-3/h, α = 100/s: the paper reads 4 servers off
        // Figure 12; analytically U(4) = 1.05e-5 sits marginally above
        // the 1e-5 line (invisible at the figure's log scale), so the
        // exact threshold crossing is at 5.
        let n = min_web_servers_for(target, 1e-3, 100.0, 10).unwrap();
        assert!(n == Some(4) || n == Some(5), "got {n:?}");
        let relaxed = min_web_servers_for(1.1e-5, 1e-3, 100.0, 10).unwrap();
        assert_eq!(relaxed, Some(4));
        // Same with λ = 1e-4/h.
        let n = min_web_servers_for(target, 1e-4, 100.0, 10).unwrap();
        assert_eq!(n, Some(4));
        // λ = 1e-2/h: unattainable.
        let n = min_web_servers_for(target, 1e-2, 100.0, 10).unwrap();
        assert_eq!(n, None);
    }

    #[test]
    fn three_servers_keep_downtime_under_one_hour_per_year() {
        // §5.1: with 3 servers, unavailability < 1 h/yr for λ in
        // [1e-4, 1e-2] and load < 1.
        let one_hour = 1.0 / 8760.0;
        for lambda in [1e-2, 1e-3, 1e-4] {
            let params = TaParameters::builder()
                .web_servers(3)
                .failure_rate_per_hour(lambda)
                .arrival_rate_per_second(50.0)
                .build()
                .unwrap();
            let a = webservice::redundant_imperfect_availability(&params).unwrap();
            assert!(
                1.0 - a < one_hour,
                "lambda={lambda}: unavailability {}",
                1.0 - a
            );
        }
    }
}
