use rand::Rng;

use crate::context::SimContext;
use crate::error::{check_probability, check_rate};
use crate::rng::{alias_sample, bernoulli, build_alias_into, exponential, weighted_index};
use crate::stats::Proportion;
use crate::SimError;

/// Joint performance–availability simulation of the paper's redundant
/// web-server farm (Figures 9–10 plus the M/M/i/K request model).
///
/// The simulation runs the *complete* continuous-time model — request
/// arrivals/service, server failures with coverage, shared repair, and
/// manual reconfiguration — with no quasi-steady-state separation. The
/// observed request-loss fraction therefore validates both the composite
/// equations (5) / (9) *and* the separation assumption they rest on.
///
/// States mirror Figure 10: `i` operational servers, with a reconfiguration
/// ("y") flag during which the web service is down. Requests queue in a
/// buffer of size `K`; an arrival is lost when the buffer is full, no
/// server is operational, or the system is reconfiguring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FarmSimulation {
    servers: usize,
    failure_rate: f64,
    repair_rate: f64,
    coverage: f64,
    reconfiguration_rate: f64,
    arrival_rate: f64,
    service_rate: f64,
    capacity: usize,
}

/// Result of a [`FarmSimulation`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmObservation {
    /// Requests offered.
    pub arrivals: u64,
    /// Requests lost (buffer full, all servers down, or reconfiguring).
    pub losses: u64,
    /// Time spent with `i` operational servers (outside reconfiguration),
    /// indexed by `i = 0..=servers`.
    pub operational_time: Vec<f64>,
    /// Total time spent in reconfiguration states.
    pub reconfiguration_time: f64,
    /// Total simulated time.
    pub horizon: f64,
}

impl FarmObservation {
    /// Observed fraction of lost requests — the empirical counterpart of
    /// the paper's web-service *unavailability*.
    pub fn loss_fraction(&self) -> f64 {
        Proportion::new(self.losses, self.arrivals).estimate()
    }

    /// Empirical web-service availability `1 - loss_fraction()`.
    pub fn availability(&self) -> f64 {
        1.0 - self.loss_fraction()
    }

    /// Binomial confidence interval on the loss fraction.
    pub fn loss_confidence_interval(&self, z: f64) -> (f64, f64) {
        Proportion::new(self.losses, self.arrivals).confidence_interval(z)
    }

    /// Empirical state distribution over `i = 0..=servers` operational
    /// servers plus one final entry for the aggregated reconfiguration
    /// states — comparable with the Figure 9/10 steady-state solutions.
    pub fn state_distribution(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .operational_time
            .iter()
            .map(|t| t / self.horizon)
            .collect();
        out.push(self.reconfiguration_time / self.horizon);
        out
    }
}

/// Allocation-free summary of a [`FarmSimulation`] replication — what the
/// replicated farm validator pools, instead of materializing a
/// [`FarmObservation`] (whose per-state time vector allocates) per
/// replication.
///
/// Produced by the epoch-resolvent kernel
/// ([`FarmSimulation::run_counts_with`]), the counts are *conditional
/// expectations* given the simulated failure/repair trajectory — exact
/// means of the same CTMC functionals `run` estimates by counting
/// individual requests, with strictly smaller variance — and are
/// therefore `f64` rather than integers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FarmCounts {
    /// Expected requests offered over the replication.
    pub arrivals: f64,
    /// Expected requests lost (buffer full, all servers down, or
    /// reconfiguring).
    pub losses: f64,
    /// Total time spent in reconfiguration states.
    pub reconfiguration_time: f64,
    /// Total simulated time (the expected-holding-time clock; at least
    /// the requested horizon, ending on an epoch boundary).
    pub horizon: f64,
}

impl FarmCounts {
    /// Observed fraction of lost requests.
    pub fn loss_fraction(&self) -> f64 {
        if self.arrivals == 0.0 {
            return 0.0;
        }
        self.losses / self.arrivals
    }

    /// Empirical web-service availability `1 - loss_fraction()`.
    pub fn availability(&self) -> f64 {
        1.0 - self.loss_fraction()
    }

    /// The expected counts rounded into a [`Proportion`] (for Wilson
    /// intervals and pooling across replications). The interval is a
    /// conservative envelope: the conditional-expectation estimator has
    /// strictly smaller sampling variance than the binomial counts the
    /// interval assumes.
    pub fn proportion(&self) -> Proportion {
        Proportion::new(self.losses.round() as u64, self.arrivals.round() as u64)
    }
}

/// Per-replication scratch for [`FarmSimulation::run_counts_with`], owned
/// by [`SimContext`]: the per-state occupancy-time buffer and the
/// epoch-resolvent tables. Reusing it across replications makes the
/// kernel allocation-free after the first run and keeps built tables
/// valid across replications with identical parameters.
#[derive(Debug, Clone, Default)]
pub(crate) struct FarmScratch {
    /// Parameters the epoch tables were built for; any change flushes
    /// them.
    params: Option<FarmSimulation>,
    operational_time: Vec<f64>,
    /// Whether the epoch tables for a given up-server count were built —
    /// the incremental-rebuild key: an up/down transition only ever
    /// triggers a build for a count not yet visited, never a flush.
    epoch_built: Vec<bool>,
    /// `1/θ_o`: expected epoch length with `o` servers up, indexed by `o`.
    theta_inv: Vec<f64>,
    /// `o·λf / θ_o`: probability the epoch ends in a failure (vs repair).
    fail_frac: Vec<f64>,
    /// `α/θ_o`: expected arrivals offered over one epoch.
    epoch_arrivals: Vec<f64>,
    /// `α·r_{j0}[K]`: expected arrivals lost over one epoch starting at
    /// occupancy `j0`, flat-indexed `o*(K+1) + j0`.
    epoch_losses: Vec<f64>,
    /// Walker/Vose alias rows over the epoch end-state distribution
    /// `θ_o · r_{j0}`, flat-indexed `(o*(K+1) + j0)*(K+1) + k`.
    end_prob: Vec<f64>,
    end_alias: Vec<u32>,
    /// Thomas-factorization and alias-build workspaces (reused per `o`).
    solve_ws: Vec<f64>,
    alias_ws: Vec<u32>,
}

impl FarmScratch {
    /// Readies the scratch for one run of `sim`: flushes stale epoch
    /// tables on a parameter change, sizes them and the time buffer
    /// (allocating only when the farm grows), and zeroes the time
    /// accumulator.
    fn prepare(&mut self, sim: &FarmSimulation) {
        if self.params != Some(*sim) {
            let states = sim.capacity + 1;
            let levels = sim.servers + 1;
            self.epoch_built.clear();
            self.epoch_built.resize(levels, false);
            self.theta_inv.clear();
            self.theta_inv.resize(levels, 0.0);
            self.fail_frac.clear();
            self.fail_frac.resize(levels, 0.0);
            self.epoch_arrivals.clear();
            self.epoch_arrivals.resize(levels, 0.0);
            self.epoch_losses.clear();
            self.epoch_losses.resize(levels * states, 0.0);
            self.end_prob.clear();
            self.end_prob.resize(levels * states * states, 0.0);
            self.end_alias.clear();
            self.end_alias.resize(levels * states * states, 0);
            self.params = Some(*sim);
        }
        self.operational_time.clear();
        self.operational_time.resize(sim.servers + 1, 0.0);
    }

    /// Builds the epoch tables for `o > 0` servers up, solving the
    /// tridiagonal resolvent systems `(θ_o I − Q_o)ᵀ r = e_{j0}` for every
    /// starting occupancy with one shared Thomas factorization, then
    /// packing the end-state distributions into alias rows.
    fn build_epoch_tables(&mut self, sim: &FarmSimulation, o: usize) {
        debug_assert!(o > 0);
        let states = sim.capacity + 1;
        let cap = sim.capacity;
        let theta = o as f64 * sim.failure_rate
            + if o < sim.servers {
                sim.repair_rate
            } else {
                0.0
            };
        self.theta_inv[o] = theta.recip();
        self.fail_frac[o] = o as f64 * sim.failure_rate / theta;
        self.epoch_arrivals[o] = sim.arrival_rate / theta;

        // `M = θI − Q_o` for the within-epoch M/M/o/K queue: birth `α`
        // (j < K), death `min(j, o)·ν`. The rows of `M⁻¹` come from the
        // transposed systems, and `Mᵀ` is again tridiagonal with
        // sub-diagonal `−α` and super-diagonal `−min(j+1, o)·ν`.
        //
        // solve_ws layout: [diag'; w; rhs/solution] of `states` each.
        self.solve_ws.clear();
        self.solve_ws.resize(3 * states, 0.0);
        let (diag, rest) = self.solve_ws.split_at_mut(states);
        let (w, x) = rest.split_at_mut(states);
        for (j, d) in diag.iter_mut().enumerate() {
            let birth = if j < cap { sim.arrival_rate } else { 0.0 };
            let death = j.min(o) as f64 * sim.service_rate;
            *d = theta + birth + death;
        }
        // Thomas forward elimination of Mᵀ, shared across right-hand sides.
        for j in 1..states {
            let sup_prev = -(j.min(o) as f64 * sim.service_rate); // Mᵀ[j-1][j]
            w[j] = -sim.arrival_rate / diag[j - 1]; // sub / diag'
            diag[j] -= w[j] * sup_prev;
        }
        self.alias_ws.clear();
        self.alias_ws.resize(2 * states, 0);
        for j0 in 0..states {
            x.fill(0.0);
            x[j0] = 1.0;
            for j in 1..states {
                let carry = w[j] * x[j - 1];
                x[j] -= carry;
            }
            x[states - 1] /= diag[states - 1];
            for j in (0..states - 1).rev() {
                let sup = -((j + 1).min(o) as f64 * sim.service_rate);
                x[j] = (x[j] - sup * x[j + 1]) / diag[j];
            }
            // `x` is now the resolvent row r_{j0}: non-negative, summing
            // to 1/θ. Expected losses are α·r[K]; the end state follows
            // the (K+1)-way distribution θ·r, sampled via an alias row.
            // Tolerance matches the conditioning: as θ → 0 the system is
            // nearly singular and the Thomas pivots cancel to ~1e-4
            // relative error (see fast_path_pure_queue_matches_formula).
            debug_assert!({
                let sum: f64 = x.iter().sum();
                (sum * theta - 1.0).abs() < 1e-3
            });
            self.epoch_losses[o * states + j0] = sim.arrival_rate * x[cap];
            let base = (o * states + j0) * states;
            let (small, large) = self.alias_ws.split_at_mut(states);
            build_alias_into(
                x,
                &mut self.end_prob[base..base + states],
                &mut self.end_alias[base..base + states],
                small,
                large,
            )
            .expect("resolvent rows are finite, non-negative, positive-sum");
        }
        self.epoch_built[o] = true;
    }
}

impl FarmSimulation {
    /// Creates the simulation.
    ///
    /// `coverage = 1.0` reproduces the perfect-coverage model of Figure 9;
    /// lower values enable the uncovered-failure path of Figure 10 with
    /// mean manual-reconfiguration time `1 / reconfiguration_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for non-positive rates or
    /// counts, coverage outside `[0, 1]`, or `capacity < servers`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        servers: usize,
        failure_rate: f64,
        repair_rate: f64,
        coverage: f64,
        reconfiguration_rate: f64,
        arrival_rate: f64,
        service_rate: f64,
        capacity: usize,
    ) -> Result<Self, SimError> {
        if servers == 0 {
            return Err(SimError::InvalidParameter {
                name: "servers",
                value: 0.0,
                requirement: "at least 1",
            });
        }
        check_rate("failure_rate", failure_rate)?;
        check_rate("repair_rate", repair_rate)?;
        check_probability("coverage", coverage)?;
        check_rate("reconfiguration_rate", reconfiguration_rate)?;
        check_rate("arrival_rate", arrival_rate)?;
        check_rate("service_rate", service_rate)?;
        if capacity < servers {
            return Err(SimError::InvalidParameter {
                name: "capacity",
                value: capacity as f64,
                requirement: "at least the number of servers",
            });
        }
        Ok(FarmSimulation {
            servers,
            failure_rate,
            repair_rate,
            coverage,
            reconfiguration_rate,
            arrival_rate,
            service_rate,
            capacity,
        })
    }

    /// Runs the joint model for `horizon` time units starting with all
    /// servers up and an empty buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for a non-positive horizon
    /// and [`SimError::NoObservations`] when no arrival occurred.
    pub fn run<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        horizon: f64,
    ) -> Result<FarmObservation, SimError> {
        if !(horizon.is_finite() && horizon > 0.0) {
            return Err(SimError::InvalidParameter {
                name: "horizon",
                value: horizon,
                requirement: "finite and > 0",
            });
        }
        let n = self.servers;
        let mut t = 0.0;
        let mut operational = n;
        let mut reconfiguring = false;
        let mut in_system = 0usize;

        let mut arrivals = 0u64;
        let mut losses = 0u64;
        let mut operational_time = vec![0.0; n + 1];
        let mut reconfiguration_time = 0.0;

        // Event indices in the rate race.
        const ARRIVAL: usize = 0;
        const DEPARTURE: usize = 1;
        const FAILURE: usize = 2;
        const REPAIR: usize = 3;
        const RECONFIG_END: usize = 4;

        while t < horizon {
            let busy = in_system.min(operational);
            let rates = [
                self.arrival_rate,
                if !reconfiguring && operational > 0 {
                    busy as f64 * self.service_rate
                } else {
                    0.0
                },
                if !reconfiguring && operational > 0 {
                    operational as f64 * self.failure_rate
                } else {
                    0.0
                },
                if !reconfiguring && operational < n {
                    self.repair_rate
                } else {
                    0.0
                },
                if reconfiguring {
                    self.reconfiguration_rate
                } else {
                    0.0
                },
            ];
            let total: f64 = rates.iter().sum();
            let dt = exponential(rng, total);
            let step_end = (t + dt).min(horizon);
            if reconfiguring {
                reconfiguration_time += step_end - t;
            } else {
                operational_time[operational] += step_end - t;
            }
            t += dt;
            if t >= horizon {
                break;
            }
            match weighted_index(rng, &rates).expect("total rate is positive") {
                ARRIVAL => {
                    arrivals += 1;
                    let service_up = !reconfiguring && operational > 0;
                    if !service_up || in_system >= self.capacity {
                        losses += 1;
                    } else {
                        in_system += 1;
                    }
                }
                DEPARTURE => {
                    debug_assert!(in_system > 0);
                    in_system -= 1;
                }
                FAILURE => {
                    if bernoulli(rng, self.coverage) {
                        operational -= 1;
                    } else {
                        reconfiguring = true;
                    }
                }
                REPAIR => {
                    operational += 1;
                }
                RECONFIG_END => {
                    reconfiguring = false;
                    // The failed server that triggered the reconfiguration
                    // is disconnected once manual intervention completes.
                    operational -= 1;
                }
                _ => unreachable!("rate race has five outcomes"),
            }
        }
        if arrivals == 0 {
            return Err(SimError::NoObservations);
        }
        Ok(FarmObservation {
            arrivals,
            losses,
            operational_time,
            reconfiguration_time,
            horizon,
        })
    }

    /// The replicated validator's entry point: the epoch-resolvent kernel.
    /// Per-event [`FarmSimulation::run`] estimates the same loss fraction
    /// and serves as its oracle.
    ///
    /// The farm's failure/repair/reconfiguration chain is *autonomous* —
    /// none of its rates depend on the request queue — so the joint model
    /// decomposes exactly into slow epochs (constant up-server count `o`,
    /// or a reconfiguration period) modulating an M/M/o/K request queue.
    /// The kernel simulates the slow chain event by event and integrates
    /// the queue *analytically* within each epoch: with `θ` the epoch's
    /// total slow rate and `Q_o` the queue generator, the resolvent row
    /// `r = e_{j0}ᵀ(θI − Q_o)⁻¹` (one tridiagonal solve, cached per
    /// `(o, j0)` and built lazily keyed on the up-server count) yields
    /// the expected epoch length `1/θ`, expected losses `α·r[K]`, and the
    /// exact end-state distribution `θ·r`, sampled with one O(1) alias
    /// draw. Request-level counts are accumulated as conditional
    /// expectations given the slow trajectory — unbiased for the same
    /// quantities `run` estimates, with strictly smaller variance — so a
    /// replication costs O(slow events), not O(requests).
    ///
    /// The clock advances by expected epoch lengths and stops on the
    /// first epoch boundary at or past `horizon`; [`FarmCounts::horizon`]
    /// reports the actual accumulated clock so ratios stay consistent.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] for a non-positive horizon.
    pub fn run_counts_with<R: Rng + ?Sized>(
        &self,
        ctx: &mut SimContext,
        rng: &mut R,
        horizon: f64,
    ) -> Result<FarmCounts, SimError> {
        if !(horizon.is_finite() && horizon > 0.0) {
            return Err(SimError::InvalidParameter {
                name: "horizon",
                value: horizon,
                requirement: "finite and > 0",
            });
        }
        ctx.farm.prepare(self);
        let farm = &mut ctx.farm;
        let n = self.servers;
        let states = self.capacity + 1;
        let inv_delta = self.reconfiguration_rate.recip();
        let inv_mu = self.repair_rate.recip();

        let mut t = 0.0;
        let mut operational = n;
        let mut reconfiguring = false;
        let mut in_system = 0usize;
        let mut arrivals = 0.0;
        let mut losses = 0.0;
        let mut reconfiguration_time = 0.0;

        loop {
            if reconfiguring {
                // The web service is down and the queue is frozen: every
                // arrival in the Exp(δ) period is lost. Manual intervention
                // ends by disconnecting the failed server.
                reconfiguration_time += inv_delta;
                t += inv_delta;
                let offered = self.arrival_rate * inv_delta;
                arrivals += offered;
                losses += offered;
                reconfiguring = false;
                operational -= 1;
            } else if operational == 0 {
                // All servers down: the queue is frozen and every arrival
                // in the Exp(µ) repair period is lost.
                farm.operational_time[0] += inv_mu;
                t += inv_mu;
                let offered = self.arrival_rate * inv_mu;
                arrivals += offered;
                losses += offered;
                operational = 1;
            } else {
                if !farm.epoch_built[operational] {
                    farm.build_epoch_tables(self, operational);
                }
                let dt = farm.theta_inv[operational];
                farm.operational_time[operational] += dt;
                t += dt;
                arrivals += farm.epoch_arrivals[operational];
                losses += farm.epoch_losses[operational * states + in_system];
                let base = (operational * states + in_system) * states;
                in_system = alias_sample(
                    rng,
                    &farm.end_prob[base..base + states],
                    &farm.end_alias[base..base + states],
                );
                let failure = operational == n || rng.random::<f64>() < farm.fail_frac[operational];
                if failure {
                    if bernoulli(rng, self.coverage) {
                        operational -= 1;
                    } else {
                        reconfiguring = true;
                    }
                } else {
                    operational += 1;
                }
            }
            if t >= horizon {
                break;
            }
        }
        Ok(FarmCounts {
            arrivals,
            losses,
            reconfiguration_time,
            horizon: t,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validation() {
        assert!(FarmSimulation::new(0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1).is_err());
        assert!(FarmSimulation::new(2, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2).is_err());
        assert!(FarmSimulation::new(2, 1.0, 1.0, 1.5, 1.0, 1.0, 1.0, 2).is_err());
        assert!(FarmSimulation::new(2, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1).is_err());
        let sim = FarmSimulation::new(2, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2).unwrap();
        assert!(sim.run(&mut StdRng::seed_from_u64(0), -1.0).is_err());
    }

    #[test]
    fn perfect_coverage_state_distribution_matches_birth_death() {
        // Time-scale-compressed parameters so failures are frequent.
        let (n, lambda, mu) = (3usize, 0.2, 1.0);
        let sim = FarmSimulation::new(n, lambda, mu, 1.0, 10.0, 5.0, 5.0, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let obs = sim.run(&mut rng, 200_000.0).unwrap();
        let dist = obs.state_distribution();
        // Analytic: Pi_i = (1/i!)(mu/lambda)^i Pi_0.
        let ratio: f64 = mu / lambda;
        let mut weights = vec![1.0];
        let mut fact = 1.0;
        for i in 1..=n {
            fact *= i as f64;
            weights.push(ratio.powi(i as i32) / fact);
        }
        let z: f64 = weights.iter().sum();
        for i in 0..=n {
            let expected = weights[i] / z;
            assert!(
                (dist[i] - expected).abs() < 0.01,
                "state {i}: sim {} vs analytic {expected}",
                dist[i]
            );
        }
        // No reconfiguration time under perfect coverage.
        assert_eq!(obs.reconfiguration_time, 0.0);
    }

    #[test]
    fn loss_fraction_with_always_up_servers_matches_queue_formula() {
        // Failure rate so small no failure occurs: pure M/M/c/K behaviour.
        let sim = FarmSimulation::new(2, 1e-12, 1.0, 1.0, 1.0, 15.0, 10.0, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let obs = sim.run(&mut rng, 30_000.0).unwrap();
        // M/M/2/4 with a = 1.5.
        let a: f64 = 1.5;
        let mut w = 1.0;
        let mut weights = vec![1.0];
        for m in 0..4usize {
            w *= a / ((m + 1).min(2)) as f64;
            weights.push(w);
        }
        let z: f64 = weights.iter().sum();
        let expected = weights[4] / z;
        let (lo, hi) = obs.loss_confidence_interval(4.0);
        assert!(
            lo <= expected && expected <= hi,
            "expected {expected}, got {} in [{lo}, {hi}]",
            obs.loss_fraction()
        );
    }

    #[test]
    fn imperfect_coverage_creates_reconfiguration_downtime() {
        let sim = FarmSimulation::new(3, 0.5, 1.0, 0.5, 2.0, 5.0, 5.0, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let obs = sim.run(&mut rng, 50_000.0).unwrap();
        assert!(obs.reconfiguration_time > 0.0);
        // Reconfiguration periods add losses compared to perfect coverage.
        let perfect = FarmSimulation::new(3, 0.5, 1.0, 1.0, 2.0, 5.0, 5.0, 6).unwrap();
        let obs_perfect = perfect
            .run(&mut StdRng::seed_from_u64(13), 50_000.0)
            .unwrap();
        assert!(obs.loss_fraction() > obs_perfect.loss_fraction());
    }

    #[test]
    fn state_distribution_sums_to_one() {
        let sim = FarmSimulation::new(2, 0.3, 1.0, 0.8, 3.0, 4.0, 4.0, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let obs = sim.run(&mut rng, 20_000.0).unwrap();
        let total: f64 = obs.state_distribution().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fast_path_validation_matches_run() {
        let sim = FarmSimulation::new(2, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2).unwrap();
        let mut ctx = SimContext::new();
        assert!(sim
            .run_counts_with(&mut ctx, &mut StdRng::seed_from_u64(0), -1.0)
            .is_err());
        assert!(sim
            .run_counts_with(&mut ctx, &mut StdRng::seed_from_u64(0), f64::NAN)
            .is_err());
    }

    #[test]
    fn fast_path_loss_fraction_agrees_with_slow_path() {
        // Both paths simulate the same CTMC; pooled over long horizons
        // their loss fractions must agree within a generous CI. Imperfect
        // coverage exercises the reconfiguration row and the lazy rebuild
        // on up/down transitions.
        let sim = FarmSimulation::new(3, 0.5, 1.0, 0.5, 2.0, 5.0, 5.0, 6).unwrap();
        let mut ctx = SimContext::new();
        let slow = sim.run(&mut StdRng::seed_from_u64(13), 50_000.0).unwrap();
        let fast = sim
            .run_counts_with(&mut ctx, &mut StdRng::seed_from_u64(13), 50_000.0)
            .unwrap();
        assert!(fast.reconfiguration_time > 0.0);
        let (lo, hi) = slow.loss_confidence_interval(4.0);
        let (flo, fhi) = fast.proportion().confidence_interval(4.0);
        // The 4-sigma intervals of two estimates of the same quantity
        // must overlap.
        assert!(
            flo <= hi && lo <= fhi,
            "slow [{lo}, {hi}] vs fast [{flo}, {fhi}]"
        );
    }

    #[test]
    fn fast_path_pure_queue_matches_formula() {
        // Failure rate so small the whole horizon is one epoch: the
        // resolvent collapses to the stationary M/M/2/4 distribution at
        // a = 1.5 and the expected loss fraction must hit the blocking
        // formula almost exactly.
        let sim = FarmSimulation::new(2, 1e-12, 1.0, 1.0, 1.0, 15.0, 10.0, 4).unwrap();
        let mut ctx = SimContext::new();
        let counts = sim
            .run_counts_with(&mut ctx, &mut StdRng::seed_from_u64(9), 30_000.0)
            .unwrap();
        let a: f64 = 1.5;
        let mut w = 1.0;
        let mut weights = vec![1.0];
        for m in 0..4usize {
            w *= a / ((m + 1).min(2)) as f64;
            weights.push(w);
        }
        let z: f64 = weights.iter().sum();
        let expected = weights[4] / z;
        // At θ = 2e-12 the resolvent is nearly singular, so the Thomas
        // pivots carry ~1e-4 relative error — still orders of magnitude
        // tighter than any Monte Carlo confidence interval here.
        assert!(
            (counts.loss_fraction() - expected).abs() < 1e-3,
            "expected {expected}, got {}",
            counts.loss_fraction()
        );
    }

    #[test]
    fn epoch_kernel_state_distribution_matches_birth_death() {
        // With perfect coverage the epoch kernel's expected per-state
        // times must converge to the same birth-death marginal the
        // event-level paths validate against.
        let (n, lambda, mu) = (3usize, 0.2, 1.0);
        let sim = FarmSimulation::new(n, lambda, mu, 1.0, 10.0, 5.0, 5.0, 6).unwrap();
        let mut ctx = SimContext::new();
        let counts = sim
            .run_counts_with(&mut ctx, &mut StdRng::seed_from_u64(77), 400_000.0)
            .unwrap();
        assert_eq!(counts.reconfiguration_time, 0.0);
        let ratio: f64 = mu / lambda;
        let mut weights = vec![1.0];
        let mut fact = 1.0;
        for i in 1..=n {
            fact *= i as f64;
            weights.push(ratio.powi(i as i32) / fact);
        }
        let z: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / z;
            let observed = ctx.farm.operational_time[i] / counts.horizon;
            assert!(
                (observed - expected).abs() < 0.01,
                "state {i}: sim {observed} vs analytic {expected}"
            );
        }
    }

    #[test]
    fn epoch_kernel_is_deterministic_and_context_independent() {
        let sim = FarmSimulation::new(3, 0.5, 1.0, 0.9, 2.0, 5.0, 5.0, 6).unwrap();
        let mut warm = SimContext::new();
        let other = FarmSimulation::new(4, 0.1, 2.0, 0.7, 1.0, 3.0, 2.0, 8).unwrap();
        other
            .run_counts_with(&mut warm, &mut StdRng::seed_from_u64(1), 1_000.0)
            .unwrap();
        let a = sim
            .run_counts_with(&mut warm, &mut StdRng::seed_from_u64(5), 10_000.0)
            .unwrap();
        let b = sim
            .run_counts_with(
                &mut SimContext::new(),
                &mut StdRng::seed_from_u64(5),
                10_000.0,
            )
            .unwrap();
        assert_eq!(a, b, "fresh and warm contexts must agree bit-for-bit");
        let c = sim
            .run_counts_with(&mut warm, &mut StdRng::seed_from_u64(5), 10_000.0)
            .unwrap();
        assert_eq!(a, c, "reuse must agree bit-for-bit");
    }
}
