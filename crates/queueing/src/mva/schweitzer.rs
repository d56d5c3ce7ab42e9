//! Schweitzer's approximate MVA — paper eq. 9 — with the Seidmann
//! multi-server transform (the approximation family of the paper's refs.
//! [18]/[19] that MAQ-PRO builds on, and which the paper criticizes for its
//! accuracy at high concurrency).
//!
//! Schweitzer replaces the exact arrival-theorem term `Q_k(n−1)` with the
//! proportional estimate `(n−1)/n · Q_k(n)`, turning the population
//! recursion into a fixed point that is solved iteratively per population.
//! Multi-server stations are handled with Seidmann's decomposition: a
//! `C`-server station of demand `D` becomes a single-server station of
//! demand `D/C` in series with a pure delay of `D·(C−1)/C`.

use crate::network::{ClosedNetwork, StationKind};
use crate::QueueingError;
use mvasd_obsv as obsv;

use super::stepping::{MvaPoint, SolverIter};
use super::{MvaSolution, StationPoint};

/// Convergence controls for the fixed-point iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchweitzerOptions {
    /// Stop when the max queue-length change drops below this.
    pub tolerance: f64,
    /// Hard iteration cap per population level.
    pub max_iterations: usize,
}

impl Default for SchweitzerOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            max_iterations: 10_000,
        }
    }
}

/// The Schweitzer fixed point as a resumable iterator: the carried state
/// is the queue-length vector that warm-starts each population's fixed
/// point from the previous population's solution.
#[derive(Debug)]
pub struct SchweitzerIter {
    net: ClosedNetwork,
    opts: SchweitzerOptions,
    names: std::sync::Arc<[String]>,
    /// Seidmann decomposition: per station, (queueing demand, delay
    /// demand, is-queueing).
    split: Vec<(f64, f64, bool)>,
    /// Warm-start queues from the last yielded population.
    q: Vec<f64>,
    n: usize,
}

impl SchweitzerIter {
    /// Starts a fresh recursion at population 0. Rejects non-positive /
    /// non-finite tolerances and a zero iteration cap.
    pub fn new(net: ClosedNetwork, opts: SchweitzerOptions) -> Result<Self, QueueingError> {
        if !opts.tolerance.is_finite() || opts.tolerance <= 0.0 || opts.max_iterations == 0 {
            return Err(QueueingError::InvalidParameter {
                what: "tolerance must be > 0 and max_iterations >= 1",
            });
        }
        let names = net
            .stations()
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
            .into();
        let mut split = Vec::with_capacity(net.stations().len());
        for s in net.stations() {
            let d = s.demand();
            split.push(match &s.kind {
                StationKind::Delay => (0.0, d, false),
                StationKind::Queueing { servers } => {
                    let c = *servers as f64;
                    (d / c, d * (c - 1.0) / c, true)
                }
                // The Seidmann transform has no analogue for an arbitrary
                // rate table; aggregated stations need an exact backend.
                StationKind::LoadDependent { .. } => {
                    return Err(QueueingError::InvalidParameter {
                        what: "Schweitzer AMVA does not support load-dependent stations",
                    })
                }
            });
        }
        let q = vec![0.0f64; net.stations().len()];
        Ok(Self {
            net,
            opts,
            names,
            split,
            q,
            n: 0,
        })
    }
}

impl SolverIter for SchweitzerIter {
    fn station_names(&self) -> &[String] {
        &self.names
    }

    fn shared_names(&self) -> std::sync::Arc<[String]> {
        self.names.clone()
    }

    fn population(&self) -> usize {
        self.n
    }

    fn step(&mut self) -> Result<MvaPoint, QueueingError> {
        let _span = obsv::span("schweitzer.step");
        obsv::counter("solver.steps", 1);
        let n = self.n + 1;
        let nf = n as f64;
        let stations = self.net.stations();
        let k_count = stations.len();
        let z = self.net.think_time();

        // Initial guess: previous population's queues, floored to spread.
        if n == 1 {
            for qk in self.q.iter_mut() {
                *qk = 1.0 / k_count as f64;
            }
        }
        let mut x = 0.0;
        let mut residence = vec![0.0f64; k_count];
        let mut converged = false;
        let mut iterations = 0u64;
        let mut last_delta = f64::INFINITY;
        for _ in 0..self.opts.max_iterations {
            iterations += 1;
            let mut r_total = 0.0;
            for (k, &(dq, dd, is_queueing)) in self.split.iter().enumerate() {
                let rq = if is_queueing {
                    dq * (1.0 + (nf - 1.0) / nf * self.q[k])
                } else {
                    0.0
                };
                residence[k] = rq + dd;
                r_total += residence[k];
            }
            x = nf / (r_total + z);
            let mut delta: f64 = 0.0;
            for (qk, rk) in self.q.iter_mut().zip(&residence) {
                let new_q = x * rk;
                delta = delta.max((new_q - *qk).abs());
                *qk = new_q;
            }
            if delta < self.opts.tolerance {
                converged = true;
                last_delta = delta;
                break;
            }
            last_delta = delta;
        }
        if obsv::enabled() {
            obsv::counter("schweitzer.fixed_point_iterations", iterations);
            obsv::observe("schweitzer.iterations_per_step", iterations);
            // Final fixed-point residual as converged digits × 100: the
            // health floor `mvasd-doctor` compares across runs.
            obsv::observe(
                "health.schweitzer.residual_digits",
                obsv::health::residual_digits(last_delta),
            );
        }
        if !converged {
            return Err(QueueingError::InvalidParameter {
                what: "Schweitzer iteration did not converge",
            });
        }

        let r_total: f64 = residence.iter().sum();
        let station_points = stations
            .iter()
            .enumerate()
            .map(|(k, s)| StationPoint {
                queue: self.q[k],
                residence: residence[k],
                // LoadDependent was rejected at construction, so only the
                // two classic kinds reach this point.
                utilization: match s.kind.server_count() {
                    Some(servers) => x * s.demand() / servers as f64,
                    None => x * s.demand(),
                },
            })
            .collect();

        self.n = n;
        Ok(MvaPoint {
            n,
            throughput: x,
            response: r_total,
            cycle_time: r_total + z,
            stations: station_points,
        })
    }
}

/// Runs Schweitzer approximate MVA for every population `1..=n_max` (a
/// drain of [`SchweitzerIter`]). `n_max = 0` yields an empty solution.
pub fn schweitzer_mva(
    net: &ClosedNetwork,
    n_max: usize,
    opts: SchweitzerOptions,
) -> Result<MvaSolution, QueueingError> {
    SchweitzerIter::new(net.clone(), opts)?.drain(n_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::{exact_mva, multiserver_mva};
    use crate::network::Station;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    fn simple_net() -> ClosedNetwork {
        ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 1, 1.0, 0.006),
                Station::queueing("disk", 1, 1.0, 0.010),
            ],
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn close_to_exact_for_single_server() {
        let net = simple_net();
        let ex = exact_mva(&net, 200).unwrap();
        let ap = schweitzer_mva(&net, 200, SchweitzerOptions::default()).unwrap();
        for (pe, pa) in ex.points.iter().zip(ap.points.iter()) {
            let rel = (pe.throughput - pa.throughput).abs() / pe.throughput;
            // Schweitzer's error peaks near the knee; 3 % is its textbook band.
            assert!(rel < 0.03, "n={}: rel {rel}", pe.n);
        }
    }

    #[test]
    fn exact_at_n_equals_one() {
        // With one customer Schweitzer's correction term vanishes: exact.
        let net = simple_net();
        let ap = schweitzer_mva(&net, 1, SchweitzerOptions::default()).unwrap();
        assert!(close(ap.at(1).unwrap().response, 0.016, 1e-9));
    }

    #[test]
    fn littles_law_holds() {
        let net = simple_net();
        let sol = schweitzer_mva(&net, 100, SchweitzerOptions::default()).unwrap();
        for p in &sol.points {
            assert!(close(p.n as f64, p.throughput * p.cycle_time, 1e-6));
        }
    }

    #[test]
    fn multiserver_seidmann_tracks_algorithm_2() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu16", 16, 1.0, 0.02),
                Station::queueing("disk", 1, 1.0, 0.002),
            ],
            1.0,
        )
        .unwrap();
        let a2 = multiserver_mva(&net, 900).unwrap();
        let sw = schweitzer_mva(&net, 900, SchweitzerOptions::default()).unwrap();
        // Same saturation ceiling; bounded relative error in between.
        for n in [1usize, 50, 200, 400, 900] {
            let xa = a2.at(n).unwrap().throughput;
            let xs = sw.at(n).unwrap().throughput;
            let rel = (xa - xs).abs() / xa;
            assert!(rel < 0.12, "n={n}: algorithm2 {xa} vs schweitzer {xs}");
        }
    }

    #[test]
    fn saturates_at_bottleneck() {
        let net = simple_net();
        let sol = schweitzer_mva(&net, 2000, SchweitzerOptions::default()).unwrap();
        assert!(sol.last().throughput <= 100.0 + 1e-6);
        assert!(sol.last().throughput > 99.0);
    }

    #[test]
    fn rejects_bad_options() {
        let net = simple_net();
        assert!(schweitzer_mva(
            &net,
            10,
            SchweitzerOptions {
                tolerance: 0.0,
                max_iterations: 100
            }
        )
        .is_err());
        assert!(schweitzer_mva(
            &net,
            10,
            SchweitzerOptions {
                tolerance: 1e-9,
                max_iterations: 0
            }
        )
        .is_err());
        // Zero population is a valid, empty sweep (options still checked).
        let empty = schweitzer_mva(&net, 0, SchweitzerOptions::default()).unwrap();
        assert!(empty.points.is_empty());
        assert!(schweitzer_mva(
            &net,
            0,
            SchweitzerOptions {
                tolerance: -1.0,
                max_iterations: 100
            }
        )
        .is_err());
    }
}
