//! The discrete-event simulator as a [`ClosedSolver`].
//!
//! [`SimSolver`] sweeps a [`SimNetwork`] over populations `1..=n_max`
//! (one independent seeded run per population) and reshapes the reports
//! into the same [`MvaSolution`](mvasd_queueing::mva::MvaSolution) the
//! analytic solvers return, so simulation ground truth drops into every
//! comparison pipeline unchanged.
//!
//! The streaming face ([`SimIter`]) runs one simulation per `step()`;
//! because each population's seed is a pure function of the base seed,
//! streaming, batch, and resumed-from-snapshot sweeps are bit-identical.
//!
//! Being a stochastic estimator, it matches the analytic solvers only
//! statistically: expect a few percent of Monte-Carlo error at moderate
//! horizons, not the 1e-9 agreement of the exact MVA family.

use mvasd_numerics::rng::splitmix64;
use mvasd_obsv as obsv;
use mvasd_queueing::mva::{ClosedSolver, MvaPoint, SolverIter, StationPoint};
use mvasd_queueing::QueueingError;
use mvasd_simnet::{SimConfig, SimNetwork, Simulation};

/// Closed-network solver backed by the `mvasd-simnet` discrete-event
/// engine. Deterministic for a fixed config: run `n`'s seed is derived
/// from `config.seed` with SplitMix64, independent of sweep order.
#[derive(Debug, Clone)]
pub struct SimSolver {
    network: SimNetwork,
    config: SimConfig,
}

impl SimSolver {
    /// Binds the solver to a simulated network. `config.customers` is
    /// ignored — the sweep sets it per population.
    pub fn new(network: SimNetwork, config: SimConfig) -> Self {
        Self { network, config }
    }
}

impl ClosedSolver for SimSolver {
    fn name(&self) -> &str {
        "simnet-des"
    }

    fn start(&self) -> Result<Box<dyn SolverIter>, QueueingError> {
        Ok(Box::new(SimIter::new(
            self.network.clone(),
            self.config.clone(),
        )))
    }
}

/// The simulator's population iterator: each `step()` is one independent
/// seeded run at the next population. The carried state is just the
/// population counter, so snapshots are trivially cheap.
#[derive(Debug, Clone)]
pub struct SimIter {
    network: SimNetwork,
    config: SimConfig,
    names: std::sync::Arc<[String]>,
    n: usize,
}

impl SimIter {
    /// Starts a fresh sweep at population 0.
    pub fn new(network: SimNetwork, config: SimConfig) -> Self {
        let names = network
            .stations()
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
            .into();
        Self {
            network,
            config,
            names,
            n: 0,
        }
    }

    /// The per-population seed: decorrelated from neighbouring populations
    /// but a pure function of the base seed.
    fn seed_for(&self, n: usize) -> u64 {
        let mut state = self.config.seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut state)
    }
}

impl SolverIter for SimIter {
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
        let _span = obsv::span_with("simnet-des.step", || format!("n={}", self.n + 1));
        obsv::counter("solver.steps", 1);
        obsv::counter("des.runs", 1);
        let n = self.n + 1;
        let cfg = SimConfig {
            customers: n,
            seed: self.seed_for(n),
            ..self.config.clone()
        };
        let report = Simulation::new(self.network.clone(), cfg)
            .map_err(|e| QueueingError::InvalidParameter {
                what: sim_error_what(&e),
            })?
            .run()
            .map_err(|e| QueueingError::InvalidParameter {
                what: sim_error_what(&e),
            })?;
        let x = report.system.throughput;
        let stations = report
            .stations
            .iter()
            .map(|s| StationPoint {
                queue: s.mean_queue,
                residence: if x > 0.0 { s.mean_queue / x } else { 0.0 },
                utilization: s.utilization,
            })
            .collect();
        self.n = n;
        Ok(MvaPoint {
            n,
            throughput: x,
            response: report.system.mean_response,
            // Little's law over the closed loop: C = N / X.
            cycle_time: if x > 0.0 { n as f64 / x } else { f64::INFINITY },
            stations,
        })
    }

    fn boxed_clone(&self) -> Box<dyn SolverIter> {
        Box::new(self.clone())
    }
}

/// Flattens a simulator error into the queueing layer's static-str error
/// vocabulary (the trait's error type has no simulator variant).
fn sim_error_what(e: &mvasd_simnet::SimError) -> &'static str {
    match e {
        mvasd_simnet::SimError::EmptyNetwork => "simulated network is empty",
        mvasd_simnet::SimError::InvalidParameter { what } => what,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvasd_queueing::mva::ExactMvaSolver;
    use mvasd_queueing::network::{ClosedNetwork, Station};
    use mvasd_simnet::{Distribution, SimStation};

    fn sim_net(demand: f64, z: f64) -> SimNetwork {
        SimNetwork::new(
            vec![SimStation::queueing("s0", 1, demand)],
            Distribution::Exponential { mean: z },
        )
        .unwrap()
    }

    fn cfg() -> SimConfig {
        SimConfig {
            horizon: 8000.0,
            warmup: 800.0,
            seed: 42,
            ..SimConfig::default()
        }
    }

    #[test]
    fn sim_solver_tracks_exact_mva_statistically() {
        let (d, z) = (0.02, 1.0);
        let sim = SimSolver::new(sim_net(d, z), cfg());
        let net = ClosedNetwork::new(vec![Station::queueing("s0", 1, 1.0, d)], z).unwrap();
        let exact = ExactMvaSolver::new(net).solve(30).unwrap();
        let sol = sim.solve(30).unwrap();
        assert_eq!(sol.points.len(), 30);
        for n in [1usize, 10, 30] {
            let xs = sol.at(n).unwrap().throughput;
            let xe = exact.at(n).unwrap().throughput;
            assert!((xs - xe).abs() / xe < 0.06, "n={n}: sim {xs} vs exact {xe}");
        }
    }

    #[test]
    fn sim_solver_is_deterministic_and_named() {
        let sim = SimSolver::new(sim_net(0.05, 0.5), cfg());
        assert_eq!(sim.name(), "simnet-des");
        let a = sim.solve(5).unwrap();
        let b = sim.solve(5).unwrap();
        assert_eq!(a.points, b.points);
        assert!(sim.solve(0).unwrap().points.is_empty());
    }

    #[test]
    fn streaming_resumes_bit_identically() {
        let sim = SimSolver::new(sim_net(0.05, 0.5), cfg());
        let batch = sim.solve(6).unwrap();
        let mut iter = sim.start().unwrap();
        for _ in 0..3 {
            iter.step().unwrap();
        }
        let tail = iter.snapshot().resume().drain(6).unwrap();
        assert_eq!(tail.points, batch.points[3..]);
    }

    #[test]
    fn works_as_trait_object() {
        let boxed: Box<dyn ClosedSolver> = Box::new(SimSolver::new(sim_net(0.05, 0.5), cfg()));
        let sol = boxed.solve(3).unwrap();
        assert_eq!(&sol.station_names[..], &["s0".to_string()][..]);
    }
}
