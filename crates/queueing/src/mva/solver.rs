//! The unified closed-network solver interface.
//!
//! Every analytic MVA variant in this crate — and, downstream, the MVASD
//! algorithms in `mvasd-core` and the discrete-event estimator in
//! `mvasd-testbed` — solves the same problem: given a closed network and a
//! maximum population `N`, produce throughput / cycle-time / queue-length
//! curves for populations `1..=N`. [`ClosedSolver`] captures exactly that,
//! so the paper's "MVA·i vs MVASD" comparisons (and any future backend)
//! are one-line swaps in `core::pipeline`, `core::accuracy`, and the bench
//! experiments.
//!
//! Since the streaming refactor the primitive operation is
//! [`ClosedSolver::start`]: mint a [`SolverIter`] that yields one
//! population per step. The batch [`ClosedSolver::solve`] is a provided
//! method that drains a fresh iterator, so both faces always agree —
//! bit-for-bit, as the root `streaming` suite asserts.
//!
//! The model is bound at construction (different solvers consume different
//! model descriptions: a static [`ClosedNetwork`], a demand profile, a
//! simulation network); only the target population is a solve-time input.

use super::convolution::ConvIter;
use super::exact::ExactMvaIter;
use super::loaddep::validate_stations;
use super::schweitzer::SchweitzerIter;
use super::stepping::SolverIter;
use super::{LdStation, MvaSolution, SchweitzerOptions};
use crate::network::ClosedNetwork;
use crate::QueueingError;

/// A solver for closed queueing networks.
///
/// Implementations expose the population recursion as a resumable
/// [`SolverIter`] via [`start`](Self::start); the batch
/// [`solve`](Self::solve) is a provided drain of a fresh iterator.
/// Approximate solvers (Schweitzer) and statistical estimators
/// (discrete-event simulation) implement the same contract; callers that
/// need exactness guarantees must choose an exact backend.
pub trait ClosedSolver {
    /// Short stable identifier, e.g. `"exact-mva"` — used in reports and
    /// comparison tables.
    fn name(&self) -> &str;

    /// Starts a fresh population-stepping iterator at population 0.
    /// Model validation happens here, so a started iterator only fails on
    /// numerical pathologies discovered mid-recursion.
    fn start(&self) -> Result<Box<dyn SolverIter>, QueueingError>;

    /// Solves for populations `1..=n_max` by draining a fresh iterator.
    /// `n_max = 0` yields an empty solution on a valid model.
    fn solve(&self, n_max: usize) -> Result<MvaSolution, QueueingError> {
        self.start()?.drain(n_max)
    }
}

impl<S: ClosedSolver + ?Sized> ClosedSolver for &S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn start(&self) -> Result<Box<dyn SolverIter>, QueueingError> {
        (**self).start()
    }

    fn solve(&self, n_max: usize) -> Result<MvaSolution, QueueingError> {
        (**self).solve(n_max)
    }
}

impl<S: ClosedSolver + ?Sized> ClosedSolver for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn start(&self) -> Result<Box<dyn SolverIter>, QueueingError> {
        (**self).start()
    }

    fn solve(&self, n_max: usize) -> Result<MvaSolution, QueueingError> {
        (**self).solve(n_max)
    }
}

/// Exact single-server MVA (paper Algorithm 1) over a static network.
///
/// Queueing stations are treated as single-server regardless of their
/// declared core count; use [`MultiserverMvaSolver`] when server counts
/// matter.
#[derive(Debug, Clone)]
pub struct ExactMvaSolver {
    net: ClosedNetwork,
}

impl ExactMvaSolver {
    /// Binds the solver to a network.
    pub fn new(net: ClosedNetwork) -> Self {
        Self { net }
    }
}

impl ClosedSolver for ExactMvaSolver {
    fn name(&self) -> &str {
        "exact-mva"
    }

    fn start(&self) -> Result<Box<dyn SolverIter>, QueueingError> {
        Ok(Box::new(ExactMvaIter::new(self.net.clone())))
    }
}

/// The exact single-class solver: Buzen's log-domain convolution over
/// load-dependent stations (see [`ConvWorkspace`](super::ConvWorkspace)).
///
/// [`new`](Self::new) is paper Algorithm 2 over a static network;
/// [`from_stations`](Self::from_stations) is the load-dependent MVA the
/// paper credits to JMT, over explicit rate functions. Both lower to the
/// same stations and stream the same engine, so a network and its
/// hand-written lowering give bit-identical solutions.
#[derive(Debug, Clone)]
pub struct MultiserverMvaSolver {
    stations: Vec<LdStation>,
    think_time: f64,
}

impl MultiserverMvaSolver {
    /// Paper Algorithm 2: binds the solver to a network, each station
    /// lowered to its rate function (one server → `SingleServer`, `C`
    /// servers → `MultiServer(C)`, delay → `Delay`, rate table → `Custom`).
    pub fn new(net: ClosedNetwork) -> Self {
        Self::from_stations(
            net.stations().iter().map(LdStation::from).collect(),
            net.think_time(),
        )
    }

    /// Exact load-dependent MVA over explicit stations. The model is
    /// validated at [`start`](ClosedSolver::start).
    pub fn from_stations(stations: Vec<LdStation>, think_time: f64) -> Self {
        Self {
            stations,
            think_time,
        }
    }
}

impl ClosedSolver for MultiserverMvaSolver {
    fn name(&self) -> &str {
        "multiserver-mva"
    }

    fn start(&self) -> Result<Box<dyn SolverIter>, QueueingError> {
        validate_stations(&self.stations, self.think_time)?;
        Ok(Box::new(ConvIter::new(
            self.stations.clone(),
            self.think_time,
        )?))
    }
}

/// Schweitzer's approximate MVA (paper eq. 9, Seidmann transform for
/// multi-server stations). Approximate: expect a few percent deviation
/// from the exact solvers near the knee.
#[derive(Debug, Clone)]
pub struct SchweitzerSolver {
    net: ClosedNetwork,
    opts: SchweitzerOptions,
}

impl SchweitzerSolver {
    /// Binds the solver to a network with default fixed-point options.
    pub fn new(net: ClosedNetwork) -> Self {
        Self {
            net,
            opts: SchweitzerOptions::default(),
        }
    }

    /// Overrides the fixed-point options.
    pub fn with_options(mut self, opts: SchweitzerOptions) -> Self {
        self.opts = opts;
        self
    }
}

impl ClosedSolver for SchweitzerSolver {
    fn name(&self) -> &str {
        "schweitzer-mva"
    }

    fn start(&self) -> Result<Box<dyn SolverIter>, QueueingError> {
        Ok(Box::new(SchweitzerIter::new(self.net.clone(), self.opts)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::{exact_mva, RateFunction};
    use crate::network::Station;

    fn single_server_net() -> ClosedNetwork {
        ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 1, 1.0, 0.01),
                Station::queueing("disk", 1, 1.0, 0.016),
            ],
            0.5,
        )
        .unwrap()
    }

    fn solvers(net: &ClosedNetwork) -> Vec<Box<dyn ClosedSolver>> {
        vec![
            Box::new(ExactMvaSolver::new(net.clone())),
            Box::new(MultiserverMvaSolver::new(net.clone())),
            Box::new(MultiserverMvaSolver::from_stations(
                vec![
                    LdStation::new("cpu", 0.01, RateFunction::SingleServer),
                    LdStation::new("disk", 0.016, RateFunction::SingleServer),
                ],
                0.5,
            )),
        ]
    }

    #[test]
    fn exact_family_agrees_through_the_trait() {
        let net = single_server_net();
        let reference = exact_mva(&net, 40).unwrap();
        for s in solvers(&net) {
            let sol = s.solve(40).unwrap();
            assert_eq!(sol.points.len(), 40, "{}", s.name());
            for (a, b) in sol.points.iter().zip(reference.points.iter()) {
                assert!(
                    (a.throughput - b.throughput).abs() < 1e-9,
                    "{} at n={}: {} vs {}",
                    s.name(),
                    a.n,
                    a.throughput,
                    b.throughput
                );
                assert!((a.cycle_time - b.cycle_time).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn streaming_face_matches_batch_for_every_backend() {
        let net = single_server_net();
        let mut all: Vec<Box<dyn ClosedSolver>> = solvers(&net);
        all.push(Box::new(SchweitzerSolver::new(net.clone())));
        for s in all {
            let batch = s.solve(30).unwrap();
            let streamed = s.start().unwrap().drain(30).unwrap();
            assert_eq!(batch, streamed, "{}", s.name());
            // Step-by-step walk hits the same floats too.
            let mut it = s.start().unwrap();
            for p in &batch.points {
                assert_eq!(&it.step().unwrap(), p, "{}", s.name());
            }
            assert_eq!(it.population(), 30);
        }
    }

    #[test]
    fn zero_population_is_an_empty_solution_for_every_backend() {
        let net = single_server_net();
        let mut all: Vec<Box<dyn ClosedSolver>> = solvers(&net);
        all.push(Box::new(SchweitzerSolver::new(net.clone())));
        for s in all {
            let sol = s.solve(0).unwrap();
            assert!(sol.points.is_empty(), "{}", s.name());
            assert_eq!(
                &sol.station_names[..],
                &["cpu".to_string(), "disk".to_string()][..],
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn schweitzer_close_but_approximate() {
        let net = single_server_net();
        let approx = SchweitzerSolver::new(net.clone()).solve(40).unwrap();
        let exact = exact_mva(&net, 40).unwrap();
        for (a, b) in approx.points.iter().zip(exact.points.iter()) {
            let rel = (a.throughput - b.throughput).abs() / b.throughput;
            assert!(rel < 0.06, "n={} rel={rel}", a.n);
        }
    }

    #[test]
    fn names_are_stable() {
        let net = single_server_net();
        assert_eq!(ExactMvaSolver::new(net.clone()).name(), "exact-mva");
        assert_eq!(
            MultiserverMvaSolver::new(net.clone()).name(),
            "multiserver-mva"
        );
        assert_eq!(SchweitzerSolver::new(net).name(), "schweitzer-mva");
    }

    #[test]
    fn invalid_models_fail_at_start() {
        let bad = MultiserverMvaSolver::from_stations(
            vec![LdStation::new("s", 0.1, RateFunction::MultiServer(0))],
            1.0,
        );
        assert!(bad.start().is_err());
        assert!(bad.solve(10).is_err());
        let bad_opts = SchweitzerSolver::new(single_server_net()).with_options(SchweitzerOptions {
            tolerance: 0.0,
            max_iterations: 10,
        });
        assert!(bad_opts.start().is_err());
    }

    #[test]
    fn trait_objects_and_references_compose() {
        let net = single_server_net();
        let exact = ExactMvaSolver::new(net);
        let by_ref: &dyn ClosedSolver = &exact;
        let boxed: Box<dyn ClosedSolver> = Box::new(exact.clone());
        assert_eq!(by_ref.name(), boxed.name());
        let a = by_ref.solve(5).unwrap();
        let b = boxed.solve(5).unwrap();
        assert_eq!(a, b);
        // Snapshots resume mid-population through the trait object too.
        let mut it = by_ref.start().unwrap();
        it.step().unwrap();
        it.step().unwrap();
        let snap = it.snapshot();
        assert_eq!(snap.resume().drain(5).unwrap().points, a.points[2..]);
    }
}
