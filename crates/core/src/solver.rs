//! [`ClosedSolver`] implementations for the MVASD family.
//!
//! These adapters put the paper's Algorithm 3 (and its single-server
//! variant) behind the same interface as the static MVA solvers in
//! `mvasd-queueing`, so "MVA·i vs MVASD" comparisons — and any pipeline
//! stage that consumes a solver — are one-line swaps.
//!
//! The model bound at construction is a [`ServiceDemandProfile`] rather
//! than a static network: the defining feature of MVASD is that demands
//! are re-interpolated at every population step.

use mvasd_queueing::mva::{ClosedSolver, SolverIter};
use mvasd_queueing::QueueingError;

use crate::algorithm::{MvasdIter, MvasdSingleServerIter};
use crate::profile::ServiceDemandProfile;
use crate::CoreError;

impl From<CoreError> for QueueingError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::InvalidParameter { what } => QueueingError::InvalidParameter { what },
            CoreError::Numerics(n) => QueueingError::Numerics(n),
            CoreError::Queueing(q) => q,
        }
    }
}

/// MVASD (paper Algorithm 3): exact multi-server MVA with per-population
/// interpolated service demands.
#[derive(Debug, Clone)]
pub struct MvasdSolver {
    profile: ServiceDemandProfile,
}

impl MvasdSolver {
    /// Binds the solver to an interpolated demand profile.
    pub fn new(profile: ServiceDemandProfile) -> Self {
        Self { profile }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &ServiceDemandProfile {
        &self.profile
    }
}

impl ClosedSolver for MvasdSolver {
    fn name(&self) -> &str {
        "mvasd"
    }

    fn start(&self) -> Result<Box<dyn SolverIter>, QueueingError> {
        Ok(Box::new(MvasdIter::new(&self.profile)))
    }
}

/// The paper's "MVASD: Single-Server" baseline: interpolated demands
/// normalized by core count, Algorithm-1 recursion.
#[derive(Debug, Clone)]
pub struct MvasdSingleServerSolver {
    profile: ServiceDemandProfile,
}

impl MvasdSingleServerSolver {
    /// Binds the solver to an interpolated demand profile.
    pub fn new(profile: ServiceDemandProfile) -> Self {
        Self { profile }
    }
}

impl ClosedSolver for MvasdSingleServerSolver {
    fn name(&self) -> &str {
        "mvasd-single-server"
    }

    fn start(&self) -> Result<Box<dyn SolverIter>, QueueingError> {
        Ok(Box::new(MvasdSingleServerIter::new(&self.profile)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{DemandAxis, DemandSamples, InterpolationKind};
    use mvasd_queueing::mva::{ExactMvaSolver, MultiserverMvaSolver};
    use mvasd_queueing::network::{ClosedNetwork, Station};

    fn flat_profile(demand: f64, servers: usize) -> ServiceDemandProfile {
        let samples = DemandSamples {
            station_names: vec!["s0".into()],
            server_counts: vec![servers],
            think_time: 1.0,
            levels: vec![1.0, 100.0],
            demands: vec![vec![demand, demand]],
        };
        ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::Linear,
            DemandAxis::Concurrency,
        )
        .unwrap()
    }

    #[test]
    fn mvasd_solvers_implement_the_trait() {
        let p = flat_profile(0.01, 1);
        let solvers: Vec<Box<dyn ClosedSolver>> = vec![
            Box::new(MvasdSolver::new(p.clone())),
            Box::new(MvasdSingleServerSolver::new(p)),
        ];
        for s in &solvers {
            let sol = s.solve(30).unwrap();
            assert_eq!(sol.points.len(), 30, "{}", s.name());
        }
        assert_eq!(solvers[0].name(), "mvasd");
        assert_eq!(solvers[1].name(), "mvasd-single-server");
    }

    #[test]
    fn flat_profile_matches_static_solvers_through_trait() {
        // On a constant single-server profile the whole family is exact and
        // must agree with Algorithm 1 to machine precision.
        let p = flat_profile(0.016, 1);
        let net = ClosedNetwork::new(vec![Station::queueing("s0", 1, 1.0, 0.016)], 1.0).unwrap();
        let reference = ExactMvaSolver::new(net.clone()).solve(50).unwrap();
        let family: Vec<Box<dyn ClosedSolver>> = vec![
            Box::new(MvasdSolver::new(p.clone())),
            Box::new(MvasdSingleServerSolver::new(p)),
            Box::new(MultiserverMvaSolver::new(net)),
        ];
        for s in &family {
            let sol = s.solve(50).unwrap();
            for (a, b) in sol.points.iter().zip(reference.points.iter()) {
                assert!(
                    (a.throughput - b.throughput).abs() < 1e-9,
                    "{} n={}",
                    s.name(),
                    a.n
                );
            }
        }
    }

    #[test]
    fn zero_population_is_empty_across_the_family() {
        let p = flat_profile(0.01, 2);
        let family: Vec<Box<dyn ClosedSolver>> = vec![
            Box::new(MvasdSolver::new(p.clone())),
            Box::new(MvasdSingleServerSolver::new(p)),
        ];
        for s in &family {
            let sol = s.solve(0).unwrap();
            assert!(sol.points.is_empty(), "{}", s.name());
            assert_eq!(
                &sol.station_names[..],
                &["s0".to_string()][..],
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn streaming_matches_batch_for_the_mvasd_family() {
        let p = flat_profile(0.012, 4);
        let family: Vec<Box<dyn ClosedSolver>> = vec![
            Box::new(MvasdSolver::new(p.clone())),
            Box::new(MvasdSingleServerSolver::new(p)),
        ];
        for s in &family {
            let batch = s.solve(40).unwrap();
            let streamed = s.start().unwrap().drain(40).unwrap();
            assert_eq!(batch, streamed, "{}", s.name());

            // Paused mid-sweep, the iterator drains to the bit-identical tail.
            let mut iter = s.start().unwrap();
            for _ in 0..15 {
                iter.step().unwrap();
            }
            let tail = iter.drain(40).unwrap();
            assert_eq!(tail.points, batch.points[15..], "{}", s.name());
        }
    }

    #[test]
    fn core_error_converts_to_queueing_error() {
        let e: QueueingError = CoreError::InvalidParameter { what: "x" }.into();
        assert!(matches!(e, QueueingError::InvalidParameter { what: "x" }));
        let e: QueueingError = CoreError::Queueing(QueueingError::EmptyNetwork).into();
        assert_eq!(e, QueueingError::EmptyNetwork);
        let e: QueueingError =
            CoreError::Numerics(mvasd_numerics::NumericsError::SingularSystem).into();
        assert!(matches!(e, QueueingError::Numerics(_)));
    }
}
