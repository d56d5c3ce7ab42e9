//! [`ClosedSolver`] implementations for the MVASD family.
//!
//! These adapters put the paper's Algorithm 3 (and its single-server and
//! Schweitzer variants) behind the same interface as the static MVA
//! solvers in `mvasd-queueing`, so "MVA·i vs MVASD" comparisons — and any
//! pipeline stage that consumes a solver — are one-line swaps.
//!
//! The model bound at construction is a [`ServiceDemandProfile`] rather
//! than a static network: the defining feature of MVASD is that demands
//! are re-interpolated at every population step.
//!
//! The hierarchical Norton-aggregation family ([`HierarchicalSolver`] and
//! its model types) is re-exported here from `mvasd-queueing`, so
//! microservice-scale topologies slot into the same comparison pipelines
//! and [`crate::sweep::ScenarioSweep`] campaigns as every other backend.
//!
//! Likewise the first-class multiclass model: a [`Workload`] is a set of
//! [`ClassSpec`]s over a shared station list, and the class-aware solvers
//! ([`MulticlassMvaSolver`] streaming the carried lattice workspace,
//! [`MomSolver`] on normalizing-constant recurrences) stream per-class
//! [`MulticlassPoint`]s along a population *path* through the class
//! lattice — single-class is literally the 1-class special case (bit-for-bit
//! against the exact backend; see `tests/properties.rs`).

use mvasd_queueing::mva::{ClosedSolver, SolverIter};
use mvasd_queueing::QueueingError;

pub use mvasd_queueing::hierarchy::{
    workload_fes_station, AggregationOptions, AggregationStats, HierarchicalNetwork,
    HierarchicalSolver, NetworkNode, ProfileCache, Subsystem,
};
pub use mvasd_queueing::mva::{
    multiclass_mva, run_until_classes, ClassMetrics, ClassPoint, ClassRunOutcome, ClassSpec,
    ClassStopReason, MomIter, MomSolver, MulticlassIter, MulticlassMvaSolver, MulticlassPoint,
    MulticlassSolution, MulticlassStepper, MulticlassWorkspace, Workload,
};

use crate::algorithm::{MvasdIter, MvasdSchweitzerIter, MvasdSingleServerIter};
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

/// Approximate MVASD: Schweitzer fixed point with the Seidmann transform
/// over per-population interpolated demands. Expect the documented ~2–20 %
/// knee-region deviation of the Schweitzer family.
#[derive(Debug, Clone)]
pub struct MvasdSchweitzerSolver {
    profile: ServiceDemandProfile,
}

impl MvasdSchweitzerSolver {
    /// Binds the solver to an interpolated demand profile.
    pub fn new(profile: ServiceDemandProfile) -> Self {
        Self { profile }
    }
}

impl ClosedSolver for MvasdSchweitzerSolver {
    fn name(&self) -> &str {
        "mvasd-schweitzer"
    }

    fn start(&self) -> Result<Box<dyn SolverIter>, QueueingError> {
        Ok(Box::new(MvasdSchweitzerIter::new(&self.profile)))
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
            Box::new(MvasdSingleServerSolver::new(p.clone())),
            Box::new(MvasdSchweitzerSolver::new(p)),
        ];
        for s in &solvers {
            let sol = s.solve(30).unwrap();
            assert_eq!(sol.points.len(), 30, "{}", s.name());
        }
        assert_eq!(solvers[0].name(), "mvasd");
        assert_eq!(solvers[1].name(), "mvasd-single-server");
        assert_eq!(solvers[2].name(), "mvasd-schweitzer");
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
            Box::new(MvasdSingleServerSolver::new(p.clone())),
            Box::new(MvasdSchweitzerSolver::new(p)),
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
            Box::new(MvasdSingleServerSolver::new(p.clone())),
            Box::new(MvasdSchweitzerSolver::new(p)),
        ];
        for s in &family {
            let batch = s.solve(40).unwrap();
            let streamed = s.start().unwrap().drain(40).unwrap();
            assert_eq!(batch, streamed, "{}", s.name());

            // Snapshot mid-sweep and resume: the tail must be bit-identical.
            let mut iter = s.start().unwrap();
            for _ in 0..15 {
                iter.step().unwrap();
            }
            let snap = iter.snapshot();
            let tail = snap.resume().drain(40).unwrap();
            assert_eq!(tail.points, batch.points[15..], "{}", s.name());
        }
    }

    #[test]
    fn multiclass_backends_agree_through_the_trait() {
        use mvasd_queueing::network::StationKind;
        let w = Workload::new(
            vec!["cpu".into(), "disk".into()],
            vec![
                StationKind::Queueing { servers: 2 },
                StationKind::Queueing { servers: 1 },
            ],
            vec![
                ClassSpec {
                    name: "browse".into(),
                    population: 6,
                    think_time: 1.0,
                    demands: vec![0.02, 0.01],
                },
                ClassSpec {
                    name: "checkout".into(),
                    population: 4,
                    think_time: 0.5,
                    demands: vec![0.008, 0.03],
                },
            ],
        )
        .unwrap();
        let total = w.total_population();
        let family: Vec<Box<dyn ClosedSolver>> = vec![
            Box::new(MulticlassMvaSolver::new(w.clone())),
            Box::new(MomSolver::new(w)),
        ];
        let mut finals = Vec::new();
        for s in &family {
            let sol = s.solve(total).unwrap();
            assert_eq!(sol.points.len(), total, "{}", s.name());
            finals.push(sol.points.last().unwrap().throughput);
        }
        assert!((finals[0] - finals[1]).abs() <= 1e-8 * finals[0]);
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
