//! Mean Value Analysis solvers.
//!
//! All solvers walk the population up from 1 customer to `N` (the exact MVA
//! recursion of paper Algorithm 1/2) or fix-point at `N` (Schweitzer), and
//! return the full per-population series — the paper's figures plot
//! throughput and cycle time against concurrency, so the whole curve is the
//! natural output, not just the final point.

pub(crate) mod convolution;
mod exact;
mod loaddep;
mod multiclass;
mod multiserver;
mod schweitzer;
mod solver;
mod stepping;

pub use convolution::{reference_solve_at, ConvWorkspace, PointSolution};
pub use exact::{exact_mva, ExactMvaIter};
pub use loaddep::{load_dependent_mva, LdStation, RateFunction};
pub use multiclass::{
    multiclass_mva, run_until_classes, ClassMetrics, ClassPoint, ClassRunOutcome, ClassSpec,
    ClassStopReason, MulticlassIter, MulticlassMvaSolver, MulticlassPoint, MulticlassSolution,
    MulticlassWorkspace, Workload,
};
pub use multiserver::{
    multiserver_mva, multiserver_mva_with_marginals, MarginalTrace, PopulationRecursion,
};
pub use schweitzer::{schweitzer_mva, SchweitzerIter, SchweitzerOptions};
pub use solver::{ClosedSolver, ExactMvaSolver, MultiserverMvaSolver, SchweitzerSolver};
pub use stepping::{run_until, MvaPoint, RunOutcome, SolverIter, StopCondition, StopReason};

/// Per-station metrics at one population level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationPoint {
    /// Mean number of customers at the station (queued + in service), `Q_k`.
    pub queue: f64,
    /// Residence time per system interaction, `V_k · R_k` (seconds).
    pub residence: f64,
    /// Per-server utilization `X·D_k/C_k` for queueing stations (fraction of
    /// one server's capacity, in `[0, 1]`); `X·D_k` (mean jobs in service)
    /// for delay stations.
    pub utilization: f64,
}

/// System-level and per-station metrics at one population level.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationPoint {
    /// Population (number of concurrent users) `n`.
    pub n: usize,
    /// System throughput `X_n` (interactions per second).
    pub throughput: f64,
    /// System response time `R_n` (seconds, excluding think time).
    pub response: f64,
    /// Cycle time `R_n + Z` (the paper reports this as "Response Time
    /// (Cycle Time)" in Tables 4–5).
    pub cycle_time: f64,
    /// Per-station metrics, in network declaration order.
    pub stations: Vec<StationPoint>,
}

/// The population series produced by a solver.
#[derive(Debug, Clone, PartialEq)]
pub struct MvaSolution {
    /// Station names, in network declaration order. Shared (`Arc`) because
    /// every drained solution, early-exit outcome, and sweep result carries
    /// the same names — cloning a solution or assembling one per scenario
    /// bumps a reference count instead of re-cloning every `String`.
    pub station_names: std::sync::Arc<[String]>,
    /// One point per population `1..=N`, ascending.
    pub points: Vec<PopulationPoint>,
}

impl MvaSolution {
    /// The point at population `n` (1-based); `None` if out of range.
    pub fn at(&self, n: usize) -> Option<&PopulationPoint> {
        if n == 0 {
            return None;
        }
        self.points.get(n - 1)
    }

    /// The highest-population point.
    ///
    /// # Panics
    /// On an empty solution (a `solve(0)` / fully-drained sweep yields no
    /// points); use `points.last()` when emptiness is expected.
    pub fn last(&self) -> &PopulationPoint {
        self.points
            .last()
            .expect("solution has no points (population 0 sweep?)")
    }

    /// Throughput series `X_1..X_N`.
    pub fn throughputs(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.throughput).collect()
    }

    /// Response-time series `R_1..R_N`.
    pub fn responses(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.response).collect()
    }

    /// Cycle-time series `(R+Z)_1..(R+Z)_N`.
    pub fn cycle_times(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.cycle_time).collect()
    }

    /// Per-population utilization series for station `k`.
    pub fn utilizations(&self, k: usize) -> Vec<f64> {
        self.points
            .iter()
            .map(|p| p.stations[k].utilization)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_solution() -> MvaSolution {
        MvaSolution {
            station_names: vec!["a".to_string()].into(),
            points: (1..=3)
                .map(|n| PopulationPoint {
                    n,
                    throughput: n as f64,
                    response: 0.1 * n as f64,
                    cycle_time: 0.1 * n as f64 + 1.0,
                    stations: vec![StationPoint {
                        queue: n as f64 * 0.5,
                        residence: 0.1,
                        utilization: 0.2 * n as f64,
                    }],
                })
                .collect(),
        }
    }

    #[test]
    fn accessors() {
        let s = dummy_solution();
        assert_eq!(s.at(0), None);
        assert_eq!(s.at(2).unwrap().n, 2);
        assert_eq!(s.at(4), None);
        assert_eq!(s.last().n, 3);
        assert_eq!(s.throughputs(), vec![1.0, 2.0, 3.0]);
        assert_eq!(s.responses().len(), 3);
        assert_eq!(s.cycle_times()[0], 1.1);
        assert_eq!(s.utilizations(0), vec![0.2, 0.4, 0.6000000000000001]);
    }
}
