//! The three-step prediction workflow of paper Fig. 17.
//!
//! > "Depending on the range of concurrences and values, Step 1 should
//! > generate the load testing points using Chebyshev Nodes. This is
//! > followed by actual load tests in Step 2 to generate service demand
//! > samples. The final Step 3 integrates this input with spline
//! > interpolation to generate an array of service demands; the MVASD
//! > algorithm then predicts the throughput and cycle times of the
//! > application under test."
//!
//! Step 2 (driving the load) belongs to the testbed layer, so the workflow
//! type here is deliberately split around it: [`PredictionWorkflow::design`]
//! is Step 1, the caller runs the tests however their lab works, and
//! [`PredictionWorkflow::predict`] is Step 3. This keeps `mvasd-core` pure
//! math while still encoding the full recipe.

use mvasd_queueing::mva::{run_until, ClosedSolver, MvaSolution, RunOutcome, StopCondition};

use crate::designer::{design_levels, SamplingStrategy};
use crate::profile::{DemandAxis, DemandSamples, InterpolationKind, ServiceDemandProfile};
use crate::solver::MvasdSolver;
use crate::sweep::ScenarioSweep;
use crate::CoreError;

/// The Fig. 17 workflow configuration.
///
/// ```
/// use mvasd_core::pipeline::PredictionWorkflow;
/// use mvasd_core::profile::DemandSamples;
///
/// let wf = PredictionWorkflow { test_points: 3, range: (1.0, 300.0),
///                               ..PredictionWorkflow::default() };
/// // Step 1: where to load test.
/// let levels = wf.design().unwrap();
/// assert_eq!(levels, vec![22, 151, 280]);
/// // Step 2 happens in your lab; suppose it measured these demands:
/// let samples = DemandSamples {
///     station_names: vec!["db".into()],
///     server_counts: vec![1],
///     think_time: 1.0,
///     levels: levels.iter().map(|&l| l as f64).collect(),
///     demands: vec![vec![0.0115, 0.0101, 0.0100]],
/// };
/// // Step 3: interpolate + MVASD.
/// let prediction = wf.predict(&samples, 300).unwrap();
/// assert!(prediction.last().throughput <= 100.0 + 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionWorkflow {
    /// Step 1 point-placement strategy (the paper recommends Chebyshev).
    pub strategy: SamplingStrategy,
    /// Number of load tests to run.
    pub test_points: usize,
    /// Concurrency range `[a, b]` of interest.
    pub range: (f64, f64),
    /// Step 3 interpolation family (the paper uses cubic splines).
    pub interpolation: InterpolationKind,
    /// Demand abscissa (concurrency in the paper's main model).
    pub axis: DemandAxis,
}

impl Default for PredictionWorkflow {
    fn default() -> Self {
        Self {
            strategy: SamplingStrategy::Chebyshev,
            test_points: 5,
            range: (1.0, 300.0),
            interpolation: InterpolationKind::CubicNotAKnot,
            axis: DemandAxis::Concurrency,
        }
    }
}

impl PredictionWorkflow {
    /// **Step 1** — the concurrency levels at which to run load tests.
    pub fn design(&self) -> Result<Vec<u64>, CoreError> {
        design_levels(self.strategy, self.test_points, self.range.0, self.range.1)
    }

    /// **Step 3** — interpolate the measured demand samples and solve up
    /// to `n_max` with exact multi-server MVASD. `samples.levels`
    /// need not equal the designed levels (labs sometimes can't hit exact
    /// user counts), but should cover a similar range.
    pub fn predict(&self, samples: &DemandSamples, n_max: usize) -> Result<MvaSolution, CoreError> {
        let solver = self.solver(samples)?;
        self.predict_with_solver(&solver, n_max)
    }

    /// Step 3 with the profile exposed (for utilization inspection, Fig. 9).
    pub fn predict_with_profile(
        &self,
        samples: &DemandSamples,
        n_max: usize,
    ) -> Result<(ServiceDemandProfile, MvaSolution), CoreError> {
        let profile = ServiceDemandProfile::from_samples(samples, self.interpolation, self.axis)?;
        let sol = MvasdSolver::new(profile.clone())
            .solve(n_max)
            .map_err(CoreError::from)?;
        Ok((profile, sol))
    }

    /// Builds the Step 3 solver for measured samples under this workflow's
    /// interpolation settings.
    pub fn solver(&self, samples: &DemandSamples) -> Result<MvasdSolver, CoreError> {
        let profile = ServiceDemandProfile::from_samples(samples, self.interpolation, self.axis)?;
        Ok(MvasdSolver::new(profile))
    }

    /// Runs **any** [`ClosedSolver`] as the workflow's Step 3 — the hook
    /// that makes external backends (static MVA·i baselines, the testbed's
    /// simulation estimator) one-line swaps in comparison code.
    pub fn predict_with_solver<S: ClosedSolver + ?Sized>(
        &self,
        solver: &S,
        n_max: usize,
    ) -> Result<MvaSolution, CoreError> {
        solver.solve(n_max).map_err(CoreError::from)
    }

    /// Step 3 with early exit: streams the population sweep and stops at
    /// the first condition met (SLA ceiling, bottleneck saturation,
    /// throughput plateau, …) instead of always solving to `n_cap`. The
    /// outcome reports both the truncated series and *why* it stopped.
    pub fn predict_until(
        &self,
        samples: &DemandSamples,
        conditions: &[StopCondition],
        n_cap: usize,
    ) -> Result<RunOutcome, CoreError> {
        let solver = self.solver(samples)?;
        let mut iter = solver.start().map_err(CoreError::from)?;
        run_until(iter.as_mut(), conditions, n_cap).map_err(CoreError::from)
    }

    /// A [`ScenarioSweep`] seeded with this workflow's interpolation and
    /// axis: the entry point for what-if families over one set of measured
    /// samples.
    pub fn scenario_sweep(&self, samples: DemandSamples) -> ScenarioSweep {
        ScenarioSweep::new(samples)
            .interpolation(self.interpolation)
            .axis(self.axis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_lab_measure(levels: &[u64]) -> DemandSamples {
        // A "lab" whose true demand curve is D(n) = 0.010 + 0.002·e^{-n/50}.
        let truth = |n: f64| 0.010 + 0.002 * (-n / 50.0).exp();
        DemandSamples {
            station_names: vec!["db".into()],
            server_counts: vec![1],
            think_time: 1.0,
            levels: levels.iter().map(|&l| l as f64).collect(),
            demands: vec![levels.iter().map(|&l| truth(l as f64)).collect()],
        }
    }

    #[test]
    fn full_workflow_predicts_the_true_system() {
        let wf = PredictionWorkflow {
            test_points: 5,
            range: (1.0, 300.0),
            ..PredictionWorkflow::default()
        };
        let levels = wf.design().unwrap();
        assert_eq!(levels, vec![9, 63, 151, 239, 293]);
        let samples = fake_lab_measure(&levels);
        let sol = wf.predict(&samples, 300).unwrap();
        // The true system saturates at 1/D(n→∞) ≈ 1/0.010 ≈ 100 (asymptote
        // ~0.010 + tiny); MVASD should land within a percent or two.
        let x = sol.last().throughput;
        assert!((97.0..=100.5).contains(&x), "got {x}");
    }

    #[test]
    fn three_chebyshev_points_already_accurate() {
        // Paper Fig. 16: "even with just 3 Chebyshev Nodes, the predicted
        // throughput and cycle times are quite accurate."
        let wf7 = PredictionWorkflow {
            test_points: 7,
            ..PredictionWorkflow::default()
        };
        let wf3 = PredictionWorkflow {
            test_points: 3,
            ..PredictionWorkflow::default()
        };
        let sol7 = wf7
            .predict(&fake_lab_measure(&wf7.design().unwrap()), 300)
            .unwrap();
        let sol3 = wf3
            .predict(&fake_lab_measure(&wf3.design().unwrap()), 300)
            .unwrap();
        for n in [10usize, 50, 150, 300] {
            let x7 = sol7.at(n).unwrap().throughput;
            let x3 = sol3.at(n).unwrap().throughput;
            assert!((x7 - x3).abs() / x7 < 0.02, "n={n}: {x3} vs {x7}");
        }
    }

    #[test]
    fn predict_with_profile_exposes_interpolant() {
        let wf = PredictionWorkflow::default();
        let samples = fake_lab_measure(&[1, 100, 300]);
        let (profile, sol) = wf.predict_with_profile(&samples, 100).unwrap();
        assert_eq!(profile.stations().len(), 1);
        assert_eq!(sol.points.len(), 100);
    }

    #[test]
    fn default_matches_paper_recommendation() {
        let wf = PredictionWorkflow::default();
        assert_eq!(wf.strategy, SamplingStrategy::Chebyshev);
        assert_eq!(wf.interpolation, InterpolationKind::CubicNotAKnot);
        assert_eq!(wf.axis, DemandAxis::Concurrency);
    }

    #[test]
    fn predict_until_stops_at_the_sla_ceiling() {
        use mvasd_queueing::mva::StopReason;
        let wf = PredictionWorkflow::default();
        let samples = fake_lab_measure(&[1, 100, 300]);
        let full = wf.predict(&samples, 300).unwrap();
        let outcome = wf
            .predict_until(
                &samples,
                &[StopCondition::SlaResponseTime { max_response: 1.0 }],
                300,
            )
            .unwrap();
        assert!(matches!(outcome.reason, StopReason::Met(_)));
        assert!(outcome.solution.points.len() < 300);
        // The streamed prefix is bit-identical to the batch solve.
        assert_eq!(
            outcome.solution.points,
            full.points[..outcome.solution.points.len()]
        );
        assert!(outcome.solution.last().response > 1.0);
    }

    #[test]
    fn scenario_sweep_inherits_workflow_settings() {
        let wf = PredictionWorkflow::default();
        let samples = fake_lab_measure(&[1, 100, 300]);
        let full = wf.predict(&samples, 60).unwrap();
        let mut sweep = wf.scenario_sweep(samples);
        let report = sweep
            .run(&[crate::sweep::Scenario::new("baseline").cap(60)])
            .unwrap();
        assert_eq!(report.results[0].solution, full);
    }

    #[test]
    fn design_errors_propagate() {
        let wf = PredictionWorkflow {
            test_points: 0,
            ..PredictionWorkflow::default()
        };
        assert!(wf.design().is_err());
    }
}
