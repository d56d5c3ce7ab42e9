//! The streaming face of the solver stack: population stepping, pause /
//! resume, and the SLA stop rule.
//!
//! Every closed-network solver in this workspace is a population recursion
//! at heart — the solution at population `n` is derived from `n − 1`
//! (Reiser & Lavenberg's Arrival Theorem), or at worst recomputed per
//! population from carried state. [`SolverIter`] exposes that structure:
//! one [`MvaPoint`] per call to [`SolverIter::step`], with the recursion
//! state carried inside the iterator so a paused sweep can resume where it
//! left off.
//!
//! [`StopCondition`] + [`run_until`] turn the iterator into an early-exit
//! engine: an SLA query ("first population whose response time exceeds
//! 2 s") walks only as far as the answer, instead of solving `1..=n_max`
//! and scanning afterwards.

use super::{MvaSolution, PopulationPoint};
use crate::QueueingError;
use mvasd_obsv as obsv;
use std::sync::Arc;

/// One population step's worth of output — alias for the batch API's
/// [`PopulationPoint`], so streamed and drained points are literally the
/// same type (and can be compared bit-for-bit).
pub type MvaPoint = PopulationPoint;

/// A resumable population-stepping solver.
///
/// Implementations carry the full recursion state (queue lengths, marginal
/// probabilities, partial convolutions) between calls, so:
///
/// * [`step`](Self::step) advances exactly one population and yields that
///   point;
/// * the iterator can be paused indefinitely and resumed — there is no
///   hidden batch buffer.
///
/// The contract every backend upholds (and the root `streaming` suite
/// enforces): draining a fresh iterator to `n_max` reproduces the batch
/// `solve(n_max)` output **bit-for-bit**, and so does draining one paused
/// mid-sweep, from its pause point on.
pub trait SolverIter: Send {
    /// Station names, in network declaration order.
    fn station_names(&self) -> &[String];

    /// Station names as a shared handle, for assembling solutions without
    /// re-cloning every string. Backends that already keep their names in
    /// an `Arc<[String]>` override this with a reference-count bump; the
    /// default clones once.
    fn shared_names(&self) -> Arc<[String]> {
        self.station_names().to_vec().into()
    }

    /// The last population yielded (0 for a fresh iterator). The next
    /// [`step`](Self::step) yields `population() + 1`.
    fn population(&self) -> usize;

    /// Advances the recursion one population and yields that point.
    fn step(&mut self) -> Result<MvaPoint, QueueingError>;

    /// Drains the iterator up to population `n_max` (inclusive) and packs
    /// the yielded points into an [`MvaSolution`]. On a fresh iterator this
    /// is exactly the batch solve; on a warm iterator it returns only the
    /// remaining points (`population()+1 ..= n_max`), which may be empty.
    fn drain(&mut self, n_max: usize) -> Result<MvaSolution, QueueingError> {
        let mut points = Vec::with_capacity(n_max.saturating_sub(self.population()));
        while self.population() < n_max {
            points.push(self.step()?);
        }
        Ok(MvaSolution {
            station_names: self.shared_names(),
            points,
        })
    }
}

/// Early-exit criterion for a streaming sweep, checked after every yielded
/// point: the SLA question of the paper's Fig. 17. The population cap of
/// [`run_until`] bounds every sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCondition {
    /// Stop at the first population whose system response time (excluding
    /// think time) exceeds the ceiling — the point where the SLA breaks.
    SlaResponseTime {
        /// Response-time ceiling in seconds.
        max_response: f64,
    },
}

impl StopCondition {
    /// Whether the condition is met at `point`.
    pub fn is_met(&self, point: &MvaPoint) -> bool {
        match *self {
            StopCondition::SlaResponseTime { max_response } => point.response > max_response,
        }
    }
}

/// Why a [`run_until`] sweep stopped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopReason {
    /// This condition fired (the first match in the conditions slice).
    Met(StopCondition),
    /// No condition fired before the population cap was reached.
    PopulationCap,
}

impl StopReason {
    /// The observability counter name bumped when this reason fires, so
    /// collectors can break down runs by what stopped them (e.g.
    /// `stop.sla_response_time`).
    pub fn metric_name(&self) -> &'static str {
        match self {
            StopReason::Met(StopCondition::SlaResponseTime { .. }) => "stop.sla_response_time",
            StopReason::PopulationCap => "stop.population_cap",
        }
    }
}

/// The output of a [`run_until`] sweep.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The points yielded by **this run** (a warm iterator's earlier points
    /// are not replayed), ascending in population. The last point is the
    /// one that triggered `reason`, unless the cap cut the run short.
    pub solution: MvaSolution,
    /// What stopped the sweep.
    pub reason: StopReason,
}

/// Steps `iter` until a stop condition fires or the population reaches
/// `n_cap`, whichever comes first.
///
/// Conditions are checked after every yielded point, in slice order; the
/// first match wins. An already-warm iterator contributes its current
/// population toward the cap but its previously yielded points are not
/// re-checked.
pub fn run_until(
    iter: &mut dyn SolverIter,
    conditions: &[StopCondition],
    n_cap: usize,
) -> Result<RunOutcome, QueueingError> {
    let _span = obsv::span_with("run_until", || format!("n_cap={n_cap}"));
    let mut points: Vec<MvaPoint> = Vec::new();
    let reason = loop {
        if iter.population() >= n_cap {
            break StopReason::PopulationCap;
        }
        let point = iter.step()?;
        let met = conditions.iter().find(|c| c.is_met(&point)).copied();
        points.push(point);
        if let Some(c) = met {
            break StopReason::Met(c);
        }
    };
    if obsv::enabled() {
        obsv::counter("run_until.calls", 1);
        obsv::counter("run_until.steps", points.len() as u64);
        // The early-exit currency: populations the cap allowed but the
        // stop condition made unnecessary.
        obsv::counter(
            "run_until.steps_saved",
            n_cap.saturating_sub(iter.population()) as u64,
        );
        obsv::counter(reason.metric_name(), 1);
    }
    Ok(RunOutcome {
        solution: MvaSolution {
            station_names: iter.shared_names(),
            points,
        },
        reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::StationPoint;

    /// A synthetic recursion with a saturating throughput curve:
    /// X(n) = min(n, 10), R(n) = n/X − 1 (think time 1.0).
    #[derive(Debug)]
    struct FakeIter {
        names: Vec<String>,
        n: usize,
    }

    impl FakeIter {
        fn new() -> Self {
            Self {
                names: vec!["s0".into()],
                n: 0,
            }
        }
    }

    impl SolverIter for FakeIter {
        fn station_names(&self) -> &[String] {
            &self.names
        }
        fn population(&self) -> usize {
            self.n
        }
        fn step(&mut self) -> Result<MvaPoint, QueueingError> {
            self.n += 1;
            let n = self.n;
            let x = (n as f64).min(10.0);
            let r = n as f64 / x - 1.0;
            Ok(MvaPoint {
                n,
                throughput: x,
                response: r,
                cycle_time: r + 1.0,
                stations: vec![StationPoint {
                    queue: n as f64 - x,
                    residence: r,
                    utilization: x / 10.0,
                }],
            })
        }
    }

    #[test]
    fn drain_from_fresh_and_warm() {
        let full = FakeIter::new().drain(5).unwrap();
        assert_eq!(full.points.len(), 5);
        assert_eq!(full.points[4].n, 5);

        // Paused after two steps, the iterator drains to the batch tail.
        let mut it = FakeIter::new();
        it.step().unwrap();
        it.step().unwrap();
        let rest = it.drain(5).unwrap();
        assert_eq!(rest.points, full.points[2..]);
        // Draining below the current population yields nothing.
        assert!(it.drain(2).unwrap().points.is_empty());
    }

    #[test]
    fn run_until_sla_ceiling() {
        // R(n) = n/10 − 1 for n >= 10: first exceeds 0.55 at n = 16.
        let mut it = FakeIter::new();
        let out = run_until(
            &mut it,
            &[StopCondition::SlaResponseTime { max_response: 0.55 }],
            100,
        )
        .unwrap();
        assert_eq!(
            out.reason,
            StopReason::Met(StopCondition::SlaResponseTime { max_response: 0.55 })
        );
        assert_eq!(out.solution.points.len(), 16);
        assert_eq!(out.solution.last().n, 16);
    }

    #[test]
    fn run_until_cap_and_warm_iterators() {
        let mut it = FakeIter::new();
        let out = run_until(&mut it, &[], 6).unwrap();
        assert_eq!(out.reason, StopReason::PopulationCap);
        assert_eq!(out.solution.points.len(), 6);
        // Warm continuation: only the remaining steps run.
        let out2 = run_until(&mut it, &[], 9).unwrap();
        assert_eq!(out2.solution.points.len(), 3);
        assert_eq!(out2.solution.points[0].n, 7);
        // Cap at/below the current population: nothing runs.
        let out3 = run_until(&mut it, &[], 9).unwrap();
        assert!(out3.solution.points.is_empty());
        assert_eq!(out3.reason, StopReason::PopulationCap);
    }

    #[test]
    fn conditions_are_checked_in_order() {
        // R(n) = 0 up to n = 10, 0.1 at n = 11 and 0.6 at n = 16: the
        // looser ceiling is listed first, but the tighter one fires first
        // and is reported.
        let loose = StopCondition::SlaResponseTime { max_response: 0.55 };
        let tight = StopCondition::SlaResponseTime { max_response: 0.0 };
        let mut it = FakeIter::new();
        let out = run_until(&mut it, &[loose, tight], 100).unwrap();
        assert_eq!(out.reason, StopReason::Met(tight));
        assert_eq!(out.solution.last().n, 11);
        // When both fire at the same point, the first listed wins.
        let mut it = FakeIter::new();
        let also_loose = StopCondition::SlaResponseTime { max_response: 0.5 };
        let out = run_until(&mut it, &[loose, also_loose], 100).unwrap();
        assert_eq!(out.reason, StopReason::Met(loose));
        assert_eq!(out.solution.last().n, 16);
    }
}
