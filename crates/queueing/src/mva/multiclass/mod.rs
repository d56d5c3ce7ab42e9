//! Multiclass MVA: class-aware workloads and the streaming lattice
//! recursion (extension beyond the paper).
//!
//! The paper restricts itself to "single class models wherein the customers
//! are assumed to be indistinguishable from one another" (Section 5.1). Real
//! load tests mix workflows — e.g. VINS' Registration vs Renew-Policy users
//! — so the suite ships exact multiclass analysis as an extension built
//! around two faces:
//!
//! * [`multiclass_mva`] (in [`scratch`]) — the original one-shot full
//!   lattice recursion, kept verbatim as the oracle the streaming face is
//!   checked against.
//! * [`MulticlassWorkspace`] / [`MulticlassIter`] — the carried-state
//!   streaming face: the population grows one customer at a time along a
//!   [`Workload::proportional_path`] through the class lattice, and each
//!   [`MulticlassWorkspace::advance`] fills only the *new slab* of lattice
//!   points exposed by that step. A full walk costs exactly one lattice
//!   solve in total, where re-running the scratch oracle per step costs a
//!   quadratic blow-up (see `benches/multiclass.rs`).
//!
//! Both faces apply the multiclass Arrival Theorem
//! `R_{c,k}(n⃗) = D_{c,k} · (1 + Q_k(n⃗ − e_c))` and handle multi-server
//! stations with the Seidmann split
//! (`D/C` queueing part plus a `D·(C−1)/C` delay part).
//!
//! Complexity is `O(K · Π_c (N_c + 1))`; both faces refuse lattices above
//! a safety cap rather than exhausting memory.
//!
//! The single-class embedding is exact by construction: a one-class
//! [`Workload`] steps through [`MulticlassIter`] with arithmetic that is
//! bit-for-bit the single-class [`super::ExactMvaIter`] recursion on
//! single-server networks (enforced by a propcheck in `tests/properties.rs`).

mod scratch;
mod workspace;

pub use scratch::multiclass_mva;
pub use workspace::MulticlassWorkspace;

use std::sync::Arc;

use crate::network::{ClosedNetwork, StationKind};
use crate::QueueingError;
use mvasd_obsv as obsv;

use super::stepping::{MvaPoint, SolverIter, StopCondition, StopReason};
use super::{ClosedSolver, StationPoint};

/// One customer class: its population, think time, and per-station demands.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Class label, e.g. `"renew-policy"`.
    pub name: String,
    /// Number of customers of this class, `N_c`.
    pub population: usize,
    /// Class think time `Z_c`.
    pub think_time: f64,
    /// Service demand of this class at each station, `D_{c,k}` (same station
    /// order across classes).
    pub demands: Vec<f64>,
}

/// Per-class results at the full population.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassMetrics {
    /// Class label.
    pub name: String,
    /// Class throughput `X_c`.
    pub throughput: f64,
    /// Class response time `R_c` (excluding think time).
    pub response: f64,
}

/// Solution of the multiclass model at the full population vector.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticlassSolution {
    /// Per-class throughput/response.
    pub classes: Vec<ClassMetrics>,
    /// Mean total queue length per station (all classes).
    pub station_queues: Vec<f64>,
    /// Per-station total utilization `Σ_c X_c · D_{c,k}` (divided by server
    /// count for multi-server stations).
    pub station_utilizations: Vec<f64>,
}

/// Maximum number of lattice points the solvers will allocate (`K` floats
/// each). 16 M points ≈ 128 MB·K/8 — generous but bounded.
const MAX_LATTICE: usize = 16_000_000;

/// Validates a class/station description shared by every multiclass face.
pub(crate) fn validate_classes(
    classes: &[ClassSpec],
    station_kinds: &[StationKind],
) -> Result<(), QueueingError> {
    if classes.is_empty() {
        return Err(QueueingError::InvalidParameter {
            what: "need at least one class",
        });
    }
    let k_count = station_kinds.len();
    if k_count == 0 {
        return Err(QueueingError::EmptyNetwork);
    }
    for c in classes {
        if c.demands.len() != k_count {
            return Err(QueueingError::InvalidParameter {
                what: "every class must give one demand per station",
            });
        }
        if c.demands.iter().any(|d| !(d.is_finite() && *d >= 0.0)) {
            return Err(QueueingError::InvalidParameter {
                what: "demands must be finite and >= 0",
            });
        }
        if !(c.think_time.is_finite() && c.think_time >= 0.0) {
            return Err(QueueingError::InvalidParameter {
                what: "think time must be finite and >= 0",
            });
        }
    }
    for kind in station_kinds {
        match kind {
            StationKind::Queueing { servers: 0 } => {
                return Err(QueueingError::InvalidParameter {
                    what: "station must have at least one server",
                });
            }
            StationKind::LoadDependent { .. } => {
                return Err(QueueingError::InvalidParameter {
                    what: "exact multiclass MVA does not support load-dependent stations",
                });
            }
            _ => {}
        }
    }
    Ok(())
}

/// Seidmann-style split per (class, station) into flat `C×K` buffers
/// (`c * K + k`): queueing part `D/C` and delay part `D·(C−1)/C`; delay
/// stations are all delay part.
pub(crate) fn split_demands(
    classes: &[ClassSpec],
    station_kinds: &[StationKind],
) -> (Vec<f64>, Vec<f64>) {
    let k_count = station_kinds.len();
    let mut dq = vec![0.0f64; classes.len() * k_count];
    let mut dd = vec![0.0f64; classes.len() * k_count];
    for (ci, c) in classes.iter().enumerate() {
        for (k, kind) in station_kinds.iter().enumerate() {
            match kind {
                StationKind::Delay => dd[ci * k_count + k] = c.demands[k],
                StationKind::Queueing { servers } => {
                    let cc = *servers as f64;
                    dq[ci * k_count + k] = c.demands[k] / cc;
                    dd[ci * k_count + k] = c.demands[k] * (cc - 1.0) / cc;
                }
                // Rejected by `validate_classes`.
                StationKind::LoadDependent { .. } => unreachable!(),
            }
        }
    }
    (dq, dd)
}

/// Per-class lattice dimensions `N_c + 1`.
pub(crate) fn lattice_dims(classes: &[ClassSpec]) -> Vec<usize> {
    classes.iter().map(|c| c.population + 1).collect()
}

/// Total lattice points, refused above `MAX_LATTICE`.
pub(crate) fn lattice_size(dims: &[usize]) -> Result<usize, QueueingError> {
    dims.iter()
        .try_fold(1usize, |acc, &d| {
            acc.checked_mul(d).filter(|&v| v <= MAX_LATTICE)
        })
        .ok_or(QueueingError::InvalidParameter {
            what: "population lattice too large for exact multiclass analysis",
        })
}

/// Mixed-radix strides for lexicographic lattice indexing (class 0 fastest).
pub(crate) fn lattice_strides(dims: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; dims.len()];
    for i in 1..dims.len() {
        s[i] = s[i - 1] * dims[i - 1];
    }
    s
}

/// A closed multiclass model: shared stations plus a set of customer
/// classes. This is the model the streaming solver is constructed
/// from, and the single-class [`ClosedNetwork`] embeds into it via
/// [`Workload::single_class`] without changing a bit of the recursion.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    names: Arc<[String]>,
    kinds: Vec<StationKind>,
    classes: Vec<ClassSpec>,
}

impl Workload {
    /// Builds a workload from station names/kinds (shared by all classes)
    /// and per-class populations/think times/demands.
    pub fn new(
        station_names: Vec<String>,
        station_kinds: Vec<StationKind>,
        classes: Vec<ClassSpec>,
    ) -> Result<Self, QueueingError> {
        if station_names.len() != station_kinds.len() {
            return Err(QueueingError::InvalidParameter {
                what: "need one station name per station kind",
            });
        }
        validate_classes(&classes, &station_kinds)?;
        Ok(Self {
            names: station_names.into(),
            kinds: station_kinds,
            classes,
        })
    }

    /// Builds a workload on an existing network's stations; each class
    /// brings its own demand vector (the network's per-station demands are
    /// ignored, its station kinds and order are kept).
    pub fn from_network(
        net: &ClosedNetwork,
        classes: Vec<ClassSpec>,
    ) -> Result<Self, QueueingError> {
        let names = net.stations().iter().map(|s| s.name.clone()).collect();
        let kinds = net.stations().iter().map(|s| s.kind.clone()).collect();
        Self::new(names, kinds, classes)
    }

    /// The 1-class embedding of a single-class network: one class named
    /// `"all"` carrying the network's demands and think time.
    pub fn single_class(net: &ClosedNetwork, population: usize) -> Result<Self, QueueingError> {
        let demands = net.stations().iter().map(|s| s.demand()).collect();
        Self::from_network(
            net,
            vec![ClassSpec {
                name: "all".to_string(),
                population,
                think_time: net.think_time(),
                demands,
            }],
        )
    }

    /// Station names, in declaration order.
    pub fn station_names(&self) -> &[String] {
        &self.names
    }

    /// Station names as a shared handle.
    pub fn shared_names(&self) -> Arc<[String]> {
        self.names.clone()
    }

    /// Station kinds, in declaration order.
    pub fn station_kinds(&self) -> &[StationKind] {
        &self.kinds
    }

    /// The customer classes.
    pub fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    /// Number of classes `C`.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of stations `K`.
    pub fn station_count(&self) -> usize {
        self.kinds.len()
    }

    /// Index of the class with the given name.
    pub fn class_index(&self, name: &str) -> Option<usize> {
        self.classes.iter().position(|c| c.name == name)
    }

    /// Target population per class, `N_c`.
    pub fn populations(&self) -> Vec<usize> {
        self.classes.iter().map(|c| c.population).collect()
    }

    /// Total population `Σ_c N_c` — the number of steps a full streaming
    /// walk takes.
    pub fn total_population(&self) -> usize {
        self.classes.iter().map(|c| c.population).sum()
    }

    /// The population path the streaming face walks: one class index per
    /// step, total `Σ N_c` steps, chosen by largest-remainder proportional
    /// interleaving so every prefix of the path holds the class mix as
    /// close to the target ratio as integer populations allow. Ties break
    /// toward the lowest class index, so the path is deterministic.
    pub fn proportional_path(&self) -> Vec<usize> {
        let total = self.total_population();
        let mut taken = vec![0usize; self.classes.len()];
        let mut path = Vec::with_capacity(total);
        for t in 1..=total {
            let mut best = usize::MAX;
            let mut best_score = i128::MIN;
            for (c, class) in self.classes.iter().enumerate() {
                if taken[c] >= class.population {
                    continue;
                }
                // Deficit of class c if it does NOT receive customer t:
                // target share N_c·t/T minus what it already holds.
                let score = (class.population * t) as i128 - (taken[c] * total) as i128;
                if score > best_score {
                    best_score = score;
                    best = c;
                }
            }
            debug_assert!(best < self.classes.len(), "path shorter than total");
            taken[best] += 1;
            path.push(best);
        }
        path
    }
}

/// Per-class metrics at one population-path step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassPoint {
    /// Customers of this class currently in the model, `n_c`.
    pub population: usize,
    /// Class throughput `X_c` (0 while the class has no customers).
    pub throughput: f64,
    /// Class response time `R_c` (seconds, excluding think time).
    pub response: f64,
    /// Class cycle time `R_c + Z_c` (0 while the class has no customers).
    pub cycle_time: f64,
}

/// The class-aware face of one streamed population step: everything the
/// aggregate [`MvaPoint`] reports, broken down per class.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticlassPoint {
    /// Path step (1-based) — equals the total population `Σ_c n_c`.
    pub step: usize,
    /// Current population per class.
    pub populations: Vec<usize>,
    /// Per-class throughput/response/cycle time.
    pub classes: Vec<ClassPoint>,
    /// Mean total queue length per station (all classes).
    pub station_queues: Vec<f64>,
    /// Per-class per-station mean queue lengths, flat `c * K + k`.
    pub class_station_queues: Vec<f64>,
    /// Per-station total utilization (per-server for queueing stations).
    pub station_utilizations: Vec<f64>,
}

impl MulticlassPoint {
    /// Aggregate throughput `Σ_c X_c`.
    pub fn total_throughput(&self) -> f64 {
        self.classes.iter().map(|c| c.throughput).sum()
    }

    /// Mean queue length of class `c` at station `k`.
    pub fn class_queue(&self, c: usize, k: usize) -> f64 {
        self.class_station_queues[c * self.station_queues.len() + k]
    }

    /// Whether `condition` is met *for one class* at this point: the SLA
    /// reads the class' own response time, once the class has customers.
    pub fn class_meets(&self, condition: &StopCondition, class: usize) -> bool {
        let Some(cp) = self.classes.get(class) else {
            return false;
        };
        match *condition {
            StopCondition::SlaResponseTime { max_response } => {
                cp.population > 0 && cp.response > max_response
            }
        }
    }
}

/// Why a [`run_until_classes`] sweep stopped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClassStopReason {
    /// This (class, condition) pair fired first.
    Met {
        /// Index of the class whose condition fired.
        class: usize,
        /// The fired condition.
        condition: StopCondition,
    },
    /// The population path was fully walked (or the step cap hit) without
    /// any condition firing.
    PathExhausted,
}

/// The output of a [`run_until_classes`] sweep.
#[derive(Debug, Clone)]
pub struct ClassRunOutcome {
    /// The class-aware points yielded by this run, ascending along the
    /// path; the last one triggered `reason` unless the path ran out.
    pub points: Vec<MulticlassPoint>,
    /// What stopped the sweep.
    pub reason: ClassStopReason,
}

/// Steps a multiclass iterator until any per-class stop condition fires or
/// the population path is exhausted (optionally bounded by `step_cap`
/// total customers). Conditions are checked after every yielded point in
/// slice order; the first match wins — the multiclass analogue of
/// [`super::run_until`].
pub fn run_until_classes(
    iter: &mut MulticlassIter,
    conditions: &[(usize, StopCondition)],
    step_cap: usize,
) -> Result<ClassRunOutcome, QueueingError> {
    let _span = obsv::span_with("run_until_classes", || format!("cap={step_cap}"));
    let cap = step_cap.min(iter.steps_total());
    let mut points: Vec<MulticlassPoint> = Vec::new();
    let reason = loop {
        if iter.steps_done() >= cap {
            break ClassStopReason::PathExhausted;
        }
        let point = iter.step_classes()?;
        let met = conditions
            .iter()
            .find(|(class, c)| point.class_meets(c, *class))
            .copied();
        points.push(point);
        if let Some((class, condition)) = met {
            break ClassStopReason::Met { class, condition };
        }
    };
    if obsv::enabled() {
        obsv::counter("run_until.calls", 1);
        obsv::counter("run_until.steps", points.len() as u64);
        obsv::counter(
            "run_until.steps_saved",
            cap.saturating_sub(iter.steps_done()) as u64,
        );
        let metric = match reason {
            ClassStopReason::Met { condition, .. } => StopReason::Met(condition).metric_name(),
            ClassStopReason::PathExhausted => StopReason::PopulationCap.metric_name(),
        };
        obsv::counter(metric, 1);
    }
    Ok(ClassRunOutcome { points, reason })
}

/// Borrowed per-step outputs the workspace hands to the point assemblers. All
/// slices are class-major (`c * K + k`) where two-dimensional.
pub(crate) struct StepOutputs<'a> {
    /// Current per-class populations.
    pub populations: &'a [usize],
    /// Per-class throughputs `X_c` (0 for empty classes).
    pub xs: &'a [f64],
    /// Per-class responses `R_c` (0 for empty classes).
    pub rs: &'a [f64],
    /// Per-class per-station residences (rows of empty classes unused).
    pub res: &'a [f64],
    /// Total queue length per station.
    pub queues: &'a [f64],
    /// Per-class per-station queue lengths.
    pub class_queues: &'a [f64],
    /// Total utilization per station.
    pub utilizations: &'a [f64],
    /// Per-class think times `Z_c`.
    pub think: &'a [f64],
}

/// Assembles the aggregate [`MvaPoint`] for step `n` (total population).
///
/// The single-class case bypasses the throughput weighting so its output
/// is bit-for-bit the arithmetic of the single-class recursion:
/// `(X·R)/X` round-trips are not bitwise identities, so a 1-class
/// workload reports `R_0` directly rather than `X_0·R_0/X_0`.
fn aggregate_mva_point(out: &StepOutputs<'_>, n: usize) -> MvaPoint {
    let k_count = out.queues.len();
    let single = out.xs.len() == 1;
    let x_total: f64 = out.xs.iter().sum();
    let (response, z_eff) = if single {
        (
            out.rs.first().copied().unwrap_or(0.0),
            out.think.first().copied().unwrap_or(0.0),
        )
    } else {
        let wr: f64 = out.xs.iter().zip(out.rs).map(|(x, r)| x * r).sum();
        let wz: f64 = out.xs.iter().zip(out.think).map(|(x, z)| x * z).sum();
        (wr / x_total, wz / x_total)
    };
    let stations = (0..k_count)
        .map(|k| StationPoint {
            queue: out.queues[k],
            residence: if single {
                out.res[k]
            } else {
                out.queues[k] / x_total
            },
            utilization: out.utilizations[k],
        })
        .collect();
    MvaPoint {
        n,
        throughput: x_total,
        response,
        cycle_time: response + z_eff,
        stations,
    }
}

/// Assembles the class-aware [`MulticlassPoint`] for step `step`.
fn assemble_class_point(out: &StepOutputs<'_>, step: usize) -> MulticlassPoint {
    let classes = out
        .populations
        .iter()
        .zip(out.xs.iter().zip(out.rs.iter().zip(out.think)))
        .map(|(&population, (&x, (&r, &z)))| ClassPoint {
            population,
            throughput: x,
            response: r,
            cycle_time: if population > 0 { r + z } else { 0.0 },
        })
        .collect();
    MulticlassPoint {
        step,
        populations: out.populations.to_vec(),
        classes,
        station_queues: out.queues.to_vec(),
        class_station_queues: out.class_queues.to_vec(),
        station_utilizations: out.utilizations.to_vec(),
    }
}

/// Packs the final streamed point into the batch [`MulticlassSolution`]
/// shape (the [`multiclass_mva`] output contract).
fn solution_from_point(workload: &Workload, point: &MulticlassPoint) -> MulticlassSolution {
    MulticlassSolution {
        classes: workload
            .classes()
            .iter()
            .zip(&point.classes)
            .map(|(spec, cp)| ClassMetrics {
                name: spec.name.clone(),
                throughput: cp.throughput,
                response: cp.response,
            })
            .collect(),
        station_queues: point.station_queues.clone(),
        station_utilizations: point.station_utilizations.clone(),
    }
}

/// The all-zero-population degenerate solution.
fn empty_solution(workload: &Workload) -> MulticlassSolution {
    MulticlassSolution {
        classes: workload
            .classes()
            .iter()
            .map(|spec| ClassMetrics {
                name: spec.name.clone(),
                throughput: 0.0,
                response: 0.0,
            })
            .collect(),
        station_queues: vec![0.0; workload.station_count()],
        station_utilizations: vec![0.0; workload.station_count()],
    }
}

/// The streaming exact multiclass recursion: a [`SolverIter`] whose carried
/// state is a [`MulticlassWorkspace`] and whose population steps walk the
/// workload's proportional path through the class lattice.
///
/// Both faces advance the same recursion: [`SolverIter::step`] yields the
/// aggregate [`MvaPoint`] (total throughput, throughput-weighted response),
/// [`step_classes`](Self::step_classes) yields the per-class breakdown.
/// Mixing them is fine — each call advances exactly one path step.
#[derive(Debug)]
pub struct MulticlassIter {
    workload: Workload,
    ws: MulticlassWorkspace,
    path: Arc<[usize]>,
    step_idx: usize,
}

impl MulticlassIter {
    /// Starts a fresh walk at the empty population.
    pub fn new(workload: &Workload) -> Result<Self, QueueingError> {
        let ws = MulticlassWorkspace::new(workload)?;
        let path: Arc<[usize]> = workload.proportional_path().into();
        Ok(Self {
            workload: workload.clone(),
            ws,
            path,
            step_idx: 0,
        })
    }

    /// The population path being walked (one class index per step).
    pub fn path(&self) -> &[usize] {
        &self.path
    }

    /// Current per-class populations.
    pub fn populations(&self) -> &[usize] {
        self.ws.populations()
    }

    /// The workload this iterator solves.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Steps the recursion one customer along the path and yields the
    /// class-aware point.
    pub fn step_classes(&mut self) -> Result<MulticlassPoint, QueueingError> {
        self.advance_one()?;
        Ok(assemble_class_point(&self.outputs(), self.step_idx))
    }

    /// Path steps already taken.
    pub fn steps_done(&self) -> usize {
        self.step_idx
    }

    /// Total path length `Σ_c N_c`.
    pub fn steps_total(&self) -> usize {
        self.path.len()
    }

    fn advance_one(&mut self) -> Result<(), QueueingError> {
        let _span = obsv::span("multiclass.step");
        let class = *self
            .path
            .get(self.step_idx)
            .ok_or(QueueingError::InvalidParameter {
                what: "population path exhausted: all class targets reached",
            })?;
        self.ws.advance(class)?;
        self.step_idx += 1;
        obsv::counter("solver.steps", 1);
        obsv::counter("multiclass.steps", 1);
        Ok(())
    }

    fn outputs(&self) -> StepOutputs<'_> {
        self.ws.step_outputs()
    }
}

impl SolverIter for MulticlassIter {
    fn station_names(&self) -> &[String] {
        self.workload.station_names()
    }

    fn shared_names(&self) -> Arc<[String]> {
        self.workload.shared_names()
    }

    fn population(&self) -> usize {
        self.step_idx
    }

    fn step(&mut self) -> Result<MvaPoint, QueueingError> {
        self.advance_one()?;
        Ok(aggregate_mva_point(&self.outputs(), self.step_idx))
    }
}

/// Exact multiclass MVA behind the unified [`ClosedSolver`] interface
/// (`"multiclass-mva"`): the carried-workspace streaming recursion.
///
/// `solve(n_max)` walks at most `n_max` customers along the proportional
/// path; `n_max` beyond the workload's total population is an error (the
/// lattice has no points there).
#[derive(Debug, Clone)]
pub struct MulticlassMvaSolver {
    workload: Workload,
}

impl MulticlassMvaSolver {
    /// Binds the solver to a workload.
    pub fn new(workload: Workload) -> Self {
        Self { workload }
    }

    /// Starts the class-aware streaming face.
    pub fn start_classes(&self) -> Result<MulticlassIter, QueueingError> {
        MulticlassIter::new(&self.workload)
    }

    /// Solves at the full population vector, returning the batch
    /// [`MulticlassSolution`] shape (the [`multiclass_mva`] contract).
    pub fn solve_classes(&self) -> Result<MulticlassSolution, QueueingError> {
        let mut iter = self.start_classes()?;
        let mut last: Option<MulticlassPoint> = None;
        while iter.steps_done() < iter.steps_total() {
            last = Some(iter.step_classes()?);
        }
        Ok(match last {
            Some(p) => solution_from_point(&self.workload, &p),
            None => empty_solution(&self.workload),
        })
    }
}

impl ClosedSolver for MulticlassMvaSolver {
    fn name(&self) -> &str {
        "multiclass-mva"
    }

    fn start(&self) -> Result<Box<dyn SolverIter>, QueueingError> {
        Ok(Box::new(MulticlassIter::new(&self.workload)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Station;

    fn two_class_workload() -> Workload {
        Workload::new(
            vec!["cpu".into(), "disk".into()],
            vec![
                StationKind::Queueing { servers: 1 },
                StationKind::Queueing { servers: 1 },
            ],
            vec![
                ClassSpec {
                    name: "a".into(),
                    population: 6,
                    think_time: 1.0,
                    demands: vec![0.02, 0.01],
                },
                ClassSpec {
                    name: "b".into(),
                    population: 3,
                    think_time: 0.5,
                    demands: vec![0.005, 0.03],
                },
            ],
        )
        .expect("valid workload")
    }

    #[test]
    fn proportional_path_interleaves_by_largest_remainder() {
        let w = two_class_workload();
        let path = w.proportional_path();
        assert_eq!(path.len(), 9);
        assert_eq!(path.iter().filter(|&&c| c == 0).count(), 6);
        assert_eq!(path.iter().filter(|&&c| c == 1).count(), 3);
        // Every prefix holds the 2:1 mix within one customer.
        let mut taken = [0i64; 2];
        for (t, &c) in path.iter().enumerate() {
            taken[c] += 1;
            let t = (t + 1) as f64;
            assert!((taken[0] as f64 - t * 6.0 / 9.0).abs() <= 1.0);
        }
    }

    #[test]
    fn streamed_corner_matches_scratch_oracle_bitwise() {
        let w = two_class_workload();
        let oracle = multiclass_mva(w.classes(), w.station_kinds()).expect("oracle");
        let sol = MulticlassMvaSolver::new(w).solve_classes().expect("stream");
        for (a, b) in oracle.classes.iter().zip(&sol.classes) {
            assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
            assert_eq!(a.response.to_bits(), b.response.to_bits());
        }
        for (a, b) in oracle.station_queues.iter().zip(&sol.station_queues) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in oracle
            .station_utilizations
            .iter()
            .zip(&sol.station_utilizations)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn every_path_prefix_matches_a_fresh_scratch_solve() {
        let w = two_class_workload();
        let mut iter = MulticlassIter::new(&w).expect("iter");
        let mut pops = vec![0usize; 2];
        for t in 0..w.total_population() {
            let class = iter.path()[t];
            pops[class] += 1;
            let point = iter.step_classes().expect("step");
            let partial: Vec<ClassSpec> = w
                .classes()
                .iter()
                .zip(&pops)
                .map(|(c, &p)| ClassSpec {
                    population: p,
                    ..c.clone()
                })
                .collect();
            let oracle = multiclass_mva(&partial, w.station_kinds()).expect("oracle");
            for (cp, om) in point.classes.iter().zip(&oracle.classes) {
                assert_eq!(cp.throughput.to_bits(), om.throughput.to_bits(), "t={t}");
                assert_eq!(cp.response.to_bits(), om.response.to_bits(), "t={t}");
            }
            for (a, b) in point.station_queues.iter().zip(&oracle.station_queues) {
                assert_eq!(a.to_bits(), b.to_bits(), "t={t}");
            }
        }
    }

    #[test]
    fn aggregate_face_satisfies_littles_law() {
        let w = two_class_workload();
        let mut iter = MulticlassIter::new(&w).expect("iter");
        let mut prev_x = 0.0;
        for _ in 0..w.total_population() {
            let p = iter.step().expect("step");
            // N = X·(R + Z_eff) by construction of the weighted response.
            assert!((p.n as f64 - p.throughput * p.cycle_time).abs() < 1e-9);
            assert!(p.throughput >= prev_x - 1e-12);
            prev_x = p.throughput;
        }
    }

    #[test]
    fn stepping_past_the_path_errors() {
        let w = two_class_workload();
        let mut iter = MulticlassIter::new(&w).expect("iter");
        for _ in 0..w.total_population() {
            iter.step().expect("in path");
        }
        assert!(iter.step().is_err());
    }

    #[test]
    fn per_class_early_exit_stops_on_the_sla_class() {
        let w = two_class_workload();
        let mut iter = MulticlassIter::new(&w).expect("iter");
        // Class b is disk-heavy; stop when its response crosses a tight
        // ceiling while class a would still be fine.
        let out = run_until_classes(
            &mut iter,
            &[(1, StopCondition::SlaResponseTime { max_response: 0.04 })],
            usize::MAX,
        )
        .expect("run");
        match out.reason {
            ClassStopReason::Met { class, .. } => assert_eq!(class, 1),
            ClassStopReason::PathExhausted => {
                panic!("expected the disk-heavy class to trip the SLA")
            }
        }
        assert!(out.points.len() < w.total_population());
        let last = out.points.last().expect("at least one step");
        assert!(last.classes[1].response > 0.04);
    }

    #[test]
    fn single_class_workload_from_network() {
        let net = crate::network::ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 1, 1.0, 0.005),
                Station::delay("lan", 1.0, 0.002),
            ],
            1.0,
        )
        .expect("net");
        let w = Workload::single_class(&net, 30).expect("workload");
        assert_eq!(w.class_count(), 1);
        assert_eq!(w.total_population(), 30);
        assert_eq!(w.proportional_path(), vec![0; 30]);
    }

    #[test]
    fn rejects_mismatched_station_names() {
        let err = Workload::new(
            vec!["a".into()],
            vec![
                StationKind::Queueing { servers: 1 },
                StationKind::Queueing { servers: 1 },
            ],
            vec![ClassSpec {
                name: "c".into(),
                population: 1,
                think_time: 0.0,
                demands: vec![0.1, 0.1],
            }],
        );
        assert!(err.is_err());
    }
}
