//! Warm-restart scenario sweeps over families of related MVASD models.
//!
//! Capacity-planning sessions rarely solve one model: they solve a *family*
//! — "what if demands drop 10 %?", "what if we double the cores?", "where
//! does the SLA break?" — and many of those questions share a model or need
//! only a prefix of the population sweep. Because every solver in the
//! workspace now exposes a resumable population iterator ([`SolverIter`]),
//! a sweep engine can answer each question from the *longest
//! already-computed prefix* instead of recomputing from population 1.
//!
//! [`ScenarioSweep`] groups scenarios by a fingerprint of the resolved
//! model; scenarios that share a model share one iterator and its memoized
//! point prefix, both within a `run` call and across calls (warm restarts).
//! Stop conditions ([`StopCondition`]) cut sweeps short the moment the
//! question is answered, and [`SweepReport`] records how many population
//! steps the engine actually computed versus how many a naive
//! one-batch-solve-per-scenario run would have, so the saving is visible
//! rather than folklore.
//!
//! Independent model groups run concurrently on [`scoped_indexed`], the
//! same scoped-thread work-queue pattern the testbed uses for load-test
//! campaigns.

use std::collections::HashMap;
use std::sync::Mutex;

use std::sync::Arc;

use mvasd_numerics::pool::{effective_workers, scoped_indexed};
use mvasd_obsv as obsv;
use mvasd_queueing::hierarchy::{
    AggregationOptions, HierarchicalNetwork, HierarchicalSolver, ProfileCache,
};
use mvasd_queueing::mva::{
    ClassSpec, ClosedSolver, MulticlassMvaSolver, MvaPoint, MvaSolution, SolverIter, StopCondition,
    StopReason, Workload,
};
use mvasd_queueing::QueueingError;

use crate::profile::{DemandAxis, DemandSamples, InterpolationKind, ServiceDemandProfile};
use crate::solver::MvasdSolver;
use crate::CoreError;

/// One what-if question over a base demand model: a model transform plus
/// the conditions under which its sweep may stop early.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario label (reported back in results).
    pub label: String,
    /// Uniform multiplier applied to every station's demand samples.
    pub demand_scale: f64,
    /// Optional per-station multipliers (composed with `demand_scale`);
    /// must match the base model's station count.
    pub station_scales: Option<Vec<f64>>,
    /// Overrides the base think time when set.
    pub think_time: Option<f64>,
    /// Overrides the base per-station server counts when set.
    pub server_counts: Option<Vec<usize>>,
    /// Per-class demand multipliers (workload bases only); must match the
    /// base workload's class count.
    pub class_scales: Option<Vec<f64>>,
    /// Early-exit conditions; the sweep stops at the first population
    /// where any holds. Empty = run to the population cap.
    pub stop: Vec<StopCondition>,
    /// Population cap for this scenario; `None` uses the sweep default.
    pub n_cap: Option<usize>,
}

impl Scenario {
    /// A baseline scenario: the unmodified model, swept to the cap.
    pub fn new(label: &str) -> Self {
        Self {
            label: label.to_string(),
            demand_scale: 1.0,
            station_scales: None,
            think_time: None,
            server_counts: None,
            class_scales: None,
            stop: Vec::new(),
            n_cap: None,
        }
    }

    /// Scales every station's demands uniformly (e.g. `0.9` = 10 % faster).
    pub fn scale_demands(mut self, factor: f64) -> Self {
        self.demand_scale = factor;
        self
    }

    /// Sets per-station demand multipliers, network order.
    pub fn scale_stations(mut self, factors: Vec<f64>) -> Self {
        self.station_scales = Some(factors);
        self
    }

    /// Overrides the workload think time.
    pub fn with_think_time(mut self, z: f64) -> Self {
        self.think_time = Some(z);
        self
    }

    /// Overrides the per-station server counts.
    pub fn with_server_counts(mut self, counts: Vec<usize>) -> Self {
        self.server_counts = Some(counts);
        self
    }

    /// Sets per-class demand multipliers (workload bases only) — e.g.
    /// "checkout traffic runs 30 % heavier" without touching the other
    /// classes.
    pub fn scale_classes(mut self, factors: Vec<f64>) -> Self {
        self.class_scales = Some(factors);
        self
    }

    /// Adds an early-exit condition.
    pub fn until(mut self, condition: StopCondition) -> Self {
        self.stop.push(condition);
        self
    }

    /// Caps this scenario's population sweep.
    pub fn cap(mut self, n_cap: usize) -> Self {
        self.n_cap = Some(n_cap);
        self
    }

    /// Applies the transform to a hierarchical base model. Demand scales
    /// apply per flat leaf (depth-first order, as in
    /// [`HierarchicalNetwork::flatten`]); server-count overrides are not
    /// supported — a hierarchical node's server counts are part of its
    /// structure, so change the tree instead.
    fn resolve_hierarchy(
        &self,
        base: &HierarchicalNetwork,
    ) -> Result<HierarchicalNetwork, CoreError> {
        if !(self.demand_scale.is_finite() && self.demand_scale > 0.0) {
            return Err(CoreError::InvalidParameter {
                what: "demand scale must be finite and > 0",
            });
        }
        if self.server_counts.is_some() {
            return Err(CoreError::InvalidParameter {
                what: "server count overrides are not supported for hierarchical sweeps",
            });
        }
        if self.class_scales.is_some() {
            return Err(CoreError::InvalidParameter {
                what: "class scales need a workload base (ScenarioSweep::over_workload)",
            });
        }
        let k_count = base.leaf_count();
        let mut factors = vec![self.demand_scale; k_count];
        if let Some(scales) = &self.station_scales {
            if scales.len() != k_count {
                return Err(CoreError::InvalidParameter {
                    what: "station scale count must match the flat leaf count",
                });
            }
            if scales.iter().any(|s| !(s.is_finite() && *s > 0.0)) {
                return Err(CoreError::InvalidParameter {
                    what: "station scales must be finite and > 0",
                });
            }
            for (f, s) in factors.iter_mut().zip(scales) {
                *f *= s;
            }
        }
        let mut net = base
            .with_leaf_scales(&factors)
            .map_err(CoreError::Queueing)?;
        if let Some(z) = self.think_time {
            net = net.with_think_time(z).map_err(CoreError::Queueing)?;
        }
        Ok(net)
    }

    /// Applies the transform to a multiclass workload base. Demand and
    /// station scales multiply every class's demand row; class scales
    /// multiply one class's whole row; a think-time override applies to
    /// every class. Server counts are part of the workload's station kinds,
    /// so overrides are rejected (change the base instead).
    fn resolve_workload(&self, base: &Workload) -> Result<Workload, CoreError> {
        if !(self.demand_scale.is_finite() && self.demand_scale > 0.0) {
            return Err(CoreError::InvalidParameter {
                what: "demand scale must be finite and > 0",
            });
        }
        if self.server_counts.is_some() {
            return Err(CoreError::InvalidParameter {
                what: "server count overrides are not supported for workload sweeps",
            });
        }
        let k_count = base.station_count();
        if let Some(scales) = &self.station_scales {
            if scales.len() != k_count {
                return Err(CoreError::InvalidParameter {
                    what: "station scale count must match the station count",
                });
            }
            if scales.iter().any(|s| !(s.is_finite() && *s > 0.0)) {
                return Err(CoreError::InvalidParameter {
                    what: "station scales must be finite and > 0",
                });
            }
        }
        if let Some(scales) = &self.class_scales {
            if scales.len() != base.class_count() {
                return Err(CoreError::InvalidParameter {
                    what: "class scale count must match the class count",
                });
            }
            if scales.iter().any(|s| !(s.is_finite() && *s > 0.0)) {
                return Err(CoreError::InvalidParameter {
                    what: "class scales must be finite and > 0",
                });
            }
        }
        let classes: Vec<ClassSpec> = base
            .classes()
            .iter()
            .enumerate()
            .map(|(ci, spec)| {
                let class_factor =
                    self.demand_scale * self.class_scales.as_ref().map_or(1.0, |scales| scales[ci]);
                ClassSpec {
                    name: spec.name.clone(),
                    population: spec.population,
                    think_time: self.think_time.unwrap_or(spec.think_time),
                    demands: spec
                        .demands
                        .iter()
                        .enumerate()
                        .map(|(k, d)| {
                            d * class_factor
                                * self.station_scales.as_ref().map_or(1.0, |scales| scales[k])
                        })
                        .collect(),
                }
            })
            .collect();
        Workload::new(
            base.station_names().to_vec(),
            base.station_kinds().to_vec(),
            classes,
        )
        .map_err(CoreError::Queueing)
    }

    /// Applies the transform to the base samples.
    fn resolve(&self, base: &DemandSamples) -> Result<DemandSamples, CoreError> {
        if !(self.demand_scale.is_finite() && self.demand_scale > 0.0) {
            return Err(CoreError::InvalidParameter {
                what: "demand scale must be finite and > 0",
            });
        }
        if self.class_scales.is_some() {
            return Err(CoreError::InvalidParameter {
                what: "class scales need a workload base (ScenarioSweep::over_workload)",
            });
        }
        let k_count = base.station_names.len();
        if let Some(scales) = &self.station_scales {
            if scales.len() != k_count {
                return Err(CoreError::InvalidParameter {
                    what: "station scale count must match the station count",
                });
            }
            if scales.iter().any(|s| !(s.is_finite() && *s > 0.0)) {
                return Err(CoreError::InvalidParameter {
                    what: "station scales must be finite and > 0",
                });
            }
        }
        if let Some(counts) = &self.server_counts {
            if counts.len() != k_count {
                return Err(CoreError::InvalidParameter {
                    what: "server count override must match the station count",
                });
            }
        }
        let mut out = base.clone();
        for (k, series) in out.demands.iter_mut().enumerate() {
            let factor =
                self.demand_scale * self.station_scales.as_ref().map_or(1.0, |scales| scales[k]);
            for d in series.iter_mut() {
                *d *= factor;
            }
        }
        if let Some(z) = self.think_time {
            out.think_time = z;
        }
        if let Some(counts) = &self.server_counts {
            out.server_counts = counts.clone();
        }
        Ok(out)
    }
}

/// One scenario's answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The scenario's label.
    pub label: String,
    /// The population series up to the stopping point.
    pub solution: MvaSolution,
    /// Why the sweep stopped.
    pub reason: StopReason,
}

impl ScenarioResult {
    /// Populations this scenario's answer covers.
    pub fn steps(&self) -> usize {
        self.solution.points.len()
    }
}

/// What a [`ScenarioSweep::run`] call produced, with the work accounting
/// that makes warm restarts auditable.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-scenario answers, in input order.
    pub results: Vec<ScenarioResult>,
    /// Fresh population steps the engine actually computed this call.
    pub steps_computed: usize,
    /// Steps a naive batch-solve-per-scenario run would have computed
    /// (the sum of every scenario's answer length).
    pub steps_demanded: usize,
}

impl SweepReport {
    /// Steps avoided through prefix sharing and warm restarts.
    pub fn steps_saved(&self) -> usize {
        self.steps_demanded.saturating_sub(self.steps_computed)
    }

    /// The answer for a scenario label, if present.
    pub fn result(&self, label: &str) -> Option<&ScenarioResult> {
        self.results.iter().find(|r| r.label == label)
    }
}

/// Lifetime work accounting for a [`ScenarioSweep`], accumulated over every
/// successful [`run`](ScenarioSweep::run) call. The read-only face of the
/// warm-restart machinery: callers can assert cache behaviour and step
/// savings without the bench harness (and without observability installed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Fresh population steps computed across all runs.
    pub steps_computed: usize,
    /// Steps a naive batch-solve-per-scenario strategy would have computed.
    pub steps_demanded: usize,
    /// Model groups served from a previously cached iterator.
    pub cache_hits: usize,
    /// Model groups that had to build a fresh iterator.
    pub cache_misses: usize,
    /// Subsystem profiles solved from scratch (hierarchical sweeps only:
    /// the sub-model misses of the shared aggregation cache).
    pub sub_solves: usize,
    /// Subsystem profiles reused from the shared aggregation cache —
    /// across scenarios *and* across identically-shaped subsystems within
    /// one model.
    pub sub_cache_hits: usize,
    /// Worker threads the most recent [`run`](ScenarioSweep::run) used for
    /// its model-group fan-out (a snapshot, not a running total: 1 means
    /// the last run was effectively serial).
    pub pool_occupancy: usize,
}

impl SweepStats {
    /// Steps avoided through prefix sharing and warm restarts.
    pub fn steps_saved(&self) -> usize {
        self.steps_demanded.saturating_sub(self.steps_computed)
    }
}

/// A solver iterator plus its memoized population prefix — the unit the
/// cache retains per distinct model.
struct GroupState {
    iter: Box<dyn SolverIter>,
    points: Vec<MvaPoint>,
    /// Hard ceiling on servable steps: `Some` for population-path models
    /// (a workload's path exhausts at its total population), `None` for
    /// unbounded scalar-population sweeps.
    max_steps: Option<usize>,
}

impl GroupState {
    /// Answers one scenario from the memoized prefix, stepping the
    /// iterator only past its end. Returns the answer and how many fresh
    /// steps it cost. Mirrors
    /// [`run_until`](mvasd_queueing::mva::run_until): the point that
    /// satisfies a condition is included in the answer.
    fn serve(
        &mut self,
        conditions: &[StopCondition],
        n_cap: usize,
    ) -> Result<(Vec<MvaPoint>, StopReason, usize), QueueingError> {
        let n_cap = match self.max_steps {
            Some(max) => n_cap.min(max),
            None => n_cap,
        };
        let mut out: Vec<MvaPoint> = Vec::new();
        let mut fresh = 0usize;
        let reason = loop {
            if out.len() >= n_cap {
                break StopReason::PopulationCap;
            }
            let idx = out.len();
            if idx >= self.points.len() {
                self.points.push(self.iter.step()?);
                fresh += 1;
            }
            let point = &self.points[idx];
            let prev = idx.checked_sub(1).map(|i| &self.points[i]);
            let met = conditions.iter().find(|c| c.is_met(point, prev)).cloned();
            out.push(point.clone());
            if let Some(c) = met {
                break StopReason::Met(c);
            }
        };
        Ok((out, reason, fresh))
    }
}

/// What a sweep's scenarios are resolved against: a varying-service-demand
/// sample set (answered by MVASD) or a hierarchical topology (the Norton
/// aggregation backend, with its shared subsystem-profile cache).
#[derive(Debug)]
enum BaseModel {
    Samples(DemandSamples),
    Hierarchy {
        net: HierarchicalNetwork,
        opts: AggregationOptions,
        profiles: Arc<ProfileCache>,
    },
    Workload(Workload),
}

/// A scenario resolved against the base: concrete demand samples, a
/// ready-to-start hierarchical solver (model plus shared profile cache), or
/// a resolved multiclass workload.
enum ResolvedModel {
    Samples(DemandSamples),
    Hierarchy(HierarchicalSolver),
    Workload(Workload),
}

/// The scenario-sweep engine: resolves what-if scenarios against a base
/// demand model, deduplicates identical resolved models, and serves every
/// scenario from shared, memoized solver iterators. The cache survives
/// across [`run`](ScenarioSweep::run) calls, so a follow-up question about
/// a previously swept model is a warm restart.
///
/// Hierarchical sweeps ([`over_hierarchy`](Self::over_hierarchy)) memoize
/// at a second level too: all scenarios share one
/// [`ProfileCache`], so a scenario that rescales only the root stations
/// reuses every already-aggregated subsystem profile instead of re-solving
/// the subtrees. The saving is visible in [`SweepStats::sub_solves`] /
/// [`SweepStats::sub_cache_hits`].
pub struct ScenarioSweep {
    base: BaseModel,
    interpolation: InterpolationKind,
    axis: DemandAxis,
    default_cap: usize,
    parallelism: usize,
    cache: HashMap<Vec<u64>, GroupState>,
    stats: SweepStats,
}

impl std::fmt::Debug for ScenarioSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioSweep")
            .field("base", &self.base)
            .field("interpolation", &self.interpolation)
            .field("axis", &self.axis)
            .field("default_cap", &self.default_cap)
            .field("parallelism", &self.parallelism)
            .field("cached_models", &self.cache.len())
            .finish()
    }
}

impl ScenarioSweep {
    /// A sweep over `base` with the paper's defaults (not-a-knot cubic
    /// interpolation over concurrency, exact MVASD, population cap 300).
    pub fn new(base: DemandSamples) -> Self {
        Self::with_base(BaseModel::Samples(base))
    }

    /// A sweep over a hierarchical topology, answered by the Norton
    /// flow-equivalent-server solver. All scenarios share one subsystem
    /// [`ProfileCache`], so sub-models untouched by a scenario's transform
    /// are aggregated once and reused. The `interpolation` and `axis`
    /// settings are ignored for hierarchical sweeps.
    pub fn over_hierarchy(net: HierarchicalNetwork, opts: AggregationOptions) -> Self {
        Self::with_base(BaseModel::Hierarchy {
            net,
            opts,
            profiles: Arc::new(ProfileCache::new()),
        })
    }

    /// A sweep over a multiclass [`Workload`], answered by the streaming
    /// lattice-workspace solver
    /// ([`MulticlassMvaSolver`]). Scenarios may rescale whole classes
    /// ([`Scenario::scale_classes`]) as well as stations; the population
    /// axis is the workload's proportional path through the class lattice,
    /// so caps and memoized prefixes count admitted customers (the path
    /// exhausts at the workload's total population). The `interpolation`
    /// and `axis` settings are ignored.
    pub fn over_workload(workload: Workload) -> Self {
        Self::with_base(BaseModel::Workload(workload))
    }

    /// The shared subsystem-profile cache, for hierarchical sweeps
    /// (`None` otherwise). Handle for inspection —
    /// [`ProfileCache::stats`], [`ProfileCache::profiles`] — the sweep
    /// keeps using the same cache afterwards.
    pub fn profile_cache(&self) -> Option<Arc<ProfileCache>> {
        match &self.base {
            BaseModel::Hierarchy { profiles, .. } => Some(profiles.clone()),
            _ => None,
        }
    }

    fn with_base(base: BaseModel) -> Self {
        Self {
            base,
            interpolation: InterpolationKind::CubicNotAKnot,
            axis: DemandAxis::Concurrency,
            default_cap: 300,
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cache: HashMap::new(),
            stats: SweepStats::default(),
        }
    }

    /// Sets the interpolation family.
    pub fn interpolation(mut self, kind: InterpolationKind) -> Self {
        self.interpolation = kind;
        self
    }

    /// Sets the demand abscissa.
    pub fn axis(mut self, axis: DemandAxis) -> Self {
        self.axis = axis;
        self
    }

    /// Sets the default population cap for scenarios without their own.
    pub fn default_cap(mut self, n_cap: usize) -> Self {
        self.default_cap = n_cap;
        self
    }

    /// Sets the number of worker threads for independent model groups.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers.max(1);
        self
    }

    /// Population steps currently memoized across all cached models.
    pub fn cached_steps(&self) -> usize {
        self.cache.values().map(|g| g.points.len()).sum()
    }

    /// Lifetime work accounting, accumulated over every successful
    /// [`run`](ScenarioSweep::run) call.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// Answers every scenario. Scenarios resolving to the same model share
    /// one iterator (and its memoized prefix); distinct models run
    /// concurrently. Results come back in input order.
    // lint: bit-identical
    pub fn run(&mut self, scenarios: &[Scenario]) -> Result<SweepReport, CoreError> {
        let _span = obsv::span_with("sweep.run", || format!("scenarios={}", scenarios.len()));
        if scenarios.is_empty() {
            return Err(CoreError::InvalidParameter {
                what: "sweep needs at least one scenario",
            });
        }
        // Snapshot the shared aggregation cache so sub-model work done by
        // this run can be committed as a delta on success.
        let sub_before = match &self.base {
            BaseModel::Hierarchy { profiles, .. } => Some(profiles.stats()),
            BaseModel::Samples(_) | BaseModel::Workload(_) => None,
        };
        // Resolve every scenario and group by model fingerprint, keeping
        // first-seen group order (results are reassembled by index anyway).
        let mut groups: Vec<(Vec<u64>, Vec<usize>)> = Vec::new();
        let mut resolved: Vec<ResolvedModel> = Vec::with_capacity(scenarios.len());
        for (i, scenario) in scenarios.iter().enumerate() {
            let (key, model) = match &self.base {
                BaseModel::Samples(base) => {
                    let samples = scenario.resolve(base)?;
                    (self.fingerprint(&samples), ResolvedModel::Samples(samples))
                }
                BaseModel::Hierarchy {
                    net,
                    opts,
                    profiles,
                } => {
                    let resolved_net = scenario.resolve_hierarchy(net)?;
                    let key = hierarchy_key(&resolved_net, *opts);
                    let solver = HierarchicalSolver::with_options(resolved_net, *opts)
                        .with_cache(profiles.clone());
                    (key, ResolvedModel::Hierarchy(solver))
                }
                BaseModel::Workload(base) => {
                    let workload = scenario.resolve_workload(base)?;
                    (workload_key(&workload), ResolvedModel::Workload(workload))
                }
            };
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => groups.push((key, vec![i])),
            }
            resolved.push(model);
        }

        // Check out (or build) one GroupState per distinct model.
        let mut cache_hits = 0usize;
        let mut cache_misses = 0usize;
        let mut jobs: Vec<Mutex<Option<GroupState>>> = Vec::with_capacity(groups.len());
        for (key, members) in &groups {
            let state = match self.cache.remove(key) {
                Some(state) => {
                    cache_hits += 1;
                    state
                }
                None => {
                    cache_misses += 1;
                    let (solver, max_steps): (Box<dyn ClosedSolver>, Option<usize>) =
                        match &resolved[members[0]] {
                            ResolvedModel::Samples(samples) => {
                                let profile = ServiceDemandProfile::from_samples(
                                    samples,
                                    self.interpolation,
                                    self.axis,
                                )?;
                                (Box::new(MvasdSolver::new(profile)), None)
                            }
                            ResolvedModel::Hierarchy(solver) => (Box::new(solver.clone()), None),
                            ResolvedModel::Workload(workload) => (
                                Box::new(MulticlassMvaSolver::new(workload.clone())),
                                Some(workload.total_population()),
                            ),
                        };
                    GroupState {
                        iter: solver.start().map_err(CoreError::Queueing)?,
                        points: Vec::new(),
                        max_steps,
                    }
                }
            };
            jobs.push(Mutex::new(Some(state)));
        }

        // Serve each group's scenarios; groups are independent models, so
        // they fan out across the scoped pool.
        type GroupOutcome = (
            GroupState,
            Result<Vec<(usize, Vec<MvaPoint>, StopReason, usize)>, QueueingError>,
        );
        let outcomes: Vec<GroupOutcome> = scoped_indexed(groups.len(), self.parallelism, |gi| {
            // lint: interference-ok per-group job slot, each index taken exactly once
            let mut state = jobs[gi]
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .take()
                .expect("each group is taken exactly once");
            let mut served = Vec::with_capacity(groups[gi].1.len());
            let mut failure = None;
            for &si in &groups[gi].1 {
                let scenario = &scenarios[si];
                let cap = scenario.n_cap.unwrap_or(self.default_cap);
                match state.serve(&scenario.stop, cap) {
                    Ok((points, reason, fresh)) => served.push((si, points, reason, fresh)),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            match failure {
                Some(e) => (state, Err(e)),
                None => (state, Ok(served)),
            }
        });

        let mut slots: Vec<Option<ScenarioResult>> = (0..scenarios.len()).map(|_| None).collect();
        let mut steps_computed = 0usize;
        let mut steps_demanded = 0usize;
        let mut first_error: Option<QueueingError> = None;
        for ((key, _), (state, outcome)) in groups.iter().zip(outcomes) {
            match outcome {
                Ok(served) => {
                    // Return the (possibly extended) state to the cache for
                    // warm restarts on later calls.
                    let names = state.iter.shared_names();
                    for (si, points, reason, fresh) in served {
                        steps_computed += fresh;
                        steps_demanded += points.len();
                        slots[si] = Some(ScenarioResult {
                            label: scenarios[si].label.clone(),
                            solution: MvaSolution {
                                station_names: names.clone(),
                                points,
                            },
                            reason,
                        });
                    }
                    // lint: commit-phase
                    self.cache.insert(key.clone(), state);
                }
                // A failed group's iterator may hold poisoned state, so it
                // is dropped rather than cached.
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        if let Some(e) = first_error {
            return Err(CoreError::Queueing(e));
        }

        // Commit the lifetime accounting only for successful runs, so
        // `stats()` always describes answers that were actually delivered.
        self.stats.steps_computed += steps_computed;
        self.stats.steps_demanded += steps_demanded;
        self.stats.cache_hits += cache_hits;
        self.stats.cache_misses += cache_misses;
        self.stats.pool_occupancy = effective_workers(groups.len(), self.parallelism);
        let mut sub_solves = 0usize;
        let mut sub_cache_hits = 0usize;
        if let (Some(before), BaseModel::Hierarchy { profiles, .. }) = (sub_before, &self.base) {
            let after = profiles.stats();
            sub_solves = (after.solves - before.solves) as usize;
            sub_cache_hits = (after.hits - before.hits) as usize;
            self.stats.sub_solves += sub_solves;
            self.stats.sub_cache_hits += sub_cache_hits;
        }
        // lint: commit-phase
        if obsv::enabled() {
            obsv::counter("sweep.cache_hits", cache_hits as u64);
            obsv::counter("sweep.cache_misses", cache_misses as u64);
            obsv::counter("sweep.steps_computed", steps_computed as u64);
            obsv::counter("sweep.steps_demanded", steps_demanded as u64);
            obsv::counter(
                "sweep.steps_saved",
                steps_demanded.saturating_sub(steps_computed) as u64,
            );
            obsv::gauge("sweep.cached_steps", self.cached_steps() as f64);
            if sub_solves > 0 || sub_cache_hits > 0 {
                obsv::counter("sweep.sub_solves", sub_solves as u64);
                obsv::counter("sweep.sub_cache_hits", sub_cache_hits as u64);
            }
        }

        Ok(SweepReport {
            results: slots
                .into_iter()
                .map(|s| s.expect("every scenario was served by its group"))
                .collect(),
            steps_computed,
            steps_demanded,
        })
    }

    /// A structural fingerprint of the resolved model plus the solver
    /// configuration: two scenarios share an iterator iff their
    /// fingerprints match bit-for-bit.
    fn fingerprint(&self, samples: &DemandSamples) -> Vec<u64> {
        let mut key = Vec::with_capacity(
            8 + samples.station_names.len() * 2
                + samples.levels.len()
                + samples.demands.iter().map(Vec::len).sum::<usize>(),
        );
        match self.interpolation {
            InterpolationKind::Linear => key.push(10),
            InterpolationKind::CubicNatural => key.push(11),
            InterpolationKind::CubicNotAKnot => key.push(12),
            InterpolationKind::Pchip => key.push(13),
            InterpolationKind::Smoothing { lambda } => {
                key.push(14);
                key.push(lambda.to_bits());
            }
        }
        key.push(match self.axis {
            DemandAxis::Concurrency => 20,
            DemandAxis::Throughput => 21,
        });
        key.push(samples.think_time.to_bits());
        key.push(samples.station_names.len() as u64);
        for name in &samples.station_names {
            key.push(fnv1a64(name.as_bytes()));
        }
        key.extend(samples.server_counts.iter().map(|&c| c as u64));
        key.push(samples.levels.len() as u64);
        key.extend(samples.levels.iter().map(|l| l.to_bits()));
        for series in &samples.demands {
            key.extend(series.iter().map(|d| d.to_bits()));
        }
        key
    }
}

/// Fingerprint of a resolved hierarchical model: a discriminator word (so
/// hierarchical keys can never collide with sample-model keys), the
/// truncation setting, and the tree's structural words.
fn hierarchy_key(net: &HierarchicalNetwork, opts: AggregationOptions) -> Vec<u64> {
    let mut key = Vec::with_capacity(2 + 4 * net.leaf_count());
    key.push(30);
    key.push(match opts.truncation {
        Some(eps) => eps.to_bits(),
        None => u64::MAX,
    });
    key.extend(net.fingerprint_words());
    key
}

/// Fingerprint of a resolved multiclass workload: its own discriminator
/// word plus the workload's structural words (station kinds, per-class
/// populations, think times, demand bits).
fn workload_key(workload: &Workload) -> Vec<u64> {
    let mut key = Vec::with_capacity(1 + 4 * workload.station_count());
    key.push(40);
    key.extend(workload.fingerprint_words());
    key
}

/// FNV-1a over bytes: a stable, dependency-free string fingerprint.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_samples() -> DemandSamples {
        DemandSamples {
            station_names: vec!["cpu".into(), "disk".into()],
            server_counts: vec![4, 1],
            think_time: 1.0,
            levels: vec![1.0, 100.0, 300.0],
            demands: vec![vec![0.024, 0.021, 0.020], vec![0.012, 0.011, 0.0105]],
        }
    }

    #[test]
    fn identical_scenarios_share_all_steps() {
        let mut sweep = ScenarioSweep::new(base_samples()).default_cap(50);
        let report = sweep
            .run(&[Scenario::new("a"), Scenario::new("b")])
            .unwrap();
        assert_eq!(report.results.len(), 2);
        assert_eq!(
            report.results[0].solution.points,
            report.results[1].solution.points
        );
        // Scenario "b" reuses every step "a" computed.
        assert_eq!(report.steps_computed, 50);
        assert_eq!(report.steps_demanded, 100);
        assert_eq!(report.steps_saved(), 50);
    }

    #[test]
    fn warm_restart_extends_across_run_calls() {
        let mut sweep = ScenarioSweep::new(base_samples());
        let first = sweep.run(&[Scenario::new("short").cap(40)]).unwrap();
        assert_eq!(first.steps_computed, 40);
        // Same model, deeper question: only the unseen tail is computed.
        let second = sweep.run(&[Scenario::new("deep").cap(120)]).unwrap();
        assert_eq!(second.steps_computed, 80);
        assert_eq!(second.steps_demanded, 120);
        assert_eq!(second.results[0].solution.points.len(), 120);
        assert_eq!(sweep.cached_steps(), 120);
    }

    #[test]
    fn early_exit_computes_fewer_steps_than_a_full_sweep() {
        let mut sweep = ScenarioSweep::new(base_samples()).default_cap(300);
        let sla = Scenario::new("sla").until(StopCondition::SlaResponseTime { max_response: 0.5 });
        let report = sweep.run(&[sla]).unwrap();
        let r = &report.results[0];
        assert!(matches!(
            r.reason,
            StopReason::Met(StopCondition::SlaResponseTime { .. })
        ));
        assert!(
            r.steps() < 300,
            "SLA query should stop early, took {} steps",
            r.steps()
        );
        // The answering point is included and is the first violation.
        assert!(r.solution.last().response > 0.5);
        let prior = &r.solution.points[r.steps() - 2];
        assert!(prior.response <= 0.5);
    }

    #[test]
    fn distinct_models_get_distinct_iterators() {
        let mut sweep = ScenarioSweep::new(base_samples()).default_cap(30);
        let report = sweep
            .run(&[
                Scenario::new("base"),
                Scenario::new("fast-disk").scale_stations(vec![1.0, 0.5]),
            ])
            .unwrap();
        // No sharing possible: every step is fresh.
        assert_eq!(report.steps_computed, 60);
        assert_eq!(report.steps_saved(), 0);
        let base_x = report.result("base").unwrap().solution.last().throughput;
        let fast_x = report
            .result("fast-disk")
            .unwrap()
            .solution
            .last()
            .throughput;
        assert!(fast_x > base_x);
    }

    #[test]
    fn overrides_change_the_model() {
        let mut sweep = ScenarioSweep::new(base_samples()).default_cap(200);
        let report = sweep
            .run(&[
                Scenario::new("base"),
                Scenario::new("no-think").with_think_time(0.1),
                Scenario::new("more-cores").with_server_counts(vec![8, 1]),
            ])
            .unwrap();
        let base = report.result("base").unwrap();
        let nt = report.result("no-think").unwrap();
        // Lower think time -> higher response at the same population
        // (more pressure on the queues).
        assert!(nt.solution.at(50).unwrap().response > base.solution.at(50).unwrap().response);
        assert_eq!(report.steps_computed, 600);
    }

    #[test]
    fn stats_accumulate_across_runs() {
        let mut sweep = ScenarioSweep::new(base_samples());
        assert_eq!(sweep.stats(), SweepStats::default());
        sweep.run(&[Scenario::new("a").cap(40)]).unwrap();
        let s1 = sweep.stats();
        assert_eq!(s1.steps_computed, 40);
        assert_eq!(s1.steps_demanded, 40);
        assert_eq!(s1.cache_hits, 0);
        assert_eq!(s1.cache_misses, 1);
        // Warm restart: the same model is a cache hit; only the tail is new.
        sweep.run(&[Scenario::new("b").cap(100)]).unwrap();
        let s2 = sweep.stats();
        assert_eq!(s2.steps_computed, 100);
        assert_eq!(s2.steps_demanded, 140);
        assert_eq!(s2.steps_saved(), 40);
        assert_eq!(s2.cache_hits, 1);
        assert_eq!(s2.cache_misses, 1);
        // A failed run leaves the accounting untouched.
        assert!(sweep.run(&[]).is_err());
        assert_eq!(sweep.stats(), s2);
    }

    #[test]
    fn zero_cap_yields_empty_answers() {
        let mut sweep = ScenarioSweep::new(base_samples());
        let report = sweep.run(&[Scenario::new("none").cap(0)]).unwrap();
        assert!(report.results[0].solution.points.is_empty());
        assert_eq!(report.results[0].reason, StopReason::PopulationCap);
        assert_eq!(report.steps_computed, 0);
    }

    #[test]
    fn rejects_bad_scenarios() {
        let mut sweep = ScenarioSweep::new(base_samples());
        assert!(sweep.run(&[]).is_err());
        assert!(sweep
            .run(&[Scenario::new("bad").scale_demands(0.0)])
            .is_err());
        assert!(sweep
            .run(&[Scenario::new("bad").scale_stations(vec![1.0])])
            .is_err());
        assert!(sweep
            .run(&[Scenario::new("bad").scale_stations(vec![1.0, f64::NAN])])
            .is_err());
        assert!(sweep
            .run(&[Scenario::new("bad").with_server_counts(vec![1])])
            .is_err());
    }

    fn hier_net() -> HierarchicalNetwork {
        use mvasd_queueing::hierarchy::{NetworkNode, Subsystem};
        use mvasd_queueing::network::Station;
        let tier = |name: &str, cpu: f64, disk: f64| -> NetworkNode {
            Subsystem::new(
                name,
                vec![
                    Station::queueing(&format!("{name}-cpu"), 2, 1.0, cpu).into(),
                    Station::queueing(&format!("{name}-disk"), 1, 1.0, disk).into(),
                ],
            )
            .into()
        };
        HierarchicalNetwork::new(
            vec![
                Station::queueing("lb", 1, 1.0, 0.002).into(),
                tier("app-1", 0.010, 0.004),
                tier("app-2", 0.010, 0.004),
                tier("db", 0.016, 0.007),
            ],
            0.5,
        )
        .unwrap()
    }

    #[test]
    fn hierarchical_sweep_memoizes_submodels() {
        let mut sweep =
            ScenarioSweep::over_hierarchy(hier_net(), AggregationOptions::exact()).default_cap(40);
        let report = sweep
            .run(&[Scenario::new("base"), Scenario::new("again")])
            .unwrap();
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.steps_computed, 40);
        assert_eq!(report.steps_saved(), 40);
        let s1 = sweep.stats();
        // Three subsystems, two distinct shapes (app-1 and app-2 share a
        // fingerprint): 2 profile solves, at least 1 sub-model cache hit.
        assert_eq!(s1.sub_solves, 2, "stats: {s1:?}");
        assert!(s1.sub_cache_hits >= 1, "stats: {s1:?}");

        // A scenario that only rescales the root station leaves every
        // subsystem untouched: zero fresh profile solves.
        let factors = vec![0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        sweep
            .run(&[Scenario::new("fast-lb").scale_stations(factors)])
            .unwrap();
        let s2 = sweep.stats();
        assert_eq!(s2.sub_solves, s1.sub_solves, "stats: {s2:?}");
        assert!(s2.sub_cache_hits > s1.sub_cache_hits, "stats: {s2:?}");
    }

    #[test]
    fn hierarchical_sweep_matches_direct_solver() {
        let net = hier_net();
        let mut sweep =
            ScenarioSweep::over_hierarchy(net.clone(), AggregationOptions::exact()).default_cap(30);
        let report = sweep.run(&[Scenario::new("base")]).unwrap();
        let direct = HierarchicalSolver::new(net).solve(30).unwrap();
        assert_eq!(report.results[0].solution.points, direct.points);
    }

    #[test]
    fn hierarchical_sweep_rejects_server_count_overrides() {
        let mut sweep = ScenarioSweep::over_hierarchy(hier_net(), AggregationOptions::exact());
        assert!(sweep
            .run(&[Scenario::new("bad").with_server_counts(vec![1; 7])])
            .is_err());
        assert!(sweep
            .run(&[Scenario::new("bad").scale_stations(vec![1.0])])
            .is_err());
    }

    fn base_workload() -> Workload {
        use mvasd_queueing::network::StationKind;
        Workload::new(
            vec!["cpu".into(), "disk".into()],
            vec![
                StationKind::Queueing { servers: 2 },
                StationKind::Queueing { servers: 1 },
            ],
            vec![
                ClassSpec {
                    name: "browse".into(),
                    population: 12,
                    think_time: 1.0,
                    demands: vec![0.012, 0.006],
                },
                ClassSpec {
                    name: "checkout".into(),
                    population: 6,
                    think_time: 0.5,
                    demands: vec![0.004, 0.020],
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn workload_sweep_shares_prefixes_and_warm_restarts() {
        let mut sweep = ScenarioSweep::over_workload(base_workload()).default_cap(10);
        let first = sweep.run(&[Scenario::new("short")]).unwrap();
        assert_eq!(first.steps_computed, 10);
        // Deeper question on the same workload: only the unseen tail is
        // fresh, and the cap clamps to the path's end (total population 18).
        let second = sweep.run(&[Scenario::new("deep").cap(100)]).unwrap();
        assert_eq!(second.results[0].solution.points.len(), 18);
        assert_eq!(second.steps_computed, 8);
        assert_eq!(second.results[0].reason, StopReason::PopulationCap);
    }

    #[test]
    fn workload_class_scales_change_the_model() {
        let mut sweep = ScenarioSweep::over_workload(base_workload()).default_cap(18);
        let report = sweep
            .run(&[
                Scenario::new("base"),
                Scenario::new("heavy-checkout").scale_classes(vec![1.0, 1.5]),
            ])
            .unwrap();
        let base_x = report.result("base").unwrap().solution.last().throughput;
        let heavy_x = report
            .result("heavy-checkout")
            .unwrap()
            .solution
            .last()
            .throughput;
        assert!(heavy_x < base_x, "{heavy_x} vs {base_x}");
        // Distinct fingerprints: no sharing between the two groups.
        assert_eq!(report.steps_computed, 36);
        assert_eq!(report.steps_saved(), 0);
    }

    #[test]
    fn class_scales_need_a_workload_base() {
        let mut samples = ScenarioSweep::new(base_samples());
        assert!(samples
            .run(&[Scenario::new("bad").scale_classes(vec![1.0, 1.0])])
            .is_err());
        let mut hier = ScenarioSweep::over_hierarchy(hier_net(), AggregationOptions::exact());
        assert!(hier
            .run(&[Scenario::new("bad").scale_classes(vec![1.0; 7])])
            .is_err());
        let mut workload = ScenarioSweep::over_workload(base_workload());
        // Wrong arity and unsupported overrides are rejected there too.
        assert!(workload
            .run(&[Scenario::new("bad").scale_classes(vec![1.0])])
            .is_err());
        assert!(workload
            .run(&[Scenario::new("bad").with_server_counts(vec![1, 1])])
            .is_err());
    }

    #[test]
    fn results_keep_input_order_under_parallelism() {
        let mut sweep = ScenarioSweep::new(base_samples())
            .default_cap(25)
            .parallelism(4);
        let scenarios: Vec<Scenario> = (0..8)
            .map(|i| Scenario::new(&format!("s{i}")).scale_demands(1.0 + 0.05 * i as f64))
            .collect();
        let report = sweep.run(&scenarios).unwrap();
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.label, format!("s{i}"));
            assert_eq!(r.solution.points.len(), 25);
        }
        // Heavier demands -> lower throughput, monotone across scenarios.
        let xs: Vec<f64> = report
            .results
            .iter()
            .map(|r| r.solution.last().throughput)
            .collect();
        assert!(xs.windows(2).all(|w| w[0] > w[1]), "{xs:?}");
    }
}
