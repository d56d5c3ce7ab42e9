//! The four workloads: the fixed inputs each one makes at set-up, the op
//! the benchmark times, and the correctness gates every op must pass.
//!
//! An op calls only public APIs, each wrapped in [`layer`] so a traced
//! slice can charge its time and counters to the right layer. The gates
//! run after the op's clock stops.

use mvasd_core::accuracy::{compare_solution, DeviationReport};
use mvasd_core::pipeline::PredictionWorkflow;
use mvasd_core::profile::{DemandAxis, DemandSamples, InterpolationKind, ServiceDemandProfile};
use mvasd_core::solver::MvasdSolver;
use mvasd_core::sweep::{Scenario, ScenarioSweep, SweepReport};
use mvasd_numerics::rng::Xoshiro256pp;
use mvasd_queueing::bounds::throughput_bounds;
use mvasd_queueing::mva::{
    reference_solve_at, run_until, ClosedSolver, LdStation, MvaPoint, MvaSolution, RateFunction,
    StopCondition,
};
use mvasd_queueing::network::{ClosedNetwork, Station};
use mvasd_testbed::apps::{jpetstore, vins, AppModel};
use mvasd_testbed::campaign::{run_campaign, Campaign, CampaignConfig};

use crate::trace::{layer, Layer};

/// Simulated seconds per load-test level: the paper's tests ran 15 min.
const TEST_SECONDS: f64 = 900.0;
/// Chebyshev test levels per workflow campaign (paper Section 8).
const TEST_POINTS: usize = 5;
/// The paper's accuracy bands (Tables 4–5), in mean percent deviation.
const BAND_THROUGHPUT_PCT: f64 = 3.0;
const BAND_CYCLE_PCT: f64 = 9.0;
/// Largest relative throughput error against the from-scratch oracle.
const ORACLE_TOLERANCE: f64 = 1e-9;
/// Relative slack on the asymptotic throughput bounds; see
/// [`within_bounds`].
const BOUNDS_SLACK: f64 = 1e-3;
/// Half-width of the per-op multiplicative demand jitter.
const JITTER: f64 = 0.02;
/// Population cap of the saturating model, full and quick.
const SATURATING_N: usize = 600;
const SATURATING_N_QUICK: usize = 300;
/// Population cap of every what-if question.
const WHATIF_CAP: usize = 1500;
/// Every this many what-if ops, each answer is re-solved directly.
const WHATIF_CHECK_EVERY: usize = 10;
/// Campaign and sweep workers: one, so an op keeps a single core busy
/// and a shared box's other cores cannot make it wait on a straggler.
const WORKERS: usize = 1;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    VinsWorkflow,
    JpetstoreWorkflow,
    Saturating600,
    VinsWhatif,
}

impl Workload {
    pub(crate) const ALL: [Workload; 4] = [
        Workload::VinsWorkflow,
        Workload::JpetstoreWorkflow,
        Workload::Saturating600,
        Workload::VinsWhatif,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::VinsWorkflow => "vins_workflow",
            Workload::JpetstoreWorkflow => "jpetstore_workflow",
            Workload::Saturating600 => "saturating_600",
            Workload::VinsWhatif => "vins_whatif",
        }
    }

    pub(crate) fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops per slice in quick mode.
    pub(crate) fn quick_ops(self) -> usize {
        match self {
            Workload::VinsWorkflow | Workload::JpetstoreWorkflow => 2,
            Workload::Saturating600 => 1,
            Workload::VinsWhatif => 50,
        }
    }
}

/// A workflow workload's shape: Chebyshev range, prediction depth, and
/// the held-out levels its accuracy is judged on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkflowSpec {
    range: (f64, f64),
    n_max: usize,
    holdout: [u64; 3],
}

const VINS: WorkflowSpec = WorkflowSpec {
    range: (1.0, 1500.0),
    n_max: 1500,
    holdout: [150, 500, 1000],
};

const JPETSTORE: WorkflowSpec = WorkflowSpec {
    range: (1.0, 300.0),
    n_max: 300,
    holdout: [35, 110, 200],
};

impl WorkflowSpec {
    fn workflow(self) -> PredictionWorkflow {
        PredictionWorkflow {
            test_points: TEST_POINTS,
            range: self.range,
            ..PredictionWorkflow::default()
        }
    }
}

/// What set-up makes once per run; every op reads it.
pub(crate) enum Fixture {
    Workflow {
        app: AppModel,
        spec: WorkflowSpec,
        holdout: Campaign,
    },
    Saturating {
        base: DemandSamples,
        n_max: usize,
    },
    Whatif {
        base: DemandSamples,
        questions: Vec<Scenario>,
        followups: Vec<Scenario>,
    },
}

/// What an op hands to its correctness gates.
pub(crate) enum Output {
    Workflow {
        profile: ServiceDemandProfile,
        solution: MvaSolution,
        sampled: DeviationReport,
        holdout: DeviationReport,
    },
    Saturating {
        profile: ServiceDemandProfile,
        solution: MvaSolution,
    },
    Whatif {
        samples: DemandSamples,
        cold: SweepReport,
        warm: SweepReport,
    },
}

/// Accuracy an op's gates measured; `None` where the workload has no
/// such reference.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Accuracy {
    pub(crate) holdout_x_err_pct: Option<f64>,
    pub(crate) holdout_cycle_err_pct: Option<f64>,
    pub(crate) oracle_rel_err: Option<f64>,
}

fn campaign(app: &AppModel, levels: &[u64], seed: u64) -> Result<Campaign, String> {
    let cfg = CampaignConfig {
        test_duration: TEST_SECONDS,
        parallelism: WORKERS,
        base_seed: seed,
    };
    run_campaign(app, levels, &cfg).map_err(|e| format!("campaign: {e}"))
}

/// Builds the workload's fixed inputs from `setup_seed`.
pub(crate) fn setup(workload: Workload, setup_seed: u64, quick: bool) -> Result<Fixture, String> {
    match workload {
        Workload::VinsWorkflow | Workload::JpetstoreWorkflow => {
            let (app, spec) = if workload == Workload::VinsWorkflow {
                (vins::model(), VINS)
            } else {
                (jpetstore::model(), JPETSTORE)
            };
            let holdout = campaign(&app, &spec.holdout, setup_seed)?;
            Ok(Fixture::Workflow { app, spec, holdout })
        }
        Workload::Saturating600 => {
            let base = saturating_samples();
            // The harness's own check before measuring: one solve at the
            // quick population must already agree with the oracle.
            let warmup = Fixture::Saturating {
                base: base.clone(),
                n_max: SATURATING_N_QUICK,
            };
            let out = run_op(&warmup, setup_seed)?;
            check(&warmup, &out, 0)?;
            let n_max = if quick {
                SATURATING_N_QUICK
            } else {
                SATURATING_N
            };
            Ok(Fixture::Saturating { base, n_max })
        }
        Workload::VinsWhatif => {
            let levels = VINS
                .workflow()
                .design()
                .map_err(|e| format!("design: {e}"))?;
            let measured = campaign(&vins::model(), &levels, setup_seed)?;
            let base = measured.to_demand_samples();
            let (questions, followups) = whatif_questions(&base);
            Ok(Fixture::Whatif {
                base,
                questions,
                followups,
            })
        }
    }
}

/// The ROADMAP's 2-station saturating model: a 16-core DB CPU whose
/// demand falls with load, and a disk.
fn saturating_samples() -> DemandSamples {
    DemandSamples {
        station_names: vec!["db-cpu16".into(), "disk".into()],
        server_counts: vec![16, 1],
        think_time: 1.0,
        levels: vec![1.0, 750.0, 1500.0],
        demands: vec![vec![0.165, 0.160, 0.158], vec![0.004, 0.004, 0.004]],
    }
}

/// A capacity-planning session: 5 demand scales × 3 SLA ceilings, a
/// 32-core variant and two think times (18 questions over 8 models),
/// then one looser follow-up per model.
fn whatif_questions(base: &DemandSamples) -> (Vec<Scenario>, Vec<Scenario>) {
    let sla = |s: f64| StopCondition::SlaResponseTime { max_response: s };
    let doubled: Vec<usize> = base
        .server_counts
        .iter()
        .map(|&c| if c > 1 { 2 * c } else { c })
        .collect();
    let models: Vec<(String, Scenario)> = [0.8, 0.9, 1.0, 1.1, 1.2]
        .iter()
        .map(|&s| (format!("scale{s}"), Scenario::new("").scale_demands(s)))
        .chain([
            (
                "cores32".to_string(),
                Scenario::new("").with_server_counts(doubled),
            ),
            ("z0.5".to_string(), Scenario::new("").with_think_time(0.5)),
            ("z2".to_string(), Scenario::new("").with_think_time(2.0)),
        ])
        .collect();
    let ask = |label: String, model: &Scenario, ceiling: f64| Scenario {
        label,
        stop: vec![sla(ceiling)],
        n_cap: Some(WHATIF_CAP),
        ..model.clone()
    };
    let mut questions = Vec::new();
    for (name, model) in &models {
        let ceilings: &[f64] = if name.starts_with("scale") {
            &[0.25, 0.5, 1.0]
        } else {
            &[0.5]
        };
        for &c in ceilings {
            questions.push(ask(format!("{name}/sla{c}"), model, c));
        }
    }
    let followups = models
        .iter()
        .map(|(name, model)| ask(format!("{name}/sla2"), model, 2.0))
        .collect();
    (questions, followups)
}

/// `samples` with the rows in `rows` scaled by seeded factors in
/// `[1 − JITTER, 1 + JITTER]`, one factor per sample.
fn jittered(samples: &DemandSamples, rows: std::ops::Range<usize>, seed: u64) -> DemandSamples {
    let mut out = samples.clone();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    for row in out.demands.iter_mut().take(rows.end).skip(rows.start) {
        for d in row.iter_mut() {
            *d *= rng.uniform(1.0 - JITTER, 1.0 + JITTER);
        }
    }
    out
}

/// One timed op.
pub(crate) fn run_op(fixture: &Fixture, seed: u64) -> Result<Output, String> {
    match fixture {
        Fixture::Workflow { app, spec, holdout } => {
            let wf = spec.workflow();
            let levels = wf.design().map_err(|e| format!("design: {e}"))?;
            let measured = layer(Layer::Campaign, || campaign(app, &levels, seed))?;
            let samples = measured.to_demand_samples();
            let profile = layer(Layer::Profile, || {
                ServiceDemandProfile::from_samples(&samples, wf.interpolation, wf.axis)
            })
            .map_err(|e| format!("profile: {e}"))?;
            let solution = layer(Layer::Mvasd, || {
                MvasdSolver::new(profile.clone()).solve(spec.n_max)
            })
            .map_err(|e| format!("mvasd: {e}"))?;
            let deviation = |c: &Campaign| {
                compare_solution(
                    "MVASD",
                    &solution,
                    &c.levels(),
                    &c.throughputs(),
                    &c.cycle_times(),
                )
                .map_err(|e| format!("accuracy: {e}"))
            };
            let sampled = deviation(&measured)?;
            let holdout = deviation(holdout)?;
            Ok(Output::Workflow {
                profile,
                solution,
                sampled,
                holdout,
            })
        }
        Fixture::Saturating { base, n_max } => {
            let samples = jittered(base, 0..1, seed);
            let profile = layer(Layer::Profile, || profile_of(&samples))?;
            let solution = layer(Layer::Mvasd, || {
                MvasdSolver::new(profile.clone()).solve(*n_max)
            })
            .map_err(|e| format!("mvasd: {e}"))?;
            Ok(Output::Saturating { profile, solution })
        }
        Fixture::Whatif {
            base,
            questions,
            followups,
        } => {
            let samples = jittered(base, 0..base.demands.len(), seed);
            let mut sweep = ScenarioSweep::new(samples.clone())
                .default_cap(WHATIF_CAP)
                .parallelism(WORKERS);
            let cold = layer(Layer::SweepCold, || sweep.run(questions))
                .map_err(|e| format!("sweep: {e}"))?;
            let warm = layer(Layer::SweepWarm, || sweep.run(followups))
                .map_err(|e| format!("sweep: {e}"))?;
            Ok(Output::Whatif {
                samples,
                cold,
                warm,
            })
        }
    }
}

fn profile_of(samples: &DemandSamples) -> Result<ServiceDemandProfile, String> {
    ServiceDemandProfile::from_samples(
        samples,
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .map_err(|e| format!("profile: {e}"))
}

/// The correctness gates of op `index`; an `Err` counts the op as failed.
pub(crate) fn check(fixture: &Fixture, output: &Output, index: usize) -> Result<Accuracy, String> {
    match (fixture, output) {
        (
            Fixture::Workflow { .. },
            Output::Workflow {
                profile,
                solution,
                sampled,
                holdout,
            },
        ) => {
            within_bounds(profile, solution)?;
            within_bands("sampled", sampled)?;
            within_bands("held-out", holdout)?;
            Ok(Accuracy {
                holdout_x_err_pct: Some(holdout.throughput_mean_pct),
                holdout_cycle_err_pct: Some(holdout.cycle_mean_pct),
                oracle_rel_err: None,
            })
        }
        (Fixture::Saturating { n_max, .. }, Output::Saturating { profile, solution }) => {
            within_bounds(profile, solution)?;
            let mut worst = 0.0f64;
            for n in [n_max / 3, 2 * n_max / 3, *n_max] {
                let err = oracle_error(profile, solution, n)?;
                if err.is_nan() || err > ORACLE_TOLERANCE {
                    return Err(format!("n={n}: {err:e} from the oracle"));
                }
                worst = worst.max(err);
            }
            Ok(Accuracy {
                oracle_rel_err: Some(worst),
                ..Accuracy::default()
            })
        }
        (
            Fixture::Whatif {
                questions,
                followups,
                ..
            },
            Output::Whatif {
                samples,
                cold,
                warm,
            },
        ) => {
            let answers = cold.results.iter().chain(&warm.results);
            let asked = questions.iter().chain(followups);
            if cold.results.len() != questions.len() || warm.results.len() != followups.len() {
                return Err("sweep answered the wrong number of questions".into());
            }
            let mut worst = None;
            for (scenario, answer) in asked.zip(answers) {
                if answer.solution.points.is_empty()
                    || !answer.solution.points.iter().all(finite_point)
                {
                    return Err(format!("{}: empty or non-finite answer", scenario.label));
                }
                if index % WHATIF_CHECK_EVERY == 0 {
                    let direct = direct_answer(samples, scenario)?;
                    if !same_bits(&direct, &answer.solution.points) {
                        return Err(format!("{}: differs from a direct solve", scenario.label));
                    }
                    worst = Some(0.0);
                }
            }
            Ok(Accuracy {
                oracle_rel_err: worst,
                ..Accuracy::default()
            })
        }
        _ => Err("op output does not match its fixture".into()),
    }
}

fn finite_point(p: &MvaPoint) -> bool {
    p.throughput.is_finite() && p.response.is_finite() && p.cycle_time.is_finite()
}

/// Every point finite and inside the asymptotic throughput bounds of the
/// network frozen at that population's interpolated demands.
///
/// The lower bound comes from the same network with one server per
/// station, which can only be slower: `throughput_bounds` builds its
/// pessimistic side from `D/C`, which at small `n` exceeds the true
/// multi-server throughput (at `n = 1` it is `1/(Σ D/C + Z)`, above the
/// exact `1/(Σ D + Z)`). While demands fall with `n`, the carried
/// recursion meets each step's demands with queues built on the previous
/// step's larger ones: on VINS, throughput overshoots the bottleneck
/// ceiling by up to 4e-5 relative (worst of 40 seeds), hence the slack.
fn within_bounds(profile: &ServiceDemandProfile, solution: &MvaSolution) -> Result<(), String> {
    let frozen = |n: usize, one_server: bool| {
        let demands = profile.demands_at(n as f64);
        let stations = profile
            .stations()
            .iter()
            .zip(&demands)
            .map(|(s, &d)| {
                let servers = if one_server { 1 } else { s.servers };
                Station::queueing(&s.name, servers, 1.0, d)
            })
            .collect();
        ClosedNetwork::new(stations, profile.think_time()).map_err(|e| format!("n={n}: {e}"))
    };
    for p in &solution.points {
        if !finite_point(p) {
            return Err(format!("n={}: non-finite point", p.n));
        }
        let upper = throughput_bounds(&frozen(p.n, false)?, p.n).upper;
        let lower = throughput_bounds(&frozen(p.n, true)?, p.n).lower;
        let slack = BOUNDS_SLACK * upper;
        if p.throughput > upper + slack || p.throughput < lower - slack {
            return Err(format!(
                "n={}: throughput {} outside [{lower}, {upper}]",
                p.n, p.throughput
            ));
        }
    }
    Ok(())
}

fn within_bands(what: &str, r: &DeviationReport) -> Result<(), String> {
    if r.throughput_mean_pct < BAND_THROUGHPUT_PCT && r.cycle_mean_pct < BAND_CYCLE_PCT {
        Ok(())
    } else {
        Err(format!(
            "{what} levels outside the paper bands: throughput {:.2} %, cycle {:.2} %",
            r.throughput_mean_pct, r.cycle_mean_pct
        ))
    }
}

/// Relative throughput error at population `n` against a from-scratch
/// solve of the network frozen at that step's interpolated demands.
fn oracle_error(
    profile: &ServiceDemandProfile,
    solution: &MvaSolution,
    n: usize,
) -> Result<f64, String> {
    let demands = profile.demands_at(n as f64);
    let stations: Vec<LdStation> = profile
        .stations()
        .iter()
        .zip(&demands)
        .map(|(s, &d)| {
            let rate = if s.servers > 1 {
                RateFunction::MultiServer(s.servers)
            } else {
                RateFunction::SingleServer
            };
            LdStation::new(&s.name, d, rate)
        })
        .collect();
    let (x_ref, _, _) = reference_solve_at(&stations, profile.think_time(), n, &[])
        .map_err(|e| format!("oracle: {e}"))?;
    let x = solution
        .at(n)
        .ok_or_else(|| format!("n={n} was not solved"))?
        .throughput;
    Ok((x - x_ref).abs() / x_ref)
}

/// A what-if answer recomputed without the sweep: resolve the scenario by
/// hand, then stream a fresh MVASD iterator to the same stop.
fn direct_answer(base: &DemandSamples, s: &Scenario) -> Result<Vec<MvaPoint>, String> {
    let mut samples = base.clone();
    for row in &mut samples.demands {
        for d in row.iter_mut() {
            *d *= s.demand_scale;
        }
    }
    if let Some(z) = s.think_time {
        samples.think_time = z;
    }
    if let Some(counts) = &s.server_counts {
        samples.server_counts = counts.clone();
    }
    let solver = MvasdSolver::new(profile_of(&samples)?);
    let mut iter = solver.start().map_err(|e| format!("direct: {e}"))?;
    let outcome = run_until(iter.as_mut(), &s.stop, s.n_cap.unwrap_or(WHATIF_CAP))
        .map_err(|e| format!("direct: {e}"))?;
    Ok(outcome.solution.points)
}

fn same_bits(a: &[MvaPoint], b: &[MvaPoint]) -> bool {
    let bits = |p: &MvaPoint| {
        let mut v = vec![
            p.n as u64,
            p.throughput.to_bits(),
            p.response.to_bits(),
            p.cycle_time.to_bits(),
        ];
        for s in &p.stations {
            v.extend([
                s.queue.to_bits(),
                s.residence.to_bits(),
                s.utilization.to_bits(),
            ]);
        }
        v
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}
