//! Cross-backend streaming guarantees: every solver in the workspace —
//! the three static MVA solvers (the exact one through both its
//! constructors), the three MVASD variants, the hierarchical
//! Norton-aggregation solver, and the discrete-event estimator — exposes
//! a resumable population iterator
//! whose stream is bit-for-bit the batch solution, survives
//! snapshot/restore mid-sweep, and treats `n_max = 0` as an empty (but
//! validated) sweep. Also proves the early-exit and warm-restart savings
//! the streaming core exists for.

use mvasd_suite::core::profile::{
    DemandAxis, DemandSamples, InterpolationKind, ServiceDemandProfile,
};
use mvasd_suite::core::solver::{MvasdSchweitzerSolver, MvasdSingleServerSolver, MvasdSolver};
use mvasd_suite::core::sweep::{Scenario, ScenarioSweep};
use mvasd_suite::numerics::propcheck::{check, Config, Gen};
use mvasd_suite::queueing::hierarchy::{
    AggregationOptions, HierarchicalNetwork, HierarchicalSolver, Subsystem,
};
use mvasd_suite::queueing::mva::{
    load_dependent_mva, run_until, ClassSpec, ClosedSolver, ConvWorkspace, ExactMvaSolver,
    LdStation, MomSolver, MulticlassMvaSolver, MultiserverMvaSolver, RateFunction,
    SchweitzerSolver, StopCondition, StopReason, Workload,
};
use mvasd_suite::queueing::network::{ClosedNetwork, Station, StationKind};
use mvasd_suite::simnet::{Distribution, SimConfig, SimNetwork, SimStation};
use mvasd_suite::testbed::solver::SimSolver;

fn network() -> ClosedNetwork {
    ClosedNetwork::new(
        vec![
            Station::queueing("cpu", 4, 1.0, 0.020),
            Station::queueing("disk", 1, 1.0, 0.012),
            Station::delay("lan", 1.0, 0.004),
        ],
        1.0,
    )
    .unwrap()
}

fn profile() -> ServiceDemandProfile {
    let samples = DemandSamples {
        station_names: vec!["cpu".into(), "disk".into()],
        server_counts: vec![4, 1],
        think_time: 1.0,
        levels: vec![1.0, 60.0, 200.0],
        demands: vec![vec![0.024, 0.021, 0.020], vec![0.012, 0.011, 0.0105]],
    };
    ServiceDemandProfile::from_samples(
        &samples,
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .unwrap()
}

fn sim_solver() -> SimSolver {
    let net = SimNetwork::new(
        vec![SimStation::queueing("s0", 1, 0.05)],
        Distribution::Exponential { mean: 0.5 },
    )
    .unwrap();
    SimSolver::new(
        net,
        SimConfig {
            horizon: 400.0,
            warmup: 40.0,
            seed: 7,
            ..SimConfig::default()
        },
    )
}

/// The streaming `network()` topology with its cpu+disk pair wrapped in a
/// subsystem, so the hierarchical backend streams through a Norton
/// flow-equivalent server while exposing the same leaves.
fn hierarchical_network() -> HierarchicalNetwork {
    HierarchicalNetwork::new(
        vec![
            Subsystem::new(
                "svc",
                vec![
                    Station::queueing("cpu", 4, 1.0, 0.020).into(),
                    Station::queueing("disk", 1, 1.0, 0.012).into(),
                ],
            )
            .into(),
            Station::delay("lan", 1.0, 0.004).into(),
        ],
        1.0,
    )
    .unwrap()
}

/// The `network()` stations as load-dependent ones, with a sublinear
/// rate-table CPU in place of the 4-server queue.
fn ld_stations() -> Vec<LdStation> {
    vec![
        LdStation::new("cpu", 0.020, RateFunction::Custom(vec![1.0, 1.9, 2.7, 3.4])),
        LdStation::new("disk", 0.012, RateFunction::SingleServer),
        LdStation::new("lan", 0.004, RateFunction::Delay),
    ]
}

/// Every backend, each paired with a population depth that keeps the
/// suite fast (the DES backend runs one simulation per step).
fn all_backends() -> Vec<(Box<dyn ClosedSolver>, usize)> {
    let net = network();
    vec![
        (
            Box::new(ExactMvaSolver::new(net.clone())) as Box<dyn ClosedSolver>,
            60,
        ),
        (Box::new(MultiserverMvaSolver::new(net.clone())), 60),
        (
            Box::new(MultiserverMvaSolver::from_stations(ld_stations(), 1.0)),
            60,
        ),
        (Box::new(SchweitzerSolver::new(net)), 60),
        (Box::new(MvasdSolver::new(profile())), 60),
        (Box::new(MvasdSingleServerSolver::new(profile())), 60),
        (Box::new(MvasdSchweitzerSolver::new(profile())), 60),
        (
            Box::new(HierarchicalSolver::new(hierarchical_network())),
            60,
        ),
        (Box::new(sim_solver()), 6),
    ]
}

#[test]
fn streaming_equals_batch_for_every_backend() {
    for (solver, depth) in all_backends() {
        let batch = solver.solve(depth).unwrap();
        assert_eq!(batch.points.len(), depth, "{}", solver.name());

        // Draining the iterator reproduces the batch output bit-for-bit.
        let streamed = solver.start().unwrap().drain(depth).unwrap();
        assert_eq!(batch, streamed, "{}", solver.name());

        // Step-by-step: populations ascend one at a time.
        let mut iter = solver.start().unwrap();
        assert_eq!(iter.population(), 0, "{}", solver.name());
        for n in 1..=depth.min(5) {
            let p = iter.step().unwrap();
            assert_eq!(p.n, n, "{}", solver.name());
            assert_eq!(iter.population(), n, "{}", solver.name());
            assert_eq!(p, batch.points[n - 1], "{}", solver.name());
        }
    }
}

#[test]
fn snapshot_restore_mid_sweep_is_bit_identical() {
    for (solver, depth) in all_backends() {
        let batch = solver.solve(depth).unwrap();
        let cut = depth / 2;

        let mut iter = solver.start().unwrap();
        for _ in 0..cut {
            iter.step().unwrap();
        }
        let snapshot = iter.snapshot();
        assert_eq!(snapshot.population(), cut, "{}", solver.name());

        // The original iterator and the restored one both produce the
        // exact batch tail — and restoring twice works (snapshots are
        // reusable, not consumed).
        let direct = iter.drain(depth).unwrap();
        assert_eq!(direct.points, batch.points[cut..], "{}", solver.name());
        for _ in 0..2 {
            let resumed = snapshot.resume().drain(depth).unwrap();
            assert_eq!(resumed.points, batch.points[cut..], "{}", solver.name());
        }
    }
}

#[test]
fn zero_population_yields_empty_solutions_everywhere() {
    for (solver, _) in all_backends() {
        let sol = solver.solve(0).unwrap();
        assert!(sol.points.is_empty(), "{}", solver.name());
        assert!(!sol.station_names.is_empty(), "{}", solver.name());
        assert_eq!(sol.at(1), None, "{}", solver.name());
        // The streaming face agrees.
        let streamed = solver.start().unwrap().drain(0).unwrap();
        assert_eq!(sol, streamed, "{}", solver.name());
    }
}

/// A two-class workload over the `network()` stations, deep enough (64
/// customers) that batch/stream divergence or snapshot drift would have
/// many steps to show up.
fn two_class_workload() -> Workload {
    Workload::new(
        vec!["cpu".into(), "disk".into(), "lan".into()],
        vec![
            StationKind::Queueing { servers: 4 },
            StationKind::Queueing { servers: 1 },
            StationKind::Delay,
        ],
        vec![
            ClassSpec {
                name: "heavy".into(),
                population: 40,
                think_time: 1.0,
                demands: vec![0.020, 0.012, 0.004],
            },
            ClassSpec {
                name: "light".into(),
                population: 24,
                think_time: 0.3,
                demands: vec![0.006, 0.002, 0.004],
            },
        ],
    )
    .unwrap()
}

#[test]
fn multiclass_streaming_equals_batch_for_both_backends() {
    // The two exact multiclass backends — the carried-lattice recursion and
    // the Method of Moments — honor the same streaming contract as the
    // single-class family: drain ≡ batch bit-for-bit, snapshots resume
    // bit-identically mid-path, and population 0 is an empty sweep.
    let w = two_class_workload();
    let depth = w.total_population();
    assert!(depth >= 60);
    let solvers: Vec<Box<dyn ClosedSolver>> = vec![
        Box::new(MulticlassMvaSolver::new(w.clone())),
        Box::new(MomSolver::new(w)),
    ];
    assert_eq!(solvers[0].name(), "multiclass-mva");
    assert_eq!(solvers[1].name(), "multiclass-mom");
    for solver in &solvers {
        let batch = solver.solve(depth).unwrap();
        assert_eq!(batch.points.len(), depth, "{}", solver.name());
        let streamed = solver.start().unwrap().drain(depth).unwrap();
        assert_eq!(batch, streamed, "{}", solver.name());

        // Snapshot mid-path: the resumed tail is bit-exact.
        let cut = depth / 2;
        let mut iter = solver.start().unwrap();
        for _ in 0..cut {
            iter.step().unwrap();
        }
        let resumed = iter.snapshot().resume().drain(depth).unwrap();
        assert_eq!(resumed.points, batch.points[cut..], "{}", solver.name());

        // Empty sweep.
        let empty = solver.solve(0).unwrap();
        assert!(empty.points.is_empty(), "{}", solver.name());
        assert_eq!(
            &empty.station_names[..],
            &["cpu".to_string(), "disk".into(), "lan".into()][..],
            "{}",
            solver.name()
        );
    }

    // The two backends agree on the aggregate stream to cross-validation
    // tolerance at every shared step (they share no arithmetic).
    let lat = solvers[0].solve(depth).unwrap();
    let mom = solvers[1].solve(depth).unwrap();
    for (a, b) in lat.points.iter().zip(&mom.points) {
        let rel = (a.throughput - b.throughput).abs() / a.throughput.abs().max(1e-300);
        assert!(rel <= 1e-8, "n={}: rel err {rel}", a.n);
    }
}

#[test]
fn sla_early_exit_does_fewer_steps_than_the_full_sweep() {
    let solver = MultiserverMvaSolver::new(network());
    let cap = 400usize;
    let full = solver.solve(cap).unwrap();

    let mut iter = solver.start().unwrap();
    let outcome = run_until(
        iter.as_mut(),
        &[StopCondition::SlaResponseTime { max_response: 1.0 }],
        cap,
    )
    .unwrap();

    // The query stopped strictly early, on the first violating population.
    assert!(matches!(outcome.reason, StopReason::Met(_)));
    assert!(
        outcome.steps < cap,
        "expected early exit, took {} of {cap} steps",
        outcome.steps
    );
    let stop_n = outcome.solution.last().n;
    assert!(outcome.solution.last().response > 1.0);
    assert!(full.at(stop_n - 1).unwrap().response <= 1.0);
    // And the truncated stream is a bit-exact prefix of the full solve.
    assert_eq!(outcome.solution.points, full.points[..outcome.steps]);
}

#[test]
fn scenario_sweep_avoids_redundant_work() {
    let samples = DemandSamples {
        station_names: vec!["cpu".into(), "disk".into()],
        server_counts: vec![4, 1],
        think_time: 1.0,
        levels: vec![1.0, 60.0, 200.0],
        demands: vec![vec![0.024, 0.021, 0.020], vec![0.012, 0.011, 0.0105]],
    };
    let mut sweep = ScenarioSweep::new(samples).default_cap(200);

    // Three questions about the SAME model: a full sweep, an SLA query,
    // and a saturation query. One iterator serves all three.
    let report = sweep
        .run(&[
            Scenario::new("full"),
            Scenario::new("sla").until(StopCondition::SlaResponseTime { max_response: 1.0 }),
            Scenario::new("sat").until(StopCondition::BottleneckSaturation { utilization: 0.9 }),
        ])
        .unwrap();
    assert!(
        report.steps_computed < report.steps_demanded,
        "sharing saved nothing: computed {} of {} demanded",
        report.steps_computed,
        report.steps_demanded
    );
    // The shared-model sweep computes exactly one full pass.
    assert_eq!(report.steps_computed, 200);

    // A follow-up on the same model is a pure warm restart.
    let warm = sweep.run(&[Scenario::new("again")]).unwrap();
    assert_eq!(warm.steps_computed, 0);
    assert_eq!(warm.steps_demanded, 200);
    assert_eq!(
        warm.results[0].solution.points,
        report.result("full").unwrap().solution.points
    );
}

#[test]
fn parallel_hierarchy_sweep_is_bit_identical_to_serial() {
    // A hierarchical sweep fanning its model groups across a 4-worker pool
    // — every group extending and storing sub-tree profiles in the one
    // shared ProfileCache — must reproduce the serial sweep bit for bit:
    // the plan/commit protocol makes the schedule invisible to the
    // numerics.
    let tier = |name: &str, cpu: f64, disk: f64| {
        Subsystem::new(
            name,
            vec![
                Station::queueing(&format!("{name}-cpu"), 2, 1.0, cpu).into(),
                Station::queueing(&format!("{name}-disk"), 1, 1.0, disk).into(),
            ],
        )
        .into()
    };
    let net = HierarchicalNetwork::new(
        vec![
            Station::queueing("lb", 1, 1.0, 0.002).into(),
            tier("app", 0.010, 0.004),
            tier("search", 0.012, 0.005),
            tier("db", 0.016, 0.007),
            tier("store", 0.009, 0.003),
        ],
        0.5,
    )
    .unwrap();
    let scenarios = [
        Scenario::new("baseline"),
        Scenario::new("tuned").scale_demands(0.9),
        Scenario::new("slow").scale_demands(1.15),
    ];

    let mut serial = ScenarioSweep::over_hierarchy(net.clone(), AggregationOptions::exact())
        .default_cap(60)
        .parallelism(1);
    let a = serial.run(&scenarios).unwrap();
    assert_eq!(serial.stats().pool_occupancy, 1);

    let mut parallel = ScenarioSweep::over_hierarchy(net, AggregationOptions::exact())
        .default_cap(60)
        .parallelism(4);
    let b = parallel.run(&scenarios).unwrap();
    // Three distinct resolved models under four workers.
    assert_eq!(parallel.stats().pool_occupancy, 3);

    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(ra.solution, rb.solution, "{}", ra.label);
        for (pa, pb) in ra.solution.points.iter().zip(&rb.solution.points) {
            assert_eq!(pa.throughput.to_bits(), pb.throughput.to_bits());
            assert_eq!(pa.response.to_bits(), pb.response.to_bits());
            for (sa, sb) in pa.stations.iter().zip(&pb.stations) {
                assert_eq!(sa.queue.to_bits(), sb.queue.to_bits());
            }
        }
    }
}

#[test]
fn conv_workspace_stream_is_bit_identical_to_batch() {
    // The incremental convolution workspace IS the batch path now, but this
    // proves it from the outside: driving a ConvWorkspace one population at
    // a time reproduces the batch load-dependent solve bit-for-bit, a
    // cloned (snapshotted) workspace resumes bit-identically, and reading
    // previously computed populations back (decreasing `solve_at`) returns
    // the same bits without disturbing the carried columns.
    let stations = [
        LdStation::new("cpu", 0.020, RateFunction::MultiServer(4)),
        LdStation::new("disk", 0.012, RateFunction::SingleServer),
        LdStation::new("lan", 0.004, RateFunction::Delay),
    ];
    let depth = 120usize;
    let batch = load_dependent_mva(&stations, 1.0, depth).unwrap();

    let mut ws = ConvWorkspace::new(&stations, 1.0, &[4, 0, 0]).unwrap();
    ws.reserve(depth);
    let mut snapshot: Option<ConvWorkspace> = None;
    let mut streamed_x = Vec::with_capacity(depth);
    for n in 1..=depth {
        ws.advance().unwrap();
        assert_eq!(ws.population(), n);
        streamed_x.push(ws.throughput());
        if n == depth / 2 {
            snapshot = Some(ws.clone());
        }
    }
    for (n, (x, p)) in streamed_x.iter().zip(batch.points.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            p.throughput.to_bits(),
            "X(n={}) diverges from batch",
            n + 1
        );
    }

    // Snapshot/resume: the clone continues exactly where the original was.
    let mut resumed = snapshot.expect("snapshot taken mid-sweep");
    for n in (depth / 2 + 1)..=depth {
        resumed.advance().unwrap();
        assert_eq!(
            resumed.throughput().to_bits(),
            streamed_x[n - 1].to_bits(),
            "resumed X(n={n}) diverges"
        );
    }

    // Decreasing-population reads are served from the carried columns and
    // must not perturb them.
    let demands: Vec<f64> = stations.iter().map(|s| s.demand).collect();
    for n in [depth, depth / 2, 3, 1, depth] {
        ws.solve_at(n, &demands).unwrap();
        assert_eq!(ws.throughput().to_bits(), streamed_x[n - 1].to_bits());
    }
}

#[test]
fn scenario_sweep_warm_restart_is_bit_identical_across_the_quasi_static_switch() {
    // A 16-core bottleneck pushed well past the quasi-static switch: the
    // MVASD iterator inside the sweep hands the tail populations to the
    // carried ConvWorkspace. Warm restarts must replay the exact same bits
    // without recomputing anything.
    let samples = DemandSamples {
        station_names: vec!["cpu16".into(), "disk".into()],
        server_counts: vec![16, 1],
        think_time: 1.0,
        levels: vec![1.0, 100.0, 250.0],
        demands: vec![vec![0.165, 0.160, 0.158], vec![0.004, 0.004, 0.004]],
    };
    let mut sweep = ScenarioSweep::new(samples).default_cap(250);
    let first = sweep.run(&[Scenario::new("full")]).unwrap();
    assert_eq!(first.steps_computed, 250);

    let warm = sweep.run(&[Scenario::new("again")]).unwrap();
    assert_eq!(warm.steps_computed, 0, "warm restart recomputed steps");
    let a = &first.results[0].solution;
    let b = &warm.results[0].solution;
    assert_eq!(a, b);
    for (pa, pb) in a.points.iter().zip(b.points.iter()) {
        assert_eq!(pa.throughput.to_bits(), pb.throughput.to_bits());
        assert_eq!(pa.response.to_bits(), pb.response.to_bits());
    }
    // Sanity: the sweep genuinely saturates the 16-core station, so the
    // quasi-static (workspace) regime was exercised, not just the carried
    // recursion.
    let last = a.last();
    assert!(last.stations[0].utilization > 0.9, "switch never reached");
}

#[test]
fn property_streaming_equals_batch_on_random_networks() {
    check(
        "property_streaming_equals_batch_on_random_networks",
        &Config::default().cases(32),
        |g: &mut Gen| {
            let count = g.usize_in(1, 4);
            let stations = (0..count)
                .map(|i| {
                    let c = *g.choose(&[1usize, 2, 8]);
                    let d = g.f64_in(0.001, 0.08);
                    Station::queueing(&format!("s{i}"), c, 1.0, d)
                })
                .collect();
            let net = ClosedNetwork::new(stations, g.f64_in(0.1, 2.0)).unwrap();
            let n_max = g.usize_in(2, 80);
            let cut = g.usize_in(1, n_max - 1);

            let solvers: Vec<Box<dyn ClosedSolver>> = vec![
                Box::new(ExactMvaSolver::new(net.clone())),
                Box::new(MultiserverMvaSolver::new(net.clone())),
                Box::new(SchweitzerSolver::new(net)),
            ];
            for solver in &solvers {
                let batch = solver.solve(n_max).unwrap();
                let streamed = solver.start().unwrap().drain(n_max).unwrap();
                assert_eq!(batch, streamed, "{} n_max={n_max}", solver.name());

                // Snapshot at a random midpoint; the resumed tail must be
                // bit-identical even though the cut is arbitrary.
                let mut iter = solver.start().unwrap();
                for _ in 0..cut {
                    iter.step().unwrap();
                }
                let resumed = iter.snapshot().resume().drain(n_max).unwrap();
                assert_eq!(
                    resumed.points,
                    batch.points[cut..],
                    "{} cut={cut}",
                    solver.name()
                );
            }
        },
    );
}
