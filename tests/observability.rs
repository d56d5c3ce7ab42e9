//! Cross-crate observability invariants: instrumentation must be invisible
//! to the numerics (bit-for-bit), nearly free when no recorder is installed,
//! and complete enough that the streaming engine's work accounting can be
//! read back off a collector snapshot.
//!
//! The recorder slot is process-global, so every test here serializes on
//! one mutex.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mvasd_suite::core::profile::{DemandAxis, DemandSamples, InterpolationKind};
use mvasd_suite::core::solver::MvasdSolver;
use mvasd_suite::core::sweep::{Scenario, ScenarioSweep, SweepStats};
use mvasd_suite::obsv;
use mvasd_suite::queueing::hierarchy::{
    AggregationOptions, HierarchicalNetwork, HierarchicalSolver, NetworkNode, ProfileCache,
    Subsystem,
};
use mvasd_suite::queueing::mva::{
    run_until, ClassSpec, ClosedSolver, MulticlassMvaSolver, StopCondition, Workload,
};
use mvasd_suite::queueing::network::{Station, StationKind};
use mvasd_suite::simnet::{SimConfig, Simulation};
use mvasd_suite::testbed::apps::{jpetstore, vins, AppModel};

/// Serializes tests that touch the global recorder slot.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn vins_samples() -> DemandSamples {
    let app = vins::model();
    samples_of(&app, &vins::STANDARD_LEVELS)
}

fn samples_of(app: &AppModel, levels: &[u64]) -> DemandSamples {
    let levels: Vec<f64> = levels.iter().map(|&l| l as f64).collect();
    DemandSamples {
        station_names: app.station_names(),
        server_counts: app.server_counts(),
        think_time: app.think_time,
        levels: levels.clone(),
        demands: (0..app.stations.len())
            .map(|k| {
                levels
                    .iter()
                    .map(|&l| app.stations[k].curve.at(l))
                    .collect()
            })
            .collect(),
    }
}

fn vins_solver() -> MvasdSolver {
    let profile = mvasd_suite::core::profile::ServiceDemandProfile::from_samples(
        &vins_samples(),
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .expect("VINS profile");
    MvasdSolver::new(profile)
}

/// Satellite 4: a no-op recorder must not perturb results. The exact-MVA
/// pipeline is pure floating-point arithmetic; instrumentation only ever
/// observes, so solutions must match bit for bit, not just approximately.
#[test]
fn noop_recorder_leaves_solutions_bit_identical() {
    let _guard = lock();
    let solver = vins_solver();
    let bare = solver.solve(400).expect("uninstrumented solve");
    let instrumented = {
        let _scope = obsv::scoped(Arc::new(obsv::NoopRecorder));
        solver.solve(400).expect("instrumented solve")
    };
    // PartialEq on MvaSolution compares every f64 exactly.
    assert_eq!(bare, instrumented);
    let collected = {
        let _scope = obsv::scoped(Arc::new(obsv::Collector::new()));
        solver.solve(400).expect("collected solve")
    };
    assert_eq!(bare, collected);
}

/// Acceptance guard: with no recorder installed, the instrumentation on the
/// exact-MVA hot path must cost well under 2 % of a VINS n=1500 solve. The
/// per-step overhead is a handful of relaxed atomic loads, so instead of
/// racing two timers we measure the disabled-path calls directly: 1500
/// iterations' worth of instrumentation must be cheaper than 2 % of one
/// real solve.
#[test]
fn disabled_instrumentation_is_under_two_percent_of_a_solve() {
    let _guard = lock();
    assert!(!obsv::enabled(), "no recorder may leak into this test");
    let solver = vins_solver();
    solver.solve(1500).expect("warmup");
    let mut solve_cost = Duration::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        std::hint::black_box(solver.solve(1500).expect("timed solve"));
        solve_cost = solve_cost.min(start.elapsed());
    }

    let start = Instant::now();
    let mut probe = obsv::HealthProbe::new("test.overhead");
    for i in 0..1500u64 {
        // The exact per-step sequence the solvers execute when disabled,
        // including the numeric-health instrumentation.
        let span = obsv::span("mvasd.step");
        obsv::counter("solver.steps", std::hint::black_box(1));
        obsv::observe("schweitzer.iterations_per_step", std::hint::black_box(i));
        probe.watch(std::hint::black_box(-(i as f64)));
        probe.count_underflow();
        drop(span);
    }
    drop(probe);
    let noop_cost = start.elapsed();
    assert!(
        noop_cost < solve_cost.mul_f64(0.02),
        "noop instrumentation {noop_cost:?} vs solve {solve_cost:?}"
    );
}

/// Sweep cache hits/misses, warm-restart savings, and `SweepStats` must all
/// be observable: the struct and the collector snapshot tell one story.
#[test]
fn sweep_cache_metrics_land_in_collector_snapshot() {
    let _guard = lock();
    let collector = Arc::new(obsv::Collector::new());
    let _scope = obsv::scoped(collector.clone());

    // One worker pinned: the default follows the host's core count, and
    // `pool_occupancy` below counts workers in use.
    let mut sweep = ScenarioSweep::new(vins_samples())
        .default_cap(120)
        .parallelism(1);
    let scenarios = [
        Scenario::new("baseline"),
        Scenario::new("tuned").scale_demands(0.9),
    ];
    sweep.run(&scenarios).expect("cold run");
    sweep.run(&scenarios).expect("warm replay");

    let stats = sweep.stats();
    assert_eq!(
        stats,
        SweepStats {
            steps_computed: 240,
            steps_demanded: 480,
            cache_hits: 2,
            cache_misses: 2,
            sub_solves: 0,
            sub_cache_hits: 0,
            // Two distinct models under the pinned single worker.
            pool_occupancy: 1,
        }
    );
    assert_eq!(stats.steps_saved(), 240);

    let snap = collector.snapshot();
    assert_eq!(snap.counter("sweep.cache_hits"), stats.cache_hits as u64);
    assert_eq!(
        snap.counter("sweep.cache_misses"),
        stats.cache_misses as u64
    );
    assert_eq!(
        snap.counter("sweep.steps_computed"),
        stats.steps_computed as u64
    );
    assert_eq!(
        snap.counter("sweep.steps_demanded"),
        stats.steps_demanded as u64
    );
    assert_eq!(
        snap.counter("sweep.steps_saved"),
        stats.steps_saved() as u64
    );
    assert_eq!(snap.gauge("sweep.cached_steps"), Some(240.0));
    assert_eq!(snap.spans_named("sweep.run"), 2);
    // The cold run swept two models of 120 steps each.
    assert_eq!(snap.counter("solver.steps"), 240);
}

/// The hierarchical aggregation layer is observable end to end: isolation
/// solves, profile-cache hits, profile growth, per-subsystem spans and the
/// convolution workspace's counters and health probe all land in the
/// collector — and, as everywhere else, recorders observe without
/// perturbing a single bit of the numerics.
#[test]
fn aggregation_metrics_land_in_collector_snapshot() {
    let _guard = lock();
    let tier = |name: &str, cpu: f64, disk: f64| {
        NetworkNode::from(Subsystem::new(
            name,
            vec![
                Station::queueing(&format!("{name}-cpu"), 4, 1.0, cpu).into(),
                Station::queueing(&format!("{name}-disk"), 1, 1.0, disk).into(),
            ],
        ))
    };
    let net = HierarchicalNetwork::new(
        vec![
            Station::queueing("lb", 1, 1.0, 0.002).into(),
            tier("app-1", 0.010, 0.004),
            tier("app-2", 0.010, 0.004), // same shape as app-1 → one cache hit
            tier("db", 0.016, 0.007),
        ],
        0.5,
    )
    .expect("hierarchical model");

    // Bit-identity first: aggregation is pure floating point, recorders
    // (and the shared profile cache) only ever observe.
    let bare = HierarchicalSolver::new(net.clone())
        .solve(60)
        .expect("uninstrumented solve");
    let noop = {
        let _scope = obsv::scoped(Arc::new(obsv::NoopRecorder));
        HierarchicalSolver::new(net.clone())
            .solve(60)
            .expect("instrumented solve")
    };
    assert_eq!(bare, noop);

    let collector = Arc::new(obsv::Collector::new());
    let _scope = obsv::scoped(collector.clone());
    let cache = Arc::new(ProfileCache::new());
    let collected = HierarchicalSolver::new(net.clone())
        .with_cache(cache.clone())
        .solve(60)
        .expect("collected solve");
    assert_eq!(bare, collected);

    let snap = collector.snapshot();
    let stats = cache.stats();
    // Three subsystems, two distinct shapes: two isolation solves, one hit.
    assert_eq!(stats.solves, 2);
    assert_eq!(stats.hits, 1);
    assert_eq!(snap.counter("aggregation.solves"), stats.solves);
    assert_eq!(snap.counter("aggregation.cache_hits"), stats.hits);
    // Every subsystem's throughput profile covers populations 1..=60.
    assert!(
        snap.counter("aggregation.profile_len") >= 3 * 60,
        "only {} profile entries recorded",
        snap.counter("aggregation.profile_len")
    );
    assert!(
        snap.spans_named("aggregation.subsystem") >= 3,
        "each subsystem isolation solve opens at least one span"
    );
    assert_eq!(snap.spans_named("hierarchy.step"), 60);
    assert_eq!(snap.counter("solver.steps"), 60);
    // The convolution hot path reports its work and its `ln G` probe.
    assert!(snap.counter("conv.workspace.extend") >= 60);
    assert!(snap.counter("convolution.cells") > snap.counter("conv.workspace.extend"));
    assert!(snap.counter("health.conv.lse.samples") > 0);

    // Second-level memoization in sweeps is observable too: two scenarios
    // over the same topology (one rescaled) re-solve every distinct
    // subsystem shape per scenario, and the counters mirror `SweepStats`.
    let mut sweep = ScenarioSweep::over_hierarchy(net, AggregationOptions::exact()).default_cap(40);
    let scenarios = [
        Scenario::new("baseline"),
        Scenario::new("tuned").scale_demands(0.9),
    ];
    sweep.run(&scenarios).expect("hierarchical sweep");
    let sw = sweep.stats();
    assert_eq!(sw.sub_solves, 4);
    assert_eq!(sw.sub_cache_hits, 2);
    let snap = collector.snapshot();
    assert_eq!(snap.counter("sweep.sub_solves"), sw.sub_solves as u64);
    assert_eq!(
        snap.counter("sweep.sub_cache_hits"),
        sw.sub_cache_hits as u64
    );
}

/// The multiclass walker is observable (path-step counters, slab
/// accounting) and — like every other solver — recorders observe without
/// perturbing a single bit.
#[test]
fn multiclass_metrics_land_in_collector_snapshot() {
    let _guard = lock();
    let workload = Workload::new(
        vec!["cpu".into(), "disk".into()],
        vec![
            StationKind::Queueing { servers: 2 },
            StationKind::Queueing { servers: 1 },
        ],
        vec![
            ClassSpec {
                name: "heavy".into(),
                population: 8,
                think_time: 1.0,
                demands: vec![0.02, 0.03],
            },
            ClassSpec {
                name: "light".into(),
                population: 4,
                think_time: 0.2,
                demands: vec![0.008, 0.004],
            },
        ],
    )
    .expect("workload");
    let total = workload.total_population() as u64;
    let lattice = MulticlassMvaSolver::new(workload);

    // Bit-identity: a no-op recorder and a collector both leave every f64
    // untouched.
    let bare_lat = lattice.solve_classes().expect("bare lattice");
    {
        let _scope = obsv::scoped(Arc::new(obsv::NoopRecorder));
        assert_eq!(bare_lat, lattice.solve_classes().expect("noop lattice"));
    }

    let collector = Arc::new(obsv::Collector::new());
    let _scope = obsv::scoped(collector.clone());
    assert_eq!(
        bare_lat,
        lattice.solve_classes().expect("collected lattice")
    );

    let snap = collector.snapshot();
    // The walker took the full path once.
    assert_eq!(snap.counter("multiclass.steps"), total);
    assert_eq!(snap.counter("solver.steps"), total);
    assert_eq!(snap.spans_named("multiclass.step"), total as usize);
    // The carried workspace filled every lattice point except the origin
    // exactly once across its walk: (8+1)·(4+1) − 1 slab points.
    assert_eq!(snap.counter("multiclass.slab_points"), 9 * 5 - 1);
}

/// Streamed queries report which stop condition fired and how many steps
/// the early exit saved, straight from the collector.
#[test]
fn stop_conditions_are_counted_by_name() {
    let _guard = lock();
    let collector = Arc::new(obsv::Collector::new());
    let _scope = obsv::scoped(collector.clone());

    let app = vins::model();
    let solver = mvasd_suite::queueing::mva::MultiserverMvaSolver::new(
        app.closed_network_at(600.0).unwrap(),
    );
    let mut iter = solver.start().expect("iterator");
    let outcome = run_until(
        iter.as_mut(),
        &[StopCondition::BottleneckSaturation { utilization: 0.9 }],
        600,
    )
    .expect("streamed query");

    let snap = collector.snapshot();
    assert_eq!(snap.counter("run_until.calls"), 1);
    assert_eq!(snap.counter("run_until.steps"), outcome.steps as u64);
    assert_eq!(
        snap.counter(outcome.reason.metric_name()),
        1,
        "the fired condition is counted under its own name"
    );
    assert_eq!(
        snap.counter("run_until.steps_saved"),
        (600 - outcome.steps) as u64
    );
    assert_eq!(snap.spans_named("run_until"), 1);
    // Early exit means the saturation condition fired before the cap.
    assert_eq!(outcome.reason.metric_name(), "stop.bottleneck_saturation");
    assert!(outcome.steps < 600);
}

/// Tentpole acceptance: with no recorder installed, a health probe is a
/// stateless no-op — it accumulates nothing, flushes nothing, and the
/// instrumented solvers stay bit-identical to the bare ones (the existing
/// bit-identity tests above now cover the probe-bearing hot paths too).
#[test]
fn health_probes_are_inert_when_disabled() {
    let _guard = lock();
    assert!(!obsv::enabled(), "no recorder may leak into this test");
    let mut probe = obsv::HealthProbe::new("test.disabled");
    probe.watch(42.0);
    probe.watch(f64::NAN);
    probe.count_clamp();
    probe.count_underflow();
    assert_eq!(probe.envelope(), None, "disabled probes accumulate nothing");

    // A solve that crosses every probe-bearing hot path while disabled
    // must leave no trace once a collector *is* installed afterwards.
    let solver = vins_solver();
    solver.solve(120).expect("disabled solve");
    let collector = Arc::new(obsv::Collector::new());
    let _scope = obsv::scoped(collector.clone());
    drop(probe); // Drop flushes — but there is nothing buffered.
    let snap = collector.snapshot();
    assert_eq!(snap.counters.len(), 0, "no stale health state leaked");
    assert_eq!(snap.gauges.len(), 0);
}

/// Tentpole acceptance: a seeded instrumented run distills into a
/// [`obsv::HealthReport`] with a nonzero log-sum-exp dynamic range, zero
/// NaN-poison trips, and a populated Schweitzer residual trace — and the
/// report survives its JSON round trip bit for bit.
#[test]
fn seeded_run_produces_clean_health_report() {
    let _guard = lock();
    let collector = Arc::new(obsv::Collector::new());
    let _scope = obsv::scoped(collector.clone());

    let app = vins::model();
    // Multiserver MVA at a real demand point drives the convolution
    // workspace (the lse probe's home).
    let solver = mvasd_suite::queueing::mva::MultiserverMvaSolver::new(
        app.closed_network_at(1500.0).expect("calibrated network"),
    );
    solver.solve(300).expect("instrumented multiserver solve");
    // A Schweitzer solve records its fixed-point residual digits.
    let schweitzer = mvasd_suite::queueing::mva::SchweitzerSolver::new(
        app.closed_network_at(1500.0).expect("calibrated network"),
    );
    schweitzer
        .solve(300)
        .expect("instrumented schweitzer solve");
    let report = obsv::HealthReport::from_snapshot(&collector.snapshot());
    assert!(report.samples > 0, "probes saw values: {report:?}");
    assert_eq!(report.nan_poison_trips, 0, "no NaN poison on a clean run");
    let lse_range = report.lse_range.expect("conv workspace ran");
    assert!(lse_range > 0.0, "nonzero log-sum-exp dynamic range");
    assert!(
        report
            .schweitzer_residual_digits_min
            .expect("schweitzer ran")
            > 0.0,
        "the fixed point converged to at least some digits"
    );

    // JSON round trip is exact: `obsv::json::number` prints shortest
    // round-trip representations.
    let round_tripped = obsv::HealthReport::from_json(&report.to_json()).expect("report re-parses");
    assert_eq!(report, round_tripped);
}

/// A quasi-static rebuild reads the kept stages' cells instead of writing
/// them. MVASD on the saturating model (think, disk, 16-core CPU) to
/// N = 300: only the CPU's demand changes past the switch. Each extension
/// writes or reuses the two prefix cells before the CPU, and each solve
/// point-evaluates the CPU's stage as two cells, `G(n)` and `G(n − 1)`,
/// sampling `ln G(n)` once. So the cells written plus the cells reused are
/// two per extension and two per `conv.lse` sample, and most are reused.
#[test]
fn kept_prefix_cells_are_counted_as_reused() {
    let _guard = lock();
    let samples = DemandSamples {
        station_names: vec!["db-cpu16".into(), "disk".into()],
        server_counts: vec![16, 1],
        think_time: 1.0,
        levels: vec![1.0, 750.0, 1500.0],
        demands: vec![vec![0.165, 0.160, 0.158], vec![0.004, 0.004, 0.004]],
    };
    let profile = mvasd_suite::core::profile::ServiceDemandProfile::from_samples(
        &samples,
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .expect("saturating profile");
    let collector = Arc::new(obsv::Collector::new());
    {
        let _scope = obsv::scoped(collector.clone());
        MvasdSolver::new(profile)
            .solve(300)
            .expect("saturating solve");
    }
    let snap = collector.snapshot();
    let extend = snap.counter("conv.workspace.extend");
    let cells = snap.counter("convolution.cells");
    let reused = snap.counter("conv.workspace.reused");
    assert!(
        snap.counter("conv.workspace.rebuild") > 0,
        "quasi-static rebuilds ran"
    );
    let points = snap.counter("health.conv.lse.samples");
    assert_eq!(cells + reused, 2 * extend + 2 * points);
    assert!(reused > cells, "{reused} reused, {cells} written");
}

/// JPetStore, like VINS, has 57 queueing servers, so at its top campaign
/// level every pending completion fits in the simulator's near-future
/// array and none spills to the heap.
#[test]
fn jpetstore_top_level_load_test_never_spills() {
    let _guard = lock();
    let net = jpetstore::model()
        .sim_network(293)
        .expect("calibrated JPetStore network");
    let cfg = SimConfig {
        customers: 293,
        horizon: 60.0,
        warmup: 10.0,
        seed: 42,
        ..SimConfig::default()
    };
    let collector = Arc::new(obsv::Collector::new());
    {
        let _scope = obsv::scoped(collector.clone());
        Simulation::new(net, cfg)
            .expect("valid load test")
            .run()
            .expect("load test runs");
    }
    let snap = collector.snapshot();
    let events = snap.counter("simnet.events");
    assert!(events > 50_000, "a full load test: {events} events");
    assert_eq!(snap.counter("simnet.spills"), 0);
}

/// Satellite: two snapshots of the same collector diff cleanly — the delta
/// of a run against itself is all zeros, and new work shows up as exactly
/// its own counts.
#[test]
fn snapshot_diff_isolates_incremental_work() {
    let _guard = lock();
    let collector = Arc::new(obsv::Collector::new());
    let _scope = obsv::scoped(collector.clone());
    let solver = vins_solver();

    solver.solve(50).expect("first solve");
    let before = collector.snapshot();
    // Round trip the baseline through JSONL, as `obsv_report --diff` does.
    let before = obsv::Snapshot::from_jsonl(&before.to_jsonl()).expect("baseline re-parses");
    assert_eq!(before.diff(&before).counter("solver.steps"), 0);

    solver.solve(30).expect("second solve");
    let delta = collector.snapshot().diff(&before);
    assert_eq!(delta.counter("solver.steps"), 30, "only the new work");
    assert_eq!(delta.spans_named("mvasd.step"), 0, "diffs carry no spans");
}

/// The end-to-end trace survives a round trip through the sink and the
/// bundled parser, and the span hierarchy keeps its depth information.
#[test]
fn chrome_trace_round_trips_through_bundled_parser() {
    let _guard = lock();
    let collector = Arc::new(obsv::Collector::new());
    let _scope = obsv::scoped(collector.clone());

    let solver = vins_solver();
    solver.solve(50).expect("traced solve");

    let snap = collector.snapshot();
    assert_eq!(snap.spans_named("mvasd.step"), 50);
    let trace = snap.to_chrome_trace();
    let doc = obsv::json::parse(&trace).expect("sink output is valid JSON");
    match doc {
        obsv::json::Json::Object(obj) => {
            let events = match obj.get("traceEvents") {
                Some(obsv::json::Json::Array(events)) => events,
                other => panic!("expected traceEvents array, got {other:?}"),
            };
            // 50 step spans plus counter events at the end of the trace.
            assert!(events.len() > 50, "only {} events", events.len());
        }
        other => panic!("expected object, got {other:?}"),
    }
}
