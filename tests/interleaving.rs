//! Deterministic interleaving explorer: end-to-end schedule-independence.
//!
//! `numerics::pool::explore_schedules` forces every completion order of a
//! ≤4-task fan-out (4! = 24 schedules). These tests drive the suite's
//! plan/commit execution — the scenario-sweep model-group fan-out, over
//! sampled demands and over a hierarchy whose groups share one subsystem
//! profile cache — under every schedule and assert the published results
//! are bit-identical on each one. Lint rule L9 is the static half of this
//! contract; this file is the dynamic witness that the plan/commit
//! protocol actually delivers schedule independence, not just that the
//! code looks like it should.

use mvasd_suite::core::profile::{DemandAxis, DemandSamples, InterpolationKind};
use mvasd_suite::core::sweep::{Scenario, ScenarioSweep, SweepReport};
use mvasd_suite::numerics::pool;
use mvasd_suite::queueing::hierarchy::{AggregationOptions, HierarchicalNetwork, Subsystem};
use mvasd_suite::queueing::network::Station;
use mvasd_suite::testbed::apps::{vins, AppModel};

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

fn four_scenarios() -> Vec<Scenario> {
    // Four distinct demand scalings => four distinct model groups, so the
    // sweep's plan phase dispatches exactly four pool tasks.
    vec![
        Scenario::new("baseline"),
        Scenario::new("tuned").scale_demands(0.9),
        Scenario::new("heavy").scale_demands(1.15),
        Scenario::new("light").scale_demands(0.75),
    ]
}

fn assert_reports_bitwise_equal(sched: &[usize], got: &SweepReport, want: &SweepReport) {
    assert_eq!(got.results.len(), want.results.len(), "schedule {sched:?}");
    assert_eq!(
        got.steps_computed, want.steps_computed,
        "schedule {sched:?}"
    );
    assert_eq!(
        got.steps_demanded, want.steps_demanded,
        "schedule {sched:?}"
    );
    for (g, w) in got.results.iter().zip(&want.results) {
        assert_eq!(g.label, w.label, "schedule {sched:?}");
        assert_eq!(g.reason, w.reason, "schedule {sched:?}");
        assert_eq!(
            g.solution.points.len(),
            w.solution.points.len(),
            "schedule {sched:?} label {}",
            g.label
        );
        for (a, b) in g.solution.points.iter().zip(&w.solution.points) {
            assert_eq!(
                a.throughput.to_bits(),
                b.throughput.to_bits(),
                "schedule {sched:?} label {} n={}",
                g.label,
                a.n
            );
            assert_eq!(
                a.response.to_bits(),
                b.response.to_bits(),
                "schedule {sched:?} label {} n={}",
                g.label,
                a.n
            );
            for (x, y) in a.stations.iter().zip(&b.stations) {
                assert_eq!(
                    x.queue.to_bits(),
                    y.queue.to_bits(),
                    "schedule {sched:?} label {} n={}",
                    g.label,
                    a.n
                );
            }
        }
    }
}

#[test]
fn sweep_fan_out_is_schedule_independent() {
    let app = vins::model();
    let samples = samples_of(&app, &vins::STANDARD_LEVELS);
    let scenarios = four_scenarios();

    // Serial reference: no pool involvement at all.
    let reference = ScenarioSweep::new(samples.clone())
        .interpolation(InterpolationKind::CubicNotAKnot)
        .axis(DemandAxis::Concurrency)
        .default_cap(25)
        .run(&scenarios)
        .expect("serial sweep solves");

    let runs = pool::explore_schedules(4, |_sched| {
        // A fresh sweep per schedule so the group cache starts cold and
        // every plan/commit round actually runs under the forced order.
        ScenarioSweep::new(samples.clone())
            .interpolation(InterpolationKind::CubicNotAKnot)
            .axis(DemandAxis::Concurrency)
            .default_cap(25)
            .parallelism(4)
            .run(&scenarios)
            .expect("parallel sweep solves")
    });
    assert_eq!(runs.len(), 24, "4 tasks => 4! exhaustive schedules");
    for (sched, report) in &runs {
        assert_reports_bitwise_equal(sched, report, &reference);
    }
}

#[test]
fn hierarchy_cache_is_bit_identical_on_every_schedule() {
    // Four scenarios that differ only in think time: four model groups
    // whose subsystems share every cache key, so every pool task extends
    // and stores the same profiles in the one shared ProfileCache. The
    // cache snapshot must come out bitwise equal no matter which group's
    // store lands first.
    let tier = |name: &str, d: f64, z: f64| {
        Subsystem::new(
            name,
            vec![
                Station::queueing(&format!("{name}-app"), 2, 1.0, d).into(),
                Station::queueing(&format!("{name}-db"), 1, 1.0, z).into(),
            ],
        )
    };
    let net = HierarchicalNetwork::new(
        vec![
            Station::queueing("fe", 1, 1.0, 0.002).into(),
            tier("a", 0.010, 0.004).into(),
            tier("b", 0.013, 0.005).into(),
            tier("c", 0.017, 0.006).into(),
        ],
        0.4,
    )
    .expect("network builds");
    let scenarios = [
        Scenario::new("z0.4"),
        Scenario::new("z0.2").with_think_time(0.2),
        Scenario::new("z0.8").with_think_time(0.8),
        Scenario::new("z1.6").with_think_time(1.6),
    ];

    let mut serial_sweep = ScenarioSweep::over_hierarchy(net.clone(), AggregationOptions::exact())
        .default_cap(25)
        .parallelism(1);
    let serial = serial_sweep
        .run(&scenarios)
        .expect("serial hierarchy sweep solves");
    // Four model groups; the three tier shapes are solved once and every
    // other group reuses them from the shared cache.
    let stats = serial_sweep.stats();
    assert_eq!(stats.cache_misses, 4, "{stats:?}");
    assert_eq!(stats.sub_solves, 3, "{stats:?}");
    assert_eq!(stats.sub_cache_hits, 9, "{stats:?}");
    let reference = serial_sweep
        .profile_cache()
        .expect("hierarchical sweeps expose their cache")
        .profiles();
    assert!(!reference.is_empty(), "sweep populated the profile cache");

    let runs = pool::explore_schedules(4, |_sched| {
        let mut sweep = ScenarioSweep::over_hierarchy(net.clone(), AggregationOptions::exact())
            .default_cap(25)
            .parallelism(4);
        let report = sweep
            .run(&scenarios)
            .expect("parallel hierarchy sweep solves");
        let profiles = sweep
            .profile_cache()
            .expect("hierarchical sweeps expose their cache")
            .profiles();
        (report, profiles)
    });
    assert_eq!(runs.len(), 24, "4 tasks => 4! exhaustive schedules");
    for (sched, (report, profiles)) in &runs {
        assert_reports_bitwise_equal(sched, report, &serial);
        assert_eq!(profiles.len(), reference.len(), "schedule {sched:?}");
        for ((k, prof, rows), (rk, rprof, rrows)) in profiles.iter().zip(&reference) {
            assert_eq!(k, rk, "schedule {sched:?}");
            assert_eq!(prof.len(), rprof.len(), "schedule {sched:?} key {k:?}");
            for (a, b) in prof.iter().zip(rprof) {
                assert_eq!(a.to_bits(), b.to_bits(), "schedule {sched:?} key {k:?}");
            }
            assert_eq!(rows.len(), rrows.len(), "schedule {sched:?} key {k:?}");
            for (a, b) in rows.iter().zip(rrows) {
                assert_eq!(a.to_bits(), b.to_bits(), "schedule {sched:?} key {k:?}");
            }
        }
    }
}
