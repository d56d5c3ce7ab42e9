//! Deterministic interleaving explorer: end-to-end schedule-independence.
//!
//! `numerics::pool::explore_schedules` forces every completion order of a
//! ≤4-task fan-out (4! = 24 schedules). This test drives the suite's
//! plan/commit execution — the scenario-sweep model-group fan-out over
//! sampled demands — under every schedule and asserts the published
//! results are bit-identical on each one. Lint rule L9 is the static half
//! of this contract; this file is the dynamic witness that the plan/commit
//! protocol actually delivers schedule independence, not just that the
//! code looks like it should.

use mvasd_suite::core::profile::DemandSamples;
use mvasd_suite::core::sweep::{Scenario, ScenarioSweep, SweepReport};
use mvasd_suite::numerics::pool;
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
        .default_cap(25)
        .run(&scenarios)
        .expect("serial sweep solves");

    let runs = pool::explore_schedules(4, |_sched| {
        // A fresh sweep per schedule so the group cache starts cold and
        // every plan/commit round actually runs under the forced order.
        ScenarioSweep::new(samples.clone())
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
