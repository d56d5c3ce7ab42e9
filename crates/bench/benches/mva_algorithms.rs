//! Solver benchmarks: the MVA family on paper-scale (12-station, 3-tier,
//! 16-core) networks, all driven through the `ClosedSolver` trait.
//!
//! The `mvasd` group (Algorithm 3: the carried VINS recursion, the
//! JPetStore quasi-static phase and a deep saturating sweep) is also
//! written to `results/BENCH_mvasd.json` (schema `mvasd-bench/1`,
//! documented in `EXPERIMENTS.md`), which `mvasd-doctor` holds against its
//! baseline.

use mvasd_bench::output::{results_dir, write_text};
use mvasd_bench::timing::{bench_json, Bench, Plan};
use mvasd_core::profile::{DemandAxis, DemandSamples, InterpolationKind, ServiceDemandProfile};
use mvasd_core::solver::{MvasdSingleServerSolver, MvasdSolver};
use mvasd_queueing::mva::{
    run_until, ClosedSolver, ExactMvaSolver, MultiserverMvaSolver, SchweitzerSolver, StopCondition,
};
use mvasd_queueing::network::ClosedNetwork;
use mvasd_testbed::apps::{jpetstore, vins, AppModel};

fn vins_network(n: f64) -> ClosedNetwork {
    vins::model().closed_network_at(n).unwrap()
}

fn profile_of(app: &AppModel, levels: &[u64]) -> ServiceDemandProfile {
    let levels: Vec<f64> = levels.iter().map(|&l| l as f64).collect();
    let samples = DemandSamples {
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
    };
    ServiceDemandProfile::from_samples(
        &samples,
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .unwrap()
}

fn main() {
    let mut g = Bench::new("solvers_vins_12_stations");
    // The convolution path at N = 1500 costs ~1 s per solve; keep the
    // bench wall-clock sane with the heavy plan.
    for n in [100usize, 400, 1500] {
        let solvers: Vec<Box<dyn ClosedSolver>> = vec![
            Box::new(ExactMvaSolver::new(vins_network(n as f64))),
            Box::new(MultiserverMvaSolver::new(vins_network(n as f64))),
            Box::new(SchweitzerSolver::new(vins_network(n as f64))),
        ];
        for s in &solvers {
            g.measure(&format!("{}/{n}", s.name()), Plan::heavy(), || {
                s.solve(n).unwrap()
            });
        }
    }
    println!("{}", g.report());

    let mut g = Bench::new("mvasd");
    // VINS: CPUs stay below the quasi-static switch => pure carried
    // double-double recursion.
    let vp = profile_of(&vins::model(), &vins::STANDARD_LEVELS);
    for n in [400usize, 1500] {
        let carried = MvasdSolver::new(vp.clone());
        g.measure(&format!("vins_carried/{n}"), Plan::heavy(), || {
            carried.solve(n).unwrap()
        });
        let single = MvasdSingleServerSolver::new(vp.clone());
        g.measure(&format!("vins_single_server/{n}"), Plan::heavy(), || {
            single.solve(n).unwrap()
        });
    }
    // JPetStore: the DB CPU saturates => quasi-static convolution phase.
    let jp = MvasdSolver::new(profile_of(&jpetstore::model(), &jpetstore::STANDARD_LEVELS));
    g.measure("jpetstore_quasi_static_210", Plan::heavy(), || {
        jp.solve(210).unwrap()
    });
    // A deep saturating sweep with per-step demand changes: every
    // post-switch population rebuilds the carried convolution workspace,
    // O(K·C·n) with geometric-tail rate-table cells.
    let sat_samples = DemandSamples {
        station_names: vec!["db-cpu16".into(), "disk".into()],
        server_counts: vec![16, 1],
        think_time: 1.0,
        levels: vec![1.0, 750.0, 1500.0],
        demands: vec![vec![0.165, 0.160, 0.158], vec![0.004, 0.004, 0.004]],
    };
    let sat_profile = ServiceDemandProfile::from_samples(
        &sat_samples,
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .unwrap();
    let sat = MvasdSolver::new(sat_profile);
    // The interpolated demands force a rebuild every step (~1400 of
    // them), so sample it sparsely.
    g.measure(
        "saturating_quasi_static_1500",
        Plan {
            warmup: 0,
            samples: 3,
            iters: 1,
        },
        || sat.solve(1500).unwrap(),
    );
    println!("{}", g.report());
    let path = write_text(&results_dir(), "BENCH_mvasd.json", &bench_json(&[&g]))
        .expect("results directory is writable");
    println!("wrote {}", path.display());

    // Streaming early exit: an SLA query against the same model answers as
    // soon as the response-time ceiling is crossed, instead of sweeping the
    // full population range. The step counts make the saving concrete.
    let mut g = Bench::new("streaming_early_exit_vins_1500");
    let solver = MultiserverMvaSolver::new(vins_network(1500.0));
    let sla = [StopCondition::SlaResponseTime { max_response: 2.0 }];
    g.measure("full_sweep_1500", Plan::light(20), || {
        solver.solve(1500).unwrap().points.len()
    });
    g.measure("sla_early_exit", Plan::light(20), || {
        let mut iter = solver.start().unwrap();
        run_until(iter.as_mut(), &sla, 1500).unwrap().steps
    });
    let full = solver.solve(1500).unwrap().points.len();
    let mut iter = solver.start().unwrap();
    let early = run_until(iter.as_mut(), &sla, 1500).unwrap().steps;
    println!("{}", g.report());
    println!(
        "steps: full sweep {full}, SLA early exit {early} (saved {})\n",
        full - early
    );
}
