//! Solver benchmarks: paper Algorithm 3 (the carried VINS recursion, the
//! JPetStore quasi-static phase and a deep saturating sweep) and its
//! single-server baseline, driven through the `ClosedSolver` trait and
//! written to `results/BENCH_mvasd.json` (schema `mvasd-bench/1`,
//! documented in `EXPERIMENTS.md`), which `mvasd-doctor` holds against its
//! baseline.

use mvasd_bench::output::{results_dir, write_text};
use mvasd_bench::timing::{bench_json, Bench, Plan};
use mvasd_core::profile::{DemandAxis, DemandSamples, InterpolationKind, ServiceDemandProfile};
use mvasd_core::solver::{MvasdSingleServerSolver, MvasdSolver};
use mvasd_queueing::mva::ClosedSolver;
use mvasd_testbed::apps::{jpetstore, vins, AppModel};

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
    g.measure("saturating_quasi_static_1500", Plan::default(), || {
        sat.solve(1500).unwrap()
    });
    println!("{}", g.report());
    let path = write_text(&results_dir(), "BENCH_mvasd.json", &bench_json(&[&g]))
        .expect("results directory is writable");
    println!("wrote {}", path.display());
}
