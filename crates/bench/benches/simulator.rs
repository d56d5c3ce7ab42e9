//! Discrete-event simulator throughput: simulated load tests per second of
//! wall clock at the paper's scales.
//!
//! The `simulated_load_test_60s` group times single 60 s runs: three at
//! the paper's scales, and `wide_1024_servers`, a 1024-server station with
//! about 750 busy servers, which keeps most queueing completions in the
//! event list's heap rather than its near-future array. The
//! `simnet_campaign` group times the measurement campaign of the paper's
//! Fig. 17 workflow on each calibrated app: 5 Chebyshev levels over
//! [1, 1500] for VINS and [1, 300] for JPetStore, one worker, 900
//! simulated seconds per level (90 s in quick mode). Both are written to
//! `results/BENCH_simulator.json` (schema `mvasd-bench/1`, documented in
//! `EXPERIMENTS.md`), which `mvasd-doctor` holds against its baseline.

use mvasd_bench::output::{results_dir, write_text};
use mvasd_bench::timing::{bench_json, quick_mode, Bench, Plan};
use mvasd_core::pipeline::PredictionWorkflow;
use mvasd_simnet::{Distribution, SimConfig, SimNetwork, SimStation, Simulation};
use mvasd_testbed::apps::{jpetstore, vins};
use mvasd_testbed::campaign::{run_campaign, CampaignConfig};

fn main() {
    let mut single = Bench::new("simulated_load_test_60s");
    let wide = SimNetwork::new(
        vec![
            SimStation::queueing("wide", 1024, 1.0),
            SimStation::queueing("disk", 1, 0.0004),
        ],
        Distribution::Exponential { mean: 1.0 },
    )
    .unwrap();
    for (name, net, users) in [
        (
            "vins_50_users",
            vins::model().sim_network(50).unwrap(),
            50usize,
        ),
        (
            "vins_1500_users",
            vins::model().sim_network(1500).unwrap(),
            1500,
        ),
        (
            "jpetstore_210_users",
            jpetstore::model().sim_network(210).unwrap(),
            210,
        ),
        ("wide_1024_servers", wide, 1500),
    ] {
        single.measure(name, Plan::heavy(), || {
            Simulation::new(
                net.clone(),
                SimConfig {
                    customers: users,
                    horizon: 60.0,
                    warmup: 10.0,
                    seed: 42,
                    ..SimConfig::default()
                },
            )
            .unwrap()
            .run()
            .unwrap()
        });
    }
    println!("{}", single.report());

    let mut campaign = Bench::new("simnet_campaign");
    let cfg = CampaignConfig {
        test_duration: if quick_mode() { 90.0 } else { 900.0 },
        parallelism: 1,
        base_seed: 42,
    };
    for (name, app, range) in [
        ("vins_campaign", vins::model(), (1.0, 1500.0)),
        ("jpetstore_campaign", jpetstore::model(), (1.0, 300.0)),
    ] {
        let levels = PredictionWorkflow {
            test_points: 5,
            range,
            ..PredictionWorkflow::default()
        }
        .design()
        .unwrap();
        campaign.measure(name, Plan::heavy(), || {
            run_campaign(&app, &levels, &cfg).unwrap()
        });
        println!("{name}: levels {levels:?}");
    }
    println!("{}", campaign.report());
    println!("{} simulated s per level\n", cfg.test_duration);
    let path = write_text(
        &results_dir(),
        "BENCH_simulator.json",
        &bench_json(&[&single, &campaign]),
    )
    .expect("results directory is writable");
    println!("wrote {}", path.display());
}
