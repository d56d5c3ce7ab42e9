//! Determinism guarantees of the hermetic toolchain: with the in-house
//! xoshiro256++ RNG there is no platform- or scheduling-dependent entropy
//! anywhere, so identical seeds must give *bit-identical* results — across
//! repeated runs and across parallelism levels.

use mvasd_suite::simnet::{Distribution, SimConfig, SimNetwork, SimStation, Simulation};
use mvasd_suite::testbed::apps::jpetstore;
use mvasd_suite::testbed::campaign::{run_campaign, CampaignConfig};

fn three_tier() -> SimNetwork {
    SimNetwork::new(
        vec![
            SimStation::queueing("web", 4, 0.012),
            SimStation::queueing("app", 2, 0.020),
            SimStation::queueing("db", 1, 0.009),
        ],
        Distribution::Exponential { mean: 1.0 },
    )
    .unwrap()
}

#[test]
fn same_seed_gives_bit_identical_simulation_reports() {
    let cfg = SimConfig {
        customers: 40,
        horizon: 800.0,
        warmup: 100.0,
        seed: 0xFEED,
        ..SimConfig::default()
    };
    let run = || {
        Simulation::new(three_tier(), cfg.clone())
            .unwrap()
            .run()
            .unwrap()
    };
    let (a, b) = (run(), run());
    // Bit-identical, not merely close: compare every float exactly.
    assert_eq!(a.system.throughput.to_bits(), b.system.throughput.to_bits());
    assert_eq!(
        a.system.mean_response.to_bits(),
        b.system.mean_response.to_bits()
    );
    assert_eq!(a.system.completions, b.system.completions);
    for (sa, sb) in a.stations.iter().zip(b.stations.iter()) {
        assert_eq!(sa.utilization.to_bits(), sb.utilization.to_bits());
        assert_eq!(sa.mean_queue.to_bits(), sb.mean_queue.to_bits());
    }
}

#[test]
fn campaign_results_do_not_depend_on_parallelism() {
    // Each level owns a seed derived from (base_seed, level), so the thread
    // interleaving chosen by `std::thread::scope` cannot leak into results.
    let app = jpetstore::model();
    let levels = [1u64, 30, 90];
    let run_with = |parallelism: usize| {
        let cfg = CampaignConfig {
            parallelism,
            test_duration: 120.0,
            ..CampaignConfig::default()
        };
        run_campaign(&app, &levels, &cfg).unwrap()
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    for (s, p) in serial.points.iter().zip(parallel.points.iter()) {
        assert_eq!(s.users, p.users);
        assert_eq!(s.throughput.to_bits(), p.throughput.to_bits());
        assert_eq!(s.response.to_bits(), p.response.to_bits());
    }
}
