//! Cross-crate validation: the analytic solvers, the closed forms, and the
//! discrete-event simulator must agree on shared models — three
//! independently built components triangulating the same ground truth.

use mvasd_suite::core::profile::{
    DemandAxis, DemandSamples, InterpolationKind, ServiceDemandProfile,
};
use mvasd_suite::core::solver::{MvasdSchweitzerSolver, MvasdSingleServerSolver, MvasdSolver};
use mvasd_suite::numerics::erlang::{machine_repair, mmc};
use mvasd_suite::queueing::hierarchy::{
    HierarchicalNetwork, HierarchicalSolver, NetworkNode, Subsystem,
};
use mvasd_suite::queueing::mva::{
    exact_mva, load_dependent_mva, multiclass_mva, multiserver_mva, schweitzer_mva, ClassSpec,
    ClosedSolver, ExactMvaSolver, LdStation, MomSolver, MultiserverMvaSolver, RateFunction,
    SchweitzerOptions, SchweitzerSolver,
};
use mvasd_suite::queueing::network::{ClosedNetwork, Station, StationKind};
use mvasd_suite::queueing::open::solve_open;
use mvasd_suite::simnet::{Distribution, SimConfig, SimNetwork, SimStation, Simulation};

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-12)
}

#[test]
fn simulator_vs_mva_on_three_tier_network() {
    // A miniature 3-tier model; exponential everything keeps it
    // product-form, so DES and exact MVA must agree within sampling noise.
    let demands = [(16usize, 0.030), (1, 0.008), (16, 0.020), (1, 0.012)];
    let z = 1.0;
    let n = 60usize;

    let net = ClosedNetwork::new(
        demands
            .iter()
            .enumerate()
            .map(|(i, &(c, d))| Station::queueing(&format!("s{i}"), c, 1.0, d))
            .collect(),
        z,
    )
    .unwrap();
    let analytic = multiserver_mva(&net, n).unwrap();

    let sim_net = SimNetwork::new(
        demands
            .iter()
            .enumerate()
            .map(|(i, &(c, d))| SimStation::queueing(&format!("s{i}"), c, d))
            .collect(),
        Distribution::Exponential { mean: z },
    )
    .unwrap();
    let sim = Simulation::new(
        sim_net,
        SimConfig {
            customers: n,
            horizon: 2500.0,
            warmup: 500.0,
            seed: 99,
            ..SimConfig::default()
        },
    )
    .unwrap()
    .run()
    .unwrap();

    let a = analytic.last();
    assert!(
        rel(sim.system.throughput, a.throughput) < 0.03,
        "X: sim {} vs mva {}",
        sim.system.throughput,
        a.throughput
    );
    assert!(
        rel(sim.system.mean_response, a.response) < 0.06,
        "R: sim {} vs mva {}",
        sim.system.mean_response,
        a.response
    );
    for k in 0..demands.len() {
        assert!(
            (sim.stations[k].utilization - a.stations[k].utilization).abs() < 0.03,
            "station {k} utilization"
        );
    }
}

#[test]
fn four_solvers_one_network() {
    // exact (single-server net), multiserver, load-dependent, Schweitzer:
    // all four on the same single-server network must coincide (Schweitzer
    // within its approximation band).
    let net = ClosedNetwork::new(
        vec![
            Station::queueing("a", 1, 1.0, 0.01),
            Station::queueing("b", 1, 1.0, 0.016),
        ],
        0.5,
    )
    .unwrap();
    let n = 120;
    let e = exact_mva(&net, n).unwrap();
    let m = multiserver_mva(&net, n).unwrap();
    let ld = load_dependent_mva(
        &[
            LdStation::new("a", 0.01, RateFunction::SingleServer),
            LdStation::new("b", 0.016, RateFunction::SingleServer),
        ],
        0.5,
        n,
    )
    .unwrap();
    let s = schweitzer_mva(&net, n, SchweitzerOptions::default()).unwrap();
    for i in 1..=n {
        let xe = e.at(i).unwrap().throughput;
        assert!(
            rel(m.at(i).unwrap().throughput, xe) < 1e-8,
            "multiserver at {i}"
        );
        assert!(
            rel(ld.at(i).unwrap().throughput, xe) < 1e-8,
            "load-dependent at {i}"
        );
        // Schweitzer's error peaks around the knee (~6 % textbook band).
        assert!(
            rel(s.at(i).unwrap().throughput, xe) < 0.06,
            "schweitzer at {i}"
        );
    }
}

#[test]
fn closed_network_approaches_open_network_at_light_load() {
    // With a huge think time and matching arrival rate, the closed model's
    // per-interaction response approaches the open (Jackson) response.
    let stations = vec![
        Station::queueing("cpu", 4, 1.0, 0.02),
        Station::queueing("disk", 1, 1.0, 0.01),
    ];
    let net = ClosedNetwork::new(stations, 100.0).unwrap();
    let n = 500; // lambda ≈ N/(R+Z) ≈ 5/s, far below the 100/s disk ceiling
    let closed = multiserver_mva(&net, n).unwrap();
    let lambda = closed.last().throughput;
    let open = solve_open(&net, lambda).unwrap();
    assert!(
        rel(closed.last().response, open.response) < 0.02,
        "closed {} vs open {}",
        closed.last().response,
        open.response
    );
}

#[test]
fn analytic_solvers_vs_erlang_closed_forms() {
    // Machine repair (closed) and M/M/c (open) pin both solver families.
    let (c, s, z) = (6usize, 0.3f64, 2.0f64);
    let net = ClosedNetwork::new(vec![Station::queueing("st", c, 1.0, s)], z).unwrap();
    let sol = multiserver_mva(&net, 100).unwrap();
    for n in [1usize, 5, 20, 50, 100] {
        let (xe, qe) = machine_repair(n, c, s, z).unwrap();
        assert!(rel(sol.at(n).unwrap().throughput, xe) < 1e-8, "X at {n}");
        assert!(
            (sol.at(n).unwrap().stations[0].queue - qe).abs() < 1e-5 * qe.max(1.0),
            "Q at {n}"
        );
    }

    let open_net = ClosedNetwork::new(vec![Station::queueing("st", 3, 1.0, 0.6)], 0.0).unwrap();
    let m = mmc(3, 4.0, 1.0 / 0.6).unwrap();
    let sol = solve_open(&open_net, 4.0).unwrap();
    assert!(rel(sol.response, m.sojourn) < 1e-9);
}

#[test]
fn every_closed_solver_agrees_with_exact_mva_through_the_trait() {
    // The unifying contract of the refactor: on a single-server product-form
    // network every solver in the workspace is reachable through
    // `ClosedSolver`, and the exact family reproduces exact MVA to 1e-9.
    // Approximate solvers get their documented bands; the DES estimator is
    // exercised separately (statistical) below.
    let net = ClosedNetwork::new(
        vec![
            Station::queueing("a", 1, 1.0, 0.01),
            Station::queueing("b", 1, 1.0, 0.016),
        ],
        0.5,
    )
    .unwrap();
    let n = 80usize;
    let reference = ExactMvaSolver::new(net.clone()).solve(n).unwrap();

    // A constant demand profile makes MVASD collapse onto classic MVA, so
    // the core-layer solvers join the exact family on this model.
    let levels = vec![1.0, 40.0, 80.0];
    let samples = DemandSamples {
        station_names: vec!["a".into(), "b".into()],
        server_counts: vec![1, 1],
        think_time: 0.5,
        levels: levels.clone(),
        demands: vec![vec![0.01; levels.len()], vec![0.016; levels.len()]],
    };
    let profile = ServiceDemandProfile::from_samples(
        &samples,
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .unwrap();

    // The same model expressed hierarchically: station "b" wrapped in a
    // subsystem, aggregated through a Norton flow-equivalent server. Its
    // flat projection is identical, so it joins the exact family.
    let hier = HierarchicalNetwork::new(
        vec![
            Station::queueing("a", 1, 1.0, 0.01).into(),
            Subsystem::new("sub", vec![Station::queueing("b", 1, 1.0, 0.016).into()]).into(),
        ],
        0.5,
    )
    .unwrap();

    let exact_family: Vec<Box<dyn ClosedSolver>> = vec![
        Box::new(ExactMvaSolver::new(net.clone())),
        Box::new(MultiserverMvaSolver::new(net.clone())),
        Box::new(MultiserverMvaSolver::from_stations(
            vec![
                LdStation::new("a", 0.01, RateFunction::SingleServer),
                LdStation::new("b", 0.016, RateFunction::SingleServer),
            ],
            0.5,
        )),
        Box::new(HierarchicalSolver::new(hier)),
        Box::new(MvasdSolver::new(profile.clone())),
        Box::new(MvasdSingleServerSolver::new(profile.clone())),
    ];
    for solver in &exact_family {
        let sol = solver.solve(n).unwrap();
        for i in 1..=n {
            let r = reference.at(i).unwrap();
            let p = sol.at(i).unwrap();
            assert!(
                rel(p.throughput, r.throughput) < 1e-9,
                "[{}] X at {i}: {} vs {}",
                solver.name(),
                p.throughput,
                r.throughput
            );
            assert!(
                rel(p.cycle_time, r.cycle_time) < 1e-9,
                "[{}] C at {i}",
                solver.name()
            );
        }
    }

    // Approximate family: fixed-point AMVA, documented ~6 % band near the knee.
    let approximate: Vec<Box<dyn ClosedSolver>> = vec![
        Box::new(SchweitzerSolver::new(net.clone())),
        Box::new(MvasdSchweitzerSolver::new(profile)),
    ];
    for solver in &approximate {
        let sol = solver.solve(n).unwrap();
        for i in 1..=n {
            assert!(
                rel(
                    sol.at(i).unwrap().throughput,
                    reference.at(i).unwrap().throughput
                ) < 0.06,
                "[{}] X at {i}",
                solver.name()
            );
        }
    }
}

#[test]
fn method_of_moments_matches_the_lattice_oracle_on_a_population_grid() {
    // The two exact multiclass backends share no arithmetic: the lattice
    // oracle walks Arrival-Theorem faces in the linear domain, the Method
    // of Moments runs normalizing-constant recurrences in the log domain.
    // Across a grid of class counts, station mixes (single-server,
    // multi-server via Seidmann, delay), think times (including 0), and
    // small populations, every reported quantity must agree to 1e-8.
    use mvasd_suite::queueing::mva::Workload;

    let station_sets: Vec<(Vec<&str>, Vec<StationKind>)> = vec![
        (
            vec!["cpu", "disk"],
            vec![
                StationKind::Queueing { servers: 1 },
                StationKind::Queueing { servers: 1 },
            ],
        ),
        (
            vec!["cpu", "disk", "lan"],
            vec![
                StationKind::Queueing { servers: 4 },
                StationKind::Queueing { servers: 1 },
                StationKind::Delay,
            ],
        ),
        (
            vec!["cpu", "lan"],
            vec![StationKind::Queueing { servers: 2 }, StationKind::Delay],
        ),
    ];
    // Per-class (population-scale, think-time, demand-scale) templates;
    // the grid takes 1-, 2-, and 3-class prefixes of this list.
    let class_templates = [(1.0f64, 1.0f64), (0.5, 0.0), (2.0, 0.3)];
    let base_demands = [0.02, 0.012, 0.004];

    let mut cases = 0usize;
    for (names, kinds) in &station_sets {
        for nclasses in 1..=class_templates.len() {
            for &pop_base in &[2usize, 5] {
                let classes: Vec<ClassSpec> = class_templates[..nclasses]
                    .iter()
                    .enumerate()
                    .map(|(c, &(dscale, think))| ClassSpec {
                        name: format!("c{c}"),
                        population: pop_base + c,
                        think_time: think,
                        demands: base_demands[..names.len()]
                            .iter()
                            .map(|d| d * dscale * (1.0 + 0.1 * c as f64))
                            .collect(),
                    })
                    .collect();
                let oracle = multiclass_mva(&classes, kinds).unwrap();
                let workload = Workload::new(
                    names.iter().map(|s| s.to_string()).collect(),
                    kinds.clone(),
                    classes,
                )
                .unwrap();
                let mom = MomSolver::new(workload).solve_classes().unwrap();

                for (a, b) in oracle.classes.iter().zip(&mom.classes) {
                    assert!(
                        rel(b.throughput, a.throughput) < 1e-8,
                        "X[{}]: {} vs {}",
                        a.name,
                        b.throughput,
                        a.throughput
                    );
                    assert!(
                        (b.response - a.response).abs() < 1e-8 * a.response.abs().max(1.0),
                        "R[{}]: {} vs {}",
                        a.name,
                        b.response,
                        a.response
                    );
                }
                for (k, (a, b)) in oracle
                    .station_queues
                    .iter()
                    .zip(&mom.station_queues)
                    .enumerate()
                {
                    assert!(
                        (b - a).abs() < 1e-8 * a.abs().max(1.0),
                        "Q[{k}]: {b} vs {a}"
                    );
                }
                for (k, (a, b)) in oracle
                    .station_utilizations
                    .iter()
                    .zip(&mom.station_utilizations)
                    .enumerate()
                {
                    assert!((b - a).abs() < 1e-8, "U[{k}]: {b} vs {a}");
                }
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 18, "the whole grid ran");
}

#[test]
fn sim_solver_joins_the_trait_family_statistically() {
    // The DES estimator behind the same `ClosedSolver` trait, held to a
    // sampling band rather than the analytic 1e-9.
    use mvasd_suite::testbed::solver::SimSolver;

    let net = ClosedNetwork::new(vec![Station::queueing("s", 1, 1.0, 0.02)], 0.5).unwrap();
    let n = 12usize;
    let reference = ExactMvaSolver::new(net).solve(n).unwrap();

    let sim_net = SimNetwork::new(
        vec![SimStation::queueing("s", 1, 0.02)],
        Distribution::Exponential { mean: 0.5 },
    )
    .unwrap();
    let solver: Box<dyn ClosedSolver> = Box::new(SimSolver::new(
        sim_net,
        SimConfig {
            horizon: 6000.0,
            warmup: 600.0,
            seed: 7,
            ..SimConfig::default()
        },
    ));
    assert_eq!(solver.name(), "simnet-des");
    let sol = solver.solve(n).unwrap();
    for i in 1..=n {
        assert!(
            rel(
                sol.at(i).unwrap().throughput,
                reference.at(i).unwrap().throughput
            ) < 0.06,
            "DES X at {i}: {} vs {}",
            sol.at(i).unwrap().throughput,
            reference.at(i).unwrap().throughput
        );
    }
}

/// One VINS tier: its name plus four (station, servers, demand) members.
type TierSpec = (&'static str, [(&'static str, usize, f64); 4]);

#[test]
fn hierarchical_vins_vs_simulator() {
    // The paper's twelve-station VINS shape, expressed as three tier
    // subsystems and solved through Norton aggregation, must agree with
    // the discrete-event simulator run on the *flat* network — the two
    // estimates triangulate through entirely different machinery (FES
    // substitution + convolution vs event-by-event sampling).
    let tiers: [TierSpec; 3] = [
        (
            "load",
            [
                ("cpu", 16, 0.004),
                ("disk", 1, 0.0085),
                ("tx", 1, 0.0012),
                ("rx", 1, 0.0018),
            ],
        ),
        (
            "app",
            [
                ("cpu", 16, 0.012),
                ("disk", 1, 0.0022),
                ("tx", 1, 0.0015),
                ("rx", 1, 0.0015),
            ],
        ),
        (
            "db",
            [
                ("cpu", 16, 0.055),
                ("disk", 1, 0.0098),
                ("tx", 1, 0.0014),
                ("rx", 1, 0.0012),
            ],
        ),
    ];
    let z = 1.0;
    let n = 60usize;

    let nodes: Vec<NetworkNode> = tiers
        .iter()
        .map(|(tier, members)| {
            Subsystem::new(
                tier,
                members
                    .iter()
                    .map(|&(part, c, d)| {
                        Station::queueing(&format!("{tier}-{part}"), c, 1.0, d).into()
                    })
                    .collect(),
            )
            .into()
        })
        .collect();
    let net = HierarchicalNetwork::new(nodes, z).unwrap();
    let aggregated = HierarchicalSolver::new(net.clone()).solve(n).unwrap();

    let sim_net = SimNetwork::new(
        net.flatten()
            .stations()
            .iter()
            .map(|s| SimStation::queueing(&s.name, s.kind.server_count().unwrap(), s.service_time))
            .collect(),
        Distribution::Exponential { mean: z },
    )
    .unwrap();
    let sim = Simulation::new(
        sim_net,
        SimConfig {
            customers: n,
            horizon: 2500.0,
            warmup: 500.0,
            seed: 99,
            ..SimConfig::default()
        },
    )
    .unwrap()
    .run()
    .unwrap();

    let a = aggregated.last();
    assert!(
        rel(sim.system.throughput, a.throughput) < 0.03,
        "X: sim {} vs hierarchical {}",
        sim.system.throughput,
        a.throughput
    );
    assert!(
        rel(sim.system.mean_response, a.response) < 0.06,
        "R: sim {} vs hierarchical {}",
        sim.system.mean_response,
        a.response
    );
    for (k, (ss, sa)) in sim.stations.iter().zip(a.stations.iter()).enumerate() {
        assert!(
            (ss.utilization - sa.utilization).abs() < 0.03,
            "station {k} utilization: sim {} vs hierarchical {}",
            ss.utilization,
            sa.utilization
        );
    }
}

#[test]
fn simulator_service_distribution_insensitivity_check() {
    // Product-form (exponential) vs low-variance (Erlang-4) service: FCFS
    // multi-server queueing is *not* insensitive, so response should
    // differ measurably at high utilization — a sanity check that the
    // simulator really models service variance (and hence that matching
    // MVA with exponential service is meaningful, not vacuous).
    let mk = |dist: Distribution| {
        let st = SimStation::queueing("s", 1, 0.02).with_service(dist);
        let net = SimNetwork::new(vec![st], Distribution::Exponential { mean: 0.2 }).unwrap();
        Simulation::new(
            net,
            SimConfig {
                customers: 12,
                horizon: 3000.0,
                warmup: 300.0,
                seed: 5,
                ..SimConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap()
    };
    let exp = mk(Distribution::Exponential { mean: 0.02 });
    let erl = mk(Distribution::Erlang { k: 4, mean: 0.02 });
    // Less service variance => shorter queueing delay.
    assert!(
        erl.system.mean_response < exp.system.mean_response,
        "erlang {} vs exp {}",
        erl.system.mean_response,
        exp.system.mean_response
    );
}
