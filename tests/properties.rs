//! Property-based tests over randomly generated networks, demand curves,
//! and sample sets: the invariants every solver output must satisfy
//! regardless of parameters.
//!
//! Runs on the in-house deterministic harness (`mvasd_numerics::propcheck`).

use mvasd_suite::core::algorithm::mvasd;
use mvasd_suite::core::profile::{
    DemandAxis, DemandSamples, InterpolationKind, ServiceDemandProfile,
};
use mvasd_suite::core::solver::{MvasdSingleServerSolver, MvasdSolver};
use mvasd_suite::numerics::chebyshev::chebyshev_levels;
use mvasd_suite::numerics::interp::{BoundaryCondition, CubicSpline, Interpolant, PchipInterp};
use mvasd_suite::numerics::propcheck::{check, Config, Gen};
use mvasd_suite::queueing::bounds::{response_bounds, throughput_bounds};
use mvasd_suite::queueing::hierarchy::{
    HierarchicalNetwork, HierarchicalSolver, NetworkNode, Subsystem,
};
use mvasd_suite::queueing::mva::{
    multiserver_mva, ClassSpec, ClosedSolver, ExactMvaIter, ExactMvaSolver, MulticlassIter,
    MultiserverMvaSolver, SchweitzerSolver, SolverIter, Workload,
};
use mvasd_suite::queueing::network::{ClosedNetwork, Station, StationKind};

fn cfg() -> Config {
    Config::default().cases(48)
}

/// A random small closed network: 1–5 stations, 1/2/4/8/16 servers each,
/// demands in [1 ms, 100 ms], think time in [0, 2 s].
fn gen_network(g: &mut Gen) -> ClosedNetwork {
    let count = g.usize_in(1, 5);
    let stations = (0..count)
        .map(|i| {
            let c = *g.choose(&[1usize, 2, 4, 8, 16]);
            let d = g.f64_in(0.001, 0.1);
            Station::queueing(&format!("s{i}"), c, 1.0, d)
        })
        .collect();
    let z = g.f64_in(0.0, 2.0);
    ClosedNetwork::new(stations, z).expect("generated parameters are valid")
}

#[test]
fn mva_respects_all_operational_laws() {
    check("mva_respects_all_operational_laws", &cfg(), |g| {
        let net = gen_network(g);
        let n_max = g.usize_in(1, 119);
        let sol = multiserver_mva(&net, n_max).unwrap();
        let cap = net.max_throughput();
        let mut prev_x = 0.0;
        for p in &sol.points {
            // Little's law at the system level.
            assert!((p.n as f64 - p.throughput * p.cycle_time).abs() < 1e-6 * p.n as f64);
            // Bottleneck law.
            assert!(p.throughput <= cap * (1.0 + 1e-9) + 1e-9);
            // Asymptotic bounds.
            let tb = throughput_bounds(&net, p.n);
            let rb = response_bounds(&net, p.n);
            assert!(p.throughput <= tb.upper + 1e-6 + 1e-6 * tb.upper);
            assert!(p.throughput >= tb.lower - 1e-6 - 1e-6 * tb.lower);
            assert!(p.response >= rb.lower - 1e-6 - 1e-6 * rb.lower);
            assert!(p.response <= rb.upper + 1e-6 + 1e-6 * rb.upper);
            // Monotone non-decreasing throughput for constant demands.
            assert!(p.throughput >= prev_x - 1e-6 - 1e-6 * prev_x);
            prev_x = p.throughput;
            // Utilizations are proper fractions; population is conserved.
            let mut at_stations = 0.0;
            for sp in &p.stations {
                assert!(sp.utilization <= 1.0 + 1e-9);
                assert!(sp.queue >= -1e-9);
                at_stations += sp.queue;
            }
            let thinking = p.throughput * net.think_time();
            assert!((at_stations + thinking - p.n as f64).abs() < 1e-5 * p.n as f64);
        }
    });
}

#[test]
fn mvasd_invariants_with_falling_demands() {
    check("mvasd_invariants_with_falling_demands", &cfg(), |g| {
        let base = g.f64_in(0.004, 0.05);
        let alpha = g.f64_in(0.0, 0.4);
        let servers = *g.choose(&[1usize, 4, 16]);
        let n_max = g.usize_in(10, 149);
        // Demand falls from base·(1+alpha) to base across the sampled range.
        let levels = vec![1.0, 50.0, 150.0];
        let d = |n: f64| base * (1.0 + alpha * (-(n - 1.0) / 60.0).exp());
        let samples = DemandSamples {
            station_names: vec!["s".into()],
            server_counts: vec![servers],
            think_time: 1.0,
            levels: levels.clone(),
            demands: vec![levels.iter().map(|&l| d(l)).collect()],
        };
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let sol = mvasd(&profile, n_max).unwrap();
        for p in &sol.points {
            // Little's law holds at every step even with varying demands.
            assert!((p.n as f64 - p.throughput * p.cycle_time).abs() < 1e-6 * p.n as f64);
            // Ceiling from the *minimum* demand over the curve (demand is
            // monotone falling, so min is the clamp value).
            let cap = servers as f64 / d(150.0);
            assert!(
                p.throughput <= cap + 1e-6 + 1e-6 * cap,
                "X {} cap {}",
                p.throughput,
                cap
            );
            assert!(p.stations[0].utilization <= 1.0 + 1e-9);
        }
    });
}

/// A random hierarchical topology: 0–2 root stations plus 2–4 subsystems
/// of 1–3 leaves each (multi-server queues, occasionally a delay leaf
/// alongside a queueing one).
fn gen_hierarchy(g: &mut Gen) -> HierarchicalNetwork {
    let mut nodes: Vec<NetworkNode> = Vec::new();
    for i in 0..g.usize_in(0, 2) {
        let c = *g.choose(&[1usize, 2, 4]);
        nodes.push(Station::queueing(&format!("root{i}"), c, 1.0, g.f64_in(0.001, 0.02)).into());
    }
    for s in 0..g.usize_in(2, 4) {
        let leaves = g.usize_in(1, 3);
        let mut children: Vec<NetworkNode> = (0..leaves)
            .map(|l| {
                let c = *g.choose(&[1usize, 2, 4, 8]);
                let d = g.f64_in(0.001, 0.05);
                NetworkNode::from(Station::queueing(&format!("t{s}-{l}"), c, 1.0, d))
            })
            .collect();
        if g.usize_in(0, 3) == 0 {
            children
                .push(Station::delay(&format!("t{s}-lan"), 1.0, g.f64_in(0.0005, 0.005)).into());
        }
        nodes.push(Subsystem::new(&format!("tier{s}"), children).into());
    }
    HierarchicalNetwork::new(nodes, g.f64_in(0.0, 2.0)).expect("generated parameters are valid")
}

#[test]
fn norton_aggregation_is_exact_for_random_topologies() {
    check(
        "norton_aggregation_is_exact_for_random_topologies",
        &cfg(),
        |g| {
            let net = gen_hierarchy(g);
            let n_max = g.usize_in(1, 60);
            let flat = MultiserverMvaSolver::new(net.flatten())
                .solve(n_max)
                .unwrap();
            let hier = HierarchicalSolver::new(net).solve(n_max).unwrap();
            assert_eq!(&flat.station_names[..], &hier.station_names[..]);
            // Norton flow-equivalent aggregation is exact for product-form
            // networks: every shared population must agree to 1e-9.
            for (pf, ph) in flat.points.iter().zip(hier.points.iter()) {
                let rx = (pf.throughput - ph.throughput).abs() / pf.throughput.abs().max(1e-300);
                assert!(rx <= 1e-9, "n={}: X rel err {rx}", pf.n);
                let rc = (pf.cycle_time - ph.cycle_time).abs() / pf.cycle_time.abs().max(1e-300);
                assert!(rc <= 1e-9, "n={}: cycle rel err {rc}", pf.n);
                for (k, (sf, sh)) in pf.stations.iter().zip(ph.stations.iter()).enumerate() {
                    assert!(
                        (sf.queue - sh.queue).abs() <= 1e-6 * sf.queue.abs().max(1.0),
                        "n={} station {k}: queue {} vs {}",
                        pf.n,
                        sf.queue,
                        sh.queue
                    );
                    assert!(
                        (sf.utilization - sh.utilization).abs() <= 1e-6,
                        "n={} station {k}: util {} vs {}",
                        pf.n,
                        sf.utilization,
                        sh.utilization
                    );
                }
            }
        },
    );
}

#[test]
fn one_class_workload_reproduces_exact_mva_bitwise() {
    // A 1-class Workload is *literally* the single-class model: every
    // streamed step of the multiclass recursion must reproduce Algorithm 1
    // (single-server exact MVA, delay stations pass through) bit for bit —
    // not merely to tolerance. Single-server queueing stations have a
    // trivial Seidmann split (dq = D, dd = 0) and delay stations never
    // enter the arrival-theorem queue, so the arithmetic sequences are
    // identical by construction; this pins that contract.
    check(
        "one_class_workload_reproduces_exact_mva_bitwise",
        &cfg(),
        |g| {
            let count = g.usize_in(1, 5);
            let mut stations = Vec::new();
            let mut kinds = Vec::new();
            let mut demands = Vec::new();
            for i in 0..count {
                let d = g.f64_in(0.001, 0.1);
                if g.usize_in(0, 3) == 0 {
                    stations.push(Station::delay(&format!("s{i}"), 1.0, d));
                    kinds.push(StationKind::Delay);
                } else {
                    stations.push(Station::queueing(&format!("s{i}"), 1, 1.0, d));
                    kinds.push(StationKind::Queueing { servers: 1 });
                }
                demands.push(d);
            }
            let z = g.f64_in(0.0, 2.0);
            let n_max = g.usize_in(1, 60);
            let names: Vec<String> = (0..count).map(|i| format!("s{i}")).collect();
            let net = ClosedNetwork::new(stations, z).expect("generated parameters are valid");
            let workload = Workload::new(
                names,
                kinds,
                vec![ClassSpec {
                    name: "only".into(),
                    population: n_max,
                    think_time: z,
                    demands,
                }],
            )
            .expect("generated parameters are valid");
            let mut exact = ExactMvaIter::new(net);
            let mut mc = MulticlassIter::new(&workload).unwrap();
            for _ in 0..n_max {
                let a = exact.step().unwrap();
                let b = mc.step().unwrap();
                assert_eq!(a.n, b.n);
                assert_eq!(
                    a.throughput.to_bits(),
                    b.throughput.to_bits(),
                    "X at n={}: {} vs {}",
                    a.n,
                    a.throughput,
                    b.throughput
                );
                assert_eq!(a.response.to_bits(), b.response.to_bits(), "R at n={}", a.n);
                assert_eq!(
                    a.cycle_time.to_bits(),
                    b.cycle_time.to_bits(),
                    "cycle at n={}",
                    a.n
                );
                for (k, (sa, sb)) in a.stations.iter().zip(&b.stations).enumerate() {
                    assert_eq!(
                        sa.queue.to_bits(),
                        sb.queue.to_bits(),
                        "queue at n={} station {k}: {} vs {}",
                        a.n,
                        sa.queue,
                        sb.queue
                    );
                    assert_eq!(
                        sa.residence.to_bits(),
                        sb.residence.to_bits(),
                        "residence at n={} station {k}",
                        a.n
                    );
                    assert_eq!(
                        sa.utilization.to_bits(),
                        sb.utilization.to_bits(),
                        "utilization at n={} station {k}",
                        a.n
                    );
                }
            }
        },
    );
}

#[test]
fn single_server_algorithm_2_and_mvasd_match_algorithm_1() {
    // With C = 1 everywhere the multi-server correction vanishes, so
    // Algorithm 2 is Algorithm 1, and so is MVASD over a constant profile,
    // whether it runs the multi-server or the single-server recursion.
    check(
        "single_server_algorithm_2_and_mvasd_match_algorithm_1",
        &Config::default().cases(60),
        |g| {
            let count = g.usize_in(2, 5);
            let demands: Vec<f64> = (0..count).map(|_| g.f64_in(0.001, 0.1)).collect();
            let names: Vec<String> = (0..count).map(|k| format!("s{k}")).collect();
            let z = g.f64_in(0.0, 2.0);
            let n_max = g.usize_in(1, 600);
            let stations = names
                .iter()
                .zip(&demands)
                .map(|(name, &d)| Station::queueing(name, 1, 1.0, d))
                .collect();
            let net = ClosedNetwork::new(stations, z).expect("generated parameters are valid");
            let samples = DemandSamples {
                station_names: names,
                server_counts: vec![1; count],
                think_time: z,
                levels: vec![1.0],
                demands: demands.iter().map(|&d| vec![d]).collect(),
            };
            let profile = ServiceDemandProfile::from_samples(
                &samples,
                InterpolationKind::CubicNotAKnot,
                DemandAxis::Concurrency,
            )
            .unwrap();
            let reference = ExactMvaSolver::new(net.clone()).solve(n_max).unwrap();
            let solvers: [Box<dyn ClosedSolver>; 3] = [
                Box::new(MultiserverMvaSolver::new(net)),
                Box::new(MvasdSolver::new(profile.clone())),
                Box::new(MvasdSingleServerSolver::new(profile)),
            ];
            for solver in &solvers {
                let sol = solver.solve(n_max).unwrap();
                assert_eq!(sol.points.len(), n_max, "{}", solver.name());
                for (a, b) in reference.points.iter().zip(&sol.points) {
                    let check = |what: &str, got: f64, want: f64| {
                        assert!(
                            holds(1e-13, got, want),
                            "{} n={} {what}: {got} vs {want}",
                            solver.name(),
                            a.n
                        );
                    };
                    check("X", b.throughput, a.throughput);
                    check("R", b.response, a.response);
                    for (sa, sb) in a.stations.iter().zip(&b.stations) {
                        check("Q_k", sb.queue, sa.queue);
                        check("R_k", sb.residence, sa.residence);
                        check("U_k", sb.utilization, sa.utilization);
                    }
                }
            }
        },
    );
}

/// How a case lays out its stations: as written, with an idle
/// (zero-demand) station inserted mid-network, or in reverse order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    Plain,
    Idle,
    Reversed,
}

impl Layout {
    fn apply<T>(self, mut items: Vec<T>, idle: T) -> Vec<T> {
        match self {
            Layout::Plain => {}
            Layout::Idle => items.insert(items.len() / 2, idle),
            Layout::Reversed => items.reverse(),
        }
        items
    }
}

/// The station `Layout::Idle` inserts.
fn idle_station() -> Station {
    Station::queueing("idle", 1, 1.0, 0.0)
}

/// A 16-core CPU, a disk and a delay station, every demand and Z times `s`.
fn cpu_disk_delay(s: f64, layout: Layout) -> ClosedNetwork {
    let stations = vec![
        Station::queueing("cpu", 16, 1.0, 0.16 * s),
        Station::queueing("disk", 1, 1.0, 0.004 * s),
        Station::delay("lan", 1.0, 0.003 * s),
    ];
    ClosedNetwork::new(layout.apply(stations, idle_station()), s).unwrap()
}

/// Stations sampled at N = 1, 300 and 600 as `(name, servers, demands)`,
/// every demand and Z = 1 times `s`.
fn sampled_profile(
    stations: Vec<(&str, usize, [f64; 3])>,
    s: f64,
    layout: Layout,
) -> ServiceDemandProfile {
    let stations = layout.apply(stations, ("idle", 1, [0.0; 3]));
    let samples = DemandSamples {
        station_names: stations.iter().map(|st| st.0.to_string()).collect(),
        server_counts: stations.iter().map(|st| st.1).collect(),
        think_time: s,
        levels: vec![1.0, 300.0, 600.0],
        demands: stations
            .iter()
            .map(|st| st.2.map(|d| d * s).to_vec())
            .collect(),
    };
    ServiceDemandProfile::from_samples(
        &samples,
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .unwrap()
}

/// A 16-core CPU and a 4 ms disk.
fn cpu_disk_profile(cpu: [f64; 3], s: f64, layout: Layout) -> ServiceDemandProfile {
    sampled_profile(vec![("cpu", 16, cpu), ("disk", 1, [0.004; 3])], s, layout)
}

/// Four tiers with falling demands: a load balancer, a 4-core web CPU, a
/// 16-core app CPU that saturates (so MVASD crosses the quasi-static
/// switch) and an 8-core database CPU.
fn four_tier_profile(s: f64, layout: Layout) -> ServiceDemandProfile {
    let stations = vec![
        ("lb", 1, [0.0030, 0.0028, 0.0027]),
        ("web", 4, [0.030, 0.028, 0.027]),
        ("app", 16, SATURATING_CPU),
        ("db", 8, [0.050, 0.048, 0.047]),
    ];
    sampled_profile(stations, s, layout)
}

/// The CPU stays below the quasi-static switch to N = 600.
const CARRIED_CPU: [f64; 3] = [0.020, 0.019, 0.018];
/// The CPU saturates, so MVASD crosses the quasi-static switch.
const SATURATING_CPU: [f64; 3] = [0.165, 0.160, 0.158];

/// Builds a case's solver with every demand and Z times `s`, its stations
/// laid out as `Layout` says.
type Build = fn(f64, Layout) -> Box<dyn ClosedSolver>;

/// The seven analytic solvers the metamorphic relations run through, each
/// on its own model and depth (MVASD on three).
fn analytic_cases() -> [(usize, Build); 8] {
    [
        (600, |s, layout| {
            let stations = vec![
                Station::queueing("a", 1, 1.0, 0.01 * s),
                Station::queueing("b", 1, 1.0, 0.016 * s),
                Station::delay("lan", 1.0, 0.003 * s),
            ];
            let net = ClosedNetwork::new(layout.apply(stations, idle_station()), 0.5 * s);
            Box::new(ExactMvaSolver::new(net.unwrap()))
        }),
        (600, |s, layout| {
            Box::new(MultiserverMvaSolver::new(cpu_disk_delay(s, layout)))
        }),
        (600, |s, layout| {
            Box::new(SchweitzerSolver::new(cpu_disk_delay(s, layout)))
        }),
        (600, |s, layout| {
            Box::new(MvasdSolver::new(cpu_disk_profile(CARRIED_CPU, s, layout)))
        }),
        (600, |s, layout| {
            Box::new(MvasdSolver::new(cpu_disk_profile(
                SATURATING_CPU,
                s,
                layout,
            )))
        }),
        (600, |s, layout| {
            Box::new(MvasdSolver::new(four_tier_profile(s, layout)))
        }),
        (600, |s, layout| {
            Box::new(MvasdSingleServerSolver::new(cpu_disk_profile(
                CARRIED_CPU,
                s,
                layout,
            )))
        }),
        (200, |s, layout| {
            let tier = |name: &str, cpu: f64, disk: f64| -> NetworkNode {
                let mut leaves = vec![
                    Station::queueing(&format!("{name}-cpu"), 4, 1.0, cpu * s).into(),
                    Station::queueing(&format!("{name}-disk"), 1, 1.0, disk * s).into(),
                ];
                if layout == Layout::Reversed {
                    leaves.reverse();
                }
                Subsystem::new(name, leaves).into()
            };
            let nodes = vec![
                Station::queueing("lb", 1, 1.0, 0.002 * s).into(),
                tier("app", 0.010, 0.004),
                tier("db", 0.016, 0.007),
            ];
            let nodes = layout.apply(nodes, idle_station().into());
            let net = HierarchicalNetwork::new(nodes, 0.5 * s);
            Box::new(HierarchicalSolver::new(net.unwrap()))
        }),
    ]
}

/// `got` equals `want` bit for bit when `tol` is 0, else within `tol`
/// relative.
fn holds(tol: f64, got: f64, want: f64) -> bool {
    if tol == 0.0 {
        got.to_bits() == want.to_bits()
    } else {
        (got - want).abs() <= tol * want.abs().max(f64::MIN_POSITIVE)
    }
}

#[test]
fn scaling_demands_and_z_scales_r_and_x_through_every_analytic_solver() {
    // Time units are arbitrary: with every demand and Z scaled by s, R
    // scales by s, X by 1/s, and queues and utilizations stay put. Scaling
    // by a power of two is exact in every operation, so the relation holds
    // bit for bit at s = 0.5 and 2; s = 3 rounds.
    for (case, (n_max, build)) in analytic_cases().into_iter().enumerate() {
        let solver = build(1.0, Layout::Plain);
        let base = solver.solve(n_max).unwrap();
        let name = format!("case {case} ({})", solver.name());
        for s in [0.5, 2.0, 3.0] {
            let scaled = build(s, Layout::Plain).solve(n_max).unwrap();
            let tol = if s == 3.0 { 1e-13 } else { 0.0 };
            let check = |what: &str, n: usize, got: f64, want: f64| {
                assert!(
                    holds(tol, got, want),
                    "{name} s={s} n={n} {what}: {got} vs {want}"
                );
            };
            assert_eq!(scaled.points.len(), n_max, "{name} s={s}");
            for (a, b) in base.points.iter().zip(&scaled.points) {
                check("R", a.n, b.response, s * a.response);
                check("R + Z", a.n, b.cycle_time, s * a.cycle_time);
                check("X", a.n, b.throughput, a.throughput / s);
                for (sa, sb) in a.stations.iter().zip(&b.stations) {
                    check("Q_k", a.n, sb.queue, sa.queue);
                    check("R_k", a.n, sb.residence, s * sa.residence);
                    check("U_k", a.n, sb.utilization, sa.utilization);
                }
            }
        }
    }
    // The MVASD profiles land on either side of the switch.
    let carried = MvasdSolver::new(cpu_disk_profile(CARRIED_CPU, 1.0, Layout::Plain));
    let saturating = MvasdSolver::new(cpu_disk_profile(SATURATING_CPU, 1.0, Layout::Plain));
    let four_tier = MvasdSolver::new(four_tier_profile(1.0, Layout::Plain));
    assert!(carried.solve(600).unwrap().last().stations[0].utilization < 0.5);
    assert!(saturating.solve(600).unwrap().last().stations[0].utilization > 0.9);
    assert!(four_tier.solve(600).unwrap().last().stations[2].utilization > 0.9);
}

#[test]
fn adding_a_zero_demand_station_changes_nothing_through_every_analytic_solver() {
    // A station nobody visits adds 0 to every sum and never holds a
    // customer, so the other stations' results keep every bit.
    for (case, (n_max, build)) in analytic_cases().into_iter().enumerate() {
        let base = build(1.0, Layout::Plain).solve(n_max).unwrap();
        let solver = build(1.0, Layout::Idle);
        let name = format!("case {case} ({})", solver.name());
        let with_idle = solver.solve(n_max).unwrap();
        let idle = with_idle
            .station_names
            .iter()
            .position(|n| n == "idle")
            .expect("the idle station is reported");
        assert!(idle > 0 && idle < base.station_names.len(), "{name}");
        let mut others = with_idle.station_names.to_vec();
        others.remove(idle);
        assert_eq!(&others[..], &base.station_names[..], "{name}");
        assert_eq!(with_idle.points.len(), n_max, "{name}");
        for (a, b) in base.points.iter().zip(&with_idle.points) {
            let check = |what: &str, got: f64, want: f64| {
                assert!(
                    holds(0.0, got, want),
                    "{name} n={} {what}: {got} vs {want}",
                    a.n
                );
            };
            check("X", b.throughput, a.throughput);
            check("R", b.response, a.response);
            check("R + Z", b.cycle_time, a.cycle_time);
            let mut rest = b.stations.clone();
            let idle_point = rest.remove(idle);
            for (sa, sb) in a.stations.iter().zip(&rest) {
                check("Q_k", sb.queue, sa.queue);
                check("R_k", sb.residence, sa.residence);
                check("U_k", sb.utilization, sa.utilization);
            }
            check("idle Q", idle_point.queue, 0.0);
            check("idle R", idle_point.residence, 0.0);
            check("idle U", idle_point.utilization, 0.0);
        }
    }
}

#[test]
fn permuting_stations_changes_nothing_through_every_analytic_solver() {
    // Station order is bookkeeping: matched by name, every result holds
    // up to the rounding of a reordered sum.
    for (case, (n_max, build)) in analytic_cases().into_iter().enumerate() {
        let base = build(1.0, Layout::Plain).solve(n_max).unwrap();
        let solver = build(1.0, Layout::Reversed);
        let name = format!("case {case} ({})", solver.name());
        let reversed = solver.solve(n_max).unwrap();
        assert_ne!(
            &reversed.station_names[..],
            &base.station_names[..],
            "{name}"
        );
        let index: Vec<usize> = base
            .station_names
            .iter()
            .map(|n| {
                reversed
                    .station_names
                    .iter()
                    .position(|m| m == n)
                    .expect("every station survives the permutation")
            })
            .collect();
        assert_eq!(reversed.points.len(), n_max, "{name}");
        for (a, b) in base.points.iter().zip(&reversed.points) {
            let check = |what: &str, got: f64, want: f64| {
                assert!(
                    holds(1e-13, got, want),
                    "{name} n={} {what}: {got} vs {want}",
                    a.n
                );
            };
            check("X", b.throughput, a.throughput);
            check("R", b.response, a.response);
            check("R + Z", b.cycle_time, a.cycle_time);
            for (sa, &k) in a.stations.iter().zip(&index) {
                let sb = &b.stations[k];
                check("Q_k", sb.queue, sa.queue);
                check("R_k", sb.residence, sa.residence);
                check("U_k", sb.utilization, sa.utilization);
            }
        }
    }
}

#[test]
fn cubic_spline_interpolates_and_clamps() {
    check("cubic_spline_interpolates_and_clamps", &cfg(), |g| {
        let count = g.usize_in(3, 9);
        let mut pts: Vec<(f64, f64)> = (0..count)
            .map(|_| (g.f64_in(0.0, 1000.0), g.f64_in(0.001, 1.0)))
            .collect();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        pts.dedup_by(|a, b| (a.0 - b.0).abs() < 1.0);
        if pts.len() < 3 {
            return; // discard: dedup collapsed too many knots
        }
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        let s = CubicSpline::new(&xs, &ys, BoundaryCondition::NotAKnot).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!((s.eval(*x) - y).abs() < 1e-6 * y.abs().max(1.0));
        }
        // eq. 14 clamping.
        assert_eq!(s.eval(xs[0] - 100.0), ys[0]);
        assert_eq!(s.eval(xs[xs.len() - 1] + 100.0), ys[ys.len() - 1]);
    });
}

#[test]
fn pchip_preserves_monotonicity() {
    check("pchip_preserves_monotonicity", &cfg(), |g| {
        let mut ys = g.vec_f64(4, 11, 0.001, 1.0);
        ys.sort_by(|a, b| b.partial_cmp(a).unwrap()); // decreasing
        let xs: Vec<f64> = (0..ys.len()).map(|i| 1.0 + 10.0 * i as f64).collect();
        let p = PchipInterp::new(&xs, &ys).unwrap();
        let mut prev = f64::INFINITY;
        for i in 0..=300 {
            let x = 1.0 + (xs.len() as f64 - 1.0) * 10.0 * i as f64 / 300.0;
            let v = p.eval(x);
            assert!(v <= prev + 1e-9);
            prev = v;
        }
    });
}

#[test]
fn chebyshev_levels_sorted_in_range() {
    check("chebyshev_levels_sorted_in_range", &cfg(), |g| {
        let k = g.usize_in(1, 11);
        let a = g.f64_in(1.0, 50.0);
        let b = a + g.f64_in(10.0, 500.0);
        let levels = chebyshev_levels(k, a, b);
        assert!(!levels.is_empty());
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
        for &l in &levels {
            assert!(l as f64 >= a.floor());
            assert!(l as f64 <= b.ceil());
        }
    });
}
