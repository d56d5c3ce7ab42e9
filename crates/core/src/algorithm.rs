//! Algorithm 3 — MVASD: exact multi-server MVA with varying service
//! demands.
//!
//! Identical to the multi-server recursion (paper Algorithm 2 /
//! `mvasd_queueing::mva::multiserver_mva`) except that the demand of every
//! station is re-read from the interpolated profile at every population
//! step: `SSⁿ_k ← h_k(n)` (the underlined changes in the paper's
//! Algorithm 3 listing), so the residence update becomes paper eq. 11:
//!
//! ```text
//! R_k = (SSⁿ_k / C_k) · (1 + Q_k + F_k)
//! ```
//!
//! As in the Algorithm 2 implementation, the eq. 11 correction is
//! evaluated through the exact load-dependent marginal recursion (the two
//! forms are algebraically equal; the exact marginals avoid the numeric
//! instability of the truncated transcription — see
//! `mvasd_queueing::mva::multiserver_mva` docs). The marginal update uses
//! the *current* interpolated demand, mirroring how the paper's pseudocode
//! substitutes `SSⁿ_k` into every `S_k` occurrence.
//!
//! With a [`DemandAxis::Throughput`] profile the lookup abscissa is the
//! previous iteration's throughput `X_{n−1}` instead of `n` (the paper's
//! Fig. 11 variant; "more tractable … when using open systems").
//!
//! [`mvasd_single_server`] is the paper's "MVASD: Single-Server" baseline:
//! the same demand arrays but multi-server queues normalized to a single
//! server (`D/C`), run through the Algorithm-1 recursion — shown in the
//! paper (Fig. 8, Table 5) to underperform the true multi-server treatment.

use mvasd_obsv as obsv;
use mvasd_queueing::mva::{MvaPoint, MvaSolution, PopulationRecursion, SolverIter, StationPoint};
use mvasd_queueing::QueueingError;

use crate::profile::{DemandAxis, ServiceDemandProfile};
use crate::CoreError;

/// Maps an iterator-layer error back to the core vocabulary: the MVASD
/// recursions only ever fail with parameter-domain errors, which predate
/// the streaming refactor as [`CoreError::InvalidParameter`].
fn core_err(e: QueueingError) -> CoreError {
    match e {
        QueueingError::InvalidParameter { what } => CoreError::InvalidParameter { what },
        other => CoreError::Queueing(other),
    }
}

/// Fails a step whose throughput or response time left the `f64` range.
/// Valid samples can get there: with demands and Z near the subnormal
/// range `X = n/(R + Z)` overflows (and then turns NaN), and with demands
/// near `f64::MAX` so does `R`. Only non-finite values are turned away,
/// so every finite point is returned as computed.
fn finite_step(x: f64, r_total: f64) -> Result<(), QueueingError> {
    if x.is_finite() && r_total.is_finite() {
        Ok(())
    } else {
        Err(QueueingError::InvalidParameter {
            what: "demands or think time out of f64 range: X or R is not finite",
        })
    }
}

/// Resolves the profile-lookup abscissa for population `n` (the underlined
/// step of Algorithm 3). Throughput-indexed profiles bootstrap from the
/// lowest sampled abscissa on the first iteration and feed back `X_{n−1}`
/// afterwards.
fn lookup_abscissa(profile: &ServiceDemandProfile, n: usize, x_prev: f64) -> f64 {
    match profile.axis() {
        DemandAxis::Concurrency => n as f64,
        DemandAxis::Throughput => {
            if n == 1 {
                profile.sampled_levels().first().copied().unwrap_or(0.0)
            } else {
                x_prev
            }
        }
    }
}

/// The MVASD recursion (paper Algorithm 3) as a resumable iterator.
///
/// The carried state is the shared multi-server recursion engine
/// ([`PopulationRecursion`]: queues + marginal probabilities, double-double
/// precision while carried) plus the previous throughput that feeds
/// throughput-indexed profiles. The interpolants are shared with the
/// profile behind `Arc`.
#[derive(Debug)]
pub struct MvasdIter {
    profile: ServiceDemandProfile,
    names: std::sync::Arc<[String]>,
    rec: PopulationRecursion,
    /// The step's demand array `SSⁿ`, refilled in place at every step.
    ss: Vec<f64>,
    x_prev: f64,
    n: usize,
}

impl MvasdIter {
    /// Starts a fresh recursion at population 0.
    pub fn new(profile: &ServiceDemandProfile) -> Self {
        let stations = profile.stations();
        let names = stations
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
            .into();
        // The exact multi-server recursion state (double-double internals)
        // is shared with Algorithm 2 — MVASD *is* that recursion with a
        // fresh demand array per population step.
        let rec = PopulationRecursion::new(
            stations.iter().map(|s| s.servers).collect(),
            profile.think_time(),
        );
        Self {
            profile: profile.clone(),
            names,
            rec,
            ss: vec![0.0; stations.len()],
            x_prev: 0.0,
            n: 0,
        }
    }
}

impl SolverIter for MvasdIter {
    fn station_names(&self) -> &[String] {
        &self.names
    }

    fn shared_names(&self) -> std::sync::Arc<[String]> {
        self.names.clone()
    }

    fn population(&self) -> usize {
        self.n
    }

    fn step(&mut self) -> Result<MvaPoint, QueueingError> {
        let _span = obsv::span("mvasd.step");
        obsv::counter("solver.steps", 1);
        let n = self.n + 1;
        let stations = self.profile.stations();
        let z = self.profile.think_time();

        let abscissa = lookup_abscissa(&self.profile, n, self.x_prev);
        for (d, s) in self.ss.iter_mut().zip(stations) {
            *d = s.demand_at(abscissa);
        }

        let (x, r_total) = self.rec.step(n, &self.ss);
        finite_step(x, r_total)?;
        self.x_prev = x;

        let residence = self.rec.residences();
        let station_points = stations
            .iter()
            .enumerate()
            .map(|(k, s)| StationPoint {
                queue: self.rec.queue(k),
                residence: residence[k],
                utilization: x * self.ss[k] / s.servers as f64,
            })
            .collect();

        self.n = n;
        Ok(MvaPoint {
            n,
            throughput: x,
            response: r_total,
            cycle_time: r_total + z,
            stations: station_points,
        })
    }
}

/// Runs MVASD (paper Algorithm 3) up to population `n_max` (a drain of
/// [`MvasdIter`]). `n_max = 0` yields an empty solution.
pub fn mvasd(profile: &ServiceDemandProfile, n_max: usize) -> Result<MvaSolution, CoreError> {
    MvasdIter::new(profile).drain(n_max).map_err(core_err)
}

/// The "MVASD: Single-Server" baseline of paper Fig. 8 / Table 5: demand
/// arrays are kept, but each multi-server queue is normalized to a single
/// server by dividing its demand by the core count, and the plain
/// Algorithm-1 recursion (`R_k = SSⁿ_k/C_k · (1 + Q_k)`) is used.
pub fn mvasd_single_server(
    profile: &ServiceDemandProfile,
    n_max: usize,
) -> Result<MvaSolution, CoreError> {
    MvasdSingleServerIter::new(profile)
        .drain(n_max)
        .map_err(core_err)
}

/// The single-server MVASD baseline as a resumable iterator; the carried
/// state is the Algorithm-1 queue vector plus the previous throughput.
#[derive(Debug)]
pub struct MvasdSingleServerIter {
    profile: ServiceDemandProfile,
    names: std::sync::Arc<[String]>,
    q: Vec<f64>,
    x_prev: f64,
    n: usize,
}

impl MvasdSingleServerIter {
    /// Starts a fresh recursion at population 0.
    pub fn new(profile: &ServiceDemandProfile) -> Self {
        let names = profile
            .stations()
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
            .into();
        let q = vec![0.0f64; profile.stations().len()];
        Self {
            profile: profile.clone(),
            names,
            q,
            x_prev: 0.0,
            n: 0,
        }
    }
}

impl SolverIter for MvasdSingleServerIter {
    fn station_names(&self) -> &[String] {
        &self.names
    }

    fn shared_names(&self) -> std::sync::Arc<[String]> {
        self.names.clone()
    }

    fn population(&self) -> usize {
        self.n
    }

    fn step(&mut self) -> Result<MvaPoint, QueueingError> {
        let _span = obsv::span("mvasd-single-server.step");
        obsv::counter("solver.steps", 1);
        let n = self.n + 1;
        let stations = self.profile.stations();
        let z = self.profile.think_time();

        let abscissa = lookup_abscissa(&self.profile, n, self.x_prev);
        // Each spline is read once. The residences go straight into the
        // output, whose utilization slot holds the demand until X is known.
        let mut station_points: Vec<StationPoint> = stations
            .iter()
            .zip(&self.q)
            .map(|(s, &q)| {
                let d = s.demand_at(abscissa);
                StationPoint {
                    queue: q,
                    residence: d / s.servers as f64 * (1.0 + q),
                    utilization: d,
                }
            })
            .collect();
        let r_total: f64 = station_points.iter().map(|p| p.residence).sum();
        let x = n as f64 / (r_total + z);
        finite_step(x, r_total)?;
        self.x_prev = x;
        for ((p, qk), s) in station_points.iter_mut().zip(&mut self.q).zip(stations) {
            *qk = x * p.residence;
            p.queue = *qk;
            p.utilization = x * p.utilization / s.servers as f64;
        }

        self.n = n;
        Ok(MvaPoint {
            n,
            throughput: x,
            response: r_total,
            cycle_time: r_total + z,
            stations: station_points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{DemandSamples, InterpolationKind};
    use mvasd_queueing::mva::multiserver_mva;
    use mvasd_queueing::network::{ClosedNetwork, Station};

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    fn constant_samples(demands: &[(usize, f64)], z: f64) -> DemandSamples {
        DemandSamples {
            station_names: (0..demands.len()).map(|i| format!("s{i}")).collect(),
            server_counts: demands.iter().map(|(c, _)| *c).collect(),
            think_time: z,
            levels: vec![1.0, 100.0],
            demands: demands.iter().map(|(_, d)| vec![*d, *d]).collect(),
        }
    }

    #[test]
    fn constant_profile_reduces_to_algorithm_2() {
        // MVASD with a flat demand profile must equal exact multi-server
        // MVA, also with hundreds or thousands of lightly loaded servers,
        // where the carried recursion loses p(0) long before 50 % per-server
        // utilization.
        for (c, d, disk, n_max) in [
            (16usize, 0.02, 0.004, 300usize),
            (16, 0.5, 0.001, 600),
            (32, 0.5, 0.001, 600),
            (64, 0.5, 0.001, 600),
            (256, 0.5, 0.001, 600),
            (1024, 0.5, 0.001, 600),
            (4096, 0.5, 0.001, 600),
        ] {
            let samples = constant_samples(&[(c, d), (1, disk)], 1.0);
            let profile = ServiceDemandProfile::from_samples(
                &samples,
                InterpolationKind::CubicNotAKnot,
                DemandAxis::Concurrency,
            )
            .unwrap();
            let sd = mvasd(&profile, n_max).unwrap();

            let net = ClosedNetwork::new(
                vec![
                    Station::queueing("s0", c, 1.0, d),
                    Station::queueing("s1", 1, 1.0, disk),
                ],
                1.0,
            )
            .unwrap();
            let a2 = multiserver_mva(&net, n_max).unwrap();
            for (ps, pa) in sd.points.iter().zip(a2.points.iter()) {
                assert!(
                    close(ps.throughput, pa.throughput, 1e-9),
                    "C={c} n={}: {} vs {}",
                    ps.n,
                    ps.throughput,
                    pa.throughput
                );
                assert!(close(ps.response, pa.response, 1e-9), "C={c} n={}", ps.n);
            }
        }
    }

    #[test]
    fn station_with_at_least_n_servers_equals_a_delay_station_past_the_switch() {
        // With C ≥ N no customer ever queues, so a C-server station is a
        // delay station with the same demand. Its 0.8 s demand keeps more
        // than 8 servers busy from n ≈ 14 on, so MVASD switches to the
        // quasi-static workspace, where the wide station (after the
        // 16-core CPU) reads its queue off a tangent column. C = 2^40 is
        // far more servers than the carried marginals could hold.
        let delay_net = ClosedNetwork::new(
            vec![
                Station::queueing("s0", 16, 1.0, 0.05),
                Station::delay("s1", 1.0, 0.8),
                Station::queueing("s2", 1, 1.0, 0.004),
            ],
            0.5,
        )
        .unwrap();
        for c in [64usize, 300, 1 << 40] {
            let n_max = c.min(300);
            let samples = constant_samples(&[(16, 0.05), (c, 0.8), (1, 0.004)], 0.5);
            let profile = ServiceDemandProfile::from_samples(
                &samples,
                InterpolationKind::CubicNotAKnot,
                DemandAxis::Concurrency,
            )
            .unwrap();
            let mut it = MvasdIter::new(&profile);
            let points: Vec<MvaPoint> = (0..n_max).map(|_| it.step().unwrap()).collect();
            assert!(it.rec.is_quasi_static(), "C={c}: never switched");
            let exact = multiserver_mva(&delay_net, n_max).unwrap();
            for (ps, pd) in points.iter().zip(exact.points.iter()) {
                assert!(
                    close(ps.throughput, pd.throughput, 1e-9 * pd.throughput),
                    "C={c} n={}: {} vs {}",
                    ps.n,
                    ps.throughput,
                    pd.throughput
                );
                for (k, (ss, sd)) in ps.stations.iter().zip(&pd.stations).enumerate() {
                    assert!(
                        close(ss.queue, sd.queue, 1e-9 * sd.queue.max(1.0)),
                        "C={c} n={} q[{k}]: {} vs {}",
                        ps.n,
                        ss.queue,
                        sd.queue
                    );
                }
            }
        }
    }

    #[test]
    fn littles_law_holds_with_varying_demands() {
        let samples = DemandSamples {
            station_names: vec!["cpu".into(), "disk".into()],
            server_counts: vec![8, 1],
            think_time: 1.0,
            levels: vec![1.0, 50.0, 200.0],
            demands: vec![vec![0.06, 0.05, 0.045], vec![0.012, 0.011, 0.010]],
        };
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let sol = mvasd(&profile, 250).unwrap();
        for p in &sol.points {
            assert!(close(p.n as f64, p.throughput * p.cycle_time, 1e-9));
        }
    }

    #[test]
    fn varying_demand_raises_saturation_throughput() {
        // Demand falls from 12 ms to 10 ms: the MVASD ceiling follows the
        // *high-concurrency* demand (100/s), while MVA·1 (static demands
        // sampled at n = 1) saturates at 1/0.012 ≈ 83/s.
        let samples = DemandSamples {
            station_names: vec!["disk".into()],
            server_counts: vec![1],
            think_time: 1.0,
            levels: vec![1.0, 100.0, 400.0],
            demands: vec![vec![0.012, 0.0104, 0.010]],
        };
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let sd = mvasd(&profile, 600).unwrap();
        assert!(sd.last().throughput > 97.0, "{}", sd.last().throughput);
        assert!(sd.last().throughput <= 100.0 + 1e-6);

        let mva1 = ClosedNetwork::new(vec![Station::queueing("disk", 1, 1.0, 0.012)], 1.0).unwrap();
        let x1 = multiserver_mva(&mva1, 600).unwrap().last().throughput;
        assert!(x1 < 84.0);
        assert!(sd.last().throughput > x1 * 1.15);
    }

    #[test]
    fn single_server_variant_distorts_presaturation_response() {
        // The paper's Fig. 8 observation: normalizing a multi-server CPU to
        // a single server mispredicts even though the asymptotic ceiling
        // matches. The direction: D/C pretends a 160 ms unit of work takes
        // 10 ms, so pre-saturation response is wildly optimistic (a real
        // 16-core station still serves each customer for the full D).
        let samples = constant_samples(&[(16, 0.16)], 1.0);
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::Linear,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let multi = mvasd(&profile, 400).unwrap();
        let single = mvasd_single_server(&profile, 400).unwrap();
        let n_mid = 60;
        let r_multi = multi.at(n_mid).unwrap().response;
        let r_single = single.at(n_mid).unwrap().response;
        assert!(
            r_single < r_multi * 0.5,
            "single {r_single} should be far below multi {r_multi}"
        );
        assert!(close(r_multi, 0.16, 0.02));
        // Same asymptotic ceiling 16/0.16 = 100.
        assert!(close(
            single.last().throughput,
            multi.last().throughput,
            2.0
        ));
    }

    #[test]
    fn throughput_axis_profile_solves() {
        // Demands indexed by throughput; verifies the bootstrap & feedback
        // path. Falling demand vs X.
        let samples = DemandSamples {
            station_names: vec!["db".into()],
            server_counts: vec![1],
            think_time: 1.0,
            levels: vec![1.0, 40.0, 80.0], // throughputs
            demands: vec![vec![0.012, 0.011, 0.010]],
        };
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Throughput,
        )
        .unwrap();
        let sol = mvasd(&profile, 400).unwrap();
        // Ceiling tracks the demand at high throughput: 1/0.010.
        assert!(sol.last().throughput > 95.0);
        assert!(sol.last().throughput <= 100.0 + 1e-6);
        // Little's law still holds.
        for p in &sol.points {
            assert!(close(p.n as f64, p.throughput * p.cycle_time, 1e-9));
        }
    }

    #[test]
    fn contention_rise_produces_throughput_dip() {
        // Demand rising past the knee (JPetStore-style) must yield a
        // non-monotone throughput curve — the feature static MVA cannot
        // reproduce but MVASD "picks up" (paper Fig. 7).
        let samples = DemandSamples {
            station_names: vec!["dbcpu".into()],
            server_counts: vec![16],
            think_time: 1.0,
            levels: vec![1.0, 70.0, 140.0, 168.0, 210.0],
            demands: vec![vec![0.145, 0.120, 0.119, 0.126, 0.128]],
        };
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let sol = mvasd(&profile, 210).unwrap();
        let xs = sol.throughputs();
        let peak = xs.iter().cloned().fold(0.0f64, f64::max);
        let x_end = *xs.last().unwrap();
        assert!(
            x_end < peak * 0.997,
            "dip expected: peak {peak}, end {x_end}"
        );
        // And the peak is reached strictly before the end of the range.
        let peak_n = xs.iter().position(|&x| x == peak).unwrap() + 1;
        assert!(peak_n < 200, "peak at n={peak_n}");
    }

    #[test]
    fn out_of_range_demands_give_a_typed_error_not_a_nan() {
        use crate::solver::{MvasdSingleServerSolver, MvasdSolver};
        use mvasd_queueing::mva::ClosedSolver;

        let finite = |p: &MvaPoint| {
            let stations = p.stations.iter();
            [p.throughput, p.response, p.cycle_time]
                .into_iter()
                .chain(stations.flat_map(|s| [s.queue, s.residence, s.utilization]))
                .all(f64::is_finite)
        };
        // Valid samples whose X = n/(R + Z) leaves the f64 range by N = 2:
        // both solvers read inf or NaN there without the check.
        for (d, c, z) in [(1e-310, 1, 0.0), (1e-308, 4, 0.0), (5e-324, 1, 5e-324)] {
            let profile = ServiceDemandProfile::from_samples(
                &constant_samples(&[(c, d)], z),
                InterpolationKind::CubicNotAKnot,
                DemandAxis::Concurrency,
            )
            .unwrap();
            let case = format!("D={d:e} C={c} Z={z:e}");
            for result in [mvasd(&profile, 2), mvasd_single_server(&profile, 2)] {
                assert!(
                    matches!(result, Err(CoreError::InvalidParameter { .. })),
                    "{case}: {result:?}"
                );
            }
            let solvers: [Box<dyn ClosedSolver>; 2] = [
                Box::new(MvasdSolver::new(profile.clone())),
                Box::new(MvasdSingleServerSolver::new(profile)),
            ];
            for solver in &solvers {
                // Every point before the error is finite.
                let mut it = solver.start().unwrap();
                let err = loop {
                    match it.step() {
                        Ok(p) => assert!(finite(&p), "{}, {case}: n={}", solver.name(), p.n),
                        Err(e) => break e,
                    }
                    assert!(it.population() < 2, "{}, {case}: no error", solver.name());
                };
                assert!(
                    matches!(err, QueueingError::InvalidParameter { .. }),
                    "{}, {case}: {err:?}",
                    solver.name()
                );
            }
        }
    }

    #[test]
    fn zero_population_yields_empty_solution() {
        let samples = constant_samples(&[(1, 0.01)], 1.0);
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::Linear,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let sol = mvasd(&profile, 0).unwrap();
        assert!(sol.points.is_empty());
        assert_eq!(&sol.station_names[..], &["s0".to_string()][..]);
        assert!(mvasd_single_server(&profile, 0).unwrap().points.is_empty());
    }

    #[test]
    fn utilization_tracks_interpolated_demand() {
        let samples = DemandSamples {
            station_names: vec!["disk".into()],
            server_counts: vec![1],
            think_time: 1.0,
            levels: vec![1.0, 200.0],
            demands: vec![vec![0.012, 0.010]],
        };
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::Linear,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let sol = mvasd(&profile, 200).unwrap();
        for p in &sol.points {
            let d_n = profile.demands_at(p.n as f64)[0];
            assert!(close(p.stations[0].utilization, p.throughput * d_n, 1e-9));
            assert!(p.stations[0].utilization <= 1.0 + 1e-9);
        }
    }

    /// VINS-shaped samples: three tiers of a 16-core CPU, a disk and two
    /// network links, at the paper's VINS levels, with demands that fall
    /// with load over the first few hundred users (paper Fig. 5).
    fn vins_shaped_samples() -> DemandSamples {
        let base = [
            0.0040, 0.0085, 0.0012, 0.0018, 0.0120, 0.0022, 0.0015, 0.0015, 0.0550, 0.0098, 0.0014,
            0.0012,
        ];
        let levels = vec![1.0, 10.0, 52.0, 103.0, 203.0, 406.0, 812.0, 1218.0, 1500.0];
        DemandSamples {
            station_names: (0..base.len()).map(|k| format!("s{k}")).collect(),
            server_counts: (0..base.len())
                .map(|k| if k % 4 == 0 { 16 } else { 1 })
                .collect(),
            think_time: 1.0,
            demands: base
                .iter()
                .map(|&b| {
                    levels
                        .iter()
                        .map(|&l| b * (1.0 + 20.0 / (l + 99.0)))
                        .collect()
                })
                .collect(),
            levels,
        }
    }

    /// MVASD to `n_max` on the carried recursion alone.
    fn carried_points(samples: &DemandSamples, n_max: usize) -> Vec<MvaPoint> {
        let profile = ServiceDemandProfile::from_samples(
            samples,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let mut it = MvasdIter::new(&profile);
        let points = (0..n_max).map(|_| it.step().unwrap()).collect();
        assert!(
            !it.rec.is_quasi_static(),
            "must stay on the carried recursion"
        );
        points
    }

    #[test]
    fn scaling_every_demand_and_z_scales_time_through_carried_mvasd() {
        // Time units are arbitrary: with every demand sample and Z scaled
        // by s, R scales by s, X by 1/s, and every queue and utilization
        // stays put.
        let s = 1.7;
        let base = vins_shaped_samples();
        let mut scaled = base.clone();
        for d in scaled.demands.iter_mut().flatten() {
            *d *= s;
        }
        scaled.think_time *= s;
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(f64::MIN_POSITIVE);
        for (a, b) in carried_points(&base, 1500)
            .iter()
            .zip(&carried_points(&scaled, 1500))
        {
            let n = a.n;
            assert!(rel(b.response, s * a.response) <= 1e-12, "n={n}: R");
            assert!(rel(b.cycle_time, s * a.cycle_time) <= 1e-12, "n={n}: R + Z");
            assert!(rel(b.throughput, a.throughput / s) <= 1e-12, "n={n}: X");
            for (k, (sa, sb)) in a.stations.iter().zip(&b.stations).enumerate() {
                assert!(rel(sb.queue, sa.queue) <= 1e-12, "n={n} k={k}: Q");
                assert!(
                    rel(sb.residence, s * sa.residence) <= 1e-12,
                    "n={n} k={k}: R_k"
                );
                assert!(
                    rel(sb.utilization, sa.utilization) <= 1e-12,
                    "n={n} k={k}: U"
                );
            }
        }
    }

    #[test]
    fn zero_demand_station_is_transparent_to_carried_mvasd() {
        // A 16-core station with zero demand adds exact zeros to the
        // double-double sums, so it changes no other output bit, wherever
        // it sits.
        let bits = |p: &MvaPoint, skip: Option<usize>| {
            let mut v = vec![p.throughput.to_bits(), p.response.to_bits()];
            for (k, s) in p.stations.iter().enumerate() {
                if Some(k) != skip {
                    v.extend([s.queue, s.residence, s.utilization].map(f64::to_bits));
                }
            }
            v
        };
        let base = vins_shaped_samples();
        let reference = carried_points(&base, 1500);
        for pos in 0..=base.station_names.len() {
            let mut with_zero = base.clone();
            with_zero.station_names.insert(pos, "idle".into());
            with_zero.server_counts.insert(pos, 16);
            with_zero.demands.insert(pos, vec![0.0; base.levels.len()]);
            for (a, b) in reference.iter().zip(&carried_points(&with_zero, 1500)) {
                assert_eq!(bits(a, None), bits(b, Some(pos)), "pos={pos} n={}", a.n);
                let idle = &b.stations[pos];
                assert_eq!(
                    (idle.queue, idle.residence, idle.utilization),
                    (0.0, 0.0, 0.0),
                    "pos={pos} n={}",
                    a.n
                );
            }
        }
    }
}
