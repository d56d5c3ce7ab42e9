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
/// throughput-indexed profiles. Snapshotting clones that state — the
/// interpolants themselves are shared behind `Arc`, so clones are cheap.
#[derive(Debug, Clone)]
pub struct MvasdIter {
    profile: ServiceDemandProfile,
    names: std::sync::Arc<[String]>,
    rec: PopulationRecursion,
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
        let k_count = stations.len();
        let z = self.profile.think_time();

        let abscissa = lookup_abscissa(&self.profile, n, self.x_prev);
        let ss: Vec<f64> = stations.iter().map(|s| s.demand_at(abscissa)).collect();

        let (x, r_total, residence) = self.rec.step(n, &ss);
        self.x_prev = x;

        let station_points = (0..k_count)
            .map(|k| StationPoint {
                queue: self.rec.queue(k),
                residence: residence[k],
                utilization: x * ss[k] / stations[k].servers as f64,
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

    fn boxed_clone(&self) -> Box<dyn SolverIter> {
        Box::new(self.clone())
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
#[derive(Debug, Clone)]
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
        let k_count = stations.len();
        let z = self.profile.think_time();

        let abscissa = lookup_abscissa(&self.profile, n, self.x_prev);
        let mut residence = vec![0.0f64; k_count];
        for (k, s) in stations.iter().enumerate() {
            let d_norm = s.demand_at(abscissa) / s.servers as f64;
            residence[k] = d_norm * (1.0 + self.q[k]);
        }
        let r_total: f64 = residence.iter().sum();
        let x = n as f64 / (r_total + z);
        self.x_prev = x;
        for (qk, rk) in self.q.iter_mut().zip(&residence) {
            *qk = x * rk;
        }

        let station_points = stations
            .iter()
            .enumerate()
            .map(|(k, s)| StationPoint {
                queue: self.q[k],
                residence: residence[k],
                utilization: x * s.demand_at(abscissa) / s.servers as f64,
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

    fn boxed_clone(&self) -> Box<dyn SolverIter> {
        Box::new(self.clone())
    }
}

/// Approximate MVASD: Schweitzer's fixed point with the Seidmann
/// multi-server transform, evaluated with the per-population interpolated
/// demand array.
///
/// Trades the exact evaluation of [`mvasd`] for `O(K)` state and a few
/// fixed-point sweeps per population — no convolution phase, so the cost is
/// linear in `n_max` even deep into saturation, at the textbook ~2–6 %
/// accuracy of Schweitzer approximations (quantified in the
/// `ablation-solvers` experiment for the constant-demand case). Useful for
/// interactive sweeps over very large populations.
pub fn mvasd_schweitzer(
    profile: &ServiceDemandProfile,
    n_max: usize,
) -> Result<MvaSolution, CoreError> {
    MvasdSchweitzerIter::new(profile)
        .drain(n_max)
        .map_err(core_err)
}

/// The approximate MVASD variant as a resumable iterator; the carried
/// state is the Schweitzer queue vector (which warm-starts each
/// population's fixed point) plus the previous throughput.
#[derive(Debug, Clone)]
pub struct MvasdSchweitzerIter {
    profile: ServiceDemandProfile,
    names: std::sync::Arc<[String]>,
    q: Vec<f64>,
    x_prev: f64,
    n: usize,
}

impl MvasdSchweitzerIter {
    /// Starts a fresh recursion at population 0.
    pub fn new(profile: &ServiceDemandProfile) -> Self {
        let k_count = profile.stations().len();
        let names = profile
            .stations()
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
            .into();
        Self {
            profile: profile.clone(),
            names,
            q: vec![1.0 / k_count as f64; k_count],
            x_prev: 0.0,
            n: 0,
        }
    }
}

impl SolverIter for MvasdSchweitzerIter {
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
        let _span = obsv::span("mvasd-schweitzer.step");
        obsv::counter("solver.steps", 1);
        let n = self.n + 1;
        let nf = n as f64;
        let stations = self.profile.stations();
        let k_count = stations.len();
        let z = self.profile.think_time();

        let abscissa = lookup_abscissa(&self.profile, n, self.x_prev);
        // Seidmann split of the interpolated demands: queueing part D/C,
        // delay part D·(C−1)/C.
        let split: Vec<(f64, f64)> = stations
            .iter()
            .map(|s| {
                let d = s.demand_at(abscissa);
                let c = s.servers as f64;
                (d / c, d * (c - 1.0) / c)
            })
            .collect();

        let mut x = 0.0;
        let mut residence = vec![0.0f64; k_count];
        let mut converged = false;
        let mut iterations = 0u64;
        for _ in 0..10_000 {
            iterations += 1;
            let mut r_total = 0.0;
            for (k, &(dq, dd)) in split.iter().enumerate() {
                residence[k] = dq * (1.0 + (nf - 1.0) / nf * self.q[k]) + dd;
                r_total += residence[k];
            }
            x = nf / (r_total + z);
            let mut delta: f64 = 0.0;
            for (qk, rk) in self.q.iter_mut().zip(&residence) {
                let new_q = x * rk;
                delta = delta.max((new_q - *qk).abs());
                *qk = new_q;
            }
            if delta < 1e-10 {
                converged = true;
                break;
            }
        }
        if obsv::enabled() {
            obsv::counter("schweitzer.fixed_point_iterations", iterations);
            obsv::observe("schweitzer.iterations_per_step", iterations);
        }
        if !converged {
            return Err(QueueingError::InvalidParameter {
                what: "Schweitzer iteration did not converge",
            });
        }
        self.x_prev = x;

        let r_total: f64 = residence.iter().sum();
        let station_points = stations
            .iter()
            .enumerate()
            .map(|(k, s)| StationPoint {
                queue: self.q[k],
                residence: residence[k],
                utilization: x * s.demand_at(abscissa) / s.servers as f64,
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

    fn boxed_clone(&self) -> Box<dyn SolverIter> {
        Box::new(self.clone())
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
    fn schweitzer_variant_tracks_exact_mvasd() {
        let samples = DemandSamples {
            station_names: vec!["cpu".into(), "disk".into()],
            server_counts: vec![16, 1],
            think_time: 1.0,
            levels: vec![1.0, 50.0, 200.0],
            demands: vec![vec![0.14, 0.125, 0.12], vec![0.008, 0.0075, 0.007]],
        };
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        let exact = mvasd(&profile, 600).unwrap();
        let approx = mvasd_schweitzer(&profile, 600).unwrap();
        for n in [1usize, 30, 100, 200, 300, 600] {
            let (xe, xa) = (
                exact.at(n).unwrap().throughput,
                approx.at(n).unwrap().throughput,
            );
            // The Seidmann/Schweitzer family's knee-region error on 16-core
            // stations reaches ~20 % (quantified in ablation-solvers); the
            // approximation must stay within that documented band.
            let rel = (xe - xa).abs() / xe;
            assert!(rel < 0.22, "n={n}: exact {xe} vs approx {xa}");
            // Little's law holds for the approximation too.
            let p = approx.at(n).unwrap();
            assert!(close(
                p.n as f64,
                p.throughput * p.cycle_time,
                1e-6 * p.n as f64
            ));
        }
        // Same asymptotic ceiling (interpolated bottleneck), approached
        // slowly by the approximation — 5 % far past the knee.
        let rel =
            (exact.last().throughput - approx.last().throughput).abs() / exact.last().throughput;
        assert!(
            rel < 0.05,
            "ceilings: {} vs {}",
            exact.last().throughput,
            approx.last().throughput
        );
    }

    #[test]
    fn schweitzer_variant_zero_population_is_empty() {
        let samples = constant_samples(&[(1, 0.01)], 1.0);
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::Linear,
            DemandAxis::Concurrency,
        )
        .unwrap();
        assert!(mvasd_schweitzer(&profile, 0).unwrap().points.is_empty());
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
}
