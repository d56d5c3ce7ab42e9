//! Normalization-constant (convolution) evaluation of closed networks —
//! Buzen's algorithm in log-domain.
//!
//! The exact MVA population recursion for multi-server / load-dependent
//! stations closes the marginal distribution with `p(0) = 1 − Σ…`, which
//! cancels catastrophically near saturation; the recursion then amplifies
//! the round-off **exponentially** (a 16-core station — the paper's
//! hardware — produces percent-level errors and Bottleneck-Law violations
//! even in double-double arithmetic). The normalization-constant route has
//! no subtraction anywhere: every quantity is a ratio of sums of positive
//! terms, evaluated here with log-sum-exp so magnitudes like `Zⁿ/n!` never
//! overflow. This is the numerically definitive evaluation used by
//! [`super::multiserver_mva`] (paper Algorithm 2) and
//! [`super::load_dependent_mva`], and by the quasi-static phase of the
//! MVASD recursion.
//!
//! For a single-class network with stations `k` (demand `D_k`, rate
//! multiplier `α_k(j)`) and terminal think time `Z`:
//!
//! ```text
//! f_k(j) = D_k^j / ∏_{i=1}^{j} α_k(i)        (station factor)
//! f_Z(j) = Z^j / j!                          (think stage, infinite-server)
//! G      = f_1 ⊛ f_2 ⊛ … ⊛ f_K ⊛ f_Z         (convolution)
//! X(n)   = G(n−1) / G(n)
//! p_k(j|n) = f_k(j) · G₍₋ₖ₎(n−j) / G(n)
//! Q_k(n)  = Σ_j j · p_k(j|n)
//! ```
//!
//! `G₍₋ₖ₎` (the network without station `k`) is produced from prefix/suffix
//! partial convolutions, only for the stations whose queue or marginals
//! need it.
//!
//! Every production path — the streaming [`ConvIter`] behind
//! `MultiserverMvaSolver` (and so the batch `multiserver_mva` and
//! `load_dependent_mva`, which drain it), the marginal trace of
//! `multiserver_mva_with_marginals`, the hierarchy levels and the
//! per-population `solve_at` of the quasi-static MVASD phase — runs on the
//! incremental [`ConvWorkspace`] in [`workspace`] over the one station
//! type, [`LdStation`]: carried log-domain columns extended one cell per
//! population, flat pre-allocated buffers, O(1) telescoped updates for
//! single-server stages and O(C) head-plus-geometric-tail cells for
//! `C`-server and custom-rate stages. Per population that is `O(K·C)` work
//! plus one O(n) complement cell per heavy station but the last. The
//! pre-workspace from-scratch evaluation survives in [`scratch`] as the
//! independent reference (propcheck oracle and benchmark baseline).

pub mod kernel;
pub(crate) mod scratch;
pub(crate) mod workspace;

pub use scratch::reference_solve_at;
pub use workspace::ConvWorkspace;

use super::loaddep::LdStation;
use super::stepping::{MvaPoint, SolverIter};
use super::{PopulationPoint, StationPoint};
use crate::QueueingError;
use mvasd_obsv as obsv;
use std::sync::Arc;

/// Single-population solve result: `(X, per-station queues, per-station
/// marginals p(0..limit−1 | n))`.
pub type PointSolution = (f64, Vec<f64>, Vec<Vec<f64>>);

/// [`SolverIter`] over the incremental convolution workspace — the
/// streaming backend of `MultiserverMvaSolver`.
#[derive(Debug, Clone)]
pub(crate) struct ConvIter {
    ws: ConvWorkspace,
    names: Arc<[String]>,
}

impl ConvIter {
    /// Streams validated stations; tracks no marginals.
    pub(crate) fn new(stations: Vec<LdStation>, think_time: f64) -> Result<Self, QueueingError> {
        let names: Arc<[String]> = stations
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
            .into();
        Ok(Self {
            ws: ConvWorkspace::from_validated(stations, think_time, Vec::new())?,
            names,
        })
    }
}

impl SolverIter for ConvIter {
    fn station_names(&self) -> &[String] {
        &self.names
    }

    fn shared_names(&self) -> Arc<[String]> {
        self.names.clone()
    }

    fn population(&self) -> usize {
        self.ws.population()
    }

    fn step(&mut self) -> Result<MvaPoint, QueueingError> {
        let _span = obsv::span("convolution.step");
        obsv::counter("solver.steps", 1);
        self.ws.advance()?;
        Ok(point_at(&self.ws))
    }

    fn boxed_clone(&self) -> Box<dyn SolverIter> {
        Box::new(self.clone())
    }
}

/// Shapes the workspace's last population into a [`PopulationPoint`].
/// Shared by the streaming [`ConvIter`] and the marginal-tracing batch
/// solve so both produce identical floats.
pub(crate) fn point_at(ws: &ConvWorkspace) -> PopulationPoint {
    let x = ws.throughput();
    let queues = ws.queues();
    let station_points = ws
        .stations()
        .iter()
        .zip(queues)
        .map(|(s, &queue)| {
            let utilization = match s.rate.max_rate() {
                Some(mr) => x * s.demand / mr,
                None => x * s.demand,
            };
            StationPoint {
                queue,
                residence: if x > 0.0 { queue / x } else { 0.0 },
                utilization,
            }
        })
        .collect();
    let response: f64 = queues.iter().sum::<f64>() / if x > 0.0 { x } else { 1.0 };
    PopulationPoint {
        n: ws.population(),
        throughput: x,
        response,
        cycle_time: response + ws.think_time(),
        stations: station_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::RateFunction;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    fn st(name: &str, demand: f64, rate: RateFunction) -> LdStation {
        LdStation::new(name, demand, rate)
    }

    /// `(X, queues, marginals)` at every population `1..=n_max` of one
    /// workspace stepped up from population 0.
    fn series(
        stations: &[LdStation],
        z: f64,
        n_max: usize,
        limits: &[usize],
    ) -> Vec<PointSolution> {
        let mut ws = ConvWorkspace::new(stations, z, limits).unwrap();
        (0..n_max)
            .map(|_| {
                ws.advance().unwrap();
                let marginals = (0..stations.len())
                    .map(|k| ws.marginals_of(k).to_vec())
                    .collect();
                (ws.throughput(), ws.queues().to_vec(), marginals)
            })
            .collect()
    }

    #[test]
    fn machine_repair_exact_all_populations() {
        // Single c-server station + think time: closed form available. The
        // 16-core station runs its carried geometric tail for ~1400
        // populations of the paper's deepest sweep.
        for (c, d, z, n_max) in [
            (1usize, 0.25f64, 1.0f64, 1500usize),
            (4, 0.25, 1.0, 400),
            (16, 0.16, 1.0, 1500),
        ] {
            let stations = vec![st("s", d, RateFunction::MultiServer(c))];
            let sol = series(&stations, z, n_max, &[c]);
            for n in 1..=n_max {
                let (xe, qe) = mvasd_numerics::erlang::machine_repair(n, c, d, z).unwrap();
                let x = sol[n - 1].0;
                assert!(close(x, xe, 1e-9 * xe.max(1.0)), "c={c} n={n}: {x} vs {xe}");
                assert!(
                    close(sol[n - 1].1[0], qe, 1e-7 * qe.max(1.0)),
                    "queue c={c} n={n}"
                );
            }
        }
    }

    #[test]
    fn population_conservation() {
        let stations = vec![
            st("cpu", 0.02, RateFunction::MultiServer(16)),
            st("disk", 0.002, RateFunction::SingleServer),
            st("lan", 0.001, RateFunction::Delay),
        ];
        let sol = series(&stations, 1.0, 300, &[0, 0, 0]);
        for n in 1..=300usize {
            let at_stations: f64 = sol[n - 1].1.iter().sum();
            let thinking = sol[n - 1].0 * 1.0;
            assert!(
                close(at_stations + thinking, n as f64, 1e-6 * n as f64),
                "n={n}: {} + {}",
                at_stations,
                thinking
            );
        }
    }

    #[test]
    fn bottleneck_law_never_violated() {
        let stations = vec![
            st("cpu", 0.16, RateFunction::MultiServer(16)),
            st("disk", 0.004, RateFunction::SingleServer),
        ];
        let sol = series(&stations, 1.0, 1500, &[0, 0]);
        let cap = (16.0 / 0.16f64).min(1.0 / 0.004);
        let mut prev = 0.0;
        for (i, &(x, _, _)) in sol.iter().enumerate() {
            assert!(x <= cap + 1e-9, "n={}: {x} > {cap}", i + 1);
            assert!(x >= prev - 1e-9, "monotonicity at n={}", i + 1);
            prev = x;
        }
        assert!(sol[1499].0 > 0.999 * cap);
    }

    #[test]
    fn marginals_are_probabilities_and_match_busy_identity() {
        let c = 8;
        let stations = vec![st("cpu", 0.08, RateFunction::MultiServer(c))];
        let sol = series(&stations, 0.5, 120, &[c]);
        for n in 1..=120usize {
            let snap = &sol[n - 1].2[0];
            let mass: f64 = snap.iter().sum();
            assert!((0.0..=1.0 + 1e-9).contains(&mass));
            // E[min(Q,C)] = X·D (busy-server identity), where
            // E[min(Q,C)] = Σ_{j<C} j·p(j) + C·(1 − Σ_{j<C} p(j)).
            let e_busy: f64 = snap
                .iter()
                .enumerate()
                .map(|(j, p)| j as f64 * p)
                .sum::<f64>()
                + c as f64 * (1.0 - mass);
            let u = sol[n - 1].0 * 0.08;
            assert!(close(e_busy, u, 1e-8 * u.max(1e-12)), "n={n}");
        }
    }

    #[test]
    fn solve_at_matches_full_series() {
        let stations = vec![
            st("cpu", 0.03, RateFunction::MultiServer(4)),
            st("disk", 0.01, RateFunction::SingleServer),
        ];
        let demands = [0.03, 0.01];
        let full = series(&stations, 1.0, 150, &[4, 1]);
        let mut ws = ConvWorkspace::new(&stations, 1.0, &[4, 1]).unwrap();
        for n in [1usize, 17, 80, 150] {
            ws.solve_at(n, &demands).unwrap();
            let x = ws.throughput();
            let (xf, qf, mf) = &full[n - 1];
            assert!(close(x, *xf, 1e-12 * x));
            assert!(close(ws.queues()[0], qf[0], 1e-9));
            assert!(close(ws.queues()[1], qf[1], 1e-9));
            for (j, mv) in ws.marginals_of(0).iter().enumerate().take(4) {
                assert!(close(*mv, mf[0][j], 1e-10));
            }
        }
    }

    #[test]
    fn zero_think_time_supported() {
        let stations = vec![st("s", 0.1, RateFunction::SingleServer)];
        let sol = series(&stations, 0.0, 50, &[0]);
        // Batch network: X = 1/D for every n >= 1 (single station).
        for &(x, _, _) in &sol {
            assert!(close(x, 10.0, 1e-9));
        }
    }

    #[test]
    fn zero_demand_station_is_transparent() {
        let with = vec![
            st("s", 0.1, RateFunction::SingleServer),
            st("ghost", 0.0, RateFunction::SingleServer),
        ];
        let without = vec![st("s", 0.1, RateFunction::SingleServer)];
        let a = series(&with, 1.0, 60, &[0, 0]);
        let b = series(&without, 1.0, 60, &[0]);
        for n in 0..60 {
            assert!(close(a[n].0, b[n].0, 1e-12));
            assert!(close(a[n].1[1], 0.0, 1e-12));
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(ConvWorkspace::new(&[], 1.0, &[]).is_err());
        let s = vec![st("s", 0.1, RateFunction::SingleServer)];
        // Zero population is meaningless for a single-point solve.
        let mut ws = ConvWorkspace::new(&s, 1.0, &[0]).unwrap();
        assert!(ws.solve_at(0, &[0.1]).is_err());
    }

    #[test]
    fn streaming_iterator_matches_the_workspace_and_resumes_bit_for_bit() {
        let stations = vec![
            st("cpu", 0.03, RateFunction::MultiServer(4)),
            st("disk", 0.01, RateFunction::SingleServer),
            st("lan", 0.005, RateFunction::Delay),
        ];
        let mut ws = ConvWorkspace::new(&stations, 0.7, &[]).unwrap();
        let mut it = ConvIter::new(stations, 0.7).unwrap();
        let mut streamed = Vec::new();
        for _ in 0..120 {
            ws.advance().unwrap();
            let p = it.step().unwrap();
            assert_eq!(p, point_at(&ws));
            streamed.push(p);
        }

        // Snapshot mid-sweep, resume, and land on the same floats.
        let mut it2 = ConvIter::new(ws.stations().to_vec(), 0.7).unwrap();
        for _ in 0..60 {
            it2.step().unwrap();
        }
        let snap = it2.snapshot();
        let tail_direct = it2.drain(120).unwrap();
        let tail_resumed = snap.resume().drain(120).unwrap();
        assert_eq!(tail_direct, tail_resumed);
        assert_eq!(&streamed[60..], tail_direct.points.as_slice());
    }

    #[test]
    fn custom_rate_function_supported() {
        // A "2.5-way effective" station: rates 1, 1.8, 2.5 then flat.
        let stations = vec![st("s", 0.1, RateFunction::Custom(vec![1.0, 1.8, 2.5]))];
        let sol = series(&stations, 0.2, 200, &[0]);
        let cap = 2.5 / 0.1;
        let mut prev = 0.0;
        for &(x, _, _) in &sol {
            assert!(x <= cap + 1e-9);
            assert!(x >= prev - 1e-9);
            prev = x;
        }
        assert!(sol[199].0 > 0.99 * cap);
    }

    #[test]
    fn delay_dominated_network() {
        // Queueing station negligible next to a big delay stage: X ≈ n/(Z+Ddelay).
        let stations = vec![
            st("tiny", 1e-5, RateFunction::SingleServer),
            st("lan", 0.5, RateFunction::Delay),
        ];
        let sol = series(&stations, 1.5, 50, &[0, 0]);
        for n in 1..=50usize {
            let expect = n as f64 / 2.0; // ~ n/(1.5 + 0.5)
            let x = sol[n - 1].0;
            assert!((x - expect).abs() < 0.02 * expect, "n={n}: {x} vs {expect}");
        }
    }

    #[test]
    fn huge_population_no_overflow() {
        // Zⁿ/n! for n = 3000 spans hundreds of orders of magnitude; the
        // log-domain evaluation must sail through.
        let stations = vec![st("s", 0.01, RateFunction::SingleServer)];
        let x = series(&stations, 10.0, 3000, &[0])[2999].0;
        assert!(x.is_finite());
        assert!(x <= 100.0 + 1e-6);
        assert!(x > 99.0);
    }
}
