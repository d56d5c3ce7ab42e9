//! Exact multi-server MVA — paper Algorithm 2.
//!
//! Tightly coupled multi-core CPUs are multi-server queues; single-server
//! MVA (Algorithm 1) needs the heuristic "divide the demand by the core
//! count", which the paper shows to mispredict. Algorithm 2 instead values
//! a multi-server station through the marginal-probability correction of
//! paper eq. 10:
//!
//! ```text
//! R_k(n) = (D_k / C_k) · (1 + Q_k(n−1) + F_k(n−1)),
//! F_k    = Σ_{j=0}^{C_k−2} (C_k − 1 − j) · p_k(j)
//! ```
//!
//! ## Numerical evaluation
//!
//! The obvious way to carry the marginals — the population recursion with
//! the `p(0) = 1 − Σ…` closure — is **numerically unstable**: close to
//! saturation the closure cancels catastrophically and the recursion
//! amplifies round-off exponentially (measured gain ≈ 1.5–2× per
//! population step for a 16-core station, the paper's hardware). Plain
//! `f64` breaks a few dozen populations past the knee, and even
//! double-double state only delays the blow-up. [`multiserver_mva`]
//! therefore evaluates the network through the normalization-constant
//! (convolution) form — mathematically identical for
//! constant demands, and a ratio of sums of positive terms, hence stable
//! at every population (validated against the machine-repair closed form
//! to 1e-9 in the tests).
//!
//! [`PopulationRecursion`] — the stepping engine shared with MVASD
//! (Algorithm 3), where demands change at every population and a one-pass
//! convolution is impossible — uses the carried recursion in double-double
//! precision only while every multi-server station is safely below the
//! instability region, and switches permanently to per-step quasi-static
//! convolution solves beyond it.
//!
//! The quasi-static solves are served by a carried incremental
//! [`ConvWorkspace`] rather than a from-scratch evaluation. When the
//! demand array changes between steps (the MVASD case) the workspace
//! rebuilds its columns from population 0: `n` extensions of `O(K·C)`
//! each (`C` the largest server count; multi-server factors are geometric
//! past `C`), then one `O(n)` output cell per multi-server station. The
//! leading light stages whose demand did not change keep their columns
//! through a rebuild. The
//! workspace tracks no marginals, so every multi-server station but the
//! last reads its queue off an O(1) tangent column instead of an `O(n)`
//! complement cell per extension. When the demands do not change
//! (constant-demand Algorithm 2 driven through the recursion) each step is
//! a single extension. The old path rebuilt everything from scratch at
//! `O(K·n²)` per step either way. The workspace's buffers are allocated
//! once and reused for the rest of the sweep.

use mvasd_numerics::dd::Dd;

use crate::network::{ClosedNetwork, StationKind};
use crate::QueueingError;

use super::convolution::{point_at, ConvWorkspace};
use super::loaddep::{LdStation, RateFunction};
use super::{ClosedSolver, MultiserverMvaSolver, MvaSolution};

/// Snapshot history of the marginal queue-length probabilities of one
/// station (the entries that drive the eq. 10 correction).
#[derive(Debug, Clone, PartialEq)]
pub struct MarginalTrace {
    /// Index of the traced station in the network.
    pub station: usize,
    /// `history[n - 1][j]` is `p_k(j | n)` — the probability that exactly
    /// `j` customers are at the station (hence `j` servers busy, for
    /// `j < C_k`) after the population-`n` step. Every row holds
    /// `j = 0 … min(C_k, n_max + 1) − 1`: `p_k(j | n) = 0` for `j > n`, so
    /// the entries past `n_max` would all be zero.
    pub history: Vec<Vec<f64>>,
}

impl MarginalTrace {
    /// The probability that **all** servers are busy at each population,
    /// `1 − Σ_{j<C} p(j)` (clamped to `[0, 1]`).
    pub fn all_busy(&self) -> Vec<f64> {
        self.history
            .iter()
            .map(|snap| (1.0 - snap.iter().sum::<f64>()).clamp(0.0, 1.0))
            .collect()
    }
}

/// Runs exact multi-server MVA (paper Algorithm 2) up to `n_max` (a drain
/// of [`MultiserverMvaSolver`], which streams the incremental convolution
/// state of [`ConvWorkspace`]). `n_max = 0` yields an empty solution.
pub fn multiserver_mva(net: &ClosedNetwork, n_max: usize) -> Result<MvaSolution, QueueingError> {
    MultiserverMvaSolver::new(net.clone()).solve(n_max)
}

/// As [`multiserver_mva`], additionally recording the marginal-probability
/// history of `trace_station` — the data behind the paper's Fig. 3
/// ("Marginal Probability of a CPU Core being busy with increasing
/// Concurrency").
pub fn multiserver_mva_with_marginals(
    net: &ClosedNetwork,
    n_max: usize,
    trace_station: usize,
) -> Result<(MvaSolution, MarginalTrace), QueueingError> {
    if trace_station >= net.stations().len() {
        return Err(QueueingError::InvalidParameter {
            what: "trace station index out of range",
        });
    }
    let limit = match &net.stations()[trace_station].kind {
        StationKind::Queueing { servers } => *servers,
        StationKind::Delay => 0,
        // Track the whole occupancy table of an aggregated station.
        StationKind::LoadDependent { rates } => rates.len(),
    }
    .min(n_max.saturating_add(1));
    let stations: Vec<LdStation> = net.stations().iter().map(LdStation::from).collect();
    let mut limits = vec![0usize; stations.len()];
    limits[trace_station] = limit;
    let mut ws = ConvWorkspace::from_validated(stations, net.think_time(), limits)?;
    ws.reserve(n_max);
    let mut points = Vec::with_capacity(n_max);
    let mut history = Vec::new();
    for _ in 0..n_max {
        ws.advance()?;
        points.push(point_at(&ws));
        if limit > 0 {
            history.push(ws.marginals_of(trace_station).to_vec());
        }
    }
    let station_names = net
        .stations()
        .iter()
        .map(|s| s.name.clone())
        .collect::<Vec<_>>()
        .into();
    Ok((
        MvaSolution {
            station_names,
            points,
        },
        MarginalTrace {
            station: trace_station,
            history,
        },
    ))
}

/// Per-server utilization `X·D/C` above which a multi-server station is
/// considered at risk of entering the unstable region of the carried
/// marginal recursion near the knee (instability has only been observed
/// from ≈ 0.9 upward). The [`PopulationRecursion`] switches to quasi-static
/// convolution evaluation from the first step where any station crosses
/// it or [`QUASI_STATIC_BUSY_CAP`]. Utilization alone does not make a step
/// safe: many lightly loaded servers break the closure too.
const QUASI_STATIC_SWITCH: f64 = 0.5;

/// Mean busy-server count `X·D` above which the carried recursion is
/// unsafe at any utilization. The busy-server closure leaves
/// `p(0) ≈ e^{−X·D}` as a difference of `O(1)` terms, so it magnifies the
/// state's rounding by about `e^{X·D}`: with dozens of lightly loaded
/// servers even double-double state breaks long before 50 % utilization.
/// Below the cap the carried `p(0)` is as precise as the `f64`-rounded
/// `1/j`, `1/C` and `D/C` the update multiplies by: within 2.2e-16
/// relative, at every carried step at `C` = 16, 64 and 256, of a twin that
/// forms them in double-double, where plain `f64` state misses the twin
/// by up to 7.9e-10. A station with `C ≤ 16` has more than 8 busy servers
/// only past 50 % utilization, so the cap changes nothing there; at
/// `C = 256` the 50 % rule alone would carry up to 128.
const QUASI_STATIC_BUSY_CAP: f64 = 8.0;

/// Shared population-stepping engine of Algorithms 2 and 3.
///
/// Advances one population at a time with whatever demand array the caller
/// supplies — constant demands reproduce Algorithm 2; feeding the
/// spline-interpolated `SSⁿ` array at each step is exactly MVASD
/// (Algorithm 3), which is how `mvasd-core` uses this type.
///
/// Internally it runs the exact carried recursion (double-double state)
/// while every multi-server station stays below 50 % per-server
/// utilization and 8 busy servers, then switches permanently to per-step
/// quasi-static convolution solves: each step is solved as a constant-
/// demand network frozen at that step's demand array — the numerically
/// robust reading of the same algorithm, and the semantically right one
/// for steady-state prediction (a load test at `N` users measures the
/// steady state of the system *with the demands it has at `N`*).
///
/// A carried step makes one pass over each multi-server station's
/// marginals and allocates nothing once the marginals have grown to `C`
/// entries.
#[derive(Debug)]
pub struct PopulationRecursion {
    /// Server count per station (`usize::MAX` encodes a delay station).
    servers: Vec<usize>,
    /// `1/C` per station (read for multi-server stations only).
    inv_servers: Vec<f64>,
    think_time: f64,
    /// Queue lengths (double-double while in carried mode).
    q: Vec<Dd>,
    /// Marginals p(0..min(C, n + 1)) per multi-server station after `n`
    /// steps (empty otherwise), carried until the quasi-static switch and
    /// unused after it. `p(j | n) = 0` for `j > n`, so the vector grows by
    /// one entry per step up to `C` instead of holding `C` values from the
    /// start.
    p: Vec<Vec<Dd>>,
    /// Per multi-server station, the eq. 10 correction the next step
    /// reads, `F = Σ_{j=0}^{C−2} (C − 1 − j)·p(j)` over the carried
    /// marginals; formed by the update from its own sums (zero elsewhere).
    f: Vec<Dd>,
    /// `1/j` at index `j ≥ 1` (index 0 is unread), as long as the longest
    /// marginal vector: the same `f64` values as `1.0 / j as f64`.
    inv_j: Vec<f64>,
    /// Double-double residence times of the current carried step.
    residence_dd: Vec<Dd>,
    /// Residence times of the last step, rounded to `f64`.
    residence: Vec<f64>,
    /// Once true, every step is evaluated quasi-statically.
    quasi_static: bool,
    /// Carried convolution state for the quasi-static regime, built lazily
    /// on the first quasi-static step and reused (extended or rebuilt in
    /// place) for every step after.
    ws: Option<ConvWorkspace>,
}

/// Whether a server count takes the carried marginal correction.
fn is_multi_server(c: usize) -> bool {
    c != usize::MAX && c > 1
}

impl PopulationRecursion {
    /// Creates the state for the given per-station server counts
    /// (`usize::MAX` encodes a delay station) and think time.
    pub fn new(servers: Vec<usize>, think_time: f64) -> Self {
        let k_count = servers.len();
        // Population 0: p = [1], so F = (C − 1)·p(0) = C − 1.
        let p = servers
            .iter()
            .map(|&c| {
                if is_multi_server(c) {
                    vec![Dd::ONE]
                } else {
                    Vec::new()
                }
            })
            .collect();
        let f = servers
            .iter()
            .map(|&c| {
                if is_multi_server(c) {
                    Dd::from_f64((c - 1) as f64)
                } else {
                    Dd::ZERO
                }
            })
            .collect();
        Self {
            inv_servers: servers.iter().map(|&c| 1.0 / c as f64).collect(),
            q: vec![Dd::ZERO; k_count],
            servers,
            think_time,
            p,
            f,
            inv_j: vec![0.0],
            residence_dd: vec![Dd::ZERO; k_count],
            residence: vec![0.0; k_count],
            quasi_static: false,
            ws: None,
        }
    }

    /// Whether the engine has switched to quasi-static evaluation.
    pub fn is_quasi_static(&self) -> bool {
        self.quasi_static
    }

    /// Advances one population step with the given demand array (finite
    /// and non-negative); returns `(throughput, response)` rounded to
    /// `f64`. The step's residence times are then
    /// [`residences`](Self::residences).
    pub fn step(&mut self, n: usize, demands: &[f64]) -> (f64, f64) {
        if self.quasi_static {
            return self.quasi_static_step(n, demands);
        }
        let mut r_total = Dd::ZERO;
        for (k, r) in self.residence_dd.iter_mut().enumerate() {
            let d = demands[k];
            *r = match self.servers[k] {
                usize::MAX => Dd::from_f64(d),
                1 => (self.q[k] + 1.0) * d,
                // eq. 10: (D/C)(1 + Q + F), F formed by the last update.
                c => (self.q[k] + self.f[k] + 1.0) * (d / c as f64),
            };
            r_total = r_total + *r;
        }
        let x = (r_total + self.think_time).recip_mul(n as f64);

        // Check the stability envelope before committing this step: if any
        // multi-server station is past the switch utilization or busy-server
        // cap, redo the step quasi-statically and stay there.
        for (&c, &d) in self.servers.iter().zip(demands) {
            if !is_multi_server(c) {
                continue;
            }
            let busy = x.to_f64() * d;
            if busy / c as f64 > QUASI_STATIC_SWITCH || busy > QUASI_STATIC_BUSY_CAP {
                self.quasi_static = true;
                return self.quasi_static_step(n, demands);
            }
        }

        for (k, (&c, &d)) in self.servers.iter().zip(demands).enumerate() {
            self.q[k] = x * self.residence_dd[k];
            self.residence[k] = self.residence_dd[k].to_f64();
            if !is_multi_server(c) {
                continue;
            }
            let u = x * d;
            let p = &mut self.p[k];
            if p.len() < c {
                p.push(Dd::ZERO);
                // All marginals grow in step, so the table lags by one
                // slot at most; slot j holds 1/j.
                if self.inv_j.len() < p.len() {
                    self.inv_j.push(1.0 / self.inv_j.len() as f64);
                }
            }
            let (p_zero, above) = p
                .split_first_mut()
                .expect("a multi-server station carries p(0)");
            // One pass, j ascending: `prev` keeps p(j − 1 | n − 1) while
            // p(j | n) = u·p(j − 1 | n − 1)/j overwrites it, and the sums
            // W = Σ_{j≥1} (C − j)·p(j | n) and S = Σ_{j≥1} p(j | n) ride
            // along. Every product is ≥ 0 (u ≥ 0, p ≥ 0), so none needs
            // the clamp.
            let mut prev = *p_zero;
            let mut w = Dd::ZERO;
            let mut s = Dd::ZERO;
            for ((j, pj), &inv_j) in (1..).zip(above).zip(self.inv_j.iter().skip(1)) {
                let next = u * prev * inv_j;
                prev = *pj;
                *pj = next;
                w = w + next * ((c - j) as f64);
                s = s + next;
            }
            // Busy-server identity closes p(0).
            let p0 = (Dd::ONE - (u + w) * self.inv_servers[k]).max_zero();
            *p_zero = p0;
            // The next step's F off the same sums: the j = C − 1 term has
            // weight 0, so this holds on a vector capped at C too.
            self.f[k] = p0 * ((c - 1) as f64) + (w - s);
        }

        (x.to_f64(), r_total.to_f64())
    }

    /// The residence time of every station at the last step, rounded to
    /// `f64`.
    pub fn residences(&self) -> &[f64] {
        &self.residence
    }

    /// One quasi-static step: exact constant-demand solve at population `n`
    /// with this step's demand array, served by the carried incremental
    /// workspace (same-demand steps extend by one population; demand
    /// changes rebuild the changed stages' columns from population 0).
    fn quasi_static_step(&mut self, n: usize, demands: &[f64]) -> (f64, f64) {
        if self.ws.is_none() {
            let stations: Vec<LdStation> = self
                .servers
                .iter()
                .zip(demands.iter())
                .enumerate()
                .map(|(k, (&c, &d))| {
                    let rate = match c {
                        usize::MAX => RateFunction::Delay,
                        1 => RateFunction::SingleServer,
                        c => RateFunction::MultiServer(c),
                    };
                    LdStation::new(&format!("s{k}"), d, rate)
                })
                .collect();
            // No marginals: nothing reads them after the switch, and a
            // station without them takes the O(1) tangent column.
            self.ws = Some(
                ConvWorkspace::from_validated(stations, self.think_time, Vec::new())
                    .expect("quasi-static workspace over a validated network"),
            );
        }
        let ws = self.ws.as_mut().expect("just built");
        ws.solve_at(n, demands)
            .expect("quasi-static solve of a validated network");
        let x = ws.throughput();
        // Refresh the carried queues so queue() stays meaningful.
        for ((q, r), &qk) in self.q.iter_mut().zip(&mut self.residence).zip(ws.queues()) {
            *q = Dd::from_f64(qk);
            *r = if x > 0.0 { qk / x } else { 0.0 };
        }
        let r_total: f64 = self.residence.iter().sum();
        (x, r_total)
    }

    /// Current queue length of station `k`.
    pub fn queue(&self, k: usize) -> f64 {
        self.q[k].to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::{exact_mva, load_dependent_mva};
    use crate::network::Station;
    use mvasd_numerics::propcheck::{check, Config, Gen};
    use std::cell::Cell;
    use std::ops::{Add, Div, Mul, Sub};

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn reduces_to_algorithm_1_for_single_servers() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("a", 1, 1.0, 0.004),
                Station::queueing("b", 1, 2.0, 0.003),
                Station::delay("lan", 1.0, 0.001),
            ],
            0.75,
        )
        .unwrap();
        let ms = multiserver_mva(&net, 200).unwrap();
        let ss = exact_mva(&net, 200).unwrap();
        for (pm, ps) in ms.points.iter().zip(ss.points.iter()) {
            let rel = (pm.throughput - ps.throughput).abs() / ps.throughput;
            assert!(
                rel < 1e-9,
                "n={}: {} vs {}",
                pm.n,
                pm.throughput,
                ps.throughput
            );
            assert!(close(pm.response, ps.response, 1e-8 * ps.response.max(1.0)));
        }
    }

    #[test]
    fn littles_law_holds() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu16", 16, 1.0, 0.020),
                Station::queueing("disk", 1, 1.0, 0.004),
            ],
            1.0,
        )
        .unwrap();
        let sol = multiserver_mva(&net, 400).unwrap();
        for p in &sol.points {
            assert!(close(
                p.n as f64,
                p.throughput * p.cycle_time,
                1e-6 * p.n as f64
            ));
        }
    }

    #[test]
    fn multiserver_beats_single_server_throughput() {
        // Same total demand; 4 cores must sustain ~4x the single-server
        // ceiling when CPU-bound.
        let single = ClosedNetwork::new(vec![Station::queueing("cpu", 1, 1.0, 0.02)], 1.0).unwrap();
        let quad = ClosedNetwork::new(vec![Station::queueing("cpu", 4, 1.0, 0.02)], 1.0).unwrap();
        let xs = multiserver_mva(&single, 600).unwrap().last().throughput;
        let xq = multiserver_mva(&quad, 600).unwrap().last().throughput;
        assert!(xs < 51.0);
        assert!(xq > 195.0, "got {xq}");
        assert!(xq <= 200.0 + 1e-6);
    }

    #[test]
    fn matches_machine_repair_closed_form_exactly() {
        // Single multi-server station + think time: exact result available.
        for (c, s, z, n_max) in [(4usize, 0.25f64, 1.0f64, 80usize), (16, 0.16, 1.0, 400)] {
            let net = ClosedNetwork::new(vec![Station::queueing("st", c, 1.0, s)], z).unwrap();
            let sol = multiserver_mva(&net, n_max).unwrap();
            for n in 1..=n_max {
                let (x_exact, _) = mvasd_numerics::erlang::machine_repair(n, c, s, z).unwrap();
                let x = sol.at(n).unwrap().throughput;
                let rel = (x - x_exact).abs() / x_exact;
                assert!(
                    rel < 1e-9,
                    "c={c} n={n}: {x} vs exact {x_exact} (rel {rel:e})"
                );
            }
        }
    }

    #[test]
    fn agrees_with_load_dependent_gold_standard() {
        // Both constructors stream the same convolution engine; this guards
        // the station-kind lowering on every kind: multi-server,
        // single-server, delay and rate-table stations.
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu16", 16, 1.0, 0.02),
                Station::queueing("disk", 1, 1.0, 0.002),
                Station::delay("lan", 1.0, 0.003),
                Station::load_dependent("pool", 1.0, 0.004, vec![1.0, 1.8, 2.5]),
            ],
            1.0,
        )
        .unwrap();
        let stations = vec![
            LdStation::new("cpu16", 0.02, RateFunction::MultiServer(16)),
            LdStation::new("disk", 0.002, RateFunction::SingleServer),
            LdStation::new("lan", 0.003, RateFunction::Delay),
            LdStation::new("pool", 0.004, RateFunction::Custom(vec![1.0, 1.8, 2.5])),
        ];
        let a2 = MultiserverMvaSolver::new(net.clone()).solve(800).unwrap();
        let ld = MultiserverMvaSolver::from_stations(stations.clone(), 1.0)
            .solve(800)
            .unwrap();
        assert_eq!(a2, ld);
        assert_eq!(multiserver_mva(&net, 800).unwrap(), a2);
        assert_eq!(load_dependent_mva(&stations, 1.0, 800).unwrap(), ld);
    }

    #[test]
    fn throughput_monotone_even_around_the_knee() {
        // The brutal case for the naive recursion: 16 cores, deep
        // saturation traversal. Convolution must be monotone and respect
        // the Bottleneck Law everywhere.
        let net = ClosedNetwork::new(vec![Station::queueing("cpu", 16, 1.0, 0.16)], 1.0).unwrap();
        let sol = multiserver_mva(&net, 400).unwrap();
        let xs = sol.throughputs();
        for w in xs.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "dip: {} -> {}", w[0], w[1]);
        }
        assert!(sol.last().throughput > 99.9);
        assert!(sol.last().throughput <= 100.0 + 1e-6);
    }

    #[test]
    fn single_customer_never_queues_even_multiserver() {
        let net = ClosedNetwork::new(vec![Station::queueing("cpu", 8, 1.0, 0.4)], 1.0).unwrap();
        let p = multiserver_mva(&net, 1).unwrap();
        // One customer is served at full speed: R = D.
        assert!(close(p.at(1).unwrap().response, 0.4, 1e-9));
    }

    #[test]
    fn marginals_trace_is_a_probability_vector() {
        let net = ClosedNetwork::new(vec![Station::queueing("cpu", 4, 1.0, 0.1)], 1.0).unwrap();
        let (_, trace) = multiserver_mva_with_marginals(&net, 80, 0).unwrap();
        assert_eq!(trace.history.len(), 80);
        for snap in &trace.history {
            assert_eq!(snap.len(), 4);
            let sum: f64 = snap.iter().sum();
            for &pj in snap {
                assert!((0.0..=1.0 + 1e-9).contains(&pj), "p out of range: {pj}");
            }
            assert!(sum <= 1.0 + 1e-6, "partial masses exceed 1: {sum}");
        }
        // At saturation all mass moves to "all 4 busy".
        let all_busy = trace.all_busy();
        assert!(all_busy[79] > 0.9, "got {}", all_busy[79]);
        assert!(all_busy[0] < 0.1);
    }

    #[test]
    fn marginal_trace_stops_at_the_population() {
        // 2^40 traced marginals would be 8 TiB; n_max + 1 hold them all.
        let net =
            ClosedNetwork::new(vec![Station::queueing("cpu", 1 << 40, 1.0, 0.1)], 1.0).unwrap();
        let (_, trace) = multiserver_mva_with_marginals(&net, 50, 0).unwrap();
        assert_eq!(trace.history.len(), 50);
        assert!(trace.history.iter().all(|snap| snap.len() == 51));
        for (n, busy) in trace.all_busy().into_iter().enumerate() {
            assert!(busy <= 1e-12, "all busy at n={}: {busy}", n + 1);
        }
    }

    #[test]
    fn trace_rejects_bad_station() {
        let net = ClosedNetwork::new(vec![Station::queueing("cpu", 4, 1.0, 0.1)], 1.0).unwrap();
        assert!(multiserver_mva_with_marginals(&net, 10, 1).is_err());
    }

    #[test]
    fn trace_works_for_single_server_station() {
        let net = ClosedNetwork::new(vec![Station::queueing("disk", 1, 1.0, 0.01)], 1.0).unwrap();
        let (sol, trace) = multiserver_mva_with_marginals(&net, 50, 0).unwrap();
        for (snap, p) in trace.history.iter().zip(sol.points.iter()) {
            assert_eq!(snap.len(), 1);
            // p(0|n) = 1 − U for a single-server station.
            assert!(close(snap[0], (1.0 - p.throughput * 0.01).max(0.0), 1e-8));
        }
    }

    #[test]
    fn utilization_per_server_bounded_by_one() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu16", 16, 1.0, 0.08),
                Station::queueing("disk", 1, 1.0, 0.004),
            ],
            1.0,
        )
        .unwrap();
        let sol = multiserver_mva(&net, 1000).unwrap();
        for p in &sol.points {
            for sp in &p.stations {
                assert!(sp.utilization <= 1.0 + 1e-9);
            }
        }
        // CPU is the bottleneck (0.08/16 = 5 ms effective > 4 ms disk):
        // its per-server utilization should approach 1.
        assert!(
            sol.last().stations[0].utilization > 0.98,
            "got {}",
            sol.last().stations[0].utilization
        );
    }

    #[test]
    fn paper_scale_network_respects_bottleneck_law() {
        // 12-station, 3-tier, 16-core network at VINS scale (N = 1500).
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("load-cpu", 16, 1.0, 0.004),
                Station::queueing("load-disk", 1, 1.0, 0.0085),
                Station::queueing("load-tx", 1, 1.0, 0.0012),
                Station::queueing("load-rx", 1, 1.0, 0.0018),
                Station::queueing("app-cpu", 16, 1.0, 0.012),
                Station::queueing("app-disk", 1, 1.0, 0.0022),
                Station::queueing("app-tx", 1, 1.0, 0.0015),
                Station::queueing("app-rx", 1, 1.0, 0.0015),
                Station::queueing("db-cpu", 16, 1.0, 0.055),
                Station::queueing("db-disk", 1, 1.0, 0.0098),
                Station::queueing("db-tx", 1, 1.0, 0.0014),
                Station::queueing("db-rx", 1, 1.0, 0.0012),
            ],
            1.0,
        )
        .unwrap();
        let sol = multiserver_mva(&net, 1500).unwrap();
        let cap = net.max_throughput();
        for p in &sol.points {
            assert!(
                p.throughput <= cap + 1e-6,
                "n={}: {} > {cap}",
                p.n,
                p.throughput
            );
        }
        assert!(sol.last().throughput > 0.99 * cap);
    }

    #[test]
    fn recursion_engine_matches_full_solver_constant_demands() {
        // Drive PopulationRecursion with constant demands across the
        // quasi-static switch; it must agree with multiserver_mva
        // everywhere (exactly in the quasi-static regime, to the carried
        // recursion's precision before it).
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 16, 1.0, 0.16),
                Station::queueing("disk", 1, 1.0, 0.004),
            ],
            1.0,
        )
        .unwrap();
        let reference = multiserver_mva(&net, 250).unwrap();
        let mut rec = PopulationRecursion::new(vec![16, 1], 1.0);
        let demands = vec![0.16, 0.004];
        let mut switched_at = None;
        for n in 1..=250usize {
            let (x, r) = rec.step(n, &demands);
            if switched_at.is_none() && rec.is_quasi_static() {
                switched_at = Some(n);
            }
            let pr = reference.at(n).unwrap();
            let rel = (x - pr.throughput).abs() / pr.throughput;
            assert!(rel < 1e-6, "n={n}: {x} vs {} (rel {rel:e})", pr.throughput);
            assert!(
                close(r, pr.response, 1e-5 * pr.response.max(1e-9)),
                "R at n={n}"
            );
        }
        // The switch must have fired well before the knee (~116).
        let s = switched_at.expect("must switch for a saturating CPU");
        assert!(s < 116, "switched at {s}");
    }

    #[test]
    fn station_with_at_least_n_servers_equals_a_delay_station() {
        // With C ≥ N no customer ever queues, so a C-server station is a
        // delay station with the same demand. The wide station follows the
        // 16-core CPU, so it reads its queue off a tangent column, while
        // the delay network folds it into the think-time stage.
        let net = |wide: Station| {
            ClosedNetwork::new(
                vec![
                    Station::queueing("cpu", 16, 1.0, 0.05),
                    wide,
                    Station::queueing("disk", 1, 1.0, 0.004),
                ],
                0.5,
            )
            .unwrap()
        };
        for (c, n_max) in [(64usize, 64usize), (300, 300)] {
            let wide =
                multiserver_mva(&net(Station::queueing("wide", c, 1.0, 0.8)), n_max).unwrap();
            let delay = multiserver_mva(&net(Station::delay("wide", 1.0, 0.8)), n_max).unwrap();
            for (pw, pd) in wide.points.iter().zip(&delay.points) {
                let rel = (pw.throughput - pd.throughput).abs() / pd.throughput;
                assert!(rel < 1e-12, "C={c} n={}: X rel {rel:e}", pw.n);
                for (k, (sw, sd)) in pw.stations.iter().zip(&pd.stations).enumerate() {
                    assert!(
                        close(sw.queue, sd.queue, 1e-11 * sd.queue.max(1.0)),
                        "C={c} n={} q[{k}]: {} vs {}",
                        pw.n,
                        sw.queue,
                        sd.queue
                    );
                }
            }
        }
    }

    #[test]
    fn recursion_engine_stays_carried_for_low_utilization() {
        let mut rec = PopulationRecursion::new(vec![16, 1], 1.0);
        // CPU never exceeds 35 % of 16 cores; disk is the bottleneck but is
        // single-server (always stable).
        let demands = vec![0.055, 0.0098];
        for n in 1..=1500usize {
            rec.step(n, &demands);
        }
        assert!(!rec.is_quasi_static());
    }

    #[test]
    fn zero_population_yields_empty_solution() {
        let net = ClosedNetwork::new(vec![Station::queueing("s", 1, 1.0, 0.1)], 1.0).unwrap();
        let sol = multiserver_mva(&net, 0).unwrap();
        assert!(sol.points.is_empty());
        let (sol, trace) = multiserver_mva_with_marginals(&net, 0, 0).unwrap();
        assert!(sol.points.is_empty());
        assert!(trace.history.is_empty());
    }

    /// The carried step as it was before the one-pass update, kept as the
    /// oracle: `F` summed directly off the marginals, the marginals
    /// updated top down with a clamp on every product, and `W` summed in
    /// a pass of its own.
    struct ThreePassRecursion {
        servers: Vec<usize>,
        think_time: f64,
        q: Vec<Dd>,
        p: Vec<Vec<Dd>>,
    }

    /// What one oracle step returns: `(X, R, residences, queues)`.
    type OracleStep = (f64, f64, Vec<f64>, Vec<f64>);

    impl ThreePassRecursion {
        fn new(servers: Vec<usize>, think_time: f64) -> Self {
            let p = servers
                .iter()
                .map(|&c| {
                    if is_multi_server(c) {
                        vec![Dd::ONE]
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            Self {
                q: vec![Dd::ZERO; servers.len()],
                servers,
                think_time,
                p,
            }
        }

        /// One carried step, or `None` where the switch fires.
        fn step(&mut self, n: usize, demands: &[f64]) -> Option<OracleStep> {
            let k_count = self.servers.len();
            let mut residence = vec![Dd::ZERO; k_count];
            for k in 0..k_count {
                let d = demands[k];
                residence[k] = match self.servers[k] {
                    usize::MAX => Dd::from_f64(d),
                    1 => (self.q[k] + 1.0) * d,
                    c => {
                        let mut f = Dd::ZERO;
                        for (j, pj) in self.p[k].iter().take(c - 1).enumerate() {
                            f = f + *pj * ((c - 1 - j) as f64);
                        }
                        (self.q[k] + f + 1.0) * (d / c as f64)
                    }
                };
            }
            let mut r_total = Dd::ZERO;
            for r in &residence {
                r_total = r_total + *r;
            }
            let x = (r_total + self.think_time).recip_mul(n as f64);
            for (&c, &d) in self.servers.iter().zip(demands) {
                let busy = x.to_f64() * d;
                let over = busy / c as f64 > QUASI_STATIC_SWITCH || busy > QUASI_STATIC_BUSY_CAP;
                if is_multi_server(c) && over {
                    return None;
                }
            }
            for k in 0..k_count {
                self.q[k] = x * residence[k];
                let c = self.servers[k];
                if is_multi_server(c) {
                    let u = x * demands[k];
                    let p = &mut self.p[k];
                    if p.len() < c {
                        p.push(Dd::ZERO);
                    }
                    for j in (1..p.len()).rev() {
                        p[j] = (u * p[j - 1] * (1.0 / j as f64)).max_zero();
                    }
                    let mut weighted = Dd::ZERO;
                    for (j, pj) in p.iter().enumerate().skip(1) {
                        weighted = weighted + *pj * ((c - j) as f64);
                    }
                    p[0] = (Dd::ONE - (u + weighted) * (1.0 / c as f64)).max_zero();
                }
            }
            Some((
                x.to_f64(),
                r_total.to_f64(),
                residence.iter().map(|r| r.to_f64()).collect(),
                self.q.iter().map(|q| q.to_f64()).collect(),
            ))
        }
    }

    /// Distance in units in the last place between two finite `f64`s of
    /// the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    /// `F` summed directly off the marginals the engine stores.
    fn direct_f(p: &[Dd], c: usize) -> Dd {
        let mut f = Dd::ZERO;
        for (j, pj) in p.iter().take(c - 1).enumerate() {
            f = f + *pj * ((c - 1 - j) as f64);
        }
        f
    }

    /// Random station sets stepped through carried steps only, their
    /// demands redrawn at every step: the one-pass update gives the
    /// three-pass oracle's outputs (bitwise is expected, 2 ulp allowed),
    /// its carried `F` is the direct sum over its own marginals to 1e-30
    /// relative, and the switch fires at the same step.
    #[test]
    fn propcheck_one_pass_update_matches_the_three_pass_oracle() {
        let steps = Cell::new(0usize);
        let switched = Cell::new(0usize);
        let filled = Cell::new(0usize);
        let huge = Cell::new(0usize);
        check(
            "propcheck_one_pass_update_matches_the_three_pass_oracle",
            &Config::default().cases(48),
            |g: &mut Gen| {
                let k_count = g.usize_in(1, 5);
                let servers: Vec<usize> = (0..k_count)
                    .map(|_| match g.usize_in(0, 4) {
                        0 => usize::MAX,
                        1 => 1,
                        2 => 1 << 40,
                        _ => g.usize_in(2, 64),
                    })
                    .collect();
                // Per-station demand ranges: a slow single server caps X,
                // so a draw may switch early, late or never.
                let ranges: Vec<(f64, f64)> = servers
                    .iter()
                    .map(|&c| {
                        let hi = match c {
                            1 => g.f64_in(0.002, 0.05),
                            usize::MAX => g.f64_in(0.01, 1.0),
                            c => g.f64_in(0.01, 0.02 * c.min(64) as f64),
                        };
                        (0.5 * hi, hi)
                    })
                    .collect();
                let z = g.f64_in(0.1, 2.0);
                let mut one_pass = PopulationRecursion::new(servers.clone(), z);
                let mut oracle = ThreePassRecursion::new(servers.clone(), z);
                for n in 1..=g.usize_in(20, 200) {
                    let demands: Vec<f64> =
                        ranges.iter().map(|&(lo, hi)| g.f64_in(lo, hi)).collect();
                    let (x, r) = one_pass.step(n, &demands);
                    let Some((xo, ro, res_o, q_o)) = oracle.step(n, &demands) else {
                        assert!(one_pass.is_quasi_static(), "n={n}: oracle switched alone");
                        switched.set(switched.get() + 1);
                        return;
                    };
                    assert!(!one_pass.is_quasi_static(), "n={n}: switched alone");
                    steps.set(steps.get() + 1);
                    assert!(ulps(x, xo) <= 2, "n={n}: X {x:e} vs {xo:e}");
                    assert!(ulps(r, ro) <= 2, "n={n}: R {r:e} vs {ro:e}");
                    for k in 0..k_count {
                        let (res, q) = (one_pass.residences()[k], one_pass.queue(k));
                        assert!(
                            ulps(res, res_o[k]) <= 2,
                            "n={n} k={k}: R_k {res:e} vs {:e}",
                            res_o[k]
                        );
                        assert!(
                            ulps(q, q_o[k]) <= 2,
                            "n={n} k={k}: Q_k {q:e} vs {:e}",
                            q_o[k]
                        );
                        let c = servers[k];
                        if !is_multi_server(c) {
                            continue;
                        }
                        let p = &one_pass.p[k];
                        if p.len() == c {
                            filled.set(filled.get() + 1);
                        }
                        if c == 1 << 40 {
                            huge.set(huge.get() + 1);
                        }
                        let direct = direct_f(p, c);
                        let err = (one_pass.f[k] - direct).to_f64().abs();
                        assert!(
                            err <= 1e-30 * direct.to_f64(),
                            "n={n} k={k} C={c}: F {:e} vs direct {:e}",
                            one_pass.f[k].to_f64(),
                            direct.to_f64()
                        );
                    }
                }
            },
        );
        // The draws reach every regime the identity has to hold in.
        assert!(steps.get() > 2000, "{} carried steps", steps.get());
        assert!(switched.get() >= 4, "{} switches", switched.get());
        assert!(
            filled.get() > 100,
            "{} station steps at C entries",
            filled.get()
        );
        assert!(huge.get() > 100, "{} steps with 2^40 servers", huge.get());
    }

    /// Arithmetic for the precision twins below: double-double or plain
    /// `f64`, with every operand, reciprocals included, in that type.
    trait Field:
        Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
    {
        fn of(x: f64) -> Self;
        fn value(self) -> f64;
    }

    impl Field for Dd {
        fn of(x: f64) -> Self {
            Dd::from_f64(x)
        }
        fn value(self) -> f64 {
            self.to_f64()
        }
    }

    impl Field for f64 {
        fn of(x: f64) -> Self {
            x
        }
        fn value(self) -> f64 {
            self
        }
    }

    /// `p(0)` after each of `n_max` carried steps of one `C`-server
    /// station with demand `d` and think time `z`, run without the switch,
    /// with `1/j`, `1/C` and `D/C` formed in `T` (the engine rounds them to
    /// `f64`).
    fn carried_p0<T: Field>(c: usize, d: f64, z: f64, n_max: usize) -> Vec<f64> {
        let (one, c_t, d_t) = (T::of(1.0), T::of(c as f64), T::of(d));
        let mut q = T::of(0.0);
        let mut p = vec![one];
        let mut out = Vec::with_capacity(n_max);
        for n in 1..=n_max {
            let mut f = T::of(0.0);
            for (j, &pj) in p.iter().take(c - 1).enumerate() {
                f = f + pj * T::of((c - 1 - j) as f64);
            }
            let r = (q + f + one) * (d_t / c_t);
            let x = T::of(n as f64) / (r + T::of(z));
            q = x * r;
            let u = x * d_t;
            if p.len() < c {
                p.push(T::of(0.0));
            }
            for j in (1..p.len()).rev() {
                p[j] = u * p[j - 1] / T::of(j as f64);
            }
            let mut w = T::of(0.0);
            for (j, &pj) in p.iter().enumerate().skip(1) {
                w = w + pj * T::of((c - j) as f64);
            }
            p[0] = one - (u + w) / c_t;
            out.push(p[0].value());
        }
        out
    }

    /// The carried state's real precision. Against a twin that forms its
    /// reciprocals in double-double, the engine's `p(0)` stays within
    /// 1e-15 relative at every carried step, up to the busy-server cap:
    /// the `f64`-rounded `1/j`, `1/C` and `D/C` bound it, not the ~1e-32
    /// of double-double arithmetic. Plain `f64` state, the alternative,
    /// misses the twin by orders of magnitude more at the last carried
    /// step, which is why the state stays double-double.
    #[test]
    fn carried_p0_is_held_to_f64_reciprocal_precision() {
        for (c, d, n_max) in [
            (16usize, 0.16, 60usize),
            (16, 0.055, 150),
            (64, 0.1, 100),
            (256, 0.1, 100),
        ] {
            let twin = carried_p0::<Dd>(c, d, 1.0, n_max);
            let plain = carried_p0::<f64>(c, d, 1.0, n_max);
            let rel = |a: f64, n: usize| (a - twin[n - 1]).abs() / twin[n - 1];
            let mut rec = PopulationRecursion::new(vec![c], 1.0);
            let mut last = 0;
            for n in 1..=n_max {
                rec.step(n, &[d]);
                if rec.is_quasi_static() {
                    break;
                }
                let err = rel(rec.p[0][0].to_f64(), n);
                assert!(
                    err <= 1e-15,
                    "C={c} D={d} n={n}: p(0) {err:e} from the twin"
                );
                last = n;
            }
            assert!(last >= 50, "C={c} D={d}: carried only to n={last}");
            let plain_err = rel(plain[last - 1], last);
            assert!(
                plain_err > 1e-13,
                "C={c} D={d}: f64 state off by only {plain_err:e}"
            );
        }
    }
}
