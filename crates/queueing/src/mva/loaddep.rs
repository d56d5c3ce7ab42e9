//! Exact load-dependent analysis.
//!
//! The textbook-exact treatment of stations whose service *rate* depends on
//! the local queue length. A multi-server station is the special case
//! `rate(j) = min(j, C)`, so paper Algorithm 2 is this model with every
//! station lowered from its kind ([`LdStation`]'s `From<&Station>`), and
//! one solver serves both (`MultiserverMvaSolver::new` and
//! `::from_stations`). The paper mentions exactly this capability
//! existing in JMT ("a load-dependent array of service demands has been
//! proposed and implemented in … JMT [17]").
//!
//! The evaluation goes through the normalization-constant (convolution)
//! route (see [`super::convolution`] internals): the naive
//! population recursion for load-dependent stations is numerically unstable
//! near saturation — its `p(0) = 1 − Σ…` closure cancels catastrophically
//! and the recursion amplifies round-off exponentially — while the
//! convolution form is a ratio of positive sums and is stable at any
//! population.
//!
//! Note this models *rate* dependence on the **local** queue length; the
//! paper's MVASD models *demand* dependence on the **global** population,
//! which is a different (and weaker-studied) axis — see `mvasd-core`.

use crate::network::{Station, StationKind};
use crate::QueueingError;

use super::{ClosedSolver, MultiserverMvaSolver, MvaSolution};

/// How a station's aggregate service rate scales with its queue length.
#[derive(Debug, Clone, PartialEq)]
pub enum RateFunction {
    /// Constant-rate single server: `rate(j) = 1`.
    SingleServer,
    /// `C` parallel servers: `rate(j) = min(j, C)`.
    MultiServer(usize),
    /// Infinite-server (delay): `rate(j) = j`.
    Delay,
    /// Arbitrary multipliers: `rate(j) = table[min(j, len) − 1]`, clamped to
    /// the last entry beyond the table.
    Custom(Vec<f64>),
}

impl RateFunction {
    /// The rate multiplier with `j ≥ 1` jobs present.
    pub fn rate(&self, j: usize) -> f64 {
        debug_assert!(j >= 1);
        match self {
            RateFunction::SingleServer => 1.0,
            RateFunction::MultiServer(c) => j.min(*c) as f64,
            RateFunction::Delay => j as f64,
            RateFunction::Custom(t) => t[(j - 1).min(t.len() - 1)],
        }
    }

    /// The saturation multiplier (`lim_{j→∞} rate(j)`), used for
    /// utilization reporting. `None` for delay stations (they never
    /// saturate).
    pub fn max_rate(&self) -> Option<f64> {
        match self {
            RateFunction::SingleServer => Some(1.0),
            RateFunction::MultiServer(c) => Some(*c as f64),
            RateFunction::Delay => None,
            RateFunction::Custom(t) => t.iter().cloned().reduce(f64::max),
        }
    }

    fn validate(&self) -> Result<(), QueueingError> {
        match self {
            RateFunction::MultiServer(0) => Err(QueueingError::InvalidParameter {
                what: "multi-server station needs >= 1 server",
            }),
            RateFunction::Custom(t) if t.is_empty() => Err(QueueingError::InvalidParameter {
                what: "custom rate table must be non-empty",
            }),
            RateFunction::Custom(t) if t.iter().any(|r| !(r.is_finite() && *r > 0.0)) => {
                Err(QueueingError::InvalidParameter {
                    what: "custom rates must be finite and > 0",
                })
            }
            _ => Ok(()),
        }
    }
}

/// The one lowering of a static station description onto the
/// load-dependent rate model: a one-server queue is `SingleServer`, `C`
/// servers are `MultiServer(C)`, a delay is `Delay`, and an explicit rate
/// table is `Custom`.
impl From<&StationKind> for RateFunction {
    fn from(kind: &StationKind) -> Self {
        match kind {
            StationKind::Queueing { servers: 1 } => RateFunction::SingleServer,
            StationKind::Queueing { servers } => RateFunction::MultiServer(*servers),
            StationKind::Delay => RateFunction::Delay,
            StationKind::LoadDependent { rates } => RateFunction::Custom(rates.clone()),
        }
    }
}

/// A station of the load-dependent network.
#[derive(Debug, Clone, PartialEq)]
pub struct LdStation {
    /// Human-readable identifier.
    pub name: String,
    /// Service demand `D_k = V_k·S_k` at rate multiplier 1.
    pub demand: f64,
    /// Queue-length dependent rate multiplier.
    pub rate: RateFunction,
}

impl LdStation {
    /// Convenience constructor.
    pub fn new(name: &str, demand: f64, rate: RateFunction) -> Self {
        Self {
            name: name.to_string(),
            demand,
            rate,
        }
    }
}

/// The one lowering of a network station onto the load-dependent model:
/// demand `V·S`, rate function from its kind.
impl From<&Station> for LdStation {
    fn from(s: &Station) -> Self {
        LdStation::new(&s.name, s.demand(), RateFunction::from(&s.kind))
    }
}

/// Checks a load-dependent model: at least one station, finite
/// non-negative demands and think time, valid rate functions, and some
/// positive demand or think time.
pub(crate) fn validate_stations(
    stations: &[LdStation],
    think_time: f64,
) -> Result<(), QueueingError> {
    if stations.is_empty() {
        return Err(QueueingError::EmptyNetwork);
    }
    if !(think_time.is_finite() && think_time >= 0.0) {
        return Err(QueueingError::InvalidParameter {
            what: "think time must be finite and >= 0",
        });
    }
    for s in stations {
        if !(s.demand.is_finite() && s.demand >= 0.0) {
            return Err(QueueingError::InvalidParameter {
                what: "demand must be finite and >= 0",
            });
        }
        s.rate.validate()?;
    }
    // lint: float-eq-ok validation rejects the exact all-zero-demand, zero-think-time input
    if stations.iter().all(|s| s.demand == 0.0) && think_time == 0.0 {
        return Err(QueueingError::InvalidParameter {
            what: "network needs positive demand or think time",
        });
    }
    Ok(())
}

/// Runs exact load-dependent analysis up to population `n_max` (a drain
/// of [`MultiserverMvaSolver::from_stations`]). `n_max = 0` yields an
/// empty solution (the model is still validated).
///
/// Complexity `O(N · K · C + N² · H)` multiply-add terms and `O(N · K)`
/// memory, with `C` the largest saturation index (server count or custom
/// table length) and `H` the number of rate-table stations: each one is
/// geometric past `C` and reads its queue off one `O(N)` cell per
/// population, all but the last through a carried tangent column (see
/// [`super::ConvWorkspace`]). Single-server and delay stations cost `O(1)`
/// per population.
pub fn load_dependent_mva(
    stations: &[LdStation],
    think_time: f64,
    n_max: usize,
) -> Result<MvaSolution, QueueingError> {
    MultiserverMvaSolver::from_stations(stations.to_vec(), think_time).solve(n_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::exact_mva;
    use crate::network::{ClosedNetwork, Station};

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn single_server_matches_algorithm_1() {
        let ld = vec![
            LdStation::new("cpu", 0.006, RateFunction::SingleServer),
            LdStation::new("disk", 0.010, RateFunction::SingleServer),
        ];
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 1, 1.0, 0.006),
                Station::queueing("disk", 1, 1.0, 0.010),
            ],
            1.0,
        )
        .unwrap();
        let a = load_dependent_mva(&ld, 1.0, 150).unwrap();
        let b = exact_mva(&net, 150).unwrap();
        for (pa, pb) in a.points.iter().zip(b.points.iter()) {
            assert!(close(pa.throughput, pb.throughput, 1e-9), "n={}", pa.n);
            assert!(close(pa.response, pb.response, 1e-9));
            assert!(close(pa.stations[0].queue, pb.stations[0].queue, 1e-8));
        }
    }

    #[test]
    fn multiserver_matches_machine_repair_exactly() {
        // This solver must be EXACT for the machine-repair model (unlike
        // the paper's Algorithm 2, which approximates the marginals).
        let (c, s, z) = (4usize, 0.25f64, 1.0f64);
        let ld = vec![LdStation::new("st", s, RateFunction::MultiServer(c))];
        let sol = load_dependent_mva(&ld, z, 60).unwrap();
        for n in 1..=60usize {
            let (x_exact, q_exact) = mvasd_numerics::erlang::machine_repair(n, c, s, z).unwrap();
            let p = sol.at(n).unwrap();
            assert!(close(p.throughput, x_exact, 1e-9), "n={n}");
            assert!(close(p.stations[0].queue, q_exact, 1e-8), "n={n}");
        }
    }

    #[test]
    fn delay_rate_function_means_no_queueing() {
        let ld = vec![
            LdStation::new("cpu", 0.01, RateFunction::SingleServer),
            LdStation::new("lan", 0.005, RateFunction::Delay),
        ];
        let sol = load_dependent_mva(&ld, 0.5, 80).unwrap();
        for p in &sol.points {
            // Delay station residence stays at the raw demand.
            assert!(close(p.stations[1].residence, 0.005, 1e-9), "n={}", p.n);
        }
    }

    #[test]
    fn marginal_distributions_are_probabilities() {
        let ld = vec![LdStation::new("st", 0.2, RateFunction::MultiServer(3))];
        let sol = load_dependent_mva(&ld, 1.0, 30).unwrap();
        // Conservation: queue + thinking = n.
        for p in &sol.points {
            let thinking = p.throughput * 1.0;
            assert!(close(p.stations[0].queue + thinking, p.n as f64, 1e-8));
        }
    }

    #[test]
    fn custom_rate_interpolates_between_regimes() {
        // Rates 1, 1.8, 2.4 then flat: a "2.4-way" station with overhead.
        let ld = vec![LdStation::new(
            "st",
            0.1,
            RateFunction::Custom(vec![1.0, 1.8, 2.4]),
        )];
        let sol = load_dependent_mva(&ld, 0.2, 100).unwrap();
        // Ceiling: 2.4 / 0.1 = 24/s.
        assert!(sol.last().throughput <= 24.0 + 1e-9);
        assert!(sol.last().throughput > 23.0);
    }

    #[test]
    fn utilization_capped_at_one() {
        let ld = vec![LdStation::new("st", 0.5, RateFunction::MultiServer(8))];
        let sol = load_dependent_mva(&ld, 0.1, 300).unwrap();
        for p in &sol.points {
            assert!(p.stations[0].utilization <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(load_dependent_mva(&[], 1.0, 10).is_err());
        let ld = vec![LdStation::new("s", 0.1, RateFunction::SingleServer)];
        // Zero population: valid empty sweep, but invalid models still fail.
        assert!(load_dependent_mva(&ld, 1.0, 0).unwrap().points.is_empty());
        assert!(load_dependent_mva(&ld, -1.0, 0).is_err());
        assert!(load_dependent_mva(&ld, -1.0, 10).is_err());
        let bad = vec![LdStation::new("s", 0.1, RateFunction::MultiServer(0))];
        assert!(load_dependent_mva(&bad, 1.0, 10).is_err());
        let bad = vec![LdStation::new("s", 0.1, RateFunction::Custom(vec![]))];
        assert!(load_dependent_mva(&bad, 1.0, 10).is_err());
        let bad = vec![LdStation::new("s", 0.1, RateFunction::Custom(vec![0.0]))];
        assert!(load_dependent_mva(&bad, 1.0, 10).is_err());
        let bad = vec![LdStation::new("s", f64::NAN, RateFunction::SingleServer)];
        assert!(load_dependent_mva(&bad, 1.0, 10).is_err());
    }

    #[test]
    fn rate_function_accessors() {
        assert_eq!(RateFunction::SingleServer.rate(5), 1.0);
        assert_eq!(RateFunction::MultiServer(4).rate(2), 2.0);
        assert_eq!(RateFunction::MultiServer(4).rate(9), 4.0);
        assert_eq!(RateFunction::Delay.rate(7), 7.0);
        let c = RateFunction::Custom(vec![1.0, 1.5]);
        assert_eq!(c.rate(1), 1.0);
        assert_eq!(c.rate(2), 1.5);
        assert_eq!(c.rate(10), 1.5);
        assert_eq!(RateFunction::MultiServer(4).max_rate(), Some(4.0));
        assert_eq!(RateFunction::Delay.max_rate(), None);
    }
}
