//! Asymptotic throughput/response bounds for closed networks.
//!
//! Sanity envelopes around the MVA solutions (paper eq. 5–6): every exact
//! or approximate solver output in this workspace is property-tested
//! against these bounds, and the capacity-planning example uses them for
//! quick feasibility checks before running a solver.
//!
//! * The **optimistic** side combines the low-population limit
//!   `X ≤ n/(D + Z)` (no queueing anywhere) with the Bottleneck Law
//!   `X ≤ 1/max_k(D_k/C_k)`, both over **effective demands** `D_k/C_k`:
//!   no station serves faster than all its servers together.
//! * The **pessimistic** side is the classic single-server bound of the
//!   **one-server network**: every queueing station replaced by one server
//!   of its raw per-visit demand `D_k` (`D_k/min_j α_k(j)` for a
//!   load-dependent station, its slowest rate). That network can only be
//!   slower, and in it every one of the other `n − 1` customers may queue
//!   ahead at the bottleneck: `R ≤ D + (n−1)·D_max`, hence
//!   `X ≥ n/(D + Z + (n−1)·D_max)`. Effective demands are not safe here:
//!   at `n = 1` a lone customer gets one server at a `C`-server station,
//!   so `1/(Σ D_k/C_k + Z)` would sit above the exact `1/(Σ D_k + Z)`.
//!
//! Tighter balanced-job bounds exist (Zahorjan et al. 1982) but their
//! terminal-workload, multi-server generalizations are easy to get subtly
//! wrong; since these bounds gate property tests, we deliberately keep the
//! provably safe forms.

use crate::network::{ClosedNetwork, Station, StationKind};

/// Throughput envelope at population `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputBounds {
    /// Optimistic bound `min(n / (D + Z), 1 / max(D_k/C_k))` over
    /// effective demands.
    pub upper: f64,
    /// Pessimistic bound `n / (D + Z + (n−1)·D_max)` over the one-server
    /// network's raw demands.
    pub lower: f64,
}

/// Response-time envelope at population `n` (system response, excluding
/// think time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseBounds {
    /// `max(D, n·max(D_k/C_k) − Z)` over effective demands (paper eq. 6
    /// generalized).
    pub lower: f64,
    /// `D + (n−1)·D_max` over the one-server network's raw demands — full
    /// queueing at the bottleneck.
    pub upper: f64,
}

/// `(D_total, D_max)` over effective demands `D_k/C_k`: the optimistic side.
fn effective_summary(net: &ClosedNetwork) -> (f64, f64) {
    let ds = net.stations().iter().map(|s| s.effective_demand());
    ds.fold((0.0, 0.0f64), |(total, max), d| (total + d, max.max(d)))
}

/// A station's demand in the one-server network: its slowest per-customer
/// service, `D_k` for queueing and delay stations and `D_k/min_j α_k(j)`
/// for a load-dependent one.
fn one_server_demand(s: &Station) -> f64 {
    match &s.kind {
        StationKind::LoadDependent { rates } => {
            s.demand() / rates.iter().copied().fold(f64::INFINITY, f64::min)
        }
        StationKind::Queueing { .. } | StationKind::Delay => s.demand(),
    }
}

/// `(D_total, D_max)` of the one-server network: the pessimistic side.
/// Delay stations never queue, so they stay out of `D_max`.
fn one_server_summary(net: &ClosedNetwork) -> (f64, f64) {
    let d_total = net.stations().iter().map(one_server_demand).sum();
    let d_max = net
        .stations()
        .iter()
        .filter(|s| !matches!(s.kind, StationKind::Delay))
        .map(one_server_demand)
        .fold(0.0, f64::max);
    (d_total, d_max)
}

/// Asymptotic throughput bounds at population `n` (module docs for the
/// derivation).
pub fn throughput_bounds(net: &ClosedNetwork, n: usize) -> ThroughputBounds {
    let (d_eff, d_eff_max) = effective_summary(net);
    let (d_one, d_one_max) = one_server_summary(net);
    let z = net.think_time();
    let nf = n as f64;
    let upper = (nf / (d_eff + z)).min(if d_eff_max > 0.0 {
        1.0 / d_eff_max
    } else {
        f64::INFINITY
    });
    let lower = nf / (d_one + z + (nf - 1.0) * d_one_max);
    ThroughputBounds { upper, lower }
}

/// Asymptotic response bounds at population `n` (module docs for the
/// derivation).
pub fn response_bounds(net: &ClosedNetwork, n: usize) -> ResponseBounds {
    let (d_eff, d_eff_max) = effective_summary(net);
    let (d_one, d_one_max) = one_server_summary(net);
    let nf = n as f64;
    let lower = d_eff.max(nf * d_eff_max - net.think_time());
    let upper = d_one + (nf - 1.0) * d_one_max;
    ResponseBounds { lower, upper }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Station;

    fn net() -> ClosedNetwork {
        ClosedNetwork::new(
            vec![
                Station::queueing("a", 1, 1.0, 0.02),
                Station::queueing("b", 1, 1.0, 0.01),
            ],
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn single_customer_bounds_are_tight() {
        let n = net();
        let tb = throughput_bounds(&n, 1);
        let rb = response_bounds(&n, 1);
        // n = 1: X = 1/(D+Z) exactly; both bounds must pinch it.
        let x = 1.0 / (0.03 + 1.0);
        assert!((tb.upper - x).abs() < 1e-12);
        assert!((tb.lower - x).abs() < 1e-12);
        assert!((rb.lower - 0.03).abs() < 1e-12);
        assert!((rb.upper - 0.03).abs() < 1e-12);
    }

    #[test]
    fn upper_bound_saturates_at_bottleneck() {
        let n = net();
        let tb = throughput_bounds(&n, 10_000);
        assert!((tb.upper - 50.0).abs() < 1e-9); // 1/0.02
    }

    #[test]
    fn lower_below_upper_everywhere() {
        let n = net();
        for pop in [1usize, 2, 5, 10, 50, 100, 1000] {
            let tb = throughput_bounds(&n, pop);
            let rb = response_bounds(&n, pop);
            assert!(tb.lower <= tb.upper + 1e-12, "pop {pop}");
            assert!(rb.lower <= rb.upper + 1e-12, "pop {pop}");
        }
    }

    #[test]
    fn multiserver_effective_demand_raises_ceiling() {
        let single = ClosedNetwork::new(vec![Station::queueing("cpu", 1, 1.0, 0.02)], 0.5).unwrap();
        let multi = ClosedNetwork::new(vec![Station::queueing("cpu", 4, 1.0, 0.02)], 0.5).unwrap();
        let ts = throughput_bounds(&single, 10_000).upper;
        let tm = throughput_bounds(&multi, 10_000).upper;
        assert!((ts - 50.0).abs() < 1e-9);
        assert!((tm - 200.0).abs() < 1e-9);
    }

    /// One customer gets one server at a 16-core station, so the exact
    /// `X(1) = 1/(Σ D + Z)`. The pessimistic side must not sit above it,
    /// as the effective-demand form `1/(Σ D/C + Z)` did.
    #[test]
    fn pessimistic_side_holds_for_multiserver_at_n1() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu16", 16, 1.0, 0.16),
                Station::queueing("disk", 1, 1.0, 0.004),
                Station::delay("lan", 1.0, 0.002),
            ],
            1.0,
        )
        .unwrap();
        let exact = crate::mva::multiserver_mva(&net, 1).unwrap();
        let p = exact.at(1).unwrap();
        let tb = throughput_bounds(&net, 1);
        let rb = response_bounds(&net, 1);
        assert!((p.throughput - 1.0 / 1.166).abs() < 1e-12);
        assert!(tb.lower <= p.throughput * (1.0 + 1e-12), "{tb:?} vs {p:?}");
        assert!(rb.upper >= p.response * (1.0 - 1e-12), "{rb:?} vs {p:?}");
        // A lone customer is served at rate one everywhere: both are tight.
        assert!((tb.lower - p.throughput).abs() < 1e-12);
        assert!((rb.upper - p.response).abs() < 1e-12);
        assert!(tb.lower < 1.0 / (0.16 / 16.0 + 0.004 + 0.002 + 1.0));
    }

    #[test]
    fn load_dependent_pessimistic_side_uses_the_slowest_rate() {
        // Rates below 1 slow a lone customer down: D / 0.5 per visit.
        let net = ClosedNetwork::new(
            vec![Station::load_dependent(
                "fes",
                1.0,
                0.1,
                vec![0.5, 1.0, 2.0],
            )],
            1.0,
        )
        .unwrap();
        let tb = throughput_bounds(&net, 1);
        let exact = crate::mva::multiserver_mva(&net, 1).unwrap();
        assert!(tb.lower <= exact.at(1).unwrap().throughput * (1.0 + 1e-12));
        assert!((tb.lower - 1.0 / 1.2).abs() < 1e-12);
    }

    #[test]
    fn response_lower_grows_linearly_past_knee() {
        let n = net();
        let r1 = response_bounds(&n, 100).lower;
        let r2 = response_bounds(&n, 200).lower;
        // Past the knee the slope is D_max per customer.
        assert!((r2 - r1 - 100.0 * 0.02).abs() < 1e-9);
    }
}
