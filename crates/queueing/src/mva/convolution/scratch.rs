//! The from-scratch (pre-workspace) convolution evaluation, kept as the
//! reference implementation.
//!
//! Everything here rebuilds the full log-domain factor columns and
//! prefix/suffix partial convolutions on every call — `O(K·n²)` work and
//! `O(K·n)` fresh allocation per population. The incremental
//! [`super::workspace::ConvWorkspace`] replaces it on every hot path; this
//! module survives for two jobs:
//!
//! 1. **Oracle** — the propcheck suites assert the workspace agrees with
//!    this independent evaluation to 1e-12 across random networks.
//! 2. **Benchmark oracle** — the `saturating_600` benchmark workload
//!    checks its throughputs against [`reference_solve_at`], and
//!    `benches/convolution.rs` times it (`scratch_solve_at/N`).

use super::super::loaddep::{validate_stations, LdStation, RateFunction};
use super::PointSolution;
use crate::QueueingError;

/// `ln Σ exp(aᵢ)` over the pairwise products of a convolution cell:
/// `c(n) = ln Σ_j exp(a(j) + b(n−j))`, skipping `−∞` terms. Two passes:
/// max first, then the scaled sum.
pub(crate) fn log_conv_cell(a: &[f64], b: &[f64], n: usize) -> f64 {
    let lo = n.saturating_sub(b.len() - 1);
    let hi = n.min(a.len() - 1);
    let mut m = f64::NEG_INFINITY;
    for j in lo..=hi {
        let t = a[j] + b[n - j];
        if t > m {
            m = t;
        }
    }
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let mut acc = 0.0;
    for j in lo..=hi {
        let t = a[j] + b[n - j];
        if t > f64::NEG_INFINITY {
            // lint: log-domain-ok reference-oracle log-sum-exp, cold path by design
            acc += (t - m).exp();
        }
    }
    // lint: log-domain-ok reference-oracle log-sum-exp, cold path by design
    m + acc.ln()
}

/// Full log-domain convolution `c = a ⊛ b` truncated at `n_max`.
fn log_convolve(a: &[f64], b: &[f64], n_max: usize) -> Vec<f64> {
    (0..=n_max).map(|n| log_conv_cell(a, b, n)).collect()
}

/// `ln f_k(j)` for `j = 0..=n_max`.
fn log_factors(demand: f64, rate: &RateFunction, n_max: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n_max + 1);
    out.push(0.0); // ln f(0) = ln 1
    if demand <= 0.0 {
        out.resize(n_max + 1, f64::NEG_INFINITY);
        return out;
    }
    // lint: log-domain-ok rebuilding log factor columns is this oracle's whole job
    let ld = demand.ln();
    let mut acc = 0.0;
    for j in 1..=n_max {
        // lint: log-domain-ok rebuilding log factor columns is this oracle's whole job
        acc += ld - rate.rate(j).ln();
        out.push(acc);
    }
    out
}

/// `ln f_Z(j) = j·ln Z − ln j!`.
fn log_think_factors(z: f64, n_max: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n_max + 1);
    out.push(0.0);
    if z <= 0.0 {
        out.resize(n_max + 1, f64::NEG_INFINITY);
        return out;
    }
    // lint: log-domain-ok rebuilding log think factors is this oracle's whole job
    let lz = z.ln();
    let mut acc = 0.0;
    for j in 1..=n_max {
        // lint: log-domain-ok rebuilding log think factors is this oracle's whole job
        acc += lz - (j as f64).ln();
        out.push(acc);
    }
    out
}

/// Solves only the top population `n`, rebuilding everything from scratch.
/// This is the pre-workspace quasi-static path, verbatim.
pub(crate) fn solve_at(
    stations: &[LdStation],
    think_time: f64,
    n: usize,
    marginal_limits: &[usize],
) -> Result<PointSolution, QueueingError> {
    if stations.is_empty() {
        return Err(QueueingError::EmptyNetwork);
    }
    if n == 0 {
        return Err(QueueingError::InvalidParameter {
            what: "population must be >= 1",
        });
    }
    let k_count = stations.len();
    let mut factors: Vec<Vec<f64>> = stations
        .iter()
        .map(|s| log_factors(s.demand, &s.rate, n))
        .collect();
    factors.push(log_think_factors(think_time, n));
    let total = factors.len();

    let identity = {
        let mut v = vec![f64::NEG_INFINITY; n + 1];
        v[0] = 0.0;
        v
    };
    let mut prefix: Vec<Vec<f64>> = Vec::with_capacity(total + 1);
    prefix.push(identity.clone());
    for f in factors.iter() {
        let last = prefix.last().expect("non-empty");
        prefix.push(log_convolve(last, f, n));
    }
    let mut suffix: Vec<Vec<f64>> = vec![identity; total + 1];
    for i in (0..total).rev() {
        suffix[i] = log_convolve(&factors[i], &suffix[i + 1], n);
    }
    let g = &prefix[total];
    // lint: log-domain-ok throughput leaves log domain once, at the very end
    let x = (g[n - 1] - g[n]).exp();

    let mut queues = vec![0.0f64; k_count];
    let mut marginals: Vec<Vec<f64>> = Vec::with_capacity(k_count);
    for k in 0..k_count {
        let limit = marginal_limits.get(k).copied().unwrap_or(0);
        if matches!(stations[k].rate, RateFunction::Delay) && limit == 0 {
            queues[k] = x * stations[k].demand;
            marginals.push(Vec::new());
            continue;
        }
        let g_minus = log_convolve(&prefix[k], &suffix[k + 1], n);
        let fk = &factors[k];
        let mut q = 0.0;
        let mut snap = vec![0.0f64; limit];
        for j in 0..=n {
            let lp = fk[j] + g_minus[n - j] - g[n];
            if lp > -700.0 {
                // lint: log-domain-ok marginal probabilities leave log domain at output
                let p = lp.exp();
                q += j as f64 * p;
                if j < limit {
                    snap[j] = p;
                }
            }
        }
        queues[k] = q;
        marginals.push(snap);
    }
    Ok((x, queues, marginals))
}

/// Public face of the reference path: from-scratch single-population solve
/// over validated [`LdStation`]s. Exists so benchmarks and property tests
/// outside this crate can compare the incremental workspace against an
/// independent evaluation.
pub fn reference_solve_at(
    stations: &[LdStation],
    think_time: f64,
    n: usize,
    marginal_limits: &[usize],
) -> Result<PointSolution, QueueingError> {
    validate_stations(stations, think_time)?;
    solve_at(stations, think_time, n, marginal_limits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(name: &str, demand: f64, rate: RateFunction) -> LdStation {
        LdStation::new(name, demand, rate)
    }

    #[test]
    fn scratch_solve_at_matches_machine_repair() {
        for (c, d, z) in [(1usize, 0.25f64, 1.0f64), (4, 0.25, 1.0), (16, 0.16, 1.0)] {
            let stations = vec![st("s", d, RateFunction::MultiServer(c))];
            for n in [1usize, 7, 50, 200] {
                let (x, q, _) = solve_at(&stations, z, n, &[c]).unwrap();
                let (xe, qe) = mvasd_numerics::erlang::machine_repair(n, c, d, z).unwrap();
                assert!((x - xe).abs() <= 1e-9 * xe.max(1.0), "c={c} n={n}");
                assert!((q[0] - qe).abs() <= 1e-7 * qe.max(1.0), "c={c} n={n}");
            }
        }
    }

    #[test]
    fn scratch_rejects_bad_inputs() {
        assert!(solve_at(&[], 1.0, 5, &[]).is_err());
        let s = vec![st("s", 0.1, RateFunction::SingleServer)];
        assert!(solve_at(&s, 1.0, 0, &[0]).is_err());
    }

    #[test]
    fn reference_face_validates_and_solves() {
        let good = [LdStation::new("s", 0.1, RateFunction::SingleServer)];
        let (x, _, _) = reference_solve_at(&good, 1.0, 10, &[0]).unwrap();
        assert!(x > 0.0 && x.is_finite());
        let bad = [LdStation::new("s", -1.0, RateFunction::SingleServer)];
        assert!(reference_solve_at(&bad, 1.0, 10, &[0]).is_err());
    }
}
