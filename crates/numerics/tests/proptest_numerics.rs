//! Property-based tests of the numerical substrate: invariants that must
//! hold for arbitrary (valid) inputs, not just the hand-picked unit cases.
//!
//! Runs on the in-house deterministic harness (`mvasd_numerics::propcheck`)
//! instead of `proptest`, keeping the workspace dependency-free.

use mvasd_numerics::chebyshev::{chebyshev_error_bound_exponential, chebyshev_t};
use mvasd_numerics::dd::Dd;
use mvasd_numerics::erlang::{erlang_b, machine_repair};
use mvasd_numerics::interp::{
    BoundaryCondition, CubicSpline, Interpolant, LinearInterp, PchipInterp, SmoothingSpline,
};
use mvasd_numerics::optimize::{nelder_mead, NelderMeadOptions};
use mvasd_numerics::propcheck::{check, Config, Gen};
use mvasd_numerics::stats::{mean_pct_deviation, percentile};

fn cfg() -> Config {
    Config::default().cases(64)
}

/// Strictly increasing abscissae with positive ordinates.
fn gen_knots(g: &mut Gen, min: usize, max: usize) -> (Vec<f64>, Vec<f64>) {
    let len = g.usize_in(min, max);
    let mut x = 0.0;
    let mut xs = Vec::with_capacity(len);
    let mut ys = Vec::with_capacity(len);
    for _ in 0..len {
        x += g.f64_in(0.5, 50.0);
        xs.push(x);
        ys.push(g.f64_in(0.001, 2.0));
    }
    (xs, ys)
}

#[test]
fn cubic_spline_is_c1_c2_at_interior_knots() {
    check("cubic_spline_is_c1_c2_at_interior_knots", &cfg(), |g| {
        let (xs, ys) = gen_knots(g, 4, 10);
        let s = CubicSpline::new(&xs, &ys, BoundaryCondition::NotAKnot).unwrap();
        for &x in &xs[1..xs.len() - 1] {
            let eps = 1e-6 * (xs[xs.len() - 1] - xs[0]);
            let (_, d_lo, dd_lo, _) = s.eval_all(x - eps);
            let (_, d_hi, dd_hi, _) = s.eval_all(x + eps);
            let scale = d_lo.abs().max(1.0);
            assert!((d_lo - d_hi).abs() < 1e-3 * scale, "C1 at {x}");
            let dscale = dd_lo.abs().max(1.0);
            assert!((dd_lo - dd_hi).abs() < 2e-2 * dscale, "C2 at {x}");
        }
    });
}

#[test]
fn interpolants_pass_through_knots() {
    check("interpolants_pass_through_knots", &cfg(), |g| {
        let (xs, ys) = gen_knots(g, 3, 9);
        let c = CubicSpline::new(&xs, &ys, BoundaryCondition::Natural).unwrap();
        let p = PchipInterp::new(&xs, &ys).unwrap();
        let l = LinearInterp::new(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            let tol = 1e-8 * y.abs().max(1.0);
            assert!((c.eval(*x) - y).abs() < tol);
            assert!((p.eval(*x) - y).abs() < tol);
            assert!((l.eval(*x) - y).abs() < tol);
        }
    });
}

#[test]
fn pchip_stays_inside_local_envelope() {
    // Shape preservation: between two knots the PCHIP value never
    // leaves [min(y_i, y_{i+1}), max(y_i, y_{i+1})].
    check("pchip_stays_inside_local_envelope", &cfg(), |g| {
        let (xs, ys) = gen_knots(g, 3, 9);
        let p = PchipInterp::new(&xs, &ys).unwrap();
        for i in 0..xs.len() - 1 {
            let (lo, hi) = (ys[i].min(ys[i + 1]), ys[i].max(ys[i + 1]));
            for t in 1..10 {
                let x = xs[i] + (xs[i + 1] - xs[i]) * t as f64 / 10.0;
                let v = p.eval(x);
                assert!(
                    v >= lo - 1e-9 && v <= hi + 1e-9,
                    "x={x} v={v} in [{lo},{hi}]"
                );
            }
        }
    });
}

#[test]
fn smoothing_spline_objective_is_optimal() {
    // The fit must (weakly) beat the pure interpolant in its own
    // objective — the defining property of the minimizer.
    check("smoothing_spline_objective_is_optimal", &cfg(), |g| {
        let (xs, ys) = gen_knots(g, 4, 9);
        let lambda = g.f64_in(1e-6, 1.0);
        let smooth = SmoothingSpline::fit(&xs, &ys, lambda).unwrap();
        let interp = SmoothingSpline::fit(&xs, &ys, 0.0).unwrap();
        let interp_obj = interp.rss() + lambda * interp.roughness();
        assert!(smooth.objective() <= interp_obj + 1e-9 * (1.0 + interp_obj.abs()));
    });
}

#[test]
fn dd_add_sub_roundtrip() {
    check("dd_add_sub_roundtrip", &cfg(), |g| {
        let a = g.f64_in(-1e12, 1e12);
        let b = g.f64_in(-1e12, 1e12);
        let x = Dd::from_f64(a) + Dd::from_f64(b) - Dd::from_f64(b);
        assert!((x.to_f64() - a).abs() <= a.abs() * 1e-25 + 1e-280);
    });
}

#[test]
fn dd_mul_div_roundtrip() {
    check("dd_mul_div_roundtrip", &cfg(), |g| {
        let a = g.f64_in(-1e8, 1e8);
        let b = g.f64_in(1e-6, 1e8);
        let x = Dd::from_f64(a) * Dd::from_f64(b) / Dd::from_f64(b);
        assert!((x.to_f64() - a).abs() <= a.abs() * 1e-25 + 1e-280);
    });
}

#[test]
fn chebyshev_t_matches_trig() {
    check("chebyshev_t_matches_trig", &cfg(), |g| {
        let n = g.usize_in(0, 11);
        let theta = g.f64_in(0.0, std::f64::consts::PI);
        let x = theta.cos();
        let expected = (n as f64 * theta).cos();
        assert!((chebyshev_t(n, x) - expected).abs() < 1e-8);
    });
}

#[test]
fn chebyshev_error_bound_monotone_in_nodes() {
    check("chebyshev_error_bound_monotone_in_nodes", &cfg(), |g| {
        let mu = g.f64_in(0.1, 3.0);
        let mut prev = f64::INFINITY;
        for n in 1..=10 {
            let b = chebyshev_error_bound_exponential(n, mu).unwrap();
            assert!(b < prev);
            prev = b;
        }
    });
}

#[test]
fn erlang_b_bounded_and_monotone() {
    check("erlang_b_bounded_and_monotone", &cfg(), |g| {
        let servers = g.usize_in(1, 29);
        let load = g.f64_in(0.01, 50.0);
        let b = erlang_b(servers, load).unwrap();
        assert!((0.0..=1.0).contains(&b));
        // More servers => less blocking.
        let b_more = erlang_b(servers + 1, load).unwrap();
        assert!(b_more <= b + 1e-12);
        // More load => more blocking.
        let b_heavier = erlang_b(servers, load * 1.5).unwrap();
        assert!(b_heavier >= b - 1e-12);
    });
}

#[test]
fn machine_repair_conserves_population() {
    check("machine_repair_conserves_population", &cfg(), |g| {
        let n = g.usize_in(1, 199);
        let c = g.usize_in(1, 15);
        let s = g.f64_in(0.01, 1.0);
        let z = g.f64_in(0.1, 5.0);
        let (x, q) = machine_repair(n, c, s, z).unwrap();
        // N = X·Z + Q (population at think stage + at station).
        assert!((x * z + q - n as f64).abs() < 1e-6 * n as f64);
        // Throughput bounded by both population and capacity.
        assert!(x <= c as f64 / s + 1e-9);
        assert!(x <= n as f64 / z + 1e-9);
    });
}

#[test]
fn nelder_mead_minimizes_random_quadratic() {
    check("nelder_mead_minimizes_random_quadratic", &cfg(), |g| {
        let cx = g.f64_in(-50.0, 50.0);
        let cy = g.f64_in(-50.0, 50.0);
        let ax = g.f64_in(0.1, 10.0);
        let ay = g.f64_in(0.1, 10.0);
        let r = nelder_mead(
            |p| ax * (p[0] - cx).powi(2) + ay * (p[1] - cy).powi(2),
            &[0.0, 0.0],
            NelderMeadOptions {
                max_iterations: 5000,
                ..NelderMeadOptions::default()
            },
        )
        .unwrap();
        assert!((r.x[0] - cx).abs() < 1e-2, "{:?} vs ({cx},{cy})", r.x);
        assert!((r.x[1] - cy).abs() < 1e-2);
    });
}

#[test]
fn percentile_between_min_and_max() {
    check("percentile_between_min_and_max", &cfg(), |g| {
        let mut xs = g.vec_f64(1, 49, -1e6, 1e6);
        let p = g.f64_in(0.0, 100.0);
        let v = percentile(&xs, p).unwrap();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(v >= xs[0] - 1e-9);
        assert!(v <= xs[xs.len() - 1] + 1e-9);
    });
}

/// The sort-based definition that `percentile` must reproduce bit for bit.
fn sorted_percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = p / 100.0 * (sorted.len() as f64 - 1.0);
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = rank - lo as f64;
    Some(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

#[test]
fn percentile_matches_the_sort_based_definition_bitwise() {
    check(
        "percentile_matches_the_sort_based_definition_bitwise",
        &Config::default().cases(256),
        |g| {
            // Half the values come from a small pool, so ties (signed
            // zeros included) are common.
            let pool = [-0.0, 0.0, -3.5, 1e-300, 0.25, 2.0, 7.0, 1e6];
            let len = g.usize_in(0, 200);
            let xs: Vec<f64> = (0..len)
                .map(|_| {
                    if g.bool() {
                        *g.choose(&pool)
                    } else {
                        g.f64_in(-1e3, 1e3)
                    }
                })
                .collect();
            // Quartiles hit exact integer ranks whenever 4 divides len - 1.
            let p = *g.choose(&[0.0, 25.0, 50.0, 75.0, 95.0, 100.0, -1.0, 100.5]);
            let p = if g.bool() { p } else { g.f64_in(0.0, 100.0) };
            assert_eq!(
                percentile(&xs, p).map(f64::to_bits),
                sorted_percentile(&xs, p).map(f64::to_bits),
                "p = {p}, xs = {xs:?}"
            );
        },
    );
}

#[test]
fn pct_deviation_zero_iff_equal() {
    check("pct_deviation_zero_iff_equal", &cfg(), |g| {
        let xs = g.vec_f64(1, 19, 0.1, 1e6);
        let d = mean_pct_deviation(&xs, &xs).unwrap();
        assert!(d.abs() < 1e-12);
        // Scaling all predictions by 1.1 gives exactly 10 %.
        let scaled: Vec<f64> = xs.iter().map(|x| x * 1.1).collect();
        let d = mean_pct_deviation(&scaled, &xs).unwrap();
        assert!((d - 10.0).abs() < 1e-6);
    });
}
