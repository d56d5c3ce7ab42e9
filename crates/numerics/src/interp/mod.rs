//! Interpolation of sampled service-demand curves.
//!
//! The paper's MVASD algorithm needs a continuous function `h` through the
//! measured `(concurrency, demand)` points (its Algorithm 3 writes
//! `SSⁿ_k ← h(a_k, b_k, n)`). Scilab's `interp()` — a cubic spline with value
//! clamping outside the sampled range (paper eq. 14) — is reproduced by
//! [`CubicSpline`]. The other interpolants exist for the ablation studies:
//! linear ([`LinearInterp`]), monotone cubic ([`PchipInterp`], which cannot
//! overshoot) and the smoothing spline of paper eq. 12 ([`SmoothingSpline`]).
//! Every interpolant clamps outside its knots: `x < x₁ ⇒ y₁`, `x > xₙ ⇒ yₙ`,
//! so a demand measured at the highest tested concurrency persists beyond it.

mod cubic;
mod linear;
mod pchip;
mod smoothing;

pub use cubic::{BoundaryCondition, CubicSpline};
pub use linear::LinearInterp;
pub use pchip::PchipInterp;
pub use smoothing::SmoothingSpline;

/// A continuous function fitted through (or near) sampled points.
///
/// All implementations are immutable after construction and `Send + Sync`, so
/// they can be shared freely across experiment-sweep threads.
pub trait Interpolant: Send + Sync {
    /// Evaluates the interpolant at `x`, clamped to the boundary ordinate
    /// outside the knot range (paper eq. 14).
    fn eval(&self, x: f64) -> f64;

    /// The sampled abscissa range `[x₁, xₙ]`.
    fn domain(&self) -> (f64, f64);
}

/// Locates the segment index `i` such that `x ∈ [xs[i], xs[i+1]]`, clamping
/// to the first/last segment outside the range. `xs` must be strictly
/// increasing with `len ≥ 2` (guaranteed by interpolant constructors).
pub(crate) fn segment_index(xs: &[f64], x: f64) -> usize {
    debug_assert!(xs.len() >= 2);
    if xs.first().map_or(true, |&lo| x <= lo) {
        return 0;
    }
    let last = xs.len() - 2;
    if x >= xs[xs.len() - 1] {
        return last;
    }
    // partition_point returns the first index with xs[i] > x, so the segment
    // start is one before it.
    let idx = xs.partition_point(|&k| k <= x);
    (idx - 1).min(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_lookup_interior_and_boundaries() {
        let xs = [0.0, 1.0, 2.0, 4.0];
        assert_eq!(segment_index(&xs, -1.0), 0);
        assert_eq!(segment_index(&xs, 0.0), 0);
        assert_eq!(segment_index(&xs, 0.5), 0);
        assert_eq!(segment_index(&xs, 1.0), 1);
        assert_eq!(segment_index(&xs, 1.5), 1);
        assert_eq!(segment_index(&xs, 3.9), 2);
        assert_eq!(segment_index(&xs, 4.0), 2);
        assert_eq!(segment_index(&xs, 99.0), 2);
    }

    #[test]
    fn segment_lookup_two_points() {
        let xs = [10.0, 20.0];
        assert_eq!(segment_index(&xs, 5.0), 0);
        assert_eq!(segment_index(&xs, 15.0), 0);
        assert_eq!(segment_index(&xs, 25.0), 0);
    }
}
