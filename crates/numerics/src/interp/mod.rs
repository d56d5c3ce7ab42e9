//! Interpolation of sampled service-demand curves.
//!
//! The paper's MVASD algorithm needs a continuous function `h` through the
//! measured `(concurrency, demand)` points (its Algorithm 3 writes
//! `SSⁿ_k ← h(a_k, b_k, n)`). Scilab's `interp()` — a cubic spline with value
//! clamping outside the sampled range (paper eq. 14) — is reproduced by
//! [`CubicSpline`] with [`Extrapolation::Clamp`]. The other interpolants
//! exist for the ablation studies: linear ([`LinearInterp`]), monotone cubic
//! ([`PchipInterp`], which cannot overshoot) and the smoothing spline of
//! paper eq. 12 ([`SmoothingSpline`]).

mod cubic;
mod linear;
mod pchip;
mod smoothing;

pub use cubic::{BoundaryCondition, CubicSpline};
pub use linear::LinearInterp;
pub use pchip::PchipInterp;
pub use smoothing::SmoothingSpline;

/// Behaviour outside the sampled abscissa range `[x₁, xₙ]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Extrapolation {
    /// Peg to the boundary ordinate: `x < x₁ ⇒ y₁`, `x > xₙ ⇒ yₙ`.
    ///
    /// This is paper eq. 14 and the MVASD default: a demand measured at the
    /// highest tested concurrency is assumed to persist beyond it.
    #[default]
    Clamp,
    /// Evaluate the boundary polynomial piece outside the range (natural
    /// extension). Risky for demand curves — a falling spline can cross zero.
    Extend,
    /// Continue linearly with the boundary slope.
    Linear,
}

/// A continuous function fitted through (or near) sampled points.
///
/// All implementations are immutable after construction and `Send + Sync`, so
/// they can be shared freely across experiment-sweep threads.
pub trait Interpolant: Send + Sync {
    /// Evaluates the interpolant at `x`.
    fn eval(&self, x: f64) -> f64;

    /// First derivative at `x`. Outside the knot range, consistent with the
    /// extrapolation mode (0 for `Clamp`, boundary slope for `Linear`).
    fn deriv(&self, x: f64) -> f64;

    /// The sampled abscissa range `[x₁, xₙ]`.
    fn domain(&self) -> (f64, f64);

    /// Evaluates at many points (convenience for table generation).
    fn eval_many(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.eval(x)).collect()
    }
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

    #[test]
    fn extrapolation_default_is_clamp() {
        assert_eq!(Extrapolation::default(), Extrapolation::Clamp);
    }
}
