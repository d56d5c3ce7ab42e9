//! # mvasd-numerics
//!
//! Numerical substrate for the MVASD performance-modeling suite.
//!
//! The paper ("Performance Modeling of Multi-tiered Web Applications with
//! Varying Service Demands", Kattepur & Nambiar) relies on Scilab's `interp()`
//! for cubic-spline interpolation of measured service demands (its eq. 12–14),
//! on Chebyshev Nodes for load-test sample placement (eq. 16–19), and on mean
//! percentage deviation for accuracy reporting (eq. 15). This crate provides
//! those building blocks from scratch, plus the supporting linear algebra
//! (tridiagonal / pentadiagonal banded solvers), classic polynomial
//! interpolation (to demonstrate the Runge phenomenon the paper cites), and
//! Erlang B/C closed forms used to validate the queueing solvers elsewhere in
//! the workspace.
//!
//! ## Module map
//!
//! * [`banded`] — Thomas tridiagonal solver and a symmetric pentadiagonal
//!   LDLᵀ solver (used by the smoothing spline).
//! * [`dd`] — double-double (~106-bit) arithmetic; stabilizes the exact
//!   multi-server MVA recursions against their knee-region round-off
//!   amplification.
//! * [`interp`] — the [`interp::Interpolant`] trait and implementations:
//!   linear, natural/clamped/not-a-knot cubic splines with derivatives,
//!   monotone cubic (PCHIP), smoothing spline (paper eq. 12), and Newton-form
//!   polynomial interpolation.
//! * [`chebyshev`] — Chebyshev nodes on `(-1,1)` and `[a,b]` (paper
//!   eq. 16–17), Chebyshev polynomials, and the interpolation error bound
//!   (paper eq. 18–19).
//! * [`optimize`] — Nelder–Mead simplex minimization (used by the
//!   curve-fitting extrapolation baseline).
//! * [`stats`] — descriptive statistics and the mean percentage deviation
//!   metric of paper eq. 15.
//! * [`erlang`] — Erlang B/C formulas and M/M/c performance metrics.
//! * [`rng`] — deterministic xoshiro256++ pseudo-random generation with
//!   SplitMix64 seeding; uniform / exponential / Box–Muller normal
//!   variates. The whole workspace draws from here (zero-dependency
//!   policy: no `rand`).
//! * [`propcheck`] — a small deterministic property-test harness (seeded
//!   case generation, tape-based bounded shrinking) replacing `proptest`.
//! * [`pool`] — scoped-thread indexed fan-out ([`pool::scoped_indexed`]);
//!   the shared parallel substrate for scenario sweeps and testbed
//!   campaigns (zero-dependency policy: no `rayon`/`crossbeam`).
//!
//! ## Quick example
//!
//! ```
//! use mvasd_numerics::interp::{CubicSpline, BoundaryCondition, Extrapolation, Interpolant};
//!
//! // Measured service demands (seconds) at a few concurrency levels.
//! let n = [1.0, 14.0, 28.0, 70.0, 140.0];
//! let d = [0.0150, 0.0139, 0.0131, 0.0122, 0.0118];
//! let spline = CubicSpline::new(&n, &d, BoundaryCondition::NotAKnot)
//!     .unwrap()
//!     .with_extrapolation(Extrapolation::Clamp);
//! let d_at_100 = spline.eval(100.0);
//! assert!(d_at_100 > 0.0118 && d_at_100 < 0.0131);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banded;
pub mod chebyshev;
pub mod dd;
pub mod erlang;
pub mod interp;
pub mod optimize;
pub mod pool;
pub mod propcheck;
pub mod rng;
pub mod stats;

/// Errors produced while constructing numerical objects.
///
/// Evaluation paths are kept panic- and error-free; all validation happens at
/// construction time so hot loops (MVA iterations, DES event handlers) can
/// call `eval` without branching on `Result`s.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// Fewer data points than the method requires.
    TooFewPoints {
        /// Points required by the method.
        needed: usize,
        /// Points actually supplied.
        got: usize,
    },
    /// `xs` and `ys` differ in length.
    LengthMismatch {
        /// Length of the abscissa slice.
        xs: usize,
        /// Length of the ordinate slice.
        ys: usize,
    },
    /// Abscissae are not strictly increasing.
    NotStrictlyIncreasing {
        /// Index of the offending element (`xs[index] >= xs[index + 1]` fails).
        index: usize,
    },
    /// A value that must be finite was NaN or infinite.
    NonFinite {
        /// Human-readable description of which input was non-finite.
        what: &'static str,
    },
    /// A parameter was outside its legal domain.
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        what: &'static str,
    },
    /// A linear system was singular (or numerically so).
    SingularSystem,
}

impl core::fmt::Display for NumericsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NumericsError::TooFewPoints { needed, got } => {
                write!(f, "too few points: need at least {needed}, got {got}")
            }
            NumericsError::LengthMismatch { xs, ys } => {
                write!(f, "length mismatch: xs has {xs} elements, ys has {ys}")
            }
            NumericsError::NotStrictlyIncreasing { index } => {
                write!(f, "abscissae not strictly increasing at index {index}")
            }
            NumericsError::NonFinite { what } => write!(f, "non-finite input: {what}"),
            NumericsError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            NumericsError::SingularSystem => write!(f, "singular linear system"),
        }
    }
}

impl std::error::Error for NumericsError {}

/// Validates a knot set: equal lengths, at least `min_points`, strictly
/// increasing finite abscissae, finite ordinates.
pub(crate) fn validate_knots(
    xs: &[f64],
    ys: &[f64],
    min_points: usize,
) -> Result<(), NumericsError> {
    if xs.len() != ys.len() {
        return Err(NumericsError::LengthMismatch {
            xs: xs.len(),
            ys: ys.len(),
        });
    }
    if xs.len() < min_points {
        return Err(NumericsError::TooFewPoints {
            needed: min_points,
            got: xs.len(),
        });
    }
    if xs.iter().any(|x| !x.is_finite()) {
        return Err(NumericsError::NonFinite { what: "abscissa" });
    }
    if ys.iter().any(|y| !y.is_finite()) {
        return Err(NumericsError::NonFinite { what: "ordinate" });
    }
    for i in 0..xs.len() - 1 {
        if xs[i] >= xs[i + 1] {
            return Err(NumericsError::NotStrictlyIncreasing { index: i });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_good_knots() {
        assert!(validate_knots(&[0.0, 1.0, 2.0], &[5.0, 4.0, 3.0], 3).is_ok());
    }

    #[test]
    fn validate_rejects_mismatched_lengths() {
        assert_eq!(
            validate_knots(&[0.0, 1.0], &[1.0], 2),
            Err(NumericsError::LengthMismatch { xs: 2, ys: 1 })
        );
    }

    #[test]
    fn validate_rejects_too_few() {
        assert_eq!(
            validate_knots(&[0.0], &[1.0], 2),
            Err(NumericsError::TooFewPoints { needed: 2, got: 1 })
        );
    }

    #[test]
    fn validate_rejects_unsorted() {
        assert_eq!(
            validate_knots(&[0.0, 2.0, 1.0], &[1.0, 2.0, 3.0], 2),
            Err(NumericsError::NotStrictlyIncreasing { index: 1 })
        );
    }

    #[test]
    fn validate_rejects_duplicates() {
        assert_eq!(
            validate_knots(&[0.0, 1.0, 1.0], &[1.0, 2.0, 3.0], 2),
            Err(NumericsError::NotStrictlyIncreasing { index: 1 })
        );
    }

    #[test]
    fn validate_rejects_nan() {
        assert_eq!(
            validate_knots(&[0.0, f64::NAN], &[1.0, 2.0], 2),
            Err(NumericsError::NonFinite { what: "abscissa" })
        );
        assert_eq!(
            validate_knots(&[0.0, 1.0], &[1.0, f64::INFINITY], 2),
            Err(NumericsError::NonFinite { what: "ordinate" })
        );
    }

    #[test]
    fn error_display_is_informative() {
        let msgs = [
            NumericsError::TooFewPoints { needed: 4, got: 2 }.to_string(),
            NumericsError::LengthMismatch { xs: 3, ys: 2 }.to_string(),
            NumericsError::NotStrictlyIncreasing { index: 0 }.to_string(),
            NumericsError::NonFinite { what: "lambda" }.to_string(),
            NumericsError::InvalidParameter { what: "n >= 1" }.to_string(),
            NumericsError::SingularSystem.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
