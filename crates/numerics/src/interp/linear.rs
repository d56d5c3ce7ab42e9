//! Piecewise-linear interpolation — the baseline the paper compares cubic
//! splines against ("Compared to linear interpolation methods, spline
//! interpolation produces lower error at the cost of higher computational
//! complexity").

use super::{segment_index, Interpolant};
use crate::{validate_knots, NumericsError};

/// Piecewise-linear interpolant through `(xs, ys)`, clamped to the
/// boundary ordinates outside the knots.
#[derive(Debug, Clone)]
pub struct LinearInterp {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LinearInterp {
    /// Builds a linear interpolant. Requires at least 2 strictly increasing
    /// knots.
    pub fn new(xs: &[f64], ys: &[f64]) -> Result<Self, NumericsError> {
        validate_knots(xs, ys, 2)?;
        Ok(Self {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
        })
    }
}

impl Interpolant for LinearInterp {
    fn eval(&self, x: f64) -> f64 {
        let (lo, hi) = self.domain();
        if x <= lo {
            return *self.ys.first().expect("non-empty by construction");
        }
        if x >= hi {
            return *self.ys.last().expect("non-empty by construction");
        }
        let i = segment_index(&self.xs, x);
        let t = (x - self.xs[i]) / (self.xs[i + 1] - self.xs[i]);
        self.ys[i] + t * (self.ys[i + 1] - self.ys[i])
    }

    fn domain(&self) -> (f64, f64) {
        (
            *self.xs.first().expect("non-empty by construction"),
            *self.xs.last().expect("non-empty by construction"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_through_knots() {
        let xs = [0.0, 1.0, 3.0];
        let ys = [2.0, 4.0, -2.0];
        let li = LinearInterp::new(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!((li.eval(*x) - y).abs() < 1e-12);
        }
    }

    #[test]
    fn midpoints_are_averages() {
        let li = LinearInterp::new(&[0.0, 2.0], &[10.0, 20.0]).unwrap();
        assert!((li.eval(1.0) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn clamp_extrapolation_pegs_boundaries() {
        let li = LinearInterp::new(&[1.0, 2.0], &[5.0, 7.0]).unwrap();
        assert_eq!(li.eval(0.0), 5.0);
        assert_eq!(li.eval(9.0), 7.0);
    }

    #[test]
    fn rejects_single_point() {
        assert!(LinearInterp::new(&[1.0], &[1.0]).is_err());
    }
}
