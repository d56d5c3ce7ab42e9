//! Service-demand profiles: the interpolated demand arrays of Algorithm 3.
//!
//! A profile owns, per station, the continuous function `h_k` built from the
//! measured `(level, demand)` samples — the paper's
//! `SSⁿ_k ← h(a_k, b_k, n)`. The interpolation family is pluggable (the
//! paper uses cubic splines; linear/PCHIP/smoothing exist for the
//! ablations), and the abscissa can be either **concurrency** (the paper's
//! main model) or **throughput** (Section 7 / Fig. 11, "more tractable …
//! when using open systems"). Outside the sampled range the profile clamps
//! to the boundary demand (paper eq. 14).

use mvasd_numerics::interp::{
    BoundaryCondition, CubicSpline, Extrapolation, Interpolant, LinearInterp, PchipInterp,
    SmoothingSpline,
};
use std::sync::Arc;

use crate::CoreError;

/// Which interpolant family builds `h_k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InterpolationKind {
    /// Piecewise linear (the paper's cheap baseline).
    Linear,
    /// Natural cubic spline.
    CubicNatural,
    /// Not-a-knot cubic spline (Scilab `interp()`-like; the paper's choice).
    CubicNotAKnot,
    /// Monotone cubic (never overshoots the samples).
    Pchip,
    /// Smoothing spline with parameter `lambda` (paper eq. 12).
    Smoothing {
        /// Roughness-penalty weight λ ≥ 0.
        lambda: f64,
    },
}

/// What the demand samples are indexed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandAxis {
    /// Demand as a function of concurrency `n` (paper Algorithm 3).
    Concurrency,
    /// Demand as a function of system throughput `X` (paper Fig. 11); the
    /// solver then feeds back the previous iteration's throughput.
    Throughput,
}

/// Raw measured demand samples, decoupled from any testbed type so the
/// algorithm layer stays pure math.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandSamples {
    /// Station names, network order.
    pub station_names: Vec<String>,
    /// Servers per station (`C_k`).
    pub server_counts: Vec<usize>,
    /// Workload think time `Z`.
    pub think_time: f64,
    /// Sampled abscissae (concurrency levels or throughputs), ascending.
    pub levels: Vec<f64>,
    /// `demands[k][i]` = demand of station `k` at `levels[i]` (seconds).
    pub demands: Vec<Vec<f64>>,
}

impl DemandSamples {
    /// Restricts the samples to the subset of levels at positions `keep`
    /// (used by the sample-count ablation of paper Fig. 12).
    pub fn subset(&self, keep: &[usize]) -> Result<DemandSamples, CoreError> {
        if keep.is_empty() || keep.iter().any(|&i| i >= self.levels.len()) {
            return Err(CoreError::InvalidParameter {
                what: "subset indices out of range or empty",
            });
        }
        Ok(DemandSamples {
            station_names: self.station_names.clone(),
            server_counts: self.server_counts.clone(),
            think_time: self.think_time,
            levels: keep.iter().map(|&i| self.levels[i]).collect(),
            demands: self
                .demands
                .iter()
                .map(|row| keep.iter().map(|&i| row[i]).collect())
                .collect(),
        })
    }

    fn validate(&self) -> Result<(), CoreError> {
        let k = self.station_names.len();
        if k == 0 {
            return Err(CoreError::InvalidParameter {
                what: "need at least one station",
            });
        }
        if self.server_counts.len() != k || self.demands.len() != k {
            return Err(CoreError::InvalidParameter {
                what: "station_names, server_counts and demands must have equal length",
            });
        }
        if self.server_counts.contains(&0) {
            return Err(CoreError::InvalidParameter {
                what: "server counts must be >= 1",
            });
        }
        if !(self.think_time.is_finite() && self.think_time >= 0.0) {
            return Err(CoreError::InvalidParameter {
                what: "think time must be finite and >= 0",
            });
        }
        if self.levels.is_empty() {
            return Err(CoreError::InvalidParameter {
                what: "need at least one sampled level",
            });
        }
        for row in &self.demands {
            if row.len() != self.levels.len() {
                return Err(CoreError::InvalidParameter {
                    what: "each station needs one demand per level",
                });
            }
            if row.iter().any(|d| !(d.is_finite() && *d >= 0.0)) {
                return Err(CoreError::InvalidParameter {
                    what: "demands must be finite and >= 0",
                });
            }
        }
        // lint: float-eq-ok validation rejects the exact all-zero-demand, zero-think-time input
        if self.think_time == 0.0 && self.demands.iter().flatten().all(|&d| d == 0.0) {
            return Err(CoreError::InvalidParameter {
                what: "network needs positive demand or think time",
            });
        }
        Ok(())
    }
}

/// One station's interpolated demand function.
#[derive(Clone)]
pub struct StationProfile {
    /// Station name.
    pub name: String,
    /// Server count `C_k`.
    pub servers: usize,
    interp: Arc<dyn Interpolant>,
}

impl std::fmt::Debug for StationProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StationProfile")
            .field("name", &self.name)
            .field("servers", &self.servers)
            .field("domain", &self.interp.domain())
            .finish()
    }
}

impl StationProfile {
    /// Interpolated demand at abscissa `x` (clamped outside the sampled
    /// range per paper eq. 14). Negative interpolation artifacts are
    /// floored at zero — a demand cannot be negative.
    pub fn demand_at(&self, x: f64) -> f64 {
        self.interp.eval(x).max(0.0)
    }

    /// Slope of the interpolated demand (the paper updates "the slope of
    /// estimated throughput … as a function of the service demand slope").
    pub fn demand_slope_at(&self, x: f64) -> f64 {
        self.interp.deriv(x)
    }
}

/// The full interpolated demand model handed to the MVASD solver.
///
/// Cloning is cheap: the per-station interpolants are shared behind `Arc`.
#[derive(Debug, Clone)]
pub struct ServiceDemandProfile {
    stations: Vec<StationProfile>,
    think_time: f64,
    axis: DemandAxis,
    levels: Vec<f64>,
}

impl ServiceDemandProfile {
    /// Builds the profile from measured samples.
    ///
    /// With a single sampled level the profile degenerates to constant
    /// demands (MVASD then coincides with Algorithm 2, which is exactly the
    /// paper's MVA·i given demands sampled at level i).
    pub fn from_samples(
        samples: &DemandSamples,
        kind: InterpolationKind,
        axis: DemandAxis,
    ) -> Result<Self, CoreError> {
        samples.validate()?;
        let mut stations = Vec::with_capacity(samples.station_names.len());
        for (k, name) in samples.station_names.iter().enumerate() {
            let interp = build_interpolant(&samples.levels, &samples.demands[k], kind)?;
            stations.push(StationProfile {
                name: name.clone(),
                servers: samples.server_counts[k],
                interp,
            });
        }
        Ok(Self {
            stations,
            think_time: samples.think_time,
            axis,
            levels: samples.levels.clone(),
        })
    }

    /// The per-station profiles.
    pub fn stations(&self) -> &[StationProfile] {
        &self.stations
    }

    /// Workload think time `Z`.
    pub fn think_time(&self) -> f64 {
        self.think_time
    }

    /// Interpolation abscissa semantics.
    pub fn axis(&self) -> DemandAxis {
        self.axis
    }

    /// The sampled abscissae this profile was built from.
    pub fn sampled_levels(&self) -> &[f64] {
        &self.levels
    }

    /// All station demands at abscissa `x` — the array `SSⁿ` of Algorithm 3.
    pub fn demands_at(&self, x: f64) -> Vec<f64> {
        self.stations.iter().map(|s| s.demand_at(x)).collect()
    }

    /// Station index by name.
    pub fn station_index(&self, name: &str) -> Option<usize> {
        self.stations.iter().position(|s| s.name == name)
    }
}

fn build_interpolant(
    levels: &[f64],
    demands: &[f64],
    kind: InterpolationKind,
) -> Result<Arc<dyn Interpolant>, CoreError> {
    // Single sample: constant function via the clamped 2-point degenerate
    // (duplicate the point with a tiny offset is ugly; use a dedicated
    // constant wrapper instead).
    if levels.len() == 1 {
        return Ok(Arc::new(ConstantDemand {
            level: levels[0],
            value: demands[0],
        }));
    }
    let interp: Arc<dyn Interpolant> = match kind {
        InterpolationKind::Linear => {
            Arc::new(LinearInterp::new(levels, demands)?.with_extrapolation(Extrapolation::Clamp))
        }
        InterpolationKind::CubicNatural => Arc::new(
            CubicSpline::new(levels, demands, BoundaryCondition::Natural)?
                .with_extrapolation(Extrapolation::Clamp),
        ),
        InterpolationKind::CubicNotAKnot => Arc::new(
            CubicSpline::new(levels, demands, BoundaryCondition::NotAKnot)?
                .with_extrapolation(Extrapolation::Clamp),
        ),
        InterpolationKind::Pchip => {
            Arc::new(PchipInterp::new(levels, demands)?.with_extrapolation(Extrapolation::Clamp))
        }
        InterpolationKind::Smoothing { lambda } => {
            if levels.len() < 3 {
                // Smoothing needs >= 3 knots; degrade to linear.
                Arc::new(
                    LinearInterp::new(levels, demands)?.with_extrapolation(Extrapolation::Clamp),
                )
            } else {
                Arc::new(
                    SmoothingSpline::fit(levels, demands, lambda)?
                        .with_extrapolation(Extrapolation::Clamp),
                )
            }
        }
    };
    Ok(interp)
}

/// Constant-demand interpolant for single-sample profiles.
#[derive(Debug, Clone, Copy)]
struct ConstantDemand {
    level: f64,
    value: f64,
}

impl Interpolant for ConstantDemand {
    fn eval(&self, _x: f64) -> f64 {
        self.value
    }
    fn deriv(&self, _x: f64) -> f64 {
        0.0
    }
    fn domain(&self) -> (f64, f64) {
        (self.level, self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> DemandSamples {
        DemandSamples {
            station_names: vec!["cpu".into(), "disk".into()],
            server_counts: vec![4, 1],
            think_time: 1.0,
            levels: vec![1.0, 50.0, 100.0, 200.0],
            demands: vec![
                vec![0.030, 0.026, 0.024, 0.023],
                vec![0.012, 0.011, 0.0108, 0.0105],
            ],
        }
    }

    #[test]
    fn profile_interpolates_and_clamps() {
        let p = ServiceDemandProfile::from_samples(
            &samples(),
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        // Passes through samples.
        let d = p.demands_at(50.0);
        assert!((d[0] - 0.026).abs() < 1e-10);
        assert!((d[1] - 0.011).abs() < 1e-10);
        // Clamps beyond the range (paper eq. 14).
        let d = p.demands_at(5000.0);
        assert!((d[0] - 0.023).abs() < 1e-12);
        let d = p.demands_at(0.5);
        assert!((d[0] - 0.030).abs() < 1e-12);
    }

    #[test]
    fn all_interpolation_kinds_pass_through_knots() {
        for kind in [
            InterpolationKind::Linear,
            InterpolationKind::CubicNatural,
            InterpolationKind::CubicNotAKnot,
            InterpolationKind::Pchip,
            InterpolationKind::Smoothing { lambda: 0.0 },
        ] {
            let p = ServiceDemandProfile::from_samples(&samples(), kind, DemandAxis::Concurrency)
                .unwrap();
            let d = p.demands_at(100.0);
            assert!((d[0] - 0.024).abs() < 1e-8, "{kind:?}");
        }
    }

    #[test]
    fn single_sample_profile_is_constant() {
        let s = DemandSamples {
            station_names: vec!["s".into()],
            server_counts: vec![1],
            think_time: 0.5,
            levels: vec![28.0],
            demands: vec![vec![0.02]],
        };
        let p = ServiceDemandProfile::from_samples(
            &s,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        assert_eq!(p.demands_at(1.0), vec![0.02]);
        assert_eq!(p.demands_at(999.0), vec![0.02]);
        assert_eq!(p.stations()[0].demand_slope_at(10.0), 0.0);
    }

    #[test]
    fn two_sample_smoothing_degrades_to_linear() {
        let s = DemandSamples {
            station_names: vec!["s".into()],
            server_counts: vec![1],
            think_time: 0.5,
            levels: vec![1.0, 100.0],
            demands: vec![vec![0.02, 0.01]],
        };
        let p = ServiceDemandProfile::from_samples(
            &s,
            InterpolationKind::Smoothing { lambda: 1.0 },
            DemandAxis::Concurrency,
        )
        .unwrap();
        assert!((p.demands_at(50.5)[0] - 0.015).abs() < 1e-12);
    }

    #[test]
    fn negative_artifacts_floored() {
        // A wiggly spline could dip below zero on extreme data; the profile
        // must never return a negative demand.
        let s = DemandSamples {
            station_names: vec!["s".into()],
            server_counts: vec![1],
            think_time: 0.0,
            levels: vec![1.0, 2.0, 3.0, 4.0],
            demands: vec![vec![1.0, 0.001, 1.0, 0.001]],
        };
        let p = ServiceDemandProfile::from_samples(
            &s,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        for i in 0..=60 {
            let x = 1.0 + i as f64 * 0.05;
            assert!(p.demands_at(x)[0] >= 0.0, "x={x}");
        }
    }

    #[test]
    fn subset_selects_levels() {
        let s = samples();
        let sub = s.subset(&[0, 2]).unwrap();
        assert_eq!(sub.levels, vec![1.0, 100.0]);
        assert_eq!(sub.demands[0], vec![0.030, 0.024]);
        assert!(s.subset(&[]).is_err());
        assert!(s.subset(&[9]).is_err());
    }

    #[test]
    fn validation_rejects_malformed_samples() {
        let mut s = samples();
        s.server_counts = vec![4];
        assert!(ServiceDemandProfile::from_samples(
            &s,
            InterpolationKind::Linear,
            DemandAxis::Concurrency
        )
        .is_err());

        let mut s = samples();
        s.demands[1].pop();
        assert!(ServiceDemandProfile::from_samples(
            &s,
            InterpolationKind::Linear,
            DemandAxis::Concurrency
        )
        .is_err());

        let mut s = samples();
        s.demands[0][0] = -1.0;
        assert!(ServiceDemandProfile::from_samples(
            &s,
            InterpolationKind::Linear,
            DemandAxis::Concurrency
        )
        .is_err());

        let mut s = samples();
        s.think_time = f64::NAN;
        assert!(ServiceDemandProfile::from_samples(
            &s,
            InterpolationKind::Linear,
            DemandAxis::Concurrency
        )
        .is_err());

        let mut s = samples();
        s.server_counts[0] = 0;
        assert!(ServiceDemandProfile::from_samples(
            &s,
            InterpolationKind::Linear,
            DemandAxis::Concurrency
        )
        .is_err());

        // All-zero demands with no think time: X = n/0 at every step.
        let mut s = samples();
        s.think_time = 0.0;
        for row in &mut s.demands {
            row.fill(0.0);
        }
        assert_eq!(
            ServiceDemandProfile::from_samples(
                &s,
                InterpolationKind::Linear,
                DemandAxis::Concurrency
            )
            .unwrap_err(),
            CoreError::InvalidParameter {
                what: "network needs positive demand or think time"
            }
        );
        // Either one positive makes the model solvable again.
        s.think_time = 1.0;
        assert!(ServiceDemandProfile::from_samples(
            &s,
            InterpolationKind::Linear,
            DemandAxis::Concurrency
        )
        .is_ok());
    }

    #[test]
    fn axis_and_accessors() {
        let p = ServiceDemandProfile::from_samples(
            &samples(),
            InterpolationKind::Pchip,
            DemandAxis::Throughput,
        )
        .unwrap();
        assert_eq!(p.axis(), DemandAxis::Throughput);
        assert_eq!(p.think_time(), 1.0);
        assert_eq!(p.station_index("disk"), Some(1));
        assert_eq!(p.station_index("nope"), None);
        assert_eq!(p.sampled_levels().len(), 4);
        assert_eq!(p.stations()[0].servers, 4);
        // Debug impl smoke test.
        assert!(format!("{:?}", p.stations()[0]).contains("cpu"));
    }

    #[test]
    fn demand_slope_negative_on_falling_curve() {
        let p = ServiceDemandProfile::from_samples(
            &samples(),
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .unwrap();
        assert!(p.stations()[0].demand_slope_at(25.0) < 0.0);
    }
}
