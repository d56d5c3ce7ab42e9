//! # mvasd-queueing
//!
//! Closed/open queueing-network analysis for multi-tiered web applications:
//! the analytic machinery of Sections 3 and 5 of the paper.
//!
//! * [`laws`] — the operational laws of paper Section 3 (Utilization, Forced
//!   Flow, Service Demand, Little's, Bottleneck).
//! * [`network`] — the closed queueing-network model of paper Fig. 2:
//!   multi-server queueing stations (multi-core CPUs, disks, NICs) plus a
//!   think-time delay stage.
//! * [`bounds`] — asymptotic and balanced-job bounds on throughput/response.
//! * [`mva`] — the Mean Value Analysis family:
//!   [`mva::exact_mva`] (paper Algorithm 1), [`mva::schweitzer_mva`]
//!   (eq. 9, with the Seidmann multi-server transform), and
//!   [`mva::multiserver_mva`] (paper Algorithm 2) together with
//!   [`mva::load_dependent_mva`] — both drains of the one exact
//!   single-class solver, [`mva::MultiserverMvaSolver`], which evaluates
//!   Buzen's normalization-constant algorithm in log-domain, the
//!   numerically robust exact form (the naive marginal recursion diverges
//!   near multi-server saturation; see the `multiserver` module docs). The
//!   shared stepping engine [`mva::PopulationRecursion`] powers MVASD, and
//!   [`mva::multiclass_mva`] adds the exact multiclass extension. All of
//!   them (and the MVASD variants and simulation estimator downstream) are
//!   callable through the unified [`mva::ClosedSolver`] trait, which makes
//!   solver backends one-line swaps in comparison pipelines.
//! * [`open`] — open Jackson-network analysis (M/M/c tiers) for
//!   cross-validation and for the "open systems" discussion of Section 7.
//! * [`hierarchy`] — Norton flow-equivalent-server aggregation: tiered
//!   topologies expressed as trees of subsystems, each solved in isolation
//!   and replaced by a load-dependent station in its parent, with exact
//!   disaggregation back onto the flat stations. Scales the paper's
//!   twelve-station VINS shape to microservice-size estates.
//!
//! The crate deliberately contains **no** varying-service-demand logic: that
//! is the paper's contribution and lives in `mvasd-core`, which builds on the
//! solvers here.
//!
//! ## Example: a 2-tier closed network
//!
//! ```
//! use mvasd_queueing::network::{ClosedNetwork, Station};
//! use mvasd_queueing::mva::multiserver_mva;
//!
//! let net = ClosedNetwork::new(
//!     vec![
//!         Station::queueing("app-cpu", 4, 1.0, 0.008), // 4 cores, D = 8 ms
//!         Station::queueing("db-disk", 1, 1.0, 0.012), // D = 12 ms
//!     ],
//!     1.0, // think time Z = 1 s
//! )
//! .unwrap();
//! let out = multiserver_mva(&net, 100).unwrap();
//! let last = out.last();
//! assert!(last.throughput <= 1.0 / 0.012 + 1e-9); // bottleneck law
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod hierarchy;
pub mod laws;
pub mod mva;
pub mod network;
pub mod open;

/// Errors from queueing-model construction and solution.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueingError {
    /// A model parameter was outside its legal domain.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// The network has no stations.
    EmptyNetwork,
    /// An open model was driven beyond saturation.
    Unstable {
        /// Name of the saturated station.
        station: String,
    },
    /// Error propagated from the numerics layer.
    Numerics(mvasd_numerics::NumericsError),
}

impl core::fmt::Display for QueueingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QueueingError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            QueueingError::EmptyNetwork => write!(f, "network has no stations"),
            QueueingError::Unstable { station } => {
                write!(f, "open network unstable: station '{station}' saturated")
            }
            QueueingError::Numerics(e) => write!(f, "numerics error: {e}"),
        }
    }
}

impl std::error::Error for QueueingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueueingError::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mvasd_numerics::NumericsError> for QueueingError {
    fn from(e: mvasd_numerics::NumericsError) -> Self {
        QueueingError::Numerics(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let msgs = [
            QueueingError::InvalidParameter { what: "x" }.to_string(),
            QueueingError::EmptyNetwork.to_string(),
            QueueingError::Unstable {
                station: "db".into(),
            }
            .to_string(),
            QueueingError::Numerics(mvasd_numerics::NumericsError::SingularSystem).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn numerics_error_converts() {
        let e: QueueingError = mvasd_numerics::NumericsError::SingularSystem.into();
        assert!(matches!(e, QueueingError::Numerics(_)));
    }
}
