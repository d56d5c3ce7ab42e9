//! # mvasd-simnet
//!
//! Discrete-event simulator for closed queueing networks — the workspace's
//! substitute for the paper's physical testbed (16-core Linux servers driven
//! by The Grinder).
//!
//! The simulated system matches the analytic model of paper Fig. 2: `N`
//! customers cycle between a think stage and a chain of service stations
//! (multi-server FCFS queues for CPUs, single-server queues for disks and
//! NICs). Service times are sampled from configurable distributions
//! (exponential by default, which keeps the network product-form and hence
//! MVA-comparable; deterministic/Erlang variants exist for robustness
//! studies). Customers can be given staggered start times to reproduce the
//! ramp-up transient of the paper's Fig. 1.
//!
//! Two opt-in realism knobs go beyond the product-form world: in-run
//! [`ContentionModel`]s (service inflating with the local queue — software
//! locks no analytic model here can represent) and vmstat-style sampled
//! utilization timelines ([`SimReport::utilization_timeline`]).
//!
//! The crate knows nothing about web applications or demand curves: the
//! testbed crate evaluates its concurrency-dependent demand models at each
//! tested population and hands this simulator a fully specified network per
//! run — mirroring how the real lab measured one concurrency level per load
//! test.
//!
//! ## Example
//!
//! ```
//! use mvasd_simnet::{SimNetwork, SimStation, Distribution, Simulation, SimConfig};
//!
//! let net = SimNetwork::new(
//!     vec![
//!         SimStation::queueing("cpu", 4, 0.008),
//!         SimStation::queueing("disk", 1, 0.012),
//!     ],
//!     Distribution::Exponential { mean: 1.0 }, // think time
//! )
//! .unwrap();
//! let report = Simulation::new(net, SimConfig {
//!     customers: 50,
//!     horizon: 200.0,
//!     warmup: 20.0,
//!     seed: 7,
//!     ..SimConfig::default()
//! })
//! .unwrap()
//! .run()
//! .unwrap();
//! assert!(report.system.throughput > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod contention;
mod engine;
mod event;
mod metrics;
mod rng;
mod station;
mod stream;

pub use contention::ContentionModel;
pub use engine::{SimConfig, Simulation};
pub use metrics::{SimReport, StationStats, SystemStats, TimeSeriesBucket};
pub use rng::Distribution;
pub use station::{SimNetwork, SimStation, StationModel};

/// Errors from simulation construction and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A configuration value was outside its legal domain.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// The network has no stations.
    EmptyNetwork,
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            SimError::EmptyNetwork => write!(f, "network has no stations"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(!SimError::EmptyNetwork.to_string().is_empty());
        assert!(!SimError::InvalidParameter { what: "x" }
            .to_string()
            .is_empty());
    }
}
