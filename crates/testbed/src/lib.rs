//! # mvasd-testbed
//!
//! The simulated load-testing laboratory: everything the paper's physical
//! testbed provided, rebuilt on top of the `mvasd-simnet` discrete-event
//! simulator.
//!
//! * [`demand`] — concurrency-varying service-demand curves `D_k(n)`: the
//!   *mechanism* under study. The paper observes demands falling with
//!   concurrency ("caching of resources at CPU Disk …, batch processing …,
//!   superior branch prediction") and, for JPetStore, a contention-driven
//!   throughput dip past saturation; both effects are modelled explicitly.
//! * [`apps`] — the two applications under test: VINS (vehicle-insurance,
//!   disk-heavy; paper Section 4.3 & Table 2) and JPetStore (e-commerce,
//!   CPU-heavy; Table 3), as 12-station three-tier models (load injector,
//!   web/application, database; each CPU/Disk/Net-Tx/Net-Rx).
//! * [`grinder`] — a load driver with The Grinder's knobs (worker processes,
//!   threads, ramp-up intervals, sleep-time variation) that turns an
//!   application model plus a concurrency level into a simulation run.
//! * [`monitor`] — vmstat/iostat/netstat-style observables: per-station
//!   utilization rows (Tables 2–3) and the eq. 7 network-utilization
//!   formula.
//! * [`campaign`] — multi-level load-test campaigns (one simulated load
//!   test per concurrency level, optionally parallel across levels) and
//!   Service-Demand-Law extraction of the measured demand arrays that feed
//!   MVASD.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod campaign;
pub mod demand;
pub mod grinder;
pub mod monitor;

/// Errors from testbed configuration and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum TestbedError {
    /// A configuration value was outside its legal domain.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// Error propagated from the simulator.
    Sim(mvasd_simnet::SimError),
    /// Error propagated from the queueing layer.
    Queueing(mvasd_queueing::QueueingError),
    /// A campaign worker thread panicked while measuring one level; the
    /// panic was contained to that level instead of aborting the campaign.
    WorkerPanic {
        /// The concurrency level being measured when the worker panicked.
        level: usize,
        /// The panic payload, rendered as text.
        message: String,
    },
}

impl core::fmt::Display for TestbedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TestbedError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            TestbedError::Sim(e) => write!(f, "simulation error: {e}"),
            TestbedError::Queueing(e) => write!(f, "queueing error: {e}"),
            TestbedError::WorkerPanic { level, message } => {
                write!(f, "load-test worker panicked at level {level}: {message}")
            }
        }
    }
}

impl std::error::Error for TestbedError {}

impl From<mvasd_simnet::SimError> for TestbedError {
    fn from(e: mvasd_simnet::SimError) -> Self {
        TestbedError::Sim(e)
    }
}

impl From<mvasd_queueing::QueueingError> for TestbedError {
    fn from(e: mvasd_queueing::QueueingError) -> Self {
        TestbedError::Queueing(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_from() {
        let e: TestbedError = mvasd_simnet::SimError::EmptyNetwork.into();
        assert!(!e.to_string().is_empty());
        let e: TestbedError = mvasd_queueing::QueueingError::EmptyNetwork.into();
        assert!(!e.to_string().is_empty());
        assert!(!TestbedError::InvalidParameter { what: "x" }
            .to_string()
            .is_empty());
    }
}
