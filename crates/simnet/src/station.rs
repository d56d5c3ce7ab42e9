//! Station and network specifications for the simulator.

use crate::contention::ContentionModel;
use crate::rng::Distribution;
use crate::SimError;

/// Service discipline of a simulated station.
#[derive(Debug, Clone, PartialEq)]
pub enum StationModel {
    /// FCFS queue with `servers` identical servers.
    Queueing {
        /// Number of parallel servers (CPU cores, spindles, …).
        servers: usize,
    },
    /// Infinite-server delay: every customer is served immediately.
    Delay,
}

impl StationModel {
    /// Server count of a queueing station; `None` for a delay station.
    pub(crate) fn servers(&self) -> Option<usize> {
        match self {
            StationModel::Queueing { servers } => Some(*servers),
            StationModel::Delay => None,
        }
    }
}

/// One simulated service station.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStation {
    /// Station label (carried into reports).
    pub name: String,
    /// Discipline.
    pub model: StationModel,
    /// Service-time distribution for one visit. The mean is the station's
    /// service demand per interaction (visits folded in, matching how the
    /// Service Demand Law aggregates them).
    pub service: Distribution,
    /// Optional in-run contention: inflates sampled service times with the
    /// station's instantaneous queue length (see
    /// [`crate::ContentionModel`]). `None` keeps the station product-form.
    pub contention: Option<ContentionModel>,
}

impl SimStation {
    /// FCFS multi-server station with exponential service of mean `demand`.
    pub fn queueing(name: &str, servers: usize, demand: f64) -> Self {
        Self {
            name: name.to_string(),
            model: StationModel::Queueing { servers },
            service: Distribution::Exponential { mean: demand },
            contention: None,
        }
    }

    /// Delay station with exponential service of mean `demand`.
    pub fn delay(name: &str, demand: f64) -> Self {
        Self {
            name: name.to_string(),
            model: StationModel::Delay,
            service: Distribution::Exponential { mean: demand },
            contention: None,
        }
    }

    /// Overrides the service distribution (builder style).
    #[must_use]
    pub fn with_service(mut self, d: Distribution) -> Self {
        self.service = d;
        self
    }

    /// Adds an in-run contention model (builder style).
    #[must_use]
    pub fn with_contention(mut self, c: ContentionModel) -> Self {
        self.contention = Some(c);
        self
    }

    /// The station's mean demand.
    pub fn demand(&self) -> f64 {
        self.service.mean()
    }

    fn validate(&self) -> Result<(), SimError> {
        if let StationModel::Queueing { servers: 0 } = self.model {
            return Err(SimError::InvalidParameter {
                what: "station needs at least one server",
            });
        }
        if let Some(c) = &self.contention {
            c.validate()?;
        }
        self.service.validate()
    }
}

/// A fully specified closed network for one simulation run.
///
/// Customers visit the stations **in declaration order** once per
/// interaction, then think. This serial-chain routing has the same
/// product-form solution as probabilistic routing with equal visit counts,
/// and mirrors a synchronous web request walking load-injector →
/// web/application → database resources.
#[derive(Debug, Clone, PartialEq)]
pub struct SimNetwork {
    stations: Vec<SimStation>,
    think: Distribution,
}

impl SimNetwork {
    /// Builds and validates a network.
    pub fn new(stations: Vec<SimStation>, think: Distribution) -> Result<Self, SimError> {
        if stations.is_empty() {
            return Err(SimError::EmptyNetwork);
        }
        for s in &stations {
            s.validate()?;
        }
        think.validate()?;
        Ok(Self { stations, think })
    }

    /// The stations in visiting order.
    pub fn stations(&self) -> &[SimStation] {
        &self.stations
    }

    /// The think-time distribution.
    pub fn think(&self) -> &Distribution {
        &self.think
    }

    /// Returns a copy with a different think-time distribution.
    pub fn with_think(&self, think: Distribution) -> Result<Self, SimError> {
        think.validate()?;
        Ok(Self {
            stations: self.stations.clone(),
            think,
        })
    }

    /// Returns a copy with station demands re-aimed at `demands` (same
    /// order, shapes preserved). Errors on arity mismatch or a negative
    /// demand. Used by the testbed to run the same topology at another
    /// concurrency level's interpolated demands.
    pub fn with_demands(&self, demands: &[f64]) -> Result<Self, SimError> {
        if demands.len() != self.stations.len() {
            return Err(SimError::InvalidParameter {
                what: "demand array length must match station count",
            });
        }
        if demands.iter().any(|d| !(d.is_finite() && *d >= 0.0)) {
            return Err(SimError::InvalidParameter {
                what: "demands must be finite and >= 0",
            });
        }
        let stations = self
            .stations
            .iter()
            .zip(demands.iter())
            .map(|(s, &d)| {
                let mut s2 = s.clone();
                s2.service = s.service.with_mean(d);
                s2
            })
            .collect();
        Ok(Self {
            stations,
            think: self.think.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_accessors() {
        let s = SimStation::queueing("cpu", 8, 0.01);
        assert_eq!(s.demand(), 0.01);
        assert_eq!(s.model, StationModel::Queueing { servers: 8 });
        assert_eq!(s.model.servers(), Some(8));
        let d = SimStation::delay("lan", 0.002);
        assert_eq!(d.model, StationModel::Delay);
        assert_eq!(d.model.servers(), None);
    }

    #[test]
    fn with_service_overrides_distribution() {
        let s = SimStation::queueing("disk", 1, 0.01)
            .with_service(Distribution::Erlang { k: 4, mean: 0.02 });
        assert_eq!(s.demand(), 0.02);
    }

    #[test]
    fn network_validation() {
        assert_eq!(
            SimNetwork::new(vec![], Distribution::Deterministic { value: 1.0 }),
            Err(SimError::EmptyNetwork)
        );
        assert!(SimNetwork::new(
            vec![SimStation::queueing("s", 0, 0.1)],
            Distribution::Deterministic { value: 1.0 }
        )
        .is_err());
        assert!(SimNetwork::new(
            vec![SimStation::queueing("s", 1, -0.1)],
            Distribution::Deterministic { value: 1.0 }
        )
        .is_err());
        assert!(SimNetwork::new(
            vec![SimStation::queueing("s", 1, 0.1)],
            Distribution::Exponential { mean: -1.0 }
        )
        .is_err());
    }

    #[test]
    fn with_demands_preserves_shape() {
        let net = SimNetwork::new(
            vec![
                SimStation::queueing("a", 2, 0.01)
                    .with_service(Distribution::Erlang { k: 3, mean: 0.01 }),
                SimStation::queueing("b", 1, 0.02),
            ],
            Distribution::Exponential { mean: 1.0 },
        )
        .unwrap();
        let net2 = net.with_demands(&[0.005, 0.04]).unwrap();
        assert_eq!(net2.stations()[0].demand(), 0.005);
        assert!(matches!(
            net2.stations()[0].service,
            Distribution::Erlang { k: 3, .. }
        ));
        assert_eq!(net2.stations()[1].demand(), 0.04);
        assert!(net.with_demands(&[0.1]).is_err());
        assert!(net.with_demands(&[0.1, f64::NAN]).is_err());
    }
}
