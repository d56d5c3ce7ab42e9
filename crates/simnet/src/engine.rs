//! The discrete-event engine.
//!
//! `N` customers cycle: (optional staggered entry) → station 0 → station 1 →
//! … → station K−1 → think → repeat. Multi-server FCFS queueing, seeded and
//! fully deterministic for a given configuration.
//!
//! An event carries only a customer; the customer's stage says what ends
//! (a think, or a service at that station). Handling one changes the
//! counts of at most the two stations involved, so its cost does not grow
//! with K. Each customer carries its arrival and service-start times, and
//! a visit's time integrals are added when it ends (see `metrics`).

use mvasd_obsv as obsv;
use std::collections::VecDeque;

use crate::event::{EventQueue, EVENT_BYTES};
use crate::metrics::{Accumulators, SimReport, StationStats, SystemStats, TimeSeriesBucket};
use crate::station::{SimNetwork, StationModel};
use crate::stream::VariateStream;
use crate::SimError;

/// Run-level configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of concurrent virtual users `N`. Each costs a 32-byte
    /// record plus one 24-byte pending event; [`Simulation::new`] rejects
    /// a population whose run state would pass 2^47 bytes (128 TiB).
    pub customers: usize,
    /// Simulated duration (seconds).
    pub horizon: f64,
    /// Prefix excluded from steady-state statistics (seconds).
    pub warmup: f64,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Gap between successive customer entries (seconds). `0` starts all
    /// customers at t = 0; positive values reproduce The Grinder's
    /// `processIncrementInterval`/`initialSleepTime` ramp-up.
    pub stagger: f64,
    /// Width of the time-series buckets (seconds). The time series and
    /// the per-station busy timeline hold `ceil(horizon / bucket_width) + 1`
    /// buckets each, `stations + 2` rows of 8-byte values in all;
    /// [`Simulation::new`] rejects a timeline past 2^47 bytes (128 TiB).
    pub bucket_width: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            customers: 1,
            horizon: 100.0,
            warmup: 10.0,
            seed: 0,
            stagger: 0.0,
            bucket_width: 1.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Customer {
    /// Index of the station the customer is at, or K while it thinks (or
    /// has not yet entered).
    stage: usize,
    /// Start of the in-flight interaction.
    interaction_start: f64,
    /// Time it arrived at the current station (for per-visit sojourn).
    station_arrival: f64,
    /// Start of its service at the current station; `+∞` while it queues.
    service_start: f64,
}

/// A customer's run state: its record plus at most one pending event.
const BYTES_PER_CUSTOMER: usize = std::mem::size_of::<Customer>() + EVENT_BYTES;

/// Most bytes `Simulation::new` accepts for the customer tables, and
/// separately for the timeline: 2^47 (128 TiB), the user address space of
/// an x86-64 Linux process, or the largest allocation Rust allows if that
/// is smaller. A larger table can never be allocated there, so the limit
/// refuses no run that could finish; it turns a sizing mistake, such as
/// a 1e15-bucket timeline, into a typed error instead of a panic or an
/// aborted process.
const MAX_RUN_BYTES: f64 = if (isize::MAX as u64) < 1 << 47 {
    isize::MAX as f64
} else {
    (1u64 << 47) as f64
};

/// One station's live counts.
#[derive(Debug, Clone, Default)]
struct StationState {
    /// Busy servers (customers in service at a delay station).
    busy: usize,
    /// Customers at the station (queued + in service).
    present: usize,
    /// FCFS queue of customers waiting for a server.
    waiting: VecDeque<usize>,
}

/// The mutable state of one run.
struct Run<'a> {
    net: &'a SimNetwork,
    variates: VariateStream,
    events: EventQueue,
    acc: Accumulators,
    customers: Vec<Customer>,
    stations: Vec<StationState>,
}

impl Run<'_> {
    /// Customer `c` arrives at station `k` at time `t`.
    fn enter(&mut self, k: usize, c: usize, t: f64) {
        let customer = &mut self.customers[c];
        customer.stage = k;
        customer.station_arrival = t;
        customer.service_start = f64::INFINITY;
        let st = &mut self.stations[k];
        st.present += 1;
        let spec = &self.net.stations()[k];
        match spec.model {
            StationModel::Delay => {
                st.busy += 1;
                customer.service_start = t;
                let s = spec.service.sample(&mut self.variates);
                self.events.schedule_infinite(t + s, c);
            }
            StationModel::Queueing { servers } if st.busy < servers => {
                st.busy += 1;
                self.start_service(k, c, t);
            }
            StationModel::Queueing { .. } => st.waiting.push_back(c),
        }
    }

    /// Starts `c`'s service at queueing station `k`, whose busy count
    /// already includes it.
    fn start_service(&mut self, k: usize, c: usize, t: f64) {
        self.customers[c].service_start = t;
        let spec = &self.net.stations()[k];
        let mut s = spec.service.sample(&mut self.variates);
        if let Some(m) = &spec.contention {
            s *= m.factor(self.stations[k].present);
        }
        self.events.schedule_queueing(t + s, c);
    }

    /// Customer `c` finishes service at its station at time `t` and moves
    /// on to the next station, or completes its interaction and thinks.
    fn leave(&mut self, c: usize, t: f64) {
        let Customer {
            stage: k,
            interaction_start,
            station_arrival,
            service_start,
        } = self.customers[c];
        self.acc.record_visit(k, station_arrival, service_start, t);
        let st = &mut self.stations[k];
        st.present -= 1;
        match st.waiting.pop_front() {
            Some(next) => self.start_service(k, next, t),
            None => st.busy -= 1,
        }
        let think_stage = self.net.stations().len();
        if k + 1 < think_stage {
            self.enter(k + 1, c, t);
        } else {
            self.customers[c].stage = think_stage;
            self.acc.record_completion(t, t - interaction_start);
            let z = self.net.think().sample(&mut self.variates);
            self.events.schedule_infinite(t + z, c);
        }
    }
}

/// A configured, runnable simulation.
#[derive(Debug)]
pub struct Simulation {
    net: SimNetwork,
    cfg: SimConfig,
}

impl Simulation {
    /// Validates the configuration and binds it to a network.
    pub fn new(net: SimNetwork, cfg: SimConfig) -> Result<Self, SimError> {
        if cfg.customers == 0 {
            return Err(SimError::InvalidParameter {
                what: "need at least one customer",
            });
        }
        if !(cfg.horizon.is_finite() && cfg.horizon > 0.0) {
            return Err(SimError::InvalidParameter {
                what: "horizon must be finite and > 0",
            });
        }
        if !(cfg.warmup.is_finite() && cfg.warmup >= 0.0 && cfg.warmup < cfg.horizon) {
            return Err(SimError::InvalidParameter {
                what: "warmup must be in [0, horizon)",
            });
        }
        if !(cfg.stagger.is_finite() && cfg.stagger >= 0.0) {
            return Err(SimError::InvalidParameter {
                what: "stagger must be finite and >= 0",
            });
        }
        if !(cfg.bucket_width.is_finite() && cfg.bucket_width > 0.0) {
            return Err(SimError::InvalidParameter {
                what: "bucket width must be finite and > 0",
            });
        }
        // Both operands are finite and positive, so the size is not NaN;
        // an overflowing ratio is `+∞` and fails here too.
        let timeline_bytes = Accumulators::bucket_count(cfg.horizon, cfg.bucket_width)
            * ((net.stations().len() + 2) * std::mem::size_of::<f64>()) as f64;
        if timeline_bytes > MAX_RUN_BYTES {
            return Err(SimError::InvalidParameter {
                what: "horizon / bucket width gives a timeline too large to allocate",
            });
        }
        if cfg.customers as f64 * BYTES_PER_CUSTOMER as f64 > MAX_RUN_BYTES {
            return Err(SimError::InvalidParameter {
                what: "too many customers to allocate their run state",
            });
        }
        Ok(Self { net, cfg })
    }

    /// Runs the simulation to its horizon and reports.
    pub fn run(self) -> Result<SimReport, SimError> {
        let _span = obsv::span_with("simnet.run", || {
            format!("customers={} seed={}", self.cfg.customers, self.cfg.seed)
        });
        let k_count = self.net.stations().len();
        let mut run = Run {
            net: &self.net,
            variates: VariateStream::seed_from_u64(self.cfg.seed),
            events: EventQueue::new(),
            acc: Accumulators::new(
                k_count,
                self.cfg.warmup,
                self.cfg.horizon,
                self.cfg.bucket_width,
            ),
            customers: vec![
                Customer {
                    stage: k_count,
                    interaction_start: 0.0,
                    station_arrival: 0.0,
                    service_start: f64::INFINITY,
                };
                self.cfg.customers
            ],
            stations: vec![StationState::default(); k_count],
        };
        // Entering the system for the first time is a think that ends at
        // the customer's staggered start.
        for c in 0..self.cfg.customers {
            run.events.schedule_infinite(c as f64 * self.cfg.stagger, c);
        }

        let mut event_count = 0u64;
        while let Some((t, c)) = run.events.pop() {
            if t > self.cfg.horizon {
                break;
            }
            event_count += 1;
            if run.customers[c].stage == k_count {
                run.customers[c].interaction_start = t;
                run.enter(0, c, t);
            } else {
                run.leave(c, t);
            }
        }
        let mut acc = run.acc;
        for c in run.customers.iter().filter(|c| c.stage < k_count) {
            acc.close_open_visit(c.stage, c.station_arrival, c.service_start);
        }
        if obsv::enabled() {
            obsv::counter("simnet.runs", 1);
            obsv::counter("simnet.events", event_count);
            obsv::counter("simnet.spills", run.events.spills());
            obsv::observe("simnet.events_per_run", event_count);
        }

        Ok(self.build_report(acc))
    }

    fn build_report(&self, acc: Accumulators) -> SimReport {
        let measured = (self.cfg.horizon - self.cfg.warmup).max(f64::MIN_POSITIVE);
        let station_servers: Vec<Option<usize>> = self
            .net
            .stations()
            .iter()
            .map(|s| s.model.servers())
            .collect();
        let stations = self
            .net
            .stations()
            .iter()
            .zip(&acc.stations)
            .zip(&station_servers)
            .map(|((s, a), servers)| StationStats {
                name: s.name.clone(),
                utilization: a.busy_time / (measured * servers.map_or(1.0, |c| c as f64)),
                throughput: a.visits as f64 / measured,
                mean_queue: a.queue_time / measured,
                mean_visit_time: if a.visits > 0 {
                    a.visit_time_sum / a.visits as f64
                } else {
                    0.0
                },
            })
            .collect();

        let mean_response = if acc.completions > 0 {
            acc.response_sum / acc.completions as f64
        } else {
            0.0
        };
        let p95 = mvasd_numerics::stats::percentile(&acc.samples, 95.0).unwrap_or(0.0);

        let time_series = acc
            .bucket_counts
            .iter()
            .zip(acc.bucket_response.iter())
            .enumerate()
            .map(|(i, (&count, &rsum))| TimeSeriesBucket {
                start: i as f64 * acc.bucket_width,
                tps: count as f64 / acc.bucket_width,
                mean_response: if count > 0 { rsum / count as f64 } else { 0.0 },
            })
            .collect();

        SimReport {
            horizon: self.cfg.horizon,
            warmup: self.cfg.warmup,
            system: SystemStats {
                throughput: acc.completions as f64 / measured,
                mean_response,
                p95_response: p95,
                completions: acc.completions,
            },
            stations,
            time_series,
            busy_series: acc.bucket_busy,
            bucket_width: self.cfg.bucket_width,
            station_servers,
            response_samples: acc.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Distribution;
    use crate::station::SimStation;

    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(1e-12)
    }

    fn run(net: SimNetwork, n: usize, horizon: f64, seed: u64) -> SimReport {
        Simulation::new(
            net,
            SimConfig {
                customers: n,
                horizon,
                warmup: horizon * 0.2,
                seed,
                ..SimConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap()
    }

    #[test]
    fn matches_machine_repair_closed_form() {
        // 1 station, 4 servers, exp service 0.25, exp think 1.0.
        let net = SimNetwork::new(
            vec![SimStation::queueing("st", 4, 0.25)],
            Distribution::Exponential { mean: 1.0 },
        )
        .unwrap();
        let rep = run(net, 12, 4000.0, 11);
        let (x_exact, q_exact) = mvasd_numerics::erlang::machine_repair(12, 4, 0.25, 1.0).unwrap();
        assert!(
            rel(rep.system.throughput, x_exact) < 0.03,
            "X {} vs {}",
            rep.system.throughput,
            x_exact
        );
        assert!(
            rel(rep.stations[0].mean_queue, q_exact) < 0.06,
            "Q {} vs {}",
            rep.stations[0].mean_queue,
            q_exact
        );
    }

    #[test]
    fn matches_exact_mva_on_two_station_chain() {
        let net = SimNetwork::new(
            vec![
                SimStation::queueing("cpu", 1, 0.006),
                SimStation::queueing("disk", 1, 0.010),
            ],
            Distribution::Exponential { mean: 0.5 },
        )
        .unwrap();
        let rep = run(net, 40, 3000.0, 5);
        let qnet = mvasd_queueing_testhelper(40);
        assert!(
            rel(rep.system.throughput, qnet.0) < 0.03,
            "X {} vs MVA {}",
            rep.system.throughput,
            qnet.0
        );
        assert!(
            rel(rep.system.mean_response, qnet.1) < 0.06,
            "R {} vs MVA {}",
            rep.system.mean_response,
            qnet.1
        );
    }

    /// Exact MVA for the two-station test network, computed inline to avoid
    /// a circular dev-dependency on mvasd-queueing.
    fn mvasd_queueing_testhelper(n: usize) -> (f64, f64) {
        let demands = [0.006f64, 0.010];
        let z = 0.5;
        let mut q = [0.0f64; 2];
        let (mut x, mut r_total) = (0.0, 0.0);
        for pop in 1..=n {
            let r: Vec<f64> = (0..2).map(|k| demands[k] * (1.0 + q[k])).collect();
            r_total = r.iter().sum();
            x = pop as f64 / (r_total + z);
            for k in 0..2 {
                q[k] = x * r[k];
            }
        }
        (x, r_total)
    }

    #[test]
    fn utilization_law_holds_in_simulation() {
        let net = SimNetwork::new(
            vec![
                SimStation::queueing("cpu", 2, 0.01),
                SimStation::queueing("disk", 1, 0.004),
            ],
            Distribution::Exponential { mean: 0.2 },
        )
        .unwrap();
        let rep = run(net, 20, 2000.0, 9);
        // U_k = X · D_k / C_k (paper eq. 1 + 3).
        let x = rep.system.throughput;
        assert!(rel(rep.stations[0].utilization, x * 0.01 / 2.0) < 0.04);
        assert!(rel(rep.stations[1].utilization, x * 0.004) < 0.04);
    }

    #[test]
    fn littles_law_holds_in_simulation() {
        let net = SimNetwork::new(
            vec![SimStation::queueing("s", 1, 0.02)],
            Distribution::Exponential { mean: 1.0 },
        )
        .unwrap();
        let rep = run(net, 30, 3000.0, 13);
        // N = X (R + Z): the sim measures X and R; Z is exact by design.
        let n_est = rep.system.throughput * (rep.system.mean_response + 1.0);
        assert!(rel(n_est, 30.0) < 0.03, "N_est {n_est}");
    }

    #[test]
    fn deterministic_runs_reproduce() {
        let net = SimNetwork::new(
            vec![SimStation::queueing("s", 1, 0.02)],
            Distribution::Exponential { mean: 1.0 },
        )
        .unwrap();
        let a = run(net.clone(), 10, 200.0, 77);
        let b = run(net, 10, 200.0, 77);
        assert_eq!(a.system, b.system);
        assert_eq!(a.stations, b.stations);
    }

    #[test]
    fn different_seeds_differ() {
        let net = SimNetwork::new(
            vec![SimStation::queueing("s", 1, 0.02)],
            Distribution::Exponential { mean: 1.0 },
        )
        .unwrap();
        let a = run(net.clone(), 10, 200.0, 1);
        let b = run(net, 10, 200.0, 2);
        assert_ne!(a.system.completions, b.system.completions);
    }

    #[test]
    fn ramp_up_visible_in_time_series() {
        let net = SimNetwork::new(
            vec![SimStation::queueing("s", 4, 0.05)],
            Distribution::Exponential { mean: 1.0 },
        )
        .unwrap();
        let rep = Simulation::new(
            net,
            SimConfig {
                customers: 60,
                horizon: 300.0,
                warmup: 150.0,
                seed: 3,
                stagger: 1.0, // one customer per second: 60 s ramp
                bucket_width: 5.0,
            },
        )
        .unwrap()
        .run()
        .unwrap();
        let early: f64 = rep.time_series[0..4].iter().map(|b| b.tps).sum();
        let late: f64 = rep.time_series[40..44].iter().map(|b| b.tps).sum();
        assert!(
            early < late * 0.6,
            "ramp-up should depress early tps: {early} vs {late}"
        );
    }

    #[test]
    fn delay_station_equivalent_to_think() {
        // Station chain {queueing + delay-z} with zero think time behaves
        // like {queueing} with think z.
        let with_delay = SimNetwork::new(
            vec![
                SimStation::queueing("s", 1, 0.02),
                SimStation::delay("z", 1.0),
            ],
            Distribution::Deterministic { value: 0.0 },
        )
        .unwrap();
        let with_think = SimNetwork::new(
            vec![SimStation::queueing("s", 1, 0.02)],
            Distribution::Exponential { mean: 1.0 },
        )
        .unwrap();
        let a = run(with_delay, 25, 2000.0, 21);
        let b = run(with_think, 25, 2000.0, 22);
        // Throughputs agree statistically.
        assert!(rel(a.system.throughput, b.system.throughput) < 0.04);
    }

    #[test]
    fn config_validation() {
        let net = SimNetwork::new(
            vec![SimStation::queueing("s", 1, 0.02)],
            Distribution::Exponential { mean: 1.0 },
        )
        .unwrap();
        let bad = |cfg: SimConfig| Simulation::new(net.clone(), cfg).is_err();
        assert!(bad(SimConfig {
            customers: 0,
            ..SimConfig::default()
        }));
        assert!(bad(SimConfig {
            horizon: 0.0,
            ..SimConfig::default()
        }));
        assert!(bad(SimConfig {
            warmup: 200.0,
            horizon: 100.0,
            ..SimConfig::default()
        }));
        assert!(bad(SimConfig {
            stagger: -1.0,
            ..SimConfig::default()
        }));
        assert!(bad(SimConfig {
            bucket_width: 0.0,
            ..SimConfig::default()
        }));
    }

    /// Whether `Simulation::new` refuses `cfg` with a typed error.
    fn rejected(cfg: SimConfig) -> bool {
        let net = SimNetwork::new(
            vec![SimStation::queueing("s", 1, 0.02)],
            Distribution::Exponential { mean: 1.0 },
        )
        .unwrap();
        matches!(
            Simulation::new(net, cfg),
            Err(SimError::InvalidParameter { .. })
        )
    }

    #[test]
    fn bucket_count_past_usize_is_rejected() {
        assert!(rejected(SimConfig {
            horizon: 1e300,
            bucket_width: 1e-300,
            ..SimConfig::default()
        }));
    }

    #[test]
    fn timeline_past_its_limit_is_rejected() {
        // 1e15 buckets.
        assert!(rejected(SimConfig {
            horizon: 1e12,
            bucket_width: 1e-3,
            ..SimConfig::default()
        }));
        // Just inside the limit: 3 rows of 5.8e12 + 1 values, 1.39e14 bytes.
        assert!(!rejected(SimConfig {
            horizon: 5.8e12,
            ..SimConfig::default()
        }));
    }

    #[test]
    fn customer_table_too_large_to_allocate_is_rejected() {
        assert!(rejected(SimConfig {
            customers: usize::MAX / 8,
            ..SimConfig::default()
        }));
        // Just inside the limit: 56 bytes each, 1.12e14 bytes.
        assert!(!rejected(SimConfig {
            customers: 2_000_000_000_000,
            ..SimConfig::default()
        }));
    }

    #[test]
    fn contention_inflates_response_only_under_load() {
        use crate::contention::ContentionModel;
        let mk = |contention: Option<ContentionModel>, n: usize| {
            let mut st = SimStation::queueing("s", 1, 0.02);
            if let Some(c) = contention {
                st = st.with_contention(c);
            }
            let net = SimNetwork::new(vec![st], Distribution::Exponential { mean: 1.0 }).unwrap();
            Simulation::new(
                net,
                SimConfig {
                    customers: n,
                    horizon: 1500.0,
                    warmup: 200.0,
                    seed: 77,
                    ..SimConfig::default()
                },
            )
            .unwrap()
            .run()
            .unwrap()
        };
        let model = ContentionModel::LinearBeyond {
            threshold: 3,
            slope: 0.25,
            max_factor: 4.0,
        };
        // Single user: the queue never exceeds the threshold, so the
        // seeded runs are bit-identical with and without contention.
        let base1 = mk(None, 1);
        let cont1 = mk(Some(model.clone()), 1);
        assert_eq!(base1.system, cont1.system);
        // Heavy load: contention inflates service and response markedly.
        let base = mk(None, 40);
        let cont = mk(Some(model), 40);
        assert!(
            cont.system.mean_response > base.system.mean_response * 1.3,
            "contended {} vs base {}",
            cont.system.mean_response,
            base.system.mean_response
        );
        assert!(cont.system.throughput < base.system.throughput);
    }

    #[test]
    fn p95_at_least_mean() {
        let net = SimNetwork::new(
            vec![SimStation::queueing("s", 1, 0.02)],
            Distribution::Exponential { mean: 0.5 },
        )
        .unwrap();
        let rep = run(net, 40, 1000.0, 17);
        assert!(rep.system.p95_response >= rep.system.mean_response);
    }

    #[test]
    fn response_ci_covers_mean() {
        let net = SimNetwork::new(
            vec![SimStation::queueing("s", 1, 0.02)],
            Distribution::Exponential { mean: 1.0 },
        )
        .unwrap();
        let rep = run(net, 20, 2000.0, 31);
        let ci = rep.response_ci(20).unwrap();
        // Batch means truncates to a multiple of the batch size, so the
        // grand mean can differ slightly from the full-sample mean.
        let rel = (ci.mean - rep.system.mean_response).abs() / rep.system.mean_response;
        assert!(
            rel < 0.02,
            "ci mean {} vs sample mean {}",
            ci.mean,
            rep.system.mean_response
        );
        assert!(ci.half_width > 0.0);
    }
}
