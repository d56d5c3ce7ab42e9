//! Load-test campaigns: one simulated load test per concurrency level.
//!
//! This is the measurement loop of the paper's evaluation: run The
//! Grinder at a set of concurrency levels (Step 2 of the Fig. 17 workflow),
//! monitor utilizations, and extract per-level service demands with the
//! Service Demand Law. Levels are independent, so the campaign fans out
//! across the workspace-wide scoped work queue
//! ([`mvasd_numerics::pool::scoped_indexed`]). A panic inside one level's
//! load test is caught and surfaced as [`TestbedError::WorkerPanic`]
//! instead of aborting the whole campaign.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mvasd_numerics::pool::scoped_indexed;
use mvasd_obsv as obsv;

use crate::apps::AppModel;
use crate::grinder::{load_test, GrinderConfig, LoadTestResult};
use crate::monitor::{demands_from_row, UtilizationRow, UtilizationTable};
use crate::TestbedError;

/// Everything measured at one concurrency level.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredPoint {
    /// Concurrency level `N`.
    pub users: usize,
    /// Measured page throughput `X` (pages/s).
    pub throughput: f64,
    /// Measured mean page response time `R` (s).
    pub response: f64,
    /// Measured cycle time `R + Z` (s).
    pub cycle_time: f64,
    /// Per-station utilizations (fraction), network order.
    pub utilization: Vec<f64>,
    /// Service demands extracted via the Service Demand Law (s).
    pub demands: Vec<f64>,
}

/// A completed measurement campaign over several concurrency levels.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Application name.
    pub app_name: String,
    /// Station names, network order.
    pub stations: Vec<String>,
    /// Station server counts, network order.
    pub server_counts: Vec<usize>,
    /// Workload think time.
    pub think_time: f64,
    /// Measured points, ascending by `users`.
    pub points: Vec<MeasuredPoint>,
}

impl Campaign {
    /// The tested concurrency levels.
    pub fn levels(&self) -> Vec<u64> {
        self.points.iter().map(|p| p.users as u64).collect()
    }

    /// Measured throughput series.
    pub fn throughputs(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.throughput).collect()
    }

    /// Measured cycle-time series.
    pub fn cycle_times(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.cycle_time).collect()
    }

    /// Measured demand series of station `k` across levels.
    pub fn demand_series(&self, k: usize) -> Vec<f64> {
        self.points.iter().map(|p| p.demands[k]).collect()
    }

    /// Utilization series of station `k` across levels.
    pub fn utilization_series(&self, k: usize) -> Vec<f64> {
        self.points.iter().map(|p| p.utilization[k]).collect()
    }

    /// The measured point at concurrency `n`, if tested.
    pub fn at(&self, n: usize) -> Option<&MeasuredPoint> {
        self.points.iter().find(|p| p.users == n)
    }

    /// The campaign as a paper-style utilization table.
    pub fn utilization_table(&self) -> UtilizationTable {
        UtilizationTable {
            stations: self.stations.clone(),
            rows: self
                .points
                .iter()
                .map(|p| UtilizationRow {
                    users: p.users,
                    throughput: p.throughput,
                    response: p.response,
                    utilization: p.utilization.clone(),
                })
                .collect(),
        }
    }

    /// Station index by name.
    pub fn station_index(&self, name: &str) -> Option<usize> {
        self.stations.iter().position(|s| s == name)
    }

    /// Exports the measured demands as MVASD input samples, indexed by
    /// concurrency (the paper's main model: `D_k` as a function of `N`).
    pub fn to_demand_samples(&self) -> mvasd_core::profile::DemandSamples {
        mvasd_core::profile::DemandSamples {
            station_names: self.stations.clone(),
            server_counts: self.server_counts.clone(),
            think_time: self.think_time,
            levels: self.points.iter().map(|p| p.users as f64).collect(),
            demands: (0..self.stations.len())
                .map(|k| self.demand_series(k))
                .collect(),
        }
    }

    /// Exports the measured demands indexed by measured **throughput**
    /// (paper Section 7 / Fig. 11: "service demand vs. throughput …
    /// more tractable models when using open systems"). Points are
    /// reordered by ascending throughput, as interpolation requires.
    pub fn to_demand_samples_by_throughput(&self) -> mvasd_core::profile::DemandSamples {
        let mut order: Vec<usize> = (0..self.points.len()).collect();
        order.sort_by(|&a, &b| {
            self.points[a]
                .throughput
                .partial_cmp(&self.points[b].throughput)
                .expect("throughputs are finite")
        });
        mvasd_core::profile::DemandSamples {
            station_names: self.stations.clone(),
            server_counts: self.server_counts.clone(),
            think_time: self.think_time,
            levels: order.iter().map(|&i| self.points[i].throughput).collect(),
            demands: (0..self.stations.len())
                .map(|k| order.iter().map(|&i| self.points[i].demands[k]).collect())
                .collect(),
        }
    }
}

/// Campaign-wide controls.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Duration of each load test (seconds of simulated time).
    pub test_duration: f64,
    /// Run levels concurrently on this many worker threads (1 = serial).
    pub parallelism: usize,
    /// Base RNG seed; each level derives its own stream from it.
    pub base_seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            test_duration: 600.0,
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            base_seed: 0x5eed,
        }
    }
}

/// Runs a measurement campaign for `app` at the given concurrency levels.
///
/// Each level is one independent simulated load test; levels run on a
/// scoped thread pool. Results come back sorted ascending by level.
pub fn run_campaign(
    app: &AppModel,
    levels: &[u64],
    cfg: &CampaignConfig,
) -> Result<Campaign, TestbedError> {
    if levels.is_empty() {
        return Err(TestbedError::InvalidParameter {
            what: "campaign needs at least one level",
        });
    }
    if levels.contains(&0) {
        return Err(TestbedError::InvalidParameter {
            what: "levels must be >= 1",
        });
    }
    if cfg.parallelism == 0 {
        return Err(TestbedError::InvalidParameter {
            what: "parallelism must be >= 1",
        });
    }
    app.validate()?;
    run_campaign_with(app, levels, cfg, |n| {
        let mut gcfg = GrinderConfig::for_users(n, cfg.test_duration);
        gcfg.seed ^= cfg.base_seed;
        load_test(app, &gcfg)
    })
}

/// Renders a worker panic payload as text for [`TestbedError::WorkerPanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The campaign engine, generic over the per-level measurement job so the
/// panic-containment path is testable without a panicking simulator.
fn run_campaign_with<F>(
    app: &AppModel,
    levels: &[u64],
    cfg: &CampaignConfig,
    run_level: F,
) -> Result<Campaign, TestbedError>
where
    F: Fn(usize) -> Result<LoadTestResult, TestbedError> + Sync,
{
    let server_counts = app.server_counts();
    let _campaign_span = obsv::span_with("campaign.run", || {
        format!("app={} levels={}", app.name, levels.len())
    });
    obsv::counter("campaign.levels", levels.len() as u64);
    // Fan-out start, for the queue-wait vs execute split below. Clock reads
    // happen only with a recorder installed.
    let fanout_start = if obsv::enabled() {
        Some(Instant::now())
    } else {
        None
    };
    let mut collected: Vec<(usize, Result<LoadTestResult, TestbedError>)> =
        scoped_indexed(levels.len(), cfg.parallelism, |i| {
            let n = levels[i] as usize;
            // The span's thread id tags which worker served the level.
            let _level_span = obsv::span_with("campaign.level", || format!("n={n}"));
            // Queue wait: fan-out start to worker pickup. Execute: the
            // level's own measurement time.
            let exec_start = fanout_start.map(|t0| {
                obsv::observe_duration("campaign.queue_wait", t0.elapsed());
                Instant::now()
            });
            // Contain panics to the level that raised them: the other
            // levels keep running and the caller gets a typed error.
            let res = catch_unwind(AssertUnwindSafe(|| run_level(n))).unwrap_or_else(|payload| {
                Err(TestbedError::WorkerPanic {
                    level: n,
                    message: panic_message(payload),
                })
            });
            if let Some(start) = exec_start {
                obsv::observe_duration("campaign.execute", start.elapsed());
            }
            (n, res)
        });
    collected.sort_by_key(|(n, _)| *n);

    let mut points = Vec::with_capacity(collected.len());
    for (n, res) in collected {
        let res = res?;
        let row = UtilizationRow {
            users: n,
            throughput: res.throughput(),
            response: res.response_time(),
            utilization: res.utilizations(),
        };
        let demands =
            demands_from_row(&row, &server_counts).ok_or(TestbedError::InvalidParameter {
                what: "load test produced no completions; demands undefined",
            })?;
        points.push(MeasuredPoint {
            users: n,
            throughput: row.throughput,
            response: row.response,
            cycle_time: row.response + app.think_time,
            utilization: row.utilization,
            demands,
        });
    }

    Ok(Campaign {
        app_name: app.name.clone(),
        stations: app.station_names(),
        server_counts,
        think_time: app.think_time,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::vins;

    fn quick_cfg() -> CampaignConfig {
        CampaignConfig {
            test_duration: 300.0,
            parallelism: 4,
            base_seed: 7,
        }
    }

    #[test]
    fn campaign_measures_ascending_levels() {
        let app = vins::model();
        let c = run_campaign(&app, &[25, 5, 1], &quick_cfg()).unwrap();
        assert_eq!(c.levels(), vec![1, 5, 25]);
        assert_eq!(c.points.len(), 3);
        // Throughput grows with concurrency pre-saturation.
        let xs = c.throughputs();
        assert!(xs[0] < xs[1] && xs[1] < xs[2], "{xs:?}");
    }

    #[test]
    fn demands_fall_with_level_like_the_paper() {
        let app = vins::model();
        let c = run_campaign(&app, &[1, 50, 200], &quick_cfg()).unwrap();
        let k = c.station_index("db-disk").unwrap();
        let d = c.demand_series(k);
        assert!(d[0] > d[2], "db-disk demand should fall: {d:?}");
    }

    #[test]
    fn campaign_table_finds_bottleneck() {
        let app = vins::model();
        let c = run_campaign(&app, &[150], &quick_cfg()).unwrap();
        let table = c.utilization_table();
        let b = table.measured_bottleneck().unwrap();
        assert_eq!(c.stations[b], "db-disk");
    }

    #[test]
    fn accessors() {
        let app = vins::model();
        let c = run_campaign(&app, &[1, 10], &quick_cfg()).unwrap();
        assert!(c.at(10).is_some());
        assert!(c.at(99).is_none());
        assert_eq!(c.cycle_times().len(), 2);
        assert_eq!(c.utilization_series(0).len(), 2);
        assert_eq!(c.station_index("nope"), None);
        assert_eq!(c.think_time, 1.0);
    }

    #[test]
    fn rejects_bad_configs() {
        let app = vins::model();
        assert!(run_campaign(&app, &[], &quick_cfg()).is_err());
        assert!(run_campaign(&app, &[0], &quick_cfg()).is_err());
        let bad = CampaignConfig {
            parallelism: 0,
            ..quick_cfg()
        };
        assert!(run_campaign(&app, &[1], &bad).is_err());
    }

    #[test]
    fn demand_samples_export_roundtrips() {
        let app = vins::model();
        let c = run_campaign(&app, &[1, 20, 60], &quick_cfg()).unwrap();
        let s = c.to_demand_samples();
        assert_eq!(s.levels, vec![1.0, 20.0, 60.0]);
        assert_eq!(s.demands.len(), 12);
        assert_eq!(s.demands[0].len(), 3);
        assert_eq!(s.think_time, 1.0);
        assert_eq!(s.server_counts[0], 16);

        let t = c.to_demand_samples_by_throughput();
        // Throughput-ordered levels must ascend.
        assert!(t.levels.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t.demands[0].len(), 3);
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error() {
        let app = vins::model();
        let cfg = quick_cfg();
        let err = run_campaign_with(&app, &[1, 5, 25], &cfg, |n| {
            if n == 5 {
                panic!("injected failure at level {n}");
            }
            let mut gcfg = GrinderConfig::for_users(n, cfg.test_duration);
            gcfg.seed ^= cfg.base_seed;
            load_test(&app, &gcfg)
        })
        .unwrap_err();
        match err {
            TestbedError::WorkerPanic { level, message } => {
                assert_eq!(level, 5);
                assert!(message.contains("injected failure"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn worker_panic_does_not_abort_other_levels() {
        // With parallelism 1 the panicking level runs first; the remaining
        // levels must still be measured (the campaign fails *after* the
        // sweep, with the typed error, not by unwinding mid-sweep).
        let app = vins::model();
        let cfg = CampaignConfig {
            parallelism: 1,
            ..quick_cfg()
        };
        let measured = std::sync::Mutex::new(Vec::new());
        let err = run_campaign_with(&app, &[1, 5, 25], &cfg, |n| {
            if n == 1 {
                panic!("boom");
            }
            measured.lock().unwrap().push(n);
            let mut gcfg = GrinderConfig::for_users(n, cfg.test_duration);
            gcfg.seed ^= cfg.base_seed;
            load_test(&app, &gcfg)
        })
        .unwrap_err();
        assert!(matches!(err, TestbedError::WorkerPanic { level: 1, .. }));
        let mut seen = measured.into_inner().unwrap();
        seen.sort();
        assert_eq!(seen, vec![5, 25]);
    }

    #[test]
    fn serial_and_parallel_agree() {
        // Seeds are per-level, so parallelism must not change results.
        let app = vins::model();
        let serial = run_campaign(
            &app,
            &[1, 20],
            &CampaignConfig {
                parallelism: 1,
                ..quick_cfg()
            },
        )
        .unwrap();
        let parallel = run_campaign(&app, &[1, 20], &quick_cfg()).unwrap();
        assert_eq!(serial.points, parallel.points);
    }
}
