//! Fig. 1 — "The Grinder test output with respect to length of tests":
//! the ramp-up transient (worker processes starting on
//! `processIncrementInterval`, threads sleeping `initialSleepTime`)
//! followed by the steady state the paper averages over.

use std::path::{Path, PathBuf};

use mvasd_testbed::apps::jpetstore;
use mvasd_testbed::grinder::{load_test, GrinderConfig};

use crate::output::Table;

/// Regenerates Fig. 1: TPS and mean response time per time bucket across a
/// ramped JPetStore load test.
pub fn fig1(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let app = jpetstore::model();
    let cfg = GrinderConfig {
        processes: 10,
        threads: 12, // 120 virtual users
        agents: 1,
        duration: 600.0,
        process_increment_interval: 15.0, // 150 s ramp, like the paper's runs
        sleep_time_variation: 0.2,        // grinder.sleepTimeVariation
        warmup_fraction: 0.4,
        seed: 0xF161,
    };
    let res = load_test(&app, &cfg).expect("calibrated model load test");

    let mut t = Table::new(vec![
        "time_s",
        "tps",
        "mean_response_s",
        "db_cpu_util",
        "db_disk_util",
        "app_cpu_util",
    ]);
    // vmstat-style sampled utilization timelines (stations 8, 9, 4).
    let db_cpu = res.report.utilization_timeline(8);
    let db_disk = res.report.utilization_timeline(9);
    let app_cpu = res.report.utilization_timeline(4);
    for (i, b) in res.report.time_series.iter().enumerate() {
        t.push(vec![
            b.start,
            b.tps,
            b.mean_response,
            db_cpu.get(i).copied().unwrap_or(0.0),
            db_disk.get(i).copied().unwrap_or(0.0),
            app_cpu.get(i).copied().unwrap_or(0.0),
        ]);
    }
    let p = t.write(dir, "fig1_grinder_timeseries.csv")?;

    // Sanity echo for the console: transient vs steady-state means.
    let ts = &res.report.time_series;
    let early: f64 = ts[..12].iter().map(|b| b.tps).sum::<f64>() / 12.0;
    let mid = ts.len() / 2;
    let steady: f64 = ts[mid..mid + 12].iter().map(|b| b.tps).sum::<f64>() / 12.0;
    crate::say!(
        "fig1: ramp-up mean {early:.1} tps vs steady-state {steady:.1} tps \
         (steady X = {:.1} pages/s, R = {:.3} s)",
        res.throughput(),
        res.response_time()
    );
    Ok(vec![p])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_writes_timeseries() {
        let dir = std::env::temp_dir().join("mvasd_fig1_test");
        let paths = fig1(&dir).unwrap();
        let content = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(content.lines().count() > 50);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
