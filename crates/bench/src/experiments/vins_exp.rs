//! VINS experiments — paper Table 2 (utilizations), Fig. 4 (MVA·i
//! deviations), Fig. 5 (measured demands), Fig. 6 (MVASD vs MVA·i),
//! Table 4 (deviation summary), Fig. 10 (spline-interpolated demands).

use std::path::{Path, PathBuf};

use mvasd_core::accuracy::{compare_solver, render_table, DeviationReport};
use mvasd_core::profile::{DemandAxis, InterpolationKind, ServiceDemandProfile};
use mvasd_core::solver::MvasdSolver;
use mvasd_numerics::interp::{BoundaryCondition, CubicSpline, Extrapolation, Interpolant};
use mvasd_queueing::mva::{ClosedSolver, MultiserverMvaSolver, MvaSolution};
use mvasd_queueing::network::{ClosedNetwork, Station};
use mvasd_testbed::campaign::Campaign;

use super::Ctx;
use crate::output::{write_text, Table};

/// Max population of the VINS prediction curves.
const N_MAX: usize = 1500;

/// The concurrency levels whose measured demands feed the MVA·i baselines
/// (the paper plots MVA·i for several i, naming `MVA 203` explicitly).
const MVA_I_LEVELS: [usize; 4] = [1, 103, 203, 1500];

/// Builds the static closed network from demands measured at one level.
pub(crate) fn network_from_demands(c: &Campaign, demands: &[f64]) -> ClosedNetwork {
    let stations = c
        .stations
        .iter()
        .zip(c.server_counts.iter())
        .zip(demands.iter())
        .map(|((name, &servers), &d)| Station::queueing(name, servers, 1.0, d))
        .collect();
    ClosedNetwork::new(stations, c.think_time).expect("measured demands form a valid network")
}

/// The MVA·i baseline (Algorithm 2 with demands sampled at level `i`) as a
/// [`ClosedSolver`].
pub(crate) fn mva_i_solver(c: &Campaign, i: usize) -> MultiserverMvaSolver {
    let point = c
        .at(i)
        .expect("requested level was measured by the campaign");
    MultiserverMvaSolver::new(network_from_demands(c, &point.demands))
}

/// MVASD over the campaign's full demand array as a [`ClosedSolver`].
pub(crate) fn mvasd_solver(c: &Campaign) -> MvasdSolver {
    let profile = ServiceDemandProfile::from_samples(
        &c.to_demand_samples(),
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .expect("campaign demands form a valid profile");
    MvasdSolver::new(profile)
}

/// All models the paper compares on a campaign: MVASD plus the MVA·i
/// baselines at whichever of `levels` were measured.
pub(crate) fn model_solvers(
    c: &Campaign,
    levels: &[usize],
) -> Vec<(String, Box<dyn ClosedSolver>)> {
    let mut models: Vec<(String, Box<dyn ClosedSolver>)> =
        vec![("MVASD".to_string(), Box::new(mvasd_solver(c)))];
    for &i in levels {
        if c.at(i).is_some() {
            models.push((format!("MVA {i}"), Box::new(mva_i_solver(c, i))));
        }
    }
    models
}

/// Solves MVA·i (Algorithm 2 with demands sampled at level `i`).
pub(crate) fn mva_i(c: &Campaign, i: usize, n_max: usize) -> MvaSolution {
    mva_i_solver(c, i).solve(n_max).expect("solver")
}

/// Solves MVASD from the campaign's full demand array.
pub(crate) fn mvasd_from(c: &Campaign, n_max: usize) -> MvaSolution {
    mvasd_solver(c).solve(n_max).expect("solver")
}

/// Writes measured (levels) + predicted (full curves) throughput/cycle-time
/// tables for a set of named models.
fn write_prediction_tables(
    dir: &Path,
    stem: &str,
    c: &Campaign,
    models: &[(&str, &MvaSolution)],
) -> std::io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();

    let mut measured = Table::new(vec!["n", "throughput_measured", "cycle_measured"]);
    for p in &c.points {
        measured.push(vec![p.users as f64, p.throughput, p.cycle_time]);
    }
    paths.push(measured.write(dir, &format!("{stem}_measured.csv"))?);

    let mut headers = vec!["n".to_string()];
    for (name, _) in models {
        headers.push(format!("x_{name}"));
        headers.push(format!("cycle_{name}"));
    }
    let mut t = Table {
        headers,
        rows: Vec::new(),
    };
    let n_max = models[0].1.points.len();
    for n in 1..=n_max {
        let mut row = vec![n as f64];
        for (_, sol) in models {
            let p = sol.at(n).expect("uniform n_max");
            row.push(p.throughput);
            row.push(p.cycle_time);
        }
        t.push(row);
    }
    paths.push(t.write(dir, &format!("{stem}_predicted.csv"))?);
    Ok(paths)
}

/// Table 2 — VINS utilization percentages per station and level.
pub fn table2(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let c = ctx.vins();
    let table = c.utilization_table();
    let mut csv = Table::new(
        std::iter::once("users".to_string())
            .chain(c.stations.iter().cloned())
            .collect::<Vec<_>>(),
    );
    for row in &table.rows {
        let mut r = vec![row.users as f64];
        r.extend(row.utilization.iter().map(|u| u * 100.0));
        csv.push(r);
    }
    let p1 = csv.write(dir, "table2_vins_utilization.csv")?;
    let p2 = write_text(dir, "table2_vins_utilization.txt", &table.render())?;
    let bottleneck = table.measured_bottleneck().expect("non-empty table");
    crate::say!(
        "table2: measured bottleneck = {} ({:.1}% at N={})",
        c.stations[bottleneck],
        table.rows.last().expect("table has rows").utilization[bottleneck] * 100.0,
        table.rows.last().expect("table has rows").users
    );
    Ok(vec![p1, p2])
}

/// Fig. 4 — MVA·i predictions vs measurements (no MVASD yet).
pub fn fig4(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let c = ctx.vins();
    let sols: Vec<(String, MvaSolution)> = MVA_I_LEVELS
        .iter()
        .map(|&i| (format!("mva{i}"), mva_i(c, i, N_MAX)))
        .collect();
    let model_refs: Vec<(&str, &MvaSolution)> = sols.iter().map(|(n, s)| (n.as_str(), s)).collect();
    write_prediction_tables(dir, "fig4_vins_mva_i", c, &model_refs)
}

/// Fig. 5 — measured service demands of the database server vs concurrency.
pub fn fig5(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let c = ctx.vins();
    let mut t = Table::new(vec!["n", "db_cpu", "db_disk", "db_net_tx", "db_net_rx"]);
    let idx: Vec<usize> = ["db-cpu", "db-disk", "db-net-tx", "db-net-rx"]
        .iter()
        .map(|s| c.station_index(s).expect("db stations present"))
        .collect();
    for p in &c.points {
        t.push(vec![
            p.users as f64,
            p.demands[idx[0]],
            p.demands[idx[1]],
            p.demands[idx[2]],
            p.demands[idx[3]],
        ]);
    }
    let path = t.write(dir, "fig5_vins_db_demands.csv")?;
    let d = &c.points;
    crate::say!(
        "fig5: db-disk demand falls {:.2} ms -> {:.2} ms over N = {}..{}",
        d.first().expect("campaign has points").demands[idx[1]] * 1e3,
        d.last().expect("campaign has points").demands[idx[1]] * 1e3,
        d.first().expect("campaign has points").users,
        d.last().expect("campaign has points").users
    );
    Ok(vec![path])
}

/// Fig. 6 — MVASD vs MVA·i vs measured.
pub fn fig6(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let c = ctx.vins();
    let sd = mvasd_from(c, N_MAX);
    let mut sols: Vec<(String, MvaSolution)> = vec![("mvasd".to_string(), sd)];
    for &i in &MVA_I_LEVELS {
        sols.push((format!("mva{i}"), mva_i(c, i, N_MAX)));
    }
    let model_refs: Vec<(&str, &MvaSolution)> = sols.iter().map(|(n, s)| (n.as_str(), s)).collect();
    write_prediction_tables(dir, "fig6_vins_mvasd", c, &model_refs)
}

/// Builds the deviation reports (eq. 15) of MVASD and the MVA·i baselines
/// against the measured campaign. Every model runs through the shared
/// [`ClosedSolver`] interface, so adding one is a one-line change to
/// [`model_solvers`].
pub(crate) fn deviation_reports(c: &Campaign, mva_i_levels: &[usize]) -> Vec<DeviationReport> {
    let levels = c.levels();
    let mx = c.throughputs();
    let mc = c.cycle_times();
    model_solvers(c, mva_i_levels)
        .iter()
        .map(|(name, solver)| {
            compare_solver(name, solver.as_ref(), &levels, &mx, &mc).expect("deviation")
        })
        .collect()
}

/// Table 4 — mean deviation in modeling VINS.
pub fn table4(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let c = ctx.vins();
    let reports = deviation_reports(c, &MVA_I_LEVELS);
    let rendered = render_table(
        "Table 4 — Mean Deviation in Modeling the VINS application",
        &reports,
    );
    let p1 = write_text(dir, "table4_vins_deviation.txt", &rendered)?;
    let mut csv = Table::new(vec!["model_index", "throughput_dev_pct", "cycle_dev_pct"]);
    for (i, r) in reports.iter().enumerate() {
        csv.push(vec![i as f64, r.throughput_mean_pct, r.cycle_mean_pct]);
    }
    let p2 = csv.write(dir, "table4_vins_deviation.csv")?;
    crate::say!("{rendered}");
    Ok(vec![p1, p2])
}

/// Fig. 10 — spline-interpolated demand curves for the VINS DB server.
pub fn fig10(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let c = ctx.vins();
    let levels: Vec<f64> = c.levels().iter().map(|&l| l as f64).collect();
    let mut t = Table::new(vec!["n", "db_cpu_spline", "db_disk_spline"]);
    let splines: Vec<CubicSpline> = ["db-cpu", "db-disk"]
        .iter()
        .map(|name| {
            let k = c.station_index(name).expect("db station");
            CubicSpline::new(&levels, &c.demand_series(k), BoundaryCondition::NotAKnot)
                .expect("spline over measured demands")
                .with_extrapolation(Extrapolation::Clamp)
        })
        .collect();
    let mut n = 1.0f64;
    while n <= N_MAX as f64 {
        t.push(vec![n, splines[0].eval(n), splines[1].eval(n)]);
        n += 5.0;
    }
    let p = t.write(dir, "fig10_vins_demand_splines.csv")?;
    Ok(vec![p])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure;
    use mvasd_testbed::apps::vins;

    #[test]
    fn mva_i_and_mvasd_build_from_small_campaign() {
        let c = measure(&vins::model(), &[1, 30, 90]);
        let sol = mva_i(&c, 30, 120);
        assert_eq!(sol.points.len(), 120);
        let sd = mvasd_from(&c, 120);
        assert_eq!(sd.points.len(), 120);
        // MVASD tracks the measured point at an intermediate level better
        // than MVA·1 (cold demands overestimate everywhere).
        let measured_x = c.at(90).unwrap().throughput;
        let sd_x = sd.at(90).unwrap().throughput;
        let mva1_x = mva_i(&c, 1, 120).at(90).unwrap().throughput;
        assert!(
            (sd_x - measured_x).abs() <= (mva1_x - measured_x).abs() + 1e-9,
            "mvasd {sd_x}, mva1 {mva1_x}, measured {measured_x}"
        );
    }

    #[test]
    fn network_from_demands_preserves_structure() {
        let c = measure(&vins::model(), &[1, 20]);
        let net = network_from_demands(&c, &c.points[0].demands);
        assert_eq!(net.stations().len(), 12);
        assert_eq!(net.think_time(), 1.0);
    }
}
