//! JPetStore experiments — paper Table 3 (utilizations), Fig. 7 (MVASD vs
//! MVA·i, including the 140–168 throughput dip), Fig. 8 (multi-server vs
//! single-server MVASD), Fig. 9 (predicted vs measured DB utilization),
//! Table 5 (deviation summary), Fig. 11 (demand vs throughput), Fig. 12
//! (sample-count sensitivity).

use std::path::{Path, PathBuf};

use mvasd_core::accuracy::{compare_solution, compare_solver, render_table};
use mvasd_core::algorithm::{mvasd, mvasd_single_server};
use mvasd_core::profile::{DemandAxis, InterpolationKind, ServiceDemandProfile};
use mvasd_core::solver::{MvasdSingleServerSolver, MvasdSolver};
use mvasd_numerics::interp::{BoundaryCondition, CubicSpline, Interpolant};
use mvasd_queueing::mva::{ClosedSolver, MvaSolution};

use super::vins_exp::{mva_i, mva_i_solver, mvasd_from};
use super::Ctx;
use crate::output::{write_text, Table};

/// Max population of the JPetStore prediction curves (the paper's
/// Chebyshev design interval tops out at 300).
const N_MAX: usize = 300;

/// MVA·i baseline levels (the paper plots MVA 28/70/140/210).
const MVA_I_LEVELS: [usize; 4] = [28, 70, 140, 210];

/// Table 3 — JPetStore utilization percentages.
pub fn table3(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let c = ctx.jpetstore();
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
    let p1 = csv.write(dir, "table3_jpetstore_utilization.csv")?;
    let p2 = write_text(dir, "table3_jpetstore_utilization.txt", &table.render())?;
    let b = table.measured_bottleneck().expect("non-empty");
    crate::say!(
        "table3: measured bottleneck = {} ({:.1}% at N={})",
        c.stations[b],
        table.rows.last().expect("table has rows").utilization[b] * 100.0,
        table.rows.last().expect("table has rows").users
    );
    Ok(vec![p1, p2])
}

/// Fig. 7 — MVASD vs MVA·{28,70,140,210} vs measured.
pub fn fig7(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let c = ctx.jpetstore();
    let mut sols: Vec<(String, MvaSolution)> = vec![("mvasd".into(), mvasd_from(c, N_MAX))];
    for &i in &MVA_I_LEVELS {
        sols.push((format!("mva{i}"), mva_i(c, i, N_MAX)));
    }

    let mut paths = Vec::new();
    let mut measured = Table::new(vec!["n", "throughput_measured", "cycle_measured"]);
    for p in &c.points {
        measured.push(vec![p.users as f64, p.throughput, p.cycle_time]);
    }
    paths.push(measured.write(dir, "fig7_jpetstore_measured.csv")?);

    let mut headers = vec!["n".to_string()];
    for (name, _) in &sols {
        headers.push(format!("x_{name}"));
        headers.push(format!("cycle_{name}"));
    }
    let mut t = Table {
        headers,
        rows: Vec::new(),
    };
    for n in 1..=N_MAX {
        let mut row = vec![n as f64];
        for (_, sol) in &sols {
            let p = sol.at(n).expect("solved range");
            row.push(p.throughput);
            row.push(p.cycle_time);
        }
        t.push(row);
    }
    paths.push(t.write(dir, "fig7_jpetstore_predicted.csv")?);

    // The dip: measured throughput peaks between 140 and 168 then falls by
    // 210 (contention); MVASD follows it while static MVA·i cannot bend.
    let sd = &sols[0].1;
    let (peak_n, peak_x) = sd
        .points
        .iter()
        .map(|p| (p.n, p.throughput))
        .fold((0, 0.0), |acc, v| if v.1 > acc.1 { v } else { acc });
    let x210 = sd.at(210).expect("solution covers 1..=300").throughput;
    crate::say!(
        "fig7: MVASD picks up the saturation dip: peak X({peak_n}) = {peak_x:.1}, \
         X(210) = {x210:.1} (measured peak {:.1} at 168 -> {:.1} at 210); \
         static MVA curves are monotone by construction",
        c.at(168).expect("campaign measured N=168").throughput,
        c.at(210).expect("campaign measured N=210").throughput
    );
    Ok(paths)
}

/// Fig. 8 — multi-server MVASD vs the single-server-normalized variant.
pub fn fig8(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let c = ctx.jpetstore();
    let profile = ServiceDemandProfile::from_samples(
        &c.to_demand_samples(),
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .expect("profile");
    let multi = mvasd(&profile, N_MAX).expect("solver");
    let single = mvasd_single_server(&profile, N_MAX).expect("solver");

    let mut t = Table::new(vec![
        "n",
        "x_mvasd",
        "cycle_mvasd",
        "x_mvasd_single_server",
        "cycle_mvasd_single_server",
    ]);
    for n in 1..=N_MAX {
        let pm = multi.at(n).expect("solution covers 1..=N_MAX");
        let ps = single.at(n).expect("solution covers 1..=N_MAX");
        t.push(vec![
            n as f64,
            pm.throughput,
            pm.cycle_time,
            ps.throughput,
            ps.cycle_time,
        ]);
    }
    let p = t.write(dir, "fig8_jpetstore_single_vs_multi.csv")?;
    Ok(vec![p])
}

/// Fig. 9 — DB-server utilization predicted by MVASD vs measured.
pub fn fig9(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let c = ctx.jpetstore();
    let sd = mvasd_from(c, N_MAX);
    let cpu = c.station_index("db-cpu").expect("db-cpu");
    let disk = c.station_index("db-disk").expect("db-disk");

    let mut predicted = Table::new(vec!["n", "db_cpu_util_pred", "db_disk_util_pred"]);
    for p in &sd.points {
        predicted.push(vec![
            p.n as f64,
            p.stations[cpu].utilization * 100.0,
            p.stations[disk].utilization * 100.0,
        ]);
    }
    let p1 = predicted.write(dir, "fig9_jpetstore_db_util_predicted.csv")?;

    let mut measured = Table::new(vec!["n", "db_cpu_util_meas", "db_disk_util_meas"]);
    for p in &c.points {
        measured.push(vec![
            p.users as f64,
            p.utilization[cpu] * 100.0,
            p.utilization[disk] * 100.0,
        ]);
    }
    let p2 = measured.write(dir, "fig9_jpetstore_db_util_measured.csv")?;
    Ok(vec![p1, p2])
}

/// Table 5 — mean deviation in modeling JPetStore, including the
/// single-server-normalized MVASD baseline.
pub fn table5(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let c = ctx.jpetstore();
    let levels = c.levels();
    let mx = c.throughputs();
    let mc = c.cycle_times();

    let profile = ServiceDemandProfile::from_samples(
        &c.to_demand_samples(),
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .expect("profile");
    // Every model is a ClosedSolver, so the comparison is a single sweep.
    let mut models: Vec<(String, Box<dyn ClosedSolver>)> = vec![
        (
            "MVASD: Single-Server".to_string(),
            Box::new(MvasdSingleServerSolver::new(profile.clone())),
        ),
        ("MVASD".to_string(), Box::new(MvasdSolver::new(profile))),
    ];
    for &i in &MVA_I_LEVELS {
        models.push((format!("MVA {i}"), Box::new(mva_i_solver(c, i))));
    }
    let reports: Vec<_> = models
        .iter()
        .map(|(name, solver)| {
            compare_solver(name, solver.as_ref(), &levels, &mx, &mc).expect("deviation")
        })
        .collect();
    let rendered = render_table(
        "Table 5 — Mean Deviation in Modeling the JPetStore application",
        &reports,
    );
    let p1 = write_text(dir, "table5_jpetstore_deviation.txt", &rendered)?;
    let mut csv = Table::new(vec!["model_index", "throughput_dev_pct", "cycle_dev_pct"]);
    for (i, r) in reports.iter().enumerate() {
        csv.push(vec![i as f64, r.throughput_mean_pct, r.cycle_mean_pct]);
    }
    let p2 = csv.write(dir, "table5_jpetstore_deviation.csv")?;
    crate::say!("{rendered}");
    Ok(vec![p1, p2])
}

/// Fig. 11 — service demands interpolated against **throughput**, and the
/// resulting MVASD prediction accuracy (the paper reports 6.68 % / 6.9 %,
/// worse than the concurrency-indexed 1–2 %).
pub fn fig11(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let c = ctx.jpetstore();
    let samples = c.to_demand_samples_by_throughput();
    let cpu = c.station_index("db-cpu").expect("db-cpu");
    let disk = c.station_index("db-disk").expect("db-disk");

    // Demand-vs-throughput spline curves.
    let mut t = Table::new(vec!["throughput", "db_cpu_demand", "db_disk_demand"]);
    let spline = |k: usize| {
        CubicSpline::new(
            &samples.levels,
            &samples.demands[k],
            BoundaryCondition::NotAKnot,
        )
        .expect("spline")
    };
    let (s_cpu, s_disk) = (spline(cpu), spline(disk));
    let (lo, hi) = (
        samples.levels[0],
        *samples.levels.last().expect("samples are non-empty"),
    );
    let steps = 200;
    for i in 0..=steps {
        let x = lo + (hi - lo) * i as f64 / steps as f64;
        t.push(vec![x, s_cpu.eval(x), s_disk.eval(x)]);
    }
    let p1 = t.write(dir, "fig11_jpetstore_demand_vs_throughput.csv")?;

    // Prediction with the throughput-indexed profile.
    let profile = ServiceDemandProfile::from_samples(
        &samples,
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Throughput,
    )
    .expect("profile");
    let sol = mvasd(&profile, N_MAX).expect("solver");
    let report = compare_solution(
        "MVASD (demand vs throughput)",
        &sol,
        &c.levels(),
        &c.throughputs(),
        &c.cycle_times(),
    )
    .expect("deviation");
    let summary = format!(
        "Fig. 11 — demand interpolated against throughput (JPetStore)\n\
         throughput deviation: {:.2} % (paper: 6.68 %)\n\
         cycle-time deviation: {:.2} % (paper: 6.9 %)\n\
         For comparison the concurrency-indexed MVASD deviations are in table5.\n",
        report.throughput_mean_pct, report.cycle_mean_pct
    );
    let p2 = write_text(dir, "fig11_jpetstore_throughput_axis.txt", &summary)?;
    crate::say!("{summary}");
    Ok(vec![p1, p2])
}

/// Fig. 12 — spline quality with 3 / 5 / 7 demand samples
/// ({1,14,28} ⊂ {…,70,140} ⊂ {…,168,210}).
pub fn fig12(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let c = ctx.jpetstore();
    let samples = c.to_demand_samples();
    let disk = c.station_index("db-disk").expect("db-disk");

    let subsets: [(&str, &[usize]); 3] = [
        ("3_samples", &[0, 1, 2]),
        ("5_samples", &[0, 1, 2, 3, 4]),
        ("7_samples", &[0, 1, 2, 3, 4, 5, 6]),
    ];
    let mut t = Table::new(vec!["n", "spline_3", "spline_5", "spline_7"]);
    let mut splines = Vec::new();
    for (_, keep) in &subsets {
        let sub = samples.subset(keep).expect("valid subset");
        splines.push(
            CubicSpline::new(&sub.levels, &sub.demands[disk], BoundaryCondition::NotAKnot)
                .expect("spline"),
        );
    }
    for n in (1..=210).step_by(1) {
        t.push(vec![
            n as f64,
            splines[0].eval(n as f64),
            splines[1].eval(n as f64),
            splines[2].eval(n as f64),
        ]);
    }
    let p = t.write(dir, "fig12_jpetstore_sample_counts.csv")?;

    // Quantify: deviation of each subset spline from the 7-sample one.
    let dev = |a: &CubicSpline, b: &CubicSpline| {
        let mut worst: f64 = 0.0;
        for n in 1..=210 {
            let (x, y) = (a.eval(n as f64), b.eval(n as f64));
            worst = worst.max(((x - y) / y).abs());
        }
        worst * 100.0
    };
    crate::say!(
        "fig12: max deviation from 7-sample spline: 3 samples {:.1} %, 5 samples {:.1} %",
        dev(&splines[0], &splines[2]),
        dev(&splines[1], &splines[2])
    );
    Ok(vec![p])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure;
    use mvasd_testbed::apps::jpetstore;

    #[test]
    fn throughput_axis_profile_predicts() {
        let c = measure(&jpetstore::model(), &[1, 40, 100]);
        let samples = c.to_demand_samples_by_throughput();
        let profile = ServiceDemandProfile::from_samples(
            &samples,
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Throughput,
        )
        .unwrap();
        let sol = mvasd(&profile, 120).unwrap();
        assert_eq!(sol.points.len(), 120);
        assert!(sol.last().throughput > 0.0);
    }
}
