//! Chebyshev-node experiments — paper Section 8: Fig. 13 (error bounds on
//! exponentials), Fig. 14 (splines through Chebyshev sample sets), Fig. 15
//! (Chebyshev vs random sampling), Fig. 16 (MVASD accuracy from Chebyshev
//! designs).

use std::path::{Path, PathBuf};

use mvasd_core::accuracy::compare_solution;
use mvasd_core::algorithm::mvasd;
use mvasd_core::designer::{design_levels, SamplingStrategy};
use mvasd_core::profile::{DemandAxis, InterpolationKind, ServiceDemandProfile};
use mvasd_numerics::chebyshev::chebyshev_error_bound_exponential;
use mvasd_numerics::interp::{BoundaryCondition, CubicSpline, Extrapolation, Interpolant};
use mvasd_testbed::apps::jpetstore;

use super::Ctx;
use crate::measure;
use crate::output::{write_text, Table};

/// Fig. 13 — Chebyshev interpolation error bound (eq. 19) for `e^{µx}` on
/// `[-1, 1]`, µ ∈ {0.5, 1, 1.5, 2}, node counts 1–10, normalized by the
/// function scale `e^µ` (an error *rate*, as the paper plots).
pub fn fig13(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mus = [0.5, 1.0, 1.5, 2.0];
    let mut t = Table::new(vec!["nodes", "mu_0_5", "mu_1_0", "mu_1_5", "mu_2_0"]);
    for n in 1..=10usize {
        let mut row = vec![n as f64];
        for &mu in &mus {
            let b = chebyshev_error_bound_exponential(n, mu).expect("valid parameters");
            row.push(b / mu.exp() * 100.0); // percent error rate
        }
        t.push(row);
    }
    let p = t.write(dir, "fig13_chebyshev_error_bounds.csv")?;
    crate::say!(
        "fig13: error rate at 7 nodes for mu=2: {:.4} % (paper: < 0.2 % beyond ~5 nodes)",
        chebyshev_error_bound_exponential(7, 2.0).expect("7 nodes, mu=2 is a valid design point")
            / 2f64.exp()
            * 100.0
    );
    Ok(vec![p])
}

/// Runs JPetStore campaigns at the Chebyshev 3/5/7 design points of
/// Section 8 and returns `(levels, campaign)` triples.
fn chebyshev_campaigns() -> Vec<(usize, Vec<u64>, mvasd_testbed::campaign::Campaign)> {
    let (a, b) = jpetstore::CHEBYSHEV_RANGE;
    [3usize, 5, 7]
        .into_iter()
        .map(|k| {
            let levels = design_levels(SamplingStrategy::Chebyshev, k, a, b).expect("design");
            let campaign = measure(&jpetstore::model(), &levels);
            (k, levels, campaign)
        })
        .collect()
}

/// Fig. 14 — spline-interpolated db-disk demands from the Chebyshev 3/5/7
/// sample sets (no Runge oscillation).
pub fn fig14(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let campaigns = chebyshev_campaigns();
    let mut t = Table::new(vec!["n", "cheb3", "cheb5", "cheb7"]);
    let mut splines = Vec::new();
    for (_, _, c) in &campaigns {
        let disk = c.station_index("db-disk").expect("db-disk");
        let levels: Vec<f64> = c.levels().iter().map(|&l| l as f64).collect();
        splines.push(
            CubicSpline::new(&levels, &c.demand_series(disk), BoundaryCondition::NotAKnot)
                .expect("spline")
                .with_extrapolation(Extrapolation::Clamp),
        );
    }
    for n in 1..=300usize {
        t.push(vec![
            n as f64,
            splines[0].eval(n as f64),
            splines[1].eval(n as f64),
            splines[2].eval(n as f64),
        ]);
    }
    let p = t.write(dir, "fig14_chebyshev_demand_splines.csv")?;
    Ok(vec![p])
}

/// Fig. 15 — Chebyshev vs random sample placement: interpolated db-disk
/// demand curves and their worst deviation from the ground-truth curve.
pub fn fig15(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let app = jpetstore::model();
    let (a, b) = jpetstore::CHEBYSHEV_RANGE;
    let k = 7;
    let strategies: Vec<(&str, Vec<u64>)> = vec![
        (
            "chebyshev",
            design_levels(SamplingStrategy::Chebyshev, k, a, b).expect("design"),
        ),
        (
            "random",
            design_levels(SamplingStrategy::Random { seed: 2016 }, k, a, b).expect("design"),
        ),
        (
            "equispaced",
            design_levels(SamplingStrategy::EquiSpaced, k, a, b).expect("design"),
        ),
    ];
    let disk_idx = 9; // db-disk in the 12-station layout
    let truth = &app.stations[disk_idx].curve;

    let mut t = Table::new(vec!["n", "truth", "chebyshev", "random", "equispaced"]);
    let mut splines = Vec::new();
    for (_, levels) in &strategies {
        let c = measure(&app, levels);
        let idx = c.station_index("db-disk").expect("db-disk");
        let lv: Vec<f64> = c.levels().iter().map(|&l| l as f64).collect();
        splines.push(
            CubicSpline::new(&lv, &c.demand_series(idx), BoundaryCondition::NotAKnot)
                .expect("spline")
                .with_extrapolation(Extrapolation::Clamp),
        );
    }
    let mut worst = vec![0.0f64; strategies.len()];
    for n in 1..=300usize {
        let tv = truth.at(n as f64);
        let mut row = vec![n as f64, tv];
        for (i, s) in splines.iter().enumerate() {
            let v = s.eval(n as f64);
            worst[i] = worst[i].max(((v - tv) / tv).abs());
            row.push(v);
        }
        t.push(row);
    }
    let p1 = t.write(dir, "fig15_sampling_strategies.csv")?;
    let summary = format!(
        "Fig. 15 — worst relative deviation of the interpolated db-disk demand\n\
         from the ground-truth curve over N = 1..300 ({k} samples each):\n\
         chebyshev:  {:.2} %\n\
         random:     {:.2} %\n\
         equispaced: {:.2} %\n",
        worst[0] * 100.0,
        worst[1] * 100.0,
        worst[2] * 100.0
    );
    let p2 = write_text(dir, "fig15_sampling_strategies.txt", &summary)?;
    crate::say!("{summary}");
    Ok(vec![p1, p2])
}

/// Fig. 16 — MVASD fed the Chebyshev 3/5/7 demand designs, compared to the
/// measurements at the paper's standard levels.
pub fn fig16(dir: &Path, ctx: &Ctx) -> std::io::Result<Vec<PathBuf>> {
    let reference = ctx.jpetstore();
    let campaigns = chebyshev_campaigns();

    let mut t = Table::new(vec!["n", "x_cheb3", "x_cheb5", "x_cheb7"]);
    let mut sols = Vec::new();
    for (_, _, c) in &campaigns {
        let profile = ServiceDemandProfile::from_samples(
            &c.to_demand_samples(),
            InterpolationKind::CubicNotAKnot,
            DemandAxis::Concurrency,
        )
        .expect("profile");
        sols.push(mvasd(&profile, 300).expect("solver"));
    }
    for n in 1..=300usize {
        t.push(vec![
            n as f64,
            sols[0].at(n).expect("solution covers 1..=300").throughput,
            sols[1].at(n).expect("solution covers 1..=300").throughput,
            sols[2].at(n).expect("solution covers 1..=300").throughput,
        ]);
    }
    let p1 = t.write(dir, "fig16_chebyshev_mvasd_predictions.csv")?;

    let mut summary = String::from(
        "Fig. 16 — MVASD accuracy from Chebyshev designs (vs measured standard levels)\n",
    );
    for ((k, levels, _), sol) in campaigns.iter().zip(sols.iter()) {
        let rep = compare_solution(
            &format!("Chebyshev {k}"),
            sol,
            &reference.levels(),
            &reference.throughputs(),
            &reference.cycle_times(),
        )
        .expect("deviation");
        summary.push_str(&format!(
            "Chebyshev {k} {levels:?}: throughput dev {:.2} %, cycle dev {:.2} %\n",
            rep.throughput_mean_pct, rep.cycle_mean_pct
        ));
    }
    let p2 = write_text(dir, "fig16_chebyshev_mvasd_accuracy.txt", &summary)?;
    crate::say!("{summary}");
    Ok(vec![p1, p2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_is_cheap_and_correct() {
        let dir = std::env::temp_dir().join("mvasd_fig13_test");
        fig13(&dir).unwrap();
        let csv = std::fs::read_to_string(dir.join("fig13_chebyshev_error_bounds.csv")).unwrap();
        assert_eq!(csv.lines().count(), 11);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
