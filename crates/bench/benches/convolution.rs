//! Incremental convolution workspace vs the from-scratch reference path.
//!
//! The workload is the paper-scale VINS network: 12 stations across three
//! tiers, each tier fronted by a 16-core CPU, swept to N = 1500 (the
//! paper's deepest concurrency). Two cost models are compared:
//!
//! - `workspace_sweep/N` — one [`ConvWorkspace`] carried across the whole
//!   sweep: `O(K·n)` per step, zero steady-state allocation.
//! - `scratch_solve_at/N` — [`reference_solve_at`], the from-scratch
//!   log-domain reference, at the last population alone (`O(K·n²)`): the
//!   oracle the `saturating_600` benchmark gate calls.
//!
//! Beyond the text table the bench emits
//! `results/BENCH_convolution.json` (schema `mvasd-bench/1`, documented in
//! `EXPERIMENTS.md`) so CI can diff the quantiles.

use mvasd_bench::output::{results_dir, write_text};
use mvasd_bench::timing::{bench_json, quick_mode, Bench, Plan};
use mvasd_queueing::mva::{reference_solve_at, ConvWorkspace, LdStation, RateFunction};

/// The 12-station, three-tier, 16-core VINS-scale network (same shape and
/// demands as the `paper_scale_network_respects_bottleneck_law` test).
fn vins_stations() -> Vec<LdStation> {
    let spec: [(&str, usize, f64); 12] = [
        ("load-cpu", 16, 0.004),
        ("load-disk", 1, 0.0085),
        ("load-tx", 1, 0.0012),
        ("load-rx", 1, 0.0018),
        ("app-cpu", 16, 0.012),
        ("app-disk", 1, 0.0022),
        ("app-tx", 1, 0.0015),
        ("app-rx", 1, 0.0015),
        ("db-cpu", 16, 0.055),
        ("db-disk", 1, 0.0098),
        ("db-tx", 1, 0.0014),
        ("db-rx", 1, 0.0012),
    ];
    spec.iter()
        .map(|&(name, c, d)| {
            let rate = if c > 1 {
                RateFunction::MultiServer(c)
            } else {
                RateFunction::SingleServer
            };
            LdStation::new(name, d, rate)
        })
        .collect()
}

/// Marginal limits: track the full `p(0..C−1)` snapshot of every 16-core
/// CPU (what the eq. 10 correction consumes), nothing else.
fn marginal_limits() -> Vec<usize> {
    vins_stations()
        .iter()
        .map(|s| match s.rate {
            RateFunction::MultiServer(c) if c > 1 => c,
            _ => 0,
        })
        .collect()
}

fn workspace_sweep(stations: &[LdStation], limits: &[usize], n_max: usize) -> f64 {
    let mut ws = ConvWorkspace::new(stations, 1.0, limits).expect("valid VINS network");
    ws.reserve(n_max);
    for _ in 0..n_max {
        ws.advance().expect("sweep within capacity");
    }
    ws.throughput()
}

fn main() {
    let stations = vins_stations();
    let limits = marginal_limits();
    let n_cap = if quick_mode() { 200 } else { 1500 };
    let n_mid = if quick_mode() { 120 } else { 300 };

    let mut b = Bench::new("convolution_workspace_vins");
    b.measure(&format!("workspace_sweep/{n_mid}"), Plan::default(), || {
        workspace_sweep(&stations, &limits, n_mid)
    });
    b.measure(&format!("workspace_sweep/{n_cap}"), Plan::default(), || {
        workspace_sweep(&stations, &limits, n_cap)
    });
    b.measure(&format!("scratch_solve_at/{n_cap}"), Plan::heavy(), || {
        let (x, _, _) =
            reference_solve_at(&stations, 1.0, n_cap, &limits).expect("valid VINS network");
        x
    });
    println!("{}", b.report());

    let json = bench_json(&[&b]);
    let path = write_text(&results_dir(), "BENCH_convolution.json", &json)
        .expect("results directory is writable");
    println!("wrote {}", path.display());
}
