//! Norton flow-equivalent aggregation vs the flat exact solve on a
//! microservice-scale estate.
//!
//! The workload is a synthetic 122-station estate: three tiers (web / app /
//! db) of ten services each, every service a four-station subsystem
//! (contention-scaled 8-way CPU, RAID-pair disk, LAN delay, bonded NIC),
//! plus two load-balancer stations at the root. The CPUs are genuinely
//! load-dependent (sublinear core scaling), so the flat exact reference is
//! the convolution over their rate tables — a plain `C`-server
//! queue cannot express these stations at all. Two cost models are
//! compared:
//!
//! - `flat_exact_sweep/N` — [`MultiserverMvaSolver`] over all 122
//!   flattened stations: ~90 load-dependent factor columns.
//! - `aggregated_sweep/N` — [`HierarchicalSolver`] with plateau truncation:
//!   every service and tier collapses into a flow-equivalent server whose
//!   throughput profile saturates geometrically, so the root model carries
//!   three short-table FES stations plus the balancers.
//! - `aggregated_sweep_cached/N` — the same solve with a warm
//!   [`ProfileCache`], the scenario-sweep steady state where only the root
//!   model is re-advanced.
//!
//! Beyond the text table the bench emits `results/BENCH_hierarchy.json`
//! (schema `mvasd-bench/1` plus a `hierarchy` error-metrics block,
//! documented in `EXPERIMENTS.md`): flat vs aggregated medians, the
//! end-to-end speedup, and the max relative throughput / response-time
//! error of the aggregated solve against the flat exact reference.

use std::sync::Arc;

use mvasd_bench::output::{results_dir, write_text};
use mvasd_bench::timing::{bench_json, quick_mode, Bench, Plan};
use mvasd_obsv as obsv;
use mvasd_queueing::hierarchy::{
    AggregationOptions, HierarchicalNetwork, HierarchicalSolver, NetworkNode, ProfileCache,
    Subsystem,
};
use mvasd_queueing::mva::{ClosedSolver, MultiserverMvaSolver, MvaSolution};
use mvasd_queueing::network::Station;

/// Truncation threshold for the aggregated solve: subsystem profiles stop
/// growing once the relative throughput increment falls below this, which
/// keeps every FES table geometrically short.
const PLATEAU_EPS: f64 = 1e-6;

/// Effective-core curve of an 8-way CPU under contention: sublinear
/// scaling that tops out at ~5.2 cores' worth of service rate.
fn cpu_rates() -> Vec<f64> {
    vec![1.0, 1.9, 2.7, 3.4, 4.0, 4.5, 4.9, 5.2]
}

/// One microservice: CPU + disk + LAN hop + NIC. Service demands grow
/// geometrically across the tier (`1.12^idx`) so each tier has a distinct
/// internal bottleneck and its throughput profile plateaus fast.
fn service(tier: &str, idx: usize, tier_mult: f64) -> NetworkNode {
    let mult = tier_mult * 1.12f64.powi(idx as i32);
    let name = format!("{tier}-svc{idx}");
    Subsystem::new(
        &name,
        vec![
            Station::load_dependent(&format!("{name}-cpu"), 1.0, 0.032 * mult, cpu_rates()).into(),
            Station::queueing(&format!("{name}-disk"), 2, 1.0, 0.004 * mult).into(),
            Station::delay(&format!("{name}-lan"), 1.0, 0.010).into(),
            Station::queueing(&format!("{name}-net"), 2, 1.0, 0.002 * mult).into(),
        ],
    )
    .into()
}

fn tier(name: &str, tier_mult: f64) -> NetworkNode {
    Subsystem::new(name, (0..10).map(|i| service(name, i, tier_mult)).collect()).into()
}

/// The 122-station estate: web and app share one hardware profile (their
/// aggregation profiles are structurally identical, exercising the
/// profile cache), db runs 1.3× heavier demands and is the bottleneck.
fn estate() -> HierarchicalNetwork {
    HierarchicalNetwork::new(
        vec![
            Station::queueing("ingress-lb", 1, 1.0, 0.001).into(),
            Station::queueing("egress-lb", 1, 1.0, 0.001).into(),
            tier("web", 1.0),
            tier("app", 1.0),
            tier("db", 1.3),
        ],
        1.0,
    )
    .expect("estate parameters are valid")
}

fn aggregated_sweep(net: &HierarchicalNetwork, cache: Option<Arc<ProfileCache>>, n: usize) -> f64 {
    let mut solver =
        HierarchicalSolver::with_options(net.clone(), AggregationOptions::truncated(PLATEAU_EPS));
    if let Some(cache) = cache {
        solver = solver.with_cache(cache);
    }
    let sol = solver.solve(n).expect("aggregated sweep");
    sol.points.last().expect("n >= 1").throughput
}

fn flat_exact_sweep(net: &HierarchicalNetwork, n: usize) -> MvaSolution {
    MultiserverMvaSolver::new(net.flatten())
        .solve(n)
        .expect("flat exact sweep")
}

/// Max relative error of the aggregated solve against the flat exact
/// reference, over every shared population: `(throughput, response)`.
fn max_rel_errors(flat: &MvaSolution, agg: &MvaSolution) -> (f64, f64) {
    let mut ex = 0.0f64;
    let mut er = 0.0f64;
    for (pf, pa) in flat.points.iter().zip(agg.points.iter()) {
        ex = ex.max((pf.throughput - pa.throughput).abs() / pf.throughput.abs().max(1e-300));
        er = er.max((pf.response - pa.response).abs() / pf.response.abs().max(1e-300));
    }
    (ex, er)
}

fn main() {
    let net = estate();
    let station_count = net.flatten().stations().len();
    let n_cap = if quick_mode() { 150 } else { 800 };

    let mut b = Bench::new("hierarchy_norton_estate");
    b.measure(
        &format!("aggregated_sweep/{n_cap}"),
        Plan::default(),
        || aggregated_sweep(&net, None, n_cap),
    );
    let warm = Arc::new(ProfileCache::new());
    aggregated_sweep(&net, Some(warm.clone()), n_cap); // pre-warm the cache
    b.measure(
        &format!("aggregated_sweep_cached/{n_cap}"),
        Plan::default(),
        || aggregated_sweep(&net, Some(warm.clone()), n_cap),
    );
    // The flat exact reference drags ~90 load-dependent factor columns
    // through every population: seconds per call at full depth, so sample
    // it sparsely.
    b.measure(
        &format!("flat_exact_sweep/{n_cap}"),
        Plan {
            warmup: 0,
            samples: 3,
        },
        || flat_exact_sweep(&net, n_cap).points.len(),
    );
    println!("{}", b.report());

    let find = |results: &[mvasd_bench::timing::Measurement], name: &str| {
        results
            .iter()
            .find(|m| m.name == name)
            .expect("measured above")
            .median()
    };
    let agg = find(b.results(), &format!("aggregated_sweep/{n_cap}"));
    let flat = find(b.results(), &format!("flat_exact_sweep/{n_cap}"));
    let speedup = flat.as_secs_f64() / agg.as_secs_f64().max(1e-12);
    println!("aggregated speedup over flat exact at n={n_cap}: {speedup:.1}x");

    let flat_sol = flat_exact_sweep(&net, n_cap);
    let agg_sol =
        HierarchicalSolver::with_options(net.clone(), AggregationOptions::truncated(PLATEAU_EPS))
            .solve(n_cap)
            .expect("aggregated solve for error metrics");
    let (err_x, err_r) = max_rel_errors(&flat_sol, &agg_sol);
    println!(
        "max relative error vs flat exact: throughput {err_x:.2e}, response {err_r:.2e} \
         ({station_count} stations)"
    );

    // Splice the accuracy block into the standard schema and check the
    // result still parses before committing it to disk.
    let json = bench_json(&[&b]);
    let trimmed = json.trim_end().trim_end_matches('}');
    let json = format!(
        "{trimmed},\"hierarchy\":{{\"stations\":{station_count},\"n\":{n_cap},\
         \"max_rel_err_throughput\":{err_x:.3e},\"max_rel_err_response\":{err_r:.3e},\
         \"speedup\":{speedup:.2}}}}}\n"
    );
    obsv::json::parse(&json).expect("spliced report is valid JSON");
    let path =
        write_text(&results_dir(), "BENCH_hierarchy.json", &json).expect("results dir writable");
    println!("wrote {}", path.display());
}
