//! Hierarchical modeling of a microservice estate: build a tiered
//! topology, collapse each subsystem into a Norton flow-equivalent
//! server, and solve a 62-station model through a 5-station root — then
//! check the aggregation against the flat exact solve it replaces.
//!
//! ```sh
//! cargo run --release --example microservice_estate
//! ```

use std::sync::Arc;

use mvasd_suite::queueing::hierarchy::{
    AggregationOptions, HierarchicalNetwork, HierarchicalSolver, NetworkNode, ProfileCache,
    Subsystem,
};
use mvasd_suite::queueing::mva::{ClosedSolver, MultiserverMvaSolver};
use mvasd_suite::queueing::network::Station;

/// One microservice: a contention-scaled 4-way CPU, a disk, and a LAN
/// hop. `mult` spreads the demands so each tier has a clear internal
/// bottleneck (profiles then plateau fast under truncation).
fn service(tier: &str, idx: usize, tier_mult: f64) -> NetworkNode {
    let mult = tier_mult * 1.15f64.powi(idx as i32);
    let name = format!("{tier}-svc{idx}");
    Subsystem::new(
        &name,
        vec![
            // Effective-core curve: 4 cores scale to ~3.2 under contention.
            Station::load_dependent(
                &format!("{name}-cpu"),
                1.0,
                0.020 * mult,
                vec![1.0, 1.9, 2.7, 3.2],
            )
            .into(),
            Station::queueing(&format!("{name}-disk"), 1, 1.0, 0.004 * mult).into(),
            Station::delay(&format!("{name}-lan"), 1.0, 0.008).into(),
        ],
    )
    .into()
}

fn tier(name: &str, services: usize, tier_mult: f64) -> NetworkNode {
    Subsystem::new(
        name,
        (0..services).map(|i| service(name, i, tier_mult)).collect(),
    )
    .into()
}

fn main() {
    // Three tiers of microservices behind two load balancers: 62 leaf
    // stations, but the solved root model only ever sees 5 (2 stations +
    // 3 flow-equivalent servers). web and app share a hardware profile,
    // so their aggregation profiles are computed once and shared.
    let net = HierarchicalNetwork::new(
        vec![
            Station::queueing("ingress-lb", 1, 1.0, 0.001).into(),
            Station::queueing("egress-lb", 1, 1.0, 0.001).into(),
            tier("web", 8, 1.0),
            tier("app", 8, 1.0),
            tier("db", 4, 1.4),
        ],
        1.0,
    )
    .expect("valid estate");
    let leaves = net.leaf_count();

    // Aggregated solve: subsystem throughput profiles are truncated once
    // they plateau (rel. increment < 1e-6), so deep populations cost only
    // the root model. The profile cache serves web's profiles to app,
    // and would serve them to any later solver handed the same cache.
    let cache = Arc::new(ProfileCache::new());
    let solver = HierarchicalSolver::with_options(net.clone(), AggregationOptions::truncated(1e-6))
        .with_cache(cache.clone());
    let agg = solver.solve(300).expect("aggregated solve");

    // The flat exact reference: the identical 62-station product-form
    // network, solved station-by-station through convolution.
    let flat = MultiserverMvaSolver::new(net.flatten())
        .solve(300)
        .expect("flat exact solve");

    println!(
        "{leaves}-station estate, {} isolation solves ({} shared via cache)\n",
        cache.stats().solves,
        cache.stats().hits
    );
    println!(
        "{:>6} {:>14} {:>14} {:>16}",
        "users", "X (req/s)", "R (s)", "rel err vs flat"
    );
    for n in [1usize, 25, 50, 100, 200, 300] {
        let pa = agg.at(n).expect("in range");
        let pf = flat.at(n).expect("in range");
        let rel = (pa.throughput - pf.throughput).abs() / pf.throughput;
        println!(
            "{:>6} {:>14.2} {:>14.4} {:>15.2e}",
            n, pa.throughput, pa.response, rel
        );
    }

    // Per-leaf detail survives aggregation: queue lengths are
    // disaggregated back through each subsystem's isolation marginals.
    let p = agg.at(300).expect("in range");
    let (hot_idx, hot) = p
        .stations
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.queue.total_cmp(&b.1.queue))
        .expect("non-empty");
    println!(
        "\nbottleneck leaf at N=300: {} (queue {:.1}, utilization {:.1}%)",
        agg.station_names[hot_idx],
        hot.queue,
        hot.utilization * 100.0
    );
}
