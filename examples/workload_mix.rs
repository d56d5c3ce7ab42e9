//! Multiclass workload mix — beyond the paper's single-class model.
//!
//! The paper analyzes the VINS *Renew Policy* workflow alone ("we make use
//! of single class models wherein the customers are assumed to be
//! indistinguishable"). Real deployments mix workflows: policy renewals
//! are heavy (database writes, premium computation), policy look-ups are
//! light reads, and API traffic hammers the system with almost no think
//! time. The class-aware streaming core answers questions the single-class
//! model cannot: *which* class breaks its SLA first as load ramps, and at
//! what mix?
//!
//! The workload streams along a population path through the class lattice
//! (one customer per step, classes interleaved proportionally), so SLA
//! checks run per class at every step and the sweep stops the moment the
//! first ceiling is crossed — no full-lattice solve needed.
//!
//! ```sh
//! cargo run --release --example workload_mix
//! ```

use mvasd_suite::queueing::mva::{
    run_until_classes, ClassStopReason, MulticlassIter, StopCondition,
};
use mvasd_suite::testbed::apps::vins;

fn main() {
    // The calibrated three-class VINS mix (renew / browse / api) at a
    // total population of 150 users.
    let workload = vins::workload_mix(150).expect("workload");
    let names: Vec<&str> = workload.classes().iter().map(|c| c.name.as_str()).collect();
    println!(
        "VINS three-class mix, {} users total ({}):\n",
        workload.total_population(),
        workload
            .classes()
            .iter()
            .map(|c| format!("{} {}", c.population, c.name))
            .collect::<Vec<_>>()
            .join(", "),
    );

    // Stream the class-aware recursion and watch the mix evolve.
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "users", "X_renew", "R_renew", "X_browse", "R_browse", "X_api", "R_api"
    );
    let mut iter = MulticlassIter::new(&workload).expect("iterator");
    let mut last = None;
    while iter.steps_done() < iter.steps_total() {
        let point = iter.step_classes().expect("step");
        if point.step % 25 == 0 || point.step == workload.total_population() {
            println!(
                "{:>6} {:>10.2} {:>10.4} {:>10.2} {:>10.4} {:>10.2} {:>10.4}",
                point.step,
                point.classes[0].throughput,
                point.classes[0].response,
                point.classes[1].throughput,
                point.classes[1].response,
                point.classes[2].throughput,
                point.classes[2].response,
            );
        }
        last = Some(point);
    }
    let full = last.expect("at least one step");

    // Per-class SLAs: renewals must finish in 300 ms, API calls in 60 ms.
    // Stream a fresh ramp and stop the moment the first class breaks.
    let slas = [
        (
            0usize,
            StopCondition::SlaResponseTime { max_response: 0.30 },
        ),
        (
            2usize,
            StopCondition::SlaResponseTime { max_response: 0.06 },
        ),
    ];
    let mut iter = MulticlassIter::new(&workload).expect("iterator");
    let outcome = run_until_classes(&mut iter, &slas, usize::MAX).expect("sla run");
    match outcome.reason {
        ClassStopReason::Met { class, condition } => {
            let point = outcome.points.last().expect("points");
            println!(
                "\nRamping the mix, class `{}` breaks its SLA first ({:?})\n\
                 at {} mixed users ({}): R_{} = {:.4} s.",
                names[class],
                condition,
                point.step,
                point
                    .populations
                    .iter()
                    .zip(&names)
                    .map(|(n, c)| format!("{n} {c}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                names[class],
                point.classes[class].response,
            );
        }
        ClassStopReason::PathExhausted => {
            println!("\nNo SLA broke over the whole ramp — the mix fits.");
        }
    }

    // Where does the contention land at the full mix?
    let mut worst = (0usize, 0.0f64);
    for (k, &u) in full.station_utilizations.iter().enumerate() {
        if u > worst.1 {
            worst = (k, u);
        }
    }
    println!(
        "\nAt the full mix the shared bottleneck is {} at {:.1} % utilization —\n\
         browse and API traffic ride the same disk the renewals need.",
        workload.station_names()[worst.0],
        worst.1 * 100.0
    );
}
