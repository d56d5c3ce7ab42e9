//! SLA validation — the paper's Section 1 example contracts: "with 100
//! users concurrently accessing, the response time should be less than 1
//! second per page; the maximum CPU utilization with 500 concurrent users
//! should be less than 50 %." This example measures a deployment once,
//! then verifies such clauses analytically at populations that were never
//! load-tested.
//!
//! ```sh
//! cargo run --release --example sla_check
//! ```

use mvasd_suite::core::algorithm::mvasd;
use mvasd_suite::core::profile::{DemandAxis, InterpolationKind, ServiceDemandProfile};
use mvasd_suite::core::solver::MvasdSolver;
use mvasd_suite::queueing::mva::{run_until, ClosedSolver, StopCondition, StopReason};
use mvasd_suite::testbed::apps::vins;
use mvasd_suite::testbed::campaign::{run_campaign, CampaignConfig};

type ClauseCheck = Box<dyn Fn(&mvasd_suite::queueing::mva::MvaSolution) -> (bool, String)>;

struct Clause {
    text: &'static str,
    check: ClauseCheck,
}

fn main() {
    let app = vins::model();
    let campaign = run_campaign(
        &app,
        &[1, 20, 60, 120, 250],
        &CampaignConfig {
            test_duration: 400.0,
            ..CampaignConfig::default()
        },
    )
    .expect("campaign");
    let profile = ServiceDemandProfile::from_samples(
        &campaign.to_demand_samples(),
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .expect("profile");
    let prediction = mvasd(&profile, 500).expect("solver");

    let db_cpu = campaign.station_index("db-cpu").expect("station");
    let db_disk = campaign.station_index("db-disk").expect("station");

    let clauses = vec![
        Clause {
            text: "R(100 users) < 1 s per page",
            check: Box::new(move |sol| {
                let r = sol.at(100).unwrap().response;
                (r < 1.0, format!("predicted R = {r:.3} s"))
            }),
        },
        Clause {
            text: "DB CPU utilization at 500 users < 50 %",
            check: Box::new(move |sol| {
                let u = sol.at(500).unwrap().stations[db_cpu].utilization;
                (u < 0.5, format!("predicted U = {:.1} %", u * 100.0))
            }),
        },
        Clause {
            text: "DB disk utilization at 500 users < 95 %",
            check: Box::new(move |sol| {
                let u = sol.at(500).unwrap().stations[db_disk].utilization;
                (u < 0.95, format!("predicted U = {:.1} %", u * 100.0))
            }),
        },
        Clause {
            text: "throughput at 150 users >= 90 pages/s",
            check: Box::new(|sol| {
                let x = sol.at(150).unwrap().throughput;
                (x >= 90.0, format!("predicted X = {x:.1} pages/s"))
            }),
        },
    ];

    println!("SLA validation for VINS (fitted from 5 load tests, checked to N=500):\n");
    let mut all_ok = true;
    for clause in &clauses {
        let (ok, detail) = (clause.check)(&prediction);
        all_ok &= ok;
        println!(
            "  [{}] {:<45} {}",
            if ok { "PASS" } else { "FAIL" },
            clause.text,
            detail
        );
    }
    println!(
        "\n{}",
        if all_ok {
            "All clauses hold under the fitted model."
        } else {
            "Some clauses FAIL — renegotiate or upgrade before deployment."
        }
    );

    // The inverse question — "how many users until the 1 s clause breaks?"
    // — streams the population sweep and stops at the first violation,
    // rather than solving all 500 populations and scanning afterwards.
    let solver = MvasdSolver::new(profile);
    let mut iter = solver.start().expect("iterator");
    let outcome = run_until(
        iter.as_mut(),
        &[StopCondition::SlaResponseTime { max_response: 1.0 }],
        500,
    )
    .expect("streamed sweep");
    match &outcome.reason {
        StopReason::Met(_) => println!(
            "\nCapacity limit: R first exceeds 1 s at N = {} \
             (answered in {} population steps instead of 500).",
            outcome.solution.last().n,
            outcome.solution.points.len()
        ),
        StopReason::PopulationCap => {
            println!("\nR stays under 1 s through N = 500.")
        }
    }
}
