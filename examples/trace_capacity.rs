//! Tracing a capacity-planning run — the observability layer end to end.
//!
//! Installs a live [`Collector`], runs the paper's workflow against the
//! simulated VINS deployment (measurement campaign → fitted demand profile →
//! streamed SLA query → what-if scenario sweep), then writes everything the
//! recorder saw as a Chrome `trace_event` file loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>. The emitted JSON is
//! re-parsed and sanity-checked before exiting, so CI can treat a zero exit
//! status as "the trace is valid".
//!
//! ```sh
//! cargo run --release --example trace_capacity [TRACE_PATH]
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use mvasd_suite::core::sweep::{Scenario, ScenarioSweep};
use mvasd_suite::obsv;
use mvasd_suite::obsv::json::{parse, Json};
use mvasd_suite::queueing::mva::{run_until, ClosedSolver, StopCondition};
use mvasd_suite::testbed::apps::vins;
use mvasd_suite::testbed::campaign::{run_campaign, CampaignConfig};

fn main() -> ExitCode {
    let trace_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_capacity.json".to_string());

    let collector = Arc::new(obsv::Collector::new());
    obsv::install(collector.clone());

    // Step 1 — measure: a small load-test campaign on the simulated lab.
    // Campaign spans tag each worker with queue-wait vs execute time.
    let app = vins::model();
    let campaign = run_campaign(
        &app,
        &[1, 50, 150, 300],
        &CampaignConfig {
            test_duration: 200.0,
            ..CampaignConfig::default()
        },
    )
    .expect("campaign on the calibrated VINS model");

    // Step 2 — ask the SLA question as a streamed query: per-step solver
    // spans plus `run_until.*` early-exit accounting land in the collector.
    let solver = mvasd_suite::queueing::mva::MultiserverMvaSolver::new(
        app.closed_network_at(1500.0).unwrap(),
    );
    let mut iter = solver.start().expect("iterator");
    let outcome = run_until(
        iter.as_mut(),
        &[StopCondition::SlaResponseTime { max_response: 2.0 }],
        1500,
    )
    .expect("streamed SLA query");
    println!(
        "SLA query answered in {} of 1500 population steps ({})",
        outcome.solution.points.len(),
        outcome.reason.metric_name()
    );

    // Step 3 — what-if sweep with a warm replay: cache hits/misses and
    // warm-restart savings become live metrics.
    let mut sweep = ScenarioSweep::new(campaign.to_demand_samples()).default_cap(300);
    let scenarios = [
        Scenario::new("baseline"),
        Scenario::new("db-upgrade").scale_demands(0.85),
    ];
    sweep.run(&scenarios).expect("scenario sweep");
    sweep.run(&scenarios).expect("warm replay");
    let stats = sweep.stats();
    println!(
        "sweep: computed {} of {} demanded steps ({} cache hits)",
        stats.steps_computed, stats.steps_demanded, stats.cache_hits
    );

    // Snapshot, render, and self-validate the Chrome trace.
    obsv::uninstall();
    let snapshot = collector.snapshot();
    print!("{}", snapshot.summary_table());
    let trace = snapshot.to_chrome_trace();
    if let Err(e) = std::fs::write(&trace_path, &trace) {
        eprintln!("FAIL: cannot write {trace_path}: {e}");
        return ExitCode::FAILURE;
    }

    let doc = match parse(&trace) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("FAIL: emitted trace is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match &doc {
        Json::Object(obj) => match obj.get("traceEvents") {
            Some(Json::Array(events)) => events,
            _ => {
                eprintln!("FAIL: trace has no traceEvents array");
                return ExitCode::FAILURE;
            }
        },
        _ => {
            eprintln!("FAIL: trace root is not an object");
            return ExitCode::FAILURE;
        }
    };
    // Every instrumented layer must have left spans behind.
    for needle in ["campaign.run", "campaign.level", "run_until", "sweep.run"] {
        let seen = events.iter().any(|e| match e {
            Json::Object(obj) => matches!(
                obj.get("name"),
                Some(Json::String(name)) if name.starts_with(needle)
            ),
            _ => false,
        });
        if !seen {
            eprintln!("FAIL: no trace event named {needle}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "wrote {trace_path}: {} trace events, valid JSON — load it in chrome://tracing",
        events.len()
    );
    ExitCode::SUCCESS
}
