//! # mvasd-suite
//!
//! Umbrella crate for the MVASD performance-modeling suite — a from-scratch
//! Rust reproduction of Kattepur & Nambiar, *"Performance Modeling of
//! Multi-tiered Web Applications with Varying Service Demands"* (IPPS 2015 /
//! IJNC 6(1), 2016).
//!
//! Re-exports the workspace crates under friendly names so examples and
//! downstream users need a single dependency:
//!
//! * [`obsv`] — zero-dependency tracing + metrics (spans, counters,
//!   histograms, Chrome-trace/JSONL sinks) wired through every solver path.
//! * [`numerics`] — splines, Chebyshev nodes, statistics, Erlang formulas.
//! * [`queueing`] — closed-network models, bounds, exact/approximate MVA.
//! * [`simnet`] — discrete-event closed queueing-network simulator.
//! * [`testbed`] — simulated load-testing lab (VINS & JPetStore models,
//!   Grinder-style driver, monitors, demand extraction).
//! * [`core`] — MVASD itself: multi-server MVA over spline-interpolated
//!   concurrency-varying service demands, plus the prediction workflow.
//!
//! ## End-to-end (the paper's Fig. 17 workflow on the simulated lab)
//!
//! ```no_run
//! use mvasd_suite::core::pipeline::PredictionWorkflow;
//! use mvasd_suite::testbed::apps::jpetstore;
//! use mvasd_suite::testbed::campaign::{run_campaign, CampaignConfig};
//!
//! // Step 1 — design the load tests (Chebyshev Nodes over [1, 300]).
//! let workflow = PredictionWorkflow::default();
//! let levels = workflow.design()?;
//!
//! // Step 2 — run them (here: simulated JPetStore; in your lab: real tests).
//! let app = jpetstore::model();
//! let campaign = run_campaign(&app, &levels, &CampaignConfig::default())?;
//!
//! // Step 3 — interpolate demands + MVASD.
//! let prediction = workflow.predict(&campaign.to_demand_samples(), 300)?;
//! println!("X(250) = {:.1} pages/s", prediction.at(250).unwrap().throughput);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use mvasd_core as core;
pub use mvasd_numerics as numerics;
pub use mvasd_obsv as obsv;
pub use mvasd_queueing as queueing;
pub use mvasd_simnet as simnet;
pub use mvasd_testbed as testbed;
