//! `mvasd-doctor` — the perf/accuracy regression sentinel (CI gate).
//!
//! ```text
//! mvasd-doctor [--results DIR] [--baseline PATH] [--health PATH]
//!              [--out PATH] [--write-baseline]
//! ```
//!
//! Loads every `BENCH_*.json` under the results directory (default:
//! `results/`, or `MVASD_RESULTS_DIR`), compares each against the matching
//! mode section of the committed `BASELINE.json`, optionally holds a live
//! `mvasd-health/1` report (from `obsv_report --health`) to the baseline's
//! health floors, prints a summary, and writes/prints the `mvasd-doctor/1`
//! verdict. Exit codes: 0 = healthy, 1 = regression, 2 = cannot reach a
//! verdict (missing/truncated inputs — the message says how to fix it).
//!
//! `--write-baseline` instead (re)generates the baseline from the current
//! results, merging key by key into the existing file: only the keys the
//! results carry are re-anchored, so a quick-mode regen never clobbers the
//! committed full-run numbers.

use std::path::PathBuf;
use std::process::ExitCode;

use mvasd_bench::doctor::{evaluate, load_baseline, load_bench_dir, write_baseline, Thresholds};
use mvasd_bench::output::results_dir;
use mvasd_obsv::health::HealthReport;

const USAGE: &str = "usage: mvasd-doctor [--results DIR] [--baseline PATH] \
                     [--health PATH] [--out PATH] [--write-baseline]";

fn main() -> ExitCode {
    let mut results: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut health_path: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut write_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut path_arg = |flag: &str| match args.next() {
            Some(v) => Ok(PathBuf::from(v)),
            None => Err(format!("{flag} needs a path argument\n{USAGE}")),
        };
        let parsed = match arg.as_str() {
            "--results" => path_arg("--results").map(|p| results = Some(p)),
            "--baseline" => path_arg("--baseline").map(|p| baseline_path = Some(p)),
            "--health" => path_arg("--health").map(|p| health_path = Some(p)),
            "--out" => path_arg("--out").map(|p| out_path = Some(p)),
            "--write-baseline" => {
                write_mode = true;
                Ok(())
            }
            other => Err(format!("unknown argument: {other}\n{USAGE}")),
        };
        if let Err(msg) = parsed {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    }
    let results = results.unwrap_or_else(results_dir);
    let baseline_path = baseline_path.unwrap_or_else(|| results.join("BASELINE.json"));

    let fail = |msg: String| {
        eprintln!("mvasd-doctor: {msg}");
        ExitCode::from(2)
    };

    let benches = match load_bench_dir(&results) {
        Ok(b) => b,
        Err(e) => return fail(e.to_string()),
    };
    let health = match &health_path {
        None => None,
        Some(p) => {
            let text = match std::fs::read_to_string(p) {
                Ok(t) => t,
                Err(e) => return fail(format!("cannot read {}: {e}", p.display())),
            };
            match HealthReport::from_json(&text) {
                Ok(r) => Some(r),
                Err(e) => return fail(format!("{}: {e}", p.display())),
            }
        }
    };

    if write_mode {
        return match write_baseline(&baseline_path, &benches, health.as_ref()) {
            Ok(merged) => {
                let sections: Vec<&str> = [
                    merged.full.as_ref().map(|_| "full"),
                    merged.quick.as_ref().map(|_| "quick"),
                    merged.health.as_ref().map(|_| "health"),
                ]
                .into_iter()
                .flatten()
                .collect();
                println!(
                    "wrote {} (sections: {})",
                    baseline_path.display(),
                    sections.join(", ")
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(e.to_string()),
        };
    }

    let baseline = match load_baseline(&baseline_path) {
        Ok(b) => b,
        Err(e) => return fail(e.to_string()),
    };
    let verdict = match evaluate(
        &benches,
        &baseline_path,
        &baseline,
        health.as_ref(),
        &Thresholds::default(),
    ) {
        Ok(v) => v,
        Err(e) => return fail(e.to_string()),
    };
    print!("{}", verdict.summary());
    let json = verdict.to_json();
    match &out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(p, &json) {
                return fail(format!("cannot write {}: {e}", p.display()));
            }
            println!("wrote verdict to {}", p.display());
        }
        None => print!("{json}"),
    }
    if verdict.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
