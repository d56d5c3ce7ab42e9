//! `pipeline` — the end-to-end benchmark of the paper's Fig. 17 workflow:
//! Chebyshev test levels → simulated load tests → Service-Demand-Law
//! demands → spline → MVASD (Algorithm 3) → throughput/cycle-time curve
//! and SLA answer.
//!
//! # Running it
//!
//! ```sh
//! cargo run --release --offline -q -p mvasd-bench --bin pipeline -- \
//!     --workload vins_workflow --seed 42 --seconds 25 --trace 0 [--out runs.jsonl]
//! cargo run --release --offline -q -p mvasd-bench --bin pipeline -- \
//!     --compare A.jsonl B.jsonl
//! ```
//!
//! One process runs one workload as one closed-loop client on one thread:
//! the next op starts when the previous one finishes, and campaigns and
//! sweeps get a single worker. On a box of a few shared cores, a second
//! worker made an op wait on whichever core the host slowed, and the
//! calibration probe could not follow it. A run sets up five times, then
//! measures ops for `--seconds` (default 25, the `run_seconds` of
//! `BENCHMARK.json`; it starts an op only if the mean op so far still
//! fits), so it takes about `--seconds` plus 1–5 s. Each op
//! `j` gets a seed drawn from a SplitMix64 stream on `--seed`, so the
//! program receives only generated inputs. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`, holding
//! the end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`. `--out FILE` also appends a fuller record (both metric
//! sets, raw timings, accuracy) to FILE as one JSON line. The process
//! exits 1 if any op failed.
//!
//! `MVASD_BENCH_QUICK=1` is a smoke mode: one set-up, a fixed number of
//! ops per slice (2, 2, 1 and 50 in workload order), `saturating_600` at
//! N = 300, and `"quick": true` in the `--out` record.
//!
//! # Workloads, and which layer each should move
//!
//! * `vins_workflow` — the whole workflow on disk-bound VINS: 5 Chebyshev
//!   levels over [1, 1500], a campaign of 900 simulated seconds per
//!   level, spline, MVASD to 1500, accuracy against held-out levels
//!   {150, 500, 1000} that set-up measures. The campaign is ≈99 % of an
//!   op and MVASD stays on the carried recursion with no convolution
//!   cells, so it shows simulator and campaign changes and is the
//!   no-change control for convolution work.
//! * `jpetstore_workflow` — the same on CPU-bound JPetStore: levels over
//!   [1, 300], MVASD to 300, held-out levels {35, 110, 200}. The 16-core
//!   DB CPU crosses the quasi-static switch, so an op splits between
//!   campaign and convolution: the realistic mix, where a gain in either
//!   layer is diluted by the other.
//! * `saturating_600` — prediction only, on a 2-station model (a 16-core
//!   DB CPU and a disk, Z = 1, samples at {1, 750, 1500}) whose CPU
//!   demands get a seeded ±2 % jitter per op; each op fits the profile
//!   and solves to 600, far past the knee at N ≈ 120. The demand changes
//!   at every step, so every post-switch step rebuilds the convolution
//!   workspace: the O(K·N³) path is ≈100 % of the op. Campaign changes
//!   must not move it. The population stops at 600 so that an op takes
//!   about 1 s and a 25 s run holds 20–35 ops; at 1500 an op took
//!   7–14 s and a run's median was that of two ops.
//! * `vins_whatif` — a capacity-planning session over VINS samples that
//!   set-up measures, jittered ±2 % per op. Each op builds a fresh
//!   `ScenarioSweep` (cap 1500) and asks 18 questions (5 demand scales ×
//!   SLA ceilings {0.25, 0.5, 1} s, a 32-core variant, Z ∈ {0.5, 2}),
//!   then 8 looser follow-ups on the same models. It mixes memoized
//!   prefixes with fresh carried-recursion steps and no convolution, so
//!   it shows sweep and carried-path changes, and catches a convolution
//!   change that taxes the carried path.
//!
//! Set-up is what a user pays before the first answer: the held-out
//! campaign (workflows), the measured base samples (`vins_whatif`), or one
//! oracle-checked solve at N = 300 (`saturating_600`).
//!
//! # Correctness gates
//!
//! An op fails, and counts in `failed`, if it errors or if: a workflow
//! curve is non-finite, leaves the asymptotic bounds of the network
//! frozen at that population's demands, or misses the paper's bands
//! (throughput < 3 %, cycle time < 9 %, mean deviation) on the sampled or
//! the held-out levels; a saturating throughput at N/3, 2N/3 or N is more
//! than 1e-9 (relative) from a from-scratch solve of that step's network;
//! a what-if answer is empty or non-finite, or, on every 10th op, not
//! bit-identical to a direct MVASD solve of the resolved scenario.
//!
//! # Calibration
//!
//! Every end-to-end time is calibrated: at least once a second between
//! set-ups and ops, `calib.rs` times a fixed probe on the op's thread:
//! four kernels with working sets from L1 to 8 MB. Each piece's raw time
//! is divided by the mean of the probes just before and just after it and
//! expressed in the reference box's units. A slow phase of a shared box
//! that slows the probe too cancels out, though not fully. An L1-only
//! probe did not follow the ops closely enough: in one 5 min
//! `jpetstore_workflow` run, the ops slowed by up to 60 % while that probe
//! slowed by 25 %. The raw values appear as `*_wall_*` in the table and
//! the `--out` record and are not gated.
//!
//! # End-to-end metrics
//!
//! `setup_s` (median of five set-ups), `op_p50_ms` (median op) and
//! `peak_rss_mb` (the process's VmHWM, less the 12.3 MiB of buffers the
//! probe keeps resident) are gated by the bounds in `BENCHMARK.json`.
//! The table and the `--out` record also give
//! `op_p90_ms` with the op count `ops`, and each workload's accuracy:
//! `holdout_x_err_pct` and `holdout_cycle_err_pct` (workflows, paper eq.
//! 15 against the held-out levels, mean over ops) and `oracle_rel_err`
//! (largest relative error against the oracle, or 0 for bit-identical
//! what-if answers). The tail is not gated: a 25 s run has fewer than ten
//! ops beyond p90 on both workflows.
//!
//! # Reading the per-layer table
//!
//! A `--trace 1` run measures an untraced half and a traced half of
//! `--seconds`. The traced half installs a recorder that charges each
//! counter the program emits to the benchmark layer open at the time
//! (`campaign`, `profile`, `mvasd`, `sweep.cold`, `sweep.warm`) and keeps
//! only the benchmark's own spans. Times and counts are per op; a layer's
//! time is its self time, and `op.other_ms` is what no layer explains
//! (test design, demand extraction, accuracy comparison, glue), so the
//! layers plus `op.other_ms` add up to the traced op time. Counts such as
//! `simnet.events` and `convolution.cells` depend on the ops' inputs, not
//! on timing: they move only when the simulated or computed work does
//! (as per-op means, they also differ a little with the number of ops).
//! `trace.overhead_pct` is the traced median op over the untraced one,
//! minus 1; each half holds about 10 ops on the three ~1 s workloads, so
//! it is noisy there. Per-layer times are not calibrated.
//!
//! # Reference numbers
//!
//! `reference/run1.jsonl` and `reference/run2.jsonl` are two acceptance
//! sets of the same code, each made with `--out` from 10 seeds (42–51)
//! per workload at `--seconds 25`, workloads interleaved and their order
//! reversed on every other seed, plus one `--trace 1` run per workload.
//! A set takes about 19 min on a 2-core x86-64 VM. `--compare` of the
//! two reports every row `ok`. Spreads of the ten runs (p25–p75 over
//! median, as Python's `statistics.quantiles` gives them), set 1 / set 2:
//!
//! | workload             | `op_p50_ms` | `setup_s`     | `peak_rss_mb` |
//! |----------------------|-------------|---------------|---------------|
//! | `vins_workflow`      | 5.9 / 4.2 % | 11.5 / 8.9 %  | 3.6 / 3.3 %   |
//! | `jpetstore_workflow` | 4.5 / 5.4 % | 6.3 / 10.8 %  | 4.6 / 4.4 %   |
//! | `saturating_600`     | 4.4 / 4.0 % | 10.6 / 13.6 % | 3.0 / 2.6 %   |
//! | `vins_whatif`        | 4.4 / 4.1 % | 5.7 / 7.2 %   | 1.7 / 1.0 %   |
//!
//! Set 1 ran through a slow phase of the shared box: its raw median ops
//! (`op_p50_wall_ms`) were 56–74 % above set 2's, with raw spreads of
//! 13–20 %. The calibrated medians of the two sets differ by at most
//! 3.3 % on the workflows and `saturating_600`, and by 9.6 % on
//! `vins_whatif`, whose 6 ms ops the probe follows least closely.
//!
//! # Claiming a gain
//!
//! Run at least 10 pairs of parent and change, alternating which runs
//! first, with the same `--seconds`; append the parent's runs to one
//! file and the change's to another, then `--compare parent change`.
//! Claim a gain only if the change wins at least 9 of 10 pairs and the
//! medians differ by more than the parent's p25–p75 spread. `--compare`
//! applies the bounds in `BENCHMARK.json` to every (metric, workload)
//! pair and prints `ok`, `regressed`, or `unresolved` (the change's
//! spread is wider than the bound and not every change run beats every
//! parent run). A pair measured on one side only is `regressed`, and it
//! exits 2 when neither file holds an untraced record. Medians and
//! spreads use the same linearly interpolated percentile as a run.

mod calib;
mod compare;
mod trace;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use mvasd_numerics::rng::splitmix64;
use mvasd_obsv::{self as obsv, json};

use calib::{Calibrator, Piece};
use trace::{layer, Layer, LayerRecorder};
use workloads::{Accuracy, Fixture, Workload};

/// The benchmark definition: workloads, metrics and their bounds.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Default `--seconds`: the `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 25.0;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// Everything one run measured.
#[derive(Debug)]
struct Run {
    workload: Workload,
    seed: u64,
    trace: bool,
    quick: bool,
    attempted: usize,
    failed: usize,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    extra: Vec<Metric>,
}

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: pipeline --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       \
         pipeline --compare A.jsonl B.jsonl",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(value()?);
                return Ok(Command::Compare(a, b));
            }
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    }))
}

/// True when `MVASD_BENCH_QUICK=1`, the repository's smoke-run switch.
fn quick_mode() -> bool {
    std::env::var_os("MVASD_BENCH_QUICK").is_some_and(|v| v == "1")
}

/// Percentile `p ∈ [0, 100]` of `values`, linearly interpolated: the one
/// quantile definition of both a run and `--compare`.
fn percentile(values: &[f64], p: f64) -> f64 {
    mvasd_numerics::stats::percentile(values, p).unwrap_or(f64::NAN)
}

/// Peak resident set size of this process, in MiB, less `probe_bytes`
/// that the calibration probe keeps resident throughout.
fn peak_rss_mib(probe_bytes: usize) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok((kib * 1024.0 - probe_bytes as f64) / (1024.0 * 1024.0))
}

/// How long a slice runs.
#[derive(Debug, Clone, Copy)]
enum Budget {
    Ops(usize),
    Seconds(f64),
}

/// The ops of one slice: their timed pieces, failures and accuracy.
#[derive(Debug, Default)]
struct Slice {
    ops: Vec<Piece>,
    failed: usize,
    accuracy: Vec<Accuracy>,
}

/// Runs ops `first, first + 1, …` until `budget` is spent: with a time
/// budget, the next op starts only if the mean op so far still fits. Each
/// op's seed is the next SplitMix64 output of `seeds`.
fn run_slice(
    fixture: &Fixture,
    seeds: &mut u64,
    first: usize,
    budget: Budget,
    cal: &mut Calibrator,
) -> Slice {
    let mut slice = Slice::default();
    let start = Instant::now();
    for j in first.. {
        let done = slice.ops.len();
        let more = match budget {
            Budget::Ops(n) => done < n,
            Budget::Seconds(s) => {
                let spent = start.elapsed().as_secs_f64();
                done == 0 || spent + spent / done as f64 <= s
            }
        };
        if !more {
            break;
        }
        let op_seed = splitmix64(seeds);
        let (output, piece) = cal.time(|| layer(Layer::Op, || workloads::run_op(fixture, op_seed)));
        slice.ops.push(piece);
        match output.and_then(|o| workloads::check(fixture, &o, j)) {
            Ok(acc) => slice.accuracy.push(acc),
            Err(e) => {
                slice.failed += 1;
                eprintln!("op {j} failed: {e}");
            }
        }
    }
    slice
}

/// Mean held-out errors and the worst oracle error, over the ops whose
/// gates measured them.
fn accuracy_metrics(accuracy: &[Accuracy]) -> Vec<Metric> {
    let mean = |f: fn(&Accuracy) -> Option<f64>| {
        let v: Vec<f64> = accuracy.iter().filter_map(f).collect();
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    };
    let worst = accuracy
        .iter()
        .filter_map(|a| a.oracle_rel_err)
        .reduce(f64::max);
    [
        ("holdout_x_err_pct", "%", mean(|a| a.holdout_x_err_pct)),
        (
            "holdout_cycle_err_pct",
            "%",
            mean(|a| a.holdout_cycle_err_pct),
        ),
        ("oracle_rel_err", "ratio", worst),
    ]
    .into_iter()
    .filter_map(|(name, unit, v)| v.map(|value| Metric { name, unit, value }))
    .collect()
}

/// One benchmark run; `quick` selects the smoke sizes.
fn run(args: &Args, quick: bool) -> Result<Run, String> {
    let w = args.workload;
    let mut cal = Calibrator::new();
    // Set-up takes the first seed of the stream, op j the (j + 2)-th.
    let mut seeds = args.seed;
    let setup_seed = splitmix64(&mut seeds);

    let mut setups = Vec::new();
    let mut fixture = None;
    for _ in 0..if quick { 1 } else { SETUP_REPEATS } {
        let (made, piece) = cal.time(|| workloads::setup(w, setup_seed, quick));
        fixture = Some(made?);
        setups.push(piece);
    }
    let fixture = fixture.ok_or("set-up never ran")?;

    let budget = if quick {
        Budget::Ops(w.quick_ops())
    } else if args.trace {
        Budget::Seconds(args.seconds / 2.0)
    } else {
        Budget::Seconds(args.seconds)
    };
    let untraced = run_slice(&fixture, &mut seeds, 0, budget, &mut cal);
    let traced = if args.trace {
        let recorder = Arc::new(LayerRecorder::default());
        let scope = obsv::scoped(recorder.clone());
        let slice = run_slice(&fixture, &mut seeds, untraced.ops.len(), budget, &mut cal);
        drop(scope);
        Some((recorder, slice))
    } else {
        None
    };
    cal.finish();

    let calibrated =
        |pieces: &[Piece]| -> Vec<f64> { pieces.iter().map(|&p| cal.calibrate(p)).collect() };
    let raw = |pieces: &[Piece]| -> Vec<f64> { pieces.iter().map(|p| p.raw_s).collect() };
    let op_ms: Vec<f64> = calibrated(&untraced.ops).iter().map(|s| s * 1e3).collect();
    let wall_ms: Vec<f64> = raw(&untraced.ops).iter().map(|s| s * 1e3).collect();
    let p50 = percentile(&op_ms, 50.0);
    let m = |name, unit, value| Metric { name, unit, value };
    let end_to_end = vec![
        m("setup_s", "s", percentile(&calibrated(&setups), 50.0)),
        m("op_p50_ms", "ms", p50),
        m("peak_rss_mb", "MiB", peak_rss_mib(cal.resident_bytes())?),
    ];
    let per_layer = match &traced {
        Some((recorder, slice)) => {
            let traced_p50 = 1e3 * percentile(&calibrated(&slice.ops), 50.0);
            recorder.metrics(slice.ops.len(), 100.0 * (traced_p50 / p50 - 1.0))
        }
        None => Vec::new(),
    };

    let accuracy: Vec<Accuracy> = untraced
        .accuracy
        .iter()
        .chain(traced.iter().flat_map(|(_, s)| &s.accuracy))
        .copied()
        .collect();
    let mut extra = vec![
        m("op_p90_ms", "ms", percentile(&op_ms, 90.0)),
        m("setup_wall_s", "s", percentile(&raw(&setups), 50.0)),
        m("op_p50_wall_ms", "ms", percentile(&wall_ms, 50.0)),
        m("op_p90_wall_ms", "ms", percentile(&wall_ms, 90.0)),
        m("probe_s", "s", cal.median_probe_s()),
        m("ops", "count", untraced.ops.len() as f64),
    ];
    extra.extend(accuracy_metrics(&accuracy));

    let traced_ops = traced.as_ref().map_or(0, |(_, s)| s.ops.len());
    Ok(Run {
        workload: w,
        seed: args.seed,
        trace: args.trace,
        quick,
        attempted: untraced.ops.len() + traced_ops,
        failed: untraced.failed + traced.as_ref().map_or(0, |(_, s)| s.failed),
        end_to_end,
        per_layer,
        extra,
    })
}

fn metrics_json(metrics: &[&Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(m.name),
                json::number(m.value),
                json::escape(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

impl Run {
    /// The final stdout line.
    fn result_line(&self) -> String {
        let shown = if self.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics_json(&shown.iter().collect::<Vec<_>>())
        )
    }

    /// The `--out` record: every metric, raw timings and accuracy.
    fn record_line(&self) -> String {
        let all: Vec<&Metric> = self.end_to_end.iter().chain(&self.per_layer).collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"quick\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"extra\": {}}}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            self.quick,
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics_json(&all),
            metrics_json(&self.extra.iter().collect::<Vec<_>>())
        )
    }

    fn table(&self) -> String {
        let mut out = format!(
            "pipeline: workload={} seed={} trace={} quick={} attempted={} failed={}\n",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            self.quick,
            self.attempted,
            self.failed
        );
        let sections = [
            ("end to end (calibrated)", &self.end_to_end),
            ("per layer, per traced op", &self.per_layer),
            ("raw and accuracy", &self.extra),
        ];
        for (title, metrics) in sections {
            if metrics.is_empty() {
                continue;
            }
            out.push_str(&format!("  {title}\n"));
            for m in metrics {
                out.push_str(&format!(
                    "    {:<24} {:>16.6} {}\n",
                    m.name, m.value, m.unit
                ));
            }
        }
        out
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pipeline: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let code = match command {
        Command::Compare(a, b) => match compare::compare(&a, &b, BENCHMARK_JSON) {
            Ok((table, regressed)) => {
                print!("{table}");
                i32::from(regressed)
            }
            Err(e) => {
                eprintln!("pipeline: {e}");
                2
            }
        },
        Command::Run(args) => match run(&args, quick_mode()) {
            Ok(result) => {
                print!("{}", result.table());
                if let Some(path) = &args.out {
                    let appended = std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(path)
                        .and_then(|mut f| writeln!(f, "{}", result.record_line()));
                    if let Err(e) = appended {
                        eprintln!("pipeline: cannot append to {}: {e}", path.display());
                        std::process::exit(2);
                    }
                }
                println!("{}", result.result_line());
                i32::from(result.failed > 0)
            }
            Err(e) => {
                eprintln!("pipeline: {e}");
                2
            }
        },
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
    fn declared(spec: &json::Json, key: &str) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = spec
            .get(key)
            .and_then(json::Json::as_array)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(json::Json::as_str)
                        .expect("a metric has a name and a unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect();
        out.sort();
        out
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn quick_runs_emit_every_declared_metric_and_never_fail() {
        let spec = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let mut names: Vec<&str> = spec
            .get("workloads")
            .and_then(json::Json::as_array)
            .expect("BENCHMARK.json lists the workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(json::Json::as_str))
            .collect();
        names.sort_unstable();
        let mut ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        ours.sort_unstable();
        assert_eq!(names, ours);

        for workload in Workload::ALL {
            let args = Args {
                workload,
                seed: 7,
                seconds: 1.0,
                trace: true,
                out: None,
            };
            let run = run(&args, true).expect("quick run completes");
            assert!(run.quick);
            assert_eq!(run.failed, 0, "{}", workload.name());
            assert_eq!(run.attempted, 2 * workload.quick_ops());
            assert_eq!(emitted(&run.end_to_end), declared(&spec, "end_to_end"));
            assert_eq!(emitted(&run.per_layer), declared(&spec, "per_layer"));
            assert!(run.end_to_end.iter().all(|m| m.value > 0.0));
            let line = json::parse(&run.result_line()).expect("result line is JSON");
            assert!(line.get("metrics").is_some());
        }
    }
}
