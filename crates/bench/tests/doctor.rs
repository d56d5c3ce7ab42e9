//! End-to-end tests of the `mvasd-doctor` binary: healthy and regressed
//! verdicts, plus the empty-history ergonomics — every broken-input path
//! must exit 2 with an actionable message, never panic.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Output;

use mvasd_bench::doctor::{load_baseline, load_bench_dir, write_baseline, BenchFile};
use mvasd_obsv::json::{self, Json};

fn doctor(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_mvasd-doctor"))
        .args(args)
        .output()
        .expect("mvasd-doctor binary runs")
}

fn fixture_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mvasd_doctor_it_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("fixture dir is creatable");
    dir
}

/// A minimal `mvasd-bench/1` document with one timed experiment and one
/// accuracy + one speedup metric.
fn bench_json(quick: bool, median_ns: u64, rel_err: f64, speedup: f64) -> String {
    format!(
        concat!(
            "{{\"schema\":\"mvasd-bench/1\",\"quick\":{},\"groups\":[",
            "{{\"group\":\"fix\",\"experiments\":[{{\"name\":\"sweep/10\",",
            "\"samples\":5,\"nanos\":{{\"min\":{m},\"p25\":{m},\"median\":{m},",
            "\"p75\":{m},\"p90\":{m},\"max\":{m},\"mean\":{m}}}}}]}}],",
            "\"fix\":{{\"max_rel_err\":{},\"speedup\":{}}}}}"
        ),
        quick,
        rel_err,
        speedup,
        m = median_ns
    )
}

fn write_fixture(dir: &Path, quick: bool, median_ns: u64, rel_err: f64, speedup: f64) {
    std::fs::write(
        dir.join("BENCH_fix.json"),
        bench_json(quick, median_ns, rel_err, speedup),
    )
    .expect("fixture write");
}

fn seed_baseline(dir: &Path) -> PathBuf {
    let baseline = dir.join("BASELINE.json");
    write_fixture(dir, false, 1_000_000, 1e-6, 20.0);
    let out = doctor(&[
        "--results",
        dir.to_str().expect("utf8 path"),
        "--baseline",
        baseline.to_str().expect("utf8 path"),
        "--write-baseline",
    ]);
    assert!(out.status.success(), "write-baseline: {out:?}");
    baseline
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("doctor exits, not killed")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn healthy_results_exit_zero_with_verdict_json() {
    let dir = fixture_dir("healthy");
    let baseline = seed_baseline(&dir);
    let verdict_path = dir.join("verdict.json");
    let out = doctor(&[
        "--results",
        dir.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
        "--out",
        verdict_path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("HEALTHY"), "summary in stdout: {stdout}");
    let verdict = std::fs::read_to_string(&verdict_path).expect("verdict written");
    let doc = json::parse(&verdict).expect("verdict is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("mvasd-doctor/1")
    );
    assert_eq!(doc.get("pass"), Some(&Json::Bool(true)));
    let checks = doc.get("checks").and_then(Json::as_array).expect("checks");
    assert_eq!(checks.len(), 3, "timing + accuracy + speedup");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_fixture_exits_one_and_names_the_regression() {
    let dir = fixture_dir("degraded");
    let baseline = seed_baseline(&dir);
    // 20× slower than the 8× allowance.
    write_fixture(&dir, false, 20_000_000, 1e-6, 20.0);
    let out = doctor(&[
        "--results",
        dir.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("FAIL timing:fix/sweep/10"), "{stdout}");
    assert!(
        stdout.contains("\"pass\":false"),
        "verdict on stdout without --out: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn accuracy_regression_exits_one() {
    let dir = fixture_dir("accuracy");
    let baseline = seed_baseline(&dir);
    write_fixture(&dir, false, 1_000_000, 1e-3, 20.0); // 1000× worse error
    let out = doctor(&[
        "--results",
        dir.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("FAIL accuracy:fix.max_rel_err"),
        "{out:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_results_dir_exits_two_with_advice() {
    let dir = fixture_dir("missing_dir");
    let gone = dir.join("never_generated");
    let out = doctor(&["--results", gone.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    let err = stderr(&out);
    assert!(err.contains("does not exist"), "{err}");
    assert!(err.contains("cargo bench"), "advice present: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_results_dir_exits_two_with_advice() {
    let dir = fixture_dir("empty_dir");
    let out = doctor(&["--results", dir.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(stderr(&out).contains("no BENCH_*.json"), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_bench_json_exits_two_and_names_the_file() {
    let dir = fixture_dir("truncated");
    let baseline = seed_baseline(&dir);
    let full = bench_json(false, 1_000_000, 1e-6, 20.0);
    std::fs::write(dir.join("BENCH_fix.json"), &full[..full.len() / 2])
        .expect("truncated fixture write");
    let out = doctor(&[
        "--results",
        dir.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    let err = stderr(&out);
    assert!(err.contains("BENCH_fix.json"), "{err}");
    assert!(err.contains("truncated"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_baseline_exits_two_and_suggests_write_baseline() {
    let dir = fixture_dir("no_baseline");
    write_fixture(&dir, false, 1_000_000, 1e-6, 20.0);
    let out = doctor(&[
        "--results",
        dir.to_str().unwrap(),
        "--baseline",
        dir.join("BASELINE.json").to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(stderr(&out).contains("--write-baseline"), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn absent_baseline_section_exits_two_and_names_the_mode() {
    let dir = fixture_dir("no_section");
    let baseline = seed_baseline(&dir); // full-mode baseline only
    write_fixture(&dir, true, 1_000_000, 1e-6, 20.0); // quick-mode results
    let out = doctor(&[
        "--results",
        dir.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    let err = stderr(&out);
    assert!(err.contains("\"quick\""), "{err}");
    assert!(err.contains("--write-baseline"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unhealthy_health_report_fails_against_baseline_floors() {
    let dir = fixture_dir("health");
    // Baseline with floors derived from a clean report.
    let clean = mvasd_obsv::HealthReport {
        samples: 100,
        lse_range: Some(1000.0),
        cache_hit_rate: Some(0.5),
        ..mvasd_obsv::HealthReport::default()
    };
    let baseline = dir.join("BASELINE.json");
    let benches = vec![BenchFile {
        path: dir.join("BENCH_fix.json"),
        quick: false,
        timings: [("fix/sweep/10".to_string(), 1e6)].into_iter().collect(),
        metrics: Default::default(),
    }];
    write_baseline(&baseline, &benches, Some(&clean)).expect("seed baseline");
    assert!(
        load_baseline(&baseline)
            .expect("baseline re-loads")
            .health
            .is_some(),
        "floors recorded"
    );
    write_fixture(&dir, false, 1_000_000, 1e-6, 20.0);
    // A poisoned report: one NaN trip and a collapsed LSE range.
    let sick = mvasd_obsv::HealthReport {
        samples: 100,
        nan_poison_trips: 1,
        lse_range: Some(1.0),
        cache_hit_rate: Some(0.5),
        ..mvasd_obsv::HealthReport::default()
    };
    let health_path = dir.join("health.json");
    std::fs::write(&health_path, sick.to_json()).expect("health fixture write");
    let out = doctor(&[
        "--results",
        dir.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
        "--health",
        health_path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("FAIL health:nan_poison_trips"), "{stdout}");
    assert!(stdout.contains("FAIL health:lse_range"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_health_report_exits_two() {
    let dir = fixture_dir("bad_health");
    let baseline = seed_baseline(&dir);
    let health_path = dir.join("health.json");
    std::fs::write(&health_path, "{\"schema\":\"wrong/9\"}").expect("fixture write");
    let out = doctor(&[
        "--results",
        dir.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
        "--health",
        health_path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(stderr(&out).contains("schema"), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flag_exits_two_with_usage() {
    let out = doctor(&["--frobnicate"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(stderr(&out).contains("usage:"), "{out:?}");
}

/// `group/row/300` → `group/row`: quick mode shrinks the population a row
/// is named after. Keys without a numeric last segment stay as they are.
fn strip_population(key: &str) -> &str {
    match key.rsplit_once('/') {
        Some((head, n)) if !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) => head,
        _ => key,
    }
}

/// The committed baseline holds exactly the committed numbers: its full
/// section has one reference per key the committed `BENCH_*.json` files
/// report and none for a row they no longer report, and its quick section
/// names the same rows. `merge_baseline` only extends and `evaluate` only
/// visits reported rows, so nothing else catches a retired key.
#[test]
fn committed_baseline_keys_match_the_committed_bench_files() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let benches = load_bench_dir(&results).expect("committed bench files load");
    assert!(
        benches.iter().all(|b| !b.quick),
        "committed bench files are full runs"
    );
    let baseline = load_baseline(&results.join("BASELINE.json")).expect("baseline loads");
    let full = baseline.full.expect("full section");
    let quick = baseline.quick.expect("quick section");

    let keys = |m: &BTreeMap<String, f64>| m.keys().cloned().collect::<BTreeSet<_>>();
    let committed = |pick: fn(&BenchFile) -> &BTreeMap<String, f64>| {
        benches
            .iter()
            .flat_map(|b| pick(b).keys().cloned())
            .collect::<BTreeSet<_>>()
    };
    assert_eq!(keys(&full.timings), committed(|b| &b.timings));
    assert_eq!(keys(&full.metrics), committed(|b| &b.metrics));

    let stripped = |m: &BTreeMap<String, f64>| {
        m.keys()
            .map(|k| strip_population(k).to_string())
            .collect::<BTreeSet<_>>()
    };
    assert_eq!(stripped(&quick.timings), stripped(&full.timings));
    assert_eq!(stripped(&quick.metrics), stripped(&full.metrics));
}
