//! End-to-end tests of the `mvasd-doctor` binary: healthy and regressed
//! verdicts, plus the empty-history ergonomics — every broken-input path
//! must exit 2 with an actionable message, never panic.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{ChildStdin, Command, Output, Stdio};

use mvasd_bench::doctor::{
    baseline_to_json, evaluate, load_baseline, load_bench_dir, merge_baseline, Baseline,
    Observations,
};
use mvasd_obsv::json::{self, Json};

fn doctor(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mvasd-doctor"))
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

/// The write end of a pipe whose only reader has exited: every write to it
/// fails with `EPIPE`, as when `mvasd-doctor … | head -1` stops reading.
fn pipe_without_reader() -> ChildStdin {
    let mut reader = Command::new(env!("CARGO_BIN_EXE_mvasd-doctor"))
        .arg("--frobnicate")
        .stdin(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("reader process starts");
    let writer = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("reader exits");
    writer
}

#[test]
fn closed_stdout_keeps_the_exit_code_and_the_verdict_file() {
    let dir = fixture_dir("closed_stdout");
    let baseline = seed_baseline(&dir);
    let verdict_path = dir.join("verdict.json");
    let out = Command::new(env!("CARGO_BIN_EXE_mvasd-doctor"))
        .args([
            "--results",
            dir.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
            "--out",
            verdict_path.to_str().unwrap(),
        ])
        .stdout(Stdio::from(pipe_without_reader()))
        .output()
        .expect("mvasd-doctor binary runs");
    assert_eq!(exit_code(&out), 0, "{out:?}");
    assert!(!stderr(&out).contains("panicked"), "{out:?}");
    let verdict = std::fs::read_to_string(&verdict_path).expect("verdict written");
    assert!(verdict.contains("\"pass\":true"), "{verdict}");
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
fn schema_1_baseline_exits_two_and_suggests_write_baseline() {
    let dir = fixture_dir("schema_1");
    write_fixture(&dir, false, 1_000_000, 1e-6, 20.0);
    let baseline = dir.join("BASELINE.json");
    std::fs::write(
        &baseline,
        concat!(
            "{\"schema\":\"mvasd-baseline/1\",\"full\":{\"timings\":",
            "{\"fix/sweep/10\":1000000},\"metrics\":{}},",
            "\"health\":{\"max_nan_poison\":0,\"min_lse_range\":500}}"
        ),
    )
    .expect("fixture write");
    let out = doctor(&[
        "--results",
        dir.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    let err = stderr(&out);
    assert!(err.contains("mvasd-baseline/1"), "{err}");
    assert!(err.contains("--write-baseline"), "{err}");
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
fn unhealthy_health_report_fails_against_the_recorded_health() {
    let dir = fixture_dir("health");
    write_fixture(&dir, false, 1_000_000, 1e-6, 20.0);
    let report = |nan_poison_trips, lse_range| {
        let path = dir.join(format!("health_{nan_poison_trips}.json"));
        let report = mvasd_obsv::HealthReport {
            samples: 100,
            nan_poison_trips,
            lse_range: Some(lse_range),
            cache_hit_rate: Some(0.5),
            ..mvasd_obsv::HealthReport::default()
        };
        std::fs::write(&path, report.to_json()).expect("health fixture write");
        path
    };
    // Record a clean report, then re-anchor the bench keys without
    // `--health`: the recorded health must survive.
    let (clean, sick) = (report(0, 1000.0), report(1, 1.0));
    let baseline = dir.join("BASELINE.json");
    let run = |extra: &[&str]| {
        let mut args = vec![
            "--results",
            dir.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        doctor(&args)
    };
    let out = run(&["--health", clean.to_str().unwrap(), "--write-baseline"]);
    assert!(out.status.success(), "{out:?}");
    let recorded = load_baseline(&baseline).expect("baseline re-loads").health;
    let out = run(&["--write-baseline"]);
    assert!(out.status.success(), "{out:?}");
    let kept = load_baseline(&baseline).expect("baseline re-loads").health;
    assert_eq!(kept, recorded, "health re-recorded only with --health");
    assert_eq!(
        kept.and_then(|h| h.get("lse_range").copied()),
        Some(1000.0),
        "health records the observation"
    );
    // A poisoned report: one NaN trip and a collapsed LSE range.
    let out = run(&["--health", sick.to_str().unwrap()]);
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

fn committed_results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// The committed baseline holds exactly the committed numbers: its full
/// section has one reference per key the committed `BENCH_*.json` files
/// report and none for a row they no longer report, its quick section
/// names the same rows, and every recorded health field is judged.
/// `merge_baseline` only extends and `evaluate` only visits reported rows,
/// so nothing else catches a retired key. The file is byte for byte what
/// `--write-baseline` writes.
#[test]
fn committed_baseline_keys_match_the_committed_bench_files() {
    let results = committed_results();
    let benches = load_bench_dir(&results).expect("committed bench files load");
    assert!(
        benches.iter().all(|b| !b.quick),
        "committed bench files are full runs"
    );
    let path = results.join("BASELINE.json");
    let baseline = load_baseline(&path).expect("baseline loads");
    let text = std::fs::read_to_string(&path).expect("baseline reads");
    assert_eq!(baseline_to_json(&baseline), text);
    let full = baseline.full.expect("full section");
    let quick = baseline.quick.expect("quick section");
    let health = baseline.health.expect("health section");

    let committed: BTreeSet<&String> = benches.iter().flat_map(|b| b.values.keys()).collect();
    assert_eq!(full.keys().collect::<BTreeSet<_>>(), committed);
    let stripped = |m: &Observations| {
        m.keys()
            .map(|k| strip_population(k).to_string())
            .collect::<BTreeSet<_>>()
    };
    assert_eq!(stripped(&quick), stripped(&full));
    let recorded = Baseline {
        health: Some(health.clone()),
        ..Baseline::default()
    };
    let verdict = evaluate(&[], &path, &recorded, Some(&health)).expect("health judges");
    assert_eq!(
        verdict.checks.len(),
        health.len(),
        "every health field judged"
    );
    assert!(verdict.passed(), "{}", verdict.summary());
}

/// Every number the committed bench files carry is held by a rule or is
/// one of the named descriptive fields, so a new accuracy metric whose name
/// lacks `err` cannot go unjudged without notice.
#[test]
fn every_committed_bench_number_is_judged_or_named_descriptive() {
    let benches = load_bench_dir(&committed_results()).expect("committed bench files load");
    let recorded = merge_baseline(Baseline::default(), &benches, None);
    let verdict = evaluate(&benches, Path::new("BASELINE.json"), &recorded, None)
        .expect("committed files judge themselves");
    let judged: BTreeSet<&str> = verdict
        .checks
        .iter()
        .filter_map(|c| Some(c.name.split_once(':')?.1))
        .collect();
    let unjudged: Vec<&str> = benches
        .iter()
        .flat_map(|b| b.values.keys())
        .map(String::as_str)
        .filter(|k| !judged.contains(k))
        .collect();
    assert_eq!(
        unjudged,
        [
            "hierarchy.n",
            "hierarchy.stations",
            "multiclass.classes",
            "multiclass.total"
        ]
    );
}
