//! The `mvasd-doctor` regression sentinel: compares freshly regenerated
//! `BENCH_*.json` files (schema `mvasd-bench/1`) and an optional live
//! numeric-health report (`mvasd-health/1`) against a committed
//! `BASELINE.json` (`mvasd-baseline/1`) and renders a machine-readable
//! verdict (`mvasd-doctor/1`). The binary in `src/bin/doctor.rs` is a thin
//! CLI over [`load_bench_dir`] / [`load_baseline`] / [`evaluate`] /
//! [`write_baseline`]; everything decision-making lives here so the
//! thresholds are unit-testable without touching the filesystem.
//!
//! Baselines carry two sections, `"full"` and `"quick"`, because quick-mode
//! benches (`MVASD_BENCH_QUICK=1`) run smaller populations — experiment
//! names embed `n`, so the sections don't even share keys. Each bench file
//! records which mode produced it and is compared against the matching
//! section only.
//!
//! Threshold philosophy (documented in `EXPERIMENTS.md`): timing medians
//! may drift up to [`Thresholds::median_max_ratio`]× before failing (CI
//! machines are noisy; the sentinel exists to catch order-of-magnitude
//! regressions, not nanoseconds), accuracy metrics may degrade by
//! [`Thresholds::rel_err_factor`]× over baseline (with an absolute floor so
//! exact-arithmetic baselines near 1e-12 don't fail on harmless jitter),
//! and speedups may shrink to `1/speedup_factor` of baseline but never
//! below break-even.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use mvasd_obsv::health::HealthReport;
use mvasd_obsv::json::{self, escape, number, Json};

/// Why the doctor could not reach a verdict (CLI exit code 2). Every
/// variant's `Display` names the offending path and the command that fixes
/// the situation — an empty checkout must produce advice, not a panic.
#[derive(Debug)]
pub enum DoctorError {
    /// The bench-results directory does not exist.
    MissingResultsDir(PathBuf),
    /// The directory exists but holds no `BENCH_*.json` files.
    NoBenchFiles(PathBuf),
    /// Filesystem error reading a specific path.
    Io(PathBuf, std::io::Error),
    /// A file exists but is not parseable JSON (truncated write, merge
    /// damage).
    Parse(PathBuf, String),
    /// A file parsed but does not declare the expected schema.
    BadSchema {
        /// Offending file.
        path: PathBuf,
        /// Schema string the doctor wanted.
        expected: &'static str,
        /// What the file actually declared (`None` = no schema field).
        found: Option<String>,
    },
    /// No committed baseline to compare against.
    MissingBaseline(PathBuf),
    /// The baseline exists but lacks the section for the mode the bench
    /// files were produced in.
    MissingBaselineKey {
        /// Baseline file.
        path: PathBuf,
        /// Absent section (`"full"` or `"quick"`).
        key: &'static str,
    },
}

impl fmt::Display for DoctorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingResultsDir(p) => write!(
                f,
                "bench results directory {} does not exist; regenerate it with \
                 `cargo bench` (or `MVASD_BENCH_QUICK=1 cargo bench` for a smoke pass)",
                p.display()
            ),
            Self::NoBenchFiles(p) => write!(
                f,
                "no BENCH_*.json files under {}; run `cargo bench` in crates/bench first",
                p.display()
            ),
            Self::Io(p, e) => write!(f, "cannot read {}: {e}", p.display()),
            Self::Parse(p, e) => write!(
                f,
                "{} is not valid JSON ({e}); the file is likely truncated — regenerate it",
                p.display()
            ),
            Self::BadSchema {
                path,
                expected,
                found,
            } => match found {
                Some(s) => write!(
                    f,
                    "{} declares schema {s:?}, expected {expected:?}; \
                     regenerate it with the current toolchain",
                    path.display()
                ),
                None => write!(
                    f,
                    "{} has no \"schema\" field, expected {expected:?}",
                    path.display()
                ),
            },
            Self::MissingBaseline(p) => write!(
                f,
                "baseline {} does not exist; create one from the current results with \
                 `mvasd-doctor --write-baseline`",
                p.display()
            ),
            Self::MissingBaselineKey { path, key } => write!(
                f,
                "baseline {} has no {key:?} section for these bench results; \
                 regenerate it with `mvasd-doctor --write-baseline` run in {key} mode",
                path.display()
            ),
        }
    }
}

impl std::error::Error for DoctorError {}

/// One parsed `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// Source path (for messages; fixtures may use a synthetic name).
    pub path: PathBuf,
    /// Whether `MVASD_BENCH_QUICK=1` produced it.
    pub quick: bool,
    /// `"{group}/{experiment}"` → median nanoseconds.
    pub timings: BTreeMap<String, f64>,
    /// Flattened non-timing numerics from extra top-level objects
    /// (`"hierarchy.max_rel_err_throughput"`, `"multiclass.speedup_…"`, …).
    pub metrics: BTreeMap<String, f64>,
}

/// One mode section of the baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BaselineSection {
    /// `"{group}/{experiment}"` → reference median nanoseconds.
    pub timings: BTreeMap<String, f64>,
    /// Reference values for the flattened accuracy/speedup metrics.
    pub metrics: BTreeMap<String, f64>,
}

/// Floors/ceilings for the live numeric-health report, stored in the
/// baseline so they ratchet with the codebase instead of living in code.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthFloors {
    /// NaN-poison trips allowed (normally 0).
    pub max_nan_poison: u64,
    /// Clamp incidents allowed across all probes.
    pub max_clamp_events: u64,
    /// Minimum convolution log-sum-exp dynamic range (`None` = unchecked).
    pub min_lse_range: Option<f64>,
    /// Minimum hierarchy profile-cache hit rate.
    pub min_cache_hit_rate: Option<f64>,
    /// Maximum relative DES confidence-interval half-width.
    pub max_ci_rel_width: Option<f64>,
}

/// A parsed `mvasd-baseline/1` document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// Reference numbers for full-length bench runs.
    pub full: Option<BaselineSection>,
    /// Reference numbers for `MVASD_BENCH_QUICK=1` runs.
    pub quick: Option<BaselineSection>,
    /// Health floors (mode-independent; `obsv_report` has no quick mode).
    pub health: Option<HealthFloors>,
}

/// Regression tolerances. Defaults are deliberately loose on timing and
/// tight on accuracy: CI machines vary, arithmetic must not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// A timing median may grow to `baseline × median_max_ratio`.
    pub median_max_ratio: f64,
    /// An error metric may grow to `max(baseline × rel_err_factor,
    /// rel_err_floor)`.
    pub rel_err_factor: f64,
    /// Absolute accuracy floor so ~1e-12 baselines tolerate jitter.
    pub rel_err_floor: f64,
    /// A speedup may shrink to `max(baseline / speedup_factor,
    /// speedup_floor)`.
    pub speedup_factor: f64,
    /// Speedups must never drop below break-even.
    pub speedup_floor: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            median_max_ratio: 8.0,
            rel_err_factor: 10.0,
            rel_err_floor: 1e-8,
            speedup_factor: 4.0,
            speedup_floor: 1.0,
        }
    }
}

/// Outcome of one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckStatus {
    /// Within tolerance.
    Pass,
    /// Regressed past the limit.
    Fail,
    /// No reference available (new experiment, absent health report).
    Skip,
}

impl CheckStatus {
    fn as_str(self) -> &'static str {
        match self {
            Self::Pass => "pass",
            Self::Fail => "fail",
            Self::Skip => "skip",
        }
    }
}

/// One named comparison in the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// `"timing:…"`, `"accuracy:…"`, `"speedup:…"`, or `"health:…"`.
    pub name: String,
    /// Pass/fail/skip.
    pub status: CheckStatus,
    /// Measured value (NaN when skipped before measuring).
    pub value: f64,
    /// Baseline reference (NaN when skipped).
    pub reference: f64,
    /// The bound the value was held to (NaN when skipped).
    pub limit: f64,
}

/// The doctor's verdict over one results directory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// All comparisons performed, in deterministic order.
    pub checks: Vec<Check>,
}

impl Verdict {
    /// True when no check failed (skips do not fail the verdict).
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.status != CheckStatus::Fail)
    }

    /// Serializes as one `mvasd-doctor/1` JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"mvasd-doctor/1\",\"pass\":{},\"checks\":[",
            self.passed()
        );
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"status\":\"{}\",\"value\":{},\"reference\":{},\"limit\":{}}}",
                escape(&c.name),
                c.status.as_str(),
                number(c.value),
                number(c.reference),
                number(c.limit),
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// Human-readable digest for terminals / CI logs.
    pub fn summary(&self) -> String {
        let (mut pass, mut fail, mut skip) = (0usize, 0usize, 0usize);
        let mut out = String::new();
        for c in &self.checks {
            match c.status {
                CheckStatus::Pass => pass += 1,
                CheckStatus::Skip => skip += 1,
                CheckStatus::Fail => {
                    fail += 1;
                    out.push_str(&format!(
                        "FAIL {}: value {} vs limit {} (baseline {})\n",
                        c.name,
                        number(c.value),
                        number(c.limit),
                        number(c.reference)
                    ));
                }
            }
        }
        out.push_str(&format!(
            "doctor: {pass} passed, {fail} failed, {skip} skipped — {}\n",
            if fail == 0 { "HEALTHY" } else { "REGRESSION" }
        ));
        out
    }
}

fn parse_file(path: &Path, expected: &'static str) -> Result<Json, DoctorError> {
    let text = std::fs::read_to_string(path).map_err(|e| DoctorError::Io(path.to_path_buf(), e))?;
    let doc =
        json::parse(&text).map_err(|e| DoctorError::Parse(path.to_path_buf(), e.to_string()))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == expected => Ok(doc),
        other => Err(DoctorError::BadSchema {
            path: path.to_path_buf(),
            expected,
            found: other.map(str::to_string),
        }),
    }
}

/// Parses one `mvasd-bench/1` document (already schema-checked by the
/// caller when read from disk).
pub fn bench_from_json(path: &Path, doc: &Json) -> BenchFile {
    let quick = matches!(doc.get("quick"), Some(Json::Bool(true)));
    let mut timings = BTreeMap::new();
    for group in doc.get("groups").and_then(Json::as_array).unwrap_or(&[]) {
        let gname = group.get("group").and_then(Json::as_str).unwrap_or("?");
        for exp in group
            .get("experiments")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            let ename = exp.get("name").and_then(Json::as_str).unwrap_or("?");
            if let Some(median) = exp
                .get("nanos")
                .and_then(|n| n.get("median"))
                .and_then(Json::as_f64)
            {
                timings.insert(format!("{gname}/{ename}"), median);
            }
        }
    }
    // Extra top-level objects ("hierarchy", "multiclass", …) carry the
    // accuracy/speedup figures; flatten their numeric fields.
    let mut metrics = BTreeMap::new();
    if let Json::Object(top) = doc {
        for (key, val) in top {
            if key == "schema" || key == "quick" || key == "groups" {
                continue;
            }
            if let Json::Object(fields) = val {
                for (fk, fv) in fields {
                    if let Some(x) = fv.as_f64() {
                        metrics.insert(format!("{key}.{fk}"), x);
                    }
                }
            }
        }
    }
    BenchFile {
        path: path.to_path_buf(),
        quick,
        timings,
        metrics,
    }
}

/// Loads every `BENCH_*.json` under `dir`, sorted by filename.
pub fn load_bench_dir(dir: &Path) -> Result<Vec<BenchFile>, DoctorError> {
    if !dir.is_dir() {
        return Err(DoctorError::MissingResultsDir(dir.to_path_buf()));
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| DoctorError::Io(dir.to_path_buf(), e))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(DoctorError::NoBenchFiles(dir.to_path_buf()));
    }
    let mut out = Vec::with_capacity(paths.len());
    for p in &paths {
        let doc = parse_file(p, "mvasd-bench/1")?;
        out.push(bench_from_json(p, &doc));
    }
    Ok(out)
}

fn section_from_json(v: &Json) -> BaselineSection {
    let numbers = |key: &str| -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        if let Some(Json::Object(m)) = v.get(key) {
            for (k, x) in m {
                if let Some(x) = x.as_f64() {
                    out.insert(k.clone(), x);
                }
            }
        }
        out
    };
    BaselineSection {
        timings: numbers("timings"),
        metrics: numbers("metrics"),
    }
}

fn floors_from_json(v: &Json) -> HealthFloors {
    let count = |key: &str| {
        v.get(key)
            .and_then(Json::as_f64)
            .map(|x| x.max(0.0) as u64)
            .unwrap_or(0)
    };
    HealthFloors {
        max_nan_poison: count("max_nan_poison"),
        max_clamp_events: count("max_clamp_events"),
        min_lse_range: v.get("min_lse_range").and_then(Json::as_f64),
        min_cache_hit_rate: v.get("min_cache_hit_rate").and_then(Json::as_f64),
        max_ci_rel_width: v.get("max_ci_rel_width").and_then(Json::as_f64),
    }
}

/// Loads a committed `mvasd-baseline/1` file.
pub fn load_baseline(path: &Path) -> Result<Baseline, DoctorError> {
    if !path.is_file() {
        return Err(DoctorError::MissingBaseline(path.to_path_buf()));
    }
    let doc = parse_file(path, "mvasd-baseline/1")?;
    Ok(Baseline {
        full: doc.get("full").map(section_from_json),
        quick: doc.get("quick").map(section_from_json),
        health: doc.get("health").map(floors_from_json),
    })
}

fn classify(metric: &str) -> Option<CheckKind> {
    if metric.contains("err") {
        Some(CheckKind::Accuracy)
    } else if metric.contains("speedup") {
        Some(CheckKind::Speedup)
    } else {
        None // descriptive fields (station counts, populations): not checked
    }
}

enum CheckKind {
    Accuracy,
    Speedup,
}

/// Compares bench files (each against the baseline section matching its own
/// mode) plus the optional live health report, producing a [`Verdict`].
///
/// Experiments with no baseline entry are reported as `skip` so a freshly
/// added bench doesn't break CI before the baseline ratchets; a wholly
/// missing mode section is an error because it means the baseline was never
/// generated for this configuration.
pub fn evaluate(
    benches: &[BenchFile],
    baseline_path: &Path,
    baseline: &Baseline,
    health: Option<&HealthReport>,
    th: &Thresholds,
) -> Result<Verdict, DoctorError> {
    let mut checks = Vec::new();
    for bench in benches {
        let (key, section) = if bench.quick {
            ("quick", baseline.quick.as_ref())
        } else {
            ("full", baseline.full.as_ref())
        };
        let section = section.ok_or(DoctorError::MissingBaselineKey {
            path: baseline_path.to_path_buf(),
            key,
        })?;
        for (name, &median) in &bench.timings {
            let check_name = format!("timing:{name}");
            match section.timings.get(name) {
                Some(&reference) => {
                    let limit = reference * th.median_max_ratio;
                    checks.push(Check {
                        name: check_name,
                        status: if median <= limit {
                            CheckStatus::Pass
                        } else {
                            CheckStatus::Fail
                        },
                        value: median,
                        reference,
                        limit,
                    });
                }
                None => checks.push(Check {
                    name: check_name,
                    status: CheckStatus::Skip,
                    value: median,
                    reference: f64::NAN,
                    limit: f64::NAN,
                }),
            }
        }
        for (name, &value) in &bench.metrics {
            let Some(kind) = classify(name) else {
                continue;
            };
            let (prefix, reference) = match kind {
                CheckKind::Accuracy => ("accuracy", section.metrics.get(name)),
                CheckKind::Speedup => ("speedup", section.metrics.get(name)),
            };
            let check_name = format!("{prefix}:{name}");
            match reference {
                Some(&reference) => {
                    let (limit, ok) = match kind {
                        CheckKind::Accuracy => {
                            let limit = (reference * th.rel_err_factor).max(th.rel_err_floor);
                            (limit, value <= limit)
                        }
                        CheckKind::Speedup => {
                            let limit = (reference / th.speedup_factor).max(th.speedup_floor);
                            (limit, value >= limit)
                        }
                    };
                    checks.push(Check {
                        name: check_name,
                        status: if ok {
                            CheckStatus::Pass
                        } else {
                            CheckStatus::Fail
                        },
                        value,
                        reference,
                        limit,
                    });
                }
                None => checks.push(Check {
                    name: check_name,
                    status: CheckStatus::Skip,
                    value,
                    reference: f64::NAN,
                    limit: f64::NAN,
                }),
            }
        }
    }
    checks.extend(health_checks(baseline.health.as_ref(), health));
    Ok(Verdict { checks })
}

/// The health sub-verdict: live report values held to the baseline floors.
/// Either side being absent degrades to `skip`, never to a panic.
fn health_checks(floors: Option<&HealthFloors>, report: Option<&HealthReport>) -> Vec<Check> {
    let mut out = Vec::new();
    let (Some(floors), Some(report)) = (floors, report) else {
        if floors.is_some() != report.is_some() {
            out.push(Check {
                name: "health:report".to_string(),
                status: CheckStatus::Skip,
                value: f64::NAN,
                reference: f64::NAN,
                limit: f64::NAN,
            });
        }
        return out;
    };
    let mut upper = |name: &str, value: f64, limit: f64| {
        out.push(Check {
            name: format!("health:{name}"),
            status: if value <= limit {
                CheckStatus::Pass
            } else {
                CheckStatus::Fail
            },
            value,
            reference: limit,
            limit,
        });
    };
    upper(
        "nan_poison_trips",
        report.nan_poison_trips as f64,
        floors.max_nan_poison as f64,
    );
    upper(
        "clamp_events",
        report.clamp_events as f64,
        floors.max_clamp_events as f64,
    );
    if let Some(max) = floors.max_ci_rel_width {
        let value = report.des_ci_rel_width.unwrap_or(f64::INFINITY);
        upper("des_ci_rel_width", value, max);
    }
    let mut lower = |name: &str, value: Option<f64>, limit: f64| {
        let value = value.unwrap_or(f64::NEG_INFINITY);
        out.push(Check {
            name: format!("health:{name}"),
            status: if value >= limit {
                CheckStatus::Pass
            } else {
                CheckStatus::Fail
            },
            value,
            reference: limit,
            limit,
        });
    };
    if let Some(min) = floors.min_lse_range {
        lower("lse_range", report.lse_range, min);
    }
    if let Some(min) = floors.min_cache_hit_rate {
        lower("cache_hit_rate", report.cache_hit_rate, min);
    }
    out
}

fn section_to_json(s: &BaselineSection) -> String {
    let map = |m: &BTreeMap<String, f64>| -> String {
        let fields: Vec<String> = m
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape(k), number(*v)))
            .collect();
        format!("{{{}}}", fields.join(","))
    };
    format!(
        "{{\"timings\":{},\"metrics\":{}}}",
        map(&s.timings),
        map(&s.metrics)
    )
}

fn floors_to_json(h: &HealthFloors) -> String {
    let mut fields = vec![
        format!("\"max_nan_poison\":{}", h.max_nan_poison),
        format!("\"max_clamp_events\":{}", h.max_clamp_events),
    ];
    for (name, v) in [
        ("min_lse_range", h.min_lse_range),
        ("min_cache_hit_rate", h.min_cache_hit_rate),
        ("max_ci_rel_width", h.max_ci_rel_width),
    ] {
        if let Some(v) = v {
            fields.push(format!("\"{name}\":{}", number(v)));
        }
    }
    format!("{{{}}}", fields.join(","))
}

/// Serializes a [`Baseline`] as one `mvasd-baseline/1` JSON object.
pub fn baseline_to_json(b: &Baseline) -> String {
    let mut fields = vec!["\"schema\":\"mvasd-baseline/1\"".to_string()];
    if let Some(s) = &b.full {
        fields.push(format!("\"full\":{}", section_to_json(s)));
    }
    if let Some(s) = &b.quick {
        fields.push(format!("\"quick\":{}", section_to_json(s)));
    }
    if let Some(h) = &b.health {
        fields.push(format!("\"health\":{}", floors_to_json(h)));
    }
    format!("{{{}}}\n", fields.join(","))
}

/// Derives conservative health floors from an observed report: zero NaN
/// tolerance, observed clamps (the solver runs are seeded/deterministic),
/// halved range/hit-rate floors and a 4× CI-width ceiling so minor run-to-
/// run drift doesn't trip the sentinel.
pub fn floors_from_report(report: &HealthReport) -> HealthFloors {
    HealthFloors {
        max_nan_poison: 0,
        max_clamp_events: report.clamp_events,
        min_lse_range: report.lse_range.map(|r| r / 2.0),
        min_cache_hit_rate: report.cache_hit_rate.map(|r| r / 2.0),
        max_ci_rel_width: report.des_ci_rel_width.map(|w| w * 4.0),
    }
}

/// Folds fresh bench files (and an optional health report) into `existing`:
/// every key a file carries is re-anchored in the section of that file's
/// mode, and every other key is kept. A quick CI regen never clobbers the
/// committed full numbers, and a results directory holding one bench file
/// re-anchors that file's keys only.
pub fn merge_baseline(
    existing: Baseline,
    benches: &[BenchFile],
    health: Option<&HealthReport>,
) -> Baseline {
    let mut out = existing;
    for bench in benches {
        let section = if bench.quick {
            &mut out.quick
        } else {
            &mut out.full
        }
        .get_or_insert_with(BaselineSection::default);
        section
            .timings
            .extend(bench.timings.iter().map(|(k, v)| (k.clone(), *v)));
        section
            .metrics
            .extend(bench.metrics.iter().map(|(k, v)| (k.clone(), *v)));
    }
    if let Some(report) = health {
        out.health = Some(floors_from_report(report));
    }
    out
}

/// Regenerates the baseline file from the given results directory. Returns
/// the merged baseline that was written.
pub fn write_baseline(
    baseline_path: &Path,
    benches: &[BenchFile],
    health: Option<&HealthReport>,
) -> Result<Baseline, DoctorError> {
    let existing = match load_baseline(baseline_path) {
        Ok(b) => b,
        Err(DoctorError::MissingBaseline(_)) => Baseline::default(),
        Err(e) => return Err(e),
    };
    let merged = merge_baseline(existing, benches, health);
    if let Some(dir) = baseline_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| DoctorError::Io(dir.to_path_buf(), e))?;
    }
    std::fs::write(baseline_path, baseline_to_json(&merged))
        .map_err(|e| DoctorError::Io(baseline_path.to_path_buf(), e))?;
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(quick: bool, timings: &[(&str, f64)], metrics: &[(&str, f64)]) -> BenchFile {
        BenchFile {
            path: PathBuf::from("BENCH_test.json"),
            quick,
            timings: timings.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn baseline_for(bench: &BenchFile) -> Baseline {
        let section = BaselineSection {
            timings: bench.timings.clone(),
            metrics: bench.metrics.clone(),
        };
        if bench.quick {
            Baseline {
                quick: Some(section),
                ..Baseline::default()
            }
        } else {
            Baseline {
                full: Some(section),
                ..Baseline::default()
            }
        }
    }

    #[test]
    fn matching_baseline_passes() {
        let b = bench(
            false,
            &[("g/walk/300", 1e6)],
            &[
                ("hierarchy.max_rel_err_throughput", 1e-6),
                ("hierarchy.speedup", 25.0),
            ],
        );
        let base = baseline_for(&b);
        let v = evaluate(
            &[b],
            Path::new("BASELINE.json"),
            &base,
            None,
            &Thresholds::default(),
        )
        .expect("evaluation succeeds");
        assert!(v.passed());
        assert_eq!(v.checks.len(), 3);
        assert!(v.checks.iter().all(|c| c.status == CheckStatus::Pass));
    }

    #[test]
    fn degraded_median_fails() {
        let base = baseline_for(&bench(false, &[("g/walk/300", 1e6)], &[]));
        let degraded = bench(false, &[("g/walk/300", 2e7)], &[]); // 20×
        let v = evaluate(
            &[degraded],
            Path::new("BASELINE.json"),
            &base,
            None,
            &Thresholds::default(),
        )
        .expect("evaluation succeeds");
        assert!(!v.passed());
        let c = &v.checks[0];
        assert_eq!(c.status, CheckStatus::Fail);
        assert_eq!(c.limit, 8e6);
    }

    #[test]
    fn accuracy_and_speedup_directions() {
        let base = baseline_for(&bench(
            false,
            &[],
            &[("x.max_rel_err", 1e-6), ("x.speedup", 20.0)],
        ));
        // Error went *up* 100×, speedup *down* 10×: both fail.
        let worse = bench(false, &[], &[("x.max_rel_err", 1e-4), ("x.speedup", 2.0)]);
        let v = evaluate(
            &[worse],
            Path::new("B"),
            &base,
            None,
            &Thresholds::default(),
        )
        .expect("evaluation succeeds");
        assert_eq!(
            v.checks
                .iter()
                .filter(|c| c.status == CheckStatus::Fail)
                .count(),
            2
        );
        // Error shrinking and speedup growing both pass.
        let better = bench(false, &[], &[("x.max_rel_err", 1e-9), ("x.speedup", 200.0)]);
        let v = evaluate(
            &[better],
            Path::new("B"),
            &base,
            None,
            &Thresholds::default(),
        )
        .expect("evaluation succeeds");
        assert!(v.passed());
    }

    #[test]
    fn rel_err_floor_tolerates_exact_arithmetic_jitter() {
        let base = baseline_for(&bench(false, &[], &[("x.max_rel_err", 1e-13)]));
        // 50× worse than a 1e-13 baseline is still far under the 1e-8 floor.
        let jitter = bench(false, &[], &[("x.max_rel_err", 5e-12)]);
        let v = evaluate(
            &[jitter],
            Path::new("B"),
            &base,
            None,
            &Thresholds::default(),
        )
        .expect("evaluation succeeds");
        assert!(v.passed());
    }

    #[test]
    fn new_experiment_skips_instead_of_failing() {
        let base = baseline_for(&bench(false, &[("g/old", 1e6)], &[]));
        let b = bench(false, &[("g/old", 1e6), ("g/new", 5e6)], &[]);
        let v = evaluate(&[b], Path::new("B"), &base, None, &Thresholds::default())
            .expect("evaluation succeeds");
        assert!(v.passed());
        let skipped: Vec<_> = v
            .checks
            .iter()
            .filter(|c| c.status == CheckStatus::Skip)
            .collect();
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].name, "timing:g/new");
    }

    #[test]
    fn quick_results_need_quick_section() {
        let base = baseline_for(&bench(false, &[("g/walk", 1e6)], &[]));
        let quick = bench(true, &[("g/walk", 1e6)], &[]);
        let err = evaluate(
            &[quick],
            Path::new("BASELINE.json"),
            &base,
            None,
            &Thresholds::default(),
        )
        .expect_err("quick results against a full-only baseline must error");
        let msg = err.to_string();
        assert!(
            msg.contains("\"quick\""),
            "message names the section: {msg}"
        );
        assert!(
            msg.contains("--write-baseline"),
            "message is actionable: {msg}"
        );
    }

    #[test]
    fn health_floors_enforced() {
        let floors = HealthFloors {
            max_nan_poison: 0,
            max_clamp_events: 5,
            min_lse_range: Some(10.0),
            min_cache_hit_rate: Some(0.25),
            max_ci_rel_width: Some(0.1),
        };
        let mut report = HealthReport {
            samples: 100,
            lse_range: Some(40.0),
            cache_hit_rate: Some(0.5),
            des_ci_rel_width: Some(0.02),
            ..HealthReport::default()
        };
        let checks = health_checks(Some(&floors), Some(&report));
        assert_eq!(checks.len(), 5);
        assert!(checks.iter().all(|c| c.status == CheckStatus::Pass));
        report.nan_poison_trips = 1;
        report.lse_range = Some(3.0);
        let checks = health_checks(Some(&floors), Some(&report));
        let failed: Vec<&str> = checks
            .iter()
            .filter(|c| c.status == CheckStatus::Fail)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(failed, ["health:nan_poison_trips", "health:lse_range"]);
        // Missing report against present floors: one skip marker, no fail.
        let checks = health_checks(Some(&floors), None);
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].status, CheckStatus::Skip);
    }

    #[test]
    fn verdict_json_parses_and_round_trips_status() {
        let v = Verdict {
            checks: vec![
                Check {
                    name: "timing:g/x".into(),
                    status: CheckStatus::Pass,
                    value: 2.0,
                    reference: 1.0,
                    limit: 8.0,
                },
                Check {
                    name: "accuracy:m".into(),
                    status: CheckStatus::Fail,
                    value: 1.0,
                    reference: 0.01,
                    limit: 0.1,
                },
            ],
        };
        assert!(!v.passed());
        let doc = json::parse(&v.to_json()).expect("verdict is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("mvasd-doctor/1")
        );
        assert_eq!(doc.get("pass"), Some(&Json::Bool(false)));
        let checks = doc.get("checks").and_then(Json::as_array).expect("checks");
        assert_eq!(checks.len(), 2);
        assert_eq!(checks[1].get("status").and_then(Json::as_str), Some("fail"));
        assert!(v.summary().contains("REGRESSION"));
    }

    #[test]
    fn baseline_json_round_trips_through_files() {
        let dir = std::env::temp_dir().join("mvasd_doctor_baseline_rt");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("BASELINE.json");
        let full = bench(false, &[("g/walk/800", 3.4e7)], &[("h.speedup", 26.9)]);
        let report = HealthReport {
            samples: 10,
            clamp_events: 2,
            lse_range: Some(100.0),
            cache_hit_rate: Some(0.5),
            des_ci_rel_width: Some(0.01),
            ..HealthReport::default()
        };
        let written =
            write_baseline(&path, std::slice::from_ref(&full), Some(&report)).expect("write");
        let loaded = load_baseline(&path).expect("load");
        assert_eq!(written, loaded);
        assert_eq!(loaded.full.as_ref().map(|s| s.timings.len()), Some(1));
        assert_eq!(loaded.quick, None);
        let floors = loaded.health.clone().expect("health floors recorded");
        assert_eq!(floors.max_clamp_events, 2);
        assert_eq!(floors.min_lse_range, Some(50.0));
        assert_eq!(floors.max_ci_rel_width, Some(0.04));
        // A later quick regen adds the quick section without touching full.
        let quick = bench(true, &[("g/walk/150", 1.0e6)], &[]);
        let merged =
            write_baseline(&path, std::slice::from_ref(&quick), None).expect("quick merge");
        assert_eq!(merged.full, loaded.full);
        assert_eq!(merged.quick.as_ref().map(|s| s.timings.len()), Some(1));
        assert_eq!(merged.health, loaded.health, "health floors survive merge");
        // A full regen of another bench adds its keys and re-anchors none
        // of the others.
        let other = bench(false, &[("sim/campaign", 3.0e8)], &[]);
        let merged = write_baseline(&path, std::slice::from_ref(&other), None).expect("full merge");
        let timings = &merged.full.as_ref().expect("full section").timings;
        assert_eq!(timings.get("g/walk/800"), Some(&3.4e7));
        assert_eq!(timings.get("sim/campaign"), Some(&3.0e8));
        assert_eq!(
            merged.full.as_ref().map(|s| &s.metrics),
            loaded.full.as_ref().map(|s| &s.metrics)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_parser_reads_committed_shape() {
        let text = concat!(
            "{\"schema\":\"mvasd-bench/1\",\"quick\":false,\"groups\":[",
            "{\"group\":\"hier\",\"experiments\":[{\"name\":\"sweep/800\",",
            "\"samples\":15,\"nanos\":{\"min\":1,\"p25\":2,\"median\":3,",
            "\"p75\":4,\"p90\":5,\"max\":6,\"mean\":4}}]}],",
            "\"hierarchy\":{\"stations\":122,\"max_rel_err_throughput\":8.1e-6,",
            "\"speedup\":26.95}}"
        );
        let doc = json::parse(text).expect("fixture parses");
        let b = bench_from_json(Path::new("BENCH_hierarchy.json"), &doc);
        assert!(!b.quick);
        assert_eq!(b.timings.get("hier/sweep/800"), Some(&3.0));
        assert_eq!(
            b.metrics.get("hierarchy.max_rel_err_throughput"),
            Some(&8.1e-6)
        );
        assert_eq!(b.metrics.get("hierarchy.speedup"), Some(&26.95));
        // "stations" is descriptive: carried as a metric but never checked.
        assert!(classify("hierarchy.stations").is_none());
        assert!(matches!(
            classify("hierarchy.max_rel_err_throughput"),
            Some(CheckKind::Accuracy)
        ));
        assert!(matches!(
            classify("multiclass.speedup_carried_vs_recompute"),
            Some(CheckKind::Speedup)
        ));
    }
}
