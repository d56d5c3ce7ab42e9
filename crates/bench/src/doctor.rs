//! The `mvasd-doctor` regression sentinel: compares freshly regenerated
//! `BENCH_*.json` files (schema `mvasd-bench/1`) and an optional live
//! numeric-health report (`mvasd-health/1`) against a committed
//! `BASELINE.json` (`mvasd-baseline/2`) and renders a machine-readable
//! verdict (`mvasd-doctor/1`). The binary in `src/bin/doctor.rs` is a thin
//! CLI over [`load_bench_dir`] / [`load_health`] / [`load_baseline`] /
//! [`evaluate`] / [`write_baseline`]; everything decision-making lives here
//! so the rules are unit-testable without touching the filesystem.
//!
//! Every held number is a name, a recorded reference and a rule. The
//! baseline records observations only, in three flat name → value
//! sections: `"full"` and `"quick"` for bench files, because quick-mode
//! benches (`MVASD_BENCH_QUICK=1`) run smaller populations — experiment
//! names embed `n`, so the sections don't even share keys — and
//! `"health"` for the live report. Each bench file records which mode
//! produced it and is compared against the matching section only.
//!
//! `rule_for` is the one rule table (documented in `EXPERIMENTS.md`) and
//! `judge` applies it at evaluate time: timing medians may drift 8×
//! (CI machines are noisy; the sentinel exists to catch order-of-magnitude
//! regressions, not nanoseconds), accuracy metrics 10× (with an absolute
//! floor so exact-arithmetic references near 1e-12 don't fail on harmless
//! jitter), and speedups may shrink 4× but never below break-even.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use mvasd_obsv::json::{self, escape, number, Json};

const BASELINE_SCHEMA: &str = "mvasd-baseline/2";

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
            } => {
                let fix = if *expected == BASELINE_SCHEMA {
                    "move it aside and rebuild it with `mvasd-doctor --write-baseline`"
                } else {
                    "regenerate it with the current toolchain"
                };
                match found {
                    Some(s) => write!(
                        f,
                        "{} declares schema {s:?}, expected {expected:?}; {fix}",
                        path.display()
                    ),
                    None => write!(
                        f,
                        "{} has no \"schema\" field, expected {expected:?}; {fix}",
                        path.display()
                    ),
                }
            }
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

/// Named numbers. Bench timing medians in nanoseconds are keyed
/// `"{group}/{experiment}"`, the numeric fields of a bench file's extra
/// objects `"{object}.{field}"` (`"hierarchy.speedup"`), and health report
/// fields by the report's own names (`"lse_range"`), so no two kinds collide.
pub type Observations = BTreeMap<String, f64>;

/// One parsed `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// Source path (for messages; fixtures may use a synthetic name).
    pub path: PathBuf,
    /// Whether `MVASD_BENCH_QUICK=1` produced it.
    pub quick: bool,
    /// Timing medians and flattened extras.
    pub values: Observations,
}

/// A parsed `mvasd-baseline/2` document: recorded observations, never
/// limits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// Reference numbers for full-length bench runs.
    pub full: Option<Observations>,
    /// Reference numbers for `MVASD_BENCH_QUICK=1` runs.
    pub quick: Option<Observations>,
    /// The live health report's judged fields (mode-independent;
    /// `obsv_report` has no quick mode).
    pub health: Option<Observations>,
}

/// Which way a held number must not move past its limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bound {
    /// The value must stay at or under the limit.
    AtMost,
    /// The value must stay at or over the limit.
    AtLeast,
}

/// How far a held number may move from its recorded reference `r`: the
/// limit is `max(r × scale, floor)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rule {
    /// The check-name prefix in the verdict (`"timing"`, `"health"`, …).
    kind: &'static str,
    /// Which side of the limit passes.
    bound: Bound,
    /// Multiplies the reference.
    scale: f64,
    /// The limit never goes below this.
    floor: f64,
}

/// The rule table: the rule that holds `name`, or `None` for a descriptive
/// field (`hierarchy.n`, `multiclass.classes`, …) that is recorded but
/// never judged. Health names match exactly; bench extras need their `.`,
/// so a health field such as `fes_disagg_error` is not an accuracy metric.
fn rule_for(name: &str) -> Option<Rule> {
    use Bound::{AtLeast, AtMost};
    let no_floor = f64::NEG_INFINITY;
    let (kind, bound, scale, floor) = match name {
        "nan_poison_trips" => ("health", AtMost, 0.0, 0.0), // whatever was recorded
        "clamp_events" => ("health", AtMost, 1.0, no_floor),
        "lse_range" | "cache_hit_rate" => ("health", AtLeast, 0.5, no_floor),
        "des_ci_rel_width" => ("health", AtMost, 4.0, no_floor),
        _ if name.contains('/') => ("timing", AtMost, 8.0, no_floor),
        _ if name.contains('.') && name.contains("err") => ("accuracy", AtMost, 10.0, 1e-8),
        _ if name.contains('.') && name.contains("speedup") => ("speedup", AtLeast, 0.25, 1.0),
        _ => return None,
    };
    Some(Rule {
        kind,
        bound,
        scale,
        floor,
    })
}

/// Holds one live `value` to its recorded `reference` under
/// `rule_for(name)`. A value missing from the live side counts as the
/// worst value for the rule's direction; a missing reference is a `skip`.
/// `None` when no rule holds `name`.
fn judge(name: &str, value: Option<f64>, reference: Option<f64>) -> Option<Check> {
    let rule = rule_for(name)?;
    let value = value.unwrap_or(match rule.bound {
        Bound::AtMost => f64::INFINITY,
        Bound::AtLeast => f64::NEG_INFINITY,
    });
    let (status, reference, limit) = match reference {
        None => (CheckStatus::Skip, f64::NAN, f64::NAN),
        Some(r) => {
            let limit = (r * rule.scale).max(rule.floor);
            let held = match rule.bound {
                Bound::AtMost => value <= limit,
                Bound::AtLeast => value >= limit,
            };
            let status = if held {
                CheckStatus::Pass
            } else {
                CheckStatus::Fail
            };
            (status, r, limit)
        }
    };
    Some(Check {
        name: format!("{}:{name}", rule.kind),
        status,
        value,
        reference,
        limit,
    })
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

/// The numeric fields of a JSON object, by name.
fn numbers(v: &Json) -> Observations {
    match v {
        Json::Object(fields) => fields
            .iter()
            .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
            .collect(),
        _ => Observations::new(),
    }
}

/// Parses one `mvasd-bench/1` document (already schema-checked by the
/// caller when read from disk).
pub fn bench_from_json(path: &Path, doc: &Json) -> BenchFile {
    let quick = matches!(doc.get("quick"), Some(Json::Bool(true)));
    let mut values = Observations::new();
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
                values.insert(format!("{gname}/{ename}"), median);
            }
        }
    }
    // Extra top-level objects ("hierarchy", "multiclass", …) carry the
    // accuracy/speedup figures; flatten their numeric fields.
    if let Json::Object(top) = doc {
        for (key, val) in top {
            values.extend(
                numbers(val)
                    .into_iter()
                    .map(|(f, x)| (format!("{key}.{f}"), x)),
            );
        }
    }
    BenchFile {
        path: path.to_path_buf(),
        quick,
        values,
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

/// Loads a live `mvasd-health/1` report (`obsv_report --health`) as its
/// numeric fields.
pub fn load_health(path: &Path) -> Result<Observations, DoctorError> {
    Ok(numbers(&parse_file(path, "mvasd-health/1")?))
}

/// Loads a committed `mvasd-baseline/2` file.
pub fn load_baseline(path: &Path) -> Result<Baseline, DoctorError> {
    if !path.is_file() {
        return Err(DoctorError::MissingBaseline(path.to_path_buf()));
    }
    let doc = parse_file(path, BASELINE_SCHEMA)?;
    let section = |key| doc.get(key).map(numbers);
    Ok(Baseline {
        full: section("full"),
        quick: section("quick"),
        health: section("health"),
    })
}

/// Judges every bench value against the baseline section matching its
/// file's mode, and every recorded health field against the live report,
/// producing a [`Verdict`].
///
/// Experiments with no baseline entry are reported as `skip` so a freshly
/// added bench doesn't break CI before the baseline ratchets; a wholly
/// missing mode section is an error because it means the baseline was never
/// generated for this configuration. Health judges the recorded fields, so
/// one the live report lacks fails; either side being absent is one skip.
pub fn evaluate(
    benches: &[BenchFile],
    baseline_path: &Path,
    baseline: &Baseline,
    health: Option<&Observations>,
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
        checks.extend(
            bench
                .values
                .iter()
                .filter_map(|(name, &v)| judge(name, Some(v), section.get(name).copied())),
        );
    }
    match (&baseline.health, health) {
        (Some(recorded), Some(live)) => checks.extend(
            recorded
                .iter()
                .filter_map(|(name, &r)| judge(name, live.get(name).copied(), Some(r))),
        ),
        (None, None) => {}
        _ => checks.push(Check {
            name: "health:report".to_string(),
            status: CheckStatus::Skip,
            value: f64::NAN,
            reference: f64::NAN,
            limit: f64::NAN,
        }),
    }
    Ok(Verdict { checks })
}

/// Serializes a [`Baseline`] as one `mvasd-baseline/2` JSON object.
pub fn baseline_to_json(b: &Baseline) -> String {
    let mut out = format!("{{\"schema\":\"{BASELINE_SCHEMA}\"");
    for (key, section) in [
        ("full", &b.full),
        ("quick", &b.quick),
        ("health", &b.health),
    ] {
        if let Some(s) = section {
            let fields: Vec<String> = s
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", escape(k), number(*v)))
                .collect();
            out.push_str(&format!(",\"{key}\":{{{}}}", fields.join(",")));
        }
    }
    out.push_str("}\n");
    out
}

/// Folds fresh bench files (and an optional live health report) into
/// `existing`: every key a file carries is re-anchored in the section of
/// that file's mode, and every other key is kept. A quick CI regen never
/// clobbers the committed full numbers, and a results directory holding one
/// bench file re-anchors that file's keys only. A health report replaces
/// the health section with its judged fields.
pub fn merge_baseline(
    existing: Baseline,
    benches: &[BenchFile],
    health: Option<&Observations>,
) -> Baseline {
    let mut out = existing;
    for bench in benches {
        let section = if bench.quick {
            &mut out.quick
        } else {
            &mut out.full
        };
        section
            .get_or_insert_with(Observations::new)
            .extend(bench.values.iter().map(|(k, v)| (k.clone(), *v)));
    }
    if let Some(live) = health {
        let judged = live.iter().filter(|(k, _)| rule_for(k).is_some());
        out.health = Some(judged.map(|(k, v)| (k.clone(), *v)).collect());
    }
    out
}

/// Regenerates the baseline file from the given results directory. Returns
/// the merged baseline that was written.
pub fn write_baseline(
    baseline_path: &Path,
    benches: &[BenchFile],
    health: Option<&Observations>,
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

    fn obs(values: &[(&str, f64)]) -> Observations {
        values.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn bench(quick: bool, values: &[(&str, f64)]) -> BenchFile {
        BenchFile {
            path: PathBuf::from("BENCH_test.json"),
            quick,
            values: obs(values),
        }
    }

    fn baseline_for(bench: &BenchFile) -> Baseline {
        let section = Some(bench.values.clone());
        if bench.quick {
            Baseline {
                quick: section,
                ..Baseline::default()
            }
        } else {
            Baseline {
                full: section,
                ..Baseline::default()
            }
        }
    }

    fn eval(benches: &[BenchFile], base: &Baseline, health: Option<&Observations>) -> Verdict {
        evaluate(benches, Path::new("BASELINE.json"), base, health).expect("evaluation succeeds")
    }

    fn failed(v: &Verdict) -> Vec<&str> {
        v.checks
            .iter()
            .filter(|c| c.status == CheckStatus::Fail)
            .map(|c| c.name.as_str())
            .collect()
    }

    #[test]
    fn matching_baseline_passes() {
        let b = bench(
            false,
            &[
                ("g/walk/300", 1e6),
                ("hierarchy.max_rel_err_throughput", 1e-6),
                ("hierarchy.speedup", 25.0),
            ],
        );
        let v = eval(std::slice::from_ref(&b), &baseline_for(&b), None);
        assert!(v.passed());
        assert_eq!(v.checks.len(), 3);
        assert!(v.checks.iter().all(|c| c.status == CheckStatus::Pass));
    }

    #[test]
    fn rule_table_states_each_limit() {
        let limit = |name: &str, r: f64| judge(name, Some(r), Some(r)).map(|c| c.limit);
        assert_eq!(limit("g/walk/300", 1e6), Some(8e6));
        assert_eq!(limit("x.max_rel_err", 0.25), Some(2.5));
        assert_eq!(limit("x.max_rel_err", 1e-13), Some(1e-8));
        assert_eq!(limit("x.speedup", 20.0), Some(5.0));
        assert_eq!(limit("x.speedup", 2.0), Some(1.0));
        assert_eq!(limit("nan_poison_trips", 3.0), Some(0.0));
        assert_eq!(limit("clamp_events", 2.0), Some(2.0));
        assert_eq!(limit("lse_range", 100.0), Some(50.0));
        assert_eq!(limit("cache_hit_rate", 0.5), Some(0.25));
        assert_eq!(limit("des_ci_rel_width", 0.01), Some(0.04));
        // Descriptive fields, and health fields no rule holds, are unjudged;
        // a health name is not an accuracy metric for containing "err".
        for name in [
            "hierarchy.stations",
            "hierarchy.n",
            "samples",
            "fes_disagg_error",
        ] {
            assert_eq!(judge(name, Some(1.0), Some(1.0)), None, "{name}");
        }
    }

    #[test]
    fn degraded_median_fails() {
        let base = baseline_for(&bench(false, &[("g/walk/300", 1e6)]));
        let degraded = bench(false, &[("g/walk/300", 2e7)]); // 20×
        let v = eval(&[degraded], &base, None);
        assert!(!v.passed());
        let c = &v.checks[0];
        assert_eq!(c.status, CheckStatus::Fail);
        assert_eq!(c.limit, 8e6);
    }

    #[test]
    fn accuracy_and_speedup_directions() {
        let base = baseline_for(&bench(
            false,
            &[("x.max_rel_err", 1e-6), ("x.speedup", 20.0)],
        ));
        // Error went *up* 100×, speedup *down* 10×: both fail.
        let worse = bench(false, &[("x.max_rel_err", 1e-4), ("x.speedup", 2.0)]);
        let v = eval(&[worse], &base, None);
        assert_eq!(failed(&v), ["accuracy:x.max_rel_err", "speedup:x.speedup"]);
        // Error shrinking and speedup growing both pass.
        let better = bench(false, &[("x.max_rel_err", 1e-9), ("x.speedup", 200.0)]);
        assert!(eval(&[better], &base, None).passed());
    }

    #[test]
    fn rel_err_floor_tolerates_exact_arithmetic_jitter() {
        let base = baseline_for(&bench(false, &[("x.max_rel_err", 1e-13)]));
        // 50× worse than a 1e-13 baseline is still far under the 1e-8 floor.
        let jitter = bench(false, &[("x.max_rel_err", 5e-12)]);
        assert!(eval(&[jitter], &base, None).passed());
    }

    #[test]
    fn new_experiment_skips_instead_of_failing() {
        let base = baseline_for(&bench(false, &[("g/old", 1e6)]));
        let b = bench(false, &[("g/old", 1e6), ("g/new", 5e6)]);
        let v = eval(&[b], &base, None);
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
        let base = baseline_for(&bench(false, &[("g/walk", 1e6)]));
        let quick = bench(true, &[("g/walk", 1e6)]);
        let err = evaluate(&[quick], Path::new("BASELINE.json"), &base, None)
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
    fn health_rules_hold_the_live_report() {
        let base = Baseline {
            health: Some(obs(&[
                ("nan_poison_trips", 0.0),
                ("clamp_events", 5.0),
                ("lse_range", 20.0),
                ("cache_hit_rate", 0.5),
                ("des_ci_rel_width", 0.025),
            ])),
            ..Baseline::default()
        };
        let mut live = obs(&[
            ("samples", 100.0),
            ("nan_poison_trips", 0.0),
            ("clamp_events", 0.0),
            ("lse_range", 40.0),
            ("cache_hit_rate", 0.5),
            ("des_ci_rel_width", 0.02),
        ]);
        let v = eval(&[], &base, Some(&live));
        assert_eq!(v.checks.len(), 5);
        assert!(v.checks.iter().all(|c| c.status == CheckStatus::Pass));
        live.insert("nan_poison_trips".into(), 1.0);
        live.insert("lse_range".into(), 3.0);
        let v = eval(&[], &base, Some(&live));
        assert_eq!(failed(&v), ["health:lse_range", "health:nan_poison_trips"]);
        // Missing report against a recorded section: one skip marker, no fail.
        let v = eval(&[], &base, None);
        assert_eq!(v.checks.len(), 1);
        assert_eq!(v.checks[0].status, CheckStatus::Skip);
    }

    #[test]
    fn nan_tolerance_is_zero_whatever_was_recorded() {
        let base = Baseline {
            health: Some(obs(&[("nan_poison_trips", 3.0)])),
            ..Baseline::default()
        };
        let v = eval(&[], &base, Some(&obs(&[("nan_poison_trips", 1.0)])));
        let c = &v.checks[0];
        assert_eq!(
            (c.status, c.reference, c.limit),
            (CheckStatus::Fail, 3.0, 0.0)
        );
        assert!(eval(&[], &base, Some(&obs(&[("nan_poison_trips", 0.0)]))).passed());
    }

    #[test]
    fn health_value_missing_from_the_live_report_fails() {
        let base = Baseline {
            health: Some(obs(&[("lse_range", 100.0), ("des_ci_rel_width", 0.01)])),
            ..Baseline::default()
        };
        let v = eval(&[], &base, Some(&Observations::new()));
        assert_eq!(failed(&v), ["health:des_ci_rel_width", "health:lse_range"]);
        let values: Vec<f64> = v.checks.iter().map(|c| c.value).collect();
        assert_eq!(values, [f64::INFINITY, f64::NEG_INFINITY]);
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
        let full = bench(false, &[("g/walk/800", 3.4e7), ("h.speedup", 26.9)]);
        let report = obs(&[
            ("samples", 10.0),
            ("nan_poison_trips", 0.0),
            ("clamp_events", 2.0),
            ("lse_range", 100.0),
            ("cache_hit_rate", 0.5),
            ("des_ci_rel_width", 0.01),
            ("fes_disagg_error", 1e-13),
        ]);
        let written =
            write_baseline(&path, std::slice::from_ref(&full), Some(&report)).expect("write");
        let loaded = load_baseline(&path).expect("load");
        assert_eq!(written, loaded);
        assert_eq!(loaded.full.as_ref(), Some(&full.values));
        assert_eq!(loaded.quick, None);
        // Health records the judged fields as observed, not as limits.
        let health = loaded.health.clone().expect("health recorded");
        let judged: Vec<&str> = health.keys().map(String::as_str).collect();
        assert_eq!(
            judged,
            [
                "cache_hit_rate",
                "clamp_events",
                "des_ci_rel_width",
                "lse_range",
                "nan_poison_trips"
            ]
        );
        assert_eq!(health.get("lse_range"), Some(&100.0));
        // A later quick regen adds the quick section without touching full.
        let quick = bench(true, &[("g/walk/150", 1.0e6)]);
        let merged =
            write_baseline(&path, std::slice::from_ref(&quick), None).expect("quick merge");
        assert_eq!(merged.full, loaded.full);
        assert_eq!(merged.quick.as_ref().map(|s| s.len()), Some(1));
        assert_eq!(
            merged.health, loaded.health,
            "health survives a merge without --health"
        );
        // A full regen of another bench adds its keys and re-anchors none
        // of the others.
        let other = bench(false, &[("sim/campaign", 3.0e8)]);
        let merged = write_baseline(&path, std::slice::from_ref(&other), None).expect("full merge");
        let section = merged.full.as_ref().expect("full section");
        assert_eq!(section.get("g/walk/800"), Some(&3.4e7));
        assert_eq!(section.get("h.speedup"), Some(&26.9));
        assert_eq!(section.get("sim/campaign"), Some(&3.0e8));
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
        let v = eval(std::slice::from_ref(&b), &baseline_for(&b), None);
        let checks: Vec<(&str, f64)> = v
            .checks
            .iter()
            .map(|c| (c.name.as_str(), c.value))
            .collect();
        // "stations" is descriptive: carried as a value but never checked.
        assert_eq!(
            checks,
            [
                ("timing:hier/sweep/800", 3.0),
                ("accuracy:hierarchy.max_rel_err_throughput", 8.1e-6),
                ("speedup:hierarchy.speedup", 26.95),
            ]
        );
        assert_eq!(b.values.get("hierarchy.stations"), Some(&122.0));
    }
}
