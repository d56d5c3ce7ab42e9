//! `--compare A B`: judges two sets of `--out` records against the bounds
//! in `BENCHMARK.json`, one row per (metric, workload) pair.
//!
//! A pair that one side measured and the other did not is `regressed`: a
//! change that breaks a workload's set-up, or stops emitting a gated
//! metric, must not pass for lack of a row. Files with no untraced record
//! at all are an error.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use mvasd_obsv::json::{self, Json};

use crate::percentile;

/// One end-to-end metric's rule from `BENCHMARK.json`.
struct Rule {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// Per workload: each metric's values, and `(attempted, failed)` totals.
#[derive(Default)]
struct Samples {
    values: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
}

fn rules(benchmark: &str) -> Result<Vec<Rule>, String> {
    let spec = json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Rule {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err("an end_to_end metric lacks name, better or bound".to_string()),
            }
        })
        .collect()
}

/// The untraced records of one `--out` file's text, grouped by workload;
/// `source` names the file in errors.
fn records(text: &str, source: &str) -> Result<BTreeMap<String, Samples>, String> {
    let mut out: BTreeMap<String, Samples> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("{source}:{}: {e}", i + 1))?;
        let field = |key: &str| record.get(key).and_then(Json::as_f64);
        let (Some(workload), Some(trace), Some(attempted), Some(failed), Some(metrics)) = (
            record.get("workload").and_then(Json::as_str),
            field("trace"),
            field("attempted"),
            field("failed"),
            record.get("metrics"),
        ) else {
            return Err(format!("{source}:{}: not a pipeline record", i + 1));
        };
        if trace > 0.0 {
            continue;
        }
        let samples = out.entry(workload.to_string()).or_default();
        samples.attempted += attempted;
        samples.failed += failed;
        if let Json::Object(metrics) = metrics {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    samples.values.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(out)
}

/// Reads both files and judges them; see [`judge`].
pub(crate) fn compare(a: &Path, b: &Path, benchmark: &str) -> Result<(String, bool), String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    judge(&read(a)?, &read(b)?, benchmark)
}

/// The verdict table of B's records against A's, and whether any row
/// regressed.
fn judge(a: &str, b: &str, benchmark: &str) -> Result<(String, bool), String> {
    let rules = rules(benchmark)?;
    let (a, b) = (records(a, "A")?, records(b, "B")?);
    let workloads: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    if workloads.is_empty() {
        return Err("neither file holds an untraced record: nothing to compare".into());
    }
    let mut table = format!(
        "{:<20} {:<14} {:>12} {:>12} {:>9} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "B spread", "bound"
    );
    let mut regressed = false;
    for workload in workloads {
        let (sa, sb) = (a.get(workload), b.get(workload));
        for rule in &rules {
            let va = sa.and_then(|s| s.values.get(&rule.name));
            let vb = sb.and_then(|s| s.values.get(&rule.name));
            let (Some(va), Some(vb)) = (va, vb) else {
                let side = if va.is_none() { "A" } else { "B" };
                regressed = true;
                table.push_str(&format!(
                    "{:<20} {:<14} {:>53}  regressed\n",
                    workload,
                    rule.name,
                    format!("missing in {side}")
                ));
                continue;
            };
            let ma = percentile(va, 50.0);
            let (q1, mb, q3) = (
                percentile(vb, 25.0),
                percentile(vb, 50.0),
                percentile(vb, 75.0),
            );
            let change = (mb - ma) / ma;
            let worse = if rule.lower_is_better {
                change
            } else {
                -change
            };
            let spread = (q3 - q1) / mb;
            let beats = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
            let all_better = vb.iter().all(|&x| va.iter().all(|&y| beats(x, y)));
            let verdict = if spread > rule.bound && !all_better {
                "unresolved"
            } else if worse > rule.bound {
                "regressed"
            } else {
                "ok"
            };
            regressed |= verdict == "regressed";
            table.push_str(&format!(
                "{:<20} {:<14} {:>12.6} {:>12.6} {:>8.2}% {:>8.2}% {:>6.1}%  {verdict}\n",
                workload,
                rule.name,
                ma,
                mb,
                100.0 * change,
                100.0 * spread,
                100.0 * rule.bound
            ));
        }
        let rate = |s: Option<&Samples>| s.map(|s| s.failed / s.attempted.max(1.0));
        let verdict = match (rate(sa), rate(sb)) {
            (Some(ra), Some(rb)) if rb <= ra => "ok",
            _ => "regressed",
        };
        regressed |= verdict == "regressed";
        let shown = |r: Option<f64>| r.map_or("missing".to_string(), |r| format!("{r:.6}"));
        table.push_str(&format!(
            "{:<20} {:<14} {:>12} {:>12} {:>9} {:>9} {:>7}  {verdict}\n",
            workload,
            "fail_rate",
            shown(rate(sa)),
            shown(rate(sb)),
            "",
            "",
            "any"
        ));
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
    ]}"#;

    fn record(workload: &str, op_p50_ms: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"trace\": 0, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {{\"op_p50_ms\": {{\"value\": {op_p50_ms}, \"unit\": \"ms\"}}}}}}\n"
        )
    }

    #[test]
    fn same_numbers_pass_and_a_slower_change_regresses() {
        let a = record("w", 100.0) + &record("w", 101.0) + &record("w", 99.0);
        let (_, regressed) = judge(&a, &a, SPEC).expect("judged");
        assert!(!regressed);
        let slow = record("w", 120.0) + &record("w", 121.0) + &record("w", 119.0);
        let (table, regressed) = judge(&a, &slow, SPEC).expect("judged");
        assert!(regressed, "{table}");
    }

    #[test]
    fn a_workload_missing_from_either_side_regresses() {
        let a = record("v", 100.0) + &record("w", 100.0);
        let (table, regressed) = judge(&a, &record("w", 100.0), SPEC).expect("judged");
        assert!(regressed);
        assert!(table.contains("missing in B"), "{table}");
        let (table, regressed) = judge(&record("w", 100.0), &a, SPEC).expect("judged");
        assert!(regressed);
        assert!(table.contains("missing in A"), "{table}");
    }

    #[test]
    fn a_gated_metric_missing_from_one_side_regresses() {
        let bare = "{\"workload\": \"w\", \"trace\": 0, \"attempted\": 10, \"failed\": 0, \
                    \"metrics\": {}}\n";
        let (table, regressed) = judge(&record("w", 100.0), bare, SPEC).expect("judged");
        assert!(regressed);
        assert!(table.contains("missing in B"), "{table}");
    }

    #[test]
    fn files_without_untraced_records_are_an_error() {
        let traced = "{\"workload\": \"w\", \"trace\": 1, \"attempted\": 10, \"failed\": 0, \
                      \"metrics\": {}}\n";
        assert!(judge(traced, traced, SPEC).is_err());
        assert!(judge("", "", SPEC).is_err());
    }
}
