//! A small std-only timing harness for the `harness = false` benches.
//!
//! Each measurement runs the closure for a few warmup iterations, then
//! times `samples` single calls and reports min / median / mean. No
//! statistics beyond that: the benches here exist to catch
//! order-of-magnitude regressions and to document relative cost, not to
//! resolve nanoseconds.
//!
//! Set `MVASD_BENCH_QUICK=1` to cut samples roughly in half (useful in CI
//! smoke runs); the knob is read once per process.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use mvasd_obsv as obsv;

/// True when `MVASD_BENCH_QUICK=1`: benches drop to a fast smoke pass.
pub fn quick_mode() -> bool {
    static QUICK: OnceLock<bool> = OnceLock::new();
    *QUICK.get_or_init(|| std::env::var_os("MVASD_BENCH_QUICK").is_some_and(|v| v == "1"))
}

/// How a [`Bench`] measures one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Untimed iterations before sampling starts.
    pub warmup: u32,
    /// Number of timed samples, one closure call each.
    pub samples: u32,
}

impl Default for Plan {
    fn default() -> Self {
        Self {
            warmup: 3,
            samples: 15,
        }
    }
}

impl Plan {
    /// A plan for expensive targets (seconds per call): fewer samples.
    pub fn heavy() -> Self {
        Self {
            warmup: 1,
            samples: 5,
        }
    }

    fn effective(self) -> Self {
        if quick_mode() {
            Self {
                warmup: self.warmup.min(1),
                samples: ((self.samples + 1) / 2).max(3),
            }
        } else {
            self
        }
    }
}

/// One measured target.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Target label.
    pub name: String,
    /// Per-call sample durations, ascending.
    pub sorted: Vec<Duration>,
}

impl Measurement {
    /// Fastest observed per-call time.
    pub fn min(&self) -> Duration {
        self.sorted[0]
    }

    /// Median per-call time (the headline number).
    pub fn median(&self) -> Duration {
        let s = &self.sorted;
        let mid = s.len() / 2;
        if s.len() % 2 == 1 {
            s[mid]
        } else {
            (s[mid - 1] + s[mid]) / 2
        }
    }

    /// Mean per-call time.
    pub fn mean(&self) -> Duration {
        self.sorted.iter().sum::<Duration>() / self.sorted.len() as u32
    }

    /// Slowest observed per-call time.
    pub fn max(&self) -> Duration {
        *self.sorted.last().expect("measurements are non-empty")
    }

    /// Nearest-rank quantile of the per-call samples. `q` is clamped
    /// to `[0, 1]`; `quantile(0.0)` is `min()` and `quantile(1.0)` is
    /// `max()`.
    pub fn quantile(&self, q: f64) -> Duration {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// A named group of measurements, printed as an aligned table on `report`.
#[derive(Debug, Default)]
pub struct Bench {
    group: String,
    results: Vec<Measurement>,
}

impl Bench {
    /// Starts a benchmark group.
    pub fn new(group: &str) -> Self {
        Self {
            group: group.to_string(),
            results: Vec::new(),
        }
    }

    /// Measures `f` under `plan` and records the result. The closure's
    /// return value is passed through [`black_box`] so the optimizer can't
    /// delete the work.
    ///
    /// When an [`mvasd_obsv`] recorder is installed, each per-call
    /// sample is also fed into the `bench.{group}.{name}` histogram (in
    /// nanoseconds), so experiments and production code share one
    /// measurement vocabulary.
    pub fn measure<R>(&mut self, name: &str, plan: Plan, mut f: impl FnMut() -> R) -> &Measurement {
        let plan = plan.effective();
        for _ in 0..plan.warmup {
            black_box(f());
        }
        let metric = if obsv::enabled() {
            Some(format!("bench.{}.{}", self.group, name))
        } else {
            None
        };
        let mut sorted = Vec::with_capacity(plan.samples as usize);
        for _ in 0..plan.samples {
            let start = Instant::now();
            black_box(f());
            let elapsed = start.elapsed();
            if let Some(metric) = &metric {
                obsv::observe_duration(metric, elapsed);
            }
            sorted.push(elapsed);
        }
        sorted.sort();
        self.results.push(Measurement {
            name: name.to_string(),
            sorted,
        });
        self.results.last().expect("just pushed")
    }

    /// Renders the group as an aligned text table.
    pub fn report(&self) -> String {
        let width = self
            .results
            .iter()
            .map(|m| m.name.len())
            .max()
            .unwrap_or(0)
            .max(6);
        let mut out = format!(
            "{}\n{:<width$}  {:>10}  {:>10}  {:>10}\n",
            self.group, "target", "median", "mean", "min"
        );
        for m in &self.results {
            out.push_str(&format!(
                "{:<width$}  {:>10}  {:>10}  {:>10}\n",
                m.name,
                fmt_duration(m.median()),
                fmt_duration(m.mean()),
                fmt_duration(m.min())
            ));
        }
        out
    }

    /// The recorded measurements.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// The group name.
    pub fn group(&self) -> &str {
        &self.group
    }
}

/// Serializes benchmark groups as machine-readable JSON (schema
/// `mvasd-bench/1`, documented in `EXPERIMENTS.md`): one object per group,
/// one entry per measured target with sample count and nanosecond timing
/// quantiles. The output parses with `mvasd_obsv::json::parse` and is what
/// the committed `results/BENCH_*.json` files contain.
pub fn bench_json(groups: &[&Bench]) -> String {
    use obsv::json::escape;
    let mut out = String::from("{\"schema\":\"mvasd-bench/1\",\"quick\":");
    out.push_str(if quick_mode() { "true" } else { "false" });
    out.push_str(",\"groups\":[");
    for (gi, g) in groups.iter().enumerate() {
        if gi > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"group\":\"{}\",\"experiments\":[",
            escape(&g.group)
        ));
        for (mi, m) in g.results.iter().enumerate() {
            if mi > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                concat!(
                    "{{\"name\":\"{}\",\"samples\":{},\"nanos\":{{",
                    "\"min\":{},\"p25\":{},\"median\":{},\"p75\":{},",
                    "\"p90\":{},\"max\":{},\"mean\":{}}}}}"
                ),
                escape(&m.name),
                m.sorted.len(),
                m.min().as_nanos(),
                m.quantile(0.25).as_nanos(),
                m.median().as_nanos(),
                m.quantile(0.75).as_nanos(),
                m.quantile(0.90).as_nanos(),
                m.max().as_nanos(),
                m.mean().as_nanos(),
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports() {
        let mut b = Bench::new("demo");
        let m = b.measure("spin", Plan::default(), || {
            (0..100u64).map(black_box).sum::<u64>()
        });
        assert!(m.min() <= m.median() && m.median() <= *m.sorted.last().unwrap());
        assert!(m.mean() > Duration::ZERO);
        let txt = b.report();
        assert!(txt.contains("demo"));
        assert!(txt.contains("spin"));
        assert!(txt.contains("median"));
    }

    #[test]
    fn median_of_even_and_odd_sample_counts() {
        let m = Measurement {
            name: "x".into(),
            sorted: vec![Duration::from_nanos(10), Duration::from_nanos(30)],
        };
        assert_eq!(m.median(), Duration::from_nanos(20));
        let m = Measurement {
            name: "x".into(),
            sorted: (1..=3).map(Duration::from_nanos).collect(),
        };
        assert_eq!(m.median(), Duration::from_nanos(2));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let m = Measurement {
            name: "x".into(),
            sorted: (1..=10).map(Duration::from_nanos).collect(),
        };
        assert_eq!(m.quantile(0.0), Duration::from_nanos(1));
        assert_eq!(m.quantile(0.25), Duration::from_nanos(3));
        assert_eq!(m.quantile(0.9), Duration::from_nanos(9));
        assert_eq!(m.quantile(1.0), Duration::from_nanos(10));
        assert_eq!(m.quantile(2.0), m.max());
        assert_eq!(m.quantile(-1.0), m.min());
        assert_eq!(m.max(), Duration::from_nanos(10));
    }

    #[test]
    fn bench_json_parses_and_carries_quantiles() {
        let mut b = Bench::new("grp \"q\"");
        b.measure("fast", Plan::default(), || black_box(1u64) + 1);
        let json = bench_json(&[&b]);
        let doc = obsv::json::parse(&json).expect("bench_json emits valid JSON");
        let obj = match &doc {
            obsv::json::Json::Object(m) => m,
            other => panic!("expected object, got {other:?}"),
        };
        assert_eq!(
            obj.get("schema"),
            Some(&obsv::json::Json::String("mvasd-bench/1".into()))
        );
        let groups = match obj.get("groups") {
            Some(obsv::json::Json::Array(a)) => a,
            other => panic!("expected groups array, got {other:?}"),
        };
        assert_eq!(groups.len(), 1);
        let group = match &groups[0] {
            obsv::json::Json::Object(m) => m,
            other => panic!("expected group object, got {other:?}"),
        };
        assert_eq!(
            group.get("group"),
            Some(&obsv::json::Json::String("grp \"q\"".into()))
        );
        let experiments = match group.get("experiments") {
            Some(obsv::json::Json::Array(a)) => a,
            other => panic!("expected experiments array, got {other:?}"),
        };
        let exp = match &experiments[0] {
            obsv::json::Json::Object(m) => m,
            other => panic!("expected experiment object, got {other:?}"),
        };
        let nanos = match exp.get("nanos") {
            Some(obsv::json::Json::Object(m)) => m,
            other => panic!("expected nanos object, got {other:?}"),
        };
        for key in ["min", "p25", "median", "p75", "p90", "max", "mean"] {
            assert!(nanos.contains_key(key), "missing quantile {key}");
        }
    }

    #[test]
    fn measure_feeds_installed_histograms() {
        let collector = std::sync::Arc::new(obsv::Collector::new());
        let _guard = obsv::scoped(collector.clone());
        let mut b = Bench::new("obsv");
        b.measure("spin", Plan::default(), || black_box(3u64) * 7);
        let snap = collector.snapshot();
        let hist = snap
            .histogram("bench.obsv.spin")
            .expect("samples land in the bench histogram");
        assert_eq!(hist.count, b.results()[0].sorted.len() as u64);
    }

    #[test]
    fn duration_formatting_picks_sane_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert!(fmt_duration(Duration::from_micros(500)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(500)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(20)).ends_with(" s"));
    }
}
