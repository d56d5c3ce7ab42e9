//! Numeric-health telemetry: [`HealthProbe`] accumulators for solver hot
//! paths and the structured [`HealthReport`] distilled from a snapshot.
//!
//! The paper trusts only *observed* quantities; this module applies the
//! same discipline to the solver pipeline itself. A [`HealthProbe`] rides
//! inside a numeric hot loop (log-domain convolution, fixed-point
//! iteration, FES disaggregation) and tracks the dynamic range of a watched
//! quantity plus NaN/clamp/underflow incident counts — all buffered
//! locally, [`CounterBatch`](crate::CounterBatch)-style, behind the same
//! one-relaxed-atomic-load disabled path as every other instrumentation
//! call. [`HealthReport::from_snapshot`] then condenses the emitted
//! `health.*` metrics into one comparable record (`mvasd-health/1` JSON)
//! that `mvasd-doctor` checks against baseline floors.
//!
//! # Metric naming
//!
//! A probe with domain `d` flushes gauges `health.d.lo` / `health.d.hi` /
//! `health.d.range` and counters `health.d.samples` / `health.d.nan_poison`
//! / `health.d.clamp` / `health.d.underflow`. Counters are flushed as
//! deltas, so repeated flushes never double-count.

use crate::collector::Snapshot;
use crate::json::{self, number, Json};

/// A locally-buffered numeric-health accumulator for one hot-path domain.
///
/// `watch` is the per-iteration call: one relaxed atomic load when
/// disabled, a NaN check plus two comparisons when enabled — no recorder
/// dispatch, no allocation, no locks. State reaches the recorder only on
/// [`flush`](Self::flush) (and on drop). Mirrors
/// [`CounterBatch`](crate::CounterBatch) semantics: increments accumulated
/// while disabled are discarded, and clones start fresh so a copied
/// engine never double-flushes pending state.
#[derive(Debug)]
pub struct HealthProbe {
    domain: &'static str,
    lo: f64,
    hi: f64,
    samples: u64,
    nan_trips: u64,
    clamps: u64,
    underflows: u64,
}

impl HealthProbe {
    /// A fresh probe for `domain` (e.g. `"conv.lse"`).
    pub fn new(domain: &'static str) -> Self {
        Self {
            domain,
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            samples: 0,
            nan_trips: 0,
            clamps: 0,
            underflows: 0,
        }
    }

    /// Drops everything buffered locally (does not touch the recorder).
    #[inline]
    fn reset(&mut self) {
        self.lo = f64::INFINITY;
        self.hi = f64::NEG_INFINITY;
        self.samples = 0;
        self.nan_trips = 0;
        self.clamps = 0;
        self.underflows = 0;
    }

    /// Feeds one watched value: NaN counts as a poison trip, non-finite
    /// infinities are ignored (log-domain `−∞` is a legitimate value, not
    /// an incident), finite values extend the `[lo, hi]` envelope.
    // lint: no-alloc
    #[inline]
    pub fn watch(&mut self, v: f64) {
        if !crate::enabled() {
            // Discard state gathered while disabled so a recorder installed
            // later doesn't inherit ranges from the uninstrumented era.
            self.reset();
            return;
        }
        if v.is_nan() {
            self.nan_trips += 1;
        } else if v.is_finite() {
            self.samples += 1;
            if v < self.lo {
                self.lo = v;
            }
            if v > self.hi {
                self.hi = v;
            }
        }
    }

    /// Counts one clamp incident (a value forced back into its legal
    /// range).
    #[inline]
    pub fn count_clamp(&mut self) {
        if crate::enabled() {
            self.clamps += 1;
        }
    }

    /// Counts one underflow incident (a term dropped because `exp` would
    /// flush it to zero).
    #[inline]
    pub fn count_underflow(&mut self) {
        if crate::enabled() {
            self.underflows += 1;
        }
    }

    /// Watched-value envelope buffered so far, if any value was watched.
    pub fn envelope(&self) -> Option<(f64, f64)> {
        if self.samples > 0 {
            Some((self.lo, self.hi))
        } else {
            None
        }
    }

    /// Pushes buffered state to the recorder: range gauges (only when at
    /// least one value was watched) plus incident-count deltas. Buffered
    /// state is cleared either way.
    pub fn flush(&mut self) {
        if crate::enabled() {
            if self.samples > 0 {
                crate::gauge(&format!("health.{}.lo", self.domain), self.lo);
                crate::gauge(&format!("health.{}.hi", self.domain), self.hi);
                crate::gauge(&format!("health.{}.range", self.domain), self.hi - self.lo);
                crate::counter(&format!("health.{}.samples", self.domain), self.samples);
            }
            if self.nan_trips > 0 {
                crate::counter(
                    &format!("health.{}.nan_poison", self.domain),
                    self.nan_trips,
                );
            }
            if self.clamps > 0 {
                crate::counter(&format!("health.{}.clamp", self.domain), self.clamps);
            }
            if self.underflows > 0 {
                crate::counter(
                    &format!("health.{}.underflow", self.domain),
                    self.underflows,
                );
            }
        }
        self.reset();
    }
}

impl Drop for HealthProbe {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Clone for HealthProbe {
    /// Clones start fresh: a copy of an engine mid-flight (a cached
    /// hierarchy subsystem, say) must not double-flush the pending
    /// envelope when both copies later drop.
    fn clone(&self) -> Self {
        Self::new(self.domain)
    }
}

/// Maps a fixed-point residual to "converged decimal digits × 100" for
/// histogram storage: `residual = 1e-9` → 900. Non-positive residuals mean
/// exact convergence and map to the cap; the result is clamped to
/// `[0, 2000]` (20 digits — beyond f64 precision).
pub fn residual_digits(residual: f64) -> u64 {
    if residual.is_nan() || residual <= 0.0 {
        return 2000;
    }
    let digits = -residual.log10() * 100.0;
    if digits <= 0.0 {
        0
    } else if digits >= 2000.0 {
        2000
    } else {
        // Truncation keeps the value conservative (never reports more
        // converged digits than the residual supports).
        digits as u64
    }
}

/// A structured numeric-health record distilled from the `health.*`
/// metrics in a [`Snapshot`]. `Option` fields are absent when the
/// corresponding subsystem never ran under the recorder.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// Total values watched across all probes.
    pub samples: u64,
    /// NaN reads across all probes (poisoned-cell trips): must be zero.
    pub nan_poison_trips: u64,
    /// Clamp incidents across all probes.
    pub clamp_events: u64,
    /// Underflow incidents across all probes.
    pub underflow_events: u64,
    /// Smallest `ln G` the convolution workspace produced.
    pub lse_lo: Option<f64>,
    /// Largest `ln G` the convolution workspace produced.
    pub lse_hi: Option<f64>,
    /// Log-sum-exp dynamic range (`lse_hi − lse_lo`).
    pub lse_range: Option<f64>,
    /// Median converged digits of the Schweitzer fixed point.
    pub schweitzer_residual_digits_p50: Option<f64>,
    /// Worst-case (fewest) converged digits of the Schweitzer fixed point.
    pub schweitzer_residual_digits_min: Option<f64>,
    /// Hierarchy `ProfileCache` hit rate in `[0, 1]`.
    pub cache_hit_rate: Option<f64>,
    /// Profile extensions performed after a cached sub-engine was reused.
    pub profile_stale_steps: u64,
    /// Largest FES disaggregation error `|Σ_leaf Q − Q_fes|` observed.
    pub fes_disagg_error: Option<f64>,
    /// Relative half-width of the DES response-time confidence interval.
    pub des_ci_rel_width: Option<f64>,
}

/// Sums every counter named `health.*.<suffix>`.
fn sum_suffix(snap: &Snapshot, suffix: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(k, _)| k.starts_with("health.") && k.ends_with(suffix))
        .map(|(_, &v)| v)
        .sum()
}

impl HealthReport {
    /// Distills the `health.*` metrics of `snap` into a report.
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let residual = snap.histogram("health.schweitzer.residual_digits");
        Self {
            samples: sum_suffix(snap, ".samples"),
            nan_poison_trips: sum_suffix(snap, ".nan_poison"),
            clamp_events: sum_suffix(snap, ".clamp"),
            underflow_events: sum_suffix(snap, ".underflow"),
            lse_lo: snap.gauge("health.conv.lse.lo"),
            lse_hi: snap.gauge("health.conv.lse.hi"),
            lse_range: snap.gauge("health.conv.lse.range"),
            schweitzer_residual_digits_p50: residual.map(|h| h.quantile(0.50) as f64 / 100.0),
            schweitzer_residual_digits_min: residual.map(|h| h.min as f64 / 100.0),
            cache_hit_rate: snap.gauge("health.hierarchy.cache_hit_rate"),
            profile_stale_steps: snap.counter("health.hierarchy.profile_stale_steps"),
            fes_disagg_error: snap.gauge("health.hierarchy.disagg.hi"),
            des_ci_rel_width: snap.gauge("health.simnet.ci_rel_width"),
        }
    }

    /// Serializes as one `mvasd-health/1` JSON object. Absent subsystems
    /// are omitted rather than written as nulls.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<String> = vec![
            "\"schema\":\"mvasd-health/1\"".to_string(),
            format!("\"samples\":{}", self.samples),
            format!("\"nan_poison_trips\":{}", self.nan_poison_trips),
            format!("\"clamp_events\":{}", self.clamp_events),
            format!("\"underflow_events\":{}", self.underflow_events),
            format!("\"profile_stale_steps\":{}", self.profile_stale_steps),
        ];
        let optional = [
            ("lse_lo", self.lse_lo),
            ("lse_hi", self.lse_hi),
            ("lse_range", self.lse_range),
            (
                "schweitzer_residual_digits_p50",
                self.schweitzer_residual_digits_p50,
            ),
            (
                "schweitzer_residual_digits_min",
                self.schweitzer_residual_digits_min,
            ),
            ("cache_hit_rate", self.cache_hit_rate),
            ("fes_disagg_error", self.fes_disagg_error),
            ("des_ci_rel_width", self.des_ci_rel_width),
        ];
        for (name, v) in optional {
            if let Some(v) = v {
                fields.push(format!("\"{}\":{}", name, number(v)));
            }
        }
        format!("{{{}}}\n", fields.join(","))
    }

    /// Parses a `mvasd-health/1` JSON object produced by
    /// [`to_json`](Self::to_json).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("health report: {e}"))?;
        match v.get("schema").and_then(Json::as_str) {
            Some("mvasd-health/1") => {}
            Some(other) => return Err(format!("health report: unknown schema {other:?}")),
            None => return Err("health report: missing \"schema\" field".to_string()),
        }
        let count = |key: &str| -> u64 {
            v.get(key)
                .and_then(Json::as_f64)
                .map(|x| x.max(0.0) as u64)
                .unwrap_or(0)
        };
        let opt = |key: &str| v.get(key).and_then(Json::as_f64);
        Ok(Self {
            samples: count("samples"),
            nan_poison_trips: count("nan_poison_trips"),
            clamp_events: count("clamp_events"),
            underflow_events: count("underflow_events"),
            lse_lo: opt("lse_lo"),
            lse_hi: opt("lse_hi"),
            lse_range: opt("lse_range"),
            schweitzer_residual_digits_p50: opt("schweitzer_residual_digits_p50"),
            schweitzer_residual_digits_min: opt("schweitzer_residual_digits_min"),
            cache_hit_rate: opt("cache_hit_rate"),
            profile_stale_steps: count("profile_stale_steps"),
            fes_disagg_error: opt("fes_disagg_error"),
            des_ci_rel_width: opt("des_ci_rel_width"),
        })
    }

    /// A terse human-readable digest for terminals / CI logs.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "health: samples={} nan_poison={} clamps={} underflows={}",
            self.samples, self.nan_poison_trips, self.clamp_events, self.underflow_events
        );
        if let Some(r) = self.lse_range {
            out.push_str(&format!(" lse_range={r:.3}"));
        }
        if let Some(d) = self.schweitzer_residual_digits_min {
            out.push_str(&format!(" schweitzer_digits_min={d:.2}"));
        }
        if let Some(h) = self.cache_hit_rate {
            out.push_str(&format!(" cache_hit_rate={h:.3}"));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;
    use crate::Collector;
    use std::sync::Arc;

    #[test]
    fn probe_is_inert_and_stateless_while_disabled() {
        let _g = test_support::lock();
        assert!(!crate::enabled());
        let mut p = HealthProbe::new("test.domain");
        p.watch(1.0);
        p.watch(f64::NAN);
        p.count_clamp();
        p.count_underflow();
        assert_eq!(p.envelope(), None);
        // Enabling later must not inherit anything from the disabled era.
        let c = Arc::new(Collector::new());
        {
            let _guard = crate::scoped(c.clone());
            p.watch(5.0);
            p.flush();
        }
        let snap = c.snapshot();
        assert_eq!(snap.counter("health.test.domain.samples"), 1);
        assert_eq!(snap.counter("health.test.domain.nan_poison"), 0);
        assert_eq!(snap.gauge("health.test.domain.lo"), Some(5.0));
        assert_eq!(snap.gauge("health.test.domain.hi"), Some(5.0));
    }

    #[test]
    fn probe_tracks_envelope_and_incidents() {
        let _g = test_support::lock();
        let c = Arc::new(Collector::new());
        let _guard = crate::scoped(c.clone());
        let mut p = HealthProbe::new("conv.lse");
        for v in [3.0, -2.0, 10.0, f64::NEG_INFINITY] {
            p.watch(v);
        }
        p.watch(f64::NAN);
        p.count_underflow();
        p.count_underflow();
        p.count_clamp();
        assert_eq!(p.envelope(), Some((-2.0, 10.0)));
        p.flush();
        // A second flush must not double-count (deltas were cleared).
        p.flush();
        let snap = c.snapshot();
        assert_eq!(snap.gauge("health.conv.lse.lo"), Some(-2.0));
        assert_eq!(snap.gauge("health.conv.lse.hi"), Some(10.0));
        assert_eq!(snap.gauge("health.conv.lse.range"), Some(12.0));
        // −∞ is a legitimate log-domain value, not a sample or an incident.
        assert_eq!(snap.counter("health.conv.lse.samples"), 3);
        assert_eq!(snap.counter("health.conv.lse.nan_poison"), 1);
        assert_eq!(snap.counter("health.conv.lse.underflow"), 2);
        assert_eq!(snap.counter("health.conv.lse.clamp"), 1);
    }

    #[test]
    fn probe_flushes_on_drop_and_clone_resets() {
        let _g = test_support::lock();
        let c = Arc::new(Collector::new());
        let _guard = crate::scoped(c.clone());
        let mut p = HealthProbe::new("drop.domain");
        p.watch(7.0);
        let clone = p.clone();
        drop(clone); // fresh clone: flushes nothing
        drop(p);
        let snap = c.snapshot();
        assert_eq!(snap.counter("health.drop.domain.samples"), 1);
        assert_eq!(snap.gauge("health.drop.domain.range"), Some(0.0));
    }

    #[test]
    fn residual_digits_maps_residuals_conservatively() {
        assert_eq!(residual_digits(1e-9), 900);
        assert_eq!(residual_digits(1e-12), 1200);
        assert_eq!(residual_digits(0.5), 30); // -log10(0.5) ≈ 0.301
        assert_eq!(residual_digits(1.0), 0);
        assert_eq!(residual_digits(10.0), 0); // clamped at zero digits
        assert_eq!(residual_digits(0.0), 2000); // exact convergence
        assert_eq!(residual_digits(-1.0), 2000);
        assert_eq!(residual_digits(f64::NAN), 2000);
        assert_eq!(residual_digits(1e-30), 2000); // capped
    }

    #[test]
    fn report_distills_snapshot_and_round_trips_json() {
        let _g = test_support::lock();
        let c = Arc::new(Collector::new());
        let _guard = crate::scoped(c.clone());
        let mut p = HealthProbe::new("conv.lse");
        p.watch(-5.0);
        p.watch(40.0);
        p.count_underflow();
        p.flush();
        crate::observe("health.schweitzer.residual_digits", residual_digits(1e-8));
        crate::observe("health.schweitzer.residual_digits", residual_digits(1e-10));
        crate::gauge("health.hierarchy.cache_hit_rate", 0.75);
        crate::counter("health.hierarchy.profile_stale_steps", 3);
        let report = HealthReport::from_snapshot(&c.snapshot());
        assert_eq!(report.samples, 2);
        assert_eq!(report.nan_poison_trips, 0);
        assert_eq!(report.underflow_events, 1);
        assert_eq!(report.lse_range, Some(45.0));
        assert_eq!(report.schweitzer_residual_digits_min, Some(8.0));
        assert_eq!(report.cache_hit_rate, Some(0.75));
        assert_eq!(report.profile_stale_steps, 3);
        assert_eq!(report.des_ci_rel_width, None);

        let text = report.to_json();
        assert!(json::parse(&text).is_ok(), "health JSON must parse");
        let back = HealthReport::from_json(&text).expect("round-trip");
        // f64 → text → f64 is exact for these values ({} prints shortest
        // round-trippable form).
        assert_eq!(back, report);
        assert!(report.summary().contains("nan_poison=0"));
    }

    #[test]
    fn report_from_json_rejects_garbage() {
        assert!(HealthReport::from_json("").is_err());
        assert!(HealthReport::from_json("{}").is_err());
        assert!(HealthReport::from_json("{\"schema\":\"other/9\"}").is_err());
        let minimal = "{\"schema\":\"mvasd-health/1\"}";
        let r = HealthReport::from_json(minimal).expect("minimal report");
        assert_eq!(r, HealthReport::default());
    }

    #[test]
    fn empty_snapshot_yields_default_report() {
        let r = HealthReport::from_snapshot(&Snapshot::default());
        assert_eq!(r, HealthReport::default());
        let text = r.to_json();
        assert_eq!(HealthReport::from_json(&text).expect("parse"), r);
    }
}
