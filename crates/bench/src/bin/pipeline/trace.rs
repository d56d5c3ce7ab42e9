//! Per-layer attribution for a traced slice.
//!
//! The benchmark wraps each public call of an op in a [`layer`] span and
//! installs a [`LayerRecorder`]. The recorder charges every counter and
//! histogram the program emits to the layer open at that moment, keeps
//! the benchmark's own `op`/`layer.*` spans, and drops the program's
//! in-process spans. A span's self time is its duration minus its kept
//! direct children, so an op's self time is what no layer explains.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mvasd_obsv::{self as obsv, Recorder, SpanRecord};

use crate::Metric;

/// The layers an op is split into. `Op` is the op itself: harness glue,
/// test design, demand extraction and accuracy comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layer {
    Op,
    Campaign,
    Profile,
    Mvasd,
    SweepCold,
    SweepWarm,
}

const LAYERS: [Layer; 6] = [
    Layer::Op,
    Layer::Campaign,
    Layer::Profile,
    Layer::Mvasd,
    Layer::SweepCold,
    Layer::SweepWarm,
];

impl Layer {
    fn span_name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Campaign => "layer.campaign",
            Layer::Profile => "layer.profile",
            Layer::Mvasd => "layer.mvasd",
            Layer::SweepCold => "layer.sweep.cold",
            Layer::SweepWarm => "layer.sweep.warm",
        }
    }

    fn of_span(name: &str) -> Option<Layer> {
        LAYERS.into_iter().find(|l| l.span_name() == name)
    }
}

/// The layer whose call is in flight; a statistic only, read by the
/// recorder to attribute counters, so relaxed ordering suffices.
static CURRENT: AtomicUsize = AtomicUsize::new(0);

/// Runs `f` as a call into `layer`: inside its span, with the counters it
/// emits charged to it. Inert apart from one atomic store when no
/// recorder is installed.
pub(crate) fn layer<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let _span = obsv::span(layer.span_name());
    CURRENT.store(layer as usize, Ordering::Relaxed);
    let out = f();
    CURRENT.store(Layer::Op as usize, Ordering::Relaxed);
    out
}

#[derive(Default)]
struct Tally {
    counters: [BTreeMap<String, u64>; LAYERS.len()],
    /// `(count, sum)` of each histogram.
    histograms: [BTreeMap<String, (u64, u64)>; LAYERS.len()],
    spans: Vec<SpanRecord>,
}

/// The traced slice's recorder; see the module docs.
#[derive(Default)]
pub(crate) struct LayerRecorder {
    tally: Mutex<Tally>,
}

impl LayerRecorder {
    fn tally(&self) -> MutexGuard<'_, Tally> {
        // A panic elsewhere cannot leave a tally half-updated: every
        // update is a single map insert or add.
        self.tally.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Recorder for LayerRecorder {
    fn counter(&self, name: &str, delta: u64) {
        let at = CURRENT.load(Ordering::Relaxed);
        let mut t = self.tally();
        let map = &mut t.counters[at];
        match map.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                map.insert(name.to_string(), delta);
            }
        }
    }

    fn gauge(&self, _name: &str, _value: f64) {}

    fn observe(&self, name: &str, value: u64) {
        let at = CURRENT.load(Ordering::Relaxed);
        let mut t = self.tally();
        let map = &mut t.histograms[at];
        match map.get_mut(name) {
            Some((count, sum)) => {
                *count += 1;
                *sum += value;
            }
            None => {
                map.insert(name.to_string(), (1, value));
            }
        }
    }

    fn record_span(&self, span: SpanRecord) {
        if Layer::of_span(span.name).is_some() {
            self.tally().spans.push(span);
        }
    }
}

impl LayerRecorder {
    /// Per-op self time of each layer, in nanoseconds.
    fn self_ns(&self) -> [u64; LAYERS.len()] {
        let t = self.tally();
        let mut out = [0u64; LAYERS.len()];
        for s in &t.spans {
            let end = s.start_ns + s.dur_ns;
            let children: u64 = t
                .spans
                .iter()
                .filter(|c| {
                    c.thread == s.thread
                        && c.depth == s.depth + 1
                        && c.start_ns >= s.start_ns
                        && c.start_ns + c.dur_ns <= end
                })
                .map(|c| c.dur_ns)
                .sum();
            if let Some(l) = Layer::of_span(s.name) {
                out[l as usize] += s.dur_ns.saturating_sub(children);
            }
        }
        out
    }

    fn counter(&self, layer: Layer, name: &str) -> u64 {
        self.tally().counters[layer as usize]
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    fn histogram(&self, layer: Layer, name: &str) -> (u64, u64) {
        self.tally().histograms[layer as usize]
            .get(name)
            .copied()
            .unwrap_or((0, 0))
    }

    /// The per-layer metrics of a slice of `ops` traced ops.
    /// `overhead_pct` is the traced median op time over the untraced one,
    /// minus 1.
    pub(crate) fn metrics(&self, ops: usize, overhead_pct: f64) -> Vec<Metric> {
        let per_op = |v: f64| v / ops.max(1) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let self_ns = self.self_ns();
        let ns = |l: Layer| self_ns[l as usize] as f64;

        let events = self.counter(Layer::Campaign, "simnet.events") as f64;
        let (_, execute_ns) = self.histogram(Layer::Campaign, "campaign.execute");
        let steps = self.counter(Layer::Mvasd, "solver.steps") as f64;
        let cells = self.counter(Layer::Mvasd, "convolution.cells") as f64;
        let sweep = |name: &str| {
            (self.counter(Layer::SweepCold, name) + self.counter(Layer::SweepWarm, name)) as f64
        };
        let computed = sweep("sweep.steps_computed");
        let demanded = sweep("sweep.steps_demanded");

        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("campaign.ms", "ms", per_op(ns(Layer::Campaign)) / 1e6),
            m("simnet.events", "count", per_op(events)),
            m(
                "simnet.mevents_per_s",
                "Mevent/s",
                ratio(events, execute_ns as f64) * 1e3,
            ),
            m("profile.fit_us", "us", per_op(ns(Layer::Profile)) / 1e3),
            m("mvasd.ms", "ms", per_op(ns(Layer::Mvasd)) / 1e6),
            m("solver.steps", "count", per_op(steps)),
            m(
                "mvasd.us_per_step",
                "us",
                ratio(ns(Layer::Mvasd), steps) / 1e3,
            ),
            m("convolution.cells", "count", per_op(cells)),
            m(
                "conv.workspace.rebuild",
                "count",
                per_op(self.counter(Layer::Mvasd, "conv.workspace.rebuild") as f64),
            ),
            m(
                "conv.workspace.extend",
                "count",
                per_op(self.counter(Layer::Mvasd, "conv.workspace.extend") as f64),
            ),
            m("mvasd.ns_per_cell", "ns", ratio(ns(Layer::Mvasd), cells)),
            m("sweep.cold_ms", "ms", per_op(ns(Layer::SweepCold)) / 1e6),
            m("sweep.warm_ms", "ms", per_op(ns(Layer::SweepWarm)) / 1e6),
            m("sweep.steps_computed", "count", per_op(computed)),
            m(
                "sweep.memo_ratio",
                "ratio",
                if demanded > 0.0 {
                    1.0 - computed / demanded
                } else {
                    0.0
                },
            ),
            m(
                "sweep.cache_hits",
                "count",
                per_op(sweep("sweep.cache_hits")),
            ),
            m(
                "sweep.cache_misses",
                "count",
                per_op(sweep("sweep.cache_misses")),
            ),
            m("op.other_ms", "ms", per_op(ns(Layer::Op)) / 1e6),
            m("trace.overhead_pct", "%", overhead_pct),
        ]
    }
}
