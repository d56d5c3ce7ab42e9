//! The carried multiclass recursion workspace.
//!
//! The scratch oracle recomputes the whole population lattice per call; a
//! streaming sweep that re-ran it at every path step would pay
//! `Σ_t Π_c (n_c(t)+1)` lattice points — quadratic blow-up along the path.
//! [`MulticlassWorkspace`] instead carries the queue-length lattice `Q`
//! across steps, exactly like the single-class `ConvWorkspace` carries its
//! factor columns: [`advance`](MulticlassWorkspace::advance) on class `c`
//! computes only the *new slab* of lattice points exposed by that customer
//! (`m_c` equal to the new population, every other coordinate within the
//! already-filled box), so a full walk to `N⃗` costs exactly one lattice
//! solve in total — the `multiclass` bench records the resulting speedup.
//!
//! Layout follows the house flat-buffer style: the lattice is one
//! stride-indexed `Vec<f64>` of `K` queue lengths per point, sized once at
//! construction for the target population box and **NaN-poisoned** beyond
//! the filled region, so any indexing bug surfaces as a NaN in the first
//! touched output instead of a silently-wrong number. Each point's
//! arithmetic is token-for-token the scratch oracle's, so the filled
//! lattice — and every derived output — is bit-identical to a fresh
//! [`super::multiclass_mva`] call at the same population vector (asserted
//! below and in `tests/properties.rs`).
//!
//! The steady state allocates nothing: every buffer (lattice, per-class
//! scratch, per-step outputs) is pre-sized in [`MulticlassWorkspace::new`],
//! and [`advance`](MulticlassWorkspace::advance) runs under the L4
//! `no-alloc` lint contract with a counting-allocator proof in
//! `tests/alloc_steady_state.rs`.

use crate::QueueingError;
use mvasd_obsv as obsv;

use super::{lattice_dims, lattice_size, lattice_strides, split_demands, StepOutputs, Workload};

/// Carried state of the streaming multiclass recursion: the queue-length
/// lattice over the already-admitted population box, plus pre-sized
/// scratch and output buffers.
#[derive(Debug, Clone)]
pub struct MulticlassWorkspace {
    k_count: usize,
    nclasses: usize,
    /// Lattice dimensions `N_c + 1` (targets fixed at construction).
    dims: Vec<usize>,
    strides: Vec<usize>,
    /// Per-class think times `Z_c`.
    think: Vec<f64>,
    /// Seidmann queueing parts, flat `c * K + k`.
    dq: Vec<f64>,
    /// Seidmann delay parts, flat `c * K + k`.
    dd: Vec<f64>,
    /// Raw demands, flat `c * K + k` (utilization numerators).
    demands: Vec<f64>,
    /// Per-station utilization divisor: server count, or 1 for delay.
    util_div: Vec<f64>,
    /// `Q[idx * K + k]`, queueing parts only (the Seidmann delay parts stay
    /// out of the Arrival Theorem, exactly as in the scratch oracle); NaN
    /// outside the filled box.
    q: Vec<f64>,
    /// Current per-class populations (the filled box is `m⃗ ≤ pops`).
    pops: Vec<usize>,
    total: usize,
    /// Slab walk counter (mixed-radix over the non-advancing classes).
    walk: Vec<usize>,
    /// Per-class throughputs at the current box corner.
    xs: Vec<f64>,
    /// Per-class responses at the current box corner.
    rs: Vec<f64>,
    /// Per-class per-station residences at the corner, flat `c * K + k`.
    res: Vec<f64>,
    /// Total queue per station at the corner.
    out_q: Vec<f64>,
    /// Per-class queue per station at the corner, flat `c * K + k`.
    out_cq: Vec<f64>,
    /// Total utilization per station at the corner.
    out_util: Vec<f64>,
}

impl MulticlassWorkspace {
    /// Sizes the workspace for the workload's full population box and
    /// fills the origin (empty network). The lattice is allocated once,
    /// here; it is the same `O(K · Π (N_c + 1))` memory the scratch oracle
    /// allocates per call.
    pub fn new(workload: &Workload) -> Result<Self, QueueingError> {
        let classes = workload.classes();
        let kinds = workload.station_kinds();
        let k_count = kinds.len();
        let nclasses = classes.len();
        let (dq, dd) = split_demands(classes, kinds);
        let dims = lattice_dims(classes);
        let lattice = lattice_size(&dims)?;
        let strides = lattice_strides(&dims);
        let mut q = vec![f64::NAN; lattice * k_count];
        for cell in q.iter_mut().take(k_count) {
            *cell = 0.0;
        }
        let demands = classes
            .iter()
            .flat_map(|c| c.demands.iter().copied())
            .collect();
        let util_div = kinds
            .iter()
            .map(|kind| kind.server_count().unwrap_or(1) as f64)
            .collect();
        Ok(Self {
            k_count,
            nclasses,
            dims,
            strides,
            think: classes.iter().map(|c| c.think_time).collect(),
            dq,
            dd,
            demands,
            util_div,
            q,
            pops: vec![0; nclasses],
            total: 0,
            walk: vec![0; nclasses],
            xs: vec![0.0; nclasses],
            rs: vec![0.0; nclasses],
            res: vec![0.0; nclasses * k_count],
            out_q: vec![0.0; k_count],
            out_cq: vec![0.0; nclasses * k_count],
            out_util: vec![0.0; k_count],
        })
    }

    /// Current per-class populations.
    pub fn populations(&self) -> &[usize] {
        &self.pops
    }

    /// Total admitted population `Σ_c n_c`.
    pub fn total_population(&self) -> usize {
        self.total
    }

    /// Per-class throughputs `X_c` at the current population vector.
    pub fn class_throughputs(&self) -> &[f64] {
        &self.xs
    }

    /// Per-class responses `R_c` (excluding think) at the current vector.
    pub fn class_responses(&self) -> &[f64] {
        &self.rs
    }

    /// Total mean queue length per station at the current vector.
    pub fn station_queues(&self) -> &[f64] {
        &self.out_q
    }

    /// Per-class per-station mean queue lengths, flat `c * K + k`.
    pub fn class_station_queues(&self) -> &[f64] {
        &self.out_cq
    }

    /// Per-station total utilization at the current vector.
    pub fn station_utilizations(&self) -> &[f64] {
        &self.out_util
    }

    /// Borrowed per-step outputs for the point assemblers.
    pub(crate) fn step_outputs(&self) -> StepOutputs<'_> {
        StepOutputs {
            populations: &self.pops,
            xs: &self.xs,
            rs: &self.rs,
            res: &self.res,
            queues: &self.out_q,
            class_queues: &self.out_cq,
            utilizations: &self.out_util,
            think: &self.think,
        }
    }

    /// Admits one customer of `class`, filling the newly exposed lattice
    /// slab (`m_class` at the new population, all other coordinates within
    /// the current box) and refreshing the corner outputs. Cost is
    /// `O(K · C · Π_{c≠class} (n_c + 1))`; summed over a full walk this
    /// telescopes to exactly one full-lattice solve.
    // lint: no-alloc
    pub fn advance(&mut self, class: usize) -> Result<(), QueueingError> {
        if class >= self.nclasses {
            return Err(QueueingError::InvalidParameter {
                what: "class index out of range",
            });
        }
        if self.pops[class] + 1 >= self.dims[class] {
            return Err(QueueingError::InvalidParameter {
                what: "class population already at its target",
            });
        }
        self.pops[class] += 1;
        self.total += 1;
        let k_count = self.k_count;
        let nc = self.nclasses;

        // Walk the slab in lexicographic index order (class 0 fastest),
        // with the advancing class pinned at its new population. Within
        // the slab every `m⃗ − e_c` either sits earlier in this walk
        // (c ≠ class) or inside the previously filled box (c = class), so
        // each read hits a computed cell — never NaN poison.
        for w in self.walk.iter_mut() {
            *w = 0;
        }
        self.walk[class] = self.pops[class];
        loop {
            let mut idx = 0usize;
            for c in 0..nc {
                idx += self.walk[c] * self.strides[c];
            }
            // Point arithmetic: token-for-token the scratch oracle's, so
            // the filled lattice stays bit-identical to a fresh solve.
            for ci in 0..nc {
                self.xs[ci] = 0.0;
                self.rs[ci] = 0.0;
            }
            for ci in 0..nc {
                if self.walk[ci] == 0 {
                    continue;
                }
                let prev_idx = idx - self.strides[ci];
                // Arrival theorem over the neighbor point's queues, in the
                // oracle's op order bit-for-bit.
                let r_c = residence_fill(
                    &self.dq[ci * k_count..(ci + 1) * k_count],
                    &self.dd[ci * k_count..(ci + 1) * k_count],
                    &self.q[prev_idx * k_count..(prev_idx + 1) * k_count],
                    &mut self.res[ci * k_count..(ci + 1) * k_count],
                );
                self.rs[ci] = r_c;
                self.xs[ci] = self.walk[ci] as f64 / (r_c + self.think[ci]);
            }
            for k in 0..k_count {
                let mut qk = 0.0;
                for ci in 0..nc {
                    if self.walk[ci] == 0 {
                        continue;
                    }
                    let prev_idx = idx - self.strides[ci];
                    let q_prev = self.q[prev_idx * k_count + k];
                    qk += self.xs[ci] * (self.dq[ci * k_count + k] * (1.0 + q_prev));
                }
                self.q[idx * k_count + k] = qk;
            }
            // Mixed-radix increment over the non-pinned classes; the walk
            // ends at the box corner `m⃗ = pops`, so the scratch buffers
            // hold corner values when the loop exits.
            let mut done = true;
            for c in 0..nc {
                if c == class {
                    continue;
                }
                if self.walk[c] < self.pops[c] {
                    self.walk[c] += 1;
                    for lower in 0..c {
                        if lower != class {
                            self.walk[lower] = 0;
                        }
                    }
                    done = false;
                    break;
                }
            }
            if done {
                break;
            }
        }

        // Corner outputs: totals, per-class queues, utilizations.
        let mut corner = 0usize;
        for c in 0..nc {
            corner += self.pops[c] * self.strides[c];
        }
        for k in 0..k_count {
            // Reported queues add back the delay-part customers, mirroring
            // the scratch oracle token-for-token.
            let mut delay = 0.0;
            for ci in 0..nc {
                delay += self.xs[ci] * self.dd[ci * k_count + k];
            }
            self.out_q[k] = self.q[corner * k_count + k] + delay;
            let mut total = 0.0;
            for ci in 0..nc {
                self.out_cq[ci * k_count + k] = if self.pops[ci] == 0 {
                    0.0
                } else {
                    self.xs[ci] * self.res[ci * k_count + k]
                };
                total += self.xs[ci] * self.demands[ci * k_count + k];
            }
            self.out_util[k] = total / self.util_div[k];
        }
        if obsv::enabled() {
            obsv::counter("multiclass.slab_points", self.slab_points(class) as u64);
        }
        Ok(())
    }

    /// Lattice points the last `advance(class)` filled.
    fn slab_points(&self, class: usize) -> usize {
        let mut points = 1usize;
        for c in 0..self.nclasses {
            if c != class {
                points *= self.pops[c] + 1;
            }
        }
        points
    }
}

/// The slab fill for one class: residence times
/// `res[k] = dq[k] · (1 + q_prev[k]) + dd[k]` (arrival theorem over the
/// neighbor point's queues), returning their sequential sum. Operation
/// order and the left-to-right sum are bit-identical to the scratch
/// oracle's, which the multiclass bitwise suites lock in place.
// lint: no-alloc
#[inline]
fn residence_fill(dq: &[f64], dd: &[f64], q_prev: &[f64], res: &mut [f64]) -> f64 {
    let mut r_c = 0.0;
    for (((r, &dqk), &ddk), &qk) in res.iter_mut().zip(dq).zip(dd).zip(q_prev) {
        let v = dqk * (1.0 + qk) + ddk;
        *r = v;
        r_c += v;
    }
    r_c
}

#[cfg(test)]
mod tests {
    use super::super::{multiclass_mva, ClassSpec, Workload};
    use super::*;
    use crate::network::StationKind;

    fn mix() -> Workload {
        Workload::new(
            vec!["cpu".into(), "disk".into(), "lan".into()],
            vec![
                StationKind::Queueing { servers: 4 },
                StationKind::Queueing { servers: 1 },
                StationKind::Delay,
            ],
            vec![
                ClassSpec {
                    name: "renew".into(),
                    population: 5,
                    think_time: 1.0,
                    demands: vec![0.020, 0.012, 0.004],
                },
                ClassSpec {
                    name: "browse".into(),
                    population: 4,
                    think_time: 2.0,
                    demands: vec![0.006, 0.002, 0.004],
                },
                ClassSpec {
                    name: "api".into(),
                    population: 3,
                    think_time: 0.1,
                    demands: vec![0.010, 0.001, 0.001],
                },
            ],
        )
        .expect("valid mix")
    }

    #[test]
    fn full_walk_matches_scratch_bitwise() {
        let w = mix();
        let mut ws = MulticlassWorkspace::new(&w).expect("workspace");
        for class in w.proportional_path() {
            ws.advance(class).expect("advance");
        }
        let oracle = multiclass_mva(w.classes(), w.station_kinds()).expect("oracle");
        for (ci, m) in oracle.classes.iter().enumerate() {
            assert_eq!(m.throughput.to_bits(), ws.class_throughputs()[ci].to_bits());
            assert_eq!(m.response.to_bits(), ws.class_responses()[ci].to_bits());
        }
        for (a, b) in oracle.station_queues.iter().zip(ws.station_queues()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in oracle
            .station_utilizations
            .iter()
            .zip(ws.station_utilizations())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn any_admission_order_reaches_the_same_corner() {
        let w = mix();
        let mut a = MulticlassWorkspace::new(&w).expect("workspace");
        for class in w.proportional_path() {
            a.advance(class).expect("advance");
        }
        // Class-by-class order instead of interleaved.
        let mut b = MulticlassWorkspace::new(&w).expect("workspace");
        for (c, spec) in w.classes().iter().enumerate() {
            for _ in 0..spec.population {
                b.advance(c).expect("advance");
            }
        }
        for (x, y) in a.class_throughputs().iter().zip(b.class_throughputs()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.station_queues().iter().zip(b.station_queues()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn outputs_stay_finite_and_poison_never_leaks() {
        let w = mix();
        let mut ws = MulticlassWorkspace::new(&w).expect("workspace");
        for class in w.proportional_path() {
            ws.advance(class).expect("advance");
            for x in ws.class_throughputs() {
                assert!(x.is_finite());
            }
            for q in ws.station_queues() {
                assert!(q.is_finite());
            }
            for u in ws.station_utilizations() {
                assert!(u.is_finite());
            }
        }
    }

    #[test]
    fn rejects_overfull_and_unknown_classes() {
        let w = mix();
        let mut ws = MulticlassWorkspace::new(&w).expect("workspace");
        assert!(ws.advance(99).is_err());
        for _ in 0..5 {
            ws.advance(0).expect("within target");
        }
        assert!(ws.advance(0).is_err());
    }

    #[test]
    fn residence_fill_is_bit_identical_to_the_inline_loop() {
        let k = 7usize;
        let dq: Vec<f64> = (0..k).map(|i| 0.013 * (i as f64 + 1.0)).collect();
        let dd: Vec<f64> = (0..k).map(|i| 0.002 * (i as f64)).collect();
        let q_prev: Vec<f64> = (0..k).map(|i| 1.7 / (i as f64 + 1.0)).collect();
        let mut res = vec![0.0; k];
        let sum = residence_fill(&dq, &dd, &q_prev, &mut res);
        let mut want = vec![0.0; k];
        let mut want_sum = 0.0;
        for i in 0..k {
            let r = dq[i] * (1.0 + q_prev[i]) + dd[i];
            want[i] = r;
            want_sum += r;
        }
        assert_eq!(sum.to_bits(), want_sum.to_bits());
        for i in 0..k {
            assert_eq!(res[i].to_bits(), want[i].to_bits());
        }
    }
}
