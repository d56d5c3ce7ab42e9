//! Calibrated timing: each timed piece of work is divided by what a fixed
//! probe took just before and just after it, on the same single thread,
//! so a slow phase of a shared box that slows the probe too cancels out.
//!
//! The probe is owned by this file and never changes with the program. It
//! times four kernels, each like some work of the program, with working
//! sets from L1 to beyond L2, because a neighbour on the box slows code
//! by how much it leans on the shared caches:
//!
//! * `heap_lse`, three times: 75 k pops and pushes on a 4096-entry
//!   `BinaryHeap`, then 75 log-sum-exp passes over a 2048-wide row;
//! * `big_heap`: 60 k pops and pushes on a 400 k-entry heap, 3.2 MB,
//!   refilled with the same keys before each probe;
//! * `conv_rows`: 798 log-sum-exp convolution cells over the rows of a
//!   400 × 400 matrix, 1.3 MB;
//! * `chase`: 200 k dependent loads around one random cycle, 8 MB.
//!
//! A probe's value is the geometric mean of the four times (≈12 ms, the
//! probe itself ≈60 ms). With the L1-only `heap_lse` alone, ops slowed
//! about twice as much as the probe in a slow phase, and ten seeded 25 s
//! runs per workload spread 3–10 % calibrated; with the four, 2–6 %.
//!
//! A probe runs before the first piece, before any piece that starts at
//! least `PROBE_EVERY_S` after the last probe, and after the last piece.
//! A piece's calibrated time is `raw × UNIT_REF_S / probe`, with `probe`
//! the mean of the probes just before and just after it.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Probe value on the reference box (a 2-core x86-64 VM): the unit
/// calibrated times are expressed in.
const UNIT_REF_S: f64 = 0.012;
/// Least time between the end of one probe and the start of the next.
const PROBE_EVERY_S: f64 = 1.0;
/// Entries of the `big_heap` kernel's heap and of the `chase` cycle, and
/// the side of the `conv_rows` matrix.
const BIG_HEAP: usize = 400_000;
const CHASE: usize = 1 << 21;
const CONV: usize = 400;
/// Seed of the `big_heap` kernel's keys.
const BIG_HEAP_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// xorshift64: the probe's own fixed key stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn heap_lse() -> f64 {
    let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
    let mut heap: BinaryHeap<u64> = (0..4096).map(|_| rng.next()).collect();
    let mut acc = 0u64;
    for _ in 0..75_000 {
        acc = acc.wrapping_add(heap.pop().unwrap_or(0));
        heap.push(rng.next() >> 1);
    }
    let mut row: Vec<f64> = (0..2048).map(|_| rng.uniform(-20.0, 20.0)).collect();
    let mut lse_sum = 0.0;
    for pass in 0..75 {
        let m = row.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let s: f64 = row.iter().map(|v| (v - m).exp()).sum();
        lse_sum += m + s.ln();
        if let Some(v) = row.get_mut(pass) {
            *v += 1e-3;
        }
    }
    lse_sum + acc as f64
}

/// `ln Σ_i exp(a[i] + b[len − 1 − i])`: one convolution cell.
fn conv_cell(a: &[f64], b: &[f64]) -> f64 {
    let terms = || a.iter().zip(b.iter().rev()).map(|(x, y)| x + y);
    let m = terms().fold(f64::NEG_INFINITY, f64::max);
    m + terms().map(|t| (t - m).exp()).sum::<f64>().ln()
}

/// The probe's kernels and their fixed buffers.
struct Kernels {
    big_heap: BinaryHeap<u64>,
    matrix: Vec<f64>,
    cycle: Vec<u32>,
}

impl Kernels {
    fn new() -> Self {
        let mut rng = XorShift(0x6A09_E667_F3BC_C908);
        let matrix = (0..CONV * CONV).map(|_| rng.uniform(-5.0, 5.0)).collect();
        // Sattolo's shuffle: a single cycle through every entry.
        let mut cycle: Vec<u32> = (0..CHASE as u32).collect();
        for i in (1..CHASE).rev() {
            cycle.swap(i, (rng.next() % i as u64) as usize);
        }
        Kernels {
            big_heap: BinaryHeap::with_capacity(BIG_HEAP),
            matrix,
            cycle,
        }
    }

    /// Bytes the buffers hold resident for the life of the process.
    fn resident_bytes(&self) -> usize {
        self.big_heap.capacity() * std::mem::size_of::<u64>()
            + self.matrix.capacity() * std::mem::size_of::<f64>()
            + self.cycle.capacity() * std::mem::size_of::<u32>()
    }

    /// Puts the `big_heap` kernel's starting keys back, in its buffer.
    fn refill_big_heap(&mut self) {
        let mut rng = XorShift(BIG_HEAP_SEED);
        self.big_heap.clear();
        self.big_heap.extend((0..BIG_HEAP).map(|_| rng.next()));
    }

    fn big_heap(&mut self) -> u64 {
        let mut rng = XorShift(!BIG_HEAP_SEED);
        let mut acc = 0u64;
        for _ in 0..60_000 {
            acc = acc.wrapping_add(self.big_heap.pop().unwrap_or(0));
            self.big_heap.push(rng.next() >> 1);
        }
        acc
    }

    fn conv_rows(&self) -> f64 {
        let row = |r: usize| &self.matrix[r * CONV..(r + 1) * CONV];
        (1..CONV)
            .map(|r| conv_cell(row(r), row(r - 1)) + conv_cell(row(r), row(CONV - r)))
            .sum()
    }

    fn chase(&self) -> u32 {
        let mut i = 0u32;
        for _ in 0..200_000 {
            i = self.cycle[i as usize];
        }
        i
    }

    /// The probe's value: the geometric mean of the four kernel times.
    fn probe(&mut self) -> f64 {
        fn timed(f: impl FnOnce()) -> f64 {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64().ln()
        }
        self.refill_big_heap();
        let ln_sum = timed(|| {
            for _ in 0..3 {
                black_box(heap_lse());
            }
        }) + timed(|| {
            black_box(self.big_heap());
        }) + timed(|| {
            black_box(self.conv_rows());
        }) + timed(|| {
            black_box(self.chase());
        });
        (ln_sum / 4.0).exp()
    }
}

/// A timed piece of work: its raw time and the probe that ran last
/// before it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Piece {
    pub(crate) raw_s: f64,
    before: usize,
}

/// Probes the machine between timed pieces of work.
pub(crate) struct Calibrator {
    kernels: Kernels,
    /// Every probe's value so far.
    probes: Vec<f64>,
    /// When the last probe ended.
    last_probe: Option<Instant>,
}

impl Calibrator {
    /// Builds the probe's buffers; call before any timed work.
    pub(crate) fn new() -> Self {
        Calibrator {
            kernels: Kernels::new(),
            probes: Vec::new(),
            last_probe: None,
        }
    }

    /// Bytes the probe keeps resident, which the process's peak RSS
    /// includes.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.kernels.resident_bytes()
    }

    fn probe(&mut self) {
        self.probes.push(self.kernels.probe());
        self.last_probe = Some(Instant::now());
    }

    /// Probes if due, then runs `f` as a timed piece.
    pub(crate) fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Piece) {
        let due = self
            .last_probe
            .map_or(true, |t| t.elapsed().as_secs_f64() >= PROBE_EVERY_S);
        if due {
            self.probe();
        }
        let before = self.probes.len() - 1;
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        (out, Piece { raw_s, before })
    }

    /// Runs the probe after the last piece; call once every piece is timed.
    pub(crate) fn finish(&mut self) {
        self.probe();
    }

    /// A piece's time in reference units, in seconds.
    pub(crate) fn calibrate(&self, piece: Piece) -> f64 {
        let around = &self.probes[piece.before..self.probes.len().min(piece.before + 2)];
        piece.raw_s * UNIT_REF_S * around.len() as f64 / around.iter().sum::<f64>()
    }

    /// Median probe of the run, in seconds.
    pub(crate) fn median_probe_s(&self) -> f64 {
        crate::percentile(&self.probes, 50.0)
    }
}
