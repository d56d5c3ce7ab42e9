//! Batched log-sum-exp convolution kernel: the O(n) inner loop of Buzen's
//! algorithm, restructured for autovectorization and `exp`-call pruning.
//!
//! One convolution cell is `c(n) = ln Σ_j exp(a(j) + b(n−j))`. The
//! historical implementation ([`scalar_reference`], kept verbatim as the
//! equivalence oracle) fuses max-tracking and accumulation into a single
//! serial pass whose running-maximum rescale makes every iteration depend
//! on the last — LLVM cannot vectorize it, and it calls libm `exp` once
//! per element no matter how negligible the term.
//!
//! [`conv_cell`] splits the cell into three data-parallel passes over a
//! scratch buffer ([`CellScratch`]):
//!
//! 1. **Add** — copy `b(0..=n)` reversed into `brev` so the sum is a pure
//!    elementwise `t[j] = a[j] + brev[j]` sweep (unit stride, FMA-able).
//! 2. **Max** — per-[`CHUNK`] block maxima with a 4-lane manually unrolled
//!    reduction (stable Rust, no `std::simd`, no `unsafe`), folded into
//!    the global maximum `m`. `−∞` needs no per-element branch: it simply
//!    never wins a `max`. NaN *would* be silently dropped by `f64::max`,
//!    so each block also keeps a running sum — any NaN summand poisons it
//!    — and a NaN block sum marks the block maximum NaN (see pass 3).
//! 3. **Exp + accumulate** — `acc += Σ exp(t[j] − m)`, 4-lane unrolled,
//!    visiting **only** blocks whose maximum reaches `m + `[`CUT`]. A
//!    skipped block contributes at most `CHUNK · e^CUT ≈ 1.8e-19` to an
//!    accumulator that is ≥ 1 (the maximum term itself is `e^0`), i.e.
//!    under `0.002 ulp` per block and under `eps/2` total for any `n ≤
//!    100 000 — far beyond any population this suite sweeps. Because
//!    log-domain convolution columns of queueing networks are sharply
//!    peaked (log-concave in `j`), most blocks prune, and with them the
//!    libm `exp` calls that dominate the scalar cell's runtime. A NaN
//!    block maximum fails `max < cut` and is therefore *never* pruned, so
//!    NaN poison always reaches the accumulator. `exp(−∞ − m) = 0`, so
//!    `−∞` entries inside kept blocks need no branch either.
//!
//! [`head_tail_cell`] is the short sibling for rate-table stations past
//! their saturation index: a fixed `C`-term window plus one carried
//! geometric-tail term, scalar, with the same pruning cut.
//!
//! ## Equivalence contract (property-tested against [`scalar_reference`])
//!
//! * All-`−∞` rows: bit-exact (`−∞`), and NaN anywhere yields NaN.
//! * Adversarial dynamic ranges (operands spread over hundreds of nats,
//!   `−∞` holes): within **2 ulp** at the dominant-term scale
//!   `max(|result|, |m|, 1)` — both algorithms are then dominated by a few
//!   terms and compute them identically.
//! * Flat rows (thousands of same-magnitude terms): within
//!   `(2 + √len) ulp` at the same scale. The allowance is the *oracle's*
//!   own summation noise: two correct reductions of `len` rounded terms
//!   legitimately drift apart by `O(√len · eps)`, and no fixed small bound
//!   can separate them. The kernel's 4-lane partial sums make it the more
//!   accurate side of that comparison.
//!
//! The dominant-term scale (rather than `|result|` alone) is deliberate:
//! when `m` and `ln acc` cancel, neither algorithm resolves the result
//! below the rounding of `m` itself, so measuring ulps at `|result|`
//! would demand precision the inputs do not carry.
//!
//! ## Extended-exponent cells
//!
//! The convolution workspace no longer runs on logarithms. Its columns
//! hold `Ext` values, an `f64` mantissa with its own `i64` binary
//! exponent, so a cell is `m·2^e` with a range no population reaches.
//! Buzen's recursion only ever multiplies and adds positive terms, so
//! each cell becomes a multiply-add with exponent alignment: the terms
//! of a sum are scaled to the largest exponent by `pow2`, which builds
//! `2^d` from bits, and the sum is renormalized once. No libm call is
//! left in a cell; `Ext::ln` is the one way back to a logarithm, and
//! `Ext::ratio` the one way to a linear `f64`.

use mvasd_obsv as obsv;

/// Pruning threshold in nats below the global maximum: blocks whose
/// maximum is under `m + CUT` are skipped in the exp pass. `e^{−46} ≈
/// 1.05e-20`; see the module docs for the resulting error budget.
pub const CUT: f64 = -46.0;

/// Elements per pruning block in passes 2 and 3. A multiple of the 4-lane
/// unroll; small enough that peaked columns prune most blocks, large
/// enough that the per-block bookkeeping stays negligible.
pub const CHUNK: usize = 16;

/// `ceil(n / d)` without `usize::div_ceil`, which postdates the workspace
/// MSRV (1.70).
#[inline]
const fn ceil_div(n: usize, d: usize) -> usize {
    (n + d - 1) / d
}

/// Reusable scratch for [`conv_cell`]: the reversed-`b` copy, the
/// elementwise sums, and the per-block maxima. Growth happens only in
/// [`ensure`](Self::ensure); a warm scratch allocates nothing per cell.
/// Cloning snapshots capacity (the contents are per-call transients).
#[derive(Debug, Clone, Default)]
pub struct CellScratch {
    brev: Vec<f64>,
    t: Vec<f64>,
    block_max: Vec<f64>,
}

impl CellScratch {
    /// An empty scratch; it grows on first use (or [`ensure`](Self::ensure)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the buffers for cells up to `len` elements, so later
    /// [`conv_cell`] calls up to that size allocate nothing.
    pub fn ensure(&mut self, len: usize) {
        if self.t.len() < len {
            self.brev.resize(len, 0.0);
            self.t.resize(len, 0.0);
            self.block_max.resize(ceil_div(len, CHUNK), 0.0);
        }
    }
}

/// One log-domain convolution cell
/// `c(n) = ln Σ_{j=0..=n} exp(a(j) + b(n−j))`, batched: reversed-stride
/// add, blocked 4-lane max, pruned 4-lane exp-accumulate (see the module
/// docs). `−∞`-safe, NaN-poison-preserving, and equivalent to
/// [`scalar_reference`] under the documented ulp contract.
// lint: no-alloc
pub fn conv_cell(a: &[f64], b: &[f64], n: usize, scratch: &mut CellScratch) -> f64 {
    let len = n + 1;
    scratch.ensure(len);
    let _span = if obsv::enabled() {
        Some(obsv::span("kernel.lse.batch"))
    } else {
        None
    };

    // Pass 1: t[j] = a[j] + b[n−j] as a unit-stride sweep over a reversed
    // copy of b.
    let brev = &mut scratch.brev[..len];
    brev.copy_from_slice(&b[..len]);
    brev.reverse();
    let t = &mut scratch.t[..len];
    for ((dst, &x), &y) in t.iter_mut().zip(&a[..len]).zip(brev.iter()) {
        *dst = x + y;
    }

    // Pass 2: blocked maxima. `f64::max` ignores NaN, so the block sum —
    // which any NaN summand poisons — stands in as the detector: a NaN
    // block records a NaN maximum.
    let t = &scratch.t[..len];
    let blocks = ceil_div(len, CHUNK);
    let block_max = &mut scratch.block_max[..blocks];
    for (bm, block) in block_max.iter_mut().zip(t.chunks(CHUNK)) {
        let (mut m0, mut m1, mut m2, mut m3) = (
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        let mut s = 0.0;
        let mut quads = block.chunks_exact(4);
        // lint: log-domain-ok four-lane pruned accumulation, re-entered via acc.ln() below
        for quad in quads.by_ref() {
            if let &[x0, x1, x2, x3] = quad {
                m0 = m0.max(x0);
                m1 = m1.max(x1);
                m2 = m2.max(x2);
                m3 = m3.max(x3);
                s += (x0 + x1) + (x2 + x3);
            }
        }
        for &x in quads.remainder() {
            m0 = m0.max(x);
            s += x;
        }
        let mx = m0.max(m1).max(m2).max(m3);
        *bm = if s.is_nan() { s } else { mx };
    }
    let mut m = f64::NEG_INFINITY;
    let mut poisoned = false;
    for &bm in block_max.iter() {
        if bm.is_nan() {
            poisoned = true;
        } else {
            m = m.max(bm);
        }
    }
    if m == f64::NEG_INFINITY {
        // All-−∞ row (exact), unless a NaN block was hiding in it.
        return if poisoned {
            f64::NAN
        } else {
            f64::NEG_INFINITY
        };
    }

    // Pass 3: accumulate exp(t − m) over blocks that can matter. The
    // comparison is written as `bm < cut → skip` so a NaN block maximum
    // (which fails every `<`) is always visited and poisons `acc`.
    let cut = m + CUT;
    let mut acc = 0.0;
    for (&bm, block) in block_max.iter().zip(t.chunks(CHUNK)) {
        if bm < cut {
            continue;
        }
        let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
        let mut quads = block.chunks_exact(4);
        // lint: log-domain-ok four-lane pruned accumulation, re-entered via acc.ln() below
        for quad in quads.by_ref() {
            if let &[x0, x1, x2, x3] = quad {
                a0 += (x0 - m).exp();
                a1 += (x1 - m).exp();
                a2 += (x2 - m).exp();
                a3 += (x3 - m).exp();
            }
        }
        let mut rest = 0.0;
        // lint: log-domain-ok pruned remainder lane, re-entered via acc.ln() below
        for &x in quads.remainder() {
            rest += (x - m).exp();
        }
        acc += ((a0 + a1) + (a2 + a3)) + rest;
    }
    m + acc.ln()
}

/// A rate-table cell past its head: the `width`-term window
/// `Σ_{j<width} exp(ln_f(j) + ln_a(n−j))` plus one carried geometric-tail
/// term `exp(ln_tail)`, in log domain (`n ≥ width − 1`). The maximum spans
/// the tail too, so once a station saturates and the tail dominates, every
/// head term more than [`CUT`] nats below it is skipped without an `exp`
/// call (the same error budget as [`conv_cell`]'s block pruning). `−∞`-safe
/// and NaN-poison-preserving.
// lint: no-alloc
#[inline]
pub fn head_tail_cell(ln_f: &[f64], ln_a: &[f64], n: usize, width: usize, ln_tail: f64) -> f64 {
    let mut m = ln_tail;
    let mut poisoned = ln_tail.is_nan();
    for j in 0..width {
        let t = ln_f[j] + ln_a[n - j];
        poisoned |= t.is_nan();
        if t > m {
            m = t;
        }
    }
    if poisoned {
        return f64::NAN;
    }
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let cut = m + CUT;
    let mut acc = 0.0;
    if ln_tail >= cut {
        acc += (ln_tail - m).exp();
    }
    for j in 0..width {
        let t = ln_f[j] + ln_a[n - j];
        if t >= cut {
            acc += (t - m).exp();
        }
    }
    m + acc.ln()
}

/// The original single-pass running-maximum cell, kept verbatim as the
/// equivalence oracle for [`conv_cell`] (and as the bench baseline): a
/// running maximum rescales the partial sum whenever a new peak appears,
/// so each operand pair is read exactly once — and every finite element
/// costs one serial libm `exp` call.
// lint: no-alloc
#[inline]
pub fn scalar_reference(a: &[f64], b: &[f64], n: usize) -> f64 {
    let mut m = f64::NEG_INFINITY;
    let mut acc = 0.0;
    for j in 0..=n {
        let t = a[j] + b[n - j];
        if t == f64::NEG_INFINITY {
            continue;
        }
        if t <= m {
            acc += (t - m).exp();
        } else {
            // First finite term lands here: 0 · e^{−∞} + 1 = 1.
            acc = acc * (m - t).exp() + 1.0;
            m = t;
        }
    }
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + acc.ln()
}

/// Log-sum-exp of two log-domain values, `−∞`-safe and subtraction-free
/// in the linear domain: `hi + ln(1 + exp(lo − hi))`. The `−∞` handling
/// is folded into the `(hi, lo)` select: after it, `hi = −∞` means both
/// operands are `−∞` (result `a + b = −∞`, or NaN if one was NaN —
/// poison preserved), and `lo = −∞` alone telescopes to `hi`.
// lint: no-alloc
#[inline]
pub fn lse2(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if hi == f64::NEG_INFINITY {
        return a + b;
    }
    if lo == f64::NEG_INFINITY {
        return hi;
    }
    hi + (lo - hi).exp().ln_1p()
}

/// Exponent field mask of an IEEE-754 `f64`.
const EXP_FIELD: u64 = 0x7ff << 52;

/// `2^64`, which lifts a subnormal mantissa into the normal range.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// `2^d` for an integer `d`, built from bits: `0` below `2^−1022` (a term
/// that far under the largest one cannot reach its last bit) and `+∞`
/// past `2^1023`.
#[inline]
pub(crate) fn pow2(d: i64) -> f64 {
    f64::from_bits(((d.clamp(-1023, 1024) + 1023) as u64) << 52)
}

/// A non-negative number `m · 2^e` with a 64-bit binary exponent: the
/// cell type of the convolution workspace.
///
/// A normalized value has `m ∈ [1, 2)`; zero is `m = 0` with the exponent
/// [`Ext::ZERO`] carries, far below any real one, so it loses every
/// exponent alignment. Sums and products may hold unnormalized mantissas
/// in between; [`Ext::norm`] restores the form exactly (it only moves
/// exponent bits). NaN mantissas pass through every operation unchanged
/// (a NaN times an aligned-away `0` is still NaN), so the workspace's NaN
/// poison still reaches its health probe.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ext {
    /// Mantissa.
    pub(crate) m: f64,
    /// Binary exponent.
    pub(crate) e: i64,
}

impl Ext {
    /// `1`.
    pub(crate) const ONE: Ext = Ext { m: 1.0, e: 0 };
    /// `0`. Its exponent stays far from `i64` overflow when added to
    /// itself or to any real exponent.
    pub(crate) const ZERO: Ext = Ext {
        m: 0.0,
        e: -(1 << 40),
    };
    /// A never-written cell: NaN poisons every sum that reads it.
    pub(crate) const POISON: Ext = Ext { m: f64::NAN, e: 0 };

    /// `m · 2^e` normalized to `m ∈ [1, 2)`. Zero maps to [`Ext::ZERO`];
    /// NaN and `∞` are kept as they are.
    #[inline]
    pub(crate) fn norm(m: f64, e: i64) -> Ext {
        let bits = m.to_bits();
        let field = ((bits & EXP_FIELD) >> 52) as i64;
        if field == 0 || field == 0x7ff {
            return Ext::norm_special(m, e);
        }
        Ext {
            m: f64::from_bits((bits & !EXP_FIELD) | 1.0f64.to_bits()),
            e: e + field - 1023,
        }
    }

    /// [`norm`](Self::norm) for zero, subnormal, infinite and NaN mantissas.
    #[cold]
    fn norm_special(m: f64, e: i64) -> Ext {
        if m.to_bits() << 1 == 0 {
            Ext::ZERO
        } else if m.is_finite() {
            Ext::norm(m * TWO_POW_64, e - 64)
        } else {
            Ext { m, e }
        }
    }

    /// Whether this is an exact zero.
    #[inline]
    pub(crate) fn is_zero(self) -> bool {
        self.m.to_bits() << 1 == 0
    }

    /// `self · k` for a linear factor `k`.
    #[inline]
    pub(crate) fn scale(self, k: f64) -> Ext {
        Ext::norm(self.m * k, self.e)
    }

    /// `self · o`.
    #[inline]
    pub(crate) fn mul(self, o: Ext) -> Ext {
        Ext::norm(self.m * o.m, self.e + o.e)
    }

    /// `self + o`, aligned to the larger exponent.
    #[inline]
    pub(crate) fn add(self, o: Ext) -> Ext {
        let (hi, lo) = if self.e >= o.e { (self, o) } else { (o, self) };
        Ext::norm(hi.m + lo.m * pow2(lo.e - hi.e), hi.e)
    }

    /// `self / o` as a linear `f64` (`0` below the normal range, `∞`
    /// above it).
    #[inline]
    pub(crate) fn ratio(self, o: Ext) -> f64 {
        let q = Ext::norm(self.m / o.m, self.e - o.e);
        q.m * pow2(q.e)
    }

    /// `ln(self)`: `−∞` for zero, NaN for poison.
    #[inline]
    pub(crate) fn ln(self) -> f64 {
        let ln_m = self.m.ln();
        ln_m + self.e as f64 * std::f64::consts::LN_2
    }
}

/// `extra + Σ_j x[j]·y[len−1−j]`: one convolution cell with `y` read
/// backwards, over extended values. The first pass finds the largest
/// product exponent, the second adds every product aligned to it on four
/// lanes, and the sum is normalized once. NaN-poison-preserving; zero
/// terms align to `0`.
// lint: no-alloc
#[inline]
pub(crate) fn dot_rev(x: &[Ext], y: &[Ext], extra: Ext) -> Ext {
    debug_assert_eq!(x.len(), y.len());
    let mut top = extra.e;
    for (a, b) in x.iter().zip(y.iter().rev()) {
        top = top.max(a.e + b.e);
    }
    let term = |a: &Ext, b: &Ext| a.m * b.m * pow2(a.e + b.e - top);
    let (mut s0, mut s1, mut s2, mut s3) = (extra.m * pow2(extra.e - top), 0.0, 0.0, 0.0);
    let (xs, ys) = (x.chunks_exact(4), y.rchunks_exact(4));
    let (x_rest, y_rest) = (xs.remainder(), ys.remainder());
    for (xq, yq) in xs.zip(ys) {
        if let (&[x0, x1, x2, x3], &[y3, y2, y1, y0]) = (xq, yq) {
            s0 += term(&x0, &y0);
            s1 += term(&x1, &y1);
            s2 += term(&x2, &y2);
            s3 += term(&x3, &y3);
        }
    }
    for (a, b) in x_rest.iter().zip(y_rest.iter().rev()) {
        s0 += term(a, b);
    }
    Ext::norm((s0 + s1) + (s2 + s3), top)
}

/// [`dot_rev`] with the integer weight `first + j` on term `j`:
/// `extra + Σ_j (first + j)·x[j]·y[len−1−j]`. The weights scale the
/// mantissas only, which stay far from overflow at any table length.
// lint: no-alloc
#[inline]
pub(crate) fn dot_rev_weighted(x: &[Ext], y: &[Ext], first: usize, extra: Ext) -> Ext {
    debug_assert_eq!(x.len(), y.len());
    let mut top = extra.e;
    for (a, b) in x.iter().zip(y.iter().rev()) {
        top = top.max(a.e + b.e);
    }
    let mut acc = extra.m * pow2(extra.e - top);
    for (j, (a, b)) in x.iter().zip(y.iter().rev()).enumerate() {
        acc += (first + j) as f64 * a.m * b.m * pow2(a.e + b.e - top);
    }
    Ext::norm(acc, top)
}

/// The multiclass slab fill for one class: residence times
/// `res[k] = dq[k] · (1 + q_prev[k]) + dd[k]` (arrival theorem over the
/// neighbor point's queues), returning their sequential sum. Extracted
/// from the multiclass workspace token-for-token — operation order and
/// the left-to-right sum are bit-identical to the scratch oracle's, which
/// the multiclass bitwise suites lock in place.
// lint: no-alloc
#[inline]
pub fn residence_fill(dq: &[f64], dd: &[f64], q_prev: &[f64], res: &mut [f64]) -> f64 {
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
    use super::*;
    use mvasd_numerics::propcheck::{check, Config, Gen};

    /// The dominant-term scale the equivalence contract measures ulps at.
    fn dominant_scale(result: f64, m: f64) -> f64 {
        result.abs().max(m.abs()).max(1.0)
    }

    /// Exact max of the cell's summands, computed with the same pairwise
    /// adds the kernel uses.
    fn true_max(a: &[f64], b: &[f64], n: usize) -> f64 {
        let mut m = f64::NEG_INFINITY;
        for j in 0..=n {
            let t = a[j] + b[n - j];
            if !t.is_nan() {
                m = m.max(t);
            }
        }
        m
    }

    fn assert_within_ulps(a: &[f64], b: &[f64], n: usize, ulps: f64, label: &str) {
        let mut scratch = CellScratch::new();
        let batched = conv_cell(a, b, n, &mut scratch);
        let scalar = scalar_reference(a, b, n);
        if scalar == f64::NEG_INFINITY {
            assert_eq!(batched.to_bits(), scalar.to_bits(), "{label}: all-−∞ row");
            return;
        }
        let scale = dominant_scale(scalar, true_max(a, b, n));
        let tol = ulps * scale * f64::EPSILON;
        assert!(
            (batched - scalar).abs() <= tol,
            "{label}: batched {batched:?} vs scalar {scalar:?} \
             (diff {:.3e}, tol {tol:.3e}, n={n})",
            (batched - scalar).abs()
        );
    }

    #[test]
    fn lse2_handles_neg_infinity_and_denormals() {
        assert_eq!(
            lse2(f64::NEG_INFINITY, f64::NEG_INFINITY),
            f64::NEG_INFINITY
        );
        assert_eq!(lse2(3.5, f64::NEG_INFINITY), 3.5);
        assert_eq!(lse2(f64::NEG_INFINITY, -2.25), -2.25);
        // Equal operands: hi + ln_1p(exp(0)) = hi + ln 2, exactly as the
        // unfolded version gave.
        assert_eq!(lse2(1.0, 1.0), 1.0 + 1.0f64.ln_1p());
        // Denormal inputs stay finite and ordered sensibly.
        let tiny = f64::from_bits(1); // smallest positive subnormal
        let v = lse2(tiny, 0.0);
        assert!((v - std::f64::consts::LN_2).abs() < 1e-15, "{v}");
        assert_eq!(lse2(tiny, f64::NEG_INFINITY), tiny);
        // One operand far below the other telescopes to the larger.
        assert_eq!(lse2(0.0, -800.0), 0.0);
        // NaN poison propagates through every branch.
        assert!(lse2(f64::NAN, 1.0).is_nan());
        assert!(lse2(1.0, f64::NAN).is_nan());
        assert!(lse2(f64::NAN, f64::NEG_INFINITY).is_nan());
        assert!(lse2(f64::NEG_INFINITY, f64::NAN).is_nan());
    }

    #[test]
    fn all_neg_infinity_rows_are_exact() {
        let a = vec![f64::NEG_INFINITY; 100];
        let b = vec![f64::NEG_INFINITY; 100];
        let mut scratch = CellScratch::new();
        for n in [0usize, 1, 3, 15, 16, 17, 63, 99] {
            let v = conv_cell(&a, &b, n, &mut scratch);
            assert_eq!(v.to_bits(), f64::NEG_INFINITY.to_bits(), "n={n}");
            assert_eq!(scalar_reference(&a, &b, n).to_bits(), v.to_bits());
        }
    }

    /// NaN must survive even when it lands in a block the pruning pass
    /// would otherwise skip, and when the rest of the row is all −∞.
    #[test]
    fn nan_poison_is_never_pruned_away() {
        let n = 200usize;
        // Steep ramp: only the last few blocks survive pruning.
        let mut a: Vec<f64> = (0..=n).map(|j| j as f64 * 5.0).collect();
        let b = vec![0.0; n + 1];
        let mut scratch = CellScratch::new();
        assert!(conv_cell(&a, &b, n, &mut scratch).is_finite());
        a[3] = f64::NAN; // deep inside the pruned region
        assert!(conv_cell(&a, &b, n, &mut scratch).is_nan());
        assert!(scalar_reference(&a, &b, n).is_nan());
        // NaN among otherwise all-−∞ entries.
        let mut c = vec![f64::NEG_INFINITY; 64];
        c[40] = f64::NAN;
        let d = vec![f64::NEG_INFINITY; 64];
        assert!(conv_cell(&c, &d, 63, &mut scratch).is_nan());
    }

    /// Adversarial dynamic ranges: operands spread over hundreds of nats
    /// with −∞ holes. The sum is dominated by a handful of terms, and the
    /// kernel must match the oracle to 2 ulp at the dominant-term scale.
    #[test]
    fn propcheck_matches_scalar_on_wide_dynamic_ranges() {
        check(
            "kernel_wide_dynamic_ranges",
            &Config::default().cases(64),
            |g: &mut Gen| {
                let n = g.usize_in(0, 400);
                let hole_pct = g.usize_in(0, 60);
                let gen_row = |g: &mut Gen| -> Vec<f64> {
                    (0..=n)
                        .map(|_| {
                            if g.usize_in(0, 99) < hole_pct {
                                f64::NEG_INFINITY
                            } else {
                                g.f64_in(-700.0, 700.0)
                            }
                        })
                        .collect()
                };
                let a = gen_row(g);
                let b = gen_row(g);
                assert_within_ulps(&a, &b, n, 2.0, "wide");
            },
        );
    }

    /// Flat and gently-sloped rows: thousands of comparable terms. Both
    /// reductions carry O(√len · eps) summation noise, so the equivalence
    /// allowance is (2 + √len) ulp — the oracle's own drift, not the
    /// kernel's (see the module docs).
    #[test]
    fn propcheck_matches_scalar_on_flat_and_ramped_rows() {
        check(
            "kernel_flat_and_ramped_rows",
            &Config::default().cases(48),
            |g: &mut Gen| {
                let n = g.usize_in(1, 1500);
                let base = g.f64_in(-50.0, 50.0);
                let spread = g.f64_in(0.0, 2.0);
                let slope = g.f64_in(-0.5, 0.5);
                let a: Vec<f64> = (0..=n)
                    .map(|j| base + slope * j as f64 + g.f64_in(0.0, spread))
                    .collect();
                let b: Vec<f64> = (0..=n).map(|_| g.f64_in(0.0, spread)).collect();
                let ulps = 2.0 + ((n + 1) as f64).sqrt();
                assert_within_ulps(&a, &b, n, ulps, "flat");
            },
        );
    }

    /// Sharply peaked columns (the realistic shape): pruning engages and
    /// the result still matches to 2 ulp, because the pruned tail is below
    /// the accumulator's last bit by construction.
    #[test]
    fn pruned_peaked_rows_match_to_2_ulp() {
        for n in [100usize, 500, 1500] {
            for slope in [0.5f64, 2.0, 7.0] {
                let a: Vec<f64> = (0..=n).map(|j| -(j as f64) * slope).collect();
                let b: Vec<f64> = (0..=n).map(|j| -(j as f64) * 0.9 * slope).collect();
                assert_within_ulps(&a, &b, n, 2.0, "peaked");
            }
        }
    }

    /// Head plus carried tail is the full cell split at `width`: it must
    /// match the oracle over the whole row to 2 ulp, prune nothing that
    /// matters, and keep the −∞ and NaN semantics of the full cell.
    #[test]
    fn head_tail_cell_matches_the_full_cell() {
        for (n, width, slope) in [(40usize, 1usize, 0.3f64), (200, 16, 0.05), (300, 64, 1.5)] {
            let f: Vec<f64> = (0..=n)
                .map(|j| -(j as f64) * slope - (j.min(width) as f64).ln_1p())
                .collect();
            let a: Vec<f64> = (0..=n).map(|j| -(j as f64) * 0.2 * slope).collect();
            let tail: Vec<f64> = (width..=n).map(|j| f[j] + a[n - j]).collect();
            let peak = tail.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let ln_tail = peak + tail.iter().map(|t| (t - peak).exp()).sum::<f64>().ln();
            let split = head_tail_cell(&f, &a, n, width, ln_tail);
            let full = scalar_reference(&f, &a, n);
            let tol = 2.0 * dominant_scale(full, true_max(&f, &a, n)) * f64::EPSILON;
            assert!(
                (split - full).abs() <= tol,
                "n={n} width={width}: {split} vs {full}"
            );
        }
        let ninf = vec![f64::NEG_INFINITY; 8];
        assert_eq!(
            head_tail_cell(&ninf, &ninf, 7, 4, f64::NEG_INFINITY),
            f64::NEG_INFINITY
        );
        let mut poisoned = ninf.clone();
        poisoned[2] = f64::NAN;
        assert!(head_tail_cell(&poisoned, &ninf, 7, 4, 0.0).is_nan());
        assert!(head_tail_cell(&ninf, &ninf, 7, 4, f64::NAN).is_nan());
    }

    fn lin(x: Ext) -> f64 {
        x.ratio(Ext::ONE)
    }

    /// Normalization moves exponent bits only; zero, subnormals, NaN and
    /// the `2^d` edges behave as documented.
    #[test]
    fn ext_normalization_and_pow2_edges() {
        for x in [1.0, 3.5, 0.1, 1e-300, 7.25e300] {
            let v = Ext::norm(x, 5);
            assert!((1.0..2.0).contains(&v.m), "{x}: mantissa {}", v.m);
            assert_eq!(v.ratio(Ext::norm(1.0, 5)).to_bits(), x.to_bits(), "{x}");
        }
        let sub = Ext::norm(f64::MIN_POSITIVE / 8.0, 0);
        assert_eq!((sub.m, sub.e), (1.0, -1025));
        assert!(Ext::norm(0.0, 7).is_zero());
        assert_eq!(Ext::norm(0.0, 7).e, Ext::ZERO.e);
        assert!(Ext::norm(f64::NAN, 3).m.is_nan());
        assert_eq!(pow2(0), 1.0);
        assert_eq!(pow2(-1022), f64::MIN_POSITIVE);
        assert_eq!(pow2(-1023), 0.0);
        assert_eq!(pow2(-(1 << 42)), 0.0);
        assert_eq!(pow2(1023), 2.0f64.powi(1023));
        assert_eq!(pow2(1024), f64::INFINITY);
    }

    #[test]
    fn ext_add_mul_scale_and_ln() {
        let three = Ext::norm(3.0, 0);
        assert_eq!(lin(three.add(Ext::norm(5.0, 0))), 8.0);
        assert_eq!(lin(three.mul(Ext::norm(0.5, 0))), 1.5);
        assert_eq!(lin(three.scale(0.25)), 0.75);
        // Zero is the additive identity and absorbs products.
        let same = Ext::ONE.add(Ext::ZERO);
        assert_eq!((same.m, same.e), (1.0, 0));
        assert!(Ext::ZERO.mul(Ext::ZERO).is_zero());
        assert!(Ext::ZERO.add(Ext::ZERO).is_zero());
        // A term 2000 binades down aligns to nothing, without underflow.
        let tiny = Ext { m: 1.5, e: -2000 };
        let sum = Ext::ONE.add(tiny);
        assert_eq!((sum.m, sum.e), (1.0, 0));
        // Far outside the f64 range in both directions.
        let big = Ext { m: 1.0, e: 5000 };
        assert!((big.ln() - 5000.0 * std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(big.ratio(Ext { m: 1.0, e: 4999 }), 2.0);
        assert_eq!(Ext::ZERO.ln(), f64::NEG_INFINITY);
        // NaN poison survives every operation.
        assert!(Ext::POISON.add(Ext::ONE).m.is_nan());
        assert!(Ext::ONE.add(Ext::POISON).m.is_nan());
        assert!(Ext::POISON.mul(Ext::ZERO).m.is_nan());
        assert!(Ext::POISON.ln().is_nan());
    }

    /// `dot_rev` pairs `x[j]` with `y[len−1−j]`, matches a plain `f64`
    /// sum where one exists, is exactly shift-invariant in the exponent,
    /// and keeps NaN poison.
    #[test]
    fn propcheck_dot_rev_matches_f64_and_shifts_exactly() {
        check(
            "ext_dot_rev",
            &Config::default().cases(64),
            |g: &mut Gen| {
                let len = g.usize_in(0, 40);
                let row = |g: &mut Gen| -> Vec<f64> {
                    (0..len)
                        .map(|_| {
                            if g.usize_in(0, 9) == 0 {
                                0.0
                            } else {
                                g.f64_in(1e-3, 1e3)
                            }
                        })
                        .collect()
                };
                let (xs, ys) = (row(g), row(g));
                let extra = g.f64_in(0.0, 10.0);
                let want: f64 = extra
                    + xs.iter()
                        .zip(ys.iter().rev())
                        .map(|(a, b)| a * b)
                        .sum::<f64>();
                let ext = |v: &[f64], e: i64| -> Vec<Ext> {
                    v.iter().map(|&x| Ext::norm(x, e)).collect()
                };
                let got = dot_rev(&ext(&xs, 0), &ext(&ys, 0), Ext::norm(extra, 0));
                let tol = 4.0 * (len + 2) as f64 * f64::EPSILON * want.max(f64::MIN_POSITIVE);
                assert!((lin(got) - want).abs() <= tol, "{} vs {want}", lin(got));
                let shift = g.usize_in(0, 4000) as i64 - 2000;
                let moved = dot_rev(&ext(&xs, shift), &ext(&ys, -shift), Ext::norm(extra, 0));
                assert_eq!(got.m.to_bits(), moved.m.to_bits());
                assert_eq!(got.e, moved.e);

                let first = g.usize_in(0, 20);
                let weighted: f64 = extra
                    + xs.iter()
                        .zip(ys.iter().rev())
                        .enumerate()
                        .map(|(j, (a, b))| (first + j) as f64 * a * b)
                        .sum::<f64>();
                let got_w =
                    dot_rev_weighted(&ext(&xs, 0), &ext(&ys, 0), first, Ext::norm(extra, 0));
                let tol_w = 4.0 * (len + 2) as f64 * f64::EPSILON * weighted.max(f64::MIN_POSITIVE);
                assert!((lin(got_w) - weighted).abs() <= tol_w);
            },
        );
        let mut poisoned = vec![Ext::ONE; 9];
        poisoned[4] = Ext::POISON;
        assert!(dot_rev(&poisoned, &[Ext::ONE; 9], Ext::ZERO).m.is_nan());
        assert!(dot_rev(&[Ext::ZERO; 5], &[Ext::ONE; 5], Ext::ZERO).is_zero());
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

    /// A warm scratch serves any smaller cell without touching capacity.
    #[test]
    fn scratch_reuse_across_cell_sizes() {
        let a: Vec<f64> = (0..=300).map(|j| -(j as f64) * 0.1).collect();
        let b: Vec<f64> = (0..=300).map(|j| -(j as f64) * 0.2).collect();
        let mut scratch = CellScratch::new();
        scratch.ensure(301);
        let full = conv_cell(&a, &b, 300, &mut scratch);
        for n in [0usize, 1, 15, 16, 300] {
            let v = conv_cell(&a, &b, n, &mut scratch);
            assert!(v.is_finite(), "n={n}");
            assert_eq!(scalar_reference(&a, &b, n).is_finite(), v.is_finite());
        }
        // Re-running the big cell after small ones is unaffected by stale
        // scratch contents.
        assert_eq!(
            conv_cell(&a, &b, 300, &mut scratch).to_bits(),
            full.to_bits()
        );
    }
}
