//! Extended-exponent cell arithmetic: the O(n) inner loop of Buzen's
//! algorithm as the convolution workspace runs it.
//!
//! The workspace's columns hold [`Ext`] values, an `f64` mantissa with its
//! own `i64` binary exponent, so a cell is `m·2^e` with a range no
//! population reaches. Buzen's recursion only ever multiplies and adds
//! positive terms, so each cell becomes a multiply-add with exponent
//! alignment: the terms of a sum are scaled to the largest exponent by
//! [`pow2`], which builds `2^d` from bits, and the sum is renormalized
//! once. [`dot_rev`] is the convolution cell and [`dot_rev_weighted`] its
//! queue-weighted twin; [`point_sums`] takes a point evaluation's sums,
//! each bit for bit a `dot_rev`, in one pass over a shared column, and
//! [`scale_chain`] fills a factor column with one multiply per cell on
//! its critical path. No libm call is left in a cell; `Ext::ln` is the
//! one way back to a logarithm, and `Ext::ratio` the one way to a linear
//! `f64`.

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
    let (mut s0, mut s1, mut s2, mut s3) = (extra.m * pow2(extra.e - top), 0.0, 0.0, 0.0);
    let (xs, ys) = (x.chunks_exact(4), y.rchunks_exact(4));
    let (x_rest, y_rest) = (xs.remainder(), ys.remainder());
    for (xq, yq) in xs.zip(ys) {
        if let (&[x0, x1, x2, x3], &[y3, y2, y1, y0]) = (xq, yq) {
            s0 += term(x0, y0, top);
            s1 += term(x1, y1, top);
            s2 += term(x2, y2, top);
            s3 += term(x3, y3, top);
        }
    }
    for (&a, &b) in x_rest.iter().zip(y_rest.iter().rev()) {
        s0 += term(a, b, top);
    }
    finish([s0, s1, s2, s3], top)
}

/// One [`dot_rev`] term: `a·b` scaled to the sum's largest exponent `top`.
#[inline]
fn term(a: Ext, b: Ext, top: i64) -> f64 {
    a.m * b.m * pow2(a.e + b.e - top)
}

/// The four lanes of one sum, met as `(s0 + s1) + (s2 + s3)` at `top`.
#[inline]
fn finish([s0, s1, s2, s3]: [f64; 4], top: i64) -> Ext {
    Ext::norm((s0 + s1) + (s2 + s3), top)
}

/// Whether `x` is a normal number of magnitude in `[2^−500, 2^501)`: the
/// window of [`scale_chain`]. The product of two such numbers lies in
/// `[2^−1000, 2^1002)`, inside the normal range, so it rounds exactly as
/// the same product scaled by any power of two in that range does.
#[inline]
fn in_window(x: f64) -> bool {
    ((x.to_bits() >> 52) & 0x7ff).wrapping_sub(1023 - 500) <= 1000
}

/// Fills `col[from + i] = col[from + i − 1]·k_i` for the multipliers `k_i`
/// of `ks`, bit for bit what one [`Ext::scale`] per cell gives, without a
/// normalization on the chain's critical path. The chain carries the
/// unnormalized mantissa, one multiply per cell, and normalizes only the
/// stored cell. A power-of-two factor commutes with rounding while both
/// products stay normal, so the stored cells keep their bits. When the
/// carry or the multiplier leaves [`in_window`] (a carry that drifted far,
/// or a zero, NaN, near-subnormal or huge multiplier), the cell is the
/// per-cell [`Ext::scale`] of the stored cell before it, which restarts
/// the carry normalized.
// lint: no-alloc
#[inline]
pub(crate) fn scale_chain(col: &mut [Ext], from: usize, ks: impl IntoIterator<Item = f64>) {
    let mut prev = col[from - 1];
    let mut carry = prev;
    for (cell, k) in col[from..].iter_mut().zip(ks) {
        if in_window(carry.m) && in_window(k) {
            carry.m *= k;
        } else {
            carry = prev.scale(k);
        }
        prev = Ext::norm(carry.m, carry.e);
        *cell = prev;
    }
}

/// One light station's point sum `Σ_{j≤n} f(j)·h(n−j)` in a
/// [`point_sums`] pass: whether the pass takes it, its largest product
/// exponent and four lanes in flight, and the finished sum.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PointSum {
    /// Whether [`point_sums`] computes this sum.
    pub(crate) live: bool,
    top: i64,
    lanes: [f64; 4],
    /// The sum of the last pass that took it.
    pub(crate) sum: Ext,
}

impl PointSum {
    /// A sum no pass takes yet.
    pub(crate) const IDLE: PointSum = PointSum {
        live: false,
        top: 0,
        lanes: [0.0; 4],
        sum: Ext::ZERO,
    };
}

/// The point evaluation's sums at `n = f.len() − 1` over one shared factor
/// column `f`, in one max-exponent pass and one summing pass:
/// `G(n) = Σ_{j≤n} f(j)·p(n−j)` and `G(n − 1)` (returned in that order),
/// and for each live entry `r` of `light`, `Σ_{j≤n} f(j)·h_r(n−j)`, where
/// row `h_r` starts at `h[r·stride]`. Each sum equals [`dot_rev`] over the
/// same terms with `extra = 0`, bit for bit: the term `j` of a whole chunk
/// of four adds on lane `j mod 4`, every later term on lane 0, in
/// ascending `j`, and the lanes meet as `(s0 + s1) + (s2 + s3)` at the
/// largest product exponent. `G(n − 1)` has `n` terms and the others
/// `n + 1`, so their whole chunks end at `4⌊n/4⌋` and `4⌊(n + 1)/4⌋`.
// lint: no-alloc
pub(crate) fn point_sums(
    f: &[Ext],
    p: &[Ext],
    h: &[Ext],
    stride: usize,
    light: &mut [PointSum],
) -> (Ext, Ext) {
    let n = f.len() - 1;
    debug_assert!(n >= 1 && p.len() == n + 1);
    let (whole_gp, whole_g) = (n / 4 * 4, (n + 1) / 4 * 4);
    // `p(n − j0 − 4 ..= n − j0)` serves both `G(n)` and `G(n − 1)`.
    let quads = || {
        let pairs = f[..whole_gp].chunks_exact(4).zip(p[..n].rchunks_exact(4));
        (0..).step_by(4).zip(pairs)
    };

    let (mut top_g, mut top_gp) = (Ext::ZERO.e, Ext::ZERO.e);
    for s in light.iter_mut() {
        s.top = Ext::ZERO.e;
        s.lanes = [0.0; 4];
    }
    for (j0, (fq, pq)) in quads() {
        if let (&[f0, f1, f2, f3], &[p4, p3, p2, p1]) = (fq, pq) {
            let p0 = p[n - j0];
            top_g = top_g.max(max4([f0.e + p0.e, f1.e + p1.e, f2.e + p2.e, f3.e + p3.e]));
            top_gp = top_gp.max(max4([f0.e + p1.e, f1.e + p2.e, f2.e + p3.e, f3.e + p4.e]));
            for (at, s) in live(light, stride) {
                if let &[h3, h2, h1, h0] = &h[at + n - j0 - 3..=at + n - j0] {
                    let t = max4([f0.e + h0.e, f1.e + h1.e, f2.e + h2.e, f3.e + h3.e]);
                    s.top = s.top.max(t);
                }
            }
        }
    }
    for (j, a) in f.iter().enumerate().skip(whole_gp) {
        top_g = top_g.max(a.e + p[n - j].e);
        if j < n {
            top_gp = top_gp.max(a.e + p[n - 1 - j].e);
        }
        for (at, s) in live(light, stride) {
            s.top = s.top.max(a.e + h[at + n - j].e);
        }
    }

    let (mut g, mut gp) = ([0.0f64; 4], [0.0f64; 4]);
    for (j0, (fq, pq)) in quads() {
        if let (&[f0, f1, f2, f3], &[p4, p3, p2, p1]) = (fq, pq) {
            let fq = [f0, f1, f2, f3];
            add_quad(&mut g, fq, [p[n - j0], p1, p2, p3], top_g);
            add_quad(&mut gp, fq, [p1, p2, p3, p4], top_gp);
            for (at, s) in live(light, stride) {
                if let &[h3, h2, h1, h0] = &h[at + n - j0 - 3..=at + n - j0] {
                    add_quad(&mut s.lanes, fq, [h0, h1, h2, h3], s.top);
                }
            }
        }
    }
    // n ≡ 3 (mod 4): one more whole chunk for the sums of n + 1 terms.
    if whole_g > whole_gp {
        let j0 = whole_gp;
        if let (&[f0, f1, f2, f3], &[p3, p2, p1, p0]) = (&f[j0..=n], &p[..4]) {
            let fq = [f0, f1, f2, f3];
            add_quad(&mut g, fq, [p0, p1, p2, p3], top_g);
            for (at, s) in live(light, stride) {
                if let &[h3, h2, h1, h0] = &h[at..at + 4] {
                    add_quad(&mut s.lanes, fq, [h0, h1, h2, h3], s.top);
                }
            }
        }
    }
    let [g0, ..] = &mut g;
    for (j, &a) in f.iter().enumerate().skip(whole_g) {
        *g0 += term(a, p[n - j], top_g);
        for (at, s) in live(light, stride) {
            let [s0, ..] = &mut s.lanes;
            *s0 += term(a, h[at + n - j], s.top);
        }
    }
    let [gp0, ..] = &mut gp;
    for (j, &a) in f[..n].iter().enumerate().skip(whole_gp) {
        *gp0 += term(a, p[n - 1 - j], top_gp);
    }

    for s in light.iter_mut().filter(|s| s.live) {
        s.sum = finish(s.lanes, s.top);
    }
    (finish(g, top_g), finish(gp, top_gp))
}

/// The live light sums, each with the offset of its row.
#[inline(always)]
fn live(light: &mut [PointSum], stride: usize) -> impl Iterator<Item = (usize, &mut PointSum)> {
    let rows = light.iter_mut().enumerate();
    rows.filter(|(_, s)| s.live)
        .map(move |(r, s)| (r * stride, s))
}

/// The largest of four exponents.
#[inline(always)]
fn max4([a, b, c, d]: [i64; 4]) -> i64 {
    a.max(b).max(c.max(d))
}

/// Adds the four terms of one whole chunk `x(j0..j0 + 4)·y(n − j0 − l)`,
/// `l = 0..4`, each on its own lane.
#[inline(always)]
fn add_quad(lanes: &mut [f64; 4], x: [Ext; 4], y: [Ext; 4], top: i64) {
    for ((s, a), b) in lanes.iter_mut().zip(x).zip(y) {
        *s += term(a, b, top);
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use mvasd_numerics::propcheck::{check, Config, Gen};

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

    /// Mantissa and exponent bits of a cell.
    fn bits(x: Ext) -> (u64, i64) {
        (x.m.to_bits(), x.e)
    }

    /// The reference chain: one [`Ext::scale`] per cell.
    fn scaled_per_cell(start: Ext, ks: &[f64]) -> Vec<Ext> {
        let mut col = vec![start];
        for &k in ks {
            let prev = col[col.len() - 1];
            col.push(prev.scale(k));
        }
        col
    }

    /// `scale_chain` ≡ one `Ext::scale` per cell, bit for bit: carries that
    /// leave the window dozens of times over 1500–2000 cells (ratios 1e-3
    /// and 1e3, and an infinite-server `D/m` run from a tiny demand);
    /// multipliers outside the window (zero, subnormal, near-subnormal,
    /// near `f64::MAX`, `∞`) between normal ones; zero, NaN-poisoned and
    /// far-exponent starting cells; and a chain filled in three pieces.
    #[test]
    fn scale_chain_matches_one_scale_per_cell() {
        let odd = [
            0.0,
            5e-324,
            1e-310,
            1e-160,
            3.0e-151,
            1e151,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut runs: Vec<(&str, Ext, Vec<f64>)> = vec![
            ("ratio 1e-3", Ext::ONE, vec![1e-3; 2000]),
            ("ratio 1e3", Ext::ONE, vec![1e3; 1500]),
            (
                "tiny D/m",
                Ext::ONE,
                (1..=1600).map(|m| 3e-9 / m as f64).collect(),
            ),
            ("slow drift", Ext { m: 1.75, e: -7000 }, vec![0.9993; 1800]),
        ];
        for (j, &k) in odd.iter().enumerate() {
            let mut ks: Vec<f64> = (0..300).map(|m| 0.01 + (m % 7) as f64 * 0.13).collect();
            ks[40 + j] = k;
            ks[200] = k;
            runs.push(("odd multiplier", Ext::ONE, ks));
        }
        let mut poisoned = vec![0.5; 200];
        poisoned[77] = f64::NAN;
        runs.push(("NaN multiplier", Ext::ONE, poisoned));
        for start in [
            Ext::ZERO,
            Ext::POISON,
            Ext {
                m: 1.25,
                e: 1 << 35,
            },
        ] {
            runs.push(("special start", start, vec![0.02; 150]));
        }
        for (label, start, ks) in &runs {
            let want = scaled_per_cell(*start, ks);
            let mut got = vec![Ext::POISON; ks.len() + 1];
            got[0] = *start;
            // Three pieces: the carry restarts at each piece's first cell.
            let (a, b) = (ks.len() / 3, 2 * ks.len() / 3);
            scale_chain(&mut got, 1, ks[..a].iter().copied());
            scale_chain(&mut got, a + 1, ks[a..b].iter().copied());
            scale_chain(&mut got, b + 1, ks[b..].iter().copied());
            for (m, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(bits(*g), bits(*w), "{label}: cell {m}");
            }
        }
    }

    /// A random extended column: mostly normal cells, some exact zeros.
    /// The exponents spread over 2, 40 or 4000 binades; in the narrow
    /// columns many terms of a sum round together, so a term on the wrong
    /// lane shows in the last bits.
    fn random_column(g: &mut Gen, len: usize) -> Vec<Ext> {
        let spread = *g.choose(&[2usize, 40, 4000]);
        (0..len)
            .map(|_| {
                if g.usize_in(0, 11) == 0 {
                    Ext::ZERO
                } else {
                    let e = g.usize_in(0, spread) as i64 - (spread / 2) as i64;
                    Ext::norm(g.f64_in(1.0, 2.0), e)
                }
            })
            .collect()
    }

    /// `point_sums` ≡ separate `dot_rev` calls, bit for bit: `G(n)` and
    /// `G(n − 1)` over `p`, and each live light row, for every `n` from 1
    /// to 41 (so every residue mod 4, where the whole chunks of the `n` and
    /// `n + 1` term sums end apart or together), with zero, one and four
    /// light rows, one of the four idle; plus a NaN-poisoned factor cell.
    #[test]
    fn propcheck_point_sums_match_separate_dot_revs() {
        check(
            "point_sums_match_separate_dot_revs",
            &Config::default().cases(24),
            |g: &mut Gen| {
                for n in 1..=41 {
                    for rows in [0usize, 1, 4] {
                        let stride = n + 1 + g.usize_in(0, 5);
                        let f = random_column(g, n + 1);
                        let p = random_column(g, n + 1);
                        let h = random_column(g, rows * stride);
                        let mut light = vec![PointSum::IDLE; rows];
                        for (r, s) in light.iter_mut().enumerate() {
                            s.live = r != 2;
                        }
                        let (gn, gn1) = point_sums(&f, &p, &h, stride, &mut light);
                        assert_eq!(bits(gn), bits(dot_rev(&f, &p, Ext::ZERO)), "G({n})");
                        let want = dot_rev(&f[..n], &p[..n], Ext::ZERO);
                        assert_eq!(bits(gn1), bits(want), "G({n} - 1)");
                        for (r, s) in light.iter().enumerate() {
                            let want = if s.live {
                                dot_rev(&f, &h[r * stride..r * stride + n + 1], Ext::ZERO)
                            } else {
                                Ext::ZERO
                            };
                            assert_eq!(bits(s.sum), bits(want), "row {r} at n = {n}");
                        }
                    }
                }
            },
        );
        let mut f = vec![Ext::ONE; 10];
        f[6] = Ext::POISON;
        let mut light = [PointSum {
            live: true,
            ..PointSum::IDLE
        }];
        let (gn, gn1) = point_sums(&f, &[Ext::ONE; 10], &[Ext::ONE; 10], 10, &mut light);
        assert!(gn.m.is_nan() && gn1.m.is_nan() && light[0].sum.m.is_nan());
    }
}
