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
//! queue-weighted twin. No libm call is left in a cell; `Ext::ln` is the
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
}
