//! The engine's block-buffered variate stream.
//!
//! Every random draw of a run comes from one seeded `Xoshiro256pp`. A
//! refill draws a block of raw 64-bit words and, in the same loop, takes
//! the `ln` of each word's uniform `(w >> 11)·2⁻⁵³`. The `ln` calls do not
//! depend on one another, so the core overlaps them; on the event path a
//! draw only reads slots. The rules for taking slots are those of
//! `Xoshiro256pp::{exponential, uniform, normal}` word for word, and each
//! slot's `ln` is the same call on the same value, so a run draws exactly
//! the variates it drew from the bare generator (DESIGN §20):
//!
//! * an `open01` uniform takes slots until one whose uniform is nonzero;
//! * an exponential with a positive mean is `-mean · ln` of one `open01`
//!   slot, and a zero mean takes no slot;
//! * a uniform on `[lo, hi)` is one slot's uniform, zero allowed, and takes
//!   no slot when `hi <= lo`;
//! * a Box–Muller normal is the `ln` of one `open01` slot, then one slot's
//!   uniform.

use mvasd_numerics::rng::Xoshiro256pp;

/// Slots per refill. Against 64 slots on the 5-level VINS campaign, 16
/// ran 1.10× slower (faster in only 3 of 8 pairs) and 256 matched; 1024
/// against 256 was inconclusive (0.93× in 7 of 8 campaign pairs, 0.96× in
/// 4 of 6 pipeline pairs, then 1.03× in 3 of 8 `vins_workflow` pairs), so
/// the block stays at 4 KiB (DESIGN §20).
const BLOCK: usize = 256;

/// The uniform `[0, 1)` value of a raw word: its top 53 bits times 2⁻⁵³,
/// as `Xoshiro256pp::next_f64` computes it.
#[inline]
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded generator read through a block of pre-drawn words and their
/// logarithms.
pub(crate) struct VariateStream {
    rng: Xoshiro256pp,
    /// The block's raw words, in the order the generator produced them.
    words: [u64; BLOCK],
    /// `ln` of each word's uniform (`-∞` where the uniform is zero).
    ln: [f64; BLOCK],
    /// The next unused slot; `BLOCK` once the block is spent.
    next: usize,
}

impl VariateStream {
    /// A stream over the generator seeded with `seed`. No word is drawn
    /// until the first variate is.
    pub(crate) fn seed_from_u64(seed: u64) -> Self {
        Self {
            rng: Xoshiro256pp::seed_from_u64(seed),
            words: [0; BLOCK],
            ln: [0.0; BLOCK],
            next: BLOCK,
        }
    }

    /// Draws the next block and the `ln` of each of its uniforms.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        for (w, ln) in self.words.iter_mut().zip(self.ln.iter_mut()) {
            *w = self.rng.next_u64();
            *ln = unit(*w).ln();
        }
        self.next = 0;
    }

    /// Takes the next slot, refilling first if the block is spent.
    #[inline]
    fn slot(&mut self) -> usize {
        if self.next == BLOCK {
            self.refill();
        }
        let i = self.next;
        self.next += 1;
        i
    }

    /// The next slot's raw word, as `Xoshiro256pp::next_u64` would return it.
    #[inline]
    fn word(&mut self) -> u64 {
        let i = self.slot();
        self.words[i]
    }

    /// `ln` of the next `open01` uniform: skips slots whose uniform is zero.
    #[inline]
    fn ln_open01(&mut self) -> f64 {
        loop {
            let i = self.slot();
            if self.words[i] >> 11 != 0 {
                return self.ln[i];
            }
        }
    }

    /// Exponential variate with the given mean.
    #[inline]
    pub(crate) fn exponential(&mut self, mean: f64) -> f64 {
        // lint: float-eq-ok zero mean is an exact degenerate-input sentinel, not a computed value
        if mean == 0.0 {
            0.0
        } else {
            -mean * self.ln_open01()
        }
    }

    /// Uniform variate on `[lo, hi)` (`lo` if the interval is empty).
    #[inline]
    pub(crate) fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            lo
        } else {
            lo + (hi - lo) * unit(self.word())
        }
    }

    /// Box–Muller normal variate (one of the pair).
    pub(crate) fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let ln_u1 = self.ln_open01();
        let u2 = unit(self.word());
        let z = (-2.0 * ln_u1).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// A stream whose current block holds `words`, followed by `rng`.
    #[cfg(test)]
    fn over_block(words: [u64; BLOCK], rng: Xoshiro256pp) -> Self {
        Self {
            rng,
            words,
            ln: words.map(|w| unit(w).ln()),
            next: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Distribution;
    use mvasd_numerics::propcheck::{check, Config, Gen};

    /// The pre-stream `Distribution::sample`: every family drawn straight
    /// from the generator. The stream must reproduce it bit for bit.
    fn reference_sample(d: &Distribution, rng: &mut Xoshiro256pp) -> f64 {
        match d {
            Distribution::Exponential { mean } => rng.exponential(*mean),
            Distribution::Deterministic { value } => *value,
            Distribution::Erlang { k, mean } => {
                if *mean == 0.0 {
                    return 0.0;
                }
                let stage_mean = mean / *k as f64;
                (0..*k).map(|_| rng.exponential(stage_mean)).sum()
            }
            Distribution::Uniform { lo, hi } => rng.uniform(*lo, *hi),
            Distribution::NormalClamped { mean, std_dev } => rng.normal(*mean, *std_dev).max(0.0),
        }
    }

    /// A random member of any family, with the slot-free cases (zero
    /// means, `hi <= lo`) drawn often.
    fn any_distribution(g: &mut Gen) -> Distribution {
        let mean = if g.usize_in(0, 5) == 0 {
            0.0
        } else {
            g.f64_in(1e-4, 3.0)
        };
        match g.usize_in(0, 4) {
            0 => Distribution::Exponential { mean },
            1 => Distribution::Deterministic { value: mean },
            2 => Distribution::Erlang {
                k: g.usize_in(1, 5) as u32,
                mean,
            },
            3 => {
                let lo = g.f64_in(0.0, 2.0);
                let hi = match g.usize_in(0, 2) {
                    0 => lo,
                    1 => g.f64_in(0.0, lo),
                    _ => lo + g.f64_in(0.0, 2.0),
                };
                Distribution::Uniform { lo, hi }
            }
            _ => Distribution::NormalClamped {
                mean,
                std_dev: g.f64_in(0.0, 1.5),
            },
        }
    }

    #[test]
    fn stream_draws_equal_the_bare_generator_bit_for_bit() {
        check(
            "stream_draws_equal_the_bare_generator_bit_for_bit",
            &Config::default().cases(64),
            |g| {
                let seed = g.raw();
                let mix: Vec<Distribution> =
                    (0..g.usize_in(1, 8)).map(|_| any_distribution(g)).collect();
                let mut stream = VariateStream::seed_from_u64(seed);
                let mut rng = Xoshiro256pp::seed_from_u64(seed);
                let mut refills = 0;
                let mut draws = 0usize;
                // Three refills past the first block, unless the mix takes
                // no slot at all.
                while refills < 4 && draws < 64 * BLOCK {
                    let d = &mix[draws % mix.len()];
                    let before = stream.next;
                    let got = d.sample(&mut stream);
                    let want = reference_sample(d, &mut rng);
                    assert_eq!(got.to_bits(), want.to_bits(), "draw {draws} of {d:?}");
                    if stream.next < before {
                        refills += 1;
                    }
                    draws += 1;
                }
                assert_eq!(stream.word(), rng.next_u64(), "next raw word");
            },
        );
    }

    #[test]
    fn open01_skips_slots_whose_uniform_is_zero() {
        let rng = Xoshiro256pp::seed_from_u64(5);
        let mut block = [u64::MAX; BLOCK];
        // Zero top 53 bits: a zero uniform, whatever the low 11 bits hold.
        block[0] = 0;
        block[1] = 0x7ff;
        block[2] = 3 << 11;
        block[3] = 0x7ff;
        block[4] = 0;
        block[5] = 1 << 62;
        block[6] = 1 << 63;
        block[7] = 1 << 63;
        block[8] = 0x7ff;
        let mut s = VariateStream::over_block(block, rng.clone());
        // Two zero slots are skipped; the third is the draw.
        assert_eq!(s.exponential(2.0), -2.0 * unit(3 << 11).ln());
        // A uniform takes a zero slot as it is.
        assert_eq!(s.uniform(1.0, 3.0), 1.0);
        // A zero mean and an empty interval take no slot.
        assert_eq!(s.exponential(0.0), 0.0);
        assert_eq!(s.uniform(4.0, 4.0), 4.0);
        // A normal's `ln` skips a zero slot (u1 = 1/4, u2 = 1/2), while its
        // second uniform may be zero (u1 = 1/2, u2 = 0).
        let two_pi = 2.0 * std::f64::consts::PI;
        let z = (-2.0 * 0.25f64.ln()).sqrt() * (two_pi * 0.5).cos();
        assert_eq!(s.normal(1.0, 0.5), 1.0 + 0.5 * z);
        let z = (-2.0 * 0.5f64.ln()).sqrt() * (two_pi * 0.0).cos();
        assert_eq!(s.normal(1.0, 0.5), 1.0 + 0.5 * z);
        assert_eq!(s.next, 9);
        // The rest of the block, then the generator's words in order.
        for _ in 9..BLOCK {
            assert_eq!(s.word(), u64::MAX);
        }
        let mut rng = rng;
        for _ in 0..2 * BLOCK {
            assert_eq!(s.word(), rng.next_u64());
        }
    }
}
