//! A small, dependency-free, deterministic PRNG for the simulator.
//!
//! Everything random in the reproduction — YCSB key draws, PathORAM leaf
//! assignment, fault-injection schedules, randomized tests — must be
//! seedable and bit-for-bit reproducible across platforms, because the
//! experiments (and the fault-injection determinism guarantee) assert
//! identical observation streams and cycle counts for identical seeds.
//! The standard library has no PRNG and external crates are unavailable
//! in the offline build, so this crate provides one: xoshiro256++ with a
//! SplitMix64 seeder (Blackman & Vigna's reference parameters).
//!
//! For the same reason it also hosts the one hasher the simulator's hash
//! maps use ([`SimMap`], [`SimSet`]): deterministic and cheap, where std's
//! default is randomly keyed SipHash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod map;

pub use map::{SimHasher, SimMap, SimSet};

/// A seedable xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed (SplitMix64 expansion, as
    /// the xoshiro authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform draw from `[0, bound)`. `bound` must be non-zero.
    /// Debiased via Lemire-style rejection.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "gen_below(0)");
        // Rejection zone keeps the draw exactly uniform.
        let zone = bound.wrapping_neg() % bound;
        loop {
            let v = self.next_u64();
            let (hi, lo) = widening_mul(v, bound);
            if lo >= zone || zone == 0 {
                return hi;
            }
        }
    }

    /// Uniform draw from a half-open `u64` range.
    pub fn gen_range(&mut self, range: core::ops::Range<u64>) -> u64 {
        debug_assert!(range.start < range.end, "empty range");
        range.start + self.gen_below(range.end - range.start)
    }

    /// Uniform draw from a half-open `usize` range.
    pub fn gen_range_usize(&mut self, range: core::ops::Range<usize>) -> usize {
        self.gen_range(range.start as u64..range.end as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` (53 bits of precision).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fill `buf` with uniform bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// A fresh generator split off this one (for independent substreams
    /// with a shared root seed).
    pub fn split(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }
}

/// Full 128-bit product of two 64-bit values, as `(high, low)`.
fn widening_mul(a: u64, b: u64) -> (u64, u64) {
    let wide = (a as u128) * (b as u128);
    ((wide >> 64) as u64, wide as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_below_is_in_range_and_covers() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values drawn");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = rng.gen_range(100..110);
            assert!((100..110).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((0.47..0.53).contains(&mean), "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SimRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2300..2700).contains(&hits), "hits {hits}");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn split_streams_are_independent() {
        let mut root = SimRng::seed_from_u64(6);
        let mut a = root.split();
        let mut b = root.split();
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
