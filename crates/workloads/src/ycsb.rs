//! YCSB-style key generators (workload C = 100% GET) used by the
//! Memcached evaluation (paper §7.3, Figure 8): uniform, Zipfian with
//! α = 0.99, and hotspot distributions.

use autarky_prng::SimRng;

/// Request-key distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Every key equally likely.
    Uniform,
    /// YCSB Zipfian with the given exponent (0.99 in the paper; ~90% of
    /// requests hit ~10% of keys).
    Zipfian {
        /// The skew exponent α.
        theta: f64,
    },
    /// A hot set of `hot_frac` of the keys takes `hot_prob` of requests
    /// (paper: 1% of entries with 90% or 99% probability).
    Hotspot {
        /// Fraction of the keyspace that is hot.
        hot_frac: f64,
        /// Probability a request targets the hot set.
        hot_prob: f64,
    },
}

/// A seeded request-key generator over keys `0..n`.
pub struct KeyGenerator {
    n: u64,
    dist: Distribution,
    rng: SimRng,
    // Zipfian state (Gray et al.'s method, as in YCSB).
    zetan: f64,
    theta: f64,
    alpha: f64,
    eta: f64,
}

impl KeyGenerator {
    /// Create a generator for `n` keys under `dist`, seeded for
    /// reproducibility.
    pub fn new(n: u64, dist: Distribution, seed: u64) -> Self {
        let (zetan, theta, alpha, eta) = match dist {
            Distribution::Zipfian { theta } => {
                let zetan = zeta(n, theta);
                let zeta2 = zeta(2, theta);
                let alpha = 1.0 / (1.0 - theta);
                let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                (zetan, theta, alpha, eta)
            }
            _ => (0.0, 0.0, 0.0, 0.0),
        };
        Self {
            n,
            dist,
            rng: SimRng::seed_from_u64(seed),
            zetan,
            theta,
            alpha,
            eta,
        }
    }

    /// Keyspace size.
    pub fn keyspace(&self) -> u64 {
        self.n
    }

    /// Draw the next key.
    pub fn next_key(&mut self) -> u64 {
        match self.dist {
            Distribution::Uniform => self.rng.gen_range(0..self.n),
            Distribution::Zipfian { .. } => {
                let u: f64 = self.rng.gen_f64();
                let uz = u * self.zetan;
                if uz < 1.0 {
                    return 0;
                }
                if uz < 1.0 + 0.5f64.powf(self.theta) {
                    return 1;
                }
                let raw = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
                // Scatter ranks over the keyspace so the hot keys are not
                // physically adjacent (YCSB's hashed-Zipfian behaviour).
                crate::uthash::hash64(raw.min(self.n - 1)) % self.n
            }
            Distribution::Hotspot { hot_frac, hot_prob } => {
                let hot_n = ((self.n as f64 * hot_frac) as u64).max(1);
                if self.rng.gen_f64() < hot_prob {
                    self.rng.gen_range(0..hot_n)
                } else {
                    hot_n + self.rng.gen_range(0..self.n - hot_n)
                }
            }
        }
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Direct summation; n is at most a few hundred thousand in the
    // simulator, and the generator is built once per run.
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_prng::SimMap;

    fn histogram(generator: &mut KeyGenerator, samples: usize) -> SimMap<u64, u64> {
        let mut h = SimMap::default();
        for _ in 0..samples {
            *h.entry(generator.next_key()).or_insert(0) += 1;
        }
        h
    }

    #[test]
    fn uniform_covers_keyspace_evenly() {
        let mut g = KeyGenerator::new(100, Distribution::Uniform, 1);
        let h = histogram(&mut g, 100_000);
        assert!(h.len() > 95, "nearly all keys drawn");
        let max = *h.values().max().expect("nonempty");
        let min = *h.values().min().expect("nonempty");
        assert!(max < min * 2, "uniform spread: min {min}, max {max}");
    }

    #[test]
    fn zipfian_is_skewed() {
        let mut g = KeyGenerator::new(10_000, Distribution::Zipfian { theta: 0.99 }, 1);
        let h = histogram(&mut g, 100_000);
        let mut counts: Vec<u64> = h.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u64 = counts.iter().take(counts.len() / 10).sum();
        let total: u64 = counts.iter().sum();
        assert!(
            top_decile as f64 > total as f64 * 0.6,
            "top 10% of drawn keys should dominate, got {}",
            top_decile as f64 / total as f64
        );
    }

    #[test]
    fn zipfian_keys_in_range() {
        let mut g = KeyGenerator::new(1000, Distribution::Zipfian { theta: 0.99 }, 7);
        for _ in 0..10_000 {
            assert!(g.next_key() < 1000);
        }
    }

    #[test]
    fn hotspot_probability_respected() {
        let n = 10_000u64;
        let mut g = KeyGenerator::new(
            n,
            Distribution::Hotspot {
                hot_frac: 0.01,
                hot_prob: 0.9,
            },
            1,
        );
        let hot_n = 100u64;
        let mut hot_hits = 0u64;
        let samples = 100_000;
        for _ in 0..samples {
            if g.next_key() < hot_n {
                hot_hits += 1;
            }
        }
        let frac = hot_hits as f64 / samples as f64;
        assert!((0.88..0.92).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn seeded_generators_are_deterministic() {
        let mut a = KeyGenerator::new(100, Distribution::Zipfian { theta: 0.99 }, 9);
        let mut b = KeyGenerator::new(100, Distribution::Zipfian { theta: 0.99 }, 9);
        for _ in 0..100 {
            assert_eq!(a.next_key(), b.next_key());
        }
    }
}
