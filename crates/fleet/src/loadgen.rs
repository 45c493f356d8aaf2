//! Seeded open-loop load generation in simulated cycles.
//!
//! Open-loop means arrival times are fixed up front, independent of how
//! fast the fleet serves: a slow or wedged enclave builds queue depth
//! (and eventually sheds load) instead of silently slowing the offered
//! rate, which is the regime where admission control and failover are
//! actually exercised. Two arrival processes are modeled:
//!
//! * **Poisson** — exponential inter-arrival times around a mean, the
//!   classic memoryless client population;
//! * **Bursty** — alternating burst/idle phases with deterministic
//!   spacing inside a burst, the pathological shape for queue bounds.
//!
//! Key skew for kvstore traffic reuses the YCSB generator
//! ([`KeyGenerator`]); spell traffic chunks a synthesized text. All
//! randomness flows from one seed, so a scenario is a pure function of
//! its configuration.

use autarky_prng::SimRng;
use autarky_workloads::request::Request;
use autarky_workloads::spell::synth_text;
use autarky_workloads::ycsb::{Distribution, KeyGenerator};

/// The arrival process shaping request timing.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Exponential inter-arrival times with this mean, in cycles.
    Poisson {
        /// Mean inter-arrival gap in simulated cycles.
        mean_gap_cycles: u64,
    },
    /// Bursts of closely spaced requests separated by idle gaps.
    Bursty {
        /// Gap between requests inside a burst, in cycles.
        burst_gap_cycles: u64,
        /// Requests per burst.
        burst_len: u32,
        /// Idle gap between bursts, in cycles.
        idle_gap_cycles: u64,
    },
}

/// One request stamped with its (open-loop) arrival time.
#[derive(Debug, Clone)]
pub struct TimedRequest {
    /// Simulated-cycle timestamp at which the request arrives.
    pub arrival_cycles: u64,
    /// The request itself.
    pub request: Request,
}

/// Configuration for one member's request stream.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// RNG seed (arrival jitter and key skew).
    pub seed: u64,
    /// Total requests to generate.
    pub requests: usize,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Cycle timestamp of the first arrival.
    pub start_cycles: u64,
}

fn arrival_times(cfg: &LoadConfig, rng: &mut SimRng) -> Vec<u64> {
    let mut at = cfg.start_cycles;
    let mut times = Vec::with_capacity(cfg.requests);
    match cfg.arrivals {
        Arrivals::Poisson { mean_gap_cycles } => {
            for _ in 0..cfg.requests {
                times.push(at);
                // Inverse-CDF exponential sample; 1-u keeps ln's argument
                // nonzero. Gaps are floored at one cycle so arrival order
                // is strict.
                let u = rng.gen_f64();
                let gap = (-(1.0 - u).ln() * mean_gap_cycles as f64) as u64;
                at += gap.max(1);
            }
        }
        Arrivals::Bursty {
            burst_gap_cycles,
            burst_len,
            idle_gap_cycles,
        } => {
            let burst_len = burst_len.max(1) as usize;
            for i in 0..cfg.requests {
                times.push(at);
                at += if (i + 1) % burst_len == 0 {
                    idle_gap_cycles.max(1)
                } else {
                    burst_gap_cycles.max(1)
                };
            }
        }
    }
    times
}

/// A GET-only kvstore stream over `items` preloaded keys with Zipfian
/// skew `theta` (read-only traffic keeps the host-side service index
/// static, which is what makes a mid-run snapshot restart resumable).
pub fn kv_stream(cfg: LoadConfig, items: u64, theta: f64) -> Vec<TimedRequest> {
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let mut keys = KeyGenerator::new(items, Distribution::Zipfian { theta }, cfg.seed ^ 0x5eed);
    arrival_times(&cfg, &mut rng)
        .into_iter()
        .map(|arrival_cycles| TimedRequest {
            arrival_cycles,
            request: Request::Get {
                key: keys.next_key(),
            },
        })
        .collect()
}

/// A spell-check stream against one dictionary: each request checks
/// `words_per_request` synthesized words (dictionary reads only).
pub fn spell_stream(
    cfg: LoadConfig,
    lang: &str,
    dict_words: usize,
    words_per_request: usize,
) -> Vec<TimedRequest> {
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let words_per_request = words_per_request.max(1);
    let text = synth_text(
        lang,
        dict_words,
        cfg.requests * words_per_request,
        cfg.seed ^ 0x7e97,
    );
    arrival_times(&cfg, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, arrival_cycles)| TimedRequest {
            arrival_cycles,
            request: Request::Check {
                lang: lang.to_owned(),
                text: text[i * words_per_request..(i + 1) * words_per_request].to_vec(),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(arrivals: Arrivals) -> LoadConfig {
        LoadConfig {
            seed: 42,
            requests: 200,
            arrivals,
            start_cycles: 1000,
        }
    }

    #[test]
    fn poisson_stream_is_seeded_and_monotonic() {
        let a = kv_stream(
            cfg(Arrivals::Poisson {
                mean_gap_cycles: 50_000,
            }),
            64,
            0.99,
        );
        let b = kv_stream(
            cfg(Arrivals::Poisson {
                mean_gap_cycles: 50_000,
            }),
            64,
            0.99,
        );
        assert_eq!(a.len(), 200);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_cycles, y.arrival_cycles, "same seed, same times");
            assert_eq!(x.request, y.request, "same seed, same keys");
        }
        assert!(a
            .windows(2)
            .all(|w| w[0].arrival_cycles < w[1].arrival_cycles));
    }

    #[test]
    fn bursty_stream_alternates_phases() {
        let s = kv_stream(
            cfg(Arrivals::Bursty {
                burst_gap_cycles: 10,
                burst_len: 5,
                idle_gap_cycles: 1_000_000,
            }),
            64,
            0.99,
        );
        // Gap after the 5th request of each burst is the idle gap.
        assert_eq!(s[5].arrival_cycles - s[4].arrival_cycles, 1_000_000);
        assert_eq!(s[1].arrival_cycles - s[0].arrival_cycles, 10);
    }

    #[test]
    fn zipfian_keys_are_skewed() {
        let s = kv_stream(
            cfg(Arrivals::Poisson {
                mean_gap_cycles: 1000,
            }),
            1024,
            0.99,
        );
        // The generator scrambles hot items across the keyspace, so
        // measure skew by the modal key's share: uniform over 1024 keys
        // would give each key ~0.2 of 200 draws; zipf(0.99) concentrates.
        let mut freq = autarky_prng::SimMap::default();
        for t in &s {
            if let Request::Get { key } = t.request {
                *freq.entry(key).or_insert(0u64) += 1;
            }
        }
        let modal = freq.values().copied().max().unwrap_or(0);
        assert!(
            modal >= 10,
            "zipf(0.99) concentrates on a hot key, modal share {modal}/200"
        );
    }

    #[test]
    fn spell_stream_chunks_text() {
        let s = spell_stream(
            cfg(Arrivals::Poisson {
                mean_gap_cycles: 1000,
            }),
            "en",
            300,
            8,
        );
        assert_eq!(s.len(), 200);
        assert!(s.iter().all(
            |t| matches!(&t.request, Request::Check { lang, text } if lang == "en" && text.len() == 8)
        ));
    }
}
