//! `spell`: Hunspell-style dictionary lookups under a self-paging
//! budget (paper Table 2). The fault path is the hot path here: the
//! dictionary is three times the resident budget, so a skewed word
//! stream still faults about 2.8 times per word.
//!
//! One op is a request to check a short line of [`WORDS_PER_REQUEST`]
//! words. Under FIFO eviction, consecutive lookups alternate between
//! finding the bucket-array cluster resident and refetching it, so
//! single-word latencies split almost exactly in half between two
//! levels and their median flips between them from seed to seed; an
//! even number of words per request holds one of each.

use std::collections::HashSet;

use autarky::{Profile, SystemBuilder};
use autarky_prng::SimRng;
use autarky_workloads::spell::{synth_wordlist, Dictionary};
use autarky_workloads::ycsb::{Distribution, KeyGenerator};
use autarky_workloads::{EncHeap, World};

use super::{stream_seed, Session, Shape};

/// 60 warm-up requests (240 words) fill the budget; 1,000 are measured.
/// 10% of words are seeded misspellings that must be rejected.
pub const SHAPE: Shape = Shape {
    op: "spell.check_line",
    warmup: 60,
    measured: 1_000,
    mix: 0.10,
};

/// Words checked per request.
pub const WORDS_PER_REQUEST: usize = 4;

/// Dictionary size: 73 pages of nodes against a 24-page budget.
pub const DICT_WORDS: usize = 6_000;
/// Resident-page budget while serving.
pub const BUDGET_PAGES: usize = 24;
/// Automatic data-cluster size.
pub const CLUSTER_PAGES: usize = 10;
/// Zipf skew of the word stream.
pub const THETA: f64 = 0.99;

/// The spell workload's world and inputs.
pub struct Spell {
    world: World,
    heap: EncHeap,
    dict: Dictionary,
    queries: Vec<(String, bool)>,
}

/// `count` seeded queries: Zipf-ranked dictionary words, a `mix`
/// fraction replaced by one-letter misspellings that are not in the
/// dictionary. Each query carries its expected verdict.
pub fn queries(seed: u64, count: usize, mix: f64) -> Vec<(String, bool)> {
    let words = synth_wordlist("en", DICT_WORDS);
    let known: HashSet<&str> = words.iter().map(String::as_str).collect();
    let mut ranks = KeyGenerator::new(
        DICT_WORDS as u64,
        Distribution::Zipfian { theta: THETA },
        stream_seed(seed, 1),
    );
    let mut rng = SimRng::seed_from_u64(stream_seed(seed, 2));
    (0..count)
        .map(|_| {
            let word = &words[ranks.next_key() as usize];
            if !rng.gen_bool(mix) {
                return (word.clone(), true);
            }
            loop {
                let mut bytes = word.clone().into_bytes();
                let at = rng.gen_range_usize(0..bytes.len());
                bytes[at] = b'a' + rng.gen_below(26) as u8;
                let typo = String::from_utf8(bytes).expect("ASCII word");
                if !known.contains(typo.as_str()) {
                    return (typo, false);
                }
            }
        })
        .collect()
}

impl Spell {
    /// Generate the queries, build the enclave and load the dictionary.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let words = (SHAPE.warmup + SHAPE.measured) * WORDS_PER_REQUEST;
        let queries = queries(seed, words, SHAPE.mix);
        let (mut world, mut heap) = SystemBuilder::new(
            "bench-spell",
            Profile::Clusters {
                pages_per_cluster: CLUSTER_PAGES,
            },
        )
        .epc_pages(4096)
        .heap_pages(2048)
        .build()
        .map_err(|e| format!("spell: build: {e}"))?;
        // Preload unconstrained, then shrink to the serving budget: the
        // same steady state as loading under the budget, without paying
        // thousands of load-time faults in every set-up.
        let dict = Dictionary::load(&mut world, &mut heap, "en", DICT_WORDS)
            .map_err(|e| format!("spell: load: {e}"))?;
        world
            .rt
            .shrink_budget(&mut world.os, BUDGET_PAGES)
            .map_err(|e| format!("spell: shrink: {e}"))?;
        Ok(Self {
            world,
            heap,
            dict,
            queries,
        })
    }
}

impl Session for Spell {
    fn world(&self) -> &World {
        &self.world
    }

    fn heap(&self) -> &EncHeap {
        &self.heap
    }

    fn op(&mut self, i: usize) -> Result<(), String> {
        let line = &self.queries[i * WORDS_PER_REQUEST..(i + 1) * WORDS_PER_REQUEST];
        for (word, expected) in line {
            let got = self
                .dict
                .check(&mut self.world, &mut self.heap, word)
                .map_err(|e| format!("spell: check({word}): {e}"))?;
            if got != *expected {
                return Err(format!("spell: check({word}) = {got}, expected {expected}"));
            }
        }
        Ok(())
    }
}
