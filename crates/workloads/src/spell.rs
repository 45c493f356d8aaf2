//! A Hunspell-style spell-checking server (paper §7.3, Table 2; attack
//! from Xu et al. \[76\]).
//!
//! Dictionaries are hash tables with chained collision resolution; a
//! lookup walks a word-specific chain of nodes spread over pages, giving
//! every word a distinctive page-access signature. The published attack
//! logged page accesses while the dictionary was populated, then matched
//! the signatures of later lookups to recover the words being checked.
//!
//! The multi-dictionary server demonstrates *application-defined
//! clusters*: each dictionary's pages form one cluster, so the adversary
//! learns at most which language is in use — not the words.

use autarky_runtime::RtError;
use autarky_sgx_sim::Vpn;

use crate::encmem::{EncHeap, World};
use crate::uthash::{hash64, EncHashTable};

/// Hash a word to the table key (the word bytes are the secret; only the
/// derived key ever touches the table).
pub fn word_key(word: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in word.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    hash64(h)
}

/// A loaded dictionary.
pub struct Dictionary {
    /// Language tag.
    pub lang: String,
    table: EncHashTable,
    /// Heap pages this dictionary's nodes landed on (tracked so the
    /// server can build a per-dictionary cluster).
    pub pages: Vec<Vpn>,
}

/// Deterministic synthetic word list for a language: `words` distinct
/// lowercase words of 3–12 letters, seeded by the language tag.
pub fn synth_wordlist(lang: &str, words: usize) -> Vec<String> {
    const SYLLABLES: [&str; 16] = [
        "ka", "lo", "mi", "tu", "res", "ban", "dor", "fi", "gel", "hap", "jin", "kor", "lum",
        "ned", "pos", "wex",
    ];
    let seed = word_key(lang);
    let mut out = Vec::with_capacity(words);
    let mut i = 0u64;
    while out.len() < words {
        let mut h = hash64(seed ^ i);
        let syllables = 2 + (h % 4) as usize;
        let mut word = String::new();
        for _ in 0..syllables {
            h = hash64(h);
            word.push_str(SYLLABLES[(h % 16) as usize]);
        }
        // Distinctness by construction index suffix for collisions.
        if out.contains(&word) {
            word.push((b'a' + (i % 26) as u8) as char);
        }
        out.push(word);
        i += 1;
    }
    out
}

impl Dictionary {
    /// Load a dictionary of `words` synthetic words into enclave memory.
    pub fn load(
        world: &mut World,
        heap: &mut EncHeap,
        lang: &str,
        words: usize,
    ) -> Result<Self, RtError> {
        let free_before = heap_cursor(world);
        let nbuckets = (words as u64 / 4).next_power_of_two().max(16);
        // 24-byte items: enough for the word plus affix flags, as in
        // Hunspell's hash entries.
        let mut table = EncHashTable::new(world, heap, nbuckets, 24, 10)?;
        for word in synth_wordlist(lang, words) {
            let mut value = [0u8; 24];
            let bytes = word.as_bytes();
            let n = bytes.len().min(24);
            value[..n].copy_from_slice(&bytes[..n]);
            table.insert(world, heap, word_key(&word), &value)?;
        }
        let free_after = heap_cursor(world);
        let pages: Vec<Vpn> = pages_between(world, free_before, free_after);
        Ok(Self {
            lang: lang.to_owned(),
            table,
            pages,
        })
    }

    /// Check one word.
    pub fn check(
        &self,
        world: &mut World,
        heap: &mut EncHeap,
        word: &str,
    ) -> Result<bool, RtError> {
        world.progress(1);
        self.table.contains(world, heap, word_key(word))
    }

    /// Entries loaded.
    pub fn len(&self) -> u64 {
        self.table.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

fn heap_cursor(world: &World) -> u64 {
    world.rt.stats.pages_allocated
}

fn pages_between(world: &World, before: u64, after: u64) -> Vec<Vpn> {
    let start = world.image.heap_start().0;
    (start + before..start + after).map(Vpn).collect()
}

/// The multi-dictionary spell server.
pub struct SpellServer {
    /// Loaded dictionaries, by load order.
    pub dictionaries: Vec<Dictionary>,
}

impl SpellServer {
    /// Load `langs` dictionaries of `words_each` words. When
    /// `cluster_per_dictionary` is set, each dictionary's pages become one
    /// application-defined cluster (the Table 2 configuration).
    pub fn start(
        world: &mut World,
        heap: &mut EncHeap,
        langs: &[&str],
        words_each: usize,
        cluster_per_dictionary: bool,
    ) -> Result<Self, RtError> {
        let mut dictionaries = Vec::new();
        for lang in langs {
            let dict = Dictionary::load(world, heap, lang, words_each)?;
            if cluster_per_dictionary {
                let cluster = world.rt.clusters.new_cluster();
                for &page in &dict.pages {
                    world.rt.clusters.ay_add_page(cluster, page)?;
                }
            }
            dictionaries.push(dict);
        }
        Ok(Self { dictionaries })
    }

    /// Spell-check `text` against dictionary `lang`; returns the number of
    /// correctly spelled words.
    pub fn check_text(
        &self,
        world: &mut World,
        heap: &mut EncHeap,
        lang: &str,
        text: &[String],
    ) -> Result<u64, RtError> {
        let dict = self
            .dictionaries
            .iter()
            .find(|d| d.lang == lang)
            .ok_or(RtError::BadCluster("unknown dictionary"))?;
        let mut correct = 0u64;
        for word in text {
            if dict.check(world, heap, word)? {
                correct += 1;
            }
        }
        Ok(correct)
    }
}

/// A secret-input pair for leakage audits: two query texts of `count`
/// words each, equal in word count and in every per-word byte length, but
/// made of different dictionary words — so the lookups walk different
/// bucket chains while the public shape of the request stream is
/// identical.
///
/// # Panics
/// Panics when the wordlist has no two distinct words of equal length
/// (needs a dictionary of more than a handful of words).
pub fn secret_pair(lang: &str, dict_words: usize, count: usize) -> (Vec<String>, Vec<String>) {
    let words = synth_wordlist(lang, dict_words);
    let mut by_len: std::collections::BTreeMap<usize, Vec<&String>> = Default::default();
    for word in &words {
        by_len.entry(word.len()).or_default().push(word);
    }
    // Equal-length word pairs, in deterministic order.
    let mut left = Vec::new();
    let mut right = Vec::new();
    for bucket in by_len.values() {
        for pair in bucket.chunks(2) {
            if let [a, b] = pair {
                left.push((*a).clone());
                right.push((*b).clone());
            }
        }
    }
    assert!(
        !left.is_empty(),
        "no equal-length word pair in a {dict_words}-word list"
    );
    let a = (0..count).map(|i| left[i % left.len()].clone()).collect();
    let b = (0..count).map(|i| right[i % right.len()].clone()).collect();
    (a, b)
}

/// Generate a deterministic "book" of `count` words drawn from a
/// dictionary's word list (the Wizard-of-Oz stand-in; the text is the
/// secret the attack targets).
pub fn synth_text(lang: &str, dict_words: usize, count: usize, seed: u64) -> Vec<String> {
    let words = synth_wordlist(lang, dict_words);
    (0..count)
        .map(|i| words[(hash64(seed ^ i as u64) % words.len() as u64) as usize].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_os_sim::EnclaveImage;
    use autarky_runtime::RuntimeConfig;
    use autarky_sgx_sim::machine::MachineConfig;

    fn world(heap_pages: usize) -> World {
        let mut img = EnclaveImage::named("spell-test");
        img.heap_pages = heap_pages;
        World::new(
            MachineConfig {
                epc_frames: heap_pages + 128,
                ..Default::default()
            },
            img,
            RuntimeConfig::default(),
        )
        .expect("world")
    }

    #[test]
    fn wordlists_are_deterministic_and_distinct() {
        let a = synth_wordlist("en", 100);
        let b = synth_wordlist("en", 100);
        let c = synth_wordlist("de", 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let unique: autarky_prng::SimSet<&String> = a.iter().collect();
        assert_eq!(unique.len(), 100, "no duplicate words");
    }

    #[test]
    fn dictionary_membership() {
        let mut w = world(512);
        let mut heap = EncHeap::direct();
        let dict = Dictionary::load(&mut w, &mut heap, "en", 200).expect("load");
        assert_eq!(dict.len(), 200);
        for word in synth_wordlist("en", 200).iter().take(50) {
            assert!(
                dict.check(&mut w, &mut heap, word).expect("check"),
                "{word}"
            );
        }
        assert!(!dict.check(&mut w, &mut heap, "zzzzzz").expect("check"));
        assert!(!dict.pages.is_empty(), "dictionary landed on tracked pages");
    }

    #[test]
    fn secret_pair_same_shape_different_words() {
        let (a, b) = secret_pair("en", 300, 24);
        assert_eq!(a.len(), 24);
        assert_eq!(b.len(), 24);
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.len(), wb.len(), "public shape (lengths) identical");
            assert_ne!(wa, wb, "secret content differs");
            assert_ne!(word_key(wa), word_key(wb), "different bucket chains");
        }
        // Both sides are real dictionary words (lookups succeed).
        let dict_words: autarky_prng::SimSet<String> =
            synth_wordlist("en", 300).into_iter().collect();
        assert!(a.iter().all(|w| dict_words.contains(w)));
        assert!(b.iter().all(|w| dict_words.contains(w)));
    }

    #[test]
    fn server_checks_against_right_language() {
        let mut w = world(1024);
        let mut heap = EncHeap::direct();
        let server =
            SpellServer::start(&mut w, &mut heap, &["en", "de"], 150, false).expect("start");
        let text = synth_text("en", 150, 40, 9);
        let correct = server
            .check_text(&mut w, &mut heap, "en", &text)
            .expect("check");
        assert_eq!(correct, 40, "all words from the en dictionary");
        let cross = server
            .check_text(&mut w, &mut heap, "de", &text)
            .expect("check");
        assert!(cross < 40, "en words mostly absent from de");
    }

    #[test]
    fn per_dictionary_clusters_created() {
        let mut w = world(1024);
        let mut heap = EncHeap::direct();
        let server =
            SpellServer::start(&mut w, &mut heap, &["en", "de", "fr"], 100, true).expect("start");
        for dict in &server.dictionaries {
            let page = dict.pages[0];
            let ids = w.rt.clusters.ay_get_cluster_ids(page);
            assert_eq!(
                ids.len(),
                1,
                "{}: page in exactly its dictionary cluster",
                dict.lang
            );
            assert_eq!(
                w.rt.clusters.cluster_len(ids[0]),
                dict.pages.len(),
                "cluster covers the whole dictionary"
            );
        }
    }
}
