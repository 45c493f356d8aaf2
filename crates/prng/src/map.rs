//! One deterministic hasher for the simulator's hash maps.
//!
//! std's `HashMap` hashes with SipHash-1-3 under a random key per map: a
//! defence against hash flooding that every lookup pays for. The
//! simulator's maps are keyed by page numbers, enclave ids, cluster ids
//! and block ids, and the TLB, the page tables and the EPC frame index are
//! looked up on every simulated access. [`SimHasher`] is FxHash's
//! multiply-rotate construction instead: one rotate, one xor and one
//! multiply per word, with no key.
//!
//! Iteration order therefore no longer changes from map to map. Nothing
//! may depend on it all the same: wherever order reaches an output (a
//! capture, a checkpoint, a report), the code sorts first, as it had to
//! under SipHash's random order.
//!
//! Without a key, keys chosen to collide are cheap to find, so no map may
//! be keyed by bytes from outside the program. The one decoder that
//! fills such maps, the runtime checkpoint's, runs on a payload only
//! after the snapshot seal has authenticated it as the enclave's own.

use core::hash::{BuildHasherDefault, Hasher};

/// FxHash's 64-bit multiplier (from Firefox and rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The simulator's map hasher: FxHash's multiply-rotate over 64-bit
/// words. Deterministic; not flooding-resistant.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimHasher {
    hash: u64,
}

impl SimHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for SimHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(word);
            self.add(u64::from_le_bytes(buf));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The simulator's hash map: std's `HashMap` under [`SimHasher`].
/// `SimMap::default()` builds an empty one.
#[allow(clippy::disallowed_types)]
pub type SimMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<SimHasher>>;

/// The simulator's hash set: std's `HashSet` under [`SimHasher`].
#[allow(clippy::disallowed_types)]
pub type SimSet<T> = std::collections::HashSet<T, BuildHasherDefault<SimHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use core::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<SimHasher>::default().hash_one(value)
    }

    #[test]
    fn hashes_do_not_depend_on_the_map() {
        assert_eq!(hash_of(&(7u32, 0x101u64)), hash_of(&(7u32, 0x101u64)));
        let fill = || -> Vec<u64> {
            let map: SimMap<u64, u64> = (0..1000).map(|k| (k * 4096, k)).collect();
            map.keys().copied().collect()
        };
        assert_eq!(fill(), fill(), "same inserts, same iteration order");
    }

    #[test]
    fn consecutive_page_numbers_spread_over_the_low_bits() {
        // hashbrown picks a bucket from the low bits: 1,024 consecutive
        // page numbers must land in 1,024 distinct buckets of 1,024.
        let buckets: SimSet<u64> = (0x100_000..0x100_400u64)
            .map(|vpn| hash_of(&vpn) & 0x3ff)
            .collect();
        assert_eq!(buckets.len(), 1024);
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let mut a = SimHasher::default();
        a.write(b"0123456789a");
        let mut b = SimHasher::default();
        b.write(b"0123456789b");
        assert_ne!(a.finish(), b.finish(), "the tail past the last word counts");
    }
}
