//! The cached ORAM front-end (paper §5.2.2).
//!
//! Autarky makes it safe to cache recently used ORAM blocks in a large
//! *enclave-managed* buffer: because those pages are pinned and their
//! faults masked, cache hits leak nothing, and the expensive PathORAM
//! protocol runs only on misses. Without Autarky this cache is unsound —
//! the OS would observe EPC accesses — which is why pre-Autarky systems
//! (CoSMIX/ZeroTrace) must run the full protocol on every access.
//!
//! The cache is an O(1) LRU; evicted dirty blocks are written back through
//! the ORAM (an oblivious copy, accounted per byte).

use std::collections::{HashMap, VecDeque};

use crate::tree::{OramError, PathOram};

struct Entry {
    data: Vec<u8>,
    stamp: u64,
    dirty: bool,
}

/// An LRU cache of decrypted blocks in front of a [`PathOram`].
pub struct CachedOram {
    oram: PathOram,
    entries: HashMap<u64, Entry>,
    /// Recency queue with lazy invalidation: entries whose stamp is stale
    /// are skipped at eviction time.
    recency: VecDeque<(u64, u64)>,
    capacity: usize,
    next_stamp: u64,
}

impl CachedOram {
    /// Wrap `oram` with a cache holding up to `capacity` blocks.
    pub fn new(oram: PathOram, capacity: usize) -> Self {
        Self {
            oram,
            entries: HashMap::new(),
            recency: VecDeque::new(),
            capacity: capacity.max(1),
            next_stamp: 0,
        }
    }

    /// The wrapped ORAM (for stats and storage inspection).
    pub fn oram(&self) -> &PathOram {
        &self.oram
    }

    /// Blocks currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn touch(&mut self, id: u64) {
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.stamp = stamp;
        }
        self.recency.push_back((id, stamp));
    }

    fn evict_one(&mut self) -> Result<(), OramError> {
        while let Some((id, stamp)) = self.recency.pop_front() {
            let is_current = self
                .entries
                .get(&id)
                .map(|e| e.stamp == stamp)
                .unwrap_or(false);
            if !is_current {
                continue; // stale recency record
            }
            let entry = self.entries.remove(&id).expect("checked above");
            if entry.dirty {
                self.oram.write(id, &entry.data)?;
            }
            return Ok(());
        }
        Ok(())
    }

    fn load(&mut self, id: u64) -> Result<(), OramError> {
        if self.entries.contains_key(&id) {
            self.oram.stats.counts.cache_hits += 1;
            self.touch(id);
            return Ok(());
        }
        self.oram.stats.counts.cache_misses += 1;
        if self.entries.len() >= self.capacity {
            self.evict_one()?;
        }
        let data = self.oram.read(id)?;
        // Fetching into the cache is an oblivious copy.
        self.oram.stats.counts.oblivious_scan_bytes += data.len() as u64;
        self.entries.insert(
            id,
            Entry {
                data,
                stamp: 0,
                dirty: false,
            },
        );
        self.touch(id);
        Ok(())
    }

    /// Read block `id` through the cache.
    pub fn read(&mut self, id: u64) -> Result<Vec<u8>, OramError> {
        self.load(id)?;
        Ok(self.entries.get(&id).expect("just loaded").data.clone())
    }

    /// Read a sub-range of block `id` without copying the whole block out.
    pub fn read_at(&mut self, id: u64, offset: usize, buf: &mut [u8]) -> Result<(), OramError> {
        self.load(id)?;
        let data = &self.entries.get(&id).expect("just loaded").data;
        buf.copy_from_slice(&data[offset..offset + buf.len()]);
        Ok(())
    }

    /// Write block `id` through the cache (write-back).
    pub fn write(&mut self, id: u64, data: &[u8]) -> Result<(), OramError> {
        if data.len() != self.oram.block_size() {
            return Err(OramError::BadLength {
                expected: self.oram.block_size(),
                got: data.len(),
            });
        }
        self.load(id)?;
        let entry = self.entries.get_mut(&id).expect("just loaded");
        entry.data.copy_from_slice(data);
        entry.dirty = true;
        Ok(())
    }

    /// Write a sub-range of block `id`.
    pub fn write_at(&mut self, id: u64, offset: usize, buf: &[u8]) -> Result<(), OramError> {
        self.load(id)?;
        let entry = self.entries.get_mut(&id).expect("just loaded");
        entry.data[offset..offset + buf.len()].copy_from_slice(buf);
        entry.dirty = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::tree::buckets_for;

    fn cached(capacity_blocks: u64, cache: usize) -> CachedOram {
        let storage = MemStorage::new(buckets_for(capacity_blocks));
        let oram = PathOram::new(capacity_blocks, 8, 1, [2; 32], storage);
        CachedOram::new(oram, cache)
    }

    #[test]
    fn hit_avoids_oram_traffic() {
        let mut c = cached(64, 8);
        c.write(1, &[1; 8]).expect("write");
        let reads_before = c.oram().stats.bucket_reads();
        for _ in 0..10 {
            assert_eq!(c.read(1).expect("read"), vec![1; 8]);
        }
        assert_eq!(
            c.oram().stats.bucket_reads(),
            reads_before,
            "cache hits must not touch the tree"
        );
        assert!(c.oram().stats.cache_hits() >= 10);
    }

    #[test]
    fn eviction_writes_back_dirty_blocks() {
        let mut c = cached(64, 2);
        c.write(1, &[1; 8]).expect("write");
        c.write(2, &[2; 8]).expect("write");
        c.write(3, &[3; 8]).expect("write"); // evicts block 1
        assert!(c.len() <= 2);
        // Fill the cache with other blocks, then read 1 from the tree.
        c.read(4).expect("read");
        c.read(5).expect("read");
        assert_eq!(
            c.read(1).expect("read"),
            vec![1; 8],
            "write-back preserved data"
        );
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = cached(64, 2);
        c.write(1, &[1; 8]).expect("w1");
        c.write(2, &[2; 8]).expect("w2");
        c.read(1).expect("touch 1"); // 2 is now least recent
        c.write(3, &[3; 8]).expect("w3 evicts 2");
        let misses_before = c.oram().stats.cache_misses();
        c.read(1).expect("read 1");
        assert_eq!(
            c.oram().stats.cache_misses(),
            misses_before,
            "1 still cached"
        );
        c.read(2).expect("read 2");
        assert_eq!(
            c.oram().stats.cache_misses(),
            misses_before + 1,
            "2 was evicted"
        );
    }

    #[test]
    fn partial_reads_and_writes() {
        let mut c = cached(64, 4);
        c.write(9, &[0xAA; 8]).expect("write");
        c.write_at(9, 2, &[1, 2]).expect("patch");
        let mut buf = [0u8; 4];
        c.read_at(9, 1, &mut buf).expect("read_at");
        assert_eq!(buf, [0xAA, 1, 2, 0xAA]);
    }

    #[test]
    fn model_check_with_small_cache() {
        use autarky_prng::SimRng;
        use std::collections::HashMap;
        let mut c = cached(32, 3);
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut rng = SimRng::seed_from_u64(77);
        for _ in 0..1500 {
            let id = rng.gen_range(0..32);
            if rng.gen_bool(0.4) {
                let mut data = vec![0u8; 8];
                rng.fill_bytes(&mut data[..]);
                c.write(id, &data).expect("write");
                model.insert(id, data);
            } else {
                let expected = model.get(&id).cloned().unwrap_or_else(|| vec![0u8; 8]);
                assert_eq!(c.read(id).expect("read"), expected);
            }
        }
    }
}
