//! PathORAM (Stefanov et al., CCS'13).
//!
//! Untrusted storage is a complete binary tree of buckets, each holding
//! `Z` fixed-size blocks (real or dummy). A position map assigns every
//! logical block a uniformly random leaf; an access reads the whole path
//! to the block's leaf, remaps the block to a fresh random leaf, and
//! greedily writes blocks back along the path. The adversary observes one
//! random path per access — independent of the logical address.
//!
//! Metadata placement is the crux of the Autarky use case (§5.2.2):
//!
//! * **cached/enclave-managed mode** (default): the position map and stash
//!   live in enclave-managed pages that are pinned in EPC, so accessing
//!   them leaks nothing and costs nothing extra;
//! * **uncached mode** ([`PathOram::set_uncached_metadata`]): without
//!   Autarky the enclave cannot keep metadata pages pinned safely, so —
//!   like CoSMIX — every metadata touch must be a full oblivious linear
//!   scan, which is what makes pre-Autarky ORAM orders of magnitude
//!   slower. We account those scans in
//!   [`OramStats::oblivious_scan_bytes`](crate::stats::OramStats::oblivious_scan_bytes).

use autarky_prng::SimRng;

use crate::stats::OramStats;
use crate::storage::{BucketSealer, MemStorage};

/// Blocks per bucket (the standard `Z = 4`).
pub const BUCKET_Z: usize = 4;

/// Marker id for a dummy (empty) slot.
const DUMMY: u64 = u64::MAX;

/// Errors from ORAM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OramError {
    /// Block id out of the configured capacity.
    BadBlock(u64),
    /// Data length does not match the configured block size.
    BadLength {
        /// Expected block size in bytes.
        expected: usize,
        /// Actual length supplied.
        got: usize,
    },
    /// The stash exceeded its provisioned capacity (astronomically
    /// unlikely with Z=4 unless the tree is mis-sized).
    StashOverflow,
    /// A bucket failed authentication (storage tampered with).
    Tampered(usize),
}

impl core::fmt::Display for OramError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OramError::BadBlock(id) => write!(f, "block id {id} out of range"),
            OramError::BadLength { expected, got } => {
                write!(f, "block length {got}, expected {expected}")
            }
            OramError::StashOverflow => write!(f, "stash overflow"),
            OramError::Tampered(idx) => write!(f, "bucket {idx} failed authentication"),
        }
    }
}

impl std::error::Error for OramError {}

/// A PathORAM instance over untrusted [`MemStorage`].
pub struct PathOram {
    storage: MemStorage,
    sealer: BucketSealer,
    /// Tree height: leaves are at level `height`, root at level 0.
    height: u32,
    num_leaves: u64,
    block_size: usize,
    capacity: u64,
    position: Vec<u32>,
    stash: Vec<(u64, Vec<u8>)>,
    stash_capacity: usize,
    rng: SimRng,
    /// Event counters (public: read by the cycle-charging adapters).
    pub stats: OramStats,
    uncached_metadata: bool,
}

/// Number of buckets needed for `capacity` blocks.
pub fn buckets_for(capacity: u64) -> usize {
    let height = height_for(capacity);
    (1usize << (height + 1)) - 1
}

fn height_for(capacity: u64) -> u32 {
    // Leaves >= ceil(capacity / Z) keeps utilization ~Z/2 per bucket on a
    // path, comfortably below overflow risk for Z=4.
    let needed_leaves = capacity.div_ceil(BUCKET_Z as u64).max(2);
    64 - (needed_leaves - 1).leading_zeros()
}

impl PathOram {
    /// Create an ORAM holding `capacity` blocks of `block_size` bytes.
    ///
    /// `seed` drives the (simulated) in-enclave randomness; `key` seals
    /// buckets. `storage` must hold at least [`buckets_for`]`(capacity)`
    /// buckets.
    pub fn new(
        capacity: u64,
        block_size: usize,
        seed: u64,
        key: [u8; 32],
        storage: MemStorage,
    ) -> Self {
        let height = height_for(capacity);
        let num_leaves = 1u64 << height;
        let mut rng = SimRng::seed_from_u64(seed);
        let position = (0..capacity)
            .map(|_| rng.gen_range(0..num_leaves) as u32)
            .collect();
        Self {
            storage,
            sealer: BucketSealer::new(key),
            height,
            num_leaves,
            block_size,
            capacity,
            position,
            stash: Vec::new(),
            stash_capacity: 256,
            rng,
            stats: OramStats::default(),
            uncached_metadata: false,
        }
    }

    /// Block capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of leaves in the tree.
    pub fn num_leaves(&self) -> u64 {
        self.num_leaves
    }

    /// Current stash occupancy (diagnostics/property tests).
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Borrow the underlying storage (e.g. to inspect its access log).
    pub fn storage(&self) -> &MemStorage {
        &self.storage
    }

    /// Model pre-Autarky metadata handling: charge a full oblivious scan
    /// of the position map and stash for every access.
    pub fn set_uncached_metadata(&mut self, uncached: bool) {
        self.uncached_metadata = uncached;
    }

    /// Read block `id`. Unwritten blocks read as zeros.
    pub fn read(&mut self, id: u64) -> Result<Vec<u8>, OramError> {
        self.access(id, None)
    }

    /// Write block `id`, returning its previous contents.
    pub fn write(&mut self, id: u64, data: &[u8]) -> Result<Vec<u8>, OramError> {
        if data.len() != self.block_size {
            return Err(OramError::BadLength {
                expected: self.block_size,
                got: data.len(),
            });
        }
        self.access(id, Some(data))
    }

    fn access(&mut self, id: u64, write: Option<&[u8]>) -> Result<Vec<u8>, OramError> {
        if id >= self.capacity {
            return Err(OramError::BadBlock(id));
        }
        self.stats.counts.accesses += 1;

        // 1. Position-map lookup + remap. In uncached mode this is a
        // linear oblivious scan; in cached mode the map is pinned in
        // enclave-managed memory and the lookup is free of leaks.
        let leaf = self.position[id as usize] as u64;
        let new_leaf = self.rng.gen_range(0..self.num_leaves);
        self.position[id as usize] = new_leaf as u32;
        if self.uncached_metadata {
            self.stats.counts.oblivious_scan_bytes += self.position.len() as u64 * 4;
        }

        // 2. Read the whole path into the stash.
        for level in 0..=self.height {
            let bucket = self.bucket_index(leaf, level);
            let sealed = self.storage.read(bucket);
            self.stats.counts.bucket_reads += 1;
            if sealed.is_empty() {
                continue; // never-written bucket: all dummies
            }
            let plaintext = self
                .sealer
                .open(&sealed)
                .ok_or(OramError::Tampered(bucket))?;
            self.stats.counts.crypto_bytes += plaintext.len() as u64;
            self.parse_bucket(&plaintext);
        }

        // 3. Stash lookup. Under Autarky (cached mode) the stash lives in
        // pinned enclave-managed pages, so a direct scan leaks nothing and
        // costs almost nothing. Pre-Autarky (uncached mode) the scan must
        // be oblivious over the full stash capacity, CoSMIX-style.
        if self.uncached_metadata {
            self.stats.counts.oblivious_scan_bytes +=
                (self.stash_capacity * (8 + self.block_size)) as u64;
        }
        let pos = self.stash.iter().position(|(bid, _)| *bid == id);
        let mut data = match pos {
            Some(i) => self.stash[i].1.clone(),
            None => vec![0u8; self.block_size],
        };
        if let Some(new_data) = write {
            data = new_data.to_vec();
        }
        // (Re)insert the (possibly updated) block.
        match pos {
            Some(i) => self.stash[i].1 = data.clone(),
            None => {
                // Reads of never-written blocks need not occupy the stash;
                // writes (and updates) do.
                if write.is_some() {
                    self.stash.push((id, data.clone()));
                }
            }
        }
        if self.stash.len() > self.stash_capacity {
            return Err(OramError::StashOverflow);
        }

        // 4. Greedy write-back along the path, deepest level first.
        for level in (0..=self.height).rev() {
            let bucket = self.bucket_index(leaf, level);
            let mut chosen: Vec<(u64, Vec<u8>)> = Vec::with_capacity(BUCKET_Z);
            let mut i = 0;
            while i < self.stash.len() && chosen.len() < BUCKET_Z {
                let (bid, _) = self.stash[i];
                let block_leaf = self.position[bid as usize] as u64;
                if self.bucket_index(block_leaf, level) == bucket {
                    chosen.push(self.stash.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            let plaintext = self.serialize_bucket(&chosen);
            self.stats.counts.crypto_bytes += plaintext.len() as u64;
            let sealed = self.sealer.seal(plaintext);
            self.storage.write(bucket, sealed);
            self.stats.counts.bucket_writes += 1;
        }
        self.stats.record_stash(self.stash.len() as u64);
        Ok(data)
    }

    /// Storage index of the level-`level` bucket on the path to `leaf`.
    fn bucket_index(&self, leaf: u64, level: u32) -> usize {
        let node = (leaf + self.num_leaves) >> (self.height - level);
        (node - 1) as usize
    }

    fn parse_bucket(&mut self, plaintext: &[u8]) {
        let slot = 8 + self.block_size;
        for chunk in plaintext.chunks_exact(slot) {
            let id = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"));
            if id == DUMMY {
                continue;
            }
            if self.stash.iter().any(|(bid, _)| *bid == id) {
                continue; // already stashed (shouldn't happen, but harmless)
            }
            self.stash.push((id, chunk[8..].to_vec()));
        }
    }

    fn serialize_bucket(&self, blocks: &[(u64, Vec<u8>)]) -> Vec<u8> {
        let slot = 8 + self.block_size;
        let mut out = vec![0u8; slot * BUCKET_Z];
        for (i, chunk) in out.chunks_exact_mut(slot).enumerate() {
            match blocks.get(i) {
                Some((id, data)) => {
                    chunk[..8].copy_from_slice(&id.to_le_bytes());
                    chunk[8..].copy_from_slice(data);
                }
                None => chunk[..8].copy_from_slice(&DUMMY.to_le_bytes()),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn oram(capacity: u64, block_size: usize) -> PathOram {
        let storage = MemStorage::new(buckets_for(capacity));
        PathOram::new(capacity, block_size, 42, [3; 32], storage)
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let mut o = oram(16, 8);
        assert_eq!(o.read(3).expect("read"), vec![0u8; 8]);
    }

    #[test]
    fn write_then_read() {
        let mut o = oram(16, 8);
        o.write(5, &[1, 2, 3, 4, 5, 6, 7, 8]).expect("write");
        assert_eq!(o.read(5).expect("read"), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn wrong_length_rejected() {
        let mut o = oram(16, 8);
        assert_eq!(
            o.write(5, &[1, 2, 3]),
            Err(OramError::BadLength {
                expected: 8,
                got: 3
            })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut o = oram(16, 8);
        assert_eq!(o.read(16), Err(OramError::BadBlock(16)));
    }

    #[test]
    fn matches_reference_model_under_random_ops() {
        let mut o = oram(64, 16);
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut rng = SimRng::seed_from_u64(7);
        for step in 0..2000u32 {
            let id = rng.gen_range(0..64);
            if rng.gen_bool(0.5) {
                let mut data = vec![0u8; 16];
                rng.fill_bytes(&mut data[..]);
                o.write(id, &data).expect("write");
                model.insert(id, data);
            } else {
                let expected = model.get(&id).cloned().unwrap_or_else(|| vec![0u8; 16]);
                assert_eq!(o.read(id).expect("read"), expected, "step {step} id {id}");
            }
        }
    }

    #[test]
    fn stash_stays_bounded() {
        let mut o = oram(256, 8);
        let mut rng = SimRng::seed_from_u64(9);
        for i in 0..256u64 {
            o.write(i, &[i as u8; 8]).expect("fill");
        }
        for _ in 0..5000 {
            let id = rng.gen_range(0..256);
            o.read(id).expect("read");
            assert!(o.stash_len() <= 60, "stash grew to {}", o.stash_len());
        }
    }

    #[test]
    fn every_access_touches_exactly_one_path() {
        let mut o = oram(64, 8);
        o.write(1, &[1; 8]).expect("seed block");
        let log_start = o.storage().log.len();
        o.read(1).expect("read");
        let log = &o.storage().log[log_start..];
        let height = {
            // capacity 64, Z=4 → 16 leaves → height 4.
            4u32
        };
        let path_len = (height + 1) as usize;
        assert_eq!(log.len(), 2 * path_len, "reads then writes of one path");
        let reads: Vec<usize> = log.iter().filter(|(_, w)| !w).map(|(i, _)| *i).collect();
        let writes: Vec<usize> = log.iter().filter(|(_, w)| *w).map(|(i, _)| *i).collect();
        assert_eq!(reads.len(), path_len);
        let mut sorted_writes = writes.clone();
        sorted_writes.sort_unstable();
        let mut sorted_reads = reads.clone();
        sorted_reads.sort_unstable();
        assert_eq!(sorted_reads, sorted_writes, "same path read and written");
        // The read sequence is root→leaf: indices strictly descend the tree.
        for pair in reads.windows(2) {
            assert!(pair[1] > pair[0], "descending path order");
        }
    }

    #[test]
    fn observed_leaves_are_spread_for_fixed_block() {
        // Accessing the SAME block repeatedly must still touch fresh
        // random paths (remap on every access) — the core obliviousness
        // property.
        let mut o = oram(64, 8);
        o.write(7, &[7; 8]).expect("seed");
        let mut leaves_seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let log_start = o.storage().log.len();
            o.read(7).expect("read");
            // The deepest read index identifies the leaf bucket.
            let leaf_bucket = o.storage().log[log_start..]
                .iter()
                .filter(|(_, w)| !w)
                .map(|(i, _)| *i)
                .max()
                .expect("nonempty path");
            leaves_seen.insert(leaf_bucket);
        }
        // 16 leaves, 200 samples: expect near-full coverage; require > half.
        assert!(
            leaves_seen.len() > 8,
            "only {} distinct leaves touched — access pattern is not oblivious",
            leaves_seen.len()
        );
    }

    #[test]
    fn uncached_metadata_charges_scans() {
        let mut o = oram(64, 8);
        o.read(1).expect("read");
        let cached_scans = o.stats.oblivious_scan_bytes();
        o.set_uncached_metadata(true);
        o.read(1).expect("read");
        let uncached_scans = o.stats.oblivious_scan_bytes() - cached_scans;
        assert!(
            uncached_scans > cached_scans,
            "uncached mode must add position-map scan cost"
        );
    }

    #[test]
    fn tampered_bucket_detected() {
        let mut o = oram(16, 8);
        o.write(0, &[1; 8]).expect("write");
        // Corrupt whichever bucket was last written.
        let (idx, _) = *o
            .storage()
            .log
            .iter()
            .rev()
            .find(|(_, w)| *w)
            .expect("some write");
        // Flip a ciphertext bit in untrusted storage.
        o.storage.corrupt(idx, 20);
        let mut saw_tamper = false;
        for id in 0..16 {
            if matches!(o.read(id), Err(OramError::Tampered(_))) {
                saw_tamper = true;
                break;
            }
        }
        assert!(saw_tamper, "corruption must be detected");
    }
}
