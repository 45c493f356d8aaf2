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
//!
//! Every access rewrites its whole path, and the buckets it wrote are
//! read back by later accesses, often untouched since. So write-back
//! keeps, per bucket, a handle on the stored allocation it sealed and
//! the real blocks it moved into it (see `Kept`), and a path read whose
//! bucket is still stored in that allocation moves the kept blocks into
//! the stash instead of opening the bucket. Any other bucket is opened.
//! The blocks are moved, not copied, so the memo costs one handle per
//! written bucket plus the plaintext of the real blocks in the tree (at
//! most `capacity` blocks). Every count and charge is as if each bucket
//! were opened.

use std::sync::Arc;

use autarky_prng::SimRng;

use crate::stats::OramStats;
use crate::storage::{BucketSealer, MemStorage, HEADER_LEN};

/// Blocks per bucket (the standard `Z = 4`).
pub const BUCKET_Z: usize = 4;

/// Marker id for a dummy (empty) slot.
const DUMMY: u64 = u64::MAX;

/// A bucket's last write, kept by the enclave: a handle on the stored
/// allocation it sealed, and the real blocks it serialised into it, in
/// slot order.
///
/// While `sealed` is held, the bytes behind it cannot change: the crate
/// forbids `unsafe`, so `Arc::get_mut` refuses and `Arc::make_mut`
/// copies. The bucket's nonce counter moves only when write-back seals
/// the bucket again, which replaces this entry. So while storage holds
/// this very allocation (`Arc::ptr_eq`), opening it would return exactly
/// `blocks` and dummies. Any other allocation, an equal copy included, is
/// opened.
struct Kept {
    sealed: Arc<Vec<u8>>,
    blocks: Vec<(u64, Vec<u8>)>,
}

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
    /// A bucket failed authentication: its bytes were modified, moved
    /// from another tree position, rolled back to an earlier write, or
    /// erased (or a never-written bucket is not empty).
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
    /// The last write of each bucket, indexed by bucket: `None` until the
    /// bucket is written, and from a path read until its write-back.
    kept: Vec<Option<Kept>>,
    /// Trusted buffer a bucket is opened in when it is not kept.
    opened: Vec<u8>,
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
    /// Buckets a path read opened instead of taking their kept blocks.
    #[cfg(test)]
    full_opens: u64,
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
        let buckets = buckets_for(capacity);
        let mut rng = SimRng::seed_from_u64(seed);
        let position = (0..capacity)
            .map(|_| rng.gen_range(0..num_leaves) as u32)
            .collect();
        Self {
            storage,
            sealer: BucketSealer::new(key, buckets),
            kept: (0..buckets).map(|_| None).collect(),
            opened: Vec::new(),
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
            #[cfg(test)]
            full_opens: 0,
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

        // 2. Read the whole path into the stash. A bucket still stored in
        // the allocation its last write-back kept gives up the kept blocks
        // (see `Kept`); any other takes the full authenticated open.
        for level in 0..=self.height {
            let bucket = self.bucket_index(leaf, level);
            let kept = self.kept[bucket].take();
            let sealed = self.storage.read(bucket);
            self.stats.counts.bucket_reads += 1;
            match (sealed.is_empty(), self.sealer.written(bucket)) {
                (true, false) => continue, // never-written bucket: all dummies
                (false, true) => {}
                _ => return Err(OramError::Tampered(bucket)), // erased or forged
            }
            let sealed = self.storage.handle(bucket);
            match kept {
                Some(kept) if Arc::ptr_eq(&kept.sealed, sealed) => {
                    stash_blocks(&mut self.stash, kept.blocks);
                }
                _ => {
                    #[cfg(test)]
                    {
                        self.full_opens += 1;
                    }
                    self.sealer.open(bucket, sealed, &mut self.opened)?;
                    stash_blocks(&mut self.stash, parse_bucket(self.block_size, &self.opened));
                }
            }
            self.stats.counts.crypto_bytes += (sealed.len() - HEADER_LEN) as u64;
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

        // 4. Greedy write-back along the path, deepest level first: each
        // bucket is serialised into its own storage buffer, behind the
        // header, and sealed there. The path read took every handle on
        // these buffers, so none is copied.
        let slot = 8 + self.block_size;
        for level in (0..=self.height).rev() {
            let bucket = self.bucket_index(leaf, level);
            // A block belongs in this bucket iff its leaf shares the path
            // prefix down to `level`.
            let shift = self.height - level;
            let stored = self.storage.write(bucket);
            stored.resize(HEADER_LEN + slot * BUCKET_Z, 0);
            let body = &mut stored[HEADER_LEN..];
            let mut blocks = Vec::new();
            let mut i = 0;
            while i < self.stash.len() && blocks.len() < BUCKET_Z {
                let (bid, _) = self.stash[i];
                if u64::from(self.position[bid as usize]) >> shift == leaf >> shift {
                    let (bid, data) = self.stash.swap_remove(i);
                    let chunk = &mut body[blocks.len() * slot..(blocks.len() + 1) * slot];
                    chunk[..8].copy_from_slice(&bid.to_le_bytes());
                    chunk[8..].copy_from_slice(&data);
                    blocks.push((bid, data));
                } else {
                    i += 1;
                }
            }
            for chunk in body[blocks.len() * slot..].chunks_exact_mut(slot) {
                chunk[..8].copy_from_slice(&DUMMY.to_le_bytes());
                chunk[8..].fill(0);
            }
            self.stats.counts.crypto_bytes += body.len() as u64;
            self.sealer.seal(bucket, stored);
            self.kept[bucket] = Some(Kept {
                sealed: Arc::clone(self.storage.handle(bucket)),
                blocks,
            });
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
}

/// The real blocks of a bucket's plaintext, in slot order.
fn parse_bucket(block_size: usize, plaintext: &[u8]) -> impl Iterator<Item = (u64, Vec<u8>)> + '_ {
    plaintext.chunks_exact(8 + block_size).filter_map(|chunk| {
        let id = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"));
        (id != DUMMY).then(|| (id, chunk[8..].to_vec()))
    })
}

/// Move a bucket's real blocks into the stash.
fn stash_blocks(stash: &mut Vec<(u64, Vec<u8>)>, blocks: impl IntoIterator<Item = (u64, Vec<u8>)>) {
    for (id, data) in blocks {
        if stash.iter().any(|(bid, _)| *bid == id) {
            continue; // a second copy, left by an access that failed
        }
        stash.push((id, data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_prng::SimMap;

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
        // 5 levels, then 9. Every bucket read back is still the one its
        // write-back kept, so these reads take the kept blocks.
        for capacity in [64, 1024] {
            let mut o = oram(capacity, 16);
            let mut model: SimMap<u64, Vec<u8>> = SimMap::default();
            let mut rng = SimRng::seed_from_u64(7);
            for step in 0..2000u32 {
                let id = rng.gen_range(0..capacity);
                if rng.gen_bool(0.5) {
                    let mut data = vec![0u8; 16];
                    rng.fill_bytes(&mut data[..]);
                    o.write(id, &data).expect("write");
                    model.insert(id, data);
                } else {
                    let expected = model.get(&id).cloned().unwrap_or_else(|| vec![0u8; 16]);
                    assert_eq!(
                        o.read(id).expect("read"),
                        expected,
                        "capacity {capacity} step {step} id {id}"
                    );
                }
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
        let reads: Vec<u32> = log.iter().filter(|(_, w)| !w).map(|(i, _)| *i).collect();
        let writes: Vec<u32> = log.iter().filter(|(_, w)| *w).map(|(i, _)| *i).collect();
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
        let mut leaves_seen = autarky_prng::SimSet::default();
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

    /// Lowercase hex SHA-256 of what the adversary sees of `storage`: its
    /// access log, then the length and bytes of each of its `buckets`.
    fn adversary_view(storage: &MemStorage, buckets: usize) -> String {
        let mut hasher = autarky_crypto::Sha256::new();
        for &(index, was_write) in &storage.log {
            hasher
                .update(&index.to_le_bytes())
                .update(&[u8::from(was_write)]);
        }
        for bucket in 0..buckets {
            let bytes = storage.handle(bucket).as_slice();
            hasher
                .update(&(bytes.len() as u64).to_le_bytes())
                .update(bytes);
        }
        hasher
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    #[test]
    fn adversary_view_matches_known_answers() {
        // How the enclave reads its own buckets back must not move one
        // ciphertext byte or log entry. Two 16 B-block trees, then a
        // cached ORAM in kv's shape: 512 page-sized blocks, 24 cached.
        let mut views = Vec::new();
        for capacity in [64, 1024] {
            let mut o = oram(capacity, 16);
            let mut rng = SimRng::seed_from_u64(5);
            for step in 0..600u32 {
                let id = rng.gen_range(0..capacity);
                if rng.gen_bool(0.5) {
                    o.write(id, &[step as u8; 16]).expect("write");
                } else {
                    o.read(id).expect("read");
                }
            }
            views.push(adversary_view(o.storage(), buckets_for(capacity)));
        }
        let storage = MemStorage::new(buckets_for(512));
        let oram = PathOram::new(512, 4096, 1, [0x5C; 32], storage);
        let mut c = crate::CachedOram::new(oram, 24);
        let mut rng = SimRng::seed_from_u64(6);
        for step in 0..300u32 {
            let id = rng.gen_range(0..66);
            if rng.gen_bool(0.5) {
                c.write(id, &[step as u8; 4096]).expect("write");
            } else {
                c.read(id).expect("read");
            }
        }
        views.push(adversary_view(c.oram().storage(), buckets_for(512)));
        assert_eq!(
            views,
            [
                "4410fd4f2a15e0e175197725a042a8dddab82846132b8ce2a98ab8fe30c09485",
                "ec5b14f279ddf52986b7e6d08a75f0e070e1d84885c47e7359519b7f086c191a",
                "bd56915523e4c415736ccf1767c191d88ee77bf809d5045237810c2146375e03",
            ]
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
        o.storage.corrupt(idx as usize, 20);
        let mut saw_tamper = false;
        for id in 0..16 {
            if matches!(o.read(id), Err(OramError::Tampered(_))) {
                saw_tamper = true;
                break;
            }
        }
        assert!(saw_tamper, "corruption must be detected");
    }

    /// Write `blocks` distinct blocks and return their contents by id.
    fn fill(o: &mut PathOram, blocks: u64) -> Vec<Vec<u8>> {
        (0..blocks)
            .map(|id| {
                let data = vec![id as u8 + 1; o.block_size()];
                o.write(id, &data).expect("fill");
                data
            })
            .collect()
    }

    /// Read blocks `first..first + expected.len()` round-robin until an
    /// access reads bucket `target`, and return that access's result.
    /// Every earlier access must return the block's `expected` contents.
    fn read_until_touched(
        o: &mut PathOram,
        target: usize,
        first: u64,
        expected: &[Vec<u8>],
    ) -> Result<Vec<u8>, OramError> {
        for step in 0..1000 {
            let i = step % expected.len();
            let start = o.storage().log.len();
            let result = o.read(first + i as u64);
            if o.storage().log[start..].contains(&(target as u32, false)) {
                return result;
            }
            assert_eq!(result.as_ref(), Ok(&expected[i]), "read {step}");
        }
        panic!("no access read bucket {target}");
    }

    /// The leaf bucket the last access wrote: write-back runs leaf first,
    /// so it is the first of the access's path-length trailing writes.
    fn last_written_leaf(o: &PathOram) -> usize {
        let log = &o.storage().log;
        let (leaf, was_write) = log[log.len() - (o.height as usize + 1)];
        assert!(was_write);
        leaf as usize
    }

    #[test]
    fn relocated_bucket_is_tampered() {
        let mut o = oram(16, 8);
        let written = fill(&mut o, 16);
        let root = o.storage.read(0).to_vec();
        let leaf = buckets_for(16) - 1;
        *o.storage.write(leaf) = root;
        assert_eq!(
            read_until_touched(&mut o, leaf, 0, &written),
            Err(OramError::Tampered(leaf)),
            "the root's bytes moved onto leaf {leaf}"
        );

        // Forging a bucket the enclave never wrote is relocation too.
        let mut o = oram(16, 8);
        let written = fill(&mut o, 1);
        let root = o.storage.read(0).to_vec();
        let blank = (0..buckets_for(16))
            .find(|&b| !o.sealer.written(b))
            .expect("one access leaves buckets unwritten");
        *o.storage.write(blank) = root;
        assert_eq!(
            read_until_touched(&mut o, blank, 0, &written),
            Err(OramError::Tampered(blank)),
            "the root's bytes copied onto never-written bucket {blank}"
        );
    }

    #[test]
    fn rolled_back_storage_is_tampered() {
        let mut o = oram(16, 8);
        fill(&mut o, 16);
        let buckets = buckets_for(16);
        let snapshot: Vec<Vec<u8>> = (0..buckets).map(|b| o.storage.read(b).to_vec()).collect();
        for id in 0..16u64 {
            o.write(id, &[0xF0 | id as u8; 8]).expect("overwrite");
        }
        for (b, bytes) in snapshot.into_iter().enumerate() {
            *o.storage.write(b) = bytes;
        }
        // Every access reads the root, and the root changed since the
        // snapshot, so no read may return the stale blocks.
        for id in 0..16u64 {
            assert_eq!(o.read(id), Err(OramError::Tampered(0)), "block {id}");
        }
    }

    #[test]
    fn erased_storage_is_tampered() {
        let mut o = oram(16, 8);
        fill(&mut o, 16);
        for b in 0..buckets_for(16) {
            o.storage.write(b).clear();
        }
        for id in 0..16u64 {
            assert_eq!(o.read(id), Err(OramError::Tampered(0)), "block {id}");
        }
    }

    #[test]
    fn tampering_is_detected_with_and_without_the_memo() {
        // 5 levels, every one kept: the root and a leaf alike.
        let mut o = oram(64, 16);
        let written = fill(&mut o, 32);
        // Probe with never-written blocks, so a failed access (which
        // remaps its block and skips write-back) loses no data.
        let zeros = vec![vec![0u8; 16]; 32];
        let leaf = last_written_leaf(&o);
        for bucket in [0, leaf] {
            let sealed = Arc::clone(&o.kept[bucket].as_ref().expect("kept").sealed);
            let byte = HEADER_LEN + 5;
            o.storage.corrupt(bucket, byte);
            assert_ne!(sealed, *o.storage.handle(bucket), "bucket {bucket}");
            assert_eq!(
                read_until_touched(&mut o, bucket, 32, &zeros),
                Err(OramError::Tampered(bucket)),
                "bucket {bucket} corrupted"
            );
            // Flipped back: the bytes the enclave sealed, in another
            // allocation.
            o.storage.corrupt(bucket, byte);
            assert_eq!(sealed, *o.storage.handle(bucket), "bucket {bucket}");
            assert!(!Arc::ptr_eq(&sealed, o.storage.handle(bucket)));
            let opens = o.full_opens;
            let result = read_until_touched(&mut o, bucket, 0, &written);
            assert!(
                result.is_ok_and(|data| written.contains(&data)),
                "bucket {bucket} restored"
            );
            assert!(o.full_opens > opens, "bucket {bucket} was opened");
            for (id, data) in written.iter().enumerate() {
                assert_eq!(
                    o.read(id as u64).as_ref(),
                    Ok(data),
                    "bucket {bucket} restored"
                );
            }
        }

        // A bucket rewritten with its own bytes is opened, and accepted.
        let mut o = oram(64, 16);
        let written = fill(&mut o, 32);
        let leaf = last_written_leaf(&o);
        let own = o.storage.handle(leaf).to_vec();
        *o.storage.write(leaf) = own;
        let result = read_until_touched(&mut o, leaf, 0, &written);
        assert!(result.is_ok_and(|data| written.contains(&data)));
        for (id, data) in written.iter().enumerate() {
            assert_eq!(o.read(id as u64).as_ref(), Ok(data), "block {id}");
        }
        assert_eq!(o.full_opens, 1, "leaf {leaf} alone was opened");
    }

    #[test]
    fn kept_buckets_match_a_full_open() {
        let mut o = oram(64, 16);
        let buckets = buckets_for(64);
        let mut rng = SimRng::seed_from_u64(11);
        let mut opened = Vec::new();
        for step in 0..600u32 {
            let id = rng.gen_range(0..64);
            if rng.gen_bool(0.5) {
                o.write(id, &[step as u8; 16]).expect("write");
            } else {
                o.read(id).expect("read");
            }
            if step % 50 != 49 {
                continue;
            }
            for bucket in 0..buckets {
                let stored = o.storage.handle(bucket);
                let Some(kept) = &o.kept[bucket] else {
                    assert!(stored.is_empty() && !o.sealer.written(bucket));
                    continue;
                };
                assert!(
                    Arc::ptr_eq(&kept.sealed, stored),
                    "step {step} bucket {bucket}"
                );
                o.sealer
                    .open(bucket, stored, &mut opened)
                    .expect("stored bytes open");
                assert!(
                    parse_bucket(16, &opened).eq(kept.blocks.iter().cloned()),
                    "step {step} bucket {bucket}"
                );
            }
        }
        assert!(
            o.kept.iter().all(Option::is_some),
            "every bucket was written"
        );
    }

    #[test]
    fn an_untouched_tree_is_never_opened_or_copied() {
        // Every bucket is read back from the allocation its write-back
        // kept, from the first access on, and the write-back of the path
        // it read reuses each bucket's allocation.
        let mut o = oram(1024, 16);
        let buckets = buckets_for(1024);
        let allocations: Vec<_> = (0..buckets)
            .map(|b| Arc::as_ptr(o.storage.handle(b)))
            .collect();
        let mut rng = SimRng::seed_from_u64(13);
        for step in 0..2000u32 {
            let id = rng.gen_range(0..1024);
            if rng.gen_bool(0.5) {
                o.write(id, &[step as u8; 16]).expect("write");
            } else {
                o.read(id).expect("read");
            }
        }
        assert_eq!(o.full_opens, 0);
        for (bucket, &allocation) in allocations.iter().enumerate() {
            assert_eq!(
                Arc::as_ptr(o.storage.handle(bucket)),
                allocation,
                "bucket {bucket} was copied"
            );
        }
        // Counted as if every written bucket on every path were opened.
        let counts = &o.stats.counts;
        assert_eq!(counts.bucket_reads, counts.bucket_writes);
    }
}
