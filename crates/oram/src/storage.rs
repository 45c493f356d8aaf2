//! Untrusted bucket storage for PathORAM.
//!
//! Buckets are stored *encrypted*: every write re-encrypts the bucket
//! under a fresh nonce, so the adversary watching the storage learns only
//! which tree positions are touched — and PathORAM guarantees those are a
//! uniformly random root-to-leaf path per access.
//!
//! A stored bucket is `nonce ‖ tag ‖ ciphertext`: a 28-byte header in
//! front of the body. It is sealed in place, in the storage's own buffer,
//! and authenticated against its tree position and its last write, so the
//! storage can neither move, replay nor erase a bucket unnoticed.
//!
//! Each buffer is an `Arc<Vec<u8>>`, and every write to it goes through
//! `Arc::make_mut`, which copies a buffer first while anyone else holds a
//! handle on it. The enclave keeps a handle on each bucket it writes, so
//! a bucket still stored in that allocation holds exactly the bytes the
//! enclave sealed there: the identity proof the path read relies on (see
//! [`tree`](crate::tree)). The ORAM's own write-back copies nothing,
//! because the path read drops the handles first.

use std::sync::Arc;

use autarky_crypto::aead::{self, NONCE_LEN, TAG_LEN};

use crate::tree::OramError;

/// Bytes in front of a sealed bucket's body: its nonce, then its tag.
pub(crate) const HEADER_LEN: usize = NONCE_LEN + TAG_LEN;

/// Untrusted bucket storage: one sealed bucket per tree position, in host
/// memory, with an access log. The ORAM only ever calls
/// [`MemStorage::read`] and [`MemStorage::write`], so the log *is* the
/// adversary's view.
#[derive(Default)]
pub struct MemStorage {
    buckets: Vec<Arc<Vec<u8>>>,
    /// Sequence of `(index, was_write)` accesses, adversary-visible.
    pub log: Vec<(u32, bool)>,
}

impl MemStorage {
    /// Storage for `buckets` buckets.
    ///
    /// # Panics
    ///
    /// If a bucket index would not fit the log's `u32`.
    pub fn new(buckets: usize) -> Self {
        assert!(
            u32::try_from(buckets).is_ok(),
            "{buckets} buckets: every index must fit in u32"
        );
        Self {
            buckets: std::iter::repeat_with(Arc::default).take(buckets).collect(),
            log: Vec::new(),
        }
    }

    /// Borrow the sealed bytes of bucket `index` (empty if never written).
    pub fn read(&mut self, index: usize) -> &[u8] {
        let bucket = &self.buckets[index];
        self.log.push((index as u32, false));
        bucket
    }

    /// Hand out bucket `index`'s own buffer, for the caller to overwrite
    /// with the bucket's new sealed bytes. It is a copy if a handle on the
    /// stored one is held.
    pub fn write(&mut self, index: usize) -> &mut Vec<u8> {
        self.log.push((index as u32, true));
        Arc::make_mut(&mut self.buckets[index])
    }

    /// Bucket `index`'s stored allocation, without logging an access.
    pub(crate) fn handle(&self, index: usize) -> &Arc<Vec<u8>> {
        &self.buckets[index]
    }

    /// Flip one stored bit (fault injection for integrity tests), in a
    /// copy of the bucket if a handle on it is held.
    pub fn corrupt(&mut self, index: usize, byte: usize) {
        if let Some(bucket) = self.buckets.get_mut(index) {
            if byte < bucket.len() {
                Arc::make_mut(bucket)[byte] ^= 1;
            }
        }
    }
}

/// Bucket sealing: encrypt-then-MAC under a per-write nonce counter, with
/// the bucket's index as associated data. The counter of each bucket's
/// last write is kept in trusted memory, and the bucket is opened under it.
pub struct BucketSealer {
    key: [u8; 32],
    counter: u64,
    /// Counter of each bucket's last seal; 0 = never written.
    versions: Vec<u64>,
}

impl BucketSealer {
    /// Create a sealer under `key` for a tree of `buckets` buckets.
    pub fn new(key: [u8; 32], buckets: usize) -> Self {
        Self {
            key,
            counter: 0,
            versions: vec![0; buckets],
        }
    }

    /// Whether bucket `index` has been sealed at least once.
    pub(crate) fn written(&self, index: usize) -> bool {
        self.versions[index] != 0
    }

    /// Seal the body of `bucket` (all but its 28-byte header) in place as
    /// the next write of bucket `index`, and write its nonce and tag into
    /// the header.
    pub fn seal(&mut self, index: usize, bucket: &mut [u8]) {
        self.counter += 1;
        self.versions[index] = self.counter;
        let nonce = nonce(self.counter);
        let (header, body) = bucket.split_at_mut(HEADER_LEN);
        let tag = aead::seal(&self.key, &nonce, &aad(index), body);
        header[..NONCE_LEN].copy_from_slice(&nonce);
        header[NONCE_LEN..].copy_from_slice(&tag);
    }

    /// Authenticate `sealed` as the last write of bucket `index` and
    /// decrypt its body into `out`, a trusted buffer. The stored nonce is
    /// not trusted: the body is opened under the nonce of the bucket's last
    /// seal, so bytes sealed for another index or by an earlier write are
    /// [`OramError::Tampered`].
    pub fn open(&self, index: usize, sealed: &[u8], out: &mut Vec<u8>) -> Result<(), OramError> {
        let tampered = OramError::Tampered(index);
        let Some((header, body)) = sealed.split_first_chunk::<HEADER_LEN>() else {
            return Err(tampered);
        };
        let tag = header[NONCE_LEN..].try_into().expect("TAG_LEN bytes");
        out.clear();
        out.extend_from_slice(body);
        let nonce = nonce(self.versions[index]);
        aead::open(&self.key, &nonce, &aad(index), out, tag).map_err(|_| tampered)
    }
}

/// The nonce of write number `counter`.
fn nonce(counter: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..8].copy_from_slice(&counter.to_le_bytes());
    nonce
}

/// The associated data binding a bucket to its tree position.
fn aad(index: usize) -> [u8; 8] {
    (index as u64).to_le_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seal(sealer: &mut BucketSealer, index: usize, plaintext: &[u8]) -> Vec<u8> {
        let mut bucket = vec![0u8; HEADER_LEN];
        bucket.extend_from_slice(plaintext);
        sealer.seal(index, &mut bucket);
        bucket
    }

    #[test]
    fn mem_storage_logs_accesses() {
        let mut storage = MemStorage::new(4);
        storage.write(2).extend_from_slice(&[1, 2, 3]);
        assert_eq!(storage.read(2), [1, 2, 3]);
        assert!(storage.read(0).is_empty());
        assert_eq!(storage.log, vec![(2, true), (2, false), (0, false)]);
    }

    #[test]
    fn writing_a_held_bucket_copies_it_first() {
        let mut storage = MemStorage::new(2);
        storage.write(1).extend_from_slice(&[1, 2, 3]);
        let held = Arc::clone(storage.handle(1));
        storage.corrupt(1, 3);
        assert!(Arc::ptr_eq(storage.handle(1), &held), "out of range");
        storage.corrupt(1, 0);
        assert_eq!(*held, [1, 2, 3]);
        assert_eq!(storage.read(1), [0, 2, 3]);
        let copy = Arc::as_ptr(storage.handle(1));
        storage.write(1)[1] = 9;
        assert_eq!(Arc::as_ptr(storage.handle(1)), copy, "no handle held");
        assert_eq!(storage.read(1), [0, 9, 3]);
    }

    #[test]
    fn sealer_roundtrip() {
        let mut sealer = BucketSealer::new([7; 32], 4);
        assert!(!sealer.written(1));
        let sealed = seal(&mut sealer, 1, &[9, 9, 9]);
        assert!(sealer.written(1));
        let mut out = Vec::new();
        assert_eq!(sealer.open(1, &sealed, &mut out), Ok(()));
        assert_eq!(out, [9, 9, 9]);
    }

    #[test]
    fn sealer_detects_tamper() {
        let mut sealer = BucketSealer::new([7; 32], 4);
        let mut sealed = seal(&mut sealer, 1, &[9, 9, 9]);
        let mut out = Vec::new();
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert_eq!(
            sealer.open(1, &sealed, &mut out),
            Err(OramError::Tampered(1))
        );
        assert_eq!(
            sealer.open(1, &sealed[..HEADER_LEN - 1], &mut out),
            Err(OramError::Tampered(1)),
            "shorter than a header"
        );
    }

    #[test]
    fn sealer_binds_index_and_last_write() {
        let mut sealer = BucketSealer::new([7; 32], 4);
        let mut twin = BucketSealer::new([7; 32], 4);
        let first = seal(&mut sealer, 1, &[9, 9, 9]);
        // Same key and nonce, other index: only the associated data
        // tells the two apart.
        seal(&mut twin, 2, &[9, 9, 9]);
        let mut out = Vec::new();
        assert_eq!(
            twin.open(2, &first, &mut out),
            Err(OramError::Tampered(2)),
            "moved to another bucket"
        );
        seal(&mut sealer, 1, &[9, 9, 9]);
        assert_eq!(
            sealer.open(1, &first, &mut out),
            Err(OramError::Tampered(1)),
            "an earlier write of the same bucket"
        );
    }

    #[test]
    fn reencryption_changes_ciphertext() {
        let mut sealer = BucketSealer::new([7; 32], 4);
        let a = seal(&mut sealer, 1, &[1, 2, 3]);
        let b = seal(&mut sealer, 1, &[1, 2, 3]);
        assert_ne!(a, b, "fresh nonce per write");
    }
}
