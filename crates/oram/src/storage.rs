//! Untrusted bucket storage for PathORAM.
//!
//! Buckets are stored *encrypted*: every write re-encrypts the bucket
//! under a fresh nonce, so the adversary watching the storage learns only
//! which tree positions are touched — and PathORAM guarantees those are a
//! uniformly random root-to-leaf path per access.

use autarky_crypto::aead::{self, NONCE_LEN, TAG_LEN};

/// Untrusted bucket storage: one ciphertext per tree bucket, in host
/// memory, with an access log. The ORAM only ever calls
/// [`MemStorage::read`] and [`MemStorage::write`], so the log *is* the
/// adversary's view.
#[derive(Default)]
pub struct MemStorage {
    buckets: Vec<Vec<u8>>,
    /// Sequence of `(index, was_write)` accesses, adversary-visible.
    pub log: Vec<(usize, bool)>,
}

impl MemStorage {
    /// Storage for `buckets` buckets.
    pub fn new(buckets: usize) -> Self {
        Self {
            buckets: vec![Vec::new(); buckets],
            log: Vec::new(),
        }
    }

    /// Read the ciphertext of bucket `index` (empty if never written).
    pub fn read(&mut self, index: usize) -> Vec<u8> {
        self.log.push((index, false));
        self.buckets[index].clone()
    }

    /// Replace the ciphertext of bucket `index`.
    pub fn write(&mut self, index: usize, ciphertext: Vec<u8>) {
        self.log.push((index, true));
        self.buckets[index] = ciphertext;
    }

    /// Flip one ciphertext bit (fault injection for integrity tests).
    pub fn corrupt(&mut self, index: usize, byte: usize) {
        if let Some(b) = self.buckets.get_mut(index).and_then(|v| v.get_mut(byte)) {
            *b ^= 1;
        }
    }
}

/// Bucket sealing: encrypt-then-MAC with a per-write nonce counter.
pub struct BucketSealer {
    key: [u8; 32],
    counter: u64,
}

impl BucketSealer {
    /// Create a sealer under `key`.
    pub fn new(key: [u8; 32]) -> Self {
        Self { key, counter: 0 }
    }

    /// Encrypt a serialized bucket; the output embeds nonce and tag.
    pub fn seal(&mut self, mut plaintext: Vec<u8>) -> Vec<u8> {
        self.counter += 1;
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..8].copy_from_slice(&self.counter.to_le_bytes());
        let tag = aead::seal(&self.key, &nonce, b"oram-bucket", &mut plaintext);
        let mut out = Vec::with_capacity(NONCE_LEN + TAG_LEN + plaintext.len());
        out.extend_from_slice(&nonce);
        out.extend_from_slice(&tag);
        out.extend_from_slice(&plaintext);
        out
    }

    /// Decrypt a sealed bucket. Returns `None` on tampering.
    pub fn open(&self, sealed: &[u8]) -> Option<Vec<u8>> {
        if sealed.len() < NONCE_LEN + TAG_LEN {
            return None;
        }
        let nonce: [u8; NONCE_LEN] = sealed[..NONCE_LEN].try_into().ok()?;
        let tag: [u8; TAG_LEN] = sealed[NONCE_LEN..NONCE_LEN + TAG_LEN].try_into().ok()?;
        let mut plaintext = sealed[NONCE_LEN + TAG_LEN..].to_vec();
        aead::open(&self.key, &nonce, b"oram-bucket", &mut plaintext, &tag).ok()?;
        Some(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_logs_accesses() {
        let mut storage = MemStorage::new(4);
        storage.write(2, vec![1, 2, 3]);
        assert_eq!(storage.read(2), vec![1, 2, 3]);
        assert_eq!(storage.read(0), Vec::<u8>::new());
        assert_eq!(storage.log, vec![(2, true), (2, false), (0, false)]);
    }

    #[test]
    fn sealer_roundtrip() {
        let mut sealer = BucketSealer::new([7; 32]);
        let sealed = sealer.seal(vec![9, 9, 9]);
        assert_eq!(sealer.open(&sealed), Some(vec![9, 9, 9]));
    }

    #[test]
    fn sealer_detects_tamper() {
        let mut sealer = BucketSealer::new([7; 32]);
        let mut sealed = sealer.seal(vec![9, 9, 9]);
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert_eq!(sealer.open(&sealed), None);
    }

    #[test]
    fn reencryption_changes_ciphertext() {
        let mut sealer = BucketSealer::new([7; 32]);
        let a = sealer.seal(vec![1, 2, 3]);
        let b = sealer.seal(vec![1, 2, 3]);
        assert_ne!(a, b, "fresh nonce per write");
    }
}
