//! RFC 7539 ChaCha20-Poly1305 AEAD.
//!
//! This is the sealing primitive used by the simulated `EWB`/`ELDU`
//! instructions and by the SGXv2 software eviction path: page contents are
//! encrypted, and the tag covers both the ciphertext and the caller's
//! associated data (virtual address, enclave id, and anti-replay version),
//! matching the integrity guarantees of SGX's paging metadata (`PCMD` and
//! the Version Array).
//!
//! [`seal`] and [`open`] each have one `#[inline(always)]` body generic
//! over the Poly1305 lane count and handed the AVX-512F ChaCha20 kernel
//! when the tier has it, and each call picks the best CPU tier for it
//! once: portable, AVX2 or AVX-512F (see the tiers module). Every tier
//! computes the same bytes.

use crate::chacha20::ChaCha20;
use crate::constant_time::ct_eq;
use crate::poly1305::Poly1305;
use crate::tier::{HasAvx512f, Kernel, Tier};

/// AEAD key length in bytes.
pub const KEY_LEN: usize = 32;

/// AEAD nonce length in bytes.
pub const NONCE_LEN: usize = 12;

/// AEAD tag length in bytes.
pub const TAG_LEN: usize = 16;

/// Errors returned by [`open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeadError {
    /// The authentication tag did not verify; the ciphertext or the
    /// associated data was tampered with (or replayed under a different
    /// version).
    TagMismatch,
}

impl core::fmt::Display for AeadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AeadError::TagMismatch => write!(f, "AEAD tag verification failed"),
        }
    }
}

impl std::error::Error for AeadError {}

fn poly_key(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> [u8; 32] {
    let mut otk = [0u8; 64];
    ChaCha20::new(key, nonce, 0).keystream(&mut otk);
    let mut out = [0u8; 32];
    out.copy_from_slice(&otk[..32]);
    out
}

/// The tag over `aad` and `ciphertext`, with `P` Poly1305 lanes.
#[inline(always)]
fn compute_tag<const P: usize>(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    ciphertext: &[u8],
) -> [u8; TAG_LEN] {
    let pad = |len: usize| &[0u8; 16][..(16 - len % 16) % 16];
    let mut lens = [0u8; 16];
    lens[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
    lens[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
    let mut mac = Poly1305::new(&poly_key(key, nonce));
    // One loop, so each tier inlines the lane kernel once.
    for part in [
        aad,
        pad(aad.len()),
        ciphertext,
        pad(ciphertext.len()),
        &lens,
    ] {
        mac.update_lanes::<P>(part);
    }
    mac.finalize()
}

/// [`seal`]'s arguments; its body is the [`Kernel`] impl.
struct Seal<'a> {
    key: &'a [u8; KEY_LEN],
    nonce: &'a [u8; NONCE_LEN],
    aad: &'a [u8],
    data: &'a mut [u8],
}

impl Kernel for Seal<'_> {
    type Out = [u8; TAG_LEN];

    #[inline(always)]
    fn run<const P: usize>(self, avx512f: Option<HasAvx512f>) -> [u8; TAG_LEN] {
        ChaCha20::new(self.key, self.nonce, 1).apply_keystream_on(avx512f, self.data);
        compute_tag::<P>(self.key, self.nonce, self.aad, self.data)
    }
}

/// [`open`]'s arguments; its body is the [`Kernel`] impl.
struct Open<'a> {
    key: &'a [u8; KEY_LEN],
    nonce: &'a [u8; NONCE_LEN],
    aad: &'a [u8],
    data: &'a mut [u8],
    tag: &'a [u8; TAG_LEN],
}

impl Kernel for Open<'_> {
    type Out = Result<(), AeadError>;

    #[inline(always)]
    fn run<const P: usize>(self, avx512f: Option<HasAvx512f>) -> Result<(), AeadError> {
        let expected = compute_tag::<P>(self.key, self.nonce, self.aad, self.data);
        if !ct_eq(&expected, self.tag) {
            return Err(AeadError::TagMismatch);
        }
        ChaCha20::new(self.key, self.nonce, 1).apply_keystream_on(avx512f, self.data);
        Ok(())
    }
}

/// Encrypt `plaintext` in place and return the authentication tag.
///
/// `aad` is authenticated but not encrypted.
pub fn seal(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    data: &mut [u8],
) -> [u8; TAG_LEN] {
    Tier::best().run(Seal {
        key,
        nonce,
        aad,
        data,
    })
}

/// Verify `tag` and decrypt `data` in place.
///
/// On tag mismatch the ciphertext is left untouched and
/// [`AeadError::TagMismatch`] is returned.
pub fn open(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    data: &mut [u8],
    tag: &[u8; TAG_LEN],
) -> Result<(), AeadError> {
    Tier::best().run(Open {
        key,
        nonce,
        aad,
        data,
        tag,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_to_bytes(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    // RFC 7539 §2.8.2 AEAD test vector.
    #[test]
    fn rfc7539_aead_vector() {
        let key: [u8; 32] = (0x80u8..0xa0).collect::<Vec<_>>().try_into().expect("32");
        let nonce: [u8; 12] = hex_to_bytes("070000004041424344454647")
            .try_into()
            .expect("12");
        let aad = hex_to_bytes("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        let tag = seal(&key, &nonce, &aad, &mut data);
        assert_eq!(
            data[..16].to_vec(),
            hex_to_bytes("d31a8d34648e60db7b86afbc53ef7ec2")
        );
        assert_eq!(
            tag.to_vec(),
            hex_to_bytes("1ae10b594f09e26a7e902ecbd0600691")
        );
        open(&key, &nonce, &aad, &mut data, &tag).expect("tag verifies");
        assert_eq!(data, plaintext.to_vec());
    }

    #[test]
    fn tamper_ciphertext_detected() {
        let key = [3u8; 32];
        let nonce = [5u8; 12];
        let mut data = b"page contents".to_vec();
        let tag = seal(&key, &nonce, b"va=0x1000", &mut data);
        data[0] ^= 1;
        assert_eq!(
            open(&key, &nonce, b"va=0x1000", &mut data, &tag),
            Err(AeadError::TagMismatch)
        );
    }

    #[test]
    fn tamper_aad_detected() {
        let key = [3u8; 32];
        let nonce = [5u8; 12];
        let mut data = b"page contents".to_vec();
        let tag = seal(&key, &nonce, b"version=1", &mut data);
        assert_eq!(
            open(&key, &nonce, b"version=2", &mut data, &tag),
            Err(AeadError::TagMismatch)
        );
    }

    #[test]
    fn empty_aad_and_data() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut data = Vec::new();
        let tag = seal(&key, &nonce, b"", &mut data);
        open(&key, &nonce, b"", &mut data, &tag).expect("empty message round-trips");
    }

    #[test]
    fn roundtrip_various_lengths() {
        let key = [9u8; 32];
        let nonce = [7u8; 12];
        // Up to a page and an ORAM bucket (16,416 B), the sizes the
        // simulator seals.
        for len in [1usize, 15, 16, 17, 63, 64, 65, 4096, 16_416] {
            let original: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
            let mut data = original.clone();
            let tag = seal(&key, &nonce, b"aad", &mut data);
            assert_ne!(data, original, "len {len} must be encrypted");
            open(&key, &nonce, b"aad", &mut data, &tag).expect("round-trip");
            assert_eq!(data, original, "len {len}");
        }
    }
}
