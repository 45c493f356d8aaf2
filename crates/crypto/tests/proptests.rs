//! Randomized property tests for the crypto primitives: streaming/one-shot
//! agreement under arbitrary chunkings, AEAD round-trips and tamper
//! rejection for arbitrary inputs, and differential tests that pin each
//! lane kernel's portable instance (8-lane ChaCha20, 4-lane Poly1305) to
//! the one-block path beside it, which the RFC vectors pin in turn. The
//! unit tests in `chacha20.rs` and `poly1305.rs` do the same for every
//! CPU tier's instance, and `aead_matches_the_one_block_construction`
//! pins `aead::seal` and `aead::open`, on the best tier this CPU has, to
//! the AEAD built from the one-block paths.
//!
//! Inputs are drawn from the deterministic [`SimRng`] (seeded per test),
//! so every run exercises the same cases and failures are reproducible.

use autarky_crypto::poly1305::poly1305;
use autarky_crypto::{aead, hmac_sha256, sha256, ChaCha20, HmacSha256, Poly1305, Sha256};
use autarky_prng::SimRng;

const CASES: usize = 64;

fn random_vec(rng: &mut SimRng, range: core::ops::Range<usize>) -> Vec<u8> {
    let len = rng.gen_range_usize(range);
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

#[test]
fn sha256_streaming_agrees_with_oneshot() {
    let mut rng = SimRng::seed_from_u64(0x5a01);
    for _ in 0..CASES {
        let data = random_vec(&mut rng, 0..2048);
        let n_splits = rng.gen_range_usize(0..8);
        let mut cuts: Vec<usize> = (0..n_splits)
            .map(|_| rng.gen_range_usize(0..data.len() + 1))
            .collect();
        cuts.sort_unstable();
        let mut hasher = Sha256::new();
        let mut prev = 0;
        for cut in cuts {
            hasher.update(&data[prev..cut]);
            prev = cut;
        }
        hasher.update(&data[prev..]);
        assert_eq!(hasher.finalize(), sha256(&data));
    }
}

#[test]
fn hmac_streaming_agrees_with_oneshot() {
    let mut rng = SimRng::seed_from_u64(0x5a02);
    for _ in 0..CASES {
        let key = random_vec(&mut rng, 0..200);
        let data = random_vec(&mut rng, 0..1024);
        let cut = rng.gen_range_usize(0..data.len() + 1);
        let mut mac = HmacSha256::new(&key);
        mac.update(&data[..cut]);
        mac.update(&data[cut..]);
        assert_eq!(mac.finalize(), hmac_sha256(&key, &data));
    }
}

#[test]
fn chacha20_is_an_involution() {
    let mut rng = SimRng::seed_from_u64(0x5a03);
    for _ in 0..CASES {
        let mut key = [0u8; 32];
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut key);
        rng.fill_bytes(&mut nonce);
        let counter = rng.next_u32();
        let data = random_vec(&mut rng, 0..1024);
        let mut buf = data.clone();
        ChaCha20::new(&key, &nonce, counter).apply_keystream(&mut buf);
        ChaCha20::new(&key, &nonce, counter).apply_keystream(&mut buf);
        assert_eq!(buf, data);
    }
}

#[test]
fn chacha20_lanes_match_the_one_block_path() {
    // Every length up to a page and a bit, so each lane count and tail
    // shows up; counters within 8 of u32::MAX make a lane wrap mid-chunk.
    let mut rng = SimRng::seed_from_u64(0x5a06);
    for len in 0..=4_200 {
        let mut key = [0u8; 32];
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut key);
        rng.fill_bytes(&mut nonce);
        let counter = u32::MAX - rng.gen_below(9) as u32;
        let data = random_vec(&mut rng, len..len + 1);
        let mut whole = data.clone();
        ChaCha20::new(&key, &nonce, counter).apply_keystream(&mut whole);
        let mut blocks = data;
        let mut cipher = ChaCha20::new(&key, &nonce, counter);
        for block in blocks.chunks_mut(64) {
            cipher.apply_keystream(block);
        }
        assert_eq!(whole, blocks, "len {len}, counter {counter:#x}");
    }
}

#[test]
fn poly1305_lanes_match_single_blocks_from_any_stream_position() {
    // Chunks of up to 600 bytes (37 blocks) are enough to start the lanes,
    // which take whole groups of 4 blocks, mid-stream: with a nonzero
    // running `h`, and after a partly filled buffer.
    let mut rng = SimRng::seed_from_u64(0x5a07);
    for case in 0..4 * CASES {
        // Every fourth case is all 0xff: the largest clamped r and the
        // largest blocks, the corner of the limb bounds.
        let (key, data) = if case % 4 == 0 {
            let len = rng.gen_range_usize(0..4_200);
            ([0xffu8; 32], vec![0xffu8; len])
        } else {
            let mut key = [0u8; 32];
            rng.fill_bytes(&mut key);
            (key, random_vec(&mut rng, 0..4_200))
        };
        let oneshot = poly1305(&key, &data);
        let mut single = Poly1305::new(&key);
        for block in data.chunks(16) {
            single.update(block);
        }
        assert_eq!(single.finalize(), oneshot, "16-byte updates, case {case}");
        let mut chunked = Poly1305::new(&key);
        let mut rest = data.as_slice();
        while !rest.is_empty() {
            let take = rng.gen_range_usize(0..rest.len().min(600) + 1);
            chunked.update(&rest[..take]);
            rest = &rest[take..];
        }
        assert_eq!(chunked.finalize(), oneshot, "random chunks, case {case}");
    }
}

#[test]
fn aead_roundtrip_and_tamper() {
    let mut rng = SimRng::seed_from_u64(0x5a04);
    for _ in 0..CASES {
        let mut key = [0u8; 32];
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut key);
        rng.fill_bytes(&mut nonce);
        let aad = random_vec(&mut rng, 0..64);
        let data = random_vec(&mut rng, 1..1024);
        let flip = rng.next_u64() as usize;

        let original = data.clone();
        let mut buf = data;
        let tag = aead::seal(&key, &nonce, &aad, &mut buf);
        // Round-trips.
        let mut plain = buf.clone();
        aead::open(&key, &nonce, &aad, &mut plain, &tag).expect("authentic");
        assert_eq!(&plain, &original);
        // A single flipped ciphertext bit must be rejected.
        let mut corrupt = buf.clone();
        let idx = flip % corrupt.len();
        corrupt[idx] ^= 1;
        assert!(aead::open(&key, &nonce, &aad, &mut corrupt, &tag).is_err());
        // A flipped AAD byte must be rejected.
        if !aad.is_empty() {
            let mut bad_aad = aad.clone();
            bad_aad[flip % aad.len()] ^= 1;
            let mut ct = buf.clone();
            assert!(aead::open(&key, &nonce, &bad_aad, &mut ct, &tag).is_err());
        }
    }
}

/// RFC 7539 §2.8's ChaCha20-Poly1305 seal on the public API's one-block
/// paths: the keystream 64 bytes at a time from counter 1, the Poly1305
/// key from the first 32 bytes of counter 0's block, and the tag 16 bytes
/// at a time over aad, pad, ciphertext, pad and the two lengths.
fn one_block_seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], data: &mut [u8]) -> [u8; 16] {
    let mut cipher = ChaCha20::new(key, nonce, 1);
    for piece in data.chunks_mut(64) {
        cipher.apply_keystream(piece);
    }
    let mut block0 = [0u8; 64];
    ChaCha20::new(key, nonce, 0).keystream(&mut block0);
    let mut mac = Poly1305::new(block0[..32].try_into().expect("32 bytes"));
    let pad = |len: usize| vec![0u8; (16 - len % 16) % 16];
    let mut input = aad.to_vec();
    input.extend(pad(aad.len()));
    input.extend_from_slice(data);
    input.extend(pad(data.len()));
    input.extend((aad.len() as u64).to_le_bytes());
    input.extend((data.len() as u64).to_le_bytes());
    for piece in input.chunks(16) {
        mac.update(piece);
    }
    mac.finalize()
}

#[test]
fn aead_matches_the_one_block_construction() {
    // Every length up to a page and a bit, so each kernel and tail of the
    // dispatched tier shows up, plus an ORAM bucket and a 128 KiB
    // checkpoint. Unlike the round trip above, this catches a kernel that
    // permutes or misnumbers blocks the same way in seal and open.
    let mut rng = SimRng::seed_from_u64(0x5a0a);
    for len in (0..=4_200).chain([16_416, 131_072]) {
        let mut key = [0u8; 32];
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut key);
        rng.fill_bytes(&mut nonce);
        let aad = random_vec(&mut rng, 0..65);
        let plaintext = random_vec(&mut rng, len..len + 1);
        let mut expected = plaintext.clone();
        let expected_tag = one_block_seal(&key, &nonce, &aad, &mut expected);
        let mut sealed = plaintext.clone();
        let tag = aead::seal(&key, &nonce, &aad, &mut sealed);
        assert!(sealed == expected, "seal's ciphertext, len {len}");
        assert_eq!(tag, expected_tag, "seal's tag, len {len}");
        let mut opened = expected;
        aead::open(&key, &nonce, &aad, &mut opened, &expected_tag)
            .unwrap_or_else(|_| panic!("open refused the reference, len {len}"));
        assert!(opened == plaintext, "open's plaintext, len {len}");
    }
}

#[test]
fn distinct_inputs_give_distinct_digests() {
    let mut rng = SimRng::seed_from_u64(0x5a05);
    for _ in 0..CASES {
        let a = random_vec(&mut rng, 1..128);
        let b = random_vec(&mut rng, 1..128);
        if a == b {
            continue;
        }
        assert_ne!(sha256(&a), sha256(&b));
    }
}
