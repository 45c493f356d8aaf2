//! RFC 7539 ChaCha20 stream cipher.
//!
//! The simulator's stand-in for the SGX memory-encryption engine: page
//! contents evicted by `EWB` (or by the SGXv2 software path) are encrypted
//! with a per-platform key and a nonce derived from the page's eviction
//! version, so ciphertexts never repeat.
//!
//! Bulk data runs on one of two kernels, each computing several
//! consecutive blocks side by side; only row 12 of their state, the block
//! counter, differs between blocks (block `l` counts `c + l` mod 2^32, as
//! the one-block path does).
//!
//! - The 8-lane kernel, `xor_lanes`, has no intrinsics. Its state is
//!   lane-major, `[[u32; 8]; 16]`: row `w` holds word `w` of all 8 blocks.
//!   Each double round is one loop over the lanes whose body is the
//!   one-block double round. A row is contiguous across lanes, so LLVM's
//!   loop vectorizer keeps each word of several lanes in one register and
//!   runs the body as packed adds, xors and shifts. It is
//!   `#[inline(always)]`, so it compiles for the features of the function
//!   it lands in: [`ChaCha20::apply_keystream`] is the portable instance
//!   (on x86-64, SSE2 holds four lanes of a row per register), and the
//!   AVX2 tier holds a row in one `ymm`.
//! - The AVX-512F kernel (the private `avx512f` module) is written in
//!   `std::arch` intrinsics: 16 blocks, one `zmm` per row, with native
//!   `vprold` rotates, transposed in registers so that each block's
//!   keystream XORs into the data with one 64-byte load and store. Left to
//!   the loop vectorizer, that last step became gathers and scatters.
//!
//! `aead::seal` and `aead::open` run inside the crate's CPU tiers. The
//! tiers module holds the one dispatch site, `Tier::run`; its one `unsafe`
//! call per non-portable tier is sound because the instance's only
//! precondition, a CPU with the tier's features, is asserted with runtime
//! detection just before it. The AVX-512F tier hands its instance the
//! proof of that check, which the call into the AVX-512F kernel needs.
//! Every 16-block chunk runs there, a tail of 8 blocks or more on 8
//! lanes, and the rest, with the 64-byte Poly1305 key, on the one-block
//! path, whose code the RFC vectors pin. The tests pin both kernels to the
//! one-block path, so the keystream is the RFC's byte for byte whichever
//! kernel produced it.

#[cfg(target_arch = "x86_64")]
mod avx512f;

use crate::tier::HasAvx512f;

/// Key length in bytes.
pub const KEY_LEN: usize = 32;

/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;

/// Blocks side by side in the 8-lane kernel.
const LANES: usize = 8;

/// ChaCha20 cipher instance bound to a key and nonce.
pub struct ChaCha20 {
    state: [u32; 16],
}

impl ChaCha20 {
    /// Create a cipher with the given key, nonce, and initial block counter.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        let mut state = [0u32; 16];
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] =
                u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        Self { state }
    }

    /// Produce the keystream block for the current counter and advance it.
    fn next_block(&mut self) -> [u8; 64] {
        let mut working = self.state;
        for _ in 0..10 {
            Self::double_round(&mut working);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = working[i].wrapping_add(self.state[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        self.state[12] = self.state[12].wrapping_add(1);
        out
    }

    /// XOR the next 8 keystream blocks into `blocks` and advance the
    /// counter past them.
    #[inline(always)]
    fn xor_lanes(&mut self, blocks: &mut [[u8; 64]; LANES]) {
        let mut init = [[0u32; LANES]; 16];
        for (row, &word) in init.iter_mut().zip(self.state.iter()) {
            *row = [word; LANES];
        }
        for (l, counter) in init[12].iter_mut().enumerate() {
            *counter = counter.wrapping_add(l as u32);
        }
        let mut x = init;
        for _ in 0..10 {
            // The loop LLVM vectorizes (see the module docs).
            for l in 0..LANES {
                let mut s: [u32; 16] = core::array::from_fn(|w| x[w][l]);
                Self::double_round(&mut s);
                for (row, word) in x.iter_mut().zip(s) {
                    row[l] = word;
                }
            }
        }
        for (l, block) in blocks.iter_mut().enumerate() {
            for ((row, start), bytes) in x.iter().zip(init.iter()).zip(block.chunks_exact_mut(4)) {
                let key = row[l].wrapping_add(start[l]);
                let word = u32::from_le_bytes(bytes.try_into().expect("4 bytes")) ^ key;
                bytes.copy_from_slice(&word.to_le_bytes());
            }
        }
        self.state[12] = self.state[12].wrapping_add(LANES as u32);
    }

    #[inline(always)]
    fn double_round(s: &mut [u32; 16]) {
        // Column rounds.
        Self::quarter_round(s, 0, 4, 8, 12);
        Self::quarter_round(s, 1, 5, 9, 13);
        Self::quarter_round(s, 2, 6, 10, 14);
        Self::quarter_round(s, 3, 7, 11, 15);
        // Diagonal rounds.
        Self::quarter_round(s, 0, 5, 10, 15);
        Self::quarter_round(s, 1, 6, 11, 12);
        Self::quarter_round(s, 2, 7, 8, 13);
        Self::quarter_round(s, 3, 4, 9, 14);
    }

    #[inline(always)]
    fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }

    /// XOR the keystream into `data` in place (encrypts or decrypts), on
    /// the portable instance of the 8-lane kernel.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        self.apply_keystream_on(None, data);
    }

    /// XOR the keystream into `data`: every whole 16-block chunk on the
    /// AVX-512F kernel when `avx512f` proves the CPU has it, then every
    /// whole 8-block chunk on the 8-lane kernel, then the tail on the
    /// one-block path. Always inlined, so the 8-lane kernel compiles for
    /// the features of its caller's tier.
    #[inline(always)]
    pub(crate) fn apply_keystream_on(&mut self, avx512f: Option<HasAvx512f>, data: &mut [u8]) {
        let data = match avx512f {
            #[cfg(target_arch = "x86_64")]
            Some(cpu) => avx512f::xor_chunks(cpu, &mut self.state, data),
            _ => data,
        };
        let mut chunks = data.chunks_exact_mut(64 * LANES);
        for chunk in &mut chunks {
            let (blocks, _) = chunk.as_chunks_mut::<64>();
            self.xor_lanes(blocks.try_into().expect("a chunk is 8 blocks"));
        }
        self.xor_blocks(chunks.into_remainder());
    }

    /// XOR the keystream into `data` one block at a time: the path for a
    /// tail shorter than a lane chunk.
    fn xor_blocks(&mut self, data: &mut [u8]) {
        for chunk in data.chunks_mut(64) {
            let block = self.next_block();
            for (byte, k) in chunk.iter_mut().zip(block.iter()) {
                *byte ^= k;
            }
        }
    }

    /// Generate `out.len()` bytes of raw keystream (used to derive the
    /// Poly1305 one-time key in the AEAD construction).
    pub fn keystream(&mut self, out: &mut [u8]) {
        out.fill(0);
        self.apply_keystream(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::{Kernel, Tier};

    fn hex_to_bytes(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    // RFC 7539 §2.4.2 test vector.
    #[test]
    fn rfc7539_encryption() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().expect("32");
        let nonce = [0u8, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        ChaCha20::new(&key, &nonce, 1).apply_keystream(&mut data);
        let expected = hex_to_bytes(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        assert_eq!(data, expected);
    }

    // RFC 7539 §2.3.2 block function vector (first keystream block).
    #[test]
    fn rfc7539_block_function() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().expect("32");
        let nonce = [0u8, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut cipher = ChaCha20::new(&key, &nonce, 1);
        let mut ks = [0u8; 64];
        cipher.keystream(&mut ks);
        let expected = hex_to_bytes(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
        );
        assert_eq!(ks.to_vec(), expected);
    }

    #[test]
    fn roundtrip() {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let mut data: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let orig = data.clone();
        ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut data);
        assert_ne!(data, orig);
        ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut data);
        assert_eq!(data, orig);
    }

    /// `apply_keystream_on` on a tier's ChaCha20 kernels.
    struct Xor<'a> {
        cipher: ChaCha20,
        data: &'a mut [u8],
    }

    impl Kernel for Xor<'_> {
        type Out = ();

        #[inline(always)]
        fn run<const P: usize>(mut self, avx512f: Option<HasAvx512f>) {
            self.cipher.apply_keystream_on(avx512f, self.data);
        }
    }

    #[test]
    fn every_tier_matches_the_one_block_path() {
        // Each tier this CPU has (portable and AVX2 on 8 lanes, AVX-512F on
        // its 16-block kernel and 8 lanes) against `xor_blocks`, the
        // one-block `next_block` path the RFC vectors pin. Every length up
        // to a page and a bit, so each kernel and tail shows up, plus an
        // ORAM bucket; counters within 16 of u32::MAX make a lane wrap
        // mid-chunk in the 16-block kernel too.
        let tiers: Vec<Tier> = Tier::supported().collect();
        println!("tiers run: {tiers:?}");
        let mut rng = autarky_prng::SimRng::seed_from_u64(0x5a08);
        for len in (0..=4_200).chain([16_416]) {
            let mut key = [0u8; 32];
            let mut nonce = [0u8; 12];
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut nonce);
            rng.fill_bytes(&mut data);
            let counter = u32::MAX - rng.gen_below(17) as u32;
            let mut expected = data.clone();
            ChaCha20::new(&key, &nonce, counter).xor_blocks(&mut expected);
            for &tier in &tiers {
                let mut out = data.clone();
                let cipher = ChaCha20::new(&key, &nonce, counter);
                tier.run(Xor {
                    cipher,
                    data: &mut out,
                });
                assert_eq!(out, expected, "{tier:?}, len {len}, counter {counter:#x}");
            }
        }
    }

    #[test]
    fn counter_advances_across_chunks() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut a = vec![0u8; 200];
        ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut a);
        let mut b = vec![0u8; 200];
        let mut cipher = ChaCha20::new(&key, &nonce, 0);
        cipher.apply_keystream(&mut b[..64]);
        cipher.apply_keystream(&mut b[64..128]);
        cipher.apply_keystream(&mut b[128..]);
        assert_eq!(a, b);
    }
}
