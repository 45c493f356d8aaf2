//! RFC 7539 Poly1305 one-time authenticator.
//!
//! Arithmetic is modulo p = 2^130 - 5 on five 26-bit limbs
//! (`h = h0 + h1·2^26 + h2·2^52 + h3·2^78 + h4·2^104`) held in `u32`, with
//! `u32 × u32 → u64` products: poly1305-donna's 32-bit shape. A product
//! term that lands at 2^130 or above wraps round to the bottom as ×5
//! (2^130 ≡ 5).
//!
//! The lane kernel absorbs whole groups of `L` blocks on `L` lanes. Lane
//! `l` takes blocks `l, l+L, l+2L, …` and each step computes
//! `acc_l = (acc_l + m_l)·r^L`; the last group multiplies lane `l` by
//! `r^(L−l)` instead, so every block ends up multiplied by the power of
//! `r` the one-block step would have given it. The running `h` enters
//! lane 0 with its first block, and the carried sum of the lanes is the
//! new `h`. The state is lane-major, `[[u32; L]; 5]`, and the lane loop's
//! body is the one-block step, so LLVM's loop vectorizer runs `L` lanes of
//! a limb in one register and each product as one `vpmuludq` across them
//! (the products are written `u32 as u64 * u32 as u64` for exactly that).
//! The one-block step, `h = (h + m)·r` in the same limbs, covers the
//! blocks left over, the padded tail, and is the reference the tests pin
//! the lanes to.
//!
//! The kernel is one `#[inline(always)]` body generic over `L`, so it
//! compiles for the features of the function it lands in.
//! [`Poly1305::update`] is the portable instance, 4 lanes on the target's
//! baseline. `aead::seal` and `aead::open` run it inside the crate's CPU
//! tiers: 4 lanes with AVX2 and 8 with AVX-512F. The tiers module holds
//! the one dispatch site, `Tier::run`; its one `unsafe` call per
//! non-portable tier is sound because the instance's only precondition, a
//! CPU with the tier's features, is asserted with runtime detection just
//! before it.
//!
//! Limb bounds, which keep every sum inside its type (`ε` below is at most
//! `2^10`):
//!
//! - A product's five column sums go through the lazy carry in two
//!   chains, `d0→d1 ‖ d3→d4`, then `d1→d2 ‖ d4→d0` (×5), then
//!   `d2→d3 ‖ d0→d1`, then `d3→d4`. Its limbs come out with `h0, h2, h3`
//!   below `2^26`, `h1 < 2^26 + 2^10` and `h4 < 2^26 + 2^8`, for any column
//!   sums below `2^59`. `h`, every lane accumulator and every power `r^k`
//!   (clamped `r` has every limb below `2^26`) is a carry's output.
//! - A block adds limbs below `2^26` (the top one, hibit included, below
//!   `2^25`), so every limb of `acc + m` is below `2^27 + ε` and fits a
//!   `u32`.
//! - Every `5·r^k` limb is below `5·(2^26 + ε) < 2^29`, so it fits a `u32`
//!   too.
//! - A column sums five products, each below `(2^27 + ε)·2^29`, so it stays
//!   below `2^59`; a `u64` holds it, and the first carry out of it, below
//!   `2^33`, times 5, is far from overflowing `d0`.
//! - The sum of up to 8 lane accumulators is below `2^30` per limb, a
//!   valid carry input.
//!
//! The test profile keeps overflow checks, and the unit tests run
//! all-`0xff` keys and messages, the corner of these bounds, through every
//! lane kernel instance the CPU has, so a bound broken by a future edit
//! panics in `cargo test` rather than corrupting a tag.

/// Key length in bytes (16-byte `r` + 16-byte `s`).
pub const KEY_LEN: usize = 32;

/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

const MASK26: u32 = (1 << 26) - 1;
/// 2^128 in limb 4: the bit RFC 7539 appends to every full block.
const HIBIT: u32 = 1 << 24;

/// An element mod 2^130 - 5 in 26-bit limbs, lazily carried (bounds in the
/// module docs).
type Limbs = [u32; 5];

/// Load a 16-byte block as limbs; `hibit` is [`HIBIT`] for a full block
/// and 0 for the padded tail.
#[inline(always)]
fn load(block: &[u8; 16], hibit: u32) -> Limbs {
    let t = |i: usize| u32::from_le_bytes(block[4 * i..4 * i + 4].try_into().expect("4"));
    [
        t(0) & MASK26,
        (t(0) >> 26 | t(1) << 6) & MASK26,
        (t(1) >> 20 | t(2) << 12) & MASK26,
        (t(2) >> 14 | t(3) << 18) & MASK26,
        t(3) >> 8 | hibit,
    ]
}

/// `a·b`, lazily carried back to limbs (bounds in the module docs).
#[inline(always)]
fn mul(a: Limbs, b: Limbs) -> Limbs {
    let m = |x: u32, y: u32| x as u64 * y as u64;
    let [a0, a1, a2, a3, a4] = a;
    let [b0, b1, b2, b3, b4] = b;
    let [s1, s2, s3, s4] = [b1 * 5, b2 * 5, b3 * 5, b4 * 5];
    carry([
        m(a0, b0) + m(a1, s4) + m(a2, s3) + m(a3, s2) + m(a4, s1),
        m(a0, b1) + m(a1, b0) + m(a2, s4) + m(a3, s3) + m(a4, s2),
        m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, s4) + m(a4, s3),
        m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, s4),
        m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0),
    ])
}

/// The two-chain lazy carry from column sums to limbs.
#[inline(always)]
fn carry(d: [u64; 5]) -> Limbs {
    const M: u64 = MASK26 as u64;
    let [mut d0, mut d1, mut d2, mut d3, mut d4] = d;
    d1 += d0 >> 26;
    d0 &= M;
    d4 += d3 >> 26;
    d3 &= M;
    d2 += d1 >> 26;
    d1 &= M;
    d0 += (d4 >> 26) * 5;
    d4 &= M;
    d3 += d2 >> 26;
    d2 &= M;
    d1 += d0 >> 26;
    d0 &= M;
    d4 += d3 >> 26;
    d3 &= M;
    [d0, d1, d2, d3, d4].map(|limb| limb as u32)
}

/// `a + b`, limb by limb.
#[inline(always)]
fn add(a: Limbs, b: Limbs) -> Limbs {
    core::array::from_fn(|i| a[i] + b[i])
}

/// Streaming Poly1305 context.
pub struct Poly1305 {
    r: Limbs,
    h: Limbs,
    pad: u128,
    buf: [u8; 16],
    buf_len: usize,
}

impl Poly1305 {
    /// Create an authenticator from the 32-byte one-time key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        // r is clamped per the RFC: clear the top 4 bits of bytes 3/7/11/15
        // and the bottom 2 bits of bytes 4/8/12.
        let r = u128::from_le_bytes(key[..16].try_into().expect("16"))
            & 0x0fff_fffc_0fff_fffc_0fff_fffc_0fff_ffff;
        Self {
            r: core::array::from_fn(|i| (r >> (26 * i)) as u32 & MASK26),
            h: [0; 5],
            pad: u128::from_le_bytes(key[16..32].try_into().expect("16")),
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// The one-block step, `h = (h + m)·r`.
    fn block(&mut self, block: &[u8; 16], hibit: u32) {
        self.h = mul(add(self.h, load(block, hibit)), self.r);
    }

    /// The lane kernel: absorb `blocks`, a whole number of groups of `L`
    /// full blocks, on `L` lanes (see the module docs).
    #[inline(always)]
    fn blocks_lanes<const L: usize>(&mut self, blocks: &[[u8; 16]]) {
        // pow[k] = r^(k+1).
        let mut pow = [self.r; L];
        for k in 1..L {
            pow[k] = mul(pow[k - 1], self.r);
        }
        // Lane-major multipliers: r^L for every lane, and r^(L−l) for lane
        // `l` in the last group.
        let step: [[u32; L]; 5] = core::array::from_fn(|i| [pow[L - 1][i]; L]);
        let last: [[u32; L]; 5] =
            core::array::from_fn(|i| core::array::from_fn(|l| pow[L - 1 - l][i]));
        let mut acc = [[0u32; L]; 5];
        for (row, limb) in acc.iter_mut().zip(self.h) {
            row[0] = limb;
        }
        let (groups, _) = blocks.as_chunks::<L>();
        let (last_group, groups) = groups.split_last().expect("at least one group");
        for group in groups {
            Self::lanes_step(&mut acc, group, &step);
        }
        Self::lanes_step(&mut acc, last_group, &last);
        self.h = carry(acc.map(|row| row.iter().map(|&limb| limb as u64).sum()));
    }

    /// `acc_l = (acc_l + m_l)·r_l` on every lane `l`.
    #[inline(always)]
    fn lanes_step<const L: usize>(
        acc: &mut [[u32; L]; 5],
        group: &[[u8; 16]; L],
        r: &[[u32; L]; 5],
    ) {
        // A local copy of the group, so the lane loop below touches only
        // locals: LLVM will not vectorize a loop this short if it needs a
        // runtime check that the message and the accumulators do not
        // overlap.
        let group = *group;
        // The loop LLVM vectorizes (see the module docs).
        for (l, block) in group.iter().enumerate() {
            let a = add(core::array::from_fn(|i| acc[i][l]), load(block, HIBIT));
            let product = mul(a, core::array::from_fn(|i| r[i][l]));
            for (row, limb) in acc.iter_mut().zip(product) {
                row[l] = limb;
            }
        }
    }

    /// Absorb message data on the portable instance of the lane kernel.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.update_lanes::<4>(data)
    }

    /// Absorb message data: whole groups of `L` blocks on the lane kernel,
    /// the rest on the one-block step. Always inlined, so it compiles for
    /// the features of its caller's tier.
    #[inline(always)]
    pub(crate) fn update_lanes<const L: usize>(&mut self, data: &[u8]) -> &mut Self {
        let mut data = data;
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.block(&block, HIBIT);
                self.buf_len = 0;
            }
        }
        let (blocks, tail) = data.as_chunks::<16>();
        let (grouped, rest) = blocks.split_at(blocks.len() - blocks.len() % L);
        if !grouped.is_empty() {
            self.blocks_lanes::<L>(grouped);
        }
        for block in rest {
            self.block(block, HIBIT);
        }
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
        self
    }

    /// Finish and return the 16-byte tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.block(&block, 0);
        }
        let mut h = self.h;

        // Two full carry passes leave canonical limbs and h < 2^130.
        for _ in 0..2 {
            for i in 0..4 {
                h[i + 1] += h[i] >> 26;
                h[i] &= MASK26;
            }
            h[0] += (h[4] >> 26) * 5;
            h[4] &= MASK26;
        }

        // g = h + 5 carried through; bit 26 of its top limb is the 2^130
        // that h + 5 reaches exactly when h ≥ p, and then g mod 2^130 is
        // h - p.
        let mut g = h;
        g[0] += 5;
        for i in 0..4 {
            g[i + 1] += g[i] >> 26;
            g[i] &= MASK26;
        }
        // Select g if h ≥ p, else h.
        let mask = 0u32.wrapping_sub(g[4] >> 26);
        g[4] &= MASK26;
        let h: Limbs = core::array::from_fn(|i| (h[i] & !mask) | (g[i] & mask));

        // h mod 2^128, plus the pad.
        let h = (0..5).fold(0u128, |acc, i| acc | (h[i] as u128) << (26 * i));
        h.wrapping_add(self.pad).to_le_bytes()
    }
}

/// One-shot Poly1305 tag of `data` under `key`.
pub fn poly1305(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(key);
    mac.update(data);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::{HasAvx512f, Kernel, Tier};

    fn hex_to_bytes(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    // RFC 7539 §2.5.2 test vector.
    #[test]
    fn rfc7539_tag() {
        let key: [u8; 32] =
            hex_to_bytes("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .expect("32");
        let msg = b"Cryptographic Forum Research Group";
        let tag = poly1305(&key, msg);
        assert_eq!(
            tag.to_vec(),
            hex_to_bytes("a8061dc1305136c6c22b8baf0c0127a9")
        );
    }

    // RFC 7539 §A.3 vector #1: all-zero key, all-zero message.
    #[test]
    fn zero_key_zero_msg() {
        let key = [0u8; 32];
        let msg = [0u8; 64];
        assert_eq!(poly1305(&key, &msg), [0u8; 16]);
    }

    // RFC 7539 §A.3 vector #2.
    #[test]
    fn rfc7539_a3_vector2() {
        let mut key = [0u8; 32];
        let s = hex_to_bytes("36e5f6b5c5e06070f0efca96227a863e");
        key[16..].copy_from_slice(&s);
        let msg = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";
        assert_eq!(
            poly1305(&key, msg.as_slice()).to_vec(),
            hex_to_bytes("36e5f6b5c5e06070f0efca96227a863e")
        );
    }

    // Hand-derived: with r = 1 and s = 0 the tag is h mod p mod 2^128, and
    // a full block of `ff` bytes is m = 2^129 - 1, so two such blocks give
    // h = 2^130 - 2 = p + 3. Lowering the second block's first byte by 3
    // or 4 gives h = p and h = p - 1. The first two need the h ≥ p
    // reduction, which only fires for the ≈2^-128 of accumulators that
    // end in [p, 2^130).
    #[test]
    fn accumulator_at_and_above_p_is_reduced() {
        let mut key = [0u8; 32];
        key[0] = 1;
        let cases: [(u8, [u8; 16]); 3] = [
            (0xff, [3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            (0xfc, [0; 16]),
            (
                0xfb,
                [
                    0xfa, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                    0xff, 0xff, 0xff,
                ],
            ),
        ];
        for (byte, tag) in cases {
            let mut msg = [0xffu8; 32];
            msg[16] = byte;
            assert_eq!(poly1305(&key, &msg), tag, "second block starts {byte:#04x}");
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().expect("32");
        let data: Vec<u8> = (0..259u32).map(|i| (i * 3 % 256) as u8).collect();
        for split in [0usize, 1, 15, 16, 17, 100, 259] {
            let mut mac = Poly1305::new(&key);
            mac.update(&data[..split]);
            mac.update(&data[split..]);
            assert_eq!(mac.finalize(), poly1305(&key, &data), "split {split}");
        }
    }

    /// The tag with every full block through the one-block step.
    fn one_block_tag(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = Poly1305::new(key);
        let (blocks, tail) = data.as_chunks::<16>();
        for block in blocks {
            mac.block(block, HIBIT);
        }
        mac.buf[..tail.len()].copy_from_slice(tail);
        mac.buf_len = tail.len();
        mac.finalize()
    }

    /// `update_lanes` on a tier's Poly1305 lane count, once per part.
    struct Update<'a> {
        mac: Poly1305,
        parts: [&'a [u8]; 2],
    }

    impl Kernel for Update<'_> {
        type Out = Poly1305;

        #[inline(always)]
        fn run<const P: usize>(mut self, _: Option<HasAvx512f>) -> Poly1305 {
            for part in self.parts {
                self.mac.update_lanes::<P>(part);
            }
            self.mac
        }
    }

    #[test]
    fn every_tier_matches_the_one_block_path() {
        // Each tier this CPU has (portable 4 lanes, AVX2 4, AVX-512F 8)
        // against the one-block step. Every length up to a page and a bit,
        // so each group count and leftover shows up, plus an ORAM bucket.
        // A prefix of 16 to 47 bytes, under 4 blocks so no tier's lanes
        // take it, leaves a nonzero running `h` and mostly a partly filled
        // buffer when the lanes start. Every other case is all 0xff (the
        // largest clamped r and the largest blocks), the corner of the
        // limb bounds, which the test profile's overflow checks guard.
        let tiers: Vec<Tier> = Tier::supported().collect();
        println!("tiers run: {tiers:?}");
        let mut rng = autarky_prng::SimRng::seed_from_u64(0x5a09);
        for len in (0..=4_200).chain([16_416]) {
            for all_ff in [false, true] {
                let (key, data) = if all_ff {
                    ([0xffu8; 32], vec![0xffu8; len])
                } else {
                    let mut key = [0u8; 32];
                    let mut data = vec![0u8; len];
                    rng.fill_bytes(&mut key);
                    rng.fill_bytes(&mut data);
                    (key, data)
                };
                let expected = one_block_tag(&key, &data);
                let (prefix, rest) = data.split_at(len.min(16 + rng.gen_below(32) as usize));
                for &tier in &tiers {
                    let mac = tier.run(Update {
                        mac: Poly1305::new(&key),
                        parts: [prefix, rest],
                    });
                    assert_eq!(
                        mac.finalize(),
                        expected,
                        "{tier:?}, len {len}, prefix {}, all 0xff {all_ff}",
                        prefix.len()
                    );
                }
            }
        }
    }
}
