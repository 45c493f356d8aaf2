//! RFC 7539 Poly1305 one-time authenticator.
//!
//! Arithmetic is modulo p = 2^130 - 5 on three limbs of 44, 44 and 42 bits
//! (`h = h0 + h1·2^44 + h2·2^88`) held in `u64`, with `u64 × u64 → u128`
//! products: the shape of poly1305-donna's 64-bit variant, 9 multiplies
//! per block where five 26-bit limbs take 25. A product term that
//! lands at 2^132 or above wraps round to the bottom as ×20 (2^130 ≡ 5,
//! times the 2^2 left over from 44 + 88 − 130).
//!
//! [`Poly1305::update`] folds two blocks per step as
//! `h = (h + m0)·r² + m1·r`, with `r²` computed once in [`Poly1305::new`];
//! the `m1·r` products do not wait for `h`, so the two halves overlap in
//! the pipeline and one carry chain serves both blocks. A lone block (the
//! odd one out, or the padded tail) takes `h = (h + m)·r`.
//!
//! Limb bounds, which keep every sum inside its type:
//!
//! - clamped `r` has `r0, r1 < 2^44` and `r2 < 2^36`; `r²`, after the same
//!   carry as `h`, has `r0 < 2^44`, `r1 < 2^44 + 2^13`, `r2 < 2^42`;
//! - `h` after a carry has `h0 < 2^44`, `h1 < 2^44 + 2^13`, `h2 < 2^42`; a
//!   block adds less than `2^44`, `2^44`, `2^41` (hibit included), so every
//!   limb of `h + m` is below `2^45.01`, and every `20·r` limb below
//!   `2^48.4`;
//! - a column of the two-block step sums six products, each below
//!   `2^45.01 · 2^48.4`, so it stays below `2^96`; the carry out of the top
//!   limb, `d2 >> 42`, is below `2^54`, so `·5` fits in `u64`, and the
//!   carry that lands back in `h1` is below `2^13`.
//!
//! The test profile keeps overflow checks, so a bound broken by a future
//! edit panics in `cargo test` rather than corrupting a tag.
//!
//! As in the rest of the crate there are no intrinsics and no `unsafe`.

/// Key length in bytes (16-byte `r` + 16-byte `s`).
pub const KEY_LEN: usize = 32;

/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// 2^128 in limb 2: the bit RFC 7539 appends to every full block.
const HIBIT: u64 = 1 << 40;

/// An element mod 2^130 - 5 in 44/44/42-bit limbs, not fully reduced.
type Limbs = [u64; 3];

/// Load a 16-byte block as limbs; `hibit` is [`HIBIT`] for a full block
/// and 0 for the padded tail.
fn load(block: &[u8], hibit: u64) -> Limbs {
    let t0 = u64::from_le_bytes(block[0..8].try_into().expect("8"));
    let t1 = u64::from_le_bytes(block[8..16].try_into().expect("8"));
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        (t1 >> 24) | hibit,
    ]
}

/// `a·b` as three unreduced column sums (terms past 2^130 folded by ×20).
#[inline(always)]
fn mul(a: &Limbs, b: &Limbs) -> [u128; 3] {
    let m = |x: u64, y: u64| x as u128 * y as u128;
    let s1 = b[1] * 20;
    let s2 = b[2] * 20;
    [
        m(a[0], b[0]) + m(a[1], s2) + m(a[2], s1),
        m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], s2),
        m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]),
    ]
}

/// One carry pass over column sums back to limbs (bounds in the module
/// docs).
#[inline(always)]
fn carry(d: [u128; 3]) -> Limbs {
    let [d0, mut d1, mut d2] = d;
    let h0 = d0 as u64 & MASK44;
    d1 += d0 >> 44;
    let h1 = d1 as u64 & MASK44;
    d2 += d1 >> 44;
    let h2 = d2 as u64 & MASK42;
    let h0 = h0 + (d2 >> 42) as u64 * 5;
    [h0 & MASK44, h1 + (h0 >> 44), h2]
}

/// Streaming Poly1305 context.
pub struct Poly1305 {
    r: Limbs,
    /// `r²`, for the two-block step.
    rr: Limbs,
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
        let t0 = u64::from_le_bytes(key[0..8].try_into().expect("8"));
        let t1 = u64::from_le_bytes(key[8..16].try_into().expect("8"));
        let r = [
            t0 & 0x0ffc_0fff_ffff,
            ((t0 >> 44) | (t1 << 20)) & 0x0fff_ffc0_ffff,
            (t1 >> 24) & 0x000f_ffff_fc0f,
        ];
        Self {
            r,
            rr: carry(mul(&r, &r)),
            h: [0; 3],
            pad: u128::from_le_bytes(key[16..32].try_into().expect("16")),
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// `h = (h + m)·r` for one block.
    fn block(&mut self, block: &[u8], hibit: u64) {
        let m = load(block, hibit);
        let h = [self.h[0] + m[0], self.h[1] + m[1], self.h[2] + m[2]];
        self.h = carry(mul(&h, &self.r));
    }

    /// `h = (h + m0)·r² + m1·r` for two full blocks.
    fn blocks2(&mut self, pair: &[u8]) {
        let m0 = load(&pair[..16], HIBIT);
        let m1 = load(&pair[16..], HIBIT);
        let h = [self.h[0] + m0[0], self.h[1] + m0[1], self.h[2] + m0[2]];
        let a = mul(&h, &self.rr);
        let b = mul(&m1, &self.r);
        self.h = carry([a[0] + b[0], a[1] + b[1], a[2] + b[2]]);
    }

    /// Absorb message data.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
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
        let mut pairs = data.chunks_exact(32);
        for pair in &mut pairs {
            self.blocks2(pair);
        }
        data = pairs.remainder();
        if data.len() >= 16 {
            self.block(&data[..16], HIBIT);
            data = &data[16..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
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
        let [mut h0, mut h1, mut h2] = self.h;

        // Two full carry passes leave canonical limbs and h < 2^130.
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }

        // g = h + 5 - 2^130, i.e. h - p; its top limb is left unmasked so
        // the 2^130 carry out of h + 5 survives the subtraction.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        // Select g if it did not go negative (h ≥ p), else h.
        let mask = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !mask) | (g0 & MASK44 & mask);
        h1 = (h1 & !mask) | (g1 & MASK44 & mask);
        h2 = (h2 & !mask) | (g2 & mask);

        // h mod 2^128, plus the pad.
        let h = h0 as u128 | (h1 as u128) << 44 | (h2 as u128) << 88;
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
}
