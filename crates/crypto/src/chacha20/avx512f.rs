//! The AVX-512F ChaCha20 kernel: 16 blocks side by side in `std::arch`
//! intrinsics.
//!
//! Row `w` of the state is one `zmm` whose lane `l` holds word `w` of
//! block `l`. After the rounds, a transpose in registers turns the 16 rows
//! into 16 blocks, so each block's keystream XORs into the data with one
//! unaligned 64-byte load and store. The intrinsics are safe to call here
//! because every function that calls one is itself
//! `#[target_feature(enable = "avx512f")]`; the only `unsafe` is the call
//! into [`kernel`], backed by [`HasAvx512f`], and the raw-pointer load and
//! store, each in a helper over a 64-byte array.

use core::arch::x86_64::{
    __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_rol_epi32, _mm512_set1_epi32,
    _mm512_setr_epi32, _mm512_shuffle_i32x4, _mm512_storeu_si512, _mm512_unpackhi_epi32,
    _mm512_unpackhi_epi64, _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm512_xor_si512,
};

use crate::tier::HasAvx512f;

/// Blocks per chunk: one per 32-bit lane of a `zmm`.
const BLOCKS: usize = 16;

/// XOR the keystream into every whole 16-block chunk of `data`, advance
/// the counter in `state` past them, and return the tail left over.
#[inline(always)]
pub(super) fn xor_chunks<'a>(
    _cpu: HasAvx512f,
    state: &mut [u32; 16],
    data: &'a mut [u8],
) -> &'a mut [u8] {
    // SAFETY: `kernel`'s only precondition is a CPU with AVX-512F, and
    // `_cpu` proves it: only `Tier::run` makes a `HasAvx512f`, after
    // checking for the feature.
    #[allow(unsafe_code)]
    unsafe {
        kernel(state, data)
    }
}

/// [`xor_chunks`]' body, compiled for AVX-512F.
#[target_feature(enable = "avx512f")]
fn kernel<'a>(state: &mut [u32; 16], data: &'a mut [u8]) -> &'a mut [u8] {
    let mut chunks = data.chunks_exact_mut(64 * BLOCKS);
    for chunk in &mut chunks {
        let (blocks, _) = chunk.as_chunks_mut::<64>();
        xor_chunk(state, blocks.try_into().expect("a chunk is 16 blocks"));
        state[12] = state[12].wrapping_add(BLOCKS as u32);
    }
    chunks.into_remainder()
}

/// One quarter round on rows `a`, `b`, `c` and `d` of `x`, in all 16
/// blocks at once.
macro_rules! quarter_round {
    ($x:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
        $x[$a] = _mm512_add_epi32($x[$a], $x[$b]);
        $x[$d] = _mm512_rol_epi32::<16>(_mm512_xor_si512($x[$d], $x[$a]));
        $x[$c] = _mm512_add_epi32($x[$c], $x[$d]);
        $x[$b] = _mm512_rol_epi32::<12>(_mm512_xor_si512($x[$b], $x[$c]));
        $x[$a] = _mm512_add_epi32($x[$a], $x[$b]);
        $x[$d] = _mm512_rol_epi32::<8>(_mm512_xor_si512($x[$d], $x[$a]));
        $x[$c] = _mm512_add_epi32($x[$c], $x[$d]);
        $x[$b] = _mm512_rol_epi32::<7>(_mm512_xor_si512($x[$b], $x[$c]));
    };
}

/// XOR the 16 keystream blocks from `state`'s counter on into `blocks`.
#[target_feature(enable = "avx512f")]
fn xor_chunk(state: &[u32; 16], blocks: &mut [[u8; 64]; BLOCKS]) {
    let mut init = [_mm512_set1_epi32(0); 16];
    for (row, &word) in init.iter_mut().zip(state) {
        *row = _mm512_set1_epi32(word as i32);
    }
    // Block `l` counts `c + l`, wrapping mod 2^32 like the one-block path.
    let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    init[12] = _mm512_add_epi32(init[12], lanes);
    let mut x = init;
    for _ in 0..10 {
        quarter_round!(x, 0, 4, 8, 12);
        quarter_round!(x, 1, 5, 9, 13);
        quarter_round!(x, 2, 6, 10, 14);
        quarter_round!(x, 3, 7, 11, 15);
        quarter_round!(x, 0, 5, 10, 15);
        quarter_round!(x, 1, 6, 11, 12);
        quarter_round!(x, 2, 7, 8, 13);
        quarter_round!(x, 3, 4, 9, 14);
    }
    for (row, start) in x.iter_mut().zip(init) {
        *row = _mm512_add_epi32(*row, start);
    }
    for (block, key) in blocks.iter_mut().zip(transpose(x)) {
        store(block, _mm512_xor_si512(load(block), key));
    }
}

/// Turn 16 rows, row `w` holding word `w` of blocks 0 to 15, into 16
/// blocks, register `b` holding block `b`'s 16 words in order.
///
/// A `zmm` is four 128-bit quarters, and quarter `q` of a row holds
/// blocks `4q..4q+4`. The 32-bit and then 64-bit unpacks transpose each
/// quarter's 4×4 words, leaving `y[4g + j]` with words `4g..4g+4` of
/// block `4q + j` in quarter `q`. The two rounds of quarter shuffles then
/// transpose the 4×4 quarters of `y[j], y[4 + j], y[8 + j], y[12 + j]`.
#[target_feature(enable = "avx512f")]
fn transpose(x: [__m512i; 16]) -> [__m512i; 16] {
    let mut t = x;
    for p in 0..8 {
        t[2 * p] = _mm512_unpacklo_epi32(x[2 * p], x[2 * p + 1]);
        t[2 * p + 1] = _mm512_unpackhi_epi32(x[2 * p], x[2 * p + 1]);
    }
    let mut y = t;
    for g in 0..4 {
        let r = 4 * g;
        y[r] = _mm512_unpacklo_epi64(t[r], t[r + 2]);
        y[r + 1] = _mm512_unpackhi_epi64(t[r], t[r + 2]);
        y[r + 2] = _mm512_unpacklo_epi64(t[r + 1], t[r + 3]);
        y[r + 3] = _mm512_unpackhi_epi64(t[r + 1], t[r + 3]);
    }
    let mut out = y;
    for j in 0..4 {
        // Quarters 0 and 1, then 2 and 3, of word groups 0 and 1, then 2
        // and 3.
        let lo01 = _mm512_shuffle_i32x4::<0x44>(y[j], y[4 + j]);
        let hi01 = _mm512_shuffle_i32x4::<0xee>(y[j], y[4 + j]);
        let lo23 = _mm512_shuffle_i32x4::<0x44>(y[8 + j], y[12 + j]);
        let hi23 = _mm512_shuffle_i32x4::<0xee>(y[8 + j], y[12 + j]);
        // Even quarters, then odd ones: word groups 0 to 3 of one block.
        out[j] = _mm512_shuffle_i32x4::<0x88>(lo01, lo23);
        out[4 + j] = _mm512_shuffle_i32x4::<0xdd>(lo01, lo23);
        out[8 + j] = _mm512_shuffle_i32x4::<0x88>(hi01, hi23);
        out[12 + j] = _mm512_shuffle_i32x4::<0xdd>(hi01, hi23);
    }
    out
}

/// Load a block's 64 bytes.
#[target_feature(enable = "avx512f")]
fn load(block: &[u8; 64]) -> __m512i {
    // SAFETY: `block` is 64 readable bytes, and `loadu` takes any
    // alignment.
    #[allow(unsafe_code)]
    unsafe {
        _mm512_loadu_si512(block.as_ptr().cast())
    }
}

/// Store 64 bytes over a block.
#[target_feature(enable = "avx512f")]
fn store(block: &mut [u8; 64], v: __m512i) {
    // SAFETY: `block` is 64 writable bytes, and `storeu` takes any
    // alignment.
    #[allow(unsafe_code)]
    unsafe {
        _mm512_storeu_si512(block.as_mut_ptr().cast(), v)
    }
}
