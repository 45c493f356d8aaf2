//! A miniature JPEG-style image codec with libjpeg's leaky access
//! pattern (paper §7.3, Table 2; attack from Xu et al. \[76\]).
//!
//! The codec is real: 8×8 block DCT, quantization, zig-zag + RLE entropy
//! coding, and the inverse pipeline. The controlled-channel relevance is
//! libjpeg's IDCT optimization: blocks whose AC coefficients are all zero
//! skip the full inverse transform and splat the DC value ("dcval"
//! shortcut). The two paths live on *different code pages* and touch
//! working memory differently, so a page-granular trace of the decoder
//! reveals which image blocks are flat — enough to reconstruct the
//! picture.
//!
//! The decoder executes its two paths at distinct simulated code-page
//! addresses, and keeps its working buffers in enclave memory, exactly
//! reproducing that signature.

use autarky_runtime::RtError;
use autarky_sgx_sim::Va;

use crate::encmem::{EncHeap, Ptr, World};

/// 8×8 quantization table (a scaled luminance table).
const QUANT: [i32; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55, 14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62, 18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113,
    92, 49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
];

/// Zig-zag scan order.
const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// A compressed image (lives in untrusted I/O space; it is ciphertext in
/// a real deployment, so host storage is fine).
#[derive(Debug, Clone)]
pub struct Compressed {
    /// Image width in pixels (multiple of 8).
    pub width: usize,
    /// Image height in pixels (multiple of 8).
    pub height: usize,
    /// Entropy-coded block data.
    pub data: Vec<i16>,
}

fn dct_1d(row: &mut [f64; 8]) {
    let mut out = [0f64; 8];
    for (u, o) in out.iter_mut().enumerate() {
        let cu = if u == 0 { (0.5f64).sqrt() } else { 1.0 };
        let mut sum = 0.0;
        for (x, &v) in row.iter().enumerate() {
            sum += v * (((2 * x + 1) as f64) * (u as f64) * std::f64::consts::PI / 16.0).cos();
        }
        *o = 0.5 * cu * sum;
    }
    *row = out;
}

fn idct_1d(row: &mut [f64; 8]) {
    let mut out = [0f64; 8];
    for (x, o) in out.iter_mut().enumerate() {
        let mut sum = 0.0;
        for (u, &v) in row.iter().enumerate() {
            let cu = if u == 0 { (0.5f64).sqrt() } else { 1.0 };
            sum += cu * v * (((2 * x + 1) as f64) * (u as f64) * std::f64::consts::PI / 16.0).cos();
        }
        *o = 0.5 * sum;
    }
    *row = out;
}

fn forward_block(pixels: &[u8; 64]) -> [i16; 64] {
    let mut m = [0f64; 64];
    for (i, &p) in pixels.iter().enumerate() {
        m[i] = p as f64 - 128.0;
    }
    // Rows then columns.
    for r in 0..8 {
        let mut row = [0f64; 8];
        row.copy_from_slice(&m[r * 8..r * 8 + 8]);
        dct_1d(&mut row);
        m[r * 8..r * 8 + 8].copy_from_slice(&row);
    }
    for c in 0..8 {
        let mut col = [0f64; 8];
        for r in 0..8 {
            col[r] = m[r * 8 + c];
        }
        dct_1d(&mut col);
        for r in 0..8 {
            m[r * 8 + c] = col[r];
        }
    }
    let mut q = [0i16; 64];
    for i in 0..64 {
        q[i] = (m[i] / QUANT[i] as f64).round() as i16;
    }
    q
}

fn inverse_block(coeffs: &[i16; 64]) -> [u8; 64] {
    let mut m = [0f64; 64];
    for i in 0..64 {
        m[i] = (coeffs[i] as i32 * QUANT[i]) as f64;
    }
    for c in 0..8 {
        let mut col = [0f64; 8];
        for r in 0..8 {
            col[r] = m[r * 8 + c];
        }
        idct_1d(&mut col);
        for r in 0..8 {
            m[r * 8 + c] = col[r];
        }
    }
    for r in 0..8 {
        let mut row = [0f64; 8];
        row.copy_from_slice(&m[r * 8..r * 8 + 8]);
        idct_1d(&mut row);
        m[r * 8..r * 8 + 8].copy_from_slice(&row);
    }
    let mut out = [0u8; 64];
    for i in 0..64 {
        out[i] = (m[i] + 128.0).round().clamp(0.0, 255.0) as u8;
    }
    out
}

/// Encode a host-side image (the *input* path of the pipeline is public
/// in the attack scenario; the secret is the decoded content inside the
/// enclave).
pub fn encode(width: usize, height: usize, pixels: &[u8]) -> Compressed {
    assert_eq!(width % 8, 0);
    assert_eq!(height % 8, 0);
    assert_eq!(pixels.len(), width * height);
    let mut data = Vec::new();
    for by in (0..height).step_by(8) {
        for bx in (0..width).step_by(8) {
            let mut block = [0u8; 64];
            for y in 0..8 {
                for x in 0..8 {
                    block[y * 8 + x] = pixels[(by + y) * width + bx + x];
                }
            }
            let q = forward_block(&block);
            // Zig-zag + trailing-zero truncation (RLE-lite): emit the
            // count of significant coefficients, then the coefficients.
            let zz: Vec<i16> = ZIGZAG.iter().map(|&i| q[i]).collect();
            let sig = zz.iter().rposition(|&v| v != 0).map(|p| p + 1).unwrap_or(0);
            data.push(sig as i16);
            data.extend_from_slice(&zz[..sig]);
        }
    }
    Compressed {
        width,
        height,
        data,
    }
}

/// Where the decoder's two IDCT paths "live" as code pages, relative to
/// the enclave's code region (offsets in pages).
pub const CODE_PAGE_IDCT_FULL: u64 = 1;
/// Code page of the flat-block (DC-only) shortcut.
pub const CODE_PAGE_IDCT_DCVAL: u64 = 2;

/// The in-enclave decoder.
pub struct Decoder {
    /// Output framebuffer in enclave memory.
    pub framebuffer: Ptr,
    width: usize,
    height: usize,
    /// Number of blocks that took the DC-only shortcut (diagnostics).
    pub dcval_blocks: u64,
    /// Number of blocks that ran the full IDCT.
    pub full_blocks: u64,
}

impl Decoder {
    /// Allocate the output framebuffer for a `width`×`height` decode.
    pub fn new(
        world: &mut World,
        heap: &mut EncHeap,
        width: usize,
        height: usize,
    ) -> Result<Self, RtError> {
        let framebuffer = heap.alloc(world, width * height)?;
        Ok(Self {
            framebuffer,
            width,
            height,
            dcval_blocks: 0,
            full_blocks: 0,
        })
    }

    /// Decode `compressed` into the framebuffer, reproducing libjpeg's
    /// data-dependent code-page and memory-access signature.
    pub fn decode(
        &mut self,
        world: &mut World,
        heap: &mut EncHeap,
        compressed: &Compressed,
    ) -> Result<(), RtError> {
        assert_eq!(compressed.width, self.width);
        assert_eq!(compressed.height, self.height);
        let code_base = world.image.code_start();
        let full_va = Va((code_base.0 + CODE_PAGE_IDCT_FULL) << 12);
        let dcval_va = Va((code_base.0 + CODE_PAGE_IDCT_DCVAL) << 12);

        let mut cursor = 0usize;
        for by in (0..self.height).step_by(8) {
            for bx in (0..self.width).step_by(8) {
                let sig = compressed.data[cursor] as usize;
                cursor += 1;
                let mut coeffs = [0i16; 64];
                for i in 0..sig {
                    coeffs[ZIGZAG[i]] = compressed.data[cursor + i];
                }
                cursor += sig;

                let flat = sig <= 1; // DC only (or empty)
                if flat {
                    // libjpeg's "dcval" shortcut: distinct code page, and
                    // only a splat of one value into the output rows.
                    world.rt.exec(&mut world.os, dcval_va)?;
                    self.dcval_blocks += 1;
                    let dc = ((coeffs[0] as i32 * QUANT[0]) as f64 / 8.0 + 128.0)
                        .round()
                        .clamp(0.0, 255.0) as u8;
                    let row = [dc; 8];
                    for y in 0..8 {
                        let off = ((by + y) * self.width + bx) as u64;
                        heap.write(world, self.framebuffer.offset(off), &row)?;
                    }
                } else {
                    // Full inverse transform: different code page, plus
                    // the per-block working state.
                    world.rt.exec(&mut world.os, full_va)?;
                    self.full_blocks += 1;
                    let block = inverse_block(&coeffs);
                    for y in 0..8 {
                        let off = ((by + y) * self.width + bx) as u64;
                        heap.write(
                            world,
                            self.framebuffer.offset(off),
                            &block[y * 8..y * 8 + 8],
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Read the decoded image back out (for checks / the invert stage).
    pub fn read_image(&self, world: &mut World, heap: &mut EncHeap) -> Result<Vec<u8>, RtError> {
        let mut out = vec![0u8; self.width * self.height];
        let mut offset = 0usize;
        // Page-sized chunks keep the access count realistic.
        while offset < out.len() {
            let chunk = (out.len() - offset).min(4096);
            heap.read(
                world,
                self.framebuffer.offset(offset as u64),
                &mut out[offset..offset + chunk],
            )?;
            offset += chunk;
        }
        Ok(out)
    }

    /// Invert the image in place (the insensitive filter stage of the
    /// §7.3 pipeline: access pattern is content-independent).
    pub fn invert(&mut self, world: &mut World, heap: &mut EncHeap) -> Result<(), RtError> {
        let total = self.width * self.height;
        let mut offset = 0usize;
        let mut buf = vec![0u8; 4096];
        while offset < total {
            let chunk = (total - offset).min(4096);
            heap.read(
                world,
                self.framebuffer.offset(offset as u64),
                &mut buf[..chunk],
            )?;
            for b in &mut buf[..chunk] {
                *b = 255 - *b;
            }
            heap.write(world, self.framebuffer.offset(offset as u64), &buf[..chunk])?;
            offset += chunk;
        }
        Ok(())
    }
}

/// Synthesize a deterministic grayscale test image: smooth flat regions
/// (which compress to DC-only blocks) with a detailed object whose shape
/// depends on `seed` — the "secret" the attack tries to recover.
pub fn synth_image(width: usize, height: usize, seed: u64) -> Vec<u8> {
    let mut pixels = vec![0u8; width * height];
    let cx = (crate::uthash::hash64(seed) % width as u64) as f64;
    let cy = (crate::uthash::hash64(seed ^ 0xABCD) % height as u64) as f64;
    let radius = (width.min(height) / 4) as f64;
    for y in 0..height {
        for x in 0..width {
            let dx = x as f64 - cx;
            let dy = y as f64 - cy;
            let dist = (dx * dx + dy * dy).sqrt();
            pixels[y * width + x] = if dist < radius {
                // Textured disc: high-frequency content.
                let t = crate::uthash::hash64(seed ^ ((x as u64) << 20) ^ y as u64);
                128u8.wrapping_add((t % 96) as u8)
            } else {
                // Flat background.
                200
            };
        }
    }
    pixels
}

/// A secret-input pair for leakage audits: two images of identical
/// dimensions and byte length whose decoders execute *different* IDCT
/// code-page sequences (the disc position — the secret — moves, so the
/// block flatness maps differ while everything public about the inputs
/// is equal).
pub fn secret_pair(side: usize) -> (Vec<u8>, Vec<u8>) {
    let a = synth_image(side, side, 0x5EC2E7);
    let map_a = flatness_map(&encode(side, side, &a));
    // Scan forward from a fixed seed until the block map differs; with a
    // seed-positioned disc this terminates immediately in practice.
    let mut seed = 0xB10C;
    loop {
        let b = synth_image(side, side, seed);
        if flatness_map(&encode(side, side, &b)) != map_a {
            return (a, b);
        }
        seed += 1;
    }
}

/// Block-level "flatness map" of an image — what the controlled-channel
/// attack recovers from the decoder's code-page trace.
pub fn flatness_map(compressed: &Compressed) -> Vec<bool> {
    let mut map = Vec::new();
    let mut cursor = 0usize;
    let blocks = (compressed.width / 8) * (compressed.height / 8);
    for _ in 0..blocks {
        let sig = compressed.data[cursor] as usize;
        cursor += 1 + sig;
        map.push(sig <= 1);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_os_sim::EnclaveImage;
    use autarky_runtime::RuntimeConfig;
    use autarky_sgx_sim::machine::MachineConfig;

    fn world(heap_pages: usize) -> World {
        let mut img = EnclaveImage::named("jpeg-test");
        img.heap_pages = heap_pages;
        img.code_pages = 8;
        World::new(
            MachineConfig {
                epc_frames: heap_pages + 128,
                ..Default::default()
            },
            img,
            RuntimeConfig::default(),
        )
        .expect("world")
    }

    #[test]
    fn codec_roundtrip_is_lossy_but_close() {
        let pixels = synth_image(64, 64, 7);
        let compressed = encode(64, 64, &pixels);
        let mut w = world(64);
        let mut heap = EncHeap::direct();
        let mut dec = Decoder::new(&mut w, &mut heap, 64, 64).expect("decoder");
        dec.decode(&mut w, &mut heap, &compressed).expect("decode");
        let out = dec.read_image(&mut w, &mut heap).expect("read");
        // JPEG is lossy: require mean absolute error under 12 gray levels.
        let mae: f64 = pixels
            .iter()
            .zip(&out)
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .sum::<f64>()
            / pixels.len() as f64;
        assert!(mae < 12.0, "mean abs error {mae}");
    }

    #[test]
    fn flat_background_takes_dcval_path() {
        let pixels = synth_image(64, 64, 3);
        let compressed = encode(64, 64, &pixels);
        let mut w = world(64);
        let mut heap = EncHeap::direct();
        let mut dec = Decoder::new(&mut w, &mut heap, 64, 64).expect("decoder");
        dec.decode(&mut w, &mut heap, &compressed).expect("decode");
        assert!(dec.dcval_blocks > 0, "flat blocks exist");
        assert!(dec.full_blocks > 0, "textured blocks exist");
        // The disc covers ~πr² / (w·h) ≈ 20% of the image; most blocks
        // should be flat.
        assert!(dec.dcval_blocks > dec.full_blocks);
    }

    #[test]
    fn flatness_map_matches_decoder_paths() {
        let pixels = synth_image(64, 64, 11);
        let compressed = encode(64, 64, &pixels);
        let map = flatness_map(&compressed);
        let mut w = world(64);
        let mut heap = EncHeap::direct();
        let mut dec = Decoder::new(&mut w, &mut heap, 64, 64).expect("decoder");
        dec.decode(&mut w, &mut heap, &compressed).expect("decode");
        assert_eq!(map.iter().filter(|&&f| f).count() as u64, dec.dcval_blocks);
    }

    #[test]
    fn invert_is_involutive() {
        let pixels = synth_image(32, 32, 5);
        let compressed = encode(32, 32, &pixels);
        let mut w = world(64);
        let mut heap = EncHeap::direct();
        let mut dec = Decoder::new(&mut w, &mut heap, 32, 32).expect("decoder");
        dec.decode(&mut w, &mut heap, &compressed).expect("decode");
        let before = dec.read_image(&mut w, &mut heap).expect("read");
        dec.invert(&mut w, &mut heap).expect("invert");
        dec.invert(&mut w, &mut heap).expect("invert again");
        let after = dec.read_image(&mut w, &mut heap).expect("read");
        assert_eq!(before, after);
    }

    #[test]
    fn secret_pair_same_shape_different_block_maps() {
        let (a, b) = secret_pair(32);
        assert_eq!(a.len(), b.len(), "identical byte length");
        assert_ne!(a, b, "contents differ");
        let map_a = flatness_map(&encode(32, 32, &a));
        let map_b = flatness_map(&encode(32, 32, &b));
        assert_eq!(map_a.len(), map_b.len(), "same block count");
        assert_ne!(map_a, map_b, "the secret shapes the decode path");
    }

    #[test]
    fn different_seeds_different_flatness() {
        let a = flatness_map(&encode(64, 64, &synth_image(64, 64, 1)));
        let b = flatness_map(&encode(64, 64, &synth_image(64, 64, 2)));
        assert_ne!(a, b, "the secret (disc position) shapes the block map");
    }
}
