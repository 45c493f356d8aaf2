//! A FreeType-style glyph renderer (paper §7.3, Table 2; attack from Xu
//! et al. \[76\]).
//!
//! The original attack recovered rendered text purely from *instruction
//! fetches*: each character's rendering routine executes a distinctive
//! sequence of code pages. The model gives every glyph a deterministic set
//! of code pages (its "outline program") and executes them on render,
//! plus writes the rasterized bitmap into an output buffer.
//!
//! The defense (Table 2) is simply pinning all code pages — FreeType's
//! code comfortably fits EPC — after which rendering runs with *zero*
//! measurable overhead and zero leakage.

use autarky_runtime::RtError;
use autarky_sgx_sim::Va;

use crate::encmem::{EncHeap, Ptr, World};
use crate::uthash::hash64;

/// Glyph bitmap side (pixels).
pub const GLYPH_SIZE: usize = 16;

/// Number of code pages the renderer's glyph programs span.
pub const FONT_CODE_PAGES: u64 = 12;

/// The code pages (offsets into the enclave's code region) glyph `c`
/// executes. Deterministic, distinctive per character — the signature the
/// attack matches.
pub fn glyph_code_pages(c: char) -> Vec<u64> {
    let h = hash64(c as u64);
    let count = 3 + (h % 3) as usize; // 3-5 pages per glyph program
    let mut pages = Vec::with_capacity(count);
    let mut i = 0u64;
    while pages.len() < count {
        // Pages 3.. leave room for shared code; skip consecutive repeats
        // (a re-execution of the same page is invisible to a page-granular
        // tracer, so signatures avoid them for determinism).
        let page = 3 + hash64(h ^ i) % FONT_CODE_PAGES;
        if pages.last() != Some(&page) {
            pages.push(page);
        }
        i += 1;
    }
    pages
}

/// The in-enclave font renderer.
pub struct FontRenderer {
    output: Ptr,
    capacity_glyphs: usize,
    /// Glyphs rendered so far.
    pub rendered: u64,
}

impl FontRenderer {
    /// Allocate an output buffer for up to `capacity_glyphs` glyphs.
    pub fn new(
        world: &mut World,
        heap: &mut EncHeap,
        capacity_glyphs: usize,
    ) -> Result<Self, RtError> {
        let output = heap.alloc(world, capacity_glyphs * GLYPH_SIZE * GLYPH_SIZE)?;
        Ok(Self {
            output,
            capacity_glyphs,
            rendered: 0,
        })
    }

    /// Rasterize one character: execute its outline program's code pages
    /// and write the bitmap.
    pub fn render_glyph(
        &mut self,
        world: &mut World,
        heap: &mut EncHeap,
        c: char,
        slot: usize,
    ) -> Result<(), RtError> {
        debug_assert!(slot < self.capacity_glyphs);
        let code_base = world.image.code_start().0;
        for page in glyph_code_pages(c) {
            world.rt.exec(&mut world.os, Va((code_base + page) << 12))?;
        }
        // Rasterize: a deterministic per-character bitmap.
        let mut bitmap = [0u8; GLYPH_SIZE * GLYPH_SIZE];
        let h = hash64(c as u64);
        for (i, px) in bitmap.iter_mut().enumerate() {
            *px = ((hash64(h ^ i as u64) % 2) * 255) as u8;
        }
        let offset = (slot * GLYPH_SIZE * GLYPH_SIZE) as u64;
        heap.write(world, self.output.offset(offset), &bitmap)?;
        // Outline decoding + rasterization compute (FreeType renders a
        // glyph in ~20k cycles, matching the paper's 149 kop/s).
        world.compute(20_000);
        self.rendered += 1;
        world.progress(1);
        Ok(())
    }

    /// Render a whole string into consecutive slots (wrapping).
    pub fn render_text(
        &mut self,
        world: &mut World,
        heap: &mut EncHeap,
        text: &str,
    ) -> Result<(), RtError> {
        for (i, c) in text.chars().enumerate() {
            self.render_glyph(world, heap, c, i % self.capacity_glyphs)?;
        }
        Ok(())
    }

    /// Read back one rendered glyph bitmap.
    pub fn read_glyph(
        &self,
        world: &mut World,
        heap: &mut EncHeap,
        slot: usize,
    ) -> Result<Vec<u8>, RtError> {
        let mut bitmap = vec![0u8; GLYPH_SIZE * GLYPH_SIZE];
        let offset = (slot * GLYPH_SIZE * GLYPH_SIZE) as u64;
        heap.read(world, self.output.offset(offset), &mut bitmap)?;
        Ok(bitmap)
    }
}

/// A secret-input pair for leakage audits: two strings of `len`
/// characters (equal byte length) whose glyph programs execute different
/// code-page sequences. Characters are drawn from disjoint halves of the
/// lowercase alphabet; a final check guarantees the executed page
/// sequences actually differ (signatures are hash-derived, so two chars
/// *could* collide).
pub fn secret_pair(len: usize) -> (String, String) {
    let half_a: Vec<char> = "acegikmoqsuwy".chars().collect();
    let half_b: Vec<char> = "bdfhjlnprtvxz".chars().collect();
    let program = |s: &str| -> Vec<u64> { s.chars().flat_map(glyph_code_pages).collect() };
    let a: String = (0..len).map(|i| half_a[i % half_a.len()]).collect();
    for rotation in 0..half_b.len() {
        let b: String = (0..len)
            .map(|i| half_b[(i + rotation) % half_b.len()])
            .collect();
        if program(&b) != program(&a) {
            return (a, b);
        }
    }
    unreachable!("13 rotations of a disjoint alphabet half all collide");
}

/// The attack oracle: given a code-page access trace (page offsets into
/// the code region), recover the rendered characters by matching glyph
/// signatures. Works on the *legacy* trace; under Autarky the trace is
/// unavailable.
///
/// The tracer observes page *transitions*: when one glyph's last page
/// equals the next glyph's first page, that boundary fault is absent from
/// the trace, so matching tolerates an elided leading page.
pub fn recover_text_from_trace(trace: &[u64], alphabet: &[char]) -> String {
    let mut out = String::new();
    let mut i = 0usize;
    let mut last_page: Option<u64> = None;
    while i < trace.len() {
        // Longest-match wins: a shorter signature can be a prefix of a
        // longer one, so greedily matching the first hit mis-decodes.
        // `consumed` is how many trace entries the match uses (one less
        // when the leading page was elided by the transition effect).
        let best = alphabet
            .iter()
            .map(|&c| (c, glyph_code_pages(c)))
            .filter_map(|(c, sig)| {
                if trace[i..].starts_with(&sig) {
                    Some((c, sig.len(), sig.len()))
                } else if last_page == Some(sig[0]) && trace[i..].starts_with(&sig[1..]) {
                    Some((c, sig.len(), sig.len() - 1))
                } else {
                    None
                }
            })
            .max_by_key(|&(_, sig_len, _)| sig_len);
        match best {
            Some((c, _, consumed)) => {
                out.push(c);
                i += consumed;
                last_page = trace.get(i.wrapping_sub(1)).copied();
            }
            None => {
                last_page = Some(trace[i]);
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_os_sim::EnclaveImage;
    use autarky_runtime::RuntimeConfig;
    use autarky_sgx_sim::machine::MachineConfig;

    fn world() -> World {
        let mut img = EnclaveImage::named("font-test");
        img.code_pages = 16;
        img.heap_pages = 64;
        World::new(
            MachineConfig {
                epc_frames: 512,
                ..Default::default()
            },
            img,
            RuntimeConfig::default(),
        )
        .expect("world")
    }

    #[test]
    fn glyph_signatures_are_deterministic_and_mostly_distinct() {
        assert_eq!(glyph_code_pages('a'), glyph_code_pages('a'));
        let alphabet: Vec<char> = ('a'..='z').collect();
        let sigs: autarky_prng::SimSet<Vec<u64>> =
            alphabet.iter().map(|&c| glyph_code_pages(c)).collect();
        assert!(sigs.len() > 20, "only {} distinct signatures", sigs.len());
    }

    #[test]
    fn render_writes_bitmaps() {
        let mut w = world();
        let mut heap = EncHeap::direct();
        let mut font = FontRenderer::new(&mut w, &mut heap, 8).expect("renderer");
        font.render_text(&mut w, &mut heap, "hi").expect("render");
        assert_eq!(font.rendered, 2);
        let h_bitmap = font.read_glyph(&mut w, &mut heap, 0).expect("read");
        let i_bitmap = font.read_glyph(&mut w, &mut heap, 1).expect("read");
        assert_ne!(h_bitmap, i_bitmap, "glyphs differ");
        assert!(h_bitmap.iter().any(|&p| p != 0), "non-empty bitmap");
    }

    #[test]
    fn rendering_executes_glyph_code_pages() {
        let mut w = world();
        let mut heap = EncHeap::direct();
        let mut font = FontRenderer::new(&mut w, &mut heap, 4).expect("renderer");
        let (fills_before, _, _) = w.os.machine.tlb_stats();
        font.render_glyph(&mut w, &mut heap, 'q', 0)
            .expect("render");
        let (fills_after, _, _) = w.os.machine.tlb_stats();
        assert!(
            fills_after > fills_before,
            "code fetches go through the MMU"
        );
    }

    #[test]
    fn secret_pair_same_length_different_code_pages() {
        let (a, b) = secret_pair(12);
        assert_eq!(a.chars().count(), 12);
        assert_eq!(a.len(), b.len(), "identical byte length");
        assert_ne!(a, b);
        let program = |s: &str| -> Vec<u64> { s.chars().flat_map(glyph_code_pages).collect() };
        assert_ne!(program(&a), program(&b), "different executed page sets");
    }

    #[test]
    fn oracle_recovers_text_from_clean_trace() {
        // Build the exact trace rendering would produce.
        let secret = "hello";
        let mut trace = Vec::new();
        for c in secret.chars() {
            trace.extend(glyph_code_pages(c));
        }
        let alphabet: Vec<char> = ('a'..='z').collect();
        let recovered = recover_text_from_trace(&trace, &alphabet);
        assert_eq!(recovered, secret);
    }
}
