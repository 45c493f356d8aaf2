//! `font`: FreeType-style glyph rendering with every page pinned (paper
//! Table 2). No faults, no ORAM and no crypto: only the access path
//! (TLB, page table, range translation) and the workload's own compute.
//! It is the control for changes to every other layer.

use autarky::{Profile, SystemBuilder};
use autarky_prng::SimRng;
use autarky_workloads::font::FontRenderer;
use autarky_workloads::{EncHeap, World};

use super::{stream_seed, Session, Shape};

/// Two million glyphs, all measured: a pinned enclave has nothing to
/// warm up.
pub const SHAPE: Shape = Shape {
    op: "font.render",
    warmup: 0,
    measured: 2_000_000,
    mix: 0.0,
};

/// Output slots in the renderer's bitmap buffer.
pub const SLOTS: usize = 64;

const ALPHABET: std::ops::RangeInclusive<u8> = b'a'..=b'z';

/// The font workload's world, text and reference bitmaps.
pub struct Font {
    world: World,
    heap: EncHeap,
    font: FontRenderer,
    text: Vec<u8>,
    golden: Vec<Vec<u8>>,
    rendered: usize,
}

fn pinned_world(name: &str) -> Result<(World, EncHeap), String> {
    SystemBuilder::new(name, Profile::PinAll)
        .epc_pages(4096)
        .heap_pages(256)
        .code_pages(24)
        .build()
        .map_err(|e| format!("font: build: {e}"))
}

/// `count` seeded lowercase letters.
pub fn text(seed: u64, count: usize) -> Vec<u8> {
    let mut rng = SimRng::seed_from_u64(stream_seed(seed, 6));
    let span = (ALPHABET.end() - ALPHABET.start() + 1) as u64;
    (0..count)
        .map(|_| ALPHABET.start() + rng.gen_below(span) as u8)
        .collect()
}

impl Font {
    /// Generate the text, render one reference bitmap per letter on a
    /// separate world, and build the measured renderer.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let text = text(seed, SHAPE.measured);
        let (mut ref_world, mut ref_heap) = pinned_world("bench-font-ref")?;
        let mut reference = FontRenderer::new(&mut ref_world, &mut ref_heap, 1)
            .map_err(|e| format!("font: reference renderer: {e}"))?;
        let golden = ALPHABET
            .map(|c| {
                reference
                    .render_glyph(&mut ref_world, &mut ref_heap, c as char, 0)
                    .and_then(|()| reference.read_glyph(&mut ref_world, &mut ref_heap, 0))
                    .map_err(|e| format!("font: reference glyph: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let (mut world, mut heap) = pinned_world("bench-font")?;
        let font = FontRenderer::new(&mut world, &mut heap, SLOTS)
            .map_err(|e| format!("font: renderer: {e}"))?;
        Ok(Self {
            world,
            heap,
            font,
            text,
            golden,
            rendered: 0,
        })
    }
}

impl Session for Font {
    fn world(&self) -> &World {
        &self.world
    }

    fn heap(&self) -> &EncHeap {
        &self.heap
    }

    fn op(&mut self, i: usize) -> Result<(), String> {
        self.font
            .render_glyph(
                &mut self.world,
                &mut self.heap,
                self.text[i] as char,
                i % SLOTS,
            )
            .map_err(|e| format!("font: render glyph {i}: {e}"))?;
        self.rendered = i + 1;
        Ok(())
    }

    /// Read back every slot and compare it with the reference bitmap of
    /// the glyph last rendered into it.
    fn check(&mut self) -> Result<(), String> {
        for slot in 0..SLOTS.min(self.rendered) {
            let last = (self.rendered - 1 - slot) / SLOTS * SLOTS + slot;
            let bitmap = self
                .font
                .read_glyph(&mut self.world, &mut self.heap, slot)
                .map_err(|e| format!("font: read slot {slot}: {e}"))?;
            let letter = (self.text[last] - ALPHABET.start()) as usize;
            if bitmap != self.golden[letter] {
                return Err(format!("font: slot {slot} does not hold glyph {last}"));
            }
        }
        Ok(())
    }
}
