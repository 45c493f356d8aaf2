//! Table 2: end-to-end performance of real applications using page
//! clusters — libjpeg, Hunspell, and FreeType — in four variants:
//! unprotected, Autarky as measured, Autarky without the handler upcall
//! ("no upcall"), and Autarky without the upcall or the AEX ("no
//! upcall/AEX", the full hardware optimization).
//!
//! Paper numbers to match in shape: libjpeg 38.7 MB/s → −18% / −6% / +3%;
//! Hunspell 16 kwd/s → −25% / −16% / −9%; FreeType 149 kop/s with no
//! change in any variant (everything pinned, zero faults).

use autarky::prelude::*;
use autarky::workloads::font::FontRenderer;
use autarky::workloads::jpeg;
use autarky::workloads::spell::{synth_text, SpellServer};
use autarky::{Profile, SystemBuilder};

use crate::util::secs;
use crate::Figure;

/// Most FreeType throughput may differ between variants, relative: the
/// paper finds no measurable overhead (149 kop/s in every column). Only
/// the TLB-fill check separates them here.
pub const MAX_FREETYPE_DELTA: f64 = 0.001;

/// Protection variant of one measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Legacy enclave, OS paging, no defense.
    Unprotected,
    /// Autarky exactly as implementable on proposed minimal hardware.
    Measured,
    /// Plus the in-enclave resume ("no upcall").
    NoUpcall,
    /// Plus AEX elision ("no upcall/AEX").
    NoUpcallNoAex,
}

impl Variant {
    /// All four, in table order.
    pub fn all() -> [Variant; 4] {
        [
            Variant::Unprotected,
            Variant::Measured,
            Variant::NoUpcall,
            Variant::NoUpcallNoAex,
        ]
    }

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Unprotected => "unprotected",
            Variant::Measured => "autarky",
            Variant::NoUpcall => "no-upcall",
            Variant::NoUpcallNoAex => "no-upcall/AEX",
        }
    }
}

/// One workload row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Unit of the throughput numbers.
    pub unit: &'static str,
    /// Throughput per variant (same order as [`Variant::all`]).
    pub throughput: [f64; 4],
    /// Page faults in the Measured variant.
    pub page_faults: u64,
    /// Enclave-managed pages in the Measured variant.
    pub enclave_managed_pages: u64,
}

/// Experiment sizes.
#[derive(Debug, Clone)]
pub struct Table2Params {
    /// Decoded-image side in pixels (must be a multiple of 8). The paper
    /// decodes a 13632×10224 image (398 MB); scaled down here.
    pub image_side: usize,
    /// Dictionaries for the spell server (paper: 15).
    pub dictionaries: usize,
    /// Words per dictionary.
    pub words_per_dictionary: usize,
    /// Words spell-checked (paper: 39,588 — The Wonderful Wizard of Oz).
    pub text_words: usize,
    /// Glyph-render operations.
    pub glyph_ops: usize,
    /// EPC pages available.
    pub epc_pages: usize,
    /// Runtime budget (pages) for the spell server.
    pub spell_budget_pages: usize,
}

impl Table2Params {
    /// Scale 1 ≈ 1/64 of the paper's sizes.
    pub fn scaled(scale: u32) -> Self {
        let s = scale as usize;
        Self {
            image_side: 1024 * s.min(4),
            dictionaries: 15,
            words_per_dictionary: 600 * s,
            text_words: 2500 * s,
            glyph_ops: 4000 * s,
            epc_pages: 4096 * s,
            spell_budget_pages: 48 + 64 * s,
        }
    }
}

fn builder(name: &str, variant: Variant, profile_protected: Profile) -> SystemBuilder {
    let profile = if variant == Variant::Unprotected {
        Profile::Unprotected
    } else {
        profile_protected
    };
    SystemBuilder::new(name, profile)
        .elide_handler_invocation(matches!(
            variant,
            Variant::NoUpcall | Variant::NoUpcallNoAex
        ))
        .elide_aex(matches!(variant, Variant::NoUpcallNoAex))
}

/// libjpeg: decode a large image, invert it, and read it back out. The
/// decoder's working set is enclave-managed; the decoded framebuffer is
/// insensitive (content-independent filter) and handed to the OS, which
/// pages it freely — under Autarky those faults round-trip through the
/// enclave handler, which is the entire overhead.
pub fn run_libjpeg(params: &Table2Params) -> Row {
    let side = params.image_side;
    let pixels = jpeg::synth_image(side, side, 1234);
    let compressed = jpeg::encode(side, side, &pixels);
    let image_pages = (side * side).div_ceil(PAGE_SIZE);

    let mut throughput = [0.0f64; 4];
    let mut page_faults = 0u64;
    let mut enclave_managed = 0u64;
    for (i, variant) in Variant::all().into_iter().enumerate() {
        let (mut world, mut heap) = builder("table2-jpeg", variant, Profile::PinAll)
            .epc_pages(params.epc_pages)
            .heap_pages(image_pages + 1)
            .build()
            .expect("system");
        let mut decoder = jpeg::Decoder::new(&mut world, &mut heap, side, side).expect("decoder");
        if variant != Variant::Unprotected {
            // Framebuffer pages are insensitive: hand them to the OS.
            let first = Vpn(framebuffer_vpn(&decoder));
            let pages: Vec<Vpn> = (0..image_pages as u64).map(|k| Vpn(first.0 + k)).collect();
            world
                .rt
                .release_to_os(&mut world.os, &pages)
                .expect("release");
        }
        // Keep EPC scarce so only half the framebuffer fits, mirroring
        // the paper's 398 MB image against ~190 MB EPC. The legacy run's
        // unused image pages get evicted by the clock policy and stop
        // consuming quota, so its quota counts only the hot set (the two
        // IDCT code pages plus slack); the protected run's quota must
        // additionally cover its pinned enclave-managed set.
        let resident = world.os.resident_frames(world.eid);
        let quota = if variant == Variant::Unprotected {
            image_pages / 2 + 12
        } else {
            resident.saturating_sub(image_pages / 2)
        };
        world.os.set_epc_quota(world.eid, quota).expect("quota");
        let t0 = world.now();
        decoder
            .decode(&mut world, &mut heap, &compressed)
            .expect("decode");
        decoder.invert(&mut world, &mut heap).expect("invert");
        let out = decoder.read_image(&mut world, &mut heap).expect("read");
        let cycles = world.now() - t0;
        assert_eq!(out.len(), side * side);
        let megabytes = (side * side) as f64 / (1024.0 * 1024.0);
        throughput[i] = megabytes / secs(cycles);
        if variant == Variant::Measured {
            page_faults = world.os.machine.stats().faults;
            enclave_managed = world.rt.resident_pages() as u64;
        }
    }
    Row {
        workload: "libjpeg",
        unit: "MB/s",
        throughput,
        page_faults,
        enclave_managed_pages: enclave_managed,
    }
}

fn framebuffer_vpn(decoder: &jpeg::Decoder) -> u64 {
    decoder.framebuffer.0 >> 12
}

/// Hunspell: load 15 dictionaries (together exceeding the budget) with
/// one cluster per dictionary, then spell-check a text against one of
/// them. Timing pessimistically includes dictionary load, as the paper's
/// does; English loads first so it has been evicted by check time.
pub fn run_hunspell(params: &Table2Params) -> Row {
    let langs: Vec<String> = (0..params.dictionaries)
        .map(|i| format!("lang{i:02}"))
        .collect();
    let lang_refs: Vec<&str> = langs.iter().map(|s| s.as_str()).collect();
    let text = synth_text(
        &langs[0],
        params.words_per_dictionary,
        params.text_words,
        77,
    );

    let mut throughput = [0.0f64; 4];
    let mut page_faults = 0u64;
    let mut enclave_managed = 0u64;
    // Sizing pass: learn how many heap pages the dictionaries occupy, so
    // the legacy baseline's pre-added heap is tight (no phantom pages
    // distorting its paging behaviour).
    let used_pages = {
        let (mut world, mut heap) = builder(
            "table2-spell-size",
            Variant::Measured,
            Profile::Clusters {
                pages_per_cluster: 0,
            },
        )
        .epc_pages(params.epc_pages)
        .heap_pages(params.spell_budget_pages * 4)
        .build()
        .expect("system");
        SpellServer::start(
            &mut world,
            &mut heap,
            &lang_refs,
            params.words_per_dictionary,
            false,
        )
        .expect("sizing server");
        world.rt.stats.pages_allocated as usize + 2
    };
    for (i, variant) in Variant::all().into_iter().enumerate() {
        let (mut world, mut heap) = builder(
            "table2-spell",
            variant,
            Profile::Clusters {
                pages_per_cluster: 0,
            },
        )
        .epc_pages(params.epc_pages)
        .heap_pages(used_pages + 4)
        .budget_pages(params.spell_budget_pages)
        .build()
        .expect("system");
        if variant == Variant::Unprotected {
            // Same memory share as the protected budget: the budget covers
            // the image plus dictionary pages for the self-paging runtime,
            // so the OS quota grants the baseline the same frame count
            // (plus the TCS page the runtime never tracks).
            let untracked = 1 + 4; // TCS + slack
            world
                .os
                .set_epc_quota(world.eid, params.spell_budget_pages + untracked)
                .expect("quota");
        }
        let t0 = world.now();
        let server = SpellServer::start(
            &mut world,
            &mut heap,
            &lang_refs,
            params.words_per_dictionary,
            variant != Variant::Unprotected,
        )
        .expect("server");
        let correct = server
            .check_text(&mut world, &mut heap, &langs[0], &text)
            .expect("check");
        let cycles = world.now() - t0;
        assert_eq!(
            correct as usize, params.text_words,
            "all sampled words spelled right"
        );
        throughput[i] = params.text_words as f64 / 1000.0 / secs(cycles);
        if variant == Variant::Measured {
            page_faults = world.os.machine.stats().faults;
            enclave_managed = world.rt.resident_pages() as u64;
        }
    }
    Row {
        workload: "Hunspell",
        unit: "kwd/s",
        throughput,
        page_faults,
        enclave_managed_pages: enclave_managed,
    }
}

/// FreeType: render text with all code pages pinned — zero faults, zero
/// overhead in every variant.
pub fn run_freetype(params: &Table2Params) -> Row {
    let mut throughput = [0.0f64; 4];
    let mut page_faults = 0u64;
    let mut enclave_managed = 0u64;
    for (i, variant) in Variant::all().into_iter().enumerate() {
        let (mut world, mut heap) = builder("table2-font", variant, Profile::PinAll)
            .epc_pages(params.epc_pages)
            .heap_pages(256)
            .code_pages(24)
            .build()
            .expect("system");
        let mut font = FontRenderer::new(&mut world, &mut heap, 64).expect("font");
        let text: String = (0..params.glyph_ops)
            .map(|k| (b'a' + (k % 26) as u8) as char)
            .collect();
        let t0 = world.now();
        font.render_text(&mut world, &mut heap, &text)
            .expect("render");
        let cycles = world.now() - t0;
        throughput[i] = params.glyph_ops as f64 / 1000.0 / secs(cycles);
        if variant == Variant::Measured {
            page_faults = world.os.machine.stats().faults;
            enclave_managed = world.rt.resident_pages() as u64;
        }
    }
    Row {
        workload: "FreeType",
        unit: "kop/s",
        throughput,
        page_faults,
        enclave_managed_pages: enclave_managed,
    }
}

/// All three rows.
pub fn run_all(params: &Table2Params) -> Vec<Row> {
    vec![
        run_libjpeg(params),
        run_hunspell(params),
        run_freetype(params),
    ]
}

/// Table 2 at `scale`: the three applications under the four
/// variants, gated on the paper's orderings. The protected variants'
/// changes and Hunspell's faults are reported beside the paper's, not
/// gated: the simulator's AEX elision over-recovers and its Hunspell
/// faults once.
pub fn figure(scale: u32) -> Figure {
    const VARIANTS: [&str; 4] = ["unprotected", "autarky", "no_upcall", "no_upcall_aex"];
    // The paper's change against unprotected, percent, per protected variant.
    let paper_pct = [
        ("libjpeg", [-18.0, -6.0, 3.0]),
        ("hunspell", [-25.0, -16.0, -9.0]),
    ];
    let params = Table2Params::scaled(scale);
    let rows = run_all(&params);
    let pct = |row: &Row, i: usize| (row.throughput[i] / row.throughput[0] - 1.0) * 100.0;

    let mut fig = Figure::new(
        "Table 2: end-to-end performance of applications using page clusters",
        &format!(
            "Image {0}x{0}, {1} dictionaries x {2} words, {3} glyph ops.",
            params.image_side, params.dictionaries, params.words_per_dictionary, params.glyph_ops
        ),
    );
    let labels = Variant::all().map(Variant::label).join(" | ");
    fig.table(
        &format!("workload | unit | {labels} | page faults | enclave-managed pages"),
        rows.iter().map(|row| {
            let base = format!("{:.1}", row.throughput[0]);
            let mut cells = vec![row.workload.to_string(), row.unit.to_string(), base];
            cells
                .extend((1..4).map(|i| format!("{:.1} ({:+.0}%)", row.throughput[i], pct(row, i))));
            cells.extend([row.page_faults, row.enclave_managed_pages].map(|n| n.to_string()));
            cells
        }),
    );
    for row in &rows {
        let key = row.workload.to_lowercase();
        for (variant, value) in VARIANTS.iter().zip(row.throughput) {
            fig.metric(format!("{key}_{variant}"), value);
        }
        fig.metric(format!("{key}_faults"), row.page_faults as f64);
        let pages = row.enclave_managed_pages as f64;
        fig.metric(format!("{key}_enclave_managed_pages"), pages);
        for (_, paper) in paper_pct.iter().filter(|(name, _)| *name == key) {
            for (i, variant) in VARIANTS.iter().enumerate().skip(1) {
                fig.metric(format!("{key}_{variant}_pct"), pct(row, i));
                fig.metric(format!("paper_{key}_{variant}_pct"), paper[i - 1]);
            }
        }
    }
    fig.metric("paper_hunspell_faults", 49_501.0);
    let [jpeg, spell, font] = [&rows[0], &rows[1], &rows[2]];
    let delta = (1..4)
        .map(|i| pct(font, i).abs() / 100.0)
        .fold(0.0, f64::max);
    let unchanged = delta < MAX_FREETYPE_DELTA && font.page_faults == 0;
    fig.claim("freetype_unchanged_without_faults", unchanged);
    let [jpeg, spell] = [jpeg.throughput, spell.throughput];
    let trails = jpeg[1] < jpeg[0] && spell[1] < spell[0];
    fig.claim("protected_trails_unprotected", trails);
    let recovers = jpeg[1] < jpeg[2] && jpeg[2] < jpeg[3];
    fig.claim("libjpeg_optimizations_recover", recovers);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Table2Params {
        Table2Params {
            image_side: 512,
            dictionaries: 4,
            words_per_dictionary: 800,
            text_words: 200,
            glyph_ops: 200,
            epc_pages: 4096,
            spell_budget_pages: 36,
        }
    }

    #[test]
    fn libjpeg_variant_ordering() {
        let row = run_libjpeg(&tiny());
        let [base, measured, no_upcall, no_aex] = row.throughput;
        assert!(
            measured < base,
            "measured {measured} must trail baseline {base}"
        );
        assert!(no_upcall > measured, "no-upcall recovers some cost");
        assert!(no_aex > no_upcall, "full optimization recovers more");
        assert!(row.page_faults > 0, "the framebuffer must page");
    }

    #[test]
    fn freetype_has_no_overhead_or_faults() {
        let row = run_freetype(&tiny());
        let [base, measured, ..] = row.throughput;
        let delta = (base - measured).abs() / base;
        assert!(
            delta < MAX_FREETYPE_DELTA,
            "FreeType overhead {delta} should be ~0"
        );
        assert_eq!(row.page_faults, 0, "everything pinned");
    }

    #[test]
    fn hunspell_protected_trails_baseline() {
        let row = run_hunspell(&tiny());
        let [base, measured, no_upcall, no_aex] = row.throughput;
        assert!(measured < base);
        assert!(no_upcall >= measured);
        assert!(no_aex >= no_upcall);
        assert!(row.page_faults > 0, "dictionary clusters page");
    }
}
