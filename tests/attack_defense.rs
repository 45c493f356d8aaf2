//! The paper's security claims as executable tests: every published
//! controlled-channel attack variant must succeed against vanilla SGX and
//! be defeated by Autarky.

use autarky::os::{Attacker, FaultPlan, Observation};
use autarky::prelude::*;
use autarky::workloads::font::{recover_text_from_trace, FontRenderer};
use autarky::workloads::jpeg;
use autarky::workloads::spell::{synth_wordlist, Dictionary};
use autarky::{Profile, SystemBuilder};

fn build(name: &str, profile: Profile) -> (World, EncHeap) {
    SystemBuilder::new(name, profile)
        .epc_pages(2048)
        .code_pages(24)
        .heap_pages(512)
        .build()
        .expect("system")
}

/// Arm a low-rate transient-only fault plan on a *protected* build: the
/// defense properties below must keep holding while the OS is
/// additionally flaky (delays, transient failures, partial batches,
/// spurious suspensions). Hostile lying/tampering kinds are exercised
/// separately in `fault_injection.rs`.
fn arm_transient(world: &mut World, seed: u64) {
    world
        .os
        .arm_fault_plan(FaultPlan::transient_only(seed, 0.05));
}

// ------------------------------------------------------------------
// Attack 1: Xu et al. fault tracing of code pages (FreeType).
// ------------------------------------------------------------------

#[test]
fn freetype_attack_succeeds_on_vanilla_sgx() {
    let (mut world, mut heap) = build("ft-victim", Profile::Unprotected);
    let secret = "attackatdusk";
    let code_pages: Vec<Vpn> = world.image.code_range().collect();
    world
        .os
        .arm_fault_tracer(world.eid, code_pages)
        .expect("arm");
    let mut font = FontRenderer::new(&mut world, &mut heap, 16).expect("font");
    font.render_text(&mut world, &mut heap, secret)
        .expect("render");
    let tracer = match world.os.disarm_attacker() {
        Attacker::FaultTracer(t) => t,
        other => panic!("{other:?}"),
    };
    let code_start = world.image.code_start().0;
    let offsets: Vec<u64> = tracer.trace.iter().map(|v| v.0 - code_start).collect();
    let alphabet: Vec<char> = ('a'..='z').collect();
    assert_eq!(
        recover_text_from_trace(&offsets, &alphabet),
        secret,
        "the code-page trace reveals the rendered text on vanilla SGX"
    );
}

#[test]
fn freetype_attack_blocked_by_autarky() {
    let (mut world, mut heap) = build("ft-protected", Profile::PinAll);
    arm_transient(&mut world, 1);
    let code_pages: Vec<Vpn> = world.image.code_range().collect();
    world
        .os
        .arm_fault_tracer(world.eid, code_pages)
        .expect("arm");
    let mut font = FontRenderer::new(&mut world, &mut heap, 16).expect("font");
    let err = font
        .render_text(&mut world, &mut heap, "attackatdusk")
        .expect_err("the defense must fire");
    assert!(matches!(err, RtError::AttackDetected { .. }), "{err}");
    let tracer = match world.os.disarm_attacker() {
        Attacker::FaultTracer(t) => t,
        other => panic!("{other:?}"),
    };
    assert!(
        tracer.trace.is_empty(),
        "no attributable page ever observed"
    );
    assert!(world.os.machine.is_terminated(world.eid));
}

// ------------------------------------------------------------------
// Attack 2: A/D-bit monitoring (Wang et al.) of data pages.
// ------------------------------------------------------------------

#[test]
fn ad_bit_attack_traces_vanilla_and_is_blocked_by_autarky() {
    // Vanilla: the monitor harvests the access pattern without any fault.
    let (mut world, mut heap) = build("ad-victim", Profile::Unprotected);
    let ptr = heap.alloc(&mut world, 8 * PAGE_SIZE).expect("alloc");
    let pages: Vec<Vpn> = (0..8).map(|i| Vpn((ptr.0 >> 12) + i)).collect();
    for &p in &pages {
        heap.write_u64(&mut world, Ptr(p.0 << 12), 1)
            .expect("touch");
    }
    world
        .os
        .arm_ad_monitor(world.eid, pages.iter().copied())
        .expect("arm");
    let secret_pages = [3usize, 1, 6];
    for &s in &secret_pages {
        heap.read_u64(&mut world, Ptr(pages[s].0 << 12))
            .expect("read");
        world.os.attacker_poll();
    }
    let monitor = match world.os.disarm_attacker() {
        Attacker::AdMonitor(m) => m,
        other => panic!("{other:?}"),
    };
    let observed: Vec<Vpn> = monitor.trace.iter().map(|(v, _)| *v).collect();
    assert_eq!(
        observed,
        vec![pages[3], pages[1], pages[6]],
        "A/D bits leak the access sequence on vanilla SGX"
    );

    // Autarky: the cleared bit itself faults and the handler terminates.
    let (mut world, mut heap) = build("ad-protected", Profile::PinAll);
    arm_transient(&mut world, 2);
    let ptr = heap.alloc(&mut world, 8 * PAGE_SIZE).expect("alloc");
    let pages: Vec<Vpn> = (0..8).map(|i| Vpn((ptr.0 >> 12) + i)).collect();
    for &p in &pages {
        heap.write_u64(&mut world, Ptr(p.0 << 12), 1)
            .expect("touch");
    }
    world
        .os
        .arm_ad_monitor(world.eid, pages.iter().copied())
        .expect("arm");
    let err = heap
        .read_u64(&mut world, Ptr(pages[3].0 << 12))
        .expect_err("detected");
    assert!(
        matches!(err, RtError::AttackDetected { why, .. } if why.contains("accessed/dirty")),
        "{err}"
    );
    world.os.attacker_poll();
    let monitor = match world.os.disarm_attacker() {
        Attacker::AdMonitor(m) => m,
        other => panic!("{other:?}"),
    };
    assert!(
        monitor.trace.is_empty(),
        "the bits were never set for the OS to read"
    );
}

// ------------------------------------------------------------------
// Attack 3: the Hunspell dictionary trace (data pages).
// ------------------------------------------------------------------

#[test]
fn hunspell_word_signatures_leak_on_vanilla_and_not_under_clusters() {
    // The attacker knows the (public) dictionary and layout; the secret is
    // the queried word. On vanilla SGX the fault trace of a single lookup
    // identifies the bucket chain — and hence the word.
    let words = synth_wordlist("en", 1500);
    let (mut world, mut heap) = build("hs-victim", Profile::Unprotected);
    let dict = Dictionary::load(&mut world, &mut heap, "en", 1500).expect("load");

    // Build the reference signature per candidate word by tracing a
    // lookup of each (the attacker can do this offline with the public
    // dictionary).
    let pages = dict.pages.clone();
    let mut signatures: Vec<(String, Vec<Vpn>)> = Vec::new();
    for word in words.iter().take(40) {
        world
            .os
            .arm_fault_tracer(world.eid, pages.iter().copied())
            .expect("arm");
        dict.check(&mut world, &mut heap, word).expect("lookup");
        if let Attacker::FaultTracer(t) = world.os.disarm_attacker() {
            signatures.push((word.clone(), t.trace));
        }
    }
    // Signatures must be discriminative for most words.
    let distinct: autarky_prng::SimSet<&Vec<Vpn>> = signatures.iter().map(|(_, s)| s).collect();
    assert!(
        distinct.len() > signatures.len() / 2,
        "page-trace signatures distinguish words ({} / {})",
        distinct.len(),
        signatures.len()
    );

    // Replay the attack against the secret query.
    let secret_word = &words[7];
    world
        .os
        .arm_fault_tracer(world.eid, pages.iter().copied())
        .expect("arm");
    dict.check(&mut world, &mut heap, secret_word)
        .expect("query");
    let trace = match world.os.disarm_attacker() {
        Attacker::FaultTracer(t) => t.trace,
        other => panic!("{other:?}"),
    };
    let matched: Vec<&String> = signatures
        .iter()
        .filter(|(_, sig)| sig == &trace)
        .map(|(w, _)| w)
        .collect();
    assert!(
        matched.contains(&secret_word),
        "the attack recovers a candidate set containing the secret word"
    );

    // Under Autarky with one cluster per dictionary, the only OS-visible
    // event is a whole-dictionary fetch.
    let (mut world, mut heap) = build(
        "hs-protected",
        Profile::Clusters {
            pages_per_cluster: 0,
        },
    );
    // Whole-call transient faults only: batch-shaping kinds would make
    // the hardened runtime legitimately re-request just the missing
    // suffix of a cluster, which is exactly what the whole-dictionary
    // observation check below must not be confused by.
    world.os.arm_fault_plan(FaultPlan {
        partial_batch: 0.0,
        suspend: 0.0,
        ..FaultPlan::transient_only(3, 0.05)
    });
    let dict = Dictionary::load(&mut world, &mut heap, "en", 1500).expect("load");
    let cluster = world.rt.clusters.new_cluster();
    for &page in &dict.pages {
        world.rt.clusters.ay_add_page(cluster, page).expect("add");
    }
    // Evict the whole dictionary (legitimate paging), then query.
    let evictable: Vec<Vpn> = dict
        .pages
        .iter()
        .copied()
        .filter(|&p| world.rt.residency(p) == Some(true))
        .collect();
    world
        .rt
        .evict_pages(&mut world.os, &evictable)
        .expect("evict");
    let mark = world.os.observation_mark();
    dict.check(&mut world, &mut heap, &words[7]).expect("query");
    let obs = world.os.observations_since(mark);
    for o in obs {
        if let Observation::FetchSyscall { pages, .. } = o {
            assert_eq!(
                pages.len(),
                dict.pages.len(),
                "fetches name whole dictionaries, not word-specific pages"
            );
        }
    }
}

// ------------------------------------------------------------------
// Attack 4: the libjpeg flatness map (IDCT shortcut).
// ------------------------------------------------------------------

#[test]
fn libjpeg_flatness_leaks_on_vanilla_and_not_under_pinning() {
    let side = 64;
    let image = jpeg::synth_image(side, side, 99);
    let compressed = jpeg::encode(side, side, &image);
    let truth = jpeg::flatness_map(&compressed);

    // Vanilla: trace the decoder's two IDCT code pages.
    let (mut world, mut heap) = build("jp-victim", Profile::Unprotected);
    let code_start = world.image.code_start().0;
    let full = Vpn(code_start + jpeg::CODE_PAGE_IDCT_FULL);
    let dcval = Vpn(code_start + jpeg::CODE_PAGE_IDCT_DCVAL);
    world
        .os
        .arm_fault_tracer(world.eid, [full, dcval])
        .expect("arm");
    let mut decoder = jpeg::Decoder::new(&mut world, &mut heap, side, side).expect("decoder");
    decoder
        .decode(&mut world, &mut heap, &compressed)
        .expect("decode");
    let trace = match world.os.disarm_attacker() {
        Attacker::FaultTracer(t) => t.trace,
        other => panic!("{other:?}"),
    };
    // The attacker sees a fault only when the decoder *switches* between
    // the two IDCT code pages, so the noise-free property it recovers is
    // the image's run structure: the number of dcval-page faults equals
    // the number of flat-block runs in the truth map.
    let flat_runs = truth
        .iter()
        .zip(std::iter::once(&false).chain(truth.iter()))
        .filter(|(cur, prev)| **cur && !**prev)
        .count();
    let dcval_faults = trace.iter().filter(|&&v| v == dcval).count();
    assert_eq!(
        dcval_faults, flat_runs,
        "code-page faults reveal the block structure"
    );

    // Autarky, everything pinned: the decoder runs fault-free; the armed
    // tracer kills the enclave on its very first induced fault instead.
    let (mut world, mut heap) = build("jp-protected", Profile::PinAll);
    arm_transient(&mut world, 4);
    world
        .os
        .arm_fault_tracer(world.eid, [full, dcval])
        .expect("arm");
    let mut decoder = jpeg::Decoder::new(&mut world, &mut heap, side, side).expect("decoder");
    let err = decoder
        .decode(&mut world, &mut heap, &compressed)
        .expect_err("defense fires");
    assert!(matches!(err, RtError::AttackDetected { .. }));
    if let Attacker::FaultTracer(t) = world.os.disarm_attacker() {
        assert!(t.trace.is_empty());
    }
}

// ------------------------------------------------------------------
// §5.3: termination & lack-of-faults attacks are bounded.
// ------------------------------------------------------------------

#[test]
fn termination_attack_yields_one_bit() {
    // The OS unmaps a set of pages; if the enclave dies, it learns only
    // that *some* page of the set was accessed — one bit per restart.
    let (mut world, mut heap) = build("term", Profile::PinAll);
    arm_transient(&mut world, 5);
    let ptr = heap.alloc(&mut world, 4 * PAGE_SIZE).expect("alloc");
    heap.write_u64(&mut world, ptr, 7).expect("touch");
    let pages: Vec<Vpn> = (0..4).map(|i| Vpn((ptr.0 >> 12) + i)).collect();
    world
        .os
        .arm_fault_tracer(world.eid, pages.iter().copied())
        .expect("arm");
    let err = heap.read_u64(&mut world, ptr).expect_err("detected");
    assert!(matches!(err, RtError::AttackDetected { .. }));
    // Adversary view: exactly one masked fault; which of the 4 pages
    // faulted is not attributable.
    if let Attacker::FaultTracer(t) = world.os.disarm_attacker() {
        assert_eq!(t.masked_faults, 1);
        assert!(t.trace.is_empty());
    }
    let obs = world.os.observations();
    let fault_reports: Vec<&Observation> = obs
        .iter()
        .filter(|o| matches!(o, Observation::Fault { .. }))
        .collect();
    assert_eq!(fault_reports.len(), 1);
    if let Observation::Fault { va, kind, .. } = fault_reports[0] {
        assert_eq!(*va, world.image.base, "address fully masked");
        assert_eq!(*kind, AccessKind::Read, "access type masked");
    }
}

// ------------------------------------------------------------------
// Attack 5: permission-stripping variant (write-protect, AsyncShock-style).
// ------------------------------------------------------------------

#[test]
fn write_protect_tracer_works_on_vanilla_and_is_blocked() {
    use autarky::os::TraceMode;
    let mode = TraceMode::StripPermission {
        write: true,
        execute: false,
    };

    // Vanilla: write-faults reveal the store pattern.
    let (mut world, mut heap) = build("wp-victim", Profile::Unprotected);
    let ptr = heap.alloc(&mut world, 6 * PAGE_SIZE).expect("alloc");
    let pages: Vec<Vpn> = (0..6).map(|i| Vpn((ptr.0 >> 12) + i)).collect();
    for &p in &pages {
        heap.write_u64(&mut world, Ptr(p.0 << 12), 0)
            .expect("touch");
    }
    world
        .os
        .arm_fault_tracer_mode(world.eid, pages.iter().copied(), mode)
        .expect("arm");
    let secret_writes = [4usize, 0, 5];
    for &s in &secret_writes {
        heap.write_u64(&mut world, Ptr(pages[s].0 << 12), 1)
            .expect("write");
    }
    // Reads never fault under write-protection (stealthier than unmap).
    heap.read_u64(&mut world, Ptr(pages[2].0 << 12))
        .expect("read silently");
    let tracer = match world.os.disarm_attacker() {
        Attacker::FaultTracer(t) => t,
        other => panic!("{other:?}"),
    };
    assert_eq!(
        tracer.trace,
        vec![pages[4], pages[0], pages[5]],
        "write-protect faults reveal exactly the store pattern"
    );

    // Autarky: the first induced write-fault on a resident page is an
    // attack; the report carries no page or access-type information.
    let (mut world, mut heap) = build("wp-protected", Profile::PinAll);
    arm_transient(&mut world, 6);
    let ptr = heap.alloc(&mut world, 6 * PAGE_SIZE).expect("alloc");
    let pages: Vec<Vpn> = (0..6).map(|i| Vpn((ptr.0 >> 12) + i)).collect();
    for &p in &pages {
        heap.write_u64(&mut world, Ptr(p.0 << 12), 0)
            .expect("touch");
    }
    world
        .os
        .arm_fault_tracer_mode(world.eid, pages.iter().copied(), mode)
        .expect("arm");
    let err = heap
        .write_u64(&mut world, Ptr(pages[4].0 << 12), 1)
        .expect_err("detected");
    assert!(matches!(err, RtError::AttackDetected { .. }), "{err}");
    if let Attacker::FaultTracer(t) = world.os.disarm_attacker() {
        assert!(t.trace.is_empty());
        assert_eq!(t.masked_faults, 1);
    }
}

#[test]
fn straddling_access_completes_under_full_density_tracing() {
    // An 8-byte read spanning two adjacent *armed* pages: a purely
    // transition-granular tracer would ping-pong the pair forever
    // (restoring one page re-protects the other, so the replayed access
    // never completes). The tracer resolves the straddle — both pages
    // stay open, the victim progresses, and each page is traced once.
    let (mut world, mut heap) = build("straddle", Profile::Unprotected);
    let ptr = heap.alloc(&mut world, 2 * PAGE_SIZE).expect("alloc");
    let lo = Vpn(ptr.0 >> 12);
    let hi = Vpn(lo.0 + 1);
    heap.write_u64(&mut world, Ptr(lo.0 << 12), 1).expect("lo");
    heap.write_u64(&mut world, Ptr(hi.0 << 12), 2).expect("hi");
    world.os.arm_fault_tracer(world.eid, [lo, hi]).expect("arm");
    let boundary = Ptr((hi.0 << 12) - 4);
    heap.read_u64(&mut world, boundary)
        .expect("straddling read completes");
    let tracer = match world.os.disarm_attacker() {
        Attacker::FaultTracer(t) => t,
        other => panic!("{other:?}"),
    };
    assert_eq!(
        tracer.trace,
        vec![lo, hi],
        "both pages enter the trace exactly once"
    );
}

// ------------------------------------------------------------------
// Integrity attacks on the backing store (beyond tracing).
// ------------------------------------------------------------------

#[test]
fn tampered_ewb_blob_rejected_on_reload() {
    // The OS corrupts a sealed page in untrusted swap; ELDU must refuse
    // and the enclave must never observe modified contents.
    let (mut world, mut heap) = build(
        "tamper",
        Profile::Clusters {
            pages_per_cluster: 1,
        },
    );
    arm_transient(&mut world, 7);
    let ptr = heap.alloc(&mut world, PAGE_SIZE).expect("alloc");
    heap.write_u64(&mut world, ptr, 0xDEAD_BEEF).expect("write");
    let vpn = Vpn(ptr.0 >> 12);
    world.rt.evict_pages(&mut world.os, &[vpn]).expect("evict");

    // Corrupt the blob in the backing store.
    let mut sealed = world
        .os
        .backing
        .take_sealed(world.eid, vpn)
        .expect("blob exists");
    sealed.bytes_mut().ciphertext[123] ^= 0xFF;
    world.os.backing.put_sealed(sealed);

    let err = heap
        .read_u64(&mut world, ptr)
        .expect_err("reload must fail");
    assert!(
        matches!(
            err,
            RtError::Os(autarky::os::OsError::Sgx(
                autarky::sgx::SgxError::SealBroken
            ))
        ),
        "got {err}"
    );
}

#[test]
fn replayed_ewb_blob_rejected_on_reload() {
    // The OS keeps an old (authentic) version of a page and replays it
    // after the enclave has written a newer one: the version array check
    // must refuse.
    let (mut world, mut heap) = build(
        "replay",
        Profile::Clusters {
            pages_per_cluster: 1,
        },
    );
    arm_transient(&mut world, 8);
    let ptr = heap.alloc(&mut world, PAGE_SIZE).expect("alloc");
    heap.write_u64(&mut world, ptr, 1).expect("v1");
    let vpn = Vpn(ptr.0 >> 12);
    world
        .rt
        .evict_pages(&mut world.os, &[vpn])
        .expect("evict v1");
    let stale = world
        .os
        .backing
        .get_sealed(world.eid, vpn)
        .expect("blob")
        .clone();
    // Legitimate reload + update + re-evict bumps the version.
    heap.read_u64(&mut world, ptr).expect("reload v1");
    heap.write_u64(&mut world, ptr, 2).expect("v2");
    world
        .rt
        .evict_pages(&mut world.os, &[vpn])
        .expect("evict v2");
    // Replay the stale blob.
    world.os.backing.put_sealed(stale);
    let err = heap.read_u64(&mut world, ptr).expect_err("replay refused");
    assert!(
        matches!(
            err,
            RtError::Os(autarky::os::OsError::Sgx(autarky::sgx::SgxError::Replay(_)))
        ),
        "got {err}"
    );
}

// ------------------------------------------------------------------
// Quantitative leakage: the audit subsystem's numbers on the matrix.
// ------------------------------------------------------------------

#[test]
fn leakage_audit_quantifies_the_channel() {
    // One distinguishable cell (legacy paging, traced code pages) and
    // one closed cell (cached ORAM): the audit must measure ~1 bit per
    // run on the former and ~0 on the latter.
    let report = autarky_leakage::audit::run_audit_filtered(
        2,
        &["baseline/font".into(), "cached-oram/font".into()],
    );
    assert_eq!(report.cells.len(), 2);

    let baseline = report
        .cells
        .iter()
        .find(|c| c.policy == "baseline")
        .expect("baseline cell");
    assert!(
        baseline.dist.mi_bits >= 0.9,
        "legacy paging leaks the secret: {} bits/run",
        baseline.dist.mi_bits
    );
    assert!(
        baseline.dist.mean_cross_tv > baseline.dist.mean_within_tv,
        "cross-class traces are farther apart than same-class ones"
    );

    let oram = report
        .cells
        .iter()
        .find(|c| c.policy == "cached-oram")
        .expect("cached-oram cell");
    assert!(
        oram.dist.mi_bits <= 0.25,
        "cached ORAM is indistinguishable: {} bits/run",
        oram.dist.mi_bits
    );
    assert!(
        oram.dist.mean_cross_tv <= oram.dist.mean_within_tv + 1e-9,
        "under ORAM, cross-class distance ({}) collapses to the \
         same-class noise floor ({})",
        oram.dist.mean_cross_tv,
        oram.dist.mean_within_tv
    );
    assert!(report.pass, "both gates hold");
}

// ------------------------------------------------------------------
// Forensics: the flight recorder names the injected fault as the
// causal root of an attack verdict.
// ------------------------------------------------------------------

#[test]
fn forensic_timeline_names_injected_fault_as_attack_root() {
    use autarky::os::flight::{causal_root_of_attack, render_timeline};
    use autarky::os::{FlightEvent, InjectedFault};

    let (mut world, mut heap) = build(
        "forensics",
        Profile::Clusters {
            pages_per_cluster: 1,
        },
    );
    world.os.arm_flight_recorder(4096);
    let ptr = heap.alloc(&mut world, PAGE_SIZE).expect("alloc");
    heap.write_u64(&mut world, ptr, 7).expect("touch");
    let vpn = Vpn(ptr.0 >> 12);

    // A hostile OS that spuriously evicts exactly one pinned page on the
    // next driver call, then goes quiet. The victim is the
    // lowest-numbered resident enclave-managed page.
    world.os.arm_fault_plan(FaultPlan {
        spurious_evict: 1.0,
        max_injections: Some(1),
        ..FaultPlan::quiescent(9)
    });
    world
        .rt
        .evict_pages(&mut world.os, &[vpn])
        .expect("the legitimate eviction itself succeeds");

    // The flight log already names the victim page (this is forensics:
    // the test reads the recorder the way an operator would).
    let victim = world
        .os
        .flight_snapshot()
        .iter()
        .find_map(|r| match &r.event {
            FlightEvent::Kernel(Observation::FaultInjected {
                fault: InjectedFault::SpuriousEvict { vpn },
                ..
            }) => Some(*vpn),
            _ => None,
        })
        .expect("the spurious eviction was recorded");

    // The victim is a page the runtime believes resident; touching it
    // faults, the fault is unexplainable, and the defense fires.
    let err = world
        .rt
        .exec(&mut world.os, Va(victim.0 << 12))
        .expect_err("detected");
    assert!(matches!(err, RtError::AttackDetected { .. }), "{err}");

    let recorder = world
        .os
        .disarm_flight_recorder()
        .expect("recorder was armed");
    let records = recorder.snapshot();

    // The reconstruction must resolve the verdict to the injection.
    let (attack, root) = causal_root_of_attack(&records).expect("causal root exists");
    assert!(matches!(attack.event, FlightEvent::AttackDetected { .. }));
    let spurious_vpn = match &root.event {
        FlightEvent::Kernel(Observation::FaultInjected {
            fault: InjectedFault::SpuriousEvict { vpn },
            ..
        }) => *vpn,
        other => panic!("root is not the injected spurious eviction: {other:?}"),
    };
    match &attack.event {
        FlightEvent::AttackDetected { vpn, .. } => {
            assert_eq!(*vpn, spurious_vpn, "verdict names the injected page")
        }
        other => panic!("{other:?}"),
    }

    // And the rendered post-mortem says so in as many words.
    let report = render_timeline(&records, 50);
    assert!(
        report.contains("Causal root of the attack verdict"),
        "{report}"
    );
    assert!(report.contains("INJECTED FAULT"), "{report}");
    assert!(report.contains("ATTACK DETECTED"), "{report}");
}
