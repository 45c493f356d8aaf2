//! End-to-end tests of the trusted runtime against the simulated OS and
//! hardware: self-paging correctness, attack detection, policy behaviour,
//! and both paging mechanisms.

use autarky_os_sim::{EnclaveImage, Os, OsError};
use autarky_runtime::{
    telemetry_export_key, PagingMechanism, PolicyMode, RateLimit, RtError, Runtime, RuntimeConfig,
};
use autarky_sgx_sim::machine::MachineConfig;
use autarky_sgx_sim::{EnclaveId, SgxError, Va, Vpn, PAGE_SIZE};

fn image(name: &str) -> EnclaveImage {
    let mut img = EnclaveImage::named(name);
    img.self_paging = true;
    img.code_pages = 4;
    img.data_pages = 8;
    img.stack_pages = 2;
    img.heap_pages = 64;
    img
}

fn setup(config: RuntimeConfig) -> (Os, EnclaveId, Runtime) {
    setup_with(
        MachineConfig {
            epc_frames: 512,
            ..Default::default()
        },
        config,
    )
}

fn setup_with(mconfig: MachineConfig, config: RuntimeConfig) -> (Os, EnclaveId, Runtime) {
    let mut os = Os::new(mconfig);
    let eid = os.load_enclave(&image("rt-test")).expect("load");
    let rt = Runtime::attach(&mut os, eid, config).expect("attach");
    (os, eid, rt)
}

#[test]
fn plain_read_write_no_faults() {
    let (mut os, _eid, mut rt) = setup(RuntimeConfig::default());
    let img = image("rt-test");
    let va = img.data_start().base();
    rt.write(&mut os, va, &[1, 2, 3, 4]).expect("write");
    let mut buf = [0u8; 4];
    rt.read(&mut os, va, &mut buf).expect("read");
    assert_eq!(buf, [1, 2, 3, 4]);
    assert_eq!(rt.stats.faults_handled, 0, "resident pages never fault");
}

#[test]
fn self_paging_roundtrip_sgx1() {
    let (mut os, _eid, mut rt) = setup(RuntimeConfig::default());
    let img = image("rt-test");
    let page = img.data_start();
    rt.write(&mut os, page.base(), &[0xAB; 16]).expect("write");
    rt.evict_pages(&mut os, &[page]).expect("evict");
    assert_eq!(rt.residency(page), Some(false));
    // The next access faults; the handler fetches the page back.
    let mut buf = [0u8; 16];
    rt.read(&mut os, page.base(), &mut buf)
        .expect("read with self-paging");
    assert_eq!(buf, [0xAB; 16]);
    assert_eq!(rt.residency(page), Some(true));
    assert!(rt.stats.faults_handled >= 1);
    assert!(rt.stats.pages_fetched >= 1);
}

#[test]
fn self_paging_roundtrip_sgx2() {
    let (mut os, _eid, mut rt) = setup(RuntimeConfig {
        mechanism: PagingMechanism::Sgx2,
        ..Default::default()
    });
    let img = image("rt-test");
    let page = img.data_start();
    rt.write(&mut os, page.base(), &[0xCD; 16]).expect("write");
    rt.evict_pages(&mut os, &[page]).expect("sw evict");
    assert_eq!(rt.residency(page), Some(false));
    let mut buf = [0u8; 16];
    rt.read(&mut os, page.base(), &mut buf)
        .expect("read via EAUG/EACCEPTCOPY");
    assert_eq!(buf, [0xCD; 16]);
}

#[test]
fn sgx2_replay_detected() {
    let (mut os, eid, mut rt) = setup(RuntimeConfig {
        mechanism: PagingMechanism::Sgx2,
        ..Default::default()
    });
    let img = image("rt-test");
    let page = img.data_start();
    rt.write(&mut os, page.base(), &[1; 8]).expect("write v1");
    rt.evict_pages(&mut os, &[page]).expect("evict v1");
    // The OS squirrels away the version-1 blob.
    let key = autarky_runtime::paging::blob_key(eid.0, page);
    let old_blob = os.sys_untrusted_read(key).expect("blob exists");
    // Legitimate fetch + re-evict bumps the version.
    let mut buf = [0u8; 8];
    rt.read(&mut os, page.base(), &mut buf).expect("fetch v1");
    rt.write(&mut os, page.base(), &[2; 8]).expect("write v2");
    rt.evict_pages(&mut os, &[page]).expect("evict v2");
    // The OS replays the stale blob.
    os.sys_untrusted_write(key, old_blob);
    let err = rt
        .read(&mut os, page.base(), &mut buf)
        .expect_err("replay must fail");
    assert!(matches!(err, RtError::SealBroken(_)), "got {err}");
}

#[test]
fn pages_beyond_the_nonce_are_refused_and_stay_resident() {
    // Page numbers from 2^32 up would repeat a lower page's sealing
    // nonce, so both eviction paths refuse them instead of sealing.
    for mechanism in [PagingMechanism::Sgx1, PagingMechanism::Sgx2] {
        let mut img = image("rt-high");
        img.base = Va(1 << 44);
        let mut os = Os::new(MachineConfig {
            epc_frames: 512,
            ..Default::default()
        });
        let eid = os.load_enclave(&img).expect("load");
        let config = RuntimeConfig {
            mechanism,
            ..Default::default()
        };
        let mut rt = Runtime::attach(&mut os, eid, config).expect("attach");
        let page = img.data_start();
        let err = rt
            .evict_pages(&mut os, &[page])
            .expect_err("sealing must be refused");
        let refused = match err {
            RtError::Sgx(e) | RtError::Os(OsError::Sgx(e)) => e,
            other => panic!("{mechanism:?}: got {other}"),
        };
        assert_eq!(refused, SgxError::NonceExhausted(page), "{mechanism:?}");
        assert!(os.machine.is_resident(eid, page), "{mechanism:?}");
        assert_eq!(rt.residency(page), Some(true), "{mechanism:?}");
    }
}

#[test]
fn budget_forces_eviction_and_fifo() {
    let img = image("rt-test");
    let (mut os, _eid, mut rt) = setup(RuntimeConfig {
        budget: 20,
        ..Default::default()
    });
    // Claimed image pages: 4 code + 8 data + 2 stack = 14 resident.
    assert_eq!(rt.resident_pages(), 14);
    // Allocate heap pages until evictions must occur.
    let bytes = 12 * PAGE_SIZE;
    let _va = rt.malloc(&mut os, bytes).expect("alloc 12 pages");
    assert!(rt.resident_pages() <= 20, "budget respected");
    assert!(rt.stats.pages_evicted > 0, "older pages evicted");
    let _ = img;
}

#[test]
fn cluster_fetch_brings_whole_cluster() {
    let (mut os, _eid, mut rt) = setup(RuntimeConfig::default());
    let img = image("rt-test");
    let pages: Vec<Vpn> = (img.data_start().0..img.data_start().0 + 4)
        .map(Vpn)
        .collect();
    let cluster = rt.clusters.new_cluster();
    for &p in &pages {
        rt.clusters.ay_add_page(cluster, p).expect("add");
    }
    rt.evict_pages(&mut os, &pages).expect("evict cluster");
    for &p in &pages {
        assert_eq!(rt.residency(p), Some(false));
    }
    assert!(rt.cluster_invariant_holds());
    // Fault on ONE page: the whole cluster must come back, so the OS
    // cannot tell which page was touched.
    let mut buf = [0u8; 1];
    rt.read(&mut os, pages[2].base(), &mut buf).expect("fetch");
    for &p in &pages {
        assert_eq!(rt.residency(p), Some(true), "{p} must be co-fetched");
    }
    assert!(rt.cluster_invariant_holds());
    // The adversary's view: the fetch syscall named all 4 pages.
    let fetched: Vec<Vpn> = os
        .observations_since(0)
        .iter()
        .filter_map(|o| match o {
            autarky_os_sim::Observation::FetchSyscall { pages, .. } => Some(pages.clone()),
            _ => None,
        })
        .next_back()
        .expect("a fetch happened");
    assert_eq!(fetched.len(), 4, "anonymity set is the whole cluster");
}

#[test]
fn fault_tracer_attack_detected_and_enclave_terminated() {
    let (mut os, eid, mut rt) = setup(RuntimeConfig::default());
    let img = image("rt-test");
    let target = img.data_start();
    // The OS unmaps a resident enclave-managed page to trace accesses.
    os.arm_fault_tracer(eid, [target]).expect("arm");
    let err = rt
        .read(&mut os, target.base(), &mut [0u8; 1])
        .expect_err("the handler must detect the attack");
    assert!(
        matches!(err, RtError::AttackDetected { vpn, .. } if vpn == target),
        "got {err}"
    );
    assert!(rt.is_terminated());
    assert!(os.machine.is_terminated(eid));
    // The attacker learned nothing attributable.
    if let autarky_os_sim::Attacker::FaultTracer(t) = &os.attacker {
        assert!(t.trace.is_empty());
        assert_eq!(t.masked_faults, 1);
    } else {
        panic!("tracer still armed");
    }
    // Terminated enclaves refuse further work, exports included: no
    // sealed telemetry blob reaches the untrusted store.
    assert!(matches!(
        rt.read(&mut os, target.base(), &mut [0u8; 1]),
        Err(RtError::Terminated)
    ));
    assert!(matches!(rt.export_epoch(&mut os), Err(RtError::Terminated)));
    assert!(os
        .backing
        .get_blob(telemetry_export_key(eid.0, 0))
        .is_none());
}

#[test]
fn ad_bit_attack_detected() {
    let (mut os, eid, mut rt) = setup(RuntimeConfig::default());
    let img = image("rt-test");
    let target = img.data_start();
    os.arm_ad_monitor(eid, [target]).expect("arm");
    let err = rt
        .read(&mut os, target.base(), &mut [0u8; 1])
        .expect_err("A/D-bit clearing must be detected");
    assert!(
        matches!(err, RtError::AttackDetected { why, .. } if why.contains("accessed/dirty")),
        "got {err}"
    );
    // The monitor's poll finds nothing: the bits were never set.
    os.attacker_poll();
    if let autarky_os_sim::Attacker::AdMonitor(m) = &os.attacker {
        assert!(m.trace.is_empty(), "no A/D bits leaked");
    } else {
        panic!("monitor still armed");
    }
}

#[test]
fn pin_all_treats_any_tracked_fault_as_attack() {
    let (mut os, _eid, mut rt) = setup(RuntimeConfig {
        mode: PolicyMode::PinAll,
        ..Default::default()
    });
    let img = image("rt-test");
    let page = img.data_start();
    rt.evict_pages(&mut os, &[page])
        .expect("evict (test setup)");
    let err = rt
        .read(&mut os, page.base(), &mut [0u8; 1])
        .expect_err("PinAll tolerates no faults");
    assert!(matches!(err, RtError::AttackDetected { .. }));
}

#[test]
fn rate_limit_trips_and_terminates() {
    let (mut os, _eid, mut rt) = setup(RuntimeConfig {
        rate_limit: Some(RateLimit {
            max_faults_per_progress: 1.0,
            burst: 4,
        }),
        budget: 15, // small: forces heavy paging
        ..Default::default()
    });
    let img = image("rt-test");
    // Thrash two pages with no progress: the limiter must trip.
    let a = img.data_start();
    let mut err = None;
    for _ in 0..64 {
        let target = a;
        rt.evict_pages(&mut os, &[target]).expect("evict");
        match rt.read(&mut os, target.base(), &mut [0u8; 1]) {
            Ok(()) => {}
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    assert!(
        matches!(err, Some(RtError::RateLimitExceeded)),
        "got {err:?}"
    );
    assert!(rt.is_terminated());
}

#[test]
fn progress_keeps_rate_limited_enclave_alive() {
    let (mut os, _eid, mut rt) = setup(RuntimeConfig {
        rate_limit: Some(RateLimit {
            max_faults_per_progress: 2.0,
            burst: 4,
        }),
        ..Default::default()
    });
    let img = image("rt-test");
    let a = img.data_start();
    for _ in 0..64 {
        rt.progress(1); // the server "does work" between faults
        rt.evict_pages(&mut os, &[a]).expect("evict");
        rt.read(&mut os, a.base(), &mut [0u8; 1])
            .expect("stays below bound");
    }
}

#[test]
fn os_managed_fault_forwarded_not_fatal() {
    let (mut os, eid, mut rt) = setup(RuntimeConfig::default());
    let img = image("rt-test");
    // Declare a heap page OS-managed (insensitive buffer, §7.3 libjpeg),
    // allocate + accept it, and let the OS page it out silently.
    let heap_page = img.heap_start();
    os.ay_set_os_managed(eid, &[heap_page])
        .expect("declare os-managed");
    os.ay_alloc_pages(eid, &[heap_page]).expect("alloc");
    os.machine.eaccept(eid, heap_page).expect("accept");
    os.machine
        .write_bytes(eid, 0, heap_page.base(), &[9u8; 4])
        .expect("write");
    // OS evicts it behind the enclave's back — allowed for os-managed.
    os.evict_os_page(eid, heap_page).expect("os evicts");
    // The enclave's next access faults; the handler forwards it to the
    // OS instead of treating it as an attack.
    let mut buf = [0u8; 4];
    rt.read(&mut os, heap_page.base(), &mut buf)
        .expect("forwarded fetch succeeds");
    assert_eq!(buf, [9u8; 4]);
    assert_eq!(rt.stats.forwarded, 1);
    assert!(!rt.is_terminated());
}

#[test]
fn allocator_lazily_allocates_and_auto_clusters() {
    let (mut os, _eid, mut rt) = setup(RuntimeConfig {
        auto_cluster_size: 4,
        ..Default::default()
    });
    let va = rt.malloc(&mut os, 6 * PAGE_SIZE).expect("alloc 6 pages");
    assert_eq!(rt.stats.pages_allocated, 6);
    // Pages landed in auto clusters of 4.
    let first = va.vpn();
    let ids = rt.clusters.ay_get_cluster_ids(first);
    assert_eq!(ids.len(), 1);
    assert_eq!(rt.clusters.cluster_len(ids[0]), 4);
    // Data is usable.
    rt.write(&mut os, va, &[5u8; 64]).expect("write");
    let mut buf = [0u8; 64];
    rt.read(&mut os, va, &mut buf).expect("read");
    assert_eq!(buf, [5u8; 64]);
}

#[test]
fn free_list_reuses_allocations() {
    let (mut os, _eid, mut rt) = setup(RuntimeConfig::default());
    let a = rt.malloc(&mut os, 256).expect("a");
    rt.free(a, 256);
    let b = rt.malloc(&mut os, 256).expect("b");
    assert_eq!(a, b, "free list must recycle");
}

#[test]
fn elide_aex_path_works_and_is_cheaper() {
    let img = image("rt-test");
    let page = img.data_start();

    let run = |elide: bool| -> u64 {
        let (mut os, _eid, mut rt) = setup_with(
            MachineConfig {
                epc_frames: 512,
                elide_aex: elide,
                ..Default::default()
            },
            RuntimeConfig::default(),
        );
        rt.write(&mut os, page.base(), &[7; 8]).expect("write");
        let start = os.machine.clock.now();
        for _ in 0..32 {
            rt.evict_pages(&mut os, &[page]).expect("evict");
            rt.read(&mut os, page.base(), &mut [0u8; 8]).expect("fetch");
        }
        os.machine.clock.now() - start
    };
    let normal = run(false);
    let elided = run(true);
    assert!(
        elided < normal,
        "AEX elision must be faster: {elided} vs {normal} cycles"
    );
    // The savings must be roughly the transition costs per fault.
    let costs = autarky_sgx_sim::CostModel::default();
    let saved_per_fault = (normal - elided) / 32;
    let expected = costs.preemption() + costs.handler_invocation() + costs.os_fault_handler;
    assert!(
        (saved_per_fault as i64 - expected as i64).unsigned_abs() < expected / 2,
        "saved {saved_per_fault} per fault, expected ≈{expected}"
    );
}

#[test]
fn no_upcall_variant_is_cheaper_than_measured() {
    let img = image("rt-test");
    let page = img.data_start();
    let run = |no_upcall: bool| -> u64 {
        let (mut os, _eid, mut rt) = setup_with(
            MachineConfig {
                epc_frames: 512,
                elide_handler_invocation: no_upcall,
                ..Default::default()
            },
            RuntimeConfig::default(),
        );
        rt.write(&mut os, page.base(), &[7; 8]).expect("write");
        let start = os.machine.clock.now();
        for _ in 0..32 {
            rt.evict_pages(&mut os, &[page]).expect("evict");
            rt.read(&mut os, page.base(), &mut [0u8; 8]).expect("fetch");
        }
        os.machine.clock.now() - start
    };
    let measured = run(false);
    let no_upcall = run(true);
    assert!(no_upcall < measured);
}

#[test]
fn suspended_enclave_resumes_without_attack_verdict() {
    // Whole-enclave swap is legal: all pages return before resumption, so
    // the runtime sees no unexpected faults afterwards.
    let (mut os, eid, mut rt) = setup(RuntimeConfig::default());
    let img = image("rt-test");
    let page = img.data_start();
    rt.write(&mut os, page.base(), &[3; 8]).expect("write");
    os.suspend_enclave(eid).expect("suspend");
    os.resume_enclave(eid).expect("resume");
    let mut buf = [0u8; 8];
    rt.read(&mut os, page.base(), &mut buf)
        .expect("no faults after resume");
    assert_eq!(buf, [3; 8]);
    assert!(!rt.is_terminated());
}

#[test]
fn per_library_code_clusters_share_dependency_pages() {
    // libjpeg and the app both call into libc; a fault on either must
    // co-fetch libc, and the transitive rule must pull in every cluster
    // sharing those pages.
    let mut img = EnclaveImage::named("libs");
    img.code_pages = 12;
    img.heap_pages = 16;
    let libc = img.add_library("libc", 4, &[]);
    let libjpeg = img.add_library("libjpeg", 4, &[libc]);
    let app = img.add_library("app", 4, &[libc, libjpeg]);
    let mut os = Os::new(MachineConfig {
        epc_frames: 512,
        ..Default::default()
    });
    let eid = os.load_enclave(&img).expect("load");
    let mut rt = Runtime::attach(&mut os, eid, RuntimeConfig::default()).expect("attach");

    // libc's pages are shared by all three clusters.
    let libc_page = img.library_pages(libc)[0];
    assert_eq!(rt.clusters.ay_get_cluster_ids(libc_page).len(), 3);
    // The app's pages are in exactly its own cluster.
    let app_page = img.library_pages(app)[0];
    assert_eq!(rt.clusters.ay_get_cluster_ids(app_page).len(), 1);

    // Evict everything code-related (one cluster at a time is safe).
    let all_code: Vec<Vpn> = img.code_range().collect();
    rt.evict_pages(&mut os, &all_code).expect("evict code");
    assert!(rt.cluster_invariant_holds());

    // Executing one libjpeg instruction faults; the fetch set must cover
    // the transitive closure: libjpeg + libc + (via shared libc pages)
    // the app cluster as well.
    rt.exec(&mut os, img.library_pages(libjpeg)[0].base())
        .expect("exec faults and fetches");
    for vpn in img.code_range() {
        assert_eq!(rt.residency(vpn), Some(true), "{vpn} must be co-fetched");
    }
    assert!(rt.cluster_invariant_holds());
}

#[test]
fn cooperative_budget_shrink_evicts_down() {
    let (mut os, _eid, mut rt) = setup(RuntimeConfig {
        budget: 64,
        ..Default::default()
    });
    let before = rt.resident_pages();
    assert!(before > 8);
    rt.shrink_budget(&mut os, 8).expect("shrink");
    assert!(
        rt.resident_pages() <= 8,
        "resident {} after shrink",
        rt.resident_pages()
    );
    // The enclave still runs correctly afterwards.
    let img = image("rt-test");
    let mut buf = [0u8; 4];
    rt.read(&mut os, img.data_start().base(), &mut buf)
        .expect("read pages back");
    assert!(!rt.is_terminated());
}

#[test]
fn sgx2_paging_preserves_code_page_permissions() {
    // Regression: the SGXv2 software path must restore a code page as
    // executable, or its next instruction fetch looks like an attack.
    let (mut os, _eid, mut rt) = setup(RuntimeConfig {
        mechanism: PagingMechanism::Sgx2,
        cluster_code: true,
        ..Default::default()
    });
    let img = image("rt-test");
    let code_page = img.code_start();
    rt.exec(&mut os, code_page.base())
        .expect("code runs while resident");
    // Evict the whole code cluster via the software path.
    let code: Vec<Vpn> = img.code_range().collect();
    rt.evict_pages(&mut os, &code).expect("sw evict code");
    assert_eq!(rt.residency(code_page), Some(false));
    // Executing again must fault, refetch, and RUN — not die as an attack.
    rt.exec(&mut os, code_page.base())
        .expect("refetched code page must be executable again");
    assert!(!rt.is_terminated());
}

#[test]
fn checkpoint_codec_round_trips_byte_identically() {
    let (mut os, _eid, mut rt) = setup(RuntimeConfig {
        mechanism: PagingMechanism::Sgx2,
        rate_limit: Some(RateLimit {
            max_faults_per_progress: 8.0,
            burst: 32,
        }),
        budget: 24,
        ..Default::default()
    });
    let img = image("rt-test");
    let page = img.data_start();
    // Exercise enough machinery to populate every state section: paging
    // (tracked/fifo/sw_versions/sw_perms), the allocator (heap free
    // lists), clusters, the limiter, and telemetry spans.
    rt.write(&mut os, page.base(), &[0x5A; 32]).expect("write");
    rt.evict_pages(&mut os, &[page]).expect("evict");
    let mut buf = [0u8; 32];
    rt.read(&mut os, page.base(), &mut buf).expect("fault back");
    let va = rt.malloc(&mut os, PAGE_SIZE * 3).expect("malloc");
    rt.free(va, PAGE_SIZE * 3);
    rt.progress(7);

    let blob = rt.capture_bytes();
    let restored = Runtime::restore_from_bytes(&blob).expect("decode");
    // Re-encoding the restored runtime must reproduce the blob exactly —
    // this covers every field the codec carries, including telemetry.
    assert_eq!(restored.capture_bytes(), blob, "byte-identical re-encode");
    assert_eq!(restored.stats.faults_handled, rt.stats.faults_handled);
    assert_eq!(restored.stats.pages_fetched, rt.stats.pages_fetched);
    assert_eq!(restored.resident_pages(), rt.resident_pages());
    assert_eq!(restored.residency(page), rt.residency(page));
}

#[test]
fn runtime_is_small_enough_to_move_per_request() {
    // A fleet moves each member's runtime by value on every request; the
    // telemetry (~24 KiB of histograms) lives behind a box so the move
    // stays a few hundred bytes.
    assert!(std::mem::size_of::<Runtime>() <= 1024);
}

#[test]
fn checkpoint_codec_rejects_huge_counts() {
    // No rate limit, so the tracked-page count sits at byte 84. SGXv2
    // eviction fills the software-permission map and a freed allocation
    // a free list, so the walk below crosses non-empty sections.
    let (mut os, _eid, mut rt) = setup(RuntimeConfig {
        mechanism: PagingMechanism::Sgx2,
        budget: 24,
        ..Default::default()
    });
    let page = image("rt-test").data_start();
    rt.write(&mut os, page.base(), &[0x5A; 32]).expect("write");
    rt.evict_pages(&mut os, &[page]).expect("evict");
    let va = rt.malloc(&mut os, 64).expect("malloc");
    rt.free(va, 64);
    let blob = rt.capture_bytes();

    let count_at =
        |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().expect("8 bytes")) as usize;
    // Section layout after the fixed header: tracked (vpn, state), FIFO
    // vpns, resident count, software versions (vpn, version), software
    // permissions (vpn, bits), hardware versions, four heap words, then
    // the free lists.
    let tracked = 84;
    let fifo = tracked + 8 + 9 * count_at(tracked);
    let sw_versions = fifo + 8 + 8 * count_at(fifo) + 8;
    let sw_perms = sw_versions + 8 + 16 * count_at(sw_versions);
    let hw_versions = sw_perms + 8 + 9 * count_at(sw_perms);
    let free_lists = hw_versions + 8 + 16 * count_at(hw_versions) + 32;
    assert!(count_at(sw_perms) > 0 && count_at(free_lists) > 0);
    for (name, at) in [
        ("tracked", tracked),
        ("sw_perms", sw_perms),
        ("free_lists", free_lists),
    ] {
        let mut huge = blob.clone();
        huge[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(
            Runtime::restore_from_bytes(&huge).is_none(),
            "{name} count u64::MAX"
        );
    }
}

#[test]
fn checkpoint_codec_rejects_malformed_blobs() {
    let (mut _os, _eid, rt) = setup(RuntimeConfig::default());
    let blob = rt.capture_bytes();
    assert!(Runtime::restore_from_bytes(&[]).is_none(), "empty");
    assert!(
        Runtime::restore_from_bytes(&blob[..blob.len() - 1]).is_none(),
        "truncated"
    );
    let mut bad_magic = blob.clone();
    bad_magic[0] ^= 0xFF;
    assert!(Runtime::restore_from_bytes(&bad_magic).is_none(), "magic");
    let mut bad_version = blob.clone();
    bad_version[4] = 9;
    assert!(
        Runtime::restore_from_bytes(&bad_version).is_none(),
        "version"
    );
    let mut trailing = blob.clone();
    trailing.push(0);
    assert!(
        Runtime::restore_from_bytes(&trailing).is_none(),
        "trailing bytes"
    );
}
