//! Integration tests for the untrusted OS: loading, demand paging under
//! EPC pressure, the Autarky driver syscalls, whole-enclave swap, and the
//! attacker machinery against legacy enclaves.
//!
//! (Runtime-cooperating flows — the trusted handler, policies, attack
//! *defense* — are tested in `autarky-runtime` and the workspace-level
//! `tests/attack_defense.rs`.)

use autarky_os_sim::{
    EnclaveImage, FaultDisposition, FaultPlan, InjectedFault, Observation, Os, OsError,
};
use autarky_sgx_sim::machine::MachineConfig;
use autarky_sgx_sim::seal::seals_computed;
use autarky_sgx_sim::{AccessError, EnclaveId, SgxError, Va, Vpn};

fn small_image(name: &str, self_paging: bool) -> EnclaveImage {
    let mut img = EnclaveImage::named(name);
    img.self_paging = self_paging;
    img.code_pages = 4;
    img.data_pages = 4;
    img.stack_pages = 2;
    img.heap_pages = 16;
    img
}

fn os_with_frames(frames: usize) -> Os {
    Os::new(MachineConfig {
        epc_frames: frames,
        ..Default::default()
    })
}

/// Back a range of heap pages (what the in-enclave allocator would do:
/// `ay_alloc_pages` + `EACCEPT` per page).
fn alloc_heap(os: &mut Os, eid: EnclaveId, pages: &[Vpn]) {
    os.ay_alloc_pages(eid, pages).expect("alloc");
    for &vpn in pages {
        os.machine.eaccept(eid, vpn).expect("accept");
    }
}

/// Drive a legacy-enclave read to completion, letting the OS resolve
/// faults the way a real kernel would.
fn legacy_read(os: &mut Os, eid: EnclaveId, va: Va, buf: &mut [u8]) {
    loop {
        match os.machine.read_bytes(eid, 0, va, buf) {
            Ok(()) => return,
            Err(AccessError::Fault(ev)) => {
                let disp = os.on_fault(ev).expect("OS resolves legacy fault");
                assert_eq!(disp, FaultDisposition::Resumed);
            }
            Err(AccessError::Fatal(e)) => panic!("fatal: {e}"),
        }
    }
}

fn legacy_write(os: &mut Os, eid: EnclaveId, va: Va, buf: &[u8]) {
    loop {
        match os.machine.write_bytes(eid, 0, va, buf) {
            Ok(()) => return,
            Err(AccessError::Fault(ev)) => {
                os.on_fault(ev).expect("OS resolves legacy fault");
            }
            Err(AccessError::Fatal(e)) => panic!("fatal: {e}"),
        }
    }
}

#[test]
fn load_and_touch_legacy_enclave() {
    let mut os = os_with_frames(256);
    let img = small_image("legacy", false);
    let eid = os.load_enclave(&img).expect("load");
    let data_va = img.data_start().base();
    legacy_write(&mut os, eid, data_va, &[1, 2, 3]);
    let mut buf = [0u8; 3];
    legacy_read(&mut os, eid, data_va, &mut buf);
    assert_eq!(buf, [1, 2, 3]);
}

#[test]
fn image_larger_than_epc_loads_and_runs() {
    // 16 frames of EPC, but the *initial* (measured) image needs more:
    // the loader must page as it goes, and the enclave must still run via
    // demand paging.
    let mut os = os_with_frames(16);
    let mut img = small_image("big", false);
    img.data_pages = 24; // initial pages alone exceed EPC
    assert!(img.tcs_count + img.code_pages + img.data_pages + img.stack_pages > 16);
    let eid = os.load_enclave(&img).expect("load pages out as it goes");
    assert!(os.machine.epc_frames_of(eid) <= 16);

    // Touch every data page; every access must eventually succeed.
    let data: Vec<Vpn> = (img.data_start().0..img.stack_start().0).map(Vpn).collect();
    for &vpn in &data {
        legacy_write(&mut os, eid, vpn.base(), &[vpn.0 as u8]);
    }
    for &vpn in &data {
        let mut buf = [0u8; 1];
        legacy_read(&mut os, eid, vpn.base(), &mut buf);
        assert_eq!(buf[0], vpn.0 as u8, "contents preserved across swaps");
    }
    // Demand paging must actually have happened.
    let stats = os.machine.stats();
    assert!(stats.ewbs > 0, "evictions under pressure");
    assert!(stats.eldus > 0, "reloads on fault");
}

#[test]
fn quota_bounds_residency() {
    let mut os = os_with_frames(256);
    let img = small_image("q", false);
    let eid = os.load_enclave(&img).expect("load");
    os.set_epc_quota(eid, 8).expect("quota");
    for vpn in img.heap_range() {
        alloc_heap(&mut os, eid, &[vpn]);
        legacy_write(&mut os, eid, vpn.base(), &[9]);
        assert!(
            os.machine.epc_frames_of(eid) <= 8,
            "resident frames exceed quota"
        );
    }
}

#[test]
fn full_epc_breaks_victim_ties_deterministically() {
    // Two identical legacy enclaves exactly fill the EPC, then one of
    // them allocates a page within its quota: the OS must evict from
    // whichever enclave holds the most frames, and with both tied the
    // choice must be the same on every host.
    let img = small_image("tie", false);
    let frames = {
        let mut os = os_with_frames(256);
        os.load_enclave(&img).expect("load");
        256 - os.machine.epc_free_frames()
    };
    let requester_evicted: Vec<bool> = (0..32)
        .map(|_| {
            let mut os = os_with_frames(2 * frames);
            let neighbor = os.load_enclave(&img).expect("load neighbor");
            let requester = os.load_enclave(&img).expect("load requester");
            assert_eq!(os.machine.epc_free_frames(), 0, "the EPC is exactly full");
            os.ay_alloc_pages(requester, &[img.heap_start()])
                .expect("alloc");
            os.machine.epc_frames_of(neighbor) == frames
        })
        .collect();
    assert!(
        requester_evicted.iter().all(|&r| r == requester_evicted[0]),
        "victim varies across hosts: {requester_evicted:?}"
    );
}

#[test]
fn fault_tracer_recovers_legacy_access_pattern() {
    let mut os = os_with_frames(256);
    let img = small_image("victim", false);
    let eid = os.load_enclave(&img).expect("load");
    let heap: Vec<Vpn> = img.heap_range().collect();
    alloc_heap(&mut os, eid, &heap[..4]);

    // Secret-dependent access pattern over 4 pages.
    let secret = [2usize, 0, 3, 1, 2, 2, 0];
    os.arm_fault_tracer(eid, heap[..4].iter().copied())
        .expect("arm");
    for &s in &secret {
        let mut buf = [0u8; 1];
        legacy_read(&mut os, eid, heap[s].base(), &mut buf);
    }
    let attacker = os.disarm_attacker();
    let trace = match attacker {
        autarky_os_sim::Attacker::FaultTracer(t) => t.trace,
        other => panic!("unexpected attacker {other:?}"),
    };
    // The trace must reproduce the secret sequence (repeated accesses to
    // the same page do not re-fault, exactly like the real attack).
    let expected: Vec<Vpn> = {
        let mut out = Vec::new();
        let mut last = None;
        for &s in &secret {
            if last != Some(s) {
                out.push(heap[s]);
                last = Some(s);
            }
        }
        out
    };
    assert_eq!(trace, expected, "noise-free page-granular trace recovered");
}

#[test]
fn ad_monitor_sees_legacy_accesses_without_faults() {
    let mut os = os_with_frames(256);
    let img = small_image("victim2", false);
    let eid = os.load_enclave(&img).expect("load");
    let heap: Vec<Vpn> = img.heap_range().collect();
    alloc_heap(&mut os, eid, &heap[..4]);

    os.arm_ad_monitor(eid, heap[..4].iter().copied())
        .expect("arm");
    let faults_before = os.machine.stats().faults;

    let mut buf = [0u8; 1];
    legacy_read(&mut os, eid, heap[1].base(), &mut buf);
    os.attacker_poll();
    legacy_write(&mut os, eid, heap[3].base(), &[1]);
    os.attacker_poll();

    assert_eq!(
        os.machine.stats().faults,
        faults_before,
        "A/D monitoring is fault-free on legacy SGX"
    );
    let attacker = os.disarm_attacker();
    let trace = match attacker {
        autarky_os_sim::Attacker::AdMonitor(m) => m.trace,
        other => panic!("unexpected attacker {other:?}"),
    };
    assert_eq!(trace, vec![(heap[1], false), (heap[3], true)]);
}

#[test]
fn masked_faults_defeat_fault_tracer() {
    // Against a self-paging enclave the tracer only counts masked faults;
    // it cannot attribute them to pages. (Full handler-side detection is
    // tested with the runtime.)
    let mut os = os_with_frames(256);
    let img = small_image("protected", true);
    let eid = os.load_enclave(&img).expect("load");
    let data = img.data_start();
    os.arm_fault_tracer(eid, [data]).expect("arm");

    let err = os
        .machine
        .read_bytes(eid, 0, data.base(), &mut [0u8; 1])
        .expect_err("unmapped page faults");
    let ev = match err {
        AccessError::Fault(ev) => ev,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(ev.reported_va, img.base, "report masked to enclave base");
    let disp = os.on_fault(ev).expect("fault entry");
    assert_eq!(disp, FaultDisposition::HandlerRequired);
    match &os.attacker {
        autarky_os_sim::Attacker::FaultTracer(t) => {
            assert!(t.trace.is_empty(), "no attributable trace");
            assert_eq!(t.masked_faults, 1);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn driver_transfers_management_and_pins() {
    let mut os = os_with_frames(64);
    let img = small_image("drv", true);
    let eid = os.load_enclave(&img).expect("load");
    let data: Vec<Vpn> = (img.data_start().0..img.stack_start().0).map(Vpn).collect();

    let status = os.ay_set_enclave_managed(eid, &data).expect("claim");
    assert!(
        status.iter().all(|(_, resident)| *resident),
        "initially resident"
    );

    // Pinned pages must survive OS memory pressure from another enclave.
    let mut img2 = small_image("pressure", false);
    img2.base = Va(0x4000_0000);
    img2.heap_pages = 64; // exceeds what's left
    let eid2 = os.load_enclave(&img2).expect("second enclave loads");
    for (vpn, _) in &status {
        assert!(
            os.machine.is_resident(eid, *vpn),
            "enclave-managed page {vpn} evicted despite pin"
        );
    }
    let _ = eid2;
}

#[test]
fn driver_fetch_evict_roundtrip() {
    let mut os = os_with_frames(128);
    let img = small_image("rt", true);
    let eid = os.load_enclave(&img).expect("load");
    let page = img.data_start();
    os.ay_set_enclave_managed(eid, &[page]).expect("claim");

    // Write through the machine, evict, then fetch back.
    os.machine
        .write_bytes(eid, 0, page.base(), &[0xEE; 4])
        .expect("write while resident");
    os.ay_evict_pages(eid, &[page]).expect("evict");
    assert!(!os.machine.is_resident(eid, page));
    os.ay_fetch_pages(eid, &[page]).expect("fetch");
    let mut buf = [0u8; 4];
    os.machine
        .read_bytes(eid, 0, page.base(), &mut buf)
        .expect("read back");
    assert_eq!(buf, [0xEE; 4]);
}

#[test]
fn an_honest_cluster_round_trip_computes_no_seal() {
    let mut os = os_with_frames(128);
    let img = small_image("honest", true);
    let eid = os.load_enclave(&img).expect("load");
    let cluster: Vec<Vpn> = (0..img.data_pages as u64)
        .map(|i| Vpn(img.data_start().0 + i))
        .collect();
    os.ay_set_enclave_managed(eid, &cluster).expect("claim");
    for (i, vpn) in cluster.iter().enumerate() {
        os.machine
            .write_bytes(eid, 0, vpn.base(), &[i as u8 + 1; 8])
            .expect("write while resident");
    }
    let seals = seals_computed();
    os.ay_evict_pages(eid, &cluster).expect("evict");
    os.ay_fetch_pages(eid, &cluster).expect("fetch");
    assert_eq!(seals_computed(), seals, "no blob's bytes were read");
    for (i, vpn) in cluster.iter().enumerate() {
        let mut buf = [0u8; 8];
        os.machine
            .read_bytes(eid, 0, vpn.base(), &mut buf)
            .expect("read back");
        assert_eq!(buf, [i as u8 + 1; 8]);
    }
}

#[test]
fn corrupting_a_shared_blob_copies_it_first() {
    // A clone shares the blob's body; the OS's tampering must seal it
    // once and write a copy, never the body behind the clone.
    let mut os = os_with_frames(128);
    let img = small_image("tamper", true);
    let eid = os.load_enclave(&img).expect("load");
    let page = img.data_start();
    os.ay_set_enclave_managed(eid, &[page]).expect("claim");
    os.machine
        .write_bytes(eid, 0, page.base(), &[0xEE; 4])
        .expect("write while resident");
    os.ay_evict_pages(eid, &[page]).expect("evict");
    let genuine = os.backing.get_sealed(eid, page).expect("blob").clone();

    let seals = seals_computed();
    assert!(os.backing.corrupt_sealed(eid, page));
    assert_eq!(seals_computed(), seals + 1, "one seal");
    let corrupt = os.backing.get_sealed(eid, page).expect("blob");
    let mut unflipped = corrupt.ciphertext().to_vec();
    unflipped[0] ^= 0x01;
    assert_eq!(unflipped, genuine.ciphertext(), "shared bytes untouched");
    assert_eq!(corrupt.tag(), genuine.tag());
    assert!(matches!(
        os.ay_fetch_pages(eid, &[page]),
        Err(OsError::Sgx(SgxError::SealBroken))
    ));

    os.backing.put_sealed(genuine);
    os.ay_fetch_pages(eid, &[page])
        .expect("the genuine blob loads");
    assert_eq!(seals_computed(), seals + 1, "still one seal");
    let mut buf = [0u8; 4];
    os.machine
        .read_bytes(eid, 0, page.base(), &mut buf)
        .expect("read back");
    assert_eq!(buf, [0xEE; 4]);
}

#[test]
fn driver_alloc_then_accept() {
    let mut os = os_with_frames(128);
    let img = small_image("alloc", true);
    let eid = os.load_enclave(&img).expect("load");
    let heap0 = img.heap_start();
    os.ay_alloc_pages(eid, &[heap0]).expect("alloc");
    // Pending page faults until the enclave accepts it.
    assert!(matches!(
        os.machine.read_bytes(eid, 0, heap0.base(), &mut [0u8; 1]),
        Err(AccessError::Fault(_))
    ));
    // The trusted runtime accepts; then the page works.
    os.machine.eenter(eid, 0).expect("handler entry");
    os.machine.eaccept(eid, heap0).expect("accept");
    os.machine.pop_ssa(eid, 0).expect("pop fault frame");
    os.machine
        .write_bytes(eid, 0, heap0.base(), &[5u8])
        .expect("usable after accept");
}

#[test]
fn syscalls_are_observable() {
    let mut os = os_with_frames(128);
    let img = small_image("obs", true);
    let eid = os.load_enclave(&img).expect("load");
    let page = img.data_start();
    let mark = os.observation_mark();
    os.ay_set_enclave_managed(eid, &[page]).expect("claim");
    os.ay_evict_pages(eid, &[page]).expect("evict");
    os.ay_fetch_pages(eid, &[page]).expect("fetch");
    let obs = os.observations_since(mark);
    assert!(obs
        .iter()
        .any(|o| matches!(o, Observation::SetEnclaveManaged { pages, .. } if pages == &[page])));
    assert!(obs
        .iter()
        .any(|o| matches!(o, Observation::EvictSyscall { pages, .. } if pages == &[page])));
    assert!(obs
        .iter()
        .any(|o| matches!(o, Observation::FetchSyscall { pages, .. } if pages == &[page])));
}

/// The observation stream is append-only and cursor reads are
/// non-draining: a mark sees exactly the events recorded after it was
/// taken, repeated reads return the same slice, and older marks keep
/// strictly larger views — nothing a consumer does can steal events
/// from another.
#[test]
fn cursor_reads_are_repeatable_and_non_draining() {
    let mut os = os_with_frames(128);
    let img = small_image("cursor", true);
    let eid = os.load_enclave(&img).expect("load");
    let page = img.data_start();
    let early_mark = os.observation_mark();
    os.ay_set_enclave_managed(eid, &[page]).expect("claim");
    let mark = os.observation_mark();
    os.ay_evict_pages(eid, &[page]).expect("evict");
    os.ay_fetch_pages(eid, &[page]).expect("fetch");

    // A mark sees only post-mark events.
    let since = os.observations_since(mark).to_vec();
    assert!(
        !since
            .iter()
            .any(|o| matches!(o, Observation::SetEnclaveManaged { .. })),
        "pre-mark events are invisible through the mark"
    );
    assert!(since
        .iter()
        .any(|o| matches!(o, Observation::EvictSyscall { .. })));
    assert!(since
        .iter()
        .any(|o| matches!(o, Observation::FetchSyscall { .. })));

    // Reads are repeatable (non-draining) and independent per consumer.
    assert_eq!(os.observations_since(mark), since.as_slice());
    let early = os.observations_since(early_mark);
    assert!(
        early.len() > since.len(),
        "an older mark sees a strict superset"
    );
    assert_eq!(&early[early.len() - since.len()..], since.as_slice());

    // A fresh mark equals the stream length; beyond-the-end marks are
    // clamped to empty rather than panicking.
    assert_eq!(os.observation_mark(), os.observations().len() as u64);
    assert!(os
        .observations_since(os.observation_mark() + 1000)
        .is_empty());
}

#[test]
fn suspend_and_resume_whole_enclave() {
    let mut os = os_with_frames(128);
    let img = small_image("swap", true);
    let eid = os.load_enclave(&img).expect("load");
    let page = img.data_start();
    os.ay_set_enclave_managed(eid, &[page]).expect("claim");
    os.machine
        .write_bytes(eid, 0, page.base(), &[0x77; 8])
        .expect("write");

    let evicted = os.suspend_enclave(eid).expect("suspend");
    assert!(evicted > 0);
    assert!(os.is_suspended(eid));
    assert_eq!(os.machine.epc_frames_of(eid), 0, "everything out");

    let restored = os.resume_enclave(eid).expect("resume");
    assert_eq!(
        restored, evicted,
        "contract: all pages restored before resume"
    );
    assert!(
        os.machine.is_resident(eid, page),
        "enclave-managed page back"
    );
    let mut buf = [0u8; 8];
    os.machine
        .read_bytes(eid, 0, page.base(), &mut buf)
        .expect("read");
    assert_eq!(buf, [0x77; 8]);
}

#[test]
fn self_paging_enclave_fault_forces_reentry() {
    let mut os = os_with_frames(128);
    let img = small_image("handler", true);
    let eid = os.load_enclave(&img).expect("load");
    let page = img.data_start();
    os.ay_set_enclave_managed(eid, &[page]).expect("claim");
    os.ay_evict_pages(eid, &[page]).expect("evict");

    let err = os
        .machine
        .read_bytes(eid, 0, page.base(), &mut [0u8; 1])
        .expect_err("fault on evicted page");
    let ev = match err {
        AccessError::Fault(ev) => ev,
        other => panic!("unexpected {other:?}"),
    };
    // ERESUME must be refused before the handler runs.
    assert_eq!(os.machine.eresume(eid, 0), Err(SgxError::ResumeBlocked));
    let disp = os.on_fault(ev).expect("fault entry");
    assert_eq!(disp, FaultDisposition::HandlerRequired);
    // We are now "inside" the handler; the trusted side sees real info.
    let info = os.machine.ssa_exinfo(eid, 0).expect("tcs").expect("exinfo");
    assert_eq!(info.va, page.base());
}

/// The `completed` prefix length of the first injected partial batch in
/// an observation stream, if any.
fn partial_fault_completed(obs: &[Observation]) -> Option<usize> {
    obs.iter().find_map(|o| match o {
        Observation::FaultInjected {
            fault: InjectedFault::PartialBatch { completed },
            ..
        } => Some(*completed),
        _ => None,
    })
}

/// `ay_evict_pages` documents that on error a prefix of the batch may
/// already be evicted and a verbatim retry then fails with `BadRequest`;
/// callers must reconcile against residency first. The partial-batch
/// injector exercises exactly that contract.
#[test]
fn partial_batch_evict_prefix_semantics_and_reconciled_retry() {
    // Scan seeds for an interior split (0 < completed) so the processed
    // prefix is non-empty; the prefix index is a seeded secondary draw.
    for seed in 0..64 {
        let mut os = os_with_frames(128);
        let img = small_image("pb-evict", true);
        let eid = os.load_enclave(&img).expect("load");
        let pages: Vec<Vpn> = (img.data_start().0..img.stack_start().0).map(Vpn).collect();
        os.ay_set_enclave_managed(eid, &pages).expect("claim");
        let mark = os.observation_mark();
        os.arm_fault_plan(FaultPlan {
            partial_batch: 1.0,
            max_injections: Some(1),
            ..FaultPlan::quiescent(seed)
        });
        let err = os
            .ay_evict_pages(eid, &pages)
            .expect_err("partial batch fails");
        assert_eq!(err, OsError::NoMemory, "surfaces as transient NoMemory");
        let completed =
            partial_fault_completed(os.observations_since(mark)).expect("fault observed in log");
        // Documented state: pages[..completed] out, pages[completed..]
        // untouched.
        for (i, &vpn) in pages.iter().enumerate() {
            assert_eq!(os.machine.is_resident(eid, vpn), i >= completed, "page {i}");
        }
        if completed == 0 {
            continue;
        }
        // A verbatim retry trips over the already-evicted prefix.
        assert!(matches!(
            os.ay_evict_pages(eid, &pages),
            Err(OsError::BadRequest(_))
        ));
        // Reconciling against residency completes the batch.
        let remaining: Vec<Vpn> = pages
            .iter()
            .copied()
            .filter(|&vpn| os.machine.is_resident(eid, vpn))
            .collect();
        os.ay_evict_pages(eid, &remaining)
            .expect("reconciled retry");
        assert!(pages.iter().all(|&vpn| !os.machine.is_resident(eid, vpn)));
        return;
    }
    panic!("no seed in 0..64 produced a non-empty evicted prefix");
}

/// `ay_alloc_pages` documents the mirror contract: after a partial batch
/// the allocated prefix is resident, a verbatim retry is rejected with
/// `BadRequest("alloc of resident page")`, and the retry must skip pages
/// that are now resident.
#[test]
fn partial_batch_alloc_retry_must_skip_resident_prefix() {
    for seed in 0..64 {
        let mut os = os_with_frames(128);
        let img = small_image("pb-alloc", true);
        let eid = os.load_enclave(&img).expect("load");
        let heap: Vec<Vpn> = img.heap_range().take(8).collect();
        let mark = os.observation_mark();
        os.arm_fault_plan(FaultPlan {
            partial_batch: 1.0,
            max_injections: Some(1),
            ..FaultPlan::quiescent(seed)
        });
        let err = os
            .ay_alloc_pages(eid, &heap)
            .expect_err("partial alloc fails");
        assert_eq!(err, OsError::NoMemory);
        let completed =
            partial_fault_completed(os.observations_since(mark)).expect("fault observed in log");
        for (i, &vpn) in heap.iter().enumerate() {
            assert_eq!(os.machine.is_resident(eid, vpn), i < completed, "page {i}");
        }
        if completed == 0 {
            continue;
        }
        assert!(matches!(
            os.ay_alloc_pages(eid, &heap),
            Err(OsError::BadRequest(_))
        ));
        let missing: Vec<Vpn> = heap
            .iter()
            .copied()
            .filter(|&vpn| !os.machine.is_resident(eid, vpn))
            .collect();
        os.ay_alloc_pages(eid, &missing).expect("reconciled retry");
        assert!(heap.iter().all(|&vpn| os.machine.is_resident(eid, vpn)));
        return;
    }
    panic!("no seed in 0..64 produced a non-empty allocated prefix");
}

/// Fetch of an already-resident page is an idempotent remap, so — unlike
/// evict and alloc — a fetch batch that failed part-way may be retried
/// verbatim.
#[test]
fn partial_batch_fetch_is_retry_safe_verbatim() {
    for seed in 0..64 {
        let mut os = os_with_frames(128);
        let img = small_image("pb-fetch", true);
        let eid = os.load_enclave(&img).expect("load");
        let pages: Vec<Vpn> = (img.data_start().0..img.stack_start().0).map(Vpn).collect();
        os.ay_set_enclave_managed(eid, &pages).expect("claim");
        os.ay_evict_pages(eid, &pages).expect("evict all");
        let mark = os.observation_mark();
        os.arm_fault_plan(FaultPlan {
            partial_batch: 1.0,
            max_injections: Some(1),
            ..FaultPlan::quiescent(seed)
        });
        let err = os
            .ay_fetch_pages(eid, &pages)
            .expect_err("partial fetch fails");
        assert_eq!(err, OsError::NoMemory);
        let completed =
            partial_fault_completed(os.observations_since(mark)).expect("fault observed in log");
        for (i, &vpn) in pages.iter().enumerate() {
            assert_eq!(os.machine.is_resident(eid, vpn), i < completed, "page {i}");
        }
        if completed == 0 {
            continue;
        }
        os.ay_fetch_pages(eid, &pages)
            .expect("verbatim retry is safe for fetch");
        assert!(pages.iter().all(|&vpn| os.machine.is_resident(eid, vpn)));
        return;
    }
    panic!("no seed in 0..64 produced a non-empty fetched prefix");
}

/// An injected whole-enclave suspension fails the in-flight call with
/// `Suspended`, and the next driver entry transparently resumes the
/// enclave (as a real kernel's syscall-entry hook would) before
/// servicing the call.
#[test]
fn injected_suspend_surfaces_then_auto_resumes() {
    let mut os = os_with_frames(128);
    let img = small_image("pb-susp", true);
    let eid = os.load_enclave(&img).expect("load");
    let pages: Vec<Vpn> = (img.data_start().0..img.stack_start().0).map(Vpn).collect();
    os.ay_set_enclave_managed(eid, &pages).expect("claim");
    os.arm_fault_plan(FaultPlan {
        suspend: 1.0,
        max_injections: Some(1),
        ..FaultPlan::quiescent(11)
    });
    let err = os
        .ay_evict_pages(eid, &pages)
        .expect_err("injected suspend");
    assert_eq!(err, OsError::Suspended(eid));
    assert!(os.is_suspended(eid), "whole enclave swapped out");
    assert_eq!(os.machine.epc_frames_of(eid), 0);
    // Resume restores every sealed page, so the verbatim list is fully
    // resident again and the retried evict completes.
    os.ay_evict_pages(eid, &pages)
        .expect("auto-resume then evict");
    assert!(!os.is_suspended(eid));
    assert!(pages.iter().all(|&vpn| !os.machine.is_resident(eid, vpn)));
}

/// A fixed (seed, plan, workload) triple yields a bit-for-bit identical
/// outcome sequence, observation stream, final cycle count, and injected
/// fault tally.
#[test]
fn injector_schedule_is_deterministic() {
    let run = |seed: u64| {
        let mut os = os_with_frames(64);
        let img = small_image("det", true);
        let eid = os.load_enclave(&img).expect("load");
        let pages: Vec<Vpn> = (img.data_start().0..img.stack_start().0).map(Vpn).collect();
        os.ay_set_enclave_managed(eid, &pages).expect("claim");
        os.arm_fault_plan(FaultPlan::hostile(seed, 0.2));
        let mut outcomes = Vec::new();
        for round in 0..50 {
            let result = if round % 2 == 0 {
                os.ay_evict_pages(eid, &pages)
            } else {
                os.ay_fetch_pages(eid, &pages)
            };
            outcomes.push(result);
        }
        (
            outcomes,
            os.observations_since(0).to_vec(),
            os.machine.clock.now(),
            os.disarm_fault_plan(),
        )
    };
    let a = run(1234);
    let b = run(1234);
    assert_eq!(a, b, "same seed + plan => identical replay");
    let c = run(4321);
    assert!(
        a.1 != c.1 || a.2 != c.2,
        "different seed perturbs the schedule"
    );
}

#[test]
fn fetch_without_backing_rejected() {
    let mut os = os_with_frames(128);
    let img = small_image("bad", true);
    let eid = os.load_enclave(&img).expect("load");
    let never_allocated = img.heap_start();
    assert!(matches!(
        os.ay_fetch_pages(eid, &[never_allocated]),
        Err(OsError::BadRequest(_))
    ));
}
