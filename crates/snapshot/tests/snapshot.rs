//! End-to-end tests of sealed checkpoint/restore: byte-identical
//! continuation on a failover host, rollback/fork/truncation attacks
//! tripping `AttackDetected` with correct forensics attribution, and the
//! hardening-state carryover semantics.

use autarky_os_sim::flight::causal_root_of_attack;
use autarky_os_sim::{EnclaveImage, FaultPlan, FlightEvent, InjectedFault, Observation, Os};
use autarky_runtime::{
    PagingMechanism, RateLimit, RtError, Runtime, RuntimeConfig, MISBEHAVIOR_BUDGET,
};
use autarky_sgx_sim::machine::MachineConfig;
use autarky_sgx_sim::{EnclaveId, MonotonicCounter, SgxError};
use autarky_snapshot::{
    capture_checkpoint, encode_capture, restore, seal_checkpoint, snapshot, SnapError,
};

fn image(name: &str) -> EnclaveImage {
    let mut img = EnclaveImage::named(name);
    img.self_paging = true;
    img.code_pages = 4;
    img.data_pages = 8;
    img.stack_pages = 2;
    img.heap_pages = 64;
    img
}

fn mconfig() -> MachineConfig {
    MachineConfig {
        epc_frames: 512,
        ..Default::default()
    }
}

fn setup(config: RuntimeConfig) -> (Os, EnclaveId, Runtime) {
    let mut os = Os::new(mconfig());
    let eid = os.load_enclave(&image("snap-test")).expect("load");
    let rt = Runtime::attach(&mut os, eid, config).expect("attach");
    (os, eid, rt)
}

fn counter_for(os: &Os, eid: EnclaveId) -> MonotonicCounter {
    MonotonicCounter::new(os.machine.platform_key(), eid)
}

/// `Result::expect_err` needs `Debug` on the success type; `Runtime`
/// deliberately has none (it holds key material).
fn must_fail(result: Result<Runtime, SnapError>, msg: &str) -> SnapError {
    match result {
        Ok(_) => panic!("{msg}: restore unexpectedly succeeded"),
        Err(e) => e,
    }
}

/// Mutate enough state to make a trivial restore fail: dirty pages,
/// evictions, a heap allocation, rate-limiter history.
fn exercise(os: &mut Os, rt: &mut Runtime) {
    let img = image("snap-test");
    let data = img.data_start();
    rt.write(os, data.base(), &[0xAB; 64]).expect("write");
    rt.evict_pages(os, &[data]).expect("evict");
    let mut buf = [0u8; 64];
    rt.read(os, data.base(), &mut buf).expect("fault back");
    assert_eq!(buf, [0xAB; 64]);
    let heap = rt
        .malloc(os, 3 * autarky_sgx_sim::PAGE_SIZE)
        .expect("malloc");
    rt.write(os, heap, &[0x5A; 32]).expect("heap write");
}

/// Crash the origin host and boot a failover host that adopts the
/// enclave's untrusted OS-side state (backing store, observations,
/// flight recorder) — everything but the sealed snapshot itself.
fn failover(donor: &mut Os, eid: EnclaveId) -> Os {
    let mut host = Os::new(mconfig());
    host.adopt_untrusted_state(donor, eid).expect("adopt");
    host
}

#[test]
fn sealed_roundtrip_restores_byte_identical_state() {
    let (mut os, eid, mut rt) = setup(RuntimeConfig {
        mechanism: PagingMechanism::Sgx2,
        rate_limit: Some(RateLimit {
            max_faults_per_progress: 8.0,
            burst: 32,
        }),
        budget: 24,
        ..Default::default()
    });
    exercise(&mut os, &mut rt);
    let mut counter = counter_for(&os, eid);
    let blob = snapshot(&os, &rt, &mut counter).expect("snapshot");
    let rt_bytes = rt.capture_bytes();
    let machine_bytes = encode_capture(&os.machine.capture_enclave(eid).expect("capture"));

    let mut host = failover(&mut os, eid);
    let mut restored = restore(&mut host, &mut counter, &blob).expect("restore");

    // Byte-identical state on both halves of the seal.
    assert_eq!(restored.capture_bytes(), rt_bytes, "runtime state differs");
    assert_eq!(
        encode_capture(&host.machine.capture_enclave(eid).expect("re-capture")),
        machine_bytes,
        "machine state differs"
    );

    // The restored enclave continues the workload where it left off.
    let img = image("snap-test");
    let data = img.data_start();
    let mut buf = [0u8; 64];
    restored
        .read(&mut host, data.base(), &mut buf)
        .expect("read on failover host");
    assert_eq!(buf, [0xAB; 64], "page contents survived the seal");
    restored
        .evict_pages(&mut host, &[data])
        .expect("evict on failover host");
    restored
        .read(&mut host, data.base(), &mut buf)
        .expect("fault back on failover host");
    assert_eq!(buf, [0xAB; 64]);
}

#[test]
fn stale_snapshot_restore_trips_attack_with_forensics() {
    let (mut os, eid, mut rt) = setup(RuntimeConfig::default());
    exercise(&mut os, &mut rt);
    let mut counter = counter_for(&os, eid);
    let stale = snapshot(&os, &rt, &mut counter).expect("snapshot v1");
    // More work, then a fresh snapshot: the stale blob is now behind.
    let img = image("snap-test");
    rt.write(&mut os, img.data_start().base(), &[0xCC; 8])
        .expect("write v2");
    let _fresh = snapshot(&os, &rt, &mut counter).expect("snapshot v2");

    let mut host = failover(&mut os, eid);
    host.arm_flight_recorder(256);
    // The hostile host offers the stale blob; the harness stages the
    // injection so forensics has a root to attribute.
    host.record_snapshot_attack(eid, InjectedFault::StaleSnapshot { counter: 1 });
    let err = must_fail(restore(&mut host, &mut counter, &stale), "stale");
    assert!(
        matches!(
            err,
            SnapError::Stale {
                sealed: 1,
                current: 2
            }
        ),
        "got {err}"
    );

    let records = host.flight_snapshot();
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, FlightEvent::SnapshotRestore { counter: 1 })),
        "restore attempt not recorded"
    );
    let (attack, root) = causal_root_of_attack(&records).expect("causal root");
    assert!(
        matches!(attack.event, FlightEvent::AttackDetected { .. }),
        "verdict missing"
    );
    assert!(
        matches!(
            root.event,
            FlightEvent::Kernel(Observation::FaultInjected {
                fault: InjectedFault::StaleSnapshot { counter: 1 },
                ..
            })
        ),
        "forensics did not name the stale restore: {:?}",
        root.event
    );
}

#[test]
fn forked_snapshot_cannot_restore_twice() {
    let (mut os, eid, mut rt) = setup(RuntimeConfig::default());
    exercise(&mut os, &mut rt);
    let mut counter = counter_for(&os, eid);
    let blob = snapshot(&os, &rt, &mut counter).expect("snapshot");

    let mut host = failover(&mut os, eid);
    let _rt1 = restore(&mut host, &mut counter, &blob).expect("first restore");

    // A second host (the fork) presents the same authentic blob. The
    // counter moved when the first restore consumed it.
    let mut fork = failover(&mut host, eid);
    fork.arm_flight_recorder(256);
    fork.record_snapshot_attack(eid, InjectedFault::ForkedSnapshot { counter: 1 });
    let err = must_fail(restore(&mut fork, &mut counter, &blob), "fork");
    assert!(
        matches!(
            err,
            SnapError::Stale {
                sealed: 1,
                current: 2
            }
        ),
        "got {err}"
    );
    let records = fork.flight_snapshot();
    let (_, root) = causal_root_of_attack(&records).expect("causal root");
    assert!(matches!(
        root.event,
        FlightEvent::Kernel(Observation::FaultInjected {
            fault: InjectedFault::ForkedSnapshot { .. },
            ..
        })
    ));
}

#[test]
fn truncated_or_corrupt_blob_is_seal_broken_and_burns_nothing() {
    let (mut os, eid, mut rt) = setup(RuntimeConfig::default());
    exercise(&mut os, &mut rt);
    let mut counter = counter_for(&os, eid);
    let blob = snapshot(&os, &rt, &mut counter).expect("snapshot");
    let mut host = failover(&mut os, eid);
    host.record_snapshot_attack(
        eid,
        InjectedFault::TruncatedSnapshot {
            len: blob.len() - 5,
        },
    );

    // Truncated ciphertext.
    let err = must_fail(
        restore(&mut host, &mut counter, &blob[..blob.len() - 5]),
        "truncated",
    );
    assert!(matches!(err, SnapError::SealBroken), "got {err}");
    // Truncated below the header.
    let err = must_fail(restore(&mut host, &mut counter, &blob[..10]), "short");
    assert!(matches!(err, SnapError::SealBroken), "got {err}");
    // One flipped ciphertext bit.
    let mut corrupt = blob.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 1;
    let err = must_fail(restore(&mut host, &mut counter, &corrupt), "corrupt");
    assert!(matches!(err, SnapError::SealBroken), "got {err}");
    // Wrong magic.
    let mut wrong = blob.clone();
    wrong[0] ^= 0xFF;
    let err = must_fail(restore(&mut host, &mut counter, &wrong), "magic");
    assert!(matches!(err, SnapError::SealBroken), "got {err}");

    // None of those attempts consumed the counter: the genuine blob
    // still restores.
    let restored = restore(&mut host, &mut counter, &blob).expect("good blob still valid");
    assert_eq!(restored.eid, eid);
}

#[test]
fn malformed_runtime_half_leaves_the_host_untouched() {
    // An authentic seal around a runtime half that lost its last byte:
    // the refusal must come before the hardware restore, and be recorded
    // as an attack like every other refusal.
    let (mut os, eid, mut rt) = setup(RuntimeConfig::default());
    exercise(&mut os, &mut rt);
    let mut checkpoint = capture_checkpoint(&os, &rt).expect("capture");
    checkpoint.runtime.pop();
    let mut counter = counter_for(&os, eid);
    let blob = seal_checkpoint(&os, &mut counter, &checkpoint).expect("seal");
    let mut host = failover(&mut os, eid);
    host.arm_flight_recorder(256);
    let free_frames = host.machine.epc_free_frames();

    let err = must_fail(restore(&mut host, &mut counter, &blob), "malformed");
    assert!(matches!(err, SnapError::Malformed), "got {err}");
    assert_untouched_and_recorded(&mut host, eid, free_frames);
}

#[test]
fn restore_onto_a_full_epc_takes_no_frame_and_is_recorded() {
    // An authentic, fresh blob with more pages than the failover host
    // has free frames: the hardware must refuse it before allocating.
    let (mut os, eid, mut rt) = setup(RuntimeConfig::default());
    exercise(&mut os, &mut rt);
    let mut counter = counter_for(&os, eid);
    let blob = snapshot(&os, &rt, &mut counter).expect("snapshot");
    let mut host = Os::new(MachineConfig {
        epc_frames: 8,
        ..Default::default()
    });
    host.adopt_untrusted_state(&mut os, eid).expect("adopt");
    host.arm_flight_recorder(256);
    let free_frames = host.machine.epc_free_frames();

    let err = must_fail(restore(&mut host, &mut counter, &blob), "full EPC");
    assert!(
        matches!(err, SnapError::Sgx(SgxError::EpcFull)),
        "got {err}"
    );
    assert_untouched_and_recorded(&mut host, eid, free_frames);
}

/// A refused restore leaves no enclave and no frame taken on `host`,
/// and records the attempt and the verdict in its flight log.
fn assert_untouched_and_recorded(host: &mut Os, eid: EnclaveId, free_frames: usize) {
    assert!(
        host.machine.capture_enclave(eid).is_err(),
        "the enclave was restored onto the host"
    );
    assert_eq!(host.machine.epc_free_frames(), free_frames, "EPC frames");
    let records = host.flight_snapshot();
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, FlightEvent::SnapshotRestore { .. })),
        "restore attempt not recorded"
    );
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, FlightEvent::AttackDetected { .. })),
        "verdict not in flight log"
    );
}

#[test]
fn counter_rollback_is_detected_by_mac() {
    let (mut os, eid, mut rt) = setup(RuntimeConfig::default());
    exercise(&mut os, &mut rt);
    let mut counter = counter_for(&os, eid);
    let blob = snapshot(&os, &rt, &mut counter).expect("snapshot");
    // The OS rolls the counter back to make a stale blob look fresh —
    // but it cannot forge the counter MAC.
    counter.hostile_overwrite(0);
    let mut host = failover(&mut os, eid);
    let err = must_fail(restore(&mut host, &mut counter, &blob), "rollback");
    assert!(
        matches!(err, SnapError::Sgx(SgxError::CounterTampered)),
        "got {err}"
    );
}

#[test]
fn hw_version_downgrade_inside_seal_is_caught_on_restore() {
    // Satellite: even a blob that seals *internally inconsistent* state
    // (machine-side page versions behind the runtime's sealed mirror —
    // a forged seal or codec compromise) is caught by the runtime's
    // restore-time freshness self-check.
    let (mut os, eid, mut rt) = setup(RuntimeConfig::default()); // Sgx1
    let img = image("snap-test");
    let data = img.data_start();
    rt.write(&mut os, data.base(), &[7; 16]).expect("write");
    rt.evict_pages(&mut os, &[data]).expect("evict");
    let mut checkpoint = capture_checkpoint(&os, &rt).expect("capture");
    let entry = checkpoint
        .machine
        .outstanding
        .iter_mut()
        .find(|(vpn, _)| *vpn == data)
        .expect("evicted page has an outstanding version");
    assert!(entry.1 > 0);
    entry.1 -= 1;
    let mut counter = counter_for(&os, eid);
    let blob = seal_checkpoint(&os, &mut counter, &checkpoint).expect("seal");
    let mut host = failover(&mut os, eid);
    host.arm_flight_recorder(256);
    let err = must_fail(restore(&mut host, &mut counter, &blob), "downgrade");
    assert!(
        matches!(err, SnapError::Rt(RtError::AttackDetected { .. })),
        "got {err}"
    );
    let records = host.flight_snapshot();
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, FlightEvent::AttackDetected { .. })),
        "verdict not in flight log"
    );
}

#[test]
fn misbehavior_budget_persists_across_restore() {
    // Satellite: misbehavior debits are part of the sealed state. A
    // restore that reset them would let the OS launder attack evidence
    // by crashing the host every few anomalies.
    //
    // One read absorbs at most six dropped fetches (the runtime's retry
    // bound), each one debit; the drops after the restore take the
    // lifetime total just past the budget.
    const BEFORE: u64 = 6;
    const AFTER: u64 = MISBEHAVIOR_BUDGET as u64 + 1 - BEFORE;
    let (mut os, eid, mut rt) = setup(RuntimeConfig::default());
    let img = image("snap-test");
    let data = img.data_start();
    rt.write(&mut os, data.base(), &[1; 8]).expect("write");
    rt.evict_pages(&mut os, &[data]).expect("evict");
    os.arm_fault_plan(FaultPlan {
        drop_page: 1.0,
        max_injections: Some(BEFORE),
        ..FaultPlan::quiescent(7)
    });
    let mut buf = [0u8; 8];
    rt.read(&mut os, data.base(), &mut buf)
        .expect("read survives the drops");
    os.disarm_fault_plan();
    assert_eq!(rt.stats.misbehavior, BEFORE, "one debit per drop");

    let mut counter = counter_for(&os, eid);
    let blob = snapshot(&os, &rt, &mut counter).expect("snapshot");
    let mut host = failover(&mut os, eid);
    let mut restored = restore(&mut host, &mut counter, &blob).expect("restore");
    assert_eq!(
        restored.stats.misbehavior, BEFORE,
        "debits survived the seal"
    );

    // The remaining anomalies exceed the budget only because the restore
    // did not reset the count: alone they fit in it.
    assert!(AFTER <= u64::from(MISBEHAVIOR_BUDGET));
    restored
        .evict_pages(&mut host, &[data])
        .expect("evict again");
    host.arm_fault_plan(FaultPlan {
        drop_page: 1.0,
        max_injections: Some(AFTER),
        ..FaultPlan::quiescent(11)
    });
    let err = restored
        .read(&mut host, data.base(), &mut buf)
        .expect_err("budget exhausted across the restore boundary");
    assert!(matches!(err, RtError::AttackDetected { .. }), "got {err}");
}

#[test]
fn sealed_blob_length_is_quantized() {
    const TAG_LEN: usize = 16;
    let (mut os, eid, mut rt) = setup(RuntimeConfig::default());
    let mut counter = counter_for(&os, eid);
    let before = snapshot(&os, &rt, &mut counter).expect("snapshot before");
    exercise(&mut os, &mut rt);
    let after = snapshot(&os, &rt, &mut counter).expect("snapshot after");
    for blob in [&before, &after] {
        assert_eq!(
            (blob.len() - autarky_snapshot::HEADER_LEN - TAG_LEN) % autarky_snapshot::PAD_QUANTUM,
            0,
            "sealed payload is not padded to the quantum"
        );
    }
    // The exercise dirtied a handful of pages — well inside one quantum —
    // so the transported size must not move.
    assert_eq!(
        before.len(),
        after.len(),
        "blob length leaked the working-set delta"
    );
    // And the padded blob still restores byte-identically.
    let rt_bytes = rt.capture_bytes();
    let mut host = failover(&mut os, eid);
    let restored = restore(&mut host, &mut counter, &after).expect("restore padded blob");
    assert_eq!(restored.capture_bytes(), rt_bytes);
}
