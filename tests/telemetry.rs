//! Telemetry integration properties: export plaintexts are deterministic
//! functions of (seed, policy), the sealed export channel round-trips
//! while rejecting tampering, and ORAM spans reach the flight log.

use autarky::os::FlightEvent;
use autarky::prelude::*;
use autarky::rt::telemetry_export_key;
use autarky::telemetry::SpanKind;
use autarky::workloads::kvstore::{ItemClustering, KvStore};
use autarky::{Profile, SystemBuilder};

/// Drive a paging-heavy workload and return the final export plaintext
/// (telemetry snapshot plus runtime counters).
fn drive(name: &str, profile: Profile, budget: usize, seed: u64) -> Vec<u8> {
    let (mut world, mut heap) = SystemBuilder::new(name, profile)
        .epc_pages(2048)
        .heap_pages(256)
        .budget_pages(budget)
        .seed(seed)
        .build()
        .expect("system");
    let ptr = heap.alloc(&mut world, 40 * PAGE_SIZE).expect("alloc");
    for round in 0..3u64 {
        for i in 0..40u64 {
            let p = Ptr(ptr.0 + i * PAGE_SIZE as u64);
            heap.write_u64(&mut world, p, round * 100 + i)
                .expect("write");
        }
    }
    world.rt.export_plaintext()
}

#[test]
fn snapshots_are_deterministic_across_paging_policies() {
    let policies: [(&str, Profile, usize); 3] = [
        ("tl-pin", Profile::PinAll, 0),
        (
            "tl-clusters",
            Profile::Clusters {
                pages_per_cluster: 10,
            },
            24,
        ),
        (
            "tl-rate",
            Profile::RateLimited {
                max_faults_per_progress: 64.0,
                burst: 4096,
            },
            24,
        ),
    ];
    let mut snapshots = Vec::new();
    for (name, profile, budget) in policies {
        let a = drive(name, profile, budget, 0xFEED);
        let b = drive(name, profile, budget, 0xFEED);
        assert_eq!(
            a, b,
            "{name}: same seed + policy => byte-identical export plaintext"
        );
        assert_eq!(&a[..4], b"AYTL", "{name}: snapshot magic");
        snapshots.push(a);
    }
    // The snapshot is not vacuous: paging policies record activity that
    // the pinned profile cannot, so the encodings differ.
    assert_ne!(
        snapshots[0], snapshots[1],
        "pinned and self-paging runs produce different metrics"
    );
}

#[test]
fn exported_epochs_round_trip_and_reject_tampering() {
    let (mut world, mut heap) = SystemBuilder::new(
        "tl-export",
        Profile::Clusters {
            pages_per_cluster: 10,
        },
    )
    .epc_pages(2048)
    .heap_pages(256)
    .budget_pages(24)
    .build()
    .expect("system");
    let ptr = heap.alloc(&mut world, 40 * PAGE_SIZE).expect("alloc");
    for i in 0..40u64 {
        let p = Ptr(ptr.0 + i * PAGE_SIZE as u64);
        heap.write_u64(&mut world, p, i).expect("write");
    }
    world
        .rt
        .export_epoch(&mut world.os)
        .expect("export epoch 0");
    heap.read_u64(&mut world, ptr).expect("more work");
    world
        .rt
        .export_epoch(&mut world.os)
        .expect("export epoch 1");

    // A trusted consumer holding the export key recovers both snapshots.
    for epoch in 0..2u64 {
        let snapshot = world
            .rt
            .open_exported_epoch(&mut world.os, epoch)
            .expect("epoch opens");
        assert_eq!(&snapshot[..4], b"AYTL", "snapshot magic");
        let embedded = u64::from_le_bytes(snapshot[8..16].try_into().expect("epoch field"));
        assert_eq!(embedded, epoch, "snapshot embeds its epoch");
    }
    assert!(
        world.rt.open_exported_epoch(&mut world.os, 7).is_none(),
        "an epoch that was never exported does not open"
    );

    // The OS flips one ciphertext byte: the AEAD must refuse.
    let key = telemetry_export_key(world.eid.0, 1);
    let mut blob = world.os.sys_untrusted_read(key).expect("blob exists");
    let last = blob.len() - 1;
    blob[last] ^= 0xFF;
    world.os.sys_untrusted_write(key, blob);
    assert!(
        world.rt.open_exported_epoch(&mut world.os, 1).is_none(),
        "tampered export is rejected"
    );
    assert!(
        world.rt.open_exported_epoch(&mut world.os, 0).is_some(),
        "other epochs are unaffected"
    );
}

#[test]
fn oram_spans_reach_the_flight_log() {
    let (mut world, mut heap) = SystemBuilder::new(
        "tl-oram",
        Profile::CachedOram {
            capacity_pages: 512,
            cache_pages: 24,
        },
    )
    .epc_pages(4096)
    .heap_pages(1024)
    .build()
    .expect("system");
    let mut store =
        KvStore::new(&mut world, &mut heap, 64, 512, ItemClustering::None).expect("store");
    store.load(&mut world, &mut heap, 64).expect("load");

    let counted_before = world.rt.telemetry.span_agg(SpanKind::OramAccess).count;
    world.os.arm_flight_recorder(1 << 16);
    for key in 0..32 {
        store
            .get(&mut world, &mut heap, key)
            .expect("get")
            .expect("present");
    }
    let counted = world.rt.telemetry.span_agg(SpanKind::OramAccess).count - counted_before;
    let recorded = world
        .os
        .flight_snapshot()
        .iter()
        .filter(|r| matches!(r.event, FlightEvent::SpanClose(s) if s.kind == SpanKind::OramAccess))
        .count() as u64;
    assert!(counted > 0, "GETs on a cached-ORAM store access the ORAM");
    assert_eq!(world.os.flight_dropped(), 0);
    assert_eq!(
        recorded, counted,
        "one oram_access flight record per aggregated span"
    );
}
