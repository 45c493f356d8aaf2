//! Telemetry integration properties: export plaintexts are deterministic
//! functions of (seed, policy), the sealed export channel round-trips
//! while rejecting tampering, and ORAM spans reach the flight log.

use autarky::os::FlightEvent;
use autarky::prelude::*;
use autarky::rt::telemetry_export_key;
use autarky::telemetry::{SpanKind, Telemetry};
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

/// Lowercase hex SHA-256 of `bytes`.
fn sha256_hex(bytes: &[u8]) -> String {
    autarky::crypto::sha256(bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// What a finished run leaves behind: SHA-256 of the export plaintext
/// and of the checkpoint blob, the machine clock, and the seven ORAM
/// counts (accesses, bucket reads, bucket writes, crypto bytes,
/// oblivious-scan bytes, cache hits, cache misses).
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    export_sha256: String,
    capture_sha256: String,
    clock: u64,
    oram: [u64; 7],
}

impl Fingerprint {
    fn of(world: &World, heap: &EncHeap) -> Self {
        let o = heap.oram_stats();
        Self {
            export_sha256: sha256_hex(&world.rt.export_plaintext()),
            capture_sha256: sha256_hex(&world.rt.capture_bytes()),
            clock: world.now(),
            oram: [
                o.accesses(),
                o.bucket_reads(),
                o.bucket_writes(),
                o.crypto_bytes(),
                o.oblivious_scan_bytes(),
                o.cache_hits(),
                o.cache_misses(),
            ],
        }
    }
}

/// Write one `u64` into each of `pages` pages three times over, then
/// read them back in reverse order, so every page is both written and
/// read on every access path.
fn page_sweep(world: &mut World, heap: &mut EncHeap, pages: u64) {
    let ptr = heap
        .alloc(world, pages as usize * PAGE_SIZE)
        .expect("alloc");
    let page = |i: u64| Ptr(ptr.0 + i * PAGE_SIZE as u64);
    for round in 0..3u64 {
        for i in 0..pages {
            heap.write_u64(world, page(i), round * 100 + i)
                .expect("write");
        }
    }
    // One write and one read that straddle a page boundary.
    let straddle = Ptr(page(1).0 - 8);
    heap.write(world, straddle, &[0xA5; 16])
        .expect("straddling write");
    let mut buf = [0u8; 16];
    heap.read(world, straddle, &mut buf)
        .expect("straddling read");
    assert_eq!(buf, [0xA5; 16]);
    for i in (2..pages).rev() {
        assert_eq!(heap.read_u64(world, page(i)).expect("read"), 200 + i);
    }
}

/// Run `profile` through [`page_sweep`] and fingerprint the result.
fn fingerprint(name: &str, profile: Profile, budget: usize, pages: u64) -> Fingerprint {
    let (mut world, mut heap) = SystemBuilder::new(name, profile)
        .epc_pages(2048)
        .heap_pages(256)
        .budget_pages(budget)
        .seed(11)
        .build()
        .expect("system");
    page_sweep(&mut world, &mut heap, pages);
    assert_eq!(
        world.rt.export_plaintext().len(),
        Telemetry::SNAPSHOT_LEN + 72,
        "telemetry snapshot plus nine RtStats counters"
    );
    if budget > 0 {
        assert!(world.rt.stats.pages_evicted > 0 && world.rt.stats.pages_fetched > 0);
    }
    Fingerprint::of(&world, &heap)
}

/// Known answers for the exported and checkpointed bytes. The tests above
/// compare two runs of one build, so they cannot see a change to the
/// encoding, the recorded values or the ORAM cycle charges that moves
/// both runs alike; these constants can.
#[test]
fn exported_bytes_match_known_answers() {
    assert_eq!(Telemetry::SNAPSHOT_LEN, 24_796);
    let direct = fingerprint(
        "kat-direct",
        Profile::Clusters {
            pages_per_cluster: 4,
        },
        24,
        40,
    );
    let cached = fingerprint(
        "kat-cached",
        Profile::CachedOram {
            capacity_pages: 64,
            cache_pages: 8,
        },
        0,
        24,
    );
    let uncached = fingerprint(
        "kat-uncached",
        Profile::UncachedOram { capacity_pages: 32 },
        0,
        8,
    );
    assert_eq!(
        [direct, cached, uncached],
        [
            Fingerprint {
                export_sha256: "5254cbc5a2c90295622d466536448394cdccd418cef0a0c5449f52e15918b696"
                    .into(),
                capture_sha256: "e201659eac7c78f4765bcb8df5c1d102a755659f80f36e6eb566053e79894380"
                    .into(),
                clock: 4_282_607,
                oram: [0; 7],
            },
            Fingerprint {
                export_sha256: "71f874b7067c957ec52686f81f00cf573c7dba935a17f2bc3a880da731187dec"
                    .into(),
                capture_sha256: "bbb268ab42cfb0f5e0bd3e093223c05e44563d72c050c5e481b33dd94f87b5b8"
                    .into(),
                clock: 28_220_124,
                oram: [164, 820, 820, 26_413_344, 368_640, 8, 90],
            },
            Fingerprint {
                export_sha256: "a22e6caf03912539d7b8c5beaaf5c2334702e3ea7142768f89f11a3ed78d11d8"
                    .into(),
                capture_sha256: "9e99ce58c56bd9b7dda6d7e716c208081cf8da2bc32c44d815cf5e5e945382ef"
                    .into(),
                clock: 259_914_020,
                oram: [60, 240, 240, 7_633_440, 63_045_120, 0, 0],
            },
        ]
    );
}
