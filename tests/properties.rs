//! Randomized property tests over the core invariants:
//!
//! * enclave memory behaves like memory under arbitrary operation
//!   sequences, for every protection profile;
//! * the cluster residency invariant survives arbitrary cluster graphs
//!   and fault/evict orders;
//! * sealing/ORAM round-trips hold for arbitrary contents;
//! * fault reports for self-paging enclaves are always fully masked.
//!
//! Cases are drawn from the deterministic [`SimRng`] with fixed per-test
//! seeds, so runs are bit-for-bit reproducible.

use autarky::oram::{buckets_for, MemStorage, PathOram};
use autarky::os::Observation;
use autarky::prelude::*;
use autarky::rt::paging::{sw_open, sw_seal};
use autarky::{Profile, SystemBuilder};
use autarky_prng::SimRng;

const CASES: usize = 24;

#[derive(Debug, Clone)]
enum MemOp {
    Write { page: u8, value: u64 },
    Read { page: u8 },
    Evict { page: u8 },
}

fn mem_op(rng: &mut SimRng) -> MemOp {
    let page = rng.gen_range(0..48) as u8;
    match rng.gen_range(0..3) {
        0 => MemOp::Write {
            page,
            value: rng.next_u64(),
        },
        1 => MemOp::Read { page },
        _ => MemOp::Evict { page },
    }
}

#[test]
fn enclave_memory_is_memory() {
    let mut rng = SimRng::seed_from_u64(0xAE01);
    for case in 0..CASES {
        let ops: Vec<MemOp> = {
            let n = rng.gen_range_usize(1..120);
            (0..n).map(|_| mem_op(&mut rng)).collect()
        };
        let cluster_pages = rng.gen_range_usize(1..6);
        let (mut world, mut heap) = SystemBuilder::new(
            "prop-mem",
            Profile::Clusters {
                pages_per_cluster: cluster_pages,
            },
        )
        .epc_pages(1024)
        .heap_pages(128)
        .budget_pages(60)
        .build()
        .expect("system");
        let ptr = heap.alloc(&mut world, 48 * PAGE_SIZE).expect("alloc");
        let mut model = [0u64; 48];
        for op in &ops {
            match *op {
                MemOp::Write { page, value } => {
                    heap.write_u64(
                        &mut world,
                        ptr.offset(page as u64 * PAGE_SIZE as u64),
                        value,
                    )
                    .expect("write");
                    model[page as usize] = value;
                }
                MemOp::Read { page } => {
                    let got = heap
                        .read_u64(&mut world, ptr.offset(page as u64 * PAGE_SIZE as u64))
                        .expect("read");
                    assert_eq!(got, model[page as usize], "case {case}");
                }
                MemOp::Evict { page } => {
                    let vpn = Vpn((ptr.0 >> 12) + page as u64);
                    if world.rt.residency(vpn) == Some(true) {
                        let set: Vec<Vpn> = world
                            .rt
                            .clusters
                            .evict_set(vpn)
                            .into_iter()
                            .filter(|&p| world.rt.residency(p) == Some(true))
                            .collect();
                        world.rt.evict_pages(&mut world.os, &set).expect("evict");
                    }
                }
            }
            assert!(
                world.rt.cluster_invariant_holds(),
                "invariant broken by {op:?} in case {case}"
            );
        }
        // Final sweep: everything still reads back per the model.
        for page in 0..48u64 {
            let got = heap
                .read_u64(&mut world, ptr.offset(page * PAGE_SIZE as u64))
                .expect("read");
            assert_eq!(got, model[page as usize], "case {case}");
        }
        assert!(
            !world.rt.is_terminated(),
            "benign ops must never look like attacks"
        );
    }
}

#[test]
fn fault_reports_always_masked() {
    let mut rng = SimRng::seed_from_u64(0xAE02);
    for _ in 0..CASES {
        let accesses: Vec<u8> = {
            let n = rng.gen_range_usize(1..60);
            (0..n).map(|_| rng.gen_range(0..64) as u8).collect()
        };
        let (mut world, mut heap) = SystemBuilder::new(
            "prop-mask",
            Profile::Clusters {
                pages_per_cluster: 2,
            },
        )
        .epc_pages(1024)
        .heap_pages(96)
        .budget_pages(50)
        .build()
        .expect("system");
        let ptr = heap.alloc(&mut world, 64 * PAGE_SIZE).expect("alloc");
        for i in 0..64u64 {
            heap.write_u64(&mut world, ptr.offset(i * PAGE_SIZE as u64), i)
                .expect("write");
        }
        let mark = world.os.observation_mark();
        for &page in &accesses {
            heap.read_u64(&mut world, ptr.offset(page as u64 * PAGE_SIZE as u64))
                .expect("read");
        }
        for obs in world.os.observations_since(mark) {
            if let Observation::Fault { va, kind, .. } = obs {
                assert_eq!(*va, world.image.base);
                assert_eq!(*kind, AccessKind::Read);
            }
        }
    }
}

#[test]
fn software_sealing_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0xAE03);
    for _ in 0..CASES {
        let mut page = [0u8; PAGE_SIZE];
        rng.fill_bytes(&mut page);
        let vpn = rng.gen_range(0..1_000_000);
        let version = rng.gen_range(1..u64::MAX);
        let key = [9u8; 32];
        let blob = sw_seal(&key, Vpn(vpn), version, &page);
        let opened = sw_open(&key, Vpn(vpn), version, &blob).expect("authentic");
        assert_eq!(&opened[..], &page[..]);
        // Any metadata perturbation must fail.
        assert!(sw_open(&key, Vpn(vpn + 1), version, &blob).is_none());
        assert!(sw_open(&key, Vpn(vpn), version ^ 1, &blob).is_none());
    }
}

#[test]
fn pathoram_matches_model() {
    let mut rng = SimRng::seed_from_u64(0xAE04);
    for _ in 0..CASES {
        let ops: Vec<(u64, u8)> = {
            let n = rng.gen_range_usize(1..80);
            (0..n)
                .map(|_| (rng.gen_range(0..32), rng.next_u64() as u8))
                .collect()
        };
        let storage = MemStorage::new(buckets_for(32));
        let mut oram = PathOram::new(32, 16, 5, [1; 32], storage);
        let mut model = autarky_prng::SimMap::default();
        for (id, byte) in ops {
            if byte % 2 == 0 {
                let data = vec![byte; 16];
                oram.write(id, &data).expect("write");
                model.insert(id, data);
            } else {
                let expected = model.get(&id).cloned().unwrap_or_else(|| vec![0u8; 16]);
                assert_eq!(oram.read(id).expect("read"), expected);
            }
            assert!(oram.stash_len() <= 40, "stash must stay bounded");
        }
    }
}

#[test]
fn measurement_binds_layout() {
    let mut rng = SimRng::seed_from_u64(0xAE05);
    for _ in 0..8 {
        let code_pages = rng.gen_range_usize(1..8);
        let data_pages = rng.gen_range_usize(1..8);
        let build = |code: usize, data: usize| {
            let (world, _) = SystemBuilder::new("prop-attest", Profile::PinAll)
                .epc_pages(512)
                .code_pages(code)
                .data_pages(data)
                .heap_pages(16)
                .build()
                .expect("system");
            world.os.machine.secs(world.eid).expect("secs").measurement
        };
        let a = build(code_pages, data_pages);
        let b = build(code_pages, data_pages);
        assert_eq!(a, b, "measurement is deterministic");
        let c = build(code_pages + 1, data_pages);
        assert_ne!(a, c, "layout changes the measurement");
    }
}
