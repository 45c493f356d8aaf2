//! The host layer ladder: each rung times one public call, in the shape
//! the workloads use it, on a fresh world. A layer's self time is its
//! rung minus the rung it calls into (`os.self_fetch_ns =
//! os.host_fetch_page_ns - sgx.host_eldu_ns`), so the ladder splits the
//! fault path's host time by layer without instrumenting any crate.
//!
//! Rungs run interleaved, one batch of each per round, and a self time
//! is the median over rounds of the difference between two rungs timed
//! in the same round: the host's speed drifts between rounds (other
//! tenants, frequency), and a difference of medians taken at different
//! times would carry that drift.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use autarky::{Profile, SystemBuilder};
use autarky_crypto::aead;
use autarky_oram::{buckets_for, MemStorage, PathOram};
use autarky_os_sim::flight::RECORD_COST_CYCLES;
use autarky_prng::SimRng;
use autarky_sgx_sim::{CostTag, Va, Vpn, PAGE_SIZE};
use autarky_workloads::{EncHeap, Ptr, World};

use crate::metrics::Metrics;
use crate::stats::median;

/// Rounds; every value reported is a median over them.
const ROUNDS: usize = 15;
/// Pages per paging call (the paper's Fig. 5 batch size).
const PAGES: u64 = 16;
/// Paging calls per round.
const PAGING_CALLS: u64 = 4;

type Samples = BTreeMap<&'static str, Vec<f64>>;
type Rung<'a> = Box<dyn FnMut(&mut Samples) -> Result<(), String> + 'a>;

fn secs(f: impl FnOnce() -> Result<(), String>) -> Result<f64, String> {
    let started = Instant::now();
    f()?;
    Ok(started.elapsed().as_secs_f64())
}

fn record(samples: &mut Samples, name: &'static str, secs: f64, ops: u64) {
    samples
        .entry(name)
        .or_default()
        .push(secs * 1e9 / ops as f64);
}

/// A self-paging world with 16 resident, written heap pages in
/// single-page clusters, and the pages' numbers.
fn paging_world() -> Result<(World, EncHeap, Vec<Vpn>), String> {
    let (mut world, mut heap) = SystemBuilder::new(
        "ladder-paging",
        Profile::Clusters {
            pages_per_cluster: 1,
        },
    )
    .epc_pages(4096)
    .heap_pages(256)
    .build()
    .map_err(|e| e.to_string())?;
    let ptr = heap
        .alloc(&mut world, (PAGES as usize + 1) * PAGE_SIZE)
        .map_err(|e| e.to_string())?;
    let first = ptr.0.div_ceil(PAGE_SIZE as u64);
    let pages: Vec<Vpn> = (first..first + PAGES).map(Vpn).collect();
    for &vpn in &pages {
        heap.write(&mut world, Ptr(vpn.0 << 12), &[0xA5; PAGE_SIZE])
            .map_err(|e| e.to_string())?;
    }
    Ok((world, heap, pages))
}

fn crypto_rung() -> Rung<'static> {
    const N: u64 = 50;
    let key = [7u8; aead::KEY_LEN];
    let nonce = [1u8; aead::NONCE_LEN];
    let aad = [2u8; 24];
    let mut page = vec![0xA5u8; PAGE_SIZE];
    let mut sealed = vec![0x5Au8; PAGE_SIZE];
    let tag = aead::seal(&key, &nonce, &aad, &mut sealed);
    let mut buf = sealed.clone();
    Box::new(move |s| {
        let t = secs(|| {
            for _ in 0..N {
                black_box(aead::seal(&key, &nonce, &aad, black_box(&mut page)));
            }
            Ok(())
        })?;
        record(s, "crypto.host_seal_4k_ns", t, N);
        let t = secs(|| {
            for _ in 0..N {
                buf.copy_from_slice(&sealed);
                aead::open(&key, &nonce, &aad, black_box(&mut buf), &tag)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        record(s, "crypto.host_open_4k_ns", t, N);
        Ok(())
    })
}

/// `EBLOCK` + `ETRACK` + `EWB` per page, then `ELDU` of every blob.
fn sgx_rung() -> Result<Rung<'static>, String> {
    let (mut world, _heap, pages) = paging_world()?;
    Ok(Box::new(move |s| {
        let (eid, m) = (world.eid, &mut world.os.machine);
        let (mut ewb, mut eldu) = (0.0, 0.0);
        for _ in 0..PAGING_CALLS {
            let mut blobs = Vec::with_capacity(pages.len());
            ewb += secs(|| {
                for &vpn in &pages {
                    m.eblock(eid, vpn).map_err(|e| e.to_string())?;
                    m.etrack(eid).map_err(|e| e.to_string())?;
                    blobs.push(m.ewb(eid, vpn).map_err(|e| e.to_string())?);
                }
                Ok(())
            })?;
            eldu += secs(|| {
                for blob in &blobs {
                    m.eldu(eid, blob).map_err(|e| e.to_string())?;
                }
                Ok(())
            })?;
        }
        record(s, "sgx.host_ewb_ns", ewb, PAGES * PAGING_CALLS);
        record(s, "sgx.host_eldu_ns", eldu, PAGES * PAGING_CALLS);
        Ok(())
    }))
}

/// The driver's batched `ay_evict_pages` / `ay_fetch_pages`.
fn os_rung() -> Result<Rung<'static>, String> {
    let (mut world, _heap, pages) = paging_world()?;
    Ok(Box::new(move |s| {
        let (eid, os) = (world.eid, &mut world.os);
        let (mut evict, mut fetch) = (0.0, 0.0);
        for _ in 0..PAGING_CALLS {
            evict += secs(|| os.ay_evict_pages(eid, &pages).map_err(|e| e.to_string()))?;
            fetch += secs(|| os.ay_fetch_pages(eid, &pages).map_err(|e| e.to_string()))?;
        }
        record(s, "os.host_evict_page_ns", evict, PAGES * PAGING_CALLS);
        record(s, "os.host_fetch_page_ns", fetch, PAGES * PAGING_CALLS);
        Ok(())
    }))
}

/// The runtime's `evict_pages` / `fetch_pages`.
fn rt_rung() -> Result<Rung<'static>, String> {
    let (mut world, _heap, pages) = paging_world()?;
    Ok(Box::new(move |s| {
        let World { os, rt, .. } = &mut world;
        let (mut evict, mut fetch) = (0.0, 0.0);
        for _ in 0..PAGING_CALLS {
            evict += secs(|| rt.evict_pages(os, &pages).map_err(|e| e.to_string()))?;
            fetch += secs(|| rt.fetch_pages(os, &pages).map_err(|e| e.to_string()))?;
        }
        record(s, "rt.host_evict_page_ns", evict, PAGES * PAGING_CALLS);
        record(s, "rt.host_fetch_page_ns", fetch, PAGES * PAGING_CALLS);
        Ok(())
    }))
}

/// A read of each evicted page: fault, handler, single-page fetch,
/// resume. With `armed`, the flight recorder logs it all; the rung
/// then also reports recorder events and simulated cycles per fault.
fn fault_rung(armed: bool) -> Result<Rung<'static>, String> {
    let (mut world, mut heap, pages) = paging_world()?;
    if armed {
        world.os.arm_flight_recorder(1 << 16);
    }
    let (host, sim, events) = if armed {
        ("fault_armed.host", "fault_armed.sim", "fault_armed.events")
    } else {
        ("rt.host_fault_roundtrip_ns", "fault.sim", "fault.events")
    };
    Ok(Box::new(move |s| {
        let (mut t, mut cycles, mut recorded) = (0.0, 0, 0);
        for _ in 0..PAGING_CALLS {
            world
                .rt
                .evict_pages(&mut world.os, &pages)
                .map_err(|e| e.to_string())?;
            let c0 = world.now();
            let r0 = world.os.machine.clock.tag_total(CostTag::Recorder);
            t += secs(|| {
                for &vpn in &pages {
                    heap.read(&mut world, Ptr(vpn.0 << 12), &mut [0u8; 1])
                        .map_err(|e| e.to_string())?;
                }
                Ok(())
            })?;
            cycles += world.now() - c0;
            recorded += world.os.machine.clock.tag_total(CostTag::Recorder) - r0;
        }
        let faults = (PAGES * PAGING_CALLS) as f64;
        record(s, host, t, PAGES * PAGING_CALLS);
        s.entry(sim).or_default().push(cycles as f64 / faults);
        s.entry(events)
            .or_default()
            .push((recorded / RECORD_COST_CYCLES) as f64 / faults);
        Ok(())
    }))
}

/// Machine-level reads and instruction fetches that hit the TLB.
fn access_rung() -> Result<Rung<'static>, String> {
    const N: u64 = 10_000;
    let (mut world, mut heap) = SystemBuilder::new("ladder-access", Profile::PinAll)
        .epc_pages(4096)
        .heap_pages(64)
        .build()
        .map_err(|e| e.to_string())?;
    let ptr = heap
        .alloc(&mut world, 2 * PAGE_SIZE)
        .map_err(|e| e.to_string())?;
    heap.write(&mut world, ptr, &[1u8; 2 * PAGE_SIZE])
        .map_err(|e| e.to_string())?;
    // A page-aligned address, so the 4 KiB read touches one page.
    let page = Va(ptr.0.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64);
    let code = world.image.code_start().base();
    let mut buf = vec![0u8; PAGE_SIZE];
    Ok(Box::new(move |s| {
        let (eid, tcs, m) = (world.eid, world.rt.tcs, &mut world.os.machine);
        for (name, len) in [("sgx.host_read8_ns", 8), ("sgx.host_read4k_ns", PAGE_SIZE)] {
            let t = secs(|| {
                for _ in 0..N {
                    m.read_bytes(eid, tcs, page, black_box(&mut buf[..len]))
                        .map_err(|e| format!("{e:?}"))?;
                }
                Ok(())
            })?;
            record(s, name, t, N);
        }
        let t = secs(|| {
            for _ in 0..N {
                m.fetch_code(eid, tcs, code).map_err(|e| format!("{e:?}"))?;
            }
            Ok(())
        })?;
        record(s, "sgx.host_exec_ns", t, N);
        Ok(())
    }))
}

/// Uncached PathORAM reads and writes of random page-sized blocks: the
/// cost of one cache miss on the kv workloads' data path.
fn oram_rung() -> Result<Rung<'static>, String> {
    const N: u64 = 4;
    const BLOCKS: u64 = 512;
    let storage = MemStorage::new(buckets_for(BLOCKS));
    let mut oram = PathOram::new(BLOCKS, PAGE_SIZE, 1, [0x5C; 32], storage);
    let block = vec![0x3Cu8; PAGE_SIZE];
    for id in 0..BLOCKS {
        oram.write(id, &block).map_err(|e| format!("{e:?}"))?;
    }
    let mut rng = SimRng::seed_from_u64(1);
    Ok(Box::new(move |s| {
        for (name, write) in [("oram.host_read_ns", false), ("oram.host_write_ns", true)] {
            let t = secs(|| {
                for _ in 0..N {
                    let id = rng.gen_below(BLOCKS);
                    let r = if write {
                        oram.write(id, &block)
                    } else {
                        oram.read(id)
                    };
                    black_box(r.map_err(|e| format!("{e:?}"))?);
                }
                Ok(())
            })?;
            record(s, name, t, N);
        }
        Ok(())
    }))
}

/// Run every rung and derive the self times.
pub fn run() -> Result<Metrics, String> {
    let mut rungs = vec![
        crypto_rung(),
        sgx_rung()?,
        os_rung()?,
        rt_rung()?,
        fault_rung(false)?,
        fault_rung(true)?,
        access_rung()?,
        oram_rung()?,
    ];
    let mut samples = Samples::new();
    for _ in 0..ROUNDS {
        for rung in &mut rungs {
            rung(&mut samples)?;
        }
    }
    let series = |name: &str| samples.get(name).cloned().unwrap_or_default();
    let paired = |f: &dyn Fn(usize) -> f64| {
        let mut v: Vec<f64> = (0..ROUNDS).map(f).collect();
        median(&mut v)
    };
    let mut m = Metrics::new();
    for name in [
        "crypto.host_seal_4k_ns",
        "crypto.host_open_4k_ns",
        "sgx.host_ewb_ns",
        "sgx.host_eldu_ns",
        "sgx.host_read8_ns",
        "sgx.host_read4k_ns",
        "sgx.host_exec_ns",
        "os.host_evict_page_ns",
        "os.host_fetch_page_ns",
        "rt.host_evict_page_ns",
        "rt.host_fetch_page_ns",
        "rt.host_fault_roundtrip_ns",
        "oram.host_read_ns",
        "oram.host_write_ns",
    ] {
        m.insert(name, median(&mut series(name)));
    }
    for (name, upper, lower) in [
        (
            "sgx.self_ewb_ns",
            "sgx.host_ewb_ns",
            "crypto.host_seal_4k_ns",
        ),
        (
            "sgx.self_eldu_ns",
            "sgx.host_eldu_ns",
            "crypto.host_open_4k_ns",
        ),
        (
            "os.self_evict_ns",
            "os.host_evict_page_ns",
            "sgx.host_ewb_ns",
        ),
        (
            "os.self_fetch_ns",
            "os.host_fetch_page_ns",
            "sgx.host_eldu_ns",
        ),
        (
            "rt.self_evict_ns",
            "rt.host_evict_page_ns",
            "os.host_evict_page_ns",
        ),
        (
            "rt.self_fetch_ns",
            "rt.host_fetch_page_ns",
            "os.host_fetch_page_ns",
        ),
        (
            "rt.self_fault_ns",
            "rt.host_fault_roundtrip_ns",
            "rt.host_fetch_page_ns",
        ),
    ] {
        let (hi, lo) = (series(upper), series(lower));
        m.insert(name, paired(&|r| hi[r] - lo[r]));
    }
    let (on, off) = (
        series("fault_armed.host"),
        series("rt.host_fault_roundtrip_ns"),
    );
    let (sim_on, sim_off) = (series("fault_armed.sim"), series("fault.sim"));
    let events = series("fault_armed.events");
    let per_event = |d: f64, r: usize| if events[r] > 0.0 { d / events[r] } else { 0.0 };
    m.insert(
        "os.flight_host_ns_per_event",
        paired(&|r| per_event(on[r] - off[r], r)),
    );
    m.insert(
        "os.flight_sim_cycles_per_event",
        paired(&|r| per_event(sim_on[r] - sim_off[r], r)),
    );
    Ok(m)
}
