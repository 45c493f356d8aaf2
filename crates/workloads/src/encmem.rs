//! The enclave execution environment and instrumented memory layer.
//!
//! [`World`] assembles a full system — machine, untrusted OS, and trusted
//! runtime — around one enclave. Workloads never touch host memory for
//! their data; they allocate from an [`EncHeap`] and move bytes through
//! one of three access paths, mirroring how CoSMIX instruments binaries:
//!
//! * [`HeapMode::Direct`] — loads/stores go through the simulated MMU
//!   (TLB, page faults, demand paging). This is the un-instrumented build.
//! * [`HeapMode::CachedOram`] — the paper's §5.2.2 scheme: a large
//!   enclave-managed page cache in front of PathORAM. Cache hits cost a
//!   lookup; misses run the ORAM protocol against untrusted memory.
//! * [`HeapMode::UncachedOram`] — the pre-Autarky baseline (CoSMIX-like):
//!   no EPC cache is safe, so every access runs the protocol *and* scans
//!   the position map obliviously. This is the 232×-slower configuration
//!   of §7.2.
//!
//! ORAM cycle accounting: the ORAM crate counts events; [`EncHeap`]
//! converts the per-operation deltas into cycles on the machine clock.

use std::ops::Range;

use autarky_oram::{buckets_for, CachedOram, MemStorage, OramCounts, OramStats, PathOram};
use autarky_os_sim::{EnclaveImage, Os};
use autarky_runtime::{RtError, Runtime, RuntimeConfig};
use autarky_sgx_sim::machine::MachineConfig;
use autarky_sgx_sim::{CostTag, EnclaveId, Va, PAGE_SIZE};
use autarky_telemetry::SpanKind;

/// A fully assembled system around one enclave.
pub struct World {
    /// The untrusted host (owns the machine).
    pub os: Os,
    /// The trusted runtime.
    pub rt: Runtime,
    /// The enclave id.
    pub eid: EnclaveId,
    /// The image the enclave was loaded from.
    pub image: EnclaveImage,
}

/// One fleet member detached from the shared host: the trusted runtime
/// and identity of a single enclave, without the OS that (together with
/// its neighbors) it runs on.
///
/// A multi-enclave host holds one [`Os`] and N handles; to run workload
/// code for member *i* it temporarily assembles a [`World`] view with
/// [`World::join`] and takes it apart again with [`World::split`], or
/// swaps the handle into a view it already holds with
/// [`World::swap_enclave`]. The moves are free (no copying of enclave
/// state) and keep the single-enclave workload API unchanged.
pub struct EnclaveHandle {
    /// The trusted runtime.
    pub rt: Runtime,
    /// The enclave id.
    pub eid: EnclaveId,
    /// The image the enclave was loaded from.
    pub image: EnclaveImage,
}

impl World {
    /// Build a world: boot the OS, load `image`, attach the runtime.
    pub fn new(
        machine: MachineConfig,
        image: EnclaveImage,
        runtime: RuntimeConfig,
    ) -> Result<Self, RtError> {
        let mut os = Os::new(machine);
        let eid = os.load_enclave(&image)?;
        let rt = Runtime::attach(&mut os, eid, runtime)?;
        Ok(Self { os, rt, eid, image })
    }

    /// Load an additional enclave into an *existing* host and attach a
    /// runtime to it, returning the detached per-enclave handle. This is
    /// how fleet members after the first come up: they share the host's
    /// machine (and thus its EPC) with every enclave already loaded.
    pub fn attach_to(
        os: &mut Os,
        image: EnclaveImage,
        runtime: RuntimeConfig,
    ) -> Result<EnclaveHandle, RtError> {
        let eid = os.load_enclave(&image)?;
        let rt = Runtime::attach(os, eid, runtime)?;
        Ok(EnclaveHandle { rt, eid, image })
    }

    /// Assemble a world view over the shared host for one fleet member.
    pub fn join(os: Os, handle: EnclaveHandle) -> Self {
        Self {
            os,
            rt: handle.rt,
            eid: handle.eid,
            image: handle.image,
        }
    }

    /// Take the world apart again: the shared host goes back to the
    /// supervisor, the per-enclave pieces back into the handle.
    pub fn split(self) -> (Os, EnclaveHandle) {
        (
            self.os,
            EnclaveHandle {
                rt: self.rt,
                eid: self.eid,
                image: self.image,
            },
        )
    }

    /// Swap the enclave this view drives with `handle`'s, keeping the
    /// shared host in place: a second member runs its workload code on
    /// the same host without taking the view apart.
    pub fn swap_enclave(&mut self, handle: &mut EnclaveHandle) {
        std::mem::swap(&mut self.rt, &mut handle.rt);
        std::mem::swap(&mut self.eid, &mut handle.eid);
        std::mem::swap(&mut self.image, &mut handle.image);
    }

    /// Cycles elapsed on the machine clock.
    pub fn now(&self) -> u64 {
        self.os.machine.clock.now()
    }

    /// Record forward progress (rate-limit policy input).
    pub fn progress(&mut self, amount: u64) {
        self.rt.progress(amount);
    }

    /// Charge explicit compute cycles (models ALU work between memory
    /// accesses so throughput numbers are not paging-only).
    pub fn compute(&mut self, cycles: u64) {
        self.os.machine.clock.charge(cycles);
    }
}

/// An address in the workload's data space.
///
/// For [`HeapMode::Direct`] this is an enclave virtual address; for the
/// ORAM modes it is a flat byte offset into the ORAM block space. The
/// newtype keeps the two from mixing with host pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ptr(pub u64);

impl Ptr {
    /// Null-ish sentinel (offset 0 is never handed out).
    pub const NULL: Ptr = Ptr(0);

    /// Whether this is the null sentinel.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Byte offset addition.
    pub fn offset(self, bytes: u64) -> Ptr {
        Ptr(self.0 + bytes)
    }
}

/// Which instrumented path data accesses take.
pub enum HeapMode {
    /// Straight through the MMU (demand paging, clusters, rate limiting).
    Direct,
    /// Cached ORAM (§5.2.2): `capacity_pages` of ORAM space fronted by an
    /// enclave-managed cache of `cache_pages`.
    CachedOram(Box<CachedOram>),
    /// Uncached ORAM: the pre-Autarky configuration.
    UncachedOram(Box<PathOram>),
}

/// The workload heap: allocation plus instrumented loads/stores.
pub struct EncHeap {
    mode: HeapMode,
    /// Bump pointer for ORAM modes (block space is not managed by the
    /// runtime allocator).
    oram_bump: u64,
    oram_capacity_bytes: u64,
    /// ORAM event counts at the end of the previous access.
    last_counts: OramCounts,
}

impl EncHeap {
    /// A direct (MMU) heap.
    pub fn direct() -> Self {
        Self {
            mode: HeapMode::Direct,
            oram_bump: 0,
            oram_capacity_bytes: 0,
            last_counts: OramCounts::default(),
        }
    }

    /// A cached-ORAM heap with `capacity_pages` of page-sized blocks and a
    /// `cache_pages`-page enclave-managed cache.
    pub fn cached_oram(capacity_pages: u64, cache_pages: usize, seed: u64) -> Self {
        let storage = MemStorage::new(buckets_for(capacity_pages));
        let oram = PathOram::new(capacity_pages, PAGE_SIZE, seed, [0x5C; 32], storage);
        Self {
            mode: HeapMode::CachedOram(Box::new(CachedOram::new(oram, cache_pages))),
            oram_bump: PAGE_SIZE as u64, // skip block 0 so Ptr(0) stays null
            oram_capacity_bytes: capacity_pages * PAGE_SIZE as u64,
            last_counts: OramCounts::default(),
        }
    }

    /// An uncached-ORAM heap (linear metadata scans on every access).
    pub fn uncached_oram(capacity_pages: u64, seed: u64) -> Self {
        let storage = MemStorage::new(buckets_for(capacity_pages));
        let mut oram = PathOram::new(capacity_pages, PAGE_SIZE, seed, [0x5C; 32], storage);
        oram.set_uncached_metadata(true);
        Self {
            mode: HeapMode::UncachedOram(Box::new(oram)),
            oram_bump: PAGE_SIZE as u64,
            oram_capacity_bytes: capacity_pages * PAGE_SIZE as u64,
            last_counts: OramCounts::default(),
        }
    }

    /// Whether this heap runs over ORAM.
    pub fn is_oram(&self) -> bool {
        !matches!(self.mode, HeapMode::Direct)
    }

    /// Allocate `bytes` (16-byte aligned).
    pub fn alloc(&mut self, world: &mut World, bytes: usize) -> Result<Ptr, RtError> {
        match &mut self.mode {
            HeapMode::Direct => world.rt.malloc(&mut world.os, bytes).map(|va| Ptr(va.0)),
            HeapMode::CachedOram(_) | HeapMode::UncachedOram(_) => {
                let size = (bytes.max(1) as u64).next_multiple_of(16);
                if self.oram_bump + size > self.oram_capacity_bytes {
                    return Err(RtError::OutOfMemory);
                }
                let ptr = Ptr(self.oram_bump);
                self.oram_bump += size;
                Ok(ptr)
            }
        }
    }

    /// Free an allocation (direct mode recycles; ORAM mode is bump-only).
    pub fn free(&mut self, world: &mut World, ptr: Ptr, bytes: usize) {
        if let HeapMode::Direct = self.mode {
            world.rt.free(Va(ptr.0), bytes);
        }
    }

    /// Read `buf.len()` bytes at `ptr`.
    pub fn read(&mut self, world: &mut World, ptr: Ptr, buf: &mut [u8]) -> Result<(), RtError> {
        match &mut self.mode {
            HeapMode::Direct => return world.rt.read(&mut world.os, Va(ptr.0), buf),
            HeapMode::CachedOram(cache) => {
                for (block, off, range) in block_pieces(ptr, buf.len()) {
                    cache
                        .read_at(block, off, &mut buf[range])
                        .map_err(oram_err)?;
                }
            }
            HeapMode::UncachedOram(oram) => {
                for (block, off, range) in block_pieces(ptr, buf.len()) {
                    let data = oram.read(block).map_err(oram_err)?;
                    buf[range.clone()].copy_from_slice(&data[off..off + range.len()]);
                }
            }
        }
        self.charge_oram(world);
        Ok(())
    }

    /// Write `data` at `ptr`.
    pub fn write(&mut self, world: &mut World, ptr: Ptr, data: &[u8]) -> Result<(), RtError> {
        match &mut self.mode {
            HeapMode::Direct => return world.rt.write(&mut world.os, Va(ptr.0), data),
            HeapMode::CachedOram(cache) => {
                for (block, off, range) in block_pieces(ptr, data.len()) {
                    cache.write_at(block, off, &data[range]).map_err(oram_err)?;
                }
            }
            HeapMode::UncachedOram(oram) => {
                for (block, off, range) in block_pieces(ptr, data.len()) {
                    let mut block_data = oram.read(block).map_err(oram_err)?;
                    block_data[off..off + range.len()].copy_from_slice(&data[range]);
                    oram.write(block, &block_data).map_err(oram_err)?;
                }
            }
        }
        self.charge_oram(world);
        Ok(())
    }

    /// Account one completed ORAM-backed access: charge the cycles its
    /// events cost since the previous access, record it as an
    /// `oram_access` span, and sample the stash-occupancy gauge. The ORAM
    /// itself never advances the clock, so the span opens at the same
    /// cycle the access began.
    fn charge_oram(&mut self, world: &mut World) {
        let oram = match &self.mode {
            HeapMode::Direct => return,
            HeapMode::CachedOram(cache) => cache.oram(),
            HeapMode::UncachedOram(oram) => oram,
        };
        let (after, stash) = (oram.stats.counts(), oram.stash_len() as u64);
        let before = std::mem::replace(&mut self.last_counts, after);
        let span = world.rt.telemetry.enter(SpanKind::OramAccess, world.now());
        let bucket_ops = (after.bucket_reads - before.bucket_reads)
            + (after.bucket_writes - before.bucket_writes);
        // Bucket sealing runs on AES-NI-class hardware crypto (~1
        // cycle/byte including the GCM tag work).
        let cycles = bucket_ops * 200 // untrusted-memory round trip per bucket
            + (after.crypto_bytes - before.crypto_bytes)
            + (after.oblivious_scan_bytes - before.oblivious_scan_bytes)
                * world.os.machine.costs.oblivious_copy_per_byte
            + (after.cache_hits - before.cache_hits) * 15; // pinned-cache lookup
        world.os.machine.clock.charge_tagged(CostTag::Oram, cycles);
        world.rt.span_close(&mut world.os, span);
        world.rt.telemetry.stash_occupancy.set(stash);
    }

    /// The adversary-visible ORAM bucket-access log: `(bucket index,
    /// was_write)` in access order, straight from the untrusted storage.
    /// Empty for direct heaps. This is exactly what an OS watching the
    /// enclave's untrusted memory traffic records, so the leakage audit
    /// treats it as part of the observation stream.
    pub fn oram_access_log(&self) -> &[(usize, bool)] {
        match &self.mode {
            HeapMode::Direct => &[],
            HeapMode::CachedOram(cache) => &cache.oram().storage().log,
            HeapMode::UncachedOram(oram) => &oram.storage().log,
        }
    }

    /// ORAM statistics (zeroes for direct heaps).
    pub fn oram_stats(&self) -> OramStats {
        match &self.mode {
            HeapMode::Direct => OramStats::default(),
            HeapMode::CachedOram(cache) => cache.oram().stats.clone(),
            HeapMode::UncachedOram(oram) => oram.stats.clone(),
        }
    }

    // Typed helpers -------------------------------------------------

    /// Read a `u64`.
    pub fn read_u64(&mut self, world: &mut World, ptr: Ptr) -> Result<u64, RtError> {
        let mut buf = [0u8; 8];
        self.read(world, ptr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Write a `u64`.
    pub fn write_u64(&mut self, world: &mut World, ptr: Ptr, value: u64) -> Result<(), RtError> {
        self.write(world, ptr, &value.to_le_bytes())
    }

    /// Read an `f64`.
    pub fn read_f64(&mut self, world: &mut World, ptr: Ptr) -> Result<f64, RtError> {
        Ok(f64::from_bits(self.read_u64(world, ptr)?))
    }

    /// Write an `f64`.
    pub fn write_f64(&mut self, world: &mut World, ptr: Ptr, value: f64) -> Result<(), RtError> {
        self.write_u64(world, ptr, value.to_bits())
    }

    /// Read a `u32`.
    pub fn read_u32(&mut self, world: &mut World, ptr: Ptr) -> Result<u32, RtError> {
        let mut buf = [0u8; 4];
        self.read(world, ptr, &mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Write a `u32`.
    pub fn write_u32(&mut self, world: &mut World, ptr: Ptr, value: u32) -> Result<(), RtError> {
        self.write(world, ptr, &value.to_le_bytes())
    }
}

/// Split `len` bytes at `ptr` into per-block pieces: the ORAM block, the
/// offset inside it, and the piece's range in the caller's buffer.
fn block_pieces(ptr: Ptr, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0usize;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = ptr.0 + done as u64;
            let off = (at % PAGE_SIZE as u64) as usize;
            let piece = done..done + (PAGE_SIZE - off).min(len - done);
            done = piece.end;
            (at / PAGE_SIZE as u64, off, piece)
        })
    })
}

fn oram_err(err: autarky_oram::OramError) -> RtError {
    match err {
        autarky_oram::OramError::Tampered(_) => RtError::SealBroken(autarky_sgx_sim::Vpn(0)),
        _ => RtError::OutOfMemory,
    }
}

/// A fixed-length array of `u64` in enclave memory.
pub struct EncVecU64 {
    ptr: Ptr,
    len: usize,
}

impl EncVecU64 {
    /// Allocate `len` zeroed elements.
    pub fn new(world: &mut World, heap: &mut EncHeap, len: usize) -> Result<Self, RtError> {
        let ptr = heap.alloc(world, len * 8)?;
        Ok(Self { ptr, len })
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Load element `i`.
    pub fn get(&self, world: &mut World, heap: &mut EncHeap, i: usize) -> Result<u64, RtError> {
        debug_assert!(i < self.len);
        heap.read_u64(world, self.ptr.offset(i as u64 * 8))
    }

    /// Store element `i`.
    pub fn set(
        &self,
        world: &mut World,
        heap: &mut EncHeap,
        i: usize,
        value: u64,
    ) -> Result<(), RtError> {
        debug_assert!(i < self.len);
        heap.write_u64(world, self.ptr.offset(i as u64 * 8), value)
    }
}

/// A fixed-length array of `f64` in enclave memory.
pub struct EncVecF64 {
    ptr: Ptr,
    len: usize,
}

impl EncVecF64 {
    /// Allocate `len` zeroed elements.
    pub fn new(world: &mut World, heap: &mut EncHeap, len: usize) -> Result<Self, RtError> {
        let ptr = heap.alloc(world, len * 8)?;
        Ok(Self { ptr, len })
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Load element `i`.
    pub fn get(&self, world: &mut World, heap: &mut EncHeap, i: usize) -> Result<f64, RtError> {
        debug_assert!(i < self.len);
        heap.read_f64(world, self.ptr.offset(i as u64 * 8))
    }

    /// Store element `i`.
    pub fn set(
        &self,
        world: &mut World,
        heap: &mut EncHeap,
        i: usize,
        value: f64,
    ) -> Result<(), RtError> {
        debug_assert!(i < self.len);
        heap.write_f64(world, self.ptr.offset(i as u64 * 8), value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(heap_pages: usize) -> World {
        let mut img = EnclaveImage::named("encmem-test");
        img.heap_pages = heap_pages;
        World::new(
            MachineConfig {
                epc_frames: heap_pages + 64,
                ..Default::default()
            },
            img,
            RuntimeConfig::default(),
        )
        .expect("world")
    }

    #[test]
    fn direct_heap_roundtrip() {
        let mut w = world(64);
        let mut heap = EncHeap::direct();
        let ptr = heap.alloc(&mut w, 128).expect("alloc");
        heap.write(&mut w, ptr, &[42u8; 128]).expect("write");
        let mut buf = [0u8; 128];
        heap.read(&mut w, ptr, &mut buf).expect("read");
        assert_eq!(buf, [42u8; 128]);
    }

    #[test]
    fn cached_oram_heap_roundtrip_across_blocks() {
        let mut w = world(16);
        let mut heap = EncHeap::cached_oram(64, 8, 1);
        let ptr = heap.alloc(&mut w, 3 * PAGE_SIZE).expect("alloc");
        let data: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        heap.write(&mut w, ptr, &data).expect("write");
        let mut buf = vec![0u8; 3 * PAGE_SIZE];
        heap.read(&mut w, ptr, &mut buf).expect("read");
        assert_eq!(buf, data);
    }

    #[test]
    fn uncached_oram_heap_roundtrip() {
        let mut w = world(16);
        let mut heap = EncHeap::uncached_oram(32, 1);
        let ptr = heap.alloc(&mut w, 64).expect("alloc");
        heap.write(&mut w, ptr, &[7u8; 64]).expect("write");
        let mut buf = [0u8; 64];
        heap.read(&mut w, ptr, &mut buf).expect("read");
        assert_eq!(buf, [7u8; 64]);
    }

    #[test]
    fn oram_access_charges_cycles() {
        let mut w = world(16);
        let mut heap = EncHeap::cached_oram(64, 2, 1);
        let ptr = heap.alloc(&mut w, PAGE_SIZE * 4).expect("alloc");
        let before = w.now();
        // 4 distinct blocks through a 2-block cache: misses guaranteed.
        for i in 0..4u64 {
            heap.write_u64(&mut w, ptr.offset(i * PAGE_SIZE as u64), i)
                .expect("write");
        }
        assert!(w.now() > before + 1000, "ORAM traffic must cost cycles");
    }

    #[test]
    fn uncached_is_much_slower_than_cached() {
        let mut w1 = world(16);
        let mut cached = EncHeap::cached_oram(256, 64, 1);
        let p1 = cached.alloc(&mut w1, 32 * PAGE_SIZE).expect("alloc");
        let start1 = w1.now();
        for i in 0..200u64 {
            cached
                .read_u64(&mut w1, p1.offset((i % 32) * PAGE_SIZE as u64))
                .expect("read");
        }
        let cached_cycles = w1.now() - start1;

        let mut w2 = world(16);
        let mut uncached = EncHeap::uncached_oram(256, 1);
        let p2 = uncached.alloc(&mut w2, 32 * PAGE_SIZE).expect("alloc");
        let start2 = w2.now();
        for i in 0..200u64 {
            uncached
                .read_u64(&mut w2, p2.offset((i % 32) * PAGE_SIZE as u64))
                .expect("read");
        }
        let uncached_cycles = w2.now() - start2;
        assert!(
            uncached_cycles > cached_cycles * 5,
            "uncached {uncached_cycles} vs cached {cached_cycles}"
        );
    }

    #[test]
    fn typed_vectors() {
        let mut w = world(64);
        let mut heap = EncHeap::direct();
        let v = EncVecU64::new(&mut w, &mut heap, 100).expect("vec");
        for i in 0..100 {
            v.set(&mut w, &mut heap, i, (i * i) as u64).expect("set");
        }
        for i in 0..100 {
            assert_eq!(v.get(&mut w, &mut heap, i).expect("get"), (i * i) as u64);
        }
        let f = EncVecF64::new(&mut w, &mut heap, 10).expect("vec");
        f.set(&mut w, &mut heap, 3, 2.5).expect("set");
        assert_eq!(f.get(&mut w, &mut heap, 3).expect("get"), 2.5);
    }

    #[test]
    fn ptr_null_never_allocated() {
        let mut w = world(64);
        let mut heap = EncHeap::cached_oram(16, 4, 1);
        let p = heap.alloc(&mut w, 8).expect("alloc");
        assert!(!p.is_null());
        assert!(Ptr::NULL.is_null());
    }
}
