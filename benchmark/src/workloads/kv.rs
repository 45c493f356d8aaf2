//! `kv-read` and `kv-update`: a Memcached-style store on the cached-ORAM
//! data path (paper Fig. 8), YCSB-C (all GETs) and YCSB-A (half SETs).
//! The store spans about 66 pages against a 24-page enclave cache, so
//! misses run the PathORAM protocol; the ORAM path bypasses the MMU, so
//! neither workload takes a page fault.

use autarky::{Profile, SystemBuilder};
use autarky_prng::SimRng;
use autarky_workloads::kvstore::{ItemClustering, KvStore};
use autarky_workloads::ycsb::{Distribution, KeyGenerator};
use autarky_workloads::{EncHeap, World};

use super::{stream_seed, Session, Shape};

/// YCSB-C: 500 warm-up GETs fill the ORAM cache; 2,000 are measured.
pub const READ: Shape = Shape {
    op: "kv.get",
    warmup: 500,
    measured: 2_000,
    mix: 0.0,
};

/// YCSB-A: half of the ops are SETs of fresh seeded values.
pub const UPDATE: Shape = Shape {
    op: "kv.op",
    warmup: 500,
    measured: 1_500,
    mix: 0.5,
};

/// Items stored.
pub const ITEMS: u64 = 512;
/// Bytes per value.
pub const VALUE_SIZE: usize = 512;
/// ORAM block space, in pages.
pub const ORAM_PAGES: u64 = 512;
/// Enclave-managed ORAM cache, in pages.
pub const CACHE_PAGES: usize = 24;
/// Zipf skew of the key stream.
pub const THETA: f64 = 0.99;

/// One generated key-value operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Read `key`.
    Get(u64),
    /// Overwrite `key` with a new value.
    Set(u64, Vec<u8>),
}

/// The kv workload's world, inputs and host-side shadow copy.
pub struct Kv {
    world: World,
    heap: EncHeap,
    store: KvStore,
    ops: Vec<KvOp>,
    shadow: Vec<Vec<u8>>,
}

fn seeded_value(rng: &mut SimRng) -> Vec<u8> {
    let mut value = vec![0u8; VALUE_SIZE];
    rng.fill_bytes(&mut value);
    value
}

/// The initial values and `count` seeded ops with a `mix` share of SETs.
pub fn inputs(seed: u64, count: usize, mix: f64) -> (Vec<Vec<u8>>, Vec<KvOp>) {
    let mut values = SimRng::seed_from_u64(stream_seed(seed, 3));
    let initial = (0..ITEMS).map(|_| seeded_value(&mut values)).collect();
    let mut keys = KeyGenerator::new(
        ITEMS,
        Distribution::Zipfian { theta: THETA },
        stream_seed(seed, 4),
    );
    let mut coin = SimRng::seed_from_u64(stream_seed(seed, 5));
    let ops = (0..count)
        .map(|_| {
            let key = keys.next_key();
            if coin.gen_bool(mix) {
                KvOp::Set(key, seeded_value(&mut values))
            } else {
                KvOp::Get(key)
            }
        })
        .collect();
    (initial, ops)
}

impl Kv {
    /// Generate the inputs, build the enclave and preload every item.
    pub fn setup(seed: u64, shape: &Shape) -> Result<Self, String> {
        let (initial, ops) = inputs(seed, shape.warmup + shape.measured, shape.mix);
        let (mut world, mut heap) = SystemBuilder::new(
            "bench-kv",
            Profile::CachedOram {
                capacity_pages: ORAM_PAGES,
                cache_pages: CACHE_PAGES,
            },
        )
        .epc_pages(4096)
        .heap_pages(1024)
        .build()
        .map_err(|e| format!("kv: build: {e}"))?;
        let mut store = KvStore::new(
            &mut world,
            &mut heap,
            ITEMS,
            VALUE_SIZE,
            ItemClustering::None,
        )
        .map_err(|e| format!("kv: store: {e}"))?;
        for (key, value) in initial.iter().enumerate() {
            store
                .set(&mut world, &mut heap, key as u64, value)
                .map_err(|e| format!("kv: preload {key}: {e}"))?;
        }
        Ok(Self {
            world,
            heap,
            store,
            ops,
            shadow: initial,
        })
    }
}

impl Session for Kv {
    fn world(&self) -> &World {
        &self.world
    }

    fn heap(&self) -> &EncHeap {
        &self.heap
    }

    fn op(&mut self, i: usize) -> Result<(), String> {
        match &self.ops[i] {
            KvOp::Get(key) => {
                let got = self
                    .store
                    .get(&mut self.world, &mut self.heap, *key)
                    .map_err(|e| format!("kv: get {key}: {e}"))?;
                if got.as_deref() != Some(&self.shadow[*key as usize][..]) {
                    return Err(format!("kv: get {key} returned a stale or missing value"));
                }
            }
            KvOp::Set(key, value) => {
                self.store
                    .set(&mut self.world, &mut self.heap, *key, value)
                    .map_err(|e| format!("kv: set {key}: {e}"))?;
                self.shadow[*key as usize].clone_from(value);
            }
        }
        Ok(())
    }
}
