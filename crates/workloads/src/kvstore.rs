//! A Memcached-style key-value store over instrumented enclave memory
//! (the paper's §7.3 / Figure 8 workload: 1 KB entries, 100% GET,
//! single-threaded).
//!
//! To support the page-cluster configuration, the store mirrors the
//! paper's 30-line Memcached patch: its slab allocator registers every
//! item page with a fixed-size cluster, so an item access reveals only
//! its cluster.

use autarky_runtime::RtError;
use autarky_sgx_sim::PAGE_SIZE;

use crate::encmem::{EncHeap, World};
use crate::uthash::EncHashTable;

/// Clustering applied to item storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemClustering {
    /// No clustering (baseline / rate-limited / ORAM configurations).
    None,
    /// Register every item page with clusters of this many pages
    /// (the paper's modified slab allocation, 10 pages).
    Pages(usize),
}

/// The key-value store.
pub struct KvStore {
    table: EncHashTable,
    value_size: usize,
    /// GET operations served.
    pub gets: u64,
    /// SET operations served.
    pub sets: u64,
}

impl KvStore {
    /// Create a store for `expected_items` values of `value_size` bytes.
    pub fn new(
        world: &mut World,
        heap: &mut EncHeap,
        expected_items: u64,
        value_size: usize,
        clustering: ItemClustering,
    ) -> Result<Self, RtError> {
        // Clustering must be configured before the table allocates its
        // first pages, so the bucket array is covered too.
        if let ItemClustering::Pages(pages) = clustering {
            world.rt.clusters.ay_init_clusters(0, pages);
        }
        // Bucket count sized for short chains, as Memcached does.
        let nbuckets = (expected_items / 4).next_power_of_two().max(16);
        let table = EncHashTable::new(world, heap, nbuckets, value_size, 16)?;
        Ok(Self {
            table,
            value_size,
            gets: 0,
            sets: 0,
        })
    }

    /// Value size in bytes.
    pub fn value_size(&self) -> usize {
        self.value_size
    }

    /// Store `value` under `key`.
    pub fn set(
        &mut self,
        world: &mut World,
        heap: &mut EncHeap,
        key: u64,
        value: &[u8],
    ) -> Result<(), RtError> {
        self.sets += 1;
        world.progress(1); // forward-progress signal for the rate limiter
                           // Request processing (protocol parse, dispatch, response build):
                           // Memcached spends ~40µs/request single-threaded over loopback.
        world.compute(120_000);
        // Under ItemClustering::Pages the runtime allocator auto-clusters
        // every page the table grows into (configured in `new`), which is
        // the paper's 30-line slab-allocation patch.
        self.table.insert(world, heap, key, value)
    }

    /// Fetch the value under `key`.
    pub fn get(
        &mut self,
        world: &mut World,
        heap: &mut EncHeap,
        key: u64,
    ) -> Result<Option<Vec<u8>>, RtError> {
        self.gets += 1;
        world.progress(1);
        world.compute(120_000);
        self.table.get(world, heap, key)
    }

    /// Items stored.
    pub fn len(&self) -> u64 {
        self.table.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Deterministic value payload for `key` (load generators and
    /// correctness checks share it).
    pub fn value_for(key: u64, value_size: usize) -> Vec<u8> {
        let mut value = vec![0u8; value_size];
        let seed = crate::uthash::hash64(key);
        for (i, b) in value.iter_mut().enumerate() {
            *b = (seed.wrapping_add(i as u64) % 256) as u8;
        }
        value
    }

    /// Populate the store with `items` deterministic entries.
    pub fn load(
        &mut self,
        world: &mut World,
        heap: &mut EncHeap,
        items: u64,
    ) -> Result<(), RtError> {
        for key in 0..items {
            let value = Self::value_for(key, self.value_size);
            self.set(world, heap, key, &value)?;
        }
        Ok(())
    }
}

/// A secret-input pair for leakage audits: two GET key streams of
/// `count` requests each, drawn from disjoint halves of a store of
/// `items` keys. Request count, value sizes, and timing are identical;
/// only which items are touched differs.
pub fn secret_pair(items: u64, count: usize) -> (Vec<u64>, Vec<u64>) {
    let half = (items / 2).max(1);
    let a = (0..count).map(|i| i as u64 % half).collect();
    let b = (0..count).map(|i| i as u64 % half + half).collect();
    (a, b)
}

/// Approximate bytes a store of `items` × `value_size` occupies,
/// including node headers and the bucket array.
pub fn store_bytes(items: u64, value_size: usize) -> u64 {
    let node = (16 + value_size) as u64;
    let buckets = (items / 4).next_power_of_two().max(16) * 8;
    items * node + buckets
}

/// Pages needed for a store (rounded up).
pub fn store_pages(items: u64, value_size: usize) -> u64 {
    store_bytes(items, value_size).div_ceil(PAGE_SIZE as u64) + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_os_sim::EnclaveImage;
    use autarky_runtime::RuntimeConfig;
    use autarky_sgx_sim::machine::MachineConfig;

    fn world(heap_pages: usize) -> World {
        let mut img = EnclaveImage::named("kv-test");
        img.heap_pages = heap_pages;
        World::new(
            MachineConfig {
                epc_frames: heap_pages + 128,
                ..Default::default()
            },
            img,
            RuntimeConfig::default(),
        )
        .expect("world")
    }

    #[test]
    fn set_get_roundtrip() {
        let mut w = world(1024);
        let mut heap = EncHeap::direct();
        let mut store =
            KvStore::new(&mut w, &mut heap, 100, 64, ItemClustering::None).expect("store");
        store.load(&mut w, &mut heap, 100).expect("load");
        for key in 0..100u64 {
            let got = store
                .get(&mut w, &mut heap, key)
                .expect("get")
                .expect("present");
            assert_eq!(got, KvStore::value_for(key, 64));
        }
        assert_eq!(store.get(&mut w, &mut heap, 999).expect("get"), None);
        assert_eq!(store.gets, 101);
        assert_eq!(store.sets, 100);
    }

    #[test]
    fn values_are_key_dependent() {
        assert_ne!(KvStore::value_for(1, 32), KvStore::value_for(2, 32));
        assert_eq!(KvStore::value_for(1, 32), KvStore::value_for(1, 32));
    }

    #[test]
    fn store_over_cached_oram() {
        let mut w = world(256);
        let mut heap = EncHeap::cached_oram(1024, 64, 5);
        let mut store =
            KvStore::new(&mut w, &mut heap, 50, 128, ItemClustering::None).expect("store");
        store.load(&mut w, &mut heap, 50).expect("load");
        for key in (0..50u64).rev() {
            let got = store
                .get(&mut w, &mut heap, key)
                .expect("get")
                .expect("present");
            assert_eq!(got, KvStore::value_for(key, 128));
        }
    }

    #[test]
    fn secret_pair_disjoint_key_streams() {
        let (a, b) = secret_pair(64, 40);
        assert_eq!(a.len(), 40);
        assert_eq!(b.len(), 40);
        let set_a: autarky_prng::SimSet<u64> = a.iter().copied().collect();
        let set_b: autarky_prng::SimSet<u64> = b.iter().copied().collect();
        assert!(set_a.is_disjoint(&set_b), "key sets are disjoint");
        assert!(a.iter().chain(&b).all(|&k| k < 64), "all keys loadable");
    }

    #[test]
    fn size_estimates_are_sane() {
        let pages = store_pages(1000, 1024);
        assert!(pages > 250, "1000×1KB needs >1MB: got {pages} pages");
        assert!(pages < 600);
    }

    #[test]
    fn item_clustering_registers_pages() {
        let mut w = world(1024);
        let mut heap = EncHeap::direct();
        let mut store =
            KvStore::new(&mut w, &mut heap, 200, 256, ItemClustering::Pages(10)).expect("store");
        store.load(&mut w, &mut heap, 200).expect("load");
        // Item pages must have landed in clusters of up to 10 pages.
        let heap_start = w.image.heap_start();
        let ids = w.rt.clusters.ay_get_cluster_ids(heap_start);
        assert_eq!(ids.len(), 1, "first item page is clustered");
        let len = w.rt.clusters.cluster_len(ids[0]);
        assert!((2..=10).contains(&len), "cluster of {len} pages");
    }
}
