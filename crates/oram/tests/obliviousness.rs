//! Statistical obliviousness tests: the bucket-access trace PathORAM
//! exposes to untrusted storage must be indistinguishable across logical
//! access patterns.

use autarky_oram::{buckets_for, CachedOram, MemStorage, PathOram};

fn oram(seed: u64) -> PathOram {
    let storage = MemStorage::new(buckets_for(256));
    PathOram::new(256, 32, seed, [7; 32], storage)
}

/// Histogram of leaf-bucket indices touched by reads, given an access
/// pattern.
fn leaf_histogram(pattern: &[u64], seed: u64) -> autarky_prng::SimMap<u32, u64> {
    let mut o = oram(seed);
    for id in 0..256 {
        o.write(id, &[id as u8; 32]).expect("fill");
    }
    let mut histogram = autarky_prng::SimMap::default();
    for &id in pattern {
        let log_start = o.storage().log.len();
        o.read(id).expect("read");
        let leaf = o.storage().log[log_start..]
            .iter()
            .filter(|(_, w)| !w)
            .map(|(i, _)| *i)
            .max()
            .expect("path read");
        *histogram.entry(leaf).or_insert(0) += 1;
    }
    histogram
}

fn total_variation(
    a: &autarky_prng::SimMap<u32, u64>,
    b: &autarky_prng::SimMap<u32, u64>,
    n: u64,
) -> f64 {
    let keys: autarky_prng::SimSet<u32> = a.keys().chain(b.keys()).copied().collect();
    keys.iter()
        .map(|k| {
            let pa = *a.get(k).unwrap_or(&0) as f64 / n as f64;
            let pb = *b.get(k).unwrap_or(&0) as f64 / n as f64;
            (pa - pb).abs()
        })
        .sum::<f64>()
        / 2.0
}

#[test]
fn hammering_one_block_looks_like_uniform_access() {
    let n = 2000u64;
    // Pattern A: hammer block 7. Pattern B: round-robin over everything.
    let pattern_a: Vec<u64> = vec![7; n as usize];
    let pattern_b: Vec<u64> = (0..n).map(|i| i % 256).collect();
    let hist_a = leaf_histogram(&pattern_a, 1);
    let hist_b = leaf_histogram(&pattern_b, 1);
    let tv = total_variation(&hist_a, &hist_b, n);
    // Two samples of the same uniform distribution: total variation well
    // below what distinct distributions would show. (Empirically ~0.1 for
    // 2000 draws over 64 leaves; 0.5+ would indicate pattern leakage.)
    assert!(
        tv < 0.25,
        "leaf distribution differs by {tv}: pattern leaks"
    );
}

#[test]
fn sequential_and_random_patterns_indistinguishable() {
    let n = 2000u64;
    let pattern_a: Vec<u64> = (0..n).map(|i| i % 256).collect();
    let pattern_b: Vec<u64> = (0..n)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56)
        .collect();
    let tv = total_variation(
        &leaf_histogram(&pattern_a, 3),
        &leaf_histogram(&pattern_b, 3),
        n,
    );
    assert!(tv < 0.25, "leaf distribution differs by {tv}");
}

#[test]
fn cache_hides_hits_entirely() {
    // With the Autarky cache in front, repeated hot accesses produce NO
    // storage traffic at all — the strongest possible statement.
    let storage = MemStorage::new(buckets_for(64));
    let oram = PathOram::new(64, 32, 9, [2; 32], storage);
    let mut cache = CachedOram::new(oram, 16);
    for id in 0..8u64 {
        cache.write(id, &[id as u8; 32]).expect("fill");
    }
    let log_len = cache.oram().storage().log.len();
    for _ in 0..500 {
        for id in 0..8u64 {
            cache.read(id).expect("hot read");
        }
    }
    assert_eq!(
        cache.oram().storage().log.len(),
        log_len,
        "4000 hot reads generated zero adversary-visible events"
    );
}

#[test]
fn trace_length_depends_only_on_access_count() {
    // The number of bucket touches is a deterministic function of the
    // access count (path length × 2), never of the addresses.
    let patterns: [Vec<u64>; 3] = [
        vec![0; 50],
        (0..50).collect(),
        (0..50).map(|i| (i * 37) % 256).collect(),
    ];
    let mut lengths = Vec::new();
    for pattern in &patterns {
        let mut o = oram(5);
        for id in 0..256 {
            o.write(id, &[1; 32]).expect("fill");
        }
        let start = o.storage().log.len();
        for &id in pattern {
            o.read(id).expect("read");
        }
        lengths.push(o.storage().log.len() - start);
    }
    assert_eq!(lengths[0], lengths[1]);
    assert_eq!(lengths[1], lengths[2]);
}
