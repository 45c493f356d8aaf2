//! Cost accounting for ORAM operations.
//!
//! The ORAM crate is pure (no dependency on the machine simulator);
//! instead of charging cycles directly it counts the events that cost
//! something, and the runtime converts them to cycles with its cost
//! model. The counts are one `u64` field each, beside a stash-occupancy
//! [`Histogram`]; nothing exports them, they feed the cycle charge and
//! the benchmark's per-layer table.

use autarky_telemetry::Histogram;

/// Event counts of ORAM operations, one field per event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OramCounts {
    /// Logical ORAM accesses performed.
    pub accesses: u64,
    /// Buckets read from untrusted storage.
    pub bucket_reads: u64,
    /// Buckets written to untrusted storage.
    pub bucket_writes: u64,
    /// Bytes moved through bucket encryption/decryption.
    pub crypto_bytes: u64,
    /// Bytes covered by oblivious (CMOV-style) scans of the stash and,
    /// in uncached mode, the position map.
    pub oblivious_scan_bytes: u64,
    /// Cache hits (cached front-end only).
    pub cache_hits: u64,
    /// Cache misses (cached front-end only).
    pub cache_misses: u64,
}

/// Counters accumulated by ORAM operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OramStats {
    pub(crate) counts: OramCounts,
    stash: Histogram,
}

impl OramStats {
    /// Every event count, by value.
    pub fn counts(&self) -> OramCounts {
        self.counts
    }

    /// Sample the stash occupancy after an access.
    pub fn record_stash(&mut self, occupancy: u64) {
        self.stash.record(occupancy);
    }

    /// Stash-occupancy distribution (one sample per access).
    pub fn stash_hist(&self) -> &Histogram {
        &self.stash
    }

    /// Logical ORAM accesses performed.
    pub fn accesses(&self) -> u64 {
        self.counts.accesses
    }

    /// Buckets read from untrusted storage.
    pub fn bucket_reads(&self) -> u64 {
        self.counts.bucket_reads
    }

    /// Buckets written to untrusted storage.
    pub fn bucket_writes(&self) -> u64 {
        self.counts.bucket_writes
    }

    /// Bytes moved through bucket encryption/decryption.
    pub fn crypto_bytes(&self) -> u64 {
        self.counts.crypto_bytes
    }

    /// Bytes covered by oblivious scans (see
    /// [`OramCounts::oblivious_scan_bytes`]).
    pub fn oblivious_scan_bytes(&self) -> u64 {
        self.counts.oblivious_scan_bytes
    }

    /// Cache hits (cached front-end only).
    pub fn cache_hits(&self) -> u64 {
        self.counts.cache_hits
    }

    /// Cache misses (cached front-end only).
    pub fn cache_misses(&self) -> u64 {
        self.counts.cache_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stash_samples_are_histogrammed() {
        let mut s = OramStats::default();
        s.record_stash(3);
        s.record_stash(7);
        assert_eq!(s.stash_hist().count(), 2);
        assert_eq!(s.stash_hist().max(), 7);
    }
}
