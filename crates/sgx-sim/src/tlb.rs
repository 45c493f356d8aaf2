//! The translation lookaside buffer.
//!
//! SGX implements its access control in the TLB-miss path, and flushes the
//! TLB on every enclave entry and exit. The TLB matters for two reasons in
//! this model:
//!
//! * the number of *fills* is the multiplier for Autarky's added
//!   accessed/dirty-bit check (the paper charges 10 cycles per fill and
//!   measures a 0.07% geomean slowdown on nbench);
//! * cached translations determine *when* the OS actually observes enclave
//!   accesses via PTE bits — clearing an A bit leaks nothing until the
//!   stale TLB entry is shot down, which is why the published attacks pair
//!   bit-clearing with IPI shootdowns.

use autarky_prng::SimMap;

use crate::addr::{EnclaveId, Frame, Vpn};
use crate::epc::Perms;

/// A cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Backing EPC frame.
    pub frame: Frame,
    /// Permissions snapshot taken at fill time.
    pub perms: Perms,
    /// Whether the PTE's dirty bit was already set at fill time. A write
    /// through an entry with `dirty_ok == false` forces a re-walk, exactly
    /// like x86's dirty-bit update on a TLB entry cached from a read.
    pub dirty_ok: bool,
}

/// Simulated TLB holding enclave translations, tagged by enclave.
#[derive(Debug, Default)]
pub struct Tlb {
    entries: SimMap<(EnclaveId, Vpn), TlbEntry>,
    fills: u64,
    hits: u64,
    flushes: u64,
}

impl Tlb {
    /// Create an empty TLB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a translation; counts a hit when found.
    pub fn lookup(&mut self, eid: EnclaveId, vpn: Vpn) -> Option<TlbEntry> {
        let entry = self.entries.get(&(eid, vpn)).copied();
        if entry.is_some() {
            self.hits += 1;
        }
        entry
    }

    /// Install a translation; counts a fill.
    pub fn fill(&mut self, eid: EnclaveId, vpn: Vpn, entry: TlbEntry) {
        self.fills += 1;
        self.entries.insert((eid, vpn), entry);
    }

    /// Flush every entry (enclave entry/exit, AEX).
    pub fn flush_all(&mut self) {
        self.flushes += 1;
        self.entries.clear();
    }

    /// Shoot down one page's translation (OS-initiated IPI).
    pub fn shootdown(&mut self, eid: EnclaveId, vpn: Vpn) {
        self.entries.remove(&(eid, vpn));
    }

    /// Shoot down all translations of one enclave (ETRACK epoch).
    pub fn shootdown_enclave(&mut self, eid: EnclaveId) {
        self.entries.retain(|(e, _), _| *e != eid);
    }

    /// Capture one enclave's cached translations, sorted by page, without
    /// counting lookups (checkpoint support: TLB warmth changes the cycle
    /// charges of the continuation, so a byte-identical restore must carry
    /// the entries — and the counters — across).
    pub fn entries_of(&self, eid: EnclaveId) -> Vec<(Vpn, TlbEntry)> {
        let mut entries: Vec<(Vpn, TlbEntry)> = self
            .entries
            .iter()
            .filter(|((e, _), _)| *e == eid)
            .map(|((_, vpn), entry)| (*vpn, *entry))
            .collect();
        entries.sort_by_key(|(vpn, _)| vpn.0);
        entries
    }

    /// Reinstall a captured translation without counting a fill.
    pub fn reinstall(&mut self, eid: EnclaveId, vpn: Vpn, entry: TlbEntry) {
        self.entries.insert((eid, vpn), entry);
    }

    /// Restore the fill/hit/flush counters from a capture.
    pub fn restore_counters(&mut self, fills: u64, hits: u64, flushes: u64) {
        self.fills = fills;
        self.hits = hits;
        self.flushes = flushes;
    }

    /// Total fills since creation.
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Total hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total whole-TLB flushes since creation.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const E1: EnclaveId = EnclaveId(1);
    const E2: EnclaveId = EnclaveId(2);

    fn entry(frame: u32) -> TlbEntry {
        TlbEntry {
            frame: Frame(frame),
            perms: Perms::RW,
            dirty_ok: true,
        }
    }

    #[test]
    fn fill_then_hit() {
        let mut tlb = Tlb::new();
        assert!(tlb.lookup(E1, Vpn(1)).is_none());
        tlb.fill(E1, Vpn(1), entry(7));
        assert_eq!(tlb.lookup(E1, Vpn(1)).expect("hit").frame, Frame(7));
        assert_eq!(tlb.fills(), 1);
        assert_eq!(tlb.hits(), 1);
    }

    #[test]
    fn entries_are_enclave_tagged() {
        let mut tlb = Tlb::new();
        tlb.fill(E1, Vpn(1), entry(7));
        assert!(tlb.lookup(E2, Vpn(1)).is_none());
    }

    #[test]
    fn flush_clears_everything() {
        let mut tlb = Tlb::new();
        tlb.fill(E1, Vpn(1), entry(7));
        tlb.flush_all();
        assert!(tlb.lookup(E1, Vpn(1)).is_none());
        assert_eq!(tlb.flushes(), 1);
    }

    #[test]
    fn shootdown_is_targeted() {
        let mut tlb = Tlb::new();
        tlb.fill(E1, Vpn(1), entry(7));
        tlb.fill(E1, Vpn(2), entry(8));
        tlb.shootdown(E1, Vpn(1));
        assert!(tlb.lookup(E1, Vpn(1)).is_none());
        assert!(tlb.lookup(E1, Vpn(2)).is_some());
    }

    #[test]
    fn enclave_shootdown() {
        let mut tlb = Tlb::new();
        tlb.fill(E1, Vpn(1), entry(7));
        tlb.fill(E2, Vpn(1), entry(9));
        tlb.shootdown_enclave(E1);
        assert!(tlb.lookup(E1, Vpn(1)).is_none());
        assert!(tlb.lookup(E2, Vpn(1)).is_some());
    }
}
