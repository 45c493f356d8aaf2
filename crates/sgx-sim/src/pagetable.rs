//! The OS-controlled page table.
//!
//! In SGX the enclave's address space is mapped by the *untrusted* OS using
//! ordinary x86 page tables; hardware then cross-checks mappings against the
//! EPCM. This module models one address space (one enclave-hosting process)
//! as a flat `vpn → PTE` map. All mutation goes through the OS — the
//! simulated hardware only reads PTEs during TLB fills and (for legacy
//! enclaves) writes back accessed/dirty bits.
//!
//! The controlled channel lives here: present bits, permissions, and A/D
//! bits are all OS-visible and OS-controllable state.

use autarky_prng::SimMap;

use crate::addr::{Frame, Vpn};
use crate::epc::Perms;

/// A page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Present bit. Clear ⇒ any access faults.
    pub present: bool,
    /// EPC frame this page maps to.
    pub frame: Frame,
    /// Permissions.
    pub perms: Perms,
    /// Accessed bit. For legacy enclaves the hardware sets this on TLB
    /// fill; under Autarky it must already be set or the fill faults.
    pub accessed: bool,
    /// Dirty bit (same contract as `accessed`, for writes).
    pub dirty: bool,
}

/// One process address space's page table.
#[derive(Debug, Default)]
pub struct PageTable {
    entries: SimMap<Vpn, Pte>,
}

impl PageTable {
    /// Create an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install or replace a mapping.
    pub fn map(&mut self, vpn: Vpn, pte: Pte) {
        self.entries.insert(vpn, pte);
    }

    /// Remove a mapping entirely.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<Pte> {
        self.entries.remove(&vpn)
    }

    /// Read a PTE (hardware page walk or OS inspection).
    pub fn get(&self, vpn: Vpn) -> Option<Pte> {
        self.entries.get(&vpn).copied()
    }

    /// Mutably access a PTE (OS bit manipulation, hardware A/D writeback).
    pub fn get_mut(&mut self, vpn: Vpn) -> Option<&mut Pte> {
        self.entries.get_mut(&vpn)
    }

    /// Clear the present bit (the original controlled-channel primitive).
    pub fn clear_present(&mut self, vpn: Vpn) -> bool {
        match self.entries.get_mut(&vpn) {
            Some(pte) => {
                pte.present = false;
                true
            }
            None => false,
        }
    }

    /// Set the present bit.
    pub fn set_present(&mut self, vpn: Vpn) -> bool {
        match self.entries.get_mut(&vpn) {
            Some(pte) => {
                pte.present = true;
                true
            }
            None => false,
        }
    }

    /// Clear accessed and dirty bits (the stealthier attack primitive of
    /// Wang et al. / Van Bulck et al.).
    pub fn clear_accessed_dirty(&mut self, vpn: Vpn) -> bool {
        match self.entries.get_mut(&vpn) {
            Some(pte) => {
                pte.accessed = false;
                pte.dirty = false;
                true
            }
            None => false,
        }
    }

    /// Number of installed mappings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over all `(vpn, pte)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        self.entries.iter().map(|(&vpn, &pte)| (vpn, pte))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pte(frame: u32) -> Pte {
        Pte {
            present: true,
            frame: Frame(frame),
            perms: Perms::RW,
            accessed: true,
            dirty: true,
        }
    }

    #[test]
    fn map_get_unmap() {
        let mut pt = PageTable::new();
        assert!(pt.is_empty());
        pt.map(Vpn(5), pte(1));
        assert_eq!(pt.get(Vpn(5)).expect("mapped").frame, Frame(1));
        assert_eq!(pt.len(), 1);
        assert_eq!(pt.unmap(Vpn(5)).expect("was mapped").frame, Frame(1));
        assert!(pt.get(Vpn(5)).is_none());
    }

    #[test]
    fn present_bit_toggles() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), pte(0));
        assert!(pt.clear_present(Vpn(1)));
        assert!(!pt.get(Vpn(1)).expect("mapped").present);
        assert!(pt.set_present(Vpn(1)));
        assert!(pt.get(Vpn(1)).expect("mapped").present);
        assert!(!pt.clear_present(Vpn(99)), "unmapped page");
    }

    #[test]
    fn ad_bits_clear() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), pte(0));
        assert!(pt.clear_accessed_dirty(Vpn(1)));
        let e = pt.get(Vpn(1)).expect("mapped");
        assert!(!e.accessed);
        assert!(!e.dirty);
    }
}
