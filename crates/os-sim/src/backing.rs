//! Untrusted backing storage for evicted enclave pages.
//!
//! Everything stored here is adversary-visible: sealed `EWB` blobs, the
//! runtime's software-sealed pages (SGXv2 path), and ORAM buckets all live
//! in ordinary host memory. Confidentiality comes only from the sealing
//! done before the data arrives here; *access patterns* to this store are
//! exactly what the demand-paging side channel leaks.

use autarky_prng::SimMap;
use autarky_sgx_sim::{EnclaveId, SealedPage, Vpn};

/// Untrusted host memory holding swapped-out enclave state.
#[derive(Default)]
pub struct BackingStore {
    sealed: SimMap<(EnclaveId, Vpn), SealedPage>,
    /// Superseded sealed blobs. An honest OS would discard these; a
    /// hostile one (the fault injector) keeps them around to mount
    /// replay attacks.
    stale: SimMap<(EnclaveId, Vpn), SealedPage>,
    blobs: SimMap<u64, Vec<u8>>,
}

impl BackingStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store an `EWB` blob for `(eid, vpn)`, replacing any previous one.
    /// The replaced blob, if any, is retained as a stale copy.
    pub fn put_sealed(&mut self, sealed: SealedPage) {
        let key = (sealed.eid, sealed.vpn);
        if let Some(old) = self.sealed.insert(key, sealed) {
            self.stale.insert(key, old);
        }
    }

    /// Look up the current blob for a page.
    pub fn get_sealed(&self, eid: EnclaveId, vpn: Vpn) -> Option<&SealedPage> {
        self.sealed.get(&(eid, vpn))
    }

    /// Remove a blob (after a successful `ELDU`).
    pub fn take_sealed(&mut self, eid: EnclaveId, vpn: Vpn) -> Option<SealedPage> {
        self.sealed.remove(&(eid, vpn))
    }

    /// Whether a blob exists for the page.
    pub fn has_sealed(&self, eid: EnclaveId, vpn: Vpn) -> bool {
        self.sealed.contains_key(&(eid, vpn))
    }

    /// Number of sealed pages held.
    pub fn sealed_count(&self) -> usize {
        self.sealed.len()
    }

    /// Whether a superseded (stale) blob is retained for the page.
    pub fn has_stale(&self, eid: EnclaveId, vpn: Vpn) -> bool {
        self.stale.contains_key(&(eid, vpn))
    }

    /// Hostile tampering: flip one byte of the current sealed blob for
    /// the page. Returns whether a blob was present to corrupt. This is
    /// the one read of a blob's bytes the OS makes: it seals the blob,
    /// once for every handle sharing it, and writes a copy, so only this
    /// store's blob changes.
    pub fn corrupt_sealed(&mut self, eid: EnclaveId, vpn: Vpn) -> bool {
        match self.sealed.get_mut(&(eid, vpn)) {
            Some(blob) => {
                let bytes = blob.bytes_mut();
                match bytes.ciphertext.first_mut() {
                    Some(byte) => *byte ^= 0x01,
                    None => bytes.tag[0] ^= 0x01,
                }
                true
            }
            None => false,
        }
    }

    /// Hostile replay: replace the current sealed blob with the retained
    /// stale copy. Returns whether a stale copy existed to replay.
    pub fn replay_sealed(&mut self, eid: EnclaveId, vpn: Vpn) -> bool {
        match self.stale.remove(&(eid, vpn)) {
            Some(old) => {
                self.sealed.insert((eid, vpn), old);
                true
            }
            None => false,
        }
    }

    /// Clone every current and stale sealed blob owned by one enclave
    /// (fleet checkpointing: the supervisor bundles this with the sealed
    /// runtime checkpoint so a snapshot-based restart can reinstate the
    /// exact untrusted backing the enclave will demand-fault against).
    /// The clones share their bodies with the store's blobs.
    pub fn clone_enclave_sealed(&self, eid: EnclaveId) -> (Vec<SealedPage>, Vec<SealedPage>) {
        let collect = |map: &SimMap<(EnclaveId, Vpn), SealedPage>| {
            let mut pages: Vec<SealedPage> = map
                .iter()
                .filter(|((e, _), _)| *e == eid)
                .map(|(_, p)| p.clone())
                .collect();
            pages.sort_by_key(|p| p.vpn.0);
            pages
        };
        (collect(&self.sealed), collect(&self.stale))
    }

    /// Clone every raw blob in one enclave's software-sealing key range
    /// (`eid << 40 | vpn`). Telemetry exports (bit 63) and snapshot
    /// transport chunks (bit 62) fall outside every enclave's range and
    /// are never captured here.
    pub fn clone_enclave_blobs(&self, eid: EnclaveId) -> Vec<(u64, Vec<u8>)> {
        let mut blobs: Vec<(u64, Vec<u8>)> = self
            .blobs
            .iter()
            .filter(|(key, _)| *key >> 40 == u64::from(eid.0))
            .map(|(key, data)| (*key, data.clone()))
            .collect();
        blobs.sort_by_key(|(key, _)| *key);
        blobs
    }

    /// Drop every sealed page, stale copy, and software-sealing blob
    /// owned by one enclave (fleet retirement: the supervisor tears an
    /// enclave's untrusted residue down before reinstating a checkpoint
    /// or evicting the member for good). Snapshot history is kept — it
    /// is the adversary's rollback surface, not per-enclave state.
    pub fn purge_enclave(&mut self, eid: EnclaveId) {
        self.sealed.retain(|(e, _), _| *e != eid);
        self.stale.retain(|(e, _), _| *e != eid);
        self.blobs.retain(|key, _| *key >> 40 != u64::from(eid.0));
    }

    /// Reinstate a captured set of sealed pages (current and stale) for
    /// an enclave being restarted from a checkpoint.
    pub fn reinstate_enclave_sealed(&mut self, current: Vec<SealedPage>, stale: Vec<SealedPage>) {
        for page in current {
            self.sealed.insert((page.eid, page.vpn), page);
        }
        for page in stale {
            self.stale.insert((page.eid, page.vpn), page);
        }
    }

    /// Raw untrusted buffer write (runtime software-sealing path, ORAM
    /// buckets). Keys are chosen by the writer.
    pub fn put_blob(&mut self, key: u64, data: Vec<u8>) {
        self.blobs.insert(key, data);
    }

    /// Raw untrusted buffer read.
    pub fn get_blob(&self, key: u64) -> Option<&[u8]> {
        self.blobs.get(&key).map(|v| v.as_slice())
    }

    /// Remove a raw buffer.
    pub fn remove_blob(&mut self, key: u64) -> Option<Vec<u8>> {
        self.blobs.remove(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_sgx_sim::machine::MachineConfig;
    use autarky_sgx_sim::{Attributes, Machine, PageType, Perms, Va, PAGE_SIZE};

    /// A blob `EWB` sealed, relabelled to `(eid, vpn)`.
    fn sealed(eid: u32, vpn: u64) -> SealedPage {
        let mut machine = Machine::new(MachineConfig {
            epc_frames: 1,
            ..Default::default()
        });
        let id = machine.ecreate(Va(0), PAGE_SIZE as u64, Attributes::default());
        machine
            .eadd(id, Vpn(0), PageType::Reg, Perms::RW, None)
            .expect("eadd");
        machine.eblock(id, Vpn(0)).expect("eblock");
        let mut blob = machine.ewb(id, Vpn(0)).expect("ewb");
        blob.eid = EnclaveId(eid);
        blob.vpn = Vpn(vpn);
        blob
    }

    #[test]
    fn sealed_roundtrip() {
        let mut store = BackingStore::new();
        store.put_sealed(sealed(1, 5));
        assert!(store.has_sealed(EnclaveId(1), Vpn(5)));
        assert!(!store.has_sealed(EnclaveId(1), Vpn(6)));
        assert_eq!(store.sealed_count(), 1);
        let blob = store.take_sealed(EnclaveId(1), Vpn(5)).expect("present");
        assert_eq!(blob.vpn, Vpn(5));
        assert!(!store.has_sealed(EnclaveId(1), Vpn(5)));
    }

    #[test]
    fn newer_blob_replaces_older() {
        let mut store = BackingStore::new();
        store.put_sealed(sealed(1, 5));
        let mut newer = sealed(1, 5);
        newer.version = 2;
        store.put_sealed(newer);
        assert_eq!(
            store
                .get_sealed(EnclaveId(1), Vpn(5))
                .expect("blob")
                .version,
            2
        );
        assert_eq!(store.sealed_count(), 1);
    }

    #[test]
    fn raw_blobs() {
        let mut store = BackingStore::new();
        store.put_blob(42, vec![1, 2, 3]);
        assert_eq!(store.get_blob(42), Some(&[1u8, 2, 3][..]));
        assert_eq!(store.remove_blob(42), Some(vec![1, 2, 3]));
        assert!(store.get_blob(42).is_none());
    }
}
