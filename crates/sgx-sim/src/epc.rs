//! The enclave page cache (EPC) and its metadata map (EPCM).
//!
//! EPC frames hold enclave page contents; they are the scarce resource that
//! drives all paging in this system (the real EPC was ~190 MB usable at the
//! time of the paper). The EPCM is the hardware-owned metadata array that
//! SGX consults after every page-table walk to verify that the untrusted
//! OS's mapping is the one the enclave agreed to.

use std::collections::BTreeMap;

use crate::addr::{EnclaveId, Frame, Vpn, PAGE_SIZE};
use crate::error::SgxError;

/// One page worth of bytes.
pub type PageData = Box<[u8; PAGE_SIZE]>;

/// Allocate a zeroed page.
pub fn zeroed_page() -> PageData {
    vec![0u8; PAGE_SIZE]
        .into_boxed_slice()
        .try_into()
        .expect("exactly PAGE_SIZE bytes")
}

/// EPCM page types (subset of the architectural `PT_*` values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageType {
    /// Regular data/code page.
    Reg,
    /// Thread control structure page.
    Tcs,
    /// Page being trimmed (deallocated) via `EMODT`.
    Trim,
}

/// Page permissions recorded in the EPCM (and in PTEs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perms {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl Perms {
    /// Read-only data.
    pub const R: Perms = Perms {
        r: true,
        w: false,
        x: false,
    };
    /// Read-write data.
    pub const RW: Perms = Perms {
        r: true,
        w: true,
        x: false,
    };
    /// Read-execute code.
    pub const RX: Perms = Perms {
        r: true,
        w: false,
        x: true,
    };
    /// All permissions.
    pub const RWX: Perms = Perms {
        r: true,
        w: true,
        x: true,
    };

    /// Whether `self` allows everything `other` allows.
    pub fn covers(self, other: Perms) -> bool {
        (self.r || !other.r) && (self.w || !other.w) && (self.x || !other.x)
    }

    /// Whether an access of `kind` is permitted.
    pub fn allows(self, kind: crate::error::AccessKind) -> bool {
        match kind {
            crate::error::AccessKind::Read => self.r,
            crate::error::AccessKind::Write => self.w,
            crate::error::AccessKind::Execute => self.x,
        }
    }

    /// The 3-bit form checkpoints carry: `r | w << 1 | x << 2`.
    pub fn bits(self) -> u8 {
        u8::from(self.r) | u8::from(self.w) << 1 | u8::from(self.x) << 2
    }

    /// Inverse of [`Perms::bits`]; `None` when a bit above `0b111` is set.
    pub fn from_bits(bits: u8) -> Option<Perms> {
        (bits <= 0b111).then_some(Perms {
            r: bits & 1 != 0,
            w: bits & 2 != 0,
            x: bits & 4 != 0,
        })
    }
}

/// Metadata for one EPC frame (one EPCM entry).
#[derive(Debug, Clone)]
pub struct EpcmEntry {
    /// Entry describes a live enclave page.
    pub valid: bool,
    /// Owning enclave.
    pub eid: EnclaveId,
    /// Linear (virtual) page this frame backs; the EPCM pins the VA↔PA
    /// association so the OS cannot remap pages within the enclave.
    pub vpn: Vpn,
    /// Page type.
    pub page_type: PageType,
    /// Permissions granted by the enclave.
    pub perms: Perms,
    /// Page is EBLOCKed in preparation for eviction; accesses fault.
    pub blocked: bool,
    /// SGXv2: page added by `EAUG` but not yet `EACCEPT`ed.
    pub pending: bool,
    /// SGXv2: permissions restricted by `EMODPR` (or type changed by
    /// `EMODT`) but not yet `EACCEPT`ed.
    pub modified: bool,
}

/// The enclave page cache: frames plus their EPCM entries.
///
/// Each enclave's frame count is kept beside the EPCM, updated by
/// [`Epc::alloc_with`] and [`Epc::free`], so [`Epc::frames_of`] is O(1) for the
/// kernel's per-fetch quota check, the hypervisor and the fleet tick.
///
/// Invariant: an entry's `eid` never changes while its frame is allocated.
/// Callers of [`Epc::entry_mut`] set `blocked`, `pending`, `modified`,
/// `perms` or `page_type` and must leave `eid` alone; moving a page to
/// another enclave is a `free` followed by an `alloc`.
pub struct Epc {
    data: Vec<Option<PageData>>,
    epcm: Vec<Option<EpcmEntry>>,
    free: Vec<Frame>,
    /// Allocated frames per enclave; enclaves with none have no entry.
    counts: BTreeMap<EnclaveId, usize>,
}

impl Epc {
    /// Create an EPC with `frames` page frames.
    pub fn new(frames: usize) -> Self {
        Self {
            data: (0..frames).map(|_| None).collect(),
            epcm: vec![None; frames],
            free: (0..frames as u32).rev().map(Frame).collect(),
            counts: BTreeMap::new(),
        }
    }

    /// Total number of frames.
    pub fn total_frames(&self) -> usize {
        self.data.len()
    }

    /// Number of currently free frames.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Allocate a frame, installing `entry` and zeroed contents.
    pub fn alloc(&mut self, entry: EpcmEntry) -> Result<Frame, SgxError> {
        self.alloc_with(entry, zeroed_page())
    }

    /// Allocate a frame, installing `entry` and `contents`, the buffer
    /// itself rather than a copy (`ELDU` installs the page it decrypted,
    /// or the one `EWB` kept).
    pub fn alloc_with(&mut self, entry: EpcmEntry, contents: PageData) -> Result<Frame, SgxError> {
        let frame = self.free.pop().ok_or(SgxError::EpcFull)?;
        *self.counts.entry(entry.eid).or_insert(0) += 1;
        self.data[frame.0 as usize] = Some(contents);
        self.epcm[frame.0 as usize] = Some(entry);
        Ok(frame)
    }

    /// Free a frame and hand back its page buffer; the EPC keeps nothing
    /// of it, and the next allocation of the frame gets fresh contents.
    /// `EWB` keeps the returned buffer for the page's `ELDU` and seals a
    /// copy; other callers drop it.
    pub fn free(&mut self, frame: Frame) -> Result<PageData, SgxError> {
        let idx = frame.0 as usize;
        let entry = self
            .epcm
            .get_mut(idx)
            .and_then(Option::take)
            .ok_or(SgxError::InvalidFrame)?;
        let contents = self.data[idx]
            .take()
            .expect("an allocated frame has contents");
        self.free.push(frame);
        let count = self
            .counts
            .get_mut(&entry.eid)
            .expect("an allocated frame is counted");
        *count -= 1;
        if *count == 0 {
            self.counts.remove(&entry.eid);
        }
        Ok(contents)
    }

    /// Borrow the EPCM entry for `frame`.
    pub fn entry(&self, frame: Frame) -> Result<&EpcmEntry, SgxError> {
        self.epcm
            .get(frame.0 as usize)
            .and_then(|e| e.as_ref())
            .ok_or(SgxError::InvalidFrame)
    }

    /// Mutably borrow the EPCM entry for `frame`.
    pub fn entry_mut(&mut self, frame: Frame) -> Result<&mut EpcmEntry, SgxError> {
        self.epcm
            .get_mut(frame.0 as usize)
            .and_then(|e| e.as_mut())
            .ok_or(SgxError::InvalidFrame)
    }

    /// Borrow frame contents.
    pub fn page(&self, frame: Frame) -> Result<&[u8; PAGE_SIZE], SgxError> {
        self.data
            .get(frame.0 as usize)
            .and_then(|p| p.as_deref())
            .ok_or(SgxError::InvalidFrame)
    }

    /// Mutably borrow frame contents.
    pub fn page_mut(&mut self, frame: Frame) -> Result<&mut [u8; PAGE_SIZE], SgxError> {
        self.data
            .get_mut(frame.0 as usize)
            .and_then(|p| p.as_deref_mut())
            .ok_or(SgxError::InvalidFrame)
    }

    /// Iterate over `(frame, entry)` pairs of valid entries.
    pub fn iter_valid(&self) -> impl Iterator<Item = (Frame, &EpcmEntry)> {
        self.epcm
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (Frame(i as u32), e)))
    }

    /// Count frames owned by `eid`.
    pub fn frames_of(&self, eid: EnclaveId) -> usize {
        self.counts.get(&eid).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(eid: u32, vpn: u64) -> EpcmEntry {
        EpcmEntry {
            valid: true,
            eid: EnclaveId(eid),
            vpn: Vpn(vpn),
            page_type: PageType::Reg,
            perms: Perms::RW,
            blocked: false,
            pending: false,
            modified: false,
        }
    }

    #[test]
    fn alloc_free_cycle() {
        let mut epc = Epc::new(2);
        assert_eq!(epc.free_frames(), 2);
        let f0 = epc.alloc(entry(1, 0)).expect("alloc");
        let f1 = epc.alloc(entry(1, 1)).expect("alloc");
        assert_ne!(f0, f1);
        assert_eq!(epc.alloc(entry(1, 2)), Err(SgxError::EpcFull));
        epc.free(f0).expect("free");
        assert_eq!(epc.free_frames(), 1);
        let f2 = epc.alloc(entry(1, 2)).expect("realloc");
        assert_eq!(f2, f0);
    }

    #[test]
    fn freed_frame_is_scrubbed() {
        let mut epc = Epc::new(1);
        let f = epc.alloc(entry(1, 0)).expect("alloc");
        epc.page_mut(f).expect("page")[0] = 0xAA;
        epc.free(f).expect("free");
        let f = epc.alloc(entry(2, 0)).expect("alloc");
        assert_eq!(
            epc.page(f).expect("page")[0],
            0,
            "contents must be scrubbed"
        );
    }

    #[test]
    fn double_free_rejected() {
        let mut epc = Epc::new(1);
        let f = epc.alloc(entry(1, 0)).expect("alloc");
        epc.free(f).expect("free");
        assert_eq!(epc.free(f), Err(SgxError::InvalidFrame));
    }

    #[test]
    fn perms_cover() {
        assert!(Perms::RWX.covers(Perms::RW));
        assert!(Perms::RW.covers(Perms::R));
        assert!(!Perms::R.covers(Perms::RW));
        assert!(!Perms::RW.covers(Perms::RX));
    }

    #[test]
    fn perms_allow() {
        use crate::error::AccessKind::*;
        assert!(Perms::R.allows(Read));
        assert!(!Perms::R.allows(Write));
        assert!(Perms::RX.allows(Execute));
        assert!(!Perms::RW.allows(Execute));
    }

    #[test]
    fn frames_of_tracks_a_seeded_alloc_free_sequence() {
        // The EPCM scan `frames_of` used to be, kept as the reference.
        fn scan(epc: &Epc, eid: EnclaveId) -> usize {
            epc.iter_valid().filter(|(_, e)| e.eid == eid).count()
        }
        let eids = [EnclaveId(1), EnclaveId(2), EnclaveId(3)];
        let check = |epc: &Epc, step: usize| {
            for &eid in &eids {
                assert_eq!(
                    epc.frames_of(eid),
                    scan(epc, eid),
                    "{eid} after step {step}"
                );
            }
        };
        let mut rng = autarky_prng::SimRng::seed_from_u64(0xe9c);
        let mut epc = Epc::new(16);
        let mut live: Vec<Frame> = Vec::new();
        let mut freed: Vec<Frame> = Vec::new();
        for step in 0..2_000 {
            match rng.gen_below(5) {
                0 | 1 => {
                    let eid = eids[rng.gen_range_usize(0..eids.len())].0;
                    match epc.alloc(entry(eid, step as u64)) {
                        Ok(frame) => live.push(frame),
                        Err(e) => {
                            assert_eq!(e, SgxError::EpcFull);
                            assert_eq!(epc.free_frames(), 0);
                        }
                    }
                }
                2 | 3 if !live.is_empty() => {
                    let frame = live.swap_remove(rng.gen_range_usize(0..live.len()));
                    epc.free(frame).expect("live frame");
                    freed.push(frame);
                }
                _ => {
                    // A double free is refused; `check` shows the counts held.
                    if let Some(&frame) = freed.iter().find(|f| !live.contains(f)) {
                        assert_eq!(epc.free(frame), Err(SgxError::InvalidFrame));
                    }
                }
            }
            check(&epc, step);
        }
        assert_eq!(epc.free(Frame(16)), Err(SgxError::InvalidFrame));
    }

    #[test]
    fn frames_of_counts_per_enclave() {
        let mut epc = Epc::new(4);
        epc.alloc(entry(1, 0)).expect("alloc");
        epc.alloc(entry(1, 1)).expect("alloc");
        epc.alloc(entry(2, 0)).expect("alloc");
        assert_eq!(epc.frames_of(EnclaveId(1)), 2);
        assert_eq!(epc.frames_of(EnclaveId(2)), 1);
        assert_eq!(epc.frames_of(EnclaveId(3)), 0);
    }
}
