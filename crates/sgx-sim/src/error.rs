//! Error and fault types for the SGX machine model.

use crate::addr::{EnclaveId, Va, Vpn};

/// The kind of memory access being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

impl AccessKind {
    /// True for accesses that require write permission.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Why a translation raised a page fault.
///
/// This is the *architectural* cause recorded in the (trusted) SSA frame.
/// What the OS sees is a separate, possibly masked, view: see
/// [`FaultEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// PTE not present.
    NotPresent,
    /// PTE present but lacks the required permission.
    Permission,
    /// The EPCM rejected the mapping (wrong frame, wrong enclave, wrong
    /// linear address, or insufficient EPCM permissions).
    EpcmMismatch,
    /// The page is EBLOCKed, pending (`EAUG` not yet accepted), or trimmed.
    EpcmBlocked,
    /// Autarky accessed/dirty-bit precondition failed: the fetched PTE's
    /// A (or D, for a write) bit was clear for a self-paging enclave.
    AdBitsClear,
}

/// A page fault as observed at the architectural boundary.
///
/// `reported_va`/`reported_kind` are what the hardware exposes to the
/// untrusted OS. For a self-paging (Autarky) enclave this is always the
/// enclave base address and `Read` — the OS learns only *that* a fault
/// happened. For a legacy enclave it is the faulting page base (SGX already
/// masks the low 12 bits) and the true access kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Enclave that faulted.
    pub eid: EnclaveId,
    /// TCS (hardware thread slot) that faulted.
    pub tcs: usize,
    /// Address reported to the OS (masked for self-paging enclaves).
    pub reported_va: Va,
    /// Access kind reported to the OS (masked for self-paging enclaves).
    pub reported_kind: AccessKind,
    /// Whether the fault bypassed the AEX/OS path entirely (the paper's
    /// proposed AEX-elision optimization). When true, the OS never saw the
    /// fault; control should go directly to the in-enclave handler.
    pub elided: bool,
}

/// Errors returned by machine operations (instruction faults, misuse).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SgxError {
    /// No free EPC frames; the OS must evict before adding pages.
    EpcFull,
    /// Operation referenced an enclave id that does not exist.
    NoSuchEnclave(EnclaveId),
    /// Operation referenced an EPC frame that is not valid for it.
    InvalidFrame,
    /// Virtual address outside the enclave's linear range.
    OutOfRange(Va),
    /// The virtual page is not backed by a valid EPC mapping for this
    /// operation (e.g. `EWB` of an unmapped page).
    NoSuchPage(Vpn),
    /// The page must be blocked (`EBLOCK`) before this operation.
    NotBlocked(Vpn),
    /// A pending SGXv2 page change was required (or forbidden) for the
    /// requested operation.
    PendingStateMismatch(Vpn),
    /// `ERESUME` refused because the TCS pending-exception flag is set
    /// (the Autarky ISA change that removes silent fault resolution).
    ResumeBlocked,
    /// `EINIT` already performed, or operation requires an uninitialized
    /// enclave.
    LifecycleViolation,
    /// The TCS index does not exist or is busy.
    BadTcs(usize),
    /// Sealed-page authentication failed during `ELDU` (tampering or
    /// replay of evicted page contents).
    SealBroken,
    /// Anti-replay version mismatch during `ELDU`.
    Replay(Vpn),
    /// Sealing the page would reuse a nonce: its page number, or its
    /// next eviction version, does not fit the 32 bits the nonce holds.
    /// The page is left where it was.
    NonceExhausted(Vpn),
    /// The enclave has been terminated (by its runtime, after detecting an
    /// attack) and can no longer be entered.
    Terminated,
    /// The SSA stack for the TCS is exhausted (nested faults beyond
    /// provisioned depth).
    SsaOverflow,
    /// A platform monotonic counter failed its MAC check (NVRAM bits
    /// overwritten by the OS) — the rollback-attack signal of the
    /// checkpoint/restore subsystem.
    CounterTampered,
    /// A sealed snapshot's freshness check failed: the monotonic counter
    /// does not match the value sealed into the blob (stale or forked
    /// snapshot presented at restore).
    SnapshotStale {
        /// Counter value sealed inside the snapshot.
        sealed: u64,
        /// Current verified platform counter value.
        current: u64,
    },
}

impl core::fmt::Display for SgxError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SgxError::EpcFull => write!(f, "EPC is full"),
            SgxError::NoSuchEnclave(eid) => write!(f, "no such enclave: {eid}"),
            SgxError::InvalidFrame => write!(f, "invalid EPC frame"),
            SgxError::OutOfRange(va) => write!(f, "address {va} outside enclave range"),
            SgxError::NoSuchPage(vpn) => write!(f, "no valid EPC page for vpn {vpn}"),
            SgxError::NotBlocked(vpn) => write!(f, "page {vpn} must be EBLOCKed first"),
            SgxError::PendingStateMismatch(vpn) => {
                write!(f, "pending/modified state mismatch on {vpn}")
            }
            SgxError::ResumeBlocked => {
                write!(f, "ERESUME blocked by pending-exception flag")
            }
            SgxError::LifecycleViolation => write!(f, "enclave lifecycle violation"),
            SgxError::BadTcs(i) => write!(f, "bad TCS index {i}"),
            SgxError::SealBroken => write!(f, "sealed page failed authentication"),
            SgxError::Replay(vpn) => write!(f, "replay detected for page {vpn}"),
            SgxError::NonceExhausted(vpn) => {
                write!(f, "sealing page {vpn} would reuse a nonce")
            }
            SgxError::Terminated => write!(f, "enclave is terminated"),
            SgxError::SsaOverflow => write!(f, "SSA stack overflow"),
            SgxError::CounterTampered => {
                write!(f, "monotonic counter failed MAC verification")
            }
            SgxError::SnapshotStale { sealed, current } => write!(
                f,
                "snapshot freshness mismatch: sealed counter {sealed}, platform counter {current}"
            ),
        }
    }
}

impl std::error::Error for SgxError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_write() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert!(!AccessKind::Execute.is_write());
    }

    #[test]
    fn errors_display() {
        let err = SgxError::OutOfRange(Va(0x1234));
        assert!(err.to_string().contains("0x1234"));
        let err = SgxError::Replay(Vpn(7));
        assert!(err.to_string().contains("0x7"));
    }
}
