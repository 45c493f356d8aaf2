//! Sealed enclave checkpoint/restore with rollback-resistant failover.
//!
//! A self-paging enclave owns all the state that matters for its paging
//! decisions, which makes it checkpointable without trusting the OS: the
//! runtime serialises its hardening state ([`Runtime::capture_bytes`]),
//! the simulated hardware serialises resident pages, EPCM metadata and
//! timing ([`Machine::capture_enclave`](autarky_sgx_sim::Machine::capture_enclave)), and this crate binds the two
//! into a single sealed blob that only the platform that produced it can
//! open — and only once.
//!
//! # Rollback resistance
//!
//! The seal alone is not enough: a hostile OS keeps every snapshot it
//! ever transported and can offer an old (but authentically sealed) one
//! after a crash, or restore the same snapshot on two hosts to fork the
//! enclave. The defense is a monotonic-counter discipline backed by the
//! platform's simulated sealed counter ([`MonotonicCounter`]):
//!
//! 1. **Snapshot** bumps the counter and seals the post-bump value into
//!    the blob's authenticated header. The newest blob always carries
//!    the counter's current value; every older blob is behind it.
//! 2. **Restore** reads the counter (verifying its MAC) and requires the
//!    sealed value to equal the live value *exactly* — a stale blob is
//!    behind, a counter rollback is detected by the MAC check.
//! 3. On success, restore bumps the counter again, so restoring the same
//!    blob a second time (a fork) fails the equality check.
//!
//! Every failure path is treated as a host attack: it is recorded in the
//! flight recorder as a [`FlightEvent::SnapshotRestore`] followed by a
//! [`FlightEvent::AttackDetected`], so post-mortem forensics can name
//! the stale restore as the causal root. A *successful* restore records
//! nothing and charges no simulated cycles — power-off and resume are
//! architecturally invisible, which is what makes byte-identical
//! continuation (and its regression tests) possible.
//!
//! # The size channel
//!
//! The ciphertext hides the checkpoint's *contents* but not its
//! *length*, and the length is a function of the resident-set size and
//! the touched-page count — both secret-dependent under a paging
//! adversary. The payload is therefore zero-padded to a multiple of
//! [`PAD_QUANTUM`] before sealing, so every blob the OS transports has
//! one of a small number of quantised sizes independent of which pages
//! the secret touched. The leakage audit's restore-path cell gates this
//! claim empirically (see [`snapshot_transport_key`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;

use autarky_crypto::aead;
use autarky_os_sim::{FlightEvent, Os, OsError};
use autarky_runtime::{RtError, Runtime};
use autarky_sgx_sim::{
    snapshot_seal_key, EnclaveCapture, EnclaveId, MonotonicCounter, SgxError, Vpn,
};

pub use codec::{decode_capture, encode_capture};

/// Magic + version prefix of the sealed snapshot wire format.
pub const MAGIC: &[u8; 8] = b"AYSNAP01";

/// Length of the authenticated (plaintext) header: magic ‖ eid ‖ counter.
pub const HEADER_LEN: usize = 8 + 4 + 8;

/// Sealed payloads are zero-padded to a multiple of this many bytes so
/// the blob length the OS observes is quantised, closing the snapshot
/// size channel (see the module docs).
pub const PAD_QUANTUM: usize = 1 << 16;

/// Page-sized unit in which the untrusted OS transports a sealed blob;
/// the leakage audit models one adversary-visible event per chunk.
pub const TRANSPORT_CHUNK: usize = 4096;

/// Bit 62 marks an untrusted-store key as sealed-snapshot transport.
/// Telemetry exports use bit 63 and page blobs use `eid << 40 | vpn`
/// (never bits 62/63), so the three key spaces are disjoint.
pub const SNAPSHOT_TRANSPORT_KEY_BIT: u64 = 1 << 62;

/// Untrusted-store key for one transported chunk of a sealed snapshot.
/// The chunk index is the only variable part, so the key sequence the
/// adversary observes depends only on the (quantised) blob length.
pub fn snapshot_transport_key(chunk: u64) -> u64 {
    SNAPSHOT_TRANSPORT_KEY_BIT | chunk
}

/// Whether an untrusted-store key names sealed-snapshot transport (used
/// by the leakage audit to isolate the restore-path channel).
pub fn is_snapshot_transport_key(key: u64) -> bool {
    key & autarky_runtime::TELEMETRY_EXPORT_KEY_BIT == 0 && key & SNAPSHOT_TRANSPORT_KEY_BIT != 0
}

/// Number of transport chunks a blob of `len` bytes occupies.
pub fn transport_chunks(len: usize) -> u64 {
    (len.div_ceil(TRANSPORT_CHUNK)) as u64
}

/// Errors from snapshot capture, sealing, or restore.
#[derive(Debug)]
pub enum SnapError {
    /// The simulated hardware rejected the operation (capture of an
    /// uninitialised enclave, counter tampering, restore collision...).
    Sgx(SgxError),
    /// The OS layer rejected the operation.
    Os(OsError),
    /// The runtime's restore-time self-check failed (e.g. a sealed page
    /// version was downgraded while the enclave was down).
    Rt(RtError),
    /// The blob's authenticated seal did not verify: truncated, bit-
    /// flipped, wrong platform, or wrong enclave.
    SealBroken,
    /// The seal verified but the payload inside did not decode. This is
    /// unreachable for blobs we produced; it indicates a codec bug or a
    /// forged key.
    Malformed,
    /// Freshness check failed: the sealed counter does not match the
    /// live platform counter. A stale snapshot is behind the counter; a
    /// forked (already-restored) snapshot is too.
    Stale {
        /// Counter value sealed inside the blob.
        sealed: u64,
        /// Live platform counter value at restore time.
        current: u64,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Sgx(e) => write!(f, "sgx: {e}"),
            SnapError::Os(e) => write!(f, "os: {e}"),
            SnapError::Rt(e) => write!(f, "runtime: {e}"),
            SnapError::SealBroken => write!(f, "snapshot seal failed verification"),
            SnapError::Malformed => write!(f, "snapshot payload malformed"),
            SnapError::Stale { sealed, current } => write!(
                f,
                "snapshot is stale or forked: sealed counter {sealed}, platform counter {current}"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

impl From<SgxError> for SnapError {
    fn from(e: SgxError) -> Self {
        SnapError::Sgx(e)
    }
}

impl From<OsError> for SnapError {
    fn from(e: OsError) -> Self {
        SnapError::Os(e)
    }
}

impl From<RtError> for SnapError {
    fn from(e: RtError) -> Self {
        SnapError::Rt(e)
    }
}

/// An unsealed checkpoint: the hardware-side capture plus the runtime's
/// serialised hardening state.
///
/// This is the plaintext form; it contains page contents and the
/// runtime's secret-dependent residency state, so it must never leave
/// the trust boundary unsealed.
/// Use [`seal_checkpoint`] before handing it to the OS.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Resident pages, EPCM metadata, page tables, TLB, and clocks.
    pub machine: EnclaveCapture,
    /// The runtime's `capture_bytes` blob: policy config, page tracking,
    /// version mirrors, heap, and the export plaintext (`RtStats`, retry
    /// and misbehavior counts included, plus the telemetry snapshot).
    pub runtime: Vec<u8>,
}

fn nonce_for(counter: u64) -> [u8; aead::NONCE_LEN] {
    // The counter value is sealed into exactly one blob ever (it is
    // bumped before sealing and never reused), so it is a safe nonce.
    let mut nonce = [0u8; aead::NONCE_LEN];
    nonce[..8].copy_from_slice(&counter.to_le_bytes());
    nonce[8..].copy_from_slice(b"SNAP");
    nonce
}

fn header_for(eid: EnclaveId, counter: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(MAGIC);
    header[8..12].copy_from_slice(&eid.0.to_le_bytes());
    header[12..20].copy_from_slice(&counter.to_le_bytes());
    header
}

fn encode_payload(checkpoint: &Checkpoint) -> Vec<u8> {
    let machine = encode_capture(&checkpoint.machine);
    let mut payload = Vec::with_capacity(16 + machine.len() + checkpoint.runtime.len());
    payload.extend_from_slice(&(machine.len() as u64).to_le_bytes());
    payload.extend_from_slice(&machine);
    payload.extend_from_slice(&(checkpoint.runtime.len() as u64).to_le_bytes());
    payload.extend_from_slice(&checkpoint.runtime);
    // Quantise the sealed length: AEAD hides contents, not size, and the
    // unpadded size is a function of the (secret-dependent) resident set.
    payload.resize(payload.len().div_ceil(PAD_QUANTUM) * PAD_QUANTUM, 0);
    payload
}

fn decode_payload(mut input: &[u8]) -> Option<(EnclaveCapture, Vec<u8>)> {
    let machine_len = codec::take_u64(&mut input)? as usize;
    if input.len() < machine_len {
        return None;
    }
    let (mut machine_bytes, rest) = input.split_at(machine_len);
    let capture = decode_capture(&mut machine_bytes)?;
    if !machine_bytes.is_empty() {
        return None;
    }
    input = rest;
    let runtime_len = codec::take_u64(&mut input)? as usize;
    if input.len() < runtime_len {
        return None;
    }
    let (runtime, padding) = input.split_at(runtime_len);
    // Anything past the runtime blob must be canonical zero padding.
    if padding.iter().any(|&b| b != 0) {
        return None;
    }
    Some((capture, runtime.to_vec()))
}

/// Capture a running enclave into an unsealed [`Checkpoint`].
///
/// Call this at an operation boundary (no chain of transitions mid-
/// flight); the capture is a pure read and perturbs nothing.
pub fn capture_checkpoint(os: &Os, rt: &Runtime) -> Result<Checkpoint, SnapError> {
    Ok(Checkpoint {
        machine: os.machine.capture_enclave(rt.eid)?,
        runtime: rt.capture_bytes(),
    })
}

/// Seal a checkpoint under the platform's snapshot key, bumping the
/// monotonic counter so this blob supersedes every earlier one.
///
/// Blob layout: `MAGIC ‖ eid u32 ‖ counter u64` (authenticated header)
/// ‖ 16-byte tag ‖ ciphertext, with the plaintext zero-padded to a
/// multiple of [`PAD_QUANTUM`] so the blob length is quantised.
pub fn seal_checkpoint(
    os: &Os,
    counter: &mut MonotonicCounter,
    checkpoint: &Checkpoint,
) -> Result<Vec<u8>, SnapError> {
    let platform_key = *os.machine.platform_key();
    let eid = checkpoint.machine.eid;
    let value = counter.bump(&platform_key)?;
    let key = snapshot_seal_key(&platform_key, eid);
    let header = header_for(eid, value);
    let mut data = encode_payload(checkpoint);
    let tag = aead::seal(&key, &nonce_for(value), &header, &mut data);
    let mut blob = Vec::with_capacity(HEADER_LEN + aead::TAG_LEN + data.len());
    blob.extend_from_slice(&header);
    blob.extend_from_slice(&tag);
    blob.extend_from_slice(&data);
    Ok(blob)
}

/// Capture and seal in one step. Records nothing and charges no cycles:
/// a successful snapshot is architecturally invisible, which is what
/// byte-identical continuation tests rely on.
pub fn snapshot(
    os: &Os,
    rt: &Runtime,
    counter: &mut MonotonicCounter,
) -> Result<Vec<u8>, SnapError> {
    let checkpoint = capture_checkpoint(os, rt)?;
    seal_checkpoint(os, counter, &checkpoint)
}

/// Record a failed restore in the flight recorder as a host attack so
/// forensics can name the stale/forged blob as the causal root. Joins
/// the caller's open chain if one exists (so an explicitly staged
/// injection lands in the same chain as the verdict).
fn record_restore_attack(os: &mut Os, sealed_counter: u64, why: &str) {
    if !os.flight_armed() {
        return;
    }
    let opened = os.flight_begin_chain_if_idle();
    os.flight_record(FlightEvent::SnapshotRestore {
        counter: sealed_counter,
    });
    os.flight_record(FlightEvent::AttackDetected {
        vpn: Vpn(0),
        why: why.to_string(),
    });
    if opened {
        os.flight_end_chain();
    }
}

/// Restore a sealed snapshot onto `os`, returning the reattached
/// [`Runtime`].
///
/// The caller is responsible for having moved the enclave's OS-side
/// process state (backing store, observations, flight recorder) onto
/// `os` first — see `Os::adopt_untrusted_state` — since that state is
/// untrusted and travels outside the seal by design.
///
/// Verification order matters and is part of the threat model:
/// header sanity → counter MAC → freshness equality → AEAD open →
/// counter bump (consuming this blob) → decode → hardware restore →
/// runtime restore → runtime self-check (`verify_restore`). Every
/// failure before the bump leaves the counter untouched so a *good*
/// blob can still be restored afterwards.
pub fn restore(
    os: &mut Os,
    counter: &mut MonotonicCounter,
    blob: &[u8],
) -> Result<Runtime, SnapError> {
    restore_inner(os, counter, blob, false)
}

/// Restore a sealed snapshot onto an `os` whose machine *kept running*
/// (fleet in-place restart: the enclave's neighbors never stopped, so
/// the shared clock, stats and TLB counters must not be rewound to the
/// capture's values).
///
/// Same verification order and counter discipline as [`restore`]; the
/// only difference is the hardware restore uses
/// [`Machine::restore_enclave_shared`], which preserves live machine
/// timing. The restored enclave's own contents are still byte-identical
/// to the capture. The caller must have retired the crashed incarnation
/// first (`Os::retire_enclave`) and reinstated its untrusted state
/// (`Os::reinstate_untrusted_state`).
///
/// [`Machine::restore_enclave_shared`]: autarky_sgx_sim::Machine::restore_enclave_shared
pub fn restore_in_place(
    os: &mut Os,
    counter: &mut MonotonicCounter,
    blob: &[u8],
) -> Result<Runtime, SnapError> {
    restore_inner(os, counter, blob, true)
}

fn restore_inner(
    os: &mut Os,
    counter: &mut MonotonicCounter,
    blob: &[u8],
    shared_machine: bool,
) -> Result<Runtime, SnapError> {
    let platform_key = *os.machine.platform_key();
    if blob.len() < HEADER_LEN + aead::TAG_LEN || &blob[..8] != MAGIC {
        record_restore_attack(os, 0, "snapshot blob truncated or not a sealed snapshot");
        return Err(SnapError::SealBroken);
    }
    let eid = EnclaveId(u32::from_le_bytes(
        blob[8..12].try_into().map_err(|_| SnapError::SealBroken)?,
    ));
    let sealed = u64::from_le_bytes(
        blob[12..HEADER_LEN]
            .try_into()
            .map_err(|_| SnapError::SealBroken)?,
    );
    let current = match counter.read(&platform_key) {
        Ok(value) => value,
        Err(e) => {
            record_restore_attack(os, sealed, "platform monotonic counter failed verification");
            return Err(SnapError::Sgx(e));
        }
    };
    if sealed != current {
        record_restore_attack(
            os,
            sealed,
            "snapshot freshness check failed: stale or already-restored snapshot",
        );
        return Err(SnapError::Stale { sealed, current });
    }
    let key = snapshot_seal_key(&platform_key, eid);
    let tag: [u8; aead::TAG_LEN] = blob[HEADER_LEN..HEADER_LEN + aead::TAG_LEN]
        .try_into()
        .map_err(|_| SnapError::SealBroken)?;
    let mut payload = blob[HEADER_LEN + aead::TAG_LEN..].to_vec();
    if aead::open(
        &key,
        &nonce_for(sealed),
        &blob[..HEADER_LEN],
        &mut payload,
        &tag,
    )
    .is_err()
    {
        record_restore_attack(os, sealed, "snapshot seal failed verification");
        return Err(SnapError::SealBroken);
    }
    // The blob is authentic and fresh: consume the counter value so this
    // blob can never restore again (fork defense). From here on, any
    // failure burns the snapshot — deliberately, since a decode or
    // restore failure past the seal means the platform is compromised.
    counter.bump(&platform_key)?;
    let (capture, runtime_bytes) = decode_payload(&payload).ok_or(SnapError::Malformed)?;
    if capture.eid != eid {
        return Err(SnapError::Malformed);
    }
    if shared_machine {
        os.machine.restore_enclave_shared(&capture)?;
    } else {
        os.machine.restore_enclave(&capture)?;
    }
    let mut rt = Runtime::restore_from_bytes(&runtime_bytes).ok_or(SnapError::Malformed)?;
    if rt.eid != eid {
        return Err(SnapError::Malformed);
    }
    if let Err(e) = rt.verify_restore(os) {
        record_restore_attack(
            os,
            sealed,
            "restored enclave failed its freshness self-check",
        );
        return Err(SnapError::Rt(e));
    }
    Ok(rt)
}
