//! A deterministic functional model of the Intel SGX architecture with the
//! Autarky ISA extensions.
//!
//! This crate is the hardware substrate for the Autarky reproduction. It
//! models the parts of SGX that the controlled-channel attack and its
//! defense live in:
//!
//! * the enclave page cache ([`epc`]) and its metadata map (EPCM);
//! * OS-controlled page tables ([`pagetable`]) with present/permission/
//!   accessed/dirty bits;
//! * the TLB ([`tlb`]) with enclave-entry flushes and the SGX-specific
//!   fill-time checks;
//! * the SGX1/SGX2 instruction set, AEX/`EENTER`/`ERESUME`/`EEXIT` flows,
//!   TCS/SSA state, and `EWB`/`ELDU` sealing ([`machine`], [`seal`]);
//! * enclave measurement and attestation ([`attest`]);
//! * a cycle cost model that stands in for real hardware timing ([`cost`]).
//!
//! The **Autarky extensions** (paper §5.1) are implemented behind the
//! attested `self_paging` attribute bit:
//!
//! 1. page-fault masking — the OS sees every enclave fault as a read fault
//!    at the enclave base address;
//! 2. the per-TCS pending-exception flag — `ERESUME` fails until the OS
//!    re-enters the enclave through its entry point, guaranteeing the
//!    trusted fault handler observes every fault;
//! 3. the accessed/dirty-bit precondition — a fetched enclave PTE whose
//!    A (or, for writes, D) bit is clear is treated as invalid, closing the
//!    silent PTE-bit channel;
//! 4. optional AEX elision — faults vector directly to the in-enclave
//!    handler, skipping the AEX and OS round trip.
//!
//! Everything here is mechanism; paging *policy* lives in
//! `autarky-runtime`, and the adversary lives in `autarky-os-sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod attest;
pub mod cost;
pub mod counter;
pub mod enclave;
pub mod epc;
pub mod error;
pub mod machine;
pub mod pagetable;
pub mod seal;
pub mod tlb;

pub use addr::{EnclaveId, Frame, Va, Vpn, PAGE_SIZE};
pub use cost::{ChargeRecord, Clock, CostModel, CostTag, CLOCK_HZ, COST_TAGS};
pub use counter::{snapshot_seal_key, MonotonicCounter};
pub use enclave::{Attributes, Secs, SsaExInfo};
pub use epc::{PageType, Perms};
pub use error::{AccessKind, FaultCause, FaultEvent, SgxError};
pub use machine::{
    AccessError, EnclaveCapture, Machine, MachineConfig, MachineStats, PageCapture, TcsCapture,
    TransitionEvent, TransitionKind,
};
pub use pagetable::{PageTable, Pte};
pub use seal::SealedPage;
