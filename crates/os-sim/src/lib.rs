//! The untrusted host for the Autarky simulator: OS kernel, SGX driver,
//! and the controlled-channel adversary.
//!
//! In the paper's threat model (§3) the operating system *is* the
//! attacker: it manages the enclave's address space, observes its page
//! faults, and controls PTE bits. This crate plays both roles faithfully:
//!
//! * [`kernel`] — enclave loading, EPC accounting and quotas, demand
//!   paging of OS-managed pages (clock eviction for legacy enclaves, FIFO
//!   for self-paging ones), the page-fault entry point, and whole-enclave
//!   suspend/swap;
//! * [`driver`] — the Autarky driver syscalls (`ay_set_enclave_managed`,
//!   `ay_set_os_managed`, `ay_fetch_pages`, `ay_evict_pages`, plus the
//!   SGXv2 allocation/trim calls and raw untrusted-memory access);
//! * [`attack`] — the published controlled-channel attacks (page-fault
//!   tracing, A/D-bit monitoring) as OS-resident machinery;
//! * [`backing`] — untrusted swap storage;
//! * [`fault`] — deterministic, seeded hostile-OS fault injection
//!   threaded through every driver entry point;
//! * [`flight`] — the causal flight recorder: a correlation-chained
//!   event log spanning hardware transitions, kernel observations, and
//!   trusted-runtime decisions, with post-mortem reconstruction;
//! * [`image`] — enclave image descriptions for the loader;
//! * [`eviction`] — clock and FIFO victim selection.
//!
//! Every adversary-visible event is recorded in the
//! [`kernel::Observation`] stream, which is all the attack oracles are
//! allowed to consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The simulated OS must stay runnable under every injected fault
// schedule: fallible paths return `OsError`, they do not abort.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod attack;
pub mod backing;
pub mod driver;
pub mod eviction;
pub mod fault;
pub mod flight;
pub mod hypervisor;
pub mod image;
pub mod kernel;

pub use attack::{AdMonitor, Attacker, FaultTracer, TraceMode};
pub use backing::BackingStore;
pub use eviction::{EvictionPolicy, EvictionState};
pub use fault::{FaultInjector, FaultKind, FaultPlan, InjectedFault, SyscallKind};
pub use flight::{FlightEvent, FlightRecord, FlightRecorder, CORR_NONE};
pub use hypervisor::{BalloonOutcome, Hypervisor, VmId};
pub use image::EnclaveImage;
pub use kernel::{FaultDisposition, Observation, Os, OsError, UntrustedEnclaveState};
