//! PathORAM with a cached front-end, as used by Autarky's strongest
//! self-paging policy (paper §5.2.2).
//!
//! Oblivious RAM hides *which* block a client touches: the adversary
//! watching untrusted storage sees one uniformly random root-to-leaf path
//! per access regardless of the logical address. The paper's contribution
//! on top of stock PathORAM is architectural: because Autarky pins and
//! masks enclave-managed pages, the position map, the stash, **and a large
//! block cache** can live in EPC without leaking — turning "orders of
//! magnitude too slow" (CoSMIX-style uncached ORAM, §7.2's 232×) into a
//! practical paging backend.
//!
//! * [`tree`] — the PathORAM protocol (Z=4 buckets, greedy write-back);
//! * [`storage`] — the untrusted, encrypted bucket store and its access
//!   log (the adversary's view);
//! * [`cache`] — the enclave-managed LRU block cache front-end;
//! * [`stats`] — event counts converted to cycles by the runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod stats;
pub mod storage;
pub mod tree;

pub use cache::CachedOram;
pub use stats::{OramCounts, OramStats};
pub use storage::MemStorage;
pub use tree::{buckets_for, OramError, PathOram, BUCKET_Z};
