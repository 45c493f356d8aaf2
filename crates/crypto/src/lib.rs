//! Cryptographic primitives for the Autarky SGX simulator.
//!
//! The real SGX memory-encryption engine and sealing machinery are opaque
//! hardware; the simulator replaces them with well-known software
//! constructions implemented from scratch in this crate:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256, used for enclave measurement
//!   (`EEXTEND`) and as the compression core for [`hmac`].
//! * [`hmac`] — RFC 2104 HMAC-SHA256, used for report MACs and key
//!   derivation.
//! * [`chacha20`] — RFC 7539 ChaCha20 stream cipher, the simulator's
//!   stand-in for the AES-based memory-encryption engine; bulk data runs
//!   8 or 16 blocks side by side.
//! * [`poly1305`] — RFC 7539 Poly1305 one-time authenticator on 26-bit
//!   limbs; bulk data runs 4 or 8 blocks side by side.
//! * [`aead`] — ChaCha20-Poly1305 AEAD, used by `EWB`/`ELDU` page sealing
//!   and by the ORAM block store. The associated data carries the page's
//!   virtual address and anti-replay version counter, which is exactly the
//!   integrity contract SGX's paging instructions provide.
//!
//! All implementations are deterministic and validated against the
//! relevant RFC/NIST test vectors in the unit tests. Page sealing sets the
//! simulator's host speed on the fault path, so the bulk paths are lane
//! kernels: Poly1305's and ChaCha20's 8-lane kernel are plain Rust the
//! compiler vectorizes (see their module docs), each one
//! `#[inline(always)]` body that compiles for the CPU tier it lands in.
//! Intrinsics appear in one place, ChaCha20's AVX-512F kernel. Left to the
//! vectorizer, 16 blocks in `zmm` rows turned the keystream XOR into
//! gathers and scatters; written with `std::arch`, the kernel transposes
//! the rows into blocks in registers instead. The tiers are portable (8
//! ChaCha20 lanes, 4 Poly1305 lanes), AVX2 (8 and 4) and AVX-512F (the
//! 16-block intrinsic kernel and 8). [`aead::seal`] and [`aead::open`]
//! pick the best tier the CPU has once per call, through the crate's one
//! dispatch site, `Tier::run` in the private `tier` module; the public
//! [`ChaCha20`] and [`Poly1305`] types run the portable instance.
//!
//! The crate's `unsafe` is of three kinds, each allowed at its site only:
//! the call into each non-portable tier in `Tier::run`, sound because its
//! one precondition, a CPU with the tier's features, is asserted with
//! runtime detection just before it; the call into the AVX-512F kernel,
//! sound because it takes the proof of that check, which only `Tier::run`
//! makes; and the kernel's unaligned 64-byte load and store, one helper
//! each over a 64-byte array. Everything else is safe Rust, and the lints
//! below reject any further or undocumented `unsafe`. The unit tests run
//! every tier the host has against the one-block paths, and
//! `tests/proptests.rs` pins the portable instances to them under random
//! streaming and the whole AEAD, on the best tier, to its one-block
//! construction.

#![deny(unsafe_code)]
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::multiple_unsafe_ops_per_block
)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod constant_time;
pub mod hmac;
pub mod poly1305;
pub mod sha256;
mod tier;

pub use aead::{open, seal, AeadError, KEY_LEN, NONCE_LEN, TAG_LEN};
pub use chacha20::ChaCha20;
pub use constant_time::ct_eq;
pub use hmac::{hmac_sha256, HmacSha256};
pub use poly1305::Poly1305;
pub use sha256::{sha256, Sha256};
