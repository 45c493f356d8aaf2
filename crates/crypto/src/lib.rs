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
//! All implementations are deterministic, written without intrinsics, and
//! validated against the relevant RFC/NIST test vectors in the unit tests.
//! Page sealing sets the simulator's host speed on the fault path, so the
//! two bulk paths are lane kernels the compiler vectorizes (see their
//! module docs), each one `#[inline(always)]` body generic over its lane
//! count. The kernels are compiled in three CPU tiers: portable (8
//! ChaCha20 lanes, 4 Poly1305 lanes), AVX2 (8 and 4) and AVX-512F (16 and
//! 8). [`aead::seal`] and [`aead::open`] pick the best tier the CPU has
//! once per call, through the crate's one dispatch site, `Tier::run` in
//! the private `tier` module; the public [`ChaCha20`] and [`Poly1305`]
//! types run the portable instance. Calling a `#[target_feature]` tier is
//! the crate's only `unsafe`: one call per non-portable tier, each allowed
//! at that call site only and sound because its one precondition, a CPU
//! with the tier's features, is asserted with runtime detection just
//! before it. Everything else is safe Rust, and the lints below reject any
//! further or undocumented `unsafe`. The unit tests run every tier the
//! host has against the one-block paths, and `tests/proptests.rs` pins the
//! portable instances to them under random streaming.

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
