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
//!   eight blocks side by side.
//! * [`poly1305`] — RFC 7539 Poly1305 one-time authenticator on 44/44/42-bit
//!   limbs, two blocks per step.
//! * [`aead`] — ChaCha20-Poly1305 AEAD, used by `EWB`/`ELDU` page sealing
//!   and by the ORAM block store. The associated data carries the page's
//!   virtual address and anti-replay version counter, which is exactly the
//!   integrity contract SGX's paging instructions provide.
//!
//! All implementations are deterministic, written without intrinsics, and
//! validated against the relevant RFC/NIST test vectors in the unit tests.
//! Page sealing sets the simulator's host speed on the fault path, so the
//! two bulk paths are written to be fast (see their module docs);
//! `tests/proptests.rs` pins each fast path to the one-block path the
//! vectors check. ChaCha20's lane kernel is compiled twice, portable and
//! with AVX2, and picked per call by runtime CPU detection. Calling the
//! AVX2 instance is the crate's one `unsafe` block, allowed at that call
//! site only and documented there: its only precondition is the CPU check
//! just before it. Everything else is safe Rust, and the lints below
//! reject any further or undocumented `unsafe`.

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

pub use aead::{open, seal, AeadError, KEY_LEN, NONCE_LEN, TAG_LEN};
pub use chacha20::ChaCha20;
pub use constant_time::ct_eq;
pub use hmac::{hmac_sha256, HmacSha256};
pub use poly1305::Poly1305;
pub use sha256::{sha256, Sha256};
