//! CPU tiers: which compiled instance of the lane kernels runs.
//!
//! ChaCha20's and Poly1305's lane kernels are `#[inline(always)]` bodies
//! generic over their lane counts, so each compiles for the features of
//! the function it lands in. A [`Kernel`] is a computation built on them
//! (`aead::seal`, `aead::open`, and the tests' single-primitive kernels),
//! and each [`Tier`] is one instance of it:
//!
//! | tier | compiled for | ChaCha20 lanes | Poly1305 lanes |
//! |---|---|---:|---:|
//! | [`Tier::Portable`] | the target's baseline | 8 | 4 |
//! | [`Tier::Avx2`] | x86-64 with AVX2 | 8 | 4 |
//! | [`Tier::Avx512f`] | x86-64 with AVX-512F | 16 | 8 |
//!
//! [`Tier::run`] is the crate's one dispatch site. Calling a
//! `#[target_feature]` function is `unsafe`, so it holds one `unsafe`
//! call per non-portable tier. Each is sound for the same reason: the
//! instance's only precondition is that the CPU has the features it was
//! compiled for, and `run` asserts exactly that, with
//! `is_x86_feature_detected!`, before the call. A wrong tier therefore
//! panics instead of running an instruction the CPU lacks.

/// A computation generic over the two lane counts: `C` ChaCha20 blocks
/// and `P` Poly1305 blocks side by side.
pub(crate) trait Kernel {
    /// What the computation returns.
    type Out;

    /// The body. Implementations are `#[inline(always)]`, as is every lane
    /// kernel they call, so each tier's instance compiles for its features.
    fn run<const C: usize, const P: usize>(self) -> Self::Out;
}

/// One compiled instance of a [`Kernel`]: its lane counts and the CPU
/// features it is built for (see the module docs).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Tier {
    /// The target's baseline features: 8 ChaCha20 and 4 Poly1305 lanes.
    Portable,
    /// x86-64 with AVX2: 8 ChaCha20 and 4 Poly1305 lanes.
    Avx2,
    /// x86-64 with AVX-512F: 16 ChaCha20 and 8 Poly1305 lanes.
    Avx512f,
}

impl Tier {
    /// The tiers this CPU runs, best first; the last is always `Portable`.
    pub(crate) fn supported() -> impl Iterator<Item = Tier> {
        [Tier::Avx512f, Tier::Avx2, Tier::Portable]
            .into_iter()
            .filter(|tier| tier.detected())
    }

    /// The best tier this CPU runs.
    pub(crate) fn best() -> Tier {
        Self::supported()
            .next()
            .expect("the portable tier runs anywhere")
    }

    /// Whether this CPU has the tier's features.
    fn detected(self) -> bool {
        match self {
            Tier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512f => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx2 | Tier::Avx512f => false,
        }
    }

    /// Run `kernel` on this tier's instance.
    ///
    /// # Panics
    ///
    /// If this CPU lacks the tier's features.
    pub(crate) fn run<K: Kernel>(self, kernel: K) -> K::Out {
        assert!(self.detected(), "this CPU lacks the {self:?} tier");
        #[cfg(target_arch = "x86_64")]
        match self {
            Tier::Portable => {}
            Tier::Avx2 => {
                // SAFETY: `avx2`'s only precondition is a CPU with AVX2,
                // which the assert above checked.
                #[allow(unsafe_code)]
                return unsafe { avx2(kernel) };
            }
            Tier::Avx512f => {
                // SAFETY: `avx512f`'s only precondition is a CPU with
                // AVX-512F, which the assert above checked.
                #[allow(unsafe_code)]
                return unsafe { avx512f(kernel) };
            }
        }
        kernel.run::<8, 4>()
    }
}

/// The AVX2 instance: eight 32-bit lanes of a ChaCha20 row in one `ymm`,
/// four Poly1305 lanes' 64-bit products in another.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<K: Kernel>(kernel: K) -> K::Out {
    kernel.run::<8, 4>()
}

/// The AVX-512F instance: sixteen ChaCha20 lanes of a row in one `zmm`
/// (rotates are single `vprold`s), eight Poly1305 lanes' 64-bit products
/// in another.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512f<K: Kernel>(kernel: K) -> K::Out {
    kernel.run::<16, 8>()
}
