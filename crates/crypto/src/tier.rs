//! CPU tiers: which compiled instance of the crypto kernels runs.
//!
//! Poly1305's lane kernel and ChaCha20's 8-lane kernel are
//! `#[inline(always)]` bodies, so each compiles for the features of the
//! function it lands in. A [`Kernel`] is a computation built on them
//! (`aead::seal`, `aead::open`, and the tests' single-primitive kernels),
//! and each [`Tier`] is one instance of it:
//!
//! | tier | compiled for | ChaCha20 | Poly1305 lanes |
//! |---|---|---|---:|
//! | [`Tier::Portable`] | the target's baseline | 8 lanes | 4 |
//! | [`Tier::Avx2`] | x86-64 with AVX2 | 8 lanes | 4 |
//! | [`Tier::Avx512f`] | x86-64 with AVX-512F | 16-block intrinsic kernel, then 8 lanes | 8 |
//!
//! The AVX-512F tier runs ChaCha20 over every whole 16-block chunk in
//! `chacha20`'s intrinsic kernel, a `#[target_feature]` function of its
//! own, and finishes the tail on the 8-lane kernel and the one-block path
//! like the other tiers. Calling that kernel needs proof that the CPU has
//! AVX-512F, a [`HasAvx512f`], which only [`Tier::run`] makes.
//!
//! [`Tier::run`] is the crate's one dispatch site. Calling a
//! `#[target_feature]` function is `unsafe`, so it holds one `unsafe`
//! call per non-portable tier. Each is sound for the same reason: the
//! instance's only precondition is that the CPU has the features it was
//! compiled for, and `run` asserts exactly that, with
//! `is_x86_feature_detected!`, before the call. A wrong tier therefore
//! panics instead of running an instruction the CPU lacks.

/// A computation generic over the Poly1305 lane count `P`, with ChaCha20
/// on the AVX-512F kernel when the tier passes a [`HasAvx512f`].
pub(crate) trait Kernel {
    /// What the computation returns.
    type Out;

    /// The body. Implementations are `#[inline(always)]`, as is every lane
    /// kernel they call, so each tier's instance compiles for its features.
    fn run<const P: usize>(self, avx512f: Option<HasAvx512f>) -> Self::Out;
}

/// Proof that this CPU has AVX-512F. Its field is private, so only this
/// module makes one, and only [`Tier::run`] does, after its CPU check:
/// holding one is what makes calling an AVX-512F function sound. Off
/// x86-64 nothing makes one.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[derive(Clone, Copy, Debug)]
pub(crate) struct HasAvx512f(());

/// One compiled instance of a [`Kernel`]: its kernels and the CPU
/// features it is built for (see the module docs).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Tier {
    /// The target's baseline features: 8 ChaCha20 and 4 Poly1305 lanes.
    Portable,
    /// x86-64 with AVX2: 8 ChaCha20 and 4 Poly1305 lanes.
    Avx2,
    /// x86-64 with AVX-512F: the intrinsic ChaCha20 kernel and 8
    /// Poly1305 lanes.
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
                // AVX-512F, which the assert above checked. That check is
                // also what the `HasAvx512f` made here stands for.
                #[allow(unsafe_code)]
                return unsafe { avx512f(kernel, HasAvx512f(())) };
            }
        }
        kernel.run::<4>(None)
    }
}

/// The AVX2 instance: eight 32-bit lanes of a ChaCha20 row in one `ymm`,
/// four Poly1305 lanes' 64-bit products in another.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<K: Kernel>(kernel: K) -> K::Out {
    kernel.run::<4>(None)
}

/// The AVX-512F instance: ChaCha20 on the intrinsic kernel, which `cpu`
/// unlocks, and eight Poly1305 lanes' 64-bit products in one `zmm`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512f<K: Kernel>(kernel: K, cpu: HasAvx512f) -> K::Out {
    kernel.run::<8>(Some(cpu))
}
