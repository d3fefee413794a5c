//! Fixed-shape kernels for the online hot paths.
//!
//! Two measured loops live here: FNV literal fingerprinting and Bloom
//! double-hashing ([`hash`], which also holds the snapshot file's XXH64),
//! and the min/product reductions of the sweep-line kernel ([`reduce`]).
//! Every kernel is portable safe Rust. `reduce` documents its lane layout,
//! padding and association order; those decide the bits of every bound,
//! so they change only together with a re-audit of the callers.

// Kernel primitives, submodules included: a panic would answer
// `ERR internal` and cost the serving layer a rebuilt session.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod hash;
pub mod reduce;

/// The kernel tier. There is one: the kernels are portable scalar code.
///
/// This type and [`tier`] exist only because two readers of the tier name
/// are frozen: the repository benchmark's JSON report and the `simd=` key
/// of the serving `STATS` verb. Both always read `"scalar"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// Portable scalar code, the only tier.
    Scalar,
}

impl SimdTier {
    /// Stable lower-case name: always `"scalar"`.
    pub fn name(self) -> &'static str {
        "scalar"
    }
}

/// The kernel tier of this process: always [`SimdTier::Scalar`] (see
/// [`SimdTier`] for why this still exists).
pub fn tier() -> SimdTier {
    SimdTier::Scalar
}
