//! Runtime-dispatched SIMD kernels for the online hot paths.
//!
//! The inference stack spends its time in three measured loops: batched
//! `partition_point` bucket searches during range resolution
//! ([`search`]), FNV literal fingerprinting / Bloom double-hashing
//! ([`hash`], which also holds the snapshot file's XXH64), and the min/product reductions of the sweep-line kernel
//! ([`reduce`]). Each kernel here exists in a vector form per supported
//! tier **and** a scalar mirror that replays the vector algorithm's exact
//! lane layout and association order, so every tier produces bit-identical
//! results — the property the 0-underestimate soundness sweep and the
//! cross-build bit-identity tests rely on (see `README.md` in this
//! directory for the dispatch contract and how to add a kernel).
//!
//! The tier is detected once per process ([`tier`]): AVX2 → SSE2 on
//! x86_64, NEON on aarch64, scalar everywhere else, with
//! `SAFEBOUND_FORCE_SCALAR=1` forcing the scalar mirror on any host (CI
//! runs the whole suite under it).

use std::sync::atomic::{AtomicU8, Ordering};

pub mod hash;
pub mod reduce;
pub mod search;

/// The instruction tier every dispatched kernel runs under, selected once
/// at startup. Ordering is meaningless; each tier is a complete,
/// bit-identical implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// Portable scalar mirror (also the forced-override tier).
    Scalar,
    /// x86-64 baseline 128-bit vectors.
    Sse2,
    /// x86-64 256-bit vectors (requires runtime detection).
    Avx2,
    /// AArch64 128-bit vectors (architecturally guaranteed).
    Neon,
}

impl SimdTier {
    /// Stable lower-case name, as reported by the serving `STATS` verb and
    /// recorded in benchmark artifacts (`"avx2"`, `"sse2"`, `"neon"`,
    /// `"scalar"`).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
            SimdTier::Neon => "neon",
        }
    }

    fn to_code(self) -> u8 {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Sse2 => 2,
            SimdTier::Avx2 => 3,
            SimdTier::Neon => 4,
        }
    }

    fn from_code(code: u8) -> Option<SimdTier> {
        match code {
            1 => Some(SimdTier::Scalar),
            2 => Some(SimdTier::Sse2),
            3 => Some(SimdTier::Avx2),
            4 => Some(SimdTier::Neon),
            _ => None,
        }
    }
}

/// Cached detection result (0 = not yet detected).
static TIER: AtomicU8 = AtomicU8::new(0);

/// Test-only override (0 = none). Takes precedence over detection so
/// equivalence suites can force the scalar mirror in-process.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// True when `SAFEBOUND_FORCE_SCALAR` requests the scalar mirror
/// (`1`/`true`/`yes`/`on`, case-insensitive).
fn force_scalar_env() -> bool {
    std::env::var("SAFEBOUND_FORCE_SCALAR").is_ok_and(|v| {
        matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "1" | "true" | "yes" | "on"
        )
    })
}

fn detect() -> SimdTier {
    if force_scalar_env() {
        return SimdTier::Scalar;
    }
    // Under Miri only the scalar mirrors run: vendor intrinsics (gathers
    // especially) are outside the interpreter's supported surface, and
    // the bit-identity contract makes scalar-only coverage equivalent.
    #[cfg(miri)]
    return SimdTier::Scalar;
    #[cfg(not(miri))]
    {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdTier::Avx2;
            }
            // SSE2 is part of the x86-64 baseline.
            return SimdTier::Sse2;
        }
        #[cfg(target_arch = "aarch64")]
        {
            // NEON (ASIMD) is architecturally guaranteed on AArch64.
            return SimdTier::Neon;
        }
        #[allow(unreachable_code)]
        SimdTier::Scalar
    }
}

/// The dispatch tier for this process: detected on first call, then a
/// single relaxed atomic load. `SAFEBOUND_FORCE_SCALAR=1` in the
/// environment pins it to [`SimdTier::Scalar`].
pub fn tier() -> SimdTier {
    if let Some(t) = SimdTier::from_code(OVERRIDE.load(Ordering::Relaxed)) {
        return t;
    }
    if let Some(t) = SimdTier::from_code(TIER.load(Ordering::Relaxed)) {
        return t;
    }
    let t = detect();
    TIER.store(t.to_code(), Ordering::Relaxed);
    t
}

/// Tiers the current host can actually execute (always includes
/// [`SimdTier::Scalar`]); equivalence tests iterate this list against the
/// scalar mirror.
pub fn available_tiers() -> Vec<SimdTier> {
    let mut tiers = vec![SimdTier::Scalar];
    // Miri interprets no vendor intrinsics — see [`detect`]; the
    // equivalence suites degrade to scalar-vs-scalar there (still
    // exercising the dispatch plumbing and the shared scalar mirrors).
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        tiers.push(SimdTier::Sse2);
        if std::arch::is_x86_feature_detected!("avx2") {
            tiers.push(SimdTier::Avx2);
        }
    }
    #[cfg(all(target_arch = "aarch64", not(miri)))]
    tiers.push(SimdTier::Neon);
    tiers
}

/// Test seam: pin (or with `None`, unpin) the dispatch tier, overriding
/// detection and the environment. The bit-identity contract makes this
/// observable only through timing — results never change — but sessions
/// and caches built under one tier remain valid either way.
#[doc(hidden)]
pub fn override_tier(t: Option<SimdTier>) {
    OVERRIDE.store(t.map_or(0, SimdTier::to_code), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_is_stable_and_named() {
        let t = tier();
        assert_eq!(t, tier(), "detection must be cached");
        assert!(matches!(t.name(), "scalar" | "sse2" | "avx2" | "neon"));
    }

    #[test]
    fn available_tiers_include_scalar_and_selected() {
        let avail = available_tiers();
        assert!(avail.contains(&SimdTier::Scalar));
        // The selected tier is runnable unless the environment forced
        // scalar (in which case `tier()` is Scalar, also in the list).
        assert!(avail.contains(&tier()));
    }

    #[test]
    fn override_seam_round_trips() {
        // Serial with respect to other tests in this module only; the
        // override is cleared before returning.
        let detected = tier();
        override_tier(Some(SimdTier::Scalar));
        assert_eq!(tier(), SimdTier::Scalar);
        override_tier(None);
        assert_eq!(tier(), detected);
    }
}
