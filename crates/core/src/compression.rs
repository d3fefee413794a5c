//! Degree-sequence compression (§3.3, §3.4).
//!
//! The centerpiece is [`valid_compress`] — Algorithm 1 (`ValidCompress`)
//! from the paper: a two-pass algorithm (pass 1 computes the exact
//! self-join quantity `SJ = Σ fᵢ²`, pass 2 builds segments) that produces a
//! *valid* compression per Definition 3.3:
//!
//! (a) the compressed `f̂ = ΔF̂` is non-increasing,
//! (b) `F̂` dominates the exact CDS,
//! (c) the cardinality is preserved: `F̂(d) = |R|`.
//!
//! The heuristic: a segment is extended while its contribution to the
//! self-join bound error stays below `c · SJ`, so high-frequency ranks
//! (which drive join bounds) get fine segments and the long tail gets
//! coarse ones.
//!
//! The module also implements the Fig. 9b baselines: equi-depth and
//! exponential segmentations, each in CDS-modeling (valid) and DS-modeling
//! (dominate `f` directly, inflating cardinality — the approach the paper
//! improves on) variants.

use crate::degree_sequence::DegreeSequence;
use crate::piecewise::{PiecewiseConstant, PiecewiseLinear, EPS};

/// Which ranks become segment boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Segmentation {
    /// Algorithm 1: adaptive boundaries with self-join error budget
    /// `c · SJ` per segment. The paper uses `c = 0.01`.
    ValidCompress {
        /// Per-segment relative self-join error budget.
        c: f64,
    },
    /// `k` segments of (approximately) equal cardinality mass.
    EquiDepth {
        /// Number of segments.
        k: usize,
    },
    /// Boundaries at ranks `1, ⌈b⌉, ⌈b²⌉, …` for base `b > 1`.
    Exponential {
        /// Geometric base.
        base: f64,
    },
}

/// Model the **CDS** (the paper's approach, §3.3): returns a valid
/// compression — concave, dominating the exact CDS, cardinality-preserving.
pub fn compress_cds(ds: &DegreeSequence, seg: Segmentation) -> PiecewiseLinear {
    match seg {
        Segmentation::ValidCompress { c } => valid_compress(ds, c),
        Segmentation::EquiDepth { k } => cds_from_boundaries(ds, &equi_depth_bounds(ds, k)),
        Segmentation::Exponential { base } => {
            cds_from_boundaries(ds, &exponential_bounds(ds, base))
        }
    }
}

/// Model the **DS** directly (the pre-SafeBound approach of \[4\]): dominate
/// `f` with a piecewise-constant step function, then integrate. Inflates
/// the relation's cardinality — kept as the Fig. 9b baseline.
pub fn compress_ds(ds: &DegreeSequence, seg: Segmentation) -> PiecewiseLinear {
    let bounds = match seg {
        // For DS-modeling reuse ValidCompress's boundary choice so the
        // comparison isolates CDS- vs DS-modeling (Fig. 9b solid/dashed).
        Segmentation::ValidCompress { c } => boundaries_of(&valid_compress(ds, c), ds),
        Segmentation::EquiDepth { k } => equi_depth_bounds(ds, k),
        Segmentation::Exponential { base } => exponential_bounds(ds, base),
    };
    ds_from_boundaries(ds, &bounds)
}

/// Algorithm 1 (`ValidCompress`). Input: the exact degree sequence and the
/// accuracy parameter `c > 0`. Output: a valid compressed CDS with `k + 1`
/// segments and relative self-join error `≤ c · k` (Theorem 3.4).
pub fn valid_compress(ds: &DegreeSequence, c: f64) -> PiecewiseLinear {
    assert!(c > 0.0, "accuracy parameter must be positive");
    let f = ds.frequencies();
    let d = f.len();
    if d == 0 {
        return PiecewiseLinear::empty();
    }
    let cardinality = ds.cardinality() as f64;
    let sj = ds.self_join(); // pass 1

    // Pass 2: build segments (m_{k-1}, m_k] with slopes a_k.
    let mut knots: Vec<(f64, f64)> = vec![(0.0, 0.0)];
    let mut a_k = f[0] as f64; // current slope
    let mut m_k = 0.0f64; // current right boundary
    let mut y_k = 0.0f64; // F̂ at m_k (the invariant: equals exact F(i))
    let mut eps_k = 0.0f64; // accumulated self-join error in this segment

    for &fi in f {
        let fi = fi as f64;
        // Error contributed by representing rank i (true frequency fi,
        // width fi/a_k at height a_k): a_k²·(fi/a_k) − fi² = a_k·fi − fi².
        eps_k += a_k * fi - fi * fi;
        if eps_k >= c * sj && fi < a_k {
            // Close the current segment and start a new one at slope fi.
            knots.push((m_k, y_k));
            a_k = fi;
            eps_k = 0.0;
        }
        m_k += fi / a_k;
        y_k += fi;
    }
    knots.push((m_k, y_k));
    // Final constant segment (m_k, d] at height |R| (Algorithm 1 line 14).
    debug_assert!((y_k - cardinality).abs() <= 1e-6 * (1.0 + cardinality));
    if (d as f64) > m_k + EPS {
        knots.push((d as f64, cardinality));
    }
    PiecewiseLinear::from_knots(knots)
}

/// Integer rank boundaries `0 = i₀ < i₁ < … < i_k = d` with roughly equal
/// cardinality per bucket.
fn equi_depth_bounds(ds: &DegreeSequence, k: usize) -> Vec<usize> {
    let d = ds.num_distinct();
    if d == 0 {
        return vec![0];
    }
    let k = k.max(1);
    let total = ds.cardinality() as f64;
    let per = total / k as f64;
    let mut bounds = vec![0usize];
    let mut acc = 0.0;
    let mut next = per;
    for (i, &fi) in ds.frequencies().iter().enumerate() {
        acc += fi as f64;
        if acc >= next - EPS && i + 1 < d {
            bounds.push(i + 1);
            while acc >= next - EPS {
                next += per;
            }
        }
    }
    bounds.push(d);
    bounds.dedup();
    bounds
}

/// Boundaries at geometrically growing ranks.
fn exponential_bounds(ds: &DegreeSequence, base: f64) -> Vec<usize> {
    let d = ds.num_distinct();
    if d == 0 {
        return vec![0];
    }
    assert!(base > 1.0, "exponential base must exceed 1");
    let mut bounds = vec![0usize];
    let mut x = 1.0f64;
    loop {
        let r = x.ceil() as usize;
        if r >= d {
            break;
        }
        if *bounds.last().unwrap() != r {
            bounds.push(r);
        }
        x *= base;
    }
    bounds.push(d);
    bounds.dedup();
    bounds
}

/// CDS-modeling for arbitrary integer boundaries: within each segment use
/// slope `f(i_{j-1}+1)` (the max frequency in the segment, since `f` is
/// non-increasing) starting from the running F̂ value, then truncate at
/// `|R|`. Dominates the exact CDS, concave, cardinality-preserving.
fn cds_from_boundaries(ds: &DegreeSequence, bounds: &[usize]) -> PiecewiseLinear {
    let f = ds.frequencies();
    if f.is_empty() {
        return PiecewiseLinear::empty();
    }
    let cardinality = ds.cardinality() as f64;
    let mut knots: Vec<(f64, f64)> = vec![(0.0, 0.0)];
    let mut y = 0.0f64;
    let mut prev_slope = f64::INFINITY;
    for w in bounds.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if hi <= lo {
            continue;
        }
        // Max frequency in (lo, hi] is f[lo] (descending order); clamp so
        // slopes stay non-increasing even after the |R| truncation below.
        let slope = (f[lo] as f64).min(prev_slope);
        prev_slope = slope;
        y += slope * (hi - lo) as f64;
        knots.push((hi as f64, y));
    }
    PiecewiseLinear::from_knots(knots).truncate_at(cardinality)
}

/// DS-modeling: step function at the max frequency per segment, integrated.
/// The endpoint exceeds `|R|` whenever compression is lossy.
fn ds_from_boundaries(ds: &DegreeSequence, bounds: &[usize]) -> PiecewiseLinear {
    let f = ds.frequencies();
    if f.is_empty() {
        return PiecewiseLinear::empty();
    }
    let mut segs: Vec<(f64, f64)> = Vec::new();
    for w in bounds.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if hi <= lo {
            continue;
        }
        segs.push((hi as f64, f[lo] as f64));
    }
    PiecewiseConstant::new(segs).cumulative()
}

/// Recover integer-ish boundaries from a compressed CDS (used to transplant
/// ValidCompress's adaptive boundaries onto DS-modeling for Fig. 9b).
fn boundaries_of(cds: &PiecewiseLinear, ds: &DegreeSequence) -> Vec<usize> {
    let d = ds.num_distinct();
    let mut bounds: Vec<usize> = cds
        .knots()
        .iter()
        .map(|&(x, _)| (x.round() as usize).min(d))
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    if bounds.first() != Some(&0) {
        bounds.insert(0, 0);
    }
    if bounds.last() != Some(&d) {
        bounds.push(d);
    }
    bounds
}

/// Relative self-join error of a compressed CDS against the exact sequence:
/// `∫ (ΔF̂)² / Σ f²` (≥ 1 for any dominating compression; 1 is lossless).
pub fn self_join_ratio(ds: &DegreeSequence, cds: &PiecewiseLinear) -> f64 {
    let exact = ds.self_join();
    if exact == 0.0 {
        return 1.0;
    }
    cds.delta().square_integral() / exact
}

/// Compression ratio: distinct frequencies (lossless segments) divided by
/// compressed segment count — the x-axis of Fig. 9b.
pub fn compression_ratio(ds: &DegreeSequence, cds: &PiecewiseLinear) -> f64 {
    let lossless = ds.to_piecewise().num_segments().max(1) as f64;
    lossless / cds.num_segments().max(1) as f64
}

/// Check Definition 3.3 against an exact sequence: (a) `ΔF̂` non-increasing,
/// (b) `F̂` dominates the exact CDS, (c) cardinality preserved.
pub fn is_valid_compression(ds: &DegreeSequence, cds: &PiecewiseLinear) -> bool {
    let exact = ds.to_cds();
    let card = ds.cardinality() as f64;
    cds.is_concave()
        && cds.dominates(&exact)
        && (cds.endpoint() - card).abs() <= 1e-6 * (1.0 + card)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipfish(n: usize) -> DegreeSequence {
        // Heavy-headed sequence: frequencies n, n/2, n/3, ...
        let freqs: Vec<u64> = (1..=n).map(|i| (n / i).max(1) as u64).collect();
        DegreeSequence::from_frequencies(freqs)
    }

    #[test]
    fn valid_compress_is_valid() {
        for c in [0.001, 0.01, 0.1, 1.0] {
            let ds = zipfish(500);
            let cds = valid_compress(&ds, c);
            assert!(is_valid_compression(&ds, &cds), "c={c}");
        }
    }

    #[test]
    fn valid_compress_key_column_single_segment() {
        let ds = DegreeSequence::from_frequencies(vec![1; 1000]);
        let cds = valid_compress(&ds, 0.01);
        // Keys compress losslessly: one linear piece to (1000, 1000).
        assert_eq!(cds.num_segments(), 1);
        assert_eq!(cds.endpoint(), 1000.0);
        assert_eq!(self_join_ratio(&ds, &cds), 1.0);
    }

    #[test]
    fn valid_compress_tightens_with_smaller_c() {
        let ds = zipfish(2000);
        let loose = valid_compress(&ds, 0.5);
        let tight = valid_compress(&ds, 0.001);
        assert!(tight.num_segments() >= loose.num_segments());
        assert!(self_join_ratio(&ds, &tight) <= self_join_ratio(&ds, &loose) + 1e-9);
    }

    #[test]
    fn paper_c_gives_moderate_segment_count() {
        // §3.4: c = 0.01 yields ~20-30 segments on FK columns.
        let ds = zipfish(100_000);
        let cds = valid_compress(&ds, 0.01);
        assert!(cds.num_segments() >= 4, "got {}", cds.num_segments());
        assert!(cds.num_segments() <= 60, "got {}", cds.num_segments());
    }

    #[test]
    fn equi_depth_cds_is_valid() {
        let ds = zipfish(500);
        for k in [2, 5, 20] {
            let cds = compress_cds(&ds, Segmentation::EquiDepth { k });
            assert!(is_valid_compression(&ds, &cds), "k={k}");
        }
    }

    #[test]
    fn exponential_cds_is_valid() {
        let ds = zipfish(500);
        for base in [1.5, 2.0, 4.0] {
            let cds = compress_cds(&ds, Segmentation::Exponential { base });
            assert!(is_valid_compression(&ds, &cds), "base={base}");
        }
    }

    #[test]
    fn ds_modeling_inflates_cardinality() {
        let ds = zipfish(500);
        let approx = compress_ds(&ds, Segmentation::EquiDepth { k: 5 });
        // Dominates the CDS but overshoots |R| (the §3.3 problem).
        assert!(approx.dominates(&ds.to_cds()));
        assert!(approx.endpoint() > ds.cardinality() as f64 + 1.0);
    }

    #[test]
    fn cds_modeling_beats_ds_modeling_on_self_join() {
        let ds = zipfish(2000);
        for seg in [
            Segmentation::EquiDepth { k: 8 },
            Segmentation::Exponential { base: 2.0 },
            Segmentation::ValidCompress { c: 0.05 },
        ] {
            let via_cds = self_join_ratio(&ds, &compress_cds(&ds, seg));
            let via_ds = self_join_ratio(&ds, &compress_ds(&ds, seg));
            assert!(
                via_cds <= via_ds + 1e-9,
                "CDS-modeling should not lose to DS-modeling for {seg:?}: {via_cds} vs {via_ds}"
            );
        }
    }

    #[test]
    fn self_join_ratio_at_least_one_for_valid() {
        let ds = zipfish(300);
        let cds = valid_compress(&ds, 0.2);
        assert!(self_join_ratio(&ds, &cds) >= 1.0 - 1e-9);
    }

    #[test]
    fn empty_sequence() {
        let ds = DegreeSequence::from_frequencies(vec![]);
        let cds = valid_compress(&ds, 0.01);
        assert_eq!(cds.endpoint(), 0.0);
        assert!(compress_cds(&ds, Segmentation::EquiDepth { k: 4 }).endpoint() == 0.0);
    }

    #[test]
    fn single_value_sequence() {
        let ds = DegreeSequence::from_frequencies(vec![7]);
        let cds = valid_compress(&ds, 0.01);
        assert!(is_valid_compression(&ds, &cds));
        assert_eq!(cds.endpoint(), 7.0);
        assert_eq!(cds.support(), 1.0);
    }

    #[test]
    fn fig1_compression_preserves_cardinality() {
        // Fig. 3: compressing the CDS of Fig. 1 keeps |R| = F(6) = 11.
        let ds = DegreeSequence::from_frequencies(vec![4, 2, 2, 1, 1, 1]);
        let cds = compress_cds(&ds, Segmentation::EquiDepth { k: 2 });
        assert!((cds.eval(6.0) - 11.0).abs() < 1e-9);
        assert!(is_valid_compression(&ds, &cds));
    }

    #[test]
    fn compression_ratio_monotone() {
        let ds = zipfish(2000);
        let fine = compress_cds(&ds, Segmentation::EquiDepth { k: 50 });
        let coarse = compress_cds(&ds, Segmentation::EquiDepth { k: 3 });
        assert!(compression_ratio(&ds, &coarse) > compression_ratio(&ds, &fine));
    }
}
