//! Fixed-tree min / product / weighted-sum reductions for the sweep-line
//! kernel.
//!
//! Floating-point reductions are only bit-stable under a **fixed
//! association order**, so each kernel here defines one lane layout and
//! combine tree, and that tree is part of its contract: reassociating it
//! would move the bits of every bound. Two rules keep it exact:
//!
//! * `min` is *compare-and-select* (`if a < b { a } else { b }`), never
//!   `f64::min`, so `-0.0` ties and NaN propagation resolve one way.
//! * No FMA: multiplies and adds round separately.
//!
//! Padding identities are exact (`min(x, +∞) = x`, `x × 1.0 = x`,
//! `acc + 0.0 = acc` for the finite non-negative inputs the sweep
//! produces), so callers pad fixed-width lane arrays — edges with `+∞`,
//! values with `1.0` — without affecting results.

/// Lane width of [`event_min_prod`] inputs (the sweep's linear-path
/// fan-in cap).
pub const EVENT_LANES: usize = 8;

/// Compare-and-select minimum (`a` wins strict-less ties; NaN in `b`
/// propagates).
#[inline]
fn sel_min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// One sweep event over up to 8 lanes: the minimum of `edges` and the
/// product of `values`, reduced in the fixed tree
/// `min(min(m0,m1),min(m2,m3))` / `(p0·p1)·(p2·p3)` over the half-width
/// pairs `m_l = min(e_l, e_{l+4})`, `p_l = v_l · v_{l+4}`.
///
/// Callers with fewer than 8 live lanes pad `edges` with `+∞` and
/// `values` with `1.0`.
#[inline]
pub fn event_min_prod(edges: &[f64; 8], values: &[f64; 8]) -> (f64, f64) {
    let m = [
        sel_min(edges[0], edges[4]),
        sel_min(edges[1], edges[5]),
        sel_min(edges[2], edges[6]),
        sel_min(edges[3], edges[7]),
    ];
    let p = [
        values[0] * values[4],
        values[1] * values[5],
        values[2] * values[6],
        values[3] * values[7],
    ];
    (
        sel_min(sel_min(m[0], m[1]), sel_min(m[2], m[3])),
        (p[0] * p[1]) * (p[2] * p[3]),
    )
}

/// `∫ f dx` over raw segments `(edge, value)` with implicit start `0.0`:
/// widths are taken against the previous edge. Reduced with four strided
/// lane accumulators over chunks of 4 consecutive segments, combined as
/// `(a0+a1)+(a2+a3)`, with the `len % 4` tail folded in sequentially
/// afterwards.
#[inline]
pub fn weighted_total(segs: &[(f64, f64)]) -> f64 {
    let chunks = segs.len() / 4;
    let mut acc = [0.0f64; 4];
    let mut prev = 0.0f64;
    for chunk in segs[..chunks * 4].chunks_exact(4) {
        acc[0] += (chunk[0].0 - prev) * chunk[0].1;
        acc[1] += (chunk[1].0 - chunk[0].0) * chunk[1].1;
        acc[2] += (chunk[2].0 - chunk[1].0) * chunk[2].1;
        acc[3] += (chunk[3].0 - chunk[2].0) * chunk[3].1;
        prev = chunk[3].0;
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &(edge, value) in &segs[chunks * 4..] {
        total += (edge - prev) * value;
        prev = edge;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_min_prod_padding_identities() {
        // 3 live lanes padded to 8: min over live edges, product over live
        // values.
        let mut edges = [f64::INFINITY; 8];
        let mut values = [1.0f64; 8];
        edges[..3].copy_from_slice(&[4.0, 2.5, 9.0]);
        values[..3].copy_from_slice(&[0.5, 3.0, 2.0]);
        let (e, p) = event_min_prod(&edges, &values);
        assert_eq!(e.to_bits(), 2.5f64.to_bits());
        assert_eq!(p.to_bits(), 3.0f64.to_bits());
    }
}
