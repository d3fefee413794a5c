//! Batched branchless bucket searches over histogram boundary arrays.
//!
//! A range predicate walks every histogram level running
//! `partition_point(|b| b <= lo)` on that level's bucket boundaries. The
//! boundaries are `Value`s, but when every boundary **and** the probe are
//! exactly representable as `f64` (see [`order_key`] /
//! [`int_is_order_exact`]), the walk collapses to integer comparisons on a
//! monotone 64-bit **order key** — `f64` bits mapped so that signed `i64`
//! comparison matches `f64::total_cmp`. That allows a **branchless**
//! binary search whose iteration count depends only on the (padded) row
//! width, so every row takes the same number of steps.
//!
//! Rows are padded with `i64::MAX`. A probe can legitimately equal
//! `i64::MAX` (a positive NaN with an all-ones payload), in which case
//! padding compares `<=` and the raw result can overrun the row — callers
//! of the row primitives clamp to the real row length, exactly matching
//! `partition_point`'s `<= len` contract. The kernels are integer-exact,
//! so no association order is involved.

/// Maps `f64` bits to an `i64` whose signed order equals
/// [`f64::total_cmp`]: flip the sign bit's weight for non-negative values
/// and the magnitude bits for negative ones.
#[inline]
pub fn order_key(f: f64) -> i64 {
    let b = f.to_bits() as i64;
    b ^ ((((b >> 63) as u64) >> 1) as i64)
}

/// True when `i` survives an `i64 → f64 → i64` round trip, i.e. `i as
/// f64` is exact. Exact integers map injectively and order-preservingly
/// into the key space, so mixing them with float boundaries keeps the
/// key order identical to the `Value` total order.
#[inline]
pub fn int_is_order_exact(i: i64) -> bool {
    // The f64→i64 cast saturates, which would make `i64::MAX` (not
    // representable: `i64::MAX as f64` rounds up to 2^63) round-trip
    // spuriously — exclude it explicitly.
    i != i64::MAX && (i as f64) as i64 == i
}

/// Branchless upper bound over one key row: the number of leading
/// elements `<= probe`. `row` must be non-empty; the iteration count is a
/// function of `row.len()` alone. The result can reach `row.len()` when
/// the probe dominates the padding — callers clamp to the real element
/// count.
#[inline]
pub fn upper_bound_branchless(row: &[i64], probe: i64) -> usize {
    debug_assert!(!row.is_empty());
    let mut base = 0usize;
    let mut len = row.len();
    while len > 1 {
        let half = len / 2;
        if row[base + half - 1] <= probe {
            base += half;
        }
        len -= half;
    }
    base + usize::from(row[base] <= probe)
}

/// Upper bound of `probe` in each of `rows.len() / stride` rows of a
/// level-major key matrix (each row padded to `stride` with `i64::MAX`),
/// written to `out[..n_rows]` clamped to `counts[r]` (the row's real
/// element count). Rows beyond the counts' coverage are not touched.
#[inline]
pub fn batched_upper_bound(
    keys: &[i64],
    stride: usize,
    counts: &[u32],
    probe: i64,
    out: &mut [u32],
) {
    debug_assert!(stride > 0 && keys.len() == stride * counts.len());
    debug_assert!(out.len() >= counts.len());
    for (r, &count) in counts.iter().enumerate() {
        let row = &keys[r * stride..(r + 1) * stride];
        out[r] = (upper_bound_branchless(row, probe) as u32).min(count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_key_matches_total_cmp() {
        let vals = [
            f64::NEG_INFINITY,
            -1.0e300,
            -2.5,
            -0.0,
            0.0,
            1.0e-300,
            1.0,
            2.5,
            1.0e300,
            f64::INFINITY,
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn int_exactness_gate() {
        assert!(int_is_order_exact(0));
        assert!(int_is_order_exact(-1));
        assert!(int_is_order_exact(1 << 53));
        assert!(!int_is_order_exact((1 << 53) + 1));
        assert!(!int_is_order_exact(i64::MAX));
    }

    #[test]
    fn branchless_matches_partition_point() {
        let row: Vec<i64> = vec![-9, -3, -3, 0, 4, 4, 4, 12, i64::MAX];
        for probe in [-100, -9, -4, -3, 0, 3, 4, 5, 12, 100, i64::MAX] {
            assert_eq!(
                upper_bound_branchless(&row, probe),
                row.partition_point(|&k| k <= probe),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn batched_matches_partition_point() {
        // 6 rows, stride 7, varying real counts padded with i64::MAX.
        let stride = 7usize;
        let counts: Vec<u32> = vec![7, 5, 1, 6, 3, 7];
        let mut keys = Vec::new();
        for (r, &c) in counts.iter().enumerate() {
            for i in 0..stride {
                keys.push(if i < c as usize {
                    (i as i64) * 3 - 5 + r as i64
                } else {
                    i64::MAX
                });
            }
        }
        for probe in [-10, -5, -4, 0, 3, 7, 100, i64::MAX] {
            let mut got = vec![0u32; counts.len()];
            batched_upper_bound(&keys, stride, &counts, probe, &mut got);
            for (r, &c) in counts.iter().enumerate() {
                let row = &keys[r * stride..r * stride + c as usize];
                let expect = row.partition_point(|&k| k <= probe) as u32;
                assert_eq!(got[r], expect, "row {r} probe {probe}");
            }
        }
    }
}
