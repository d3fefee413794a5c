//! Reference checks of the `core::simd` kernels.
//!
//! Each property drives a kernel with adversarial inputs — negative zero,
//! infinities, integers beyond 2^53, empty and degenerate shapes — and
//! compares it with an independent reference: `partition_point` for the
//! batched search, `f64::total_cmp` for the order key, the serial FNV
//! recurrence for the Bloom filter's hash pair, the direct Bloom probe
//! for the pre-hashed one, and the scalar hierarchy walk for the
//! histogram range lookup. The end-to-end check that no bound falls below the exact count
//! is `tests/soundness.rs`'s `workload_soundness_sweep`.

use proptest::prelude::*;
use safebound_core::bloom::BloomFilter;
use safebound_core::conditioning::{build_histogram, JoinCol};
use safebound_core::simd::hash::{fnv1a_pair, fnv1a_seeded};
use safebound_core::simd::search::{batched_upper_bound, int_is_order_exact, order_key};
use safebound_core::symbol::Sym;
use safebound_core::SafeBoundConfig;
use safebound_storage::{Column, DataType, Field, Schema, Table, Value};

proptest! {
    /// Batched multi-row upper bound over a padded key matrix: every row
    /// index must equal `partition_point` clamped to the row's count,
    /// including rows whose probe lands in the `i64::MAX` padding and rows
    /// of count 0.
    #[test]
    fn batched_upper_bound_matches_partition_point(
        rows in proptest::collection::vec(
            proptest::collection::vec(any::<i64>(), 0..12),
            1..9,
        ),
        probe in any::<i64>(),
    ) {
        let stride = rows.iter().map(Vec::len).max().unwrap().max(1);
        let counts: Vec<u32> = rows.iter().map(|r| r.len() as u32).collect();
        let mut keys = Vec::with_capacity(stride * rows.len());
        for r in &rows {
            let mut sorted = r.clone();
            sorted.sort_unstable();
            sorted.resize(stride, i64::MAX);
            keys.extend_from_slice(&sorted);
        }
        let mut got = vec![u32::MAX; rows.len()];
        batched_upper_bound(&keys, stride, &counts, probe, &mut got);
        for (r, (row, &idx)) in rows.iter().zip(&got).enumerate() {
            let mut sorted = row.clone();
            sorted.sort_unstable();
            let reference = sorted.partition_point(|&k| k <= probe) as u32;
            prop_assert_eq!(idx, reference.min(counts[r]), "row {}", r);
        }
    }

    /// The order key embeds `f64` total order and order-exact integers
    /// into one `i64` order (the invariant the batched search keys rely
    /// on). Integers beyond 2^53 that survive the round trip must keep
    /// their order against float boundaries.
    #[test]
    fn order_key_preserves_total_order(
        a in prop_oneof![any::<f64>(), Just(-0.0), Just(0.0)],
        b in prop_oneof![any::<f64>(), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
        i in prop_oneof![any::<i64>(), (1i64 << 53)..i64::MAX],
    ) {
        prop_assume!(!a.is_nan() && !b.is_nan());
        prop_assert_eq!(
            order_key(a).cmp(&order_key(b)),
            a.total_cmp(&b),
            "float keys must mirror total_cmp"
        );
        if int_is_order_exact(i) {
            prop_assert_eq!((i as f64) as i64, i);
            prop_assert_eq!(
                order_key(i as f64).cmp(&order_key(b)),
                (i as f64).total_cmp(&b),
                "order-exact int {} must embed consistently", i
            );
        }
    }

    /// The Bloom filter's two-accumulator FNV pass equals the serial
    /// seeded recurrence per seed.
    #[test]
    fn fnv_pair_matches_serial(
        a in proptest::collection::vec(any::<u8>(), 0..64),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let (ha, hb) = fnv1a_pair(&a, seed_a, seed_b);
        prop_assert_eq!(ha, fnv1a_seeded(&a, seed_a));
        prop_assert_eq!(hb, fnv1a_seeded(&a, seed_b));
    }

    /// The Bloom filter's pre-hashed probe is exactly the direct probe.
    #[test]
    fn bloom_hashed_probe_matches_direct(
        inserted in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..32),
        probes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..32),
    ) {
        let mut bloom = BloomFilter::new(inserted.len().max(1), 10);
        for key in &inserted {
            bloom.insert(key);
        }
        for key in inserted.iter().chain(&probes) {
            let (h1, h2) = BloomFilter::hash_key(key);
            prop_assert_eq!(bloom.contains(key), bloom.contains_hashed(h1, h2));
        }
        for key in &inserted {
            prop_assert!(bloom.contains(key), "no false negatives");
        }
    }

    /// The histogram range lookup (batched search over the key matrix)
    /// equals the scalar hierarchy walk on every probe — mixed
    /// int/float boundaries, negative zero, beyond-2^53 integers, and
    /// inverted ranges included.
    #[test]
    fn histogram_range_group_matches_scalar_walk(
        values in proptest::collection::vec(
            prop_oneof![
                4 => -50i64..50,
                1 => (1i64 << 53)..(1i64 << 53) + 1000,
            ],
            1..120,
        ),
        probes in proptest::collection::vec(
            (
                prop_oneof![
                    3 => (-60i64..60).prop_map(Value::Int),
                    1 => ((1i64 << 53) - 10..(1i64 << 53) + 1010).prop_map(Value::Int),
                    1 => (-60.0f64..60.0).prop_map(Value::Float),
                    1 => Just(Value::Float(-0.0)),
                ],
                prop_oneof![
                    3 => (-60i64..60).prop_map(Value::Int),
                    1 => ((1i64 << 53) - 10..(1i64 << 53) + 1010).prop_map(Value::Int),
                    1 => (-60.0f64..60.0).prop_map(Value::Float),
                ],
            ),
            1..16,
        ),
    ) {
        let n = values.len();
        let fks: Vec<Option<i64>> = (0..n as i64).map(|i| Some(i % 7)).collect();
        let table = Table::new(
            "t",
            Schema::new(vec![
                Field::new("fk", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
            vec![
                Column::from_ints(fks),
                Column::from_ints(values.into_iter().map(Some)),
            ],
        );
        let jc: Vec<JoinCol> = vec![(Sym(0), "fk".to_string())];
        let mut pool = safebound_core::CdsPool::default();
        let Some(hist) = build_histogram(&table, "v", &jc, &SafeBoundConfig::test_small(), &mut pool)
        else {
            return Ok(()); // degenerate column: nothing to compare
        };
        for (lo, hi) in &probes {
            prop_assert_eq!(
                hist.lookup_range_group(lo, hi),
                hist.lookup_range_group_scalar(lo, hi),
                "probe [{:?}, {:?}]", lo, hi
            );
        }
    }
}
