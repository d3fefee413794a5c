//! Reference checks of the online lookup kernels.
//!
//! Each property drives a kernel with adversarial inputs — negative zero,
//! integers beyond 2^53, mixed int/float probes, inverted ranges, empty
//! keys — and compares it with an independent reference written here: the
//! serial FNV recurrence for the Bloom filter's hash pair, the direct
//! Bloom probe for the pre-hashed one, and a linear scan over every
//! bucket of every level for the histogram range lookup. The end-to-end
//! check that no bound falls below the exact count is
//! `tests/soundness.rs`'s `workload_soundness_sweep`.

use proptest::prelude::*;
use safebound_core::bloom::BloomFilter;
use safebound_core::conditioning::{build_histogram, HistogramStats, JoinCol};
use safebound_core::simd::hash::{fnv1a_pair, fnv1a_seeded};
use safebound_core::symbol::Sym;
use safebound_core::SafeBoundConfig;
use safebound_storage::{Column, DataType, Field, Schema, Table, Value};

proptest! {
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

    /// The histogram range lookup (a `partition_point` walk per level)
    /// equals [`scan_range_group`]'s linear scan on every probe — mixed
    /// int/float probes, negative zero, beyond-2^53 integers, inverted
    /// ranges, and every pair of the hierarchy's own boundaries included.
    #[test]
    fn histogram_range_group_matches_linear_scan(
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
                scan_range_group(&hist, lo, hi),
                "probe [{:?}, {:?}]", lo, hi
            );
        }
        // Every pair of the hierarchy's own boundaries: the probes where a
        // half-open bucket and a level's closed last bucket differ.
        let mut edges: Vec<&Value> = hist.levels.iter().flat_map(|l| &l.bounds).collect();
        edges.sort();
        edges.dedup();
        for &lo in &edges {
            for &hi in &edges {
                prop_assert_eq!(
                    hist.lookup_range_group(lo, hi),
                    scan_range_group(&hist, lo, hi),
                    "boundary probe [{:?}, {:?}]", lo, hi
                );
            }
        }
    }
}

/// The range lookup's specification, written as a scan: the group of the
/// first bucket, levels finest first and buckets in order, whose
/// `[bounds[i], bounds[i+1])` contains both ends of `[lo, hi]` (closed at
/// the top for a level's last bucket). An inverted range is an empty
/// selection and covers nothing.
fn scan_range_group(hist: &HistogramStats, lo: &Value, hi: &Value) -> Option<usize> {
    if hi < lo {
        return None;
    }
    for level in &hist.levels {
        let nb = level.bucket_groups.len();
        for i in 0..nb {
            let upper = &level.bounds[i + 1];
            let below_upper = if i + 1 == nb { hi <= upper } else { hi < upper };
            if level.bounds[i] <= *lo && below_upper {
                return Some(level.bucket_groups[i]);
            }
        }
    }
    None
}
