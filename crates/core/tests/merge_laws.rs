//! Merge laws of the partition→merge→finalize pipeline (PR 7).
//!
//! Random catalogs, random partitionings, random merge orders: the merged
//! accumulator must equal the single-scan accumulator field for field, and
//! the finalized statistics of a sharded build must be **bit-identical**
//! to a single-pass build. These are the invariants that make sharded
//! offline builds and incremental delta absorption exact rather than
//! approximate.

use proptest::prelude::*;
use safebound_core::{
    partition_ranges, PartialTableStats, SafeBoundBuilder, SafeBoundConfig, TableScanPlan,
};
use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};

/// A generated fact/dimension catalog with int, float, and string filter
/// columns (floats include negative zero and NULLs to stress the value
/// grouping rules; strings share 3-gram vocabulary).
#[derive(Debug, Clone)]
struct Db {
    fact_fk: Vec<i64>,
    fact_attr: Vec<i64>,
    fact_f: Vec<Option<f64>>,
    fact_s: Vec<String>,
    dim_size: i64,
    dim_attr: Vec<i64>,
}

fn db_strategy() -> impl Strategy<Value = Db> {
    (2i64..16, 1usize..120).prop_flat_map(|(dim_size, fact_size)| {
        (
            proptest::collection::vec(0..dim_size * 2, fact_size), // dangling FKs allowed
            proptest::collection::vec(0i64..6, fact_size),
            proptest::collection::vec(0usize..8, fact_size),
            proptest::collection::vec(0usize..5, fact_size),
            Just(dim_size),
            proptest::collection::vec(0i64..4, dim_size as usize),
        )
            .prop_map(|(fact_fk, fact_attr, f_idx, s_idx, dim_size, dim_attr)| {
                // Negative zero and NULL stress the value-grouping rules.
                const FLOATS: [Option<f64>; 8] = [
                    None,
                    Some(0.0),
                    Some(-0.0),
                    Some(1.5),
                    Some(-2.5),
                    Some(1.0),
                    Some(2.0),
                    Some(3.0),
                ];
                const VOCAB: [&str; 5] = ["dark night", "dark star", "red star", "red", ""];
                Db {
                    fact_fk,
                    fact_attr,
                    fact_f: f_idx.into_iter().map(|i| FLOATS[i]).collect(),
                    fact_s: s_idx.into_iter().map(|i| VOCAB[i].to_string()).collect(),
                    dim_size,
                    dim_attr,
                }
            })
    })
}

fn build_catalog(db: &Db) -> Catalog {
    let mut c = Catalog::new();
    c.add_table(Table::new(
        "dim",
        Schema::new(vec![
            Field::not_null("id", DataType::Int),
            Field::new("w", DataType::Int),
        ]),
        vec![
            Column::from_ints((0..db.dim_size).map(Some)),
            Column::from_ints(db.dim_attr.iter().copied().map(Some)),
        ],
    ));
    c.add_table(Table::new(
        "fact",
        Schema::new(vec![
            Field::new("fk", DataType::Int),
            Field::new("a", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("s", DataType::Str),
        ]),
        vec![
            Column::from_ints(db.fact_fk.iter().copied().map(Some)),
            Column::from_ints(db.fact_attr.iter().copied().map(Some)),
            Column::from_floats(db.fact_f.iter().copied()),
            Column::from_strs(db.fact_s.iter().map(|s| Some(s.as_str()))),
        ],
    ));
    c.declare_primary_key("dim", "id");
    c.declare_foreign_key("fact", "fk", "dim", "id");
    c
}

/// `test_small` with Bloom filters on, so finalize determinism covers the
/// Bloom bit patterns too.
fn config() -> SafeBoundConfig {
    SafeBoundConfig {
        use_bloom_filters: true,
        ..SafeBoundConfig::test_small()
    }
}

/// Deterministic Fisher–Yates driven by a SplitMix64 stream.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// `build(p1 ∪ … ∪ pk)` = `merge(build(p1), …, build(pk))` after
    /// finalize: a sharded build is bit-identical to a single-pass build.
    #[test]
    fn sharded_build_is_bit_identical_to_single_pass(db in db_strategy(), k in 2usize..7) {
        let catalog = build_catalog(&db);
        let builder = SafeBoundBuilder::new(config());
        let single = builder.build(&catalog);
        let sharded = builder.build_partitioned(&catalog, k);
        prop_assert!(single.tables == sharded.tables, "k={k}: finalized tables diverge");
        prop_assert!(single.pool == sharded.pool, "k={k}: statistics pools diverge");
        prop_assert!(single.symbols == sharded.symbols);
    }

    /// The accumulator itself obeys the merge laws: any contiguous
    /// partitioning of the rows, merged in any order, equals one scan of
    /// the whole table.
    #[test]
    fn random_partition_any_merge_order_equals_single_scan(
        db in db_strategy(),
        cuts in proptest::collection::vec(0usize..usize::MAX, 0..6),
        order_seed in 0u64..u64::MAX,
    ) {
        let catalog = build_catalog(&db);
        let cfg = config();
        let table = catalog.table("fact").unwrap();
        let n = table.num_rows();
        let mut points: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
        points.push(0);
        points.push(n);
        points.sort_unstable();
        points.dedup();
        let plan = TableScanPlan::new(&catalog, table, &cfg);
        let mut parts: Vec<PartialTableStats> = points
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| plan.scan(&catalog, w[0]..w[1]))
            .collect();
        if parts.is_empty() {
            parts.push(plan.scan(&catalog, 0..0));
        }
        shuffle(&mut parts, order_seed);
        let mut merged = parts.pop().unwrap();
        for p in parts {
            merged.merge(p);
        }
        let whole = plan.scan(&catalog, 0..n);
        prop_assert!(merged == whole, "merged accumulator diverges from single scan");
    }

    /// `partition_ranges` always yields a disjoint, ordered, exact cover —
    /// the precondition every sharded scan relies on.
    #[test]
    fn partition_ranges_is_an_exact_cover(rows in 0usize..10_000, k in 1usize..64) {
        let ranges = partition_ranges(rows, k);
        prop_assert!(ranges.len() <= k.max(1));
        let mut pos = 0usize;
        for r in &ranges {
            prop_assert!(r.start == pos, "gap or overlap at {pos}");
            prop_assert!(r.end >= r.start);
            pos = r.end;
        }
        prop_assert!(pos == rows);
    }
}
