//! Corruption fuzzing of the snapshot file format (PR 10).
//!
//! Property: the loader is total. For **any** mutation of a valid file —
//! flipped bytes, truncation, extension, random garbage — `decode_snapshot`
//! returns either a typed error or a snapshot whose statistics are
//! bit-identical to the original (the mutation was a no-op). Every byte
//! of a format-3 file is covered by exactly one 64-bit XXH64 checksum:
//! the header and section table by the trailer, each section payload by
//! its entry in the section table, whose payloads must tile the body. A
//! real change gets past only by colliding in the checksum that covers
//! it. The loader never panics and never yields statistics that differ
//! from what was saved — the failure mode that would silently void the
//! upper-bound guarantee.

use proptest::prelude::*;
use safebound_core::snapshot_file::{
    decode_snapshot, encode_snapshot, param_fingerprint, save_snapshot,
};
use safebound_core::stats::StatsSnapshot;
use safebound_core::{load_snapshot, SafeBoundBuilder, SafeBoundConfig};
use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};

/// A generated fact/dimension catalog; mirrors the merge-laws generator
/// (ints, floats with NULL/-0.0, strings sharing 3-gram vocabulary) so
/// the round trip covers MCVs, histograms, n-grams, and Bloom bits.
#[derive(Debug, Clone)]
struct Db {
    fact_fk: Vec<i64>,
    fact_attr: Vec<i64>,
    fact_f: Vec<Option<f64>>,
    fact_s: Vec<String>,
    dim_size: i64,
    bloom: bool,
}

fn db_strategy() -> impl Strategy<Value = Db> {
    (2i64..12, 1usize..80, any::<bool>()).prop_flat_map(|(dim_size, fact_size, bloom)| {
        (
            proptest::collection::vec(0..dim_size * 2, fact_size),
            proptest::collection::vec(0i64..6, fact_size),
            proptest::collection::vec(0usize..8, fact_size),
            proptest::collection::vec(0usize..5, fact_size),
            Just(dim_size),
            Just(bloom),
        )
            .prop_map(|(fact_fk, fact_attr, f_idx, s_idx, dim_size, bloom)| {
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
                    bloom,
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
            Column::from_ints((0..db.dim_size).map(|i| Some(i % 4))),
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

fn build_snapshot(db: &Db) -> StatsSnapshot {
    let config = SafeBoundConfig {
        use_bloom_filters: db.bloom,
        ..SafeBoundConfig::test_small()
    };
    SafeBoundBuilder::new(config).build(&build_catalog(db))
}

/// Statistics equality that ignores the (intentionally fresh) build id.
fn same_stats(a: &StatsSnapshot, b: &StatsSnapshot) -> bool {
    a.tables == b.tables
        && a.pool == b.pool
        && a.symbols == b.symbols
        && param_fingerprint(&a.config) == param_fingerprint(&b.config)
        && a.build_time == b.build_time
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Round trip over randomized catalogs: encode → decode must be
    /// bit-identical (modulo the fresh build id).
    #[test]
    fn round_trip_is_lossless(db in db_strategy()) {
        let snap = build_snapshot(&db);
        let bytes = encode_snapshot(&snap).expect("encode");
        let decoded = decode_snapshot(&bytes).expect("decode of a valid image");
        prop_assert!(same_stats(&snap, &decoded), "round trip diverged");
        prop_assert!(decoded.build_id != snap.build_id, "load must mint a fresh id");
        // Re-encoding the decoded snapshot reproduces the same bytes,
        // except the saved build id in the header (offset 12..20) and
        // the trailer checksum that covers it (last 8 bytes).
        let bytes2 = encode_snapshot(&decoded).expect("re-encode");
        prop_assert!(bytes.len() == bytes2.len());
        prop_assert!(
            bytes[20..bytes.len() - 8] == bytes2[20..bytes2.len() - 8],
            "re-encoded sections diverged"
        );
    }

    /// Byte flips anywhere in the image are caught or provably harmless.
    #[test]
    fn byte_flips_never_yield_different_stats(
        db in db_strategy(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..8),
    ) {
        let snap = build_snapshot(&db);
        let bytes = encode_snapshot(&snap).expect("encode");
        let mut corrupt = bytes.clone();
        for (idx, xor) in &flips {
            let i = idx % corrupt.len();
            corrupt[i] ^= xor;
        }
        match decode_snapshot(&corrupt) {
            Err(_) => {} // typed rejection: the common (and desired) case
            Ok(decoded) => {
                // Only reachable when the flips cancelled out exactly.
                prop_assert!(corrupt == bytes, "corrupted image decoded");
                prop_assert!(same_stats(&snap, &decoded));
            }
        }
    }

    /// Truncation to any prefix and extension by any suffix is rejected.
    #[test]
    fn truncation_and_extension_are_rejected(
        db in db_strategy(),
        cut in any::<usize>(),
        tail in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let snap = build_snapshot(&db);
        let bytes = encode_snapshot(&snap).expect("encode");
        let cut = cut % bytes.len();
        prop_assert!(decode_snapshot(&bytes[..cut]).is_err(), "prefix of {cut} bytes loaded");
        let mut extended = bytes.clone();
        extended.extend_from_slice(&tail);
        prop_assert!(decode_snapshot(&extended).is_err(), "extended image loaded");
    }

    /// Random garbage never panics the decoder.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = decode_snapshot(&bytes);
    }

    /// Garbage that starts with valid magic + version (so it reaches the
    /// deeper decoding stages) still never panics.
    #[test]
    fn magic_prefixed_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut image = safebound_core::snapshot_file::MAGIC.to_vec();
        image.extend_from_slice(&safebound_core::snapshot_file::FORMAT_VERSION.to_le_bytes());
        image.extend_from_slice(&bytes);
        let _ = decode_snapshot(&image);
    }
}

/// File-level round trip through the atomic writer (not proptest: one
/// deterministic end-to-end pass through save → load).
#[test]
fn save_then_load_through_the_filesystem() {
    let db = Db {
        fact_fk: (0..40).map(|i| i % 7).collect(),
        fact_attr: (0..40).map(|i| i % 5).collect(),
        fact_f: (0..40).map(|i| Some(i as f64 / 2.0)).collect(),
        fact_s: (0..40).map(|i| format!("str{}", i % 6)).collect(),
        dim_size: 7,
        bloom: true,
    };
    let snap = build_snapshot(&db);
    let path = std::env::temp_dir().join(format!(
        "safebound_snapcorrupt_e2e_{}.snap",
        std::process::id()
    ));
    save_snapshot(&path, &snap).expect("save");
    let loaded = load_snapshot(&path).expect("load");
    assert!(same_stats(&snap, &loaded));
    let _ = std::fs::remove_file(&path);
}
