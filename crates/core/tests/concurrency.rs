//! Concurrency stress: shared snapshots must be *bit-identical* to the
//! single-threaded path, including across a mid-run statistics hot swap.
//!
//! The contract under test: a [`StatsSnapshot`] is immutable and shared
//! read-only behind an `Arc`; every mutable byte of the online path lives
//! in a per-thread [`BoundSession`]. Therefore N threads hammering one
//! snapshot, each through its own clone of one [`SafeBound`] handle, must
//! produce exactly (to the bit) the f64 bounds the
//! single-threaded estimator produces — any divergence means shared
//! mutable state leaked into the snapshot. [`SafeBound::swap_stats`] must
//! preserve the same guarantee: after a swap every thread converges on
//! the new build's exact results, and *during* racy swaps every returned
//! bound belongs to one of the published builds (queries linearize on a
//! snapshot; there is no torn state).

use safebound_core::{BoundSession, SafeBound, SafeBoundBuilder, SafeBoundConfig, StatsSnapshot};
use safebound_query::{parse_sql, Query};
use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};
use std::sync::Barrier;

/// Fact/dimension catalog exercising equality, range, IN, and propagated
/// predicates plus a cyclic self-join (spanning-tree path).
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(Table::new(
        "dim",
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("w", DataType::Int),
        ]),
        vec![
            Column::from_ints((0..12).map(Some)),
            Column::from_ints((0..12).map(|i| Some(i % 4))),
        ],
    ));
    let mut fk = Vec::new();
    let mut year = Vec::new();
    for v in 0i64..12 {
        for r in 0..(24 / (v + 1)) {
            fk.push(Some(v));
            year.push(Some(1990 + (r % 10)));
        }
    }
    c.add_table(Table::new(
        "fact",
        Schema::new(vec![
            Field::new("fk", DataType::Int),
            Field::new("year", DataType::Int),
        ]),
        vec![Column::from_ints(fk), Column::from_ints(year)],
    ));
    c.declare_primary_key("dim", "id");
    c.declare_foreign_key("fact", "fk", "dim", "id");
    c
}

/// A mixed workload: repeated templates with varying literals (exercising
/// the shape cache and the hot-literal memo), plus distinct shapes.
fn workload() -> Vec<Query> {
    let mut qs = Vec::new();
    for w in 0..4 {
        qs.push(
            parse_sql(&format!(
                "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND d.w = {w}"
            ))
            .unwrap(),
        );
    }
    for y in [1991, 1994, 1998] {
        qs.push(
            parse_sql(&format!(
                "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = {y}"
            ))
            .unwrap(),
        );
        qs.push(
            parse_sql(&format!(
                "SELECT COUNT(*) FROM fact f, dim d \
                 WHERE f.fk = d.id AND f.year BETWEEN {} AND {y} AND d.w IN (0, 2)",
                y - 4
            ))
            .unwrap(),
        );
    }
    // Cyclic: bound = min over spanning-tree relaxations.
    qs.push(
        parse_sql("SELECT COUNT(*) FROM fact a, fact b WHERE a.fk = b.fk AND a.year = b.year")
            .unwrap(),
    );
    qs.push(parse_sql("SELECT COUNT(*) FROM fact").unwrap());
    qs
}

/// Single-threaded reference bits for a snapshot, through a handle of
/// its own.
fn reference_bits(snap: &StatsSnapshot, queries: &[Query]) -> Vec<u64> {
    let sb = SafeBound::from_stats(snap.clone());
    let mut session = BoundSession::default();
    queries
        .iter()
        .map(|q| sb.bound_with_session(q, &mut session).unwrap().to_bits())
        .collect()
}

const THREADS: usize = 4;

#[test]
fn four_threads_sharing_one_snapshot_match_single_thread_bitwise() {
    let cat = catalog();
    let snap = SafeBoundBuilder::new(SafeBoundConfig::test_small()).build(&cat);
    let queries = workload();
    let expect = reference_bits(&snap, &queries);
    let sb = SafeBound::from_stats(snap);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let sb = sb.clone();
            let (queries, expect) = (&queries, &expect);
            scope.spawn(move || {
                let mut session = BoundSession::default();
                for round in 0..5 {
                    for (i, q) in queries.iter().enumerate() {
                        let got = sb.bound_with_session(q, &mut session).unwrap();
                        assert_eq!(
                            got.to_bits(),
                            expect[i],
                            "thread {t} round {round} query {i}: {got} diverged"
                        );
                    }
                }
                // Warm rounds were served from the shape cache, not
                // rebuilt per query.
                let stats = session.stats();
                assert_eq!(stats.shape_misses as usize, session.cached_shapes());
                assert!(stats.shape_hits > stats.shape_misses);
                // Warm rounds repeated every literal vector exactly, so
                // they were also served from the literal bound cache.
                assert!(stats.lit_bound_hits > 0);
            });
        }
    });
}

#[test]
fn hot_swap_mid_run_converges_to_new_build_bitwise() {
    let cat = catalog();
    let cfg_a = SafeBoundConfig::test_small();
    let mut cfg_b = SafeBoundConfig::test_small();
    cfg_b.mcv_size = 2; // coarser conditioning → a genuinely different build
    let sb = SafeBound::build(&cat, cfg_a);
    let build_b = SafeBoundBuilder::new(cfg_b).build(&cat);
    let queries = workload();

    let expect_a = reference_bits(&sb.snapshot(), &queries);
    let expect_b = reference_bits(&build_b, &queries);
    assert_ne!(
        expect_a, expect_b,
        "builds must differ for the test to bite"
    );

    // Workers + the swapping coordinator rendezvous twice: once after the
    // phase-A reads, once after the swap is published.
    let barrier = Barrier::new(THREADS + 1);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let sb = sb.clone();
            let barrier = &barrier;
            let (queries, expect_a, expect_b) = (&queries, &expect_a, &expect_b);
            scope.spawn(move || {
                let mut session = BoundSession::default();
                for (i, q) in queries.iter().enumerate() {
                    let got = sb.bound_with_session(q, &mut session).unwrap();
                    assert_eq!(got.to_bits(), expect_a[i], "thread {t} pre-swap query {i}");
                }
                barrier.wait(); // phase A done everywhere
                barrier.wait(); // swap published
                for (i, q) in queries.iter().enumerate() {
                    let got = sb.bound_with_session(q, &mut session).unwrap();
                    assert_eq!(got.to_bits(), expect_b[i], "thread {t} post-swap query {i}");
                }
                // The warm session flushed exactly once (new build id).
                assert_eq!(session.stats_build_id(), sb.build_id());
            });
        }
        barrier.wait();
        sb.swap_stats(build_b);
        barrier.wait();
    });
}

#[test]
fn racy_swaps_only_ever_serve_published_builds() {
    // No barriers: the coordinator flips A→B→A→… while workers hammer the
    // workload. Every bound must be bit-identical to one of the two
    // builds' references — a query linearizes on whichever snapshot its
    // session resolved, never on torn or mixed statistics.
    let cat = catalog();
    let cfg_a = SafeBoundConfig::test_small();
    let mut cfg_b = SafeBoundConfig::test_small();
    cfg_b.mcv_size = 2;
    let build_a = SafeBoundBuilder::new(cfg_a.clone()).build(&cat);
    let build_b = SafeBoundBuilder::new(cfg_b).build(&cat);
    let queries = workload();
    let expect_a = reference_bits(&build_a, &queries);
    let expect_b = reference_bits(&build_b, &queries);

    let sb = SafeBound::from_stats(build_a.clone());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let sb = sb.clone();
            let (queries, expect_a, expect_b) = (&queries, &expect_a, &expect_b);
            scope.spawn(move || {
                let mut session = BoundSession::default();
                for round in 0..30 {
                    for (i, q) in queries.iter().enumerate() {
                        let got = sb.bound_with_session(q, &mut session).unwrap().to_bits();
                        assert!(
                            got == expect_a[i] || got == expect_b[i],
                            "thread {t} round {round} query {i}: bound matches neither build"
                        );
                    }
                }
            });
        }
        scope.spawn(|| {
            for flip in 0..20 {
                let next = if flip % 2 == 0 {
                    build_b.clone()
                } else {
                    build_a.clone()
                };
                sb.swap_stats(next);
                std::thread::yield_now();
            }
        });
    });
}
