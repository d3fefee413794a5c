//! Steady-state allocation audit for the online hot path.
//!
//! A counting global allocator wraps the system allocator; after one
//! warm-up evaluation per plan shape, repeated `fdsb_with_scratch` calls
//! must allocate **nothing** — every intermediate lives in the reused
//! [`BoundScratch`] arena. The same guarantee extends end to end: a warm
//! [`BoundSession`] serves repeated query templates (same shape, any
//! literals) through the shape cache and [`CdsScratch`](safebound_core::CdsScratch)
//! pools without a single allocation — predicate resolution (LIKE gram
//! extraction included) and stats assembly too. A shape *miss* at
//! capacity allocates nothing either while its bound is memoized (the
//! claimed slot holds a key and nothing is built), and otherwise only what
//! its plan's structure needs: the last audit counts it against the
//! clone-per-relaxation build it replaced.

use safebound_core::{
    fdsb_with_scratch, BoundScratch, BoundSession, DegreeSequence, RelationBoundStats, SafeBound,
    SafeBoundBuilder, SafeBoundConfig,
};
use safebound_query::{parse_sql, BoundPlan, JoinGraph, Query, RelationRef};
use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per-thread counter: each test thread audits only its own allocations,
// so concurrently running tests (and the harness itself) don't pollute
// the measurement. `try_with` guards against TLS teardown re-entry.
thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: a pure pass-through to the `System` allocator plus a
// thread-local counter bump — layout handling, ownership, and pointer
// validity are exactly `System`'s, and `bump` never allocates or unwinds
// (`try_with` absorbs TLS teardown).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System.alloc` — forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: `layout` is passed through unchanged from our caller,
        // who upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: same contract as `System.dealloc` — forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from our `alloc`, which returned
        // `System`'s pointer unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: same contract as `System.realloc` — forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: arguments forwarded unchanged under the caller's
        // `GlobalAlloc::realloc` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_count() -> usize {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

fn stats_for(plan: &BoundPlan, pairs: &[(&str, Vec<u64>)]) -> RelationBoundStats {
    RelationBoundStats::from_columns(pairs.iter().filter_map(|(col, freqs)| {
        let ds = DegreeSequence::from_frequencies(freqs.clone());
        plan.col_id(col).map(|id| (id, ds.to_cds()))
    }))
}

/// A chain query with an α-step: r(x) ⋈ s(x) ⋈ t(x, y) ⋈ u(y), where two
/// children of t's x-variable force an α intersection.
fn chain_with_alpha() -> (BoundPlan, Vec<RelationBoundStats>) {
    let mut q = Query::new();
    let t = q.add_relation(RelationRef::new("t"));
    let r = q.add_relation(RelationRef::new("r"));
    let s = q.add_relation(RelationRef::new("s"));
    let u = q.add_relation(RelationRef::new("u"));
    q.add_join(t, "x", r, "x");
    q.add_join(t, "x", s, "x");
    q.add_join(t, "y", u, "y");
    let plan = BoundPlan::build(&q, &JoinGraph::new(&q)).unwrap();
    let freqs = |n: usize| -> Vec<u64> { (1..=n as u64).rev().collect() };
    let stats = vec![
        stats_for(&plan, &[("x", freqs(40)), ("y", freqs(25))]),
        stats_for(&plan, &[("x", freqs(30))]),
        stats_for(&plan, &[("x", freqs(35))]),
        stats_for(&plan, &[("y", freqs(20))]),
    ];
    (plan, stats)
}

#[test]
fn steady_state_fdsb_allocates_nothing() {
    let (plan, stats) = chain_with_alpha();
    let mut scratch = BoundScratch::default();

    // Warm-up: populate the arena pools (allocations expected here).
    let warm = fdsb_with_scratch(&plan, &stats, &mut scratch).unwrap();
    let again = fdsb_with_scratch(&plan, &stats, &mut scratch).unwrap();
    assert_eq!(warm, again, "evaluation must be deterministic");
    assert!(warm.is_finite() && warm > 0.0);

    // Steady state: not a single heap allocation across many queries.
    let before = allocation_count();
    let mut acc = 0.0;
    for _ in 0..100 {
        acc += fdsb_with_scratch(&plan, &stats, &mut scratch).unwrap();
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "steady-state fdsb allocated {} times over 100 queries",
        after - before
    );
    assert!((acc - 100.0 * warm).abs() < 1e-6 * acc.abs().max(1.0));
}

#[test]
fn steady_state_holds_across_alternating_plans() {
    // Two different plan shapes sharing one scratch: pools must absorb
    // both without churn once each shape has been seen.
    let (plan_a, stats_a) = chain_with_alpha();

    let mut q = Query::new();
    let a = q.add_relation(RelationRef::new("a"));
    let b = q.add_relation(RelationRef::new("b"));
    q.add_join(a, "x", b, "x");
    let plan_b = BoundPlan::build(&q, &JoinGraph::new(&q)).unwrap();
    let stats_b = vec![
        stats_for(&plan_b, &[("x", vec![5, 4, 3, 2, 1])]),
        stats_for(&plan_b, &[("x", vec![6, 2, 2, 1])]),
    ];

    let mut scratch = BoundScratch::default();
    for _ in 0..3 {
        fdsb_with_scratch(&plan_a, &stats_a, &mut scratch).unwrap();
        fdsb_with_scratch(&plan_b, &stats_b, &mut scratch).unwrap();
    }
    let before = allocation_count();
    for _ in 0..50 {
        fdsb_with_scratch(&plan_a, &stats_a, &mut scratch).unwrap();
        fdsb_with_scratch(&plan_b, &stats_b, &mut scratch).unwrap();
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "alternating plans allocated {}",
        after - before
    );
}

/// A small fact/dimension catalog exercising equality, range, IN, LIKE,
/// and propagated predicates on the end-to-end path.
fn end_to_end_catalog() -> Catalog {
    let mut c = Catalog::new();
    let names = [
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    ];
    let dim = Table::new(
        "dim",
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("w", DataType::Int),
            Field::new("name", DataType::Str),
        ]),
        vec![
            Column::from_ints((0..8).map(Some)),
            Column::from_ints((0..8).map(|i| Some(i % 3))),
            Column::from_strs(names.map(Some)),
        ],
    );
    let mut fks = Vec::new();
    let mut attr = Vec::new();
    for v in 0i64..8 {
        for r in 0..(16 / (v + 1)) {
            fks.push(Some(v));
            attr.push(Some(1990 + (r % 10)));
        }
    }
    let fact = Table::new(
        "fact",
        Schema::new(vec![
            Field::new("fk", DataType::Int),
            Field::new("year", DataType::Int),
        ]),
        vec![Column::from_ints(fks), Column::from_ints(attr)],
    );
    c.add_table(dim);
    c.add_table(fact);
    c.declare_primary_key("dim", "id");
    c.declare_foreign_key("fact", "fk", "dim", "id");
    c
}

#[test]
fn steady_state_cached_bound_allocates_nothing() {
    let catalog = end_to_end_catalog();
    let sb = SafeBound::build(&catalog, SafeBoundConfig::test_small());

    // One repeated template, several literal instantiations (same shape):
    // equality + range + IN + LIKE + a propagated dimension predicate.
    // Parsed up front — parsing itself naturally allocates. The LIKE
    // patterns exercise gram extraction (multi-gram chunks, wildcards,
    // and the propagated dimension-predicate path) from the session's
    // reused slots.
    let queries: Vec<Query> = [
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = 1992 AND d.w = 0",
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = 1995 AND d.w = 2",
        "SELECT COUNT(*) FROM fact f, dim d \
         WHERE f.fk = d.id AND f.year BETWEEN 1991 AND 1994 AND d.w IN (0, 1)",
        "SELECT COUNT(*) FROM fact f, dim d \
         WHERE f.fk = d.id AND f.year BETWEEN 1993 AND 1999 AND d.w IN (1, 2)",
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year < 1990",
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year > 1994",
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND d.name LIKE '%alph%'",
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND d.name LIKE '%rav%'",
        "SELECT COUNT(*) FROM fact f, dim d \
         WHERE f.fk = d.id AND d.name LIKE 'cha%lie' AND f.year = 1991",
    ]
    .iter()
    .map(|sql| parse_sql(sql).unwrap())
    .collect();

    // Literal caching off: this audit pins the *resolution + assembly*
    // path (with it on, repeats collapse into bound-cache hits and the
    // machinery under test would never run — covered separately below).
    let mut session = BoundSession::default().with_literal_capacity(0);
    // Warm-up: build each shape and size the arena pools. Several rounds,
    // because pool rotation can realloc a smaller spare into a bigger
    // role until convergence.
    let warm: Vec<f64> = queries
        .iter()
        .map(|q| sb.bound_with_session(q, &mut session).unwrap())
        .collect();
    for _ in 0..4 {
        for q in &queries {
            sb.bound_with_session(q, &mut session).unwrap();
        }
    }

    // Steady state: not a single heap allocation across many queries.
    let stats_warm = session.stats();
    let before = allocation_count();
    let mut acc = 0.0;
    for _ in 0..50 {
        for q in &queries {
            acc += sb.bound_with_session(q, &mut session).unwrap();
        }
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "steady-state cached bound() allocated {} times over {} queries",
        after - before,
        50 * queries.len()
    );
    let expected: f64 = warm.iter().sum::<f64>() * 50.0;
    assert!((acc - expected).abs() < 1e-6 * expected.abs().max(1.0));
    assert_eq!(
        session.stats().shape_misses as usize,
        session.cached_shapes()
    );
    // Repeated literals were served from the hot-value memos — equality
    // and LIKE alike — and hits on each memo must not have allocated
    // either (covered by the count above). Range literals (BETWEEN / < /
    // >) walk the histogram levels, which allocates nothing either.
    let stats = session.stats();
    assert!(stats.eq_memo_hits > 0);
    assert!(
        stats.like_memo_hits > 0,
        "repeated LIKE patterns must serve from the pattern memo"
    );
    // Steady state ran entirely warm: the last 50 rounds added hits only.
    assert_eq!(stats.like_memo_misses, stats_warm.like_memo_misses);
}

/// Warm `session` on `queries` — one pass to build each shape plus four
/// more, because pool rotation can realloc a smaller spare into a bigger
/// role until buffer sizes converge — then serve `rounds` more passes,
/// asserting that they allocate nothing and reproduce the warm bounds.
fn assert_steady_state_allocates_nothing(
    sb: &SafeBound,
    session: &mut BoundSession,
    queries: &[Query],
    rounds: usize,
    what: &str,
) {
    let warm: Vec<f64> = queries
        .iter()
        .map(|q| sb.bound_with_session(q, session).unwrap())
        .collect();
    for _ in 0..4 {
        for q in queries {
            sb.bound_with_session(q, session).unwrap();
        }
    }
    let before = allocation_count();
    let mut acc = 0.0;
    for _ in 0..rounds {
        for q in queries {
            acc += sb.bound_with_session(q, session).unwrap();
        }
    }
    let allocated = allocation_count() - before;
    assert_eq!(allocated, 0, "{what} allocated {allocated} times");
    let expected: f64 = warm.iter().sum::<f64>() * rounds as f64;
    assert!((acc - expected).abs() < 1e-6 * expected.abs().max(1.0));
}

#[test]
fn steady_state_literal_cache_hits_allocate_nothing() {
    // The default session serves exact literal repeats straight from the
    // bound cache; that fast path (staging + fingerprint + verified probe)
    // must be allocation-free too, and bit-identical to the computed path.
    let catalog = end_to_end_catalog();
    let sb = SafeBound::build(&catalog, SafeBoundConfig::test_small());
    let queries: Vec<Query> = [
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = 1992 AND d.w = 0",
        "SELECT COUNT(*) FROM fact f, dim d \
         WHERE f.fk = d.id AND f.year BETWEEN 1991 AND 1994 AND d.w IN (0, 1)",
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND d.name LIKE '%alph%'",
    ]
    .iter()
    .map(|sql| parse_sql(sql).unwrap())
    .collect();

    let mut session = BoundSession::default();
    assert_steady_state_allocates_nothing(&sb, &mut session, &queries, 50, "literal-cache hits");
    let stats = session.stats();
    assert!(stats.lit_bound_hits >= 50 * queries.len() as u64);
}

#[test]
fn steady_state_literal_cache_eviction_churn_allocates_nothing() {
    // A literal cache far smaller than the rotating literal set: every
    // query misses, inserts, and evicts (the clock recycles slots). The
    // churn itself must be allocation-free once entry buffers have grown
    // to the rotation's high-water sizes — string literals included.
    let catalog = end_to_end_catalog();
    let sb = SafeBound::build(&catalog, SafeBoundConfig::test_small());
    let names = [
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    ];
    let mut queries = Vec::new();
    for year in 1990..1998 {
        queries.push(
            parse_sql(&format!(
                "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = {year}"
            ))
            .unwrap(),
        );
    }
    for name in names {
        queries.push(
            parse_sql(&format!(
                "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND d.name = '{name}'"
            ))
            .unwrap(),
        );
    }

    // Capacity 4 ≪ 16 distinct vectors (each producing a bound entry):
    // constant eviction pressure.
    let mut session = BoundSession::default().with_literal_capacity(4);
    assert_steady_state_allocates_nothing(
        &sb,
        &mut session,
        &queries,
        20,
        "literal-cache eviction churn",
    );
    let stats = session.stats();
    assert!(stats.lit_evictions > 0, "churn must actually evict");
    assert!(stats.lit_bound_misses > 0);
}

#[test]
fn steady_state_memo_eviction_churn_allocates_nothing() {
    // Resolve memos far smaller than the rotating literal set: every
    // equality and LIKE literal misses its memo, is memoized, and evicts
    // (the clock recycles slots in place); every range literal walks the
    // histogram. Literal caching is off so every query reaches the memos.
    let catalog = end_to_end_catalog();
    let sb = SafeBound::build(&catalog, SafeBoundConfig::test_small());
    let names = [
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    ];
    let mut queries = Vec::new();
    for i in 0..16 {
        let year = 1985 + i;
        let (lo, hi) = (1990 + i % 7, 1993 + i % 9);
        let gram = &names[i % 8][i / 8..i / 8 + 3];
        for pred in [
            format!("f.year = {year} AND d.w = {}", i % 3),
            format!("f.year BETWEEN {lo} AND {hi}"),
            format!("d.name LIKE '%{gram}%'"),
        ] {
            queries.push(
                parse_sql(&format!(
                    "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND {pred}"
                ))
                .unwrap(),
            );
        }
    }

    // Capacity 4 ≪ 16 distinct literals per kind: constant eviction
    // pressure on both memos.
    let mut session = BoundSession::default()
        .with_literal_capacity(0)
        .with_memo_capacities(4, 4);
    assert_steady_state_allocates_nothing(&sb, &mut session, &queries, 20, "memo eviction churn");
    let stats = session.stats();
    assert!(stats.eq_memo_evictions > 0, "equality churn must evict");
    assert!(stats.like_memo_evictions > 0, "LIKE churn must evict");
}

#[test]
fn steady_state_parallel_worker_sessions_allocate_nothing() {
    // The serving layout: one shared SafeBound handle (snapshot behind
    // Arc), one private session per worker thread. Each worker's warm
    // path must stay allocation-free — the allocation counter is
    // thread-local, so every thread audits exactly its own traffic.
    let catalog = end_to_end_catalog();
    let sb = SafeBound::build(&catalog, SafeBoundConfig::test_small());
    let queries: Vec<Query> = [
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = 1992 AND d.w = 0",
        "SELECT COUNT(*) FROM fact f, dim d \
         WHERE f.fk = d.id AND f.year BETWEEN 1991 AND 1994 AND d.w IN (0, 1)",
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year > 1994",
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND d.name LIKE '%ang%'",
    ]
    .iter()
    .map(|sql| parse_sql(sql).unwrap())
    .collect();

    std::thread::scope(|scope| {
        for worker in 0..4 {
            let sb = sb.clone();
            let queries = &queries;
            scope.spawn(move || {
                let mut session = BoundSession::default();
                assert_steady_state_allocates_nothing(
                    &sb,
                    &mut session,
                    queries,
                    30,
                    &format!("worker {worker}: warm per-worker session"),
                );
            });
        }
    });
}

/// The six shapes of the two at-capacity audits below: acyclic and cyclic,
/// every predicate kind, one literal instantiation each.
fn rotating_shapes() -> Vec<Query> {
    [
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id",
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = 1992 AND d.w = 0",
        "SELECT COUNT(*) FROM fact f, dim d \
         WHERE f.fk = d.id AND f.year BETWEEN 1991 AND 1994 AND d.w IN (0, 1)",
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND d.name LIKE '%alph%'",
        "SELECT COUNT(*) FROM fact x, fact y WHERE x.fk = y.fk AND x.year = y.year AND x.year = 1993",
        "SELECT COUNT(*) FROM fact x, fact y, dim d \
         WHERE x.fk = y.fk AND y.fk = d.id AND d.w = 1 AND x.year > 1994",
    ]
    .iter()
    .map(|sql| parse_sql(sql).unwrap())
    .collect()
}

#[test]
fn bound_hit_through_a_key_only_shape_slot_allocates_nothing() {
    // Six shapes rotating through a two-slot shape cache with the literal
    // cache on: every query claims the clock's victim for its key, finds
    // its bound memoized under key ++ literals and returns. Nothing is
    // built after the first round, and nothing allocated: the key is
    // staged in the session's buffer and copied into the victim's.
    let catalog = end_to_end_catalog();
    let sb = SafeBound::build(&catalog, SafeBoundConfig::test_small());
    let shapes = rotating_shapes();
    let mut session = BoundSession::with_shape_capacity(2);
    let rounds = 20;
    assert_steady_state_allocates_nothing(
        &sb,
        &mut session,
        &shapes,
        rounds,
        "bound hits through key-only shape slots",
    );
    let s = session.stats();
    let queries = ((5 + rounds) * shapes.len()) as u64;
    assert_eq!((s.shape_hits, s.shape_misses), (0, queries));
    assert_eq!(s.shape_evictions, queries - 2);
    let computed = shapes.len() as u64;
    assert_eq!(
        (s.lit_bound_hits, s.lit_bound_misses),
        (queries - computed, computed)
    );
}

#[test]
fn shape_miss_at_capacity_allocates_only_what_its_plan_needs() {
    // Six shapes rotating through a two-slot shape cache: every query is
    // a miss that recycles the clock's victim in place. Literal caching is
    // off — so every claimed slot is built at once — and the arenas are
    // warm, so what is counted is the shape build alone: relaxation
    // enumeration, join graph, plan and slot compilation (the key is
    // written into the victim's buffer).
    //
    // With a fresh `Query` clone per relaxation and per exemplar, a
    // `String` per join attribute and a `format!` per propagated leaf, one
    // round of these six misses cost 544 allocations (commit 650f4ce, this
    // very test). Building over borrowed names into the recycled entry
    // must stay at or below half of that. It takes 119 (135 while every
    // entry also kept an exemplar query, predicate trees included); what
    // remains is the join graph's and the enumeration's scratch vectors,
    // each plan's step lists, and the slot trees.
    const PARENT_ALLOCATIONS_PER_ROUND: usize = 544;
    let catalog = end_to_end_catalog();
    let sb = SafeBound::build(&catalog, SafeBoundConfig::test_small());
    let shapes = rotating_shapes();

    let mut session = BoundSession::with_shape_capacity(2).with_literal_capacity(0);
    for _ in 0..5 {
        for q in &shapes {
            sb.bound_with_session(q, &mut session).unwrap();
        }
    }
    let rounds = 20;
    let misses_before = session.stats().shape_misses;
    let before = allocation_count();
    for _ in 0..rounds {
        for q in &shapes {
            sb.bound_with_session(q, &mut session).unwrap();
        }
    }
    let allocated = allocation_count() - before;
    let misses = (session.stats().shape_misses - misses_before) as usize;
    assert_eq!(misses, rounds * shapes.len(), "every query must miss");
    assert_eq!(session.cached_shapes(), 2);
    let per_round = allocated / rounds;
    assert!(
        per_round <= PARENT_ALLOCATIONS_PER_ROUND / 2,
        "{per_round} allocations per round of {} shape misses (parent: \
         {PARENT_ALLOCATIONS_PER_ROUND})",
        shapes.len()
    );
}

/// A fact table of eight integer columns whose first `join_width` are
/// foreign keys into `dim`: every fact-side CDS set carries one polyline
/// per foreign key, while the tables, the filter units (one per column)
/// and the number of stored sets stay the same for every width.
fn fact_with_join_width(join_width: usize) -> Catalog {
    let mut c = Catalog::new();
    let dim = Table::new(
        "dim",
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("w", DataType::Int),
        ]),
        vec![
            Column::from_ints((0..24).map(Some)),
            Column::from_ints((0..24).map(|i| Some(i % 5))),
        ],
    );
    let rows = 240i64;
    let names: Vec<String> = (0..8).map(|i| format!("k{i}")).collect();
    let fact = Table::new(
        "fact",
        Schema::new(names.iter().map(|n| Field::new(n, DataType::Int)).collect()),
        (0..8i64)
            .map(|i| Column::from_ints((0..rows).map(|r| Some((r * (i + 1) + r / (i + 2)) % 24))))
            .collect(),
    );
    c.add_table(dim);
    c.add_table(fact);
    c.declare_primary_key("dim", "id");
    for name in &names[..join_width] {
        c.declare_foreign_key("fact", name, "dim", "id");
    }
    c
}

#[test]
fn snapshot_load_allocations_do_not_grow_with_polylines() {
    // Every stored polyline's knots decode into the snapshot's one knot
    // pool, so a load allocates per table, filter unit and index, never
    // per polyline or per set: doubling every fact-side set's width
    // (twice the polylines, same sets) must leave the count nearly flat.
    // With a knot `Vec` per polyline and an entry `Vec` per set, the
    // count grew by at least one per added polyline.
    use safebound_core::snapshot_file::{decode_snapshot, encode_snapshot};
    let mut config = SafeBoundConfig::test_small();
    config.pk_fk_propagation = false; // keep the unit count fixed
    let load = |join_width: usize| {
        let built = SafeBoundBuilder::new(config.clone()).build(&fact_with_join_width(join_width));
        let bytes = encode_snapshot(&built).unwrap();
        let before = allocation_count();
        let loaded = decode_snapshot(&bytes).unwrap();
        let allocated = allocation_count() - before;
        assert_eq!(loaded.num_sets(), built.num_sets());
        (allocated, loaded.num_sets(), loaded.pool.num_entries())
    };
    let (narrow, narrow_sets, narrow_polylines) = load(3);
    let (wide, wide_sets, wide_polylines) = load(6);
    assert_eq!(narrow_sets, wide_sets, "the fixture must keep its sets");
    assert!(
        wide_polylines >= narrow_polylines * 3 / 2,
        "{narrow_polylines} → {wide_polylines} polylines"
    );
    let grown = wide.saturating_sub(narrow);
    assert!(
        grown * 10 < wide_polylines - narrow_polylines,
        "a load allocated {narrow} → {wide} times for {narrow_polylines} → \
         {wide_polylines} polylines in {wide_sets} sets"
    );
}

#[test]
fn snapshot_load_allocations_do_not_grow_with_bloom_filters() {
    // Every MCV index keeps its per-group Bloom filters in one word
    // buffer, sized exactly on decode, so a load allocates per index,
    // never per filter: keeping every MCV value its own group (many
    // filters) instead of two groups (few) must leave the count nearly
    // flat. With a word `Vec` per filter, the count grew by one per added
    // filter.
    use safebound_core::conditioning::McvIndex;
    use safebound_core::snapshot_file::{decode_snapshot, encode_snapshot};
    use safebound_core::StatsSnapshot;
    fn bloom_filters(snap: &StatsSnapshot) -> usize {
        let names = ["id", "w"]
            .map(String::from)
            .into_iter()
            .chain((0..8).map(|i| format!("k{i}")));
        let mut filters = 0;
        for name in names {
            for t in snap.tables.values() {
                let Some(f) = t.filter(&name) else { continue };
                let ngrams = f.ngrams.as_ref().map(|n| &n.index);
                for index in std::iter::once(&f.mcv.index).chain(ngrams) {
                    if let McvIndex::Bloom(bank) = index {
                        filters += bank.len();
                    }
                }
            }
        }
        filters
    }
    let mut config = SafeBoundConfig::test_small();
    config.pk_fk_propagation = false; // keep the unit count fixed
    config.use_bloom_filters = true;
    let catalog = fact_with_join_width(3);
    let load = |cds_groups: Option<usize>| {
        let built = SafeBoundBuilder::new(SafeBoundConfig {
            cds_groups,
            ..config.clone()
        })
        .build(&catalog);
        let bytes = encode_snapshot(&built).unwrap();
        let before = allocation_count();
        let loaded = decode_snapshot(&bytes).unwrap();
        let allocated = allocation_count() - before;
        assert_eq!(bloom_filters(&loaded), bloom_filters(&built));
        (allocated, bloom_filters(&loaded))
    };
    let (few, few_filters) = load(Some(2));
    let (many, many_filters) = load(None);
    assert!(
        many_filters >= few_filters * 4,
        "{few_filters} → {many_filters} Bloom filters"
    );
    let grown = many.saturating_sub(few);
    assert!(
        grown * 10 < many_filters - few_filters,
        "a load allocated {few} → {many} times for {few_filters} → {many_filters} Bloom filters"
    );
}
