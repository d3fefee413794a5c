//! Stateful model test for [`BoundSession`]: random interleavings of
//! bounds over a small pool of query shapes and [`SafeBound::swap_stats`]
//! hot swaps, served through one long-lived session whose shape cache is
//! far smaller than the pool (capacities 1, 2 and 7) and whose literal
//! cache is off, far smaller than the literal set (3 bound entries) or the
//! default, must agree bit for bit with the
//! model — a fresh session per query against the build that is current at
//! that point. Whatever the session's five clock caches hold, recycle or
//! flush, it may only ever change *when* work happens, never a bound.
//!
//! The pool is built to provoke cross-shape mix-ups: several shapes over
//! different tables take byte-identical literal vectors, and the same
//! relation under the same predicate appears in several shapes. Literal-
//! cache entries and memo entries are keyed by content and outlive their
//! shape's slot, so a key that left out anything its value depends on —
//! the table, a propagated predicate, the build — would serve another
//! shape's memoized bound or lookup; and a recycled shape slot that kept
//! anything of its previous tenant (its plans before the rebuild) would
//! evaluate the wrong plan.

use proptest::prelude::*;
use safebound_core::{BoundSession, SafeBound, SafeBoundBuilder, SafeBoundConfig};
use safebound_query::{parse_sql, Query};
use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};

/// Two dimensions and a fact table referencing both, all filterable on a
/// small integer column `w`/`year` so one literal fits every shape.
/// `refresh` is the data generation: a later one has more rows in every
/// table, so no bound of the pool survives a swap unchanged.
fn catalog(refresh: i64) -> Catalog {
    let mut c = Catalog::new();
    let dim_rows = 12 + 3 * refresh;
    for (name, modulus) in [("dim_a", 3), ("dim_b", 5)] {
        c.add_table(Table::new(
            name,
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("w", DataType::Int),
            ]),
            vec![
                Column::from_ints((0..dim_rows).map(Some)),
                Column::from_ints((0..dim_rows).map(|i| Some(i % modulus))),
            ],
        ));
    }
    let (mut a, mut b, mut w) = (Vec::new(), Vec::new(), Vec::new());
    for v in 0i64..12 {
        for r in 0..((24 + 12 * refresh) / (v + 1)) {
            a.push(Some(v));
            b.push(Some((v * 7 + r) % 12));
            w.push(Some(r % 4));
        }
    }
    c.add_table(Table::new(
        "fact",
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("w", DataType::Int),
        ]),
        vec![
            Column::from_ints(a),
            Column::from_ints(b),
            Column::from_ints(w),
        ],
    ));
    c.declare_primary_key("dim_a", "id");
    c.declare_primary_key("dim_b", "id");
    c.declare_foreign_key("fact", "a", "dim_a", "id");
    c.declare_foreign_key("fact", "b", "dim_b", "id");
    c
}

/// Shape `s` of the pool instantiated with literal `lit`. Shapes 0–5 all
/// take the one-integer literal vector `[lit]`; 6 is literal-free; 7 and 8
/// are cyclic (several relaxations, so a slot holds several plans).
fn instantiate(s: usize, lit: i64) -> Query {
    let sql = match s % 9 {
        0 => format!("SELECT COUNT(*) FROM dim_a d WHERE d.w = {lit}"),
        1 => format!("SELECT COUNT(*) FROM dim_b d WHERE d.w = {lit}"),
        2 => format!("SELECT COUNT(*) FROM fact f WHERE f.w = {lit}"),
        3 => format!("SELECT COUNT(*) FROM fact f, dim_a d WHERE f.a = d.id AND d.w = {lit}"),
        4 => format!("SELECT COUNT(*) FROM fact f, dim_b d WHERE f.b = d.id AND d.w = {lit}"),
        5 => format!("SELECT COUNT(*) FROM fact f, dim_a d WHERE f.a = d.id AND f.w = {lit}"),
        6 => "SELECT COUNT(*) FROM fact f, dim_a x, dim_b y WHERE f.a = x.id AND f.b = y.id"
            .to_string(),
        7 => format!(
            "SELECT COUNT(*) FROM fact x, fact y \
             WHERE x.a = y.a AND x.b = y.b AND x.w = {lit}"
        ),
        _ => format!(
            "SELECT COUNT(*) FROM fact x, fact y, dim_a d \
             WHERE x.a = y.a AND x.b = y.b AND y.a = d.id AND d.w = {lit}"
        ),
    };
    parse_sql(&sql).expect("pool SQL parses")
}

#[derive(Debug, Clone)]
enum Op {
    Bound { shape: usize, lit: i64 },
    Swap,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        20 => (0usize..9, 0i64..3).prop_map(|(shape, lit)| Op::Bound { shape, lit }),
        1 => Just(Op::Swap),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn long_lived_session_matches_fresh_sessions(ops in collection::vec(op(), 1..120)) {
        let builds = [0, 1].map(|refresh| {
            SafeBoundBuilder::new(SafeBoundConfig::test_small()).build(&catalog(refresh))
        });
        // The model: one handle per build, every bound from a fresh session.
        let models = builds.clone().map(SafeBound::from_stats);

        // The model's answer to every `Bound`, under the build current then.
        let mut current = 0usize;
        let mut wanted = Vec::new();
        for op in &ops {
            match *op {
                Op::Swap => current ^= 1,
                Op::Bound { shape, lit } => {
                    wanted.push(models[current].bound(&instantiate(shape, lit)).unwrap());
                }
            }
        }

        for capacity in [1usize, 2, 7] {
            // `None` keeps the default literal capacity.
            for literal_capacity in [Some(0usize), Some(3), None] {
                let sb = SafeBound::from_stats(builds[0].clone());
                let mut session = BoundSession::with_shape_capacity(capacity);
                if let Some(n) = literal_capacity {
                    session = session.with_literal_capacity(n);
                }
                let (mut current, mut bounds) = (0usize, 0usize);
                for (i, op) in ops.iter().enumerate() {
                    match *op {
                        Op::Swap => {
                            current ^= 1;
                            sb.swap_stats(builds[current].clone());
                        }
                        Op::Bound { shape, lit } => {
                            let q = instantiate(shape, lit);
                            let got = sb.bound_with_session(&q, &mut session).unwrap();
                            let want = wanted[bounds];
                            prop_assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "shape capacity {}, literal capacity {:?}, op {} ({:?}): \
                                 session {} != fresh {}",
                                capacity, literal_capacity, i, op, got, want
                            );
                            bounds += 1;
                        }
                    }
                    prop_assert!(session.cached_shapes() <= capacity);
                    let s = session.stats();
                    prop_assert_eq!(s.shape_hits + s.shape_misses, bounds as u64);
                    prop_assert!(s.shape_evictions <= s.shape_misses);
                }
            }
        }
    }
}

/// What lets the model see a stale entry served across a swap: the two
/// builds disagree on nearly every query of the pool.
#[test]
fn the_refreshed_build_moves_the_pools_bounds() {
    let [before, after] = [0, 1].map(|refresh| {
        let stats = SafeBoundBuilder::new(SafeBoundConfig::test_small()).build(&catalog(refresh));
        SafeBound::from_stats(stats)
    });
    let moved = (0..27)
        .map(|i| instantiate(i / 3, i as i64 % 3))
        .filter(|q| before.bound(q).unwrap().to_bits() != after.bound(q).unwrap().to_bits())
        .count();
    assert!(
        moved >= 24,
        "only {moved} of 27 bounds differ across the swap"
    );
}
