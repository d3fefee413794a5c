//! Property test for the literal cache and the min over relaxations:
//! random query batches with **overlapping literal vectors** served
//! through one warm session (literal cache on) must produce bounds
//! **bit-identical** to the uncached reference —
//! the per-relaxation kernel inputs of [`SafeBound::bound_inputs`],
//! evaluated independently and min-folded — including across a mid-batch
//! [`SafeBound::swap_stats`] hot swap.
//!
//! Overlap is the point: literal pools are tiny, so batches are dense in
//! exact repeats (bound-cache hits), partial repeats (memo hits for the
//! repeated literals), and fresh vectors (full resolution), interleaved
//! across acyclic and cyclic (multi-relaxation) templates.

use proptest::prelude::*;
use safebound_core::{fdsb, BoundSession, SafeBound, SafeBoundBuilder, SafeBoundConfig};
use safebound_query::parse_sql;
use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};

/// Fact/dimension catalog with a string column (LIKE/equality), a numeric
/// fact filter (ranges), and a declared PK–FK edge (propagation).
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let names = [
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india",
        "juliet", "kilo", "lima",
    ];
    c.add_table(Table::new(
        "dim",
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("w", DataType::Int),
            Field::new("name", DataType::Str),
        ]),
        vec![
            Column::from_ints((0..12).map(Some)),
            Column::from_ints((0..12).map(|i| Some(i % 4))),
            Column::from_strs(names.map(Some)),
        ],
    ));
    let mut fk = Vec::new();
    let mut year = Vec::new();
    for v in 0i64..12 {
        for r in 0..(32 / (v + 1)) {
            fk.push(Some(v));
            year.push(Some(1990 + (r % 12)));
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

/// Instantiate template `t` with two literal-pool indices. Templates span
/// equality, range, IN, LIKE, propagated predicates, and a cyclic
/// self-join (several relaxations, each evaluated).
fn instantiate(t: usize, a: usize, b: usize) -> safebound_query::Query {
    let names = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"];
    let year = 1990 + (a % 12) as i64;
    let year2 = year + (b % 4) as i64;
    let w = (b % 4) as i64;
    let name = names[a % names.len()];
    let sql = match t % 6 {
        0 => format!("SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = {year}"),
        1 => format!(
            "SELECT COUNT(*) FROM fact f, dim d \
             WHERE f.fk = d.id AND f.year BETWEEN {year} AND {year2} AND d.w = {w}"
        ),
        2 => format!(
            "SELECT COUNT(*) FROM fact f, dim d \
             WHERE f.fk = d.id AND d.name = '{name}' AND f.year >= {year}"
        ),
        3 => format!(
            "SELECT COUNT(*) FROM fact f, dim d \
             WHERE f.fk = d.id AND d.name LIKE '%{}%' AND d.w IN ({w}, {})",
            &name[..3],
            (w + 1) % 4
        ),
        // Cyclic: two fact aliases closed over fk and year — min over
        // spanning-tree relaxations.
        4 => format!(
            "SELECT COUNT(*) FROM fact x, fact y \
             WHERE x.fk = y.fk AND x.year = y.year AND x.year = {year}"
        ),
        _ => format!(
            "SELECT COUNT(*) FROM fact x, fact y, dim d \
             WHERE x.fk = y.fk AND x.year = y.year AND y.fk = d.id AND d.w = {w}"
        ),
    };
    parse_sql(&sql).expect("template SQL parses")
}

/// The uncached reference: independent per-relaxation kernel
/// inputs, each evaluated with the allocating [`fdsb`], min-folded.
fn oracle(sb: &SafeBound, q: &safebound_query::Query) -> f64 {
    let inputs = sb.bound_inputs(q).expect("workload resolves");
    assert!(!inputs.is_empty(), "templates always have a relaxation");
    inputs
        .iter()
        .map(|(plan, stats)| fdsb(plan, stats).unwrap())
        .fold(f64::INFINITY, f64::min)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn cached_bounds_match_uncached_bits(
        batch in collection::vec((0usize..6, 0usize..8, 0usize..6), 8..48),
        swap_at_frac in 0usize..100,
    ) {
        let cat = catalog();
        let build_a = SafeBoundBuilder::new(SafeBoundConfig::test_small()).build(&cat);
        let mut cfg_b = SafeBoundConfig::test_small();
        cfg_b.mcv_size = 3; // a genuinely different conditioning
        let build_b = SafeBoundBuilder::new(cfg_b).build(&cat);

        let sb = SafeBound::from_stats(build_a.clone());
        let oracle_a = SafeBound::from_stats(build_a);
        let oracle_b = SafeBound::from_stats(build_b.clone());

        let mut session = BoundSession::default();
        let swap_at = batch.len() * swap_at_frac / 100;
        for (i, &(t, a, b)) in batch.iter().enumerate() {
            if i == swap_at {
                // Mid-run hot swap: the warm session must flush its
                // literal cache and keep matching the new build exactly.
                sb.swap_stats(build_b.clone());
            }
            let q = instantiate(t, a, b);
            let got = sb.bound_with_session(&q, &mut session).unwrap();
            let reference = if i >= swap_at {
                oracle(&oracle_b, &q)
            } else {
                oracle(&oracle_a, &q)
            };
            prop_assert_eq!(
                got.to_bits(),
                reference.to_bits(),
                "query {} (template {}, lits {}/{}): cached {} != reference {}",
                i, t, a, b, got, reference
            );
        }
        // The batch design guarantees overlap: with ≥8 draws from a
        // 6×8×6 space, repeats are common — make sure the cache actually
        // engaged somewhere across the run (not a vacuous pass).
        let stats = session.stats();
        prop_assert!(
            stats.lit_bound_misses + stats.lit_bound_hits > 0,
            "literal cache never consulted"
        );
    }
}
