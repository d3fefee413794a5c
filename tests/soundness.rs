//! The repository's central property: **SafeBound never underestimates**.
//! Random schemas, random skews, random predicates — the bound must
//! dominate the exact count every time (Theorem 3.1 end to end).

use proptest::prelude::*;
use safebound::core::{SafeBound, SafeBoundConfig};
use safebound_exec::exact_count;
use safebound_query::parse_sql;
use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};

/// A generated two-table fact/dimension catalog.
#[derive(Debug, Clone)]
struct Db {
    fact_fk: Vec<i64>,
    fact_attr: Vec<i64>,
    dim_size: i64,
    dim_attr: Vec<i64>,
}

fn db_strategy() -> impl Strategy<Value = Db> {
    (2i64..20, 1usize..200).prop_flat_map(|(dim_size, fact_size)| {
        (
            proptest::collection::vec(0..dim_size * 2, fact_size), // dangling FKs allowed
            proptest::collection::vec(0i64..8, fact_size),
            Just(dim_size),
            proptest::collection::vec(0i64..5, dim_size as usize),
        )
            .prop_map(|(fact_fk, fact_attr, dim_size, dim_attr)| Db {
                fact_fk,
                fact_attr,
                dim_size,
                dim_attr,
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
        ]),
        vec![
            Column::from_ints(db.fact_fk.iter().copied().map(Some)),
            Column::from_ints(db.fact_attr.iter().copied().map(Some)),
        ],
    ));
    c.declare_primary_key("dim", "id");
    c.declare_foreign_key("fact", "fk", "dim", "id");
    c
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn bound_dominates_exact_on_fk_join(db in db_strategy(), a in 0i64..8, w in 0i64..5) {
        let catalog = build_catalog(&db);
        let sb = SafeBound::build(&catalog, SafeBoundConfig::test_small());
        for sql in [
            "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id".to_string(),
            format!("SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.a = {a}"),
            format!("SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND d.w = {w}"),
            format!("SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.a < {a} AND d.w = {w}"),
            "SELECT COUNT(*) FROM fact x, fact y WHERE x.fk = y.fk".to_string(),
        ] {
            let q = parse_sql(&sql).unwrap();
            let truth = exact_count(&catalog, &q).unwrap() as f64;
            let bound = sb.bound(&q).unwrap();
            prop_assert!(
                bound >= truth * (1.0 - 1e-9) - 1e-9,
                "{sql}: bound {bound} < truth {truth}"
            );
        }
    }

    #[test]
    fn bound_dominates_on_self_join_chains(db in db_strategy()) {
        let catalog = build_catalog(&db);
        let sb = SafeBound::build(&catalog, SafeBoundConfig::test_small());
        // Chain fact–dim–fact (dim key in the middle).
        let sql = "SELECT COUNT(*) FROM fact x, dim d, fact y \
                   WHERE x.fk = d.id AND d.id = y.fk";
        let q = parse_sql(sql).unwrap();
        let truth = exact_count(&catalog, &q).unwrap() as f64;
        let bound = sb.bound(&q).unwrap();
        prop_assert!(bound >= truth * (1.0 - 1e-9) - 1e-9, "bound {bound} < truth {truth}");
    }

    #[test]
    fn bound_dominates_with_in_and_or(db in db_strategy(), v1 in 0i64..8, v2 in 0i64..8) {
        let catalog = build_catalog(&db);
        let sb = SafeBound::build(&catalog, SafeBoundConfig::test_small());
        for sql in [
            format!(
                "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.a IN ({v1}, {v2})"
            ),
            format!(
                "SELECT COUNT(*) FROM fact f, dim d \
                 WHERE f.fk = d.id AND (f.a = {v1} OR f.a = {v2})"
            ),
        ] {
            let q = parse_sql(&sql).unwrap();
            let truth = exact_count(&catalog, &q).unwrap() as f64;
            let bound = sb.bound(&q).unwrap();
            prop_assert!(
                bound >= truth * (1.0 - 1e-9) - 1e-9,
                "{sql}: bound {bound} < truth {truth}"
            );
        }
    }
}

/// The committed bounds of the 344 smoke-scale paper queries, one line
/// each: workload, query name, the bound's `to_bits()` in hex, the bound.
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/smoke_bounds.tsv");

/// Compares `got` (the bounds reached through `route`) with the golden
/// file. On a mismatch the regenerated file is written under
/// `CARGO_TARGET_TMPDIR`, so an intended change becomes a reviewed diff
/// of the committed file, and the panic names the first differing lines.
fn check_golden(route: &str, got: &str) {
    let want = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_default();
    if want == got {
        return;
    }
    let out =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke_bounds.{route}.tsv"));
    std::fs::write(&out, got).unwrap();
    let (mut w, mut g) = (want.lines(), got.lines());
    let mut diffs = Vec::new();
    for line in 1.. {
        match (w.next(), g.next()) {
            (None, None) => break,
            (a, b) if a != b => diffs.push(format!(
                "line {line}:\n  golden: {}\n  {route}: {}",
                a.unwrap_or("<end of file>"),
                b.unwrap_or("<end of file>")
            )),
            _ => {}
        }
        if diffs.len() == 5 {
            break;
        }
    }
    panic!(
        "{route} bounds differ from {GOLDEN_PATH} (regenerated file: {}):\n{}",
        out.display(),
        diffs.join("\n")
    );
}

/// PR 7 acceptance sweep: across all four generated workloads (the full
/// 344-query smoke suite), a sharded build (k = 4, partition→merge→
/// finalize) and a delta-refreshed snapshot must be **bit-identical** —
/// statistics and every bound — to a single-pass full rebuild, and the
/// delta-refreshed bounds must never underestimate the mutated catalog's
/// exact counts (checked on a per-workload subset). Along the way, one
/// long-lived default session and one with the LIKE memo off must agree
/// bit for bit on every query: a memo hit replays the resolution it
/// stored. Three routes must match the committed golden file byte for
/// byte: the cold bounds, the long-lived session's, and the min of the
/// kernel over the exposed per-relaxation inputs.
#[test]
fn sharded_and_delta_refreshed_builds_are_bit_identical_across_workloads() {
    use safebound::core::{
        fdsb_with_scratch, BoundScratch, BoundSession, IncrementalBuilder, SafeBoundBuilder,
    };
    use safebound_bench::{build_workloads, experiment_config, ExperimentScale};
    use safebound_datagen::{delete_batch, insert_batch};

    let scale = ExperimentScale::smoke();
    let mut memo_on = BoundSession::default();
    let mut memo_off = BoundSession::default().with_memo_capacities(4096, 0);
    let mut kernel = BoundScratch::default();
    let (mut golden_cold, mut golden_session) = (String::new(), String::new());
    let mut golden_inputs = String::new();
    let mut without_relaxation = 0;
    for w in build_workloads(&scale) {
        let cfg = experiment_config();
        let builder = SafeBoundBuilder::new(cfg.clone());
        let single = builder.build(&w.catalog);
        let sharded = builder.build_partitioned(&w.catalog, 4);
        assert_eq!(
            single.tables, sharded.tables,
            "{}: sharded statistics diverge from single-pass",
            w.name
        );
        assert_eq!(single.pool, sharded.pool, "{}", w.name);
        assert_eq!(single.symbols, sharded.symbols, "{}", w.name);

        // Delta refresh: append resampled rows to the largest table, then
        // delete a slice of them — exercising absorb and rebuild — and
        // compare against a from-scratch build of the mutated catalog.
        let mut inc = IncrementalBuilder::new(w.catalog.clone(), cfg.clone());
        let biggest = w
            .catalog
            .tables()
            .max_by_key(|t| t.num_rows())
            .expect("non-empty catalog")
            .name
            .clone();
        inc.apply(&insert_batch(&w.catalog, &biggest, 32, scale.seed))
            .expect("insert delta applies");
        let refreshed = inc
            .apply(&delete_batch(inc.catalog(), &biggest, 16, scale.seed ^ 1))
            .expect("delete delta applies");
        let full = SafeBoundBuilder::new(cfg).build(inc.catalog());
        assert_eq!(
            refreshed.tables, full.tables,
            "{}: delta-refreshed statistics diverge from full rebuild",
            w.name
        );
        assert_eq!(refreshed.pool, full.pool, "{}", w.name);

        // Bound-level bit-identity across every query in the workload,
        // plus soundness of the delta-refreshed bounds on a subset.
        let sb_single = SafeBound::from_stats(single);
        let sb_sharded = SafeBound::from_stats(sharded);
        let sb_refreshed = SafeBound::from_stats(refreshed);
        let sb_full = SafeBound::from_stats(full);
        for (i, bq) in w.queries.iter().enumerate() {
            let a = sb_single.bound(&bq.query).unwrap();
            let b = sb_sharded.bound(&bq.query).unwrap();
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} / {}: sharded bound diverges ({a} vs {b})",
                w.name,
                bq.name
            );
            let on = sb_single
                .bound_with_session(&bq.query, &mut memo_on)
                .unwrap();
            let off = sb_single
                .bound_with_session(&bq.query, &mut memo_off)
                .unwrap();
            let inputs = sb_single.bound_inputs(&bq.query).unwrap();
            without_relaxation += usize::from(inputs.is_empty());
            let via_inputs = inputs
                .iter()
                .map(|(plan, stats)| fdsb_with_scratch(plan, stats, &mut kernel).unwrap())
                .fold(f64::INFINITY, f64::min);
            for (text, v) in [
                (&mut golden_cold, a),
                (&mut golden_session, on),
                (&mut golden_inputs, via_inputs),
            ] {
                let line = format!("{}\t{}\t{:016x}\t{v}\n", w.name, bq.name, v.to_bits());
                text.push_str(&line);
            }
            assert_eq!(
                on.to_bits(),
                off.to_bits(),
                "{} / {}: the LIKE memo changes the bound ({on} vs {off})",
                w.name,
                bq.name
            );
            let r = sb_refreshed.bound(&bq.query).unwrap();
            let f = sb_full.bound(&bq.query).unwrap();
            assert_eq!(
                r.to_bits(),
                f.to_bits(),
                "{} / {}: delta-refreshed bound diverges ({r} vs {f})",
                w.name,
                bq.name
            );
            if i < 10 {
                let truth = exact_count(inc.catalog(), &bq.query).unwrap() as f64;
                assert!(
                    r >= truth * (1.0 - 1e-9),
                    "{} / {}: refreshed bound {r} underestimates {truth}",
                    w.name,
                    bq.name
                );
            }
        }
    }
    check_golden("cold", &golden_cold);
    check_golden("session", &golden_session);
    // Every smoke query has an acyclic relaxation, so no line needs the
    // cross-product fallback that the inputs cannot show.
    assert_eq!(without_relaxation, 0);
    check_golden("inputs", &golden_inputs);
    let stats = memo_on.stats();
    assert!(
        stats.like_memo_hits > 0,
        "the memo session must replay LIKE resolutions: {stats:?}"
    );
}

/// Deterministic regression sweep over the generated benchmark workloads
/// (tiny scale): SafeBound must never underestimate a single query.
#[test]
fn workload_soundness_sweep() {
    use safebound_bench::{build_workloads, experiment_config, ExperimentScale};
    let mut scale = ExperimentScale::smoke();
    scale.job_light_ranges_take = 10;
    for w in build_workloads(&scale) {
        let sb = SafeBound::build(&w.catalog, experiment_config());
        let queries: Vec<_> = w.queries.iter().take(30).collect();
        for bq in queries {
            let truth = exact_count(&w.catalog, &bq.query).unwrap() as f64;
            let bound = sb.bound(&bq.query).unwrap();
            assert!(
                bound >= truth,
                "{} / {}: bound {bound} < truth {truth}\n{}",
                w.name,
                bq.name,
                bq.sql
            );
        }
    }
}

/// The paper's online path — fresh literals over known shapes — through
/// long-lived sessions: every JOB-light and JOB-LightRanges template with
/// each integer literal re-drawn from a fixed seed, a few thousand lines.
/// Routed by `shape_hash() % 2` through two default sessions (each sees
/// half of the templates), and separately through one session whose
/// literal cache holds 4 bounds (every computed bound evicts another),
/// every bound must be bit-identical to the cold path's.
#[test]
fn fresh_literal_stream_is_bit_identical_to_the_cold_path() {
    use safebound::core::BoundSession;
    use safebound_query::Predicate;
    use safebound_storage::Value;

    /// `|v + d|` for a seeded `d` in `[-8, 8]`: narrow enough that some
    /// lines repeat (bound-cache hits), wide enough that most are fresh.
    fn redraw(p: &mut Predicate, state: &mut u64) {
        let mut next = |v: &mut Value| {
            if let Value::Int(i) = v {
                // splitmix64
                *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                *i = (*i + (z % 17) as i64 - 8).abs();
            }
        };
        match p {
            Predicate::Eq(_, v) | Predicate::Cmp(_, _, v) => next(v),
            Predicate::Between(_, lo, hi) => {
                next(lo);
                next(hi);
            }
            Predicate::In(_, vs) => vs.iter_mut().for_each(next),
            Predicate::Like(..) => {}
            Predicate::And(ps) | Predicate::Or(ps) => {
                ps.iter_mut().for_each(|p| redraw(p, state));
            }
        }
    }

    let seed = 42;
    let catalog = safebound_datagen::imdb_catalog(&safebound_datagen::ImdbScale::tiny(), seed);
    let templates: Vec<_> = safebound_datagen::job_light(seed)
        .into_iter()
        .chain(
            safebound_datagen::job_light_ranges(seed)
                .into_iter()
                .take(30),
        )
        .map(|bq| bq.query)
        .collect();
    let sb = SafeBound::build(&catalog, safebound_bench::experiment_config());
    let mut shards = [BoundSession::default(), BoundSession::default()];
    let mut tiny = BoundSession::default().with_literal_capacity(4);
    let mut state = 0x5EED_u64;
    for line in 0..3000 {
        let mut q = templates[line % templates.len()].clone();
        for (_, p) in &mut q.predicates {
            redraw(p, &mut state);
        }
        let cold = sb.bound(&q).unwrap();
        let shard = &mut shards[(q.shape_hash() % 2) as usize];
        for (label, session) in [("shard", shard), ("capacity 4", &mut tiny)] {
            let got = sb.bound_with_session(&q, session).unwrap();
            assert_eq!(
                got.to_bits(),
                cold.to_bits(),
                "line {line} ({label}): {got} vs cold {cold}"
            );
        }
    }
    let mut stats = shards[0].stats();
    stats.merge(&shards[1].stats());
    assert!(stats.lit_bound_hits > 0 && stats.lit_bound_misses > stats.lit_bound_hits);
    assert!(
        shards.iter().all(|s| s.stats().lit_bound_misses > 0),
        "{stats:?}"
    );
    assert!(tiny.stats().lit_evictions > 0);
    for s in [stats, tiny.stats()] {
        assert_eq!((s.lit_cond_hits, s.lit_cond_misses), (0, 0), "frozen keys");
    }
}

/// A mixed `Int`/`Float` comparison beyond 2^53 is exact in the oracle, the
/// statistics and the literal cache alike. Under a comparison that widened
/// the integer to `f64`, `t.a = 2^53` (a float literal) counted the 150 rows
/// holding `2^53 + 1` while the statistics, keyed by the literal's exact
/// integer, found none of them: a bound below the exact count.
#[test]
fn mixed_int_float_equality_beyond_2_pow_53_is_sound() {
    use safebound::core::BoundSession;
    const TWO53: i64 = 1 << 53;
    let n = 200i64;
    let a: Vec<_> = (0..n)
        .map(|i| Some(if i < 150 { TWO53 + 1 } else { i }))
        .collect();
    let f: Vec<_> = (0..n)
        .map(|i| Some(if i < 150 { TWO53 as f64 } else { i as f64 }))
        .collect();
    let s: Vec<String> = (0..n).map(|i| format!("s{}", i % 7)).collect();
    let mut catalog = Catalog::new();
    catalog.add_table(Table::new(
        "t",
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("k", DataType::Int),
            Field::new("s", DataType::Str),
            Field::new("f", DataType::Float),
        ]),
        vec![
            Column::from_ints(a),
            Column::from_ints((0..n).map(|i| Some(i % 10))),
            Column::from_strs(s.iter().map(|s| Some(s.as_str()))),
            Column::from_floats(f),
        ],
    ));
    catalog.add_table(Table::new(
        "d",
        Schema::new(vec![Field::not_null("id", DataType::Int)]),
        vec![Column::from_ints((0..10).map(Some))],
    ));
    catalog.declare_primary_key("d", "id");
    catalog.declare_foreign_key("t", "k", "d", "id");

    let join = "SELECT COUNT(*) FROM t t, d d WHERE t.k = d.id AND";
    let queries = [
        format!("{join} t.a = 9007199254740992.0"),
        "SELECT COUNT(*) FROM t t WHERE t.a = 9007199254740992.0".to_string(),
        format!("{join} t.a IN (9007199254740992.0, 3)"),
        format!("{join} t.f = 9007199254740993"),
        format!("{join} t.a <= 9007199254740992.0"),
        format!("{join} t.a >= 9007199254740992.0"),
        format!("{join} t.f >= 9007199254740993"),
    ];
    for cfg in [SafeBoundConfig::test_small(), SafeBoundConfig::default()] {
        let sb = SafeBound::build(&catalog, cfg);
        let mut session = BoundSession::default();
        for sql in &queries {
            let q = parse_sql(sql).unwrap();
            let truth = exact_count(&catalog, &q).unwrap() as f64;
            let cold = sb.bound(&q).unwrap();
            assert!(cold >= truth, "{sql}: bound {cold} < truth {truth}");
            for round in 0..2 {
                let warm = sb.bound_with_session(&q, &mut session).unwrap();
                assert!(
                    warm >= truth,
                    "{sql} (round {round}): bound {warm} < truth {truth}"
                );
            }
        }
    }
}
