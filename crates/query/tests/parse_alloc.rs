//! Allocation audit for the SQL front end, in the style of
//! `crates/core/tests/zero_alloc.rs`: a counting global allocator wraps
//! the system allocator. Two rules:
//!
//! * Parsing a line into a new query may allocate only what the returned
//!   [`Query`] owns — its three vectors, one `String` per table, alias
//!   and column, one per string literal, the `And`/`Or`/`IN` lists — plus
//!   the reallocations of those vectors as they grow. Nothing for a
//!   character buffer, a token list, an expression tree or a clone.
//! * Re-parsing into a target with `parse_sql_into` allocates nothing
//!   when the line has the shape the target last held and literals no
//!   longer than before, and nothing either once the thread has taken
//!   back the parts of every shape it parses in turn. The exceptions are
//!   the thread's first re-parses, which allocate its stock's shelves,
//!   and a string literal with a doubled quote, which the lexer unescapes
//!   into a new `String`.

use safebound_query::{parse_sql, parse_sql_into, Predicate, Query};
use safebound_storage::Value;
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

/// Heap blocks a value holds: one per `String`/`Vec` with capacity.
fn string_blocks(s: &str) -> usize {
    usize::from(!s.is_empty())
}

fn value_blocks(v: &Value) -> usize {
    match v {
        Value::Str(s) => string_blocks(s),
        _ => 0,
    }
}

fn predicate_blocks(p: &Predicate) -> usize {
    match p {
        Predicate::Eq(c, v) | Predicate::Cmp(c, _, v) => string_blocks(c) + value_blocks(v),
        Predicate::Between(c, lo, hi) => string_blocks(c) + value_blocks(lo) + value_blocks(hi),
        Predicate::Like(c, pattern) => string_blocks(c) + string_blocks(pattern),
        Predicate::In(c, vs) => string_blocks(c) + 1 + vs.iter().map(value_blocks).sum::<usize>(),
        Predicate::And(ps) | Predicate::Or(ps) => {
            1 + ps.iter().map(predicate_blocks).sum::<usize>()
        }
    }
}

fn query_blocks(q: &Query) -> usize {
    let relations: usize = q
        .relations
        .iter()
        .map(|r| string_blocks(&r.table) + string_blocks(&r.alias))
        .sum();
    let joins: usize = q
        .joins
        .iter()
        .map(|j| string_blocks(&j.left_column) + string_blocks(&j.right_column))
        .sum();
    let predicates: usize = q.predicates.iter().map(|(_, p)| predicate_blocks(p)).sum();
    let vectors = [
        q.relations.capacity(),
        q.joins.capacity(),
        q.predicates.capacity(),
    ];
    relations + joins + predicates + vectors.iter().filter(|&&c| c > 0).count()
}

/// Vector growth on top of the blocks the query ends up owning: a list
/// is reallocated when it outgrows its first capacity (the relations of a
/// five-way join, a third conjunct on one relation, a second `IN` value).
/// The lines below need at most 2; how `Vec` grows is the standard
/// library's business, so the bound leaves it a little room.
const GROWTH_SLACK: usize = 4;

/// JOB-light lines (the benchmark's `wire_*` traffic), from one relation
/// to five, with the predicate kinds `job_light_ranges` adds.
const JOB_LIGHT: &[&str] = &[
    "SELECT COUNT(*) FROM title t WHERE t.production_year > 2005",
    "SELECT COUNT(*) FROM movie_companies mc,title t,movie_info_idx mi_idx WHERE t.id=mc.movie_id \
     AND t.id=mi_idx.movie_id AND mi_idx.info_type_id=112 AND mc.company_type_id=2",
    "SELECT COUNT(*) FROM title t,movie_info mi,movie_info_idx mi_idx,movie_keyword mk,\
     movie_companies mc WHERE t.id=mi.movie_id AND t.id=mi_idx.movie_id AND t.id=mk.movie_id \
     AND t.id=mc.movie_id AND t.production_year>2000 AND t.kind_id=1 AND mi.info_type_id=8 \
     AND mi_idx.info_type_id=101",
    "SELECT COUNT(*) FROM title t,cast_info ci WHERE t.id=ci.movie_id \
     AND t.production_year BETWEEN 1990 AND 2005 AND t.kind_id IN (1, 2, 7) AND ci.role_id<=4 \
     AND t.title LIKE '%Dark%'",
    "SELECT COUNT(*) FROM title t,movie_keyword mk WHERE t.id=mk.movie_id \
     AND (t.kind_id = 1 OR t.kind_id = 3) AND t.series_years = '1990''s' AND mk.keyword_id<117",
];

#[test]
fn parsing_allocates_only_what_the_query_owns() {
    for sql in JOB_LIGHT {
        let warm = parse_sql(sql).unwrap();
        let before = allocation_count();
        let q = parse_sql(sql).unwrap();
        let allocated = allocation_count() - before;
        assert_eq!(q, warm);
        let owned = query_blocks(&q);
        assert!(
            allocated <= owned + GROWTH_SLACK,
            "{allocated} allocations for a query owning {owned} blocks: {sql}"
        );
        // The audit would be vacuous if the count were off by a factor.
        assert!(allocated >= owned, "{allocated} < {owned}: {sql}");
    }
}

#[test]
fn a_rejected_line_allocates_only_its_message() {
    // Up to the error: the relation built so far (its vector and two
    // names), the column name, and the message itself.
    let sql = "SELECT COUNT(*) FROM title t WHERE t.production_year >";
    let before = allocation_count();
    let e = parse_sql(sql).unwrap_err();
    let allocated = allocation_count() - before;
    assert_eq!(e.message, "expected literal, found None");
    assert!(allocated <= 3 + 2 + GROWTH_SLACK, "{allocated}");
}

/// The same line with every digit moved on by one (9 wraps to 0): new
/// literals of the same length, on the same shape.
fn fresh_literals(sql: &str, round: u8) -> String {
    sql.chars()
        .map(|c| match c.to_digit(10) {
            Some(d) => char::from(b'0' + ((d as u8 + round) % 10)),
            None => c,
        })
        .collect()
}

/// What the lexer allocates on every parse of `sql`: one unescaped copy
/// per string literal with a doubled quote.
fn lexer_copies(sql: &str) -> usize {
    sql.matches("''").count()
}

// `parse_sql` builds from the same per-thread stock and keeps what it
// takes, so the expected queries are parsed before a measurement starts.

#[test]
fn reparsing_a_known_shape_with_fresh_literals_allocates_nothing() {
    // The thread's stock allocates its shelves on its first re-parses.
    for sql in JOB_LIGHT {
        let mut warm = parse_sql(sql).unwrap();
        parse_sql_into(sql, &mut warm).unwrap();
    }
    for sql in JOB_LIGHT {
        let rounds: Vec<(String, Query)> = (1..4)
            .map(|round| {
                let fresh = fresh_literals(sql, round);
                let want = parse_sql(&fresh).unwrap();
                (fresh, want)
            })
            .collect();
        let mut target = parse_sql(sql).unwrap();
        for (fresh, want) in &rounds {
            let before = allocation_count();
            parse_sql_into(fresh, &mut target).unwrap();
            let allocated = allocation_count() - before;
            assert_eq!(allocated, lexer_copies(sql), "{fresh}");
            assert_eq!(format!("{target:?}"), format!("{want:?}"));
        }
    }
}

#[test]
fn reparsing_mixed_shapes_into_one_target_allocates_nothing_once_warm() {
    // One target takes every line in turn, as a recycled batch slot does:
    // each parse gives back the previous shape's parts and builds from
    // what the thread has stocked.
    let rounds: Vec<Vec<(String, Query)>> = (0..5)
        .map(|round| {
            JOB_LIGHT
                .iter()
                .map(|sql| {
                    let fresh = fresh_literals(sql, round);
                    let want = parse_sql(&fresh).unwrap();
                    (fresh, want)
                })
                .collect()
        })
        .collect();
    let mut target = Query::new();
    for (round, lines) in rounds.iter().enumerate() {
        for ((fresh, want), sql) in lines.iter().zip(JOB_LIGHT) {
            let before = allocation_count();
            parse_sql_into(fresh, &mut target).unwrap();
            let allocated = allocation_count() - before;
            // Two rounds stock the thread with every shape's parts.
            if round >= 2 {
                assert_eq!(allocated, lexer_copies(sql), "round {round}: {fresh}");
            }
            assert_eq!(format!("{target:?}"), format!("{want:?}"));
        }
    }
}
