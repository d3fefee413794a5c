//! Round trip: every `Query` the parser can produce, rendered as SQL in
//! any of the spellings the grammar allows, parses back to itself.
//!
//! The renderer exists for this test only. It is the inverse of the
//! parser on the parser's own image: relations in order, then the join
//! edges in order, then each relation's conjuncts in `predicates` order,
//! which is the order the parser files them in. The `Style` bits choose
//! between spellings that must not matter (keyword case, `AS`, optional
//! parentheses, omitted aliases on a single relation, the final `;`).

use proptest::prelude::*;
use safebound_query::{parse_sql, parse_sql_into, CmpOp, Predicate, Query, RelationRef};
use safebound_storage::Value;
use std::fmt::Write;

/// Spellings the grammar leaves open.
#[derive(Debug, Clone, Copy)]
struct Style {
    lowercase_keywords: bool,
    explicit_as: bool,
    parenthesize: bool,
    bare_columns: bool,
    semicolon: bool,
}

fn keyword(style: Style, kw: &str) -> String {
    if style.lowercase_keywords {
        kw.to_ascii_lowercase()
    } else {
        kw.to_string()
    }
}

fn render_value(v: &Value, out: &mut String) {
    match v {
        Value::Int(n) => write!(out, "{n}").unwrap(),
        Value::Float(f) => {
            // `Display` never uses an exponent and round-trips exactly;
            // the parser needs the point to read a float back.
            let text = format!("{f}");
            out.push_str(&text);
            if !text.contains('.') {
                out.push_str(".0");
            }
        }
        Value::Str(s) => render_string(s, out),
        Value::Null => unreachable!("the grammar has no NULL literal"),
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('\'');
    out.push_str(&s.replace('\'', "''"));
    out.push('\'');
}

fn render_leaf(column: &str, p: &Predicate, style: Style, out: &mut String) {
    let kw = |k| keyword(style, k);
    match p {
        Predicate::Eq(_, v) => {
            write!(out, "{column} = ").unwrap();
            render_value(v, out);
        }
        Predicate::Cmp(_, op, v) => {
            write!(out, "{column} {op} ").unwrap();
            render_value(v, out);
        }
        Predicate::Between(_, lo, hi) => {
            write!(out, "{column} {} ", kw("BETWEEN")).unwrap();
            render_value(lo, out);
            write!(out, " {} ", kw("AND")).unwrap();
            render_value(hi, out);
        }
        Predicate::Like(_, pattern) => {
            write!(out, "{column} {} ", kw("LIKE")).unwrap();
            render_string(pattern, out);
        }
        Predicate::In(_, vs) => {
            write!(out, "{column} {} (", kw("IN")).unwrap();
            for (i, v) in vs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_value(v, out);
            }
            out.push(')');
        }
        Predicate::And(_) | Predicate::Or(_) => unreachable!("not a leaf"),
    }
}

/// One conjunct: a leaf, or an `OR` of leaves.
fn render_conjunct(prefix: &str, p: &Predicate, style: Style, out: &mut String) {
    let leaf = |p: &Predicate, out: &mut String| {
        let column = format!("{prefix}{}", p.columns()[0]);
        if style.parenthesize {
            out.push_str("((");
        }
        render_leaf(&column, p, style, out);
        if style.parenthesize {
            out.push_str("))");
        }
    };
    match p {
        Predicate::Or(parts) => {
            // An OR directly under AND needs no parentheses in this
            // grammar (OR binds tighter), but takes them.
            if style.parenthesize {
                out.push('(');
            }
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    write!(out, " {} ", keyword(style, "OR")).unwrap();
                }
                leaf(part, out);
            }
            if style.parenthesize {
                out.push(')');
            }
        }
        Predicate::And(_) => unreachable!("the parser never nests AND"),
        p => leaf(p, out),
    }
}

fn render(q: &Query, style: Style) -> String {
    let kw = |k| keyword(style, k);
    let mut out = format!("{} {}(*) {} ", kw("SELECT"), kw("COUNT"), kw("FROM"));
    for (i, r) in q.relations.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&r.table);
        if style.explicit_as {
            write!(out, " {} {}", kw("AS"), r.alias).unwrap();
        } else if r.alias != r.table {
            write!(out, " {}", r.alias).unwrap();
        }
    }
    let bare = style.bare_columns && q.relations.len() == 1;
    let prefix = |rel: usize| {
        if bare {
            String::new()
        } else {
            format!("{}.", q.relations[rel].alias)
        }
    };
    let mut conjuncts = Vec::new();
    for j in &q.joins {
        let (l, r) = (prefix(j.left), prefix(j.right));
        conjuncts.push(format!("{l}{} = {r}{}", j.left_column, j.right_column));
    }
    for (rel, p) in &q.predicates {
        let parts = match p {
            Predicate::And(parts) => parts.as_slice(),
            single => std::slice::from_ref(single),
        };
        for part in parts {
            let mut text = String::new();
            render_conjunct(&prefix(*rel), part, style, &mut text);
            conjuncts.push(text);
        }
    }
    if !conjuncts.is_empty() {
        write!(out, " {} ", kw("WHERE")).unwrap();
        out.push_str(&conjuncts.join(&format!(" {} ", kw("AND"))));
    }
    if style.semicolon {
        out.push(';');
    }
    out
}

// --- generators -------------------------------------------------------

/// Identifiers that are not keywords of the grammar.
const NAMES: &[&str] = &[
    "t",
    "mi",
    "title",
    "movie_info",
    "_x",
    "K9",
    "id",
    "movie_id",
    "kind_id",
    "a",
    "b",
    "year",
];

fn name() -> impl Strategy<Value = String> {
    (0..NAMES.len(), 0usize..4).prop_map(|(i, n)| match n {
        0 => NAMES[i].to_string(),
        n => format!("{}_{n}", NAMES[i]),
    })
}

const TEXT_POOL: &[char] = &[
    'a', 'Z', '7', ' ', '\'', '%', '_', '(', ')', ';', '-', '.', ',', '"', '<', '=', 'é', '☕',
    '的',
];

fn text() -> impl Strategy<Value = String> {
    collection::vec(0..TEXT_POOL.len(), 0..8)
        .prop_map(|picks| picks.into_iter().map(|i| TEXT_POOL[i]).collect())
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-1000i64..1000).prop_map(Value::Int),
        any::<f64>().prop_map(|f| Value::Float(if f.is_finite() { f } else { -0.0 })),
        (-1e6..1e6f64).prop_map(Value::Float),
        (-1000i64..1000).prop_map(|n| Value::Float(n as f64)),
        text().prop_map(Value::Str),
    ]
}

fn leaf() -> impl Strategy<Value = Predicate> {
    let op = (0usize..4).prop_map(|i| [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][i]);
    prop_oneof![
        (name(), value()).prop_map(|(c, v)| Predicate::Eq(c, v)),
        (name(), op, value()).prop_map(|(c, op, v)| Predicate::Cmp(c, op, v)),
        (name(), value(), value()).prop_map(|(c, lo, hi)| Predicate::Between(c, lo, hi)),
        (name(), text()).prop_map(|(c, p)| Predicate::Like(c, p)),
        (name(), collection::vec(value(), 1..5)).prop_map(|(c, vs)| Predicate::In(c, vs)),
    ]
}

fn conjunct() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        3 => leaf(),
        1 => collection::vec(leaf(), 2..4).prop_map(Predicate::Or),
    ]
}

fn style() -> impl Strategy<Value = Style> {
    (0u8..32).prop_map(|bits| Style {
        lowercase_keywords: bits & 1 != 0,
        explicit_as: bits & 2 != 0,
        parenthesize: bits & 4 != 0,
        bare_columns: bits & 8 != 0,
        semicolon: bits & 16 != 0,
    })
}

/// A query as the parser builds them: distinct aliases, join edges
/// between two different relations, at most one predicate tree per
/// relation, a top-level `And` only where a relation has two or more
/// conjuncts.
fn query() -> impl Strategy<Value = Query> {
    (1usize..6).prop_flat_map(|n| {
        (
            collection::vec((name(), any::<bool>()), n),
            collection::vec((0..n, 0..n, name(), name()), 0..5),
            collection::vec((0..n, collection::vec(conjunct(), 1..4)), 0..4),
        )
            .prop_map(|(tables, joins, predicates)| {
                let mut q = Query::new();
                for (i, (table, aliased)) in tables.into_iter().enumerate() {
                    // Numbered aliases are distinct from each other and
                    // from every table name, which self-joins need.
                    let alias = if aliased || q.relation_by_alias(&table).is_some() {
                        format!("r{i}")
                    } else {
                        table.clone()
                    };
                    q.add_relation(RelationRef::aliased(&table, &alias));
                }
                for (l, r, lc, rc) in joins {
                    if l != r {
                        q.add_join(l, &lc, r, &rc);
                    }
                }
                for (rel, conjuncts) in predicates {
                    if q.predicate_of(rel).is_none() {
                        for c in conjuncts {
                            q.add_predicate(rel, c);
                        }
                    }
                }
                q
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn rendered_queries_parse_back_to_themselves(q in query(), style in style()) {
        let sql = render(&q, style);
        let parsed = parse_sql(&sql);
        prop_assert!(parsed.is_ok(), "{sql}\n{parsed:?}");
        let parsed = parsed.unwrap();
        prop_assert_eq!(&parsed, &q, "{}", sql);
        // `Value`'s equality folds 1 and 1.0 together; `Debug` does not.
        prop_assert_eq!(format!("{parsed:?}"), format!("{q:?}"), "{}", sql);
    }

    #[test]
    fn rendered_queries_parse_back_into_a_used_target(
        q in query(),
        prior in query(),
        style in style(),
    ) {
        // The target holds another generated query, built by hand: its
        // buffers and capacities are nothing the parser made.
        let sql = render(&q, style);
        let mut target = prior;
        let parsed = parse_sql_into(&sql, &mut target);
        prop_assert!(parsed.is_ok(), "{sql}\n{parsed:?}");
        prop_assert_eq!(format!("{target:?}"), format!("{q:?}"), "{}", sql);
    }
}

#[test]
fn renderer_covers_every_spelling() {
    let q = parse_sql(
        "SELECT COUNT(*) FROM title t, movie_info mi WHERE t.id = mi.movie_id \
         AND t.year > 2000 AND (mi.a = 'it''s' OR mi.a IN (1, 2.5)) AND t.k BETWEEN 1 AND 2",
    )
    .unwrap();
    let plain = Style {
        lowercase_keywords: false,
        explicit_as: false,
        parenthesize: false,
        bare_columns: false,
        semicolon: false,
    };
    assert_eq!(
        render(&q, plain),
        "SELECT COUNT(*) FROM title t, movie_info mi WHERE t.id = mi.movie_id AND t.year > 2000 \
         AND t.k BETWEEN 1 AND 2 AND mi.a = 'it''s' OR mi.a IN (1, 2.5)"
    );
    let dressed = Style {
        lowercase_keywords: true,
        explicit_as: true,
        parenthesize: true,
        bare_columns: true,
        semicolon: true,
    };
    assert_eq!(
        render(&q, dressed),
        "select count(*) from title as t, movie_info as mi where t.id = mi.movie_id \
         and ((t.year > 2000)) and ((t.k between 1 and 2)) \
         and (((mi.a = 'it''s')) or ((mi.a in (1, 2.5))));"
    );
    assert_eq!(parse_sql(&render(&q, plain)).unwrap(), q);
    assert_eq!(parse_sql(&render(&q, dressed)).unwrap(), q);
}
