//! The shape key against its reference: over generated query pairs,
//! `Query::shape_key_into` yields equal bytes exactly when
//! `Query::same_shape` holds, `Query::shape_hash` is the FNV-1a of those
//! bytes, and no key is a proper prefix of another — so a cache may keep
//! the key in place of an exemplar query, and append literal bytes to it.
//!
//! Queries follow the generators of `parse_roundtrip.rs` (relations, then
//! edges, then one predicate tree per relation) and `join_graph_props.rs`
//! (edges pushed directly, self-edges included), over an alphabet built to
//! provoke ambiguous encodings: the empty name, digits, names that are
//! prefixes of each other. Even from a domain this small two independent
//! draws practically never agree, so every query is also paired with an
//! edited copy of itself: one name, index, operator, connective or arity
//! changed, two relations or edges swapped, something appended.

use proptest::prelude::*;
use safebound_query::{CmpOp, JoinEdge, Predicate, Query, RelationRef};
use safebound_storage::Value;

const NAMES: [&str; 6] = ["", "a", "ab", "a1", "1", "b"];
const OPS: [CmpOp; 4] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

fn name() -> impl Strategy<Value = String> {
    (0..NAMES.len()).prop_map(|i| NAMES[i].to_string())
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..3).prop_map(Value::Int),
        name().prop_map(Value::Str),
        Just(Value::Float(0.5)),
    ]
}

fn leaf() -> BoxedStrategy<Predicate> {
    prop_oneof![
        (name(), value()).prop_map(|(c, v)| Predicate::Eq(c, v)),
        (name(), 0usize..4, value()).prop_map(|(c, op, v)| Predicate::Cmp(c, OPS[op], v)),
        (name(), value(), value()).prop_map(|(c, lo, hi)| Predicate::Between(c, lo, hi)),
        (name(), name()).prop_map(|(c, p)| Predicate::Like(c, p)),
        (name(), collection::vec(value(), 0..4)).prop_map(|(c, vs)| Predicate::In(c, vs)),
    ]
    .boxed()
}

/// A predicate tree nesting `And`/`Or` at most `depth` deep; empty and
/// one-child connectives included.
fn tree(depth: u32) -> BoxedStrategy<Predicate> {
    if depth == 0 {
        return leaf();
    }
    prop_oneof![
        3 => leaf(),
        1 => collection::vec(tree(depth - 1), 0..3).prop_map(Predicate::And),
        1 => collection::vec(tree(depth - 1), 0..3).prop_map(Predicate::Or),
    ]
    .boxed()
}

fn query() -> impl Strategy<Value = Query> {
    (1usize..4).prop_flat_map(|n| {
        (
            collection::vec(name(), n),
            collection::vec((0..n, name(), 0..n, name()), 0..4),
            collection::vec((0..n, tree(2)), 0..3),
        )
            .prop_map(|(tables, edges, predicates)| {
                let mut q = Query::new();
                for (i, table) in tables.iter().enumerate() {
                    q.add_relation(RelationRef::aliased(table, &format!("r{i}")));
                }
                q.joins = edges
                    .into_iter()
                    .map(|(left, left_column, right, right_column)| JoinEdge {
                        left,
                        left_column,
                        right,
                        right_column,
                    })
                    .collect();
                for (rel, p) in predicates {
                    if q.predicate_of(rel).is_none() {
                        q.predicates.push((rel, p));
                    }
                }
                q
            })
    })
}

/// Edit one node of a predicate tree, steered by `path`: descend while
/// there are children and the path says so, then change what `kind` names
/// — or only a literal, which must leave the shape alone.
fn edit_tree(p: &mut Predicate, mut path: usize, kind: usize, name: &str) {
    if let Predicate::And(ps) | Predicate::Or(ps) = p {
        if !ps.is_empty() && !path.is_multiple_of(3) {
            let child = (path / 3) % ps.len();
            path /= 3 * ps.len();
            return edit_tree(&mut ps[child], path, kind, name);
        }
    }
    *p = match (std::mem::replace(p, Predicate::And(Vec::new())), kind % 5) {
        // The other connective; one child more; one child fewer.
        (Predicate::And(ps), 0) => Predicate::Or(ps),
        (Predicate::Or(ps), 0) => Predicate::And(ps),
        (Predicate::And(mut ps), 1) | (Predicate::Or(mut ps), 1) => {
            ps.push(Predicate::Eq(name.to_string(), Value::Int(0)));
            Predicate::And(ps)
        }
        (Predicate::And(mut ps), _) | (Predicate::Or(mut ps), _) => {
            ps.pop();
            Predicate::And(ps)
        }
        // Another column; another operator; another leaf kind; literals
        // and `IN` arity only.
        (Predicate::Eq(_, v), 0) => Predicate::Eq(name.to_string(), v),
        (Predicate::Cmp(_, op, v), 0) => Predicate::Cmp(name.to_string(), op, v),
        (Predicate::Between(_, lo, hi), 0) => Predicate::Between(name.to_string(), lo, hi),
        (Predicate::Like(_, pat), 0) => Predicate::Like(name.to_string(), pat),
        (Predicate::In(_, vs), 0) => Predicate::In(name.to_string(), vs),
        (Predicate::Cmp(c, _, v), 1) => Predicate::Cmp(c, OPS[path % 4], v),
        (Predicate::Eq(c, v), 2) => Predicate::In(c, vec![v]),
        (Predicate::In(c, _), 2) => Predicate::Like(c, name.to_string()),
        (Predicate::Like(c, pat), 2) => Predicate::Eq(c, Value::Str(pat)),
        (Predicate::Between(c, lo, _), 2) => Predicate::Cmp(c, CmpOp::Ge, lo),
        (Predicate::Eq(c, _), _) => Predicate::Eq(c, Value::Str(name.to_string())),
        (Predicate::Cmp(c, op, _), _) => Predicate::Cmp(c, op, Value::Int(path as i64)),
        (Predicate::Between(c, lo, _), _) => Predicate::Between(c, lo, Value::Float(1.5)),
        (Predicate::Like(c, _), _) => Predicate::Like(c, name.to_string()),
        (Predicate::In(c, mut vs), _) => {
            vs.push(Value::Int(7));
            Predicate::In(c, vs)
        }
    };
}

/// A copy of `q` with one thing changed; `pick` selects what and where.
fn edited(q: &Query, pick: (usize, usize, usize, String)) -> Query {
    let (what, i, j, name) = pick;
    let mut q = q.clone();
    let (n, m, k) = (q.relations.len(), q.joins.len(), q.predicates.len());
    match what % 10 {
        // Aliases are not part of the shape.
        0 => q.relations[i % n].alias = name,
        1 => q.relations[i % n].table = name,
        2 => q.relations.swap(i % n, j % n),
        3 if m > 0 => q.joins.swap(i % m, j % m),
        4 if m > 0 => {
            let e = &mut q.joins[i % m];
            *[&mut e.left_column, &mut e.right_column][j % 2] = name;
        }
        5 if m > 0 => {
            let e = &mut q.joins[i % m];
            *[&mut e.left, &mut e.right][j % 2] = j / 2 % n;
        }
        6 if k > 0 => q.predicates[i % k].0 = j % n,
        7 if k > 0 => q.predicates.swap(i % k, j % k),
        8 if k > 0 => edit_tree(&mut q.predicates[i % k].1, j, j / 7, &name),
        // Something appended: the nearest a key comes to a prefix.
        _ => match i % 3 {
            0 => q.relations.push(RelationRef::new(&name)),
            1 => q.joins.push(JoinEdge {
                left: j % n,
                left_column: name.clone(),
                right: j / 2 % n,
                right_column: name,
            }),
            _ => q
                .predicates
                .push((j % n, Predicate::Like(name, String::new()))),
        },
    }
    q
}

fn key(q: &Query) -> Vec<u8> {
    let mut out = Vec::new();
    q.shape_key_into(&mut out);
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn keys_agree_exactly_when_shapes_do(
        a in query(),
        other in query(),
        pick in (0usize..10, 0usize..64, 0usize..1024, name()),
    ) {
        let ka = key(&a);
        prop_assert_eq!(a.shape_hash(), fnv1a(&ka));
        // The key appends, whatever the buffer holds.
        let mut appended = vec![0xff, 0x00];
        a.shape_key_into(&mut appended);
        prop_assert_eq!(&appended[2..], &ka[..]);

        for b in [a.clone(), edited(&a, pick), other] {
            let kb = key(&b);
            let same = a.same_shape(&b);
            prop_assert_eq!(same, b.same_shape(&a));
            prop_assert_eq!(ka == kb, same, "{:?}\nvs {:?}", a, b);
            // Self-delimiting: `ka ++ x == kb ++ y` would make one key a
            // prefix of the other.
            prop_assert!(
                same || !(ka.starts_with(&kb) || kb.starts_with(&ka)),
                "{:?}\nis a prefix of, or prefixed by, {:?}", a, b
            );
        }
    }
}

/// The distribution the property relies on, pinned: edited copies land
/// on both sides of `same_shape`.
#[test]
fn edited_copies_cover_both_outcomes() {
    let mut rng = proptest::TestRng::from_name("edited_copies_cover_both_outcomes");
    let picks = (0usize..10, 0usize..64, 0usize..1024, name());
    let mut same = 0;
    for _ in 0..2048 {
        let a = query().generate(&mut rng);
        same += usize::from(a.same_shape(&edited(&a, picks.generate(&mut rng))));
    }
    assert!(
        (400..1600).contains(&same),
        "{same} of 2048 edits keep the shape"
    );
}

#[test]
fn the_key_is_compact_and_spelled_as_documented() {
    let mut q = Query::new();
    let t = q.add_relation(RelationRef::aliased("title", "t"));
    let mi = q.add_relation(RelationRef::aliased("movie_info", "mi"));
    q.add_join(t, "id", mi, "movie_id");
    q.add_predicate(mi, Predicate::Cmp("x".into(), CmpOp::Gt, Value::Int(7)));
    q.add_predicate(mi, Predicate::In("y".into(), vec![Value::Int(1); 300]));
    assert_eq!(
        key(&q),
        b"\x02title\xffmovie_info\xff\x01\x00id\xff\x01movie_id\xff\
          \x01\x01\x06\x02\x02x\xff\x02\x05y\xff"
    );
    // Counts past 127 take a second byte, nothing else changes.
    let wide = Predicate::And(vec![Predicate::Eq("c".into(), Value::Null); 130]);
    let mut out = Vec::new();
    wide.shape_key_into(&mut out);
    assert_eq!(out[..3], [6, 0x82, 0x01]);
    assert_eq!(out.len(), 3 + 130 * 3);
}
