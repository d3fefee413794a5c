//! The query representation.
//!
//! SafeBound works on full conjunctive queries under bag semantics
//! (`SELECT COUNT(*) FROM … WHERE …` with equi-joins), matching §2.1 of the
//! paper. A [`Query`] is a set of relation references, a set of equi-join
//! edges between `(relation, column)` pairs, and per-relation predicate
//! trees built from the five predicate types SafeBound supports: equality,
//! range, LIKE, conjunction, and disjunction (IN is a disjunction of
//! equalities).

use safebound_storage::Value;
use std::fmt;

/// A reference to a base table, possibly under an alias (self-joins need
/// distinct aliases).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationRef {
    /// Base table name in the catalog.
    pub table: String,
    /// Alias used in the query (defaults to the table name).
    pub alias: String,
}

impl RelationRef {
    /// Reference a table under its own name.
    pub fn new(table: &str) -> Self {
        RelationRef {
            table: table.to_string(),
            alias: table.to_string(),
        }
    }

    /// Reference a table under an alias.
    pub fn aliased(table: &str, alias: &str) -> Self {
        RelationRef {
            table: table.to_string(),
            alias: alias.to_string(),
        }
    }
}

/// An equi-join condition `relations[left].left_column =
/// relations[right].right_column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    /// Index into [`Query::relations`].
    pub left: usize,
    /// Column of the left relation.
    pub left_column: String,
    /// Index into [`Query::relations`].
    pub right: usize,
    /// Column of the right relation.
    pub right_column: String,
}

/// Comparison operator for range predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmpOp::Lt => write!(f, "<"),
            CmpOp::Le => write!(f, "<="),
            CmpOp::Gt => write!(f, ">"),
            CmpOp::Ge => write!(f, ">="),
        }
    }
}

/// A predicate over the columns of a single relation.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column = value`
    Eq(String, Value),
    /// `column op value`
    Cmp(String, CmpOp, Value),
    /// `column BETWEEN low AND high` (inclusive).
    Between(String, Value, Value),
    /// `column LIKE pattern` — `%` wildcards only, as in the paper's
    /// substring workloads.
    Like(String, String),
    /// `column IN (v1, …, vk)`, treated as a disjunction of equalities.
    In(String, Vec<Value>),
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
}

impl Predicate {
    /// Every column mentioned by the predicate.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::Eq(c, _)
            | Predicate::Cmp(c, _, _)
            | Predicate::Between(c, _, _)
            | Predicate::Like(c, _)
            | Predicate::In(c, _) => out.push(c),
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
        }
    }

    /// Evaluate against a row accessor (`column name → value`). NULL never
    /// satisfies any comparison (SQL three-valued logic collapsed to
    /// false).
    pub fn eval<F: Fn(&str) -> Value>(&self, get: &F) -> bool {
        match self {
            Predicate::Eq(c, v) => {
                let x = get(c);
                !x.is_null() && !v.is_null() && x == *v
            }
            Predicate::Cmp(c, op, v) => {
                let x = get(c);
                if x.is_null() || v.is_null() {
                    return false;
                }
                match op {
                    CmpOp::Lt => x < *v,
                    CmpOp::Le => x <= *v,
                    CmpOp::Gt => x > *v,
                    CmpOp::Ge => x >= *v,
                }
            }
            Predicate::Between(c, lo, hi) => {
                let x = get(c);
                !x.is_null() && x >= *lo && x <= *hi
            }
            Predicate::Like(c, pattern) => match get(c) {
                Value::Str(s) => like_match(&s, pattern),
                _ => false,
            },
            Predicate::In(c, vs) => {
                let x = get(c);
                !x.is_null() && vs.contains(&x)
            }
            Predicate::And(ps) => ps.iter().all(|p| p.eval(get)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(get)),
        }
    }
}

/// One literal position of a predicate tree, as seen by
/// [`Predicate::visit_literals`]: everything about a query that
/// [`Query::same_shape`] ignores. Two same-shape queries whose literal
/// streams are equal resolve to identical conditioned statistics, so
/// estimator literal caches key on (shape, literal stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LiteralRef<'a> {
    /// A comparison literal (`Eq`/`Cmp`/`Between` endpoints, `IN` members).
    Value(&'a Value),
    /// A `LIKE` pattern.
    Text(&'a str),
    /// An `IN` list's arity. Emitted *before* the member values so the
    /// flattened stream stays injective per shape (shapes ignore IN
    /// arity: without the arity token, `IN (a, b) AND IN (c)` and
    /// `IN (a) AND IN (b, c)` would flatten identically).
    Arity(usize),
}

impl Predicate {
    /// Walk every literal of the tree in a fixed traversal order, feeding
    /// each to `f`. Returns early (with `false`) as soon as `f` does —
    /// the shape of the stream is documented on [`LiteralRef`].
    pub fn visit_literals<'a>(&'a self, f: &mut impl FnMut(LiteralRef<'a>) -> bool) -> bool {
        match self {
            Predicate::Eq(_, v) => f(LiteralRef::Value(v)),
            Predicate::Cmp(_, _, v) => f(LiteralRef::Value(v)),
            Predicate::Between(_, lo, hi) => f(LiteralRef::Value(lo)) && f(LiteralRef::Value(hi)),
            Predicate::Like(_, pattern) => f(LiteralRef::Text(pattern)),
            Predicate::In(_, vs) => {
                f(LiteralRef::Arity(vs.len())) && vs.iter().all(|v| f(LiteralRef::Value(v)))
            }
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter().all(|p| p.visit_literals(f)),
        }
    }

    /// True iff `other` has the same tree structure, columns, and
    /// operators — literal values (and `IN` arities) are ignored. Part of
    /// the [`Query::same_shape`] contract: everything an estimator caches
    /// per shape must be independent of what this ignores.
    pub fn same_shape(&self, other: &Predicate) -> bool {
        match (self, other) {
            (Predicate::Eq(a, _), Predicate::Eq(b, _)) => a == b,
            (Predicate::Cmp(a, oa, _), Predicate::Cmp(b, ob, _)) => a == b && oa == ob,
            (Predicate::Between(a, _, _), Predicate::Between(b, _, _)) => a == b,
            (Predicate::Like(a, _), Predicate::Like(b, _)) => a == b,
            (Predicate::In(a, _), Predicate::In(b, _)) => a == b,
            (Predicate::And(pa), Predicate::And(pb)) | (Predicate::Or(pa), Predicate::Or(pb)) => {
                pa.len() == pb.len() && pa.iter().zip(pb).all(|(x, y)| x.same_shape(y))
            }
            _ => false,
        }
    }

    /// Append this tree's part of the shape key (see
    /// [`Query::shape_key_into`]): per node a tag byte, then the column
    /// name (plus the operator of a `Cmp`) or the child count and the
    /// children. Self-delimiting like the whole key, so estimators compose
    /// it into keys of their own.
    pub fn shape_key_into(&self, out: &mut Vec<u8>) {
        self.shape_into(out);
    }

    fn shape_into(&self, s: &mut impl ShapeSink) {
        match self {
            Predicate::Eq(c, _) => {
                s.byte(1);
                s.name(c);
            }
            Predicate::Cmp(c, op, _) => {
                s.byte(2);
                s.name(c);
                s.byte(*op as u8);
            }
            Predicate::Between(c, _, _) => {
                s.byte(3);
                s.name(c);
            }
            Predicate::Like(c, _) => {
                s.byte(4);
                s.name(c);
            }
            Predicate::In(c, _) => {
                s.byte(5);
                s.name(c);
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                let and = matches!(self, Predicate::And(_));
                s.byte(if and { 6 } else { 7 });
                s.uint(ps.len());
                for p in ps {
                    p.shape_into(s);
                }
            }
        }
    }
}

/// Feed one literal into an FNV accumulator. `Value`s hash with the same
/// Int/Float normalization as `Value::hash` (integral floats hash like the
/// corresponding integer), so literals that compare equal under
/// `Value::eq` fingerprint identically.
fn literal_hash_into(lit: LiteralRef<'_>, h: &mut Fnv) {
    match lit {
        LiteralRef::Value(v) => match (v.normalized_int(), v) {
            (Some(i), _) => {
                h.byte(1);
                h.usize(i as usize);
            }
            (None, Value::Null) => h.byte(0),
            (None, Value::Float(f)) => {
                h.byte(2);
                h.usize(f.to_bits() as usize);
            }
            (None, Value::Str(s)) => {
                h.byte(3);
                h.name(s);
            }
            (None, Value::Int(_)) => unreachable!("integers always normalize"),
        },
        LiteralRef::Text(s) => {
            h.byte(4);
            h.name(s);
        }
        LiteralRef::Arity(n) => {
            h.byte(5);
            h.usize(n);
        }
    }
}

/// Where the shape traversal ([`Query::shape_into`]) writes: the FNV
/// accumulator behind [`Query::shape_hash`] or the byte buffer behind
/// [`Query::shape_key_into`]. One traversal feeds both, so the hash is by
/// construction the FNV-1a of the key.
trait ShapeSink {
    fn byte(&mut self, b: u8);

    /// A name: its bytes, then `0xff`, which UTF-8 never contains.
    fn name(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.byte(b);
        }
        self.byte(0xff);
    }

    /// An index or a count, LEB128: one byte below 128, which is all a
    /// real query produces.
    fn uint(&mut self, mut v: usize) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }
}

impl ShapeSink for Vec<u8> {
    fn byte(&mut self, b: u8) {
        self.push(b);
    }

    fn name(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
        self.push(0xff);
    }
}

/// Allocation-free FNV-1a accumulator for shape and literal hashing.
struct Fnv(u64);

impl ShapeSink for Fnv {
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }
}

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn usize(&mut self, v: usize) {
        for b in (v as u64).to_le_bytes() {
            self.byte(b);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// SQL LIKE with `%` (any substring) and `_` (any char) wildcards.
pub fn like_match(s: &str, pattern: &str) -> bool {
    // Dynamic programming over chars; patterns here are short.
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (n, m) = (s.len(), p.len());
    let mut dp = vec![false; n + 1];
    dp[0] = true;
    for &pc in p.iter().take(m) {
        let mut next = vec![false; n + 1];
        match pc {
            '%' => {
                // next[i] = any dp[k] for k <= i
                let mut any = false;
                for i in 0..=n {
                    any |= dp[i];
                    next[i] = any;
                }
            }
            '_' => {
                next[1..=n].copy_from_slice(&dp[..n]);
            }
            c => {
                for i in 1..=n {
                    next[i] = dp[i - 1] && s[i - 1] == c;
                }
            }
        }
        dp = next;
    }
    dp[n]
}

/// A full conjunctive query: relations, equi-join edges, and per-relation
/// predicates (at most one predicate tree per relation; multiple conjuncts
/// are merged into an `And`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    /// The referenced relations.
    pub relations: Vec<RelationRef>,
    /// Equi-join conditions.
    pub joins: Vec<JoinEdge>,
    /// `(relation index, predicate)` pairs; at most one per relation.
    pub predicates: Vec<(usize, Predicate)>,
}

impl Query {
    /// Empty query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a relation, returning its index.
    pub fn add_relation(&mut self, r: RelationRef) -> usize {
        self.relations.push(r);
        self.relations.len() - 1
    }

    /// Index of a relation by alias.
    pub fn relation_by_alias(&self, alias: &str) -> Option<usize> {
        self.relations.iter().position(|r| r.alias == alias)
    }

    /// Add an equi-join edge.
    pub fn add_join(&mut self, left: usize, left_column: &str, right: usize, right_column: &str) {
        assert!(left < self.relations.len() && right < self.relations.len());
        assert_ne!(left, right, "self-join edges must use two aliases");
        self.joins.push(JoinEdge {
            left,
            left_column: left_column.to_string(),
            right,
            right_column: right_column.to_string(),
        });
    }

    /// Add a predicate for a relation; merges with an existing one via AND.
    pub fn add_predicate(&mut self, rel: usize, pred: Predicate) {
        assert!(rel < self.relations.len());
        match self.predicates.iter_mut().find(|(r, _)| *r == rel) {
            Some((_, Predicate::And(ps))) => ps.push(pred),
            Some((_, existing)) => {
                let first = std::mem::replace(existing, Predicate::And(Vec::new()));
                *existing = Predicate::And(vec![first, pred]);
            }
            None => self.predicates.push((rel, pred)),
        }
    }

    /// The predicate tree on a relation, if any.
    pub fn predicate_of(&self, rel: usize) -> Option<&Predicate> {
        self.predicates
            .iter()
            .find(|(r, _)| *r == rel)
            .map(|(_, p)| p)
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// A structural hash of the query's **shape**: the referenced tables,
    /// the join topology, and the predicate tree shapes (columns and
    /// operators — **not** literal values). Two queries with equal shapes
    /// share spanning relaxations, join graphs, bound plans, and
    /// join-column resolution, so estimators key their plan caches on
    /// this. It is the FNV-1a of the [`Query::shape_key_into`] bytes,
    /// computed without staging them; compare those to confirm a match.
    pub fn shape_hash(&self) -> u64 {
        let mut h = Fnv::new();
        self.shape_into(&mut h);
        h.finish()
    }

    /// Append the query's **shape key**: a compact byte string that is
    /// equal for two queries exactly when [`Query::same_shape`] holds, so
    /// a cache can keep it in place of an exemplar query and verify a hit
    /// with a byte compare. Counts and relation indices are LEB128, names
    /// end in `0xff`, every list is count-prefixed: the key is
    /// self-delimiting — no key is a proper prefix of another — so
    /// `key ++ anything` still identifies the shape.
    pub fn shape_key_into(&self, out: &mut Vec<u8>) {
        self.shape_into(out);
    }

    /// The one traversal behind [`Query::shape_hash`] and
    /// [`Query::shape_key_into`]; it reads exactly what
    /// [`Query::same_shape`] compares.
    fn shape_into(&self, s: &mut impl ShapeSink) {
        s.uint(self.relations.len());
        for r in &self.relations {
            s.name(&r.table);
        }
        s.uint(self.joins.len());
        for j in &self.joins {
            s.uint(j.left);
            s.name(&j.left_column);
            s.uint(j.right);
            s.name(&j.right_column);
        }
        s.uint(self.predicates.len());
        for (rel, p) in &self.predicates {
            s.uint(*rel);
            p.shape_into(s);
        }
    }

    /// A hash of the query's **literal vector** — every value
    /// [`Query::shape_hash`] ignores, in predicate-slot order (the
    /// [`Predicate::visit_literals`] stream per relation, relations in
    /// `predicates` order). Together, `(shape_hash, literal_fingerprint)`
    /// identify a request up to hash collisions: same-shape queries with
    /// equal literal streams resolve to identical bounds, so serving
    /// layers deduplicate on this pair (confirming with full equality)
    /// and sessions key their literal caches on it. Allocation-free.
    pub fn literal_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for (rel, p) in &self.predicates {
            h.usize(*rel);
            p.visit_literals(&mut |lit| {
                literal_hash_into(lit, &mut h);
                true
            });
        }
        h.finish()
    }

    /// True iff `other` has the same shape (see [`Query::shape_hash`]):
    /// identical tables, join edges, and predicate structure, ignoring
    /// aliases and literal values. The definition
    /// [`Query::shape_key_into`] is tested against.
    pub fn same_shape(&self, other: &Query) -> bool {
        self.relations.len() == other.relations.len()
            && self
                .relations
                .iter()
                .zip(&other.relations)
                .all(|(a, b)| a.table == b.table)
            && self.joins == other.joins
            && self.predicates.len() == other.predicates.len()
            && self
                .predicates
                .iter()
                .zip(&other.predicates)
                .all(|((ra, pa), (rb, pb))| ra == rb && pa.same_shape(pb))
    }

    /// The sub-query induced by a subset of relations (given as a bitmask
    /// over relation indices): keeps the selected relations, the join edges
    /// with both endpoints selected, and the predicates of selected
    /// relations. Relation indices are compacted.
    pub fn induced(&self, mask: u64) -> Query {
        let selected = |i: usize| mask & (1 << i) != 0;
        // A selected relation's compacted index: the selected ones below it.
        let rank = |i: usize| (mask & ((1 << i) - 1)).count_ones() as usize;
        let kept_joins = |j: &&JoinEdge| selected(j.left) && selected(j.right);
        let kept_predicates = |p: &&(usize, Predicate)| selected(p.0);

        let mut relations = Vec::with_capacity(mask.count_ones() as usize);
        relations.extend(
            self.relations
                .iter()
                .enumerate()
                .filter(|(i, _)| selected(*i))
                .map(|(_, r)| r.clone()),
        );
        let mut joins = Vec::with_capacity(self.joins.iter().filter(kept_joins).count());
        joins.extend(self.joins.iter().filter(kept_joins).map(|j| JoinEdge {
            left: rank(j.left),
            left_column: j.left_column.clone(),
            right: rank(j.right),
            right_column: j.right_column.clone(),
        }));
        let mut predicates =
            Vec::with_capacity(self.predicates.iter().filter(kept_predicates).count());
        predicates.extend(
            self.predicates
                .iter()
                .filter(kept_predicates)
                .map(|(r, p)| (rank(*r), p.clone())),
        );
        Query {
            relations,
            joins,
            predicates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_match_basics() {
        assert!(like_match("hello world", "%world"));
        assert!(like_match("hello world", "hello%"));
        assert!(like_match("hello world", "%lo wo%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "ab"));
        assert!(like_match("aXbXc", "%a%b%c%"));
    }

    #[test]
    fn predicate_eval() {
        let get = |c: &str| match c {
            "a" => Value::Int(5),
            "s" => Value::from("Abdul Kader"),
            _ => Value::Null,
        };
        assert!(Predicate::Eq("a".into(), Value::Int(5)).eval(&get));
        assert!(Predicate::Cmp("a".into(), CmpOp::Lt, Value::Int(6)).eval(&get));
        assert!(!Predicate::Cmp("a".into(), CmpOp::Gt, Value::Int(6)).eval(&get));
        assert!(Predicate::Between("a".into(), Value::Int(5), Value::Int(9)).eval(&get));
        assert!(Predicate::Like("s".into(), "%Abdul%".into()).eval(&get));
        assert!(Predicate::In("a".into(), vec![Value::Int(1), Value::Int(5)]).eval(&get));
        // NULL never matches.
        assert!(!Predicate::Eq("z".into(), Value::Int(5)).eval(&get));
        assert!(!Predicate::Cmp("z".into(), CmpOp::Lt, Value::Int(5)).eval(&get));
        let conj = Predicate::And(vec![
            Predicate::Eq("a".into(), Value::Int(5)),
            Predicate::Like("s".into(), "%Kader".into()),
        ]);
        assert!(conj.eval(&get));
        let disj = Predicate::Or(vec![
            Predicate::Eq("a".into(), Value::Int(99)),
            Predicate::Eq("a".into(), Value::Int(5)),
        ]);
        assert!(disj.eval(&get));
    }

    #[test]
    fn predicate_columns() {
        let p = Predicate::And(vec![
            Predicate::Eq("b".into(), Value::Int(1)),
            Predicate::Or(vec![
                Predicate::Like("a".into(), "%x%".into()),
                Predicate::In("b".into(), vec![Value::Int(2)]),
            ]),
        ]);
        assert_eq!(p.columns(), vec!["a", "b"]);
    }

    #[test]
    fn add_predicate_merges_with_and() {
        let mut q = Query::new();
        let r = q.add_relation(RelationRef::new("t"));
        q.add_predicate(r, Predicate::Eq("a".into(), Value::Int(1)));
        q.add_predicate(r, Predicate::Eq("b".into(), Value::Int(2)));
        match q.predicate_of(r).unwrap() {
            Predicate::And(ps) => assert_eq!(ps.len(), 2),
            p => panic!("expected And, got {p:?}"),
        }
    }

    #[test]
    fn literal_fingerprint_tracks_literals_not_shape() {
        let mk = |year: i64, w: &[i64]| {
            let mut q = Query::new();
            let r = q.add_relation(RelationRef::new("t"));
            q.add_predicate(r, Predicate::Eq("year".into(), Value::Int(year)));
            q.add_predicate(
                r,
                Predicate::In("w".into(), w.iter().map(|&v| Value::Int(v)).collect()),
            );
            q
        };
        let a = mk(1990, &[1, 2]);
        let b = mk(1990, &[1, 2]);
        let c = mk(1991, &[1, 2]);
        assert_eq!(a.shape_hash(), c.shape_hash());
        assert_eq!(a.literal_fingerprint(), b.literal_fingerprint());
        assert_ne!(a.literal_fingerprint(), c.literal_fingerprint());
        // IN arity is part of the stream even though shapes ignore it.
        let d = mk(1990, &[1]);
        assert_ne!(a.literal_fingerprint(), d.literal_fingerprint());
        // Equal-under-Value::eq literals fingerprint identically.
        let mut e = mk(1990, &[1, 2]);
        match &mut e.predicates[0].1 {
            Predicate::And(ps) => ps[0] = Predicate::Eq("year".into(), Value::Float(1990.0)),
            p => panic!("expected And, got {p:?}"),
        }
        assert_eq!(a.literal_fingerprint(), e.literal_fingerprint());
    }

    #[test]
    fn visit_literals_streams_in_order() {
        let p = Predicate::And(vec![
            Predicate::Between("a".into(), Value::Int(1), Value::Int(2)),
            Predicate::Like("s".into(), "%x%".into()),
            Predicate::In("b".into(), vec![Value::Int(3), Value::Int(4)]),
        ]);
        let mut seen = Vec::new();
        p.visit_literals(&mut |lit| {
            seen.push(format!("{lit:?}"));
            true
        });
        assert_eq!(seen.len(), 6, "{seen:?}"); // 2 + 1 + (arity + 2)
        assert!(seen[2].contains("Text"));
        assert!(seen[3].contains("Arity"));
        // Early exit propagates.
        let mut count = 0;
        assert!(!p.visit_literals(&mut |_| {
            count += 1;
            count < 3
        }));
        assert_eq!(count, 3);
    }

    #[test]
    fn induced_subquery() {
        let mut q = Query::new();
        let a = q.add_relation(RelationRef::new("a"));
        let b = q.add_relation(RelationRef::new("b"));
        let c = q.add_relation(RelationRef::new("c"));
        q.add_join(a, "x", b, "x");
        q.add_join(b, "y", c, "y");
        q.add_predicate(c, Predicate::Eq("k".into(), Value::Int(1)));
        let sub = q.induced((1 << b) | (1 << c));
        assert_eq!(sub.num_relations(), 2);
        assert_eq!(sub.joins.len(), 1);
        assert_eq!(sub.joins[0].left, 0);
        assert_eq!(sub.joins[0].right, 1);
        assert_eq!(sub.predicates.len(), 1);
        assert_eq!(sub.predicates[0].0, 1);
    }
}
