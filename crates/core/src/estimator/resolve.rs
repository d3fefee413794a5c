//! The resolve phase: literal staging, the literal-cache key, and
//! predicate resolution into per-relation conditioned sets
//! ([`PhaseBreakdown::resolve_ns`](super::PhaseBreakdown::resolve_ns)).

use super::session::{EqEntry, LikeEntry, Memo, Memos, PredSlots, ShapeEntry};
use super::EstimateError;
use crate::conditioning::{CdsScratch, CdsSet, HistogramStats, McvOutcome, NgramStats, SetOp};
use crate::pool::{CdsPool, CdsView, SetRange};
use crate::simd::hash::{fnv1a, FNV_PRIME};
use crate::stats::{FilterColumnStats, StatsSnapshot, TableStats};
use crate::symbol::Sym;
use safebound_query::{CmpOp, LiteralRef, Predicate, Query};
use safebound_storage::Value;

/// Append the query's whole literal stream, relations in order, to `key`,
/// which holds the query's shape key (hashed to `shape_fp`): the result is
/// the literal cache's key ([`LitEntry`](super::session::LitEntry)).
/// Returns its fingerprint, both halves' hashes mixed in order. The buffer
/// retains capacity across queries, so staging is allocation-free once
/// warm.
pub(super) fn stage_literals(query: &Query, key: &mut Vec<u8>, shape_fp: u64) -> u64 {
    let shape_len = key.len();
    for rel in 0..query.num_relations() {
        if let Some(p) = query.predicate_of(rel) {
            p.visit_literals(&mut |lit| {
                encode_literal(lit, key);
                true
            });
        }
    }
    fp_mix(shape_fp.wrapping_mul(FNV_PRIME), fnv1a(&key[shape_len..]))
}

/// Append one literal's stable encoding: a type tag, then a fixed-width or
/// length-prefixed payload, so a concatenated stream parses unambiguously
/// (verification is a byte compare). Integral floats encode like the
/// corresponding integer, consistent with `Value::eq`.
fn encode_literal(lit: LiteralRef<'_>, out: &mut Vec<u8>) {
    match lit {
        LiteralRef::Value(v) => match (v.normalized_int(), v) {
            (Some(i), _) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            (None, Value::Null) => out.push(0),
            (None, Value::Float(f)) => {
                out.push(2);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            (None, Value::Str(s)) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            (None, Value::Int(_)) => unreachable!("integers always normalize"),
        },
        LiteralRef::Text(s) => {
            out.push(4);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        LiteralRef::Arity(n) => {
            out.push(5);
            out.extend_from_slice(&(n as u32).to_le_bytes());
        }
    }
}

/// How one predicate (sub)tree resolved: not at all, into the caller's
/// `out` set, or as one of the snapshot's resident sets (its range, so it
/// can be stored in a [`RelCond`] and re-read at assembly). Resolving to
/// a resident set is what keeps memoized warm-path resolution copy-free;
/// every combining node materializes before accumulating.
enum Resolved {
    /// The predicate did not resolve (no usable statistics).
    None,
    /// The resolution was written into the caller's `out` set.
    Owned,
    /// The resolution is this resident set; `out` was not touched.
    Resident(SetRange),
}

/// Conditioned-resolution output for one relation, reused across queries.
#[derive(Debug, Default)]
pub(super) struct RelCond {
    /// The conditioned CDS set (valid only when `has_cond` and
    /// `resident` is `None`).
    set: CdsSet,
    /// When set, the conditioning is this resident set of the snapshot
    /// and `set` holds nothing meaningful. Ranges are only ever read
    /// against the snapshot that produced them (session caches flush on
    /// attach).
    resident: Option<SetRange>,
    /// Whether any predicate resolved for this relation.
    pub(super) has_cond: bool,
    /// Upper bound on the relation's filtered cardinality.
    pub(super) card: f64,
}

impl RelCond {
    /// The conditioned set, wherever it lives (only meaningful when
    /// `has_cond`).
    pub(super) fn cond_set<'x>(&'x self, pool: &'x CdsPool) -> CdsView<'x> {
        match self.resident {
            Some(r) => pool.set(r),
            None => self.set.view(),
        }
    }
}

/// Word-level FNV mix step shared by the memo fingerprints.
#[inline]
fn fp_mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Fingerprint of a single literal (equality memo key material): a tag
/// and a payload word, honoring the [`Value::normalized_int`]
/// normalization (an integer and the float it normalizes from fingerprint
/// equally, exactly like [`encode_literal`]'s byte encoding —
/// the tags below mirror its). Strings fold their bytes through serial
/// FNV first, so the hot numeric literals never touch a byte buffer. Memo
/// fingerprints are session-internal: collisions are verified by `Value`
/// equality on every hit, so the hash only has to discriminate, never
/// authenticate.
#[inline]
fn value_fp(v: &Value) -> u64 {
    use crate::simd::hash::FNV_BASIS;
    let (tag, payload) = match (v.normalized_int(), v) {
        (Some(i), _) => (1, i as u64),
        (None, Value::Null) => (0, 0),
        (None, Value::Float(f)) => (2, f.to_bits()),
        (None, Value::Str(s)) => (3, fnv1a(s.as_bytes())),
        (None, Value::Int(_)) => unreachable!("integers always normalize"),
    };
    fp_mix(fp_mix(FNV_BASIS, tag), payload)
}

/// Overwrite a memoized literal in place: a recycled string slot keeps
/// its heap buffer, so memoizing over an evicted entry allocates nothing.
fn assign_value(dst: &mut Value, src: &Value) {
    match (dst, src) {
        (Value::Str(d), Value::Str(s)) => {
            d.clear();
            d.push_str(s);
        }
        (d, s) => *d = s.clone(),
    }
}

impl StatsSnapshot {
    /// Resolve every relation's predicates (own + propagated) into the
    /// session's conditioned-set slots. Runs once per query; the result is
    /// shared by all relaxations' assemblies.
    pub(super) fn resolve_relations(
        &self,
        query: &Query,
        entry: &ShapeEntry,
        cds: &mut CdsScratch,
        memo: &mut Memos,
        cond: &mut Vec<RelCond>,
    ) -> Result<(), EstimateError> {
        let n = query.num_relations();
        while cond.len() < n {
            cond.push(RelCond::default());
        }
        #[allow(clippy::needless_range_loop)] // parallel arrays indexed by relation
        for rel in 0..n {
            let table_name = &query.relations[rel].table;
            let ts = self
                .tables
                .get(table_name)
                .ok_or_else(|| EstimateError::UnknownTable(table_name.clone()))?;
            let res = &entry.resolution[rel];
            let rc = &mut cond[rel];
            rc.has_cond = false;
            // Clear the range from whatever query used this slot last:
            // `cond_set` must never read a stale range meant for another
            // relation's statistics.
            rc.resident = None;

            // 1. Condition on the relation's own predicates.
            if let (Some(p), Some(slots)) = (query.predicate_of(rel), res.own.as_ref()) {
                apply_compiled(ts, &self.pool, slots, p, cds, memo, rc);
            }

            // 2. PK–FK propagation: predicates on joined dimension tables,
            //    via the shape entry's pre-compiled slots.
            for prop in &res.propagations {
                let Some(pred) = query.predicate_of(prop.other_rel) else {
                    continue;
                };
                apply_compiled(ts, &self.pool, &prop.slots, pred, cds, memo, rc);
            }

            rc.card = ts.row_count as f64;
            if rc.has_cond {
                let s = rc.cond_set(&self.pool);
                if !s.is_empty() {
                    rc.card = s.cardinality().min(rc.card);
                }
            }
        }
        Ok(())
    }
}

/// Resolve one compiled predicate tree and fold it into a relation's
/// conditioned slot (first resolution assigns, later ones take the
/// pointwise min).
fn apply_compiled(
    ts: &TableStats,
    pool: &CdsPool,
    slots: &PredSlots,
    pred: &Predicate,
    cds: &mut CdsScratch,
    memo: &mut Memos,
    rc: &mut RelCond,
) {
    let stats_at = |s| ts.filter_at(s);
    let sym = ts.table_sym;
    if !rc.has_cond {
        // First resolution writes the slot directly: every leaf resolver
        // overwrites `out` before reading it, so no staging set (and no
        // pool round-trip) is needed, and `rc.set`'s buffers are reused
        // in place by the arena copies. A resident resolution stores only
        // its range — the copy-free steady state. On failure the slot
        // may hold stale entries — `has_cond` stays false, which gates
        // every read.
        match resolve_slots(&stats_at, pool, sym, slots, pred, cds, memo, &mut rc.set) {
            Resolved::None => {}
            Resolved::Owned => {
                rc.resident = None;
                rc.has_cond = true;
            }
            Resolved::Resident(r) => {
                rc.resident = Some(r);
                rc.has_cond = true;
            }
        }
        return;
    }
    let mut tmp = cds.take_set();
    let r = resolve_slots(&stats_at, pool, sym, slots, pred, cds, memo, &mut tmp);
    if !matches!(r, Resolved::None) {
        // A second conditioning arrived: materialize a resident first
        // result, then fold pointwise. The values are identical to the
        // always-copy path — only the copies that never get combined are
        // skipped.
        if let Some(first) = rc.resident.take() {
            cds.copy_set(pool.set(first), &mut rc.set);
        }
        match r {
            Resolved::Resident(set) => rc.set.accumulate(pool.set(set), SetOp::Min, cds),
            Resolved::Owned => rc.set.accumulate(tmp.view(), SetOp::Min, cds),
            Resolved::None => unreachable!(),
        }
    }
    cds.put_set(tmp);
}

/// MCV equality lookup, memoized under the owning table's `sym`: hot
/// literals skip the Bloom/exact probe entirely, and answers a single
/// stored set dominates (the default set, or one candidate group — the
/// common case) are served as that resident set — no copy at all. Only
/// multi-group max-envelopes are materialized (and memoized) as owned
/// sets.
#[allow(clippy::too_many_arguments)]
fn memo_eq(
    fs: &FilterColumnStats,
    pool: &CdsPool,
    slot: u32,
    sym: Sym,
    v: &Value,
    scratch: &mut CdsScratch,
    memo: &mut Memo<(Sym, u32), EqEntry>,
    out: &mut CdsSet,
) -> Resolved {
    let mcv = &fs.mcv;
    let serve = |o: McvOutcome| match o {
        McvOutcome::Resident(r) => Resolved::Resident(r),
        McvOutcome::Owned => Resolved::Owned,
    };
    let fp = value_fp(v);
    if let Some(e) = memo.lookup((sym, slot), fp, |e| e.value == *v) {
        if e.outcome == McvOutcome::Owned {
            scratch.copy_set(e.set.view(), out);
        }
        return serve(e.outcome);
    }
    let o = mcv.lookup_eq_outcome(pool, v, scratch, out);
    if let Some(e) = memo.cache.claim((sym, slot), fp) {
        assign_value(&mut e.value, v);
        e.outcome = o;
        if o == McvOutcome::Owned {
            scratch.copy_set(out.view(), &mut e.set);
        } else {
            scratch.clear_set(&mut e.set);
        }
    }
    serve(o)
}

/// Histogram range lookup: one walk down the hierarchy, unmemoized (the
/// walk costs less than a memo probe would). A covered range is always
/// served as its resident group set — the range path never copies.
fn resolve_range(hist: &HistogramStats, lo: &Value, hi: &Value) -> Resolved {
    let group = hist.lookup_range_group(lo, hi);
    match group.and_then(|g| hist.groups.get(g)) {
        Some(&r) => Resolved::Resident(r),
        None => Resolved::None,
    }
}

/// N-gram LIKE lookup into `out`, memoized under the owning table's `sym`:
/// a hot pattern copies its memoized set through the arena
/// (or replays the no-gram outcome). Returns whether the pattern matched,
/// i.e. whether `out` holds a resolution.
#[allow(clippy::too_many_arguments)]
fn memo_like(
    ng: &NgramStats,
    pool: &CdsPool,
    slot: u32,
    sym: Sym,
    pattern: &str,
    scratch: &mut CdsScratch,
    memo: &mut Memo<(Sym, u32), LikeEntry>,
    out: &mut CdsSet,
) -> bool {
    let fp = fnv1a(pattern.as_bytes());
    if let Some(e) = memo.lookup((sym, slot), fp, |e| e.pattern == pattern) {
        if e.matched {
            scratch.copy_set(e.set.view(), out);
        }
        return e.matched;
    }
    let matched = ng.lookup_like_into(pool, pattern, scratch, out);
    if let Some(e) = memo.cache.claim((sym, slot), fp) {
        e.pattern.clear();
        e.pattern.push_str(pattern);
        e.matched = matched;
        if matched {
            scratch.copy_set(out.view(), &mut e.set);
        } else {
            scratch.clear_set(&mut e.set);
        }
    }
    matched
}

/// **The** predicate resolver: the one copy of the soundness-critical
/// Eq/Cmp/Between/Like/In/And/Or logic.
///
/// The slot tree mirrors the predicate's structure (guaranteed by the
/// shape cache), so every leaf addresses its [`FilterColumnStats`]
/// through `stats_at` by dense index — no string lookups — and reads its
/// resident sets out of `pool`. Literals go through the memos, owner-keyed
/// by the owning table's `sym`.
///
/// A single leaf that resolves to one resident set returns its range as
/// [`Resolved::Resident`] — zero copies. Only combining nodes
/// (`In`/`And`/`Or` with more than one resolving child) materialize into
/// `out`; on [`Resolved::Owned`], `out` holds the answer. The accumulated
/// values are identical either way, so both paths give bit-identical bounds.
#[allow(clippy::too_many_arguments)]
fn resolve_slots<'a>(
    stats_at: &impl Fn(u32) -> &'a FilterColumnStats,
    pool: &CdsPool,
    sym: Sym,
    slots: &PredSlots,
    pred: &Predicate,
    scratch: &mut CdsScratch,
    memo: &mut Memos,
    out: &mut CdsSet,
) -> Resolved {
    // Fold one more resolved child into `state`/`out` with `op`,
    // materializing a resident first answer before accumulating.
    let fold = |state: &mut Resolved,
                r: Resolved,
                tmp: &CdsSet,
                op: SetOp,
                scratch: &mut CdsScratch,
                out: &mut CdsSet| {
        if let Resolved::Resident(first) = *state {
            scratch.copy_set(pool.set(first), out);
            *state = Resolved::Owned;
        }
        match r {
            Resolved::Resident(set) => out.accumulate(pool.set(set), op, scratch),
            Resolved::Owned => out.accumulate(tmp.view(), op, scratch),
            Resolved::None => {}
        }
    };
    match (pred, slots) {
        (Predicate::Eq(_, v), &PredSlots::Leaf(slot)) => {
            let Some(slot) = slot else {
                return Resolved::None;
            };
            memo_eq(
                stats_at(slot),
                pool,
                slot,
                sym,
                v,
                scratch,
                &mut memo.eq,
                out,
            )
        }
        (Predicate::Cmp(_, op, v), &PredSlots::Leaf(slot)) => {
            let Some(slot) = slot else {
                return Resolved::None;
            };
            let fs = stats_at(slot);
            let Some(hist) = fs.histogram.as_ref() else {
                return Resolved::None;
            };
            let (Some(min), Some(max)) = (hist.min_value(), hist.max_value()) else {
                return Resolved::None;
            };
            // Strict and non-strict comparisons resolve against the same
            // inclusive bucket ranges — over-coverage is sound — but a
            // literal outside the histogram domain must not invert the
            // range: a provably empty selection yields the zero set, and
            // everything else is clamped into `[min, max]`.
            let empty = match op {
                CmpOp::Lt => v <= min,
                CmpOp::Le => v < min,
                CmpOp::Gt => v >= max,
                CmpOp::Ge => v > max,
            };
            if empty {
                fs.mcv.zero_set_into(pool, scratch, out);
                return Resolved::Owned;
            }
            let (lo, hi) = match op {
                CmpOp::Lt | CmpOp::Le => (min, if v < max { v } else { max }),
                CmpOp::Gt | CmpOp::Ge => (if v > min { v } else { min }, max),
            };
            resolve_range(hist, lo, hi)
        }
        (Predicate::Between(_, lo, hi), &PredSlots::Leaf(slot)) => {
            let Some(slot) = slot else {
                return Resolved::None;
            };
            let fs = stats_at(slot);
            if hi < lo {
                // Inverted range: provably empty selection.
                fs.mcv.zero_set_into(pool, scratch, out);
                return Resolved::Owned;
            }
            let Some(hist) = fs.histogram.as_ref() else {
                return Resolved::None;
            };
            resolve_range(hist, lo, hi)
        }
        (Predicate::Like(_, pattern), &PredSlots::Leaf(slot)) => {
            let Some(slot) = slot else {
                return Resolved::None;
            };
            let Some(ng) = stats_at(slot).ngrams.as_ref() else {
                return Resolved::None;
            };
            if memo_like(ng, pool, slot, sym, pattern, scratch, &mut memo.like, out) {
                Resolved::Owned
            } else {
                Resolved::None
            }
        }
        (Predicate::In(_, values), &PredSlots::Leaf(slot)) => {
            let Some(slot) = slot else {
                return Resolved::None;
            };
            if values.is_empty() {
                return Resolved::None;
            }
            // Duplicate literals must not double-count through the sum:
            // `IN (x, x)` is `IN (x)`.
            let fs = stats_at(slot);
            let mut tmp = scratch.take_set();
            let mut state = Resolved::None;
            for (i, v) in values.iter().enumerate() {
                if values[..i].contains(v) {
                    continue;
                }
                if matches!(state, Resolved::None) {
                    state = memo_eq(fs, pool, slot, sym, v, scratch, &mut memo.eq, out);
                    continue;
                }
                // A second distinct literal: materialize a resident first
                // answer, then accumulate into `out`.
                let r = memo_eq(fs, pool, slot, sym, v, scratch, &mut memo.eq, &mut tmp);
                fold(&mut state, r, &tmp, SetOp::Sum, scratch, out);
            }
            scratch.put_set(tmp);
            state
        }
        (Predicate::And(ps), PredSlots::Node(ss)) => {
            // Pointwise min over whichever conjuncts resolve (§3.3).
            let mut tmp = scratch.take_set();
            let mut state = Resolved::None;
            for (p, s) in ps.iter().zip(ss) {
                if matches!(state, Resolved::None) {
                    state = resolve_slots(stats_at, pool, sym, s, p, scratch, memo, out);
                    continue;
                }
                let r = resolve_slots(stats_at, pool, sym, s, p, scratch, memo, &mut tmp);
                if !matches!(r, Resolved::None) {
                    fold(&mut state, r, &tmp, SetOp::Min, scratch, out);
                }
            }
            scratch.put_set(tmp);
            state
        }
        (Predicate::Or(ps), PredSlots::Node(ss)) => {
            // Every disjunct must resolve or the sum under-counts (§3.2).
            let mut tmp = scratch.take_set();
            let mut state = Resolved::None;
            let mut ok = true;
            for (p, s) in ps.iter().zip(ss) {
                let into = if matches!(state, Resolved::None) {
                    &mut *out
                } else {
                    &mut tmp
                };
                let r = resolve_slots(stats_at, pool, sym, s, p, scratch, memo, into);
                if matches!(r, Resolved::None) {
                    ok = false;
                    break;
                }
                if matches!(state, Resolved::None) {
                    state = r;
                } else {
                    fold(&mut state, r, &tmp, SetOp::Sum, scratch, out);
                }
            }
            scratch.put_set(tmp);
            if ok {
                state
            } else {
                Resolved::None
            }
        }
        _ => {
            debug_assert!(false, "predicate/slot shape mismatch");
            Resolved::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_is_injective_across_kinds() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_literal(LiteralRef::Value(&Value::Int(3)), &mut a);
        encode_literal(LiteralRef::Value(&Value::Float(3.0)), &mut b);
        assert_eq!(a, b, "integral floats encode like ints (Value::eq)");
        b.clear();
        encode_literal(LiteralRef::Value(&Value::Float(3.5)), &mut b);
        assert_ne!(a, b);
        a.clear();
        b.clear();
        encode_literal(LiteralRef::Text("ab"), &mut a);
        encode_literal(LiteralRef::Value(&Value::Str("ab".into())), &mut b);
        assert_ne!(a, b, "LIKE pattern and string literal must not alias");
        assert_ne!(fnv1a(&a), fnv1a(&b));
        // -0.0 is unequal to 0 under Value's total order (`-0.0 < 0.0`),
        // so it must not share 0's encoding — otherwise a byte-verified
        // hit could serve `> 0`'s bound for `> -0.0`.
        a.clear();
        b.clear();
        encode_literal(LiteralRef::Value(&Value::Float(-0.0)), &mut a);
        encode_literal(LiteralRef::Value(&Value::Int(0)), &mut b);
        assert_ne!(a, b, "negative zero must not alias integer zero");
    }

    /// `Value`'s laws on the values where a widening comparison breaks:
    /// ±2^53 ± k, ±2^63, `i64::MIN`/`MAX`, ±0.0, subnormals, ±∞ and NaN,
    /// each as an `Int` and as a `Float` where it is one. `Ord` is
    /// antisymmetric and transitive, and `a == b` exactly when their
    /// literal encodings are equal, which then implies equal hashes.
    #[test]
    fn value_order_hash_and_encoding_agree() {
        use std::cmp::Ordering;
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut vals = vec![
            Value::Null,
            Value::Str(String::new()),
            Value::Str("a".into()),
        ];
        let two53 = 1i64 << 53;
        for base in [two53, -two53, 0, 1 << 62, -(1 << 62)] {
            for k in -3..=3 {
                vals.push(Value::Int(base + k));
                vals.push(Value::Float((base + k) as f64));
                vals.push(Value::Float((base + k) as f64 + 0.5));
            }
        }
        for f in [
            9_223_372_036_854_775_808.0,  // 2^63
            -9_223_372_036_854_775_808.0, // -2^63 = i64::MIN
            9_223_372_036_854_774_784.0,  // the float just below 2^63
            -9_223_372_036_854_777_856.0, // the float just below -2^63
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            vals.push(Value::Float(f));
        }
        for i in [i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX] {
            vals.push(Value::Int(i));
        }
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let enc = |v: &Value| {
            let mut out = Vec::new();
            encode_literal(LiteralRef::Value(v), &mut out);
            out
        };
        for a in &vals {
            for b in &vals {
                let ab = a.cmp(b);
                assert_eq!(ab, b.cmp(a).reverse(), "antisymmetry: {a:?} vs {b:?}");
                assert_eq!(ab == Ordering::Equal, enc(a) == enc(b), "{a:?} vs {b:?}");
                if ab == Ordering::Equal {
                    assert_eq!(hash(a), hash(b), "{a:?} == {b:?}");
                    assert_eq!(a.normalized_int(), b.normalized_int(), "{a:?} == {b:?}");
                }
                for c in &vals {
                    if ab != Ordering::Greater && b.cmp(c) != Ordering::Greater {
                        let ac = a.cmp(c);
                        assert_ne!(ac, Ordering::Greater, "{a:?} ≤ {b:?} ≤ {c:?}");
                        if ab == Ordering::Less || b.cmp(c) == Ordering::Less {
                            assert_eq!(ac, Ordering::Less, "{a:?} ≤ {b:?} ≤ {c:?}");
                        }
                    }
                }
            }
        }
    }
}
