//! The resolve phase: literal staging, cache probes, and predicate
//! resolution into per-relation conditioned sets
//! ([`PhaseBreakdown::resolve_ns`](super::PhaseBreakdown::resolve_ns)).

use super::session::{
    EqEntry, LikeEntry, Memo, Memos, PredSlots, RangeEntry, RelResolution, ShapeEntry,
};
use super::EstimateError;
use crate::conditioning::{CdsScratch, CdsSet, HistogramStats, McvOutcome, NgramStats, SetOp};
use crate::litcache::{self, ContentKey, LitCache};
use crate::pool::{CdsPool, CdsView, SetRange};
use crate::stats::{FilterColumnStats, StatsSnapshot, TableStats};
use crate::symbol::Sym;
use safebound_query::{CmpOp, Predicate, Query};
use safebound_storage::Value;

/// Per-query staging for the literal cache: the encoded literal streams
/// and their fingerprints (see [`crate::litcache`]). Buffers retain
/// capacity across queries, so staging is allocation-free once warm.
#[derive(Debug, Default)]
pub(super) struct LitStage {
    /// The whole query's encoded literal stream, relations in order (the
    /// bound-cache key vector).
    pub(super) full: Vec<u8>,
    /// FNV-1a of `full`.
    pub(super) full_fp: u64,
    /// Byte range of each relation's own literals within `full`.
    spans: Vec<(u32, u32)>,
    /// Per relation: the sub-stream its resolution reads — own literals
    /// followed by each PK–FK-propagated source's, in directive order
    /// (the conditioned-entry key vector).
    rel_bytes: Vec<Vec<u8>>,
    /// FNV-1a of each `rel_bytes` entry.
    rel_fp: Vec<u64>,
}

impl LitStage {
    /// The bound-cache key of the staged query: its shape key, then its
    /// whole literal stream.
    pub(super) fn bound_key<'a>(&'a self, shape_key: &'a [u8], shape_fp: u64) -> ContentKey<'a> {
        ContentKey {
            scope: shape_key,
            scope_fp: shape_fp,
            lits: &self.full,
            lits_fp: self.full_fp,
        }
    }

    /// The conditioned-cache key of relation `rel` of the staged query:
    /// its signature, then the literal sub-stream its resolution reads.
    /// `None` for a literal-free relation, whose resolution is trivial
    /// (row count only).
    fn rel_key<'a>(&'a self, rel: usize, res: &'a RelResolution) -> Option<ContentKey<'a>> {
        let lits = &self.rel_bytes[rel];
        (!lits.is_empty()).then_some(ContentKey {
            scope: &res.sig,
            scope_fp: res.sig_fp,
            lits,
            lits_fp: self.rel_fp[rel],
        })
    }
}

/// Encode the query's whole literal stream (the bound-cache key) into the
/// session staging buffers. Cheap enough for the exact-repeat fast path:
/// one encoding pass and one FNV fold; the per-relation sub-vectors are
/// staged separately ([`stage_rel_literals`]) only after a bound-cache
/// miss, since a whole-query hit never reads them.
pub(super) fn stage_full_literals(query: &Query, stage: &mut LitStage) {
    let n = query.num_relations();
    stage.full.clear();
    stage.spans.clear();
    for rel in 0..n {
        let start = stage.full.len() as u32;
        if let Some(p) = query.predicate_of(rel) {
            p.visit_literals(&mut |lit| {
                litcache::encode_literal(lit, &mut stage.full);
                true
            });
        }
        stage.spans.push((start, stage.full.len() as u32));
    }
    stage.full_fp = litcache::fnv1a(&stage.full);
}

/// Stage each relation's conditioned-cache sub-vector — its own literals
/// followed by each PK–FK-propagated source's, in directive order (the
/// shape fixes that order, so equal bytes imply byte-identical resolution
/// inputs). Requires [`stage_full_literals`] to have run for this query.
pub(super) fn stage_rel_literals(entry: &ShapeEntry, stage: &mut LitStage) {
    let n = stage.spans.len();
    while stage.rel_bytes.len() < n {
        stage.rel_bytes.push(Vec::new());
    }
    for rel in 0..n {
        let mut buf = std::mem::take(&mut stage.rel_bytes[rel]);
        buf.clear();
        let (s, e) = stage.spans[rel];
        buf.extend_from_slice(&stage.full[s as usize..e as usize]);
        for prop in &entry.resolution[rel].propagations {
            let (s, e) = stage.spans[prop.other_rel];
            buf.extend_from_slice(&stage.full[s as usize..e as usize]);
        }
        stage.rel_bytes[rel] = buf;
    }
    // Fingerprint four relations per pass: FNV is a serial multiply chain
    // per stream, but independent streams overlap in the core
    // ([`crate::simd::hash::fnv1a_x4`] matches `litcache::fnv1a` lane for
    // lane).
    stage.rel_fp.clear();
    let mut rel = 0;
    while rel + 4 <= n {
        stage.rel_fp.extend_from_slice(&crate::simd::hash::fnv1a_x4(
            &stage.rel_bytes[rel],
            &stage.rel_bytes[rel + 1],
            &stage.rel_bytes[rel + 2],
            &stage.rel_bytes[rel + 3],
        ));
        rel += 4;
    }
    for r in rel..n {
        stage.rel_fp.push(litcache::fnv1a(&stage.rel_bytes[r]));
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
    use crate::simd::hash::FNV_PRIME;
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Two-word fingerprint material for one literal, honoring the
/// [`Value::normalized_int`] normalization (an integer and the float it
/// normalizes from yield the same words, exactly like
/// [`litcache::encode_literal`]'s byte encoding — the tags below mirror
/// its). Strings fold their bytes through serial FNV first, so the hot
/// numeric literals never touch a byte buffer.
#[inline]
fn value_fp_words(v: &Value) -> (u64, u64) {
    match (v.normalized_int(), v) {
        (Some(i), _) => (1, i as u64),
        (None, Value::Null) => (0, 0),
        (None, Value::Float(f)) => (2, f.to_bits()),
        (None, Value::Str(s)) => (3, litcache::fnv1a(s.as_bytes())),
        (None, Value::Int(_)) => unreachable!("integers always normalize"),
    }
}

/// Fingerprint of a single literal (equality memo key material). Memo
/// fingerprints are session-internal: collisions are verified by `Value`
/// equality on every hit, so the hash only has to discriminate, never
/// authenticate.
#[inline]
fn value_fp(v: &Value) -> u64 {
    use crate::simd::hash::FNV_BASIS;
    let (tag, payload) = value_fp_words(v);
    fp_mix(fp_mix(FNV_BASIS, tag), payload)
}

/// Fingerprint of a `[lo, hi]` range (range memo key material) over the
/// same normalized tag/payload words as [`value_fp`], so `Value`-equal
/// probes — e.g. an integer and the float it normalizes from —
/// fingerprint equally without staging any bytes.
#[inline]
fn range_fp(lo: &Value, hi: &Value) -> u64 {
    use crate::simd::hash::FNV_BASIS;
    let (tl, pl) = value_fp_words(lo);
    let (th, ph) = value_fp_words(hi);
    fp_mix(fp_mix(fp_mix(fp_mix(FNV_BASIS, tl), pl), th), ph)
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
    /// shared by all relaxations' assemblies. When `lit` carries the
    /// session's literal cache, relations whose literal sub-vector (own
    /// predicate plus every propagated source, staged by
    /// [`stage_rel_literals`]) repeats copy their conditioned set straight
    /// from the cache; fresh sub-vectors resolve and are memoized.
    pub(super) fn resolve_relations(
        &self,
        query: &Query,
        entry: &ShapeEntry,
        cds: &mut CdsScratch,
        memo: &mut Memos,
        mut lit: Option<(&mut LitCache, &LitStage)>,
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

            // Probe the conditioned cache first, under the relation's
            // signature: whichever shape resolved this table under these
            // predicates and literals serves it.
            let res = &entry.resolution[rel];
            let mut cached = lit
                .as_mut()
                .and_then(|(cache, stage)| Some((&mut **cache, stage.rel_key(rel, res)?)));
            if let Some((cache, key)) = cached.as_mut() {
                if let Some((set, has_cond, card)) = cache.lookup_cond(*key) {
                    let rc = &mut cond[rel];
                    rc.has_cond = has_cond;
                    rc.resident = None;
                    rc.card = card;
                    if has_cond {
                        cds.copy_set(set.view(), &mut rc.set);
                    } else {
                        cds.clear_set(&mut rc.set);
                    }
                    continue;
                }
            }

            let rc = &mut cond[rel];
            rc.has_cond = false;
            // Clear the range from whatever query used this slot last:
            // `cond_set` must never read a stale range meant for another
            // relation's statistics (even the unconditioned insert path
            // below reads it).
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

            if let Some((cache, key)) = cached {
                cache.insert_cond(key, rc.cond_set(&self.pool), rc.has_cond, rc.card, cds);
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
    let memo_sym = Some(ts.table_sym);
    if !rc.has_cond {
        // First resolution writes the slot directly: every leaf resolver
        // overwrites `out` before reading it, so no staging set (and no
        // pool round-trip) is needed, and `rc.set`'s buffers are reused
        // in place by the arena copies. A resident resolution stores only
        // its range — the copy-free steady state. On failure the slot
        // may hold stale entries — `has_cond` stays false, which gates
        // every read.
        match resolve_slots(
            &stats_at,
            pool,
            memo_sym,
            slots,
            pred,
            cds,
            memo,
            &mut rc.set,
        ) {
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
    let r = resolve_slots(&stats_at, pool, memo_sym, slots, pred, cds, memo, &mut tmp);
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

/// MCV equality lookup, memoized when `memo_sym` names the owning table:
/// hot literals skip the Bloom/exact probe entirely, and answers a single
/// stored set dominates (the default set, or one candidate group — the
/// common case) are served as that resident set — no copy at all. Only
/// multi-group max-envelopes are materialized (and memoized) as owned
/// sets.
#[allow(clippy::too_many_arguments)]
fn memo_eq(
    fs: &FilterColumnStats,
    pool: &CdsPool,
    slot: u32,
    memo_sym: Option<Sym>,
    v: &Value,
    scratch: &mut CdsScratch,
    memo: &mut Memo<EqEntry>,
    out: &mut CdsSet,
) -> Resolved {
    let mcv = &fs.mcv;
    let serve = |o: McvOutcome| match o {
        McvOutcome::Resident(r) => Resolved::Resident(r),
        McvOutcome::Owned => Resolved::Owned,
    };
    let Some(sym) = memo_sym else {
        return serve(mcv.lookup_eq_outcome(pool, v, scratch, out));
    };
    let fp = value_fp(v);
    if let Some(e) = memo.lookup(sym, slot, fp, |e| e.value == *v) {
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

/// Histogram range lookup, memoized when `memo_sym` names the owning
/// table: hot `[lo, hi]` pairs replay their covering group (or the
/// no-cover outcome) without walking the hierarchy, and a covered range
/// is always served as its resident group set — the range path never
/// copies.
fn memo_range(
    hist: &HistogramStats,
    slot: u32,
    memo_sym: Option<Sym>,
    lo: &Value,
    hi: &Value,
    memo: &mut Memo<RangeEntry>,
) -> Resolved {
    let group = match memo_sym {
        None => hist.lookup_range_group(lo, hi),
        Some(sym) => {
            let fp = range_fp(lo, hi);
            match memo.lookup(sym, slot, fp, |e| e.lo == *lo && e.hi == *hi) {
                Some(e) => e.group.map(|g| g as usize),
                None => {
                    let g = hist.lookup_range_group(lo, hi);
                    if let Some(e) = memo.cache.claim((sym, slot), fp) {
                        assign_value(&mut e.lo, lo);
                        assign_value(&mut e.hi, hi);
                        e.group = g.map(|g| g as u32);
                    }
                    g
                }
            }
        }
    };
    match group.and_then(|g| hist.groups.get(g)) {
        Some(&r) => Resolved::Resident(r),
        None => Resolved::None,
    }
}

/// N-gram LIKE lookup into `out`, memoized when `memo_sym` names the
/// owning table: a hot pattern copies its memoized set through the arena
/// (or replays the no-gram outcome). Returns whether the pattern matched,
/// i.e. whether `out` holds a resolution.
#[allow(clippy::too_many_arguments)]
fn memo_like(
    ng: &NgramStats,
    pool: &CdsPool,
    slot: u32,
    memo_sym: Option<Sym>,
    pattern: &str,
    scratch: &mut CdsScratch,
    memo: &mut Memo<LikeEntry>,
    out: &mut CdsSet,
) -> bool {
    let Some(sym) = memo_sym else {
        return ng.lookup_like_into(pool, pattern, scratch, out);
    };
    let fp = litcache::fnv1a(pattern.as_bytes());
    if let Some(e) = memo.lookup(sym, slot, fp, |e| e.pattern == pattern) {
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
/// resident sets out of `pool`. Literals go through the memos when
/// `memo_sym` identifies the owning table (`None` disables memoization
/// for one-shot resolution).
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
    memo_sym: Option<Sym>,
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
                memo_sym,
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
            memo_range(hist, slot, memo_sym, lo, hi, &mut memo.range)
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
            memo_range(hist, slot, memo_sym, lo, hi, &mut memo.range)
        }
        (Predicate::Like(_, pattern), &PredSlots::Leaf(slot)) => {
            let Some(slot) = slot else {
                return Resolved::None;
            };
            let Some(ng) = stats_at(slot).ngrams.as_ref() else {
                return Resolved::None;
            };
            if memo_like(
                ng,
                pool,
                slot,
                memo_sym,
                pattern,
                scratch,
                &mut memo.like,
                out,
            ) {
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
                    state = memo_eq(fs, pool, slot, memo_sym, v, scratch, &mut memo.eq, out);
                    continue;
                }
                // A second distinct literal: materialize a resident first
                // answer, then accumulate into `out`.
                let r = memo_eq(fs, pool, slot, memo_sym, v, scratch, &mut memo.eq, &mut tmp);
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
                    state = resolve_slots(stats_at, pool, memo_sym, s, p, scratch, memo, out);
                    continue;
                }
                let r = resolve_slots(stats_at, pool, memo_sym, s, p, scratch, memo, &mut tmp);
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
                let r = resolve_slots(stats_at, pool, memo_sym, s, p, scratch, memo, into);
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
