//! The online phase (§3.1, §3.5, §3.6): from a query to a guaranteed
//! cardinality upper bound.
//!
//! Per relation, the estimator resolves the query's predicate tree against
//! the pre-built conditioned statistics — equality via MCV lookup, ranges
//! via the histogram hierarchy, LIKE via n-grams, conjunction = pointwise
//! min, disjunction/IN = pointwise sum — and applies PK–FK propagation
//! (§4.2) for predicates sitting on joined dimension tables. The resulting
//! per-join-column CDSs feed the FDSB (Algorithm 2). Cyclic queries take
//! the min over spanning-tree relaxations (§3.6); joins on undeclared
//! columns use the truncated-fallback CDS (§3.6); queries where no
//! Berge-acyclic relaxation survives degrade to the cross-product of
//! per-relation (conditioned) cardinality bounds instead of failing.
//!
//! # Architecture: shared snapshot, swappable handle, per-worker session
//!
//! The estimator splits into three layers with different sharing rules:
//!
//! * **[`StatsSnapshot`]** — the immutable, `Send + Sync` statistics
//!   (symbol table, per-table CDS sets, conditioned stats). Everything
//!   literal- and session-independent lives here, behind an `Arc`, shared
//!   read-only by any number of serving threads.
//! * **[`SafeBound`]** — a cheaply cloneable *handle*: an atomic build-id
//!   mirror plus a mutex-protected `Arc<StatsSnapshot>` slot. A background
//!   rebuild publishes a fresh snapshot with [`SafeBound::swap_stats`]
//!   without pausing readers; the steady-state read path is one atomic
//!   load (no lock) because each session caches the `Arc` it last used.
//! * **[`BoundSession`]** — mutable per-worker state: the query-shape
//!   cache, the literal cache (whole-query bounds + per-relation
//!   conditioned sets), the equality/range/LIKE resolve memos — four
//!   instances of one `ClockCache` — and every arena the online path
//!   writes into. Sessions detect a swapped snapshot by build id and
//!   repopulate lazily.
//!
//! The expensive per-query work splits into two halves with different
//! cacheability:
//!
//! * **Shape-dependent, literal-independent** — spanning-tree enumeration,
//!   join-graph construction, [`BoundPlan`] building, join-column
//!   resolution to interned ids, and predicate-column resolution to dense
//!   **filter slots** (including the PK–FK [`propagated_key`] composites,
//!   whose string keys are looked up only here). A [`BoundSession`]
//!   memoizes all of it per query *shape* ([`Query::shape_hash`] /
//!   [`Query::same_shape`]: tables + join topology + predicate structure,
//!   not literals), evicting the least-recently-used shape at capacity, so
//!   repeated query templates skip straight to predicate resolution +
//!   kernel with zero string lookups.
//! * **Literal-dependent** — predicate resolution and statistics
//!   assembly. These write every intermediate CDS into the session's
//!   [`CdsScratch`] arena pools instead of cloning, and are themselves
//!   memoized by the per-session **literal cache** ([`crate::litcache`]),
//!   keyed under the shape's session id by fingerprints of the query's
//!   literal vector: an exact whole-query repeat returns the memoized
//!   bound outright (no resolution, assembly, or kernel — the dominant
//!   serving case runs in a few hundred nanoseconds), and a relation
//!   whose literal sub-vector repeats copies its resolved conditioned
//!   set instead of re-running MCV/histogram/n-gram lookups. Beneath
//!   that, repeated equality, range and LIKE literals (hot values) are
//!   served from per-session memos of the resolved lookups. The per-relation
//!   conditioned stats are resolved **once** and shared across all of a
//!   cyclic query's relaxations (propagation uses the original query's
//!   edges — a superset of every relaxation's edges — which is sound and
//!   at least as tight).
//!
//! Cyclic queries take the min over their relaxations by
//! **branch-and-bound** instead of materialize-everything-then-min: the
//! shape entry remembers the previously winning relaxation and evaluates
//! it first; later candidates reuse the first candidate's per-column
//! assembly (staged per query, a pure function of the resolved
//! conditioning) and run the kernel with a certified early exit
//! ([`crate::bound::fdsb_with_cutoff`]) that abandons as soon as the
//! candidate's monotonically growing partial value exceeds the best
//! complete bound. Because partial products only ever grow past the
//! abandon point, a pruned candidate provably cannot win — the min, and
//! therefore the returned bound, is bit-identical to the unpruned
//! evaluation (property-tested against [`StatsSnapshot::bound_inputs`]).
//!
//! Together with the allocation-free FDSB kernel, a warm session performs
//! **zero heap allocations per query** on the cached path for equality,
//! range, IN, and LIKE predicates (asserted by the `zero_alloc`
//! integration test; LIKE gram extraction is backed by the session's
//! reused `Value::Str` slots, and the literal cache — hit, miss, and
//! eviction paths alike — runs entirely on session-owned pooled buffers).

use crate::bound::{fdsb_with_cutoff, BoundError, BoundScratch, RelationBoundStats};
use crate::clock_cache::ClockCache;
use crate::conditioning::{CdsScratch, CdsSet, HistogramStats, McvOutcome, NgramStats, SetOp};
use crate::config::SafeBoundConfig;
use crate::litcache::{self, LitCache};
use crate::piecewise::PiecewiseLinear;
use crate::simd::hash::FastMap;
use crate::stats::{propagated_key, FilterColumnStats, StatsSnapshot, TableStats};
use crate::symbol::Sym;
use safebound_query::{BoundPlan, CmpOp, ColId, JoinGraph, Predicate, Query};
use safebound_storage::{Catalog, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Errors from the online phase.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimateError {
    /// A query references a table with no statistics.
    UnknownTable(String),
    /// Statistics were missing mid-bound.
    Bound(BoundError),
    /// The serving layer lost the computation (e.g. a worker panicked
    /// mid-query); the query itself may be fine on retry.
    Internal(String),
    /// The serving layer gave up waiting on the computation (per-batch
    /// deadline exceeded); the query itself may be fine on retry.
    Timeout,
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::UnknownTable(t) => write!(f, "no statistics for table {t:?}"),
            EstimateError::Bound(e) => write!(f, "bound evaluation failed: {e}"),
            EstimateError::Internal(m) => write!(f, "internal: {m}"),
            EstimateError::Timeout => write!(f, "timeout: bound exceeded its deadline"),
        }
    }
}

impl std::error::Error for EstimateError {}

impl From<BoundError> for EstimateError {
    fn from(e: BoundError) -> Self {
        EstimateError::Bound(e)
    }
}

/// Default shape-cache capacity (a backstop against unbounded growth under
/// adversarial non-repeating traffic; real template workloads stay far
/// below it). At capacity the least-recently-used shape is evicted.
const MAX_CACHED_SHAPES: usize = 1024;

/// Cap on memoized per-literal MCV equality lookups per session (bounds
/// session memory under adversarial literal churn). At capacity a clock
/// sweep evicts cold entries, so late-arriving hot literals still enter.
const MAX_EQ_MEMO_VALUES: usize = 4096;

/// Cap on memoized range-lookup outcomes per session. Entries are tiny
/// (two literals and a group id), so the cap matches the equality memo.
const MAX_RANGE_MEMO_VALUES: usize = 4096;

/// Cap on memoized LIKE resolutions per session. Each entry carries a
/// resolved [`CdsSet`], so the cap is tighter than the scalar memos.
const MAX_LIKE_MEMO_VALUES: usize = 1024;

/// Default capacity of the per-session literal cache (whole-query bound
/// entries plus per-relation conditioned-set entries combined; see
/// [`crate::litcache`]). Clock-evicted at capacity, like the memos.
const MAX_LIT_ENTRIES: usize = 8192;

/// Everything memoized for one query shape: the surviving acyclic
/// relaxations' plans plus the literal-independent resolution directives.
#[derive(Debug)]
struct ShapeEntry {
    /// Shape exemplar (literal values are ignored by comparisons).
    shape: Query,
    /// The exemplar's [`Query::shape_hash`] (needed to fix the session
    /// index when entries move during LRU eviction).
    hash: u64,
    /// Session-unique id, never reused: the literal cache keys its entries
    /// under it, so entries of an LRU-evicted shape become unreachable
    /// garbage (recycled by the literal clock) instead of false hits.
    uid: u64,
    /// Session tick of the last hit (LRU ordering).
    last_used: u64,
    /// One plan per Berge-acyclic relaxation that planned successfully.
    plans: Vec<PlanEntry>,
    /// Index into `plans` of the relaxation that won (had the smallest
    /// bound) on this shape's most recent query. Branch-and-bound
    /// evaluates it first: with repeated templates the same relaxation
    /// keeps winning, so the first candidate sets a tight `best` and the
    /// rest abandon as early as possible.
    last_winner: usize,
    /// Per relation of the original query: compiled predicate-resolution
    /// directives (shared by every relaxation).
    resolution: Vec<RelResolution>,
}

/// Per-query staging for the literal cache: the encoded literal streams
/// and their fingerprints (see [`crate::litcache`]). Buffers retain
/// capacity across queries, so staging is allocation-free once warm.
#[derive(Debug, Default)]
struct LitStage {
    /// The whole query's encoded literal stream, relations in order (the
    /// bound-cache key vector).
    full: Vec<u8>,
    /// FNV-1a of `full`.
    full_fp: u64,
    /// Byte range of each relation's own literals within `full`.
    spans: Vec<(u32, u32)>,
    /// Per relation: the sub-stream its resolution reads — own literals
    /// followed by each PK–FK-propagated source's, in directive order
    /// (the conditioned-entry key vector).
    rel_bytes: Vec<Vec<u8>>,
    /// FNV-1a of each `rel_bytes` entry.
    rel_fp: Vec<u64>,
}

/// Encode the query's whole literal stream (the bound-cache key) into the
/// session staging buffers. Cheap enough for the exact-repeat fast path:
/// one encoding pass and one FNV fold; the per-relation sub-vectors are
/// staged separately ([`stage_rel_literals`]) only after a bound-cache
/// miss, since a whole-query hit never reads them.
fn stage_full_literals(query: &Query, stage: &mut LitStage) {
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
fn stage_rel_literals(entry: &ShapeEntry, stage: &mut LitStage) {
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

/// Per-query staging of assembled per-`(relation, join column)` CDSs.
///
/// The assembled input for one relation/column —
/// `truncate(min(conditioned, base) | fallback, card)` — depends only on
/// the resolved conditioning, never on which relaxation's plan asks for
/// it. For multi-relaxation (cyclic) queries the first relaxation to
/// touch a column stages the result here and every later relaxation
/// copies it (a knot memcpy) instead of re-running the polyline algebra:
/// only branch-and-bound's first candidate is ever fully assembled.
/// Single-relaxation queries bypass the stage entirely (no extra copy).
#[derive(Debug, Default)]
struct AssembleStage {
    entries: Vec<(usize, Option<Sym>, PiecewiseLinear)>,
}

impl AssembleStage {
    /// Recycle the previous query's entries (polylines to the pool).
    fn begin(&mut self, cds: &mut CdsScratch) {
        for (_, _, p) in self.entries.drain(..) {
            cds.put_pwl(p);
        }
    }

    /// The staged CDS for a relation/column, if already assembled.
    fn get(&self, rel: usize, sym: Option<Sym>) -> Option<&PiecewiseLinear> {
        self.entries
            .iter()
            .find(|e| e.0 == rel && e.1 == sym)
            .map(|e| &e.2)
    }
}

/// A planned relaxation with its join-column resolution.
#[derive(Debug)]
struct PlanEntry {
    plan: BoundPlan,
    /// Per relation: `(plan column id, interned stats symbol)` for every
    /// join column the plan references on that relation. `None` symbols
    /// are columns unknown to the statistics (assembled as a key-shaped
    /// whole-table CDS, §3.6).
    join_cols: Vec<Vec<(ColId, Option<Sym>)>>,
}

/// Literal-independent resolution directives for one relation.
#[derive(Debug, Default)]
struct RelResolution {
    /// The relation's own predicate, compiled to filter slots.
    own: Option<PredSlots>,
    /// Predicates on other relations reachable through one original-query
    /// join edge, compiled against the fact side's propagated-key slots.
    propagations: Vec<Propagation>,
}

/// One PK–FK propagation source (§4.2).
#[derive(Debug)]
struct Propagation {
    /// The joined relation whose predicate propagates here.
    other_rel: usize,
    /// The propagating predicate compiled to this relation's
    /// [`propagated_key`] filter slots (the composite-key string lookups
    /// happen once per shape, never per query).
    slots: PredSlots,
}

/// A predicate tree's column references compiled to dense filter slots in
/// the owning relation's [`TableStats`]. Mirrors the [`Predicate`]
/// structure so resolution walks both trees in lockstep; `None` leaves are
/// columns with no usable statistics.
#[derive(Debug)]
enum PredSlots {
    /// One comparison leaf (`Eq`/`Cmp`/`Between`/`Like`/`In`).
    Leaf(Option<u32>),
    /// An `And`/`Or` node's children, in order.
    Node(Vec<PredSlots>),
}

impl PredSlots {
    /// Whether any leaf resolved to a usable filter slot. A tree with none
    /// can never condition anything ([`resolve_slots`] returns `false` on
    /// every path), so callers drop such directives at shape build: the
    /// per-query resolution loop skips the no-op walk, and the literal
    /// cache's per-relation key excludes literals the relation provably
    /// never reads.
    fn has_any(&self) -> bool {
        match self {
            PredSlots::Leaf(slot) => slot.is_some(),
            PredSlots::Node(children) => children.iter().any(PredSlots::has_any),
        }
    }
}

/// Compile a predicate tree's column names through a slot lookup.
fn compile_slots(pred: &Predicate, lookup: &mut impl FnMut(&str) -> Option<u32>) -> PredSlots {
    match pred {
        Predicate::And(ps) | Predicate::Or(ps) => {
            PredSlots::Node(ps.iter().map(|p| compile_slots(p, lookup)).collect())
        }
        Predicate::Eq(c, _)
        | Predicate::Cmp(c, _, _)
        | Predicate::Between(c, _, _)
        | Predicate::Like(c, _)
        | Predicate::In(c, _) => PredSlots::Leaf(lookup(c)),
    }
}

/// Locator for a conditioned set that lives in the (immutable) statistics
/// snapshot rather than in session memory: the resolve memos return these
/// for hits whose answer *is* one of the stats-owned group sets, so the
/// hot path borrows the set in place instead of copying it through the
/// arena. Indices are only ever dereferenced against the same snapshot
/// that produced them (session caches flush on attach).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CondRef {
    /// `filter_at(slot).histogram.groups[group]` (range predicates).
    HistGroup { slot: u32, group: u32 },
    /// `filter_at(slot).mcv.groups[group]` (single-group equality).
    McvGroup { slot: u32, group: u32 },
    /// `filter_at(slot).mcv.default_set` (non-MCV equality).
    McvDefault { slot: u32 },
}

impl CondRef {
    /// The stats-owned set this locator names.
    fn deref(self, ts: &TableStats) -> &CdsSet {
        match self {
            CondRef::HistGroup { slot, group } => {
                let hist = ts
                    .filter_at(slot)
                    .histogram
                    .as_ref()
                    // lint: allow(no-panic) -- a HistGroup locator is only
                    // constructed after resolving against this very
                    // histogram, so it cannot dangle
                    .expect("CondRef::HistGroup only built from a histogram hit");
                &hist.groups[group as usize]
            }
            CondRef::McvGroup { slot, group } => &ts.filter_at(slot).mcv.groups[group as usize],
            CondRef::McvDefault { slot } => &ts.filter_at(slot).mcv.default_set,
        }
    }
}

/// How one predicate (sub)tree resolved: not at all, into the caller's
/// `out` set, or as a borrow of a stats-owned set (with its locator, so
/// the borrow can be stored index-wise in a [`RelCond`] and re-read at
/// assembly). Borrowing is what keeps memoized warm-path resolution
/// copy-free; every combining node materializes before accumulating.
enum Resolved<'a> {
    /// The predicate did not resolve (no usable statistics).
    None,
    /// The resolution was written into the caller's `out` set.
    Owned,
    /// The resolution is this stats-owned set; `out` was not touched.
    Borrowed(&'a CdsSet, CondRef),
}

/// Conditioned-resolution output for one relation, reused across queries.
#[derive(Debug, Default)]
struct RelCond {
    /// The conditioned CDS set (valid only when `has_cond` and
    /// `cond_ref` is `None`).
    set: CdsSet,
    /// When set, the conditioning is the stats-owned set this locator
    /// names and `set` holds nothing meaningful.
    cond_ref: Option<CondRef>,
    /// Whether any predicate resolved for this relation.
    has_cond: bool,
    /// Upper bound on the relation's filtered cardinality.
    card: f64,
}

impl RelCond {
    /// The conditioned set, wherever it lives (only meaningful when
    /// `has_cond`).
    fn cond_set<'x>(&'x self, ts: &'x TableStats) -> &'x CdsSet {
        match self.cond_ref {
            Some(r) => r.deref(ts),
            None => &self.set,
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

/// One resolve-phase memo: a [`ClockCache`] owner-keyed by `(table
/// symbol, filter slot)` plus its hit/miss tallies. A hit skips the
/// lookup machinery entirely; at capacity the clock recycles a cold
/// entry, so literals that turn hot late still enter — the memo never
/// freezes. Flushed whenever the session attaches to a different
/// statistics build.
#[derive(Debug)]
struct Memo<V> {
    cache: ClockCache<(Sym, u32), V>,
    hits: u64,
    misses: u64,
}

impl<V: Default> Memo<V> {
    fn with_capacity(capacity: usize) -> Self {
        Memo {
            cache: ClockCache::with_capacity(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// The memoized entry under `(sym, slot, fp)` whose stored literal
    /// `verify` accepts (see [`ClockCache::get`]), tallying the outcome.
    /// Every miss is followed by the real lookup and a
    /// [`ClockCache::claim`] of the slot to memoize it in.
    fn lookup(
        &mut self,
        sym: Sym,
        slot: u32,
        fp: u64,
        verify: impl FnOnce(&V) -> bool,
    ) -> Option<&V> {
        let hit = self.cache.get((sym, slot), fp, verify);
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }
}

/// A memoized MCV equality lookup: hot literals (repeated equality / IN
/// values) skip the Bloom-filter probe and group-max.
#[derive(Debug)]
struct EqEntry {
    /// The literal, verified by `==` on every hit.
    value: Value,
    /// Which stored set answered (`Default`/`Group` hits are served as
    /// borrows of the stats; only `Owned` envelopes live in `set`).
    outcome: McvOutcome,
    /// The memoized max-envelope (meaningful only when `outcome` is
    /// [`McvOutcome::Owned`]).
    set: CdsSet,
}

impl Default for EqEntry {
    fn default() -> Self {
        EqEntry {
            value: Value::Null,
            outcome: McvOutcome::Default,
            set: CdsSet::default(),
        }
    }
}

/// A memoized range-lookup outcome. Zero-set outcomes (empty or inverted
/// selections) are decided by plain `Value` comparisons *before* the
/// lookup and are not memoized.
#[derive(Debug)]
struct RangeEntry {
    /// The `[lo, hi]` literals, verified by `==` on every hit (sound
    /// because `Value`-equal ranges resolve identically: the lookup is
    /// pure `Value` comparisons).
    lo: Value,
    hi: Value,
    /// Covering group id into the histogram's shared group sets, `None`
    /// when no level covered the range (fall back to the unconditioned
    /// CDS — itself a memoizable outcome).
    group: Option<u32>,
}

impl Default for RangeEntry {
    fn default() -> Self {
        RangeEntry {
            lo: Value::Null,
            hi: Value::Null,
            group: None,
        }
    }
}

/// A memoized LIKE resolution: a hit skips gram extraction, the Bloom
/// probes, and the min-fold.
#[derive(Debug, Default)]
struct LikeEntry {
    /// The pattern, verified by `==` on every hit.
    pattern: String,
    /// Whether the pattern yielded at least one full gram.
    matched: bool,
    /// Resolved set; empty (and ignored) when `matched` is false.
    set: CdsSet,
}

/// The session's three resolve-phase memos (equality, range, LIKE),
/// threaded through the resolver as one bundle and flushed together on
/// [`BoundSession::attach`].
#[derive(Debug)]
struct Memos {
    eq: Memo<EqEntry>,
    range: Memo<RangeEntry>,
    like: Memo<LikeEntry>,
}

impl Default for Memos {
    fn default() -> Self {
        Memos::with_capacities(
            MAX_EQ_MEMO_VALUES,
            MAX_RANGE_MEMO_VALUES,
            MAX_LIKE_MEMO_VALUES,
        )
    }
}

impl Memos {
    /// Per-kind capacities (0 disables that memo).
    fn with_capacities(eq: usize, range: usize, like: usize) -> Self {
        Memos {
            eq: Memo::with_capacity(eq),
            range: Memo::with_capacity(range),
            like: Memo::with_capacity(like),
        }
    }

    fn clear(&mut self) {
        self.eq.cache.clear();
        self.range.cache.clear();
        self.like.cache.clear();
    }
}

/// Declares every per-session counter exactly once — its doc, its name
/// and where [`BoundSession`] (bound to `$s`) reads it from — in the order
/// the serving layer's `STATS` line reports them. Generates
/// [`SessionStats`] with its `merge` and `fields`, and
/// [`BoundSession::stats`].
macro_rules! session_counters {
    ($s:ident; $($(#[$doc:meta])* $name:ident = $src:expr,)*) => {
        /// A coherent snapshot of every per-session cache counter, read
        /// with [`BoundSession::stats`]. One struct instead of a drawer of
        /// per-field accessors: serving layers copy it whole into their
        /// observability (`STATS` reports the pool-wide merge), and tests
        /// assert on it without chasing individual getters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct SessionStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl SessionStats {
            /// Field-wise accumulate (aggregating a worker pool's sessions).
            pub fn merge(&mut self, other: &SessionStats) {
                $(self.$name += other.$name;)*
            }

            /// Every counter as `(name, value)`, in `STATS` order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), self.$name)),*].into_iter()
            }
        }

        impl BoundSession {
            /// Every cache counter of this session in one coherent struct.
            pub fn stats(&self) -> SessionStats {
                let $s = self;
                SessionStats { $($name: $src,)* }
            }
        }
    };
}

session_counters! { s;
    /// Shape-cache hits (plan/slot reuse).
    shape_hits = s.shape_hits,
    /// Shape-cache misses (shape builds).
    shape_misses = s.shape_misses,
    /// Shapes evicted by the LRU.
    shape_evictions = s.shape_evictions,
    /// Whole-query literal repeats served straight from the bound cache
    /// (no resolution, no assembly, no kernel).
    lit_bound_hits = s.lit_cache.bound_hits,
    /// Whole-query literal vectors that had to be computed.
    lit_bound_misses = s.lit_cache.bound_misses,
    /// Per-relation conditioned sets served from the literal cache.
    lit_cond_hits = s.lit_cache.cond_hits,
    /// Per-relation literal sub-vectors that had to be resolved.
    lit_cond_misses = s.lit_cache.cond_misses,
    /// Literal-cache entries recycled by its clock.
    lit_evictions = s.lit_cache.evictions(),
    /// Hot-literal MCV memo hits.
    eq_memo_hits = s.memos.eq.hits,
    /// MCV lookups that went to the Bloom/group machinery.
    eq_memo_misses = s.memos.eq.misses,
    /// MCV memo entries recycled by its clock.
    eq_memo_evictions = s.memos.eq.cache.evictions(),
    /// Range memo hits (bucket walk skipped entirely).
    range_memo_hits = s.memos.range.hits,
    /// Range lookups that walked the histogram hierarchy.
    range_memo_misses = s.memos.range.misses,
    /// Range memo entries recycled by its clock.
    range_memo_evictions = s.memos.range.cache.evictions(),
    /// LIKE memo hits (gram extraction and min-fold skipped).
    like_memo_hits = s.memos.like.hits,
    /// LIKE patterns that had to be resolved.
    like_memo_misses = s.memos.like.misses,
    /// LIKE memo entries recycled by its clock.
    like_memo_evictions = s.memos.like.cache.evictions(),
    /// Relaxations abandoned mid-kernel by branch-and-bound (their bound
    /// was certified to exceed the best complete candidate).
    relaxations_pruned = s.pruned,
}

/// Accumulated wall-clock phase split of a session's queries, recorded
/// only while [`BoundSession::set_phase_timing`] is on (benchmark
/// instrumentation; the timer calls cost ~100 ns/query, so serving
/// sessions leave it off).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseBreakdown {
    /// Literal staging, cache probes, and predicate resolution.
    pub resolve_ns: u64,
    /// Per-relation statistics assembly (all relaxations).
    pub assemble_ns: u64,
    /// FDSB kernel evaluation (all relaxations).
    pub kernel_ns: u64,
    /// Queries the accumulators cover.
    pub queries: u64,
}

/// Reusable per-thread (per-worker) state for the online path: the
/// query-shape plan/relaxation cache with LRU eviction, the resolve
/// memos, the **literal cache** (whole-query bounds and per-relation
/// conditioned sets, see [`crate::litcache`]), and every arena the online
/// path writes into ([`BoundScratch`] for the kernel, [`CdsScratch`] for
/// predicate resolution and assembly, pooled per-relation stats). Hold one per serving thread; a warm session
/// allocates nothing per query on the cached path.
///
/// A session also pins the [`StatsSnapshot`] it last served from, so a
/// concurrent [`SafeBound::swap_stats`] never invalidates statistics
/// mid-query; the session notices the new build id on its next call and
/// repopulates lazily.
#[derive(Debug)]
pub struct BoundSession {
    /// Snapshot the cached state was compiled against (`None` = fresh).
    snapshot: Option<Arc<StatsSnapshot>>,
    shapes: Vec<ShapeEntry>,
    index: FastMap<u64, Vec<usize>>,
    /// Max cached shapes before LRU eviction.
    shape_capacity: usize,
    /// Monotone access counter driving LRU ordering.
    tick: u64,
    /// Next [`ShapeEntry::uid`] (never reused within the session).
    next_shape_uid: u64,
    memos: Memos,
    lit_cache: LitCache,
    lit_stage: LitStage,
    asm_stage: AssembleStage,
    kernel: BoundScratch,
    cds: CdsScratch,
    rel_stats: Vec<RelationBoundStats>,
    cond: Vec<RelCond>,
    /// Relaxations abandoned by branch-and-bound since creation.
    pruned: u64,
    /// Whether to accumulate [`PhaseBreakdown`] timings.
    timing: bool,
    phases: PhaseBreakdown,
    /// Shape-cache hits since creation.
    shape_hits: u64,
    /// Shape-cache misses (shape builds) since creation.
    shape_misses: u64,
    /// Shapes evicted (LRU) since creation.
    shape_evictions: u64,
}

impl Default for BoundSession {
    fn default() -> Self {
        BoundSession::with_shape_capacity(MAX_CACHED_SHAPES)
    }
}

impl BoundSession {
    /// A fresh session with the default shape-cache capacity.
    pub fn new() -> Self {
        BoundSession::default()
    }

    /// A fresh session evicting the least-recently-used shape beyond
    /// `capacity` cached shapes (min 1).
    pub fn with_shape_capacity(capacity: usize) -> Self {
        BoundSession {
            snapshot: None,
            shapes: Vec::new(),
            index: FastMap::default(),
            shape_capacity: capacity.max(1),
            tick: 0,
            next_shape_uid: 0,
            memos: Memos::default(),
            lit_cache: LitCache::with_capacity(MAX_LIT_ENTRIES),
            lit_stage: LitStage::default(),
            asm_stage: AssembleStage::default(),
            kernel: BoundScratch::default(),
            cds: CdsScratch::default(),
            rel_stats: Vec::new(),
            cond: Vec::new(),
            pruned: 0,
            timing: false,
            phases: PhaseBreakdown::default(),
            shape_hits: 0,
            shape_misses: 0,
            shape_evictions: 0,
        }
    }

    /// Number of cached query shapes.
    pub fn cached_shapes(&self) -> usize {
        self.shapes.len()
    }

    /// `build_id` of the statistics the cached state was compiled against
    /// (0 = none yet).
    pub fn stats_build_id(&self) -> u64 {
        self.snapshot.as_ref().map_or(0, |s| s.build_id)
    }

    /// Override the resolve-phase memo capacities — equality, range and
    /// LIKE (0 disables that memo; defaults 4096/4096/1024) — so
    /// individual memos can be switched off, e.g. a baseline benchmark
    /// keeping the equality memo while disabling the range and LIKE
    /// memos. Existing memoized entries are discarded; intended for tests
    /// and tuning.
    pub fn with_memo_capacities(mut self, eq: usize, range: usize, like: usize) -> Self {
        self.memos = Memos::with_capacities(eq, range, like);
        self
    }

    /// Override the literal-cache capacity (default 8192 entries across
    /// bound and conditioned kinds; 0 disables literal caching — every
    /// query resolves and assembles as if each literal vector were fresh).
    pub fn with_literal_capacity(mut self, capacity: usize) -> Self {
        self.lit_cache = LitCache::with_capacity(capacity);
        self
    }

    /// Toggle [`PhaseBreakdown`] accumulation (benchmark instrumentation).
    pub fn set_phase_timing(&mut self, on: bool) {
        self.timing = on;
    }

    /// The accumulated phase timings (zeros unless
    /// [`BoundSession::set_phase_timing`] was on).
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        self.phases
    }

    /// Re-target the session at a (different) snapshot: cached shapes,
    /// slots, and memoized lookups are meaningless under any other build.
    fn attach(&mut self, snap: &Arc<StatsSnapshot>) {
        self.shapes.clear();
        self.index.clear();
        self.memos.clear();
        self.lit_cache.clear();
        self.snapshot = Some(snap.clone());
    }

    /// Evict the least-recently-used shape, keeping the hash index dense.
    fn evict_lru(&mut self) {
        let Some(victim) = self
            .shapes
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)
        else {
            return;
        };
        let hash = self.shapes[victim].hash;
        if let Some(bucket) = self.index.get_mut(&hash) {
            bucket.retain(|&i| i != victim);
            if bucket.is_empty() {
                self.index.remove(&hash);
            }
        }
        let last = self.shapes.len() - 1;
        self.shapes.swap_remove(victim);
        if victim != last {
            // The former tail moved into the vacated slot; re-point it.
            let moved_hash = self.shapes[victim].hash;
            if let Some(bucket) = self.index.get_mut(&moved_hash) {
                for i in bucket.iter_mut() {
                    if *i == last {
                        *i = victim;
                    }
                }
            }
        }
        self.shape_evictions += 1;
    }
}

/// Interior of a [`SafeBound`] handle: the published snapshot plus an
/// atomic mirror of its build id for the lock-free read fast path.
#[derive(Debug)]
struct StatsCell {
    /// Mirrors `current.build_id`; readers whose session already holds the
    /// matching snapshot skip the mutex entirely.
    build_id: AtomicU64,
    /// Number of [`SafeBound::swap_stats`] publications since creation
    /// (refresh observability: serving front-ends report it in `STATS`).
    swaps: AtomicU64,
    current: Mutex<Arc<StatsSnapshot>>,
}

/// The SafeBound estimator handle: a cheaply cloneable, thread-safe view
/// onto the current [`StatsSnapshot`].
///
/// Clone one handle per worker; all clones observe
/// [`SafeBound::swap_stats`] — the hot-swap a background rebuild uses to
/// publish fresh statistics without pausing readers. In-flight queries
/// keep the snapshot they started with alive through their session's
/// `Arc`; subsequent queries pick up the new build and repopulate their
/// session caches lazily.
#[derive(Debug, Clone)]
pub struct SafeBound {
    cell: Arc<StatsCell>,
}

impl SafeBound {
    /// Build SafeBound over a catalog (runs the offline phase).
    pub fn build(catalog: &Catalog, config: SafeBoundConfig) -> Self {
        let stats = crate::stats::SafeBoundBuilder::new(config).build(catalog);
        SafeBound::from_stats(stats)
    }

    /// Wrap pre-built statistics.
    pub fn from_stats(stats: StatsSnapshot) -> Self {
        let snap = Arc::new(stats);
        SafeBound {
            cell: Arc::new(StatsCell {
                build_id: AtomicU64::new(snap.build_id),
                swaps: AtomicU64::new(0),
                current: Mutex::new(snap),
            }),
        }
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<StatsSnapshot> {
        // Poison recovery: the slot only ever holds a fully formed Arc
        // (the swap is a single assignment), so a panic elsewhere while
        // the lock was held cannot leave it mid-update — keep serving.
        self.cell
            .current
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Build id of the currently published snapshot (one atomic load).
    pub fn build_id(&self) -> u64 {
        self.cell.build_id.load(Ordering::Acquire)
    }

    /// How many times [`SafeBound::swap_stats`] has published a new
    /// snapshot through this handle (shared by every clone).
    pub fn swap_count(&self) -> u64 {
        self.cell.swaps.load(Ordering::Acquire)
    }

    /// Publish a freshly built snapshot to every clone of this handle
    /// (hot swap; e.g. after a data refresh rebuilt statistics in the
    /// background). Readers are never paused: queries already running
    /// finish against the snapshot they started with, and each session
    /// flushes its caches lazily when it next observes the new build id.
    /// Returns the published snapshot.
    pub fn swap_stats(&self, stats: StatsSnapshot) -> Arc<StatsSnapshot> {
        let snap = Arc::new(stats);
        // Same poison-recovery argument as [`SafeBound::snapshot`].
        let mut cur = self
            .cell
            .current
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *cur = snap.clone();
        // Publish the id while holding the lock so a reader that sees the
        // new id and misses its session cache always finds the new Arc.
        self.cell.build_id.store(snap.build_id, Ordering::Release);
        self.cell.swaps.fetch_add(1, Ordering::AcqRel);
        drop(cur);
        snap
    }

    /// A guaranteed upper bound on the query's output cardinality.
    ///
    /// Convenience wrapper allocating a fresh [`BoundSession`] (the cold
    /// path); hot-path callers should hold a session and use
    /// [`SafeBound::bound_with_session`]. The throwaway session runs with
    /// the literal cache disabled — a single-query session can never hit
    /// it, so staging and memoizing literal vectors would be pure
    /// overhead.
    pub fn bound(&self, query: &Query) -> Result<f64, EstimateError> {
        self.bound_with_session(query, &mut BoundSession::default().with_literal_capacity(0))
    }

    /// [`SafeBound::bound`] with a caller-provided session: the query's
    /// shape is planned once and memoized, and all per-query intermediates
    /// live in the session's arenas. When the session already tracks the
    /// current build, this is lock-free (one atomic load).
    pub fn bound_with_session(
        &self,
        query: &Query,
        session: &mut BoundSession,
    ) -> Result<f64, EstimateError> {
        let current = self.build_id();
        let snap = match &session.snapshot {
            Some(s) if s.build_id == current => s.clone(),
            _ => self.snapshot(),
        };
        snap.bound_with_session(query, session)
    }

    /// The per-relaxation FDSB kernel inputs for a query, against the
    /// current snapshot; see [`StatsSnapshot::bound_inputs`].
    pub fn bound_inputs(
        &self,
        query: &Query,
    ) -> Result<Vec<(BoundPlan, Vec<RelationBoundStats>)>, EstimateError> {
        self.snapshot().bound_inputs(query)
    }
}

impl StatsSnapshot {
    /// A guaranteed upper bound on the query's output cardinality,
    /// evaluated directly against this shared snapshot with a per-worker
    /// session. This is the engine under [`SafeBound::bound_with_session`];
    /// serving threads that already hold an `Arc<StatsSnapshot>` can call
    /// it without going through a handle.
    pub fn bound_with_session(
        self: &Arc<Self>,
        query: &Query,
        session: &mut BoundSession,
    ) -> Result<f64, EstimateError> {
        // A session may outlive a statistics swap (data refresh): cached
        // plans' interned symbols, filter slots, and memoized lookups are
        // only valid against the build that produced them.
        if session
            .snapshot
            .as_ref()
            .is_none_or(|s| s.build_id != self.build_id)
        {
            session.attach(self);
        }
        self.bound_cached(query, session)
    }

    /// The cached-path evaluation (session already attached to `self`).
    ///
    /// The warm path runs in up to three tiers, each skipping everything
    /// below it:
    ///
    /// 1. **Bound cache** — an exact whole-query literal repeat returns
    ///    the memoized `f64` (no resolution, assembly, or kernel).
    /// 2. **Conditioned cache** — relations whose literal sub-vector
    ///    repeats copy their resolved [`CdsSet`] from the literal cache;
    ///    only genuinely fresh relations run MCV/histogram/n-gram
    ///    resolution.
    /// 3. **Branch-and-bound over relaxations** — the previous winner is
    ///    evaluated first to set a tight `best`; later relaxations share
    ///    the first candidate's per-column assembly through the
    ///    [`AssembleStage`] and abandon mid-kernel as soon as their
    ///    partial value is certified above `best`
    ///    ([`fdsb_with_cutoff`]).
    ///
    /// # Soundness of pruning
    ///
    /// The bound is the *min* over relaxations. A relaxation is only ever
    /// abandoned when a monotonically growing lower bound on its value —
    /// the product of its finished component totals times the running
    /// (non-negative, hence non-decreasing) integral of its final root
    /// sweep — exceeds the best complete candidate: partial products only
    /// ever grow from there, so the abandoned relaxation cannot win and
    /// the min is unchanged, bit for bit. Every quantity compared is
    /// computed in the same association order as the full evaluation,
    /// with an ulp margin on the comparison, so no rounding asymmetry can
    /// prune a would-be winner.
    fn bound_cached(
        &self,
        query: &Query,
        session: &mut BoundSession,
    ) -> Result<f64, EstimateError> {
        if query.num_relations() == 0 {
            return Ok(0.0);
        }
        let hash = query.shape_hash();
        session.tick += 1;
        let tick = session.tick;
        let cached = session.index.get(&hash).and_then(|bucket| {
            bucket
                .iter()
                .copied()
                .find(|&i| session.shapes[i].shape.same_shape(query))
        });
        let idx = match cached {
            Some(i) => {
                session.shape_hits += 1;
                session.shapes[i].last_used = tick;
                i
            }
            None => {
                session.shape_misses += 1;
                if session.shapes.len() >= session.shape_capacity {
                    session.evict_lru();
                }
                let uid = session.next_shape_uid;
                session.next_shape_uid += 1;
                let entry = self.build_shape_entry(query, hash, tick, uid);
                session.shapes.push(entry);
                let i = session.shapes.len() - 1;
                session.index.entry(hash).or_default().push(i);
                i
            }
        };

        let timing = session.timing;
        // lint: allow(determinism) -- opt-in phase timing: `timing` is
        // only true when the caller asked for a PhaseBreakdown
        let t_resolve = timing.then(Instant::now);
        let BoundSession {
            shapes,
            memos,
            lit_cache,
            lit_stage,
            asm_stage,
            kernel,
            cds,
            rel_stats,
            cond,
            pruned,
            phases,
            ..
        } = session;
        let entry = &shapes[idx];

        // Tier 1: exact whole-query literal repeat → memoized bound.
        let lit_enabled = lit_cache.enabled();
        if lit_enabled {
            stage_full_literals(query, lit_stage);
            if let Some(b) = lit_cache.lookup_bound(entry.uid, lit_stage.full_fp, &lit_stage.full) {
                if let Some(t) = t_resolve {
                    phases.resolve_ns += t.elapsed().as_nanos() as u64;
                    phases.queries += 1;
                }
                return Ok(b);
            }
            // Miss: stage the per-relation sub-vectors for tier 2.
            stage_rel_literals(entry, lit_stage);
        }

        // Tier 2: resolution, with per-relation conditioned-set reuse.
        self.resolve_relations(
            query,
            entry,
            cds,
            memos,
            lit_enabled.then_some((&mut *lit_cache, &*lit_stage)),
            cond,
        )?;
        if let Some(t) = t_resolve {
            phases.resolve_ns += t.elapsed().as_nanos() as u64;
        }

        // Tier 3: branch-and-bound over the relaxations, previous winner
        // first, assembly shared across candidates.
        let n = query.num_relations();
        while rel_stats.len() < n {
            rel_stats.push(RelationBoundStats::default());
        }
        let plans = &entry.plans;
        let multi = plans.len() > 1;
        if multi {
            asm_stage.begin(cds);
        }
        let first = if entry.last_winner < plans.len() {
            entry.last_winner
        } else {
            0
        };
        let mut best = f64::INFINITY;
        let mut winner = first;
        for k in 0..plans.len() {
            // Candidate order: `first`, then the rest in index order.
            let idx_k = if k == 0 {
                first
            } else if k - 1 < first {
                k - 1
            } else {
                k
            };
            let pe = &plans[idx_k];
            // lint: allow(determinism) -- opt-in phase timing: `timing`
            // is only true when the caller asked for a PhaseBreakdown
            let t_assemble = timing.then(Instant::now);
            for rel in 0..n {
                let ts = self
                    .tables
                    .get(&query.relations[rel].table)
                    // lint: allow(no-panic) -- resolution (which built
                    // `cond`) already returned Err for any unknown table
                    .expect("tables validated during resolution");
                assemble_into(
                    ts,
                    &cond[rel],
                    rel,
                    &pe.join_cols[rel],
                    &mut rel_stats[rel],
                    cds,
                    multi.then_some(&mut *asm_stage),
                );
            }
            // lint: allow(determinism) -- opt-in phase timing: `timing`
            // is only true when the caller asked for a PhaseBreakdown
            let t_kernel = timing.then(Instant::now);
            if let (Some(a), Some(b)) = (t_assemble, t_kernel) {
                phases.assemble_ns += (b - a).as_nanos() as u64;
            }
            match fdsb_with_cutoff(&pe.plan, &rel_stats[..n], kernel, best)? {
                Some(b) => {
                    if b < best {
                        best = b;
                        winner = idx_k;
                    }
                }
                None => *pruned += 1,
            }
            if let Some(t) = t_kernel {
                phases.kernel_ns += t.elapsed().as_nanos() as u64;
            }
        }
        let result = if best.is_finite() {
            best
        } else {
            // No Berge-acyclic relaxation survived (pathologically cyclic
            // query or an exhausted spanning-tree cap): degrade to the
            // cross-product of per-relation conditioned cardinality
            // bounds, which is always a sound upper bound.
            cond[..n].iter().map(|c| c.card).product()
        };
        if lit_enabled {
            lit_cache.insert_bound(entry.uid, lit_stage.full_fp, &lit_stage.full, result, cds);
        }
        if timing {
            phases.queries += 1;
        }
        shapes[idx].last_winner = winner;
        Ok(result)
    }

    /// The per-relaxation FDSB kernel inputs for a query — exactly what
    /// the bound evaluates (one `(plan, stats)` pair per acyclic
    /// relaxation; the bound is their minimum, with a cross-product
    /// fallback when the list is empty). Exposed so benchmarks and tests
    /// can drive [`crate::bound::fdsb_with_scratch`] and
    /// [`crate::bound::fdsb_reference`] on identical inputs. Shares the
    /// shape-building and assembly code with the cached path.
    pub fn bound_inputs(
        &self,
        query: &Query,
    ) -> Result<Vec<(BoundPlan, Vec<RelationBoundStats>)>, EstimateError> {
        if query.num_relations() == 0 {
            return Ok(Vec::new());
        }
        let entry = self.build_shape_entry(query, query.shape_hash(), 0, 0);
        let mut cds = CdsScratch::default();
        let mut memo = Memos::default();
        let mut cond = Vec::new();
        self.resolve_relations(query, &entry, &mut cds, &mut memo, None, &mut cond)?;
        let n = query.num_relations();
        let mut out = Vec::with_capacity(entry.plans.len());
        for pe in &entry.plans {
            let mut stats = Vec::with_capacity(n);
            #[allow(clippy::needless_range_loop)] // four parallel arrays indexed by relation
            for rel in 0..n {
                let ts = self
                    .tables
                    .get(&query.relations[rel].table)
                    // lint: allow(no-panic) -- resolution (which built
                    // `cond`) already returned Err for any unknown table
                    .expect("tables validated during resolution");
                let mut rs = RelationBoundStats::default();
                assemble_into(
                    ts,
                    &cond[rel],
                    rel,
                    &pe.join_cols[rel],
                    &mut rs,
                    &mut cds,
                    None,
                );
                stats.push(rs);
            }
            out.push((pe.plan.clone(), stats));
        }
        Ok(out)
    }

    /// Build the memoized artifacts for a query shape: enumerate spanning
    /// relaxations, plan the Berge-acyclic ones, resolve join columns to
    /// plan ids and interned symbols, and compile every predicate column —
    /// own and PK–FK-propagated (from the **original** query's edges) — to
    /// dense filter slots, so the per-query path never touches a string.
    ///
    /// Propagating along all original edges (rather than each
    /// relaxation's surviving subset) is sound: a fact row in the original
    /// result has, for every original edge with propagated statistics, a
    /// unique PK partner satisfying that dimension's predicate, so the
    /// conditioned row set still contains every result row — and sharing
    /// it across relaxations both tightens cyclic bounds and lets the
    /// resolution run once per query.
    fn build_shape_entry(&self, query: &Query, hash: u64, tick: u64, uid: u64) -> ShapeEntry {
        let relaxations =
            safebound_query::spanning_relaxations(query, self.config.spanning_tree_cap);
        let mut plans = Vec::new();
        for rq in &relaxations {
            let graph = JoinGraph::new(rq);
            if !graph.is_berge_acyclic() {
                continue;
            }
            let Ok(plan) = BoundPlan::build(rq, &graph) else {
                continue;
            };
            // Plan columns each relation contributes to join variables.
            // Column names resolve to plan ids and symbols here, once per
            // shape — never inside the bound evaluation.
            let mut join_cols: Vec<Vec<(ColId, Option<Sym>)>> =
                vec![Vec::new(); rq.num_relations()];
            for var in &graph.vars {
                for &(rel, ref col) in &var.attrs {
                    let Some(id) = plan.col_id(col) else { continue };
                    if !join_cols[rel].iter().any(|(i, _)| *i == id) {
                        join_cols[rel].push((id, self.symbols.lookup(col)));
                    }
                }
            }
            plans.push(PlanEntry { plan, join_cols });
        }

        let mut resolution: Vec<RelResolution> = (0..query.num_relations())
            .map(|_| RelResolution::default())
            .collect();
        #[allow(clippy::needless_range_loop)] // resolution parallels query.relations
        for rel in 0..query.num_relations() {
            let ts = self.tables.get(&query.relations[rel].table);
            resolution[rel].own = query
                .predicate_of(rel)
                .map(|p| compile_slots(p, &mut |c| ts.and_then(|t| t.filter_slot(c))));
        }
        for edge in &query.joins {
            if edge.left == edge.right {
                // A degenerate self-edge constrains a row against itself;
                // propagating the relation's own predicate through
                // cross-table statistics is unsound when the declared key
                // is dirty (duplicate values), so skip it — the join
                // graph ignores such edges too.
                continue;
            }
            let sides = [
                (edge.left, &edge.left_column, edge.right, &edge.right_column),
                (edge.right, &edge.right_column, edge.left, &edge.left_column),
            ];
            for (rel, my_col, other_rel, other_col) in sides {
                let Some(pred) = query.predicate_of(other_rel) else {
                    continue;
                };
                let ts = self.tables.get(&query.relations[rel].table);
                let other_table = &query.relations[other_rel].table;
                let slots = compile_slots(pred, &mut |c| {
                    ts.and_then(|t| {
                        t.filter_slot(&propagated_key(my_col, other_table, other_col, c))
                    })
                });
                // A propagation with no resolvable slot is a per-query
                // no-op; dropping it here keeps the resolution loop and
                // the literal-cache keys to what the relation reads.
                if slots.has_any() {
                    resolution[rel]
                        .propagations
                        .push(Propagation { other_rel, slots });
                }
            }
        }
        ShapeEntry {
            shape: query.clone(),
            hash,
            uid,
            last_used: tick,
            plans,
            last_winner: 0,
            resolution,
        }
    }

    /// Resolve every relation's predicates (own + propagated) into the
    /// session's conditioned-set slots. Runs once per query; the result is
    /// shared by all relaxations' assemblies. When `lit` carries the
    /// session's literal cache, relations whose literal sub-vector (own
    /// predicate plus every propagated source, staged by
    /// [`stage_rel_literals`]) repeats copy their conditioned set straight
    /// from the cache; fresh sub-vectors resolve and are memoized.
    fn resolve_relations(
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

            // A literal-free relation's resolution is trivial (row count
            // only); everything else probes the conditioned cache first.
            if let Some((cache, stage)) = lit.as_mut() {
                let bytes = &stage.rel_bytes[rel];
                if !bytes.is_empty() {
                    if let Some((set, has_cond, card)) =
                        cache.lookup_cond(entry.uid, rel as u32, stage.rel_fp[rel], bytes)
                    {
                        let rc = &mut cond[rel];
                        rc.has_cond = has_cond;
                        rc.cond_ref = None;
                        rc.card = card;
                        if has_cond {
                            cds.copy_set(set, &mut rc.set);
                        } else {
                            cds.clear_set(&mut rc.set);
                        }
                        continue;
                    }
                }
            }

            let rc = &mut cond[rel];
            rc.has_cond = false;
            // Clear the locator from whatever query used this slot last:
            // `cond_set` must never deref a stale index against another
            // relation's statistics (even the unconditioned insert path
            // below reads it).
            rc.cond_ref = None;

            // 1. Condition on the relation's own predicates.
            if let (Some(p), Some(slots)) =
                (query.predicate_of(rel), entry.resolution[rel].own.as_ref())
            {
                apply_compiled(ts, slots, p, cds, memo, rc);
            }

            // 2. PK–FK propagation: predicates on joined dimension tables,
            //    via the shape entry's pre-compiled slots.
            for prop in &entry.resolution[rel].propagations {
                let Some(pred) = query.predicate_of(prop.other_rel) else {
                    continue;
                };
                apply_compiled(ts, &prop.slots, pred, cds, memo, rc);
            }

            rc.card = ts.row_count as f64;
            if rc.has_cond {
                let s = rc.cond_set(ts);
                if !s.is_empty() {
                    rc.card = s.cardinality().min(rc.card);
                }
            }

            if let Some((cache, stage)) = lit.as_mut() {
                let bytes = &stage.rel_bytes[rel];
                if !bytes.is_empty() {
                    let rc = &cond[rel];
                    cache.insert_cond(
                        entry.uid,
                        rel as u32,
                        stage.rel_fp[rel],
                        bytes,
                        rc.cond_set(ts),
                        rc.has_cond,
                        rc.card,
                        cds,
                    );
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
    slots: &PredSlots,
    pred: &Predicate,
    cds: &mut CdsScratch,
    memo: &mut Memos,
    rc: &mut RelCond,
) {
    if !rc.has_cond {
        // First resolution writes the slot directly: every leaf resolver
        // overwrites `out` before reading it, so no staging set (and no
        // pool round-trip) is needed, and `rc.set`'s buffers are reused
        // in place by the arena copies. A borrowed resolution stores only
        // its locator — the copy-free steady state. On failure the slot
        // may hold stale entries — `has_cond` stays false, which gates
        // every read.
        match resolve_slots(
            &|s| ts.filter_at(s),
            Some(ts.table_sym),
            slots,
            pred,
            cds,
            memo,
            &mut rc.set,
        ) {
            Resolved::None => {}
            Resolved::Owned => {
                rc.cond_ref = None;
                rc.has_cond = true;
            }
            Resolved::Borrowed(_, r) => {
                rc.cond_ref = Some(r);
                rc.has_cond = true;
            }
        }
        return;
    }
    let mut tmp = cds.take_set();
    let r = resolve_slots(
        &|s| ts.filter_at(s),
        Some(ts.table_sym),
        slots,
        pred,
        cds,
        memo,
        &mut tmp,
    );
    if !matches!(r, Resolved::None) {
        // A second conditioning arrived: materialize a borrowed first
        // result, then fold pointwise. The values are identical to the
        // always-copy path — only the copies that never get combined are
        // skipped.
        if let Some(cr) = rc.cond_ref.take() {
            cds.copy_set(cr.deref(ts), &mut rc.set);
        }
        match r {
            Resolved::Borrowed(set, _) => rc.set.accumulate(set, SetOp::Min, cds),
            Resolved::Owned => rc.set.accumulate(&tmp, SetOp::Min, cds),
            Resolved::None => unreachable!(),
        }
    }
    cds.put_set(tmp);
}

/// MCV equality lookup, memoized when `memo_sym` names the owning table:
/// hot literals skip the Bloom/exact probe entirely, and `Default`/
/// single-`Group` answers (the common case) are served as borrows of the
/// stats-owned sets — no copy at all. Only multi-group max-envelopes are
/// materialized (and memoized) as owned sets.
fn memo_eq<'a>(
    fs: &'a FilterColumnStats,
    slot: u32,
    memo_sym: Option<Sym>,
    v: &Value,
    scratch: &mut CdsScratch,
    memo: &mut Memo<EqEntry>,
    out: &mut CdsSet,
) -> Resolved<'a> {
    let mcv = &fs.mcv;
    let serve = |o: McvOutcome| match o {
        McvOutcome::Default => Resolved::Borrowed(&mcv.default_set, CondRef::McvDefault { slot }),
        McvOutcome::Group(g) => Resolved::Borrowed(
            &mcv.groups[g as usize],
            CondRef::McvGroup { slot, group: g },
        ),
        McvOutcome::Owned => Resolved::Owned,
    };
    let Some(sym) = memo_sym else {
        return serve(mcv.lookup_eq_outcome(v, scratch, out));
    };
    let fp = value_fp(v);
    if let Some(e) = memo.lookup(sym, slot, fp, |e| e.value == *v) {
        if e.outcome == McvOutcome::Owned {
            scratch.copy_set(&e.set, out);
        }
        return serve(e.outcome);
    }
    let o = mcv.lookup_eq_outcome(v, scratch, out);
    if let Some(e) = memo.cache.claim((sym, slot), fp) {
        assign_value(&mut e.value, v);
        e.outcome = o;
        if o == McvOutcome::Owned {
            scratch.copy_set(out, &mut e.set);
        } else {
            scratch.clear_set(&mut e.set);
        }
    }
    serve(o)
}

/// Histogram range lookup, memoized when `memo_sym` names the owning
/// table: hot `[lo, hi]` pairs replay their covering group (or the
/// no-cover outcome) without walking the hierarchy, and a covered range
/// is always served as a borrow of the stats-owned group set — the range
/// path never copies.
fn memo_range<'a>(
    hist: &'a HistogramStats,
    slot: u32,
    memo_sym: Option<Sym>,
    lo: &Value,
    hi: &Value,
    memo: &mut Memo<RangeEntry>,
) -> Resolved<'a> {
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
    match group {
        Some(g) => Resolved::Borrowed(
            &hist.groups[g],
            CondRef::HistGroup {
                slot,
                group: g as u32,
            },
        ),
        None => Resolved::None,
    }
}

/// N-gram LIKE lookup into `out`, memoized when `memo_sym` names the
/// owning table: a hot pattern copies its memoized set through the arena
/// (or replays the no-gram outcome). Returns whether the pattern matched,
/// i.e. whether `out` holds a resolution.
fn memo_like(
    ng: &NgramStats,
    slot: u32,
    memo_sym: Option<Sym>,
    pattern: &str,
    scratch: &mut CdsScratch,
    memo: &mut Memo<LikeEntry>,
    out: &mut CdsSet,
) -> bool {
    let Some(sym) = memo_sym else {
        return ng.lookup_like_into(pattern, scratch, out);
    };
    let fp = litcache::fnv1a(pattern.as_bytes());
    if let Some(e) = memo.lookup(sym, slot, fp, |e| e.pattern == pattern) {
        if e.matched {
            scratch.copy_set(&e.set, out);
        }
        return e.matched;
    }
    let matched = ng.lookup_like_into(pattern, scratch, out);
    if let Some(e) = memo.cache.claim((sym, slot), fp) {
        e.pattern.clear();
        e.pattern.push_str(pattern);
        e.matched = matched;
        if matched {
            scratch.copy_set(out, &mut e.set);
        } else {
            scratch.clear_set(&mut e.set);
        }
    }
    matched
}

/// **The** predicate resolver: one copy of the soundness-critical
/// Eq/Cmp/Between/Like/In/And/Or logic, shared by the cached online path
/// and the string-keyed [`resolve_predicate`] adapter.
///
/// The slot tree mirrors the predicate's structure (guaranteed by the
/// shape cache on the cached path, by construction in the adapter), so
/// every leaf addresses its [`FilterColumnStats`] through `stats_at` by
/// dense index — no string lookups. Equality literals go through the memo
/// when `memo_sym` identifies the owning table (`None` disables
/// memoization for one-shot resolution).
///
/// A single leaf that resolves to a stats-owned group set returns it as a
/// [`Resolved::Borrowed`] locator — zero copies. Only combining nodes
/// (`In`/`And`/`Or` with more than one resolving child) materialize into
/// `out`; on [`Resolved::Owned`], `out` holds the answer. The accumulated
/// values are identical either way, so cross-tier bit-identity holds.
fn resolve_slots<'a>(
    stats_at: &impl Fn(u32) -> &'a FilterColumnStats,
    memo_sym: Option<Sym>,
    slots: &PredSlots,
    pred: &Predicate,
    scratch: &mut CdsScratch,
    memo: &mut Memos,
    out: &mut CdsSet,
) -> Resolved<'a> {
    match (pred, slots) {
        (Predicate::Eq(_, v), &PredSlots::Leaf(slot)) => {
            let Some(slot) = slot else {
                return Resolved::None;
            };
            memo_eq(
                stats_at(slot),
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
                fs.mcv.zero_set_into(scratch, out);
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
                fs.mcv.zero_set_into(scratch, out);
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
            if memo_like(ng, slot, memo_sym, pattern, scratch, &mut memo.like, out) {
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
                    state = memo_eq(fs, slot, memo_sym, v, scratch, &mut memo.eq, out);
                    continue;
                }
                // A second distinct literal: materialize a borrowed first
                // answer, then accumulate into `out`.
                if let Resolved::Borrowed(set, _) = state {
                    scratch.copy_set(set, out);
                    state = Resolved::Owned;
                }
                match memo_eq(fs, slot, memo_sym, v, scratch, &mut memo.eq, &mut tmp) {
                    Resolved::Borrowed(set, _) => out.accumulate(set, SetOp::Sum, scratch),
                    Resolved::Owned => out.accumulate(&tmp, SetOp::Sum, scratch),
                    Resolved::None => unreachable!("memo_eq always resolves"),
                }
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
                    state = resolve_slots(stats_at, memo_sym, s, p, scratch, memo, out);
                    continue;
                }
                let r = resolve_slots(stats_at, memo_sym, s, p, scratch, memo, &mut tmp);
                if matches!(r, Resolved::None) {
                    continue;
                }
                if let Resolved::Borrowed(set, _) = state {
                    scratch.copy_set(set, out);
                    state = Resolved::Owned;
                }
                match r {
                    Resolved::Borrowed(set, _) => out.accumulate(set, SetOp::Min, scratch),
                    Resolved::Owned => out.accumulate(&tmp, SetOp::Min, scratch),
                    Resolved::None => unreachable!(),
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
                if matches!(state, Resolved::None) {
                    state = resolve_slots(stats_at, memo_sym, s, p, scratch, memo, out);
                    if matches!(state, Resolved::None) {
                        ok = false;
                        break;
                    }
                    continue;
                }
                let r = resolve_slots(stats_at, memo_sym, s, p, scratch, memo, &mut tmp);
                if matches!(r, Resolved::None) {
                    ok = false;
                    break;
                }
                if let Resolved::Borrowed(set, _) = state {
                    scratch.copy_set(set, out);
                    state = Resolved::Owned;
                }
                match r {
                    Resolved::Borrowed(set, _) => out.accumulate(set, SetOp::Sum, scratch),
                    Resolved::Owned => out.accumulate(&tmp, SetOp::Sum, scratch),
                    Resolved::None => unreachable!(),
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

/// Combine base/conditioned/fallback CDSs into the FDSB input for one
/// relation, writing into a reused [`RelationBoundStats`] slot.
///
/// The assembled CDS per `(rel, sym)` is a pure function of the resolved
/// conditioning — independent of which relaxation's plan asks — so when
/// `stage` is provided (multi-relaxation queries), the first assembly of
/// each column is staged and later relaxations copy it bit-identically.
fn assemble_into(
    ts: &TableStats,
    rc: &RelCond,
    rel: usize,
    join_cols: &[(ColId, Option<Sym>)],
    out: &mut RelationBoundStats,
    cds: &mut CdsScratch,
    mut stage: Option<&mut AssembleStage>,
) {
    for slot in out.cds_by_column.iter_mut() {
        if let Some(p) = slot.take() {
            cds.put_pwl(p);
        }
    }
    // Cardinality bound: conditioned if available, else the row count
    // (precomputed during resolution).
    let card_bound = rc.card;
    out.cardinality = card_bound;
    for &(plan_col, sym) in join_cols {
        if let Some(stage) = stage.as_deref() {
            if let Some(p) = stage.get(rel, sym) {
                let mut dst = cds.take_pwl();
                dst.copy_from(p);
                out.set(plan_col, dst);
                continue;
            }
        }
        let conditioned = if rc.has_cond {
            sym.and_then(|s| rc.cond_set(ts).get(s))
        } else {
            None
        };
        let base = sym.and_then(|s| ts.base.get(s));
        let mut tmp = cds.take_pwl();
        let source = match (conditioned, base) {
            // Conditioned is already ≤ base in spirit; min for safety.
            (Some(c), Some(b)) => {
                c.pointwise_min_into(b, &mut tmp);
                &tmp
            }
            (Some(c), None) => c,
            (None, Some(b)) => b,
            (None, None) => {
                // Undeclared join column (§3.6): truncate the
                // unconditioned fallback at the filtered-cardinality
                // bound.
                match sym.and_then(|s| ts.fallback(s)) {
                    Some(f) => f,
                    None => {
                        // Unknown column: a key-shaped CDS of the whole
                        // table is the only sound default.
                        tmp.make_key(ts.row_count as f64);
                        &tmp
                    }
                }
            }
        };
        let mut dst = cds.take_pwl();
        source.truncate_at_into(card_bound, &mut dst);
        if let Some(stage) = stage.as_deref_mut() {
            let mut copy = cds.take_pwl();
            copy.copy_from(&dst);
            stage.entries.push((rel, sym, copy));
        }
        out.set(plan_col, dst);
        cds.put_pwl(tmp);
    }
}

/// Resolve a predicate tree to a conditioned CDS set via a column-stats
/// lookup. `None` means "no usable statistics" — the caller falls back to
/// unconditioned CDSs, which is always sound.
///
/// This string-keyed entry point (offline use, tests) is a thin adapter:
/// it compiles the predicate's columns into a transient leaf table and
/// delegates to the same resolver the cached online path runs, so the
/// soundness-critical Eq/Cmp/Between/Like/In/And/Or semantics exist in
/// exactly one place.
pub fn resolve_predicate<'a, F>(lookup: &F, pred: &Predicate) -> Option<CdsSet>
where
    F: Fn(&str) -> Option<&'a FilterColumnStats>,
{
    let mut leaves: Vec<&FilterColumnStats> = Vec::new();
    let slots = compile_slots(pred, &mut |c| {
        lookup(c).map(|fs| {
            leaves.push(fs);
            (leaves.len() - 1) as u32
        })
    });
    let mut scratch = CdsScratch::default();
    let mut memo = Memos::default();
    let mut out = CdsSet::default();
    match resolve_slots(
        &|s| leaves[s as usize],
        None,
        &slots,
        pred,
        &mut scratch,
        &mut memo,
        &mut out,
    ) {
        Resolved::None => None,
        Resolved::Owned => Some(out),
        Resolved::Borrowed(set, _) => {
            scratch.copy_set(set, &mut out);
            Some(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safebound_query::{parse_sql, JoinEdge, RelationRef};
    use safebound_storage::{Column, DataType, Field, Schema, Table, Value};

    /// Fact/dimension catalog: movie_keyword(movie_id, keyword_id) ⋈
    /// keyword(id, word); movies Zipf-skewed over keywords.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let kw_names = ["common", "frequent", "medium", "rare", "unique"];
        let kw = Table::new(
            "keyword",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("word", DataType::Str),
            ]),
            vec![
                Column::from_ints((1..=5).map(Some)),
                Column::from_strs(kw_names.map(Some)),
            ],
        );
        // keyword_id i appears 2^(6-i) times: 32,16,8,4,2 rows.
        let mut movie_ids = Vec::new();
        let mut kw_ids = Vec::new();
        let mut year = Vec::new();
        let mut mid = 0i64;
        for k in 1i64..=5 {
            let reps = 1 << (6 - k);
            for r in 0..reps {
                movie_ids.push(Some(mid % 20)); // movies repeat
                kw_ids.push(Some(k));
                year.push(Some(1980 + (r % 40)));
                mid += 1;
            }
        }
        let mk = Table::new(
            "movie_keyword",
            Schema::new(vec![
                Field::new("movie_id", DataType::Int),
                Field::new("keyword_id", DataType::Int),
                Field::new("year", DataType::Int),
            ]),
            vec![
                Column::from_ints(movie_ids),
                Column::from_ints(kw_ids),
                Column::from_ints(year),
            ],
        );
        c.add_table(kw);
        c.add_table(mk);
        c.declare_primary_key("keyword", "id");
        c.declare_foreign_key("movie_keyword", "keyword_id", "keyword", "id");
        c
    }

    fn true_count(cat: &Catalog, pred: impl Fn(i64, &str) -> bool) -> f64 {
        // |movie_keyword ⋈ keyword| with a predicate on (keyword_id, word).
        let mk = cat.table("movie_keyword").unwrap();
        let kw = cat.table("keyword").unwrap();
        let mut count = 0f64;
        for i in 0..mk.num_rows() {
            let kid = mk.column("keyword_id").unwrap().get(i).as_i64().unwrap();
            for j in 0..kw.num_rows() {
                let id = kw.column("id").unwrap().get(j).as_i64().unwrap();
                let word = kw.column("word").unwrap().get(j);
                if id == kid && pred(id, word.as_str().unwrap()) {
                    count += 1.0;
                }
            }
        }
        count
    }

    /// |movie_keyword ⋈ keyword| with a predicate on the fact `year`.
    fn true_count_year(cat: &Catalog, pred: impl Fn(i64) -> bool) -> f64 {
        let mk = cat.table("movie_keyword").unwrap();
        let kw = cat.table("keyword").unwrap();
        let mut count = 0f64;
        for i in 0..mk.num_rows() {
            let kid = mk.column("keyword_id").unwrap().get(i).as_i64().unwrap();
            let year = mk.column("year").unwrap().get(i).as_i64().unwrap();
            if !pred(year) {
                continue;
            }
            for j in 0..kw.num_rows() {
                if kw.column("id").unwrap().get(j).as_i64().unwrap() == kid {
                    count += 1.0;
                }
            }
        }
        count
    }

    fn build() -> (Catalog, SafeBound) {
        let cat = catalog();
        let sb = SafeBound::build(&cat, SafeBoundConfig::test_small());
        (cat, sb)
    }

    #[test]
    fn pk_fk_join_bound_sound_and_tight() {
        let (cat, sb) = build();
        let q = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k WHERE mk.keyword_id = k.id",
        )
        .unwrap();
        let bound = sb.bound(&q).unwrap();
        let truth = true_count(&cat, |_, _| true);
        assert!(bound >= truth - 1e-6, "bound {bound} < truth {truth}");
        assert!(bound <= truth * 1.5, "bound {bound} too loose vs {truth}");
    }

    #[test]
    fn dimension_predicate_propagates_to_fact() {
        let (cat, sb) = build();
        // 'rare' is keyword_id 4 with only 4 fact rows.
        let q = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND k.word = 'rare'",
        )
        .unwrap();
        let bound = sb.bound(&q).unwrap();
        let truth = true_count(&cat, |_, w| w == "rare");
        assert_eq!(truth, 4.0);
        assert!(bound >= truth - 1e-6, "bound {bound} < truth {truth}");
        // Without §4.2 propagation the bound would assume 'rare' maps to
        // the most frequent keyword (32 rows); with it we stay near 4.
        assert!(bound <= 8.0, "propagation failed: bound {bound}");
    }

    #[test]
    fn equality_predicate_on_fact_filter() {
        let (_, sb) = build();
        let q = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND mk.year = 1980",
        )
        .unwrap();
        let with_pred = sb.bound(&q).unwrap();
        let q_all = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k WHERE mk.keyword_id = k.id",
        )
        .unwrap();
        let without = sb.bound(&q_all).unwrap();
        assert!(
            with_pred < without,
            "predicate must reduce bound: {with_pred} vs {without}"
        );
    }

    #[test]
    fn range_predicate_reduces_bound() {
        let (_, sb) = build();
        let q = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND mk.year BETWEEN 1980 AND 1983",
        )
        .unwrap();
        let with_pred = sb.bound(&q).unwrap();
        let q_all = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k WHERE mk.keyword_id = k.id",
        )
        .unwrap();
        assert!(with_pred <= sb.bound(&q_all).unwrap());
    }

    #[test]
    fn single_table_bound_is_row_count() {
        let (cat, sb) = build();
        let q = parse_sql("SELECT COUNT(*) FROM movie_keyword").unwrap();
        let bound = sb.bound(&q).unwrap();
        assert!((bound - cat.table("movie_keyword").unwrap().num_rows() as f64).abs() < 1e-9);
    }

    #[test]
    fn in_predicate_sums() {
        let (cat, sb) = build();
        let q = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND k.word IN ('rare', 'unique')",
        )
        .unwrap();
        let bound = sb.bound(&q).unwrap();
        let truth = true_count(&cat, |_, w| w == "rare" || w == "unique");
        assert_eq!(truth, 6.0);
        assert!(bound >= truth - 1e-6);
        assert!(bound <= 20.0, "IN bound too loose: {bound}");
    }

    #[test]
    fn in_duplicate_literals_do_not_double_count() {
        let (_, sb) = build();
        let dup = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND k.word IN ('rare', 'rare')",
        )
        .unwrap();
        let single = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND k.word IN ('rare')",
        )
        .unwrap();
        let bd = sb.bound(&dup).unwrap();
        let bs = sb.bound(&single).unwrap();
        assert!(
            (bd - bs).abs() < 1e-9,
            "IN (x, x) must equal IN (x): {bd} vs {bs}"
        );
    }

    #[test]
    fn cyclic_query_uses_spanning_trees() {
        // Triangle self-join on movie_keyword: cyclic; bound = min over
        // spanning trees, must still be sound vs a quick upper sanity.
        let (_, sb) = build();
        let q = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword a, movie_keyword b, movie_keyword c \
             WHERE a.movie_id = b.movie_id AND b.keyword_id = c.keyword_id AND c.year = a.year",
        )
        .unwrap();
        let graph = JoinGraph::new(&q);
        assert!(!graph.is_berge_acyclic());
        let bound = sb.bound(&q).unwrap();
        assert!(bound.is_finite() && bound > 0.0);
    }

    #[test]
    fn undeclared_join_column_fallback() {
        let (_, sb) = build();
        // `year` is not a declared join column; §3.6 fallback applies.
        let q = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword a, movie_keyword b WHERE a.year = b.year",
        )
        .unwrap();
        let bound = sb.bound(&q).unwrap();
        assert!(bound.is_finite() && bound > 0.0);
    }

    #[test]
    fn unknown_table_errors() {
        let (_, sb) = build();
        let q = parse_sql("SELECT COUNT(*) FROM nonexistent").unwrap();
        assert!(matches!(sb.bound(&q), Err(EstimateError::UnknownTable(_))));
    }

    #[test]
    fn empty_query_is_zero() {
        let (_, sb) = build();
        assert_eq!(sb.bound(&Query::new()).unwrap(), 0.0);
    }

    #[test]
    fn never_underestimates_across_predicates() {
        // The soundness sweep: every supported predicate shape on the
        // dimension must keep bound ≥ truth.
        let (cat, sb) = build();
        for word in ["common", "frequent", "medium", "rare", "unique", "absent"] {
            let q = parse_sql(&format!(
                "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
                 WHERE mk.keyword_id = k.id AND k.word = '{word}'"
            ))
            .unwrap();
            let bound = sb.bound(&q).unwrap();
            let truth = true_count(&cat, |_, w| w == word);
            assert!(
                bound >= truth - 1e-6,
                "word {word}: bound {bound} < truth {truth}"
            );
        }
    }

    #[test]
    fn strict_and_out_of_domain_comparisons_stay_sound() {
        // `year` spans [1980, 2019]. Every operator × literal combination
        // (inside, at, and outside the domain) must keep bound ≥ truth —
        // the regression for the inclusive-range resolution of Lt/Gt and
        // the inverted ranges literals outside the domain used to create.
        let (cat, sb) = build();
        let mut session = BoundSession::default();
        for op in ["<", "<=", ">", ">="] {
            for lit in [1960i64, 1979, 1980, 1981, 2000, 2018, 2019, 2020, 2080] {
                let q = parse_sql(&format!(
                    "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
                     WHERE mk.keyword_id = k.id AND mk.year {op} {lit}"
                ))
                .unwrap();
                let bound = sb.bound_with_session(&q, &mut session).unwrap();
                let truth = true_count_year(&cat, |y| match op {
                    "<" => y < lit,
                    "<=" => y <= lit,
                    ">" => y > lit,
                    _ => y >= lit,
                });
                assert!(
                    bound >= truth - 1e-6,
                    "year {op} {lit}: bound {bound} < truth {truth}"
                );
            }
        }
    }

    #[test]
    fn provably_empty_ranges_bound_to_zero() {
        let (_, sb) = build();
        // `year` min is 1980 and max is 2019: these selections are empty
        // and the zero-set resolution must drive the bound to zero.
        for sql in [
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND mk.year < 1980",
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND mk.year > 2019",
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND mk.year BETWEEN 1990 AND 1985",
        ] {
            let q = parse_sql(sql).unwrap();
            let bound = sb.bound(&q).unwrap();
            assert!(bound.abs() < 1e-9, "{sql}: expected 0, got {bound}");
        }
    }

    #[test]
    fn aliased_self_join_with_predicates_is_sound() {
        let (cat, sb) = build();
        let q = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword a, movie_keyword b \
             WHERE a.keyword_id = b.keyword_id AND a.year = 1980",
        )
        .unwrap();
        let bound = sb.bound(&q).unwrap();
        // Exact count of the aliased self-join with the predicate on `a`.
        let mk = cat.table("movie_keyword").unwrap();
        let kid = mk.column("keyword_id").unwrap();
        let year = mk.column("year").unwrap();
        let mut truth = 0f64;
        for i in 0..mk.num_rows() {
            if year.get(i) != Value::Int(1980) {
                continue;
            }
            for j in 0..mk.num_rows() {
                if kid.get(i) == kid.get(j) {
                    truth += 1.0;
                }
            }
        }
        assert!(bound >= truth - 1e-6, "bound {bound} < truth {truth}");
    }

    #[test]
    fn degenerate_self_edge_is_ignored_for_propagation() {
        // A hand-built edge with left == right constrains a row against
        // itself; it must neither panic nor condition the relation through
        // its own predicate via cross-table propagated stats. The bound
        // must match the same query without the degenerate edge.
        let (cat, sb) = build();
        let mut q = Query::new();
        let mk = q.add_relation(RelationRef::new("movie_keyword"));
        q.joins.push(JoinEdge {
            left: mk,
            left_column: "keyword_id".to_string(),
            right: mk,
            right_column: "movie_id".to_string(),
        });
        q.add_predicate(mk, Predicate::Eq("year".to_string(), Value::Int(1980)));
        let with_edge = sb.bound(&q).unwrap();

        let mut q2 = Query::new();
        let mk2 = q2.add_relation(RelationRef::new("movie_keyword"));
        q2.add_predicate(mk2, Predicate::Eq("year".to_string(), Value::Int(1980)));
        let without_edge = sb.bound(&q2).unwrap();
        assert!(
            (with_edge - without_edge).abs() < 1e-9,
            "degenerate self-edge changed the bound: {with_edge} vs {without_edge}"
        );
        // And both dominate the (row-local) truth.
        let t = cat.table("movie_keyword").unwrap();
        let mut truth = 0f64;
        for i in 0..t.num_rows() {
            if t.column("year").unwrap().get(i) == Value::Int(1980)
                && t.column("keyword_id").unwrap().get(i) == t.column("movie_id").unwrap().get(i)
            {
                truth += 1.0;
            }
        }
        assert!(with_edge >= truth - 1e-6);
    }

    #[test]
    fn cross_product_fallback_when_no_relaxation_survives() {
        // With the spanning-tree cap at 0 a cyclic query keeps its cycle,
        // no plan survives, and the estimator must degrade to the
        // cross-product bound instead of erroring.
        let cat = catalog();
        let mut cfg = SafeBoundConfig::test_small();
        cfg.spanning_tree_cap = 0;
        let sb = SafeBound::build(&cat, cfg);
        let q = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword a, movie_keyword b, movie_keyword c \
             WHERE a.movie_id = b.movie_id AND b.keyword_id = c.keyword_id AND c.year = a.year",
        )
        .unwrap();
        assert!(!JoinGraph::new(&q).is_berge_acyclic());
        let bound = sb.bound(&q).unwrap();
        let rows = cat.table("movie_keyword").unwrap().num_rows() as f64;
        assert!(
            (bound - rows * rows * rows).abs() < 1e-6,
            "expected cross-product {}, got {bound}",
            rows * rows * rows
        );
        // A predicate tightens the fallback through conditioned cards.
        let qp = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword a, movie_keyword b, movie_keyword c \
             WHERE a.movie_id = b.movie_id AND b.keyword_id = c.keyword_id AND c.year = a.year \
             AND a.year = 1980",
        )
        .unwrap();
        let bp = sb.bound(&qp).unwrap();
        assert!(bp <= bound + 1e-9, "conditioned fallback {bp} > {bound}");
    }

    #[test]
    fn shape_cache_reuses_plans_across_literals() {
        let (cat, sb) = build();
        let mut session = BoundSession::default();
        let words = ["common", "frequent", "medium", "rare", "unique"];
        for (i, word) in words.iter().enumerate() {
            let q = parse_sql(&format!(
                "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
                 WHERE mk.keyword_id = k.id AND k.word = '{word}'"
            ))
            .unwrap();
            let cached = sb.bound_with_session(&q, &mut session).unwrap();
            let cold = sb.bound(&q).unwrap();
            assert!(
                (cached - cold).abs() <= 1e-9 * cold.abs().max(1.0),
                "word {word}: cached {cached} != cold {cold}"
            );
            let truth = true_count(&cat, |_, w| w == *word);
            assert!(cached >= truth - 1e-6);
            // One miss on the first template instance, hits afterwards.
            assert_eq!(session.stats().shape_misses, 1, "iteration {i}");
            assert_eq!(session.stats().shape_hits, i as u64);
        }
        assert_eq!(session.cached_shapes(), 1);
        // Five distinct literal vectors: the bound cache missed each once.
        assert_eq!(session.stats().lit_bound_misses, 5);
        assert_eq!(session.stats().lit_bound_hits, 0);
    }

    #[test]
    fn session_serves_interleaved_shapes() {
        let (_, sb) = build();
        let mut session = BoundSession::default();
        let q1 = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k WHERE mk.keyword_id = k.id",
        )
        .unwrap();
        let q2 = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND mk.year BETWEEN 1985 AND 1999",
        )
        .unwrap();
        let (b1, b2) = (sb.bound(&q1).unwrap(), sb.bound(&q2).unwrap());
        for _ in 0..4 {
            assert!((sb.bound_with_session(&q1, &mut session).unwrap() - b1).abs() < 1e-9);
            assert!((sb.bound_with_session(&q2, &mut session).unwrap() - b2).abs() < 1e-9);
        }
        assert_eq!(session.cached_shapes(), 2);
        assert_eq!(session.stats().shape_misses, 2);
        assert_eq!(session.stats().shape_hits, 6);
        // Rounds 2-4 repeated both literal vectors exactly.
        assert_eq!(session.stats().lit_bound_hits, 6);
    }

    #[test]
    fn session_flushes_on_stats_rebuild() {
        // A session warmed against one statistics build must not serve its
        // cached symbols/plans against another: results after a rebuild
        // must match a fresh session exactly.
        let cat = catalog();
        let sb1 = SafeBound::build(&cat, SafeBoundConfig::test_small());
        let mut cfg2 = SafeBoundConfig::test_small();
        cfg2.mcv_size = 3; // different build → different conditioning
        let sb2 = SafeBound::build(&cat, cfg2);
        assert_ne!(sb1.build_id(), sb2.build_id());

        let q = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND k.word = 'rare'",
        )
        .unwrap();
        let mut session = BoundSession::default();
        let warm1 = sb1.bound_with_session(&q, &mut session).unwrap();
        assert!((warm1 - sb1.bound(&q).unwrap()).abs() < 1e-9);
        // Swap estimators under the same session: cache must flush.
        let swapped = sb2.bound_with_session(&q, &mut session).unwrap();
        assert!((swapped - sb2.bound(&q).unwrap()).abs() < 1e-9);
        // And back again.
        let back = sb1.bound_with_session(&q, &mut session).unwrap();
        assert!((back - warm1).abs() < 1e-9);
    }

    #[test]
    fn swap_stats_hot_swaps_under_a_live_session() {
        // One handle, statistics swapped underneath a warm session: the
        // session must lazily flush and serve the new build's results,
        // bit-identical to a fresh estimator over the same snapshot.
        let cat = catalog();
        let sb = SafeBound::build(&cat, SafeBoundConfig::test_small());
        let mut cfg2 = SafeBoundConfig::test_small();
        cfg2.mcv_size = 3;
        let rebuilt = crate::stats::SafeBoundBuilder::new(cfg2).build(&cat);
        let reference2 = SafeBound::from_stats(rebuilt.clone());

        let q = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND k.word = 'rare'",
        )
        .unwrap();
        let mut session = BoundSession::default();
        let clone = sb.clone(); // clones observe the swap too
        let before = sb.bound_with_session(&q, &mut session).unwrap();
        assert!(before.is_finite());
        let old_id = sb.build_id();
        let warm_shapes = session.cached_shapes();
        assert!(warm_shapes > 0);

        sb.swap_stats(rebuilt);
        assert_ne!(sb.build_id(), old_id);
        assert_eq!(clone.build_id(), sb.build_id());

        let after = sb.bound_with_session(&q, &mut session).unwrap();
        let expect = reference2.bound(&q).unwrap();
        assert_eq!(after.to_bits(), expect.to_bits());
        assert_eq!(session.stats_build_id(), sb.build_id());
        let via_clone = clone.bound(&q).unwrap();
        assert_eq!(via_clone.to_bits(), expect.to_bits());
    }

    #[test]
    fn shape_cache_evicts_least_recently_used() {
        let (_, sb) = build();
        let mut session = BoundSession::with_shape_capacity(2);
        let qa = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k WHERE mk.keyword_id = k.id",
        )
        .unwrap();
        let qb = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND k.word = 'rare'",
        )
        .unwrap();
        let qc = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND mk.year BETWEEN 1985 AND 1999",
        )
        .unwrap();
        let (ba, bb, bc) = (
            sb.bound(&qa).unwrap(),
            sb.bound(&qb).unwrap(),
            sb.bound(&qc).unwrap(),
        );
        let run = |s: &mut BoundSession, q: &Query, want: f64| {
            let got = sb.bound_with_session(q, s).unwrap();
            assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0));
        };
        run(&mut session, &qa, ba); // miss (A)
        run(&mut session, &qb, bb); // miss (A, B) — at capacity
        run(&mut session, &qa, ba); // hit: A now more recent than B
        run(&mut session, &qc, bc); // miss: evicts B (LRU), keeps A
        let s = session.stats();
        assert_eq!((s.shape_misses, s.shape_evictions), (3, 1));
        run(&mut session, &qa, ba); // hit: A survived
        assert_eq!(session.stats().shape_hits, 2);
        run(&mut session, &qb, bb); // miss again: B was evicted; evicts C
        let s = session.stats();
        assert_eq!((s.shape_misses, s.shape_evictions), (4, 2));
        run(&mut session, &qc, bc); // miss: C was evicted
        let s = session.stats();
        assert_eq!((s.shape_misses, s.shape_evictions), (5, 3));
        assert_eq!(session.cached_shapes(), 2);
    }

    #[test]
    fn eq_memo_serves_hot_literals() {
        let (_, sb) = build();
        // Literal caching off: this test pins the MCV memo underneath it.
        let mut session = BoundSession::default().with_literal_capacity(0);
        let q = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND k.word = 'rare'",
        )
        .unwrap();
        let first = sb.bound_with_session(&q, &mut session).unwrap();
        assert_eq!(session.stats().eq_memo_hits, 0);
        let misses_after_first = session.stats().eq_memo_misses;
        assert!(misses_after_first > 0, "first literal must miss the memo");
        let second = sb.bound_with_session(&q, &mut session).unwrap();
        assert_eq!(first.to_bits(), second.to_bits());
        assert!(
            session.stats().eq_memo_hits >= misses_after_first,
            "repeat literal must hit the memo"
        );
        assert_eq!(session.stats().eq_memo_misses, misses_after_first);
        // A different literal misses, then hits, without disturbing the
        // first entry's cached result.
        let q2 = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND k.word = 'common'",
        )
        .unwrap();
        let other = sb.bound_with_session(&q2, &mut session).unwrap();
        assert!(session.stats().eq_memo_misses > misses_after_first);
        assert_eq!(
            sb.bound(&q2).unwrap().to_bits(),
            other.to_bits(),
            "memoized path must match cold path"
        );
        let third = sb.bound_with_session(&q, &mut session).unwrap();
        assert_eq!(first.to_bits(), third.to_bits());
    }

    #[test]
    fn eq_memo_admits_hot_literals_after_saturation() {
        // End-to-end regression for the frozen-memo bug: a literal first
        // seen after the memo saturates must still become a memo hit.
        let (_, sb) = build();
        // Literal caching off: pin the MCV memo, not the literal cache.
        let mut session = BoundSession::default()
            .with_memo_capacities(4, 4, 4)
            .with_literal_capacity(0);
        // Saturate the memo with a churn of distinct literals (each query
        // memoizes the dimension literal and its propagated counterpart).
        for year in 0..8 {
            let q = parse_sql(&format!(
                "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
                 WHERE mk.keyword_id = k.id AND mk.year = {}",
                1980 + year
            ))
            .unwrap();
            sb.bound_with_session(&q, &mut session).unwrap();
        }
        assert!(session.stats().eq_memo_evictions > 0, "churn must evict");
        // A literal that never appeared before saturation turns hot now.
        let late = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND k.word = 'rare'",
        )
        .unwrap();
        let cold = sb.bound(&late).unwrap();
        let first = sb.bound_with_session(&late, &mut session).unwrap();
        let hits_before = session.stats().eq_memo_hits;
        let second = sb.bound_with_session(&late, &mut session).unwrap();
        assert!(
            session.stats().eq_memo_hits > hits_before,
            "late-arriving hot literal must enter the memo and hit"
        );
        assert_eq!(first.to_bits(), cold.to_bits());
        assert_eq!(second.to_bits(), cold.to_bits());
    }

    #[test]
    fn literal_cache_serves_exact_repeats() {
        let (_, sb) = build();
        let mut session = BoundSession::default();
        let q = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND k.word = 'rare'",
        )
        .unwrap();
        let first = sb.bound_with_session(&q, &mut session).unwrap();
        assert_eq!(session.stats().lit_bound_hits, 0);
        assert_eq!(session.stats().lit_bound_misses, 1);
        let second = sb.bound_with_session(&q, &mut session).unwrap();
        assert_eq!(first.to_bits(), second.to_bits());
        assert_eq!(session.stats().lit_bound_hits, 1);
        // The repeat skipped resolution entirely: no further memo traffic.
        let memo_after_first = session.stats().eq_memo_misses + session.stats().eq_memo_hits;
        sb.bound_with_session(&q, &mut session).unwrap();
        assert_eq!(
            session.stats().eq_memo_misses + session.stats().eq_memo_hits,
            memo_after_first,
            "a bound-cache hit must not touch the MCV machinery"
        );
    }

    #[test]
    fn literal_cond_cache_reuses_per_relation_resolution() {
        let (_, sb) = build();
        let mut session = BoundSession::default();
        // Same dimension literal, varying fact literal: the dimension
        // relation's conditioned set (and the fact's propagated one) can
        // only be reused where the relevant sub-vector actually repeats.
        for year in 0..4 {
            let q = parse_sql(&format!(
                "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
                 WHERE mk.keyword_id = k.id AND mk.year = {} AND k.word = 'rare'",
                1980 + year
            ))
            .unwrap();
            let got = sb.bound_with_session(&q, &mut session).unwrap();
            let cold = sb.bound(&q).unwrap();
            assert_eq!(got.to_bits(), cold.to_bits(), "year {year}");
        }
        let stats = session.stats();
        assert_eq!(stats.lit_bound_hits, 0, "all four literal vectors differ");
        // keyword's sub-vector is ('rare') every time — propagation into
        // movie_keyword carries the year, so only the dimension side
        // repeats: 3 conditioned hits.
        assert_eq!(stats.lit_cond_hits, 3);
    }

    #[test]
    fn literal_cache_flushes_on_stats_swap() {
        let cat = catalog();
        let sb = SafeBound::build(&cat, SafeBoundConfig::test_small());
        let mut cfg2 = SafeBoundConfig::test_small();
        cfg2.mcv_size = 3;
        let rebuilt = crate::stats::SafeBoundBuilder::new(cfg2).build(&cat);
        let reference2 = SafeBound::from_stats(rebuilt.clone());

        let q = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND k.word = 'rare'",
        )
        .unwrap();
        let mut session = BoundSession::default();
        sb.bound_with_session(&q, &mut session).unwrap();
        let warm = sb.bound_with_session(&q, &mut session).unwrap();
        assert_eq!(session.stats().lit_bound_hits, 1);

        sb.swap_stats(rebuilt);
        let misses_before = session.stats().lit_bound_misses;
        let after = sb.bound_with_session(&q, &mut session).unwrap();
        let expect = reference2.bound(&q).unwrap();
        assert_eq!(
            after.to_bits(),
            expect.to_bits(),
            "a swapped build must not serve the old build's cached bound"
        );
        assert!(warm.is_finite());
        // The flush is observable: the post-swap query missed the (empty)
        // bound cache instead of hitting the stale entry.
        let stats = session.stats();
        assert_eq!(stats.lit_bound_misses, misses_before + 1);
        assert_eq!(stats.lit_bound_hits, 1);
    }

    #[test]
    fn pruned_relaxations_never_change_the_min() {
        // Cyclic triangle: three spanning-tree relaxations. Branch-and-
        // bound (previous winner first, certified mid-kernel abandons)
        // must return exactly the min the independent unpruned inputs
        // evaluate to — for every literal instantiation.
        let (_, sb) = build();
        // Literal cache off so every round actually runs the B&B loop.
        let mut session = BoundSession::default().with_literal_capacity(0);
        for round in 0..3 {
            for year in [1980i64, 1985, 1990, 1995] {
                let q = parse_sql(&format!(
                    "SELECT COUNT(*) FROM movie_keyword a, movie_keyword b, movie_keyword c \
                     WHERE a.movie_id = b.movie_id AND b.keyword_id = c.keyword_id \
                     AND c.year = a.year AND a.year >= {year}"
                ))
                .unwrap();
                let inputs = sb.bound_inputs(&q).unwrap();
                assert!(inputs.len() > 1, "triangle must have several relaxations");
                let oracle = inputs
                    .iter()
                    .map(|(plan, stats)| crate::bound::fdsb(plan, stats).unwrap())
                    .fold(f64::INFINITY, f64::min);
                let got = sb.bound_with_session(&q, &mut session).unwrap();
                assert_eq!(
                    got.to_bits(),
                    oracle.to_bits(),
                    "round {round} year {year}: pruned path diverged from unpruned min"
                );
            }
        }
        assert!(
            session.stats().relaxations_pruned > 0,
            "repeated templates must abandon losing relaxations: {:?}",
            session.stats()
        );
    }

    #[test]
    fn bound_inputs_match_session_bound() {
        // The exposed kernel inputs must evaluate to exactly the bound the
        // cached path returns (they share shape building and assembly).
        let (_, sb) = build();
        let mut session = BoundSession::default();
        for sql in [
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k WHERE mk.keyword_id = k.id",
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND k.word = 'rare'",
            "SELECT COUNT(*) FROM movie_keyword a, movie_keyword b, movie_keyword c \
             WHERE a.movie_id = b.movie_id AND b.keyword_id = c.keyword_id AND c.year = a.year",
        ] {
            let q = parse_sql(sql).unwrap();
            let inputs = sb.bound_inputs(&q).unwrap();
            let min = inputs
                .iter()
                .map(|(plan, stats)| crate::bound::fdsb(plan, stats).unwrap())
                .fold(f64::INFINITY, f64::min);
            let bound = sb.bound_with_session(&q, &mut session).unwrap();
            assert!(
                (min - bound).abs() <= 1e-9 * bound.abs().max(1.0),
                "{sql}: inputs min {min} != bound {bound}"
            );
        }
    }
}
