//! A bound session's state: the shape cache with everything memoized per
//! query shape (literal-independent; built at most once per claimed shape
//! slot — into the slot the shape cache's clock recycled, when the first
//! bound has to be computed under it — and reused per query), the literal
//! cache and the resolve memos, the counters, and [`BoundSession`] itself.

use super::resolve::RelCond;
use crate::bound::{BoundScratch, RelationBoundStats};
use crate::clock_cache::ClockCache;
use crate::conditioning::{CdsScratch, CdsSet, McvOutcome};
use crate::stats::{StatsSnapshot, TableStats};
use crate::symbol::Sym;
use safebound_query::{for_each_spanning_forest, BoundPlan, ColId, JoinGraph, Predicate, Query};
use safebound_storage::Value;
use std::sync::Arc;

/// Default shape-cache capacity (a backstop against unbounded growth under
/// adversarial non-repeating traffic; real template workloads stay far
/// below it). At capacity a clock sweep recycles a cold shape's slot.
const MAX_CACHED_SHAPES: usize = 1024;

/// Cap on memoized per-literal MCV equality lookups per session (bounds
/// session memory under adversarial literal churn). At capacity a clock
/// sweep evicts cold entries, so late-arriving hot literals still enter.
const MAX_EQ_MEMO_VALUES: usize = 4096;

/// Cap on memoized LIKE resolutions per session. Each entry carries a
/// resolved [`CdsSet`], so the cap is tighter than the scalar memos.
const MAX_LIKE_MEMO_VALUES: usize = 1024;

/// Default capacity of the per-session literal cache (whole-query bound
/// entries; see [`LitEntry`]). Clock-evicted at capacity, like the memos,
/// and the same cap as the equality memo.
const MAX_LIT_ENTRIES: usize = 4096;

/// Everything memoized for one query shape: the surviving acyclic
/// relaxations' plans plus the literal-independent resolution directives.
/// The payload of the session's shape [`ClockCache`], fingerprinted by
/// [`Query::shape_hash`] and verified by comparing `key`. A claimed slot
/// holds its key only; [`StatsSnapshot::build_shape_entry`] overwrites the
/// rest in place when a bound first has to be computed under it.
#[derive(Debug, Default)]
pub(super) struct ShapeEntry {
    /// The shape's [`Query::shape_key_into`] bytes.
    pub(super) key: Vec<u8>,
    /// Whether everything below belongs to `key`. Until then it is the
    /// slot's previous tenant's and must not be read: exact repeats are
    /// answered from the literal cache without it.
    pub(super) built: bool,
    /// One plan per Berge-acyclic relaxation that planned successfully.
    pub(super) plans: Vec<PlanEntry>,
    /// Per relation of the original query: compiled predicate-resolution
    /// directives (shared by every relaxation).
    pub(super) resolution: Vec<RelResolution>,
}

/// A planned relaxation with its join-column resolution.
#[derive(Debug, Default)]
pub(super) struct PlanEntry {
    pub(super) plan: BoundPlan,
    /// Per relation: `(plan column id, interned stats symbol)` for every
    /// join column the plan references on that relation. `None` symbols
    /// are columns unknown to the statistics (assembled as a key-shaped
    /// whole-table CDS, §3.6).
    pub(super) join_cols: Vec<Vec<(ColId, Option<Sym>)>>,
}

/// Literal-independent resolution directives for one relation.
#[derive(Debug, Default)]
pub(super) struct RelResolution {
    /// The relation's own predicate, compiled to filter slots.
    pub(super) own: Option<PredSlots>,
    /// Predicates on other relations reachable through one original-query
    /// join edge, compiled against the fact side's propagated-key slots.
    pub(super) propagations: Vec<Propagation>,
}

/// One PK–FK propagation source (§4.2).
#[derive(Debug)]
pub(super) struct Propagation {
    /// The joined relation whose predicate propagates here.
    pub(super) other_rel: usize,
    /// The propagating predicate compiled to this relation's
    /// [`propagated_key`] filter slots (the composite-key lookups happen
    /// once per shape, never per query).
    ///
    /// [`propagated_key`]: crate::stats::propagated_key
    pub(super) slots: PredSlots,
}

/// A predicate tree's column references compiled to dense filter slots in
/// the owning relation's [`TableStats`]. Mirrors the [`Predicate`]
/// structure so resolution walks both trees in lockstep; `None` leaves are
/// columns with no usable statistics.
///
/// [`TableStats`]: crate::stats::TableStats
#[derive(Debug)]
pub(super) enum PredSlots {
    /// One comparison leaf (`Eq`/`Cmp`/`Between`/`Like`/`In`).
    Leaf(Option<u32>),
    /// An `And`/`Or` node's children, in order.
    Node(Vec<PredSlots>),
}

impl PredSlots {
    /// Whether any leaf resolved to a usable filter slot. A tree with none
    /// can never condition anything (`resolve_slots` returns
    /// `Resolved::None` on every path), so callers drop such directives at
    /// shape build and the per-query resolution loop skips the no-op
    /// walk.
    fn has_any(&self) -> bool {
        match self {
            PredSlots::Leaf(slot) => slot.is_some(),
            PredSlots::Node(children) => children.iter().any(PredSlots::has_any),
        }
    }
}

/// Compile a predicate tree's column names through a slot lookup.
pub(super) fn compile_slots(
    pred: &Predicate,
    lookup: &mut impl FnMut(&str) -> Option<u32>,
) -> PredSlots {
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

/// One session memo: a [`ClockCache`] plus its hit/miss tallies. The
/// resolve memos are owner-keyed by `(table symbol, filter slot)`, the
/// literal cache by `()`. A hit skips the work it memoizes entirely; at
/// capacity the clock recycles a cold entry, so entries that turn hot
/// late still enter — the memo never freezes. Flushed whenever the
/// session attaches to a different statistics build.
#[derive(Debug)]
pub(super) struct Memo<O, V> {
    pub(super) cache: ClockCache<O, V>,
    hits: u64,
    misses: u64,
}

impl<O: Copy + Eq + std::hash::Hash, V: Default> Memo<O, V> {
    fn with_capacity(capacity: usize) -> Self {
        Memo {
            cache: ClockCache::with_capacity(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// The memoized entry under `(owner, fp)` whose stored key `verify`
    /// accepts (see [`ClockCache::get`]), tallying the outcome. Every miss
    /// is followed by the real work and a [`ClockCache::claim`] of the
    /// slot to memoize it in.
    pub(super) fn lookup(
        &mut self,
        owner: O,
        fp: u64,
        verify: impl FnOnce(&V) -> bool,
    ) -> Option<&V> {
        let hit = self.cache.get(owner, fp, verify);
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }
}

/// A memoized whole-query bound: the **literal cache**'s entry. Its key is
/// the query's content — its shape key followed by its encoded literal
/// stream ([`super::resolve::stage_literals`]) — never an id of the shape
/// slot that computed it, so an entry outlives its shape's eviction. No
/// shape key is a proper prefix of another, so the concatenation is as
/// injective as the pair. Every hit compares the stored bytes with the
/// probe before serving, so a fingerprint collision costs a miss, never a
/// wrong bound.
#[derive(Debug, Default)]
pub(super) struct LitEntry {
    /// The key this entry answers. Capacity is retained when the clock
    /// recycles the slot.
    pub(super) bytes: Vec<u8>,
    /// The final bound.
    pub(super) bound: f64,
}

impl LitEntry {
    /// Overwrite a claimed slot. The key buffer grows to a power of two,
    /// so once a slot has held a key of each size class in the traffic it
    /// never grows again, however the clock deals keys to slots.
    pub(super) fn store(&mut self, key: &[u8], bound: f64) {
        self.bytes.clear();
        self.bytes.reserve(key.len().next_power_of_two());
        self.bytes.extend_from_slice(key);
        self.bound = bound;
    }
}

/// A memoized MCV equality lookup: hot literals (repeated equality / IN
/// values) skip the Bloom-filter probe and group-max.
#[derive(Debug, Default)]
pub(super) struct EqEntry {
    /// The literal, verified by `==` on every hit.
    pub(super) value: Value,
    /// Which stored set answered (`Default`/`Group` hits are served as
    /// borrows of the stats; only `Owned` envelopes live in `set`).
    pub(super) outcome: McvOutcome,
    /// The memoized max-envelope (meaningful only when `outcome` is
    /// [`McvOutcome::Owned`]).
    pub(super) set: CdsSet,
}

/// A memoized LIKE resolution: a hit skips gram extraction, the Bloom
/// probes, and the min-fold.
#[derive(Debug, Default)]
pub(super) struct LikeEntry {
    /// The pattern, verified by `==` on every hit.
    pub(super) pattern: String,
    /// Whether the pattern yielded at least one full gram.
    pub(super) matched: bool,
    /// Resolved set; empty (and ignored) when `matched` is false.
    pub(super) set: CdsSet,
}

/// The session's memos — the literal cache and the equality and LIKE
/// resolve memos — threaded through the engine as one bundle and flushed
/// together on [`BoundSession::attach`].
#[derive(Debug)]
pub(super) struct Memos {
    pub(super) lit: Memo<(), LitEntry>,
    pub(super) eq: Memo<(Sym, u32), EqEntry>,
    pub(super) like: Memo<(Sym, u32), LikeEntry>,
}

impl Default for Memos {
    fn default() -> Self {
        Memos {
            lit: Memo::with_capacity(MAX_LIT_ENTRIES),
            eq: Memo::with_capacity(MAX_EQ_MEMO_VALUES),
            like: Memo::with_capacity(MAX_LIKE_MEMO_VALUES),
        }
    }
}

impl Memos {
    fn clear(&mut self) {
        self.lit.cache.clear();
        self.eq.cache.clear();
        self.like.cache.clear();
    }
}

/// Declares every per-session counter exactly once — its doc, its name
/// and where [`BoundSession`] (bound to `$s`) reads it from — in the order
/// the serving layer's `STATS` line reports them. Generates
/// [`SessionStats`] with its `merge` and `fields`, and
/// [`BoundSession::stats`]. A counter whose cache is gone stays as a
/// frozen key that always reads `0` (`lit_cond_hits`, `lit_cond_misses`,
/// `range_memo_hits`, `range_memo_misses`, `range_memo_evictions`), so
/// the `STATS` key list never changes under a client.
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
            /// Field-wise accumulate (aggregating several sessions, or
            /// the takes of a serving pool's sessions).
            pub fn merge(&mut self, other: &SessionStats) {
                $(self.$name += other.$name;)*
            }

            /// Field-wise `self - earlier`: what a session counted since
            /// `earlier` was read from it. A session's counters never go
            /// backwards (clearing a cache keeps its counts), so the plain
            /// subtraction cannot underflow; a debug build would panic here
            /// if one ever did.
            pub fn since(&self, earlier: &SessionStats) -> SessionStats {
                SessionStats { $($name: self.$name - earlier.$name,)* }
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
    /// Shape-cache misses (slot claims; a claimed slot's plans are built
    /// only if a bound has to be computed under it).
    shape_misses = s.shape_misses,
    /// Shape slots recycled by the shape cache's clock.
    shape_evictions = s.shapes.evictions(),
    /// Whole-query literal repeats served straight from the bound cache
    /// (no resolution, no assembly, no kernel).
    lit_bound_hits = s.memos.lit.hits,
    /// Whole-query literal vectors that had to be computed.
    lit_bound_misses = s.memos.lit.misses,
    /// Frozen at 0: the literal cache holds whole-query bounds only. The
    /// key keeps its `STATS` position so existing parsers stay valid.
    lit_cond_hits = 0,
    /// Frozen at 0, like `lit_cond_hits`.
    lit_cond_misses = 0,
    /// Literal-cache (bound) entries recycled by its clock.
    lit_evictions = s.memos.lit.cache.evictions(),
    /// Hot-literal MCV memo hits.
    eq_memo_hits = s.memos.eq.hits,
    /// MCV lookups that went to the Bloom/group machinery.
    eq_memo_misses = s.memos.eq.misses,
    /// MCV memo entries recycled by its clock.
    eq_memo_evictions = s.memos.eq.cache.evictions(),
    /// Frozen at 0: range lookups are not memoized (each walks the
    /// histogram levels). The key keeps its `STATS` position so existing
    /// parsers stay valid.
    range_memo_hits = 0,
    /// Frozen at 0, like `range_memo_hits`.
    range_memo_misses = 0,
    /// Frozen at 0, like `range_memo_hits`.
    range_memo_evictions = 0,
    /// LIKE memo hits (gram extraction and min-fold skipped).
    like_memo_hits = s.memos.like.hits,
    /// LIKE patterns that had to be resolved.
    like_memo_misses = s.memos.like.misses,
    /// LIKE memo entries recycled by its clock.
    like_memo_evictions = s.memos.like.cache.evictions(),
    /// Frozen at 0: every relaxation is evaluated and the bound is the
    /// min. The key keeps its `STATS` position so existing parsers stay
    /// valid.
    relaxations_pruned = 0,
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

/// Reusable state for the online path: the query-shape plan/relaxation
/// cache, the **literal cache** (whole-query bounds, see
/// [`crate::estimator`]), the resolve memos, and every arena the online
/// path writes into ([`BoundScratch`] for the kernel, [`CdsScratch`] for
/// predicate resolution and assembly, pooled per-relation stats). A
/// session serves one caller at a time; a warm session allocates nothing
/// per query on the cached path.
///
/// A session also pins the [`StatsSnapshot`] it last served from, so a
/// concurrent [`SafeBound::swap_stats`] never invalidates statistics
/// mid-query; the session notices the new build id on its next call and
/// repopulates lazily.
///
/// [`SafeBound::swap_stats`]: super::SafeBound::swap_stats
#[derive(Debug)]
pub struct BoundSession {
    /// Snapshot the cached state was compiled against (`None` = fresh).
    pub(super) snapshot: Option<Arc<StatsSnapshot>>,
    /// The shape cache, keyed by [`Query::shape_hash`] alone.
    pub(super) shapes: ClockCache<(), ShapeEntry>,
    /// The current query's shape key, staged once and compared against
    /// [`ShapeEntry::key`], then — when the literal cache is on — its
    /// literal stream: together the key of a [`LitEntry`].
    pub(super) key: Vec<u8>,
    pub(super) memos: Memos,
    pub(super) kernel: BoundScratch,
    pub(super) cds: CdsScratch,
    pub(super) rel_stats: Vec<RelationBoundStats>,
    pub(super) cond: Vec<RelCond>,
    /// Whether to accumulate [`PhaseBreakdown`] timings.
    pub(super) timing: bool,
    pub(super) phases: PhaseBreakdown,
    /// Shape-cache hits since creation.
    pub(super) shape_hits: u64,
    /// Shape-cache misses (slot claims) since creation.
    pub(super) shape_misses: u64,
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

    /// A fresh session holding at most `capacity` cached shapes (min 1);
    /// beyond it a second-chance clock recycles a shape that was not hit
    /// since the hand last passed it.
    pub fn with_shape_capacity(capacity: usize) -> Self {
        BoundSession {
            snapshot: None,
            shapes: ClockCache::with_capacity(capacity.max(1)),
            key: Vec::new(),
            memos: Memos::default(),
            kernel: BoundScratch::default(),
            cds: CdsScratch::default(),
            rel_stats: Vec::new(),
            cond: Vec::new(),
            timing: false,
            phases: PhaseBreakdown::default(),
            shape_hits: 0,
            shape_misses: 0,
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

    /// Override the resolve-phase memo capacities — equality and LIKE (0
    /// disables that memo; defaults 4096/1024) — so individual memos can
    /// be switched off, e.g. a check keeping the equality memo while
    /// disabling the LIKE memo. Existing memoized entries are discarded;
    /// intended for tests and tuning.
    pub fn with_memo_capacities(mut self, eq: usize, like: usize) -> Self {
        self.memos.eq = Memo::with_capacity(eq);
        self.memos.like = Memo::with_capacity(like);
        self
    }

    /// Override the literal-cache capacity (default 4096 whole-query bound
    /// entries; 0 disables literal caching — every query resolves and
    /// assembles as if each literal vector were fresh).
    pub fn with_literal_capacity(mut self, capacity: usize) -> Self {
        self.memos.lit = Memo::with_capacity(capacity);
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
    pub(super) fn attach(&mut self, snap: &Arc<StatsSnapshot>) {
        self.shapes.clear();
        self.memos.clear();
        self.snapshot = Some(snap.clone());
    }
}

impl StatsSnapshot {
    /// Build the memoized artifacts for a query shape into `entry`,
    /// overwriting whatever it held besides its key (a default entry, or
    /// the clock's victim whose buffers are reused): enumerate spanning
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
    pub(super) fn build_shape_entry(&self, query: &Query, entry: &mut ShapeEntry) {
        entry.built = true;

        let n = query.num_relations();
        let plans = &mut entry.plans;
        let mut built = 0;
        for_each_spanning_forest(query, self.config.spanning_tree_cap, &mut |edges| {
            let graph = JoinGraph::from_edges(n, edges.iter().map(|&e| &query.joins[e]));
            if built == plans.len() {
                plans.reserve_exact(1); // most shapes have exactly one plan
                plans.push(PlanEntry::default());
            }
            let PlanEntry { plan, join_cols } = &mut plans[built];
            // A relaxation that is still Berge-cyclic has no plan.
            if plan.rebuild(n, &graph).is_err() {
                return;
            }
            // Plan columns each relation contributes to join variables.
            // Column names resolve to plan ids and symbols here, once per
            // shape — never inside the bound evaluation.
            join_cols.truncate(n);
            join_cols.iter_mut().for_each(Vec::clear);
            join_cols.reserve_exact(n - join_cols.len());
            join_cols.resize_with(n, Vec::new);
            for var in &graph.vars {
                for &(rel, col) in &var.attrs {
                    let Some(id) = plan.col_id(col) else { continue };
                    if !join_cols[rel].iter().any(|(i, _)| *i == id) {
                        join_cols[rel].push((id, self.symbols.lookup(col)));
                    }
                }
            }
            built += 1;
        });
        plans.truncate(built);

        let tables: Vec<Option<&TableStats>> = query
            .relations
            .iter()
            .map(|r| self.tables.get(&r.table))
            .collect();
        let resolution = &mut entry.resolution;
        resolution.truncate(n);
        resolution.reserve_exact(n - resolution.len());
        resolution.resize_with(n, RelResolution::default);
        for (rel, res) in resolution.iter_mut().enumerate() {
            res.propagations.clear();
            res.own = query
                .predicate_of(rel)
                .map(|p| compile_slots(p, &mut |c| tables[rel].and_then(|t| t.filter_slot(c))));
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
                let (Some(pred), Some(ts)) = (query.predicate_of(other_rel), tables[rel]) else {
                    continue;
                };
                let other_table = &query.relations[other_rel].table;
                let keyed = ts.propagated_slots(my_col, other_table, other_col);
                if keyed.is_empty() {
                    continue; // nothing propagates along this edge side
                }
                let slots = compile_slots(pred, &mut |c| keyed.slot(c));
                // A propagation with no resolvable slot is a per-query
                // no-op; dropping it here keeps the resolution loop to
                // what the relation reads.
                if slots.has_any() {
                    let props = &mut resolution[rel].propagations;
                    // Sized to fit: a relation has one or two of these.
                    props.reserve_exact(1);
                    props.push(Propagation { other_rel, slots });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup(c: &mut Memo<(), LitEntry>, fp: u64, key: &[u8]) -> Option<f64> {
        c.lookup((), fp, |e| e.bytes == key).map(|e| e.bound)
    }

    fn insert(c: &mut Memo<(), LitEntry>, fp: u64, key: &[u8], bound: f64) {
        if let Some(e) = c.cache.claim((), fp) {
            e.store(key, bound);
        }
    }

    #[test]
    fn literal_cache_roundtrip_and_collision_verification() {
        let mut c = Memo::with_capacity(4);
        assert!(lookup(&mut c, 7, b"shape\x01\x01").is_none());
        insert(&mut c, 7, b"shape\x01\x01", 42.0);
        assert_eq!(lookup(&mut c, 7, b"shape\x01\x01"), Some(42.0));
        // Same fingerprint, different bytes in either half: a collision
        // must miss.
        assert_eq!(lookup(&mut c, 7, b"shape\x02\x02"), None);
        assert_eq!(lookup(&mut c, 7, b"shapf\x01\x01"), None);
        assert_eq!((c.hits, c.misses), (1, 3));
    }

    #[test]
    fn a_disabled_literal_cache_never_stores() {
        let mut off = Memo::with_capacity(0);
        insert(&mut off, 5, b"same", 1.0);
        assert!(!off.cache.enabled());
        assert_eq!(lookup(&mut off, 5, b"same"), None);
    }

    #[test]
    fn a_recycled_literal_slot_is_fully_overwritten() {
        // Capacity 1: every insert recycles the one slot. Nothing of the
        // previous entry may leak into the next, even when the new key is
        // a prefix of the old one's bytes.
        let mut c = Memo::with_capacity(1);
        insert(&mut c, 1, b"shape\x01\x02", 3.0);
        assert_eq!(lookup(&mut c, 1, b"shape\x01\x02"), Some(3.0));
        insert(&mut c, 2, b"shape\x01", 7.0);
        assert_eq!(lookup(&mut c, 2, b"shape\x01"), Some(7.0));
        assert!(lookup(&mut c, 1, b"shape\x01\x02").is_none());
        assert_eq!(c.cache.evictions(), 1);
    }
}
