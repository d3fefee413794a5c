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
//!   cache, the literal cache (whole-query bounds), the equality and LIKE
//!   resolve memos — four instances of one `ClockCache`, all evicted by
//!   its second-chance clock — and every arena the online path writes
//!   into. Sessions detect a swapped snapshot by build id and repopulate
//!   lazily.
//!
//! The expensive per-query work splits into two halves with different
//! cacheability:
//!
//! * **Shape-dependent, literal-independent** — spanning-tree enumeration,
//!   join-graph construction, [`BoundPlan`] building, join-column
//!   resolution to interned ids, and predicate-column resolution to dense
//!   **filter slots** (including the PK–FK [`propagated_key`] composites,
//!   which are looked up only here). A [`BoundSession`] memoizes all of it
//!   per query *shape* — tables + join topology + predicate structure, not
//!   literals — so repeated query templates skip straight to predicate
//!   resolution + kernel with zero string lookups. The shape is
//!   identified by its **key** ([`Query::shape_key_into`]: a compact byte
//!   string equal exactly when [`Query::same_shape`] holds), staged once
//!   per query; [`Query::shape_hash`], the FNV of those bytes, is the
//!   cache fingerprint and a byte compare against the slot's stored key
//!   the verification. At capacity the clock recycles a shape that was
//!   not hit since its hand last passed — second chance, not LRU:
//!   one-shot shapes (an optimizer's sub-queries) evict each other, not
//!   the templates that repeat. A miss only *claims* the victim's slot for
//!   the new key; the plans are built — in place, over names borrowed from
//!   the query, relaxations as edge-index subsets, the victim's buffers
//!   reused — when the first bound has to be computed under the slot,
//!   which a memoized bound (next point) makes unnecessary.
//! * **Literal-dependent** — predicate resolution and statistics
//!   assembly. These write every intermediate CDS into the session's
//!   [`CdsScratch`] arena pools instead of cloning. An exact whole-query
//!   repeat skips them: the per-session **literal cache**
//!   (the crate's `litcache` module) keys each computed bound by **content** — the
//!   shape key ++ the literal vector, verified byte for byte on every
//!   hit — never by an id of the slot that computed it, so an entry
//!   outlives its shape's eviction and returns the memoized bound
//!   outright (no shape build, resolution, assembly, or kernel — the
//!   dominant serving case runs in a few hundred nanoseconds, and
//!   re-planning a query an optimizer has planned before costs little
//!   more per sub-query). Fresh literals resolve through per-session
//!   memos of the equality and LIKE lookups, shared by every shape that
//!   reads the same column; a range walks the histogram levels directly.
//!   A leaf whose answer is one stored set is served as that resident
//!   set, with no copy. The per-relation
//!   conditioned stats are resolved **once** and shared across all of a
//!   cyclic query's relaxations (propagation uses the original query's
//!   edges — a superset of every relaxation's edges — which is sound and
//!   at least as tight).
//!
//! Cyclic queries take the min over their relaxations: every relaxation's
//! plan is evaluated, in index order, and the bound is the min — exactly
//! the min over [`StatsSnapshot::bound_inputs`], bit for bit.
//!
//! Together with the allocation-free FDSB kernel, a warm session performs
//! **zero heap allocations per query** on the cached path for equality,
//! range, IN, and LIKE predicates (asserted by the `zero_alloc`
//! integration test; LIKE gram extraction is backed by the session's
//! reused `Value::Str` slots, and the literal cache — hit, miss, and
//! eviction paths alike — runs entirely on session-owned pooled buffers).
//!
//! [`propagated_key`]: crate::stats::propagated_key

// The query hot path, submodules included: a panic kills a worker mid-batch.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

mod assemble;
mod resolve;
mod session;

pub use session::{BoundSession, PhaseBreakdown, SessionStats};

use crate::bound::{fdsb_with_scratch, BoundError, RelationBoundStats};
use crate::conditioning::CdsScratch;
use crate::config::SafeBoundConfig;
use crate::simd::hash::fnv1a;
use crate::stats::StatsSnapshot;
use assemble::assemble_into;
use resolve::stage_literals;
use safebound_query::{BoundPlan, Query};
use safebound_storage::Catalog;
use session::{Memos, ShapeEntry};
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
    /// The warm path runs in two tiers:
    ///
    /// 1. **Bound cache** — an exact whole-query repeat returns the
    ///    memoized `f64` (no shape build, resolution, assembly, or
    ///    kernel).
    /// 2. **Every relaxation** — after memoized resolution (see
    ///    [`crate::estimator`]), each relaxation's plan is assembled and
    ///    evaluated with [`fdsb_with_scratch`] in index order; the bound
    ///    is the min, with the cross-product fallback when no relaxation
    ///    has a plan.
    fn bound_cached(
        &self,
        query: &Query,
        session: &mut BoundSession,
    ) -> Result<f64, EstimateError> {
        if query.num_relations() == 0 {
            return Ok(0.0);
        }
        let timing = session.timing;
        let BoundSession {
            shapes,
            shape_key,
            shape_hits,
            shape_misses,
            memos,
            lit_cache,
            lit_stage,
            kernel,
            cds,
            rel_stats,
            cond,
            phases,
            ..
        } = session;
        shape_key.clear();
        query.shape_key_into(shape_key);
        let shape_fp = fnv1a(shape_key);
        let Some((entry, hit)) = shapes.get_or_claim((), shape_fp, |e| e.key == *shape_key) else {
            // Unreachable: `with_shape_capacity` keeps the capacity ≥ 1.
            return Err(EstimateError::Internal(
                "shape cache has no capacity".to_string(),
            ));
        };
        if hit {
            *shape_hits += 1;
        } else {
            // A miss only takes the claimed slot — the clock's victim at
            // capacity — over for this key; what the victim had built
            // stays in place, unread, until a build overwrites it.
            *shape_misses += 1;
            entry.key.clear();
            entry.key.extend_from_slice(shape_key);
            entry.built = false;
        }

        #[expect(clippy::disallowed_methods, reason = "opt-in PhaseBreakdown timing")]
        let t_resolve = timing.then(Instant::now);

        // Tier 1: exact whole-query repeat → memoized bound, whether or
        // not the shape's slot was ever built or has been evicted since.
        let lit_enabled = lit_cache.enabled();
        if lit_enabled {
            stage_literals(query, lit_stage);
            if let Some(b) = lit_cache.lookup_bound(lit_stage.bound_key(shape_key, shape_fp)) {
                if let Some(t) = t_resolve {
                    phases.resolve_ns += t.elapsed().as_nanos() as u64;
                    phases.queries += 1;
                }
                return Ok(b);
            }
        }

        // A bound has to be computed: now the slot needs its plans. The
        // build is not part of the resolve phase; its share of the running
        // timer is taken out again below.
        let mut build_ns = 0;
        if !entry.built {
            let before = t_resolve.map(|t| t.elapsed());
            self.build_shape_entry(query, entry);
            build_ns = t_resolve
                .zip(before)
                .map_or(0, |(t, before)| (t.elapsed() - before).as_nanos() as u64);
        }
        self.resolve_relations(query, entry, cds, memos, cond)?;
        if let Some(t) = t_resolve {
            phases.resolve_ns += t.elapsed().as_nanos() as u64 - build_ns;
        }

        // Tier 2: every relaxation, in index order; the bound is the min.
        let n = query.num_relations();
        while rel_stats.len() < n {
            rel_stats.push(RelationBoundStats::default());
        }
        let mut best = f64::INFINITY;
        for pe in &entry.plans {
            #[expect(clippy::disallowed_methods, reason = "opt-in PhaseBreakdown timing")]
            let t_assemble = timing.then(Instant::now);
            for rel in 0..n {
                #[expect(clippy::expect_used, reason = "resolution validated every table")]
                let ts = self
                    .tables
                    .get(&query.relations[rel].table)
                    .expect("tables validated during resolution");
                assemble_into(
                    ts,
                    &self.pool,
                    &cond[rel],
                    &pe.join_cols[rel],
                    &mut rel_stats[rel],
                    cds,
                );
            }
            #[expect(clippy::disallowed_methods, reason = "opt-in PhaseBreakdown timing")]
            let t_kernel = timing.then(Instant::now);
            if let (Some(a), Some(b)) = (t_assemble, t_kernel) {
                phases.assemble_ns += (b - a).as_nanos() as u64;
            }
            best = best.min(fdsb_with_scratch(&pe.plan, &rel_stats[..n], kernel)?);
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
            lit_cache.insert_bound(lit_stage.bound_key(shape_key, shape_fp), result);
        }
        if timing {
            phases.queries += 1;
        }
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
        let mut entry = ShapeEntry::default();
        self.build_shape_entry(query, &mut entry);
        let mut cds = CdsScratch::default();
        let mut memo = Memos::default();
        let mut cond = Vec::new();
        self.resolve_relations(query, &entry, &mut cds, &mut memo, &mut cond)?;
        let n = query.num_relations();
        let mut out = Vec::with_capacity(entry.plans.len());
        for pe in &entry.plans {
            let mut stats = Vec::with_capacity(n);
            #[allow(clippy::needless_range_loop)] // four parallel arrays indexed by relation
            for rel in 0..n {
                #[expect(clippy::expect_used, reason = "resolution validated every table")]
                let ts = self
                    .tables
                    .get(&query.relations[rel].table)
                    .expect("tables validated during resolution");
                let mut rs = RelationBoundStats::default();
                assemble_into(
                    ts,
                    &self.pool,
                    &cond[rel],
                    &pe.join_cols[rel],
                    &mut rs,
                    &mut cds,
                );
                stats.push(rs);
            }
            out.push((pe.plan.clone(), stats));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safebound_query::{parse_sql, JoinEdge, JoinGraph, Predicate, RelationRef};
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
    fn shape_cache_gives_hit_shapes_a_second_chance() {
        let (_, sb) = build();
        let mut session = BoundSession::with_shape_capacity(2);
        let shape = |pred: &str| {
            parse_sql(&format!(
                "SELECT COUNT(*) FROM movie_keyword mk, keyword k WHERE mk.keyword_id = k.id{pred}"
            ))
            .unwrap()
        };
        let hot = shape("");
        let churn = [
            shape(" AND k.word = 'rare'"),
            shape(" AND mk.year BETWEEN 1985 AND 1999"),
            shape(" AND mk.year = 1990"),
            shape(" AND k.id = 3"),
        ];
        let run = |s: &mut BoundSession, q: &Query| {
            let got = sb.bound_with_session(q, s).unwrap();
            assert_eq!(got.to_bits(), sb.bound(q).unwrap().to_bits());
        };
        run(&mut session, &hot); // miss: slot 0, unreferenced
        run(&mut session, &churn[0]); // miss: slot 1 — at capacity
        run(&mut session, &hot); // hit: earns its second chance

        // One-shot churn: the sweep spares the once-hit shape (clearing its
        // bit) and recycles the fresh, never-hit one — churn evicts churn.
        run(&mut session, &churn[1]);
        let s = session.stats();
        assert_eq!((s.shape_hits, s.shape_misses, s.shape_evictions), (1, 3, 1));
        run(&mut session, &hot); // hit: it survived, and is referenced again
        assert_eq!(session.stats().shape_hits, 2);
        run(&mut session, &churn[0]); // miss: it was the victim
        run(&mut session, &hot); // hit: still there
        let s = session.stats();
        assert_eq!((s.shape_hits, s.shape_misses, s.shape_evictions), (3, 4, 2));

        // Without a hit between sweeps the second chance is spent: two
        // more one-shot shapes take both slots.
        run(&mut session, &churn[2]); // spares `hot` once more, evicts churn[0]
        run(&mut session, &churn[3]); // `hot` is cold now: evicted
        run(&mut session, &hot); // miss
        let s = session.stats();
        assert_eq!((s.shape_hits, s.shape_misses, s.shape_evictions), (3, 7, 5));
        assert_eq!(session.cached_shapes(), 2);
    }

    #[test]
    fn recycled_shape_slot_never_serves_the_previous_shapes_literals() {
        // Two shapes over *different tables* whose literal vectors are
        // byte-identical (`[3]`), alternating through a capacity-1 shape
        // cache: every query recycles the slot the other shape just left.
        // Bound entries are keyed by shape key ++ literal bytes, so each
        // shape finds its own bound again after every eviction — and
        // never the other's, although the literal bytes agree.
        let (_, sb) = build();
        let qa =
            parse_sql("SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id = 3").unwrap();
        let qb = parse_sql("SELECT COUNT(*) FROM keyword k WHERE k.id = 3").unwrap();
        let (ba, bb) = (sb.bound(&qa).unwrap(), sb.bound(&qb).unwrap());
        assert_ne!(
            ba.to_bits(),
            bb.to_bits(),
            "the shapes must be tellable apart"
        );
        let mut session = BoundSession::with_shape_capacity(1);
        for round in 0..100 {
            let a = sb.bound_with_session(&qa, &mut session).unwrap();
            let b = sb.bound_with_session(&qb, &mut session).unwrap();
            assert_eq!(a.to_bits(), ba.to_bits(), "round {round}: shape A got {a}");
            assert_eq!(b.to_bits(), bb.to_bits(), "round {round}: shape B got {b}");
        }
        let s = session.stats();
        assert_eq!(
            (s.shape_hits, s.shape_misses, s.shape_evictions),
            (0, 200, 199)
        );
        // After round one every query is a bound hit through a slot that
        // holds its key and nothing else.
        assert_eq!((s.lit_bound_hits, s.lit_bound_misses), (198, 2));
        assert_eq!(session.cached_shapes(), 1);
    }

    /// Bound `queries` in order through one default session, each bit-equal
    /// to the cold path, and return the session's counters.
    fn serve_all(sb: &SafeBound, queries: &[&Query]) -> SessionStats {
        let mut session = BoundSession::default();
        for (i, q) in queries.iter().enumerate() {
            let got = sb.bound_with_session(q, &mut session).unwrap();
            let cold = sb.bound(q).unwrap();
            assert_eq!(got.to_bits(), cold.to_bits(), "query {i}: {got} vs {cold}");
        }
        session.stats()
    }

    #[test]
    fn one_relation_reached_from_two_shapes_shares_its_memo_entries() {
        // `keyword` under `word = 'rare'` is resolved the same way whether
        // it stands alone, joins `movie_keyword`, or joins it twice: the
        // later shapes hit the first one's equality memo entry. So does
        // `movie_keyword` with `'rare'` propagated in along keyword_id,
        // the second time a shape reaches it that way.
        let (_, sb) = build();
        let alone = parse_sql("SELECT COUNT(*) FROM keyword k WHERE k.word = 'rare'").unwrap();
        let joined = parse_sql(
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k \
             WHERE mk.keyword_id = k.id AND k.word = 'rare'",
        )
        .unwrap();
        let reordered = parse_sql(
            "SELECT COUNT(*) FROM keyword k, movie_keyword mk, movie_keyword mk2 \
             WHERE mk.keyword_id = k.id AND mk2.movie_id = mk.movie_id AND k.word = 'rare'",
        )
        .unwrap();
        let s = serve_all(&sb, &[&alone, &joined, &reordered]);
        assert_eq!((s.lit_bound_hits, s.lit_bound_misses), (0, 3));
        // keyword: looked up once, served twice; movie_keyword with the
        // propagated literal: looked up once, served once. `mk2` reads no
        // literal and is never looked up.
        assert_eq!((s.eq_memo_hits, s.eq_memo_misses), (3, 2));
    }

    /// Star catalog for the aliasing cases: two fact tables with the same
    /// columns over two dimensions with the same columns, every column
    /// filterable and every `fk*` declared against both dimensions' `id`,
    /// so that relations differing in exactly one input of their
    /// resolution exist and resolve to different statistics.
    fn twin_catalog() -> Catalog {
        let mut c = Catalog::new();
        let ints = |f: &dyn Fn(i64) -> i64, n: i64| Column::from_ints((0..n).map(|i| Some(f(i))));
        for (dim, m) in [("dim", 3), ("dim2", 4)] {
            c.add_table(Table::new(
                dim,
                Schema::new(
                    ["id", "w", "v"]
                        .map(|f| Field::new(f, DataType::Int))
                        .to_vec(),
                ),
                vec![
                    ints(&|i| i, 12),
                    ints(&|i| i % m, 12),
                    ints(&|i| (i * 5) % (m + 2), 12),
                ],
            ));
            c.declare_primary_key(dim, "id");
        }
        for (fact, m) in [("fact", 12), ("fact2", 7)] {
            c.add_table(Table::new(
                fact,
                Schema::new(
                    ["fk", "fk2", "w", "v"]
                        .map(|f| Field::new(f, DataType::Int))
                        .to_vec(),
                ),
                vec![
                    ints(&|i| (i * i) % m, 90),
                    ints(&|i| (i * 7 + i / 9) % 12, 90),
                    ints(&|i| i % 5, 90),
                    ints(&|i| (i / 4) % 6, 90),
                ],
            ));
            for fk in ["fk", "fk2"] {
                c.declare_foreign_key(fact, fk, "dim", "id");
                c.declare_foreign_key(fact, fk, "dim2", "id");
            }
        }
        c
    }

    #[test]
    fn relations_differing_in_one_resolution_input_never_share() {
        // Every pair below gives its `fact`/`fact2` relation (and its
        // dimension) byte-identical literals; what differs is one input
        // of the fact relation's resolution, named in the label. Served
        // through one session in both orders, every bound must equal the
        // cold path.
        let sb = SafeBound::build(&twin_catalog(), SafeBoundConfig::test_small());
        let q = |sql: &str| parse_sql(sql).unwrap();
        let star = |fact: &str, fk: &str, dim: &str, fact_pred: &str, dim_pred: &str| {
            q(&format!(
                "SELECT COUNT(*) FROM {fact} f, {dim} d \
                 WHERE f.{fk} = d.id AND f.{fact_pred} AND d.{dim_pred}"
            ))
        };
        let base = star("fact", "fk", "dim", "w = 2", "w = 1");
        let cases = [
            ("table", star("fact2", "fk", "dim", "w = 2", "w = 1")),
            ("own column", star("fact", "fk", "dim", "v = 2", "w = 1")),
            ("own operator", star("fact", "fk", "dim", "w >= 2", "w = 1")),
            ("edge column", star("fact", "fk2", "dim", "w = 2", "w = 1")),
            (
                "propagating table",
                star("fact", "fk", "dim2", "w = 2", "w = 1"),
            ),
            (
                "propagating column",
                star("fact", "fk", "dim", "w = 2", "v = 1"),
            ),
            (
                "propagating operator",
                star("fact", "fk", "dim", "w = 2", "w <= 1"),
            ),
        ];
        for (_, other) in &cases {
            for pair in [[&base, other], [other, &base]] {
                serve_all(&sb, &pair);
            }
        }

        // Without the propagation (no join) and with it: `fact`'s own
        // predicate and literal agree, the bounds differ.
        let alone = q("SELECT COUNT(*) FROM fact f WHERE f.w = 2");
        let joined = q("SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.w = 2");
        serve_all(&sb, &[&alone, &joined, &base]);
    }

    #[test]
    fn literals_spelling_edge_names_match_the_cold_path() {
        // `fact` under `w = x` alone, against `fact` under `w = 2` with
        // `dim.w = 1` propagated in. `x`'s eight bytes are the edge names
        // `fk 0xff dim 0xff i`, as an integer and as a float: literals that
        // imitated a per-relation key record when the literal cache still
        // kept one. Served through one session in both orders, every bound
        // must equal the cold path.
        let sb = SafeBound::build(&twin_catalog(), SafeBoundConfig::test_small());
        let joined = parse_sql(
            "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.w = 2 AND d.w = 1",
        )
        .unwrap();
        let payload = *b"fk\xffdim\xffi";
        for x in [
            Value::Int(i64::from_le_bytes(payload)),
            Value::Float(f64::from_bits(u64::from_le_bytes(payload))),
        ] {
            let mut alone = Query::new();
            let f = alone.add_relation(RelationRef::new("fact"));
            alone.add_predicate(f, Predicate::Eq("w".into(), x));
            for pair in [[&alone, &joined], [&joined, &alone]] {
                serve_all(&sb, &pair);
            }
        }
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
            .with_memo_capacities(4, 4)
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
    fn a_repeated_dimension_literal_hits_the_eq_memo() {
        let (_, sb) = build();
        let mut session = BoundSession::default();
        // Same dimension literal, varying fact literal: no literal vector
        // repeats, so every bound is computed, and only the lookups whose
        // literal actually repeats may be served from the memo.
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
        // ('rare') on keyword and propagated into movie_keyword repeats:
        // 2 misses, then 2 hits per query; each year misses once.
        assert_eq!((stats.eq_memo_hits, stats.eq_memo_misses), (6, 6));
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
    fn cyclic_bound_is_the_min_over_every_relaxation() {
        // Cyclic triangle: three spanning-tree relaxations. The session
        // evaluates every one and must return exactly the min the
        // independent inputs evaluate to — for every literal
        // instantiation.
        let (_, sb) = build();
        // Literal cache off so every round actually runs the relaxations.
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
                    "round {round} year {year}: session diverged from the min over bound_inputs"
                );
            }
        }
        assert_eq!(session.stats().relaxations_pruned, 0, "a frozen key");
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
