//! The offline phase (§3.1): building SafeBound's statistics.
//!
//! For every table, [`SafeBoundBuilder`] computes:
//!
//! * the compressed base CDS of every **declared join column** (keys and
//!   foreign keys from the catalog);
//! * [`FilterColumnStats`] — MCV, histogram-hierarchy, and n-gram
//!   conditioned CDS sets — for **every column** (a column can be both a
//!   filter and a join column);
//! * PK–FK-propagated filter statistics (§4.2): each dimension filter
//!   column is materialized on the fact side through the foreign key, so
//!   dimension predicates can condition fact degree sequences directly;
//! * a fallback unconditioned CDS for every column, supporting joins on
//!   undeclared columns (§3.6).
//!
//! # The three-stage pipeline: partition → merge → finalize
//!
//! The build is structured around the mergeable accumulators of
//! [`crate::partial`]:
//!
//! 1. **Partition** — every table is scanned in `k` contiguous row shards
//!    ([`crate::partial::TableScanPlan::scan`]), each producing a
//!    [`PartialTableStats`] of exact integer count maps. All
//!    (table × shard) scans run on ONE flat [`crate::parallel::par_map`]
//!    work list.
//! 2. **Merge** — shards of a table merge by union-with-addition
//!    ([`PartialTableStats::merge`]), which is **associative and
//!    commutative**: `scan(p₁) ⊕ … ⊕ scan(p_k) = scan(p₁ ∪ … ∪ p_k)` for
//!    any partitioning, in any order. Merging is cheap and sequential.
//! 3. **Finalize** — every expensive deterministic construction (MCV
//!    sort + group compression, histogram hierarchy, n-gram tables, Bloom
//!    indexes, CDS compression) runs as a pure function of the merged counts, again on
//!    one flat `par_map` work list with one job per (table base + §3.6
//!    fallbacks) and one per filter unit.
//!
//! Because finalize is deterministic and merge is exact, a sharded build
//! (`k ≥ 2`) is **bit-identical** to the single-pass build (`k = 1`) —
//! not merely bound-equivalent. [`SafeBoundBuilder::build`] is the
//! `k = 1` special case of [`SafeBoundBuilder::build_partitioned`].
//!
//! # Incremental maintenance on catalog deltas
//!
//! The same laws classify what a row-level delta
//! ([`safebound_storage::CatalogDelta`]) can absorb in place, done by
//! [`crate::incremental::IncrementalBuilder`]:
//!
//! | change | maintenance |
//! |---|---|
//! | insert-only batch on a table whose FK-referenced dimensions are unchanged | **absorb**: scan only the appended rows, merge into the retained partial, re-finalize the table |
//! | any delete (counts would need subtraction below observed maxima of group cuts) | rebuild that table's partial via the partition path |
//! | any change to a dimension table, for fact tables referencing it (propagated units re-key through the PK map; previously dangling FKs may start matching) | rebuild those fact tables' partials |
//! | untouched tables | reuse the finalized [`TableStats`] verbatim |
//!
//! Every structure here is *exactly* maintained, never approximated, so
//! an incrementally-refreshed snapshot stays bit-identical to a full
//! rebuild of the mutated catalog — the upper-bound guarantee is
//! preserved by construction rather than by slack.
//!
//! # Interning and parallelism
//!
//! All table and column names are interned into a [`SymbolTable`] up
//! front; every statistics container the online phase touches is keyed by
//! dense [`Sym`] ids (see [`crate::symbol`]). Both parallel stages use
//! flat work lists (never nested `par_map`, which would oversubscribe —
//! see [`crate::parallel`]); results are indexed and reassembled in
//! order, so the output is deterministic.

// The builder reports its wall time (`build_ms`); timing never feeds
// back into statistics content.
#![allow(clippy::disallowed_methods)]

use crate::conditioning::{CdsSet, HistogramStats, JoinCol, McvStats, NgramStats};
use crate::config::SafeBoundConfig;
use crate::parallel::par_map;
use crate::partial::{freeze, partition_ranges, PartialTableStats, TableScanPlan};
use crate::piecewise::PwlView;
use crate::pool::{CdsPool, SetRange};
use crate::symbol::{Sym, SymbolTable};
use safebound_storage::{Catalog, Table};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Key under which PK–FK-propagated statistics are stored in
/// [`TableStats::filter_stats`]: it encodes the exact join edge
/// (`fk_column = pk_table.pk_column`) and the dimension filter column, so
/// the online phase applies the propagation only to matching query edges.
pub fn propagated_key(
    fk_column: &str,
    pk_table: &str,
    pk_column: &str,
    dim_column: &str,
) -> String {
    format!("{fk_column}={pk_table}.{pk_column}:{dim_column}")
}

/// How a stored filter name orders against the [`propagated_key`] prefix
/// `"{fk_column}={pk_table}.{pk_column}:"`, compared piece by piece so the
/// prefix is never materialized: `Equal` iff `name` starts with it.
fn cmp_to_propagated_prefix(
    name: &str,
    fk_column: &str,
    pk_table: &str,
    pk_column: &str,
) -> std::cmp::Ordering {
    use std::cmp::Ordering::{Equal, Less};
    let mut rest = name.as_bytes();
    for part in [fk_column, "=", pk_table, ".", pk_column, ":"] {
        let part = part.as_bytes();
        let k = part.len().min(rest.len());
        match rest[..k].cmp(&part[..k]) {
            Equal if rest.len() < part.len() => return Less, // a proper prefix sorts first
            Equal => rest = &rest[k..],
            unequal => return unequal,
        }
    }
    Equal
}

/// The filter slots PK–FK-propagated into a fact table along one join
/// edge: the run of [`propagated_key`] names sharing that edge's prefix.
/// Resolves dimension filter columns to slots without building a key
/// string per column ([`TableStats::propagated_slots`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PropagatedSlots<'a> {
    /// The names under the edge's prefix (sorted, like the whole index).
    names: &'a [String],
    /// Slot of `names[0]`.
    first_slot: u32,
    prefix_len: usize,
}

impl PropagatedSlots<'_> {
    /// Whether nothing is propagated along this edge.
    pub(crate) fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The slot of `propagated_key(fk_column, pk_table, pk_column,
    /// dim_column)` for the edge this view was opened on.
    pub(crate) fn slot(&self, dim_column: &str) -> Option<u32> {
        self.names
            .binary_search_by(|n| n.as_bytes()[self.prefix_len..].cmp(dim_column.as_bytes()))
            .ok()
            .map(|i| self.first_slot + i as u32)
    }
}

/// Conditioned statistics for one (possibly propagated) filter column.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterColumnStats {
    /// Equality predicates.
    pub mcv: McvStats,
    /// Range predicates (absent for all-NULL columns).
    pub histogram: Option<HistogramStats>,
    /// LIKE predicates (string columns only, and only when enabled).
    pub ngrams: Option<NgramStats>,
}

impl FilterColumnStats {
    /// Approximate heap size in bytes.
    pub fn byte_size(&self, pool: &CdsPool) -> usize {
        self.mcv.byte_size(pool)
            + self.histogram.as_ref().map_or(0, |h| h.byte_size(pool))
            + self.ngrams.as_ref().map_or(0, |n| n.byte_size(pool))
    }

    /// Number of stored CDS sets across all structures.
    pub fn num_sets(&self) -> usize {
        self.mcv.num_sets()
            + self.histogram.as_ref().map_or(0, HistogramStats::num_sets)
            + self.ngrams.as_ref().map_or(0, NgramStats::num_sets)
    }

    /// Every stored set, in file order: MCV groups and default, histogram
    /// groups, n-gram groups and default.
    pub(crate) fn for_each_set_mut(&mut self, f: &mut impl FnMut(&mut SetRange)) {
        self.mcv.for_each_set_mut(f);
        if let Some(h) = &mut self.histogram {
            h.groups.iter_mut().for_each(&mut *f);
        }
        if let Some(n) = &mut self.ngrams {
            n.for_each_set_mut(f);
        }
    }
}

/// All statistics for one table. Every CDS set in it is a [`SetRange`]
/// into the owning snapshot's [`CdsPool`].
///
/// Filter statistics live in a dense slot vector ([`TableStats::filter_at`])
/// with a name index resolved once per query *shape*
/// ([`TableStats::filter_slot`]); the per-query hot path never touches a
/// string key. PK–FK-propagated columns are indexed under
/// [`propagated_key`] composites.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Table name.
    pub table: String,
    /// Interned symbol of the table name (stable memo/cache key).
    pub table_sym: Sym,
    /// Exact row count.
    pub row_count: u64,
    /// Declared join columns (keys + foreign keys) with their symbols.
    pub join_columns: Vec<JoinCol>,
    /// Unconditioned compressed CDS per declared join column.
    pub base: SetRange,
    /// Sorted column (or [`propagated_key`] composite) names; a name's
    /// position is its slot in `filter_stats`.
    filter_names: Vec<String>,
    /// Filter statistics slots, parallel to `filter_names`.
    filter_stats: Vec<FilterColumnStats>,
    /// Unconditioned compressed CDS for every column, keyed by interned
    /// symbol — the §3.6 fallback for joins on undeclared columns.
    pub fallback_cds: SetRange,
}

impl TableStats {
    /// Assemble finalized pieces into served statistics: dense filter
    /// slots with a name index, so names resolve to slots once per query
    /// shape and the per-query path indexes the vector directly.
    pub(crate) fn assemble(
        table: String,
        table_sym: Sym,
        row_count: u64,
        join_columns: Vec<JoinCol>,
        base: SetRange,
        named: BTreeMap<String, FilterColumnStats>,
        fallback_cds: SetRange,
    ) -> TableStats {
        // A `BTreeMap` iterates in name order: slots are sorted by name.
        let (filter_names, filter_stats) = named.into_iter().unzip();
        TableStats {
            table,
            table_sym,
            row_count,
            join_columns,
            base,
            filter_names,
            filter_stats,
            fallback_cds,
        }
    }

    /// The fallback CDS for a column symbol.
    pub fn fallback<'p>(&self, pool: &'p CdsPool, sym: Sym) -> Option<PwlView<'p>> {
        pool.set(self.fallback_cds).get(sym)
    }

    /// Filter statistics for a column (or propagated-key composite) name.
    pub fn filter(&self, name: &str) -> Option<&FilterColumnStats> {
        self.filter_slot(name).map(|s| self.filter_at(s))
    }

    /// The dense slot of a filter column — resolve once per query shape,
    /// then address statistics with [`TableStats::filter_at`].
    pub fn filter_slot(&self, name: &str) -> Option<u32> {
        self.filter_names
            .binary_search_by(|n| n.as_str().cmp(name))
            .ok()
            .map(|i| i as u32)
    }

    /// The slots propagated into this table along the join edge
    /// `fk_column = pk_table.pk_column`: `propagated_slots(..).slot(c)`
    /// equals `filter_slot(&propagated_key(.., c))` for every `c`, from
    /// two binary searches for the edge and one per column — no key
    /// string is built.
    pub(crate) fn propagated_slots(
        &self,
        fk_column: &str,
        pk_table: &str,
        pk_column: &str,
    ) -> PropagatedSlots<'_> {
        use std::cmp::Ordering::{Equal, Less};
        let cmp = |n: &String| cmp_to_propagated_prefix(n, fk_column, pk_table, pk_column);
        let lo = self.filter_names.partition_point(|n| cmp(n) == Less);
        let len = self.filter_names[lo..].partition_point(|n| cmp(n) == Equal);
        PropagatedSlots {
            names: &self.filter_names[lo..lo + len],
            first_slot: lo as u32,
            prefix_len: fk_column.len() + pk_table.len() + pk_column.len() + 3,
        }
    }

    /// Filter statistics by pre-resolved slot.
    #[inline]
    pub fn filter_at(&self, slot: u32) -> &FilterColumnStats {
        &self.filter_stats[slot as usize]
    }

    /// All named filter statistics in name order (the snapshot-file
    /// writer's view). Feeding these back through [`TableStats::assemble`]
    /// reproduces the identical slot assignment, since `assemble` numbers
    /// slots in sorted-name order too.
    pub(crate) fn named_filters(&self) -> impl Iterator<Item = (&str, &FilterColumnStats)> {
        self.filter_names
            .iter()
            .map(String::as_str)
            .zip(&self.filter_stats)
    }

    /// Approximate heap size in bytes.
    pub fn byte_size(&self, pool: &CdsPool) -> usize {
        pool.set(self.base).byte_size()
            + self
                .filter_stats
                .iter()
                .map(|f| f.byte_size(pool))
                .sum::<usize>()
            + pool.set(self.fallback_cds).byte_size()
    }

    /// Total number of stored CDS sets (the quantity group compression
    /// reduces; cf. Example 3.2's 18,522 for `Title`).
    pub fn num_sets(&self) -> usize {
        1 + self
            .filter_stats
            .iter()
            .map(FilterColumnStats::num_sets)
            .sum::<usize>()
    }

    /// Every stored set, in file order: the base set, each filter
    /// column's sets in name order, the fallback set.
    pub(crate) fn for_each_set_mut(&mut self, f: &mut impl FnMut(&mut SetRange)) {
        f(&mut self.base);
        for fs in &mut self.filter_stats {
            fs.for_each_set_mut(f);
        }
        f(&mut self.fallback_cds);
    }
}

/// One table's statistics with its sets in a pool of its own: what a
/// build job finalizes and the incremental builder retains, before
/// [`StatsSnapshot::freeze`] copies every table into the snapshot's pool.
#[derive(Debug, Clone, PartialEq)]
pub struct TablePart {
    /// The table's statistics, ranges into `pool`.
    pub stats: TableStats,
    /// Storage of the table's sets.
    pub pool: CdsPool,
}

/// The complete statistics produced by the offline phase: an **immutable
/// snapshot** shared read-only across serving threads.
///
/// A snapshot is `Send + Sync` and is held behind an `Arc` by the
/// [`SafeBound`](crate::estimator::SafeBound) handle; a background rebuild
/// produces a fresh snapshot and publishes it with
/// [`SafeBound::swap_stats`](crate::estimator::SafeBound::swap_stats)
/// without pausing readers. Nothing in here is mutated after the build.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Per-table statistics.
    pub tables: BTreeMap<String, TableStats>,
    /// Storage of every CDS set the tables name, laid out in snapshot
    /// file order (tables by name; per table its base set, its filter
    /// columns' sets by name, its fallback set), whichever route built it.
    pub pool: CdsPool,
    /// Interned table/column names shared by all statistics containers.
    pub symbols: SymbolTable,
    /// The configuration used to build them.
    pub config: SafeBoundConfig,
    /// Wall-clock build time.
    pub build_time: Duration,
    /// Process-unique id of this build. Everything a
    /// [`BoundSession`](crate::estimator::BoundSession) caches (interned
    /// symbols, plan column ids, filter slots, memoized MCV lookups) is
    /// only valid against the build that produced it; the session compares
    /// this id and flushes its caches when the statistics underneath it
    /// change (e.g. a hot swap after a data refresh).
    pub build_id: u64,
}

/// Former name of [`StatsSnapshot`], kept for downstream source compat.
pub type SafeBoundStats = StatsSnapshot;

// Compile-time guarantee: a snapshot is shareable across serving threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StatsSnapshot>();
};

impl StatsSnapshot {
    /// Approximate heap size in bytes (the Fig. 8a metric).
    pub fn byte_size(&self) -> usize {
        self.tables.values().map(|t| t.byte_size(&self.pool)).sum()
    }

    /// Total stored CDS sets across all tables.
    pub fn num_sets(&self) -> usize {
        self.tables.values().map(TableStats::num_sets).sum()
    }

    /// Publish built tables as a snapshot: copy every table's sets, in
    /// file order, out of its own pool into the snapshot's one pool — the
    /// step every build route ends with, so equal statistics are equal
    /// snapshots whichever route built them. Each table's pool is freed
    /// as soon as it is copied.
    pub(crate) fn freeze(
        parts: BTreeMap<String, TablePart>,
        symbols: SymbolTable,
        config: SafeBoundConfig,
        build_time: Duration,
    ) -> StatsSnapshot {
        let mut pool = CdsPool::with_capacity(
            parts.values().map(|p| p.pool.num_knots()).sum(),
            parts.values().map(|p| p.pool.num_entries()).sum(),
        );
        let tables = parts
            .into_iter()
            .map(|(name, mut part)| {
                let local = &part.pool;
                part.stats
                    .for_each_set_mut(&mut |r| *r = freeze(&mut pool, local.set(*r)));
                (name, part.stats)
            })
            .collect();
        StatsSnapshot {
            tables,
            pool,
            symbols,
            config,
            build_time,
            build_id: next_build_id(),
        }
    }
}

/// Builder for the offline phase.
#[derive(Debug, Clone, Default)]
pub struct SafeBoundBuilder {
    config: SafeBoundConfig,
}

/// Process-unique id for a published snapshot (see
/// [`StatsSnapshot::build_id`]).
pub(crate) fn next_build_id() -> u64 {
    static NEXT_BUILD_ID: AtomicU64 = AtomicU64::new(1);
    NEXT_BUILD_ID.fetch_add(1, Ordering::Relaxed)
}

/// Intern every table and column name of a catalog up front, so the
/// parallel phases read the symbol table immutably and ids are
/// independent of build order (and of build *mode*: the incremental
/// builder reuses this and stays symbol-compatible with full rebuilds,
/// since deltas never change the table set or schemas).
pub(crate) fn intern_catalog(catalog: &Catalog) -> SymbolTable {
    let mut symbols = SymbolTable::new();
    for table in catalog.tables() {
        symbols.intern(&table.name);
        for field in &table.schema.fields {
            symbols.intern(&field.name);
        }
    }
    symbols
}

/// Stages 1+2 of the pipeline: scan every table in up to `partitions`
/// contiguous row shards on one flat work list, then merge shards per
/// table. By the merge laws the result is independent of `partitions`.
pub(crate) fn scan_merged_partials(
    catalog: &Catalog,
    config: &SafeBoundConfig,
    partitions: usize,
) -> Vec<PartialTableStats> {
    let table_list: Vec<&Table> = catalog.tables().collect();
    let plans: Vec<TableScanPlan> = table_list
        .iter()
        .map(|t| TableScanPlan::new(catalog, t, config))
        .collect();
    struct ScanJob<'a> {
        table_idx: usize,
        plan: &'a TableScanPlan,
        range: std::ops::Range<usize>,
    }
    let mut jobs: Vec<ScanJob<'_>> = Vec::new();
    for (table_idx, (table, plan)) in table_list.iter().zip(&plans).enumerate() {
        for range in partition_ranges(table.num_rows(), partitions) {
            jobs.push(ScanJob {
                table_idx,
                plan,
                range,
            });
        }
    }
    let partials = par_map(&jobs, |job| job.plan.scan(catalog, job.range.clone()));
    // Jobs are table-contiguous and par_map preserves order, so a single
    // pass folds each table's shards.
    let mut merged: Vec<PartialTableStats> = Vec::with_capacity(table_list.len());
    for (partial, job) in partials.into_iter().zip(&jobs) {
        if job.table_idx == merged.len() {
            merged.push(partial);
        } else {
            merged
                .last_mut()
                .expect("jobs are table-contiguous")
                .merge(partial);
        }
    }
    merged
}

/// Stage 3 of the pipeline: finalize merged partials into [`TablePart`]s
/// on one flat work list — one job per table for the base CDS + §3.6
/// fallbacks, one job per filter unit (group compression of each unit's
/// CDS sets happens inside its job, so it parallelizes for free). Each
/// unit job fills a pool of its own; each table's sets are then gathered
/// into the table's pool in file order.
pub(crate) fn finalize_partials(
    merged: &[PartialTableStats],
    symbols: &SymbolTable,
    config: &SafeBoundConfig,
) -> BTreeMap<String, TablePart> {
    let join_cols: Vec<Vec<JoinCol>> = merged.iter().map(|p| p.join_cols(symbols)).collect();
    enum FinJob<'a> {
        Base(usize),
        Unit(usize, &'a str),
    }
    let mut jobs: Vec<FinJob<'_>> = Vec::new();
    for (ti, partial) in merged.iter().enumerate() {
        jobs.push(FinJob::Base(ti));
        for (key, _) in partial.units() {
            jobs.push(FinJob::Unit(ti, key));
        }
    }
    enum FinOut {
        Base(CdsSet, CdsSet),
        // Boxed: FilterColumnStats carries the histogram's padded key
        // matrix, which would otherwise dominate every Base result too.
        Unit(Option<Box<(FilterColumnStats, CdsPool)>>),
    }
    let outs = par_map(&jobs, |job| match job {
        FinJob::Base(ti) => FinOut::Base(
            merged[*ti].finalize_base(&join_cols[*ti], config),
            merged[*ti].finalize_fallback(symbols, config),
        ),
        FinJob::Unit(ti, key) => {
            let mut pool = CdsPool::default();
            let unit = merged[*ti].unit(key).expect("unit key from iteration");
            let stats = unit.finalize(&join_cols[*ti], config, &mut pool);
            pool.shrink_to_fit();
            FinOut::Unit(stats.map(|s| Box::new((s, pool))))
        }
    });
    let mut bases: Vec<Option<(CdsSet, CdsSet)>> = merged.iter().map(|_| None).collect();
    let mut named: Vec<BTreeMap<String, (FilterColumnStats, CdsPool)>> =
        merged.iter().map(|_| BTreeMap::new()).collect();
    for (job, out) in jobs.iter().zip(outs) {
        match (job, out) {
            (FinJob::Base(ti), FinOut::Base(base, fallback)) => {
                bases[*ti] = Some((base, fallback));
            }
            (FinJob::Unit(ti, key), FinOut::Unit(stats)) => {
                if let Some(s) = stats {
                    named[*ti].insert((*key).to_string(), *s);
                }
            }
            _ => unreachable!("job and result lists are parallel"),
        }
    }
    merged
        .iter()
        .zip(join_cols)
        .zip(bases.into_iter().zip(named))
        .map(|((partial, jc), (base, named))| {
            let (base, fallback) = base.expect("every table has a base job");
            let mut pool = CdsPool::default();
            let base = freeze(&mut pool, base.view());
            let named = named
                .into_iter()
                .map(|(key, (mut fs, unit_pool))| {
                    fs.for_each_set_mut(&mut |r| *r = freeze(&mut pool, unit_pool.set(*r)));
                    (key, fs)
                })
                .collect();
            let fallback = freeze(&mut pool, fallback.view());
            pool.shrink_to_fit();
            let stats = TableStats::assemble(
                partial.table().to_string(),
                symbols.lookup(partial.table()).expect("table interned"),
                partial.row_count(),
                jc,
                base,
                named,
                fallback,
            );
            (stats.table.clone(), TablePart { stats, pool })
        })
        .collect()
}

impl SafeBoundBuilder {
    /// Builder with the given configuration.
    pub fn new(config: SafeBoundConfig) -> Self {
        SafeBoundBuilder { config }
    }

    /// The builder's configuration.
    pub fn config(&self) -> &SafeBoundConfig {
        &self.config
    }

    /// Run the offline phase over a catalog: the single-shard
    /// (`partitions = 1`) case of [`SafeBoundBuilder::build_partitioned`].
    pub fn build(&self, catalog: &Catalog) -> StatsSnapshot {
        self.build_partitioned(catalog, 1)
    }

    /// Run the offline phase scanning every table in up to `partitions`
    /// contiguous row shards (partition → merge → finalize; see the
    /// module docs). The produced statistics are **bit-identical** for
    /// every choice of `partitions` — sharding only changes scheduling.
    pub fn build_partitioned(&self, catalog: &Catalog, partitions: usize) -> StatsSnapshot {
        let start = Instant::now();
        let symbols = intern_catalog(catalog);
        let merged = scan_merged_partials(catalog, &self.config, partitions.max(1));
        let parts = finalize_partials(&merged, &symbols, &self.config);
        StatsSnapshot::freeze(parts, symbols, self.config.clone(), start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safebound_storage::{Column, DataType, Field, Schema};
    use std::cmp::Ordering::Equal;

    #[test]
    fn propagated_prefix_orders_like_the_formatted_key() {
        // Against every name, the piecewise comparison must say what
        // comparing with the materialized prefix says: `Equal` iff the
        // name starts with it, else the byte order of the two strings.
        let names = [
            "", "a", "a=", "a=b", "a=b.", "a=b.c", "a=b.c:", "a=b.c:x", "a=b.c:xy", "a=b.cc:x",
            "a=b.d:x", "a=bb.c:x", "aa=b.c:x", "b", "a=b.c;x", "a<b.c:x", "x",
        ];
        let edges = [
            ("a", "b", "c"),
            ("a", "b", "cc"),
            ("aa", "b", "c"),
            ("", "", ""),
            ("a=b", "c", "d"),
        ];
        for (fk, table, pk) in edges {
            let prefix = propagated_key(fk, table, pk, "");
            for name in names {
                let want = if name.starts_with(&prefix) {
                    Equal
                } else {
                    name.cmp(prefix.as_str())
                };
                assert_eq!(
                    cmp_to_propagated_prefix(name, fk, table, pk),
                    want,
                    "{name:?} against {prefix:?}"
                );
            }
        }
    }

    #[test]
    fn propagated_slots_resolve_what_the_formatted_key_resolves() {
        let mut c = Catalog::new();
        let ints = |n: i64| Column::from_ints((0..n).map(Some));
        for dim in ["dim", "dimmer"] {
            c.add_table(Table::new(
                dim,
                Schema::new(
                    ["id", "w", "ww", "x"]
                        .map(|f| Field::new(f, DataType::Int))
                        .to_vec(),
                ),
                vec![ints(8), ints(8), ints(8), ints(8)],
            ));
            c.declare_primary_key(dim, "id");
        }
        c.add_table(Table::new(
            "fact",
            Schema::new(
                ["fk", "fk2", "w"]
                    .map(|f| Field::new(f, DataType::Int))
                    .to_vec(),
            ),
            vec![ints(8), ints(8), ints(8)],
        ));
        c.declare_foreign_key("fact", "fk", "dim", "id");
        c.declare_foreign_key("fact", "fk2", "dimmer", "id");
        let stats = SafeBoundBuilder::new(SafeBoundConfig::test_small()).build(&c);
        let fact = &stats.tables["fact"];

        let mut resolved = 0;
        for fk in ["fk", "fk2", "f", "fk22", "w"] {
            for table in ["dim", "dimmer", "di", "fact"] {
                for pk in ["id", "i", "w"] {
                    let view = fact.propagated_slots(fk, table, pk);
                    let mut any = false;
                    for dim_col in ["id", "w", "ww", "x", "", "www"] {
                        let want = fact.filter_slot(&propagated_key(fk, table, pk, dim_col));
                        assert_eq!(view.slot(dim_col), want, "{fk}={table}.{pk}:{dim_col}");
                        any |= want.is_some();
                        resolved += usize::from(want.is_some());
                    }
                    assert_eq!(view.is_empty(), !any, "{fk}={table}.{pk}");
                }
            }
        }
        // fact.fk → dim.id and fact.fk2 → dimmer.id, three dimension
        // filter columns each.
        assert_eq!(resolved, 6);
        // Plain columns still resolve by name, slots in name order.
        assert!(fact.filter_slot("w").is_some());
        assert_eq!(fact.filter_slot("absent"), None);
        let names: Vec<&str> = fact.named_filters().map(|(n, _)| n).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]));
        for (slot, name) in names.iter().enumerate() {
            assert_eq!(fact.filter_slot(name), Some(slot as u32));
        }
    }
}
