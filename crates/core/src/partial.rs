//! Mergeable partial statistics: the partition stage of the offline
//! build (partition → merge → finalize).
//!
//! A [`PartialTableStats`] is an **exact, order-independent accumulator**
//! for one table (or one partition of one table): per schema column the
//! full value→count map of the column, and per filter unit (plain column
//! or PK–FK-propagated dimension column) the map
//! `filter value → (row count, per-join-column value→count maps)`.
//! Everything downstream — MCV lists, histogram hierarchies, n-gram
//! tables, base/fallback degree sequences, group compression, Bloom
//! indexes — is a *deterministic pure function* of these integer counts,
//! applied by [`FilterUnitPartial::finalize`] and the
//! [`PartialTableStats`] finalize helpers.
//!
//! # Merge laws
//!
//! [`PartialTableStats::merge`] is a union-with-addition over `u64`
//! counts, so it is **associative and commutative**: for any partition of
//! a table's rows into ranges `p₁ … p_k`,
//!
//! ```text
//! scan(p₁) ⊕ scan(p₂) ⊕ … ⊕ scan(p_k) = scan(p₁ ∪ … ∪ p_k)
//! ```
//!
//! as a *structural equality* on the accumulator, in any merge order.
//! Since finalize is deterministic, the finalized [`TableStats`] — and
//! therefore every bound served from it — is **bit-identical** no matter
//! how the table was partitioned. This is what makes sharded builds and
//! insert absorption (appending a scan of just the new rows) exact rather
//! than approximate; see `crates/core/src/stats.rs` for the pipeline and
//! the incremental-soundness table.

use crate::bloom::BloomBank;
use crate::compression::valid_compress;
use crate::conditioning::{
    group_compress, string_ngrams, value_bytes, CdsSet, HistogramLevel, HistogramStats, JoinCol,
    McvIndex, McvStats, NgramStats,
};
use crate::config::SafeBoundConfig;
use crate::degree_sequence::DegreeSequence;
use crate::piecewise::PiecewiseLinear;
use crate::pool::{CdsPool, CdsView, SetRange};
use crate::stats::{propagated_key, FilterColumnStats, TablePart, TableStats};
use crate::symbol::SymbolTable;
use safebound_storage::{Catalog, Column, DataType, GroupKey, Table, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// Owned join-value key with exactly the grouping semantics of
/// [`GroupKey`]: integral floats (including `-0.0`) collapse onto the
/// integer, non-integral floats key by bit pattern, NULL is excluded.
///
/// This is deliberately **not** [`Value`]: filter-value grouping uses
/// `Value` equality (where `-0.0 ≠ 0.0`, matching predicate semantics),
/// while join-degree counting must reproduce
/// [`Column::frequencies`]/[`DegreeSequence::of_column_rows`], which group
/// by `GroupKey` (where `-0.0` joins `0`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JoinKey {
    /// Integer (also integral floats, so `2` and `2.0` count together).
    Int(i64),
    /// Non-integral float, by bit pattern.
    FloatBits(u64),
    /// String value.
    Str(String),
}

impl JoinKey {
    fn from_group(k: GroupKey<'_>) -> Option<JoinKey> {
        match k {
            GroupKey::Null => None,
            GroupKey::Int(i) => Some(JoinKey::Int(i)),
            GroupKey::FloatBits(b) => Some(JoinKey::FloatBits(b)),
            GroupKey::Str(s) => Some(JoinKey::Str(s.to_string())),
        }
    }
}

/// `join value → multiplicity` for one join column over some row subset.
pub type JoinCountMap = HashMap<JoinKey, u64>;

/// Add `src` into `dst` (union with addition).
fn add_counts(dst: &mut JoinCountMap, src: &JoinCountMap) {
    for (k, &c) in src {
        *dst.entry(k.clone()).or_insert(0) += c;
    }
}

/// Exact counts for one distinct filter value: how many rows carry it,
/// and the join-value multiplicities of those rows per join column.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueGroup {
    /// Number of rows with this filter value.
    pub rows: u64,
    /// Join-value counts of those rows, parallel to the table's declared
    /// join columns.
    pub join: Vec<JoinCountMap>,
}

/// Mergeable accumulator for one filter unit (a table column, or a
/// dimension column propagated through a foreign key).
#[derive(Debug, Clone, PartialEq)]
pub struct FilterUnitPartial {
    /// Data type of the filter values (the dimension column's type for
    /// propagated units).
    pub data_type: DataType,
    /// Per distinct non-NULL filter value, the exact conditioned counts.
    /// Keyed by `Value` order so iteration is deterministic.
    pub groups: BTreeMap<Value, ValueGroup>,
}

impl FilterUnitPartial {
    /// Merge another partial of the same unit into this one.
    pub fn merge(&mut self, other: FilterUnitPartial) {
        debug_assert_eq!(self.data_type, other.data_type, "unit type mismatch");
        for (v, g) in other.groups {
            match self.groups.entry(v) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(g);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let acc = e.get_mut();
                    acc.rows += g.rows;
                    for (dst, src) in acc.join.iter_mut().zip(&g.join) {
                        add_counts(dst, src);
                    }
                }
            }
        }
    }

    /// Scan a column of `table` over `range` into a partial (plain filter
    /// unit: the filter values are the column's own values).
    pub fn scan_column(
        table: &Table,
        col: &Column,
        join_columns: &[JoinCol],
        range: Range<usize>,
    ) -> Self {
        let join_cols = resolve_join_cols(table, join_columns);
        scan_unit(&|i| col.get(i), col.data_type(), &join_cols, range)
    }

    /// Finalize this unit into served filter statistics, their sets
    /// appended to `pool` in file order. `None` when the table has no
    /// declared join columns or the unit has no non-NULL values (matching
    /// the single-pass builder's guards).
    pub fn finalize(
        &self,
        join_columns: &[JoinCol],
        config: &SafeBoundConfig,
        pool: &mut CdsPool,
    ) -> Option<FilterColumnStats> {
        if join_columns.is_empty() || self.groups.is_empty() {
            return None;
        }
        let mcv = finalize_mcv(self, join_columns, config, pool);
        let histogram = finalize_histogram(self, join_columns, config, pool);
        let ngrams = if config.enable_ngrams && self.data_type == DataType::Str {
            finalize_ngrams(self, join_columns, config, pool)
        } else {
            None
        };
        Some(FilterColumnStats {
            mcv,
            histogram,
            ngrams,
        })
    }

    /// Approximate heap size in bytes (accumulator footprint, not the
    /// size of the finalized statistics).
    pub fn byte_size(&self) -> usize {
        self.groups
            .values()
            .map(|g| 48 + g.join.iter().map(|m| m.len() * 48).sum::<usize>())
            .sum()
    }
}

/// One scan target of a table: a plain column or a PK–FK-propagated
/// dimension column (§4.2), with everything needed to evaluate the
/// filter value of any row.
#[derive(Debug, Clone)]
enum UnitSpec {
    Field {
        name: String,
    },
    Propagated {
        key: String,
        fk_column: String,
        /// Dimension primary-key value → dimension row, shared across all
        /// units of the same foreign key.
        pk_rows: Arc<HashMap<Value, usize>>,
        dim_table: String,
        dim_column: String,
    },
}

/// Precomputed scan recipe for one table: its declared join columns and
/// every filter unit (fields + propagated dimension columns). Built once
/// per table, shared by all partition scans — including the append-only
/// scans of insert absorption.
#[derive(Debug, Clone)]
pub struct TableScanPlan {
    /// Table this plan scans.
    pub table: String,
    join_names: Vec<String>,
    units: Vec<UnitSpec>,
}

impl TableScanPlan {
    /// Build the scan plan for `table`, mirroring the single-pass
    /// builder's unit assembly: every schema field, plus one unit per
    /// (foreign key × non-key dimension column) when PK–FK propagation is
    /// enabled.
    pub fn new(catalog: &Catalog, table: &Table, config: &SafeBoundConfig) -> Self {
        let join_names = catalog.join_columns(&table.name);
        let mut units: Vec<UnitSpec> = table
            .schema
            .fields
            .iter()
            .map(|f| UnitSpec::Field {
                name: f.name.clone(),
            })
            .collect();
        if config.pk_fk_propagation {
            for fk in catalog.foreign_keys_of(&table.name) {
                let Some(dim) = catalog.table(&fk.pk_table) else {
                    continue;
                };
                let Some(pk_col) = dim.column(&fk.pk_column) else {
                    continue;
                };
                if table.column(&fk.fk_column).is_none() {
                    continue;
                }
                #[expect(clippy::disallowed_methods, reason = "offline build, not session-hot")]
                let mut pk_rows: HashMap<Value, usize> = HashMap::new();
                for i in 0..pk_col.len() {
                    let v = pk_col.get(i);
                    if !v.is_null() {
                        pk_rows.insert(v, i);
                    }
                }
                let pk_rows = Arc::new(pk_rows);
                for dim_field in &dim.schema.fields {
                    if dim_field.name == fk.pk_column {
                        continue;
                    }
                    units.push(UnitSpec::Propagated {
                        key: propagated_key(
                            &fk.fk_column,
                            &fk.pk_table,
                            &fk.pk_column,
                            &dim_field.name,
                        ),
                        fk_column: fk.fk_column.clone(),
                        pk_rows: Arc::clone(&pk_rows),
                        dim_table: fk.pk_table.clone(),
                        dim_column: dim_field.name.clone(),
                    });
                }
            }
        }
        TableScanPlan {
            table: table.name.clone(),
            join_names,
            units,
        }
    }

    /// Scan one row range of the plan's table into a partial accumulator.
    /// Scanning disjoint ranges covering the table and merging the
    /// results equals scanning the whole table at once.
    pub fn scan(&self, catalog: &Catalog, range: Range<usize>) -> PartialTableStats {
        let table = catalog.table(&self.table).expect("plan table exists");
        let join_cols: Vec<&Column> = self
            .join_names
            .iter()
            .map(|n| table.column(n).expect("join column exists"))
            .collect();
        let column_counts: Vec<(String, JoinCountMap)> = table
            .schema
            .fields
            .iter()
            .map(|f| {
                let col = table.column(&f.name).expect("schema column exists");
                (f.name.clone(), count_column(col, range.clone()))
            })
            .collect();
        let mut units = BTreeMap::new();
        for spec in &self.units {
            match spec {
                UnitSpec::Field { name } => {
                    let col = table.column(name).expect("schema column exists");
                    units.insert(
                        name.clone(),
                        scan_unit(&|i| col.get(i), col.data_type(), &join_cols, range.clone()),
                    );
                }
                UnitSpec::Propagated {
                    key,
                    fk_column,
                    pk_rows,
                    dim_table,
                    dim_column,
                } => {
                    let fk_col = table.column(fk_column).expect("fk column exists");
                    let dim_col = catalog
                        .table(dim_table)
                        .and_then(|d| d.column(dim_column))
                        .expect("dimension column exists");
                    let value_at = |i: usize| {
                        let v = fk_col.get(i);
                        match pk_rows.get(&v) {
                            Some(&row) => dim_col.get(row),
                            None => Value::Null,
                        }
                    };
                    units.insert(
                        key.clone(),
                        scan_unit(&value_at, dim_col.data_type(), &join_cols, range.clone()),
                    );
                }
            }
        }
        PartialTableStats {
            table: self.table.clone(),
            rows: (range.end - range.start) as u64,
            join_names: self.join_names.clone(),
            column_counts,
            units,
        }
    }
}

/// Mergeable partial statistics for one table (or one partition of it):
/// the partition-stage output and merge-stage input of the build
/// pipeline. See the module docs for the merge laws.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialTableStats {
    table: String,
    rows: u64,
    join_names: Vec<String>,
    /// Per schema field (in schema order), the full value→count map over
    /// **all** scanned rows — source of the base CDS of join columns and
    /// the §3.6 fallback CDS of every column. Kept separately from the
    /// filter units because those only cover filter-non-NULL rows.
    column_counts: Vec<(String, JoinCountMap)>,
    units: BTreeMap<String, FilterUnitPartial>,
}

impl PartialTableStats {
    /// Table name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Rows scanned into this partial.
    pub fn row_count(&self) -> u64 {
        self.rows
    }

    /// The filter units, keyed by column name / propagated key.
    pub fn units(&self) -> impl Iterator<Item = (&str, &FilterUnitPartial)> {
        self.units.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// One filter unit by key.
    pub fn unit(&self, key: &str) -> Option<&FilterUnitPartial> {
        self.units.get(key)
    }

    /// Merge a partial built over a disjoint row set of the same table.
    /// Associative and commutative; panics if the partials disagree on
    /// schema-derived shape (they were built from different plans).
    pub fn merge(&mut self, other: PartialTableStats) {
        assert_eq!(
            self.table, other.table,
            "merging partials of different tables"
        );
        assert_eq!(
            self.join_names, other.join_names,
            "merging partials with different join columns"
        );
        assert_eq!(
            self.column_counts.len(),
            other.column_counts.len(),
            "merging partials with different schemas"
        );
        self.rows += other.rows;
        for ((name, dst), (oname, src)) in self.column_counts.iter_mut().zip(other.column_counts) {
            assert_eq!(*name, oname, "merging partials with different schemas");
            add_counts(dst, &src);
        }
        for (key, unit) in other.units {
            match self.units.entry(key) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(unit);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(unit),
            }
        }
    }

    /// The table's declared join columns with interned symbols.
    pub fn join_cols(&self, symbols: &SymbolTable) -> Vec<JoinCol> {
        self.join_names
            .iter()
            .map(|n| (symbols.lookup(n).expect("join column interned"), n.clone()))
            .collect()
    }

    /// Finalize the unconditioned base CDS set of the declared join
    /// columns.
    pub fn finalize_base(&self, join_columns: &[JoinCol], config: &SafeBoundConfig) -> CdsSet {
        let entries = join_columns
            .iter()
            .map(|(sym, name)| {
                let counts = &self
                    .column_counts
                    .iter()
                    .find(|(n, _)| n == name)
                    .expect("join column is a schema column")
                    .1;
                (*sym, compress_counts(counts, config.compression_c))
            })
            .collect();
        CdsSet::from_entries(entries)
    }

    /// Finalize the §3.6 fallback CDS of every schema column, as a set
    /// keyed by column symbol.
    pub fn finalize_fallback(&self, symbols: &SymbolTable, config: &SafeBoundConfig) -> CdsSet {
        CdsSet::from_entries(
            self.column_counts
                .iter()
                .map(|(name, counts)| {
                    (
                        symbols.lookup(name).expect("column interned"),
                        compress_counts(counts, config.compression_c),
                    )
                })
                .collect(),
        )
    }

    /// Finalize the whole table sequentially (units in key order) into a
    /// pool of its own, its sets in file order. The parallel build fans
    /// the same work out as a flat job list instead; both produce
    /// identical statistics.
    pub fn finalize(&self, symbols: &SymbolTable, config: &SafeBoundConfig) -> TablePart {
        let join_columns = self.join_cols(symbols);
        let mut pool = CdsPool::default();
        let base = freeze(&mut pool, self.finalize_base(&join_columns, config).view());
        let named: BTreeMap<String, FilterColumnStats> = self
            .units
            .iter()
            .filter_map(|(k, u)| {
                u.finalize(&join_columns, config, &mut pool)
                    .map(|s| (k.clone(), s))
            })
            .collect();
        let fallback = freeze(&mut pool, self.finalize_fallback(symbols, config).view());
        pool.shrink_to_fit();
        let stats = TableStats::assemble(
            self.table.clone(),
            symbols.lookup(&self.table).expect("table interned"),
            self.rows,
            join_columns,
            base,
            named,
            fallback,
        );
        TablePart { stats, pool }
    }

    /// Approximate heap size of the accumulator in bytes.
    pub fn byte_size(&self) -> usize {
        self.column_counts
            .iter()
            .map(|(_, m)| m.len() * 48)
            .sum::<usize>()
            + self
                .units
                .values()
                .map(FilterUnitPartial::byte_size)
                .sum::<usize>()
    }
}

/// Resolve the join columns of `table` by name.
fn resolve_join_cols<'t>(table: &'t Table, join_columns: &[JoinCol]) -> Vec<&'t Column> {
    join_columns
        .iter()
        .map(|(_, jc)| {
            table
                .column(jc)
                .unwrap_or_else(|| panic!("missing join column {jc}"))
        })
        .collect()
}

/// Count a column's non-NULL values (by [`GroupKey`]) over `range`.
fn count_column(col: &Column, range: Range<usize>) -> JoinCountMap {
    #[expect(clippy::disallowed_methods, reason = "offline build, not session-hot")]
    let mut counts: HashMap<GroupKey<'_>, u64> = HashMap::new();
    for i in range {
        match col.group_key(i) {
            GroupKey::Null => {}
            k => *counts.entry(k).or_insert(0) += 1,
        }
    }
    owned_counts(counts)
}

fn owned_counts(counts: HashMap<GroupKey<'_>, u64>) -> JoinCountMap {
    counts
        .into_iter()
        .map(|(k, c)| (JoinKey::from_group(k).expect("nulls filtered"), c))
        .collect()
}

/// Core scan: group rows of `range` by the unit's filter value and count
/// each group's join values. Borrowed [`GroupKey`]s accumulate during the
/// pass; ownership is taken once per distinct join value at the end.
fn scan_unit(
    value_at: &dyn Fn(usize) -> Value,
    data_type: DataType,
    join_cols: &[&Column],
    range: Range<usize>,
) -> FilterUnitPartial {
    struct Acc<'t> {
        rows: u64,
        join: Vec<HashMap<GroupKey<'t>, u64>>,
    }
    let mut groups: BTreeMap<Value, Acc<'_>> = BTreeMap::new();
    for i in range {
        let v = value_at(i);
        if v.is_null() {
            continue;
        }
        #[expect(clippy::disallowed_methods, reason = "offline build, not session-hot")]
        let acc = groups.entry(v).or_insert_with(|| Acc {
            rows: 0,
            join: vec![HashMap::new(); join_cols.len()],
        });
        acc.rows += 1;
        for (m, jc) in acc.join.iter_mut().zip(join_cols) {
            match jc.group_key(i) {
                GroupKey::Null => {}
                k => *m.entry(k).or_insert(0) += 1,
            }
        }
    }
    FilterUnitPartial {
        data_type,
        groups: groups
            .into_iter()
            .map(|(v, a)| {
                (
                    v,
                    ValueGroup {
                        rows: a.rows,
                        join: a.join.into_iter().map(owned_counts).collect(),
                    },
                )
            })
            .collect(),
    }
}

/// Compress the degree sequence implied by a count map.
fn compress_counts(counts: &JoinCountMap, compression_c: f64) -> PiecewiseLinear {
    let ds = DegreeSequence::from_counts(counts.values().copied());
    valid_compress(&ds, compression_c)
}

/// The compressed CDS set of one row subset, from its per-join-column
/// count maps.
fn cds_set_from_count_maps(
    join_columns: &[JoinCol],
    maps: &[JoinCountMap],
    compression_c: f64,
) -> CdsSet {
    let entries = join_columns
        .iter()
        .zip(maps)
        .map(|((sym, _), m)| (*sym, compress_counts(m, compression_c)))
        .collect();
    CdsSet::from_entries(entries)
}

/// `max_ℓ F̂_{R.V | A=a_ℓ}` over the given groups' count maps (Eq. 3 on
/// CDSs): exact integer CDS maxima per join column, then a concave
/// envelope. Mirrors the row-based accumulation bit for bit — all
/// arithmetic is on `u64` cumulative sums, floats appear only in the
/// final polyline.
fn max_cds_over_count_maps<'a>(
    join_columns: &[JoinCol],
    group_maps: impl Iterator<Item = &'a Vec<JoinCountMap>>,
) -> CdsSet {
    let mut accs: Vec<Vec<u64>> = vec![Vec::new(); join_columns.len()];
    for maps in group_maps {
        for (acc, m) in accs.iter_mut().zip(maps) {
            let ds = DegreeSequence::from_counts(m.values().copied());
            let mut cum = 0u64;
            for (i, &f) in ds.frequencies().iter().enumerate() {
                cum += f;
                if acc.len() <= i {
                    acc.push(cum);
                } else if acc[i] < cum {
                    acc[i] = cum;
                }
            }
        }
    }
    // Enforce monotonicity (max of prefixes can stall) and build polylines.
    let mut entries = Vec::with_capacity(accs.len());
    for (acc, (sym, _)) in accs.iter_mut().zip(join_columns) {
        for i in 1..acc.len() {
            if acc[i] < acc[i - 1] {
                acc[i] = acc[i - 1];
            }
        }
        let mut knots = vec![(0.0, 0.0)];
        knots.extend(
            acc.iter()
                .enumerate()
                .map(|(i, &y)| ((i + 1) as f64, y as f64)),
        );
        let cds = PiecewiseLinear::from_knots(knots).concave_envelope();
        entries.push((*sym, cds));
    }
    CdsSet::from_entries(entries)
}

/// Append an owned set to a statistics pool: the one step where a
/// finished build result becomes resident.
pub(crate) fn freeze(pool: &mut CdsPool, set: CdsView<'_>) -> SetRange {
    pool.push_set(set)
        .expect("statistics outgrow the pool's u32 indices")
}

/// Finalize equality-predicate statistics from a unit's value groups,
/// their sets appended to `pool` (groups, then the default).
pub(crate) fn finalize_mcv(
    unit: &FilterUnitPartial,
    join_columns: &[JoinCol],
    config: &SafeBoundConfig,
    pool: &mut CdsPool,
) -> McvStats {
    // MCV = top values by count; ties break by value so the cut is a pure
    // function of the counts.
    let mut entries: Vec<(&Value, &ValueGroup)> = unit.groups.iter().collect();
    entries.sort_by(|a, b| b.1.rows.cmp(&a.1.rows).then_with(|| a.0.cmp(b.0)));
    let mcv_len = entries.len().min(config.mcv_size);
    let (mcv, rest) = entries.split_at(mcv_len);

    let sets: Vec<CdsSet> = mcv
        .iter()
        .map(|(_, g)| cds_set_from_count_maps(join_columns, &g.join, config.compression_c))
        .collect();
    let (groups, assignment) = group_compress(sets, config.cds_groups, config.cluster_input_cap);

    let index = if config.use_bloom_filters {
        let mut bank = BloomBank::new(groups.len(), mcv_len.max(1), config.bloom_bits_per_key);
        for ((v, _), g) in mcv.iter().zip(&assignment) {
            bank.insert(*g, &value_bytes(v));
        }
        McvIndex::Bloom(bank)
    } else {
        McvIndex::Exact(
            mcv.iter()
                .zip(&assignment)
                .map(|((v, _), &g)| ((*v).clone(), g))
                .collect(),
        )
    };

    let default_set = max_cds_over_count_maps(join_columns, rest.iter().map(|(_, g)| &g.join));
    McvStats {
        groups: groups.iter().map(|g| freeze(pool, g.view())).collect(),
        index,
        default_set: freeze(pool, default_set.view()),
    }
}

/// Finalize the range-predicate histogram hierarchy from a unit's value
/// groups: the groups, in ascending value order, stand in for the sorted
/// row list of the single-pass builder, and equi-depth cuts snap forward
/// to group boundaries exactly like value-boundary snapping on rows.
pub(crate) fn finalize_histogram(
    unit: &FilterUnitPartial,
    join_columns: &[JoinCol],
    config: &SafeBoundConfig,
    pool: &mut CdsPool,
) -> Option<HistogramStats> {
    let groups: Vec<(&Value, &ValueGroup)> = unit.groups.iter().collect();
    if groups.is_empty() {
        return None;
    }
    let total: usize = groups.iter().map(|(_, g)| g.rows as usize).sum();
    // Row positions where a new value starts, plus `total`: the only
    // admissible cut points.
    let mut boundaries: Vec<usize> = Vec::with_capacity(groups.len() + 1);
    let mut acc = 0usize;
    boundaries.push(0);
    for (_, g) in &groups {
        acc += g.rows as usize;
        boundaries.push(acc);
    }

    let k = config.histogram_levels.max(1);
    let finest = (1usize << k).min(total.max(1));
    let mut cut_rows: Vec<usize> = vec![0];
    for b in 1..finest {
        let pos = b * total / finest;
        // Snap forward so equal values stay in one bucket.
        let snapped = if pos == 0 {
            0
        } else {
            boundaries[boundaries.partition_point(|&bp| bp < pos)]
        };
        if snapped > *cut_rows.last().unwrap() && snapped < total {
            cut_rows.push(snapped);
        }
    }
    cut_rows.push(total);

    // Build levels from finest to coarsest by halving the cut list.
    let mut levels_cuts: Vec<Vec<usize>> = vec![cut_rows];
    while levels_cuts.last().unwrap().len() > 3 {
        let prev = levels_cuts.last().unwrap();
        let mut next: Vec<usize> = prev.iter().copied().step_by(2).collect();
        if *next.last().unwrap() != *prev.last().unwrap() {
            next.push(*prev.last().unwrap());
        }
        levels_cuts.push(next);
    }

    // CDS set per bucket of every level: the bucket's counts are the sum
    // of its whole value groups.
    let group_index = |pos: usize| boundaries.partition_point(|&bp| bp < pos);
    let mut all_sets: Vec<CdsSet> = Vec::new();
    let mut levels_meta: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    for cuts in &levels_cuts {
        let mut bounds: Vec<Value> = Vec::with_capacity(cuts.len());
        let mut set_ids = Vec::with_capacity(cuts.len() - 1);
        for w in cuts.windows(2) {
            let (glo, ghi) = (group_index(w[0]), group_index(w[1]));
            bounds.push(groups[glo].0.clone());
            #[expect(clippy::disallowed_methods, reason = "offline build, not session-hot")]
            let mut sums: Vec<JoinCountMap> = vec![HashMap::new(); join_columns.len()];
            for (_, g) in &groups[glo..ghi] {
                for (dst, src) in sums.iter_mut().zip(&g.join) {
                    add_counts(dst, src);
                }
            }
            let set = cds_set_from_count_maps(join_columns, &sums, config.compression_c);
            set_ids.push(all_sets.len());
            all_sets.push(set);
        }
        bounds.push(groups.last().unwrap().0.clone());
        levels_meta.push((bounds, set_ids));
    }

    let (gsets, assignment) = group_compress(all_sets, config.cds_groups, config.cluster_input_cap);
    let levels = levels_meta
        .into_iter()
        .map(|(bounds, set_ids)| HistogramLevel {
            bounds,
            bucket_groups: set_ids.into_iter().map(|s| assignment[s]).collect(),
        })
        .collect();
    let gsets = gsets.iter().map(|g| freeze(pool, g.view())).collect();
    Some(HistogramStats::new(levels, gsets))
}

/// Finalize LIKE-predicate n-gram statistics from a unit's value groups:
/// a gram's row count is the sum of `rows` over the distinct string
/// values containing it (grams are deduplicated within a value, exactly
/// like the per-row extraction of the single-pass builder).
pub(crate) fn finalize_ngrams(
    unit: &FilterUnitPartial,
    join_columns: &[JoinCol],
    config: &SafeBoundConfig,
    pool: &mut CdsPool,
) -> Option<NgramStats> {
    if unit.data_type != DataType::Str {
        return None;
    }
    let n = config.ngram_size;
    #[expect(clippy::disallowed_methods, reason = "offline build, not session-hot")]
    let mut by_gram: HashMap<String, (u64, Vec<JoinCountMap>)> = HashMap::new();
    for (v, g) in &unit.groups {
        let Value::Str(s) = v else {
            continue;
        };
        for gram in string_ngrams(s, n) {
            #[expect(clippy::disallowed_methods, reason = "offline build, not session-hot")]
            let e = by_gram
                .entry(gram)
                .or_insert_with(|| (0, vec![HashMap::new(); join_columns.len()]));
            e.0 += g.rows;
            for (dst, src) in e.1.iter_mut().zip(&g.join) {
                add_counts(dst, src);
            }
        }
    }
    if by_gram.is_empty() {
        return None;
    }
    let mut entries: Vec<(String, (u64, Vec<JoinCountMap>))> = by_gram.into_iter().collect();
    entries.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
    let mcv_len = entries.len().min(config.ngram_mcv_size);
    let (mcv, rest) = entries.split_at(mcv_len);

    let sets: Vec<CdsSet> = mcv
        .iter()
        .map(|(_, (_, maps))| cds_set_from_count_maps(join_columns, maps, config.compression_c))
        .collect();
    let (groups, assignment) = group_compress(sets, config.cds_groups, config.cluster_input_cap);

    let index = if config.use_bloom_filters {
        let mut bank = BloomBank::new(groups.len(), mcv_len.max(1), config.bloom_bits_per_key);
        for ((g, _), gr) in mcv.iter().zip(&assignment) {
            bank.insert(*gr, &value_bytes(&Value::Str(g.clone())));
        }
        McvIndex::Bloom(bank)
    } else {
        McvIndex::Exact(
            mcv.iter()
                .zip(&assignment)
                .map(|((g, _), &gr)| (Value::Str(g.clone()), gr))
                .collect(),
        )
    };

    let default_set = max_cds_over_count_maps(join_columns, rest.iter().map(|(_, (_, maps))| maps));
    Some(NgramStats {
        n,
        groups: groups.iter().map(|g| freeze(pool, g.view())).collect(),
        index,
        default_set: freeze(pool, default_set.view()),
    })
}

/// Split `rows` into at most `k` contiguous, near-equal, non-empty
/// ranges covering `0..rows` (a single `0..0` range for an empty table).
/// The split only affects scheduling: by the merge laws, any partitioning
/// finalizes to identical statistics.
pub fn partition_ranges(rows: usize, k: usize) -> Vec<Range<usize>> {
    let k = k.max(1);
    if rows == 0 {
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..0];
    }
    let chunk = rows.div_ceil(k);
    (0..rows.div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(rows))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Sym;
    use safebound_storage::{Field, Schema};

    fn fact_table() -> Table {
        let mut fks = Vec::new();
        let mut years = Vec::new();
        let mut notes = Vec::new();
        for v in 1i64..=8 {
            for r in 0..(40 / v) {
                fks.push(Some(v));
                years.push(if r % 7 == 0 { None } else { Some(1990 + v) });
                notes.push(if r % 2 == 0 {
                    "action movie"
                } else {
                    "drama film"
                });
            }
        }
        Table::new(
            "fact",
            Schema::new(vec![
                Field::new("fk", DataType::Int),
                Field::new("year", DataType::Int),
                Field::new("note", DataType::Str),
            ]),
            vec![
                Column::from_ints(fks),
                Column::from_ints(years),
                Column::from_strs(notes.into_iter().map(Some)),
            ],
        )
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(fact_table());
        c.declare_primary_key("fact", "fk");
        c
    }

    #[test]
    fn partition_scan_merge_equals_single_scan() {
        let cat = catalog();
        let table = cat.table("fact").unwrap();
        let cfg = SafeBoundConfig::test_small();
        let plan = TableScanPlan::new(&cat, table, &cfg);
        let whole = plan.scan(&cat, 0..table.num_rows());
        for k in [2usize, 3, 7, 16] {
            let mut parts: Vec<PartialTableStats> = partition_ranges(table.num_rows(), k)
                .into_iter()
                .map(|r| plan.scan(&cat, r))
                .collect();
            // Merge in reverse order too: commutativity.
            let mut merged = parts.remove(parts.len() - 1);
            while let Some(p) = parts.pop() {
                merged.merge(p);
            }
            assert_eq!(
                merged, whole,
                "k={k} partition merge must equal single scan"
            );
        }
    }

    #[test]
    fn join_key_groups_integral_floats_with_ints() {
        let col = Column::from_floats([Some(2.0), Some(-0.0), Some(0.0), Some(2.5)]);
        let counts = count_column(&col, 0..col.len());
        // -0.0 and 0.0 both land on Int(0); 2.0 on Int(2); 2.5 by bits.
        assert_eq!(counts.get(&JoinKey::Int(0)), Some(&2));
        assert_eq!(counts.get(&JoinKey::Int(2)), Some(&1));
        assert_eq!(counts.get(&JoinKey::FloatBits(2.5f64.to_bits())), Some(&1));
    }

    #[test]
    fn filter_values_keep_negative_zero_distinct() {
        let table = Table::new(
            "t",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("x", DataType::Float),
            ]),
            vec![
                Column::from_ints([Some(1), Some(2), Some(3)]),
                Column::from_floats([Some(-0.0), Some(0.0), Some(-0.0)]),
            ],
        );
        let unit = FilterUnitPartial::scan_column(
            &table,
            table.column("x").unwrap(),
            &[(Sym(0), "id".to_string())],
            0..3,
        );
        // Two distinct filter groups (predicates distinguish -0.0)…
        assert_eq!(unit.groups.len(), 2);
        // …but the overall column counts collapse them for join degrees.
        let counts = count_column(table.column("x").unwrap(), 0..3);
        assert_eq!(counts.get(&JoinKey::Int(0)), Some(&3));
    }

    #[test]
    fn partition_ranges_cover_and_are_disjoint() {
        for rows in [0usize, 1, 5, 100, 101] {
            for k in [1usize, 2, 3, 8, 200] {
                let ranges = partition_ranges(rows, k);
                assert!(ranges.len() <= k.max(1));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, rows);
                if rows > 0 {
                    assert!(ranges.iter().all(|r| !r.is_empty()));
                }
            }
        }
    }
}
