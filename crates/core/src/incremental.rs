//! Incremental statistics maintenance over catalog deltas.
//!
//! [`IncrementalBuilder`] owns a [`Catalog`] together with the retained
//! partition-stage accumulators ([`PartialTableStats`]) and finalized
//! statistics of every table, each in a pool of its own ([`TablePart`]).
//! Applying a
//! [`CatalogDelta`](safebound_storage::CatalogDelta) updates exactly the
//! affected tables and returns a fresh [`StatsSnapshot`] ready to publish
//! (e.g. through the serving stack's stats refresher).
//!
//! Maintenance policy per dirty table — see the soundness table in
//! [`crate::stats`]:
//!
//! * **absorb** — the table's own change is insert-only and no dimension
//!   it references through a foreign key changed in the same delta: scan
//!   only the appended rows and merge into the retained partial (exact,
//!   by the merge laws of [`crate::partial`]);
//! * **rebuild-one-table** — anything else (deletes, or a referenced
//!   dimension changed, which re-keys the PK–FK-propagated units): rescan
//!   that table via the sharded partition path;
//! * untouched tables keep their finalized statistics verbatim.
//!
//! Either way the partial is again exactly the full-scan accumulator of
//! the mutated catalog, so the snapshot stays **bit-identical** to a
//! from-scratch [`SafeBoundBuilder::build`](crate::SafeBoundBuilder) of
//! the same catalog (up to `build_time`/`build_id` metadata) — the upper
//! bound is preserved exactly, never by slack.

use crate::config::SafeBoundConfig;
use crate::parallel::par_map;
use crate::partial::{partition_ranges, PartialTableStats, TableScanPlan};
use crate::stats::{
    finalize_partials, intern_catalog, scan_merged_partials, StatsSnapshot, TablePart,
};
use crate::symbol::SymbolTable;
use safebound_storage::{Catalog, CatalogDelta, DeltaError};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Row shards used when (re)scanning a table's partial.
const REBUILD_SHARDS: usize = 8;

/// Owns a catalog plus per-table accumulators and serves incrementally
/// maintained statistics snapshots. See the module docs for the policy.
#[derive(Debug, Clone)]
pub struct IncrementalBuilder {
    config: SafeBoundConfig,
    catalog: Catalog,
    symbols: SymbolTable,
    partials: BTreeMap<String, PartialTableStats>,
    tables: BTreeMap<String, TablePart>,
    /// Wall-clock time of the last full or incremental build step,
    /// stamped into published snapshots.
    last_build: Duration,
}

impl IncrementalBuilder {
    /// Build all statistics for `catalog` via the sharded partition path,
    /// retaining the mergeable accumulators for later deltas.
    pub fn new(catalog: Catalog, config: SafeBoundConfig) -> Self {
        let start = Instant::now();
        let symbols = intern_catalog(&catalog);
        let merged = scan_merged_partials(&catalog, &config, REBUILD_SHARDS);
        let tables = finalize_partials(&merged, &symbols, &config);
        let partials = merged
            .into_iter()
            .map(|p| (p.table().to_string(), p))
            .collect();
        IncrementalBuilder {
            config,
            catalog,
            symbols,
            partials,
            tables,
            last_build: start.elapsed(),
        }
    }

    /// The owned catalog (mutations go through [`IncrementalBuilder::apply`],
    /// keeping statistics and data in lock-step).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The build configuration.
    pub fn config(&self) -> &SafeBoundConfig {
        &self.config
    }

    /// Apply a delta to the owned catalog and incrementally maintain the
    /// statistics of the affected tables. On a validation error the
    /// catalog and statistics are unchanged. Returns a fresh snapshot of
    /// the post-delta statistics.
    pub fn apply(&mut self, delta: &CatalogDelta) -> Result<StatsSnapshot, DeltaError> {
        let start = Instant::now();
        // Pre-delta row counts: an insert-only absorption scans exactly
        // the rows appended past this point.
        let old_rows: BTreeMap<&str, usize> = delta
            .tables
            .keys()
            .filter_map(|t| self.catalog.table(t).map(|tb| (t.as_str(), tb.num_rows())))
            .collect();
        self.catalog.apply_delta(delta)?;

        let changed: BTreeSet<&str> = delta
            .tables
            .iter()
            .filter(|(_, td)| !td.is_empty())
            .map(|(n, _)| n.as_str())
            .collect();
        // Dirty = changed tables, plus (when propagation is on) every fact
        // table referencing a changed dimension: its propagated units
        // re-key through the dimension's PK map, and previously dangling
        // foreign keys may start matching.
        let mut dirty: BTreeSet<String> = changed.iter().map(|s| s.to_string()).collect();
        if self.config.pk_fk_propagation {
            for name in &changed {
                for fk in self.catalog.foreign_keys_into(name) {
                    dirty.insert(fk.fk_table.clone());
                }
            }
        }

        for name in &dirty {
            let table = self.catalog.table(name).expect("dirty table exists");
            let plan = TableScanPlan::new(&self.catalog, table, &self.config);
            // Absorbable: the table's own change appends rows only, and no
            // dimension it references changed in this delta (otherwise its
            // propagated units must re-key — full rescan).
            let own = delta.tables.get(name.as_str());
            let absorbable = own.is_some_and(|td| !td.is_empty() && td.is_insert_only())
                && (!self.config.pk_fk_propagation
                    || self
                        .catalog
                        .foreign_keys_of(name)
                        .all(|fk| !changed.contains(fk.pk_table.as_str())));
            if absorbable {
                let from = old_rows[name.as_str()];
                let extra = plan.scan(&self.catalog, from..table.num_rows());
                self.partials
                    .get_mut(name)
                    .expect("partials cover every table")
                    .merge(extra);
            } else {
                let ranges = partition_ranges(table.num_rows(), REBUILD_SHARDS);
                let shards = par_map(&ranges, |r| plan.scan(&self.catalog, r.clone()));
                let mut shards = shards.into_iter();
                let mut merged = shards.next().expect("at least one shard");
                for shard in shards {
                    merged.merge(shard);
                }
                self.partials.insert(name.clone(), merged);
            }
            let part = self.partials[name].finalize(&self.symbols, &self.config);
            self.tables.insert(name.clone(), part);
        }

        self.last_build = start.elapsed();
        Ok(self.snapshot())
    }

    /// A publishable snapshot of the current statistics (fresh
    /// `build_id`, so serving sessions flush their per-build caches).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::freeze(
            self.tables.clone(),
            self.symbols.clone(),
            self.config.clone(),
            self.last_build,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SafeBoundBuilder;
    use safebound_storage::{Column, DataType, Field, Schema, Table, Value};

    /// Star schema: dim(id PK, w), fact(fk → dim.id, year).
    fn catalog() -> Catalog {
        let dim = Table::new(
            "dim",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("w", DataType::Int),
            ]),
            vec![
                Column::from_ints((0..16).map(Some)),
                Column::from_ints((0..16).map(|i| Some(i % 4))),
            ],
        );
        let mut fks = Vec::new();
        let mut years = Vec::new();
        for v in 0i64..16 {
            for r in 0..(32 / (v + 1)) {
                fks.push(Some(v));
                years.push(Some(1990 + (r % 12)));
            }
        }
        let fact = Table::new(
            "fact",
            Schema::new(vec![
                Field::new("fk", DataType::Int),
                Field::new("year", DataType::Int),
            ]),
            vec![Column::from_ints(fks), Column::from_ints(years)],
        );
        let mut c = Catalog::new();
        c.add_table(dim);
        c.add_table(fact);
        c.declare_primary_key("dim", "id");
        c.declare_foreign_key("fact", "fk", "dim", "id");
        c
    }

    fn assert_tables_identical(inc: &StatsSnapshot, full: &StatsSnapshot) {
        assert_eq!(inc.tables, full.tables);
        assert_eq!(inc.pool, full.pool);
        assert_eq!(inc.symbols, full.symbols);
    }

    #[test]
    fn initial_build_matches_single_pass() {
        let cfg = SafeBoundConfig::test_small();
        let inc = IncrementalBuilder::new(catalog(), cfg.clone());
        let full = SafeBoundBuilder::new(cfg).build(&catalog());
        assert_tables_identical(&inc.snapshot(), &full);
    }

    #[test]
    fn insert_only_fact_delta_absorbs_and_matches_full_rebuild() {
        let cfg = SafeBoundConfig::test_small();
        let mut inc = IncrementalBuilder::new(catalog(), cfg.clone());
        let delta = CatalogDelta::inserting(
            "fact",
            (0..10)
                .map(|i| vec![Value::Int(i % 16), Value::Int(2001)])
                .collect(),
        );
        let snap = inc.apply(&delta).unwrap();
        let mut mutated = catalog();
        mutated.apply_delta(&delta).unwrap();
        let full = SafeBoundBuilder::new(cfg).build(&mutated);
        assert_tables_identical(&snap, &full);
    }

    #[test]
    fn delete_falls_back_to_rebuild_and_matches() {
        let cfg = SafeBoundConfig::test_small();
        let mut inc = IncrementalBuilder::new(catalog(), cfg.clone());
        let delta = CatalogDelta::deleting("fact", vec![0, 3, 31, 32, 33]);
        let snap = inc.apply(&delta).unwrap();
        let mut mutated = catalog();
        mutated.apply_delta(&delta).unwrap();
        assert_tables_identical(&snap, &SafeBoundBuilder::new(cfg).build(&mutated));
    }

    #[test]
    fn dimension_insert_rebuilds_referencing_fact() {
        let cfg = SafeBoundConfig::test_small();
        let mut inc = IncrementalBuilder::new(catalog(), cfg.clone());
        // First leave a dangling FK in fact…
        let dangling =
            CatalogDelta::inserting("fact", vec![vec![Value::Int(99), Value::Int(2002)]]);
        inc.apply(&dangling).unwrap();
        // …then insert the dim row it points at: the fact table's
        // propagated stats must pick the match up (requires a rebuild of
        // fact even though fact itself did not change).
        let dim_insert = CatalogDelta::inserting("dim", vec![vec![Value::Int(99), Value::Int(7)]]);
        let snap = inc.apply(&dim_insert).unwrap();
        let mut mutated = catalog();
        mutated.apply_delta(&dangling).unwrap();
        mutated.apply_delta(&dim_insert).unwrap();
        assert_tables_identical(&snap, &SafeBoundBuilder::new(cfg).build(&mutated));
    }

    #[test]
    fn mixed_multi_table_delta_matches() {
        let cfg = SafeBoundConfig::test_small();
        let mut inc = IncrementalBuilder::new(catalog(), cfg.clone());
        let mut delta = CatalogDelta::inserting("dim", vec![vec![Value::Int(16), Value::Int(1)]]);
        delta.add(
            "fact",
            safebound_storage::TableDelta {
                inserts: vec![vec![Value::Int(16), Value::Int(1999)]],
                deletes: vec![1, 2],
            },
        );
        let snap = inc.apply(&delta).unwrap();
        let mut mutated = catalog();
        mutated.apply_delta(&delta).unwrap();
        assert_tables_identical(&snap, &SafeBoundBuilder::new(cfg).build(&mutated));
    }

    #[test]
    fn failed_delta_leaves_builder_intact() {
        let cfg = SafeBoundConfig::test_small();
        let mut inc = IncrementalBuilder::new(catalog(), cfg.clone());
        let before = inc.snapshot();
        let bad = CatalogDelta::deleting("missing", vec![0]);
        assert!(inc.apply(&bad).is_err());
        assert_tables_identical(&inc.snapshot(), &before);
    }

    #[test]
    fn snapshots_get_fresh_build_ids() {
        let cfg = SafeBoundConfig::test_small();
        let inc = IncrementalBuilder::new(catalog(), cfg);
        assert_ne!(inc.snapshot().build_id, inc.snapshot().build_id);
    }
}
