//! # safebound-core
//!
//! A from-scratch implementation of **SafeBound** (SIGMOD 2023): a
//! practical system for generating guaranteed cardinality upper bounds
//! from compressed degree sequences.
//!
//! ## Offline phase
//! [`SafeBoundBuilder`] scans a
//! [`Catalog`](safebound_storage::Catalog) and produces
//! [`SafeBoundStats`]: per join column, a compressed
//! cumulative degree sequence (CDS) produced by `ValidCompress`
//! (Algorithm 1, [`compression::valid_compress`]); per filter column,
//! CDSs conditioned on equality (MCV lists), ranges (a hierarchy of
//! equi-depth histograms), and LIKE predicates (3-grams) — all group-
//! compressed by complete-linkage clustering and indexed by Bloom filters.
//!
//! ## Online phase
//! [`SafeBound`] takes a conjunctive query, resolves
//! conditioned CDSs per relation, and evaluates the Functional Degree
//! Sequence Bound (Algorithm 2, [`bound::fdsb`]) over the query's join
//! tree in time log-linear in the total number of CDS segments.
//!
//! ## Concurrent serving
//! The offline phase produces an immutable, `Send + Sync`
//! [`StatsSnapshot`] shared behind an `Arc`;
//! [`SafeBound`] is a cheaply cloneable handle over
//! it with a lock-free read fast path and a
//! [`swap_stats`](estimator::SafeBound::swap_stats) hot swap for
//! background rebuilds. Each serving thread holds its own
//! [`BoundSession`] (shape cache + arenas); the
//! `safebound-serve` crate assembles these into a sharded worker pool.
//!
//! ```
//! use safebound_core::{SafeBound, SafeBoundConfig};
//! use safebound_query::parse_sql;
//! use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};
//!
//! let mut catalog = Catalog::new();
//! catalog.add_table(Table::new(
//!     "r",
//!     Schema::new(vec![Field::new("x", DataType::Int)]),
//!     vec![Column::from_ints([Some(1), Some(1), Some(2)])],
//! ));
//! catalog.add_table(Table::new(
//!     "s",
//!     Schema::new(vec![Field::new("x", DataType::Int)]),
//!     vec![Column::from_ints([Some(1), Some(2), Some(2)])],
//! ));
//! catalog.declare_primary_key("s", "x");
//! catalog.declare_foreign_key("r", "x", "s", "x");
//!
//! let sb = SafeBound::build(&catalog, SafeBoundConfig::default());
//! let q = parse_sql("SELECT COUNT(*) FROM r, s WHERE r.x = s.x").unwrap();
//! assert!(sb.bound(&q).unwrap() >= 3.0); // true cardinality is 3
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Clocks and threads only in `parallel`, `stats` and `incremental`;
// session-hot maps are `FastMap` (clippy.toml).
#![deny(clippy::disallowed_methods)]

pub mod bloom;
pub mod bound;
mod clock_cache;
pub mod clustering;
pub mod compression;
pub mod conditioning;
pub mod config;
pub mod degree_sequence;
pub mod estimator;
pub mod incremental;
mod litcache;
pub mod parallel;
pub mod partial;
pub mod piecewise;
pub mod pool;
pub mod simd;
pub mod snapshot_file;
pub mod stats;
pub mod symbol;

pub use bound::{fdsb, fdsb_with_scratch, BoundError, BoundScratch, RelationBoundStats};
pub use compression::{valid_compress, Segmentation};
pub use conditioning::{CdsScratch, CdsSet, SetOp};
pub use config::SafeBoundConfig;
pub use degree_sequence::DegreeSequence;
pub use estimator::{BoundSession, EstimateError, PhaseBreakdown, SafeBound, SessionStats};
pub use incremental::IncrementalBuilder;
pub use partial::{partition_ranges, FilterUnitPartial, JoinKey, PartialTableStats, TableScanPlan};
pub use piecewise::{PiecewiseConstant, PiecewiseLinear, PwlView};
pub use pool::{CdsPool, CdsView, SetRange};
pub use simd::tier as simd_tier;
pub use snapshot_file::{
    load_snapshot, read_header, save_snapshot, SnapshotFileError, SnapshotHeader,
};
pub use stats::{SafeBoundBuilder, SafeBoundStats, StatsSnapshot, TablePart, TableStats};
pub use symbol::{Sym, SymbolTable};
