//! # safebound
//!
//! Facade crate for the SafeBound reproduction (SIGMOD 2023): guaranteed
//! cardinality upper bounds from compressed degree sequences, plus the
//! full evaluation substrate.
//!
//! ```
//! use safebound::core::{SafeBound, SafeBoundConfig};
//! use safebound::query::parse_sql;
//! use safebound::storage::{Catalog, Column, DataType, Field, Schema, Table};
//!
//! let mut catalog = Catalog::new();
//! catalog.add_table(Table::new(
//!     "r",
//!     Schema::new(vec![Field::new("x", DataType::Int)]),
//!     vec![Column::from_ints([Some(1), Some(1), Some(2)])],
//! ));
//! let sb = SafeBound::build(&catalog, SafeBoundConfig::test_small());
//! let q = parse_sql("SELECT COUNT(*) FROM r").unwrap();
//! assert_eq!(sb.bound(&q).unwrap(), 3.0);
//! ```
//!
//! Crate map: [`core`] (the paper's contribution), [`storage`] (column
//! store + catalog), [`query`] (SQL front end + join trees), [`exec`]
//! (exact oracle, optimizer, executor), [`baselines`] (compared systems),
//! [`datagen`] (synthetic benchmarks), [`serve`] (session pool +
//! TCP line-protocol front-end over shared statistics snapshots).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use safebound_baselines as baselines;
pub use safebound_core as core;
pub use safebound_datagen as datagen;
pub use safebound_exec as exec;
pub use safebound_query as query;
pub use safebound_serve as serve;
pub use safebound_storage as storage;

/// The most common entry points, re-exported flat.
pub mod prelude {
    pub use safebound_core::{
        fdsb, valid_compress, BoundSession, DegreeSequence, EstimateError, PhaseBreakdown,
        PiecewiseConstant, PiecewiseLinear, SafeBound, SafeBoundBuilder, SafeBoundConfig,
        SafeBoundStats, Segmentation, SessionStats, StatsSnapshot,
    };
    pub use safebound_exec::{exact_count, CardinalityEstimator, CostModel, Optimizer};
    pub use safebound_query::{parse_sql, Predicate, Query};
    pub use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table, Value};
}
