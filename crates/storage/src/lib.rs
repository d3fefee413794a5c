//! # safebound-storage
//!
//! The in-memory storage substrate for the SafeBound reproduction: typed
//! columns with dictionary-encoded strings, tables, schemas, a catalog with
//! PK/FK metadata (which determines SafeBound's *declared join columns*),
//! and CSV import/export.
//!
//! This crate stands in for the DBMS storage layer (PostgreSQL in the
//! paper). It is deliberately simple — row counts in the millions on a
//! laptop — but complete enough that every statistics builder and the
//! executor operate on the same data representation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod column;
pub mod csv;
pub mod delta;
pub mod schema;
pub mod table;
pub mod value;

pub use catalog::{Catalog, ForeignKey};
pub use column::{Column, GroupKey};
pub use csv::{read_csv, write_csv, CsvError};
pub use delta::{CatalogDelta, DeltaError, TableDelta};
pub use schema::{Field, Schema};
pub use table::Table;
pub use value::{DataType, Value};
