//! # safebound-datagen
//!
//! Synthetic substitutes for the paper's evaluation data (DESIGN.md §2):
//! an IMDB-like catalog for the JOB workloads, a StackOverflow-like
//! catalog for STATS-CEB (with its cyclic PK/FK schema), a TPC-H-like
//! catalog for the scalability study, and deterministic generators for all
//! four query workloads — plus seeded [`CatalogDelta`](safebound_storage::CatalogDelta)
//! batches ([`delta`]) for exercising incremental statistics maintenance.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delta;
pub mod imdb;
pub mod stats_ceb;
pub mod tpch;
pub mod workloads;
pub mod zipf;

pub use delta::{churn_batch, delete_batch, insert_batch};
pub use imdb::{imdb_catalog, ImdbScale};
pub use stats_ceb::{stats_catalog, StatsScale};
pub use tpch::tpch_catalog;
pub use workloads::{job_light, job_light_ranges, job_m, stats_ceb, BenchQuery};
pub use zipf::Zipf;
