//! # safebound-query
//!
//! Query front end for the SafeBound reproduction: the conjunctive-query
//! AST, a SQL-subset parser, the join-variable graph, Berge-acyclicity
//! testing, construction of the α/β bound plan of §3.5, and spanning-tree
//! relaxation for cyclic queries (§3.6).

#![warn(missing_docs)]
// `unsafe` in this workspace is confined to the SIMD kernels in
// `safebound-core`'s `simd` module; everything else forbids it outright.
#![forbid(unsafe_code)]

pub mod ast;
pub mod join_graph;
pub mod parser;
pub mod spanning;

pub use ast::{CmpOp, JoinEdge, LiteralRef, Predicate, Query, RelationRef};
pub use join_graph::{BoundPlan, ColId, JoinGraph, JoinVar, PlanError, Step};
pub use parser::{parse_sql, ParseError};
pub use spanning::{for_each_spanning_forest, spanning_relaxations};
