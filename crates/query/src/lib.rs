//! # safebound-query
//!
//! Query front end for the SafeBound reproduction: the conjunctive-query
//! AST, a SQL-subset parser, the join-variable graph, Berge-acyclicity
//! testing, construction of the α/β bound plan of §3.5, and spanning-tree
//! relaxation for cyclic queries (§3.6).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// No panics: the parser runs on the connection thread, on a client's raw
// bytes; every estimate and shape build runs `ast`, `join_graph` and
// `spanning`, also on an optimizer thread. Neither has a `catch_unwind`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod ast;
pub mod join_graph;
pub mod parser;
pub mod spanning;

pub use ast::{CmpOp, JoinEdge, LiteralRef, Predicate, Query, RelationRef};
pub use join_graph::{BoundPlan, ColId, JoinGraph, JoinVar, PlanError, Step};
pub use parser::{parse_sql, parse_sql_into, ParseError};
pub use spanning::{for_each_spanning_forest, spanning_relaxations};
