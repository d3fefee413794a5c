//! # safebound-exec
//!
//! The execution substrate standing in for PostgreSQL in the SafeBound
//! evaluation: an exact cardinality oracle (Yannakakis counting + a
//! progressive count-join for cyclic queries), a cost model, a cost-based
//! DP join optimizer with a pluggable [`CardinalityEstimator`], a
//! materializing executor, and the runtime simulator that re-costs chosen
//! plans with true cardinalities.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod exact;
pub mod executor;
pub mod filter;
pub mod optimizer;
pub mod plan;
pub mod runtime;

pub use cost::CostModel;
pub use exact::{exact_count, ExactError};
pub use executor::{execute, ExecError};
pub use filter::{filtered_count, filtered_rows};
pub use optimizer::{CardinalityEstimator, Optimizer};
pub use plan::PhysPlan;
pub use runtime::{pk_fk_indexes, plan_and_simulate, simulated_runtime, TrueCardOracle};
