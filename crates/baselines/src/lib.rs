//! # safebound-baselines
//!
//! Every comparison system from the SafeBound evaluation (§5, "Compared
//! Systems"): the traditional Postgres-style estimator (plus its 2D and
//! PK-join variants), PessEst, Simplicity, the ML stand-in BayesLite, and
//! the adapter exposing SafeBound itself through the optimizer's
//! [`CardinalityEstimator`](safebound_exec::CardinalityEstimator) trait.
//! The exact oracle (`TrueCard`) lives in `safebound-exec`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapter;
pub mod bayeslite;
pub mod pessest;
pub mod propagate;
pub mod simplicity;
pub mod traditional;

pub use adapter::SafeBoundEstimator;
pub use bayeslite::BayesLite;
pub use pessest::PessEst;
pub use simplicity::Simplicity;
pub use traditional::{TraditionalEstimator, TraditionalVariant};
