//! # safebound-bench
//!
//! The experiment harness regenerating every table and figure of the
//! SafeBound evaluation (§5). `cargo run --release -p safebound-bench --bin
//! experiments -- all` prints every figure; see `EXPERIMENTS.md` for the
//! paper-vs-measured record and `DESIGN.md` §3 for the experiment index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod methods;

pub use figures::*;
pub use methods::*;

use safebound_datagen::{imdb_catalog, stats_catalog, BenchQuery, ImdbScale, StatsScale};
use safebound_storage::Catalog;

/// One benchmark: a catalog plus its query workload.
pub struct Workload {
    /// Display name.
    pub name: &'static str,
    /// The data.
    pub catalog: Catalog,
    /// The queries.
    pub queries: Vec<BenchQuery>,
}

/// Experiment sizing knobs.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// IMDB generator scale.
    pub imdb: ImdbScale,
    /// STATS generator scale.
    pub stats: StatsScale,
    /// Subsample JOB-LightRanges to this many queries (the paper runs all
    /// 1000; the full set works but dominates wall-clock).
    pub job_light_ranges_take: usize,
    /// Random seed for data and workloads.
    pub seed: u64,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            imdb: ImdbScale::default(),
            stats: StatsScale::default(),
            job_light_ranges_take: 120,
            seed: 42,
        }
    }
}

impl ExperimentScale {
    /// A fast configuration for smoke tests.
    pub fn smoke() -> Self {
        ExperimentScale {
            imdb: ImdbScale::tiny(),
            stats: StatsScale::tiny(),
            job_light_ranges_take: 15,
            seed: 42,
        }
    }
}

/// Build the four paper workloads.
pub fn build_workloads(scale: &ExperimentScale) -> Vec<Workload> {
    let imdb = imdb_catalog(&scale.imdb, scale.seed);
    let stats = stats_catalog(&scale.stats, scale.seed);
    let mut jlr = safebound_datagen::job_light_ranges(scale.seed);
    jlr.truncate(scale.job_light_ranges_take);
    vec![
        Workload {
            name: "JOB-Light",
            catalog: imdb.clone(),
            queries: safebound_datagen::job_light(scale.seed),
        },
        Workload {
            name: "JOB-LightRanges",
            catalog: imdb.clone(),
            queries: jlr,
        },
        Workload {
            name: "JOB-M",
            catalog: imdb,
            queries: safebound_datagen::job_m(scale.seed),
        },
        Workload {
            name: "STATS-CEB",
            catalog: stats,
            queries: safebound_datagen::stats_ceb(scale.seed),
        },
    ]
}

/// Quantile of a pre-sorted slice (linear interpolation).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_workloads_build() {
        let w = build_workloads(&ExperimentScale::smoke());
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].queries.len(), 70);
        assert_eq!(w[1].queries.len(), 15);
        assert_eq!(w[3].queries.len(), 146);
    }

    #[test]
    fn quantiles() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
    }
}
