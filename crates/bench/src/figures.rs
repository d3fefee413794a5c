//! One runner per table/figure of the evaluation (§5). Each returns
//! printable rows so the `experiments` binary and the tests share code.

use crate::methods::{experiment_config, MethodKind, MethodSet};
use crate::{quantile, Workload};
use safebound_core::clustering::{
    agglomerative, merge_clusters, naive_equal_size, self_join_distance, Linkage,
};
use safebound_core::compression::{
    compress_cds, compress_ds, compression_ratio, self_join_ratio, Segmentation,
};
use safebound_core::conditioning::cds_set_for_rows;
use safebound_core::{DegreeSequence, SafeBoundBuilder, SafeBoundConfig};
use safebound_datagen::tpch_catalog;
use safebound_exec::{exact_count, pk_fk_indexes, simulated_runtime, CostModel, Optimizer};
use safebound_storage::{Catalog, Value};
use std::collections::HashMap;
use std::time::Instant;

/// Per-(query, method) measurements — the raw material of Figs. 5a–7.
#[derive(Debug, Clone)]
pub struct QueryMeasurement {
    /// Workload name.
    pub workload: &'static str,
    /// Query name.
    pub query: String,
    /// Method name.
    pub method: &'static str,
    /// Wall-clock planning time (estimate all sub-queries + DP), ms.
    pub plan_ms: f64,
    /// Simulated runtime of the chosen plan (cost units).
    pub runtime: f64,
    /// The method's full-query estimate.
    pub estimate: f64,
    /// Exact cardinality.
    pub true_card: f64,
}

/// Run every method over every query of a workload (shared by Figs 5a, 5b,
/// 5c, 6, 7). Queries whose exact count fails are skipped.
pub fn run_workload(
    workload: &Workload,
    methods: &[MethodKind],
    cost: &CostModel,
) -> Vec<QueryMeasurement> {
    let mut set = MethodSet::build(&workload.catalog);
    let optimizer = Optimizer::new(cost.clone());
    let mut out = Vec::new();
    for bq in &workload.queries {
        let q = &bq.query;
        let Ok(true_card) = exact_count(&workload.catalog, q) else {
            continue;
        };
        let true_card = true_card as f64;
        let full_mask: u64 = (1u64 << q.num_relations()) - 1;
        let indexes = pk_fk_indexes(&workload.catalog, q);
        for &kind in methods {
            let est = set.estimator(kind);
            let t0 = Instant::now();
            let plan = optimizer.optimize(q, &indexes, est);
            let estimate = est.estimate(q, full_mask);
            let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
            let Ok(runtime) = simulated_runtime(&plan, q, &workload.catalog, cost) else {
                continue;
            };
            out.push(QueryMeasurement {
                workload: workload.name,
                query: bq.name.clone(),
                method: kind.name(),
                plan_ms,
                runtime,
                estimate,
                true_card,
            });
        }
    }
    out
}

/// Fig. 5a: total workload runtime relative to TrueCard plans.
pub fn fig5a(measurements: &[QueryMeasurement]) -> Vec<(String, String, f64)> {
    let mut totals: HashMap<(&str, &str), f64> = HashMap::new();
    for m in measurements {
        *totals.entry((m.workload, m.method)).or_insert(0.0) += m.runtime;
    }
    let mut rows = Vec::new();
    let workloads: Vec<&str> = {
        let mut w: Vec<&str> = totals.keys().map(|(w, _)| *w).collect();
        w.sort();
        w.dedup();
        w
    };
    for w in workloads {
        let base = totals.get(&(w, "TrueCard")).copied().unwrap_or(1.0);
        let mut methods: Vec<&str> = totals
            .keys()
            .filter(|(x, _)| *x == w)
            .map(|(_, m)| *m)
            .collect();
        methods.sort();
        for m in methods {
            rows.push((w.to_string(), m.to_string(), totals[&(w, m)] / base));
        }
    }
    rows
}

/// Fig. 5b: median planning time (ms) per workload × method.
pub fn fig5b(measurements: &[QueryMeasurement]) -> Vec<(String, String, f64)> {
    let mut per: HashMap<(&str, &str), Vec<f64>> = HashMap::new();
    for m in measurements {
        per.entry((m.workload, m.method))
            .or_default()
            .push(m.plan_ms);
    }
    let mut rows: Vec<(String, String, f64)> = per
        .into_iter()
        .map(|((w, m), mut v)| {
            v.sort_by(f64::total_cmp);
            (w.to_string(), m.to_string(), quantile(&v, 0.5))
        })
        .collect();
    rows.sort_by_key(|a| (a.0.clone(), a.1.clone()));
    rows
}

/// One Fig. 5c row: relative-error quantiles and the underestimate rate.
#[derive(Debug, Clone)]
pub struct ErrorRow {
    /// Workload.
    pub workload: String,
    /// Method.
    pub method: String,
    /// p05/p50/p95 of Estimate/True.
    pub p05: f64,
    /// Median relative error.
    pub p50: f64,
    /// 95th percentile relative error.
    pub p95: f64,
    /// Fraction of queries with Estimate < True.
    pub under_rate: f64,
}

/// Fig. 5c: relative error (Estimate / True) distributions.
pub fn fig5c(measurements: &[QueryMeasurement]) -> Vec<ErrorRow> {
    let mut per: HashMap<(&str, &str), Vec<f64>> = HashMap::new();
    let mut under: HashMap<(&str, &str), (usize, usize)> = HashMap::new();
    for m in measurements {
        if m.true_card <= 0.0 {
            continue; // relative error undefined on empty results
        }
        let rel = m.estimate / m.true_card;
        per.entry((m.workload, m.method)).or_default().push(rel);
        let e = under.entry((m.workload, m.method)).or_insert((0, 0));
        e.1 += 1;
        if m.estimate < m.true_card * (1.0 - 1e-9) {
            e.0 += 1;
        }
    }
    let mut rows: Vec<ErrorRow> = per
        .into_iter()
        .map(|((w, m), mut v)| {
            v.sort_by(f64::total_cmp);
            let (u, n) = under[&(w, m)];
            ErrorRow {
                workload: w.to_string(),
                method: m.to_string(),
                p05: quantile(&v, 0.05),
                p50: quantile(&v, 0.5),
                p95: quantile(&v, 0.95),
                under_rate: u as f64 / n as f64,
            }
        })
        .collect();
    rows.sort_by_key(|a| (a.workload.clone(), a.method.clone()));
    rows
}

/// Fig. 6: the longest-running queries under Postgres estimates and the
/// speedup SafeBound's plans achieve on them. Returns
/// `(query, postgres_runtime, safebound_runtime)` for the top `n`, plus
/// speedup quantiles `(p05, p25, p50, p75, p95)`.
#[allow(clippy::type_complexity)]
pub fn fig6(
    measurements: &[QueryMeasurement],
    n: usize,
) -> (Vec<(String, f64, f64)>, (f64, f64, f64, f64, f64)) {
    let mut pg: HashMap<(&str, &str), f64> = HashMap::new();
    let mut sb: HashMap<(&str, &str), f64> = HashMap::new();
    for m in measurements {
        match m.method {
            "Postgres" => {
                pg.insert((m.workload, m.query.as_str()), m.runtime);
            }
            "SafeBound" => {
                sb.insert((m.workload, m.query.as_str()), m.runtime);
            }
            _ => {}
        }
    }
    let mut rows: Vec<(String, f64, f64)> = pg
        .iter()
        .filter_map(|(k, &p)| sb.get(k).map(|&s| (format!("{}/{}", k.0, k.1), p, s)))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.truncate(n);
    let mut speedups: Vec<f64> = rows.iter().map(|(_, p, s)| p / s.max(1e-12)).collect();
    speedups.sort_by(f64::total_cmp);
    let q = |x| quantile(&speedups, x);
    (rows, (q(0.05), q(0.25), q(0.5), q(0.75), q(0.95)))
}

/// Fig. 7: average runtime binned by the Postgres-plan runtime (log-10
/// bins). Returns `(bin lower edge, avg postgres, avg safebound, count)`.
pub fn fig7(measurements: &[QueryMeasurement]) -> Vec<(f64, f64, f64, usize)> {
    let mut pg: HashMap<(&str, &str), f64> = HashMap::new();
    let mut sb: HashMap<(&str, &str), f64> = HashMap::new();
    for m in measurements {
        match m.method {
            "Postgres" => {
                pg.insert((m.workload, m.query.as_str()), m.runtime);
            }
            "SafeBound" => {
                sb.insert((m.workload, m.query.as_str()), m.runtime);
            }
            _ => {}
        }
    }
    let mut bins: HashMap<i32, (f64, f64, usize)> = HashMap::new();
    for (k, &p) in &pg {
        let Some(&s) = sb.get(k) else { continue };
        let bin = p.max(1.0).log10().floor() as i32;
        let e = bins.entry(bin).or_insert((0.0, 0.0, 0));
        e.0 += p;
        e.1 += s;
        e.2 += 1;
    }
    let mut rows: Vec<(f64, f64, f64, usize)> = bins
        .into_iter()
        .map(|(b, (p, s, n))| (10f64.powi(b), p / n as f64, s / n as f64, n))
        .collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    rows
}

/// Fig. 8a/8b: statistics footprint (bytes) and build time (ms) per method
/// for one workload's catalog.
pub fn fig8(catalog: &Catalog) -> Vec<(String, usize, f64)> {
    let set = MethodSet::build(catalog);
    MethodKind::with_stats()
        .into_iter()
        .map(|k| {
            (
                k.name().to_string(),
                set.byte_size(k),
                set.build_time(k).as_secs_f64() * 1e3,
            )
        })
        .collect()
}

/// One Fig. 9a row: regressions when FK indexes are enabled.
#[derive(Debug, Clone)]
pub struct RegressionRow {
    /// Method.
    pub method: String,
    /// Queries that got ≥10% slower with indexes available.
    pub regressions: usize,
    /// Total queries.
    pub total: usize,
    /// Mean slowdown among regressed queries.
    pub mean_severity: f64,
}

/// Fig. 9a: run each workload with and without index access paths; count
/// performance regressions per method.
pub fn fig9a(workloads: &[Workload], methods: &[MethodKind]) -> Vec<RegressionRow> {
    let mut rows = Vec::new();
    for &kind in methods {
        let mut regressions = 0usize;
        let mut total = 0usize;
        let mut severity = Vec::new();
        for w in workloads {
            let mut set = MethodSet::build(&w.catalog);
            let with_idx = Optimizer::new(CostModel::default());
            let without_idx = Optimizer::new(CostModel::without_indexes());
            for bq in &w.queries {
                let q = &bq.query;
                if exact_count(&w.catalog, q).is_err() {
                    continue;
                }
                let indexes = pk_fk_indexes(&w.catalog, q);
                let p_with = with_idx.optimize(q, &indexes, set.estimator(kind));
                let p_without = without_idx.optimize(q, &indexes, set.estimator(kind));
                let (Ok(rt_with), Ok(rt_without)) = (
                    simulated_runtime(&p_with, q, &w.catalog, &with_idx.cost),
                    simulated_runtime(&p_without, q, &w.catalog, &without_idx.cost),
                ) else {
                    continue;
                };
                total += 1;
                if rt_with > rt_without * 1.1 {
                    regressions += 1;
                    severity.push(rt_with / rt_without);
                }
            }
        }
        let mean_severity = if severity.is_empty() {
            1.0
        } else {
            severity.iter().sum::<f64>() / severity.len() as f64
        };
        rows.push(RegressionRow {
            method: kind.name().to_string(),
            regressions,
            total,
            mean_severity,
        });
    }
    rows
}

/// Fig. 9b: self-join error vs compression ratio for CDS- vs DS-modeling
/// across segmentation strategies, on a Zipf-skewed FK column. Returns
/// `(strategy, modeling, compression_ratio, self_join_error)`.
pub fn fig9b(catalog: &Catalog) -> Vec<(String, &'static str, f64, f64)> {
    let mc = catalog
        .table("movie_companies")
        .expect("IMDB catalog required");
    let ds = DegreeSequence::of_column(mc.column("movie_id").unwrap());
    let mut rows = Vec::new();
    let strategies: Vec<(String, Vec<Segmentation>)> = vec![
        (
            "valid-compress".into(),
            vec![
                Segmentation::ValidCompress { c: 0.5 },
                Segmentation::ValidCompress { c: 0.1 },
                Segmentation::ValidCompress { c: 0.01 },
                Segmentation::ValidCompress { c: 0.001 },
            ],
        ),
        (
            "equi-depth".into(),
            vec![
                Segmentation::EquiDepth { k: 2 },
                Segmentation::EquiDepth { k: 4 },
                Segmentation::EquiDepth { k: 8 },
                Segmentation::EquiDepth { k: 16 },
                Segmentation::EquiDepth { k: 32 },
            ],
        ),
        (
            "exponential".into(),
            vec![
                Segmentation::Exponential { base: 8.0 },
                Segmentation::Exponential { base: 4.0 },
                Segmentation::Exponential { base: 2.0 },
                Segmentation::Exponential { base: 1.4 },
            ],
        ),
    ];
    for (name, segs) in strategies {
        for seg in segs {
            let cds = compress_cds(&ds, seg);
            rows.push((
                name.clone(),
                "CDS",
                compression_ratio(&ds, &cds),
                self_join_ratio(&ds, &cds),
            ));
            let dsm = compress_ds(&ds, seg);
            rows.push((
                name.clone(),
                "DS",
                compression_ratio(&ds, &dsm),
                self_join_ratio(&ds, &dsm),
            ));
        }
    }
    rows
}

/// Fig. 9c: clustering method comparison. Builds per-value conditioned
/// CDSs of `movie_companies.movie_id` grouped by a dimension attribute
/// (production year through the PK–FK join), clusters them into `k ∈
/// {4, …, 64}` groups with each method, and reports the average self-join
/// error of members against their group max. Returns
/// `(method, clusters, avg_error)`.
pub fn fig9c(catalog: &Catalog) -> Vec<(String, usize, f64)> {
    let mc = catalog
        .table("movie_companies")
        .expect("IMDB catalog required");
    let title = catalog.table("title").expect("IMDB catalog required");
    // Propagate production_year onto movie_companies through movie_id.
    let mut year_of_movie: HashMap<Value, Value> = HashMap::new();
    let t_id = title.column("id").unwrap();
    let t_year = title.column("production_year").unwrap();
    for i in 0..title.num_rows() {
        year_of_movie.insert(t_id.get(i), t_year.get(i));
    }
    let mc_movie = mc.column("movie_id").unwrap();
    let mut rows_by_year: HashMap<Value, Vec<usize>> = HashMap::new();
    for i in 0..mc.num_rows() {
        if let Some(y) = year_of_movie.get(&mc_movie.get(i)) {
            rows_by_year.entry(y.clone()).or_default().push(i);
        }
    }
    // One conditioned CDS per year (the paper's experiment yields 132).
    let movie_id = safebound_core::Sym(0);
    let join_cols = vec![(movie_id, "movie_id".to_string())];
    let mut cdss: Vec<safebound_core::PiecewiseLinear> = rows_by_year
        .values()
        .map(|rows| {
            cds_set_for_rows(mc, &join_cols, Some(rows), 0.01)
                .get(movie_id)
                .unwrap()
                .clone()
        })
        .collect();
    cdss.sort_by(|a, b| a.endpoint().total_cmp(&b.endpoint()));

    let avg_error = |assignment: &[usize]| -> f64 {
        let groups = merge_clusters(&cdss, assignment);
        let mut total = 0.0;
        for (i, &g) in assignment.iter().enumerate() {
            let member_sq = cdss[i].delta().square_integral();
            let group_sq = groups[g].delta().square_integral();
            total += if member_sq > 0.0 {
                group_sq / member_sq
            } else {
                1.0
            };
        }
        total / assignment.len() as f64
    };

    let mut rows = Vec::new();
    for k in [4usize, 8, 16, 32, 64] {
        if k >= cdss.len() {
            continue;
        }
        let complete = agglomerative(&cdss, k, Linkage::Complete, self_join_distance);
        rows.push(("complete-linkage".to_string(), k, avg_error(&complete)));
        let single = agglomerative(&cdss, k, Linkage::Single, self_join_distance);
        rows.push(("single-linkage".to_string(), k, avg_error(&single)));
        let naive = naive_equal_size(&cdss, k, |c| c.endpoint());
        rows.push(("naive".to_string(), k, avg_error(&naive)));
    }
    rows
}

/// Fig. 10: build time vs TPC-H scale factor, with and without tri-gram
/// statistics. Returns `(sf, trigram?, rows, build_ms)`.
pub fn fig10(sfs: &[f64], seed: u64) -> Vec<(f64, bool, usize, f64)> {
    let mut rows = Vec::new();
    for &sf in sfs {
        let catalog = tpch_catalog(sf, seed);
        let data_rows: usize = catalog.tables().map(|t| t.num_rows()).sum();
        for ngrams in [false, true] {
            let config = SafeBoundConfig {
                enable_ngrams: ngrams,
                ..experiment_config()
            };
            let t0 = Instant::now();
            let stats = SafeBoundBuilder::new(config).build(&catalog);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let _ = stats.byte_size();
            rows.push((sf, ngrams, data_rows, ms));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_workloads, ExperimentScale};

    fn tiny_measurements() -> Vec<QueryMeasurement> {
        let mut scale = ExperimentScale::smoke();
        scale.job_light_ranges_take = 4;
        let mut workloads = build_workloads(&scale);
        // Keep only a few queries per workload for speed.
        for w in &mut workloads {
            w.queries.truncate(4);
        }
        let methods = [
            MethodKind::TrueCard,
            MethodKind::Postgres,
            MethodKind::SafeBound,
        ];
        let mut all = Vec::new();
        for w in &workloads[..2] {
            all.extend(run_workload(w, &methods, &CostModel::default()));
        }
        all
    }

    #[test]
    fn pipeline_produces_measurements_and_figures() {
        let ms = tiny_measurements();
        assert!(!ms.is_empty());
        // SafeBound never underestimates in the measurements.
        for m in &ms {
            if m.method == "SafeBound" && m.true_card > 0.0 {
                assert!(
                    m.estimate >= m.true_card * (1.0 - 1e-9),
                    "{}: {} < {}",
                    m.query,
                    m.estimate,
                    m.true_card
                );
            }
        }
        let f5a = fig5a(&ms);
        assert!(!f5a.is_empty());
        // TrueCard rows are exactly 1.0.
        for (_, m, v) in &f5a {
            if m == "TrueCard" {
                assert!((v - 1.0).abs() < 1e-9);
            } else {
                assert!(*v >= 1.0 - 1e-9, "{m} beat TrueCard: {v}");
            }
        }
        assert!(!fig5b(&ms).is_empty());
        let f5c = fig5c(&ms);
        for row in &f5c {
            if row.method == "SafeBound" {
                assert_eq!(row.under_rate, 0.0, "SafeBound underestimated");
                assert!(row.p05 >= 1.0 - 1e-9);
            }
        }
        let (top, _q) = fig6(&ms, 5);
        assert!(!top.is_empty());
        assert!(!fig7(&ms).is_empty());
    }

    #[test]
    fn fig9b_cds_beats_ds() {
        let catalog = safebound_datagen::imdb_catalog(&safebound_datagen::ImdbScale::tiny(), 1);
        let rows = fig9b(&catalog);
        assert!(!rows.is_empty());
        // For matching strategy entries, CDS error ≤ DS error.
        for pair in rows.chunks(2) {
            let (cds, ds) = (&pair[0], &pair[1]);
            assert_eq!(cds.1, "CDS");
            assert_eq!(ds.1, "DS");
            assert!(
                cds.3 <= ds.3 + 1e-9,
                "{}: CDS {} vs DS {}",
                cds.0,
                cds.3,
                ds.3
            );
        }
    }

    #[test]
    fn fig9c_complete_linkage_wins_overall() {
        let catalog = safebound_datagen::imdb_catalog(&safebound_datagen::ImdbScale::tiny(), 1);
        let rows = fig9c(&catalog);
        assert!(!rows.is_empty());
        let avg = |name: &str| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|(n, _, _)| n == name)
                .map(|(_, _, e)| *e)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let complete = avg("complete-linkage");
        let naive = avg("naive");
        assert!(
            complete <= naive * 1.5,
            "complete-linkage {complete} should be competitive with naive {naive}"
        );
    }

    #[test]
    fn fig10_build_time_grows_with_scale() {
        let rows = fig10(&[0.05, 0.2], 1);
        assert_eq!(rows.len(), 4);
        let small: f64 = rows
            .iter()
            .filter(|r| r.0 == 0.05 && r.1)
            .map(|r| r.3)
            .sum();
        let large: f64 = rows.iter().filter(|r| r.0 == 0.2 && r.1).map(|r| r.3).sum();
        assert!(large > small, "build time must grow: {small} vs {large}");
    }
}

/// Ablation study (DESIGN.md §4): switch off each SafeBound design choice
/// and measure its effect on statistics size, build time, median relative
/// error, and underestimates (which must stay at zero — every ablation is
/// still a sound configuration).
pub fn ablation(workload: &Workload) -> Vec<AblationRow> {
    let base = experiment_config();
    let variants: Vec<(&'static str, SafeBoundConfig)> = vec![
        ("full", base.clone()),
        (
            "no group compression",
            SafeBoundConfig {
                cds_groups: None,
                ..base.clone()
            },
        ),
        (
            "exact MCV index",
            SafeBoundConfig {
                use_bloom_filters: false,
                ..base.clone()
            },
        ),
        (
            "no PK-FK propagation",
            SafeBoundConfig {
                pk_fk_propagation: false,
                ..base.clone()
            },
        ),
        (
            "no tri-grams",
            SafeBoundConfig {
                enable_ngrams: false,
                ..base.clone()
            },
        ),
        (
            "coarse compression c=0.2",
            SafeBoundConfig {
                compression_c: 0.2,
                ..base.clone()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, config) in variants {
        let t0 = Instant::now();
        let sb = safebound_core::SafeBound::build(&workload.catalog, config);
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let snapshot = sb.snapshot();
        let bytes = snapshot.byte_size();
        let num_sets = snapshot.num_sets();
        let mut rels = Vec::new();
        let mut under = 0usize;
        for bq in &workload.queries {
            let Ok(truth) = exact_count(&workload.catalog, &bq.query) else {
                continue;
            };
            let truth = truth as f64;
            let Ok(bound) = sb.bound(&bq.query) else {
                continue;
            };
            if truth > 0.0 {
                rels.push(bound / truth);
                if bound < truth {
                    under += 1;
                }
            }
        }
        rels.sort_by(f64::total_cmp);
        rows.push(AblationRow {
            variant: name,
            bytes,
            num_sets,
            build_ms,
            median_rel_error: crate::quantile(&rels, 0.5),
            p95_rel_error: crate::quantile(&rels, 0.95),
            underestimates: under,
        });
    }
    rows
}

/// One ablation-study row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which design choice was ablated.
    pub variant: &'static str,
    /// Statistics footprint.
    pub bytes: usize,
    /// Stored CDS sets.
    pub num_sets: usize,
    /// Offline build time (ms).
    pub build_ms: f64,
    /// Median Estimate/True over the workload.
    pub median_rel_error: f64,
    /// p95 Estimate/True.
    pub p95_rel_error: f64,
    /// Underestimates (must be 0 in every sound configuration).
    pub underestimates: usize,
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::{build_workloads, ExperimentScale};

    #[test]
    fn every_ablation_stays_sound() {
        let mut scale = ExperimentScale::smoke();
        scale.job_light_ranges_take = 6;
        let mut w = build_workloads(&scale).remove(0);
        w.queries.truncate(12);
        let rows = ablation(&w);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.underestimates, 0, "{} underestimated", r.variant);
            assert!(r.bytes > 0 && r.build_ms > 0.0);
        }
        // Group compression must reduce stored sets.
        let full = rows.iter().find(|r| r.variant == "full").unwrap();
        let nogroup = rows
            .iter()
            .find(|r| r.variant == "no group compression")
            .unwrap();
        assert!(
            full.num_sets <= nogroup.num_sets,
            "grouping should not increase sets: {} vs {}",
            full.num_sets,
            nogroup.num_sets
        );
    }
}
