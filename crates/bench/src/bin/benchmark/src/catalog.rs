//! The fixed names: workloads, end-to-end metrics with their regression
//! bounds, and per-layer metrics. `BENCHMARK.json` at the repository root
//! states the same catalog for the driver; a unit test keeps the two equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base's median the metric may worsen by; `None` for
    /// per-layer metrics, which explain and are never gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Seconds one run measures when `--seconds` is not given; `BENCHMARK.json`
/// states the same value as `run_seconds`.
pub const RUN_SECONDS: f64 = 20.0;

/// The workloads `BENCHMARK.json` lists: the ones the driver runs and
/// gates on. The driver's time limit covers every run of every listed
/// workload, and a run has to be long (20 s) for ten of them to outlast
/// the build host's minute-long slow phases; that leaves room for four.
/// They are the four that share the least code: the dispatch path, the
/// parser and the cache-miss path, the cold planning path, and the offline
/// half. `wire_batch_hot` (parser and hit path again) and `wire_refresh`
/// (the widest spread and the longest set-up) run by name and in the
/// all-workloads mode only.
pub const GATED: &[&str] = &["wire_single", "wire_batch_fresh", "plan_loop", "lifecycle"];

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "wire_single",
        "One SQL line per TCP round trip: the literal cache answers in under 1 us, so socket, line protocol, parse and the per-request channel hop are the work.",
    ),
    (
        "wire_batch_hot",
        "BATCH 256 of Zipf-repeated lines: dispatch is amortised and dedup plus the literal cache absorb the bound; parser and cache-hit path are the work.",
    ),
    (
        "wire_batch_fresh",
        "BATCH 256 of re-drawn literals over cached shapes: the literal cache misses and evicts, so resolve, assemble, kernel and the memos are the work.",
    ),
    (
        "wire_refresh",
        "Fresh batches beside scheduled insert deltas and REFRESH: every publish runs an incremental build and flushes worker caches under live reads.",
    ),
    (
        "plan_loop",
        "In-process join-order optimisation of the 344 paper queries with SafeBound estimates: the cold path, shape builds and shape-cache eviction.",
    ),
    (
        "lifecycle",
        "Restart from a snapshot file until the 70th JOB-light bound is answered, after repeated full builds: decode and build, no online path.",
    ),
];

/// Reported by every workload with `--trace 0`; never zero.
///
/// The timing bounds are what the shared build host can resolve: ten runs
/// of one commit spread (inter-quartile range over median) 2–7 % in a quiet
/// period, and whole runs read up to twice as slow in one of the host's
/// slow phases (README, *Noise method*). The single-pass build time did
/// not repeat within a quarter there, so by the demotion rule it is the
/// per-layer `core.stats.build_ms`, and reaches the gate through `setup_s`.
/// The last three are deterministic; their bound only allows for float
/// formatting.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("qps", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    e2e("stats_bytes", "B", Better::Lower, 0.01),
    e2e("tightness_p50", "ratio", Better::Lower, 0.01),
    e2e("tightness_p95", "ratio", Better::Lower, 0.01),
];

/// Reported by every workload with `--trace 1`; zero where the layer did
/// no work in that workload.
pub const PER_LAYER: &[MetricDef] = &[
    layer("underestimates", "count", Better::Lower),
    layer("error_share", "ratio", Better::Lower),
    layer("datagen.catalog_s", "s", Better::Lower),
    layer("datagen.pool_lines", "count", Better::Higher),
    layer("query.parse_ns", "ns", Better::Lower),
    layer("core.estimator.bound_ns", "ns", Better::Lower),
    layer("core.estimator.resolve_ns", "ns", Better::Lower),
    layer("core.estimator.assemble_ns", "ns", Better::Lower),
    layer("core.bound.kernel_ns", "ns", Better::Lower),
    layer("core.bound.kernel_check_ns", "ns", Better::Lower),
    layer("core.estimator.other_ns", "ns", Better::Lower),
    layer("core.estimator.shape_hit_ratio", "ratio", Better::Higher),
    layer("core.estimator.lit_hit_ratio", "ratio", Better::Higher),
    layer("core.estimator.eq_memo_hit_ratio", "ratio", Better::Higher),
    layer(
        "core.estimator.range_memo_hit_ratio",
        "ratio",
        Better::Higher,
    ),
    layer(
        "core.estimator.like_memo_hit_ratio",
        "ratio",
        Better::Higher,
    ),
    layer("core.estimator.shape_evictions", "count", Better::Lower),
    layer("core.estimator.lit_evictions", "count", Better::Lower),
    layer("core.estimator.relaxations_pruned", "count", Better::Higher),
    layer("serve.service.dispatch_ns", "ns", Better::Lower),
    layer("serve.service.dedup_share", "ratio", Better::Higher),
    layer("serve.service.spills", "count", Better::Lower),
    layer("serve.service.worker_timeouts", "count", Better::Lower),
    layer("serve.server.ping_rtt_us", "us", Better::Lower),
    layer("serve.server.self_us", "us", Better::Lower),
    layer("serve.server.rtt_p99_us", "us", Better::Lower),
    layer("serve.server.rtt_p99_q", "ratio", Better::Higher),
    layer("serve.server.rtt_p99_n", "count", Better::Higher),
    layer("serve.server.err_lines", "count", Better::Lower),
    layer("serve.server.overloaded", "count", Better::Lower),
    layer("serve.refresh.publish_ms", "ms", Better::Lower),
    layer("serve.refresh.swaps", "count", Better::Higher),
    layer("serve.refresh.failures", "count", Better::Lower),
    layer("core.incremental.apply_ms", "ms", Better::Lower),
    layer("core.stats.build_ms", "ms", Better::Lower),
    layer("core.stats.build_sharded_ms", "ms", Better::Lower),
    layer("core.stats.cds_sets", "count", Better::Lower),
    layer("core.snapshot_file.save_ms", "ms", Better::Lower),
    layer("core.snapshot_file.load_ms", "ms", Better::Lower),
    layer("core.snapshot_file.bytes", "B", Better::Lower),
    layer("exec.optimizer.self_us", "us", Better::Lower),
    layer("exec.optimizer.estimates_per_plan", "count", Better::Lower),
    layer("exec.optimizer.plan_runtime_ratio", "ratio", Better::Lower),
    layer("exec.exact.check_s", "s", Better::Lower),
    layer("bench.unattributed_us", "us", Better::Lower),
    layer("bench.window_spread", "ratio", Better::Lower),
    layer("bench.trace_overhead_share", "ratio", Better::Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        for (w, why) in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{w}: {}",
                why.len()
            );
        }
        assert!((2..=8).contains(&GATED.len()));
        assert!(GATED.iter().all(|w| is_workload(w)));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = find("setup_s").unwrap();
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
        assert!(widest <= 0.25);
    }

    /// `BENCHMARK.json` is what the driver reads; this catalog is what the
    /// program prints. They must not drift. (Skipped when the package is
    /// built away from the repository root.)
    #[test]
    fn benchmark_json_states_the_same_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
        let workloads = list("workloads");
        let gated = WORKLOADS.iter().filter(|(w, _)| GATED.contains(w));
        assert_eq!(workloads.len(), GATED.len());
        for (got, (name, why)) in workloads.iter().zip(gated) {
            assert_eq!(got.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(got.get("why").and_then(Json::as_str), Some(*why));
        }
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let items = list(key);
            assert_eq!(items.len(), defs.len(), "{key}");
            for (got, def) in items.iter().zip(defs) {
                assert_eq!(got.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(got.get("unit").and_then(Json::as_str), Some(def.unit));
                assert_eq!(
                    got.get("better").and_then(Json::as_str),
                    Some(def.better.as_str())
                );
                assert_eq!(got.get("bound").and_then(Json::as_f64), def.bound);
            }
        }
    }
}
