//! End-to-end snapshot-persistence soundness sweep (PR 10).
//!
//! Across all four smoke-scale paper workloads (344 queries), the full
//! bound computation must be **bit-identical** between the in-RAM
//! statistics and statistics round-tripped through the crash-safe
//! snapshot file (save → `load_snapshot`) — and no bound from either may
//! ever fall below the exact join count. A format or validation bug that
//! altered a single statistic would either break bit-identity or, worse,
//! produce an underestimate; this sweep catches both.

use safebound_bench::{build_workloads, experiment_config, ExperimentScale};
use safebound_core::{load_snapshot, save_snapshot, SafeBound};
use safebound_exec::exact_count;

#[test]
fn snapshot_loaded_bounds_are_bit_identical_and_sound() {
    let workloads = build_workloads(&ExperimentScale::smoke());
    let mut queries = 0usize;
    for (wi, w) in workloads.iter().enumerate() {
        let sb = SafeBound::build(&w.catalog, experiment_config());
        let path = std::env::temp_dir().join(format!(
            "safebound_snapshot_soundness_{}_{wi}.snap",
            std::process::id()
        ));
        save_snapshot(&path, &sb.snapshot()).expect("snapshot save");
        let sb_loaded = SafeBound::from_stats(load_snapshot(&path).expect("snapshot load"));
        let _ = std::fs::remove_file(&path);
        for bq in &w.queries {
            let bound = sb.bound(&bq.query).unwrap_or(f64::INFINITY);
            let loaded = sb_loaded.bound(&bq.query).unwrap_or(f64::INFINITY);
            assert_eq!(
                bound.to_bits(),
                loaded.to_bits(),
                "{}: in-RAM bound {bound} != file-loaded bound {loaded}",
                bq.name,
            );
            let truth = exact_count(&w.catalog, &bq.query).unwrap() as f64;
            assert!(
                bound >= truth,
                "{}: UNDERESTIMATE bound={bound} truth={truth}",
                bq.name,
            );
            queries += 1;
        }
    }
    assert_eq!(queries, 344, "the sweep must cover all four workloads");
}
