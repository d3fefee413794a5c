//! Soundness sweep: verify the pessimistic methods never underestimate on
//! any workload query (a development tool, kept for regression checks).

use safebound_baselines::PessEst;
use safebound_bench::*;
use safebound_core::SafeBound;
use safebound_exec::exact_count;

fn main() {
    let scale = ExperimentScale::smoke();
    for w in &build_workloads(&scale) {
        let sb = SafeBound::build(&w.catalog, experiment_config());
        let mut sb_bad = 0;
        let mut pe_bad = 0;
        for bq in &w.queries {
            let truth = exact_count(&w.catalog, &bq.query).unwrap() as f64;
            let bound = sb.bound(&bq.query).unwrap_or(f64::INFINITY);
            if bound < truth {
                sb_bad += 1;
                if sb_bad <= 2 {
                    println!(
                        "SB UNDER: {} bound={bound} truth={truth}\n  {}",
                        bq.name, bq.sql
                    );
                }
            }
            let pe = PessEst::new(&w.catalog, 64);
            let pb = pe.bound(&bq.query);
            if pb < truth * (1.0 - 1e-9) {
                pe_bad += 1;
                if pe_bad <= 2 {
                    println!(
                        "PE UNDER: {} bound={pb} truth={truth}\n  {}",
                        bq.name, bq.sql
                    );
                }
            }
        }
        println!(
            "{}: SafeBound under {sb_bad}, PessEst under {pe_bad} / {}",
            w.name,
            w.queries.len()
        );
    }
}
