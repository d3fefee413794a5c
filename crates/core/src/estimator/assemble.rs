//! The assemble phase: per-relation FDSB inputs from base, conditioned
//! and fallback CDSs
//! ([`PhaseBreakdown::assemble_ns`](super::PhaseBreakdown::assemble_ns)).

use super::resolve::RelCond;
use crate::bound::RelationBoundStats;
use crate::conditioning::CdsScratch;
use crate::pool::CdsPool;
use crate::stats::TableStats;
use crate::symbol::Sym;
use safebound_query::ColId;

/// Combine base/conditioned/fallback CDSs into the FDSB input for one
/// relation, writing into a reused [`RelationBoundStats`] slot. The base
/// and fallback sets are resident in `pool`, the conditioned set is
/// resident or owned; all are read in place.
pub(super) fn assemble_into(
    ts: &TableStats,
    pool: &CdsPool,
    rc: &RelCond,
    join_cols: &[(ColId, Option<Sym>)],
    out: &mut RelationBoundStats,
    cds: &mut CdsScratch,
) {
    for slot in out.cds_by_column.iter_mut() {
        if let Some(p) = slot.take() {
            cds.put_pwl(p);
        }
    }
    // Cardinality bound: conditioned if available, else the row count
    // (precomputed during resolution).
    let card_bound = rc.card;
    out.cardinality = card_bound;
    for &(plan_col, sym) in join_cols {
        let conditioned = if rc.has_cond {
            sym.and_then(|s| rc.cond_set(pool).get(s))
        } else {
            None
        };
        let base = sym.and_then(|s| pool.set(ts.base).get(s));
        let mut tmp = cds.take_pwl();
        let source = match (conditioned, base) {
            // Conditioned is already ≤ base in spirit; min for safety.
            (Some(c), Some(b)) => {
                c.pointwise_min_into(b, &mut tmp);
                tmp.view()
            }
            (Some(c), None) => c,
            (None, Some(b)) => b,
            (None, None) => {
                // Undeclared join column (§3.6): truncate the
                // unconditioned fallback at the filtered-cardinality
                // bound.
                match sym.and_then(|s| ts.fallback(pool, s)) {
                    Some(f) => f,
                    None => {
                        // Unknown column: a key-shaped CDS of the whole
                        // table is the only sound default.
                        tmp.make_key(ts.row_count as f64);
                        tmp.view()
                    }
                }
            }
        };
        let mut dst = cds.take_pwl();
        source.truncate_at_into(card_bound, &mut dst);
        out.set(plan_col, dst);
        cds.put_pwl(tmp);
    }
}
