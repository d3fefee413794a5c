//! The assemble phase: per-relation FDSB inputs from base, conditioned
//! and fallback CDSs
//! ([`PhaseBreakdown::assemble_ns`](super::PhaseBreakdown::assemble_ns)).

use super::resolve::RelCond;
use crate::bound::RelationBoundStats;
use crate::conditioning::CdsScratch;
use crate::piecewise::PiecewiseLinear;
use crate::pool::CdsPool;
use crate::stats::TableStats;
use crate::symbol::Sym;
use safebound_query::ColId;

/// Per-query staging of assembled per-`(relation, join column)` CDSs.
///
/// The assembled input for one relation/column —
/// `truncate(min(conditioned, base) | fallback, card)` — depends only on
/// the resolved conditioning, never on which relaxation's plan asks for
/// it. For multi-relaxation (cyclic) queries the first relaxation to
/// touch a column stages the result here and every later relaxation
/// copies it (a knot memcpy) instead of re-running the polyline algebra:
/// only branch-and-bound's first candidate is ever fully assembled.
/// Single-relaxation queries bypass the stage entirely (no extra copy).
#[derive(Debug, Default)]
pub(super) struct AssembleStage {
    entries: Vec<(usize, Option<Sym>, PiecewiseLinear)>,
}

impl AssembleStage {
    /// Recycle the previous query's entries (polylines to the pool).
    pub(super) fn begin(&mut self, cds: &mut CdsScratch) {
        for (_, _, p) in self.entries.drain(..) {
            cds.put_pwl(p);
        }
    }

    /// The staged CDS for a relation/column, if already assembled.
    fn get(&self, rel: usize, sym: Option<Sym>) -> Option<&PiecewiseLinear> {
        self.entries
            .iter()
            .find(|e| e.0 == rel && e.1 == sym)
            .map(|e| &e.2)
    }
}

/// Combine base/conditioned/fallback CDSs into the FDSB input for one
/// relation, writing into a reused [`RelationBoundStats`] slot. The base
/// and fallback sets are resident in `pool`, the conditioned set is
/// resident or owned; all are read in place.
///
/// The assembled CDS per `(rel, sym)` is a pure function of the resolved
/// conditioning — independent of which relaxation's plan asks — so when
/// `stage` is provided (multi-relaxation queries), the first assembly of
/// each column is staged and later relaxations copy it bit-identically.
#[allow(clippy::too_many_arguments)]
pub(super) fn assemble_into(
    ts: &TableStats,
    pool: &CdsPool,
    rc: &RelCond,
    rel: usize,
    join_cols: &[(ColId, Option<Sym>)],
    out: &mut RelationBoundStats,
    cds: &mut CdsScratch,
    mut stage: Option<&mut AssembleStage>,
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
        if let Some(stage) = stage.as_deref() {
            if let Some(p) = stage.get(rel, sym) {
                let dst = cds.copy_pwl(p.view());
                out.set(plan_col, dst);
                continue;
            }
        }
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
        if let Some(stage) = stage.as_deref_mut() {
            let copy = cds.copy_pwl(dst.view());
            stage.entries.push((rel, sym, copy));
        }
        out.set(plan_col, dst);
        cds.put_pwl(tmp);
    }
}
