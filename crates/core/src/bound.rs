//! The Functional Degree Sequence Bound — Algorithm 2 (§3.5).
//!
//! Given the α/β plan of a Berge-acyclic query (from `safebound-query`) and
//! one conditioned, compressed CDS per relation per join column, `fdsb`
//! evaluates the size of the query on the worst-case instance `W(ΔŜ)`
//! *without materializing it*:
//!
//! * an **α-step** intersects unary relations: `f̂_A(i) = Π f̂_{Bℓ}(i)`
//!   (pointwise product of piecewise-constant functions);
//! * a **β-step** star-joins a relation with its children and projects onto
//!   the parent variable: `f̂_B(i) = f̂_{R.X₀}(i) · Π f̂_{Aℓ}(F̂⁻¹_{R.Xℓ}(F̂_{R.X₀}(i)))`.
//!
//! The rank translation `F̂⁻¹_{R.Xℓ}(F̂_{R.X₀}(i))` maps the cumulative tuple
//! position of the i-th ranked X₀ value to the rank of the Xℓ value at that
//! position — frequencies are perfectly aligned in the worst-case instance.
//!
//! At a component root there is no parent variable; we anchor the product
//! on a virtual row-id column (`f ≡ 1` on `(0, N]`, `F = identity`), which
//! is the degree sequence of a key and therefore sound, and return the
//! total. Components multiply.
//!
//! # Performance
//!
//! This is the online hot path, engineered to the paper's `O(K log K)`
//! claim (Theorem 3.4) and beyond:
//!
//! * Every step is a **sweep-line merge**: the β rank translation
//!   `i ↦ F̂ℓ⁻¹(F̂₀(i))` is monotone, so each factor's composed breakpoints
//!   are produced by cursors that advance over the child's segments and
//!   both CDS knot arrays **once** — total `O(K)` per step after the
//!   plan-wide ordering already present in the inputs, with no
//!   `value(mid)`/`eval(x)`/`inverse(y)` binary searches anywhere.
//! * Statistics are addressed by dense interned column ids
//!   ([`safebound_query::ColId`]): a β-step's CDS lookup is a vector index,
//!   never a string hash.
//! * All intermediates live in a reusable [`BoundScratch`] arena. After a
//!   warm-up query of each shape, steady-state [`fdsb_with_scratch`]
//!   performs **zero heap allocation per query** (asserted by the
//!   `zero_alloc` integration test) for plans within the inline fan-in
//!   limit ([`INLINE_FAN_IN`]).
//!
//! The pre-optimization evaluator (breakpoint unions + midpoint
//! re-evaluation by binary search) is retained as [`fdsb_reference`], the
//! oracle for equivalence tests.

use crate::piecewise::{
    product_sweep_bounded, product_sweep_into, push_seg, reference as pw_ref, PiecewiseConstant,
    PiecewiseLinear, SweepScratch, EPS,
};
use safebound_query::{BoundPlan, ColId, Step};

/// Per-relation inputs to the bound: one conditioned CDS per join column
/// the plan references (indexed by the plan's interned [`ColId`]), plus a
/// scalar cardinality bound for relations that contribute no join column
/// (component roots use it as the virtual-key length).
#[derive(Debug, Clone, Default)]
pub struct RelationBoundStats {
    /// Plan column id → conditioned, compressed CDS (dense; `None` where
    /// this relation has no CDS for that plan column).
    pub cds_by_column: Vec<Option<PiecewiseLinear>>,
    /// An upper bound on the relation's (filtered) cardinality.
    pub cardinality: f64,
}

impl RelationBoundStats {
    /// Stats carrying only a cardinality bound (no join columns).
    pub fn scalar(cardinality: f64) -> Self {
        RelationBoundStats {
            cds_by_column: Vec::new(),
            cardinality,
        }
    }

    /// Stats from `(plan column id, CDS)` pairs; the cardinality bound is
    /// the smallest endpoint (each endpoint bounds the filtered
    /// cardinality).
    pub fn from_columns(entries: impl IntoIterator<Item = (ColId, PiecewiseLinear)>) -> Self {
        let mut s = RelationBoundStats {
            cds_by_column: Vec::new(),
            cardinality: f64::INFINITY,
        };
        for (col, cds) in entries {
            s.cardinality = s.cardinality.min(cds.endpoint());
            s.set(col, cds);
        }
        if !s.cardinality.is_finite() {
            s.cardinality = 0.0;
        }
        s
    }

    /// Store the CDS for a plan column.
    pub fn set(&mut self, col: ColId, cds: PiecewiseLinear) {
        let idx = col as usize;
        if self.cds_by_column.len() <= idx {
            self.cds_by_column.resize(idx + 1, None);
        }
        self.cds_by_column[idx] = Some(cds);
    }

    /// The CDS for a plan column, if present.
    #[inline]
    pub fn cds(&self, col: ColId) -> Option<&PiecewiseLinear> {
        self.cds_by_column.get(col as usize)?.as_ref()
    }
}

/// Errors from bound evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundError {
    /// The plan references a relation index beyond the provided stats.
    MissingRelation(usize),
    /// No CDS was provided for a join column the plan needs.
    MissingColumn {
        /// Relation index in the query.
        rel: usize,
        /// The missing column.
        column: String,
    },
}

impl std::fmt::Display for BoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundError::MissingRelation(r) => write!(f, "no stats for relation #{r}"),
            BoundError::MissingColumn { rel, column } => {
                write!(f, "no CDS for join column {column:?} of relation #{rel}")
            }
        }
    }
}

impl std::error::Error for BoundError {}

/// Fan-in (α inputs, or β children + anchor) evaluated with stack-inline
/// slice tables. Wider steps fall back to a per-step allocation — join
/// plans essentially never exceed this.
pub const INLINE_FAN_IN: usize = 16;

/// One evaluated plan node: either a unary piecewise-constant function
/// (its segments live in an arena buffer) or a scalar.
#[derive(Debug, Default)]
struct NodeSlot {
    is_scalar: bool,
    scalar: f64,
    segs: Vec<(f64, f64)>,
}

/// Reusable arena for [`fdsb_with_scratch`]: pools every intermediate
/// buffer the evaluator needs, so repeated queries allocate nothing once
/// the pools are warm. One scratch per thread/session; `Default::default()`
/// starts empty.
#[derive(Debug, Default)]
pub struct BoundScratch {
    /// Free segment buffers (capacity retained across queries).
    free: Vec<Vec<(f64, f64)>>,
    /// Evaluated plan nodes (one slot per step).
    nodes: Vec<NodeSlot>,
    /// Cursor/heap state for the k-way product sweeps.
    sweep: SweepScratch,
    /// Anchor `f₀` segments of the current β-step.
    anchor: Vec<(f64, f64)>,
    /// Per-factor rank-translated segments of the current β-step.
    factors: Vec<Vec<(f64, f64)>>,
}

impl BoundScratch {
    /// Recycle state from the previous query (buffers keep capacity).
    fn begin(&mut self) {
        while let Some(mut node) = self.nodes.pop() {
            node.segs.clear();
            self.free.push(node.segs);
        }
    }

    /// A cleared segment buffer from the pool.
    fn take_buf(&mut self) -> Vec<(f64, f64)> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf
    }
}

/// `∫ f dx` over raw segments, through the fixed four-accumulator combine
/// tree of [`crate::simd::reduce::weighted_total`].
fn total_of(segs: &[(f64, f64)]) -> f64 {
    crate::simd::reduce::weighted_total(segs)
}

/// Evaluate the FDSB of a plan. Returns a guaranteed upper bound on the
/// query's output cardinality under the provided statistics.
///
/// Convenience wrapper that allocates a fresh [`BoundScratch`]; callers on
/// the hot path should hold a scratch and use [`fdsb_with_scratch`].
pub fn fdsb(plan: &BoundPlan, relations: &[RelationBoundStats]) -> Result<f64, BoundError> {
    fdsb_with_scratch(plan, relations, &mut BoundScratch::default())
}

/// [`fdsb`] with caller-provided scratch: zero steady-state allocations.
pub fn fdsb_with_scratch(
    plan: &BoundPlan,
    relations: &[RelationBoundStats],
    scratch: &mut BoundScratch,
) -> Result<f64, BoundError> {
    Ok(fdsb_impl(plan, relations, scratch, f64::INFINITY)?
        .expect("an unbounded evaluation never abandons"))
}

/// [`fdsb_with_scratch`] with a **certified early exit** — the kernel side
/// of branch-and-bound over a cyclic query's relaxations.
///
/// `cutoff` is the best (smallest) bound another relaxation has already
/// produced. While evaluating the plan's **final component root**, the
/// running integral of the root product sweep is monotone non-decreasing
/// (piecewise-constant values are never negative), and every *other*
/// component's total is already fixed; their product times the running
/// integral is therefore a lower bound on this plan's final value. As soon
/// as that lower bound exceeds `cutoff`, the plan provably cannot win the
/// min over relaxations and evaluation abandons, returning `Ok(None)`.
///
/// **Bit-identity:** a completed evaluation multiplies its component
/// totals in exactly [`fdsb_with_scratch`]'s association order, and an
/// abandoned plan's true bound is strictly above `cutoff` (the comparison
/// carries an ulp-margin for the incremental-vs-batch summation
/// difference), so `min(cutoff, …)` is unchanged — pruning never alters
/// the estimator's result, only the work spent producing it.
pub fn fdsb_with_cutoff(
    plan: &BoundPlan,
    relations: &[RelationBoundStats],
    scratch: &mut BoundScratch,
    cutoff: f64,
) -> Result<Option<f64>, BoundError> {
    fdsb_impl(plan, relations, scratch, cutoff)
}

/// Shared evaluator under [`fdsb_with_scratch`] (`cutoff = ∞`, never
/// abandons) and [`fdsb_with_cutoff`].
fn fdsb_impl(
    plan: &BoundPlan,
    relations: &[RelationBoundStats],
    scratch: &mut BoundScratch,
    cutoff: f64,
) -> Result<Option<f64>, BoundError> {
    scratch.begin();
    // The early exit engages only on the last step, and only when it is
    // the final component's root (always true for plans the builder
    // emits: each component's root is its last step and components are
    // emitted in order — checked defensively anyway). At that point every
    // other root's total is already final; their product, folded in the
    // exact association order of the final product below, scales the
    // running root sweep into a certified lower bound on the plan value.
    let last_step = plan.steps.len().wrapping_sub(1);
    let prune_here = cutoff.is_finite() && plan.roots.last() == Some(&last_step);

    for (step_idx, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Alpha { inputs, .. } => {
                let mut out = scratch.take_buf();
                {
                    let mut inline: [&[(f64, f64)]; INLINE_FAN_IN] = [&[]; INLINE_FAN_IN];
                    let mut spill: Vec<&[(f64, f64)]> = Vec::new();
                    let fns: &[&[(f64, f64)]] = if inputs.len() <= INLINE_FAN_IN {
                        for (slot, &i) in inline.iter_mut().zip(inputs) {
                            debug_assert!(!scratch.nodes[i].is_scalar, "α-step over a scalar");
                            *slot = &scratch.nodes[i].segs;
                        }
                        &inline[..inputs.len()]
                    } else {
                        spill.extend(inputs.iter().map(|&i| &scratch.nodes[i].segs[..]));
                        &spill
                    };
                    product_sweep_into(fns, &mut scratch.sweep, &mut out);
                }
                scratch.nodes.push(NodeSlot {
                    is_scalar: false,
                    scalar: 0.0,
                    segs: out,
                });
            }
            Step::Beta {
                rel,
                out_column,
                children,
            } => {
                let stats = relations
                    .get(*rel)
                    .ok_or(BoundError::MissingRelation(*rel))?;
                // Anchor: the parent column's (f₀, F̂₀), or a virtual key of
                // length `cardinality` at a component root. The virtual
                // knots live on the stack; a real anchor's slope function
                // is materialized into the reused anchor buffer.
                let virtual_knots;
                let cds0: &[(f64, f64)] = match out_column {
                    Some(col) => {
                        let cds = stats.cds(*col).ok_or_else(|| BoundError::MissingColumn {
                            rel: *rel,
                            column: plan.column_name(*col).to_string(),
                        })?;
                        cds.knots()
                    }
                    None => {
                        let n = stats.cardinality.max(0.0);
                        if n <= 0.0 {
                            scratch.nodes.push(NodeSlot {
                                is_scalar: true,
                                scalar: 0.0,
                                segs: scratch.free.pop().unwrap_or_default(),
                            });
                            continue;
                        }
                        virtual_knots = [(0.0, 0.0), (n, n)];
                        &virtual_knots
                    }
                };
                anchor_slopes_into(cds0, &mut scratch.anchor);
                let support = scratch.anchor.last().map_or(0.0, |s| s.0);

                // Per factor, sweep the child's segments through the rank
                // translation into a reused buffer.
                while scratch.factors.len() < children.len() {
                    let buf = scratch.free.pop().unwrap_or_default();
                    scratch.factors.push(buf);
                }
                for (slot, (_, col, node)) in scratch.factors.iter_mut().zip(children) {
                    let cds_l = stats.cds(*col).ok_or_else(|| BoundError::MissingColumn {
                        rel: *rel,
                        column: plan.column_name(*col).to_string(),
                    })?;
                    let child = &scratch.nodes[*node];
                    debug_assert!(!child.is_scalar, "β child must be unary");
                    rank_translate_into(cds0, support, cds_l.knots(), &child.segs, slot);
                }

                let mut out = scratch.take_buf();
                {
                    let mut inline: [&[(f64, f64)]; INLINE_FAN_IN + 1] = [&[]; INLINE_FAN_IN + 1];
                    let mut spill: Vec<&[(f64, f64)]> = Vec::new();
                    let k = children.len() + 1;
                    let fns: &[&[(f64, f64)]] = if k <= INLINE_FAN_IN + 1 {
                        inline[0] = &scratch.anchor;
                        for (slot, buf) in inline[1..].iter_mut().zip(&scratch.factors) {
                            *slot = buf;
                        }
                        &inline[..k]
                    } else {
                        spill.push(&scratch.anchor);
                        spill.extend(scratch.factors[..children.len()].iter().map(|b| &b[..]));
                        &spill
                    };
                    if prune_here && step_idx == last_step && out_column.is_none() {
                        // Final component root: every other root's total is
                        // fixed; fold them in the final product's exact
                        // association order and stream-abandon the sweep.
                        let prefix =
                            plan.roots[..plan.roots.len() - 1]
                                .iter()
                                .fold(1.0f64, |acc, &r| {
                                    let node = &scratch.nodes[r];
                                    acc * if node.is_scalar {
                                        node.scalar
                                    } else {
                                        total_of(&node.segs)
                                    }
                                });
                        if !product_sweep_bounded(fns, &mut scratch.sweep, &mut out, prefix, cutoff)
                        {
                            scratch.free.push(out);
                            return Ok(None);
                        }
                    } else {
                        product_sweep_into(fns, &mut scratch.sweep, &mut out);
                    }
                }
                let node = if out_column.is_none() {
                    let mut slot = NodeSlot {
                        is_scalar: true,
                        scalar: total_of(&out),
                        segs: out,
                    };
                    slot.segs.clear();
                    slot
                } else {
                    NodeSlot {
                        is_scalar: false,
                        scalar: 0.0,
                        segs: out,
                    }
                };
                scratch.nodes.push(node);
            }
        }
    }

    let mut bound = 1.0f64;
    for &root in &plan.roots {
        let node = &scratch.nodes[root];
        bound *= if node.is_scalar {
            node.scalar
        } else {
            total_of(&node.segs)
        };
    }
    Ok(Some(bound))
}

/// Materialize the slope function `Δ F̂₀` of an anchor CDS into `out` —
/// the inline equivalent of [`PiecewiseLinear::delta`], writing into a
/// reused buffer. Adjacent equal slopes merge.
fn anchor_slopes_into(knots: &[(f64, f64)], out: &mut Vec<(f64, f64)>) {
    out.clear();
    for w in knots.windows(2) {
        let slope = (w[1].1 - w[0].1) / (w[1].0 - w[0].0);
        push_seg(out, w[1].0, slope.max(0.0));
    }
}

/// Evaluate `F(x)` with a monotone forward cursor over `knots` (callers
/// feed non-decreasing `x`; the cursor never rewinds).
#[inline]
fn eval_forward(knots: &[(f64, f64)], cursor: &mut usize, x: f64) -> f64 {
    while *cursor < knots.len() && knots[*cursor].0 < x {
        *cursor += 1;
    }
    if *cursor >= knots.len() {
        return knots.last().map_or(0.0, |k| k.1); // beyond support: endpoint
    }
    if *cursor == 0 {
        return 0.0; // x ≤ 0
    }
    let (x0, y0) = knots[*cursor - 1];
    let (x1, y1) = knots[*cursor];
    y0 + (y1 - y0) * (x - x0) / (x1 - x0)
}

/// Generalized inverse `F⁻¹(y)` (smallest `x` with `F(x) ≥ y`) with a
/// monotone forward cursor (callers feed non-decreasing `y`).
#[inline]
fn inverse_forward(knots: &[(f64, f64)], cursor: &mut usize, y: f64) -> f64 {
    if y <= 0.0 {
        return 0.0;
    }
    while *cursor < knots.len() && knots[*cursor].1 < y {
        *cursor += 1;
    }
    if *cursor >= knots.len() {
        return knots.last().map_or(0.0, |k| k.0); // beyond endpoint: support
    }
    if *cursor == 0 {
        return 0.0;
    }
    let (x0, y0) = knots[*cursor - 1];
    let (x1, y1) = knots[*cursor];
    if (y1 - y0).abs() <= EPS {
        return x0; // flat stretch: snap left
    }
    x0 + (x1 - x0) * (y - y0) / (y1 - y0)
}

/// One β factor: emit `g(i) = child(F̂ℓ⁻¹(F̂₀(i)))` on `(0, support]` as
/// segments. The composed map is monotone non-decreasing in `i`, so the
/// image of each child edge under `i = F̂₀⁻¹(F̂ℓ(edge))` is non-decreasing
/// and all three cursors advance strictly forward: `O(|child| + |F̂ℓ| +
/// |F̂₀|)` per factor with no binary searches.
fn rank_translate_into(
    cds0: &[(f64, f64)],
    support: f64,
    cds_l: &[(f64, f64)],
    child: &[(f64, f64)],
    out: &mut Vec<(f64, f64)>,
) {
    out.clear();
    if child.is_empty() || support <= 0.0 {
        return; // zero child function ⇒ zero factor
    }
    let support_l = cds_l.last().map_or(0.0, |k| k.0);
    let mut c_eval = 0usize; // cursor into F̂ℓ (x-domain, eval)
    let mut c_inv = 0usize; // cursor into F̂₀ (y-domain, inverse)
    for &(edge, value) in child {
        // The largest i whose rank stays ≤ `edge`:
        // rank(i) ≤ e  ⇔  F̂₀(i) ≤ F̂ℓ(e).
        let y = eval_forward(cds_l, &mut c_eval, edge);
        let i = inverse_forward(cds0, &mut c_inv, y);
        push_seg(out, i.min(support), value);
        if i >= support - EPS {
            return; // remaining child edges map beyond the sweep domain
        }
    }
    // Ranks beyond the last child edge's preimage saturate at F̂ℓ's
    // support (the generalized inverse never exceeds it), so the tail
    // value is the child's value at that rank — or 0 if the child's own
    // support ends first.
    let tail = if support_l <= child.last().map_or(0.0, |s| s.0) + EPS {
        let idx = child.partition_point(|s| s.0 < support_l - EPS);
        child.get(idx).map_or(0.0, |s| s.1)
    } else {
        0.0
    };
    push_seg(out, support, tail);
}

/// The pre-optimization FDSB evaluator: breakpoint unions re-evaluated at
/// interval midpoints by binary search, `String`-free but cursor-free too.
/// Kept as the semantic oracle for the sweep implementation (equivalence
/// is property-tested) and as the benchmark baseline. Allocates freely.
pub fn fdsb_reference(
    plan: &BoundPlan,
    relations: &[RelationBoundStats],
) -> Result<f64, BoundError> {
    enum Node {
        Unary(PiecewiseConstant),
        Scalar(f64),
    }

    let mut nodes: Vec<Node> = Vec::with_capacity(plan.steps.len());

    for step in &plan.steps {
        let node = match step {
            Step::Alpha { inputs, .. } => {
                let fs: Vec<&PiecewiseConstant> = inputs
                    .iter()
                    .map(|&i| match &nodes[i] {
                        Node::Unary(f) => f,
                        Node::Scalar(_) => unreachable!("α-step over a scalar node"),
                    })
                    .collect();
                Node::Unary(pw_ref::product(&fs))
            }
            Step::Beta {
                rel,
                out_column,
                children,
            } => {
                let stats = relations
                    .get(*rel)
                    .ok_or(BoundError::MissingRelation(*rel))?;
                let (f0, cds0) = match out_column {
                    Some(col) => {
                        let cds = stats.cds(*col).ok_or_else(|| BoundError::MissingColumn {
                            rel: *rel,
                            column: plan.column_name(*col).to_string(),
                        })?;
                        (cds.delta(), cds.clone())
                    }
                    None => {
                        let n = stats.cardinality.max(0.0);
                        if n <= 0.0 {
                            nodes.push(Node::Scalar(0.0));
                            continue;
                        }
                        let key = PiecewiseConstant::constant(n, 1.0);
                        let identity = key.cumulative();
                        (key, identity)
                    }
                };
                let mut factors: Vec<(&PiecewiseLinear, &PiecewiseConstant)> = Vec::new();
                for (_, col, node) in children {
                    let cds = stats.cds(*col).ok_or_else(|| BoundError::MissingColumn {
                        rel: *rel,
                        column: plan.column_name(*col).to_string(),
                    })?;
                    let unary = match &nodes[*node] {
                        Node::Unary(f) => f,
                        Node::Scalar(_) => unreachable!("β child must be unary"),
                    };
                    factors.push((cds, unary));
                }
                let result = beta_step_reference(&f0, &cds0, &factors);
                if out_column.is_none() {
                    Node::Scalar(result.total())
                } else {
                    Node::Unary(result)
                }
            }
        };
        nodes.push(node);
    }

    let mut bound = 1.0f64;
    for &root in &plan.roots {
        bound *= match &nodes[root] {
            Node::Scalar(s) => *s,
            Node::Unary(f) => f.total(),
        };
    }
    Ok(bound)
}

/// One β-step, midpoint-evaluation style (pre-sweep implementation):
/// `f̂_B(i) = f₀(i) · Π f̂_{Aℓ}(F̂ℓ⁻¹(F̂₀(i)))` on `(0, support(f₀)]`.
fn beta_step_reference(
    f0: &PiecewiseConstant,
    cds0: &PiecewiseLinear,
    factors: &[(&PiecewiseLinear, &PiecewiseConstant)],
) -> PiecewiseConstant {
    let support = f0.support();
    if support <= 0.0 {
        return PiecewiseConstant::zero();
    }
    // Breakpoints: edges of f₀ plus, per factor, the preimages of the child
    // function's edges under i ↦ F̂ℓ⁻¹(F̂₀(i)).
    let mut edges: Vec<f64> = f0.segments().iter().map(|s| s.0).collect();
    for (cds_l, unary) in factors {
        for &(edge, _) in unary.segments() {
            let y = cds_l.eval(edge);
            let i = cds0.inverse(y);
            if i > EPS && i < support - EPS {
                edges.push(i);
            }
        }
        // Slope changes of the rank translation (knots of both CDSs) also
        // move the product only through the unary factor, but including the
        // F₀ knots keeps intervals small and evaluation exact at midpoints.
        for &(x, _) in cds0.knots() {
            if x > EPS && x < support - EPS {
                edges.push(x);
            }
        }
    }
    edges.push(support);
    edges.sort_by(f64::total_cmp);
    edges.dedup_by(|a, b| (*a - *b).abs() <= EPS);

    let mut segs = Vec::with_capacity(edges.len());
    let mut prev = 0.0f64;
    for edge in edges {
        if edge <= prev + EPS {
            continue;
        }
        let mid = 0.5 * (prev + edge);
        let mut v = f0.value(mid);
        if v > 0.0 {
            for (cds_l, unary) in factors {
                let rank = cds_l.inverse(cds0.eval(mid));
                v *= unary.value(rank.max(EPS));
                if v == 0.0 {
                    break;
                }
            }
        }
        segs.push((edge, v));
        prev = edge;
    }
    PiecewiseConstant::new(segs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree_sequence::DegreeSequence;
    use safebound_query::{BoundPlan, JoinGraph, Query, RelationRef};

    fn stats_for(
        plan: &BoundPlan,
        pairs: &[(&str, &[u64])],
        extra_card: Option<f64>,
    ) -> RelationBoundStats {
        let mut s = RelationBoundStats::from_columns(pairs.iter().filter_map(|(col, freqs)| {
            let ds = DegreeSequence::from_frequencies(freqs.to_vec());
            plan.col_id(col).map(|id| (id, ds.to_cds()))
        }));
        if s.cds_by_column.is_empty() && !pairs.is_empty() {
            // Relation joins on no plan column; keep a cardinality bound.
            s.cardinality = pairs
                .iter()
                .map(|(_, f)| f.iter().sum::<u64>() as f64)
                .fold(f64::INFINITY, f64::min);
        }
        if let Some(c) = extra_card {
            s.cardinality = c;
        }
        s
    }

    fn plan_of(q: &Query) -> BoundPlan {
        BoundPlan::build(q, &JoinGraph::new(q)).unwrap()
    }

    /// Evaluate with both the sweep and the reference evaluator, assert
    /// they agree, and return the sweep result.
    fn fdsb_checked(plan: &BoundPlan, stats: &[RelationBoundStats]) -> f64 {
        let sweep = fdsb(plan, stats).unwrap();
        let reference = fdsb_reference(plan, stats).unwrap();
        assert!(
            (sweep - reference).abs() <= 1e-6 * reference.abs().max(1.0),
            "sweep {sweep} != reference {reference}"
        );
        sweep
    }

    #[test]
    fn two_way_join_matches_dsb_formula() {
        // R.X: [3,2,1], S.X: [2,2]  ⇒  DSB = Σ f_R(i)·f_S(i) = 6 + 4 = 10.
        let mut q = Query::new();
        let r = q.add_relation(RelationRef::new("r"));
        let s = q.add_relation(RelationRef::new("s"));
        q.add_join(r, "x", s, "x");
        let plan = plan_of(&q);
        let stats = vec![
            stats_for(&plan, &[("x", &[3, 2, 1])], None),
            stats_for(&plan, &[("x", &[2, 2])], None),
        ];
        let b = fdsb_checked(&plan, &stats);
        assert!((b - 10.0).abs() < 1e-9, "bound {b}");
    }

    #[test]
    fn self_join_bound_is_sum_of_squares() {
        // R ⋈ R on X with DS [4,2,2,1,1,1] ⇒ Σ f² = 27 (§3.4's SJ).
        let mut q = Query::new();
        let a = q.add_relation(RelationRef::aliased("r", "a"));
        let b = q.add_relation(RelationRef::aliased("r", "b"));
        q.add_join(a, "x", b, "x");
        let ds: &[u64] = &[4, 2, 2, 1, 1, 1];
        let plan = plan_of(&q);
        let stats = vec![
            stats_for(&plan, &[("x", ds)], None),
            stats_for(&plan, &[("x", ds)], None),
        ];
        let bound = fdsb_checked(&plan, &stats);
        assert!((bound - 27.0).abs() < 1e-9, "bound {bound}");
    }

    #[test]
    fn key_fk_join_bounded_by_fact_side() {
        // Dimension key (all freq 1, d=100) joined with fact FK [10,5,5].
        let mut q = Query::new();
        let dim = q.add_relation(RelationRef::new("dim"));
        let fact = q.add_relation(RelationRef::new("fact"));
        q.add_join(dim, "id", fact, "dim_id");
        let plan = plan_of(&q);
        let stats = vec![
            stats_for(&plan, &[("id", &[1; 100])], None),
            stats_for(&plan, &[("dim_id", &[10, 5, 5])], None),
        ];
        let b = fdsb_checked(&plan, &stats);
        // Every FK value matches exactly one key ⇒ bound = 20 = |fact|.
        assert!((b - 20.0).abs() < 1e-9, "bound {b}");
    }

    #[test]
    fn chain_query_hand_computed() {
        // R(X) ⋈ S(X,Y) ⋈ T(Y):
        //   R.X: [2,1]   S.X: [3,1]  S.Y: [2,2]  T.Y: [5,1]
        let mut q = Query::new();
        let r = q.add_relation(RelationRef::new("r"));
        let s = q.add_relation(RelationRef::new("s"));
        let t = q.add_relation(RelationRef::new("t"));
        q.add_join(r, "x", s, "x");
        q.add_join(s, "y", t, "y");
        let plan = plan_of(&q);
        let stats = vec![
            stats_for(&plan, &[("x", &[2, 1])], None),
            stats_for(&plan, &[("x", &[3, 1]), ("y", &[2, 2])], None),
            stats_for(&plan, &[("y", &[5, 1])], None),
        ];
        let bound = fdsb_checked(&plan, &stats);
        // Dense reference: materialize worst-case instances and count.
        let reference = brute_force_worst_case(&[
            ("r", vec![("x", vec![2, 1])]),
            ("s", vec![("x", vec![3, 1]), ("y", vec![2, 2])]),
            ("t", vec![("y", vec![5, 1])]),
        ]);
        assert!(
            (bound - reference).abs() <= 1e-6 * reference.max(1.0),
            "fdsb {bound} vs worst-case count {reference}"
        );
    }

    /// Materialize W(s) for a chain r(x) ⋈ s(x,y) ⋈ t(y) and count the join.
    #[allow(clippy::type_complexity)]
    fn brute_force_worst_case(spec: &[(&str, Vec<(&str, Vec<u64>)>)]) -> f64 {
        // Build each relation as rows of (per-column rank values), with the
        // sorted-column construction of Fig. 2.
        let mut rel_rows: Vec<Vec<Vec<usize>>> = Vec::new();
        for (_, cols) in spec {
            let n: u64 = cols[0].1.iter().sum();
            let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n as usize];
            for (_, freqs) in cols {
                let mut row = 0usize;
                for (rank, &f) in freqs.iter().enumerate() {
                    for _ in 0..f {
                        rows[row].push(rank + 1);
                        row += 1;
                    }
                }
                assert_eq!(row, n as usize);
            }
            rel_rows.push(rows);
        }
        // Count r ⋈ s on x, s ⋈ t on y.
        let (r, s, t) = (&rel_rows[0], &rel_rows[1], &rel_rows[2]);
        let mut count = 0f64;
        for sr in s {
            let (sx, sy) = (sr[0], sr[1]);
            let rm = r.iter().filter(|rr| rr[0] == sx).count();
            let tm = t.iter().filter(|tr| tr[0] == sy).count();
            count += (rm * tm) as f64;
        }
        count
    }

    #[test]
    fn star_query_with_alpha_step() {
        // S(X,Y) center; R1(X), R2(X) both join S.x ⇒ α-step on X.
        let mut q = Query::new();
        let s = q.add_relation(RelationRef::new("s"));
        let r1 = q.add_relation(RelationRef::new("r1"));
        let r2 = q.add_relation(RelationRef::new("r2"));
        q.add_join(s, "x", r1, "x");
        q.add_join(s, "x", r2, "x");
        let plan = plan_of(&q);
        let stats = vec![
            stats_for(&plan, &[("x", &[2, 1])], None),
            stats_for(&plan, &[("x", &[3])], None),
            stats_for(&plan, &[("x", &[4, 2])], None),
        ];
        let b = fdsb_checked(&plan, &stats);
        // Worst case: S row groups: rank1 has 2 rows (x=1), rank2 1 row (x=2).
        // r1 has only value 1 (3 copies); r2 value1:4, value2:2.
        // count = 2·3·4 (x=1) + 1·0·2 (x=2, r1 has no rank-2 value) = 24.
        assert!((b - 24.0).abs() < 1e-9, "bound {b}");
    }

    #[test]
    fn disconnected_components_multiply() {
        let mut q = Query::new();
        let a = q.add_relation(RelationRef::new("a"));
        let b = q.add_relation(RelationRef::new("b"));
        let c = q.add_relation(RelationRef::new("c"));
        q.add_join(a, "x", b, "x");
        let _ = c;
        let plan = plan_of(&q);
        let stats = vec![
            stats_for(&plan, &[("x", &[2])], None),
            stats_for(&plan, &[("x", &[3])], None),
            RelationBoundStats::scalar(7.0),
        ];
        let bound = fdsb_checked(&plan, &stats);
        assert!((bound - 6.0 * 7.0).abs() < 1e-9);
    }

    #[test]
    fn single_relation_bound_is_cardinality() {
        let mut q = Query::new();
        q.add_relation(RelationRef::new("solo"));
        let plan = plan_of(&q);
        let stats = vec![RelationBoundStats::scalar(42.0)];
        assert_eq!(fdsb_checked(&plan, &stats), 42.0);
    }

    #[test]
    fn missing_column_is_reported() {
        let mut q = Query::new();
        let a = q.add_relation(RelationRef::new("a"));
        let b = q.add_relation(RelationRef::new("b"));
        q.add_join(a, "x", b, "x");
        let plan = plan_of(&q);
        let stats = vec![
            stats_for(&plan, &[("x", &[1])], None),
            RelationBoundStats::scalar(5.0),
        ];
        match fdsb(&plan, &stats) {
            Err(BoundError::MissingColumn { column, .. }) => assert_eq!(column, "x"),
            other => panic!("expected MissingColumn, got {other:?}"),
        }
    }

    #[test]
    fn compressed_stats_dominate_exact_bound() {
        use crate::compression::valid_compress;
        // Compression can only increase the bound.
        let mut q = Query::new();
        let a = q.add_relation(RelationRef::new("a"));
        let b = q.add_relation(RelationRef::new("b"));
        q.add_join(a, "x", b, "x");
        let plan = plan_of(&q);
        let x = plan.col_id("x").unwrap();
        let da = DegreeSequence::from_frequencies((1..200).map(|i| 200 / i).collect());
        let db = DegreeSequence::from_frequencies((1..150).map(|i| 300 / i).collect());
        let exact = vec![
            RelationBoundStats::from_columns([(x, da.to_cds())]),
            RelationBoundStats::from_columns([(x, db.to_cds())]),
        ];
        let compressed = vec![
            RelationBoundStats::from_columns([(x, valid_compress(&da, 0.05))]),
            RelationBoundStats::from_columns([(x, valid_compress(&db, 0.05))]),
        ];
        let be = fdsb_checked(&plan, &exact);
        let bc = fdsb_checked(&plan, &compressed);
        assert!(bc >= be - 1e-6, "compressed {bc} must dominate exact {be}");
        // And stay within a small factor for c = 0.05.
        assert!(bc <= be * 2.0, "compressed {bc} too loose vs {be}");
    }

    #[test]
    fn empty_relation_zeroes_the_bound() {
        let mut q = Query::new();
        let a = q.add_relation(RelationRef::new("a"));
        let b = q.add_relation(RelationRef::new("b"));
        q.add_join(a, "x", b, "x");
        let plan = plan_of(&q);
        let x = plan.col_id("x").unwrap();
        let stats = vec![
            RelationBoundStats::from_columns([(x, PiecewiseLinear::empty())]),
            stats_for(&plan, &[("x", &[3, 1])], None),
        ];
        let bound = fdsb_checked(&plan, &stats);
        assert_eq!(bound, 0.0);
    }

    #[test]
    fn cutoff_abandons_losers_and_preserves_bits() {
        let (plan, stats) = {
            let mut q = Query::new();
            let r = q.add_relation(RelationRef::new("r"));
            let s = q.add_relation(RelationRef::new("s"));
            q.add_join(r, "x", s, "x");
            let plan = plan_of(&q);
            let stats = vec![
                stats_for(&plan, &[("x", &[3, 2, 1])], None),
                stats_for(&plan, &[("x", &[2, 2])], None),
            ];
            (plan, stats)
        };
        let mut scratch = BoundScratch::default();
        let full = fdsb_with_scratch(&plan, &stats, &mut scratch).unwrap(); // 10.0
                                                                            // A cutoff above the bound: completes, bit-identical.
        let some = fdsb_with_cutoff(&plan, &stats, &mut scratch, full * 2.0).unwrap();
        assert_eq!(some.map(f64::to_bits), Some(full.to_bits()));
        // A cutoff at the bound itself: must NOT abandon (ties keep the
        // min exact) and must still return the identical value.
        let tie = fdsb_with_cutoff(&plan, &stats, &mut scratch, full).unwrap();
        assert_eq!(tie.map(f64::to_bits), Some(full.to_bits()));
        // A cutoff strictly below: certified abandon.
        let none = fdsb_with_cutoff(&plan, &stats, &mut scratch, full * 0.5).unwrap();
        assert_eq!(none, None);
        // The scratch stays usable after an abandon.
        let again = fdsb_with_scratch(&plan, &stats, &mut scratch).unwrap();
        assert_eq!(again.to_bits(), full.to_bits());
    }

    #[test]
    fn scratch_reuse_is_stable_across_queries() {
        // The same scratch must serve interleaved plans of different
        // shapes without cross-contamination.
        let mut scratch = BoundScratch::default();

        let mut q1 = Query::new();
        let a = q1.add_relation(RelationRef::new("a"));
        let b = q1.add_relation(RelationRef::new("b"));
        q1.add_join(a, "x", b, "x");
        let p1 = plan_of(&q1);
        let s1 = vec![
            stats_for(&p1, &[("x", &[3, 2, 1])], None),
            stats_for(&p1, &[("x", &[2, 2])], None),
        ];

        let mut q2 = Query::new();
        let s = q2.add_relation(RelationRef::new("s"));
        let r1 = q2.add_relation(RelationRef::new("r1"));
        let r2 = q2.add_relation(RelationRef::new("r2"));
        q2.add_join(s, "x", r1, "x");
        q2.add_join(s, "x", r2, "x");
        let p2 = plan_of(&q2);
        let s2 = vec![
            stats_for(&p2, &[("x", &[2, 1])], None),
            stats_for(&p2, &[("x", &[3])], None),
            stats_for(&p2, &[("x", &[4, 2])], None),
        ];

        for _ in 0..5 {
            let b1 = fdsb_with_scratch(&p1, &s1, &mut scratch).unwrap();
            assert!((b1 - 10.0).abs() < 1e-9, "bound {b1}");
            let b2 = fdsb_with_scratch(&p2, &s2, &mut scratch).unwrap();
            assert!((b2 - 24.0).abs() < 1e-9, "bound {b2}");
        }
    }

    #[test]
    fn sweep_matches_reference_on_skewed_randoms() {
        // Randomized cross-check over chain + star shapes with skewed,
        // truncated, and compressed inputs (the shapes the estimator
        // actually feeds fdsb).
        use crate::compression::valid_compress;
        let mut state = 0x5afeb0cdu64 ^ 0x9E3779B97F4A7C15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let mut q = Query::new();
            let r = q.add_relation(RelationRef::new("r"));
            let s = q.add_relation(RelationRef::new("s"));
            let t = q.add_relation(RelationRef::new("t"));
            q.add_join(r, "x", s, "x");
            q.add_join(s, "y", t, "y");
            let plan = plan_of(&q);
            let mut freqs = |n: u64, scale: u64| -> Vec<u64> {
                let len = 1 + next() % n;
                let mut f: Vec<u64> = (0..len).map(|_| 1 + next() % scale).collect();
                f.sort_unstable_by(|a, b| b.cmp(a));
                f
            };
            let mk = |plan: &BoundPlan, cols: Vec<(&str, Vec<u64>)>, c: Option<f64>| {
                RelationBoundStats::from_columns(cols.iter().filter_map(|(name, f)| {
                    let ds = DegreeSequence::from_frequencies(f.clone());
                    let cds = match c {
                        Some(c) => valid_compress(&ds, c),
                        None => ds.to_cds(),
                    };
                    plan.col_id(name).map(|id| (id, cds))
                }))
            };
            let compress = if case % 3 == 0 { Some(0.05) } else { None };
            let stats = vec![
                mk(&plan, vec![("x", freqs(30, 20))], compress),
                mk(
                    &plan,
                    vec![("x", freqs(25, 15)), ("y", freqs(25, 15))],
                    compress,
                ),
                mk(&plan, vec![("y", freqs(30, 20))], compress),
            ];
            let sweep = fdsb(&plan, &stats).unwrap();
            let reference = fdsb_reference(&plan, &stats).unwrap();
            assert!(
                (sweep - reference).abs() <= 1e-6 * reference.abs().max(1.0),
                "case {case}: sweep {sweep} != reference {reference}"
            );
        }
    }
}
