//! Piecewise-function algebra.
//!
//! SafeBound's compressed statistics are piecewise **constant** degree
//! sequences `f̂` and piecewise **linear** cumulative degree sequences `F̂`
//! (§3.4). The FDSB inference algorithm (§3.5) requires exactly the
//! operations implemented here: pointwise products of piecewise-constant
//! functions (α-steps), composition through inverses `f̂(F̂⁻¹(G(i)))`
//! (β-steps), pointwise min (predicate conjunction), pointwise sum
//! (disjunction), pointwise max plus concave envelope (the default
//! conditioned sequence of Eq. 3), and truncation (the undeclared-join-
//! column fallback of §3.6).
//!
//! Conventions:
//! * A [`PiecewiseConstant`] `f` is defined on `(0, support]`; beyond its
//!   support it is 0; for arguments `≤ 0` it takes its first value (rank 1).
//! * A [`PiecewiseLinear`] `F` is a continuous non-decreasing polyline
//!   starting at `(0, 0)`; beyond its support it stays at its endpoint
//!   value (a CDS never exceeds the relation's cardinality).
//! * Ranks are `f64` because valid compression (Algorithm 1) produces
//!   fractional segment boundaries.
//!
//! # Complexity
//!
//! Every combining operation is a **cursor-based sweep-line merge** over
//! the already-sorted segment/knot arrays: per-input cursors advance left
//! to right, each input's current value is carried across the sweep, and
//! the output is emitted in order. For total input size `K` and fan-in
//! `m`:
//!
//! * [`PiecewiseConstant::product`] / [`PiecewiseConstant::pointwise_sum`]
//!   — `O(K·m)` for small fan-in (linear min-scan over `m` cursors),
//!   `O(K log m)` with a cursor heap once `m` exceeds
//!   [`HEAP_FAN_IN`]. No `value(x)` binary search is ever issued.
//! * [`PiecewiseLinear::pointwise_min`] / [`pointwise_max`](PiecewiseLinear::pointwise_max)
//!   / [`pointwise_sum`](PiecewiseLinear::pointwise_sum) — `O(K)` two-cursor
//!   merges; min/max emit crossing knots from the carried segment values.
//! * [`PiecewiseLinear::eval`] / [`PiecewiseLinear::inverse`] — `O(log K)`
//!   on **every** path (the flat-tail endpoint case included).
//!
//! The pre-sweep implementations (union of breakpoints, re-evaluating
//! every input at each interval midpoint by binary search —
//! `O(K·m·log K)`) are retained in [`reference`](mod@reference) as the oracle for
//! property tests.

// Per-query serving path: a panic here would answer `ERR internal` and
// cost the serving layer a rebuilt session.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

use crate::simd::reduce::{event_min_prod, EVENT_LANES};

/// Tolerance for merging breakpoints and comparing ranks.
pub const EPS: f64 = 1e-9;

/// A non-negative piecewise-constant function on `(0, support]`, stored as
/// `(right_edge, value)` pairs with strictly increasing edges.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseConstant {
    segments: Vec<(f64, f64)>,
}

impl PiecewiseConstant {
    /// Build from `(right_edge, value)` pairs. Edges must be strictly
    /// increasing and positive; values non-negative. Adjacent equal values
    /// are merged.
    pub fn new(segments: Vec<(f64, f64)>) -> Self {
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(segments.len());
        let mut prev_edge = 0.0;
        for (edge, value) in segments {
            assert!(value >= 0.0, "negative value {value}");
            assert!(
                edge > prev_edge - EPS,
                "edges must increase: {edge} after {prev_edge}"
            );
            if edge <= prev_edge + EPS {
                continue; // zero-width segment
            }
            if let Some(last) = out.last_mut() {
                if (last.1 - value).abs() <= EPS {
                    last.0 = edge;
                    prev_edge = edge;
                    continue;
                }
            }
            out.push((edge, value));
            prev_edge = edge;
        }
        PiecewiseConstant { segments: out }
    }

    /// The zero function (empty support).
    pub fn zero() -> Self {
        PiecewiseConstant {
            segments: Vec::new(),
        }
    }

    /// Constant function `v` on `(0, d]`.
    pub fn constant(d: f64, v: f64) -> Self {
        if d <= 0.0 {
            return Self::zero();
        }
        Self::new(vec![(d, v)])
    }

    /// The segments as `(right_edge, value)` pairs.
    pub fn segments(&self) -> &[(f64, f64)] {
        &self.segments
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Right end of the support (0 if empty).
    pub fn support(&self) -> f64 {
        self.segments.last().map_or(0.0, |s| s.0)
    }

    /// Value at `x`: first value for `x ≤ first edge`, 0 beyond support.
    pub fn value(&self, x: f64) -> f64 {
        if self.segments.is_empty() || x > self.support() + EPS {
            return 0.0;
        }
        // Binary search for the first segment whose right edge >= x.
        let idx = self.segments.partition_point(|&(edge, _)| edge < x - EPS);
        self.segments.get(idx).map_or(0.0, |s| s.1)
    }

    /// `∫ f dx` — for a degree sequence, the relation's cardinality.
    pub fn total(&self) -> f64 {
        let mut sum = 0.0;
        let mut prev = 0.0;
        for &(edge, value) in &self.segments {
            sum += (edge - prev) * value;
            prev = edge;
        }
        sum
    }

    /// `∫ f² dx` — the degree sequence bound of the self-join on this
    /// column (the error metric of §3.4).
    pub fn square_integral(&self) -> f64 {
        let mut sum = 0.0;
        let mut prev = 0.0;
        for &(edge, value) in &self.segments {
            sum += (edge - prev) * value * value;
            prev = edge;
        }
        sum
    }

    /// True iff values are non-increasing (every true degree sequence is).
    pub fn is_non_increasing(&self) -> bool {
        self.segments.windows(2).all(|w| w[0].1 >= w[1].1 - EPS)
    }

    /// The cumulative function `F(x) = ∫₀ˣ f`.
    pub fn cumulative(&self) -> PiecewiseLinear {
        let mut knots = Vec::with_capacity(self.segments.len() + 1);
        knots.push((0.0, 0.0));
        let mut y = 0.0;
        let mut prev = 0.0;
        for &(edge, value) in &self.segments {
            y += (edge - prev) * value;
            knots.push((edge, y));
            prev = edge;
        }
        PiecewiseLinear::from_knots(knots)
    }

    /// Pointwise product of several functions, on the intersection of
    /// supports (an α-step; Algorithm 2 line 4). Sweep-line merge: see the
    /// module docs for complexity.
    pub fn product(fns: &[&PiecewiseConstant]) -> PiecewiseConstant {
        let slices: Vec<&[(f64, f64)]> = fns.iter().map(|f| f.segments.as_slice()).collect();
        let mut scratch = SweepScratch::default();
        let mut out = Vec::new();
        product_sweep_into(&slices, &mut scratch, &mut out);
        PiecewiseConstant { segments: out }
    }

    /// Pointwise sum, extending each function by 0 beyond its support (used
    /// for disjunctions of conditioned degree sequences, §3.2). Sweep-line
    /// merge: see the module docs for complexity.
    pub fn pointwise_sum(fns: &[&PiecewiseConstant]) -> PiecewiseConstant {
        let slices: Vec<&[(f64, f64)]> = fns.iter().map(|f| f.segments.as_slice()).collect();
        let mut scratch = SweepScratch::default();
        let mut out = Vec::new();
        sum_sweep_into(&slices, &mut scratch, &mut out);
        PiecewiseConstant { segments: out }
    }

    /// Restrict the support to `(0, d]`.
    pub fn truncate_support(&self, d: f64) -> PiecewiseConstant {
        if d <= 0.0 {
            return Self::zero();
        }
        let mut out = Vec::new();
        for &(edge, value) in &self.segments {
            if edge >= d - EPS {
                out.push((d, value));
                break;
            }
            out.push((edge, value));
        }
        Self::new(out)
    }
}

/// Fan-in above which the k-way sweeps switch from a linear min-scan over
/// cursors to a binary heap of `(next_edge, input)` pairs.
pub const HEAP_FAN_IN: usize = 8;

/// Fan-in at or below which the linear sweep keeps its plain sequential
/// per-event reduction instead of the 8-wide lane kernel: filling (and
/// reducing) mostly-padding lanes costs more than it saves until the
/// fan-in approaches the lane count. The cutover depends only on the
/// fan-in, so each fan-in has one fixed association order.
const SEQ_FAN_IN: usize = 4;

/// Reusable cursor/heap storage for the k-way piecewise-constant sweeps.
/// Clearing a `Vec` keeps its capacity, so a scratch reused across calls
/// stops allocating once it has seen the largest fan-in.
#[derive(Debug, Default, Clone)]
pub struct SweepScratch {
    cursors: Vec<usize>,
    heap: Vec<(f64, u32)>,
}

/// Append `(edge, value)` to sweep output: zero-width slivers are dropped,
/// adjacent equal values extend the previous segment (the invariants of
/// [`PiecewiseConstant::new`], maintained inline).
#[inline]
pub(crate) fn push_seg(out: &mut Vec<(f64, f64)>, edge: f64, value: f64) {
    match out.last_mut() {
        Some(last) => {
            if edge <= last.0 + EPS {
                return;
            }
            if (last.1 - value).abs() <= EPS {
                last.0 = edge;
                return;
            }
        }
        None => {
            if edge <= EPS {
                return;
            }
        }
    }
    out.push((edge, value));
}

/// Sift the last element of a `(key, payload)` min-heap into place.
#[inline]
fn heap_push(heap: &mut Vec<(f64, u32)>, item: (f64, u32)) {
    heap.push(item);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap[parent].0 <= heap[i].0 {
            break;
        }
        heap.swap(parent, i);
        i = parent;
    }
}

/// Pop the minimum of a `(key, payload)` min-heap.
#[inline]
fn heap_pop(heap: &mut Vec<(f64, u32)>) -> Option<(f64, u32)> {
    if heap.is_empty() {
        return None;
    }
    let min = heap.swap_remove(0);
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut smallest = i;
        if l < heap.len() && heap[l].0 < heap[smallest].0 {
            smallest = l;
        }
        if r < heap.len() && heap[r].0 < heap[smallest].0 {
            smallest = r;
        }
        if smallest == i {
            return Some(min);
        }
        heap.swap(i, smallest);
        i = smallest;
    }
}

/// K-way sweep-line pointwise product into `out` (cleared first). Inputs
/// are raw `(right_edge, value)` segment slices so callers can feed arena
/// buffers. The output lives on the intersection of supports; each input's
/// current value is carried by a cursor, so no point evaluations are
/// needed.
pub(crate) fn product_sweep_into(
    fns: &[&[(f64, f64)]],
    scratch: &mut SweepScratch,
    out: &mut Vec<(f64, f64)>,
) {
    assert!(!fns.is_empty());
    out.clear();
    let support = fns
        .iter()
        .map(|f| f.last().map_or(0.0, |s| s.0))
        .fold(f64::INFINITY, f64::min);
    if support <= 0.0 || !support.is_finite() {
        return;
    }
    let k = fns.len();
    let cursors = &mut scratch.cursors;
    cursors.clear();
    cursors.resize(k, 0);

    if k > HEAP_FAN_IN {
        // Heap path: O(K log m). The product is maintained incrementally
        // (divide out the old value, multiply in the new), with exact
        // zeros tracked separately so no division by zero occurs.
        let heap = &mut scratch.heap;
        heap.clear();
        let mut zeros = 0usize;
        let mut prod = 1.0f64;
        for (i, f) in fns.iter().enumerate() {
            let v = f[0].1;
            if v == 0.0 {
                zeros += 1;
            } else {
                prod *= v;
            }
            heap_push(heap, (f[0].0, i as u32));
        }
        loop {
            let edge = heap[0].0;
            if edge >= support - EPS {
                push_seg(out, support, if zeros > 0 { 0.0 } else { prod });
                return;
            }
            push_seg(out, edge, if zeros > 0 { 0.0 } else { prod });
            while !heap.is_empty() && heap[0].0 <= edge + EPS {
                #[expect(clippy::unwrap_used, reason = "the loop condition checked non-empty")]
                let (_, i) = heap_pop(heap).unwrap();
                let f = fns[i as usize];
                let c = &mut cursors[i as usize];
                let old = f[*c].1;
                *c += 1;
                // Inputs can only be exhausted at the joint support, where
                // the loop has already returned.
                let (next_edge, new) = f[*c];
                if old == 0.0 {
                    zeros -= 1;
                } else {
                    prod /= old;
                }
                if new == 0.0 {
                    zeros += 1;
                } else {
                    prod *= new;
                }
                heap_push(heap, (next_edge, i));
            }
        }
    } else if k <= SEQ_FAN_IN {
        // Narrow linear path: O(K·m) sequential min-scan, product
        // recomputed per event (no incremental drift). At fan-in ≤ 4 the
        // lane kernel's fixed 8-wide array fill costs more than the
        // reduction it saves. The path choice depends only on `k`, so
        // each fan-in has one fixed association order.
        loop {
            let mut edge = f64::INFINITY;
            let mut value = 1.0f64;
            for (f, &c) in fns.iter().zip(cursors.iter()) {
                let (e, v) = f[c];
                if e < edge {
                    edge = e;
                }
                value *= v;
            }
            if edge >= support - EPS {
                push_seg(out, support, value);
                return;
            }
            push_seg(out, edge, value);
            for (f, c) in fns.iter().zip(cursors.iter_mut()) {
                while *c + 1 < f.len() && f[*c].0 <= edge + EPS {
                    *c += 1;
                }
            }
        }
    } else {
        // Wide linear path (5..=8 inputs): the per-event reduction runs
        // through the fixed-tree lane kernel. Unused lanes carry the
        // exact identities (+∞ for min, 1.0 for product), so padding
        // never changes a result (see `simd::reduce`).
        debug_assert!(k <= EVENT_LANES);
        loop {
            let mut edges = [f64::INFINITY; EVENT_LANES];
            let mut values = [1.0f64; EVENT_LANES];
            for (l, (f, &c)) in fns.iter().zip(cursors.iter()).enumerate() {
                let (e, v) = f[c];
                edges[l] = e;
                values[l] = v;
            }
            let (edge, value) = event_min_prod(&edges, &values);
            if edge >= support - EPS {
                push_seg(out, support, value);
                return;
            }
            push_seg(out, edge, value);
            for (f, c) in fns.iter().zip(cursors.iter_mut()) {
                while *c + 1 < f.len() && f[*c].0 <= edge + EPS {
                    *c += 1;
                }
            }
        }
    }
}

/// K-way sweep-line pointwise sum into `out` (cleared first). The output
/// lives on the union of supports; exhausted inputs contribute 0.
pub(crate) fn sum_sweep_into(
    fns: &[&[(f64, f64)]],
    scratch: &mut SweepScratch,
    out: &mut Vec<(f64, f64)>,
) {
    assert!(!fns.is_empty());
    out.clear();
    let support = fns
        .iter()
        .map(|f| f.last().map_or(0.0, |s| s.0))
        .fold(0.0, f64::max);
    if support <= 0.0 {
        return;
    }
    let cursors = &mut scratch.cursors;
    cursors.clear();
    cursors.resize(fns.len(), 0);
    loop {
        // Next event: the smallest pending edge over live cursors.
        let mut edge = f64::INFINITY;
        let mut value = 0.0f64;
        for (f, &c) in fns.iter().zip(cursors.iter()) {
            if c < f.len() {
                let e = f[c].0;
                if e < edge {
                    edge = e;
                }
                value += f[c].1;
            }
        }
        push_seg(out, edge, value);
        if edge >= support - EPS {
            return;
        }
        for (f, c) in fns.iter().zip(cursors.iter_mut()) {
            while *c < f.len() && f[*c].0 <= edge + EPS {
                *c += 1;
            }
        }
    }
}

/// A continuous, non-decreasing polyline starting at `(0, 0)` — the shape
/// of every (compressed) cumulative degree sequence. Beyond its last knot
/// the function is constant at its endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    knots: Vec<(f64, f64)>,
}

/// Append a knot to a normalized knot list, maintaining the invariants of
/// [`PiecewiseLinear::from_knots`] inline: strictly increasing x (ties
/// keep the first knot), non-decreasing y, collinear middles removed. The
/// list must already hold the origin `(0, 0)`.
#[inline]
pub(crate) fn push_knot(out: &mut Vec<(f64, f64)>, x: f64, y: f64) {
    #[expect(clippy::expect_used, reason = "callers seed the origin knot first")]
    let &(px, py) = out.last().expect("knot list must hold the origin");
    if x <= px + EPS {
        return;
    }
    let y = y.max(py);
    if out.len() >= 2 {
        let &(qx, qy) = &out[out.len() - 2];
        let s1 = (py - qy) / (px - qx);
        let s2 = (y - py) / (x - px);
        if (s1 - s2).abs() <= EPS {
            out.pop();
        }
    }
    out.push((x, y));
}

/// Two-cursor min/max sweep over raw knot arrays into `out` (cleared and
/// re-seeded with the origin). The in-place core behind
/// [`PiecewiseLinear::pointwise_min_into`] / `pointwise_max_envelope_into`.
fn combine_knots_into(
    ka: &[(f64, f64)],
    kb: &[(f64, f64)],
    take_min: bool,
    out: &mut Vec<(f64, f64)>,
) {
    out.clear();
    out.push((0.0, 0.0));
    let support = ka
        .last()
        .map_or(0.0, |k| k.0)
        .max(kb.last().map_or(0.0, |k| k.0));
    let (mut ia, mut ib) = (1usize, 1usize);
    let (mut x, mut ya, mut yb) = (0.0f64, 0.0f64, 0.0f64);
    while x < support - EPS {
        let (nxa, sa) = if ia < ka.len() {
            (ka[ia].0, (ka[ia].1 - ya) / (ka[ia].0 - x))
        } else {
            (f64::INFINITY, 0.0)
        };
        let (nxb, sb) = if ib < kb.len() {
            (kb[ib].0, (kb[ib].1 - yb) / (kb[ib].0 - x))
        } else {
            (f64::INFINITY, 0.0)
        };
        let x1 = nxa.min(nxb).min(support);
        let dx = x1 - x;
        let ya1 = if nxa <= x1 + EPS {
            ka[ia].1
        } else {
            ya + sa * dx
        };
        let yb1 = if nxb <= x1 + EPS {
            kb[ib].1
        } else {
            yb + sb * dx
        };
        let (d0, d1) = (ya - yb, ya1 - yb1);
        if d0 * d1 < 0.0 && d0.abs() > EPS && d1.abs() > EPS {
            let xc = x + dx * d0 / (d0 - d1);
            if xc > x + EPS && xc < x1 - EPS {
                push_knot(out, xc, ya + sa * (xc - x));
            }
        }
        push_knot(out, x1, if take_min { ya1.min(yb1) } else { ya1.max(yb1) });
        x = x1;
        ya = ya1;
        yb = yb1;
        if ia < ka.len() && ka[ia].0 <= x + EPS {
            ia += 1;
        }
        if ib < kb.len() && kb[ib].0 <= x + EPS {
            ib += 1;
        }
    }
}

/// Two-cursor sum sweep over raw knot arrays into `out` (cleared and
/// re-seeded with the origin).
fn sum_knots_into(ka: &[(f64, f64)], kb: &[(f64, f64)], out: &mut Vec<(f64, f64)>) {
    out.clear();
    out.push((0.0, 0.0));
    let support = ka
        .last()
        .map_or(0.0, |k| k.0)
        .max(kb.last().map_or(0.0, |k| k.0));
    let (mut ia, mut ib) = (1usize, 1usize);
    let (mut x, mut ya, mut yb) = (0.0f64, 0.0f64, 0.0f64);
    while x < support - EPS {
        let (nxa, sa) = if ia < ka.len() {
            (ka[ia].0, (ka[ia].1 - ya) / (ka[ia].0 - x))
        } else {
            (f64::INFINITY, 0.0)
        };
        let (nxb, sb) = if ib < kb.len() {
            (kb[ib].0, (kb[ib].1 - yb) / (kb[ib].0 - x))
        } else {
            (f64::INFINITY, 0.0)
        };
        let x1 = nxa.min(nxb).min(support);
        let dx = x1 - x;
        ya = if nxa <= x1 + EPS {
            ka[ia].1
        } else {
            ya + sa * dx
        };
        yb = if nxb <= x1 + EPS {
            kb[ib].1
        } else {
            yb + sb * dx
        };
        push_knot(out, x1, ya + yb);
        x = x1;
        if ia < ka.len() && ka[ia].0 <= x + EPS {
            ia += 1;
        }
        if ib < kb.len() && kb[ib].0 <= x + EPS {
            ib += 1;
        }
    }
}

/// Upper concave hull of a normalized knot list into `out` (cleared).
fn envelope_knots_into(knots: &[(f64, f64)], out: &mut Vec<(f64, f64)>) {
    out.clear();
    for &(x, y) in knots {
        while out.len() >= 2 {
            let (x1, y1) = out[out.len() - 2];
            let (x2, y2) = out[out.len() - 1];
            let cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1);
            if cross >= -EPS {
                out.pop();
            } else {
                break;
            }
        }
        out.push((x, y));
    }
}

impl PiecewiseLinear {
    /// Build from knots. The first knot must be `(0, 0)`; x strictly
    /// increasing, y non-decreasing. Collinear interior knots are removed.
    pub fn from_knots(knots: Vec<(f64, f64)>) -> Self {
        assert!(!knots.is_empty(), "need at least the origin knot");
        assert!(
            knots[0].0.abs() <= EPS && knots[0].1.abs() <= EPS,
            "CDS must start at (0,0), got {:?}",
            knots[0]
        );
        let mut out: Vec<(f64, f64)> = vec![(0.0, 0.0)];
        for &(x, y) in &knots[1..] {
            #[expect(clippy::unwrap_used, reason = "`out` is seeded with the origin")]
            let &(px, py) = out.last().unwrap();
            assert!(x > px - EPS, "x must increase: {x} after {px}");
            assert!(y >= py - EPS, "y must not decrease: {y} after {py}");
            if x <= px + EPS {
                continue;
            }
            let y = y.max(py);
            // Drop the middle knot if collinear with its neighbors.
            if out.len() >= 2 {
                let &(qx, qy) = &out[out.len() - 2];
                let s1 = (py - qy) / (px - qx);
                let s2 = (y - py) / (x - px);
                if (s1 - s2).abs() <= EPS {
                    out.pop();
                }
            }
            out.push((x, y));
        }
        PiecewiseLinear { knots: out }
    }

    /// The degenerate CDS of an empty relation.
    pub fn empty() -> Self {
        PiecewiseLinear {
            knots: vec![(0.0, 0.0)],
        }
    }

    /// The borrowed read side of this polyline.
    #[inline]
    pub fn view(&self) -> PwlView<'_> {
        PwlView { knots: &self.knots }
    }

    /// The knots.
    pub fn knots(&self) -> &[(f64, f64)] {
        &self.knots
    }

    /// Number of linear segments.
    pub fn num_segments(&self) -> usize {
        self.knots.len().saturating_sub(1)
    }

    /// Largest x knot (the number of distinct values).
    pub fn support(&self) -> f64 {
        self.view().support()
    }

    /// Value at the right end (the relation's cardinality).
    pub fn endpoint(&self) -> f64 {
        self.view().endpoint()
    }

    /// Evaluate at `x`, clamping outside `[0, support]`.
    pub fn eval(&self, x: f64) -> f64 {
        self.view().eval(x)
    }

    /// Generalized inverse: the smallest `x` with `F(x) ≥ y`; `support` if
    /// `y` exceeds the endpoint.
    pub fn inverse(&self, y: f64) -> f64 {
        self.view().inverse(y)
    }

    /// The slope function `ΔF` as a piecewise-constant function.
    pub fn delta(&self) -> PiecewiseConstant {
        let mut segs = Vec::with_capacity(self.num_segments());
        for w in self.knots.windows(2) {
            let slope = (w[1].1 - w[0].1) / (w[1].0 - w[0].0);
            segs.push((w[1].0, slope.max(0.0)));
        }
        PiecewiseConstant::new(segs)
    }

    /// True iff slopes are non-increasing, i.e. `ΔF` is a valid degree
    /// sequence (the function is concave).
    pub fn is_concave(&self) -> bool {
        let mut prev_slope = f64::INFINITY;
        for w in self.knots.windows(2) {
            let slope = (w[1].1 - w[0].1) / (w[1].0 - w[0].0);
            if slope > prev_slope + 1e-6 {
                return false;
            }
            prev_slope = slope;
        }
        true
    }

    /// Pointwise minimum (predicate conjunction on CDSs, §3.3). Two-cursor
    /// sweep: walk the merged knot sequence once, carrying each polyline's
    /// current value and slope; a sign change of the carried difference
    /// inside an interval emits the crossing knot. `O(|self| + |other|)`,
    /// no `eval` binary searches.
    pub fn pointwise_min(&self, other: &PiecewiseLinear) -> PiecewiseLinear {
        let mut out = PiecewiseLinear::empty();
        self.view().pointwise_min_into(other.view(), &mut out);
        out
    }

    /// Pointwise maximum. Note: the max of two concave functions need not
    /// be concave — callers that need a valid degree sequence must follow
    /// with [`PiecewiseLinear::concave_envelope`].
    pub fn pointwise_max(&self, other: &PiecewiseLinear) -> PiecewiseLinear {
        let mut out = PiecewiseLinear::empty();
        combine_knots_into(&self.knots, &other.knots, false, &mut out.knots);
        out
    }

    /// Pointwise sum, with flat extension beyond each support (predicate
    /// disjunction on CDSs, §3.2). Two-cursor merge over the knot arrays,
    /// `O(|self| + |other|)`.
    pub fn pointwise_sum(&self, other: &PiecewiseLinear) -> PiecewiseLinear {
        let mut out = PiecewiseLinear::empty();
        self.view().pointwise_sum_into(other.view(), &mut out);
        out
    }

    /// The smallest concave function dominating this one: the upper convex
    /// hull of the knots. Restores validity (Def. 3.3 (a)) after a
    /// pointwise max; can only increase the function, so it preserves
    /// soundness of the bound.
    pub fn concave_envelope(&self) -> PiecewiseLinear {
        let mut hull: Vec<(f64, f64)> = Vec::with_capacity(self.knots.len());
        envelope_knots_into(&self.knots, &mut hull);
        PiecewiseLinear::from_knots(hull)
    }

    /// Overwrite with a copy of `other`, reusing this knot buffer.
    pub fn copy_from(&mut self, other: PwlView<'_>) {
        self.knots.clear();
        self.knots.extend_from_slice(other.knots);
    }

    /// Reset to the degenerate CDS of an empty relation, in place.
    pub fn make_empty(&mut self) {
        self.knots.clear();
        self.knots.push((0.0, 0.0));
    }

    /// Reset to the CDS of a key column of `n` rows (`F = identity` on
    /// `[0, n]`), in place.
    pub fn make_key(&mut self, n: f64) {
        self.make_empty();
        if n > 0.0 {
            self.knots.push((n, n));
        }
    }

    /// `min(F, cap)` followed by a flat tail: dominates every CDS that is
    /// dominated by `F` and has cardinality `≤ cap`. Used by the
    /// undeclared-join-column fallback (§3.6).
    pub fn truncate_at(&self, cap: f64) -> PiecewiseLinear {
        let cap = cap.max(0.0);
        if self.endpoint() <= cap + EPS {
            return self.clone();
        }
        let x_cut = self.inverse(cap);
        let mut knots: Vec<(f64, f64)> = self
            .knots
            .iter()
            .copied()
            .take_while(|&(x, _)| x < x_cut - EPS)
            .collect();
        if knots.is_empty() {
            knots.push((0.0, 0.0));
        }
        knots.push((x_cut.max(EPS * 2.0), cap));
        if self.support() > x_cut + EPS {
            knots.push((self.support(), cap));
        }
        PiecewiseLinear::from_knots(knots)
    }

    /// Dominance check: `self(x) ≥ other(x)` at every knot of both (exact
    /// for polylines when both are evaluated at the union of knots).
    pub fn dominates(&self, other: &PiecewiseLinear) -> bool {
        let tol = 1e-6 * (1.0 + self.endpoint().abs());
        self.knots
            .iter()
            .chain(other.knots.iter())
            .all(|&(x, _)| self.eval(x) + tol >= other.eval(x))
    }
}

/// A borrowed CDS polyline: the read side of [`PiecewiseLinear`] over a
/// knot slice that lives anywhere — an owned polyline's buffer or a run
/// of a snapshot's knot pool ([`crate::pool::CdsPool`]). Every combining
/// op reads its inputs through views and writes an owned polyline, so a
/// resident statistic and a session's scratch polyline feed the same
/// code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PwlView<'a> {
    knots: &'a [(f64, f64)],
}

impl<'a> PwlView<'a> {
    /// A view over knots already known to satisfy the CDS invariants (a
    /// pool run copied from a valid polyline or checked by
    /// [`PwlView::from_saved_knots`]).
    #[inline]
    pub(crate) fn of(knots: &'a [(f64, f64)]) -> Self {
        PwlView { knots }
    }

    /// View knots read back from a snapshot file, verbatim — no
    /// collinearity cleanup, so the result is **bit-identical** to the
    /// polyline that was saved. Returns `None` (instead of panicking like
    /// [`PiecewiseLinear::from_knots`]) when the knots violate the CDS
    /// invariants every constructor maintains: the list starts with the
    /// exact origin `(0.0, 0.0)`, x is strictly increasing, y is
    /// non-decreasing, and no coordinate is NaN.
    pub(crate) fn from_saved_knots(knots: &'a [(f64, f64)]) -> Option<Self> {
        let (first, rest) = knots.split_first()?;
        // Bit-level origin check: `-0.0 == 0.0` under `==`, but no
        // constructor ever emits a negative-zero origin, so a file
        // carrying one is not a faithful save.
        if first.0.to_bits() != 0 || first.1.to_bits() != 0 {
            return None;
        }
        let (mut px, mut py) = *first;
        for &(x, y) in rest {
            if x.is_nan() || y.is_nan() || x <= px || y < py {
                return None;
            }
            (px, py) = (x, y);
        }
        Some(PwlView { knots })
    }

    /// The knots.
    #[inline]
    pub fn knots(self) -> &'a [(f64, f64)] {
        self.knots
    }

    /// An owned copy.
    pub fn to_pwl(self) -> PiecewiseLinear {
        PiecewiseLinear {
            knots: self.knots.to_vec(),
        }
    }

    /// Largest x knot (the number of distinct values).
    #[inline]
    pub fn support(self) -> f64 {
        // Constructors guarantee at least the origin knot; an empty list
        // reads as the empty CDS rather than panicking the hot path.
        self.knots.last().map_or(0.0, |k| k.0)
    }

    /// Value at the right end (the relation's cardinality).
    #[inline]
    pub fn endpoint(self) -> f64 {
        self.knots.last().map_or(0.0, |k| k.1)
    }

    /// Approximate heap size in bytes of one stored CDS: a fixed 24 per
    /// polyline plus 16 per knot. The one definition behind every
    /// statistics size figure, so it depends on the knots alone, never on
    /// where they are stored.
    #[inline]
    pub fn byte_size(self) -> usize {
        24 + self.knots.len() * 16
    }

    /// Evaluate at `x`, clamping outside `[0, support]`.
    pub fn eval(self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        if x >= self.support() {
            return self.endpoint();
        }
        let idx = self.knots.partition_point(|&(kx, _)| kx < x);
        // knots[idx-1].x <= x < knots[idx].x  (idx >= 1 because x > 0)
        let (x0, y0) = self.knots[idx - 1];
        let (x1, y1) = self.knots[idx];
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Generalized inverse: the smallest `x` with `F(x) ≥ y`; `support` if
    /// `y` exceeds the endpoint.
    pub fn inverse(self, y: f64) -> f64 {
        if y <= 0.0 {
            return 0.0;
        }
        if y >= self.endpoint() {
            // The leftmost x achieving the endpoint (flat tails snap left):
            // since y-knots are non-decreasing, that is the first knot at
            // the endpoint level — O(log K) like every other path.
            let end = self.endpoint();
            if y > end + EPS {
                return self.support();
            }
            let idx = self.knots.partition_point(|&(_, ky)| ky < end - EPS);
            return self.knots[idx].0;
        }
        let idx = self.knots.partition_point(|&(_, ky)| ky < y);
        let (x0, y0) = self.knots[idx - 1];
        let (x1, y1) = self.knots[idx];
        if (y1 - y0).abs() <= EPS {
            return x0;
        }
        x0 + (x1 - x0) * (y - y0) / (y1 - y0)
    }

    /// [`PiecewiseLinear::pointwise_min`] writing into `out`'s reused knot
    /// buffer (no allocation once `out` has capacity).
    pub fn pointwise_min_into(self, other: PwlView<'_>, out: &mut PiecewiseLinear) {
        combine_knots_into(self.knots, other.knots, true, &mut out.knots);
    }

    /// Pointwise max followed by the concave envelope, writing into `out`.
    /// `tmp` holds the raw (possibly non-concave) max between the passes.
    pub fn pointwise_max_envelope_into(
        self,
        other: PwlView<'_>,
        tmp: &mut Vec<(f64, f64)>,
        out: &mut PiecewiseLinear,
    ) {
        combine_knots_into(self.knots, other.knots, false, tmp);
        envelope_knots_into(tmp, &mut out.knots);
    }

    /// [`PiecewiseLinear::pointwise_sum`] writing into `out`.
    pub fn pointwise_sum_into(self, other: PwlView<'_>, out: &mut PiecewiseLinear) {
        sum_knots_into(self.knots, other.knots, &mut out.knots);
    }

    /// [`PiecewiseLinear::truncate_at`] writing into `out`.
    pub fn truncate_at_into(self, cap: f64, out: &mut PiecewiseLinear) {
        let cap = cap.max(0.0);
        if self.endpoint() <= cap + EPS {
            out.copy_from(self);
            return;
        }
        let x_cut = self.inverse(cap);
        out.knots.clear();
        for &(x, y) in self.knots {
            if x < x_cut - EPS {
                out.knots.push((x, y));
            } else {
                break;
            }
        }
        if out.knots.is_empty() {
            out.knots.push((0.0, 0.0));
        }
        push_knot(&mut out.knots, x_cut.max(EPS * 2.0), cap);
        if self.support() > x_cut + EPS {
            push_knot(&mut out.knots, self.support(), cap);
        }
    }
}

/// The pre-sweep implementations: union-of-breakpoints followed by
/// midpoint re-evaluation of every input by binary search (`O(K·m·log K)`
/// per op). Retained verbatim as the oracle the property tests compare
/// the sweeps against. Not used on any production path.
pub mod reference {
    use super::{PiecewiseConstant, PiecewiseLinear, EPS};

    /// Midpoint-evaluation pointwise product (pre-sweep `product`).
    pub fn product(fns: &[&PiecewiseConstant]) -> PiecewiseConstant {
        assert!(!fns.is_empty());
        let support = fns
            .iter()
            .map(|f| f.support())
            .fold(f64::INFINITY, f64::min);
        if support <= 0.0 || !support.is_finite() {
            return PiecewiseConstant::zero();
        }
        let mut edges: Vec<f64> = fns
            .iter()
            .flat_map(|f| f.segments().iter().map(|s| s.0))
            .filter(|&e| e < support - EPS)
            .collect();
        edges.push(support);
        edges.sort_by(f64::total_cmp);
        edges.dedup_by(|a, b| (*a - *b).abs() <= EPS);

        let mut out = Vec::with_capacity(edges.len());
        let mut prev = 0.0;
        for edge in edges {
            let mid = 0.5 * (prev + edge);
            let v: f64 = fns.iter().map(|f| f.value(mid)).product();
            out.push((edge, v));
            prev = edge;
        }
        PiecewiseConstant::new(out)
    }

    /// Midpoint-evaluation pointwise sum (pre-sweep `pointwise_sum`).
    pub fn pointwise_sum(fns: &[&PiecewiseConstant]) -> PiecewiseConstant {
        assert!(!fns.is_empty());
        let support = fns.iter().map(|f| f.support()).fold(0.0, f64::max);
        if support <= 0.0 {
            return PiecewiseConstant::zero();
        }
        let mut edges: Vec<f64> = fns
            .iter()
            .flat_map(|f| f.segments().iter().map(|s| s.0))
            .filter(|&e| e < support - EPS)
            .collect();
        edges.push(support);
        edges.sort_by(f64::total_cmp);
        edges.dedup_by(|a, b| (*a - *b).abs() <= EPS);
        let mut out = Vec::with_capacity(edges.len());
        let mut prev = 0.0;
        for edge in edges {
            let mid = 0.5 * (prev + edge);
            let v: f64 = fns.iter().map(|f| f.value(mid)).sum();
            out.push((edge, v));
            prev = edge;
        }
        PiecewiseConstant::new(out)
    }

    /// Breakpoint-union + re-evaluation min/max (pre-sweep `combine`).
    pub fn combine(a: &PiecewiseLinear, b: &PiecewiseLinear, take_min: bool) -> PiecewiseLinear {
        let support = a.support().max(b.support());
        // Candidate breakpoints: all knots plus segment crossings.
        let mut xs: Vec<f64> = a
            .knots()
            .iter()
            .chain(b.knots().iter())
            .map(|&(x, _)| x)
            .filter(|&x| x <= support + EPS)
            .collect();
        // Crossings: for every pair of overlapping segments solve for
        // equality. O(n·m) pair scan.
        for wa in a.knots().windows(2) {
            for wb in b.knots().windows(2) {
                let (ax0, ay0) = wa[0];
                let (ax1, ay1) = wa[1];
                let (bx0, by0) = wb[0];
                let (bx1, by1) = wb[1];
                let lo = ax0.max(bx0);
                let hi = ax1.min(bx1);
                if hi <= lo + EPS {
                    continue;
                }
                let sa = (ay1 - ay0) / (ax1 - ax0);
                let sb = (by1 - by0) / (bx1 - bx0);
                if (sa - sb).abs() <= EPS {
                    continue;
                }
                // a(x) = ay0 + sa (x-ax0); b(x) = by0 + sb (x-bx0)
                let x = (by0 - ay0 + sa * ax0 - sb * bx0) / (sa - sb);
                if x > lo + EPS && x < hi - EPS {
                    xs.push(x);
                }
            }
        }
        // Also crossings with the flat extension of the shorter function.
        for (short, long) in [(a, b), (b, a)] {
            if short.support() < support - EPS {
                let level = short.endpoint();
                for w in long.knots().windows(2) {
                    let (x0, y0) = w[0];
                    let (x1, y1) = w[1];
                    if x1 <= short.support() + EPS {
                        continue;
                    }
                    if (y1 - y0).abs() <= EPS {
                        continue;
                    }
                    if (y0 - level) * (y1 - level) < 0.0 {
                        let x = x0 + (x1 - x0) * (level - y0) / (y1 - y0);
                        if x > short.support() {
                            xs.push(x);
                        }
                    }
                }
            }
        }
        xs.push(support);
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|p, q| (*p - *q).abs() <= EPS);

        let knots: Vec<(f64, f64)> = xs
            .into_iter()
            .map(|x| {
                let (ya, yb) = (a.eval(x), b.eval(x));
                (x, if take_min { ya.min(yb) } else { ya.max(yb) })
            })
            .collect();
        PiecewiseLinear::from_knots(knots)
    }

    /// Breakpoint-union + re-evaluation sum (pre-sweep PWL `pointwise_sum`).
    pub fn linear_sum(a: &PiecewiseLinear, b: &PiecewiseLinear) -> PiecewiseLinear {
        let support = a.support().max(b.support());
        let mut xs: Vec<f64> = a
            .knots()
            .iter()
            .chain(b.knots().iter())
            .map(|&(x, _)| x)
            .collect();
        xs.push(support);
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|p, q| (*p - *q).abs() <= EPS);
        let knots = xs.into_iter().map(|x| (x, a.eval(x) + b.eval(x))).collect();
        PiecewiseLinear::from_knots(knots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pwc(v: &[(f64, f64)]) -> PiecewiseConstant {
        PiecewiseConstant::new(v.to_vec())
    }

    #[test]
    fn value_and_total() {
        // f = 4 on (0,1], 2 on (1,3], 1 on (3,6]  (Fig. 1's sequence).
        let f = pwc(&[(1.0, 4.0), (3.0, 2.0), (6.0, 1.0)]);
        assert_eq!(f.value(0.5), 4.0);
        assert_eq!(f.value(1.0), 4.0);
        assert_eq!(f.value(1.5), 2.0);
        assert_eq!(f.value(3.0), 2.0);
        assert_eq!(f.value(6.0), 1.0);
        assert_eq!(f.value(6.5), 0.0);
        assert_eq!(f.value(-1.0), 4.0);
        assert!((f.total() - 11.0).abs() < 1e-12);
        assert!((f.square_integral() - (16.0 + 8.0 + 3.0)).abs() < 1e-12);
        assert!(f.is_non_increasing());
    }

    #[test]
    fn merge_equal_adjacent_segments() {
        let f = pwc(&[(1.0, 2.0), (2.0, 2.0), (3.0, 1.0)]);
        assert_eq!(f.num_segments(), 2);
        assert_eq!(f.support(), 3.0);
    }

    #[test]
    fn cumulative_and_delta_roundtrip() {
        let f = pwc(&[(1.0, 4.0), (3.0, 2.0), (6.0, 1.0)]);
        let cds = f.cumulative();
        assert_eq!(cds.eval(0.0), 0.0);
        assert_eq!(cds.eval(1.0), 4.0);
        assert_eq!(cds.eval(2.0), 6.0);
        assert_eq!(cds.eval(6.0), 11.0);
        assert_eq!(cds.eval(100.0), 11.0);
        assert!(cds.is_concave());
        let back = cds.delta();
        assert_eq!(back, f);
    }

    #[test]
    fn inverse_basics() {
        let f = pwc(&[(1.0, 4.0), (3.0, 2.0), (6.0, 1.0)]);
        let cds = f.cumulative();
        assert_eq!(cds.inverse(0.0), 0.0);
        assert!((cds.inverse(2.0) - 0.5).abs() < 1e-12);
        assert!((cds.inverse(4.0) - 1.0).abs() < 1e-12);
        assert!((cds.inverse(5.0) - 1.5).abs() < 1e-12);
        assert!((cds.inverse(11.0) - 6.0).abs() < 1e-12);
        assert_eq!(cds.inverse(99.0), 6.0);
    }

    #[test]
    fn inverse_snaps_left_on_flat_tail() {
        let cds = PiecewiseLinear::from_knots(vec![(0.0, 0.0), (2.0, 8.0), (5.0, 8.0)]);
        assert!((cds.inverse(8.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn product_is_intersection() {
        let a = pwc(&[(2.0, 3.0), (4.0, 1.0)]);
        let b = pwc(&[(1.0, 5.0), (3.0, 2.0)]);
        let p = PiecewiseConstant::product(&[&a, &b]);
        assert_eq!(p.support(), 3.0); // min support
        assert_eq!(p.value(0.5), 15.0);
        assert_eq!(p.value(1.5), 6.0);
        assert_eq!(p.value(2.5), 2.0);
        assert_eq!(p.value(3.5), 0.0);
    }

    #[test]
    fn pointwise_sum_extends_with_zero() {
        let a = pwc(&[(2.0, 3.0)]);
        let b = pwc(&[(5.0, 1.0)]);
        let s = PiecewiseConstant::pointwise_sum(&[&a, &b]);
        assert_eq!(s.support(), 5.0);
        assert_eq!(s.value(1.0), 4.0);
        assert_eq!(s.value(3.0), 1.0);
    }

    #[test]
    fn pwl_min_with_crossing() {
        // a: slope 2 to (5,10); b: slope 4 to (2,8) then flat.
        let a = PiecewiseLinear::from_knots(vec![(0.0, 0.0), (5.0, 10.0)]);
        let b = PiecewiseLinear::from_knots(vec![(0.0, 0.0), (2.0, 8.0), (5.0, 8.0)]);
        let m = a.pointwise_min(&b);
        // min: a below until a=8 at x=4, then b (flat 8).
        assert!((m.eval(1.0) - 2.0).abs() < 1e-9);
        assert!((m.eval(4.0) - 8.0).abs() < 1e-9);
        assert!((m.eval(5.0) - 8.0).abs() < 1e-9);
        assert!(m.is_concave());
    }

    #[test]
    fn pwl_max_and_envelope() {
        let a = PiecewiseLinear::from_knots(vec![(0.0, 0.0), (5.0, 10.0)]);
        let b = PiecewiseLinear::from_knots(vec![(0.0, 0.0), (2.0, 8.0), (5.0, 8.0)]);
        let m = a.pointwise_max(&b);
        assert!((m.eval(1.0) - 4.0).abs() < 1e-9);
        assert!((m.eval(3.0) - 8.0).abs() < 1e-9);
        assert!((m.eval(5.0) - 10.0).abs() < 1e-9);
        // max is not concave here (slope rises from 0 back to 2 at x=4).
        assert!(!m.is_concave());
        let env = m.concave_envelope();
        assert!(env.is_concave());
        assert!(env.dominates(&m));
        // Envelope endpoint unchanged.
        assert!((env.endpoint() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn pwl_sum() {
        let a = PiecewiseLinear::from_knots(vec![(0.0, 0.0), (2.0, 4.0)]);
        let b = PiecewiseLinear::from_knots(vec![(0.0, 0.0), (4.0, 4.0)]);
        let s = a.pointwise_sum(&b);
        assert!((s.eval(2.0) - 6.0).abs() < 1e-9);
        assert!((s.eval(4.0) - 8.0).abs() < 1e-9);
        assert_eq!(s.endpoint(), 8.0);
    }

    #[test]
    fn truncate_at_cap() {
        let f = pwc(&[(1.0, 4.0), (3.0, 2.0), (6.0, 1.0)]);
        let cds = f.cumulative(); // endpoint 11 at x=6
        let t = cds.truncate_at(6.0);
        assert!((t.endpoint() - 6.0).abs() < 1e-9);
        assert_eq!(t.support(), 6.0);
        assert!((t.eval(2.0) - 6.0).abs() < 1e-9);
        assert!((t.eval(1.0) - 4.0).abs() < 1e-9);
        assert!(cds.dominates(&t));
        // Cap above endpoint is a no-op.
        assert_eq!(cds.truncate_at(100.0), cds);
    }

    #[test]
    fn dominance() {
        let small = pwc(&[(2.0, 1.0)]).cumulative();
        let big = pwc(&[(2.0, 2.0)]).cumulative();
        assert!(big.dominates(&small));
        assert!(!small.dominates(&big));
        assert!(big.dominates(&big));
    }

    #[test]
    fn collinear_knots_are_merged() {
        let p = PiecewiseLinear::from_knots(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 4.0), (3.0, 5.0)]);
        assert_eq!(p.num_segments(), 2);
        assert!((p.eval(1.5) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn truncate_support_of_pwc() {
        let f = pwc(&[(1.0, 4.0), (3.0, 2.0), (6.0, 1.0)]);
        let t = f.truncate_support(2.0);
        assert_eq!(t.support(), 2.0);
        assert_eq!(t.value(1.5), 2.0);
        assert!((t.total() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_zero_edge_cases() {
        let z = PiecewiseConstant::zero();
        assert_eq!(z.total(), 0.0);
        assert_eq!(z.value(1.0), 0.0);
        assert_eq!(z.support(), 0.0);
        let e = PiecewiseLinear::empty();
        assert_eq!(e.eval(5.0), 0.0);
        assert_eq!(e.endpoint(), 0.0);
        let c = PiecewiseConstant::constant(0.0, 5.0);
        assert_eq!(c.num_segments(), 0);
    }
}
