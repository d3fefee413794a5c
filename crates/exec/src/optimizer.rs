//! A cost-based join-order optimizer with pluggable cardinality estimation.
//!
//! The optimizer is deliberately estimator-agnostic: every method in the
//! paper's evaluation (SafeBound, Postgres-style, PessEst, Simplicity, ML
//! stand-ins, true cardinalities) plugs into the same
//! [`CardinalityEstimator`] trait, the same plan space, and the same cost
//! model, so runtime differences are attributable to the estimates alone —
//! the methodology of §5 ("we injected alternate cardinality estimators
//! into the optimizer").
//!
//! Plan space: bushy hash joins plus index nested-loop joins into base
//! relations with an index on the join column. Exhaustive DP over connected
//! subgraphs up to [`Optimizer::dp_limit`] relations, greedy left-deep
//! beyond (mirroring Postgres' GEQO fallback).

use crate::cost::CostModel;
use crate::plan::PhysPlan;
use safebound_query::Query;
use std::collections::HashMap;

/// A cardinality estimator the optimizer can consult for any connected
/// sub-query.
pub trait CardinalityEstimator {
    /// Short display name ("SafeBound", "Postgres", …).
    fn name(&self) -> &'static str;
    /// Estimated output cardinality of the sub-query induced by `mask`
    /// (bits index `query.relations`). Implementations may cache.
    fn estimate(&mut self, query: &Query, mask: u64) -> f64;
}

/// The optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer {
    /// Cost model.
    pub cost: CostModel,
    /// Maximum relation count for exhaustive DP.
    pub dp_limit: usize,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer {
            cost: CostModel::default(),
            dp_limit: 12,
        }
    }
}

impl Optimizer {
    /// Optimizer with a custom cost model.
    pub fn new(cost: CostModel) -> Self {
        Optimizer { cost, dp_limit: 12 }
    }

    /// Choose a plan for `query`. `indexed_columns[rel]` lists the columns
    /// of each relation with an index (PKs and FKs in the paper's setup).
    pub fn optimize(
        &self,
        query: &Query,
        indexed_columns: &[Vec<String>],
        est: &mut dyn CardinalityEstimator,
    ) -> PhysPlan {
        self.optimize_with_cost(query, indexed_columns, est).0
    }

    /// [`Optimizer::optimize`], also returning the chosen plan's total cost
    /// under the planning estimates — the value the search minimized,
    /// equal to [`PhysPlan::cost`] of the returned plan.
    pub fn optimize_with_cost(
        &self,
        query: &Query,
        indexed_columns: &[Vec<String>],
        est: &mut dyn CardinalityEstimator,
    ) -> (PhysPlan, f64) {
        let n = query.num_relations();
        assert!((1..=63).contains(&n), "1..=63 relations supported");
        let mut cards: HashMap<u64, f64> = HashMap::new();
        let mut card = |mask: u64, est: &mut dyn CardinalityEstimator| -> f64 {
            *cards
                .entry(mask)
                .or_insert_with(|| est.estimate(query, mask).max(1.0))
        };

        // Relation adjacency from join edges.
        let mut adj = vec![0u64; n];
        for j in &query.joins {
            adj[j.left] |= 1 << j.right;
            adj[j.right] |= 1 << j.left;
        }

        if n <= self.dp_limit {
            self.dp(query, indexed_columns, &adj, &mut card, est)
        } else {
            self.greedy(query, indexed_columns, &adj, &mut card, est)
        }
    }

    /// True iff an INLJ into `inner` is possible from `outer_mask`: some
    /// join edge connects them on an indexed inner column.
    fn inlj_possible(
        &self,
        query: &Query,
        indexed_columns: &[Vec<String>],
        outer_mask: u64,
        inner: usize,
    ) -> bool {
        if !self.cost.enable_inlj {
            return false;
        }
        query.joins.iter().any(|j| {
            (j.right == inner
                && outer_mask & (1 << j.left) != 0
                && indexed_columns[inner].contains(&j.right_column))
                || (j.left == inner
                    && outer_mask & (1 << j.right) != 0
                    && indexed_columns[inner].contains(&j.left_column))
        })
    }

    /// Exhaustive DP over connected subsets. Every candidate join is costed
    /// from its inputs' memoized `(cost, card)` through the same
    /// [`CostModel`] formulas [`PhysPlan::cost`] uses — so each cell's cost
    /// is, bit for bit, what re-costing its plan would give — and only the
    /// final winner is materialized as a plan tree. Returns that plan with
    /// its composed cost.
    fn dp(
        &self,
        query: &Query,
        indexed_columns: &[Vec<String>],
        adj: &[u64],
        card: &mut impl FnMut(u64, &mut dyn CardinalityEstimator) -> f64,
        est: &mut dyn CardinalityEstimator,
    ) -> (PhysPlan, f64) {
        let n = query.num_relations();
        let full: u64 = (1u64 << n) - 1;
        // Indexed by mask; `None` = no plan (a disconnected subset).
        let mut best: Vec<Option<Cell>> = vec![None; full as usize + 1];
        for (rel, &neighbours) in adj.iter().enumerate() {
            let c = card(1 << rel, est);
            best[1 << rel] = Some(Cell {
                cost: self.cost.scan_cost(c),
                card: c,
                neighbours,
                join: Join::Scan,
            });
        }

        // Masks in increasing popcount order.
        for mask in (2..=n as u32).flat_map(|k| masks_with_popcount(k, full)) {
            // Skip disconnected masks (joined by cartesian product only) —
            // except the full mask, which must always get a plan.
            if mask != full && !is_connected(mask, adj) {
                continue;
            }
            let mut best_here: Option<Cell> = None;
            let mut consider = |cost: f64, card: f64, neighbours: u64, join: Join| {
                if best_here.as_ref().is_none_or(|b| cost < b.cost) {
                    best_here = Some(Cell {
                        cost,
                        card,
                        neighbours,
                        join,
                    });
                }
            };
            // The estimate is asked for at the first joinable split only.
            let mut out_card: Option<f64> = None;
            // Enumerate proper submask splits.
            let mut sub = (mask - 1) & mask;
            while sub != 0 {
                let other = mask & !sub;
                // Each unordered split visited once (`sub > other`); both
                // orientations are costed below.
                if sub > other {
                    if let (Some(a), Some(b)) = (best[sub as usize], best[other as usize]) {
                        if a.neighbours & other != 0 || mask == full {
                            let out = *out_card.get_or_insert_with(|| card(mask, est));
                            let neighbours = a.neighbours | b.neighbours;
                            for ((bm, build), (pm, probe)) in
                                [((sub, a), (other, b)), ((other, b), (sub, a))]
                            {
                                consider(
                                    self.cost.hash_join_cost(
                                        (build.cost, build.card),
                                        (probe.cost, probe.card),
                                        out,
                                    ),
                                    out,
                                    neighbours,
                                    Join::Hash {
                                        build: bm,
                                        probe: pm,
                                    },
                                );
                            }
                            // INLJ when one side is a single indexed relation.
                            for ((om, outer), im) in [((sub, a), other), ((other, b), sub)] {
                                if im.count_ones() == 1 {
                                    let inner = im.trailing_zeros() as usize;
                                    if self.inlj_possible(query, indexed_columns, om, inner) {
                                        consider(
                                            self.cost
                                                .index_join_cost((outer.cost, outer.card), out),
                                            out,
                                            neighbours,
                                            Join::Index { outer: om, inner },
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
            best[mask as usize] = best_here;
        }
        let cost = best[full as usize]
            .expect("full mask must have a plan")
            .cost;
        (materialize(&best, full), cost)
    }

    fn greedy(
        &self,
        query: &Query,
        indexed_columns: &[Vec<String>],
        adj: &[u64],
        card: &mut impl FnMut(u64, &mut dyn CardinalityEstimator) -> f64,
        est: &mut dyn CardinalityEstimator,
    ) -> (PhysPlan, f64) {
        let n = query.num_relations();
        // Start from the smallest estimated relation.
        let mut start = 0usize;
        let mut best_c = f64::INFINITY;
        for rel in 0..n {
            let c = card(1 << rel, est);
            if c < best_c {
                best_c = c;
                start = rel;
            }
        }
        let mut mask = 1u64 << start;
        let mut plan = PhysPlan::Scan {
            rel: start,
            mask,
            card: best_c,
        };
        // The running plan's total `(cost, card)`, kept alongside it so a
        // step costs its candidates without re-walking (or cloning) it.
        let mut so_far = (self.cost.scan_cost(best_c), best_c);
        let mut remaining: Vec<usize> = (0..n).filter(|&r| r != start).collect();
        while !remaining.is_empty() {
            // Prefer connected relations; among them minimize result card.
            let mut pick: Option<(usize, f64)> = None;
            for (pos, &rel) in remaining.iter().enumerate() {
                let connected = adj[rel] & mask != 0;
                let c = card(mask | (1 << rel), est);
                let score = if connected { c } else { c * 1e12 };
                if pick.is_none_or(|(_, s)| score < s) {
                    pick = Some((pos, score));
                }
            }
            let (pos, _) = pick.unwrap();
            let rel = remaining.remove(pos);
            let new_mask = mask | (1 << rel);
            let out_card = card(new_mask, est);
            let inner_card = card(1 << rel, est);
            let scan = PhysPlan::Scan {
                rel,
                mask: 1 << rel,
                card: inner_card,
            };
            let scanned = (self.cost.scan_cost(inner_card), inner_card);
            // Choose cheapest among HJ orientations and INLJ (the first of
            // equally cheap ones), then build only that one.
            let mut costs = vec![
                self.cost.hash_join_cost(scanned, so_far, out_card),
                self.cost.hash_join_cost(so_far, scanned, out_card),
            ];
            if self.inlj_possible(query, indexed_columns, mask, rel) {
                costs.push(self.cost.index_join_cost(so_far, out_card));
            }
            let (choice, cost) = costs
                .into_iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            let so_far_plan = Box::new(plan);
            plan = match choice {
                0 => PhysPlan::HashJoin {
                    build: Box::new(scan),
                    probe: so_far_plan,
                    mask: new_mask,
                    card: out_card,
                },
                1 => PhysPlan::HashJoin {
                    build: so_far_plan,
                    probe: Box::new(scan),
                    mask: new_mask,
                    card: out_card,
                },
                _ => PhysPlan::IndexJoin {
                    outer: so_far_plan,
                    inner: rel,
                    mask: new_mask,
                    card: out_card,
                },
            };
            so_far = (cost, out_card);
            mask = new_mask;
        }
        (plan, so_far.0)
    }
}

/// One DP table cell: the cheapest way found to produce a relation subset.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Total cost of the subset's best plan, composed bottom-up.
    cost: f64,
    /// Estimated output cardinality of the subset.
    card: f64,
    /// Relations adjacent to any member (a split is joinable iff one
    /// side's neighbours meet the other side).
    neighbours: u64,
    /// The winning top operator, its inputs named by their masks.
    join: Join,
}

#[derive(Debug, Clone, Copy)]
enum Join {
    Scan,
    Hash { build: u64, probe: u64 },
    Index { outer: u64, inner: usize },
}

/// The plan tree the DP table records for `mask`.
fn materialize(best: &[Option<Cell>], mask: u64) -> PhysPlan {
    let cell = best[mask as usize].expect("a winning split names planned inputs");
    let card = cell.card;
    match cell.join {
        Join::Scan => PhysPlan::Scan {
            rel: mask.trailing_zeros() as usize,
            mask,
            card,
        },
        Join::Hash { build, probe } => PhysPlan::HashJoin {
            build: Box::new(materialize(best, build)),
            probe: Box::new(materialize(best, probe)),
            mask,
            card,
        },
        Join::Index { outer, inner } => PhysPlan::IndexJoin {
            outer: Box::new(materialize(best, outer)),
            inner,
            mask,
            card,
        },
    }
}

/// Every mask within `full` (a run of low bits) with `k` bits set, in
/// ascending order (Gosper's hack: the next-larger integer with as many
/// set bits).
fn masks_with_popcount(k: u32, full: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some((1u64 << k) - 1), |&m| {
        let low = m & m.wrapping_neg();
        let ripple = m + low;
        Some((((ripple ^ m) >> 2) / low) | ripple)
    })
    .take_while(move |&m| m <= full)
}

/// Is the relation subset connected under the join edges?
fn is_connected(mask: u64, adj: &[u64]) -> bool {
    if mask == 0 {
        return false;
    }
    let start = mask.trailing_zeros() as usize;
    let mut seen = 1u64 << start;
    let mut frontier = seen;
    while frontier != 0 {
        let mut next = 0u64;
        let mut f = frontier;
        while f != 0 {
            let r = f.trailing_zeros() as usize;
            f &= f - 1;
            next |= adj[r] & mask & !seen;
        }
        seen |= next;
        frontier = next;
    }
    seen == mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use safebound_query::parse_sql;

    /// An estimator fed by a closure (for tests and the TrueCard oracle).
    pub struct FnEstimator<F: FnMut(&Query, u64) -> f64> {
        /// The estimating closure.
        pub f: F,
    }

    impl<F: FnMut(&Query, u64) -> f64> CardinalityEstimator for FnEstimator<F> {
        fn name(&self) -> &'static str {
            "fn"
        }
        fn estimate(&mut self, query: &Query, mask: u64) -> f64 {
            (self.f)(query, mask)
        }
    }

    fn chain3() -> Query {
        parse_sql("SELECT COUNT(*) FROM a, b, c WHERE a.x = b.x AND b.y = c.y").unwrap()
    }

    #[test]
    fn dp_produces_full_plan() {
        let q = chain3();
        let opt = Optimizer::default();
        let mut est = FnEstimator {
            f: |_q: &Query, mask: u64| 10.0 * mask.count_ones() as f64,
        };
        let plan = opt.optimize(&q, &[vec![], vec![], vec![]], &mut est);
        assert_eq!(plan.mask(), 0b111);
    }

    #[test]
    fn dp_prefers_cheap_join_order() {
        // Make (b ⋈ c) tiny and (a ⋈ b) huge: plan must join b,c first.
        let q = chain3();
        let opt = Optimizer::default();
        let mut est = FnEstimator {
            f: |_q: &Query, mask: u64| match mask {
                0b001 | 0b010 | 0b100 => 100.0,
                0b011 => 100_000.0, // a⋈b
                0b110 => 10.0,      // b⋈c
                _ => 1000.0,
            },
        };
        let plan = opt.optimize(&q, &[vec![], vec![], vec![]], &mut est);
        // The subtree covering {b,c} (mask 0b110) must exist.
        fn has_mask(p: &PhysPlan, m: u64) -> bool {
            if p.mask() == m {
                return true;
            }
            match p {
                PhysPlan::Scan { .. } => false,
                PhysPlan::HashJoin { build, probe, .. } => has_mask(build, m) || has_mask(probe, m),
                PhysPlan::IndexJoin { outer, .. } => has_mask(outer, m),
            }
        }
        assert!(
            has_mask(&plan, 0b110),
            "expected b⋈c first: {}",
            plan.describe()
        );
    }

    #[test]
    fn underestimates_trigger_index_joins() {
        let q = chain3();
        let opt = Optimizer::default();
        // Honest estimates: INLJ unattractive (outer big).
        let mut honest = FnEstimator {
            f: |_q: &Query, mask: u64| {
                if mask.count_ones() == 1 {
                    1000.0
                } else {
                    10_000.0
                }
            },
        };
        let indexed = vec![vec!["x".to_string()], vec![], vec!["y".to_string()]];
        let honest_plan = opt.optimize(&q, &indexed, &mut honest);
        // Underestimating intermediates makes INLJ look cheap.
        let mut liar = FnEstimator {
            f: |_q: &Query, mask: u64| if mask.count_ones() == 1 { 1000.0 } else { 2.0 },
        };
        let liar_plan = opt.optimize(&q, &indexed, &mut liar);
        assert!(
            liar_plan.num_index_joins() >= honest_plan.num_index_joins(),
            "liar {} vs honest {}",
            liar_plan.describe(),
            honest_plan.describe()
        );
    }

    #[test]
    fn greedy_handles_many_relations() {
        // 14-relation chain exceeds dp_limit → greedy.
        let mut sql = String::from("SELECT COUNT(*) FROM t0");
        for i in 1..14 {
            sql.push_str(&format!(", t{i}"));
        }
        sql.push_str(" WHERE ");
        let conds: Vec<String> = (1..14)
            .map(|i| format!("t{}.x = t{}.x", i - 1, i))
            .collect();
        sql.push_str(&conds.join(" AND "));
        let q = parse_sql(&sql).unwrap();
        let opt = Optimizer::default();
        let mut est = FnEstimator {
            f: |_q: &Query, mask: u64| mask.count_ones() as f64 * 5.0,
        };
        let plan = opt.optimize(&q, &vec![vec![]; 14], &mut est);
        assert_eq!(plan.mask().count_ones(), 14);
    }

    #[test]
    fn cartesian_product_still_planned() {
        let q = parse_sql("SELECT COUNT(*) FROM a, b").unwrap();
        let opt = Optimizer::default();
        let mut est = FnEstimator {
            f: |_q: &Query, _m: u64| 4.0,
        };
        let plan = opt.optimize(&q, &[vec![], vec![]], &mut est);
        assert_eq!(plan.mask(), 0b11);
    }

    #[test]
    fn inlj_disabled_by_cost_model() {
        let q = chain3();
        let opt = Optimizer::new(CostModel::without_indexes());
        let mut liar = FnEstimator {
            f: |_q: &Query, mask: u64| if mask.count_ones() == 1 { 1000.0 } else { 2.0 },
        };
        let indexed = vec![
            vec!["x".to_string()],
            vec!["x".to_string()],
            vec!["y".to_string()],
        ];
        let plan = opt.optimize(&q, &indexed, &mut liar);
        assert_eq!(plan.num_index_joins(), 0);
    }
}
