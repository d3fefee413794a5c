//! The optimizer's DP composes each candidate's cost from its inputs'
//! memoized `(cost, card)` and materializes only the winner. This file
//! holds the algorithm it replaced — clone both sub-plans into every
//! candidate and re-cost the whole tree — as a test-only reference, and
//! checks that the two pick the same plan (ties included) and that the
//! composed cost is, bit for bit, the returned plan's `cost()`: over the
//! 344 paper queries with SafeBound and with true cardinalities, and over
//! generated join graphs with generated (tie-heavy) estimates.

use proptest::prelude::*;
use safebound_baselines::SafeBoundEstimator;
use safebound_bench::{build_workloads, experiment_config, ExperimentScale};
use safebound_core::SafeBound;
use safebound_exec::{
    pk_fk_indexes, CardinalityEstimator, CostModel, Optimizer, PhysPlan, TrueCardOracle,
};
use safebound_query::{Query, RelationRef};
use std::collections::HashMap;

/// The clone-and-recost optimizer this repository shipped before the DP
/// composed costs: same plan space, same candidate order, same strict `<`
/// (so the first of equally cheap candidates wins).
fn reference_optimize(
    opt: &Optimizer,
    query: &Query,
    indexed: &[Vec<String>],
    est: &mut dyn CardinalityEstimator,
) -> PhysPlan {
    let n = query.num_relations();
    let mut cards: HashMap<u64, f64> = HashMap::new();
    let mut card = |mask: u64, est: &mut dyn CardinalityEstimator| -> f64 {
        *cards
            .entry(mask)
            .or_insert_with(|| est.estimate(query, mask).max(1.0))
    };
    let mut adj = vec![0u64; n];
    for j in &query.joins {
        adj[j.left] |= 1 << j.right;
        adj[j.right] |= 1 << j.left;
    }
    let inlj_possible = |outer_mask: u64, inner: usize| {
        opt.cost.enable_inlj
            && query.joins.iter().any(|j| {
                (j.right == inner
                    && outer_mask & (1 << j.left) != 0
                    && indexed[inner].contains(&j.right_column))
                    || (j.left == inner
                        && outer_mask & (1 << j.right) != 0
                        && indexed[inner].contains(&j.left_column))
            })
    };
    let is_connected = |mask: u64| {
        let mut seen = 1u64 << mask.trailing_zeros();
        loop {
            let mut next = seen;
            for (r, &a) in adj.iter().enumerate() {
                if seen & (1 << r) != 0 {
                    next |= a & mask;
                }
            }
            if next == seen {
                return seen == mask;
            }
            seen = next;
        }
    };
    let connected_pair = |a: u64, b: u64| {
        query.joins.iter().any(|j| {
            (a & (1 << j.left) != 0 && b & (1 << j.right) != 0)
                || (b & (1 << j.left) != 0 && a & (1 << j.right) != 0)
        })
    };

    if n > opt.dp_limit {
        // Greedy left-deep.
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
        let mut remaining: Vec<usize> = (0..n).filter(|&r| r != start).collect();
        while !remaining.is_empty() {
            let mut pick: Option<(usize, f64)> = None;
            for (pos, &rel) in remaining.iter().enumerate() {
                let connected = adj[rel] & mask != 0;
                let c = card(mask | (1 << rel), est);
                let score = if connected { c } else { c * 1e12 };
                if pick.is_none_or(|(_, s)| score < s) {
                    pick = Some((pos, score));
                }
            }
            let rel = remaining.remove(pick.unwrap().0);
            let new_mask = mask | (1 << rel);
            let out_card = card(new_mask, est);
            let scan = PhysPlan::Scan {
                rel,
                mask: 1 << rel,
                card: card(1 << rel, est),
            };
            let mut candidates = vec![
                PhysPlan::HashJoin {
                    build: Box::new(scan.clone()),
                    probe: Box::new(plan.clone()),
                    mask: new_mask,
                    card: out_card,
                },
                PhysPlan::HashJoin {
                    build: Box::new(plan.clone()),
                    probe: Box::new(scan),
                    mask: new_mask,
                    card: out_card,
                },
            ];
            if inlj_possible(mask, rel) {
                candidates.push(PhysPlan::IndexJoin {
                    outer: Box::new(plan.clone()),
                    inner: rel,
                    mask: new_mask,
                    card: out_card,
                });
            }
            plan = candidates
                .into_iter()
                .min_by(|a, b| a.cost(&opt.cost).total_cmp(&b.cost(&opt.cost)))
                .unwrap();
            mask = new_mask;
        }
        return plan;
    }

    let full: u64 = (1u64 << n) - 1;
    let mut best: HashMap<u64, (f64, PhysPlan)> = HashMap::new();
    for rel in 0..n {
        let mask = 1u64 << rel;
        let plan = PhysPlan::Scan {
            rel,
            mask,
            card: card(mask, est),
        };
        best.insert(mask, (plan.cost(&opt.cost), plan));
    }
    let mut masks: Vec<u64> = (1..=full).filter(|m| m.count_ones() >= 2).collect();
    masks.sort_by_key(|m| m.count_ones());
    for &mask in &masks {
        if !is_connected(mask) && mask != full {
            continue;
        }
        let mut best_here: Option<(f64, PhysPlan)> = None;
        let mut consider = |plan: PhysPlan| {
            let cost = plan.cost(&opt.cost);
            if best_here.as_ref().is_none_or(|(c, _)| cost < *c) {
                best_here = Some((cost, plan));
            }
        };
        let mut sub = (mask - 1) & mask;
        while sub != 0 {
            let other = mask & !sub;
            if sub > other {
                if let (Some((_, pa)), Some((_, pb))) = (best.get(&sub), best.get(&other)) {
                    if connected_pair(sub, other) || mask == full {
                        let out_card = card(mask, est);
                        for (build, probe) in [(pa, pb), (pb, pa)] {
                            consider(PhysPlan::HashJoin {
                                build: Box::new(build.clone()),
                                probe: Box::new(probe.clone()),
                                mask,
                                card: out_card,
                            });
                        }
                        for (outer_mask, inner_mask) in [(sub, other), (other, sub)] {
                            if inner_mask.count_ones() == 1 {
                                let inner = inner_mask.trailing_zeros() as usize;
                                if inlj_possible(outer_mask, inner) {
                                    consider(PhysPlan::IndexJoin {
                                        outer: Box::new(best[&outer_mask].1.clone()),
                                        inner,
                                        mask,
                                        card: out_card,
                                    });
                                }
                            }
                        }
                    }
                }
            }
            sub = (sub - 1) & mask;
        }
        if let Some(bh) = best_here {
            best.insert(mask, bh);
        }
    }
    best.remove(&full).expect("full mask must have a plan").1
}

/// Plan `query` both ways and compare; returns the estimator calls the
/// optimizer under test made, which must also match the reference's.
fn assert_same_plan(
    opt: &Optimizer,
    query: &Query,
    indexed: &[Vec<String>],
    est: &mut dyn CardinalityEstimator,
    what: &str,
) {
    let mut calls = Recorder {
        inner: est,
        masks: Vec::new(),
    };
    let (plan, cost) = opt.optimize_with_cost(query, indexed, &mut calls);
    let asked = std::mem::take(&mut calls.masks);
    let expected = reference_optimize(opt, query, indexed, &mut calls);
    assert_eq!(plan, expected, "{what}: plan differs from the reference");
    assert_eq!(
        cost.to_bits(),
        plan.cost(&opt.cost).to_bits(),
        "{what}: composed cost {cost} is not the plan's cost"
    );
    assert_eq!(
        asked, calls.masks,
        "{what}: the estimator was asked in a different order"
    );
}

/// Passes estimates through, recording which masks were asked for.
struct Recorder<'a> {
    inner: &'a mut dyn CardinalityEstimator,
    masks: Vec<u64>,
}

impl CardinalityEstimator for Recorder<'_> {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn estimate(&mut self, query: &Query, mask: u64) -> f64 {
        self.masks.push(mask);
        self.inner.estimate(query, mask)
    }
}

#[test]
fn paper_queries_plan_exactly_as_the_reference() {
    let opt = Optimizer::default();
    let mut planned = 0;
    for w in build_workloads(&ExperimentScale::smoke()) {
        let mut safebound =
            SafeBoundEstimator::new(SafeBound::build(&w.catalog, experiment_config()));
        for bq in &w.queries {
            let indexes = pk_fk_indexes(&w.catalog, &bq.query);
            let what = format!("{} / {}", w.name, bq.name);
            assert_same_plan(&opt, &bq.query, &indexes, &mut safebound, &what);
            // Exact counts of every connected sub-query: keep the oracle
            // to the queries the DP handles.
            if bq.query.num_relations() <= 6 {
                let mut truth = TrueCardOracle::new(&w.catalog);
                assert_same_plan(&opt, &bq.query, &indexes, &mut truth, &what);
            }
            planned += 1;
        }
    }
    assert_eq!(planned, 344);
}

/// A generated planning problem: a connected join graph (a random tree
/// plus extra edges, so cycles and parallel edges occur), which join
/// columns are indexed, and a table of estimates drawn from a handful of
/// values so that equally cheap candidates are the rule, not the exception.
#[derive(Debug, Clone)]
struct Problem {
    query: Query,
    indexed: Vec<Vec<String>>,
    /// Estimate of a mask: `levels[hash(mask) % levels.len()]`.
    levels: Vec<f64>,
    salt: u64,
    inlj: bool,
    dp_limit: usize,
}

struct TableEstimator<'a>(&'a Problem);

impl CardinalityEstimator for TableEstimator<'_> {
    fn name(&self) -> &'static str {
        "table"
    }
    fn estimate(&mut self, _query: &Query, mask: u64) -> f64 {
        let p = self.0;
        let h = (mask ^ p.salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
        p.levels[h as usize % p.levels.len()]
    }
}

fn problem() -> impl Strategy<Value = Problem> {
    (2usize..8).prop_flat_map(|n| {
        (
            // Relation i ≥ 1 hangs off an earlier one: a spanning tree.
            proptest::collection::vec(0usize..64, n - 1),
            // Extra edges between arbitrary distinct relations.
            proptest::collection::vec((0usize..64, 0usize..64), 0..3),
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec(0usize..5, 1..4),
            (any::<u64>(), any::<bool>(), 0usize..3),
        )
            .prop_map(move |(tree, extra, indexed, levels, (salt, inlj, limit))| {
                let mut query = Query::new();
                for i in 0..n {
                    query.add_relation(RelationRef::new(&format!("t{i}")));
                }
                for (i, parent) in tree.iter().enumerate() {
                    query.add_join(parent % (i + 1), "k", i + 1, "k");
                }
                for (a, b) in extra {
                    let (a, b) = (a % n, b % n);
                    if a != b {
                        query.add_join(a, "x", b, "k");
                    }
                }
                Problem {
                    query,
                    indexed: indexed
                        .iter()
                        .map(|&on| if on { vec!["k".to_string()] } else { vec![] })
                        .collect(),
                    levels: levels
                        .iter()
                        .map(|&l| [1.0, 10.0, 10.0, 1000.0, f64::INFINITY][l])
                        .collect(),
                    salt,
                    inlj,
                    // Mostly exhaustive DP; sometimes force the greedy path.
                    dp_limit: [12, 12, 3][limit],
                }
            })
    })
}

proptest! {
    #[test]
    fn generated_estimators_plan_exactly_as_the_reference(p in problem()) {
        let mut opt = Optimizer::new(if p.inlj {
            CostModel::default()
        } else {
            CostModel::without_indexes()
        });
        opt.dp_limit = p.dp_limit;
        assert_same_plan(&opt, &p.query, &p.indexed, &mut TableEstimator(&p), "generated");
    }
}
