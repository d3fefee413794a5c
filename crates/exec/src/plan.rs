//! Physical join plans.

use crate::cost::CostModel;

/// A physical plan over the relations of a [`safebound_query::Query`].
/// Every node records the relation-subset bitmask it covers and the
/// cardinality the *planning* estimator assigned to it; re-costing with
/// true cardinalities (the runtime simulation) swaps the `card` fields.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysPlan {
    /// Filtered scan of one base relation.
    Scan {
        /// Relation index in the query.
        rel: usize,
        /// Bitmask (`1 << rel`).
        mask: u64,
        /// Estimated output cardinality.
        card: f64,
    },
    /// Hash join: build on the left input, probe with the right.
    HashJoin {
        /// Build side.
        build: Box<PhysPlan>,
        /// Probe side.
        probe: Box<PhysPlan>,
        /// Union of input masks.
        mask: u64,
        /// Estimated output cardinality.
        card: f64,
    },
    /// Index nested-loop join: for each outer tuple, probe an index on the
    /// inner base relation's join column.
    IndexJoin {
        /// Outer input.
        outer: Box<PhysPlan>,
        /// Inner base relation index.
        inner: usize,
        /// Union of masks.
        mask: u64,
        /// Estimated output cardinality.
        card: f64,
    },
}

impl PhysPlan {
    /// The relation bitmask this node covers.
    pub fn mask(&self) -> u64 {
        match self {
            PhysPlan::Scan { mask, .. }
            | PhysPlan::HashJoin { mask, .. }
            | PhysPlan::IndexJoin { mask, .. } => *mask,
        }
    }

    /// The cardinality recorded on this node.
    pub fn card(&self) -> f64 {
        match self {
            PhysPlan::Scan { card, .. }
            | PhysPlan::HashJoin { card, .. }
            | PhysPlan::IndexJoin { card, .. } => *card,
        }
    }

    /// Total cost of the plan under `m`, using the recorded cardinalities.
    pub fn cost(&self, m: &CostModel) -> f64 {
        match self {
            PhysPlan::Scan { card, .. } => m.scan_cost(*card),
            PhysPlan::HashJoin {
                build, probe, card, ..
            } => m.hash_join_cost(
                (build.cost(m), build.card()),
                (probe.cost(m), probe.card()),
                *card,
            ),
            PhysPlan::IndexJoin { outer, card, .. } => {
                m.index_join_cost((outer.cost(m), outer.card()), *card)
            }
        }
    }

    /// Rewrite every node's cardinality via `f(mask)` (used to re-cost a
    /// plan with true cardinalities).
    pub fn with_cards(&self, f: &mut impl FnMut(u64) -> f64) -> PhysPlan {
        match self {
            PhysPlan::Scan { rel, mask, .. } => PhysPlan::Scan {
                rel: *rel,
                mask: *mask,
                card: f(*mask),
            },
            PhysPlan::HashJoin {
                build, probe, mask, ..
            } => PhysPlan::HashJoin {
                build: Box::new(build.with_cards(f)),
                probe: Box::new(probe.with_cards(f)),
                mask: *mask,
                card: f(*mask),
            },
            PhysPlan::IndexJoin {
                outer, inner, mask, ..
            } => PhysPlan::IndexJoin {
                outer: Box::new(outer.with_cards(f)),
                inner: *inner,
                mask: *mask,
                card: f(*mask),
            },
        }
    }

    /// Compact single-line rendering, e.g. `HJ(IJ(Scan(0), 1), Scan(2))`.
    pub fn describe(&self) -> String {
        match self {
            PhysPlan::Scan { rel, .. } => format!("Scan({rel})"),
            PhysPlan::HashJoin { build, probe, .. } => {
                format!("HJ({}, {})", build.describe(), probe.describe())
            }
            PhysPlan::IndexJoin { outer, inner, .. } => {
                format!("IJ({}, {inner})", outer.describe())
            }
        }
    }

    /// All join operators in the plan (for regression counting).
    pub fn num_index_joins(&self) -> usize {
        match self {
            PhysPlan::Scan { .. } => 0,
            PhysPlan::HashJoin { build, probe, .. } => {
                build.num_index_joins() + probe.num_index_joins()
            }
            PhysPlan::IndexJoin { outer, .. } => 1 + outer.num_index_joins(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PhysPlan {
        PhysPlan::HashJoin {
            build: Box::new(PhysPlan::Scan {
                rel: 0,
                mask: 1,
                card: 10.0,
            }),
            probe: Box::new(PhysPlan::IndexJoin {
                outer: Box::new(PhysPlan::Scan {
                    rel: 1,
                    mask: 2,
                    card: 5.0,
                }),
                inner: 2,
                mask: 6,
                card: 20.0,
            }),
            mask: 7,
            card: 50.0,
        }
    }

    #[test]
    fn cost_accumulates() {
        let m = CostModel::default();
        let p = sample();
        // scans: 10 + 5; IJ: 5 lookups ·4 + 20·0.5; HJ: 10·2 + 20·1 + 50·0.5.
        let expected = 10.0 + 5.0 + 5.0 * 4.0 + 20.0 * 0.5 + 10.0 * 2.0 + 20.0 * 1.0 + 50.0 * 0.5;
        assert!((p.cost(&m) - expected).abs() < 1e-9);
    }

    #[test]
    fn with_cards_replaces_every_node() {
        let p = sample().with_cards(&mut |mask| mask as f64);
        assert_eq!(p.card(), 7.0);
        match &p {
            PhysPlan::HashJoin { build, probe, .. } => {
                assert_eq!(build.card(), 1.0);
                assert_eq!(probe.card(), 6.0);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn describe_and_counts() {
        let p = sample();
        assert_eq!(p.describe(), "HJ(Scan(0), IJ(Scan(1), 2))");
        assert_eq!(p.num_index_joins(), 1);
        assert_eq!(p.mask(), 7);
    }
}
