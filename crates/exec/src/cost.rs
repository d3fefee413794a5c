//! The cost model.
//!
//! A deliberately simple, Postgres-flavored cost model: hash joins pay per
//! build/probe tuple, index nested-loop joins pay a per-lookup cost on the
//! outer side, and every operator pays per output tuple. What matters for
//! the paper's experiments is not absolute accuracy but that *cardinality
//! underestimates make risky plans (index nested loops on huge outers)
//! look cheap* — the failure mode pessimistic estimation prevents.

/// Per-tuple cost constants.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Cost per scanned base tuple.
    pub scan: f64,
    /// Cost per tuple inserted into a hash table.
    pub hash_build: f64,
    /// Cost per probe of a hash table.
    pub hash_probe: f64,
    /// Cost per index lookup (one per outer tuple of an INLJ).
    pub index_lookup: f64,
    /// Cost per output tuple of any operator.
    pub cpu_tuple: f64,
    /// Whether index nested-loop joins are available (Fig. 9a toggles
    /// this to study FK-index regressions).
    pub enable_inlj: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            scan: 1.0,
            hash_build: 2.0,
            hash_probe: 1.0,
            index_lookup: 4.0,
            cpu_tuple: 0.5,
            enable_inlj: true,
        }
    }
}

impl CostModel {
    /// Cost model without index access paths.
    pub fn without_indexes() -> Self {
        CostModel {
            enable_inlj: false,
            ..Default::default()
        }
    }

    /// Total cost of a scan producing `card` tuples.
    pub fn scan_cost(&self, card: f64) -> f64 {
        card * self.scan
    }

    /// Total cost of a hash join producing `card` tuples, from each
    /// input's total `(cost, card)`. [`PhysPlan::cost`] and the
    /// optimizer's DP both cost joins here, so a cost composed from
    /// memoized child costs equals the recursive one bit for bit (one
    /// expression, one association order).
    ///
    /// [`PhysPlan::cost`]: crate::plan::PhysPlan::cost
    pub fn hash_join_cost(&self, build: (f64, f64), probe: (f64, f64), card: f64) -> f64 {
        build.0
            + probe.0
            + build.1 * self.hash_build
            + probe.1 * self.hash_probe
            + card * self.cpu_tuple
    }

    /// Total cost of an index nested-loop join producing `card` tuples,
    /// from the outer input's total `(cost, card)`.
    pub fn index_join_cost(&self, outer: (f64, f64), card: f64) -> f64 {
        outer.0 + outer.1 * self.index_lookup + card * self.cpu_tuple
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_inlj() {
        assert!(CostModel::default().enable_inlj);
        assert!(!CostModel::without_indexes().enable_inlj);
    }
}
