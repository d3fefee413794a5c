//! Exact degree sequences (§2.2).
//!
//! The degree sequence of a column `R.V` is the list of frequencies of its
//! distinct values, sorted descending: `f(1) ≥ f(2) ≥ … ≥ f(d)`. Its
//! running sum is the cumulative degree sequence (CDS). These exact
//! sequences are the input to compression (§3.4); they are never stored.

use crate::piecewise::{PiecewiseConstant, PiecewiseLinear};
use safebound_storage::{Column, GroupKey};
use std::collections::HashMap;

/// An exact degree sequence: positive frequencies sorted descending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeSequence {
    freqs: Vec<u64>,
}

impl DegreeSequence {
    /// Build from unsorted frequencies; zeros are dropped.
    pub fn from_frequencies(mut freqs: Vec<u64>) -> Self {
        freqs.retain(|&f| f > 0);
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        DegreeSequence { freqs }
    }

    /// Build from a stream of per-value counts — e.g. the values of a
    /// partition-merge count map ([`crate::partial`]); zeros are dropped.
    pub fn from_counts(counts: impl IntoIterator<Item = u64>) -> Self {
        Self::from_frequencies(counts.into_iter().collect())
    }

    /// Extract the degree sequence of a column (NULLs excluded — NULL never
    /// joins).
    pub fn of_column(column: &Column) -> Self {
        Self::from_frequencies(column.frequencies())
    }

    /// Extract the degree sequence of a column restricted to the rows in
    /// `rows` (used when conditioning on predicates).
    pub fn of_column_rows(column: &Column, rows: &[usize]) -> Self {
        #[expect(clippy::disallowed_methods, reason = "offline build, not session-hot")]
        let mut counts: HashMap<GroupKey<'_>, u64> = HashMap::new();
        for &i in rows {
            match column.group_key(i) {
                GroupKey::Null => {}
                k => *counts.entry(k).or_insert(0) += 1,
            }
        }
        Self::from_frequencies(counts.into_values().collect())
    }

    /// The frequencies, sorted descending.
    pub fn frequencies(&self) -> &[u64] {
        &self.freqs
    }

    /// Number of distinct values `d`.
    pub fn num_distinct(&self) -> usize {
        self.freqs.len()
    }

    /// `‖f‖₁` — the (non-NULL) cardinality.
    pub fn cardinality(&self) -> u64 {
        self.freqs.iter().sum()
    }

    /// `‖f‖∞` — the maximum degree.
    pub fn max_degree(&self) -> u64 {
        self.freqs.first().copied().unwrap_or(0)
    }

    /// `Σ fᵢ²` — the exact degree sequence bound of the self-join on this
    /// column (Algorithm 1 line 2).
    pub fn self_join(&self) -> f64 {
        self.freqs.iter().map(|&f| (f as f64) * (f as f64)).sum()
    }

    /// Exact lossless piecewise-constant representation: one segment per
    /// run of equal frequencies. By Lemma 3.3 this has at most
    /// `min(√(2N), f(1))` segments.
    pub fn to_piecewise(&self) -> PiecewiseConstant {
        let mut segs: Vec<(f64, f64)> = Vec::new();
        let mut rank = 0usize;
        let mut i = 0usize;
        while i < self.freqs.len() {
            let v = self.freqs[i];
            let mut j = i;
            while j < self.freqs.len() && self.freqs[j] == v {
                j += 1;
            }
            rank += j - i;
            segs.push((rank as f64, v as f64));
            i = j;
        }
        PiecewiseConstant::new(segs)
    }

    /// Exact CDS as a polyline.
    pub fn to_cds(&self) -> PiecewiseLinear {
        self.to_piecewise().cumulative()
    }

    /// Exact CDS value at integer rank `i` (`F(i) = Σ_{j≤i} f(j)`).
    pub fn cds_at(&self, i: usize) -> u64 {
        self.freqs.iter().take(i).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safebound_storage::Column;

    /// The Fig. 1 column: a b c c c c d d e e f.
    fn fig1() -> DegreeSequence {
        let col =
            Column::from_strs(["a", "b", "c", "c", "c", "c", "d", "d", "e", "e", "f"].map(Some));
        DegreeSequence::of_column(&col)
    }

    #[test]
    fn fig1_sequence() {
        let ds = fig1();
        assert_eq!(ds.frequencies(), &[4, 2, 2, 1, 1, 1]);
        assert_eq!(ds.cardinality(), 11);
        assert_eq!(ds.max_degree(), 4);
        assert_eq!(ds.num_distinct(), 6);
        assert_eq!(ds.self_join(), 16.0 + 4.0 + 4.0 + 3.0);
    }

    #[test]
    fn piecewise_is_lossless() {
        let ds = fig1();
        let f = ds.to_piecewise();
        assert_eq!(f.num_segments(), 3); // runs: [4], [2,2], [1,1,1]
        for i in 1..=6 {
            assert_eq!(f.value(i as f64), ds.frequencies()[i - 1] as f64);
        }
        assert_eq!(f.total(), 11.0);
        // Lemma 3.3: k <= min(sqrt(2N), f(1)).
        let k = f.num_segments() as f64;
        assert!(k <= (2.0 * 11.0f64).sqrt());
        assert!(k <= 4.0);
    }

    #[test]
    fn cds_values() {
        let ds = fig1();
        assert_eq!(ds.cds_at(0), 0);
        assert_eq!(ds.cds_at(1), 4);
        assert_eq!(ds.cds_at(3), 8);
        assert_eq!(ds.cds_at(6), 11);
        let cds = ds.to_cds();
        assert_eq!(cds.eval(6.0), 11.0);
        assert_eq!(cds.endpoint(), 11.0);
    }

    #[test]
    fn nulls_excluded() {
        let col = Column::from_ints([Some(1), None, Some(1), None]);
        let ds = DegreeSequence::of_column(&col);
        assert_eq!(ds.frequencies(), &[2]);
    }

    #[test]
    fn restricted_rows() {
        let col = Column::from_ints([Some(1), Some(1), Some(2), Some(2), Some(2)]);
        let ds = DegreeSequence::of_column_rows(&col, &[2, 3, 0]);
        assert_eq!(ds.frequencies(), &[2, 1]);
    }

    #[test]
    fn key_column_single_segment() {
        let col = Column::from_ints((0..100).map(Some));
        let ds = DegreeSequence::of_column(&col);
        assert_eq!(ds.to_piecewise().num_segments(), 1);
        assert_eq!(ds.max_degree(), 1);
    }

    #[test]
    fn empty_column() {
        let ds = DegreeSequence::of_column(&Column::from_ints([None, None]));
        assert_eq!(ds.num_distinct(), 0);
        assert_eq!(ds.cardinality(), 0);
        assert_eq!(ds.max_degree(), 0);
        assert_eq!(ds.to_piecewise().num_segments(), 0);
    }
}
