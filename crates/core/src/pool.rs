//! Flat storage for a snapshot's CDS sets.
//!
//! A [`StatsSnapshot`](crate::stats::StatsSnapshot) owns every stored CDS
//! — base sets, §3.6 fallbacks, MCV/histogram/n-gram groups and defaults
//! — in one [`CdsPool`]: one buffer of knots and one buffer of `(symbol,
//! knot range)` entries. A stored set is a [`SetRange`], a run of
//! entries; a stored polyline is a run of knots. Loading a snapshot file
//! appends each set's knots to the pool in file order, and dropping a
//! snapshot frees two buffers instead of one allocation per polyline and
//! per set.
//!
//! Reads go through [`CdsView`], a borrowed set that is either a pool
//! run or an owned [`CdsSet`]'s entries, so the online phase's combining
//! ops take a resident set and a session's scratch set alike.

// Per-query serving path: a panic here would answer `ERR internal` and
// cost the serving layer a rebuilt session.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

use crate::conditioning::CdsSet;
use crate::piecewise::{PiecewiseLinear, PwlView};
use crate::symbol::Sym;

/// One pooled polyline: its join-column symbol and its run of knots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolEntry {
    /// Interned join-column symbol.
    pub sym: Sym,
    start: u32,
    len: u32,
}

impl PoolEntry {
    /// The entry's polyline in `knots` (the empty CDS if the run lies
    /// outside it, rather than panicking the hot path).
    #[inline]
    fn view(self, knots: &[(f64, f64)]) -> PwlView<'_> {
        let (start, len) = (self.start as usize, self.len as usize);
        PwlView::of(knots.get(start..start + len).unwrap_or_default())
    }
}

/// A stored CDS set: a run of [`CdsPool`] entries, strictly sorted by
/// symbol. Meaningful only against the pool that produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetRange {
    start: u32,
    len: u32,
}

impl SetRange {
    /// Number of polylines in the set.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the set carries no polyline.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// The knot and entry buffers every stored CDS set of a snapshot lives
/// in (see the module docs). Indices are `u32`, like the snapshot file's
/// counts; [`CdsPool::push_set`] refuses to grow past them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CdsPool {
    knots: Vec<(f64, f64)>,
    entries: Vec<PoolEntry>,
}

impl CdsPool {
    /// An empty pool with room for `knots` knots and `entries` polylines.
    pub fn with_capacity(knots: usize, entries: usize) -> CdsPool {
        CdsPool {
            knots: Vec::with_capacity(knots),
            entries: Vec::with_capacity(entries),
        }
    }

    /// Release the spare capacity growth left behind (a build result
    /// held until the snapshot is assembled).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.knots.shrink_to_fit();
        self.entries.shrink_to_fit();
    }

    /// Total knots stored.
    pub fn num_knots(&self) -> usize {
        self.knots.len()
    }

    /// Total polylines stored.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// The set a range names. A range from another pool (or past the end)
    /// reads as the empty set rather than panicking the hot path.
    #[inline]
    pub fn set(&self, r: SetRange) -> CdsView<'_> {
        let (start, len) = (r.start as usize, r.len as usize);
        CdsView::Pooled {
            entries: self.entries.get(start..start + len).unwrap_or_default(),
            knots: &self.knots,
        }
    }

    /// Whether `r` and every knot run it names lie inside this pool.
    #[cfg(test)]
    pub(crate) fn contains(&self, r: SetRange) -> bool {
        let (start, len) = (r.start as usize, r.len as usize);
        self.entries.get(start..start + len).is_some_and(|run| {
            run.iter().all(|e| {
                (e.start as usize)
                    .checked_add(e.len as usize)
                    .is_some_and(|end| end <= self.knots.len())
            })
        })
    }

    /// Append a copy of `set` and return its range; `None` when the pool
    /// would outgrow its `u32` indices.
    pub fn push_set(&mut self, set: CdsView<'_>) -> Option<SetRange> {
        let begin = self.begin_set();
        for (sym, pwl) in set.iter() {
            self.push_entry(sym, pwl.knots().iter().copied())?;
        }
        self.end_set(begin)
    }

    /// Start a set at the current end of the entry buffer; close it with
    /// [`CdsPool::end_set`] after pushing its entries.
    pub(crate) fn begin_set(&self) -> usize {
        self.entries.len()
    }

    /// The range of every entry pushed since `begin`; `None` on index
    /// overflow.
    pub(crate) fn end_set(&self, begin: usize) -> Option<SetRange> {
        Some(SetRange {
            start: u32::try_from(begin).ok()?,
            len: u32::try_from(self.entries.len().checked_sub(begin)?).ok()?,
        })
    }

    /// Append one polyline of the set under construction and return its
    /// knots as stored (the snapshot decoder validates them in place).
    /// `None`, with nothing appended, when the knot buffer would outgrow
    /// its `u32` indices.
    pub(crate) fn push_entry(
        &mut self,
        sym: Sym,
        knots: impl IntoIterator<Item = (f64, f64)>,
    ) -> Option<&[(f64, f64)]> {
        let begin = self.knots.len();
        self.knots.extend(knots);
        let (Ok(start), Ok(end)) = (u32::try_from(begin), u32::try_from(self.knots.len())) else {
            self.knots.truncate(begin);
            return None;
        };
        self.entries.push(PoolEntry {
            sym,
            start,
            len: end - start,
        });
        self.knots.get(begin..)
    }
}

/// A borrowed CDS set: a run of a [`CdsPool`] or an owned [`CdsSet`]'s
/// entries. Either way it is a symbol-sorted list of polylines, read
/// through [`PwlView`]s.
#[derive(Debug, Clone, Copy)]
pub enum CdsView<'a> {
    /// An owned set (session scratch, memo entries, build output).
    Owned(&'a [(Sym, PiecewiseLinear)]),
    /// A snapshot-resident set.
    Pooled {
        /// The set's entries.
        entries: &'a [PoolEntry],
        /// The whole knot buffer the entries index.
        knots: &'a [(f64, f64)],
    },
}

impl<'a> CdsView<'a> {
    /// Number of polylines.
    #[inline]
    pub fn len(self) -> usize {
        match self {
            CdsView::Owned(e) => e.len(),
            CdsView::Pooled { entries, .. } => entries.len(),
        }
    }

    /// Whether the set carries no polyline.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The `i`-th `(symbol, polyline)` entry, in symbol order.
    #[inline]
    pub fn entry(self, i: usize) -> Option<(Sym, PwlView<'a>)> {
        match self {
            CdsView::Owned(e) => e.get(i).map(|(s, p)| (*s, p.view())),
            CdsView::Pooled { entries, knots } => entries.get(i).map(|e| (e.sym, e.view(knots))),
        }
    }

    /// Every entry, in symbol order.
    pub fn iter(self) -> impl Iterator<Item = (Sym, PwlView<'a>)> {
        (0..self.len()).filter_map(move |i| self.entry(i))
    }

    /// The CDS stored for a join-column symbol (binary search).
    #[inline]
    pub fn get(self, sym: Sym) -> Option<PwlView<'a>> {
        match self {
            CdsView::Owned(e) => {
                let i = e.binary_search_by_key(&sym, |e| e.0).ok()?;
                e.get(i).map(|(_, p)| p.view())
            }
            CdsView::Pooled { entries, knots } => {
                let i = entries.binary_search_by_key(&sym, |e| e.sym).ok()?;
                entries.get(i).map(|e| e.view(knots))
            }
        }
    }

    /// Upper bound on the row-subset cardinality: the smallest endpoint.
    pub fn cardinality(self) -> f64 {
        let m = self
            .iter()
            .map(|(_, cds)| cds.endpoint())
            .fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Approximate heap size in bytes ([`PwlView::byte_size`] per entry).
    pub fn byte_size(self) -> usize {
        self.iter().map(|(_, p)| p.byte_size()).sum()
    }

    /// An owned copy (allocating; offline and test use).
    pub fn to_set(self) -> CdsSet {
        CdsSet {
            entries: self.iter().map(|(s, p)| (s, p.to_pwl())).collect(),
        }
    }
}
