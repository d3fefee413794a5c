//! Degree sequences conditioned on predicates (§3.2) with group
//! compression (§4.1) and Bloom-filter MCV indexes (§4.3).
//!
//! For every (filter column, join column) pair SafeBound stores CDSs of the
//! join column restricted to rows selected by families of predicates on
//! the filter column:
//!
//! * **equality** — one [`CdsSet`] per most-common value plus a *default*
//!   set dominating every non-MCV value's conditioned CDS (Eq. 3 lifted to
//!   the CDS per §3.3);
//! * **range** — a hierarchy of equi-depth histograms with `2^k … 2`
//!   buckets; a query uses the smallest bucket fully covering its range;
//! * **LIKE** — the same MCV machinery keyed by n-grams.
//!
//! Conjunctions take the pointwise min of the selected CDSs, disjunctions
//! the pointwise sum (done by the estimator on top of these lookups).
//!
//! # Online arena
//!
//! Two kinds of set meet in the online phase:
//!
//! * **resident** — every set a snapshot stores (MCV groups and
//!   defaults, histogram groups, n-gram groups and defaults, and the
//!   tables' base and fallback sets) is a [`SetRange`] into the
//!   snapshot's one [`CdsPool`]; lookups take that pool and read the set
//!   in place through a [`CdsView`];
//! * **owned scratch** — what a query computes (max-envelopes of several
//!   candidate groups, LIKE min-folds, `IN`/`AND`/`OR` combinations, the
//!   memos' copies) is an owned [`CdsSet`] recycled through a
//!   [`CdsScratch`]: a pool of spare polylines and sets whose capacity
//!   survives across queries.
//!
//! The combining ops ([`CdsView::combine_into`] / [`CdsSet::accumulate`]
//! with a [`SetOp`]) read both kinds through views and write into
//! recycled buffers, and every lookup has an `_into` variant writing
//! through the scratch. A warm scratch makes predicate resolution and
//! stats assembly allocation-free (asserted by the `zero_alloc`
//! integration test). The allocating methods remain for the offline build
//! and as convenience wrappers.

// Per-query serving path: a panic here kills a worker mid-batch.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

use crate::bloom::{BloomBank, BloomFilter};
use crate::clustering::{agglomerative, naive_equal_size, self_join_distance, Linkage};
use crate::compression::valid_compress;
use crate::config::SafeBoundConfig;
use crate::degree_sequence::DegreeSequence;
use crate::piecewise::{PiecewiseLinear, PwlView};
use crate::pool::{CdsPool, CdsView, SetRange};
use crate::simd::hash::FastMap;
use crate::symbol::Sym;
use safebound_storage::{Column, Table, Value};

/// A join column as the statistics builders see it: the globally interned
/// symbol it is keyed under, plus its name in the owning table.
pub type JoinCol = (Sym, String);

/// One conditioned statistic: a CDS per join column of the relation, all
/// describing the same row subset. Keyed by interned [`Sym`]s in a sorted
/// vector — relations have a handful of join columns, so lookups are a
/// short scan/binary search and the combining ops are sorted merges, with
/// no string hashing anywhere.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CdsSet {
    /// `(join column symbol, conditioned compressed CDS)`, sorted by symbol.
    pub entries: Vec<(Sym, PiecewiseLinear)>,
}

impl CdsSet {
    /// Build from entries (sorts them by symbol).
    pub fn from_entries(mut entries: Vec<(Sym, PiecewiseLinear)>) -> CdsSet {
        entries.sort_by_key(|e| e.0);
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate join column"
        );
        CdsSet { entries }
    }

    /// The CDS stored for a join-column symbol.
    pub fn get(&self, sym: Sym) -> Option<&PiecewiseLinear> {
        self.entries
            .binary_search_by_key(&sym, |e| e.0)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The borrowed read side of this set.
    #[inline]
    pub fn view(&self) -> CdsView<'_> {
        CdsView::Owned(&self.entries)
    }

    /// True when the set carries no per-column CDS.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Upper bound on the row-subset cardinality: the smallest endpoint.
    pub fn cardinality(&self) -> f64 {
        self.view().cardinality()
    }

    /// Per-column pointwise max (for grouping / defaults), with a concave
    /// envelope to restore validity.
    pub fn pointwise_max(&self, other: &CdsSet) -> CdsSet {
        self.combine(other, |a, b| a.pointwise_max(b).concave_envelope())
    }

    /// Per-column pointwise min (predicate conjunction, §3.3).
    pub fn pointwise_min(&self, other: &CdsSet) -> CdsSet {
        // Min against a missing column means no constraint from `other`.
        self.combine(other, |a, b| a.pointwise_min(b))
    }

    /// Per-column pointwise sum (predicate disjunction, §3.2).
    pub fn pointwise_sum(&self, other: &CdsSet) -> CdsSet {
        self.combine(other, |a, b| a.pointwise_sum(b))
    }

    /// Sorted merge over the two symbol-keyed entry lists; columns present
    /// on only one side are copied through.
    fn combine(
        &self,
        other: &CdsSet,
        op: impl Fn(&PiecewiseLinear, &PiecewiseLinear) -> PiecewiseLinear,
    ) -> CdsSet {
        let (a, b) = (&self.entries, &other.entries);
        let mut out = Vec::with_capacity(a.len().max(b.len()));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Equal => {
                    out.push((a[i].0, op(&a[i].1, &b[j].1)));
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    out.push(a[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j].clone());
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        CdsSet { entries: out }
    }

    /// Approximate heap size in bytes (knot storage).
    pub fn byte_size(&self) -> usize {
        self.view().byte_size()
    }

    /// `self = op(self, other)` through a recycled temporary.
    pub fn accumulate(&mut self, other: CdsView<'_>, op: SetOp, scratch: &mut CdsScratch) {
        let mut tmp = scratch.take_set();
        self.view().combine_into(other, op, scratch, &mut tmp);
        std::mem::swap(self, &mut tmp);
        scratch.put_set(tmp);
    }
}

impl CdsView<'_> {
    /// Sorted-merge combine writing into `out` (recycled through
    /// `scratch`): the arena-backed core of the online phase. Columns
    /// present on only one side are copied through, exactly like the
    /// allocating [`CdsSet::pointwise_min`]/`max`/`sum`.
    pub fn combine_into(
        self,
        other: CdsView<'_>,
        op: SetOp,
        scratch: &mut CdsScratch,
        out: &mut CdsSet,
    ) {
        scratch.clear_set(out);
        let (mut i, mut j) = (0, 0);
        loop {
            let (a, b) = (self.entry(i), other.entry(j));
            let (sym, p) = match (a, b) {
                (Some((sa, pa)), Some((sb, pb))) if sa == sb => {
                    let mut p = scratch.take_pwl();
                    match op {
                        SetOp::Min => pa.pointwise_min_into(pb, &mut p),
                        SetOp::MaxEnvelope => {
                            pa.pointwise_max_envelope_into(pb, &mut scratch.tmp_knots, &mut p)
                        }
                        SetOp::Sum => pa.pointwise_sum_into(pb, &mut p),
                    }
                    i += 1;
                    j += 1;
                    (sa, p)
                }
                (Some((sa, pa)), Some((sb, _))) if sa < sb => {
                    i += 1;
                    (sa, scratch.copy_pwl(pa))
                }
                (Some((sa, pa)), None) => {
                    i += 1;
                    (sa, scratch.copy_pwl(pa))
                }
                (_, Some((sb, pb))) => {
                    j += 1;
                    (sb, scratch.copy_pwl(pb))
                }
                (None, None) => break,
            };
            out.entries.push((sym, p));
        }
    }
}

/// The per-column combining operation of an arena [`CdsView::combine_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// Pointwise min (predicate conjunction, §3.3).
    Min,
    /// Pointwise max + concave envelope (grouping / defaults, Eq. 3).
    MaxEnvelope,
    /// Pointwise sum (predicate disjunction, §3.2).
    Sum,
}

/// Pooled buffers for the online phase: spare polylines and CDS sets whose
/// capacity survives across queries, so predicate resolution and stats
/// assembly allocate nothing in steady state. One scratch per
/// thread/session; `Default::default()` starts empty.
#[derive(Debug, Default)]
pub struct CdsScratch {
    /// Spare polylines (knot capacity retained).
    spare_pwl: Vec<PiecewiseLinear>,
    /// Spare sets (entry capacity retained, entries harvested).
    spare_set: Vec<CdsSet>,
    /// Raw-knot staging buffer for max+envelope passes.
    tmp_knots: Vec<(f64, f64)>,
    /// MCV group-id staging buffer.
    tmp_groups: Vec<usize>,
    /// Bloom key staging buffer.
    tmp_bytes: Vec<u8>,
    /// LIKE gram staging: `Value::Str` slots whose heap capacity survives
    /// across queries (the current pattern's grams occupy a sorted
    /// prefix), so warm LIKE resolution extracts grams without
    /// allocating.
    gram_slots: Vec<Value>,
    /// Char staging for the wildcard-free chunks of a LIKE pattern.
    tmp_chars: Vec<char>,
    /// Per-gram resolved sets staged for the fused LIKE min-fold (the
    /// sets themselves recycle through `spare_set`).
    staged_like: Vec<CdsSet>,
    /// Cursors of the fused min-fold's k-way merge.
    fold_cursors: Vec<usize>,
}

impl CdsScratch {
    /// A spare polyline from the pool (contents unspecified).
    pub fn take_pwl(&mut self) -> PiecewiseLinear {
        self.spare_pwl.pop().unwrap_or_else(PiecewiseLinear::empty)
    }

    /// Return a polyline to the pool.
    pub fn put_pwl(&mut self, p: PiecewiseLinear) {
        self.spare_pwl.push(p);
    }

    /// A spare polyline from the pool overwritten with a copy of `src`.
    pub fn copy_pwl(&mut self, src: PwlView<'_>) -> PiecewiseLinear {
        let mut p = self.take_pwl();
        p.copy_from(src);
        p
    }

    /// A spare, empty set from the pool.
    pub fn take_set(&mut self) -> CdsSet {
        self.spare_set.pop().unwrap_or_default()
    }

    /// Return a set to the pool (its polylines are harvested).
    pub fn put_set(&mut self, mut s: CdsSet) {
        self.clear_set(&mut s);
        self.spare_set.push(s);
    }

    /// Empty a set in place, harvesting its polylines into the pool.
    pub fn clear_set(&mut self, s: &mut CdsSet) {
        for (_, p) in s.entries.drain(..) {
            self.spare_pwl.push(p);
        }
    }

    /// Overwrite `dst` with a copy of `src` through the pool. Entries
    /// `dst` already holds are rewritten in place — their segment buffers
    /// are reused directly instead of round-tripping through the pool —
    /// so the steady state (same relation resolved query after query) is
    /// one `memcpy` per join column.
    pub fn copy_set(&mut self, src: CdsView<'_>, dst: &mut CdsSet) {
        let keep = src.len().min(dst.entries.len());
        for p in dst.entries.drain(keep..) {
            self.spare_pwl.push(p.1);
        }
        for (d, (sym, pwl)) in dst.entries.iter_mut().zip(src.iter()) {
            d.0 = sym;
            d.1.copy_from(pwl);
        }
        for (sym, pwl) in src.iter().skip(keep) {
            let p = self.copy_pwl(pwl);
            dst.entries.push((sym, p));
        }
    }
}

/// Build the compressed CDS set of `table`'s join columns restricted to
/// `rows` (`None` = all rows).
pub fn cds_set_for_rows(
    table: &Table,
    join_columns: &[JoinCol],
    rows: Option<&[usize]>,
    compression_c: f64,
) -> CdsSet {
    let mut entries = Vec::with_capacity(join_columns.len());
    for (sym, jc) in join_columns {
        #[expect(clippy::panic, reason = "offline build; missing join column is a bug")]
        let col = table
            .column(jc)
            .unwrap_or_else(|| panic!("missing join column {jc}"));
        let ds = match rows {
            Some(rows) => DegreeSequence::of_column_rows(col, rows),
            None => DegreeSequence::of_column(col),
        };
        entries.push((*sym, valid_compress(&ds, compression_c)));
    }
    CdsSet::from_entries(entries)
}

/// Distance between CDS sets: sum of self-join distances over shared join
/// columns (sorted merge over the symbol-keyed entries).
fn set_distance(a: &CdsSet, b: &CdsSet) -> f64 {
    let mut d = 0.0;
    let (mut i, mut j) = (0, 0);
    while i < a.entries.len() && j < b.entries.len() {
        match a.entries[i].0.cmp(&b.entries[j].0) {
            std::cmp::Ordering::Equal => {
                d += self_join_distance(&a.entries[i].1, &b.entries[j].1);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    d
}

/// Cluster a collection of CDS sets into at most `target` groups (identity
/// assignment when `target` is `None`). Oversized collections are
/// pre-reduced with naive equal-size clustering to keep the O(n³)
/// agglomerative step bounded. Returns `(group sets, assignment)`.
pub fn group_compress(
    sets: Vec<CdsSet>,
    target: Option<usize>,
    input_cap: usize,
) -> (Vec<CdsSet>, Vec<usize>) {
    let n = sets.len();
    let Some(target) = target else {
        return (sets, (0..n).collect());
    };
    if n <= target {
        return (sets, (0..n).collect());
    }
    // Pre-reduction: merge to at most `input_cap` meta-sets by cardinality.
    let (meta_sets, pre_assign): (Vec<CdsSet>, Vec<usize>) = if n > input_cap {
        let assign = naive_equal_size(&sets, input_cap, CdsSet::cardinality);
        let merged = merge_sets(&sets, &assign);
        (merged, assign)
    } else {
        (sets.clone(), (0..n).collect())
    };
    let meta_assign = agglomerative(&meta_sets, target, Linkage::Complete, set_distance);
    let groups = merge_sets(&meta_sets, &meta_assign);
    let assignment: Vec<usize> = pre_assign.iter().map(|&m| meta_assign[m]).collect();
    (groups, assignment)
}

/// Pointwise-max merge of sets per cluster.
fn merge_sets(sets: &[CdsSet], assignment: &[usize]) -> Vec<CdsSet> {
    let num = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let mut out: Vec<Option<CdsSet>> = vec![None; num];
    for (i, &g) in assignment.iter().enumerate() {
        out[g] = Some(match out[g].take() {
            None => sets[i].clone(),
            Some(acc) => acc.pointwise_max(&sets[i]),
        });
    }
    out.into_iter().map(Option::unwrap_or_default).collect()
}

/// Stable byte encoding of a value for Bloom filters, into a reused
/// buffer. Values with a [`Value::normalized_int`] encode like that
/// integer (consistent with `Value::eq`).
fn value_bytes_into(v: &Value, b: &mut Vec<u8>) {
    b.clear();
    match (v.normalized_int(), v) {
        (Some(i), _) => {
            b.push(1);
            b.extend_from_slice(&i.to_le_bytes());
        }
        (None, Value::Null) => b.push(0),
        (None, Value::Float(f)) => {
            b.push(2);
            b.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        (None, Value::Str(s)) => {
            b.push(3);
            b.extend_from_slice(s.as_bytes());
        }
        (None, Value::Int(_)) => unreachable!("integers always normalize"),
    }
}

/// Stable byte encoding of a value for Bloom filters.
pub(crate) fn value_bytes(v: &Value) -> Vec<u8> {
    let mut b = Vec::new();
    value_bytes_into(v, &mut b);
    b
}

/// MCV membership index: exact map or one Bloom filter per group (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub enum McvIndex {
    /// Exact value → group id.
    Exact(FastMap<Value, usize>),
    /// One filter per group, all in one bank; a value belongs to every
    /// group whose filter answers positive (max over them keeps the bound
    /// sound).
    Bloom(BloomBank),
}

impl McvIndex {
    /// Group ids a value may belong to (empty = definitely non-MCV).
    pub fn lookup(&self, v: &Value) -> Vec<usize> {
        let mut out = Vec::new();
        let mut bytes = Vec::new();
        self.lookup_into(v, &mut out, &mut bytes);
        out
    }

    /// [`McvIndex::lookup`] into reused buffers (no allocation once warm).
    pub fn lookup_into(&self, v: &Value, out: &mut Vec<usize>, bytes: &mut Vec<u8>) {
        out.clear();
        match self {
            McvIndex::Exact(map) => {
                if let Some(&g) = map.get(v) {
                    out.push(g);
                }
            }
            McvIndex::Bloom(bank) => {
                value_bytes_into(v, bytes);
                // Hash once, probe every per-group filter with the pair
                // (the double-hashing pair depends only on the key).
                let (h1, h2) = BloomFilter::hash_key(bytes);
                out.extend(bank.positives(h1, h2));
            }
        }
    }

    /// Approximate heap size in bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            McvIndex::Exact(map) => map.len() * 48,
            McvIndex::Bloom(bank) => bank.byte_size(),
        }
    }
}

/// Shared MCV machinery: resolve `v` through `index` and write the
/// pointwise max over its candidate groups into `out` (the `default_set`
/// for non-MCV values), all through the pool.
fn indexed_max_into(
    index: &McvIndex,
    groups: &[SetRange],
    default_set: SetRange,
    pool: &CdsPool,
    v: &Value,
    scratch: &mut CdsScratch,
    out: &mut CdsSet,
) {
    let mut ids = std::mem::take(&mut scratch.tmp_groups);
    let mut bytes = std::mem::take(&mut scratch.tmp_bytes);
    index.lookup_into(v, &mut ids, &mut bytes);
    match ids.split_first() {
        None => scratch.copy_set(pool.set(default_set), out),
        Some((&first, rest)) => max_of_groups_into(groups, first, rest, pool, scratch, out),
    }
    scratch.tmp_groups = ids;
    scratch.tmp_bytes = bytes;
}

/// The max-envelope of the candidate groups `first` and `rest` into
/// `out` (group ids were bounded by the group count when the index was
/// built or loaded).
fn max_of_groups_into(
    groups: &[SetRange],
    first: usize,
    rest: &[usize],
    pool: &CdsPool,
    scratch: &mut CdsScratch,
    out: &mut CdsSet,
) {
    let group = |g: usize| pool.set(groups.get(g).copied().unwrap_or_default());
    scratch.copy_set(group(first), out);
    for &g in rest {
        out.accumulate(group(g), SetOp::MaxEnvelope, scratch);
    }
}

/// Fused k-way pointwise-min fold over staged sets, written into `out`
/// (cleared first) through the pool. For every join column (ascending
/// symbol order), the participating sets' polylines are min-folded
/// pairwise **in staging order** — the exact association the equivalent
/// chain `out = s0; out.accumulate(s1, Min); …` performs, with absent
/// columns copied through — so the fused result is bit-identical to the
/// chain's while building each output column exactly once.
fn fused_min_into(staged: &[CdsSet], scratch: &mut CdsScratch, out: &mut CdsSet) {
    scratch.clear_set(out);
    let mut cursors = std::mem::take(&mut scratch.fold_cursors);
    cursors.clear();
    cursors.resize(staged.len(), 0);
    loop {
        // Next column: the smallest pending symbol across all sets.
        let mut next: Option<Sym> = None;
        for (set, &c) in staged.iter().zip(cursors.iter()) {
            if let Some(&(sym, _)) = set.entries.get(c) {
                if next.is_none_or(|m| sym < m) {
                    next = Some(sym);
                }
            }
        }
        let Some(sym) = next else { break };
        let mut acc = scratch.take_pwl();
        let mut first = true;
        for (set, c) in staged.iter().zip(cursors.iter_mut()) {
            match set.entries.get(*c) {
                Some((s, pwl)) if *s == sym => {
                    if first {
                        acc.copy_from(pwl.view());
                        first = false;
                    } else {
                        let mut folded = scratch.take_pwl();
                        acc.view().pointwise_min_into(pwl.view(), &mut folded);
                        std::mem::swap(&mut acc, &mut folded);
                        scratch.put_pwl(folded);
                    }
                    *c += 1;
                }
                _ => {}
            }
        }
        out.entries.push((sym, acc));
    }
    scratch.fold_cursors = cursors;
}

/// Which stored set answers an MCV equality probe (see
/// [`McvStats::lookup_eq_outcome`]): a resident set's range rather than a
/// copy, so hot paths (and the session equality memo) can read the
/// answer in place.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum McvOutcome {
    /// Exactly one stored set dominates: the default set for a non-MCV
    /// value, or the one candidate group.
    Resident(SetRange),
    /// Multiple candidate groups: their max-envelope was written out.
    #[default]
    Owned,
}

/// Equality-predicate statistics for one filter column (§3.2). Its sets
/// are resident in the snapshot's [`CdsPool`].
#[derive(Debug, Clone, PartialEq)]
pub struct McvStats {
    /// Group CDS sets (post group-compression).
    pub groups: Vec<SetRange>,
    /// Value → group(s).
    pub index: McvIndex,
    /// Dominates the conditioned CDS of every non-MCV value (Eq. 3).
    pub default_set: SetRange,
}

impl McvStats {
    /// The conditioned CDS set for `column = v`: max over candidate groups,
    /// or the default for non-MCV values.
    pub fn lookup_eq(&self, pool: &CdsPool, v: &Value) -> CdsSet {
        let mut scratch = CdsScratch::default();
        let mut out = CdsSet::default();
        self.lookup_eq_into(pool, v, &mut scratch, &mut out);
        out
    }

    /// [`McvStats::lookup_eq`] writing into `out` through the scratch.
    pub fn lookup_eq_into(
        &self,
        pool: &CdsPool,
        v: &Value,
        scratch: &mut CdsScratch,
        out: &mut CdsSet,
    ) {
        indexed_max_into(
            &self.index,
            &self.groups,
            self.default_set,
            pool,
            v,
            scratch,
            out,
        );
    }

    /// [`McvStats::lookup_eq_into`], but classifying the answer instead of
    /// always copying it: when a single stored set dominates, `out` is
    /// left untouched and the caller reads the set in place; only the
    /// multi-candidate max-envelope (`Owned`) is materialized into `out`.
    /// Values are bit-identical to `lookup_eq_into` in every case.
    pub(crate) fn lookup_eq_outcome(
        &self,
        pool: &CdsPool,
        v: &Value,
        scratch: &mut CdsScratch,
        out: &mut CdsSet,
    ) -> McvOutcome {
        let mut ids = std::mem::take(&mut scratch.tmp_groups);
        let mut bytes = std::mem::take(&mut scratch.tmp_bytes);
        self.index.lookup_into(v, &mut ids, &mut bytes);
        let outcome = match ids[..] {
            [] => McvOutcome::Resident(self.default_set),
            [g] => McvOutcome::Resident(self.groups.get(g).copied().unwrap_or_default()),
            [first, ref rest @ ..] => {
                max_of_groups_into(&self.groups, first, rest, pool, scratch, out);
                McvOutcome::Owned
            }
        };
        scratch.tmp_groups = ids;
        scratch.tmp_bytes = bytes;
        outcome
    }

    /// The CDS set of a **provably empty** selection on this column: every
    /// join column the statistics cover, mapped to the zero CDS. Dominates
    /// the (empty) true conditioned CDS and drives the cardinality bound
    /// to zero, unlike an absent entry (which falls back to the
    /// unconditioned base).
    pub fn zero_set_into(&self, pool: &CdsPool, scratch: &mut CdsScratch, out: &mut CdsSet) {
        scratch.clear_set(out);
        for (sym, _) in pool.set(self.default_set).iter() {
            let mut p = scratch.take_pwl();
            p.make_empty();
            out.entries.push((sym, p));
        }
    }

    /// Approximate heap size in bytes.
    pub fn byte_size(&self, pool: &CdsPool) -> usize {
        sets_byte_size(pool, &self.groups)
            + self.index.byte_size()
            + pool.set(self.default_set).byte_size()
    }

    /// Number of stored CDS sets (groups + default).
    pub fn num_sets(&self) -> usize {
        self.groups.len() + 1
    }

    /// Every stored set, in file order (groups, then the default).
    pub(crate) fn for_each_set_mut(&mut self, f: &mut impl FnMut(&mut SetRange)) {
        self.groups.iter_mut().for_each(&mut *f);
        f(&mut self.default_set);
    }
}

/// Summed [`CdsView::byte_size`] of resident sets.
fn sets_byte_size(pool: &CdsPool, sets: &[SetRange]) -> usize {
    sets.iter().map(|&r| pool.set(r).byte_size()).sum()
}

/// Build MCV statistics for the named filter column, its sets appended to
/// `pool`.
pub fn build_mcv(
    table: &Table,
    filter_col: &str,
    join_columns: &[JoinCol],
    config: &SafeBoundConfig,
    pool: &mut CdsPool,
) -> McvStats {
    #[expect(clippy::expect_used, reason = "offline build names only real columns")]
    let col = table.column(filter_col).expect("missing filter column");
    build_mcv_for_column(table, col, join_columns, config, pool)
}

/// Build MCV statistics for an arbitrary column aligned with `table`'s rows
/// (used for PK–FK-propagated dimension columns, §4.2).
///
/// Thin wrapper over the partition-stage accumulator: scans the column
/// into a [`crate::partial::FilterUnitPartial`] and finalizes it, so the
/// one-shot and partitioned builds share a single code path.
pub fn build_mcv_for_column(
    table: &Table,
    col: &Column,
    join_columns: &[JoinCol],
    config: &SafeBoundConfig,
    pool: &mut CdsPool,
) -> McvStats {
    let unit =
        crate::partial::FilterUnitPartial::scan_column(table, col, join_columns, 0..col.len());
    crate::partial::finalize_mcv(&unit, join_columns, config, pool)
}

/// One level of the histogram hierarchy: bucket `i` covers values in
/// `[bounds[i], bounds[i+1])`, last bucket inclusive on both ends.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramLevel {
    /// `num_buckets + 1` boundary values, ascending.
    pub bounds: Vec<Value>,
    /// Bucket → group id into [`HistogramStats::groups`].
    pub bucket_groups: Vec<usize>,
}

impl HistogramLevel {
    /// The bucket index covering `[lo, hi]` entirely, if a single one does:
    /// the bucket containing `lo` (found by `partition_point` over the
    /// inner bounds, so at most `nb - 1`) when it also contains `hi`.
    /// Inverted ranges (`hi < lo`) cover nothing and return `None`.
    fn covering_bucket(&self, lo: &Value, hi: &Value) -> Option<usize> {
        if self.bounds.len() < 2 || hi < lo {
            return None;
        }
        let nb = self.bucket_groups.len();
        let idx = self.bounds[1..nb].partition_point(|b| b <= lo);
        let upper = &self.bounds[idx + 1];
        let covered = if idx + 1 == nb {
            hi <= upper
        } else {
            hi < upper
        };
        (covered && lo >= &self.bounds[idx]).then_some(idx)
    }
}

/// Range-predicate statistics: a hierarchy of equi-depth histograms (§3.2)
/// whose buckets store group-compressed CDS sets, resident in the
/// snapshot's [`CdsPool`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStats {
    /// Levels ordered finest (2^k buckets) → coarsest (2 buckets).
    pub levels: Vec<HistogramLevel>,
    /// Group CDS sets shared by all levels.
    pub groups: Vec<SetRange>,
}

impl HistogramStats {
    /// The group id (into [`groups`](Self::groups)) of the smallest bucket
    /// fully covering `[lo, hi]`: one walk down the levels, finest first.
    /// `None` when even the 2-bucket level cannot cover it (caller falls
    /// back to the unconditioned CDS). Inverted ranges (`hi < lo`, i.e. an
    /// empty selection) return `None`; callers that can prove emptiness
    /// should use a zero set instead ([`McvStats::zero_set_into`]).
    pub fn lookup_range_group(&self, lo: &Value, hi: &Value) -> Option<usize> {
        for level in &self.levels {
            if let Some(b) = level.covering_bucket(lo, hi) {
                return Some(level.bucket_groups[b]);
            }
        }
        None
    }

    /// Global minimum boundary value.
    pub fn min_value(&self) -> Option<&Value> {
        self.levels.last().and_then(|l| l.bounds.first())
    }

    /// Global maximum boundary value.
    pub fn max_value(&self) -> Option<&Value> {
        self.levels.last().and_then(|l| l.bounds.last())
    }

    /// Approximate heap size in bytes.
    pub fn byte_size(&self, pool: &CdsPool) -> usize {
        let b: usize = self
            .levels
            .iter()
            .map(|l| l.bounds.len() * 24 + l.bucket_groups.len() * 8)
            .sum();
        b + sets_byte_size(pool, &self.groups)
    }

    /// Number of stored CDS sets.
    pub fn num_sets(&self) -> usize {
        self.groups.len()
    }
}

/// Build the histogram hierarchy for the named filter column, its sets
/// appended to `pool`.
pub fn build_histogram(
    table: &Table,
    filter_col: &str,
    join_columns: &[JoinCol],
    config: &SafeBoundConfig,
    pool: &mut CdsPool,
) -> Option<HistogramStats> {
    #[expect(clippy::expect_used, reason = "offline build names only real columns")]
    let col = table.column(filter_col).expect("missing filter column");
    build_histogram_for_column(table, col, join_columns, config, pool)
}

/// Build the histogram hierarchy for an arbitrary column aligned with
/// `table`'s rows.
///
/// Thin wrapper over the partition-stage accumulator (see
/// [`build_mcv_for_column`]): the value groups of the partial, in
/// ascending value order, stand in for the sorted row list.
pub fn build_histogram_for_column(
    table: &Table,
    col: &Column,
    join_columns: &[JoinCol],
    config: &SafeBoundConfig,
    pool: &mut CdsPool,
) -> Option<HistogramStats> {
    let unit =
        crate::partial::FilterUnitPartial::scan_column(table, col, join_columns, 0..col.len());
    crate::partial::finalize_histogram(&unit, join_columns, config, pool)
}

/// LIKE-predicate statistics: MCV machinery keyed by n-grams (§3.2), its
/// sets resident in the snapshot's [`CdsPool`].
#[derive(Debug, Clone, PartialEq)]
pub struct NgramStats {
    /// N-gram length.
    pub n: usize,
    /// Group CDS sets.
    pub groups: Vec<SetRange>,
    /// Gram → group(s).
    pub index: McvIndex,
    /// Dominates the conditioned CDS of any non-MCV gram.
    pub default_set: SetRange,
}

impl NgramStats {
    /// The conditioned CDS set for `column LIKE pattern`: min over the
    /// pattern's grams (each gram's rows ⊇ matching rows); `None` when the
    /// pattern yields no full gram.
    pub fn lookup_like(&self, pool: &CdsPool, pattern: &str) -> Option<CdsSet> {
        let mut scratch = CdsScratch::default();
        let mut out = CdsSet::default();
        self.lookup_like_into(pool, pattern, &mut scratch, &mut out)
            .then_some(out)
    }

    /// [`NgramStats::lookup_like`] writing into `out` through the pool.
    /// Returns `false` when the pattern yields no full gram (out is then
    /// garbage). Gram extraction is backed by the scratch's reused
    /// `Value::Str` slots, so the whole resolution — extraction included —
    /// is allocation-free once the session's buffers are warm.
    pub fn lookup_like_into(
        &self,
        pool: &CdsPool,
        pattern: &str,
        scratch: &mut CdsScratch,
        out: &mut CdsSet,
    ) -> bool {
        // Take the staging buffers out of the scratch so the gram slots
        // can be borrowed across the `indexed_max_into` calls below (which
        // need the scratch mutably for the set algebra).
        let mut grams = std::mem::take(&mut scratch.gram_slots);
        let mut chars = std::mem::take(&mut scratch.tmp_chars);
        let count = stage_pattern_ngrams(&mut grams, &mut chars, pattern, self.n);
        scratch.tmp_chars = chars;
        if count == 0 {
            scratch.gram_slots = grams;
            return false;
        }
        // Resolve each distinct gram into a staged set, then min-fold all
        // of them per join column in one fused k-way pass. The fold calls
        // `pointwise_min_into` on each column's polylines in exactly the
        // order the old pairwise `accumulate` chain did (columns missing
        // from a set impose no constraint, matching the chain's
        // copy-through), so the result is bit-identical — it just skips
        // the k−1 intermediate rebuilds of every untouched column.
        let mut staged = std::mem::take(&mut scratch.staged_like);
        for i in 0..count {
            if i > 0 && grams[i] == grams[i - 1] {
                continue; // staged prefix is sorted: duplicates are adjacent
            }
            let mut s = scratch.take_set();
            indexed_max_into(
                &self.index,
                &self.groups,
                self.default_set,
                pool,
                &grams[i],
                scratch,
                &mut s,
            );
            staged.push(s);
        }
        fused_min_into(&staged, scratch, out);
        for s in staged.drain(..) {
            scratch.put_set(s);
        }
        scratch.staged_like = staged;
        scratch.gram_slots = grams;
        true
    }

    /// Approximate heap size in bytes.
    pub fn byte_size(&self, pool: &CdsPool) -> usize {
        sets_byte_size(pool, &self.groups)
            + self.index.byte_size()
            + pool.set(self.default_set).byte_size()
    }

    /// Number of stored CDS sets.
    pub fn num_sets(&self) -> usize {
        self.groups.len() + 1
    }

    /// Every stored set, in file order (groups, then the default).
    pub(crate) fn for_each_set_mut(&mut self, f: &mut impl FnMut(&mut SetRange)) {
        self.groups.iter_mut().for_each(&mut *f);
        f(&mut self.default_set);
    }
}

/// Stage every full-length literal n-gram of a LIKE pattern into reused
/// `Value::Str` slots: on return the first `count` slots hold the grams,
/// sorted (duplicates left adjacent for callers to skip). Slot strings and
/// the char buffer retain their capacity, so a warm call allocates nothing.
fn stage_pattern_ngrams(
    slots: &mut Vec<Value>,
    chars: &mut Vec<char>,
    pattern: &str,
    n: usize,
) -> usize {
    let mut count = 0usize;
    for chunk in pattern.split(['%', '_']) {
        chars.clear();
        chars.extend(chunk.chars());
        if chars.len() < n {
            continue;
        }
        for w in chars.windows(n) {
            if count == slots.len() {
                slots.push(Value::Str(String::new()));
            }
            let Value::Str(s) = &mut slots[count] else {
                unreachable!("gram slots hold strings only")
            };
            s.clear();
            s.extend(w.iter().copied());
            count += 1;
        }
    }
    slots[..count].sort_unstable();
    count
}

/// All full-length literal n-grams of a LIKE pattern (literal runs between
/// `%`/`_` wildcards).
pub fn pattern_ngrams(pattern: &str, n: usize) -> Vec<String> {
    let mut grams = Vec::new();
    for chunk in pattern.split(['%', '_']) {
        let chars: Vec<char> = chunk.chars().collect();
        if chars.len() >= n {
            for w in chars.windows(n) {
                grams.push(w.iter().collect::<String>());
            }
        }
    }
    grams.sort();
    grams.dedup();
    grams
}

/// All n-grams of a string.
pub(crate) fn string_ngrams(s: &str, n: usize) -> Vec<String> {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < n {
        return Vec::new();
    }
    let mut grams: Vec<String> = chars.windows(n).map(|w| w.iter().collect()).collect();
    grams.sort();
    grams.dedup();
    grams
}

/// Build n-gram statistics for the named string filter column.
pub fn build_ngrams(
    table: &Table,
    filter_col: &str,
    join_columns: &[JoinCol],
    config: &SafeBoundConfig,
    pool: &mut CdsPool,
) -> Option<NgramStats> {
    #[expect(clippy::expect_used, reason = "offline build names only real columns")]
    let col = table.column(filter_col).expect("missing filter column");
    build_ngrams_for_column(table, col, join_columns, config, pool)
}

/// Build n-gram statistics for an arbitrary string column aligned with
/// `table`'s rows.
///
/// Thin wrapper over the partition-stage accumulator (see
/// [`build_mcv_for_column`]); `None` for non-string columns and columns
/// yielding no full gram.
pub fn build_ngrams_for_column(
    table: &Table,
    col: &Column,
    join_columns: &[JoinCol],
    config: &SafeBoundConfig,
    pool: &mut CdsPool,
) -> Option<NgramStats> {
    let unit =
        crate::partial::FilterUnitPartial::scan_column(table, col, join_columns, 0..col.len());
    crate::partial::finalize_ngrams(&unit, join_columns, config, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safebound_storage::{DataType, Field, Schema};

    /// The single join column of the test fact table, interned as id 0.
    const FK: Sym = Sym(0);

    /// A fact table: join column `fk` (Zipf-ish), numeric filter `year`,
    /// string filter `note`.
    fn fact_table() -> Table {
        let mut fks = Vec::new();
        let mut years = Vec::new();
        let mut notes = Vec::new();
        // fk value v appears (40 / v) times for v in 1..=8; year correlates
        // with fk; notes share substrings.
        for v in 1i64..=8 {
            let reps = 40 / v;
            for r in 0..reps {
                fks.push(Some(v));
                years.push(Some(1990 + v));
                notes.push(if r % 2 == 0 {
                    "action movie"
                } else {
                    "drama film"
                });
            }
        }
        let schema = Schema::new(vec![
            Field::new("fk", DataType::Int),
            Field::new("year", DataType::Int),
            Field::new("note", DataType::Str),
        ]);
        Table::new(
            "fact",
            schema,
            vec![
                Column::from_ints(fks),
                Column::from_ints(years),
                Column::from_strs(notes.into_iter().map(Some)),
            ],
        )
    }

    fn jc() -> Vec<JoinCol> {
        vec![(FK, "fk".to_string())]
    }

    fn exact_conditioned_cds(table: &Table, pred: impl Fn(usize) -> bool) -> PiecewiseLinear {
        let col = table.column("fk").unwrap();
        let rows: Vec<usize> = (0..table.num_rows()).filter(|&i| pred(i)).collect();
        DegreeSequence::of_column_rows(col, &rows).to_cds()
    }

    #[test]
    fn mcv_eq_lookup_dominates_exact() {
        let t = fact_table();
        let mut pool = CdsPool::default();
        let cfg = SafeBoundConfig::test_small();
        let mcv = build_mcv(&t, "year", &jc(), &cfg, &mut pool);
        let year_col = t.column("year").unwrap();
        for y in 1991i64..=1998 {
            let set = mcv.lookup_eq(&pool, &Value::Int(y));
            let exact = exact_conditioned_cds(&t, |i| year_col.get(i) == Value::Int(y));
            assert!(
                set.get(FK).unwrap().dominates(&exact),
                "year {y}: MCV CDS must dominate exact conditioned CDS"
            );
        }
    }

    #[test]
    fn mcv_default_dominates_rare_values() {
        let t = fact_table();
        let mut pool = CdsPool::default();
        let mut cfg = SafeBoundConfig::test_small();
        cfg.mcv_size = 3; // only 3 most common years are MCV
        let mcv = build_mcv(&t, "year", &jc(), &cfg, &mut pool);
        let year_col = t.column("year").unwrap();
        // Non-MCV years fall back to the default set, which must dominate.
        for y in 1995i64..=1998 {
            let set = mcv.lookup_eq(&pool, &Value::Int(y));
            let exact = exact_conditioned_cds(&t, |i| year_col.get(i) == Value::Int(y));
            assert!(set.get(FK).unwrap().dominates(&exact), "year {y}");
        }
        // An unseen value also gets the default.
        let unseen = mcv.lookup_eq(&pool, &Value::Int(2050));
        assert!(unseen.cardinality() >= 0.0);
    }

    #[test]
    fn mcv_bloom_index_is_sound() {
        let t = fact_table();
        let mut pool = CdsPool::default();
        let mut cfg = SafeBoundConfig::test_small();
        cfg.use_bloom_filters = true;
        let mcv = build_mcv(&t, "year", &jc(), &cfg, &mut pool);
        let year_col = t.column("year").unwrap();
        for y in 1991i64..=1998 {
            let set = mcv.lookup_eq(&pool, &Value::Int(y));
            let exact = exact_conditioned_cds(&t, |i| year_col.get(i) == Value::Int(y));
            assert!(set.get(FK).unwrap().dominates(&exact), "bloom year {y}");
        }
    }

    #[test]
    fn group_compression_keeps_domination() {
        let t = fact_table();
        let mut pool = CdsPool::default();
        let mut cfg = SafeBoundConfig::test_small();
        cfg.cds_groups = Some(2); // aggressive grouping
        let mcv = build_mcv(&t, "year", &jc(), &cfg, &mut pool);
        assert!(mcv.groups.len() <= 2);
        let year_col = t.column("year").unwrap();
        for y in 1991i64..=1998 {
            let set = mcv.lookup_eq(&pool, &Value::Int(y));
            let exact = exact_conditioned_cds(&t, |i| year_col.get(i) == Value::Int(y));
            assert!(set.get(FK).unwrap().dominates(&exact), "grouped year {y}");
        }
    }

    #[test]
    fn histogram_range_lookup_dominates() {
        let t = fact_table();
        let mut pool = CdsPool::default();
        let cfg = SafeBoundConfig::test_small();
        let hist = build_histogram(&t, "year", &jc(), &cfg, &mut pool).unwrap();
        let year_col = t.column("year").unwrap();
        for (lo, hi) in [(1991, 1992), (1993, 1996), (1991, 1998), (1997, 1998)] {
            let exact = exact_conditioned_cds(
                &t,
                |i| matches!(year_col.get(i), Value::Int(y) if y >= lo && y <= hi),
            );
            // A `None` lookup falls back to base, which trivially dominates.
            if let Some(g) = hist.lookup_range_group(&Value::Int(lo), &Value::Int(hi)) {
                let set = pool.set(hist.groups[g]).to_set();
                assert!(
                    set.get(FK).unwrap().dominates(&exact),
                    "range [{lo},{hi}] must dominate"
                );
            }
        }
    }

    #[test]
    fn histogram_narrow_range_is_tighter_than_base() {
        let t = fact_table();
        let mut pool = CdsPool::default();
        let cfg = SafeBoundConfig::test_small();
        let hist = build_histogram(&t, "year", &jc(), &cfg, &mut pool).unwrap();
        let base = cds_set_for_rows(&t, &jc(), None, cfg.compression_c);
        // A narrow range near the tail should produce a much smaller bound.
        if let Some(g) = hist.lookup_range_group(&Value::Int(1997), &Value::Int(1998)) {
            let set = pool.set(hist.groups[g]).to_set();
            assert!(set.cardinality() < base.cardinality() / 2.0);
        }
    }

    #[test]
    fn histogram_levels_are_nested_and_ordered() {
        let t = fact_table();
        let mut pool = CdsPool::default();
        let cfg = SafeBoundConfig::test_small();
        let hist = build_histogram(&t, "year", &jc(), &cfg, &mut pool).unwrap();
        // Finest first, strictly fewer buckets going coarser.
        let counts: Vec<usize> = hist.levels.iter().map(|l| l.bucket_groups.len()).collect();
        for w in counts.windows(2) {
            assert!(w[0] >= w[1], "levels must go finest→coarsest: {counts:?}");
        }
        assert!(*counts.last().unwrap() >= 2);
    }

    #[test]
    fn ngram_like_lookup_dominates() {
        let t = fact_table();
        let mut pool = CdsPool::default();
        let cfg = SafeBoundConfig::test_small();
        let ng = build_ngrams(&t, "note", &jc(), &cfg, &mut pool).unwrap();
        let note_col = t.column("note").unwrap();
        for pattern in ["%action%", "%movie%", "%drama%", "%ion mo%"] {
            let set = ng.lookup_like(&pool, pattern).unwrap();
            let exact = exact_conditioned_cds(
                &t,
                |i| matches!(note_col.get(i), Value::Str(s) if like_match(&s, pattern)),
            );
            assert!(
                set.get(FK).unwrap().dominates(&exact),
                "pattern {pattern} must dominate"
            );
        }
    }

    #[test]
    fn ngram_unseen_gram_uses_default() {
        let t = fact_table();
        let mut pool = CdsPool::default();
        let mut cfg = SafeBoundConfig::test_small();
        cfg.ngram_mcv_size = 2;
        let ng = build_ngrams(&t, "note", &jc(), &cfg, &mut pool).unwrap();
        // A gram not in the tiny MCV must still yield a dominating set.
        let set = ng.lookup_like(&pool, "%drama%").unwrap();
        let note_col = t.column("note").unwrap();
        let exact = exact_conditioned_cds(
            &t,
            |i| matches!(note_col.get(i), Value::Str(s) if s.contains("drama")),
        );
        assert!(set.get(FK).unwrap().dominates(&exact));
    }

    #[test]
    fn pattern_ngram_extraction() {
        assert_eq!(pattern_ngrams("%Abdul%", 3), vec!["Abd", "bdu", "dul"]);
        assert_eq!(pattern_ngrams("%ab%cd%", 3), Vec::<String>::new());
        assert_eq!(pattern_ngrams("a_cdef", 3), vec!["cde", "def"]);
        assert!(pattern_ngrams("%%", 3).is_empty());
    }

    #[test]
    fn cds_set_algebra() {
        let t = fact_table();
        let base = cds_set_for_rows(&t, &jc(), None, 0.01);
        let half: Vec<usize> = (0..t.num_rows()).filter(|i| i % 2 == 0).collect();
        let sub = cds_set_for_rows(&t, &jc(), Some(&half), 0.01);
        let mn = base.pointwise_min(&sub);
        assert!(mn.cardinality() <= sub.cardinality() + 1e-9);
        let mx = base.pointwise_max(&sub);
        assert!(mx.get(FK).unwrap().dominates(base.get(FK).unwrap()));
        let sm = sub.pointwise_sum(&sub);
        assert!((sm.cardinality() - 2.0 * sub.cardinality()).abs() < 1e-6);
    }

    use safebound_query::ast::like_match;
}
