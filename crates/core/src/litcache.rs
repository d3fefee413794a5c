//! The per-session **literal cache**: memoized results of the
//! literal-dependent half of the online path.
//!
//! The shape cache ([`crate::estimator::BoundSession`]) already memoizes
//! everything literal-*independent* (plans, slots, join-column symbols).
//! What remains per query — predicate resolution and statistics assembly —
//! depends only on the query's **literal vector**, so repeated literals can
//! skip it entirely. This module provides the storage for two memo levels,
//! both keyed by **content** ([`ContentKey`]): the bytes naming everything
//! the value depends on besides literals, then the literal bytes.
//!
//! * **bound entries**, keyed by the query's shape key
//!   ([`safebound_query::Query::shape_key_into`]) and its *whole* literal
//!   vector: the final `f64` bound. An exact repeat of a served request
//!   returns it without touching resolution, assembly, or the kernel —
//!   also after the shape cache evicted the shape and claimed a slot for
//!   it again, and without that slot's plans ever being built.
//! * **conditioned entries**, keyed by a relation's signature (its table,
//!   its own predicate's shape and every predicate PK–FK-propagated into
//!   it; built once per shape build) and the sub-vector of literals that
//!   relation's resolution actually reads: the fully resolved conditioned
//!   [`CdsSet`] and cardinality bound. A query repeating one relation's
//!   literals while varying another's still skips that relation's
//!   MCV/histogram/n-gram resolution, and so does every *other* shape that
//!   reaches the same relation the same way — the sub-queries an optimizer
//!   asks about while planning one query share their relations'
//!   resolutions.
//!
//! Fingerprints mix the FNV-1a of the two halves; every hit is
//! **verified** against a stored copy of both halves' bytes before
//! anything is served, so hash collisions cost a miss, never a wrong
//! bound. Both first halves are self-delimiting (neither a shape key nor a
//! signature is a proper prefix of another), so the concatenation the
//! entry stores is as injective as the pair. Storage, verification and
//! eviction are [`ClockCache`]'s — the one structure the resolve memos
//! instantiate too — so late-arriving hot literal vectors always enter.
//! The whole cache is session-owned: entry sets copy through the session's
//! [`CdsScratch`] pools and a recycled entry is overwritten in place, its
//! byte and set buffers retained, so a warm session stays allocation-free
//! even at capacity with the clock churning (asserted by the `zero_alloc`
//! integration test). The cache is flushed whenever the session attaches
//! to a different statistics build.

use crate::clock_cache::ClockCache;
use crate::conditioning::{CdsScratch, CdsSet};
use crate::pool::CdsView;
use safebound_query::LiteralRef;
use safebound_storage::Value;

/// Which memo level an entry belongs to — the owner half of its
/// [`ClockCache`] key, so a shape key and a relation signature that
/// happened to agree byte for byte still could not serve each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Bound,
    Cond,
}

/// Everything a literal-cache value depends on, as two byte strings and
/// their FNV-1a hashes: `scope` is a shape key (bound entries) or a
/// relation signature (conditioned entries) — self-delimiting, staged or
/// built and hashed before the probe — and `lits` the encoded literal
/// (sub-)vector read under it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ContentKey<'a> {
    pub scope: &'a [u8],
    pub scope_fp: u64,
    pub lits: &'a [u8],
    pub lits_fp: u64,
}

impl ContentKey<'_> {
    /// The cache fingerprint: both halves' hashes, mixed in order.
    fn fp(&self) -> u64 {
        use crate::simd::hash::FNV_PRIME;
        (self.scope_fp.wrapping_mul(FNV_PRIME) ^ self.lits_fp).wrapping_mul(FNV_PRIME)
    }

    /// Whether `stored` is exactly `scope ++ lits`.
    fn matches(&self, stored: &[u8]) -> bool {
        stored.len() == self.scope.len() + self.lits.len()
            && stored.starts_with(self.scope)
            && stored.ends_with(self.lits)
    }

    fn store_into(&self, bytes: &mut Vec<u8>) {
        bytes.clear();
        bytes.reserve_exact(self.scope.len() + self.lits.len());
        bytes.extend_from_slice(self.scope);
        bytes.extend_from_slice(self.lits);
    }
}

/// Append one literal's stable encoding: a type tag, then a fixed-width or
/// length-prefixed payload, so a concatenated stream parses unambiguously
/// (verification is a byte compare). Integral floats encode like the
/// corresponding integer, consistent with `Value::eq`.
pub(crate) fn encode_literal(lit: LiteralRef<'_>, out: &mut Vec<u8>) {
    match lit {
        LiteralRef::Value(v) => match (v.normalized_int(), v) {
            (Some(i), _) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            (None, Value::Null) => out.push(0),
            (None, Value::Float(f)) => {
                out.push(2);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            (None, Value::Str(s)) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            (None, Value::Int(_)) => unreachable!("integers always normalize"),
        },
        LiteralRef::Text(s) => {
            out.push(4);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        LiteralRef::Arity(n) => {
            out.push(5);
            out.extend_from_slice(&(n as u32).to_le_bytes());
        }
    }
}

/// One memoized literal vector: the verification bytes plus whichever
/// payload the entry kind carries (`bound` for whole-query entries, the
/// conditioned set/card for per-relation entries).
#[derive(Debug, Default)]
struct LitEntry {
    /// The [`ContentKey`] this entry answers, `scope ++ lits` (collision
    /// verification). Capacity is retained when the clock recycles the
    /// slot.
    bytes: Vec<u8>,
    /// Conditioned set (cond entries; polylines pooled on eviction).
    set: CdsSet,
    /// Whether any predicate resolved (cond entries).
    has_cond: bool,
    /// Filtered-cardinality bound (cond entries).
    card: f64,
    /// The final bound (bound entries).
    bound: f64,
}

/// The literal cache (see the module docs): one [`ClockCache`] holding
/// bound and conditioned entries alike, owner-keyed by their [`Kind`],
/// plus the per-kind hit/miss tallies. One per
/// [`crate::estimator::BoundSession`].
#[derive(Debug)]
pub(crate) struct LitCache {
    cache: ClockCache<Kind, LitEntry>,
    pub bound_hits: u64,
    pub bound_misses: u64,
    pub cond_hits: u64,
    pub cond_misses: u64,
}

impl LitCache {
    /// A cache of at most `capacity` entries, bound + cond combined.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        LitCache {
            cache: ClockCache::with_capacity(capacity),
            bound_hits: 0,
            bound_misses: 0,
            cond_hits: 0,
            cond_misses: 0,
        }
    }

    /// Whether caching is on at all (capacity 0 disables it).
    pub(crate) fn enabled(&self) -> bool {
        self.cache.enabled()
    }

    /// Entries recycled by the clock since creation.
    pub(crate) fn evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// The memoized bound for an exact whole-query repeat: `key` is the
    /// query's shape key and whole literal vector.
    pub(crate) fn lookup_bound(&mut self, key: ContentKey<'_>) -> Option<f64> {
        let hit = self
            .cache
            .get(Kind::Bound, key.fp(), |e| key.matches(&e.bytes));
        match hit {
            Some(_) => self.bound_hits += 1,
            None => self.bound_misses += 1,
        }
        hit.map(|e| e.bound)
    }

    /// The memoized conditioned resolution under a relation's signature
    /// and literal sub-vector: `(set, has_cond, card)`. The set borrow
    /// points into the cache; callers copy it out through their scratch.
    pub(crate) fn lookup_cond(&mut self, key: ContentKey<'_>) -> Option<(&CdsSet, bool, f64)> {
        let hit = self
            .cache
            .get(Kind::Cond, key.fp(), |e| key.matches(&e.bytes));
        match hit {
            Some(_) => self.cond_hits += 1,
            None => self.cond_misses += 1,
        }
        hit.map(|e| (&e.set, e.has_cond, e.card))
    }

    /// Memoize a computed whole-query bound (miss path only).
    pub(crate) fn insert_bound(
        &mut self,
        key: ContentKey<'_>,
        bound: f64,
        scratch: &mut CdsScratch,
    ) {
        if let Some(e) = self.cache.claim(Kind::Bound, key.fp()) {
            key.store_into(&mut e.bytes);
            // A recycled cond entry's set goes back to the pools.
            scratch.clear_set(&mut e.set);
            e.bound = bound;
        }
    }

    /// Memoize one relation's resolved conditioning (miss path only). The
    /// set is copied in through the scratch pools, over whatever the
    /// recycled slot held.
    pub(crate) fn insert_cond(
        &mut self,
        key: ContentKey<'_>,
        set: CdsView<'_>,
        has_cond: bool,
        card: f64,
        scratch: &mut CdsScratch,
    ) {
        if let Some(e) = self.cache.claim(Kind::Cond, key.fp()) {
            key.store_into(&mut e.bytes);
            if has_cond {
                scratch.copy_set(set, &mut e.set);
            } else {
                scratch.clear_set(&mut e.set);
            }
            e.has_cond = has_cond;
            e.card = card;
        }
    }

    /// Drop every entry (statistics build change: cached sets and bounds
    /// are meaningless under any other build).
    pub(crate) fn clear(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::hash::fnv1a;

    /// A key with caller-chosen fingerprints, so tests can force collisions.
    fn key<'a>(scope: &'a [u8], scope_fp: u64, lits: &'a [u8], lits_fp: u64) -> ContentKey<'a> {
        ContentKey {
            scope,
            scope_fp,
            lits,
            lits_fp,
        }
    }

    #[test]
    fn bound_roundtrip_and_collision_verification() {
        let mut c = LitCache::with_capacity(4);
        let mut s = CdsScratch::default();
        let k = key(b"shape", 7, &[1, 1, 1], 1);
        assert!(c.lookup_bound(k).is_none());
        c.insert_bound(k, 42.0, &mut s);
        assert_eq!(c.lookup_bound(k), Some(42.0));
        // Same fingerprints, different bytes in either half: a collision
        // must miss.
        assert_eq!(c.lookup_bound(key(b"shape", 7, &[2, 2, 2], 1)), None);
        assert_eq!(c.lookup_bound(key(b"shapf", 7, &[1, 1, 1], 1)), None);
        assert_eq!((c.bound_hits, c.bound_misses), (1, 3));
    }

    #[test]
    fn cond_entries_coexist_with_bound_entries() {
        let mut c = LitCache::with_capacity(8);
        let mut s = CdsScratch::default();
        let set = CdsSet::default();
        // One key for both kinds: the kind is part of the cache key.
        let k = key(b"same", 0, &[5, 5, 5], 5);
        c.insert_cond(k, set.view(), false, 12.0, &mut s);
        c.insert_bound(k, 99.0, &mut s);
        let (_, has_cond, card) = c.lookup_cond(k).unwrap();
        assert!(!has_cond);
        assert_eq!(card, 12.0);
        assert_eq!(c.lookup_bound(k), Some(99.0));
        // Disabled cache never stores.
        let mut off = LitCache::with_capacity(0);
        off.insert_bound(k, 1.0, &mut s);
        assert!(!off.enabled());
        assert_eq!(off.lookup_bound(k), None);
    }

    #[test]
    fn a_recycled_slot_is_fully_overwritten() {
        // Capacity 1: every insert recycles the one slot, across kinds.
        // Nothing of the previous entry may leak into the next.
        let mut c = LitCache::with_capacity(1);
        let mut s = CdsScratch::default();
        let mut symbols = crate::symbol::SymbolTable::new();
        let full = CdsSet::from_entries(vec![(
            symbols.intern("x"),
            crate::piecewise::PiecewiseLinear::empty(),
        )]);
        let (k1, k2, k3) = (
            key(b"sig", 0, &[1], 1),
            key(b"sig", 0, &[2], 2),
            key(b"sig", 0, &[3], 3),
        );
        c.insert_cond(k1, full.view(), true, 3.0, &mut s);
        let (set, has_cond, card) = c.lookup_cond(k1).unwrap();
        assert_eq!((set.is_empty(), has_cond, card), (false, true, 3.0));
        // An unconditioned entry over the conditioned one.
        c.insert_cond(k2, full.view(), false, 7.0, &mut s);
        let (set, has_cond, card) = c.lookup_cond(k2).unwrap();
        assert_eq!((set.is_empty(), has_cond, card), (true, false, 7.0));
        assert!(c.lookup_cond(k1).is_none());
        // A bound entry over a cond entry.
        c.insert_bound(k3, 11.0, &mut s);
        assert_eq!(c.lookup_bound(k3), Some(11.0));
        assert_eq!(c.evictions(), 2);
    }

    #[test]
    fn encoding_is_injective_across_kinds() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_literal(LiteralRef::Value(&Value::Int(3)), &mut a);
        encode_literal(LiteralRef::Value(&Value::Float(3.0)), &mut b);
        assert_eq!(a, b, "integral floats encode like ints (Value::eq)");
        b.clear();
        encode_literal(LiteralRef::Value(&Value::Float(3.5)), &mut b);
        assert_ne!(a, b);
        a.clear();
        b.clear();
        encode_literal(LiteralRef::Text("ab"), &mut a);
        encode_literal(LiteralRef::Value(&Value::Str("ab".into())), &mut b);
        assert_ne!(a, b, "LIKE pattern and string literal must not alias");
        assert_ne!(fnv1a(&a), fnv1a(&b));
        // -0.0 is unequal to 0 under Value's total order (`-0.0 < 0.0`),
        // so it must not share 0's encoding — otherwise a byte-verified
        // hit could serve `> 0`'s bound for `> -0.0`.
        a.clear();
        b.clear();
        encode_literal(LiteralRef::Value(&Value::Float(-0.0)), &mut a);
        encode_literal(LiteralRef::Value(&Value::Int(0)), &mut b);
        assert_ne!(a, b, "negative zero must not alias integer zero");
    }
}
