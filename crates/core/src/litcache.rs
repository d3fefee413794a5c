//! The per-session **literal cache**: memoized whole-query bounds.
//!
//! The shape cache ([`crate::estimator::BoundSession`]) already memoizes
//! everything literal-*independent* (plans, slots, join-column symbols).
//! What remains per query — predicate resolution, statistics assembly and
//! the kernel — depends only on the query's **literal vector**, so an
//! exact repeat can skip all of it. Each entry is keyed by **content**
//! ([`ContentKey`]): the query's shape key
//! ([`safebound_query::Query::shape_key_into`]) followed by its whole
//! encoded literal vector, and holds the final `f64` bound. An exact
//! repeat of a served request returns it without touching resolution,
//! assembly, or the kernel — also after the shape cache evicted the shape
//! and claimed a slot for it again, and without that slot's plans ever
//! being built. Fresh literals resolve through the resolve memos beneath
//! (see [`crate::estimator`]), which serve a single leaf's answer as a
//! resident set without copying it.
//!
//! The fingerprint mixes the FNV-1a of the two halves; every hit is
//! **verified** against a stored copy of both halves' bytes before
//! anything is served, so hash collisions cost a miss, never a wrong
//! bound. No shape key is a proper prefix of another, so the
//! concatenation the entry stores is as injective as the pair. Storage,
//! verification and eviction are [`ClockCache`]'s — the one structure the
//! resolve memos instantiate too — so late-arriving hot literal vectors
//! always enter. A recycled entry is overwritten in place, its byte
//! buffer retained, so a warm session stays allocation-free even at
//! capacity with the clock churning (asserted by the `zero_alloc`
//! integration test). The cache is flushed whenever the session attaches
//! to a different statistics build.

// Per-query serving path: a panic here kills a worker mid-batch.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

use crate::clock_cache::ClockCache;
use safebound_query::LiteralRef;
use safebound_storage::Value;

/// Everything a memoized bound depends on, as two byte strings and their
/// FNV-1a hashes: `scope` is the query's shape key — self-delimiting,
/// staged and hashed before the probe — and `lits` its encoded literal
/// vector.
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

/// One memoized literal vector: the verification bytes and the bound.
#[derive(Debug, Default)]
struct LitEntry {
    /// The [`ContentKey`] this entry answers, `scope ++ lits` (collision
    /// verification). Capacity is retained when the clock recycles the
    /// slot.
    bytes: Vec<u8>,
    /// The final bound.
    bound: f64,
}

/// The literal cache (see the module docs): one [`ClockCache`] of bound
/// entries plus its hit/miss tallies. One per
/// [`crate::estimator::BoundSession`].
#[derive(Debug)]
pub(crate) struct LitCache {
    cache: ClockCache<(), LitEntry>,
    pub bound_hits: u64,
    pub bound_misses: u64,
}

impl LitCache {
    /// A cache of at most `capacity` entries.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        LitCache {
            cache: ClockCache::with_capacity(capacity),
            bound_hits: 0,
            bound_misses: 0,
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
        let hit = self.cache.get((), key.fp(), |e| key.matches(&e.bytes));
        match hit {
            Some(_) => self.bound_hits += 1,
            None => self.bound_misses += 1,
        }
        hit.map(|e| e.bound)
    }

    /// Memoize a computed whole-query bound (miss path only).
    pub(crate) fn insert_bound(&mut self, key: ContentKey<'_>, bound: f64) {
        if let Some(e) = self.cache.claim((), key.fp()) {
            key.store_into(&mut e.bytes);
            e.bound = bound;
        }
    }

    /// Drop every entry (statistics build change: cached bounds are
    /// meaningless under any other build).
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
        let k = key(b"shape", 7, &[1, 1, 1], 1);
        assert!(c.lookup_bound(k).is_none());
        c.insert_bound(k, 42.0);
        assert_eq!(c.lookup_bound(k), Some(42.0));
        // Same fingerprints, different bytes in either half: a collision
        // must miss.
        assert_eq!(c.lookup_bound(key(b"shape", 7, &[2, 2, 2], 1)), None);
        assert_eq!(c.lookup_bound(key(b"shapf", 7, &[1, 1, 1], 1)), None);
        assert_eq!((c.bound_hits, c.bound_misses), (1, 3));
    }

    #[test]
    fn a_disabled_cache_never_stores() {
        let k = key(b"same", 0, &[5, 5, 5], 5);
        let mut off = LitCache::with_capacity(0);
        off.insert_bound(k, 1.0);
        assert!(!off.enabled());
        assert_eq!(off.lookup_bound(k), None);
    }

    #[test]
    fn a_recycled_slot_is_fully_overwritten() {
        // Capacity 1: every insert recycles the one slot. Nothing of the
        // previous entry may leak into the next, even when the new key is
        // a prefix of the old one's bytes.
        let mut c = LitCache::with_capacity(1);
        let (k1, k2) = (key(b"shape", 0, &[1, 2], 1), key(b"shape", 0, &[1], 2));
        c.insert_bound(k1, 3.0);
        assert_eq!(c.lookup_bound(k1), Some(3.0));
        c.insert_bound(k2, 7.0);
        assert_eq!(c.lookup_bound(k2), Some(7.0));
        assert!(c.lookup_bound(k1).is_none());
        assert_eq!(c.evictions(), 1);
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

    /// `Value`'s laws on the values where a widening comparison breaks:
    /// ±2^53 ± k, ±2^63, `i64::MIN`/`MAX`, ±0.0, subnormals, ±∞ and NaN,
    /// each as an `Int` and as a `Float` where it is one. `Ord` is
    /// antisymmetric and transitive, and `a == b` exactly when their
    /// literal encodings are equal, which then implies equal hashes.
    #[test]
    fn value_order_hash_and_encoding_agree() {
        use std::cmp::Ordering;
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut vals = vec![
            Value::Null,
            Value::Str(String::new()),
            Value::Str("a".into()),
        ];
        let two53 = 1i64 << 53;
        for base in [two53, -two53, 0, 1 << 62, -(1 << 62)] {
            for k in -3..=3 {
                vals.push(Value::Int(base + k));
                vals.push(Value::Float((base + k) as f64));
                vals.push(Value::Float((base + k) as f64 + 0.5));
            }
        }
        for f in [
            9_223_372_036_854_775_808.0,  // 2^63
            -9_223_372_036_854_775_808.0, // -2^63 = i64::MIN
            9_223_372_036_854_774_784.0,  // the float just below 2^63
            -9_223_372_036_854_777_856.0, // the float just below -2^63
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            vals.push(Value::Float(f));
        }
        for i in [i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX] {
            vals.push(Value::Int(i));
        }
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let enc = |v: &Value| {
            let mut out = Vec::new();
            encode_literal(LiteralRef::Value(v), &mut out);
            out
        };
        for a in &vals {
            for b in &vals {
                let ab = a.cmp(b);
                assert_eq!(ab, b.cmp(a).reverse(), "antisymmetry: {a:?} vs {b:?}");
                assert_eq!(ab == Ordering::Equal, enc(a) == enc(b), "{a:?} vs {b:?}");
                if ab == Ordering::Equal {
                    assert_eq!(hash(a), hash(b), "{a:?} == {b:?}");
                    assert_eq!(a.normalized_int(), b.normalized_int(), "{a:?} == {b:?}");
                }
                for c in &vals {
                    if ab != Ordering::Greater && b.cmp(c) != Ordering::Greater {
                        let ac = a.cmp(c);
                        assert_ne!(ac, Ordering::Greater, "{a:?} ≤ {b:?} ≤ {c:?}");
                        if ab == Ordering::Less || b.cmp(c) == Ordering::Less {
                            assert_eq!(ac, Ordering::Less, "{a:?} ≤ {b:?} ≤ {c:?}");
                        }
                    }
                }
            }
        }
    }
}
