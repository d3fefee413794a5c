//! Bloom filters for MCV membership (§4.3).
//!
//! SafeBound stores each MCV list as a set of Bloom filters — one per CDS
//! group — at ≈12 bits per value. A filter answers "might value `x` be in
//! this group?" with no false negatives, so taking the max over all
//! positive groups preserves the upper-bound guarantee; false positives can
//! only loosen the bound.

/// A classic Bloom filter with double hashing (`h_i = h1 + i·h2`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
}

/// Double-hashing seeds for [`BloomFilter::hash_key`].
const SEED_H1: u64 = 0x5bd1e995;
const SEED_H2: u64 = 0x27d4eb2f;

impl BloomFilter {
    /// The `(h1, h2)` double-hashing pair for a key, computed in one pass
    /// over the bytes ([`crate::simd::hash::fnv1a_pair`]). The pair is a
    /// property of the key alone — hash once, then probe any number of
    /// filters with [`contains_hashed`](Self::contains_hashed).
    pub fn hash_key(key: &[u8]) -> (u64, u64) {
        let (h1, h2) = crate::simd::hash::fnv1a_pair(key, SEED_H1, SEED_H2);
        (h1, h2 | 1)
    }

    /// Create a filter sized for `expected` insertions at `bits_per_key`
    /// bits each (the paper uses ≈12, giving ≈0.3% false positives).
    pub fn new(expected: usize, bits_per_key: usize) -> Self {
        let num_bits = (expected.max(1) * bits_per_key.max(1)).max(64) as u64;
        // Optimal k ≈ bits_per_key · ln 2.
        let num_hashes = ((bits_per_key as f64 * 0.693).round() as u32).clamp(1, 16);
        BloomFilter {
            bits: vec![0; num_bits.div_ceil(64) as usize],
            num_bits,
            num_hashes,
        }
    }

    /// Insert a key (as bytes).
    pub fn insert(&mut self, key: &[u8]) {
        let (h1, h2) = Self::hash_key(key);
        for i in 0..self.num_hashes {
            let bit = h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.num_bits;
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// Membership test: `false` means definitely absent.
    pub fn contains(&self, key: &[u8]) -> bool {
        let (h1, h2) = Self::hash_key(key);
        self.contains_hashed(h1, h2)
    }

    /// [`contains`](Self::contains) with a precomputed
    /// [`hash_key`](Self::hash_key) pair — the hot path when one key is
    /// probed against many per-group filters.
    pub fn contains_hashed(&self, h1: u64, h2: u64) -> bool {
        (0..self.num_hashes).all(|i| {
            let bit = h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.num_bits;
            self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Size of the bit array in bytes (for the memory-footprint study).
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8 + 16
    }

    /// The filter's geometry and bit words, for the snapshot-file writer:
    /// `(bit words, number of bits, number of hash probes)`.
    pub(crate) fn parts(&self) -> (&[u64], u64, u32) {
        (&self.bits, self.num_bits, self.num_hashes)
    }

    /// Rebuild a filter from saved [`BloomFilter::parts`]. Returns `None`
    /// on inconsistent geometry — `num_bits` of zero would divide by zero
    /// in the probe loop, zero hashes would answer "present" for every
    /// key, and a word count that disagrees with `num_bits` would index
    /// out of bounds — so the snapshot load path can never construct a
    /// filter that panics or loses the no-false-negative property.
    pub(crate) fn from_parts(bits: Vec<u64>, num_bits: u64, num_hashes: u32) -> Option<Self> {
        if num_bits == 0 || num_hashes == 0 || bits.len() as u64 != num_bits.div_ceil(64) {
            return None;
        }
        Some(BloomFilter {
            bits,
            num_bits,
            num_hashes,
        })
    }

    /// Bitwise union with a filter of identical geometry (same size and
    /// hash count): afterwards `self` contains every key inserted into
    /// either filter, with no false negatives — the Bloom analogue of the
    /// partial-statistics merge. Returns `false` (leaving `self`
    /// unchanged) when the geometries differ, since OR-ing differently
    /// sized bit arrays would not commute with insertion.
    #[must_use = "a false return means the union was not performed"]
    pub fn union(&mut self, other: &BloomFilter) -> bool {
        if self.num_bits != other.num_bits || self.num_hashes != other.num_hashes {
            return false;
        }
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1000, 12);
        for i in 0..1000u64 {
            f.insert(&i.to_le_bytes());
        }
        for i in 0..1000u64 {
            assert!(f.contains(&i.to_le_bytes()), "lost key {i}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::new(1000, 12);
        for i in 0..1000u64 {
            f.insert(&i.to_le_bytes());
        }
        let fps = (1000..101_000u64)
            .filter(|i| f.contains(&i.to_le_bytes()))
            .count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.02, "false positive rate {rate}");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::new(100, 12);
        assert!(!f.contains(b"anything"));
    }

    #[test]
    fn string_keys() {
        let mut f = BloomFilter::new(10, 12);
        f.insert(b"character-name-in-title");
        assert!(f.contains(b"character-name-in-title"));
        assert!(!f.contains(b"pg-13"));
    }

    #[test]
    fn hashed_probe_matches_direct_probe() {
        let mut f = BloomFilter::new(1000, 12);
        for i in 0..1000u64 {
            f.insert(&i.to_le_bytes());
        }
        for i in 0..5000u64 {
            let key = i.to_le_bytes();
            let (h1, h2) = BloomFilter::hash_key(&key);
            assert_eq!(f.contains(&key), f.contains_hashed(h1, h2), "key {i}");
        }
    }

    #[test]
    fn byte_size_scales() {
        assert!(BloomFilter::new(10_000, 12).byte_size() > BloomFilter::new(100, 12).byte_size());
    }

    #[test]
    fn union_merges_keys_and_rejects_mismatched_geometry() {
        let mut a = BloomFilter::new(100, 12);
        let mut b = BloomFilter::new(100, 12);
        a.insert(b"left");
        b.insert(b"right");
        assert!(a.union(&b));
        assert!(a.contains(b"left") && a.contains(b"right"));
        // Union equals building one filter from all keys: same geometry,
        // same deterministic hashing, so bit-for-bit identical.
        let mut both = BloomFilter::new(100, 12);
        both.insert(b"left");
        both.insert(b"right");
        assert_eq!(a, both);
        let other_geometry = BloomFilter::new(5000, 12);
        assert!(!a.union(&other_geometry));
        assert_eq!(a, both, "failed union must leave the filter unchanged");
    }
}
