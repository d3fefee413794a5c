//! Bloom filters for MCV membership (§4.3).
//!
//! SafeBound stores each MCV list as a set of Bloom filters — one per CDS
//! group — at ≈12 bits per value. A filter answers "might value `x` be in
//! this group?" with no false negatives, so taking the max over all
//! positive groups preserves the upper-bound guarantee; false positives can
//! only loosen the bound. An MCV index keeps its per-group filters in one
//! [`BloomBank`]: one word buffer for all of them, so building or loading
//! an index allocates per index, not per filter.

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

/// The geometry of a filter sized for `expected` insertions at
/// `bits_per_key` bits each: `(number of bits, number of hash probes)`.
fn geometry(expected: usize, bits_per_key: usize) -> (u64, u32) {
    let num_bits = (expected.max(1) * bits_per_key.max(1)).max(64) as u64;
    // Optimal k ≈ bits_per_key · ln 2.
    let num_hashes = ((bits_per_key as f64 * 0.693).round() as u32).clamp(1, 16);
    (num_bits, num_hashes)
}

/// `true` when `(bits, num_hashes)` can be probed without panicking or
/// losing the no-false-negative property: `num_bits` of zero would divide
/// by zero in the probe loop, zero hashes would answer "present" for
/// every key, and a word count that disagrees with `num_bits` would index
/// out of bounds.
fn valid_geometry(words: usize, num_bits: u64, num_hashes: u32) -> bool {
    num_bits != 0 && num_hashes != 0 && words as u64 == num_bits.div_ceil(64)
}

/// The `num_hashes` bit positions of the double-hashing pair `(h1, h2)`
/// in a filter of `num_bits` bits.
fn probes(h1: u64, h2: u64, num_bits: u64, num_hashes: u32) -> impl Iterator<Item = u64> {
    (0..num_hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % num_bits)
}

fn set_bits(words: &mut [u64], num_bits: u64, num_hashes: u32, key: &[u8]) {
    let (h1, h2) = BloomFilter::hash_key(key);
    for bit in probes(h1, h2, num_bits, num_hashes) {
        words[(bit / 64) as usize] |= 1u64 << (bit % 64);
    }
}

fn test_bits(words: &[u64], num_bits: u64, num_hashes: u32, h1: u64, h2: u64) -> bool {
    probes(h1, h2, num_bits, num_hashes)
        .all(|bit| words[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0)
}

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
        let (num_bits, num_hashes) = geometry(expected, bits_per_key);
        BloomFilter {
            bits: vec![0; num_bits.div_ceil(64) as usize],
            num_bits,
            num_hashes,
        }
    }

    /// Insert a key (as bytes).
    pub fn insert(&mut self, key: &[u8]) {
        set_bits(&mut self.bits, self.num_bits, self.num_hashes, key);
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
        test_bits(&self.bits, self.num_bits, self.num_hashes, h1, h2)
    }

    /// Size of the bit array in bytes (for the memory-footprint study).
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8 + 16
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

/// One filter's place and geometry in a [`BloomBank`]: its words are the
/// `num_bits.div_ceil(64)` starting at `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BankFilter {
    start: usize,
    num_bits: u64,
    num_hashes: u32,
}

impl BankFilter {
    fn words(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.num_bits.div_ceil(64) as usize
    }
}

/// The per-group filters of one MCV index, their words in one buffer.
/// Filter `i` answers exactly as a [`BloomFilter`] of its geometry holding
/// the same words would, and counts [`BloomFilter::byte_size`] toward
/// [`BloomBank::byte_size`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BloomBank {
    words: Vec<u64>,
    filters: Vec<BankFilter>,
}

impl BloomBank {
    /// `count` empty filters, each sized like
    /// [`BloomFilter::new(expected, bits_per_key)`](BloomFilter::new).
    pub fn new(count: usize, expected: usize, bits_per_key: usize) -> Self {
        let (num_bits, num_hashes) = geometry(expected, bits_per_key);
        let len = num_bits.div_ceil(64) as usize;
        BloomBank {
            words: vec![0; count * len],
            filters: (0..count)
                .map(|i| BankFilter {
                    start: i * len,
                    num_bits,
                    num_hashes,
                })
                .collect(),
        }
    }

    /// An empty bank with room for `filters` filters of `words` words in
    /// all (the snapshot decoder sizes it exactly).
    pub(crate) fn with_capacity(filters: usize, words: usize) -> Self {
        BloomBank {
            words: Vec::with_capacity(words),
            filters: Vec::with_capacity(filters),
        }
    }

    /// Append a saved filter. Returns `None`, leaving the bank unchanged,
    /// on a geometry a probe could panic on or lose keys through (see
    /// `valid_geometry`), so the snapshot load path can never construct
    /// such a filter.
    pub(crate) fn push(
        &mut self,
        words: impl ExactSizeIterator<Item = u64>,
        num_bits: u64,
        num_hashes: u32,
    ) -> Option<()> {
        if !valid_geometry(words.len(), num_bits, num_hashes) {
            return None;
        }
        self.filters.push(BankFilter {
            start: self.words.len(),
            num_bits,
            num_hashes,
        });
        self.words.extend(words);
        Some(())
    }

    /// Number of filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// `true` when the bank holds no filter.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Insert a key into filter `i`.
    pub fn insert(&mut self, i: usize, key: &[u8]) {
        let f = self.filters[i];
        set_bits(&mut self.words[f.words()], f.num_bits, f.num_hashes, key);
    }

    /// Indices of the filters that may hold the key whose
    /// [`BloomFilter::hash_key`] pair is `(h1, h2)`, in ascending order.
    pub fn positives(&self, h1: u64, h2: u64) -> impl Iterator<Item = usize> + '_ {
        self.filters.iter().enumerate().filter_map(move |(i, f)| {
            test_bits(&self.words[f.words()], f.num_bits, f.num_hashes, h1, h2).then_some(i)
        })
    }

    /// Every filter's `(bit words, number of bits, number of hash
    /// probes)`, in order, for the snapshot-file writer.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[u64], u64, u32)> + '_ {
        self.filters
            .iter()
            .map(|f| (&self.words[f.words()], f.num_bits, f.num_hashes))
    }

    /// Size in bytes: a [`BloomFilter::byte_size`] per filter.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8 + self.filters.len() * 16
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
    fn bank_filters_answer_like_standalone_filters() {
        let mut bank = BloomBank::new(3, 40, 12);
        let mut filters = vec![BloomFilter::new(40, 12); 3];
        for k in 0..120u64 {
            let key = k.to_le_bytes();
            bank.insert((k % 3) as usize, &key);
            filters[(k % 3) as usize].insert(&key);
        }
        assert_eq!(
            bank.byte_size(),
            filters.iter().map(BloomFilter::byte_size).sum::<usize>()
        );
        for k in 0..2000u64 {
            let (h1, h2) = BloomFilter::hash_key(&k.to_le_bytes());
            let want: Vec<usize> = (0..3)
                .filter(|&i| filters[i].contains_hashed(h1, h2))
                .collect();
            assert_eq!(bank.positives(h1, h2).collect::<Vec<_>>(), want, "key {k}");
        }
        // The bank's words round-trip through the decoder's constructor.
        let mut copy = BloomBank::with_capacity(bank.len(), bank.words.len());
        for (words, num_bits, num_hashes) in bank.iter() {
            assert!(copy
                .push(words.iter().copied(), num_bits, num_hashes)
                .is_some());
        }
        assert_eq!(copy, bank);
        assert_eq!(copy.words.capacity(), copy.words.len());
    }

    #[test]
    fn bank_rejects_inconsistent_geometry() {
        let mut bank = BloomBank::default();
        assert!(bank.push([0u64; 2].into_iter(), 0, 3).is_none());
        assert!(bank.push([0u64; 2].into_iter(), 128, 0).is_none());
        assert!(bank.push([0u64; 2].into_iter(), 129, 3).is_none());
        assert!(bank.is_empty());
        assert!(bank.push([0u64; 2].into_iter(), 128, 3).is_some());
        assert_eq!(bank.len(), 1);
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
