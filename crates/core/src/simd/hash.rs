//! FNV-1a fingerprints, the XXH64 bulk checksum and the hasher of the
//! session-local maps.
//!
//! FNV-1a (`h = (h ^ byte) * PRIME`, one multiply per byte) keys the
//! short session-cache entries: [`fnv1a`] fingerprints shape keys,
//! literal streams, and the resolve memos' string literals and LIKE
//! patterns. The Bloom filter derives its
//! double-hashing pair from two seeded FNV-1a hashes of the same key in
//! one pass ([`fnv1a_pair`], with [`fnv1a_seeded`] as its serial
//! reference); those hashes index the filter bits stored in the snapshot
//! file, so they are part of the persisted format.
//!
//! Bulk checksums need more than one multiply per byte: [`xxh64`] keeps
//! four independent lanes over 32-byte stripes and consumes a 64-bit word
//! per multiply, so the snapshot file's megabyte-sized checksums run at
//! memory speed.

/// 64-bit FNV offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Seed mixing used by the Bloom filter's seeded FNV variant.
#[inline]
fn seeded_basis(seed: u64) -> u64 {
    FNV_BASIS ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Unseeded FNV-1a over one stream: the session-cache fingerprint.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_BASIS;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Seeded FNV-1a over one stream (the serial reference for
/// [`fnv1a_pair`]).
#[inline]
pub fn fnv1a_seeded(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seeded_basis(seed);
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Two seeded FNV-1a hashes of the *same* byte stream in a single pass,
/// with both accumulators live so the multiply chains interleave. Used by
/// the Bloom filter to derive its double-hashing pair without reading the
/// key twice.
#[inline]
pub fn fnv1a_pair(bytes: &[u8], seed_a: u64, seed_b: u64) -> (u64, u64) {
    let mut ha = seeded_basis(seed_a);
    let mut hb = seeded_basis(seed_b);
    for &b in bytes {
        let x = u64::from(b);
        ha ^= x;
        hb ^= x;
        ha = ha.wrapping_mul(FNV_PRIME);
        hb = hb.wrapping_mul(FNV_PRIME);
    }
    (ha, hb)
}

const XXH_P1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_P3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_P4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_P5: u64 = 0x27d4_eb2f_1656_67c5;

#[inline(always)]
fn xxh_round(acc: u64, word: &[u8; 8]) -> u64 {
    acc.wrapping_add(u64::from_le_bytes(*word).wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

#[inline(always)]
fn xxh_merge(h: u64, lane: u64) -> u64 {
    let lane = lane
        .wrapping_mul(XXH_P2)
        .rotate_left(31)
        .wrapping_mul(XXH_P1);
    (h ^ lane).wrapping_mul(XXH_P1).wrapping_add(XXH_P4)
}

/// XXH64 with seed 0 — the content checksum of the zstd and LZ4 frame
/// formats. Four lanes advance independently over each 32-byte stripe;
/// the leftover words, an optional 4-byte word and the last bytes are
/// folded in serially, then the result is avalanched. Bit-identical to
/// the reference `XXH64(bytes, len, 0)` on every host.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let (stripes, rest) = words.as_chunks::<4>();
    let mut h = if stripes.is_empty() {
        XXH_P5
    } else {
        let mut v = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for [w0, w1, w2, w3] in stripes {
            v = [
                xxh_round(v[0], w0),
                xxh_round(v[1], w1),
                xxh_round(v[2], w2),
                xxh_round(v[3], w3),
            ];
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.into_iter().fold(h, xxh_merge)
    };
    h = h.wrapping_add(bytes.len() as u64);
    for w in rest {
        h ^= xxh_round(0, w);
        h = h.rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
    }
    let tail = match tail.split_first_chunk::<4>() {
        Some((half, tail)) => {
            h ^= u64::from(u32::from_le_bytes(*half)).wrapping_mul(XXH_P1);
            h = h.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
            tail
        }
        None => tail,
    };
    for &b in tail {
        h ^= u64::from(b).wrapping_mul(XXH_P5);
        h = h.rotate_left(11).wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// [`std::hash::BuildHasher`] for the session-local hot maps (memo slabs,
/// shape index, literal cache): a word-at-a-time FNV-style mix instead of
/// the standard library's SipHash.
///
/// SipHash's DoS resistance costs ~40–60 ns per small-key lookup, which
/// dominates the memo hit path where the *useful* work is a slab read and
/// an arena copy. The maps this hasher backs are safe with a weak hash:
/// their keys are internal symbols, dense slot ids, and 64-bit
/// fingerprints that already went through FNV — never attacker-shaped
/// strings — and every memo is bounded by a capacity with second-chance
/// eviction, so the worst collision pile-up degrades a session's own
/// cache hit rate and nothing else.
///
/// Not part of any persisted format: map iteration order and hash values
/// may change freely between builds.
#[derive(Debug, Default, Clone, Copy)]
pub struct MapBuildHasher;

impl std::hash::BuildHasher for MapBuildHasher {
    type Hasher = MapHasher;
    #[inline]
    fn build_hasher(&self) -> MapHasher {
        MapHasher(FNV_BASIS)
    }
}

/// The word-at-a-time FNV-style state behind [`MapBuildHasher`]: each
/// 8-byte word is folded with `h = (h ^ w) * FNV_PRIME`, and `finish`
/// folds the high half into the low bits (multiplicative mixes leave the
/// low bits weakest, and hashbrown indexes buckets with them).
#[derive(Debug)]
pub struct MapHasher(u64);

impl MapHasher {
    #[inline]
    fn mix(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }
}

impl std::hash::Hasher for MapHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let h = self.0;
        (h ^ (h >> 32)).wrapping_mul(FNV_PRIME)
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            #[expect(clippy::unwrap_used, reason = "chunks_exact(8) yields 8-byte slices")]
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            // Length-tag the tail word so `"a"` and `"a\0"` differ.
            tail[7] = rem.len() as u8;
            self.mix(u64::from_le_bytes(tail));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_i8(&mut self, v: i8) {
        self.mix(v as u8 as u64);
    }
    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.mix(v as u16 as u64);
    }
    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.mix(v as u32 as u64);
    }
    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.mix(v as u64);
    }
}

/// `HashMap` over [`MapBuildHasher`] for session-local keys (symbols,
/// slots, fingerprints) that need no DoS-resistant hashing.
pub type FastMap<K, V> = std::collections::HashMap<K, V, MapBuildHasher>;

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn pair_matches_two_serial_hashes() {
        let data: Vec<u8> = (0u8..=255).collect();
        for len in [0, 1, 7, 64, 256] {
            let bytes = &data[..len];
            let (ha, hb) = fnv1a_pair(bytes, 0x5bd1_e995, 0x27d4_eb2f);
            assert_eq!(ha, fnv1a_seeded(bytes, 0x5bd1_e995));
            assert_eq!(hb, fnv1a_seeded(bytes, 0x27d4_eb2f));
        }
    }

    #[test]
    fn xxh64_matches_reference_values() {
        // Reference: libxxhash 0.8.1 `XXH64(bytes, len, 0)` with byte i =
        // i as u8. The lengths hit every branch: empty, byte tail only,
        // word + half-word + byte tails, exactly one stripe, a stripe plus
        // every tail kind, and many stripes.
        let data: Vec<u8> = (0..1027).map(|i| i as u8).collect();
        for (len, want) in [
            (0, 0xef46_db37_51d8_e999),
            (3, 0xe5c7_bb45_33bc_65dd),
            (15, 0xa948_f5f0_f6ab_ac2d),
            (32, 0xcbf5_9c51_16ff_32b4),
            (44, 0xa733_d156_db2b_b292),
            (1027, 0xc2e8_4799_bd18_39c4),
        ] {
            assert_eq!(xxh64(&data[..len]), want, "length {len}");
        }
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    #[test]
    fn map_hasher_separates_nearby_keys() {
        use std::hash::{BuildHasher, Hash};
        let bh = MapBuildHasher;
        // Distinct small keys of the memo shapes must not collide.
        let mut seen = std::collections::HashSet::new();
        for sym in 0u32..64 {
            for slot in 0u32..8 {
                assert!(seen.insert(bh.hash_one((sym, slot))));
            }
        }
        // Prefix-extended strings must differ (tail length tagging).
        assert_ne!(bh.hash_one("a"), bh.hash_one("a\0"));
        assert_ne!(bh.hash_one("movie_id"), bh.hash_one("movie_idx"));
        // Same key, same hash (stateless builder).
        let k = (7u32, 3u32, 0xdead_beef_u64);
        assert_eq!(bh.hash_one(k), bh.hash_one(k));
        // Every integer write width funnels through the same word mix.
        let mut h = bh.build_hasher();
        (-1i8, -1i16, -1i32, -1i64, -1isize, 1u16, 1usize).hash(&mut h);
        assert_ne!(std::hash::Hasher::finish(&h), 0);
    }
}
