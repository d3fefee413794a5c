//! The one per-session cache structure: a fingerprint-keyed map into a
//! slab of payload slots, evicted by a second-chance clock.
//!
//! A [`BoundSession`](crate::estimator::BoundSession) instantiates it four
//! times — the query-shape cache, the literal cache and the equality and
//! LIKE resolve memos — differing only in the owner half of the key and
//! the payload type. What the four share lives here, once:
//!
//! * **Keying** — `(owner, fingerprint)`, where the owner scopes the
//!   fingerprint (a table's filter slot; `()` for the shape cache and
//!   the literal cache, whose keys are whole queries). The
//!   fingerprint only has to discriminate: [`ClockCache::get`] serves a
//!   slot only after the caller's `verify` compared what the payload
//!   stores of its key (a literal, a shape key, a shape key and literal
//!   bytes) against the probe, so a collision costs a miss, never a wrong
//!   bound. Every instance keys by content — what the value depends on —
//!   so an entry stays valid for as long as the statistics build does,
//!   whichever other slot is recycled meanwhile.
//! * **Eviction** — at capacity a clock hand sweeps the slab; a slot hit
//!   since the hand last passed gets a second chance, the first cold slot
//!   is recycled. Fresh slots start unreferenced — an entry earns its
//!   second chance with a repeat hit — so one-shot churn evicts other
//!   churn, not the established hot set, and late-arriving hot entries
//!   always enter.
//! * **Recycling** — [`ClockCache::claim`] hands the victim's payload back
//!   to be overwritten in place, so its heap buffers (key and literal
//!   bytes, pattern strings, CDS sets, a shape's plan vectors) are
//!   retained: once buffer capacities have converged, churn at capacity
//!   allocates nothing in the memos, the literal cache and a shape cache
//!   whose bounds are memoized, and only what a plan's own structure
//!   needs when a claimed shape slot is built (asserted by the
//!   `zero_alloc` integration test).
//!
//! The slab and map grow organically, never preallocated: the throwaway
//! session of `SafeBound::bound` must not pay for tables it will never
//! fill. `len` never exceeds `capacity`, so once the map has grown to hold
//! it, at-capacity churn (remove + insert) never triggers another growth.

// Per-query serving path: a panic here would answer `ERR internal` and
// cost the serving layer a rebuilt session.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

use crate::simd::hash::FastMap;
use std::hash::Hash;

/// One payload slot with its key and second-chance bit.
#[derive(Debug)]
struct Slot<O, V> {
    /// The `(owner, fingerprint)` this slot was last claimed for. Stale
    /// once a colliding claim re-bound the key to a newer slot.
    key: (O, u64),
    /// Set on every hit, cleared as the clock hand passes.
    referenced: bool,
    value: V,
}

/// A clock-evicted cache of `V` payloads keyed by `(owner, fingerprint)`;
/// see the module docs. Capacity 0 disables it.
#[derive(Debug)]
pub(crate) struct ClockCache<O, V> {
    /// Key → slab index.
    map: FastMap<(O, u64), usize>,
    /// Payload slab; the clock hand sweeps it in index order.
    slots: Vec<Slot<O, V>>,
    /// Max slots before the clock starts recycling.
    capacity: usize,
    /// Next slab index the eviction sweep examines.
    hand: usize,
    evictions: u64,
}

impl<O: Copy + Eq + Hash, V: Default> ClockCache<O, V> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ClockCache {
            map: FastMap::default(),
            slots: Vec::new(),
            capacity,
            hand: 0,
            evictions: 0,
        }
    }

    /// Whether caching is on at all (capacity 0 disables it).
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Number of occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Slots recycled by the clock since creation.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The payload stored under `(owner, fp)`, if `verify` accepts it.
    /// A fingerprint match that fails verification (a collision) is a
    /// miss and earns the slot no second chance.
    pub(crate) fn get(&mut self, owner: O, fp: u64, verify: impl FnOnce(&V) -> bool) -> Option<&V> {
        let i = self.find((owner, fp), verify)?;
        Some(&self.slots[i].value)
    }

    /// Bind `(owner, fp)` to a slot and hand out its payload for the
    /// caller to overwrite: a default `V` below capacity, the clock's
    /// victim — previous contents and buffers intact — at it. `None` when
    /// the cache is disabled. A key that is already bound (a fingerprint
    /// collision, since callers only claim after a miss) re-binds to the
    /// new slot; the old slot turns stale and is recycled by the clock.
    pub(crate) fn claim(&mut self, owner: O, fp: u64) -> Option<&mut V> {
        let i = self.bind((owner, fp))?;
        Some(&mut self.slots[i].value)
    }

    /// [`ClockCache::get`], and on a miss straight into
    /// [`ClockCache::claim`]: the payload under `(owner, fp)` and whether
    /// it was a hit. After a miss the caller must overwrite the payload
    /// before anything reads it. For callers with nothing to compute
    /// between the probe and the claim (the shape cache stores the key
    /// and builds *into* the slot later); `None` when the cache is
    /// disabled.
    pub(crate) fn get_or_claim(
        &mut self,
        owner: O,
        fp: u64,
        verify: impl FnOnce(&V) -> bool,
    ) -> Option<(&mut V, bool)> {
        let key = (owner, fp);
        let (i, hit) = match self.find(key, verify) {
            Some(i) => (i, true),
            None => (self.bind(key)?, false),
        };
        Some((&mut self.slots[i].value, hit))
    }

    /// Slab index of the verified entry under `key`, marking it hit.
    fn find(&mut self, key: (O, u64), verify: impl FnOnce(&V) -> bool) -> Option<usize> {
        let &i = self.map.get(&key)?;
        let slot = &mut self.slots[i];
        if !verify(&slot.value) {
            return None;
        }
        slot.referenced = true;
        Some(i)
    }

    /// Slab index of the slot now bound to `key`: a fresh one below
    /// capacity, the clock's victim at it.
    fn bind(&mut self, key: (O, u64)) -> Option<usize> {
        if self.capacity == 0 {
            return None;
        }
        let i = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key,
                referenced: false,
                value: V::default(),
            });
            self.slots.len() - 1
        } else {
            // Second-chance sweep: terminates within two passes because
            // the first pass clears every referenced bit it crosses.
            let victim = loop {
                let idx = self.hand;
                self.hand = (self.hand + 1) % self.slots.len();
                let slot = &mut self.slots[idx];
                if slot.referenced {
                    slot.referenced = false;
                } else {
                    break idx;
                }
            };
            // Unindex the victim — but only if the map still points at
            // it. A collision re-binds a key to a newer slot (the old slot
            // keeps its stale `key`); removing unconditionally would
            // orphan the *live* entry.
            let old_key = self.slots[victim].key;
            if self.map.get(&old_key) == Some(&victim) {
                self.map.remove(&old_key);
            }
            self.evictions += 1;
            // The victim is unreferenced by construction, like a fresh slot.
            self.slots[victim].key = key;
            victim
        };
        self.map.insert(key, i);
        Some(i)
    }

    /// Drop every entry (statistics build change: memoized lookups are
    /// meaningless under any other build).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Cache = ClockCache<u8, u32>;

    fn put(c: &mut Cache, owner: u8, fp: u64, v: u32) {
        *c.claim(owner, fp).unwrap() = v;
    }

    fn hit(c: &mut Cache, owner: u8, fp: u64, v: u32) -> bool {
        c.get(owner, fp, |&stored| stored == v).is_some()
    }

    #[test]
    fn clock_evicts_cold_entries_and_keeps_hot_ones() {
        // At capacity the cache must keep admitting entries: the clock
        // recycles a cold slot, an entry with a repeat hit survives.
        let mut c = Cache::with_capacity(2);
        assert!(!hit(&mut c, 0, 1, 1));
        put(&mut c, 0, 1, 1);
        put(&mut c, 0, 2, 2);
        // Entry 1 turns hot (earns its second chance); 2 stays cold.
        assert!(hit(&mut c, 0, 1, 1));
        // A third entry arrives at capacity: the clock evicts cold 2.
        put(&mut c, 0, 3, 3);
        assert_eq!(c.evictions(), 1);
        assert!(hit(&mut c, 0, 1, 1), "hot entry survives");
        assert!(hit(&mut c, 0, 3, 3), "late entry entered");
        assert!(!hit(&mut c, 0, 2, 2), "cold entry evicted");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicting_a_collision_stale_slot_keeps_the_live_rebind() {
        // Two payloads colliding on one fingerprint: the second claim
        // re-binds the key to a fresh slot, leaving the first slot stale.
        // Evicting the stale slot must NOT unindex the live entry.
        let mut c = Cache::with_capacity(2);
        put(&mut c, 0, 1, 10); // slot 0
        assert!(!hit(&mut c, 0, 1, 20)); // collision miss
        put(&mut c, 0, 1, 20); // slot 1, re-binds the key
        put(&mut c, 0, 9, 90); // at capacity: the clock picks stale slot 0
        assert_eq!(c.evictions(), 1);
        assert!(
            hit(&mut c, 0, 1, 20),
            "live rebound entry must survive the stale slot's eviction"
        );
        assert!(hit(&mut c, 0, 9, 90));
    }

    #[test]
    fn recycled_slots_keep_their_buffers_and_zero_capacity_stores_nothing() {
        let mut c: ClockCache<u8, Vec<u8>> = ClockCache::with_capacity(1);
        c.claim(0, 1).unwrap().extend_from_slice(&[7; 100]);
        let recycled = c.claim(0, 2).unwrap();
        assert_eq!(recycled.len(), 100, "the victim's payload is handed back");
        assert!(recycled.capacity() >= 100);

        let mut off = Cache::with_capacity(0);
        assert!(!off.enabled());
        assert!(off.claim(0, 1).is_none());
        assert!(!hit(&mut off, 0, 1, 0));
        assert_eq!(off.len(), 0);
    }

    /// The naive reference: a plain `Vec` scanned linearly, no map. `live`
    /// marks the slot a key is currently bound to (the newest claim).
    #[derive(Default)]
    struct Model {
        slots: Vec<ModelSlot>,
        hand: usize,
        evictions: u64,
    }

    struct ModelSlot {
        key: (u8, u64),
        live: bool,
        referenced: bool,
        value: u32,
    }

    impl Model {
        fn get(&mut self, key: (u8, u64), v: u32) -> Option<u32> {
            let s = self.slots.iter_mut().find(|s| s.live && s.key == key)?;
            if s.value != v {
                return None;
            }
            s.referenced = true;
            Some(s.value)
        }

        /// Returns the recycled payload (`Some(0)` for a fresh slot).
        fn claim(&mut self, capacity: usize, key: (u8, u64), v: u32) -> Option<u32> {
            if capacity == 0 {
                return None;
            }
            for s in &mut self.slots {
                s.live &= s.key != key;
            }
            let fresh = ModelSlot {
                key,
                live: true,
                referenced: false,
                value: v,
            };
            if self.slots.len() < capacity {
                self.slots.push(fresh);
                return Some(0);
            }
            let n = self.slots.len();
            let mut at = self.hand;
            while self.slots[at].referenced {
                self.slots[at].referenced = false;
                at = (at + 1) % n;
            }
            let victim = std::mem::replace(&mut self.slots[at], fresh);
            self.hand = (at + 1) % n;
            self.evictions += 1;
            Some(victim.value)
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get((u8, u64), u32),
        Claim((u8, u64), u32),
        GetOrClaim((u8, u64), u32),
        Clear,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // A small key domain and payloads that only sometimes verify, so
        // hits, collisions, rebinds and evictions all occur.
        let key = (0u8..2, 0u64..6);
        prop_oneof![
            8 => (key.clone(), 1u32..4).prop_map(|(k, v)| Op::Get(k, v)),
            8 => (key.clone(), 1u32..4).prop_map(|(k, v)| Op::Claim(k, v)),
            4 => (key, 1u32..4).prop_map(|(k, v)| Op::GetOrClaim(k, v)),
            1 => Just(Op::Clear),
        ]
    }

    proptest! {
        #[test]
        fn matches_the_naive_reference(ops in proptest::collection::vec(op_strategy(), 0..200)) {
            for capacity in [0usize, 1, 2, 7] {
                let mut cache = Cache::with_capacity(capacity);
                let mut model = Model::default();
                for op in &ops {
                    match *op {
                        Op::Get(key, v) => {
                            let got = cache.get(key.0, key.1, |&s| s == v).copied();
                            prop_assert_eq!(got, model.get(key, v), "hit under {:?}", op);
                        }
                        Op::Claim(key, v) => {
                            // The recycled payload identifies the victim.
                            let got = cache.claim(key.0, key.1).map(|slot| {
                                std::mem::replace(slot, v)
                            });
                            prop_assert_eq!(got, model.claim(capacity, key, v), "victim under {:?}", op);
                        }
                        Op::GetOrClaim(key, v) => {
                            // A hit hands back the entry, a miss the victim
                            // to overwrite — exactly `get`, then `claim`.
                            let got = cache
                                .get_or_claim(key.0, key.1, |&s| s == v)
                                .map(|(slot, hit)| (std::mem::replace(slot, v), hit));
                            let want = match model.get(key, v) {
                                Some(stored) => Some((stored, true)),
                                None => model.claim(capacity, key, v).map(|victim| (victim, false)),
                            };
                            prop_assert_eq!(got, want, "under {:?}", op);
                        }
                        Op::Clear => {
                            cache.clear();
                            model.slots.clear();
                            model.hand = 0;
                        }
                    }
                    prop_assert!(cache.len() <= capacity);
                    prop_assert_eq!(cache.len(), model.slots.len());
                    prop_assert_eq!(cache.evictions(), model.evictions);
                }
            }
        }
    }
}
