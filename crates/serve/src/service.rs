//! The sharded service: N [`BoundSession`]s — one per shard — and one
//! shared [`SafeBound`] handle. Every bound runs on the thread that asked.
//!
//! See the crate docs for the layering. The service is synchronous by
//! design — callers block until their queries are answered — because the
//! bound itself runs in microseconds: the thread that parsed a request
//! computes its bounds, with no queue and no second thread. Over TCP that
//! is the connection's thread, so connections run in parallel and one
//! connection's batch runs on one core.
//!
//! A shard's session is taken out of the shard for the length of one
//! computation — a single query, or a batch's lines routed to that shard
//! — and put back afterwards. A caller that finds it out waits for it,
//! under its deadline. A caller holds at most one session at a time (a
//! batch visits its shards in order), so callers cannot deadlock.
//!
//! ## Self-healing
//!
//! * **Panic isolation** — every computation on a session runs under
//!   `catch_unwind`. A panic mid-query answers every line of that
//!   computation `ERR internal` (`EstimateError::Internal`) and puts a
//!   fresh session back in place of the (possibly inconsistent) one it
//!   took; the thread — which owns nothing a panic could have corrupted —
//!   carries on. [`BoundService::worker_panics`] /
//!   [`BoundService::worker_respawns`] count the panics and the rebuilt
//!   sessions.
//! * **Deadlines** — [`BoundService::bound_batch_deadline`] and
//!   [`BoundService::bound_deadline`] bound how long a caller waits for a
//!   session *another* caller holds: lines whose shard stays out past the
//!   deadline degrade to `EstimateError::Timeout` instead of wedging the
//!   caller; lines of the shards it got still return their real bounds
//!   ([`BoundService::worker_timeouts`]). A bound the caller computes
//!   itself runs to completion — there is nobody to abandon it to (see the
//!   failure model in ROADMAP.md for its worst case).
//! * **No poison propagation** — the shard mutexes recover from poisoning
//!   (the guarded state is always fully formed; see `lock_recover` in the
//!   crate root), and no session is ever used under one.

use crate::faults::{FaultInjector, WorkerFault};
use crate::{lock_recover, panic_message};
use safebound_core::simd::hash::FastMap;
use safebound_core::{BoundSession, EstimateError, SafeBound, SessionStats};
use safebound_query::Query;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One bound's outcome, as the batch path returns it per line.
type Answer = Result<f64, EstimateError>;

/// One shard: its session behind a lock, and a `Condvar` for the callers
/// waiting while it is out.
struct Shard {
    slot: Mutex<Slot>,
    /// Signalled when the session is put back and someone is waiting.
    returned: Condvar,
    /// Lines computed on this shard.
    served: AtomicU64,
}

/// What a shard's lock guards.
struct Slot {
    /// The session, `None` while a caller computes on it. Boxed, so a take
    /// and a put-back move a pointer.
    session: Option<Box<BoundSession>>,
    /// The session's counters as of its last put-back, so `STATS`-style
    /// observability never waits for a session that is out.
    stats: SessionStats,
    /// Callers waiting for the session. A put-back wakes one only when
    /// there is one: an uncontended take and put-back make no system call.
    waiting: usize,
}

/// How long one request may wait for sessions other callers hold:
/// `timeout` from its first wait, so a request that never waits never
/// reads the clock. `None` waits as long as it takes.
struct Wait {
    timeout: Option<Duration>,
    deadline: Option<Instant>,
    /// Set once the deadline has cost the request a shard; the request is
    /// counted in `worker_timeouts` once, however many shards it missed.
    expired: bool,
}

impl Wait {
    fn new(timeout: Option<Duration>) -> Self {
        Wait {
            timeout,
            deadline: None,
            expired: false,
        }
    }
}

/// A sharded SafeBound serving pool.
///
/// Construction builds the sessions and starts no thread. Clones of the
/// inner [`SafeBound`] handle stay valid — in particular, calling
/// [`SafeBound::swap_stats`](safebound_core::SafeBound::swap_stats) on
/// [`BoundService::estimator`] hot-swaps statistics under live traffic.
pub struct BoundService {
    handle: SafeBound,
    shards: Vec<Shard>,
    faults: FaultInjector,
    /// Computations that panicked (their lines answered `ERR internal`).
    panics: AtomicU64,
    /// Sessions rebuilt from scratch after a panic.
    respawns: AtomicU64,
    /// Requests that missed their deadline with lines still unanswered.
    timeouts: AtomicU64,
    /// Request lines answered by batch-level deduplication instead of a
    /// computation of their own (see [`BoundService::bound_batch_deadline`]).
    dedup_hits: AtomicU64,
}

impl BoundService {
    /// A pool of `workers` shards (min 1), a session each, over the given
    /// handle.
    pub fn new(handle: SafeBound, workers: usize) -> Self {
        Self::with_faults(handle, workers, FaultInjector::disabled())
    }

    /// [`BoundService::new`] with a fault-injection schedule (chaos
    /// testing; see [`crate::faults`]). With
    /// [`FaultInjector::disabled`] this is exactly `new`.
    pub fn with_faults(handle: SafeBound, workers: usize, faults: FaultInjector) -> Self {
        let shards = (0..workers.max(1))
            .map(|_| Shard {
                slot: Mutex::new(Slot {
                    session: Some(Box::default()),
                    stats: SessionStats::default(),
                    waiting: 0,
                }),
                returned: Condvar::new(),
                served: AtomicU64::new(0),
            })
            .collect();
        BoundService {
            handle,
            shards,
            faults,
            panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
        }
    }

    /// The shared estimator handle (e.g. for
    /// [`swap_stats`](safebound_core::SafeBound::swap_stats) or direct
    /// out-of-pool use).
    pub fn estimator(&self) -> &SafeBound {
        &self.handle
    }

    /// Number of shards (sessions). The name is the frozen `STATS` key's.
    pub fn num_workers(&self) -> usize {
        self.shards.len()
    }

    /// Queries computed so far, per shard (routing observability).
    pub fn served_per_worker(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.served.load(Ordering::Relaxed))
            .collect()
    }

    /// Request lines answered by intra-batch deduplication: identical
    /// `(shape, literal vector)` lines share one computation.
    pub fn batch_dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }

    /// Computations that panicked mid-query (their lines answered
    /// `ERR internal`, their shard's session rebuilt).
    pub fn worker_panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Sessions rebuilt from scratch after a panic — one per
    /// [`worker_panics`](BoundService::worker_panics). The name is the
    /// frozen `STATS` key's; no thread is respawned, the one that caught
    /// the panic carries on.
    pub fn worker_respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Requests whose deadline expired with lines still unanswered (those
    /// lines degraded to `ERR timeout`).
    pub fn worker_timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// The pool-wide merge of every shard session's cache counters
    /// (shape cache, MCV memo, literal cache), as of each session's last
    /// put-back.
    pub fn session_stats(&self) -> SessionStats {
        let mut total = SessionStats::default();
        for shard in &self.shards {
            total.merge(&lock_recover(&shard.slot).stats);
        }
        total
    }

    /// Bound one query on its shape-routed shard: [`bound_deadline`]
    /// without a deadline.
    ///
    /// [`bound_deadline`]: BoundService::bound_deadline
    pub fn bound(&self, query: &Query) -> Result<f64, EstimateError> {
        self.bound_deadline(query, None)
    }

    /// Bound one query on its shape-routed shard's session, on the calling
    /// thread — no queue, no allocation, the same warm caches the shard's
    /// batches use.
    ///
    /// When another caller holds the session, this waits for it; `timeout`
    /// bounds that wait ([`EstimateError::Timeout`]), not the bound this
    /// thread then computes.
    pub fn bound_deadline(
        &self,
        query: &Query,
        timeout: Option<Duration>,
    ) -> Result<f64, EstimateError> {
        let w = self.shard_of(query.shape_hash());
        self.run(w, &mut Wait::new(timeout), 1, |s| self.bound_one(query, s))
            .unwrap_or_else(Err)
    }

    /// Bound a batch: [`BoundService::bound_batch_deadline`] without a
    /// deadline.
    pub fn bound_batch(&self, queries: &[Query]) -> Vec<Answer> {
        self.bound_batch_deadline(queries, None)
    }

    /// [`BoundService::bound_batch`] over a shared batch.
    pub fn bound_batch_shared(&self, queries: Arc<[Query]>) -> Vec<Answer> {
        self.bound_batch_deadline(&queries, None)
    }

    /// Bound a batch on the calling thread; results return in input order.
    ///
    /// Identical request lines — same shape **and** same literal vector,
    /// confirmed by full query equality after the
    /// `(shape_hash, literal_fingerprint)` pre-key — are deduplicated: one
    /// representative is computed, every duplicate receives a copy of its
    /// answer ([`BoundService::batch_dedup_hits`]). The representatives are
    /// routed by shape hash and computed shard by shard, each shard's
    /// session taken once for all of its lines.
    ///
    /// `timeout` bounds the waits for shards other callers hold: the lines
    /// of a shard still out at the deadline return
    /// [`EstimateError::Timeout`], every other line its real bound. The
    /// scratch — shape hashes, dedup links, the results — costs a fixed
    /// number of allocations whatever the batch's length.
    pub fn bound_batch_deadline(
        &self,
        queries: &[Query],
        timeout: Option<Duration>,
    ) -> Vec<Answer> {
        // One shape-hash walk per line: the dedup key, then the line's
        // shard.
        let mut route: Vec<u64> = queries.iter().map(Query::shape_hash).collect();
        let canon = self.dedup(queries, &route);
        for r in &mut route {
            *r = self.shard_of(*r) as u64;
        }
        let mut answers: Vec<Answer> = vec![Err(EstimateError::Timeout); queries.len()];
        let mut wait = Wait::new(timeout);
        for w in 0..self.shards.len() {
            let mine = |&i: &usize| canon[i] == i && route[i] == w as u64;
            let lines = (0..queries.len()).filter(mine).count();
            if lines == 0 {
                continue;
            }
            let outcome = self.run(w, &mut wait, lines, |s| {
                for i in (0..queries.len()).filter(mine) {
                    answers[i] = self.bound_one(&queries[i], s);
                }
            });
            if let Err(e) = outcome {
                for i in (0..queries.len()).filter(mine) {
                    answers[i] = Err(e.clone());
                }
            }
        }
        // Fan representatives' answers out to their duplicates; a
        // representative always precedes its duplicates.
        for i in 0..answers.len() {
            if canon[i] != i {
                answers[i] = answers[canon[i]].clone();
            }
        }
        answers
    }

    /// The shard a query's shape hash routes to.
    fn shard_of(&self, shape_hash: u64) -> usize {
        (shape_hash % self.shards.len() as u64) as usize
    }

    /// Bound one query on a shard's session — the single body behind both
    /// paths, fault hook included.
    fn bound_one(&self, query: &Query, session: &mut BoundSession) -> Answer {
        match self.faults.on_worker_query() {
            WorkerFault::None => {}
            WorkerFault::Delay(d) => std::thread::sleep(d),
            #[expect(clippy::panic, reason = "seeded injected fault; `run` catches it")]
            WorkerFault::Panic => panic!("injected worker fault"),
        }
        self.handle.bound_with_session(query, session)
    }

    /// Run `work` — `lines` calls of [`BoundService::bound_one`] — on
    /// shard `w`'s session: take it out, waiting under `wait` while another
    /// caller has it; compute under `catch_unwind`; put it back and wake a
    /// waiter. A free shard is always computed, even past the deadline.
    ///
    /// Success counts the lines and records the session's counters. A
    /// panic may have left the session arbitrarily inconsistent: a fresh
    /// one goes back instead, and the panic comes back as the
    /// `ERR internal` every line of `work` is answered with.
    fn run<T>(
        &self,
        w: usize,
        wait: &mut Wait,
        lines: usize,
        work: impl FnOnce(&mut BoundSession) -> T,
    ) -> Result<T, EstimateError> {
        let shard = &self.shards[w];
        let mut session = {
            let mut slot = lock_recover(&shard.slot);
            loop {
                if let Some(session) = slot.session.take() {
                    break session;
                }
                let left = match wait.timeout {
                    None => None,
                    Some(timeout) => {
                        #[expect(clippy::disallowed_methods, reason = "the wait deadline")]
                        let now = Instant::now();
                        let left = wait
                            .deadline
                            .get_or_insert(now + timeout)
                            .saturating_duration_since(now);
                        if left.is_zero() {
                            if !std::mem::replace(&mut wait.expired, true) {
                                self.timeouts.fetch_add(1, Ordering::Relaxed);
                            }
                            return Err(EstimateError::Timeout);
                        }
                        Some(left)
                    }
                };
                slot.waiting += 1;
                slot = match left {
                    None => shard
                        .returned
                        .wait(slot)
                        .unwrap_or_else(PoisonError::into_inner),
                    Some(left) => shard
                        .returned
                        .wait_timeout(slot, left)
                        .map_or_else(|p| p.into_inner().0, |(guard, _)| guard),
                };
                slot.waiting -= 1;
            }
        };
        let outcome = match std::panic::catch_unwind(AssertUnwindSafe(|| work(&mut session))) {
            Ok(out) => {
                shard.served.fetch_add(lines as u64, Ordering::Relaxed);
                Ok(out)
            }
            Err(payload) => {
                session = Box::default();
                self.panics.fetch_add(1, Ordering::Relaxed);
                self.respawns.fetch_add(1, Ordering::Relaxed);
                Err(EstimateError::Internal(format!(
                    "worker panicked: {}",
                    panic_message(payload.as_ref())
                )))
            }
        };
        let mut slot = lock_recover(&shard.slot);
        slot.stats = session.stats();
        slot.session = Some(session);
        let waiting = slot.waiting > 0;
        drop(slot);
        if waiting {
            shard.returned.notify_one();
        }
        outcome
    }

    /// Each line's representative: the first earlier line identical to it
    /// — same shape **and** literal vector, confirmed by full query
    /// equality behind the `(shape_hash, literal_fingerprint)` key — or
    /// itself. Counts the lines answered this way.
    fn dedup(&self, lines: &[Query], hashes: &[u64]) -> Vec<usize> {
        let mut canon: Vec<usize> = (0..lines.len()).collect();
        if lines.len() < 2 {
            return canon;
        }
        // Per key, the latest representative; `earlier` chains each
        // representative to the one before it under the same key.
        let mut latest: FastMap<(u64, u64), usize> =
            FastMap::with_capacity_and_hasher(lines.len(), Default::default());
        let mut earlier: Vec<Option<usize>> = vec![None; lines.len()];
        let mut hits = 0u64;
        for (i, q) in lines.iter().enumerate() {
            let key = (hashes[i], q.literal_fingerprint());
            let mut rep = latest.get(&key).copied();
            while let Some(j) = rep {
                if lines[j] == *q {
                    break;
                }
                rep = earlier[j];
            }
            match rep {
                Some(j) => {
                    canon[i] = j;
                    hits += 1;
                }
                None => earlier[i] = latest.insert(key, i),
            }
        }
        if hits > 0 {
            self.dedup_hits.fetch_add(hits, Ordering::Relaxed);
        }
        canon
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use safebound_core::{SafeBoundBuilder, SafeBoundConfig};
    use safebound_query::parse_sql;
    use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "dim",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("w", DataType::Int),
            ]),
            vec![
                Column::from_ints((0..16).map(Some)),
                Column::from_ints((0..16).map(|i| Some(i % 4))),
            ],
        ));
        let mut fk = Vec::new();
        let mut year = Vec::new();
        for v in 0i64..16 {
            for r in 0..(32 / (v + 1)) {
                fk.push(Some(v));
                year.push(Some(1990 + (r % 12)));
            }
        }
        c.add_table(Table::new(
            "fact",
            Schema::new(vec![
                Field::new("fk", DataType::Int),
                Field::new("year", DataType::Int),
            ]),
            vec![Column::from_ints(fk), Column::from_ints(year)],
        ));
        c.declare_primary_key("dim", "id");
        c.declare_foreign_key("fact", "fk", "dim", "id");
        c
    }

    fn workload() -> Vec<Query> {
        let mut qs = Vec::new();
        for w in 0..4 {
            qs.push(
                parse_sql(&format!(
                    "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND d.w = {w}"
                ))
                .unwrap(),
            );
        }
        for y in [1991, 1995, 1999] {
            qs.push(
                parse_sql(&format!(
                    "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = {y}"
                ))
                .unwrap(),
            );
            qs.push(
                parse_sql(&format!(
                    "SELECT COUNT(*) FROM fact f, dim d \
                     WHERE f.fk = d.id AND f.year BETWEEN {} AND {y}",
                    y - 3
                ))
                .unwrap(),
            );
        }
        qs.push(parse_sql("SELECT COUNT(*) FROM fact").unwrap());
        qs
    }

    #[test]
    fn service_matches_direct_path_and_preserves_order() {
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let queries = workload();
        let direct: Vec<f64> = queries.iter().map(|q| sb.bound(q).unwrap()).collect();
        for workers in [1, 3] {
            let service = BoundService::new(sb.clone(), workers);
            let batch = service.bound_batch(&queries);
            for ((q, want), got) in queries.iter().zip(&direct).zip(batch) {
                let got = got.unwrap();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "workers={workers}: batch bound diverged for {q:?}"
                );
            }
            for (q, want) in queries.iter().zip(&direct) {
                assert_eq!(service.bound(q).unwrap().to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn shape_routing_is_stable_and_spreads_templates() {
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let service = BoundService::new(sb, 4);
        let queries = workload();
        // Same batch twice: per-shard counters must double exactly
        // (routing is deterministic per shape).
        service.bound_batch(&queries);
        let after_one = service.served_per_worker();
        service.bound_batch(&queries);
        let after_two = service.served_per_worker();
        for (a, b) in after_one.iter().zip(&after_two) {
            assert_eq!(2 * a, *b);
        }
        assert_eq!(
            after_one.iter().sum::<u64>() as usize,
            queries.len(),
            "every query served exactly once"
        );
        assert!(
            after_one.iter().filter(|&&c| c > 0).count() > 1,
            "multiple templates should spread over multiple workers: {after_one:?}"
        );
        // Pure shape routing: each shard computed exactly the lines whose
        // shape hash lands on it, so every template keeps its session.
        let mut routed = vec![0u64; 4];
        for q in &queries {
            routed[(q.shape_hash() % 4) as usize] += 1;
        }
        assert_eq!(after_one, routed);
    }

    #[test]
    fn duplicate_lines_dedup_to_one_dispatch() {
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let service = BoundService::new(sb.clone(), 2);
        // 3 distinct templates × literals, each repeated 8×, shuffled by
        // construction order.
        let distinct: Vec<Query> = [
            "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = 1995",
            "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND d.w = 2",
            "SELECT COUNT(*) FROM fact",
        ]
        .iter()
        .map(|sql| parse_sql(sql).unwrap())
        .collect();
        let batch: Vec<Query> = (0..24).map(|i| distinct[i % 3].clone()).collect();
        let direct: Vec<f64> = distinct.iter().map(|q| sb.bound(q).unwrap()).collect();
        let results = service.bound_batch(&batch);
        for (i, got) in results.iter().enumerate() {
            assert_eq!(
                got.as_ref().unwrap().to_bits(),
                direct[i % 3].to_bits(),
                "deduped answer diverged at line {i}"
            );
        }
        // 24 lines, 3 representatives computed, 21 answered by dedup.
        assert_eq!(service.batch_dedup_hits(), 21);
        assert_eq!(service.served_per_worker().iter().sum::<u64>(), 3);
        // Errors fan out to duplicates too.
        let bad = parse_sql("SELECT COUNT(*) FROM nonexistent").unwrap();
        let errs = service.bound_batch(&[bad.clone(), bad]);
        assert!(errs.iter().all(|r| r.is_err()));
        assert_eq!(service.batch_dedup_hits(), 22);
    }

    #[test]
    fn pool_session_stats_aggregate_worker_counters() {
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let service = BoundService::new(sb, 2);
        let queries = workload();
        service.bound_batch(&queries);
        service.bound_batch(&queries);
        let stats = service.session_stats();
        assert!(stats.shape_misses > 0, "{stats:?}");
        // The second pass repeated every literal vector on warm sessions.
        assert!(stats.lit_bound_hits > 0, "{stats:?}");
        assert_eq!(
            stats.lit_bound_hits + stats.lit_bound_misses,
            2 * queries.len() as u64,
            "{stats:?}"
        );
    }

    #[test]
    fn errors_come_back_per_query() {
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let service = BoundService::new(sb, 2);
        let good = parse_sql("SELECT COUNT(*) FROM fact").unwrap();
        let bad = parse_sql("SELECT COUNT(*) FROM nonexistent").unwrap();
        let results = service.bound_batch(&[good, bad]);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(EstimateError::UnknownTable(_))));
    }

    #[test]
    fn swap_stats_applies_to_live_pool() {
        let cat = catalog();
        let sb = SafeBound::build(&cat, SafeBoundConfig::test_small());
        let service = BoundService::new(sb, 2);
        let queries = workload();
        let before = service.bound_batch(&queries);

        let mut cfg = SafeBoundConfig::test_small();
        cfg.mcv_size = 2; // coarser build → some bounds change
        let rebuilt = SafeBoundBuilder::new(cfg).build(&cat);
        let reference = SafeBound::from_stats(rebuilt.clone());
        let expect: Vec<f64> = queries
            .iter()
            .map(|q| reference.bound(q).unwrap())
            .collect();

        service.estimator().swap_stats(rebuilt);
        let after = service.bound_batch(&queries);
        for ((got, want), old) in after.iter().zip(&expect).zip(&before) {
            let got = got.as_ref().unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "post-swap pool must match a fresh estimator (old={old:?})"
            );
        }
    }

    /// A single request whose shard's session is out (another caller is
    /// computing on it) waits under its deadline and times out; the other
    /// shard keeps answering; a request without a deadline waits until the
    /// session is put back and then answers exactly.
    #[test]
    fn busy_shard_queues_a_single_request_under_its_deadline() {
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let service = BoundService::new(sb.clone(), 2);
        let queries = workload();
        let shard = |q: &Query| (q.shape_hash() % 2) as usize;
        let held_q = &queries[0];
        let free_q = queries
            .iter()
            .find(|q| shard(q) != shard(held_q))
            .expect("the workload's templates spread over both shards");

        let home = &service.shards[shard(held_q)];
        let held = lock_recover(&home.slot).session.take();
        assert!(held.is_some());
        let got = service.bound_deadline(held_q, Some(Duration::from_millis(50)));
        assert!(matches!(got, Err(EstimateError::Timeout)), "{got:?}");
        assert_eq!(service.worker_timeouts(), 1);
        assert_eq!(
            service.bound(free_q).unwrap().to_bits(),
            sb.bound(free_q).unwrap().to_bits(),
            "a held shard must not stall the other one"
        );

        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| service.bound(held_q));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!waiter.is_finished(), "no deadline: it waits");
            lock_recover(&home.slot).session = held;
            home.returned.notify_one();
            assert_eq!(
                waiter.join().unwrap().unwrap().to_bits(),
                sb.bound(held_q).unwrap().to_bits()
            );
        });
        assert_eq!(service.worker_timeouts(), 1);
        assert_eq!(service.worker_panics(), 0);
        assert_eq!(service.worker_respawns(), 0);
    }

    /// Single requests on four threads and batches on a fifth, released
    /// together, take turns on the two shards' sessions: every answer is
    /// the direct path's and every line is counted exactly once.
    #[test]
    fn mixed_single_and_batch_traffic_is_exact_and_counted() {
        const ROUNDS: usize = 50;
        const SINGLE_THREADS: usize = 4;
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let queries = workload(); // no duplicate lines: nothing dedups
        let direct: Vec<u64> = queries
            .iter()
            .map(|q| sb.bound(q).unwrap().to_bits())
            .collect();
        let service = BoundService::new(sb, 2);
        let start = std::sync::Barrier::new(SINGLE_THREADS + 1);
        std::thread::scope(|scope| {
            for _ in 0..SINGLE_THREADS {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..ROUNDS {
                        for (q, want) in queries.iter().zip(&direct) {
                            assert_eq!(service.bound(q).unwrap().to_bits(), *want);
                        }
                    }
                });
            }
            scope.spawn(|| {
                let shared: Arc<[Query]> = queries.clone().into();
                start.wait();
                for _ in 0..ROUNDS {
                    let got = service.bound_batch_shared(shared.clone());
                    for (got, want) in got.iter().zip(&direct) {
                        assert_eq!(got.as_ref().unwrap().to_bits(), *want);
                    }
                }
            });
        });
        assert_eq!(
            service.served_per_worker().iter().sum::<u64>() as usize,
            (SINGLE_THREADS + 1) * ROUNDS * queries.len()
        );
        assert_eq!(service.worker_panics(), 0);
        assert_eq!(service.worker_timeouts(), 0);
    }

    /// A panic in a single request is isolated: `ERR internal` for that
    /// request, a fresh session for the shard, no poisoned lock, exact
    /// bounds afterwards.
    #[test]
    fn inline_panic_answers_internal_and_rebuilds_the_session() {
        use crate::faults::FaultInjector;
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let q = &workload()[0];
        let want = sb.bound(q).unwrap().to_bits();
        let faults = FaultInjector::seeded(7).panic_on_queries([2]).build();
        let service = BoundService::with_faults(sb, 1, faults);
        let shapes = |s: &BoundService| {
            let stats = s.session_stats();
            (stats.shape_hits, stats.shape_misses)
        };

        assert_eq!(service.bound(q).unwrap().to_bits(), want);
        assert_eq!(service.bound(q).unwrap().to_bits(), want);
        assert_eq!(shapes(&service), (1, 1), "the session is warm");

        let err = service.bound(q).unwrap_err();
        assert_eq!(
            err.to_string(),
            "internal: worker panicked: injected worker fault"
        );
        assert_eq!(service.worker_panics(), 1);
        assert_eq!(service.worker_respawns(), 1);
        assert!(!service.shards[0].slot.is_poisoned());
        assert_eq!(service.session_stats(), SessionStats::default());

        assert_eq!(service.bound(q).unwrap().to_bits(), want);
        assert_eq!(
            shapes(&service),
            (0, 1),
            "a shape miss again: the session really was replaced"
        );
        assert_eq!(service.served_per_worker(), [3]);
        assert_eq!(service.worker_timeouts(), 0);
    }

    /// Deterministic panic-isolation unit test (the TCP-level version
    /// lives in `tests/chaos.rs`): a 1-shard pool with injected panics
    /// answers the panicked batch's lines `ERR internal`, rebuilds the
    /// session, and keeps serving bit-identical bounds.
    #[test]
    fn injected_panics_degrade_and_respawn() {
        use crate::faults::FaultInjector;
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let queries = workload();
        let direct: Vec<f64> = queries.iter().map(|q| sb.bound(q).unwrap()).collect();
        // One shard → the global query sequence is the batch's line
        // order. Panic on the first query of rounds 2 and 4.
        let qn = queries.len() as u64;
        let faults = FaultInjector::seeded(7)
            .panic_on_queries([qn, 3 * qn])
            .build();
        let service = BoundService::with_faults(sb, 1, faults);
        for round in 0..6u64 {
            let results = service.bound_batch(&queries);
            if round == 1 || round == 3 {
                // The whole batch is one shard's lines: every line
                // degrades.
                for r in &results {
                    assert!(
                        matches!(r, Err(EstimateError::Internal(_))),
                        "round {round}: expected ERR internal, got {r:?}"
                    );
                }
            } else {
                for (want, got) in direct.iter().zip(&results) {
                    assert_eq!(
                        got.as_ref().unwrap().to_bits(),
                        want.to_bits(),
                        "round {round}: bound diverged after respawn"
                    );
                }
            }
        }
        assert_eq!(service.worker_panics(), 2);
        assert_eq!(service.worker_respawns(), 2);
        assert_eq!(service.worker_timeouts(), 0);
    }

    /// A caller stalled on a shard keeps it: a second caller's lines on
    /// that shard degrade to `ERR timeout` at its deadline, its lines on
    /// the other shard keep their real bounds, and the stalled caller's
    /// own answers are exact.
    #[test]
    fn injected_delay_degrades_to_timeout() {
        use crate::faults::FaultInjector;
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        // Delay the very first query long enough that the second caller's
        // deadline certainly fires first.
        let faults = FaultInjector::seeded(7)
            .delay_queries([0], Duration::from_millis(400))
            .build();
        let service = BoundService::with_faults(sb.clone(), 2, faults);
        let queries = workload();
        let direct: Vec<u64> = queries
            .iter()
            .map(|q| sb.bound(q).unwrap().to_bits())
            .collect();
        let shard = |q: &Query| (q.shape_hash() % 2) as usize;
        let held = shard(&queries[0]);
        let stalled: Vec<Query> = queries
            .iter()
            .filter(|q| shard(q) == held)
            .cloned()
            .collect();
        assert!(stalled.len() < queries.len(), "both shards have lines");

        std::thread::scope(|scope| {
            let first = scope.spawn(|| service.bound_batch(&stalled));
            while lock_recover(&service.shards[held].slot).session.is_some() {
                std::thread::sleep(Duration::from_millis(1));
            }
            let results = service.bound_batch_deadline(&queries, Some(Duration::from_millis(50)));
            for ((q, want), got) in queries.iter().zip(&direct).zip(&results) {
                if shard(q) == held {
                    assert!(matches!(got, Err(EstimateError::Timeout)), "{got:?}");
                } else {
                    assert_eq!(got.as_ref().unwrap().to_bits(), *want);
                }
            }
            for (q, got) in stalled.iter().zip(first.join().unwrap()) {
                assert_eq!(got.unwrap().to_bits(), sb.bound(q).unwrap().to_bits());
            }
        });
        assert_eq!(service.worker_timeouts(), 1);
        assert_eq!(service.worker_panics(), 0);
        // The shard was slow, not lost: the pool serves exactly again.
        let retry = service.bound_batch_deadline(&queries, Some(Duration::from_secs(30)));
        for (want, got) in direct.iter().zip(&retry) {
            assert_eq!(got.as_ref().unwrap().to_bits(), *want);
        }
        assert_eq!(service.worker_respawns(), 0);
    }
}
