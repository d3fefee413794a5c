//! The session pool: a capped free list of [`BoundSession`]s over one
//! shared [`SafeBound`] handle. Every bound runs on the thread that asked.
//!
//! See the crate docs for the layering. The service is synchronous by
//! design — callers block until their queries are answered — because the
//! bound itself runs in microseconds: the thread that parsed a request
//! computes its bounds, with no queue and no second thread. Over TCP that
//! is the connection's thread, so connections run in parallel and one
//! connection's batch runs on one core.
//!
//! A caller takes the most recently returned idle session for the length
//! of one computation — a single query, or every distinct line of a batch
//! — or builds a fresh one when none is idle, and puts it back afterwards.
//! The list keeps at most `workers` sessions and drops the rest. Nobody
//! waits for a session: the one lock is held only to pop or push one.
//! The price is paid when more callers compute at once than `workers`:
//! each extra caller starts on a cold session (empty shape and literal
//! caches), and the memory in flight is one session per such caller.
//!
//! ## Self-healing
//!
//! * **Panic isolation** — every computation on a session runs under
//!   `catch_unwind`. A panic mid-query answers every line of that
//!   computation `ERR internal` (`EstimateError::Internal`) and drops the
//!   (possibly inconsistent) session instead of putting it back; the
//!   thread — which owns nothing a panic could have corrupted — carries
//!   on. [`BoundService::worker_panics`] / [`BoundService::worker_respawns`]
//!   count the panics and the dropped sessions.
//! * **No waiting** — a caller stalled in its own bound holds only its own
//!   session; every other caller takes another or builds one.
//! * **No poison propagation** — the list's mutex recovers from poisoning
//!   (the guarded state is always fully formed; see `lock_recover` in the
//!   crate root), and no session is ever used under it.

use crate::faults::{FaultInjector, WorkerFault};
use crate::{lock_recover, panic_message};
use safebound_core::simd::hash::FastMap;
use safebound_core::{BoundSession, EstimateError, SafeBound, SessionStats};
use safebound_query::Query;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One bound's outcome, as the batch path returns it per line.
type Answer = Result<f64, EstimateError>;

/// What the service's one lock guards.
#[derive(Default)]
struct Idle {
    /// Sessions no caller holds, the most recently returned last.
    sessions: Vec<BoundSession>,
    /// What every completed take's session counted during it, summed: a
    /// total that never goes backwards, whatever is dropped.
    stats: SessionStats,
}

/// A SafeBound serving pool.
///
/// Construction builds no session and starts no thread. Clones of the
/// inner [`SafeBound`] handle stay valid — in particular, calling
/// [`SafeBound::swap_stats`](safebound_core::SafeBound::swap_stats) on
/// [`BoundService::estimator`] hot-swaps statistics under live traffic.
pub struct BoundService {
    handle: SafeBound,
    /// The most sessions kept idle.
    cap: usize,
    idle: Mutex<Idle>,
    faults: FaultInjector,
    /// Computations that panicked (their lines answered `ERR internal`).
    panics: AtomicU64,
    /// Sessions dropped after a panic.
    respawns: AtomicU64,
    /// Request lines answered by batch-level deduplication instead of a
    /// computation of their own (see [`BoundService::bound_batch`]).
    dedup_hits: AtomicU64,
}

impl BoundService {
    /// A pool over the given handle that keeps at most `workers` (min 1)
    /// sessions idle between computations.
    pub fn new(handle: SafeBound, workers: usize) -> Self {
        Self::with_faults(handle, workers, FaultInjector::disabled())
    }

    /// [`BoundService::new`] with a fault-injection schedule (chaos
    /// testing; see [`crate::faults`]). With
    /// [`FaultInjector::disabled`] this is exactly `new`.
    pub fn with_faults(handle: SafeBound, workers: usize, faults: FaultInjector) -> Self {
        BoundService {
            handle,
            cap: workers.max(1),
            idle: Mutex::default(),
            faults,
            panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
        }
    }

    /// The shared estimator handle (e.g. for
    /// [`swap_stats`](safebound_core::SafeBound::swap_stats) or direct
    /// out-of-pool use).
    pub fn estimator(&self) -> &SafeBound {
        &self.handle
    }

    /// The most sessions kept idle between computations. The name is the
    /// frozen `STATS` key's.
    pub fn num_workers(&self) -> usize {
        self.cap
    }

    /// Request lines answered by intra-batch deduplication: identical
    /// `(shape, literal vector)` lines share one computation.
    pub fn batch_dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }

    /// Computations that panicked mid-query (their lines answered
    /// `ERR internal`, their session dropped).
    pub fn worker_panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Sessions dropped after a panic — one per
    /// [`worker_panics`](BoundService::worker_panics); a fresh one is
    /// built when a caller finds none idle. The name is the frozen `STATS`
    /// key's; no thread is respawned, the one that caught the panic
    /// carries on.
    pub fn worker_respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// The cache counters (shape cache, MCV memo, literal cache) of every
    /// completed computation, summed. They never go backwards: a panicked
    /// computation adds nothing, and a dropped session keeps what it
    /// counted.
    pub fn session_stats(&self) -> SessionStats {
        lock_recover(&self.idle).stats
    }

    /// Bound one query on the calling thread, on an idle session — no
    /// queue, no allocation once a session is warm.
    pub fn bound(&self, query: &Query) -> Result<f64, EstimateError> {
        self.run(|s| self.bound_one(query, s)).unwrap_or_else(Err)
    }

    /// [`BoundService::bound_batch`] over a shared batch.
    pub fn bound_batch_shared(&self, queries: Arc<[Query]>) -> Vec<Answer> {
        self.bound_batch(&queries)
    }

    /// Bound a batch on the calling thread, all of it on one session;
    /// results return in input order.
    ///
    /// Identical request lines — same shape **and** same literal vector,
    /// confirmed by full query equality after the
    /// `(shape_hash, literal_fingerprint)` pre-key — are deduplicated: one
    /// representative is computed, every duplicate receives a copy of its
    /// answer ([`BoundService::batch_dedup_hits`]). The scratch — dedup
    /// links, the results — costs a fixed number of allocations whatever
    /// the batch's length.
    pub fn bound_batch(&self, queries: &[Query]) -> Vec<Answer> {
        let canon = self.dedup(queries);
        let mut answers: Vec<Answer> = Vec::with_capacity(queries.len());
        let outcome = self.run(|s| {
            // A representative always precedes its duplicates.
            for (i, q) in queries.iter().enumerate() {
                let answer = match canon[i] {
                    j if j == i => self.bound_one(q, s),
                    j => answers[j].clone(),
                };
                answers.push(answer);
            }
        });
        if let Err(e) = outcome {
            answers.clear();
            answers.resize(queries.len(), Err(e));
        }
        answers
    }

    /// Bound one query on a session — the single body behind both paths,
    /// fault hook included.
    fn bound_one(&self, query: &Query, session: &mut BoundSession) -> Answer {
        match self.faults.on_worker_query() {
            WorkerFault::None => {}
            WorkerFault::Delay(d) => std::thread::sleep(d),
            #[expect(clippy::panic, reason = "seeded injected fault; `run` catches it")]
            WorkerFault::Panic => panic!("injected worker fault"),
        }
        self.handle.bound_with_session(query, session)
    }

    /// Run `work` on a session: take the most recently returned idle one,
    /// or build one; compute under `catch_unwind`; put it back unless the
    /// list is full.
    ///
    /// Success adds what the session counted during `work` to the totals.
    /// A panic may have left the session arbitrarily inconsistent: it is
    /// dropped, and the panic comes back as the `ERR internal` every line
    /// of `work` is answered with.
    fn run<T>(&self, work: impl FnOnce(&mut BoundSession) -> T) -> Result<T, EstimateError> {
        let popped = lock_recover(&self.idle).sessions.pop();
        let mut session = popped.unwrap_or_default();
        let before = session.stats();
        match std::panic::catch_unwind(AssertUnwindSafe(|| work(&mut session))) {
            Ok(out) => {
                let counted = session.stats().since(&before);
                let mut idle = lock_recover(&self.idle);
                idle.stats.merge(&counted);
                if idle.sessions.len() < self.cap {
                    idle.sessions.push(session);
                }
                Ok(out)
            }
            Err(payload) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                self.respawns.fetch_add(1, Ordering::Relaxed);
                Err(EstimateError::Internal(format!(
                    "worker panicked: {}",
                    panic_message(payload.as_ref())
                )))
            }
        }
    }

    /// Each line's representative: the first earlier line identical to it
    /// — same shape **and** literal vector, confirmed by full query
    /// equality behind the `(shape_hash, literal_fingerprint)` key — or
    /// itself. Counts the lines answered this way.
    fn dedup(&self, lines: &[Query]) -> Vec<usize> {
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
            let key = (q.shape_hash(), q.literal_fingerprint());
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
    use std::time::{Duration, Instant};

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

    /// Sequential callers reuse one warm session: a second pass over the
    /// templates builds no shape. Concurrent callers leave at most
    /// `workers` sessions idle.
    #[test]
    fn sequential_callers_reuse_one_warm_session() {
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let service = BoundService::new(sb, 2);
        let queries = workload();
        service.bound_batch(&queries);
        let first = service.session_stats();
        assert!(first.shape_misses > 0, "{first:?}");
        for q in &queries {
            service.bound(q).unwrap();
        }
        service.bound_batch(&queries);
        let later = service.session_stats().since(&first);
        assert_eq!(later.shape_misses, 0, "{later:?}");
        assert_eq!(later.shape_hits, 2 * queries.len() as u64, "{later:?}");
        assert_eq!(lock_recover(&service.idle).sessions.len(), 1);

        const CALLERS: usize = 6;
        let start = std::sync::Barrier::new(CALLERS);
        std::thread::scope(|scope| {
            for _ in 0..CALLERS {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..20 {
                        service.bound_batch(&queries);
                    }
                });
            }
        });
        let idle = lock_recover(&service.idle).sessions.len();
        assert!((1..=2).contains(&idle), "{idle} sessions idle");
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
        let stats = service.session_stats();
        assert_eq!(stats.lit_bound_hits + stats.lit_bound_misses, 3);
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

    /// A caller stalled in its own bound holds up nobody: with one idle
    /// session at most, caller A's batch is delayed 400 ms on its first
    /// query, and caller B's single line and batch, sent meanwhile, are
    /// answered exactly before A's delay ends. A's answers are exact too.
    #[test]
    fn a_stalled_caller_holds_up_nobody() {
        use crate::faults::FaultInjector;
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let delay = Duration::from_millis(400);
        let faults = FaultInjector::seeded(7).delay_queries([0], delay).build();
        let service = BoundService::with_faults(sb.clone(), 1, faults);
        let queries = workload();
        let direct: Vec<u64> = queries
            .iter()
            .map(|q| sb.bound(q).unwrap().to_bits())
            .collect();

        let started = Instant::now();
        std::thread::scope(|scope| {
            let stalled = scope.spawn(|| service.bound_batch(&queries));
            // Let A's first query — query 0, the delayed one — start.
            std::thread::sleep(Duration::from_millis(100));
            assert_eq!(service.bound(&queries[1]).unwrap().to_bits(), direct[1]);
            let got = service.bound_batch(&queries);
            assert!(
                started.elapsed() < delay,
                "B waited for A: {:?}",
                started.elapsed()
            );
            for (got, want) in got.iter().zip(&direct) {
                assert_eq!(got.as_ref().unwrap().to_bits(), *want);
            }
            for (got, want) in stalled.join().unwrap().iter().zip(&direct) {
                assert_eq!(got.as_ref().unwrap().to_bits(), *want);
            }
        });
        assert!(started.elapsed() >= delay);
        assert_eq!(service.worker_panics(), 0);
        assert_eq!(lock_recover(&service.idle).sessions.len(), 1);
    }

    /// Single requests on four threads and batches on a fifth, released
    /// together, share a pool of two idle sessions: every answer is the
    /// direct path's and every line is counted exactly once.
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
        let stats = service.session_stats();
        assert_eq!(
            (stats.lit_bound_hits + stats.lit_bound_misses) as usize,
            (SINGLE_THREADS + 1) * ROUNDS * queries.len()
        );
        assert_eq!(service.worker_panics(), 0);
    }

    /// A panic in a single request is isolated: `ERR internal` for that
    /// request, the session dropped, no poisoned lock, counters that do
    /// not go backwards, exact bounds afterwards on a fresh session.
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
        let before = service.session_stats();

        let err = service.bound(q).unwrap_err();
        assert_eq!(
            err.to_string(),
            "internal: worker panicked: injected worker fault"
        );
        assert_eq!(service.worker_panics(), 1);
        assert_eq!(service.worker_respawns(), 1);
        assert!(!service.idle.is_poisoned());
        assert!(lock_recover(&service.idle).sessions.is_empty());
        assert_eq!(service.session_stats(), before);

        assert_eq!(service.bound(q).unwrap().to_bits(), want);
        assert_eq!(
            shapes(&service),
            (1, 2),
            "a shape miss again: the session really was replaced"
        );
    }

    /// Deterministic panic-isolation unit test (the TCP-level version
    /// lives in `tests/chaos.rs`): a pool with injected panics answers the
    /// panicked batch's lines `ERR internal`, drops the session, and keeps
    /// serving bit-identical bounds on a fresh one.
    #[test]
    fn injected_panics_degrade_and_respawn() {
        use crate::faults::FaultInjector;
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let queries = workload();
        let direct: Vec<f64> = queries.iter().map(|q| sb.bound(q).unwrap()).collect();
        // One caller → the global query sequence is the batch's line
        // order. Panic on the first query of rounds 2 and 4.
        let qn = queries.len() as u64;
        let faults = FaultInjector::seeded(7)
            .panic_on_queries([qn, 3 * qn])
            .build();
        let service = BoundService::with_faults(sb, 1, faults);
        for round in 0..6u64 {
            let results = service.bound_batch(&queries);
            if round == 1 || round == 3 {
                // The whole batch is one take of a session: every line
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
    }
}
