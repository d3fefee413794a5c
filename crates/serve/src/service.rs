//! The sharded pool: N [`BoundSession`]s — one per shard, each behind its
//! own lock — up to N worker threads, and one shared [`SafeBound`] handle.
//!
//! See the crate docs for the layering. The service is synchronous by
//! design — callers block until their queries are answered — because the
//! bound itself runs in microseconds. A **single** query is answered on
//! the thread that asked whenever its shard's session is free
//! ([`BoundService::bound`], [`BoundService::bound_deadline`]): a channel
//! round trip to a worker costs ten times the literal-cache hit it would
//! buy. A **batch** goes to the workers: (a) true parallelism across
//! hardware threads and (b) one message per worker per batch, each worker
//! holding its shard's session — shape cache and arenas hot — across its
//! whole slice. Which of the two a single query takes is decided by the
//! shard's lock, never by an option: when a job (or another caller) holds
//! the session, the query queues behind it as a one-line batch.
//!
//! A shard's worker thread starts with the first job dispatched to it
//! (see `BoundService::dispatch`), not with the service: a service that
//! only ever answers single queries inline — a restart answering its
//! first queries, a connection sending one SQL line at a time — never
//! spawns or joins a thread.
//!
//! ## Self-healing
//!
//! The pool survives its own sessions and workers failing:
//!
//! * **Panic isolation** — every bound, on a worker or on the caller's
//!   thread, runs under `catch_unwind` *inside* the shard's lock. A panic
//!   mid-query answers every line of that job `ERR internal`
//!   (`EstimateError::Internal`) and replaces the shard's (possibly
//!   inconsistent) session with a fresh one before the lock is released;
//!   the thread — which owns nothing a panic could have corrupted — keeps
//!   serving. [`BoundService::worker_panics`] /
//!   [`BoundService::worker_respawns`] count the panics and the rebuilt
//!   sessions.
//! * **Deadlines** — [`BoundService::bound_batch_deadline`] and
//!   [`BoundService::bound_deadline`] bound how long a caller waits for
//!   *another* thread: a stuck or slow worker, or a shard held by someone
//!   else, degrades the unanswered lines to `EstimateError::Timeout`
//!   instead of wedging the caller; completed lines still return their
//!   real bounds ([`BoundService::worker_timeouts`]). A bound computed on
//!   the caller's own thread runs to completion — there is nobody to
//!   abandon it to (see the failure model in ROADMAP.md for its worst
//!   case).
//! * **No poison propagation** — all pool mutexes recover from poisoning
//!   (the guarded state is always fully formed; see
//!   [`lock_recover`](crate::lock_recover)) instead of cascading one
//!   panic into every later caller.

use crate::faults::{FaultInjector, WorkerFault};
use crate::{lock_recover, panic_message, try_lock_recover};
use safebound_core::simd::hash::FastMap;
use safebound_core::{BoundSession, EstimateError, SafeBound, SessionStats};
use safebound_query::Query;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of work shipped to a worker: a shared view of the batch plus
/// the indices this worker owns, and the channel to answer on.
struct Job {
    queries: Arc<[Query]>,
    indices: Vec<usize>,
    reply: mpsc::Sender<Reply>,
}

/// A worker's answers for its slice, tagged with the original indices.
struct Reply {
    indices: Vec<usize>,
    results: Vec<Result<f64, EstimateError>>,
}

/// State shared by the callers and every worker thread.
struct PoolShared {
    handle: SafeBound,
    /// One session per shard. A worker holds its shard's lock for the
    /// length of a job, a caller answering a single query inline for the
    /// length of that bound; nothing else ever takes it.
    sessions: Vec<Mutex<BoundSession>>,
    served: Vec<AtomicU64>,
    /// Per-shard session-counter snapshots, refreshed after every job and
    /// every inline request, so `STATS`-style observability never waits
    /// for a session lock that a long job is holding.
    session_stats: Vec<Mutex<SessionStats>>,
    faults: FaultInjector,
    /// Jobs and inline requests that panicked (their lines answered
    /// `ERR internal`).
    panics: AtomicU64,
    /// Sessions rebuilt from scratch after a panic.
    respawns: AtomicU64,
    /// Requests that hit their reply deadline with lines still unanswered.
    timeouts: AtomicU64,
}

impl PoolShared {
    /// Bound one query on a shard's session — the single body behind the
    /// worker loop and the inline path, fault hook included.
    fn bound_one(&self, query: &Query, session: &mut BoundSession) -> Result<f64, EstimateError> {
        match self.faults.on_worker_query() {
            WorkerFault::None => {}
            WorkerFault::Delay(d) => std::thread::sleep(d),
            #[expect(clippy::panic, reason = "seeded injected fault; `run` catches it")]
            WorkerFault::Panic => panic!("injected worker fault"),
        }
        self.handle.bound_with_session(query, session)
    }

    /// Run `work` — `lines` calls of [`PoolShared::bound_one`] — on shard
    /// `w`'s session, which the caller holds locked, under `catch_unwind`.
    /// Success counts the lines and publishes the session's counters. A
    /// panic may have left the session arbitrarily inconsistent: it is
    /// replaced in place, under the lock that is already held, and comes
    /// back as the `ERR internal` every line of `work` is answered with.
    fn run<T>(
        &self,
        w: usize,
        session: &mut BoundSession,
        lines: usize,
        work: impl FnOnce(&mut BoundSession) -> T,
    ) -> Result<T, EstimateError> {
        let outcome = match std::panic::catch_unwind(AssertUnwindSafe(|| work(session))) {
            Ok(out) => {
                self.served[w].fetch_add(lines as u64, Ordering::Relaxed);
                Ok(out)
            }
            Err(payload) => {
                *session = BoundSession::default();
                self.panics.fetch_add(1, Ordering::Relaxed);
                self.respawns.fetch_add(1, Ordering::Relaxed);
                Err(EstimateError::Internal(format!(
                    "worker panicked: {}",
                    panic_message(payload.as_ref())
                )))
            }
        };
        *lock_recover(&self.session_stats[w]) = session.stats();
        outcome
    }
}

/// One worker's dispatch endpoint. Both fields are `None` until the
/// shard's first job spawns its thread, and `sender` again in `Drop`;
/// `handle` is `None` when the thread failed to spawn (the next dispatch
/// retries).
#[derive(Default)]
struct WorkerSlot {
    sender: Option<mpsc::Sender<Job>>,
    handle: Option<JoinHandle<()>>,
}

impl WorkerSlot {
    /// Queue a job for the worker; hands the job back when nobody will
    /// ever read the queue.
    fn send(&self, job: Job) -> Result<(), Job> {
        match self.sender.as_ref() {
            Some(sender) => sender.send(job).map_err(|mpsc::SendError(job)| job),
            None => Err(job),
        }
    }
}

/// A sharded SafeBound serving pool.
///
/// Construction builds the sessions; each shard's worker thread is
/// spawned by the first batch job dispatched to it. Dropping the service
/// closes the queues of the workers that started and joins them. Clones
/// of the inner [`SafeBound`] handle stay valid — in particular, calling
/// [`SafeBound::swap_stats`](safebound_core::SafeBound::swap_stats) on
/// [`BoundService::estimator`] hot-swaps statistics under live traffic.
pub struct BoundService {
    shared: Arc<PoolShared>,
    slots: Vec<Mutex<WorkerSlot>>,
    /// Queries re-routed off their shape-affine worker by the batch
    /// load-balancer (see [`BoundService::bound_batch_shared`]).
    spills: AtomicU64,
    /// Request lines answered by batch-level deduplication instead of a
    /// worker dispatch (see [`BoundService::bound_batch_shared`]).
    dedup_hits: AtomicU64,
}

impl BoundService {
    /// A pool of `workers` shards (min 1) — a session each, and a worker
    /// thread once a batch reaches the shard — over the given handle.
    pub fn new(handle: SafeBound, workers: usize) -> Self {
        Self::with_faults(handle, workers, FaultInjector::disabled())
    }

    /// [`BoundService::new`] with a fault-injection schedule (chaos
    /// testing; see [`crate::faults`]). With
    /// [`FaultInjector::disabled`] this is exactly `new`.
    pub fn with_faults(handle: SafeBound, workers: usize, faults: FaultInjector) -> Self {
        let n = workers.max(1);
        let shared = Arc::new(PoolShared {
            handle,
            sessions: (0..n)
                .map(|_| Mutex::new(BoundSession::default()))
                .collect(),
            served: (0..n).map(|_| AtomicU64::new(0)).collect(),
            session_stats: (0..n)
                .map(|_| Mutex::new(SessionStats::default()))
                .collect(),
            faults,
            panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
        });
        let slots = (0..n).map(|_| Mutex::default()).collect();
        BoundService {
            shared,
            slots,
            spills: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
        }
    }

    /// The shared estimator handle (e.g. for
    /// [`swap_stats`](safebound_core::SafeBound::swap_stats) or direct
    /// out-of-pool use).
    pub fn estimator(&self) -> &SafeBound {
        &self.shared.handle
    }

    /// Number of shards (sessions, and worker threads once each shard has
    /// had a batch).
    pub fn num_workers(&self) -> usize {
        self.slots.len()
    }

    /// Queries served so far, per shard — by its worker or inline on a
    /// caller's thread (routing observability).
    pub fn served_per_worker(&self) -> Vec<u64> {
        self.shared
            .served
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Queries re-dealt off their shape-affine worker because one shard
    /// dominated a batch (load-balancing observability).
    pub fn spill_count(&self) -> u64 {
        self.spills.load(Ordering::Relaxed)
    }

    /// Request lines answered by intra-batch deduplication: identical
    /// `(shape, literal vector)` lines share one dispatched computation.
    pub fn batch_dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }

    /// Jobs and inline requests that panicked mid-query (their lines
    /// answered `ERR internal`, their shard's session rebuilt).
    pub fn worker_panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Sessions rebuilt from scratch after a panic — one per
    /// [`worker_panics`](BoundService::worker_panics). The name is the
    /// frozen `STATS` key's; no thread is respawned, the one that caught
    /// the panic keeps serving.
    pub fn worker_respawns(&self) -> u64 {
        self.shared.respawns.load(Ordering::Relaxed)
    }

    /// Requests whose reply deadline expired with lines still unanswered
    /// (those lines degraded to `ERR timeout`).
    pub fn worker_timeouts(&self) -> u64 {
        self.shared.timeouts.load(Ordering::Relaxed)
    }

    /// The pool-wide merge of every shard session's cache counters
    /// (shape cache, MCV memo, literal cache), as of
    /// each shard's most recently completed job or inline request.
    pub fn session_stats(&self) -> SessionStats {
        let mut total = SessionStats::default();
        for slot in self.shared.session_stats.iter() {
            total.merge(&lock_recover(slot));
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

    /// Bound one query on its shape-routed shard, on the calling thread
    /// when the shard's session is free — no channel, no allocation, the
    /// same warm caches the shard's batches use.
    ///
    /// When the session is held — a batch job is running on the shard, or
    /// another caller is inline on it — the query queues behind the
    /// holder as a one-line batch and `timeout` bounds the wait exactly as
    /// in [`BoundService::bound_batch_deadline`]
    /// ([`EstimateError::Timeout`]). The inline bound itself runs to
    /// completion: `timeout` limits waiting for other threads, not work
    /// on this one. Latency-bound clients are fine with this path;
    /// throughput-bound clients should use [`BoundService::bound_batch`].
    pub fn bound_deadline(
        &self,
        query: &Query,
        timeout: Option<Duration>,
    ) -> Result<f64, EstimateError> {
        let shared = &*self.shared;
        let w = (query.shape_hash() % self.slots.len() as u64) as usize;
        if let Some(mut session) = try_lock_recover(&shared.sessions[w]) {
            return shared
                .run(w, &mut session, 1, |s| shared.bound_one(query, s))
                .unwrap_or_else(Err);
        }
        let mut results = self.bound_batch_deadline(vec![query.clone()].into(), timeout);
        results.pop().unwrap_or_else(|| {
            Err(EstimateError::Internal(
                "bound_batch returned no result".to_string(),
            ))
        })
    }

    /// Bound a batch: queries are partitioned by shape hash across the
    /// pool, each worker answers its whole slice in one message, and
    /// results return in input order.
    ///
    /// Copies the slice once to share it with the workers; callers that
    /// already own their batch (or reuse one) should prefer
    /// [`BoundService::bound_batch_shared`], which ships the `Arc`
    /// directly.
    pub fn bound_batch(&self, queries: &[Query]) -> Vec<Result<f64, EstimateError>> {
        self.bound_batch_shared(queries.to_vec().into())
    }

    /// [`BoundService::bound_batch`] over an already-shared batch — the
    /// zero-copy dispatch path (only the `Arc` is cloned per worker).
    ///
    /// Identical request lines within the batch — same shape **and** same
    /// literal vector, confirmed by full query equality after the
    /// `(shape_hash, literal_fingerprint)` pre-key — are deduplicated
    /// before dispatch: one representative is computed, every duplicate
    /// receives a copy of its answer. Serving traffic is where literal
    /// repeats concentrate (dashboards, retries, fan-in of one template),
    /// so the batch hits each worker's literal cache once instead of
    /// shipping the same line N times ([`BoundService::batch_dedup_hits`]
    /// counts the lines answered this way).
    pub fn bound_batch_shared(&self, queries: Arc<[Query]>) -> Vec<Result<f64, EstimateError>> {
        self.bound_batch_deadline(queries, None)
    }

    /// [`BoundService::bound_batch_shared`] with an optional reply
    /// deadline. When `timeout` elapses before every worker has answered,
    /// the still-unanswered lines return [`EstimateError::Timeout`] and
    /// the call returns — a stuck worker degrades its lines instead of
    /// wedging the caller. Lines answered in time keep their real bounds.
    /// (The late worker's eventual reply goes to a dropped channel and is
    /// discarded; the worker itself stays up.)
    pub fn bound_batch_deadline(
        &self,
        queries: Arc<[Query]>,
        timeout: Option<Duration>,
    ) -> Vec<Result<f64, EstimateError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        #[expect(clippy::disallowed_methods, reason = "the batch reply deadline")]
        let deadline = timeout.map(|t| Instant::now() + t);
        let n = self.slots.len();
        let shared = queries;
        // One shape-hash walk per line, reused by dedup keying and shard
        // routing below.
        let hashes: Vec<u64> = shared.iter().map(Query::shape_hash).collect();
        // Dedup identical (shape, literal) lines onto a representative.
        let mut canon: Vec<usize> = (0..shared.len()).collect();
        if shared.len() > 1 {
            let mut groups: FastMap<(u64, u64), Vec<usize>> = FastMap::default();
            let mut hits = 0u64;
            for (i, q) in shared.iter().enumerate() {
                let key = (hashes[i], q.literal_fingerprint());
                let bucket = groups.entry(key).or_default();
                match bucket.iter().find(|&&j| shared[j] == *q) {
                    Some(&j) => {
                        canon[i] = j;
                        hits += 1;
                    }
                    None => bucket.push(i),
                }
            }
            if hits > 0 {
                self.dedup_hits.fetch_add(hits, Ordering::Relaxed);
            }
        }
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut uniques = 0usize;
        for (i, &canon_i) in canon.iter().enumerate() {
            if canon_i == i {
                parts[(hashes[i] % n as u64) as usize].push(i);
                uniques += 1;
            }
        }
        self.balance_parts(&mut parts, uniques);
        let (tx, rx) = mpsc::channel();
        let mut outstanding = 0usize;
        let mut out: Vec<Option<Result<f64, EstimateError>>> = vec![None; shared.len()];
        for (w, indices) in parts.into_iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let job = Job {
                queries: shared.clone(),
                indices,
                reply: tx.clone(),
            };
            self.dispatch(w, job);
            outstanding += 1;
        }
        drop(tx);
        let mut timed_out = false;
        for _ in 0..outstanding {
            let reply = match deadline {
                None => match rx.recv() {
                    Ok(r) => r,
                    // Every remaining reply sender is gone: a worker died
                    // without answering. The unanswered lines are filled
                    // with `ERR internal` below.
                    Err(_) => break,
                },
                #[expect(clippy::disallowed_methods, reason = "the batch reply deadline")]
                Some(d) => match rx.recv_timeout(d.saturating_duration_since(Instant::now())) {
                    Ok(r) => r,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        timed_out = true;
                        break;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                },
            };
            for (i, r) in reply.indices.into_iter().zip(reply.results) {
                out[i] = Some(r);
            }
        }
        if timed_out {
            self.shared.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        // Degrade representatives whose worker never answered.
        for (i, slot) in out.iter_mut().enumerate() {
            if canon[i] == i && slot.is_none() {
                *slot = Some(Err(if timed_out {
                    EstimateError::Timeout
                } else {
                    EstimateError::Internal("worker lost before answering".to_string())
                }));
            }
        }
        // Fan representatives' answers back out to their duplicates.
        // Every representative slot was filled (answered, or degraded in
        // the loop above); an empty one would be a dispatcher bug, so it
        // degrades to `ERR internal` rather than panicking the caller.
        (0..shared.len())
            .map(|i| {
                out[canon[i]].clone().unwrap_or_else(|| {
                    Err(EstimateError::Internal(
                        "representative answer missing".to_string(),
                    ))
                })
            })
            .collect()
    }

    /// Ship a job to worker `w`. This is the only place a worker starts. A
    /// worker thread never exits while the service lives — a panicked job
    /// costs its shard the session, not the thread — so a failed send
    /// means the thread has not started: this is the shard's first job, or
    /// its spawn failed under resource pressure. Spawn it and retry once.
    /// If even that worker is unreachable the job's lines are answered
    /// `ERR internal` on its own reply channel, so the caller counts every
    /// dispatched job as outstanding.
    fn dispatch(&self, w: usize, job: Job) {
        let mut slot = lock_recover(&self.slots[w]);
        let Err(job) = slot.send(job) else { return };
        if let Some(handle) = slot.handle.take() {
            let _ = handle.join();
        }
        *slot = spawn_worker(&self.shared, w);
        let Err(job) = slot.send(job) else { return };
        // Degrade this job's lines rather than wedge or panic; the next
        // dispatch retries the spawn.
        let results = job
            .indices
            .iter()
            .map(|_| Err(EstimateError::Internal("worker unavailable".to_string())))
            .collect();
        let _ = job.reply.send(Reply {
            indices: job.indices,
            results,
        });
    }

    /// Rebalance a shape-hash partition whose skew would serialize the
    /// batch: pure shape routing sends every instance of one template to
    /// the same worker, so a single-shape workload drives 1 of N workers.
    /// Any shard holding more than **twice its fair share** (and past a
    /// small floor, so short batches keep full cache affinity) is cut back
    /// to the fair share; the surplus is dealt to the least-loaded workers
    /// in contiguous runs. Balanced template mixes never trip the
    /// threshold, so the common case keeps exact shape→worker affinity.
    fn balance_parts(&self, parts: &mut [Vec<usize>], total: usize) {
        let n = parts.len();
        if n <= 1 || total == 0 {
            return;
        }
        let fair = total.div_ceil(n);
        let threshold = (2 * fair).max(SPILL_MIN);
        let mut spilled: Vec<usize> = Vec::new();
        for part in parts.iter_mut() {
            if part.len() > threshold {
                spilled.extend(part.drain(fair..));
            }
        }
        if spilled.is_empty() {
            return;
        }
        self.spills
            .fetch_add(spilled.len() as u64, Ordering::Relaxed);
        // Greedy deal: fill the least-loaded shard up to the fair share,
        // repeat. Terminates because the total fits in n × fair slots.
        while !spilled.is_empty() {
            let Some((target, len)) = parts
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.len()))
                .min_by_key(|&(_, len)| len)
            else {
                // No shards to deal into (n == 0 cannot reach here, but
                // degrade by dropping the spill rather than panicking).
                break;
            };
            let take = fair.saturating_sub(len).max(1).min(spilled.len());
            let at = spilled.len() - take;
            parts[target].extend(spilled.drain(at..));
        }
    }
}

/// Shards below this size never spill: for short batches the win of a warm
/// shape cache outweighs spreading a handful of queries over idle workers.
const SPILL_MIN: usize = 16;

impl Drop for BoundService {
    fn drop(&mut self) {
        // Closing the senders ends each started worker's recv loop; a
        // shard that never had a batch has no thread to join.
        let mut handles = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let mut slot = lock_recover(slot);
            slot.sender = None;
            if let Some(h) = slot.handle.take() {
                handles.push(h);
            }
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Spawn worker `w`'s thread and dispatch endpoint (from
/// `BoundService::dispatch` only). A failed thread spawn (resource
/// pressure) yields a slot whose sends fail — the dispatcher answers
/// `ERR internal` and retries the spawn on the next batch — instead of
/// panicking the caller.
fn spawn_worker(shared: &Arc<PoolShared>, w: usize) -> WorkerSlot {
    let (tx, rx) = mpsc::channel::<Job>();
    let shared = shared.clone();
    #[expect(clippy::disallowed_methods, reason = "the pool owns its workers")]
    let handle = std::thread::Builder::new()
        .name(format!("safebound-worker-{w}"))
        .spawn(move || worker_loop(w, shared, rx))
        .ok();
    WorkerSlot {
        sender: Some(tx),
        handle,
    }
}

/// A worker thread: jobs until the queue closes, each on shard `w`'s
/// session, locked once per job and released before the reply goes out
/// (a caller that reads the reply and asks again finds the shard free).
/// The thread owns no state of its own, so a job that panics — see
/// [`PoolShared::run`] — is answered `ERR internal` line for line and the
/// loop carries on.
fn worker_loop(w: usize, shared: Arc<PoolShared>, rx: mpsc::Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        let outcome = {
            let mut session = lock_recover(&shared.sessions[w]);
            shared.run(w, &mut session, job.indices.len(), |s| {
                job.indices
                    .iter()
                    .map(|&i| shared.bound_one(&job.queries[i], s))
                    .collect::<Vec<_>>()
            })
        };
        let results =
            outcome.unwrap_or_else(|e| job.indices.iter().map(|_| Err(e.clone())).collect());
        let _ = job.reply.send(Reply {
            indices: job.indices,
            results,
        });
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

    /// Each shard's worker thread, `None` while it has not started.
    fn worker_threads(service: &BoundService) -> Vec<Option<std::thread::ThreadId>> {
        service
            .slots
            .iter()
            .map(|slot| lock_recover(slot).handle.as_ref().map(|h| h.thread().id()))
            .collect()
    }

    #[test]
    fn workers_start_on_their_shards_first_batch() {
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let service = BoundService::new(sb.clone(), 4);
        assert_eq!(worker_threads(&service), [None; 4], "fresh service");
        let queries = workload();
        for q in &queries {
            assert_eq!(
                service.bound(q).unwrap().to_bits(),
                sb.bound(q).unwrap().to_bits()
            );
        }
        assert_eq!(
            worker_threads(&service),
            [None; 4],
            "inline single queries spawn no worker"
        );

        // A batch routed to one shard starts that shard's worker only.
        let shard = |q: &Query| (q.shape_hash() % 4) as usize;
        let home = shard(&queries[0]);
        let one_shard: Vec<Query> = queries
            .iter()
            .filter(|q| shard(q) == home)
            .cloned()
            .collect();
        service.bound_batch(&one_shard);
        let first = worker_threads(&service);
        for (w, thread) in first.iter().enumerate() {
            assert_eq!(thread.is_some(), w == home, "shard {w}: {first:?}");
        }
        service.bound_batch(&one_shard);
        assert_eq!(
            worker_threads(&service),
            first,
            "a second batch spawns no more"
        );

        // A batch over every template starts exactly the shards it
        // reaches; the running worker keeps its thread.
        let results = service.bound_batch(&queries);
        for (q, got) in queries.iter().zip(results) {
            assert_eq!(got.unwrap().to_bits(), sb.bound(q).unwrap().to_bits());
        }
        let all = worker_threads(&service);
        for (w, thread) in all.iter().enumerate() {
            assert_eq!(thread.is_some(), queries.iter().any(|q| shard(q) == w));
        }
        assert_eq!(all[home], first[home]);
        assert_eq!(service.num_workers(), 4, "shards are counted, not threads");
    }

    #[test]
    fn dropping_a_never_batched_service_joins_nothing() {
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let service = BoundService::new(sb, 2);
        for q in &workload() {
            service.bound(q).unwrap();
        }
        assert!(worker_threads(&service).iter().all(Option::is_none));
        // `Drop` finds no handle in any slot: nothing to close or join.
        drop(service);
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
        // Same batch twice: per-worker counters must double exactly
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
    }

    #[test]
    fn single_shape_batch_spills_to_idle_workers() {
        // One template repeated 64× routes to a single shard under pure
        // shape hashing; the balancer must deal the surplus out so the
        // batch actually parallelizes — without changing any result.
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let service = BoundService::new(sb.clone(), 4);
        // 64 *distinct* literals: deduplication must not collapse any of
        // them, so the whole batch still lands on one shape shard.
        let queries: Vec<Query> = (0..64)
            .map(|y| {
                parse_sql(&format!(
                    "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = {}",
                    1990 + y
                ))
                .unwrap()
            })
            .collect();
        let direct: Vec<f64> = queries.iter().map(|q| sb.bound(q).unwrap()).collect();
        let results = service.bound_batch(&queries);
        for ((q, want), got) in queries.iter().zip(&direct).zip(results) {
            assert_eq!(
                got.unwrap().to_bits(),
                want.to_bits(),
                "spilled routing changed the bound for {q:?}"
            );
        }
        let served = service.served_per_worker();
        assert_eq!(served.iter().sum::<u64>(), 64);
        assert!(
            served.iter().filter(|&&c| c > 0).count() >= 2,
            "single-shape batch must spread beyond its home shard: {served:?}"
        );
        // The overloaded shard was cut to its fair share (64 / 4 = 16).
        assert!(
            served.iter().all(|&c| c <= 16),
            "no worker may keep more than the fair share: {served:?}"
        );
        assert!(service.spill_count() > 0);
    }

    #[test]
    fn balanced_template_mix_keeps_affinity() {
        // A short multi-template batch stays under the spill floor: the
        // partition must be pure shape routing (deterministic, no spills).
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let service = BoundService::new(sb, 4);
        let queries = workload();
        service.bound_batch(&queries);
        assert_eq!(service.spill_count(), 0, "short batches must not spill");
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
        // 24 lines, 3 representatives dispatched, 21 answered by dedup.
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

    /// A single request whose shard is held by someone else takes the
    /// dispatch path and waits under its deadline; the other shard keeps
    /// answering inline; once the holder lets go the abandoned job drains
    /// into its dropped channel and the pool serves exactly again.
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

        let held = lock_recover(&service.shared.sessions[shard(held_q)]);
        let got = service.bound_deadline(held_q, Some(Duration::from_millis(50)));
        assert!(matches!(got, Err(EstimateError::Timeout)), "{got:?}");
        assert_eq!(service.worker_timeouts(), 1);
        assert_eq!(
            service.bound(free_q).unwrap().to_bits(),
            sb.bound(free_q).unwrap().to_bits(),
            "a held shard must not stall the other one"
        );
        drop(held);

        assert_eq!(
            service.bound(held_q).unwrap().to_bits(),
            sb.bound(held_q).unwrap().to_bits()
        );
        assert_eq!(service.worker_timeouts(), 1);
        assert_eq!(service.worker_panics(), 0);
        assert_eq!(service.worker_respawns(), 0);
    }

    /// Single requests on four threads and batches on a fifth, released
    /// together, share the two shards' sessions: every answer is the
    /// direct path's and every line is counted exactly once, whichever of
    /// the two paths a single request happened to take.
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

    /// A panic on the caller's own thread is isolated exactly like one on
    /// a worker: `ERR internal` for that request, a fresh session for the
    /// shard, no poisoned lock, exact bounds afterwards.
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
        assert!(!service.shared.sessions[0].is_poisoned());
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
    /// lives in `tests/chaos.rs`): a 1-worker pool with injected panics
    /// answers the panicked job's lines `ERR internal`, rebuilds the
    /// session, and keeps serving bit-identical bounds.
    #[test]
    fn injected_panics_degrade_and_respawn() {
        use crate::faults::FaultInjector;
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        let queries = workload();
        let direct: Vec<f64> = queries.iter().map(|q| sb.bound(q).unwrap()).collect();
        // One worker → the global query sequence is the serial dispatch
        // order. Panic on the first query of rounds 2 and 4.
        let qn = queries.len() as u64;
        let faults = FaultInjector::seeded(7)
            .panic_on_queries([qn, 3 * qn])
            .build();
        let service = BoundService::with_faults(sb, 1, faults);
        for round in 0..6u64 {
            let results = service.bound_batch(&queries);
            if round == 1 || round == 3 {
                // The whole job is one worker slice: every line degrades.
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

    /// A stalled worker must degrade its lines to `ERR timeout` without
    /// losing the lines other workers answered, and without killing the
    /// (merely slow) worker.
    #[test]
    fn injected_delay_degrades_to_timeout() {
        use crate::faults::FaultInjector;
        let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
        // Delay the very first worker query long enough that the deadline
        // certainly fires first.
        let faults = FaultInjector::seeded(7)
            .delay_queries([0], Duration::from_millis(400))
            .build();
        let service = BoundService::with_faults(sb.clone(), 1, faults);
        let queries = workload();
        let results =
            service.bound_batch_deadline(queries.clone().into(), Some(Duration::from_millis(50)));
        assert_eq!(results.len(), queries.len());
        assert!(
            results
                .iter()
                .all(|r| matches!(r, Err(EstimateError::Timeout))),
            "all lines of the stalled worker's job must degrade: {results:?}"
        );
        assert_eq!(service.worker_timeouts(), 1);
        assert_eq!(service.worker_panics(), 0);
        // The worker was slow, not dead: once the delay passes it drains
        // its queue and the pool serves normally again (no respawn).
        let direct: Vec<f64> = queries.iter().map(|q| sb.bound(q).unwrap()).collect();
        let retry = service.bound_batch_deadline(queries.into(), Some(Duration::from_secs(30)));
        for (want, got) in direct.iter().zip(&retry) {
            assert_eq!(got.as_ref().unwrap().to_bits(), want.to_bits());
        }
        assert_eq!(service.worker_respawns(), 0);
    }
}
