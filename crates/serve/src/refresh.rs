//! Serving lifecycle: background statistics refresh and cooperative
//! shutdown.
//!
//! [`StatsRefresher`] owns the background half of the hot-swap story PR 3
//! started: a dedicated thread rebuilds a
//! [`StatsSnapshot`] from a caller-provided
//! source (usually the live catalog) on a configurable cadence and/or on
//! demand, and publishes it through
//! [`SafeBound::swap_stats`](safebound_core::SafeBound::swap_stats) — so
//! rebuilds never run in a serving thread, and live traffic keeps flowing
//! while statistics are replaced underneath it.
//!
//! ## Surviving a failing source
//!
//! The source is fallible (`Result<StatsSnapshot, String>`), and a source
//! that panics is caught and treated as a failure. A failed build **never
//! unpublishes the last-good snapshot** — serving continues on whatever
//! was last swapped in — and the refresher itself keeps running: cadence
//! rebuilds retry under capped exponential backoff with deterministic
//! jitter ([`RefreshConfig::backoff_base`] / `backoff_cap`), while an
//! explicit demand ([`StatsRefresher::refresh_blocking`], the `REFRESH`
//! verb) always triggers an immediate attempt and reports that attempt's
//! error to the requester instead of hanging. Failure count and the last
//! error are observable ([`StatsRefresher::failure_count`],
//! [`StatsRefresher::last_error`]) and surfaced in `STATS`.
//!
//! [`ShutdownToken`] is the cooperative stop signal threaded through the
//! whole serving stack: the accept loop polls it between accepts,
//! connection handlers poll it on their read tick, and the refresher polls
//! it between rebuilds. Triggering the token drains everything; every
//! thread is joined on the way out (the server joins its handlers, and
//! the refresher joins in [`StatsRefresher::stop`]/`Drop`; the
//! [`BoundService`](crate::BoundService) owns no thread).
//!
//! ## Delta-driven refresh
//!
//! [`DeltaSource`] is an incremental alternative to the usual
//! rescan-the-catalog source closure: it owns an
//! [`IncrementalBuilder`] plus a queue
//! of pending [`CatalogDelta`]s. Writers [`submit`](DeltaSource::submit)
//! deltas from any thread; each refresher build attempt drains the queue,
//! applies the deltas to the owned catalog (maintaining statistics
//! incrementally — absorbing insert-only batches, rebuilding single tables
//! otherwise), and publishes a snapshot **bit-identical** to a full
//! rebuild of the mutated catalog. Submitting does not itself trigger a
//! build: pair the source with a refresh cadence, or call
//! [`StatsRefresher::refresh_blocking`] (the `REFRESH` verb) after a batch
//! of submissions to publish deterministically.

//! ## File-backed snapshots
//!
//! The refresher integrates with the crash-safe snapshot store
//! ([`safebound_core::snapshot_file`]) on both ends. A **file source**
//! ([`file_source`], [`StatsRefresher::spawn_file`]) reloads statistics
//! from a snapshot file on every build attempt — the replica-fleet shape,
//! where one builder writes and many servers load. A bad file (torn,
//! corrupted, truncated, version-skewed) is a typed load error that flows
//! through the normal failure path: the last-good snapshot stays
//! published, the attempt counts toward `refresh_failures`/backoff, and a
//! dedicated `snapshot_load_failures` counter feeds `STATS`. On the other
//! end, [`RefreshConfig::save_path`] enables **save-on-publish**: every
//! successfully built snapshot is also persisted (atomically) after it is
//! swapped in, and a failed save never fails the refresh.

// Owns the refresher thread, its cadence and its backoff.
#![allow(clippy::disallowed_methods)]

use crate::faults::FaultInjector;
use crate::{lock_recover, panic_message};
use safebound_core::{IncrementalBuilder, SafeBound, SafeBoundConfig, StatsSnapshot};
use safebound_storage::{Catalog, CatalogDelta};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A cooperatively polled shutdown signal shared by every serving thread.
///
/// Cloning is cheap; all clones observe the same flag. Threads are
/// expected to check [`ShutdownToken::is_triggered`] at their natural
/// pause points (accept polls, read timeouts, refresh waits) and unwind
/// cleanly — nothing is interrupted mid-request.
#[derive(Clone, Debug, Default)]
pub struct ShutdownToken {
    inner: Arc<AtomicBool>,
}

impl ShutdownToken {
    /// A fresh, untriggered token.
    pub fn new() -> Self {
        ShutdownToken::default()
    }

    /// Signal shutdown to every clone of this token (idempotent).
    pub fn trigger(&self) {
        self.inner.store(true, Ordering::Release);
    }

    /// Whether shutdown has been signalled.
    pub fn is_triggered(&self) -> bool {
        self.inner.load(Ordering::Acquire)
    }
}

/// Why a refresh request did not publish a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefreshError {
    /// The refresher stopped before completing the request.
    Stopped,
    /// The build attempt covering the request failed (source error or
    /// source panic); the last-good snapshot is still being served.
    Failed(String),
}

impl std::fmt::Display for RefreshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefreshError::Stopped => write!(f, "refresher stopped"),
            RefreshError::Failed(reason) => write!(f, "{reason}"),
        }
    }
}

/// When (and how persistently) the background refresher rebuilds.
#[derive(Clone, Debug)]
pub struct RefreshConfig {
    /// Rebuild cadence; `None` disables periodic rebuilds (the refresher
    /// then only rebuilds on demand — the `REFRESH` protocol verb or
    /// [`StatsRefresher::refresh_blocking`]).
    pub interval: Option<Duration>,
    /// How often the idle refresher re-checks the shutdown token.
    pub tick: Duration,
    /// First retry delay after a failed cadence build; doubles per
    /// consecutive failure (±25% deterministic jitter) up to
    /// [`RefreshConfig::backoff_cap`]. On-demand requests bypass the
    /// backoff — demand always attempts immediately.
    pub backoff_base: Duration,
    /// Upper bound on the failure-retry delay.
    pub backoff_cap: Duration,
    /// Save-on-publish: when set, every successfully built snapshot is
    /// also persisted to this path (atomic tmp+rename write,
    /// [`safebound_core::save_snapshot`]) right after it is swapped in.
    /// A failed save never fails the refresh — it is counted in
    /// [`StatsRefresher::snapshot_save_failures`] and serving continues
    /// on the published snapshot.
    pub save_path: Option<PathBuf>,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig {
            interval: None,
            tick: Duration::from_millis(100),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
            save_path: None,
        }
    }
}

/// Coordination state shared between the refresher thread and requesters.
#[derive(Debug, Default)]
struct RefreshState {
    /// Total on-demand refresh requests issued. Requests coalesce: one
    /// build attempt satisfies every request issued before it **started**.
    requests: u64,
    /// All requests ≤ this were issued before some **successful** rebuild
    /// started (i.e. are satisfied by a published snapshot).
    completed_through: u64,
    /// All requests ≤ this (and > `completed_through`) were covered by a
    /// **failed** build attempt; their requesters get the error.
    failed_through: u64,
    /// Completed rebuild+publish cycles.
    generation: u64,
    /// Build id of the most recently published snapshot (0 = none yet).
    last_build_id: u64,
    /// Total failed build attempts since spawn.
    failures: u64,
    /// Failed attempts since the last success (drives the backoff).
    consecutive_failures: u32,
    /// Reason of the most recent failed attempt.
    last_error: Option<String>,
    /// Snapshots persisted by save-on-publish ([`RefreshConfig::save_path`]).
    snapshot_saves: u64,
    /// Save-on-publish attempts that failed (refresh itself succeeded).
    snapshot_save_failures: u64,
    /// Stop requested via [`StatsRefresher::stop`] (the shared shutdown
    /// token stops the refresher too; this flag stops only the refresher).
    stop_requested: bool,
    /// The refresher thread has exited.
    stopped: bool,
}

#[derive(Debug)]
struct RefreshShared {
    state: Mutex<RefreshState>,
    cv: Condvar,
}

/// SplitMix64 step — deterministic backoff jitter (no RNG dependency).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Retry delay after the `consecutive`-th straight failure (1-based):
/// capped exponential with ±25% deterministic jitter, so a fleet of
/// replicas refreshing from one failing source doesn't retry in lockstep.
fn backoff_delay(config: &RefreshConfig, consecutive: u32, failures: u64) -> Duration {
    let exp = consecutive.saturating_sub(1).min(16);
    let base = config
        .backoff_base
        .saturating_mul(1u32 << exp)
        .min(config.backoff_cap);
    // Jitter in [-25%, +25%], derived from the failure ordinal.
    let jitter_permille = (mix(failures) % 501) as i64 - 250;
    let nanos = base.as_nanos() as i64;
    Duration::from_nanos((nanos + nanos * jitter_permille / 1000).max(0) as u64)
}

/// A background thread that rebuilds statistics and hot-swaps them into a
/// [`SafeBound`] handle — periodically, on demand, or both.
///
/// Construction spawns the thread; [`StatsRefresher::stop`] (or `Drop`)
/// joins it. The refresher never blocks serving threads: rebuilds run
/// entirely on its own thread and publish atomically via `swap_stats`,
/// and in-flight queries finish on the snapshot they started with. Failed
/// builds never unpublish the last-good snapshot (see the module docs).
pub struct StatsRefresher {
    shared: Arc<RefreshShared>,
    thread: Mutex<Option<JoinHandle<()>>>,
    /// Failed snapshot-file loads, shared with the source closure when
    /// the refresher reads from a file ([`StatsRefresher::spawn_file`])
    /// and surfaced in the server's `STATS` line.
    snapshot_load_failures: Arc<AtomicU64>,
}

impl std::fmt::Debug for StatsRefresher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock_recover(&self.shared.state);
        f.debug_struct("StatsRefresher")
            .field("generation", &st.generation)
            .field("last_build_id", &st.last_build_id)
            .field("failures", &st.failures)
            .field("stopped", &st.stopped)
            .finish()
    }
}

impl StatsRefresher {
    /// Spawn a refresher over `handle`. `source` produces each fresh
    /// snapshot (it runs on the refresher thread; typically it re-scans a
    /// catalog through `SafeBoundBuilder`) or reports why it couldn't.
    /// The refresher exits when `shutdown` triggers or
    /// [`StatsRefresher::stop`] is called.
    pub fn spawn(
        handle: SafeBound,
        source: impl FnMut() -> Result<StatsSnapshot, String> + Send + 'static,
        config: RefreshConfig,
        shutdown: ShutdownToken,
    ) -> Self {
        Self::spawn_with_faults(handle, source, config, shutdown, FaultInjector::disabled())
    }

    /// [`StatsRefresher::spawn`] with a fault-injection schedule (chaos
    /// testing; see [`crate::faults`]): injected build failures replace
    /// the source call for the scheduled attempts.
    pub fn spawn_with_faults(
        handle: SafeBound,
        mut source: impl FnMut() -> Result<StatsSnapshot, String> + Send + 'static,
        config: RefreshConfig,
        shutdown: ShutdownToken,
        faults: FaultInjector,
    ) -> Self {
        let shared = Arc::new(RefreshShared {
            state: Mutex::new(RefreshState::default()),
            cv: Condvar::new(),
        });
        let thread_shared = shared.clone();
        let thread = std::thread::Builder::new()
            .name("safebound-refresh".to_string())
            .spawn(move || {
                let mut last_build = Instant::now();
                let mut backoff_until: Option<Instant> = None;
                loop {
                    // Wait for demand, cadence (delayed by any failure
                    // backoff), or shutdown.
                    let satisfies = {
                        let mut st = lock_recover(&thread_shared.state);
                        loop {
                            if shutdown.is_triggered() || st.stop_requested {
                                st.stopped = true;
                                thread_shared.cv.notify_all();
                                return;
                            }
                            // Demand overrides the backoff: an operator
                            // asking for a refresh wants the attempt (and
                            // its error, if any) now.
                            if st.requests > st.completed_through.max(st.failed_through) {
                                break st.requests;
                            }
                            let wait = match config.interval {
                                Some(iv) => {
                                    let mut due = last_build + iv;
                                    if let Some(b) = backoff_until {
                                        due = due.max(b);
                                    }
                                    let now = Instant::now();
                                    if now >= due {
                                        break st.requests;
                                    }
                                    (due - now).min(config.tick)
                                }
                                None => config.tick,
                            };
                            let (guard, _) = thread_shared
                                .cv
                                .wait_timeout(st, wait)
                                .unwrap_or_else(PoisonError::into_inner);
                            st = guard;
                        }
                    };
                    // Build outside the lock: requesters and observers
                    // stay responsive during the (potentially long) build.
                    // A panicking source is a failure, not a dead
                    // refresher.
                    let built = match faults.on_refresh_build() {
                        Some(reason) => Err(reason),
                        None => std::panic::catch_unwind(AssertUnwindSafe(&mut source))
                            .unwrap_or_else(|payload| {
                                Err(format!(
                                    "snapshot source panicked: {}",
                                    panic_message(payload.as_ref())
                                ))
                            }),
                    };
                    last_build = Instant::now();
                    // Publish and (optionally) persist before taking the
                    // state lock: the save is file I/O and must not block
                    // requesters polling the refresher.
                    let built = built.map(|snapshot| {
                        let published = handle.swap_stats(snapshot);
                        let saved = config
                            .save_path
                            .as_deref()
                            .map(|p| safebound_core::save_snapshot(p, &published));
                        (published.build_id, saved)
                    });
                    let mut st = lock_recover(&thread_shared.state);
                    match built {
                        Ok((build_id, saved)) => {
                            st.generation += 1;
                            st.last_build_id = build_id;
                            st.completed_through = satisfies;
                            st.consecutive_failures = 0;
                            backoff_until = None;
                            match saved {
                                None => {}
                                Some(Ok(_)) => st.snapshot_saves += 1,
                                // A failed save is an observable wart, not
                                // a failed refresh: the snapshot IS
                                // published and serving.
                                Some(Err(e)) => {
                                    st.snapshot_save_failures += 1;
                                    st.last_error = Some(format!("snapshot save: {e}"));
                                }
                            }
                        }
                        Err(reason) => {
                            st.failures += 1;
                            st.consecutive_failures += 1;
                            st.last_error = Some(reason);
                            st.failed_through = satisfies;
                            backoff_until = Some(
                                last_build
                                    + backoff_delay(&config, st.consecutive_failures, st.failures),
                            );
                        }
                    }
                    thread_shared.cv.notify_all();
                }
            });
        // A failed thread spawn (resource pressure) yields a refresher
        // that is born stopped, with the reason recorded — callers see
        // `RefreshError::Stopped` / `last_error` instead of a panic.
        let thread = match thread {
            Ok(t) => Some(t),
            Err(e) => {
                let mut st = lock_recover(&shared.state);
                st.stopped = true;
                st.last_error = Some(format!("failed to spawn refresh thread: {e}"));
                None
            }
        };
        StatsRefresher {
            shared,
            thread: Mutex::new(thread),
            snapshot_load_failures: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Spawn a refresher whose source reloads statistics from a snapshot
    /// file ([`safebound_core::load_snapshot`]) on every build attempt —
    /// the replica-fleet shape, where a builder elsewhere publishes the
    /// file atomically and this process just re-reads it. A bad file is a
    /// typed failure through the normal machinery: last-good stays
    /// published, the attempt backs off, and
    /// [`StatsRefresher::snapshot_load_failures`] (surfaced in `STATS`)
    /// increments.
    pub fn spawn_file(
        handle: SafeBound,
        path: PathBuf,
        config: RefreshConfig,
        shutdown: ShutdownToken,
    ) -> Self {
        let failures = Arc::new(AtomicU64::new(0));
        let source = file_source(path, failures.clone());
        let mut refresher =
            Self::spawn_with_faults(handle, source, config, shutdown, FaultInjector::disabled());
        refresher.snapshot_load_failures = failures;
        refresher
    }

    /// Request a rebuild and block until a build attempt started after
    /// this call finishes. On success returns `(build_id, generation)` of
    /// the published snapshot; a failed attempt returns
    /// [`RefreshError::Failed`] with the source's reason (the last-good
    /// snapshot stays published), and a refresher that stopped first
    /// returns [`RefreshError::Stopped`]. Never hangs on a failing
    /// source.
    pub fn refresh_blocking(&self) -> Result<(u64, u64), RefreshError> {
        let mut st = lock_recover(&self.shared.state);
        if st.stopped {
            return Err(RefreshError::Stopped);
        }
        st.requests += 1;
        let my = st.requests;
        self.shared.cv.notify_all();
        loop {
            if st.completed_through >= my {
                return Ok((st.last_build_id, st.generation));
            }
            if st.failed_through >= my {
                let reason = st
                    .last_error
                    .clone()
                    .unwrap_or_else(|| "unknown build failure".to_string());
                return Err(RefreshError::Failed(reason));
            }
            if st.stopped {
                return Err(RefreshError::Stopped);
            }
            st = self
                .shared
                .cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Completed rebuild+publish cycles since spawn.
    pub fn generation(&self) -> u64 {
        lock_recover(&self.shared.state).generation
    }

    /// Build id of the most recently published snapshot (0 = none yet).
    pub fn last_build_id(&self) -> u64 {
        lock_recover(&self.shared.state).last_build_id
    }

    /// Total failed build attempts since spawn.
    pub fn failure_count(&self) -> u64 {
        lock_recover(&self.shared.state).failures
    }

    /// Failed attempts since the last successful build (0 when healthy).
    pub fn consecutive_failures(&self) -> u32 {
        lock_recover(&self.shared.state).consecutive_failures
    }

    /// Reason of the most recent failed build attempt, if any.
    pub fn last_error(&self) -> Option<String> {
        lock_recover(&self.shared.state).last_error.clone()
    }

    /// Whether the refresher thread has exited.
    pub fn is_stopped(&self) -> bool {
        lock_recover(&self.shared.state).stopped
    }

    /// Failed snapshot-file loads by this refresher's file source
    /// (always 0 for non-file sources unless
    /// [`StatsRefresher::snapshot_load_failure_counter`] is shared with
    /// a custom source).
    pub fn snapshot_load_failures(&self) -> u64 {
        self.snapshot_load_failures.load(Ordering::Relaxed)
    }

    /// The shared counter behind
    /// [`StatsRefresher::snapshot_load_failures`] — hand it to a custom
    /// [`file_source`] so its failures surface here (and in `STATS`).
    pub fn snapshot_load_failure_counter(&self) -> Arc<AtomicU64> {
        self.snapshot_load_failures.clone()
    }

    /// Snapshots persisted by save-on-publish
    /// ([`RefreshConfig::save_path`]).
    pub fn snapshot_saves(&self) -> u64 {
        lock_recover(&self.shared.state).snapshot_saves
    }

    /// Save-on-publish attempts that failed (the refresh itself
    /// succeeded and the snapshot is serving).
    pub fn snapshot_save_failures(&self) -> u64 {
        lock_recover(&self.shared.state).snapshot_save_failures
    }

    /// Stop the refresher and join its thread (idempotent). A rebuild in
    /// flight completes (and publishes, if it succeeds) first; requests it
    /// doesn't cover are woken with [`RefreshError::Stopped`].
    pub fn stop(&self) {
        {
            let mut st = lock_recover(&self.shared.state);
            st.stop_requested = true;
            self.shared.cv.notify_all();
        }
        if let Some(handle) = lock_recover(&self.thread).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for StatsRefresher {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Shared state behind a [`DeltaSource`]: the incremental builder plus
/// the queue of deltas submitted but not yet applied by a build attempt.
#[derive(Debug)]
struct DeltaSourceInner {
    builder: IncrementalBuilder,
    pending: VecDeque<CatalogDelta>,
    applied: u64,
    rejected: u64,
}

/// A snapshot source that maintains statistics **incrementally** from
/// submitted [`CatalogDelta`]s instead of rescanning the whole catalog.
///
/// Cloning is cheap and every clone shares the same builder and queue:
/// keep one clone on the write path (calling [`DeltaSource::submit`]) and
/// hand [`DeltaSource::source`] to [`StatsRefresher::spawn`]. Each build
/// attempt drains the queue in submission order and publishes a snapshot
/// bit-identical in bounds to a from-scratch build of the mutated catalog
/// (see [`safebound_core::incremental`]).
///
/// A delta that fails validation (unknown table, arity/type mismatch,
/// delete out of range) is **dropped** — the catalog and statistics are
/// untouched by it — and that build attempt reports the error through the
/// refresher's normal failure path (last-good snapshot stays published).
/// Deltas queued behind it survive and are applied by the next attempt.
#[derive(Clone, Debug)]
pub struct DeltaSource {
    inner: Arc<Mutex<DeltaSourceInner>>,
}

impl DeltaSource {
    /// Build initial statistics for `catalog` (sharded partition path)
    /// and wrap them for delta-driven refresh.
    pub fn new(catalog: Catalog, config: SafeBoundConfig) -> Self {
        Self::from_builder(IncrementalBuilder::new(catalog, config))
    }

    /// Wrap an already-initialised incremental builder.
    pub fn from_builder(builder: IncrementalBuilder) -> Self {
        DeltaSource {
            inner: Arc::new(Mutex::new(DeltaSourceInner {
                builder,
                pending: VecDeque::new(),
                applied: 0,
                rejected: 0,
            })),
        }
    }

    /// A snapshot of the current statistics — serve this before the first
    /// refresher build (e.g. seed `SafeBound::from_stats`).
    pub fn snapshot(&self) -> StatsSnapshot {
        lock_recover(&self.inner).builder.snapshot()
    }

    /// A copy of the owned catalog as of the deltas applied so far
    /// (pending submissions are not reflected yet). Intended for tests
    /// and oracles; clones the data.
    pub fn catalog(&self) -> Catalog {
        lock_recover(&self.inner).builder.catalog().clone()
    }

    /// Queue a delta for the next build attempt. Returns the number of
    /// deltas now pending. Does not block on statistics work.
    pub fn submit(&self, delta: CatalogDelta) -> usize {
        let mut inner = lock_recover(&self.inner);
        inner.pending.push_back(delta);
        inner.pending.len()
    }

    /// Deltas submitted but not yet applied by a build attempt.
    pub fn pending(&self) -> usize {
        lock_recover(&self.inner).pending.len()
    }

    /// Deltas successfully applied since construction.
    pub fn applied(&self) -> u64 {
        lock_recover(&self.inner).applied
    }

    /// Deltas dropped because they failed validation.
    pub fn rejected(&self) -> u64 {
        lock_recover(&self.inner).rejected
    }

    /// The source closure to hand to [`StatsRefresher::spawn`]: drains
    /// pending deltas in order, then returns a fresh snapshot. On a
    /// validation error the offending delta is dropped and the error is
    /// reported (deltas applied earlier in the same drain are kept — they
    /// publish with the next successful attempt).
    pub fn source(&self) -> impl FnMut() -> Result<StatsSnapshot, String> + Send + 'static {
        let inner = self.inner.clone();
        move || {
            let mut inner = lock_recover(&inner);
            while let Some(delta) = inner.pending.pop_front() {
                match inner.builder.apply(&delta) {
                    Ok(_) => inner.applied += 1,
                    Err(err) => {
                        inner.rejected += 1;
                        return Err(format!("delta rejected: {err}"));
                    }
                }
            }
            Ok(inner.builder.snapshot())
        }
    }
}

/// A refresher source that loads each snapshot from a file written by
/// [`safebound_core::save_snapshot`]. Every load failure — missing file,
/// I/O error, corruption, truncation, version skew — increments
/// `failures` and reports a typed message through the refresher's normal
/// failure path, so the last-good snapshot keeps serving. Pair with
/// [`StatsRefresher::snapshot_load_failure_counter`] to surface the
/// count in `STATS`, or use [`StatsRefresher::spawn_file`] which wires
/// it automatically.
pub fn file_source(
    path: PathBuf,
    failures: Arc<AtomicU64>,
) -> impl FnMut() -> Result<StatsSnapshot, String> + Send + 'static {
    move || match safebound_core::load_snapshot(&path) {
        Ok(snapshot) => Ok(snapshot),
        Err(e) => {
            failures.fetch_add(1, Ordering::Relaxed);
            Err(format!("snapshot load: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safebound_core::{SafeBoundBuilder, SafeBoundConfig};
    use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "r",
            Schema::new(vec![Field::new("x", DataType::Int)]),
            vec![Column::from_ints([1, 1, 2, 3].map(Some))],
        ));
        c
    }

    #[test]
    fn on_demand_refresh_publishes_new_build() {
        let cat = catalog();
        let sb = SafeBound::build(&cat, SafeBoundConfig::test_small());
        let first_build = sb.build_id();
        let refresher = StatsRefresher::spawn(
            sb.clone(),
            move || Ok(SafeBoundBuilder::new(SafeBoundConfig::test_small()).build(&cat)),
            RefreshConfig::default(),
            ShutdownToken::new(),
        );
        let (id1, gen1) = refresher.refresh_blocking().expect("refresh completes");
        assert_ne!(id1, first_build);
        assert_eq!(sb.build_id(), id1);
        assert_eq!(gen1, 1);
        let (id2, gen2) = refresher.refresh_blocking().expect("refresh completes");
        assert_ne!(id2, id1);
        assert_eq!(gen2, 2);
        assert_eq!(sb.swap_count(), 2);
        refresher.stop();
        assert!(refresher.is_stopped());
        assert_eq!(refresher.refresh_blocking(), Err(RefreshError::Stopped));
    }

    #[test]
    fn periodic_refresh_swaps_on_cadence() {
        let cat = catalog();
        let sb = SafeBound::build(&cat, SafeBoundConfig::test_small());
        let refresher = StatsRefresher::spawn(
            sb.clone(),
            move || Ok(SafeBoundBuilder::new(SafeBoundConfig::test_small()).build(&cat)),
            RefreshConfig {
                interval: Some(Duration::from_millis(20)),
                tick: Duration::from_millis(5),
                ..RefreshConfig::default()
            },
            ShutdownToken::new(),
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while sb.swap_count() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(sb.swap_count() >= 2, "cadence must drive repeated swaps");
        assert!(refresher.generation() >= 2);
        assert_eq!(refresher.last_build_id(), sb.build_id());
        refresher.stop();
        let after = sb.swap_count();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(sb.swap_count(), after, "stopped refresher must not swap");
    }

    #[test]
    fn shared_shutdown_token_stops_refresher() {
        let cat = catalog();
        let sb = SafeBound::build(&cat, SafeBoundConfig::test_small());
        let shutdown = ShutdownToken::new();
        let refresher = StatsRefresher::spawn(
            sb.clone(),
            move || Ok(SafeBoundBuilder::new(SafeBoundConfig::test_small()).build(&cat)),
            RefreshConfig {
                interval: None,
                tick: Duration::from_millis(5),
                ..RefreshConfig::default()
            },
            shutdown.clone(),
        );
        shutdown.trigger();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !refresher.is_stopped() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(refresher.is_stopped());
        refresher.stop(); // idempotent join
    }

    /// A failing source must not unpublish the last-good snapshot, must
    /// answer on-demand requesters with the error (never hang), and must
    /// recover seamlessly once the source heals.
    #[test]
    fn failing_source_keeps_last_good_and_recovers() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cat = catalog();
        let sb = SafeBound::build(&cat, SafeBoundConfig::test_small());
        let initial_build = sb.build_id();
        let attempts = Arc::new(AtomicU64::new(0));
        let source_attempts = attempts.clone();
        // Attempts 1–2 fail, attempt 3 panics, later attempts succeed.
        let refresher = StatsRefresher::spawn(
            sb.clone(),
            move || {
                let n = source_attempts.fetch_add(1, Ordering::Relaxed) + 1;
                match n {
                    1 | 2 => Err(format!("transient source failure #{n}")),
                    3 => panic!("source blew up on attempt {n}"),
                    _ => Ok(SafeBoundBuilder::new(SafeBoundConfig::test_small()).build(&cat)),
                }
            },
            RefreshConfig {
                backoff_base: Duration::from_millis(1),
                ..RefreshConfig::default()
            },
            ShutdownToken::new(),
        );
        for want in ["transient source failure #1", "transient source failure #2"] {
            match refresher.refresh_blocking() {
                Err(RefreshError::Failed(reason)) => assert_eq!(reason, want),
                other => panic!("expected Failed({want:?}), got {other:?}"),
            }
            assert_eq!(
                sb.build_id(),
                initial_build,
                "last-good must stay published"
            );
            assert_eq!(sb.swap_count(), 0);
        }
        match refresher.refresh_blocking() {
            Err(RefreshError::Failed(reason)) => {
                assert!(reason.contains("source panicked"), "{reason:?}");
                assert!(reason.contains("attempt 3"), "{reason:?}");
            }
            other => panic!("expected panic-failure, got {other:?}"),
        }
        assert_eq!(refresher.failure_count(), 3);
        assert_eq!(refresher.consecutive_failures(), 3);
        assert!(refresher.last_error().is_some());
        // Recovery: the next demand publishes a fresh build.
        let (build, generation) = refresher.refresh_blocking().expect("source healed");
        assert_ne!(build, initial_build);
        assert_eq!(generation, 1);
        assert_eq!(sb.build_id(), build);
        assert_eq!(refresher.consecutive_failures(), 0, "success resets streak");
        assert_eq!(refresher.failure_count(), 3, "total failures persist");
        refresher.stop();
    }

    /// Cadence rebuilds against a persistently failing source back off
    /// exponentially (bounded attempts in a window) instead of hot-looping,
    /// and never swap.
    #[test]
    fn cadence_failures_back_off() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cat = catalog();
        let sb = SafeBound::build(&cat, SafeBoundConfig::test_small());
        let attempts = Arc::new(AtomicU64::new(0));
        let source_attempts = attempts.clone();
        let refresher = StatsRefresher::spawn(
            sb.clone(),
            move || {
                source_attempts.fetch_add(1, Ordering::Relaxed);
                Err("down".to_string())
            },
            RefreshConfig {
                interval: Some(Duration::from_millis(1)),
                tick: Duration::from_millis(1),
                backoff_base: Duration::from_millis(30),
                backoff_cap: Duration::from_millis(200),
                save_path: None,
            },
            ShutdownToken::new(),
        );
        std::thread::sleep(Duration::from_millis(400));
        let n = attempts.load(Ordering::Relaxed);
        // Without backoff a 1 ms cadence would attempt ~400 times; with
        // 30·2^k ms (±25%) the 400 ms window fits only a handful. Generous
        // upper bound for slow/shared CI hosts.
        assert!(n >= 2, "cadence must keep retrying, got {n}");
        assert!(n <= 12, "backoff must throttle retries, got {n}");
        assert_eq!(sb.swap_count(), 0, "failed builds must never swap");
        assert!(refresher.failure_count() >= 2);
        refresher.stop();
    }

    /// Submitted deltas publish through the refresher, and the published
    /// statistics are bit-identical in bounds to a from-scratch rebuild
    /// of the mutated catalog.
    #[test]
    fn delta_source_publishes_incrementally_maintained_snapshots() {
        use safebound_storage::{CatalogDelta, Value};
        let cfg = SafeBoundConfig::test_small();
        let source = DeltaSource::new(catalog(), cfg.clone());
        let sb = SafeBound::from_stats(source.snapshot());
        let refresher = StatsRefresher::spawn(
            sb.clone(),
            source.source(),
            RefreshConfig::default(),
            ShutdownToken::new(),
        );
        let delta = CatalogDelta::inserting("r", vec![vec![Value::Int(3)], vec![Value::Int(9)]]);
        assert_eq!(source.submit(delta.clone()), 1);
        let (build, _) = refresher.refresh_blocking().expect("delta publishes");
        assert_eq!(sb.build_id(), build);
        assert_eq!((source.pending(), source.applied()), (0, 1));
        // Oracle: full rebuild of the mutated catalog.
        let mut mutated = catalog();
        mutated.apply_delta(&delta).unwrap();
        let full = SafeBoundBuilder::new(cfg).build(&mutated);
        assert_eq!(sb.snapshot().tables, full.tables);
        assert_eq!(sb.snapshot().pool, full.pool);
        assert_eq!(source.catalog().table("r").unwrap().num_rows(), 6);
        refresher.stop();
    }

    /// A bad delta is dropped and surfaces as a failed build attempt; the
    /// last-good snapshot stays published and later deltas still apply.
    #[test]
    fn delta_source_drops_invalid_delta_and_recovers() {
        use safebound_storage::{CatalogDelta, Value};
        let cfg = SafeBoundConfig::test_small();
        let source = DeltaSource::new(catalog(), cfg);
        let sb = SafeBound::from_stats(source.snapshot());
        let first_build = sb.build_id();
        let refresher = StatsRefresher::spawn(
            sb.clone(),
            source.source(),
            RefreshConfig::default(),
            ShutdownToken::new(),
        );
        source.submit(CatalogDelta::deleting("missing", vec![0]));
        source.submit(CatalogDelta::inserting("r", vec![vec![Value::Int(5)]]));
        match refresher.refresh_blocking() {
            Err(RefreshError::Failed(reason)) => {
                assert!(reason.contains("delta rejected"), "{reason:?}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(sb.build_id(), first_build, "last-good stays published");
        assert_eq!(source.rejected(), 1);
        assert_eq!(source.pending(), 1, "queued delta survives the bad one");
        let (build, _) = refresher.refresh_blocking().expect("queue drains");
        assert_eq!(sb.build_id(), build);
        assert_eq!((source.pending(), source.applied()), (0, 1));
        assert_eq!(source.catalog().table("r").unwrap().num_rows(), 5);
        refresher.stop();
    }

    #[test]
    fn backoff_delay_is_capped_exponential_with_bounded_jitter() {
        let config = RefreshConfig {
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(2),
            ..RefreshConfig::default()
        };
        let mut prev_nominal = Duration::ZERO;
        for k in 1..=10u32 {
            let nominal = config
                .backoff_base
                .saturating_mul(1u32 << (k - 1).min(16))
                .min(config.backoff_cap);
            assert!(nominal >= prev_nominal, "nominal backoff must not shrink");
            prev_nominal = nominal;
            for ordinal in 0..50u64 {
                let d = backoff_delay(&config, k, ordinal);
                assert!(d >= nominal.mul_f64(0.74), "jitter below -25%: {d:?}");
                assert!(d <= nominal.mul_f64(1.26), "jitter above +25%: {d:?}");
            }
        }
        // Determinism: same inputs, same delay.
        assert_eq!(backoff_delay(&config, 3, 17), backoff_delay(&config, 3, 17));
    }
}
