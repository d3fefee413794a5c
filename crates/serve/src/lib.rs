//! # safebound-serve
//!
//! The concurrent serving front-end for SafeBound: everything between a
//! built [`StatsSnapshot`] and a socket.
//!
//! ## Layering: snapshot → handle → sessions → workers and callers → protocol
//!
//! ```text
//!                    ┌───────────────────────────────┐
//!   offline rebuild ─► StatsSnapshot (immutable,     │  shared read-only,
//!                    │  Send + Sync, behind Arc)     │  swapped atomically
//!                    └──────────────┬────────────────┘
//!                                   │ SafeBound::swap_stats (hot swap)
//!                    ┌──────────────▼────────────────┐
//!                    │ SafeBound handle (build-id    │  one per pool,
//!                    │ atomic + Mutex<Arc<snapshot>>)│  lock-free
//!                    └──────────────┬────────────────┘  steady-state reads
//!                 ┌─────────────────┼─────────────────┐
//!            ┌────▼─────┐      ┌────▼─────┐      ┌────▼─────┐  one Mutex<
//!            │ shard 0  │ ...  │ shard i  │ ...  │ shard N  │  BoundSession>
//!            │ session  │      │ session  │      │ session  │  per shard (shape
//!            └─▲──────▲─┘      └─▲──────▲─┘      └─▲──────▲─┘  cache + arenas)
//!              │      │          │      │          │      │
//!          worker 0   │      worker i   │      worker N   │   lock: a worker
//!          (a batch   │                 │                 │   per job, a caller
//!           job)    caller,           caller,           caller,  per single query
//!                   inline            inline            inline   (try_lock)
//!                 └──────────── shape-hash routing ───────────┘
//!                    ┌──────────────┴────────────────┐
//!                    │ BoundService: bound(),        │
//!                    │ bound_batch(), TCP server     │
//!                    └───────────────────────────────┘
//! ```
//!
//! * **[`BoundService`]** owns the [`SafeBound`]
//!   handle, N [`BoundSession`]s — the
//!   mutable half of the estimator (query-shape cache, arena pools,
//!   hot-literal memo) — each behind its own lock, and up to N worker
//!   threads. Construction spawns none: a shard's worker starts with the
//!   first batch job dispatched to it, so a service that only answers
//!   single queries inline never spawns or joins a thread.
//!   Queries are routed to shards by
//!   [`Query::shape_hash`](safebound_query::Query::shape_hash) modulo the
//!   pool size, so every query template consistently lands on the same
//!   session and its shape cache stays hot regardless of traffic
//!   interleaving. A session is only ever used under its lock, by one of
//!   two parties: its shard's worker, for the length of a batch job, or a
//!   caller with a single query, for the length of that bound.
//! * **`bound`** (and a single SQL line over TCP) `try_lock`s the query's
//!   shard and, when it is free, computes the bound on the calling thread:
//!   no channel, no allocation, no context switch — a round trip to a
//!   worker would cost ten times the literal-cache hit it buys. When
//!   the shard is held the query queues behind the holder as a one-line
//!   batch, under the batch deadline. The lock decides, not an option.
//! * **`bound_batch`** and its variants are wrappers over one batch path.
//!   It ships index slices of one shared `Arc<[Query]>` to the workers'
//!   job queues and gathers their answers in input order: one job per
//!   worker per batch, the workers running in parallel, each holding its
//!   shard's session across its whole slice. Before dispatch, identical
//!   lines — same shape *and* literal vector, confirmed by full equality
//!   behind a `(shape_hash, literal_fingerprint)` key — are
//!   **deduplicated**: one representative runs (hitting its shard's
//!   literal cache once), duplicates get copies of the answer
//!   ([`BoundService::batch_dedup_hits`](service::BoundService::batch_dedup_hits)).
//!   The path's scratch costs a fixed number of allocations per batch,
//!   whatever its length. Over TCP, a `BATCH` parses into a recycled
//!   batch lent out with its in-flight permit: its lines re-parse into the
//!   queries of earlier batches, each job drops its handle on the batch
//!   before it answers, and the batch goes back to the pool once the
//!   replies are written. One a late worker still holds is left to it. A
//!   fresh-literal line on a known template thus allocates nothing from
//!   its bytes to its dispatch (`tests/batch_alloc.rs`).
//! * **Hot swap**: the service never pauses. A rebuild calls
//!   [`SafeBound::swap_stats`](safebound_core::SafeBound::swap_stats) on
//!   the service's handle; in-flight queries finish on the snapshot they
//!   started with (their session pins it via `Arc`), and each session picks
//!   up the new build id on its next query, repopulating lazily. The
//!   [`StatsRefresher`] runs those rebuilds on
//!   its own background thread — on a cadence, on demand (the `REFRESH`
//!   verb), or both — so statistics stay fresh under live traffic without
//!   ever borrowing a serving thread.
//!
//! ## Serving lifecycle
//!
//! [`serve_with`] runs the accept loop under a
//! [`ShutdownToken`] with admission control
//! ([`ServeOptions`]):
//!
//! * **Connection budget** — at `max_connections` live connections, new
//!   accepts (and connections whose handler thread fails to spawn under
//!   resource pressure) are answered `ERR overloaded` and closed; the
//!   accept loop itself never dies.
//! * **In-flight batch budget** — at `max_inflight_batches` concurrently
//!   buffered `BATCH` requests, further batches are drained (bounded, one
//!   reused line buffer) and answered with a single `ERR overloaded`, so
//!   server memory stays flat under burst load instead of queueing
//!   without limit. The same budget bounds the recycled batches kept
//!   between requests, each at most 256 KiB (slots × longest line).
//! * **Kept buffers** — a connection's line and reply buffers shrink back
//!   to 4 KiB after a request that grew them past 64 KiB, so an idle
//!   connection holds no more than that whatever it sent before.
//! * **Idle timeout** — a connection with no complete request for
//!   `idle_timeout` is answered `BYE` and closed.
//! * **Graceful shutdown** — triggering the token (or the `SHUTDOWN`
//!   verb) stops the accept loop, which joins every connection handler;
//!   dropping the [`BoundService`] then joins the
//!   workers that started and [`StatsRefresher::stop`](refresh::StatsRefresher::stop)
//!   joins the refresher: no thread outlives the server.
//!
//! ## Fault injection
//!
//! [`faults`] is always compiled and inert unless a seeded schedule is
//! installed ([`FaultInjector::seeded`]); every production path runs
//! [`FaultInjector::disabled`]. The chaos suites drive it under plain
//! `cargo test`.
//!
//! ## Line protocol
//!
//! [`server::serve`] speaks a minimal newline-delimited text protocol
//! over `std::net::TcpListener`, one thread per connection:
//!
//! | request                     | response                                |
//! |-----------------------------|-----------------------------------------|
//! | `<SQL text>`                | `OK <bound>` or `ERR <message>`         |
//! | `BATCH <n>` then `n` SQL lines | `n` `OK`/`ERR` lines (batched pool dispatch), or one `ERR overloaded` |
//! | `PING`                      | `PONG`                                  |
//! | `STATS`                     | `STATS workers=<n> build=<id> swaps=<n> generation=<n> refresher=on\|off connections=<n> inflight_batches=<n> batch_dedup_hits=<n> …` plus the pool-wide [`SessionStats`] merge (`shape_*`, `lit_bound_*`, `lit_cond_hits=0 lit_cond_misses=0` (frozen keys: the literal cache holds whole-query bounds only), `lit_evictions`, `eq_memo_*`, `range_memo_hits=0 range_memo_misses=0 range_memo_evictions=0` (frozen keys: range lookups are not memoized), `like_memo_*`, `relaxations_pruned=0` (a frozen key: every relaxation is evaluated)), `spills=<n>`, `snapshot_load_failures=<n>`, and `simd=scalar` (a frozen key: the kernels have one portable tier) |
//! | `REFRESH`                   | `REFRESHED build=<id> generation=<n>` after a fresh rebuild publishes (`ERR` without a refresher) |
//! | `SNAPSHOT SAVE <path>`      | `SAVED bytes=<n>` after the published statistics are written through the crash-safe single-file writer (tmp + fsync + atomic rename), or `ERR snapshot save: <reason>` |
//! | `SNAPSHOT LOAD <path>`      | `LOADED build=<id>` after the file validates (magic, version, checksums, fingerprints) and hot-swaps in, or `ERR snapshot load: <reason>` — a rejected file never unpublishes the last-good snapshot and bumps `snapshot_load_failures` in `STATS` |
//! | `QUIT`                      | `BYE`, then the connection closes       |
//! | `SHUTDOWN`                  | `BYE`, then the whole server drains and stops |
//!
//! Responses come in request order; a malformed `BATCH` count answers
//! `ERR`; batch bodies are SQL only (a `QUIT` inside a batch is just a
//! failing query, the connection stays up). The protocol is deliberately
//! line-oriented so `nc`/`telnet` work as clients; the `safebound-serve`
//! binary wraps it in a tiny CLI (`serve` / `query` subcommands) over the
//! bundled IMDB generator.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The serving path never panics: a bad request degrades to an `ERR` reply
// and a poisoned lock recovers through `lock_recover`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]
// Clocks and threads only in `refresh`, `server` and `service` (clippy.toml).
#![deny(clippy::disallowed_methods)]

pub mod faults;
pub mod refresh;
pub mod server;
pub mod service;

pub use faults::{FaultBuilder, FaultInjector};
pub use refresh::{DeltaSource, RefreshConfig, RefreshError, ShutdownToken, StatsRefresher};
pub use server::{serve, serve_with, ServeOptions};
pub use service::BoundService;

// Re-exported so service consumers need only this crate.
pub use safebound_core::{BoundSession, EstimateError, SafeBound, SessionStats, StatsSnapshot};

/// Acquire a mutex, recovering from poisoning instead of propagating it.
///
/// Every mutex in this crate guards state that is valid at all times —
/// counters, fully formed handles/snapshots, job queues — updated
/// by single assignments that cannot be observed half-done. A panic on a
/// thread that happened to hold such a lock therefore leaves the data
/// intact, and cascading that one panic into every later `lock().unwrap()`
/// caller would turn an isolated worker failure into a dead server.
///
/// The per-shard [`BoundSession`] mutexes are the one case where the data
/// *can* be left half-updated by a panic — and every such panic is caught
/// inside the lock and ends with the session replaced before the guard is
/// released (`service.rs`, `PoolShared::run`), so the guard never drops
/// during an unwind and a poisoned session mutex, were one ever seen,
/// would still guard a consistent session.
pub(crate) fn lock_recover<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`lock_recover`] without the wait: `None` when another thread holds the
/// mutex, the guard — poisoned or not, by the same argument — otherwise.
pub(crate) fn try_lock_recover<T>(
    mutex: &std::sync::Mutex<T>,
) -> Option<std::sync::MutexGuard<'_, T>> {
    match mutex.try_lock() {
        Ok(guard) => Some(guard),
        Err(std::sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(std::sync::TryLockError::WouldBlock) => None,
    }
}

/// Best-effort text of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}
