//! # safebound-serve
//!
//! The concurrent serving front-end for SafeBound: everything between a
//! built [`StatsSnapshot`] and a socket.
//!
//! ## Layering: snapshot → handle → sessions → callers → protocol
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
//!                    ┌──────────────▼────────────────┐
//!                    │ idle sessions: at most        │  one Mutex over a
//!                    │ `workers` BoundSessions       │  list (shape cache +
//!                    └──────────────▲────────────────┘  arenas each)
//!                                   │ take (or build), compute, put back
//!                                   │ on the caller's own thread
//!                    ┌──────────────┴────────────────┐
//!                    │ BoundService: bound(),        │  callers: connection
//!                    │ bound_batch(), TCP server     │  threads, in-process
//!                    └───────────────────────────────┘  planners
//! ```
//!
//! * **[`BoundService`]** owns the [`SafeBound`] handle and a list of idle
//!   [`BoundSession`]s — the mutable half of the estimator (query-shape
//!   cache, arena pools, hot-literal memo). It starts no thread: every
//!   bound runs on the thread that asked for it. A caller takes the most
//!   recently returned idle session, or builds one when none is idle,
//!   computes, and puts it back; the list keeps at most `workers` of them
//!   and drops the rest. Nobody waits for a session, and a session warmed
//!   by one caller serves the next.
//! * **`bound`** (and a single SQL line over TCP) computes the bound on
//!   the calling thread, on a session of its own: no queue, no
//!   allocation, no context switch.
//! * **`bound_batch`** and its variant are wrappers over one batch path,
//!   also on the calling thread. Identical lines — same shape *and*
//!   literal vector, confirmed by full equality behind a
//!   `(shape_hash, literal_fingerprint)` key — are **deduplicated**: one
//!   representative runs (hitting the session's literal cache once),
//!   duplicates get copies of the answer
//!   ([`BoundService::batch_dedup_hits`](service::BoundService::batch_dedup_hits)).
//!   The representatives are computed on one session, taken once for the
//!   whole batch, and the answers return in input order. The path's
//!   scratch costs a fixed number of allocations per batch, whatever its
//!   length. Over TCP, a `BATCH` parses into a recycled batch lent out
//!   with its in-flight permit: its lines re-parse into the queries of
//!   earlier batches, and the batch goes back to the pool once the replies
//!   are written. A fresh-literal line on a known template thus allocates
//!   nothing from its bytes to its bound (`tests/batch_alloc.rs`). One
//!   connection's batch runs on one core; connections run in parallel.
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
//!   [`StatsRefresher::stop`](refresh::StatsRefresher::stop) joins the
//!   refresher: no thread outlives the server. The [`BoundService`] owns
//!   no thread, so dropping it joins nothing.
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
//! [`serve_with`] speaks a minimal newline-delimited text protocol
//! over `std::net::TcpListener`, one thread per connection:
//!
//! | request                     | response                                |
//! |-----------------------------|-----------------------------------------|
//! | `<SQL text>`                | `OK <bound>` or `ERR <message>`         |
//! | `BATCH <n>` then `n` SQL lines | `n` `OK`/`ERR` lines (one batched bound), or one `ERR overloaded` |
//! | `PING`                      | `PONG`                                  |
//! | `STATS`                     | `STATS workers=<n>` (the idle-session cap) `build=<id> swaps=<n> generation=<n> refresher=on\|off connections=<n> inflight_batches=<n> batch_dedup_hits=<n> worker_panics=<n> worker_respawns=<n> worker_timeouts=0` (a frozen key: nobody waits for a session) plus the [`SessionStats`] totals of every completed computation (`shape_*`, `lit_bound_*`, `lit_cond_hits=0 lit_cond_misses=0` (frozen keys: the literal cache holds whole-query bounds only), `lit_evictions`, `eq_memo_*`, `range_memo_hits=0 range_memo_misses=0 range_memo_evictions=0` (frozen keys: range lookups are not memoized), `like_memo_*`, `relaxations_pruned=0` (a frozen key: every relaxation is evaluated)), `spills=0` (a frozen key: no line leaves its batch's session), `snapshot_load_failures=<n>`, and `simd=scalar` (a frozen key: the kernels have one portable tier) |
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
// Clocks and threads only in `refresh` and `server` (clippy.toml).
#![deny(clippy::disallowed_methods)]

pub mod faults;
pub mod refresh;
pub mod server;
pub mod service;

pub use faults::{FaultBuilder, FaultInjector};
pub use refresh::{DeltaSource, RefreshConfig, RefreshError, ShutdownToken, StatsRefresher};
pub use server::{serve_with, ServeOptions};
pub use service::BoundService;

// Re-exported so service consumers need only this crate.
pub use safebound_core::{BoundSession, EstimateError, SafeBound, SessionStats, StatsSnapshot};

/// Acquire a mutex, recovering from poisoning instead of propagating it.
///
/// Every mutex in this crate guards state that is valid at all times —
/// counters, fully formed handles/snapshots, the list of idle sessions —
/// updated by single assignments that cannot be observed half-done. A
/// panic on a thread that happened to hold such a lock therefore leaves
/// the data intact, and cascading that one panic into every later
/// `lock().unwrap()` caller would turn an isolated failure into a dead
/// server.
///
/// A [`BoundSession`] *can* be left half-updated by a panic, but no
/// session is ever used under a lock: a caller takes it out of the list,
/// computes under `catch_unwind`, and drops it after a panic instead of
/// putting it back (`service.rs`, `BoundService::run`).
pub(crate) fn lock_recover<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Best-effort text of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}
