//! A minimal `std::net` TCP front-end speaking the newline-delimited
//! protocol documented in the crate docs: SQL in, `OK <bound>` out, one
//! thread per connection, all bound work done on the shared
//! [`BoundService`]'s sessions — a single SQL line on the connection's own
//! thread when its shard is free, a `BATCH` on the pool's workers.
//!
//! The serving lifecycle lives here too: [`serve_with`] runs the accept
//! loop under a [`ShutdownToken`], enforces a bounded connection budget
//! and a bounded in-flight-batch budget (shedding with `ERR overloaded`
//! instead of queueing without limit), applies per-connection idle
//! timeouts, and — when given a [`StatsRefresher`] — serves the `REFRESH`
//! verb and reports refresh health in `STATS`. On shutdown the accept
//! loop stops, every connection handler is joined, and the caller can
//! then drop the service (joining the workers) and stop the refresher for
//! a fully clean exit.
//!
//! ## Degraded modes
//!
//! The response path is built to fail *loudly and boundedly* rather than
//! silently or indefinitely:
//!
//! * Responses go through a `ResponseWriter` that retries interrupted
//!   and short writes — a response line is delivered whole or the
//!   connection errors out; it is **never truncated mid-line**.
//! * Batches — and single lines that find their shard held by a batch
//!   job or another connection — wait under
//!   [`ServeOptions::batch_timeout`]: lines a stuck worker never answers
//!   come back `ERR timeout: …` while completed lines keep their real
//!   bounds. The deadline bounds waiting for *another* thread; a bound
//!   computed on the connection's own thread runs to completion (at most
//!   ≈ 0.1 ms for a cold paper query, see ROADMAP's failure model) and a
//!   panic in it answers `ERR internal` like a worker's.
//! * A client that stalls mid-`BATCH` past the idle timeout gets a single
//!   `ERR timeout …` line and a drained close instead of wedging the
//!   handler thread (and its admission slot) forever.
//! * `REFRESH` against a failing statistics source reports
//!   `ERR refresh <reason>` — it never hangs, and the last-good snapshot
//!   keeps serving.
//! * `SNAPSHOT LOAD` of a corrupt, truncated, or version-skewed file
//!   answers `ERR snapshot load: <reason>` (counted in `STATS` as
//!   `snapshot_load_failures`) without unpublishing the last-good
//!   statistics; `SNAPSHOT SAVE` goes through the crash-safe writer, so
//!   a failed save never leaves a partial file at the target path.

// Owns the connection threads, deadlines and idle timeouts.
#![allow(clippy::disallowed_methods)]

use crate::faults::{FaultInjector, WriteFault};
use crate::lock_recover;
use crate::refresh::{RefreshError, ShutdownToken, StatsRefresher};
use crate::service::BoundService;
use safebound_core::EstimateError;
use safebound_query::{parse_sql_into, Query};
use std::borrow::Cow;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on `BATCH n` so a client cannot make the server buffer an
/// unbounded query list.
const MAX_BATCH: usize = 65_536;

/// Admission-control and lifecycle knobs for [`serve_with`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Max concurrently served connections; further accepts are answered
    /// `ERR overloaded` and closed immediately.
    pub max_connections: usize,
    /// Max `BATCH` requests in flight across all connections (each batch
    /// buffers up to `MAX_BATCH` parsed queries, so this budget bounds the
    /// server's queueing memory); a batch over budget is drained and
    /// answered with a single `ERR overloaded` line. It also bounds the
    /// parsed batches kept for reuse between requests.
    pub max_inflight_batches: usize,
    /// Close a connection after this long without a complete request.
    pub idle_timeout: Duration,
    /// Poll granularity for shutdown/idle checks (accept-loop sleep and
    /// per-connection read timeout).
    pub tick: Duration,
    /// Reply deadline per dispatched batch, and per single request that
    /// has to queue behind a busy shard: lines a worker has not answered
    /// by then degrade to `ERR timeout: …` instead of wedging the
    /// connection behind a stuck worker. `None` waits indefinitely.
    pub batch_timeout: Option<Duration>,
    /// Fault-injection schedule for the response write path (chaos
    /// testing; see [`crate::faults`]). Disabled by default.
    pub faults: FaultInjector,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_connections: 1024,
            max_inflight_batches: 64,
            idle_timeout: Duration::from_secs(300),
            tick: Duration::from_millis(25),
            batch_timeout: Some(Duration::from_secs(60)),
            faults: FaultInjector::disabled(),
        }
    }
}

/// Counting semaphore over in-flight batches (see
/// [`ServeOptions::max_inflight_batches`]), and the pool of parsed
/// batches its permits hand out.
struct BatchBudget {
    max: usize,
    in_flight: AtomicUsize,
    /// Parsed batches between requests. A batch goes back before its
    /// permit's slot is released and is taken after a slot is acquired,
    /// so the pool and the permits together never hold more than `max`.
    idle: Mutex<Vec<ParsedBatch>>,
}

impl BatchBudget {
    fn new(max: usize) -> Arc<Self> {
        Arc::new(BatchBudget {
            max,
            in_flight: AtomicUsize::new(0),
            idle: Mutex::new(Vec::new()),
        })
    }

    fn try_acquire(self: &Arc<Self>) -> Option<BatchPermit> {
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            if cur >= self.max {
                return None;
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    let batch = lock_recover(&self.idle).pop().unwrap_or_default();
                    return Some(BatchPermit {
                        budget: self.clone(),
                        batch,
                    });
                }
                Err(now) => cur = now,
            }
        }
    }

    fn in_use(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }
}

/// RAII slot in the batch budget, with the parsed batch it lends out;
/// dropping returns the batch to the pool, if it is worth keeping, and
/// releases the slot.
struct BatchPermit {
    budget: Arc<BatchBudget>,
    batch: ParsedBatch,
}

impl Drop for BatchPermit {
    fn drop(&mut self) {
        let mut batch = std::mem::take(&mut self.batch);
        if batch.keep() {
            lock_recover(&self.budget.idle).push(batch);
        }
        self.budget.in_flight.fetch_sub(1, Ordering::Release);
    }
}

/// Bytes a recycled batch may hold between requests, estimated as its
/// slots times the longest line it has parsed: a batch past it is freed
/// instead of pooled, and the next request starts from an empty one.
const KEPT_BATCH_BYTES: usize = 256 << 10;

/// The parse targets of one `BATCH`, recycled through the batch budget:
/// the `k`-th line that parses goes into slot `k`, so steady traffic
/// re-parses into the same queries and allocates nothing for them.
#[derive(Default)]
struct ParsedBatch {
    /// Parse targets. Slots past the current request's parsed lines hold
    /// queries of earlier requests.
    queries: Arc<[Query]>,
    /// Per request line: `Ok` when it parsed into the next slot, the
    /// parse error's text otherwise.
    lines: Vec<Result<(), String>>,
    /// The longest line this batch has parsed, in bytes.
    widest: usize,
}

impl ParsedBatch {
    /// Slot `k` of a request of `n` lines, growing the slots when `k` is
    /// past them. The batch is never shared while a permit holds it (its
    /// jobs drop their handles before answering); should it be, it is
    /// replaced rather than waited for.
    fn slot(&mut self, k: usize, n: usize) -> Option<&mut Query> {
        if k >= self.queries.len() || Arc::get_mut(&mut self.queries).is_none() {
            let len = (2 * self.queries.len()).max(16).min(n).max(k + 1);
            let mut grown: Vec<Query> = Vec::with_capacity(len);
            if let Some(old) = Arc::get_mut(&mut self.queries) {
                grown.extend(old.iter_mut().map(std::mem::take));
            }
            grown.resize_with(len, Query::default);
            self.queries = grown.into();
        }
        Arc::get_mut(&mut self.queries)?.get_mut(k)
    }

    /// Whether the pool should keep this batch: nobody else holds it (a
    /// worker that missed the deadline still may; it is left to that
    /// worker), and it is within [`KEPT_BATCH_BYTES`].
    fn keep(&mut self) -> bool {
        let slots = self.queries.len().max(self.lines.capacity());
        Arc::get_mut(&mut self.queries).is_some()
            && slots.saturating_mul(self.widest) <= KEPT_BATCH_BYTES
    }
}

/// Decrements the live-connection counter when a handler (or a failed
/// spawn) releases its admission slot.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// Everything a connection handler needs, shared across connections.
struct ConnCtx {
    service: Arc<BoundService>,
    refresher: Option<Arc<StatsRefresher>>,
    shutdown: ShutdownToken,
    batches: Arc<BatchBudget>,
    active: Arc<AtomicUsize>,
    idle_timeout: Duration,
    tick: Duration,
    batch_timeout: Option<Duration>,
    faults: FaultInjector,
    /// Rejected snapshot-file loads (refresher file source + `SNAPSHOT
    /// LOAD` verb); shared with the refresher when one is configured so
    /// `STATS` reports one coherent counter.
    snapshot_load_failures: Arc<AtomicU64>,
}

/// Accept connections until the shutdown token triggers, one handler
/// thread per admitted client, then join every handler before returning.
///
/// Blocks the calling thread; run it on a dedicated thread if the caller
/// needs to keep working (the `safebound-serve` binary just parks here).
pub fn serve_with(
    service: Arc<BoundService>,
    listener: TcpListener,
    refresher: Option<Arc<StatsRefresher>>,
    shutdown: ShutdownToken,
    opts: ServeOptions,
) -> std::io::Result<()> {
    // Non-blocking accept lets the loop poll the shutdown token; admitted
    // connections are switched back to (timeout-)blocking reads below.
    listener.set_nonblocking(true)?;
    let active: Arc<AtomicUsize> = Arc::new(AtomicUsize::new(0));
    let snapshot_load_failures = refresher
        .as_ref()
        .map(|r| r.snapshot_load_failure_counter())
        .unwrap_or_default();
    let ctx = Arc::new(ConnCtx {
        service,
        refresher,
        shutdown: shutdown.clone(),
        batches: BatchBudget::new(opts.max_inflight_batches),
        active: active.clone(),
        idle_timeout: opts.idle_timeout,
        tick: opts.tick,
        batch_timeout: opts.batch_timeout,
        faults: opts.faults.clone(),
        snapshot_load_failures,
    });
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.is_triggered() {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                handlers.retain(|h| !h.is_finished());
                std::thread::sleep(opts.tick);
                continue;
            }
            Err(e) => {
                // Transient accept failures (ECONNABORTED on a client
                // reset, EMFILE under fd pressure) must not kill the
                // server; log and keep accepting. Sleep a tick so a
                // persistent failure (fd exhaustion with a pending
                // connection) cannot hot-spin the accept thread.
                eprintln!("safebound-serve: accept error: {e}");
                std::thread::sleep(opts.tick);
                continue;
            }
        };
        handlers.retain(|h| !h.is_finished());
        if active.load(Ordering::Acquire) >= opts.max_connections {
            shed(&stream);
            continue;
        }
        active.fetch_add(1, Ordering::AcqRel);
        let guard = ConnGuard(active.clone());
        // Keep a shedding handle: if the spawn itself fails (thread/fd
        // pressure), the moved-in stream is gone but the duplicate lets us
        // answer the client instead of silently dropping it.
        let shed_handle = stream.try_clone().ok();
        let ctx = ctx.clone();
        let spawned = std::thread::Builder::new()
            .name("safebound-conn".to_string())
            .spawn(move || {
                let _guard = guard;
                let _ = handle_connection(&ctx, stream);
            });
        match spawned {
            Ok(h) => handlers.push(h),
            Err(e) => {
                // Shed this connection and keep accepting: a spawn failure
                // under load must never take down the accept loop. (The
                // closure was dropped, releasing the admission slot.)
                eprintln!("safebound-serve: connection spawn failed, shedding: {e}");
                if let Some(s) = shed_handle {
                    shed(&s);
                }
            }
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    Ok(())
}

/// Accept connections forever with default options, no refresher, and no
/// external shutdown (compatibility entry point; see [`serve_with`]).
pub fn serve(service: Arc<BoundService>, listener: TcpListener) -> std::io::Result<()> {
    serve_with(
        service,
        listener,
        None,
        ShutdownToken::new(),
        ServeOptions::default(),
    )
}

/// Refuse a connection with a single `ERR overloaded` line.
fn shed(stream: &TcpStream) {
    let mut s = stream;
    let _ = writeln!(s, "ERR overloaded");
    let _ = s.flush();
}

/// Upper bound on one request line, in bytes. A longer line is refused
/// and the connection closed (past it the stream cannot be re-synced);
/// together with `MAX_BATCH` and the in-flight-batch budget this caps
/// per-connection buffering, which the admission story relies on.
const MAX_LINE: usize = 1 << 20;

/// Starting capacity of a connection's line and reply buffers.
const BUFFER_START: usize = 4096;

/// Capacity a connection's line or reply buffer may keep between
/// requests. A request that grew one past it (a long line, the replies of
/// a large batch) gives the memory back afterwards: the buffer shrinks to
/// [`BUFFER_START`], and the connection's single-line query is rebuilt.
const KEPT_BUFFER_BYTES: usize = 64 << 10;

/// Shrink a buffer a request grew past [`KEPT_BUFFER_BYTES`] back to
/// [`BUFFER_START`]; whether it had to.
fn settle(buf: &mut Vec<u8>) -> bool {
    let oversized = buf.capacity() > KEPT_BUFFER_BYTES;
    if oversized {
        buf.clear();
        buf.shrink_to(BUFFER_START);
    }
    oversized
}

/// A buffering response writer that delivers every line **whole**.
///
/// `write` only appends to an internal buffer (it cannot fail); `flush`
/// pushes the buffer to the socket with a retry loop that absorbs
/// `Interrupted`, transient `WouldBlock`/`TimedOut`, and short writes.
/// The alternative — `BufWriter` over a raw stream — silently treats a
/// short write of a line tail as success at the protocol layer, and a
/// client can receive `OK 12` where the server computed `OK 12345`. Here
/// a response either arrives byte-complete or the connection dies with an
/// error; flush progress is bounded by the shutdown token and a deadline,
/// so a sink that stops accepting bytes cannot wedge the handler.
struct ResponseWriter {
    stream: TcpStream,
    buf: Vec<u8>,
    faults: FaultInjector,
    shutdown: ShutdownToken,
    tick: Duration,
    /// Max wall-clock time one flush may spend retrying.
    flush_deadline: Duration,
}

impl ResponseWriter {
    fn new(stream: TcpStream, ctx: &ConnCtx) -> Self {
        ResponseWriter {
            stream,
            buf: Vec::with_capacity(BUFFER_START),
            faults: ctx.faults.clone(),
            shutdown: ctx.shutdown.clone(),
            tick: ctx.tick,
            flush_deadline: ctx.idle_timeout,
        }
    }

    /// Half-close the write side (deliver buffered responses + FIN while
    /// we drain the client's remaining bytes; see [`drain_refused`]).
    fn half_close(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}

impl Write for ResponseWriter {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let start = Instant::now();
        let mut off = 0;
        while off < self.buf.len() {
            let pending = &self.buf[off..];
            // The fault hook either passes the write through, fails it
            // with a transient error, or caps its length (a short write).
            let attempt = match self.faults.on_write(pending.len()) {
                WriteFault::None => self.stream.write(pending),
                WriteFault::Err(kind) => Err(std::io::Error::new(kind, "injected write fault")),
                WriteFault::Short(n) => self.stream.write(&pending[..n.min(pending.len())]),
            };
            match attempt {
                Ok(0) => {
                    self.buf.clear();
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                // Short writes (fault-injected or a full kernel buffer)
                // simply advance and retry with the remainder.
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.shutdown.is_triggered() || start.elapsed() >= self.flush_deadline {
                        self.buf.clear();
                        return Err(std::io::Error::new(
                            ErrorKind::TimedOut,
                            "gave up flushing response",
                        ));
                    }
                    std::thread::sleep(self.tick);
                }
                Err(e) => {
                    self.buf.clear();
                    return Err(e);
                }
            }
        }
        self.buf.clear();
        self.stream.flush()
    }
}

/// Outcome of a patient line read.
enum LineRead {
    /// A complete line arrived.
    Line,
    /// Clean end of stream.
    Eof,
    /// The connection should close (idle timeout or shutdown).
    Close,
    /// The line exceeded [`MAX_LINE`] bytes.
    Overlong,
}

/// Read one line as raw bytes, tolerating read-timeout ticks: partial
/// data accumulates in `buf` across ticks (bytes, not chars, so a tick
/// landing mid-UTF-8-sequence loses nothing), the shutdown token is
/// polled every tick, `idle` (time of the last completed request)
/// enforces the idle timeout, and [`MAX_LINE`] bounds the buffer.
fn read_line_patiently(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    ctx: &ConnCtx,
    idle: &Instant,
) -> std::io::Result<LineRead> {
    buf.clear();
    loop {
        let room = (MAX_LINE + 1).saturating_sub(buf.len());
        if room == 0 {
            return Ok(LineRead::Overlong);
        }
        match reader.by_ref().take(room as u64).read_until(b'\n', buf) {
            Ok(0) => {
                // Nothing more will come: answer a trailing newline-less
                // line if one accumulated, otherwise it's a clean EOF.
                return Ok(if buf.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line
                });
            }
            Ok(_) if buf.last() == Some(&b'\n') => return Ok(LineRead::Line),
            Ok(_) => {
                // Stopped short of a newline: the byte cap or a drained
                // socket buffer. Loop — the cap check above rejects
                // overlong lines, EOF/timeouts are handled per arm.
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if ctx.shutdown.is_triggered() || idle.elapsed() >= ctx.idle_timeout {
                    return Ok(LineRead::Close);
                }
                // Partial bytes (if any) stay in `buf`; keep reading.
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Truncate + whitespace-flatten an error reason so it stays one STATS
/// token (the STATS line is `key=value`-per-word parseable).
fn stats_token(reason: &str) -> String {
    let mut t: String = reason
        .chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .take(80)
        .collect();
    if t.is_empty() {
        t.push_str("none");
    }
    t
}

/// Answer `SNAPSHOT SAVE <path>` / `SNAPSHOT LOAD <path>`.
///
/// `SAVE` serializes the currently published statistics through the
/// crash-safe writer (tmp + fsync + atomic rename) and answers
/// `SAVED bytes=<n>`. `LOAD` validates the file **before** constructing
/// anything — a corrupt, truncated, or version-skewed file answers
/// `ERR snapshot load: <reason>` and the last-good snapshot keeps
/// serving; a valid file is hot-swapped in and answered
/// `LOADED build=<id>`.
fn snapshot_verb(ctx: &ConnCtx, rest: &str) -> String {
    let (op, path) = match rest.trim().split_once(char::is_whitespace) {
        Some((op, path)) if !path.trim().is_empty() => (op, path.trim()),
        _ => return "ERR usage: SNAPSHOT SAVE|LOAD <path>".to_string(),
    };
    match op {
        "SAVE" => {
            let snapshot = ctx.service.estimator().snapshot();
            match safebound_core::save_snapshot(std::path::Path::new(path), &snapshot) {
                Ok(bytes) => format!("SAVED bytes={bytes}"),
                Err(e) => format!("ERR snapshot save: {e}"),
            }
        }
        "LOAD" => match safebound_core::load_snapshot(std::path::Path::new(path)) {
            Ok(snapshot) => {
                let published = ctx.service.estimator().swap_stats(snapshot);
                format!("LOADED build={}", published.build_id)
            }
            Err(e) => {
                ctx.snapshot_load_failures.fetch_add(1, Ordering::Relaxed);
                format!("ERR snapshot load: {e}")
            }
        },
        other => format!("ERR unknown SNAPSHOT op {other:?}"),
    }
}

/// What the connection loop does after a request line is answered.
enum Next {
    /// Flush the buffered reply and read the next request.
    Reply,
    /// Close the connection (its last reply is already flushed).
    Close,
    /// Read and answer a batch of this many lines.
    Batch(usize),
}

/// Serve one client until `QUIT`, EOF, idle timeout, shutdown, or an I/O
/// error.
fn handle_connection(ctx: &ConnCtx, stream: TcpStream) -> std::io::Result<()> {
    // On BSD-derived platforms accepted sockets inherit the listener's
    // O_NONBLOCK, which would defeat the read timeout below; make the
    // blocking mode explicit.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(ctx.tick))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = ResponseWriter::new(stream, ctx);
    let mut buf = Vec::with_capacity(BUFFER_START);
    // Every single SQL line parses into this one query.
    let mut query = Query::new();
    let mut idle = Instant::now();
    loop {
        match read_line_patiently(&mut reader, &mut buf, ctx, &idle)? {
            LineRead::Line => {}
            LineRead::Eof => return Ok(()), // client hung up
            LineRead::Close => {
                let _ = writeln!(writer, "BYE");
                let _ = writer.flush();
                return Ok(());
            }
            LineRead::Overlong => {
                // Past the cap the stream cannot be re-synced; refuse and
                // close instead of buffering without limit.
                let _ = writeln!(writer, "ERR request line exceeds {MAX_LINE} bytes");
                let _ = writer.flush();
                // Half-close, then drain: closing outright with unread
                // bytes still queued makes the kernel RST the connection,
                // which can discard the refusal before the client reads
                // it. The FIN delivers response + EOF immediately; the
                // drain (bounded by the idle timeout) merely holds the
                // socket open until the client closes its end.
                writer.half_close();
                drain_refused(ctx, &mut reader);
                return Ok(());
            }
        }
        let next = {
            let text = line_text(&buf);
            let request = text.trim();
            if request.is_empty() {
                continue;
            }
            answer(ctx, request, &mut writer, &mut query)?
        };
        match next {
            Next::Reply => {}
            Next::Close => return Ok(()),
            Next::Batch(n) => match ctx.batches.try_acquire() {
                Some(mut permit) => {
                    let done = serve_batch(
                        ctx,
                        &mut reader,
                        &mut writer,
                        n,
                        &mut idle,
                        &mut buf,
                        &mut permit.batch,
                    )?;
                    drop(permit);
                    if !done {
                        return Ok(()); // closed mid-batch
                    }
                }
                None => {
                    // Over the in-flight budget: consume the announced
                    // lines (bounded, the connection's line buffer —
                    // memory stays flat) and shed.
                    if !drain_batch(ctx, &mut reader, n, &mut idle, &mut buf)? {
                        return Ok(());
                    }
                    writeln!(writer, "ERR overloaded")?
                }
            },
        }
        writer.flush()?;
        settle(&mut writer.buf);
        if settle(&mut buf) {
            query = Query::new();
        }
        idle = Instant::now();
    }
}

/// Answer one request line that is not part of a batch: a verb, or SQL
/// parsed into `query`. A `BATCH` header is answered by the caller, which
/// owns the lines that follow it.
fn answer(
    ctx: &ConnCtx,
    request: &str,
    writer: &mut ResponseWriter,
    query: &mut Query,
) -> std::io::Result<Next> {
    match request {
        "QUIT" => {
            writeln!(writer, "BYE")?;
            writer.flush()?;
            return Ok(Next::Close);
        }
        "SHUTDOWN" => {
            // Graceful server stop: trigger the token, then answer, so
            // a client that has read `BYE` finds the server stopping.
            // The accept loop sheds new work and joins every handler.
            ctx.shutdown.trigger();
            writeln!(writer, "BYE")?;
            writer.flush()?;
            return Ok(Next::Close);
        }
        "PING" => writeln!(writer, "PONG")?,
        "STATS" => {
            let (generation, refreshing, refresh_failures, refresh_last_error) =
                match &ctx.refresher {
                    Some(r) => (
                        r.generation(),
                        true,
                        r.failure_count(),
                        r.last_error()
                            .map_or_else(|| "none".to_string(), |e| stats_token(&e)),
                    ),
                    None => (0, false, 0, "none".to_string()),
                };
            // One line, written in pieces into the response buffer:
            // server counters, every session counter in its declared
            // order ([`SessionStats::fields`]), then the tail.
            write!(
                writer,
                "STATS workers={} build={} swaps={} generation={} refresher={} \
                 refresh_failures={} refresh_last_error={} \
                 connections={} inflight_batches={} batch_dedup_hits={} \
                 worker_panics={} worker_respawns={} worker_timeouts={}",
                ctx.service.num_workers(),
                ctx.service.estimator().build_id(),
                ctx.service.estimator().swap_count(),
                generation,
                if refreshing { "on" } else { "off" },
                refresh_failures,
                refresh_last_error,
                ctx.active.load(Ordering::Acquire),
                ctx.batches.in_use(),
                ctx.service.batch_dedup_hits(),
                ctx.service.worker_panics(),
                ctx.service.worker_respawns(),
                ctx.service.worker_timeouts(),
            )?;
            for (key, value) in ctx.service.session_stats().fields() {
                write!(writer, " {key}={value}")?;
            }
            writeln!(
                writer,
                " spills={} snapshot_load_failures={} simd={}",
                ctx.service.spill_count(),
                ctx.snapshot_load_failures.load(Ordering::Relaxed),
                safebound_core::simd_tier().name(),
            )?
        }
        "REFRESH" => match &ctx.refresher {
            Some(r) => match r.refresh_blocking() {
                Ok((build, generation)) => {
                    writeln!(writer, "REFRESHED build={build} generation={generation}")?
                }
                // A failed rebuild answers with its reason — the
                // last-good snapshot is still being served — and a
                // stopped refresher says so; neither hangs the verb.
                Err(RefreshError::Stopped) => writeln!(writer, "ERR refresh stopped")?,
                Err(RefreshError::Failed(reason)) => writeln!(writer, "ERR refresh {reason}")?,
            },
            None => writeln!(writer, "ERR no refresher configured")?,
        },
        _ => {
            if let Some(rest) = request.strip_prefix("SNAPSHOT ") {
                let response = snapshot_verb(ctx, rest);
                writeln!(writer, "{response}")?;
            } else if let Some(count) = request.strip_prefix("BATCH ") {
                match count.trim().parse::<usize>() {
                    Ok(n) if n <= MAX_BATCH => return Ok(Next::Batch(n)),
                    Ok(n) => writeln!(writer, "ERR batch of {n} exceeds {MAX_BATCH}")?,
                    Err(_) => writeln!(writer, "ERR malformed BATCH count {count:?}")?,
                }
            } else {
                answer_deadline(ctx, request, query, writer)?;
            }
        }
    }
    Ok(Next::Reply)
}

/// Read `n` SQL lines through the connection's line buffer `buf`, parse
/// them into `batch`'s recycled slots, and answer all of them through one
/// pool dispatch (bounded by [`ServeOptions::batch_timeout`]). Returns
/// `false` when the connection should close; EOF mid-batch still answers
/// the lines that arrived.
///
/// A client that stalls mid-batch past the idle timeout (or sends an
/// overlong line) is answered with a single `ERR timeout`/`ERR …` line
/// and a drained close — the handler thread and its admission slot are
/// reclaimed instead of wedging on a half-sent batch. Shutdown mid-batch
/// answers `BYE` and closes.
fn serve_batch(
    ctx: &ConnCtx,
    reader: &mut impl BufRead,
    writer: &mut ResponseWriter,
    n: usize,
    idle: &mut Instant,
    buf: &mut Vec<u8>,
    batch: &mut ParsedBatch,
) -> std::io::Result<bool> {
    // Parse up front; parse failures answer ERR at their position without
    // aborting the rest of the batch. A line that parses takes the next
    // slot; `batch.lines` keeps each line's outcome for the replies.
    batch.lines.clear();
    let mut parsed = 0;
    for got in 0..n {
        match read_line_patiently(reader, buf, ctx, idle)? {
            LineRead::Line => {
                batch.widest = batch.widest.max(buf.len());
                let outcome = match batch.slot(parsed, n) {
                    Some(query) => {
                        parse_sql_into(line_text(buf).trim(), query).map_err(|e| e.to_string())
                    }
                    None => Err("no parse target".to_string()),
                };
                parsed += usize::from(outcome.is_ok());
                batch.lines.push(outcome);
            }
            LineRead::Eof => break, // EOF mid-batch: answer what arrived
            LineRead::Close => {
                if ctx.shutdown.is_triggered() {
                    let _ = writeln!(writer, "BYE");
                    let _ = writer.flush();
                    return Ok(false);
                }
                // Idle mid-batch: the client announced n lines and went
                // quiet. Degrade loudly and reclaim the thread.
                let _ = writeln!(writer, "ERR timeout idle mid-batch: got {got} of {n} lines");
                let _ = writer.flush();
                writer.half_close();
                drain_refused(ctx, reader);
                return Ok(false);
            }
            LineRead::Overlong => {
                let _ = writeln!(
                    writer,
                    "ERR request line exceeds {MAX_LINE} bytes (batch line {got} of {n})"
                );
                let _ = writer.flush();
                writer.half_close();
                drain_refused(ctx, reader);
                return Ok(false);
            }
        }
        *idle = Instant::now();
    }
    let mut bounds = ctx
        .service
        .bound_prefix(&batch.queries, parsed, ctx.batch_timeout)
        .into_iter();
    for line in &batch.lines {
        match line {
            Ok(()) => write_bound(writer, bounds.next())?,
            Err(e) => writeln!(writer, "ERR parse: {e}")?,
        }
    }
    Ok(true)
}

/// Discard a refused connection's remaining bytes until the client closes
/// (or the idle timeout / shutdown intervenes). Closing a socket that
/// still has unread received data resets it instead of FIN-closing, a
/// race that can destroy the refusal line in flight — see the `Overlong`
/// arm of [`handle_connection`].
fn drain_refused(ctx: &ConnCtx, reader: &mut impl Read) {
    let start = Instant::now();
    let mut sink = [0u8; 8192];
    while start.elapsed() < ctx.idle_timeout && !ctx.shutdown.is_triggered() {
        match reader.read(&mut sink) {
            Ok(0) => return, // client closed: safe to close our end
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Consume (and discard) the `n` lines of a shed batch through the line
/// buffer `buf` so the protocol stream stays in sync. Returns `false` when
/// the connection should close.
fn drain_batch(
    ctx: &ConnCtx,
    reader: &mut impl BufRead,
    n: usize,
    idle: &mut Instant,
    buf: &mut Vec<u8>,
) -> std::io::Result<bool> {
    for _ in 0..n {
        match read_line_patiently(reader, buf, ctx, idle)? {
            LineRead::Line => *idle = Instant::now(), // still actively sending
            LineRead::Eof => break,
            LineRead::Close | LineRead::Overlong => return Ok(false),
        }
    }
    Ok(true)
}

/// One SQL request → one response line, parsed into the connection's
/// query and computed on this connection's thread when the query's shard
/// is free. When it is not, the request waits behind the shard's holder
/// under the same deadline as a batch — a stuck worker answers `ERR
/// timeout`.
fn answer_deadline(
    ctx: &ConnCtx,
    sql: &str,
    query: &mut Query,
    writer: &mut ResponseWriter,
) -> std::io::Result<()> {
    match parse_sql_into(sql, query) {
        Ok(()) => {
            let bound = ctx.service.bound_deadline(query, ctx.batch_timeout);
            write_bound(writer, Some(bound))
        }
        Err(e) => writeln!(writer, "ERR parse: {e}"),
    }
}

/// The reply line for one dispatched query. The pool returns one bound
/// per submitted query; a missing one would be a pool bug, so the line
/// degrades to `ERR internal` instead of panicking the connection thread.
fn write_bound(
    writer: &mut ResponseWriter,
    bound: Option<Result<f64, EstimateError>>,
) -> std::io::Result<()> {
    match bound {
        Some(Ok(b)) => writeln!(writer, "OK {b}"),
        Some(Err(e)) => writeln!(writer, "ERR {e}"),
        None => writeln!(writer, "ERR internal: missing bound for query"),
    }
}

/// A request line as text: borrowed as it stands when it is valid UTF-8,
/// with replacement characters for whatever is not otherwise.
fn line_text(bytes: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(bytes) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safebound_core::{SafeBound, SafeBoundConfig};
    use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};

    fn service() -> Arc<BoundService> {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "r",
            Schema::new(vec![Field::new("x", DataType::Int)]),
            vec![Column::from_ints([1, 1, 2, 3].map(Some))],
        ));
        c.add_table(Table::new(
            "s",
            Schema::new(vec![Field::new("x", DataType::Int)]),
            vec![Column::from_ints([1, 2, 2, 4].map(Some))],
        ));
        let sb = SafeBound::build(&c, SafeBoundConfig::test_small());
        Arc::new(BoundService::new(sb, 2))
    }

    fn roundtrip(lines: &[&str]) -> Vec<String> {
        let service = service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || serve(service, listener));

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = std::io::BufWriter::new(stream);
        for l in lines {
            writeln!(writer, "{l}").unwrap();
        }
        writer.flush().unwrap();
        let mut out = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap() == 0 {
                break;
            }
            out.push(line.trim().to_string());
            if line.trim() == "BYE" {
                break;
            }
        }
        out
    }

    #[test]
    fn line_protocol_roundtrip() {
        let responses = roundtrip(&[
            "PING",
            "SELECT COUNT(*) FROM r, s WHERE r.x = s.x",
            "SELECT COUNT(*) FROM nonexistent",
            "this is not sql",
            "QUIT",
        ]);
        assert_eq!(responses[0], "PONG");
        assert!(responses[1].starts_with("OK "), "{responses:?}");
        let bound: f64 = responses[1][3..].parse().unwrap();
        assert!(bound >= 3.0); // true cardinality is 3
        assert!(responses[2].starts_with("ERR "), "{responses:?}");
        assert!(responses[3].starts_with("ERR parse"), "{responses:?}");
        assert_eq!(responses[4], "BYE");
    }

    #[test]
    fn batch_answers_in_order_with_inline_errors() {
        let responses = roundtrip(&[
            "BATCH 3",
            "SELECT COUNT(*) FROM r, s WHERE r.x = s.x",
            "not sql at all",
            "SELECT COUNT(*) FROM r",
            "STATS",
            "QUIT",
        ]);
        assert!(responses[0].starts_with("OK "), "{responses:?}");
        assert!(responses[1].starts_with("ERR parse"), "{responses:?}");
        assert!(responses[2].starts_with("OK "), "{responses:?}");
        let single: f64 = responses[2][3..].parse().unwrap();
        assert_eq!(single, 4.0); // |r|
        assert!(responses[3].starts_with("STATS workers=2"), "{responses:?}");
        assert!(responses[3].contains("generation=0"), "{responses:?}");
        assert!(responses[3].contains("refresher=off"), "{responses:?}");
        assert!(responses[3].contains("batch_dedup_hits="), "{responses:?}");
        assert!(responses[3].contains("worker_panics=0"), "{responses:?}");
        assert!(responses[3].contains("worker_respawns=0"), "{responses:?}");
        assert!(responses[3].contains("worker_timeouts=0"), "{responses:?}");
        assert!(responses[3].contains("refresh_failures=0"), "{responses:?}");
        assert!(
            responses[3].contains("refresh_last_error=none"),
            "{responses:?}"
        );
        assert!(responses[3].contains("lit_bound_"), "{responses:?}");
        assert!(responses[3].contains("range_memo_hits="), "{responses:?}");
        assert!(responses[3].contains("like_memo_hits="), "{responses:?}");
        assert!(
            responses[3].contains("relaxations_pruned="),
            "{responses:?}"
        );
        let simd = responses[3]
            .split_whitespace()
            .find_map(|t| t.strip_prefix("simd="))
            .expect("STATS must keep the frozen simd key");
        assert_eq!(simd, "scalar");
        assert_eq!(responses[4], "BYE");
    }

    #[test]
    fn stats_keys_and_their_order_are_frozen() {
        // Dashboards and the repository benchmark parse this line by key
        // and position: a reordered or renamed counter is a wire break.
        #[rustfmt::skip]
        const KEYS: [&str; 34] = [
            "workers", "build", "swaps", "generation", "refresher", "refresh_failures",
            "refresh_last_error", "connections", "inflight_batches", "batch_dedup_hits",
            "worker_panics", "worker_respawns", "worker_timeouts",
            "shape_hits", "shape_misses", "shape_evictions",
            "lit_bound_hits", "lit_bound_misses", "lit_cond_hits", "lit_cond_misses",
            "lit_evictions", "eq_memo_hits", "eq_memo_misses", "eq_memo_evictions",
            "range_memo_hits", "range_memo_misses", "range_memo_evictions",
            "like_memo_hits", "like_memo_misses", "like_memo_evictions",
            "relaxations_pruned", "spills", "snapshot_load_failures", "simd",
        ];
        let responses = roundtrip(&["STATS", "QUIT"]);
        let mut tokens = responses[0].split(' ');
        assert_eq!(tokens.next(), Some("STATS"));
        let keys: Vec<&str> = tokens
            .map(|t| t.split_once('=').expect("key=value token").0)
            .collect();
        assert_eq!(keys, KEYS);
    }

    #[test]
    fn refresh_without_refresher_is_an_error() {
        let responses = roundtrip(&["REFRESH", "QUIT"]);
        assert_eq!(responses[0], "ERR no refresher configured");
        assert_eq!(responses[1], "BYE");
    }

    #[test]
    fn snapshot_verb_saves_and_reloads() {
        let path = std::env::temp_dir().join(format!(
            "safebound_serve_snapverb_{}.snap",
            std::process::id()
        ));
        let save = format!("SNAPSHOT SAVE {}", path.display());
        let load = format!("SNAPSHOT LOAD {}", path.display());
        let responses = roundtrip(&[
            &save,
            &load,
            "SELECT COUNT(*) FROM r, s WHERE r.x = s.x",
            "STATS",
            "QUIT",
        ]);
        assert!(responses[0].starts_with("SAVED bytes="), "{responses:?}");
        assert!(responses[1].starts_with("LOADED build="), "{responses:?}");
        assert!(responses[2].starts_with("OK "), "{responses:?}");
        let bound: f64 = responses[2][3..].parse().unwrap();
        assert!(bound >= 3.0); // bounds survive the save → load round trip
        assert!(
            responses[3].contains("snapshot_load_failures=0"),
            "{responses:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_load_of_a_corrupt_file_keeps_serving_and_is_counted() {
        let path = std::env::temp_dir().join(format!(
            "safebound_serve_snapbad_{}.snap",
            std::process::id()
        ));
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        let load = format!("SNAPSHOT LOAD {}", path.display());
        let responses = roundtrip(&[
            &load,
            "SELECT COUNT(*) FROM r, s WHERE r.x = s.x",
            "STATS",
            "QUIT",
        ]);
        assert!(
            responses[0].starts_with("ERR snapshot load:"),
            "{responses:?}"
        );
        // The rejected file never unpublishes the last-good statistics.
        assert!(responses[1].starts_with("OK "), "{responses:?}");
        assert!(
            responses[2].contains("snapshot_load_failures=1"),
            "{responses:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_verb_usage_errors() {
        let responses = roundtrip(&["SNAPSHOT SAVE", "SNAPSHOT FROB /tmp/x", "QUIT"]);
        assert_eq!(responses[0], "ERR usage: SNAPSHOT SAVE|LOAD <path>");
        assert!(
            responses[1].starts_with("ERR unknown SNAPSHOT op"),
            "{responses:?}"
        );
        assert_eq!(responses[2], "BYE");
    }

    #[test]
    fn settle_gives_back_what_a_request_grew_past_the_cap() {
        // The replies of a 65,536-line batch, then a 900 KB line.
        for grown in [1_300_000, 900_000] {
            let mut buf = Vec::with_capacity(BUFFER_START);
            buf.resize(grown, b'x');
            assert!(settle(&mut buf));
            assert_eq!(buf.capacity(), BUFFER_START);
        }
        // The replies of a 256-line batch stay: the next one reuses them.
        let mut buf = Vec::with_capacity(BUFFER_START);
        buf.resize(6_000, b'x');
        let kept = buf.capacity();
        assert!(!settle(&mut buf));
        assert_eq!(buf.capacity(), kept);
    }

    #[test]
    fn the_batch_pool_keeps_only_unshared_batches_within_the_cap() {
        let budget = BatchBudget::new(2);
        let idle = |b: &BatchBudget| lock_recover(&b.idle).len();
        let fill = |permit: &mut BatchPermit, lines: usize, width: usize| {
            for k in 0..lines {
                let sql = format!("SELECT COUNT(*) FROM t WHERE t.a = {k}");
                let slot = permit.batch.slot(k, lines).unwrap();
                parse_sql_into(&sql, slot).unwrap();
            }
            permit.batch.widest = width;
        };

        // Within the cap: pooled, and handed out again with its slots.
        let mut permit = budget.try_acquire().unwrap();
        fill(&mut permit, 256, 400);
        drop(permit);
        assert_eq!(idle(&budget), 1);
        let mut permit = budget.try_acquire().unwrap();
        assert_eq!(idle(&budget), 0);
        assert_eq!(permit.batch.queries.len(), 256);
        // Past the cap (slots × longest line): freed on return.
        fill(&mut permit, 1024, 400);
        drop(permit);
        assert_eq!(idle(&budget), 0);
        // Still held by someone else (a worker past its deadline): left
        // to them.
        let mut permit = budget.try_acquire().unwrap();
        fill(&mut permit, 16, 100);
        let late_worker = permit.batch.queries.clone();
        drop(permit);
        assert_eq!(idle(&budget), 0);
        drop(late_worker);
        // Pool and permits together never exceed the budget.
        let (mut a, mut b) = (budget.try_acquire().unwrap(), budget.try_acquire().unwrap());
        assert!(budget.try_acquire().is_none());
        fill(&mut a, 16, 100);
        fill(&mut b, 16, 100);
        drop((a, b));
        assert_eq!(idle(&budget), 2);
        assert_eq!(budget.in_use(), 0);
    }

    #[test]
    fn stats_token_flattens_and_truncates() {
        assert_eq!(stats_token("plain"), "plain");
        assert_eq!(stats_token("two words\there"), "two_words_here");
        assert_eq!(stats_token(""), "none");
        assert_eq!(stats_token(&"x".repeat(200)).len(), 80);
    }
}
