//! The four wire-level workloads: a closed-loop client over a real
//! loopback socket against `serve_with` running in this process.
//!
//! One connection sends a request (a bare SQL line, or `BATCH 256`) and
//! waits for every reply line before the next; `wire_refresh` adds a
//! second connection that submits insert deltas and sends `REFRESH` on a
//! fixed schedule. Every reply is checked against the in-process bound
//! computed in set-up.

use crate::gen;
use crate::hist::{median, Windows};
use crate::run::{self, Outcome, RunArgs, SetupTimes};
use crate::trace::{Tracer, ROOT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safebound_bench::experiment_config;
use safebound_core::bound::fdsb_with_scratch;
use safebound_core::{BoundScratch, BoundSession, IncrementalBuilder, SafeBound, SafeBoundBuilder};
use safebound_datagen::{imdb_catalog, insert_batch};
use safebound_exec::exact_count;
use safebound_query::{parse_sql, Query};
use safebound_serve::{
    serve_with, BoundService, DeltaSource, RefreshConfig, ServeOptions, ShutdownToken,
    StatsRefresher,
};
use safebound_storage::{Catalog, CatalogDelta};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Error, ErrorKind, Result, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH: usize = 256;
/// Draws in the Zipf request stream of the repeated-line workloads (cycled).
const STREAM_DRAWS: usize = 1 << 20;
/// `wire_refresh` publishes once per period, first at half a period.
const REFRESH_PERIOD: Duration = Duration::from_secs(2);
/// Deltas the traced run also applies directly, for `apply_ms`.
const DIRECT_APPLIES: usize = 2;
/// Rows per delta, as a share of the target table.
const DELTA_SHARE: f64 = 0.005;
/// Lines of the final `wire_refresh` batches compared with a full rebuild.
const FINAL_CHECK_LINES: usize = 2 * BATCH;
const PINGS: usize = 200;
const KERNEL_CHECK_LINES: usize = 64;
/// A reply this late means the server is wedged; fail instead of hanging.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Single,
    BatchHot,
    BatchFresh,
    Refresh,
}

impl Kind {
    fn batch(self) -> usize {
        if self == Kind::Single {
            1
        } else {
            BATCH
        }
    }

    /// Re-drawn literals (a pool far larger than the literal cache) rather
    /// than Zipf repeats of the 270 fixed lines.
    fn fresh(self) -> bool {
        matches!(self, Kind::BatchFresh | Kind::Refresh)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Single => "wire_single",
            Kind::BatchHot => "wire_batch_hot",
            Kind::BatchFresh => "wire_batch_fresh",
            Kind::Refresh => "wire_refresh",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        [
            Kind::Single,
            Kind::BatchHot,
            Kind::BatchFresh,
            Kind::Refresh,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

/// The repeatable part of set-up: a pure function of the seed.
struct Data {
    catalog: Catalog,
    sb: SafeBound,
    /// `wire_refresh`: the incremental builder behind the server's
    /// refresher; its initial statistics are what `sb` serves.
    incremental: Option<IncrementalBuilder>,
    /// Request lines; `stream` indexes into it.
    pool: Vec<String>,
    stream: Vec<u32>,
    /// Bits of the in-process bound of each pool line.
    expected: Vec<u64>,
    /// `wire_refresh`: the insert deltas in publish order, and the catalog
    /// with all of them applied.
    deltas: Vec<CatalogDelta>,
    mutated: Catalog,
}

fn bound_bits(sb: &SafeBound, session: &mut BoundSession, sql: &str) -> u64 {
    let q = parse_sql(sql).unwrap_or_else(|e| panic!("generated line does not parse: {sql}: {e}"));
    sb.bound_with_session(&q, session)
        .unwrap_or_else(|e| panic!("generated line does not bound: {sql}: {e}"))
        .to_bits()
}

fn prepare(kind: Kind, args: &RunArgs) -> (Data, SetupTimes) {
    let (catalog, catalog_s) = run::timed(|| imdb_catalog(&args.sizing.imdb, gen::DATA_SEED));
    // The build this workload's server starts from (`core.stats.build_ms`): single
    // pass, or for `wire_refresh` the incremental builder's partition scan.
    let ((snapshot, incremental), build_s) = run::timed(|| {
        if kind == Kind::Refresh {
            let builder = IncrementalBuilder::new(catalog.clone(), experiment_config());
            (builder.snapshot(), Some(builder))
        } else {
            (
                SafeBoundBuilder::new(experiment_config()).build(&catalog),
                None,
            )
        }
    });
    let sb = SafeBound::from_stats(snapshot);
    let templates = gen::templates();
    let (pool, stream) = if kind.fresh() {
        let pool = gen::fresh_pool(&templates, args.seed, args.sizing.pool_lines);
        let stream = (0..pool.len() as u32).collect();
        (pool, stream)
    } else {
        let stream = gen::zipf_draws(args.seed, templates.len(), STREAM_DRAWS);
        (templates, stream)
    };
    let mut session = BoundSession::default();
    let expected = pool
        .iter()
        .map(|sql| bound_bits(&sb, &mut session, sql))
        .collect();
    let mut mutated = catalog.clone();
    let mut deltas = Vec::new();
    if kind == Kind::Refresh {
        // The largest table no foreign key points into: inserts stay on the
        // incremental absorb path.
        let target = catalog
            .tables()
            .filter(|t| catalog.foreign_keys_into(&t.name).next().is_none())
            .max_by_key(|t| t.num_rows())
            .expect("a table without inbound foreign keys")
            .name
            .clone();
        let rows = ((mutated.table(&target).map_or(0, |t| t.num_rows()) as f64 * DELTA_SHARE)
            as usize)
            .max(1);
        let phases = if args.trace { 2 } else { 1 };
        let publishes = phases * publishes_per_phase(args.phase());
        for k in 0..publishes as u64 {
            let delta = insert_batch(&mutated, &target, rows, args.seed ^ (0xDE17A << 8) ^ k);
            mutated
                .apply_delta(&delta)
                .expect("generated delta applies");
            deltas.push(delta);
        }
    }
    let data = Data {
        catalog,
        sb,
        incremental,
        pool,
        stream,
        expected,
        deltas,
        mutated,
    };
    let times = SetupTimes {
        total_s: 0.0,
        catalog_s,
        build_s,
    };
    (data, times)
}

fn publishes_per_phase(phase: Duration) -> usize {
    ((phase.as_secs_f64() / REFRESH_PERIOD.as_secs_f64()) as usize).max(1)
}

/// One client connection: `TCP_NODELAY`, reused request and reply buffers.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    line: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, writer.try_clone()?),
            writer,
            out: Vec::with_capacity(1 << 17),
            line: Vec::with_capacity(256),
        })
    }

    fn send(&mut self) -> Result<()> {
        self.writer.write_all(&self.out)
    }

    /// Read one reply line into `self.line` (newline trimmed).
    fn read_line(&mut self) -> Result<()> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while self.line.last().is_some_and(u8::is_ascii_whitespace) {
            self.line.pop();
        }
        Ok(())
    }

    /// Send a one-line verb and return its one-line reply.
    fn command(&mut self, verb: &str) -> Result<String> {
        self.out.clear();
        self.out.extend_from_slice(verb.as_bytes());
        self.out.push(b'\n');
        self.send()?;
        self.read_line()?;
        Ok(String::from_utf8_lossy(&self.line).into_owned())
    }

    /// The numeric `key=value` fields of a `STATS` reply.
    fn stats(&mut self) -> Result<BTreeMap<String, u64>> {
        let reply = self.command("STATS")?;
        Ok(reply
            .split_whitespace()
            .filter_map(|t| t.split_once('='))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
            .collect())
    }
}

/// The bound of an `OK <bound>` reply line.
fn parse_ok(reply: &[u8]) -> Option<f64> {
    std::str::from_utf8(reply.strip_prefix(b"OK ")?)
        .ok()?
        .parse()
        .ok()
}

/// Answer verification and failure accounting.
struct Checker {
    expected: Vec<u64>,
    /// Exact cardinality of the sampled lines on the initial catalog, 0
    /// elsewhere: no bound may fall below it.
    floor: Vec<f64>,
    /// Off while `wire_refresh` publishes: statistics change under the
    /// stream, so only soundness is checked line by line.
    bit_exact: bool,
    attempted: u64,
    failed: u64,
    err_lines: u64,
    underestimates: u64,
}

impl Checker {
    fn check(&mut self, idx: usize, reply: &[u8]) {
        self.attempted += 1;
        match parse_ok(reply) {
            Some(b) if b < self.floor[idx] => {
                self.underestimates += 1;
                self.failed += 1;
            }
            Some(b) if self.bit_exact && b.to_bits() != self.expected[idx] => self.failed += 1,
            Some(_) => {}
            None => {
                self.failed += 1;
                self.err_lines += u64::from(reply.starts_with(b"ERR"));
            }
        }
    }
}

/// Client-side timestamps of one request, ns since the phase's epoch.
struct Exchange {
    start: u64,
    sent: u64,
    first_reply: u64,
    done: u64,
}

/// The closed-loop client.
struct Driver<'a> {
    conn: Conn,
    pool: &'a [String],
    stream: &'a [u32],
    cursor: usize,
    batch: usize,
    /// Pool indices of the request in flight.
    ids: Vec<u32>,
    check: Checker,
    overloaded: u64,
}

impl Driver<'_> {
    /// Send the next request of the stream and read and check its replies.
    fn exchange(&mut self, epoch: Instant) -> Result<Exchange> {
        let now = || epoch.elapsed().as_nanos() as u64;
        self.ids.clear();
        for _ in 0..self.batch {
            self.ids.push(self.stream[self.cursor % self.stream.len()]);
            self.cursor += 1;
        }
        let pool = self.pool;
        gen::request_bytes(
            self.ids.iter().map(|&i| pool[i as usize].as_str()),
            &mut self.conn.out,
        );
        let start = now();
        self.conn.send()?;
        let sent = now();
        let mut first_reply = sent;
        for (k, &idx) in self.ids.iter().enumerate() {
            self.conn.read_line()?;
            if k == 0 {
                first_reply = now();
                if self.batch > 1 && self.conn.line == b"ERR overloaded" {
                    // A shed batch is answered by this one line.
                    self.overloaded += 1;
                    self.check.attempted += self.batch as u64;
                    self.check.failed += self.batch as u64;
                    self.check.err_lines += 1;
                    break;
                }
            }
            self.check.check(idx as usize, &self.conn.line);
        }
        Ok(Exchange {
            start,
            sent,
            first_reply,
            done: now(),
        })
    }

    /// Run the closed loop until `windows` are covered (or the ladder's
    /// span buffer is full), recording each request.
    fn run(
        &mut self,
        windows: &mut Windows,
        epoch: Instant,
        mut ladder: Option<&mut Ladder>,
    ) -> Result<()> {
        let begin = epoch.elapsed().as_nanos() as u64;
        loop {
            if let Some(l) = &ladder {
                if !l.tracer.has_room(Ladder::SPANS_PER_REQUEST) {
                    break;
                }
            }
            let x = self.exchange(epoch)?;
            if x.start - begin >= windows.span_ns() {
                break;
            }
            windows.record(x.done - begin, x.done - x.start, self.batch as u64);
            if let Some(l) = ladder.as_deref_mut() {
                l.climb(self, &x);
            }
        }
        Ok(())
    }
}

/// The rungs below the TCP server, each fed the same requests in the same
/// order so their caches evolve as the server's do.
struct Ladder {
    tracer: Tracer,
    /// A second service, called directly.
    service: BoundService,
    /// A bare handle with its own phase-timed session.
    sb: SafeBound,
    session: BoundSession,
    requests: u64,
}

impl Ladder {
    const SPANS_PER_REQUEST: usize = 10;

    fn new(sb: &SafeBound, workers: usize) -> Ladder {
        let mut session = BoundSession::default();
        session.set_phase_timing(true);
        Ladder {
            tracer: Tracer::new(),
            service: BoundService::new(sb.clone(), workers),
            sb: sb.clone(),
            session,
            requests: 0,
        }
    }

    /// Record the TCP rung's spans for request `x`, then replay the same
    /// request on the parser, the service and the session rungs.
    fn climb(&mut self, d: &Driver, x: &Exchange) {
        let id = self.requests;
        self.requests += 1;
        let t = &mut self.tracer;
        let root = t.span("request", x.start, x.done, ROOT, id);
        t.span("client.send", x.start, x.sent, root, id);
        t.span("client.wait", x.sent, x.first_reply, root, id);
        t.span("client.recv", x.first_reply, x.done, root, id);

        let (queries, _) = t.timed("query.parse", ROOT, id, || {
            d.ids
                .iter()
                .map(|&i| parse_sql(&d.pool[i as usize]).expect("set-up parsed this line"))
                .collect::<Vec<Query>>()
        });
        let service = &self.service;
        let (queries, served) = t.timed("serve.service.bound", ROOT, id, || {
            if queries.len() == 1 {
                std::hint::black_box(service.bound(&queries[0]).ok());
                Arc::from(queries)
            } else {
                let shared: Arc<[Query]> = queries.into();
                std::hint::black_box(service.bound_batch_shared(shared.clone()));
                shared
            }
        });
        let before = self.session.phase_breakdown();
        let (sb, session) = (&self.sb, &mut self.session);
        let start = t.now();
        for q in queries.iter() {
            std::hint::black_box(sb.bound_with_session(q, session).ok());
        }
        let end = t.now();
        let est = t.span("core.estimator.bound", start, end, served, id);
        // The session reports phase totals, not intervals: lay the three
        // phases end to end from the start of the estimator span.
        let after = self.session.phase_breakdown();
        let mut at = start;
        for (name, ns) in [
            (
                "core.estimator.resolve",
                after.resolve_ns - before.resolve_ns,
            ),
            (
                "core.estimator.assemble",
                after.assemble_ns - before.assemble_ns,
            ),
            ("core.bound.kernel", after.kernel_ns - before.kernel_ns),
        ] {
            t.span(name, at, at + ns, est, id);
            at += ns;
        }
    }
}

/// The write side of `wire_refresh`: its own connection and the delta
/// source behind the server's refresher.
struct Publisher {
    conn: Conn,
    source: DeltaSource,
    /// ms from delta submit to `REFRESHED`, one per publish.
    publish_ms: Vec<f64>,
    failures: u64,
}

impl Publisher {
    /// Submit one delta and send `REFRESH` per period, first at half a
    /// period, until `deltas` are used up.
    fn publish_on_schedule(&mut self, deltas: &[CatalogDelta]) -> Result<()> {
        let started = Instant::now();
        for (k, delta) in deltas.iter().enumerate() {
            let due = REFRESH_PERIOD.mul_f64(k as f64 + 0.5);
            std::thread::sleep(due.saturating_sub(started.elapsed()));
            let submitted = Instant::now();
            self.source.submit(delta.clone());
            let reply = self.conn.command("REFRESH")?;
            self.publish_ms
                .push(submitted.elapsed().as_secs_f64() * 1e3);
            self.failures += u64::from(!reply.starts_with("REFRESHED"));
        }
        Ok(())
    }
}

/// One timed phase: the closed-loop reader, beside the publisher's
/// schedule when there is one.
fn timed_phase(
    driver: &mut Driver,
    publisher: Option<(&mut Publisher, &[CatalogDelta])>,
    mut windows: Windows,
    ladder: Option<&mut Ladder>,
) -> Result<Windows> {
    let epoch = ladder
        .as_ref()
        .map_or_else(Instant::now, |l| l.tracer.epoch());
    match publisher {
        None => driver.run(&mut windows, epoch, ladder)?,
        Some((publisher, deltas)) => std::thread::scope(|s| {
            let writes = s.spawn(|| publisher.publish_on_schedule(deltas));
            let reads = driver.run(&mut windows, epoch, ladder);
            let writes = writes.join().expect("publisher thread panicked");
            reads.and(writes)
        })?,
    }
    Ok(windows)
}

/// Median ns per query of the bare kernel over every relaxation of a
/// sample of lines: the cross-check of the session's kernel phase.
fn kernel_check_ns(sb: &SafeBound, pool: &[String]) -> f64 {
    let mut scratch = BoundScratch::default();
    let per_query: Vec<f64> = pool
        .iter()
        .take(KERNEL_CHECK_LINES)
        .filter_map(|sql| sb.bound_inputs(&parse_sql(sql).ok()?).ok())
        .map(|inputs| {
            let started = Instant::now();
            for (plan, stats) in &inputs {
                std::hint::black_box(fdsb_with_scratch(plan, stats, &mut scratch).ok());
            }
            started.elapsed().as_nanos() as f64
        })
        .collect();
    median(&per_query)
}

/// The server under test, running in this process.
struct Server {
    addr: SocketAddr,
    shutdown: ShutdownToken,
    thread: std::thread::JoinHandle<Result<()>>,
    /// `wire_refresh` only: the delta source and the refresher it feeds.
    refresh: Option<(DeltaSource, Arc<StatsRefresher>)>,
}

impl Server {
    /// `serve_with` on a loopback port with default options.
    fn start(data: &mut Data, workers: usize) -> Result<Server> {
        let shutdown = ShutdownToken::new();
        let refresh = data.incremental.take().map(|builder| {
            let source = DeltaSource::from_builder(builder);
            let refresher = StatsRefresher::spawn(
                data.sb.clone(),
                source.source(),
                RefreshConfig::default(),
                shutdown.clone(),
            );
            (source, Arc::new(refresher))
        });
        let service = Arc::new(BoundService::new(data.sb.clone(), workers));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = {
            let shutdown = shutdown.clone();
            let refresher = refresh.as_ref().map(|(_, r)| r.clone());
            std::thread::Builder::new()
                .name("bench-server".into())
                .spawn(move || {
                    serve_with(
                        service,
                        listener,
                        refresher,
                        shutdown,
                        ServeOptions::default(),
                    )
                })?
        };
        Ok(Server {
            addr,
            shutdown,
            thread,
            refresh,
        })
    }

    /// Stop accepting, and wait for the handlers, the workers and the
    /// refresher to end.
    fn stop(self) -> Result<()> {
        self.shutdown.trigger();
        self.thread
            .join()
            .map_err(|_| Error::other("server thread panicked"))??;
        if let Some((_, refresher)) = self.refresh {
            refresher.stop();
        }
        Ok(())
    }
}

/// What the exact oracle says, computed once in set-up.
struct Oracle {
    /// Per pool line, the exact cardinality if the line was checked, else
    /// 0: no reply may fall below it.
    floor: Vec<f64>,
    /// `(bound, exact)` of the first `sample` templates: the same queries
    /// under every seed, so tightness is comparable across runs.
    pairs: Vec<(f64, u128)>,
    /// Exact counts taken.
    checked: u64,
}

fn oracle(kind: Kind, data: &Data, args: &RunArgs) -> Oracle {
    let exact = |sql: &str| {
        let q = parse_sql(sql).expect("set-up parsed this line");
        exact_count(&data.catalog, &q).expect("oracle covers the workload")
    };
    let mut floor = vec![0.0; data.pool.len()];
    let mut pairs = Vec::new();
    if kind.fresh() {
        let mut session = BoundSession::default();
        for sql in gen::templates().iter().take(args.sizing.sample) {
            pairs.push((
                f64::from_bits(bound_bits(&data.sb, &mut session, sql)),
                exact(sql),
            ));
        }
        // The lines actually sent differ from the templates: a seeded
        // sample of them gets a floor as well.
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5A3F);
        for _ in 0..args.sizing.sample / 2 {
            let idx = rng.random_range(0..data.pool.len());
            floor[idx] = exact(&data.pool[idx]) as f64;
        }
    } else {
        let checked = data.pool.iter().zip(&data.expected).zip(&mut floor);
        for ((sql, bits), floor) in checked.take(args.sizing.sample) {
            let n = exact(sql);
            *floor = n as f64;
            pairs.push((f64::from_bits(*bits), n));
        }
    }
    // Only the fresh kinds check pool lines beyond the templates.
    let beyond = if kind.fresh() {
        args.sizing.sample / 2
    } else {
        0
    };
    Oracle {
        floor,
        checked: (pairs.len() + beyond) as u64,
        pairs,
    }
}

fn counter(stats: &BTreeMap<String, u64>, key: &str) -> u64 {
    stats.get(key).copied().unwrap_or(0)
}

/// The per-layer numbers the ladder yields, from the traced phase's spans.
fn ladder_metrics(out: &mut Outcome, t: &Tracer, batch: usize, ping_ns: f64, check_closure: bool) {
    let (rtt, parse, served, est) = (
        t.durations("request"),
        t.durations("query.parse"),
        t.durations("serve.service.bound"),
        t.durations("core.estimator.bound"),
    );
    // Differences are taken per request id, then reduced by the median.
    let derived = |f: &dyn Fn(usize) -> f64| median(&(0..rtt.len()).map(f).collect::<Vec<_>>());
    let per_line = batch as f64;
    let bound_ns = median(&est) / per_line;
    let phases = [
        t.median_ns("core.estimator.resolve") / per_line,
        t.median_ns("core.estimator.assemble") / per_line,
        t.median_ns("core.bound.kernel") / per_line,
    ];
    out.set("query.parse_ns", median(&parse) / per_line);
    out.set("core.estimator.bound_ns", bound_ns);
    out.set("core.estimator.resolve_ns", phases[0]);
    out.set("core.estimator.assemble_ns", phases[1]);
    out.set("core.bound.kernel_ns", phases[2]);
    out.set(
        "core.estimator.other_ns",
        bound_ns - phases.iter().sum::<f64>(),
    );
    out.set(
        "serve.service.dispatch_ns",
        derived(&|i| served[i] - est[i]) / per_line,
    );
    out.set("serve.server.ping_rtt_us", ping_ns / 1e3);
    let self_us = derived(&|i| rtt[i] - parse[i] - served[i]) / 1e3;
    out.set("serve.server.self_us", self_us);
    // What the PING floor leaves unexplained of the server's own time:
    // longer lines, reply formatting, cache effects.
    let unattributed_us = self_us - ping_ns / 1e3;
    out.set("bench.unattributed_us", unattributed_us);
    let rtt_us = median(&rtt) / 1e3;
    out.require(
        !check_closure || unattributed_us.abs() <= 0.15 * rtt_us,
        || format!("ladder does not close: {unattributed_us:.1} us unattributed of {rtt_us:.1} us"),
    );
}

pub fn run(kind: Kind, args: &RunArgs) -> Result<Outcome> {
    let mut out = Outcome::default();
    let workers = run::nproc().min(2);
    let batch = kind.batch();

    // ---- Set-up, repeatable part (median of `setup_reps`) ----
    let (mut data, times) = run::repeat_setup(args.setup_reps(), || prepare(kind, args));

    // ---- Set-up, once: oracle sample, server, connections, warm-up ----
    let once = Instant::now();
    let (oracle, check_s) = run::timed(|| oracle(kind, &data, args));
    let (tight_p50, tight_p95, sample_under) = run::tightness(&oracle.pairs);
    let server = Server::start(&mut data, workers)?;
    let expected = std::mem::take(&mut data.expected);
    let mut driver = Driver {
        conn: Conn::connect(server.addr)?,
        pool: &data.pool,
        stream: &data.stream,
        cursor: 0,
        batch,
        ids: Vec::with_capacity(batch),
        check: Checker {
            expected,
            floor: oracle.floor,
            bit_exact: kind != Kind::Refresh,
            attempted: 0,
            failed: 0,
            err_lines: 0,
            underestimates: 0,
        },
        overloaded: 0,
    };
    let mut publisher = match &server.refresh {
        Some((source, _)) => Some(Publisher {
            conn: Conn::connect(server.addr)?,
            source: source.clone(),
            publish_ms: Vec::new(),
            failures: 0,
        }),
        None => None,
    };
    let warm_ns = args.sizing.warmup.as_nanos() as u64;
    driver.run(&mut Windows::new(1, warm_ns), Instant::now(), None)?;
    let setup_s = times.total_s + once.elapsed().as_secs_f64();

    // ---- Timed phase, tracing off ----
    let publishes = publishes_per_phase(args.phase());
    let mut phase = |driver: &mut Driver, ladder: Option<&mut Ladder>, nth: usize| {
        let deltas = &data.deltas;
        let publisher = publisher
            .as_mut()
            .map(|p| (p, &deltas[nth * publishes..(nth + 1) * publishes]));
        timed_phase(driver, publisher, args.windows(), ladder)
    };
    let before = driver.conn.stats()?;
    let lines_before = driver.check.attempted;
    let windows = phase(&mut driver, None, 0)?;
    let after = driver.conn.stats()?;
    let lines = (driver.check.attempted - lines_before).max(1) as f64;
    let d = |key: &str| counter(&after, key).saturating_sub(counter(&before, key));
    let lit_hit_ratio = run::share(d("lit_bound_hits"), d("lit_bound_misses"));
    let shape_hit_ratio = run::share(d("shape_hits"), d("shape_misses"));
    // Lines that reached neither a worker's resolver nor its kernel.
    let absorbed = (d("batch_dedup_hits") + d("lit_bound_hits")) as f64 / lines;
    match kind {
        Kind::BatchHot => out.require(absorbed >= 0.95, || {
            format!("dedup + literal cache absorbed only {absorbed:.3} of lines")
        }),
        Kind::BatchFresh => out.require(shape_hit_ratio >= 0.99 && lit_hit_ratio <= 0.25, || {
            format!("shape hits {shape_hit_ratio:.3}, literal hits {lit_hit_ratio:.3}")
        }),
        _ => {}
    }

    // ---- Traced phase: the ladder ----
    if args.trace {
        let mut ping = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let started = Instant::now();
            driver.conn.command("PING")?;
            ping.push(started.elapsed().as_nanos() as f64);
        }
        let mut ladder = Ladder::new(&data.sb, workers);
        let traced = phase(&mut driver, Some(&mut ladder), 1)?;
        let t = &ladder.tracer;
        ladder_metrics(&mut out, t, batch, median(&ping), kind == Kind::Single);
        out.set(
            "core.bound.kernel_check_ns",
            kernel_check_ns(&data.sb, &data.pool),
        );
        run::set_trace_overhead(&mut out, &windows, &traced, t);
        std::fs::create_dir_all(&args.out_dir)?;
        t.write(
            &args.out_dir.join(format!("trace-{}.json", kind.name())),
            kind.name(),
        )?;
    }

    // ---- After the last publish: bit-identical to a full rebuild ----
    if kind == Kind::Refresh {
        let rebuilt =
            SafeBound::from_stats(SafeBoundBuilder::new(experiment_config()).build(&data.mutated));
        let mut session = BoundSession::default();
        let lines = FINAL_CHECK_LINES.min(data.pool.len());
        for idx in 0..lines {
            driver.check.expected[idx] = bound_bits(&rebuilt, &mut session, &data.pool[idx]);
        }
        driver.cursor = 0;
        driver.check.bit_exact = true;
        let failed_before = driver.check.failed;
        for _ in 0..lines / batch {
            driver.exchange(Instant::now())?;
        }
        let differ = driver.check.failed - failed_before;
        out.require(differ == 0, || {
            format!("{differ} of {lines} lines after the last publish differ from a full rebuild")
        });
    }

    // ---- Tear-down: every thread ends before the result is reported ----
    let end = driver.conn.stats()?;
    let Driver {
        conn,
        check,
        overloaded,
        ..
    } = driver;
    drop(conn);
    let (publish_ms, publish_failures) = match publisher {
        Some(p) => (p.publish_ms, p.failures),
        None => (Vec::new(), 0),
    };
    server.stop()?;

    out.attempted = check.attempted + oracle.checked;
    out.failed = check.failed + sample_under;
    out.set_failures(check.underestimates + sample_under);
    run::set_common_metrics(
        &mut out,
        &windows,
        setup_s,
        &times,
        check_s,
        (tight_p50, tight_p95),
    );
    out.set("stats_bytes", data.sb.snapshot().byte_size() as f64);

    if kind == Kind::Refresh && args.trace {
        // The same deltas applied directly, without server or refresher.
        let mut builder = IncrementalBuilder::new(data.catalog.clone(), experiment_config());
        let apply_ms: Vec<f64> = data
            .deltas
            .iter()
            .take(DIRECT_APPLIES)
            .map(|delta| run::timed(|| builder.apply(delta).is_ok()).1 * 1e3)
            .collect();
        out.set("core.incremental.apply_ms", median(&apply_ms));
    }
    let since_start = |key: &str| counter(&end, key).saturating_sub(counter(&before, key));
    out.set("datagen.pool_lines", data.pool.len() as f64);
    run::set_cache_metrics(&mut out, &d);
    out.set(
        "serve.service.dedup_share",
        d("batch_dedup_hits") as f64 / lines,
    );
    out.set("serve.service.spills", d("spills") as f64);
    out.set(
        "serve.service.worker_timeouts",
        since_start("worker_timeouts") as f64,
    );
    out.set("serve.server.err_lines", check.err_lines as f64);
    out.set("serve.server.overloaded", overloaded as f64);
    if !publish_ms.is_empty() {
        out.set("serve.refresh.publish_ms", median(&publish_ms));
    }
    out.set("serve.refresh.swaps", since_start("swaps") as f64);
    out.set(
        "serve.refresh.failures",
        (publish_failures + since_start("refresh_failures")) as f64,
    );
    out.set("core.stats.cds_sets", data.sb.snapshot().num_sets() as f64);
    Ok(out)
}
