//! Serving-lifecycle integration tests: live TCP traffic under background
//! statistics refresh, admission control (connection and in-flight-batch
//! budgets), idle timeouts, protocol edge cases, and graceful shutdown
//! that joins every thread.
//!
//! The acceptance stress test drives concurrent clients while the
//! [`StatsRefresher`] performs background swaps: every response must stay
//! bit-identical to the pre-swap reference (the catalog is unchanged, so
//! a rebuild publishes statistically identical — and deterministically
//! built — statistics under a new build id), and the final shutdown must
//! drain the accept loop, every connection handler, the worker pool, and
//! the refresher.

use safebound_core::{SafeBound, SafeBoundBuilder, SafeBoundConfig};
use safebound_query::parse_sql;
use safebound_serve::{
    serve_with, BoundService, DeltaSource, RefreshConfig, ServeOptions, ShutdownToken,
    StatsRefresher,
};
use safebound_storage::{Catalog, CatalogDelta, Column, DataType, Field, Schema, Table, Value};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fact/dimension catalog small enough that a statistics rebuild takes
/// milliseconds (the refresher rebuilds it repeatedly under load).
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

fn workload_sql() -> Vec<String> {
    let mut sqls = vec!["SELECT COUNT(*) FROM fact".to_string()];
    for w in 0..4 {
        sqls.push(format!(
            "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND d.w = {w}"
        ));
    }
    for y in [1991, 1995, 1999] {
        sqls.push(format!(
            "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = {y}"
        ));
        sqls.push(format!(
            "SELECT COUNT(*) FROM fact f, dim d \
             WHERE f.fk = d.id AND f.year BETWEEN {} AND {y}",
            y - 3
        ));
    }
    sqls
}

/// A serve_with instance on an ephemeral port, with handles to everything
/// that must be joined on the way down.
struct TestServer {
    addr: SocketAddr,
    shutdown: ShutdownToken,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    service: Arc<BoundService>,
    refresher: Option<Arc<StatsRefresher>>,
}

impl TestServer {
    fn start(
        service: Arc<BoundService>,
        refresher: Option<Arc<StatsRefresher>>,
        shutdown: ShutdownToken,
        opts: ServeOptions,
    ) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let thread = {
            let service = service.clone();
            let refresher = refresher.clone();
            let shutdown = shutdown.clone();
            std::thread::spawn(move || serve_with(service, listener, refresher, shutdown, opts))
        };
        TestServer {
            addr,
            shutdown,
            thread: Some(thread),
            service,
            refresher,
        }
    }

    fn connect(&self) -> Conn {
        Conn::open(self.addr)
    }

    /// Trigger shutdown and prove every thread drains: the accept loop
    /// returns (joining its handlers), the service Arc becomes unique
    /// (dropping it joins the workers), and the refresher stops.
    fn stop(mut self) {
        self.shutdown.trigger();
        self.thread
            .take()
            .unwrap()
            .join()
            .expect("accept loop panicked")
            .expect("accept loop errored");
        if let Some(r) = self.refresher.take() {
            r.stop();
            assert!(r.is_stopped());
        }
        let Ok(service) = Arc::try_unwrap(self.service) else {
            panic!("a connection handler leaked a service reference past join");
        };
        drop(service); // joins the worker threads
    }
}

/// One line-protocol client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Conn {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream.try_clone().unwrap()),
            stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
    }

    /// Next response line (`None` on clean EOF).
    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim().to_string()),
            Err(e) => panic!("client read failed/timed out: {e}"),
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv().expect("response before EOF")
    }
}

/// Extract `key=<u64>` from a STATS-style response.
fn field(resp: &str, key: &str) -> u64 {
    resp.split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {resp:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key}= in {resp:?}"))
}

fn quick_opts() -> ServeOptions {
    ServeOptions {
        tick: Duration::from_millis(5),
        ..ServeOptions::default()
    }
}

/// The acceptance stress test: concurrent TCP clients, ≥2 background
/// stats swaps mid-traffic, all responses bit-identical to the pre-swap
/// reference, and a shutdown that joins every thread.
#[test]
fn stress_refresh_under_live_traffic() {
    let cat = catalog();
    let config = SafeBoundConfig::test_small();
    let sb = SafeBound::build(&cat, config.clone());

    // Reference responses, computed before any swap. The catalog never
    // changes, and the statistics build is deterministic, so every
    // response during and after the swaps must be bit-identical.
    let sqls = workload_sql();
    let expected: Vec<String> = sqls
        .iter()
        .map(|sql| format!("OK {}", sb.bound(&parse_sql(sql).unwrap()).unwrap()))
        .collect();

    let shutdown = ShutdownToken::new();
    let refresher = Arc::new(StatsRefresher::spawn(
        sb.clone(),
        {
            let cat = catalog();
            move || Ok(SafeBoundBuilder::new(config.clone()).build(&cat))
        },
        RefreshConfig::default(),
        shutdown.clone(),
    ));
    let service = Arc::new(BoundService::new(sb.clone(), 2));
    let server = TestServer::start(
        service,
        Some(refresher.clone()),
        shutdown.clone(),
        quick_opts(),
    );

    // Three clients hammer the server with singles and batches while the
    // main thread forces two synchronous background rebuild+swap cycles.
    let addr = server.addr;
    let clients: Vec<JoinHandle<()>> = (0..3)
        .map(|c| {
            let sqls = sqls.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr);
                for round in 0..30 {
                    if (round + c) % 3 == 0 {
                        // Batched round.
                        conn.send(&format!("BATCH {}", sqls.len()));
                        for sql in &sqls {
                            conn.send(sql);
                        }
                        for want in &expected {
                            let got = conn.recv().expect("batch response");
                            assert_eq!(&got, want, "client {c} round {round}");
                        }
                    } else {
                        for (sql, want) in sqls.iter().zip(&expected) {
                            let got = conn.roundtrip(sql);
                            assert_eq!(&got, want, "client {c} round {round}");
                        }
                    }
                }
                assert_eq!(conn.roundtrip("QUIT"), "BYE");
            })
        })
        .collect();

    // ≥ 2 swaps while the clients are mid-traffic.
    let (build1, gen1) = refresher.refresh_blocking().expect("first refresh");
    let (build2, gen2) = refresher.refresh_blocking().expect("second refresh");
    assert_ne!(build1, build2);
    assert_eq!((gen1, gen2), (1, 2));

    for c in clients {
        c.join().expect("client panicked (response mismatch?)");
    }
    assert!(
        sb.swap_count() >= 2,
        "refresher must have swapped ≥ 2 times"
    );
    assert_eq!(sb.build_id(), build2, "latest build must be live");

    // A post-swap client still sees bit-identical bounds and fresh stats.
    let mut conn = server.connect();
    for (sql, want) in sqls.iter().zip(&expected) {
        assert_eq!(&conn.roundtrip(sql), want, "post-swap response diverged");
    }
    let stats = conn.roundtrip("STATS");
    assert_eq!(field(&stats, "build"), build2);
    assert_eq!(field(&stats, "generation"), 2);
    assert!(field(&stats, "swaps") >= 2);
    assert_eq!(conn.roundtrip("QUIT"), "BYE");

    server.stop();
}

#[test]
fn refresh_verb_returns_new_build_id() {
    let cat = catalog();
    let config = SafeBoundConfig::test_small();
    let sb = SafeBound::build(&cat, config.clone());
    let shutdown = ShutdownToken::new();
    let refresher = Arc::new(StatsRefresher::spawn(
        sb.clone(),
        move || Ok(SafeBoundBuilder::new(config.clone()).build(&cat)),
        RefreshConfig::default(),
        shutdown.clone(),
    ));
    let service = Arc::new(BoundService::new(sb, 1));
    let server = TestServer::start(service, Some(refresher), shutdown, quick_opts());

    let mut conn = server.connect();
    let before = field(&conn.roundtrip("STATS"), "build");
    let refreshed = conn.roundtrip("REFRESH");
    assert!(refreshed.starts_with("REFRESHED build="), "{refreshed:?}");
    let new_build = field(&refreshed, "build");
    assert_ne!(new_build, before, "REFRESH must publish a new build");
    assert_eq!(field(&refreshed, "generation"), 1);
    let stats = conn.roundtrip("STATS");
    assert_eq!(field(&stats, "build"), new_build);
    assert_eq!(field(&stats, "swaps"), 1);
    assert_eq!(conn.roundtrip("QUIT"), "BYE");
    server.stop();
}

#[test]
fn overloaded_batches_are_shed_with_bounded_memory() {
    // A zero in-flight-batch budget makes every batch an admission miss:
    // the server must drain the announced lines (keeping the protocol in
    // sync) and answer one `ERR overloaded` — never buffering the batch.
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let service = Arc::new(BoundService::new(sb, 1));
    let opts = ServeOptions {
        max_inflight_batches: 0,
        ..quick_opts()
    };
    let server = TestServer::start(service, None, ShutdownToken::new(), opts);

    let mut conn = server.connect();
    conn.send("BATCH 3");
    conn.send("SELECT COUNT(*) FROM fact");
    conn.send("SELECT COUNT(*) FROM fact");
    conn.send("SELECT COUNT(*) FROM fact");
    assert_eq!(conn.recv().unwrap(), "ERR overloaded");
    // The connection stays in sync: singles still work, and a second
    // overloaded batch sheds again rather than growing any queue.
    assert_eq!(conn.roundtrip("PING"), "PONG");
    conn.send("BATCH 2");
    conn.send("SELECT COUNT(*) FROM fact");
    conn.send("SELECT COUNT(*) FROM fact");
    assert_eq!(conn.recv().unwrap(), "ERR overloaded");
    let stats = conn.roundtrip("STATS");
    assert_eq!(field(&stats, "inflight_batches"), 0);
    assert_eq!(conn.roundtrip("QUIT"), "BYE");
    server.stop();
}

/// A connection whose buffers a request grew past their cap — the
/// replies of a batch beyond 64 KiB, then a 900 KB line — shrinks them
/// and rebuilds its query (the capacities are asserted by the server's
/// unit tests), and keeps answering exactly: the next batch and single
/// lines match the handle's bounds.
#[test]
fn a_connection_keeps_serving_exactly_after_shrinking_its_buffers() {
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let service = Arc::new(BoundService::new(sb.clone(), 2));
    let server = TestServer::start(service, None, ShutdownToken::new(), quick_opts());
    let sqls = workload_sql();
    let want: Vec<String> = sqls
        .iter()
        .map(|sql| format!("OK {}", sb.bound(&parse_sql(sql).unwrap()).unwrap()))
        .collect();

    let mut conn = server.connect();
    let lines = 12_000;
    conn.send(&format!("BATCH {lines}"));
    for i in 0..lines {
        conn.send(&sqls[i % sqls.len()]);
    }
    for i in 0..lines {
        assert_eq!(conn.recv().unwrap(), want[i % sqls.len()], "line {i}");
    }
    let long = format!(
        "SELECT COUNT(*) FROM fact WHERE fact.year = '{}'",
        "y".repeat(900_000)
    );
    let long_want = sb.bound(&parse_sql(&long).unwrap()).unwrap();
    assert_eq!(conn.roundtrip(&long), format!("OK {long_want}"));

    conn.send(&format!("BATCH {}", sqls.len()));
    for sql in &sqls {
        conn.send(sql);
    }
    for w in &want {
        assert_eq!(&conn.recv().unwrap(), w);
    }
    for (sql, w) in sqls.iter().zip(&want) {
        assert_eq!(&conn.roundtrip(sql), w);
    }
    assert_eq!(conn.roundtrip("QUIT"), "BYE");
    server.stop();
}

#[test]
fn connection_budget_sheds_excess_clients() {
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let service = Arc::new(BoundService::new(sb, 1));
    let opts = ServeOptions {
        max_connections: 1,
        ..quick_opts()
    };
    let server = TestServer::start(service, None, ShutdownToken::new(), opts);

    let mut first = server.connect();
    assert_eq!(first.roundtrip("PING"), "PONG"); // admitted and live
    let mut second = server.connect();
    assert_eq!(
        second.recv().unwrap(),
        "ERR overloaded",
        "second connection must be shed at the budget"
    );
    assert!(second.recv().is_none(), "shed connection must be closed");
    // Releasing the first slot admits new clients again.
    assert_eq!(first.roundtrip("QUIT"), "BYE");
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut third = server.connect();
        third.send("PING");
        match third.recv().unwrap().as_str() {
            "PONG" => break,
            "ERR overloaded" if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    server.stop();
}

#[test]
fn protocol_edge_cases() {
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let fact_rows = sb
        .bound(&parse_sql("SELECT COUNT(*) FROM fact").unwrap())
        .unwrap();
    let service = Arc::new(BoundService::new(sb, 2));
    let server = TestServer::start(service, None, ShutdownToken::new(), quick_opts());

    let mut conn = server.connect();
    // BATCH 0: zero queries, zero responses — the stream stays in sync.
    conn.send("BATCH 0");
    assert_eq!(conn.roundtrip("PING"), "PONG");
    // Over MAX_BATCH: refused outright.
    let over = conn.roundtrip("BATCH 65537");
    assert!(over.starts_with("ERR batch of 65537 exceeds"), "{over:?}");
    // Malformed count.
    let bad = conn.roundtrip("BATCH many");
    assert!(bad.starts_with("ERR malformed BATCH count"), "{bad:?}");
    // QUIT inside a batch body is just a failing query line; the batch
    // answers in order and the connection survives.
    conn.send("BATCH 2");
    conn.send("QUIT");
    conn.send("SELECT COUNT(*) FROM fact");
    let r1 = conn.recv().unwrap();
    assert!(r1.starts_with("ERR parse"), "{r1:?}");
    assert_eq!(conn.recv().unwrap(), format!("OK {fact_rows}"));
    assert_eq!(conn.roundtrip("PING"), "PONG");
    assert_eq!(conn.roundtrip("QUIT"), "BYE");

    // EOF mid-batch: the lines that arrived are answered, then the
    // connection closes cleanly on the missing remainder.
    let mut eof_conn = server.connect();
    eof_conn.send("BATCH 3");
    eof_conn.send("SELECT COUNT(*) FROM fact");
    eof_conn.stream.shutdown(Shutdown::Write).unwrap();
    assert_eq!(eof_conn.recv().unwrap(), format!("OK {fact_rows}"));
    assert!(eof_conn.recv().is_none(), "EOF after partial batch answers");

    server.stop();
}

#[test]
fn overlong_request_lines_are_refused() {
    // A newline-less byte stream must not grow the server's line buffer
    // without bound: past the 1 MiB cap the request is refused and the
    // connection closed.
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let service = Arc::new(BoundService::new(sb, 1));
    let server = TestServer::start(service, None, ShutdownToken::new(), quick_opts());

    let mut conn = server.connect();
    let chunk = vec![b'a'; 64 * 1024];
    let mut raw = conn.stream.try_clone().unwrap();
    for _ in 0..40 {
        // 2.5 MiB total, no newline. Writes may fail once the server
        // refuses and closes its end; that's the expected outcome.
        if raw.write_all(&chunk).is_err() {
            break;
        }
    }
    let resp = conn.recv().expect("refusal line before close");
    assert!(
        resp.starts_with("ERR request line exceeds"),
        "expected overlong refusal, got {resp:?}"
    );
    assert!(conn.recv().is_none(), "overlong connection must be closed");
    server.stop();
}

#[test]
fn idle_connections_are_closed() {
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let service = Arc::new(BoundService::new(sb, 1));
    let opts = ServeOptions {
        idle_timeout: Duration::from_millis(100),
        ..quick_opts()
    };
    let server = TestServer::start(service, None, ShutdownToken::new(), opts);

    let mut conn = server.connect();
    assert_eq!(conn.roundtrip("PING"), "PONG");
    let started = Instant::now();
    assert_eq!(conn.recv().unwrap(), "BYE", "idle connection must be told");
    assert!(conn.recv().is_none(), "then closed");
    assert!(
        started.elapsed() >= Duration::from_millis(50),
        "must not close before the idle timeout"
    );
    server.stop();
}

#[test]
fn stalled_mid_batch_connection_degrades_and_closes() {
    // A client that announces `BATCH 3`, sends one line, and goes silent
    // must not wedge its handler thread (and admission slot) forever: at
    // the idle timeout the server answers a single `ERR timeout …` line
    // and closes the connection.
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let service = Arc::new(BoundService::new(sb, 1));
    let opts = ServeOptions {
        idle_timeout: Duration::from_millis(100),
        ..quick_opts()
    };
    let server = TestServer::start(service, None, ShutdownToken::new(), opts);

    let mut conn = server.connect();
    conn.send("BATCH 3");
    conn.send("SELECT COUNT(*) FROM fact");
    // …and stall. The server must speak first.
    let resp = conn.recv().expect("degradation line before close");
    assert!(
        resp.starts_with("ERR timeout idle mid-batch"),
        "expected mid-batch timeout degradation, got {resp:?}"
    );
    assert!(resp.contains("got 1 of 3"), "{resp:?}");
    assert!(conn.recv().is_none(), "stalled batch connection must close");

    // The admission slot came back: a fresh connection serves normally.
    let mut next = server.connect();
    assert_eq!(next.roundtrip("PING"), "PONG");
    assert_eq!(next.roundtrip("QUIT"), "BYE");
    server.stop();
}

/// PR 7 acceptance: catalog deltas applied under live TCP traffic through
/// the incremental [`DeltaSource`] path. After each published delta the
/// served bounds must (a) stay **sound** against an exact-count oracle on
/// the mutated catalog and (b) be **bit-identical** to a from-scratch
/// rebuild of that catalog — exercising both the insert-absorb and the
/// delete/rebuild maintenance paths while background clients keep the
/// server busy.
#[test]
fn delta_refresh_under_live_traffic_is_sound_and_bit_identical() {
    use safebound_exec::exact_count;
    use std::sync::atomic::{AtomicBool, Ordering};

    let config = SafeBoundConfig::test_small();
    let source = DeltaSource::new(catalog(), config.clone());
    let sb = SafeBound::from_stats(source.snapshot());
    let shutdown = ShutdownToken::new();
    let refresher = Arc::new(StatsRefresher::spawn(
        sb.clone(),
        source.source(),
        RefreshConfig::default(),
        shutdown.clone(),
    ));
    let service = Arc::new(BoundService::new(sb.clone(), 2));
    let server = TestServer::start(
        service,
        Some(refresher.clone()),
        shutdown.clone(),
        quick_opts(),
    );

    // Background clients keep live traffic flowing across every swap;
    // each response must be a well-formed bound, never an error.
    let sqls = workload_sql();
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<JoinHandle<()>> = (0..2)
        .map(|c| {
            let sqls = sqls.clone();
            let stop = stop.clone();
            let addr = server.addr;
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr);
                while !stop.load(Ordering::Relaxed) {
                    for sql in &sqls {
                        let got = conn.roundtrip(sql);
                        assert!(got.starts_with("OK "), "client {c}: {got:?}");
                    }
                }
                assert_eq!(conn.roundtrip("QUIT"), "BYE");
            })
        })
        .collect();

    // Served bounds must match a from-scratch build of `oracle_catalog`
    // bit for bit, and dominate the exact count.
    let check_phase = |phase: &str, oracle_catalog: &Catalog| {
        let reference =
            SafeBound::from_stats(SafeBoundBuilder::new(config.clone()).build(oracle_catalog));
        let mut conn = Conn::open(server.addr);
        for sql in &sqls {
            let q = parse_sql(sql).unwrap();
            let got = conn.roundtrip(sql);
            let served: f64 = got
                .strip_prefix("OK ")
                .unwrap_or_else(|| panic!("{phase}: {got:?}"))
                .parse()
                .unwrap();
            let want = reference.bound(&q).unwrap();
            assert_eq!(served, want, "{phase} / {sql}: diverges from full rebuild");
            let truth = exact_count(oracle_catalog, &q).unwrap() as f64;
            assert!(
                served >= truth * (1.0 - 1e-9),
                "{phase} / {sql}: bound {served} underestimates {truth}"
            );
        }
        assert_eq!(conn.roundtrip("QUIT"), "BYE");
    };

    let mut oracle = catalog();
    check_phase("initial", &oracle);

    // Phase 1 — insert-only delta into fact: the absorb path (dim is
    // untouched, so fact's retained partial just merges the new rows).
    let inserts = CatalogDelta::inserting(
        "fact",
        (0..24)
            .map(|i| vec![Value::Int(i % 16), Value::Int(1993 + (i % 9))])
            .collect(),
    );
    source.submit(inserts.clone());
    let before = sb.build_id();
    let (build1, _) = refresher
        .refresh_blocking()
        .expect("insert delta publishes");
    assert_ne!(build1, before, "delta refresh must publish a new build");
    assert_eq!((source.pending(), source.applied()), (0, 1));
    oracle.apply_delta(&inserts).unwrap();
    check_phase("insert-absorb", &oracle);

    // Phase 2 — mixed delta: delete fact rows and grow the dimension
    // (the rebuild-one-table path, plus the dim→fact dirty fan-out).
    let mut mixed = CatalogDelta::deleting("fact", vec![0, 5, 17, 31, 32, 120]);
    mixed.add(
        "dim",
        safebound_storage::TableDelta::inserting(vec![vec![Value::Int(16), Value::Int(2)]]),
    );
    source.submit(mixed.clone());
    let (build2, _) = refresher.refresh_blocking().expect("mixed delta publishes");
    assert_ne!(build2, build1);
    assert_eq!((source.pending(), source.applied()), (0, 2));
    oracle.apply_delta(&mixed).unwrap();
    check_phase("delete-rebuild", &oracle);

    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().expect("traffic client panicked");
    }
    assert!(
        sb.swap_count() >= 2,
        "both delta refreshes must have swapped"
    );
    server.stop();
}

#[test]
fn shutdown_verb_drains_the_whole_server() {
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let service = Arc::new(BoundService::new(sb, 2));
    let server = TestServer::start(service, None, ShutdownToken::new(), quick_opts());

    // A second, idle connection must also be drained by the shutdown.
    let mut idle_conn = server.connect();
    assert_eq!(idle_conn.roundtrip("PING"), "PONG");

    let mut conn = server.connect();
    assert_eq!(conn.roundtrip("SHUTDOWN"), "BYE");
    assert!(server.shutdown.is_triggered());
    assert_eq!(
        idle_conn.recv().unwrap(),
        "BYE",
        "idle connections drain on shutdown"
    );
    assert!(idle_conn.recv().is_none());
    // stop() joins the accept loop + handlers and unwraps the service
    // Arc — proving no handler thread leaked.
    server.stop();
}
