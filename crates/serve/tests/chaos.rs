//! Chaos suite: the serving stack under deterministic fault injection.
//! The fault layer is always compiled and inert until a test installs a
//! seeded schedule, so this suite runs under plain `cargo test`.
//!
//! Every schedule is seeded and the clients are serial, so each test
//! replays the same fault sequence run after run. Assertions are the
//! self-healing invariants:
//!
//! * injected panics — in a worker's batch job or on a connection thread
//!   answering a single line — degrade their in-flight lines to
//!   `ERR internal: …`, the shard's session is rebuilt, and every
//!   *successful* response stays bit-identical to a fault-free oracle;
//! * injected refresh-build failures never unpublish the last-good
//!   snapshot, surface their reason through `REFRESH`/`STATS`, and the
//!   refresher recovers once the schedule is exhausted;
//! * injected write errors and short writes on the TCP response path are
//!   absorbed by the retrying writer — response lines arrive whole;
//! * injected worker latency degrades to `ERR timeout: …` under the
//!   per-batch deadline, and the (slow, not dead) worker recovers;
//! * injected snapshot-file read errors, corruption, and truncation on a
//!   file-backed refresher surface as typed `ERR refresh snapshot load:`
//!   answers and `snapshot_load_failures` in `STATS`, never unpublish the
//!   last-good snapshot, and the refresher recovers once the schedule is
//!   exhausted;
//! * after all of the above, `SHUTDOWN` still drains and joins every
//!   thread (accept loop, handlers, workers, refresher).

use safebound_core::{SafeBound, SafeBoundBuilder, SafeBoundConfig};
use safebound_query::parse_sql;
use safebound_serve::{
    serve_with, BoundService, FaultInjector, RefreshConfig, ServeOptions, ShutdownToken,
    StatsRefresher,
};
use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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

/// Fault-free oracle responses (`OK <bound>` per workload line), computed
/// on the raw handle — the injector only hooks the serving paths, so this
/// stays clean even while the pool is being faulted.
fn oracle(sb: &SafeBound, sqls: &[String]) -> Vec<String> {
    sqls.iter()
        .map(|sql| format!("OK {}", sb.bound(&parse_sql(sql).unwrap()).unwrap()))
        .collect()
}

/// A serve_with instance on an ephemeral port; `stop` proves every thread
/// joined (accept loop returns, the service `Arc` becomes unique, the
/// refresher reports stopped).
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
            assert!(r.is_stopped(), "refresher must be joined after stop");
        }
        let Ok(service) = Arc::try_unwrap(self.service) else {
            panic!("a connection handler leaked a service reference past join");
        };
        drop(service); // joins the worker threads
    }
}

struct Conn {
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
            writer: BufWriter::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
    }

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

    /// Send the workload as one `BATCH` and collect its responses.
    fn batch(&mut self, sqls: &[String]) -> Vec<String> {
        self.send(&format!("BATCH {}", sqls.len()));
        for sql in sqls {
            self.send(sql);
        }
        (0..sqls.len())
            .map(|_| self.recv().expect("batch response"))
            .collect()
    }
}

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

/// ≥ 3 injected worker panics under live TCP: every panicked round
/// degrades to `ERR internal: …` (whole rounds — a 1-worker pool runs each
/// batch as one job), every healthy round is bit-identical to the oracle,
/// the pool respawns after each panic, and shutdown still joins everyone.
#[test]
fn server_survives_injected_worker_panics() {
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let sqls = workload_sql();
    let want = oracle(&sb, &sqls);
    let faults = FaultInjector::seeded(42)
        .panic_on_queries([5, 17, 31])
        .build();
    let service = Arc::new(BoundService::with_faults(sb, 1, faults.clone()));
    let server = TestServer::start(service, None, ShutdownToken::new(), quick_opts());

    let mut conn = server.connect();
    let mut err_rounds = 0u64;
    let mut clean_after_last_panic = 0u64;
    for round in 0..20u64 {
        let got = conn.batch(&sqls);
        let errs = got
            .iter()
            .filter(|r| r.starts_with("ERR internal: worker panicked"))
            .count();
        if errs > 0 {
            // Panic isolation is all-or-nothing per job: with one worker
            // the whole round rides one job, so every line degrades.
            assert_eq!(errs, got.len(), "round {round}: partial job? {got:?}");
            err_rounds += 1;
        } else {
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(g, w, "round {round}: healthy response diverged");
            }
            if faults.panics_injected() == 3 {
                clean_after_last_panic += 1;
                if clean_after_last_panic >= 3 {
                    break; // survived all scheduled panics + margin
                }
            }
        }
    }
    assert_eq!(
        err_rounds, 3,
        "each scheduled panic fails exactly one round"
    );
    assert_eq!(faults.panics_injected(), 3);
    assert_eq!(server.service.worker_panics(), 3);
    assert_eq!(server.service.worker_respawns(), 3);

    // Counters are visible over the wire, and the server is still fully
    // conversational.
    let stats = conn.roundtrip("STATS");
    assert_eq!(field(&stats, "worker_panics"), 3);
    assert_eq!(field(&stats, "worker_respawns"), 3);
    assert_eq!(conn.roundtrip("PING"), "PONG");
    assert_eq!(conn.roundtrip("QUIT"), "BYE");
    server.stop();
}

const PANICKED: &str = "ERR internal: worker panicked: injected worker fault";

/// Single SQL lines are answered on the connection's thread, and a panic
/// there is isolated like one on a worker: the scheduled lines — and only
/// those — answer `ERR internal`, every other line is the oracle's, the
/// counters are exact, and the connection stays conversational.
#[test]
fn single_lines_survive_injected_inline_panics() {
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let sqls = workload_sql();
    let want = oracle(&sb, &sqls);
    // One serial client: the global query sequence is the line number.
    let panics = [3u64, 14];
    let faults = FaultInjector::seeded(5).panic_on_queries(panics).build();
    let service = Arc::new(BoundService::with_faults(sb, 2, faults.clone()));
    let server = TestServer::start(service, None, ShutdownToken::new(), quick_opts());

    let mut conn = server.connect();
    for line in 0..3 * sqls.len() {
        let got = conn.roundtrip(&sqls[line % sqls.len()]);
        if panics.contains(&(line as u64)) {
            assert_eq!(got, PANICKED, "line {line}");
        } else {
            assert_eq!(got, want[line % sqls.len()], "line {line}");
        }
    }
    assert_eq!(faults.panics_injected(), 2);
    let stats = conn.roundtrip("STATS");
    assert_eq!(field(&stats, "worker_panics"), 2);
    assert_eq!(field(&stats, "worker_respawns"), 2);
    assert_eq!(field(&stats, "worker_timeouts"), 0);
    assert_eq!(conn.roundtrip("PING"), "PONG");
    assert_eq!(conn.roundtrip("QUIT"), "BYE");
    server.stop();
}

/// Batches (on the worker) and single lines (inline) alternate on one
/// connection and share one shard's session across injected panics: a
/// panic inside a batch fails that whole job and nothing after it, a
/// panic on a single line fails that line alone.
#[test]
fn singles_and_batches_interleave_across_panics() {
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let sqls = workload_sql();
    let want = oracle(&sb, &sqls);
    let n = sqls.len() as u64;
    // Round 0 is a batch, cut short by the panic at its 6th query (so it
    // consumes 6 sequence numbers, not n); round 1 is n single lines, the
    // 3rd of which panics; round 2 a clean batch; round 3 clean singles;
    // round 4 a batch that panics on its first query.
    let panics = [5, 6 + 2, 6 + 3 * n];
    let faults = FaultInjector::seeded(13).panic_on_queries(panics).build();
    let service = Arc::new(BoundService::with_faults(sb, 1, faults.clone()));
    let server = TestServer::start(service, None, ShutdownToken::new(), quick_opts());

    let mut conn = server.connect();
    for round in 0..6 {
        if round % 2 == 0 {
            let got = conn.batch(&sqls);
            if round == 0 || round == 4 {
                assert!(got.iter().all(|g| g == PANICKED), "round {round}: {got:?}");
            } else {
                assert_eq!(got, want, "round {round}");
            }
        } else {
            for (i, (sql, w)) in sqls.iter().zip(&want).enumerate() {
                let got = conn.roundtrip(sql);
                if round == 1 && i == 2 {
                    assert_eq!(got, PANICKED, "round {round} line {i}");
                } else {
                    assert_eq!(&got, w, "round {round} line {i}");
                }
            }
        }
    }
    assert_eq!(faults.panics_injected(), 3);
    let stats = conn.roundtrip("STATS");
    assert_eq!(field(&stats, "worker_panics"), 3);
    assert_eq!(field(&stats, "worker_respawns"), 3);
    assert_eq!(conn.roundtrip("QUIT"), "BYE");
    server.stop();
}

/// Injected refresh-build failures: `REFRESH` answers `ERR refresh <why>`
/// instead of hanging, the last-good snapshot keeps serving bit-identical
/// bounds throughout, failures are visible in `STATS`, and the first
/// build past the schedule publishes normally.
#[test]
fn refresh_failures_keep_last_good_snapshot() {
    let cat = catalog();
    let config = SafeBoundConfig::test_small();
    let sb = SafeBound::build(&cat, config.clone());
    let sqls = workload_sql();
    let want = oracle(&sb, &sqls);
    let faults = FaultInjector::seeded(7).fail_refresh_builds(2).build();
    let shutdown = ShutdownToken::new();
    let refresher = Arc::new(StatsRefresher::spawn_with_faults(
        sb.clone(),
        {
            let cat = catalog();
            move || Ok(SafeBoundBuilder::new(config.clone()).build(&cat))
        },
        RefreshConfig {
            backoff_base: Duration::from_millis(1),
            ..RefreshConfig::default()
        },
        shutdown.clone(),
        faults,
    ));
    let service = Arc::new(BoundService::new(sb.clone(), 2));
    let server = TestServer::start(service, Some(refresher), shutdown, quick_opts());

    let mut conn = server.connect();
    let initial_build = field(&conn.roundtrip("STATS"), "build");
    for attempt in 1..=2u64 {
        let resp = conn.roundtrip("REFRESH");
        assert_eq!(
            resp,
            format!("ERR refresh injected build failure #{attempt}"),
            "failed refresh must answer, not hang"
        );
        // Last-good is still published and still serving exact bounds.
        let stats = conn.roundtrip("STATS");
        assert_eq!(field(&stats, "build"), initial_build);
        assert_eq!(field(&stats, "swaps"), 0);
        assert_eq!(field(&stats, "refresh_failures"), attempt);
        assert!(
            stats.contains("refresh_last_error=injected_build_failure"),
            "{stats:?}"
        );
        for (sql, w) in sqls.iter().zip(&want) {
            assert_eq!(&conn.roundtrip(sql), w, "serving degraded during failure");
        }
    }
    // Schedule exhausted: the next demand publishes a fresh build.
    let resp = conn.roundtrip("REFRESH");
    assert!(resp.starts_with("REFRESHED build="), "{resp:?}");
    let new_build = field(&resp, "build");
    assert_ne!(new_build, initial_build);
    let stats = conn.roundtrip("STATS");
    assert_eq!(field(&stats, "build"), new_build);
    assert_eq!(field(&stats, "swaps"), 1);
    assert_eq!(field(&stats, "refresh_failures"), 2, "history is kept");
    // Same catalog, deterministic build: bounds stay bit-identical.
    for (sql, w) in sqls.iter().zip(&want) {
        assert_eq!(&conn.roundtrip(sql), w, "post-recovery response diverged");
    }
    assert_eq!(conn.roundtrip("QUIT"), "BYE");
    server.stop();
}

/// Injected snapshot-file faults on a file-backed refresher: a read
/// error, a corrupted read, and a truncated read each fail one `REFRESH`
/// with a typed reason — the last-good snapshot keeps serving bounds
/// bit-identical to the oracle under live TCP, `snapshot_load_failures`
/// grows in `STATS` — and once the fault schedule is exhausted the next
/// `REFRESH` reloads the (untouched) file and publishes.
#[test]
fn snapshot_file_faults_keep_last_good_and_recover() {
    let cat = catalog();
    let sb = SafeBound::build(&cat, SafeBoundConfig::test_small());
    let sqls = workload_sql();
    let want = oracle(&sb, &sqls);

    // Publish a valid snapshot file, then serve refreshes from it.
    let path = std::env::temp_dir().join(format!(
        "safebound_chaos_snapfile_{}.snap",
        std::process::id()
    ));
    safebound_core::save_snapshot(&path, &sb.snapshot()).expect("initial save");

    let shutdown = ShutdownToken::new();
    let refresher = Arc::new(StatsRefresher::spawn_file(
        sb.clone(),
        path.clone(),
        RefreshConfig {
            backoff_base: Duration::from_millis(1),
            ..RefreshConfig::default()
        },
        shutdown.clone(),
    ));
    let service = Arc::new(BoundService::new(sb.clone(), 2));
    let server = TestServer::start(service, Some(refresher.clone()), shutdown, quick_opts());
    let mut conn = server.connect();

    // Fault-free baseline: the file loads and publishes a fresh build.
    let resp = conn.roundtrip("REFRESH");
    assert!(resp.starts_with("REFRESHED build="), "{resp:?}");
    let good_build = field(&resp, "build");
    assert_eq!(conn.batch(&sqls), want, "file-loaded snapshot diverged");

    // One read error, one corrupted read, one truncated read — in that
    // order (the hook consumes its budgets error → corrupt → truncate).
    let injector = FaultInjector::seeded(11)
        .fail_snapshot_reads(1)
        .corrupt_snapshot_reads(1)
        .truncate_snapshot_reads(1)
        .build();
    let _hook = injector
        .install_file_hook(&path)
        .expect("enabled injector with file budgets installs a hook");

    for attempt in 1..=3u64 {
        let resp = conn.roundtrip("REFRESH");
        assert!(
            resp.starts_with("ERR refresh snapshot load:"),
            "attempt {attempt}: faulted load must fail typed, got {resp:?}"
        );
        let stats = conn.roundtrip("STATS");
        assert_eq!(field(&stats, "build"), good_build, "last-good unpublished");
        assert_eq!(field(&stats, "snapshot_load_failures"), attempt);
        assert_eq!(conn.batch(&sqls), want, "serving degraded during faults");
    }
    assert_eq!(refresher.snapshot_load_failures(), 3);

    // Budgets exhausted: the file on disk was never touched by the read
    // faults, so the very next demand reloads and publishes.
    let resp = conn.roundtrip("REFRESH");
    assert!(resp.starts_with("REFRESHED build="), "{resp:?}");
    assert_ne!(field(&resp, "build"), good_build, "reload mints a build");
    let stats = conn.roundtrip("STATS");
    assert_eq!(field(&stats, "snapshot_load_failures"), 3, "history kept");
    assert_eq!(conn.batch(&sqls), want, "post-recovery bounds diverged");

    assert_eq!(conn.roundtrip("QUIT"), "BYE");
    server.stop();
    let _ = std::fs::remove_file(&path);
}

/// Injected I/O errors and short writes on the response path: the
/// retrying writer must deliver every response byte-complete — faulting
/// every second write attempt, all responses stay bit-identical.
#[test]
fn write_faults_never_truncate_responses() {
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let sqls = workload_sql();
    let want = oracle(&sb, &sqls);
    let service = Arc::new(BoundService::new(sb, 2));
    let opts = ServeOptions {
        faults: FaultInjector::seeded(1234).fault_writes_every(2).build(),
        ..quick_opts()
    };
    let server = TestServer::start(service, None, ShutdownToken::new(), opts);

    let mut conn = server.connect();
    for round in 0..10 {
        // Alternate singles and batches: batch responses flush as one
        // multi-line buffer, singles as many small ones — both shapes hit
        // the injected Interrupted/WouldBlock/short-write schedule.
        if round % 2 == 0 {
            for (sql, w) in sqls.iter().zip(&want) {
                assert_eq!(&conn.roundtrip(sql), w, "round {round}");
            }
        } else {
            assert_eq!(conn.batch(&sqls), want, "round {round}");
        }
    }
    let stats = conn.roundtrip("STATS");
    assert!(stats.starts_with("STATS workers=2"), "{stats:?}");
    assert_eq!(conn.roundtrip("QUIT"), "BYE");
    server.stop();
}

/// Injected worker latency + a short per-batch deadline: the stalled
/// round degrades to `ERR timeout: …`, the worker is respected as slow
/// (no respawn), and once the delay passes the pool serves exact bounds.
#[test]
fn injected_latency_degrades_to_timeout() {
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let sqls = workload_sql();
    let want = oracle(&sb, &sqls);
    let faults = FaultInjector::seeded(9)
        .delay_queries([0], Duration::from_millis(400))
        .build();
    let service = Arc::new(BoundService::with_faults(sb, 1, faults));
    let opts = ServeOptions {
        batch_timeout: Some(Duration::from_millis(50)),
        ..quick_opts()
    };
    let server = TestServer::start(service, None, ShutdownToken::new(), opts);

    let mut conn = server.connect();
    let got = conn.batch(&sqls);
    assert!(
        got.iter().all(|r| r.starts_with("ERR timeout")),
        "stalled round must degrade, got {got:?}"
    );
    // The worker was slow, not dead: give it time to drain, then expect
    // exact service again — and no respawn, because nothing panicked.
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(conn.batch(&sqls), want, "post-stall responses diverged");
    let stats = conn.roundtrip("STATS");
    assert!(field(&stats, "worker_timeouts") >= 1);
    assert_eq!(field(&stats, "worker_panics"), 0);
    assert_eq!(field(&stats, "worker_respawns"), 0);
    assert_eq!(conn.roundtrip("QUIT"), "BYE");
    server.stop();
}

/// What the server answers for one line, from the fault-free handle: the
/// bound, the bound's error, or the parse error. `f64`'s `Display` is
/// shortest-round-trip, so equal `OK` text is equal bits.
fn expected_reply(sb: &SafeBound, line: &str) -> String {
    match parse_sql(line) {
        Ok(q) => match sb.bound(&q) {
            Ok(b) => format!("OK {b}"),
            Err(e) => format!("ERR {e}"),
        },
        Err(e) => format!("ERR parse: {e}"),
    }
}

/// Batches parse into recycled queries: a slot that held one template's
/// query (or was skipped by a parse error) takes another's, and a batch a
/// late worker still holds is left to it. On one connection — two
/// batches of different templates with parse errors between their lines,
/// a batch whose only shard misses the deadline, one more batch — every
/// reply reads exactly as a fresh parse and a fault-free bound say.
#[test]
fn recycled_batches_answer_exactly_across_templates_errors_and_a_timeout() {
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let first: Vec<String> = vec![
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = 1991".into(),
        "not sql at all".into(),
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND d.w IN (1, 3)".into(),
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year BETWEEN 1990 AND 1994"
            .into(),
        "SELECT COUNT(*) FROM fact WHERE year <> 1995".into(),
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND (d.w = 0 OR d.w = 2) \
         AND f.year > 1993"
            .into(),
        "SELECT COUNT(*) FROM nonexistent".into(),
    ];
    let second: Vec<String> = vec![
        "SELECT COUNT(*) FROM fact WHERE fact.year < 1996".into(),
        "SELECT COUNT(*) FROM dim WHERE dim.w = 1 AND dim.id >= 4".into(),
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = 'x''y'".into(),
        "SELECT COUNT(*) FROM fact f WHERE g.year = 1".into(),
        "SELECT COUNT(*) FROM fact".into(),
        "SELECT COUNT(*) FROM dim d, fact f WHERE d.id = f.fk AND d.w = 3 AND f.year IN (1990, \
         1999, 2001)"
            .into(),
    ];
    let third: Vec<String> = vec![
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = 1997".into(),
        "SELECT COUNT(*) FROM fact WHERE".into(),
        "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND d.w = 2".into(),
    ];
    let parsed = |lines: &[String]| lines.iter().filter(|l| parse_sql(l).is_ok()).count() as u64;
    // One shard, so the worker's query sequence is the parsed lines in
    // order: delay the third batch's first.
    let delayed = parsed(&first) + parsed(&second);
    let faults = FaultInjector::seeded(11)
        .delay_queries([delayed], Duration::from_millis(400))
        .build();
    let service = Arc::new(BoundService::with_faults(sb.clone(), 1, faults));
    let opts = ServeOptions {
        batch_timeout: Some(Duration::from_millis(50)),
        ..quick_opts()
    };
    let server = TestServer::start(service, None, ShutdownToken::new(), opts);
    let mut conn = server.connect();
    let exact = |lines: &[String]| -> Vec<String> {
        lines.iter().map(|l| expected_reply(&sb, l)).collect()
    };

    let got = conn.batch(&first);
    assert_eq!(got, exact(&first));
    assert_eq!(
        got[4],
        "ERR parse: parse error: <> (not-equal) predicates are not supported"
    );
    assert_eq!(conn.batch(&second), exact(&second));

    let got = conn.batch(&third);
    for ((line, reply), want) in third.iter().zip(&got).zip(exact(&third)) {
        if want.starts_with("OK ") {
            assert_eq!(reply, "ERR timeout: bound exceeded its deadline", "{line}");
        } else {
            assert_eq!(*reply, want, "{line}");
        }
    }
    // The late worker still holds that batch; the next one parses into a
    // batch of its own once the worker is free again.
    std::thread::sleep(Duration::from_millis(500));
    let mut fourth = second.clone();
    fourth.extend(first.iter().rev().cloned());
    assert_eq!(conn.batch(&fourth), exact(&fourth));

    let stats = conn.roundtrip("STATS");
    assert_eq!(field(&stats, "worker_timeouts"), 1);
    assert_eq!(field(&stats, "worker_panics"), 0);
    assert_eq!(conn.roundtrip("QUIT"), "BYE");
    server.stop();
}

/// Everything at once — worker panics, write faults, and refresh failures
/// in one run — then `SHUTDOWN` over the wire must still drain and join
/// every thread (`TestServer::stop` proves it by unwrapping the service
/// `Arc` and observing the refresher stopped).
#[test]
fn shutdown_joins_every_thread_after_chaos() {
    let cat = catalog();
    let config = SafeBoundConfig::test_small();
    let sb = SafeBound::build(&cat, config.clone());
    let sqls = workload_sql();
    let want = oracle(&sb, &sqls);
    let worker_faults = FaultInjector::seeded(3)
        .panic_on_queries([4, 23, 40])
        .build();
    let refresh_faults = FaultInjector::seeded(3).fail_refresh_builds(1).build();
    let shutdown = ShutdownToken::new();
    let refresher = Arc::new(StatsRefresher::spawn_with_faults(
        sb.clone(),
        {
            let cat = catalog();
            move || Ok(SafeBoundBuilder::new(config.clone()).build(&cat))
        },
        RefreshConfig {
            backoff_base: Duration::from_millis(1),
            ..RefreshConfig::default()
        },
        shutdown.clone(),
        refresh_faults,
    ));
    let service = Arc::new(BoundService::with_faults(sb, 2, worker_faults));
    let opts = ServeOptions {
        faults: FaultInjector::seeded(99).fault_writes_every(3).build(),
        ..quick_opts()
    };
    let server = TestServer::start(service, Some(refresher), shutdown, opts);

    let mut conn = server.connect();
    let failed_refresh = conn.roundtrip("REFRESH");
    assert_eq!(failed_refresh, "ERR refresh injected build failure #1");
    let mut healthy_rounds = 0;
    for _ in 0..20 {
        let got = conn.batch(&sqls);
        for (w, g) in want.iter().zip(&got) {
            assert!(
                g == w || g.starts_with("ERR internal: worker panicked"),
                "response neither exact nor degraded: {g:?}"
            );
        }
        if got == want {
            healthy_rounds += 1;
        }
    }
    assert!(healthy_rounds > 0, "pool never recovered between panics");
    assert_eq!(server.service.worker_panics(), 3, "all panics consumed");
    let ok_refresh = conn.roundtrip("REFRESH");
    assert!(ok_refresh.starts_with("REFRESHED build="), "{ok_refresh:?}");

    // SHUTDOWN over the wire, after all that. The BYE is flushed before
    // the handler triggers the token, so poll briefly rather than racing
    // the handler thread.
    assert_eq!(conn.roundtrip("SHUTDOWN"), "BYE");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !server.shutdown.is_triggered() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(server.shutdown.is_triggered());
    server.stop();
}
