//! Allocation audit of the serving path, from request bytes to reply
//! bytes, over loopback TCP. It is the only test in its binary: the
//! counting allocator below counts every thread but the client's (the
//! accept loop and the connection handler, which computes the bounds), so
//! no other test may run beside it.
//!
//! After warm-up, on templates the sessions know and with literals they
//! have not seen:
//! * a single SQL line allocates nothing: it parses into the connection's
//!   query and is bounded on the connection's thread;
//! * a `BATCH` allocates [`BATCH_ALLOCATIONS`] times whatever its length,
//!   all of it the batch path's per-batch scratch. Its lines parse into
//!   the recycled batch's slots and allocate nothing.

use safebound_core::{SafeBound, SafeBoundConfig};
use safebound_serve::{serve_with, BoundService, ServeOptions, ShutdownToken};
use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What one batch allocates: the representatives, the dedup map and its
/// links, and the returned results.
const BATCH_ALLOCATIONS: usize = 4;

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the client thread, whose own allocations are not audited.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn bump() {
    if !UNCOUNTED.try_with(Cell::get).unwrap_or(true) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: a pure pass-through to the `System` allocator plus a counter
// bump — layout handling, ownership, and pointer validity are exactly
// `System`'s, and `bump` never allocates or unwinds (`try_with` absorbs
// TLS teardown).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System.alloc` — forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: `layout` is passed through unchanged from our caller,
        // who upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: same contract as `System.dealloc` — forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from our `alloc`, which returned
        // `System`'s pointer unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: same contract as `System.realloc` — forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: arguments forwarded unchanged under the caller's
        // `GlobalAlloc::realloc` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(Table::new(
        "dim",
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("w", DataType::Int),
        ]),
        vec![
            Column::from_ints((0..64).map(Some)),
            Column::from_ints((0..64).map(|i| Some(i % 8))),
        ],
    ));
    let mut fk = Vec::new();
    let mut year = Vec::new();
    for v in 0i64..64 {
        for r in 0..(256 / (v + 1)) {
            fk.push(Some(v));
            year.push(Some(1900 + (r * 7 + v) % 120));
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

/// SplitMix64: the line generator's only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A line on one of five templates, each literal drawn afresh: the
/// shapes repeat, the literal vectors almost never do.
fn fresh_line(rng: &mut Rng) -> String {
    let year = 1850 + rng.below(200);
    let w = rng.below(64);
    match rng.below(5) {
        0 => format!("SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year = {year}"),
        1 => format!(
            "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND f.year BETWEEN {year} AND {}",
            year + rng.below(40)
        ),
        2 => format!(
            "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND d.w = {w} AND f.year < {year}"
        ),
        3 => format!(
            "SELECT COUNT(*) FROM fact WHERE year IN ({year}, {}, {})",
            year + 1 + rng.below(9),
            year + 10 + rng.below(9)
        ),
        _ => format!(
            "SELECT COUNT(*) FROM fact f, dim d WHERE f.fk = d.id AND (d.w = {w} OR d.w = {}) \
             AND d.id > {}",
            rng.below(64),
            rng.below(64)
        ),
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl Client {
    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
    }

    fn recv(&mut self) -> &str {
        self.writer.flush().unwrap();
        self.line.clear();
        self.reader.read_line(&mut self.line).unwrap();
        self.line.trim_end()
    }

    /// Send a batch and check every reply is a bound.
    fn batch(&mut self, lines: &[String]) {
        self.send(&format!("BATCH {}", lines.len()));
        for l in lines {
            self.send(l);
        }
        for l in lines {
            let reply = self.recv();
            assert!(reply.starts_with("OK "), "{reply}: {l}");
        }
    }

    /// A `PING` round trip: once it is answered, the server has finished
    /// everything it did for the request before it.
    fn sync(&mut self) {
        self.send("PING");
        assert_eq!(self.recv(), "PONG");
    }
}

/// Server-side allocations while `request` runs and the server settles.
fn audited(client: &mut Client, request: impl FnOnce(&mut Client)) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    request(client);
    client.sync();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn fresh_literal_requests_allocate_a_constant_per_batch_and_nothing_per_line() {
    let sb = SafeBound::build(&catalog(), SafeBoundConfig::test_small());
    let service = Arc::new(BoundService::new(sb, 2));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = ShutdownToken::new();
    let opts = ServeOptions {
        tick: Duration::from_millis(5),
        ..ServeOptions::default()
    };
    let server = {
        let shutdown = shutdown.clone();
        std::thread::spawn(move || serve_with(service, listener, None, shutdown, opts))
    };
    UNCOUNTED.with(|u| u.set(true));
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut client = Client {
        reader: BufReader::new(stream.try_clone().unwrap()),
        writer: BufWriter::new(stream),
        line: String::new(),
    };
    let mut rng = Rng(7);
    let mut lines = |n: usize| -> Vec<String> { (0..n).map(|_| fresh_line(&mut rng)).collect() };

    // Warm-up: fill the session's literal cache until every slot has
    // been recycled several times, so its key buffer has grown to the
    // largest key size class (40,960 lines over 4096 slots); grow the
    // recycled batch to 256 slots; stock the handler's parser with every
    // template's parts.
    for _ in 0..160 {
        client.batch(&lines(256));
    }
    for line in lines(64) {
        client.send(&line);
        assert!(client.recv().starts_with("OK "));
    }
    client.sync();

    let mut per_batch = Vec::new();
    for n in [64, 256, 64, 256] {
        let batch = lines(n);
        per_batch.push((n, audited(&mut client, |c| c.batch(&batch))));
    }
    for (n, allocated) in &per_batch {
        assert_eq!(*allocated, BATCH_ALLOCATIONS, "BATCH {n}: {per_batch:?}");
    }
    for line in lines(32) {
        let allocated = audited(&mut client, |c| {
            c.send(&line);
            assert!(c.recv().starts_with("OK "));
        });
        assert_eq!(allocated, 0, "{line}");
    }

    client.send("QUIT");
    assert_eq!(client.recv(), "BYE");
    shutdown.trigger();
    server.join().unwrap().unwrap();
}
