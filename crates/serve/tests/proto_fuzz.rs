//! Protocol fuzz: randomized malformed, truncated, and interleaved
//! request lines against a live server.
//!
//! The property: for any script of garbage the handler **never panics,
//! never desyncs, and never wedges** — every request gets its modeled
//! number of response lines, every response matches the protocol grammar,
//! and the connection (and the server as a whole) stays conversational
//! afterwards. Scripts are drawn from the deterministic in-tree proptest
//! shim (seeded per test name), so failures replay exactly.
//!
//! One server is shared across cases (spinning a catalog + statistics
//! build per case would dominate the run); each case gets its own
//! connection, which is also what a misbehaving client looks like in
//! production.

use proptest::prelude::*;
use safebound_core::{SafeBound, SafeBoundConfig};
use safebound_serve::{serve_with, BoundService, ServeOptions, ShutdownToken};
use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
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
        let service = Arc::new(BoundService::new(sb, 2));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Detached: the fuzz server lives for the whole test process.
        std::thread::spawn(move || {
            serve_with(
                service,
                listener,
                None,
                ShutdownToken::new(),
                ServeOptions::default(),
            )
        });
        addr
    })
}

/// One scripted request and the number of response lines it must produce.
#[derive(Debug, Clone)]
struct Step {
    /// Raw lines to send (header + body for batches), `\n`-free.
    lines: Vec<String>,
    /// Exact number of response lines the server must answer with.
    responses: usize,
}

/// Characters a hostile line is built from: SQL-ish text, shell noise,
/// embedded NULs, escape bytes, high Unicode — everything except `\n`
/// and `\r` (which delimit/get trimmed and would change the line count).
fn garbage_char() -> impl Strategy<Value = char> {
    (0usize..GARBAGE_POOL.len()).prop_map(|i| GARBAGE_POOL[i])
}

const GARBAGE_POOL: &[char] = &[
    'a', 'Z', '0', '9', ' ', '\t', '(', ')', '*', ',', '.', '=', '<', '>', '\'', '"', ';', '\\',
    '\0', '\x01', '\x1b', '\x7f', 'µ', '🦀', '的', 'S', 'E', 'L', 'C', 'T', 'F', 'R', 'O', 'M',
    'B', 'A', 'H', '-', '+', '_', '|', '&', '%', '!', '?',
];

/// A single hostile line. Never `QUIT`/`SHUTDOWN` at top level (those end
/// the conversation — the harness sends its own), never empty-after-trim
/// ambiguous: whitespace-only lines are modeled as zero responses.
fn garbage_line() -> impl Strategy<Value = String> {
    collection::vec(garbage_char(), 0..40).prop_map(|cs| {
        let s: String = cs.into_iter().collect();
        match s.trim() {
            "QUIT" | "SHUTDOWN" => "QUIT…not".to_string(),
            _ => s,
        }
    })
}

/// An "oversized token" line: one multi-KiB word (well under the 1 MiB
/// line cap, which closes the connection by design).
fn oversized_token_line() -> impl Strategy<Value = String> {
    (1024usize..4096).prop_map(|n| "x".repeat(n))
}

fn known_verb_or_sql() -> impl Strategy<Value = (String, usize)> {
    (0usize..6).prop_map(|pick| match pick {
        0 => ("PING".to_string(), 1),
        1 => ("STATS".to_string(), 1),
        2 => ("REFRESH".to_string(), 1), // "ERR no refresher configured"
        3 => ("SELECT COUNT(*) FROM r, s WHERE r.x = s.x".to_string(), 1),
        4 => ("BATCH nonsense".to_string(), 1), // malformed count
        _ => ("BATCH 99999999".to_string(), 1), // over MAX_BATCH
    })
}

/// One step: a plain line (garbage, verb, SQL, oversized token,
/// whitespace) or a `BATCH n` whose body is itself hostile. The body
/// always answers exactly one line per announced line — `QUIT`, `BATCH`,
/// NUL bytes, whatever, inside a batch body is just a failing query.
fn step() -> impl Strategy<Value = Step> {
    (0usize..10).prop_flat_map(|kind| match kind {
        // Batches (with hostile bodies) — weighted ~2/10.
        0 | 1 => (0usize..5)
            .prop_flat_map(|n| {
                (
                    Just(n),
                    collection::vec(
                        (0usize..4).prop_flat_map(|body_kind| match body_kind {
                            0 => garbage_line().boxed(),
                            1 => Just("QUIT".to_string()).boxed(),
                            2 => Just("BATCH 3".to_string()).boxed(),
                            _ => Just("SELECT COUNT(*) FROM r, s WHERE r.x = s.x".to_string())
                                .boxed(),
                        }),
                        n,
                    ),
                )
            })
            .prop_map(|(n, body)| {
                let mut lines = vec![format!("BATCH {n}")];
                lines.extend(body);
                Step {
                    lines,
                    responses: n,
                }
            })
            .boxed(),
        // Oversized single token.
        2 => oversized_token_line()
            .prop_map(|l| Step {
                lines: vec![l],
                responses: 1,
            })
            .boxed(),
        // Known verbs / valid SQL / malformed BATCH headers.
        3 | 4 => known_verb_or_sql()
            .prop_map(|(l, responses)| Step {
                lines: vec![l],
                responses,
            })
            .boxed(),
        // Raw garbage (possibly whitespace-only → zero responses).
        _ => garbage_line()
            .prop_map(|l| {
                let responses = usize::from(!l.trim().is_empty());
                Step {
                    lines: vec![l],
                    responses,
                }
            })
            .boxed(),
    })
}

/// Is `resp` a line the protocol is allowed to emit?
fn grammatical(resp: &str) -> bool {
    resp == "PONG"
        || resp == "BYE"
        || resp.starts_with("OK ")
        || resp.starts_with("ERR ")
        || resp.starts_with("STATS ")
        || resp.starts_with("REFRESHED ")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The core property: any script of hostile lines yields exactly the
    /// modeled responses, all grammatical, and the connection still
    /// answers PING/QUIT afterwards. The script is written in random
    /// chunk sizes (split mid-line, mid-token, mid-UTF-8) to exercise
    /// partial reads — the server must reassemble lines regardless of
    /// how they arrive.
    #[test]
    fn hostile_scripts_never_desync_the_server(
        steps in collection::vec(step(), 1..12),
        chunk_seed in 0u64..u64::MAX,
    ) {
        let addr = server_addr();
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;

        // Serialize the whole script (+ sentinel) into one byte buffer…
        let mut script: Vec<u8> = Vec::new();
        let mut expected_responses = 0usize;
        for s in &steps {
            for line in &s.lines {
                script.extend_from_slice(line.as_bytes());
                script.push(b'\n');
            }
            expected_responses += s.responses;
        }
        script.extend_from_slice(b"PING\nQUIT\n");

        // …and send it in deterministic random-size chunks.
        let mut rng = TestRng::from_name(&format!("chunks-{chunk_seed}"));
        let mut sent = 0usize;
        while sent < script.len() {
            let n = 1 + rng.below(64.min(script.len() - sent));
            writer.write_all(&script[sent..sent + n]).unwrap();
            writer.flush().unwrap();
            sent += n;
        }

        // Exactly the modeled responses, then PONG, then BYE, then EOF.
        let mut responses = Vec::with_capacity(expected_responses + 2);
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader.read_line(&mut line).unwrap();
            prop_assert!(n > 0, "server closed early: got {} of {} responses\nscript steps: {steps:#?}\nresponses so far: {responses:#?}",
                responses.len(), expected_responses + 2);
            let resp = line.trim_end_matches(['\n', '\r']).to_string();
            prop_assert!(grammatical(&resp), "ungrammatical response {resp:?}");
            let done = resp == "BYE";
            responses.push(resp);
            if done {
                break;
            }
        }
        prop_assert_eq!(
            responses.len(),
            expected_responses + 2,
            "response count mismatch (desync): expected {}+PONG+BYE, got {:#?}\nscript steps: {:#?}",
            expected_responses,
            responses,
            steps
        );
        prop_assert_eq!(&responses[expected_responses], "PONG", "sentinel out of place: {:#?}", responses);

        // The server as a whole is still alive for the next case.
        let mut probe = TcpStream::connect(addr).unwrap();
        probe.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        probe.write_all(b"PING\nQUIT\n").unwrap();
        let mut out = String::new();
        BufReader::new(probe).read_to_string(&mut out).unwrap();
        prop_assert_eq!(out, "PONG\nBYE\n".to_string());
    }
}

/// A truncated final line (no trailing newline, then FIN) must still be
/// answered before the server closes — never dropped, never a hang.
#[test]
fn truncated_trailing_line_is_answered() {
    let addr = server_addr();
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(b"PING\nSELECT COUNT(*) FROM").unwrap();
    writer.flush().unwrap();
    writer.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    reader.read_to_string(&mut out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.first(), Some(&"PONG"));
    assert_eq!(lines.len(), 2, "truncated line must be answered: {out:?}");
    assert!(lines[1].starts_with("ERR parse"), "{out:?}");
}

/// A line nested 100,000 parentheses deep is a parse error like any
/// other: it must not be able to exhaust the connection thread's stack
/// (which would abort the whole process, not one connection).
#[test]
fn deeply_nested_line_is_a_parse_error_and_the_server_keeps_serving() {
    let addr = server_addr();
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let depth = 100_000;
    let line = format!(
        "SELECT COUNT(*) FROM r WHERE {}r.x = 1{}\nPING\n",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    writer.write_all(line.as_bytes()).unwrap();
    writer.flush().unwrap();
    let mut read_line = || {
        let mut l = String::new();
        reader.read_line(&mut l).unwrap();
        l
    };
    let refusal = read_line();
    assert!(refusal.starts_with("ERR parse: "), "{refusal:?}");
    assert!(refusal.contains("nested deeper than"), "{refusal:?}");
    assert_eq!(read_line(), "PONG\n", "same connection must stay in sync");

    let mut probe = TcpStream::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    probe.write_all(b"PING\nQUIT\n").unwrap();
    let mut out = String::new();
    BufReader::new(probe).read_to_string(&mut out).unwrap();
    assert_eq!(out, "PONG\nBYE\n");
}

/// Interleaving requests from two connections must not cross-talk: each
/// connection sees exactly its own responses, in its own order.
#[test]
fn interleaved_connections_do_not_cross_talk() {
    let addr = server_addr();
    let mut conns: Vec<(BufReader<TcpStream>, TcpStream)> = (0..2)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            (BufReader::new(s.try_clone().unwrap()), s)
        })
        .collect();
    // Strict alternation, one line at a time, including split batches.
    let scripts: [&[&str]; 2] = [
        &[
            "PING",
            "BATCH 2",
            "SELECT COUNT(*) FROM r",
            "garbage ☃",
            "PING",
        ],
        &[
            "BATCH 1",
            "SELECT COUNT(*) FROM s",
            "PING",
            "not sql",
            "STATS",
        ],
    ];
    for i in 0..scripts[0].len() {
        for (c, script) in scripts.iter().enumerate() {
            writeln!(conns[c].1, "{}", script[i]).unwrap();
            conns[c].1.flush().unwrap();
        }
    }
    let read_line = |r: &mut BufReader<TcpStream>| {
        let mut l = String::new();
        r.read_line(&mut l).unwrap();
        l.trim().to_string()
    };
    // Connection 0: PONG, OK, ERR parse, PONG.
    let c0: Vec<String> = (0..4).map(|_| read_line(&mut conns[0].0)).collect();
    assert_eq!(c0[0], "PONG");
    assert!(c0[1].starts_with("OK "), "{c0:?}");
    assert!(c0[2].starts_with("ERR parse"), "{c0:?}");
    assert_eq!(c0[3], "PONG");
    // Connection 1: OK, PONG, ERR parse, STATS.
    let c1: Vec<String> = (0..4).map(|_| read_line(&mut conns[1].0)).collect();
    assert!(c1[0].starts_with("OK "), "{c1:?}");
    assert_eq!(c1[1], "PONG");
    assert!(c1[2].starts_with("ERR parse"), "{c1:?}");
    assert!(c1[3].starts_with("STATS "), "{c1:?}");
}
