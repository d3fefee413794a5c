//! CLI driver for the SafeBound serving front-end.
//!
//! ```text
//! safebound-serve serve [--addr 127.0.0.1:7878] [--workers N]
//!                       [--scale tiny|default|full] [--refresh-secs N]
//!                       [--max-conns N] [--max-inflight N] [--idle-secs N]
//!                       [--snapshot-load PATH] [--snapshot-save PATH]
//!     Build the bundled IMDB catalog + SafeBound statistics, then serve
//!     the line protocol (see crate docs) with a background statistics
//!     refresher (periodic when --refresh-secs > 0, always available via
//!     the REFRESH verb; --idle-secs 0 disables the idle timeout)
//!     until killed or told to SHUTDOWN — on which every connection
//!     handler and the refresher is joined before the process exits.
//!     --workers caps the sessions kept idle between bounds (every bound
//!     runs on the connection thread that asked for it, on a session of
//!     its own).
//!
//!     --snapshot-load PATH  Serve statistics from a snapshot file written
//!                           by SNAPSHOT SAVE / --snapshot-save instead of
//!                           building them. The file is fully validated
//!                           (magic, version, checksums, fingerprints)
//!                           before anything is constructed; a rejected
//!                           file warns and falls back to a fresh build,
//!                           so a corrupt snapshot can never wedge
//!                           startup.
//!     --snapshot-save PATH  Write the statistics to PATH after the
//!                           initial build and again after every refresher
//!                           publish, through the crash-safe writer (tmp
//!                           file + fsync + atomic rename): a crash
//!                           mid-save leaves the previous file intact.
//!
//! safebound-serve query --addr 127.0.0.1:7878 "SELECT COUNT(*) FROM ..." [more SQL...]
//!     Connect to a running server, send each SQL argument (as one BATCH
//!     when several), print the response lines.
//! ```

// Bad flags and unreachable servers are reported by `fail`, never a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

use safebound_core::{SafeBound, SafeBoundBuilder, SafeBoundConfig};
use safebound_datagen::{imdb_catalog, ImdbScale};
use safebound_serve::{
    serve_with, BoundService, RefreshConfig, ServeOptions, ShutdownToken, StatsRefresher,
};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  safebound-serve serve [--addr HOST:PORT] [--workers N] \
         [--scale tiny|default|full] [--refresh-secs N] [--max-conns N] \
         [--max-inflight N] [--idle-secs N] [--snapshot-load PATH] \
         [--snapshot-save PATH]\n  \
         safebound-serve query --addr HOST:PORT SQL [SQL...]"
    );
    std::process::exit(2);
}

/// Exit with an operator-facing error (bad flags, unreachable server, a
/// port we cannot bind). A CLI mistake is not a program invariant
/// violation, so it must not panic with a backtrace.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("safebound-serve: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        _ => usage(),
    }
}

fn cmd_serve(args: &[String]) {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut scale_name = "tiny".to_string();
    let mut refresh_secs = 0u64;
    let mut snapshot_load: Option<std::path::PathBuf> = None;
    let mut snapshot_save: Option<std::path::PathBuf> = None;
    let mut opts = ServeOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut parse = |what: &str| -> u64 {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => n,
                None => die(format_args!("{what} needs a number")),
            }
        };
        match a.as_str() {
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| usage()),
            "--workers" => workers = parse("--workers") as usize,
            "--scale" => scale_name = it.next().cloned().unwrap_or_else(|| usage()),
            "--refresh-secs" => refresh_secs = parse("--refresh-secs"),
            "--max-conns" => opts.max_connections = parse("--max-conns") as usize,
            "--max-inflight" => opts.max_inflight_batches = parse("--max-inflight") as usize,
            "--idle-secs" => {
                // 0 = never time out idle connections (mirrors
                // --refresh-secs, where 0 disables the cadence).
                opts.idle_timeout = match parse("--idle-secs") {
                    0 => Duration::MAX,
                    n => Duration::from_secs(n),
                }
            }
            "--snapshot-load" => {
                snapshot_load = Some(it.next().cloned().unwrap_or_else(|| usage()).into())
            }
            "--snapshot-save" => {
                snapshot_save = Some(it.next().cloned().unwrap_or_else(|| usage()).into())
            }
            _ => usage(),
        }
    }
    let Some(scale) = ImdbScale::named(&scale_name) else {
        die(format_args!(
            "unknown --scale {scale_name:?} (tiny|default|full)"
        ))
    };

    eprintln!("building IMDB catalog ({scale_name})…");
    let catalog = imdb_catalog(&scale, 1);
    let config = SafeBoundConfig::default();
    // A snapshot file, when given, replaces the (much slower) statistics
    // build; a file the validator rejects warns and falls back, so a
    // corrupt snapshot degrades startup to a rebuild, never a crash.
    let loaded =
        snapshot_load
            .as_deref()
            .and_then(|path| match safebound_core::load_snapshot(path) {
                Ok(snapshot) => {
                    eprintln!("loaded statistics snapshot from {}", path.display());
                    Some(SafeBound::from_stats(snapshot))
                }
                Err(e) => {
                    eprintln!(
                        "safebound-serve: snapshot load from {} failed ({e}); \
                     rebuilding statistics",
                        path.display()
                    );
                    None
                }
            });
    let sb = loaded.unwrap_or_else(|| {
        eprintln!("building SafeBound statistics…");
        SafeBound::build(&catalog, config.clone())
    });
    let snapshot = sb.snapshot();
    eprintln!(
        "statistics ready: build {} — {} CDS sets, {} bytes",
        snapshot.build_id,
        snapshot.num_sets(),
        snapshot.byte_size()
    );
    if let Some(path) = &snapshot_save {
        match safebound_core::save_snapshot(path, &snapshot) {
            Ok(bytes) => eprintln!("saved snapshot to {} ({bytes} bytes)", path.display()),
            Err(e) => eprintln!("safebound-serve: initial snapshot save failed: {e}"),
        }
    }
    drop(snapshot);

    // Lifecycle: one token threaded through the refresher, the accept
    // loop, and every connection handler; SHUTDOWN (or an accept-loop
    // error) drains all of them, then the refresher is joined.
    // The in-memory catalog rebuild cannot itself fail, but the source
    // contract is fallible (a real deployment re-scans external data) —
    // a failure would be retried under backoff and surfaced in STATS.
    let shutdown = ShutdownToken::new();
    let refresher = Arc::new(StatsRefresher::spawn(
        sb.clone(),
        move || Ok(SafeBoundBuilder::new(config.clone()).build(&catalog)),
        RefreshConfig {
            interval: (refresh_secs > 0).then(|| Duration::from_secs(refresh_secs)),
            // Re-save after every publish so the on-disk snapshot tracks
            // the served statistics (atomic rename: crash-safe).
            save_path: snapshot_save,
            ..RefreshConfig::default()
        },
        shutdown.clone(),
    ));

    let service = Arc::new(BoundService::new(sb, workers));
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => die(format_args!("cannot bind {addr}: {e}")),
    };
    eprintln!(
        "serving on {addr} with up to {workers} idle sessions (line protocol; try PING / SQL / STATS / \
         REFRESH / SHUTDOWN), refresh cadence: {}",
        if refresh_secs > 0 {
            format!("{refresh_secs}s")
        } else {
            "on demand only".to_string()
        }
    );
    if let Err(e) = serve_with(
        service.clone(),
        listener,
        Some(refresher.clone()),
        shutdown,
        opts,
    ) {
        eprintln!("safebound-serve: accept loop failed: {e}");
    }

    // Graceful exit: handlers are already joined by serve_with; join the
    // refresher, then drop the service (it owns no thread).
    eprintln!("shutdown: connections drained, stopping refresher…");
    refresher.stop();
    drop(refresher);
    let Ok(service) = Arc::try_unwrap(service) else {
        unreachable!("all connection handlers joined by serve_with")
    };
    drop(service);
    eprintln!("shutdown complete: refresher joined, sessions dropped");
}

fn cmd_query(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut sqls: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--addr" {
            addr = it.next().cloned();
        } else {
            sqls.push(a.clone());
        }
    }
    let Some(addr) = addr else { usage() };
    if sqls.is_empty() {
        usage();
    }

    let stream = match TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => die(format_args!("cannot connect to {addr}: {e}")),
    };
    let reader_half = match stream.try_clone() {
        Ok(r) => r,
        Err(e) => die(format_args!("cannot clone connection: {e}")),
    };
    let mut reader = BufReader::new(reader_half);
    let mut writer = BufWriter::new(stream);
    let send = |w: &mut BufWriter<TcpStream>, line: &str| {
        if let Err(e) = writeln!(w, "{line}") {
            die(format_args!("send failed: {e}"));
        }
    };
    if sqls.len() == 1 {
        send(&mut writer, &sqls[0]);
    } else {
        send(&mut writer, &format!("BATCH {}", sqls.len()));
        for sql in &sqls {
            send(&mut writer, sql);
        }
    }
    send(&mut writer, "QUIT");
    if let Err(e) = writer.flush() {
        die(format_args!("send failed: {e}"));
    }

    let mut line = String::new();
    for _ in 0..sqls.len() {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => println!("{}", line.trim()),
            Err(e) => die(format_args!("read failed: {e}")),
        }
    }
}
