//! `lifecycle`: the offline half and restart. Set-up repeats the full
//! statistics build; the timed loop restarts from a snapshot file — load,
//! wrap, start the worker pool, answer the 70 JOB-light queries — over and
//! over. The online caches never warm.

use crate::gen;
use crate::hist::median;
use crate::run::{self, Outcome, RunArgs, SetupTimes};
use crate::trace::{Tracer, ROOT};
use safebound_bench::experiment_config;
use safebound_core::{load_snapshot, save_snapshot, SafeBound, SafeBoundBuilder, StatsSnapshot};
use safebound_datagen::{imdb_catalog, job_light};
use safebound_exec::exact_count;
use safebound_query::Query;
use safebound_serve::BoundService;
use safebound_storage::Catalog;
use std::io::{Error, Result};
use std::path::Path;
use std::time::Instant;

/// Saves and sharded builds timed in the traced run.
const SAVES: usize = 5;
const SHARDED_BUILDS: usize = 2;

struct Data {
    catalog: Catalog,
    snapshot: StatsSnapshot,
    queries: Vec<Query>,
}

fn prepare(args: &RunArgs) -> (Data, SetupTimes) {
    let (catalog, catalog_s) = run::timed(|| imdb_catalog(&args.sizing.imdb, gen::DATA_SEED));
    let (snapshot, build_s) =
        run::timed(|| SafeBoundBuilder::new(experiment_config()).build(&catalog));
    // The restarted server is asked the 70 queries in a seeded order.
    let job_light = job_light(gen::DATA_SEED);
    let queries = gen::shuffled(args.seed, job_light.len())
        .into_iter()
        .map(|i| job_light[i].query.clone())
        .collect();
    let data = Data {
        catalog,
        snapshot,
        queries,
    };
    let times = SetupTimes {
        total_s: 0.0,
        catalog_s,
        build_s,
    };
    (data, times)
}

fn snapshot_error(e: impl std::fmt::Display) -> Error {
    Error::other(format!("snapshot file: {e}"))
}

/// A restart being traced: the tracer, the restart's root span, its id.
type Traced<'a> = Option<(&'a mut Tracer, u32, u64)>;

fn step<T>(trace: &mut Traced, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some((t, root, id)) => t.timed(name, *root, *id, f).0,
        None => f(),
    }
}

/// One restart: from `load_snapshot` to the last answered bound. Returns
/// how many answers differ from `expected`.
fn restart(
    path: &Path,
    queries: &[Query],
    expected: &[u64],
    workers: usize,
    mut trace: Traced,
) -> Result<u64> {
    let snapshot = step(&mut trace, "core.snapshot_file.load", || {
        load_snapshot(path)
    })
    .map_err(snapshot_error)?;
    let handle = step(&mut trace, "core.estimator.from_stats", || {
        SafeBound::from_stats(snapshot)
    });
    let service = step(&mut trace, "serve.service.new", || {
        BoundService::new(handle, workers)
    });
    Ok(step(&mut trace, "serve.service.bound", || {
        queries
            .iter()
            .zip(expected)
            .filter(|(q, want)| service.bound(q).map(f64::to_bits).ok() != Some(**want))
            .count() as u64
    }))
}

pub fn run(args: &RunArgs) -> Result<Outcome> {
    let mut out = Outcome::default();
    let workers = run::nproc().min(2);
    let (data, times) = run::repeat_setup(args.setup_reps(), || prepare(args));

    // ---- Set-up, once: expected answers, oracle, the snapshot file ----
    let once = Instant::now();
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args
        .out_dir
        .join(format!("lifecycle-{}.snap", std::process::id()));
    let file_bytes = save_snapshot(&path, &data.snapshot).map_err(snapshot_error)?;
    let stats_bytes = data.snapshot.byte_size();
    let cds_sets = data.snapshot.num_sets();
    let sb = SafeBound::from_stats(data.snapshot);
    let expected: Vec<u64> = data
        .queries
        .iter()
        .map(|q| sb.bound(q).expect("stats cover JOB-light").to_bits())
        .collect();
    let (pairs, check_s) = run::timed(|| {
        data.queries
            .iter()
            .zip(&expected)
            .map(|(q, bits)| {
                let exact = exact_count(&data.catalog, q).expect("oracle covers JOB-light");
                (f64::from_bits(*bits), exact)
            })
            .collect::<Vec<_>>()
    });
    let (tight_p50, tight_p95, underestimates) = run::tightness(&pairs);
    restart(&path, &data.queries, &expected, workers, None)?; // page in the file
    let setup_s = times.total_s + once.elapsed().as_secs_f64();

    // ---- Timed phase(s): restart in a closed loop ----
    let answers = data.queries.len() as u64;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut phase = |mut tracer: Option<&mut Tracer>| -> Result<_> {
        let mut windows = args.windows();
        let epoch = tracer.as_ref().map_or_else(Instant::now, |t| t.epoch());
        let now = || epoch.elapsed().as_nanos() as u64;
        let begin = now();
        loop {
            let start = now();
            if start - begin >= windows.span_ns() || tracer.as_ref().is_some_and(|t| !t.has_room(5))
            {
                break;
            }
            attempted += answers;
            failed += match tracer.as_deref_mut() {
                None => restart(&path, &data.queries, &expected, workers, None)?,
                Some(t) => {
                    // The root span is recorded first so the steps can name
                    // it as their parent; its end is patched in below.
                    let id = attempted / answers;
                    let root = t.span("request", start, start, ROOT, id);
                    let wrong = restart(
                        &path,
                        &data.queries,
                        &expected,
                        workers,
                        Some((t, root, id)),
                    )?;
                    t.end_span(root, now());
                    wrong
                }
            };
            let done = now();
            windows.record(done - begin, done - start, answers);
        }
        Ok(windows)
    };
    let windows = phase(None)?;

    if args.trace {
        let mut tracer = Tracer::new();
        let traced = phase(Some(&mut tracer))?;
        let rtt = tracer.durations("request");
        let steps = [
            "core.snapshot_file.load",
            "core.estimator.from_stats",
            "serve.service.new",
            "serve.service.bound",
        ]
        .map(|name| tracer.durations(name));
        let unattributed: Vec<f64> = (0..rtt.len())
            .map(|i| rtt[i] - steps.iter().map(|s| s[i]).sum::<f64>())
            .collect();
        out.set("core.snapshot_file.load_ms", median(&steps[0]) / 1e6);
        out.set("bench.unattributed_us", median(&unattributed) / 1e3);
        run::set_trace_overhead(&mut out, &windows, &traced, &tracer);
        tracer.write(&args.out_dir.join("trace-lifecycle.json"), "lifecycle")?;

        let snapshot = sb.snapshot();
        let mut save_ms = Vec::with_capacity(SAVES);
        for _ in 0..SAVES {
            let (saved, s) = run::timed(|| save_snapshot(&path, &snapshot));
            saved.map_err(snapshot_error)?;
            save_ms.push(s * 1e3);
        }
        out.set("core.snapshot_file.save_ms", median(&save_ms));
        let builder = SafeBoundBuilder::new(experiment_config());
        let sharded_ms: Vec<f64> = (0..SHARDED_BUILDS)
            .map(|_| run::timed(|| builder.build_partitioned(&data.catalog, run::nproc())).1 * 1e3)
            .collect();
        out.set("core.stats.build_sharded_ms", median(&sharded_ms));
    }
    let _ = std::fs::remove_file(&path);

    out.attempted = attempted + pairs.len() as u64;
    out.failed = failed + underestimates;
    out.set_failures(underestimates);
    run::set_common_metrics(
        &mut out,
        &windows,
        setup_s,
        &times,
        check_s,
        (tight_p50, tight_p95),
    );
    out.set("stats_bytes", stats_bytes as f64);
    out.set("datagen.pool_lines", answers as f64);
    out.set("core.stats.cds_sets", cds_sets as f64);
    out.set("core.snapshot_file.bytes", file_bytes as f64);
    Ok(out)
}
