//! Inference benchmark: the sweep-line FDSB kernel vs the retained
//! midpoint-evaluation reference, plus the **end-to-end online path**
//! (predicate resolution + assembly + kernel) cold vs shape-cached, the
//! offline build-time/footprint numbers (Figs. 8a/10), and the snapshot
//! persistence figures (crash-safe save and validated load vs a full
//! in-RAM rebuild), all on the JOB-light workload. Emits `BENCH_inference.json` (ns/query) so the
//! repository carries a perf trajectory across PRs.
//!
//! Run: `cargo run --release -p safebound-bench --bin bench_inference`
//! Flags: `--scale tiny|default|full` (generator size, default `tiny`),
//! optional positional output path (default `BENCH_inference.json`).

use safebound_baselines::{Simplicity, TraditionalEstimator, TraditionalVariant};
use safebound_bench::experiment_config;
use safebound_core::bound::{fdsb_reference, fdsb_with_scratch};
use safebound_core::{BoundScratch, BoundSession, RelationBoundStats, SafeBound};
use safebound_core::{IncrementalBuilder, SafeBoundBuilder};
use safebound_datagen::{imdb_catalog, insert_batch, job_light, job_light_ranges, ImdbScale};
use safebound_exec::CardinalityEstimator;
use safebound_query::{BoundPlan, Predicate, Query};
use safebound_serve::{BoundService, RefreshConfig, ShutdownToken, StatsRefresher};
use safebound_storage::Value;
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Shift every integer literal of a query by `delta` (shape unchanged).
/// Used to build serving batches whose repetitions carry *distinct*
/// literal vectors, so batched-throughput numbers measure dispatch and
/// computation rather than the dedup/literal-cache fast path (which gets
/// its own, separate measurement).
fn perturb_literals(q: &mut Query, delta: i64) {
    fn bump(v: &mut Value, delta: i64) {
        if let Value::Int(i) = v {
            *i += delta;
        }
    }
    fn walk(p: &mut Predicate, delta: i64) {
        match p {
            Predicate::Eq(_, v) | Predicate::Cmp(_, _, v) => bump(v, delta),
            Predicate::Between(_, lo, hi) => {
                bump(lo, delta);
                bump(hi, delta);
            }
            Predicate::In(_, vs) => vs.iter_mut().for_each(|v| bump(v, delta)),
            Predicate::Like(_, _) => {}
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter_mut().for_each(|p| walk(p, delta)),
        }
    }
    for (_, p) in &mut q.predicates {
        walk(p, delta);
    }
}

/// Median-of-samples ns per call of `f`, self-calibrating the batch size.
fn measure<F: FnMut()>(mut f: F) -> f64 {
    // Warm-up + calibration.
    let mut batch = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 20 || batch >= 1 << 20 {
            break;
        }
        batch *= 4;
    }
    let samples = 7;
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[samples / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale_name = "tiny".to_string();
    let mut out_path = "BENCH_inference.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--scale" {
            scale_name = it.next().expect("--scale needs a value").clone();
        } else {
            out_path = a.clone();
        }
    }
    let scale = ImdbScale::named(&scale_name)
        .unwrap_or_else(|| panic!("unknown --scale {scale_name:?} (tiny|default|full)"));

    eprintln!("building IMDB catalog ({scale_name}) + SafeBound statistics…");
    let catalog = imdb_catalog(&scale, 1);
    let queries = job_light(1);
    let build_start = Instant::now();
    let sb = SafeBound::build(&catalog, experiment_config());
    let build_secs = build_start.elapsed().as_secs_f64();
    let snapshot = sb.snapshot();
    let stats_bytes = snapshot.byte_size();
    let num_cds_sets = snapshot.num_sets();

    // ---- Offline pipeline variants (PR 7): sharded build + incremental
    // refresh, both against the single-pass full rebuild baseline ----
    //
    // Wall-clock builds are noisy on shared hosts, so every figure is the
    // best of three runs (interference only ever adds time).
    let best_of_3 = |f: &mut dyn FnMut()| -> f64 {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min)
    };
    let shards = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 8));
    let sharded_build_secs = best_of_3(&mut || {
        let built = SafeBoundBuilder::new(experiment_config()).build_partitioned(&catalog, shards);
        // The sharded partition→merge→finalize path must be bit-identical
        // to the single-pass statistics it is replacing.
        assert!(
            built.tables == snapshot.tables && built.pool == snapshot.pool,
            "sharded build diverged from single-pass statistics"
        );
        black_box(built);
    });
    let full_rebuild_secs = best_of_3(&mut || {
        black_box(SafeBoundBuilder::new(experiment_config()).build(&catalog));
    });
    // Incremental refresh: absorb a small insert-only batch into the
    // largest table nothing references (no PK–FK fan-out, so the delta
    // stays on the absorb path) and re-finalize just that table.
    let delta_target = catalog
        .tables()
        .filter(|t| catalog.foreign_keys_into(&t.name).next().is_none())
        .max_by_key(|t| t.num_rows())
        .expect("a fact table with no inbound foreign keys")
        .name
        .clone();
    let mut inc = IncrementalBuilder::new(catalog.clone(), experiment_config());
    let mut delta_round = 0u64;
    let incremental_refresh_secs = best_of_3(&mut || {
        let delta = insert_batch(inc.catalog(), &delta_target, 64, 1_000 + delta_round);
        delta_round += 1;
        black_box(inc.apply(&delta).expect("insert-only delta applies"));
    });
    drop(inc);
    let incremental_refresh_speedup = full_rebuild_secs / incremental_refresh_secs;
    eprintln!(
        "offline: full rebuild {:.1} ms, sharded({shards}) build {:.1} ms, incremental refresh \
         (+64 rows into {delta_target}) {:.2} ms ({incremental_refresh_speedup:.1}× vs full)",
        full_rebuild_secs * 1e3,
        sharded_build_secs * 1e3,
        incremental_refresh_secs * 1e3,
    );

    // ---- Snapshot persistence (PR 10): crash-safe save and validated
    // load against the full in-RAM rebuild. Correctness (bit-identical
    // statistics) is asserted once outside the timed loop so the figures
    // measure pure I/O + decode. ----
    let snap_path = std::env::temp_dir().join(format!(
        "safebound_bench_snapshot_{}.snap",
        std::process::id()
    ));
    let mut snapshot_file_bytes = 0u64;
    let snapshot_save_secs = best_of_3(&mut || {
        snapshot_file_bytes =
            safebound_core::save_snapshot(&snap_path, &snapshot).expect("snapshot save");
    });
    let loaded = safebound_core::load_snapshot(&snap_path).expect("snapshot load");
    assert!(
        loaded.tables == snapshot.tables
            && loaded.pool == snapshot.pool
            && loaded.symbols == snapshot.symbols,
        "loaded snapshot diverged from the in-RAM statistics"
    );
    drop(loaded);
    let snapshot_load_secs = best_of_3(&mut || {
        black_box(safebound_core::load_snapshot(&snap_path).expect("snapshot load"));
    });
    let _ = std::fs::remove_file(&snap_path);
    let snapshot_load_speedup = full_rebuild_secs / snapshot_load_secs;
    eprintln!(
        "snapshot: save {:.2} ms ({snapshot_file_bytes} bytes), load {:.2} ms \
         ({snapshot_load_speedup:.1}× vs full rebuild)",
        snapshot_save_secs * 1e3,
        snapshot_load_secs * 1e3,
    );

    // Pre-resolve the kernel inputs (plan + per-relation CDS stats) so the
    // measurement isolates Algorithm 2 itself — the paper's "inference"
    // time (Fig. 5b).
    let inputs: Vec<(BoundPlan, Vec<RelationBoundStats>)> = queries
        .iter()
        .flat_map(|q| sb.bound_inputs(&q.query).expect("stats cover workload"))
        .collect();
    let num_queries = queries.len() as f64;
    eprintln!(
        "{} JOB-light queries → {} acyclic relaxations; measuring…",
        queries.len(),
        inputs.len()
    );

    let mut scratch = BoundScratch::default();
    let sweep_ns_per_query = measure(|| {
        let mut acc = 0.0;
        for (plan, stats) in &inputs {
            acc += fdsb_with_scratch(plan, stats, &mut scratch).unwrap();
        }
        black_box(acc);
    }) / num_queries;

    let reference_ns_per_query = measure(|| {
        let mut acc = 0.0;
        for (plan, stats) in &inputs {
            acc += fdsb_reference(plan, stats).unwrap();
        }
        black_box(acc);
    }) / num_queries;

    // Sanity: both evaluators agree on every input.
    for (plan, stats) in &inputs {
        let mut s = BoundScratch::default();
        let a = fdsb_with_scratch(plan, stats, &mut s).unwrap();
        let b = fdsb_reference(plan, stats).unwrap();
        assert!(
            (a - b).abs() <= 1e-6 * b.abs().max(1.0),
            "sweep {a} != reference {b}"
        );
    }

    // End-to-end online phase, cold: every query pays shape building
    // (spanning relaxations → join graph → plan → column resolution).
    // `bound()` uses a throwaway session with literal caching disabled,
    // so this stays the pre-cache cold path.
    let cold_ns_per_query = measure(|| {
        let mut acc = 0.0;
        for q in &queries {
            acc += sb.bound(&q.query).unwrap();
        }
        black_box(acc);
    }) / num_queries;

    // End-to-end, shape-cached: a persistent session serves the repeated
    // templates straight from the plan cache + arenas. The literal cache
    // is OFF here so the number keeps meaning "shape cached, literals
    // fresh" — resolution + assembly + kernel every query (comparable
    // across PRs); the literal-cached repeat path is measured separately.
    let mut session = BoundSession::default().with_literal_capacity(0);
    let mut cold_results = Vec::with_capacity(queries.len());
    for q in &queries {
        cold_results.push(sb.bound_with_session(&q.query, &mut session).unwrap());
    }
    let cached_ns_per_query = measure(|| {
        let mut acc = 0.0;
        for q in &queries {
            acc += sb.bound_with_session(&q.query, &mut session).unwrap();
        }
        black_box(acc);
    }) / num_queries;

    // Sanity: cached results are identical to cold results.
    for (q, &cold) in queries.iter().zip(&cold_results) {
        let again = sb.bound_with_session(&q.query, &mut session).unwrap();
        assert!(
            (again - cold).abs() <= 1e-9 * cold.abs().max(1.0),
            "{}: cached {again} != cold {cold}",
            q.name
        );
    }

    // Repeated-literal warm path: a default session (literal cache ON)
    // replaying the exact same request lines — the common serving case.
    // After warm-up every query is a verified bound-cache hit: literal
    // staging + fingerprint + probe, no resolution/assembly/kernel.
    let mut lit_session = BoundSession::default();
    for _ in 0..2 {
        for q in &queries {
            let b = sb.bound_with_session(&q.query, &mut lit_session).unwrap();
            black_box(b);
        }
    }
    // Sanity: the literal-cached bounds are bit-identical to the
    // computed ones.
    for (q, &cold) in queries.iter().zip(&cold_results) {
        let hit = sb.bound_with_session(&q.query, &mut lit_session).unwrap();
        assert!(
            hit.to_bits() == cold.to_bits(),
            "{}: literal-cached {hit} != computed {cold}",
            q.name
        );
    }
    let repeated_literal_ns_per_query = measure(|| {
        let mut acc = 0.0;
        for q in &queries {
            acc += sb.bound_with_session(&q.query, &mut lit_session).unwrap();
        }
        black_box(acc);
    }) / num_queries;
    assert!(
        lit_session.stats().lit_bound_hits > 0,
        "repeated workload must be served by the literal bound cache"
    );

    // Phase breakdown of the fresh-literal cached path (where does the
    // resolution/assembly gap live?): a timing-instrumented session with
    // the literal cache off. Instrumentation adds ~2 timer pairs per
    // query, so this is reported as its own measurement, not gated.
    // Phase timings are taken as the per-query minimum over several
    // measurement windows: this box is a single shared core, and
    // run-to-run scheduler noise otherwise swamps the phase deltas the
    // gates assert on. The minimum is the standard noise-robust statistic
    // for "how fast does this code run when undisturbed".
    let phase_windows = |s: &mut BoundSession, queries: &[Query]| -> (f64, f64, f64) {
        s.set_phase_timing(true);
        let mut prev = s.phase_breakdown();
        let (mut best_r, mut best_a, mut best_k) = (f64::MAX, f64::MAX, f64::MAX);
        for _ in 0..6 {
            for _ in 0..80 {
                for q in queries {
                    black_box(sb.bound_with_session(q, s).unwrap());
                }
            }
            let now = s.phase_breakdown();
            let dq = (now.queries - prev.queries).max(1) as f64;
            best_r = best_r.min((now.resolve_ns - prev.resolve_ns) as f64 / dq);
            best_a = best_a.min((now.assemble_ns - prev.assemble_ns) as f64 / dq);
            best_k = best_k.min((now.kernel_ns - prev.kernel_ns) as f64 / dq);
            prev = now;
        }
        (best_r, best_a, best_k)
    };
    let plain_queries: Vec<Query> = queries.iter().map(|q| q.query.clone()).collect();
    let (resolve_ns, assemble_ns, kernel_phase_ns) = {
        let mut s = BoundSession::default().with_literal_capacity(0);
        for q in &plain_queries {
            sb.bound_with_session(q, &mut s).unwrap(); // warm shapes
        }
        phase_windows(&mut s, &plain_queries)
    };

    // ---- Resolve-phase reference: a run with the range and LIKE memos
    // off, measured on this host in this run and recorded next to the
    // memoized resolve phase above. ----
    let unmemoized_resolve_ns = {
        let mut s = BoundSession::default()
            .with_literal_capacity(0)
            .with_memo_capacities(4096, 0, 0);
        for q in &plain_queries {
            sb.bound_with_session(q, &mut s).unwrap(); // warm shapes
        }
        let (ns, _, _) = phase_windows(&mut s, &plain_queries);
        ns
    };

    // ---- Range/LIKE-literal memoization on JOB-LightRanges: repeated
    // range literals (memo hits) vs the same lines resolved fresh every
    // time (range/LIKE memos off), gated on the resolve phase where the
    // memo lives. Bit-identity between the two paths is asserted first —
    // a memo hit must replay the computed resolution exactly. ----
    let ranges: Vec<Query> = job_light_ranges(1)
        .into_iter()
        .take(120)
        .map(|b| b.query)
        .collect();
    let mut memo_session = BoundSession::default().with_literal_capacity(0);
    let mut fresh_session = BoundSession::default()
        .with_literal_capacity(0)
        .with_memo_capacities(4096, 0, 0);
    for (i, q) in ranges.iter().enumerate() {
        let memo = sb.bound_with_session(q, &mut memo_session).unwrap();
        let fresh = sb.bound_with_session(q, &mut fresh_session).unwrap();
        assert!(
            memo.to_bits() == fresh.to_bits(),
            "range query {i}: memoized {memo} != fresh {fresh}"
        );
    }
    let (repeated_range_resolve_ns, _, _) = phase_windows(&mut memo_session, &ranges);
    let (fresh_range_resolve_ns, _, _) = phase_windows(&mut fresh_session, &ranges);
    let repeated_range_speedup = fresh_range_resolve_ns / repeated_range_resolve_ns;
    let memo_stats = memo_session.stats();
    assert!(
        memo_stats.range_memo_hits > 0 && memo_stats.like_memo_hits > 0,
        "repeated range/LIKE literals must be served by the resolve memos: {memo_stats:?}"
    );
    let simd_tier = safebound_core::simd_tier().name();
    eprintln!(
        "resolve: {resolve_ns:.0} ns/q (on-host unmemoized \
         {unmemoized_resolve_ns:.0} ns/q); JOB-LightRanges resolve: repeated \
         {repeated_range_resolve_ns:.0} ns/q vs fresh {fresh_range_resolve_ns:.0} ns/q ({repeated_range_speedup:.2}×); \
         simd_tier={simd_tier}"
    );

    // Baseline estimators on the same workload.
    let mut pg = TraditionalEstimator::build(&catalog, TraditionalVariant::Postgres);
    let postgres_ns_per_query = measure(|| {
        let mut acc = 0.0;
        for q in &queries {
            let mask = (1u64 << q.query.num_relations()) - 1;
            acc += pg.estimate(&q.query, mask);
        }
        black_box(acc);
    }) / num_queries;

    let mut simp = Simplicity::build(&catalog);
    let simplicity_ns_per_query = measure(|| {
        let mut acc = 0.0;
        for q in &queries {
            let mask = (1u64 << q.query.num_relations()) - 1;
            acc += simp.estimate(&q.query, mask);
        }
        black_box(acc);
    }) / num_queries;

    // ---- Multi-worker serving throughput (safebound-serve pool) ----
    //
    // Two serving modes over the same JOB-light batch:
    //  * request dispatch — `BoundService::bound` per query on a
    //    single-shard pool: answered inline on this thread, under the
    //    shard's lock (the latency path; recorded, not gated);
    //  * batched dispatch — one `bound_batch` per measurement, shape-hash
    //    sharded across 1/2/4/8 workers, each worker answering its whole
    //    slice from one warm session.
    // Batched multi-worker throughput is the north-star number: it
    // amortizes dispatch *and* scales across hardware threads.
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let single: Vec<Query> = queries.iter().map(|q| q.query.clone()).collect();
    // A serving-size batch: several interleaved copies of JOB-light, as a
    // saturated server would pull off its accept queue, shared by `Arc`
    // so dispatch measures routing + computation rather than deep-copying
    // the query list. Each repetition's integer literals are shifted so
    // the lines are *distinct* and intra-batch dedup never collapses them
    // (the duplicated-lines path is measured separately below). Note the
    // measurement replays one batch on warm workers, so since this PR's
    // literal cache the steady-state figure reflects repeated-literal
    // serving — the realistic warm regime — not per-query re-resolution.
    let reps = 4usize;
    let batch: std::sync::Arc<[Query]> = (0..reps)
        .flat_map(|r| {
            single.iter().cloned().map(move |mut q| {
                perturb_literals(&mut q, r as i64);
                q
            })
        })
        .collect::<Vec<_>>()
        .into();
    let batch_queries = batch.len() as f64;
    eprintln!("measuring serving throughput ({hw_threads} hardware threads)…");

    // Correctness first: the pool must reproduce the session path bitwise.
    {
        let service = BoundService::new(sb.clone(), 4);
        let pooled = service.bound_batch(&single);
        for ((q, want), got) in queries.iter().zip(&cold_results).zip(pooled) {
            let got = got.expect("workload bounds cleanly");
            assert!(
                got.to_bits() == want.to_bits(),
                "{}: pooled {got} != direct {want}",
                q.name
            );
        }
    }

    // Serving measurements involve real thread scheduling, which is noisy
    // on small hosts (a descheduled worker poisons a whole sample): take
    // the best of three medians — interference only ever subtracts from
    // throughput, so the minimum time is the honest sustained figure.
    let measure_best =
        |f: &mut dyn FnMut()| (0..3).map(|_| measure(&mut *f)).fold(f64::MAX, f64::min);

    let request_1w_qps = {
        let service = BoundService::new(sb.clone(), 1);
        for q in &single {
            service.bound(q).unwrap(); // warm the shard's session
        }
        let ns_per_query = measure_best(&mut || {
            for q in &single {
                black_box(service.bound(q).unwrap());
            }
        }) / num_queries;
        1e9 / ns_per_query
    };

    let worker_counts = [1usize, 2, 4, 8];
    let mut batched_qps = Vec::with_capacity(worker_counts.len());
    for &workers in &worker_counts {
        let service = BoundService::new(sb.clone(), workers);
        service.bound_batch_shared(batch.clone());
        service.bound_batch_shared(batch.clone()); // warm every worker's session
        let ns_per_batch = measure_best(&mut || {
            black_box(service.bound_batch_shared(batch.clone()));
        });
        batched_qps.push(batch_queries * 1e9 / ns_per_batch);
    }

    // Repeated-line batch: the same JOB-light lines duplicated verbatim
    // (dashboards / retries / template fan-in traffic). Intra-batch dedup
    // dispatches each distinct line once and fans the answer out; the
    // representatives that do run are literal-cache hits on warm workers.
    let (batched_4w_repeated_qps, batch_dedup_hits) = {
        let repeated: std::sync::Arc<[Query]> = (0..reps)
            .flat_map(|_| single.iter().cloned())
            .collect::<Vec<_>>()
            .into();
        let service = BoundService::new(sb.clone(), 4);
        // Bit-exactness under dedup + literal cache, against direct path.
        for (got, &want) in service
            .bound_batch_shared(repeated.clone())
            .iter()
            .zip(cold_results.iter().cycle())
        {
            let got = got.as_ref().expect("workload bounds cleanly");
            assert!(
                got.to_bits() == want.to_bits(),
                "deduped bound diverged: {got} != {want}"
            );
        }
        service.bound_batch_shared(repeated.clone()); // warm
        let ns_per_batch = measure_best(&mut || {
            black_box(service.bound_batch_shared(repeated.clone()));
        });
        (
            repeated.len() as f64 * 1e9 / ns_per_batch,
            service.batch_dedup_hits(),
        )
    };
    // ---- Refresh under load: batched throughput while the background
    // StatsRefresher continuously rebuilds + hot-swaps statistics ----
    //
    // A fixed wall-clock window (rather than `measure`'s calibrated
    // batches) so the window reliably spans whole rebuild+swap cycles;
    // the figure is recorded, not gated — swap frequency depends on the
    // scale's build time.
    let (refresh_qps, refresh_swaps, refresh_window_secs) = {
        let service = BoundService::new(sb.clone(), 4);
        service.bound_batch_shared(batch.clone());
        service.bound_batch_shared(batch.clone()); // warm every worker
        let shutdown = ShutdownToken::new();
        let refresher = StatsRefresher::spawn(
            sb.clone(),
            {
                let catalog = imdb_catalog(&scale, 1);
                let config = experiment_config();
                move || Ok(SafeBoundBuilder::new(config.clone()).build(&catalog))
            },
            RefreshConfig {
                interval: Some(Duration::ZERO), // rebuild back to back
                tick: Duration::from_millis(1),
                ..RefreshConfig::default()
            },
            shutdown.clone(),
        );
        let swaps_before = sb.swap_count();
        // Serve for at least `window`, extending (to a hard cap) until two
        // background swaps landed mid-traffic, so the recorded throughput
        // really did absorb whole rebuild+publish cycles even on slow or
        // heavily shared hosts.
        let window = Duration::from_secs(2);
        let cap = Duration::from_secs(30);
        let start = Instant::now();
        let mut served = 0u64;
        loop {
            let results = service.bound_batch_shared(batch.clone());
            served += results.len() as u64;
            black_box(results);
            let elapsed = start.elapsed();
            if elapsed >= cap || (elapsed >= window && sb.swap_count() - swaps_before >= 2) {
                break;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let swaps = sb.swap_count() - swaps_before;
        // Bounds must be unaffected by the swaps (same catalog, same
        // deterministic build): spot-check a final batch bitwise.
        for (got, &want) in service.bound_batch(&single).iter().zip(&cold_results) {
            let got = got.as_ref().expect("workload bounds cleanly");
            assert!(
                got.to_bits() == want.to_bits(),
                "bound diverged under refresh: {got} != {want}"
            );
        }
        shutdown.trigger();
        refresher.stop();
        (served as f64 / elapsed, swaps, elapsed)
    };
    eprintln!(
        "refresh-under-load: {refresh_qps:.0} q/s batched-4w with {refresh_swaps} background \
         swaps over {refresh_window_secs:.2}s"
    );

    // ---- Recorded only: batched throughput while the fault layer injects
    // artificial worker latency (every 64th query sleeps 200µs). Quantifies
    // the cost of running degraded — never gated, and only measurable when
    // the `faults` feature is compiled in ("null" otherwise, so the JSON
    // schema is stable across feature sets).
    #[cfg(feature = "faults")]
    let qps_under_injected_latency = {
        use safebound_serve::FaultInjector;
        let faults = FaultInjector::seeded(1)
            .delay_every(64, Duration::from_micros(200))
            .build();
        let service = BoundService::with_faults(sb.clone(), 4, faults);
        service.bound_batch_shared(batch.clone());
        service.bound_batch_shared(batch.clone()); // warm every worker
        let ns_per_batch = measure_best(&mut || {
            black_box(service.bound_batch_shared(batch.clone()));
        });
        let qps = batch_queries * 1e9 / ns_per_batch;
        eprintln!(
            "injected-latency (faults feature): {qps:.0} q/s batched-4w with 200µs sleep every \
             64th query (recorded, not gated)"
        );
        format!("{qps:.0}")
    };
    #[cfg(not(feature = "faults"))]
    let qps_under_injected_latency = "null".to_string();

    let qps_1w = batched_qps[0];
    let qps_4w = batched_qps[2];
    let batched_4w_vs_request_1w = qps_4w / request_1w_qps;
    let batched_4w_vs_batched_1w = qps_4w / qps_1w;
    // The serving gates are CI gates, defined on the tiny scale (CI runs
    // tiny); larger recorded runs report the same numbers without
    // asserting them.
    let serving_gates = scale_name == "tiny";
    let scaling_gate = if !serving_gates {
        "recorded only (gates run at --scale tiny)"
    } else if hw_threads >= 4 {
        "enforced"
    } else {
        "skipped: fewer than 4 hardware threads (no parallel speedup possible)"
    };

    let speedup = reference_ns_per_query / sweep_ns_per_query;
    let cache_speedup = cold_ns_per_query / cached_ns_per_query;
    let sharded_build_ms = sharded_build_secs * 1e3;
    let full_rebuild_ms = full_rebuild_secs * 1e3;
    let incremental_refresh_ms = incremental_refresh_secs * 1e3;
    let snapshot_save_ms = snapshot_save_secs * 1e3;
    let snapshot_load_ms = snapshot_load_secs * 1e3;
    let repeated_literal_speedup = cached_ns_per_query / repeated_literal_ns_per_query;
    let memo_json = format!(
        "{{\"eq_hits\": {}, \"eq_misses\": {}, \"eq_evictions\": {}, \
         \"range_hits\": {}, \"range_misses\": {}, \"range_evictions\": {}, \
         \"like_hits\": {}, \"like_misses\": {}, \"like_evictions\": {}}}",
        memo_stats.eq_memo_hits,
        memo_stats.eq_memo_misses,
        memo_stats.eq_memo_evictions,
        memo_stats.range_memo_hits,
        memo_stats.range_memo_misses,
        memo_stats.range_memo_evictions,
        memo_stats.like_memo_hits,
        memo_stats.like_memo_misses,
        memo_stats.like_memo_evictions,
    );
    let json = format!(
        "{{\n  \"workload\": \"JOB-light (IMDB scale {scale_name}, seed 1)\",\n  \"queries\": {},\n  \"simd_tier\": \"{simd_tier}\",\n  \"offline\": {{\n    \"stats_build_seconds\": {:.3},\n    \"stats_bytes\": {},\n    \"cds_sets\": {},\n    \"build_shards\": {shards},\n    \"sharded_build_ms\": {sharded_build_ms:.1},\n    \"full_rebuild_ms\": {full_rebuild_ms:.1},\n    \"incremental_refresh_ms\": {incremental_refresh_ms:.2},\n    \"incremental_refresh_speedup\": {incremental_refresh_speedup:.2},\n    \"snapshot_save_ms\": {snapshot_save_ms:.2},\n    \"snapshot_load_ms\": {snapshot_load_ms:.2},\n    \"snapshot_file_bytes\": {snapshot_file_bytes},\n    \"snapshot_load_speedup\": {snapshot_load_speedup:.2}\n  }},\n  \"kernel\": {{\n    \"safebound_sweep_ns_per_query\": {:.1},\n    \"safebound_reference_ns_per_query\": {:.1},\n    \"sweep_speedup\": {:.2}\n  }},\n  \"end_to_end\": {{\n    \"safebound_bound_cold_ns_per_query\": {:.1},\n    \"safebound_bound_cached_ns_per_query\": {:.1},\n    \"shape_cache_speedup\": {:.2},\n    \"repeated_literal_ns_per_query\": {repeated_literal_ns_per_query:.1},\n    \"repeated_literal_speedup\": {repeated_literal_speedup:.2},\n    \"phase_ns_per_query\": {{\"resolve\": {resolve_ns:.1}, \"assemble\": {assemble_ns:.1}, \"kernel\": {kernel_phase_ns:.1}}},\n    \"on_host_scalar_unmemoized_ns\": {unmemoized_resolve_ns:.1},\n    \"repeated_range_resolve\": {{\"repeated_ns\": {repeated_range_resolve_ns:.1}, \"fresh_ns\": {fresh_range_resolve_ns:.1}, \"speedup\": {repeated_range_speedup:.2}}},\n    \"range_workload_memo\": {memo_json},\n    \"postgres_estimate_ns_per_query\": {:.1},\n    \"simplicity_estimate_ns_per_query\": {:.1}\n  }},\n  \"serving\": {{\n    \"hardware_threads\": {hw_threads},\n    \"request_dispatch_1_worker_qps\": {:.0},\n    \"batched_qps_by_workers\": {{\"1\": {:.0}, \"2\": {:.0}, \"4\": {:.0}, \"8\": {:.0}}},\n    \"batched_4w_vs_request_1w\": {batched_4w_vs_request_1w:.2},\n    \"batched_4w_vs_batched_1w\": {batched_4w_vs_batched_1w:.2},\n    \"batched_4w_repeated_qps\": {batched_4w_repeated_qps:.0},\n    \"batch_dedup_hits\": {batch_dedup_hits},\n    \"batched_4w_under_refresh_qps\": {refresh_qps:.0},\n    \"refresh_swaps_during_window\": {refresh_swaps},\n    \"refresh_window_seconds\": {refresh_window_secs:.2},\n    \"qps_under_injected_latency\": {qps_under_injected_latency},\n    \"hardware_scaling_gate\": \"{scaling_gate}\"\n  }}\n}}\n",
        queries.len(),
        build_secs,
        stats_bytes,
        num_cds_sets,
        sweep_ns_per_query,
        reference_ns_per_query,
        speedup,
        cold_ns_per_query,
        cached_ns_per_query,
        cache_speedup,
        postgres_ns_per_query,
        simplicity_ns_per_query,
        request_1w_qps,
        batched_qps[0],
        batched_qps[1],
        batched_qps[2],
        batched_qps[3],
    );
    print!("{json}");
    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output");
    eprintln!(
        "kernel: sweep {sweep_ns_per_query:.0} ns/q vs reference {reference_ns_per_query:.0} ns/q \
         ({speedup:.2}×); end-to-end: cached {cached_ns_per_query:.0} ns/q vs cold \
         {cold_ns_per_query:.0} ns/q ({cache_speedup:.2}×); repeated-literal \
         {repeated_literal_ns_per_query:.0} ns/q ({repeated_literal_speedup:.2}× vs cached; \
         phases resolve {resolve_ns:.0} / assemble {assemble_ns:.0} / kernel \
         {kernel_phase_ns:.0} ns/q); serving: batched-4w {qps_4w:.0} q/s vs \
         request-1w {request_1w_qps:.0} q/s ({batched_4w_vs_request_1w:.2}×), repeated-lines \
         {batched_4w_repeated_qps:.0} q/s → {out_path}"
    );
    assert!(
        speedup >= 2.0,
        "acceptance: sweep kernel must be ≥ 2× the midpoint-eval reference, got {speedup:.2}×"
    );
    assert!(
        cache_speedup >= 2.0,
        "acceptance: shape-cached bound() must be ≥ 2× the cold path, got {cache_speedup:.2}×"
    );
    if serving_gates {
        assert!(
            repeated_range_speedup >= 2.0,
            "acceptance: repeated-range-literal resolution must be ≥ 2× fresh-range \
             resolution, got {repeated_range_speedup:.2}×"
        );
        assert!(
            incremental_refresh_speedup >= 2.0,
            "acceptance: incremental insert-only refresh must be ≥ 2× faster than a full \
             rebuild, got {incremental_refresh_speedup:.2}×"
        );
        assert!(
            snapshot_load_speedup >= 5.0,
            "acceptance: loading statistics from a snapshot file must be ≥ 5× faster than \
             a full in-RAM rebuild, got {snapshot_load_speedup:.2}×"
        );
        assert!(
            repeated_literal_speedup >= 2.0,
            "acceptance: repeated-literal serving must be ≥ 2× the shape-cached path, \
             got {repeated_literal_speedup:.2}×"
        );
        if hw_threads >= 4 {
            assert!(
                batched_4w_vs_batched_1w >= 2.0,
                "acceptance: with ≥4 hardware threads, 4 workers must be ≥ 2× 1 worker \
                 (batched), got {batched_4w_vs_batched_1w:.2}×"
            );
        }
    }
}
