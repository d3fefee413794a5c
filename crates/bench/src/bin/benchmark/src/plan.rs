//! `plan_loop`: the paper's endpoint. In-process join-order optimisation
//! of the 344 paper queries (JOB-Light, JOB-LightRanges, JOB-M, STATS-CEB
//! at smoke scale) with SafeBound as the optimizer's estimator — no
//! sockets and no SQL text, but 9–33 sub-query bounds per plan over far
//! more shapes than the session caches.

use crate::gen;
use crate::hist::median;
use crate::run::{self, Outcome, RunArgs, SetupTimes};
use crate::trace::{Tracer, ROOT};
use safebound_bench::{build_workloads, experiment_config, ExperimentScale};
use safebound_core::{BoundSession, PhaseBreakdown, SafeBound, SafeBoundBuilder, SessionStats};
use safebound_exec::{
    exact_count, pk_fk_indexes, simulated_runtime, CardinalityEstimator, Optimizer, TrueCardOracle,
};
use safebound_query::Query;
use safebound_storage::Catalog;
use std::io::Result;
use std::time::Instant;

/// SafeBound behind the optimizer's estimator interface, with one
/// long-lived session. Counts its calls; times them only when `timed`.
struct Adapter {
    sb: SafeBound,
    session: BoundSession,
    calls: u64,
    errors: u64,
    timed: bool,
    /// ns inside `estimate`, and the part of it inside `bound_with_session`.
    adapter_ns: u64,
    bound_ns: u64,
}

impl Adapter {
    fn new(sb: SafeBound) -> Self {
        Adapter {
            sb,
            session: BoundSession::default(),
            calls: 0,
            errors: 0,
            timed: false,
            adapter_ns: 0,
            bound_ns: 0,
        }
    }

    fn set_timed(&mut self, on: bool) {
        self.timed = on;
        self.session.set_phase_timing(on);
    }
}

impl CardinalityEstimator for Adapter {
    fn name(&self) -> &'static str {
        "SafeBound"
    }

    fn estimate(&mut self, query: &Query, mask: u64) -> f64 {
        self.calls += 1;
        let entered = self.timed.then(Instant::now);
        let sub = query.induced(mask);
        let called = self.timed.then(Instant::now);
        let bound = self.sb.bound_with_session(&sub, &mut self.session);
        if let (Some(entered), Some(called)) = (entered, called) {
            let left = Instant::now();
            self.bound_ns += (left - called).as_nanos() as u64;
            self.adapter_ns += (left - entered).as_nanos() as u64;
        }
        bound.unwrap_or_else(|_| {
            self.errors += 1;
            f64::INFINITY
        })
    }
}

/// One query to plan.
struct Case {
    /// Index into [`Data::catalogs`].
    db: usize,
    query: Query,
    indexes: Vec<Vec<String>>,
}

struct Data {
    /// IMDB-like (three workloads share it) and STATS-like.
    catalogs: [Catalog; 2],
    handles: [SafeBound; 2],
    cases: Vec<Case>,
}

fn prepare() -> (Data, SetupTimes) {
    let (mut workloads, catalog_s) = run::timed(|| build_workloads(&ExperimentScale::smoke()));
    let mut cases = Vec::new();
    for (w, workload) in workloads.iter().enumerate() {
        for q in &workload.queries {
            cases.push(Case {
                db: usize::from(w == 3),
                indexes: pk_fk_indexes(&workload.catalog, &q.query),
                query: q.query.clone(),
            });
        }
    }
    let stats = workloads.pop().expect("four workloads").catalog;
    let imdb = workloads.pop().expect("four workloads").catalog;
    let catalogs = [imdb, stats];
    let (handles, build_s) = run::timed(|| {
        let build = |c: &Catalog| {
            SafeBound::from_stats(SafeBoundBuilder::new(experiment_config()).build(c))
        };
        [build(&catalogs[0]), build(&catalogs[1])]
    });
    let data = Data {
        catalogs,
        handles,
        cases,
    };
    let times = SetupTimes {
        total_s: 0.0,
        catalog_s,
        build_s,
    };
    (data, times)
}

/// Per-plan snapshot of what the adapters have accumulated, to take
/// differences across one `optimize` call.
#[derive(Clone, Copy)]
struct Tally {
    adapter_ns: u64,
    bound_ns: u64,
    phases: PhaseBreakdown,
}

fn tally(a: &Adapter) -> Tally {
    Tally {
        adapter_ns: a.adapter_ns,
        bound_ns: a.bound_ns,
        phases: a.session.phase_breakdown(),
    }
}

/// A session counter by its `STATS` key.
fn counter(s: &SessionStats, key: &str) -> u64 {
    match key {
        "shape_hits" => s.shape_hits,
        "shape_misses" => s.shape_misses,
        "shape_evictions" => s.shape_evictions,
        "lit_bound_hits" => s.lit_bound_hits,
        "lit_bound_misses" => s.lit_bound_misses,
        "lit_evictions" => s.lit_evictions,
        "eq_memo_hits" => s.eq_memo_hits,
        "eq_memo_misses" => s.eq_memo_misses,
        "range_memo_hits" => s.range_memo_hits,
        "range_memo_misses" => s.range_memo_misses,
        "like_memo_hits" => s.like_memo_hits,
        "like_memo_misses" => s.like_memo_misses,
        "relaxations_pruned" => s.relaxations_pruned,
        other => unreachable!("no session counter {other}"),
    }
}

fn merged_stats(adapters: &[Adapter; 2]) -> SessionStats {
    let mut all = adapters[0].session.stats();
    all.merge(&adapters[1].session.stats());
    all
}

pub fn run(args: &RunArgs) -> Result<Outcome> {
    let mut out = Outcome::default();
    let (data, times) = run::repeat_setup(args.setup_reps(), prepare);
    let optimizer = Optimizer::default();
    let mut adapters = data.handles.clone().map(Adapter::new);

    // ---- Set-up, once: the untimed first pass gives the quality metrics
    // and the reference plans ----
    let once = Instant::now();
    let (pairs, check_s) = run::timed(|| {
        data.cases
            .iter()
            .map(|c| {
                let exact = exact_count(&data.catalogs[c.db], &c.query)
                    .expect("oracle covers the workload");
                let full = (1u64 << c.query.num_relations()) - 1;
                (adapters[c.db].estimate(&c.query, full), exact)
            })
            .collect::<Vec<_>>()
    });
    let (tight_p50, tight_p95, underestimates) = run::tightness(&pairs);
    let plan = |c: &Case, est: &mut dyn CardinalityEstimator| {
        optimizer.optimize(&c.query, &c.indexes, est)
    };
    // Root cardinality of each chosen plan: later cycles must reproduce it
    // bit for bit whatever the caches hold.
    let mut reference = Vec::with_capacity(data.cases.len());
    let (mut chosen_rt, mut truecard_rt) = (0.0, 0.0);
    for c in &data.cases {
        let ours = plan(c, &mut adapters[c.db]);
        reference.push(ours.card().to_bits());
        if args.trace {
            // Fig. 5a: runtime of the plans SafeBound's bounds choose, over
            // the plans true cardinalities choose, both re-costed with truth.
            let catalog = &data.catalogs[c.db];
            let best = plan(c, &mut TrueCardOracle::new(catalog));
            let cost = |p| simulated_runtime(p, &c.query, catalog, &optimizer.cost);
            if let (Ok(a), Ok(b)) = (cost(&ours), cost(&best)) {
                chosen_rt += a;
                truecard_rt += b;
            }
        }
    }
    let setup_s = times.total_s + once.elapsed().as_secs_f64();

    // ---- Timed phase(s): cycle the queries in a seeded order ----
    let order = gen::shuffled(args.seed, data.cases.len());
    let mut cursor = 0usize;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut phase = |adapters: &mut [Adapter; 2], mut tracer: Option<&mut Tracer>| {
        let mut windows = args.windows();
        let epoch = tracer.as_ref().map_or_else(Instant::now, |t| t.epoch());
        let now = || epoch.elapsed().as_nanos() as u64;
        let begin = now();
        loop {
            if tracer.as_ref().is_some_and(|t| !t.has_room(6)) {
                break;
            }
            let i = order[cursor % order.len()];
            cursor += 1;
            let c = &data.cases[i];
            let before = tally(&adapters[c.db]);
            let start = now();
            if start - begin >= windows.span_ns() {
                break;
            }
            let chosen = plan(c, &mut adapters[c.db]);
            let done = now();
            windows.record(done - begin, done - start, 1);
            attempted += 1;
            failed += u64::from(chosen.card().to_bits() != reference[i]);
            if let Some(t) = tracer.as_deref_mut() {
                // Estimator time is scattered over the plan's 9–33 calls;
                // the child spans carry its sums, laid end to end.
                let after = tally(&adapters[c.db]);
                let id = attempted;
                let root = t.span("request", start, done, ROOT, id);
                let adapter_ns = after.adapter_ns - before.adapter_ns;
                let adapter = t.span(
                    "exec.estimator_adapter",
                    start,
                    start + adapter_ns,
                    root,
                    id,
                );
                let bound_ns = after.bound_ns - before.bound_ns;
                let est = t.span("core.estimator.bound", start, start + bound_ns, adapter, id);
                let mut at = start;
                for (name, ns) in [
                    (
                        "core.estimator.resolve",
                        after.phases.resolve_ns - before.phases.resolve_ns,
                    ),
                    (
                        "core.estimator.assemble",
                        after.phases.assemble_ns - before.phases.assemble_ns,
                    ),
                    (
                        "core.bound.kernel",
                        after.phases.kernel_ns - before.phases.kernel_ns,
                    ),
                ] {
                    t.span(name, at, at + ns, est, id);
                    at += ns;
                }
            }
        }
        windows
    };

    let calls_before: u64 = adapters.iter().map(|a| a.calls).sum();
    let stats_before = merged_stats(&adapters);
    let windows = phase(&mut adapters, None);
    let s = merged_stats(&adapters);
    let b = stats_before;
    let plans = windows.total_units().max(1.0);
    let calls = adapters.iter().map(|a| a.calls).sum::<u64>() - calls_before;
    let shape_evictions = s.shape_evictions - b.shape_evictions;
    out.require(shape_evictions > 0, || {
        "plan_loop: the sub-query shapes fit the shape cache (no evictions)".to_string()
    });

    if args.trace {
        adapters.iter_mut().for_each(|a| a.set_timed(true));
        let mut tracer = Tracer::new();
        let calls_before: u64 = adapters.iter().map(|a| a.calls).sum();
        let traced = phase(&mut adapters, Some(&mut tracer));
        adapters.iter_mut().for_each(|a| a.set_timed(false));
        let traced_calls = adapters.iter().map(|a| a.calls).sum::<u64>() - calls_before;
        let per_estimate = traced_calls as f64 / traced.total_units().max(1.0);
        let (rtt, adapter, est) = (
            tracer.durations("request"),
            tracer.durations("exec.estimator_adapter"),
            tracer.durations("core.estimator.bound"),
        );
        let derived = |f: &dyn Fn(usize) -> f64| median(&(0..rtt.len()).map(f).collect::<Vec<_>>());
        let bound_ns = median(&est) / per_estimate;
        let phases = [
            tracer.median_ns("core.estimator.resolve") / per_estimate,
            tracer.median_ns("core.estimator.assemble") / per_estimate,
            tracer.median_ns("core.bound.kernel") / per_estimate,
        ];
        out.set("core.estimator.bound_ns", bound_ns);
        out.set("core.estimator.resolve_ns", phases[0]);
        out.set("core.estimator.assemble_ns", phases[1]);
        out.set("core.bound.kernel_ns", phases[2]);
        out.set(
            "core.estimator.other_ns",
            bound_ns - phases.iter().sum::<f64>(),
        );
        out.set(
            "exec.optimizer.self_us",
            derived(&|i| rtt[i] - adapter[i]) / 1e3,
        );
        // Building the induced sub-query: inside the adapter, outside the bound.
        out.set(
            "bench.unattributed_us",
            derived(&|i| adapter[i] - est[i]) / 1e3,
        );
        run::set_trace_overhead(&mut out, &windows, &traced, &tracer);
        out.set("exec.optimizer.plan_runtime_ratio", chosen_rt / truecard_rt);
        std::fs::create_dir_all(&args.out_dir)?;
        tracer.write(&args.out_dir.join("trace-plan_loop.json"), "plan_loop")?;
    }

    let errors: u64 = adapters.iter().map(|a| a.errors).sum();
    out.attempted = attempted + pairs.len() as u64;
    out.failed = failed + errors + underestimates;
    out.set_failures(underestimates);
    run::set_common_metrics(
        &mut out,
        &windows,
        setup_s,
        &times,
        check_s,
        (tight_p50, tight_p95),
    );
    let snapshots = data.handles.each_ref().map(SafeBound::snapshot);
    out.set(
        "stats_bytes",
        snapshots.iter().map(|s| s.byte_size()).sum::<usize>() as f64,
    );

    out.set("datagen.pool_lines", data.cases.len() as f64);
    run::set_cache_metrics(&mut out, &|key| counter(&s, key) - counter(&b, key));
    out.set("exec.optimizer.estimates_per_plan", calls as f64 / plans);
    out.set(
        "core.stats.cds_sets",
        snapshots.iter().map(|s| s.num_sets()).sum::<usize>() as f64,
    );
    Ok(out)
}
