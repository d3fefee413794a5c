//! What every workload shares: run parameters, sizing, the result record,
//! repeated set-up, and process-level measurements.

use crate::catalog;
use crate::hist::{median, Windows};
use crate::trace::Tracer;
use safebound_datagen::ImdbScale;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Input sizes. The driver and the all-workloads mode use
/// [`Sizing::full`]; only the in-binary smoke test shrinks them.
#[derive(Clone)]
pub struct Sizing {
    pub imdb: ImdbScale,
    /// Lines in the fresh-literal pool; several times the 8192-entry
    /// literal cache so a cycling stream always misses it.
    pub pool_lines: usize,
    /// Lines checked against the exact oracle.
    pub sample: usize,
    /// Times the repeatable part of set-up runs (`setup_s` and
    /// `core.stats.build_ms` are medians over these).
    pub setup_reps: usize,
    pub warmup: Duration,
    pub window: Duration,
}

impl Sizing {
    pub fn full() -> Self {
        Sizing {
            imdb: ImdbScale::default(),
            pool_lines: 65_536,
            sample: 200,
            setup_reps: 3,
            warmup: Duration::from_secs(2),
            window: Duration::from_millis(250),
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Sizing {
            imdb: ImdbScale::tiny(),
            pool_lines: 16_384,
            sample: 40,
            setup_reps: 1,
            warmup: Duration::from_millis(200),
            window: Duration::from_millis(100),
        }
    }
}

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizing: Sizing,
    /// Where trace files, snapshot files and the run history go.
    pub out_dir: PathBuf,
}

impl RunArgs {
    /// Length of one timed phase: the whole run untraced; half each for
    /// the untraced reference phase and the traced phase otherwise.
    pub fn phase(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }

    /// Times the repeatable part of set-up runs. A traced run does not
    /// report `setup_s`, so it sets up once.
    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            self.sizing.setup_reps
        }
    }

    /// Fresh windows covering one phase.
    pub fn windows(&self) -> Windows {
        let window_ns = self.sizing.window.as_nanos() as u64;
        let count = (self.phase().as_nanos() as u64 / window_ns).max(1);
        Windows::new(count as usize, window_ns)
    }
}

/// One workload's result: metrics by catalog name plus the failure
/// accounting the result line carries.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted: request lines, plans, restart answers, and
    /// the oracle checks.
    pub attempted: u64,
    /// Operations that failed: `ERR`, missing, malformed or wrong
    /// answers, and underestimates.
    pub failed: u64,
    /// Reasons the run does not count (a validity ratio out of range, a
    /// ladder that does not close); non-empty makes the run incorrect.
    pub invalid: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            catalog::find(name).is_some(),
            "{name} is not in the catalog"
        );
        self.metrics.insert(name, value);
    }

    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.invalid.push(why());
        }
    }

    /// `error_share` and `underestimates`, which every workload reports.
    pub fn set_failures(&mut self, underestimates: u64) {
        self.set("underestimates", underestimates as f64);
        self.set(
            "error_share",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
    }
}

/// Times of the repeatable part of set-up.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub catalog_s: f64,
    pub build_s: f64,
}

/// Run the repeatable part of set-up `reps` times, keep the last product,
/// and return the median of each time. Earlier products are dropped before
/// the next repetition so they do not add to peak memory.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> (T, SetupTimes)) -> (T, SetupTimes) {
    let mut times = Vec::with_capacity(reps);
    let mut product = None;
    for _ in 0..reps.max(1) {
        drop(product.take());
        let started = Instant::now();
        let (p, mut t) = setup();
        t.total_s = started.elapsed().as_secs_f64();
        times.push(t);
        product = Some(p);
    }
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    (
        product.expect("at least one repetition ran"),
        SetupTimes {
            total_s: med(|t| t.total_s),
            catalog_s: med(|t| t.catalog_s),
            build_s: med(|t| t.build_s),
        },
    )
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Hardware threads the host gave this process, counted once, before
/// [`pin_to_one_cpu`] narrows the affinity mask. Server workers are capped
/// by it (at most 2), and it is part of the host fingerprint.
pub fn nproc() -> usize {
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    *HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pin this thread, and so every thread started after it, to one hardware
/// thread: the highest-numbered one the process may use (the lowest takes
/// the guest's housekeeping). Returns that CPU, or `None` where the
/// affinity calls do not exist or fail; the run then goes on unpinned.
///
/// Every workload is a closed loop whose client waits for each reply, so
/// one thread has work at a time. Spread over two virtual CPUs, each
/// hand-over wakes an idle vCPU through the hypervisor: on the build host
/// that was 65 µs of an 86 µs `wire_single` round trip, time no change to
/// the program can move and the largest source of run-to-run spread.
pub fn pin_to_one_cpu() -> Option<usize> {
    nproc();
    *PINNED.get_or_init(affinity::pin_to_highest)
}

static PINNED: OnceLock<Option<usize>> = OnceLock::new();

/// The CPU [`pin_to_one_cpu`] chose, if it was called and succeeded.
pub fn pinned_cpu() -> Option<usize> {
    PINNED.get().copied().flatten()
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn pin_to_highest() -> Option<usize> {
        let mut mask = [0u64; WORDS];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
        // bytes, and pid 0 names the calling thread; the kernel writes at
        // most `bytes` bytes into it.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = mask.iter().rposition(|w| *w != 0)?;
        let bit = 63 - mask[word].leading_zeros() as usize;
        let mut one = [0u64; WORDS];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the
        // kernel only reads; pid 0 names the calling thread.
        (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin_to_highest() -> Option<usize> {
        None
    }
}

/// Median and p95 of `bound ÷ exact` over the pairs with a non-empty
/// exact result, and the number of bounds below the exact count.
pub fn tightness(pairs: &[(f64, u128)]) -> (f64, f64, u64) {
    let mut ratios: Vec<f64> = pairs
        .iter()
        .filter(|(_, exact)| *exact > 0)
        .map(|(bound, exact)| bound / *exact as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let under = pairs.iter().filter(|(b, e)| *b < *e as f64).count() as u64;
    (
        safebound_bench::quantile(&ratios, 0.5),
        safebound_bench::quantile(&ratios, 0.95),
        under,
    )
}

/// The session-cache ratios and counts of one timed phase. `d` gives a
/// counter's increase over the phase by its `STATS` key.
pub fn set_cache_metrics(out: &mut Outcome, d: &dyn Fn(&str) -> u64) {
    out.set(
        "core.estimator.shape_hit_ratio",
        share(d("shape_hits"), d("shape_misses")),
    );
    out.set(
        "core.estimator.lit_hit_ratio",
        share(d("lit_bound_hits"), d("lit_bound_misses")),
    );
    out.set(
        "core.estimator.eq_memo_hit_ratio",
        share(d("eq_memo_hits"), d("eq_memo_misses")),
    );
    out.set(
        "core.estimator.range_memo_hit_ratio",
        share(d("range_memo_hits"), d("range_memo_misses")),
    );
    out.set(
        "core.estimator.like_memo_hit_ratio",
        share(d("like_memo_hits"), d("like_memo_misses")),
    );
    out.set(
        "core.estimator.shape_evictions",
        d("shape_evictions") as f64,
    );
    out.set("core.estimator.lit_evictions", d("lit_evictions") as f64);
    out.set(
        "core.estimator.relaxations_pruned",
        d("relaxations_pruned") as f64,
    );
}

/// What every workload reports the same way: the end-to-end metrics of the
/// untraced phase, the set-up times, and the phase's tail latency (the
/// highest quantile with ten samples beyond it, which quantile that was,
/// and the sample count).
pub fn set_common_metrics(
    out: &mut Outcome,
    windows: &Windows,
    setup_s: f64,
    times: &SetupTimes,
    check_s: f64,
    (tight_p50, tight_p95): (f64, f64),
) {
    out.set("setup_s", setup_s);
    out.set("qps", windows.rate_fast_quartile());
    out.set("latency_p50_us", windows.p50_fast_quartile() / 1e3);
    out.set("tightness_p50", tight_p50);
    out.set("tightness_p95", tight_p95);
    if let Some(rss) = peak_rss_mb() {
        out.set("peak_rss_mb", rss);
    }
    out.set("datagen.catalog_s", times.catalog_s);
    out.set("core.stats.build_ms", times.build_s * 1e3);
    out.set("exec.exact.check_s", check_s);
    let all = windows.merged();
    let (q, ns) = all.tail().unwrap_or((0.0, 0.0));
    out.set("serve.server.rtt_p99_us", ns / 1e3);
    out.set("serve.server.rtt_p99_q", q);
    out.set("serve.server.rtt_p99_n", all.len() as f64);
    out.set("bench.window_spread", windows.rate_spread());
}

/// `bench.trace_overhead_share`: how much slower the traced top rung ran
/// than the untraced phase. The traced rate counts only the time inside
/// the `request` spans; the rungs replayed between them are separate
/// experiments.
pub fn set_trace_overhead(out: &mut Outcome, untraced: &Windows, traced: &Windows, t: &Tracer) {
    let in_requests_s = t.durations("request").iter().sum::<f64>() / 1e9;
    let traced_rate = traced.total_units() / in_requests_s.max(1e-9);
    let untraced_rate = untraced.rate_fast_quartile();
    out.set(
        "bench.trace_overhead_share",
        (untraced_rate - traced_rate) / untraced_rate,
    );
}

/// `a / (a + b)`, or 0 when nothing was counted.
pub fn share(a: u64, b: u64) -> f64 {
    if a + b == 0 {
        0.0
    } else {
        a as f64 / (a + b) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_setup_reports_medians_and_keeps_the_last_product() {
        let mut n = 0;
        let (product, t) = repeat_setup(3, || {
            n += 1;
            let t = SetupTimes {
                total_s: 0.0,
                catalog_s: n as f64,
                build_s: [9.0, 1.0, 5.0][n - 1],
            };
            (n, t)
        });
        assert_eq!(product, 3);
        assert_eq!(t.catalog_s, 2.0);
        assert_eq!(t.build_s, 5.0);
        assert!(t.total_s >= 0.0);
    }

    #[test]
    fn tightness_counts_underestimates_and_skips_empty_results() {
        let (p50, p95, under) = tightness(&[(10.0, 5), (3.0, 0), (4.0, 4), (1.0, 2)]);
        assert_eq!(under, 1);
        assert_eq!(p50, 1.0);
        assert!(p95 > 1.0 && p95 <= 2.0);
        assert_eq!(share(3, 1), 0.75);
        assert_eq!(share(0, 0), 0.0);
    }

    #[test]
    fn pinning_leaves_one_cpu_to_the_thread_and_its_children() {
        // In a thread of its own, so the test harness stays unpinned.
        let seen = std::thread::spawn(|| {
            affinity::pin_to_highest().map(|cpu| {
                let child = std::thread::spawn(std::thread::available_parallelism);
                (cpu, child.join().unwrap().map_or(0, |n| n.get()))
            })
        })
        .join()
        .unwrap();
        match seen {
            Some((cpu, threads)) => assert!(cpu < 1024 && threads == 1, "{cpu} {threads}"),
            None if cfg!(target_os = "linux") => panic!("affinity calls failed"),
            None => {}
        }
    }

    #[test]
    fn traced_runs_split_the_time_in_two() {
        let mut args = RunArgs {
            seed: 1,
            seconds: 4.0,
            trace: false,
            sizing: Sizing::full(),
            out_dir: PathBuf::new(),
        };
        assert_eq!(args.windows().span_ns(), 4_000_000_000);
        args.trace = true;
        assert_eq!(args.windows().span_ns(), 2_000_000_000);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 1.0);
        }
    }
}
