//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultInjector`] is threaded through the session pool
//! ([`BoundService::with_faults`](crate::BoundService::with_faults)), the
//! TCP response path ([`ServeOptions::faults`](crate::ServeOptions)), and
//! the statistics refresher
//! ([`StatsRefresher::spawn_with_faults`](crate::StatsRefresher::spawn_with_faults)),
//! and can inject — from a fixed seed, so chaos runs replay exactly —
//!
//! * **panics** mid-query, in a single query or a batch (exercises
//!   `catch_unwind` isolation and the drop of the panicked session),
//! * **latency** before a query, which keeps the caller's session out
//!   (exercises that nobody else waits for it),
//! * **refresh build failures** (exercises retry/backoff and
//!   last-good-snapshot serving), and
//! * **I/O errors and short writes** on the TCP response path (exercises
//!   the retrying writer — a response line must never be truncated), and
//! * **snapshot file faults** — injected read errors, seeded byte
//!   corruption, truncated reads, and failed writes on the snapshot
//!   persistence layer (exercises the checksummed loader's typed
//!   rejection and the last-good fallback; see
//!   [`FaultInjector::install_file_hook`]).
//!
//! The layer is always compiled and inert unless a seeded schedule is
//! installed: production paths run [`FaultInjector::disabled`], whose
//! hooks are one `None` check each (per bound, per response write
//! attempt, per refresh build), and the snapshot-file hooks it installs
//! live in `safebound_core::snapshot_file::hooks`. There is no build
//! configuration in which the hooks are absent, so the chaos suites test
//! the code that ships.

use std::io::ErrorKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the service should do before bounding one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerFault {
    /// Proceed normally.
    None,
    /// Panic mid-query.
    Panic,
    /// Sleep this long before computing.
    Delay(Duration),
}

/// What one TCP response write attempt should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteFault {
    /// Write normally.
    None,
    /// Fail with this error kind before writing anything.
    Err(std::io::ErrorKind),
    /// Write at most this many bytes (a short write).
    Short(usize),
}

/// SplitMix64: the per-event deterministic choice function. Every
/// injected decision derives from `seed ^ event-sequence-number`, so
/// a schedule replays exactly for a fixed seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Default)]
struct Inner {
    seed: u64,
    /// Query sequence numbers (global, from 0) that panic.
    panic_queries: Vec<u64>,
    /// Query sequence numbers that sleep first, each with its
    /// own delay.
    delay_queries: Vec<(u64, Duration)>,
    /// Remaining refresher builds to fail.
    refresh_failures_left: AtomicU64,
    refresh_failures_injected: AtomicU64,
    /// Every `write_every`-th response write attempt faults (0 = off).
    write_every: u64,
    query_seq: AtomicU64,
    write_seq: AtomicU64,
    /// Remaining snapshot-file reads to fail with an `io::Error`.
    snapshot_read_errors: AtomicU64,
    /// Remaining snapshot-file reads to corrupt (one seeded byte flip).
    snapshot_read_corruptions: AtomicU64,
    /// Remaining snapshot-file reads to truncate mid-file.
    snapshot_read_truncations: AtomicU64,
    /// Remaining snapshot-file writes to fail (torn tmp write).
    snapshot_write_errors: AtomicU64,
    /// Sequence counter for seeded file-fault choices.
    file_seq: AtomicU64,
}

/// Decrement a fault budget; true when a unit was consumed.
fn take_budget(budget: &AtomicU64) -> bool {
    budget
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
            left.checked_sub(1)
        })
        .is_ok()
}

/// A seeded, cheaply clonable fault schedule (all clones share the
/// same event counters). See the module docs for the fault kinds.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector(Option<Arc<Inner>>);

impl FaultInjector {
    /// An injector that never faults (what production paths run with
    /// unless a chaos harness installs a schedule).
    pub fn disabled() -> Self {
        FaultInjector(None)
    }

    /// Start building a fault schedule from a fixed seed.
    pub fn seeded(seed: u64) -> FaultBuilder {
        FaultBuilder {
            inner: Inner {
                seed,
                ..Inner::default()
            },
        }
    }

    /// Query panics injected so far.
    pub fn panics_injected(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| {
            i.panic_queries
                .iter()
                .filter(|&&q| q < i.query_seq.load(Ordering::Relaxed))
                .count() as u64
        })
    }

    pub(crate) fn on_worker_query(&self) -> WorkerFault {
        let Some(inner) = &self.0 else {
            return WorkerFault::None;
        };
        let seq = inner.query_seq.fetch_add(1, Ordering::Relaxed);
        if inner.panic_queries.contains(&seq) {
            return WorkerFault::Panic;
        }
        if let Some(&(_, delay)) = inner.delay_queries.iter().find(|(q, _)| *q == seq) {
            return WorkerFault::Delay(delay);
        }
        WorkerFault::None
    }

    pub(crate) fn on_refresh_build(&self) -> Option<String> {
        let inner = self.0.as_ref()?;
        if !take_budget(&inner.refresh_failures_left) {
            return None;
        }
        let k = inner
            .refresh_failures_injected
            .fetch_add(1, Ordering::Relaxed);
        Some(format!("injected build failure #{}", k + 1))
    }

    /// Install this schedule's snapshot file faults for paths under
    /// `prefix` (see `safebound_core::snapshot_file::hooks`). Budgets
    /// are consumed in a fixed order — read errors, then corruptions,
    /// then truncations — so a schedule replays exactly; write
    /// budgets are independent. Returns `None` when the injector is
    /// disabled or no file budgets are set. The faults uninstall when
    /// the returned guard drops.
    pub fn install_file_hook(
        &self,
        prefix: &std::path::Path,
    ) -> Option<safebound_core::snapshot_file::hooks::HookGuard> {
        use safebound_core::snapshot_file::hooks::{install, FileFault, FileOp};
        let inner = Arc::clone(self.0.as_ref()?);
        let any_budget = [
            &inner.snapshot_read_errors,
            &inner.snapshot_read_corruptions,
            &inner.snapshot_read_truncations,
            &inner.snapshot_write_errors,
        ]
        .iter()
        .any(|b| b.load(Ordering::Relaxed) > 0);
        if !any_budget {
            return None;
        }
        Some(install(prefix.to_path_buf(), move |op, _path| match op {
            FileOp::Read => {
                if take_budget(&inner.snapshot_read_errors) {
                    return FileFault::Error(ErrorKind::Other);
                }
                if take_budget(&inner.snapshot_read_corruptions) {
                    let seq = inner.file_seq.fetch_add(1, Ordering::Relaxed);
                    let r = mix(inner.seed ^ seq);
                    return FileFault::CorruptByte {
                        offset: r as usize,
                        // A zero mask would be a no-op flip.
                        xor: ((r >> 32) as u8) | 1,
                    };
                }
                if take_budget(&inner.snapshot_read_truncations) {
                    let seq = inner.file_seq.fetch_add(1, Ordering::Relaxed);
                    return FileFault::Short(mix(inner.seed ^ seq) as usize % 4096);
                }
                FileFault::None
            }
            FileOp::Write => {
                if take_budget(&inner.snapshot_write_errors) {
                    let seq = inner.file_seq.fetch_add(1, Ordering::Relaxed);
                    return FileFault::Short(mix(inner.seed ^ seq) as usize % 256);
                }
                FileFault::None
            }
            _ => FileFault::None,
        }))
    }

    pub(crate) fn on_write(&self, remaining: usize) -> WriteFault {
        let Some(inner) = &self.0 else {
            return WriteFault::None;
        };
        if inner.write_every == 0 || remaining == 0 {
            return WriteFault::None;
        }
        let seq = inner.write_seq.fetch_add(1, Ordering::Relaxed);
        if seq % inner.write_every != inner.write_every - 1 {
            return WriteFault::None;
        }
        // Seeded choice of fault shape. Short writes always make ≥ 1
        // byte of progress, so even an every-write schedule cannot
        // livelock a retrying writer.
        match mix(inner.seed ^ seq) % 3 {
            0 => WriteFault::Err(ErrorKind::Interrupted),
            1 => WriteFault::Err(ErrorKind::WouldBlock),
            _ => WriteFault::Short((remaining / 2).max(1)),
        }
    }
}

/// Builder for a [`FaultInjector`] schedule (see
/// [`FaultInjector::seeded`]).
#[derive(Debug)]
pub struct FaultBuilder {
    inner: Inner,
}

impl FaultBuilder {
    /// Panic the bound of the given global query sequence numbers
    /// (counted across all callers, from 0).
    pub fn panic_on_queries(mut self, seqs: impl IntoIterator<Item = u64>) -> Self {
        self.inner.panic_queries.extend(seqs);
        self
    }

    /// Sleep `delay` before executing the given query sequence numbers.
    /// Each call keeps its own delay: a later call never re-times the
    /// sequence numbers of an earlier one.
    pub fn delay_queries(mut self, seqs: impl IntoIterator<Item = u64>, delay: Duration) -> Self {
        self.inner
            .delay_queries
            .extend(seqs.into_iter().map(|q| (q, delay)));
        self
    }

    /// Fail the next `n` refresher builds (the source is not called).
    pub fn fail_refresh_builds(mut self, n: u64) -> Self {
        self.inner.refresh_failures_left = AtomicU64::new(n);
        self
    }

    /// Fault every `every`-th response write attempt with a seeded
    /// choice of `Interrupted`, `WouldBlock`, or a short write.
    pub fn fault_writes_every(mut self, every: u64) -> Self {
        self.inner.write_every = every;
        self
    }

    /// Fail the next `n` snapshot-file reads with an `io::Error`
    /// (requires [`FaultInjector::install_file_hook`]).
    pub fn fail_snapshot_reads(mut self, n: u64) -> Self {
        self.inner.snapshot_read_errors = AtomicU64::new(n);
        self
    }

    /// Corrupt one seeded byte in each of the next `n` snapshot-file
    /// reads — the checksum must catch every one.
    pub fn corrupt_snapshot_reads(mut self, n: u64) -> Self {
        self.inner.snapshot_read_corruptions = AtomicU64::new(n);
        self
    }

    /// Truncate the next `n` snapshot-file reads mid-file.
    pub fn truncate_snapshot_reads(mut self, n: u64) -> Self {
        self.inner.snapshot_read_truncations = AtomicU64::new(n);
        self
    }

    /// Tear the next `n` snapshot-file writes (a short write then an
    /// error; the atomic rename never runs, so the published file
    /// stays intact).
    pub fn fail_snapshot_writes(mut self, n: u64) -> Self {
        self.inner.snapshot_write_errors = AtomicU64::new(n);
        self
    }

    /// Finish the schedule.
    pub fn build(self) -> FaultInjector {
        FaultInjector(Some(Arc::new(self.inner)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_queries_keeps_each_calls_delay() {
        let ms = Duration::from_millis;
        let faults = FaultInjector::seeded(7)
            .delay_queries([0], ms(10))
            .delay_queries([2], ms(20))
            .build();
        assert_eq!(faults.on_worker_query(), WorkerFault::Delay(ms(10)));
        assert_eq!(faults.on_worker_query(), WorkerFault::None);
        assert_eq!(faults.on_worker_query(), WorkerFault::Delay(ms(20)));
        assert_eq!(faults.on_worker_query(), WorkerFault::None);
    }
}
