//! Scoped-thread fan-out for the offline statistics build.
//!
//! The build environment has no registry access, so `rayon` is not
//! available; this module provides the one primitive the offline phase
//! needs — an order-preserving parallel map over a slice — on plain
//! `std::thread::scope`. Work is split into contiguous chunks, one per
//! available core, which matches the build's coarse-grained units (a table
//! or a filter column each cost milliseconds to seconds). If a real
//! `rayon` dependency is ever wired in, `par_map(items, f)` is a drop-in
//! for `items.par_iter().map(f).collect()`.
//!
//! # No nested fan-out
//!
//! Callers are expected to submit ONE flat work list (the build pipeline
//! flattens table × shard and table × unit products before calling in).
//! As a backstop, a `par_map` invoked from inside another `par_map`
//! worker runs its items sequentially on that worker instead of spawning
//! a second generation of threads — nested spawning would oversubscribe
//! the machine quadratically (`cores × cores` live threads) without
//! adding any parallelism.

// The scoped build pool: spawning threads is its purpose.
#![allow(clippy::disallowed_methods)]

use std::cell::Cell;
use std::num::NonZeroUsize;

/// Upper bound on worker threads (build units are coarse; more threads
/// than this only adds scheduling noise).
const MAX_WORKERS: usize = 32;

thread_local! {
    /// True while this thread is a `par_map` worker: nested calls run
    /// sequentially instead of spawning another generation of threads.
    static IN_PAR_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Map `f` over `items` in parallel, preserving order. Falls back to a
/// sequential map for empty/singleton inputs, single-core machines, and
/// calls nested inside another `par_map` (see the module docs). Panics in
/// `f` propagate to the caller (as with rayon).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_WORKERS)
        .min(n);
    if workers <= 1 || IN_PAR_WORKER.with(Cell::get) {
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                scope.spawn(|| {
                    IN_PAR_WORKER.with(|flag| flag.set(true));
                    c.iter().map(&f).collect::<Vec<U>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_length() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out.len(), 1000);
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(par_map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(par_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn results_match_sequential_on_nontrivial_work() {
        let items: Vec<usize> = (0..257).collect();
        let seq: Vec<usize> = items.iter().map(|&x| x * x % 97).collect();
        assert_eq!(par_map(&items, |&x| x * x % 97), seq);
    }

    #[test]
    fn nested_calls_run_sequentially_on_the_worker() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let outer: Vec<usize> = (0..64).collect();
        let inner_threads: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let out = par_map(&outer, |&x| {
            let inner: Vec<usize> = (0..8).collect();
            let sums = par_map(&inner, |&y| {
                inner_threads
                    .lock()
                    .unwrap()
                    .insert(std::thread::current().id());
                x * 10 + y
            });
            sums.into_iter().sum::<usize>()
        });
        // Results are correct…
        assert_eq!(
            out,
            (0..64)
                .map(|x| (0..8).map(|y| x * 10 + y).sum())
                .collect::<Vec<usize>>()
        );
        // …and the inner maps ran on the outer workers only: no second
        // generation of threads beyond the outer fan-out width.
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert!(inner_threads.lock().unwrap().len() <= workers.min(MAX_WORKERS));
    }
}
