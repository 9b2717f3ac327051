//! Scoped-thread parallel sweeps for experiment harnesses.
//!
//! The evaluation averages every data point over many independent random
//! topologies — an embarrassingly parallel workload. Following the
//! hpc-parallel guidance, parallelism lives only at this outermost level:
//! each worker runs the (deterministic, single-threaded) simulator on its
//! own topology, and results are returned **in input order** so a parallel
//! sweep is bit-identical to a sequential one.
//!
//! Built on `std::thread::scope` + an atomic work index (no unsafe, no
//! external dependency, no global thread pool).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Number of worker threads to use: the available parallelism, capped by
/// the number of work items (never zero).
pub fn default_workers(items: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    hw.min(items).max(1)
}

/// Applies `f` to `0..items` on `workers` threads, returning results in
/// index order.
///
/// `f` must be `Sync` (it is shared by reference across workers) and the
/// result type `Send`. Work is distributed dynamically through an atomic
/// counter, so uneven item costs balance automatically.
///
/// # Panics
/// Panics if any invocation of `f` panics (the panic is propagated).
pub fn par_map_indexed<T, F>(items: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if items == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, items);
    if workers == 1 {
        return (0..items).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();

    // `std::thread::scope` re-raises any worker panic after joining all
    // threads, so a panicking `f` propagates to the caller.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items {
                    break;
                }
                // A send only fails if the receiver was dropped, which
                // cannot happen while this scope is alive.
                tx.send((i, f(i))).expect("result channel closed early");
            });
        }
        drop(tx);
    });

    let mut slots: Vec<Option<T>> = (0..items).map(|_| None).collect();
    for (i, v) in rx.try_iter() {
        slots[i] = Some(v);
    }
    slots.into_iter().map(|s| s.expect("every work item produces exactly one result")).collect()
}

/// [`par_map_indexed`] with [`default_workers`].
pub fn par_map<T, F>(items: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_indexed(items, default_workers(items), f)
}

/// Mean of a slice; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation; 0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        let out = par_map_indexed(100, 4, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map_indexed(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_path() {
        let out = par_map_indexed(10, 1, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential() {
        let seq = par_map_indexed(64, 1, |i| (i as f64).sqrt());
        let par = par_map_indexed(64, 8, |i| (i as f64).sqrt());
        assert_eq!(seq, par);
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still all complete.
        let out = par_map_indexed(32, 4, |i| {
            let mut acc = 0u64;
            for k in 0..(i * 1000) {
                acc = acc.wrapping_add(k as u64);
            }
            (i, acc)
        });
        assert_eq!(out.len(), 32);
        for (i, item) in out.iter().enumerate() {
            assert_eq!(item.0, i);
        }
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        par_map_indexed(8, 2, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn default_workers_bounds() {
        assert_eq!(default_workers(0), 1);
        assert!(default_workers(1) == 1);
        assert!(default_workers(1000) >= 1);
    }
}
