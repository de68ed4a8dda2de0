//! Dependency-free parallel map on the persistent worker pool.
//!
//! The PEEC assembly loops and the table characterization sweeps are
//! embarrassingly parallel: every matrix entry / grid point is an
//! independent pure computation. This module provides the one primitive
//! they all share — [`par_map`] — executed on the process-wide
//! [`crate::pool`], so the workspace stays free of external runtime
//! dependencies and repeated calls (one per GMRES matvec on the fast
//! PEEC path) pay no thread-spawn cost.
//!
//! # Determinism
//!
//! Work is sharded by *index*, never by work-stealing: shard `k` of `t`
//! computes the contiguous index range `[k·⌈n/t⌉, (k+1)·⌈n/t⌉)` and writes
//! results straight into its disjoint slice of the output vector. Each
//! index is evaluated by exactly one call of the (pure) closure, so the
//! output is bit-identical regardless of thread count — `par_map_threads(1,
//! n, f)` and `par_map_threads(64, n, f)` return the same `Vec` down to the
//! last ULP. Tests rely on this. (The pool assigns *shards* to threads
//! dynamically, but a shard's index range — and therefore every output
//! slot — is fixed by `threads` and `n` alone.)
//!
//! # Thread-count policy
//!
//! [`thread_count`] honours, in order: a thread-local override installed
//! by [`with_thread_count`] (determinism tests and benchmark sweeps), the
//! `RLCX_THREADS` environment variable when it parses to a positive
//! integer, and [`std::thread::available_parallelism`]. Callers that need
//! explicit control use [`par_map_threads`].

use crate::obs;
use crate::pool::{self, SendPtr};
use std::cell::Cell;
use std::thread;

thread_local! {
    /// `0` means "no override"; see [`with_thread_count`].
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with [`thread_count`] pinned to `threads` on the current
/// thread, restoring the previous value afterwards (also on panic).
///
/// Unlike mutating `RLCX_THREADS` through `std::env::set_var`, the
/// override is thread-local and race-free, so determinism tests can pin
/// different thread counts concurrently. Nested overrides stack; the
/// innermost wins.
pub fn with_thread_count<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "thread count override must be positive");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(threads)));
    f()
}

/// The number of worker threads the parallel primitives use by default.
///
/// Resolution order:
/// 1. a [`with_thread_count`] override on the current thread;
/// 2. `RLCX_THREADS` environment variable, if set to a positive integer;
/// 3. [`std::thread::available_parallelism`];
/// 4. `1` if none of the above are available.
pub fn thread_count() -> usize {
    let overridden = THREAD_OVERRIDE.with(Cell::get);
    if overridden >= 1 {
        return overridden;
    }
    if let Ok(v) = std::env::var("RLCX_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Interleaves index `k` of `n` so contiguous shards get balanced work when
/// per-index cost varies monotonically with the index.
///
/// Even `k` walk up from the cheap end (`0, 1, 2, …`), odd `k` walk down
/// from the expensive end (`n-1, n-2, …`), so every contiguous chunk of
/// `0..n` mixes cheap and expensive items. The map is a bijection of
/// `0..n` onto itself: callers evaluate item `balanced_index(k, n)` at
/// position `k` and scatter results back by the returned index. Used by
/// the PEEC upper-triangle assembly (row `i` costs `n - i` entries) and
/// the table characterization sweeps (quadrature cost falls with spacing).
#[inline]
pub fn balanced_index(k: usize, n: usize) -> usize {
    debug_assert!(k < n);
    if k.is_multiple_of(2) {
        k / 2
    } else {
        n - 1 - k / 2
    }
}

/// Maps `f` over `0..n` with the default [`thread_count`], returning the
/// results in index order.
///
/// Equivalent to `(0..n).map(f).collect()` but evaluated on multiple
/// threads; see the module docs for the determinism guarantee.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_threads(thread_count(), n, f)
}

/// Maps `f` over `0..n` across the calling thread plus pool workers, up
/// to `threads` claimants (clamped to `[1, n]`), returning the results in
/// index order.
///
/// With `threads <= 1` (or `n <= 1`) this degenerates to a plain serial
/// loop that never touches the pool.
pub fn par_map_threads<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    obs::gauge_set("threads.used", threads as f64);
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let shards = n.div_ceil(chunk);
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let out_ptr = SendPtr::new(out.as_mut_ptr());
    pool::run(shards, threads, |k| {
        let base = k * chunk;
        let end = (base + chunk).min(n);
        for i in base..end {
            // SAFETY: shard `k` exclusively owns output slots
            // `[base, end)`; no other task touches them.
            unsafe { *out_ptr.get().add(i) = Some(f(i)) };
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every index is covered by exactly one shard"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_index_is_a_permutation_even_and_odd() {
        for n in [1usize, 2, 3, 4, 7, 8, 33, 100] {
            let mut seen: Vec<usize> = (0..n).map(|k| balanced_index(k, n)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn balanced_index_interleaves_ends() {
        // Even n: 0, n-1, 1, n-2, …
        assert_eq!(
            (0..6).map(|k| balanced_index(k, 6)).collect::<Vec<_>>(),
            vec![0, 5, 1, 4, 2, 3]
        );
        // Odd n: the middle element lands last.
        assert_eq!(
            (0..5).map(|k| balanced_index(k, 5)).collect::<Vec<_>>(),
            vec![0, 4, 1, 3, 2]
        );
    }

    #[test]
    fn matches_serial_map() {
        let serial: Vec<u64> = (0..1000)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for threads in [1, 2, 3, 7, 16] {
            let par = par_map_threads(threads, 1000, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn handles_degenerate_sizes() {
        assert_eq!(par_map_threads(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_threads(4, 1, |i| i), vec![0]);
        assert_eq!(par_map_threads(4, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(par_map_threads(16, 5, |i| i * i), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn float_results_are_bit_identical_across_thread_counts() {
        let f = |i: usize| ((i as f64) * 0.1).sin().exp() / (i as f64 + 1.0).sqrt();
        let one: Vec<u64> = par_map_threads(1, 257, f)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let many: Vec<u64> = par_map_threads(5, 257, f)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(one, many);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn with_thread_count_overrides_and_restores() {
        let ambient = thread_count();
        let inner = with_thread_count(7, || {
            let seven = thread_count();
            let nested = with_thread_count(2, thread_count);
            (seven, nested)
        });
        assert_eq!(inner, (7, 2));
        assert_eq!(thread_count(), ambient, "override must be scoped");
    }

    #[test]
    fn with_thread_count_drives_par_map() {
        let serial: Vec<u64> = (0..97).map(|i| (i as u64) * 3 + 1).collect();
        for threads in [1usize, 2, 7] {
            let par = with_thread_count(threads, || par_map(97, |i| (i as u64) * 3 + 1));
            assert_eq!(par, serial, "threads={threads}");
        }
    }
}
