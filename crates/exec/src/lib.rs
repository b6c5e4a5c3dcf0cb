//! # ft-exec
//!
//! Structured parallelism for the `finish-them` workspace, built only on
//! `std` — the container has no network access, so `rayon` is replaced
//! by this deliberately small executor. One module is shared by the
//! solver kernel (`ft-core::kernel`, which every registry solve runs
//! on) and the Monte-Carlo harness (`ft-sim::mc`), so every layer draws
//! from the same worker budget.
//!
//! Since PR 4 the executor is a **persistent worker pool** ([`Pool`]):
//! worker threads are spawned lazily on the first parallel region and
//! then parked, so `join`, the chunked `for_each`/`map` sweeps, and the
//! kernel's per-layer fan-out reuse parked workers instead of paying a
//! thread spawn/join per region (the kernel opens one region per
//! induction layer — the difference is measured by the `exec_pool`
//! bench).
//!
//! Design points:
//!
//! - **Deterministic decomposition**: all helpers split work into
//!   contiguous chunks whose per-element computation is independent, so
//!   results are identical to the serial loop regardless of thread
//!   count; the propagated panic payload is deterministic too, and a
//!   panicking region short-circuits its remaining chunks (see the
//!   dispatch-model notes on [`Pool`]).
//! - **Grain control**: callers pass the number of *elements* below which
//!   dispatching is not worth it; tiny inputs run inline with zero
//!   overhead.
//! - **No global mutable state beyond the pool**: thread counts come
//!   from [`available_threads`] (override with the `FT_EXEC_THREADS` env
//!   var, e.g. to pin CI to one core — the CI matrix runs both `1` and
//!   `4`). The free functions below dispatch on [`Pool::global`];
//!   callers that want explicit scoping can own a [`Pool`].

//! - **Work-stealing dispatch**: each worker owns a lock-free
//!   Chase–Lev-style deque (owner LIFO at the bottom, thieves FIFO at
//!   the top); the mutex-guarded injector is only the submission
//!   channel for non-worker threads and the overflow for full deques.
//!   Steal and overflow counts are observable per pool
//!   ([`Pool::steals`], [`Pool::deque_overflows`]) and exportable as
//!   `ft_exec_steals_total` / `ft_exec_deque_overflow_total` via
//!   [`register_metrics`].

mod metrics;
mod pool;

pub use metrics::register_metrics;
#[doc(hidden)]
pub use pool::set_dispatch_delay_for_tests;
pub use pool::Pool;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker budget: `FT_EXEC_THREADS` if set, else available parallelism,
/// capped at 32 (the solvers' rows don't benefit beyond that).
pub fn available_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    // ORDERING: Relaxed is enough for a write-once value cache — every
    // racing writer computes the same figure from the same env/machine,
    // so readers need the value itself, not any ordering around it.
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("FT_EXEC_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
        .min(32);
    // ORDERING: Relaxed — see the load above; duplicate stores write
    // the same value.
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Resolve a requested thread count: `0` means "use the machine budget".
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested.min(32)
    }
}

/// Current thread count of this process, from `/proc/self/status`
/// (`None` off Linux or if unreadable). The observability hook behind
/// the pool's thread-stability guarantee: warm the pool, read this,
/// dispatch repeatedly, read again — the count must not grow
/// (`ft-server`'s flood test and the workspace `exec_pool` test
/// assert exactly that).
pub fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Run two closures, possibly in parallel, and return both results —
/// the fork-join primitive behind the divide-and-conquer solver path.
/// Dispatches on the global [`Pool`] (steal-back join: the second
/// closure is offered to the pool and reclaimed by the caller if no
/// worker has started it — see [`Pool::join`]).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    // Recorded on the calling thread: a traced solve shows its fork-join
    // structure even though pool workers carry no trace context.
    let _span = ft_trace::span("exec.pool.join");
    Pool::global().join(a, b)
}

/// Run `f` as one executor region under the `exec.pool.dispatch`
/// span. For callers that drive their own decomposition (the kernel's
/// monotone divide-and-conquer forks through [`join`] only when a
/// segment is large enough) this attributes the region to the executor
/// in a trace even when every fork ran inline.
pub fn region<R>(f: impl FnOnce() -> R) -> R {
    let _span = ft_trace::span("exec.pool.dispatch");
    f()
}

/// Split `data` into at most `threads` contiguous chunks of at least
/// `grain` elements and run `f(start_index, chunk)` on each, on the
/// global [`Pool`].
///
/// Falls back to one inline call when the input is below the grain or
/// only one thread is available. `f` must treat elements independently —
/// chunk boundaries are a performance decision, not a semantic one.
pub fn par_chunks_mut<T, F>(data: &mut [T], grain: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    Pool::global().par_chunks_mut(data, grain, threads, f)
}

/// Like [`par_chunks_mut`] over two equal-length slices chunked in
/// lockstep — the solver kernel writes a value row and a policy row for
/// the same states in one pass.
pub fn par_chunks2_mut<A, B, F>(a: &mut [A], b: &mut [B], grain: usize, threads: usize, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    Pool::global().par_chunks2_mut(a, b, grain, threads, f)
}

/// A raw pointer that may cross threads. Soundness is argued at each
/// use site: the chunk decomposition hands every element to exactly one
/// job, and the dispatch blocks until all jobs finish.
struct SendPtr<T>(*mut T);
// Manual impls: the derive would demand `T: Copy`, but copying the
// *pointer* never copies the pointee.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: `SendPtr` only crosses threads inside the dispatch protocol,
// which hands each worker a disjoint chunk of the pointee (`T: Send`)
// and joins every job before the borrow ends — the pointer is shared,
// the pointees are not.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the
    /// whole `Send + Sync` wrapper, not the raw pointer field.
    fn get(self) -> *mut T {
        self.0
    }
}

/// The shared chunk decomposition: `None` means "run inline" (input
/// below grain or one thread); otherwise the chunk length such that
/// chunks are contiguous, at least `grain` long, and at most `threads`
/// many — identical to the serial loop's element order.
fn chunk_len_for(len: usize, grain: usize, threads: usize) -> Option<usize> {
    if threads <= 1 || len <= grain.max(1) {
        return None;
    }
    let n_chunks = threads.min(len.div_ceil(grain.max(1)));
    Some(len.div_ceil(n_chunks))
}

impl Pool {
    /// Resolve a requested thread count against **this pool**: `0`
    /// means "use this pool's parallelism" (`workers() + 1`), so an
    /// explicitly sized `Pool::new(8)` decomposes for 8 threads even
    /// when the global `FT_EXEC_THREADS`/machine budget says otherwise.
    /// For [`Pool::global`] this coincides with [`resolve_threads`].
    fn resolve_own_threads(&self, requested: usize) -> usize {
        if requested == 0 {
            self.workers() + 1
        } else {
            requested.min(32)
        }
    }

    /// [`par_chunks_mut`] on this specific pool.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], grain: usize, threads: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        // The span brackets the whole region — fan-out through
        // join-back, or the inline fallback: "ran on the caller" is a
        // dispatch decision worth seeing in a trace too.
        let _span = ft_trace::span("exec.pool.dispatch");
        let threads = self.resolve_own_threads(threads);
        let len = data.len();
        let Some(chunk_len) = chunk_len_for(len, grain, threads) else {
            f(0, data);
            return;
        };
        let base = SendPtr(data.as_mut_ptr());
        self.for_each(len.div_ceil(chunk_len), |i| {
            let start = i * chunk_len;
            let end = (start + chunk_len).min(len);
            // SAFETY: chunks are disjoint and each index is claimed
            // exactly once; the dispatch outlives every job.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
            f(start, chunk);
        });
    }

    /// [`par_chunks2_mut`] on this specific pool.
    pub fn par_chunks2_mut<A, B, F>(
        &self,
        a: &mut [A],
        b: &mut [B],
        grain: usize,
        threads: usize,
        f: F,
    ) where
        A: Send,
        B: Send,
        F: Fn(usize, &mut [A], &mut [B]) + Sync,
    {
        // Same bracketing as `par_chunks_mut`.
        let _span = ft_trace::span("exec.pool.dispatch");
        assert_eq!(a.len(), b.len(), "lockstep slices must match");
        let threads = self.resolve_own_threads(threads);
        let len = a.len();
        let Some(chunk_len) = chunk_len_for(len, grain, threads) else {
            f(0, a, b);
            return;
        };
        let base_a = SendPtr(a.as_mut_ptr());
        let base_b = SendPtr(b.as_mut_ptr());
        self.for_each(len.div_ceil(chunk_len), |i| {
            let start = i * chunk_len;
            let end = (start + chunk_len).min(len);
            // SAFETY: as in `par_chunks_mut`, for both slices in lockstep.
            let (ca, cb) = unsafe {
                (
                    std::slice::from_raw_parts_mut(base_a.get().add(start), end - start),
                    std::slice::from_raw_parts_mut(base_b.get().add(start), end - start),
                )
            };
            f(start, ca, cb);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn par_chunks_matches_serial() {
        let mut parallel: Vec<u64> = (0..10_000).collect();
        let mut serial = parallel.clone();
        par_chunks_mut(&mut parallel, 64, 8, |start, chunk| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = ((start + j) as u64).wrapping_mul(2654435761);
            }
        });
        for (i, x) in serial.iter_mut().enumerate() {
            *x = (i as u64).wrapping_mul(2654435761);
        }
        assert_eq!(parallel, serial);
    }

    #[test]
    fn par_chunks2_lockstep_offsets_agree() {
        let n = 5000;
        let mut vals = vec![0f64; n];
        let mut idxs = vec![0u32; n];
        par_chunks2_mut(&mut vals, &mut idxs, 16, 0, |start, va, ia| {
            for j in 0..va.len() {
                va[j] = (start + j) as f64;
                ia[j] = (start + j) as u32;
            }
        });
        for i in 0..n {
            assert_eq!(vals[i], i as f64);
            assert_eq!(idxs[i], i as u32);
        }
    }

    #[test]
    fn small_inputs_run_inline() {
        let mut data = vec![1u8; 3];
        par_chunks_mut(&mut data, 64, 8, |start, chunk| {
            assert_eq!(start, 0);
            assert_eq!(chunk.len(), 3);
            chunk.iter_mut().for_each(|x| *x = 2);
        });
        assert_eq!(data, vec![2, 2, 2]);
    }

    #[test]
    fn resolve_threads_semantics() {
        assert!(available_threads() >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(0), available_threads());
    }

    #[test]
    fn owned_pool_decomposes_by_its_own_size() {
        // An explicitly sized pool must not be silently capped by the
        // global FT_EXEC_THREADS/machine budget: threads = 0 resolves
        // to *this* pool's parallelism.
        let pool = Pool::new(4);
        let starts = std::sync::Mutex::new(Vec::new());
        let mut data = vec![0u8; 100];
        pool.par_chunks_mut(&mut data, 1, 0, |start, _chunk| {
            starts.lock().unwrap().push(start);
        });
        let mut starts = starts.into_inner().unwrap();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 25, 50, 75]);
    }

    #[test]
    fn chunk_decomposition_is_stable() {
        // The decomposition is part of the determinism contract: it
        // must depend only on (len, grain, threads), never on pool
        // occupancy.
        assert_eq!(chunk_len_for(100, 200, 8), None);
        assert_eq!(chunk_len_for(100, 10, 1), None);
        assert_eq!(chunk_len_for(100, 10, 4), Some(25));
        assert_eq!(chunk_len_for(100, 30, 8), Some(25)); // grain-limited: 4 chunks
        assert_eq!(chunk_len_for(7, 1, 3), Some(3));
    }
}
