//! The persistent worker pool behind every `ft-exec` dispatch.
//!
//! The first parallel region used to pay a full `std::thread` spawn and
//! join per chunk — and the solver kernel opens one parallel region *per
//! induction layer*, so a 24-layer solve paid 24 rounds of spawn/join.
//! The pool spawns its workers **once**, lazily, and parks them on a
//! condvar; a dispatch is then an `Arc` allocation, a queue push and (at
//! most) a wakeup.
//!
//! ## Queueing model: one injector
//!
//! Every job a dispatcher publishes goes onto one mutex-guarded FIFO,
//! the **injector**, whichever thread publishes it: the main thread, a
//! server handler, or a pool worker whose chunk forks again (the
//! kernel's monotone divide nests joins). Workers pop from its front
//! and park on its condvar when it is empty. The push happens under the
//! same mutex the parked workers re-check the queue under, so no wakeup
//! is lost.
//!
//! ## Dispatch model
//!
//! Two primitives cover every caller:
//!
//! - **Fan-out** ([`Pool::for_each`]): `n` independent index jobs. The
//!   caller publishes up to `workers` handles to one shared [`Batch`],
//!   then *participates*, claiming indices from an atomic counter
//!   alongside any workers that picked the batch up. Idle workers help;
//!   busy workers are not waited for. The caller blocks only until
//!   every claimed index has finished.
//! - **Steal-back join** ([`Pool::join`]): `b` is published to the
//!   injector, `a` runs on the caller. When `a` finishes the caller
//!   races the pool with a CAS: whoever claims `b` runs it, so the
//!   caller never blocks on work nobody has started — the only thing
//!   ever waited on is a job actively running on another thread.
//!
//! Both primitives may be invoked from *inside* a pooled job. Nesting
//! cannot deadlock: every blocked dispatcher first exhausts the work it
//! is waiting for, so any wait is on a job currently executing, and the
//! wait graph bottoms out at a running leaf.
//!
//! ## Determinism and panics
//!
//! The pool changes **where** a job runs, never **what** runs: the
//! chunk decomposition is a pure function of `(len, grain, threads)`
//! (see `chunk_len_for`), fan-out indices are claimed from one shared
//! counter whichever thread does the claiming, and jobs are
//! data-disjoint by API contract — so results are bitwise identical to
//! the serial loop at any thread count, whichever thread ran each job
//! (pinned by the forced hand-off fingerprint tests in `ft-core`). If
//! jobs panic, the propagated payload is deterministic too: the
//! **lowest-indexed** failing job's payload for a fan-out (the one the
//! serial loop would have hit first), and `a`-before-`b` for a join —
//! even when the panicking branch ran on a worker. A fan-out
//! short-circuits like the serial loop: once an index has panicked,
//! higher indices claimed afterwards are skipped. A panic is caught on
//! the worker, recorded, and re-raised on the dispatching thread
//! **after** the region completes — workers survive, the pool is never
//! poisoned.
//!
//! ## Safety
//!
//! Jobs reference the dispatcher's stack through lifetime-erased raw
//! pointers. The erasure is sound because a dispatch does not return
//! (or unwind) until every claimed job has finished, and unclaimed
//! handles left in the injector only touch the `Arc`-owned control
//! block — a worker that pops a stale handle sees the batch exhausted
//! (or the join cell claimed) and drops it without dereferencing the
//! task.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Upper bound on pool threads (matches `resolve_threads`' cap).
const MAX_THREADS: usize = 32;

/// A queued unit of work. `run` must never unwind — implementations
/// catch panics and surrender them to the dispatcher.
trait PoolJob: Send + Sync {
    fn run(&self);
}

/// The injector: every published job, and the shutdown flag's home.
struct Injector {
    jobs: VecDeque<Arc<dyn PoolJob>>,
    shutdown: bool,
}

struct Shared {
    injector: Mutex<Injector>,
    work_available: Condvar,
}

/// Dispatcher patience in nanoseconds — the slow-dispatcher test
/// harness. A non-zero value makes every dispatcher wait between
/// publishing work and racing to run it (fan-out: before claiming
/// indices; join: before the steal-back CAS) until a worker has claimed
/// the published job, or until this long has passed. A worker that the
/// host schedules late still gets there first, so a test that sets a
/// patience far above any scheduling delay sees a worker claim the job
/// every time. Scheduling perturbation only: results must be bitwise
/// identical with it on, which is exactly what the forced hand-off
/// fingerprint tests assert.
static DISPATCH_DELAY_NS: AtomicU64 = AtomicU64::new(0);

/// Test-only global knob; see [`DISPATCH_DELAY_NS`]. Not part of the
/// public API contract.
#[doc(hidden)]
pub fn set_dispatch_delay_for_tests(nanos: u64) {
    // ORDERING: Relaxed — a test knob carrying no data but itself.
    DISPATCH_DELAY_NS.store(nanos, Ordering::Relaxed);
}

/// Wait out the test knob's patience, or less once `claimed()` says a
/// worker claimed the published job.
#[inline]
fn dispatch_delay(claimed: impl Fn() -> bool) {
    // ORDERING: Relaxed — see `set_dispatch_delay_for_tests`.
    let ns = DISPATCH_DELAY_NS.load(Ordering::Relaxed);
    if ns == 0 {
        return;
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_nanos(ns);
    while !claimed() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_micros(20));
    }
}

impl Shared {
    /// Push to the injector and wake one worker. The push happens under
    /// the injector mutex — the same mutex parked workers re-check the
    /// queue under — so no wakeup can be lost.
    fn inject(&self, job: Arc<dyn PoolJob>) {
        let mut q = self.injector.lock().expect("ft-exec injector poisoned");
        q.jobs.push_back(job);
        drop(q);
        self.work_available.notify_one();
    }
}

/// A persistent set of parked worker threads with scoped job dispatch.
///
/// Every dispatch, from any thread, publishes its jobs to one
/// mutex-guarded injector queue; workers pop from its front and park
/// on its condvar while it is empty.
///
/// [`Pool::global`] is the process-wide pool every free function in
/// this crate dispatches to; embedders that want explicit scoping (a
/// dedicated pool per tenant, a bounded pool in a test) can own one via
/// [`Pool::new`] — its workers are joined when the handle drops.
pub struct Pool {
    shared: Arc<Shared>,
    workers: usize,
    /// Join handles for owned pools; empty for the global pool (its
    /// workers are detached — the pool lives for the whole process).
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Build a pool with `threads` total parallelism: the dispatching
    /// thread plus `threads − 1` parked workers. `threads <= 1` builds
    /// a pool with no workers at all — every dispatch runs inline,
    /// which is the deterministic serial baseline.
    pub fn new(threads: usize) -> Self {
        let workers = threads.clamp(1, MAX_THREADS) - 1;
        let shared = Arc::new(Shared {
            injector: Mutex::new(Injector {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ft-exec-{i}"))
                    .spawn(move || run_worker(&shared))
                    .expect("ft-exec: failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            handles,
        }
    }

    /// The lazily-initialized process-wide pool, sized from
    /// [`crate::available_threads`] (so `FT_EXEC_THREADS` governs it).
    /// First use spawns the workers; every later dispatch reuses them.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let mut pool = Pool::new(crate::available_threads());
            // The global pool is never dropped; detach the workers so
            // the handles don't sit in a static for no reason.
            pool.handles = Vec::new();
            pool
        })
    }

    /// Parked worker threads owned by this pool (total parallelism is
    /// `workers() + 1`: the dispatching thread participates).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f(i)` for every `i` in `0..n`, in parallel with the pool's
    /// workers. Blocks until all `n` calls have finished; panics are
    /// re-raised here (lowest index wins) after the region completes.
    pub fn for_each<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.fan_out(n, &f);
    }

    fn fan_out(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if self.workers == 0 || n == 1 {
            // Serial baseline: run inline, panics flow straight out —
            // exactly the plain loop.
            for i in 0..n {
                f(i);
            }
            return;
        }
        let raw = f as *const (dyn Fn(usize) + Sync);
        // SAFETY: the erased closure outlives the batch — fan_out does
        // not return (or unwind) until `finished == n`, and stale queue
        // handles never dereference `task` (module docs).
        let task = RawTask(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(raw)
        });
        let batch = Arc::new(Batch {
            task,
            n,
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            first_panic: AtomicUsize::new(usize::MAX),
            panic: Mutex::new(None),
            complete: Mutex::new(false),
            completed: Condvar::new(),
        });
        // One handle per worker that could usefully help; the caller
        // takes the place of the remaining chunk.
        let helpers = self.workers.min(n - 1);
        for _ in 0..helpers {
            self.shared.inject(Arc::clone(&batch) as Arc<dyn PoolJob>);
        }
        // ORDERING: Relaxed — a hint to stop waiting; the index
        // dispenser itself hands each index out once.
        dispatch_delay(|| batch.next.load(Ordering::Relaxed) > 0);
        batch.work();
        let mut done = batch.complete.lock().expect("ft-exec batch poisoned");
        while !*done {
            done = batch.completed.wait(done).expect("ft-exec batch poisoned");
        }
        drop(done);
        let panic = batch.take_panic();
        if let Some((_, payload)) = panic {
            resume_unwind(payload);
        }
    }

    /// Run two closures, possibly in parallel, and return both results.
    ///
    /// `b` is offered to the pool while `a` runs on the caller; if no
    /// worker has picked `b` up by the time `a` finishes, the caller
    /// steals it back and runs it inline — so `join` never blocks on
    /// unstarted work, which is what makes nesting deadlock-free.
    ///
    /// Panic order is serial: a panic in `a` is re-raised first (and if
    /// `b` was never claimed, `b` does not run at all, exactly like the
    /// serial `a(); b()` sequence).
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if self.workers == 0 {
            let ra = a();
            let rb = b();
            return (ra, rb);
        }
        let mut b_slot = Some(b);
        let mut rb_slot: Option<RB> = None;
        let mut call_b = || {
            rb_slot = Some((b_slot.take().expect("ft-exec: join task ran twice"))());
        };
        let raw = &mut call_b as &mut (dyn FnMut() + Send) as *mut (dyn FnMut() + Send);
        // SAFETY: same argument as fan_out — `join` does not return (or
        // unwind) before the cell is either claimed by the caller or
        // observed complete, and only the claimant dereferences `task`.
        let task = RawMutTask(unsafe {
            std::mem::transmute::<*mut (dyn FnMut() + Send), *mut (dyn FnMut() + Send + 'static)>(
                raw,
            )
        });
        let cell = Arc::new(JoinCell {
            task,
            claimed: AtomicBool::new(false),
            panic: Mutex::new(None),
            complete: Mutex::new(false),
            completed: Condvar::new(),
        });
        self.shared.inject(Arc::clone(&cell) as Arc<dyn PoolJob>);

        let ra = catch_unwind(AssertUnwindSafe(a));
        // ORDERING: Relaxed — a hint to stop waiting; the swap below
        // arbitrates the claim.
        dispatch_delay(|| cell.claimed.load(Ordering::Relaxed));
        // ORDERING: AcqRel pairs with the identical swap in
        // `JoinCell::run` — exactly one side wins the claim, and the
        // winner's subsequent access to the task/result slots must not
        // be reordered before the swap that granted exclusivity.
        if !cell.claimed.swap(true, Ordering::AcqRel) {
            // Steal-back: nobody started `b`; it is ours now, and any
            // worker that later pops the stale handle drops it.
            match ra {
                Ok(ra) => {
                    call_b();
                    let rb = rb_slot
                        .take()
                        .expect("ft-exec: stolen join task left no result");
                    (ra, rb)
                }
                // Serial semantics: `a` panicked, `b` never ran.
                Err(payload) => resume_unwind(payload),
            }
        } else {
            // A worker owns `b`; wait for it to finish.
            let mut done = cell.complete.lock().expect("ft-exec join poisoned");
            while !*done {
                done = cell.completed.wait(done).expect("ft-exec join poisoned");
            }
            drop(done);
            let b_panic = cell.take_panic();
            match ra {
                Err(payload) => resume_unwind(payload),
                Ok(ra) => match b_panic {
                    Some(payload) => resume_unwind(payload),
                    None => {
                        let rb = rb_slot
                            .take()
                            .expect("ft-exec: pooled join task left no result");
                        (ra, rb)
                    }
                },
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.shared
            .injector
            .lock()
            .expect("ft-exec injector poisoned")
            .shutdown = true;
        self.shared.work_available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn run_worker(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.injector.lock().expect("ft-exec injector poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared
                    .work_available
                    .wait(q)
                    .expect("ft-exec injector poisoned");
            }
        };
        // `run` never unwinds (panics are captured into the batch or
        // cell), so a panicking job cannot kill the worker.
        job.run();
    }
}

// ---- fan-out batch ---------------------------------------------------

/// Lifetime-erased `&(dyn Fn(usize) + Sync)`.
struct RawTask(*const (dyn Fn(usize) + Sync + 'static));
// SAFETY: the pointee is `Sync` (shared calls from any thread are fine)
// and the dispatch protocol guarantees it outlives every dereference.
unsafe impl Send for RawTask {}
unsafe impl Sync for RawTask {}

type PanicPayload = Box<dyn Any + Send>;

struct Batch {
    task: RawTask,
    n: usize,
    /// Next unclaimed index.
    next: AtomicUsize,
    /// Indices fully finished (task returned, panicked, or was skipped
    /// after the batch was poisoned).
    finished: AtomicUsize,
    /// Lowest index that has panicked so far (`usize::MAX` = none).
    /// Indices **above** it are skipped, approximating the serial
    /// loop's stop-at-first-panic; indices below it still run — the
    /// serial loop would have reached them first, and one of them may
    /// be the true first failure.
    first_panic: AtomicUsize,
    /// Lowest-indexed captured panic (payload for `first_panic`).
    panic: Mutex<Option<(usize, PanicPayload)>>,
    complete: Mutex<bool>,
    completed: Condvar,
}

impl Batch {
    /// Claim and run indices until the batch is exhausted. Called by
    /// the dispatcher and by any worker that popped a handle — which
    /// thread claims an index is invisible to the result, because the
    /// index dispenser is this one shared counter.
    fn work(&self) {
        loop {
            // ORDERING: Relaxed — `next` is only an index dispenser;
            // each value is handed out once and nothing is published
            // through it (task results flow through `panic`/`finished`).
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            // Short-circuit after a panic: skip indices above the
            // lowest failure seen so far (the serial loop would never
            // reach them), but still run indices below it — one of
            // them may be the true first failure, which keeps the
            // propagated payload deterministic regardless of timing.
            if i < self.first_panic.load(Ordering::Acquire) {
                // SAFETY: `i < n` is claimed exactly once, and the
                // dispatch has not returned (it waits for
                // `finished == n`).
                let task = unsafe { &*self.task.0 };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                    let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                    match &*slot {
                        Some((first, _)) if *first < i => {}
                        _ => *slot = Some((i, payload)),
                    }
                    self.first_panic.fetch_min(i, Ordering::AcqRel);
                }
            }
            // AcqRel chains every participant's writes into the final
            // increment, which publishes them to the dispatcher through
            // the completion mutex.
            if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                *self.complete.lock().expect("ft-exec batch poisoned") = true;
                self.completed.notify_all();
            }
        }
    }

    fn take_panic(&self) -> Option<(usize, PanicPayload)> {
        self.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

impl PoolJob for Batch {
    fn run(&self) {
        self.work();
    }
}

// ---- steal-back join cell --------------------------------------------

/// Lifetime-erased `&mut (dyn FnMut() + Send)`.
struct RawMutTask(*mut (dyn FnMut() + Send + 'static));
// SAFETY: exclusive access is arbitrated by `JoinCell::claimed`; the
// pointee is `Send` and outlives every dereference (dispatch protocol).
unsafe impl Send for RawMutTask {}
unsafe impl Sync for RawMutTask {}

struct JoinCell {
    task: RawMutTask,
    claimed: AtomicBool,
    panic: Mutex<Option<PanicPayload>>,
    complete: Mutex<bool>,
    completed: Condvar,
}

impl JoinCell {
    fn take_panic(&self) -> Option<PanicPayload> {
        self.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

impl PoolJob for JoinCell {
    fn run(&self) {
        // ORDERING: AcqRel pairs with the steal-back swap in `join` —
        // the loser of the race must see it lost, and the winner's
        // later use of the `RawMutTask` pointee must stay after the
        // claim that made it exclusive.
        if self.claimed.swap(true, Ordering::AcqRel) {
            return; // stolen back (or already run) — stale handle
        }
        // SAFETY: the CAS gave us exclusive access to the task.
        let task = unsafe { &mut *self.task.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            *self.panic.lock().unwrap_or_else(|e| e.into_inner()) = Some(payload);
        }
        *self.complete.lock().expect("ft-exec join poisoned") = true;
        self.completed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that toggle the process-global dispatch-delay knob
    /// serialize on this lock so they don't perturb each other.
    static DELAY_KNOB: Mutex<()> = Mutex::new(());

    #[test]
    fn owned_pool_runs_every_index_once() {
        let pool = Pool::new(4);
        assert_eq!(pool.workers(), 3);
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        pool.for_each(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn zero_worker_pool_is_serial() {
        let pool = Pool::new(1);
        assert_eq!(pool.workers(), 0);
        let mut order = Vec::new();
        let cell = Mutex::new(&mut order);
        pool.for_each(5, |i| cell.lock().unwrap().push(i));
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn join_steals_back_or_waits() {
        let pool = Pool::new(2);
        for _ in 0..100 {
            let (a, b) = pool.join(|| 1 + 1, || "b");
            assert_eq!((a, b), (2, "b"));
        }
    }

    #[test]
    fn nested_joins_terminate() {
        fn fib(pool: &Pool, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = pool.join(|| fib(pool, n - 1), || fib(pool, n - 2));
            a + b
        }
        let pool = Pool::new(4);
        assert_eq!(fib(&pool, 16), 987);
    }

    #[test]
    fn fan_out_propagates_lowest_index_panic() {
        let pool = Pool::new(4);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each(64, |i| {
                if i % 7 == 3 {
                    panic!("boom at {i}");
                }
            });
        }))
        .unwrap_err();
        let message = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(message, "boom at 3");
        // The pool is not poisoned: the next dispatch works.
        let count = AtomicUsize::new(0);
        pool.for_each(32, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn join_panic_order_is_serial() {
        let pool = Pool::new(2);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.join(
                || -> u32 { panic!("a first") },
                || -> u32 { panic!("b second") },
            )
        }))
        .unwrap_err();
        let message = err.downcast_ref::<&'static str>().expect("str payload");
        assert_eq!(*message, "a first");
        // Reusable afterwards.
        assert_eq!(pool.join(|| 3, || 4), (3, 4));
    }

    /// A join whose dispatcher dawdles has its `b` branch claimed and
    /// run by a worker, and the result is still correct.
    #[test]
    fn forced_steal_executes_join_branch_on_thief() {
        let _knob = DELAY_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let pool = Pool::new(2);
        let test_thread = std::thread::current().id();
        // Patience far above any scheduling delay: the dispatcher waits
        // until a worker has claimed `b`.
        set_dispatch_delay_for_tests(10_000_000_000);
        let out = pool.join(
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        set_dispatch_delay_for_tests(0);
        assert_eq!(out.0, test_thread, "join branch a runs on the caller");
        assert_ne!(out.1, test_thread, "join branch b should run on a worker");
    }

    /// A panic raised in a join branch that a worker ran propagates to
    /// the dispatcher with the exact payload and serial ordering.
    #[test]
    fn thief_executed_panic_propagates_deterministically() {
        let _knob = DELAY_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let pool = Pool::new(2);
        let test_thread = std::thread::current().id();
        let b_thread = Mutex::new(None);
        set_dispatch_delay_for_tests(10_000_000_000);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.join(
                || 40 + 2, // `a` succeeds on the dispatcher
                || -> u32 {
                    *b_thread.lock().unwrap() = Some(std::thread::current().id());
                    panic!("stolen branch boom")
                },
            )
        }))
        .unwrap_err();
        set_dispatch_delay_for_tests(0);
        let message = err.downcast_ref::<&'static str>().expect("str payload");
        assert_eq!(*message, "stolen branch boom");
        let b_thread = b_thread.into_inner().unwrap().expect("b ran");
        assert_ne!(
            b_thread, test_thread,
            "the panicking branch should run on a worker"
        );
        // Pool unharmed.
        assert_eq!(pool.join(|| 1, || 2), (1, 2));
    }

    /// The fan-out twin: a dawdling dispatcher leaves at least one
    /// index to a worker, and every index still runs exactly once.
    #[test]
    fn forced_hand_off_runs_a_fan_out_index_on_a_worker() {
        let _knob = DELAY_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let pool = Pool::new(2);
        let test_thread = std::thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        set_dispatch_delay_for_tests(10_000_000_000);
        pool.for_each(8, |i| {
            ran_on
                .lock()
                .unwrap()
                .push((i, std::thread::current().id()));
        });
        set_dispatch_delay_for_tests(0);
        let mut ran_on = ran_on.into_inner().unwrap();
        ran_on.sort_by_key(|&(i, _)| i);
        let indices: Vec<usize> = ran_on.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..8).collect::<Vec<_>>());
        assert!(
            ran_on.iter().any(|&(_, thread)| thread != test_thread),
            "no fan-out index ran on a worker"
        );
    }
}
