//! The persistent work-stealing pool behind every `ft-exec` dispatch.
//!
//! The first parallel region used to pay a full `std::thread` spawn and
//! join per chunk — and the solver kernel opens one parallel region *per
//! induction layer*, so a 24-layer solve paid 24 rounds of spawn/join.
//! The pool spawns its workers **once**, lazily, and parks them on a
//! condvar; a dispatch is then an `Arc` allocation, a lock-free deque
//! push and (at most) a wakeup.
//!
//! ## Queueing model: per-worker deques + an injector
//!
//! Since this PR each worker owns a fixed-capacity **Chase–Lev-style
//! deque**: the owner pushes and pops at the *bottom* (LIFO, newest
//! first — the cache-hot end), while idle workers *steal* from the
//! *top* (FIFO, oldest first). A job published from inside a pooled job
//! (the kernel's monotone divide nests joins; a worker's chunk may fan
//! out again) goes straight onto the publishing worker's own deque with
//! two atomic stores — no lock, no contention with the other workers'
//! dispatches.
//!
//! The old mutex-guarded queue survives as the **injector**: the
//! submission channel for threads that are not pool workers (the main
//! thread, server handlers) and the overflow channel for the rare deque
//! that fills up (`ft_exec_deque_overflow_total` counts those). Workers
//! look for work in a fixed order — own deque (LIFO), injector, then a
//! steal sweep over the other deques — and only park when all three
//! come up empty.
//!
//! ### Deque lifecycle and the steal protocol
//!
//! Each deque is a power-of-two ring of `AtomicPtr` slots indexed by two
//! monotonically increasing `u64` counters, `top` (next index to steal)
//! and `bottom` (next index to push). Only the owner writes `bottom`;
//! thieves advance `top` by CAS. A push stores the job pointer into
//! `slots[bottom & mask]` and then publishes it with the `bottom`
//! increment; a steal reads `top`, then `bottom`, then the slot, and
//! claims it by CAS on `top`. The owner's pop reserves the bottom slot
//! by decrementing `bottom` *before* re-reading `top` (a store-load
//! ordering both sides enforce with `SeqCst`, Dekker-style), so the
//! owner and a thief can only race on the *last* element — and that
//! race is settled by a single CAS on `top` that exactly one side wins.
//! Slot reuse is safe for the same reason growth is unnecessary: a push
//! may only overwrite slot `i & mask` after `top` has advanced past
//! `i`, which the thief's claiming CAS makes visible to the owner's
//! full-check. Every popped or stolen pointer is boxed exactly once and
//! freed exactly once (pop, steal, or the owner's shutdown drain).
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
//! - **Steal-back join** ([`Pool::join`]): `b` is published (to the
//!   caller's own deque if the caller is a worker, else to the
//!   injector), `a` runs on the caller. When `a` finishes the caller
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
//! Work-stealing changes **where** a job runs, never **what** runs: the
//! chunk decomposition is a pure function of `(len, grain, threads)`
//! (see `chunk_len_for`), fan-out indices are claimed from one shared
//! counter whichever thread does the claiming, and jobs are
//! data-disjoint by API contract — so results are bitwise identical to
//! the serial loop at any thread count, steals or no steals (pinned by
//! the forced-steal fingerprint tests in `ft-core`). If jobs panic, the
//! propagated payload is deterministic too: the **lowest-indexed**
//! failing job's payload for a fan-out (the one the serial loop would
//! have hit first), and `a`-before-`b` for a join — even when the
//! panicking branch was executed by a thief. A fan-out short-circuits
//! like the serial loop: once an index has panicked, higher indices
//! claimed afterwards are skipped. A panic is caught on the worker,
//! recorded, and re-raised on the dispatching thread **after** the
//! region completes — workers survive, the pool is never poisoned.
//!
//! ## Safety
//!
//! Jobs reference the dispatcher's stack through lifetime-erased raw
//! pointers. The erasure is sound because a dispatch does not return
//! (or unwind) until every claimed job has finished, and unclaimed
//! handles left in a deque or the injector only touch the `Arc`-owned
//! control block — a worker that pops a stale handle sees the batch
//! exhausted (or the join cell claimed) and drops it without
//! dereferencing the task.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Upper bound on pool threads (matches `resolve_threads`' cap).
const MAX_THREADS: usize = 32;

/// Slots per worker deque. Power of two so the ring index is a mask.
/// Depth is bounded in practice by nesting depth (a fan-out publishes at
/// most `workers` handles; a join one cell), so 256 is generous — a full
/// deque overflows to the injector rather than growing.
const DEQUE_CAP: usize = 256;
const DEQUE_MASK: u64 = DEQUE_CAP as u64 - 1;

/// A queued unit of work. `run` must never unwind — implementations
/// catch panics and surrender them to the dispatcher.
trait PoolJob: Send + Sync {
    fn run(&self);
}

/// Outcome of one steal attempt.
enum StealResult {
    /// The deque looked empty.
    Empty,
    /// Lost a race (another thief or the owner claimed concurrently);
    /// worth retrying the sweep.
    Retry,
    /// Got one.
    Taken(Arc<dyn PoolJob>),
}

/// One worker's Chase–Lev-style deque (see module docs for the
/// protocol). Indices are monotone `u64`s, so wraparound is a
/// non-issue; the ring index is `counter & DEQUE_MASK`.
struct Deque {
    /// Next index to steal. Thieves advance it by CAS; the owner's pop
    /// CASes it too, but only for the final element.
    top: AtomicU64,
    /// Next index to push. Written by the owner only; read by thieves.
    bottom: AtomicU64,
    /// Job slots. Each non-garbage pointer is a `Box<Arc<dyn PoolJob>>`
    /// (boxed so the fat `Arc` travels behind one thin pointer).
    slots: Box<[AtomicPtr<Arc<dyn PoolJob>>]>,
}

impl Deque {
    fn new() -> Self {
        Self {
            top: AtomicU64::new(0),
            bottom: AtomicU64::new(0),
            slots: (0..DEQUE_CAP)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        }
    }

    /// Owner-only push at the bottom. `Err` hands the job back when the
    /// ring is full (the caller overflows it to the injector).
    fn push(&self, job: Arc<dyn PoolJob>) -> Result<(), Arc<dyn PoolJob>> {
        // ORDERING: Relaxed — only the owner writes `bottom`, so its own
        // load needs no synchronization.
        let b = self.bottom.load(Ordering::Relaxed);
        // ORDERING: Acquire pairs with the thieves' claiming CAS on
        // `top`: observing an advanced `top` is what licenses reusing
        // slot `b & mask`, and the acquire makes the thief's slot read
        // happen-before our overwrite. A stale (smaller) `top` only
        // makes the full-check conservative — we overflow to the
        // injector instead of overwriting, which is always safe.
        let t = self.top.load(Ordering::Acquire);
        if b - t >= DEQUE_CAP as u64 {
            return Err(job);
        }
        let ptr = Box::into_raw(Box::new(job));
        // ORDERING: Relaxed — the slot write is published by the SeqCst
        // `bottom` store below; nobody reads slot `b` until they observe
        // `bottom > b`.
        self.slots[(b & DEQUE_MASK) as usize].store(ptr, Ordering::Relaxed);
        // ORDERING: SeqCst publishes the slot write (release half, read
        // by the thief's `bottom` acquire) *and* keeps the push in the
        // single total order that `take`'s Dekker-style store-load on
        // (`bottom`, `top`) relies on.
        self.bottom.store(b + 1, Ordering::SeqCst);
        Ok(())
    }

    /// Owner-only LIFO pop at the bottom.
    fn take(&self) -> Option<Arc<dyn PoolJob>> {
        // ORDERING: Relaxed — owner-private counter, see `push`.
        let b = self.bottom.load(Ordering::Relaxed);
        // ORDERING: Relaxed — fast-path emptiness check only: `top` is
        // monotone and never exceeds `bottom`, so a stale read can only
        // under-estimate it; `b == t` then implies truly empty, and any
        // other value falls through to the fenced re-check below.
        let t = self.top.load(Ordering::Relaxed);
        if b == t {
            return None;
        }
        let b = b - 1;
        // ORDERING: SeqCst — the reservation store must be ordered
        // *before* the `top` re-load below in the single total order
        // (Dekker): a thief orders its `top` CAS against its `bottom`
        // read the same way, so either we see the thief's claim or the
        // thief sees our reservation — both claiming the same slot is
        // impossible except through the final-element CAS.
        self.bottom.store(b, Ordering::SeqCst);
        // ORDERING: SeqCst — see the reservation store above.
        let t = self.top.load(Ordering::SeqCst);
        if t > b {
            // Thieves emptied the deque while we reserved; undo.
            // ORDERING: Relaxed — restoring to the empty state
            // (`bottom == top`) publishes no slot.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        // ORDERING: Relaxed — the owner wrote this slot itself.
        let ptr = self.slots[(b & DEQUE_MASK) as usize].load(Ordering::Relaxed);
        if t == b {
            // Last element: race any thief for it with one CAS on `top`.
            // ORDERING: SeqCst success pairs with the thieves' claiming
            // CAS — exactly one side advances `top` past the final
            // index; Relaxed failure is fine, losing publishes nothing.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            // ORDERING: Relaxed — either way the deque is now empty at
            // `b + 1 == top`; no slot is published by this store.
            self.bottom.store(b + 1, Ordering::Relaxed);
            if !won {
                return None;
            }
        }
        // SAFETY: the protocol above hands index `b` to exactly one
        // claimant (us), and the pointer was created by `Box::into_raw`
        // in `push`.
        Some(*unsafe { Box::from_raw(ptr) })
    }

    /// Thief-side FIFO steal from the top.
    fn steal(&self) -> StealResult {
        // ORDERING: SeqCst — the `top` read must precede the `bottom`
        // read in the single total order (mirror of `take`'s
        // store-load), so a non-empty observation is not a stale
        // illusion crossing the owner's reservation.
        let t = self.top.load(Ordering::SeqCst);
        // ORDERING: SeqCst — see above; also the acquire half pairs
        // with `push`'s `bottom` store, making the slot write for every
        // index below `bottom` visible before we read it.
        let b = self.bottom.load(Ordering::SeqCst);
        if t >= b {
            return StealResult::Empty;
        }
        // ORDERING: Relaxed — the slot write for index `t` is visible
        // via the acquire on `bottom` above; if the owner has since
        // overwritten the slot (possible only after `top` moved past
        // `t`), the CAS below fails and the value is discarded unread.
        let ptr = self.slots[(t & DEQUE_MASK) as usize].load(Ordering::Relaxed);
        // ORDERING: SeqCst success claims index `t` in the same total
        // order the owner's pop participates in; Relaxed failure — a
        // lost race publishes nothing.
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            // SAFETY: the successful CAS hands index `t` to us alone,
            // and the pointer came from `Box::into_raw` in `push`.
            StealResult::Taken(*unsafe { Box::from_raw(ptr) })
        } else {
            StealResult::Retry
        }
    }
}

impl Drop for Deque {
    fn drop(&mut self) {
        // Defensive: the owning worker drains on shutdown, so this is
        // normally empty — but leftover boxes must still be freed.
        while self.take().is_some() {}
    }
}

/// The injector: submission channel for non-worker threads, overflow
/// channel for full deques, and the shutdown flag's home.
struct Injector {
    jobs: VecDeque<Arc<dyn PoolJob>>,
    shutdown: bool,
}

struct Shared {
    injector: Mutex<Injector>,
    work_available: Condvar,
    /// One deque per worker, indexed by worker id.
    deques: Box<[Deque]>,
    /// Jobs currently sitting in worker deques (not the injector). The
    /// parking protocol's "is there anything to steal?" hint: a worker
    /// only parks after observing `pending == 0` *after* registering as
    /// a sleeper (see `run_worker` and `wake_one`).
    pending: AtomicU64,
    /// Workers currently parked (or committing to park) on the condvar.
    sleepers: AtomicUsize,
    /// Successful steals from worker deques, over the pool's lifetime.
    steals: AtomicU64,
    /// Deque-full overflows rerouted to the injector.
    overflows: AtomicU64,
}

thread_local! {
    /// `(Shared address, worker index)` of the pool this thread works
    /// for, if any — how a dispatch from inside a pooled job finds its
    /// own deque.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Dispatcher patience in nanoseconds — the slow-worker test harness.
/// A non-zero value makes every dispatcher wait between publishing
/// work and racing to run it (fan-out: before claiming indices; join:
/// before the steal-back CAS) until another worker has claimed the
/// published job, or until this long has passed. A thief that the
/// host schedules late still wins, so a test that sets a patience far
/// above any scheduling delay sees its steal every time. Scheduling
/// perturbation only: results must be bitwise identical with it on,
/// which is exactly what the forced-steal fingerprint tests assert.
static DISPATCH_DELAY_NS: AtomicU64 = AtomicU64::new(0);

/// Test-only global knob; see [`DISPATCH_DELAY_NS`]. Not part of the
/// public API contract.
#[doc(hidden)]
pub fn set_dispatch_delay_for_tests(nanos: u64) {
    // ORDERING: Relaxed — a test knob carrying no data but itself.
    DISPATCH_DELAY_NS.store(nanos, Ordering::Relaxed);
}

/// Wait out the test knob's patience, or less once `claimed()` says a
/// thief took the published job.
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
    /// Worker index of the current thread *on this pool*, if any.
    fn own_worker_index(self: &Arc<Self>) -> Option<usize> {
        let addr = Arc::as_ptr(self) as usize;
        WORKER.with(|w| match w.get() {
            Some((a, idx)) if a == addr => Some(idx),
            _ => None,
        })
    }

    /// Publish one job: the caller's own deque when the caller is a
    /// worker of this pool (lock-free fast path), else the injector;
    /// full deques overflow to the injector. Always leaves a wakeup
    /// behind so a parked worker can come claim it.
    fn submit(self: &Arc<Self>, job: Arc<dyn PoolJob>) {
        if let Some(idx) = self.own_worker_index() {
            match self.deques[idx].push(job) {
                Ok(()) => {
                    // ORDERING: SeqCst — the pending increment must
                    // precede the `sleepers` read in `wake_one` in the
                    // single total order; the parking side orders its
                    // `sleepers` increment before its `pending` read
                    // the same way (Dekker), so a parking worker and a
                    // publishing worker can never miss each other.
                    self.pending.fetch_add(1, Ordering::SeqCst);
                    self.wake_one();
                    return;
                }
                Err(job) => {
                    // ORDERING: Relaxed — a monotonic statistic; readers
                    // tolerate staleness.
                    self.overflows.fetch_add(1, Ordering::Relaxed);
                    crate::metrics::note_deque_overflow();
                    self.inject(job);
                    return;
                }
            }
        }
        self.inject(job);
    }

    /// Push to the injector and wake one worker. The push happens under
    /// the injector mutex — the same mutex parked workers re-check the
    /// queue under — so no wakeup can be lost.
    fn inject(&self, job: Arc<dyn PoolJob>) {
        let mut q = self.injector.lock().expect("ft-exec injector poisoned");
        q.jobs.push_back(job);
        drop(q);
        self.work_available.notify_one();
    }

    /// Wake one parked worker after a deque push, if anyone is parked.
    /// Taking (and immediately releasing) the injector mutex before
    /// notifying serializes with the park-side check-then-wait, so a
    /// worker that decided to sleep just before our `pending` increment
    /// is either still holding the mutex (we block until it actually
    /// waits) or already waiting (the notify lands).
    fn wake_one(&self) {
        // ORDERING: SeqCst — see the `pending` increment in `submit`.
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        drop(self.injector.lock().expect("ft-exec injector poisoned"));
        self.work_available.notify_one();
    }

    /// One steal sweep over every other worker's deque, starting just
    /// past `me` and wrapping. Retries while any victim reports a lost
    /// race; returns `None` only after a clean all-empty pass.
    fn steal_sweep(&self, me: usize) -> Option<Arc<dyn PoolJob>> {
        let n = self.deques.len();
        if n <= 1 {
            return None;
        }
        loop {
            let mut contended = false;
            for k in 1..n {
                let victim = (me + k) % n;
                match self.deques[victim].steal() {
                    StealResult::Taken(job) => {
                        // ORDERING: SeqCst — mirrors the increment in
                        // `submit` (the counter gates parking).
                        self.pending.fetch_sub(1, Ordering::SeqCst);
                        // ORDERING: Relaxed — monotonic statistic.
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        crate::metrics::note_steal();
                        return Some(job);
                    }
                    StealResult::Retry => contended = true,
                    StealResult::Empty => {}
                }
            }
            if !contended {
                return None;
            }
            std::thread::yield_now();
        }
    }
}

/// A persistent set of parked worker threads with scoped job dispatch.
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
            deques: (0..workers).map(|_| Deque::new()).collect(),
            pending: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            overflows: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ft-exec-{i}"))
                    .spawn(move || run_worker(&shared, i))
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

    /// Successful steals from this pool's worker deques since creation.
    pub fn steals(&self) -> u64 {
        // ORDERING: Relaxed — monotonic statistic, staleness is fine.
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Deque-full overflows rerouted to the injector since creation.
    pub fn deque_overflows(&self) -> u64 {
        // ORDERING: Relaxed — monotonic statistic, staleness is fine.
        self.shared.overflows.load(Ordering::Relaxed)
    }

    /// Run `f` **on a pool worker** (not the calling thread) and return
    /// its result; panics propagate to the caller. Falls back to an
    /// inline call when the pool has no workers. Test harness for
    /// exercising the worker-side dispatch paths (a job run this way
    /// publishes its nested work to a worker deque, where it can be
    /// stolen); not part of the public API contract.
    #[doc(hidden)]
    pub fn run_on_worker<R, F>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        if self.workers == 0 {
            return f();
        }
        let mut f_slot = Some(f);
        let mut r_slot: Option<R> = None;
        let mut call = || {
            r_slot = Some((f_slot.take().expect("ft-exec: probe ran twice"))());
        };
        let raw = &mut call as &mut (dyn FnMut() + Send) as *mut (dyn FnMut() + Send);
        // SAFETY: same protocol as `join` — we do not return (or
        // unwind) before the cell reports complete, and only the
        // claiming worker dereferences `task`.
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
        // Straight to the injector — the point is that a *worker* runs
        // it, so no steal-back race from this side.
        self.shared.inject(Arc::clone(&cell) as Arc<dyn PoolJob>);
        let mut done = cell.complete.lock().expect("ft-exec probe poisoned");
        while !*done {
            done = cell.completed.wait(done).expect("ft-exec probe poisoned");
        }
        drop(done);
        if let Some(payload) = cell.take_panic() {
            resume_unwind(payload);
        }
        r_slot.take().expect("ft-exec: probe left no result")
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
        // takes the place of the remaining chunk. From a worker these
        // land on its own deque (thieves claim them); from elsewhere
        // they go through the injector.
        let helpers = self.workers.min(n - 1);
        for _ in 0..helpers {
            self.shared.submit(Arc::clone(&batch) as Arc<dyn PoolJob>);
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
        self.shared.submit(Arc::clone(&cell) as Arc<dyn PoolJob>);

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

fn run_worker(shared: &Arc<Shared>, me: usize) {
    WORKER.with(|w| w.set(Some((Arc::as_ptr(shared) as usize, me))));
    loop {
        // 1. Own deque, newest first — the cache-hot end.
        if let Some(job) = shared.deques[me].take() {
            // ORDERING: SeqCst — mirrors the increment in `submit` (the
            // counter gates parking).
            shared.pending.fetch_sub(1, Ordering::SeqCst);
            job.run();
            continue;
        }
        // 2. The injector: external submissions and deque overflow.
        let injected = {
            let mut q = shared.injector.lock().expect("ft-exec injector poisoned");
            q.jobs.pop_front()
        };
        if let Some(job) = injected {
            job.run();
            continue;
        }
        // 3. Steal sweep over the other workers' deques, oldest first.
        if let Some(job) = shared.steal_sweep(me) {
            let _span = ft_trace::span("exec.pool.steal");
            job.run();
            continue;
        }
        // 4. Nothing anywhere: park. Re-check everything under the
        // injector mutex, registering as a sleeper *before* the final
        // `pending` look (Dekker against `submit`/`wake_one`) so a
        // concurrent deque push either sees our registration and
        // notifies, or we see its `pending` increment and rescan.
        let mut q = shared.injector.lock().expect("ft-exec injector poisoned");
        loop {
            if q.shutdown {
                drop(q);
                drain_on_shutdown(shared, me);
                return;
            }
            if !q.jobs.is_empty() {
                break;
            }
            // ORDERING: SeqCst — the sleeper registration must precede
            // the `pending` read in the single total order; see
            // `Shared::submit`.
            shared.sleepers.fetch_add(1, Ordering::SeqCst);
            // ORDERING: SeqCst — see above.
            if shared.pending.load(Ordering::SeqCst) != 0 {
                // Work appeared in some deque: withdraw and rescan.
                // ORDERING: SeqCst — symmetric with the registration.
                shared.sleepers.fetch_sub(1, Ordering::SeqCst);
                break;
            }
            q = shared
                .work_available
                .wait(q)
                .expect("ft-exec injector poisoned");
            // ORDERING: SeqCst — symmetric with the registration.
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Free whatever is left in this worker's own deque at shutdown. Only
/// stale handles can remain (every dispatch waits for its jobs, and the
/// owner is the only pusher), but the boxes must still be reclaimed.
fn drain_on_shutdown(shared: &Arc<Shared>, me: usize) {
    while shared.deques[me].take().is_some() {
        // ORDERING: SeqCst — mirrors the increment in `submit`.
        shared.pending.fetch_sub(1, Ordering::SeqCst);
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
    /// the dispatcher and by any worker that popped (or stole) a
    /// handle — which thread claims an index is invisible to the
    /// result, because the index dispenser is this one shared counter.
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
    use std::sync::atomic::AtomicU64;

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

    /// The raw deque protocol: owner LIFO, thief FIFO, every element
    /// delivered exactly once under concurrent stealing.
    #[test]
    fn deque_delivers_each_job_exactly_once() {
        let deque = Arc::new(Deque::new());
        let hits: Arc<Vec<AtomicU64>> =
            Arc::new((0..DEQUE_CAP).map(|_| AtomicU64::new(0)).collect());
        // Two thieves hammer the top while the owner pushes and pops
        // at the bottom.
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let deque = Arc::clone(&deque);
                let stop = &stop;
                s.spawn(move || loop {
                    match deque.steal() {
                        StealResult::Taken(job) => job.run(),
                        StealResult::Retry => std::thread::yield_now(),
                        // ORDERING: Relaxed — test-local stop flag.
                        StealResult::Empty => {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
            // Owner: push every index, interleaving pops.
            for i in 0..DEQUE_CAP {
                struct Counted(Arc<Vec<AtomicU64>>, usize);
                impl PoolJob for Counted {
                    fn run(&self) {
                        self.0[self.1].fetch_add(1, Ordering::Relaxed);
                    }
                }
                let job: Arc<dyn PoolJob> = Arc::new(Counted(Arc::clone(&hits), i));
                let mut pending = Some(job);
                while let Some(j) = pending.take() {
                    if let Err(back) = deque.push(j) {
                        // Ring full: drain one and retry.
                        if let Some(popped) = deque.take() {
                            popped.run();
                        }
                        pending = Some(back);
                    }
                }
                if i % 3 == 0 {
                    if let Some(popped) = deque.take() {
                        popped.run();
                    }
                }
            }
            // Owner drains the rest.
            while let Some(popped) = deque.take() {
                popped.run();
            }
            // ORDERING: Relaxed — test-local stop flag.
            stop.store(true, Ordering::Relaxed);
        });
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(
                hit.load(Ordering::Relaxed),
                1,
                "job {i} ran {} times",
                hit.load(Ordering::Relaxed)
            );
        }
    }

    /// A join published from a worker whose dispatcher dawdles is
    /// executed by a thief — the steal counter moves and the result is
    /// still correct.
    #[test]
    fn forced_steal_executes_join_branch_on_thief() {
        let _knob = DELAY_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let pool = Pool::new(3); // 2 workers: one dispatcher, one thief
        let before = pool.steals();
        let test_thread = std::thread::current().id();
        // Patience far above any scheduling delay: the dispatcher waits
        // until the other worker has stolen `b`.
        set_dispatch_delay_for_tests(10_000_000_000);
        let out = pool.run_on_worker(|| {
            pool.join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            )
        });
        set_dispatch_delay_for_tests(0);
        // `a` ran on the dispatching worker (not this test thread)...
        assert_ne!(
            out.0, test_thread,
            "join branch a must run on a pool worker"
        );
        // ...`b` was stolen by the *other* worker...
        assert_ne!(out.1, out.0, "join branch b should run on a thief");
        // ...and the steal counter shows the deque path was exercised.
        assert!(
            pool.steals() > before,
            "expected the delayed dispatcher's join branch to be stolen"
        );
    }

    /// A panic raised in a *stolen* join branch propagates to the
    /// dispatcher with the exact payload and serial ordering.
    #[test]
    fn thief_executed_panic_propagates_deterministically() {
        let _knob = DELAY_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let pool = Pool::new(3);
        let before = pool.steals();
        set_dispatch_delay_for_tests(10_000_000_000);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_on_worker(|| {
                pool.join(
                    || 40 + 2, // `a` succeeds on the dispatcher
                    || -> u32 { panic!("stolen branch boom") },
                )
            })
        }))
        .unwrap_err();
        set_dispatch_delay_for_tests(0);
        let message = err.downcast_ref::<&'static str>().expect("str payload");
        assert_eq!(*message, "stolen branch boom");
        assert!(
            pool.steals() > before,
            "the panicking branch was meant to be executed by a thief"
        );
        // Pool unharmed.
        assert_eq!(pool.join(|| 1, || 2), (1, 2));
    }

    /// Deep nesting overflows a fixed-capacity deque into the injector
    /// without losing or duplicating work.
    #[test]
    fn deque_overflow_falls_back_to_injector() {
        let pool = Pool::new(2);
        fn nest(pool: &Pool, depth: usize) -> u64 {
            if depth == 0 {
                return 1;
            }
            let (a, b) = pool.join(|| nest(pool, depth - 1), || 1u64);
            a + b
        }
        let depth = DEQUE_CAP + 16;
        let total = pool.run_on_worker(|| nest(&pool, depth));
        assert_eq!(total as usize, depth + 1);
        assert!(
            pool.deque_overflows() > 0,
            "nesting {depth} joins must overflow a {DEQUE_CAP}-slot deque"
        );
    }
}
