//! Pool lifecycle guarantees, measured from the outside: workers are
//! **reused, not respawned** (the count of `ft-exec-*` threads is
//! stable across repeated dispatches, per `/proc/self/task`), panicking
//! jobs neither kill workers nor poison later dispatches, and owned
//! pools return their threads on drop.
//!
//! Tests in this binary serialize on a lock: thread counting is a
//! process-global measurement, so concurrent pool-creating tests would
//! pollute each other's readings.

use ft_exec::Pool;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static PROCESS_LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    PROCESS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Live pool worker threads (named `ft-exec-N`) in this process, or
/// `None` off Linux. Only the pool's own threads count: the test
/// harness starts each test's thread whenever it likes, so the
/// process-wide total can grow mid-measurement with no pool involved.
fn thread_count() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("ft-exec-"))
            .count(),
    )
}

/// [`thread_count`] once `settled` accepts it, or after 10 s. The
/// count lags the pool both ways: a worker names itself only when it
/// first runs (a dispatch can finish on the calling thread before any
/// worker has), and a joined worker stays listed until the kernel has
/// finished reaping it.
fn thread_count_when(settled: impl Fn(usize) -> bool) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let count = thread_count()?;
        if settled(count) || Instant::now() > deadline {
            return Some(count);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn workers_are_reused_not_respawned() {
    let _guard = serialized();
    let pool = Pool::new(4);
    // Warm-up dispatch; the baseline still waits for every worker to
    // have started, since this may finish before some have.
    let mut data = vec![0u64; 4096];
    pool.par_chunks_mut(&mut data, 16, 4, |start, chunk| {
        for (j, x) in chunk.iter_mut().enumerate() {
            *x = (start + j) as u64;
        }
    });
    let Some(before) = thread_count_when(|n| n >= pool.workers()) else {
        return;
    };
    for round in 0..200 {
        pool.par_chunks_mut(&mut data, 16, 4, |start, chunk| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = ((start + j) as u64).wrapping_mul(round + 1);
            }
        });
        let (a, b) = pool.join(|| data[0], || data[1]);
        assert_eq!((a, b), (data[0], data[1]));
    }
    let after = thread_count().expect("thread count readable once means always");
    assert!(
        after <= before,
        "200 dispatches grew the thread count: {before} -> {after} \
         (workers must be parked and reused, not respawned per region)"
    );
}

#[test]
fn dropping_an_owned_pool_releases_its_threads() {
    let _guard = serialized();
    let Some(baseline) = thread_count() else {
        return;
    };
    for _ in 0..8 {
        let running = thread_count().expect("thread count readable once means always");
        let pool = Pool::new(4);
        let sum = AtomicUsize::new(0);
        pool.for_each(100, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
        // Let this pool's workers start before the drop, so a leaked
        // one is named and counted below.
        thread_count_when(|n| n >= running + pool.workers());
        drop(pool);
    }
    let after =
        thread_count_when(|n| n <= baseline).expect("thread count readable once means always");
    assert!(
        after <= baseline,
        "owned pools leaked threads: {baseline} -> {after}"
    );
}

#[test]
fn panicking_jobs_do_not_poison_the_pool() {
    let _guard = serialized();
    let pool = Pool::new(4);
    // Quiet the expected panic backtraces for this test only.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for round in 0..10 {
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each(32, |i| {
                if i == 5 {
                    panic!("round {round} fails at 5");
                }
            });
        }))
        .unwrap_err();
        let message = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(message, &format!("round {round} fails at 5"));
        // The very next dispatch on the same pool must run all jobs.
        let count = AtomicUsize::new(0);
        pool.for_each(64, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
        // Joins keep working too, including a panicking side.
        let join_err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| 1, || -> u32 { panic!("b side") })
        }))
        .unwrap_err();
        assert_eq!(
            *join_err
                .downcast_ref::<&'static str>()
                .expect("str payload"),
            "b side"
        );
        assert_eq!(pool.join(|| "a", || "b"), ("a", "b"));
    }
    std::panic::set_hook(prev_hook);
}

#[test]
fn nested_dispatch_from_inside_workers_terminates() {
    let _guard = serialized();
    let pool = Pool::new(4);
    // A fan-out whose jobs each run a nested fan-out and a nested join
    // on the same pool — the shape of registry batch solves (outer
    // par_map over campaigns, inner kernel sweeps per layer).
    let total = AtomicUsize::new(0);
    pool.for_each(8, |outer| {
        let inner_sum = AtomicUsize::new(0);
        pool.for_each(16, |i| {
            inner_sum.fetch_add(i + outer, Ordering::Relaxed);
        });
        let (a, b) = pool.join(|| outer * 2, || outer * 3);
        total.fetch_add(inner_sum.load(Ordering::Relaxed) + a + b, Ordering::Relaxed);
    });
    // Σ_outer [ Σ_i (i + outer) + 5·outer ] = 8·120 + 16·28 + 5·28.
    assert_eq!(total.load(Ordering::Relaxed), 8 * 120 + 16 * 28 + 5 * 28);
}

#[test]
fn pooled_results_match_serial_bitwise() {
    let _guard = serialized();
    // f64 math distributed over the pool must be bit-identical to the
    // inline loop — the executor-level face of the kernel's contract.
    let serial_pool = Pool::new(1);
    let pooled = Pool::new(4);
    let compute = |start: usize, chunk: &mut [f64]| {
        for (j, x) in chunk.iter_mut().enumerate() {
            let i = (start + j) as f64;
            *x = (i * 1.000_000_3).sin() + i.sqrt();
        }
    };
    let mut a = vec![0f64; 10_000];
    let mut b = vec![0f64; 10_000];
    serial_pool.par_chunks_mut(&mut a, 8, 1, compute);
    pooled.par_chunks_mut(&mut b, 8, 4, compute);
    for i in 0..a.len() {
        assert_eq!(a[i].to_bits(), b[i].to_bits(), "bit mismatch at {i}");
    }
}
