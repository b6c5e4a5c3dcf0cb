//! Bitwise invariance of all five public solvers when pool workers,
//! not the dispatching thread, run their chunks and join branches.
//!
//! The kernel's determinism contract says a policy's every bit is a
//! function of the problem alone — never of thread count, sweep order,
//! or *which* thread executed a chunk. The kernel-level tests pin the
//! first two; this suite pins the last one at the public-API layer:
//! each solver is fingerprinted normally, then re-run with the
//! dispatch-delay test knob set, which holds every dispatcher between
//! publishing its work and starting on it until a worker has claimed
//! the job (the slow-dispatcher harness from `ft-exec`'s own tests,
//! which show that the knob forces the hand-off). The CI matrix runs
//! this file under `FT_EXEC_THREADS ∈ {1, 4}`; serial kernel references
//! inside the test extend the sweep to explicit 1/2/4/auto
//! decompositions.
//!
//! Also here: panic propagation stays deterministic when a worker runs
//! the panicking chunk — the payload is the lowest panicking chunk
//! index, as in serial order, no matter who ran it.

use ft_core::budget::{solve_budget_exact, solve_budget_mdp, solve_budget_mdp_with};
use ft_core::dp::{solve_efficient, solve_simple, solve_truncated};
use ft_core::kernel::deadline::solve_deadline;
use ft_core::kernel::{KernelConfig, Sweep, TruncationTable};
use ft_core::problem::DeadlineProblem;
use ft_core::testkit::{small_problem, tiny_budget_problem};
use ft_core::{BudgetProblem, DeadlinePolicy};
use ft_exec::{set_dispatch_delay_for_tests, Pool};
use std::sync::Mutex;

/// Tests in this file share the global dispatch-delay knob; serialize
/// them so one test's forced hand-off window never leaks into another.
static DELAY_KNOB: Mutex<()> = Mutex::new(());

const EPS: f64 = 1e-9;

fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fp_deadline(policy: &DeadlinePolicy, p: &DeadlineProblem) -> u64 {
    let mut words = Vec::new();
    for t in 0..p.n_intervals() {
        for m in 1..=p.n_tasks {
            words.push(policy.cost_to_go(m, t).to_bits());
            words.push(policy.action_index(m, t) as u64);
        }
    }
    fnv1a64(words)
}

/// Every solver's full output, fingerprinted: the three deadline
/// algorithms and both budget solvers.
fn five_fingerprints(p: &DeadlineProblem, b: &BudgetProblem) -> [u64; 5] {
    let simple = solve_simple(p).expect("solve_simple");
    let truncated = solve_truncated(p, EPS).expect("solve_truncated");
    let efficient = solve_efficient(p, EPS).expect("solve_efficient");
    let exact = solve_budget_exact(b).expect("solve_budget_exact");
    let mdp = solve_budget_mdp(b).expect("solve_budget_mdp");

    let fp_exact = fnv1a64(
        exact
            .counts()
            .iter()
            .flat_map(|&(c, n)| [u64::from(c), u64::from(n)]),
    );
    let budget_cents = mdp.budget_cents();
    let mut mdp_words = Vec::new();
    for n in 0..=mdp.n_tasks() {
        for cents in 0..=budget_cents {
            mdp_words.push(mdp.value(n, cents).to_bits());
            mdp_words.push(u64::from(mdp.price(n, cents).unwrap_or(u32::MAX)));
        }
    }
    [
        fp_deadline(&simple, p),
        fp_deadline(&truncated, p),
        fp_deadline(&efficient, p),
        fp_exact,
        fnv1a64(mdp_words),
    ]
}

/// All five public solvers produce bitwise-identical results when their
/// chunks and join branches are forcibly handed to pool workers, and
/// match the serial kernel reference (so the CI legs at
/// `FT_EXEC_THREADS=1` and `=4` fingerprint the same bits).
#[test]
fn five_solvers_bitwise_invariant_under_forced_steals() {
    let _serialize = DELAY_KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let p = small_problem(20, 6);
    let b = tiny_budget_problem();

    // Baseline: normal dispatch from the test thread.
    let baseline = five_fingerprints(&p, &b);

    // The serial kernel must agree with each public deadline solver —
    // and with explicit 1/2/4/auto decompositions — independent of this
    // process's FT_EXEC_THREADS budget.
    let none = TruncationTable::none(&p);
    let trunc = TruncationTable::with_eps(&p, EPS);
    let serial_refs = [
        (&none, Sweep::Dense, baseline[0]),
        (&trunc, Sweep::Dense, baseline[1]),
        (&trunc, Sweep::MonotoneDivide, baseline[2]),
    ];
    for (table, sweep, expected) in serial_refs {
        for threads in [1, 2, 4, 0] {
            let cfg = KernelConfig {
                threads,
                ..KernelConfig::default()
            };
            let got = solve_deadline(&p, table, sweep, &cfg).expect("kernel reference");
            assert_eq!(
                fp_deadline(&got, &p),
                expected,
                "kernel reference diverged from the public solver \
                 (sweep {sweep:?}, {threads} threads)"
            );
        }
    }
    for threads in [1, 2, 4, 0] {
        let cfg = KernelConfig {
            threads,
            ..KernelConfig::default()
        };
        let mdp = solve_budget_mdp_with(&b, &cfg).expect("mdp reference");
        let mut words = Vec::new();
        for n in 0..=mdp.n_tasks() {
            for cents in 0..=mdp.budget_cents() {
                words.push(mdp.value(n, cents).to_bits());
                words.push(u64::from(mdp.price(n, cents).unwrap_or(u32::MAX)));
            }
        }
        assert_eq!(
            fnv1a64(words),
            baseline[4],
            "budget MDP diverged at {threads} threads"
        );
    }

    // Forced hand-off: run the whole battery with the dispatch delay
    // set, so every dispatcher leaves its fan-out indices and join
    // branches, for up to 200µs each, to a worker to claim.
    set_dispatch_delay_for_tests(200_000); // 200µs per dispatch
    let handed_off = five_fingerprints(&p, &b);
    set_dispatch_delay_for_tests(0);
    assert_eq!(
        handed_off, baseline,
        "a solver's bits changed when workers ran its chunks"
    );
}

/// A panicking chunk that a worker may run propagates exactly like the
/// serial loop: the payload of the lowest panicking index wins, and
/// the global pool stays usable afterwards.
#[test]
fn thief_executed_chunk_panic_is_deterministic() {
    let _serialize = DELAY_KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let pool = Pool::global();
    set_dispatch_delay_for_tests(200_000);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut data = vec![0u32; 64];
        // 8 chunks of 8; chunks 0–1 are fine, chunks 2..8 panic with
        // distinct payloads. Whoever executes them — dispatcher or
        // worker, in whatever order — the propagated payload must be
        // chunk 2's, as in serial order.
        pool.par_chunks_mut(&mut data, 8, 8, |start, chunk| {
            if start >= 16 {
                panic!("chunk {} boom", start / 8);
            }
            chunk.iter_mut().for_each(|x| *x = 1);
        });
    }));
    set_dispatch_delay_for_tests(0);
    let payload = result.expect_err("panicking region must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("formatted panic payload");
    assert_eq!(
        msg, "chunk 2 boom",
        "propagated payload must be the lowest panicking chunk's"
    );
    // The pool survives a panicked region.
    let mut data = vec![0u64; 100];
    ft_exec::par_chunks_mut(&mut data, 1, 0, |start, chunk| {
        for (j, x) in chunk.iter_mut().enumerate() {
            *x = (start + j) as u64;
        }
    });
    assert_eq!(data.iter().sum::<u64>(), 4950);
}
