//! Lock-order witness tests — compiled only under
//! `RUSTFLAGS="--cfg lockcheck"` (the dedicated CI leg). On default
//! builds this file is an empty test binary.
//!
//! The witness's contract: an acquisition that inverts the documented
//! campaign-mutex → shard-map order, or that closes a cycle in the
//! observed acquisition graph, panics **before blocking**, naming both
//! lock classes and both held-lock stacks. Correct-order traffic —
//! including the full registry churn the stress suite drives — records
//! edges silently.

#![cfg(lockcheck)]

use ft_core::lockcheck;
use ft_core::registry::{CampaignObservation, CampaignRegistry, CampaignSpec, ObservedState};
use ft_core::{ActionSet, DeadlineProblem, PenaltyModel};
use ft_market::{LogitAcceptance, PriceGrid};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn deadline_spec() -> CampaignSpec {
    let acc = LogitAcceptance::new(4.0, 0.0, 30.0);
    CampaignSpec::Deadline {
        problem: DeadlineProblem::new(
            8,
            vec![20.0; 6],
            ActionSet::from_grid(PriceGrid::new(0, 20), &acc),
            PenaltyModel::Linear { per_task: 200.0 },
        ),
        eps: None,
    }
}

/// The documented order is pre-seeded: taking the campaign mutex while
/// holding a shard-map lock panics even in a fresh process where the
/// correct path never ran, and the report names both classes and the
/// offending held stack.
#[test]
fn inverted_acquisition_panics_with_both_stacks() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _map = lockcheck::acquire(lockcheck::SHARD_MAP, "write");
        let _campaign = lockcheck::acquire(lockcheck::CAMPAIGN_STATE, "state");
    }))
    .expect_err("inverted acquisition must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic payload is the witness report")
        .clone();
    assert!(
        msg.contains("campaign-state") && msg.contains("shard-map"),
        "report must name both lock classes: {msg}"
    );
    assert!(
        msg.contains("shard-map[write]"),
        "report must include the offending thread's held stack: {msg}"
    );
    assert!(
        msg.contains("campaign-state -> shard-map"),
        "report must include the conflicting recorded order: {msg}"
    );
}

/// A cycle assembled from edges the witness *observed* (not
/// pre-seeded) is caught on the closing acquisition, and the report
/// carries the stack recorded when the conflicting edge was first
/// seen.
#[test]
fn observed_cycle_is_detected_on_the_closing_edge() {
    // Record wa → wb on this thread.
    {
        let _a = lockcheck::acquire("witness-test-a", "1");
        let _b = lockcheck::acquire("witness-test-b", "2");
    }
    // wb → wa now closes a cycle.
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _b = lockcheck::acquire("witness-test-b", "3");
        let _a = lockcheck::acquire("witness-test-a", "4");
    }))
    .expect_err("cycle-closing acquisition must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic payload is the witness report")
        .clone();
    assert!(
        msg.contains("witness-test-a") && msg.contains("witness-test-b"),
        "report must name both classes: {msg}"
    );
    assert!(
        msg.contains("witness-test-b[3]"),
        "report must show the closing thread's held stack: {msg}"
    );
    assert!(
        msg.contains("first seen on") || msg.contains("witness-test-a ->"),
        "report must show the first-witness side: {msg}"
    );
}

/// Same-class nesting (two campaign mutexes at once) is a self-cycle.
#[test]
fn same_class_nesting_is_flagged() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _one = lockcheck::acquire("witness-test-same", "c1");
        let _two = lockcheck::acquire("witness-test-same", "c2");
    }))
    .expect_err("same-class nesting must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("string payload")
        .clone();
    assert!(msg.contains("same-class nesting"), "{msg}");
}

/// Witness tokens can release out of acquisition order (the store's
/// retry path drops the map guard before the campaign guard) without
/// corrupting the held stack.
#[test]
fn out_of_order_release_keeps_the_stack_consistent() {
    let a = lockcheck::acquire("witness-test-ooo-a", "a");
    let b = lockcheck::acquire("witness-test-ooo-b", "b");
    drop(a); // release the *outer* lock first
    assert_eq!(lockcheck::held_stack(), "witness-test-ooo-b[b]");
    drop(b);
    assert_eq!(lockcheck::held_stack(), "");
}

/// The batched-solving extension of the documented order is pre-seeded
/// too: the solve scheduler's wave mutex sits *above* the campaign
/// mutex (scheduler → campaign-mutex → shard-map), so admitting a
/// solve while holding a campaign writer lock — the bug the
/// `observe_on` drop-reacquire pattern exists to avoid — panics even
/// if the correct path never ran in this process. And transitively:
/// holding a shard-map lock while admitting closes the three-class
/// cycle through both seeded edges.
#[test]
fn campaign_held_wave_admission_panics() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _campaign = lockcheck::acquire(lockcheck::CAMPAIGN_STATE, "state");
        let _wave = lockcheck::acquire(lockcheck::SOLVE_SCHEDULER, "wave");
    }))
    .expect_err("campaign-held admission must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic payload is the witness report")
        .clone();
    assert!(
        msg.contains("solve-scheduler") && msg.contains("campaign-state"),
        "report must name both lock classes: {msg}"
    );
    assert!(
        msg.contains("campaign-state[state]"),
        "report must include the offending held stack: {msg}"
    );

    let err = catch_unwind(AssertUnwindSafe(|| {
        let _map = lockcheck::acquire(lockcheck::SHARD_MAP, "write");
        let _wave = lockcheck::acquire(lockcheck::SOLVE_SCHEDULER, "wave");
    }))
    .expect_err("shard-held admission closes the transitive cycle");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic payload is the witness report")
        .clone();
    assert!(
        msg.contains("solve-scheduler") && msg.contains("shard-map"),
        "report must name both ends of the transitive cycle: {msg}"
    );
}

/// The correct order — admission first, campaign lock after — records
/// its edges silently, including through the real scheduler.
#[test]
fn scheduler_first_admission_runs_clean() {
    let sched = ft_core::SolveScheduler::new(4);
    let ticket = sched.admit();
    {
        let _campaign = lockcheck::acquire(lockcheck::CAMPAIGN_STATE, "state");
        let _map = lockcheck::acquire(lockcheck::SHARD_MAP, "write");
    }
    drop(ticket);
    assert_eq!(lockcheck::held_stack(), "");
}

/// The real registry paths run clean under the witness: register,
/// solve, quote, observe-driven recalibration, replacement and
/// eviction all follow the documented order, so a full lifecycle
/// records edges without tripping anything.
#[test]
fn registry_lifecycle_runs_clean_under_the_witness() {
    let registry = CampaignRegistry::new();
    let id = registry.register(deadline_spec());
    registry.solve(id).expect("solve");
    let quote = registry
        .quote(
            id,
            ObservedState::Deadline {
                remaining: 3,
                interval: 1,
            },
        )
        .expect("quote");
    assert!(quote.price.is_finite());
    registry
        .observe(
            id,
            CampaignObservation::Deadline {
                interval: 1,
                completions: 1,
                posted: None,
            },
        )
        .expect("observe");
    // Replacement exercises with_entry's campaign→map write path.
    let doc = registry.campaign_to_json(id).expect("snapshot");
    registry.restore_json(&doc).expect("replace");
    assert!(registry.evict(id));
    assert!(registry.purge(id));
    assert_eq!(
        lockcheck::held_stack(),
        "",
        "no witness tokens may leak past the lifecycle"
    );
}
