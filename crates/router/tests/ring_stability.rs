//! The consistent-hash contract, pinned: membership changes move only
//! the affected node's share of the keyspace, and the hash is
//! deterministic so the shares themselves are stable across builds.

use ft_router::Ring;

const KEYS: u64 = 10_000;

#[test]
fn removing_a_node_moves_exactly_its_keys() {
    let full = Ring::build(&[0, 1, 2]);
    let survivors = Ring::build(&[0, 2]);
    let mut owned_by_dead = 0u64;
    let mut moved = 0u64;
    for id in 1..=KEYS {
        let before = full.route(id).unwrap();
        let after = survivors.route(id).unwrap();
        if before == 1 {
            owned_by_dead += 1;
            assert_ne!(after, 1, "key {id} still routes to the removed node");
        } else {
            assert_eq!(after, before, "key {id} moved although its owner survived");
        }
        if before != after {
            moved += 1;
        }
    }
    // Stability: the movement is exactly the dead node's share, and
    // that share is ~1/N (virtual points smooth it; a modulo ring
    // would move ~2/3 of all keys here).
    assert_eq!(moved, owned_by_dead);
    let share = owned_by_dead as f64 / KEYS as f64;
    assert!(
        (0.20..=0.47).contains(&share),
        "node 1 owns an unbalanced share: {share}"
    );
}

#[test]
fn adding_a_node_steals_only_its_share() {
    let small = Ring::build(&[0, 1]);
    let grown = Ring::build(&[0, 1, 2]);
    let mut stolen = 0u64;
    for id in 1..=KEYS {
        let before = small.route(id).unwrap();
        let after = grown.route(id).unwrap();
        if before != after {
            assert_eq!(after, 2, "key {id} moved between surviving nodes");
            stolen += 1;
        }
    }
    let share = stolen as f64 / KEYS as f64;
    assert!(
        (0.20..=0.47).contains(&share),
        "new node stole an unbalanced share: {share}"
    );
}

/// The hash is a pure function of (node index, replica, id): the same
/// membership always builds the same ring, independent of build order
/// or process. Pinned routes guard against accidental hash changes —
/// a silent change would strand every persisted placement expectation
/// (and CI's fleet gates) on the wrong node.
#[test]
fn placement_is_pinned() {
    let ring = Ring::build(&[0, 1, 2]);
    let routes: Vec<usize> = (1..=12u64).map(|id| ring.route(id).unwrap()).collect();
    assert_eq!(routes, [1, 1, 2, 2, 2, 2, 0, 2, 1, 0, 1, 1]);
    // Shuffled construction order builds the identical ring.
    let shuffled = Ring::build(&[2, 0, 1]);
    for id in 1..=KEYS {
        assert_eq!(ring.route(id), shuffled.route(id));
    }
}
