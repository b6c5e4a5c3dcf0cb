//! A dynamic lock-order witness, compiled in only under
//! `--cfg lockcheck`.
//!
//! The registry documents one lock order: **campaign writer mutex →
//! shard map write lock** (see `registry::store`); no other lock class
//! nests with either. Nothing enforced it
//! at runtime — an inverted acquisition would sit latent until two
//! threads interleaved just wrong and deadlocked in production. With
//! `RUSTFLAGS="--cfg lockcheck"` every guarded acquisition is recorded
//! against a process-global acquisition-order graph:
//!
//! - each thread keeps a **held-lock stack** (class + instance name, in
//!   acquisition order);
//! - acquiring class `B` while holding class `A` records the edge
//!   `A → B`, remembering the full held stack that first witnessed it;
//! - an acquisition that would close a **cycle** (`B ⇝ A` already in
//!   the graph while recording `A → B`) panics *before blocking on the
//!   lock*, printing both sides: the current thread's held stack and
//!   the held stack recorded when the conflicting edge was first seen.
//!
//! The documented campaign→shard order is pre-seeded into the graph, so
//! a single inverted acquisition panics even if the correct path never
//! ran in that process — the witness checks the *rule*, not just
//! observed history.
//!
//! The witness intentionally tracks lock **classes**, not instances:
//! two different campaigns' mutexes are the same class, so a
//! campaign→campaign edge would be flagged as a self-cycle. The
//! registry never nests two campaign mutexes — if a future change
//! does, it must either order them by id and teach the witness, or it
//! is a real deadlock candidate and the panic is the point.
//!
//! Everything here is `#[cfg(lockcheck)]`; default builds compile the
//! no-op twin at the bottom of the file, so the serving path pays
//! nothing.

#[cfg(lockcheck)]
mod imp {
    use std::collections::HashMap;
    use std::fmt::Write as _;
    use std::sync::Mutex;

    /// A lock class known to the witness. Classes are compared by
    /// name pointer-independently (string equality), so tests can mint
    /// their own classes without touching the registry's.
    pub type LockClass = &'static str;

    /// The campaign writer mutex (`registry::store::Campaign::state`).
    pub const CAMPAIGN_STATE: LockClass = "campaign-state";
    /// A shard's id→record map `RwLock` (read or write side).
    pub const SHARD_MAP: LockClass = "shard-map";

    #[derive(Clone)]
    struct Edge {
        /// Held stack of the thread that first recorded this edge,
        /// rendered as `a -> b -> c`.
        witness_stack: String,
        thread: String,
    }

    struct Graph {
        /// `edges[(from, to)]` = first acquisition that witnessed
        /// holding `from` while taking `to`.
        edges: HashMap<(String, String), Edge>,
    }

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: std::sync::OnceLock<Mutex<Graph>> = std::sync::OnceLock::new();
        GRAPH.get_or_init(|| {
            let mut edges = HashMap::new();
            // Pre-seed the documented discipline: the campaign writer
            // mutex is acquired before the shard map lock. Any
            // shard-map→campaign acquisition is an inversion of the
            // rule, deadlock or not.
            edges.insert(
                (CAMPAIGN_STATE.to_string(), SHARD_MAP.to_string()),
                Edge {
                    witness_stack: format!("{CAMPAIGN_STATE} -> {SHARD_MAP}"),
                    thread: "<documented order: registry::store module docs>".to_string(),
                },
            );
            Mutex::new(Graph { edges })
        })
    }

    thread_local! {
        /// This thread's held locks, in acquisition order:
        /// `(class, instance label, token id)`.
        static HELD: std::cell::RefCell<Vec<(String, String, u64)>> =
            const { std::cell::RefCell::new(Vec::new()) };
        static NEXT_TOKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn held_stack_string(held: &[(String, String, u64)]) -> String {
        let mut s = String::new();
        for (i, (class, label, _)) in held.iter().enumerate() {
            if i > 0 {
                s.push_str(" -> ");
            }
            let _ = write!(s, "{class}[{label}]");
        }
        s
    }

    /// Is `to ⇝ from` reachable in the edge set (would `from → to`
    /// close a cycle)?
    fn reaches(edges: &HashMap<(String, String), Edge>, start: &str, goal: &str) -> Option<String> {
        // DFS over a graph of at most a handful of classes.
        let mut stack = vec![(start.to_string(), start.to_string())];
        let mut seen = std::collections::HashSet::new();
        while let Some((node, path)) = stack.pop() {
            if node == goal {
                return Some(path);
            }
            if !seen.insert(node.clone()) {
                continue;
            }
            for (from, to) in edges.keys() {
                if *from == node {
                    stack.push((to.clone(), format!("{path} -> {to}")));
                }
            }
        }
        None
    }

    /// RAII token for one traced acquisition. Create it **before**
    /// blocking on the real lock so an actual deadlock still reports.
    pub struct Held {
        token: u64,
    }

    /// Record that the current thread is about to acquire a lock of
    /// `class` (instance described by `label`), panicking if that
    /// acquisition is inconsistent with the order graph.
    pub fn acquire(class: LockClass, label: &str) -> Held {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if !held.is_empty() {
                // Check the new acquisition against *every* held class:
                // same-class nesting is a self-cycle by construction,
                // and any held class reachable from the new class in
                // the recorded graph means `held → class` closes a
                // cycle.
                let inner_check = {
                    let graph = graph().lock().unwrap_or_else(|e| e.into_inner());
                    let mut found = None;
                    for (held_class, _, _) in held.iter() {
                        if held_class == class {
                            found = Some((
                                format!("{class} -> {class}"),
                                "<same-class nesting>".to_string(),
                            ));
                            break;
                        }
                        if let Some(path) = reaches(&graph.edges, class, held_class) {
                            let edge = graph
                                .edges
                                .get(&(class.to_string(), path_second(&path)))
                                .cloned();
                            found = Some((
                                path,
                                edge.map(|e| {
                                    format!(
                                        "first seen on {} holding {}",
                                        e.thread, e.witness_stack
                                    )
                                })
                                .unwrap_or_else(|| "<pre-seeded order>".to_string()),
                            ));
                            break;
                        }
                    }
                    found
                };
                if let Some((cycle_path, other_side)) = inner_check {
                    let current = held_stack_string(&held);
                    panic!(
                        "lockcheck: acquisition-order violation: thread {:?} holds \
                         [{current}] and is acquiring `{class}[{label}]`, but the order \
                         graph already requires `{cycle_path}` ({other_side}). \
                         Potential deadlock: this inverts the documented \
                         campaign-mutex -> shard-map-write discipline or closes a \
                         cycle between lock classes.",
                        std::thread::current().name().unwrap_or("<unnamed>"),
                    );
                }
                // Consistent: record every held-class → new-class edge.
                let mut graph = graph().lock().unwrap_or_else(|e| e.into_inner());
                let current = held_stack_string(&held);
                for (held_class, _, _) in held.iter() {
                    if held_class != class {
                        graph
                            .edges
                            .entry((held_class.clone(), class.to_string()))
                            .or_insert_with(|| Edge {
                                witness_stack: format!("{current} -> {class}[{label}]"),
                                thread: format!(
                                    "thread {:?}",
                                    std::thread::current().name().unwrap_or("<unnamed>")
                                ),
                            });
                    }
                }
            }
            let token = NEXT_TOKEN.with(|t| {
                let id = t.get();
                t.set(id + 1);
                id
            });
            held.push((class.to_string(), label.to_string(), token));
            Held { token }
        })
    }

    /// First hop of a rendered `a -> b -> …` path (the `to` of the
    /// edge out of the cycle's start), used to look up the witnessing
    /// edge for the report.
    fn path_second(path: &str) -> String {
        path.split(" -> ").nth(1).unwrap_or(path).to_string()
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                // Guards normally unwind in reverse acquisition order,
                // but `with_entry`'s retry path releases out of order —
                // find this token's entry rather than popping the top.
                if let Some(i) = held.iter().position(|(_, _, t)| *t == self.token) {
                    held.remove(i);
                }
            });
        }
    }

    /// The current thread's held-lock stack, rendered for assertions.
    pub fn held_stack() -> String {
        HELD.with(|held| held_stack_string(&held.borrow()))
    }
}

#[cfg(lockcheck)]
pub use imp::{acquire, held_stack, Held, LockClass, CAMPAIGN_STATE, SHARD_MAP};

// ---- no-op twin for default builds -----------------------------------

#[cfg(not(lockcheck))]
mod imp {
    /// Lock class label (unused in default builds).
    pub type LockClass = &'static str;
    /// See the `lockcheck` build.
    pub const CAMPAIGN_STATE: LockClass = "campaign-state";
    /// See the `lockcheck` build.
    pub const SHARD_MAP: LockClass = "shard-map";

    /// Zero-sized stand-in; acquisitions are untraced. The explicit
    /// (empty) `Drop` keeps call sites identical across cfgs: witness
    /// tokens may be `drop()`ed early (the store's retry path) without
    /// tripping `clippy::drop_non_drop` on default builds.
    pub struct Held;

    impl Drop for Held {
        fn drop(&mut self) {}
    }

    /// No-op in default builds — compiles away entirely.
    #[inline(always)]
    pub fn acquire(_class: LockClass, _label: &str) -> Held {
        Held
    }

    /// Always empty in default builds.
    pub fn held_stack() -> String {
        String::new()
    }
}

#[cfg(not(lockcheck))]
pub use imp::{acquire, held_stack, Held, LockClass, CAMPAIGN_STATE, SHARD_MAP};
