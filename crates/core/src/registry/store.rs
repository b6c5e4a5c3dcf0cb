//! The sharded campaign store: `N` independently locked id→record maps
//! plus shard-local status counters.
//!
//! The registry used to keep every campaign behind one global
//! `RwLock<HashMap>`; at fleet scale that lock is on *every* quote,
//! observe, solve and eviction. [`ShardedStore`] routes each id to one
//! of `N` shards by a multiplicative hash, so operations on different
//! campaigns contend only when they land on the same shard, and the
//! quote hot path takes exactly one shard read lock for its map lookup.
//!
//! Fleet-level aggregates (`/healthz` status counts, `campaigns_total`)
//! no longer walk the maps either: each shard keeps a per-status
//! counter ([`ShardStats`]) that campaigns update as they transition,
//! and reads just sum `6 × N` atomics.
//!
//! ## Counting discipline
//!
//! The counters and the maps must never drift apart, including under
//! concurrent register/evict/purge churn (there is a stress test
//! pinning this). The rules:
//!
//! - every status change and every count/uncount happens while holding
//!   the campaign's writer mutex ([`Campaign::state`]) — the mutex
//!   serializes counter updates per campaign;
//! - a record is *counted* exactly while it sits in a shard map
//!   ([`CampaignState::counted`]); [`Campaign::count`] /
//!   [`Campaign::uncount`] flip the flag and adjust the counter for the
//!   record's current status, and [`Campaign::transition`] moves a
//!   counted record between status buckets;
//! - map membership changes go through [`ShardedStore::with_entry`],
//!   which establishes the lock order **campaign writer mutex → shard
//!   map write lock**, so a replacement can retire the outgoing record
//!   without ever blocking the quote path behind a solve.

use super::engine::CampaignEngine;
use super::{CampaignPolicy, CampaignSpec, CampaignStatus, PolicyGeneration};
use crate::error::CampaignId;
use crate::lockcheck;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicI64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Writer-side state of a campaign (everything behind its mutex).
pub(super) struct CampaignState {
    pub spec: CampaignSpec,
    /// `None` for Draft/Solving/Evicted records (nothing solved, or the
    /// policy dropped).
    pub engine: Option<Box<dyn CampaignEngine>>,
    /// Whether this record currently contributes to its shard's status
    /// counters — true exactly while it sits in the shard map.
    pub counted: bool,
}

impl CampaignState {
    /// The engine's kind, or `"unsolved"` — the `expected` side of a
    /// kind-mismatch error.
    pub fn kind(&self) -> &'static str {
        self.engine.as_deref().map_or("unsolved", |e| e.kind())
    }
}

/// One registered campaign (keyed by id in its shard's map).
pub(super) struct Campaign {
    status: AtomicU8,
    pub state: Mutex<CampaignState>,
    pub live: RwLock<Option<Arc<PolicyGeneration>>>,
    /// The owning shard's counters (resolved once at creation).
    stats: Arc<ShardStats>,
}

impl Campaign {
    pub fn new(spec: CampaignSpec, stats: Arc<ShardStats>) -> Self {
        Self {
            status: AtomicU8::new(CampaignStatus::Draft as u8),
            state: Mutex::new(CampaignState {
                spec,
                engine: None,
                counted: false,
            }),
            live: RwLock::new(None),
            stats,
        }
    }

    pub fn status(&self) -> CampaignStatus {
        // ORDERING: Acquire pairs with the Release/AcqRel writers in
        // `set_status_raw`/`transition` — a reader that routes on the
        // status also sees the state the transition published.
        CampaignStatus::from_u8(self.status.load(Ordering::Acquire))
    }

    /// Set the status of a record no other thread can reach yet (fresh
    /// construction / snapshot restore) — no counter movement.
    pub fn set_status_raw(&self, s: CampaignStatus) {
        // ORDERING: Release pairs with the Acquire in `status` once the
        // record becomes reachable through the shard map.
        self.status.store(s as u8, Ordering::Release);
    }

    /// Move to `new`, keeping the shard counters in step. The caller
    /// must hold the campaign's writer mutex (pass the guard's target) —
    /// that is what serializes counter updates per campaign.
    pub fn transition(&self, state: &CampaignState, new: CampaignStatus) {
        // ORDERING: AcqRel — the swap both publishes the transition to
        // `status` readers (release side) and orders the counter
        // movement below after any prior transition it replaces
        // (acquire side); the writer mutex serializes writers, but
        // `status()` readers take no lock.
        let old = self.status.swap(new as u8, Ordering::AcqRel);
        if state.counted {
            self.stats.moved(CampaignStatus::from_u8(old), new);
        }
    }

    /// Start contributing to the shard counters (on map insertion).
    pub fn count(&self, state: &mut CampaignState) {
        if !state.counted {
            state.counted = true;
            self.stats.adjust(self.status(), 1);
        }
    }

    /// Stop contributing (on map removal/replacement).
    pub fn uncount(&self, state: &mut CampaignState) {
        if state.counted {
            state.counted = false;
            self.stats.adjust(self.status(), -1);
        }
    }

    pub fn generation(&self) -> Option<Arc<PolicyGeneration>> {
        self.live
            .read()
            .expect("campaign generation lock poisoned")
            .clone()
    }

    /// Publish a new generation: the single atomic pointer swap readers
    /// observe.
    pub fn publish(&self, generation: u64, start: usize, policy: Arc<CampaignPolicy>) {
        let mut live = self
            .live
            .write()
            .expect("campaign generation lock poisoned");
        *live = Some(Arc::new(PolicyGeneration {
            generation,
            start,
            policy,
        }));
    }
}

/// Per-shard status counters. Signed so a counting bug shows up as a
/// negative count in tests instead of a wrapped huge number.
#[derive(Default)]
pub(super) struct ShardStats {
    by_status: [AtomicI64; 6],
}

impl ShardStats {
    fn adjust(&self, status: CampaignStatus, delta: i64) {
        // ORDERING: AcqRel chains successive movements through each
        // cell and pairs with the Acquire sweep in `status_counts`.
        // The -1/+1 halves of a move land in *different* cells, so a
        // concurrent sweep may still observe one half without the
        // other — the sweep clamps and documents that transient skew
        // instead of claiming cross-cell atomicity.
        self.by_status[status as usize].fetch_add(delta, Ordering::AcqRel);
    }

    fn moved(&self, old: CampaignStatus, new: CampaignStatus) {
        if old != new {
            self.adjust(old, -1);
            self.adjust(new, 1);
        }
    }
}

/// One shard: an id→record map plus the counters its records maintain.
pub(super) struct Shard {
    pub map: RwLock<HashMap<CampaignId, Arc<Campaign>>>,
    pub stats: Arc<ShardStats>,
}

/// The sharded concurrent campaign store.
pub(super) struct ShardedStore {
    shards: Box<[Shard]>,
}

impl ShardedStore {
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| Shard {
                    map: RwLock::new(HashMap::new()),
                    stats: Arc::new(ShardStats::default()),
                })
                .collect(),
        }
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `id` routes to. Sequential ids (the registry hands
    /// them out from a counter) must spread evenly, hence the
    /// multiplicative mix before the modulo.
    pub fn shard(&self, id: CampaignId) -> &Shard {
        let mixed = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(mixed as usize) % self.shards.len()]
    }

    /// Stats handle for the shard `id` routes to (what
    /// [`Campaign::new`] wants).
    pub fn stats_for(&self, id: CampaignId) -> Arc<ShardStats> {
        Arc::clone(&self.shard(id).stats)
    }

    /// Hot-path lookup: one shard read lock.
    pub fn get(&self, id: CampaignId) -> Option<Arc<Campaign>> {
        let _witness = lockcheck::acquire(lockcheck::SHARD_MAP, "read");
        self.shard(id)
            .map
            .read()
            .expect("campaign shard lock poisoned")
            .get(&id)
            .cloned()
    }

    /// Run `f` with a consistent view of the entry at `id`: the record
    /// currently stored there (with its writer mutex held) and the
    /// shard map write guard. Lock order: campaign writer mutex first,
    /// then the map write lock — never the reverse — so `f` can inspect
    /// or retire the outgoing record without stalling quote readers
    /// behind an in-flight solve. Retries internally if a racing
    /// replacement swaps the entry between the two acquisitions.
    pub fn with_entry<T>(
        &self,
        id: CampaignId,
        f: impl FnOnce(
            Option<(&Arc<Campaign>, &mut CampaignState)>,
            &mut HashMap<CampaignId, Arc<Campaign>>,
        ) -> T,
    ) -> T {
        let shard = self.shard(id);
        loop {
            let old = {
                let _witness = lockcheck::acquire(lockcheck::SHARD_MAP, "peek");
                shard
                    .map
                    .read()
                    .expect("campaign shard lock poisoned")
                    .get(&id)
                    .cloned()
            };
            let mut old_state = old.as_ref().map(|old| lock_state(old));
            let map_witness = lockcheck::acquire(lockcheck::SHARD_MAP, "write");
            let mut map = shard.map.write().expect("campaign shard lock poisoned");
            let current = map.get(&id);
            let still_current = match (&old, current) {
                (None, None) => true,
                (Some(old), Some(current)) => Arc::ptr_eq(old, current),
                _ => false,
            };
            if !still_current {
                drop(map);
                drop(map_witness);
                drop(old_state);
                continue; // lost a race with another replacement/purge
            }
            let entry = match (&old, old_state.as_mut()) {
                (Some(old), Some(state)) => Some((old, &mut **state)),
                _ => None,
            };
            return f(entry, &mut map);
        }
    }

    /// Insert (or replace) the record at `id`, keeping the counters in
    /// step: the outgoing record is uncounted **and retired** (engine
    /// dropped, generation cleared, status Evicted) so detached handles
    /// fetched just before the swap can't keep serving or mutating an
    /// orphan. The incoming record is counted. Returns the replaced
    /// record, if any.
    pub fn insert(&self, id: CampaignId, campaign: Arc<Campaign>) -> Option<Arc<Campaign>> {
        self.with_entry(id, |entry, map| {
            if let Some((old, old_state)) = entry {
                old.uncount(old_state);
                old_state.engine = None;
                *old.live.write().expect("campaign generation lock poisoned") = None;
                old.transition(old_state, CampaignStatus::Evicted);
            }
            // The incoming record is not yet shared, so taking its
            // mutex while holding the map write lock cannot block —
            // which is also why this acquisition is the untraced
            // fresh-record variant: it inverts the campaign→shard order
            // on purpose, and is safe only because no other thread can
            // reach this record until `map.insert` below publishes it.
            campaign.count(&mut lock_state_fresh(&campaign));
            map.insert(id, Arc::clone(&campaign))
        })
    }

    /// Remove the record at `id` entirely (no tombstone), uncounting
    /// it. Returns whether a record existed.
    pub fn remove(&self, id: CampaignId) -> bool {
        self.with_entry(id, |entry, map| match entry {
            Some((old, old_state)) => {
                old.uncount(old_state);
                map.remove(&id);
                true
            }
            None => false,
        })
    }

    /// Every record, unordered (callers sort by id where it matters).
    pub fn records(&self) -> Vec<(CampaignId, Arc<Campaign>)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let _witness = lockcheck::acquire(lockcheck::SHARD_MAP, "scan");
            let map = shard.map.read().expect("campaign shard lock poisoned");
            out.extend(map.iter().map(|(id, c)| (*id, Arc::clone(c))));
        }
        out
    }

    /// Every registered id, unordered.
    pub fn ids(&self) -> Vec<CampaignId> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let _witness = lockcheck::acquire(lockcheck::SHARD_MAP, "scan");
            let map = shard.map.read().expect("campaign shard lock poisoned");
            out.extend(map.keys().copied());
        }
        out
    }

    /// Campaign counts bucketed by lifecycle status, in enum order —
    /// a `6 × N`-atomic sum, no map walk, no shard lock.
    pub fn status_counts(&self) -> [(CampaignStatus, usize); 6] {
        let mut counts = [
            (CampaignStatus::Draft, 0),
            (CampaignStatus::Solving, 0),
            (CampaignStatus::Live, 0),
            (CampaignStatus::Recalibrating, 0),
            (CampaignStatus::Exhausted, 0),
            (CampaignStatus::Evicted, 0),
        ];
        for shard in self.shards.iter() {
            for (i, slot) in shard.stats.by_status.iter().enumerate() {
                // ORDERING: Acquire pairs with the AcqRel updates in
                // `adjust`; concurrent transitions may still land
                // between cells, so the sweep clamps transient
                // negatives rather than claiming exactness.
                counts[i].1 += slot.load(Ordering::Acquire).max(0) as usize;
            }
        }
        counts
    }

    /// Total records (tombstones included) — the counter-derived twin
    /// of `ids().len()`.
    pub fn total_records(&self) -> usize {
        self.status_counts().iter().map(|(_, n)| n).sum()
    }

    /// Non-evicted records, from the counters.
    pub fn len_serving(&self) -> usize {
        self.status_counts()
            .iter()
            .filter(|(s, _)| *s != CampaignStatus::Evicted)
            .map(|(_, n)| n)
            .sum()
    }
}

/// A campaign writer-mutex guard carrying its lockcheck witness token
/// (zero-sized in default builds). Derefs to [`CampaignState`].
pub(super) struct StateGuard<'a> {
    guard: MutexGuard<'a, CampaignState>,
    /// Declared after `guard` so the mutex releases first and the
    /// witness entry is removed second — the held-stack never claims a
    /// lock that was already dropped out from under it. `None` for the
    /// documented fresh-record exception ([`lock_state_fresh`]).
    _witness: Option<lockcheck::Held>,
}

impl Deref for StateGuard<'_> {
    type Target = CampaignState;
    fn deref(&self) -> &CampaignState {
        &self.guard
    }
}

impl DerefMut for StateGuard<'_> {
    fn deref_mut(&mut self) -> &mut CampaignState {
        &mut self.guard
    }
}

/// Lock a campaign's writer mutex, tracing the acquisition through the
/// lock-order witness under `--cfg lockcheck`. Every shared-record
/// acquisition of [`Campaign::state`] must come through here — the one
/// exception is [`ShardedStore::insert`]'s fresh, not-yet-published
/// record (see the comment there).
pub(super) fn lock_state(campaign: &Campaign) -> StateGuard<'_> {
    // Record the intent before blocking: if the inversion has already
    // deadlocked us, the witness panics instead of hanging forever.
    let witness = lockcheck::acquire(lockcheck::CAMPAIGN_STATE, "state");
    StateGuard {
        guard: campaign.state.lock().expect("campaign lock poisoned"),
        _witness: Some(witness),
    }
}

/// [`lock_state`] for a record **no other thread can reach yet** (fresh
/// construction before `map.insert` publishes it, snapshot restore).
/// Deliberately untraced: the campaign→shard order is inverted at these
/// sites on purpose, and it is safe only because the mutex can never be
/// contended — misusing this on a published record is exactly the class
/// of bug the witness exists to catch, so keep its call sites few and
/// obviously fresh.
pub(super) fn lock_state_fresh(campaign: &Campaign) -> StateGuard<'_> {
    StateGuard {
        guard: campaign.state.lock().expect("campaign lock poisoned"),
        _witness: None,
    }
}
