//! The sharded campaign store: `N` independently locked id→record maps.
//!
//! The registry used to keep every campaign behind one global
//! `RwLock<HashMap>`; at fleet scale that lock is on *every* quote,
//! observe, solve and eviction. [`ShardedStore`] routes each id to one
//! of `N` shards by a multiplicative hash, so operations on different
//! campaigns contend only when they land on the same shard, and the
//! quote hot path takes exactly one shard read lock for its map lookup.
//!
//! Fleet-level aggregates (`/healthz` status counts, `campaigns_total`)
//! are read off the maps themselves: [`ShardedStore::status_counts`]
//! takes each shard's read lock in turn and tallies its records'
//! statuses, so there is no second record of status to keep in step.
//!
//! Status changes happen under the campaign's writer mutex
//! ([`Campaign::state`]). Map membership changes go through
//! [`ShardedStore::with_entry`], which establishes the lock order
//! **campaign writer mutex → shard map write lock**, so a replacement
//! can retire the outgoing record without ever blocking the quote path
//! behind a solve.

use super::engine::CampaignEngine;
use super::{CampaignPolicy, CampaignSpec, CampaignStatus, PolicyGeneration};
use crate::error::CampaignId;
use crate::lockcheck;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Writer-side state of a campaign (everything behind its mutex).
pub(super) struct CampaignState {
    pub spec: CampaignSpec,
    /// `None` for Draft/Solving/Evicted records (nothing solved, or the
    /// policy dropped).
    pub engine: Option<Box<dyn CampaignEngine>>,
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
}

impl Campaign {
    pub fn new(spec: CampaignSpec) -> Self {
        Self {
            status: AtomicU8::new(CampaignStatus::Draft as u8),
            state: Mutex::new(CampaignState { spec, engine: None }),
            live: RwLock::new(None),
        }
    }

    pub fn status(&self) -> CampaignStatus {
        // ORDERING: Acquire pairs with the Release in `transition` — a
        // reader that routes on the status also sees the state the
        // transition published.
        CampaignStatus::from_u8(self.status.load(Ordering::Acquire))
    }

    /// Move to `new`. The caller must hold the campaign's writer mutex
    /// (pass the guard's target) — that is what serializes status
    /// changes per campaign.
    pub fn transition(&self, _state: &CampaignState, new: CampaignStatus) {
        // ORDERING: Release pairs with the Acquire in `status`; the
        // writer mutex serializes writers, but `status()` readers take
        // no lock.
        self.status.store(new as u8, Ordering::Release);
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

/// One shard: an id→record map behind its own lock.
type Shard = RwLock<HashMap<CampaignId, Arc<Campaign>>>;

/// The sharded concurrent campaign store.
pub(super) struct ShardedStore {
    shards: Box<[Shard]>,
}

impl ShardedStore {
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `id` routes to. Sequential ids (the registry hands
    /// them out from a counter) must spread evenly, hence the
    /// multiplicative mix before the modulo.
    fn shard(&self, id: CampaignId) -> &Shard {
        let mixed = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(mixed as usize) % self.shards.len()]
    }

    /// Hot-path lookup: one shard read lock.
    pub fn get(&self, id: CampaignId) -> Option<Arc<Campaign>> {
        let _witness = lockcheck::acquire(lockcheck::SHARD_MAP, "read");
        self.shard(id)
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
                    .read()
                    .expect("campaign shard lock poisoned")
                    .get(&id)
                    .cloned()
            };
            let mut old_state = old.as_ref().map(|old| lock_state(old));
            let map_witness = lockcheck::acquire(lockcheck::SHARD_MAP, "write");
            let mut map = shard.write().expect("campaign shard lock poisoned");
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

    /// Insert (or replace) the record at `id`. The outgoing record is
    /// **retired** (engine dropped, generation cleared, status Evicted)
    /// so detached handles fetched just before the swap can't keep
    /// serving or mutating an orphan. Returns the replaced record, if
    /// any.
    pub fn insert(&self, id: CampaignId, campaign: Arc<Campaign>) -> Option<Arc<Campaign>> {
        self.with_entry(id, |entry, map| {
            if let Some((old, old_state)) = entry {
                old_state.engine = None;
                *old.live.write().expect("campaign generation lock poisoned") = None;
                old.transition(old_state, CampaignStatus::Evicted);
            }
            map.insert(id, campaign)
        })
    }

    /// Remove the record at `id` entirely (no tombstone). Returns
    /// whether a record existed.
    pub fn remove(&self, id: CampaignId) -> bool {
        self.with_entry(id, |_, map| map.remove(&id).is_some())
    }

    /// Every record, unordered (callers sort by id where it matters).
    pub fn records(&self) -> Vec<(CampaignId, Arc<Campaign>)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let _witness = lockcheck::acquire(lockcheck::SHARD_MAP, "scan");
            let map = shard.read().expect("campaign shard lock poisoned");
            out.extend(map.iter().map(|(id, c)| (*id, Arc::clone(c))));
        }
        out
    }

    /// Every registered id, unordered.
    pub fn ids(&self) -> Vec<CampaignId> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let _witness = lockcheck::acquire(lockcheck::SHARD_MAP, "scan");
            let map = shard.read().expect("campaign shard lock poisoned");
            out.extend(map.keys().copied());
        }
        out
    }

    /// Campaign counts bucketed by lifecycle status, in enum order:
    /// each shard's read lock in turn, tallying its records' statuses.
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
            let _witness = lockcheck::acquire(lockcheck::SHARD_MAP, "scan");
            let map = shard.read().expect("campaign shard lock poisoned");
            for campaign in map.values() {
                counts[campaign.status() as usize].1 += 1;
            }
        }
        counts
    }

    /// Total records (tombstones included).
    pub fn total_records(&self) -> usize {
        self.status_counts().iter().map(|(_, n)| n).sum()
    }

    /// Non-evicted records.
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
    /// lock that was already dropped out from under it.
    _witness: lockcheck::Held,
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
/// lock-order witness under `--cfg lockcheck`. Every acquisition of
/// [`Campaign::state`] must come through here.
pub(super) fn lock_state(campaign: &Campaign) -> StateGuard<'_> {
    // Record the intent before blocking: if the inversion has already
    // deadlocked us, the witness panics instead of hanging forever.
    let witness = lockcheck::acquire(lockcheck::CAMPAIGN_STATE, "state");
    StateGuard {
        guard: campaign.state.lock().expect("campaign lock poisoned"),
        _witness: witness,
    }
}
