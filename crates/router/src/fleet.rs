//! Fleet membership, campaign placement, and the snapshot-based
//! migration machinery.
//!
//! The fleet is a fixed table of backend addresses (index = stable
//! node id) plus a private `Membership` the request path reads under an
//! `RwLock`: which nodes are alive, which are draining, and the
//! consistent-hash [`Ring`] over the live set. Membership changes
//! (planned drain, unplanned failover) take the write lock for the
//! whole flip — **including the snapshot restores** — so a request
//! routed after the flip always finds its campaign on the new owner:
//! in-flight quotes wait out the flip instead of racing it to a 404.
//!
//! ## Two migration paths
//!
//! - **Planned drain** (`drain_node`): mark the node draining (the
//!   router answers mutations for its campaigns `503 draining`, quotes
//!   keep flowing), drain the backend itself (`POST /admin/drain`, so
//!   nothing can move a generation), snapshot every campaign **from
//!   node truth** at its exact generation, then flip the ring and
//!   restore each document onto its new owner. Lossless: engine state,
//!   recalibration history and generation move bit-for-bit.
//! - **Unplanned failover** (`fail_node`): on a connection failure the
//!   node is probed once; if truly dead the ring flips and the
//!   campaigns it owned are restored from the router's **snapshot
//!   cache** — the checkpoint taken at create/solve/recalibration.
//!   Observations recorded after the last checkpoint die with the
//!   node (documented at-least-once caveat); generations never tear
//!   because checkpoints are whole documents captured under the
//!   campaign's writer lock.
//!
//! Lock order: `membership` before `snapshots` — never the reverse.

use crate::ring::Ring;
use crate::telemetry::RouterTelemetry;
use ft_server::client;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

struct Membership {
    alive: Vec<bool>,
    draining: Vec<bool>,
    ring: Ring,
}

impl Membership {
    fn alive_indices(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&n| self.alive[n]).collect()
    }
}

pub struct Fleet {
    backends: Vec<SocketAddr>,
    membership: RwLock<Membership>,
    /// Last known-good snapshot document per campaign (the failover
    /// checkpoint). Refreshed on create, solve, recalibration and
    /// drain; dropped on delete.
    snapshots: Mutex<HashMap<u64, String>>,
    next_id: AtomicU64,
    pub telemetry: RouterTelemetry,
}

impl Fleet {
    pub fn new(backends: Vec<SocketAddr>) -> Self {
        assert!(!backends.is_empty(), "a fleet needs at least one backend");
        let nodes: Vec<usize> = (0..backends.len()).collect();
        let telemetry = RouterTelemetry::new();
        telemetry.nodes_alive.set(backends.len() as i64);
        Self {
            membership: RwLock::new(Membership {
                alive: vec![true; backends.len()],
                draining: vec![false; backends.len()],
                ring: Ring::build(&nodes),
            }),
            backends,
            snapshots: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            telemetry,
        }
    }

    pub fn backends(&self) -> &[SocketAddr] {
        &self.backends
    }

    pub fn addr(&self, node: usize) -> SocketAddr {
        self.backends[node]
    }

    /// A fresh fleet-unique campaign id (the router owns the id space;
    /// backends register under router-chosen ids).
    pub fn allocate_id(&self) -> u64 {
        // ORDERING: Relaxed — a unique-id dispenser; only atomicity
        // matters.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Current owner of a campaign id, or `None` when no backend is
    /// routable.
    pub fn owner(&self, id: u64) -> Option<usize> {
        let m = self.membership.read().expect("membership lock poisoned");
        m.ring.route(id)
    }

    /// Owner plus its draining flag, read under one lock so the pair
    /// is consistent.
    pub fn owner_with_drain(&self, id: u64) -> Option<(usize, bool)> {
        let m = self.membership.read().expect("membership lock poisoned");
        m.ring.route(id).map(|node| (node, m.draining[node]))
    }

    /// Live nodes, as `(index, addr)` pairs.
    pub fn alive_nodes(&self) -> Vec<(usize, SocketAddr)> {
        let m = self.membership.read().expect("membership lock poisoned");
        m.alive_indices()
            .into_iter()
            .map(|n| (n, self.backends[n]))
            .collect()
    }

    /// Per-node status rows for `GET /fleet`.
    pub fn status(&self) -> Vec<(usize, SocketAddr, bool, bool)> {
        let m = self.membership.read().expect("membership lock poisoned");
        (0..self.backends.len())
            .map(|n| (n, self.backends[n], m.alive[n], m.draining[n]))
            .collect()
    }

    pub fn cache_snapshot(&self, id: u64, doc: String) {
        self.snapshots
            .lock()
            .expect("snapshot cache lock poisoned")
            .insert(id, doc);
    }

    pub fn cached(&self, id: u64) -> Option<String> {
        self.snapshots
            .lock()
            .expect("snapshot cache lock poisoned")
            .get(&id)
            .cloned()
    }

    pub fn drop_snapshot(&self, id: u64) {
        self.snapshots
            .lock()
            .expect("snapshot cache lock poisoned")
            .remove(&id);
    }

    /// Restore a campaign's cached checkpoint onto its current owner —
    /// the safety net for a backend answering 404 for a campaign the
    /// router knows (a restore that raced a crash, or a missed flip).
    /// Returns false when there is no checkpoint or no owner.
    pub fn restore_to_owner(&self, id: u64) -> bool {
        let Some(doc) = self.cached(id) else {
            return false;
        };
        let Some(node) = self.owner(id) else {
            return false;
        };
        let restored = client::request(
            self.backends[node],
            "POST",
            "/campaigns/restore",
            Some(&doc),
        )
        .map(|(status, _)| status == 200)
        .unwrap_or(false);
        if restored {
            self.telemetry.restores.inc();
        }
        restored
    }

    /// Unplanned failover: called when a proxy send to `node` failed at
    /// the transport level. Probes the node once (a refused request is
    /// not always a dead node); if it is really gone, flips the ring
    /// and restores the dead node's campaigns from the snapshot cache
    /// onto their new owners, all under the membership write lock so
    /// no request routes into the gap. Returns true when the node is
    /// (now) out of the fleet, false when the node looks healthy.
    pub fn fail_node(&self, node: usize) -> bool {
        {
            let m = self.membership.read().expect("membership lock poisoned");
            if !m.alive[node] {
                return true; // another worker already flipped
            }
        }
        if let Ok((status, _)) = client::request(self.backends[node], "GET", "/healthz", None) {
            if status == 200 {
                return false; // transient: don't evict a healthy node
            }
        }
        let _span = ft_trace::span("router.fleet.failover");
        let mut m = self.membership.write().expect("membership lock poisoned");
        if !m.alive[node] {
            return true;
        }
        let old_ring = m.ring.clone();
        m.alive[node] = false;
        m.draining[node] = false;
        m.ring = Ring::build(&m.alive_indices());
        self.telemetry.failovers.inc();
        self.telemetry
            .nodes_alive
            .set(m.alive_indices().len() as i64);
        // Re-home every checkpointed campaign the dead node owned.
        // Still under the write lock: a quote for one of these ids
        // blocks on `owner()` until its campaign is on the survivor.
        let docs: Vec<(u64, String)> = {
            let snapshots = self.snapshots.lock().expect("snapshot cache lock poisoned");
            snapshots
                .iter()
                .filter(|(id, _)| old_ring.route(**id) == Some(node))
                .map(|(id, doc)| (*id, doc.clone()))
                .collect()
        };
        for (id, doc) in docs {
            let Some(new_owner) = m.ring.route(id) else {
                continue;
            };
            let ok = client::request(
                self.backends[new_owner],
                "POST",
                "/campaigns/restore",
                Some(&doc),
            )
            .map(|(status, _)| status == 200)
            .unwrap_or(false);
            if ok {
                self.telemetry.restores.inc();
            }
        }
        true
    }

    /// Planned migration: empty `node` and flip it out of the ring with
    /// zero loss. See the module docs for the phase layout. On success
    /// returns the migrated campaign ids; on failure the node is left
    /// alive and undrained, and the error is `(status, message)` for
    /// the HTTP reply.
    pub fn drain_node(&self, node: usize) -> Result<Vec<u64>, (u16, String)> {
        let _span = ft_trace::span("router.fleet.drain");
        // Phase A: mark draining — from here the router rejects
        // mutations for this node's campaigns with a retryable 503.
        {
            let mut m = self.membership.write().expect("membership lock poisoned");
            if node >= self.backends.len() || !m.alive[node] {
                return Err((404, format!("node {node} is not a live fleet member")));
            }
            if m.draining[node] {
                return Err((409, format!("node {node} is already draining")));
            }
            if m.alive_indices().len() == 1 {
                return Err((409, "cannot drain the last live node".to_string()));
            }
            m.draining[node] = true;
        }
        let addr = self.backends[node];
        let undrain = |message: String| {
            let mut m = self.membership.write().expect("membership lock poisoned");
            m.draining[node] = false;
            let _ = client::request(addr, "POST", "/admin/resume", None);
            Err((502, message))
        };
        // Phase B: drain the backend itself — nothing can move a
        // generation on this node from here on.
        match client::request(addr, "POST", "/admin/drain", None) {
            Ok((200, _)) => {}
            Ok((status, _)) => return undrain(format!("node {node} drain answered {status}")),
            Err(e) => return undrain(format!("node {node} drain failed: {e}")),
        }
        // Phase C: snapshot node truth — every campaign at its exact,
        // now-frozen generation.
        let ids = match list_node_campaigns(addr) {
            Ok(ids) => ids,
            Err(e) => return undrain(format!("node {node} census failed: {e}")),
        };
        let mut docs = Vec::with_capacity(ids.len());
        for id in ids {
            match client::request(addr, "GET", &format!("/campaigns/{id}/snapshot"), None) {
                Ok((200, doc)) => docs.push((id, doc)),
                Ok((status, _)) => {
                    return undrain(format!("node {node} snapshot of {id} answered {status}"))
                }
                Err(e) => return undrain(format!("node {node} snapshot of {id} failed: {e}")),
            }
        }
        // Phase D: flip the ring and restore onto survivors, under the
        // write lock so no request routes into the gap.
        let mut m = self.membership.write().expect("membership lock poisoned");
        m.alive[node] = false;
        m.draining[node] = false;
        m.ring = Ring::build(&m.alive_indices());
        self.telemetry
            .nodes_alive
            .set(m.alive_indices().len() as i64);
        let mut moved = Vec::with_capacity(docs.len());
        let mut failed = Vec::new();
        for (id, doc) in docs {
            let Some(new_owner) = m.ring.route(id) else {
                failed.push(id);
                continue;
            };
            let ok = client::request(
                self.backends[new_owner],
                "POST",
                "/campaigns/restore",
                Some(&doc),
            )
            .map(|(status, _)| status == 200)
            .unwrap_or(false);
            if ok {
                self.telemetry.restores.inc();
                self.cache_snapshot(id, doc);
                moved.push(id);
            } else {
                failed.push(id);
            }
        }
        if !failed.is_empty() {
            return Err((
                502,
                format!("migration incomplete: campaigns {failed:?} failed to restore"),
            ));
        }
        Ok(moved)
    }
}

/// Every campaign id on one node, straight from its `GET /campaigns`.
fn list_node_campaigns(addr: SocketAddr) -> Result<Vec<u64>, String> {
    let (status, body) =
        client::request(addr, "GET", "/campaigns", None).map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("campaign index answered {status}"));
    }
    let value: serde::Value = serde_json::from_str(&body).map_err(|e| e.to_string())?;
    let fields = value.as_map().ok_or("campaign index: not an object")?;
    let campaigns = serde::map_get(fields, "campaigns")
        .map_err(|e| e.to_string())?
        .as_seq()
        .ok_or("campaign index: `campaigns` not an array")?;
    let mut ids = Vec::with_capacity(campaigns.len());
    for entry in campaigns {
        let fields = entry
            .as_map()
            .ok_or("campaign index: entry not an object")?;
        let id = serde::map_get(fields, "id")
            .ok()
            .and_then(|v| v.as_num())
            .ok_or("campaign index: entry without id")?;
        ids.push(id as u64);
    }
    Ok(ids)
}
