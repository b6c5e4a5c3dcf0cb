//! Versioned snapshot persistence for the campaign registry.
//!
//! A snapshot captures every campaign — spec, status, generation,
//! observation history, drift state *and the solved policy tables* — so
//! a restarted server resumes each live campaign at its exact
//! generation without re-solving.
//!
//! ## Format versions
//!
//! The document carries a `format_version` field and the loader
//! dispatches on it:
//!
//! - **v1** (pre-engine-trait): budget campaigns persisted only
//!   progress counters (they could not recalibrate). Still loads —
//!   budget campaigns come back with a fresh (identity) drift state.
//! - **v2** (current): budget campaigns additionally persist their
//!   acceptance-drift machinery (cumulative scale, windowed history,
//!   correction, cadence counter).
//!
//! Writers always emit the current version; the per-version structs
//! below are kept verbatim so old documents parse with the strict
//! field-by-field vendored serde.

use super::engine::{BudgetEngine, CampaignEngine, DeadlineEngine};
use super::store::{lock_state, Campaign};
use super::{CampaignPolicy, CampaignRegistry, CampaignSpec, CampaignStatus, RegistryConfig};
use crate::adaptive::{AdaptiveOptions, AdaptivePricer};
use crate::budget::BudgetMdpPolicy;
use crate::error::{PricingError, Result};
use crate::kernel::KernelConfig;
use crate::policy::DeadlinePolicy;
use serde::{map_get, Deserialize, Serialize, Value};
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// On-disk snapshot format version; bump on layout changes and keep a
/// loader for every version ever written.
pub const SNAPSHOT_VERSION: u32 = 2;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Snapshot {
    format_version: u32,
    next_id: u64,
    campaigns: Vec<PersistedCampaign>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct PersistedCampaign {
    id: u64,
    spec: CampaignSpec,
    status: CampaignStatus,
    generation: u64,
    engine: PersistedEngine,
}

/// The engine wire form ([`CampaignEngine::snapshot`] output).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(super) enum PersistedEngine {
    Unsolved,
    Deadline {
        opts: AdaptiveOptions,
        history: Vec<(f64, u64)>,
        correction: f64,
        policy: DeadlinePolicy,
        policy_start: usize,
        remaining: u32,
    },
    Budget {
        policy: BudgetMdpPolicy,
        remaining: u32,
        spent_cents: usize,
        observations: usize,
        /// Cumulative logit shift baked into the serving policy.
        shift: f64,
        /// `(model_accept, offers, completions)` drift window.
        history: Vec<(f64, u64, u64)>,
        correction: f64,
        reports_since_resolve: usize,
    },
}

// ---- v1 (legacy) -----------------------------------------------------

/// The pre-versioning layout (`format_version: 1`). Kept field-for-field
/// so old documents parse; `Serialize` stays derived so the compat test
/// can fabricate genuine v1 documents.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SnapshotV1 {
    format_version: u32,
    next_id: u64,
    campaigns: Vec<PersistedCampaignV1>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct PersistedCampaignV1 {
    id: u64,
    spec: CampaignSpec,
    status: CampaignStatus,
    generation: u64,
    engine: PersistedEngineV1,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum PersistedEngineV1 {
    Unsolved,
    Deadline {
        opts: AdaptiveOptions,
        history: Vec<(f64, u64)>,
        correction: f64,
        policy: DeadlinePolicy,
        policy_start: usize,
        remaining: u32,
    },
    Budget {
        policy: BudgetMdpPolicy,
        remaining: u32,
        spent_cents: usize,
        observations: usize,
    },
}

impl From<PersistedEngineV1> for PersistedEngine {
    fn from(v1: PersistedEngineV1) -> Self {
        match v1 {
            PersistedEngineV1::Unsolved => PersistedEngine::Unsolved,
            PersistedEngineV1::Deadline {
                opts,
                history,
                correction,
                policy,
                policy_start,
                remaining,
            } => PersistedEngine::Deadline {
                opts,
                history,
                correction,
                policy,
                policy_start,
                remaining,
            },
            // v1 budget campaigns never recalibrated: identity drift
            // state, ready to start accumulating signal.
            PersistedEngineV1::Budget {
                policy,
                remaining,
                spent_cents,
                observations,
            } => PersistedEngine::Budget {
                policy,
                remaining,
                spent_cents,
                observations,
                shift: 0.0,
                history: Vec::new(),
                correction: 1.0,
                reports_since_resolve: 0,
            },
        }
    }
}

impl CampaignRegistry {
    /// Serialize every campaign to a JSON snapshot (current format
    /// version).
    pub fn to_json(&self) -> Result<String> {
        // Snapshot the id → record handles first and release the shard
        // locks: a campaign mid-recalibration holds its writer lock for
        // a whole solve, and blocking on it while holding a map lock
        // would stall that shard's registrations (and, on
        // writer-preferring RwLocks, its quote hot path) for that long.
        let mut records = self.store().records();
        records.sort_unstable_by_key(|(id, _)| *id);
        let mut persisted = Vec::with_capacity(records.len());
        for (id, campaign) in records {
            persisted.push(Self::persist_campaign(id, &campaign)?);
        }
        let snapshot = Snapshot {
            format_version: SNAPSHOT_VERSION,
            next_id: self.next_id_value(),
            campaigns: persisted,
        };
        serde_json::to_string(&snapshot)
            .map_err(|e| PricingError::InvalidProblem(format!("snapshot serialize: {e}")))
    }

    /// Serialize **one** campaign as a complete single-campaign
    /// snapshot document (same wire format as
    /// [`CampaignRegistry::to_json`], `campaigns` holding exactly one
    /// entry) — the unit of fleet migration: a router drains a node,
    /// pulls each campaign this way at its exact generation, and feeds
    /// the document to [`CampaignRegistry::restore_json`] on the
    /// receiving node.
    pub fn campaign_to_json(&self, id: u64) -> Result<String> {
        let campaign = self
            .store()
            .get(id)
            .ok_or(PricingError::UnknownCampaign(id))?;
        let snapshot = Snapshot {
            format_version: SNAPSHOT_VERSION,
            next_id: self.next_id_value(),
            campaigns: vec![Self::persist_campaign(id, &campaign)?],
        };
        serde_json::to_string(&snapshot)
            .map_err(|e| PricingError::InvalidProblem(format!("snapshot serialize: {e}")))
    }

    /// One campaign's wire form, captured under its writer lock so the
    /// engine state and generation are mutually consistent (no torn
    /// generation: a concurrent recalibration either fully precedes or
    /// fully follows this capture).
    fn persist_campaign(id: u64, campaign: &Arc<Campaign>) -> Result<PersistedCampaign> {
        let state = lock_state(campaign);
        let current = campaign.generation();
        let generation = current.as_ref().map_or(0, |g| g.generation);
        let engine = match state.engine.as_deref() {
            None => PersistedEngine::Unsolved,
            Some(engine) => engine.snapshot(id, current.as_ref().map(|g| &*g.policy))?,
        };
        Ok(PersistedCampaign {
            id,
            spec: state.spec.clone(),
            status: campaign.status(),
            generation,
            engine,
        })
    }

    /// Rebuild a registry from [`CampaignRegistry::to_json`] output —
    /// any format version ever written. Live campaigns resume at their
    /// persisted generation without re-solving; campaigns that were
    /// mid-solve come back as drafts.
    pub fn from_json(json: &str, cfg: KernelConfig, adaptive: AdaptiveOptions) -> Result<Self> {
        Self::from_json_config(
            json,
            RegistryConfig {
                kernel: cfg,
                adaptive,
                ..RegistryConfig::default()
            },
        )
    }

    /// [`CampaignRegistry::from_json`] with full registry configuration
    /// (shard count, budget drift policy).
    pub fn from_json_config(json: &str, config: RegistryConfig) -> Result<Self> {
        let snapshot = Self::parse_snapshot(json)?;
        let registry = Self::with_registry_config(config);
        registry.revive_all(snapshot)?;
        Ok(registry)
    }

    /// Restore every campaign in a snapshot document **into this
    /// registry**, replacing any records already at those ids (readers
    /// mid-flight on a replaced id re-resolve onto the new record).
    /// Campaigns resume at their exact persisted generation; the id
    /// dispenser advances past the document's. Returns the restored
    /// ids — the receiving side of a
    /// drain → snapshot → restore → flip migration.
    pub fn restore_json(&self, json: &str) -> Result<Vec<u64>> {
        let snapshot = Self::parse_snapshot(json)?;
        self.revive_all(snapshot)
    }

    /// Parse any snapshot version ever written into the current form.
    fn parse_snapshot(json: &str) -> Result<Snapshot> {
        let document: Value = serde_json::from_str(json)
            .map_err(|e| PricingError::InvalidProblem(format!("snapshot parse: {e}")))?;
        let fields = document
            .as_map()
            .ok_or_else(|| PricingError::InvalidProblem("snapshot: not an object".into()))?;
        let version = map_get(fields, "format_version")
            .ok()
            .and_then(Value::as_num)
            .ok_or_else(|| {
                PricingError::InvalidProblem("snapshot: missing format_version".into())
            })? as u32;
        let snapshot = match version {
            1 => {
                let v1 = SnapshotV1::from_value(&document).map_err(|e| {
                    PricingError::InvalidProblem(format!("snapshot parse (v1): {e}"))
                })?;
                Snapshot {
                    format_version: SNAPSHOT_VERSION,
                    next_id: v1.next_id,
                    campaigns: v1
                        .campaigns
                        .into_iter()
                        .map(|c| PersistedCampaign {
                            id: c.id,
                            spec: c.spec,
                            status: c.status,
                            generation: c.generation,
                            engine: c.engine.into(),
                        })
                        .collect(),
                }
            }
            SNAPSHOT_VERSION => Snapshot::from_value(&document)
                .map_err(|e| PricingError::InvalidProblem(format!("snapshot parse (v2): {e}")))?,
            other => {
                return Err(PricingError::InvalidProblem(format!(
                    "snapshot format {other} unsupported (newest is {SNAPSHOT_VERSION})"
                )))
            }
        };
        Ok(snapshot)
    }

    /// Rebuild and insert every campaign in `snapshot`, then advance
    /// the id dispenser past everything seen (shared by full-registry
    /// loads and per-campaign restores).
    fn revive_all(&self, snapshot: Snapshot) -> Result<Vec<u64>> {
        let mut restored = Vec::with_capacity(snapshot.campaigns.len());
        let mut max_id = 0u64;
        for persisted in snapshot.campaigns {
            let id = persisted.id;
            max_id = max_id.max(id);
            self.revive_campaign(persisted)?;
            restored.push(id);
        }
        self.bump_next_id(snapshot.next_id.max(max_id.saturating_add(1)));
        Ok(restored)
    }

    /// Rebuild one persisted campaign and insert it (replacing any
    /// record at that id).
    fn revive_campaign(&self, persisted: PersistedCampaign) -> Result<()> {
        let id = persisted.id;
        // A snapshot is wire input too (`POST /campaigns/restore`): its
        // spec passes the checks a created one does before any engine
        // is built from it.
        persisted.spec.validate()?;
        let campaign = Arc::new(Campaign::new(persisted.spec));
        let status = match persisted.status {
            // A solve or recalibration that was in flight at
            // snapshot time produced nothing durable.
            CampaignStatus::Solving => CampaignStatus::Draft,
            CampaignStatus::Recalibrating => CampaignStatus::Live,
            s => s,
        };
        let engine: Option<Box<dyn CampaignEngine>> = match persisted.engine {
            PersistedEngine::Unsolved => None,
            PersistedEngine::Deadline {
                opts,
                history,
                correction,
                policy,
                policy_start,
                remaining,
            } => {
                let problem = {
                    let state = lock_state(&campaign);
                    match &state.spec {
                        CampaignSpec::Deadline { problem, .. } => problem.clone(),
                        CampaignSpec::Budget { .. } => {
                            return Err(PricingError::InvalidProblem(format!(
                                "campaign {id}: deadline engine on a budget spec"
                            )))
                        }
                    }
                };
                let pricer = AdaptivePricer::from_parts(
                    problem,
                    opts,
                    history,
                    correction,
                    policy.clone(),
                    policy_start,
                )?;
                campaign.publish(
                    persisted.generation,
                    policy_start,
                    Arc::new(CampaignPolicy::Deadline(policy)),
                );
                Some(Box::new(DeadlineEngine {
                    pricer: Box::new(pricer),
                    remaining,
                }))
            }
            PersistedEngine::Budget {
                policy,
                remaining,
                spent_cents,
                observations,
                shift,
                history,
                correction,
                reports_since_resolve,
            } => {
                let problem = {
                    let state = lock_state(&campaign);
                    match &state.spec {
                        CampaignSpec::Budget { problem } => problem.clone(),
                        CampaignSpec::Deadline { .. } => {
                            return Err(PricingError::InvalidProblem(format!(
                                "campaign {id}: budget engine on a deadline spec"
                            )))
                        }
                    }
                };
                let engine = BudgetEngine::from_parts(
                    problem,
                    self.config().budget_drift,
                    remaining,
                    spent_cents,
                    observations,
                    shift,
                    history,
                    correction,
                    reports_since_resolve,
                )?;
                campaign.publish(
                    persisted.generation,
                    0,
                    Arc::new(CampaignPolicy::Budget(policy)),
                );
                Some(Box::new(engine))
            }
        };
        {
            let mut state = lock_state(&campaign);
            state.engine = engine;
            if status == CampaignStatus::Evicted {
                // Tombstone: spec stays readable, machinery dropped.
                state.engine = None;
                *campaign
                    .live
                    .write()
                    .expect("campaign generation lock poisoned") = None;
            }
            campaign.transition(&state, status);
        }
        self.store().insert(id, campaign);
        Ok(())
    }

    /// Write a snapshot to `path` (see [`CampaignRegistry::to_json`]),
    /// replacing any previous one atomically: the document goes to a
    /// sibling temp file that is fsynced and renamed over `path`, then
    /// the directory is fsynced so the rename survives a crash too. A
    /// crash mid-write leaves the previous snapshot whole.
    pub fn save(&self, path: &Path) -> Result<()> {
        let json = self.to_json()?;
        replace_file(path, json.as_bytes())
            .map_err(|e| PricingError::InvalidProblem(format!("snapshot write: {e}")))
    }

    /// Load a snapshot written by [`CampaignRegistry::save`] (any
    /// format version).
    pub fn load(path: &Path, cfg: KernelConfig, adaptive: AdaptiveOptions) -> Result<Self> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| PricingError::InvalidProblem(format!("snapshot read: {e}")))?;
        Self::from_json(&json, cfg, adaptive)
    }
}

/// Temp-file, fsync, rename, fsync-the-directory. The temp name is
/// unique per call, so concurrent saves to one path cannot write into
/// each other's file; the last rename wins.
fn replace_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    // ORDERING: Relaxed — the counter only makes temp names unique;
    // nothing is published through it.
    let save = SAVES.fetch_add(1, Ordering::Relaxed);
    let mut temp_name = path.file_name().unwrap_or_default().to_os_string();
    temp_name.push(format!(".{}.{save}.tmp", std::process::id()));
    let temp = path.with_file_name(temp_name);
    let written = File::create(&temp).and_then(|mut file| {
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&temp, path)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&temp);
    }
    written?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::super::{CampaignObservation, ObservedState};
    use super::*;
    use crate::testkit::tiny_budget_problem;

    /// Render the registry in the **v1** wire format — what a
    /// pre-versioning deployment would have on disk. Budget drift state
    /// is dropped, exactly as v1 writers dropped it.
    fn to_v1_json(registry: &CampaignRegistry) -> String {
        let v2: Value = serde_json::from_str(&registry.to_json().unwrap()).unwrap();
        let parsed = Snapshot::from_value(&v2).unwrap();
        let v1 = SnapshotV1 {
            format_version: 1,
            next_id: parsed.next_id,
            campaigns: parsed
                .campaigns
                .into_iter()
                .map(|c| PersistedCampaignV1 {
                    id: c.id,
                    spec: c.spec,
                    status: c.status,
                    generation: c.generation,
                    engine: match c.engine {
                        PersistedEngine::Unsolved => PersistedEngineV1::Unsolved,
                        PersistedEngine::Deadline {
                            opts,
                            history,
                            correction,
                            policy,
                            policy_start,
                            remaining,
                        } => PersistedEngineV1::Deadline {
                            opts,
                            history,
                            correction,
                            policy,
                            policy_start,
                            remaining,
                        },
                        PersistedEngine::Budget {
                            policy,
                            remaining,
                            spent_cents,
                            observations,
                            ..
                        } => PersistedEngineV1::Budget {
                            policy,
                            remaining,
                            spent_cents,
                            observations,
                        },
                    },
                })
                .collect(),
        };
        serde_json::to_string(&v1.to_value()).unwrap()
    }

    #[test]
    fn v1_snapshots_still_load() {
        let registry = CampaignRegistry::new();
        let budget_id = registry.register(CampaignSpec::Budget {
            problem: tiny_budget_problem(),
        });
        registry.solve(budget_id).unwrap();
        registry
            .observe(
                budget_id,
                CampaignObservation::Budget {
                    completions: 3,
                    spent_cents: 20,
                    posted: None,
                    offers: None,
                },
            )
            .unwrap();
        let probe = ObservedState::Budget {
            remaining: 7,
            budget_cents: 40,
        };
        let before = registry.quote(budget_id, probe).unwrap();

        let v1 = to_v1_json(&registry);
        assert!(v1.contains("\"format_version\":1"), "not a v1 document");
        let restored =
            CampaignRegistry::from_json(&v1, KernelConfig::default(), AdaptiveOptions::default())
                .unwrap();
        let after = restored.quote(budget_id, probe).unwrap();
        assert_eq!(after.generation, before.generation);
        assert_eq!(after.price.to_bits(), before.price.to_bits());
        let report = restored.report(budget_id).unwrap();
        assert_eq!(report.spent_cents, Some(20));
        assert_eq!(report.observations, 1);
        // Restored v1 budget campaigns carry the identity drift state —
        // and can start recalibrating from here.
        assert_eq!(report.acceptance_shift, Some(0.0));
        // Ids keep advancing past the restored fleet.
        assert!(
            restored.register(CampaignSpec::Budget {
                problem: tiny_budget_problem(),
            }) > budget_id
        );
    }

    #[test]
    fn unknown_future_version_is_a_structured_error() {
        let json = format!(
            "{{\"format_version\":{},\"next_id\":1,\"campaigns\":[]}}",
            SNAPSHOT_VERSION + 1
        );
        let err = match CampaignRegistry::from_json(
            &json,
            KernelConfig::default(),
            AdaptiveOptions::default(),
        ) {
            Err(err) => err,
            Ok(_) => panic!("future format version must not load"),
        };
        assert!(matches!(err, PricingError::InvalidProblem(_)));
        assert!(err.to_string().contains("unsupported"));
    }

    #[test]
    fn single_campaign_snapshot_restores_at_exact_generation() {
        let source = CampaignRegistry::new();
        // Offset the source dispenser so the migrated id does not
        // collide with the destination's own first campaign.
        source.register(CampaignSpec::Budget {
            problem: tiny_budget_problem(),
        });
        let id = source.register(CampaignSpec::Budget {
            problem: tiny_budget_problem(),
        });
        source.solve(id).unwrap();
        let posted = source
            .quote(
                id,
                ObservedState::Budget {
                    remaining: 10,
                    budget_cents: 60,
                },
            )
            .unwrap()
            .price;
        source
            .observe(
                id,
                CampaignObservation::Budget {
                    completions: 1,
                    spent_cents: posted as usize,
                    posted: Some(posted),
                    offers: Some(40),
                },
            )
            .unwrap();
        let before_quote = source
            .quote(
                id,
                ObservedState::Budget {
                    remaining: 7,
                    budget_cents: 40,
                },
            )
            .unwrap();
        let before_report = source.report(id).unwrap();

        let doc = source.campaign_to_json(id).unwrap();
        assert!(doc.contains("\"format_version\":2"));

        // Restore onto a registry that already has unrelated campaigns:
        // the migrated record keeps its id and exact generation, and the
        // destination's own campaigns are untouched.
        let target = CampaignRegistry::new();
        let native = target.register(CampaignSpec::Budget {
            problem: tiny_budget_problem(),
        });
        let restored = target.restore_json(&doc).unwrap();
        assert_eq!(restored, vec![id]);
        let after_quote = target
            .quote(
                id,
                ObservedState::Budget {
                    remaining: 7,
                    budget_cents: 40,
                },
            )
            .unwrap();
        assert_eq!(after_quote.generation, before_quote.generation);
        assert_eq!(after_quote.price.to_bits(), before_quote.price.to_bits());
        let after_report = target.report(id).unwrap();
        assert_eq!(after_report.observations, before_report.observations);
        assert_eq!(after_report.spent_cents, before_report.spent_cents);
        assert_eq!(
            after_report.acceptance_shift,
            before_report.acceptance_shift
        );
        assert!(
            (after_report.correction.unwrap() - before_report.correction.unwrap()).abs() < 1e-12
        );
        assert_eq!(target.report(native).unwrap().status, CampaignStatus::Draft);
        // The dispenser advanced past the migrated id: new registrations
        // never collide with restored campaigns.
        assert!(
            target.register(CampaignSpec::Budget {
                problem: tiny_budget_problem(),
            }) > id
        );
    }

    #[test]
    fn restore_replaces_an_existing_record_and_keeps_counts_consistent() {
        let source = CampaignRegistry::new();
        let id = source.register(CampaignSpec::Budget {
            problem: tiny_budget_problem(),
        });
        source.solve(id).unwrap();
        let doc = source.campaign_to_json(id).unwrap();

        // Target already holds a *different* campaign at the same id —
        // the restore must retire it (readers re-resolve) rather than
        // leak it or double-count its status.
        let target = CampaignRegistry::new();
        let stale = target.register(CampaignSpec::Budget {
            problem: tiny_budget_problem(),
        });
        assert_eq!(stale, id, "test premise: colliding ids");
        target.restore_json(&doc).unwrap();
        assert_eq!(target.len(), 1);
        assert_eq!(target.report(id).unwrap().status, CampaignStatus::Live);
        let count_of = |status: CampaignStatus| {
            target
                .status_counts()
                .iter()
                .find(|(s, _)| *s == status)
                .map_or(0, |(_, n)| *n)
        };
        assert_eq!(count_of(CampaignStatus::Live), 1);
        assert_eq!(count_of(CampaignStatus::Draft), 0);
    }

    #[test]
    fn campaign_to_json_unknown_id_is_an_error() {
        let registry = CampaignRegistry::new();
        assert!(matches!(
            registry.campaign_to_json(999),
            Err(PricingError::UnknownCampaign(999))
        ));
    }

    #[test]
    fn v2_round_trip_preserves_budget_drift_state() {
        let registry = CampaignRegistry::new();
        let id = registry.register(CampaignSpec::Budget {
            problem: tiny_budget_problem(),
        });
        registry.solve(id).unwrap();
        // Two exposure-carrying reports with depressed acceptance build
        // drift signal (but stay under the default cadence threshold of
        // the *solve*, which is fine — the state must persist either way).
        let posted = registry
            .quote(
                id,
                ObservedState::Budget {
                    remaining: 10,
                    budget_cents: 60,
                },
            )
            .unwrap()
            .price;
        registry
            .observe(
                id,
                CampaignObservation::Budget {
                    completions: 1,
                    spent_cents: posted as usize,
                    posted: Some(posted),
                    offers: Some(40),
                },
            )
            .unwrap();
        let before = registry.report(id).unwrap();
        assert!(before.correction.unwrap() < 1.0, "no drift signal built");

        let json = registry.to_json().unwrap();
        assert!(json.contains("\"format_version\":2"));
        let restored =
            CampaignRegistry::from_json(&json, KernelConfig::default(), AdaptiveOptions::default())
                .unwrap();
        let after = restored.report(id).unwrap();
        assert_eq!(after.observations, before.observations);
        assert_eq!(after.spent_cents, before.spent_cents);
        assert_eq!(after.acceptance_shift, before.acceptance_shift);
        assert!((after.correction.unwrap() - before.correction.unwrap()).abs() < 1e-12);
    }

    /// A solved deadline and a solved, observed budget campaign.
    fn saved_fleet() -> CampaignRegistry {
        let registry = CampaignRegistry::new();
        let deadline = registry.register(CampaignSpec::Deadline {
            problem: crate::testkit::varied_problems().remove(1),
            eps: None,
        });
        registry.solve(deadline).unwrap();
        let budget = registry.register(CampaignSpec::Budget {
            problem: tiny_budget_problem(),
        });
        registry.solve(budget).unwrap();
        registry
            .observe(
                budget,
                CampaignObservation::Budget {
                    completions: 3,
                    spent_cents: 20,
                    posted: None,
                    offers: None,
                },
            )
            .unwrap();
        registry
    }

    /// Every quote either registry gives on a grid of states, as bits
    /// (errors included), for bitwise comparison.
    fn quote_grid(registry: &CampaignRegistry) -> Vec<std::result::Result<(u64, u64), String>> {
        let mut quotes = Vec::new();
        for id in registry.ids() {
            for remaining in 0..=12 {
                for state in [
                    ObservedState::Deadline {
                        remaining,
                        interval: remaining as usize % 6,
                    },
                    ObservedState::Budget {
                        remaining,
                        budget_cents: 5 * remaining as usize,
                    },
                ] {
                    quotes.push(
                        registry
                            .quote(id, state)
                            .map(|q| (q.price.to_bits(), q.generation))
                            .map_err(|e| e.to_string()),
                    );
                }
            }
        }
        quotes
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ft-core-snapshot-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn saving_twice_replaces_the_file_and_leaves_no_temp_file() {
        let registry = saved_fleet();
        let dir = scratch_dir("twice");
        let path = dir.join("registry.json");
        registry.save(&path).unwrap();
        registry.save(&path).unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("registry.json")]);
        let loaded =
            CampaignRegistry::load(&path, KernelConfig::default(), AdaptiveOptions::default())
                .unwrap();
        assert_eq!(quote_grid(&loaded), quote_grid(&registry));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_cut_in_half_is_a_load_error() {
        let dir = scratch_dir("cut");
        let path = dir.join("registry.json");
        saved_fleet().save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let loaded =
            CampaignRegistry::load(&path, KernelConfig::default(), AdaptiveOptions::default());
        assert!(
            matches!(loaded, Err(PricingError::InvalidProblem(ref m)) if m.contains("snapshot parse")),
            "a truncated snapshot must not load: {:?}",
            loaded.map(|r| r.ids())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
