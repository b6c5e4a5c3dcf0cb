use super::*;
use crate::actions::ActionSet;
use crate::dp::solve_efficient;
use crate::penalty::PenaltyModel;
use crate::testkit::tiny_budget_problem;
use ft_market::{LogitAcceptance, PriceGrid};
use std::sync::atomic::AtomicBool;

fn problem() -> DeadlineProblem {
    let acc = LogitAcceptance::new(4.0, 0.0, 30.0);
    DeadlineProblem::new(
        20,
        vec![50.0; 12],
        ActionSet::from_grid(PriceGrid::new(0, 20), &acc),
        PenaltyModel::Linear { per_task: 500.0 },
    )
}

fn deadline_spec() -> CampaignSpec {
    CampaignSpec::Deadline {
        problem: problem(),
        eps: None,
    }
}

fn budget_observation(completions: u64, spent_cents: usize) -> CampaignObservation {
    CampaignObservation::Budget {
        completions,
        spent_cents,
        posted: None,
        offers: None,
    }
}

#[test]
fn lifecycle_draft_solve_live() {
    let registry = CampaignRegistry::new();
    let id = registry.register(deadline_spec());
    assert_eq!(registry.report(id).unwrap().status, CampaignStatus::Draft);
    // Drafts can't quote…
    assert_eq!(
        registry.quote(
            id,
            ObservedState::Deadline {
                remaining: 20,
                interval: 0
            }
        ),
        Err(PricingError::NotServable {
            id,
            status: "draft"
        })
    );
    // …until solved.
    let generation = registry.solve(id).unwrap();
    assert_eq!(generation.generation, 1);
    assert_eq!(registry.report(id).unwrap().status, CampaignStatus::Live);
    let quote = registry
        .quote(
            id,
            ObservedState::Deadline {
                remaining: 20,
                interval: 0,
            },
        )
        .unwrap();
    let direct = solve_efficient(&problem(), DEFAULT_EPS).unwrap();
    assert_eq!(quote.price, direct.price(20, 0));
    assert_eq!(quote.generation, 1);
    // Double-solve is a structured conflict.
    assert_eq!(
        registry.solve(id).unwrap_err(),
        PricingError::NotServable { id, status: "live" }
    );
}

#[test]
fn drift_triggers_recalibration_and_generation_bump() {
    let registry = CampaignRegistry::new();
    let id = registry.register(deadline_spec());
    registry.solve(id).unwrap();
    // Report far fewer completions than the trained model expects for
    // enough intervals to cross the resolve schedule (default 3).
    let mut last = None;
    let mut recalibrated_any = false;
    for interval in 0..4 {
        let outcome = registry
            .observe(
                id,
                CampaignObservation::Deadline {
                    interval,
                    completions: 1,
                    posted: None,
                },
            )
            .unwrap();
        recalibrated_any |= outcome.recalibrated;
        last = Some(outcome);
    }
    let outcome = last.unwrap();
    assert!(recalibrated_any, "no recalibration after 4 intervals");
    assert!(outcome.generation >= 2);
    // Quotes now come from (and report) the new generation, indexed
    // from its policy start.
    let quote = registry
        .quote(
            id,
            ObservedState::Deadline {
                remaining: outcome.remaining,
                interval: 4,
            },
        )
        .unwrap();
    assert_eq!(quote.generation, outcome.generation);
    let report = registry.report(id).unwrap();
    assert_eq!(report.status, CampaignStatus::Live);
    assert_eq!(report.generation, outcome.generation);
    assert!(report.policy_start.unwrap() > 0);
    assert_eq!(report.observations, 4);
}

#[test]
fn observe_rejects_replays_and_censors_gaps() {
    let registry = CampaignRegistry::new();
    let id = registry.register(deadline_spec());
    registry.solve(id).unwrap();
    registry
        .observe(
            id,
            CampaignObservation::Deadline {
                interval: 0,
                completions: 2,
                posted: None,
            },
        )
        .unwrap();
    // Replaying an already-observed interval is rejected.
    assert!(matches!(
        registry.observe(
            id,
            CampaignObservation::Deadline {
                interval: 0,
                completions: 2,
                posted: None,
            }
        ),
        Err(PricingError::InvalidProblem(_))
    ));
    // Skipping ahead censors the gap instead of erroring.
    registry
        .observe(
            id,
            CampaignObservation::Deadline {
                interval: 3,
                completions: 1,
                posted: None,
            },
        )
        .unwrap();
    assert_eq!(registry.report(id).unwrap().observations, 4);
    // Past the horizon is rejected.
    assert!(matches!(
        registry.observe(
            id,
            CampaignObservation::Deadline {
                interval: 99,
                completions: 0,
                posted: None,
            }
        ),
        Err(PricingError::InvalidProblem(_))
    ));
    // A rejected report must leave the campaign untouched: a bad
    // posted reward at a skipped-ahead interval may not censor the
    // gap (regression: phantom censored intervals corrupted history
    // and blocked corrected re-reports forever).
    for bad_posted in [999.0, f64::NAN, f64::INFINITY] {
        assert!(matches!(
            registry.observe(
                id,
                CampaignObservation::Deadline {
                    interval: 8,
                    completions: 1,
                    posted: Some(bad_posted),
                }
            ),
            Err(PricingError::InvalidProblem(_))
        ));
    }
    assert_eq!(registry.report(id).unwrap().observations, 4);
    // The corrected re-report for the same span still works.
    registry
        .observe(
            id,
            CampaignObservation::Deadline {
                interval: 5,
                completions: 1,
                posted: None,
            },
        )
        .unwrap();
    assert_eq!(registry.report(id).unwrap().observations, 6);
}

#[test]
fn exhaustion_and_eviction() {
    let registry = CampaignRegistry::new();
    let id = registry.register(deadline_spec());
    registry.solve(id).unwrap();
    let outcome = registry
        .observe(
            id,
            CampaignObservation::Deadline {
                interval: 0,
                completions: 20,
                posted: None,
            },
        )
        .unwrap();
    assert_eq!(outcome.status, CampaignStatus::Exhausted);
    assert_eq!(outcome.remaining, 0);
    // Exhausted campaigns still answer price queries.
    assert!(registry
        .quote(
            id,
            ObservedState::Deadline {
                remaining: 0,
                interval: 1
            }
        )
        .is_ok());
    // Eviction drops the policy but keeps a tombstone.
    assert!(registry.evict(id));
    assert!(!registry.evict(id));
    assert_eq!(registry.report(id).unwrap().status, CampaignStatus::Evicted);
    assert_eq!(
        registry.quote(
            id,
            ObservedState::Deadline {
                remaining: 0,
                interval: 1
            }
        ),
        Err(PricingError::NotServable {
            id,
            status: "evicted"
        })
    );
    assert_eq!(registry.len(), 0);
    assert_eq!(registry.ids(), vec![id]);
    // The counter-derived totals agree with the map.
    assert_eq!(registry.total_records(), 1);
    // Purging removes even the tombstone.
    assert!(registry.purge(id));
    assert!(!registry.purge(id));
    assert!(registry.ids().is_empty());
    assert_eq!(registry.total_records(), 0);
    assert_eq!(
        registry.report(id).unwrap_err(),
        PricingError::UnknownCampaign(id)
    );
}

#[test]
fn telemetry_counts_lifecycle_events() {
    let registry = CampaignRegistry::new();
    let id = registry.register(deadline_spec());
    registry.solve(id).unwrap();
    // A failed double-solve is a solve error, not a solve.
    registry.solve(id).unwrap_err();
    let good = ObservedState::Deadline {
        remaining: 20,
        interval: 0,
    };
    registry.quote(id, good).unwrap();
    registry.quote(id, good).unwrap();
    registry
        .quote(
            id,
            ObservedState::Budget {
                remaining: 1,
                budget_cents: 1,
            },
        )
        .unwrap_err();
    let mut recalibrations = 0;
    for interval in 0..4 {
        let outcome = registry
            .observe(
                id,
                CampaignObservation::Deadline {
                    interval,
                    completions: 1,
                    posted: None,
                },
            )
            .unwrap();
        recalibrations += u64::from(outcome.recalibrated);
    }
    registry
        .observe(
            id,
            CampaignObservation::Deadline {
                interval: 0,
                completions: 1,
                posted: None,
            },
        )
        .unwrap_err();
    assert!(recalibrations >= 1);
    let t = registry.telemetry();
    assert_eq!(t.solves.get(), 1);
    assert_eq!(t.solve_errors.get(), 0); // double-solve fails before solving
    assert_eq!(t.quotes.get(), 3);
    assert_eq!(t.quote_errors.get(), 1);
    assert_eq!(t.observes.get(), 4);
    assert_eq!(t.observe_errors.get(), 1);
    assert_eq!(t.recalibrations.get(), recalibrations);
    // Per-kind split: all of these were deadline re-solves.
    assert_eq!(t.recalibrations_deadline.get(), recalibrations);
    assert_eq!(t.recalibrations_budget.get(), 0);
    assert_eq!(t.generation_swaps.get(), 1 + recalibrations);
    assert_eq!(t.solve_ns.snapshot().count, 1);
    // The named instruments are visible through the shared plane.
    let exported = registry.metrics().to_prometheus();
    assert!(exported.contains("ft_core_quotes_total 3"));
    assert!(exported.contains("ft_core_recalibrations_by_kind_total{kind=\"deadline\"}"));
    // Status counts feed /healthz.
    let live = registry
        .status_counts()
        .iter()
        .find(|(s, _)| *s == CampaignStatus::Live)
        .unwrap()
        .1;
    assert_eq!(live, 1);
}

#[test]
fn budget_campaign_lifecycle() {
    let registry = CampaignRegistry::new();
    let id = registry.register(CampaignSpec::Budget {
        problem: tiny_budget_problem(),
    });
    registry.solve(id).unwrap();
    let quote = registry
        .quote(
            id,
            ObservedState::Budget {
                remaining: 10,
                budget_cents: 60,
            },
        )
        .unwrap();
    assert_eq!(quote.generation, 1);
    let outcome = registry.observe(id, budget_observation(4, 25)).unwrap();
    assert_eq!(outcome.remaining, 6);
    assert!(!outcome.recalibrated);
    let report = registry.report(id).unwrap();
    assert_eq!(report.spent_cents, Some(25));
    assert_eq!(report.observations, 1);
    // No exposure reported → no drift signal, identity shift.
    assert_eq!(report.correction, Some(1.0));
    assert_eq!(report.acceptance_shift, Some(0.0));
    // Mismatched observation kind is structured.
    assert_eq!(
        registry.observe(
            id,
            CampaignObservation::Deadline {
                interval: 0,
                completions: 1,
                posted: None,
            }
        ),
        Err(PricingError::StateKindMismatch {
            id,
            expected: "budget",
            got: "deadline"
        })
    );
    let outcome = registry.observe(id, budget_observation(6, 35)).unwrap();
    assert_eq!(outcome.status, CampaignStatus::Exhausted);
}

/// The ROADMAP open item, closed: budget campaigns recalibrate when the
/// observed acceptance drifts off the trained curve, publishing a new
/// generation exactly like deadline recalibration.
#[test]
fn budget_acceptance_drift_triggers_recalibration() {
    let registry = CampaignRegistry::with_registry_config(RegistryConfig {
        budget_drift: BudgetDriftOptions {
            resolve_every: 2,
            ..BudgetDriftOptions::default()
        },
        ..RegistryConfig::default()
    });
    let spec_problem = BudgetProblem::new(
        40,
        600.0,
        ActionSet::from_grid(PriceGrid::new(1, 20), &LogitAcceptance::new(4.0, 0.0, 20.0)),
        100.0,
    );
    let id = registry.register(CampaignSpec::Budget {
        problem: spec_problem,
    });
    registry.solve(id).unwrap();
    let gen1 = registry.generation(id).unwrap();
    assert_eq!(gen1.generation, 1);

    // Two exposure-carrying reports where workers accept far less often
    // than the trained curve predicts: many offers, few completions.
    let posted = registry
        .quote(
            id,
            ObservedState::Budget {
                remaining: 40,
                budget_cents: 600,
            },
        )
        .unwrap()
        .price;
    let first = registry
        .observe(
            id,
            CampaignObservation::Budget {
                completions: 2,
                spent_cents: 2 * posted as usize,
                posted: Some(posted),
                offers: Some(60),
            },
        )
        .unwrap();
    assert!(!first.recalibrated, "one report must not cross the cadence");
    assert!(first.correction < 1.0, "drift did not lower the correction");
    assert_eq!(first.remaining, 38);

    let second = registry
        .observe(
            id,
            CampaignObservation::Budget {
                completions: 2,
                spent_cents: 2 * posted as usize,
                posted: Some(posted),
                offers: Some(60),
            },
        )
        .unwrap();
    assert!(
        second.recalibrated,
        "drift + cadence must trigger a re-solve"
    );
    assert_eq!(second.generation, 2);

    // The new generation serves, and its policy differs from the
    // trained one somewhere (the rescaled acceptance changes prices).
    let report = registry.report(id).unwrap();
    assert_eq!(report.generation, 2);
    let shift = report.acceptance_shift.unwrap();
    assert!(shift < 0.0, "shift {shift} should be negative under drift");
    assert_eq!(report.remaining, Some(36));
    assert_eq!(report.spent_cents, Some(4 * posted as usize));
    let gen2 = registry.generation(id).unwrap();
    assert_eq!(gen2.generation, 2);
    let (CampaignPolicy::Budget(before), CampaignPolicy::Budget(after)) =
        (gen1.policy.as_ref(), gen2.policy.as_ref())
    else {
        panic!("budget campaign must hold budget policies");
    };
    // The re-solve ran on the remaining tasks and the unspent budget.
    assert_eq!(after.n_tasks(), 36);
    assert_eq!(after.budget_cents(), 600 - 4 * posted as usize);
    let mut differs = false;
    for n in 1..=after.n_tasks() {
        for b in 0..=after.budget_cents() {
            if before.price(n, b) != after.price(n, b) {
                differs = true;
            }
        }
    }
    assert!(
        differs,
        "recalibrated policy is identical to the trained one"
    );
    // Quotes keep working against the re-solved table (off-table
    // states clamp onto it).
    assert!(registry
        .quote(
            id,
            ObservedState::Budget {
                remaining: report.remaining.unwrap(),
                budget_cents: 600 - 4 * posted as usize,
            },
        )
        .is_ok());
    // Telemetry sees a budget recalibration.
    assert_eq!(registry.telemetry().recalibrations_budget.get(), 1);
    assert_eq!(registry.telemetry().recalibrations_deadline.get(), 0);
}

#[test]
fn budget_exposure_reports_are_validated() {
    let registry = CampaignRegistry::new();
    let id = registry.register(CampaignSpec::Budget {
        problem: tiny_budget_problem(),
    });
    registry.solve(id).unwrap();
    // Offers without a posted price are meaningless.
    assert!(matches!(
        registry.observe(
            id,
            CampaignObservation::Budget {
                completions: 1,
                spent_cents: 5,
                posted: None,
                offers: Some(10),
            }
        ),
        Err(PricingError::InvalidProblem(_))
    ));
    // Non-finite or off-grid posted prices are rejected.
    for bad in [f64::NAN, f64::INFINITY, 999.0] {
        assert!(matches!(
            registry.observe(
                id,
                CampaignObservation::Budget {
                    completions: 1,
                    spent_cents: 5,
                    posted: Some(bad),
                    offers: Some(10),
                }
            ),
            Err(PricingError::InvalidProblem(_))
        ));
    }
    // A bad posted price is rejected even without offers (it carries
    // no drift signal, but silently accepting a garbage price would
    // hide client bugs).
    for bad in [f64::NAN, 999.0] {
        assert!(matches!(
            registry.observe(
                id,
                CampaignObservation::Budget {
                    completions: 1,
                    spent_cents: 5,
                    posted: Some(bad),
                    offers: None,
                }
            ),
            Err(PricingError::InvalidProblem(_))
        ));
    }
    // More completions than offers is impossible.
    assert!(matches!(
        registry.observe(
            id,
            CampaignObservation::Budget {
                completions: 11,
                spent_cents: 5,
                posted: Some(5.0),
                offers: Some(10),
            }
        ),
        Err(PricingError::InvalidProblem(_))
    ));
    // A rejected report leaves the campaign untouched.
    let report = registry.report(id).unwrap();
    assert_eq!(report.observations, 0);
    assert_eq!(report.remaining, Some(10));
    // A valid posted price without offers is fine — progress counts,
    // no drift signal accumulates.
    registry
        .observe(
            id,
            CampaignObservation::Budget {
                completions: 1,
                spent_cents: 5,
                posted: Some(5.0),
                offers: None,
            },
        )
        .unwrap();
    let report = registry.report(id).unwrap();
    assert_eq!(report.observations, 1);
    assert_eq!(report.correction, Some(1.0));
}

#[test]
fn snapshot_roundtrip_preserves_generations_and_history() {
    let registry = CampaignRegistry::new();
    let deadline_id = registry.register(deadline_spec());
    let budget_id = registry.register(CampaignSpec::Budget {
        problem: tiny_budget_problem(),
    });
    let draft_id = registry.register(deadline_spec());
    let evicted_id = registry.register(deadline_spec());
    registry.solve(deadline_id).unwrap();
    registry.solve(budget_id).unwrap();
    registry.solve(evicted_id).unwrap();
    registry.evict(evicted_id);
    // Drive the deadline campaign through a recalibration so the
    // snapshot carries a non-trivial generation + policy start.
    let mut outcome = None;
    let mut recalibrated_any = false;
    for interval in 0..4 {
        let o = registry
            .observe(
                deadline_id,
                CampaignObservation::Deadline {
                    interval,
                    completions: 1,
                    posted: None,
                },
            )
            .unwrap();
        recalibrated_any |= o.recalibrated;
        outcome = Some(o);
    }
    let outcome = outcome.unwrap();
    assert!(recalibrated_any);
    assert!(outcome.generation >= 2);
    let probe = ObservedState::Deadline {
        remaining: outcome.remaining,
        interval: 5,
    };
    let before = registry.quote(deadline_id, probe).unwrap();

    let json = registry.to_json().unwrap();
    let restored =
        CampaignRegistry::from_json(&json, KernelConfig::default(), AdaptiveOptions::default())
            .unwrap();

    // Live campaigns resume at the same generation and price.
    let after = restored.quote(deadline_id, probe).unwrap();
    assert_eq!(after.generation, before.generation);
    assert_eq!(after.price, before.price);
    let report = restored.report(deadline_id).unwrap();
    assert_eq!(report.observations, 4);
    assert_eq!(report.remaining, Some(outcome.remaining));
    assert!((report.correction.unwrap() - outcome.correction).abs() < 1e-12);
    // Budget campaign resumes too.
    assert!(restored
        .quote(
            budget_id,
            ObservedState::Budget {
                remaining: 10,
                budget_cents: 60
            }
        )
        .is_ok());
    // Draft stays a draft; tombstone stays evicted.
    assert_eq!(
        restored.report(draft_id).unwrap().status,
        CampaignStatus::Draft
    );
    assert_eq!(
        restored.report(evicted_id).unwrap().status,
        CampaignStatus::Evicted
    );
    // The restored registry's counters match its records.
    assert_eq!(restored.total_records(), restored.ids().len());
    // Fresh ids don't collide with restored ones.
    let new_id = restored.register(deadline_spec());
    assert!(new_id > evicted_id);
    // Observation numbering continues where it left off.
    restored
        .observe(
            deadline_id,
            CampaignObservation::Deadline {
                interval: 4,
                completions: 1,
                posted: None,
            },
        )
        .unwrap();
    assert_eq!(restored.report(deadline_id).unwrap().observations, 5);
}

#[test]
fn invalid_wire_specs_are_structured_errors_not_panics() {
    // Deserialized specs bypass constructor asserts; both the
    // validator and the solve path must answer with InvalidProblem
    // instead of panicking (a panic used to wedge the campaign in
    // Solving forever).
    let registry = CampaignRegistry::new();
    let mut bad_eps = deadline_spec();
    if let CampaignSpec::Deadline { eps, .. } = &mut bad_eps {
        *eps = Some(-1.0);
    }
    let mut bad_arrivals = deadline_spec();
    if let CampaignSpec::Deadline { problem, .. } = &mut bad_arrivals {
        problem.interval_arrivals[2] = -5.0;
    }
    // At λ = 10³⁰⁰ the truncation search never returns: the solve would
    // wedge instead of erroring.
    let mut huge_arrivals = deadline_spec();
    if let CampaignSpec::Deadline { problem, .. } = &mut huge_arrivals {
        problem.interval_arrivals[2] = 1e300;
    }
    let mut bad_budget = CampaignSpec::Budget {
        problem: tiny_budget_problem(),
    };
    if let CampaignSpec::Budget { problem } = &mut bad_budget {
        problem.mean_rate = f64::NAN;
    }
    for spec in [bad_eps, bad_arrivals, huge_arrivals, bad_budget] {
        assert!(matches!(
            spec.validate(),
            Err(PricingError::InvalidProblem(_))
        ));
        let id = registry.register(spec);
        assert!(matches!(
            registry.solve(id),
            Err(PricingError::InvalidProblem(_))
        ));
        // The campaign is back to Draft, not wedged in Solving.
        assert_eq!(registry.report(id).unwrap().status, CampaignStatus::Draft);
    }
}

/// `MAX_INTERVAL_ARRIVALS` is the largest mass a spec may carry: at the
/// bound a spec validates and solves, and a re-solve's truncation table
/// at the default `max_correction` times the bound is still exact in
/// f64; just past it the spec is an `InvalidProblem`.
#[test]
fn interval_arrivals_at_the_bound_still_solve() {
    let mut problem = problem();
    problem.interval_arrivals[3] = MAX_INTERVAL_ARRIVALS * 1.5;
    let past_bound = CampaignSpec::Deadline {
        problem: problem.clone(),
        eps: None,
    };
    assert!(matches!(
        past_bound.validate(),
        Err(PricingError::InvalidProblem(_))
    ));
    problem.interval_arrivals[3] = MAX_INTERVAL_ARRIVALS;
    let at_bound = CampaignSpec::Deadline {
        problem: problem.clone(),
        eps: None,
    };
    at_bound.validate().unwrap();
    let registry = CampaignRegistry::new();
    let id = registry.register(at_bound);
    registry.solve(id).unwrap();
    let opts = AdaptiveOptions::default();
    problem.interval_arrivals[3] = MAX_INTERVAL_ARRIVALS * opts.max_correction;
    let table = TruncationTable::with_eps(&problem, opts.truncation_eps);
    let top = problem.actions.len() - 1;
    let mean = problem.interval_arrivals[3] * problem.actions.get(top).accept;
    let s0 = table.get(3, top) as f64;
    assert!(s0 > mean && s0 < 2f64.powi(53), "s₀ {s0} for mean {mean}");
}

/// A snapshot is wire input too (`POST /campaigns/restore`). A solved
/// campaign whose arrivals were rewritten to 10³⁰⁰, or whose
/// `max_correction` was, is an error at once; both used to restore, and
/// the first one's re-solving observe never returned.
#[test]
fn restores_refuse_masses_no_solve_can_handle() {
    let registry = CampaignRegistry::new();
    let id = registry.register(deadline_spec());
    registry.solve(id).unwrap();
    let json = registry.campaign_to_json(id).unwrap();
    let arrivals = serde_json::to_string(&problem().interval_arrivals).unwrap();
    let huge_arrivals = serde_json::to_string(&vec![1e300; 12]).unwrap();
    for (field, poisoned) in [
        ("arrivals", json.replace(&arrivals, &huge_arrivals)),
        (
            "max_correction",
            json.replace("\"max_correction\":4,", "\"max_correction\":1e300,"),
        ),
    ] {
        assert_ne!(poisoned, json, "no {field} in the snapshot");
        let target = CampaignRegistry::new();
        assert!(
            matches!(
                target.restore_json(&poisoned),
                Err(PricingError::InvalidProblem(_))
            ),
            "{field}"
        );
        assert!(target.ids().is_empty(), "{field}");
    }
}

/// `CampaignSpec::solve_bytes` on the repository's own campaigns: the
/// paper's §5.2 deadline and §5.3 budget campaigns are far inside
/// `MAX_SOLVE_BYTES`, and a batch or budget past it is refused.
#[test]
fn solve_size_bound_admits_paper_campaigns_and_refuses_huge_ones() {
    let section_5_2 = DeadlineProblem::new(
        200,
        vec![1700.0; 72],
        ActionSet::from_grid(PriceGrid::new(0, 40), &LogitAcceptance::paper_eq13()),
        PenaltyModel::Linear { per_task: 100.0 },
    );
    let deadline = CampaignSpec::Deadline {
        problem: section_5_2.clone(),
        eps: None,
    };
    // 201 × 73 cells, 72 × 41 truncation points, 72 × 41 rows of 200
    // three-segment entries.
    let bytes = 201.0 * 73.0 * 12.0 + 2952.0 * 8.0 + 2952.0 * 200.0 * 24.0;
    assert_eq!(deadline.solve_bytes(), bytes);
    deadline.validate().unwrap();
    let budget = CampaignSpec::Budget {
        problem: crate::testkit::paper_budget_problem(),
    };
    assert_eq!(budget.solve_bytes(), 201.0 * 2501.0 * 12.0);
    budget.validate().unwrap();

    let mut huge_batch = section_5_2;
    huge_batch.n_tasks = 4_000_000_000;
    let mut huge_budget = crate::testkit::paper_budget_problem();
    huge_budget.budget = 1e15;
    for spec in [
        CampaignSpec::Deadline {
            problem: huge_batch,
            eps: None,
        },
        CampaignSpec::Budget {
            problem: huge_budget,
        },
    ] {
        assert!(spec.solve_bytes() > MAX_SOLVE_BYTES);
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("byte limit"), "{err}");
    }
}

#[test]
fn budget_spend_accounting_saturates() {
    let registry = CampaignRegistry::new();
    let id = registry.register(CampaignSpec::Budget {
        problem: tiny_budget_problem(),
    });
    registry.solve(id).unwrap();
    for _ in 0..3 {
        registry
            .observe(id, budget_observation(0, usize::MAX))
            .unwrap();
    }
    // Clamped to the f64-exact range; report + snapshot stay lossless.
    let spent = registry.report(id).unwrap().spent_cents.unwrap();
    assert_eq!(spent, (1usize << 53) - 1);
    let json = registry.to_json().unwrap();
    let restored =
        CampaignRegistry::from_json(&json, KernelConfig::default(), AdaptiveOptions::default())
            .unwrap();
    assert_eq!(restored.report(id).unwrap().spent_cents.unwrap(), spent);
}

/// Satellite: readers hammer the quote hot path while observes drive
/// recalibration swaps and a batch solve churns other campaigns.
/// Two invariants:
///
/// 1. **No stale generation after a swap**: once an observe returns
///    generation `g`, every later quote reports ≥ `g`.
/// 2. **No torn price**: a `(generation, price)` pair read at a fixed
///    probe state is a function of the generation — the same
///    generation can never be seen with two different prices.
#[test]
fn concurrent_reprice_observe_stress() {
    use std::collections::HashMap as StdHashMap;

    let registry = CampaignRegistry::with_config(
        KernelConfig::default(),
        AdaptiveOptions {
            resolve_every: 1, // recalibrate on every observe
            ..AdaptiveOptions::default()
        },
    );
    let id = registry.register(deadline_spec());
    registry.solve(id).unwrap();

    let stop = AtomicBool::new(false);
    let min_generation = AtomicU64::new(1);
    // Writer + churn + 3 readers start together so the observes race
    // the quotes even on a single-core host.
    let start = std::sync::Barrier::new(5);
    let probe = ObservedState::Deadline {
        remaining: 17,
        interval: 6,
    };

    std::thread::scope(|scope| {
        let registry = &registry;
        let stop = &stop;
        let min_generation = &min_generation;
        let start = &start;

        // Writer: observe every interval (each triggers a re-solve +
        // generation swap), with heavy drift so policies change.
        let writer = scope.spawn(move || {
            start.wait();
            for interval in 0..problem().n_intervals() {
                let outcome = registry
                    .observe(
                        id,
                        CampaignObservation::Deadline {
                            interval,
                            completions: 1,
                            posted: None,
                        },
                    )
                    .unwrap();
                // The swap is published before observe returns; no
                // reader may see an older generation from here on.
                min_generation.fetch_max(outcome.generation, Ordering::Release);
                if outcome.status == CampaignStatus::Exhausted {
                    break;
                }
            }
            stop.store(true, Ordering::Release);
        });

        // Churn: register + solve other campaigns while the readers
        // run, so quotes race cache fills too.
        let churn = scope.spawn(move || {
            start.wait();
            let mut round = 0u64;
            loop {
                let other = registry.register(CampaignSpec::Budget {
                    problem: tiny_budget_problem(),
                });
                assert!(registry.solve(other).is_ok());
                registry.evict(other);
                registry.purge(other);
                round += 1;
                if stop.load(Ordering::Acquire) {
                    break;
                }
            }
            assert!(round > 0, "churn thread never ran");
        });

        // Readers: quote in a tight loop, checking both invariants.
        let mut readers = Vec::new();
        for _ in 0..3 {
            readers.push(scope.spawn(move || {
                start.wait();
                let mut seen: StdHashMap<u64, f64> = StdHashMap::new();
                let mut quotes = 0u64;
                loop {
                    let floor = min_generation.load(Ordering::Acquire);
                    let quote = registry.quote(id, probe).unwrap();
                    assert!(
                        quote.generation >= floor,
                        "stale generation {} served after swap to {floor}",
                        quote.generation
                    );
                    match seen.get(&quote.generation) {
                        None => {
                            seen.insert(quote.generation, quote.price);
                        }
                        Some(&price) => assert_eq!(
                            price.to_bits(),
                            quote.price.to_bits(),
                            "torn read: generation {} seen with two prices",
                            quote.generation
                        ),
                    }
                    quotes += 1;
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                (seen, quotes)
            }));
        }

        writer.join().unwrap();
        churn.join().unwrap();
        // Cross-reader consistency: generation → price must agree
        // across threads too.
        let mut global: StdHashMap<u64, f64> = StdHashMap::new();
        let mut total_quotes = 0u64;
        for reader in readers {
            let (seen, quotes) = reader.join().unwrap();
            total_quotes += quotes;
            for (generation, price) in seen {
                if let Some(&prev) = global.get(&generation) {
                    assert_eq!(prev.to_bits(), price.to_bits());
                } else {
                    global.insert(generation, price);
                }
            }
        }
        assert!(total_quotes > 0, "readers never quoted");
        // The writer's swaps were visible: more than one generation
        // got served (resolve_every = 1 forces swaps).
        assert!(
            min_generation.load(Ordering::Acquire) > 1,
            "no recalibration swap happened during the stress run"
        );
    });
}

/// Budget recalibrations must not block concurrent quotes either: a
/// writer drives acceptance-drifted observes (each crossing the
/// cadence) while readers hammer the quote path on the same campaign.
/// Same two invariants as the deadline stress.
#[test]
fn budget_recalibration_does_not_block_quotes() {
    use std::collections::HashMap as StdHashMap;

    let registry = CampaignRegistry::with_registry_config(RegistryConfig {
        budget_drift: BudgetDriftOptions {
            resolve_every: 1, // attempt a re-solve on every drifted report
            threshold: 0.1,
            ..BudgetDriftOptions::default()
        },
        ..RegistryConfig::default()
    });
    let id = registry.register(CampaignSpec::Budget {
        problem: BudgetProblem::new(
            200,
            4000.0,
            ActionSet::from_grid(PriceGrid::new(1, 20), &LogitAcceptance::new(4.0, 0.0, 20.0)),
            100.0,
        ),
    });
    registry.solve(id).unwrap();
    let posted = registry
        .quote(
            id,
            ObservedState::Budget {
                remaining: 200,
                budget_cents: 4000,
            },
        )
        .unwrap()
        .price;

    let stop = AtomicBool::new(false);
    let min_generation = AtomicU64::new(1);
    let start = std::sync::Barrier::new(3);
    let probe = ObservedState::Budget {
        remaining: 5,
        budget_cents: 400,
    };

    std::thread::scope(|scope| {
        let registry = &registry;
        let stop = &stop;
        let min_generation = &min_generation;
        let start = &start;

        let writer = scope.spawn(move || {
            start.wait();
            let mut recalibrations = 0u64;
            for _ in 0..12 {
                let outcome = registry
                    .observe(
                        id,
                        CampaignObservation::Budget {
                            completions: 1,
                            spent_cents: posted as usize,
                            posted: Some(posted),
                            offers: Some(30),
                        },
                    )
                    .unwrap();
                min_generation.fetch_max(outcome.generation, Ordering::Release);
                recalibrations += u64::from(outcome.recalibrated);
                if outcome.status == CampaignStatus::Exhausted {
                    break;
                }
            }
            stop.store(true, Ordering::Release);
            recalibrations
        });

        let mut readers = Vec::new();
        for _ in 0..2 {
            readers.push(scope.spawn(move || {
                start.wait();
                let mut seen: StdHashMap<u64, f64> = StdHashMap::new();
                loop {
                    let floor = min_generation.load(Ordering::Acquire);
                    let quote = registry.quote(id, probe).unwrap();
                    assert!(
                        quote.generation >= floor,
                        "stale generation {} after swap to {floor}",
                        quote.generation
                    );
                    match seen.get(&quote.generation) {
                        None => {
                            seen.insert(quote.generation, quote.price);
                        }
                        Some(&price) => assert_eq!(
                            price.to_bits(),
                            quote.price.to_bits(),
                            "torn read: generation {} seen with two prices",
                            quote.generation
                        ),
                    }
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
            }));
        }

        let recalibrations = writer.join().unwrap();
        for reader in readers {
            reader.join().unwrap();
        }
        assert!(
            recalibrations >= 1,
            "no budget recalibration fired under sustained acceptance drift"
        );
        assert!(min_generation.load(Ordering::Acquire) > 1);
    });
}

/// The status-count total (`/healthz`'s `campaigns_total`) and the id
/// index total (`GET /campaigns`) must agree under concurrent
/// register/evict/purge/replace churn — transiently within the
/// in-flight bound, exactly at quiescence.
#[test]
fn status_counters_stay_consistent_under_churn() {
    let registry = CampaignRegistry::with_registry_config(RegistryConfig {
        shards: 4, // small enough that churn threads collide on shards
        ..RegistryConfig::default()
    });
    // A settled base fleet the churn runs around.
    let base_ids: Vec<_> = (0..6).map(|_| registry.register(deadline_spec())).collect();
    let base = base_ids.len();

    const CHURNERS: usize = 4;
    const ROUNDS: usize = 120;
    let start = std::sync::Barrier::new(CHURNERS + 2);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let registry = &registry;
        let start = &start;
        let stop = &stop;

        // Each churner cycles its own ids through register → evict →
        // purge, so at any instant it owns at most one extra record.
        let churners: Vec<_> = (0..CHURNERS)
            .map(|worker| {
                scope.spawn(move || {
                    start.wait();
                    for round in 0..ROUNDS {
                        let id = 1_000 + (worker * ROUNDS + round) as u64;
                        registry.register_at(
                            id,
                            CampaignSpec::Budget {
                                problem: tiny_budget_problem(),
                            },
                        );
                        registry.evict(id);
                        registry.purge(id);
                    }
                })
            })
            .collect();

        // A re-registration churner on a *fixed* id exercises the
        // replace path (insert over an existing record).
        let replacer = scope.spawn(move || {
            start.wait();
            for _ in 0..ROUNDS {
                registry.register_at(999, deadline_spec());
            }
            registry.purge(999);
        });

        // Checker: both totals must stay within a bounded band around
        // the base fleet at every read. Neither aggregate is a single
        // atomic snapshot: each walks the shards one read lock at a
        // time, and a walk overlapping W in-flight register/evict/purge
        // cycles can over- or under-count by a few. The band allows a
        // small multiple of the writer count; the *exact* equality is
        // asserted at quiescence below. A leaked record accumulates
        // monotonically across the hundreds of churn rounds and busts
        // both checks.
        // The churners wait at `start` until the first read is done,
        // so the checker runs however late it is scheduled.
        let checker = scope.spawn(move || {
            let slack = 3 * (CHURNERS + 1);
            let check = || {
                let counts = registry.status_counts();
                let counted: usize = counts.iter().map(|(_, n)| n).sum();
                let listed = registry.ids().len();
                assert!(
                    counted <= base + slack && counted + slack >= base,
                    "status-count total {counted} outside {base} ± {slack}"
                );
                assert!(
                    listed <= base + slack && listed + slack >= base,
                    "index total {listed} outside {base} ± {slack}"
                );
            };
            check();
            start.wait();
            while !stop.load(Ordering::Acquire) {
                check();
            }
        });

        for churner in churners {
            churner.join().unwrap();
        }
        replacer.join().unwrap();
        stop.store(true, Ordering::Release);
        checker.join().unwrap();
    });

    // Quiescent: both totals agree exactly; only the base fleet
    // remains, all drafts.
    assert_eq!(registry.total_records(), base);
    assert_eq!(registry.ids(), base_ids);
    let counts = registry.status_counts();
    assert_eq!(counts[CampaignStatus::Draft as usize].1, base);
    for (status, n) in counts {
        if status != CampaignStatus::Draft {
            assert_eq!(n, 0, "leaked {status:?} count");
        }
    }
}

/// Replacing a live campaign through `register_at` must retire the
/// outgoing record, not just drop it from the map: a handle fetched
/// just before the swap would otherwise keep serving (and even
/// recalibrating) an orphan whose acknowledged progress no request
/// can ever see again.
#[test]
fn replacing_a_live_campaign_retires_the_old_record() {
    let registry = CampaignRegistry::new();
    let id = registry.register(deadline_spec());
    registry.solve(id).unwrap();
    let old = registry.store().get(id).expect("record exists");
    assert!(old.generation().is_some());

    registry.register_at(id, deadline_spec());
    // The detached record is fully retired: policy gone, machinery
    // dropped, status Evicted — a stale handle can't serve from it.
    assert!(old.generation().is_none());
    assert_eq!(old.status(), CampaignStatus::Evicted);
    // The id now answers as the fresh draft…
    assert_eq!(registry.report(id).unwrap().status, CampaignStatus::Draft);
    assert!(matches!(
        registry.observe(
            id,
            CampaignObservation::Deadline {
                interval: 0,
                completions: 1,
                posted: None,
            }
        ),
        Err(PricingError::NotServable { .. })
    ));
    // …and the status counts see exactly one record, a draft.
    assert_eq!(registry.total_records(), 1);
    let counts = registry.status_counts();
    assert_eq!(counts[CampaignStatus::Draft as usize].1, 1);
    assert_eq!(counts[CampaignStatus::Evicted as usize].1, 0);
}

#[test]
fn single_shard_config_reproduces_historical_behavior() {
    let registry = CampaignRegistry::with_registry_config(RegistryConfig {
        shards: 1,
        ..RegistryConfig::default()
    });
    assert_eq!(registry.shards(), 1);
    let id = registry.register(deadline_spec());
    registry.solve(id).unwrap();
    assert!(registry
        .quote(
            id,
            ObservedState::Deadline {
                remaining: 20,
                interval: 0
            }
        )
        .is_ok());
    assert_eq!(registry.len(), 1);
    // Zero shards clamps to one instead of dividing by it.
    let clamped = CampaignRegistry::with_registry_config(RegistryConfig {
        shards: 0,
        ..RegistryConfig::default()
    });
    assert_eq!(clamped.shards(), 1);
}

/// Sequential ids must spread across shards — a fleet that lands on
/// one shard would silently reintroduce the global lock.
#[test]
fn sequential_ids_spread_across_shards() {
    let registry = CampaignRegistry::new();
    let n_shards = registry.shards();
    let mut per_shard = vec![0usize; n_shards];
    for _ in 0..256 {
        let id = registry.register(CampaignSpec::Budget {
            problem: tiny_budget_problem(),
        });
        let mixed = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        per_shard[(mixed as usize) % n_shards] += 1;
    }
    let occupied = per_shard.iter().filter(|&&n| n > 0).count();
    assert!(
        occupied >= per_shard.len() / 2,
        "256 sequential ids occupy only {occupied}/{} shards: {per_shard:?}",
        per_shard.len()
    );
}

/// Deadline recalibrations run on the registry's kernel budget. A serial
/// registry re-solves without forking and a two-thread one forks (the
/// trace of the recalibrating observe shows it), and both publish the
/// bits of a direct serial Algorithm 2 solve of the corrected
/// remaining-horizon problem.
#[test]
fn deadline_recalibration_honours_kernel_config() {
    use crate::kernel::deadline::solve_deadline;
    for (kernel, forks) in [
        (KernelConfig::serial(), false),
        (KernelConfig::with_threads(2), true),
    ] {
        let registry = CampaignRegistry::with_registry_config(RegistryConfig {
            kernel,
            ..RegistryConfig::default()
        });
        let id = registry.register(deadline_spec());
        registry.solve(id).unwrap();
        let mut joins = None;
        for interval in 0..3 {
            let trace = ft_trace::begin("core.test.observe");
            let trace_id = ft_trace::current_trace_id();
            let outcome = registry
                .observe(
                    id,
                    CampaignObservation::Deadline {
                        interval,
                        completions: 1,
                        posted: None,
                    },
                )
                .unwrap();
            let live = trace.is_live();
            drop(trace);
            if outcome.recalibrated && live {
                let trace = ft_trace::find(trace_id.unwrap()).expect("trace published");
                let spans = trace.spans.iter();
                joins = Some(spans.filter(|s| s.name == "exec.pool.join").count());
            }
        }
        let report = registry.report(id).unwrap();
        assert_eq!(
            report.generation, 2,
            "{kernel:?}: expected one recalibration"
        );
        if let Some(joins) = joins {
            assert_eq!(joins > 0, forks, "{kernel:?}: {joins} fork-joins");
        }

        let start = report.policy_start.unwrap();
        let correction = report.correction.unwrap();
        let trained = problem();
        let corrected = DeadlineProblem::new(
            trained.n_tasks,
            trained.interval_arrivals[start..]
                .iter()
                .map(|l| l * correction)
                .collect(),
            trained.actions.clone(),
            trained.penalty,
        );
        let reference = solve_deadline(
            &corrected,
            &TruncationTable::with_eps(&corrected, DEFAULT_EPS),
            Sweep::MonotoneDivide,
            &KernelConfig::serial(),
        )
        .unwrap();
        let generation = registry.generation(id).unwrap();
        assert_eq!(generation.start, start);
        let CampaignPolicy::Deadline(published) = generation.policy.as_ref() else {
            panic!("deadline campaign published a budget policy");
        };
        assert_eq!(published.n_intervals(), reference.n_intervals());
        for t in 0..reference.n_intervals() {
            for n in 1..=trained.n_tasks {
                assert_eq!(
                    published.action_index(n, t),
                    reference.action_index(n, t),
                    "{kernel:?}: action at (n={n}, t={t})"
                );
                assert_eq!(
                    published.cost_to_go(n, t).to_bits(),
                    reference.cost_to_go(n, t).to_bits(),
                    "{kernel:?}: cost at (n={n}, t={t})"
                );
            }
        }
    }
}

/// Budget quotes past the solved table clamp onto its edge instead of
/// panicking (regression: an oversized `remaining` used to panic in
/// `BudgetMdpPolicy::idx`).
#[test]
fn budget_quotes_clamp_oversized_states_to_the_table_edge() {
    let registry = CampaignRegistry::new();
    let id = registry.register(CampaignSpec::Budget {
        problem: tiny_budget_problem(),
    });
    registry.solve(id).unwrap();
    let mdp = crate::budget::solve_budget_mdp(&tiny_budget_problem()).unwrap();
    let price = |remaining, budget_cents| {
        registry
            .quote(
                id,
                ObservedState::Budget {
                    remaining,
                    budget_cents,
                },
            )
            .unwrap()
            .price
    };
    // An off-path state inside the table.
    assert_eq!(price(4, 30), f64::from(mdp.price(4, 30).unwrap()));
    // An oversized budget clamps to the table's budget edge…
    assert_eq!(
        price(4, 10_000),
        f64::from(mdp.price(4, mdp.budget_cents()).unwrap())
    );
    // …and an oversized remaining-task count to its task edge.
    assert_eq!(
        price(12, 10_000),
        f64::from(mdp.price(mdp.n_tasks(), mdp.budget_cents()).unwrap())
    );
}

/// Every solve reads through the registry's one pmf-row cache: two
/// solves of the same deadline problem bump the batched-solve counter
/// twice, the second one's rows are hits, and the hit counter on the
/// metrics plane mirrors the cache's own count.
#[test]
fn counters_mirror_admissions_and_hits() {
    let registry = CampaignRegistry::new();
    for _ in 0..2 {
        let id = registry.register(CampaignSpec::Deadline {
            problem: problem(),
            eps: None,
        });
        registry.solve(id).unwrap();
    }
    let telemetry = registry.telemetry();
    assert_eq!(telemetry.batched_solves.get(), 2);
    assert!(registry.pmf_cache().hits() > 0);
    assert_eq!(telemetry.pmf_cache_hits.get(), registry.pmf_cache().hits());
}
