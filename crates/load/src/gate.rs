//! The CI perf-regression gate: compare a fresh `BENCH_load_*.json`
//! against checked-in floor values, so banked performance is
//! *enforced* on every PR instead of merely re-measured.
//!
//! Floors live in `scripts/perf_floors.json`:
//!
//! ```json
//! {"tolerance": 0.25,
//!  "backends": [
//!    {"backend": "in_process",
//!     "min_throughput_rps": 2000.0,
//!     "max_p99_ns": {"price": 2000000.0, "observe": 400000000.0}},
//!    {"backend": "in_process", "scenario": "budget-drift-fast", ...},
//!    {"backend": "socket", ...}]}
//! ```
//!
//! An entry with a `scenario` field gates only runs whose report
//! document carries that scenario name; entries without one gate every
//! run of their backend (the historical behavior).
//!
//! An entry may also carry a **relative** floor:
//!
//! ```json
//! {"backend": "socket", "scenario": "fast",
//!  "min_throughput_rps": 1000.0,
//!  "min_throughput_frac_of": {"backend": "in_process",
//!                             "scenario": "fast", "frac": 0.5}}
//! ```
//!
//! which additionally requires the gated run's throughput to stay
//! above `frac × reference throughput × (1 − tolerance)`, where the
//! reference is the **slowest** run matching the named
//! backend/scenario across the supplied reports (robust to the
//! reference leg having had an unusually fast run — the gate exists to
//! catch order-of-magnitude serving-tier regressions, not scheduler
//! jitter between two separately-invoked smokes). This is how the
//! serving tier's "socket within 2× of in-process" bar is enforced
//! without baking the host's absolute speed into the floor. A missing
//! reference run is a failure, like a missing floored backend.
//!
//! Semantics: a run regresses when its throughput drops below
//! `min_throughput_rps × (1 − tolerance)` or an op's p99 rises above
//! `max_p99_ns × (1 + tolerance)`. The floors are set conservatively
//! (shared CI runners are noisy); the tolerance absorbs run-to-run
//! jitter on top. A backend present in the floors but absent from the
//! report is itself a failure — a silently skipped leg must not pass
//! the gate.

use serde::{map_get, Value};

/// One backend's floor values.
#[derive(Debug, Clone)]
pub struct BackendFloor {
    /// Matches `runs[].backend` in the report (`in_process` / `socket`).
    pub backend: String,
    /// When set, the floor applies only to runs from the report
    /// document with this scenario name (e.g. `budget-drift-fast`);
    /// `None` matches every scenario — the historical behavior.
    pub scenario: Option<String>,
    /// Fresh throughput must stay above `this × (1 − tolerance)`.
    pub min_throughput_rps: f64,
    /// Per-op p99 ceilings in nanoseconds: fresh p99 must stay below
    /// `ceiling × (1 + tolerance)`.
    pub max_p99_ns: Vec<(String, f64)>,
    /// Relative floor: fresh throughput must also stay above
    /// `frac × reference × (1 − tolerance)`.
    pub min_throughput_frac_of: Option<FracOf>,
    /// Floor on the run's reported `pmf_cache.hit_rate` (the storm
    /// leg's batched-solving win): fresh rate must stay above
    /// `this × (1 − tolerance)`. A floored run without a `pmf_cache`
    /// block (e.g. a socket run, which cannot see the registry) is an
    /// error, like a missing p99.
    pub min_pmf_cache_hit_rate: Option<f64>,
}

/// A relative throughput floor's reference run selector.
#[derive(Debug, Clone)]
pub struct FracOf {
    /// Reference run's `runs[].backend`.
    pub backend: String,
    /// Reference scenario scope; `None` matches every scenario.
    pub scenario: Option<String>,
    /// Required fraction of the reference run's throughput.
    pub frac: f64,
}

/// The checked-in floor document.
#[derive(Debug, Clone)]
pub struct Floors {
    /// Allowed relative regression before the gate fails.
    pub tolerance: f64,
    pub backends: Vec<BackendFloor>,
}

impl Floors {
    /// Parse the floors document strictly. This is the only parser of
    /// `scripts/perf_floors.json`, so anything that could silently
    /// weaken the gate is an error: an unknown key (a typo would drop
    /// its floor), an out-of-range or non-numeric bound, an entry
    /// without its `max_p99_ns` object, or no entries at all. The first
    /// error found is returned.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let value: Value = serde_json::from_str(json).map_err(|e| format!("floors parse: {e}"))?;
        let map = value
            .as_map()
            .ok_or_else(|| "floors: not a JSON object".to_string())?;
        if let Some(key) = unknown_key(map, &["comment", "tolerance", "backends"]) {
            return Err(format!("floors: unknown top-level key `{key}`"));
        }
        let tolerance = map_get(map, "tolerance")
            .ok()
            .and_then(Value::as_num)
            .ok_or_else(|| "floors: missing numeric `tolerance`".to_string())?;
        if !(0.0..1.0).contains(&tolerance) {
            return Err(format!("floors: tolerance {tolerance} outside [0, 1)"));
        }
        let backends_value =
            map_get(map, "backends").map_err(|_| "floors: missing `backends`".to_string())?;
        let backends_seq = backends_value
            .as_seq()
            .ok_or_else(|| "floors: `backends` is not an array".to_string())?;
        let mut backends = Vec::new();
        for entry in backends_seq {
            let entry_map = entry
                .as_map()
                .ok_or_else(|| "floors: backend entry is not an object".to_string())?;
            let backend = map_get(entry_map, "backend")
                .ok()
                .and_then(Value::as_str)
                .ok_or_else(|| "floors: backend entry missing `backend`".to_string())?
                .to_string();
            if let Some(key) = unknown_key(entry_map, ENTRY_KEYS) {
                return Err(format!("floors[{backend}]: unknown key `{key}`"));
            }
            let scenario = match map_get(entry_map, "scenario") {
                Ok(v) => Some(
                    v.as_str()
                        .ok_or_else(|| format!("floors[{backend}]: `scenario` is not a string"))?
                        .to_string(),
                ),
                Err(_) => None,
            };
            let min_throughput_rps = map_get(entry_map, "min_throughput_rps")
                .ok()
                .and_then(Value::as_num)
                .ok_or_else(|| format!("floors[{backend}]: missing `min_throughput_rps`"))?;
            if !in_bounds(min_throughput_rps, f64::INFINITY) {
                return Err(format!(
                    "floors[{backend}]: min_throughput_rps must be positive"
                ));
            }
            let ceilings = map_get(entry_map, "max_p99_ns")
                .ok()
                .and_then(Value::as_map)
                .ok_or_else(|| format!("floors[{backend}]: missing object `max_p99_ns`"))?;
            let mut max_p99_ns = Vec::new();
            for (op, ceiling) in ceilings {
                let ceiling = ceiling.as_num().ok_or_else(|| {
                    format!("floors[{backend}]: p99 ceiling for `{op}` is not a number")
                })?;
                if !in_bounds(ceiling, f64::INFINITY) {
                    return Err(format!(
                        "floors[{backend}]: p99 ceiling for `{op}` must be positive"
                    ));
                }
                max_p99_ns.push((op.clone(), ceiling));
            }
            let min_throughput_frac_of = match map_get(entry_map, "min_throughput_frac_of") {
                Ok(v) => {
                    let frac_map = v.as_map().ok_or_else(|| {
                        format!("floors[{backend}]: `min_throughput_frac_of` is not an object")
                    })?;
                    if let Some(key) = unknown_key(frac_map, &["backend", "scenario", "frac"]) {
                        return Err(format!(
                            "floors[{backend}]: unknown key `min_throughput_frac_of.{key}`"
                        ));
                    }
                    let ref_backend = map_get(frac_map, "backend")
                        .ok()
                        .and_then(Value::as_str)
                        .ok_or_else(|| {
                            format!("floors[{backend}]: frac-of floor missing `backend`")
                        })?
                        .to_string();
                    let ref_scenario = match map_get(frac_map, "scenario") {
                        Ok(v) => Some(
                            v.as_str()
                                .ok_or_else(|| {
                                    format!("floors[{backend}]: frac-of `scenario` is not a string")
                                })?
                                .to_string(),
                        ),
                        Err(_) => None,
                    };
                    let frac = map_get(frac_map, "frac")
                        .ok()
                        .and_then(Value::as_num)
                        .ok_or_else(|| {
                            format!("floors[{backend}]: frac-of floor missing numeric `frac`")
                        })?;
                    if !in_bounds(frac, 1.0) {
                        return Err(format!(
                            "floors[{backend}]: frac-of `frac` {frac} outside (0, 1]"
                        ));
                    }
                    Some(FracOf {
                        backend: ref_backend,
                        scenario: ref_scenario,
                        frac,
                    })
                }
                Err(_) => None,
            };
            let min_pmf_cache_hit_rate = match map_get(entry_map, "min_pmf_cache_hit_rate") {
                Ok(v) => {
                    let rate = v.as_num().ok_or_else(|| {
                        format!("floors[{backend}]: `min_pmf_cache_hit_rate` is not a number")
                    })?;
                    if !in_bounds(rate, 1.0) {
                        return Err(format!(
                            "floors[{backend}]: min_pmf_cache_hit_rate {rate} outside (0, 1]"
                        ));
                    }
                    Some(rate)
                }
                Err(_) => None,
            };
            backends.push(BackendFloor {
                backend,
                scenario,
                min_throughput_rps,
                max_p99_ns,
                min_throughput_frac_of,
                min_pmf_cache_hit_rate,
            });
        }
        if backends.is_empty() {
            return Err("floors: no backends — the gate would vacuously pass".to_string());
        }
        Ok(Self {
            tolerance,
            backends,
        })
    }
}

/// Every key a backend entry may carry.
const ENTRY_KEYS: &[&str] = &[
    "backend",
    "scenario",
    "min_throughput_rps",
    "max_p99_ns",
    "min_throughput_frac_of",
    "min_pmf_cache_hit_rate",
];

/// The first key of `map` outside `allowed`, if any.
fn unknown_key<'m>(map: &'m [(String, Value)], allowed: &[&str]) -> Option<&'m str> {
    map.iter()
        .map(|(key, _)| key.as_str())
        .find(|key| !allowed.contains(key))
}

/// Whether `x` lies in `(0, max]`; NaN (a JSON `null`) never does.
fn in_bounds(x: f64, max: f64) -> bool {
    x > 0.0 && x <= max
}

/// One gate comparison, kept for the success-path log so CI output
/// shows fresh-vs-floor numbers even when everything passes.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub label: String,
    pub fresh: f64,
    pub bound: f64,
    pub passed: bool,
}

impl Comparison {
    fn throughput(backend: &str, fresh: f64, bound: f64) -> Self {
        Self {
            label: format!("[{backend}] throughput_rps {fresh:.0} ≥ {bound:.0}"),
            fresh,
            bound,
            passed: fresh >= bound,
        }
    }

    fn p99(backend: &str, op: &str, fresh: f64, bound: f64) -> Self {
        Self {
            label: format!("[{backend}] p99[{op}] {fresh:.0} ns ≤ {bound:.0} ns"),
            fresh,
            bound,
            passed: fresh <= bound,
        }
    }
}

/// Evaluate one report document against the floors — shorthand for
/// [`check_reports`] over a single document.
pub fn check_report(report_json: &str, floors: &Floors) -> Result<Vec<Comparison>, String> {
    check_reports(&[report_json], floors)
}

/// Evaluate the floors against the union of runs found across every
/// supplied report document (CI writes one report per `--mode`, so the
/// in-process and socket runs arrive in separate files). Returns every
/// comparison made (pass and fail); the gate fails if any comparison
/// failed or a floored backend appears in no report at all.
pub fn check_reports(report_jsons: &[&str], floors: &Floors) -> Result<Vec<Comparison>, String> {
    // Runs carry their document's scenario name so scenario-scoped
    // floors (e.g. the budget-drift leg) gate only their own runs.
    let mut runs: Vec<(Option<String>, Value)> = Vec::new();
    for report_json in report_jsons {
        let report: Value =
            serde_json::from_str(report_json).map_err(|e| format!("report parse: {e}"))?;
        let map = report
            .as_map()
            .ok_or_else(|| "report: not a JSON object".to_string())?;
        let scenario = map_get(map, "scenario")
            .ok()
            .and_then(Value::as_str)
            .map(str::to_string);
        let document_runs = map_get(map, "runs")
            .ok()
            .and_then(Value::as_seq)
            .ok_or_else(|| "report: missing `runs` array".to_string())?;
        runs.extend(
            document_runs
                .iter()
                .map(|run| (scenario.clone(), run.clone())),
        );
    }

    let select = |backend: &str, scenario: Option<&str>| -> Vec<&Value> {
        runs.iter()
            .filter(|(run_scenario, run)| {
                run.as_map()
                    .and_then(|m| map_get(m, "backend").ok())
                    .and_then(Value::as_str)
                    == Some(backend)
                    && scenario.is_none_or(|want| run_scenario.as_deref() == Some(want))
            })
            .map(|(_, run)| run)
            .collect()
    };

    let mut comparisons = Vec::new();
    for floor in &floors.backends {
        let floor_name = match &floor.scenario {
            Some(scenario) => format!("{}/{scenario}", floor.backend),
            None => floor.backend.clone(),
        };
        // Resolve a relative floor's reference once per floor: the
        // slowest matching run across the reports, so a lucky fast
        // reference leg can't flake the gated one.
        let frac_reference = floor.min_throughput_frac_of.as_ref().map(|frac_of| {
            let ref_name = match &frac_of.scenario {
                Some(scenario) => format!("{}/{scenario}", frac_of.backend),
                None => frac_of.backend.clone(),
            };
            let best = select(&frac_of.backend, frac_of.scenario.as_deref())
                .iter()
                .filter_map(|run| {
                    run.as_map()
                        .and_then(|m| map_get(m, "throughput_rps").ok())
                        .and_then(Value::as_num)
                })
                .fold(f64::INFINITY, f64::min);
            (frac_of, ref_name, best)
        });
        if let Some((_, ref_name, best)) = &frac_reference {
            if !best.is_finite() {
                // A relative floor with no reference run cannot pass.
                comparisons.push(Comparison {
                    label: format!("[{floor_name}] reference run {ref_name} present in report(s)"),
                    fresh: 0.0,
                    bound: 1.0,
                    passed: false,
                });
            }
        }
        let matching = select(&floor.backend, floor.scenario.as_deref());
        if matching.is_empty() {
            // A floored backend no report ran cannot pass.
            comparisons.push(Comparison {
                label: format!("[{floor_name}] run present in report(s)"),
                fresh: 0.0,
                bound: 1.0,
                passed: false,
            });
            continue;
        }
        // Every matching run must hold the floor — a stale passing run
        // in one report must not shadow a fresh regressed run in
        // another.
        let duplicates = matching.len() > 1;
        for (index, run) in matching.into_iter().enumerate() {
            let label = if duplicates {
                format!("{floor_name} (run {})", index + 1)
            } else {
                floor_name.clone()
            };
            let run_map = run.as_map().expect("matched runs are objects");
            let throughput = map_get(run_map, "throughput_rps")
                .ok()
                .and_then(Value::as_num)
                .ok_or_else(|| format!("report[{label}]: missing throughput_rps"))?;
            comparisons.push(Comparison::throughput(
                &label,
                throughput,
                floor.min_throughput_rps * (1.0 - floors.tolerance),
            ));
            if let Some((frac_of, ref_name, reference)) = &frac_reference {
                if reference.is_finite() {
                    let bound = frac_of.frac * reference * (1.0 - floors.tolerance);
                    comparisons.push(Comparison {
                        label: format!(
                            "[{label}] throughput_rps {throughput:.0} ≥ {}×{ref_name} ({bound:.0})",
                            frac_of.frac
                        ),
                        fresh: throughput,
                        bound,
                        passed: throughput >= bound,
                    });
                }
            }
            if let Some(min_rate) = floor.min_pmf_cache_hit_rate {
                let hit_rate = map_get(run_map, "pmf_cache")
                    .ok()
                    .and_then(|block| block.as_map().and_then(|m| map_get(m, "hit_rate").ok()))
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("report[{label}]: no pmf_cache.hit_rate"))?;
                let bound = min_rate * (1.0 - floors.tolerance);
                comparisons.push(Comparison {
                    label: format!("[{label}] pmf_cache.hit_rate {hit_rate:.3} ≥ {bound:.3}"),
                    fresh: hit_rate,
                    bound,
                    passed: hit_rate >= bound,
                });
            }
            let latency = map_get(run_map, "latency_ns_by_op")
                .ok()
                .and_then(Value::as_map)
                .ok_or_else(|| format!("report[{label}]: missing latency_ns_by_op"))?;
            for (op, ceiling) in &floor.max_p99_ns {
                let p99 = map_get(latency, op)
                    .ok()
                    .and_then(|entry| entry.as_map().and_then(|m| map_get(m, "p99").ok()))
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("report[{label}]: no p99 for op `{op}`"))?;
                comparisons.push(Comparison::p99(
                    &label,
                    op,
                    p99,
                    ceiling * (1.0 + floors.tolerance),
                ));
            }
        }
    }
    Ok(comparisons)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLOORS: &str = r#"{
        "tolerance": 0.2,
        "backends": [
            {"backend": "in_process",
             "min_throughput_rps": 1000.0,
             "max_p99_ns": {"price": 100000.0}}
        ]
    }"#;

    fn report(backend: &str, throughput: f64, price_p99: f64) -> String {
        format!(
            r#"{{"runs": [{{"backend": "{backend}",
                 "throughput_rps": {throughput},
                 "latency_ns_by_op": {{"price": {{"count": 10, "p99": {price_p99}}}}}}}]}}"#
        )
    }

    #[test]
    fn floors_parse_and_validate() {
        let floors = Floors::from_json(FLOORS).unwrap();
        assert_eq!(floors.tolerance, 0.2);
        assert_eq!(floors.backends.len(), 1);
        assert_eq!(floors.backends[0].max_p99_ns[0].0, "price");

        assert!(Floors::from_json("{}").is_err());
        assert!(Floors::from_json(r#"{"tolerance": 1.5, "backends": []}"#).is_err());
        assert!(Floors::from_json(r#"{"tolerance": 0.1, "backends": []}"#).is_err());
    }

    /// The checked-in floors parse, so a typo there fails this test in
    /// both CI `test` legs, not only in the fleet job's gate run.
    #[test]
    fn checked_in_floors_parse_and_typos_fail() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scripts/perf_floors.json"
        );
        let good = std::fs::read_to_string(path).expect("checked-in floors");
        let floors = Floors::from_json(&good).unwrap();
        assert!(floors
            .backends
            .iter()
            .any(|b| b.min_pmf_cache_hit_rate.is_some()));
        let typo = good.replace("min_throughput_rps", "min_thruput_rps");
        let err = Floors::from_json(&typo).unwrap_err();
        assert!(err.contains("unknown key `min_thruput_rps`"), "{err}");
    }

    /// A valid one-entry document carrying every optional field, with
    /// `{tolerance}`, `{entry}` and `{frac_of}` spliced into the three
    /// levels of the schema.
    fn floors_doc(tolerance: &str, entry: &str, frac_of: &str) -> String {
        format!(
            r#"{{"comment": "c", "tolerance": {tolerance}, "backends": [
                {{"backend": "socket", "scenario": "fast",
                  "min_throughput_rps": 100.0,
                  "max_p99_ns": {{"price": 1000.0}},
                  "min_pmf_cache_hit_rate": 0.5,
                  {entry}
                  "min_throughput_frac_of": {{"backend": "in_process",
                                             {frac_of} "frac": 0.5}}}}]}}"#
        )
    }

    #[test]
    fn typo_keys_fail_at_every_level() {
        assert!(Floors::from_json(&floors_doc("0.2", "", "")).is_ok());
        for (doc, key) in [
            (
                floors_doc(r#"0.2, "tolerence": 0.2"#, "", ""),
                "unknown top-level key `tolerence`",
            ),
            (
                floors_doc("0.2", r#""scenaro": "fast","#, ""),
                "unknown key `scenaro`",
            ),
            (
                floors_doc("0.2", "", r#""scenaro": "fast","#),
                "unknown key `min_throughput_frac_of.scenaro`",
            ),
        ] {
            let err = Floors::from_json(&doc).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
    }

    /// Each bound on its own: the parser returns the first error, so
    /// every out-of-range value gets a document of its own.
    #[test]
    fn each_out_of_range_bound_fails() {
        let valid = floors_doc("0.2", "", "");
        for (from, to, message) in [
            (
                r#""tolerance": 0.2"#,
                r#""tolerance": 1.5"#,
                "outside [0, 1)",
            ),
            (
                r#""tolerance": 0.2"#,
                r#""tolerance": null"#,
                "outside [0, 1)",
            ),
            (
                r#""min_throughput_rps": 100.0"#,
                r#""min_throughput_rps": -1"#,
                "min_throughput_rps must be positive",
            ),
            (
                r#""min_throughput_rps": 100.0"#,
                r#""min_throughput_rps": null"#,
                "min_throughput_rps must be positive",
            ),
            (
                r#""price": 1000.0"#,
                r#""price": 0"#,
                "p99 ceiling for `price` must be positive",
            ),
            (
                r#""max_p99_ns": {"price": 1000.0},"#,
                "",
                "missing object `max_p99_ns`",
            ),
            (
                r#""min_pmf_cache_hit_rate": 0.5"#,
                r#""min_pmf_cache_hit_rate": 1.5"#,
                "min_pmf_cache_hit_rate 1.5 outside (0, 1]",
            ),
            (
                r#""frac": 0.5"#,
                r#""frac": 2.0"#,
                "`frac` 2 outside (0, 1]",
            ),
        ] {
            assert_eq!(valid.matches(from).count(), 1, "{from}");
            let err = Floors::from_json(&valid.replace(from, to)).unwrap_err();
            assert!(err.contains(message), "{to:?}: {err}");
        }
    }

    #[test]
    fn healthy_run_passes_with_tolerance() {
        let floors = Floors::from_json(FLOORS).unwrap();
        // Throughput 10% under the floor still passes at 20% tolerance;
        // p99 15% over the ceiling still passes too.
        let comparisons = check_report(&report("in_process", 900.0, 115_000.0), &floors).unwrap();
        assert!(comparisons.iter().all(|c| c.passed), "{comparisons:?}");
    }

    #[test]
    fn regressions_fail() {
        let floors = Floors::from_json(FLOORS).unwrap();
        let slow_throughput = check_report(&report("in_process", 700.0, 1.0), &floors).unwrap();
        assert!(!slow_throughput[0].passed, "{slow_throughput:?}");
        let slow_p99 = check_report(&report("in_process", 5000.0, 130_000.0), &floors).unwrap();
        assert!(!slow_p99[1].passed, "{slow_p99:?}");
    }

    #[test]
    fn floors_union_across_reports() {
        // CI hands the gate one report per --mode; a backend found in
        // *any* of them satisfies its floor.
        let floors = Floors::from_json(
            r#"{"tolerance": 0.2, "backends": [
                {"backend": "in_process", "min_throughput_rps": 1000.0, "max_p99_ns": {}},
                {"backend": "socket", "min_throughput_rps": 100.0, "max_p99_ns": {}}]}"#,
        )
        .unwrap();
        let inproc = report("in_process", 5000.0, 1.0);
        let socket = report("socket", 500.0, 1.0);
        let comparisons = check_reports(&[&inproc, &socket], &floors).unwrap();
        assert_eq!(comparisons.len(), 2);
        assert!(comparisons.iter().all(|c| c.passed), "{comparisons:?}");
        // One leg missing entirely still fails.
        let comparisons = check_reports(&[&inproc], &floors).unwrap();
        assert!(comparisons.iter().any(|c| !c.passed));
        // A stale passing run must not shadow a fresh regressed one:
        // every duplicate run of a backend is gated.
        let regressed = report("socket", 10.0, 1.0);
        let comparisons = check_reports(&[&inproc, &socket, &regressed], &floors).unwrap();
        assert_eq!(comparisons.len(), 3);
        assert!(
            comparisons.iter().any(|c| !c.passed),
            "regressed duplicate slipped through: {comparisons:?}"
        );
    }

    #[test]
    fn scenario_scoped_floors_gate_only_their_scenario() {
        let floors = Floors::from_json(
            r#"{"tolerance": 0.2, "backends": [
                {"backend": "in_process", "min_throughput_rps": 1000.0, "max_p99_ns": {}},
                {"backend": "in_process", "scenario": "budget-drift-fast",
                 "min_throughput_rps": 5000.0, "max_p99_ns": {}}]}"#,
        )
        .unwrap();
        let tagged = |scenario: &str, throughput: f64| {
            format!(
                r#"{{"scenario": "{scenario}",
                     "runs": [{{"backend": "in_process",
                       "throughput_rps": {throughput},
                       "latency_ns_by_op": {{}}}}]}}"#
            )
        };
        // The drift leg holds its own (higher) floor; both pass.
        let fast = tagged("fast", 2000.0);
        let drift = tagged("budget-drift-fast", 6000.0);
        let comparisons = check_reports(&[&fast, &drift], &floors).unwrap();
        assert!(comparisons.iter().all(|c| c.passed), "{comparisons:?}");

        // The drift leg regressing fails its scoped floor even though
        // the unscoped floor would still pass it.
        let slow_drift = tagged("budget-drift-fast", 2000.0);
        let comparisons = check_reports(&[&fast, &slow_drift], &floors).unwrap();
        let scoped: Vec<_> = comparisons
            .iter()
            .filter(|c| c.label.contains("budget-drift-fast"))
            .collect();
        assert!(scoped.iter().any(|c| !c.passed), "{comparisons:?}");

        // The scoped floor with no matching scenario in any report is a
        // failure — a silently skipped drift leg must not pass.
        let comparisons = check_reports(&[&fast], &floors).unwrap();
        assert!(
            comparisons
                .iter()
                .any(|c| !c.passed && c.label.contains("budget-drift-fast")),
            "{comparisons:?}"
        );
    }

    #[test]
    fn relative_floor_tracks_the_reference_run() {
        // socket must hold ≥ 0.5× the in-process run's throughput
        // (minus tolerance) — the host's absolute speed drops out.
        let floors = Floors::from_json(
            r#"{"tolerance": 0.2, "backends": [
                {"backend": "in_process", "min_throughput_rps": 100.0, "max_p99_ns": {}},
                {"backend": "socket", "min_throughput_rps": 100.0, "max_p99_ns": {},
                 "min_throughput_frac_of": {"backend": "in_process", "frac": 0.5}}]}"#,
        )
        .unwrap();
        let frac_of = floors.backends[1].min_throughput_frac_of.as_ref().unwrap();
        assert_eq!(frac_of.backend, "in_process");
        assert_eq!(frac_of.frac, 0.5);

        // 10000 in-process → bound 0.5 × 10000 × 0.8 = 4000.
        let inproc = report("in_process", 10_000.0, 1.0);
        let fast_socket = report("socket", 5000.0, 1.0);
        let comparisons = check_reports(&[&inproc, &fast_socket], &floors).unwrap();
        assert!(comparisons.iter().all(|c| c.passed), "{comparisons:?}");

        let slow_socket = report("socket", 3000.0, 1.0);
        let comparisons = check_reports(&[&inproc, &slow_socket], &floors).unwrap();
        let relative: Vec<_> = comparisons
            .iter()
            .filter(|c| c.label.contains("0.5×in_process"))
            .collect();
        assert_eq!(relative.len(), 1);
        assert!(!relative[0].passed, "{comparisons:?}");

        // No reference run at all → the relative floor fails loudly.
        let comparisons = check_reports(&[&slow_socket], &floors).unwrap();
        assert!(
            comparisons
                .iter()
                .any(|c| !c.passed && c.label.contains("reference run")),
            "{comparisons:?}"
        );

        // Malformed frac-of entries are parse errors.
        assert!(Floors::from_json(
            r#"{"tolerance": 0.2, "backends": [
                {"backend": "socket", "min_throughput_rps": 1.0, "max_p99_ns": {},
                 "min_throughput_frac_of": {"backend": "in_process", "frac": 0.0}}]}"#,
        )
        .is_err());
        assert!(Floors::from_json(
            r#"{"tolerance": 0.2, "backends": [
                {"backend": "socket", "min_throughput_rps": 1.0, "max_p99_ns": {},
                 "min_throughput_frac_of": {"frac": 0.5}}]}"#,
        )
        .is_err());
    }

    #[test]
    fn pmf_cache_hit_rate_floor_gates_the_storm_leg() {
        let floors = Floors::from_json(
            r#"{"tolerance": 0.2, "backends": [
                {"backend": "in_process", "scenario": "storm-fast",
                 "min_throughput_rps": 100.0, "max_p99_ns": {},
                 "min_pmf_cache_hit_rate": 0.5}]}"#,
        )
        .unwrap();
        assert_eq!(floors.backends[0].min_pmf_cache_hit_rate, Some(0.5));
        let storm = |hit_rate: f64| {
            format!(
                r#"{{"scenario": "storm-fast",
                     "runs": [{{"backend": "in_process",
                       "throughput_rps": 5000.0,
                       "pmf_cache": {{"hit_rate": {hit_rate}, "waves": 3}},
                       "latency_ns_by_op": {{}}}}]}}"#
            )
        };
        // 0.45 ≥ 0.5 × 0.8 = 0.4 → passes inside the tolerance.
        let comparisons = check_report(&storm(0.45), &floors).unwrap();
        assert!(comparisons.iter().all(|c| c.passed), "{comparisons:?}");
        // A collapsed cache fails.
        let comparisons = check_report(&storm(0.1), &floors).unwrap();
        assert!(
            comparisons
                .iter()
                .any(|c| !c.passed && c.label.contains("pmf_cache.hit_rate")),
            "{comparisons:?}"
        );
        // A floored run without the block is an error, not a pass.
        let no_block = r#"{"scenario": "storm-fast",
            "runs": [{"backend": "in_process", "throughput_rps": 5000.0,
                      "latency_ns_by_op": {}}]}"#;
        assert!(check_report(no_block, &floors).is_err());
        // Out-of-range floors are parse errors.
        for bad in ["0.0", "1.5", "\"high\""] {
            let text = format!(
                r#"{{"tolerance": 0.2, "backends": [
                    {{"backend": "in_process", "min_throughput_rps": 1.0, "max_p99_ns": {{}},
                      "min_pmf_cache_hit_rate": {bad}}}]}}"#
            );
            assert!(Floors::from_json(&text).is_err(), "{bad}");
        }
    }

    #[test]
    fn missing_backend_fails() {
        let floors = Floors::from_json(FLOORS).unwrap();
        let comparisons = check_report(&report("socket", 1e9, 1.0), &floors).unwrap();
        assert!(comparisons.iter().any(|c| !c.passed));
    }

    #[test]
    fn malformed_report_is_an_error() {
        let floors = Floors::from_json(FLOORS).unwrap();
        assert!(check_report("not json", &floors).is_err());
        assert!(check_report(r#"{"no_runs": true}"#, &floors).is_err());
        // A run without the op's p99 is an error, not a silent pass.
        let no_p99 = r#"{"runs": [{"backend": "in_process", "throughput_rps": 9999,
                         "latency_ns_by_op": {}}]}"#;
        assert!(check_report(no_p99, &floors).is_err());
    }
}
