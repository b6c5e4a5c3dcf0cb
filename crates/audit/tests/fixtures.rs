//! Fixture harness: one reject tree per lint (the audit must find the
//! seeded violation and exit non-zero), one accept tree covering every
//! lint's compliant form (the audit must run clean), and the self-check
//! that keeps the real workspace clean under its checked-in policy.
//!
//! Exit codes are exercised through the actual `ft-audit` binary
//! (`CARGO_BIN_EXE_ft-audit`) — the same artifact CI runs — not just
//! the library API.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// Run the real binary against a fixture tree with an explicit
/// allowlist (path relative to the fixtures dir).
fn audit_with(tree: &str, allow: &str) -> Output {
    let fixtures = fixtures_dir();
    Command::new(env!("CARGO_BIN_EXE_ft-audit"))
        .arg("--root")
        .arg(fixtures.join(tree))
        .arg("--allow")
        .arg(fixtures.join(allow))
        .arg("--json")
        .output()
        .expect("ft-audit runs")
}

/// Run the real binary against a fixture tree with the shared
/// allowlist.
fn audit_fixture(tree: &str) -> Output {
    audit_with(tree, "policy/audit_allow.json")
}

/// Parse the `--json` report into (exit_code, findings as
/// `(lint, path)` pairs).
fn report(output: &Output) -> (i32, Vec<(String, String)>) {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let value: serde::Value = serde_json::from_str(stdout.trim()).expect("valid --json output");
    let map = value.as_map().expect("report object");
    let findings = serde::map_get(map, "findings")
        .expect("findings key")
        .as_seq()
        .expect("findings array")
        .iter()
        .map(|f| {
            let fmap = f.as_map().expect("finding object");
            (
                serde::map_get(fmap, "lint")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string(),
                serde::map_get(fmap, "path")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string(),
            )
        })
        .collect();
    (output.status.code().expect("exit code"), findings)
}

fn assert_rejects(tree: &str, lint: &str, path_fragment: &str) {
    let (code, findings) = report(&audit_fixture(tree));
    assert_eq!(code, 1, "{tree}: reject fixture must exit 1, got {code}");
    assert!(
        findings
            .iter()
            .any(|(l, p)| l == lint && p.contains(path_fragment)),
        "{tree}: expected a {lint} finding in *{path_fragment}*, got {findings:?}"
    );
    assert!(
        findings.iter().all(|(l, _)| l == lint),
        "{tree}: only {lint} violations are seeded, got {findings:?}"
    );
}

#[test]
fn l1_reject_fixture_fails() {
    assert_rejects("reject_l1", "L1", "src/lib.rs");
}

#[test]
fn l2_reject_fixture_fails() {
    let (code, findings) = report(&audit_fixture("reject_l2"));
    assert_eq!(code, 1);
    let l2: Vec<_> = findings.iter().filter(|(l, _)| l == "L2").collect();
    // The bare Relaxed plus both halves of the cross-function split.
    assert_eq!(l2.len(), 3, "{findings:?}");
}

#[test]
fn l3_reject_fixture_fails() {
    let (code, findings) = report(&audit_fixture("reject_l3"));
    assert_eq!(code, 1);
    assert_eq!(
        findings.iter().filter(|(l, _)| l == "L3").count(),
        2,
        "spawn and Builder: {findings:?}"
    );
}

#[test]
fn l4_reject_fixture_fails() {
    let (code, findings) = report(&audit_fixture("reject_l4"));
    assert_eq!(code, 1);
    assert_eq!(
        findings.iter().filter(|(l, _)| l == "L4").count(),
        5,
        "bare counter, unitless histogram, wrong crate, missing prefix, \
         backend name in the router crate: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|(l, p)| l == "L4" && p.contains("crates/router/")),
        "router-crate prefix violation must be caught: {findings:?}"
    );
}

#[test]
fn l5_reject_fixture_fails() {
    let (code, findings) = report(&audit_fixture("reject_l5"));
    assert_eq!(code, 1);
    assert_eq!(
        findings.iter().filter(|(l, _)| l == "L5").count(),
        2,
        "same-line and wrapped chain: {findings:?}"
    );
}

#[test]
fn l6_reject_fixture_fails() {
    let (code, findings) = report(&audit_fixture("reject_l6"));
    assert_eq!(code, 1);
    assert_eq!(
        findings.iter().filter(|(l, _)| l == "L6").count(),
        5,
        "wrong crate, two segments, four segments, uppercase, \
         backend span name in the router crate: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|(l, p)| l == "L6" && p.contains("crates/router/")),
        "router-crate span violation must be caught: {findings:?}"
    );
}

/// The L3 `sites` budget: an allowlist entry sanctioning exactly the
/// spawn sites present is clean; a stale budget (fewer sites than the
/// file actually has) fails even though every finding matches the
/// entry.
#[test]
fn l3_sites_budget_on_budget_is_clean() {
    let (code, findings) = report(&audit_with(
        "router_sites",
        "router_sites_policy/on_budget.json",
    ));
    assert_eq!(code, 0, "on-budget policy must be clean: {findings:?}");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l3_sites_budget_stale_count_fails() {
    let (code, findings) = report(&audit_with(
        "router_sites",
        "router_sites_policy/stale_budget.json",
    ));
    assert_eq!(code, 1, "stale budget must fail: {findings:?}");
    assert!(
        findings.iter().any(|(l, _)| l == "config"),
        "budget drift is a config finding: {findings:?}"
    );
}

/// A malformed allowlist is a finding in its own right: unknown keys,
/// dangling paths, unknown lints, misplaced or non-positive `sites`.
#[test]
fn config_reject_fixture_fails() {
    let fixtures = fixtures_dir();
    let output = Command::new(env!("CARGO_BIN_EXE_ft-audit"))
        .arg("--root")
        .arg(fixtures.join("accept"))
        .arg("--allow")
        .arg(fixtures.join("reject_config/audit_allow.json"))
        .arg("--json")
        .output()
        .expect("ft-audit runs");
    let (code, findings) = report(&output);
    assert_eq!(code, 1);
    let config: Vec<_> = findings.iter().filter(|(l, _)| l == "config").collect();
    assert_eq!(
        config.len(),
        7,
        "typo key, dangling path (x3), unknown lint, sites on a non-L3 entry, \
         zero sites: {findings:?}"
    );
}

/// The accept tree exercises every lint's compliant form — SAFETY'd
/// unsafe impls, justified and self-documenting orderings, scoped
/// threads, grammatical metric names, poison-recovering locks, and
/// cfg(test) exemptions — and must come back clean through the binary.
#[test]
fn accept_fixture_is_clean() {
    let output = audit_fixture("accept");
    let (code, findings) = report(&output);
    assert_eq!(code, 0, "accept fixture must exit 0: {findings:?}");
    assert!(findings.is_empty(), "{findings:?}");
}

/// Self-check: the real workspace, under its checked-in policy files,
/// is audit-clean. This is the test-suite twin of the required CI step.
#[test]
fn workspace_is_audit_clean() {
    let report = ft_audit::run(&ft_audit::Options {
        root: Some(workspace_root()),
        ..Default::default()
    })
    .expect("audit runs");
    assert!(
        report.is_clean(),
        "workspace must stay audit-clean:\n{}",
        report.human()
    );
    // The walker found the real tree, not an empty directory.
    assert!(report.files_scanned > 100, "{} files", report.files_scanned);
}
