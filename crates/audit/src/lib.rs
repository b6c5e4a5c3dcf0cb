//! ft-audit — the workspace invariant checker.
//!
//! A deliberately small static-analysis pass over the workspace's own
//! sources (vendored stand-ins excluded) enforcing the invariants the
//! compiler can't: justification comments on `unsafe` and relaxed
//! atomics, the thread-spawn budget, the metric-name grammar, the span-name
//! grammar, and the serving tier's mutex-poisoning policy — plus schema
//! validation of the checked-in lint allowlist, so a typo in it fails the
//! build instead of silently disabling a suppression. (The perf floors in
//! `scripts/perf_floors.json` are parsed, strictly, by the perf gate
//! itself: `ft_load::gate::Floors::from_json`.)
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p ft-audit            # human output, exit 1 on findings
//! cargo run -p ft-audit -- --json  # machine output (CI artifact)
//! ```
//!
//! The dynamic complement — the lock-order witness — lives in
//! `ft_core::lockcheck` and runs in its own CI leg under
//! `RUSTFLAGS="--cfg lockcheck"`.

pub mod config;
pub mod lints;
pub mod report;
pub mod scan;

use report::{Finding, Report};
use std::path::PathBuf;

/// Workspace-relative location of the lint allowlist.
pub const ALLOW_PATH: &str = "scripts/audit_allow.json";

/// Audit options; `Default` matches the CI invocation.
#[derive(Debug, Default)]
pub struct Options {
    /// Workspace root (defaults to the current directory).
    pub root: Option<PathBuf>,
    /// Override the allowlist location (tests use fixture copies).
    pub allow_path: Option<PathBuf>,
}

/// Run the full audit: schema-check the allowlist, scan every
/// workspace `.rs` file, apply the allowlist.
pub fn run(opts: &Options) -> std::io::Result<Report> {
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => std::env::current_dir()?,
    };
    let mut findings: Vec<Finding> = Vec::new();

    // The allowlist first: a malformed one must fail loudly, not
    // silently suppress nothing.
    let allow_abs = opts
        .allow_path
        .clone()
        .unwrap_or_else(|| root.join(ALLOW_PATH));
    let allowlist = match std::fs::read_to_string(&allow_abs) {
        Ok(text) => {
            let (allowlist, schema_findings) = config::Allowlist::load(&text, ALLOW_PATH, &root);
            findings.extend(schema_findings);
            allowlist
        }
        Err(e) => {
            findings.push(Finding::new(
                "config",
                ALLOW_PATH,
                0,
                &format!("unreadable: {e}"),
            ));
            config::Allowlist::default()
        }
    };
    let files = scan::workspace_files(&root)?;
    let files_scanned = files.len();
    let mut lint_findings: Vec<Finding> = Vec::new();
    for abs in &files {
        let rel = abs
            .strip_prefix(&root)
            .unwrap_or(abs)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(abs)?;
        let source = scan::scan_source(&rel, abs, &text);
        lint_findings.extend(lints::run_all(&source));
    }
    findings.extend(allowlist.filter(lint_findings, ALLOW_PATH));

    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.lint.as_str()).cmp(&(b.path.as_str(), b.line, b.lint.as_str()))
    });
    Ok(Report {
        findings,
        files_scanned,
    })
}
