//! Policy-file validation for `scripts/audit_allow.json`, the lint
//! allowlist.
//!
//! The allowlist is checked-in policy, so drift is treated as a hard
//! error, not a warning: unknown keys (typos silently disabling an
//! entry), paths that no longer exist (stale suppressions), and
//! entries no finding matched (dead suppressions) all fail the audit.
//! (`scripts/perf_floors.json` has one parser, the perf gate's
//! `ft_load::gate::Floors::from_json`, which is just as strict.)

use crate::report::Finding;
use serde::{map_get, Value};
use std::path::Path;

/// One allowlist entry: suppress `lint` findings in `path`.
///
/// L3 entries may carry a `sites` budget: the exact number of raw
/// spawn sites the entry sanctions. A budget makes the suppression
/// precise — a new `thread::spawn` sneaking into an allowlisted file
/// changes the count and fails the audit instead of riding the
/// existing blanket suppression.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub lint: String,
    pub path: String,
    pub reason: String,
    pub sites: Option<u64>,
}

#[derive(Debug, Default)]
pub struct Allowlist {
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse and schema-check the allowlist. Returns the list plus any
    /// schema findings (findings make the run fail).
    pub fn load(text: &str, rel_path: &str, root: &Path) -> (Allowlist, Vec<Finding>) {
        let mut findings = Vec::new();
        let mut entries = Vec::new();
        let file_err = |msg: &str| Finding::new("config", rel_path, 0, msg);

        let value: Value = match serde_json::from_str(text) {
            Ok(v) => v,
            Err(e) => {
                return (
                    Allowlist::default(),
                    vec![file_err(&format!("not valid JSON: {e:?}"))],
                )
            }
        };
        let Some(map) = value.as_map() else {
            return (
                Allowlist::default(),
                vec![file_err("top level must be an object")],
            );
        };
        for (key, _) in map {
            if key != "comment" && key != "allow" {
                findings.push(file_err(&format!("unknown top-level key `{key}`")));
            }
        }
        let Ok(allow) = map_get(map, "allow") else {
            findings.push(file_err("missing required key `allow`"));
            return (Allowlist::default(), findings);
        };
        let Some(seq) = allow.as_seq() else {
            findings.push(file_err("`allow` must be an array"));
            return (Allowlist::default(), findings);
        };
        for (i, entry) in seq.iter().enumerate() {
            let entry_err =
                |msg: String| Finding::new("config", rel_path, 0, &format!("allow[{i}]: {msg}"));
            let Some(emap) = entry.as_map() else {
                findings.push(entry_err("must be an object".into()));
                continue;
            };
            for (key, _) in emap {
                if !matches!(key.as_str(), "lint" | "path" | "reason" | "sites") {
                    findings.push(entry_err(format!("unknown key `{key}`")));
                }
            }
            let lint = map_get(emap, "lint").ok().and_then(|v| v.as_str());
            let path = map_get(emap, "path").ok().and_then(|v| v.as_str());
            let reason = map_get(emap, "reason").ok().and_then(|v| v.as_str());
            let (Some(lint), Some(path), Some(reason)) = (lint, path, reason) else {
                findings.push(entry_err("needs string `lint`, `path`, `reason`".into()));
                continue;
            };
            if !matches!(lint, "L1" | "L2" | "L3" | "L4" | "L5" | "L6") {
                findings.push(entry_err(format!("unknown lint `{lint}`")));
                continue;
            }
            if reason.trim().is_empty() {
                findings.push(entry_err("`reason` must not be empty".into()));
            }
            let sites = match map_get(emap, "sites") {
                Err(_) => None,
                Ok(v) => match v.as_num() {
                    Some(n) if n >= 1.0 && n.fract() == 0.0 => {
                        if lint != "L3" {
                            findings.push(entry_err(
                                "`sites` is only valid on L3 entries (spawn-site budget)".into(),
                            ));
                        }
                        Some(n as u64)
                    }
                    _ => {
                        findings.push(entry_err("`sites` must be a positive integer".into()));
                        None
                    }
                },
            };
            if !root.join(path).is_file() {
                findings.push(entry_err(format!(
                    "dangling path `{path}` — file does not exist"
                )));
                continue;
            }
            entries.push(AllowEntry {
                lint: lint.to_string(),
                path: path.to_string(),
                reason: reason.to_string(),
                sites,
            });
        }
        (Allowlist { entries }, findings)
    }

    /// Apply the allowlist: drop suppressed findings, flag any entry
    /// that suppressed nothing as dead policy, and enforce each L3
    /// entry's `sites` budget — suppressing more (or fewer) spawn
    /// findings than budgeted is itself a finding.
    pub fn filter(&self, findings: Vec<Finding>, rel_path: &str) -> Vec<Finding> {
        let mut used = vec![0usize; self.entries.len()];
        let mut kept: Vec<Finding> = Vec::new();
        for f in findings {
            let suppressed = self.entries.iter().enumerate().any(|(i, e)| {
                let hit = e.lint == f.lint && e.path == f.path;
                if hit {
                    used[i] += 1;
                }
                hit
            });
            if !suppressed {
                kept.push(f);
            }
        }
        for (i, e) in self.entries.iter().enumerate() {
            if used[i] == 0 {
                kept.push(Finding::new(
                    "config",
                    rel_path,
                    0,
                    &format!(
                        "unused allowlist entry ({} in `{}`) — remove it or re-justify",
                        e.lint, e.path
                    ),
                ));
            } else if let Some(sites) = e.sites {
                if used[i] as u64 != sites {
                    kept.push(Finding::new(
                        "config",
                        rel_path,
                        0,
                        &format!(
                            "allowlist entry ({} in `{}`) suppressed {} finding(s) but budgets \
                             `sites: {}` — a new raw spawn appeared or the budget is stale",
                            e.lint, e.path, used[i], sites
                        ),
                    ));
                }
            }
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Finding;
    use std::path::Path;

    #[test]
    fn allowlist_unknown_key_and_dangling_path_are_errors() {
        let text = r#"{"allow": [
            {"lint": "L3", "path": "does/not/exist.rs", "reason": "x"},
            {"lint": "L3", "path": "Cargo.toml", "reason": "x", "extra": 1}
        ]}"#;
        let (_, findings) =
            Allowlist::load(text, "scripts/audit_allow.json", Path::new("/root/repo"));
        assert!(findings.iter().any(|f| f.message.contains("dangling path")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("unknown key `extra`")));
    }

    #[test]
    fn sites_budget_is_schema_checked() {
        // Valid: integer budget on an L3 entry.
        let ok = r#"{"allow": [
            {"lint": "L3", "path": "Cargo.toml", "reason": "spawn point", "sites": 2}
        ]}"#;
        let (allow, findings) = Allowlist::load(ok, "a.json", Path::new("/root/repo"));
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(allow.entries[0].sites, Some(2));

        // Invalid: non-L3 entry, zero, and fractional budgets.
        let bad = r#"{"allow": [
            {"lint": "L1", "path": "Cargo.toml", "reason": "x", "sites": 1},
            {"lint": "L3", "path": "Cargo.toml", "reason": "x", "sites": 0},
            {"lint": "L3", "path": "Cargo.toml", "reason": "x", "sites": 1.5}
        ]}"#;
        let (_, findings) = Allowlist::load(bad, "a.json", Path::new("/root/repo"));
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("only valid on L3")),
            "{findings:?}"
        );
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.message.contains("positive integer"))
                .count(),
            2,
            "{findings:?}"
        );
    }

    #[test]
    fn sites_budget_enforces_exact_spawn_count() {
        let text = r#"{"allow": [
            {"lint": "L3", "path": "Cargo.toml", "reason": "spawn point", "sites": 1}
        ]}"#;
        let (allow, schema) = Allowlist::load(text, "a.json", Path::new("/root/repo"));
        assert!(schema.is_empty(), "{schema:?}");

        // Exactly on budget: both findings suppressed cleanly.
        let on_budget = vec![Finding::new("L3", "Cargo.toml", 4, "spawn")];
        assert!(allow.filter(on_budget, "a.json").is_empty());

        // A second spawn site blows the budget even though both match.
        let over = vec![
            Finding::new("L3", "Cargo.toml", 4, "spawn"),
            Finding::new("L3", "Cargo.toml", 9, "spawn"),
        ];
        let kept = allow.filter(over, "a.json");
        assert_eq!(kept.len(), 1, "{kept:?}");
        assert!(
            kept[0].message.contains("suppressed 2 finding(s)")
                && kept[0].message.contains("sites: 1"),
            "{kept:?}"
        );
    }

    #[test]
    fn unused_allowlist_entries_are_flagged_used_ones_suppress() {
        let text = r#"{"allow": [
            {"lint": "L3", "path": "Cargo.toml", "reason": "spawn point"},
            {"lint": "L1", "path": "Cargo.toml", "reason": "never fires"}
        ]}"#;
        let (allow, schema) = Allowlist::load(text, "a.json", Path::new("/root/repo"));
        assert!(schema.is_empty(), "{schema:?}");
        let raw = vec![Finding::new("L3", "Cargo.toml", 4, "spawn")];
        let kept = allow.filter(raw, "a.json");
        assert_eq!(kept.len(), 1, "{kept:?}");
        assert!(kept[0].message.contains("unused allowlist entry"));
        assert!(kept[0].message.contains("L1"));
    }
}
