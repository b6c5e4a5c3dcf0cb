//! The six repo-specific lints.
//!
//! All lints run over the comment/string-aware line model from
//! [`crate::scan`], so text inside comments or literals never trips a
//! token check and a justification inside a string never satisfies one.
//!
//! | lint | invariant |
//! |------|-----------|
//! | L1 | every `unsafe` block/fn/impl carries a `// SAFETY:` justification |
//! | L2 | every `Ordering::Relaxed` — and any `Acquire`/`Release` whose counterpart is not in the same function — carries `// ORDERING:` |
//! | L3 | `std::thread::spawn` / `thread::Builder` only in allowlisted spawn points |
//! | L4 | metric names registered on `MetricsRegistry` follow `ft_<crate>_<what>_<unit or total>` |
//! | L5 | no `unwrap()`/`expect()` on `Mutex::lock` in `crates/server` (poisoning policy) |
//! | L6 | span names handed to `ft_trace` follow `<crate>.<component>.<verb>` |
//!
//! L1 applies everywhere (test `unsafe` is still `unsafe`); L2–L6 apply
//! to production code only — integration tests, benches, examples and
//! in-file `#[cfg(test)]` regions are exempt.

use crate::report::Finding;
use crate::scan::SourceFile;

/// How many code-free lines above a site the justification comment may
/// sit (attributes and blank lines in between are skipped).
const COMMENT_LOOKBACK: usize = 8;

pub fn run_all(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    lint_l1_unsafe_safety(file, &mut findings);
    lint_l2_ordering(file, &mut findings);
    lint_l3_thread_spawn(file, &mut findings);
    lint_l4_metric_names(file, &mut findings);
    lint_l5_lock_unwrap(file, &mut findings);
    lint_l6_span_names(file, &mut findings);
    findings
}

/// Does the site at `idx` carry a justification comment containing
/// `marker` — on the same line, or in the contiguous comment/attribute
/// block immediately above it?
///
/// A code line containing `run_token` does not break the block: one
/// justification covers a contiguous run of same-kind sites (paired
/// `unsafe impl Send/Sync`, an adjacent pair of relaxed stores).
/// Continuation heads of a wrapped statement (`let x =` above an
/// `unsafe { … }`) don't break it either.
fn has_justification(file: &SourceFile, idx: usize, marker: &str, run_token: &str) -> bool {
    if file.lines[idx].comment.contains(marker) {
        return true;
    }
    let mut looked = 0;
    for j in (0..idx).rev() {
        let line = &file.lines[j];
        if line.comment.contains(marker) {
            return true;
        }
        let code = line.code.trim();
        if !code.is_empty()
            && !code.starts_with("#[")
            && !code.starts_with("#!")
            && !code.contains(run_token)
            && (code.ends_with(';') || code.ends_with('}') || code.ends_with('{'))
        {
            return false;
        }
        looked += 1;
        if looked >= COMMENT_LOOKBACK {
            return false;
        }
    }
    false
}

/// Is `token` present in `code` with identifier-boundary on both sides?
fn has_token(code: &str, token: &str) -> bool {
    token_pos(code, token).is_some()
}

fn token_pos(code: &str, token: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = code[from..].find(token) {
        let pos = from + rel;
        let before_ok = pos == 0
            || !code[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = pos + token.len();
        let after_ok = after >= code.len()
            || !code[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(pos);
        }
        from = pos + token.len();
    }
    None
}

/// L1: `unsafe` needs `// SAFETY:`. Applies to test code too — the
/// compiler's proof obligation does not care where the block lives.
fn lint_l1_unsafe_safety(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if !has_token(&line.code, "unsafe") {
            continue;
        }
        if !has_justification(file, idx, "SAFETY:", "unsafe") {
            findings.push(Finding::new(
                "L1",
                &file.rel_path,
                idx + 1,
                "`unsafe` without a `// SAFETY:` justification",
            ));
        }
    }
}

/// Function regions for the L2 counterpart heuristic: the file split at
/// lines introducing a `fn`. Approximate (nested fns merge into their
/// parent's tail region) but deterministic, and exact for this
/// workspace's flat function bodies.
fn fn_region(file: &SourceFile, idx: usize) -> (usize, usize) {
    let is_fn_line = |line: &str| has_token(line, "fn") && line.contains('(');
    let mut start = 0;
    for j in (0..=idx).rev() {
        if is_fn_line(&file.lines[j].code) {
            start = j;
            break;
        }
    }
    let mut end = file.lines.len();
    for (j, line) in file.lines.iter().enumerate().skip(idx + 1) {
        if is_fn_line(&line.code) {
            end = j;
            break;
        }
    }
    (start, end)
}

/// L2: `Ordering::Relaxed` always needs `// ORDERING:`; `Acquire`,
/// `Release` and `AcqRel` need it only when their counterpart is not
/// visible in the same function (a paired load/store a few lines apart
/// documents itself; a release whose matching acquire lives in another
/// function does not).
fn lint_l2_ordering(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if !file.is_prod_line(idx) {
            continue;
        }
        let relaxed = line.code.contains("Ordering::Relaxed");
        let acquire = line.code.contains("Ordering::Acquire");
        let release = line.code.contains("Ordering::Release");
        let acqrel = line.code.contains("Ordering::AcqRel");
        if !(relaxed || acquire || release || acqrel) {
            continue;
        }
        if has_justification(file, idx, "ORDERING:", "Ordering::") {
            continue;
        }
        if relaxed {
            findings.push(Finding::new(
                "L2",
                &file.rel_path,
                idx + 1,
                "`Ordering::Relaxed` without an `// ORDERING:` justification",
            ));
            continue;
        }
        // Acquire/Release: exempt when the counterpart is in the same
        // function. AcqRel pairs with anything (including itself).
        let (start, end) = fn_region(file, idx);
        let counterpart_here =
            |needle: &str| (start..end).any(|j| j != idx && file.lines[j].code.contains(needle));
        let paired = if acqrel {
            counterpart_here("Ordering::Acquire")
                || counterpart_here("Ordering::Release")
                || counterpart_here("Ordering::AcqRel")
        } else {
            (acquire
                && (counterpart_here("Ordering::Release") || counterpart_here("Ordering::AcqRel")))
                || (release
                    && (counterpart_here("Ordering::Acquire")
                        || counterpart_here("Ordering::AcqRel")))
        };
        if !paired {
            findings.push(Finding::new(
                "L2",
                &file.rel_path,
                idx + 1,
                "acquire/release with its counterpart in another function and no `// ORDERING:` justification",
            ));
        }
    }
}

/// L3: raw thread creation is reserved for the ft-exec pool and
/// ft-server's reactor thread (which every tier starts through);
/// everything else rides the shared pool.
/// Violations are suppressed per-file via `scripts/audit_allow.json`.
/// Scoped `thread::scope` spawns are structured (joined before return)
/// and stay legal.
fn lint_l3_thread_spawn(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if !file.is_prod_line(idx) {
            continue;
        }
        if line.code.contains("thread::spawn") || line.code.contains("thread::Builder") {
            findings.push(Finding::new(
                "L3",
                &file.rel_path,
                idx + 1,
                "raw thread creation outside the sanctioned spawn points (ft-exec pool, ft-server's reactor thread)",
            ));
        }
    }
}

const HISTOGRAM_UNITS: [&str; 6] = ["_ns", "_us", "_ms", "_seconds", "_bytes", "_cents"];

/// L4: metric-name grammar. A name registered from `crates/<dir>/…`
/// must read `ft_<dir>_<what>` with the instrument's suffix: counters
/// end `_total`, histograms end in a unit, gauges are instantaneous
/// levels and need only the prefix. A `{label="…"}` suffix is stripped
/// before checking (`{{`/`}}` in `format!` strings included).
fn lint_l4_metric_names(file: &SourceFile, findings: &mut Vec<Finding>) {
    let Some(crate_dir) = file.crate_dir.as_deref() else {
        return;
    };
    let prefix = format!("ft_{}_", crate_dir.replace('-', "_"));
    for (idx, line) in file.lines.iter().enumerate() {
        if !file.is_prod_line(idx) {
            continue;
        }
        for kind in ["counter", "gauge", "histogram"] {
            // Registration call: `.counter(` / `.gauge(` / `.histogram(`.
            let needle = format!(".{kind}(");
            let Some(dot) = line.code.find(&needle) else {
                continue;
            };
            let call = dot + 1;
            // The name literal is the first string at or after the call
            // — possibly on a following line (`format!` wraps).
            let literal = line
                .strings
                .iter()
                .find(|(off, _)| *off > call)
                .map(|(_, s)| s.clone())
                .or_else(|| {
                    (idx + 1..(idx + 4).min(file.lines.len()))
                        .find_map(|j| file.lines[j].strings.first().map(|(_, s)| s.clone()))
                });
            let Some(raw_name) = literal else {
                continue; // dynamically built name — out of scope
            };
            let name = raw_name.split('{').next().unwrap_or("").to_string();
            let bad = if !name.starts_with(&prefix) {
                Some(format!(
                    "metric name `{name}` must start with `{prefix}` (defining crate)"
                ))
            } else if kind == "counter" && !name.ends_with("_total") {
                Some(format!("counter `{name}` must end `_total`"))
            } else if kind == "histogram" && !HISTOGRAM_UNITS.iter().any(|u| name.ends_with(u)) {
                Some(format!(
                    "histogram `{name}` must end in a unit suffix ({})",
                    HISTOGRAM_UNITS.join(", ")
                ))
            } else {
                None
            };
            if let Some(msg) = bad {
                findings.push(Finding::new("L4", &file.rel_path, idx + 1, &msg));
            }
        }
    }
}

/// L5: in `crates/server`, `Mutex::lock` results must not be
/// `unwrap()`/`expect()`ed — a worker panic while holding a queue lock
/// would cascade poison panics through the serving tier. The policy is
/// `unwrap_or_else(|e| e.into_inner())`: the guarded structures are
/// valid after any partial update a panicking holder could make.
fn lint_l5_lock_unwrap(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.crate_dir.as_deref() != Some("server") {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if !file.is_prod_line(idx) {
            continue;
        }
        let code = &line.code;
        let Some(pos) = code.find(".lock()") else {
            continue;
        };
        let after = code[pos + ".lock()".len()..].trim_start();
        let offends = if after.starts_with(".unwrap()") || after.starts_with(".expect(") {
            true
        } else if after.is_empty() || after == ";" {
            // Chain continues on the next code line.
            (idx + 1..file.lines.len())
                .find(|j| !file.lines[*j].code.trim().is_empty())
                .is_some_and(|j| {
                    let next = file.lines[j].code.trim();
                    next.starts_with(".unwrap()") || next.starts_with(".expect(")
                })
        } else {
            false
        };
        if offends {
            findings.push(Finding::new(
                "L5",
                &file.rel_path,
                idx + 1,
                "`unwrap()`/`expect()` on `Mutex::lock` in the serving tier — use `unwrap_or_else(|e| e.into_inner())` (poisoning policy)",
            ));
        }
    }
}

/// The `ft_trace` call sites whose first string literal is a span name.
const TRACE_NEEDLES: [&str; 4] = [
    "ft_trace::span(",
    "ft_trace::record(",
    "ft_trace::begin_at(",
    "ft_trace::begin_with(",
];

/// L6: span-name grammar. A name handed to `ft_trace` from
/// `crates/<dir>/…` must read `<dir>.<component>.<verb>` — exactly
/// three dot-separated `[a-z0-9_]+` segments, the first naming the
/// defining crate (`-` → `_`) — so every trace renders with a stable
/// crate → component → verb hierarchy and tooling can prefix-match a
/// crate's spans. Mirrors the L4 metric-name grammar; `crates/trace`
/// itself is exempt (it defines the API, and its docs and tests
/// exercise other crates' namespaces).
fn lint_l6_span_names(file: &SourceFile, findings: &mut Vec<Finding>) {
    let Some(crate_dir) = file.crate_dir.as_deref() else {
        return;
    };
    if crate_dir == "trace" {
        return;
    }
    let crate_seg = crate_dir.replace('-', "_");
    for (idx, line) in file.lines.iter().enumerate() {
        if !file.is_prod_line(idx) {
            continue;
        }
        for needle in TRACE_NEEDLES {
            let Some(pos) = line.code.find(needle) else {
                continue;
            };
            let call = pos + needle.len() - 1;
            // The name literal is the first string after the opening
            // paren — possibly on a following line (wrapped call).
            let literal = line
                .strings
                .iter()
                .find(|(off, _)| *off > call)
                .map(|(_, s)| s.clone())
                .or_else(|| {
                    (idx + 1..(idx + 4).min(file.lines.len()))
                        .find_map(|j| file.lines[j].strings.first().map(|(_, s)| s.clone()))
                });
            let Some(name) = literal else {
                continue; // dynamically built name — out of scope
            };
            let segments: Vec<&str> = name.split('.').collect();
            let well_formed = segments.len() == 3
                && segments.iter().all(|seg| {
                    !seg.is_empty()
                        && seg
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                });
            let bad = if !well_formed {
                Some(format!(
                    "span name `{name}` must be `<crate>.<component>.<verb>` \
                     (three dot-separated lowercase segments)"
                ))
            } else if segments[0] != crate_seg {
                Some(format!(
                    "span name `{name}` must start `{crate_seg}.` (defining crate)"
                ))
            } else {
                None
            };
            if let Some(msg) = bad {
                findings.push(Finding::new("L6", &file.rel_path, idx + 1, &msg));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;
    use std::path::Path;

    fn scan_at(rel: &str, text: &str) -> SourceFile {
        scan_source(rel, Path::new(rel), text)
    }

    #[test]
    fn l1_accepts_preceding_and_trailing_safety_comments() {
        let ok = scan_at(
            "crates/demo/src/lib.rs",
            "// SAFETY: pointer is valid for the call\nunsafe { work(p) };\nlet x = unsafe { go() }; // SAFETY: inline proof",
        );
        assert!(run_all(&ok).iter().all(|f| f.lint != "L1"));
        let bad = scan_at("crates/demo/src/lib.rs", "unsafe { work(p) };");
        assert_eq!(run_all(&bad).iter().filter(|f| f.lint == "L1").count(), 1);
    }

    #[test]
    fn l1_comment_block_is_broken_by_code() {
        let bad = scan_at(
            "crates/demo/src/lib.rs",
            "// SAFETY: for the other block\nlet y = 1;\nunsafe { work(p) };",
        );
        assert_eq!(run_all(&bad).iter().filter(|f| f.lint == "L1").count(), 1);
    }

    #[test]
    fn l2_relaxed_needs_ordering_everywhere_but_tests() {
        let bad = scan_at(
            "crates/demo/src/lib.rs",
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }",
        );
        assert_eq!(run_all(&bad).iter().filter(|f| f.lint == "L2").count(), 1);
        let test_code = scan_at(
            "crates/demo/tests/t.rs",
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }",
        );
        assert!(run_all(&test_code).iter().all(|f| f.lint != "L2"));
    }

    #[test]
    fn l2_same_function_pair_is_exempt_cross_function_is_not() {
        let paired = scan_at(
            "crates/demo/src/lib.rs",
            "fn swap(a: &AtomicU64) -> u64 {\n    let old = a.load(Ordering::Acquire);\n    a.store(7, Ordering::Release);\n    old\n}",
        );
        assert!(run_all(&paired).iter().all(|f| f.lint != "L2"));
        let split = scan_at(
            "crates/demo/src/lib.rs",
            "fn publish(a: &AtomicU64) {\n    a.store(7, Ordering::Release);\n}\nfn read(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Acquire)\n}",
        );
        assert_eq!(run_all(&split).iter().filter(|f| f.lint == "L2").count(), 2);
    }

    #[test]
    fn l3_flags_spawn_and_builder_in_prod_only() {
        let bad = scan_at(
            "crates/demo/src/lib.rs",
            "fn go() { std::thread::spawn(|| {}); }\nfn go2() { thread::Builder::new(); }",
        );
        assert_eq!(run_all(&bad).iter().filter(|f| f.lint == "L3").count(), 2);
        let test_code = scan_at(
            "crates/demo/tests/t.rs",
            "fn go() { std::thread::spawn(|| {}); }",
        );
        assert!(run_all(&test_code).iter().all(|f| f.lint != "L3"));
    }

    #[test]
    fn l4_grammar_per_instrument() {
        let src = concat!(
            "fn wire(m: &MetricsRegistry) {\n",
            "    m.counter(\"ft_demo_requests_total\");\n",
            "    m.counter(\"ft_demo_requests\");\n",
            "    m.histogram(\"ft_demo_wait_ns\");\n",
            "    m.histogram(\"ft_demo_wait\");\n",
            "    m.gauge(\"ft_demo_conns_active\");\n",
            "    m.counter(\"ft_other_requests_total\");\n",
            "    m.counter(\"ft_demo_reqs_total{op=\\\"solve\\\"}\");\n",
            "}\n"
        );
        let f = scan_at("crates/demo/src/lib.rs", src);
        let l4: Vec<usize> = run_all(&f)
            .into_iter()
            .filter(|f| f.lint == "L4")
            .map(|f| f.line)
            .collect();
        assert_eq!(
            l4,
            vec![3, 5, 7],
            "bare counter, unitless histogram, wrong crate"
        );
    }

    #[test]
    fn l4_reads_the_literal_from_a_multiline_format_call() {
        let src = "fn wire(m: &MetricsRegistry) {\n    m.counter(&format!(\n        \"ft_demo_requests_total{{op=\\\"{}\\\"}}\",\n        op\n    ));\n}\n";
        let f = scan_at("crates/demo/src/lib.rs", src);
        assert!(run_all(&f).iter().all(|f| f.lint != "L4"));
    }

    #[test]
    fn l5_server_lock_unwrap_same_line_and_chained() {
        let bad = scan_at(
            "crates/server/src/demo.rs",
            "fn f(q: &Mutex<u32>) {\n    let a = q.lock().unwrap();\n    let b = q\n        .lock()\n        .expect(\"poisoned\");\n}",
        );
        assert_eq!(run_all(&bad).iter().filter(|f| f.lint == "L5").count(), 2);
        let ok = scan_at(
            "crates/server/src/demo.rs",
            "fn f(q: &Mutex<u32>) { let a = q.lock().unwrap_or_else(|e| e.into_inner()); }",
        );
        assert!(run_all(&ok).iter().all(|f| f.lint != "L5"));
        let other_crate = scan_at(
            "crates/core/src/demo.rs",
            "fn f(q: &Mutex<u32>) { let a = q.lock().unwrap(); }",
        );
        assert!(run_all(&other_crate).iter().all(|f| f.lint != "L5"));
    }

    #[test]
    fn l6_span_name_grammar() {
        let src = concat!(
            "fn solve() {\n",
            "    let _ok = ft_trace::span(\"demo.solver.sweep\");\n",
            "    let _wrong_crate = ft_trace::span(\"other.solver.sweep\");\n",
            "    let _two_segments = ft_trace::span(\"demo.sweep\");\n",
            "    ft_trace::record(\"demo.solver.Sweep\", 0, 1);\n",
            "    let _ok_root = ft_trace::begin_at(7, \"demo.request.serve\", 0);\n",
            "}\n"
        );
        let f = scan_at("crates/demo/src/lib.rs", src);
        let l6: Vec<usize> = run_all(&f)
            .into_iter()
            .filter(|f| f.lint == "L6")
            .map(|f| f.line)
            .collect();
        assert_eq!(l6, vec![3, 4, 5], "wrong crate, two segments, uppercase");
    }

    /// The executor and pmf-cache instruments are the names CI
    /// greps dashboards for; pin the grammar on the real names (accept)
    /// and on the mistakes a refactor would most plausibly introduce
    /// (reject: registering from the wrong crate, dotted-name drift).
    #[test]
    fn l4_l6_pin_the_steal_and_batch_instrument_names() {
        let exec_ok = scan_at(
            "crates/exec/src/metrics.rs",
            concat!(
                "fn wire(m: &MetricsRegistry) {\n",
                "    m.counter(\"ft_exec_steals_total\");\n",
                "    m.counter(\"ft_exec_deque_overflow_total\");\n",
                "}\n",
                "fn join() { let _s = ft_trace::span(\"exec.pool.join\"); }\n"
            ),
        );
        assert!(
            run_all(&exec_ok)
                .iter()
                .all(|f| f.lint != "L4" && f.lint != "L6"),
            "exec instrument names must satisfy their own grammar"
        );
        let core_ok = scan_at(
            "crates/core/src/registry/mod.rs",
            concat!(
                "fn wire(m: &MetricsRegistry) {\n",
                "    m.counter(\"ft_core_batched_solves_total\");\n",
                "    m.counter(\"ft_core_pmf_cache_hits_total\");\n",
                "}\n",
                "fn wait() { let _s = ft_trace::span(\"core.service.batch_wait\"); }\n"
            ),
        );
        assert!(
            run_all(&core_ok)
                .iter()
                .all(|f| f.lint != "L4" && f.lint != "L6"),
            "core pmf-cache instrument names must satisfy their own grammar"
        );
        // Reject: the steal counter registered from ft-core (a metrics
        // consolidation would silently re-crate the name), and the two
        // likeliest span-name regressions.
        let wrong_crate = scan_at(
            "crates/core/src/registry/mod.rs",
            "fn wire(m: &MetricsRegistry) { m.counter(\"ft_exec_steals_total\"); }\n",
        );
        assert_eq!(
            run_all(&wrong_crate)
                .iter()
                .filter(|f| f.lint == "L4")
                .count(),
            1
        );
        let bad_spans = scan_at(
            "crates/exec/src/pool.rs",
            concat!(
                "fn f() {\n",
                "    let _two_segments = ft_trace::span(\"exec.steal\");\n",
                "    let _foreign = ft_trace::span(\"core.service.batch_wait\");\n",
                "}\n"
            ),
        );
        assert_eq!(
            run_all(&bad_spans)
                .iter()
                .filter(|f| f.lint == "L6")
                .count(),
            2
        );
    }

    #[test]
    fn l6_exempts_tests_the_trace_crate_and_dynamic_names() {
        let test_code = scan_at(
            "crates/demo/tests/t.rs",
            "fn f() { let _s = ft_trace::span(\"x\"); }",
        );
        assert!(run_all(&test_code).iter().all(|f| f.lint != "L6"));
        let own_crate = scan_at(
            "crates/trace/src/lib.rs",
            "fn f() { let _s = ft_trace::span(\"x\"); }",
        );
        assert!(run_all(&own_crate).iter().all(|f| f.lint != "L6"));
        let dynamic = scan_at(
            "crates/demo/src/lib.rs",
            "fn f(name: &'static str) { let _s = ft_trace::span(name); }",
        );
        assert!(run_all(&dynamic).iter().all(|f| f.lint != "L6"));
    }
}
