//! Smoke tests for the experiment registry: every id dispatches, cheap
//! experiments run end to end in fast mode, and reports are well-formed.
//! The ignored golden test pins every printed number of the `--fast`
//! run against `tests/golden/experiments_fast.txt`.

use finish_them::sim::{run_by_id, ExpConfig, ALL_IDS};

#[test]
fn every_id_dispatches() {
    for id in ALL_IDS {
        // Dispatch-only check via an unknown-id probe is covered below;
        // here we just assert the registry knows each id (without running
        // the heavy ones).
        assert!(
            [
                "fig1", "tab1", "fig5", "fig6", "fig7a", "fig7b", "fig8abc", "fig8d", "fig9",
                "fig10", "fig11", "fig12", "tab34", "fig15", "adaptive"
            ]
            .contains(id),
            "unexpected id {id}"
        );
    }
}

#[test]
fn unknown_id_is_none() {
    assert!(run_by_id("nope", ExpConfig::fast()).is_none());
}

#[test]
fn cheap_experiments_run_fast_mode() {
    // These complete in seconds even in debug builds.
    for id in ["fig1", "tab1", "fig6"] {
        let reports = run_by_id(id, ExpConfig::fast()).unwrap();
        assert!(!reports.is_empty(), "{id} produced no reports");
        for rep in &reports {
            for row in &rep.rows {
                assert_eq!(row.len(), rep.columns.len(), "{id}: ragged row");
            }
            // Rendering must not panic and must contain the id.
            assert!(rep.to_ascii().contains(&rep.id));
            let _ = rep.to_csv();
        }
    }
}

#[test]
fn tab1_reproduces_paper_exactly() {
    let reports = run_by_id("tab1", ExpConfig::fast()).unwrap();
    let tab = &reports[0];
    let expect = [(10.0, "35"), (20.0, "53"), (50.0, "99")];
    for (row, (lam, s0)) in tab.rows.iter().zip(expect) {
        assert_eq!(row[1].parse::<f64>().unwrap(), lam);
        assert_eq!(row[2], s0);
    }
}

#[test]
fn seeds_are_reproducible() {
    let a = run_by_id("fig1", ExpConfig::fast()).unwrap();
    let b = run_by_id("fig1", ExpConfig::fast()).unwrap();
    assert_eq!(a, b, "same seed must give identical reports");
    let c = run_by_id(
        "fig1",
        ExpConfig {
            fast: true,
            seed: 999,
        },
    )
    .unwrap();
    assert_ne!(a, c, "different seed must change the trace");
}

/// Stands in for fig8d's `solve_ms` cells, the only wall-clock values a
/// report prints.
const MASKED: &str = "<ms>";

/// `to_ascii()` of every report of every id in [`ALL_IDS`] under
/// [`ExpConfig::fast`], in order, with fig8d's timings masked.
fn fast_reports_ascii() -> String {
    let mut out = String::new();
    for id in ALL_IDS {
        for mut rep in run_by_id(id, ExpConfig::fast()).expect("registered id") {
            if rep.id == "fig8d" {
                let col = rep
                    .columns
                    .iter()
                    .position(|c| c == "solve_ms")
                    .expect("fig8d prints solve_ms");
                for row in &mut rep.rows {
                    row[col] = MASKED.to_string();
                }
            }
            out.push_str(&rep.to_ascii());
            out.push('\n');
        }
    }
    out
}

/// Every number the `--fast` experiments print, compared exactly with
/// the checked-in output. Ignored by default because it runs every
/// experiment; CI runs it in release with
/// `cargo test --release --test experiments -- --ignored`.
#[test]
#[ignore]
fn fast_experiments_match_golden_output() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/experiments_fast.txt"
    );
    let golden = std::fs::read_to_string(path).expect("golden output is checked in");
    let got = fast_reports_ascii();
    if got == golden {
        return;
    }
    let mut got_lines = got.lines();
    let mut want_lines = golden.lines();
    for line in 1.. {
        match (got_lines.next(), want_lines.next()) {
            (Some(g), Some(w)) if g == w => {}
            (None, None) => {
                panic!("experiments --fast output differs from {path} in line endings")
            }
            (g, w) => panic!(
                "experiments --fast output differs from {path} at line {line}:\n  \
                 golden: {}\n  got:    {}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of output>"),
            ),
        }
    }
}
