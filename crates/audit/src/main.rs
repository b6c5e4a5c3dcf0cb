//! CLI for the workspace invariant checker.
//!
//! ```text
//! ft-audit [--root PATH] [--json] [--allow PATH]
//! ```
//!
//! Exit status: 0 clean, 1 findings, 2 usage or I/O error.

use ft_audit::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut opts = Options::default();
    let mut json = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match argv.next() {
                Some(v) => opts.root = Some(PathBuf::from(v)),
                None => return usage("--root needs a value"),
            },
            "--allow" => match argv.next() {
                Some(v) => opts.allow_path = Some(PathBuf::from(v)),
                None => return usage("--allow needs a value"),
            },
            "--help" | "-h" => {
                println!("usage: ft-audit [--root PATH] [--json] [--allow PATH]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ft-audit: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.human());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ft-audit: {msg}");
    eprintln!("usage: ft-audit [--root PATH] [--json] [--allow PATH]");
    ExitCode::from(2)
}
