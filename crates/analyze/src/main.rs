//! `mobisense-analyze` CLI.
//!
//! ```text
//! cargo run -p mobisense-analyze -- --deny-all          # CI gate
//! cargo run -p mobisense-analyze -- --list              # lint inventory
//! cargo run -p mobisense-analyze -- --only hot-path     # one lint
//! cargo run -p mobisense-analyze -- --root /path/to/ws  # other root
//! cargo run -p mobisense-analyze -- --cache .analyze-cache \
//!     --report findings.json --deny-all                 # CI, warm + artifact
//! ```
//!
//! Findings print one per line as `path:line: [lint] message`. Without
//! `--deny-all` the exit code is always 0 (report-only); with it, any
//! finding exits 1. I/O or usage errors exit 2.
//!
//! A full-suite run (no `--only`) also runs waiver hygiene: stale or
//! unknown-tag `// lint:` waivers are findings. A subset run skips it,
//! because a waiver owned by a lint that did not run would look stale.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use mobisense_analyze::{all_lints, cache, report, run_full};

struct Options {
    root: PathBuf,
    deny_all: bool,
    list: bool,
    only: Vec<String>,
    report: Option<PathBuf>,
    cache: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: mobisense-analyze [--root DIR] [--deny-all] [--list] [--only LINT]...\n\
     \x20                        [--report FILE] [--cache FILE]\n\
     \n\
     --root DIR    workspace root to scan (default: current directory)\n\
     --deny-all    exit 1 when any lint finding is reported\n\
     --list        print every lint with its invariant and exit\n\
     --only LINT   run only the named lint (repeatable; disables waiver hygiene)\n\
     --report FILE write a JSON findings report (written pass or fail)\n\
     --cache FILE  incremental lex cache: unchanged files skip re-lexing"
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        deny_all: false,
        list: false,
        only: Vec::new(),
        report: None,
        cache: None,
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let dir = args.next().ok_or("--root needs a directory")?;
                opts.root = PathBuf::from(dir);
            }
            "--deny-all" => opts.deny_all = true,
            "--list" => opts.list = true,
            "--only" => {
                let name = args.next().ok_or("--only needs a lint name")?;
                opts.only.push(name);
            }
            "--report" => {
                let path = args.next().ok_or("--report needs a file path")?;
                opts.report = Some(PathBuf::from(path));
            }
            "--cache" => {
                let path = args.next().ok_or("--cache needs a file path")?;
                opts.cache = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let mut lints = all_lints();
    if opts.list {
        for lint in &lints {
            println!("{:<22} {}", lint.name(), lint.invariant());
        }
        return ExitCode::SUCCESS;
    }
    if !opts.only.is_empty() {
        let known: Vec<&str> = lints.iter().map(|l| l.name()).collect();
        for name in &opts.only {
            if !known.contains(&name.as_str()) {
                eprintln!("error: unknown lint `{name}` (known: {})", known.join(", "));
                return ExitCode::from(2);
            }
        }
        lints.retain(|l| opts.only.iter().any(|n| n == l.name()));
    }

    let (ws, stats) = match cache::load_workspace_cached(&opts.root, opts.cache.as_deref()) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!(
                "error: failed to load workspace at {}: {e}",
                opts.root.display()
            );
            return ExitCode::from(2);
        }
    };
    if ws.files.is_empty() {
        eprintln!(
            "error: no sources found under {} (expected crates/*/src)",
            opts.root.display()
        );
        return ExitCode::from(2);
    }

    // Waiver hygiene needs the full suite: a subset run cannot tell a
    // stale waiver from one owned by a lint that did not run.
    let out = run_full(&ws, &lints, opts.only.is_empty());
    for f in &out.findings {
        println!("{f}");
    }
    if let Some(path) = &opts.report {
        let doc = report::render(&out, &stats);
        if let Err(e) = fs::write(path, doc) {
            eprintln!("error: failed to write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let n = out.findings.len();
    eprintln!(
        "mobisense-analyze: {} file(s) ({} re-lexed, {} cached), {} lint(s), \
         {n} finding(s), {} suppression(s)",
        stats.files,
        stats.relexed,
        stats.hits,
        lints.len(),
        out.suppressions.len()
    );
    if n > 0 && opts.deny_all {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
