//! `mobisense-analyze`: a workspace invariant analyzer.
//!
//! The store's headline guarantee — replay of a recorded trace is
//! byte-identical to the live decision log — and the serve layer's
//! no-deadlock guarantee rest on conventions that the compiler cannot
//! check: explicit lock-poison handling, consistent lock ordering,
//! every telemetry event round-tripping through JSONL, wire constants
//! declared exactly once, no blocking under a held lock or in a hot
//! loop. This crate checks them mechanically. The conventions the
//! compiler *can* check (no `unsafe`, no panics in frame paths, no
//! wall clock or seed-ordered container in replay paths, no silently
//! discarded results) are rustc and clippy lints: the workspace lint
//! tables, `clippy.toml`, and module-scoped `deny` attributes.
//!
//! The analyzer is std-only and offline: a small hand-rolled lexer
//! ([`lexer`]) blanks comments and string literals and marks
//! `#[cfg(test)]` regions, an item parser ([`parse`]) recovers
//! functions and impl blocks, and a per-crate call graph ([`graph`])
//! lets the newer lints reason across function boundaries. Run it as:
//!
//! ```text
//! cargo run -p mobisense-analyze -- --deny-all
//! ```
//!
//! Findings can be waived at a specific site with a
//! `// lint: <tag> -- reason` comment on the same line or the line
//! above. Every waiver is accounted for: a lint that honors one
//! records a [`Suppression`], and the waiver-hygiene pass turns any
//! waiver that suppressed nothing into a finding of its own — waivers
//! cannot rot silently. See DESIGN.md §5.10 and §5.15 for each lint's
//! contract and the waiver lifecycle.

#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod cache;
pub mod graph;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod report;

pub use lexer::{lex, Lexed};
pub use parse::ParsedFile;

/// One lint violation at a specific source location.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Name of the lint that fired.
    pub lint: &'static str,
    /// What is wrong and how to fix or waive it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A record that a specific waiver comment suppressed a would-be
/// finding. The waiver-hygiene pass cross-references these against
/// every `// lint:` comment in the workspace.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Suppression {
    /// Workspace-relative path of the waiver comment.
    pub file: String,
    /// 1-based line of the waiver comment itself.
    pub waiver_line: usize,
    /// 1-based line of the suppressed finding.
    pub finding_line: usize,
    /// The lint that honored the waiver.
    pub lint: &'static str,
    /// The accepted tag (e.g. `poison-loud`).
    pub tag: String,
}

/// The result of running lints: active findings plus the suppressions
/// that waivers earned.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Violations, sorted by (file, line, lint, message) after a run.
    pub findings: Vec<Finding>,
    /// Waiver uses, recorded by each lint when it honors a waiver.
    pub suppressions: Vec<Suppression>,
}

impl Outcome {
    /// Records a finding.
    pub fn finding(
        &mut self,
        file: impl Into<String>,
        line: usize,
        lint: &'static str,
        message: impl Into<String>,
    ) {
        self.findings.push(Finding {
            file: file.into(),
            line,
            lint,
            message: message.into(),
        });
    }

    /// Records that the waiver at `waiver_line` suppressed a would-be
    /// finding at `finding_line`.
    pub fn suppress(
        &mut self,
        file: impl Into<String>,
        waiver_line: usize,
        finding_line: usize,
        lint: &'static str,
        tag: impl Into<String>,
    ) {
        self.suppressions.push(Suppression {
            file: file.into(),
            waiver_line,
            finding_line,
            lint,
            tag: tag.into(),
        });
    }

    /// Finding-or-suppression helper for the common site shape: when a
    /// waiver with one of `tags` covers `line`, record the suppression;
    /// otherwise record a finding with `message`.
    pub fn site(
        &mut self,
        file: &SourceFile,
        line: usize,
        lint: &'static str,
        tags: &[&str],
        message: impl Into<String>,
    ) {
        match file.lexed.waiver_match(line, tags) {
            Some((waiver_line, tag)) => {
                self.suppress(file.rel.clone(), waiver_line, line, lint, tag)
            }
            None => self.finding(file.rel.clone(), line, lint, message),
        }
    }
}

/// One lexed and parsed source file of the workspace.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated (e.g.
    /// `crates/serve/src/wire.rs`).
    pub rel: String,
    /// The lexed views of the file.
    pub lexed: Lexed,
    /// The item tree (functions and their owners).
    pub parsed: ParsedFile,
}

/// All first-party sources of the workspace, lexed and parsed.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// Files in sorted `rel` order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// The file with exactly this workspace-relative path, if loaded.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }

    /// Builds a workspace from in-memory sources — used by lint
    /// self-tests to check that each lint fires on known-bad fixtures.
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let mut files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| {
                let lexed = lex(src);
                let parsed = parse::parse(&lexed.code);
                SourceFile {
                    rel: (*rel).to_string(),
                    lexed,
                    parsed,
                }
            })
            .collect();
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Workspace { files }
    }
}

/// A single invariant check over the whole workspace.
pub trait Lint {
    /// Short kebab-case name, used in output and `--only`.
    fn name(&self) -> &'static str;
    /// One-line statement of the invariant the lint enforces.
    fn invariant(&self) -> &'static str;
    /// Appends findings and suppressions for `ws`.
    fn check(&self, ws: &Workspace, out: &mut Outcome);
}

/// Every waiver tag some lint accepts. The waiver-hygiene pass flags
/// tags outside this list as unknown.
pub const KNOWN_WAIVER_TAGS: &[&str] =
    &["poison-loud", "format-const", "hold-and-call", "hot-path"];

/// Lint name under which waiver-hygiene findings are reported.
pub const WAIVER_HYGIENE: &str = "waiver-hygiene";

/// Loads every first-party source file under `root`: `crates/*/src/**`
/// and `xtests/src/**`. Vendored code (`third_party/`), build output
/// (`target/`), committed lint fixtures (`crates/analyze/fixtures/`),
/// and integration-test / bench / example trees are out of scope — the
/// lints govern shipped library and binary code.
pub fn load_workspace(root: &Path) -> io::Result<Workspace> {
    let (ws, _) = cache::load_workspace_cached(root, None)?;
    Ok(ws)
}

/// Collects the `.rs` files in scope under `root` as sorted
/// `(workspace-relative path, absolute path)` pairs.
pub(crate) fn collect_sources(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let src = entry.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut paths)?;
            }
        }
    }
    let xtests_src = root.join("xtests").join("src");
    if xtests_src.is_dir() {
        collect_rs(&xtests_src, &mut paths)?;
    }
    paths.sort();
    Ok(paths
        .into_iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            (rel, path)
        })
        .collect())
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The full lint suite, in the order they are listed and run.
pub fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(lints::locks::LockDiscipline),
        Box::new(lints::deadlock::HoldAndCall),
        Box::new(lints::blocking::HotPath),
        Box::new(lints::telemetry::TelemetryExhaustive),
        Box::new(lints::format_const::FormatConstSingleness),
    ]
}

/// Runs `lints` over `ws`; findings come back sorted by file, line,
/// lint name. Waiver hygiene is **not** checked — use [`run_full`]
/// with the full suite for that (a subset run cannot tell a stale
/// waiver from one owned by a lint that did not run).
pub fn run(ws: &Workspace, lints: &[Box<dyn Lint>]) -> Vec<Finding> {
    run_full(ws, lints, false).findings
}

/// Runs `lints` over `ws`, returning findings and suppressions. With
/// `check_waivers` (correct only when `lints` is the full suite), every
/// `// lint:` waiver in non-test code that suppressed nothing — or
/// that names an unknown tag — becomes a `waiver-hygiene` finding.
pub fn run_full(ws: &Workspace, lints: &[Box<dyn Lint>], check_waivers: bool) -> Outcome {
    let mut out = Outcome::default();
    for lint in lints {
        lint.check(ws, &mut out);
    }
    if check_waivers {
        check_waiver_hygiene(ws, &mut out);
    }
    out.findings.sort();
    out.findings.dedup();
    out.suppressions.sort();
    out.suppressions.dedup();
    out
}

/// The waiver-hygiene pass: cross-references every `// lint:` comment
/// against the suppressions the lints recorded.
fn check_waiver_hygiene(ws: &Workspace, out: &mut Outcome) {
    let mut hygiene: Vec<Finding> = Vec::new();
    for file in &ws.files {
        for c in &file.lexed.comments {
            let Some(rest) = c.text.strip_prefix("lint:") else {
                continue;
            };
            // Waivers in test code are inert (lints skip test lines).
            let covered = if c.standalone { c.line + 1 } else { c.line };
            if file.lexed.is_test_line(c.line) || file.lexed.is_test_line(covered) {
                continue;
            }
            let spec = rest.split("--").next().unwrap_or("");
            for tag in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                if !KNOWN_WAIVER_TAGS.contains(&tag) {
                    hygiene.push(Finding {
                        file: file.rel.clone(),
                        line: c.line,
                        lint: WAIVER_HYGIENE,
                        message: format!(
                            "unknown waiver tag `{tag}`: no lint accepts it \
                             (known: {})",
                            KNOWN_WAIVER_TAGS.join(", ")
                        ),
                    });
                    continue;
                }
                let used = out
                    .suppressions
                    .iter()
                    .any(|s| s.file == file.rel && s.waiver_line == c.line && s.tag == tag);
                if !used {
                    hygiene.push(Finding {
                        file: file.rel.clone(),
                        line: c.line,
                        lint: WAIVER_HYGIENE,
                        message: format!(
                            "stale waiver `{tag}`: it no longer suppresses any \
                             finding — remove the comment (or fix the tag) so \
                             waivers keep meaning something"
                        ),
                    });
                }
            }
        }
    }
    out.findings.append(&mut hygiene);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_sort_and_render_stably() {
        let a = Finding {
            file: "crates/a/src/lib.rs".into(),
            line: 3,
            lint: "hot-path",
            message: "m".into(),
        };
        let b = Finding {
            file: "crates/a/src/lib.rs".into(),
            line: 10,
            lint: "hot-path",
            message: "m".into(),
        };
        let mut v = vec![b.clone(), a.clone()];
        v.sort();
        assert_eq!(v, vec![a.clone(), b]);
        assert_eq!(a.to_string(), "crates/a/src/lib.rs:3: [hot-path] m");
    }

    #[test]
    fn workspace_from_sources_sorts_resolves_and_parses() {
        let ws = Workspace::from_sources(&[
            ("crates/b/src/lib.rs", "fn b() {}"),
            ("crates/a/src/lib.rs", "fn a() {}"),
        ]);
        assert_eq!(ws.files[0].rel, "crates/a/src/lib.rs");
        assert!(ws.file("crates/b/src/lib.rs").is_some());
        assert!(ws.file("crates/c/src/lib.rs").is_none());
        assert_eq!(ws.files[0].parsed.fns.len(), 1);
        assert_eq!(ws.files[0].parsed.fns[0].name, "a");
    }

    #[test]
    fn all_lints_have_unique_names_and_invariants() {
        let lints = all_lints();
        assert!(lints.len() >= 5, "the suite ships at least five lints");
        let mut names: Vec<&str> = lints.iter().map(|l| l.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), lints.len(), "duplicate lint name");
        for lint in &lints {
            assert!(!lint.invariant().is_empty());
        }
    }

    #[test]
    fn stale_and_unknown_waivers_become_findings() {
        let src = "\
fn live(m: &Mutex<u8>) {
    // lint: poison-loud -- nothing on the next line needs it
    let x = 1;
    let y = 2; // lint: determinism -- a retired tag no lint accepts
    let g = m.lock().expect(\"poisoned\"); // lint: poison-loud -- fail fast
}
";
        let ws = Workspace::from_sources(&[("crates/serve/src/a.rs", src)]);
        let out = run_full(&ws, &all_lints(), true);
        assert!(
            out.findings
                .iter()
                .any(|f| f.lint == WAIVER_HYGIENE && f.line == 2 && f.message.contains("stale")),
            "{:?}",
            out.findings
        );
        assert!(
            out.findings
                .iter()
                .any(|f| f.lint == WAIVER_HYGIENE && f.line == 4 && f.message.contains("unknown")),
            "{:?}",
            out.findings
        );
        assert!(
            !out.findings.iter().any(|f| f.line == 5),
            "used poison-loud waiver is not stale: {:?}",
            out.findings
        );
        assert!(
            out.suppressions
                .iter()
                .any(|s| s.lint == "lock-discipline" && s.waiver_line == 5),
            "{:?}",
            out.suppressions
        );
    }

    #[test]
    fn test_code_waivers_are_ignored_by_hygiene() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        // lint: hot-path -- test-only, inert
        std::thread::sleep(d);
    }
}
";
        let ws = Workspace::from_sources(&[("crates/serve/src/a.rs", src)]);
        let out = run_full(&ws, &all_lints(), true);
        assert!(
            !out.findings.iter().any(|f| f.lint == WAIVER_HYGIENE),
            "{:?}",
            out.findings
        );
    }
}
