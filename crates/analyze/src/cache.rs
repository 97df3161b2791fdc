//! Incremental lex cache: warm runs skip re-lexing unchanged files.
//!
//! Lexing is the analyzer's hot loop — every byte of every file walks
//! the string/comment state machine. The cache stores, per file, a
//! content hash (FNV-1a 64) plus everything [`crate::lex`] computed
//! that cannot be recovered from the raw text alone:
//!
//! * the **blank spans** — byte ranges the lexer blanked (comments,
//!   string/char literal bodies). The code view is the source with
//!   those spans re-blanked, so storing the diff costs a few bytes per
//!   literal instead of a second copy of the file;
//! * the **test-line map**, run-length encoded;
//! * the **line comments** (line, standalone flag, text).
//!
//! On a warm run, a file whose hash matches is reconstructed from its
//! entry without touching the lexer; the item parse (cheap, pure in
//! the code view) is recomputed. [`CacheStats`] reports how many files
//! were re-lexed — the CI smoke step asserts a no-change second run
//! reports zero.
//!
//! The format is a versioned line-based text file. Loading is
//! tolerant: any malformed or version-mismatched cache is discarded
//! wholesale and the run proceeds cold — a cache can never make the
//! analyzer wrong, only slower.

use std::fs;
use std::io;
use std::path::Path;

use crate::lexer::{Lexed, LineComment};
use crate::{collect_sources, parse, SourceFile, Workspace};

/// Format marker; bump on any layout change.
const HEADER: &str = "mobisense-analyze-cache v1";

/// What the cache did for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Files loaded.
    pub files: usize,
    /// Files lexed from scratch (changed, new, or no cache).
    pub relexed: usize,
    /// Files reconstructed from a matching cache entry.
    pub hits: usize,
}

/// One file's cached lex output.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Entry {
    hash: u64,
    blanks: Vec<(usize, usize)>,
    test_runs: Vec<(bool, usize)>,
    comments: Vec<LineComment>,
}

/// FNV-1a 64 over the file bytes: tiny, dependency-free, and collision
/// odds are irrelevant here (a collision costs a stale lex of one
/// file, caught the moment the file is next touched).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Loads the workspace under `root`, consulting and refreshing the
/// cache at `cache_path` when given. See [`crate::load_workspace`] for
/// the file-scope contract.
pub fn load_workspace_cached(
    root: &Path,
    cache_path: Option<&Path>,
) -> io::Result<(Workspace, CacheStats)> {
    let cached = cache_path.and_then(load_cache_file);
    let mut stats = CacheStats::default();
    let mut files: Vec<SourceFile> = Vec::new();
    let mut new_entries: Vec<(String, Entry)> = Vec::new();

    for (rel, abs) in collect_sources(root)? {
        let source = fs::read_to_string(&abs)?;
        let hash = fnv1a64(source.as_bytes());
        stats.files += 1;
        let lexed = match cached
            .as_ref()
            .and_then(|c| c.iter().find(|(r, e)| *r == rel && e.hash == hash))
        {
            Some((_, entry)) => {
                stats.hits += 1;
                reconstruct(&source, entry)
            }
            None => {
                stats.relexed += 1;
                crate::lex(&source)
            }
        };
        new_entries.push((rel.clone(), make_entry(&source, hash, &lexed)));
        let parsed = parse::parse(&lexed.code);
        files.push(SourceFile { rel, lexed, parsed });
    }

    if let Some(path) = cache_path {
        // Refresh even on full hits: entries for deleted files drop out.
        let _ = fs::write(path, render_cache(&new_entries));
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok((Workspace { files }, stats))
}

/// Diffs source against the code view into an [`Entry`].
fn make_entry(source: &str, hash: u64, lexed: &Lexed) -> Entry {
    let s = source.as_bytes();
    let c = lexed.code.as_bytes();
    let mut blanks = Vec::new();
    let mut i = 0usize;
    let n = s.len().min(c.len());
    while i < n {
        if s[i] == c[i] {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && s[i] != c[i] {
            i += 1;
        }
        blanks.push((start, i));
    }
    let mut test_runs: Vec<(bool, usize)> = Vec::new();
    for &t in &lexed.test_lines {
        match test_runs.last_mut() {
            Some((v, count)) if *v == t => *count += 1,
            _ => test_runs.push((t, 1)),
        }
    }
    Entry {
        hash,
        blanks,
        test_runs,
        comments: lexed.comments.clone(),
    }
}

/// Rebuilds the [`Lexed`] views from the source text and a cache entry.
fn reconstruct(source: &str, entry: &Entry) -> Lexed {
    let mut code = source.as_bytes().to_vec();
    for &(start, end) in &entry.blanks {
        for b in code.iter_mut().take(end.min(source.len())).skip(start) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }
    let mut test_lines = Vec::new();
    for &(v, count) in &entry.test_runs {
        test_lines.extend(std::iter::repeat_n(v, count));
    }
    Lexed {
        code: String::from_utf8(code).unwrap_or_else(|_| source.to_string()),
        test_lines,
        comments: entry.comments.clone(),
    }
}

/// Serializes entries to the versioned text format.
fn render_cache(entries: &[(String, Entry)]) -> String {
    let mut s = String::new();
    s.push_str(HEADER);
    s.push('\n');
    for (rel, e) in entries {
        s.push_str(&format!("file {rel}\n"));
        s.push_str(&format!("hash {:016x}\n", e.hash));
        let spans: Vec<String> = e.blanks.iter().map(|(a, b)| format!("{a}-{b}")).collect();
        s.push_str(&format!("blanks {}\n", spans.join(",")));
        let runs: Vec<String> = e
            .test_runs
            .iter()
            .map(|(v, n)| format!("{}{n}", if *v { 't' } else { 'f' }))
            .collect();
        s.push_str(&format!("tests {}\n", runs.join(",")));
        s.push_str(&format!("comments {}\n", e.comments.len()));
        for c in &e.comments {
            s.push_str(&format!(
                "c {} {} {}\n",
                c.line,
                u8::from(c.standalone),
                c.text
            ));
        }
        s.push_str("end\n");
    }
    s
}

/// Parses a cache file; `None` on any malformation (the run goes cold).
fn load_cache_file(path: &Path) -> Option<Vec<(String, Entry)>> {
    let text = fs::read_to_string(path).ok()?;
    parse_cache(&text)
}

fn parse_cache(text: &str) -> Option<Vec<(String, Entry)>> {
    let mut lines = text.lines();
    if lines.next()? != HEADER {
        return None;
    }
    let mut entries = Vec::new();
    loop {
        let Some(file_line) = lines.next() else {
            return Some(entries);
        };
        let rel = file_line.strip_prefix("file ")?.to_string();
        let hash = u64::from_str_radix(lines.next()?.strip_prefix("hash ")?, 16).ok()?;
        let blanks_spec = lines.next()?.strip_prefix("blanks ")?;
        let mut blanks = Vec::new();
        for span in blanks_spec.split(',').filter(|s| !s.is_empty()) {
            let (a, b) = span.split_once('-')?;
            let (a, b) = (a.parse().ok()?, b.parse().ok()?);
            if a >= b {
                return None;
            }
            blanks.push((a, b));
        }
        let tests_spec = lines.next()?.strip_prefix("tests ")?;
        let mut test_runs = Vec::new();
        for run in tests_spec.split(',').filter(|s| !s.is_empty()) {
            let v = match run.as_bytes().first()? {
                b't' => true,
                b'f' => false,
                _ => return None,
            };
            test_runs.push((v, run[1..].parse().ok()?));
        }
        let n_comments: usize = lines.next()?.strip_prefix("comments ")?.parse().ok()?;
        let mut comments = Vec::new();
        for _ in 0..n_comments {
            let c = lines.next()?.strip_prefix("c ")?;
            let (line, rest) = c.split_once(' ')?;
            let (standalone, text) = rest.split_once(' ').unwrap_or((rest, ""));
            comments.push(LineComment {
                line: line.parse().ok()?,
                standalone: match standalone {
                    "1" => true,
                    "0" => false,
                    _ => return None,
                },
                text: text.to_string(),
            });
        }
        if lines.next()? != "end" {
            return None;
        }
        entries.push((
            rel,
            entries_key_ok(Entry {
                hash,
                blanks,
                test_runs,
                comments,
            })?,
        ));
    }
}

/// Sanity bound: a hostile or corrupt entry must not allocate wildly.
fn entries_key_ok(e: Entry) -> Option<Entry> {
    let total_lines: usize = e.test_runs.iter().map(|(_, n)| n).sum();
    if total_lines > 10_000_000 || e.blanks.len() > 1_000_000 {
        return None;
    }
    Some(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A unique scratch workspace under the target-adjacent temp dir.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mobisense-analyze-cache-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("crates/demo/src")).unwrap();
        dir
    }

    const SRC: &str = "\
//! Demo crate.
pub fn live() -> &'static str {
    // lint: hot-path -- demo waiver
    \"string body\"
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";

    #[test]
    fn warm_run_relexes_zero_and_reconstructs_identically() {
        let root = scratch("warm");
        fs::write(root.join("crates/demo/src/lib.rs"), SRC).unwrap();
        let cache = root.join("cache.txt");

        let (cold_ws, cold) = load_workspace_cached(&root, Some(&cache)).unwrap();
        assert_eq!((cold.files, cold.relexed, cold.hits), (1, 1, 0));

        let (warm_ws, warm) = load_workspace_cached(&root, Some(&cache)).unwrap();
        assert_eq!((warm.files, warm.relexed, warm.hits), (1, 0, 1));

        let (a, b) = (&cold_ws.files[0], &warm_ws.files[0]);
        assert_eq!(a.lexed.code, b.lexed.code);
        assert_eq!(a.lexed.test_lines, b.lexed.test_lines);
        assert_eq!(a.lexed.comments, b.lexed.comments);
        assert_eq!(a.parsed.fns.len(), b.parsed.fns.len());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn changed_file_is_relexed_and_cache_refreshed() {
        let root = scratch("changed");
        let file = root.join("crates/demo/src/lib.rs");
        fs::write(&file, SRC).unwrap();
        let cache = root.join("cache.txt");
        load_workspace_cached(&root, Some(&cache)).unwrap();

        fs::write(&file, SRC.replace("live", "renamed")).unwrap();
        let (_, s) = load_workspace_cached(&root, Some(&cache)).unwrap();
        assert_eq!((s.relexed, s.hits), (1, 0));
        // And the refreshed cache now matches the new content.
        let (_, s2) = load_workspace_cached(&root, Some(&cache)).unwrap();
        assert_eq!((s2.relexed, s2.hits), (0, 1));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_cache_degrades_to_cold_never_fails() {
        let root = scratch("corrupt");
        fs::write(root.join("crates/demo/src/lib.rs"), SRC).unwrap();
        let cache = root.join("cache.txt");
        for garbage in [
            "",
            "wrong header\n",
            "mobisense-analyze-cache v1\nfile x\nhash zz\n",
            "mobisense-analyze-cache v1\nfile x\nhash 00\nblanks 9-3\ntests \ncomments 0\nend\n",
        ] {
            fs::write(&cache, garbage).unwrap();
            let (_, s) = load_workspace_cached(&root, Some(&cache)).unwrap();
            assert_eq!((s.relexed, s.hits), (1, 0), "garbage: {garbage:?}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn round_trip_format_is_stable() {
        let lexed = crate::lex(SRC);
        let entry = make_entry(SRC, fnv1a64(SRC.as_bytes()), &lexed);
        let text = render_cache(&[("crates/demo/src/lib.rs".to_string(), entry.clone())]);
        let parsed = parse_cache(&text).expect("round trip parses");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].1, entry);
        let rebuilt = reconstruct(SRC, &parsed[0].1);
        assert_eq!(rebuilt.code, lexed.code);
        assert_eq!(rebuilt.test_lines, lexed.test_lines);
        assert_eq!(rebuilt.comments, lexed.comments);
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
