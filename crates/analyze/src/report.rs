//! Machine-readable findings report: one JSON document for CI
//! artifacts and downstream tooling.
//!
//! The CLI writes this with `--report <path>` on every run, pass or
//! fail, so a green build still archives what the analyzer looked at
//! (file counts, cache behavior, suppressions in force). The format is
//! hand-rolled — the analyzer is std-only by design — and versioned:
//!
//! ```json
//! {
//!   "version": 1,
//!   "files": 63,
//!   "relexed": 0,
//!   "cache_hits": 63,
//!   "findings": [
//!     {"file": "...", "line": 7, "lint": "hot-path",
//!      "severity": "error", "message": "..."}
//!   ],
//!   "suppressions": [
//!     {"file": "...", "waiver_line": 6, "finding_line": 7,
//!      "lint": "hot-path", "tag": "hot-path"}
//!   ]
//! }
//! ```
//!
//! Severity is derived from the lint: `waiver-hygiene` findings are
//! requests to fix or drop a waiver comment, so they are `"warning"`;
//! invariant violations are `"error"`. The CLI exit code ignores the distinction — `--deny-all`
//! means deny all — but dashboards get to rank.

use crate::cache::CacheStats;
use crate::{Outcome, WAIVER_HYGIENE};

/// Severity of a lint's findings, for the report only.
pub fn severity(lint: &str) -> &'static str {
    if lint == WAIVER_HYGIENE {
        "warning"
    } else {
        "error"
    }
}

/// Renders the report document.
pub fn render(out: &Outcome, stats: &CacheStats) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\n");
    s.push_str("  \"version\": 1,\n");
    s.push_str(&format!("  \"files\": {},\n", stats.files));
    s.push_str(&format!("  \"relexed\": {},\n", stats.relexed));
    s.push_str(&format!("  \"cache_hits\": {},\n", stats.hits));
    s.push_str("  \"findings\": [");
    for (i, f) in out.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        s.push_str(&format!("\"file\": {}, ", json_str(&f.file)));
        s.push_str(&format!("\"line\": {}, ", f.line));
        s.push_str(&format!("\"lint\": {}, ", json_str(f.lint)));
        s.push_str(&format!("\"severity\": {}, ", json_str(severity(f.lint))));
        s.push_str(&format!("\"message\": {}", json_str(&f.message)));
        s.push('}');
    }
    if !out.findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n");
    s.push_str("  \"suppressions\": [");
    for (i, sp) in out.suppressions.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        s.push_str(&format!("\"file\": {}, ", json_str(&sp.file)));
        s.push_str(&format!("\"waiver_line\": {}, ", sp.waiver_line));
        s.push_str(&format!("\"finding_line\": {}, ", sp.finding_line));
        s.push_str(&format!("\"lint\": {}, ", json_str(sp.lint)));
        s.push_str(&format!("\"tag\": {}", json_str(&sp.tag)));
        s.push('}');
    }
    if !out.suppressions.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// JSON string escaping: quotes, backslashes, and control characters.
fn json_str(raw: &str) -> String {
    let mut s = String::with_capacity(raw.len() + 2);
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, Suppression};

    fn sample() -> Outcome {
        let mut out = Outcome::default();
        out.findings.push(Finding {
            file: "crates/serve/src/queue.rs".into(),
            line: 7,
            lint: "hot-path",
            message: "a \"quoted\"\nmessage".into(),
        });
        out.findings.push(Finding {
            file: "crates/store/src/writer.rs".into(),
            line: 88,
            lint: "waiver-hygiene",
            message: "m".into(),
        });
        out.suppressions.push(Suppression {
            file: "crates/serve/src/recording.rs".into(),
            waiver_line: 340,
            finding_line: 341,
            lint: "hot-path",
            tag: "hot-path".into(),
        });
        out
    }

    #[test]
    fn renders_counts_severities_and_escapes() {
        let stats = crate::cache::CacheStats {
            files: 63,
            relexed: 0,
            hits: 63,
        };
        let doc = render(&sample(), &stats);
        assert!(doc.contains("\"version\": 1"));
        assert!(doc.contains("\"relexed\": 0"));
        assert!(doc.contains("\"cache_hits\": 63"));
        assert!(doc.contains("\"severity\": \"error\""));
        assert!(doc.contains("\"severity\": \"warning\""));
        assert!(doc.contains("a \\\"quoted\\\"\\nmessage"));
        assert!(doc.contains("\"waiver_line\": 340"));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn empty_report_is_well_formed() {
        let doc = render(&Outcome::default(), &crate::cache::CacheStats::default());
        assert!(doc.contains("\"findings\": []"));
        assert!(doc.contains("\"suppressions\": []"));
    }

    #[test]
    fn severity_map_is_total() {
        assert_eq!(severity("lock-discipline"), "error");
        assert_eq!(severity("hold-and-call"), "error");
        assert_eq!(severity("waiver-hygiene"), "warning");
        assert_eq!(severity("anything-else"), "error");
    }
}
