//! Cross-crate analyzer tests: the lint suite holds on the shipped
//! workspace, every lint self-describes, every workspace member
//! inherits the workspace's rustc/clippy lint tables, and the
//! telemetry round-trip test is *generated* from the same `Event`
//! inventory the analyzer's exhaustiveness lint checks — so adding a
//! variant without extending the exporter fails here and under
//! `mobisense-analyze` alike.

use std::path::{Path, PathBuf};

use mobisense_analyze::lints::telemetry::event_variants;
use mobisense_analyze::{all_lints, load_workspace, run, run_full, Lint};
use mobisense_telemetry::export::{event_to_json, parse_event};
use mobisense_telemetry::Event;

/// The workspace root: xtests' manifest dir is `<root>/xtests`.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtests has a parent")
        .to_path_buf()
}

/// The shipped workspace is lint-clean *including waiver hygiene*:
/// what CI enforces with `cargo run -p mobisense-analyze --
/// --deny-all`, asserted here so a plain `cargo test` catches
/// regressions too. Every waiver in the tree must still be earning
/// its keep — a stale one is a finding.
#[test]
fn shipped_workspace_has_no_findings() {
    let ws = load_workspace(&repo_root()).expect("load workspace");
    assert!(
        ws.files.len() >= 40,
        "workspace discovery looks broken: only {} files",
        ws.files.len()
    );
    let out = run_full(&ws, &all_lints(), true);
    let rendered: Vec<String> = out.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        out.findings.is_empty(),
        "lint findings:\n{}",
        rendered.join("\n")
    );
    assert!(
        !out.suppressions.is_empty(),
        "the workspace carries waivers; zero recorded suppressions \
         means waiver accounting broke"
    );
}

/// Each committed known-bad fixture tree makes exactly its lint fire —
/// the same trees CI gates with `--root ... --only <lint> --deny-all`.
#[test]
fn committed_fixtures_trip_their_lints() {
    let cases: [(&str, &str, &[&str]); 2] = [
        ("hold_and_call", "hold-and-call", &["fs::rename", "cycle"]),
        ("blocking_hot_path", "hot-path", &["sleep", "fs::write"]),
    ];
    for (dir, lint_name, needles) in cases {
        let root = repo_root().join("crates/analyze/fixtures").join(dir);
        let ws = load_workspace(&root).unwrap_or_else(|e| panic!("load fixture {dir}: {e}"));
        let lints: Vec<Box<dyn Lint>> = all_lints()
            .into_iter()
            .filter(|l| l.name() == lint_name)
            .collect();
        assert_eq!(lints.len(), 1, "lint {lint_name} exists");
        let findings = run(&ws, &lints);
        assert!(
            !findings.is_empty(),
            "fixture {dir} no longer trips {lint_name}"
        );
        for needle in needles {
            assert!(
                findings.iter().any(|f| f.message.contains(needle)),
                "fixture {dir} lost its `{needle}` finding: {findings:?}"
            );
        }
    }
}

/// The suite carries the five contract lints that rustc and clippy
/// cannot express, each with a distinct name and a non-empty invariant
/// statement (what `--list` prints).
#[test]
fn lint_suite_covers_the_five_contracts() {
    let lints = all_lints();
    let names: Vec<&str> = lints.iter().map(|l| l.name()).collect();
    for expected in [
        "lock-discipline",
        "hold-and-call",
        "hot-path",
        "telemetry-exhaustive",
        "format-const",
    ] {
        assert!(
            names.contains(&expected),
            "missing lint {expected}: {names:?}"
        );
    }
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate lint names: {names:?}");
    for lint in &lints {
        assert!(
            lint.invariant().len() > 20,
            "lint {} has no real invariant description",
            lint.name()
        );
    }
}

/// The `[workspace.lints.*]` tables of a manifest, header and entries,
/// blank lines and comments dropped.
fn workspace_lint_tables(manifest: &str) -> Vec<&str> {
    let mut in_lints = false;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line.starts_with("[workspace.lints");
        }
        if in_lints && !line.is_empty() && !line.starts_with('#') {
            out.push(line);
        }
    }
    out
}

/// Every workspace member — each match of the root manifest's
/// `members` globs — opts into the workspace lint tables, so
/// `unsafe_code = "forbid"` and the clippy settings bind in a crate
/// added tomorrow too. The clippy-rules fixture, a workspace of its
/// own, must carry the same tables it is meant to exercise.
#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = repo_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("read root manifest");
    let tables = workspace_lint_tables(&manifest);
    assert!(
        tables.contains(&"unsafe_code = \"forbid\""),
        "workspace lints lost the unsafe ban: {tables:?}"
    );
    let members_line = manifest
        .lines()
        .find(|l| l.trim_start().starts_with("members"))
        .expect("root manifest lists members");
    let mut members = Vec::new();
    for glob in members_line.split('"').skip(1).step_by(2) {
        match glob.strip_suffix("/*") {
            Some(dir) => {
                for entry in std::fs::read_dir(root.join(dir)).expect("member glob dir") {
                    let path = entry.expect("dir entry").path();
                    if path.join("Cargo.toml").is_file() {
                        members.push(path);
                    }
                }
            }
            None => members.push(root.join(glob)),
        }
    }
    assert!(
        members.len() >= 17,
        "member discovery looks broken: {members:?}"
    );
    for member in &members {
        let text = std::fs::read_to_string(member.join("Cargo.toml")).expect("read manifest");
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} does not opt into the workspace lints",
            member.display()
        );
    }
    let fixture = std::fs::read_to_string(root.join("xtests/fixtures/clippy_rules/Cargo.toml"))
        .expect("read fixture manifest");
    assert_eq!(
        workspace_lint_tables(&fixture),
        tables,
        "the clippy-rules fixture must mirror the root lint tables"
    );
}

/// A sample value for each known `Event` variant. Failing on an
/// unknown name is the point: a variant added to `event.rs` shows up
/// in the lexical inventory below before anyone writes a sample here.
fn sample_for(variant: &str) -> Event {
    match variant {
        "Decision" => Event::Decision {
            at: 1_000,
            mode: "micro".to_string(),
            direction: Some("approaching".to_string()),
        },
        "TofMedian" => Event::TofMedian {
            at: 2_000,
            cycles: 3.25,
        },
        "RateChange" => Event::RateChange {
            at: 3_000,
            from_mcs: 4,
            to_mcs: 7,
        },
        "Handoff" => Event::Handoff {
            at: 4_000,
            from_ap: 1,
            to_ap: 2,
        },
        "Beamsound" => Event::Beamsound { at: 5_000, ap: 3 },
        "AmpduTx" => Event::AmpduTx {
            at: 6_000,
            mcs: 5,
            n_mpdus: 16,
            n_delivered: 14,
            airtime: 250_000,
        },
        "Goodput" => Event::Goodput {
            at: 7_000,
            elapsed: 1_000_000,
            bits: 123_456,
        },
        "ServeShard" => Event::ServeShard {
            at: 8_000,
            shard: 2,
            frames: 1_000,
            decisions: 12,
            shed: 3,
            max_depth: 9,
        },
        "StoreSegment" => Event::StoreSegment {
            at: 9_000,
            segment: 7,
            frames: 512,
            bytes: 65_536,
        },
        "StoreRecovery" => Event::StoreRecovery {
            at: 10_000,
            segment: 8,
            frames: 100,
            lost: 4,
        },
        "ServeRecorder" => Event::ServeRecorder {
            at: 11_000,
            frames: 2_048,
            rows: 16,
            dropped: 5,
            max_depth: 33,
        },
        "StoreRetention" => Event::StoreRetention {
            at: 12_000,
            segment: 9,
            frames: 256,
            bytes: 32_768,
        },
        "Stall" => Event::Stall {
            at: 0,
            source: "shard-2".to_string(),
            intervals: 3,
            backlog: 512,
        },
        "Snapshot" => Event::Snapshot {
            at: 0,
            seq: 4,
            metrics: 23,
            bytes: 2_048,
        },
        "StoreCompaction" => Event::StoreCompaction {
            at: 13_000,
            segments_in: 6,
            segments_out: 2,
            records: 4_096,
            bytes_in: 1_048_576,
            bytes_out: 524_288,
        },
        "EdgeConn" => Event::EdgeConn {
            at: 14_000,
            conn: 17,
            frames: 120,
            bytes: 7_440,
            resyncs: 1,
            outcome: "eof".to_string(),
        },
        "SessionHibernate" => Event::SessionHibernate {
            at: 16_000,
            client_id: 42,
            shard: 1,
            bytes: 1_280,
        },
        "SessionRestore" => Event::SessionRestore {
            at: 17_000,
            client_id: 42,
            shard: 1,
            wait_ns: 35_000,
        },
        "SessionMigrate" => Event::SessionMigrate {
            at: 18_000,
            client_id: 42,
            from_shard: 1,
            to_shard: 3,
            bytes: 1_280,
        },
        "EdgeServe" => Event::EdgeServe {
            at: 15_000,
            conns: 10_240,
            rejected_conns: 3,
            frames: 40_960,
            rejected_frames: 12,
            bytes: 2_539_520,
            datagrams: 64,
        },
        other => panic!(
            "Event::{other} has no JSONL round-trip sample — a new \
             variant was added to telemetry::Event; extend sample_for \
             (and the exporter, which mobisense-analyze also checks)"
        ),
    }
}

/// Every `Event` variant — enumerated from `event.rs`'s *source* with
/// the analyzer's own inventory — survives a JSONL round-trip intact.
/// Exhaustive by construction: the variant list is not hand-kept.
#[test]
fn every_event_variant_round_trips_through_jsonl() {
    let event_rs = repo_root().join("crates/telemetry/src/event.rs");
    let source = std::fs::read_to_string(&event_rs).expect("read event.rs");
    let variants = event_variants(&source);
    assert!(
        variants.len() >= 15,
        "Event inventory shrank unexpectedly: {variants:?}"
    );
    for variant in &variants {
        let event = sample_for(variant);
        let json = event_to_json(&event);
        assert!(
            json.starts_with('{') && json.ends_with('}'),
            "Event::{variant} encodes as one flat JSON object: {json}"
        );
        let parsed = parse_event(&json)
            .unwrap_or_else(|e| panic!("Event::{variant} failed to parse back: {e}\n{json}"));
        assert_eq!(
            parsed, event,
            "Event::{variant} round-trip changed the value"
        );
    }
}
