//! Trace-store throughput: segment write bandwidth and stored-frame
//! replay rate, with the golden-regression contract checked along the
//! way.
//!
//! Not a paper artefact — this measures the `mobisense-store`
//! durability layer (DESIGN.md section 5.8). One pre-encoded fleet is
//! recorded to disk (write MB/s, rotation and sealing included), then
//! replayed from the stored bytes through 1, 2, 4 and 8 shards
//! (frames/sec). Every replayed decision log must match the golden log
//! recorded next to the frames — asserted here, not just reported.

use std::time::Instant;

use mobisense_bench::header;
use mobisense_bench::report::{self, BenchReport};
use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::service::ServeConfig;
use mobisense_store::{record_fleet, replay_fleet, StoreConfig, TraceReader};
use mobisense_telemetry::NoopSink;
use mobisense_util::units::{MILLISECOND, SECOND};

fn main() {
    header(
        "store_replay",
        "trace store: segment write MB/s and stored-frame replay frames/sec",
        "write bandwidth is sequential-disk bound; replay reproduces the golden log at every shard count",
    );
    let smoke = report::smoke_mode();

    // Even the smoke fleet outlasts the 6 s classifier warm-up, so the
    // golden log the replays must match holds decisions.
    let fleet_cfg = FleetConfig {
        n_clients: if smoke { 24 } else { 192 },
        duration: if smoke { 8 * SECOND } else { 12 * SECOND },
        step: 20 * MILLISECOND,
        base_seed: 2014,
        ..FleetConfig::default()
    };
    eprintln!(
        "generating fleet: {} clients x {} frames...",
        fleet_cfg.n_clients,
        fleet_cfg.frames_per_client()
    );
    let fleet = EncodedFleet::generate(&fleet_cfg);
    eprintln!(
        "fleet ready: {} frames, {:.1} MiB on the wire",
        fleet.total_frames(),
        fleet.total_bytes() as f64 / (1024.0 * 1024.0)
    );

    let dir = std::env::temp_dir().join(format!("mobisense-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = StoreConfig::new(&dir);
    let serve_cfg = ServeConfig::default();

    // Record: frames land via the zero-copy encoded path, then the
    // live service runs once to produce the golden log. The write
    // figure isolates the store (fleet already encoded in memory).
    let t0 = Instant::now();
    let rec = record_fleet(&store, &serve_cfg, &fleet, &mut NoopSink).expect("record");
    let record_wall = t0.elapsed();
    let mib = rec.bytes as f64 / (1024.0 * 1024.0);
    let segments = rec.segments.len();

    println!("phase, frames, mib, wall_ms, mib_per_sec, frames_per_sec");
    println!(
        "record, {}, {mib:.1}, {:.0}, {:.1}, {:.0}",
        rec.frames,
        record_wall.as_secs_f64() * 1e3,
        mib / record_wall.as_secs_f64(),
        rec.frames as f64 / record_wall.as_secs_f64(),
    );

    // Replay: stored bytes back through the service per shard count.
    assert!(rec.report.decisions > 0, "golden log holds no decisions");
    println!("shards, frames_per_sec, wall_ms, golden_match");
    let mut best_replay_fps = 0.0f64;
    for n_shards in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let replay = replay_fleet(&store, &serve_cfg, &[n_shards], &mut NoopSink).expect("replay");
        let wall = t0.elapsed();
        assert!(
            replay.all_match(),
            "replay diverged from golden at {n_shards} shards"
        );
        let fps = replay.frames as f64 / wall.as_secs_f64();
        best_replay_fps = best_replay_fps.max(fps);
        println!("{n_shards}, {fps:.0}, {:.0}, yes", wall.as_secs_f64() * 1e3);
    }

    let reader = TraceReader::open(&dir).expect("open");
    println!(
        "# store: {segments} segments, {mib:.1} MiB, all sealed: {}",
        reader.segments().iter().all(|m| m.sealed)
    );
    let _ = std::fs::remove_dir_all(&dir);

    let mut out = BenchReport::new("store_replay");
    out.push(
        "record_mib_per_sec",
        mib / record_wall.as_secs_f64(),
        true,
        90.0,
    );
    out.push("replay_frames_per_sec", best_replay_fps, true, 90.0);
    // Correctness ratio: every replay matched the golden log (the
    // asserts above would have aborted otherwise). Tolerates nothing.
    out.push("golden_match", 1.0, true, 0.0);
    let path = out
        .write_to(&report::default_dir())
        .expect("write bench report");
    println!("# report: {}", path.display());
}
