//! Flight-recorder overhead: serve throughput with background
//! recording off, on with a blocking (lossless) channel, and on with
//! drop-newest shedding — plus the raw CRC-32 bandwidth every
//! recorded byte pays.
//!
//! Not a paper artefact — this measures the always-on recording path
//! (DESIGN.md section 5.9). The same pre-encoded fleet is served
//! three times; the recorder variants tee every observation frame and
//! the merged decision log into a real on-disk segmented store from a
//! dedicated writer thread behind a bounded channel.

use std::time::Instant;

use mobisense_bench::header;
use mobisense_bench::report::{self, BenchReport};
use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::recording::{RecordPolicy, RecordingConfig};
use mobisense_serve::service::{serve_streams, serve_streams_recorded, ServeConfig};
use mobisense_store::{spawn_flight_recorder, StoreConfig};
use mobisense_telemetry::NoopSink;
use mobisense_util::crc::crc32;
use mobisense_util::units::{MILLISECOND, SECOND};

fn main() {
    header(
        "flight_recorder",
        "serve frames/sec with background recording off / blocking / drop-newest, and CRC-32 MB/s",
        "lossless (blocking) recording degrades serving to store write bandwidth; drop-newest sheds load to keep serving fast; CRC is never the bottleneck",
    );
    let smoke = report::smoke_mode();

    let fleet_cfg = FleetConfig {
        n_clients: if smoke { 24 } else { 192 },
        duration: if smoke { 3 * SECOND } else { 12 * SECOND },
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
    let serve_cfg = ServeConfig::default();
    let total = fleet.total_frames();

    println!("mode, frames, wall_ms, frames_per_sec, recorded, dropped, store_mib");
    let mut out = BenchReport::new("flight_recorder");

    // Baseline: no recorder in the loop.
    let t0 = Instant::now();
    let (_decisions, report) = serve_streams(&serve_cfg, &fleet.streams, &mut NoopSink);
    let wall = t0.elapsed();
    assert_eq!(report.frames_processed, total);
    let off_fps = total as f64 / wall.as_secs_f64();
    println!(
        "off, {total}, {:.0}, {off_fps:.0}, 0, 0, 0.0",
        wall.as_secs_f64() * 1e3
    );
    out.push("off_frames_per_sec", off_fps, true, 90.0);

    for (name, policy) in [
        ("block", RecordPolicy::Block),
        ("drop_newest", RecordPolicy::DropNewest),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "mobisense-bench-flightrec-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StoreConfig::new(&dir);
        let rec = spawn_flight_recorder(
            store,
            RecordingConfig {
                capacity: 4096,
                policy,
            },
        )
        .expect("spawn recorder");
        let handle = rec.handle();
        let t0 = Instant::now();
        let (_decisions, report) =
            serve_streams_recorded(&serve_cfg, &fleet.streams, &handle, &mut NoopSink);
        let (summary, stats) = rec.finish().expect("finish");
        // The blocking variant's wall time includes the drain; that is
        // the honest end-to-end cost of losslessness.
        let wall = t0.elapsed();
        assert_eq!(report.frames_processed, total);
        if policy == RecordPolicy::Block {
            assert_eq!(stats.dropped, 0, "blocking recorder is lossless");
            out.push("block_dropped", stats.dropped as f64, false, 0.0);
        }
        let fps = total as f64 / wall.as_secs_f64();
        out.push(&format!("{name}_frames_per_sec"), fps, true, 90.0);
        println!(
            "{name}, {total}, {:.0}, {fps:.0}, {}, {}, {:.1}",
            wall.as_secs_f64() * 1e3,
            stats.frames,
            stats.dropped,
            summary.bytes as f64 / (1024.0 * 1024.0),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Raw CRC-32 bandwidth (slicing-by-8): what every stored byte pays
    // twice (record CRC + seal body CRC).
    let buf_mib = if smoke { 2usize } else { 16 };
    let rounds = if smoke { 2usize } else { 16 };
    let buf: Vec<u8> = (0..(buf_mib << 20)).map(|i| (i * 31) as u8).collect();
    let mut acc = 0u32;
    let t0 = Instant::now();
    for _ in 0..rounds {
        acc = acc.rotate_left(1) ^ crc32(&buf);
    }
    let wall = t0.elapsed();
    let mib = (rounds * buf.len()) as f64 / (1024.0 * 1024.0);
    let crc_mib_per_sec = mib / wall.as_secs_f64();
    println!("crc32, mib_per_sec, {crc_mib_per_sec:.0}, checksum, {acc:08x}");

    out.push("crc_mib_per_sec", crc_mib_per_sec, true, 90.0);
    let path = out
        .write_to(&report::default_dir())
        .expect("write bench report");
    println!("# report: {}", path.display());
}
