//! Streaming-compaction throughput and the O(segment) resident-memory
//! contract, measured over a synthetic store deliberately larger than
//! the compactor's resident budget.
//!
//! Not a paper artefact — this measures the `mobisense-store`
//! compaction pass (DESIGN.md section 5.14). A fragmented store is
//! written (multi-GiB in full mode, ~16 MiB in smoke mode), then
//! compacted toward a target segment size a fraction of the store
//! size. The pass must stay within twice the segment budget of
//! resident record bytes — asserted here, and exported as the
//! `resident_over_target` ratio so a regression back to whole-store
//! buffering fails the bench gate, not just a unit test. A CRC over
//! the full record stream before and after proves the rewrite changed
//! the files, not the data.

use std::path::Path;
use std::time::Instant;

use mobisense_bench::header;
use mobisense_bench::report::{self, BenchReport};
use mobisense_serve::wire::ObsFrame;
use mobisense_store::segment::scan_segment;
use mobisense_store::{compact, StoreConfig, TraceReader, TraceWriter};
use mobisense_telemetry::NoopSink;
use mobisense_util::crc::Crc32;

/// CRC-32 over the store's full record stream (kind byte plus payload
/// of every record, in global order): the content identity compaction
/// must preserve, independent of segment boundaries.
fn stream_digest(dir: &Path) -> (u32, u64) {
    let reader = TraceReader::open(dir).expect("open");
    let mut crc = Crc32::new();
    let mut records = 0u64;
    for meta in reader.segments() {
        let bytes = std::fs::read(&meta.path).expect("read segment");
        let scan = scan_segment(&bytes).expect("scan");
        assert!(scan.error.is_none(), "segment {} damaged", meta.id);
        for record in &scan.records {
            crc.update(&[record.kind as u8]);
            crc.update(record.payload);
            records += 1;
        }
    }
    (crc.finish(), records)
}

fn main() {
    header(
        "store_compact",
        "trace store: streaming compaction MiB/s under an O(segment) resident budget",
        "throughput is sequential-disk bound; peak resident record bytes stay <= 2x the segment target",
    );
    let smoke = report::smoke_mode();

    // Input segments are written small so the store fragments, then
    // compacted toward a much larger target. The store itself is far
    // bigger than the resident budget: whole-store buffering cannot
    // hide here.
    let store_bytes: u64 = if smoke { 16 << 20 } else { 5 << 29 }; // 16 MiB | 2.5 GiB
    let write_target: usize = if smoke { 256 << 10 } else { 8 << 20 };
    let compact_target: usize = if smoke { 1 << 20 } else { 16 << 20 };

    let dir = std::env::temp_dir().join(format!("mobisense-bench-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!(
        "writing {:.1} MiB synthetic store ({} KiB input segments)...",
        store_bytes as f64 / (1024.0 * 1024.0),
        write_target >> 10
    );
    let mut w = TraceWriter::create(StoreConfig::new(&dir).with_target_segment_bytes(write_target))
        .expect("create");
    let mut written = 0u64;
    let mut seq = 0u32;
    while written < store_bytes {
        let frame = ObsFrame {
            client_id: seq % 64,
            seq: seq / 64,
            at: 500 * u64::from(seq) + 500,
            distance_m: 2.0 + f64::from(seq % 11),
            digest: vec![0.125; 16],
        };
        w.append_frame(&frame).expect("append");
        written += frame.encode().len() as u64;
        if seq % 512 == 511 {
            w.append_decision_row(&format!("{},{seq},steer", seq % 64))
                .expect("row");
        }
        seq += 1;
    }
    w.finish().expect("finish");
    let (digest_before, records_before) = stream_digest(&dir);
    let segments_before = TraceReader::open(&dir).expect("open").segments().len();
    eprintln!("store ready: {segments_before} segments, {records_before} records");

    let cfg = StoreConfig::new(&dir).with_target_segment_bytes(compact_target);
    let t0 = Instant::now();
    let rep = compact(&cfg, &mut NoopSink).expect("compact");
    let wall = t0.elapsed();

    // The streaming contract, asserted before anything is reported.
    assert!(
        rep.peak_resident_bytes <= 2 * compact_target,
        "peak resident {} bytes exceeds 2x target {compact_target}",
        rep.peak_resident_bytes
    );
    let (digest_after, records_after) = stream_digest(&dir);
    assert_eq!(records_after, records_before, "compaction dropped records");
    let content_match = if digest_after == digest_before {
        1.0
    } else {
        0.0
    };
    assert_eq!(content_match, 1.0, "compaction changed the record stream");

    let mib_in = rep.bytes_before as f64 / (1024.0 * 1024.0);
    let mib_per_sec = mib_in / wall.as_secs_f64();
    let records_per_sec = rep.records as f64 / wall.as_secs_f64();
    let resident_over_target = rep.peak_resident_bytes as f64 / compact_target as f64;

    println!("segments_in, segments_out, mib_in, wall_ms, mib_per_sec, records_per_sec, peak_resident_mib");
    println!(
        "{}, {}, {mib_in:.1}, {:.0}, {mib_per_sec:.1}, {records_per_sec:.0}, {:.2}",
        rep.segments_before,
        rep.segments_after,
        wall.as_secs_f64() * 1e3,
        rep.peak_resident_bytes as f64 / (1024.0 * 1024.0),
    );
    let _ = std::fs::remove_dir_all(&dir);

    let mut out = BenchReport::new("store_compact");
    out.push("compact_mib_per_sec", mib_per_sec, true, 90.0);
    out.push("compact_records_per_sec", records_per_sec, true, 90.0);
    // The memory contract as a gated ratio: whole-store buffering puts
    // this at store/target (16x even in smoke mode), far past the
    // tolerance; the streaming pass keeps it at or under ~1.
    out.push("resident_over_target", resident_over_target, false, 40.0);
    // Content ratio: the record stream survived byte for byte (the
    // asserts above would have aborted otherwise). Tolerates nothing.
    out.push("content_match", content_match, true, 0.0);
    let path = out
        .write_to(&report::default_dir())
        .expect("write bench report");
    println!("# report: {}", path.display());
}
