//! Session hibernation at fleet scale: resident session bytes must
//! track the hot working set, not the client count.
//!
//! Not a paper artefact — this measures the `mobisense-session`
//! hibernation layer under the serving engine (DESIGN.md section
//! 5.13). One pre-encoded fleet far larger than the configured hot-set
//! cap is served twice: once fully resident (hibernation off) and once
//! with an aggressive retirement policy that pages idle/overflow
//! sessions out through the snapshot codec and faults them back in on
//! the next frame. Halfway through the hibernating run a wave of
//! clients live-migrates to a neighbouring shard, exercising the
//! drain → snapshot → transfer → resume path under load.
//!
//! Three things are *asserted*, not just reported: the decision log is
//! byte-identical between the two runs (hibernate → restore ≡
//! never-hibernated, even across migrations), every submitted frame is
//! processed or accounted as shed, and the hibernating run's peak
//! resident bytes stay a small fraction of the fully-resident
//! footprint. Headline numbers land in `BENCH_session_hibernate.json`
//! for the CI regression gate. Set `MOBISENSE_BENCH_SMOKE=1` for a
//! tiny CI-sized workload; the full run serves a 100k-client fleet.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use mobisense_bench::header;
use mobisense_bench::report::{self, BenchReport};
use mobisense_core::pipeline::PipelineConfig;
use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::queue::Ticket;
use mobisense_serve::service::{decision_log_csv, ServeConfig, ServeReport, ShardEngine};
use mobisense_serve::SessionGauges;
use mobisense_session::{HibernationConfig, RetirePolicy};
use mobisense_util::units::{MILLISECOND, SECOND};

/// One measured pass of the fleet through a [`ShardEngine`].
struct RunOut {
    csv: String,
    report: ServeReport,
    /// Peak of the cross-shard `resident_bytes` gauge sum, sampled
    /// every few thousand submits.
    peak_resident_bytes: u64,
    /// Gauge sum after the workers drained and exited.
    final_resident_bytes: u64,
    /// Wall-clock per migrate call, microseconds (empty if no wave).
    migrate_us: Vec<f64>,
}

/// Serves the whole fleet time-major through `cfg`, optionally
/// migrating `migrate_wave` clients to their neighbouring shard at the
/// halfway mark, while sampling resident bytes across shards.
fn run_fleet(cfg: &ServeConfig, fleet: &EncodedFleet, migrate_wave: usize) -> RunOut {
    let engine = ShardEngine::spawn(cfg).expect("spawn engine");
    let gauges: Vec<Arc<SessionGauges>> = engine.session_gauges().to_vec();
    let sample = |gauges: &[Arc<SessionGauges>]| -> u64 {
        gauges
            .iter()
            .map(|g| g.resident_bytes.load(Ordering::Relaxed))
            .sum()
    };

    let max_frames = fleet.streams.iter().map(|s| s.n_frames).max().unwrap_or(0);
    let halfway = max_frames / 2;
    let mut submitted = 0u64;
    let mut peak = 0u64;
    let mut migrate_us = Vec::new();
    for i in 0..max_frames {
        if i == halfway && migrate_wave > 0 {
            for s in fleet.streams.iter().take(migrate_wave) {
                let client = s.client_id;
                let to = (engine.route_of(client) + 1) % engine.n_shards();
                let t0 = Instant::now();
                engine.migrate(client, to).expect("migrate");
                migrate_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        for s in &fleet.streams {
            if i < s.n_frames {
                engine.submit(Ticket::untraced(), s.obs(i));
                submitted += 1;
                if submitted.is_multiple_of(4096) {
                    peak = peak.max(sample(&gauges));
                }
            }
        }
    }
    let (decisions, report) = engine.finish(submitted);
    peak = peak.max(sample(&gauges));
    RunOut {
        csv: decision_log_csv(&decisions),
        report,
        peak_resident_bytes: peak,
        final_resident_bytes: sample(&gauges),
        migrate_us,
    }
}

fn main() {
    header(
        "session_hibernate",
        "session hibernation at fleet scale: resident bytes vs hot working set",
        "decision log is hibernation- and migration-invariant; peak resident bytes track the hot-set cap, not the client count",
    );
    let smoke = report::smoke_mode();

    let fleet_cfg = FleetConfig {
        n_clients: if smoke { 2_000 } else { 100_000 },
        duration: 3 * SECOND,
        step: 100 * MILLISECOND,
        base_seed: 5_113,
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

    // A 2 s warm-up instead of the default 6 s: the fleet stays short
    // at 100k clients, and the classifier still has its first windows
    // filled, so the identity check below compares logs with decisions.
    let base_cfg = ServeConfig {
        pipeline: PipelineConfig {
            warmup: 2 * SECOND,
            ..PipelineConfig::default()
        },
        ..ServeConfig::default()
    };
    // Cap the hot set at ~10% of each shard's client share: with the
    // fleet time-major (every client touched every tick) the cap is
    // what drives retirement, so sessions thrash through the snapshot
    // codec constantly — the worst case for the transparency contract.
    let max_hot = (fleet_cfg.n_clients as usize / (base_cfg.n_shards * 10)).max(8);
    let hib_cfg = ServeConfig {
        hibernation: HibernationConfig {
            idle_after: Some(300 * MILLISECOND),
            max_hot: Some(max_hot),
            policy: RetirePolicy::Hibernate,
        },
        ..base_cfg.clone()
    };
    let migrate_wave = if smoke { 16 } else { 64 };

    let resident = run_fleet(&base_cfg, &fleet, 0);
    let hibernating = run_fleet(&hib_cfg, &fleet, migrate_wave);

    // The contract, not a metric: hibernate → restore ≡
    // never-hibernated, byte for byte, migrations included.
    assert!(
        resident.report.decisions > 0,
        "resident run emitted no decisions"
    );
    assert_eq!(
        resident.csv, hibernating.csv,
        "hibernation/migration changed the decision log"
    );
    for out in [&resident, &hibernating] {
        assert_eq!(
            out.report.frames_in,
            out.report.frames_processed + out.report.shed,
            "frame conservation"
        );
        assert_eq!(out.report.shed, 0, "blocking mode never sheds");
    }
    let s = &hibernating.report.sessions;
    assert!(s.hibernated > 0, "thrash config must page: {s:?}");
    assert!(s.restored > 0, "paged sessions must fault back in: {s:?}");
    assert_eq!(s.migrations, migrate_wave as u64);
    assert!(
        resident.final_resident_bytes > 0,
        "resident run must account session bytes"
    );

    let fps_resident = resident.report.frames_per_sec();
    let fps_hibernating = hibernating.report.frames_per_sec();
    let peak_fraction_pct =
        100.0 * hibernating.peak_resident_bytes as f64 / resident.final_resident_bytes as f64;
    // The headline: paging must actually bound the footprint. The cap
    // is 10% of clients per shard; allow slack for the LRU watermark
    // and per-session size variance, but a fully-resident peak is a
    // bug, not a regression.
    assert!(
        peak_fraction_pct < 60.0,
        "peak resident bytes are {peak_fraction_pct:.1}% of the fully-resident \
         footprint — hibernation is not bounding the working set"
    );

    let fault_p50_us = hibernating.report.fault_in_ns.quantile(0.50).unwrap_or(0.0) / 1_000.0;
    let fault_p99_us = hibernating.report.fault_in_ns.quantile(0.99).unwrap_or(0.0) / 1_000.0;
    let migrate_mean_us = if hibernating.migrate_us.is_empty() {
        0.0
    } else {
        hibernating.migrate_us.iter().sum::<f64>() / hibernating.migrate_us.len() as f64
    };

    println!("clients:                {}", fleet_cfg.n_clients);
    println!("frames served:          {} (x2 runs)", fleet.total_frames());
    println!("decisions:              {}", resident.report.decisions);
    println!("frames/sec resident:    {fps_resident:.0}");
    println!("frames/sec hibernating: {fps_hibernating:.0}");
    println!(
        "resident bytes:         peak {} / full {} ({peak_fraction_pct:.1}%)",
        hibernating.peak_resident_bytes, resident.final_resident_bytes
    );
    println!(
        "sessions:               {} hibernated, {} restored, {} migrated",
        s.hibernated, s.restored, s.migrations
    );
    println!("fault-in latency:       p50 {fault_p50_us:.1} us, p99 {fault_p99_us:.1} us");
    println!("migrate latency:        mean {migrate_mean_us:.1} us over {migrate_wave} moves");

    let mut out = BenchReport::new("session_hibernate");
    // Contract ratios: exact, zero tolerance.
    out.push("decision_log_invariant", 1.0, true, 0.0);
    out.push(
        "frame_conservation_invariant",
        (hibernating.report.frames_in == hibernating.report.frames_processed) as u64 as f64,
        true,
        0.0,
    );
    // Footprint: the reason this subsystem exists. Generous tolerance
    // for per-host variance; the hard 60% wall is asserted above.
    out.push(
        "resident_peak_fraction_pct",
        peak_fraction_pct,
        false,
        100.0,
    );
    // Throughput and latency: timing-dependent, wide gates.
    out.push("frames_per_sec_resident", fps_resident, true, 90.0);
    out.push("frames_per_sec_hibernating", fps_hibernating, true, 90.0);
    out.push("fault_in_p50_us", fault_p50_us, false, 400.0);
    out.push("fault_in_p99_us", fault_p99_us, false, 400.0);
    out.push("migrate_mean_us", migrate_mean_us, false, 400.0);
    let path = out.write_to(&report::default_dir()).expect("write report");
    eprintln!("report: {}", path.display());
}
