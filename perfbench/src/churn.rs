//! The hibernation workload: one submitter thread drives a
//! [`ShardEngine`] whose shards page idle sessions to disk.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

use mobisense_serve::{
    decision_log_csv, BoxedPager, ServeConfig, ServeReport, ShardEngine, Ticket,
};
use mobisense_store::{StoreConfig, StorePager};
use mobisense_telemetry::Sampler as TraceSampler;

use crate::inputs::{Base, ChurnSchedule};
use crate::procstat::{Sampler, TaskCounters};
use crate::spans::SpanLog;

/// One measured round.
pub struct ChurnRound {
    /// First submit → `finish()` returned every decision.
    pub wall_s: f64,
    /// Frames submitted.
    pub offered: u64,
    /// The engine's report.
    pub report: ServeReport,
    /// The merged decision log.
    pub log: String,
    /// System thread counters of this round.
    pub groups: BTreeMap<&'static str, TaskCounters>,
    /// Peak of the shards' resident session bytes, sampled from the
    /// submitter every 4096 frames.
    pub resident_peak_bytes: u64,
    /// `ShardEngine::submit` durations, ns (traced rounds only).
    pub submit_ns: Vec<f64>,
    /// Sealed segment files the pagers left on disk.
    pub segments_sealed: u64,
    /// Bytes the pagers left on disk.
    pub store_bytes: u64,
}

/// Pager segment size: larger than a shard's page-outs in one round, so
/// no seal (and its fsync) lands inside the measured loop. With the
/// default 4 MiB, consecutive runs on a shared VM disk queued behind
/// each other's fsyncs and throughput halved from run to run; the seal
/// path is measured on `tcp_recorded` instead.
const PAGER_SEGMENT_BYTES: usize = 1 << 30;

fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

/// Creates one disk pager per shard under `dir` and spawns the engine.
fn spawn(
    cfg: &ServeConfig,
    dir: &Path,
    spans: &mut SpanLog,
    parent: Option<u32>,
) -> io::Result<ShardEngine> {
    let pagers = (0..cfg.n_shards)
        .map(|k| {
            spans.time("store_pager_create", parent, || {
                StorePager::create(
                    StoreConfig::new(shard_dir(dir, k))
                        .with_target_segment_bytes(PAGER_SEGMENT_BYTES),
                )
                .map(|p| Box::new(p) as BoxedPager)
                .map_err(io::Error::other)
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    spans.time("engine_spawn", parent, || {
        ShardEngine::spawn_with_pagers(cfg, pagers)
    })
}

/// Files and bytes under `dir`: (sealed segments, total bytes).
fn store_footprint(dir: &Path) -> io::Result<(u64, u64)> {
    let mut sealed = 0;
    let mut bytes = 0;
    for shard in std::fs::read_dir(dir)? {
        for f in std::fs::read_dir(shard?.path())? {
            let f = f?;
            bytes += f.metadata()?.len();
            if f.path().extension().is_some_and(|e| e == "seg") {
                sealed += 1;
            }
        }
    }
    Ok((sealed, bytes))
}

/// Runs one round into a fresh store directory `dir`.
pub fn round(
    cfg: &ServeConfig,
    base: &Base,
    schedule: &ChurnSchedule,
    dir: &Path,
    sampler: &Sampler,
    epoch: u64,
    spans: &mut SpanLog,
) -> io::Result<ChurnRound> {
    sampler.set_epoch(epoch);
    let round_span = spans.open("round", None);
    let engine = spawn(cfg, dir, spans, round_span)?;
    let gauges = engine.session_gauges().to_vec();
    let resident = || -> u64 {
        gauges
            .iter()
            .map(|g| g.resident_bytes.load(Ordering::Relaxed))
            .sum()
    };

    let traced = spans.enabled();
    let mut stage_sampler = TraceSampler::every(cfg.stage_sampling);
    let mut submit_ns = Vec::new();
    let mut offered = 0u64;
    let mut peak = 0u64;
    let origin = Instant::now();
    for (step, clients) in schedule.active.iter().enumerate() {
        for &c in clients {
            let frame = base.obs(c, step);
            let ticket = if stage_sampler.sample() {
                Ticket::traced()
            } else {
                Ticket::untraced()
            };
            if traced {
                let t = Instant::now();
                engine.submit(ticket, frame);
                submit_ns.push(t.elapsed().as_nanos() as f64);
            } else {
                engine.submit(ticket, frame);
            }
            offered += 1;
            if offered.is_multiple_of(4096) {
                peak = peak.max(resident());
            }
        }
    }
    sampler.sample_now();
    let (decisions, report) = spans.time("engine_finish", round_span, || engine.finish(offered));
    let wall_s = origin.elapsed().as_secs_f64();
    sampler.sample_now();
    spans.close(round_span);
    let (segments_sealed, store_bytes) = store_footprint(dir)?;
    Ok(ChurnRound {
        wall_s,
        offered,
        log: decision_log_csv(&decisions),
        report,
        groups: sampler.groups(epoch),
        resident_peak_bytes: peak.max(resident()),
        submit_ns,
        segments_sealed,
        store_bytes,
    })
}

/// Creates the pagers and engine and finishes it idle: one more set-up
/// sample, with no traffic.
pub fn setup_only(cfg: &ServeConfig, dir: &Path) -> io::Result<f64> {
    let mut off = SpanLog::new(Instant::now(), false);
    let t0 = Instant::now();
    let engine = spawn(cfg, dir, &mut off, None)?;
    let secs = t0.elapsed().as_secs_f64();
    engine.finish(0);
    Ok(secs)
}
