//! The layer pass: one thread runs each layer's public function over a
//! workload's own frames and times it per frame, with nothing else
//! running. The traced run reports these beside the in-situ counters,
//! and the ledger compares their sum to the system's CPU per frame.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use mobisense_core::PipelineSession;
use mobisense_edge::FrameAssembler;
use mobisense_serve::{ObsFrame, ServeConfig};
use mobisense_session::{SessionSnapshot, SnapshotPager};
use mobisense_store::{StoreConfig, StorePager, TraceReader, TraceWriter};
use mobisense_telemetry::NoopSink;

use crate::metrics::{median, per_frame};

/// Bytes per read in the edge reactor (`EdgeConfig::default().read_chunk`).
const READ_CHUNK: usize = 4096;
/// The trace store's default segment size: seal once this much is
/// appended.
const SEGMENT_BYTES: usize = 4 << 20;

/// Per-frame (or per-session, per-seal) costs of each layer.
#[derive(Clone, Debug, Default)]
pub struct LayerPass {
    /// Frames in the pass.
    pub frames: u64,
    /// Sessions the pass built (one per client seen).
    pub sessions: u64,
    /// `FrameAssembler::feed` in reactor-sized chunks, per frame (this
    /// includes the wire decode).
    pub feed_ns: f64,
    /// `ObsFrame::decode`, per frame.
    pub decode_ns: f64,
    /// `PipelineSession::observe_profile_with` (with the digest →
    /// profile conversion the worker does), per frame.
    pub observe_ns: f64,
    /// `PipelineSession::snapshot`, per session.
    pub snapshot_ns: f64,
    /// `SessionSnapshot::encode`, per session.
    pub encode_ns: f64,
    /// `SessionSnapshot::decode`, per session.
    pub decode_snapshot_ns: f64,
    /// `PipelineSession::restore`, per session.
    pub restore_ns: f64,
    /// `StorePager::page_out`, per session.
    pub page_out_ns: f64,
    /// `StorePager::page_in`, per session.
    pub page_in_ns: f64,
    /// `TraceWriter::append_encoded`, per frame.
    pub append_ns: f64,
    /// Median `TraceWriter::seal_segment` of a full segment, ms.
    pub seal_ms: f64,
    /// Frames per full segment.
    pub frames_per_segment: f64,
    /// The recovering read of the pass's store, MiB/s.
    pub recover_mib_per_s: f64,
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Runs the pass over `bytes` (whole wire frames of `frame_len`),
/// writing its stores under `dir`.
pub fn run(bytes: &[u8], frame_len: usize, cfg: &ServeConfig, dir: &Path) -> io::Result<LayerPass> {
    let mut out = LayerPass::default();

    let mut asm = FrameAssembler::new();
    let t = Instant::now();
    for chunk in bytes.chunks(READ_CHUNK) {
        asm.feed(chunk, &mut |frame, raw| {
            black_box((&frame, raw));
        });
    }
    let feed_total = ns_since(t);
    out.frames = asm.frames();
    out.feed_ns = per_frame(feed_total, out.frames);

    let mut frames: Vec<ObsFrame> = Vec::with_capacity(bytes.len() / frame_len);
    let t = Instant::now();
    for raw in bytes.chunks_exact(frame_len) {
        let (frame, _) = ObsFrame::decode(raw).map_err(io::Error::other)?;
        frames.push(frame);
    }
    out.decode_ns = per_frame(ns_since(t), frames.len() as u64);

    // Sessions are built before the timer starts, so `observe_ns` holds
    // only `observe_profile_with` however few frames a session gets.
    let mut sessions: BTreeMap<u32, PipelineSession> = frames
        .iter()
        .map(|f| {
            let s = PipelineSession::new(cfg.pipeline.clone(), cfg.session_seed_for(f.client_id));
            (f.client_id, s)
        })
        .collect();
    let t = Instant::now();
    for f in &frames {
        let s = sessions
            .get_mut(&f.client_id)
            .ok_or_else(|| io::Error::other("frame of a client with no session"))?;
        black_box(s.observe_profile_with(f.at, f.profile(), f.distance_m, &mut NoopSink));
    }
    out.observe_ns = per_frame(ns_since(t), frames.len() as u64);
    drop(frames);

    let mut pager =
        StorePager::create(StoreConfig::new(dir.join("pager"))).map_err(io::Error::other)?;
    let (mut snap_t, mut enc_t, mut dec_t, mut res_t, mut out_t, mut in_t) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for (&client, session) in &sessions {
        let t = Instant::now();
        let state = session.snapshot();
        snap_t += ns_since(t);
        let snap = SessionSnapshot {
            client_id: client,
            last_emitted: None,
            state,
        };
        let t = Instant::now();
        let encoded = snap.encode().map_err(io::Error::other)?;
        enc_t += ns_since(t);
        let t = Instant::now();
        pager.page_out(client, &encoded).map_err(io::Error::other)?;
        out_t += ns_since(t);
        let t = Instant::now();
        let paged = pager
            .page_in(client)
            .map_err(io::Error::other)?
            .ok_or_else(|| io::Error::other("paged-out session missing"))?;
        in_t += ns_since(t);
        let t = Instant::now();
        let back = SessionSnapshot::decode(&paged).map_err(io::Error::other)?;
        dec_t += ns_since(t);
        let t = Instant::now();
        black_box(PipelineSession::restore(cfg.pipeline.clone(), back.state));
        res_t += ns_since(t);
    }
    pager.finish().map_err(io::Error::other)?;
    out.sessions = sessions.len() as u64;
    let n = out.sessions;
    (out.snapshot_ns, out.encode_ns, out.decode_snapshot_ns) = (
        per_frame(snap_t, n),
        per_frame(enc_t, n),
        per_frame(dec_t, n),
    );
    (out.restore_ns, out.page_out_ns, out.page_in_ns) =
        (per_frame(res_t, n), per_frame(out_t, n), per_frame(in_t, n));

    // Rotation is driven here, at the default segment size, so seals
    // are timed apart from appends.
    let store = dir.join("store");
    let mut writer =
        TraceWriter::create(StoreConfig::new(&store).with_target_segment_bytes(usize::MAX / 2))?;
    let (mut append_t, mut seals, mut since_seal, mut frames_n) = (0.0, Vec::new(), 0usize, 0u64);
    for raw in bytes.chunks_exact(frame_len) {
        let t = Instant::now();
        writer.append_encoded(raw).map_err(io::Error::other)?;
        append_t += ns_since(t);
        frames_n += 1;
        since_seal += raw.len();
        if since_seal >= SEGMENT_BYTES {
            let t = Instant::now();
            writer.seal_segment()?;
            seals.push(ns_since(t) / 1e6);
            since_seal = 0;
        }
    }
    let summary = writer.finish()?;
    out.append_ns = per_frame(append_t, frames_n);
    out.seal_ms = median(&seals);
    out.frames_per_segment = (SEGMENT_BYTES / frame_len) as f64;
    let t = Instant::now();
    let recovery = TraceReader::open(&store)?.recover()?;
    let secs = t.elapsed().as_secs_f64();
    if recovery.frames.len() as u64 != frames_n || !recovery.complete() {
        return Err(io::Error::other("layer pass store did not read back whole"));
    }
    out.recover_mib_per_s = summary.bytes as f64 / (1024.0 * 1024.0) / secs.max(1e-9);
    Ok(out)
}
