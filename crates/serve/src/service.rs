//! The sharded serving loop: producers pump encoded fleet streams into
//! per-shard queues; shard workers decode nothing (frames arrive
//! decoded), run one [`PipelineSession`] per client, and emit a policy
//! decision on every post-warm-up mode transition.
//!
//! ## Determinism contract
//!
//! Each client id hashes to exactly one shard, its producer submits its
//! frames in sequence order, and the queue is FIFO — so a client's
//! session consumes exactly the same frame sequence whatever the shard
//! count. Under [`OverflowPolicy::Block`] no frame is ever lost, so the
//! merged decision log, sorted by `(client_id, seq)`, is bit-identical
//! for 1, 2 or 8 shards. Under
//! [`OverflowPolicy::ShedOldestPerClient`] losses depend on scheduler
//! timing: throughput survives overload, reproducibility is
//! deliberately given up, and the shed counter says how much was
//! dropped.
//!
//! Workers never share state (one session map, one latency histogram
//! and one depth histogram per shard, merged after join), so shard
//! scaling costs no cross-shard synchronisation.

// Determinism (DESIGN §5.10): replay must see the same clock and order.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::Instant;

use mobisense_core::classifier::Classification;
use mobisense_core::pipeline::{PipelineConfig, PipelineSession};
use mobisense_core::policy::MobilityPolicy;
use mobisense_mobility::{Direction, MobilityMode};
use mobisense_session::{
    HibernationConfig, HibernationManager, MemoryPager, RetirePolicy, SessionSnapshot,
    SnapshotPager,
};
use mobisense_telemetry::metrics::{Histogram, SPAN_NS_BUCKETS};
use mobisense_telemetry::{Event, NoopSink, Registry, Sampler, Sink, Stage, StageHistograms};
use mobisense_util::units::Nanos;

use crate::fleet::{ClientStream, EncodedFleet};
use crate::ops::{OpsMonitor, OpsOutcome, SnapshotMeta, SnapshotPolicy, StallFlag};
use crate::queue::{MigrateParcel, OverflowPolicy, ShardQueue, Ticket, WorkItem};
use crate::recording::{RecorderHandle, RecorderStats};
use crate::routing::{mix64, shard_of};
use crate::sessions::{SessionGauges, SessionOpsSource};
use crate::wire::ObsFrame;

/// A worker's snapshot storage backend, one per shard.
pub type BoxedPager = Box<dyn SnapshotPager + Send>;

/// Queue-depth histogram bucket bounds (frames).
pub const DEPTH_BUCKETS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
];

/// Configuration of a serving run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker shards (each gets one ingest producer and one queue).
    pub n_shards: usize,
    /// Per-shard queue capacity (frames).
    pub queue_capacity: usize,
    /// What producers do when a queue fills up.
    pub overflow: OverflowPolicy,
    /// Per-client classification pipeline parameters.
    pub pipeline: PipelineConfig,
    /// Base seed for per-client session noise streams (ToF measurement
    /// noise); the per-client seed derives from it and the client id,
    /// never from the shard, so re-sharding cannot change a session.
    pub session_seed: u64,
    /// Stage-trace sampling: every Nth submitted frame (per producer)
    /// carries a [`mobisense_telemetry::StageTrace`] that stamps each
    /// pipeline stage, feeding the per-stage histograms in
    /// [`ServeReport::stages`]. `0` disables tracing entirely; traces
    /// never influence decisions, only telemetry.
    pub stage_sampling: u32,
    /// When set, a background ops monitor snapshots queue / recorder
    /// health at this cadence and flags stalled sources
    /// ([`ServeReport::snapshots`] / [`ServeReport::stalls`]).
    pub snapshot: Option<SnapshotPolicy>,
    /// Session residency policy: when idle (or hot-set-overflow)
    /// sessions are hibernated into the shard's pager — or, under
    /// [`RetirePolicy::Evict`], dropped outright. The default disables
    /// both triggers: sessions stay resident forever, exactly the
    /// pre-hibernation behaviour. Retirement uses the **sim clock**
    /// (frame timestamps), so victim selection is deterministic and the
    /// decision log stays byte-identical with hibernation on or off.
    pub hibernation: HibernationConfig,
    /// When `true`, workers record one [`Event::SessionHibernate`] /
    /// [`Event::SessionRestore`] per lifecycle transition into
    /// [`ServeReport::session_events`] (replayed to the sink at end of
    /// run). Off by default: a 100k-client fleet cycling its working
    /// set generates far more lifecycle events than anyone wants to
    /// buffer; the aggregate counters in [`ServeReport::sessions`] and
    /// the live `serve.sessions.*` gauges are always on.
    pub session_events: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            n_shards: 2,
            queue_capacity: 512,
            overflow: OverflowPolicy::Block,
            pipeline: PipelineConfig::default(),
            session_seed: 0x5345_5256, // "SERV"
            stage_sampling: 0,
            snapshot: None,
            hibernation: HibernationConfig::default(),
            session_events: false,
        }
    }
}

impl ServeConfig {
    /// The ToF-noise seed for one client's session.
    pub fn session_seed_for(&self, client_id: u32) -> u64 {
        self.session_seed ^ mix64(client_id as u64 ^ 0x7365_7373)
    }
}

/// One emitted decision: a client's mobility state changed after
/// warm-up, and the Table-2 policy column to apply with it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeDecision {
    /// The client that transitioned.
    pub client_id: u32,
    /// Sequence number of the frame that completed the classification.
    pub seq: u32,
    /// Capture timestamp of that frame (sim clock).
    pub at: Nanos,
    /// The new mobility state.
    pub classification: Classification,
    /// The protocol parameters to push to the AP for this client.
    pub policy: MobilityPolicy,
}

/// Per-shard accounting, reported after the run.
#[derive(Clone, Copy, Debug)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: u32,
    /// Frames this shard's worker processed.
    pub frames: u64,
    /// Decisions this shard emitted.
    pub decisions: u64,
    /// Frames this shard's queue shed.
    pub shed: u64,
    /// Deepest queue occupancy observed.
    pub max_depth: u64,
    /// Latest frame timestamp the worker consumed (sim clock).
    pub last_at: Nanos,
}

/// Aggregate outcome of one serving run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Frames submitted by producers (shed frames included).
    pub frames_in: u64,
    /// Frames consumed by shard workers.
    pub frames_processed: u64,
    /// Frames evicted under load shedding.
    pub shed: u64,
    /// Emitted mode-transition decisions.
    pub decisions: u64,
    /// Emitted decisions per decided mode, in static / environmental /
    /// micro / macro order.
    pub per_mode: [u64; 4],
    /// Ingest-to-decision wall-clock latency (ns) of every frame that
    /// completed a classification.
    pub latency_ns: Histogram,
    /// Queue depth (frames) sampled at every worker pop.
    pub depth: Histogram,
    /// Per-stage latency histograms merged across shards (empty unless
    /// [`ServeConfig::stage_sampling`] > 0).
    pub stages: StageHistograms,
    /// Per-shard stage histograms, index = shard (empty vec when
    /// tracing is off).
    pub per_stage_shard: Vec<StageHistograms>,
    /// Per-shard accounting, index = shard.
    pub per_shard: Vec<ShardSummary>,
    /// Serialized ops snapshots, one JSONL block per monitor tick
    /// (empty unless [`ServeConfig::snapshot`] is set).
    pub snapshots: Vec<String>,
    /// Stalls the ops watchdog flagged during the run.
    pub stalls: Vec<StallFlag>,
    /// Recording-channel counters at the end of the run, when a flight
    /// recorder was attached.
    pub recorder: Option<RecorderStats>,
    /// Session lifecycle totals (hibernate / restore / evict / migrate)
    /// summed across shards.
    pub sessions: SessionsSummary,
    /// Wall-clock latency (ns) of every session fault-in: the price a
    /// hibernated client pays on its first frame back.
    pub fault_in_ns: Histogram,
    /// Per-occurrence session lifecycle events, in shard order then
    /// migrations (empty unless [`ServeConfig::session_events`] is set;
    /// migrations are always included). Replayed to the sink by
    /// [`emit_report_events`].
    pub session_events: Vec<Event>,
    /// Wall-clock duration of the whole run.
    pub wall: std::time::Duration,
}

/// Session lifecycle totals for one run, summed across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionsSummary {
    /// Sessions paged out over the run.
    pub hibernated: u64,
    /// Sessions faulted back in over the run.
    pub restored: u64,
    /// Sessions dropped without a snapshot over the run.
    pub evicted: u64,
    /// Live migrations completed over the run.
    pub migrations: u64,
    /// Sessions still resident when the run finished.
    pub hot_final: u64,
    /// Sessions still paged out when the run finished.
    pub hibernated_final: u64,
}

impl ServeReport {
    /// Processed frames per wall-clock second.
    pub fn frames_per_sec(&self) -> f64 {
        self.frames_processed as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Fraction of submitted frames that were shed.
    pub fn shed_rate(&self) -> f64 {
        if self.frames_in == 0 {
            0.0
        } else {
            self.shed as f64 / self.frames_in as f64
        }
    }

    /// Assembles the report into a metrics [`Registry`] — the same
    /// shape the live ops monitor snapshots, so a finished run can be
    /// serialized with [`mobisense_telemetry::Snapshot`] too.
    pub fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.counter("serve.frames_in").add(self.frames_in);
        reg.counter("serve.frames_processed")
            .add(self.frames_processed);
        reg.counter("serve.shed").add(self.shed);
        reg.counter("serve.decisions").add(self.decisions);
        reg.gauge("serve.shards").set(self.per_shard.len() as f64);
        reg.gauge("serve.wall_ns").set(self.wall.as_nanos() as f64);
        if self.latency_ns.count() > 0 {
            reg.histogram("serve.latency_ns", SPAN_NS_BUCKETS)
                .merge(&self.latency_ns);
        }
        if self.depth.count() > 0 {
            reg.histogram("serve.depth", DEPTH_BUCKETS)
                .merge(&self.depth);
        }
        self.stages.fill_registry(&mut reg);
        reg.counter("serve.sessions.hibernates")
            .add(self.sessions.hibernated);
        reg.counter("serve.sessions.restores")
            .add(self.sessions.restored);
        reg.counter("serve.sessions.evictions")
            .add(self.sessions.evicted);
        reg.counter("serve.sessions.migrations")
            .add(self.sessions.migrations);
        reg.gauge("serve.sessions.hot")
            .set(self.sessions.hot_final as f64);
        reg.gauge("serve.sessions.hibernated")
            .set(self.sessions.hibernated_final as f64);
        if self.fault_in_ns.count() > 0 {
            reg.histogram("serve.sessions.fault_in_ns", SPAN_NS_BUCKETS)
                .merge(&self.fault_in_ns);
        }
        if let Some(stats) = &self.recorder {
            reg.counter("serve.recorder.frames").add(stats.frames);
            reg.counter("serve.recorder.rows").add(stats.rows);
            reg.counter("serve.recorder.dropped").add(stats.dropped);
            reg.counter("serve.recorder.drained").add(stats.drained);
            reg.gauge("serve.recorder.max_depth")
                .set(stats.max_depth as f64);
        }
        reg
    }
}

fn mode_index(mode: MobilityMode) -> usize {
    match mode {
        MobilityMode::Static => 0,
        MobilityMode::Environmental => 1,
        MobilityMode::Micro => 2,
        MobilityMode::Macro => 3,
    }
}

/// One shard worker's client state.
struct ClientState {
    session: PipelineSession,
    /// Last classification emitted post-warm-up (warm-up decisions never
    /// update this, so the first settled state is always reported).
    last_emitted: Option<Classification>,
    /// Latest frame timestamp this session consumed (sim clock) — what
    /// a migration parcel carries so the target's LRU stays accurate.
    last_at: Nanos,
    /// Bytes currently charged to the resident-bytes gauge for this
    /// session (re-measured after every frame; sessions grow while
    /// their ToF history fills).
    bytes: usize,
}

struct WorkerResult {
    decisions: Vec<ServeDecision>,
    frames: u64,
    last_at: Nanos,
    latency_ns: Histogram,
    depth: Histogram,
    stages: StageHistograms,
    sessions: SessionsSummary,
    fault_in_ns: Histogram,
    session_events: Vec<Event>,
}

/// One shard worker's session-residency bookkeeping, split from the
/// frame loop so the lifecycle arms ([`WorkItem::Migrate`] /
/// [`WorkItem::Adopt`] / victim retirement) share one implementation.
struct WorkerSessions<'a> {
    cfg: &'a ServeConfig,
    shard: u32,
    map: BTreeMap<u32, ClientState>,
    manager: HibernationManager,
    pager: BoxedPager,
    gauges: Arc<SessionGauges>,
    resident_bytes: u64,
}

impl WorkerSessions<'_> {
    /// Faults the client's session back in if it is hibernated,
    /// recording the fault-in latency; no-op for hot or unknown
    /// clients. A failed fault-in (missing or corrupt page) panics the
    /// worker: serving a fresh session where a hibernated one exists
    /// would silently diverge the decision log, and the workspace's
    /// poison philosophy is that corrupt state fails the run loudly.
    fn fault_in_if_hibernated(&mut self, client: u32, at: Nanos, out: &mut WorkerResult) {
        if !self.manager.is_hibernated(client) {
            return;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "fault-in wall latency is telemetry only, never decisions"
        )]
        let t0 = Instant::now();
        let snap = self
            .manager
            .fault_in(client, self.pager.as_mut())
            .expect("session fault-in failed: paged state unusable, refusing to diverge")
            .expect("hibernated client has a snapshot by manager invariant");
        let wait_ns = t0.elapsed().as_nanos() as u64;
        let state = ClientState {
            session: PipelineSession::restore(self.cfg.pipeline.clone(), snap.state),
            last_emitted: snap.last_emitted,
            last_at: at,
            bytes: 0,
        };
        self.map.insert(client, state);
        out.fault_in_ns.observe(wait_ns as f64);
        self.gauges
            .fault_in_ns
            .fetch_add(wait_ns, Ordering::Relaxed);
        if self.cfg.session_events {
            out.session_events.push(Event::SessionRestore {
                at,
                client_id: client,
                shard: self.shard,
                wait_ns,
            });
        }
    }

    /// Retires every victim the manager selects at sim time `now`:
    /// snapshot-and-page-out under [`RetirePolicy::Hibernate`], drop
    /// under [`RetirePolicy::Evict`]. Runs after every processed frame;
    /// cheap when nobody is due (one ordered-set probe). The retired
    /// session's state moves into the snapshot, uncopied; the page may
    /// sit in the pager's buffer until [`end_batch`](Self::end_batch).
    fn retire_victims(&mut self, now: Nanos, out: &mut WorkerResult) {
        if !self.cfg.hibernation.enabled() {
            return;
        }
        for victim in self.manager.victims(now) {
            let state = self
                .map
                .remove(&victim)
                .expect("victim selection tracks exactly the resident sessions");
            self.resident_bytes -= state.bytes as u64;
            match self.cfg.hibernation.policy {
                RetirePolicy::Hibernate => {
                    let snap = SessionSnapshot {
                        client_id: victim,
                        last_emitted: state.last_emitted,
                        state: state.session.into_state(),
                    };
                    let bytes = self
                        .manager
                        .hibernate(&snap, self.pager.as_mut())
                        .expect("session page-out failed: cannot retire without losing state")
                        as u64;
                    if self.cfg.session_events {
                        out.session_events.push(Event::SessionHibernate {
                            at: now,
                            client_id: victim,
                            shard: self.shard,
                            bytes,
                        });
                    }
                }
                RetirePolicy::Evict => self.manager.evict(victim),
            }
        }
    }

    /// Extracts the client's full session as a [`MigrateParcel`] —
    /// resident, hibernated, or never-seen — and forgets it locally.
    fn extract_parcel(&mut self, client: u32) -> MigrateParcel {
        if let Some(state) = self.map.remove(&client) {
            self.resident_bytes -= state.bytes as u64;
            let snap = SessionSnapshot {
                client_id: client,
                last_emitted: state.last_emitted,
                state: state.session.into_state(),
            };
            let bytes = snap
                .encode()
                .expect("migrating session failed to encode: state unusable");
            self.manager.forget(client);
            MigrateParcel {
                client_id: client,
                bytes: Some(bytes),
                last_at: state.last_at,
            }
        } else if self.manager.is_hibernated(client) {
            // The page transfers as-is: the target decodes (and so
            // CRC-checks) it at adoption.
            let bytes = self
                .pager
                .page_in(client)
                .expect("migrating session failed to page in")
                .expect("hibernated client has a snapshot by manager invariant");
            self.manager.forget(client);
            MigrateParcel {
                client_id: client,
                bytes: Some(bytes),
                last_at: 0,
            }
        } else {
            MigrateParcel {
                client_id: client,
                bytes: None,
                last_at: 0,
            }
        }
    }

    /// Restores a migrated session into this worker's client map.
    fn adopt(&mut self, parcel: MigrateParcel) {
        let MigrateParcel {
            client_id,
            bytes,
            last_at,
        } = parcel;
        let Some(bytes) = bytes else {
            return; // source had nothing: fresh session on next frame
        };
        let snap = SessionSnapshot::decode(&bytes)
            .expect("adopted session parcel failed to decode: transfer corrupted");
        assert_eq!(snap.client_id, client_id, "parcel/snapshot client mismatch");
        let session = PipelineSession::restore(self.cfg.pipeline.clone(), snap.state);
        let bytes_resident = session.approx_bytes();
        self.resident_bytes += bytes_resident as u64;
        let prev = self.map.insert(
            client_id,
            ClientState {
                session,
                last_emitted: snap.last_emitted,
                last_at,
                bytes: bytes_resident,
            },
        );
        assert!(
            prev.is_none(),
            "adopted client {client_id} already resident"
        );
        self.manager.touch(client_id, last_at);
    }

    /// Closes one popped batch: flushes the pager, so the batch's
    /// page-outs reach the store together, then publishes the current
    /// residency picture to the shared gauges (absolute stores; this
    /// worker is the only writer). A failed flush panics the worker
    /// like a failed page-out: the retired sessions are gone from the
    /// map and their pages may not be stored.
    fn end_batch(&mut self) {
        self.pager
            .flush()
            .expect("session page-out flush failed: cannot retire without losing state");
        let stats = self.manager.stats();
        self.gauges
            .hot
            .store(self.map.len() as u64, Ordering::Relaxed);
        self.gauges
            .hibernated
            .store(self.manager.hibernated_count() as u64, Ordering::Relaxed);
        self.gauges
            .resident_bytes
            .store(self.resident_bytes, Ordering::Relaxed);
        self.gauges
            .hibernates
            .store(stats.hibernated, Ordering::Relaxed);
        self.gauges
            .restores
            .store(stats.restored, Ordering::Relaxed);
        self.gauges
            .evictions
            .store(stats.evicted, Ordering::Relaxed);
    }
}

fn run_worker(
    queue: &ShardQueue,
    cfg: &ServeConfig,
    shard: u32,
    gauges: Arc<SessionGauges>,
    pager: BoxedPager,
) -> WorkerResult {
    // BTreeMap, not HashMap: per-client state is only keyed lookups
    // today, but the determinism contract bans seed-ordered iteration
    // from ever sneaking into this file.
    let mut ws = WorkerSessions {
        cfg,
        shard,
        map: BTreeMap::new(),
        manager: HibernationManager::new(cfg.hibernation.clone()),
        pager,
        gauges,
        resident_bytes: 0,
    };
    let mut out = WorkerResult {
        decisions: Vec::new(),
        frames: 0,
        last_at: 0,
        latency_ns: Histogram::with_buckets(SPAN_NS_BUCKETS),
        depth: Histogram::with_buckets(DEPTH_BUCKETS),
        stages: StageHistograms::new(),
        sessions: SessionsSummary::default(),
        fault_in_ns: Histogram::with_buckets(SPAN_NS_BUCKETS),
        session_events: Vec::new(),
    };
    let warmup = cfg.pipeline.warmup;
    let mut batch = Vec::new();
    while queue.pop_batch(&mut batch) {
        for (item, depth) in batch.drain(..) {
            let (mut ticket, frame) = match item {
                WorkItem::Frame(ticket, frame) => (ticket, frame),
                WorkItem::Migrate { client_id, reply } => {
                    let parcel = ws.extract_parcel(client_id);
                    #[expect(
                        clippy::let_underscore_untyped,
                        clippy::let_underscore_must_use,
                        reason = "a dropped receiver means the engine is already finishing; the parcel has nowhere to go"
                    )]
                    let _ = reply.send(parcel);
                    continue;
                }
                WorkItem::Adopt(parcel) => {
                    ws.adopt(*parcel);
                    continue;
                }
            };
            if let Some(trace) = ticket.trace.as_mut() {
                trace.mark(Stage::Dequeue);
            }
            out.depth.observe(depth as f64);
            out.frames += 1;
            out.last_at = out.last_at.max(frame.at);
            ws.fault_in_if_hibernated(frame.client_id, frame.at, &mut out);
            let state = ws
                .map
                .entry(frame.client_id)
                .or_insert_with(|| ClientState {
                    session: PipelineSession::new(
                        cfg.pipeline.clone(),
                        cfg.session_seed_for(frame.client_id),
                    ),
                    last_emitted: None,
                    last_at: 0,
                    bytes: 0,
                });
            let decided = state.session.observe_profile_with(
                frame.at,
                frame.profile(),
                frame.distance_m,
                &mut NoopSink,
            );
            if let Some(trace) = ticket.trace.as_mut() {
                trace.mark(Stage::Classify);
            }
            if let Some(c) = decided {
                if frame.at >= warmup && state.last_emitted != Some(c) {
                    state.last_emitted = Some(c);
                    out.decisions.push(ServeDecision {
                        client_id: frame.client_id,
                        seq: frame.seq,
                        at: frame.at,
                        classification: c,
                        policy: MobilityPolicy::for_classification(c),
                    });
                }
            }
            state.last_at = frame.at;
            // Re-measure the session's footprint (O(1): sizes, not walks)
            // and keep the running resident-bytes ledger exact.
            let now_bytes = state.session.approx_bytes();
            ws.resident_bytes = ws.resident_bytes - state.bytes as u64 + now_bytes as u64;
            state.bytes = now_bytes;
            ws.manager.touch(frame.client_id, frame.at);
            if let Some(trace) = ticket.trace.as_mut() {
                // One clock read stamps the `Decide` span and, when the
                // classifier emitted, the end-to-end decision latency — the
                // traced path pays no read the untraced path doesn't.
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall-clock latency telemetry only, never decisions"
                )]
                let now = Instant::now();
                trace.mark_at(Stage::Decide, now);
                out.stages.observe_trace(trace);
                if decided.is_some() {
                    out.latency_ns
                        .observe(now.saturating_duration_since(ticket.ingested).as_nanos() as f64);
                }
            } else if decided.is_some() {
                out.latency_ns
                    .observe(ticket.ingested.elapsed().as_nanos() as f64);
            }
            // Retirement runs on the sim clock of the frame just served, so
            // victim choice replays identically run over run.
            ws.retire_victims(frame.at, &mut out);
        }
        // One pager flush and one gauge publication per popped batch:
        // page-outs reach the store in one write, and the residency
        // picture is read by the ops monitor at a 100 ms cadence.
        ws.end_batch();
    }
    let stats = ws.manager.stats();
    out.sessions.hibernated = stats.hibernated;
    out.sessions.restored = stats.restored;
    out.sessions.evicted = stats.evicted;
    out.sessions.hot_final = ws.map.len() as u64;
    out.sessions.hibernated_final = ws.manager.hibernated_count() as u64;
    out
}

/// Pumps one shard's client streams into its queue, time-major (frame
/// `i` of every client before frame `i + 1` of any), which preserves
/// each client's sequence order and interleaves clients fairly. Frames
/// are decoded through the wire codec on the way in — the replay path
/// exercises exactly the parser an ingest socket would.
/// When a recorder is attached, each frame's wire encoding is teed to
/// it before the push — so the recording channel sees frames in the
/// same per-client order the shard consumes them, which is what makes
/// a lossless recording replay byte-identically.
fn run_producer(
    queue: &ShardQueue,
    clients: &[&ClientStream],
    overflow: OverflowPolicy,
    recorder: Option<&RecorderHandle>,
    stage_sampling: u32,
) -> u64 {
    let max_frames = clients.iter().map(|s| s.n_frames).max().unwrap_or(0);
    let mut submitted = 0u64;
    let mut sampler = Sampler::every(stage_sampling);
    for i in 0..max_frames {
        for stream in clients {
            if i >= stream.n_frames {
                continue;
            }
            // The ingest wall-clock stamp (inside the ticket) feeds
            // latency telemetry only, never decisions; a sampled ticket
            // additionally carries a stage trace started at `Ingest`.
            let mut ticket = if sampler.sample() {
                Ticket::traced()
            } else {
                Ticket::untraced()
            };
            if let Some(rec) = recorder {
                rec.record_frame(stream.frame(i));
                if let Some(trace) = ticket.trace.as_mut() {
                    trace.mark(Stage::Record);
                }
            }
            queue.push(WorkItem::frame(ticket, stream.obs(i)), overflow);
            submitted += 1;
        }
    }
    queue.close();
    submitted
}

/// The decode-side half of a serving run, shared by every frontend:
/// per-shard bounded queues plus one owned worker thread each.
///
/// [`serve_streams`]' in-process producers and `mobisense-edge`'s
/// socket reactor both feed the same engine through
/// [`ShardEngine::submit`] (or by pushing to [`ShardEngine::queues`]
/// directly), so a frame ingested over a socket runs through exactly
/// the worker, session map and decision path a replayed frame does —
/// which is what makes a socket-fed decision log comparable
/// byte-for-byte to the golden in-process log.
pub struct ShardEngine {
    queues: Vec<Arc<ShardQueue>>,
    workers: Vec<std::thread::JoinHandle<WorkerResult>>,
    overflow: OverflowPolicy,
    stage_sampling: u32,
    started: Instant,
    /// Per-client shard overrides installed by [`migrate`]
    /// (`Self::migrate`); clients not present route by [`shard_of`].
    /// Read on every submit, written once per migration.
    routes: RwLock<BTreeMap<u32, usize>>,
    /// Per-shard session-residency gauges, written by each worker.
    session_gauges: Vec<Arc<SessionGauges>>,
    migrations: AtomicU64,
    /// One [`Event::SessionMigrate`] per completed migration, replayed
    /// into the report at [`finish`](Self::finish).
    migrate_log: Mutex<Vec<Event>>,
}

impl ShardEngine {
    /// Spawns `cfg.n_shards` queues and worker threads with in-memory
    /// snapshot pagers. Errs only when the OS refuses a thread.
    pub fn spawn(cfg: &ServeConfig) -> std::io::Result<ShardEngine> {
        let pagers = (0..cfg.n_shards)
            .map(|_| Box::new(MemoryPager::new()) as BoxedPager)
            .collect();
        Self::spawn_with_pagers(cfg, pagers)
    }

    /// [`ShardEngine::spawn`] with one caller-supplied
    /// [`SnapshotPager`] per shard — how the trace store's disk-backed
    /// pager slots in. `pagers.len()` must equal `cfg.n_shards`.
    pub fn spawn_with_pagers(
        cfg: &ServeConfig,
        pagers: Vec<BoxedPager>,
    ) -> std::io::Result<ShardEngine> {
        assert!(cfg.n_shards > 0, "need at least one shard");
        assert_eq!(pagers.len(), cfg.n_shards, "one pager per shard");
        #[expect(
            clippy::disallowed_methods,
            reason = "run wall clock feeds the serve report only, never decisions"
        )]
        let started = Instant::now();
        let queues: Vec<Arc<ShardQueue>> = (0..cfg.n_shards)
            .map(|_| Arc::new(ShardQueue::new(cfg.queue_capacity)))
            .collect();
        let session_gauges: Vec<Arc<SessionGauges>> = (0..cfg.n_shards)
            .map(|_| Arc::new(SessionGauges::new()))
            .collect();
        let workers = queues
            .iter()
            .zip(pagers)
            .enumerate()
            .map(|(i, (q, pager))| {
                let q = Arc::clone(q);
                let cfg = cfg.clone();
                let gauges = Arc::clone(&session_gauges[i]);
                std::thread::Builder::new()
                    .name(format!("shard-worker-{i}"))
                    .spawn(move || run_worker(&q, &cfg, i as u32, gauges, pager))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ShardEngine {
            queues,
            workers,
            overflow: cfg.overflow,
            stage_sampling: cfg.stage_sampling,
            started,
            routes: RwLock::new(BTreeMap::new()),
            session_gauges,
            migrations: AtomicU64::new(0),
            migrate_log: Mutex::new(Vec::new()),
        })
    }

    /// The engine's shard count.
    pub fn n_shards(&self) -> usize {
        self.queues.len()
    }

    /// The per-shard queues, index = shard (for frontends that pump
    /// whole per-shard batches, like the in-process producers).
    ///
    /// Note: pushing here directly bypasses any [`migrate`]
    /// (`Self::migrate`) route overrides — batch frontends that never
    /// migrate may do so; anything else should go through
    /// [`submit`](Self::submit).
    pub fn queues(&self) -> &[Arc<ShardQueue>] {
        &self.queues
    }

    /// The per-shard session-residency gauges (hot / hibernated /
    /// resident bytes / lifecycle counters), index = shard. Wrap them
    /// in a [`SessionOpsSource`] to ride the ops snapshot stream.
    pub fn session_gauges(&self) -> &[Arc<SessionGauges>] {
        &self.session_gauges
    }

    /// The shard a client's frames currently route to: the hash route,
    /// unless a migration moved it.
    pub fn route_of(&self, client_id: u32) -> usize {
        let routes = self.routes.read().unwrap_or_else(|e| e.into_inner());
        self.route_in(&routes, client_id)
    }

    /// A client's shard under an already-read `routes` table.
    fn route_in(&self, routes: &BTreeMap<u32, usize>, client_id: u32) -> usize {
        routes
            .get(&client_id)
            .copied()
            .unwrap_or_else(|| shard_of(client_id, self.queues.len()))
    }

    /// Routes one decoded frame to its shard's queue under the engine's
    /// overflow policy: the one-frame case of
    /// [`submit_batch`](Self::submit_batch). Returns the number of
    /// frames shed to make room (always 0 under
    /// [`OverflowPolicy::Block`]).
    pub fn submit(&self, ticket: Ticket, frame: ObsFrame) -> u64 {
        let shard = self.route_of(frame.client_id);
        self.queues[shard].push(WorkItem::frame(ticket, frame), self.overflow)
    }

    /// Routes a batch of decoded frames (typically one socket read's
    /// worth) with one `routes` read, then hands each shard its share
    /// as one [`ShardQueue::push_batch`]. Every frame carries a copy of
    /// `ticket`. Frames keep their relative order within a shard, so
    /// per-client order is exactly the submission order. Returns the
    /// number of frames shed to make room (always 0 under
    /// [`OverflowPolicy::Block`]).
    pub fn submit_batch<I>(&self, ticket: Ticket, frames: I) -> u64
    where
        I: IntoIterator<Item = ObsFrame>,
    {
        let mut by_shard: Vec<Vec<WorkItem>> = self.queues.iter().map(|_| Vec::new()).collect();
        {
            let routes = self.routes.read().unwrap_or_else(|e| e.into_inner());
            for frame in frames {
                let shard = self.route_in(&routes, frame.client_id);
                if let Some(items) = by_shard.get_mut(shard) {
                    items.push(WorkItem::frame(ticket, frame));
                }
            }
        }
        by_shard
            .into_iter()
            .zip(&self.queues)
            .filter(|(items, _)| !items.is_empty())
            .map(|(items, q)| q.push_batch(items, self.overflow))
            .sum()
    }

    /// Live-migrates one client's session to `to_shard`:
    /// drain → snapshot → transfer → resume. A [`WorkItem::Migrate`]
    /// marker FIFO-drains every frame already queued for the client at
    /// its current shard, the extracted parcel crosses over, a
    /// [`WorkItem::Adopt`] lands ahead of anything the new shard will
    /// receive for it, and the route flips — so the session consumes
    /// exactly the same frame sequence it would have unmigrated, and
    /// the decision log cannot diverge.
    ///
    /// Must be called from the thread that also calls
    /// [`submit`](Self::submit) (the single-submitter contract): the
    /// call blocks until the source worker hands the session over, and
    /// no frame for the client may be submitted while it is in flight.
    ///
    /// Returns the transferred snapshot size in bytes (0 when the
    /// client had no session anywhere, or was already on `to_shard`).
    pub fn migrate(&self, client_id: u32, to_shard: usize) -> std::io::Result<usize> {
        assert!(to_shard < self.queues.len(), "target shard out of range");
        let from_shard = self.route_of(client_id);
        if from_shard == to_shard {
            return Ok(0);
        }
        let (tx, rx) = mpsc::channel();
        if !self.queues[from_shard].push_control(WorkItem::Migrate {
            client_id,
            reply: tx,
        }) {
            return Err(std::io::Error::other(format!(
                "source shard {from_shard} already closed"
            )));
        }
        let parcel = rx.recv().map_err(|_| {
            std::io::Error::other(format!(
                "source shard {from_shard} worker gone before handing over client {client_id}"
            ))
        })?;
        let bytes = parcel.bytes.as_ref().map_or(0, Vec::len);
        let last_at = parcel.last_at;
        if !self.queues[to_shard].push_control(WorkItem::Adopt(Box::new(parcel))) {
            return Err(std::io::Error::other(format!(
                "target shard {to_shard} already closed"
            )));
        }
        let mut routes = self.routes.write().unwrap_or_else(|e| e.into_inner());
        routes.insert(client_id, to_shard);
        drop(routes);
        self.migrations.fetch_add(1, Ordering::Relaxed);
        let mut log = self.migrate_log.lock().unwrap_or_else(|e| e.into_inner());
        log.push(Event::SessionMigrate {
            at: last_at,
            client_id,
            from_shard: from_shard as u32,
            to_shard: to_shard as u32,
            bytes: bytes as u64,
        });
        Ok(bytes)
    }

    /// Closes every queue, joins the workers and assembles the run's
    /// merged decision log (sorted by `(client_id, seq)`) and report.
    /// `frames_in` is the frontend's count of submitted frames (shed
    /// frames included); the caller fills the report fields only it
    /// knows (snapshots, stalls, recorder counters).
    pub fn finish(self, frames_in: u64) -> (Vec<ServeDecision>, ServeReport) {
        for q in &self.queues {
            q.close();
        }
        let results: Vec<WorkerResult> = self
            .workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked")) // lint: hot-path -- shutdown join: queues are closed, workers drain and exit
            .collect();
        let mut decisions: Vec<ServeDecision> = Vec::new();
        let mut report = ServeReport {
            frames_in,
            frames_processed: 0,
            shed: 0,
            decisions: 0,
            per_mode: [0; 4],
            latency_ns: Histogram::with_buckets(SPAN_NS_BUCKETS),
            depth: Histogram::with_buckets(DEPTH_BUCKETS),
            stages: StageHistograms::new(),
            per_stage_shard: Vec::new(),
            per_shard: Vec::with_capacity(self.queues.len()),
            snapshots: Vec::new(),
            stalls: Vec::new(),
            recorder: None,
            sessions: SessionsSummary {
                migrations: self.migrations.load(Ordering::Relaxed),
                ..SessionsSummary::default()
            },
            fault_in_ns: Histogram::with_buckets(SPAN_NS_BUCKETS),
            session_events: Vec::new(),
            wall: self.started.elapsed(),
        };
        for (shard, (result, queue)) in results.iter().zip(&self.queues).enumerate() {
            report.frames_processed += result.frames;
            report.shed += queue.shed();
            report.latency_ns.merge(&result.latency_ns);
            report.depth.merge(&result.depth);
            report.sessions.hibernated += result.sessions.hibernated;
            report.sessions.restored += result.sessions.restored;
            report.sessions.evicted += result.sessions.evicted;
            report.sessions.hot_final += result.sessions.hot_final;
            report.sessions.hibernated_final += result.sessions.hibernated_final;
            report.fault_in_ns.merge(&result.fault_in_ns);
            report
                .session_events
                .extend(result.session_events.iter().cloned());
            if self.stage_sampling > 0 {
                report.stages.merge(&result.stages);
                report.per_stage_shard.push(result.stages.clone());
            }
            report.per_shard.push(ShardSummary {
                shard: shard as u32,
                frames: result.frames,
                decisions: result.decisions.len() as u64,
                shed: queue.shed(),
                max_depth: queue.max_depth() as u64,
                last_at: result.last_at,
            });
            decisions.extend_from_slice(&result.decisions);
        }
        let migrate_events = self
            .migrate_log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        report.session_events.extend(migrate_events);
        decisions.sort_by_key(|d| (d.client_id, d.seq));
        report.decisions = decisions.len() as u64;
        for d in &decisions {
            report.per_mode[mode_index(d.classification.mode)] += 1;
        }
        (decisions, report)
    }
}

/// Emits the standard end-of-run telemetry for a serve report: one
/// [`Event::ServeShard`] per shard, one [`Event::Snapshot`] per ops
/// tick, one [`Event::Stall`] per watchdog flag, and the `serve.run`
/// wall-clock span. Shared by the in-process service and the socket
/// edge so both run shapes trace identically.
pub fn emit_report_events<S: Sink + ?Sized>(
    report: &ServeReport,
    ops_meta: &[SnapshotMeta],
    sink: &mut S,
) {
    if !sink.enabled() {
        return;
    }
    for s in &report.per_shard {
        sink.record(Event::ServeShard {
            at: s.last_at,
            shard: s.shard,
            frames: s.frames,
            decisions: s.decisions,
            shed: s.shed,
            max_depth: s.max_depth,
        });
    }
    // Ops events are wall-clock phenomena with no sim timestamp;
    // `at` is 0 by convention (documented on the variants).
    for m in ops_meta {
        sink.record(Event::Snapshot {
            at: 0,
            seq: m.seq,
            metrics: m.metrics,
            bytes: m.bytes,
        });
    }
    for stall in &report.stalls {
        sink.record(Event::Stall {
            at: 0,
            source: stall.source.clone(),
            intervals: stall.intervals,
            backlog: stall.backlog,
        });
    }
    // Session lifecycle events were buffered per worker during the run
    // (workers own no sink); replay them now, in shard order then
    // migrations.
    for event in &report.session_events {
        sink.record(event.clone());
    }
    sink.span_ns("serve.run", report.wall.as_nanos() as u64);
}

/// Serves a whole fleet: spawns one producer and one worker per shard,
/// waits for every stream to drain, and returns the merged decision log
/// (sorted by client id, then sequence) plus the run report.
///
/// Telemetry lands in `sink` after the threads join: one
/// [`Event::ServeShard`] per shard and a `serve.run` wall-clock span.
pub fn serve_fleet<S: Sink + ?Sized>(
    cfg: &ServeConfig,
    fleet: &EncodedFleet,
    sink: &mut S,
) -> (Vec<ServeDecision>, ServeReport) {
    serve_streams(cfg, &fleet.streams, sink)
}

/// Serves a bare set of client streams — the entry point replay takes
/// when streams were rebuilt from a recorded trace rather than
/// generated as a fleet. [`serve_fleet`] is this with a fleet's
/// streams; the determinism contract is identical.
pub fn serve_streams<S: Sink + ?Sized>(
    cfg: &ServeConfig,
    streams: &[ClientStream],
    sink: &mut S,
) -> (Vec<ServeDecision>, ServeReport) {
    serve_streams_inner(cfg, streams, None, sink)
}

/// [`serve_streams`] with the flight recorder attached: every frame's
/// wire encoding is teed onto `recorder`'s channel as its producer
/// submits it, and after the run the golden decision log (every CSV
/// line of [`decision_log_csv`], header included — matching the
/// store's `record_fleet` layout) is appended as decision rows.
///
/// Under [`crate::recording::RecordPolicy::Block`] the recording is
/// lossless, so replaying the resulting store reproduces this run's
/// decision log byte-for-byte; under `DropNewest` serving never waits
/// on the recorder and the drop counter says what the trace is
/// missing. Emits one [`Event::ServeRecorder`] with the channel
/// counters alongside the usual per-shard events.
pub fn serve_streams_recorded<S: Sink + ?Sized>(
    cfg: &ServeConfig,
    streams: &[ClientStream],
    recorder: &RecorderHandle,
    sink: &mut S,
) -> (Vec<ServeDecision>, ServeReport) {
    let (decisions, mut report) = serve_streams_inner(cfg, streams, Some(recorder), sink);
    for line in decision_log_csv(&decisions).lines() {
        recorder.record_row(line);
    }
    report.recorder = Some(recorder.stats());
    if sink.enabled() {
        let stats = recorder.stats();
        let at = report
            .per_shard
            .iter()
            .map(|s| s.last_at)
            .max()
            .unwrap_or(0);
        sink.record(Event::ServeRecorder {
            at,
            frames: stats.frames,
            rows: stats.rows,
            dropped: stats.dropped,
            max_depth: stats.max_depth,
        });
    }
    (decisions, report)
}

fn serve_streams_inner<S: Sink + ?Sized>(
    cfg: &ServeConfig,
    streams: &[ClientStream],
    recorder: Option<&RecorderHandle>,
    sink: &mut S,
) -> (Vec<ServeDecision>, ServeReport) {
    let engine = ShardEngine::spawn(cfg).expect("shard workers spawn");
    let mut by_shard: Vec<Vec<&ClientStream>> = vec![Vec::new(); cfg.n_shards];
    for stream in streams {
        by_shard[shard_of(stream.client_id, cfg.n_shards)].push(stream);
    }

    // The ops monitor observes the run from outside the frame path; it
    // is spawned before the workers and stopped (with one final tick)
    // after they drain, so its snapshots bracket the whole run.
    let monitor = cfg.snapshot.map(|policy| {
        let sessions = SessionOpsSource::new(engine.session_gauges().to_vec());
        OpsMonitor::spawn_with_sources(
            engine.queues().to_vec(),
            recorder.cloned(),
            vec![Box::new(sessions)],
            policy,
        )
        .expect("ops monitor spawn")
    });

    let mut frames_in = 0u64;
    std::thread::scope(|scope| {
        let producers: Vec<_> = engine
            .queues()
            .iter()
            .zip(&by_shard)
            .map(|(q, clients)| {
                let q = Arc::clone(q);
                let clients: &[&ClientStream] = clients;
                scope.spawn(move || {
                    run_producer(&q, clients, cfg.overflow, recorder, cfg.stage_sampling)
                })
            })
            .collect();
        for p in producers {
            frames_in += p.join().expect("producer panicked");
        }
    });
    let (decisions, mut report) = engine.finish(frames_in);
    let ops: OpsOutcome = monitor.map(OpsMonitor::stop).unwrap_or_default();
    report.snapshots = ops.snapshots;
    report.stalls = ops.stalls;
    report.recorder = recorder.map(RecorderHandle::stats);

    emit_report_events(&report, &ops.meta, sink);
    (decisions, report)
}

/// Renders a decision log as canonical CSV — the byte string the
/// determinism tests compare across shard counts.
pub fn decision_log_csv(decisions: &[ServeDecision]) -> String {
    let mut out = String::from(
        "client_id,seq,at_ns,mode,direction,roam,probe_ns,retries,agg_ns,bf_ns,mu_ns\n",
    );
    for d in decisions {
        let dir = match d.classification.direction {
            Some(Direction::Towards) => "towards",
            Some(Direction::Away) => "away",
            None => "-",
        };
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            d.client_id,
            d.seq,
            d.at,
            d.classification.mode.label(),
            dir,
            u8::from(d.policy.encourage_roaming),
            d.policy.probe_interval,
            d.policy.rate_retries,
            d.policy.aggregation_limit,
            d.policy.bf_feedback_period,
            d.policy.mu_mimo_feedback_period,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;
    use mobisense_util::units::{MILLISECOND, SECOND};

    fn small_fleet() -> EncodedFleet {
        EncodedFleet::generate(&FleetConfig {
            n_clients: 8,
            duration: 9 * SECOND,
            step: 50 * MILLISECOND,
            base_seed: 11,
            gen_threads: 2,
            ..FleetConfig::default()
        })
    }

    #[test]
    fn serves_every_frame_and_emits_decisions() {
        let fleet = small_fleet();
        let cfg = ServeConfig::default();
        let (decisions, report) = serve_fleet(&cfg, &fleet, &mut NoopSink);
        assert_eq!(report.frames_in, fleet.total_frames());
        assert_eq!(report.frames_processed, fleet.total_frames());
        assert_eq!(report.shed, 0, "blocking mode never sheds");
        assert!(!decisions.is_empty(), "fleet produced no decisions");
        assert_eq!(report.decisions as usize, decisions.len());
        assert_eq!(report.per_mode.iter().sum::<u64>(), report.decisions);
        // Every client settles into at least one post-warm-up state.
        let clients: std::collections::BTreeSet<u32> =
            decisions.iter().map(|d| d.client_id).collect();
        assert_eq!(clients.len(), 8, "all clients decided: {clients:?}");
        // Decision latency was measured for at least every emitted one.
        assert!(report.latency_ns.count() >= report.decisions);
        assert_eq!(report.depth.count(), report.frames_processed);
    }

    #[test]
    fn decision_log_is_shard_count_invariant() {
        let fleet = small_fleet();
        let mut logs = Vec::new();
        for n_shards in [1usize, 2, 8] {
            let cfg = ServeConfig {
                n_shards,
                ..ServeConfig::default()
            };
            let (decisions, report) = serve_fleet(&cfg, &fleet, &mut NoopSink);
            assert_eq!(report.per_shard.len(), n_shards);
            logs.push(decision_log_csv(&decisions));
        }
        assert_eq!(logs[0], logs[1], "1 vs 2 shards");
        assert_eq!(logs[0], logs[2], "1 vs 8 shards");
    }

    #[test]
    fn sorted_log_and_policies_are_consistent() {
        let fleet = small_fleet();
        let (decisions, _) = serve_fleet(&ServeConfig::default(), &fleet, &mut NoopSink);
        assert!(
            decisions
                .windows(2)
                .all(|w| (w[0].client_id, w[0].seq) < (w[1].client_id, w[1].seq)),
            "log sorted by (client, seq)"
        );
        for d in &decisions {
            assert!(d.at >= PipelineConfig::default().warmup);
            assert_eq!(
                d.policy,
                MobilityPolicy::for_classification(d.classification)
            );
        }
        // Consecutive decisions of one client differ (transitions only).
        for w in decisions.windows(2) {
            if w[0].client_id == w[1].client_id {
                assert_ne!(w[0].classification, w[1].classification);
            }
        }
    }

    #[test]
    fn shard_events_and_span_reach_the_sink() {
        let fleet = small_fleet();
        let mut tel = mobisense_telemetry::Telemetry::new();
        let cfg = ServeConfig {
            n_shards: 2,
            ..ServeConfig::default()
        };
        let (_, report) = serve_fleet(&cfg, &fleet, &mut tel);
        let shard_events: Vec<_> = tel
            .events()
            .filter(|e| matches!(e, Event::ServeShard { .. }))
            .collect();
        assert_eq!(shard_events.len(), 2);
        let total: u64 = report.per_shard.iter().map(|s| s.frames).sum();
        assert_eq!(total, report.frames_processed);
        let (count, mean_ns) = tel
            .registry
            .histogram_snapshot("serve.run")
            .expect("span recorded");
        assert_eq!(count, 1);
        assert!(mean_ns > 0.0);
    }

    #[test]
    fn overload_sheds_and_conserves_frames() {
        let fleet = small_fleet();
        // A tiny queue under an 8-client burst: whatever the scheduler
        // does, frame conservation must hold exactly.
        let cfg = ServeConfig {
            n_shards: 1,
            queue_capacity: 4,
            overflow: OverflowPolicy::ShedOldestPerClient,
            ..ServeConfig::default()
        };
        let (_, report) = serve_fleet(&cfg, &fleet, &mut NoopSink);
        assert_eq!(
            report.frames_in,
            report.frames_processed + report.shed,
            "every submitted frame is processed or shed"
        );
        assert!(report.shed_rate() <= 1.0);
    }

    #[test]
    fn stage_tracing_changes_no_decision_and_fills_histograms() {
        let fleet = small_fleet();
        let plain = ServeConfig::default();
        let traced = ServeConfig {
            stage_sampling: 4,
            ..ServeConfig::default()
        };
        let (d_plain, r_plain) = serve_fleet(&plain, &fleet, &mut NoopSink);
        let (d_traced, r_traced) = serve_fleet(&traced, &fleet, &mut NoopSink);
        // Tracing is telemetry-only: the decision log stays byte-identical.
        assert_eq!(
            decision_log_csv(&d_plain),
            decision_log_csv(&d_traced),
            "tracing must not perturb decisions"
        );
        assert_eq!(r_plain.stages.traces(), 0);
        let expected = fleet.total_frames() / 4;
        let traces = r_traced.stages.traces();
        // Each producer samples every 4th of its own submissions, so
        // the total is within one frame per producer of the ideal.
        assert!(
            traces >= expected.saturating_sub(traced.n_shards as u64) && traces <= expected + 1,
            "sampled ~1 in 4: {traces} vs {expected}"
        );
        assert_eq!(r_traced.per_stage_shard.len(), traced.n_shards);
        // Every traced frame passed enqueue, dequeue, classify, decide.
        for stage in [
            Stage::Enqueue,
            Stage::Dequeue,
            Stage::Classify,
            Stage::Decide,
        ] {
            assert_eq!(r_traced.stages.get(stage).count(), traces, "{stage:?}");
        }
        // No recorder attached, so the record stage never fired.
        assert_eq!(r_traced.stages.get(Stage::Record).count(), 0);
    }

    #[test]
    fn snapshot_monitor_reports_and_emits_events() {
        let fleet = small_fleet();
        let mut tel = mobisense_telemetry::Telemetry::new();
        let cfg = ServeConfig {
            stage_sampling: 8,
            snapshot: Some(SnapshotPolicy {
                interval: std::time::Duration::from_millis(5),
                stall_intervals: 2,
            }),
            ..ServeConfig::default()
        };
        let (_, report) = serve_fleet(&cfg, &fleet, &mut tel);
        // The monitor's final tick guarantees at least one snapshot
        // even on a fast run.
        assert!(!report.snapshots.is_empty());
        let snaps = mobisense_telemetry::parse_snapshots(&report.snapshots.concat())
            .expect("snapshots parse");
        assert_eq!(snaps.len(), report.snapshots.len());
        let snap_events = tel
            .events()
            .filter(|e| matches!(e, Event::Snapshot { .. }))
            .count();
        assert_eq!(snap_events, report.snapshots.len());
        // A healthy drain never stalls.
        assert!(report.stalls.is_empty(), "stalls: {:?}", report.stalls);
        assert!(!tel.events().any(|e| matches!(e, Event::Stall { .. })));
        // The report assembles into a registry with the stage hists.
        let reg = report.registry();
        assert_eq!(
            reg.counter_value("serve.frames_processed"),
            Some(report.frames_processed)
        );
        assert!(reg.histogram_snapshot("stage.total").is_some());
    }

    #[test]
    fn hibernation_is_invisible_in_the_decision_log() {
        let fleet = small_fleet();
        let base = ServeConfig::default();
        // An aggressively small idle threshold + hot-set cap: with the
        // time-major pump every client thrashes through hibernate /
        // fault-in constantly, the worst case for the invariant.
        let hib = ServeConfig {
            hibernation: HibernationConfig {
                idle_after: Some(25 * MILLISECOND),
                max_hot: Some(2),
                policy: RetirePolicy::Hibernate,
            },
            session_events: true,
            ..ServeConfig::default()
        };
        let (d_base, r_base) = serve_fleet(&base, &fleet, &mut NoopSink);
        let (d_hib, r_hib) = serve_fleet(&hib, &fleet, &mut NoopSink);
        assert_eq!(
            decision_log_csv(&d_base),
            decision_log_csv(&d_hib),
            "hibernate → restore must be invisible in the decision log"
        );
        // Hibernation off: no lifecycle transitions, all 8 resident.
        assert_eq!(
            r_base.sessions,
            SessionsSummary {
                hot_final: 8,
                ..SessionsSummary::default()
            }
        );
        assert!(r_hib.sessions.hibernated > 0, "{:?}", r_hib.sessions);
        assert!(r_hib.sessions.restored > 0);
        assert_eq!(r_hib.sessions.evicted, 0);
        assert_eq!(r_hib.fault_in_ns.count(), r_hib.sessions.restored);
        assert_eq!(
            r_hib
                .session_events
                .iter()
                .filter(|e| matches!(e, Event::SessionHibernate { .. }))
                .count() as u64,
            r_hib.sessions.hibernated
        );
        assert_eq!(
            r_hib
                .session_events
                .iter()
                .filter(|e| matches!(e, Event::SessionRestore { .. }))
                .count() as u64,
            r_hib.sessions.restored
        );
        // Every client ends the run either resident or paged out.
        assert_eq!(
            r_hib.sessions.hot_final + r_hib.sessions.hibernated_final,
            8
        );
        // The registry carries the lifecycle counters.
        let reg = r_hib.registry();
        assert_eq!(
            reg.counter_value("serve.sessions.hibernates"),
            Some(r_hib.sessions.hibernated)
        );
        assert!(reg
            .histogram_snapshot("serve.sessions.fault_in_ns")
            .is_some());
    }

    #[test]
    fn idle_eviction_hook_drops_sessions_without_snapshots() {
        let fleet = small_fleet();
        let cfg = ServeConfig {
            hibernation: HibernationConfig {
                idle_after: Some(25 * MILLISECOND),
                max_hot: None,
                policy: RetirePolicy::Evict,
            },
            ..ServeConfig::default()
        };
        let (_, report) = serve_fleet(&cfg, &fleet, &mut NoopSink);
        assert!(report.sessions.evicted > 0);
        assert_eq!(report.sessions.hibernated, 0);
        assert_eq!(report.sessions.restored, 0);
        assert_eq!(report.sessions.hibernated_final, 0);
    }

    #[test]
    fn live_migration_preserves_decisions_and_conserves_frames() {
        let fleet = small_fleet();
        let (golden, _) = serve_fleet(&ServeConfig::default(), &fleet, &mut NoopSink);

        // A manual single-submitter frontend (the contract migrate()
        // requires), moving one client to the other shard mid-stream.
        let cfg = ServeConfig::default();
        let engine = ShardEngine::spawn(&cfg).expect("engine spawns");
        let max_frames = fleet.streams.iter().map(|s| s.n_frames).max().unwrap_or(0);
        let mut frames = Vec::new();
        for i in 0..max_frames {
            for s in &fleet.streams {
                if i < s.n_frames {
                    frames.push(s.obs(i));
                }
            }
        }
        let victim = fleet.streams[0].client_id;
        let mid = frames.len() / 2;
        let mut submitted = 0u64;
        for (k, frame) in frames.into_iter().enumerate() {
            if k == mid {
                let from = engine.route_of(victim);
                let to = (from + 1) % engine.n_shards();
                let bytes = engine.migrate(victim, to).expect("migration completes");
                assert!(bytes > 0, "mid-run session has state to move");
                assert_eq!(engine.route_of(victim), to);
                // Migrating to the current shard is a free no-op.
                assert_eq!(engine.migrate(victim, to).expect("no-op"), 0);
            }
            engine.submit(Ticket::untraced(), frame);
            submitted += 1;
        }
        let (decisions, report) = engine.finish(submitted);
        assert_eq!(
            decision_log_csv(&decisions),
            decision_log_csv(&golden),
            "migration must be invisible in the decision log"
        );
        assert_eq!(report.sessions.migrations, 1);
        assert_eq!(report.frames_in, report.frames_processed + report.shed);
        assert!(report
            .session_events
            .iter()
            .any(|e| matches!(e, Event::SessionMigrate { .. })));
        let reg = report.registry();
        assert_eq!(reg.counter_value("serve.sessions.migrations"), Some(1));
    }

    #[test]
    fn csv_log_has_header_and_one_row_per_decision() {
        let fleet = small_fleet();
        let (decisions, _) = serve_fleet(&ServeConfig::default(), &fleet, &mut NoopSink);
        let csv = decision_log_csv(&decisions);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), decisions.len() + 1);
        assert!(lines[0].starts_with("client_id,seq,at_ns,mode"));
        assert!(lines[1].split(',').count() == 11);
    }
}
