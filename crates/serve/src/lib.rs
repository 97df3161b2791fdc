//! mobisense-serve: the controller-side serving layer.
//!
//! Everything below this crate classifies **one** link; a deployment
//! classifies every associated client of every AP. This crate is that
//! scale-up, built entirely on `std`:
//!
//! * [`wire`] — a hand-rolled versioned binary codec for observation
//!   frames (CSI magnitude digest + ToF distance input), with a total
//!   round-trip parser;
//! * [`queue`] — bounded per-shard ingest queues with two explicit
//!   overflow policies: blocking backpressure or oldest-per-client load
//!   shedding;
//! * [`service`] — client-sharded workers (hash(client id) → shard,
//!   one `std::thread` each) running one
//!   [`PipelineSession`](mobisense_core::pipeline::PipelineSession) per
//!   client and emitting a Table-2 policy update on every post-warm-up
//!   mobility transition;
//! * [`fleet`] — deterministic synthetic fleets: thousands of encoded
//!   client streams generated from `mobisense-core` ground-truth
//!   scenarios;
//! * [`recording`] — the always-on flight recorder: a bounded channel
//!   plus a dedicated writer thread teeing every served frame (and the
//!   golden decision log) into a [`RecordBackend`] — in production the
//!   trace store — without disk latency on the frame path;
//! * [`ops`] — live operational monitoring: a background ticker
//!   snapshotting queue / recorder health as versioned JSONL
//!   ([`mobisense_telemetry::snapshot`]) and a stall watchdog flagging
//!   sources that stop making progress while work is pending;
//! * [`sessions`] — session-residency telemetry: per-shard gauge
//!   blocks (hot / hibernated / resident bytes) the workers publish
//!   and the ops monitor rides, backing `mobisense-session`'s
//!   hibernation of idle sessions and live shard rebalancing
//!   ([`ShardEngine::migrate`](service::ShardEngine::migrate)).
//!
//! The headline property is the **determinism contract**: under
//! blocking backpressure the merged decision log, sorted by
//! `(client_id, seq)`, is bit-identical whatever the shard count —
//! replaying an incident trace on a laptop with 2 shards reproduces
//! exactly what a 32-shard controller decided in production. See
//! `DESIGN.md` section 5.7 for how this coexists with the workspace's
//! single-threaded-determinism rule.

#![warn(missing_docs)]
// Error swallowing (DESIGN §5.10): a discarded result states why.
#![cfg_attr(not(test), deny(clippy::let_underscore_untyped))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok))]

pub mod fleet;
pub mod ops;
pub mod queue;
pub mod recording;
pub mod routing;
pub mod service;
pub mod sessions;
pub mod wire;

pub use fleet::{ClientStream, EncodedFleet, FleetConfig};
pub use ops::{
    OpsMonitor, OpsOutcome, OpsSource, SnapshotMeta, SnapshotPolicy, StallDetector, StallFlag,
};
pub use queue::{MigrateParcel, OverflowPolicy, ShardQueue, Ticket, WorkItem};
pub use recording::{
    RecordBackend, RecordPolicy, Recorder, RecorderHandle, RecorderStats, RecordingConfig,
};
pub use routing::{mix64, shard_of};
pub use service::{
    decision_log_csv, emit_report_events, serve_fleet, serve_streams, serve_streams_recorded,
    BoxedPager, ServeConfig, ServeDecision, ServeReport, SessionsSummary, ShardEngine,
    ShardSummary,
};
pub use sessions::{SessionGauges, SessionOpsSource};
pub use wire::{decode_stream, decode_stream_lossy, FrameMeta, ObsFrame, WireError};
