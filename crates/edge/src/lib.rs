//! mobisense-edge: the socket ingestion frontend for the serve layer.
//!
//! [`mobisense_serve`] classifies fleets whose frames already sit in
//! memory; a deployment's frames arrive over the network. This crate is
//! that network edge, built entirely on `std`:
//!
//! * [`conn`] — [`FrameAssembler`], incremental length-framing over a
//!   growable per-connection buffer: arbitrary read fragmentation
//!   (1-byte reads up to whole-stream) yields exactly the frames a
//!   whole-buffer [`mobisense_serve::wire::decode_stream_lossy`] pass
//!   would, including single-byte-skip resynchronization after
//!   corruption;
//! * [`poll`] — the readiness seam: a [`Poller`] backs the reactor's
//!   level-triggered sweep loop; the shipped [`IdlePark`] implementation
//!   parks for `EdgeConfig::idle_park` on the first sweep that finds
//!   nothing to do (the workspace forbids `unsafe`, so a raw `poll(2)`
//!   cannot be issued — the trait is where a platform poller would slot
//!   in);
//! * [`reactor`] — [`Edge`]: a single-threaded, poll-based reactor over
//!   a nonblocking `TcpListener` plus `UdpSocket`, handing each read's
//!   decoded frames as one batch into the serve layer's
//!   hash(client id) → shard queues ([`mobisense_serve::ShardEngine`])
//!   under the queue's explicit backpressure policies, with the flight
//!   recorder teed the batch's exact wire bytes as one message.
//!
//! The edge extends the serve determinism contract to the socket path:
//! TCP preserves per-connection byte order, one client per connection
//! preserves per-client frame order, and under blocking backpressure
//! the merged decision log sorted by `(client_id, seq)` is therefore
//! bit-identical to an in-process [`mobisense_serve::serve_streams`]
//! run of the same streams — and a recorded socket session replays
//! byte-identically through the trace store. Frame conservation is
//! explicit: every frame decoded off the wire is processed, shed, or
//! rejected, never silently lost (`accepted == processed + shed +
//! rejected`, see [`EdgeReport::conserved`]).

#![warn(missing_docs)]
// Error swallowing (DESIGN §5.10): a discarded result states why.
#![cfg_attr(not(test), deny(clippy::let_underscore_untyped))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok))]

pub mod conn;
pub mod poll;
pub mod reactor;

pub use conn::FrameAssembler;
pub use poll::{IdlePark, Poller};
pub use reactor::{
    send_datagrams_udp, send_streams_tcp, serve_sockets, serve_sockets_recorded, ConnOutcome,
    ConnSummary, Edge, EdgeConfig, EdgeReport, EdgeStats,
};
