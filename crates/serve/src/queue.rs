//! Bounded per-shard ingest queues with explicit overflow policy.
//!
//! `std::sync::mpsc` offers bounded channels, but its only overflow
//! behaviours are "block" and "fail"; the serving layer also needs
//! **drop-oldest-per-client** shedding (an overloaded controller serves
//! every client its freshest frame rather than a backlog of stale
//! ones). So the queue is hand-rolled: a `Mutex<VecDeque>` with two
//! condvars, one item type, no unsafe.
//!
//! The serve layer has exactly two locks. A worker never takes the
//! recorder channel lock while holding its shard-queue lock-order
//! position's guard (it pops, drops the guard, then records), but the
//! declared order below documents the intent and lets the analyzer
//! reject a future declaration that contradicts it.

// Panic discipline (DESIGN §5.10): a frame-path panic kills a worker.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::string_slice))]

// lock-order: serve.shard-queue < serve.recorder-channel

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use mobisense_telemetry::{Stage, StageTrace};
use mobisense_util::units::Nanos;

use crate::wire::ObsFrame;

/// What a producer does when a shard's queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Block the producer until the worker drains a slot
    /// (backpressure). Lossless: every submitted frame is processed,
    /// which is what makes the merged decision log independent of the
    /// shard count.
    Block,
    /// Shed load: evict the oldest queued frame of the same client (or
    /// the oldest frame overall when that client has nothing queued)
    /// and enqueue the new one. Lossy and timing-dependent — the shed
    /// counter records every eviction.
    ShedOldestPerClient,
}

/// Per-frame bookkeeping riding alongside an enqueued observation: the
/// ingest wall-clock instant (decision-latency telemetry) plus an
/// optional sampled [`StageTrace`] (per-stage latency telemetry).
#[derive(Clone, Copy, Debug)]
pub struct Ticket {
    /// When the producer materialized the frame.
    pub ingested: Instant,
    /// The sampled stage trace, `None` for the untraced majority.
    pub trace: Option<StageTrace>,
}

impl Ticket {
    /// A plain ticket: ingest stamp only, no stage trace.
    pub fn untraced() -> Self {
        Ticket {
            ingested: Instant::now(),
            trace: None,
        }
    }

    /// A ticket carrying a stage trace started at `Ingest`. One clock
    /// read serves both the ingest stamp and the trace origin, so the
    /// traced path pays no extra read here and the trace origin *is*
    /// the latency epoch.
    pub fn traced() -> Self {
        let now = Instant::now();
        Ticket {
            ingested: now,
            trace: Some(StageTrace::start_at(now)),
        }
    }
}

/// A migrating client's session in transit between two shard workers:
/// the encoded [`SessionSnapshot`] bytes (codec-sealed, so transfer
/// corruption is detected at adoption) plus the bookkeeping the target
/// needs to resume exactly where the source stopped.
///
/// [`SessionSnapshot`]: mobisense_session::SessionSnapshot
#[derive(Clone, Debug)]
pub struct MigrateParcel {
    /// The migrating client.
    pub client_id: u32,
    /// Encoded snapshot bytes, or `None` when the source worker had no
    /// live or hibernated session for the client (the target starts a
    /// fresh session on the client's next frame, exactly as the source
    /// would have).
    pub bytes: Option<Vec<u8>>,
    /// The client's last sim-clock activity at the source (0 when
    /// unknown), so the target's hibernation LRU resumes accurately.
    pub last_at: Nanos,
}

/// One unit of work on a shard queue: the overwhelmingly common decoded
/// observation frame, or a rare control item steering a live session
/// migration. Control items ride the same FIFO as frames so their
/// ordering relative to the frame stream is exact — a `Migrate` marker
/// drains every frame enqueued before it, and an `Adopt` precedes every
/// frame routed to the target after the move.
#[derive(Debug)]
pub enum WorkItem {
    /// One decoded observation frame with its [`Ticket`].
    Frame(Ticket, ObsFrame),
    /// Drain marker: the worker snapshots (or pages in) `client_id`'s
    /// session, forgets it, and sends the parcel back through `reply`.
    Migrate {
        /// The client to extract.
        client_id: u32,
        /// Where the source worker sends the drained parcel.
        reply: mpsc::Sender<MigrateParcel>,
    },
    /// Adoption: the worker restores the parcel's session into its own
    /// client map before processing any frame behind this item.
    Adopt(Box<MigrateParcel>),
}

impl WorkItem {
    /// Wraps a ticketed frame (the shape every frontend submits).
    pub fn frame(ticket: Ticket, frame: ObsFrame) -> Self {
        WorkItem::Frame(ticket, frame)
    }

    /// Whether this is an observation frame (control items are exempt
    /// from capacity accounting and shedding).
    pub fn is_frame(&self) -> bool {
        matches!(self, WorkItem::Frame(..))
    }
}

/// One enqueued work item.
pub type QueueItem = WorkItem;

#[derive(Debug, Default)]
struct Inner {
    q: VecDeque<QueueItem>,
    closed: bool,
    shed: u64,
    popped: u64,
    max_depth: usize,
    /// Deepest occupancy since the last [`ShardQueue::take_high_water`]
    /// read (the ops monitor's between-ticks peak detector).
    high_water: usize,
    /// Workers parked on `not_empty`.
    parked_consumers: usize,
    /// Producers parked on `not_full`.
    parked_producers: usize,
}

/// A bounded FIFO between ingest producers and one shard worker.
///
/// Both directions move batches: [`push_batch`](Self::push_batch)
/// enqueues a whole read's frames under one lock, and
/// [`pop_batch`](Self::pop_batch) drains the backlog under one lock.
/// A side that parks registers itself under the mutex, and the other
/// side signals only when someone is registered: an unconditional
/// `Condvar::notify_*` costs a futex syscall even with no waiter, an
/// order of magnitude more than the lock itself.
#[derive(Debug)]
pub struct ShardQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl ShardQueue {
    /// Creates a queue holding at most `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        ShardQueue {
            inner: Mutex::new(Inner {
                q: VecDeque::with_capacity(capacity),
                ..Inner::default()
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Locks the queue state, recovering a poisoned guard. Poisoning
    /// here only means some peer panicked *while holding the lock*;
    /// every critical section in this module either leaves the
    /// `VecDeque` consistent or is a pure read, so read-side callers
    /// (`shed`, `max_depth`, `close`) must not cascade one worker's
    /// panic into unrelated producers.
    fn lock_recovered(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues one item under the given overflow policy: the one-item
    /// case of [`push_batch`](Self::push_batch). Returns the number of
    /// frames shed to make room (always 0 under
    /// [`OverflowPolicy::Block`]).
    pub fn push(&self, item: QueueItem, policy: OverflowPolicy) -> u64 {
        self.enqueue(std::iter::once(item), policy).0
    }

    /// Enqueues `items` in order under one lock acquisition and one
    /// consumer wake-up (plus one per backpressure park under
    /// [`OverflowPolicy::Block`]). Each frame obeys the overflow policy on
    /// its own, exactly as if pushed alone; control items
    /// ([`WorkItem::Migrate`] / [`WorkItem::Adopt`]) keep their FIFO
    /// position among the frames. Returns the number of frames shed to
    /// make room (always 0 under [`OverflowPolicy::Block`]).
    ///
    /// Pushing to a closed queue drops the items silently; the service
    /// only closes queues after every producer has finished.
    pub fn push_batch<I>(&self, items: I, policy: OverflowPolicy) -> u64
    where
        I: IntoIterator<Item = QueueItem>,
    {
        self.enqueue(items, policy).0
    }

    /// Enqueues a control item ([`WorkItem::Migrate`] /
    /// [`WorkItem::Adopt`]), bypassing capacity accounting entirely —
    /// equivalent to `push` but named so call sites read as what they
    /// are. Returns `true` if the item was enqueued, `false` if the
    /// queue was already closed (the engine treats that as "shard gone",
    /// not an error).
    pub fn push_control(&self, item: QueueItem) -> bool {
        self.enqueue(std::iter::once(item), OverflowPolicy::Block).1
    }

    /// The one locked enqueue path. Returns the frames shed and whether
    /// every item was enqueued (`false` once the queue is closed).
    ///
    /// The frame paths (`enqueue`/`pop_batch`) deliberately keep the
    /// loud `expect`: if a peer died mid-mutation the FIFO's contents
    /// can no longer be trusted, and silently serving a maybe-reordered
    /// or maybe-truncated stream would break the determinism contract.
    /// Failing the whole run is the correct outcome there.
    fn enqueue<I>(&self, items: I, policy: OverflowPolicy) -> (u64, bool)
    where
        I: IntoIterator<Item = QueueItem>,
    {
        #[expect(
            clippy::expect_used,
            reason = "frame path: a poisoned FIFO cannot be trusted, fail the run"
        )]
        // lint: poison-loud -- frame path: a poisoned FIFO cannot be trusted, fail the run
        let mut inner = self.inner.lock().expect("queue poisoned");
        let mut shed = 0u64;
        let mut pushed = false;
        for mut item in items {
            match (&item, policy) {
                // Control items never wait and never shed: a `Migrate`
                // marker that blocked behind its own shard's backlog
                // while the submit frontend waits on the reply would
                // deadlock the engine, and shedding one would silently
                // lose a session. They are rare (one per migration), so
                // the transient one-over-capacity occupancy is harmless.
                (WorkItem::Migrate { .. } | WorkItem::Adopt(_), _) => {}
                (WorkItem::Frame(..), OverflowPolicy::Block) => {
                    while inner.q.len() >= self.capacity && !inner.closed {
                        // The worker may be parked from before this
                        // batch started; it must see what the batch
                        // already queued before this producer parks.
                        if inner.parked_consumers > 0 {
                            self.not_empty.notify_one();
                        }
                        inner.parked_producers += 1;
                        #[expect(clippy::expect_used, reason = "fail fast on poison")]
                        {
                            // lint: hot-path -- Block backpressure parks the producer until the worker drains (woken by pop_batch/close)
                            inner = self.not_full.wait(inner).expect("queue poisoned");
                        }
                        inner.parked_producers -= 1;
                    }
                }
                (WorkItem::Frame(_, new), OverflowPolicy::ShedOldestPerClient) => {
                    if inner.q.len() >= self.capacity {
                        let client = new.client_id;
                        // Only frames are sheddable; control items must
                        // survive overload, so the eviction scan skips
                        // them.
                        let same_client = inner.q.iter().position(
                            |it| matches!(it, WorkItem::Frame(_, f) if f.client_id == client),
                        );
                        let victim =
                            same_client.or_else(|| inner.q.iter().position(WorkItem::is_frame));
                        if let Some(i) = victim {
                            inner.q.remove(i);
                            shed += 1;
                            inner.shed += 1;
                        }
                    }
                }
            }
            if inner.closed {
                break;
            }
            // Stamped after any backpressure wait, immediately before
            // insertion, so the dequeue delta is pure queue residency.
            if let WorkItem::Frame(ticket, _) = &mut item {
                if let Some(trace) = ticket.trace.as_mut() {
                    trace.mark(Stage::Enqueue);
                }
            }
            inner.q.push_back(item);
            inner.max_depth = inner.max_depth.max(inner.q.len());
            inner.high_water = inner.high_water.max(inner.q.len());
            pushed = true;
        }
        let open = !inner.closed;
        let wake = pushed && inner.parked_consumers > 0;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
        (shed, open)
    }

    /// Dequeues the backlog — at most `capacity` items, oldest first —
    /// into `batch` (cleared first), blocking while the queue is open
    /// and empty. Each item comes with the queue depth *before its own
    /// pop* (for depth telemetry), exactly what popping the items one
    /// at a time would have reported. Returns `false`, with `batch`
    /// empty, once the queue is closed and drained.
    pub fn pop_batch(&self, batch: &mut Vec<(QueueItem, usize)>) -> bool {
        batch.clear();
        #[expect(
            clippy::expect_used,
            reason = "frame path: a poisoned FIFO cannot be trusted, fail the run"
        )]
        // lint: poison-loud -- frame path: a poisoned FIFO cannot be trusted, fail the run
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            let depth = inner.q.len();
            if depth > 0 {
                let take = depth.min(self.capacity);
                batch.extend(
                    inner
                        .q
                        .drain(..take)
                        .enumerate()
                        .map(|(i, it)| (it, depth - i)),
                );
                inner.popped += take as u64;
                let wake = inner.parked_producers > 0;
                drop(inner);
                if wake {
                    self.not_full.notify_all();
                }
                return true;
            }
            if inner.closed {
                return false;
            }
            inner.parked_consumers += 1;
            #[expect(clippy::expect_used, reason = "fail fast on poison")]
            {
                // lint: hot-path -- the worker idles here until a producer enqueues (woken by enqueue/close)
                inner = self.not_empty.wait(inner).expect("queue poisoned");
            }
            inner.parked_consumers -= 1;
        }
    }

    /// Closes the queue: blocked producers unblock, and the worker sees
    /// `None` once the backlog drains.
    pub fn close(&self) {
        let mut inner = self.lock_recovered();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Frames shed by this queue so far.
    pub fn shed(&self) -> u64 {
        self.lock_recovered().shed
    }

    /// Deepest occupancy the queue has reached.
    pub fn max_depth(&self) -> usize {
        self.lock_recovered().max_depth
    }

    /// Current occupancy (frames queued right now).
    pub fn depth(&self) -> usize {
        self.lock_recovered().q.len()
    }

    /// Frames dequeued by the worker so far (the watchdog's progress
    /// counter).
    pub fn popped(&self) -> u64 {
        self.lock_recovered().popped
    }

    /// Deepest occupancy since the previous call, then resets the
    /// window to the *current* occupancy — so transient overload peaks
    /// between two reads are never lost the way a plain depth gauge
    /// loses them.
    pub fn take_high_water(&self) -> usize {
        let mut inner = self.lock_recovered();
        let hw = inner.high_water;
        inner.high_water = inner.q.len();
        hw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(client_id: u32, seq: u32) -> ObsFrame {
        ObsFrame {
            client_id,
            seq,
            at: seq as u64,
            distance_m: 1.0,
            digest: vec![1.0; 4],
        }
    }

    fn item(client_id: u32, seq: u32) -> QueueItem {
        WorkItem::frame(Ticket::untraced(), frame(client_id, seq))
    }

    /// Pops batches until the queue is closed and drained.
    fn drain(q: &ShardQueue) -> Vec<QueueItem> {
        let mut batch = Vec::new();
        let mut got = Vec::new();
        while q.pop_batch(&mut batch) {
            got.extend(batch.drain(..).map(|(it, _)| it));
        }
        got
    }

    /// Pops one batch, which must hold exactly one item.
    fn pop_one(q: &ShardQueue) -> (QueueItem, usize) {
        let mut batch = Vec::new();
        assert!(q.pop_batch(&mut batch), "queue open or non-empty");
        assert_eq!(batch.len(), 1);
        batch.pop().expect("one item")
    }

    /// Drains the queue, asserting every item is a frame.
    fn drain_frames(q: &ShardQueue) -> Vec<(u32, u32)> {
        drain(q)
            .into_iter()
            .map(|it| match it {
                WorkItem::Frame(_, f) => (f.client_id, f.seq),
                other => panic!("expected frame, got {other:?}"),
            })
            .collect()
    }

    /// A compact label for order assertions.
    fn label(it: &QueueItem) -> String {
        match it {
            WorkItem::Frame(_, f) => format!("frame:{}:{}", f.client_id, f.seq),
            WorkItem::Migrate { client_id, .. } => format!("migrate:{client_id}"),
            WorkItem::Adopt(p) => format!("adopt:{}", p.client_id),
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let q = ShardQueue::new(8);
        for seq in 0..5 {
            q.push(item(1, seq), OverflowPolicy::Block);
        }
        q.close();
        let seqs: Vec<u32> = drain_frames(&q).into_iter().map(|(_, s)| s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shed_evicts_oldest_of_same_client() {
        let q = ShardQueue::new(3);
        q.push(item(1, 0), OverflowPolicy::ShedOldestPerClient);
        q.push(item(2, 0), OverflowPolicy::ShedOldestPerClient);
        q.push(item(1, 1), OverflowPolicy::ShedOldestPerClient);
        // Full; pushing client 1 again evicts its seq 0, not client 2.
        assert_eq!(q.push(item(1, 2), OverflowPolicy::ShedOldestPerClient), 1);
        q.close();
        assert_eq!(drain_frames(&q), vec![(2, 0), (1, 1), (1, 2)]);
        assert_eq!(q.shed(), 1);
    }

    #[test]
    fn shed_falls_back_to_global_oldest() {
        let q = ShardQueue::new(2);
        q.push(item(1, 0), OverflowPolicy::ShedOldestPerClient);
        q.push(item(2, 0), OverflowPolicy::ShedOldestPerClient);
        // Client 3 has nothing queued: the global oldest (1, 0) goes.
        q.push(item(3, 0), OverflowPolicy::ShedOldestPerClient);
        q.close();
        let clients: Vec<u32> = drain_frames(&q).into_iter().map(|(c, _)| c).collect();
        assert_eq!(clients, vec![2, 3]);
    }

    #[test]
    fn control_items_bypass_capacity_and_survive_shedding() {
        let q = ShardQueue::new(2);
        q.push(item(1, 0), OverflowPolicy::ShedOldestPerClient);
        // A control item enqueues even at capacity, without shedding.
        q.push(item(2, 0), OverflowPolicy::ShedOldestPerClient);
        let (tx, _rx) = mpsc::channel();
        assert!(q.push_control(WorkItem::Migrate {
            client_id: 9,
            reply: tx,
        }));
        assert_eq!(q.depth(), 3, "control item rode over capacity");
        assert_eq!(q.shed(), 0);
        // A frame push at capacity sheds a *frame*, never the marker —
        // client 3 has nothing queued, so the global-oldest frame goes.
        q.push(item(3, 0), OverflowPolicy::ShedOldestPerClient);
        q.close();
        let kinds: Vec<String> = drain(&q).iter().map(label).collect();
        assert_eq!(kinds, vec!["frame:2:0", "migrate:9", "frame:3:0"]);
        assert_eq!(q.shed(), 1);
    }

    #[test]
    fn push_control_to_closed_queue_reports_shard_gone() {
        let q = ShardQueue::new(2);
        q.close();
        assert!(!q.push_control(WorkItem::Adopt(Box::new(MigrateParcel {
            client_id: 1,
            bytes: None,
            last_at: 0,
        }))));
    }

    #[test]
    fn close_unblocks_empty_pop() {
        let q = std::sync::Arc::new(ShardQueue::new(1));
        let q2 = q.clone();
        let h = std::thread::spawn(move || {
            let mut batch = Vec::new();
            (q2.pop_batch(&mut batch), batch.len())
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(h.join().expect("no panic"), (false, 0));
    }

    #[test]
    fn stat_reads_survive_a_poisoned_lock() {
        let q = std::sync::Arc::new(ShardQueue::new(2));
        q.push(item(1, 0), OverflowPolicy::Block);
        let q2 = q.clone();
        // A worker dying while holding the lock poisons the mutex...
        let worker = std::thread::spawn(move || {
            let _guard = q2.inner.lock().expect("first locker");
            panic!("worker died holding the queue lock");
        });
        assert!(worker.join().is_err(), "worker panicked as arranged");
        // ...but stat reads and close still work for everyone else,
        assert_eq!(q.shed(), 0);
        assert_eq!(q.max_depth(), 1);
        q.close();
        // while the frame path stays loud by design: a FIFO whose
        // mutation was interrupted can no longer be trusted.
        let q3 = q.clone();
        let popper = std::thread::spawn(move || q3.pop_batch(&mut Vec::new()));
        assert!(popper.join().is_err(), "pop fails fast on poison");
    }

    #[test]
    fn high_water_window_keeps_peaks_and_resets() {
        let q = ShardQueue::new(8);
        for seq in 0..6 {
            q.push(item(1, seq), OverflowPolicy::Block);
        }
        let mut batch = Vec::new();
        assert!(q.pop_batch(&mut batch));
        assert_eq!(batch.len(), 6);
        assert_eq!(q.depth(), 0);
        assert_eq!(q.popped(), 6);
        // The drained queue still reports the peak once...
        assert_eq!(q.take_high_water(), 6);
        // ...then the window resets to the current occupancy.
        assert_eq!(q.take_high_water(), 0);
        q.push(item(1, 6), OverflowPolicy::Block);
        assert_eq!(q.take_high_water(), 1);
        // All-time max_depth is unaffected by window reads.
        assert_eq!(q.max_depth(), 6);
    }

    #[test]
    fn enqueue_stage_is_stamped_on_traced_items() {
        let q = ShardQueue::new(4);
        q.push(
            WorkItem::frame(Ticket::traced(), frame(1, 0)),
            OverflowPolicy::Block,
        );
        q.close();
        let (it, _) = pop_one(&q);
        let WorkItem::Frame(ticket, _) = it else {
            panic!("expected frame");
        };
        let trace = ticket.trace.expect("traced ticket");
        assert!(trace.is_marked(Stage::Enqueue));
        assert!(!trace.is_marked(Stage::Dequeue), "worker marks dequeue");
    }

    #[test]
    fn blocking_push_waits_for_capacity() {
        let q = std::sync::Arc::new(ShardQueue::new(1));
        q.push(item(1, 0), OverflowPolicy::Block);
        let q2 = q.clone();
        let h = std::thread::spawn(move || {
            q2.push(item(1, 1), OverflowPolicy::Block);
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        // The producer is parked; draining one slot lets it through.
        let (it, depth) = pop_one(&q);
        let WorkItem::Frame(_, f) = it else {
            panic!("expected frame");
        };
        assert_eq!((f.seq, depth), (0, 1));
        h.join().expect("producer finished");
        let (it, _) = pop_one(&q);
        let WorkItem::Frame(_, f) = it else {
            panic!("expected frame");
        };
        assert_eq!(f.seq, 1);
        assert_eq!(q.shed(), 0);
        assert_eq!(q.max_depth(), 1);
    }

    #[test]
    fn pop_batch_reports_per_item_depth_and_respects_capacity() {
        let q = ShardQueue::new(4);
        q.push_batch((0..3).map(|seq| item(1, seq)), OverflowPolicy::Block);
        let mut batch = Vec::new();
        assert!(q.pop_batch(&mut batch));
        let depths: Vec<usize> = batch.iter().map(|(_, d)| *d).collect();
        assert_eq!(depths, vec![3, 2, 1], "depth before each item's own pop");
        // Control items ride over capacity; one pop still takes at most
        // `capacity` items, and the rest report their own depths next.
        q.push_batch((3..7).map(|seq| item(1, seq)), OverflowPolicy::Block);
        let (tx, _rx) = mpsc::channel();
        assert!(q.push_control(WorkItem::Migrate {
            client_id: 1,
            reply: tx,
        }));
        assert!(q.pop_batch(&mut batch));
        let depths: Vec<usize> = batch.iter().map(|(_, d)| *d).collect();
        assert_eq!(depths, vec![5, 4, 3, 2]);
        assert!(q.pop_batch(&mut batch));
        assert_eq!(batch.len(), 1);
        assert_eq!(
            batch.first().map(|(it, d)| (label(it), *d)),
            Some(("migrate:1".into(), 1))
        );
        assert_eq!(q.popped(), 8);
    }

    #[test]
    fn control_items_keep_their_fifo_position_inside_a_batch() {
        for policy in [OverflowPolicy::Block, OverflowPolicy::ShedOldestPerClient] {
            let (tx, _rx) = mpsc::channel();
            let batch = [
                item(1, 0),
                WorkItem::Migrate {
                    client_id: 1,
                    reply: tx,
                },
                item(2, 0),
                WorkItem::Adopt(Box::new(MigrateParcel {
                    client_id: 7,
                    bytes: None,
                    last_at: 0,
                })),
                item(7, 0),
            ];
            let q = ShardQueue::new(8);
            q.push_batch(batch, policy);
            q.close();
            let order: Vec<String> = drain(&q).iter().map(label).collect();
            assert_eq!(
                order,
                vec![
                    "frame:1:0",
                    "migrate:1",
                    "frame:2:0",
                    "adopt:7",
                    "frame:7:0"
                ]
            );
        }
        // Shedding mid-batch evicts frames only: the marker survives a
        // batch that overflows a two-slot queue three times over.
        let q = ShardQueue::new(2);
        let (tx, _rx) = mpsc::channel();
        let batch = vec![
            item(1, 0),
            WorkItem::Migrate {
                client_id: 1,
                reply: tx,
            },
            item(1, 1),
            item(1, 2),
            item(1, 3),
        ];
        assert_eq!(q.push_batch(batch, OverflowPolicy::ShedOldestPerClient), 3);
        q.close();
        let order: Vec<String> = drain(&q).iter().map(label).collect();
        assert_eq!(order, vec!["migrate:1", "frame:1:3"]);
    }

    /// Runs `body` on a helper thread and fails the test if it has not
    /// finished within `secs` seconds — a lost wake-up then fails
    /// instead of hanging the suite.
    fn within<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(body());
        });
        rx.recv_timeout(std::time::Duration::from_secs(secs))
            .expect("stress run timed out: lost wake-up")
    }

    /// A producer pushing random-size batches against a consumer
    /// popping batches, on a tiny queue: every frame arrives once, in
    /// order (Block), or is counted shed (shedding).
    fn stress(capacity: usize, policy: OverflowPolicy, seed: u64) -> (u64, u64, u64) {
        const ROUNDS: u32 = 3000;
        let q = std::sync::Arc::new(ShardQueue::new(capacity));
        let qc = std::sync::Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut batch = Vec::new();
            let (mut popped, mut last) = (0u64, None::<u32>);
            while qc.pop_batch(&mut batch) {
                assert!(batch.len() <= capacity);
                for (it, _) in batch.drain(..) {
                    let WorkItem::Frame(_, f) = it else {
                        panic!("only frames were pushed");
                    };
                    assert!(last < Some(f.seq), "FIFO order broken");
                    last = Some(f.seq);
                    popped += 1;
                }
            }
            popped
        });
        let mut rng = mobisense_util::DetRng::seed_from_u64(seed);
        let (mut pushed, mut shed, mut seq) = (0u64, 0u64, 0u32);
        for _ in 0..ROUNDS {
            let n = 1 + rng.index(2 * capacity + 2);
            shed += q.push_batch((seq..seq + n as u32).map(|s| item(s % 5, s)), policy);
            seq += n as u32;
            pushed += n as u64;
        }
        q.close();
        let popped = consumer.join().expect("consumer");
        assert_eq!(q.shed(), shed);
        (pushed, popped, shed)
    }

    #[test]
    fn batched_block_stress_is_lossless_and_ordered() {
        for capacity in 1..=4 {
            let (pushed, popped, shed) = within(60, move || {
                stress(capacity, OverflowPolicy::Block, capacity as u64)
            });
            assert_eq!((popped, shed), (pushed, 0), "capacity {capacity}");
        }
    }

    #[test]
    fn batched_shedding_conserves_frames() {
        for capacity in 1..=4 {
            let (pushed, popped, shed) = within(60, move || {
                stress(
                    capacity,
                    OverflowPolicy::ShedOldestPerClient,
                    10 + capacity as u64,
                )
            });
            assert_eq!(pushed, popped + shed, "capacity {capacity}");
        }
    }
}
