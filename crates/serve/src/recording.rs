//! The always-on flight recorder: a background recording channel
//! between the serving hot path and a durable trace backend.
//!
//! Production serving must not pay disk latency on the frame path, so
//! recording is asynchronous: producers hand encoded frames (and,
//! after the run, decision-log rows) to a bounded channel via a cheap
//! [`RecorderHandle`], and one dedicated thread drains the channel
//! into a [`RecordBackend`] — in practice `mobisense-store`'s
//! `TraceWriter`, but the trait keeps this crate free of a dependency
//! cycle (the store crate depends on this one, not vice versa).
//!
//! Overflow is an explicit policy, mirroring the ingest queues:
//!
//! * [`RecordPolicy::Block`] — lossless. Producers wait for channel
//!   space, so the store holds **every** served frame and a replay of
//!   it reproduces the live decision log byte-for-byte. Recording
//!   backpressure can slow serving, which the bench measures.
//! * [`RecordPolicy::DropNewest`] — bounded overhead. A full channel
//!   drops the incoming frame (or the whole incoming batch) and counts
//!   every frame of it; serving never waits on the recorder, but the
//!   trace is a sample, not a replayable whole.
//!
//! A producer may hand over a whole batch of frames (one socket read)
//! as one message, [`RecorderHandle::record_frames`]; capacity and depth
//! still count frames.
//!
//! Decision rows always block: they are appended once, after the
//! run, and losing one would silently corrupt the golden log.

// Panic discipline (DESIGN §5.10): a frame-path panic kills a worker.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::string_slice))]

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// What a producer does when the recording channel is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordPolicy {
    /// Wait for the recorder thread to drain a slot (lossless; the
    /// recorded trace replays byte-identically).
    Block,
    /// Drop the incoming frame and count it (bounded overhead; the
    /// trace becomes a sample).
    DropNewest,
}

/// Configuration of the recording channel.
#[derive(Clone, Copy, Debug)]
pub struct RecordingConfig {
    /// Channel capacity, counted in frames (a decision row counts as
    /// one), however the frames are batched into messages. A batch
    /// larger than the whole capacity is still admitted into an empty
    /// channel, so occupancy never exceeds `max(capacity, batch)`.
    pub capacity: usize,
    /// Overflow policy for observation frames.
    pub policy: RecordPolicy,
}

impl Default for RecordingConfig {
    fn default() -> Self {
        RecordingConfig {
            capacity: 4096,
            policy: RecordPolicy::Block,
        }
    }
}

/// Where recorded bytes go. Implemented by `mobisense-store`'s
/// `TraceWriter` (sealed rotating segments); tests use in-memory
/// backends.
pub trait RecordBackend: Send {
    /// What [`finish`](RecordBackend::finish) yields (e.g. a write
    /// summary).
    type Output: Send;

    /// Persists one wire-encoded observation frame.
    fn record_frame(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Persists one decision-log row (no trailing newline).
    fn record_row(&mut self, row: &str) -> io::Result<()>;

    /// The channel just drained; flush buffered bytes so live tail
    /// readers can see them. Called between bursts, never per record.
    fn idle(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Finalizes the backend (seal segments, close files).
    fn finish(self) -> io::Result<Self::Output>;
}

/// Counters of one recording run, readable at any time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Observation frames accepted onto the channel.
    pub frames: u64,
    /// Decision rows accepted onto the channel.
    pub rows: u64,
    /// Records dropped: refused by [`RecordPolicy::DropNewest`],
    /// offered after a backend failure closed the channel, or accepted
    /// but never written because the backend failed first.
    pub dropped: u64,
    /// Deepest channel occupancy observed, in frames (a decision row
    /// counts as one).
    pub max_depth: u64,
    /// Records the recorder thread has handed to the backend — the
    /// stall watchdog's progress counter for the recorder.
    pub drained: u64,
}

/// One channel message. A producer's whole batch of frames (one socket
/// read, say) travels as one message, so the channel lock, the copy
/// and any wake-up are paid per batch, not per frame.
enum Msg {
    /// Frames laid end to end in `bytes`; frame `i` ends at `ends[i]`
    /// and starts where frame `i - 1` ended.
    Frames {
        bytes: Vec<u8>,
        ends: Vec<usize>,
    },
    Row(String),
}

impl Msg {
    /// Records in the message: what capacity and depth count.
    fn records(&self) -> usize {
        match self {
            Msg::Frames { ends, .. } => ends.len(),
            Msg::Row(_) => 1,
        }
    }
}

fn records_in(msgs: &VecDeque<Msg>) -> u64 {
    msgs.iter().map(|m| m.records() as u64).sum()
}

#[derive(Default)]
struct ChannelInner {
    q: VecDeque<Msg>,
    /// Records queued across `q` (the capacity unit).
    queued: usize,
    closed: bool,
    /// Whether the recorder thread is parked on `not_empty`.
    consumer_parked: bool,
    /// Producers parked on `not_full`.
    parked_producers: usize,
}

/// The bounded MPSC channel between producers and the recorder thread.
/// Counters live outside the mutex so [`RecorderHandle::stats`] never
/// contends with the hot path. Each side signals the other only when
/// it is registered as parked: an unconditional `Condvar::notify_*`
/// costs a futex syscall even with nobody waiting.
struct Channel {
    inner: Mutex<ChannelInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    frames: AtomicU64,
    rows: AtomicU64,
    dropped: AtomicU64,
    max_depth: AtomicU64,
    drained: AtomicU64,
}

impl Channel {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "recording channel capacity must be non-zero");
        Channel {
            inner: Mutex::new(ChannelInner::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            frames: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// Enqueues one message. Returns `false` when the message was
    /// dropped (DropNewest overflow, or the channel closed because the
    /// backend failed); every record in it then counts as dropped.
    /// `block` forces the lossless path regardless of the frame policy
    /// (decision rows use this).
    fn push(&self, msg: Msg, policy: RecordPolicy, block: bool) -> bool {
        let n = msg.records();
        let fits = |inner: &ChannelInner| inner.queued == 0 || inner.queued + n <= self.capacity;
        let mut inner = self.lock_recovered();
        if !block && policy == RecordPolicy::DropNewest && !fits(&inner) {
            self.dropped.fetch_add(n as u64, Ordering::Relaxed);
            return false;
        }
        while !fits(&inner) && !inner.closed {
            inner.parked_producers += 1;
            // lint: hot-path -- lossless-policy backpressure: the producer parks until the backend drains (woken by pop_all/close)
            inner = self.not_full.wait(inner).unwrap_or_else(|e| e.into_inner());
            inner.parked_producers -= 1;
        }
        if inner.closed {
            self.dropped.fetch_add(n as u64, Ordering::Relaxed);
            return false;
        }
        inner.q.push_back(msg);
        inner.queued += n;
        self.max_depth
            .fetch_max(inner.queued as u64, Ordering::Relaxed);
        let wake = inner.consumer_parked;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
        true
    }

    /// Swaps the whole backlog into `backlog` (which must be empty),
    /// calling `on_idle` once whenever the channel is found empty while
    /// still open (so the backend can flush between bursts). Returns
    /// `false` once closed and drained.
    fn pop_all(&self, backlog: &mut VecDeque<Msg>, on_idle: &mut dyn FnMut()) -> bool {
        let mut idled = false;
        let mut inner = self.lock_recovered();
        loop {
            if !inner.q.is_empty() {
                std::mem::swap(&mut inner.q, backlog);
                inner.queued = 0;
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
            if !idled {
                // Flush outside the lock: producers keep enqueueing.
                drop(inner);
                on_idle();
                idled = true;
                inner = self.lock_recovered();
                continue;
            }
            inner.consumer_parked = true;
            inner = self
                .not_empty
                .wait(inner) // lint: hot-path -- drain loop idles until a producer enqueues (woken by push/close)
                .unwrap_or_else(|e| e.into_inner());
            inner.consumer_parked = false;
        }
    }

    fn close(&self) {
        let mut inner = self.lock_recovered();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Closes *and* discards the backlog — the backend died, so queued
    /// records can never be written; leaving them would park blocking
    /// producers forever.
    fn poison(&self) {
        let mut inner = self.lock_recovered();
        inner.closed = true;
        self.dropped
            .fetch_add(records_in(&inner.q), Ordering::Relaxed);
        inner.q.clear();
        inner.queued = 0;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Locks the channel, recovering from poisoning: the recorder
    /// thread holds this lock only around queue ops that cannot leave
    /// the queue malformed, so a panicking peer must not cascade.
    fn lock_recovered(&self) -> std::sync::MutexGuard<'_, ChannelInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The cheap, cloneable producer side of the recording channel.
/// [`serve_streams_recorded`](crate::service::serve_streams_recorded)
/// takes one of these; every producer thread records through it.
#[derive(Clone)]
pub struct RecorderHandle {
    chan: Arc<Channel>,
    policy: RecordPolicy,
}

impl RecorderHandle {
    /// Submits one wire-encoded observation frame: the one-frame case
    /// of [`record_frames`](Self::record_frames). Returns `false` when
    /// the frame was dropped (overflow under
    /// [`RecordPolicy::DropNewest`], or backend failure).
    pub fn record_frame(&self, bytes: &[u8]) -> bool {
        self.record_frames(bytes, &[bytes.len()])
    }

    /// Submits a batch of wire-encoded observation frames laid end to
    /// end in `bytes`, frame `i` ending at offset `ends[i]`, as one
    /// channel message. The batch is accepted or dropped whole: under
    /// [`RecordPolicy::DropNewest`] a batch that does not fit is
    /// refused and every frame in it counts as dropped. Returns `false`
    /// when the batch was dropped, or when `ends` is not a
    /// non-decreasing list of offsets within `bytes` (nothing is
    /// recorded then).
    pub fn record_frames(&self, bytes: &[u8], ends: &[usize]) -> bool {
        let mut prev = 0;
        let well_formed = ends.iter().all(|&end| {
            let ok = prev <= end && end <= bytes.len();
            prev = end;
            ok
        });
        if !well_formed {
            return false;
        }
        let msg = Msg::Frames {
            bytes: bytes.get(..prev).unwrap_or_default().to_vec(),
            ends: ends.to_vec(),
        };
        let ok = self.chan.push(msg, self.policy, false);
        if ok {
            self.chan
                .frames
                .fetch_add(ends.len() as u64, Ordering::Relaxed);
        }
        ok
    }

    /// Submits one decision-log row. Always lossless (blocks on a full
    /// channel): rows are the golden log, and there are few of them.
    pub fn record_row(&self, row: &str) -> bool {
        let ok = self.chan.push(Msg::Row(row.to_owned()), self.policy, true);
        if ok {
            self.chan.rows.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// A point-in-time snapshot of the run's counters (lock-free; never
    /// contends with the hot path).
    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            frames: self.chan.frames.load(Ordering::Relaxed),
            rows: self.chan.rows.load(Ordering::Relaxed),
            dropped: self.chan.dropped.load(Ordering::Relaxed),
            max_depth: self.chan.max_depth.load(Ordering::Relaxed),
            drained: self.chan.drained.load(Ordering::Relaxed),
        }
    }

    /// Current channel occupancy in frames — the recorder backlog
    /// gauge. Takes the channel lock, so it belongs on monitoring
    /// paths, not the frame path.
    pub fn depth(&self) -> usize {
        self.chan.lock_recovered().queued
    }
}

/// A running background recorder: the channel plus the thread draining
/// it into a backend. Create with [`Recorder::spawn`], pass
/// [`Recorder::handle`] clones to the service, then
/// [`Recorder::finish`] to seal and join.
pub struct Recorder<B: RecordBackend + 'static> {
    handle: RecorderHandle,
    /// `Some` until `finish` (or drop) joins the thread.
    thread: Option<JoinHandle<io::Result<B::Output>>>,
}

impl<B: RecordBackend + 'static> Recorder<B> {
    /// Spawns the recorder thread over `backend`. Errs when the OS
    /// refuses the thread.
    pub fn spawn(backend: B, cfg: RecordingConfig) -> io::Result<Recorder<B>> {
        let chan = Arc::new(Channel::new(cfg.capacity));
        let thread_chan = Arc::clone(&chan);
        let thread = std::thread::Builder::new()
            .name("flight-recorder".into())
            .spawn(move || run_backend(backend, &thread_chan))?;
        Ok(Recorder {
            handle: RecorderHandle {
                chan,
                policy: cfg.policy,
            },
            thread: Some(thread),
        })
    }

    /// The producer-side handle (clone freely; all clones feed the
    /// same channel).
    pub fn handle(&self) -> RecorderHandle {
        self.handle.clone()
    }

    /// Closes the channel, waits for the backlog to drain and the
    /// backend to finalize, and returns the backend's output plus the
    /// run's final counters.
    pub fn finish(mut self) -> io::Result<(B::Output, RecorderStats)> {
        self.handle.chan.close();
        let out = match self.thread.take() {
            Some(thread) => thread
                .join() // lint: hot-path -- shutdown: the channel is closed, so the backend drains its backlog and exits
                .unwrap_or_else(|_| Err(io::Error::other("recorder thread panicked")))?,
            None => return Err(io::Error::other("recorder already joined")),
        };
        Ok((out, self.handle.stats()))
    }
}

impl<B: RecordBackend + 'static> Drop for Recorder<B> {
    /// A recorder dropped without [`Recorder::finish`] closes the
    /// channel — waking any producer parked on a full queue, whose
    /// pending message is counted dropped — and joins the thread, so
    /// dropping can never deadlock producers. The backend's output and
    /// any backend error are discarded; call `finish` to observe them.
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.chan.close();
            #[expect(
                clippy::let_underscore_untyped,
                clippy::let_underscore_must_use,
                reason = "Drop cannot surface backend output or a panic; finish() is the observing path"
            )]
            let _ = thread.join();
        }
    }
}

fn run_backend<B: RecordBackend>(mut backend: B, chan: &Channel) -> io::Result<B::Output> {
    let mut backlog = VecDeque::new();
    let failure = loop {
        let mut idle_err = None;
        let open = chan.pop_all(&mut backlog, &mut || {
            if let Err(e) = backend.idle() {
                idle_err = Some(e);
            }
        });
        if let Some(e) = idle_err {
            break (e, 0);
        }
        if !open {
            return backend.finish();
        }
        if let Err(failed) = write_backlog(&mut backend, &mut backlog, chan) {
            break failed;
        }
    };
    // The failed record, the rest of its message and the rest of the
    // backlog in hand were accepted but will never be written: count
    // them dropped, then unblock producers before surfacing the
    // failure (their records count as dropped from here on).
    let (err, unwritten) = failure;
    chan.dropped
        .fetch_add(unwritten + records_in(&backlog), Ordering::Relaxed);
    chan.poison();
    Err(err)
}

/// Hands every message of `backlog` to the backend, oldest first.
/// On a backend error returns it together with the number of records
/// of the failing message left unwritten (the failed one included);
/// the messages after it stay in `backlog`.
fn write_backlog<B: RecordBackend>(
    backend: &mut B,
    backlog: &mut VecDeque<Msg>,
    chan: &Channel,
) -> Result<(), (io::Error, u64)> {
    while let Some(msg) = backlog.pop_front() {
        let n = msg.records() as u64;
        match msg {
            Msg::Frames { bytes, ends } => {
                let mut start = 0;
                for (i, &end) in ends.iter().enumerate() {
                    let frame = bytes.get(start..end).unwrap_or_default();
                    if let Err(e) = backend.record_frame(frame) {
                        return Err((e, (ends.len() - i) as u64));
                    }
                    start = end;
                }
            }
            Msg::Row(row) => {
                if let Err(e) = backend.record_row(&row) {
                    return Err((e, 1));
                }
            }
        }
        chan.drained.fetch_add(n, Ordering::Relaxed);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Collects everything in memory; optionally fails after N frames.
    /// `written` counts frames written, readable after a failed finish.
    struct MemBackend {
        frames: Vec<Vec<u8>>,
        rows: Vec<String>,
        idles: u64,
        fail_after: Option<usize>,
        written: Arc<AtomicU64>,
    }

    impl MemBackend {
        fn new() -> Self {
            MemBackend {
                frames: Vec::new(),
                rows: Vec::new(),
                idles: 0,
                fail_after: None,
                written: Arc::new(AtomicU64::new(0)),
            }
        }
    }

    impl RecordBackend for MemBackend {
        type Output = (Vec<Vec<u8>>, Vec<String>, u64);

        fn record_frame(&mut self, bytes: &[u8]) -> io::Result<()> {
            if self.fail_after.is_some_and(|n| self.frames.len() >= n) {
                return Err(io::Error::other("backend full"));
            }
            self.frames.push(bytes.to_vec());
            self.written.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }

        fn record_row(&mut self, row: &str) -> io::Result<()> {
            self.rows.push(row.to_owned());
            Ok(())
        }

        fn idle(&mut self) -> io::Result<()> {
            self.idles += 1;
            Ok(())
        }

        fn finish(self) -> io::Result<Self::Output> {
            Ok((self.frames, self.rows, self.idles))
        }
    }

    #[test]
    fn block_policy_is_lossless_and_ordered() {
        let rec = Recorder::spawn(
            MemBackend::new(),
            RecordingConfig {
                capacity: 4,
                policy: RecordPolicy::Block,
            },
        )
        .expect("spawn");
        let h = rec.handle();
        for i in 0..100u8 {
            assert!(h.record_frame(&[i, i.wrapping_mul(3)]));
        }
        assert!(h.record_row("0,done"));
        let ((frames, rows, idles), stats) = rec.finish().expect("finish");
        assert_eq!(frames.len(), 100);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.as_slice(), &[i as u8, (i as u8).wrapping_mul(3)]);
        }
        assert_eq!(rows, vec!["0,done"]);
        assert_eq!(stats.frames, 100);
        assert_eq!(stats.rows, 1);
        assert_eq!(stats.dropped, 0);
        assert!(stats.max_depth >= 1 && stats.max_depth <= 4);
        assert!(idles >= 1, "idle flush ran at least once");
    }

    #[test]
    fn drop_newest_bounds_the_queue_and_counts() {
        // A backend that blocks until released, so the channel must
        // fill and the policy must engage deterministically.
        struct Gated(Arc<AtomicBool>, Vec<Vec<u8>>);
        impl RecordBackend for Gated {
            type Output = usize;
            fn record_frame(&mut self, bytes: &[u8]) -> io::Result<()> {
                while !self.0.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                self.1.push(bytes.to_vec());
                Ok(())
            }
            fn record_row(&mut self, _row: &str) -> io::Result<()> {
                Ok(())
            }
            fn finish(self) -> io::Result<usize> {
                Ok(self.1.len())
            }
        }
        let gate = Arc::new(AtomicBool::new(false));
        let rec = Recorder::spawn(
            Gated(Arc::clone(&gate), Vec::new()),
            RecordingConfig {
                capacity: 8,
                policy: RecordPolicy::DropNewest,
            },
        )
        .expect("spawn");
        let h = rec.handle();
        let mut accepted = 0u64;
        for i in 0..1000u32 {
            if h.record_frame(&i.to_le_bytes()) {
                accepted += 1;
            }
        }
        gate.store(true, Ordering::Release);
        let (written, stats) = rec.finish().expect("finish");
        assert_eq!(stats.frames, accepted);
        assert_eq!(stats.frames + stats.dropped, 1000);
        assert!(stats.dropped > 0, "tiny gated channel must drop");
        assert!(stats.max_depth <= 8);
        // Everything accepted was written (conservation).
        assert_eq!(written as u64, accepted);
    }

    #[test]
    fn backend_failure_poisons_without_deadlock() {
        let mut backend = MemBackend::new();
        backend.fail_after = Some(3);
        let written = Arc::clone(&backend.written);
        let rec = Recorder::spawn(
            backend,
            RecordingConfig {
                capacity: 2,
                policy: RecordPolicy::Block,
            },
        )
        .expect("spawn");
        let h = rec.handle();
        // Far more frames than the backend accepts: blocking pushes
        // must not hang once the backend dies.
        let mut all_accepted = true;
        for i in 0..64u8 {
            all_accepted &= h.record_frame(&[i]);
        }
        assert!(!all_accepted, "pushes after the failure are refused");
        let err = rec.finish().expect_err("backend failed");
        assert!(err.to_string().contains("backend full"));
        let stats = h.stats();
        assert!(stats.dropped > 0);
        // Every offered frame was written or counted dropped — the one
        // the backend failed on included.
        assert_eq!(written.load(Ordering::Relaxed), 3);
        assert_eq!(written.load(Ordering::Relaxed) + stats.dropped, 64);
    }

    #[test]
    fn backend_failure_mid_batch_drops_the_rest_of_the_backlog() {
        let mut backend = MemBackend::new();
        backend.fail_after = Some(5);
        let written = Arc::clone(&backend.written);
        let rec = Recorder::spawn(
            backend,
            RecordingConfig {
                capacity: 64,
                policy: RecordPolicy::Block,
            },
        )
        .expect("spawn");
        let h = rec.handle();
        let bytes: Vec<u8> = (0..8u8).collect();
        let ends: Vec<usize> = (1..=8).collect();
        let mut offered = 0u64;
        for _ in 0..8 {
            h.record_frames(&bytes, &ends);
            offered += 8;
        }
        assert!(rec.finish().is_err());
        let stats = h.stats();
        assert_eq!(written.load(Ordering::Relaxed), 5);
        assert_eq!(written.load(Ordering::Relaxed) + stats.dropped, offered);
    }

    #[test]
    fn batches_arrive_as_frames_in_order() {
        let rec = Recorder::spawn(
            MemBackend::new(),
            RecordingConfig {
                capacity: 4,
                policy: RecordPolicy::Block,
            },
        )
        .expect("spawn");
        let h = rec.handle();
        // Three frames of lengths 1, 0 and 2 in one message, then a
        // batch bigger than the whole capacity (admitted into an empty
        // channel), then malformed offsets (refused, nothing recorded).
        assert!(h.record_frames(&[1, 2, 3], &[1, 1, 3]));
        assert!(h.record_frames(&[9; 6], &[1, 2, 3, 4, 5, 6]));
        assert!(!h.record_frames(&[1, 2], &[2, 1]));
        assert!(!h.record_frames(&[1, 2], &[3]));
        let ((frames, _, _), stats) = rec.finish().expect("finish");
        assert_eq!(frames.len(), 9);
        assert_eq!(&frames[..3], &[vec![1], vec![], vec![2, 3]]);
        assert!(frames[3..].iter().all(|f| f == &[9]));
        assert_eq!((stats.frames, stats.drained, stats.dropped), (9, 9, 0));
        assert!(stats.max_depth <= 6);
    }

    #[test]
    fn drop_newest_counts_every_frame_of_a_refused_batch() {
        // The backend holds the first frame until released, so the
        // channel's occupancy is known exactly when the batches arrive.
        struct Held(Arc<AtomicBool>, Arc<AtomicBool>, u64);
        impl RecordBackend for Held {
            type Output = u64;
            fn record_frame(&mut self, _bytes: &[u8]) -> io::Result<()> {
                self.1.store(true, Ordering::Release);
                while !self.0.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                self.2 += 1;
                Ok(())
            }
            fn record_row(&mut self, _row: &str) -> io::Result<()> {
                Ok(())
            }
            fn finish(self) -> io::Result<u64> {
                Ok(self.2)
            }
        }
        let (gate, entered) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let rec = Recorder::spawn(
            Held(Arc::clone(&gate), Arc::clone(&entered), 0),
            RecordingConfig {
                capacity: 8,
                policy: RecordPolicy::DropNewest,
            },
        )
        .expect("spawn");
        let h = rec.handle();
        assert!(h.record_frame(&[0]));
        while !entered.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // The channel is empty again (the backend holds frame 0): five
        // frames fit, the next batch of five would make ten > 8 and is
        // refused whole, three more fit exactly.
        let five: Vec<usize> = (1..=5).collect();
        assert!(h.record_frames(&[7; 5], &five));
        assert!(!h.record_frames(&[7; 5], &five));
        assert!(h.record_frames(&[7; 3], &[1, 2, 3]));
        assert_eq!(h.depth(), 8);
        gate.store(true, Ordering::Release);
        let (written, stats) = rec.finish().expect("finish");
        assert_eq!((stats.frames, stats.dropped, written), (9, 5, 9));
        assert_eq!(stats.frames + stats.dropped, 14);
        assert_eq!(stats.max_depth, 8);
    }

    #[test]
    fn batched_block_stress_is_lossless_and_ordered() {
        use std::sync::mpsc;
        const ROUNDS: u32 = 3000;
        for capacity in 1..=4usize {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let rec = Recorder::spawn(
                    MemBackend::new(),
                    RecordingConfig {
                        capacity,
                        policy: RecordPolicy::Block,
                    },
                )
                .expect("spawn");
                let h = rec.handle();
                let mut rng = mobisense_util::DetRng::seed_from_u64(capacity as u64);
                let mut next = 0u32;
                for _ in 0..ROUNDS {
                    let n = 1 + rng.index(2 * capacity + 2);
                    let mut bytes = Vec::new();
                    let mut ends = Vec::new();
                    for _ in 0..n {
                        bytes.extend_from_slice(&next.to_le_bytes());
                        ends.push(bytes.len());
                        next += 1;
                    }
                    assert!(h.record_frames(&bytes, &ends));
                }
                let _ = tx.send((next, rec.finish().expect("finish")));
            });
            let (offered, ((frames, _, _), stats)) = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("stress run timed out: lost wake-up");
            assert_eq!(frames.len() as u32, offered, "capacity {capacity}");
            for (i, f) in frames.iter().enumerate() {
                assert_eq!(f.as_slice(), &(i as u32).to_le_bytes());
            }
            assert_eq!(
                (stats.frames, stats.drained, stats.dropped),
                (offered as u64, offered as u64, 0)
            );
            assert!(stats.max_depth as usize <= (2 * capacity + 2).max(capacity));
        }
    }

    #[test]
    fn stats_are_readable_mid_run() {
        let rec = Recorder::spawn(MemBackend::new(), RecordingConfig::default()).expect("spawn");
        let h = rec.handle();
        assert_eq!(h.stats(), RecorderStats::default());
        h.record_frame(&[1, 2, 3]);
        assert_eq!(h.stats().frames, 1);
        rec.finish().expect("finish");
    }
}
