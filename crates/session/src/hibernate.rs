//! Idle-session paging: who leaves the hot set, when, and where the
//! snapshot goes.
//!
//! The [`HibernationManager`] tracks last-activity per client and
//! answers one question for the serving layer's worker loop each tick:
//! *which sessions should stop being resident right now?* Victims are
//! chosen deterministically — idle past a configured threshold, or the
//! least-recently-active overflow beyond a hot-set capacity — so two
//! replicas replaying the same frame stream retire the same clients at
//! the same instants (a prerequisite for the golden-replay tests).
//!
//! The manager does not own session state; the worker does. The flow is:
//!
//! ```text
//!   worker tick ──► victims(now) ──► for each: session.into_state()
//!                                       └─► manager.hibernate(snap, pager)
//!   end of the worker's batch ──► pager.flush()
//!   frame for hibernated client ──► manager.fault_in(id, pager)
//!                                       └─► PipelineSession::restore(...)
//! ```
//!
//! Storage is abstracted behind [`SnapshotPager`]: [`MemoryPager`] here
//! for tests and memory-only deployments, and the trace store's
//! disk-backed pager in `mobisense-store`.

use std::collections::{BTreeMap, BTreeSet};

use mobisense_util::units::Nanos;

use crate::codec::{EncodedSnapshot, SessionSnapshot, SnapshotError};

/// Where paged-out snapshots live.
///
/// Contract: [`page_in`](SnapshotPager::page_in) returns the bytes most
/// recently stored for the client and *consumes* them — a second
/// `page_in` for the same client yields `Ok(None)` until another page
/// is stored. Implementations must hand back byte-identical buffers;
/// the codec's CRC turns any storage corruption into a typed error at
/// restore time rather than a divergent session.
///
/// Snapshots are checked once, where their bytes come from:
/// [`store_page`](SnapshotPager::store_page) takes an
/// [`EncodedSnapshot`], which only the codec or a full decode can make,
/// and files it under its own client id without looking again.
/// [`page_out`](SnapshotPager::page_out) is the adapter for raw bytes.
///
/// A store may buffer what it writes: a page is durable (as far as the
/// store promises durability) only after [`flush`](SnapshotPager::flush)
/// returns. The serving layer's shard worker flushes once per popped
/// batch, so a crash loses at most the pages of the batch in flight.
pub trait SnapshotPager {
    /// Stores the page under its client id, replacing any previous one.
    fn store_page(&mut self, page: EncodedSnapshot) -> Result<(), PageError>;

    /// Retrieves and consumes the stored snapshot for `client`, or
    /// `Ok(None)` when nothing is paged out for it.
    fn page_in(&mut self, client: u32) -> Result<Option<Vec<u8>>, PageError>;

    /// Pushes buffered pages to the backing store. No-op by default
    /// (a store that does not buffer).
    fn flush(&mut self) -> Result<(), PageError> {
        Ok(())
    }

    /// Stores raw bytes of unknown origin for `client`: decodes them in
    /// full ([`EncodedSnapshot::validate`]) and checks that they are
    /// `client`'s snapshot before anything is stored. Refused bytes
    /// leave the pager unchanged.
    fn page_out(&mut self, client: u32, bytes: &[u8]) -> Result<(), PageError> {
        let page = EncodedSnapshot::validate(bytes.to_vec())?;
        if page.client_id() != client {
            return Err(PageError::Io(format!(
                "snapshot for client {} paged out under client {client}",
                page.client_id()
            )));
        }
        self.store_page(page)
    }
}

/// Why paging a session out or in failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PageError {
    /// The backing store failed (disk error, segment roll failure, ...).
    Io(String),
    /// The snapshot bytes would not encode, or came back corrupt.
    Codec(SnapshotError),
    /// The manager believed this client was hibernated but the pager
    /// holds no snapshot for it — a bookkeeping split-brain that must
    /// surface, never silently produce a fresh session.
    Missing(u32),
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::Io(msg) => write!(f, "pager I/O failure: {msg}"),
            PageError::Codec(e) => write!(f, "snapshot codec failure: {e}"),
            PageError::Missing(client) => {
                write!(f, "no paged snapshot for hibernated client {client}")
            }
        }
    }
}

impl std::error::Error for PageError {}

impl From<SnapshotError> for PageError {
    fn from(e: SnapshotError) -> Self {
        PageError::Codec(e)
    }
}

/// In-memory snapshot storage: the reference [`SnapshotPager`] used by
/// tests and memory-only deployments.
#[derive(Debug, Default)]
pub struct MemoryPager {
    pages: BTreeMap<u32, Vec<u8>>,
}

impl MemoryPager {
    /// Creates an empty pager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of snapshots currently paged out.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no snapshots are paged out.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Total bytes held (the hibernated side of the resident-bytes
    /// ledger in the hibernation bench).
    pub fn stored_bytes(&self) -> usize {
        self.pages.values().map(Vec::len).sum()
    }
}

impl SnapshotPager for MemoryPager {
    fn store_page(&mut self, page: EncodedSnapshot) -> Result<(), PageError> {
        self.pages.insert(page.client_id(), page.into_bytes());
        Ok(())
    }

    fn page_in(&mut self, client: u32) -> Result<Option<Vec<u8>>, PageError> {
        Ok(self.pages.remove(&client))
    }
}

/// What happens to a session selected for retirement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetirePolicy {
    /// Snapshot the session into the pager; fault it back in on the
    /// client's next frame. Decision streams are unaffected.
    Hibernate,
    /// Drop the session outright (no snapshot). The client's next frame
    /// starts a fresh session — cheaper, but the classifier re-warms.
    Evict,
}

/// When sessions leave the hot set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HibernationConfig {
    /// Retire a session once this much time passed since its last
    /// frame. `None` disables idle-based retirement.
    pub idle_after: Option<Nanos>,
    /// Retire least-recently-active sessions whenever the hot set
    /// exceeds this size. `None` disables capacity-based retirement.
    pub max_hot: Option<usize>,
    /// Whether retired sessions are snapshotted or dropped.
    pub policy: RetirePolicy,
}

impl Default for HibernationConfig {
    /// Everything off: sessions stay hot forever.
    fn default() -> Self {
        HibernationConfig {
            idle_after: None,
            max_hot: None,
            policy: RetirePolicy::Hibernate,
        }
    }
}

impl HibernationConfig {
    /// Whether any retirement trigger is configured.
    pub fn enabled(&self) -> bool {
        self.idle_after.is_some() || self.max_hot.is_some()
    }
}

/// Counters the serving layer surfaces through its ops snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HibernationStats {
    /// Sessions paged out (total, monotone).
    pub hibernated: u64,
    /// Sessions faulted back in (total, monotone).
    pub restored: u64,
    /// Sessions dropped without a snapshot (total, monotone).
    pub evicted: u64,
}

/// Deterministic retirement bookkeeping for one shard worker's clients.
///
/// Tracks last-activity per hot client and the set of currently
/// hibernated clients. All internal collections are ordered
/// (`BTreeMap`/`BTreeSet`), so victim selection depends only on the
/// observed `(timestamp, client)` stream — never on hash seeds or
/// insertion order.
#[derive(Debug)]
pub struct HibernationManager {
    cfg: HibernationConfig,
    /// client -> last frame timestamp, for O(log n) touch updates.
    last_touch: BTreeMap<u32, Nanos>,
    /// (last frame timestamp, client), oldest first: the LRU order.
    lru: BTreeSet<(Nanos, u32)>,
    /// Clients whose snapshot currently lives in the pager.
    hibernated: BTreeSet<u32>,
    stats: HibernationStats,
}

impl HibernationManager {
    /// Creates a manager with no tracked clients.
    pub fn new(cfg: HibernationConfig) -> Self {
        HibernationManager {
            cfg,
            last_touch: BTreeMap::new(),
            lru: BTreeSet::new(),
            hibernated: BTreeSet::new(),
            stats: HibernationStats::default(),
        }
    }

    /// The manager's configuration.
    pub fn config(&self) -> &HibernationConfig {
        &self.cfg
    }

    /// Records activity for a hot client at `now`. Call once per
    /// processed frame, after any needed [`fault_in`](Self::fault_in).
    pub fn touch(&mut self, client: u32, now: Nanos) {
        if let Some(prev) = self.last_touch.insert(client, now) {
            self.lru.remove(&(prev, client));
        }
        self.lru.insert((now, client));
    }

    /// Whether the client's session is currently paged out.
    pub fn is_hibernated(&self, client: u32) -> bool {
        self.hibernated.contains(&client)
    }

    /// Number of clients currently tracked as hot.
    pub fn hot_count(&self) -> usize {
        self.last_touch.len()
    }

    /// Number of clients currently hibernated.
    pub fn hibernated_count(&self) -> usize {
        self.hibernated.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> HibernationStats {
        self.stats
    }

    /// The clients that should be retired at `now`, least recently
    /// active first: every client idle past `idle_after`, plus — when
    /// the hot set still exceeds `max_hot` — the oldest survivors down
    /// to capacity. Read-only; the worker retires each victim with
    /// [`hibernate`](Self::hibernate) or [`evict`](Self::evict).
    pub fn victims(&self, now: Nanos) -> Vec<u32> {
        let mut out = Vec::new();
        let mut remaining = self.last_touch.len();
        for &(at, client) in &self.lru {
            let idle = self
                .cfg
                .idle_after
                .is_some_and(|d| now.saturating_sub(at) >= d);
            let overflow = self.cfg.max_hot.is_some_and(|cap| remaining > cap);
            if !(idle || overflow) {
                // The LRU set is ordered by touch time: every later
                // entry is more recent, so no further victim exists.
                break;
            }
            out.push(client);
            remaining -= 1;
        }
        out
    }

    /// Encodes the session's snapshot, hands the page to the pager and
    /// moves the client from the hot set to the hibernated set. Returns
    /// the encoded size. On error the manager's books do not change:
    /// the client stays hot.
    pub fn hibernate(
        &mut self,
        snap: &SessionSnapshot,
        pager: &mut dyn SnapshotPager,
    ) -> Result<usize, PageError> {
        let page = EncodedSnapshot::encode(snap)?;
        let len = page.as_bytes().len();
        pager.store_page(page)?;
        self.drop_hot(snap.client_id);
        self.hibernated.insert(snap.client_id);
        self.stats.hibernated += 1;
        Ok(len)
    }

    /// Drops a client from the hot set without a snapshot (the
    /// [`RetirePolicy::Evict`] arm, and the explicit idle-eviction hook
    /// the serving layer exposes even with hibernation disabled).
    pub fn evict(&mut self, client: u32) {
        if self.drop_hot(client) {
            self.stats.evicted += 1;
        }
    }

    /// Brings a hibernated client's snapshot back: pages it in, decodes
    /// it, and returns it for the worker to
    /// [`PipelineSession::restore`]. Returns `Ok(None)` when the client
    /// is not hibernated (the common case — a hot client's frame).
    ///
    /// The caller must [`touch`](Self::touch) the client afterwards to
    /// re-enter it into the hot set.
    ///
    /// [`PipelineSession::restore`]: mobisense_core::pipeline::PipelineSession::restore
    pub fn fault_in(
        &mut self,
        client: u32,
        pager: &mut dyn SnapshotPager,
    ) -> Result<Option<SessionSnapshot>, PageError> {
        if !self.hibernated.contains(&client) {
            return Ok(None);
        }
        let bytes = pager.page_in(client)?.ok_or(PageError::Missing(client))?;
        let snap = SessionSnapshot::decode(&bytes)?;
        self.hibernated.remove(&client);
        self.stats.restored += 1;
        Ok(Some(snap))
    }

    /// Forgets a client entirely (disconnect): removed from the hot and
    /// hibernated sets. Any paged snapshot is left for the pager's own
    /// retention to reap.
    pub fn forget(&mut self, client: u32) {
        self.drop_hot(client);
        self.hibernated.remove(&client);
    }

    fn drop_hot(&mut self, client: u32) -> bool {
        match self.last_touch.remove(&client) {
            Some(at) => {
                self.lru.remove(&(at, client));
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_core::pipeline::{PipelineConfig, PipelineSession};
    use mobisense_util::units::SECOND;

    fn snap_for(client: u32) -> SessionSnapshot {
        SessionSnapshot {
            client_id: client,
            last_emitted: None,
            state: PipelineSession::new(PipelineConfig::default(), client as u64).snapshot(),
        }
    }

    fn idle_cfg(idle_after: Nanos) -> HibernationConfig {
        HibernationConfig {
            idle_after: Some(idle_after),
            ..HibernationConfig::default()
        }
    }

    #[test]
    fn default_config_is_disabled_and_never_selects_victims() {
        let cfg = HibernationConfig::default();
        assert!(!cfg.enabled());
        let mut mgr = HibernationManager::new(cfg);
        for c in 0..10 {
            mgr.touch(c, 0);
        }
        assert!(mgr.victims(u64::MAX).is_empty());
    }

    #[test]
    fn idle_clients_become_victims_oldest_first() {
        let mut mgr = HibernationManager::new(idle_cfg(5 * SECOND));
        mgr.touch(3, SECOND);
        mgr.touch(1, 2 * SECOND);
        mgr.touch(2, 4 * SECOND);
        // At t=7s: client 3 idle 6s, client 1 idle 5s, client 2 idle 3s.
        assert_eq!(mgr.victims(7 * SECOND), vec![3, 1]);
        // Touching client 3 rescues it.
        mgr.touch(3, 7 * SECOND);
        assert_eq!(mgr.victims(7 * SECOND), vec![1]);
    }

    #[test]
    fn hot_set_overflow_retires_lru_down_to_capacity() {
        let cfg = HibernationConfig {
            max_hot: Some(2),
            ..HibernationConfig::default()
        };
        let mut mgr = HibernationManager::new(cfg);
        for (i, c) in [9u32, 4, 7, 2].iter().enumerate() {
            mgr.touch(*c, i as Nanos);
        }
        // Four hot, capacity two: the two least recently active go.
        assert_eq!(mgr.victims(100), vec![9, 4]);
    }

    #[test]
    fn idle_and_overflow_triggers_compose() {
        let cfg = HibernationConfig {
            idle_after: Some(10),
            max_hot: Some(2),
            policy: RetirePolicy::Hibernate,
        };
        let mut mgr = HibernationManager::new(cfg);
        mgr.touch(1, 0); // idle at t=20
        mgr.touch(2, 15); // not idle, but over capacity
        mgr.touch(3, 16);
        mgr.touch(4, 17);
        // Victims: 1 (idle), then 2 (oldest overflow). 3 and 4 fit.
        assert_eq!(mgr.victims(20), vec![1, 2]);
    }

    #[test]
    fn hibernate_then_fault_in_round_trips_and_counts() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let mut pager = MemoryPager::new();
        let snap = snap_for(42);
        mgr.touch(42, 0);
        let n = mgr.hibernate(&snap, &mut pager).expect("pages out");
        assert!(n > 0);
        assert_eq!(mgr.hot_count(), 0);
        assert_eq!(mgr.hibernated_count(), 1);
        assert!(mgr.is_hibernated(42));
        assert_eq!(pager.len(), 1);
        assert_eq!(pager.stored_bytes(), n);

        let back = mgr.fault_in(42, &mut pager).expect("pages in");
        assert_eq!(back, Some(snap));
        assert_eq!(mgr.hibernated_count(), 0);
        assert!(pager.is_empty());
        assert_eq!(
            mgr.stats(),
            HibernationStats {
                hibernated: 1,
                restored: 1,
                evicted: 0
            }
        );
    }

    #[test]
    fn fault_in_of_hot_client_is_none() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let mut pager = MemoryPager::new();
        mgr.touch(7, 0);
        assert_eq!(mgr.fault_in(7, &mut pager), Ok(None));
        assert_eq!(mgr.stats().restored, 0);
    }

    #[test]
    fn missing_page_is_a_typed_error_and_client_stays_hibernated() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let mut pager = MemoryPager::new();
        mgr.touch(5, 0);
        mgr.hibernate(&snap_for(5), &mut pager).expect("pages out");
        // Simulate a lost page.
        pager.page_in(5).expect("drains");
        assert_eq!(mgr.fault_in(5, &mut pager), Err(PageError::Missing(5)));
        // The split-brain is visible, not papered over.
        assert!(mgr.is_hibernated(5));
    }

    #[test]
    fn corrupt_page_is_a_codec_error() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let mut pager = MemoryPager::new();
        mgr.touch(6, 0);
        mgr.hibernate(&snap_for(6), &mut pager).expect("pages out");
        // Flip a body bit behind the manager's back, in storage (the
        // pager's own entry points refuse corrupt bytes).
        let bytes = pager.pages.get_mut(&6).expect("present");
        bytes[20] ^= 0x10;
        assert!(matches!(
            mgr.fault_in(6, &mut pager),
            Err(PageError::Codec(SnapshotError::BadCrc { .. }))
        ));
    }

    #[test]
    fn raw_page_out_validates_before_storing() {
        let mut pager = MemoryPager::new();
        let bytes = snap_for(3).encode().expect("encodes");
        assert!(matches!(
            pager.page_out(3, b"not a snapshot"),
            Err(PageError::Codec(_))
        ));
        assert!(matches!(pager.page_out(4, &bytes), Err(PageError::Io(_))));
        assert!(pager.is_empty(), "refused pages are not stored");
        pager.page_out(3, &bytes).expect("valid page");
        assert_eq!(pager.flush(), Ok(()));
        assert_eq!(pager.page_in(3), Ok(Some(bytes)));
    }

    #[test]
    fn evict_drops_without_snapshot() {
        let mut mgr = HibernationManager::new(HibernationConfig {
            idle_after: Some(SECOND),
            max_hot: None,
            policy: RetirePolicy::Evict,
        });
        mgr.touch(9, 0);
        mgr.evict(9);
        assert_eq!(mgr.hot_count(), 0);
        assert_eq!(mgr.hibernated_count(), 0);
        assert_eq!(mgr.stats().evicted, 1);
        // Evicting an unknown client is a no-op, not a counted event.
        mgr.evict(1234);
        assert_eq!(mgr.stats().evicted, 1);
    }

    #[test]
    fn forget_clears_both_sets() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let mut pager = MemoryPager::new();
        mgr.touch(1, 0);
        mgr.touch(2, 0);
        mgr.hibernate(&snap_for(2), &mut pager).expect("pages out");
        mgr.forget(1);
        mgr.forget(2);
        assert_eq!(mgr.hot_count(), 0);
        assert_eq!(mgr.hibernated_count(), 0);
        // The page itself is left to the store's retention.
        assert_eq!(pager.len(), 1);
    }

    #[test]
    fn touch_keeps_lru_and_map_in_lockstep() {
        let mut mgr = HibernationManager::new(idle_cfg(10));
        for round in 0..5u64 {
            for c in 0..4u32 {
                mgr.touch(c, round * 3 + c as u64);
            }
        }
        assert_eq!(mgr.hot_count(), 4);
        assert_eq!(mgr.lru.len(), 4);
        // All four idle far in the future, ordered by last touch.
        assert_eq!(mgr.victims(1_000), vec![0, 1, 2, 3]);
    }

    #[test]
    fn page_error_messages_are_informative() {
        assert!(PageError::Io("disk full".into())
            .to_string()
            .contains("disk full"));
        assert!(PageError::Missing(8).to_string().contains('8'));
        let codec = PageError::from(SnapshotError::BadMagic(3));
        assert!(codec.to_string().contains("magic"));
    }
}
