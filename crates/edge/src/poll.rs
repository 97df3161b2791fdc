//! The readiness seam behind the reactor's sweep loop.
//!
//! A classic reactor blocks in `poll(2)`/`epoll` until a socket is
//! readable. This workspace is `#![forbid(unsafe_code)]` with no FFI
//! crates, so the syscall cannot be issued directly; what `std` exposes
//! portably is nonblocking I/O plus `WouldBlock`. The reactor therefore
//! runs **level-triggered sweeps** — try every socket, note whether any
//! byte moved — and delegates the "nothing was ready" case to a
//! [`Poller`]. The shipped [`IdlePark`] parks on the first empty sweep:
//! spinning or yielding first would buy a few microseconds of latency
//! at the cost of a busy reactor whenever traffic is steady but sparse
//! (frames 10 µs apart never let a yield budget run out). A platform
//! poller that really sleeps in the kernel until readiness would
//! implement the same one-method trait and slot in without touching
//! the sweep loop.

use std::time::Duration;

/// Backoff/wakeup policy consulted once per reactor sweep.
pub trait Poller {
    /// Called after a full sweep; `progress` is true when the sweep
    /// accepted a connection, read a byte, or received a datagram. The
    /// implementation decides whether (and how long) to wait before the
    /// next sweep.
    fn wait(&mut self, progress: bool);
}

/// Portable park-on-empty poller.
///
/// While sweeps make progress it returns immediately. After a sweep
/// with nothing ready it parks for `idle_park`, so a frame waits in its
/// socket buffer at most that long before the next sweep reads it.
/// `park_timeout` may wake spuriously; that only costs an extra sweep,
/// never correctness.
#[derive(Debug)]
pub struct IdlePark {
    idle_park: Duration,
}

impl IdlePark {
    /// A poller that parks `idle_park` after every empty sweep.
    pub fn new(idle_park: Duration) -> Self {
        IdlePark { idle_park }
    }
}

impl Poller for IdlePark {
    fn wait(&mut self, progress: bool) {
        if !progress {
            std::thread::park_timeout(self.idle_park);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn progress_never_parks() {
        // A park this long would hang the test: progress must return
        // at once.
        let mut p = IdlePark::new(Duration::from_secs(60));
        let t = Instant::now();
        for _ in 0..1000 {
            p.wait(true);
        }
        assert!(t.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn empty_sweep_parks_boundedly() {
        let mut p = IdlePark::new(Duration::from_micros(50));
        let t = Instant::now();
        for _ in 0..10 {
            p.wait(false);
        }
        assert!(t.elapsed() < Duration::from_secs(5));
    }
}
