//! Spans the benchmark records around its own calls into the system.
//!
//! Kept in memory and summarised when the run ends; a disabled log
//! (the untraced runs) only runs the wrapped call.

use std::time::Instant;

/// One timed call: name, start and end (ns from the log's origin), and
/// the index of the span that caused it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// The enclosing span in the same log, if any.
    pub parent: Option<u32>,
}

/// An append-only span log.
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log timing from `origin`; `enabled = false` records nothing.
    pub fn new(origin: Instant, enabled: bool) -> SpanLog {
        SpanLog {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, recording it as span `name` under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: Option<u32>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
        });
        out
    }

    /// Opens a span to be closed by [`SpanLog::close`]; returns its
    /// index (`None` when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Closes a span opened by [`SpanLog::open`].
    pub fn close(&mut self, idx: Option<u32>) {
        if let Some(i) = idx {
            let now = self.origin.elapsed().as_nanos() as u64;
            self.spans[i as usize].end_ns = now;
        }
    }

    /// Appends another log's spans (re-parented into this log).
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One line per span name, in first-seen order: count, total and
    /// self time (duration minus the child spans it encloses), ms.
    pub fn summary(&self) -> Vec<String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        let mut totals: Vec<(u64, u64, u64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let i = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                totals.push((0, 0, 0));
                names.len() - 1
            });
            let dur = s.end_ns - s.start_ns;
            totals[i].0 += 1;
            totals[i].1 += dur;
            totals[i].2 += dur.saturating_sub(*child);
        }
        names
            .iter()
            .zip(totals)
            .map(|(n, (count, total, own))| {
                format!(
                    "span {n}: {count} calls, {:.3} ms total, {:.3} ms self",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_nested_spans_only_when_enabled() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin, true);
        let round = log.open("round", None);
        let v = log.time("call", round, || 7);
        log.close(round);
        assert_eq!(v, 7);
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.spans()[1].parent, Some(0));
        assert!(log.spans()[0].end_ns >= log.spans()[1].end_ns);
        assert_eq!(log.durations("call").len(), 1);
        let summary = log.summary();
        assert_eq!(summary.len(), 2);
        assert!(summary[0].starts_with("span round: 1 calls,"));
        assert!(summary[1].starts_with("span call: 1 calls,"));

        let mut off = SpanLog::new(origin, false);
        assert_eq!(off.time("call", None, || 3), 3);
        assert!(off.open("round", None).is_none());
        log.absorb(off);
        assert_eq!(log.spans().len(), 2);
    }
}
