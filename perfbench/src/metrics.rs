//! The benchmark's metric arithmetic and its result line.
//!
//! Every metric the benchmark can print is declared once in
//! [`END_TO_END`] or [`PER_LAYER`] with its unit. [`Metrics::set`]
//! refuses an undeclared name, and a run whose result misses a
//! declared one ([`missing`]) fails, so a workload cannot silently drop
//! a metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced runs, `--trace 0`), name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("frames_per_s", "frames/s"),
    ("cpu_us_per_frame", "us"),
    ("delivered_frac", "ratio"),
    ("setup_s", "s"),
    ("mem_peak_mib", "MiB"),
];

/// Per-layer metrics (traced runs, `--trace 1`), name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("edge.reactor.cpu_ns_per_frame", "ns"),
    ("edge.reactor.wakeups_per_kframe", "1/kframe"),
    ("edge.reactor.runq_ns_per_frame", "ns"),
    ("edge.bytes_per_frame", "B"),
    ("edge.resyncs", "count"),
    ("edge.finish_ms", "ms"),
    ("edge.conn.feed_ns_per_frame", "ns"),
    ("serve.wire.decode_ns", "ns"),
    ("serve.worker.cpu_ns_per_frame", "ns"),
    ("serve.worker.wakeups_per_kframe", "1/kframe"),
    ("serve.worker.runq_ns_per_frame", "ns"),
    ("serve.queue.depth_p50", "frames"),
    ("serve.queue.depth_p99", "frames"),
    ("serve.engine.submit_ns_p50", "ns"),
    ("serve.engine.submit_ns_p99", "ns"),
    ("serve.stage.queue_wait_p50_ns", "ns"),
    ("serve.stage.classify_p50_ns", "ns"),
    ("serve.stage.decide_p50_ns", "ns"),
    ("serve.decision_latency_p50_us", "us"),
    ("serve.decision_latency_p99_us", "us"),
    ("serve.decisions", "count"),
    ("serve.recording.cpu_ns_per_frame", "ns"),
    ("serve.recording.wakeups_per_kframe", "1/kframe"),
    ("serve.recording.max_depth", "count"),
    ("serve.recording.dropped", "count"),
    ("serve.ops.cpu_ns_per_snapshot", "ns"),
    ("serve.ops.snapshot_bytes", "B"),
    ("core.pipeline.observe_ns", "ns"),
    ("session.fault_in_p50_us", "us"),
    ("session.fault_in_p99_us", "us"),
    ("session.fault_in_share", "ratio"),
    ("session.hibernated", "count"),
    ("session.resident_peak_bytes", "B"),
    ("session.codec.encode_ns", "ns"),
    ("session.codec.decode_ns", "ns"),
    ("store.writer.append_ns", "ns"),
    ("store.writer.seal_ms", "ms"),
    ("store.bytes_per_frame", "B"),
    ("store.segments_sealed", "count"),
    ("store.pager.page_outs", "count"),
    ("store.recover_mib_per_s", "MiB/s"),
    ("loadgen.offered_fps", "frames/s"),
    ("loadgen.send_late_p99_ms", "ms"),
    ("loadgen.write_block_p99_us", "us"),
    ("ledger.unattributed_share", "ratio"),
    ("telemetry.trace_overhead_pct", "%"),
];

/// A timing summary under the percentile rule: the median, and the
/// highest percentile that still has at least [`TAIL_SAMPLES`] samples
/// beyond it (capped at `want`), with the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Samples summarised.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The percentile reported for the tail (`want` when the sample
    /// count allows it, lower otherwise; 50 when nothing higher does).
    pub pct: f64,
    /// The value at `pct`.
    pub value: f64,
}

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of sorted samples (`p` in 0..=100).
fn rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let r = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[r - 1]
}

/// The percentile the rule reports for `n` samples: the largest whole
/// percentile up to `want` that leaves at least [`TAIL_SAMPLES`]
/// samples beyond it, and never below the median.
pub fn tail_pct(n: usize, want: f64) -> f64 {
    let allowed = if n > TAIL_SAMPLES {
        (100.0 * (1.0 - TAIL_SAMPLES as f64 / n as f64)).floor()
    } else {
        50.0
    };
    want.min(allowed).max(50.0)
}

/// Summarises `samples` by the percentile rule; `None` when empty.
pub fn tail(samples: &[f64], want: f64) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pct = tail_pct(s.len(), want);
    Some(Tail {
        n: s.len(),
        p50: rank(&s, 50.0),
        pct,
        value: rank(&s, pct),
    })
}

/// The median of `xs` (mean of the middle two for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    rank(&s, p)
}

/// `total` spread over `frames` (0 when nothing was processed).
pub fn per_frame(total: f64, frames: u64) -> f64 {
    if frames == 0 {
        0.0
    } else {
        total / frames as f64
    }
}

/// Open-loop lateness of one send: how long after its due time (both
/// measured from the same origin, ns) it went out. Early sends count 0.
pub fn lateness_ns(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

/// The share of the system's CPU per frame that no layer-pass timing
/// explains: `1 - sum(layer ns per frame) / (cpu_us_per_frame * 1000)`.
pub fn unattributed_share(layer_ns_per_frame: &[f64], cpu_us_per_frame: f64) -> f64 {
    if cpu_us_per_frame <= 0.0 {
        return 0.0;
    }
    1.0 - layer_ns_per_frame.iter().sum::<f64>() / (cpu_us_per_frame * 1_000.0)
}

/// A run's metric values by name.
#[derive(Default, Debug)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name`, which must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in the benchmark's metric tables"
        );
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
        self.0.insert(name, value + 0.0);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The unit a metric is declared with.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The names a result line must carry for `trace`.
pub fn required(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The names in `required(trace)` that `m` lacks.
pub fn missing(m: &Metrics, trace: bool) -> Vec<&'static str> {
    required(trace)
        .iter()
        .filter(|(n, _)| m.get(n).is_none())
        .map(|(n, _)| *n)
        .collect()
}

/// Renders a finite number as JSON (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`
/// with every metric `required(trace)` names, each with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, m: &Metrics, trace: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in required(trace).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = m.get(name).unwrap_or(0.0);
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 99.0).unwrap();
        assert_eq!((t.n, t.pct, t.value, t.p50), (1000, 99.0, 990.0, 500.0));
        // 200 samples: p99 would leave 2 beyond; p95 leaves 10.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs, 99.0).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 190.0));
        assert!(xs.iter().filter(|x| **x > t.value).count() >= TAIL_SAMPLES);
        // Too few for anything above the median.
        let t = tail(&[3.0, 1.0, 2.0], 99.0).unwrap();
        assert_eq!((t.n, t.pct, t.value), (3, 50.0, 2.0));
        assert!(tail(&[], 99.0).is_none());
    }

    #[test]
    fn per_frame_normalisation() {
        assert_eq!(per_frame(5_000.0, 1_000), 5.0);
        assert_eq!(per_frame(5_000.0, 0), 0.0);
    }

    #[test]
    fn lateness_counts_from_due_time() {
        assert_eq!(lateness_ns(1_000, 1_250), 250);
        assert_eq!(lateness_ns(1_000, 900), 0, "an early send is not late");
    }

    #[test]
    fn unattributed_share_arithmetic() {
        // 2 us of system CPU per frame; the layers explain 1.5 us.
        let share = unattributed_share(&[1_000.0, 400.0, 100.0], 2.0);
        assert!((share - 0.25).abs() < 1e-12);
        assert_eq!(unattributed_share(&[1.0], 0.0), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 25.0), 2.0);
        assert_eq!(percentile(&xs, 26.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 8.0);
        assert_eq!(percentile(&[], 25.0), 0.0);
    }

    #[test]
    fn result_line_lists_every_required_metric_with_its_unit() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        assert!(missing(&m, false).is_empty());
        assert_eq!(missing(&m, true).len(), PER_LAYER.len());
        let line = result_line(true, 10, 0, &m, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("edge."));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Metrics::default().set("made_up", 1.0);
    }
}
