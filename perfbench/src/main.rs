//! The repository's benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tcp_flood|tcp_recorded|session_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from the seed, measures the system
//! through its public entry points for `--seconds`, checks every
//! output against a golden decision log computed in-process from the
//! same inputs, prints every metric by name with its unit, and ends
//! with one JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs an untraced and a traced phase plus a
//! single-threaded layer pass and reports the per-layer metrics. See
//! `perfbench/README.md` for why each workload exists and which layer
//! metric should move which end-to-end metric.

mod churn;
mod inputs;
mod layers;
mod metrics;
mod procstat;
mod spans;
mod tcp;

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mobisense_serve::{decision_log_csv, serve_streams, ServeConfig, SnapshotPolicy};
use mobisense_session::{HibernationConfig, RetirePolicy};
use mobisense_telemetry::{Histogram, Stage};
use mobisense_util::units::{Nanos, MILLISECOND, SECOND};

use inputs::{churn_schedule, conn_inputs, steps_for, Base, ChurnShape};
use metrics::{median, per_frame, percentile, tail, Metrics};
use procstat::{cpu_ticks, process_cpu_ns, rss_bytes, Sampler, TaskCounters};
use spans::SpanLog;
use tcp::TcpSetup;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    TcpFlood,
    TcpRecorded,
    SessionChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "tcp_flood" => Some(Workload::TcpFlood),
            "tcp_recorded" => Some(Workload::TcpRecorded),
            "session_churn" => Some(Workload::SessionChurn),
            _ => None,
        }
    }
}

/// Command-line options.
#[derive(Clone, Debug)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Corrupt the golden log before comparing: the run must fail.
    break_golden: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: Option<u64> = None;
    let mut trace = false;
    let mut break_golden = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--break-golden" => break_golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
        break_golden,
    })
}

/// Workload sizes. [`Scale::full`] is the benchmark of record; the
/// self-check test shrinks it.
struct Scale {
    /// `tcp_flood` clients and their sim lifetime per round.
    flood_clients: u32,
    flood_secs: u64,
    /// `tcp_recorded` clients at the real 50 Hz cadence and the wall
    /// (= sim) length of one paced round.
    recorded_clients: u32,
    recorded_secs: u64,
    /// `session_churn` activity and sim lifetime per round.
    churn: ChurnShape,
    churn_secs: u64,
    /// Frames the layer pass runs over.
    pass_frames: usize,
    /// Closed-loop rounds per phase, at least.
    min_rounds: usize,
    /// Idle set-ups in each batch of an untraced phase, for `setup_s`.
    setup_batch: usize,
}

/// Rounds preceded by a batch of idle set-ups (one more batch follows
/// the last round).
const SETUP_GAPS: usize = 3;

/// Hibernation threshold of `session_churn`: sparse bursts are spaced
/// wider than this, so each one starts with a fault-in.
const IDLE_AFTER: Nanos = 300 * MILLISECOND;

impl Scale {
    fn full() -> Scale {
        Scale {
            flood_clients: 1024,
            flood_secs: 10,
            recorded_clients: 2048,
            recorded_secs: 10,
            churn: ChurnShape {
                clients: 8_192,
                continuous_every: 10,
                min_gap: 25,
                gap_alpha: 1.5,
                max_burst: 4,
            },
            churn_secs: 10,
            pass_frames: 80_000,
            min_rounds: 3,
            setup_batch: 20,
        }
    }
}

/// A scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> io::Result<WorkDir> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".perfbench_work").join(format!("{}-{n}", std::process::id()));
        // A leftover from a killed run with a recycled pid must not leak in.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent in place when another run still uses it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// What one round of any workload contributes to the end-to-end
/// metrics.
struct RoundStats {
    wall_s: f64,
    offered: u64,
    processed: u64,
    system_cpu_ns: u64,
}

fn system_cpu(groups: &BTreeMap<&'static str, TaskCounters>) -> u64 {
    groups.values().map(|c| c.cpu_ns).sum()
}

/// One measurement phase (untraced or traced) of a workload.
struct Phase<R> {
    rounds: Vec<R>,
    stats: Vec<RoundStats>,
    /// Idle set-up timings taken between the rounds, seconds.
    setups: Vec<f64>,
    /// Per round: peak RSS during the round minus RSS at its start.
    mem_growth_bytes: Vec<f64>,
    process_cpu_ns: u64,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// phase: throughput falls with it, so the notes report it.
    steal_share: f64,
    spans: SpanLog,
}

impl<R> Phase<R> {
    fn processed(&self) -> u64 {
        self.stats.iter().map(|s| s.processed).sum()
    }

    /// Whole-process CPU (system, loadgen and benchmark threads) per
    /// processed frame, ns.
    fn process_cpu_per_frame(&self) -> f64 {
        per_frame(self.process_cpu_ns as f64, self.processed())
    }
}

/// Runs rounds until `seconds` have passed and at least `min_rounds`
/// ran, tracking each round's RSS growth and the phase's process CPU.
/// Before each of the first [`SETUP_GAPS`] rounds and after the last,
/// `setup_batch` idle set-ups are timed with `idle_setup(k)`, so the
/// `setup_s` samples span the whole run rather than one moment of it,
/// and their number does not grow with the program's throughput.
#[allow(clippy::too_many_arguments)]
fn run_phase<R>(
    seconds: u64,
    min_rounds: usize,
    traced: bool,
    sampler: &Sampler,
    epoch: &mut u64,
    setup_batch: usize,
    mut idle_setup: impl FnMut(usize) -> io::Result<f64>,
    mut round: impl FnMut(&mut SpanLog, u64) -> io::Result<(R, RoundStats)>,
) -> io::Result<Phase<R>> {
    let start = Instant::now();
    let mut spans = SpanLog::new(start, traced);
    let cpu0 = process_cpu_ns();
    let ticks0 = cpu_ticks();
    let mut rounds = Vec::new();
    let mut stats = Vec::new();
    let mut setups = Vec::new();
    let mut mem_growth_bytes = Vec::new();
    let mut setup_batch_now = |setups: &mut Vec<f64>| -> io::Result<()> {
        // Epoch 0: these systems' threads count towards no round.
        sampler.set_epoch(0);
        for _ in 0..setup_batch {
            setups.push(idle_setup(setups.len())?);
        }
        Ok(())
    };
    while rounds.len() < min_rounds || start.elapsed() < Duration::from_secs(seconds) {
        if rounds.len() < SETUP_GAPS {
            setup_batch_now(&mut setups)?;
        }
        *epoch += 1;
        sampler.reset_rss_peak();
        let rss0 = rss_bytes();
        let (r, s) = round(&mut spans, *epoch)?;
        sampler.sample_now();
        mem_growth_bytes.push(sampler.rss_peak().saturating_sub(rss0) as f64);
        rounds.push(r);
        stats.push(s);
    }
    setup_batch_now(&mut setups)?;
    Ok(Phase {
        rounds,
        stats,
        setups,
        mem_growth_bytes,
        process_cpu_ns: process_cpu_ns() - cpu0,
        steal_share: {
            let ticks = cpu_ticks();
            per_frame(
                ticks.1.saturating_sub(ticks0.1) as f64,
                ticks.0.saturating_sub(ticks0.0),
            )
        },
        spans,
    })
}

/// One line listing a phase's per-round throughput and CPU per frame.
fn rounds_note<R>(name: &str, phase: &Phase<R>) -> String {
    let rounds: Vec<String> = phase
        .stats
        .iter()
        .map(|s| {
            format!(
                "{:.0}/{:.2}",
                s.processed as f64 / s.wall_s,
                per_frame(s.system_cpu_ns as f64, s.processed) / 1e3
            )
        })
        .collect();
    format!(
        "{name} rounds (frames/s / cpu us per frame), host steal {:.1} %: {}",
        phase.steal_share * 100.0,
        rounds.join(" ")
    )
}

/// One line with the spread of a phase's idle set-up timings.
fn setups_note<R>(phase: &Phase<R>) -> String {
    let us = |p: f64| percentile(&phase.setups, p) * 1e6;
    format!(
        "idle set-ups: {} timed, us min {:.1} p25 {:.1} p50 {:.1} p75 {:.1} max {:.1}",
        phase.setups.len(),
        us(0.0),
        us(25.0),
        us(50.0),
        us(75.0),
        us(100.0)
    )
}

/// The end-to-end metrics of an untraced phase: the median round, and
/// the fastest idle set-up between the rounds. On a shared host these
/// ~100 µs set-up timings shift by up to 2x for seconds at a time with
/// the host's disk and scheduler, and the fastest follows the code.
fn end_to_end<R>(phase: &Phase<R>) -> Metrics {
    let mut m = Metrics::default();
    let fps: Vec<f64> = phase
        .stats
        .iter()
        .map(|s| s.processed as f64 / s.wall_s)
        .collect();
    let cpu: Vec<f64> = phase
        .stats
        .iter()
        .map(|s| per_frame(s.system_cpu_ns as f64, s.processed) / 1_000.0)
        .collect();
    let offered: u64 = phase.stats.iter().map(|s| s.offered).sum();
    m.set("frames_per_s", median(&fps));
    m.set("cpu_us_per_frame", median(&cpu));
    m.set(
        "delivered_frac",
        per_frame(phase.processed() as f64, offered),
    );
    m.set("setup_s", percentile(&phase.setups, 0.0));
    m.set(
        "mem_peak_mib",
        median(&phase.mem_growth_bytes) / (1024.0 * 1024.0),
    );
    m
}

/// Everything a run produces.
struct Outcome {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    /// End-to-end metrics of the untraced phase.
    e2e: Metrics,
    /// Per-layer metrics, when traced.
    layers: Option<Metrics>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

/// Correctness checks; a failed one fails the run.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
    passed: usize,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }
}

/// The golden decision log of `streams`, served in-process.
fn golden_log(streams: &[mobisense_serve::ClientStream], break_golden: bool) -> (String, u64) {
    let (decisions, _) = serve_streams(
        &ServeConfig::default(),
        streams,
        &mut mobisense_telemetry::NoopSink,
    );
    let mut log = decision_log_csv(&decisions);
    if break_golden {
        // Flip one digit of the last decision's row.
        if let Some(pos) = log.trim_end().rfind(|c: char| c.is_ascii_digit()) {
            let flipped = if &log[pos..pos + 1] == "0" { "1" } else { "0" };
            log.replace_range(pos..pos + 1, flipped);
        }
    }
    (log, decisions.len() as u64)
}

/// The percentile rule applied to a program histogram: the median and
/// the highest percentile up to `want` that leaves at least ten
/// samples beyond it.
fn hist_tail(h: &Histogram, want: f64) -> (f64, f64, f64) {
    let pct = metrics::tail_pct(h.count() as usize, want);
    (
        h.quantile(0.5).unwrap_or(0.0),
        h.quantile(pct / 100.0).unwrap_or(0.0),
        pct,
    )
}

/// The merge of one or more program histograms of the same buckets.
fn merged<'a>(mut hists: impl Iterator<Item = &'a Histogram>) -> Histogram {
    let mut out = hists
        .next()
        .expect("a phase runs at least one round")
        .clone();
    for h in hists {
        out.merge(h);
    }
    out
}

fn sum_group(rounds: &[&BTreeMap<&'static str, TaskCounters>], group: &str) -> TaskCounters {
    let mut out = TaskCounters::default();
    for c in rounds.iter().filter_map(|g| g.get(group)) {
        out.add(c);
    }
    out
}

/// Sets `<prefix>.cpu_ns_per_frame`, `.wakeups_per_kframe` and
/// `.runq_ns_per_frame` from a thread group's counters.
fn set_thread_metrics(m: &mut Metrics, names: [&'static str; 3], c: TaskCounters, frames: u64) {
    m.set(names[0], per_frame(c.cpu_ns as f64, frames));
    m.set(names[1], per_frame(c.wakeups as f64 * 1_000.0, frames));
    if !names[2].is_empty() {
        m.set(names[2], per_frame(c.runq_ns as f64, frames));
    }
}

/// Metrics every workload reports the same way from its traced phase.
struct Common<'a> {
    groups: Vec<&'a BTreeMap<&'static str, TaskCounters>>,
    processed: u64,
    depth: Histogram,
    latency: Histogram,
    fault_in: Histogram,
    stages: mobisense_telemetry::StageHistograms,
    decisions: Vec<f64>,
    restored: u64,
    hibernated: Vec<f64>,
}

fn common_metrics(m: &mut Metrics, c: &Common, pass: &layers::LayerPass) {
    let frames = c.processed;
    set_thread_metrics(
        m,
        [
            "edge.reactor.cpu_ns_per_frame",
            "edge.reactor.wakeups_per_kframe",
            "edge.reactor.runq_ns_per_frame",
        ],
        sum_group(&c.groups, "edge-reactor"),
        frames,
    );
    set_thread_metrics(
        m,
        [
            "serve.worker.cpu_ns_per_frame",
            "serve.worker.wakeups_per_kframe",
            "serve.worker.runq_ns_per_frame",
        ],
        sum_group(&c.groups, "shard-worker"),
        frames,
    );
    set_thread_metrics(
        m,
        [
            "serve.recording.cpu_ns_per_frame",
            "serve.recording.wakeups_per_kframe",
            "",
        ],
        sum_group(&c.groups, "flight-recorder"),
        frames,
    );
    m.set("edge.conn.feed_ns_per_frame", pass.feed_ns);
    m.set("serve.wire.decode_ns", pass.decode_ns);
    let (d50, d99, _) = hist_tail(&c.depth, 99.0);
    m.set("serve.queue.depth_p50", d50);
    m.set("serve.queue.depth_p99", d99);
    m.set(
        "serve.stage.queue_wait_p50_ns",
        c.stages.get(Stage::Dequeue).quantile(0.5).unwrap_or(0.0),
    );
    m.set(
        "serve.stage.classify_p50_ns",
        c.stages.get(Stage::Classify).quantile(0.5).unwrap_or(0.0),
    );
    m.set(
        "serve.stage.decide_p50_ns",
        c.stages.get(Stage::Decide).quantile(0.5).unwrap_or(0.0),
    );
    let (l50, l99, _) = hist_tail(&c.latency, 99.0);
    m.set("serve.decision_latency_p50_us", l50 / 1_000.0);
    m.set("serve.decision_latency_p99_us", l99 / 1_000.0);
    m.set("serve.decisions", median(&c.decisions));
    m.set("core.pipeline.observe_ns", pass.observe_ns);
    let (f50, f99, _) = hist_tail(&c.fault_in, 99.0);
    m.set("session.fault_in_p50_us", f50 / 1_000.0);
    m.set("session.fault_in_p99_us", f99 / 1_000.0);
    m.set(
        "session.fault_in_share",
        per_frame(c.restored as f64, frames),
    );
    m.set("session.hibernated", median(&c.hibernated));
    m.set("store.pager.page_outs", median(&c.hibernated));
    m.set("session.codec.encode_ns", pass.encode_ns);
    m.set("session.codec.decode_ns", pass.decode_snapshot_ns);
    m.set("store.writer.append_ns", pass.append_ns);
    m.set("store.writer.seal_ms", pass.seal_ms);
}

/// Sets the two reconciliation metrics.
fn ledger(m: &mut Metrics, layer_ns: &[f64], cpu_us_untraced: f64, overhead_pct: f64) {
    m.set(
        "ledger.unattributed_share",
        metrics::unattributed_share(layer_ns, cpu_us_untraced),
    );
    m.set("telemetry.trace_overhead_pct", overhead_pct);
}

fn overhead_pct<A, B>(untraced: &Phase<A>, traced: &Phase<B>) -> f64 {
    let base = untraced.process_cpu_per_frame();
    if base <= 0.0 {
        0.0
    } else {
        (traced.process_cpu_per_frame() / base - 1.0) * 100.0
    }
}

/// Seconds per phase: a traced run splits `--seconds` between its
/// untraced and traced phases, so every run takes about as long.
fn phase_secs(opts: &Opts) -> u64 {
    if opts.trace {
        (opts.seconds / 2).max(1)
    } else {
        opts.seconds
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `bytes` cut to at most `frames` whole frames.
fn pass_slice(bytes: &[u8], frame_len: usize, frames: usize) -> &[u8] {
    &bytes[..bytes.len().min(frames * frame_len) / frame_len * frame_len]
}

fn run_tcp(
    opts: &Opts,
    scale: &Scale,
    base: &Base,
    sampler: &Sampler,
    work: &WorkDir,
) -> io::Result<Outcome> {
    let recorded = opts.workload == Workload::TcpRecorded;
    let (clients, steps, min_rounds) = if recorded {
        (scale.recorded_clients, steps_for(scale.recorded_secs), 1)
    } else {
        (
            scale.flood_clients,
            steps_for(scale.flood_secs),
            scale.min_rounds,
        )
    };
    let serve = ServeConfig {
        snapshot: recorded.then(SnapshotPolicy::default),
        ..ServeConfig::default()
    };
    let frame_len = base.frame_len();
    // The paced loadgen sleeps most of the time, so it gets one
    // connection per core. The flood runs on one connection: on a
    // 2-core host a second busy sender thread competes with the reactor
    // and both workers, and throughput then swings 10 % run to run.
    let conns = if recorded { nproc() } else { 1 };
    let inputs = conn_inputs(base, clients, conns, steps);
    let mut notes = vec![format!(
        "inputs: {clients} clients on {} connection(s), {steps} frames each ({} frames, {:.1} MiB)",
        inputs.len(),
        inputs.iter().map(|c| c.frames(frame_len)).sum::<usize>(),
        inputs.iter().map(|c| c.bytes.len()).sum::<usize>() as f64 / (1024.0 * 1024.0)
    )];

    let mut epoch = 0u64;
    let phase = |traced: bool, epoch: &mut u64| {
        run_phase(
            phase_secs(opts),
            min_rounds,
            traced,
            sampler,
            epoch,
            if traced { 0 } else { scale.setup_batch },
            |k| {
                let dir = work.path(&format!("setup-{k}"));
                let secs = tcp::setup_only(&serve, recorded.then_some(dir.as_path()));
                let _ = std::fs::remove_dir_all(&dir);
                secs
            },
            |spans, e| {
                let dir = work.path(&format!("recorded-{e}"));
                let setup = TcpSetup {
                    serve: &serve,
                    record_dir: recorded.then_some(dir.as_path()),
                    traced,
                };
                let r = tcp::round(&setup, &inputs, frame_len, sampler, e, spans)?;
                let s = RoundStats {
                    wall_s: r.wall_s,
                    offered: r.offered,
                    processed: r.report.serve.frames_processed,
                    system_cpu_ns: system_cpu(&r.groups),
                };
                Ok(((r, dir), s))
            },
        )
    };
    let untraced = phase(false, &mut epoch)?;
    notes.push(rounds_note("untraced", &untraced));
    notes.push(setups_note(&untraced));
    let traced = if opts.trace {
        Some(phase(true, &mut epoch)?)
    } else {
        None
    };

    // Correctness, after measuring so the golden run's heap stays out
    // of the memory figure.
    let streams = base.streams(clients, |_| (0..steps).collect());
    let (golden, golden_decisions) = golden_log(&streams, opts.break_golden);
    drop(streams);
    notes.push(format!(
        "golden: {golden_decisions} decisions (in-process serve_streams)"
    ));
    let mut checks = Checks::default();
    let mut attempted = 0;
    let mut failed = 0;
    // (store bytes, seconds) of each traced round's verification read.
    let mut traced_reads = Vec::new();
    for (name, phase) in [("untraced", Some(&untraced)), ("traced", traced.as_ref())] {
        let Some(phase) = phase else { continue };
        for (k, (r, dir)) in phase.rounds.iter().enumerate() {
            let at = || format!("{name} round {k}");
            let rep = &r.report;
            attempted += r.offered;
            failed += r.offered - rep.serve.frames_processed.min(r.offered);
            checks.check(r.log == golden, || {
                format!("{}: decision log differs from the golden log", at())
            });
            checks.check(rep.conserved(), || {
                format!("{}: accepted != processed + shed + rejected", at())
            });
            checks.check(rep.stats.frames == r.offered, || {
                format!(
                    "{}: {} frames offered, {} accepted",
                    at(),
                    r.offered,
                    rep.stats.frames
                )
            });
            checks.check(rep.truncated_bytes == 0, || {
                format!("{}: {} bytes truncated", at(), rep.truncated_bytes)
            });
            checks.check(rep.serve.decisions > 0, || {
                format!("{}: no decisions (vacuous run)", at())
            });
            if let Some(store) = &r.store {
                let rec = tcp::recover(dir)?;
                checks.check(
                    rec.complete && rec.frames == r.offered && store.written == r.offered,
                    || {
                        format!(
                            "{}: store recovered {} of {} offered frames (complete: {})",
                            at(),
                            rec.frames,
                            r.offered,
                            rec.complete
                        )
                    },
                );
                checks.check(store.recorder.dropped == 0, || {
                    format!("{}: recorder dropped frames", at())
                });
                if name == "traced" {
                    traced_reads.push((store.bytes, rec.secs));
                }
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    notes.push(format!(
        "checks: {} passed, {} failed",
        checks.passed,
        checks.failures.len()
    ));

    let layers = if let Some(traced) = &traced {
        let pass_bytes = pass_slice(&inputs[0].bytes, frame_len, scale.pass_frames);
        let pass = layers::run(pass_bytes, frame_len, &serve, &work.path("layer-pass"))?;
        let rounds: Vec<&tcp::TcpRound> = traced.rounds.iter().map(|(r, _)| r).collect();
        let c = Common {
            groups: rounds.iter().map(|r| &r.groups).collect(),
            processed: traced.processed(),
            depth: merged(rounds.iter().map(|r| &r.report.serve.depth)),
            latency: merged(rounds.iter().map(|r| &r.report.serve.latency_ns)),
            fault_in: merged(rounds.iter().map(|r| &r.report.serve.fault_in_ns)),
            stages: mobisense_telemetry::StageHistograms::new(),
            decisions: rounds
                .iter()
                .map(|r| r.report.serve.decisions as f64)
                .collect(),
            restored: 0,
            hibernated: vec![0.0],
        };
        let mut m = Metrics::default();
        common_metrics(&mut m, &c, &pass);
        let edge_bytes: u64 = rounds.iter().map(|r| r.report.stats.bytes).sum();
        let edge_frames: u64 = rounds.iter().map(|r| r.report.stats.frames).sum();
        m.set(
            "edge.bytes_per_frame",
            per_frame(edge_bytes as f64, edge_frames),
        );
        m.set(
            "edge.resyncs",
            rounds.iter().map(|r| r.report.stats.resyncs as f64).sum(),
        );
        m.set(
            "edge.finish_ms",
            median(&traced.spans.durations("edge_finish")) / 1e6,
        );
        m.set("serve.engine.submit_ns_p50", 0.0);
        m.set("serve.engine.submit_ns_p99", 0.0);
        let rec_stats: Vec<_> = rounds.iter().filter_map(|r| r.store.as_ref()).collect();
        m.set(
            "serve.recording.max_depth",
            rec_stats
                .iter()
                .map(|s| s.recorder.max_depth as f64)
                .fold(0.0, f64::max),
        );
        m.set(
            "serve.recording.dropped",
            rec_stats.iter().map(|s| s.recorder.dropped as f64).sum(),
        );
        let snapshots: Vec<&String> = rounds
            .iter()
            .flat_map(|r| &r.report.serve.snapshots)
            .collect();
        let ops = sum_group(&c.groups, "serve-ops");
        m.set(
            "serve.ops.cpu_ns_per_snapshot",
            per_frame(ops.cpu_ns as f64, snapshots.len() as u64),
        );
        m.set(
            "serve.ops.snapshot_bytes",
            per_frame(
                snapshots.iter().map(|s| s.len() as f64).sum(),
                snapshots.len() as u64,
            ),
        );
        m.set("session.resident_peak_bytes", 0.0);
        let store_bytes: u64 = rec_stats.iter().map(|s| s.bytes).sum();
        let store_frames: u64 = rec_stats.iter().map(|s| s.written).sum();
        m.set(
            "store.bytes_per_frame",
            per_frame(store_bytes as f64, store_frames),
        );
        m.set(
            "store.segments_sealed",
            rec_stats.iter().map(|s| s.segments_sealed as f64).sum(),
        );
        // The recorded store's own verification read when there is
        // one; the layer pass's read otherwise.
        let recover = if traced_reads.is_empty() {
            pass.recover_mib_per_s
        } else {
            let bytes: u64 = traced_reads.iter().map(|(b, _)| b).sum();
            let secs: f64 = traced_reads.iter().map(|(_, s)| s).sum();
            bytes as f64 / (1024.0 * 1024.0) / secs.max(1e-9)
        };
        m.set("store.recover_mib_per_s", recover);
        let offered: u64 = rounds.iter().map(|r| r.offered).sum();
        let send_s: f64 = rounds.iter().map(|r| r.send_s).sum();
        m.set("loadgen.offered_fps", offered as f64 / send_s.max(1e-9));
        let late: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.lateness_ns.iter().copied())
            .collect();
        let late_tail = tail(&late, 99.0);
        m.set(
            "loadgen.send_late_p99_ms",
            late_tail.map_or(0.0, |t| t.value / 1e6),
        );
        let writes: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.write_ns.iter().copied())
            .collect();
        let write_tail = tail(&writes, 99.0);
        m.set(
            "loadgen.write_block_p99_us",
            write_tail.map_or(0.0, |t| t.value / 1e3),
        );
        for (what, t) in [
            ("loadgen lateness (ms)", late_tail.map(|t| (t, 1e6))),
            ("socket write (us)", write_tail.map(|t| (t, 1e3))),
        ] {
            if let Some((t, div)) = t {
                notes.push(format!(
                    "{what}: p50 {:.3}, p{} {:.3} over {} samples",
                    t.p50 / div,
                    t.pct,
                    t.value / div,
                    t.n
                ));
            }
        }
        // The per-frame path: assembly (with decode) and classify
        // everywhere, plus the store append and amortised seal when
        // recording.
        let mut path = vec![pass.feed_ns, pass.observe_ns];
        if recorded {
            path.push(pass.append_ns + pass.seal_ms * 1e6 / pass.frames_per_segment.max(1.0));
        }
        let cpu_untraced = end_to_end(&untraced).get("cpu_us_per_frame").unwrap_or(0.0);
        ledger(&mut m, &path, cpu_untraced, overhead_pct(&untraced, traced));
        notes.push(layer_note(&pass));
        notes.extend(traced.spans.summary());
        Some(m)
    } else {
        None
    };
    Ok(Outcome {
        failures: checks.failures,
        attempted,
        failed,
        e2e: end_to_end(&untraced),
        layers,
        notes,
    })
}

fn layer_note(pass: &layers::LayerPass) -> String {
    format!(
        "layer pass over {} frames / {} sessions: feed {:.0} ns, decode {:.0} ns, observe {:.0} ns, \
         snapshot {:.0} ns, encode {:.0} ns, page-out {:.0} ns, page-in {:.0} ns, decode-snapshot {:.0} ns, \
         restore {:.0} ns, append {:.0} ns, seal {:.2} ms, recover {:.0} MiB/s",
        pass.frames,
        pass.sessions,
        pass.feed_ns,
        pass.decode_ns,
        pass.observe_ns,
        pass.snapshot_ns,
        pass.encode_ns,
        pass.page_out_ns,
        pass.page_in_ns,
        pass.decode_snapshot_ns,
        pass.restore_ns,
        pass.append_ns,
        pass.seal_ms,
        pass.recover_mib_per_s
    )
}

fn run_churn(
    opts: &Opts,
    scale: &Scale,
    base: &Base,
    sampler: &Sampler,
    work: &WorkDir,
) -> io::Result<Outcome> {
    let steps = steps_for(scale.churn_secs);
    let schedule = churn_schedule(&scale.churn, steps, opts.seed);
    let clients = scale.churn.clients;
    let mut notes = vec![format!(
        "inputs: {clients} clients (every {}th continuous), {} frames over {steps} steps, {} resumed bursts",
        scale.churn.continuous_every,
        schedule.frames(),
        schedule.resumed_bursts
    )];
    let cfg = |traced: bool| ServeConfig {
        hibernation: HibernationConfig {
            idle_after: Some(IDLE_AFTER),
            max_hot: None,
            policy: RetirePolicy::Hibernate,
        },
        stage_sampling: if traced { 16 } else { 0 },
        ..ServeConfig::default()
    };

    let mut epoch = 0u64;
    let phase = |traced: bool, epoch: &mut u64| {
        let cfg = cfg(traced);
        run_phase(
            phase_secs(opts),
            scale.min_rounds,
            traced,
            sampler,
            epoch,
            if traced { 0 } else { scale.setup_batch },
            |k| {
                let dir = work.path(&format!("setup-{k}"));
                let secs = churn::setup_only(&cfg, &dir);
                let _ = std::fs::remove_dir_all(&dir);
                secs
            },
            |spans, e| {
                let dir = work.path(&format!("churn-{e}"));
                let r = churn::round(&cfg, base, &schedule, &dir, sampler, e, spans)?;
                // Deleted now, so the next round does not wait on this
                // round's page-outs being written back.
                let _ = std::fs::remove_dir_all(&dir);
                let s = RoundStats {
                    wall_s: r.wall_s,
                    offered: r.offered,
                    processed: r.report.frames_processed,
                    system_cpu_ns: system_cpu(&r.groups),
                };
                Ok((r, s))
            },
        )
    };
    let untraced = phase(false, &mut epoch)?;
    notes.push(rounds_note("untraced", &untraced));
    notes.push(setups_note(&untraced));
    let traced = if opts.trace {
        Some(phase(true, &mut epoch)?)
    } else {
        None
    };

    let per_client = schedule.steps_per_client(clients);
    let streams = base.streams(clients, |c| per_client[c as usize].clone());
    let (golden, golden_decisions) = golden_log(&streams, opts.break_golden);
    drop(streams);
    notes.push(format!(
        "golden: {golden_decisions} decisions (in-process serve_streams, sessions resident)"
    ));
    let mut checks = Checks::default();
    let mut attempted = 0;
    let mut failed = 0;
    for (name, phase) in [("untraced", Some(&untraced)), ("traced", traced.as_ref())] {
        let Some(phase) = phase else { continue };
        for (k, r) in phase.rounds.iter().enumerate() {
            let at = || format!("{name} round {k}");
            let rep = &r.report;
            attempted += r.offered;
            failed += r.offered - rep.frames_processed.min(r.offered);
            checks.check(r.log == golden, || {
                format!("{}: decision log differs from the golden log", at())
            });
            checks.check(
                rep.frames_in == r.offered && rep.frames_in == rep.frames_processed + rep.shed,
                || format!("{}: accepted != processed + shed", at()),
            );
            checks.check(rep.decisions > 0, || {
                format!("{}: no decisions (vacuous run)", at())
            });
            checks.check(rep.sessions.restored > 0, || {
                format!("{}: no session faulted in", at())
            });
        }
    }
    notes.push(format!(
        "checks: {} passed, {} failed",
        checks.passed,
        checks.failures.len()
    ));

    let layers = if let Some(traced) = &traced {
        let mut pass_bytes = Vec::new();
        'fill: for (step, active) in schedule.active.iter().enumerate() {
            for &c in active {
                if pass_bytes.len() >= scale.pass_frames * base.frame_len() {
                    break 'fill;
                }
                base.push_frame(c, step, &mut pass_bytes);
            }
        }
        let pass = layers::run(
            &pass_bytes,
            base.frame_len(),
            &cfg(false),
            &work.path("layer-pass"),
        )?;
        let rounds: Vec<&churn::ChurnRound> = traced.rounds.iter().collect();
        let mut stages = mobisense_telemetry::StageHistograms::new();
        for r in &rounds {
            stages.merge(&r.report.stages);
        }
        let c = Common {
            groups: rounds.iter().map(|r| &r.groups).collect(),
            processed: traced.processed(),
            depth: merged(rounds.iter().map(|r| &r.report.depth)),
            latency: merged(rounds.iter().map(|r| &r.report.latency_ns)),
            fault_in: merged(rounds.iter().map(|r| &r.report.fault_in_ns)),
            stages,
            decisions: rounds.iter().map(|r| r.report.decisions as f64).collect(),
            restored: rounds.iter().map(|r| r.report.sessions.restored).sum(),
            hibernated: rounds
                .iter()
                .map(|r| r.report.sessions.hibernated as f64)
                .collect(),
        };
        let mut m = Metrics::default();
        common_metrics(&mut m, &c, &pass);
        for name in [
            "edge.bytes_per_frame",
            "edge.resyncs",
            "edge.finish_ms",
            "serve.recording.max_depth",
            "serve.recording.dropped",
            "serve.ops.cpu_ns_per_snapshot",
            "serve.ops.snapshot_bytes",
            "loadgen.send_late_p99_ms",
            "loadgen.write_block_p99_us",
        ] {
            m.set(name, 0.0);
        }
        let submits: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.submit_ns.iter().copied())
            .collect();
        let submit = tail(&submits, 99.0);
        m.set("serve.engine.submit_ns_p50", submit.map_or(0.0, |t| t.p50));
        m.set(
            "serve.engine.submit_ns_p99",
            submit.map_or(0.0, |t| t.value),
        );
        if let Some(t) = submit {
            notes.push(format!(
                "submit (ns): p50 {:.0}, p{} {:.0} over {} samples",
                t.p50, t.pct, t.value, t.n
            ));
        }
        let (_, _, fpct) = hist_tail(&c.fault_in, 99.0);
        notes.push(format!(
            "fault-ins: {} ({} reported at p{fpct})",
            c.fault_in.count(),
            "session.fault_in_p99_us"
        ));
        m.set(
            "session.resident_peak_bytes",
            rounds
                .iter()
                .map(|r| r.resident_peak_bytes as f64)
                .fold(0.0, f64::max),
        );
        let store_bytes: u64 = rounds.iter().map(|r| r.store_bytes).sum();
        m.set(
            "store.bytes_per_frame",
            per_frame(store_bytes as f64, c.processed),
        );
        m.set(
            "store.segments_sealed",
            rounds.iter().map(|r| r.segments_sealed as f64).sum(),
        );
        m.set("store.recover_mib_per_s", pass.recover_mib_per_s);
        let offered: u64 = rounds.iter().map(|r| r.offered).sum();
        let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
        m.set("loadgen.offered_fps", offered as f64 / wall.max(1e-9));
        // The per-frame path: classify every frame; fault-ins page a
        // snapshot in, decode and restore it; page-outs snapshot,
        // encode and append it.
        let fault_share = per_frame(c.restored as f64, c.processed);
        let out_share = per_frame(
            rounds
                .iter()
                .map(|r| r.report.sessions.hibernated as f64)
                .sum(),
            c.processed,
        );
        let path = [
            pass.observe_ns,
            fault_share * (pass.page_in_ns + pass.decode_snapshot_ns + pass.restore_ns),
            out_share * (pass.snapshot_ns + pass.encode_ns + pass.page_out_ns),
        ];
        let cpu_untraced = end_to_end(&untraced).get("cpu_us_per_frame").unwrap_or(0.0);
        ledger(&mut m, &path, cpu_untraced, overhead_pct(&untraced, traced));
        notes.push(layer_note(&pass));
        notes.extend(traced.spans.summary());
        Some(m)
    } else {
        None
    };
    Ok(Outcome {
        failures: checks.failures,
        attempted,
        failed,
        e2e: end_to_end(&untraced),
        layers,
        notes,
    })
}

/// Sim-clock lifetime the base fleet must cover for `opts`.
fn base_secs(opts: &Opts, scale: &Scale) -> u64 {
    match opts.workload {
        Workload::TcpFlood => scale.flood_secs,
        Workload::TcpRecorded => scale.recorded_secs,
        Workload::SessionChurn => scale.churn_secs,
    }
}

fn run(opts: &Opts, scale: &Scale) -> io::Result<Outcome> {
    let work = WorkDir::create()?;
    let t = Instant::now();
    let base = Base::generate(opts.seed, base_secs(opts, scale) * SECOND);
    let gen_s = t.elapsed().as_secs_f64();
    let sampler = Sampler::start(Duration::from_millis(5));
    let out = match opts.workload {
        Workload::TcpFlood | Workload::TcpRecorded => run_tcp(opts, scale, &base, &sampler, &work),
        Workload::SessionChurn => run_churn(opts, scale, &base, &sampler, &work),
    };
    sampler.stop();
    let mut out = out?;
    out.notes.insert(
        0,
        format!(
            "base fleet: {} clients x {} steps generated from seed {} in {gen_s:.2} s (not timed); cpus: {}",
            inputs::BASE_CLIENTS,
            base.steps(),
            opts.seed,
            nproc()
        ),
    );
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&opts, &Scale::full()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for n in &out.notes {
        println!("# {n}");
    }
    // The untraced end-to-end figures are printed on traced runs too,
    // next to the ledger they feed.
    for (name, unit) in metrics::END_TO_END {
        println!("{name} = {:.6} {unit}", out.e2e.get(name).unwrap_or(0.0));
    }
    let reported = match &out.layers {
        Some(layers) if opts.trace => layers,
        _ => &out.e2e,
    };
    if opts.trace {
        for (name, unit) in metrics::PER_LAYER {
            println!("{name} = {:.6} {unit}", reported.get(name).unwrap_or(0.0));
        }
    }
    for f in &out.failures {
        println!("# CHECK FAILED: {f}");
    }
    let missing = metrics::missing(reported, opts.trace);
    for name in &missing {
        println!("# METRIC MISSING: {name}");
    }
    let correct = out.failures.is_empty() && missing.is_empty();
    println!(
        "{}",
        metrics::result_line(
            correct,
            out.attempted.max(1),
            out.failed,
            reported,
            opts.trace
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A few seconds per workload: small fleets, but lifetimes still
    /// past the 6 s warm-up so the checks are not vacuous.
    fn tiny() -> Scale {
        Scale {
            flood_clients: 64,
            flood_secs: 8,
            recorded_clients: 64,
            recorded_secs: 8,
            churn: ChurnShape {
                clients: 512,
                continuous_every: 10,
                min_gap: 25,
                gap_alpha: 1.5,
                max_burst: 4,
            },
            churn_secs: 8,
            pass_frames: 3_000,
            min_rounds: 1,
            setup_batch: 2,
        }
    }

    fn opts(workload: Workload, trace: bool, break_golden: bool) -> Opts {
        Opts {
            workload,
            seed: 5,
            seconds: 1,
            trace,
            break_golden,
        }
    }

    #[test]
    fn parses_the_command_line() {
        let args: Vec<String> = "--workload session_churn --seed 9 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_args(&args).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Workload::SessionChurn, 9, 20, true)
        );
        assert!(parse_args(&args[..4]).is_err(), "--seconds is required");
        assert!(parse_args(&["--workload".into(), "udp".into()]).is_err());
    }

    /// Every named metric, end-to-end and per-layer, is emitted with its
    /// unit, and every check passes, on each workload at a tiny size.
    #[test]
    fn tiny_runs_emit_every_metric_with_its_unit() {
        for workload in [
            Workload::TcpFlood,
            Workload::TcpRecorded,
            Workload::SessionChurn,
        ] {
            let out = run(&opts(workload, true, false), &tiny()).unwrap();
            assert!(out.failures.is_empty(), "{workload:?}: {:?}", out.failures);
            let layers = out.layers.as_ref().expect("traced run reports layers");
            for (metrics, trace) in [(&out.e2e, false), (layers, true)] {
                assert!(metrics::missing(metrics, trace).is_empty(), "{workload:?}");
                let line = metrics::result_line(true, out.attempted, out.failed, metrics, trace);
                for (name, unit) in metrics::required(trace) {
                    let needle = format!("\"{name}\": {{\"value\": ");
                    let at = line
                        .find(&needle)
                        .unwrap_or_else(|| panic!("{name} missing"));
                    let rest = &line[at + needle.len()..];
                    assert!(
                        rest.contains(&format!("\"unit\": \"{unit}\"}}")),
                        "{name} without its unit"
                    );
                }
            }
            assert!(out.e2e.get("frames_per_s").unwrap() > 0.0);
            assert_eq!(out.e2e.get("delivered_frac"), Some(1.0));
            assert!(layers.get("serve.decisions").unwrap() > 0.0);
            assert!(out.attempted > 0 && out.failed == 0);
            if workload == Workload::SessionChurn {
                assert!(layers.get("session.fault_in_share").unwrap() > 0.0);
                assert!(layers.get("serve.engine.submit_ns_p50").unwrap() > 0.0);
            }
            if workload == Workload::TcpRecorded {
                assert!(layers.get("serve.recording.cpu_ns_per_frame").unwrap() > 0.0);
                assert!(layers.get("store.segments_sealed").unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn a_wrong_golden_fails_the_run() {
        for workload in [Workload::TcpFlood, Workload::SessionChurn] {
            let out = run(&opts(workload, false, true), &tiny()).unwrap();
            assert!(
                out.failures.iter().any(|f| f.contains("golden")),
                "{workload:?}: {:?}",
                out.failures
            );
        }
    }
}
