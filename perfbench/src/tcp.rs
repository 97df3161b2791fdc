//! The two socket workloads: one round binds an [`Edge`], plays every
//! loadgen connection's bytes into it over loopback TCP, and finishes.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mobisense_edge::{Edge, EdgeConfig, EdgeReport};
use mobisense_serve::{decision_log_csv, Recorder, RecorderStats, RecordingConfig, ServeConfig};
use mobisense_store::{spawn_flight_recorder, FlightRecorder, StoreConfig, TraceReader};
use mobisense_telemetry::NoopSink;

use crate::inputs::{ConnInput, STEP};
use crate::metrics::lateness_ns;
use crate::procstat::{Sampler, TaskCounters};
use crate::spans::SpanLog;

/// What the recorded workload's store writer reported.
pub struct StoreOutcome {
    /// Frames the store writer appended.
    pub written: u64,
    /// Segments sealed by the recorder's writer.
    pub segments_sealed: u64,
    /// Bytes of the sealed segment files.
    pub bytes: u64,
    /// Recording-channel counters.
    pub recorder: RecorderStats,
}

/// What a recovering read of a recorded store found.
pub struct Recovered {
    /// Frames salvaged.
    pub frames: u64,
    /// Whether every segment was sealed and intact.
    pub complete: bool,
    /// Seconds the read took.
    pub secs: f64,
}

/// Reads a recorded store back with `TraceReader::recover`.
pub fn recover(dir: &Path) -> io::Result<Recovered> {
    let t = Instant::now();
    let recovery = TraceReader::open(dir)?.recover()?;
    Ok(Recovered {
        frames: recovery.frames.len() as u64,
        complete: recovery.complete(),
        secs: t.elapsed().as_secs_f64(),
    })
}

/// One measured round.
pub struct TcpRound {
    /// First frame offered → `finish()` returned every decision.
    pub wall_s: f64,
    /// Frames the loadgen offered.
    pub offered: u64,
    /// First frame offered → last write returned.
    pub send_s: f64,
    /// The edge's report.
    pub report: EdgeReport,
    /// The merged decision log.
    pub log: String,
    /// System thread counters of this round.
    pub groups: BTreeMap<&'static str, TaskCounters>,
    /// Loadgen lateness per frame, ns (paced only).
    pub lateness_ns: Vec<f64>,
    /// Duration of each socket write call, ns (traced rounds only).
    pub write_ns: Vec<f64>,
    /// The recorded store, when recording.
    pub store: Option<StoreOutcome>,
}

/// Frames of a paced connection due by `now_ns` after the origin.
fn due_by(now_ns: u64, per_step: usize, total: usize) -> usize {
    let step = STEP;
    let ticks = (now_ns / step) as usize;
    let within = now_ns % step;
    let in_tick = (within as u128 * per_step as u128 / step as u128) as usize + 1;
    (ticks * per_step + in_tick.min(per_step)).min(total)
}

/// Due time of frame `f` of a paced connection, ns after the origin.
fn due_ns(f: usize, per_step: usize) -> u64 {
    let tick = (f / per_step) as u64;
    let slot = (f % per_step) as u64;
    tick * STEP + (slot * STEP).div_ceil(per_step as u64)
}

/// Writes `buf` whole, timing each `write` call when `times` is given.
fn write_whole(sock: &mut TcpStream, buf: &[u8], times: Option<&mut Vec<f64>>) -> io::Result<()> {
    let Some(times) = times else {
        return sock.write_all(buf);
    };
    let mut off = 0;
    while off < buf.len() {
        let t = Instant::now();
        match sock.write(&buf[off..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        times.push(t.elapsed().as_nanos() as f64);
    }
    Ok(())
}

struct ConnOut {
    last_write: Instant,
    lateness_ns: Vec<f64>,
    write_ns: Vec<f64>,
    spans: SpanLog,
}

/// One loadgen connection: connect, wait for the common start, offer.
/// Closed loop (`paced` false), it writes its whole buffer at once and
/// the kernel's socket buffers push back. Open loop, each step's frames
/// go out spread evenly over the 20 ms tick, on schedule whatever the
/// system does.
fn drive_conn(
    addr: SocketAddr,
    input: &ConnInput,
    frame_len: usize,
    paced: bool,
    gates: &(Barrier, Barrier),
    origin: &std::sync::OnceLock<Instant>,
    traced: bool,
) -> io::Result<ConnOut> {
    let connected = TcpStream::connect(addr).and_then(|s| {
        if paced {
            s.set_nodelay(true)?;
        }
        Ok(s)
    });
    // Pass both gates even on error, or the other threads would wait
    // forever.
    gates.0.wait();
    gates.1.wait();
    let mut sock = connected?;
    let origin = *origin.get().expect("origin set before the barrier opens");
    let mut spans = SpanLog::new(origin, traced);
    let mut write_ns = Vec::new();
    let mut lateness = Vec::new();
    if paced {
        let total = input.frames(frame_len);
        lateness.reserve(total);
        let mut sent = 0;
        while sent < total {
            let now = origin.elapsed().as_nanos() as u64;
            let due = due_by(now, input.per_step, total);
            if due > sent {
                for f in sent..due {
                    lateness.push(lateness_ns(due_ns(f, input.per_step), now) as f64);
                }
                let chunk = &input.bytes[sent * frame_len..due * frame_len];
                spans.time("socket_write", None, || {
                    write_whole(&mut sock, chunk, traced.then_some(&mut write_ns))
                })?;
                sent = due;
            } else {
                let next = due_ns(sent, input.per_step);
                std::thread::sleep(Duration::from_nanos(next.saturating_sub(now)));
            }
        }
    } else {
        spans.time("socket_write", None, || {
            write_whole(&mut sock, &input.bytes, traced.then_some(&mut write_ns))
        })?;
    }
    let last_write = Instant::now();
    sock.shutdown(Shutdown::Write)?;
    Ok(ConnOut {
        last_write,
        lateness_ns: lateness,
        write_ns,
        spans,
    })
}

/// Everything a TCP round needs besides the inputs.
pub struct TcpSetup<'a> {
    /// Engine settings.
    pub serve: &'a ServeConfig,
    /// Record into a fresh store at this directory, offering open loop;
    /// without a store the loadgen floods, closed loop.
    pub record_dir: Option<&'a Path>,
    /// Record spans and per-write timings.
    pub traced: bool,
}

/// Runs one round. `spans` receives the round's spans.
pub fn round(
    setup: &TcpSetup,
    inputs: &[ConnInput],
    frame_len: usize,
    sampler: &Sampler,
    epoch: u64,
    spans: &mut SpanLog,
) -> io::Result<TcpRound> {
    sampler.set_epoch(epoch);
    let round_span = spans.open("round", None);
    let (recorder, edge) = start(setup.serve, setup.record_dir, spans, round_span)?;
    let addr = edge.tcp_addr();

    // Gate 0: every connection is up. Gate 1: the clock has started.
    let gates = (
        Barrier::new(inputs.len() + 1),
        Barrier::new(inputs.len() + 1),
    );
    let origin = std::sync::OnceLock::new();
    let offered: u64 = inputs.iter().map(|c| c.frames(frame_len) as u64).sum();
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(k, input)| {
                let (gates, origin) = (&gates, &origin);
                std::thread::Builder::new()
                    .name(format!("loadgen-{k}"))
                    .spawn_scoped(scope, move || {
                        drive_conn(
                            addr,
                            input,
                            frame_len,
                            setup.record_dir.is_some(),
                            gates,
                            origin,
                            setup.traced,
                        )
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;
        gates.0.wait();
        origin.get_or_init(Instant::now);
        gates.1.wait();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| io::Error::other("loadgen thread panicked"))?
            })
            .collect::<io::Result<Vec<ConnOut>>>()
    })?;
    let origin = *origin.get().expect("origin set");
    let last_write = outs.iter().map(|o| o.last_write).max().unwrap_or(origin);

    sampler.sample_now();
    let (decisions, report) =
        spans.time("edge_finish", round_span, || edge.finish(&mut NoopSink))?;
    let wall_s = origin.elapsed().as_secs_f64();
    sampler.sample_now();

    let store = match recorder {
        Some(rec) => {
            let (summary, stats) = spans.time("recorder_finish", round_span, || rec.finish())?;
            sampler.sample_now();
            Some(StoreOutcome {
                written: summary.frames,
                segments_sealed: summary.segments.len() as u64,
                bytes: summary.bytes,
                recorder: stats,
            })
        }
        None => None,
    };
    spans.close(round_span);

    let mut lateness = Vec::new();
    let mut write_ns = Vec::new();
    for o in outs {
        lateness.extend(o.lateness_ns);
        write_ns.extend(o.write_ns);
        spans.absorb(o.spans);
    }
    Ok(TcpRound {
        wall_s,
        offered,
        send_s: last_write.duration_since(origin).as_secs_f64(),
        log: decision_log_csv(&decisions),
        report,
        groups: sampler.groups(epoch),
        lateness_ns: lateness,
        write_ns,
        store,
    })
}

/// The system start-up: the flight recorder over a fresh store at
/// `record_dir` (when recording), then `Edge::bind`.
fn start(
    serve: &ServeConfig,
    record_dir: Option<&Path>,
    spans: &mut SpanLog,
    parent: Option<u32>,
) -> io::Result<(Option<Recorder<FlightRecorder>>, Edge)> {
    let recorder = match record_dir {
        Some(dir) => Some(spans.time("spawn_flight_recorder", parent, || {
            spawn_flight_recorder(StoreConfig::new(dir), RecordingConfig::default())
        })?),
        None => None,
    };
    let edge = spans.time("edge_bind", parent, || {
        Edge::bind(
            serve,
            &EdgeConfig::default(),
            recorder.as_ref().map(|r| r.handle()),
        )
    })?;
    Ok((recorder, edge))
}

/// Starts and finishes an idle system: one more set-up sample, with no
/// traffic.
pub fn setup_only(serve: &ServeConfig, record_dir: Option<&Path>) -> io::Result<f64> {
    let t0 = Instant::now();
    let (recorder, edge) = start(serve, record_dir, &mut SpanLog::new(t0, false), None)?;
    let secs = t0.elapsed().as_secs_f64();
    edge.finish(&mut NoopSink)?;
    if let Some(rec) = recorder {
        rec.finish()?;
    }
    Ok(secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_schedule_spreads_each_tick_evenly() {
        // 4 frames per 20 ms tick: due at 0, 5, 10, 15 ms, then 20 ms.
        assert_eq!(due_ns(0, 4), 0);
        assert_eq!(due_ns(3, 4), 15_000_000);
        assert_eq!(due_ns(4, 4), 20_000_000);
        assert_eq!(due_by(0, 4, 100), 1);
        assert_eq!(due_by(4_999_999, 4, 100), 1);
        assert_eq!(due_by(5_000_000, 4, 100), 2);
        assert_eq!(due_by(20_000_000, 4, 100), 5);
        assert_eq!(due_by(u64::MAX / 2, 4, 100), 100);
        for f in 0..40 {
            assert_eq!(
                due_by(due_ns(f, 4), 4, 100),
                f + 1,
                "frame {f} is due at its own time"
            );
        }
    }
}
