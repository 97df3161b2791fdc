//! # mobisense-bench
//!
//! Shared machinery for the benchmark harness that regenerates every
//! table and figure of the paper's evaluation. Each `benches/figXX_*.rs`
//! target is a standalone program (Cargo bench targets with
//! `harness = false`) that prints the rows/series the paper reports;
//! `cargo bench --workspace` runs them all.
//!
//! The helpers here keep the output format consistent: a header naming
//! the paper artefact and the expectation, then comma-separated rows a
//! plotting tool can ingest directly.

#![warn(missing_docs)]

pub mod report;

use mobisense_core::classifier::{Classification, ClassifierConfig, MobilityClassifier};
use mobisense_core::scenario::{Observation, Scenario};
use mobisense_mobility::MobilityMode;
use mobisense_phy::per::csi_effective_snr_db;
use mobisense_phy::tof::{TofConfig, TofSampler};
use mobisense_phy::trace::{ChannelTrace, TraceSample};
use mobisense_util::units::{Nanos, MILLISECOND};
use mobisense_util::{Cdf, DetRng};

/// Prints the standard experiment header.
pub fn header(id: &str, title: &str, expectation: &str) {
    println!("# {id}: {title}");
    println!("# paper expectation: {expectation}");
}

/// Prints a CDF as quantile rows: `label, p5, p25, p50, p75, p95`.
pub fn print_cdf_quantiles(label: &str, cdf: &Cdf) {
    let q = |p: f64| cdf.quantile(p).unwrap_or(f64::NAN);
    println!(
        "{label}, {:.3}, {:.3}, {:.3}, {:.3}, {:.3}",
        q(0.05),
        q(0.25),
        q(0.50),
        q(0.75),
        q(0.95)
    );
}

/// Prints the quantile header row matching [`print_cdf_quantiles`].
pub fn print_quantile_columns(first_column: &str) {
    println!("{first_column}, p5, p25, p50, p75, p95");
}

/// A recorded link session: channel trace plus the mobility-hint streams
/// needed to replay it against every rate-adaptation scheme under
/// *identical* channel conditions — the paper's trace-based emulation
/// methodology (section 4.3).
pub struct TraceBundle {
    /// The channel trace (CSI, SNR, distance, speed over time).
    pub trace: ChannelTrace,
    /// PHY-classifier decisions along the trace (what the paper's AP
    /// would know), as `(time, classification)` steps.
    pub phy_hints: Vec<(Nanos, Classification)>,
    /// Ground-truth device-motion flag along the trace (what a perfect
    /// accelerometer would know), sampled with the trace.
    pub motion_truth: Vec<(Nanos, bool)>,
    /// Carrier wavelength (for coherence-time computation).
    pub wavelength_m: f64,
}

impl TraceBundle {
    /// Records a trace from a scenario: one sample every `step` for
    /// `duration`, with the classifier pipeline running alongside.
    pub fn record(scenario: &mut Scenario, duration: Nanos, step: Nanos, seed: u64) -> Self {
        let wavelength_m = scenario.channel().config().wavelength();
        let mut classifier = MobilityClassifier::new(ClassifierConfig::default());
        let mut tof = TofSampler::new(
            TofConfig::default(),
            0,
            DetRng::seed_from_u64(seed ^ 0x74726163),
        );
        let mut trace = ChannelTrace::new();
        let mut phy_hints = Vec::new();
        let mut motion_truth = Vec::new();
        let mut t: Nanos = 0;
        while t <= duration {
            let obs: Observation = scenario.observe(t);
            if let Some(m) = tof.poll(t, obs.distance_m) {
                classifier.on_tof_median(m.cycles);
            }
            if let Some(c) = classifier.on_frame_csi(t, &obs.csi) {
                phy_hints.push((t, c));
            }
            motion_truth.push((t, obs.speed_mps > 0.05));
            trace.push(TraceSample {
                at: t,
                csi: obs.csi,
                snr_db: obs.snr_db,
                rssi_dbm: obs.rssi_dbm,
                distance_m: obs.distance_m,
                speed_mps: obs.speed_mps,
            });
            t += step;
        }
        TraceBundle {
            trace,
            phy_hints,
            motion_truth,
            wavelength_m,
        }
    }

    /// Link state (effective SNR + coherence time) at a trace time.
    pub fn link_state_at(&self, t: Nanos) -> mobisense_mac::link::LinkState {
        let s = self
            .trace
            .sample_at(t)
            .or_else(|| self.trace.samples().first())
            .expect("non-empty trace");
        mobisense_mac::link::LinkState {
            esnr_db: csi_effective_snr_db(&s.csi, s.snr_db),
            coherence_secs: mobisense_phy::per::coherence_time_secs(s.speed_mps, self.wavelength_m),
        }
    }

    /// The latest PHY-classifier hint at a trace time.
    pub fn phy_hint_at(&self, t: Nanos) -> Option<Classification> {
        match self.phy_hints.partition_point(|&(at, _)| at <= t) {
            0 => None,
            i => Some(self.phy_hints[i - 1].1),
        }
    }

    /// Ground-truth binary motion at a trace time, expressed as a
    /// classification an accelerometer-based scheme would derive (micro
    /// when moving — the sensor cannot tell micro from macro).
    pub fn sensor_hint_at(&self, t: Nanos) -> Option<Classification> {
        let moving = match self.motion_truth.partition_point(|&(at, _)| at <= t) {
            0 => false,
            i => self.motion_truth[i - 1].1,
        };
        moving.then(|| Classification::of(MobilityMode::Micro))
    }

    /// Trace duration.
    pub fn duration(&self) -> Nanos {
        self.trace.duration()
    }
}

/// The standard per-mode scenario set used by several figures, in the
/// paper's presentation order.
pub fn standard_modes() -> Vec<(&'static str, mobisense_core::scenario::ScenarioKind)> {
    use mobisense_core::scenario::ScenarioKind;
    use mobisense_mobility::movers::EnvIntensity;
    vec![
        ("static", ScenarioKind::Static),
        (
            "environmental",
            ScenarioKind::Environmental(EnvIntensity::Strong),
        ),
        ("micro", ScenarioKind::Micro),
        ("macro", ScenarioKind::MacroRandom),
    ]
}

/// Default trace step used by trace-based emulations (20 ms — the
/// paper's ToF sampling cadence, also plenty for channel tracking).
pub const TRACE_STEP: Nanos = 20 * MILLISECOND;

/// Telemetry dump helpers: write a [`mobisense_telemetry::Telemetry`]
/// capture to disk as JSONL events plus CSV summaries, so benches and
/// examples share one on-disk format.
pub mod dump {
    use std::io;
    use std::path::{Path, PathBuf};

    use mobisense_telemetry::{export, Telemetry};

    /// The workspace-standard dump directory, `target/telemetry`.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target").join("telemetry")
    }

    /// Files written by one [`write_capture`] call.
    #[derive(Clone, Debug)]
    pub struct DumpPaths {
        /// JSON-lines event trace (`<stem>.events.jsonl`).
        pub events_jsonl: PathBuf,
        /// Per-interval goodput series CSV (`<stem>.goodput.csv`).
        pub goodput_csv: PathBuf,
        /// Metrics registry snapshot CSV (`<stem>.metrics.csv`).
        pub metrics_csv: PathBuf,
    }

    /// Writes a telemetry capture under `dir` with the given file stem,
    /// creating the directory as needed. Three files are produced: the
    /// full event trace as JSONL, the goodput series as CSV, and the
    /// metrics registry snapshot as CSV.
    pub fn write_capture(dir: &Path, stem: &str, tel: &Telemetry) -> io::Result<DumpPaths> {
        std::fs::create_dir_all(dir)?;
        let paths = DumpPaths {
            events_jsonl: dir.join(format!("{stem}.events.jsonl")),
            goodput_csv: dir.join(format!("{stem}.goodput.csv")),
            metrics_csv: dir.join(format!("{stem}.metrics.csv")),
        };
        std::fs::write(&paths.events_jsonl, tel.to_jsonl())?;
        std::fs::write(
            &paths.goodput_csv,
            export::goodput_to_csv(&tel.goodput_series()),
        )?;
        std::fs::write(&paths.metrics_csv, export::registry_to_csv(&tel.registry))?;
        Ok(paths)
    }
}

/// A link configuration with per-link wall attenuation.
///
/// The open-space ray model has no interior walls, so every default
/// scenario link would sit far above the top MCS threshold and rate
/// adaptation would be trivial. The paper's "15 different links in two
/// office buildings" span the whole rate range; we reproduce that by
/// drawing a per-link extra loss (walls, cabinets, distance beyond the
/// modelled room) and folding it into the transmit power.
pub fn link_config(link_seed: u64) -> mobisense_core::scenario::ScenarioConfig {
    let mut rng = DetRng::seed_from_u64(link_seed ^ 0x77616c6c);
    let mut cfg = mobisense_core::scenario::ScenarioConfig::default();
    let wall_loss_db = rng.uniform_in(6.0, 22.0);
    // Half of the wall loss hits everything (tx power proxy); the wall
    // also blocks the direct path specifically, so heavily-walled links
    // are NLOS: Rayleigh-like, with no persistent line-of-sight steering
    // component for a beamformer to coast on.
    cfg.channel.tx_power_dbm -= wall_loss_db * 0.5;
    cfg.channel.los_attenuation_db = wall_loss_db;
    cfg
}

/// A link scenario with per-link wall attenuation (see [`link_config`]).
pub fn link_scenario(kind: mobisense_core::scenario::ScenarioKind, seed: u64) -> Scenario {
    Scenario::with_config(kind, link_config(seed), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_core::scenario::ScenarioKind;
    use mobisense_util::units::SECOND;

    #[test]
    fn trace_bundle_records_everything() {
        let mut sc = Scenario::new(ScenarioKind::MacroRandom, 1);
        let b = TraceBundle::record(&mut sc, 10 * SECOND, TRACE_STEP, 1);
        assert_eq!(b.trace.len(), 501);
        assert!(!b.phy_hints.is_empty());
        assert!(b.motion_truth.iter().filter(|&&(_, m)| m).count() > 400);
        let s = b.link_state_at(5 * SECOND);
        assert!(s.esnr_db > 0.0 && s.esnr_db < 70.0);
        assert!(s.coherence_secs < 1.0, "walking coherence");
    }

    #[test]
    fn hints_are_causal() {
        let mut sc = Scenario::new(ScenarioKind::Static, 2);
        let b = TraceBundle::record(&mut sc, 5 * SECOND, TRACE_STEP, 2);
        assert_eq!(b.phy_hint_at(0), None, "no decision at t=0");
        assert!(b.phy_hint_at(4 * SECOND).is_some());
        assert_eq!(b.sensor_hint_at(3 * SECOND), None, "static device");
    }

    #[test]
    fn sensor_hint_sees_motion() {
        let mut sc = Scenario::new(ScenarioKind::MacroAway, 3);
        let b = TraceBundle::record(&mut sc, 5 * SECOND, TRACE_STEP, 3);
        assert!(b.sensor_hint_at(3 * SECOND).is_some());
    }

    #[test]
    fn dump_writes_all_three_files() {
        use mobisense_telemetry::{Event, Sink, Telemetry};
        let mut tel = Telemetry::new();
        tel.record(Event::Goodput {
            at: 100,
            elapsed: 100,
            bits: 8000,
        });
        tel.span_ns("scope", 1234);
        let dir = std::env::temp_dir().join(format!("mobisense-dump-{}", std::process::id()));
        let paths = dump::write_capture(&dir, "unit", &tel).expect("dump");
        let events = std::fs::read_to_string(&paths.events_jsonl).expect("jsonl");
        assert_eq!(
            mobisense_telemetry::export::parse_jsonl(&events)
                .expect("parses")
                .len(),
            1
        );
        let goodput = std::fs::read_to_string(&paths.goodput_csv).expect("csv");
        assert!(goodput.contains("100,100,8000"));
        let metrics = std::fs::read_to_string(&paths.metrics_csv).expect("csv");
        assert!(metrics.contains("histogram,scope,1"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
