//! # mobisense-mac
//!
//! The 802.11n MAC substrate: A-MPDU frame exchange simulation, frame
//! aggregation policies, and the rate-adaptation algorithms the paper
//! implements or compares against (section 4):
//!
//! * [`rate::AtherosRa`] — the frame-based Atheros MIMO rate adaptation
//!   that ships in HP MSM 460 APs (section 4.1), with the paper's three
//!   mobility-aware optimisations (section 4.2) applied whenever a
//!   mobility hint is supplied: retry-before-downshift (except when
//!   moving away), mobility-scaled PER smoothing, and direction-dependent
//!   probing intervals.
//! * [`rate::SampleRateRa`] — Bicket's SampleRate, the classic throughput-
//!   based adapter.
//! * [`rate::RapidSampleRa`] and [`rate::SensorHintRa`] — the
//!   mobility-optimised adapter of Ravindranath et al. and its
//!   accelerometer-hint wrapper (binary static/mobile switching between
//!   SampleRate and RapidSample), the paper's main prior-work comparison.
//! * [`rate::SoftRateRa`] — per-frame PHY-feedback adaptation (one-frame
//!   delayed genie).
//! * [`rate::EsnrRa`] — effective-SNR-driven selection from CSI feedback
//!   (zero-delay genie; the strongest baseline in Figure 9b).
//!
//! [`link`] simulates one A-MPDU exchange (per-MPDU error from the
//! effective-SNR PER model, with intra-frame channel aging), [`agg`]
//! picks aggregation sizes, [`modes`] holds the section-9 channel-width
//! and MIMO-mode policies, and [`sim`] runs saturated-downlink sessions
//! combining them.

#![warn(missing_docs)]

pub mod agg;
pub mod link;
pub mod modes;
pub mod rate;
pub mod sim;

pub use agg::AggPolicy;
pub use link::{simulate_ampdu, FrameOutcome, LinkState};
pub use rate::RateAdapter;
pub use sim::{LinkRun, ThroughputMeter};
