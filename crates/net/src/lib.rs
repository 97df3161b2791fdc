//! # mobisense-net
//!
//! The WLAN substrate above a single link: multiple APs, a roaming
//! client, the controller, and the MIMO beamforming machinery — plus the
//! end-to-end simulator behind the paper's Figure 13.
//!
//! * [`wlan`] — a multi-AP world: one ray channel per AP, a shared
//!   walking client, shared environment movers.
//! * [`roaming`] — association and handoff: the client's default
//!   RSSI-threshold roaming, the sensor-hint client roaming of
//!   Ravindranath et al., and the paper's controller-based
//!   mobility-aware roaming (section 3).
//! * [`beamform`] — SU transmit beamforming with stale-CSI combining
//!   loss and explicit feedback airtime (section 6.1), and the
//!   zero-forcing MU-MIMO emulator (section 6.2).
//! * [`sim`] — the full-stack end-to-end run combining roaming, rate
//!   adaptation, aggregation and beamforming, mobility-aware vs
//!   mobility-oblivious (section 7).
//! * [`scheduler`] — mobility-aware multi-client downlink scheduling,
//!   one of the paper's proposed future-work directions (section 9).

#![warn(missing_docs)]

pub mod beamform;
pub mod roaming;
pub mod scheduler;
pub mod sim;
pub mod wlan;

pub use roaming::RoamingScheme;
pub use wlan::MultiApWorld;
