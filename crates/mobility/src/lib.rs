//! # mobisense-mobility
//!
//! Client trajectories and environment dynamics that stand in for the
//! paper's testbed scenarios (section 2.1):
//!
//! * **static** — phone on a desk, quiet lab;
//! * **environmental** — phone static on a cafeteria table while people
//!   move around it (modelled by moving reflector points, see
//!   [`movers`]);
//! * **micro-mobility** — the phone is handled with natural gestures
//!   within ~a metre of its location ([`trajectory::MicroWander`]);
//! * **macro-mobility** — the user walks from place to place
//!   ([`trajectory::WaypointWalk`]), including the radial
//!   towards/away-from-AP legs the roaming and rate-control protocols key
//!   on, and the circular orbit that is the paper's admitted failure mode
//!   ([`trajectory::CircularOrbit`]).
//!
//! The crate is pure geometry: it knows nothing about radios. The glue
//! that feeds these positions into the PHY channel lives in
//! `mobisense-core`.

#![warn(missing_docs)]

pub mod mode;
pub mod movers;
pub mod trajectory;

pub use mode::{Direction, GroundTruth, MobilityMode};
pub use trajectory::{Pose, Trajectory};
