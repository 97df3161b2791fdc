//! Two modules commit the same calls. `scoped` carries every deny a
//! frame or replay path carries, so each call there must trip its lint;
//! `sibling` carries none, so nothing there may.

pub mod scoped;
pub mod sibling;
