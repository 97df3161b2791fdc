//! The lint suite. Each module hosts one lint plus the fixture
//! self-tests proving it fires on known-bad snippets. `locks`,
//! `telemetry` and `format_const` are lexical (token scans over one
//! file at a time); `deadlock` and `blocking` are graph-aware — they
//! reason over the per-crate call graph built by [`crate::graph`].
//! Rules the compiler can check with types (no `unsafe`, no panics in
//! frame paths, no clocks or seed-ordered containers in replay paths,
//! no silently discarded results) are rustc and clippy lints instead;
//! see DESIGN.md §5.10.

pub mod blocking;
pub mod deadlock;
pub mod format_const;
pub mod locks;
pub mod telemetry;
