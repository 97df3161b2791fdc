//! Integration-test host crate: the tests in `tests/` exercise flows that
//! span several `mobisense` crates, and the `examples/` directory at the
//! repository root is built as this crate's examples.

#![warn(missing_docs)]
