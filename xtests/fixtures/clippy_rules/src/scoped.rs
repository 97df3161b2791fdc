//! One known-bad case per rule that replaced a lexical analyzer lint.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::string_slice))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), deny(clippy::let_underscore_untyped))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok))]

use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};
use std::{fs, io};

/// panic-paths: unwrap, expect, the panicking macros, and slicing.
pub fn panics(v: Option<u8>, r: Result<u8, u8>, buf: &[u8], s: &str) -> usize {
    let a = v.unwrap();
    let b = r.expect("fixture");
    match a {
        0 => panic!("zero"),
        1 => unreachable!(),
        2 => todo!(),
        3 => unimplemented!(),
        _ => usize::from(a + b + buf[1]) + s[1..].len(),
    }
}

/// determinism: clocks and seed-ordered containers.
pub fn clocks() -> (Instant, SystemTime, HashMap<u8, u8>, HashSet<u8>) {
    (
        Instant::now(),
        SystemTime::now(),
        HashMap::new(),
        HashSet::new(),
    )
}

/// error-swallow: nameless and `.ok()` discards of a `Result`.
pub fn swallows() {
    let _ = fs::remove_file("fixture");
    let _: io::Result<()> = fs::remove_file("fixture");
    fs::remove_file("fixture").ok();
}

/// unsafe-ban: `unsafe_code` is forbidden workspace-wide.
pub fn deref(p: *const u8) -> u8 {
    unsafe { *p }
}
