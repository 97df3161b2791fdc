//! Calls the `scoped` module may not make, here with no deny in force:
//! none of them may trip a lint.

use std::collections::HashMap;
use std::time::Instant;

pub fn legal(v: Option<u8>, r: Result<u8, u8>, buf: &[u8], s: &str) -> (usize, Instant) {
    let _ = std::fs::remove_file("fixture");
    std::fs::remove_file("fixture").ok();
    let map: HashMap<u8, u8> = HashMap::new();
    let n = v.unwrap() + r.expect("fixture") + buf[1] + map.len() as u8;
    (usize::from(n) + s[1..].len(), Instant::now())
}
