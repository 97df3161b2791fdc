//! Hand-rolled CRC-32 (IEEE 802.3 / zlib: reflected, polynomial
//! `0xEDB88320`, initial and final XOR `0xFFFFFFFF`).
//!
//! This lives in the foundation crate so that every on-disk and
//! on-the-wire format in the workspace (store segments, session
//! snapshots) shares a single audited checksum; `mobisense_store::crc`
//! re-exports it under its historical path. The update uses
//! **slicing-by-8**: eight 256-entry tables built in a `const fn`,
//! consuming one 8-byte chunk per iteration instead of one byte, which
//! keeps the record path from being checksum-bound now that the flight
//! recorder checksums every served frame inline. A byte-at-a-time loop
//! (table 0 only) handles the unaligned tail.
//!
//! [`Crc32::combine`] folds in a block from its own checksum and length
//! alone (zlib's `crc32_combine`), so a writer that already checksummed
//! a record can extend a running checksum over that record without a
//! second pass over its bytes.
//!
//! One slicing-by-8 stream is bound by the latency of its own chain of
//! table lookups, not by the loads. So an input of [`LANES_MIN`] bytes
//! or more (a ~1.7 KB session snapshot, not a ~250-byte frame record)
//! is cut into four equal lanes that advance in one loop as four
//! independent chains, and `combine` joins their checksums: about twice
//! as fast on a 1.7 KB snapshot, the same result bit for bit.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[k][b] = crc_of(b followed by k zero bytes)`, which is what
/// lets eight table lookups advance the state over eight input bytes
/// at once.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c; // lint: checked-index -- i < 256, table is [_; 256]
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i]; // lint: checked-index -- 1 <= t < 8, i < 256
                                         // lint: checked-index -- index masked to u8
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// One table lookup: `t` is a literal 0..8 at every call site and the
/// byte index is masked, so the access is always in bounds.
#[inline(always)]
fn tbl(t: usize, b: u32) -> u32 {
    // lint: checked-index -- t < 8 const at call sites, index masked to u8
    TABLES[t][(b & 0xFF) as usize]
}

/// Inputs at least this long take [`Crc32::update`]'s four-lane path.
/// Below it the three lane joins cost more than the lanes save.
const LANES_MIN: usize = 256;

/// Advances state `c` over one 8-byte chunk with eight table lookups.
#[inline(always)]
fn step8(c: u32, chunk: &[u8]) -> u32 {
    // Slice pattern, not indexing: every caller passes a
    // `chunks_exact(8)` chunk, and the pattern lets the compiler see it.
    let &[b0, b1, b2, b3, b4, b5, b6, b7] = chunk else {
        return c;
    };
    let lo = u32::from_le_bytes([b0, b1, b2, b3]) ^ c;
    tbl(7, lo)
        ^ tbl(6, lo >> 8)
        ^ tbl(5, lo >> 16)
        ^ tbl(4, lo >> 24)
        ^ tbl(3, b4 as u32)
        ^ tbl(2, b5 as u32)
        ^ tbl(1, b6 as u32)
        ^ tbl(0, b7 as u32)
}

/// Streaming CRC-32 state, for checksumming data as it is written.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state (equivalent to having hashed zero bytes).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        let mut rest = bytes;
        if bytes.len() >= LANES_MIN {
            // Four lanes of `lane` bytes each (a multiple of 8); the
            // first continues the running state, the others start
            // fresh, and all four advance in the same loop.
            let lane = bytes.len() / 32 * 8;
            let (a, tail) = bytes.split_at(lane);
            let (b, tail) = tail.split_at(lane);
            let (d, tail) = tail.split_at(lane);
            let (e, tail) = tail.split_at(lane);
            let (mut s0, mut s1, mut s2, mut s3) = (c, !0, !0, !0);
            let lanes = a.chunks_exact(8).zip(b.chunks_exact(8));
            let lanes = lanes.zip(d.chunks_exact(8).zip(e.chunks_exact(8)));
            for ((ca, cb), (cd, ce)) in lanes {
                s0 = step8(s0, ca);
                s1 = step8(s1, cb);
                s2 = step8(s2, cd);
                s3 = step8(s3, ce);
            }
            // Append each later lane: the `combine` step in state form,
            // with the length operator shared by the three.
            let op = zeros_op(lane);
            c = s0;
            for lane_state in [s1, s2, s3] {
                c = mul(op, c ^ 0xFFFF_FFFF) ^ lane_state;
            }
            rest = tail;
        }
        let mut chunks = rest.chunks_exact(8);
        for ch in &mut chunks {
            c = step8(c, ch);
        }
        for &b in chunks.remainder() {
            c = tbl(0, c ^ b as u32) ^ (c >> 8);
        }
        self.state = c;
    }

    /// Folds in a block of `len` bytes given only its own one-shot
    /// checksum `crc` (what [`crc32`] returned for it), without reading
    /// the bytes: afterwards the state equals having
    /// [`update`](Self::update)d with them. zlib's `crc32_combine`: at most two
    /// carry-less multiplications for a block under 64 KiB, instead of
    /// a pass over the data.
    pub fn combine(&mut self, crc: u32, len: usize) {
        let joined = mul(zeros_op(len), self.finish()) ^ crc;
        self.state = joined ^ 0xFFFF_FFFF;
    }

    /// The checksum of everything folded in so far. Non-destructive:
    /// more updates may follow.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// `a * b mod P` over GF(2), both operands in the reflected bit order
/// of the CRC state (bit 31 is the `x^0` coefficient): zlib's
/// `multmodp`, four bits of `a` per step instead of one. `m[v]` is
/// `b` times the nibble `v` (bit 3 of `v` is `x^0`), and Horner's rule
/// runs from the nibble holding `x^28..x^31` down, multiplying the
/// partial product by `x^4` with one 4-bit reduction per step.
const fn multmodp(a: u32, b: u32) -> u32 {
    let b1 = times_x(b);
    let b2 = times_x(b1);
    let b3 = times_x(b2);
    let mut m = [0u32; 16];
    let mut v = 1usize;
    while v < 16 {
        // The lowest set bit of v, bit k, is the x^(3 - k) coefficient.
        let bx = match v.trailing_zeros() {
            0 => b3,
            1 => b2,
            2 => b1,
            _ => b,
        };
        // lint: checked-index -- v & (v - 1) < v < 16, m is [_; 16]
        m[v] = m[v & (v - 1)] ^ bx;
        v += 1;
    }
    let mut p = 0u32;
    let mut shift = 0u32;
    while shift < 32 {
        // p * x^4 mod P: shift out four coefficients, reduce them.
        p = (p >> 4) ^ REDUCE4[(p & 0xF) as usize]; // lint: checked-index -- index masked to 4 bits
        p ^= m[((a >> shift) & 0xF) as usize]; // lint: checked-index -- index masked to 4 bits
        shift += 4;
    }
    p
}

/// `c * x mod P` in the reflected order: one bit of a CRC update.
const fn times_x(c: u32) -> u32 {
    (c >> 1) ^ (POLY & 0u32.wrapping_sub(c & 1))
}

/// `REDUCE4[v]`: the four low state bits `v` advanced by four zero
/// bits, the reduction step of [`multmodp`]'s `x^4` shift.
const REDUCE4: [u32; 16] = {
    let mut t = [0u32; 16];
    let mut v = 0usize;
    while v < 16 {
        t[v] = times_x(times_x(times_x(times_x(v as u32)))); // lint: checked-index -- v < 16, table is [_; 16]
        v += 1;
    }
    t
};

/// `x^0`, the multiplicative identity in the reflected order.
const ONE: u32 = 1 << 31;

/// `ZEROS[0][n] = x^(8n) mod P` and `ZEROS[1][n] = x^(8 * 256 n) mod P`
/// for n in 0..256: the operators that advance a CRC over `n` and
/// `256 n` zero bytes. Together they cover a block length below 64 KiB
/// in at most one multiplication.
const fn make_zero_tables() -> [[u32; 256]; 2] {
    let mut t = [[0u32; 256]; 2];
    let mut p = ONE;
    let mut n = 0usize;
    while n < 256 {
        t[0][n] = p; // lint: checked-index -- n < 256, table is [[_; 256]; 2]
        p = multmodp(ONE >> 8, p); // times x^8
        n += 1;
    }
    // p is now x^(8 * 256).
    let step = p;
    p = ONE;
    n = 0;
    while n < 256 {
        t[1][n] = p; // lint: checked-index -- n < 256, table is [[_; 256]; 2]
        p = multmodp(step, p);
        n += 1;
    }
    t
}

static ZEROS: [[u32; 256]; 2] = make_zero_tables();

/// `x^(8 len) mod P`: the operator that advances a CRC over `len` zero
/// bytes (zlib's `x2nmodp(len, 3)`), one table product per 16 bits of
/// `len`.
fn zeros_op(mut len: usize) -> u32 {
    let mut op = ONE;
    let mut shift = 0u32;
    while len != 0 {
        let lo = zeros_lookup(0, len);
        let hi = zeros_lookup(1, len >> 8);
        let mut chunk = mul(lo, hi);
        // Lifts x^(8 * 65536^j * m) from x^(8m): square 16 times per j.
        for _ in 0..shift {
            chunk = mul(chunk, chunk);
        }
        op = mul(op, chunk);
        len >>= 16;
        shift += 16;
    }
    op
}

/// [`multmodp`] that skips the multiplication when either side is
/// [`ONE`] (a zero low byte or a block under 256 bytes).
#[inline(always)]
fn mul(a: u32, b: u32) -> u32 {
    if a == ONE {
        b
    } else if b == ONE {
        a
    } else {
        multmodp(a, b)
    }
}

#[inline(always)]
fn zeros_lookup(t: usize, n: usize) -> u32 {
    // lint: checked-index -- t is a literal 0 or 1, index masked to u8
    ZEROS[t & 1][n & 0xFF]
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original byte-at-a-time update, kept as the reference the
    /// sliced implementation must match bit-for-bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_check_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_matches_bytewise_reference() {
        // Every length 0..=64 plus a large buffer, so chunk boundaries
        // and all remainder sizes are exercised; and every length
        // around the four-lane threshold and at a snapshot's size, so
        // every lane split and tail length is too.
        let data: Vec<u8> = (0u32..4096)
            .map(|i| (i.wrapping_mul(37) % 256) as u8)
            .collect();
        let lengths = (0..=64usize)
            .chain(LANES_MIN - 8..=LANES_MIN + 40)
            .chain(1660..=1700);
        for len in lengths {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
        assert_eq!(crc32(&data), crc32_bytewise(&data));
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u16..2048).map(|i| (i % 251) as u8).collect();
        let whole = crc32(&data);
        for split in [0usize, 1, 3, 7, 8, 9, 1024, 2041, 2047, 2048] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn combine_matches_streaming_at_fixed_splits() {
        let data: Vec<u8> = (0u16..2048).map(|i| (i % 253) as u8).collect();
        for split in [0usize, 1, 7, 8, 9, 1669, 2047, 2048] {
            let (a, b) = data.split_at(split);
            let mut c = Crc32::new();
            c.update(a);
            c.combine(crc32(b), b.len());
            assert_eq!(c.finish(), crc32(&data), "split at {split}");
        }
        // Blocks past 64 KiB take the squaring path of the length
        // operator.
        let big: Vec<u8> = (0u32..200_000).map(|i| (i % 241) as u8).collect();
        for split in [0usize, 3, 1000] {
            let (a, b) = big.split_at(split);
            let mut c = Crc32::new();
            c.update(a);
            c.combine(crc32(b), b.len());
            assert_eq!(c.finish(), crc32(&big), "split at {split}");
        }
    }

    proptest::proptest! {
        /// `combine` is `crc32(a ‖ b)` from `crc32(a)`, `crc32(b)` and
        /// `len(b)`, for every split, empty halves included.
        #[test]
        fn combine_equals_crc_of_concatenation(
            words in proptest::collection::vec(0u16..256, 0..4096),
            split in 0usize..4099,
        ) {
            let data: Vec<u8> = words.iter().map(|&w| w as u8).collect();
            // Draws 0 and 1 pin the empty-prefix and empty-suffix cases.
            let split = match split {
                0 => 0,
                1 => data.len(),
                s => (s - 2).min(data.len()),
            };
            let (a, b) = data.split_at(split);
            let mut c = Crc32::new();
            c.update(a);
            c.combine(crc32(b), b.len());
            proptest::prop_assert_eq!(c.finish(), crc32(&data));
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = [0x4Du8, 0x53, 0x53, 0x47, 0x01, 0x00, 0xAB, 0xCD];
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data;
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip {byte}:{bit} undetected");
            }
        }
    }
}
