//! Incremental frame assembly over a growable per-connection buffer.
//!
//! A TCP read hands the reactor an arbitrary byte fragment: half a
//! header, three frames and a tail, one byte. [`FrameAssembler`] turns
//! that fragment stream back into whole frames with one invariant —
//! **chunk-boundary invariance**: feeding the same bytes in any split
//! (1-byte reads up to the whole buffer at once) emits exactly the same
//! frames with the same counters, because the assembler's state is
//! nothing but the unconsumed bytes themselves. That is also what makes
//! the lossy path deterministic: corruption recovery is a pure function
//! of buffer content (skip one byte, hunt for the next magic pair), so
//! a recorded session replays the same however the kernel fragmented
//! the reads.
//!
//! The emit callback receives each frame **and its exact wire bytes**,
//! so the flight recorder tees the verbatim encoding rather than a
//! re-encode — the byte-identical-replay contract extends to the
//! socket path for free.

// Panic discipline (DESIGN §5.10): a frame-path panic kills a worker.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::string_slice))]
// Determinism (DESIGN §5.10): replay must see the same clock and order.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use mobisense_serve::wire::{decode_stream_lossy, ObsFrame, WireError, MAGIC};

/// Compact (memmove the live tail to the front) once this many
/// consumed bytes accumulate at the head of the buffer.
const COMPACT_AT: usize = 4096;

/// Incremental, resynchronizing frame decoder for one byte stream.
///
/// Feed reads in with [`feed`](FrameAssembler::feed); whole frames are
/// emitted through the callback the moment their last byte arrives.
/// Corrupt input (bad magic / version / empty digest) is skipped one
/// byte at a time until the next `MAGIC` pair, mirroring
/// [`decode_stream_lossy`]'s stop-at-first-error semantics but
/// continuing across the gap — the counters say how much was lost.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix length; `buf[start..]` is the live tail.
    start: usize,
    /// True while hunting for the next magic pair after corruption.
    resyncing: bool,
    frames: u64,
    resyncs: u64,
    skipped: u64,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `chunk` and emits every frame that is now complete.
    ///
    /// The callback gets the decoded frame plus the exact wire bytes it
    /// was decoded from (a subslice of the internal buffer).
    pub fn feed(&mut self, chunk: &[u8], emit: &mut dyn FnMut(ObsFrame, &[u8])) {
        self.buf.extend_from_slice(chunk);
        self.drain(emit);
        self.compact();
    }

    /// Bytes buffered awaiting a complete frame (or more magic).
    pub fn pending(&self) -> usize {
        self.buf.len().saturating_sub(self.start)
    }

    /// Frames emitted so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Corruption events recovered from (one per decode error, however
    /// many bytes the subsequent hunt discarded).
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Bytes discarded while resynchronizing.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    fn drain(&mut self, emit: &mut dyn FnMut(ObsFrame, &[u8])) {
        loop {
            if self.resyncing {
                if !self.scan_to_magic() {
                    return;
                }
                self.resyncing = false;
            }
            let pending = self.buf.get(self.start..).unwrap_or_default();
            if pending.is_empty() {
                return;
            }
            let (frames, consumed, err) = decode_stream_lossy(pending);
            let emitted = frames.len() as u64;
            let mut off = 0usize;
            for frame in frames {
                let len = frame.encoded_len();
                let raw = pending.get(off..off + len).unwrap_or_default();
                emit(frame, raw);
                off += len;
            }
            self.frames += emitted;
            self.start += consumed;
            match err {
                // Clean boundary, or a frame still missing bytes: wait
                // for the next read.
                None | Some(WireError::Truncated { .. }) => return,
                // Corrupt header where a frame should start: skip the
                // offending byte and hunt for the next magic pair.
                Some(_) => {
                    self.start += 1;
                    self.skipped += 1;
                    self.resyncs += 1;
                    self.resyncing = true;
                }
            }
        }
    }

    /// Advances `start` to the next `MAGIC` byte pair. Returns false if
    /// fewer than two bytes remain to test — the tail (possibly the
    /// first half of a pair split across reads) is kept for the next
    /// feed, which keeps the hunt chunk-boundary-invariant.
    fn scan_to_magic(&mut self) -> bool {
        let [m0, m1] = MAGIC.to_le_bytes();
        loop {
            let pending = self.buf.get(self.start..).unwrap_or_default();
            match (pending.first(), pending.get(1)) {
                (Some(&a), Some(&b)) if a == m0 && b == m1 => return true,
                (Some(_), Some(_)) => {
                    self.start += 1;
                    self.skipped += 1;
                }
                _ => return false,
            }
        }
    }

    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_serve::wire::decode_stream;

    fn frame(client: u32, seq: u32) -> ObsFrame {
        ObsFrame {
            client_id: client,
            seq,
            at: 1_000 * u64::from(seq),
            distance_m: 3.5,
            digest: vec![0.25; 8],
        }
    }

    fn collect(asm: &mut FrameAssembler, chunk: &[u8]) -> Vec<(ObsFrame, Vec<u8>)> {
        let mut out = Vec::new();
        asm.feed(chunk, &mut |f, raw| out.push((f, raw.to_vec())));
        out
    }

    #[test]
    fn whole_buffer_matches_decode_stream() {
        let mut bytes = Vec::new();
        let frames: Vec<ObsFrame> = (0..5).map(|i| frame(7, i)).collect();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }
        let mut asm = FrameAssembler::new();
        let got = collect(&mut asm, &bytes);
        let reference = decode_stream(&bytes).expect("clean stream decodes");
        assert_eq!(got.len(), reference.len());
        for ((g, raw), r) in got.iter().zip(&reference) {
            assert_eq!(g, r);
            assert_eq!(raw, &r.encode(), "emitted raw bytes are the wire encoding");
        }
        assert_eq!(asm.pending(), 0);
        assert_eq!(asm.frames(), 5);
        assert_eq!(asm.resyncs(), 0);
    }

    #[test]
    fn one_byte_feeds_match_whole_buffer() {
        let mut bytes = Vec::new();
        for i in 0..3 {
            bytes.extend_from_slice(&frame(9, i).encode());
        }
        let mut whole = FrameAssembler::new();
        let want = collect(&mut whole, &bytes);

        let mut trickle = FrameAssembler::new();
        let mut got = Vec::new();
        for b in &bytes {
            trickle.feed(std::slice::from_ref(b), &mut |f, raw| {
                got.push((f, raw.to_vec()));
            });
        }
        assert_eq!(got, want);
        assert_eq!(trickle.frames(), whole.frames());
        assert_eq!(trickle.pending(), whole.pending());
    }

    #[test]
    fn resyncs_across_garbage_and_counts_it() {
        let good = frame(3, 0).encode();
        let mut bytes = good.clone();
        bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x53]); // junk incl. a lone magic half
        let tail = frame(3, 1).encode();
        bytes.extend_from_slice(&tail);

        let mut asm = FrameAssembler::new();
        let got = collect(&mut asm, &bytes);
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].0.seq, 1);
        assert_eq!(asm.resyncs(), 1);
        assert_eq!(asm.skipped(), 5);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn truncated_tail_stays_pending() {
        let bytes = frame(2, 0).encode();
        let (head, tail) = bytes.split_at(bytes.len() - 3);
        let mut asm = FrameAssembler::new();
        assert!(collect(&mut asm, head).is_empty());
        assert_eq!(asm.pending(), head.len());
        let got = collect(&mut asm, tail);
        assert_eq!(got.len(), 1);
        assert_eq!(asm.pending(), 0);
    }
}
