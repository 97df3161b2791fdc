//! The versioned binary wire codec for observation frames.
//!
//! An AP (or a packet tap feeding the controller) does not ship full
//! `(tx, rx, subcarrier)` CSI matrices upstream — the classifier only
//! ever consumes the per-subcarrier **magnitude digest** (the profile
//! behind the paper's Equation-(1) similarity) plus the ToF pipeline's
//! distance input. One frame on the wire is therefore:
//!
//! ```text
//! offset  size  field
//!      0     2  magic 0x4D53 ("MS"), little-endian
//!      2     1  codec version (currently 1)
//!      3     1  digest length  (subcarrier bin count, 1..=255)
//!      4     4  client id      (u32 LE)
//!      8     4  sequence       (u32 LE, per-client, starts at 0)
//!     12     8  capture time   (u64 LE, sim nanoseconds)
//!     20     8  ToF distance   (f64 LE bits, metres)
//!     28   4*n  digest         (f32 LE each)
//! ```
//!
//! Frames are fixed-size for a given digest length, so a stream of
//! frames can be indexed without a framing layer. Decoding is total:
//! truncated or corrupt input yields a [`WireError`], never a panic.

// Panic discipline (DESIGN §5.10): a frame-path panic kills a worker.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::string_slice))]

use mobisense_phy::csi::Csi;
use mobisense_util::units::Nanos;

/// Frame magic: `"MS"` little-endian.
pub const MAGIC: u16 = 0x4D53;
/// Current codec version.
pub const VERSION: u8 = 1;
/// Bytes before the digest payload.
pub const HEADER_LEN: usize = 28;

/// One observation frame as carried on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsFrame {
    /// Stable client identifier (association id / station index).
    pub client_id: u32,
    /// Per-client sequence number, starting at 0.
    pub seq: u32,
    /// Capture timestamp (simulation clock, nanoseconds).
    pub at: Nanos,
    /// The ToF pipeline's distance input (metres).
    pub distance_m: f64,
    /// CSI magnitude digest: per-subcarrier magnitudes averaged over
    /// antenna pairs, quantised to `f32` for the wire.
    pub digest: Vec<f32>,
}

/// Why a buffer failed to decode as an [`ObsFrame`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the frame (header plus digest) requires.
    Truncated {
        /// Bytes the frame needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The first two bytes were not [`MAGIC`].
    BadMagic(u16),
    /// The version byte named a codec this parser does not speak.
    BadVersion(u8),
    /// The digest length byte was zero (a frame must carry a digest).
    EmptyDigest,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:#06x} (expected {MAGIC:#06x})"),
            WireError::BadVersion(v) => write!(f, "unsupported codec version {v}"),
            WireError::EmptyDigest => write!(f, "zero-length digest"),
        }
    }
}

impl std::error::Error for WireError {}

impl ObsFrame {
    /// Builds a frame from a full CSI matrix, reducing it to the wire
    /// digest.
    pub fn from_csi(client_id: u32, seq: u32, at: Nanos, distance_m: f64, csi: &Csi) -> Self {
        ObsFrame {
            client_id,
            seq,
            at,
            distance_m,
            digest: csi.magnitude_profile().iter().map(|&v| v as f32).collect(),
        }
    }

    /// The digest as the `f64` profile the classifier consumes.
    pub fn profile(&self) -> Vec<f64> {
        self.digest.iter().map(|&v| v as f64).collect()
    }

    /// Encoded size of this frame.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + 4 * self.digest.len()
    }

    /// Appends the frame's encoding to `out`.
    ///
    /// Panics if the digest does not fit the one-byte length field
    /// (1..=255 entries); real digests are 52 bins.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        assert!(
            !self.digest.is_empty() && self.digest.len() <= u8::MAX as usize,
            "digest length {} outside 1..=255",
            self.digest.len()
        );
        out.reserve(self.encoded_len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(VERSION);
        out.push(self.digest.len() as u8);
        out.extend_from_slice(&self.client_id.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.at.to_le_bytes());
        out.extend_from_slice(&self.distance_m.to_bits().to_le_bytes());
        for &v in &self.digest {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// The frame's encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes one frame from the front of `buf`, returning it together
    /// with the number of bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(ObsFrame, usize), WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        let magic = u16::from_le_bytes(le_bytes::<2>(buf, 0)?);
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = byte_at(buf, 2)?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let digest_len = byte_at(buf, 3)? as usize;
        if digest_len == 0 {
            return Err(WireError::EmptyDigest);
        }
        let total = HEADER_LEN + 4 * digest_len;
        let payload = buf.get(HEADER_LEN..total).ok_or(WireError::Truncated {
            needed: total,
            got: buf.len(),
        })?;
        let mut digest = Vec::with_capacity(digest_len);
        for ch in payload.chunks_exact(4) {
            if let &[a, b, c, d] = ch {
                digest.push(f32::from_le_bytes([a, b, c, d]));
            }
        }
        Ok((
            ObsFrame {
                client_id: u32::from_le_bytes(le_bytes::<4>(buf, 4)?),
                seq: u32::from_le_bytes(le_bytes::<4>(buf, 8)?),
                at: u64::from_le_bytes(le_bytes::<8>(buf, 12)?),
                distance_m: f64::from_bits(u64::from_le_bytes(le_bytes::<8>(buf, 20)?)),
                digest,
            },
            total,
        ))
    }

    /// Reads the client id out of an encoded frame header without
    /// decoding the payload (ingest routing peeks this).
    pub fn peek_client_id(buf: &[u8]) -> Result<u32, WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        let magic = u16::from_le_bytes(le_bytes::<2>(buf, 0)?);
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        Ok(u32::from_le_bytes(le_bytes::<4>(buf, 4)?))
    }

    /// Validates the header of an encoded frame and returns its routing
    /// metadata without touching the digest payload. This is the cheap
    /// path for consumers that move encoded frames around verbatim —
    /// the trace store indexes segments with it, and stream rebuilding
    /// groups frames by client with it — so recording never pays a
    /// decode-re-encode round trip.
    pub fn peek_meta(buf: &[u8]) -> Result<FrameMeta, WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        let magic = u16::from_le_bytes(le_bytes::<2>(buf, 0)?);
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = byte_at(buf, 2)?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let digest_len = byte_at(buf, 3)? as usize;
        if digest_len == 0 {
            return Err(WireError::EmptyDigest);
        }
        Ok(FrameMeta {
            client_id: u32::from_le_bytes(le_bytes::<4>(buf, 4)?),
            seq: u32::from_le_bytes(le_bytes::<4>(buf, 8)?),
            at: u64::from_le_bytes(le_bytes::<8>(buf, 12)?),
            encoded_len: HEADER_LEN + 4 * digest_len,
        })
    }
}

/// Reads `N` little-endian bytes at `offset`, as a typed error instead
/// of a panicking slice-index on short input.
#[inline]
fn le_bytes<const N: usize>(buf: &[u8], offset: usize) -> Result<[u8; N], WireError> {
    buf.get(offset..offset + N)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or(WireError::Truncated {
            needed: offset + N,
            got: buf.len(),
        })
}

/// Reads the byte at `offset`, as a typed error on short input.
#[inline]
fn byte_at(buf: &[u8], offset: usize) -> Result<u8, WireError> {
    buf.get(offset).copied().ok_or(WireError::Truncated {
        needed: offset + 1,
        got: buf.len(),
    })
}

/// Routing metadata peeked from an encoded frame's header (no payload
/// decode). `encoded_len` is the full frame size the header implies; a
/// holder of exactly one frame can check it against the buffer length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameMeta {
    /// Stable client identifier.
    pub client_id: u32,
    /// Per-client sequence number.
    pub seq: u32,
    /// Capture timestamp (simulation clock, nanoseconds).
    pub at: Nanos,
    /// Total encoded frame length implied by the digest-length byte.
    pub encoded_len: usize,
}

/// Decodes a back-to-back stream of frames.
pub fn decode_stream(mut buf: &[u8]) -> Result<Vec<ObsFrame>, WireError> {
    let mut out = Vec::new();
    while !buf.is_empty() {
        let (frame, used) = ObsFrame::decode(buf)?;
        out.push(frame);
        buf = buf.get(used..).unwrap_or_default();
    }
    Ok(out)
}

/// Decodes as many whole frames as the buffer holds, stopping at the
/// first malformed or truncated one instead of discarding everything.
///
/// Returns the good prefix, the bytes it consumed, and the error that
/// stopped the scan (`None` when the buffer ended exactly on a frame
/// boundary). A crash-truncated trace tail salvages every frame that
/// made it to disk this way; [`decode_stream`] stays the strict
/// variant for input that must be whole.
pub fn decode_stream_lossy(mut buf: &[u8]) -> (Vec<ObsFrame>, usize, Option<WireError>) {
    let mut out = Vec::new();
    let mut consumed = 0usize;
    while !buf.is_empty() {
        match ObsFrame::decode(buf) {
            Ok((frame, used)) => {
                out.push(frame);
                consumed += used;
                buf = buf.get(used..).unwrap_or_default();
            }
            Err(e) => return (out, consumed, Some(e)),
        }
    }
    (out, consumed, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> ObsFrame {
        ObsFrame {
            client_id: 0xDEAD_BEEF,
            seq: 42,
            at: 1_500_000_000,
            distance_m: 12.75,
            digest: (0..52).map(|i| i as f32 * 0.25).collect(),
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let f = frame();
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        let (back, used) = ObsFrame::decode(&bytes).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
    }

    #[test]
    fn stream_of_frames_round_trips() {
        let mut bytes = Vec::new();
        let frames: Vec<ObsFrame> = (0..5).map(|seq| ObsFrame { seq, ..frame() }).collect();
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        assert_eq!(decode_stream(&bytes).expect("decodes"), frames);
    }

    #[test]
    fn truncation_is_reported_not_panicked() {
        let bytes = frame().encode();
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            let err = ObsFrame::decode(&bytes[..cut]).expect_err("truncated");
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn corrupt_header_rejected() {
        let mut bad_magic = frame().encode();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            ObsFrame::decode(&bad_magic),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = frame().encode();
        bad_version[2] = 99;
        assert_eq!(
            ObsFrame::decode(&bad_version).expect_err("version"),
            WireError::BadVersion(99)
        );

        let mut empty_digest = frame().encode();
        empty_digest[3] = 0;
        assert_eq!(
            ObsFrame::decode(&empty_digest).expect_err("digest"),
            WireError::EmptyDigest
        );
    }

    #[test]
    fn peek_client_id_matches_decode() {
        let f = frame();
        let bytes = f.encode();
        assert_eq!(ObsFrame::peek_client_id(&bytes), Ok(f.client_id));
        assert!(ObsFrame::peek_client_id(&bytes[..10]).is_err());
    }

    #[test]
    fn from_csi_carries_the_magnitude_profile() {
        let mut csi = Csi::zeros(2, 2, 4);
        for tx in 0..2 {
            for rx in 0..2 {
                for sc in 0..4 {
                    csi.set(tx, rx, sc, mobisense_util::C64::new(sc as f64 + 1.0, 0.0));
                }
            }
        }
        let f = ObsFrame::from_csi(7, 0, 0, 5.0, &csi);
        assert_eq!(f.digest, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.profile(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn peek_meta_validates_and_matches_decode() {
        let f = frame();
        let bytes = f.encode();
        let meta = ObsFrame::peek_meta(&bytes).expect("well-formed header");
        assert_eq!(meta.client_id, f.client_id);
        assert_eq!(meta.seq, f.seq);
        assert_eq!(meta.at, f.at);
        assert_eq!(meta.encoded_len, bytes.len());

        assert!(matches!(
            ObsFrame::peek_meta(&bytes[..HEADER_LEN - 1]),
            Err(WireError::Truncated { .. })
        ));
        let mut bad = bytes.clone();
        bad[2] = 9;
        assert_eq!(ObsFrame::peek_meta(&bad), Err(WireError::BadVersion(9)));
        let mut empty = bytes;
        empty[3] = 0;
        assert_eq!(ObsFrame::peek_meta(&empty), Err(WireError::EmptyDigest));
    }

    #[test]
    fn lossy_decode_salvages_good_prefix() {
        let frames: Vec<ObsFrame> = (0..4).map(|seq| ObsFrame { seq, ..frame() }).collect();
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        let whole = bytes.len();

        // Clean buffer: everything decodes, no error, all bytes used.
        let (all, used, err) = decode_stream_lossy(&bytes);
        assert_eq!((all.as_slice(), used, err), (&frames[..], whole, None));

        // Truncated tail: the first three frames survive.
        let cut = whole - 5;
        let (good, used, err) = decode_stream_lossy(&bytes[..cut]);
        assert_eq!(good, frames[..3]);
        assert_eq!(used, 3 * frames[0].encoded_len());
        assert!(matches!(err, Some(WireError::Truncated { .. })));

        // Mid-stream corruption: frames before the bad magic survive.
        let mut corrupt = bytes.clone();
        corrupt[2 * frames[0].encoded_len()] ^= 0xFF;
        let (good, used, err) = decode_stream_lossy(&corrupt);
        assert_eq!(good, frames[..2]);
        assert_eq!(used, 2 * frames[0].encoded_len());
        assert!(matches!(err, Some(WireError::BadMagic(_))));

        // Strict decoding of the same corrupt buffer drops everything.
        assert!(decode_stream(&corrupt).is_err());
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(WireError::BadMagic(7).to_string().contains("0x0007"));
        assert!(WireError::Truncated { needed: 28, got: 3 }
            .to_string()
            .contains("28"));
    }
}
