//! The versioned binary codec for full session snapshots.
//!
//! A snapshot captures everything a [`PipelineSession`] needs to resume
//! bit-identically — the classifier's similarity and trend windows, the
//! Figure-5 machine registers, and the ToF sampler's noise-stream
//! position, schedule anchors, in-flight batch and bounded history —
//! plus the serving layer's per-client `last_emitted` suppression state
//! and the client id itself. It is the unit of both hibernation (paged
//! into the trace store, faulted back in on the client's next frame)
//! and live shard rebalancing (drained, transferred, resumed).
//!
//! One snapshot on disk or on the wire is:
//!
//! ```text
//! offset      size  field
//!      0         4  magic 0x5053534D ("MSSP", little-endian)
//!      4         2  codec version (u16 LE, currently 1)
//!      6         2  reserved (zero)
//!      8         4  body length   (u32 LE)
//!     12      body  body (field-by-field little-endian encoding)
//! 12+body        4  CRC-32 over bytes [0, 12+body)  (u32 LE)
//! ```
//!
//! The CRC covers the header too, so **any** single bit flip — magic,
//! version, length field, body or the checksum itself — is detected;
//! the corruption proptests pin exactly that. Decoding is total:
//! truncated, oversized, or corrupt input yields a [`SnapshotError`],
//! never a panic and never a silently-divergent restore.
//!
//! Encoding sizes the body first and writes header, body and CRC into
//! one buffer whose capacity is its length: a paged-out snapshot is
//! held in the pager's resident map as-is, so spare capacity would be
//! resident memory. [`EncodedSnapshot`] is that buffer as a type: it
//! exists only by encoding a [`SessionSnapshot`] or by fully decoding
//! bytes of unknown origin, so whoever holds one — a pager, the trace
//! store's writer — stores it without checking it again.

// Panic discipline (DESIGN §5.10): a frame-path panic kills a worker.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::string_slice))]

use mobisense_core::classifier::{Classification, ClassifierState};
use mobisense_core::pipeline::SessionState;
use mobisense_core::similarity::SimilarityState;
use mobisense_mobility::{Direction, MobilityMode};
use mobisense_phy::tof::{TofMeasurement, TofSamplerState};
use mobisense_util::crc::crc32;
use mobisense_util::rng::DetRngState;
use mobisense_util::units::Nanos;

/// Snapshot magic: `"MSSP"` little-endian (MobiSense Session Page),
/// sibling of the segment magic `"MSSG"` and the wire magic `"MS"`.
pub const SNAPSHOT_MAGIC: u32 = 0x5053_534D;
/// Current codec version.
pub const SNAPSHOT_CODEC_VERSION: u16 = 1;
/// Bytes before the body (magic + version + reserved + body length).
pub const SNAPSHOT_HEADER_LEN: usize = 12;
/// Fixed overhead around the body (header plus trailing CRC).
pub const OVERHEAD: usize = SNAPSHOT_HEADER_LEN + 4;
/// Upper bound on the body length field. A real snapshot is a few
/// hundred bytes; this cap keeps a corrupt length field from driving a
/// giant allocation.
pub const MAX_BODY_LEN: usize = 1 << 24;
/// Upper bound on any encoded vector's element count.
const MAX_ELEMS: usize = 1 << 20;

/// A full per-client session snapshot: the pipeline state plus the
/// serving layer's decision-suppression register.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSnapshot {
    /// The client this snapshot belongs to.
    pub client_id: u32,
    /// The last classification the serving layer emitted for this
    /// client (decision-log deduplication state). Without it a restored
    /// session would re-emit or wrongly suppress its next decision.
    pub last_emitted: Option<Classification>,
    /// The pipeline state ([`PipelineSession::into_state`] output).
    ///
    /// [`PipelineSession::into_state`]: mobisense_core::pipeline::PipelineSession::into_state
    pub state: SessionState,
}

/// Why a buffer failed to decode as a [`SessionSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the snapshot requires.
    Truncated {
        /// Bytes the snapshot needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The first four bytes were not [`SNAPSHOT_MAGIC`].
    BadMagic(u32),
    /// The version field named a codec this parser does not speak.
    BadVersion(u16),
    /// The reserved field was non-zero (a later version would bump the
    /// version field, so this is corruption, not forward compatibility).
    BadReserved(u16),
    /// The body length field exceeds [`MAX_BODY_LEN`].
    BodyTooLong {
        /// The claimed body length.
        len: usize,
    },
    /// The trailing CRC-32 did not match the header + body bytes.
    BadCrc {
        /// Checksum computed over the received bytes.
        expected: u32,
        /// Checksum carried by the snapshot.
        got: u32,
    },
    /// Bytes remained after the snapshot (the buffer must hold exactly
    /// one snapshot), or the body ended before its declared length.
    TrailingBytes {
        /// Surplus byte count.
        extra: usize,
    },
    /// An enum field carried an unknown discriminant.
    BadEnum {
        /// Which field.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// A vector field declared more elements than [`SessionSnapshot`]
    /// state can legitimately hold.
    FieldTooLong {
        /// Which field.
        field: &'static str,
        /// The claimed element count.
        len: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SnapshotError::Truncated { needed, got } => {
                write!(f, "truncated snapshot: needed {needed} bytes, got {got}")
            }
            SnapshotError::BadMagic(m) => {
                write!(f, "bad magic {m:#010x} (expected {SNAPSHOT_MAGIC:#010x})")
            }
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadReserved(r) => write!(f, "non-zero reserved field {r:#06x}"),
            SnapshotError::BodyTooLong { len } => {
                write!(f, "body length {len} exceeds the {MAX_BODY_LEN}-byte cap")
            }
            SnapshotError::BadCrc { expected, got } => {
                write!(
                    f,
                    "snapshot CRC mismatch: computed {expected:#010x}, stored {got:#010x}"
                )
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} surplus bytes after the snapshot")
            }
            SnapshotError::BadEnum { field, value } => {
                write!(f, "field {field}: unknown discriminant {value}")
            }
            SnapshotError::FieldTooLong { field, len } => {
                write!(f, "field {field}: {len} elements exceeds the cap")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SessionSnapshot {
    /// Encodes the snapshot as a self-contained, CRC-sealed buffer
    /// whose capacity equals its length.
    ///
    /// Total: a state vector too long for the format (beyond any real
    /// configuration) is reported as [`SnapshotError::FieldTooLong`],
    /// never a panic.
    pub fn encode(&self) -> Result<Vec<u8>, SnapshotError> {
        // Sizing pass: the same field walk, counting instead of writing.
        let mut sized = ByteCount(0);
        encode_body(self, &mut sized)?;
        let body_len = sized.0;
        if body_len > MAX_BODY_LEN {
            return Err(SnapshotError::BodyTooLong { len: body_len });
        }
        let mut out = Vec::with_capacity(OVERHEAD + body_len);
        out.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        out.extend_from_slice(&SNAPSHOT_CODEC_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(body_len as u32).to_le_bytes());
        encode_body(self, &mut out)?;
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(out.len(), OVERHEAD + body_len);
        Ok(out)
    }

    /// Decodes a buffer holding exactly one snapshot. Total: every
    /// malformation — truncation, surplus bytes, any single bit flip —
    /// yields a typed error.
    pub fn decode(buf: &[u8]) -> Result<SessionSnapshot, SnapshotError> {
        if buf.len() < OVERHEAD {
            return Err(SnapshotError::Truncated {
                needed: OVERHEAD,
                got: buf.len(),
            });
        }
        let magic = u32::from_le_bytes(le_bytes::<4>(buf, 0)?);
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(le_bytes::<2>(buf, 4)?);
        if version != SNAPSHOT_CODEC_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let reserved = u16::from_le_bytes(le_bytes::<2>(buf, 6)?);
        if reserved != 0 {
            return Err(SnapshotError::BadReserved(reserved));
        }
        let body_len = u32::from_le_bytes(le_bytes::<4>(buf, 8)?) as usize;
        if body_len > MAX_BODY_LEN {
            return Err(SnapshotError::BodyTooLong { len: body_len });
        }
        let total = OVERHEAD + body_len;
        if buf.len() < total {
            return Err(SnapshotError::Truncated {
                needed: total,
                got: buf.len(),
            });
        }
        if buf.len() > total {
            return Err(SnapshotError::TrailingBytes {
                extra: buf.len() - total,
            });
        }
        let sealed = buf
            .get(..SNAPSHOT_HEADER_LEN + body_len)
            .ok_or(SnapshotError::Truncated {
                needed: total,
                got: buf.len(),
            })?;
        let expected = crc32(sealed);
        let got = u32::from_le_bytes(le_bytes::<4>(buf, SNAPSHOT_HEADER_LEN + body_len)?);
        if expected != got {
            return Err(SnapshotError::BadCrc { expected, got });
        }
        let body = buf
            .get(SNAPSHOT_HEADER_LEN..SNAPSHOT_HEADER_LEN + body_len)
            .ok_or(SnapshotError::Truncated {
                needed: total,
                got: buf.len(),
            })?;
        let mut r = Reader { buf: body, pos: 0 };
        let snap = decode_body(&mut r)?;
        if r.pos != body.len() {
            return Err(SnapshotError::TrailingBytes {
                extra: body.len() - r.pos,
            });
        }
        Ok(snap)
    }
}

/// An encoded snapshot that is known to decode: the unit a
/// [`SnapshotPager`](crate::hibernate::SnapshotPager) stores and the
/// trace store appends.
///
/// The only ways to get one are [`encode`](Self::encode) (the bytes
/// come from the codec) and [`validate`](Self::validate) (a full decode
/// of bytes from anywhere else), so the check happens once, where bytes
/// of unknown origin come in, and every later holder trusts it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodedSnapshot {
    client_id: u32,
    bytes: Vec<u8>,
}

impl EncodedSnapshot {
    /// Encodes `snap` ([`SessionSnapshot::encode`]: one buffer, capacity
    /// equal to length).
    pub fn encode(snap: &SessionSnapshot) -> Result<EncodedSnapshot, SnapshotError> {
        Ok(EncodedSnapshot {
            client_id: snap.client_id,
            bytes: snap.encode()?,
        })
    }

    /// Adopts bytes of unknown origin after decoding them in full: a
    /// buffer that would not [`SessionSnapshot::decode`] is refused
    /// with the decoder's error. The buffer is kept as given, capacity
    /// included.
    pub fn validate(bytes: Vec<u8>) -> Result<EncodedSnapshot, SnapshotError> {
        let client_id = SessionSnapshot::decode(&bytes)?.client_id;
        Ok(EncodedSnapshot { client_id, bytes })
    }

    /// The client the snapshot belongs to.
    pub fn client_id(&self) -> u32 {
        self.client_id
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The encoded bytes, moved out.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads `N` little-endian bytes at `offset`, as a typed error instead
/// of a panicking slice-index on short input.
#[inline]
fn le_bytes<const N: usize>(buf: &[u8], offset: usize) -> Result<[u8; N], SnapshotError> {
    buf.get(offset..offset + N)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or(SnapshotError::Truncated {
            needed: offset + N,
            got: buf.len(),
        })
}

// ---------------------------------------------------------------- encode

/// Where the field walk puts bytes: the output buffer, or a
/// [`ByteCount`] that sizes it first.
trait Out {
    fn put(&mut self, bytes: &[u8]);
}

impl Out for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Counts the bytes a walk would write.
struct ByteCount(usize);

impl Out for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

fn put_u8(out: &mut impl Out, v: u8) {
    out.put(&[v]);
}

fn put_u32(out: &mut impl Out, v: u32) {
    out.put(&v.to_le_bytes());
}

fn put_u64(out: &mut impl Out, v: u64) {
    out.put(&v.to_le_bytes());
}

fn put_f64(out: &mut impl Out, v: f64) {
    out.put(&v.to_bits().to_le_bytes());
}

fn put_len(out: &mut impl Out, field: &'static str, len: usize) -> Result<(), SnapshotError> {
    if len > MAX_ELEMS {
        return Err(SnapshotError::FieldTooLong { field, len });
    }
    put_u32(out, len as u32);
    Ok(())
}

fn put_f64s(out: &mut impl Out, field: &'static str, xs: &[f64]) -> Result<(), SnapshotError> {
    put_len(out, field, xs.len())?;
    for &x in xs {
        put_f64(out, x);
    }
    Ok(())
}

fn put_opt_f64(out: &mut impl Out, v: Option<f64>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_f64(out, x);
        }
    }
}

fn put_opt_u64(out: &mut impl Out, v: Option<u64>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_u64(out, x);
        }
    }
}

fn mode_to_u8(m: MobilityMode) -> u8 {
    match m {
        MobilityMode::Static => 0,
        MobilityMode::Environmental => 1,
        MobilityMode::Micro => 2,
        MobilityMode::Macro => 3,
    }
}

fn direction_to_u8(d: Option<Direction>) -> u8 {
    match d {
        None => 0,
        Some(Direction::Towards) => 1,
        Some(Direction::Away) => 2,
    }
}

fn put_opt_classification(out: &mut impl Out, c: &Option<Classification>) {
    match c {
        None => put_u8(out, 0),
        Some(c) => {
            put_u8(out, 1);
            put_u8(out, mode_to_u8(c.mode));
            put_u8(out, direction_to_u8(c.direction));
        }
    }
}

fn encode_body(snap: &SessionSnapshot, out: &mut impl Out) -> Result<(), SnapshotError> {
    put_u32(out, snap.client_id);
    put_opt_classification(out, &snap.last_emitted);

    // Classifier: similarity tracker.
    let cl = &snap.state.classifier;
    put_len(out, "similarity.recent", cl.similarity.recent.len())?;
    for (at, profile) in &cl.similarity.recent {
        put_u64(out, *at);
        put_f64s(out, "similarity.recent.profile", profile)?;
    }
    match &cl.similarity.last_profile {
        None => put_u8(out, 0),
        Some(p) => {
            put_u8(out, 1);
            put_f64s(out, "similarity.last_profile", p)?;
        }
    }
    put_opt_u64(out, cl.similarity.next_sample_at);
    put_opt_f64(out, cl.similarity.last_similarity);
    put_f64s(out, "similarity.avg", &cl.similarity.avg)?;

    // Classifier: trend window and Figure-5 registers.
    put_f64s(out, "trend_samples", &cl.trend_samples)?;
    put_u8(out, cl.tof_active as u8);
    put_opt_classification(out, &cl.current);
    put_u64(out, cl.decisions);
    match cl.last_trend {
        None => put_u8(out, 0),
        Some((at, d)) => {
            put_u8(out, 1);
            put_u64(out, at);
            put_u8(out, direction_to_u8(Some(d)));
        }
    }

    // ToF sampler.
    let tof = &snap.state.tof;
    for k in tof.rng.key {
        put_u32(out, k);
    }
    put_u64(out, tof.rng.counter);
    put_u8(out, tof.rng.index);
    put_opt_f64(out, tof.rng.gauss_spare);
    put_u64(out, tof.next_sample_at);
    put_u64(out, tof.period_end);
    put_f64s(out, "tof.batch", &tof.batch)?;
    put_len(out, "tof.history", tof.history.len())?;
    for m in &tof.history {
        put_u64(out, m.at);
        put_f64(out, m.cycles);
    }
    Ok(())
}

// ---------------------------------------------------------------- decode

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let bytes = le_bytes::<N>(self.buf, self.pos)?;
        self.pos += N;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn len(&mut self, field: &'static str) -> Result<usize, SnapshotError> {
        let len = self.u32()? as usize;
        if len > MAX_ELEMS {
            return Err(SnapshotError::FieldTooLong { field, len });
        }
        Ok(len)
    }

    /// A length-prefixed `f64` vector, read as one slice. A short
    /// buffer gets the error an element-by-element read would give: the
    /// first element that does not fit whole.
    fn f64s(&mut self, field: &'static str) -> Result<Vec<f64>, SnapshotError> {
        let len = self.len(field)?;
        let whole = self.buf.len().saturating_sub(self.pos) / 8;
        let truncated = SnapshotError::Truncated {
            needed: self.pos + 8 * whole.min(len) + 8,
            got: self.buf.len(),
        };
        if len > whole {
            return Err(truncated);
        }
        let bytes = self
            .buf
            .get(self.pos..self.pos + 8 * len)
            .ok_or(truncated)?;
        self.pos += 8 * len;
        let mut out = Vec::with_capacity(len);
        for chunk in bytes.chunks_exact(8) {
            if let Ok(b) = <[u8; 8]>::try_from(chunk) {
                out.push(f64::from_le_bytes(b));
            }
        }
        Ok(out)
    }

    fn tag(&mut self, field: &'static str) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(SnapshotError::BadEnum { field, value }),
        }
    }

    fn opt_f64(&mut self, field: &'static str) -> Result<Option<f64>, SnapshotError> {
        Ok(if self.tag(field)? {
            Some(self.f64()?)
        } else {
            None
        })
    }

    fn opt_u64(&mut self, field: &'static str) -> Result<Option<u64>, SnapshotError> {
        Ok(if self.tag(field)? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    fn mode(&mut self, field: &'static str) -> Result<MobilityMode, SnapshotError> {
        match self.u8()? {
            0 => Ok(MobilityMode::Static),
            1 => Ok(MobilityMode::Environmental),
            2 => Ok(MobilityMode::Micro),
            3 => Ok(MobilityMode::Macro),
            value => Err(SnapshotError::BadEnum { field, value }),
        }
    }

    fn opt_direction(&mut self, field: &'static str) -> Result<Option<Direction>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(Direction::Towards)),
            2 => Ok(Some(Direction::Away)),
            value => Err(SnapshotError::BadEnum { field, value }),
        }
    }

    fn opt_classification(
        &mut self,
        field: &'static str,
    ) -> Result<Option<Classification>, SnapshotError> {
        Ok(if self.tag(field)? {
            Some(Classification {
                mode: self.mode(field)?,
                direction: self.opt_direction(field)?,
            })
        } else {
            None
        })
    }
}

fn decode_body(r: &mut Reader<'_>) -> Result<SessionSnapshot, SnapshotError> {
    let client_id = r.u32()?;
    let last_emitted = r.opt_classification("last_emitted")?;

    let recent_len = r.len("similarity.recent")?;
    let mut recent = Vec::with_capacity(recent_len.min(16));
    for _ in 0..recent_len {
        let at = r.u64()?;
        let profile = r.f64s("similarity.recent.profile")?;
        recent.push((at, profile));
    }
    let last_profile = if r.tag("similarity.last_profile")? {
        Some(r.f64s("similarity.last_profile")?)
    } else {
        None
    };
    let next_sample_at = r.opt_u64("similarity.next_sample_at")?;
    let last_similarity = r.opt_f64("similarity.last_similarity")?;
    let avg = r.f64s("similarity.avg")?;

    let trend_samples = r.f64s("trend_samples")?;
    let tof_active = r.tag("tof_active")?;
    let current = r.opt_classification("current")?;
    let decisions = r.u64()?;
    let last_trend = if r.tag("last_trend")? {
        let at: Nanos = r.u64()?;
        match r.opt_direction("last_trend.direction")? {
            Some(d) => Some((at, d)),
            None => {
                return Err(SnapshotError::BadEnum {
                    field: "last_trend.direction",
                    value: 0,
                })
            }
        }
    } else {
        None
    };

    let mut key = [0u32; 8];
    for k in &mut key {
        *k = r.u32()?;
    }
    let counter = r.u64()?;
    let index = r.u8()?;
    let gauss_spare = r.opt_f64("rng.gauss_spare")?;
    let tof_next_sample_at = r.u64()?;
    let period_end = r.u64()?;
    let batch = r.f64s("tof.batch")?;
    let history_len = r.len("tof.history")?;
    let mut history = Vec::with_capacity(history_len.min(1024));
    for _ in 0..history_len {
        let at = r.u64()?;
        let cycles = r.f64()?;
        history.push(TofMeasurement { at, cycles });
    }

    Ok(SessionSnapshot {
        client_id,
        last_emitted,
        state: SessionState {
            classifier: ClassifierState {
                similarity: SimilarityState {
                    recent,
                    last_profile,
                    next_sample_at,
                    last_similarity,
                    avg,
                },
                trend_samples,
                tof_active,
                current,
                decisions,
                last_trend,
            },
            tof: TofSamplerState {
                rng: DetRngState {
                    key,
                    counter,
                    index,
                    gauss_spare,
                },
                next_sample_at: tof_next_sample_at,
                period_end,
                batch,
                history,
            },
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_core::pipeline::{PipelineConfig, PipelineSession};
    use mobisense_core::Scenario;
    use mobisense_core::ScenarioKind;
    use mobisense_util::units::SECOND;

    /// The [`busy_snapshot`] pre-encoded, built once: the corruption
    /// proptests mutate hundreds of copies and must not re-drive the
    /// scenario per case.
    fn busy_bytes() -> &'static [u8] {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| busy_snapshot().encode().expect("encodes"))
    }

    /// A snapshot with every optional field populated and non-trivial
    /// window contents, taken from a genuinely driven session.
    pub(crate) fn busy_snapshot() -> SessionSnapshot {
        let cfg = PipelineConfig::default();
        let mut session = PipelineSession::new(cfg.clone(), 99);
        let mut sc = Scenario::new(ScenarioKind::MacroAway, 99);
        let mut last = None;
        let mut t = 0;
        while t <= 11 * SECOND {
            let obs = sc.observe(t);
            if let Some(c) = session.observe(t, &obs.csi, obs.distance_m) {
                last = Some(c);
            }
            t += cfg.step;
        }
        SessionSnapshot {
            client_id: 0xDEAD_BEEF,
            last_emitted: last,
            state: session.snapshot(),
        }
    }

    fn minimal_snapshot() -> SessionSnapshot {
        SessionSnapshot {
            client_id: 7,
            last_emitted: None,
            state: PipelineSession::new(PipelineConfig::default(), 7).snapshot(),
        }
    }

    #[test]
    fn round_trip_is_exact() {
        for snap in [busy_snapshot(), minimal_snapshot()] {
            let bytes = snap.encode().expect("encodes");
            let back = SessionSnapshot::decode(&bytes).expect("decodes");
            assert_eq!(back, snap);
        }
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        // Format pin: the length and CRC-32 of two deterministic
        // snapshots' encodings. Any change to the byte layout, however
        // the encoder is restructured, fails here. The pinned CRC is the
        // one over everything before the trailer: the CRC of a whole
        // snapshot is the constant CRC-32 residue, whatever it holds.
        let pin = |bytes: &[u8]| {
            let sealed = &bytes[..bytes.len() - 4];
            (bytes.len(), crc32(sealed))
        };
        let busy = busy_snapshot().encode().expect("encodes");
        assert_eq!(pin(&busy), (2094, 0x4116_9900));
        let minimal = minimal_snapshot().encode().expect("encodes");
        assert_eq!(pin(&minimal), (113, 0x196c_91f5));
    }

    #[test]
    fn encode_and_typed_page_hold_no_spare_capacity() {
        for snap in [busy_snapshot(), minimal_snapshot()] {
            let bytes = snap.encode().expect("encodes");
            assert_eq!(bytes.capacity(), bytes.len());
            let page = EncodedSnapshot::encode(&snap).expect("encodes");
            assert_eq!(page.client_id(), snap.client_id);
            assert_eq!(page.as_bytes(), &bytes[..]);
            let page = page.into_bytes();
            assert_eq!(page.capacity(), page.len());
        }
    }

    #[test]
    fn validate_refuses_what_decode_refuses() {
        let bytes = busy_bytes().to_vec();
        let page = EncodedSnapshot::validate(bytes.clone()).expect("valid");
        assert_eq!(page.client_id(), 0xDEAD_BEEF);
        assert_eq!(page.into_bytes(), bytes);
        let mut flipped = bytes.clone();
        flipped[40] ^= 0x04;
        assert_eq!(
            EncodedSnapshot::validate(flipped.clone()),
            Err(SessionSnapshot::decode(&flipped).expect_err("corrupt"))
        );
        assert!(EncodedSnapshot::validate(bytes[..bytes.len() - 1].to_vec()).is_err());
    }

    #[test]
    fn bulk_f64s_fail_like_an_element_by_element_read() {
        // The slice read must report the truncation an element-wise
        // read reports: the first element that does not fit whole.
        fn elementwise(buf: &[u8]) -> Result<Vec<f64>, SnapshotError> {
            let mut r = Reader { buf, pos: 0 };
            let len = r.len("xs")?;
            (0..len).map(|_| r.f64()).collect()
        }
        let xs = [1.5f64, -2.25, 3.0, 1e-300];
        let mut full = Vec::new();
        put_f64s(&mut full, "xs", &xs).expect("encodes");
        for cut in 0..=full.len() {
            let buf = &full[..cut];
            let mut r = Reader { buf, pos: 0 };
            assert_eq!(r.f64s("xs"), elementwise(buf), "cut at {cut}");
        }
        let mut r = Reader { buf: &full, pos: 0 };
        assert_eq!(r.f64s("xs"), Ok(xs.to_vec()));
        assert_eq!(r.pos, full.len());
    }

    #[test]
    fn busy_snapshot_exercises_every_optional_field() {
        // Guard: if the session drive ever stops populating the state,
        // the corruption proptests would silently lose coverage.
        let s = busy_snapshot();
        assert!(s.last_emitted.is_some());
        assert!(!s.state.classifier.similarity.recent.is_empty());
        assert!(s.state.classifier.similarity.last_profile.is_some());
        assert!(s.state.classifier.similarity.next_sample_at.is_some());
        assert!(s.state.classifier.similarity.last_similarity.is_some());
        assert!(!s.state.classifier.similarity.avg.is_empty());
        assert!(!s.state.classifier.trend_samples.is_empty());
        assert!(s.state.classifier.tof_active);
        assert!(s.state.classifier.current.is_some());
        assert!(s.state.classifier.decisions > 0);
        assert!(s.state.classifier.last_trend.is_some());
        assert!(!s.state.tof.history.is_empty());
    }

    #[test]
    fn restored_state_continues_identically() {
        // Codec-level version of the hibernation invariant: byte round
        // trip, then both sessions continue decision-for-decision.
        let cfg = PipelineConfig::default();
        let mut original = PipelineSession::new(cfg.clone(), 5);
        let mut sc_a = Scenario::new(ScenarioKind::Micro, 5);
        let mut sc_b = Scenario::new(ScenarioKind::Micro, 5);
        let mut t = 0;
        while t <= 8 * SECOND {
            let o = sc_a.observe(t);
            original.observe(t, &o.csi, o.distance_m);
            sc_b.observe(t);
            t += cfg.step;
        }
        let snap = SessionSnapshot {
            client_id: 1,
            last_emitted: None,
            state: original.snapshot(),
        };
        let bytes = snap.encode().expect("encodes");
        let back = SessionSnapshot::decode(&bytes).expect("decodes");
        let mut restored = PipelineSession::restore(cfg, back.state);
        while t <= 20 * SECOND {
            let oa = sc_a.observe(t);
            let ob = sc_b.observe(t);
            assert_eq!(
                original.observe(t, &oa.csi, oa.distance_m),
                restored.observe(t, &ob.csi, ob.distance_m),
            );
            t += original.config().step;
        }
    }

    #[test]
    fn corrupt_header_fields_rejected_with_typed_errors() {
        let bytes = busy_snapshot().encode().expect("encodes");

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            SessionSnapshot::decode(&bad_magic),
            Err(SnapshotError::BadMagic(_))
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFE;
        assert!(matches!(
            SessionSnapshot::decode(&bad_version),
            Err(SnapshotError::BadVersion(_))
        ));

        let mut bad_reserved = bytes.clone();
        bad_reserved[6] = 1;
        assert!(matches!(
            SessionSnapshot::decode(&bad_reserved),
            Err(SnapshotError::BadReserved(_))
        ));

        let mut huge_body = bytes.clone();
        huge_body[8..12].copy_from_slice(&(MAX_BODY_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(
            SessionSnapshot::decode(&huge_body),
            Err(SnapshotError::BodyTooLong { .. })
        ));

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            SessionSnapshot::decode(&trailing),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(SnapshotError::BadMagic(7).to_string().contains("0x"));
        assert!(SnapshotError::Truncated { needed: 16, got: 3 }
            .to_string()
            .contains("16"));
        assert!(SnapshotError::BadEnum {
            field: "tof_active",
            value: 9
        }
        .to_string()
        .contains("tof_active"));
        assert!(SnapshotError::FieldTooLong {
            field: "tof.batch",
            len: 1 << 21
        }
        .to_string()
        .contains("tof.batch"));
    }

    #[test]
    fn oversize_state_vector_is_a_typed_encode_error() {
        let mut snap = minimal_snapshot();
        snap.state.tof.batch = vec![0.0; MAX_ELEMS + 1];
        assert!(matches!(
            snap.encode(),
            Err(SnapshotError::FieldTooLong {
                field: "tof.batch",
                ..
            })
        ));
    }

    proptest::proptest! {
        /// Satellite invariant: ANY single bit flip anywhere in an
        /// encoded snapshot — header, body, length field, or the CRC
        /// itself — is detected as a typed error. There is no silently
        /// divergent restore.
        #[test]
        fn any_single_bit_flip_is_detected(bit in 0usize..8 * 512) {
            let bytes = busy_bytes();
            let bit = bit % (bytes.len() * 8);
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            proptest::prop_assert!(
                SessionSnapshot::decode(&flipped).is_err(),
                "bit flip at byte {} bit {} went undetected",
                bit / 8,
                bit % 8
            );
        }

        /// Any truncation of a snapshot is detected.
        #[test]
        fn any_truncation_is_detected(cut in 0usize..8 * 512) {
            let bytes = busy_bytes();
            let cut = cut % bytes.len();
            proptest::prop_assert!(SessionSnapshot::decode(&bytes[..cut]).is_err());
        }

        /// Random garbage never panics the decoder and never yields a
        /// snapshot (the magic alone makes accidental success all but
        /// impossible; combined with the CRC it is astronomically so).
        #[test]
        fn random_garbage_never_panics(
            seeds in proptest::collection::vec(0u64..u64::MAX, 0..256),
        ) {
            let data: Vec<u8> = seeds.iter().map(|&s| (s % 256) as u8).collect();
            let _ = SessionSnapshot::decode(&data);
        }

        /// Round-trip over randomly parameterised (but structurally
        /// valid) snapshots: encode ∘ decode = identity.
        #[test]
        fn random_snapshot_round_trips(
            client_id in 0u32..u32::MAX,
            seed in 0u64..1_000,
            decisions in 0u64..u64::MAX,
            counter in 0u64..u64::MAX,
            index in 0u8..17,
            gauss_tag in 0u8..2,
            gauss_val in -10.0..10.0f64,
            batch in proptest::collection::vec(-100.0..100.0f64, 0..8),
        ) {
            let mut snap = SessionSnapshot {
                client_id,
                last_emitted: None,
                state: PipelineSession::new(PipelineConfig::default(), seed).snapshot(),
            };
            snap.state.classifier.decisions = decisions;
            snap.state.tof.rng.counter = counter;
            snap.state.tof.rng.index = index;
            snap.state.tof.rng.gauss_spare = (gauss_tag == 1).then_some(gauss_val);
            snap.state.tof.batch = batch;
            let bytes = snap.encode().expect("encodes");
            let back = SessionSnapshot::decode(&bytes).expect("decodes");
            proptest::prop_assert_eq!(back, snap);
        }
    }
}
