//! Seeded workload inputs, built by tiling a small generated base fleet.
//!
//! Generating a fleet runs the ray channel per client per frame and
//! costs seconds per few dozen client-seconds, so every workload draws
//! from one small base fleet generated from the seed and tiles it: a
//! workload client `c` replays base stream `c % BASE_CLIENTS` with its
//! own client id written into the 28-byte wire header. The id also
//! picks the session's ToF noise stream on the serving side, so tiled
//! clients are distinct sessions with distinct decisions.

use mobisense_serve::fleet::{ClientStream, EncodedFleet, FleetConfig};
use mobisense_serve::ObsFrame;
use mobisense_util::units::{Nanos, MILLISECOND, SECOND};

/// Distinct generated client worlds every workload tiles.
pub const BASE_CLIENTS: u32 = 16;
/// Wire cadence of every client: the paper's 50 Hz CSI/ToF sampling.
pub const STEP: Nanos = 20 * MILLISECOND;
/// Byte offset of the little-endian client id in a wire frame.
const CLIENT_ID_OFFSET: usize = 4;

/// The generated base fleet every workload tiles.
pub struct Base {
    streams: Vec<ClientStream>,
    frame_len: usize,
    steps: usize,
}

impl Base {
    /// Generates `BASE_CLIENTS` client worlds of `duration` sim time
    /// from `seed` (the same seed always gives the same bytes).
    pub fn generate(seed: u64, duration: Nanos) -> Base {
        let cfg = FleetConfig {
            n_clients: BASE_CLIENTS,
            duration,
            step: STEP,
            base_seed: seed,
            ..FleetConfig::default()
        };
        Self::from_streams(EncodedFleet::generate(&cfg).streams)
    }

    /// Wraps already-generated equal-length streams.
    pub fn from_streams(streams: Vec<ClientStream>) -> Base {
        let frame_len = streams.first().map_or(0, |s| s.frame_len);
        let steps = streams.iter().map(|s| s.n_frames).min().unwrap_or(0);
        assert!(frame_len > 0 && steps > 0, "base fleet is empty");
        assert!(
            streams.iter().all(|s| s.frame_len == frame_len),
            "base streams differ in frame length"
        );
        Base {
            streams,
            frame_len,
            steps,
        }
    }

    /// Encoded size of every frame.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Frames per client lifetime (one per [`STEP`]).
    pub fn steps(&self) -> usize {
        self.steps
    }

    fn stream_of(&self, client: u32) -> &ClientStream {
        &self.streams[client as usize % self.streams.len()]
    }

    /// Appends client `client`'s frame `step` (wire encoding) to `out`.
    pub fn push_frame(&self, client: u32, step: usize, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(self.stream_of(client).frame(step));
        out[start + CLIENT_ID_OFFSET..start + CLIENT_ID_OFFSET + 4]
            .copy_from_slice(&client.to_le_bytes());
    }

    /// Client `client`'s frame `step`, decoded.
    pub fn obs(&self, client: u32, step: usize) -> ObsFrame {
        let mut frame = self.stream_of(client).obs(step);
        frame.client_id = client;
        frame
    }

    /// One stream per client holding the frames at `steps_of(client)`,
    /// in order: the in-process view of a workload for the golden run.
    pub fn streams(
        &self,
        clients: u32,
        mut steps_of: impl FnMut(u32) -> Vec<usize>,
    ) -> Vec<ClientStream> {
        (0..clients)
            .filter_map(|c| {
                let steps = steps_of(c);
                if steps.is_empty() {
                    return None;
                }
                let mut bytes = Vec::with_capacity(steps.len() * self.frame_len);
                for i in steps {
                    self.push_frame(c, i, &mut bytes);
                }
                Some(ClientStream::from_encoded(c, self.frame_len, bytes))
            })
            .collect()
    }
}

/// One loadgen connection's bytes: its clients' frames, time-major
/// (every client's frame `i` before any client's frame `i + 1`), so
/// each client's own order is kept on its one connection.
pub struct ConnInput {
    /// The concatenated wire frames.
    pub bytes: Vec<u8>,
    /// Frames carried per step (the connection's client count).
    pub per_step: usize,
}

impl ConnInput {
    /// Frames in the buffer.
    pub fn frames(&self, frame_len: usize) -> usize {
        self.bytes.len() / frame_len
    }
}

/// Splits `clients` clients over `conns` connections (client `c` on
/// connection `c % conns`) for `steps` steps.
pub fn conn_inputs(base: &Base, clients: u32, conns: usize, steps: usize) -> Vec<ConnInput> {
    assert!(steps <= base.steps(), "workload outlives the base fleet");
    (0..conns)
        .map(|k| {
            let mine: Vec<u32> = (0..clients).filter(|c| *c as usize % conns == k).collect();
            let mut bytes = Vec::with_capacity(mine.len() * steps * base.frame_len());
            for i in 0..steps {
                for &c in &mine {
                    base.push_frame(c, i, &mut bytes);
                }
            }
            ConnInput {
                bytes,
                per_step: mine.len(),
            }
        })
        .collect()
}

/// Heavy-tailed client activity for the hibernation workload.
pub struct ChurnSchedule {
    /// Client ids active at each step, ascending.
    pub active: Vec<Vec<u32>>,
    /// Bursts that start after an idle gap (each begins with a fault-in
    /// when the gap exceeds the hibernation idle threshold).
    pub resumed_bursts: u64,
}

/// Shape of [`churn_schedule`]'s activity.
pub struct ChurnShape {
    /// Total clients.
    pub clients: u32,
    /// Every `continuous_every`-th client streams every step.
    pub continuous_every: u32,
    /// Shortest gap between two bursts of a sparse client, in steps.
    pub min_gap: usize,
    /// Pareto shape of the gap distribution (smaller = heavier tail).
    pub gap_alpha: f64,
    /// Burst lengths are uniform in `1..=max_burst` steps.
    pub max_burst: usize,
}

/// Draws each sparse client's bursts from `seed`: gaps are Pareto
/// distributed above `min_gap`, bursts short and uniform.
pub fn churn_schedule(shape: &ChurnShape, steps: usize, seed: u64) -> ChurnSchedule {
    let mut active = vec![Vec::new(); steps];
    let mut resumed_bursts = 0u64;
    let mut rng = SplitMix(seed ^ 0x6368_7572_6e00);
    for c in 0..shape.clients {
        if c % shape.continuous_every == 0 {
            for slot in active.iter_mut() {
                slot.push(c);
            }
            continue;
        }
        let mut at = (rng.unit() * shape.min_gap as f64 * 4.0) as usize;
        let mut first = true;
        while at < steps {
            let len = 1 + (rng.unit() * shape.max_burst as f64) as usize;
            let len = len.min(shape.max_burst);
            for slot in active.iter_mut().skip(at).take(len) {
                slot.push(c);
            }
            if !first {
                resumed_bursts += 1;
            }
            first = false;
            // Pareto(x_min, alpha) by inversion; 1 - u lies in (0, 1].
            let gap = shape.min_gap as f64 / (1.0 - rng.unit()).powf(1.0 / shape.gap_alpha);
            at += len + gap.min(steps as f64) as usize;
        }
    }
    ChurnSchedule {
        active,
        resumed_bursts,
    }
}

impl ChurnSchedule {
    /// Total frames the schedule submits.
    pub fn frames(&self) -> u64 {
        self.active.iter().map(|a| a.len() as u64).sum()
    }

    /// The steps at which each client is active, ascending, index =
    /// client id.
    pub fn steps_per_client(&self, clients: u32) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); clients as usize];
        for (step, active) in self.active.iter().enumerate() {
            for &c in active {
                out[c as usize].push(step);
            }
        }
        out
    }
}

/// A tiny deterministic generator for schedule draws (splitmix64).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Steps that cover `secs` of sim time at the wire cadence.
pub fn steps_for(secs: u64) -> usize {
    (secs * SECOND / STEP) as usize + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_base() -> Base {
        let frames = |id: u32| -> Vec<ObsFrame> {
            (0..5)
                .map(|i| ObsFrame {
                    client_id: id,
                    seq: i,
                    at: i as Nanos * STEP,
                    distance_m: 1.0 + id as f64,
                    digest: vec![0.5; 4],
                })
                .collect()
        };
        Base::from_streams(
            (0..BASE_CLIENTS)
                .map(|id| ClientStream::from_frames(id, &frames(id)))
                .collect(),
        )
    }

    #[test]
    fn tiled_frames_carry_their_own_client_id() {
        let base = tiny_base();
        let mut buf = Vec::new();
        base.push_frame(BASE_CLIENTS + 3, 2, &mut buf);
        let (frame, used) = ObsFrame::decode(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(frame.client_id, BASE_CLIENTS + 3);
        assert_eq!(frame.seq, 2);
        assert_eq!(frame.distance_m, 4.0, "payload of base client 3");
        assert_eq!(base.obs(BASE_CLIENTS + 3, 2), frame);
    }

    #[test]
    fn connections_keep_each_clients_order() {
        let base = tiny_base();
        let conns = conn_inputs(&base, 5, 2, 4);
        assert_eq!(conns[0].per_step, 3);
        assert_eq!(conns[1].per_step, 2);
        let frames = mobisense_serve::decode_stream(&conns[0].bytes).unwrap();
        let seqs: Vec<u32> = frames
            .iter()
            .filter(|f| f.client_id == 2)
            .map(|f| f.seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert!(frames.iter().all(|f| f.client_id % 2 == 0));
    }

    #[test]
    fn churn_schedule_is_seeded_and_sparse() {
        let shape = ChurnShape {
            clients: 200,
            continuous_every: 10,
            min_gap: 20,
            gap_alpha: 1.5,
            max_burst: 3,
        };
        let a = churn_schedule(&shape, 300, 7);
        let b = churn_schedule(&shape, 300, 7);
        assert_eq!(a.active, b.active);
        let per_client = a.steps_per_client(shape.clients);
        assert_eq!(per_client[10].len(), 300, "continuous client");
        let sparse = &per_client[11];
        assert!(!sparse.is_empty() && sparse.len() < 100);
        assert!(a.resumed_bursts > 0);
        assert_ne!(a.active, churn_schedule(&shape, 300, 8).active);
    }
}
