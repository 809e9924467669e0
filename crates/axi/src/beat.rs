//! Per-channel AXI payloads at beat granularity.
//!
//! Each of the five AXI channels carries its own payload type. Beats
//! additionally carry two pieces of simulation metadata that have no
//! hardware counterpart but do not influence model behaviour:
//!
//! * `tag` — a master-assigned transaction tag used by monitors and by
//!   the Transaction Supervisor to merge split responses, and
//! * `issued_at` — the cycle the originating master issued the beat,
//!   used to measure propagation latencies (the paper measures these with
//!   a custom FPGA timer; the simulator reads them off the beats).
//!
//! The observability layer adds two more pieces of sim-only metadata:
//!
//! * `uid` — a unique per-transaction ID assigned by the interconnect at
//!   ingest (0 = unobserved). Splitting propagates the parent's `uid` to
//!   every sub-transaction, and the memory controller copies it from the
//!   address beat into the matching R/B responses, so a transaction can
//!   be followed hop by hop through the whole fabric.
//! * `hopped_at` (R/B only) — the cycle the memory controller pushed the
//!   response toward the interconnect, the reference point for measuring
//!   the response channels' propagation latency.
//!
//! `uid` and `hopped_at` are deliberately *excluded* from R/B beat
//! equality: they are observer bookkeeping, not payload, and harnesses
//! comparing expected response beats must not have to predict them.

use sim::Cycle;

use crate::payload::Payload;
use crate::types::{AxiId, BurstKind, BurstSize, Resp};

/// A read-address (AR) channel beat: one read burst request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArBeat {
    /// Transaction ID (`ARID`).
    pub id: AxiId,
    /// Start address (`ARADDR`).
    pub addr: u64,
    /// Burst length in beats (the *actual* count, i.e. `ARLEN + 1`).
    pub len: u32,
    /// Beat size (`ARSIZE`).
    pub size: BurstSize,
    /// Burst type (`ARBURST`).
    pub burst: BurstKind,
    /// Quality-of-service hint (`ARQOS`); transported but ignored by the
    /// SmartConnect model, as documented for the real IP (paper §II).
    pub qos: u8,
    /// Simulation-only transaction tag.
    pub tag: u64,
    /// Simulation-only issue timestamp.
    pub issued_at: Cycle,
    /// Simulation-only observability transaction ID (0 = unobserved).
    pub uid: u64,
}

impl ArBeat {
    /// Creates an INCR read request with default ID/QoS/tag.
    pub fn new(addr: u64, len: u32, size: BurstSize) -> Self {
        Self {
            id: AxiId::default(),
            addr,
            len,
            size,
            burst: BurstKind::Incr,
            qos: 0,
            tag: 0,
            issued_at: 0,
            uid: 0,
        }
    }

    /// Sets the transaction ID.
    pub fn with_id(mut self, id: AxiId) -> Self {
        self.id = id;
        self
    }

    /// Sets the simulation tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Sets the issue timestamp.
    pub fn with_issued_at(mut self, cycle: Cycle) -> Self {
        self.issued_at = cycle;
        self
    }

    /// Sets the observability transaction ID.
    pub fn with_uid(mut self, uid: u64) -> Self {
        self.uid = uid;
        self
    }

    /// Total bytes requested by this burst.
    pub fn total_bytes(&self) -> u64 {
        crate::burst::total_bytes(self.len, self.size)
    }
}

/// A write-address (AW) channel beat: one write burst request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AwBeat {
    /// Transaction ID (`AWID`).
    pub id: AxiId,
    /// Start address (`AWADDR`).
    pub addr: u64,
    /// Burst length in beats (`AWLEN + 1`).
    pub len: u32,
    /// Beat size (`AWSIZE`).
    pub size: BurstSize,
    /// Burst type (`AWBURST`).
    pub burst: BurstKind,
    /// Quality-of-service hint (`AWQOS`).
    pub qos: u8,
    /// Simulation-only transaction tag.
    pub tag: u64,
    /// Simulation-only issue timestamp.
    pub issued_at: Cycle,
    /// Simulation-only observability transaction ID (0 = unobserved).
    pub uid: u64,
}

impl AwBeat {
    /// Creates an INCR write request with default ID/QoS/tag.
    pub fn new(addr: u64, len: u32, size: BurstSize) -> Self {
        Self {
            id: AxiId::default(),
            addr,
            len,
            size,
            burst: BurstKind::Incr,
            qos: 0,
            tag: 0,
            issued_at: 0,
            uid: 0,
        }
    }

    /// Sets the transaction ID.
    pub fn with_id(mut self, id: AxiId) -> Self {
        self.id = id;
        self
    }

    /// Sets the simulation tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Sets the issue timestamp.
    pub fn with_issued_at(mut self, cycle: Cycle) -> Self {
        self.issued_at = cycle;
        self
    }

    /// Sets the observability transaction ID.
    pub fn with_uid(mut self, uid: u64) -> Self {
        self.uid = uid;
        self
    }

    /// Total bytes written by this burst.
    pub fn total_bytes(&self) -> u64 {
        crate::burst::total_bytes(self.len, self.size)
    }
}

/// A write-data (W) channel beat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WBeat {
    /// Payload bytes (exactly the beat size of the owning burst).
    /// Stored inline in the beat for ≤16-byte beats (see [`Payload`]).
    pub data: Payload,
    /// Write strobes (`WSTRB`): bit *i* set means byte *i* of the beat
    /// is written. Beats default to all-bytes-valid; only the low
    /// `data.len()` bits are meaningful (AXI beats are at most 128
    /// bytes, so a `u128` covers every legal size).
    pub strb: u128,
    /// `WLAST`: final beat of the burst.
    pub last: bool,
    /// Simulation-only transaction tag (copied from the AW beat).
    pub tag: u64,
    /// Simulation-only issue timestamp.
    pub issued_at: Cycle,
}

/// All-bytes-valid write strobe.
pub const STRB_ALL: u128 = u128::MAX;

impl WBeat {
    /// Creates a data beat with every byte strobed.
    pub fn new(data: impl Into<Payload>, last: bool) -> Self {
        Self {
            data: data.into(),
            strb: STRB_ALL,
            last,
            tag: 0,
            issued_at: 0,
        }
    }

    /// Sets the write strobes.
    pub fn with_strobe(mut self, strb: u128) -> Self {
        self.strb = strb;
        self
    }

    /// Whether byte `i` of the beat is strobed (written).
    pub fn byte_enabled(&self, i: usize) -> bool {
        i < 128 && (self.strb >> i) & 1 == 1
    }

    /// Sets the simulation tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Sets the issue timestamp.
    pub fn with_issued_at(mut self, cycle: Cycle) -> Self {
        self.issued_at = cycle;
        self
    }

    /// Generates the full W-beat stream for a burst, filling each beat's
    /// bytes via `fill(beat_index, byte_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn stream(
        len: u32,
        size: BurstSize,
        tag: u64,
        mut fill: impl FnMut(u32, u64) -> u8,
    ) -> Vec<WBeat> {
        assert!(len > 0, "burst length must be non-zero");
        (0..len)
            .map(|beat| {
                let data = Payload::from_fn(size.bytes() as usize, |b| fill(beat, b as u64));
                WBeat::new(data, beat == len - 1).with_tag(tag)
            })
            .collect()
    }
}

/// A read-data (R) channel beat.
///
/// Equality compares protocol payload and the `tag`/`issued_at`
/// measurement metadata, but *not* the observability fields `uid` and
/// `hopped_at` (see the module docs).
#[derive(Debug, Clone, Eq)]
pub struct RBeat {
    /// Transaction ID (`RID`).
    pub id: AxiId,
    /// Payload bytes (inline for ≤16-byte beats, see [`Payload`]).
    pub data: Payload,
    /// Response code (`RRESP`).
    pub resp: Resp,
    /// `RLAST`: final beat of the burst.
    pub last: bool,
    /// Simulation-only transaction tag (copied from the AR beat).
    pub tag: u64,
    /// Simulation-only timestamp of the originating AR issue (for
    /// end-to-end latency measurement).
    pub issued_at: Cycle,
    /// Simulation-only observability transaction ID (copied from the AR
    /// beat; 0 = unobserved). Excluded from equality.
    pub uid: u64,
    /// Simulation-only cycle the memory controller emitted this beat
    /// (response-channel latency reference). Excluded from equality.
    pub hopped_at: Cycle,
}

impl PartialEq for RBeat {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.data == other.data
            && self.resp == other.resp
            && self.last == other.last
            && self.tag == other.tag
            && self.issued_at == other.issued_at
    }
}

impl RBeat {
    /// Creates a successful read-data beat.
    pub fn new(id: AxiId, data: impl Into<Payload>, last: bool) -> Self {
        Self {
            id,
            data: data.into(),
            resp: Resp::Okay,
            last,
            tag: 0,
            issued_at: 0,
            uid: 0,
            hopped_at: 0,
        }
    }

    /// Sets the simulation tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Sets the response code.
    pub fn with_resp(mut self, resp: Resp) -> Self {
        self.resp = resp;
        self
    }

    /// Sets the originating issue timestamp.
    pub fn with_issued_at(mut self, cycle: Cycle) -> Self {
        self.issued_at = cycle;
        self
    }

    /// Sets the observability transaction ID.
    pub fn with_uid(mut self, uid: u64) -> Self {
        self.uid = uid;
        self
    }

    /// Sets the response-channel latency reference (the cycle the beat
    /// last crossed an emission point: memory controller or bridge).
    pub fn with_hopped_at(mut self, cycle: Cycle) -> Self {
        self.hopped_at = cycle;
        self
    }
}

/// A write-response (B) channel beat.
///
/// Equality excludes the observability fields `uid` and `hopped_at`,
/// like [`RBeat`].
#[derive(Debug, Clone, Copy, Eq)]
pub struct BBeat {
    /// Transaction ID (`BID`).
    pub id: AxiId,
    /// Response code (`BRESP`).
    pub resp: Resp,
    /// Simulation-only transaction tag (copied from the AW beat).
    pub tag: u64,
    /// Simulation-only timestamp of the originating AW issue.
    pub issued_at: Cycle,
    /// Simulation-only observability transaction ID (copied from the AW
    /// beat; 0 = unobserved). Excluded from equality.
    pub uid: u64,
    /// Simulation-only cycle the memory controller emitted this
    /// response. Excluded from equality.
    pub hopped_at: Cycle,
}

impl PartialEq for BBeat {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.resp == other.resp
            && self.tag == other.tag
            && self.issued_at == other.issued_at
    }
}

impl BBeat {
    /// Creates a successful write response.
    pub fn new(id: AxiId) -> Self {
        Self {
            id,
            resp: Resp::Okay,
            tag: 0,
            issued_at: 0,
            uid: 0,
            hopped_at: 0,
        }
    }

    /// Sets the simulation tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Sets the response code.
    pub fn with_resp(mut self, resp: Resp) -> Self {
        self.resp = resp;
        self
    }

    /// Sets the originating issue timestamp.
    pub fn with_issued_at(mut self, cycle: Cycle) -> Self {
        self.issued_at = cycle;
        self
    }

    /// Sets the observability transaction ID.
    pub fn with_uid(mut self, uid: u64) -> Self {
        self.uid = uid;
        self
    }

    /// Sets the response-channel latency reference (the cycle the beat
    /// last crossed an emission point: memory controller or bridge).
    pub fn with_hopped_at(mut self, cycle: Cycle) -> Self {
        self.hopped_at = cycle;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ar_builder_chain() {
        let ar = ArBeat::new(0x1000, 16, BurstSize::B4)
            .with_id(AxiId(3))
            .with_tag(99)
            .with_issued_at(42);
        assert_eq!(ar.id, AxiId(3));
        assert_eq!(ar.tag, 99);
        assert_eq!(ar.issued_at, 42);
        assert_eq!(ar.burst, BurstKind::Incr);
        assert_eq!(ar.total_bytes(), 64);
    }

    #[test]
    fn aw_total_bytes() {
        let aw = AwBeat::new(0, 8, BurstSize::B16);
        assert_eq!(aw.total_bytes(), 128);
    }

    #[test]
    fn w_stream_shape() {
        let beats = WBeat::stream(4, BurstSize::B4, 7, |beat, byte| {
            (beat * 10 + byte as u32) as u8
        });
        assert_eq!(beats.len(), 4);
        assert!(beats[..3].iter().all(|b| !b.last));
        assert!(beats[3].last);
        assert!(beats.iter().all(|b| b.tag == 7 && b.data.len() == 4));
        assert_eq!(beats[2].data, vec![20, 21, 22, 23]);
    }

    #[test]
    fn w_stream_single_beat_is_last() {
        let beats = WBeat::stream(1, BurstSize::B8, 0, |_, _| 0xAA);
        assert_eq!(beats.len(), 1);
        assert!(beats[0].last);
        assert_eq!(beats[0].data, vec![0xAA; 8]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn w_stream_zero_len_panics() {
        let _ = WBeat::stream(0, BurstSize::B4, 0, |_, _| 0);
    }

    #[test]
    fn r_beat_defaults_ok() {
        let r = RBeat::new(AxiId(1), vec![1, 2], true);
        assert_eq!(r.resp, Resp::Okay);
        assert!(r.last);
        let r = r.with_resp(Resp::SlvErr).with_tag(5).with_issued_at(9);
        assert_eq!(r.resp, Resp::SlvErr);
        assert_eq!((r.tag, r.issued_at), (5, 9));
    }

    #[test]
    fn strobe_defaults_to_all_bytes() {
        let w = WBeat::new(vec![0; 16], false);
        assert_eq!(w.strb, STRB_ALL);
        for i in 0..16 {
            assert!(w.byte_enabled(i));
        }
    }

    #[test]
    fn partial_strobe_selects_bytes() {
        let w = WBeat::new(vec![0; 4], true).with_strobe(0b0101);
        assert!(w.byte_enabled(0));
        assert!(!w.byte_enabled(1));
        assert!(w.byte_enabled(2));
        assert!(!w.byte_enabled(3));
        // Out-of-range byte indices are never enabled.
        assert!(!w.byte_enabled(200));
    }

    #[test]
    fn response_equality_ignores_observability_metadata() {
        let mut a = RBeat::new(AxiId(1), vec![1, 2], true).with_tag(3);
        let b = a.clone().with_uid(77);
        a.hopped_at = 123;
        assert_eq!(a, b, "uid/hopped_at must not affect R equality");
        let mut x = BBeat::new(AxiId(2)).with_tag(9);
        let y = x.with_uid(55);
        x.hopped_at = 42;
        assert_eq!(x, y, "uid/hopped_at must not affect B equality");
        // Protocol payload still participates.
        assert_ne!(a, b.with_tag(4));
    }

    #[test]
    fn address_beats_carry_uid() {
        let ar = ArBeat::new(0, 1, BurstSize::B4).with_uid(10);
        let aw = AwBeat::new(0, 1, BurstSize::B4).with_uid(11);
        assert_eq!(ar.uid, 10);
        assert_eq!(aw.uid, 11);
        // Unobserved beats default to uid 0.
        assert_eq!(ArBeat::new(0, 1, BurstSize::B4).uid, 0);
    }

    #[test]
    fn b_beat_builder() {
        let b = BBeat::new(AxiId(2)).with_resp(Resp::DecErr).with_tag(11);
        assert_eq!(b.id, AxiId(2));
        assert_eq!(b.resp, Resp::DecErr);
        assert_eq!(b.tag, 11);
    }
}
