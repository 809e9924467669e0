//! Reusable burst engines: the issue/consume logic shared by every
//! accelerator model.

use axi::beat::{ArBeat, AwBeat, WBeat};
use axi::burst::BOUNDARY_4K;
use axi::types::{AxiId, BurstSize};
use axi::{AxiPort, Payload};
use sim::stats::LatencyStat;
use sim::Cycle;

/// Clamps a burst so it never crosses a 4 KiB boundary: returns the
/// number of beats (at most `want_beats`) that fit from `addr` to the
/// boundary.
///
/// # Panics
///
/// Panics if `addr` is not aligned to the beat size.
pub fn clamp_to_4k(addr: u64, want_beats: u32, size: BurstSize) -> u32 {
    assert_eq!(addr % size.bytes(), 0, "unaligned burst start");
    let room = BOUNDARY_4K - (addr % BOUNDARY_4K);
    let fit = (room / size.bytes()) as u32;
    want_beats.min(fit).max(1)
}

/// A streaming read engine: reads `total_bytes` from `base` in bursts
/// of up to `burst_beats`, keeping up to `max_outstanding` requests in
/// flight.
#[derive(Debug, Clone)]
pub struct ReadEngine {
    id: AxiId,
    base: u64,
    total_beats: u64,
    burst_beats: u32,
    size: BurstSize,
    max_outstanding: u32,
    issued_beats: u64,
    received_beats: u64,
    outstanding: u32,
    next_tag: u64,
    started_at: Option<Cycle>,
    finished_at: Option<Cycle>,
    txn_latency: LatencyStat,
    /// Most recent data beat received (for integrity checks).
    last_data: Payload,
}

impl ReadEngine {
    /// Creates a read engine for `total_bytes` from `base`.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is not a positive multiple of the beat
    /// size, or `burst_beats` is zero.
    pub fn new(base: u64, total_bytes: u64, burst_beats: u32, size: BurstSize) -> Self {
        assert!(burst_beats > 0, "burst length must be non-zero");
        assert!(
            total_bytes > 0 && total_bytes.is_multiple_of(size.bytes()),
            "total bytes must be a positive multiple of the beat size"
        );
        Self {
            id: AxiId(0),
            base,
            total_beats: total_bytes / size.bytes(),
            burst_beats,
            size,
            max_outstanding: 4,
            issued_beats: 0,
            received_beats: 0,
            outstanding: 0,
            next_tag: 0,
            started_at: None,
            finished_at: None,
            txn_latency: LatencyStat::new(),
            last_data: Payload::new(),
        }
    }

    /// Sets the outstanding-request limit.
    pub fn max_outstanding(mut self, n: u32) -> Self {
        self.max_outstanding = n.max(1);
        self
    }

    /// Sets the AXI ID used on requests.
    pub fn id(mut self, id: AxiId) -> Self {
        self.id = id;
        self
    }

    /// Whether every requested beat has been received.
    pub fn is_done(&self) -> bool {
        self.received_beats >= self.total_beats
    }

    /// Cycle the final beat arrived, if done.
    pub fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    /// Per-burst latency distribution (AR issue to that burst's final
    /// beat, as stamped through the interconnect).
    pub fn txn_latency(&self) -> &LatencyStat {
        &self.txn_latency
    }

    /// Beats received so far.
    pub fn received_beats(&self) -> u64 {
        self.received_beats
    }

    /// Restarts the engine for another pass over the same region.
    pub fn restart(&mut self) {
        self.issued_beats = 0;
        self.received_beats = 0;
        self.outstanding = 0;
        self.started_at = None;
        self.finished_at = None;
    }

    /// Issues at most one request and consumes any arrived data beats.
    pub fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        let mut progress = false;
        // Issue.
        if self.issued_beats < self.total_beats
            && self.outstanding < self.max_outstanding
            && !port.ar.is_full()
        {
            let addr = self.base + self.issued_beats * self.size.bytes();
            let remaining = (self.total_beats - self.issued_beats) as u32;
            let len = clamp_to_4k(addr, self.burst_beats.min(remaining), self.size);
            let beat = ArBeat::new(addr, len, self.size)
                .with_id(self.id)
                .with_tag(self.next_tag)
                .with_issued_at(now);
            port.ar.push(now, beat).expect("checked space");
            self.next_tag += 1;
            self.issued_beats += len as u64;
            self.outstanding += 1;
            if self.started_at.is_none() {
                self.started_at = Some(now);
            }
            progress = true;
        }
        // Consume (up to one beat per cycle: a single R channel).
        if let Some(beat) = port.r.pop_ready(now) {
            self.received_beats += 1;
            self.last_data = beat.data;
            if beat.last {
                self.outstanding = self.outstanding.saturating_sub(1);
                self.txn_latency.record(now.saturating_sub(beat.issued_at));
            }
            if self.received_beats >= self.total_beats {
                self.finished_at = Some(now);
            }
            progress = true;
        }
        progress
    }
}

/// A streaming write engine: writes `total_bytes` to `base` in bursts
/// of up to `burst_beats`. The owner supplies each beat's data through
/// the `fill` function it passes to [`WriteEngine::tick`].
#[derive(Debug)]
pub struct WriteEngine {
    id: AxiId,
    base: u64,
    total_beats: u64,
    burst_beats: u32,
    size: BurstSize,
    max_outstanding: u32,
    issued_beats: u64,
    /// W beats still to stream for already-issued AWs: (addr, last).
    w_backlog: std::collections::VecDeque<(u64, bool)>,
    acked_bursts: u64,
    issued_bursts: u64,
    outstanding: u32,
    next_tag: u64,
    started_at: Option<Cycle>,
    finished_at: Option<Cycle>,
    txn_latency: LatencyStat,
}

impl WriteEngine {
    /// Creates a write engine for `total_bytes` to `base`.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is not a positive multiple of the beat
    /// size, or `burst_beats` is zero.
    pub fn new(base: u64, total_bytes: u64, burst_beats: u32, size: BurstSize) -> Self {
        assert!(burst_beats > 0, "burst length must be non-zero");
        assert!(
            total_bytes > 0 && total_bytes.is_multiple_of(size.bytes()),
            "total bytes must be a positive multiple of the beat size"
        );
        Self {
            id: AxiId(0),
            base,
            total_beats: total_bytes / size.bytes(),
            burst_beats,
            size,
            max_outstanding: 4,
            issued_beats: 0,
            w_backlog: std::collections::VecDeque::new(),
            acked_bursts: 0,
            issued_bursts: 0,
            outstanding: 0,
            next_tag: 0,
            started_at: None,
            finished_at: None,
            txn_latency: LatencyStat::new(),
        }
    }

    /// Sets the outstanding-request limit.
    pub fn max_outstanding(mut self, n: u32) -> Self {
        self.max_outstanding = n.max(1);
        self
    }

    /// Sets the AXI ID used on requests.
    pub fn id(mut self, id: AxiId) -> Self {
        self.id = id;
        self
    }

    /// Whether every burst has been acknowledged.
    pub fn is_done(&self) -> bool {
        self.issued_beats >= self.total_beats
            && self.w_backlog.is_empty()
            && self.acked_bursts >= self.issued_bursts
    }

    /// Cycle the final acknowledgment arrived, if done.
    pub fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    /// Per-burst latency distribution (AW issue to its B response).
    pub fn txn_latency(&self) -> &LatencyStat {
        &self.txn_latency
    }

    /// Restarts the engine for another pass over the same region.
    pub fn restart(&mut self) {
        self.issued_beats = 0;
        self.w_backlog.clear();
        self.acked_bursts = 0;
        self.issued_bursts = 0;
        self.outstanding = 0;
        self.started_at = None;
        self.finished_at = None;
    }

    /// Issues at most one request, streams at most one W beat (each
    /// byte is `fill(address)`), and consumes any arrived responses.
    pub fn tick(&mut self, now: Cycle, port: &mut AxiPort, fill: impl Fn(u64) -> u8) -> bool {
        let mut progress = false;
        // Issue the next burst's address.
        if self.issued_beats < self.total_beats
            && self.outstanding < self.max_outstanding
            && !port.aw.is_full()
        {
            let addr = self.base + self.issued_beats * self.size.bytes();
            let remaining = (self.total_beats - self.issued_beats) as u32;
            let len = clamp_to_4k(addr, self.burst_beats.min(remaining), self.size);
            let beat = AwBeat::new(addr, len, self.size)
                .with_id(self.id)
                .with_tag(self.next_tag)
                .with_issued_at(now);
            port.aw.push(now, beat).expect("checked space");
            self.next_tag += 1;
            for i in 0..len {
                let beat_addr = addr + i as u64 * self.size.bytes();
                self.w_backlog.push_back((beat_addr, i == len - 1));
            }
            self.issued_beats += len as u64;
            self.issued_bursts += 1;
            self.outstanding += 1;
            if self.started_at.is_none() {
                self.started_at = Some(now);
            }
            progress = true;
        }
        // Stream one W beat.
        if let Some(&(addr, last)) = self.w_backlog.front() {
            if !port.w.is_full() {
                let n = self.size.bytes() as usize;
                let data = Payload::from_fn(n, |b| fill(addr + b as u64));
                let beat = WBeat::new(data, last).with_issued_at(now);
                port.w.push(now, beat).expect("checked space");
                self.w_backlog.pop_front();
                progress = true;
            }
        }
        // Consume acknowledgments.
        if let Some(b) = port.b.pop_ready(now) {
            self.acked_bursts += 1;
            self.outstanding = self.outstanding.saturating_sub(1);
            self.txn_latency.record(now.saturating_sub(b.issued_at));
            if self.is_done() {
                self.finished_at = Some(now);
            }
            progress = true;
        }
        progress
    }
}

sim::persist_fields!(ReadEngine {
    id,
    base,
    total_beats,
    burst_beats,
    size,
    max_outstanding,
    issued_beats,
    received_beats,
    outstanding,
    next_tag,
    started_at,
    finished_at,
    txn_latency,
    last_data,
});

sim::persist_fields!(WriteEngine {
    id,
    base,
    total_beats,
    burst_beats,
    size,
    max_outstanding,
    issued_beats,
    w_backlog,
    acked_bursts,
    issued_bursts,
    outstanding,
    next_tag,
    started_at,
    finished_at,
    txn_latency,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_within_page() {
        assert_eq!(clamp_to_4k(0, 16, BurstSize::B16), 16);
        // 0x0FC0 leaves 64 bytes = 4 beats of 16.
        assert_eq!(clamp_to_4k(0x0FC0, 16, BurstSize::B16), 4);
        // At a page boundary the full burst fits again.
        assert_eq!(clamp_to_4k(0x1000, 16, BurstSize::B16), 16);
    }

    #[test]
    fn clamp_never_returns_zero() {
        assert_eq!(clamp_to_4k(0x0FFC, 16, BurstSize::B4), 1);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn clamp_rejects_unaligned() {
        let _ = clamp_to_4k(0x0FFD, 4, BurstSize::B4);
    }

    #[test]
    fn read_engine_issues_until_outstanding_limit() {
        let mut eng = ReadEngine::new(0, 4096, 16, BurstSize::B4).max_outstanding(2);
        let mut port = AxiPort::default();
        for now in 0..10 {
            eng.tick(now, &mut port);
        }
        // Only 2 requests issued (limit), none completed.
        assert_eq!(port.ar.len(), 2);
        assert!(!eng.is_done());
    }

    #[test]
    fn read_engine_completes_on_all_beats() {
        let mut eng = ReadEngine::new(0, 64, 16, BurstSize::B4);
        let mut port = AxiPort::default();
        eng.tick(0, &mut port);
        let ar = port.ar.pop_ready(0).unwrap();
        assert_eq!(ar.len, 16);
        // Feed 16 beats back.
        for i in 0..16u32 {
            port.r
                .push(
                    i as u64,
                    axi::RBeat::new(AxiId(0), vec![0; 4], i == 15)
                        .with_tag(ar.tag)
                        .with_issued_at(ar.issued_at),
                )
                .unwrap();
        }
        for now in 0..40 {
            eng.tick(now, &mut port);
        }
        assert!(eng.is_done());
        assert_eq!(eng.received_beats(), 16);
        assert_eq!(eng.txn_latency().count(), 1);
        assert!(eng.finished_at().is_some());
    }

    #[test]
    fn read_engine_restart() {
        let mut eng = ReadEngine::new(0, 4, 1, BurstSize::B4);
        let mut port = AxiPort::default();
        eng.tick(0, &mut port);
        eng.restart();
        assert_eq!(eng.received_beats(), 0);
        assert!(eng.started_at.is_none());
    }

    #[test]
    #[should_panic(expected = "multiple of the beat size")]
    fn read_engine_rejects_ragged_total() {
        let _ = ReadEngine::new(0, 65, 16, BurstSize::B4);
    }

    #[test]
    fn write_engine_streams_data_and_completes() {
        // 64 bytes of 4-byte beats in 8-beat bursts: two bursts.
        let mut eng = WriteEngine::new(0x100, 64, 8, BurstSize::B4);
        let mut port = AxiPort::default();
        for now in 0..40 {
            eng.tick(now, &mut port, |addr| addr as u8);
        }
        let aw0 = port.aw.pop_ready(40).unwrap();
        let aw1 = port.aw.pop_ready(40).unwrap();
        assert_eq!((aw0.len, aw1.len), (8, 8));
        assert_eq!(aw1.addr, 0x120);
        // All 16 beats streamed in order with correct fill and LAST at
        // each burst boundary.
        let mut beats = Vec::new();
        while let Some(w) = port.w.pop_ready(40) {
            beats.push(w);
        }
        assert_eq!(beats.len(), 16);
        assert!(beats[7].last && beats[15].last && !beats[8].last);
        assert_eq!(beats[1].data, vec![0x04, 0x05, 0x06, 0x07]);
        assert!(!eng.is_done());
        // Ack both bursts.
        for now in [41u64, 42] {
            port.b
                .push(now, axi::BBeat::new(AxiId(0)).with_issued_at(0))
                .unwrap();
        }
        for now in 43..60 {
            eng.tick(now, &mut port, |addr| addr as u8);
        }
        assert!(eng.is_done());
        assert_eq!(eng.txn_latency().count(), 2);
    }

    #[test]
    fn write_engine_one_w_beat_per_cycle() {
        let mut eng = WriteEngine::new(0, 64, 16, BurstSize::B4);
        let mut port = AxiPort::default();
        for now in 0..5 {
            eng.tick(now, &mut port, |_| 0);
        }
        // At most one W beat per cycle: 5 ticks -> at most 5 beats.
        assert!(port.w.len() <= 5);
    }

    #[test]
    fn engines_split_at_4k() {
        // Start 64 bytes before a page boundary with 16x16B bursts.
        let mut eng = ReadEngine::new(0x0FC0, 512, 16, BurstSize::B16).max_outstanding(8);
        let mut port = AxiPort::default();
        for now in 0..10 {
            eng.tick(now, &mut port);
        }
        let first = port.ar.pop_ready(10).unwrap();
        assert_eq!(first.len, 4, "clamped at the 4 KiB boundary");
        let second = port.ar.pop_ready(10).unwrap();
        assert_eq!(second.addr, 0x1000);
        assert_eq!(second.len, 16);
    }
}
