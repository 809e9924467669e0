//! Synthetic traffic generators for the fairness and reservation
//! ablation experiments.

use axi::types::{AxiId, BurstSize};
use axi::AxiPort;
use sim::{Cycle, SimRng};

use crate::engine::{clamp_to_4k, ReadEngine, WriteEngine};
use crate::Accelerator;

/// A periodic reader: issues one read burst, waits for it to complete,
/// idles `gap_cycles`, repeats — models a well-behaved real-time HA
/// with a bounded bandwidth demand.
#[derive(Debug)]
pub struct PeriodicReader {
    name: String,
    base: u64,
    region_bytes: u64,
    burst_beats: u32,
    size: BurstSize,
    gap_cycles: Cycle,
    cursor: u64,
    engine: Option<ReadEngine>,
    idle_until: Cycle,
    bursts_completed: u64,
}

impl PeriodicReader {
    /// Creates a periodic reader cycling through `region_bytes` at
    /// `base`, one `burst_beats`-beat burst every completion +
    /// `gap_cycles`.
    pub fn new(
        name: impl Into<String>,
        base: u64,
        region_bytes: u64,
        burst_beats: u32,
        size: BurstSize,
        gap_cycles: Cycle,
    ) -> Self {
        Self {
            name: name.into(),
            base,
            region_bytes: region_bytes.max(burst_beats as u64 * size.bytes()),
            burst_beats,
            size,
            gap_cycles,
            cursor: 0,
            engine: None,
            idle_until: 0,
            bursts_completed: 0,
        }
    }
}

impl Accelerator for PeriodicReader {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        if let Some(eng) = self.engine.as_mut() {
            let progress = eng.tick(now, port);
            if eng.is_done() {
                self.engine = None;
                self.bursts_completed += 1;
                self.idle_until = now + self.gap_cycles;
            }
            return progress;
        }
        if now < self.idle_until {
            return false;
        }
        let bytes = self.burst_beats as u64 * self.size.bytes();
        let addr = self.base + self.cursor;
        self.cursor = (self.cursor + bytes) % self.region_bytes;
        self.engine = Some(
            ReadEngine::new(addr, bytes, self.burst_beats, self.size)
                .max_outstanding(1)
                .id(AxiId(4)),
        );
        true
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn is_done(&self) -> bool {
        false
    }

    fn jobs_completed(&self) -> u64 {
        self.bursts_completed
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match &self.engine {
            // A burst in flight is purely reactive (port-driven).
            Some(_) => None,
            // Pacing gap: nothing happens until it elapses.
            None if now < self.idle_until => Some(self.idle_until),
            // About to arm the next burst.
            None => Some(now + 1),
        }
    }

    sim::persist_state! {
        PeriodicReader { cursor, engine, idle_until, bursts_completed }
        skip "construction-time configuration" {
            name, base, region_bytes, burst_beats, size, gap_cycles
        }
    }
}

/// The *bandwidth stealer* of the fairness experiment (Restuccia et
/// al., TECS 2019): saturates the bus with maximum-length bursts and
/// deep outstanding pipelining. Against a plain round-robin arbiter at
/// transaction granularity, its huge bursts win a share proportional to
/// the burst-length ratio; against the HyperConnect's equalization it
/// is held to its fair share.
#[derive(Debug)]
pub struct BandwidthStealer {
    name: String,
    base: u64,
    region_bytes: u64,
    burst_beats: u32,
    size: BurstSize,
    max_outstanding: u32,
    cursor: u64,
    outstanding: u32,
    next_tag: u64,
    beats_received: u64,
    bursts_completed: u64,
}

impl BandwidthStealer {
    /// Creates a stealer issuing `burst_beats`-beat bursts (256 by
    /// default order of magnitude) back to back over a region.
    pub fn new(
        name: impl Into<String>,
        base: u64,
        region_bytes: u64,
        burst_beats: u32,
        size: BurstSize,
    ) -> Self {
        Self {
            name: name.into(),
            base,
            region_bytes: region_bytes.max(burst_beats as u64 * size.bytes()),
            burst_beats,
            size,
            max_outstanding: 8,
            cursor: 0,
            outstanding: 0,
            next_tag: 0,
            beats_received: 0,
            bursts_completed: 0,
        }
    }

    /// Bytes received.
    pub fn bytes_received(&self) -> u64 {
        self.beats_received * self.size.bytes()
    }
}

impl Accelerator for BandwidthStealer {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        let mut progress = false;
        if self.outstanding < self.max_outstanding && !port.ar.is_full() {
            let addr = self.base + self.cursor;
            let len = clamp_to_4k(addr, self.burst_beats, self.size);
            let beat = axi::ArBeat::new(addr, len, self.size)
                .with_id(AxiId(5))
                .with_tag(self.next_tag)
                .with_issued_at(now);
            port.ar.push(now, beat).expect("checked space");
            self.next_tag += 1;
            self.cursor = (self.cursor + len as u64 * self.size.bytes()) % self.region_bytes;
            self.outstanding += 1;
            progress = true;
        }
        if let Some(beat) = port.r.pop_ready(now) {
            self.beats_received += 1;
            if beat.last {
                self.outstanding = self.outstanding.saturating_sub(1);
                self.bursts_completed += 1;
            }
            progress = true;
        }
        progress
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn is_done(&self) -> bool {
        false
    }

    fn jobs_completed(&self) -> u64 {
        self.bursts_completed
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        // Greedy and gap-free: when blocked, only port drain or a read
        // response (both covered by the interconnect) can wake it.
        None
    }

    sim::persist_state! {
        BandwidthStealer { cursor, outstanding, next_tag, beats_received, bursts_completed }
        skip "construction-time configuration" {
            name, base, region_bytes, burst_beats, size, max_outstanding
        }
    }
}

/// A seeded random mix of reads and writes with random burst lengths
/// and inter-arrival gaps — used for stress/soak tests and the
/// protocol-checker integration tests.
#[derive(Debug)]
pub struct RandomTraffic {
    name: String,
    base: u64,
    region_bytes: u64,
    size: BurstSize,
    max_burst: u32,
    mean_gap: Cycle,
    rng: SimRng,
    engine: Option<ReadEngine>,
    writer: Option<WriteEngine>,
    idle_until: Cycle,
    ops_completed: u64,
}

impl RandomTraffic {
    /// Creates a random-traffic master over `[base, base+region_bytes)`.
    pub fn new(
        name: impl Into<String>,
        base: u64,
        region_bytes: u64,
        size: BurstSize,
        max_burst: u32,
        mean_gap: Cycle,
        seed: u64,
    ) -> Self {
        Self {
            name: name.into(),
            base,
            region_bytes: region_bytes.max(4096),
            size,
            max_burst: max_burst.max(1),
            mean_gap: mean_gap.max(1),
            rng: SimRng::seed(seed),
            engine: None,
            writer: None,
            idle_until: 0,
            ops_completed: 0,
        }
    }
}

impl Accelerator for RandomTraffic {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        if let Some(eng) = self.engine.as_mut() {
            let progress = eng.tick(now, port);
            if eng.is_done() {
                self.engine = None;
                self.ops_completed += 1;
                self.idle_until = now + self.rng.gap(self.mean_gap);
            }
            return progress;
        }
        if let Some(w) = self.writer.as_mut() {
            let progress = w.tick(now, port, |a| a as u8);
            if w.is_done() {
                self.writer = None;
                self.ops_completed += 1;
                self.idle_until = now + self.rng.gap(self.mean_gap);
            }
            return progress;
        }
        if now < self.idle_until {
            return false;
        }
        let beats = self.rng.range_u64(1, self.max_burst as u64) as u32;
        let bytes = beats as u64 * self.size.bytes();
        let slots = self.region_bytes / bytes.max(1);
        let addr = self.base + self.rng.range_u64(0, slots.saturating_sub(1)) * bytes;
        if self.rng.chance(0.5) {
            self.engine = Some(
                ReadEngine::new(addr, bytes, beats, self.size)
                    .max_outstanding(2)
                    .id(AxiId(6)),
            );
        } else {
            self.writer = Some(
                WriteEngine::new(addr, bytes, beats, self.size)
                    .max_outstanding(2)
                    .id(AxiId(7)),
            );
        }
        true
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn is_done(&self) -> bool {
        false
    }

    fn jobs_completed(&self) -> u64 {
        self.ops_completed
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.engine.is_some() || self.writer.is_some() {
            // An op in flight is purely reactive (port-driven).
            return None;
        }
        if now < self.idle_until {
            // Random inter-arrival gap: idle until it elapses.
            return Some(self.idle_until);
        }
        // About to draw and arm the next op.
        Some(now + 1)
    }

    sim::persist_state! {
        RandomTraffic { rng, engine, writer, idle_until, ops_completed }
        skip "construction-time configuration" {
            name, base, region_bytes, size, max_burst, mean_gap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi::AxiInterconnect;
    use hyperconnect::{HcConfig, HyperConnect};
    use mem::{MemConfig, MemoryController};
    use sim::Component;

    fn run_one(acc: &mut dyn Accelerator, cycles: Cycle) {
        let mut hc = HyperConnect::new(HcConfig::new(1));
        let mut ctrl = MemoryController::new(MemConfig::default());
        for now in 0..cycles {
            acc.tick(now, hc.port(0));
            hc.tick(now);
            ctrl.tick(now, hc.mem_port());
        }
    }

    #[test]
    fn periodic_reader_paces_itself() {
        let mut fast = PeriodicReader::new("fast", 0, 1 << 20, 16, BurstSize::B16, 0);
        run_one(&mut fast, 10_000);
        let fast_jobs = fast.jobs_completed();
        let mut slow = PeriodicReader::new("slow", 0, 1 << 20, 16, BurstSize::B16, 500);
        run_one(&mut slow, 10_000);
        assert!(fast_jobs > 2 * slow.jobs_completed());
        assert!(slow.jobs_completed() > 0);
        assert!(!slow.is_done());
    }

    #[test]
    fn stealer_saturates() {
        let mut st = BandwidthStealer::new("steal", 0, 1 << 20, 256, BurstSize::B16);
        run_one(&mut st, 20_000);
        // The memory path streams ~1 beat/cycle once warm; the stealer
        // should capture most of it.
        assert!(
            st.beats_received > 15_000,
            "only {} beats",
            st.beats_received
        );
        assert_eq!(st.bytes_received(), st.beats_received * 16);
    }

    #[test]
    fn random_traffic_is_deterministic_per_seed() {
        let run = |seed| {
            let mut t = RandomTraffic::new("rnd", 0, 1 << 20, BurstSize::B16, 32, 20, seed);
            run_one(&mut t, 30_000);
            t.jobs_completed()
        };
        assert_eq!(run(1), run(1));
        assert!(run(1) > 10);
    }

    #[test]
    fn truncated_random_traffic_restore_changes_nothing() {
        let busy = |cycles| {
            let mut t = RandomTraffic::new("rnd", 0, 1 << 20, BurstSize::B16, 32, 20, 5);
            run_one(&mut t, cycles);
            t
        };
        let bytes = crate::saved_state(&busy(3_000));
        let mut target = busy(700);
        let before = crate::saved_state(&target);
        let cut = &bytes[..bytes.len() - 8];
        assert!(matches!(
            target.restore_state(&mut sim::persist::SnapshotReader::new(cut)),
            Err(sim::persist::PersistError::Truncated { .. })
        ));
        assert_eq!(
            crate::saved_state(&target),
            before,
            "a failed restore changed the model"
        );
    }

    #[test]
    fn random_traffic_region_respected() {
        // Small region: all generated addresses stay within it.
        let mut t = RandomTraffic::new("rnd", 0x8000, 8192, BurstSize::B4, 8, 5, 3);
        let mut hc = HyperConnect::new(HcConfig::new(1));
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        for now in 0..20_000 {
            t.tick(now, hc.port(0));
            hc.tick(now);
            while let Some(ar) = hc.mem_port().ar.pop_ready(now) {
                assert!(ar.addr >= 0x8000 && ar.addr < 0x8000 + 8192);
                // Feed responses so the generator keeps moving.
                for i in 0..ar.len {
                    hc.mem_port()
                        .r
                        .push(
                            now,
                            axi::RBeat::new(ar.id, vec![0; 4], i == ar.len - 1)
                                .with_tag(ar.tag)
                                .with_issued_at(ar.issued_at),
                        )
                        .unwrap();
                }
            }
            ctrl.tick(now, hc.mem_port());
        }
        assert!(t.jobs_completed() > 0);
    }
}
