//! Seeded fault injection on a bridge edge: a drop-in replacement for a
//! wire [`crate::AxiBridge`] that can corrupt, lose or stall traffic, so
//! cascaded topologies can degrade at *any* edge — not just at the
//! memory controller.
//!
//! # Fault surface
//!
//! * **Bit flips** — a crossing R beat has one random payload bit
//!   flipped, silently (the fabric has no ECC; only an end-to-end
//!   integrity oracle like `ha`'s `ScoreboardMaster` can catch it).
//! * **Beat drops** — a crossing R beat is consumed and never delivered
//!   upstream. The upstream supervisor's sub-burst never completes, so
//!   this models a wedged edge; use it to exercise hang detection, not
//!   in campaigns that must run to completion.
//! * **Stalls** — the whole edge freezes for a fixed window, modeling a
//!   transient loss of forward progress (clock-domain glitch, PR region
//!   mid-reconfiguration).
//!
//! # Determinism
//!
//! All fault draws are tied to *beat crossings*, never to bare cycles:
//! a beat that is about to cross draws its fate, and a stall window is
//! opened by such a draw. Beats cross at identical cycles under every
//! scheduler (that is the fast-forward contract), so the draw sequence
//! — and therefore the injected fault pattern — is scheduler-invariant.

use sim::{Cycle, SimRng};

use crate::port::AxiPort;

/// Probabilities and seed for one [`FaultyBridge`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultyBridgeConfig {
    /// Seed for the edge's private fault RNG.
    pub seed: u64,
    /// Per-R-beat probability of a silent single-bit payload flip.
    pub flip_r: f64,
    /// Per-R-beat probability the beat is consumed and never delivered.
    pub drop_r: f64,
    /// Per-R-beat probability the edge stalls for [`Self::stall_len`]
    /// cycles before the beat crosses.
    pub stall: f64,
    /// Length of one stall window, in cycles.
    pub stall_len: Cycle,
}

impl FaultyBridgeConfig {
    /// A config with the given seed and every fault disabled.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            flip_r: 0.0,
            drop_r: 0.0,
            stall: 0.0,
            stall_len: 0,
        }
    }

    /// Sets the silent bit-flip probability.
    pub fn flip_r(mut self, p: f64) -> Self {
        self.flip_r = p;
        self
    }

    /// Sets the beat-drop probability.
    pub fn drop_r(mut self, p: f64) -> Self {
        self.drop_r = p;
        self
    }

    /// Sets the stall probability and window length.
    pub fn stall(mut self, p: f64, len: Cycle) -> Self {
        self.stall = p;
        self.stall_len = len;
        self
    }
}

/// Saturating counters of injected edge faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultyBridgeStats {
    /// R beats delivered with a silently flipped payload bit.
    pub flipped_beats: u64,
    /// R beats consumed and never delivered upstream.
    pub dropped_beats: u64,
    /// Stall windows opened.
    pub stalls: u64,
    /// Request beats (AR + AW + W) moved downstream.
    pub beats_down: u64,
    /// Response beats (R + B) moved upstream.
    pub beats_up: u64,
}

/// A zero-latency bridge edge with seeded fault injection on the
/// upstream (response) path. Drive it with
/// [`FaultyBridge::transfer`] exactly like a wire [`crate::AxiBridge`].
#[derive(Debug, Clone)]
pub struct FaultyBridge {
    config: FaultyBridgeConfig,
    rng: SimRng,
    stats: FaultyBridgeStats,
    /// The edge is frozen until this cycle (exclusive).
    stalled_until: Cycle,
}

impl FaultyBridge {
    /// Creates a faulty edge, seeding its private RNG from the config.
    pub fn new(config: FaultyBridgeConfig) -> Self {
        Self {
            config,
            rng: SimRng::seed(config.seed),
            stats: FaultyBridgeStats::default(),
            stalled_until: 0,
        }
    }

    /// The config this edge was armed with.
    pub fn config(&self) -> &FaultyBridgeConfig {
        &self.config
    }

    /// Injection and traffic counters.
    pub fn stats(&self) -> FaultyBridgeStats {
        self.stats
    }

    /// Whether the edge is inside a stall window at `now`.
    fn is_stalled(&self, now: Cycle) -> bool {
        now < self.stalled_until
    }

    /// Earliest cycle the edge unfreezes, when currently stalled
    /// (event hint for fast-forward drivers).
    pub fn next_event(&self) -> Option<Cycle> {
        (self.stalled_until > 0).then_some(self.stalled_until)
    }

    /// Moves every beat that can cross this cycle, applying the fault
    /// model to upstream-bound R beats. Returns `true` if anything
    /// moved. Mirrors [`crate::AxiBridge::transfer`]'s wire mode.
    pub fn transfer(&mut self, now: Cycle, up: &mut AxiPort, down: &mut AxiPort) -> bool {
        if self.is_stalled(now) {
            return false;
        }
        let mut progress = false;
        // Requests flow down, unfaulted.
        while up.ar.has_ready(now) && !down.ar.is_full() {
            let mut b = up.ar.pop_ready(now).expect("ready");
            b.issued_at = now;
            down.ar.push(now, b).expect("space");
            self.stats.beats_down += 1;
            progress = true;
        }
        while up.aw.has_ready(now) && !down.aw.is_full() {
            let mut b = up.aw.pop_ready(now).expect("ready");
            b.issued_at = now;
            down.aw.push(now, b).expect("space");
            self.stats.beats_down += 1;
            progress = true;
        }
        while up.w.has_ready(now) && !down.w.is_full() {
            let mut b = up.w.pop_ready(now).expect("ready");
            b.issued_at = now;
            down.w.push(now, b).expect("space");
            self.stats.beats_down += 1;
            progress = true;
        }
        // Responses flow up; R beats face the fault model.
        while down.r.has_ready(now) && !up.r.is_full() {
            // Stall draw first: a triggered stall leaves the beat in
            // place, to cross (and re-draw nothing — the stall draw is
            // per crossing attempt after the window) once the edge
            // unfreezes.
            if self.config.stall > 0.0 && self.rng.chance(self.config.stall) {
                self.stats.stalls = self.stats.stalls.saturating_add(1);
                self.stalled_until = now + self.config.stall_len.max(1);
                return progress;
            }
            let mut b = down.r.pop_ready(now).expect("ready");
            if self.config.drop_r > 0.0 && self.rng.chance(self.config.drop_r) {
                self.stats.dropped_beats = self.stats.dropped_beats.saturating_add(1);
                progress = true;
                continue;
            }
            if self.config.flip_r > 0.0 && !b.data.is_empty() && self.rng.chance(self.config.flip_r)
            {
                let data = b.data.as_mut_slice();
                let bit = self.rng.range_usize(0, data.len() * 8 - 1);
                data[bit / 8] ^= 1 << (bit % 8);
                self.stats.flipped_beats = self.stats.flipped_beats.saturating_add(1);
            }
            b.hopped_at = now;
            up.r.push(now, b).expect("space");
            self.stats.beats_up += 1;
            progress = true;
        }
        while down.b.has_ready(now) && !up.b.is_full() {
            let mut b = down.b.pop_ready(now).expect("ready");
            b.hopped_at = now;
            up.b.push(now, b).expect("space");
            self.stats.beats_up += 1;
            progress = true;
        }
        progress
    }
}

sim::persist_fields!(FaultyBridgeConfig {
    seed,
    flip_r,
    drop_r,
    stall,
    stall_len
});
sim::persist_fields!(FaultyBridgeStats {
    flipped_beats,
    dropped_beats,
    stalls,
    beats_down,
    beats_up
});
// The RNG state crosses the snapshot, so a forked chaos campaign
// replays the exact same fault pattern on the edge.
sim::persist_fields!(FaultyBridge {
    config,
    rng,
    stats,
    stalled_until
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beat::{ArBeat, BBeat, RBeat};
    use crate::types::{AxiId, BurstSize};
    use sim::persist::{PersistValue, SnapshotReader, SnapshotWriter};

    fn ports() -> (AxiPort, AxiPort) {
        (AxiPort::default(), AxiPort::default())
    }

    #[test]
    fn clean_edge_behaves_like_a_wire() {
        let (mut up, mut down) = ports();
        let mut edge = FaultyBridge::new(FaultyBridgeConfig::new(1));
        up.ar.push(0, ArBeat::new(0x40, 1, BurstSize::B4)).unwrap();
        down.r
            .push(0, RBeat::new(AxiId(1), vec![0xAB; 4], true))
            .unwrap();
        down.b.push(0, BBeat::new(AxiId(1))).unwrap();
        assert!(edge.transfer(0, &mut up, &mut down));
        assert!(down.ar.has_ready(0));
        assert_eq!(up.r.pop_ready(0).unwrap().data, vec![0xAB; 4]);
        assert!(up.b.pop_ready(0).is_some());
        let s = edge.stats();
        assert_eq!((s.beats_down, s.beats_up), (1, 2));
        assert_eq!(s.flipped_beats + s.dropped_beats + s.stalls, 0);
    }

    #[test]
    fn flips_corrupt_exactly_one_bit_silently() {
        let (mut up, mut down) = ports();
        let mut edge = FaultyBridge::new(FaultyBridgeConfig::new(7).flip_r(1.0));
        down.r
            .push(0, RBeat::new(AxiId(1), vec![0u8; 8], true))
            .unwrap();
        edge.transfer(0, &mut up, &mut down);
        let b = up.r.pop_ready(0).unwrap();
        assert_eq!(b.resp, crate::types::Resp::Okay, "flip is unannounced");
        let ones: u32 = b.data.iter().map(|x| x.count_ones()).sum();
        assert_eq!(ones, 1);
        assert_eq!(edge.stats().flipped_beats, 1);
    }

    #[test]
    fn drops_consume_beats_without_delivery() {
        let (mut up, mut down) = ports();
        let mut edge = FaultyBridge::new(FaultyBridgeConfig::new(7).drop_r(1.0));
        for _ in 0..3 {
            down.r
                .push(0, RBeat::new(AxiId(1), vec![0; 4], false))
                .unwrap();
        }
        edge.transfer(0, &mut up, &mut down);
        assert!(up.r.pop_ready(0).is_none());
        assert!(down.r.is_empty());
        assert_eq!(edge.stats().dropped_beats, 3);
    }

    #[test]
    fn stalls_freeze_the_whole_edge_for_the_window() {
        let (mut up, mut down) = ports();
        let mut edge = FaultyBridge::new(FaultyBridgeConfig::new(3).stall(1.0, 5));
        down.r
            .push(0, RBeat::new(AxiId(1), vec![0; 4], true))
            .unwrap();
        up.ar.push(0, ArBeat::new(0x40, 1, BurstSize::B4)).unwrap();
        // First crossing attempt opens the stall window; the AR beat
        // already crossed this cycle (requests precede responses).
        edge.transfer(0, &mut up, &mut down);
        assert!(edge.is_stalled(1));
        assert!(down.r.has_ready(1), "beat held in place");
        for now in 1..5 {
            assert!(!edge.transfer(now, &mut up, &mut down), "frozen at {now}");
        }
        // Window over: stall probability fires again in this toy config,
        // so drain with the stall disarmed to observe delivery.
        edge.config.stall = 0.0;
        assert!(edge.transfer(5, &mut up, &mut down));
        assert!(up.r.pop_ready(5).is_some());
        assert_eq!(edge.stats().stalls, 1);
    }

    #[test]
    fn edge_state_round_trips_through_a_snapshot() {
        let (mut up, mut down) = ports();
        let mut edge = FaultyBridge::new(FaultyBridgeConfig::new(11).flip_r(0.5).stall(0.2, 3));
        for i in 0..10u64 {
            down.r
                .push(i, RBeat::new(AxiId(1), vec![i as u8; 4], true))
                .unwrap();
            edge.transfer(i, &mut up, &mut down);
            while up.r.pop_ready(i).is_some() {}
        }
        let mut w = SnapshotWriter::new();
        edge.save_value(&mut w);
        let bytes = w.into_bytes();
        let restored = FaultyBridge::load_value(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(restored.stats(), edge.stats());
        assert_eq!(restored.config(), edge.config());
        let mut w2 = SnapshotWriter::new();
        restored.save_value(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "re-encode is byte-identical");
    }
}
