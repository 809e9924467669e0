//! The AXI-to-AXI bridge: the wire/register adapter a system integrator
//! infers when an interconnect's master port feeds another
//! interconnect's slave port (cascaded HyperConnects, a HyperConnect
//! under a SmartConnect, ...).
//!
//! A bridge moves every ready beat between two [`AxiPort`] boundaries:
//! requests (`ar`/`aw`/`w`) flow *downstream* from the upstream master
//! port into the downstream slave port; responses (`r`/`b`) flow
//! *upstream*. Two timing flavours exist:
//!
//! * **latency 0** — a plain wire: beats cross within the cycle they
//!   become ready, exactly like a direct connection (the behavior the
//!   hierarchy conformance test pins);
//! * **latency N > 0** — a registered hop: beats are staged in an
//!   internal [`sim::TimedFifo`] pipe and emerge exactly `N` cycles later
//!   (given the downstream side has space), modeling register slices or
//!   clock-domain crossings on the FPGA fabric.
//!
//! # Observability contract
//!
//! Crossing a bridge starts a new *observability epoch*: the bridge
//! restamps `issued_at` on downstream-bound request beats and
//! `hopped_at` on upstream-bound response beats with the crossing
//! cycle. Combined with each interconnect assigning its own
//! transaction `uid`s at ingest, this makes every interconnect
//! instance's [`crate::MetricsRegistry`] measure *its local hop* of a
//! multi-level tree — end-to-end latency is the sum of the per-hop
//! figures plus the configured bridge latencies. Timestamps are
//! metrics-only metadata: restamping never changes cycle-level timing.

use sim::{Cycle, TimedFifo};

use crate::port::{AxiPort, PortConfig};

/// Sizing and timing of an [`AxiBridge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeConfig {
    /// Cycles a beat spends inside the bridge (0 = combinational wire).
    pub latency: Cycle,
    /// Staging capacity of the AR/AW pipes, in requests (latency > 0).
    pub addr_capacity: usize,
    /// Staging capacity of the W/R pipes, in beats (latency > 0).
    pub data_capacity: usize,
    /// Staging capacity of the B pipe, in responses (latency > 0).
    pub resp_capacity: usize,
}

impl BridgeConfig {
    /// A zero-latency wire bridge — behaves exactly like a direct
    /// connection between the two ports.
    pub fn wire() -> Self {
        let p = PortConfig::wire();
        Self {
            latency: 0,
            addr_capacity: p.addr_capacity,
            data_capacity: p.data_capacity,
            resp_capacity: p.resp_capacity,
        }
    }

    /// A single-cycle registered bridge (one register slice each way).
    pub fn registered() -> Self {
        Self {
            latency: 1,
            ..Self::wire()
        }
    }

    /// Overrides the bridge latency.
    pub fn latency(mut self, cycles: Cycle) -> Self {
        self.latency = cycles;
        self
    }
}

impl Default for BridgeConfig {
    fn default() -> Self {
        Self::wire()
    }
}

/// Beat counters of one bridge, split by direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BridgeStats {
    /// Request beats (AR + AW + W) moved downstream.
    pub beats_down: u64,
    /// Response beats (R + B) moved upstream.
    pub beats_up: u64,
}

/// A latency-configurable adapter between an upstream master port and a
/// downstream slave port (see the module docs for the timing and
/// observability contract).
///
/// A bridge is driven by calling [`AxiBridge::transfer`] once per cycle
/// with both boundary ports; it is not a standalone
/// [`sim::Component`] because it owns neither boundary.
#[derive(Debug, Clone)]
pub struct AxiBridge {
    config: BridgeConfig,
    /// Internal staging pipes; `None` in wire (latency 0) mode.
    stage: Option<AxiPort>,
    stats: BridgeStats,
}

impl AxiBridge {
    /// Creates a bridge with the given configuration.
    pub fn new(config: BridgeConfig) -> Self {
        let stage = (config.latency > 0).then(|| {
            AxiPort::new(PortConfig {
                addr_capacity: config.addr_capacity,
                data_capacity: config.data_capacity,
                resp_capacity: config.resp_capacity,
                latency: config.latency,
            })
        });
        Self {
            config,
            stage,
            stats: BridgeStats::default(),
        }
    }

    /// A zero-latency wire bridge.
    pub fn wire() -> Self {
        Self::new(BridgeConfig::wire())
    }

    /// The bridge's configuration.
    pub fn config(&self) -> &BridgeConfig {
        &self.config
    }

    /// Directional beat counters.
    pub fn stats(&self) -> BridgeStats {
        self.stats
    }

    /// Whether no beats are staged inside the bridge.
    pub fn is_idle(&self) -> bool {
        self.stage.as_ref().is_none_or(AxiPort::is_idle)
    }

    /// Earliest cycle a staged beat becomes visible at the bridge
    /// output, or `None` when nothing is staged (event-horizon hint for
    /// the fast-forward scheduler; wire bridges hold no state and are
    /// purely reactive).
    pub fn next_event(&self) -> Option<Cycle> {
        self.stage.as_ref().and_then(AxiPort::next_ready_at)
    }

    /// Moves every beat that can legally cross this cycle: requests
    /// from `upstream` (a master port) down into `downstream` (a slave
    /// port), responses the other way. Returns `true` if anything
    /// moved. Call exactly once per cycle, after the upstream component
    /// ticked and before the downstream one does (the topology engine's
    /// schedule).
    ///
    /// Beats move in place: the stage is borrowed, never moved out and
    /// back, so a bridge with nothing ready on either side costs one
    /// readiness test per queue.
    pub fn transfer(
        &mut self,
        now: Cycle,
        upstream: &mut AxiPort,
        downstream: &mut AxiPort,
    ) -> bool {
        let (up, down, stats) = (upstream, downstream, &mut self.stats);
        let moved = |n: u64, dir: &mut u64| {
            *dir += n;
            n > 0
        };
        match &mut self.stage {
            // Wire mode: beats cross directly within the cycle.
            None => {
                let down_beats = cross(now, &mut up.ar, &mut down.ar, |b| b.issued_at = now)
                    + cross(now, &mut up.aw, &mut down.aw, |b| b.issued_at = now)
                    + cross(now, &mut up.w, &mut down.w, |b| b.issued_at = now);
                let up_beats = cross(now, &mut down.r, &mut up.r, |b| b.hopped_at = now)
                    + cross(now, &mut down.b, &mut up.b, |b| b.hopped_at = now);
                moved(down_beats, &mut stats.beats_down) | moved(up_beats, &mut stats.beats_up)
            }
            // Registered mode: drain the stage toward its destination
            // first, then accept newly ready beats into the stage — so a
            // beat spends exactly `latency` cycles inside the bridge when
            // the far side has space.
            Some(stage) => {
                let down_beats = cross(now, &mut stage.ar, &mut down.ar, |b| b.issued_at = now)
                    + cross(now, &mut stage.aw, &mut down.aw, |b| b.issued_at = now)
                    + cross(now, &mut stage.w, &mut down.w, |b| b.issued_at = now);
                let up_beats = cross(now, &mut stage.r, &mut up.r, |b| b.hopped_at = now)
                    + cross(now, &mut stage.b, &mut up.b, |b| b.hopped_at = now);
                let staged = cross(now, &mut up.ar, &mut stage.ar, |_| {})
                    + cross(now, &mut up.aw, &mut stage.aw, |_| {})
                    + cross(now, &mut up.w, &mut stage.w, |_| {})
                    + cross(now, &mut down.r, &mut stage.r, |_| {})
                    + cross(now, &mut down.b, &mut stage.b, |_| {});
                let crossed =
                    moved(down_beats, &mut stats.beats_down) | moved(up_beats, &mut stats.beats_up);
                crossed || staged > 0
            }
        }
    }
}

/// Moves every beat visible at `now` from `from` into `to` while `to`
/// has space, applying `restamp` to each; returns the beats moved.
fn cross<T>(
    now: Cycle,
    from: &mut TimedFifo<T>,
    to: &mut TimedFifo<T>,
    mut restamp: impl FnMut(&mut T),
) -> u64 {
    let mut n = 0;
    while from.has_ready(now) && !to.is_full() {
        let mut beat = from.pop_ready(now).expect("ready");
        restamp(&mut beat);
        to.push(now, beat).ok().expect("checked space");
        n += 1;
    }
    n
}

impl Default for AxiBridge {
    fn default() -> Self {
        Self::wire()
    }
}

mod persist_impls {
    use super::{AxiBridge, BridgeConfig, BridgeStats};
    use sim::persist::PersistError;

    sim::persist_fields!(BridgeConfig {
        latency,
        addr_capacity,
        data_capacity,
        resp_capacity
    });
    sim::persist_fields!(BridgeStats {
        beats_down,
        beats_up
    });
    // A bridge serializes whole (config, staged beats, counters).
    sim::persist_fields!(AxiBridge { config, stage, stats } check |bridge| {
        if (bridge.config.latency > 0) != bridge.stage.is_some() {
            return Err(PersistError::Corrupt("bridge stage/latency mismatch"));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beat::{ArBeat, RBeat};
    use crate::types::{AxiId, BurstSize};

    fn ports() -> (AxiPort, AxiPort) {
        (AxiPort::default(), AxiPort::default())
    }

    #[test]
    fn wire_bridge_crosses_within_the_cycle() {
        let (mut up, mut down) = ports();
        let mut bridge = AxiBridge::wire();
        up.ar.push(0, ArBeat::new(0x40, 1, BurstSize::B4)).unwrap();
        // Zero-latency boundary queues: ready in the push cycle.
        assert!(bridge.transfer(0, &mut up, &mut down));
        assert!(down.ar.has_ready(0));
        assert!(up.ar.is_empty());
        assert_eq!(bridge.stats().beats_down, 1);
        assert!(bridge.is_idle());
        assert_eq!(bridge.next_event(), None);
    }

    #[test]
    fn registered_bridge_adds_exactly_its_latency() {
        for latency in [1u64, 3] {
            let (mut up, mut down) = ports();
            let mut bridge = AxiBridge::new(BridgeConfig::wire().latency(latency));
            up.ar.push(0, ArBeat::new(0x80, 1, BurstSize::B4)).unwrap();
            let mut arrival = None;
            for now in 0..20 {
                bridge.transfer(now, &mut up, &mut down);
                if arrival.is_none() && down.ar.has_ready(now) {
                    arrival = Some(now);
                }
            }
            // Ingested at cycle 0, visible at the stage output at
            // `latency`, pushed downstream the same cycle.
            assert_eq!(arrival, Some(latency), "latency {latency}");
        }
    }

    #[test]
    fn staged_beats_report_a_next_event() {
        let (mut up, mut down) = ports();
        let mut bridge = AxiBridge::new(BridgeConfig::wire().latency(4));
        up.ar.push(0, ArBeat::new(0, 1, BurstSize::B4)).unwrap();
        bridge.transfer(0, &mut up, &mut down);
        assert!(!bridge.is_idle());
        assert_eq!(bridge.next_event(), Some(4));
    }

    #[test]
    fn responses_flow_up_and_are_restamped() {
        let (mut up, mut down) = ports();
        let mut bridge = AxiBridge::wire();
        let r = RBeat::new(AxiId(3), vec![0; 4], true)
            .with_uid(7)
            .with_hopped_at(2);
        down.r.push(5, r).unwrap();
        assert!(bridge.transfer(5, &mut up, &mut down));
        let crossed = up.r.pop_ready(5).expect("crossed");
        // New observability epoch: the hop cycle replaces the
        // downstream stamp; the uid is untouched (each interconnect
        // re-assigns its own at ingest).
        assert_eq!(crossed.hopped_at, 5);
        assert_eq!(crossed.uid, 7);
        assert_eq!(bridge.stats().beats_up, 1);
    }

    #[test]
    fn requests_are_restamped_with_the_crossing_cycle() {
        let (mut up, mut down) = ports();
        let mut bridge = AxiBridge::wire();
        up.ar
            .push(9, ArBeat::new(0x100, 4, BurstSize::B16).with_issued_at(1))
            .unwrap();
        bridge.transfer(9, &mut up, &mut down);
        assert_eq!(down.ar.pop_ready(9).expect("crossed").issued_at, 9);
    }

    #[test]
    fn backpressure_holds_beats_without_loss() {
        let (mut up, mut down) = ports();
        // Downstream AR queue of capacity 1, already full.
        down.ar = sim::TimedFifo::new(1, 0);
        down.ar.push(0, ArBeat::new(0, 1, BurstSize::B4)).unwrap();
        let mut bridge = AxiBridge::wire();
        up.ar.push(0, ArBeat::new(0x40, 1, BurstSize::B4)).unwrap();
        assert!(!bridge.transfer(0, &mut up, &mut down));
        assert_eq!(up.ar.len(), 1, "beat must stay upstream");
        // Space opens up: the beat crosses.
        down.ar.pop_ready(0);
        assert!(bridge.transfer(0, &mut up, &mut down));
    }
}
