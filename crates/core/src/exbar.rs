//! The EXBAR: a low-latency crossbar with fixed-granularity round-robin
//! arbitration and proactive response routing.
//!
//! Paper §V-B: the EXBAR resolves conflicts among the read/write address
//! requests propagated by the TS modules, using round-robin with a
//! *fixed granularity of one transaction per TS module per round* —
//! unlike the SmartConnect, whose variable granularity lets a port
//! interfere with another for up to `g × (N − 1)` transactions. The
//! EXBAR records grant order as *routing information* in circular
//! buffers and uses it to route the R, W and B channels proactively,
//! adding one cycle of latency per address request and none on the data
//! and response channels.

use axi::beat::{ArBeat, AwBeat, WBeat};
use axi::observe::{Hop, ObsChannel, ObsEvent};
use axi::routing::{RouteEntry, RouteQueue};
use axi::{AxiPort, Payload};
use sim::{Cycle, TimedFifo};
use std::collections::VecDeque;

use crate::efifo::EFifo;
use crate::portset::PortSet;
use crate::supervisor::TransactionSupervisor;

/// One granted write burst awaiting its W data, in grant order.
///
/// Besides the source port the entry remembers the burst geometry so
/// that, when the port is decoupled mid-burst, the EXBAR can complete
/// the burst with strobe-disabled filler beats (the AXI-firewall
/// behavior real decouplers implement) instead of head-of-line blocking
/// every other port's writes forever.
#[derive(Debug, Clone, Copy)]
struct WRoute {
    /// Source port of the granted write.
    port: usize,
    /// Beats the granted sub-burst owes.
    beats: u32,
    /// Bytes per beat.
    bytes: usize,
    /// Beats already moved to memory.
    moved: u32,
}

/// Per-port grant counters (for fairness analysis).
#[derive(Debug, Clone, Default)]
pub struct ExbarStats {
    /// Read-address grants per port.
    pub ar_grants: Vec<u64>,
    /// Write-address grants per port.
    pub aw_grants: Vec<u64>,
}

/// The arbitration policy's slot in the saved image. The EXBAR
/// arbitrates by granularity-1 round robin only, so the slot always
/// holds `0`; any other byte is an image this model cannot reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WirePolicy {
    RoundRobin,
}

sim::persist_enum!(WirePolicy, "arbitration policy discriminant", [RoundRobin]);

/// The crossbar connecting N Transaction Supervisors to the master port.
#[derive(Debug)]
pub struct Exbar {
    policy: WirePolicy,
    ar_rr: usize,
    aw_rr: usize,
    /// The crossbar's one-cycle output register for read requests.
    ar_stage: TimedFifo<ArBeat>,
    /// The crossbar's one-cycle output register for write requests.
    aw_stage: TimedFifo<AwBeat>,
    /// Grant order of reads — routes R beats back to ports.
    read_routes: RouteQueue,
    /// Grant order of writes — routes B responses back to ports.
    b_routes: RouteQueue,
    /// Grant order of writes — which port supplies the next W beats.
    /// The head entry is updated in place (per-beat progress bumps its
    /// `moved` counter rather than re-queueing the entry).
    w_routes: VecDeque<WRoute>,
    /// Strobe-disabled filler beats synthesized for decoupled ports.
    firewall_beats: u64,
    stats: ExbarStats,
    /// Whether hop events are being emitted (observability).
    obs_enabled: bool,
    /// Hop events buffered for the owning interconnect to drain.
    obs_events: Vec<ObsEvent>,
}

impl Exbar {
    /// Creates an EXBAR for `num_ports` inputs with routing buffers of
    /// `routing_depth` outstanding transactions.
    pub fn new(num_ports: usize, routing_depth: usize) -> Self {
        Self {
            policy: WirePolicy::RoundRobin,
            ar_rr: 0,
            aw_rr: 0,
            ar_stage: TimedFifo::new(2, 1),
            aw_stage: TimedFifo::new(2, 1),
            read_routes: RouteQueue::new(routing_depth),
            b_routes: RouteQueue::new(routing_depth),
            w_routes: VecDeque::new(),
            firewall_beats: 0,
            stats: ExbarStats {
                ar_grants: vec![0; num_ports],
                aw_grants: vec![0; num_ports],
            },
            obs_enabled: false,
            obs_events: Vec::new(),
        }
    }

    /// Starts emitting [`ObsEvent`]s at grant and memory-visibility
    /// sites. Events accumulate until the owning interconnect folds
    /// them through [`Exbar::obs_events_mut`].
    pub fn enable_observability(&mut self) {
        self.obs_enabled = true;
    }

    /// The buffered hop events, in emission order. The owning
    /// interconnect folds them and clears the buffer once per tick.
    pub fn obs_events_mut(&mut self) -> &mut Vec<ObsEvent> {
        &mut self.obs_events
    }

    /// Whether any hop events are waiting to be drained.
    pub fn has_obs_events(&self) -> bool {
        !self.obs_events.is_empty()
    }

    /// Grant counters.
    pub fn stats(&self) -> &ExbarStats {
        &self.stats
    }

    /// Strobe-disabled W beats synthesized to complete write bursts of
    /// decoupled ports (see [`Exbar::move_w`]).
    pub fn firewall_beats(&self) -> u64 {
        self.firewall_beats
    }

    /// Earliest cycle at which a beat parked in the crossbar's output
    /// registers becomes visible downstream, or `None` when both stages
    /// are empty. Event-horizon hint for the fast-forward scheduler.
    pub fn next_stage_ready(&self) -> Option<Cycle> {
        [self.ar_stage.next_ready_at(), self.aw_stage.next_ready_at()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Whether the EXBAR holds no in-flight state.
    pub fn is_idle(&self) -> bool {
        self.ar_stage.is_empty()
            && self.aw_stage.is_empty()
            && self.read_routes.is_empty()
            && self.b_routes.is_empty()
            && self.w_routes.is_empty()
    }

    /// Picks the next port to grant among the `staged` ports by round
    /// robin: the first ready port scanning up from the one *after* the
    /// last granted port (`start`) and wrapping — granularity is fixed
    /// at one transaction per grant.
    fn pick<F>(&self, start: usize, staged: &PortSet, mut ready: F) -> Option<usize>
    where
        F: FnMut(usize) -> bool,
    {
        staged
            .iter_from(start + 1)
            .chain(staged.iter().take_while(|&p| p <= start))
            .find(|&p| ready(p))
    }

    /// Arbitrates one read request among the TS stages. `staged` must
    /// hold every port whose `ar_stage` is non-empty (extra members are
    /// harmless). Returns `true` if a grant happened.
    pub fn arbitrate_ar(
        &mut self,
        now: Cycle,
        ts: &mut [TransactionSupervisor],
        staged: &PortSet,
    ) -> bool {
        if staged.is_empty() || self.ar_stage.is_full() || self.read_routes.is_full() {
            return false;
        }
        let Some(port) = self.pick(self.ar_rr, staged, |p| ts[p].ar_stage.has_ready(now)) else {
            return false;
        };
        let sub = ts[port].ar_stage.pop_ready(now).expect("checked ready");
        if self.obs_enabled {
            self.obs_events.push(ObsEvent {
                uid: sub.beat.uid,
                port: Some(port),
                channel: ObsChannel::Ar,
                hop: Hop::ExbarGranted,
                cycle: now,
                ref_cycle: sub.beat.issued_at,
                bytes: sub.beat.total_bytes(),
                sub_end: sub.final_sub,
                txn_end: false,
            });
        }
        self.read_routes
            .push(RouteEntry {
                port,
                final_sub: sub.final_sub,
                tag: sub.beat.tag,
                uid: sub.beat.uid,
            })
            .expect("checked space");
        self.ar_stage.push(now, sub.beat).expect("checked space");
        self.ar_rr = port;
        self.stats.ar_grants[port] += 1;
        true
    }

    /// Arbitrates one write request among the TS stages. `staged` must
    /// hold every port whose `aw_stage` is non-empty (extra members are
    /// harmless). Returns `true` if a grant happened.
    pub fn arbitrate_aw(
        &mut self,
        now: Cycle,
        ts: &mut [TransactionSupervisor],
        staged: &PortSet,
    ) -> bool {
        if staged.is_empty() || self.aw_stage.is_full() || self.b_routes.is_full() {
            return false;
        }
        let Some(port) = self.pick(self.aw_rr, staged, |p| ts[p].aw_stage.has_ready(now)) else {
            return false;
        };
        let sub = ts[port].aw_stage.pop_ready(now).expect("checked ready");
        if self.obs_enabled {
            self.obs_events.push(ObsEvent {
                uid: sub.beat.uid,
                port: Some(port),
                channel: ObsChannel::Aw,
                hop: Hop::ExbarGranted,
                cycle: now,
                ref_cycle: sub.beat.issued_at,
                bytes: sub.beat.total_bytes(),
                sub_end: sub.final_sub,
                txn_end: false,
            });
        }
        self.b_routes
            .push(RouteEntry {
                port,
                final_sub: sub.final_sub,
                tag: sub.beat.tag,
                uid: sub.beat.uid,
            })
            .expect("checked space");
        self.w_routes.push_back(WRoute {
            port,
            beats: sub.beat.len,
            bytes: sub.beat.size.bytes() as usize,
            moved: 0,
        });
        self.aw_stage.push(now, sub.beat).expect("checked space");
        self.aw_rr = port;
        self.stats.aw_grants[port] += 1;
        true
    }

    /// Moves granted requests from the crossbar registers into the
    /// master eFIFO. Returns `true` on any movement.
    pub fn move_to_mem(&mut self, now: Cycle, mem_port: &mut AxiPort) -> bool {
        let mut progress = false;
        if self.ar_stage.has_ready(now) && !mem_port.ar.is_full() {
            let beat = self.ar_stage.pop_ready(now).expect("checked ready");
            if self.obs_enabled {
                self.obs_events.push(ObsEvent {
                    uid: beat.uid,
                    port: None,
                    channel: ObsChannel::Ar,
                    hop: Hop::MemVisible,
                    cycle: now,
                    ref_cycle: beat.issued_at,
                    bytes: beat.total_bytes(),
                    sub_end: false,
                    txn_end: false,
                });
            }
            mem_port.ar.push(now, beat).expect("checked space");
            progress = true;
        }
        if self.aw_stage.has_ready(now) && !mem_port.aw.is_full() {
            let beat = self.aw_stage.pop_ready(now).expect("checked ready");
            if self.obs_enabled {
                self.obs_events.push(ObsEvent {
                    uid: beat.uid,
                    port: None,
                    channel: ObsChannel::Aw,
                    hop: Hop::MemVisible,
                    cycle: now,
                    ref_cycle: beat.issued_at,
                    bytes: beat.total_bytes(),
                    sub_end: false,
                    txn_end: false,
                });
            }
            mem_port.aw.push(now, beat).expect("checked space");
            progress = true;
        }
        progress
    }

    /// Moves one write-data beat from the port at the head of the W
    /// routing order into the master eFIFO (proactive: the stored grant
    /// order fully determines the source port). Returns `true` on
    /// movement.
    ///
    /// If the head port has been decoupled and is no longer feeding its
    /// granted burst, the EXBAR completes the burst with strobe-disabled
    /// filler beats (which commit nothing downstream) so one hung writer
    /// cannot head-of-line block every other port's write channel.
    pub fn move_w(
        &mut self,
        now: Cycle,
        ts: &mut [TransactionSupervisor],
        efifos: &[EFifo],
        mem_port: &mut AxiPort,
    ) -> bool {
        // Single slot lookup: the head route is read and updated in
        // place through one `front_mut` handle (no copy-out/look-up-again
        // round trip).
        let Some(route) = self.w_routes.front_mut() else {
            return false;
        };
        if mem_port.w.is_full() {
            return false;
        }
        let port = route.port;
        let beat = if ts[port].w_stage.has_ready(now) {
            let w = ts[port].w_stage.pop_ready(now).expect("checked ready");
            // Firewall filler beats (the `else` branch) are synthesized by
            // the crossbar itself and carry no master-issued timestamp, so
            // only real beats are observable W traffic.
            if self.obs_enabled {
                self.obs_events.push(ObsEvent {
                    uid: 0,
                    port: Some(port),
                    channel: ObsChannel::W,
                    hop: Hop::MemVisible,
                    cycle: now,
                    ref_cycle: w.issued_at,
                    bytes: w.data.len() as u64,
                    sub_end: false,
                    txn_end: false,
                });
            }
            w
        } else if efifos[port].is_decoupled() {
            let last = route.moved + 1 >= route.beats;
            self.firewall_beats += 1;
            WBeat::new(Payload::zeroed(route.bytes), last).with_strobe(0)
        } else {
            return false;
        };
        let last = beat.last;
        mem_port.w.push(now, beat).expect("checked space");
        if last {
            self.w_routes.pop_front();
        } else {
            route.moved += 1;
        }
        true
    }

    /// Routes one read-data beat from the master eFIFO back to the port
    /// recorded at the head of the read routing order. Returns `true` on
    /// movement.
    pub fn route_r(
        &mut self,
        now: Cycle,
        ts: &mut [TransactionSupervisor],
        efifos: &mut [EFifo],
        mem_port: &mut AxiPort,
    ) -> bool {
        if !mem_port.r.has_ready(now) {
            return false;
        }
        let Some(route) = self.read_routes.head().copied() else {
            // A data beat with no routing record would be a model bug;
            // surface it loudly rather than silently dropping data.
            panic!("R beat arrived with empty routing information");
        };
        if !efifos[route.port].can_push_r() {
            return false;
        }
        let mut beat = mem_port.r.pop_ready(now).expect("checked ready");
        // Attribute the delivery to *this* interconnect's uid namespace:
        // in a cascade the beat arrives carrying the uid assigned
        // furthest downstream, while the route recorded the uid the
        // request had at this hop's grant point (identical outside a
        // cascade, so this is a no-op for flat systems).
        beat.uid = route.uid;
        let sub_end = ts[route.port].deliver_r(now, beat, route.final_sub, &mut efifos[route.port]);
        if sub_end {
            self.read_routes.pop();
        }
        true
    }

    /// Routes one write response from the master eFIFO back to the port
    /// recorded at the head of the B routing order. Returns `true` on
    /// movement.
    pub fn route_b(
        &mut self,
        now: Cycle,
        ts: &mut [TransactionSupervisor],
        efifos: &mut [EFifo],
        mem_port: &mut AxiPort,
    ) -> bool {
        if !mem_port.b.has_ready(now) {
            return false;
        }
        let Some(route) = self.b_routes.head().copied() else {
            panic!("B response arrived with empty routing information");
        };
        if !efifos[route.port].can_push_b() {
            return false;
        }
        let mut beat = mem_port.b.pop_ready(now).expect("checked ready");
        // Same per-hop uid attribution as `route_r`.
        beat.uid = route.uid;
        ts[route.port].deliver_b(now, beat, route.final_sub, &mut efifos[route.port]);
        self.b_routes.pop();
        true
    }
}

mod persist_impls {
    use super::{Exbar, ExbarStats, WRoute};
    use sim::persist::PersistError;

    sim::persist_fields!(WRoute {
        port,
        beats,
        bytes,
        moved
    });
    sim::persist_fields!(ExbarStats {
        ar_grants,
        aw_grants
    });
    // The routing rings are serialized in logical (grant) order; the
    // buffered observability events ride along so a snapshot taken
    // mid-tick-sequence loses no hop attribution.
    sim::persist_fields!(Exbar {
        policy,
        ar_rr,
        aw_rr,
        ar_stage,
        aw_stage,
        read_routes,
        b_routes,
        w_routes,
        firewall_beats,
        stats,
        obs_enabled,
        obs_events,
    } check |exbar| {
        if exbar.stats.ar_grants.len() != exbar.stats.aw_grants.len() {
            return Err(PersistError::Corrupt("exbar grant counter shape"));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::TsRuntime;
    use axi::types::BurstSize;
    use axi::{ArBeat, PortConfig};
    use sim::persist::{Persist, PersistError, PersistValue, SnapshotReader, SnapshotWriter};

    fn rt() -> TsRuntime {
        TsRuntime {
            nominal: 16,
            max_outstanding: 8,
            enabled: true,
            quiesced: false,
            regulator: crate::regulate::RegulatorConfig::unlimited(),
        }
    }

    fn setup(n: usize) -> (Exbar, Vec<TransactionSupervisor>, Vec<EFifo>, AxiPort) {
        let exbar = Exbar::new(n, 32);
        let ts = (0..n).map(|_| TransactionSupervisor::new(32)).collect();
        let efifos = (0..n).map(|_| EFifo::new(4, 32, 4)).collect();
        let mem_port = AxiPort::new(PortConfig::registered());
        (exbar, ts, efifos, mem_port)
    }

    /// Arbitrates AR with every port offered as a candidate.
    fn arb_ar(exbar: &mut Exbar, now: Cycle, ts: &mut [TransactionSupervisor]) -> bool {
        let all = PortSet::full(ts.len());
        exbar.arbitrate_ar(now, ts, &all)
    }

    /// Arbitrates AW with every port offered as a candidate.
    fn arb_aw(exbar: &mut Exbar, now: Cycle, ts: &mut [TransactionSupervisor]) -> bool {
        let all = PortSet::full(ts.len());
        exbar.arbitrate_aw(now, ts, &all)
    }

    /// Stages a sub-AR on a TS by pushing through its eFIFO and running
    /// ingest/issue until the stage holds it.
    fn stage_ar(ts: &mut TransactionSupervisor, ef: &mut EFifo, now: Cycle, addr: u64) {
        ef.port
            .ar
            .push(now.saturating_sub(1), ArBeat::new(addr, 1, BurstSize::B4))
            .unwrap();
        ts.ingest(now, ef, rt());
        ts.issue(now, rt());
    }

    #[test]
    fn round_robin_alternates_between_ports() {
        let (mut exbar, mut ts, mut efifos, _mem) = setup(2);
        // Fill both TS stages repeatedly and observe alternating grants.
        let mut grants = Vec::new();
        for now in 1..20 {
            for p in 0..2 {
                if ts[p].ar_stage.is_empty() {
                    stage_ar(&mut ts[p], &mut efifos[p], now, (p as u64) * 0x1000);
                }
            }
            if arb_ar(&mut exbar, now + 1, &mut ts) {
                // Who was granted? The rr pointer tracks it.
                grants.push(exbar.ar_rr);
            }
            // Drain the crossbar register so arbitration can continue.
            exbar.ar_stage.pop_ready(now + 2);
        }
        assert!(grants.len() >= 4);
        for pair in grants.windows(2) {
            assert_ne!(pair[0], pair[1], "granularity-1 RR must alternate");
        }
    }

    #[test]
    fn grants_recorded_in_routing_order() {
        let (mut exbar, mut ts, mut efifos, mut mem) = setup(2);
        stage_ar(&mut ts[0], &mut efifos[0], 1, 0x0);
        stage_ar(&mut ts[1], &mut efifos[1], 1, 0x1000);
        // Both stages ready at cycle 2.
        assert!(arb_ar(&mut exbar, 2, &mut ts));
        assert!(arb_ar(&mut exbar, 3, &mut ts));
        assert!(!arb_ar(&mut exbar, 4, &mut ts)); // nothing left
                                                  // Routing order matches grant order.
        let first = exbar.read_routes.head().unwrap().port;
        exbar.move_to_mem(3, &mut mem);
        exbar.move_to_mem(4, &mut mem);
        let ar1 = mem.ar.pop_ready(5).unwrap();
        assert_eq!(
            first == 0,
            ar1.addr == 0,
            "first routed port matches first memory request"
        );
    }

    #[test]
    fn exbar_latency_one_cycle_per_request() {
        let (mut exbar, mut ts, mut efifos, mut mem) = setup(1);
        stage_ar(&mut ts[0], &mut efifos[0], 1, 0x40);
        assert!(arb_ar(&mut exbar, 2, &mut ts));
        // Granted at 2, in the crossbar register until 3.
        assert!(!exbar.move_to_mem(2, &mut mem));
        assert!(exbar.move_to_mem(3, &mut mem));
        // Master eFIFO adds its own cycle.
        assert!(mem.ar.pop_ready(3).is_none());
        assert!(mem.ar.pop_ready(4).is_some());
    }

    #[test]
    fn w_beats_follow_aw_grant_order() {
        let (mut exbar, mut ts, mut efifos, mut mem) = setup(2);
        // Port 1 writes first, then port 0; W beats must come out in
        // that order even if port 0's data is staged earlier.
        for (port, when) in [(1usize, 1u64), (0, 3)] {
            efifos[port]
                .port
                .aw
                .push(
                    when - 1,
                    axi::AwBeat::new(port as u64 * 0x100, 1, BurstSize::B4),
                )
                .unwrap();
            efifos[port]
                .port
                .w
                .push(when - 1, axi::WBeat::new(vec![port as u8; 4], true))
                .unwrap();
            ts[port].ingest(when, &mut efifos[port], rt());
            ts[port].issue(when, rt());
        }
        assert!(arb_aw(&mut exbar, 2, &mut ts)); // port 1 granted first
        assert!(arb_aw(&mut exbar, 4, &mut ts)); // then port 0
        let mut data = Vec::new();
        for now in 2..12 {
            exbar.move_w(now, &mut ts, &efifos, &mut mem);
            if let Some(w) = mem.w.pop_ready(now) {
                data.push(w.data[0]);
            }
        }
        assert_eq!(data, vec![1, 0]);
    }

    #[test]
    fn decoupled_writer_completed_with_firewall_beats() {
        let (mut exbar, mut ts, mut efifos, mut mem) = setup(2);
        // Port 0 is granted a 4-beat write but supplies only one beat
        // before hanging; port 1 has a 1-beat write queued behind it.
        efifos[0]
            .port
            .aw
            .push(0, axi::AwBeat::new(0x0, 4, BurstSize::B4))
            .unwrap();
        efifos[0]
            .port
            .w
            .push(0, axi::WBeat::new(vec![7; 4], false))
            .unwrap();
        ts[0].ingest(1, &mut efifos[0], rt());
        ts[0].issue(1, rt());
        assert!(arb_aw(&mut exbar, 2, &mut ts));
        efifos[1]
            .port
            .aw
            .push(2, axi::AwBeat::new(0x100, 1, BurstSize::B4))
            .unwrap();
        efifos[1]
            .port
            .w
            .push(2, axi::WBeat::new(vec![9; 4], true))
            .unwrap();
        ts[1].ingest(3, &mut efifos[1], rt());
        ts[1].issue(3, rt());
        assert!(arb_aw(&mut exbar, 4, &mut ts));
        // Move the one real beat; the channel then wedges on port 0.
        for now in 2..10 {
            ts[0].ingest(now, &mut efifos[0], rt());
            exbar.move_w(now, &mut ts, &efifos, &mut mem);
        }
        assert_eq!(mem.w.len(), 1);
        assert!(!exbar.move_w(10, &mut ts, &efifos, &mut mem));
        // Decoupling port 0 lets the EXBAR firewall the rest of the
        // burst and port 1's write drain behind it.
        efifos[0].set_decoupled(true);
        let mut beats = Vec::new();
        for now in 11..20 {
            exbar.move_w(now, &mut ts, &efifos, &mut mem);
            while let Some(w) = mem.w.pop_ready(now) {
                beats.push((w.data[0], w.strb, w.last));
            }
        }
        assert_eq!(exbar.firewall_beats(), 3);
        // Real beat, three strobe-less fillers ending the burst, then
        // port 1's real beat.
        assert_eq!(beats.len(), 5);
        assert_eq!(beats[0], (7, axi::beat::STRB_ALL, false));
        assert!(beats[1..4].iter().all(|&(d, s, _)| d == 0 && s == 0));
        assert!(beats[3].2, "filler completes the burst with LAST");
        assert_eq!(beats[4], (9, axi::beat::STRB_ALL, true));
        assert!(exbar.w_routes.is_empty());
    }

    #[test]
    fn route_r_respects_backpressure_without_loss() {
        let (mut exbar, mut ts, mut efifos, mut mem) = setup(1);
        // Tiny R queue on the eFIFO.
        efifos[0] = EFifo::new(4, 1, 4);
        exbar
            .read_routes
            .push(RouteEntry {
                port: 0,
                final_sub: true,
                tag: 0,
                uid: 0,
            })
            .unwrap();
        let beat = axi::RBeat::new(axi::types::AxiId(0), vec![0; 4], false);
        mem.r.push(0, beat.clone()).unwrap();
        mem.r.push(0, beat.clone()).unwrap();
        assert!(exbar.route_r(1, &mut ts, &mut efifos, &mut mem));
        // Second beat blocked: the eFIFO R queue (capacity 1) is full.
        assert!(!exbar.route_r(1, &mut ts, &mut efifos, &mut mem));
        assert_eq!(mem.r.len(), 1);
        // Draining the eFIFO unblocks routing.
        efifos[0].port.r.pop_ready(2).unwrap();
        assert!(exbar.route_r(2, &mut ts, &mut efifos, &mut mem));
    }

    #[test]
    #[should_panic(expected = "routing information")]
    fn r_without_route_is_a_model_bug() {
        let (mut exbar, mut ts, mut efifos, mut mem) = setup(1);
        mem.r
            .push(0, axi::RBeat::new(axi::types::AxiId(0), vec![0; 4], true))
            .unwrap();
        exbar.route_r(1, &mut ts, &mut efifos, &mut mem);
    }

    #[test]
    fn b_routed_and_merged() {
        let (mut exbar, mut ts, mut efifos, mut mem) = setup(1);
        exbar
            .b_routes
            .push(RouteEntry {
                port: 0,
                final_sub: true,
                tag: 5,
                uid: 0,
            })
            .unwrap();
        // TS expects one outstanding write for bookkeeping symmetry.
        mem.b
            .push(0, axi::BBeat::new(axi::types::AxiId(0)).with_tag(5))
            .unwrap();
        assert!(exbar.route_b(1, &mut ts, &mut efifos, &mut mem));
        assert!(exbar.b_routes.is_empty());
        assert_eq!(efifos[0].port.b.pop_ready(2).unwrap().tag, 5);
    }

    #[test]
    fn idle_detection() {
        let (exbar, _, _, _) = setup(2);
        assert!(exbar.is_idle());
    }

    /// The pick as the arbiter made it before it scanned a port set:
    /// every port in turn, reduced `% n` per candidate.
    fn full_scan_pick(start: usize, n: usize, ready: &[bool]) -> Option<usize> {
        (1..=n).map(|k| (start + k) % n).find(|&p| ready[p])
    }

    proptest::proptest! {
        /// For any port count (across several bitset words), start
        /// pointer and staged/ready split, the masked pick equals the
        /// full scan. A port is staged when its draw falls below
        /// `density`, and ready when it is staged and its draw is even.
        #[test]
        fn masked_pick_matches_full_scan(
            n in 1usize..=130,
            start_draw in 0usize..1_000,
            density in 0u32..=100,
            draws in proptest::collection::vec(0u32..100, 130),
        ) {
            let start = start_draw % n;
            let mut staged = PortSet::new(n);
            let mut ready = vec![false; n];
            for (p, &draw) in draws.iter().enumerate().take(n) {
                if draw < density {
                    staged.insert(p);
                    ready[p] = draw % 2 == 0;
                }
            }
            let exbar = Exbar::new(n, 4);
            let masked = exbar.pick(start, &staged, |p| ready[p]);
            proptest::prop_assert_eq!(masked, full_scan_pick(start, n, &ready));
        }
    }

    /// The bytes `exbar` saves.
    fn image(exbar: &Exbar) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        exbar.save_value(&mut w);
        w.into_bytes()
    }

    #[test]
    fn image_starts_with_the_round_robin_policy_byte() {
        let (exbar, _, _, _) = setup(2);
        assert_eq!(image(&exbar)[0], 0);
    }

    #[test]
    fn unknown_policy_byte_is_corrupt_and_restores_nothing() {
        let (mut busy, mut ts, mut efifos, _) = setup(2);
        stage_ar(&mut ts[1], &mut efifos[1], 1, 0x2000);
        assert!(arb_ar(&mut busy, 2, &mut ts));
        let mut bytes = image(&busy);
        bytes[0] = 1;

        let (mut target, _, _, _) = setup(2);
        let before = image(&target);
        assert_eq!(
            target.restore(&mut SnapshotReader::new(&bytes)),
            Err(PersistError::Corrupt("arbitration policy discriminant"))
        );
        assert_eq!(image(&target), before, "a rejected restore changes nothing");

        bytes[0] = 0;
        target.restore(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(image(&target), image(&busy));
    }
}
