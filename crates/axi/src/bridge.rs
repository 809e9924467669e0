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
    pub fn transfer(
        &mut self,
        now: Cycle,
        upstream: &mut AxiPort,
        downstream: &mut AxiPort,
    ) -> bool {
        match self.stage.take() {
            None => self.transfer_wire(now, upstream, downstream),
            Some(mut stage) => {
                let progress = self.transfer_staged(now, &mut stage, upstream, downstream);
                self.stage = Some(stage);
                progress
            }
        }
    }

    /// Wire mode: beats cross directly, exactly like the hand-rolled
    /// adapter the hierarchy test used to carry.
    fn transfer_wire(&mut self, now: Cycle, up: &mut AxiPort, down: &mut AxiPort) -> bool {
        let mut progress = false;
        // Requests flow down.
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
        // Responses flow up.
        while down.r.has_ready(now) && !up.r.is_full() {
            let mut b = down.r.pop_ready(now).expect("ready");
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

    /// Registered mode: drain the stage toward its destination first,
    /// then accept newly ready beats into the stage — so a beat spends
    /// exactly `latency` cycles inside the bridge when the far side has
    /// space.
    fn transfer_staged(
        &mut self,
        now: Cycle,
        stage: &mut AxiPort,
        up: &mut AxiPort,
        down: &mut AxiPort,
    ) -> bool {
        let mut progress = false;
        // Stage → downstream (requests leave the bridge).
        while stage.ar.has_ready(now) && !down.ar.is_full() {
            let mut b = stage.ar.pop_ready(now).expect("ready");
            b.issued_at = now;
            down.ar.push(now, b).expect("space");
            self.stats.beats_down += 1;
            progress = true;
        }
        while stage.aw.has_ready(now) && !down.aw.is_full() {
            let mut b = stage.aw.pop_ready(now).expect("ready");
            b.issued_at = now;
            down.aw.push(now, b).expect("space");
            self.stats.beats_down += 1;
            progress = true;
        }
        while stage.w.has_ready(now) && !down.w.is_full() {
            let mut b = stage.w.pop_ready(now).expect("ready");
            b.issued_at = now;
            down.w.push(now, b).expect("space");
            self.stats.beats_down += 1;
            progress = true;
        }
        // Stage → upstream (responses leave the bridge).
        while stage.r.has_ready(now) && !up.r.is_full() {
            let mut b = stage.r.pop_ready(now).expect("ready");
            b.hopped_at = now;
            up.r.push(now, b).expect("space");
            self.stats.beats_up += 1;
            progress = true;
        }
        while stage.b.has_ready(now) && !up.b.is_full() {
            let mut b = stage.b.pop_ready(now).expect("ready");
            b.hopped_at = now;
            up.b.push(now, b).expect("space");
            self.stats.beats_up += 1;
            progress = true;
        }
        // Boundary → stage (beats enter the bridge pipes).
        while up.ar.has_ready(now) && !stage.ar.is_full() {
            let b = up.ar.pop_ready(now).expect("ready");
            stage.ar.push(now, b).expect("space");
            progress = true;
        }
        while up.aw.has_ready(now) && !stage.aw.is_full() {
            let b = up.aw.pop_ready(now).expect("ready");
            stage.aw.push(now, b).expect("space");
            progress = true;
        }
        while up.w.has_ready(now) && !stage.w.is_full() {
            let b = up.w.pop_ready(now).expect("ready");
            stage.w.push(now, b).expect("space");
            progress = true;
        }
        while down.r.has_ready(now) && !stage.r.is_full() {
            let b = down.r.pop_ready(now).expect("ready");
            stage.r.push(now, b).expect("space");
            progress = true;
        }
        while down.b.has_ready(now) && !stage.b.is_full() {
            let b = down.b.pop_ready(now).expect("ready");
            stage.b.push(now, b).expect("space");
            progress = true;
        }
        progress
    }
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
    // Sharded runs reunite their split halves before any snapshot is
    // taken, so the in-flight shard-mirror state never needs to cross a
    // snapshot boundary.
    sim::persist_fields!(AxiBridge { config, stage, stats } check |bridge| {
        if (bridge.config.latency > 0) != bridge.stage.is_some() {
            return Err(PersistError::Corrupt("bridge stage/latency mismatch"));
        }
    });
}

impl AxiBridge {
    /// Splits a registered bridge into its two shard-resident halves
    /// (see the [`ParentHalf`]/[`ChildHalf`] docs for the protocol).
    ///
    /// Beats currently staged in the bridge are migrated into the
    /// consumer-side mirror pipes with their original readiness cycles
    /// intact, and the producer-side entry gates start out charged with
    /// that occupancy — a bridge split mid-stream resumes on exactly
    /// the sequential schedule.
    ///
    /// # Panics
    ///
    /// Panics on a wire (latency 0) bridge — a zero-latency edge has no
    /// lookahead and is never a legal shard boundary.
    pub fn split(self) -> (ParentHalf, ChildHalf) {
        let mut stage = self
            .stage
            .expect("only a registered bridge can be split at a shard boundary");
        let cfg = self.config;
        // Consumer-side mirror + producer-side gate for one channel,
        // seeded with the channel's in-flight contents.
        fn migrate<T: std::fmt::Debug>(
            src: &mut TimedFifo<T>,
            capacity: usize,
            latency: Cycle,
        ) -> (TimedFifo<T>, EntryGate) {
            let mut mirror = TimedFifo::new(capacity, latency);
            let mut gate = EntryGate::new(capacity, latency);
            for (ready_at, beat) in src.drain_scheduled() {
                gate.pushed += 1;
                gate.recent.push_back(ready_at.saturating_sub(latency));
                mirror
                    .push_scheduled(ready_at, beat)
                    .expect("mirror has the staging pipe's capacity");
            }
            // The mirror *is* the staging pipe after a reunite: it must
            // keep the pipe's lifetime counters, not restart them from
            // the migrated occupancy (a mid-run split would otherwise
            // zero them and diverge from an unsplit run's state).
            mirror.inherit_lifetime_stats(src);
            (mirror, gate)
        }
        let (ar, gate_ar) = migrate(&mut stage.ar, cfg.addr_capacity, cfg.latency);
        let (aw, gate_aw) = migrate(&mut stage.aw, cfg.addr_capacity, cfg.latency);
        let (w, gate_w) = migrate(&mut stage.w, cfg.data_capacity, cfg.latency);
        let (r, gate_r) = migrate(&mut stage.r, cfg.data_capacity, cfg.latency);
        let (b, gate_b) = migrate(&mut stage.b, cfg.resp_capacity, cfg.latency);
        let parent = ParentHalf {
            config: cfg,
            baseline: self.stats,
            ar,
            aw,
            w,
            gate_r,
            gate_b,
            out: BridgeBatch::default(),
            popped_ar: 0,
            popped_aw: 0,
            popped_w: 0,
            beats_down: 0,
        };
        let child = ChildHalf {
            latency: cfg.latency,
            r,
            b,
            gate_ar,
            gate_aw,
            gate_w,
            out: BridgeBatch::default(),
            popped_r: 0,
            popped_b: 0,
            beats_up: 0,
        };
        (parent, child)
    }

    /// Reassembles a bridge from its two halves after a sharded run:
    /// the consumer-side mirror pipes *are* the staging pipes (their
    /// entries carry the original push cycles, so residual beats keep
    /// their exact readiness schedule) and the per-half exit counters
    /// fold back into the bridge's beat statistics.
    pub fn reunite(parent: ParentHalf, child: ChildHalf) -> Self {
        debug_assert!(
            parent.out.is_empty() && child.out.is_empty(),
            "exchange any pending batches before reuniting"
        );
        let stage = AxiPort {
            ar: parent.ar,
            aw: parent.aw,
            w: parent.w,
            r: child.r,
            b: child.b,
        };
        Self {
            config: parent.config,
            stage: Some(stage),
            stats: BridgeStats {
                beats_down: parent.baseline.beats_down + parent.beats_down,
                beats_up: parent.baseline.beats_up + child.beats_up,
            },
        }
    }
}

/// In-flight traffic crossing a split bridge during one exchange
/// window: beats that entered the (conceptual) staging pipes, tagged
/// with their original entry cycles, plus the sender's cumulative exit
/// counts from the channels it consumes (which feed the receiver's
/// occupancy gates).
#[derive(Debug, Default)]
pub struct BridgeBatch {
    /// Read-address beats entering the bridge, child → parent.
    pub ar: Vec<(Cycle, crate::beat::ArBeat)>,
    /// Write-address beats entering the bridge, child → parent.
    pub aw: Vec<(Cycle, crate::beat::AwBeat)>,
    /// Write-data beats entering the bridge, child → parent.
    pub w: Vec<(Cycle, crate::beat::WBeat)>,
    /// Read-data beats entering the bridge, parent → child.
    pub r: Vec<(Cycle, crate::beat::RBeat)>,
    /// Write-response beats entering the bridge, parent → child.
    pub b: Vec<(Cycle, crate::beat::BBeat)>,
    /// Cumulative beats the sender has popped out of each stage pipe,
    /// lifetime (confirms space to the opposite half's entry gates).
    pub popped: [u64; 5],
}

impl BridgeBatch {
    /// Whether the batch carries neither beats nor new exit
    /// confirmations (an all-zero `popped` array is only meaningful
    /// relative to the receiver's state, so only beat payloads count).
    pub fn is_empty(&self) -> bool {
        self.ar.is_empty()
            && self.aw.is_empty()
            && self.w.is_empty()
            && self.r.is_empty()
            && self.b.is_empty()
    }

    /// Total beats carried.
    pub fn beats(&self) -> usize {
        self.ar.len() + self.aw.len() + self.w.len() + self.r.len() + self.b.len()
    }
}

/// Conservative admission control for pushing into a stage pipe whose
/// consumer lives on another shard.
///
/// The producer knows its own lifetime pushes exactly; the consumer's
/// pops are only confirmed up to the last exchange. Between exchanges
/// the true occupancy is bracketed:
///
/// * **upper bound** — own pushes minus *confirmed* pops (the consumer
///   can only have popped more, never less);
/// * **lower bound** — pushes newer than `now − latency`: their
///   `ready_at` lies in the future, so the consumer cannot have popped
///   them yet no matter what.
///
/// `upper < capacity` proves the sequential bridge would accept the
/// beat; `lower ≥ capacity` proves it would stall. The remaining
/// ambiguous band (pipe full per confirmed counts, but old-enough beats
/// might have drained) is resolved by stalling conservatively and
/// counting the event — a run that finishes with zero
/// [ambiguous stalls](ParentHalf::ambiguous_stalls) is provably
/// byte-identical to the sequential schedule.
#[derive(Debug)]
struct EntryGate {
    capacity: usize,
    latency: Cycle,
    pushed: u64,
    confirmed_popped: u64,
    /// Entry cycles of recent pushes, pruned to `(now − latency, now]`.
    recent: std::collections::VecDeque<Cycle>,
    ambiguous_stalls: u64,
}

impl EntryGate {
    fn new(capacity: usize, latency: Cycle) -> Self {
        Self {
            capacity,
            latency,
            pushed: 0,
            confirmed_popped: 0,
            recent: std::collections::VecDeque::new(),
            ambiguous_stalls: 0,
        }
    }

    /// Attempts to admit one beat at cycle `now`; returns whether the
    /// push is proven legal.
    fn try_push(&mut self, now: Cycle) -> bool {
        while self
            .recent
            .front()
            .is_some_and(|&c| c + self.latency <= now)
        {
            self.recent.pop_front();
        }
        let upper = (self.pushed - self.confirmed_popped) as usize;
        if upper < self.capacity {
            self.pushed += 1;
            self.recent.push_back(now);
            true
        } else {
            if self.recent.len() < self.capacity {
                self.ambiguous_stalls += 1;
            }
            false
        }
    }

    fn confirm(&mut self, popped: u64) {
        self.confirmed_popped = self.confirmed_popped.max(popped);
    }
}

/// Drains ready beats from a consumer-side mirror pipe into its
/// destination queue, restamping each beat with the crossing cycle.
fn drain_exits<T: std::fmt::Debug>(
    now: Cycle,
    mirror: &mut TimedFifo<T>,
    dest: &mut TimedFifo<T>,
    mut stamp: impl FnMut(&mut T, Cycle),
    popped: &mut u64,
    beats: &mut u64,
) -> bool {
    let mut moved = false;
    while mirror.has_ready(now) && !dest.is_full() {
        let mut beat = mirror.pop_ready(now).expect("ready");
        stamp(&mut beat, now);
        dest.push(now, beat).expect("space");
        *popped += 1;
        *beats += 1;
        moved = true;
    }
    moved
}

/// Moves ready boundary beats into the outgoing batch, subject to the
/// entry gate.
fn drain_entries<T>(
    now: Cycle,
    src: &mut TimedFifo<T>,
    gate: &mut EntryGate,
    out: &mut Vec<(Cycle, T)>,
) -> bool {
    let mut moved = false;
    while src.has_ready(now) {
        if !gate.try_push(now) {
            break;
        }
        out.push((now, src.pop_ready(now).expect("ready")));
        moved = true;
    }
    moved
}

/// The half of a split [`AxiBridge`] that lives in the *parent* shard
/// (the side owning the downstream slave port).
///
/// It owns consumer-side mirrors of the request pipes — real
/// [`TimedFifo`]s holding the beats the child shard sent, pushed at
/// their original entry cycles so readiness and ordering are exactly
/// the sequential stage's — and entry gates for the response pipes it
/// produces into. Drive it with [`ParentHalf::run_cycle`] at the same
/// point of the cycle where the sequential engine would call
/// [`AxiBridge::transfer`].
#[derive(Debug)]
pub struct ParentHalf {
    config: BridgeConfig,
    baseline: BridgeStats,
    ar: TimedFifo<crate::beat::ArBeat>,
    aw: TimedFifo<crate::beat::AwBeat>,
    w: TimedFifo<crate::beat::WBeat>,
    gate_r: EntryGate,
    gate_b: EntryGate,
    out: BridgeBatch,
    popped_ar: u64,
    popped_aw: u64,
    popped_w: u64,
    beats_down: u64,
}

impl ParentHalf {
    /// Runs the parent-side bridge work for one cycle against the
    /// parent interconnect's slave port: stage → downstream request
    /// exits, then downstream → stage response entries (the sequential
    /// `transfer` order restricted to this side). Returns `true` when
    /// any beat moved.
    pub fn run_cycle(&mut self, now: Cycle, parent_port: &mut AxiPort) -> bool {
        let mut moved = false;
        moved |= drain_exits(
            now,
            &mut self.ar,
            &mut parent_port.ar,
            |b, c| b.issued_at = c,
            &mut self.popped_ar,
            &mut self.beats_down,
        );
        moved |= drain_exits(
            now,
            &mut self.aw,
            &mut parent_port.aw,
            |b, c| b.issued_at = c,
            &mut self.popped_aw,
            &mut self.beats_down,
        );
        moved |= drain_exits(
            now,
            &mut self.w,
            &mut parent_port.w,
            |b, c| b.issued_at = c,
            &mut self.popped_w,
            &mut self.beats_down,
        );
        moved |= drain_entries(now, &mut parent_port.r, &mut self.gate_r, &mut self.out.r);
        moved |= drain_entries(now, &mut parent_port.b, &mut self.gate_b, &mut self.out.b);
        moved
    }

    /// Takes the accumulated outgoing batch (response beats plus
    /// request-pipe exit confirmations) for delivery to the child half.
    pub fn take_batch(&mut self) -> BridgeBatch {
        let mut batch = std::mem::take(&mut self.out);
        batch.popped = [self.popped_ar, self.popped_aw, self.popped_w, 0, 0];
        batch
    }

    /// Accepts a batch from the child half: request beats enter the
    /// mirror pipes at their original cycles; response-pipe exit
    /// confirmations widen the entry gates.
    pub fn deliver(&mut self, batch: BridgeBatch) {
        for (cycle, beat) in batch.ar {
            self.ar.push(cycle, beat).expect("gated by child half");
        }
        for (cycle, beat) in batch.aw {
            self.aw.push(cycle, beat).expect("gated by child half");
        }
        for (cycle, beat) in batch.w {
            self.w.push(cycle, beat).expect("gated by child half");
        }
        debug_assert!(batch.r.is_empty() && batch.b.is_empty());
        self.gate_r.confirm(batch.popped[3]);
        self.gate_b.confirm(batch.popped[4]);
    }

    /// Earliest cycle a mirrored request beat becomes ready to exit
    /// downstream, or `None` when the mirrors are empty.
    pub fn next_event(&self) -> Option<Cycle> {
        [
            self.ar.next_ready_at(),
            self.aw.next_ready_at(),
            self.w.next_ready_at(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Response-pipe admissions that had to assume "full" because the
    /// child's exits were not yet confirmed. Zero means this half's
    /// schedule is proven identical to the sequential bridge's.
    pub fn ambiguous_stalls(&self) -> u64 {
        self.gate_r.ambiguous_stalls + self.gate_b.ambiguous_stalls
    }
}

/// The half of a split [`AxiBridge`] that lives in the *child* shard
/// (the side owning the upstream master port). Mirror pipes for the
/// response channels, entry gates for the request channels; see
/// [`ParentHalf`].
#[derive(Debug)]
pub struct ChildHalf {
    latency: Cycle,
    r: TimedFifo<crate::beat::RBeat>,
    b: TimedFifo<crate::beat::BBeat>,
    gate_ar: EntryGate,
    gate_aw: EntryGate,
    gate_w: EntryGate,
    out: BridgeBatch,
    popped_r: u64,
    popped_b: u64,
    beats_up: u64,
}

impl ChildHalf {
    /// Runs the child-side bridge work for one cycle against the child
    /// interconnect's master port: stage → upstream response exits,
    /// then upstream → stage request entries. Returns `true` when any
    /// beat moved.
    pub fn run_cycle(&mut self, now: Cycle, child_mem_port: &mut AxiPort) -> bool {
        let mut moved = false;
        moved |= drain_exits(
            now,
            &mut self.r,
            &mut child_mem_port.r,
            |b, c| b.hopped_at = c,
            &mut self.popped_r,
            &mut self.beats_up,
        );
        moved |= drain_exits(
            now,
            &mut self.b,
            &mut child_mem_port.b,
            |b, c| b.hopped_at = c,
            &mut self.popped_b,
            &mut self.beats_up,
        );
        moved |= drain_entries(
            now,
            &mut child_mem_port.ar,
            &mut self.gate_ar,
            &mut self.out.ar,
        );
        moved |= drain_entries(
            now,
            &mut child_mem_port.aw,
            &mut self.gate_aw,
            &mut self.out.aw,
        );
        moved |= drain_entries(
            now,
            &mut child_mem_port.w,
            &mut self.gate_w,
            &mut self.out.w,
        );
        moved
    }

    /// Takes the accumulated outgoing batch (request beats plus
    /// response-pipe exit confirmations) for delivery to the parent
    /// half.
    pub fn take_batch(&mut self) -> BridgeBatch {
        let mut batch = std::mem::take(&mut self.out);
        batch.popped = [0, 0, 0, self.popped_r, self.popped_b];
        batch
    }

    /// Accepts a batch from the parent half.
    pub fn deliver(&mut self, batch: BridgeBatch) {
        for (cycle, beat) in batch.r {
            self.r.push(cycle, beat).expect("gated by parent half");
        }
        for (cycle, beat) in batch.b {
            self.b.push(cycle, beat).expect("gated by parent half");
        }
        debug_assert!(batch.ar.is_empty() && batch.aw.is_empty() && batch.w.is_empty());
        self.gate_ar.confirm(batch.popped[0]);
        self.gate_aw.confirm(batch.popped[1]);
        self.gate_w.confirm(batch.popped[2]);
    }

    /// Earliest cycle a mirrored response beat becomes ready to exit
    /// upstream, or `None` when the mirrors are empty.
    pub fn next_event(&self) -> Option<Cycle> {
        [self.r.next_ready_at(), self.b.next_ready_at()]
            .into_iter()
            .flatten()
            .min()
    }

    /// The bridge latency, which is also this edge's lookahead: a beat
    /// admitted at cycle `c` cannot exit before `c + latency`.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Request-pipe admissions that had to assume "full" (see
    /// [`ParentHalf::ambiguous_stalls`]).
    pub fn ambiguous_stalls(&self) -> u64 {
        self.gate_ar.ambiguous_stalls + self.gate_aw.ambiguous_stalls + self.gate_w.ambiguous_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beat::{ArBeat, BBeat, RBeat};
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

    /// `(cycle, channel)` arrival log used by the split-vs-sequential
    /// comparisons.
    type ArrivalLog = Vec<(u64, &'static str)>;

    /// Drives a split bridge the way the sharded scheduler does —
    /// window-synchronous, exchanging batches every `window` cycles —
    /// while the sequential bridge runs the same boundary traffic, and
    /// returns the per-cycle arrival log of both.
    fn run_split_vs_sequential(
        latency: u64,
        window: u64,
        cycles: u64,
        mut feed: impl FnMut(u64, &mut AxiPort, &mut AxiPort),
    ) -> (ArrivalLog, ArrivalLog) {
        let drain = |now: u64, up: &mut AxiPort, down: &mut AxiPort, log: &mut ArrivalLog| {
            while down.ar.pop_ready(now).is_some() {
                log.push((now, "ar"));
            }
            while down.aw.pop_ready(now).is_some() {
                log.push((now, "aw"));
            }
            while down.w.pop_ready(now).is_some() {
                log.push((now, "w"));
            }
            while up.r.pop_ready(now).is_some() {
                log.push((now, "r"));
            }
            while up.b.pop_ready(now).is_some() {
                log.push((now, "b"));
            }
        };

        // Sequential reference.
        let (mut up, mut down) = ports();
        let mut bridge = AxiBridge::new(BridgeConfig::wire().latency(latency));
        let mut seq_log = Vec::new();
        for now in 0..cycles {
            feed(now, &mut up, &mut down);
            bridge.transfer(now, &mut up, &mut down);
            drain(now, &mut up, &mut down, &mut seq_log);
        }

        // Split halves, exchanged every `window` cycles.
        let (mut up, mut down) = ports();
        let (mut parent, mut child) = AxiBridge::new(BridgeConfig::wire().latency(latency)).split();
        let mut split_log = Vec::new();
        let mut now = 0;
        while now < cycles {
            let to = (now + window).min(cycles);
            for t in now..to {
                feed(t, &mut up, &mut down);
                // Parent and child shards each run their half; the
                // within-cycle order across halves is immaterial (they
                // share no state between exchanges).
                parent.run_cycle(t, &mut down);
                child.run_cycle(t, &mut up);
                drain(t, &mut up, &mut down, &mut split_log);
            }
            let to_parent = child.take_batch();
            let to_child = parent.take_batch();
            parent.deliver(to_parent);
            child.deliver(to_child);
            now = to;
        }
        assert_eq!(parent.ambiguous_stalls(), 0);
        assert_eq!(child.ambiguous_stalls(), 0);
        (seq_log, split_log)
    }

    #[test]
    fn split_halves_match_the_sequential_bridge_byte_for_byte() {
        for (latency, window) in [(1, 1), (2, 2), (4, 2), (4, 4), (3, 1)] {
            let (seq, split) = run_split_vs_sequential(latency, window, 60, |now, up, down| {
                if now % 5 == 0 {
                    up.ar
                        .push(now, ArBeat::new(0x100 + now, 1, BurstSize::B4))
                        .ok();
                }
                if now % 7 == 0 {
                    down.r
                        .push(now, RBeat::new(AxiId(1), vec![0; 4], true))
                        .ok();
                }
            });
            assert_eq!(seq, split, "latency {latency} window {window}");
        }
    }

    #[test]
    fn no_beat_crosses_a_split_bridge_faster_than_its_latency() {
        // The safety property the sharded scheduler's lookahead relies
        // on: a beat admitted at cycle c is not observable downstream
        // before c + N, for every window ≤ N.
        for latency in [1u64, 2, 4] {
            for window in 1..=latency {
                let (_, split) = run_split_vs_sequential(latency, window, 40, |now, up, _| {
                    if now == 3 {
                        up.ar.push(now, ArBeat::new(0x40, 1, BurstSize::B4)).ok();
                    }
                });
                let (arrived, _) = split[0];
                assert_eq!(
                    arrived,
                    3 + latency,
                    "latency {latency} window {window}: beat must spend exactly its latency in flight"
                );
            }
        }
    }

    #[test]
    fn entry_gate_stalls_exactly_like_a_full_stage() {
        // Saturate the B pipe (capacity 8): the sequential stage stalls
        // entries while full, and the split half must stall the same
        // beats on confirmed occupancy alone when the consumer never
        // drains (downstream full ⇒ pops impossible ⇒ no ambiguity).
        let (seq, split) = run_split_vs_sequential(2, 2, 30, |now, _, down| {
            if now < 12 {
                down.b.push(now, BBeat::new(AxiId(0)).with_uid(now)).ok();
            }
        });
        assert_eq!(seq, split);
    }

    #[test]
    fn reunite_restores_residual_beats_and_stats() {
        let (mut up, mut down) = ports();
        let (mut parent, mut child) = AxiBridge::new(BridgeConfig::wire().latency(4)).split();
        up.ar.push(0, ArBeat::new(0x80, 1, BurstSize::B4)).unwrap();
        up.ar.push(1, ArBeat::new(0xC0, 1, BurstSize::B4)).unwrap();
        for t in 0..3 {
            parent.run_cycle(t, &mut down);
            child.run_cycle(t, &mut up);
        }
        let batch = child.take_batch();
        assert_eq!(batch.beats(), 2);
        parent.deliver(batch);
        child.deliver(parent.take_batch());
        // Mid-flight: both beats are inside the (split) stage.
        let mut bridge = AxiBridge::reunite(parent, child);
        assert!(!bridge.is_idle());
        // Entered at cycles 0 and 1 with latency 4: visible at 4 and 5.
        assert_eq!(bridge.next_event(), Some(4));
        bridge.transfer(4, &mut up, &mut down);
        assert_eq!(down.ar.pop_ready(4).expect("first beat").addr, 0x80);
        bridge.transfer(5, &mut up, &mut down);
        assert_eq!(down.ar.pop_ready(5).expect("second beat").addr, 0xC0);
        assert_eq!(bridge.stats().beats_down, 2);
    }

    #[test]
    #[should_panic(expected = "registered bridge")]
    fn wire_bridge_cannot_be_split() {
        let _ = AxiBridge::wire().split();
    }

    #[test]
    fn split_mid_stream_preserves_the_staged_schedule() {
        // A bridge split while beats are in flight (a sharded run
        // following a sequential one) must keep producing the exact
        // sequential schedule: the staged beats migrate into the
        // mirrors with their readiness cycles intact and the entry
        // gates start charged with their occupancy.
        let latency = 4u64;
        let cycles = 40u64;
        let split_at = 10u64;
        let feed = |now: u64, up: &mut AxiPort, down: &mut AxiPort| {
            if now.is_multiple_of(3) && now < 30 {
                up.ar
                    .push(now, ArBeat::new(0x200 + now, 1, BurstSize::B4))
                    .ok();
            }
            if now % 4 == 1 {
                down.r
                    .push(now, RBeat::new(AxiId(2), vec![0; 4], true))
                    .ok();
            }
        };
        let drain =
            |now: u64, up: &mut AxiPort, down: &mut AxiPort, log: &mut Vec<(u64, &'static str)>| {
                while down.ar.pop_ready(now).is_some() {
                    log.push((now, "ar"));
                }
                while up.r.pop_ready(now).is_some() {
                    log.push((now, "r"));
                }
            };

        // Sequential reference over the full horizon.
        let (mut up, mut down) = ports();
        let mut bridge = AxiBridge::new(BridgeConfig::wire().latency(latency));
        let mut seq_log = Vec::new();
        for now in 0..cycles {
            feed(now, &mut up, &mut down);
            bridge.transfer(now, &mut up, &mut down);
            drain(now, &mut up, &mut down, &mut seq_log);
        }

        // Sequential until `split_at`, then split mid-flight and run
        // window-synchronous to the end.
        let (mut up, mut down) = ports();
        let mut bridge = AxiBridge::new(BridgeConfig::wire().latency(latency));
        let mut log = Vec::new();
        for now in 0..split_at {
            feed(now, &mut up, &mut down);
            bridge.transfer(now, &mut up, &mut down);
            drain(now, &mut up, &mut down, &mut log);
        }
        assert!(!bridge.is_idle(), "test must split a non-quiescent bridge");
        let (mut parent, mut child) = bridge.split();
        let mut now = split_at;
        while now < cycles {
            let to = (now + latency).min(cycles);
            for t in now..to {
                feed(t, &mut up, &mut down);
                parent.run_cycle(t, &mut down);
                child.run_cycle(t, &mut up);
                drain(t, &mut up, &mut down, &mut log);
            }
            parent.deliver(child.take_batch());
            child.deliver(parent.take_batch());
            now = to;
        }
        assert_eq!(parent.ambiguous_stalls(), 0);
        assert_eq!(child.ambiguous_stalls(), 0);
        assert_eq!(seq_log, log);
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
