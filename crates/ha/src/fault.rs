//! Misbehaving bus masters for fault-injection experiments.
//!
//! The paper's hypervisor-level argument (§III, §V) is that an FPGA SoC
//! interconnect must stay predictable *even when an accelerator
//! misbehaves* — a buggy or malicious HA must not be able to take the
//! bus down or starve the other ports. These models deliberately break
//! the AXI rules a well-behaved master honors, one rule per model:
//!
//! * [`RogueReader`] — reads from addresses outside the decoded range;
//! * [`BoundaryViolator`] — INCR bursts that cross 4 KiB boundaries;
//! * [`WlastViolator`] — write data with WLAST in the wrong position;
//! * [`StalledWriter`] — posts write addresses, then never drives W;
//! * [`RunawayMaster`] — issues reads as fast as the port accepts them,
//!   ignoring any declared in-flight envelope.
//!
//! All of them keep consuming responses (except where hanging *is* the
//! fault), so the misbehavior under test is isolated.
//!
//! Every model also implements [`Accelerator::reset`] for the recovery
//! experiments: by default a reset *cures* the fault (the model either
//! goes quiet or, where it makes sense, resumes protocol-compliant
//! operation), while the `permanent()` builder makes the fault survive
//! resets — the path that drives a recovery campaign into permanent
//! quarantine.

use axi::types::{AxiId, BurstSize};
use axi::{ArBeat, AwBeat, AxiPort, WBeat};
use sim::Cycle;

use crate::Accelerator;

/// A master that reads from addresses beyond the decoded range, so
/// every burst earns a DECERR. Models a misprogrammed DMA pointer or a
/// malicious scatter list.
#[derive(Debug)]
pub struct RogueReader {
    name: String,
    /// First illegal address to read (caller picks something at or past
    /// the memory's decode limit).
    rogue_base: u64,
    burst_beats: u32,
    size: BurstSize,
    max_outstanding: u32,
    outstanding: u32,
    next_tag: u64,
    bursts_completed: u64,
    error_responses: u64,
    permanent: bool,
    cured: bool,
    resets: u64,
}

impl RogueReader {
    /// Creates a rogue reader issuing `burst_beats`-beat bursts at
    /// `rogue_base` (an address the caller knows is not decoded).
    pub fn new(
        name: impl Into<String>,
        rogue_base: u64,
        burst_beats: u32,
        size: BurstSize,
    ) -> Self {
        Self {
            name: name.into(),
            rogue_base,
            burst_beats: burst_beats.max(1),
            size,
            max_outstanding: 2,
            outstanding: 0,
            next_tag: 0,
            bursts_completed: 0,
            error_responses: 0,
            permanent: false,
            cured: false,
            resets: 0,
        }
    }

    /// Makes the fault survive resets (broken hardware, not a
    /// recoverable glitch).
    pub fn permanent(mut self) -> Self {
        self.permanent = true;
        self
    }

    /// Error responses (SLVERR/DECERR) observed on completed bursts.
    pub fn error_responses(&self) -> u64 {
        self.error_responses
    }

    /// Resets this model has been through.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

impl Accelerator for RogueReader {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        let mut progress = false;
        if !self.cured && self.outstanding < self.max_outstanding && !port.ar.is_full() {
            let beat = ArBeat::new(self.rogue_base, self.burst_beats, self.size)
                .with_id(AxiId(0xE0))
                .with_tag(self.next_tag)
                .with_issued_at(now);
            port.ar.push(now, beat).expect("checked space");
            self.next_tag += 1;
            self.outstanding += 1;
            progress = true;
        }
        while let Some(beat) = port.r.pop_ready(now) {
            if !beat.resp.is_ok() {
                self.error_responses += 1;
            }
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
        // Purely reactive: issues whenever the port has space, otherwise
        // waits on responses — both covered by the interconnect's hint.
        None
    }

    fn reset(&mut self) {
        self.resets += 1;
        self.outstanding = 0;
        self.cured = !self.permanent;
    }

    sim::persist_state! {
        RogueReader {
            outstanding,
            next_tag,
            bursts_completed,
            error_responses,
            permanent,
            cured,
            resets,
        }
        skip "construction-time configuration" {
            name, rogue_base, burst_beats, size, max_outstanding
        }
    }
}

/// A master whose INCR read bursts straddle 4 KiB boundaries — the AXI
/// rule every compliant master must honor (A3.4.1). Models a burst
/// engine missing its boundary-clamp logic.
#[derive(Debug)]
pub struct BoundaryViolator {
    name: String,
    base: u64,
    burst_beats: u32,
    size: BurstSize,
    outstanding: u32,
    next_tag: u64,
    bursts_completed: u64,
    permanent: bool,
    cured: bool,
    resets: u64,
}

impl BoundaryViolator {
    /// Creates a violator anchored near the end of the 4 KiB page that
    /// contains `base` — each burst starts `burst_beats / 2` beats
    /// before the boundary, guaranteeing a crossing.
    pub fn new(name: impl Into<String>, base: u64, burst_beats: u32, size: BurstSize) -> Self {
        let beats = burst_beats.max(2);
        let page_end = (base | 0xFFF) + 1;
        let start = page_end - (beats as u64 / 2) * size.bytes();
        Self {
            name: name.into(),
            base: start,
            burst_beats: beats,
            size,
            outstanding: 0,
            next_tag: 0,
            bursts_completed: 0,
            permanent: false,
            cured: false,
            resets: 0,
        }
    }

    /// Makes the fault survive resets.
    pub fn permanent(mut self) -> Self {
        self.permanent = true;
        self
    }

    /// Resets this model has been through.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

impl Accelerator for BoundaryViolator {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        let mut progress = false;
        if !self.cured && self.outstanding < 1 && !port.ar.is_full() {
            let beat = ArBeat::new(self.base, self.burst_beats, self.size)
                .with_id(AxiId(0xE1))
                .with_tag(self.next_tag)
                .with_issued_at(now);
            port.ar.push(now, beat).expect("checked space");
            self.next_tag += 1;
            self.outstanding += 1;
            progress = true;
        }
        while let Some(beat) = port.r.pop_ready(now) {
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
        // Purely reactive: issues whenever the port has space, otherwise
        // waits on responses — both covered by the interconnect's hint.
        None
    }

    fn reset(&mut self) {
        self.resets += 1;
        self.outstanding = 0;
        self.cured = !self.permanent;
    }

    sim::persist_state! {
        BoundaryViolator { outstanding, next_tag, bursts_completed, permanent, cured, resets }
        skip "construction-time configuration" { name, base, burst_beats, size }
    }
}

/// A writer that supplies the right number of W beats but asserts WLAST
/// in the wrong place: one beat early, and never on the true final
/// beat. Models an off-by-one in a streaming pipeline's end-of-frame
/// logic.
#[derive(Debug)]
pub struct WlastViolator {
    name: String,
    base: u64,
    burst_beats: u32,
    size: BurstSize,
    /// Beats of the current burst still to drive (0 = need a new AW).
    w_left: u32,
    in_flight: bool,
    next_tag: u64,
    bursts_completed: u64,
    permanent: bool,
    cured: bool,
    resets: u64,
}

impl WlastViolator {
    /// Creates a WLAST violator writing `burst_beats`-beat bursts at
    /// `base` (at least 2 beats, so "one early" is distinct from the
    /// real end).
    pub fn new(name: impl Into<String>, base: u64, burst_beats: u32, size: BurstSize) -> Self {
        Self {
            name: name.into(),
            base,
            burst_beats: burst_beats.max(2),
            size,
            w_left: 0,
            in_flight: false,
            next_tag: 0,
            bursts_completed: 0,
            permanent: false,
            cured: false,
            resets: 0,
        }
    }

    /// Makes the fault survive resets.
    pub fn permanent(mut self) -> Self {
        self.permanent = true;
        self
    }

    /// Resets this model has been through.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

impl Accelerator for WlastViolator {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        let mut progress = false;
        if !self.in_flight && !port.aw.is_full() {
            let beat = AwBeat::new(self.base, self.burst_beats, self.size)
                .with_id(AxiId(0xE2))
                .with_tag(self.next_tag)
                .with_issued_at(now);
            port.aw.push(now, beat).expect("checked space");
            self.next_tag += 1;
            self.w_left = self.burst_beats;
            self.in_flight = true;
            progress = true;
        }
        if self.w_left > 0 && !port.w.is_full() {
            // The bug: LAST goes on the second-to-last beat instead of
            // the last one. A cured model places it correctly — this is
            // the one fault master that resumes nominal operation after
            // a recovery reset instead of going quiet.
            let last = if self.cured {
                self.w_left == 1
            } else {
                self.w_left == 2
            };
            let beat = WBeat::new(
                axi::Payload::from_fn(self.size.bytes() as usize, |_| 0xAB),
                last,
            );
            port.w.push(now, beat).expect("checked space");
            self.w_left -= 1;
            progress = true;
        }
        while let Some(_b) = port.b.pop_ready(now) {
            self.in_flight = false;
            self.bursts_completed += 1;
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
        // Purely reactive: issues whenever the port has space, otherwise
        // waits on responses — both covered by the interconnect's hint.
        None
    }

    fn reset(&mut self) {
        self.resets += 1;
        self.w_left = 0;
        self.in_flight = false;
        self.cured = !self.permanent;
    }

    sim::persist_state! {
        WlastViolator {
            w_left,
            in_flight,
            next_tag,
            bursts_completed,
            permanent,
            cured,
            resets,
        }
        skip "construction-time configuration" { name, base, burst_beats, size }
    }
}

/// A writer that posts a write address and then never drives a single W
/// beat — the classic hung-handshake fault that wedges an unprotected
/// interconnect (the granted write blocks every later write at the
/// arbiter). Models a crashed accelerator kernel.
#[derive(Debug)]
pub struct StalledWriter {
    name: String,
    base: u64,
    burst_beats: u32,
    size: BurstSize,
    posted: bool,
    permanent: bool,
    cured: bool,
    resets: u64,
}

impl StalledWriter {
    /// Creates a stalled writer that will post one `burst_beats`-beat
    /// write address at `base` and then hang forever.
    pub fn new(name: impl Into<String>, base: u64, burst_beats: u32, size: BurstSize) -> Self {
        Self {
            name: name.into(),
            base,
            burst_beats: burst_beats.max(1),
            size,
            posted: false,
            permanent: false,
            cured: false,
            resets: 0,
        }
    }

    /// Makes the fault survive resets: the model re-posts its hung
    /// write address after every reset.
    pub fn permanent(mut self) -> Self {
        self.permanent = true;
        self
    }

    /// Resets this model has been through.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

impl Accelerator for StalledWriter {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        if !self.cured && !self.posted && !port.aw.is_full() {
            let beat = AwBeat::new(self.base, self.burst_beats, self.size)
                .with_id(AxiId(0xE3))
                .with_issued_at(now);
            port.aw.push(now, beat).expect("checked space");
            self.posted = true;
            return true;
        }
        // Never drives W; drains nothing. The hang is the workload.
        false
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn is_done(&self) -> bool {
        false
    }

    fn jobs_completed(&self) -> u64 {
        0
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        // Purely reactive: issues whenever the port has space, otherwise
        // waits on responses — both covered by the interconnect's hint.
        None
    }

    fn reset(&mut self) {
        self.resets += 1;
        // Clearing `posted` lets a *permanent* model re-post its hung
        // AW after reattach; a cured one stays quiet (the issue gate).
        self.posted = false;
        self.cured = !self.permanent;
    }

    sim::persist_state! {
        StalledWriter { posted, permanent, cured, resets }
        skip "construction-time configuration" { name, base, burst_beats, size }
    }
}

/// A master that issues read bursts every cycle the port accepts one,
/// with no self-imposed outstanding limit — a runaway issue rate that
/// blows through any in-flight envelope the accelerator declared to the
/// hypervisor. Models a control-loop bug re-triggering a DMA
/// descriptor.
#[derive(Debug)]
pub struct RunawayMaster {
    name: String,
    base: u64,
    region_bytes: u64,
    burst_beats: u32,
    size: BurstSize,
    cursor: u64,
    next_tag: u64,
    bursts_completed: u64,
    permanent: bool,
    cured: bool,
    resets: u64,
}

impl RunawayMaster {
    /// Creates a runaway reader sweeping `region_bytes` at `base`.
    pub fn new(
        name: impl Into<String>,
        base: u64,
        region_bytes: u64,
        burst_beats: u32,
        size: BurstSize,
    ) -> Self {
        let beats = burst_beats.max(1);
        Self {
            name: name.into(),
            base,
            region_bytes: region_bytes.max(beats as u64 * size.bytes()),
            burst_beats: beats,
            size,
            cursor: 0,
            next_tag: 0,
            bursts_completed: 0,
            permanent: false,
            cured: false,
            resets: 0,
        }
    }

    /// Makes the fault survive resets.
    pub fn permanent(mut self) -> Self {
        self.permanent = true;
        self
    }

    /// Resets this model has been through.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

impl Accelerator for RunawayMaster {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        let mut progress = false;
        // No outstanding check at all: push until the queue refuses.
        while !self.cured && !port.ar.is_full() {
            let addr = self.base + self.cursor;
            let beat = ArBeat::new(addr, self.burst_beats, self.size)
                .with_id(AxiId(0xE4))
                .with_tag(self.next_tag)
                .with_issued_at(now);
            port.ar.push(now, beat).expect("checked space");
            self.next_tag += 1;
            self.cursor =
                (self.cursor + self.burst_beats as u64 * self.size.bytes()) % self.region_bytes;
            progress = true;
        }
        while let Some(beat) = port.r.pop_ready(now) {
            if beat.last {
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
        // Purely reactive: issues whenever the port has space, otherwise
        // waits on responses — both covered by the interconnect's hint.
        None
    }

    fn reset(&mut self) {
        self.resets += 1;
        self.cursor = 0;
        self.cured = !self.permanent;
    }

    sim::persist_state! {
        RunawayMaster { cursor, next_tag, bursts_completed, permanent, cured, resets }
        skip "construction-time configuration" { name, base, region_bytes, burst_beats, size }
    }
}

/// A fault model that stays dormant until an arm cycle, then behaves
/// exactly like the wrapped model — the building block of the forking
/// chaos campaign service: a scenario is warmed fault-free to a common
/// snapshot point, and each forked variant arms the fault at its own
/// seed-derived cycle.
///
/// The arm cycle is *configuration*, like a scheduler mode: it is not
/// part of the persisted state stream, so a snapshot taken while the
/// fault is dormant restores into a wrapper constructed with any other
/// arm cycle. Two variants forked from the same warm snapshot therefore
/// share byte-identical state and differ only in when the inner model
/// first ticks.
pub struct DelayedFault {
    inner: Box<dyn Accelerator>,
    arm_at: Cycle,
}

impl DelayedFault {
    /// Wraps `inner`, keeping it dormant until cycle `arm_at`.
    pub fn new(inner: Box<dyn Accelerator>, arm_at: Cycle) -> Self {
        Self { inner, arm_at }
    }
}

impl std::fmt::Debug for DelayedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelayedFault")
            .field("inner", &self.inner.name())
            .field("arm_at", &self.arm_at)
            .finish()
    }
}

impl Accelerator for DelayedFault {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        if now < self.arm_at {
            return false;
        }
        self.inner.tick(now, port)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn jobs_completed(&self) -> u64 {
        self.inner.jobs_completed()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if now < self.arm_at {
            // Dormant: nothing can happen before the arm cycle.
            return Some(self.arm_at);
        }
        self.inner.next_event(now)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    /// Only the wrapped model's state travels — `arm_at` is
    /// configuration, re-supplied at construction by whoever restores.
    fn save_state(&self, w: &mut sim::persist::SnapshotWriter) {
        self.inner.save_state(w);
    }

    fn restore_state(
        &mut self,
        r: &mut sim::persist::SnapshotReader<'_>,
    ) -> Result<(), sim::persist::PersistError> {
        self.inner.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi::burst::crosses_4k;

    #[test]
    fn delayed_fault_is_dormant_then_faithful() {
        let mut delayed = DelayedFault::new(
            Box::new(StalledWriter::new("stall", 0x100, 8, BurstSize::B4)),
            10,
        );
        let mut port = AxiPort::new(axi::PortConfig::wire());
        for now in 0..10 {
            assert!(!delayed.tick(now, &mut port));
        }
        assert!(port.aw.pop_ready(9).is_none(), "dormant fault is silent");
        assert_eq!(delayed.next_event(5), Some(10));
        delayed.tick(10, &mut port);
        assert!(port.aw.pop_ready(10).is_some(), "armed fault posts its AW");
    }

    #[test]
    fn delayed_fault_state_is_arm_cycle_independent() {
        use sim::persist::{SnapshotReader, SnapshotWriter};
        let early = DelayedFault::new(
            Box::new(RogueReader::new("rogue", 0x8000_0000, 4, BurstSize::B4)),
            100,
        );
        let mut w = SnapshotWriter::new();
        early.save_state(&mut w);
        let bytes = w.into_bytes();
        // A wrapper with a different arm cycle accepts the stream.
        let mut late = DelayedFault::new(
            Box::new(RogueReader::new("rogue", 0x8000_0000, 4, BurstSize::B4)),
            5_000,
        );
        late.restore_state(&mut SnapshotReader::new(&bytes))
            .unwrap();
        assert_eq!(late.arm_at, 5_000);
        let mut w2 = SnapshotWriter::new();
        late.save_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "state stream is arm-independent");
    }

    #[test]
    fn rogue_reader_targets_its_rogue_base() {
        let mut rogue = RogueReader::new("rogue", 0x8000_0000, 4, BurstSize::B4);
        let mut port = AxiPort::new(axi::PortConfig::wire());
        rogue.tick(0, &mut port);
        let ar = port.ar.pop_ready(0).unwrap();
        assert_eq!(ar.addr, 0x8000_0000);
        // An error response is counted.
        port.r
            .push(
                0,
                axi::RBeat::new(ar.id, vec![0; 4], true).with_resp(axi::types::Resp::DecErr),
            )
            .unwrap();
        rogue.tick(1, &mut port);
        assert_eq!(rogue.error_responses(), 1);
        assert_eq!(rogue.jobs_completed(), 1);
    }

    #[test]
    fn boundary_violator_always_crosses() {
        let mut bad = BoundaryViolator::new("cross", 0x10_0000, 16, BurstSize::B4);
        let mut port = AxiPort::new(axi::PortConfig::wire());
        bad.tick(0, &mut port);
        let ar = port.ar.pop_ready(0).unwrap();
        assert!(crosses_4k(ar.addr, ar.len, ar.size), "{:#x}", ar.addr);
    }

    #[test]
    fn wlast_violator_marks_wrong_beat() {
        let mut bad = WlastViolator::new("wlast", 0, 4, BurstSize::B4);
        let mut port = AxiPort::new(axi::PortConfig::wire());
        for now in 0..8 {
            bad.tick(now, &mut port);
        }
        assert!(port.aw.pop_ready(8).is_some());
        let lasts: Vec<bool> = std::iter::from_fn(|| port.w.pop_ready(8))
            .map(|w| w.last)
            .collect();
        // 4 beats, LAST on the third (one early), none on the fourth.
        assert_eq!(lasts, vec![false, false, true, false]);
    }

    #[test]
    fn stalled_writer_posts_aw_and_nothing_else() {
        let mut bad = StalledWriter::new("stall", 0x100, 8, BurstSize::B4);
        let mut port = AxiPort::new(axi::PortConfig::wire());
        for now in 0..50 {
            bad.tick(now, &mut port);
        }
        assert!(port.aw.pop_ready(50).is_some());
        assert!(port.aw.pop_ready(50).is_none(), "only one AW");
        assert!(port.w.pop_ready(50).is_none(), "never drives W");
    }

    #[test]
    fn runaway_fills_the_address_queue() {
        let mut bad = RunawayMaster::new("runaway", 0, 1 << 16, 4, BurstSize::B4);
        let mut port = AxiPort::new(axi::PortConfig::wire());
        bad.tick(0, &mut port);
        assert!(port.ar.is_full(), "pushes until the port refuses");
    }

    #[test]
    fn reset_cures_a_stalled_writer() {
        let mut bad = StalledWriter::new("stall", 0x100, 8, BurstSize::B4);
        let mut port = AxiPort::new(axi::PortConfig::wire());
        bad.tick(0, &mut port);
        assert!(port.aw.pop_ready(0).is_some());
        bad.reset();
        assert_eq!(bad.resets(), 1);
        for now in 1..20 {
            bad.tick(now, &mut port);
        }
        assert!(port.aw.pop_ready(20).is_none(), "cured model goes quiet");
    }

    #[test]
    fn permanent_stalled_writer_reposts_after_reset() {
        let mut bad = StalledWriter::new("stall", 0x100, 8, BurstSize::B4).permanent();
        let mut port = AxiPort::new(axi::PortConfig::wire());
        bad.tick(0, &mut port);
        assert!(port.aw.pop_ready(0).is_some());
        bad.reset();
        bad.tick(1, &mut port);
        assert!(
            port.aw.pop_ready(1).is_some(),
            "permanent fault re-posts its hung AW"
        );
    }

    #[test]
    fn reset_makes_wlast_violator_protocol_compliant() {
        let mut bad = WlastViolator::new("wlast", 0, 4, BurstSize::B4);
        bad.reset();
        assert_eq!(bad.resets(), 1);
        let mut port = AxiPort::new(axi::PortConfig::wire());
        for now in 0..8 {
            bad.tick(now, &mut port);
        }
        assert!(port.aw.pop_ready(8).is_some());
        let lasts: Vec<bool> = std::iter::from_fn(|| port.w.pop_ready(8))
            .map(|w| w.last)
            .collect();
        // Cured: LAST lands on the true final beat.
        assert_eq!(lasts, vec![false, false, false, true]);
    }

    #[test]
    fn permanent_faults_survive_reset() {
        let mut rogue = RogueReader::new("rogue", 0x8000_0000, 4, BurstSize::B4).permanent();
        rogue.reset();
        let mut port = AxiPort::new(axi::PortConfig::wire());
        rogue.tick(0, &mut port);
        assert!(
            port.ar.pop_ready(0).is_some(),
            "permanently broken reader keeps issuing rogue reads"
        );

        let mut runaway = RunawayMaster::new("runaway", 0, 1 << 16, 4, BurstSize::B4);
        runaway.reset();
        let mut port = AxiPort::new(axi::PortConfig::wire());
        runaway.tick(0, &mut port);
        assert!(
            port.ar.pop_ready(0).is_none(),
            "cured runaway stops issuing"
        );
    }
}
