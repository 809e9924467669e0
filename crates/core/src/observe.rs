//! Runtime worst-case-bound monitor.
//!
//! The [`BoundMonitor`] cross-checks every completed sub-transaction
//! against the closed-form worst-case bounds of [`crate::analysis`]
//! *while the simulation runs*: service bounds (staged-to-complete
//! latency must not exceed [`ServiceModel::worst_case_staged_read_latency`]
//! / [`ServiceModel::worst_case_staged_write_latency`]) and propagation
//! bounds (a beat cannot cross the fixed-latency fabric *faster* than
//! its pipeline depth — if it does, the model itself is broken).
//!
//! # Soundness assumptions
//!
//! The service bounds assume the fabric is in its analyzed
//! configuration: round-robin arbitration, no decoupled ports dropping
//! traffic mid-flight, masters that drain R beats promptly, and no
//! bandwidth-reservation throttling *after* staging. The TS gates
//! staging on budget availability, so measuring from the `TsStaged` hop
//! excludes reservation stalls by construction. A write's clock starts
//! at `max(AW staged, last W beat at the TS)`: masters may legally
//! issue AW long before producing the data (the AXI DMA does), and the
//! interconnect cannot be charged for cycles where it had nothing to
//! forward. Arm the monitor before traffic starts — pairing W-data
//! times with AW subs relies on seeing every hop — and only in
//! scenarios that satisfy these assumptions (the fault-injection
//! scenarios deliberately violate them).

use std::collections::VecDeque;

use axi::observe::{
    port_of_uid, BoundKind, BoundReport, BoundViolation, Hop, MetricsRegistry, ObsChannel, ObsEvent,
};
use sim::Cycle;

use crate::analysis::{propagation, RegulationCap, ServiceModel};

/// Checks observed per-transaction latencies against the closed-form
/// worst-case bounds, recording a [`BoundViolation`] (with the full hop
/// history) whenever simulation and analysis disagree.
#[derive(Debug)]
pub struct BoundMonitor {
    model: ServiceModel,
    read_bound: u64,
    write_bound: u64,
    /// Per-port read bound actually enforced: the global bound, or the
    /// tighter regulated bound while [`Self::arm_regulation`] reports a
    /// competitor rate-capped below saturation.
    port_read_bounds: Vec<u64>,
    /// Per-port write bound actually enforced (see `port_read_bounds`).
    port_write_bounds: Vec<u64>,
    /// Per-port `(uid, staged_cycle)` of reads awaiting completion.
    /// Per-port completion is FIFO: memory serves in order and the
    /// EXBAR routes responses in grant order.
    pending_reads: Vec<VecDeque<(u64, Cycle)>>,
    /// Per-port `(uid, staged_cycle)` of writes awaiting their B.
    pending_writes: Vec<VecDeque<(u64, Cycle)>>,
    /// Per-port cycles at which each write sub's *last W beat* reached
    /// the TS stage (same FIFO order as `pending_writes`: AXI forbids W
    /// interleaving, so the k-th W-last belongs to the k-th AW sub). A
    /// write's service clock starts at `max(staged, data_ready)` — the
    /// interconnect cannot serve a write whose data the master has not
    /// produced yet, and the bound does not cover master-side lag.
    w_ready: Vec<VecDeque<Cycle>>,
    violations: Vec<BoundViolation>,
    checked_reads: u64,
    checked_writes: u64,
    worst_read: u64,
    worst_write: u64,
}

impl BoundMonitor {
    /// Creates a monitor enforcing the bounds of `model`.
    pub fn new(model: ServiceModel) -> Self {
        let n = model.num_ports;
        let read_bound = model.worst_case_staged_read_latency();
        let write_bound = model.worst_case_staged_write_latency();
        Self {
            model,
            read_bound,
            write_bound,
            port_read_bounds: vec![read_bound; n],
            port_write_bounds: vec![write_bound; n],
            pending_reads: vec![VecDeque::new(); n],
            pending_writes: vec![VecDeque::new(); n],
            w_ready: vec![VecDeque::new(); n],
            violations: Vec::new(),
            checked_reads: 0,
            checked_writes: 0,
            worst_read: 0,
            worst_write: 0,
        }
    }

    /// The read service bound being enforced, in cycles.
    pub fn read_bound(&self) -> u64 {
        self.read_bound
    }

    /// The write service bound being enforced, in cycles.
    pub fn write_bound(&self) -> u64 {
        self.write_bound
    }

    /// The read bound currently enforced for `port` — tighter than
    /// [`Self::read_bound`] while competitor regulation is armed.
    pub fn port_read_bound(&self, port: usize) -> u64 {
        self.port_read_bounds
            .get(port)
            .copied()
            .unwrap_or(self.read_bound)
    }

    /// The write bound currently enforced for `port` (see
    /// [`Self::port_read_bound`]).
    fn port_write_bound(&self, port: usize) -> u64 {
        self.port_write_bounds
            .get(port)
            .copied()
            .unwrap_or(self.write_bound)
    }

    /// Re-derives the per-port bounds from the current regulation state
    /// (`caps[j]` = port `j`'s regulation, `None` = unregulated). The
    /// interconnect calls this whenever the regulator registers may
    /// have changed (config-generation bumps), so a port's bound
    /// tightens automatically the moment a competitor is rate-capped
    /// and relaxes back when the cap is lifted. With every entry `None`
    /// the per-port bounds equal the global ones.
    ///
    /// Bounds only ever *tighten relative to the global bound*; already
    /// in-flight transactions are judged against the bound armed at
    /// completion time, which is the standard monitor convention (the
    /// caps are scheduler-invariant at any given cycle, so verdicts are
    /// byte-identical across schedulers).
    pub fn arm_regulation(&mut self, caps: &[Option<RegulationCap>]) {
        if caps.len() != self.model.num_ports {
            return;
        }
        for p in 0..self.model.num_ports {
            self.port_read_bounds[p] = self.model.regulated_staged_read_latency(caps, p);
            self.port_write_bounds[p] = self.model.regulated_staged_write_latency(caps, p);
        }
    }

    /// Violations recorded so far, in detection order.
    pub fn violations(&self) -> &[BoundViolation] {
        &self.violations
    }

    /// Summary of the monitor's activity.
    pub fn report(&self) -> BoundReport {
        BoundReport {
            checked_reads: self.checked_reads,
            checked_writes: self.checked_writes,
            violations: self.violations.len() as u64,
            read_bound: self.read_bound,
            write_bound: self.write_bound,
            worst_read: self.worst_read,
            worst_write: self.worst_write,
        }
    }

    fn file(&mut self, mut violation: BoundViolation, registry: &MetricsRegistry) {
        violation.hops = registry.hops_of(violation.uid);
        self.violations.push(violation);
    }

    /// Checks a propagation *lower* bound: a beat that crossed the
    /// fabric in fewer cycles than its fixed pipeline depth means the
    /// model dropped a register stage somewhere.
    fn check_propagation(
        &mut self,
        kind: BoundKind,
        floor: u64,
        port: usize,
        ev: &ObsEvent,
        registry: &MetricsRegistry,
    ) {
        // Visible one queue-latency after the push: same convention as
        // the registry's channel-latency aggregates.
        let observed = (ev.cycle + 1).saturating_sub(ev.ref_cycle);
        if observed < floor {
            self.file(
                BoundViolation {
                    kind,
                    port,
                    uid: ev.uid,
                    observed,
                    bound: floor,
                    cycle: ev.cycle,
                    hops: Vec::new(),
                },
                registry,
            );
        }
    }

    /// Folds one hop event into the monitor. `registry` supplies the
    /// hop history attached to any violation filed.
    pub fn on_event(&mut self, ev: &ObsEvent, registry: &MetricsRegistry) {
        match ev.hop {
            Hop::TsStaged => {
                let port = ev.port.unwrap_or_else(|| port_of_uid(ev.uid));
                if port >= self.pending_reads.len() {
                    return;
                }
                match ev.channel {
                    ObsChannel::Ar => self.pending_reads[port].push_back((ev.uid, ev.cycle)),
                    ObsChannel::Aw => self.pending_writes[port].push_back((ev.uid, ev.cycle)),
                    ObsChannel::W if ev.sub_end => self.w_ready[port].push_back(ev.cycle),
                    _ => {}
                }
            }
            Hop::MemVisible => match ev.channel {
                ObsChannel::Ar => {
                    let port = port_of_uid(ev.uid);
                    self.check_propagation(
                        BoundKind::ArPropagation,
                        propagation::D_AR,
                        port,
                        ev,
                        registry,
                    );
                }
                ObsChannel::Aw => {
                    let port = port_of_uid(ev.uid);
                    self.check_propagation(
                        BoundKind::AwPropagation,
                        propagation::D_AW,
                        port,
                        ev,
                        registry,
                    );
                }
                ObsChannel::W => {
                    let port = ev.port.unwrap_or(0);
                    self.check_propagation(
                        BoundKind::WPropagation,
                        propagation::D_W,
                        port,
                        ev,
                        registry,
                    );
                }
                _ => {}
            },
            Hop::Delivered => match ev.channel {
                ObsChannel::R => {
                    let port = ev.port.unwrap_or_else(|| port_of_uid(ev.uid));
                    self.check_propagation(
                        BoundKind::RPropagation,
                        propagation::D_R,
                        port,
                        ev,
                        registry,
                    );
                    if ev.sub_end {
                        self.complete_read(port, ev, registry);
                    }
                }
                ObsChannel::B => {
                    let port = ev.port.unwrap_or_else(|| port_of_uid(ev.uid));
                    if ev.txn_end {
                        // Merged (non-final) B responses are absorbed at
                        // the TS and never traverse the slave eFIFO, so
                        // only the final one carries the full D_B path.
                        self.check_propagation(
                            BoundKind::BPropagation,
                            propagation::D_B,
                            port,
                            ev,
                            registry,
                        );
                    }
                    self.complete_write(port, ev, registry);
                }
                _ => {}
            },
            Hop::Dropped if ev.sub_end => {
                // A staged sub was force-flushed: retire its pending
                // service clock so later completions pair correctly.
                // Dropped subs are the most recently staged entries of
                // their uid (granted ones staged earlier), so remove
                // from the back.
                let port = ev.port.unwrap_or_else(|| port_of_uid(ev.uid));
                if port >= self.pending_reads.len() {
                    return;
                }
                match ev.channel {
                    ObsChannel::Ar => {
                        if let Some(pos) = self.pending_reads[port]
                            .iter()
                            .rposition(|&(uid, _)| uid == ev.uid)
                        {
                            self.pending_reads[port].remove(pos);
                        }
                    }
                    ObsChannel::Aw => {
                        if let Some(pos) = self.pending_writes[port]
                            .iter()
                            .rposition(|&(uid, _)| uid == ev.uid)
                        {
                            self.pending_writes[port].remove(pos);
                        }
                        // With no writes pending, any data-ready stamps
                        // left behind are orphans of flushed writes.
                        if self.pending_writes[port].is_empty() {
                            self.w_ready[port].clear();
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn complete_read(&mut self, port: usize, ev: &ObsEvent, registry: &MetricsRegistry) {
        if port >= self.pending_reads.len() {
            return;
        }
        // Guard against completions the monitor never saw staged (armed
        // mid-run): skip rather than misattribute.
        let Some((uid, staged)) = self.pending_reads[port].pop_front() else {
            return;
        };
        let observed = ev.cycle.saturating_sub(staged);
        self.checked_reads += 1;
        self.worst_read = self.worst_read.max(observed);
        let bound = self.port_read_bound(port);
        if observed > bound {
            self.file(
                BoundViolation {
                    kind: BoundKind::ReadService,
                    port,
                    uid,
                    observed,
                    bound,
                    cycle: ev.cycle,
                    hops: Vec::new(),
                },
                registry,
            );
        }
    }

    fn complete_write(&mut self, port: usize, ev: &ObsEvent, registry: &MetricsRegistry) {
        if port >= self.pending_writes.len() {
            return;
        }
        let Some((uid, staged)) = self.pending_writes[port].pop_front() else {
            return;
        };
        // Completed writes always had their data; a missing entry only
        // happens when the monitor was armed mid-run.
        let data_ready = self.w_ready[port].pop_front().unwrap_or(staged);
        let observed = ev.cycle.saturating_sub(staged.max(data_ready));
        self.checked_writes += 1;
        self.worst_write = self.worst_write.max(observed);
        let bound = self.port_write_bound(port);
        if observed > bound {
            self.file(
                BoundViolation {
                    kind: BoundKind::WriteService,
                    port,
                    uid,
                    observed,
                    bound,
                    cycle: ev.cycle,
                    hops: Vec::new(),
                },
                registry,
            );
        }
    }
}

// The analytic model and derived global bounds are persisted along with
// the live matching state, so a restored monitor files the same verdicts
// against the same bounds as the uninterrupted one.
sim::persist_fields!(BoundMonitor {
    model,
    read_bound,
    write_bound,
    port_read_bounds,
    port_write_bounds,
    pending_reads,
    pending_writes,
    w_ready,
    violations,
    checked_reads,
    checked_writes,
    worst_read,
    worst_write,
} check |monitor| {
    let n = monitor.model.num_ports;
    if monitor.port_read_bounds.len() != n
        || monitor.port_write_bounds.len() != n
        || monitor.pending_reads.len() != n
        || monitor.pending_writes.len() != n
        || monitor.w_ready.len() != n
    {
        return Err(sim::persist::PersistError::Corrupt(
            "bound monitor port shape",
        ));
    }
});

#[cfg(test)]
mod tests {
    use super::*;
    use axi::observe::uid_of;

    fn ev(
        uid: u64,
        port: Option<usize>,
        channel: ObsChannel,
        hop: Hop,
        cycle: Cycle,
        ref_cycle: Cycle,
    ) -> ObsEvent {
        ObsEvent {
            uid,
            port,
            channel,
            hop,
            cycle,
            ref_cycle,
            bytes: 0,
            sub_end: true,
            txn_end: true,
        }
    }

    fn monitor() -> (BoundMonitor, MetricsRegistry) {
        // 2 ports, 16-beat nominal, 22-cycle memory: read bound
        // (2*2*4 - 1 + 1) * 16 + 38 + 6 = 300.
        let model = ServiceModel::hyperconnect(2, 16, 22);
        (BoundMonitor::new(model), MetricsRegistry::new(2))
    }

    #[test]
    fn in_bound_read_is_clean() {
        let (mut m, reg) = monitor();
        let uid = uid_of(0, 1);
        m.on_event(
            &ev(uid, Some(0), ObsChannel::Ar, Hop::TsStaged, 10, 8),
            &reg,
        );
        m.on_event(
            &ev(uid, Some(0), ObsChannel::R, Hop::Delivered, 60, 58),
            &reg,
        );
        assert!(m.violations().is_empty());
        let rep = m.report();
        assert_eq!(rep.checked_reads, 1);
        assert_eq!(rep.worst_read, 50);
        assert_eq!(rep.read_bound, 300);
    }

    #[test]
    fn service_overrun_is_filed_with_bound() {
        let (mut m, reg) = monitor();
        let uid = uid_of(1, 1);
        m.on_event(
            &ev(uid, Some(1), ObsChannel::Ar, Hop::TsStaged, 10, 8),
            &reg,
        );
        m.on_event(
            &ev(uid, Some(1), ObsChannel::R, Hop::Delivered, 10 + 301, 309),
            &reg,
        );
        assert_eq!(m.violations().len(), 1);
        let v = &m.violations()[0];
        assert_eq!(v.kind, BoundKind::ReadService);
        assert_eq!(v.port, 1);
        assert_eq!(v.observed, 301);
        assert_eq!(v.bound, 300);
    }

    #[test]
    fn armed_regulation_enforces_the_tighter_per_port_bound() {
        let (mut m, reg) = monitor();
        // Port 1 capped at 1 outstanding sub: port 0's read bound drops
        // from 300 to (2*4-1 + 1 + 1) * 16 + 38 + 6 = 188.
        let caps = [
            None,
            Some(RegulationCap {
                rate: None,
                burst: 1,
                out_cap: Some(1),
            }),
        ];
        m.arm_regulation(&caps);
        assert_eq!(m.port_read_bound(0), 188);
        assert!(m.port_read_bound(0) < m.read_bound());
        // The regulated port itself keeps competitor-derived bounds:
        // port 1 faces the unregulated port 0, so its bound stays 300.
        assert_eq!(m.port_read_bound(1), 300);
        // A latency legal under the global bound but over the tightened
        // one is now a violation, filed against the tightened bound.
        let uid = uid_of(0, 1);
        m.on_event(
            &ev(uid, Some(0), ObsChannel::Ar, Hop::TsStaged, 10, 8),
            &reg,
        );
        m.on_event(
            &ev(uid, Some(0), ObsChannel::R, Hop::Delivered, 10 + 250, 258),
            &reg,
        );
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.violations()[0].bound, 188);
        assert_eq!(m.violations()[0].observed, 250);
        // Lifting the regulation relaxes back to the global bound.
        m.arm_regulation(&[None, None]);
        assert_eq!(m.port_read_bound(0), m.read_bound());
        let uid2 = uid_of(0, 2);
        m.on_event(
            &ev(uid2, Some(0), ObsChannel::Ar, Hop::TsStaged, 500, 498),
            &reg,
        );
        m.on_event(
            &ev(uid2, Some(0), ObsChannel::R, Hop::Delivered, 500 + 250, 748),
            &reg,
        );
        assert_eq!(m.violations().len(), 1); // no new violation
    }

    #[test]
    fn write_path_checks_b_completion() {
        let (mut m, reg) = monitor();
        let uid = uid_of(0, 2);
        m.on_event(&ev(uid, Some(0), ObsChannel::Aw, Hop::TsStaged, 5, 3), &reg);
        // Write bound = 300 + 8*16 (recycled-read window) + 16 + 4 + 2
        // = 450; complete just over it.
        m.on_event(
            &ev(uid, Some(0), ObsChannel::B, Hop::Delivered, 5 + 451, 448),
            &reg,
        );
        assert_eq!(m.report().checked_writes, 1);
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.violations()[0].kind, BoundKind::WriteService);
        assert_eq!(m.violations()[0].bound, 450);
    }

    #[test]
    fn write_clock_starts_at_w_data_ready() {
        let (mut m, reg) = monitor();
        let uid = uid_of(0, 6);
        m.on_event(&ev(uid, Some(0), ObsChannel::Aw, Hop::TsStaged, 5, 3), &reg);
        // The master dribbles its data: the sub's last W beat reaches
        // the TS 400 cycles after the AW was staged.
        let mut w = ev(0, Some(0), ObsChannel::W, Hop::TsStaged, 405, 400);
        w.txn_end = false;
        m.on_event(&w, &reg);
        // B lands 100 cycles after the data was ready — within the
        // bound even though it is 500 cycles after AW staging.
        m.on_event(
            &ev(uid, Some(0), ObsChannel::B, Hop::Delivered, 505, 503),
            &reg,
        );
        assert!(m.violations().is_empty(), "{:?}", m.violations());
        assert_eq!(m.report().checked_writes, 1);
        assert_eq!(m.report().worst_write, 100);
    }

    #[test]
    fn too_fast_propagation_is_a_model_bug() {
        let (mut m, reg) = monitor();
        let uid = uid_of(0, 3);
        // AR visible at memory only 2 cycles after issue: under D_AR=4.
        m.on_event(
            &ev(uid, None, ObsChannel::Ar, Hop::MemVisible, 11, 10),
            &reg,
        );
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.violations()[0].kind, BoundKind::ArPropagation);
        assert_eq!(m.violations()[0].observed, 2);
        assert_eq!(m.violations()[0].bound, 4);
        // Exactly at the floor is legal.
        let (mut m2, reg2) = monitor();
        m2.on_event(
            &ev(uid, None, ObsChannel::Ar, Hop::MemVisible, 13, 10),
            &reg2,
        );
        assert!(m2.violations().is_empty());
    }

    #[test]
    fn unmatched_completion_is_ignored() {
        let (mut m, reg) = monitor();
        // A Delivered with nothing staged (monitor armed mid-run) must
        // not panic or count.
        m.on_event(
            &ev(uid_of(0, 4), Some(0), ObsChannel::R, Hop::Delivered, 50, 48),
            &reg,
        );
        assert_eq!(m.report().checked_reads, 0);
        assert!(m.violations().is_empty());
    }

    #[test]
    fn merged_b_skips_propagation_check() {
        let (mut m, reg) = monitor();
        let uid = uid_of(0, 5);
        m.on_event(&ev(uid, Some(0), ObsChannel::Aw, Hop::TsStaged, 5, 3), &reg);
        // Non-final B absorbed at the TS: delivered "fast" is fine.
        let mut b = ev(uid, Some(0), ObsChannel::B, Hop::Delivered, 20, 20);
        b.txn_end = false;
        m.on_event(&b, &reg);
        assert!(m.violations().is_empty());
        assert_eq!(m.report().checked_writes, 1);
    }
}
