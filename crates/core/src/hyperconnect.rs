//! The assembled AXI HyperConnect interconnect.
//!
//! Pipeline (paper Fig. 2): each slave port is an eFIFO feeding a
//! Transaction Supervisor; all TS modules feed the EXBAR crossbar, whose
//! output is a buffered master eFIFO toward the FPGA-PS interface. The
//! central unit recharges reservation budgets synchronously, and an
//! AXI-Lite register file exposes runtime reconfiguration to the
//! hypervisor.
//!
//! Per-channel propagation latency by construction (paper Fig. 3a):
//!
//! * AR/AW: 4 cycles — slave eFIFO (1) + TS (1) + EXBAR (1) + master
//!   eFIFO (1);
//! * R/W/B: 2 cycles — slave eFIFO (1) + master eFIFO (1); the TS and
//!   EXBAR handle these channels proactively using stored routing
//!   information.

use axi::checker::{Violation, ViolationKind};
use axi::lite::LiteHandle;
use axi::{AxiInterconnect, AxiPort, ObsEvent, PortConfig};
use sim::stats::CounterBank;
use sim::trace::Tracer;
use sim::{Component, Cycle};

use crate::central::CentralUnit;
use crate::config::HcConfig;
use crate::efifo::EFifo;
use crate::exbar::Exbar;
use crate::portset::PortSet;
use crate::regfile::{PortStatus, RegFile, StatusBlock};
use crate::supervisor::{TransactionSupervisor, TsRuntime, TsStats};

/// The AXI HyperConnect: a predictable, hypervisor-controlled N-to-1
/// AXI interconnect.
///
/// # Example
///
/// ```
/// use hyperconnect::{HcConfig, HyperConnect};
/// use axi::AxiInterconnect;
///
/// let mut hc = HyperConnect::new(HcConfig::new(2));
/// assert_eq!(hc.num_ports(), 2);
/// // The hypervisor reconfigures it through the register file handle:
/// hc.regs().write32(0x04, 10_000); // reservation period
/// ```
#[derive(Debug)]
pub struct HyperConnect {
    config: HcConfig,
    regs: LiteHandle<RegFile>,
    /// The generation and status registers of `regs`, shared with it so
    /// the phase-0 fast path needs no register lock.
    status: std::sync::Arc<StatusBlock>,
    efifos: Vec<EFifo>,
    supervisors: Vec<TransactionSupervisor>,
    exbar: Exbar,
    central: CentralUnit,
    mem_port: AxiPort,
    runtime_scratch: Vec<TsRuntime>,
    tracer: Tracer,
    /// Per-port structured violation log (drained from the TS modules).
    violation_log: Vec<Vec<Violation>>,
    /// Per-port violation counters, indexed by [`ViolationKind::index`].
    violation_counters: Vec<CounterBank>,
    /// Transaction-level metrics registry, when observability is on.
    metrics: Option<axi::MetricsRegistry>,
    /// Runtime worst-case-bound monitor, when armed.
    monitor: Option<crate::observe::BoundMonitor>,
    /// Per-port absolute deadline of the active quiescent drain
    /// (`None` = no quiesce requested on that port).
    quiesce_deadline: Vec<Option<Cycle>>,
    /// Register-file generation observed by the most recent phase-0
    /// slow path. While it still matches the shared generation, no
    /// quiescent drain is active and no period boundary is due, phase 0
    /// skips the register lock, the quiesce-protocol scan, the
    /// `runtime_scratch` rebuild and the decouple sync: every input
    /// they read (enable flags, nominal burst, outstanding caps,
    /// quiesce requests) changes only through generation-bumping
    /// control-plane writes or inside the scan itself. `u64::MAX`
    /// forces the first tick onto the slow path.
    seen_cfg_gen: u64,
    /// Cached `violation_counters[i].total()`, maintained in phase 3 so
    /// the per-cycle counter write-back does not re-sum the bank.
    viol_totals: Vec<u64>,
    /// Service model used to derive the drain deadline; falls back to a
    /// conservative model built from live register state when unset.
    drain_model: Option<crate::analysis::ServiceModel>,
    /// Whether any port has a quiescent drain in flight (some
    /// `quiesce_deadline` is set). Recomputed by every phase-0 slow
    /// path, the only place the deadlines move.
    quiesce_active: bool,
    /// Ports whose TS was [quiet](TransactionSupervisor::is_quiet) at
    /// the end of its last visit. A TS only changes when the tick
    /// visits it, so membership stays true until the next visit. Empty
    /// after construction and restore: nothing is known quiet yet.
    quiet: PortSet,
    /// Ports phase 1 visited on the most recent tick: the only ports
    /// whose TS counters can have moved since the last register
    /// write-back, so a fast-path write-back covers exactly these.
    visited: PortSet,
    /// Ports holding a staged sub-read after phase 1 (EXBAR AR
    /// candidates); rebuilt every tick.
    ar_staged: PortSet,
    /// Ports holding a staged sub-write after phase 1 (EXBAR AW
    /// candidates); rebuilt every tick.
    aw_staged: PortSet,
}

impl HyperConnect {
    /// Instantiates a HyperConnect with the given synthesis-time
    /// configuration and a reset-state register file.
    pub fn new(config: HcConfig) -> Self {
        let n = config.num_ports;
        let efifos = (0..n)
            .map(|_| {
                EFifo::new(
                    config.efifo_addr_depth,
                    config.efifo_data_depth,
                    config.efifo_resp_depth,
                )
            })
            .collect();
        let supervisors = (0..n)
            .map(|_| TransactionSupervisor::new(config.efifo_data_depth))
            .collect();
        let regs = RegFile::new(n);
        let status = std::sync::Arc::clone(regs.status_block());
        Self {
            config,
            regs: LiteHandle::new(regs),
            status,
            efifos,
            supervisors,
            exbar: Exbar::new(n, config.routing_depth),
            central: CentralUnit::new(),
            mem_port: AxiPort::new(
                PortConfig::registered()
                    .addr_capacity(config.efifo_addr_depth)
                    .data_capacity(config.efifo_data_depth),
            ),
            runtime_scratch: Vec::with_capacity(n),
            tracer: Tracer::disabled(),
            violation_log: (0..n).map(|_| Vec::new()).collect(),
            violation_counters: (0..n)
                .map(|_| CounterBank::new(ViolationKind::COUNT))
                .collect(),
            metrics: None,
            monitor: None,
            quiesce_deadline: vec![None; n],
            seen_cfg_gen: u64::MAX,
            viol_totals: vec![0; n],
            drain_model: None,
            quiesce_active: false,
            quiet: PortSet::new(n),
            visited: PortSet::full(n),
            ar_staged: PortSet::new(n),
            aw_staged: PortSet::new(n),
        }
    }

    /// Phase 4 of [`Component::tick`]: folds this tick's hop events
    /// straight from the TS and EXBAR buffers into the registry (and
    /// monitor), in emission order, and refreshes the gauges. Events
    /// only fire on progress cycles, so this is identical under the
    /// fast-forward scheduler. Only visited ports can have emitted
    /// events or moved their regulator: an unvisited TS is idle, and
    /// `enable_metrics` makes the first observed tick visit every port.
    /// `slow` says phase 0 took its slow path this tick.
    #[inline(never)]
    fn observe_tick(&mut self, slow: bool) {
        let Some(metrics) = self.metrics.as_mut() else {
            return;
        };
        let supervisors = &mut self.supervisors;
        let monitor = &mut self.monitor;
        for i in self.visited.iter() {
            let ts = &mut supervisors[i];
            let staged = fold_events(ts.obs_events_mut(), metrics, monitor);
            // Regulator telemetry (throttle-event counter and stored-
            // credit gauges), only for ports whose regulator is armed so
            // the flat schema is byte-unchanged when regulation is off.
            // It moves only when the regulator grants a credit (the sub
            // it admits is staged this tick), counts a throttle onset,
            // or adopts a control-plane change (a slow tick). Stored
            // credits only move on commonly-ticked cycles, so the gauge
            // peaks are scheduler-invariant.
            if ts.regulator_active()
                && (slow || staged || metrics.regulator_events(i) != Some(ts.throttle_events()))
            {
                let (rc, wc) = ts.stored_credits();
                metrics.set_regulator(i, ts.throttle_events(), u64::from(rc), u64::from(wc));
            }
        }
        fold_events(self.exbar.obs_events_mut(), metrics, monitor);
        debug_assert!(
            supervisors.iter().all(|ts| !ts.has_obs_events()),
            "hop event emitted on an unvisited port"
        );
        for (i, efifo) in self.efifos.iter().enumerate() {
            metrics.set_efifo_occupancy(i, efifo.port.occupancy() as u64);
        }
        metrics.set_master_occupancy(self.mem_port.occupancy() as u64);
    }

    /// Mirrors port `i`'s TS counters into its status registers, so the
    /// hypervisor can observe activity and health. Counters wider than
    /// their 32-bit register saturate.
    fn write_back(status: &StatusBlock, i: usize, ts: &TransactionSupervisor, violations: u64) {
        let (read_credits, write_credits) = ts.stored_credits();
        status.store(
            i,
            &PortStatus {
                txn_this_period: ts.txn_this_period(),
                txn_total: ts.txn_total(),
                violations: u32::try_from(violations).unwrap_or(u32::MAX),
                outstanding: ts.read_outstanding() + ts.write_outstanding(),
                throttle_events: ts.throttle_events(),
                read_credits,
                write_credits,
                err_total: ts.err_total(),
            },
        );
    }

    /// Whether nothing was reconfigured since the last phase-0 slow path
    /// and no quiescent drain is in flight, read without the register
    /// lock. The slow path records the generation only while globally
    /// enabled, and every write of the enable bit bumps it, so a settled
    /// interconnect is enabled.
    fn settled(&self) -> bool {
        self.status.generation() == self.seen_cfg_gen && !self.quiesce_active
    }

    /// Phase 0 under the register lock: the period recharge, the
    /// quiesce protocol, the `runtime_scratch` rebuild, the decouple sync
    /// and a write-back of every port. Returns whether it made progress,
    /// or `None` while the interconnect is globally disabled.
    fn phase0_locked(&mut self, now: Cycle) -> Option<bool> {
        let central = &mut self.central;
        let supervisors = &mut self.supervisors;
        let efifos = &mut self.efifos;
        let scratch = &mut self.runtime_scratch;
        let tracer = &mut self.tracer;
        let viol_totals = &self.viol_totals;
        let quiesce = &mut self.quiesce_deadline;
        let quiesce_active = &mut self.quiesce_active;
        let seen_gen = &mut self.seen_cfg_gen;
        let status = &self.status;
        let drain_model = self.drain_model;
        let num_ports = self.config.num_ports;
        let monitor = &mut self.monitor;
        self.regs.with(|rf| {
            if !rf.is_enabled() {
                return None;
            }
            let recharged = central.tick(now, rf, supervisors);
            if recharged {
                tracer.emit(
                    now,
                    "central",
                    format!("budget recharge, period {}", central.periods_elapsed()),
                );
            }
            let mut quiesce_progress = false;
            *seen_gen = rf.generation();
            scratch.clear();
            for (i, efifo) in efifos.iter_mut().enumerate() {
                // Quiescent-drain protocol: track the request edge, the
                // drain-complete write-back and the force-flush deadline
                // *before* the decouple sync, so a flush-induced
                // decouple takes effect this very tick.
                let requested = rf.port(i).quiesce_requested;
                match (requested, quiesce[i]) {
                    (true, None) => {
                        let deadline = drain_model
                            .unwrap_or_else(|| Self::fallback_drain_model(rf, num_ports))
                            .drain_deadline();
                        quiesce[i] = Some(now + deadline);
                        tracer.emit(
                            now,
                            "quiesce",
                            format!("port {i} drain started, deadline +{deadline} cycles"),
                        );
                    }
                    (false, Some(_)) => {
                        quiesce[i] = None;
                        tracer.emit(now, "quiesce", format!("port {i} quiesce released"));
                    }
                    _ => {}
                }
                if let Some(deadline_at) = quiesce[i] {
                    if supervisors[i].is_idle() {
                        if !rf.port(i).drained {
                            rf.port_mut(i).drained = true;
                            quiesce_progress = true;
                            tracer.emit(now, "quiesce", format!("port {i} drained"));
                        }
                    } else if now >= deadline_at {
                        // Stuck pipeline: drop everything not yet granted
                        // and decouple, so granted writes complete via
                        // firewall-beat synthesis and responses ground.
                        let dropped = supervisors[i].force_flush(now);
                        let port = rf.port_mut(i);
                        port.force_flushed = true;
                        port.dropped_txns = port.dropped_txns.saturating_add(dropped);
                        port.enabled = false;
                        quiesce_progress = true;
                        tracer.emit(
                            now,
                            "quiesce",
                            format!(
                                "port {i} drain deadline blown: force-flushed {dropped} \
                                 sub-transactions, port decoupled"
                            ),
                        );
                    }
                }
                // Propagate a pending W1C throttle clear to the TS-side
                // counter. The triggering write bumped the generation,
                // so this (slow-path) tick is never skipped.
                if rf.port(i).throttle_clear {
                    supervisors[i].clear_throttle_events();
                    rf.port_mut(i).throttle_clear = false;
                }
                let regulator = rf.regulator_config(i);
                let port = rf.port(i);
                scratch.push(TsRuntime {
                    nominal: rf.nominal_burst(),
                    max_outstanding: port.max_outstanding,
                    enabled: port.enabled,
                    quiesced: port.quiesce_requested,
                    regulator,
                });
                if efifo.is_decoupled() == port.enabled {
                    tracer.emit(
                        now,
                        "efifo",
                        format!(
                            "port {i} {}",
                            if port.enabled {
                                "recoupled"
                            } else {
                                "DECOUPLED"
                            }
                        ),
                    );
                }
                efifo.set_decoupled(!port.enabled);
            }
            *quiesce_active = quiesce.iter().any(Option::is_some);
            for (i, ts) in supervisors.iter().enumerate() {
                Self::write_back(status, i, ts, viol_totals[i]);
            }
            // Re-arm the bound monitor's per-port regulated bounds from
            // the (possibly reprogrammed) regulator registers. Runs only
            // on slow-path ticks, which every scheduler executes, so the
            // armed bounds are scheduler-invariant.
            if let Some(mon) = monitor.as_mut() {
                let caps: Vec<Option<crate::analysis::RegulationCap>> = (0..num_ports)
                    .map(|i| {
                        let cfg = rf.regulator_config(i);
                        cfg.is_active().then(|| crate::analysis::RegulationCap {
                            rate: cfg.rate_limited().then_some(cfg.rate),
                            burst: cfg.burst,
                            out_cap: (cfg.out_cap != crate::regulate::OUT_CAP_UNLIMITED)
                                .then_some(cfg.out_cap),
                        })
                    })
                    .collect();
                mon.arm_regulation(&caps);
            }
            Some(recharged | quiesce_progress)
        })
    }

    /// Memory first-word latency assumed by the fallback drain model
    /// when [`Self::set_drain_model`] was never called. Deliberately
    /// pessimistic: a longer deadline only delays the force-flush, it
    /// never drops transactions early.
    pub const FALLBACK_DRAIN_MEM_LATENCY: u64 = 64;

    /// Declares the service model from which the quiescent-drain
    /// deadline is derived (see
    /// [`crate::analysis::ServiceModel::drain_deadline`]). Implied by
    /// [`Self::enable_bound_monitor`].
    pub fn set_drain_model(&mut self, model: crate::analysis::ServiceModel) {
        self.drain_model = Some(model);
    }

    /// The drain deadline in cycles currently in force: how long an
    /// active quiesce may take before the interconnect force-flushes
    /// the port's pre-grant state. Derived from the declared drain
    /// model, or from a conservative model built out of live register
    /// state ([`Self::FALLBACK_DRAIN_MEM_LATENCY`]) when none was set.
    pub fn drain_deadline(&self) -> u64 {
        let model = self.drain_model.unwrap_or_else(|| {
            self.regs
                .with(|rf| Self::fallback_drain_model(rf, self.config.num_ports))
        });
        model.drain_deadline()
    }

    fn fallback_drain_model(rf: &RegFile, num_ports: usize) -> crate::analysis::ServiceModel {
        let max_out = (0..rf.num_ports())
            .map(|i| rf.port(i).max_outstanding)
            .max()
            .unwrap_or(4);
        crate::analysis::ServiceModel::hyperconnect(
            num_ports,
            rf.nominal_burst(),
            Self::FALLBACK_DRAIN_MEM_LATENCY,
        )
        .max_outstanding(max_out)
    }

    /// Enables transaction-level observability: every AXI transaction
    /// is stamped with a unique ID at its TS and per-hop cycle
    /// timestamps as it crosses the pipeline; the aggregates are
    /// exposed through [`AxiInterconnect::metrics`].
    pub fn enable_metrics(&mut self) {
        let n = self.config.num_ports;
        for (i, ts) in self.supervisors.iter_mut().enumerate() {
            ts.enable_observability(i);
        }
        self.exbar.enable_observability();
        if self.metrics.is_none() {
            self.metrics = Some(axi::MetricsRegistry::new(n));
            // Phase 4 refreshes regulator gauges on visited ports only;
            // visiting every port next tick gives each its first sample.
            self.quiet.clear();
        }
    }

    /// Arms the runtime bound monitor: each completed sub-transaction's
    /// observed latency is cross-checked against the closed-form bounds
    /// of `model` (see [`crate::observe::BoundMonitor`] for the
    /// soundness assumptions). Implies [`Self::enable_metrics`].
    pub fn enable_bound_monitor(&mut self, model: crate::analysis::ServiceModel) {
        self.enable_metrics();
        self.monitor = Some(crate::observe::BoundMonitor::new(model));
        self.drain_model = Some(model);
    }

    /// The armed bound monitor, if any.
    pub fn bound_monitor(&self) -> Option<&crate::observe::BoundMonitor> {
        self.monitor.as_ref()
    }

    /// Enables event tracing (period recharges, decouple transitions),
    /// retaining the most recent `capacity` events — the open-design
    /// observability the paper contrasts with closed-source IPs.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Tracer::enabled(capacity);
    }

    /// The event trace (empty unless [`Self::enable_trace`] was called).
    pub fn trace(&self) -> &Tracer {
        &self.tracer
    }

    /// The synthesis-time configuration.
    pub fn config(&self) -> &HcConfig {
        &self.config
    }

    /// The AXI-Lite register file handle — what the hypervisor maps into
    /// its address space to control the IP. Returned by reference so a
    /// per-poll read does not clone the handle; callers that need shared
    /// ownership (e.g. to map the device on a control bus) clone it
    /// explicitly.
    pub fn regs(&self) -> &LiteHandle<RegFile> {
        &self.regs
    }

    /// Per-port TS statistics.
    pub fn port_stats(&self, i: usize) -> TsStats {
        self.supervisors[i].stats()
    }

    /// Completed-read latency distribution for port `i`.
    pub fn read_latency(&self, i: usize) -> sim::stats::LatencyStat {
        *self.supervisors[i].read_latency()
    }

    /// Completed-write latency distribution for port `i`.
    pub fn write_latency(&self, i: usize) -> sim::stats::LatencyStat {
        *self.supervisors[i].write_latency()
    }

    /// EXBAR grant counters (fairness analysis).
    pub fn grant_stats(&self) -> &crate::exbar::ExbarStats {
        self.exbar.stats()
    }

    /// Responses grounded at port `i` while it was decoupled.
    pub fn dropped_responses(&self, i: usize) -> u64 {
        self.efifos[i].dropped_responses()
    }

    /// Structured violations detected on port `i` since reset, in
    /// detection order.
    pub fn violations(&self, i: usize) -> &[Violation] {
        &self.violation_log[i]
    }

    /// Violations of a given kind detected on port `i`.
    pub fn violation_count(&self, i: usize, kind: ViolationKind) -> u64 {
        self.violation_counters[i].get(kind.index())
    }

    /// All violations detected on port `i`, across kinds.
    pub fn total_violations(&self, i: usize) -> u64 {
        self.violation_counters[i].total()
    }

    /// Strobe-disabled W beats the EXBAR synthesized to complete write
    /// bursts of decoupled ports.
    pub fn firewall_beats(&self) -> u64 {
        self.exbar.firewall_beats()
    }

    /// Number of completed reservation periods.
    pub fn periods_elapsed(&self) -> u64 {
        self.central.periods_elapsed()
    }
}

/// Folds one producer's buffered hop events into the registry and the
/// monitor, in emission order, and empties the buffer (keeping its
/// capacity). Returns whether a `TsStaged` event was among them.
fn fold_events(
    events: &mut Vec<ObsEvent>,
    metrics: &mut axi::MetricsRegistry,
    monitor: &mut Option<crate::observe::BoundMonitor>,
) -> bool {
    let mut staged = false;
    for ev in events.iter() {
        staged |= ev.hop == axi::observe::Hop::TsStaged;
        metrics.on_event(ev);
        if let Some(mon) = monitor.as_mut() {
            mon.on_event(ev, metrics);
        }
    }
    events.clear();
    staged
}

impl Component for HyperConnect {
    fn tick(&mut self, now: Cycle) -> bool {
        // Phase 0: the control plane. Settled and short of the next
        // period boundary, the slow path below would recompute exactly
        // what it produced last time, so only the status write-back is
        // left. It runs without the register lock, and only for the
        // ports visited last tick: no other TS counter can have moved.
        let slow = !self.settled() || now >= self.central.next_boundary();
        let mut progress = false;
        if slow {
            match self.phase0_locked(now) {
                Some(p) => progress = p,
                None => return false,
            }
        } else {
            for i in self.visited.iter() {
                Self::write_back(&self.status, i, &self.supervisors[i], self.viol_totals[i]);
            }
        }
        let supervisors = &mut self.supervisors;

        // Phase 1: per-port ingest (split/equalize) and issue
        // (reservation + outstanding limits). A quiet port with no AR/AW
        // beat waiting is skipped: both calls would change nothing. A
        // slow-path tick visits every port, so each regulator adopts a
        // reprogrammed configuration on the cycle it changed.
        self.visited.clear();
        self.ar_staged.clear();
        self.aw_staged.clear();
        for (i, ((ts, efifo), &rt)) in supervisors
            .iter_mut()
            .zip(self.efifos.iter_mut())
            .zip(self.runtime_scratch.iter())
            .enumerate()
        {
            if !slow
                && self.quiet.contains(i)
                && efifo.port.ar.is_empty()
                && efifo.port.aw.is_empty()
            {
                debug_assert!(ts.is_quiet(), "port {i} marked quiet but busy");
                continue;
            }
            self.visited.insert(i);
            progress |= ts.ingest(now, efifo, rt);
            progress |= ts.issue(now, rt);
            if !ts.ar_stage.is_empty() {
                self.ar_staged.insert(i);
            }
            if !ts.aw_stage.is_empty() {
                self.aw_staged.insert(i);
            }
        }

        // Phase 2: crossbar — address arbitration, data movement,
        // proactive response routing. Only visited ports can hold a
        // staged sub-request or be owed a response (an unvisited port's
        // TS is idle).
        progress |= self.exbar.arbitrate_ar(now, supervisors, &self.ar_staged);
        progress |= self.exbar.arbitrate_aw(now, supervisors, &self.aw_staged);
        progress |= self
            .exbar
            .move_w(now, supervisors, &self.efifos, &mut self.mem_port);
        progress |= self.exbar.move_to_mem(now, &mut self.mem_port);
        progress |= self
            .exbar
            .route_r(now, supervisors, &mut self.efifos, &mut self.mem_port);
        progress |= self
            .exbar
            .route_b(now, supervisors, &mut self.efifos, &mut self.mem_port);

        // Phase 3: drain structured violations detected this cycle and
        // attribute them to their ports, then re-derive each visited
        // port's quietness now that the crossbar has moved its beats.
        for i in self.visited.iter() {
            let ts = &mut supervisors[i];
            if ts.is_quiet() {
                self.quiet.insert(i);
            } else {
                self.quiet.remove(i);
            }
            if !ts.has_violations() {
                continue;
            }
            for v in ts.take_violations() {
                let v = v.at_port(i);
                self.violation_counters[i].incr(v.kind.index());
                self.viol_totals[i] += 1;
                self.tracer.emit(now, "violation", v.to_string());
                self.violation_log[i].push(v);
            }
        }
        debug_assert!(
            supervisors.iter().all(|ts| !ts.has_violations()),
            "violation recorded on an unvisited port"
        );

        // Phase 4: observability, kept out of line so the unobserved
        // tick pays only this branch.
        if self.metrics.is_some() {
            self.observe_tick(slow);
        }
        progress
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // Two gating questions: globally disabled (pipeline frozen, only
        // a control-plane write can wake it → None) and an active
        // quiescent drain (its deadline clock and drained write-back
        // advance every cycle → no skipping). A settled interconnect is
        // enabled and draining nothing, so only an unsettled one takes
        // the register lock to answer them.
        enum Gate {
            Frozen,
            Draining,
            Open,
        }
        let gate = if self.settled() {
            Gate::Open
        } else {
            self.regs.with(|rf| {
                if !rf.is_enabled() {
                    return Gate::Frozen;
                }
                let draining = self.quiesce_deadline.iter().enumerate().any(|(i, q)| {
                    let port = rf.port(i);
                    (q.is_some() || port.quiesce_requested) && !port.drained
                });
                if draining {
                    Gate::Draining
                } else {
                    Gate::Open
                }
            })
        };
        match gate {
            Gate::Frozen => return None,
            Gate::Draining => return Some(now + 1),
            Gate::Open => {}
        }
        // Every period boundary is an event: a recharge counts as
        // progress even when every port is unlimited and idle.
        let mut horizon = self.central.next_boundary();
        let merge = |h: &mut Cycle, c: Option<Cycle>| {
            if let Some(c) = c {
                *h = (*h).min(c);
            }
        };
        for (i, (ts, efifo)) in self.supervisors.iter().zip(&self.efifos).enumerate() {
            // Nothing can be due sooner than the next cycle: stop looking.
            if horizon <= now + 1 {
                return Some(now + 1);
            }
            if self.quiet.contains(i) {
                // Nothing staged, owed or credit-blocked: only beats in
                // the eFIFO (requests coming in, R/B going out) are due.
                if !efifo.port.is_idle() {
                    merge(&mut horizon, efifo.port.next_ready_at());
                }
                continue;
            }
            // A supervisor owing W beats or spinning on an exhausted
            // budget advances observable counters every cycle — no
            // skipping allowed.
            if ts.counts_every_cycle() {
                return Some(now + 1);
            }
            merge(&mut horizon, ts.next_stage_ready());
            // A credit-blocked sub-request wakes at the next refill
            // window boundary.
            merge(&mut horizon, ts.regulator_next_refill(now));
            merge(&mut horizon, efifo.port.next_ready_at());
        }
        merge(&mut horizon, self.exbar.next_stage_ready());
        merge(&mut horizon, self.mem_port.next_ready_at());
        Some(horizon)
    }
}

impl AxiInterconnect for HyperConnect {
    fn num_ports(&self) -> usize {
        self.config.num_ports
    }

    fn port(&mut self, i: usize) -> &mut AxiPort {
        &mut self.efifos[i].port
    }

    fn mem_port(&mut self) -> &mut AxiPort {
        &mut self.mem_port
    }

    fn port_activity(&self, stamps: &mut [u64]) {
        for (stamp, efifo) in stamps[..self.efifos.len()].iter_mut().zip(&self.efifos) {
            *stamp = efifo.port.activity();
        }
    }

    fn name(&self) -> &'static str {
        "HyperConnect"
    }

    fn is_idle(&self) -> bool {
        self.efifos.iter().all(|e| e.port.is_idle())
            && self.supervisors.iter().all(|t| t.is_idle())
            && self.exbar.is_idle()
            && self.mem_port.is_idle()
    }

    fn metrics(&self) -> Option<&axi::MetricsRegistry> {
        self.metrics.as_ref()
    }

    fn metrics_mut(&mut self) -> Option<&mut axi::MetricsRegistry> {
        self.metrics.as_mut()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn bound_violations(&self) -> &[axi::BoundViolation] {
        self.monitor.as_ref().map_or(&[], |m| m.violations())
    }

    fn bound_report(&self) -> Option<axi::BoundReport> {
        self.monitor.as_ref().map(|m| m.report())
    }

    fn save_state(&self, w: &mut sim::persist::SnapshotWriter) {
        use sim::persist::PersistValue;
        w.put_usize(self.config.num_ports);
        self.regs.with(|rf| rf.save_value(w));
        self.save_rest(w);
    }

    fn restore_state(
        &mut self,
        r: &mut sim::persist::SnapshotReader<'_>,
    ) -> Result<(), sim::persist::PersistError> {
        use sim::persist::{PersistError, PersistValue};
        let n = r.take_usize()?;
        if n != self.config.num_ports {
            return Err(PersistError::ShapeMismatch("hyperconnect port count"));
        }
        let regs = RegFile::load_value(r)?;
        if regs.num_ports() != n {
            return Err(PersistError::ShapeMismatch("hyperconnect per-port state"));
        }
        // All-or-nothing: `restore_rest` assigns only once the rest of
        // the stream decoded and checked, and the register file is
        // installed after it. It goes *through the shared handle* and
        // into the shared status block, so hypervisor-side clones of the
        // handle and the phase-0 fast path observe the restored
        // registers without any re-wiring.
        self.restore_rest(r)?;
        self.regs.with(|rf| rf.install(regs));
        // The port sets are derived, never persisted: nothing is known
        // quiet and every port's registers are rewritten next tick.
        self.quiesce_active = self.quiesce_deadline.iter().any(Option::is_some);
        self.quiet.clear();
        self.visited.fill(n);
        Ok(())
    }
}

impl HyperConnect {
    sim::persist_state! {
        HyperConnect as save_rest, restore_rest {
            efifos,
            supervisors,
            exbar,
            central,
            mem_port,
            runtime_scratch,
            tracer,
            violation_log,
            violation_counters,
            metrics,
            monitor,
            quiesce_deadline,
            seen_cfg_gen,
            viol_totals,
            drain_model,
        }
        skip "construction-time configuration" { config }
        skip "saved ahead of the rest, through the shared handle" { regs, status }
        skip "per-tick scratch, rebuilt before every use" { ar_staged, aw_staged }
        skip "derived, reset by restore_state" { quiesce_active, quiet, visited }
        check |this| {
            let n = this.config.num_ports;
            if efifos.len() != n
                || supervisors.len() != n
                || violation_log.len() != n
                || violation_counters.len() != n
                || quiesce_deadline.len() != n
                || viol_totals.len() != n
            {
                return Err(sim::persist::PersistError::ShapeMismatch(
                    "hyperconnect per-port state",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi::types::BurstSize;
    use axi::{ArBeat, AwBeat, WBeat};

    /// Ticks the interconnect through `cycles` cycles.
    fn run(hc: &mut HyperConnect, cycles: Cycle) {
        for now in 0..cycles {
            hc.tick(now);
        }
    }

    #[test]
    fn ar_propagation_latency_is_four_cycles() {
        let mut hc = HyperConnect::new(HcConfig::new(2));
        // Push at cycle 0 (after the cycle-0 tick has run, the beat was
        // pushed before tick 0 here, so count from push cycle).
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0x100, 1, BurstSize::B4))
            .unwrap();
        let mut arrival = None;
        for now in 0..20 {
            hc.tick(now);
            if arrival.is_none() && hc.mem_port().ar.has_ready(now) {
                arrival = Some(now);
            }
        }
        assert_eq!(arrival, Some(4), "AR latency must be 4 cycles");
    }

    #[test]
    fn aw_propagation_latency_is_four_cycles() {
        let mut hc = HyperConnect::new(HcConfig::new(2));
        hc.port(1)
            .aw
            .push(0, AwBeat::new(0x200, 1, BurstSize::B4))
            .unwrap();
        let mut arrival = None;
        for now in 0..20 {
            hc.tick(now);
            if arrival.is_none() && hc.mem_port().aw.has_ready(now) {
                arrival = Some(now);
            }
        }
        assert_eq!(arrival, Some(4), "AW latency must be 4 cycles");
    }

    #[test]
    fn w_propagation_latency_is_two_cycles() {
        let mut hc = HyperConnect::new(HcConfig::new(2));
        hc.port(0)
            .aw
            .push(0, AwBeat::new(0x200, 1, BurstSize::B4))
            .unwrap();
        hc.port(0).w.push(0, WBeat::new(vec![1; 4], true)).unwrap();
        let mut arrival = None;
        for now in 0..20 {
            hc.tick(now);
            if arrival.is_none() && hc.mem_port().w.has_ready(now) {
                arrival = Some(now);
            }
        }
        // W needs its AW grant before it can move; the W beat itself
        // traverses only the two eFIFOs. The AW is granted at cycle 3
        // (visible in EXBAR stage), W routing exists from then on; the W
        // beat (visible at 1) moves at 3 and appears at 4... but the
        // paper's d_W is the pure channel traversal: measured with the
        // routing already established. See `w_latency_streaming` below
        // for the steady-state check; here we assert it arrives.
        assert!(arrival.is_some());
    }

    #[test]
    fn w_latency_streaming_is_two_cycles_behind_push() {
        // With the write address long granted, subsequent W beats take
        // exactly 2 cycles (slave eFIFO + master eFIFO).
        let mut hc = HyperConnect::new(HcConfig::new(2));
        hc.port(0)
            .aw
            .push(0, AwBeat::new(0x200, 4, BurstSize::B4))
            .unwrap();
        // First beat pushed immediately, rest later.
        hc.port(0).w.push(0, WBeat::new(vec![0; 4], false)).unwrap();
        for now in 0..6 {
            hc.tick(now);
            hc.mem_port().w.pop_ready(now);
        }
        // Routing is established; now measure a fresh beat.
        hc.port(0).w.push(6, WBeat::new(vec![1; 4], false)).unwrap();
        let mut arrival = None;
        for now in 6..16 {
            hc.tick(now);
            if arrival.is_none() && hc.mem_port().w.has_ready(now) {
                arrival = Some(now);
            }
        }
        assert_eq!(arrival, Some(8), "steady-state W latency must be 2");
    }

    #[test]
    fn r_propagation_latency_is_two_cycles() {
        let mut hc = HyperConnect::new(HcConfig::new(2));
        // Issue a read so routing information exists.
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0x100, 1, BurstSize::B4))
            .unwrap();
        for now in 0..6 {
            hc.tick(now);
            hc.mem_port().ar.pop_ready(now);
        }
        // Memory responds at cycle 6.
        hc.mem_port()
            .r
            .push(6, axi::RBeat::new(axi::types::AxiId(0), vec![0; 4], true))
            .unwrap();
        let mut arrival = None;
        for now in 6..16 {
            hc.tick(now);
            if arrival.is_none() && hc.port(0).r.has_ready(now) {
                arrival = Some(now);
            }
        }
        assert_eq!(arrival, Some(8), "R latency must be 2 cycles");
    }

    #[test]
    fn b_propagation_latency_is_two_cycles() {
        let mut hc = HyperConnect::new(HcConfig::new(2));
        hc.port(0)
            .aw
            .push(0, AwBeat::new(0, 1, BurstSize::B4))
            .unwrap();
        hc.port(0).w.push(0, WBeat::new(vec![0; 4], true)).unwrap();
        for now in 0..8 {
            hc.tick(now);
            hc.mem_port().aw.pop_ready(now);
            hc.mem_port().w.pop_ready(now);
        }
        hc.mem_port()
            .b
            .push(8, axi::BBeat::new(axi::types::AxiId(0)))
            .unwrap();
        let mut arrival = None;
        for now in 8..18 {
            hc.tick(now);
            if arrival.is_none() && hc.port(0).b.has_ready(now) {
                arrival = Some(now);
            }
        }
        assert_eq!(arrival, Some(10), "B latency must be 2 cycles");
    }

    #[test]
    fn global_disable_freezes_everything() {
        let mut hc = HyperConnect::new(HcConfig::new(2));
        hc.regs().write32(crate::regfile::offsets::CTRL, 0);
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 1, BurstSize::B4))
            .unwrap();
        run(&mut hc, 20);
        assert!(hc.mem_port().ar.pop_ready(20).is_none());
        // Re-enable: traffic flows again.
        hc.regs().write32(crate::regfile::offsets::CTRL, 1);
        for now in 20..40 {
            hc.tick(now);
        }
        assert!(hc.mem_port().ar.pop_ready(40).is_some());
    }

    #[test]
    fn decoupled_port_is_isolated_but_others_flow() {
        let mut hc = HyperConnect::new(HcConfig::new(2));
        let p0 = crate::regfile::port_block_offset(0) + crate::regfile::offsets::PORT_CTRL;
        hc.regs().write32(p0, 0); // decouple port 0
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 1, BurstSize::B4))
            .unwrap();
        hc.port(1)
            .ar
            .push(0, ArBeat::new(0x1000, 1, BurstSize::B4))
            .unwrap();
        let mut seen = Vec::new();
        for now in 0..20 {
            hc.tick(now);
            if let Some(ar) = hc.mem_port().ar.pop_ready(now) {
                seen.push(ar.addr);
            }
        }
        assert_eq!(seen, vec![0x1000], "only port 1 traffic reaches memory");
    }

    #[test]
    fn counters_visible_through_regfile() {
        let mut hc = HyperConnect::new(HcConfig::new(2));
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 64, BurstSize::B4))
            .unwrap();
        run(&mut hc, 30);
        let off = crate::regfile::port_block_offset(0) + crate::regfile::offsets::PORT_TXN_TOTAL;
        // 64 beats at nominal 16 = 4 sub-transactions.
        assert_eq!(hc.regs().read32(off), 4);
    }

    #[test]
    fn violations_attributed_and_visible_through_regfile() {
        use crate::regfile::{offsets, port_block_offset};
        use axi::checker::ViolationKind;
        let mut hc = HyperConnect::new(HcConfig::new(2));
        // Port 1 drives a 4-beat write with WLAST asserted a beat early.
        hc.port(1)
            .aw
            .push(0, AwBeat::new(0x100, 4, BurstSize::B4))
            .unwrap();
        for i in 0..4u32 {
            hc.port(1)
                .w
                .push(0, WBeat::new(vec![0; 4], i == 2))
                .unwrap();
        }
        run(&mut hc, 20);
        // Two mismatches (early assert + missing final), on port 1 only.
        assert_eq!(hc.violation_count(1, ViolationKind::WlastMismatch), 2);
        assert_eq!(hc.total_violations(0), 0);
        let vs = hc.violations(1);
        assert_eq!(vs.len(), 2);
        assert!(vs.iter().all(|v| v.port == Some(1)));
        // And the hypervisor sees the same count through AXI-Lite.
        let off = port_block_offset(1) + offsets::PORT_VIOLATIONS;
        assert_eq!(hc.regs().read32(off), 2);
        assert_eq!(
            hc.regs()
                .read32(port_block_offset(0) + offsets::PORT_VIOLATIONS),
            0
        );
    }

    #[test]
    fn violation_register_saturates_instead_of_wrapping() {
        use crate::regfile::{offsets, port_block_offset};
        let mut hc = HyperConnect::new(HcConfig::new(2));
        let off = port_block_offset(1) + offsets::PORT_VIOLATIONS;
        hc.viol_totals[1] = u64::from(u32::MAX) + 5;
        // Cycle 0 takes the slow path and writes every port back...
        hc.tick(0);
        assert_eq!(hc.regs().read32(off), u32::MAX);
        // ...and cycle 1 the fast path, over the ports cycle 0 visited.
        hc.viol_totals[1] += 1;
        hc.tick(1);
        assert_eq!(hc.regs().read32(off), u32::MAX);
        assert_eq!(
            hc.regs()
                .read32(port_block_offset(0) + offsets::PORT_VIOLATIONS),
            0
        );
    }

    #[test]
    fn quiet_ports_are_not_visited() {
        let mut hc = HyperConnect::new(HcConfig::new(14));
        // The first tick is a slow path: every port is visited once.
        hc.tick(0);
        assert_eq!(hc.visited.iter().count(), 14);
        hc.tick(1);
        assert!(hc.visited.is_empty(), "an idle interconnect visits no port");
        hc.port(5)
            .ar
            .push(1, ArBeat::new(0x100, 1, BurstSize::B4))
            .unwrap();
        hc.tick(2);
        assert_eq!(hc.visited.iter().collect::<Vec<_>>(), vec![5]);
        assert_eq!(hc.ar_staged.iter().collect::<Vec<_>>(), vec![5]);
        // The port stays visited while its read is in flight, and the
        // request still crosses in the Fig. 3(a) four cycles.
        for now in 3..5 {
            hc.tick(now);
            assert_eq!(hc.visited.iter().collect::<Vec<_>>(), vec![5]);
            assert!(!hc.quiet.contains(5));
        }
        assert!(hc.mem_port().ar.has_ready(5));
    }

    #[test]
    fn outstanding_counter_visible_through_regfile() {
        use crate::regfile::{offsets, port_block_offset};
        let mut hc = HyperConnect::new(HcConfig::new(2));
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 64, BurstSize::B4))
            .unwrap();
        // Run only a few cycles: subs have issued but no data returned,
        // so some are in flight and the register reflects that.
        run(&mut hc, 8);
        let off = port_block_offset(0) + offsets::PORT_OUTSTANDING;
        assert!(hc.regs().read32(off) > 0);
    }

    #[test]
    fn is_idle_after_draining() {
        let mut hc = HyperConnect::new(HcConfig::new(2));
        assert!(hc.is_idle());
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 1, BurstSize::B4))
            .unwrap();
        assert!(!hc.is_idle());
        run(&mut hc, 10);
        // The request reached the mem port; drain it and the routing
        // entry is still outstanding, so not idle.
        assert!(!hc.is_idle());
    }

    #[test]
    fn trace_records_recharges_and_decoupling() {
        let mut hc = HyperConnect::new(HcConfig::new(2));
        hc.enable_trace(64);
        hc.regs().write32(crate::regfile::offsets::PERIOD, 100);
        run(&mut hc, 250);
        // Decouple port 1 at runtime.
        let p1 = crate::regfile::port_block_offset(1) + crate::regfile::offsets::PORT_CTRL;
        hc.regs().write32(p1, 0);
        for now in 250..260 {
            hc.tick(now);
        }
        let lines = hc.trace().dump();
        assert!(
            lines
                .iter()
                .filter(|l| l.contains("budget recharge"))
                .count()
                >= 3,
            "{lines:?}"
        );
        assert!(lines.iter().any(|l| l.contains("port 1 DECOUPLED")));
        // Recouple and observe the transition.
        hc.regs().write32(p1, 1);
        for now in 260..270 {
            hc.tick(now);
        }
        assert!(hc
            .trace()
            .dump()
            .iter()
            .any(|l| l.contains("port 1 recoupled")));
    }

    #[test]
    fn metrics_registry_pins_address_propagation_goldens() {
        let mut hc = HyperConnect::new(HcConfig::new(2));
        hc.enable_metrics();
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0x100, 1, BurstSize::B4))
            .unwrap();
        hc.port(1)
            .aw
            .push(0, AwBeat::new(0x200, 1, BurstSize::B4))
            .unwrap();
        hc.port(1).w.push(0, WBeat::new(vec![1; 4], true)).unwrap();
        run(&mut hc, 12);
        let m = AxiInterconnect::metrics(&hc).unwrap();
        // Fig. 3(a): address channels cross the fabric in exactly 4
        // cycles; the registry must measure the same number the probe
        // tests above observe at the mem port.
        assert_eq!(m.port(0).ar.latency.min(), Some(4));
        assert_eq!(m.port(1).aw.latency.min(), Some(4));
        assert_eq!(m.port(0).ar.bandwidth.bytes(), 4);
        // A transaction is in flight (no memory model attached here).
        assert_eq!(m.inflight_len(), 2);
        assert!(m.master_occupancy().peak() > 0);
    }

    #[test]
    fn bound_monitor_is_clean_without_memory_pressure() {
        let mut hc = HyperConnect::new(HcConfig::new(2));
        hc.enable_bound_monitor(crate::analysis::ServiceModel::hyperconnect(2, 16, 22));
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0x100, 1, BurstSize::B4))
            .unwrap();
        run(&mut hc, 12);
        assert!(AxiInterconnect::bound_violations(&hc).is_empty());
        let rep = AxiInterconnect::bound_report(&hc).unwrap();
        assert_eq!(rep.violations, 0);
        assert_eq!(rep.read_bound, 300);
    }

    #[test]
    fn regulator_telemetry_matches_the_supervisor_after_every_tick() {
        // A long read on a rate-limited port: its regulator spends and
        // banks credits and turns throttled and back as the subs stage,
        // until the outstanding limit stops issue (no memory answers).
        let mut hc = HyperConnect::new(HcConfig::new(2));
        hc.regs().with(|rf| {
            rf.set_reg_window(8);
            rf.set_rate(0, 1);
            rf.set_reg_burst(0, 2);
        });
        hc.enable_metrics();
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 256, BurstSize::B4))
            .unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for now in 0..200 {
            hc.tick(now);
            let ts = &hc.supervisors[0];
            let (rc, wc) = ts.stored_credits();
            let want = (ts.throttle_events(), u64::from(rc), u64::from(wc));
            let m = AxiInterconnect::metrics(&hc).unwrap();
            let reg = m.port(0).regulator.as_ref().expect("armed regulator");
            let got = (
                reg.throttle_events,
                reg.read_credits.current(),
                reg.write_credits.current(),
            );
            assert_eq!(got, want, "cycle {now}");
            seen.insert(want);
        }
        assert!(seen.len() > 3, "regulator state barely moved: {seen:?}");
    }

    #[test]
    fn quiesce_idle_port_reports_drained_and_blocks_new_traffic() {
        use crate::regfile::{offsets, port_block_offset, QUIESCE_DRAINED, QUIESCE_REQUESTED};
        let mut hc = HyperConnect::new(HcConfig::new(2));
        let q1 = port_block_offset(1) + offsets::PORT_QUIESCE;
        hc.regs().write32(q1, QUIESCE_REQUESTED);
        hc.tick(0);
        assert_eq!(hc.regs().read32(q1) & QUIESCE_DRAINED, QUIESCE_DRAINED);
        // Requests pushed under quiesce park in the slave eFIFO and
        // never reach memory...
        hc.port(1)
            .ar
            .push(1, ArBeat::new(0x100, 1, BurstSize::B4))
            .unwrap();
        for now in 1..20 {
            hc.tick(now);
        }
        assert!(hc.mem_port().ar.pop_ready(20).is_none());
        // ...until the quiesce is released.
        hc.regs().write32(q1, 0);
        for now in 20..40 {
            hc.tick(now);
        }
        assert!(hc.mem_port().ar.pop_ready(40).is_some());
    }

    #[test]
    fn blown_drain_deadline_force_flushes_and_decouples() {
        use crate::regfile::{offsets, port_block_offset, QUIESCE_FLUSHED, QUIESCE_REQUESTED};
        let mut hc = HyperConnect::new(HcConfig::new(2));
        hc.set_drain_model(crate::analysis::ServiceModel::hyperconnect(2, 16, 22));
        // 256 beats = 16 subs; MAX_OUT 4 are granted, 12 stay pre-grant.
        // No memory model is attached, so the granted subs never
        // complete and the drain can only end by force-flush.
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 256, BurstSize::B4))
            .unwrap();
        for now in 0..6 {
            hc.tick(now);
        }
        let q0 = port_block_offset(0) + offsets::PORT_QUIESCE;
        hc.regs().write32(q0, QUIESCE_REQUESTED);
        let deadline = hc.drain_deadline();
        assert_eq!(deadline, 450, "(2,16,22) staged write bound");
        for now in 6..(deadline + 40) {
            hc.tick(now);
        }
        let status = hc.regs().read32(q0);
        assert_ne!(status & QUIESCE_FLUSHED, 0, "sticky flush bit set");
        assert!(status >> 16 > 0, "dropped sub-transactions surfaced");
        // The flush decouples the port so downstream state can drain.
        assert_eq!(
            hc.regs().read32(port_block_offset(0) + offsets::PORT_CTRL),
            0
        );
        // W1C clears the sticky flush state.
        hc.regs().write32(q0, QUIESCE_FLUSHED);
        assert_eq!(hc.regs().read32(q0) >> 16, 0);
    }

    #[test]
    fn snapshot_roundtrip_resumes_byte_identical() {
        use sim::persist::{SnapshotReader, SnapshotWriter};
        let mut a = HyperConnect::new(HcConfig::new(2));
        a.enable_metrics();
        a.port(0)
            .ar
            .push(0, ArBeat::new(0, 64, BurstSize::B4))
            .unwrap();
        a.port(1)
            .aw
            .push(0, AwBeat::new(0x200, 4, BurstSize::B4))
            .unwrap();
        for i in 0..4u32 {
            a.port(1)
                .w
                .push(0, WBeat::new(vec![i as u8; 4], i == 3))
                .unwrap();
        }
        // Snapshot mid-flight, with subs split, staged and in the EXBAR.
        for now in 0..7 {
            a.tick(now);
        }
        let mut w = SnapshotWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        // Restore into a freshly-constructed instance — observability
        // enablement, uids and all pipeline registers come from the
        // snapshot, not from the constructor.
        let mut b = HyperConnect::new(HcConfig::new(2));
        b.restore_state(&mut SnapshotReader::new(&bytes)).unwrap();
        for now in 7..40 {
            a.tick(now);
            b.tick(now);
        }
        let mut wa = SnapshotWriter::new();
        a.save_state(&mut wa);
        let mut wb = SnapshotWriter::new();
        b.save_state(&mut wb);
        assert_eq!(
            wa.into_bytes(),
            wb.into_bytes(),
            "restored run must stay byte-identical to the donor"
        );
    }

    #[test]
    fn restore_rejects_port_count_mismatch() {
        use sim::persist::{PersistError, SnapshotReader, SnapshotWriter};
        let a = HyperConnect::new(HcConfig::new(2));
        let mut w = SnapshotWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut b = HyperConnect::new(HcConfig::new(3));
        assert!(matches!(
            b.restore_state(&mut SnapshotReader::new(&bytes)),
            Err(PersistError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn sustained_ar_throughput_is_one_per_cycle() {
        // With a single port and short bursts, the pipeline must sustain
        // one sub-request per cycle at the master port.
        let mut hc = HyperConnect::new(HcConfig::new(1));
        // Raise the outstanding limit so it doesn't throttle.
        let off = crate::regfile::port_block_offset(0) + crate::regfile::offsets::PORT_MAX_OUT;
        hc.regs().write32(off, 64);
        let mut arrivals = Vec::new();
        for now in 0..40u64 {
            // Keep the input eFIFO fed.
            let _ = hc
                .port(0)
                .ar
                .push(now, ArBeat::new(now * 64, 1, BurstSize::B4));
            hc.tick(now);
            if hc.mem_port().ar.pop_ready(now).is_some() {
                arrivals.push(now);
            }
        }
        assert!(arrivals.len() >= 20);
        // After the pipeline fills, arrivals are back-to-back.
        let steady = &arrivals[4..];
        for pair in steady.windows(2) {
            assert_eq!(pair[1], pair[0] + 1, "bubble in AR pipeline");
        }
    }

    /// One cycle of `hc` against `memory`, interconnect first as in a
    /// system run, with every response beat drained at its port.
    fn step_with_memory(
        hc: &mut HyperConnect,
        memory: &mut mem::MemoryController,
        now: Cycle,
    ) -> (bool, Vec<axi::RBeat>) {
        let progress = hc.tick(now);
        memory.tick(now, hc.mem_port());
        let mut reads = Vec::new();
        for i in 0..hc.num_ports() {
            while let Some(r) = hc.port(i).r.pop_ready(now) {
                reads.push(r);
            }
            while hc.port(i).b.pop_ready(now).is_some() {}
        }
        (progress, reads)
    }

    #[test]
    fn control_writes_through_a_cloned_handle_end_the_lock_free_fast_path() {
        use crate::regfile::{offsets, port_block_offset, QUIESCE_REQUESTED};
        // `dut` runs the lock-free phase-0 fast path between writes, and
        // each scenario write reaches it through a clone of its handle,
        // as a driver's would. `reference` gets a no-op write (the
        // read-only VERSION register still bumps the generation) before
        // every call, so it runs the locked slow path on every one; the
        // two must agree cycle by cycle. The checks after each write pin
        // what the write must do on the very next tick.
        let mut dut = HyperConnect::new(HcConfig::new(2));
        let mut reference = HyperConnect::new(HcConfig::new(2));
        let mut dut_mem = mem::MemoryController::new(mem::MemConfig::zcu102());
        let mut ref_mem = mem::MemoryController::new(mem::MemConfig::zcu102());
        let driver = dut.regs().clone();
        let p0 = port_block_offset(0);
        let p1 = port_block_offset(1);
        let setup = [
            (offsets::PERIOD, 100),
            (p1 + offsets::PORT_BUDGET, 3),
            (offsets::REG_WINDOW, 8),
            (p0 + offsets::PORT_REG_RATE, 1),
            (p0 + offsets::PORT_REG_BURST, 2),
        ];
        for (off, value) in setup {
            driver.write32(off, value);
            reference.regs().write32(off, value);
        }
        const THROTTLE_CLEAR: Cycle = 60;
        const PERIOD_CHANGE: Cycle = 120;
        const DISABLE: Cycle = 180;
        const ENABLE: Cycle = 200;
        const QUIESCE: Cycle = 260;
        let writes = [
            (THROTTLE_CLEAR, p0 + offsets::PORT_REG_THROTTLE, 1),
            (PERIOD_CHANGE, offsets::PERIOD, 37),
            (DISABLE, offsets::CTRL, 0),
            (ENABLE, offsets::CTRL, 1),
            (QUIESCE, p1 + offsets::PORT_QUIESCE, QUIESCE_REQUESTED),
        ];
        let registers: Vec<u64> = (0..6)
            .map(|r| r * 4)
            .chain((0..2).flat_map(|i| (0..14).map(move |r| port_block_offset(i) + r * 4)))
            .collect();
        let mut fast_ticks = 0;
        let mut throttled = 0;
        for now in 0..400 {
            for &(at, off, value) in &writes {
                if at == now {
                    if now != ENABLE {
                        assert!(dut.settled(), "write at {now} lands after fast-path ticks");
                    }
                    if now == THROTTLE_CLEAR {
                        throttled = driver.read32(off);
                    }
                    driver.write32(off, value);
                    reference.regs().write32(off, value);
                }
            }
            for (i, addr) in [(0, 0x1000_0000u64), (1, 0x2000_0000)] {
                for hc in [&mut dut, &mut reference] {
                    let _ = hc
                        .port(i)
                        .ar
                        .push(now, ArBeat::new(addr + now * 64, 16, BurstSize::B4));
                }
            }
            if dut.settled() && now < dut.central.next_boundary() {
                fast_ticks += 1;
            }
            reference.regs().write32(offsets::VERSION, 0);
            let got = step_with_memory(&mut dut, &mut dut_mem, now);
            let want = step_with_memory(&mut reference, &mut ref_mem, now);
            assert_eq!(got, want, "tick at {now}");
            reference.regs().write32(offsets::VERSION, 0);
            let horizon = dut.next_event(now);
            assert_eq!(horizon, reference.next_event(now), "next_event at {now}");
            for &off in &registers {
                assert_eq!(
                    driver.read32(off),
                    reference.regs().read32(off),
                    "register {off:#x} after cycle {now}"
                );
            }
            match now {
                THROTTLE_CLEAR => {
                    let left = driver.read32(p0 + offsets::PORT_REG_THROTTLE);
                    assert!(throttled > 0, "regulator never throttled");
                    assert!(left < throttled, "W1C missed: {left} of {throttled} left");
                    assert_eq!(u64::from(left), dut.supervisors[0].throttle_events());
                }
                DISABLE => {
                    assert!(!got.0, "a disabled interconnect moved");
                    assert_eq!(horizon, None, "a disabled interconnect woke");
                }
                ENABLE => assert_eq!(
                    dut.central.next_boundary(),
                    ENABLE + 37,
                    "the boundary at {ENABLE} starts a period of the new length"
                ),
                QUIESCE => assert!(
                    dut.quiesce_deadline[1].is_some(),
                    "the quiesce request did not start a drain"
                ),
                _ => {}
            }
        }
        assert!(fast_ticks > 200, "only {fast_ticks} fast-path ticks");
    }

    #[test]
    fn wide_beats_cross_the_interconnect_and_memory_intact() {
        // Beats wider than the inline payload buffer spill to the heap;
        // their bytes must survive the full write and read paths.
        let mut hc = HyperConnect::new(HcConfig::new(1));
        let mut memory = mem::MemoryController::new(mem::MemConfig::zcu102());
        for (base, size) in [
            (0x1000_0000u64, BurstSize::B64),
            (0x2000_0000, BurstSize::B128),
        ] {
            let bytes = size.bytes();
            assert!(bytes as usize > axi::PAYLOAD_INLINE);
            let len = 4u32;
            let fill =
                |beat: u32, b: u64| (u64::from(beat) * 131 + b * 7 + base / 0x1000_0000) as u8;
            let start = 1_000 * (base / 0x1000_0000);
            hc.port(0)
                .aw
                .push(start, AwBeat::new(base, len, size))
                .unwrap();
            let mut w = WBeat::stream(len, size, 0, fill).into_iter().peekable();
            let mut now = start;
            let mut reads = Vec::new();
            let mut read_sent = false;
            while reads.len() < len as usize {
                assert!(now < start + 900, "{size:?} transfer stalled");
                if let Some(beat) = w.peek() {
                    if hc.port(0).w.push(now, beat.clone()).is_ok() {
                        w.next();
                    }
                }
                let (_, r) = step_with_memory(&mut hc, &mut memory, now);
                reads.extend(r);
                if !read_sent && memory.is_idle() && w.peek().is_none() && now > start + 200 {
                    hc.port(0)
                        .ar
                        .push(now, ArBeat::new(base, len, size))
                        .unwrap();
                    read_sent = true;
                }
                now += 1;
            }
            let expect: Vec<u8> = (0..len)
                .flat_map(|beat| (0..bytes).map(move |b| fill(beat, b)))
                .collect();
            assert_eq!(
                memory.memory().read(base, expect.len()),
                expect,
                "{size:?} write"
            );
            let got: Vec<u8> = reads.iter().flat_map(|r| r.data.to_vec()).collect();
            assert_eq!(got, expect, "{size:?} read");
        }
    }
}
