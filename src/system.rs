//! Full-system assembly: accelerators + interconnect + memory.
//!
//! `SocSystem` wires the pieces the way the paper's Fig. 1 does: each
//! accelerator drives one interconnect slave port, the interconnect's
//! master port drives the FPGA-PS interface of the memory controller.
//! Since the topology layer landed, `SocSystem` is a thin facade over a
//! single-interconnect [`SocTopology`] — the tick order within a cycle
//! (accelerators → interconnect → memory) and every observable timing
//! are unchanged; arbitrary trees are built directly with
//! [`crate::TopologyBuilder`].

use std::marker::PhantomData;

use axi::types::PortId;
use axi::AxiInterconnect;
use ha::Accelerator;
use mem::MemoryController;
use sim::{ClockConfig, Component, Cycle};

pub use crate::topology::SchedulerMode;
use crate::topology::{
    downcast_ic, downcast_ic_mut, poll_loop, NodeId, SocTopology, TopologyBuilder, TopologyError,
};

/// A simulated FPGA SoC: N accelerators, one interconnect, one memory
/// controller.
///
/// # Example
///
/// ```
/// use axi_hyperconnect::SocSystem;
/// use ha::dma::{Dma, DmaConfig};
/// use ha::Accelerator;
/// use hyperconnect::{HcConfig, HyperConnect};
/// use mem::{MemConfig, MemoryController};
/// use axi::types::BurstSize;
///
/// let mut sys = SocSystem::new(
///     HyperConnect::new(HcConfig::new(1)),
///     MemoryController::new(MemConfig::default()),
/// );
/// sys.add_accelerator(Box::new(Dma::new(
///     "dma",
///     DmaConfig::reader(4096, 16, BurstSize::B16),
/// )))
/// .unwrap();
/// let outcome = sys.run_until_done(100_000);
/// assert!(outcome.is_done());
/// assert_eq!(sys.accelerator(0).unwrap().jobs_completed(), 1);
/// ```
pub struct SocSystem<I: AxiInterconnect + 'static> {
    topo: SocTopology,
    ic: NodeId,
    mem: NodeId,
    _marker: PhantomData<fn() -> I>,
}

impl<I: AxiInterconnect + 'static> SocSystem<I> {
    /// Assembles a system with no accelerators connected yet.
    pub fn new(interconnect: I, memory: MemoryController) -> Self {
        let mut builder = TopologyBuilder::new();
        let ic = builder
            .add_interconnect("ic0", interconnect)
            .expect("fresh builder has no labels");
        let mem = builder
            .add_memory("mem0", memory)
            .expect("fresh builder has no labels");
        builder
            .connect_memory(ic, mem)
            .expect("both endpoints are unbound");
        let topo = builder.build().expect("one interconnect, one memory");
        Self {
            topo,
            ic,
            mem,
            _marker: PhantomData,
        }
    }

    /// Selects how the run loops advance time (default:
    /// [`SchedulerMode::FastForward`]).
    pub fn set_scheduler(&mut self, mode: SchedulerMode) {
        self.topo.set_scheduler(mode);
    }

    /// The active scheduler mode.
    pub fn scheduler(&self) -> SchedulerMode {
        self.topo.scheduler()
    }

    /// Idle cycles the fast-forward scheduler skipped over so far (zero
    /// under [`SchedulerMode::Naive`]).
    pub fn skipped_cycles(&self) -> Cycle {
        self.topo.skipped_cycles()
    }

    /// Starts recording a beat-level waveform (VCD) at the FPGA-PS
    /// boundary; retrieve it with [`Self::waveform_vcd`].
    pub fn attach_waveform(&mut self) {
        self.topo.attach_waveform(self.mem);
    }

    /// Renders the recorded waveform as a VCD file, if recording was
    /// enabled — openable in GTKWave and friends.
    pub fn waveform_vcd(&self) -> Option<String> {
        self.topo.waveform_vcd(self.mem)
    }

    /// Connects an accelerator to the next free slave port, returning
    /// the port it occupies.
    ///
    /// # Errors
    ///
    /// [`TopologyError::PortsExhausted`] when every slave port is
    /// taken.
    pub fn add_accelerator(
        &mut self,
        accelerator: Box<dyn Accelerator>,
    ) -> Result<PortId, TopologyError> {
        self.topo.add_accelerator(self.ic, accelerator).map(PortId)
    }

    /// The interconnect under test.
    pub fn interconnect(&mut self) -> &mut I {
        downcast_ic_mut(self.topo.ic_box_mut(self.ic))
    }

    /// The interconnect, immutably.
    pub fn interconnect_ref(&self) -> &I {
        downcast_ic(self.topo.ic_box(self.ic))
    }

    /// The memory controller.
    pub fn memory(&self) -> &MemoryController {
        self.topo.memory(self.mem).expect("facade memory node")
    }

    /// Mutable access to the memory controller (e.g. to pre-fill
    /// buffers or attach the protocol monitor).
    pub fn memory_mut(&mut self) -> &mut MemoryController {
        self.topo.memory_mut(self.mem).expect("facade memory node")
    }

    /// The accelerator at port `i`, or `None` when no accelerator
    /// occupies that port.
    pub fn accelerator(&self, i: usize) -> Option<&dyn Accelerator> {
        self.topo.accelerator(i)
    }

    /// Mutable access to the accelerator at port `i` — recovery flows
    /// use this to pulse the model's reset line when the hypervisor
    /// commands a reset (see [`ha::Accelerator::reset`]).
    pub fn accelerator_mut(&mut self, i: usize) -> Option<&mut dyn Accelerator> {
        self.topo.accelerator_mut(i)
    }

    /// Number of connected accelerators.
    pub fn num_accelerators(&self) -> usize {
        self.topo.num_accelerators()
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.topo.now()
    }

    /// The fabric clock configuration.
    pub fn clock(&self) -> ClockConfig {
        self.topo.clock()
    }

    /// The underlying topology graph (single interconnect + memory).
    pub fn topology(&self) -> &SocTopology {
        &self.topo
    }

    /// Mutable access to the underlying topology graph.
    pub fn topology_mut(&mut self) -> &mut SocTopology {
        &mut self.topo
    }

    /// The graph node of the interconnect.
    pub fn interconnect_node(&self) -> NodeId {
        self.ic
    }

    /// The graph node of the memory controller.
    pub fn memory_node(&self) -> NodeId {
        self.mem
    }

    /// Completion interrupts raised since the last call: one entry per
    /// job completion, identifying the port. Route these through the
    /// hypervisor with [`hypervisor::Hypervisor::route_irq`].
    pub fn take_irq_events(&mut self) -> Vec<PortId> {
        // In the facade, accelerator insertion order *is* slave-port
        // order, so the topology's ordinals map directly to ports.
        self.topo
            .take_irq_events()
            .into_iter()
            .map(PortId)
            .collect()
    }

    /// Runs for exactly `cycles` cycles.
    pub fn run_for(&mut self, cycles: Cycle) {
        self.topo.run_for(cycles);
    }

    /// Runs for exactly `cycles` cycles, calling `hook(t, self)` after
    /// every cycle `t` with `t % every == 0`: how a hypervisor rides
    /// along, polling registers over the modeled AXI-Lite bus at its own
    /// rate. See [`SocTopology::run_polled`].
    ///
    /// # Panics
    ///
    /// Panics when `every` is 0.
    pub fn run_polled(&mut self, cycles: Cycle, every: Cycle, hook: impl FnMut(Cycle, &mut Self)) {
        poll_loop(self, |sys| &mut sys.topo, cycles, every, hook);
    }

    /// Runs until every finite accelerator reports done (at most
    /// `max_cycles`). Returns the outcome.
    ///
    /// Completion is tracked incrementally (a done-count updated when an
    /// accelerator's completion is first observed) rather than by
    /// re-scanning every accelerator each cycle.
    pub fn run_until_done(&mut self, max_cycles: Cycle) -> sim::RunOutcome {
        self.topo.run_until_done(max_cycles)
    }

    /// Jobs/frames per *simulated second* completed by accelerator `i`
    /// so far — the paper's "rate per second" performance index.
    pub fn rate_per_second(&self, i: usize) -> f64 {
        self.topo.rate_per_second(i)
    }

    /// One JSON object capturing everything the observability layer
    /// measured: the interconnect's per-port per-channel metrics, the
    /// memory controller's outstanding-request gauge and the runtime
    /// bound monitor's verdict. `None` until metrics are enabled on the
    /// interconnect (e.g. via [`SocSystem::enable_observability`]).
    ///
    /// The snapshot is deterministic: for the same workload it is
    /// byte-identical under [`SchedulerMode::FastForward`] and
    /// [`SchedulerMode::Naive`].
    ///
    /// When the memory controller has a fault injector armed (see
    /// [`mem::MemoryController::attach_fault_injector`]) the snapshot
    /// gains an `"ecc"` section with the injector/ECC counters; on a
    /// fault-free system the JSON is byte-identical to what it was
    /// before the fault layer existed, so schema goldens taken on clean
    /// runs never churn.
    pub fn metrics_snapshot_json(&self) -> Option<String> {
        let ic = self
            .topo
            .interconnect_dyn(self.ic)
            .expect("facade interconnect node");
        let metrics = ic.metrics()?;
        let bound = ic
            .bound_report()
            .map_or_else(|| "{\"enabled\":false}".to_owned(), |r| r.to_json());
        let out = self.memory().outstanding_gauge();
        let ecc = self.memory().fault_stats().map_or_else(String::new, |s| {
            format!(
                ",\"ecc\":{{\"spurious_errors\":{},\"single_flips\":{},\
                 \"double_flips\":{},\"corrected\":{},\"uncorrectable\":{},\
                 \"dropped_beats\":{},\"duplicated_beats\":{},\"silent_flips\":{}}}",
                s.spurious_errors,
                s.single_flips,
                s.double_flips,
                s.corrected,
                s.uncorrectable,
                s.dropped_beats,
                s.duplicated_beats,
                s.silent_flips(),
            )
        });
        Some(format!(
            "{{\"schema\":\"axi-hyperconnect/metrics-snapshot/v1\",\
             \"interconnect\":\"{}\",\"cycles\":{},\"metrics\":{},\
             \"mem_outstanding\":{{\"current\":{},\"peak\":{}}},\
             \"bound_monitor\":{}{}}}",
            ic.name(),
            self.topo.now(),
            metrics.to_json(),
            out.current(),
            out.peak(),
            bound,
            ecc,
        ))
    }

    /// Captures the complete dynamic state of the system as a
    /// `hcsim-snapshot/v1` container (see
    /// [`SocTopology::save_snapshot`]).
    pub fn save_snapshot(&self) -> sim::persist::Snapshot {
        self.topo.save_snapshot()
    }

    /// Restores a snapshot produced by [`SocSystem::save_snapshot`]
    /// into this system, which must have been assembled identically
    /// (same interconnect/memory configuration and accelerator set).
    ///
    /// # Errors
    ///
    /// See [`SocTopology::restore_snapshot`].
    pub fn restore_snapshot(
        &mut self,
        snap: &sim::persist::Snapshot,
    ) -> Result<(), sim::persist::PersistError> {
        self.topo.restore_snapshot(snap)
    }

    /// Serializes [`SocSystem::save_snapshot`] straight to bytes.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.topo.snapshot_bytes()
    }

    /// Parses and restores snapshot bytes; see
    /// [`SocSystem::restore_snapshot`].
    ///
    /// # Errors
    ///
    /// See [`SocTopology::restore_snapshot`].
    pub fn restore_snapshot_bytes(
        &mut self,
        bytes: &[u8],
    ) -> Result<(), sim::persist::PersistError> {
        self.topo.restore_snapshot_bytes(bytes)
    }
}

impl SocSystem<hyperconnect::HyperConnect> {
    /// Arms transaction-level metrics **and** the runtime worst-case
    /// bound monitor, deriving the service model from the live system:
    /// port count and nominal burst from the register file, the largest
    /// per-port outstanding limit, and the memory controller's timing
    /// parameters. Call before running; results surface through
    /// [`axi::AxiInterconnect::metrics`],
    /// [`axi::AxiInterconnect::bound_report`] and
    /// [`SocSystem::metrics_snapshot_json`].
    ///
    /// The monitor's bounds assume the fault-free, reservation-disabled
    /// regime (see `hyperconnect::observe`); arm it only on scenarios
    /// that satisfy those assumptions.
    ///
    /// Ports whose credit regulators are programmed (rate, burst depth
    /// or outstanding cap — see `hyperconnect::regulate`) tighten every
    /// port's armed bound automatically: the monitor derives the
    /// regulated per-port bounds from the register file as it stands at
    /// this call, so program the regulators over AXI-Lite *before*
    /// arming observability.
    pub fn enable_observability(&mut self) {
        let (first_word, write_resp) = {
            let config = self.memory().config();
            (config.first_word_latency, config.write_resp_latency)
        };
        let hc = self.interconnect();
        let n = hc.num_ports();
        let (nominal, max_out) = hc.regs().with(|rf| {
            let max_out = (0..n)
                .map(|i| rf.port(i).max_outstanding)
                .max()
                .unwrap_or(1);
            (rf.nominal_burst(), max_out)
        });
        let mut model = hyperconnect::analysis::ServiceModel::hyperconnect(n, nominal, first_word)
            .max_outstanding(max_out);
        model.write_resp_latency = write_resp;
        hc.enable_bound_monitor(model);
    }
}

impl<I: AxiInterconnect + 'static> Component for SocSystem<I> {
    fn tick(&mut self, now: Cycle) -> bool {
        self.topo.tick(now)
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.topo.next_event(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi::types::BurstSize;
    use ha::dma::{Dma, DmaConfig};
    use hyperconnect::{HcConfig, HyperConnect};
    use mem::MemConfig;
    use smartconnect::{ScConfig, SmartConnect};

    #[test]
    fn runs_a_dma_to_completion_on_both_interconnects() {
        let run = |hc: bool| {
            let mem = MemoryController::new(MemConfig::default());
            let dma = Dma::new("d", DmaConfig::reader(16 * 1024, 16, BurstSize::B16));
            if hc {
                let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(2)), mem);
                sys.add_accelerator(Box::new(dma)).unwrap();
                let out = sys.run_until_done(1_000_000);
                (out.is_done(), sys.now())
            } else {
                let mut sys = SocSystem::new(SmartConnect::new(ScConfig::new(2)), mem);
                sys.add_accelerator(Box::new(dma)).unwrap();
                let out = sys.run_until_done(1_000_000);
                (out.is_done(), sys.now())
            }
        };
        let (hc_done, hc_cycles) = run(true);
        let (sc_done, sc_cycles) = run(false);
        assert!(hc_done && sc_done);
        // Same throughput regime; the HyperConnect is a bit faster on
        // latency but both complete in the same order of magnitude.
        let ratio = hc_cycles as f64 / sc_cycles as f64;
        assert!((0.5..=1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn irq_events_fire_per_job() {
        let mut sys = SocSystem::new(
            HyperConnect::new(HcConfig::new(1)),
            MemoryController::new(MemConfig::ideal()),
        );
        sys.add_accelerator(Box::new(Dma::new(
            "d",
            DmaConfig::reader(64, 16, BurstSize::B16).jobs(3),
        )))
        .unwrap();
        sys.run_until_done(100_000);
        let irqs = sys.take_irq_events();
        assert_eq!(irqs, vec![PortId(0); 3]);
        assert!(sys.take_irq_events().is_empty());
    }

    #[test]
    fn rejects_excess_accelerators_with_typed_error() {
        let mut sys = SocSystem::new(
            HyperConnect::new(HcConfig::new(1)),
            MemoryController::new(MemConfig::ideal()),
        );
        let port = sys
            .add_accelerator(Box::new(Dma::new(
                "d",
                DmaConfig::reader(64, 16, BurstSize::B16),
            )))
            .unwrap();
        assert_eq!(port, PortId(0));
        let err = sys
            .add_accelerator(Box::new(Dma::new(
                "d",
                DmaConfig::reader(64, 16, BurstSize::B16),
            )))
            .unwrap_err();
        assert!(
            matches!(err, TopologyError::PortsExhausted { num_ports: 1, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("all 1 slave ports"));
        // The rejected accelerator is not half-registered.
        assert_eq!(sys.num_accelerators(), 1);
        assert!(sys.accelerator(1).is_none());
    }

    #[test]
    fn rate_per_second_uses_clock() {
        let mut sys = SocSystem::new(
            HyperConnect::new(HcConfig::new(1)),
            MemoryController::new(MemConfig::ideal()),
        );
        sys.topo.set_clock(ClockConfig::new(100));
        sys.add_accelerator(Box::new(Dma::new(
            "d",
            DmaConfig::reader(64, 16, BurstSize::B16).jobs(1),
        )))
        .unwrap();
        sys.run_until_done(1_000);
        // 1 job over `now` cycles of a 100 Hz clock.
        let expected = 100.0 / sys.now() as f64;
        assert!((sys.rate_per_second(0) - expected).abs() < 1e-9);
    }

    #[test]
    fn waveform_records_boundary_activity() {
        let mut sys = SocSystem::new(
            HyperConnect::new(HcConfig::new(1)),
            MemoryController::new(MemConfig::zcu102()),
        );
        sys.attach_waveform();
        sys.add_accelerator(Box::new(Dma::new(
            "d",
            DmaConfig::reader(1024, 16, BurstSize::B16).jobs(1),
        )))
        .unwrap();
        assert!(sys.run_until_done(100_000).is_done());
        let vcd = sys.waveform_vcd().expect("recording enabled");
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("ar_valid"));
        // Activity was captured: at least one rising edge on AR and R.
        assert!(vcd.lines().any(|l| l == "1!"), "no ar_valid activity");
        let body = vcd.split("$enddefinitions $end").nth(1).unwrap();
        assert!(body.contains("b"), "no bus value recorded");
        // Without recording, nothing is returned.
        let mut plain = SocSystem::new(
            HyperConnect::new(HcConfig::new(1)),
            MemoryController::new(MemConfig::ideal()),
        );
        plain
            .add_accelerator(Box::new(Dma::new(
                "d",
                DmaConfig::reader(64, 16, BurstSize::B16),
            )))
            .unwrap();
        plain.run_for(10);
        assert!(plain.waveform_vcd().is_none());
    }

    #[test]
    fn observability_snapshot_is_clean_and_complete() {
        let mut sys = SocSystem::new(
            HyperConnect::new(HcConfig::new(2)),
            MemoryController::new(MemConfig::zcu102()),
        );
        sys.enable_observability();
        sys.add_accelerator(Box::new(Dma::new(
            "d",
            DmaConfig::reader(4096, 16, BurstSize::B16).jobs(1),
        )))
        .unwrap();
        assert!(sys.run_until_done(1_000_000).is_done());
        // The bound monitor checked real traffic and found nothing.
        assert!(sys.interconnect_ref().bound_violations().is_empty());
        let report = sys.interconnect_ref().bound_report().unwrap();
        assert!(report.checked_reads > 0, "{report:?}");
        assert_eq!(report.violations, 0);
        let json = sys.metrics_snapshot_json().unwrap();
        assert!(json.contains("\"schema\":\"axi-hyperconnect/metrics-snapshot/v1\""));
        assert!(json.contains("\"interconnect\":\"HyperConnect\""));
        assert!(json.contains("\"enabled\":true"));
        // Memory saw outstanding requests at some point.
        assert!(sys.memory().outstanding_gauge().peak() > 0);
    }

    #[test]
    fn snapshot_is_none_without_metrics() {
        let mut sys = SocSystem::new(
            HyperConnect::new(HcConfig::new(1)),
            MemoryController::new(MemConfig::ideal()),
        );
        sys.add_accelerator(Box::new(Dma::new(
            "d",
            DmaConfig::reader(64, 16, BurstSize::B16),
        )))
        .unwrap();
        sys.run_for(100);
        assert!(sys.metrics_snapshot_json().is_none());
    }

    #[test]
    fn protocol_monitor_stays_clean_under_load() {
        let mut sys = SocSystem::new(
            HyperConnect::new(HcConfig::new(2)),
            MemoryController::new(MemConfig::default()),
        );
        sys.memory_mut().attach_monitor();
        sys.add_accelerator(Box::new(Dma::new(
            "a",
            DmaConfig {
                read_bytes: 8192,
                write_bytes: 8192,
                jobs: Some(2),
                ..DmaConfig::case_study()
            },
        )))
        .unwrap();
        sys.add_accelerator(Box::new(Dma::new(
            "b",
            DmaConfig {
                src_base: 0x3000_0000,
                dst_base: 0x3800_0000,
                read_bytes: 4096,
                write_bytes: 4096,
                jobs: Some(2),
                ..DmaConfig::case_study()
            },
        )))
        .unwrap();
        let out = sys.run_until_done(2_000_000);
        assert!(out.is_done(), "{out}");
        let monitor = sys.memory().monitor().unwrap();
        assert!(monitor.is_clean(), "{:?}", monitor.errors());
        assert!(monitor.reads_completed() > 0);
        assert!(monitor.writes_completed() > 0);
    }

    #[test]
    fn boxed_interconnect_facade_accessors_work() {
        let boxed: Box<dyn AxiInterconnect> = Box::new(HyperConnect::new(HcConfig::new(1)));
        let mut sys: SocSystem<Box<dyn AxiInterconnect>> =
            SocSystem::new(boxed, MemoryController::new(MemConfig::ideal()));
        assert_eq!(sys.interconnect_ref().name(), "HyperConnect");
        sys.add_accelerator(Box::new(Dma::new(
            "d",
            DmaConfig::reader(64, 16, BurstSize::B16).jobs(1),
        )))
        .unwrap();
        assert!(sys.run_until_done(100_000).is_done());
        assert!(sys.interconnect().is_idle());
    }
}
