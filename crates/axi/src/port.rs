//! AXI port boundaries: the queue bundle both interconnect models expose,
//! and the [`AxiInterconnect`] trait the benchmark harness swaps between
//! the HyperConnect and the SmartConnect baseline.

use sim::{Component, Cycle, TimedFifo};

use crate::beat::{ArBeat, AwBeat, BBeat, RBeat, WBeat};

/// Queue sizing and latency for one [`AxiPort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortConfig {
    /// Capacity of the AR and AW queues, in requests.
    pub addr_capacity: usize,
    /// Capacity of the W and R queues, in beats.
    pub data_capacity: usize,
    /// Capacity of the B queue, in responses.
    pub resp_capacity: usize,
    /// Cycles between pushing into a queue and visibility at its output.
    /// Latency 0 models a plain wire boundary; the interconnect models
    /// add their pipeline latency internally.
    pub latency: Cycle,
}

impl PortConfig {
    /// A zero-latency boundary with generous buffering — the default for
    /// the external edges of an interconnect model.
    pub fn wire() -> Self {
        Self {
            addr_capacity: 8,
            data_capacity: 64,
            resp_capacity: 8,
            latency: 0,
        }
    }

    /// A single-cycle registered boundary (one pipeline stage).
    pub fn registered() -> Self {
        Self {
            latency: 1,
            ..Self::wire()
        }
    }

    /// Overrides the address-queue capacity.
    pub fn addr_capacity(mut self, n: usize) -> Self {
        self.addr_capacity = n;
        self
    }

    /// Overrides the data-queue capacity.
    pub fn data_capacity(mut self, n: usize) -> Self {
        self.data_capacity = n;
        self
    }
}

impl Default for PortConfig {
    fn default() -> Self {
        Self::wire()
    }
}

/// One AXI port boundary: five independent channel queues.
///
/// Orientation convention: `ar`, `aw` and `w` flow *downstream* (from a
/// master toward memory); `r` and `b` flow *upstream* (back toward the
/// master). At an interconnect **slave port** the accelerator pushes
/// `ar/aw/w` and pops `r/b`; at the interconnect **master port** the
/// interconnect pushes `ar/aw/w` and the memory controller pops them,
/// pushing `r/b` back.
#[derive(Debug, Clone)]
pub struct AxiPort {
    /// Read-address channel, downstream.
    pub ar: TimedFifo<ArBeat>,
    /// Write-address channel, downstream.
    pub aw: TimedFifo<AwBeat>,
    /// Write-data channel, downstream.
    pub w: TimedFifo<WBeat>,
    /// Read-data channel, upstream.
    pub r: TimedFifo<RBeat>,
    /// Write-response channel, upstream.
    pub b: TimedFifo<BBeat>,
}

impl AxiPort {
    /// Creates a port with the given configuration.
    pub fn new(config: PortConfig) -> Self {
        Self {
            ar: TimedFifo::new(config.addr_capacity, config.latency),
            aw: TimedFifo::new(config.addr_capacity, config.latency),
            w: TimedFifo::new(config.data_capacity, config.latency),
            r: TimedFifo::new(config.data_capacity, config.latency),
            b: TimedFifo::new(config.resp_capacity, config.latency),
        }
    }

    /// Whether every queue is empty (the port is quiescent).
    pub fn is_idle(&self) -> bool {
        self.ar.is_empty()
            && self.aw.is_empty()
            && self.w.is_empty()
            && self.r.is_empty()
            && self.b.is_empty()
    }

    /// Total queued elements across all five channels.
    pub fn occupancy(&self) -> usize {
        self.ar.len() + self.aw.len() + self.w.len() + self.r.len() + self.b.len()
    }

    /// Earliest cycle at which any queued beat on any channel becomes
    /// visible at its queue output, or `None` when the port is idle.
    /// Event-horizon hint for the fast-forward scheduler.
    pub fn next_ready_at(&self) -> Option<Cycle> {
        [
            self.ar.next_ready_at(),
            self.aw.next_ready_at(),
            self.w.next_ready_at(),
            self.r.next_ready_at(),
            self.b.next_ready_at(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// A stamp of the port's traffic (the sum of its queues'
    /// [`TimedFifo::activity`]): two equal stamps mean no queue of the
    /// port was pushed to, popped from or flushed in between. The
    /// topology engine uses it to let an accelerator whose port nobody
    /// touched sleep.
    pub fn activity(&self) -> u64 {
        self.ar
            .activity()
            .wrapping_add(self.aw.activity())
            .wrapping_add(self.w.activity())
            .wrapping_add(self.r.activity())
            .wrapping_add(self.b.activity())
    }

    /// Flushes every channel queue (synchronous reset).
    pub fn clear(&mut self) {
        self.ar.clear();
        self.aw.clear();
        self.w.clear();
        self.r.clear();
        self.b.clear();
    }
}

impl Default for AxiPort {
    fn default() -> Self {
        Self::new(PortConfig::default())
    }
}

/// Behaviour common to every N-slave-ports, 1-master-port AXI
/// interconnect model (the architecture the paper studies: a set of
/// accelerators funneled into one FPGA-PS interface port).
///
/// Implemented by `hyperconnect::HyperConnect` and
/// `smartconnect::SmartConnect`; the benchmark harness is generic over
/// this trait so every experiment runs identically on both.
pub trait AxiInterconnect: Component {
    /// Number of slave (accelerator-facing) ports.
    fn num_ports(&self) -> usize;

    /// The `i`-th slave port boundary.
    ///
    /// # Panics
    ///
    /// Implementations panic if `i >= num_ports()`.
    fn port(&mut self, i: usize) -> &mut AxiPort;

    /// The single master port boundary (toward the FPGA-PS interface).
    fn mem_port(&mut self) -> &mut AxiPort;

    /// Writes each slave port's [`AxiPort::activity`] stamp into
    /// `stamps`, in port order: one call tells which ports anything
    /// touched since the last one.
    ///
    /// # Panics
    ///
    /// Implementations panic if `stamps` is shorter than `num_ports()`.
    fn port_activity(&self, stamps: &mut [u64]);

    /// Short human-readable model name for reports (e.g. `"HyperConnect"`).
    fn name(&self) -> &'static str;

    /// Whether all internal state and boundary queues are empty.
    fn is_idle(&self) -> bool;

    /// The transaction-level metrics registry, when observability is
    /// enabled on this model; `None` otherwise (the default).
    fn metrics(&self) -> Option<&crate::observe::MetricsRegistry> {
        None
    }

    /// Mutable access to the metrics registry, when observability is
    /// enabled; `None` otherwise (the default). The topology layer uses
    /// this to namespace each instance's registry with its node label.
    fn metrics_mut(&mut self) -> Option<&mut crate::observe::MetricsRegistry> {
        None
    }

    /// Type-erased view of the concrete model, letting holders of a
    /// `dyn AxiInterconnect` (e.g. a topology node) downcast back to
    /// `HyperConnect`/`SmartConnect` for model-specific configuration.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable type-erased view (see [`AxiInterconnect::as_any`]).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Bound violations recorded by this model's runtime bound monitor,
    /// in detection order; empty when no monitor is armed (the default).
    fn bound_violations(&self) -> &[crate::observe::BoundViolation] {
        &[]
    }

    /// Summary of the runtime bound monitor's activity, when one is
    /// armed; `None` otherwise (the default).
    fn bound_report(&self) -> Option<crate::observe::BoundReport> {
        None
    }

    /// Appends this model's complete mutable state (boundary queues,
    /// internal pipelines, registers, statistics) to a snapshot writer.
    ///
    /// Deliberately *required* (no default): every interconnect model
    /// must participate in snapshot/restore, and the compiler enforces
    /// it at each impl site.
    fn save_state(&self, w: &mut sim::persist::SnapshotWriter);

    /// Restores state previously written by
    /// [`save_state`](AxiInterconnect::save_state) into this model,
    /// which must have been constructed (and configured) identically to
    /// the saved one.
    ///
    /// # Errors
    ///
    /// Returns [`sim::persist::PersistError`] on a truncated, corrupt or
    /// differently-shaped stream.
    fn restore_state(
        &mut self,
        r: &mut sim::persist::SnapshotReader<'_>,
    ) -> Result<(), sim::persist::PersistError>;
}

impl<T: AxiInterconnect + ?Sized> AxiInterconnect for Box<T> {
    fn num_ports(&self) -> usize {
        (**self).num_ports()
    }
    fn port(&mut self, i: usize) -> &mut AxiPort {
        (**self).port(i)
    }
    fn mem_port(&mut self) -> &mut AxiPort {
        (**self).mem_port()
    }
    fn port_activity(&self, stamps: &mut [u64]) {
        (**self).port_activity(stamps)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn is_idle(&self) -> bool {
        (**self).is_idle()
    }
    fn metrics(&self) -> Option<&crate::observe::MetricsRegistry> {
        (**self).metrics()
    }
    fn metrics_mut(&mut self) -> Option<&mut crate::observe::MetricsRegistry> {
        (**self).metrics_mut()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        (**self).as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        (**self).as_any_mut()
    }
    fn bound_violations(&self) -> &[crate::observe::BoundViolation] {
        (**self).bound_violations()
    }
    fn bound_report(&self) -> Option<crate::observe::BoundReport> {
        (**self).bound_report()
    }
    fn save_state(&self, w: &mut sim::persist::SnapshotWriter) {
        (**self).save_state(w)
    }
    fn restore_state(
        &mut self,
        r: &mut sim::persist::SnapshotReader<'_>,
    ) -> Result<(), sim::persist::PersistError> {
        (**self).restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BurstSize;

    #[test]
    fn wire_config_is_zero_latency() {
        let cfg = PortConfig::wire();
        assert_eq!(cfg.latency, 0);
        let reg = PortConfig::registered();
        assert_eq!(reg.latency, 1);
        assert_eq!(reg.addr_capacity, cfg.addr_capacity);
    }

    #[test]
    fn config_builders() {
        let cfg = PortConfig::wire().addr_capacity(2).data_capacity(4);
        assert_eq!(cfg.addr_capacity, 2);
        assert_eq!(cfg.data_capacity, 4);
    }

    #[test]
    fn new_port_is_idle() {
        let p = AxiPort::default();
        assert!(p.is_idle());
        assert_eq!(p.occupancy(), 0);
    }

    #[test]
    fn occupancy_counts_all_channels() {
        let mut p = AxiPort::default();
        p.ar.push(0, ArBeat::new(0, 1, BurstSize::B4)).unwrap();
        p.w.push(0, WBeat::new(vec![0; 4], true)).unwrap();
        p.b.push(0, BBeat::new(crate::types::AxiId(0))).unwrap();
        assert_eq!(p.occupancy(), 3);
        assert!(!p.is_idle());
    }

    #[test]
    fn clear_resets_everything() {
        let mut p = AxiPort::default();
        p.aw.push(0, AwBeat::new(0, 1, BurstSize::B4)).unwrap();
        p.r.push(0, RBeat::new(crate::types::AxiId(0), vec![], true))
            .unwrap();
        p.clear();
        assert!(p.is_idle());
    }

    #[test]
    fn queue_capacities_respected() {
        let mut p = AxiPort::new(PortConfig::wire().addr_capacity(1));
        p.ar.push(0, ArBeat::new(0, 1, BurstSize::B4)).unwrap();
        assert!(p.ar.push(0, ArBeat::new(64, 1, BurstSize::B4)).is_err());
    }
}
