//! The HyperConnect register driver.
//!
//! The paper ships the IP with an open-source driver; this is its model:
//! a thin, well-typed layer over the memory-mapped register file,
//! performing all accesses through the AXI-Lite bus (the PS-FPGA
//! interface path a real hypervisor would use), never touching model
//! internals.

use axi::lite::{DecodeError, LiteBus};
use hyperconnect::analysis::{budgets_from_shares, period_capacity_txns};
use hyperconnect::regfile::{
    offsets, port_block_offset, IP_VERSION, QUIESCE_DRAINED, QUIESCE_FLUSHED, QUIESCE_REQUESTED,
};

/// Typed accessor for one HyperConnect instance mapped on a [`LiteBus`].
///
/// Borrow-based: the hypervisor owns the bus, drivers are created on
/// demand for the device being configured.
#[derive(Debug, Clone, Copy)]
pub struct HcDriver<'b> {
    bus: &'b LiteBus,
    base: u64,
}

/// Error returned by driver operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverError {
    /// The bus had no device at the accessed address.
    Bus(DecodeError),
    /// The device did not identify as a HyperConnect.
    WrongDevice {
        /// The VERSION register value found.
        found: u32,
    },
    /// A port index beyond the device's port count.
    BadPort {
        /// The offending index.
        port: usize,
        /// Ports the device actually has.
        num_ports: usize,
    },
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Bus(e) => write!(f, "bus error: {e}"),
            DriverError::WrongDevice { found } => {
                write!(f, "device version {found:#x} is not a HyperConnect")
            }
            DriverError::BadPort { port, num_ports } => {
                write!(f, "port {port} out of range (device has {num_ports})")
            }
        }
    }
}

impl std::error::Error for DriverError {}

impl From<DecodeError> for DriverError {
    fn from(e: DecodeError) -> Self {
        DriverError::Bus(e)
    }
}

impl<'b> HcDriver<'b> {
    /// Binds a driver to the device at `base`, verifying its VERSION
    /// register.
    ///
    /// # Errors
    ///
    /// [`DriverError::Bus`] if nothing is mapped at `base`;
    /// [`DriverError::WrongDevice`] if the ID register mismatches.
    pub fn probe(bus: &'b LiteBus, base: u64) -> Result<Self, DriverError> {
        let version = bus.read32(base + offsets::VERSION)?;
        if version != IP_VERSION {
            return Err(DriverError::WrongDevice { found: version });
        }
        Ok(Self { bus, base })
    }

    /// Number of slave ports reported by the device.
    pub fn num_ports(&self) -> Result<usize, DriverError> {
        Ok(self.bus.read32(self.base + offsets::NPORTS)? as usize)
    }

    fn check_port(&self, port: usize) -> Result<(), DriverError> {
        let n = self.num_ports()?;
        if port >= n {
            return Err(DriverError::BadPort { port, num_ports: n });
        }
        Ok(())
    }

    /// Globally enables or disables the interconnect.
    pub fn set_enabled(&self, enabled: bool) -> Result<(), DriverError> {
        Ok(self
            .bus
            .write32(self.base + offsets::CTRL, enabled as u32)?)
    }

    /// Programs the reservation period in cycles.
    pub fn set_period(&self, cycles: u32) -> Result<(), DriverError> {
        Ok(self.bus.write32(self.base + offsets::PERIOD, cycles)?)
    }

    /// Reads the reservation period.
    pub fn period(&self) -> Result<u32, DriverError> {
        Ok(self.bus.read32(self.base + offsets::PERIOD)?)
    }

    /// Programs the nominal burst length in beats.
    pub fn set_nominal_burst(&self, beats: u32) -> Result<(), DriverError> {
        Ok(self.bus.write32(self.base + offsets::NOMINAL, beats)?)
    }

    /// Reads the nominal burst length.
    pub fn nominal_burst(&self) -> Result<u32, DriverError> {
        Ok(self.bus.read32(self.base + offsets::NOMINAL)?)
    }

    /// Programs a port's budget (sub-transactions per period);
    /// [`BUDGET_UNLIMITED`](hyperconnect::BUDGET_UNLIMITED) disables
    /// reservation for the port.
    pub fn set_budget(&self, port: usize, budget: u32) -> Result<(), DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_BUDGET;
        Ok(self.bus.write32(off, budget)?)
    }

    /// Reads a port's budget.
    pub fn budget(&self, port: usize) -> Result<u32, DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_BUDGET;
        Ok(self.bus.read32(off)?)
    }

    /// Partitions the bus bandwidth by percentage shares (the paper's
    /// `HC-X-Y`): translates shares into per-port budgets given the
    /// current period, nominal burst and the memory's first-word
    /// latency, then programs them.
    ///
    /// # Errors
    ///
    /// Propagates bus errors; panics (via the analysis helper) if the
    /// shares do not sum to 100 or the count mismatches the port count.
    pub fn set_bandwidth_shares(
        &self,
        shares_percent: &[u32],
        mem_first_word_latency: u64,
    ) -> Result<Vec<u32>, DriverError> {
        let n = self.num_ports()?;
        assert_eq!(shares_percent.len(), n, "one share per port required");
        let period = self.period()? as u64;
        let nominal = self.nominal_burst()?;
        let capacity = period_capacity_txns(period, nominal, mem_first_word_latency);
        let budgets = budgets_from_shares(capacity, shares_percent);
        for (p, &b) in budgets.iter().enumerate() {
            self.set_budget(p, b)?;
        }
        Ok(budgets)
    }

    /// Programs the global credit-refill window (cycles per regulator
    /// window; the device clamps to at least 1).
    pub fn set_regulation_window(&self, cycles: u32) -> Result<(), DriverError> {
        Ok(self.bus.write32(self.base + offsets::REG_WINDOW, cycles)?)
    }

    /// Reads the global credit-refill window.
    fn regulation_window(&self) -> Result<u32, DriverError> {
        Ok(self.bus.read32(self.base + offsets::REG_WINDOW)?)
    }

    /// Programs a port's regulator rate (credits per refill window);
    /// `u32::MAX` disables rate limiting for the port.
    pub fn set_rate(&self, port: usize, rate: u32) -> Result<(), DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_REG_RATE;
        Ok(self.bus.write32(off, rate)?)
    }

    /// Reads a port's regulator rate.
    pub fn rate(&self, port: usize) -> Result<u32, DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_REG_RATE;
        Ok(self.bus.read32(off)?)
    }

    /// Programs a port's regulator burst depth — the credit bank's
    /// capacity (the device clamps to at least 1).
    pub fn set_reg_burst(&self, port: usize, burst: u32) -> Result<(), DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_REG_BURST;
        Ok(self.bus.write32(off, burst)?)
    }

    /// Reads a port's regulator burst depth.
    pub fn reg_burst(&self, port: usize) -> Result<u32, DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_REG_BURST;
        Ok(self.bus.read32(off)?)
    }

    /// Programs a port's outstanding-transaction cap (reads plus
    /// writes in flight); `u32::MAX` disables the cap.
    pub fn set_out_cap(&self, port: usize, cap: u32) -> Result<(), DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_REG_OUT_CAP;
        Ok(self.bus.write32(off, cap)?)
    }

    /// Reads a port's outstanding-transaction cap.
    pub fn out_cap(&self, port: usize) -> Result<u32, DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_REG_OUT_CAP;
        Ok(self.bus.read32(off)?)
    }

    /// Throttle-onset events the port's regulator recorded since the
    /// last clear (saturating at `u32::MAX`).
    pub fn throttle_events(&self, port: usize) -> Result<u32, DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_REG_THROTTLE;
        Ok(self.bus.read32(off)?)
    }

    /// Clears a port's throttle-event counter (W1C).
    pub fn clear_throttle_events(&self, port: usize) -> Result<(), DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_REG_THROTTLE;
        Ok(self.bus.write32(off, 1)?)
    }

    /// Current stored `(read, write)` regulator credits of a port
    /// (each lane saturating at 0xFFFF in the packed register).
    pub fn credits(&self, port: usize) -> Result<(u32, u32), DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_REG_CREDITS;
        let packed = self.bus.read32(off)?;
        Ok((packed & 0xFFFF, packed >> 16))
    }

    /// Programs a port's outstanding-transaction limit.
    pub fn set_max_outstanding(&self, port: usize, limit: u32) -> Result<(), DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_MAX_OUT;
        Ok(self.bus.write32(off, limit)?)
    }

    /// Decouples (`true`) or recouples (`false`) a port — the paper's
    /// memory-subsystem decoupling for misbehaving accelerators.
    pub fn set_decoupled(&self, port: usize, decoupled: bool) -> Result<(), DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_CTRL;
        Ok(self.bus.write32(off, (!decoupled) as u32)?)
    }

    /// Whether a port is currently decoupled.
    pub fn is_decoupled(&self, port: usize) -> Result<bool, DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_CTRL;
        Ok(self.bus.read32(off)? & 1 == 0)
    }

    /// Requests a quiescent drain on a port: the interconnect stops
    /// admitting new transactions at the traffic supervisor while
    /// everything already staged or in flight completes. Poll
    /// [`HcDriver::quiesce_status`] for completion; if the device's
    /// drain deadline blows first, the hardware force-flushes and
    /// decouples the port, reporting the drops in the same status word.
    pub fn request_quiesce(&self, port: usize) -> Result<(), DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_QUIESCE;
        Ok(self.bus.write32(off, QUIESCE_REQUESTED)?)
    }

    /// Decodes the port's quiescent-drain status word.
    pub fn quiesce_status(&self, port: usize) -> Result<QuiesceStatus, DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_QUIESCE;
        let raw = self.bus.read32(off)?;
        Ok(QuiesceStatus {
            requested: raw & QUIESCE_REQUESTED != 0,
            drained: raw & QUIESCE_DRAINED != 0,
            force_flushed: raw & QUIESCE_FLUSHED != 0,
            dropped_txns: raw >> 16,
        })
    }

    /// Interconnect-side port reset: clears the sticky force-flush
    /// state and any pending quiesce request, and leaves the port
    /// decoupled so no traffic flows while the accelerator itself is
    /// being reset (a PL reset line or a partial-reconfiguration swap —
    /// outside this register file).
    pub fn reset_port(&self, port: usize) -> Result<(), DriverError> {
        self.set_decoupled(port, true)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_QUIESCE;
        // Bit 0 clear releases the quiesce; bit 2 is W1C for the
        // sticky flush state and the dropped-transaction count.
        Ok(self.bus.write32(off, QUIESCE_FLUSHED)?)
    }

    /// Reattaches a previously reset port: recouples it so traffic
    /// flows again. The hypervisor layer is responsible for re-arming
    /// its monitoring state around this call.
    pub fn reattach_port(&self, port: usize) -> Result<(), DriverError> {
        self.set_decoupled(port, false)
    }

    /// Sub-transactions a port issued in the current period.
    pub fn txns_this_period(&self, port: usize) -> Result<u32, DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_TXN_PERIOD;
        Ok(self.bus.read32(off)?)
    }

    /// Sub-transactions a port issued since reset (low 32 bits).
    pub fn txns_total(&self, port: usize) -> Result<u32, DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_TXN_TOTAL;
        Ok(self.bus.read32(off)?)
    }

    /// Transactions a port completed with a non-OKAY merged response
    /// since reset (saturating at `u32::MAX` through the 32-bit
    /// register window).
    pub fn err_total(&self, port: usize) -> Result<u32, DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_ERR_TOTAL;
        Ok(self.bus.read32(off)?)
    }

    /// Structured protocol violations detected on a port since reset.
    pub fn violations(&self, port: usize) -> Result<u32, DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_VIOLATIONS;
        Ok(self.bus.read32(off)?)
    }

    /// In-flight sub-transactions (reads plus writes) on a port.
    pub fn outstanding(&self, port: usize) -> Result<u32, DriverError> {
        self.check_port(port)?;
        let off = self.base + port_block_offset(port) + offsets::PORT_OUTSTANDING;
        Ok(self.bus.read32(off)?)
    }

    /// Captures the full runtime configuration — used around dynamic
    /// partial reconfiguration, where a bitstream swap must restore the
    /// interconnect policy afterwards.
    pub fn snapshot(&self) -> Result<HcSnapshot, DriverError> {
        let n = self.num_ports()?;
        let mut ports = Vec::with_capacity(n);
        for p in 0..n {
            let block = self.base + port_block_offset(p);
            ports.push(PortSnapshot {
                budget: self.bus.read32(block + offsets::PORT_BUDGET)?,
                enabled: self.bus.read32(block + offsets::PORT_CTRL)? & 1 == 1,
                max_outstanding: self.bus.read32(block + offsets::PORT_MAX_OUT)?,
                rate: self.bus.read32(block + offsets::PORT_REG_RATE)?,
                reg_burst: self.bus.read32(block + offsets::PORT_REG_BURST)?,
                out_cap: self.bus.read32(block + offsets::PORT_REG_OUT_CAP)?,
            });
        }
        Ok(HcSnapshot {
            period: self.period()?,
            nominal_burst: self.nominal_burst()?,
            regulation_window: self.regulation_window()?,
            ports,
        })
    }

    /// Reprograms the device from a snapshot.
    ///
    /// # Errors
    ///
    /// Fails if the snapshot's port count does not match the device.
    pub fn restore(&self, snapshot: &HcSnapshot) -> Result<(), DriverError> {
        let n = self.num_ports()?;
        if snapshot.ports.len() != n {
            return Err(DriverError::BadPort {
                port: snapshot.ports.len(),
                num_ports: n,
            });
        }
        self.set_period(snapshot.period)?;
        self.set_nominal_burst(snapshot.nominal_burst)?;
        self.set_regulation_window(snapshot.regulation_window)?;
        for (p, s) in snapshot.ports.iter().enumerate() {
            self.set_budget(p, s.budget)?;
            self.set_max_outstanding(p, s.max_outstanding)?;
            self.set_decoupled(p, !s.enabled)?;
            self.set_rate(p, s.rate)?;
            self.set_reg_burst(p, s.reg_burst)?;
            self.set_out_cap(p, s.out_cap)?;
        }
        Ok(())
    }
}

/// Decoded quiescent-drain status of one port — see
/// [`HcDriver::quiesce_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuiesceStatus {
    /// A quiesce is currently requested.
    pub requested: bool,
    /// The traffic supervisor has fully drained (write-back from the
    /// interconnect; cleared when the request is toggled).
    pub drained: bool,
    /// The drain deadline blew and the port was force-flushed
    /// (sticky until [`HcDriver::reset_port`] clears it).
    pub force_flushed: bool,
    /// Sub-transactions dropped by the force-flush (saturating at
    /// 0xFFFF).
    pub dropped_txns: u32,
}

/// Saved runtime configuration of one port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSnapshot {
    /// Budget register value.
    pub budget: u32,
    /// Coupled state.
    pub enabled: bool,
    /// Outstanding limit.
    pub max_outstanding: u32,
    /// Regulator rate (credits per refill window).
    pub rate: u32,
    /// Regulator burst depth.
    pub reg_burst: u32,
    /// Outstanding-transaction cap.
    pub out_cap: u32,
}

/// Saved runtime configuration of a whole HyperConnect — see
/// [`HcDriver::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HcSnapshot {
    /// Reservation period in cycles.
    pub period: u32,
    /// Nominal burst length in beats.
    pub nominal_burst: u32,
    /// Global credit-refill window in cycles.
    pub regulation_window: u32,
    /// Per-port configuration, in port order.
    pub ports: Vec<PortSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi::lite::LiteHandle;
    use hyperconnect::{HcConfig, HyperConnect, BUDGET_UNLIMITED};

    const BASE: u64 = 0xA000_0000;

    fn bus_with_hc(n: usize) -> (LiteBus, HyperConnect) {
        let hc = HyperConnect::new(HcConfig::new(n));
        let mut bus = LiteBus::new();
        bus.map(BASE, 0x1000, hc.regs().clone());
        (bus, hc)
    }

    #[test]
    fn probe_succeeds_on_hyperconnect() {
        let (bus, _hc) = bus_with_hc(2);
        let drv = HcDriver::probe(&bus, BASE).unwrap();
        assert_eq!(drv.num_ports().unwrap(), 2);
    }

    #[test]
    fn probe_fails_on_empty_bus() {
        let bus = LiteBus::new();
        assert!(matches!(
            HcDriver::probe(&bus, BASE),
            Err(DriverError::Bus(_))
        ));
    }

    #[test]
    fn probe_fails_on_wrong_device() {
        #[derive(Default)]
        struct NotHc;
        impl axi::lite::LiteDevice for NotHc {
            fn read32(&mut self, _o: u64) -> u32 {
                0xBAD
            }
            fn write32(&mut self, _o: u64, _v: u32) {}
        }
        let mut bus = LiteBus::new();
        bus.map(BASE, 0x1000, LiteHandle::new(NotHc));
        assert_eq!(
            HcDriver::probe(&bus, BASE).unwrap_err(),
            DriverError::WrongDevice { found: 0xBAD }
        );
    }

    #[test]
    fn global_configuration_roundtrip() {
        let (bus, _hc) = bus_with_hc(2);
        let drv = HcDriver::probe(&bus, BASE).unwrap();
        drv.set_period(10_000).unwrap();
        drv.set_nominal_burst(8).unwrap();
        assert_eq!(drv.period().unwrap(), 10_000);
        assert_eq!(drv.nominal_burst().unwrap(), 8);
    }

    #[test]
    fn budget_and_decouple_roundtrip() {
        let (bus, _hc) = bus_with_hc(3);
        let drv = HcDriver::probe(&bus, BASE).unwrap();
        drv.set_budget(1, 500).unwrap();
        assert_eq!(drv.budget(1).unwrap(), 500);
        assert!(!drv.is_decoupled(1).unwrap());
        drv.set_decoupled(1, true).unwrap();
        assert!(drv.is_decoupled(1).unwrap());
        drv.set_decoupled(1, false).unwrap();
        assert!(!drv.is_decoupled(1).unwrap());
        for p in 0..2 {
            drv.set_budget(p, BUDGET_UNLIMITED).unwrap();
        }
        assert_eq!(drv.budget(1).unwrap(), BUDGET_UNLIMITED);
    }

    #[test]
    fn bad_port_rejected() {
        let (bus, _hc) = bus_with_hc(2);
        let drv = HcDriver::probe(&bus, BASE).unwrap();
        assert_eq!(
            drv.set_budget(5, 1).unwrap_err(),
            DriverError::BadPort {
                port: 5,
                num_ports: 2
            }
        );
    }

    #[test]
    fn bandwidth_shares_program_budgets() {
        let (bus, _hc) = bus_with_hc(2);
        let drv = HcDriver::probe(&bus, BASE).unwrap();
        drv.set_period(16_022).unwrap(); // capacity = (16022-22)/16 = 1000
        let budgets = drv.set_bandwidth_shares(&[90, 10], 22).unwrap();
        assert_eq!(budgets, vec![900, 100]);
        assert_eq!(drv.budget(0).unwrap(), 900);
        assert_eq!(drv.budget(1).unwrap(), 100);
    }

    #[test]
    #[should_panic(expected = "one share per port")]
    fn share_count_must_match_ports() {
        let (bus, _hc) = bus_with_hc(2);
        let drv = HcDriver::probe(&bus, BASE).unwrap();
        let _ = drv.set_bandwidth_shares(&[100], 22);
    }

    #[test]
    fn driver_changes_reach_the_interconnect() {
        use axi::types::BurstSize;
        use axi::{ArBeat, AxiInterconnect};
        use sim::Component;

        let (bus, mut hc) = bus_with_hc(2);
        let drv = HcDriver::probe(&bus, BASE).unwrap();
        drv.set_decoupled(0, true).unwrap();
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 1, BurstSize::B4))
            .unwrap();
        for now in 0..20 {
            hc.tick(now);
        }
        assert!(
            hc.mem_port().ar.pop_ready(20).is_none(),
            "decoupled port must not reach memory"
        );
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let (bus, _hc) = bus_with_hc(2);
        let drv = HcDriver::probe(&bus, BASE).unwrap();
        drv.set_period(12_345).unwrap();
        drv.set_nominal_burst(8).unwrap();
        drv.set_budget(0, 77).unwrap();
        drv.set_max_outstanding(1, 9).unwrap();
        drv.set_decoupled(1, true).unwrap();
        drv.set_regulation_window(128).unwrap();
        drv.set_rate(0, 3).unwrap();
        drv.set_reg_burst(0, 5).unwrap();
        drv.set_out_cap(1, 2).unwrap();
        let snap = drv.snapshot().unwrap();
        // Scramble everything (as a DPR bitstream swap would reset it).
        drv.set_period(1).unwrap();
        drv.set_nominal_burst(1).unwrap();
        for p in 0..2 {
            drv.set_budget(p, BUDGET_UNLIMITED).unwrap();
        }
        drv.set_decoupled(1, false).unwrap();
        drv.set_max_outstanding(1, 1).unwrap();
        drv.set_regulation_window(1).unwrap();
        drv.set_rate(0, u32::MAX).unwrap();
        drv.set_reg_burst(0, 1).unwrap();
        drv.set_out_cap(1, u32::MAX).unwrap();
        // Restore and verify.
        drv.restore(&snap).unwrap();
        assert_eq!(drv.period().unwrap(), 12_345);
        assert_eq!(drv.nominal_burst().unwrap(), 8);
        assert_eq!(drv.budget(0).unwrap(), 77);
        assert!(drv.is_decoupled(1).unwrap());
        assert_eq!(drv.regulation_window().unwrap(), 128);
        assert_eq!(drv.rate(0).unwrap(), 3);
        assert_eq!(drv.reg_burst(0).unwrap(), 5);
        assert_eq!(drv.out_cap(1).unwrap(), 2);
        assert_eq!(drv.snapshot().unwrap(), snap);
    }

    #[test]
    fn regulator_programming_over_the_bus() {
        let (bus, _hc) = bus_with_hc(2);
        let drv = HcDriver::probe(&bus, BASE).unwrap();
        // Reset state: everything unlimited, default window.
        assert_eq!(drv.rate(0).unwrap(), u32::MAX);
        assert_eq!(drv.reg_burst(0).unwrap(), 1);
        assert_eq!(drv.out_cap(0).unwrap(), u32::MAX);
        assert_eq!(drv.throttle_events(0).unwrap(), 0);
        assert_eq!(
            drv.regulation_window().unwrap(),
            hyperconnect::regulate::DEFAULT_WINDOW
        );
        // Programs land and read back; the device clamps burst and
        // window to at least 1.
        drv.set_rate(1, 4).unwrap();
        drv.set_reg_burst(1, 0).unwrap();
        drv.set_out_cap(1, 6).unwrap();
        drv.set_regulation_window(0).unwrap();
        assert_eq!(drv.rate(1).unwrap(), 4);
        assert_eq!(drv.reg_burst(1).unwrap(), 1);
        assert_eq!(drv.out_cap(1).unwrap(), 6);
        assert_eq!(drv.regulation_window().unwrap(), 1);
        // Port 0 untouched by port-1 programming.
        assert_eq!(drv.rate(0).unwrap(), u32::MAX);
        // W1C clear is accepted on an idle counter.
        drv.clear_throttle_events(1).unwrap();
        assert_eq!(drv.throttle_events(1).unwrap(), 0);
        // Out-of-range ports are rejected like every other accessor.
        assert!(matches!(
            drv.set_rate(2, 1),
            Err(DriverError::BadPort { .. })
        ));
    }

    #[test]
    fn restore_rejects_mismatched_snapshot() {
        let (bus, _hc) = bus_with_hc(2);
        let drv = HcDriver::probe(&bus, BASE).unwrap();
        let mut snap = drv.snapshot().unwrap();
        snap.ports.pop();
        assert!(matches!(
            drv.restore(&snap),
            Err(DriverError::BadPort { .. })
        ));
    }

    #[test]
    fn quiesce_request_drain_and_release() {
        use sim::Component;

        let (bus, mut hc) = bus_with_hc(2);
        let drv = HcDriver::probe(&bus, BASE).unwrap();
        drv.request_quiesce(0).unwrap();
        let s = drv.quiesce_status(0).unwrap();
        assert!(s.requested && !s.drained && !s.force_flushed);
        // An idle port drains on the next cycle.
        hc.tick(0);
        assert!(drv.quiesce_status(0).unwrap().drained);
        bus.write32(BASE + port_block_offset(0) + offsets::PORT_QUIESCE, 0)
            .unwrap();
        let s = drv.quiesce_status(0).unwrap();
        assert!(!s.requested && !s.drained);
    }

    #[test]
    fn reset_and_reattach_cycle_port_state() {
        use axi::types::BurstSize;
        use axi::{ArBeat, AxiInterconnect};
        use sim::Component;

        let (bus, mut hc) = bus_with_hc(2);
        hc.set_drain_model(hyperconnect::analysis::ServiceModel::hyperconnect(
            2, 16, 22,
        ));
        let drv = HcDriver::probe(&bus, BASE).unwrap();
        // Pile up pre-grant state that can never complete (no memory
        // model attached), then quiesce until the deadline blows.
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 256, BurstSize::B4))
            .unwrap();
        for now in 0..6 {
            hc.tick(now);
        }
        drv.request_quiesce(0).unwrap();
        for now in 6..520 {
            hc.tick(now);
        }
        let s = drv.quiesce_status(0).unwrap();
        assert!(s.force_flushed && s.dropped_txns > 0);
        assert!(drv.is_decoupled(0).unwrap(), "flush decouples the port");
        // Reset clears the sticky state, keeps the port decoupled.
        drv.reset_port(0).unwrap();
        let s = drv.quiesce_status(0).unwrap();
        assert!(!s.requested && !s.force_flushed);
        assert_eq!(s.dropped_txns, 0);
        assert!(drv.is_decoupled(0).unwrap());
        // Reattach recouples.
        drv.reattach_port(0).unwrap();
        assert!(!drv.is_decoupled(0).unwrap());
    }

    #[test]
    fn error_display() {
        let e = DriverError::WrongDevice { found: 0x1 };
        assert!(e.to_string().contains("not a HyperConnect"));
        let e = DriverError::BadPort {
            port: 9,
            num_ports: 2,
        };
        assert!(e.to_string().contains("9"));
    }
}
