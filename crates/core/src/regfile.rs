//! The HyperConnect's memory-mapped register file (AXI-Lite control
//! interface).
//!
//! This is the paper's *runtime reconfiguration* surface (§V-A): the
//! hypervisor programs bandwidth budgets, the reservation period, the
//! nominal burst size, outstanding-transaction limits and per-port
//! decoupling by writing these registers through the PS-FPGA interface,
//! with no re-synthesis.
//!
//! # Register map
//!
//! | Offset | Name | Access | Meaning |
//! |---|---|---|---|
//! | `0x00` | `CTRL` | RW | bit 0: global enable (reset value 1) |
//! | `0x04` | `PERIOD` | RW | reservation period T in cycles |
//! | `0x08` | `NOMINAL` | RW | nominal burst length in beats (1–256) |
//! | `0x0C` | `NPORTS` | RO | number of slave ports |
//! | `0x10` | `VERSION` | RO | IP identification (`0x4843_2020`) |
//! | `0x14` | `REG_WINDOW` | RW | regulator credit-refill window in cycles (>= 1, reset 64) |
//!
//! Per-port block at `0x40 + i * 0x40`:
//!
//! | Offset | Name | Access | Meaning |
//! |---|---|---|---|
//! | `+0x00` | `BUDGET` | RW | sub-transactions per period (`0xFFFF_FFFF` = unlimited) |
//! | `+0x04` | `PORT_CTRL` | RW | bit 0: port enable / not decoupled (reset 1) |
//! | `+0x08` | `MAX_OUT` | RW | outstanding sub-transaction limit per direction |
//! | `+0x0C` | `TXN_PERIOD` | RO | sub-transactions issued in the current period |
//! | `+0x10` | `TXN_TOTAL` | RO | sub-transactions issued since reset (saturates at `0xFFFF_FFFF`) |
//! | `+0x14` | `VIOLATIONS` | RO | structured protocol violations detected since reset |
//! | `+0x18` | `OUTSTANDING` | RO | in-flight sub-transactions (reads + writes) |
//! | `+0x1C` | `QUIESCE` | RW | bit 0 W: request/release quiesce; read: bit 0 requested, bit 1 drained, bit 2 force-flushed (sticky), bits 31:16 dropped sub-txns; bit 2 W1C clears the sticky flush state |
//! | `+0x20` | `REG_RATE` | RW | regulator credits per refill window, each lane (`0xFFFF_FFFF` = unlimited, reset) |
//! | `+0x24` | `REG_BURST` | RW | regulator burst depth: max accumulated credits per lane (>= 1, reset 1) |
//! | `+0x28` | `REG_OUT_CAP` | RW | cap on total outstanding sub-transactions (`0xFFFF_FFFF` = unlimited, reset) |
//! | `+0x2C` | `REG_THROTTLE` | RW1C | throttle-onset events since last clear (saturating); any write with bit 0 set clears |
//! | `+0x30` | `REG_CREDITS` | RO | stored credits: bits 15:0 read lane, bits 31:16 write lane (each saturated at `0xFFFF`) |
//! | `+0x34` | `ERR_TOTAL` | RO | transactions completed with a non-OKAY merged response since reset (saturating) |

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::regulate::{RegulatorConfig, DEFAULT_WINDOW, OUT_CAP_UNLIMITED, RATE_UNLIMITED};
use axi::lite::LiteDevice;

/// Value read back from the `VERSION` register.
pub const IP_VERSION: u32 = 0x4843_2020; // "HC  "

/// `BUDGET` value meaning "no reservation enforced on this port".
pub const BUDGET_UNLIMITED: u32 = u32::MAX;

const REG_CTRL: u64 = 0x00;
const REG_PERIOD: u64 = 0x04;
const REG_NOMINAL: u64 = 0x08;
const REG_NPORTS: u64 = 0x0C;
const REG_VERSION: u64 = 0x10;
const REG_WINDOW: u64 = 0x14;
const PORT_BASE: u64 = 0x40;
const PORT_STRIDE: u64 = 0x40;
const PORT_BUDGET: u64 = 0x00;
const PORT_CTRL: u64 = 0x04;
const PORT_MAX_OUT: u64 = 0x08;
const PORT_TXN_PERIOD: u64 = 0x0C;
const PORT_TXN_TOTAL: u64 = 0x10;
const PORT_VIOLATIONS: u64 = 0x14;
const PORT_OUTSTANDING: u64 = 0x18;
const PORT_QUIESCE: u64 = 0x1C;
const PORT_REG_RATE: u64 = 0x20;
const PORT_REG_BURST: u64 = 0x24;
const PORT_REG_OUT_CAP: u64 = 0x28;
const PORT_REG_THROTTLE: u64 = 0x2C;
const PORT_REG_CREDITS: u64 = 0x30;
const PORT_ERR_TOTAL: u64 = 0x34;

/// `QUIESCE` read: quiesce requested (drain in progress or complete).
pub const QUIESCE_REQUESTED: u32 = 1 << 0;
/// `QUIESCE` read: the port's pipeline state has fully drained.
pub const QUIESCE_DRAINED: u32 = 1 << 1;
/// `QUIESCE` read: sticky — a drain blew its deadline and staged state
/// was force-flushed. Write 1 to this bit to clear (W1C).
pub const QUIESCE_FLUSHED: u32 = 1 << 2;

/// Runtime-visible state of one slave port: a copy of its control
/// registers and its status registers, read together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortRegs {
    /// Sub-transactions allowed per reservation period.
    pub budget: u32,
    /// Whether the port is coupled to the system (false = decoupled).
    pub enabled: bool,
    /// Maximum outstanding sub-transactions per direction.
    pub max_outstanding: u32,
    /// Sub-transactions issued in the current period (updated by the TS).
    pub txn_this_period: u32,
    /// Sub-transactions issued since reset (updated by the TS).
    pub txn_total: u64,
    /// Structured violations detected on this port since reset (updated
    /// by the interconnect; the hypervisor watchdog polls it).
    pub violations: u32,
    /// In-flight sub-transactions, reads plus writes (updated by the TS).
    pub outstanding: u32,
    /// Quiesce requested (written by the driver; consumed by the TS,
    /// which stops admitting new transactions while set).
    pub quiesce_requested: bool,
    /// Drain-complete status (written back by the interconnect once the
    /// port's pipeline state is empty under an active quiesce).
    pub drained: bool,
    /// Sticky: a drain blew its deadline and staged state was dropped.
    pub force_flushed: bool,
    /// Sub-transactions dropped by force-flushes on this port (sticky,
    /// cleared together with `force_flushed`).
    pub dropped_txns: u32,
    /// Regulator credits per refill window ([`RATE_UNLIMITED`] = off).
    pub rate: u32,
    /// Regulator burst depth (max accumulated credits per lane).
    pub reg_burst: u32,
    /// Cap on total outstanding sub-transactions
    /// ([`OUT_CAP_UNLIMITED`] = off).
    pub out_cap: u32,
    /// Throttle-onset events since the last W1C clear (updated by the
    /// interconnect from the TS regulator; saturates at `u32::MAX` on
    /// read).
    pub throttle_events: u64,
    /// Pending W1C clear of the throttle counter, consumed by the
    /// interconnect on its next slow-path tick (the triggering write
    /// bumps the generation, so that tick is never skipped).
    pub throttle_clear: bool,
    /// Stored read-lane credits (written back by the interconnect).
    pub read_credits: u32,
    /// Stored write-lane credits (written back by the interconnect).
    pub write_credits: u32,
    /// Transactions completed with a non-OKAY merged response since
    /// reset (updated by the TS; saturates at `u32::MAX` on read).
    pub err_total: u64,
}

impl Default for PortRegs {
    fn default() -> Self {
        Self {
            budget: BUDGET_UNLIMITED,
            enabled: true,
            max_outstanding: 4,
            txn_this_period: 0,
            txn_total: 0,
            violations: 0,
            outstanding: 0,
            quiesce_requested: false,
            drained: false,
            force_flushed: false,
            dropped_txns: 0,
            rate: RATE_UNLIMITED,
            reg_burst: 1,
            out_cap: OUT_CAP_UNLIMITED,
            throttle_events: 0,
            throttle_clear: false,
            read_credits: 0,
            write_credits: 0,
            err_total: 0,
        }
    }
}

/// The registers of one port that change only under the register lock:
/// what the driver programs, and the drain status the interconnect
/// writes back on its slow path. Fields as in [`PortRegs`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortControl {
    pub budget: u32,
    pub enabled: bool,
    pub max_outstanding: u32,
    pub quiesce_requested: bool,
    pub drained: bool,
    pub force_flushed: bool,
    pub dropped_txns: u32,
    pub rate: u32,
    pub reg_burst: u32,
    pub out_cap: u32,
    pub throttle_clear: bool,
}

/// The status registers of one port: the TS counters the interconnect
/// writes back on every tick that visits the port. Fields as in
/// [`PortRegs`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PortStatus {
    pub txn_this_period: u32,
    pub txn_total: u64,
    pub violations: u32,
    pub outstanding: u32,
    pub throttle_events: u64,
    pub read_credits: u32,
    pub write_credits: u32,
    pub err_total: u64,
}

impl PortRegs {
    fn new(c: PortControl, s: PortStatus) -> Self {
        Self {
            budget: c.budget,
            enabled: c.enabled,
            max_outstanding: c.max_outstanding,
            txn_this_period: s.txn_this_period,
            txn_total: s.txn_total,
            violations: s.violations,
            outstanding: s.outstanding,
            quiesce_requested: c.quiesce_requested,
            drained: c.drained,
            force_flushed: c.force_flushed,
            dropped_txns: c.dropped_txns,
            rate: c.rate,
            reg_burst: c.reg_burst,
            out_cap: c.out_cap,
            throttle_events: s.throttle_events,
            throttle_clear: c.throttle_clear,
            read_credits: s.read_credits,
            write_credits: s.write_credits,
            err_total: s.err_total,
        }
    }

    fn control(&self) -> PortControl {
        PortControl {
            budget: self.budget,
            enabled: self.enabled,
            max_outstanding: self.max_outstanding,
            quiesce_requested: self.quiesce_requested,
            drained: self.drained,
            force_flushed: self.force_flushed,
            dropped_txns: self.dropped_txns,
            rate: self.rate,
            reg_burst: self.reg_burst,
            out_cap: self.out_cap,
            throttle_clear: self.throttle_clear,
        }
    }

    fn status(&self) -> PortStatus {
        PortStatus {
            txn_this_period: self.txn_this_period,
            txn_total: self.txn_total,
            violations: self.violations,
            outstanding: self.outstanding,
            throttle_events: self.throttle_events,
            read_credits: self.read_credits,
            write_credits: self.write_credits,
            err_total: self.err_total,
        }
    }
}

/// [`PortStatus`] as relaxed atomics.
#[derive(Debug, Default)]
struct AtomicPortStatus {
    txn_this_period: AtomicU32,
    txn_total: AtomicU64,
    violations: AtomicU32,
    outstanding: AtomicU32,
    throttle_events: AtomicU64,
    read_credits: AtomicU32,
    write_credits: AtomicU32,
    err_total: AtomicU64,
}

impl AtomicPortStatus {
    fn load(&self) -> PortStatus {
        PortStatus {
            txn_this_period: self.txn_this_period.load(Relaxed),
            txn_total: self.txn_total.load(Relaxed),
            violations: self.violations.load(Relaxed),
            outstanding: self.outstanding.load(Relaxed),
            throttle_events: self.throttle_events.load(Relaxed),
            read_credits: self.read_credits.load(Relaxed),
            write_credits: self.write_credits.load(Relaxed),
            err_total: self.err_total.load(Relaxed),
        }
    }

    fn store(&self, s: &PortStatus) {
        self.txn_this_period.store(s.txn_this_period, Relaxed);
        self.txn_total.store(s.txn_total, Relaxed);
        self.violations.store(s.violations, Relaxed);
        self.outstanding.store(s.outstanding, Relaxed);
        self.throttle_events.store(s.throttle_events, Relaxed);
        self.read_credits.store(s.read_credits, Relaxed);
        self.write_credits.store(s.write_credits, Relaxed);
        self.err_total.store(s.err_total, Relaxed);
    }
}

/// The part of the register file the interconnect touches every tick:
/// the configuration generation and every port's status registers.
///
/// A [`RegFile`] and its interconnect share one block through an `Arc`,
/// so the interconnect's phase-0 fast path reads the generation and
/// writes status back without taking the register lock. Every value
/// here is a statistic or a change marker and publishes no other data,
/// so all accesses are `Relaxed`: when the interconnect sees a new
/// generation it takes the register lock, and the lock orders the
/// control registers it then reads.
#[derive(Debug)]
pub(crate) struct StatusBlock {
    generation: AtomicU64,
    ports: Box<[AtomicPortStatus]>,
}

impl StatusBlock {
    fn new(num_ports: usize) -> Self {
        Self {
            generation: AtomicU64::new(0),
            ports: (0..num_ports)
                .map(|_| AtomicPortStatus::default())
                .collect(),
        }
    }

    /// The configuration generation (see [`RegFile::generation`]).
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Relaxed)
    }

    /// Port `i`'s status registers.
    pub(crate) fn load(&self, i: usize) -> PortStatus {
        self.ports[i].load()
    }

    /// Overwrites port `i`'s status registers.
    pub(crate) fn store(&self, i: usize, s: &PortStatus) {
        self.ports[i].store(s);
    }

    /// Copies `other`'s generation and status registers into this block.
    fn copy_from(&self, other: &StatusBlock) {
        self.generation.store(other.generation(), Relaxed);
        for (dst, src) in self.ports.iter().zip(other.ports.iter()) {
            dst.store(&src.load());
        }
    }

    /// Bumps the generation. Only a holder of `&mut RegFile` (the
    /// register lock) writes it, so the increment needs no atomic
    /// read-modify-write.
    fn bump(&self) {
        self.generation.store(self.generation() + 1, Relaxed);
    }
}

/// The HyperConnect register file.
///
/// Owned jointly (through [`axi::lite::LiteHandle`]) by the simulated
/// interconnect, which consults it every cycle, and by the hypervisor
/// driver, which reads/writes it over the modeled control bus. The
/// generation and the status registers live in a status block the
/// interconnect also holds directly; everything else is read and
/// written under the handle's lock.
#[derive(Debug)]
pub struct RegFile {
    enabled: bool,
    period: u32,
    nominal_burst: u32,
    reg_window: u32,
    ports: Vec<PortControl>,
    status: Arc<StatusBlock>,
}

/// A clone gets a status block of its own: it copies the registers, it
/// does not share them with the original's interconnect.
impl Clone for RegFile {
    fn clone(&self) -> Self {
        let status = StatusBlock::new(self.ports.len());
        status.copy_from(&self.status);
        Self {
            enabled: self.enabled,
            period: self.period,
            nominal_burst: self.nominal_burst,
            reg_window: self.reg_window,
            ports: self.ports.clone(),
            status: Arc::new(status),
        }
    }
}

impl RegFile {
    /// Default reservation period in cycles.
    pub const DEFAULT_PERIOD: u32 = 65_536;

    /// Default nominal burst length in beats — the 16-beat burst that
    /// both the paper's Fig. 3(b) and the Xilinx DMA defaults use.
    pub const DEFAULT_NOMINAL: u32 = 16;

    /// Creates the reset-state register file for `num_ports` ports.
    ///
    /// Reset state: globally enabled, all ports enabled, unlimited
    /// budgets, period `65536`, nominal burst `16` beats.
    ///
    /// # Panics
    ///
    /// Panics if `num_ports` is zero.
    pub fn new(num_ports: usize) -> Self {
        assert!(num_ports > 0, "register file needs at least one port");
        Self {
            enabled: true,
            period: Self::DEFAULT_PERIOD,
            nominal_burst: Self::DEFAULT_NOMINAL,
            reg_window: DEFAULT_WINDOW,
            ports: vec![PortRegs::default().control(); num_ports],
            status: Arc::new(StatusBlock::new(num_ports)),
        }
    }

    /// The block of generation and status registers this register
    /// file shares with its interconnect.
    pub(crate) fn status_block(&self) -> &Arc<StatusBlock> {
        &self.status
    }

    /// Replaces every register with `other`'s, in place: the shared
    /// status block stays the one the interconnect holds.
    ///
    /// # Panics
    ///
    /// Panics if the port counts differ.
    pub(crate) fn install(&mut self, other: RegFile) {
        assert_eq!(
            self.ports.len(),
            other.ports.len(),
            "register file port count"
        );
        self.status.copy_from(&other.status);
        self.enabled = other.enabled;
        self.period = other.period;
        self.nominal_burst = other.nominal_burst;
        self.reg_window = other.reg_window;
        self.ports = other.ports;
    }

    /// Monotonic configuration generation: bumped on every control-plane
    /// write (AXI-Lite `write32` or a typed setter), but *not* by the
    /// interconnect's own write-backs or period recharges. The
    /// interconnect's phase-0 fast path compares it with the generation
    /// it last saw to detect reconfiguration.
    pub fn generation(&self) -> u64 {
        self.status.generation()
    }

    /// Number of per-port register blocks.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Global enable.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Reservation period in cycles.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Nominal burst length in beats.
    pub fn nominal_burst(&self) -> u32 {
        self.nominal_burst
    }

    /// The regulator configuration of port `i`, assembled from the
    /// per-port rate/burst/cap registers and the global window.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn regulator_config(&self, i: usize) -> RegulatorConfig {
        let p = &self.ports[i];
        RegulatorConfig {
            rate: p.rate,
            burst: p.reg_burst.max(1),
            out_cap: p.out_cap,
            window: self.reg_window,
        }
    }

    /// A copy of port `i`'s registers.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn port(&self, i: usize) -> PortRegs {
        PortRegs::new(self.ports[i], self.status.load(i))
    }

    /// Mutable control registers of port `i`, for the interconnect's
    /// drain-status write-back; not a control-plane write, so the
    /// generation stays.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn port_mut(&mut self, i: usize) -> &mut PortControl {
        &mut self.ports[i]
    }

    /// Typed write helpers used by tests and the driver model.
    pub fn set_budget(&mut self, port: usize, budget: u32) {
        self.ports[port].budget = budget;
        self.status.bump();
    }

    /// Enables/decouples port `i`.
    pub fn set_enabled(&mut self, port: usize, enabled: bool) {
        self.ports[port].enabled = enabled;
        self.status.bump();
    }

    /// Sets the reservation period (clamped to at least 1).
    pub fn set_period(&mut self, period: u32) {
        self.period = period.max(1);
        self.status.bump();
    }

    /// Sets the nominal burst length (clamped to 1–256).
    pub fn set_nominal_burst(&mut self, beats: u32) {
        self.nominal_burst = beats.clamp(1, 256);
        self.status.bump();
    }

    /// Sets the global regulator refill window (clamped to at least 1).
    pub fn set_reg_window(&mut self, cycles: u32) {
        self.reg_window = cycles.max(1);
        self.status.bump();
    }

    /// Sets port `i`'s regulator rate ([`RATE_UNLIMITED`] disables).
    pub fn set_rate(&mut self, port: usize, rate: u32) {
        self.ports[port].rate = rate;
        self.status.bump();
    }

    /// Sets port `i`'s regulator burst depth (clamped to at least 1).
    pub fn set_reg_burst(&mut self, port: usize, burst: u32) {
        self.ports[port].reg_burst = burst.max(1);
        self.status.bump();
    }

    /// Sets port `i`'s outstanding-transaction cap
    /// ([`OUT_CAP_UNLIMITED`] disables).
    pub fn set_out_cap(&mut self, port: usize, cap: u32) {
        self.ports[port].out_cap = cap;
        self.status.bump();
    }

    /// Clears all per-period transaction counters (called by the central
    /// unit at each period boundary).
    pub fn recharge(&mut self) {
        for p in self.status.ports.iter() {
            p.txn_this_period.store(0, Relaxed);
        }
    }

    fn decode_port(&self, offset: u64) -> Option<(usize, u64)> {
        if offset < PORT_BASE {
            return None;
        }
        let idx = ((offset - PORT_BASE) / PORT_STRIDE) as usize;
        let reg = (offset - PORT_BASE) % PORT_STRIDE;
        (idx < self.ports.len()).then_some((idx, reg))
    }
}

impl LiteDevice for RegFile {
    fn read32(&mut self, offset: u64) -> u32 {
        match offset {
            REG_CTRL => self.enabled as u32,
            REG_PERIOD => self.period,
            REG_NOMINAL => self.nominal_burst,
            REG_NPORTS => self.ports.len() as u32,
            REG_VERSION => IP_VERSION,
            REG_WINDOW => self.reg_window,
            _ => match self.decode_port(offset) {
                Some((i, PORT_BUDGET)) => self.ports[i].budget,
                Some((i, PORT_CTRL)) => self.ports[i].enabled as u32,
                Some((i, PORT_MAX_OUT)) => self.ports[i].max_outstanding,
                Some((i, PORT_TXN_PERIOD)) => self.status.load(i).txn_this_period,
                // Hardware-register semantics: a 64-bit counter read
                // through a 32-bit window saturates instead of wrapping,
                // so long campaigns read as "pinned at max", never as a
                // silently small value.
                Some((i, PORT_TXN_TOTAL)) => {
                    u32::try_from(self.status.load(i).txn_total).unwrap_or(u32::MAX)
                }
                Some((i, PORT_VIOLATIONS)) => self.status.load(i).violations,
                Some((i, PORT_OUTSTANDING)) => self.status.load(i).outstanding,
                Some((i, PORT_REG_RATE)) => self.ports[i].rate,
                Some((i, PORT_REG_BURST)) => self.ports[i].reg_burst,
                Some((i, PORT_REG_OUT_CAP)) => self.ports[i].out_cap,
                Some((i, PORT_REG_THROTTLE)) => {
                    u32::try_from(self.status.load(i).throttle_events).unwrap_or(u32::MAX)
                }
                Some((i, PORT_REG_CREDITS)) => {
                    let p = self.status.load(i);
                    p.read_credits.min(0xFFFF) | (p.write_credits.min(0xFFFF) << 16)
                }
                Some((i, PORT_ERR_TOTAL)) => {
                    u32::try_from(self.status.load(i).err_total).unwrap_or(u32::MAX)
                }
                Some((i, PORT_QUIESCE)) => {
                    let p = &self.ports[i];
                    ((p.quiesce_requested as u32) * QUIESCE_REQUESTED)
                        | ((p.drained as u32) * QUIESCE_DRAINED)
                        | ((p.force_flushed as u32) * QUIESCE_FLUSHED)
                        | (p.dropped_txns.min(0xFFFF) << 16)
                }
                _ => 0,
            },
        }
    }

    fn write32(&mut self, offset: u64, value: u32) {
        self.status.bump();
        match offset {
            REG_CTRL => self.enabled = value & 1 != 0,
            REG_PERIOD => self.set_period(value),
            REG_NOMINAL => self.set_nominal_burst(value),
            REG_WINDOW => self.reg_window = value.max(1),
            // RO registers: writes ignored.
            REG_NPORTS | REG_VERSION => {}
            _ => match self.decode_port(offset) {
                Some((i, PORT_BUDGET)) => self.ports[i].budget = value,
                Some((i, PORT_CTRL)) => self.ports[i].enabled = value & 1 != 0,
                Some((i, PORT_MAX_OUT)) => self.ports[i].max_outstanding = value.max(1),
                Some((i, PORT_REG_RATE)) => self.ports[i].rate = value,
                Some((i, PORT_REG_BURST)) => self.ports[i].reg_burst = value.max(1),
                Some((i, PORT_REG_OUT_CAP)) => self.ports[i].out_cap = value,
                Some((i, PORT_REG_THROTTLE)) if value & 1 != 0 => {
                    // Visible immediately; the TS-side counter is
                    // cleared by the interconnect when it consumes
                    // `throttle_clear` on the next (never-skipped)
                    // slow-path tick.
                    self.status.ports[i].throttle_events.store(0, Relaxed);
                    self.ports[i].throttle_clear = true;
                }
                Some((i, PORT_QUIESCE)) => {
                    let p = &mut self.ports[i];
                    let request = value & QUIESCE_REQUESTED != 0;
                    if request != p.quiesce_requested {
                        p.quiesce_requested = request;
                        // Status is recomputed by the interconnect under
                        // an active request; a release clears it.
                        p.drained = false;
                    }
                    if value & QUIESCE_FLUSHED != 0 {
                        p.force_flushed = false;
                        p.dropped_txns = 0;
                    }
                }
                // RO / unmapped: ignored.
                _ => {}
            },
        }
    }
}

/// Byte offset of port `i`'s register block (for drivers).
pub fn port_block_offset(i: usize) -> u64 {
    PORT_BASE + i as u64 * PORT_STRIDE
}

/// Offsets of the global registers (for drivers).
pub mod offsets {
    /// Global enable register.
    pub const CTRL: u64 = super::REG_CTRL;
    /// Reservation period register.
    pub const PERIOD: u64 = super::REG_PERIOD;
    /// Nominal burst register.
    pub const NOMINAL: u64 = super::REG_NOMINAL;
    /// Port count (read-only).
    pub const NPORTS: u64 = super::REG_NPORTS;
    /// IP version (read-only).
    pub const VERSION: u64 = super::REG_VERSION;
    /// Global regulator credit-refill window register.
    pub const REG_WINDOW: u64 = super::REG_WINDOW;
    /// Per-port `BUDGET` offset within a port block.
    pub const PORT_BUDGET: u64 = super::PORT_BUDGET;
    /// Per-port `PORT_CTRL` offset within a port block.
    pub const PORT_CTRL: u64 = super::PORT_CTRL;
    /// Per-port `MAX_OUT` offset within a port block.
    pub const PORT_MAX_OUT: u64 = super::PORT_MAX_OUT;
    /// Per-port `TXN_PERIOD` offset within a port block.
    pub const PORT_TXN_PERIOD: u64 = super::PORT_TXN_PERIOD;
    /// Per-port `TXN_TOTAL` offset within a port block.
    pub const PORT_TXN_TOTAL: u64 = super::PORT_TXN_TOTAL;
    /// Per-port `VIOLATIONS` offset within a port block (read-only).
    pub const PORT_VIOLATIONS: u64 = super::PORT_VIOLATIONS;
    /// Per-port `OUTSTANDING` offset within a port block (read-only).
    pub const PORT_OUTSTANDING: u64 = super::PORT_OUTSTANDING;
    /// Per-port `QUIESCE` offset within a port block.
    pub const PORT_QUIESCE: u64 = super::PORT_QUIESCE;
    /// Per-port `REG_RATE` offset within a port block.
    pub const PORT_REG_RATE: u64 = super::PORT_REG_RATE;
    /// Per-port `REG_BURST` offset within a port block.
    pub const PORT_REG_BURST: u64 = super::PORT_REG_BURST;
    /// Per-port `REG_OUT_CAP` offset within a port block.
    pub const PORT_REG_OUT_CAP: u64 = super::PORT_REG_OUT_CAP;
    /// Per-port `REG_THROTTLE` offset within a port block (RW1C).
    pub const PORT_REG_THROTTLE: u64 = super::PORT_REG_THROTTLE;
    /// Per-port `REG_CREDITS` offset within a port block (read-only).
    pub const PORT_REG_CREDITS: u64 = super::PORT_REG_CREDITS;
    /// Per-port `ERR_TOTAL` offset within a port block (read-only).
    pub const PORT_ERR_TOTAL: u64 = super::PORT_ERR_TOTAL;
}

sim::persist_fields!(PortRegs {
    budget,
    enabled,
    max_outstanding,
    txn_this_period,
    txn_total,
    violations,
    outstanding,
    quiesce_requested,
    drained,
    force_flushed,
    dropped_txns,
    rate,
    reg_burst,
    out_cap,
    throttle_events,
    throttle_clear,
    read_credits,
    write_credits,
    err_total,
});
/// The image is the register map as a list of [`PortRegs`] between the
/// global registers and the generation. Persisting the generation
/// verbatim keeps the interconnect's fast-path cache (`seen_cfg_gen`)
/// coherent across a snapshot/restore boundary.
impl sim::persist::PersistValue for RegFile {
    fn save_value(&self, w: &mut sim::persist::SnapshotWriter) {
        self.enabled.save_value(w);
        self.period.save_value(w);
        self.nominal_burst.save_value(w);
        self.reg_window.save_value(w);
        w.put_usize(self.ports.len());
        for i in 0..self.ports.len() {
            self.port(i).save_value(w);
        }
        self.generation().save_value(w);
    }

    fn load_value(
        r: &mut sim::persist::SnapshotReader<'_>,
    ) -> Result<Self, sim::persist::PersistError> {
        let enabled = bool::load_value(r)?;
        let period = u32::load_value(r)?;
        let nominal_burst = u32::load_value(r)?;
        let reg_window = u32::load_value(r)?;
        let ports = Vec::<PortRegs>::load_value(r)?;
        let generation = u64::load_value(r)?;
        if ports.is_empty() {
            return Err(sim::persist::PersistError::Corrupt("regfile with no ports"));
        }
        let status = StatusBlock::new(ports.len());
        status.generation.store(generation, Relaxed);
        for (i, p) in ports.iter().enumerate() {
            status.store(i, &p.status());
        }
        Ok(Self {
            enabled,
            period,
            nominal_burst,
            reg_window,
            ports: ports.iter().map(PortRegs::control).collect(),
            status: Arc::new(status),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_state() {
        let mut rf = RegFile::new(2);
        assert!(rf.is_enabled());
        assert_eq!(rf.period(), 65_536);
        assert_eq!(rf.nominal_burst(), 16);
        assert_eq!(rf.read32(REG_NPORTS), 2);
        assert_eq!(rf.read32(REG_VERSION), IP_VERSION);
        assert_eq!(rf.port(0).budget, BUDGET_UNLIMITED);
        assert!(rf.port(1).enabled);
    }

    #[test]
    fn global_registers_via_lite() {
        let mut rf = RegFile::new(2);
        rf.write32(REG_CTRL, 0);
        assert!(!rf.is_enabled());
        rf.write32(REG_PERIOD, 1000);
        assert_eq!(rf.period(), 1000);
        rf.write32(REG_NOMINAL, 8);
        assert_eq!(rf.nominal_burst(), 8);
        assert_eq!(rf.read32(REG_PERIOD), 1000);
    }

    #[test]
    fn clamping() {
        let mut rf = RegFile::new(1);
        rf.write32(REG_PERIOD, 0);
        assert_eq!(rf.period(), 1);
        rf.write32(REG_NOMINAL, 0);
        assert_eq!(rf.nominal_burst(), 1);
        rf.write32(REG_NOMINAL, 10_000);
        assert_eq!(rf.nominal_burst(), 256);
    }

    #[test]
    fn per_port_registers_via_lite() {
        let mut rf = RegFile::new(3);
        let p1 = port_block_offset(1);
        rf.write32(p1 + PORT_BUDGET, 42);
        rf.write32(p1 + PORT_CTRL, 0);
        rf.write32(p1 + PORT_MAX_OUT, 7);
        assert_eq!(rf.port(1).budget, 42);
        assert!(!rf.port(1).enabled);
        assert_eq!(rf.port(1).max_outstanding, 7);
        // Other ports untouched.
        assert_eq!(rf.port(0).budget, BUDGET_UNLIMITED);
        assert!(rf.port(2).enabled);
        assert_eq!(rf.read32(p1 + PORT_BUDGET), 42);
    }

    #[test]
    fn readonly_registers_ignore_writes() {
        let mut rf = RegFile::new(2);
        rf.write32(REG_NPORTS, 99);
        rf.write32(REG_VERSION, 99);
        assert_eq!(rf.read32(REG_NPORTS), 2);
        assert_eq!(rf.read32(REG_VERSION), IP_VERSION);
        let p0 = port_block_offset(0);
        rf.write32(p0 + PORT_TXN_PERIOD, 5);
        assert_eq!(rf.read32(p0 + PORT_TXN_PERIOD), 0);
        rf.write32(p0 + PORT_VIOLATIONS, 5);
        rf.write32(p0 + PORT_OUTSTANDING, 5);
        assert_eq!(rf.read32(p0 + PORT_VIOLATIONS), 0);
        assert_eq!(rf.read32(p0 + PORT_OUTSTANDING), 0);
    }

    #[test]
    fn health_registers_reflect_written_back_state() {
        let mut rf = RegFile::new(2);
        let status = PortStatus {
            violations: 3,
            outstanding: 5,
            ..PortStatus::default()
        };
        rf.status_block().store(1, &status);
        let p1 = port_block_offset(1);
        assert_eq!(rf.read32(p1 + PORT_VIOLATIONS), 3);
        assert_eq!(rf.read32(p1 + PORT_OUTSTANDING), 5);
        // Port 0 unaffected.
        let p0 = port_block_offset(0);
        assert_eq!(rf.read32(p0 + PORT_VIOLATIONS), 0);
    }

    #[test]
    fn counters_and_recharge() {
        let mut rf = RegFile::new(2);
        let status = PortStatus {
            txn_this_period: 9,
            txn_total: 100,
            ..PortStatus::default()
        };
        rf.status_block().store(0, &status);
        rf.recharge();
        assert_eq!(rf.port(0).txn_this_period, 0);
        assert_eq!(rf.port(0).txn_total, 100);
    }

    #[test]
    fn quiesce_register_request_status_and_sticky_clear() {
        let mut rf = RegFile::new(2);
        let p1 = port_block_offset(1);
        assert_eq!(rf.read32(p1 + PORT_QUIESCE), 0);
        // Request a quiesce: the request bit reads back, drained does not
        // (the interconnect writes that back).
        rf.write32(p1 + PORT_QUIESCE, QUIESCE_REQUESTED);
        assert!(rf.port(1).quiesce_requested);
        assert_eq!(rf.read32(p1 + PORT_QUIESCE), QUIESCE_REQUESTED);
        // Interconnect-side write-back of drain/flush state.
        rf.port_mut(1).drained = true;
        rf.port_mut(1).force_flushed = true;
        rf.port_mut(1).dropped_txns = 3;
        let status = rf.read32(p1 + PORT_QUIESCE);
        assert_eq!(
            status,
            QUIESCE_REQUESTED | QUIESCE_DRAINED | QUIESCE_FLUSHED | (3 << 16)
        );
        // Releasing the request clears drained; the flush state is
        // sticky until explicitly cleared (W1C on bit 2).
        rf.write32(p1 + PORT_QUIESCE, 0);
        assert!(!rf.port(1).quiesce_requested);
        assert!(!rf.port(1).drained);
        assert!(rf.port(1).force_flushed);
        rf.write32(p1 + PORT_QUIESCE, QUIESCE_FLUSHED);
        assert!(!rf.port(1).force_flushed);
        assert_eq!(rf.port(1).dropped_txns, 0);
        // Port 0 never touched.
        assert_eq!(rf.read32(port_block_offset(0) + PORT_QUIESCE), 0);
    }

    #[test]
    fn txn_total_read_saturates_past_32_bits() {
        let mut rf = RegFile::new(2);
        // Direct state injection: a long campaign has pushed the 64-bit
        // counter past what a 32-bit register window can express.
        let txn_total = |txn_total| PortStatus {
            txn_total,
            ..PortStatus::default()
        };
        rf.status_block().store(0, &txn_total((1u64 << 32) + 5));
        rf.status_block().store(1, &txn_total(u64::from(u32::MAX)));
        let p0 = port_block_offset(0);
        let p1 = port_block_offset(1);
        // Saturate, never wrap: the old `as u32` cast read back 5 here.
        assert_eq!(rf.read32(p0 + PORT_TXN_TOTAL), u32::MAX);
        // Exactly-representable values still read exactly.
        assert_eq!(rf.read32(p1 + PORT_TXN_TOTAL), u32::MAX);
        rf.status_block().store(1, &txn_total(77));
        assert_eq!(rf.read32(p1 + PORT_TXN_TOTAL), 77);
    }

    #[test]
    fn regulator_registers_reset_and_program_via_lite() {
        let mut rf = RegFile::new(2);
        // Reset: regulation fully disabled.
        assert_eq!(rf.read32(REG_WINDOW), DEFAULT_WINDOW);
        let p1 = port_block_offset(1);
        assert_eq!(rf.read32(p1 + PORT_REG_RATE), RATE_UNLIMITED);
        assert_eq!(rf.read32(p1 + PORT_REG_BURST), 1);
        assert_eq!(rf.read32(p1 + PORT_REG_OUT_CAP), OUT_CAP_UNLIMITED);
        assert!(!rf.regulator_config(1).is_active());
        // Program a regulator over the lite interface.
        rf.write32(REG_WINDOW, 100);
        rf.write32(p1 + PORT_REG_RATE, 4);
        rf.write32(p1 + PORT_REG_BURST, 8);
        rf.write32(p1 + PORT_REG_OUT_CAP, 2);
        let cfg = rf.regulator_config(1);
        assert_eq!(
            (cfg.rate, cfg.burst, cfg.out_cap, cfg.window),
            (4, 8, 2, 100)
        );
        assert!(cfg.is_active());
        // Other port untouched.
        assert!(!rf.regulator_config(0).is_active());
        // Clamps: window and burst floor at 1.
        rf.write32(REG_WINDOW, 0);
        assert_eq!(rf.regulator_config(1).window, 1);
        rf.write32(p1 + PORT_REG_BURST, 0);
        assert_eq!(rf.port(1).reg_burst, 1);
    }

    #[test]
    fn throttle_register_is_w1c_and_saturating() {
        let mut rf = RegFile::new(1);
        let p0 = port_block_offset(0);
        let status = PortStatus {
            throttle_events: (1u64 << 32) + 9,
            ..PortStatus::default()
        };
        rf.status_block().store(0, &status);
        assert_eq!(rf.read32(p0 + PORT_REG_THROTTLE), u32::MAX);
        // Writes without bit 0 are ignored.
        rf.write32(p0 + PORT_REG_THROTTLE, 0);
        assert_eq!(rf.read32(p0 + PORT_REG_THROTTLE), u32::MAX);
        assert!(!rf.port(0).throttle_clear);
        // W1C: clears the visible count and latches the pending clear
        // for the interconnect to propagate to the TS.
        rf.write32(p0 + PORT_REG_THROTTLE, 1);
        assert_eq!(rf.read32(p0 + PORT_REG_THROTTLE), 0);
        assert!(rf.port(0).throttle_clear);
    }

    #[test]
    fn credits_register_packs_both_lanes_saturated() {
        let mut rf = RegFile::new(1);
        let p0 = port_block_offset(0);
        let status = PortStatus {
            read_credits: 3,
            write_credits: 0x2_0000,
            ..PortStatus::default()
        };
        rf.status_block().store(0, &status);
        assert_eq!(rf.read32(p0 + PORT_REG_CREDITS), 3 | (0xFFFF << 16));
        // Read-only: writes ignored.
        rf.write32(p0 + PORT_REG_CREDITS, 0xDEAD);
        assert_eq!(rf.port(0).read_credits, 3);
    }

    #[test]
    fn out_of_range_port_block_reads_zero() {
        let mut rf = RegFile::new(1);
        let beyond = port_block_offset(5);
        assert_eq!(rf.read32(beyond), 0);
        rf.write32(beyond, 1); // ignored
    }

    #[test]
    fn max_out_write_clamps_to_one() {
        let mut rf = RegFile::new(1);
        rf.write32(port_block_offset(0) + PORT_MAX_OUT, 0);
        assert_eq!(rf.port(0).max_outstanding, 1);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_panics() {
        let _ = RegFile::new(0);
    }
}
