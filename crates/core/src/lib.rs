//! The AXI HyperConnect — a predictable, hypervisor-level AXI
//! interconnect for hardware accelerators on FPGA SoCs.
//!
//! This crate is a cycle-level behavioral reproduction of the
//! interconnect proposed by Restuccia et al. (DAC 2020). Its pipeline
//! mirrors the paper's architecture (Fig. 2):
//!
//! ```text
//!  HA0 ──▶ eFIFO ──▶ TS ─┐
//!  HA1 ──▶ eFIFO ──▶ TS ─┤──▶ EXBAR ──▶ eFIFO ──▶ FPGA-PS interface
//!  ...                   │        ▲
//!  central unit ─────────┘   AXI-Lite register file (hypervisor)
//! ```
//!
//! Key properties reproduced by construction:
//!
//! * fixed propagation latency: 4 cycles on AR/AW, 2 on R/W/B
//!   ([`analysis::propagation`]);
//! * round-robin arbitration with **fixed granularity one** ([`exbar`]);
//! * **burst equalization** to a nominal size and outstanding limiting
//!   ([`supervisor`], after Restuccia et al., TECS 2019);
//! * **bandwidth reservation** with periodic synchronous recharge
//!   ([`central`], after Pagani et al., ECRTS 2019);
//! * per-port **credit-based traffic regulation** (rate, burst depth and
//!   outstanding caps) with derived tighter latency bounds for the
//!   regulated system ([`regulate`], [`analysis`]);
//! * per-port **decoupling** and runtime reconfiguration through a
//!   memory-mapped register file ([`efifo`], [`regfile`]).
//!
//! # Quick start
//!
//! ```
//! use axi::{ArBeat, AxiInterconnect};
//! use axi::types::BurstSize;
//! use hyperconnect::{HcConfig, HyperConnect};
//! use sim::Component;
//!
//! let mut hc = HyperConnect::new(HcConfig::new(2));
//! hc.port(0).ar.push(0, ArBeat::new(0x1000, 16, BurstSize::B4)).unwrap();
//! for now in 0..10 {
//!     hc.tick(now);
//! }
//! // The request has traversed the 4-stage pipeline to the master port.
//! assert!(hc.mem_port().ar.pop_ready(10).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod central;
pub mod config;
pub mod efifo;
pub mod exbar;
pub mod hyperconnect;
pub mod observe;
pub mod portset;
pub mod regfile;
pub mod regulate;
pub mod supervisor;

pub use analysis::RegulationCap;
pub use config::HcConfig;
pub use hyperconnect::HyperConnect;
pub use observe::BoundMonitor;
pub use regfile::{RegFile, BUDGET_UNLIMITED};
pub use regulate::{
    CreditRegulator, RegulatorConfig, DEFAULT_WINDOW, OUT_CAP_UNLIMITED, RATE_UNLIMITED,
};
pub use supervisor::{TransactionSupervisor, TsRuntime, TsStats};
