//! # AXI HyperConnect — behavioral reproduction
//!
//! A cycle-level, pure-Rust reproduction of *"AXI HyperConnect: A
//! Predictable, Hypervisor-level Interconnect for Hardware Accelerators
//! in FPGA SoC"* (Restuccia, Biondi, Marinoni, Cicero, Buttazzo — DAC
//! 2020), including every substrate the paper's evaluation depends on:
//!
//! | Crate | Role |
//! |---|---|
//! | [`sim`] | cycle-based simulation kernel |
//! | [`axi`] | AMBA AXI3/AXI4 protocol model + AXI-Lite + checker |
//! | [`mem`] | in-order DRAM controller model with backing store |
//! | [`hyperconnect`] | **the paper's contribution** (eFIFO, TS, EXBAR, central unit, register file, worst-case analysis) |
//! | [`smartconnect`] | the Xilinx SmartConnect baseline model |
//! | [`ha`] | accelerator models: AXI DMA, CHaiDNN-style DNN, traffic generators |
//! | [`hypervisor`] | domains, register driver, bandwidth partitioning, IP-XACT integration |
//! | [`resources`] | analytical area model regenerating Table I |
//!
//! This crate ties them together with two assembly layers:
//!
//! * [`SocSystem`] — the paper's flat Fig. 1 shape (N accelerators, one
//!   interconnect, one FPGA-PS port), used by the examples, the
//!   integration tests and the benchmark harness that regenerates every
//!   figure and table of the paper (see `crates/bench`);
//! * [`TopologyBuilder`] / [`SocTopology`] — the general form:
//!   arbitrary *trees* of interconnects (HyperConnects cascaded behind
//!   HyperConnects or a SmartConnect, multiple PS ports), joined by
//!   latency-configurable [`axi::AxiBridge`]s and validated at build
//!   time with typed [`TopologyError`]s. `SocSystem` is a thin facade
//!   over a single-interconnect topology.
//!
//! ## Quick start
//!
//! ```
//! use axi_hyperconnect::SocSystem;
//! use axi::types::BurstSize;
//! use ha::dma::{Dma, DmaConfig};
//! use ha::Accelerator;
//! use hyperconnect::{HcConfig, HyperConnect};
//! use mem::{MemConfig, MemoryController};
//!
//! // Two DMAs behind a HyperConnect, as in the paper's Fig. 1 (N = 2).
//! let mut sys = SocSystem::new(
//!     HyperConnect::new(HcConfig::new(2)),
//!     MemoryController::new(MemConfig::default()),
//! );
//! sys.add_accelerator(Box::new(Dma::new(
//!     "dma0",
//!     DmaConfig::reader(16 * 1024, 16, BurstSize::B16),
//! )))
//! .unwrap();
//! assert!(sys.run_until_done(1_000_000).is_done());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod chaos;
mod system;
mod topology;

pub use system::SocSystem;
pub use topology::{
    EngineWork, NodeId, SchedulerMode, SocTopology, TopologyBuilder, TopologyError,
    SECTION_CONTROL, SECTION_NODES, SECTION_SHAPE,
};

// Re-export the workspace crates under one roof for downstream users.
pub use axi;
pub use ha;
pub use hyperconnect;
pub use hypervisor;
pub use mem;
pub use resources;
pub use sim;
pub use smartconnect;
