//! Cycle-based simulation kernel for the AXI HyperConnect reproduction.
//!
//! This crate provides the minimal, deterministic building blocks used by
//! every behavioral model in the workspace:
//!
//! * [`TimedFifo`] — a bounded queue whose entries become visible a fixed
//!   number of cycles after they are pushed. A `TimedFifo` with latency 1
//!   models a pipeline register (or the paper's *proactive circular
//!   buffer*, which accepts data every cycle and exposes it one cycle
//!   later); a `TimedFifo` with latency 0 models a combinational wire with
//!   storage.
//! * [`Component`] — the tick/progress/event-horizon contract of a
//!   simulated unit; progress and horizons feed the topology's wake
//!   calendar. [`RunOutcome`] says why a bounded run stopped.
//! * Statistics ([`stats::Counter`], [`stats::LatencyStat`],
//!   [`stats::Histogram`], [`stats::BandwidthMeter`]) used to produce the
//!   numbers reported in the paper's figures.
//! * [`SimRng`] — a seeded RNG wrapper so every experiment is reproducible.
//! * [`trace::Tracer`] — a bounded in-memory event trace for debugging.
//!
//! # Example
//!
//! ```
//! use sim::TimedFifo;
//!
//! // A pipeline register: pushed at cycle 10, visible at cycle 11.
//! let mut reg: TimedFifo<u32> = TimedFifo::new(4, 1);
//! reg.push(10, 42).unwrap();
//! assert_eq!(reg.pop_ready(10), None);
//! assert_eq!(reg.pop_ready(11), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod component;
pub mod fifo;
pub mod persist;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod vcd;

pub use clock::{ClockConfig, Cycle};
pub use component::{Component, RunOutcome};
pub use fifo::{FifoFull, TimedFifo};
pub use persist::{Persist, PersistError, PersistValue, Snapshot, SnapshotReader, SnapshotWriter};
pub use rng::SimRng;
