//! Behavioral model of the AMBA AXI protocol (AXI3/AXI4 + AXI4-Lite).
//!
//! This crate is the protocol substrate of the AXI HyperConnect
//! reproduction. It models the five independent AXI channels (AR, AW, W,
//! R, B) at *beat* granularity:
//!
//! * [`beat`] — the per-channel payloads ([`ArBeat`], [`AwBeat`],
//!   [`WBeat`], [`RBeat`], [`BBeat`]);
//! * [`bridge`] — the latency-configurable AXI-to-AXI adapter
//!   ([`AxiBridge`]) the topology layer infers for cascaded
//!   interconnects;
//! * [`burst`] — burst arithmetic: lengths, 4 KiB boundary rule,
//!   splitting a burst into *nominal-size* sub-bursts (the equalization
//!   of Restuccia et al., TECS 2019, used by the HyperConnect's
//!   Transaction Supervisor);
//! * [`txn`] — validated read/write transaction descriptors;
//! * [`port`] — the queue bundle representing one AXI master/slave port
//!   boundary, and the [`AxiInterconnect`] trait implemented by both the
//!   HyperConnect and the SmartConnect baseline;
//! * [`lite`] — the AXI4-Lite control plane used by the hypervisor to
//!   program memory-mapped register files;
//! * [`fault`] — a seeded faulty bridge edge ([`FaultyBridge`]) for
//!   degrading cascaded topologies, and [`retry`] — the capped-backoff
//!   transaction [`RetryPolicy`] with its closed-form completion bound;
//! * [`checker`] — a protocol monitor that asserts channel-ordering
//!   invariants during simulation;
//! * [`observe`] — transaction-level observability: per-hop stamp
//!   events, the [`MetricsRegistry`] aggregating them, and the
//!   bound-violation records a runtime monitor files against the
//!   closed-form worst-case bounds;
//! * [`payload`] — inline small-buffer beat payload storage
//!   ([`Payload`]), the zero-alloc replacement for per-beat `Vec<u8>`.
//!
//! # Example
//!
//! ```
//! use axi::txn::ReadRequest;
//! use axi::types::{AxiVersion, BurstSize};
//!
//! // A 16-beat by 4-byte read: the paper's "16-word burst".
//! let req = ReadRequest::new(0x1000, 16, BurstSize::B4)?;
//! assert_eq!(req.total_bytes(), 64);
//! assert!(req.validate(AxiVersion::Axi4).is_ok());
//! # Ok::<(), axi::types::TxnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beat;
pub mod bridge;
pub mod burst;
pub mod checker;
pub mod fault;
pub mod lite;
pub mod observe;
pub mod payload;
pub mod persist;
pub mod port;
pub mod retry;
pub mod routing;
pub mod txn;
pub mod types;

pub use beat::{ArBeat, AwBeat, BBeat, RBeat, WBeat};
pub use bridge::{AxiBridge, BridgeConfig, BridgeStats};
pub use checker::{Violation, ViolationKind};
pub use fault::{FaultyBridge, FaultyBridgeConfig, FaultyBridgeStats};
pub use observe::{BoundReport, BoundViolation, MetricsRegistry, ObsEvent};
pub use payload::{Payload, PAYLOAD_INLINE};
pub use port::{AxiInterconnect, AxiPort, PortConfig};
pub use retry::RetryPolicy;
pub use types::{AxiId, AxiVersion, BurstKind, BurstSize, PortId, Resp, TxnError};
