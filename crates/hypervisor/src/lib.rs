//! Hypervisor-level control plane for the AXI HyperConnect.
//!
//! The paper positions the HyperConnect as a *hypervisor-level hardware
//! component*: the hypervisor owns its control interface, grants each
//! application access to its own accelerators only, routes their
//! interrupts, and programs bandwidth budgets (§IV). This crate models
//! that software layer:
//!
//! * [`domain`] — execution domains (virtual machines) with criticality
//!   levels and accelerator-port assignments;
//! * [`driver`] — the open-source-style register driver that programs a
//!   HyperConnect over the modeled AXI-Lite bus;
//! * [`manager`] — the hypervisor proper: domain bookkeeping, bandwidth
//!   partitioning by percentage shares (the paper's `HC-X-Y`
//!   configurations), interrupt routing, and a health monitor that
//!   decouples misbehaving accelerators at run time;
//! * [`integrator`] — the system-integration flow: component
//!   descriptions exported as IP-XACT XML (the format the paper uses to
//!   ship the IP) and design assembly with connection validation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domain;
pub mod driver;
pub mod integrator;
pub mod manager;

pub use domain::{Criticality, Domain, DomainId};
pub use driver::{HcDriver, QuiesceStatus};
pub use manager::{
    HealthLog, HvError, Hypervisor, IntegrityEvent, IntegrityPolicy, MonitorPolicy, RecoveryPolicy,
    RecoveryState, RecoveryTransition, WatchdogEvent, WatchdogPolicy, WatchdogReason,
    HEALTH_LOG_CAPACITY,
};
