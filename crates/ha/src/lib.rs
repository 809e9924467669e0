//! Hardware-accelerator models: the bus masters of the evaluation.
//!
//! The paper evaluates the interconnects with Xilinx AXI DMAs (which
//! saturate the platform's memory bandwidth) and with the CHaiDNN deep
//! neural network accelerator running quantized GoogleNet. This crate
//! provides behavioral models of both, plus synthetic traffic generators
//! for the fairness/reservation ablations:
//!
//! * [`engine`] — reusable read/write burst engines (issue logic,
//!   outstanding limiting, 4 KiB clamping, latency bookkeeping);
//! * [`dma`] — a Xilinx-AXI-DMA-like engine moving configurable amounts
//!   of data per job (`HA_DMA` in the paper's case study);
//! * [`chaidnn`] — a layer-schedule replay of a CHaiDNN-style DNN
//!   accelerator, with a bundled quantized-GoogleNet schedule
//!   (`HA_CHaiDNN`);
//! * [`traffic`] — synthetic masters: constant-rate readers, the
//!   *bandwidth stealer* of the fairness experiment, and a seeded
//!   random mix;
//! * [`fault`] — deliberately misbehaving masters (illegal addresses,
//!   4 KiB-crossing bursts, WLAST corruption, hung W channels, runaway
//!   issue rates) for the fault-injection experiments.
//!
//! All models implement [`Accelerator`] and drive one interconnect
//! slave port.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaidnn;
pub mod dma;
pub mod engine;
pub mod fault;
pub mod scoreboard;
pub mod traffic;

use axi::AxiPort;
use sim::Cycle;

/// A bus master occupying one interconnect slave port.
///
/// `Send` is a supertrait: accelerator models are plain owned data, so
/// a system holding them can be moved to another thread.
pub trait Accelerator: std::any::Any + Send {
    /// Advances the accelerator one cycle against its port. Returns
    /// `true` if any state changed.
    ///
    /// # Wake contract
    ///
    /// The topology engine lets an accelerator sleep while the rest of
    /// the system runs, so every model keeps two promises:
    ///
    /// * after a tick at `t` returns `false`, ticking it on every cycle
    ///   before its horizon — the earlier of [`Self::next_event`]`(t)`
    ///   and the cycle the next R or B beat on its port becomes visible
    ///   — against a port nobody else pushes to, pops from or flushes
    ///   returns `false` every time and leaves the
    ///   [`Self::save_state`] bytes unchanged;
    /// * a tick that changes [`Self::jobs_completed`] or
    ///   [`Self::is_done`] returns `true`.
    ///
    /// `crates/ha/tests/wake_contract.rs` checks both for every model.
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool;

    /// Short human-readable name for reports.
    fn name(&self) -> &str;

    /// Whether the accelerator has completed a finite workload (always
    /// `false` for free-running generators).
    fn is_done(&self) -> bool;

    /// Completed work items (DMA jobs, DNN frames, ...).
    fn jobs_completed(&self) -> u64;

    /// Type-erased view for downcasting to the concrete model (the
    /// benchmark harness uses this to read model-specific statistics).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Event-horizon hint (see [`sim::Component::next_event`]): the
    /// earliest future cycle this accelerator could make progress at,
    /// assuming nothing touches its port before then. `None` means
    /// purely reactive (only port traffic can wake it). Implementations
    /// may under-promise but must never over-promise: asked after a
    /// no-progress tick, the answer bounds the sleep the wake contract
    /// of [`Self::tick`] allows. The default of `Some(now + 1)` is
    /// always safe.
    ///
    /// The answer is stable: with the model untouched and its port
    /// untouched, every call at a cycle before the returned horizon
    /// returns the same horizon. So the engine asks once, after the
    /// no-progress tick, and keeps the answer as the model's wake.
    /// `crates/ha/tests/wake_contract.rs` checks this for every model.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }

    /// Appends the model's dynamic state to a snapshot writer (see
    /// [`sim::persist`]). Paired with [`Self::restore_state`]; every
    /// model must serialize enough to make a restored run cycle-exact,
    /// including any embedded RNG streams and FSM phases.
    fn save_state(&self, w: &mut sim::persist::SnapshotWriter);

    /// Restores state saved by [`Self::save_state`] into a model
    /// constructed with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`sim::persist::PersistError`] if the stream is
    /// truncated, corrupt or shaped for a different configuration.
    fn restore_state(
        &mut self,
        r: &mut sim::persist::SnapshotReader<'_>,
    ) -> Result<(), sim::persist::PersistError>;

    /// Models a hardware reset of the accelerator (the PL reset line
    /// the hypervisor pulses during recovery, or a partial
    /// reconfiguration swap). Implementations drop all internal
    /// protocol state and either resume nominal operation or — for
    /// models of permanently broken hardware — come back still faulty,
    /// which is how the recovery campaign exercises the quarantine
    /// path. The default is a no-op: a stateless generator just keeps
    /// generating.
    fn reset(&mut self) {}
}

/// A model's saved state, as the model tests compare it.
#[cfg(test)]
fn saved_state(acc: &dyn Accelerator) -> Vec<u8> {
    let mut w = sim::persist::SnapshotWriter::new();
    acc.save_state(&mut w);
    w.into_bytes()
}
