//! The eFIFO module: a buffered AXI interface with decoupling.
//!
//! Paper §V-B: each HyperConnect port (slave or master) is an *efficient
//! FIFO queuing* module holding five independent proactive circular
//! buffers, one per AXI channel, each introducing exactly one cycle of
//! latency. In the cycle-level model a proactive circular buffer is a
//! [`sim::TimedFifo`] with latency 1: always ready to accept while not
//! full, output valid one clock later.
//!
//! The eFIFO also implements the *decoupling* mechanism: when a port is
//! decoupled, the AXI handshake toward the accelerator is held low and
//! every other signal is grounded, completely disconnecting the HA. In
//! the model this means the interconnect side neither consumes requests
//! from, nor delivers responses to, a decoupled eFIFO — responses that
//! arrive for in-flight transactions of a decoupled port are dropped
//! (grounded), and requests the HA managed to buffer simply wait.

use axi::beat::{ArBeat, AwBeat, BBeat, RBeat, WBeat};
use axi::{AxiPort, PortConfig};
use sim::Cycle;

/// A buffered, decouplable AXI port boundary (one eFIFO module).
///
/// # Example
///
/// ```
/// use axi::ArBeat;
/// use axi::types::BurstSize;
/// use hyperconnect::efifo::EFifo;
///
/// let mut ef = EFifo::new(4, 32, 4);
/// ef.port.ar.push(0, ArBeat::new(0, 1, BurstSize::B4)).unwrap();
/// // One cycle of proactive-buffer latency.
/// assert!(ef.pop_ar(0).is_none());
/// assert!(ef.pop_ar(1).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct EFifo {
    /// The five channel queues. Exposed so accelerators (slave side) or
    /// the memory controller (master side) can exchange beats directly.
    pub port: AxiPort,
    decoupled: bool,
    /// Responses dropped while decoupled (observability for tests and
    /// the hypervisor's health monitoring).
    dropped_responses: u64,
}

impl EFifo {
    /// Creates an eFIFO with the given queue depths. The one-cycle
    /// channel latency of the proactive circular buffer is fixed.
    pub fn new(addr_depth: usize, data_depth: usize, resp_depth: usize) -> Self {
        let config = PortConfig {
            addr_capacity: addr_depth,
            data_capacity: data_depth,
            resp_capacity: resp_depth,
            latency: 1,
        };
        Self {
            port: AxiPort::new(config),
            decoupled: false,
            dropped_responses: 0,
        }
    }

    /// Whether the port is currently decoupled from the system.
    pub fn is_decoupled(&self) -> bool {
        self.decoupled
    }

    /// Couples/decouples the port (driven from the register file).
    pub fn set_decoupled(&mut self, decoupled: bool) {
        self.decoupled = decoupled;
    }

    /// Responses grounded while decoupled.
    pub fn dropped_responses(&self) -> u64 {
        self.dropped_responses
    }

    /// Pops a visible AR request unless decoupled.
    pub fn pop_ar(&mut self, now: Cycle) -> Option<ArBeat> {
        if self.decoupled {
            None
        } else {
            self.port.ar.pop_ready(now)
        }
    }

    /// Pops a visible AW request unless decoupled.
    pub fn pop_aw(&mut self, now: Cycle) -> Option<AwBeat> {
        if self.decoupled {
            None
        } else {
            self.port.aw.pop_ready(now)
        }
    }

    /// Pops a visible W beat unless decoupled.
    pub fn pop_w(&mut self, now: Cycle) -> Option<WBeat> {
        if self.decoupled {
            None
        } else {
            self.port.w.pop_ready(now)
        }
    }

    /// Delivers a read-data beat toward the accelerator.
    ///
    /// Returns `true` if the beat was consumed (queued, or grounded
    /// because the port is decoupled); `false` if the queue is full and
    /// the caller must retry next cycle.
    pub fn push_r(&mut self, now: Cycle, beat: RBeat) -> bool {
        if self.decoupled {
            self.dropped_responses += 1;
            return true;
        }
        match self.port.r.push(now, beat) {
            Ok(()) => true,
            Err(_) => false,
        }
    }

    /// Delivers a write response toward the accelerator (same contract
    /// as [`Self::push_r`]).
    pub fn push_b(&mut self, now: Cycle, beat: BBeat) -> bool {
        if self.decoupled {
            self.dropped_responses += 1;
            return true;
        }
        match self.port.b.push(now, beat) {
            Ok(()) => true,
            Err(_) => false,
        }
    }

    /// Whether the R queue can accept a beat this cycle (always true
    /// while decoupled: grounding never back-pressures).
    pub fn can_push_r(&self) -> bool {
        self.decoupled || !self.port.r.is_full()
    }

    /// Whether the B queue can accept a response this cycle.
    pub fn can_push_b(&self) -> bool {
        self.decoupled || !self.port.b.is_full()
    }
}

// The eFIFO reconstructs fully from its serialized `AxiPort` (which
// carries its own queue capacities and latency), the decouple flag and
// the dropped-response counter.
sim::persist_fields!(EFifo {
    port,
    decoupled,
    dropped_responses
});

#[cfg(test)]
mod tests {
    use super::*;
    use axi::types::{AxiId, BurstSize};

    fn efifo() -> EFifo {
        EFifo::new(4, 16, 4)
    }

    #[test]
    fn channel_latency_is_one_cycle() {
        let mut f = efifo();
        f.port.ar.push(5, ArBeat::new(0, 1, BurstSize::B4)).unwrap();
        assert!(f.pop_ar(5).is_none());
        assert!(f.pop_ar(6).is_some());
    }

    #[test]
    fn decoupled_port_stops_consuming_requests() {
        let mut f = efifo();
        f.port.ar.push(0, ArBeat::new(0, 1, BurstSize::B4)).unwrap();
        f.set_decoupled(true);
        assert!(f.is_decoupled());
        assert!(f.pop_ar(10).is_none());
        assert!(f.pop_aw(10).is_none());
        assert!(f.pop_w(10).is_none());
        // Recoupling resumes delivery of the buffered request.
        f.set_decoupled(false);
        assert!(f.pop_ar(10).is_some());
    }

    #[test]
    fn decoupled_port_grounds_responses() {
        let mut f = efifo();
        f.set_decoupled(true);
        assert!(f.push_r(0, RBeat::new(AxiId(0), vec![0; 4], true)));
        assert!(f.push_b(0, BBeat::new(AxiId(0))));
        assert_eq!(f.dropped_responses(), 2);
        // Nothing reached the accelerator-facing queues.
        f.set_decoupled(false);
        assert!(f.port.r.pop_ready(100).is_none());
        assert!(f.port.b.pop_ready(100).is_none());
    }

    #[test]
    fn push_r_backpressure_when_full() {
        let mut f = EFifo::new(4, 1, 4);
        assert!(f.push_r(0, RBeat::new(AxiId(0), vec![], true)));
        assert!(!f.push_r(0, RBeat::new(AxiId(0), vec![], true)));
        assert!(!f.can_push_r());
        // Decoupling removes back-pressure (signals grounded).
        f.set_decoupled(true);
        assert!(f.can_push_r());
        assert!(f.push_r(0, RBeat::new(AxiId(0), vec![], true)));
    }

    #[test]
    fn w_peek_and_pop() {
        let mut f = efifo();
        f.port.w.push(0, WBeat::new(vec![1; 4], true)).unwrap();
        assert!(f.pop_w(0).is_none()); // not yet visible
        assert!(f.port.w.peek_ready(1).is_some());
        assert!(f.pop_w(1).is_some());
        assert!(f.pop_w(1).is_none());
    }
}
