//! A processing-system CPU traffic model for the PS-side memory port.
//!
//! The paper motivates bounding FPGA-originated traffic partly because
//! it "can delay the execution of software running on the processors of
//! the PS" (§V-A). This model issues periodic cache-line-sized reads on
//! the controller's PS port and records their latency, so experiments
//! can quantify how much FPGA throttling protects PS software.

use axi::beat::ArBeat;
use axi::types::{AxiId, BurstSize};
use axi::AxiPort;
use sim::stats::LatencyStat;
use sim::Cycle;

/// Periodic CPU-like reader: one cache-line read every `period` cycles
/// (if the previous one completed), latency recorded per access.
#[derive(Debug)]
pub struct PsCpu {
    period: Cycle,
    line_beats: u32,
    size: BurstSize,
    next_issue: Cycle,
    outstanding: Option<Cycle>,
    beats_left: u32,
    addr: u64,
    latency: LatencyStat,
    completed: u64,
}

impl PsCpu {
    /// Creates a CPU model issuing a 64-byte line read every `period`
    /// cycles.
    pub fn new(period: Cycle) -> Self {
        Self {
            period: period.max(1),
            line_beats: 4,
            size: BurstSize::B16,
            next_issue: 0,
            outstanding: None,
            beats_left: 0,
            addr: 0x0100_0000,
            latency: LatencyStat::new(),
            completed: 0,
        }
    }

    /// Access-latency distribution (issue to final beat).
    pub fn latency(&self) -> &LatencyStat {
        &self.latency
    }

    /// Completed line reads.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Advances the model one cycle against the controller's PS port.
    pub fn tick(&mut self, now: Cycle, ps_port: &mut AxiPort) {
        if let Some(issued_at) = self.outstanding {
            while let Some(beat) = ps_port.r.pop_ready(now) {
                self.beats_left = self.beats_left.saturating_sub(1);
                if beat.last {
                    self.latency.record(now - issued_at);
                    self.completed += 1;
                    self.outstanding = None;
                    self.next_issue = now + self.period;
                }
            }
            return;
        }
        if now >= self.next_issue && !ps_port.ar.is_full() {
            let ar = ArBeat::new(self.addr, self.line_beats, self.size)
                .with_id(AxiId(0x30))
                .with_issued_at(now);
            ps_port.ar.push(now, ar).expect("checked space");
            self.addr = 0x0100_0000 + (self.addr + 64) % 0x10_0000;
            self.outstanding = Some(now);
            self.beats_left = self.line_beats;
        }
    }
}

sim::persist_fields!(PsCpu {
    period,
    line_beats,
    size,
    next_issue,
    outstanding,
    beats_left,
    addr,
    latency,
    completed,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemConfig, MemoryController};

    #[test]
    fn ps_cpu_reads_complete_through_ps_port() {
        let mut ctrl = MemoryController::new(MemConfig::zcu102());
        ctrl.enable_ps_port();
        let mut cpu = PsCpu::new(100);
        let mut fpga = AxiPort::default();
        for now in 0..5_000 {
            cpu.tick(now, ctrl.ps_port_mut());
            ctrl.tick(now, &mut fpga);
        }
        assert!(cpu.completed() > 10, "only {}", cpu.completed());
        assert_eq!(ctrl.stats().ps_reads_served, cpu.completed());
        // Uncontended latency: first-word + 4 beats, plus issue skew.
        assert!(cpu.latency().max().unwrap() < 40);
    }

    #[test]
    fn fpga_contention_inflates_ps_latency() {
        use axi::types::BurstSize;
        use axi::ArBeat;
        // Saturate the FPGA port with long bursts and compare PS
        // latency against the uncontended run above.
        let mut ctrl = MemoryController::new(MemConfig::zcu102());
        ctrl.enable_ps_port();
        let mut cpu = PsCpu::new(100);
        let mut fpga = AxiPort::default();
        for now in 0..5_000u64 {
            // Keep the FPGA queue full of 256-beat reads.
            let _ = fpga
                .ar
                .push(now, ArBeat::new((now % 64) * 4096, 256, BurstSize::B16));
            cpu.tick(now, ctrl.ps_port_mut());
            ctrl.tick(now, &mut fpga);
            while fpga.r.pop_ready(now).is_some() {}
        }
        assert!(cpu.completed() > 0);
        // Head-of-line blocking behind 256-beat bursts: much worse.
        assert!(
            cpu.latency().max().unwrap() > 100,
            "PS latency unexpectedly low: {:?}",
            cpu.latency().max()
        );
    }

    #[test]
    #[should_panic(expected = "PS port not enabled")]
    fn ps_port_requires_enable() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        let _ = ctrl.ps_port_mut();
    }
}
