//! The central unit: synchronous reservation-period management.
//!
//! Paper §V-B: "the reservation period is recharged for all the TS
//! modules by the central unit in a synchronous manner". Every `PERIOD`
//! cycles the central unit reloads each port's budget counter from the
//! register file and clears the per-period transaction counters.

use sim::Cycle;

use crate::regfile::RegFile;
use crate::supervisor::TransactionSupervisor;

/// Periodic budget-recharge logic shared by all TS modules.
#[derive(Debug, Clone, Copy)]
pub struct CentralUnit {
    next_boundary: Cycle,
    periods_elapsed: u64,
}

impl CentralUnit {
    /// Creates a central unit that recharges immediately on the first
    /// tick (cycle 0 starts the first reservation period).
    pub fn new() -> Self {
        Self {
            next_boundary: 0,
            periods_elapsed: 0,
        }
    }

    /// Number of completed recharges (period boundaries crossed).
    pub fn periods_elapsed(&self) -> u64 {
        self.periods_elapsed
    }

    /// Cycle of the next period boundary.
    pub fn next_boundary(&self) -> Cycle {
        self.next_boundary
    }

    /// Recharges all budgets if a period boundary has been reached.
    /// Returns `true` when a recharge happened.
    ///
    /// A tick landing past several boundaries (the interconnect was
    /// frozen across them, or is driven sparsely by hand) performs one
    /// recharge and accounts for every crossed boundary, keeping
    /// `next_boundary` on the same period grid a cycle-by-cycle run
    /// would produce.
    pub fn tick(
        &mut self,
        now: Cycle,
        regfile: &mut RegFile,
        supervisors: &mut [TransactionSupervisor],
    ) -> bool {
        if now < self.next_boundary {
            return false;
        }
        let period = Cycle::from(regfile.period().max(1));
        let crossings = (now - self.next_boundary) / period + 1;
        for (i, ts) in supervisors.iter_mut().enumerate() {
            ts.recharge(regfile.port(i).budget);
        }
        regfile.recharge();
        self.periods_elapsed += crossings;
        self.next_boundary += crossings * period;
        true
    }
}

impl Default for CentralUnit {
    fn default() -> Self {
        Self::new()
    }
}

sim::persist_fields!(CentralUnit {
    next_boundary,
    periods_elapsed
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_tick_recharges() {
        let mut cu = CentralUnit::new();
        let mut rf = RegFile::new(2);
        rf.set_budget(0, 5);
        let mut ts = vec![TransactionSupervisor::new(8), TransactionSupervisor::new(8)];
        assert!(cu.tick(0, &mut rf, &mut ts));
        assert_eq!(ts[0].budget_left(), Some(5));
        assert_eq!(ts[1].budget_left(), None); // unlimited
        assert_eq!(cu.periods_elapsed(), 1);
        assert_eq!(cu.next_boundary(), rf.period() as u64);
    }

    #[test]
    fn recharge_happens_exactly_at_period() {
        let mut cu = CentralUnit::new();
        let mut rf = RegFile::new(1);
        rf.set_period(100);
        rf.set_budget(0, 3);
        let mut ts = vec![TransactionSupervisor::new(8)];
        cu.tick(0, &mut rf, &mut ts);
        for now in 1..100 {
            assert!(!cu.tick(now, &mut rf, &mut ts), "cycle {now}");
        }
        assert!(cu.tick(100, &mut rf, &mut ts));
        assert_eq!(cu.periods_elapsed(), 2);
    }

    #[test]
    fn period_change_applies_at_next_boundary() {
        let mut cu = CentralUnit::new();
        let mut rf = RegFile::new(1);
        rf.set_period(10);
        let mut ts = vec![TransactionSupervisor::new(8)];
        cu.tick(0, &mut rf, &mut ts);
        rf.set_period(50); // runtime reconfiguration
        assert!(cu.tick(10, &mut rf, &mut ts));
        assert_eq!(cu.next_boundary(), 60);
    }

    #[test]
    fn catch_up_after_skipped_boundaries_stays_on_the_period_grid() {
        let mut cu = CentralUnit::new();
        let mut rf = RegFile::new(1);
        rf.set_period(100);
        let mut ts = vec![TransactionSupervisor::new(8)];
        cu.tick(0, &mut rf, &mut ts);
        // A tick lands at cycle 370, past boundaries 100, 200 and 300:
        // one recharge, three boundaries accounted, and
        // the next boundary back on the grid (400, not 470).
        assert!(cu.tick(370, &mut rf, &mut ts));
        assert_eq!(cu.periods_elapsed(), 4);
        assert_eq!(cu.next_boundary(), 400);
        assert!(!cu.tick(399, &mut rf, &mut ts));
        assert!(cu.tick(400, &mut rf, &mut ts));
    }

    #[test]
    fn recharge_clears_regfile_period_counters() {
        let mut cu = CentralUnit::new();
        let mut rf = RegFile::new(1);
        let status = crate::regfile::PortStatus {
            txn_this_period: 7,
            ..Default::default()
        };
        rf.status_block().store(0, &status);
        let mut ts = vec![TransactionSupervisor::new(8)];
        cu.tick(0, &mut rf, &mut ts);
        assert_eq!(rf.port(0).txn_this_period, 0);
    }
}
