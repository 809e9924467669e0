//! Per-port credit-based traffic regulation.
//!
//! The reservation mechanism ([`crate::supervisor`] budgets recharged by
//! [`crate::central::CentralUnit`]) is all-or-nothing: a port either has
//! budget left in the current period or it stalls. Nothing shapes *how*
//! that budget is spent — a port with budget 64 may legally issue all 64
//! sub-transactions back-to-back at the start of the period, producing
//! exactly the burst interference the reservation was meant to contain.
//!
//! [`CreditRegulator`] closes that gap with a classic credit scheme, in
//! the style of AXI-REALM's per-master traffic regulators:
//!
//! * every `window` cycles each lane (read and write regulate
//!   independently) earns `rate` credits, saturating at `burst`;
//! * issuing one sub-transaction spends one credit of the matching lane;
//! * a separate `out_cap` bounds the *total* (read + write) outstanding
//!   sub-transactions regardless of credits.
//!
//! The regulator is enforced in [`crate::supervisor`] *ahead of* the
//! reservation budget check: a throttled port does not touch its budget
//! and does not count budget-stall cycles, so reservation accounting
//! stays meaningful under regulation.
//!
//! # Determinism under fast-forward
//!
//! The simulator's fast-forward scheduler skips cycles where
//! no component makes progress, so regulator state must never mutate on
//! a cycle that only the naive scheduler would tick. The implementation
//! therefore stores credits *as of an anchor window* and computes the
//! current ("effective") credit level purely from the cycle counter:
//!
//! ```text
//! effective(now) = min(burst, stored + windows_since_anchor(now) * rate)
//! ```
//!
//! Stored state only changes when a credit is consumed (a progress
//! cycle, ticked by every scheduler) or when the configuration changes
//! (an AXI-Lite write, which bumps the regfile generation and forces a
//! common tick). Both lanes share one anchor, so a consume on either
//! lane first materialises the effective credits of *both* lanes before
//! re-anchoring.
//!
//! Throttle events are edge-triggered (one event per transition into
//! the throttled state, not one per throttled cycle) for the same
//! reason: a fast-forward skip across a throttled span must not change
//! the event count.

use sim::Cycle;

/// `REG_RATE` value meaning "no rate limit" (reset default).
pub const RATE_UNLIMITED: u32 = u32::MAX;

/// `REG_OUT_CAP` value meaning "no outstanding-transaction cap"
/// (reset default).
pub const OUT_CAP_UNLIMITED: u32 = u32::MAX;

/// Reset value of the global `REG_WINDOW` register: credit refill
/// window in cycles.
pub const DEFAULT_WINDOW: u32 = 64;

/// Runtime-reprogrammable regulator parameters for one port.
///
/// Mirrors the per-port `REG_RATE` / `REG_BURST` / `REG_OUT_CAP`
/// registers plus the global `REG_WINDOW`; carried into the data path
/// through [`crate::TsRuntime`] like every other regfile-derived
/// setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegulatorConfig {
    /// Credits granted to each lane per refill window
    /// ([`RATE_UNLIMITED`] disables rate limiting).
    pub rate: u32,
    /// Maximum credits a lane can accumulate (clamped to >= 1).
    pub burst: u32,
    /// Cap on total outstanding (read + write) sub-transactions
    /// ([`OUT_CAP_UNLIMITED`] disables the cap).
    pub out_cap: u32,
    /// Refill window length in cycles (clamped to >= 1).
    pub window: u32,
}

impl RegulatorConfig {
    /// Reset configuration: everything unlimited, regulation inert.
    pub fn unlimited() -> Self {
        Self {
            rate: RATE_UNLIMITED,
            burst: 1,
            out_cap: OUT_CAP_UNLIMITED,
            window: DEFAULT_WINDOW,
        }
    }

    /// True when the rate limiter applies (rate below unlimited).
    pub fn rate_limited(&self) -> bool {
        self.rate != RATE_UNLIMITED
    }

    /// True when any mechanism (rate limit or outstanding cap) is
    /// armed; an inactive regulator is byte-for-byte invisible.
    pub fn is_active(&self) -> bool {
        self.rate_limited() || self.out_cap != OUT_CAP_UNLIMITED
    }

    fn window_cycles(&self) -> Cycle {
        Cycle::from(self.window.max(1))
    }

    fn burst_clamped(&self) -> u32 {
        self.burst.max(1)
    }
}

impl Default for RegulatorConfig {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Dual-lane (read/write) credit regulator with an outstanding cap.
///
/// See the [module docs](self) for the determinism contract; in short,
/// all observable state changes happen on cycles every scheduler ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreditRegulator {
    cfg: RegulatorConfig,
    /// Read-lane credits as of `anchor_window`.
    read_credits: u32,
    /// Write-lane credits as of `anchor_window`.
    write_credits: u32,
    /// Window index the stored credits are anchored at.
    anchor_window: u64,
    /// Saturating count of throttle-onset events (edge-triggered).
    throttle_events: u64,
    /// Whether the port was throttled as of the last issue attempt.
    throttled: bool,
}

impl Default for CreditRegulator {
    fn default() -> Self {
        Self::new(RegulatorConfig::unlimited())
    }
}

impl CreditRegulator {
    /// A regulator starting with full burst credits on both lanes.
    pub fn new(cfg: RegulatorConfig) -> Self {
        let full = cfg.burst_clamped();
        Self {
            cfg,
            read_credits: full,
            write_credits: full,
            anchor_window: 0,
            throttle_events: 0,
            throttled: false,
        }
    }

    /// Current configuration.
    pub fn config(&self) -> RegulatorConfig {
        self.cfg
    }

    /// True when either the rate limiter or the outstanding cap is
    /// armed.
    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    /// True when the rate limiter applies.
    pub fn rate_limited(&self) -> bool {
        self.cfg.rate_limited()
    }

    fn window_index(&self, now: Cycle) -> u64 {
        now / self.cfg.window_cycles()
    }

    /// Credits available on a lane at `now`, computed purely from the
    /// stored anchor state (no mutation).
    fn effective(&self, stored: u32, now: Cycle) -> u32 {
        let elapsed = self.window_index(now).saturating_sub(self.anchor_window);
        let refilled =
            u64::from(stored).saturating_add(elapsed.saturating_mul(u64::from(self.cfg.rate)));
        refilled.min(u64::from(self.cfg.burst_clamped())) as u32
    }

    /// Adopt a (possibly changed) configuration. On any change both
    /// lanes reset to full burst and the anchor moves to the current
    /// window; the sticky throttle-event counter is preserved (it has
    /// its own W1C clear).
    ///
    /// Called at the top of every issue attempt; configuration writes
    /// bump the regfile generation, so the adopting cycle is ticked by
    /// every scheduler. Returns whether the configuration changed.
    pub fn sync(&mut self, now: Cycle, cfg: RegulatorConfig) -> bool {
        if cfg == self.cfg {
            return false;
        }
        self.cfg = cfg;
        let full = cfg.burst_clamped();
        self.read_credits = full;
        self.write_credits = full;
        self.anchor_window = self.window_index(now);
        self.throttled = false;
        true
    }

    /// Can the read lane issue one sub-transaction at `now`?
    pub fn read_available(&self, now: Cycle) -> bool {
        !self.cfg.rate_limited() || self.effective(self.read_credits, now) > 0
    }

    /// Can the write lane issue one sub-transaction at `now`?
    pub fn write_available(&self, now: Cycle) -> bool {
        !self.cfg.rate_limited() || self.effective(self.write_credits, now) > 0
    }

    /// Does the outstanding-transaction cap admit one more
    /// sub-transaction given `outstanding` currently in flight?
    pub fn out_cap_ok(&self, outstanding: u32) -> bool {
        self.cfg.out_cap == OUT_CAP_UNLIMITED || outstanding < self.cfg.out_cap
    }

    /// Materialise both lanes at `now` and re-anchor. The lanes share
    /// one anchor, so a consume on either lane must first bank the
    /// other lane's accrued refills or they would silently vanish.
    fn materialise(&mut self, now: Cycle) {
        self.read_credits = self.effective(self.read_credits, now);
        self.write_credits = self.effective(self.write_credits, now);
        self.anchor_window = self.window_index(now);
    }

    /// Spend one read-lane credit. Caller must have checked
    /// [`Self::read_available`]. No-op when rate limiting is off.
    pub fn consume_read(&mut self, now: Cycle) {
        if !self.cfg.rate_limited() {
            return;
        }
        self.materialise(now);
        debug_assert!(
            self.read_credits > 0,
            "consume_read without available credit"
        );
        self.read_credits = self.read_credits.saturating_sub(1);
    }

    /// Spend one write-lane credit. Caller must have checked
    /// [`Self::write_available`]. No-op when rate limiting is off.
    pub fn consume_write(&mut self, now: Cycle) {
        if !self.cfg.rate_limited() {
            return;
        }
        self.materialise(now);
        debug_assert!(
            self.write_credits > 0,
            "consume_write without available credit"
        );
        self.write_credits = self.write_credits.saturating_sub(1);
    }

    /// Record the throttle state observed this issue attempt; a rising
    /// edge (not-throttled -> throttled) counts one event, and returns
    /// `true`. Transitions only happen on cycles every scheduler ticks
    /// (work arrival, credit consume, completion), so the count is
    /// scheduler-invariant.
    pub fn note_throttled(&mut self, throttled: bool) -> bool {
        let onset = throttled && !self.throttled;
        if onset {
            self.throttle_events = self.throttle_events.saturating_add(1);
        }
        self.throttled = throttled;
        onset
    }

    /// Whether the last issue attempt was throttled. The next attempt
    /// records the falling edge, so it must not be skipped.
    pub fn is_throttled(&self) -> bool {
        self.throttled
    }

    /// Number of throttle-onset events since the last clear.
    pub fn throttle_events(&self) -> u64 {
        self.throttle_events
    }

    /// W1C backing for the `REG_THROTTLE` register.
    pub fn clear_throttle_events(&mut self) {
        self.throttle_events = 0;
    }

    /// Stored (anchor-time) credits `(read, write)` for gauges and the
    /// read-only `REG_CREDITS` register.
    ///
    /// Deliberately *not* the effective value: stored credits change
    /// only on commonly-ticked cycles, so sampling them every tick is
    /// scheduler-invariant, while the effective value varies with `now`
    /// and would let a naive-only tick observe a refill fast-forward
    /// skips over.
    pub fn stored_credits(&self) -> (u32, u32) {
        (self.read_credits, self.write_credits)
    }

    /// First cycle at which the next refill window opens.
    pub fn next_refill(&self, now: Cycle) -> Cycle {
        (self.window_index(now) + 1).saturating_mul(self.cfg.window_cycles())
    }
}

sim::persist_fields!(RegulatorConfig {
    rate,
    burst,
    out_cap,
    window
});
// Effective credits are derived purely from the stored anchor values and
// the cycle counter, so persisting the anchor state is enough for the
// restored regulator to extrapolate identically.
sim::persist_fields!(CreditRegulator {
    cfg,
    read_credits,
    write_credits,
    anchor_window,
    throttle_events,
    throttled,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rate: u32, burst: u32, window: u32) -> RegulatorConfig {
        RegulatorConfig {
            rate,
            burst,
            out_cap: OUT_CAP_UNLIMITED,
            window,
        }
    }

    #[test]
    fn unlimited_regulator_is_inert() {
        let mut r = CreditRegulator::default();
        assert!(!r.is_active());
        for now in 0..100 {
            assert!(r.read_available(now));
            assert!(r.write_available(now));
            assert!(r.out_cap_ok(u32::MAX - 1));
            r.consume_read(now);
            r.consume_write(now);
        }
        // No state drift: still byte-identical to a fresh regulator.
        assert_eq!(r, CreditRegulator::default());
    }

    #[test]
    fn credits_deplete_and_refill_on_window_boundaries() {
        let mut r = CreditRegulator::new(cfg(2, 4, 10));
        // Fresh regulator starts at full burst.
        assert_eq!(r.stored_credits(), (4, 4));
        for now in 0..4 {
            assert!(r.read_available(now));
            r.consume_read(now);
        }
        assert!(!r.read_available(4));
        // Still blocked until the next window boundary...
        assert!(!r.read_available(9));
        assert_eq!(r.next_refill(4), 10);
        // ...then exactly `rate` credits arrive.
        assert!(r.read_available(10));
        r.consume_read(10);
        r.consume_read(10);
        assert!(!r.read_available(10));
    }

    #[test]
    fn refill_saturates_at_burst() {
        let r = CreditRegulator::new(cfg(100, 3, 10));
        // Many windows elapse; effective credits cap at burst.
        assert_eq!(r.effective(3, 1_000), 3);
        assert_eq!(r.effective(0, 1_000), 3);
    }

    #[test]
    fn lanes_are_independent_but_share_the_anchor() {
        let mut r = CreditRegulator::new(cfg(1, 2, 10));
        r.consume_read(0);
        r.consume_read(0);
        assert!(!r.read_available(0));
        // Write lane untouched.
        assert!(r.write_available(0));
        // Window 1 refills the read lane; consuming WRITE at cycle 12
        // re-anchors both lanes and must not lose the read refill.
        r.consume_write(12);
        assert!(r.read_available(12));
        r.consume_read(12);
        assert!(!r.read_available(12));
    }

    #[test]
    fn consume_banks_other_lanes_refill_before_reanchoring() {
        let mut r = CreditRegulator::new(cfg(1, 4, 10));
        // Drain both lanes in window 0.
        for _ in 0..4 {
            r.consume_read(0);
            r.consume_write(0);
        }
        // Three windows later both lanes accrued 3 credits. A read
        // consume at cycle 30 must bank the write lane's 3 too.
        r.consume_read(30);
        assert_eq!(r.stored_credits(), (2, 3));
        assert!(r.write_available(30));
    }

    #[test]
    fn out_cap_is_independent_of_credits() {
        let r = CreditRegulator::new(RegulatorConfig {
            rate: RATE_UNLIMITED,
            burst: 1,
            out_cap: 3,
            window: DEFAULT_WINDOW,
        });
        assert!(r.is_active());
        assert!(r.out_cap_ok(0));
        assert!(r.out_cap_ok(2));
        assert!(!r.out_cap_ok(3));
        assert!(!r.out_cap_ok(10));
        // Rate lanes unconstrained.
        assert!(r.read_available(0) && r.write_available(0));
    }

    #[test]
    fn throttle_events_are_edge_triggered() {
        let mut r = CreditRegulator::new(cfg(1, 1, 10));
        r.consume_read(0);
        // Many consecutive throttled observations count once.
        for _ in 0..50 {
            r.note_throttled(true);
        }
        assert_eq!(r.throttle_events(), 1);
        r.note_throttled(false);
        r.note_throttled(true);
        assert_eq!(r.throttle_events(), 2);
        r.clear_throttle_events();
        assert_eq!(r.throttle_events(), 0);
        // Clearing does not forget the level: still throttled, no new
        // edge until it first unthrottles.
        r.note_throttled(true);
        assert_eq!(r.throttle_events(), 0);
    }

    #[test]
    fn sync_adopts_config_and_resets_credits() {
        let mut r = CreditRegulator::new(cfg(1, 2, 10));
        r.consume_read(0);
        r.note_throttled(true);
        assert_eq!(r.throttle_events(), 1);
        // Identical config: pure no-op.
        let before = r.clone();
        r.sync(5, cfg(1, 2, 10));
        assert_eq!(r, before);
        // Changed config: full credits, fresh anchor, throttle level
        // reset, sticky event counter preserved.
        r.sync(25, cfg(3, 5, 10));
        assert_eq!(r.stored_credits(), (5, 5));
        assert_eq!(r.throttle_events(), 1);
        assert!(r.read_available(25));
    }

    #[test]
    fn effective_credits_are_pure() {
        let r = CreditRegulator::new(cfg(2, 8, 10));
        // Repeated availability checks at any cycle leave the stored
        // state untouched — the fast-forward determinism contract.
        let snap = r.clone();
        for now in [0, 5, 10, 99, 1_000_000] {
            let _ = r.read_available(now);
            let _ = r.write_available(now);
        }
        assert_eq!(r, snap);
    }

    #[test]
    fn zero_rate_blocks_forever_but_reports_refill_horizon() {
        let r = CreditRegulator::new(cfg(0, 1, 10));
        // Credits start at burst, so the first issue goes through; once
        // spent, rate 0 never refills.
        let mut r2 = r.clone();
        r2.consume_read(0);
        assert!(!r2.read_available(1_000_000));
        // The refill horizon still advances (harmless wake-ups).
        assert_eq!(r2.next_refill(25), 30);
    }

    #[test]
    fn window_clamps_to_one_cycle() {
        let r = CreditRegulator::new(cfg(1, 4, 0));
        // window 0 behaves as window 1: one credit per cycle.
        assert_eq!(r.next_refill(7), 8);
    }
}
