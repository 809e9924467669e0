//! The simulation loop: ticks a component until completion or deadlock.

use crate::clock::Cycle;

/// A simulatable unit of hardware: advances one clock cycle per call.
///
/// Implementors report *progress* so the [`Runner`] can distinguish a
/// design that is legitimately idle-waiting from one that has deadlocked
/// (e.g. a protocol bug where two FIFOs wait on each other forever).
///
/// `Send` is a supertrait: models are plain owned data (no `Rc`, no
/// thread-local handles), so an assembled system can be moved to
/// another thread, e.g. a campaign or benchmark worker.
pub trait Component: Send {
    /// Advances the component by one cycle. Returns `true` if any state
    /// changed (a beat moved, a counter advanced toward an observable
    /// event) — used for deadlock detection.
    fn tick(&mut self, now: Cycle) -> bool;

    /// Event-horizon hint: the earliest future cycle at which this
    /// component could possibly make progress or change observable
    /// state, assuming no external input arrives before then.
    ///
    /// The contract is asymmetric: a component may *under-promise*
    /// (return a cycle earlier than its true next event — the scheduler
    /// merely wakes it up for nothing), but must never *over-promise*
    /// (return a cycle later than its true next event, which would let
    /// the scheduler skip state changes). `None` means "purely
    /// reactive": nothing will happen until some other component feeds
    /// this one. The default of `Some(now + 1)` reproduces plain
    /// cycle-by-cycle stepping and is always safe.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }

    /// Names of the innermost sub-components that made progress on the
    /// most recent tick that made any — the triage information a
    /// [`Runner`] folds into [`StallDiagnostics`] when it declares a
    /// stall. Leaf components and aggregates that don't track
    /// attribution return an empty list (the default).
    fn last_active(&self) -> Vec<String> {
        Vec::new()
    }
}

impl<T: Component + ?Sized> Component for Box<T> {
    fn tick(&mut self, now: Cycle) -> bool {
        (**self).tick(now)
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        (**self).next_event(now)
    }

    fn last_active(&self) -> Vec<String> {
        (**self).last_active()
    }
}

/// What a [`Runner`] knew about forward progress when it declared a
/// stall — enough to triage a deadlocked topology without re-running.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StallDiagnostics {
    /// The last cycle at which the component reported progress, or
    /// `None` when it never made any.
    pub last_progress_at: Option<Cycle>,
    /// Names of the sub-components that moved on that cycle, as reported
    /// by [`Component::last_active`]; empty when the component doesn't
    /// track attribution.
    pub last_active: Vec<String>,
}

impl std::fmt::Display for StallDiagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.last_progress_at {
            None => write!(f, "no progress was ever made"),
            Some(c) if self.last_active.is_empty() => {
                write!(f, "last progress at cycle {c}")
            }
            Some(c) => write!(
                f,
                "last progress at cycle {c} by {}",
                self.last_active.join(", ")
            ),
        }
    }
}

/// Why a [`Runner`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The caller-supplied predicate became true at the contained cycle.
    Done(Cycle),
    /// The cycle limit was reached before the predicate held.
    CycleLimit(Cycle),
    /// No component reported progress for the configured number of
    /// consecutive cycles (likely a deadlock or a dried-up workload).
    /// Carries what is known about the last progress made.
    Stalled(Cycle, StallDiagnostics),
}

impl RunOutcome {
    /// The cycle at which the run stopped, regardless of outcome.
    pub fn cycle(&self) -> Cycle {
        match *self {
            RunOutcome::Done(c) | RunOutcome::CycleLimit(c) | RunOutcome::Stalled(c, _) => c,
        }
    }

    /// Whether the run completed because the predicate held.
    pub fn is_done(&self) -> bool {
        matches!(self, RunOutcome::Done(_))
    }

    /// Stall triage information, when the run stalled.
    pub fn stall_diagnostics(&self) -> Option<&StallDiagnostics> {
        match self {
            RunOutcome::Stalled(_, d) => Some(d),
            _ => None,
        }
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Done(c) => write!(f, "done at cycle {c}"),
            RunOutcome::CycleLimit(c) => write!(f, "cycle limit reached at {c}"),
            RunOutcome::Stalled(c, d) => write!(f, "stalled at cycle {c} ({d})"),
        }
    }
}

/// Drives a [`Component`] through cycles until a predicate holds.
///
/// # Example
///
/// ```
/// use sim::{Component, Cycle, Runner};
///
/// struct CountTo10(u64);
/// impl Component for CountTo10 {
///     fn tick(&mut self, _now: Cycle) -> bool {
///         if self.0 < 10 { self.0 += 1; true } else { false }
///     }
/// }
///
/// let mut c = CountTo10(0);
/// let outcome = Runner::new().run_until(&mut c, |c: &CountTo10| c.0 == 10);
/// assert!(outcome.is_done());
/// ```
#[derive(Debug, Clone)]
pub struct Runner {
    max_cycles: Cycle,
    stall_limit: Cycle,
    start_cycle: Cycle,
}

impl Runner {
    /// Default maximum simulated cycles (10 simulated seconds at 150 MHz
    /// would be 1.5e9; experiments here are far shorter).
    pub const DEFAULT_MAX_CYCLES: Cycle = 500_000_000;

    /// Default number of progress-free cycles treated as a stall.
    pub const DEFAULT_STALL_LIMIT: Cycle = 100_000;

    /// Creates a runner with default limits, starting at cycle 0.
    pub fn new() -> Self {
        Self {
            max_cycles: Self::DEFAULT_MAX_CYCLES,
            stall_limit: Self::DEFAULT_STALL_LIMIT,
            start_cycle: 0,
        }
    }

    /// Sets the hard cycle limit.
    pub fn max_cycles(mut self, max: Cycle) -> Self {
        self.max_cycles = max;
        self
    }

    /// Sets how many consecutive progress-free cycles count as a stall.
    pub fn stall_limit(mut self, limit: Cycle) -> Self {
        self.stall_limit = limit;
        self
    }

    /// Sets the first cycle number (useful to resume a paused system).
    pub fn start_cycle(mut self, start: Cycle) -> Self {
        self.start_cycle = start;
        self
    }

    /// Ticks `component` until `done` returns true, the cycle limit is
    /// hit, or no progress is made for the stall limit.
    pub fn run_until<C, F>(&self, component: &mut C, mut done: F) -> RunOutcome
    where
        C: Component,
        F: FnMut(&C) -> bool,
    {
        let mut idle_streak: Cycle = 0;
        let mut last_progress_at: Option<Cycle> = None;
        let mut now = self.start_cycle;
        loop {
            if done(component) {
                return RunOutcome::Done(now);
            }
            if now >= self.start_cycle + self.max_cycles {
                return RunOutcome::CycleLimit(now);
            }
            if component.tick(now) {
                idle_streak = 0;
                last_progress_at = Some(now);
            } else {
                idle_streak += 1;
                if idle_streak >= self.stall_limit {
                    return RunOutcome::Stalled(
                        now,
                        StallDiagnostics {
                            last_progress_at,
                            last_active: component.last_active(),
                        },
                    );
                }
            }
            now += 1;
        }
    }

    /// Ticks `component` for exactly `cycles` cycles, starting at the
    /// configured start cycle, and returns the next cycle number.
    pub fn run_for<C: Component>(&self, component: &mut C, cycles: Cycle) -> Cycle {
        for now in self.start_cycle..self.start_cycle + cycles {
            component.tick(now);
        }
        self.start_cycle + cycles
    }
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ticker {
        ticks: u64,
        busy_until: u64,
    }

    impl Component for Ticker {
        fn tick(&mut self, _now: Cycle) -> bool {
            self.ticks += 1;
            self.ticks <= self.busy_until
        }
    }

    #[test]
    fn completes_when_predicate_holds() {
        let mut t = Ticker {
            ticks: 0,
            busy_until: u64::MAX,
        };
        let out = Runner::new().run_until(&mut t, |t| t.ticks >= 5);
        assert_eq!(out, RunOutcome::Done(5));
        assert!(out.is_done());
        assert_eq!(out.cycle(), 5);
    }

    #[test]
    fn respects_cycle_limit() {
        let mut t = Ticker {
            ticks: 0,
            busy_until: u64::MAX,
        };
        let out = Runner::new().max_cycles(10).run_until(&mut t, |_| false);
        assert_eq!(out, RunOutcome::CycleLimit(10));
        assert!(!out.is_done());
    }

    #[test]
    fn detects_stall() {
        let mut t = Ticker {
            ticks: 0,
            busy_until: 3,
        };
        let out = Runner::new().stall_limit(50).run_until(&mut t, |_| false);
        // Last progress happened at cycle 2; the stall is declared after
        // `stall_limit` progress-free cycles.
        match out {
            RunOutcome::Stalled(c, ref d) => {
                assert_eq!(c, 2 + 50);
                assert_eq!(d.last_progress_at, Some(2));
                assert!(d.last_active.is_empty());
            }
            other => panic!("expected stall, got {other:?}"),
        }
    }

    struct NamedTicker {
        inner: Ticker,
    }

    impl Component for NamedTicker {
        fn tick(&mut self, now: Cycle) -> bool {
            self.inner.tick(now)
        }

        fn last_active(&self) -> Vec<String> {
            vec!["dma0".into(), "leaf1".into()]
        }
    }

    #[test]
    fn stall_diagnostics_name_last_active_components() {
        let mut t = NamedTicker {
            inner: Ticker {
                ticks: 0,
                busy_until: 1,
            },
        };
        let out = Runner::new().stall_limit(10).run_until(&mut t, |_| false);
        let d = out.stall_diagnostics().expect("stalled");
        assert_eq!(d.last_progress_at, Some(0));
        assert_eq!(d.last_active, vec!["dma0".to_string(), "leaf1".to_string()]);
        assert!(out
            .to_string()
            .contains("last progress at cycle 0 by dma0, leaf1"));
    }

    #[test]
    fn stall_with_no_progress_ever() {
        let mut t = Ticker {
            ticks: 0,
            busy_until: 0,
        };
        let out = Runner::new().stall_limit(5).run_until(&mut t, |_| false);
        let d = out.stall_diagnostics().expect("stalled");
        assert_eq!(d.last_progress_at, None);
        assert!(out.to_string().contains("no progress was ever made"));
    }

    #[test]
    fn run_for_exact_count_and_start_cycle() {
        let mut t = Ticker {
            ticks: 0,
            busy_until: u64::MAX,
        };
        let next = Runner::new().start_cycle(100).run_for(&mut t, 25);
        assert_eq!(next, 125);
        assert_eq!(t.ticks, 25);
    }

    #[test]
    fn predicate_checked_before_first_tick() {
        let mut t = Ticker {
            ticks: 0,
            busy_until: u64::MAX,
        };
        let out = Runner::new().run_until(&mut t, |_| true);
        assert_eq!(out, RunOutcome::Done(0));
        assert_eq!(t.ticks, 0);
    }

    #[test]
    fn outcome_display() {
        assert_eq!(RunOutcome::Done(3).to_string(), "done at cycle 3");
        assert_eq!(
            RunOutcome::CycleLimit(9).to_string(),
            "cycle limit reached at 9"
        );
        assert_eq!(
            RunOutcome::Stalled(1, StallDiagnostics::default()).to_string(),
            "stalled at cycle 1 (no progress was ever made)"
        );
    }
}
