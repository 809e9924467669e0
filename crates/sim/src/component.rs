//! The unit of simulated hardware and the outcome of a bounded run.

use crate::clock::Cycle;

/// A simulatable unit of hardware: advances one clock cycle per call.
///
/// Implementors report *progress* from [`tick`](Self::tick) and an
/// event horizon from [`next_event`](Self::next_event); together they
/// feed the topology's wake calendar, which ticks a node again on the
/// next cycle while it progresses and lets it sleep to its horizon
/// when it does not.
///
/// `Send` is a supertrait: models are plain owned data (no `Rc`, no
/// thread-local handles), so an assembled system can be moved to
/// another thread, e.g. a campaign or benchmark worker.
pub trait Component: Send {
    /// Advances the component by one cycle. Returns `true` if any state
    /// changed (a beat moved, a counter advanced toward an observable
    /// event) — a progressing node is ticked again next cycle.
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
    ///
    /// The horizon is also *stable*: with no input touched (no port
    /// pushed to, popped from or flushed by anyone else, no register
    /// written), every call at a cycle before the returned horizon
    /// returns the same horizon. A caller may therefore ask once, after
    /// a tick that made no progress, and keep the answer until an input
    /// changes, instead of asking again on every cycle.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }
}

impl<T: Component + ?Sized> Component for Box<T> {
    fn tick(&mut self, now: Cycle) -> bool {
        (**self).tick(now)
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        (**self).next_event(now)
    }
}

/// Why a bounded run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The completion condition held at the contained cycle.
    Done(Cycle),
    /// The cycle limit was reached before the condition held.
    CycleLimit(Cycle),
}

impl RunOutcome {
    /// The cycle at which the run stopped, regardless of outcome.
    pub fn cycle(&self) -> Cycle {
        match *self {
            RunOutcome::Done(c) | RunOutcome::CycleLimit(c) => c,
        }
    }

    /// Whether the run completed because the condition held.
    pub fn is_done(&self) -> bool {
        matches!(self, RunOutcome::Done(_))
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Done(c) => write!(f, "done at cycle {c}"),
            RunOutcome::CycleLimit(c) => write!(f, "cycle limit reached at {c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_cycle_and_display() {
        assert_eq!(RunOutcome::Done(3).cycle(), 3);
        assert!(RunOutcome::Done(3).is_done());
        assert!(!RunOutcome::CycleLimit(9).is_done());
        assert_eq!(RunOutcome::Done(3).to_string(), "done at cycle 3");
        assert_eq!(
            RunOutcome::CycleLimit(9).to_string(),
            "cycle limit reached at 9"
        );
    }
}
