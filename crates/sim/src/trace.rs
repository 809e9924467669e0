//! Bounded in-memory event tracing for debugging simulated designs.

use std::collections::VecDeque;

use crate::clock::Cycle;

/// One traced event: a cycle, a static source label and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the event occurred.
    pub cycle: Cycle,
    /// Which model emitted the event (e.g. `"exbar"`, `"ts[0]"`).
    pub source: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>10}] {:<12} {}",
            self.cycle, self.source, self.message
        )
    }
}

/// A ring buffer of [`TraceEvent`]s.
///
/// Tracing is off by default; models call [`Tracer::emit`]
/// unconditionally and the disabled path is a single branch. When the
/// buffer overflows, the *oldest* events are dropped (the most recent
/// history is what matters when diagnosing a stall).
///
/// # Example
///
/// ```
/// use sim::trace::Tracer;
///
/// let mut t = Tracer::enabled(2);
/// t.emit(1, "exbar", "grant port 0");
/// t.emit(2, "exbar", "grant port 1");
/// t.emit(3, "exbar", "grant port 0");
/// assert_eq!(t.dropped(), 1); // oldest event evicted
/// let lines = t.dump();
/// // Eviction is surfaced, not silent: a notice line leads the dump.
/// assert_eq!(lines.len(), 3);
/// assert!(lines[0].contains("1 older event(s) dropped"));
/// assert!(lines[1].contains("grant port 1"));
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Tracer {
    /// Creates a disabled tracer (zero overhead beyond one branch).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            capacity: 0,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Creates an enabled tracer retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be non-zero");
        Self {
            enabled: true,
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event if enabled; otherwise does nothing.
    pub fn emit(&mut self, cycle: Cycle, source: &str, message: impl Into<String>) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            cycle,
            source: source.to_owned(),
            message: message.into(),
        });
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Formats all retained events, oldest first.
    ///
    /// When older events were evicted due to capacity, the first line is
    /// a notice stating how many were dropped — a truncated trace must
    /// never read as a complete one.
    pub fn dump(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.events.len() + 1);
        if self.dropped > 0 {
            lines.push(format!(
                "[{:>10}] {:<12} {} older event(s) dropped (capacity {})",
                "...", "tracer", self.dropped, self.capacity
            ));
        }
        lines.extend(self.events.iter().map(|e| e.to_string()));
        lines
    }

    /// Clears retained events (the dropped counter is preserved).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

crate::persist_fields!(TraceEvent {
    cycle,
    source,
    message
});
crate::persist_fields!(Tracer { enabled, capacity, dropped, events } check |t| {
    if t.enabled && t.capacity == 0 {
        return Err(crate::persist::PersistError::Corrupt(
            "enabled tracer with zero capacity",
        ));
    }
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.emit(1, "x", "hello");
        assert!(t.is_empty());
        assert!(!t.is_enabled());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn enabled_tracer_records_in_order() {
        let mut t = Tracer::enabled(8);
        t.emit(1, "a", "first");
        t.emit(2, "b", "second");
        let events: Vec<_> = t.iter().collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].cycle, 1);
        assert_eq!(events[1].source, "b");
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut t = Tracer::enabled(3);
        for c in 0..5u64 {
            t.emit(c, "s", format!("e{c}"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let first = t.iter().next().unwrap();
        assert_eq!(first.message, "e2");
    }

    #[test]
    fn dump_surfaces_dropped_events() {
        // Regression: dump() used to return only the retained events,
        // silently hiding that older ones had been evicted.
        let mut t = Tracer::enabled(3);
        for c in 0..5u64 {
            t.emit(c, "s", format!("e{c}"));
        }
        let lines = t.dump();
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert!(lines[0].contains("2 older event(s) dropped"));
        assert!(lines[1].contains("e2"));
        // No eviction: no notice line.
        let mut t = Tracer::enabled(8);
        t.emit(0, "s", "only");
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.dump().len(), 1);
    }

    #[test]
    fn clear_preserves_dropped_counter() {
        let mut t = Tracer::enabled(1);
        t.emit(0, "s", "a");
        t.emit(1, "s", "b");
        assert_eq!(t.dropped(), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn display_format() {
        let e = TraceEvent {
            cycle: 42,
            source: "exbar".into(),
            message: "grant".into(),
        };
        let s = e.to_string();
        assert!(s.contains("42"));
        assert!(s.contains("exbar"));
        assert!(s.contains("grant"));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = Tracer::enabled(0);
    }
}
