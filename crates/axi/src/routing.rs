//! Response-routing bookkeeping shared by interconnect models.
//!
//! Both the HyperConnect's EXBAR and the SmartConnect baseline route
//! read-data, write-data and write-response traffic *proactively*: the
//! order in which address requests were granted fully determines where
//! the corresponding data/response beats must go, because the memory
//! subsystem serves transactions in order (paper §II and §V-B). The
//! grant order is recorded in a [`RouteQueue`] — the paper's *routing
//! information* stored in "a temporary internal memory of the EXBAR
//! implemented as a circular buffer"; the backing store is a ring buffer
//! too ([`VecDeque`]).

use std::collections::VecDeque;

/// One grant record: which slave port the transaction came from, plus
/// merge metadata for split (equalized) transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Slave-port index the transaction was granted from.
    pub port: usize,
    /// Whether this sub-transaction is the final fragment of the
    /// original burst (always `true` when no splitting is performed).
    pub final_sub: bool,
    /// The originating transaction's simulation tag.
    pub tag: u64,
    /// The observability `uid` the request carried *at this
    /// interconnect's grant point* (0 = unobserved). Response beats are
    /// restamped with it on the way back up, so in a cascaded topology
    /// every interconnect instance attributes deliveries to its own uid
    /// namespace rather than the one assigned furthest downstream.
    pub uid: u64,
}

/// A FIFO of [`RouteEntry`]s recording transaction grant order.
///
/// # Example
///
/// ```
/// use axi::routing::{RouteEntry, RouteQueue};
///
/// let mut q = RouteQueue::new(4);
/// q.push(RouteEntry { port: 1, final_sub: true, tag: 9, uid: 0 }).unwrap();
/// assert_eq!(q.head().unwrap().port, 1);
/// assert_eq!(q.pop().unwrap().tag, 9);
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RouteQueue {
    entries: VecDeque<RouteEntry>,
    capacity: usize,
}

/// Error returned when a [`RouteQueue`] is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteQueueFull;

impl std::fmt::Display for RouteQueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "route queue is full")
    }
}

impl std::error::Error for RouteQueueFull {}

impl RouteQueue {
    /// Creates a queue bounded at `capacity` in-flight transactions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "route queue capacity must be non-zero");
        Self {
            entries: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
        }
    }

    /// Records a grant.
    ///
    /// # Errors
    ///
    /// Returns [`RouteQueueFull`] when the bound is reached (the arbiter
    /// must stall grants rather than lose routing information).
    pub fn push(&mut self, entry: RouteEntry) -> Result<(), RouteQueueFull> {
        if self.entries.len() >= self.capacity {
            return Err(RouteQueueFull);
        }
        self.entries.push_back(entry);
        Ok(())
    }

    /// The oldest outstanding grant, if any.
    pub fn head(&self) -> Option<&RouteEntry> {
        self.entries.front()
    }

    /// Removes and returns the oldest outstanding grant.
    pub fn pop(&mut self) -> Option<RouteEntry> {
        self.entries.pop_front()
    }

    /// Outstanding grants.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no grants are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the bound is reached.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Removes all entries (synchronous reset).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

sim::persist_fields!(RouteEntry {
    port,
    final_sub,
    tag,
    uid
});
sim::persist_fields!(RouteQueue { capacity, entries } check |queue| {
    if queue.capacity == 0 {
        return Err(sim::persist::PersistError::Corrupt(
            "route queue capacity zero",
        ));
    }
    if queue.entries.len() > queue.capacity {
        return Err(sim::persist::PersistError::Corrupt(
            "route queue over capacity",
        ));
    }
});

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(port: usize) -> RouteEntry {
        RouteEntry {
            port,
            final_sub: true,
            tag: 0,
            uid: 0,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = RouteQueue::new(3);
        for p in 0..3 {
            q.push(entry(p)).unwrap();
        }
        assert!(q.is_full());
        for p in 0..3 {
            assert_eq!(q.pop().unwrap().port, p);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn rejects_when_full() {
        let mut q = RouteQueue::new(1);
        q.push(entry(0)).unwrap();
        assert_eq!(q.push(entry(1)), Err(RouteQueueFull));
        assert_eq!(RouteQueueFull.to_string(), "route queue is full");
    }

    #[test]
    fn head_does_not_consume() {
        let mut q = RouteQueue::new(2);
        q.push(entry(7)).unwrap();
        assert_eq!(q.head().unwrap().port, 7);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut q = RouteQueue::new(2);
        q.push(entry(0)).unwrap();
        q.clear();
        assert!(q.is_empty());
        assert!(q.head().is_none());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = RouteQueue::new(0);
    }
}
