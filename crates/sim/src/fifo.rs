//! Timed FIFO queues — the basic storage/pipelining element of all models.
//!
//! Both queue types here are thin timing-policy layers over a
//! [`VecDeque`] of `(visible_at, item)` pairs: contiguous slots, and no
//! heap allocation once a queue has reached its working occupancy
//! (a `VecDeque` grows by doubling and never shrinks on its own).

use crate::clock::Cycle;
use std::collections::VecDeque;

/// Error returned by [`TimedFifo::push`] when the queue is at capacity.
///
/// The rejected element is handed back to the caller so it can be retried
/// on a later cycle (AXI back-pressure: `READY` deasserted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoFull<T>(pub T);

impl<T> std::fmt::Display for FifoFull<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fifo is full")
    }
}

impl<T: std::fmt::Debug> std::error::Error for FifoFull<T> {}

/// A bounded FIFO whose entries become visible `latency` cycles after the
/// cycle they were pushed.
///
/// `TimedFifo` is the workhorse of the cycle-level models:
///
/// * latency 1, capacity ≥ 1 — a pipeline register / the paper's
///   *proactive circular buffer* (always ready to accept while not full,
///   output valid one clock later);
/// * latency 0 — a combinational skid buffer;
/// * larger latencies — fixed-delay pipes (e.g. a DRAM access pipe).
///
/// All mutating operations take the current cycle `now` explicitly, which
/// keeps components order-independent within a simulation tick: an element
/// pushed at cycle `t` can never be observed before `t + latency`,
/// regardless of the order in which components are ticked.
///
/// Storage is a [`VecDeque`]: slots grow by doubling up to the
/// configured capacity and are then reused forever, so steady-state
/// push/pop performs no heap allocation.
///
/// # Example
///
/// ```
/// use sim::TimedFifo;
///
/// let mut pipe: TimedFifo<&str> = TimedFifo::new(2, 1);
/// pipe.push(0, "a").unwrap();
/// pipe.push(0, "b").unwrap();
/// // Full: capacity 2.
/// assert!(pipe.push(0, "c").is_err());
/// // Nothing visible in the push cycle...
/// assert_eq!(pipe.pop_ready(0), None);
/// // ...both visible (in order) one cycle later.
/// assert_eq!(pipe.pop_ready(1), Some("a"));
/// assert_eq!(pipe.pop_ready(1), Some("b"));
/// ```
#[derive(Debug, Clone)]
pub struct TimedFifo<T> {
    entries: VecDeque<(Cycle, T)>,
    capacity: usize,
    latency: Cycle,
    /// Total number of elements ever pushed (for occupancy statistics).
    pushed: u64,
    /// Total number of elements ever popped.
    popped: u64,
    /// High-water mark of occupancy.
    max_occupancy: usize,
}

impl<T> TimedFifo<T> {
    /// Creates a FIFO with the given capacity (elements) and latency
    /// (cycles between push and earliest visibility).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, latency: Cycle) -> Self {
        assert!(capacity > 0, "fifo capacity must be non-zero");
        // Storage starts small and doubles toward `capacity` on demand:
        // queues that run at low occupancy (the common case — a couple
        // of beats in flight) keep their slot array inside a few cache
        // lines instead of round-robining the full configured depth.
        Self {
            entries: VecDeque::new(),
            capacity,
            latency,
            pushed: 0,
            popped: 0,
            max_occupancy: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Current number of queued elements (visible or not).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue holds no elements at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a push would currently be rejected.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Free slots available for pushing this cycle.
    pub fn free(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Pushes an element at cycle `now`; it becomes visible at
    /// `now + latency`.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFull`] carrying the element back if the queue is at
    /// capacity (models de-asserted `READY`).
    pub fn push(&mut self, now: Cycle, item: T) -> Result<(), FifoFull<T>> {
        if self.is_full() {
            return Err(FifoFull(item));
        }
        self.entries.push_back((now + self.latency, item));
        self.pushed += 1;
        self.max_occupancy = self.max_occupancy.max(self.entries.len());
        Ok(())
    }

    /// Whether the head element exists and is visible at cycle `now`.
    pub fn has_ready(&self, now: Cycle) -> bool {
        matches!(self.entries.front(), Some((ready_at, _)) if *ready_at <= now)
    }

    /// Borrows the head element if it is visible at cycle `now`.
    pub fn peek_ready(&self, now: Cycle) -> Option<&T> {
        match self.entries.front() {
            Some((ready_at, item)) if *ready_at <= now => Some(item),
            _ => None,
        }
    }

    /// Removes and returns the head element if it is visible at cycle
    /// `now`; `None` if the queue is empty or the head is still in flight.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.has_ready(now) {
            self.popped += 1;
            self.entries.pop_front().map(|(_, item)| item)
        } else {
            None
        }
    }

    /// Number of elements visible (poppable) at cycle `now`.
    pub fn ready_len(&self, now: Cycle) -> usize {
        self.entries
            .iter()
            .take_while(|(ready_at, _)| *ready_at <= now)
            .count()
    }

    /// Removes every element regardless of visibility, resetting the
    /// queue to empty (models a synchronous flush/reset).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Total elements pushed over the queue's lifetime.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total elements popped over the queue's lifetime.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// A stamp of the queue's traffic: `2 * pushed - len`, which grows
    /// by one on every push and every pop and by the element count on a
    /// flush of a non-empty queue. Two equal stamps mean nothing was
    /// pushed, popped or flushed in between.
    pub fn activity(&self) -> u64 {
        self.pushed
            .wrapping_mul(2)
            .wrapping_sub(self.entries.len() as u64)
    }

    /// Highest occupancy ever observed (for buffer sizing studies).
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Iterates over all queued elements in order, oldest first,
    /// including ones not yet visible.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(_, item)| item)
    }

    /// The cycle at which the head element becomes (or became) visible,
    /// or `None` if the queue is empty. Used by event-horizon scheduling
    /// to compute the earliest cycle anything new can happen.
    pub fn next_ready_at(&self) -> Option<Cycle> {
        self.entries.front().map(|(ready_at, _)| *ready_at)
    }
}

/// A bounded FIFO whose entries each carry their *own* delay, fixed at
/// push time.
///
/// Where [`TimedFifo`] models a fixed-latency pipe, `DelayQueue` models
/// a service stage whose per-item latency varies — e.g. a DRAM bank
/// whose access time depends on whether the row buffer hits. Ordering
/// is still strictly FIFO: a short-delay entry behind a long-delay one
/// waits for it (in-order service).
///
/// # Example
///
/// ```
/// use sim::fifo::DelayQueue;
///
/// let mut q: DelayQueue<&str> = DelayQueue::new(4);
/// q.push(0, 10, "slow").unwrap();
/// q.push(0, 1, "fast-but-behind").unwrap();
/// assert_eq!(q.pop_ready(5), None);
/// assert_eq!(q.pop_ready(10), Some("slow"));
/// // The second entry was ready long ago; it pops immediately after.
/// assert_eq!(q.pop_ready(10), Some("fast-but-behind"));
/// ```
#[derive(Debug, Clone)]
pub struct DelayQueue<T> {
    entries: VecDeque<(Cycle, T)>,
    capacity: usize,
}

impl<T> DelayQueue<T> {
    /// Creates a queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        Self {
            entries: VecDeque::new(),
            capacity,
        }
    }

    /// Current number of queued elements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a push would be rejected.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Pushes an element at cycle `now` with an individual `delay`; it
    /// becomes visible at `now + delay` (but never before entries ahead
    /// of it).
    ///
    /// # Errors
    ///
    /// Returns [`FifoFull`] carrying the element back if at capacity.
    pub fn push(&mut self, now: Cycle, delay: Cycle, item: T) -> Result<(), FifoFull<T>> {
        if self.is_full() {
            return Err(FifoFull(item));
        }
        self.entries.push_back((now + delay, item));
        Ok(())
    }

    /// Whether the head exists and is visible at cycle `now`.
    pub fn has_ready(&self, now: Cycle) -> bool {
        matches!(self.entries.front(), Some((ready_at, _)) if *ready_at <= now)
    }

    /// Removes and returns the head if visible at cycle `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.has_ready(now) {
            self.entries.pop_front().map(|(_, item)| item)
        } else {
            None
        }
    }

    /// Removes every element (synchronous reset).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The cycle at which the head element becomes (or became) visible,
    /// or `None` if the queue is empty.
    pub fn next_ready_at(&self) -> Option<Cycle> {
        self.entries.front().map(|(ready_at, _)| *ready_at)
    }
}

crate::persist_fields!(impl<T> TimedFifo<T> {
    capacity,
    latency,
    pushed,
    popped,
    max_occupancy,
    entries,
} check |fifo| {
    if fifo.capacity == 0 {
        return Err(crate::persist::PersistError::Corrupt("fifo capacity zero"));
    }
    if fifo.entries.len() > fifo.capacity {
        return Err(crate::persist::PersistError::Corrupt(
            "fifo occupancy exceeds capacity",
        ));
    }
});

crate::persist_fields!(impl<T> DelayQueue<T> { capacity, entries } check |queue| {
    if queue.capacity == 0 {
        return Err(crate::persist::PersistError::Corrupt("queue capacity zero"));
    }
    if queue.entries.len() > queue.capacity {
        return Err(crate::persist::PersistError::Corrupt(
            "queue occupancy exceeds capacity",
        ));
    }
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_fifo_is_empty() {
        let f: TimedFifo<u8> = TimedFifo::new(3, 1);
        assert!(f.is_empty());
        assert!(!f.is_full());
        assert_eq!(f.len(), 0);
        assert_eq!(f.free(), 3);
        assert_eq!(f.capacity(), 3);
        assert_eq!(f.latency(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _: TimedFifo<u8> = TimedFifo::new(0, 1);
    }

    #[test]
    fn latency_zero_visible_same_cycle() {
        let mut f = TimedFifo::new(2, 0);
        f.push(5, 'x').unwrap();
        assert_eq!(f.peek_ready(5), Some(&'x'));
        assert_eq!(f.pop_ready(5), Some('x'));
    }

    #[test]
    fn latency_one_hides_for_one_cycle() {
        let mut f = TimedFifo::new(2, 1);
        f.push(5, 'x').unwrap();
        assert!(!f.has_ready(5));
        assert_eq!(f.pop_ready(5), None);
        assert!(f.has_ready(6));
        assert_eq!(f.pop_ready(6), Some('x'));
    }

    #[test]
    fn long_latency_pipe() {
        let mut f = TimedFifo::new(8, 22);
        f.push(100, 1u32).unwrap();
        for c in 100..122 {
            assert_eq!(f.pop_ready(c), None, "cycle {c}");
        }
        assert_eq!(f.pop_ready(122), Some(1));
    }

    #[test]
    fn rejects_when_full_and_returns_item() {
        let mut f = TimedFifo::new(1, 1);
        f.push(0, 10).unwrap();
        let err = f.push(0, 20).unwrap_err();
        assert_eq!(err, FifoFull(20));
        assert_eq!(err.to_string(), "fifo is full");
    }

    #[test]
    fn order_preserved_across_cycles() {
        let mut f = TimedFifo::new(10, 1);
        f.push(0, 1).unwrap();
        f.push(1, 2).unwrap();
        f.push(2, 3).unwrap();
        assert_eq!(f.pop_ready(10), Some(1));
        assert_eq!(f.pop_ready(10), Some(2));
        assert_eq!(f.pop_ready(10), Some(3));
        assert_eq!(f.pop_ready(10), None);
    }

    #[test]
    fn head_blocks_tail_even_if_tail_ready() {
        // Entries pushed at decreasing visibility can't reorder: FIFO.
        let mut f = TimedFifo::new(4, 2);
        f.push(0, 'a').unwrap(); // visible at 2
        f.push(0, 'b').unwrap(); // visible at 2
        assert_eq!(f.ready_len(1), 0);
        assert_eq!(f.ready_len(2), 2);
        assert_eq!(f.pop_ready(2), Some('a'));
    }

    #[test]
    fn ready_len_counts_only_visible_prefix() {
        let mut f = TimedFifo::new(4, 1);
        f.push(0, 1).unwrap(); // visible at 1
        f.push(3, 2).unwrap(); // visible at 4
        assert_eq!(f.ready_len(1), 1);
        assert_eq!(f.ready_len(3), 1);
        assert_eq!(f.ready_len(4), 2);
    }

    #[test]
    fn lifetime_counters_and_high_water() {
        let mut f = TimedFifo::new(2, 0);
        f.push(0, 1).unwrap();
        f.push(0, 2).unwrap();
        assert_eq!(f.max_occupancy(), 2);
        f.pop_ready(0);
        f.pop_ready(0);
        f.push(1, 3).unwrap();
        assert_eq!(f.total_pushed(), 3);
        assert_eq!(f.total_popped(), 2);
        assert_eq!(f.max_occupancy(), 2);
    }

    #[test]
    fn clear_empties_queue() {
        let mut f = TimedFifo::new(4, 1);
        f.push(0, 1).unwrap();
        f.push(0, 2).unwrap();
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.pop_ready(100), None);
    }

    #[test]
    fn iter_sees_invisible_entries() {
        let mut f = TimedFifo::new(4, 10);
        f.push(0, 7).unwrap();
        f.push(0, 8).unwrap();
        let all: Vec<_> = f.iter().copied().collect();
        assert_eq!(all, vec![7, 8]);
    }

    #[test]
    fn steady_state_wrap_does_not_grow_slots() {
        let mut f = TimedFifo::new(4, 1);
        for c in 0..10_000u64 {
            f.push(c, c).unwrap();
            assert_eq!(f.pop_ready(c + 1), Some(c));
        }
        assert_eq!(f.total_pushed(), 10_000);
        assert_eq!(f.total_popped(), 10_000);
        assert_eq!(f.max_occupancy(), 1);
    }

    #[test]
    fn delay_queue_per_entry_latency() {
        let mut q = DelayQueue::new(4);
        q.push(0, 3, 'a').unwrap();
        assert!(!q.has_ready(2));
        assert_eq!(q.pop_ready(3), Some('a'));
    }

    #[test]
    fn delay_queue_is_strictly_fifo() {
        let mut q = DelayQueue::new(4);
        q.push(0, 100, 1).unwrap();
        q.push(0, 1, 2).unwrap();
        // Entry 2 was ready at cycle 1, but FIFO order holds.
        assert_eq!(q.pop_ready(50), None);
        assert_eq!(q.pop_ready(100), Some(1));
        assert_eq!(q.pop_ready(100), Some(2));
    }

    #[test]
    fn delay_queue_capacity_and_clear() {
        let mut q = DelayQueue::new(1);
        q.push(0, 0, 9u8).unwrap();
        assert!(q.is_full());
        assert_eq!(q.push(0, 0, 10), Err(FifoFull(10)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn delay_queue_zero_capacity_panics() {
        let _: DelayQueue<u8> = DelayQueue::new(0);
    }
}
