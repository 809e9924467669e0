//! A contiguous power-of-two ring buffer — the flat storage kernel under
//! every queue in the simulator.
//!
//! [`Ring`] replaces the `std::collections::VecDeque` previously used by
//! [`TimedFifo`](crate::TimedFifo) and friends. The differences that
//! matter for the hot path:
//!
//! * **Contiguous slots, index arithmetic only.** Elements live in a
//!   single `Vec` whose length is always a power of two, so head/tail
//!   wrap is a mask, not a division, and iteration touches adjacent
//!   memory.
//! * **Zero steady-state allocation.** The slot array grows by doubling
//!   (amortized O(1), at most `log2(capacity)` grows over a queue's
//!   lifetime) and never shrinks; once a queue has reached its working
//!   occupancy, pushes and pops allocate nothing.
//! * **Index handles.** `front`/`front_mut`/`get` expose slot access by
//!   logical index so bookkeeping layers (EXBAR write routing, split
//!   queues) can update entries in place instead of pop/clone/push.
//!
//! The ring is deliberately *unbounded* — capacity policy (AXI
//! back-pressure) belongs to the wrapping queue, which checks `len()`
//! against its configured bound before pushing.

/// A growable FIFO ring buffer over contiguous power-of-two storage.
///
/// # Example
///
/// ```
/// use sim::ring::Ring;
///
/// let mut r: Ring<u32> = Ring::new();
/// r.push_back(1);
/// r.push_back(2);
/// assert_eq!(r.front(), Some(&1));
/// assert_eq!(r.pop_front(), Some(1));
/// assert_eq!(r.pop_front(), Some(2));
/// assert_eq!(r.pop_front(), None);
/// ```
#[derive(Clone)]
pub struct Ring<T> {
    /// Slot storage; `slots.len()` is zero or a power of two.
    slots: Vec<Option<T>>,
    /// Index of the logical front element.
    head: usize,
    /// Number of occupied slots.
    len: usize,
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Ring<T> {
    /// Creates an empty ring with no storage; the first push allocates.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            head: 0,
            len: 0,
        }
    }

    /// Creates an empty ring pre-sized to hold at least `hint` elements
    /// without growing (rounded up to a power of two).
    pub fn with_capacity(hint: usize) -> Self {
        let mut r = Self::new();
        if hint > 0 {
            r.grow_to(hint.next_power_of_two());
        }
        r
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        debug_assert!(self.slots.len().is_power_of_two());
        self.slots.len() - 1
    }

    /// Re-lays the ring out into a fresh slot array of `new_size`
    /// (a power of two), front element at index 0.
    fn grow_to(&mut self, new_size: usize) {
        debug_assert!(new_size.is_power_of_two() && new_size >= self.len);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(new_size);
        if self.slots.is_empty() {
            slots.resize_with(new_size, || None);
        } else {
            let mask = self.mask();
            for i in 0..self.len {
                slots.push(self.slots[(self.head + i) & mask].take());
            }
            slots.resize_with(new_size, || None);
        }
        self.slots = slots;
        self.head = 0;
    }

    /// Appends an element at the back, growing the slot array (by
    /// doubling) if it is full.
    pub fn push_back(&mut self, item: T) {
        if self.len == self.slots.len() {
            let next = (self.slots.len() * 2).max(8);
            self.grow_to(next);
        }
        let tail = (self.head + self.len) & self.mask();
        debug_assert!(self.slots[tail].is_none());
        self.slots[tail] = Some(item);
        self.len += 1;
    }

    /// Removes and returns the front element.
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let item = self.slots[self.head].take();
        debug_assert!(item.is_some());
        self.head = (self.head + 1) & self.mask();
        self.len -= 1;
        item
    }

    /// Borrows the front element.
    pub fn front(&self) -> Option<&T> {
        self.get(0)
    }

    /// Mutably borrows the front element.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.get_mut(0)
    }

    /// Borrows the back element.
    pub fn back(&self) -> Option<&T> {
        self.len.checked_sub(1).and_then(|i| self.get(i))
    }

    /// Borrows the element at logical index `i` (0 = front).
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        self.slots[(self.head + i) & self.mask()].as_ref()
    }

    /// Mutably borrows the element at logical index `i` (0 = front).
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        let mask = self.mask();
        self.slots[(self.head + i) & mask].as_mut()
    }

    /// Iterates front-to-back over all queued elements.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len).map(move |i| {
            self.slots[(self.head + i) & (self.slots.len() - 1)]
                .as_ref()
                .expect("occupied ring slot")
        })
    }

    /// Removes every element, dropping each; slot storage is retained.
    pub fn clear(&mut self) {
        while self.pop_front().is_some() {}
    }
}

/// Shows the queued elements front to back, like a `VecDeque`.
impl<T: std::fmt::Debug> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Two rings are equal when they queue equal elements in the same
/// order, whatever their head offsets and slot capacities.
impl<T: PartialEq> PartialEq for Ring<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: crate::persist::PersistValue> crate::persist::PersistValue for Ring<T> {
    /// Serializes elements in *logical* order (front to back), never in
    /// slot-storage order: two rings holding the same queue at different
    /// head offsets (e.g. one freshly grown, one wrapped) produce
    /// identical bytes. `head` and spare slot capacity are allocation
    /// details, not state.
    fn save_value(&self, w: &mut crate::persist::SnapshotWriter) {
        w.put_usize(self.len);
        for item in self.iter() {
            item.save_value(w);
        }
    }

    fn load_value(
        r: &mut crate::persist::SnapshotReader<'_>,
    ) -> Result<Self, crate::persist::PersistError> {
        let len = r.take_usize()?;
        // Every element is at least one byte: reject absurd lengths
        // from corrupt streams before sizing the slot array.
        if len > r.remaining() {
            return Err(crate::persist::PersistError::Corrupt(
                "ring length exceeds stream",
            ));
        }
        let mut ring = Ring::with_capacity(len);
        for _ in 0..len {
            ring.push_back(T::load_value(r)?);
        }
        Ok(ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_with_no_storage() {
        let r: Ring<u8> = Ring::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.slots.len(), 0);
        assert_eq!(r.front(), None);
        assert_eq!(r.back(), None);
    }

    #[test]
    fn fifo_order_across_growth() {
        let mut r = Ring::new();
        for i in 0..100u32 {
            r.push_back(i);
        }
        assert!(r.slots.len().is_power_of_two());
        for i in 0..100u32 {
            assert_eq!(r.pop_front(), Some(i));
        }
        assert_eq!(r.pop_front(), None);
    }

    #[test]
    fn wraps_without_growing_in_steady_state() {
        let mut r = Ring::with_capacity(4);
        let cap = r.slots.len();
        for round in 0..1000u32 {
            r.push_back(round);
            r.push_back(round + 1);
            assert_eq!(r.pop_front(), Some(round));
            assert_eq!(r.pop_front(), Some(round + 1));
        }
        assert_eq!(r.slots.len(), cap, "steady state must not grow");
    }

    #[test]
    fn growth_preserves_order_when_wrapped() {
        let mut r = Ring::with_capacity(4);
        // Advance head so the live region wraps, then force a grow.
        for i in 0..3u32 {
            r.push_back(i);
        }
        r.pop_front();
        r.pop_front();
        for i in 3..12u32 {
            r.push_back(i);
        }
        let seen: Vec<_> = r.iter().copied().collect();
        assert_eq!(seen, (2..12).collect::<Vec<_>>());
    }

    #[test]
    fn index_access_and_in_place_mutation() {
        let mut r = Ring::new();
        r.push_back(10u32);
        r.push_back(20);
        r.push_back(30);
        assert_eq!(r.get(1), Some(&20));
        assert_eq!(r.get(3), None);
        *r.front_mut().unwrap() += 1;
        *r.get_mut(2).unwrap() += 1;
        assert_eq!(r.pop_front(), Some(11));
        assert_eq!(r.back(), Some(&31));
    }

    #[test]
    fn corrupt_length_is_rejected_before_allocating() {
        use crate::persist::{PersistError, PersistValue, SnapshotReader};
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.push(1);
        assert_eq!(
            Ring::<u8>::load_value(&mut SnapshotReader::new(&bytes)).err(),
            Some(PersistError::Corrupt("ring length exceeds stream"))
        );
    }

    #[test]
    fn clear_drops_everything_but_keeps_storage() {
        let mut r = Ring::with_capacity(8);
        let cap = r.slots.len();
        for i in 0..5u32 {
            r.push_back(i);
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.slots.len(), cap);
        r.push_back(99);
        assert_eq!(r.pop_front(), Some(99));
    }
}
