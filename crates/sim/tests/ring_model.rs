//! Differential model tests for the flat ring kernel: `sim::ring::Ring`
//! and the ring-backed `TimedFifo` against naive `VecDeque` references.
//!
//! The ring is the storage element under every channel queue in the
//! interconnect models, so its equivalence to the obvious deque —
//! including wrap-around, growth and decouple-and-drop (`clear`) — is
//! load-bearing for the byte-identity guarantees of the flat-arena
//! refactor.

use proptest::prelude::*;
use sim::ring::Ring;
use sim::TimedFifo;
use std::collections::VecDeque;

/// One randomized operation on the raw ring.
#[derive(Debug, Clone, Copy)]
enum RingOp {
    /// Push the next sequence number at the back.
    Push,
    /// Pop the front.
    Pop,
    /// Mutate the front in place (exercises the index-handle path).
    BumpFront,
    /// Mutate slot `i % len` in place.
    BumpAt(u8),
    /// Drop every element.
    Clear,
}

fn ring_op() -> impl Strategy<Value = RingOp> {
    // Push appears twice so sequences trend toward occupancy (the
    // vendored proptest's `prop_oneof!` draws arms uniformly).
    prop_oneof![
        Just(RingOp::Push),
        Just(RingOp::Push),
        Just(RingOp::Pop),
        Just(RingOp::BumpFront),
        (0u8..16).prop_map(RingOp::BumpAt),
        Just(RingOp::Clear),
    ]
}

/// One randomized operation on the timed queue, covering the full API
/// surface the interconnect models use.
#[derive(Debug, Clone, Copy)]
enum FifoOp {
    /// Push the next sequence number through the configured latency.
    Push,
    /// Pop if the head is visible.
    Pop,
    /// Advance the clock.
    Advance(u8),
    /// Decouple-and-drop: flush everything regardless of visibility.
    Clear,
}

fn fifo_op() -> impl Strategy<Value = FifoOp> {
    prop_oneof![
        Just(FifoOp::Push),
        Just(FifoOp::Push),
        Just(FifoOp::Pop),
        Just(FifoOp::Pop),
        (1u8..5).prop_map(FifoOp::Advance),
        Just(FifoOp::Clear),
    ]
}

proptest! {
    /// The raw ring behaves exactly like a `VecDeque` across any
    /// push/pop/mutate/clear schedule, including the wrap-and-grow
    /// cases a linear buffer never hits.
    #[test]
    fn ring_matches_vecdeque(
        ops in proptest::collection::vec(ring_op(), 1..300),
    ) {
        let mut dut: Ring<u64> = Ring::new();
        let mut reference: VecDeque<u64> = VecDeque::new();
        let mut seq = 0u64;
        for op in ops {
            match op {
                RingOp::Push => {
                    dut.push_back(seq);
                    reference.push_back(seq);
                    seq += 1;
                }
                RingOp::Pop => {
                    prop_assert_eq!(dut.pop_front(), reference.pop_front());
                }
                RingOp::BumpFront => {
                    if let Some(v) = dut.front_mut() {
                        *v += 1000;
                    }
                    if let Some(v) = reference.front_mut() {
                        *v += 1000;
                    }
                }
                RingOp::BumpAt(i) => {
                    if !reference.is_empty() {
                        let idx = i as usize % reference.len();
                        *dut.get_mut(idx).expect("index in range") += 7;
                        reference[idx] += 7;
                    } else {
                        prop_assert!(dut.get_mut(i as usize).is_none());
                    }
                }
                RingOp::Clear => {
                    dut.clear();
                    reference.clear();
                }
            }
            prop_assert_eq!(dut.len(), reference.len());
            prop_assert_eq!(dut.is_empty(), reference.is_empty());
            prop_assert_eq!(dut.front(), reference.front());
            prop_assert_eq!(dut.back(), reference.back());
            let dut_all: Vec<u64> = dut.iter().copied().collect();
            let ref_all: Vec<u64> = reference.iter().copied().collect();
            prop_assert_eq!(dut_all, ref_all);
        }
    }

    /// The ring-backed `TimedFifo` matches a reference deque of
    /// `(visible_at, value)` pairs over its *entire* API — including
    /// the decouple-and-drop flush and the lifetime counters the
    /// fast-forward fingerprints depend on.
    #[test]
    fn timed_fifo_full_api_matches_reference(
        ops in proptest::collection::vec(fifo_op(), 1..250),
        capacity in 1usize..20,
        latency in 0u64..6,
    ) {
        let mut dut: TimedFifo<u64> = TimedFifo::new(capacity, latency);
        let mut reference: VecDeque<(u64, u64)> = VecDeque::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut ref_pushed = 0u64;
        let mut ref_popped = 0u64;
        let mut ref_high_water = 0usize;
        for op in ops {
            match op {
                FifoOp::Push => {
                    let dut_ok = dut.push(now, seq).is_ok();
                    let ref_ok = reference.len() < capacity;
                    prop_assert_eq!(dut_ok, ref_ok, "push acceptance at {}", now);
                    if ref_ok {
                        reference.push_back((now + latency, seq));
                        ref_pushed += 1;
                        ref_high_water = ref_high_water.max(reference.len());
                    }
                    seq += 1;
                }
                FifoOp::Pop => {
                    let expect = match reference.front() {
                        Some(&(ready, v)) if ready <= now => {
                            reference.pop_front();
                            ref_popped += 1;
                            Some(v)
                        }
                        _ => None,
                    };
                    prop_assert_eq!(dut.pop_ready(now), expect, "pop at {}", now);
                }
                FifoOp::Advance(d) => now += d as u64,
                FifoOp::Clear => {
                    dut.clear();
                    reference.clear();
                }
            }
            prop_assert_eq!(dut.len(), reference.len());
            prop_assert_eq!(dut.is_empty(), reference.is_empty());
            prop_assert_eq!(dut.is_full(), reference.len() >= capacity);
            prop_assert_eq!(dut.free(), capacity - reference.len());
            prop_assert_eq!(dut.total_pushed(), ref_pushed);
            prop_assert_eq!(dut.total_popped(), ref_popped);
            prop_assert!(dut.max_occupancy() >= ref_high_water);
            prop_assert_eq!(dut.next_ready_at(), reference.front().map(|&(r, _)| r));
            let visible = reference
                .iter()
                .take_while(|&&(ready, _)| ready <= now)
                .count();
            prop_assert_eq!(dut.ready_len(now), visible);
            let dut_all: Vec<u64> = dut.iter().copied().collect();
            let ref_all: Vec<u64> = reference.iter().map(|&(_, v)| v).collect();
            prop_assert_eq!(dut_all, ref_all);
        }
    }

    /// Snapshot/restore mid-wrap: a ring frozen at an arbitrary point of
    /// a random op schedule — including heads deep into wrap-around and
    /// grow-after-wrap repacks — must restore to an *equivalent* queue:
    /// identical logical contents, identical bytes on re-save, and
    /// identical behavior under the remaining schedule even though the
    /// restored ring's head offset and spare capacity may differ.
    #[test]
    fn snapshot_restore_mid_wrap_preserves_logical_order(
        warm in proptest::collection::vec(ring_op(), 1..150),
        rest in proptest::collection::vec(ring_op(), 1..150),
    ) {
        fn apply(dut: &mut Ring<u64>, reference: &mut VecDeque<u64>, seq: &mut u64, op: RingOp) {
            match op {
                RingOp::Push => {
                    dut.push_back(*seq);
                    reference.push_back(*seq);
                    *seq += 1;
                }
                RingOp::Pop => {
                    assert_eq!(dut.pop_front(), reference.pop_front());
                }
                RingOp::BumpFront => {
                    if let Some(v) = dut.front_mut() {
                        *v += 1000;
                    }
                    if let Some(v) = reference.front_mut() {
                        *v += 1000;
                    }
                }
                RingOp::BumpAt(i) => {
                    if !reference.is_empty() {
                        let idx = i as usize % reference.len();
                        *dut.get_mut(idx).expect("index in range") += 7;
                        reference[idx] += 7;
                    }
                }
                RingOp::Clear => {
                    dut.clear();
                    reference.clear();
                }
            }
        }

        use sim::persist::{PersistValue, SnapshotReader, SnapshotWriter};

        let mut dut: Ring<u64> = Ring::new();
        let mut reference: VecDeque<u64> = VecDeque::new();
        let mut seq = 0u64;
        for op in warm {
            apply(&mut dut, &mut reference, &mut seq, op);
        }

        // Freeze mid-schedule and thaw into a fresh ring.
        let mut w = SnapshotWriter::new();
        dut.save_value(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let mut thawed = Ring::<u64>::load_value(&mut r).expect("ring restores");

        // Logical equivalence, independent of head offset / capacity.
        let dut_all: Vec<u64> = dut.iter().copied().collect();
        let thawed_all: Vec<u64> = thawed.iter().copied().collect();
        prop_assert_eq!(&dut_all, &thawed_all);

        // Canonical bytes: re-saving the thawed ring (front at slot 0)
        // must reproduce the wrapped original's stream exactly.
        let mut w2 = SnapshotWriter::new();
        thawed.save_value(&mut w2);
        prop_assert_eq!(&bytes, &w2.into_bytes());

        // The thawed ring lives on under the rest of the schedule —
        // growth after the repack must keep matching the original.
        let mut seq2 = seq;
        let mut reference2 = reference.clone();
        for op in rest {
            apply(&mut dut, &mut reference, &mut seq, op);
            apply(&mut thawed, &mut reference2, &mut seq2, op);
            let a: Vec<u64> = dut.iter().copied().collect();
            let b: Vec<u64> = thawed.iter().copied().collect();
            prop_assert_eq!(a, b);
        }
    }
}
