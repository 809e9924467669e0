//! Differential model test for `TimedFifo` against a naive `VecDeque`
//! reference.
//!
//! `TimedFifo` is the storage element under every channel queue in the
//! interconnect models, so its equivalence to the obvious deque of
//! `(visible_at, value)` pairs — including decouple-and-drop (`clear`)
//! and the lifetime counters — is load-bearing for the byte-identity
//! guarantees.

use proptest::prelude::*;
use sim::TimedFifo;
use std::collections::VecDeque;

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
    /// `TimedFifo` matches a reference deque of
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
}
