//! The deterministic per-case RNG and the case runner behind the
//! [`proptest!`] macro.
//!
//! [`proptest!`]: crate::proptest

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::strategy::Strategy;

/// Test executions spent shrinking one failure before reporting the
/// smallest failing input found so far.
const SHRINK_BUDGET: usize = 1024;

/// A self-contained xoshiro256++ generator seeded per test case.
///
/// Unlike upstream proptest's OS-seeded runner, every case index maps
/// to a fixed seed, so a failing case number is enough to reproduce it.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: [u64; 4],
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TestRng {
    /// The RNG for test case number `case`.
    pub fn deterministic(case: u64) -> Self {
        // Golden-ratio offset decorrelates neighbouring case indices.
        let mut s = case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_CAFE_F00D_D00D;
        Self {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// One raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut n2 = s2 ^ s0;
        let n3 = s3 ^ s1;
        let n1 = s1 ^ n2;
        let n0 = s0 ^ n3;
        n2 ^= t;
        self.state = [n0, n1, n2, n3.rotate_left(45)];
        result
    }

    /// An unbiased uniform draw in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let wide = (self.next_u64() as u128) * (bound as u128);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }
}

/// Runs `test` on `value`, turning a panic into its message.
fn run_one<V>(test: &impl Fn(V), value: V) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| test(value))).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Greedily shrinks a failing `value`: repeatedly replaces it with the
/// first of `strategy`'s shrink candidates that still fails, until no
/// candidate fails (or the budget runs out). Returns the smallest
/// failing value found with its failure message.
fn minimize<S: Strategy>(
    strategy: &S,
    value: S::Value,
    message: String,
    test: &impl Fn(S::Value),
) -> (S::Value, String)
where
    S::Value: Clone,
{
    let mut best = (value, message);
    let mut budget = SHRINK_BUDGET;
    'shrink: while budget > 0 {
        for candidate in strategy.shrink(&best.0) {
            if budget == 0 {
                break 'shrink;
            }
            budget -= 1;
            if let Err(message) = run_one(test, candidate.clone()) {
                best = (candidate, message);
                continue 'shrink;
            }
        }
        break;
    }
    best
}

/// Runs case number `case` of a property: draws the case's value from
/// its fixed seed and runs `test` on it. A failure is shrunk greedily
/// through the strategy's shrink candidates and re-raised as a panic
/// naming the case seed, the minimal failing input and its failure
/// message.
///
/// # Panics
///
/// Panics when the property fails.
pub fn run_case<S: Strategy>(strategy: &S, case: u32, test: impl Fn(S::Value))
where
    S::Value: Clone + Debug,
{
    let value = strategy.generate(&mut TestRng::deterministic(u64::from(case)));
    if let Err(message) = run_one(&test, value.clone()) {
        let (minimal, message) = minimize(strategy, value, message, &test);
        panic!(
            "property failed at case {case} (seed TestRng::deterministic({case}))\n\
             minimal failing input: {minimal:?}\n\
             failure: {message}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_case_same_stream() {
        let mut a = TestRng::deterministic(3);
        let mut b = TestRng::deterministic(3);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn neighbouring_cases_decorrelate() {
        let mut a = TestRng::deterministic(0);
        let mut b = TestRng::deterministic(1);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn below_is_in_range() {
        let mut r = TestRng::deterministic(9);
        for bound in [1u64, 2, 3, 7, 1000] {
            for _ in 0..100 {
                assert!(r.below(bound) < bound);
            }
        }
    }
}
