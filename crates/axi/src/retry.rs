//! Transaction retry policy with capped exponential backoff.
//!
//! Transient fabric/slave faults (spurious SLVERR on an otherwise-good
//! burst, uncorrectable-but-announced ECC events) are recoverable: the
//! transaction can simply be re-issued. This module defines the policy
//! masters and the hypervisor agree on — the same capped-exponential
//! backoff shape the recovery manager uses between reattach attempts —
//! plus the closed-form worst-case completion bound a runtime monitor
//! checks against.
//!
//! # The bound
//!
//! Under the bounded-fault-rate assumption — at most `max_faults`
//! transient errors hit any single logical transaction before it
//! succeeds — a transaction completes after at most `max_faults + 1`
//! attempts. Each attempt costs at most `per_attempt` cycles (the
//! service bound of the fault-free fabric, e.g.
//! `ServiceModel::drain_deadline`), and attempt `k` (zero-based) is
//! preceded by a backoff of `backoff(k - 1)` idle cycles. Summing:
//!
//! ```text
//! bound = (max_faults + 1) · per_attempt + Σ_{f=0}^{max_faults-1} backoff(f)
//! ```
//!
//! Every quantity is known at configuration time, so the bound is
//! closed-form and can be armed in a `BoundMonitor` before the campaign
//! starts. If the fault process violates the rate assumption the
//! transaction may exhaust `max_attempts` and surface a hard error —
//! which is the quarantine path's job, not the retry path's.

/// Capped-exponential retry policy for transient error responses.
///
/// Backoff after `f` observed failures is
/// `min(backoff_base << min(f, 16), backoff_cap)` idle cycles — the
/// exact shape of the recovery manager's reattach backoff, so one
/// mental model covers both layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts before the master gives up and reports a hard error
    /// (total issues, i.e. `1` means no retry). Must be at least 1.
    pub max_attempts: u32,
    /// Backoff after the first failure, in cycles.
    pub backoff_base: u64,
    /// Upper bound on any single backoff, in cycles.
    pub backoff_cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            backoff_base: 4,
            backoff_cap: 256,
        }
    }
}

impl RetryPolicy {
    /// Idle cycles to wait after the `failed`-th failure (zero-based:
    /// `backoff(0)` follows the first failed attempt).
    pub fn backoff(&self, failed: u32) -> u64 {
        self.backoff_base
            .saturating_mul(1u64 << failed.min(16))
            .min(self.backoff_cap)
    }

    /// Total backoff cycles inserted across `faults` consecutive
    /// failures (saturating).
    fn total_backoff(&self, faults: u32) -> u64 {
        (0..faults).fold(0u64, |acc, f| acc.saturating_add(self.backoff(f)))
    }

    /// Closed-form worst-case completion bound (in cycles) for one
    /// logical transaction, given a fault-free per-attempt service
    /// bound and the bounded-fault-rate assumption that at most
    /// `max_faults` transient errors hit this transaction.
    ///
    /// Saturates rather than wrapping, so absurd configurations read
    /// as "unbounded", never as a small number.
    pub fn completion_bound(&self, per_attempt: u64, max_faults: u32) -> u64 {
        let attempts = u64::from(max_faults) + 1;
        attempts
            .saturating_mul(per_attempt)
            .saturating_add(self.total_backoff(max_faults))
    }

    /// Whether `max_faults` transient errors still complete within the
    /// policy (i.e. fit in `max_attempts` issues).
    pub fn tolerates(&self, max_faults: u32) -> bool {
        max_faults < self.max_attempts
    }
}

sim::persist_fields!(RetryPolicy {
    max_attempts,
    backoff_base,
    backoff_cap
});

#[cfg(test)]
mod tests {
    use super::*;
    use sim::persist::{PersistValue, SnapshotReader, SnapshotWriter};

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            backoff_base: 4,
            backoff_cap: 20,
        };
        assert_eq!(p.backoff(0), 4);
        assert_eq!(p.backoff(1), 8);
        assert_eq!(p.backoff(2), 16);
        assert_eq!(p.backoff(3), 20, "capped");
        assert_eq!(p.backoff(63), 20, "shift clamped, no overflow");
    }

    #[test]
    fn completion_bound_is_the_sum_of_attempts_and_backoffs() {
        let p = RetryPolicy {
            max_attempts: 8,
            backoff_base: 4,
            backoff_cap: 20,
        };
        // 3 faults -> 4 attempts of 100 cycles + backoffs 4 + 8 + 16.
        assert_eq!(p.completion_bound(100, 3), 4 * 100 + 4 + 8 + 16);
        // Zero faults degenerates to the plain service bound.
        assert_eq!(p.completion_bound(100, 0), 100);
        assert!(p.tolerates(7));
        assert!(!p.tolerates(8));
    }

    #[test]
    fn bound_saturates() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            backoff_base: u64::MAX,
            backoff_cap: u64::MAX,
        };
        assert_eq!(p.completion_bound(u64::MAX, 5), u64::MAX);
    }

    #[test]
    fn policy_round_trips() {
        let p = RetryPolicy::default();
        let mut w = SnapshotWriter::new();
        p.save_value(&mut w);
        let bytes = w.into_bytes();
        let q = RetryPolicy::load_value(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(p, q);
    }
}
