//! End-to-end data-integrity oracle: a master that *knows* what memory
//! should contain.
//!
//! [`ScoreboardMaster`] writes seeded payloads to seeded burst-aligned
//! offsets inside its span, then reads each burst back and compares the
//! delivered bytes against a shadow copy of expected memory contents.
//! Any delivered-vs-expected mismatch that the fabric did **not**
//! announce through an error response is a *silent corruption* — the
//! one failure mode a predictable interconnect must never exhibit, and
//! the invariant every fabric-fault chaos campaign asserts is zero.
//!
//! Announced errors (SLVERR on an otherwise-good burst, uncorrectable
//! ECC) are *transient* from the master's point of view: the op is
//! re-issued under a capped-exponential [`RetryPolicy`], and the cycles
//! from the op's first issue to its eventual success are tracked so a
//! campaign can check the closed-form
//! [`completion bound`](axi::retry::RetryPolicy::completion_bound).
//!
//! The shadow only commits on a B-OK response, matching the memory
//! controller's semantics (an errored write never reaches the backing
//! store) — so a retried write is idempotent on both sides of the
//! comparison. When the hypervisor quarantines a region onto a zeroed
//! spare, [`ScoreboardMaster::note_remap`] re-zeroes the shadowed
//! window so the oracle tracks the *post-degradation* truth.

use axi::beat::{ArBeat, AwBeat, WBeat};
use axi::retry::RetryPolicy;
use axi::types::{AxiId, BurstSize, Resp};
use axi::{AxiPort, Payload};
use sim::persist::PersistError;
use sim::{Cycle, SimRng};

use crate::Accelerator;

/// AXI ID the scoreboard issues under (distinct from the fault models'
/// `0xE0..=0xE4` and the traffic generators' low IDs).
const SCOREBOARD_ID: AxiId = AxiId(0xD0);

/// Saturating counters of everything the oracle observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoreboardStats {
    /// Read-back bursts whose bytes matched the shadow exactly.
    pub bursts_verified: u64,
    /// Ops re-issued after an announced error response.
    pub retries: u64,
    /// Error responses the fabric announced (SLVERR/DECERR on R or B).
    pub announced_errors: u64,
    /// Delivered-vs-expected mismatches with an OKAY response — the
    /// zero-tolerance invariant.
    pub silent_corruptions: u64,
    /// Ops abandoned after exhausting the retry policy (hard errors).
    pub aborted_ops: u64,
    /// Worst first-issue-to-success completion of any retried op, in
    /// cycles (compare against the closed-form retry bound).
    pub worst_completion: u64,
    /// Most consecutive failures any single op saw before succeeding.
    pub worst_faults_per_op: u32,
    /// Bursts verified since the last [`ScoreboardMaster::note_remap`]
    /// (proof the degraded mapping still round-trips data).
    pub verified_after_remap: u64,
}

/// The oracle's phase within one write-then-verify job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Pick the next offset and issue the write.
    IssueWrite,
    /// AW + W issued; waiting on the B response.
    AwaitB,
    /// Issue the read-back of the burst just written.
    IssueRead,
    /// AR issued; accumulating R beats.
    AwaitR,
}

sim::persist_fields!(ScoreboardStats {
    bursts_verified,
    retries,
    announced_errors,
    silent_corruptions,
    aborted_ops,
    worst_completion,
    worst_faults_per_op,
    verified_after_remap,
});

sim::persist_enum!(
    Phase as u32,
    "scoreboard phase out of range",
    [IssueWrite, AwaitB, IssueRead, AwaitR]
);

/// A write-then-verify data-integrity master (see the module docs).
///
/// One op is outstanding at a time, so every RNG draw is tied to an op
/// boundary — a beat-delivery cycle, identical under every scheduler —
/// keeping fabric-fault campaigns scheduler-equivalent.
#[derive(Debug)]
pub struct ScoreboardMaster {
    name: String,
    base: u64,
    span: u64,
    burst_beats: u32,
    size: BurstSize,
    policy: RetryPolicy,
    jobs: Option<u64>,
    gap: Cycle,
    // --- dynamic state ---
    rng: SimRng,
    shadow: Vec<u8>,
    phase: Phase,
    /// Offset (into the span) of the burst the current job targets.
    offset: u64,
    /// Seed byte mixed into the current job's payload pattern, held
    /// widened to its `u32` wire slot (always below 256).
    stamp: u32,
    /// W beats still to stream for the issued write.
    w_left: u32,
    /// Bytes accumulated from R beats of the in-flight read.
    rx: Vec<u8>,
    /// Worst response seen across the in-flight read burst.
    rx_resp: Resp,
    /// Consecutive failures of the current op.
    failed: u32,
    /// Cycle the current op was first issued (for the bound check).
    op_started: Cycle,
    /// Nothing issues before this cycle (backoff / pacing gap).
    wait_until: Cycle,
    jobs_completed: u64,
    stats: ScoreboardStats,
}

impl ScoreboardMaster {
    /// Creates an oracle exercising `span` bytes at `base` with
    /// `burst_beats`-beat bursts of `size`-byte words.
    ///
    /// # Panics
    ///
    /// Panics unless the span holds at least one burst-aligned burst.
    pub fn new(
        name: impl Into<String>,
        base: u64,
        span: u64,
        burst_beats: u32,
        size: BurstSize,
        seed: u64,
    ) -> Self {
        let burst_bytes = burst_beats as u64 * size.bytes();
        assert!(
            span >= burst_bytes && span.is_multiple_of(burst_bytes),
            "span must be a positive multiple of the burst size"
        );
        Self {
            name: name.into(),
            base,
            span,
            burst_beats,
            size,
            policy: RetryPolicy::default(),
            jobs: None,
            gap: 0,
            rng: SimRng::seed(seed),
            shadow: vec![0; span as usize],
            phase: Phase::IssueWrite,
            offset: 0,
            stamp: 0,
            w_left: 0,
            rx: Vec::new(),
            rx_resp: Resp::Okay,
            failed: 0,
            op_started: 0,
            wait_until: 0,
            jobs_completed: 0,
            stats: ScoreboardStats::default(),
        }
    }

    /// Overrides the retry policy (default: [`RetryPolicy::default`]).
    pub fn policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Stops after `jobs` verified (or aborted) write-verify jobs.
    pub fn jobs(mut self, jobs: u64) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Idle cycles between jobs (pacing, like a periodic RT master).
    pub fn gap(mut self, cycles: Cycle) -> Self {
        self.gap = cycles;
        self
    }

    /// The oracle's counters.
    pub fn stats(&self) -> ScoreboardStats {
        self.stats
    }

    /// Tells the oracle the hypervisor remapped `[lo, hi)` onto a
    /// zeroed spare region: the shadowed window is re-zeroed (the old
    /// contents are gone by design — degraded mode sheds them) and the
    /// post-remap verification counter restarts.
    pub fn note_remap(&mut self, lo: u64, hi: u64) {
        let from = lo.saturating_sub(self.base).min(self.span) as usize;
        let to = hi.saturating_sub(self.base).min(self.span) as usize;
        self.shadow[from..to].fill(0);
        self.stats.verified_after_remap = 0;
    }

    fn burst_bytes(&self) -> u64 {
        self.burst_beats as u64 * self.size.bytes()
    }

    /// The payload byte for `addr` under a job's stamp.
    fn pattern_at(stamp: u8, addr: u64) -> u8 {
        (addr as u8) ^ stamp ^ 0x5A
    }

    /// The payload byte for `addr` under the current job's stamp.
    fn pattern(&self, addr: u64) -> u8 {
        Self::pattern_at(self.stamp as u8, addr)
    }

    /// Registers a failed op attempt; returns whether to retry.
    fn on_failure(&mut self, now: Cycle) -> bool {
        self.stats.announced_errors = self.stats.announced_errors.saturating_add(1);
        self.failed += 1;
        self.stats.worst_faults_per_op = self.stats.worst_faults_per_op.max(self.failed);
        if self.failed >= self.policy.max_attempts {
            self.stats.aborted_ops = self.stats.aborted_ops.saturating_add(1);
            false
        } else {
            self.stats.retries = self.stats.retries.saturating_add(1);
            self.wait_until = now + self.policy.backoff(self.failed - 1);
            true
        }
    }

    /// Registers a successful op completion (for the bound check).
    fn on_success(&mut self, now: Cycle) {
        self.stats.worst_completion = self
            .stats
            .worst_completion
            .max(now.saturating_sub(self.op_started));
        self.failed = 0;
    }

    /// Finishes the current job and paces the next one.
    fn finish_job(&mut self, now: Cycle) {
        self.jobs_completed += 1;
        self.phase = Phase::IssueWrite;
        self.wait_until = now + self.gap;
    }
}

impl Accelerator for ScoreboardMaster {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        if self.is_done() {
            return false;
        }
        let mut progress = false;
        // Stream pending W beats regardless of phase/backoff: the AW is
        // already on the wire, the data must follow.
        while self.w_left > 0 && !port.w.is_full() {
            let len = self.burst_beats;
            let beat_idx = (len - self.w_left) as u64;
            let n = self.size.bytes();
            let beat_base = self.base + self.offset + beat_idx * n;
            let data = Payload::from_fn(n as usize, |b| self.pattern(beat_base + b as u64));
            let last = self.w_left == 1;
            port.w
                .push(now, WBeat::new(data, last).with_issued_at(now))
                .expect("checked space");
            self.w_left -= 1;
            progress = true;
        }
        // Consume responses.
        if self.phase == Phase::AwaitB {
            if let Some(b) = port.b.pop_ready(now) {
                progress = true;
                if b.resp.is_ok() {
                    // Commit the expected bytes: the write reached DRAM.
                    let lo = self.offset as usize;
                    let hi = lo + self.burst_bytes() as usize;
                    let (base, offset, stamp) = (self.base, self.offset, self.stamp as u8);
                    for (i, slot) in self.shadow[lo..hi].iter_mut().enumerate() {
                        *slot = Self::pattern_at(stamp, base + offset + i as u64);
                    }
                    self.on_success(now);
                    self.phase = Phase::IssueRead;
                    self.op_started = now;
                } else if self.on_failure(now) {
                    self.phase = Phase::IssueWrite;
                } else {
                    // Hard error: abandon the job, keep the shadow.
                    self.finish_job(now);
                }
            }
        }
        if self.phase == Phase::AwaitR {
            while let Some(beat) = port.r.pop_ready(now) {
                progress = true;
                self.rx_resp = self.rx_resp.worst(beat.resp);
                self.rx.extend_from_slice(beat.data.as_slice());
                if !beat.last {
                    continue;
                }
                if self.rx_resp.is_ok() {
                    let lo = self.offset as usize;
                    let hi = lo + self.burst_bytes() as usize;
                    if self.rx.as_slice() == &self.shadow[lo..hi] {
                        self.stats.bursts_verified = self.stats.bursts_verified.saturating_add(1);
                        self.stats.verified_after_remap =
                            self.stats.verified_after_remap.saturating_add(1);
                    } else {
                        // Delivered OKAY, bytes wrong: the failure the
                        // whole oracle exists to catch.
                        self.stats.silent_corruptions =
                            self.stats.silent_corruptions.saturating_add(1);
                    }
                    self.on_success(now);
                    self.finish_job(now);
                } else if self.on_failure(now) {
                    self.phase = Phase::IssueRead;
                } else {
                    self.finish_job(now);
                }
                break;
            }
        }
        if now < self.wait_until {
            return progress;
        }
        // Issue the next op.
        match self.phase {
            Phase::IssueWrite if !port.aw.is_full() => {
                if self.failed == 0 {
                    // A fresh job: seeded burst-aligned offset + stamp.
                    let slots = self.span / self.burst_bytes();
                    self.offset = self.rng.range_u64(0, slots - 1) * self.burst_bytes();
                    self.stamp = (self.rng.range_u64(0, 255) as u32) | 1;
                    self.op_started = now;
                }
                port.aw
                    .push(
                        now,
                        AwBeat::new(self.base + self.offset, self.burst_beats, self.size)
                            .with_id(SCOREBOARD_ID)
                            .with_tag(self.jobs_completed)
                            .with_issued_at(now),
                    )
                    .expect("checked space");
                self.w_left = self.burst_beats;
                self.phase = Phase::AwaitB;
                progress = true;
            }
            Phase::IssueRead if !port.ar.is_full() => {
                port.ar
                    .push(
                        now,
                        ArBeat::new(self.base + self.offset, self.burst_beats, self.size)
                            .with_id(SCOREBOARD_ID)
                            .with_tag(self.jobs_completed)
                            .with_issued_at(now),
                    )
                    .expect("checked space");
                self.rx.clear();
                self.rx_resp = Resp::Okay;
                self.phase = Phase::AwaitR;
                progress = true;
            }
            _ => {}
        }
        progress
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn is_done(&self) -> bool {
        self.jobs.is_some_and(|j| self.jobs_completed >= j)
    }

    fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.is_done() {
            return None;
        }
        match self.phase {
            // Waiting on responses: purely reactive.
            Phase::AwaitB | Phase::AwaitR if self.w_left == 0 => None,
            // Backoff or pacing gap.
            _ if now < self.wait_until => Some(self.wait_until),
            _ => Some(now + 1),
        }
    }

    fn reset(&mut self) {
        // In-flight op state is gone with the fabric's pipeline; the
        // shadow and counters survive (the oracle's memory of truth).
        self.phase = Phase::IssueWrite;
        self.w_left = 0;
        self.rx.clear();
        self.rx_resp = Resp::Okay;
        self.failed = 0;
    }

    sim::persist_state! {
        ScoreboardMaster {
            rng,
            shadow,
            phase,
            offset,
            stamp,
            w_left,
            rx,
            rx_resp,
            failed,
            op_started,
            wait_until,
            jobs_completed,
            stats,
        }
        skip "construction-time configuration" {
            name, base, span, burst_beats, size, policy, jobs, gap
        }
        check |this| {
            if shadow.len() != this.span as usize {
                return Err(PersistError::ShapeMismatch("scoreboard shadow span"));
            }
            if stamp > u32::from(u8::MAX) {
                return Err(PersistError::Corrupt("scoreboard stamp"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem::{MemConfig, MemFaultConfig, MemoryController};
    use sim::persist::{PersistValue, SnapshotReader, SnapshotWriter};

    fn run(
        sb: &mut ScoreboardMaster,
        ctrl: &mut MemoryController,
        port: &mut AxiPort,
        cycles: Cycle,
    ) {
        for now in 0..cycles {
            sb.tick(now, port);
            ctrl.tick(now, port);
        }
    }

    fn oracle(seed: u64) -> ScoreboardMaster {
        ScoreboardMaster::new("sb", 0x1000, 4096, 4, BurstSize::B4, seed).jobs(20)
    }

    #[test]
    fn clean_fabric_verifies_every_burst() {
        let mut sb = oracle(1);
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        let mut port = AxiPort::default();
        run(&mut sb, &mut ctrl, &mut port, 3_000);
        let s = sb.stats();
        assert!(sb.is_done(), "{s:?}");
        assert_eq!(s.bursts_verified, 20);
        assert_eq!(s.silent_corruptions, 0);
        assert_eq!(s.announced_errors, 0);
        assert_eq!(s.aborted_ops, 0);
    }

    #[test]
    fn silent_flips_are_caught_as_corruption() {
        let mut sb = oracle(2);
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        ctrl.attach_fault_injector(MemFaultConfig::new(7).flip_single(1.0));
        let mut port = AxiPort::default();
        run(&mut sb, &mut ctrl, &mut port, 3_000);
        let s = sb.stats();
        assert!(sb.is_done());
        assert_eq!(s.silent_corruptions, 20, "{s:?}");
        assert_eq!(s.bursts_verified, 0);
    }

    #[test]
    fn ecc_turns_the_same_flips_into_verified_bursts() {
        let mut sb = oracle(2);
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        ctrl.attach_fault_injector(MemFaultConfig::new(7).flip_single(1.0).ecc(true));
        let mut port = AxiPort::default();
        run(&mut sb, &mut ctrl, &mut port, 3_000);
        let s = sb.stats();
        assert!(sb.is_done());
        assert_eq!(s.silent_corruptions, 0, "{s:?}");
        assert_eq!(s.bursts_verified, 20);
    }

    #[test]
    fn transient_errors_retry_to_success_within_the_bound() {
        let mut sb = oracle(3).policy(RetryPolicy {
            max_attempts: 20,
            backoff_base: 2,
            backoff_cap: 32,
        });
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        ctrl.attach_fault_injector(MemFaultConfig::new(11).spurious_slverr(0.3));
        let mut port = AxiPort::default();
        run(&mut sb, &mut ctrl, &mut port, 20_000);
        let s = sb.stats();
        assert!(sb.is_done(), "{s:?}");
        assert_eq!(s.silent_corruptions, 0);
        assert_eq!(s.aborted_ops, 0, "{s:?}");
        assert_eq!(s.bursts_verified, 20);
        assert!(s.retries > 0, "fault rate 0.3 must trigger retries");
        // Direct path: per-attempt is bounded by the burst round trip;
        // use a generous per-attempt figure and the observed fault max.
        let bound = sb.policy.completion_bound(200, s.worst_faults_per_op);
        assert!(
            s.worst_completion <= bound,
            "worst {} exceeds bound {bound}",
            s.worst_completion
        );
    }

    #[test]
    fn hard_errors_abort_after_the_policy_gives_up() {
        let mut sb = ScoreboardMaster::new("sb", 0x1000, 64, 4, BurstSize::B4, 5)
            .jobs(3)
            .policy(RetryPolicy {
                max_attempts: 3,
                backoff_base: 1,
                backoff_cap: 4,
            });
        // The whole span is a hard-error region.
        let mut ctrl = MemoryController::new(MemConfig::ideal().slverr_range(0x1000, 0x1040));
        let mut port = AxiPort::default();
        run(&mut sb, &mut ctrl, &mut port, 3_000);
        let s = sb.stats();
        assert!(sb.is_done());
        assert_eq!(s.aborted_ops, 3, "{s:?}");
        assert_eq!(s.bursts_verified, 0);
        assert_eq!(s.silent_corruptions, 0, "errors were announced, not silent");
    }

    #[test]
    fn quarantine_remap_restores_verified_round_trips() {
        let mut sb =
            ScoreboardMaster::new("sb", 0x1000, 64, 4, BurstSize::B4, 5).policy(RetryPolicy {
                max_attempts: 4,
                backoff_base: 1,
                backoff_cap: 4,
            });
        let mut ctrl = MemoryController::new(MemConfig::ideal().slverr_range(0x1000, 0x1040));
        let mut port = AxiPort::default();
        run(&mut sb, &mut ctrl, &mut port, 1_000);
        assert!(sb.stats().aborted_ops > 0, "hard region must abort ops");
        // Hypervisor decision: quarantine the region onto a spare.
        ctrl.quarantine_remap(mem::RegionRemap {
            lo: 0x1000,
            hi: 0x1040,
            spare_base: 0x10_0000,
        });
        sb.note_remap(0x1000, 0x1040);
        let before = sb.stats().silent_corruptions;
        for now in 1_000..4_000 {
            sb.tick(now, &mut port);
            ctrl.tick(now, &mut port);
        }
        let s = sb.stats();
        assert!(s.verified_after_remap > 0, "{s:?}");
        assert_eq!(s.silent_corruptions, before, "remap introduced mismatches");
    }

    #[test]
    fn scoreboard_state_round_trips_mid_job() {
        let build = || {
            ScoreboardMaster::new("sb", 0x1000, 1024, 4, BurstSize::B4, 9).policy(RetryPolicy {
                max_attempts: 10,
                backoff_base: 2,
                backoff_cap: 16,
            })
        };
        let mut sb = build();
        let mut ctrl = MemoryController::new(MemConfig::zcu102());
        ctrl.attach_fault_injector(MemFaultConfig::new(3).spurious_slverr(0.2));
        let mut port = AxiPort::default();
        run(&mut sb, &mut ctrl, &mut port, 500);
        let mut w = SnapshotWriter::new();
        sb.save_state(&mut w);
        ctrl.save_state(&mut w);
        port.save_value(&mut w);
        let bytes = w.into_bytes();

        let mut sb2 = build();
        let mut ctrl2 = MemoryController::new(MemConfig::zcu102());
        let mut r = SnapshotReader::new(&bytes);
        sb2.restore_state(&mut r).unwrap();
        ctrl2.restore_state(&mut r).unwrap();
        let mut port2 = AxiPort::load_value(&mut r).unwrap();

        let drive = |sb: &mut ScoreboardMaster,
                     ctrl: &mut MemoryController,
                     port: &mut AxiPort|
         -> (u32, ScoreboardStats) {
            for now in 500..3_000 {
                sb.tick(now, port);
                ctrl.tick(now, port);
            }
            let mut w = SnapshotWriter::new();
            sb.save_state(&mut w);
            (sim::persist::crc32(&w.into_bytes()), sb.stats())
        };
        assert_eq!(
            drive(&mut sb, &mut ctrl, &mut port),
            drive(&mut sb2, &mut ctrl2, &mut port2),
            "restored oracle diverged"
        );
    }
}
