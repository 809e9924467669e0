//! The Transaction Supervisor (TS): burst equalization, outstanding
//! limiting and bandwidth reservation for one slave port.
//!
//! Paper §V-B: the TS is the core module for bandwidth and memory-access
//! management. Reads and writes are managed by independent subsystems
//! (the AXI channels are parallel). The TS
//!
//! * **equalizes** bursts to a *nominal* length (Restuccia et al., TECS
//!   2019): read requests are split into sub-requests of nominal size
//!   and their data merged back; write requests are split along with
//!   their data, and the write responses merged into one;
//! * **limits outstanding transactions** per direction to a programmed
//!   value;
//! * **enforces bandwidth reservation** (Pagani et al., ECRTS 2019): a
//!   budget of sub-transactions per port, recharged every reservation
//!   period by the central unit — combined with equalization this bounds
//!   both the number of transactions *and* the data moved in any period;
//! * adds exactly **one cycle** of latency on each address request and
//!   none on the R/W/B channels, which are handled proactively.

use std::collections::VecDeque;

use axi::beat::{ArBeat, AwBeat, BBeat, RBeat, WBeat};
use axi::burst::{crosses_4k, split_incr};
use axi::checker::{Violation, ViolationKind};
use axi::observe::{Hop, ObsChannel, ObsEvent};
use axi::types::{BurstKind, Resp};
use sim::stats::LatencyStat;
use sim::{Cycle, TimedFifo};

use crate::efifo::EFifo;
use crate::regfile::BUDGET_UNLIMITED;
use crate::regulate::{CreditRegulator, RegulatorConfig};

/// Consecutive cycles the W channel may starve a pending write burst
/// before the TS reports a [`ViolationKind::HandshakeHang`]. The
/// detector re-arms after each report, so a persistent hang produces a
/// report every `W_HANG_THRESHOLD` cycles.
pub const W_HANG_THRESHOLD: u32 = 64;

/// An equalized (sub-)read request staged for arbitration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubAr {
    /// The sub-request itself (original tag/ID/timestamp preserved).
    pub beat: ArBeat,
    /// Whether this is the final fragment of the original burst.
    pub final_sub: bool,
}

/// An equalized (sub-)write request staged for arbitration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubAw {
    /// The sub-request itself (original tag/ID/timestamp preserved).
    pub beat: AwBeat,
    /// Whether this is the final fragment of the original burst.
    pub final_sub: bool,
}

/// Per-tick runtime configuration of a TS, read from the register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsRuntime {
    /// Nominal burst length in beats.
    pub nominal: u32,
    /// Outstanding sub-transaction limit per direction.
    pub max_outstanding: u32,
    /// Whether the port is enabled (coupled).
    pub enabled: bool,
    /// Whether the port is quiescing: no new transactions are admitted
    /// at ingest, while staged and in-flight ones complete normally
    /// (the recovery protocol's drain phase).
    pub quiesced: bool,
    /// Traffic-regulation parameters (rate/burst/out-cap/window) the TS
    /// adopts lazily at its next issue attempt.
    pub regulator: RegulatorConfig,
}

/// Aggregate per-port counters exposed by the TS.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TsStats {
    /// Original read bursts fully completed.
    pub reads_completed: u64,
    /// Original write bursts fully completed (B delivered).
    pub writes_completed: u64,
    /// Bytes of read data delivered to the accelerator.
    pub bytes_read: u64,
    /// Bytes of write data forwarded toward memory.
    pub bytes_written: u64,
    /// Sub-transactions issued since reset.
    pub subs_issued: u64,
    /// Cycles an issue-eligible sub-transaction was stalled by an
    /// exhausted budget (reservation throttling at work).
    pub budget_stall_cycles: u64,
}

/// The Transaction Supervisor for one slave port.
#[derive(Debug)]
pub struct TransactionSupervisor {
    // --- read management subsystem ---
    ar_split: VecDeque<SubAr>,
    /// Staged sub-reads toward the EXBAR (the TS's one-cycle register).
    pub ar_stage: TimedFifo<SubAr>,
    read_outstanding: u32,
    // --- write management subsystem ---
    aw_split: VecDeque<SubAw>,
    /// Staged sub-writes toward the EXBAR.
    pub aw_stage: TimedFifo<SubAw>,
    /// Upcoming sub-burst lengths for W-stream re-chunking.
    w_sublens: VecDeque<u32>,
    w_current_left: u32,
    /// Original (pre-split) burst lengths, for WLAST-position checking
    /// against what the accelerator actually drives.
    w_orig_lens: VecDeque<u32>,
    w_orig_left: u32,
    /// Cycles the W channel has starved a pending write burst.
    w_starved: u32,
    /// Re-chunked write data toward the EXBAR (proactive: no latency).
    pub w_stage: TimedFifo<WBeat>,
    write_outstanding: u32,
    // --- traffic regulation (AXI-REALM-style credit scheme) ---
    regulator: CreditRegulator,
    // --- reservation ---
    budget_left: Option<u32>,
    txn_this_period: u32,
    txn_total: u64,
    overrun_reported: bool,
    // --- error-response merging ---
    r_sub_resp: Resp,
    b_merged_resp: Resp,
    // --- statistics ---
    stats: TsStats,
    read_latency: LatencyStat,
    write_latency: LatencyStat,
    violations: Vec<Violation>,
    // --- observability (off unless enable_observability was called) ---
    /// Port index for event attribution and uid salting.
    obs_port: Option<usize>,
    /// Monotonic uid sequence for transactions accepted by this TS.
    uid_seq: u64,
    /// Hop events buffered for the owning interconnect to drain.
    obs_events: Vec<ObsEvent>,
    /// Saturating count of error-completed transactions (merged R and B
    /// responses that were not OKAY), surfaced through `PORT_ERR_TOTAL`.
    err_total: u64,
}

impl TransactionSupervisor {
    /// Creates a TS with the given W staging depth (beats).
    pub fn new(w_depth: usize) -> Self {
        Self {
            ar_split: VecDeque::new(),
            ar_stage: TimedFifo::new(2, 1),
            read_outstanding: 0,
            aw_split: VecDeque::new(),
            aw_stage: TimedFifo::new(2, 1),
            w_sublens: VecDeque::new(),
            w_current_left: 0,
            w_orig_lens: VecDeque::new(),
            w_orig_left: 0,
            w_starved: 0,
            w_stage: TimedFifo::new(w_depth.max(2), 0),
            write_outstanding: 0,
            regulator: CreditRegulator::default(),
            budget_left: None,
            txn_this_period: 0,
            txn_total: 0,
            overrun_reported: false,
            r_sub_resp: Resp::Okay,
            b_merged_resp: Resp::Okay,
            stats: TsStats::default(),
            read_latency: LatencyStat::new(),
            write_latency: LatencyStat::new(),
            violations: Vec::new(),
            obs_port: None,
            uid_seq: 0,
            obs_events: Vec::new(),
            err_total: 0,
        }
    }

    /// Saturating count of transactions this TS completed with a
    /// non-OKAY merged response (read sub-bursts and merged writes).
    pub fn err_total(&self) -> u64 {
        self.err_total
    }

    /// Turns on transaction observability for this TS, identifying it as
    /// slave port `port`. From the next accepted transaction on, address
    /// beats get a unique `uid` (salted with the port index so uids are
    /// globally unique) and the TS buffers [`ObsEvent`]s for the owning
    /// interconnect to fold through [`Self::obs_events_mut`].
    ///
    /// # Panics
    ///
    /// Panics if `port >= 1023` (the uid salt is 10 bits).
    pub fn enable_observability(&mut self, port: usize) {
        assert!(port < 1023, "uid salt supports at most 1022 ports");
        self.obs_port = Some(port);
    }

    /// The buffered hop events, in emission order. The owning
    /// interconnect folds them and clears the buffer once per tick.
    pub fn obs_events_mut(&mut self) -> &mut Vec<ObsEvent> {
        &mut self.obs_events
    }

    /// Whether hop events are waiting to be drained.
    pub fn has_obs_events(&self) -> bool {
        !self.obs_events.is_empty()
    }

    /// Allocates the next uid for a transaction accepted on this port.
    fn next_uid(&mut self, port: usize) -> u64 {
        self.uid_seq += 1;
        axi::observe::uid_of(port, self.uid_seq)
    }

    fn record(&mut self, cycle: Cycle, kind: ViolationKind, detail: String) {
        self.violations.push(Violation::new(cycle, kind, detail));
    }

    /// Drains the structured violations this TS has detected since the
    /// last call (the interconnect attributes them to its port).
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Whether any violations are waiting to be drained.
    pub fn has_violations(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Recharges the reservation budget (called synchronously for all
    /// ports by the central unit at each period boundary). The register
    /// value [`BUDGET_UNLIMITED`] disables reservation for the port.
    pub fn recharge(&mut self, budget_reg: u32) {
        self.budget_left = (budget_reg != BUDGET_UNLIMITED).then_some(budget_reg);
        self.txn_this_period = 0;
        self.overrun_reported = false;
    }

    /// Remaining budget this period (`None` = unlimited).
    pub fn budget_left(&self) -> Option<u32> {
        self.budget_left
    }

    /// Sub-transactions issued in the current period.
    pub fn txn_this_period(&self) -> u32 {
        self.txn_this_period
    }

    /// Sub-transactions issued since reset.
    pub fn txn_total(&self) -> u64 {
        self.txn_total
    }

    /// Outstanding read sub-transactions.
    pub fn read_outstanding(&self) -> u32 {
        self.read_outstanding
    }

    /// Outstanding write sub-transactions.
    pub fn write_outstanding(&self) -> u32 {
        self.write_outstanding
    }

    /// Whether this port's regulator has any mechanism armed (as of the
    /// configuration last adopted at an issue attempt).
    pub fn regulator_active(&self) -> bool {
        self.regulator.is_active()
    }

    /// Throttle-onset events recorded by the regulator since the last
    /// clear.
    pub fn throttle_events(&self) -> u64 {
        self.regulator.throttle_events()
    }

    /// Clears the regulator's throttle-event counter (backs the
    /// register file's W1C `REG_THROTTLE`).
    pub fn clear_throttle_events(&mut self) {
        self.regulator.clear_throttle_events();
    }

    /// Stored `(read, write)` regulator credits — anchor-time values,
    /// deliberately not extrapolated to the current cycle (see
    /// [`CreditRegulator::stored_credits`]).
    pub fn stored_credits(&self) -> (u32, u32) {
        self.regulator.stored_credits()
    }

    /// Event-horizon hint for the regulator: the next credit-refill
    /// boundary, but only while a pending sub-request is actually
    /// blocked on credits. `None` means the regulator constrains
    /// nothing right now (under-promising is always safe: an extra
    /// wake-up makes no progress and is re-skipped).
    pub fn regulator_next_refill(&self, now: Cycle) -> Option<Cycle> {
        if !self.regulator.rate_limited() {
            return None;
        }
        let read_blocked = !self.ar_split.is_empty() && !self.regulator.read_available(now);
        let write_blocked = !self.aw_split.is_empty() && !self.regulator.write_available(now);
        (read_blocked || write_blocked).then(|| self.regulator.next_refill(now))
    }

    /// Aggregate counters.
    pub fn stats(&self) -> TsStats {
        self.stats
    }

    /// Completed-read latency distribution (AR issue to final R beat).
    pub fn read_latency(&self) -> &LatencyStat {
        &self.read_latency
    }

    /// Completed-write latency distribution (AW issue to merged B).
    pub fn write_latency(&self) -> &LatencyStat {
        &self.write_latency
    }

    /// Whether a tick with no new port input would still mutate TS
    /// state: the W-starvation detector and the budget-stall counter
    /// advance on every cycle their condition holds, even when nothing
    /// observable moves. Event-horizon scheduling must not skip cycles
    /// while this is true, or [`ViolationKind::HandshakeHang`] /
    /// [`ViolationKind::BudgetOverrun`] timing would diverge from
    /// cycle-by-cycle stepping.
    ///
    /// The budget check conservatively ignores the outstanding limit
    /// (it is runtime configuration the TS does not store), so it may
    /// report `true` when the counter would in fact not advance —
    /// under-promising the horizon is always safe.
    pub fn counts_every_cycle(&self) -> bool {
        let w_owed =
            !self.w_stage.is_full() && (self.w_current_left > 0 || !self.w_sublens.is_empty());
        let budget_stalled = self.budget_left == Some(0)
            && ((!self.ar_split.is_empty() && !self.ar_stage.is_full())
                || (!self.aw_split.is_empty() && !self.aw_stage.is_full()));
        w_owed || budget_stalled
    }

    /// Event-horizon hint over the TS's internal pipeline registers:
    /// the earliest cycle a staged sub-request or W beat becomes
    /// visible, or `None` if all stages are empty. Split queues are
    /// issue-eligible immediately and are covered by
    /// [`Self::counts_every_cycle`] / the caller's progress check.
    pub fn next_stage_ready(&self) -> Option<Cycle> {
        [
            self.ar_stage.next_ready_at(),
            self.aw_stage.next_ready_at(),
            self.w_stage.next_ready_at(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Whether the TS holds no in-flight state.
    pub fn is_idle(&self) -> bool {
        self.ar_split.is_empty()
            && self.ar_stage.is_empty()
            && self.aw_split.is_empty()
            && self.aw_stage.is_empty()
            && self.w_sublens.is_empty()
            && self.w_current_left == 0
            && self.w_stage.is_empty()
            && self.read_outstanding == 0
            && self.write_outstanding == 0
    }

    /// Whether a tick may skip this TS: it holds no in-flight state and
    /// its regulator is not mid-throttle. While no AR/AW beat waits in
    /// the port's eFIFO, [`Self::ingest`] and [`Self::issue`] then
    /// change nothing (the regulator adopts a new configuration only on
    /// slow-path ticks, which visit every port), so skipping them is
    /// exact.
    pub fn is_quiet(&self) -> bool {
        self.is_idle() && !self.regulator.is_throttled()
    }

    /// Force-flushes all *pre-grant* state after a blown drain
    /// deadline: the split queues, staged sub-requests and the buffered
    /// / owed W stream are dropped. Sub-transactions already granted to
    /// the EXBAR are untouched — their routing state lives downstream
    /// and they complete (or are firewalled) normally. Returns the
    /// number of sub-transactions dropped.
    ///
    /// The caller must decouple the port's eFIFO at the same time:
    /// granted writes whose buffered data was flushed here can only
    /// complete via the EXBAR's firewall-beat synthesis, which engages
    /// while the port is decoupled.
    pub fn force_flush(&mut self, now: Cycle) -> u32 {
        // (uid, channel, was_staged): staged drops carry `sub_end` so
        // the bound monitor can retire their pending service clocks;
        // split-queue drops never started one.
        let mut flushed: Vec<(u64, ObsChannel, bool)> = Vec::new();
        while let Some(sub) = self.ar_split.pop_front() {
            flushed.push((sub.beat.uid, ObsChannel::Ar, false));
        }
        while let Some(sub) = self.aw_split.pop_front() {
            flushed.push((sub.beat.uid, ObsChannel::Aw, false));
        }
        while let Some(sub) = self.ar_stage.pop_ready(Cycle::MAX) {
            self.read_outstanding = self.read_outstanding.saturating_sub(1);
            flushed.push((sub.beat.uid, ObsChannel::Ar, true));
        }
        while let Some(sub) = self.aw_stage.pop_ready(Cycle::MAX) {
            self.write_outstanding = self.write_outstanding.saturating_sub(1);
            flushed.push((sub.beat.uid, ObsChannel::Aw, true));
        }
        self.w_sublens.clear();
        self.w_current_left = 0;
        self.w_orig_lens.clear();
        self.w_orig_left = 0;
        self.w_starved = 0;
        while self.w_stage.pop_ready(Cycle::MAX).is_some() {}
        if let Some(port) = self.obs_port {
            for &(uid, channel, staged) in &flushed {
                self.obs_events.push(ObsEvent {
                    uid,
                    port: Some(port),
                    channel,
                    hop: Hop::Dropped,
                    cycle: now,
                    ref_cycle: now,
                    bytes: 0,
                    sub_end: staged,
                    txn_end: true,
                });
            }
        }
        flushed.len() as u32
    }

    fn split_ar(&mut self, ar: ArBeat, nominal: u32) {
        if ar.burst != BurstKind::Incr || ar.len <= nominal {
            self.ar_split.push_back(SubAr {
                beat: ar,
                final_sub: true,
            });
            return;
        }
        // The final sub-request takes ownership of the original beat —
        // no clone on the last fragment.
        let mut subs = split_incr(ar.addr, ar.len, ar.size, nominal).peekable();
        let mut original = Some(ar);
        while let Some(s) = subs.next() {
            let final_sub = subs.peek().is_none();
            let mut beat = if final_sub {
                original.take().expect("the final sub comes once")
            } else {
                original.clone().expect("the original outlives the split")
            };
            beat.addr = s.addr;
            beat.len = s.len;
            self.ar_split.push_back(SubAr { beat, final_sub });
        }
    }

    fn split_aw(&mut self, aw: AwBeat, nominal: u32) {
        if aw.burst != BurstKind::Incr || aw.len <= nominal {
            self.w_sublens.push_back(aw.len);
            self.aw_split.push_back(SubAw {
                beat: aw,
                final_sub: true,
            });
            return;
        }
        // As in `split_ar`: the final sub moves the original beat.
        let mut subs = split_incr(aw.addr, aw.len, aw.size, nominal).peekable();
        let mut original = Some(aw);
        while let Some(s) = subs.next() {
            let final_sub = subs.peek().is_none();
            let mut beat = if final_sub {
                original.take().expect("the final sub comes once")
            } else {
                original.clone().expect("the original outlives the split")
            };
            beat.addr = s.addr;
            beat.len = s.len;
            self.w_sublens.push_back(s.len);
            self.aw_split.push_back(SubAw { beat, final_sub });
        }
    }

    /// Consumes new requests and data from the port's eFIFO: splits
    /// address requests to the nominal size and re-chunks the W stream.
    /// Returns `true` on any progress.
    pub fn ingest(&mut self, now: Cycle, efifo: &mut EFifo, rt: TsRuntime) -> bool {
        if !rt.enabled {
            return false;
        }
        let mut progress = false;
        // One original request per cycle per direction enters the
        // splitter once the previous one is fully staged. A quiescing
        // port stops here: nothing new is admitted, but everything
        // below (already-accepted W data) keeps flowing so the
        // in-flight population can drain.
        if self.ar_split.is_empty() && !rt.quiesced {
            if let Some(mut ar) = efifo.pop_ar(now) {
                if ar.burst == BurstKind::Incr && crosses_4k(ar.addr, ar.len, ar.size) {
                    self.record(
                        now,
                        ViolationKind::Boundary4K,
                        format!("AR {:#x} len {} crosses a 4 KiB boundary", ar.addr, ar.len),
                    );
                }
                if let Some(port) = self.obs_port {
                    // Stamp the uid before splitting so every
                    // sub-request inherits it when the splitter clones/moves the beat.
                    ar.uid = self.next_uid(port);
                    self.obs_events.push(ObsEvent {
                        uid: ar.uid,
                        port: Some(port),
                        channel: ObsChannel::Ar,
                        hop: Hop::TsAccepted,
                        cycle: now,
                        ref_cycle: ar.issued_at,
                        bytes: ar.total_bytes(),
                        sub_end: false,
                        txn_end: false,
                    });
                }
                self.split_ar(ar, rt.nominal);
                progress = true;
            }
        }
        if self.aw_split.is_empty() && !rt.quiesced {
            if let Some(mut aw) = efifo.pop_aw(now) {
                if aw.burst == BurstKind::Incr && crosses_4k(aw.addr, aw.len, aw.size) {
                    self.record(
                        now,
                        ViolationKind::Boundary4K,
                        format!("AW {:#x} len {} crosses a 4 KiB boundary", aw.addr, aw.len),
                    );
                }
                if let Some(port) = self.obs_port {
                    aw.uid = self.next_uid(port);
                    self.obs_events.push(ObsEvent {
                        uid: aw.uid,
                        port: Some(port),
                        channel: ObsChannel::Aw,
                        hop: Hop::TsAccepted,
                        cycle: now,
                        ref_cycle: aw.issued_at,
                        bytes: aw.total_bytes(),
                        sub_end: false,
                        txn_end: false,
                    });
                }
                self.w_orig_lens.push_back(aw.len);
                self.split_aw(aw, rt.nominal);
                progress = true;
            }
        }
        // W stream: one beat per cycle, with LAST rewritten to the
        // equalized sub-burst boundaries.
        if !self.w_stage.is_full() && (self.w_current_left > 0 || !self.w_sublens.is_empty()) {
            if let Some(mut w) = efifo.pop_w(now) {
                self.w_starved = 0;
                if self.w_current_left == 0 {
                    self.w_current_left = self.w_sublens.pop_front().expect("checked non-empty");
                }
                if self.w_orig_left == 0 {
                    self.w_orig_left = self.w_orig_lens.pop_front().unwrap_or(0);
                }
                // Check the accelerator's WLAST against the original
                // burst boundary before rewriting it.
                let expected_last = self.w_orig_left == 1;
                if w.last != expected_last {
                    self.record(
                        now,
                        ViolationKind::WlastMismatch,
                        format!(
                            "WLAST={} on beat with {} remaining in the original burst",
                            w.last, self.w_orig_left
                        ),
                    );
                }
                self.w_orig_left = self.w_orig_left.saturating_sub(1);
                w.last = self.w_current_left == 1;
                self.w_current_left -= 1;
                self.stats.bytes_written += w.data.len() as u64;
                if w.last {
                    if let Some(port) = self.obs_port {
                        // The equalized sub's write data is now fully
                        // offered to the interconnect — the point the
                        // bound monitor starts a write's service clock
                        // (W beats carry no uid; FIFO order pairs them
                        // with staged AW subs).
                        self.obs_events.push(ObsEvent {
                            uid: 0,
                            port: Some(port),
                            channel: ObsChannel::W,
                            hop: Hop::TsStaged,
                            cycle: now,
                            ref_cycle: w.issued_at,
                            bytes: w.data.len() as u64,
                            sub_end: true,
                            txn_end: false,
                        });
                    }
                }
                self.w_stage.push(now, w).expect("checked space");
                progress = true;
            } else {
                // Write data is owed (an AW was accepted) but the
                // accelerator is not driving the W channel.
                self.w_starved += 1;
                if self.w_starved >= W_HANG_THRESHOLD {
                    self.w_starved = 0;
                    self.record(
                        now,
                        ViolationKind::HandshakeHang,
                        format!(
                            "W channel starved for {W_HANG_THRESHOLD} cycles with a write pending"
                        ),
                    );
                }
            }
        }
        progress
    }

    fn budget_available(&self) -> bool {
        self.budget_left.is_none_or(|b| b > 0)
    }

    fn consume_budget(&mut self) {
        if let Some(b) = self.budget_left.as_mut() {
            *b -= 1;
        }
        self.txn_this_period += 1;
        self.txn_total += 1;
        self.stats.subs_issued += 1;
    }

    /// Moves split sub-requests into the arbitration stages, enforcing
    /// (in order) the traffic regulator, the reservation budget and the
    /// outstanding limits. Returns `true` on any progress, including a
    /// regulator reconfiguration and a throttle onset: they move the
    /// credits and the count the next tick writes back to the
    /// `REG_CREDITS` and `REG_THROTTLE` registers.
    ///
    /// The regulator is checked *ahead of* the budget: a throttled port
    /// neither consumes budget nor counts budget-stall cycles, so
    /// reservation accounting stays meaningful under regulation.
    /// Regulator throttling is recorded as edge-triggered events rather
    /// than stall cycles — see [`crate::regulate`] for why.
    pub fn issue(&mut self, now: Cycle, rt: TsRuntime) -> bool {
        if !rt.enabled {
            return false;
        }
        let mut progress = self.regulator.sync(now, rt.regulator);
        let mut stalled_by_budget = false;
        let mut throttled = false;
        if !self.ar_split.is_empty()
            && self.read_outstanding < rt.max_outstanding
            && !self.ar_stage.is_full()
        {
            let in_flight = self.read_outstanding + self.write_outstanding;
            if !self.regulator.out_cap_ok(in_flight) || !self.regulator.read_available(now) {
                throttled = true;
            } else if self.budget_available() {
                self.regulator.consume_read(now);
                let sub = self.ar_split.pop_front().expect("checked non-empty");
                if let Some(port) = self.obs_port {
                    self.obs_events.push(ObsEvent {
                        uid: sub.beat.uid,
                        port: Some(port),
                        channel: ObsChannel::Ar,
                        hop: Hop::TsStaged,
                        cycle: now,
                        ref_cycle: sub.beat.issued_at,
                        bytes: sub.beat.total_bytes(),
                        sub_end: sub.final_sub,
                        txn_end: false,
                    });
                }
                self.ar_stage.push(now, sub).expect("checked space");
                self.read_outstanding += 1;
                self.consume_budget();
                progress = true;
            } else {
                stalled_by_budget = true;
            }
        }
        if !self.aw_split.is_empty()
            && self.write_outstanding < rt.max_outstanding
            && !self.aw_stage.is_full()
        {
            let in_flight = self.read_outstanding + self.write_outstanding;
            if !self.regulator.out_cap_ok(in_flight) || !self.regulator.write_available(now) {
                throttled = true;
            } else if self.budget_available() {
                self.regulator.consume_write(now);
                let sub = self.aw_split.pop_front().expect("checked non-empty");
                if let Some(port) = self.obs_port {
                    self.obs_events.push(ObsEvent {
                        uid: sub.beat.uid,
                        port: Some(port),
                        channel: ObsChannel::Aw,
                        hop: Hop::TsStaged,
                        cycle: now,
                        ref_cycle: sub.beat.issued_at,
                        bytes: sub.beat.total_bytes(),
                        sub_end: sub.final_sub,
                        txn_end: false,
                    });
                }
                self.aw_stage.push(now, sub).expect("checked space");
                self.write_outstanding += 1;
                self.consume_budget();
                progress = true;
            } else {
                stalled_by_budget = true;
            }
        }
        if stalled_by_budget {
            self.stats.budget_stall_cycles += 1;
            if !self.overrun_reported {
                self.overrun_reported = true;
                self.record(
                    now,
                    ViolationKind::BudgetOverrun,
                    format!(
                        "issue throttled: reservation budget exhausted after {} sub-transactions",
                        self.txn_this_period
                    ),
                );
            }
        }
        self.regulator.note_throttled(throttled) || progress
    }

    /// Delivers a read-data beat coming back from the EXBAR, rewriting
    /// the LAST flag so only the final fragment of the original burst
    /// carries it. Returns whether the beat ended a sub-burst.
    ///
    /// The caller must have checked [`EFifo::can_push_r`].
    pub fn deliver_r(
        &mut self,
        now: Cycle,
        mut beat: RBeat,
        final_sub: bool,
        efifo: &mut EFifo,
    ) -> bool {
        let sub_end = beat.last;
        beat.last = final_sub && sub_end;
        self.r_sub_resp = self.r_sub_resp.worst(beat.resp);
        if sub_end && !self.r_sub_resp.is_ok() {
            let kind = if self.r_sub_resp == Resp::DecErr {
                ViolationKind::AddressDecode
            } else {
                ViolationKind::ErrorResponse
            };
            self.record(
                now,
                kind,
                format!("read sub-burst completed with {}", self.r_sub_resp),
            );
            self.err_total = self.err_total.saturating_add(1);
            self.r_sub_resp = Resp::Okay;
        } else if sub_end {
            self.r_sub_resp = Resp::Okay;
        }
        self.stats.bytes_read += beat.data.len() as u64;
        if beat.last {
            self.stats.reads_completed += 1;
            self.read_latency.record(now.saturating_sub(beat.issued_at));
        }
        if let Some(port) = self.obs_port {
            self.obs_events.push(ObsEvent {
                uid: beat.uid,
                port: Some(port),
                channel: ObsChannel::R,
                hop: Hop::Delivered,
                cycle: now,
                ref_cycle: beat.hopped_at,
                bytes: beat.data.len() as u64,
                sub_end,
                txn_end: beat.last,
            });
        }
        let accepted = efifo.push_r(now, beat);
        debug_assert!(accepted, "caller must check can_push_r");
        if sub_end {
            self.read_outstanding = self.read_outstanding.saturating_sub(1);
        }
        sub_end
    }

    /// Delivers a write response coming back from the EXBAR: responses
    /// of intermediate fragments are merged (swallowed); only the final
    /// fragment's response reaches the accelerator.
    ///
    /// The caller must have checked [`EFifo::can_push_b`].
    pub fn deliver_b(&mut self, now: Cycle, mut beat: BBeat, final_sub: bool, efifo: &mut EFifo) {
        self.write_outstanding = self.write_outstanding.saturating_sub(1);
        self.b_merged_resp = self.b_merged_resp.worst(beat.resp);
        if let Some(port) = self.obs_port {
            // Every sub's response is observed (the monitor pops one
            // pending write per event); only the final, merged one is a
            // slave-port B-channel traversal.
            self.obs_events.push(ObsEvent {
                uid: beat.uid,
                port: Some(port),
                channel: ObsChannel::B,
                hop: Hop::Delivered,
                cycle: now,
                ref_cycle: beat.hopped_at,
                bytes: 0,
                sub_end: true,
                txn_end: final_sub,
            });
        }
        if final_sub {
            // The merged response reports the worst outcome across all
            // sub-bursts of the original write (AXI merge rule).
            beat.resp = self.b_merged_resp;
            if !self.b_merged_resp.is_ok() {
                let kind = if self.b_merged_resp == Resp::DecErr {
                    ViolationKind::AddressDecode
                } else {
                    ViolationKind::ErrorResponse
                };
                self.record(
                    now,
                    kind,
                    format!(
                        "write completed with merged response {}",
                        self.b_merged_resp
                    ),
                );
                self.err_total = self.err_total.saturating_add(1);
            }
            self.b_merged_resp = Resp::Okay;
            self.stats.writes_completed += 1;
            self.write_latency
                .record(now.saturating_sub(beat.issued_at));
            let accepted = efifo.push_b(now, beat);
            debug_assert!(accepted, "caller must check can_push_b");
        }
    }
}

mod persist_impls {
    use super::{SubAr, SubAw, TransactionSupervisor, TsRuntime, TsStats};

    sim::persist_fields!(SubAr { beat, final_sub });
    sim::persist_fields!(SubAw { beat, final_sub });
    sim::persist_fields!(TsRuntime {
        nominal,
        max_outstanding,
        enabled,
        quiesced,
        regulator
    });
    sim::persist_fields!(TsStats {
        reads_completed,
        writes_completed,
        bytes_read,
        bytes_written,
        subs_issued,
        budget_stall_cycles,
    });
    // Every field is captured, including the observability buffer (hop
    // events emitted this tick but not yet drained) and the uid
    // sequence, so restored runs keep allocating the exact same
    // transaction uids the uninterrupted run would.
    sim::persist_fields!(TransactionSupervisor {
        ar_split,
        ar_stage,
        read_outstanding,
        aw_split,
        aw_stage,
        w_sublens,
        w_current_left,
        w_orig_lens,
        w_orig_left,
        w_starved,
        w_stage,
        write_outstanding,
        regulator,
        budget_left,
        txn_this_period,
        txn_total,
        overrun_reported,
        r_sub_resp,
        b_merged_resp,
        stats,
        read_latency,
        write_latency,
        violations,
        obs_port,
        uid_seq,
        obs_events,
        err_total,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi::types::{AxiId, BurstSize};

    fn rt() -> TsRuntime {
        TsRuntime {
            nominal: 16,
            max_outstanding: 4,
            enabled: true,
            quiesced: false,
            regulator: RegulatorConfig::unlimited(),
        }
    }

    fn efifo() -> EFifo {
        EFifo::new(4, 32, 4)
    }

    #[test]
    fn short_read_not_split() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        ef.port
            .ar
            .push(0, ArBeat::new(0, 8, BurstSize::B4))
            .unwrap();
        assert!(ts.ingest(1, &mut ef, rt()));
        ts.issue(1, rt());
        let sub = ts.ar_stage.pop_ready(2).unwrap();
        assert_eq!(sub.beat.len, 8);
        assert!(sub.final_sub);
        assert_eq!(ts.read_outstanding(), 1);
    }

    #[test]
    fn long_read_split_to_nominal() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        ef.port
            .ar
            .push(0, ArBeat::new(0, 40, BurstSize::B4).with_tag(9))
            .unwrap();
        ts.ingest(1, &mut ef, rt());
        let mut lens = Vec::new();
        let mut finals = Vec::new();
        for now in 1..20 {
            ts.issue(now, rt());
            if let Some(sub) = ts.ar_stage.pop_ready(now) {
                lens.push(sub.beat.len);
                finals.push(sub.final_sub);
                assert_eq!(sub.beat.tag, 9);
            }
        }
        assert_eq!(lens, vec![16, 16, 8]);
        assert_eq!(finals, vec![false, false, true]);
    }

    #[test]
    fn ts_stage_latency_is_one_cycle() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        ef.port
            .ar
            .push(0, ArBeat::new(0, 1, BurstSize::B4))
            .unwrap();
        ts.ingest(1, &mut ef, rt());
        ts.issue(1, rt());
        assert!(ts.ar_stage.pop_ready(1).is_none());
        assert!(ts.ar_stage.pop_ready(2).is_some());
    }

    #[test]
    fn outstanding_limit_blocks_issue() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        let limit = TsRuntime {
            max_outstanding: 1,
            ..rt()
        };
        ef.port
            .ar
            .push(0, ArBeat::new(0, 32, BurstSize::B4))
            .unwrap();
        ts.ingest(1, &mut ef, limit);
        ts.issue(1, limit);
        assert_eq!(ts.read_outstanding(), 1);
        // Second sub cannot issue until the first completes.
        for now in 2..6 {
            ts.issue(now, limit);
        }
        assert_eq!(ts.read_outstanding(), 1);
        // Complete the first sub-burst.
        ts.ar_stage.pop_ready(2).unwrap();
        let beat = RBeat::new(AxiId(0), vec![0; 4], true);
        ts.deliver_r(10, beat, false, &mut ef);
        assert_eq!(ts.read_outstanding(), 0);
        ts.issue(11, limit);
        assert_eq!(ts.read_outstanding(), 1);
    }

    #[test]
    fn budget_throttles_and_recharges() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        ts.recharge(2);
        ef.port
            .ar
            .push(0, ArBeat::new(0, 64, BurstSize::B4))
            .unwrap();
        ts.ingest(1, &mut ef, rt());
        for now in 1..10 {
            ts.issue(now, rt());
            ts.ar_stage.pop_ready(now); // keep the stage drained
        }
        // Only 2 of 4 subs issued.
        assert_eq!(ts.txn_this_period(), 2);
        assert_eq!(ts.budget_left(), Some(0));
        assert!(ts.stats().budget_stall_cycles > 0);
        ts.recharge(2);
        for now in 10..20 {
            ts.issue(now, rt());
            ts.ar_stage.pop_ready(now);
        }
        assert_eq!(ts.txn_total(), 4);
    }

    #[test]
    fn unlimited_budget_never_stalls() {
        let mut ts = TransactionSupervisor::new(32);
        ts.recharge(BUDGET_UNLIMITED);
        assert_eq!(ts.budget_left(), None);
        let mut ef = efifo();
        ef.port
            .ar
            .push(0, ArBeat::new(0, 256, BurstSize::B4))
            .unwrap();
        ts.ingest(1, &mut ef, rt());
        for now in 1..40 {
            ts.issue(now, rt());
            ts.ar_stage.pop_ready(now);
            // Immediately complete each sub so outstanding never limits.
            if ts.read_outstanding() > 0 {
                let beat = RBeat::new(AxiId(0), vec![0; 4], true);
                ts.deliver_r(now, beat, false, &mut ef);
            }
        }
        assert_eq!(ts.txn_total(), 16);
        assert_eq!(ts.stats().budget_stall_cycles, 0);
    }

    #[test]
    fn regulator_rate_paces_issue_one_per_window() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        // 1 credit per 10-cycle window, burst 1: at most one sub per
        // window regardless of demand (budget unlimited here).
        let reg = TsRuntime {
            regulator: RegulatorConfig {
                rate: 1,
                burst: 1,
                out_cap: crate::regulate::OUT_CAP_UNLIMITED,
                window: 10,
            },
            ..rt()
        };
        ef.port
            .ar
            .push(0, ArBeat::new(0, 64, BurstSize::B4))
            .unwrap();
        let mut issued_at = Vec::new();
        for now in 0..40 {
            ts.ingest(now, &mut ef, reg);
            let before = ts.txn_total();
            ts.issue(now, reg);
            if ts.txn_total() > before {
                issued_at.push(now);
            }
            if now == 5 {
                // Credit-blocked with pending work: the TS advertises
                // the next refill boundary as its wake-up horizon.
                assert_eq!(ts.regulator_next_refill(now), Some(10));
            }
            ts.ar_stage.pop_ready(now);
            if ts.read_outstanding() > 0 {
                let beat = RBeat::new(AxiId(0), vec![0; 4], true);
                ts.deliver_r(now, beat, false, &mut ef);
            }
        }
        // One sub per refill window: the initial burst credit as soon
        // as the eFIFO presents the request (latency 1), then one per
        // boundary.
        assert_eq!(issued_at, vec![1, 10, 20, 30]);
        // Regulator throttling is not budget stalling.
        assert_eq!(ts.stats().budget_stall_cycles, 0);
        // Edge-triggered: one event per throttled span, not per cycle.
        assert_eq!(ts.throttle_events(), 3);
        // All demand issued: nothing blocked, no horizon.
        assert_eq!(ts.regulator_next_refill(40), None);
    }

    #[test]
    fn regulator_throttling_is_accounted_ahead_of_the_budget() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        let reg = TsRuntime {
            regulator: RegulatorConfig {
                rate: 1,
                burst: 1,
                out_cap: crate::regulate::OUT_CAP_UNLIMITED,
                window: 10,
            },
            ..rt()
        };
        // Reservation budget of 2 per period on top of the rate limit.
        ts.recharge(2);
        ef.port
            .ar
            .push(0, ArBeat::new(0, 64, BurstSize::B4))
            .unwrap();
        for now in 0..40 {
            ts.ingest(now, &mut ef, reg);
            ts.issue(now, reg);
            ts.ar_stage.pop_ready(now);
            if ts.read_outstanding() > 0 {
                let beat = RBeat::new(AxiId(0), vec![0; 4], true);
                ts.deliver_r(now, beat, false, &mut ef);
            }
        }
        // Credits admit subs at 1/10/20/30 but the budget stops at 2.
        assert_eq!(ts.txn_this_period(), 2);
        // Cycles 2-9 and 11-19 were regulator-throttled (credits
        // exhausted, budget untouched) and must NOT count as budget
        // stalls; cycles 20-39 had a credit but no budget and must.
        assert_eq!(ts.stats().budget_stall_cycles, 20);
        assert_eq!(ts.throttle_events(), 2);
    }

    #[test]
    fn regulator_out_cap_limits_total_in_flight() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        let reg = TsRuntime {
            max_outstanding: 8,
            regulator: RegulatorConfig {
                rate: crate::regulate::RATE_UNLIMITED,
                burst: 1,
                out_cap: 1,
                window: crate::regulate::DEFAULT_WINDOW,
            },
            ..rt()
        };
        ef.port
            .ar
            .push(0, ArBeat::new(0, 64, BurstSize::B4))
            .unwrap();
        for now in 0..10 {
            ts.ingest(now, &mut ef, reg);
            ts.issue(now, reg);
            ts.ar_stage.pop_ready(now);
        }
        // Nothing completed, so the cap of 1 pins in-flight at 1 even
        // though max_outstanding would admit 8.
        assert_eq!(ts.read_outstanding(), 1);
        assert!(ts.throttle_events() > 0);
        // Not a rate block: no refill horizon is advertised.
        assert_eq!(ts.regulator_next_refill(5), None);
        // Completing the sub re-opens the cap.
        let beat = RBeat::new(AxiId(0), vec![0; 4], true);
        ts.deliver_r(10, beat, false, &mut ef);
        ts.issue(11, reg);
        assert_eq!(ts.read_outstanding(), 1);
    }

    #[test]
    fn unlimited_regulator_leaves_state_byte_identical() {
        // Two supervisors fed identically, one with the regulator
        // explicitly unlimited: every observable counter must match the
        // plain run (the fast-forward byte-identity contract).
        let run = |reg: RegulatorConfig| {
            let mut ts = TransactionSupervisor::new(32);
            let mut ef = efifo();
            let cfg = TsRuntime {
                regulator: reg,
                ..rt()
            };
            ef.port
                .ar
                .push(0, ArBeat::new(0, 64, BurstSize::B4))
                .unwrap();
            for now in 0..30 {
                ts.ingest(now, &mut ef, cfg);
                ts.issue(now, cfg);
                ts.ar_stage.pop_ready(now);
                if ts.read_outstanding() > 0 {
                    let beat = RBeat::new(AxiId(0), vec![0; 4], true);
                    ts.deliver_r(now, beat, false, &mut ef);
                }
            }
            (ts.txn_total(), ts.stats(), ts.throttle_events())
        };
        // Burst/window settings are inert while rate is unlimited: the
        // regulator is inactive and traffic is untouched.
        assert_eq!(
            run(RegulatorConfig::unlimited()),
            run(RegulatorConfig {
                burst: 4,
                window: 7,
                ..RegulatorConfig::unlimited()
            })
        );
    }

    #[test]
    fn write_split_rechunks_w_stream() {
        let mut ts = TransactionSupervisor::new(64);
        let mut ef = efifo();
        let rt8 = TsRuntime { nominal: 8, ..rt() };
        ef.port
            .aw
            .push(0, AwBeat::new(0, 20, BurstSize::B4))
            .unwrap();
        for i in 0..20u32 {
            // HA marks only the final beat.
            ef.port
                .w
                .push(i as u64 / 8, WBeat::new(vec![i as u8; 4], i == 19))
                .unwrap();
        }
        let mut lasts = Vec::new();
        for now in 1..64 {
            ts.ingest(now, &mut ef, rt8);
            if let Some(w) = ts.w_stage.pop_ready(now) {
                lasts.push(w.last);
            }
        }
        assert_eq!(lasts.len(), 20);
        let last_positions: Vec<usize> = lasts
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| l.then_some(i))
            .collect();
        // Sub-bursts of 8, 8, 4 beats.
        assert_eq!(last_positions, vec![7, 15, 19]);
    }

    #[test]
    fn b_merge_emits_single_response() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        ef.port
            .aw
            .push(0, AwBeat::new(0, 48, BurstSize::B4).with_tag(3))
            .unwrap();
        ts.ingest(1, &mut ef, rt());
        // Three sub-AWs issue.
        for now in 1..10 {
            ts.issue(now, rt());
            ts.aw_stage.pop_ready(now);
        }
        assert_eq!(ts.write_outstanding(), 3);
        // Two intermediate Bs are swallowed; the final one is emitted.
        ts.deliver_b(20, BBeat::new(AxiId(0)).with_tag(3), false, &mut ef);
        ts.deliver_b(21, BBeat::new(AxiId(0)).with_tag(3), false, &mut ef);
        assert!(ef.port.b.pop_ready(30).is_none());
        ts.deliver_b(22, BBeat::new(AxiId(0)).with_tag(3), true, &mut ef);
        assert_eq!(ts.write_outstanding(), 0);
        let b = ef.port.b.pop_ready(30).unwrap();
        assert_eq!(b.tag, 3);
        assert_eq!(ts.stats().writes_completed, 1);
    }

    #[test]
    fn r_merge_rewrites_last_flags() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        // Two sub-bursts of a single original read.
        let mk = |last| RBeat::new(AxiId(0), vec![0; 4], last).with_issued_at(0);
        ts.deliver_r(5, mk(false), false, &mut ef);
        ts.deliver_r(6, mk(true), false, &mut ef); // end of sub 1
        ts.deliver_r(7, mk(false), true, &mut ef);
        ts.deliver_r(8, mk(true), true, &mut ef); // end of original
        let beats: Vec<RBeat> = std::iter::from_fn(|| ef.port.r.pop_ready(20)).collect();
        assert_eq!(beats.len(), 4);
        let lasts: Vec<bool> = beats.iter().map(|b| b.last).collect();
        assert_eq!(lasts, vec![false, false, false, true]);
        assert_eq!(ts.stats().reads_completed, 1);
        assert_eq!(ts.read_latency().count(), 1);
        assert_eq!(ts.read_latency().max(), Some(8));
    }

    #[test]
    fn disabled_ts_does_nothing() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        let disabled = TsRuntime {
            enabled: false,
            ..rt()
        };
        ef.port
            .ar
            .push(0, ArBeat::new(0, 4, BurstSize::B4))
            .unwrap();
        assert!(!ts.ingest(1, &mut ef, disabled));
        assert!(!ts.issue(1, disabled));
        assert!(ts.is_idle());
    }

    #[test]
    fn boundary_4k_crossing_is_reported() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        // 16 beats x 4 bytes starting 0xFC0 ends at 0x1000 exactly: OK.
        ef.port
            .ar
            .push(0, ArBeat::new(0xFC0, 16, BurstSize::B4))
            .unwrap();
        ts.ingest(1, &mut ef, rt());
        assert!(!ts.has_violations());
        // 17 beats from 0xFC0 crosses into the next 4 KiB page.
        ef.port
            .ar
            .push(1, ArBeat::new(0xFC0, 17, BurstSize::B4))
            .unwrap();
        // Drain the staged subs so the splitter accepts the next AR.
        for now in 2..40 {
            ts.issue(now, rt());
            if ts.ar_stage.pop_ready(now).is_some() && ts.read_outstanding() > 0 {
                let beat = RBeat::new(AxiId(0), vec![0; 4], true);
                ts.deliver_r(now, beat, false, &mut ef);
            }
            ts.ingest(now, &mut ef, rt());
        }
        let vs = ts.take_violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, ViolationKind::Boundary4K);
        assert!(!ts.has_violations());
    }

    #[test]
    fn wlast_mismatch_is_reported() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        ef.port
            .aw
            .push(0, AwBeat::new(0, 4, BurstSize::B4))
            .unwrap();
        // LAST asserted one beat early (on beat 2 of 4) and missing on
        // the true final beat: two violations.
        for i in 0..4u32 {
            ef.port.w.push(0, WBeat::new(vec![0; 4], i == 2)).unwrap();
        }
        for now in 1..10 {
            ts.ingest(now, &mut ef, rt());
            ts.w_stage.pop_ready(now);
        }
        let vs = ts.take_violations();
        assert_eq!(vs.len(), 2);
        assert!(vs.iter().all(|v| v.kind == ViolationKind::WlastMismatch));
    }

    #[test]
    fn well_formed_wlast_is_silent() {
        let mut ts = TransactionSupervisor::new(64);
        let mut ef = efifo();
        let rt8 = TsRuntime { nominal: 8, ..rt() };
        ef.port
            .aw
            .push(0, AwBeat::new(0, 20, BurstSize::B4))
            .unwrap();
        for i in 0..20u32 {
            ef.port
                .w
                .push(i as u64 / 8, WBeat::new(vec![0; 4], i == 19))
                .unwrap();
        }
        for now in 1..64 {
            ts.ingest(now, &mut ef, rt8);
            ts.w_stage.pop_ready(now);
        }
        assert!(!ts.has_violations());
    }

    #[test]
    fn stalled_w_channel_triggers_hang_report() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        ef.port
            .aw
            .push(0, AwBeat::new(0, 4, BurstSize::B4))
            .unwrap();
        // The HA never drives W. The detector fires once per threshold
        // window and re-arms.
        for now in 1..(2 * W_HANG_THRESHOLD as u64 + 2) {
            ts.ingest(now, &mut ef, rt());
        }
        let vs = ts.take_violations();
        assert_eq!(vs.len(), 2);
        assert!(vs.iter().all(|v| v.kind == ViolationKind::HandshakeHang));
    }

    #[test]
    fn budget_overrun_reported_once_per_period() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        ts.recharge(1);
        ef.port
            .ar
            .push(0, ArBeat::new(0, 64, BurstSize::B4))
            .unwrap();
        ts.ingest(1, &mut ef, rt());
        for now in 1..10 {
            ts.issue(now, rt());
            ts.ar_stage.pop_ready(now);
        }
        let vs = ts.take_violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, ViolationKind::BudgetOverrun);
        // A recharge re-arms the reporter for the next period.
        ts.recharge(1);
        for now in 10..20 {
            ts.issue(now, rt());
            ts.ar_stage.pop_ready(now);
        }
        let vs = ts.take_violations();
        assert_eq!(vs.len(), 1);
    }

    #[test]
    fn b_merge_surfaces_worst_response() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        ef.port
            .aw
            .push(0, AwBeat::new(0, 48, BurstSize::B4))
            .unwrap();
        ts.ingest(1, &mut ef, rt());
        for now in 1..10 {
            ts.issue(now, rt());
            ts.aw_stage.pop_ready(now);
        }
        use axi::types::Resp;
        // Middle sub-burst hits a faulty slave; the merged B must carry
        // SLVERR even though the final sub-burst succeeded.
        ts.deliver_b(20, BBeat::new(AxiId(0)), false, &mut ef);
        ts.deliver_b(
            21,
            BBeat::new(AxiId(0)).with_resp(Resp::SlvErr),
            false,
            &mut ef,
        );
        ts.deliver_b(22, BBeat::new(AxiId(0)), true, &mut ef);
        let b = ef.port.b.pop_ready(30).unwrap();
        assert_eq!(b.resp, Resp::SlvErr);
        let vs = ts.take_violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, ViolationKind::ErrorResponse);
        // The merge state resets for the next write.
        ef.port
            .aw
            .push(30, AwBeat::new(0, 8, BurstSize::B4))
            .unwrap();
        ts.ingest(31, &mut ef, rt());
        for now in 31..35 {
            ts.issue(now, rt());
            ts.aw_stage.pop_ready(now);
        }
        ts.deliver_b(40, BBeat::new(AxiId(0)), true, &mut ef);
        assert_eq!(ef.port.b.pop_ready(50).unwrap().resp, Resp::Okay);
        assert!(!ts.has_violations());
    }

    #[test]
    fn r_error_classified_by_kind() {
        use axi::types::Resp;
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        let mk = |last, resp| {
            RBeat::new(AxiId(0), vec![0; 4], last)
                .with_issued_at(0)
                .with_resp(resp)
        };
        // A DECERR read maps to an address-decode violation.
        ts.deliver_r(5, mk(false, Resp::Okay), true, &mut ef);
        ts.deliver_r(6, mk(true, Resp::DecErr), true, &mut ef);
        // A SLVERR read maps to a generic error-response violation.
        ts.deliver_r(7, mk(true, Resp::SlvErr), true, &mut ef);
        let vs = ts.take_violations();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].kind, ViolationKind::AddressDecode);
        assert_eq!(vs[1].kind, ViolationKind::ErrorResponse);
    }

    #[test]
    fn quiesce_blocks_new_admissions_but_drains_w() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        // One write accepted before the quiesce; its W data arrives late.
        ef.port
            .aw
            .push(0, AwBeat::new(0, 4, BurstSize::B4))
            .unwrap();
        ts.ingest(1, &mut ef, rt());
        let q = TsRuntime {
            quiesced: true,
            ..rt()
        };
        // New requests are refused while quiesced...
        ef.port
            .ar
            .push(2, ArBeat::new(0, 4, BurstSize::B4))
            .unwrap();
        ts.ingest(3, &mut ef, q);
        assert!(ts.ar_stage.is_empty());
        ts.issue(3, q);
        assert!(ts.ar_stage.is_empty(), "no AR admitted under quiesce");
        // ...but the owed W stream of the accepted write keeps flowing.
        for i in 0..4u32 {
            ef.port.w.push(3, WBeat::new(vec![0; 4], i == 3)).unwrap();
        }
        let mut w_seen = 0;
        for now in 4..12 {
            ts.ingest(now, &mut ef, q);
            if ts.w_stage.pop_ready(now).is_some() {
                w_seen += 1;
            }
        }
        assert_eq!(w_seen, 4, "owed write data drains under quiesce");
        // Releasing the quiesce admits the parked AR.
        ts.ingest(20, &mut ef, rt());
        ts.issue(20, rt());
        assert!(ts.ar_stage.pop_ready(21).is_some());
    }

    #[test]
    fn force_flush_drops_pre_grant_state_and_counts_it() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        // A 64-beat read splits into 4 subs; stage 2 (TimedFifo depth),
        // leave 2 in the split queue.
        ef.port
            .ar
            .push(0, ArBeat::new(0, 64, BurstSize::B4))
            .unwrap();
        ts.ingest(1, &mut ef, rt());
        ts.issue(1, rt());
        ts.issue(2, rt());
        assert_eq!(ts.read_outstanding(), 2);
        // A write with its data buffered but not yet granted.
        ef.port
            .aw
            .push(2, AwBeat::new(0x100, 4, BurstSize::B4))
            .unwrap();
        for i in 0..4u32 {
            ef.port.w.push(2, WBeat::new(vec![0; 4], i == 3)).unwrap();
        }
        for now in 3..8 {
            ts.ingest(now, &mut ef, rt());
        }
        ts.issue(8, rt());
        assert_eq!(ts.write_outstanding(), 1);
        assert!(!ts.is_idle());
        // 2 split ARs + 2 staged ARs + 1 staged AW dropped.
        let dropped = ts.force_flush(10);
        assert_eq!(dropped, 5);
        assert_eq!(ts.read_outstanding(), 0);
        assert_eq!(ts.write_outstanding(), 0);
        assert!(ts.is_idle(), "flushed TS holds no state");
    }

    #[test]
    fn fixed_bursts_pass_unsplit() {
        let mut ts = TransactionSupervisor::new(32);
        let mut ef = efifo();
        let mut ar = ArBeat::new(0x100, 64, BurstSize::B4);
        ar.burst = BurstKind::Fixed;
        ef.port.ar.push(0, ar).unwrap();
        ts.ingest(1, &mut ef, rt());
        ts.issue(1, rt());
        let sub = ts.ar_stage.pop_ready(2).unwrap();
        assert_eq!(sub.beat.len, 64);
        assert!(sub.final_sub);
    }
}
