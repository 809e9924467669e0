//! Closed-form worst-case bounds for the HyperConnect.
//!
//! The paper argues the HyperConnect's slim, open architecture makes it
//! "prone to worst-case timing analysis" (§V-B) without carrying out the
//! analysis for lack of space. This module provides that analysis for
//! the modeled microarchitecture, and the property/integration tests
//! verify that simulation never exceeds these bounds.
//!
//! All bounds are in fabric clock cycles and assume the in-order memory
//! model of the workspace's `mem` crate: a burst of `L` beats occupies
//! the memory data path for `L` cycles after a fixed first-word
//! latency.

/// Fixed per-channel propagation latencies of the HyperConnect
/// (paper Fig. 3a).
pub mod propagation {
    /// Read-address channel: slave eFIFO + TS + EXBAR + master eFIFO.
    pub const D_AR: u64 = 4;
    /// Write-address channel.
    pub const D_AW: u64 = 4;
    /// Read-data channel: slave eFIFO + master eFIFO (proactive TS and
    /// EXBAR add no latency).
    pub const D_R: u64 = 2;
    /// Write-data channel.
    pub const D_W: u64 = 2;
    /// Write-response channel.
    pub const D_B: u64 = 2;

    /// Total interconnect latency on a read transaction.
    pub const READ_TOTAL: u64 = D_AR + D_R;
    /// Total interconnect latency on a write transaction.
    pub const WRITE_TOTAL: u64 = D_AW + D_W + D_B;
}

/// Regulation parameters of one competing port, as far as the
/// worst-case analysis cares: how many sub-transactions the port can
/// have admitted or in flight at once.
///
/// `None` entries mean "that mechanism is unlimited"; a port with no
/// regulator at all is represented as `None` at the call sites (see
/// [`ServiceModel::regulated_staged_read_latency`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegulationCap {
    /// Credits per refill window (`None` = rate unlimited).
    pub rate: Option<u32>,
    /// Burst depth: credits the port can accumulate per lane.
    pub burst: u32,
    /// Cap on total outstanding sub-transactions (`None` = uncapped).
    pub out_cap: Option<u32>,
}

/// Parameters of a worst-case service analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Number of slave ports (`N`).
    pub num_ports: usize,
    /// Nominal burst length in beats (equalized transaction size).
    pub nominal_beats: u32,
    /// Memory first-word latency in cycles.
    pub mem_latency: u64,
    /// Memory write-response latency in cycles (last data beat
    /// committed to B response).
    pub write_resp_latency: u64,
    /// Round-robin granularity (1 for the EXBAR; `g` for interconnects
    /// with variable granularity such as the SmartConnect).
    pub rr_granularity: u32,
    /// Per-port outstanding sub-transaction limit (`MAX_OUT` register,
    /// reset value 4): bounds how many interfering transactions can be
    /// queued downstream of the arbiter per port.
    pub max_outstanding: u32,
}

impl ServiceModel {
    /// The HyperConnect's service model for `num_ports` ports with the
    /// reset-value outstanding limit.
    pub fn hyperconnect(num_ports: usize, nominal_beats: u32, mem_latency: u64) -> Self {
        Self {
            num_ports,
            nominal_beats,
            mem_latency,
            write_resp_latency: 4,
            rr_granularity: 1,
            max_outstanding: 4,
        }
    }

    /// Overrides the per-port outstanding limit.
    pub fn max_outstanding(mut self, k: u32) -> Self {
        self.max_outstanding = k.max(1);
        self
    }

    /// Worst-case cycles for the memory to serve one equalized
    /// transaction once granted: its data-path occupancy. The fixed
    /// first-word latency is pipelined across back-to-back transactions,
    /// so it appears once per *busy interval*, not per transaction; for
    /// a per-transaction bound it is included.
    pub fn service_time(&self) -> u64 {
        self.mem_latency + self.nominal_beats as u64
    }

    /// Data-path occupancy of one equalized transaction in steady
    /// state (latency hidden by pipelining).
    pub fn occupancy(&self) -> u64 {
        self.nominal_beats as u64
    }

    /// Worst-case number of *interfering transactions* granted between
    /// two consecutive grants of one port: `g × (N − 1)` (paper §V-B) —
    /// with the EXBAR's fixed granularity of one this is `N − 1`.
    pub fn max_interfering_txns(&self) -> u64 {
        self.rr_granularity as u64 * (self.num_ports as u64 - 1)
    }

    /// Worst-case number of interfering transactions *in flight* ahead
    /// of a newly arrived request: every other port can hold its full
    /// outstanding allowance queued downstream of the arbiter.
    ///
    /// `max_outstanding` here is the per-port limit of in-flight
    /// equalized transactions *on the shared data path in the analyzed
    /// direction*. Ports that interfere on both directions at once can
    /// queue up to `2 × MAX_OUT`; pass the doubled value for a bound
    /// that is sound under mixed read/write interference.
    pub fn max_interfering_in_flight(&self) -> u64 {
        self.max_interfering_txns() * self.max_outstanding as u64
    }

    /// Worst-case cycles from a sub-transaction reaching its TS stage
    /// to its final data beat, assuming every other port is backlogged:
    /// all in-flight interference drains, then the request is served,
    /// plus the interconnect propagation.
    pub fn worst_case_read_latency(&self) -> u64 {
        let interference = self.max_interfering_in_flight() * self.occupancy();
        interference + self.service_time() + propagation::READ_TOTAL
    }

    /// Worst-case cycles for a full (unequalized) read of `total_beats`
    /// beats issued with an own outstanding window of one: each of its
    /// sub-transactions can suffer one full interference round.
    pub fn worst_case_read_burst_latency(&self, total_beats: u32) -> u64 {
        let subs = total_beats.div_ceil(self.nominal_beats) as u64;
        let per_round = (self.max_interfering_in_flight() + 1) * self.occupancy();
        // Each sub waits one full round in the worst case; latency and
        // propagation are paid once (pipelined thereafter).
        subs * per_round + self.mem_latency + propagation::READ_TOTAL
    }

    /// Worst-case cycles from a write sub-transaction reaching its TS
    /// stage to its (merged) B response. Unlike a read — whose data
    /// transfer *is* its memory service — a write pays its own W-stream
    /// transfer on the shared W channel (it may only start after the
    /// grant, serialized behind interfering writes), then the memory
    /// service, then the B-response latency.
    pub fn worst_case_write_latency(&self) -> u64 {
        let interference = self.max_interfering_in_flight() * self.occupancy();
        interference
            + self.occupancy() // own W-stream transfer
            + self.service_time()
            + self.write_resp_latency
            + propagation::WRITE_TOTAL
    }

    /// Worst-case number of equalized sub-transactions simultaneously in
    /// flight downstream of the TS stages, *including* the analyzed
    /// port's own: every port can hold `MAX_OUT` reads *and* `MAX_OUT`
    /// writes outstanding at once, i.e. `2 × N × MAX_OUT`.
    ///
    /// This is the monitor-facing population bound: a sub-transaction
    /// observed at its TS stage can find at most `max_in_flight_subs() −
    /// 1` other subs already admitted ahead of it.
    pub fn max_in_flight_subs(&self) -> u64 {
        2 * self.num_ports as u64 * self.max_outstanding as u64
    }

    /// Worst-case cycles from a sub-transaction being *staged* at its TS
    /// (observable as the `TsStaged` hop) to the delivery of its final
    /// read-data beat at the slave port (`Delivered`), for use by the
    /// runtime bound monitor.
    ///
    /// Derivation: at staging time at most `max_in_flight_subs() − 1`
    /// other subs (reads and writes, all ports) are already admitted and
    /// must drain ahead of it in the worst case; while it waits for its
    /// own grant, one further arbitration round of
    /// `max_interfering_txns()` newly staged subs can slip in ahead
    /// (fixed-granularity round-robin admits at most one per other port
    /// per round). Each drains in `occupancy()` steady-state cycles,
    /// then the sub itself is served (`service_time()`), plus the
    /// interconnect propagation total.
    pub fn worst_case_staged_read_latency(&self) -> u64 {
        let queued = self.max_in_flight_subs() - 1 + self.max_interfering_txns();
        queued * self.occupancy() + self.service_time() + propagation::READ_TOTAL
    }

    /// Worst-case cycles from a write sub-transaction being *ready* at
    /// its TS — AW staged **and** its last W beat buffered, whichever
    /// is later — to the delivery of its B response at the slave port,
    /// for the runtime bound monitor. The clock excludes master-side
    /// data lag: a master may stage AW long before producing W beats,
    /// and no interconnect bound can cover that. Same population
    /// argument as
    /// [`ServiceModel::worst_case_staged_read_latency`], plus three
    /// write-specific terms:
    ///
    /// * **recycled-read overtaking** — a write enters the memory's
    ///   in-order service queue only once its data is fully assembled
    ///   there, and its W stream is serialized in grant order behind
    ///   every other in-flight write (up to `N × MAX_OUT` transfers of
    ///   `occupancy()` beats on the single W path). Reads admitted
    ///   during that assembly window — at most one per `occupancy()`
    ///   drained, since each needs a recycled outstanding slot — jump
    ///   ahead of the write, adding up to `N × MAX_OUT` further jobs to
    ///   its queue (the controller's write-starvation avoidance admits
    ///   at most one more once the write is assembled);
    /// * the sub's **own W-stream transfer**;
    /// * the memory's **write-response latency**.
    pub fn worst_case_staged_write_latency(&self) -> u64 {
        let queued = self.max_in_flight_subs() - 1 + self.max_interfering_txns();
        let write_population = self.num_ports as u64 * self.max_outstanding as u64;
        (queued + write_population) * self.occupancy()
            + self.occupancy() // own W-stream transfer
            + self.service_time()
            + self.write_resp_latency
            + propagation::WRITE_TOTAL
    }

    /// Population bound for one competing port under regulation: how
    /// many of its sub-transactions can be queued on the shared data
    /// path at once, starting from the unregulated allowance
    /// `dir_limit` (2·`MAX_OUT` across both directions, `MAX_OUT` for
    /// one).
    ///
    /// * An outstanding cap bounds the population directly.
    /// * A rate limiter bounds it by `burst + rate`: everything the
    ///   port has in flight was admitted from at most its accumulated
    ///   burst credits plus one refill, provided the refill window is
    ///   no shorter than the time the shared path needs to drain one
    ///   interference round (the regime the QoS scenarios program;
    ///   shorter windows fall back to the unregulated term only if
    ///   `burst + rate` exceeds it, so the bound stays sound there
    ///   too — it is simply not tighter).
    fn port_in_flight_cap(&self, cap: Option<&RegulationCap>, dir_limit: u64) -> u64 {
        let Some(c) = cap else {
            return dir_limit;
        };
        let mut bound = dir_limit;
        if let Some(oc) = c.out_cap {
            bound = bound.min(oc as u64);
        }
        if let Some(r) = c.rate {
            bound = bound.min(c.burst as u64 + r as u64);
        }
        bound
    }

    /// Tightened [`ServiceModel::worst_case_staged_read_latency`] for
    /// `port` when competitors are traffic-regulated (`caps[j]` is the
    /// regulation of port `j`, `None` = unregulated).
    ///
    /// The interference term shrinks because a rate-capped competitor
    /// cannot keep its full outstanding allowance queued: its
    /// population is bounded by [`RegulationCap`] (see
    /// `port_in_flight_cap`). A competitor whose population bound is
    /// zero also drops out of the arbitration round. With every entry
    /// `None` this reduces *exactly* to the unregulated staged bound.
    ///
    /// # Panics
    ///
    /// Panics if `caps.len() != num_ports` or `port` is out of range.
    pub fn regulated_staged_read_latency(
        &self,
        caps: &[Option<RegulationCap>],
        port: usize,
    ) -> u64 {
        let (queued, round) = self.regulated_population(caps, port);
        (queued + round) * self.occupancy() + self.service_time() + propagation::READ_TOTAL
    }

    /// Tightened [`ServiceModel::worst_case_staged_write_latency`] for
    /// `port` under competitor regulation; same derivation as the read
    /// bound plus the write-specific terms, with the recycled-read
    /// overtaking window also shrunk to each port's regulated write
    /// population. Reduces exactly to the unregulated staged write
    /// bound when every entry is `None`.
    ///
    /// # Panics
    ///
    /// Panics if `caps.len() != num_ports` or `port` is out of range.
    pub fn regulated_staged_write_latency(
        &self,
        caps: &[Option<RegulationCap>],
        port: usize,
    ) -> u64 {
        let (queued, round) = self.regulated_population(caps, port);
        let k = self.max_outstanding as u64;
        let write_population: u64 = caps
            .iter()
            .map(|cap| self.port_in_flight_cap(cap.as_ref(), k))
            .sum();
        (queued + round + write_population) * self.occupancy()
            + self.occupancy() // own W-stream transfer
            + self.service_time()
            + self.write_resp_latency
            + propagation::WRITE_TOTAL
    }

    /// Shared population arithmetic of the regulated staged bounds:
    /// `(queued, round)` — subs admitted ahead of the analyzed one, and
    /// the extra arbitration-round slots competitors with a nonzero
    /// population can still claim.
    fn regulated_population(&self, caps: &[Option<RegulationCap>], port: usize) -> (u64, u64) {
        assert_eq!(
            caps.len(),
            self.num_ports,
            "one regulation entry per port required"
        );
        assert!(port < self.num_ports, "analyzed port out of range");
        let own = 2 * self.max_outstanding as u64;
        let mut queued = own - 1;
        let mut round = 0u64;
        for (j, cap) in caps.iter().enumerate() {
            if j == port {
                continue;
            }
            let pop = self.port_in_flight_cap(cap.as_ref(), own);
            queued += pop;
            if pop > 0 {
                round += self.rr_granularity as u64;
            }
        }
        (queued, round)
    }

    /// Worst-case cycles for a quiescent drain of one port to complete
    /// once new admissions stop at its TS ingest.
    ///
    /// When a port is quiesced, everything already *admitted* — staged
    /// sub-transactions and in-flight ones downstream of the TS — must
    /// still complete. The last such sub-transaction is, by definition,
    /// a staged one, so its completion is bounded by the staged-latency
    /// bounds: every admitted sub finishes within
    /// `max(worst_case_staged_read_latency, worst_case_staged_write_latency)`
    /// cycles of the quiesce request taking effect. A drain that exceeds
    /// this deadline implies a protocol fault downstream (e.g. a
    /// stuck-valid master starving the shared W path) and justifies a
    /// force-flush.
    pub fn drain_deadline(&self) -> u64 {
        self.worst_case_staged_read_latency()
            .max(self.worst_case_staged_write_latency())
    }

    /// Closed-form worst-case completion bound (cycles) for one logical
    /// transaction under transient fabric/slave faults, retried with
    /// `policy` (see [`axi::retry::RetryPolicy::completion_bound`]).
    ///
    /// The fault-free per-attempt cost is this model's
    /// [`Self::drain_deadline`] — the bound by which *any* admitted
    /// sub-transaction completes — so under the bounded-fault-rate
    /// assumption (at most `max_faults` transient errors per logical
    /// transaction) every retried burst finishes within the returned
    /// figure. Arm it in a runtime monitor before a fault campaign.
    pub fn retry_completion_bound(&self, policy: &axi::retry::RetryPolicy, max_faults: u32) -> u64 {
        policy.completion_bound(self.drain_deadline(), max_faults)
    }

    /// Minimum bytes per period guaranteed to a port with budget `b`
    /// sub-transactions per period of `t` cycles, with `bytes_per_beat`
    /// wide data beats — the reservation guarantee of Pagani et al.
    /// (ECRTS 2019), assuming the
    /// port is backlogged and the schedule is feasible (total budgets'
    /// occupancy fits in the period).
    pub fn guaranteed_bytes_per_period(&self, budget: u32, bytes_per_beat: u64) -> u64 {
        budget as u64 * self.nominal_beats as u64 * bytes_per_beat
    }

    /// Whether a set of per-port budgets is feasible within a period of
    /// `t` cycles: total data-path occupancy (plus one pipeline fill)
    /// must fit.
    pub fn budgets_feasible(&self, budgets: &[u32], period: u64) -> bool {
        let total: u64 = budgets.iter().map(|&b| b as u64 * self.occupancy()).sum();
        total + self.mem_latency <= period
    }
}

/// Splits a total bandwidth capacity (in equalized transactions per
/// period) into per-port budgets according to percentage shares,
/// flooring each share — the translation the hypervisor driver performs
/// for the paper's `HC-X-Y` configurations.
///
/// Each budget is `⌊capacity × share / 100⌋` computed in 64-bit: the
/// floor guarantees `Σ budgets ≤ capacity` for *any* share vector
/// summing to 100 (so the output always satisfies
/// [`ServiceModel::budgets_feasible`] for a capacity derived from
/// [`period_capacity_txns`]), and the widening multiply cannot wrap for
/// large capacities the way the old 32-bit `capacity * share` did.
///
/// # Panics
///
/// Panics if the shares do not sum to 100.
pub fn budgets_from_shares(capacity_txns: u32, shares_percent: &[u32]) -> Vec<u32> {
    let sum: u64 = shares_percent.iter().map(|&s| u64::from(s)).sum();
    assert_eq!(sum, 100, "shares must sum to 100 percent");
    shares_percent
        .iter()
        .map(|&s| (u64::from(capacity_txns) * u64::from(s) / 100) as u32)
        .collect()
}

/// Transactions-per-period capacity of the memory path for a given
/// period, nominal burst and memory model: how many equalized
/// transactions fit in one reservation period.
pub fn period_capacity_txns(period: u64, nominal_beats: u32, mem_latency: u64) -> u32 {
    (period.saturating_sub(mem_latency) / nominal_beats as u64) as u32
}

sim::persist_fields!(ServiceModel {
    num_ports,
    nominal_beats,
    mem_latency,
    write_resp_latency,
    rr_granularity,
    max_outstanding,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_constants_match_paper() {
        assert_eq!(propagation::D_AR, 4);
        assert_eq!(propagation::D_AW, 4);
        assert_eq!(propagation::D_R, 2);
        assert_eq!(propagation::D_W, 2);
        assert_eq!(propagation::D_B, 2);
        assert_eq!(propagation::READ_TOTAL, 6);
        assert_eq!(propagation::WRITE_TOTAL, 8);
    }

    #[test]
    fn interference_scales_with_ports_and_granularity() {
        let hc = ServiceModel::hyperconnect(4, 16, 22);
        assert_eq!(hc.max_interfering_txns(), 3);
        assert_eq!(hc.max_interfering_in_flight(), 12);
        let sc = ServiceModel {
            rr_granularity: 4,
            ..hc
        };
        assert_eq!(sc.max_interfering_txns(), 12);
        assert!(sc.worst_case_read_latency() > hc.worst_case_read_latency());
    }

    #[test]
    fn worst_case_single_txn() {
        let m = ServiceModel::hyperconnect(2, 16, 22);
        // 1 port * 4 outstanding interfering txns * 16 + (22 + 16) + 6.
        assert_eq!(m.worst_case_read_latency(), 4 * 16 + 38 + 6);
        // Tightening the outstanding limit tightens the bound.
        let tight = m.max_outstanding(1);
        assert_eq!(tight.worst_case_read_latency(), 16 + 38 + 6);
    }

    #[test]
    fn burst_bound_grows_with_subs() {
        let m = ServiceModel::hyperconnect(2, 16, 22).max_outstanding(1);
        let one = m.worst_case_read_burst_latency(16);
        let four = m.worst_case_read_burst_latency(64);
        assert!(four > one);
        assert_eq!(four - one, 3 * 2 * 16); // 3 more subs * round of 2 txns * 16
    }

    #[test]
    fn write_bound_exceeds_read_bound() {
        let m = ServiceModel::hyperconnect(2, 16, 22);
        // Writes additionally pay their own W transfer, the B-response
        // latency and the longer propagation path.
        assert_eq!(
            m.worst_case_write_latency() - m.worst_case_read_latency(),
            m.occupancy()
                + m.write_resp_latency
                + (propagation::WRITE_TOTAL - propagation::READ_TOTAL)
        );
    }

    #[test]
    fn staged_bounds_pinned_arithmetic() {
        // The stress scenario: 4 ports, K=4 outstanding, 16-beat
        // nominal, 22-cycle memory.
        let m = ServiceModel::hyperconnect(4, 16, 22);
        assert_eq!(m.max_in_flight_subs(), 32);
        // (32 - 1 + 3) * 16 + (22 + 16) + 6.
        assert_eq!(m.worst_case_staged_read_latency(), 34 * 16 + 38 + 6);
        assert_eq!(m.worst_case_staged_read_latency(), 588);
        // Writes add the recycled-read overtaking window (N*K = 16 jobs
        // of 16 beats), own W transfer (16), B latency (4) and the
        // longer propagation path (8 vs 6).
        assert_eq!(
            m.worst_case_staged_write_latency(),
            m.worst_case_staged_read_latency() + 16 * 16 + 16 + 4 + 2
        );
        assert_eq!(m.worst_case_staged_write_latency(), 866);
        // The drain deadline is the max of the two staged bounds: the
        // last admitted sub-transaction is a staged one.
        assert_eq!(m.drain_deadline(), 866);
        // The staged bound dominates the per-port in-flight bound: it
        // accounts for the whole admitted population, not one port's.
        assert!(m.worst_case_staged_read_latency() >= m.worst_case_read_latency());
    }

    #[test]
    fn budget_shares() {
        let budgets = budgets_from_shares(1000, &[90, 10]);
        assert_eq!(budgets, vec![900, 100]);
        let budgets = budgets_from_shares(33, &[50, 50]);
        assert_eq!(budgets, vec![16, 16]);
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn shares_must_sum_to_100() {
        let _ = budgets_from_shares(10, &[60, 60]);
    }

    #[test]
    fn budget_rounding_never_exceeds_capacity() {
        let m = ServiceModel::hyperconnect(3, 16, 22);
        // Adversarial share vectors whose floored parts must still sum
        // within capacity — [33,33,34] of 100 used to allocate 100
        // exactly, but of 101 it must not allocate 102.
        for capacity in [33u32, 100, 101, 997, 65_535] {
            for shares in [
                vec![33u32, 33, 34],
                vec![1, 1, 98],
                vec![49, 49, 2],
                vec![100, 0, 0],
            ] {
                let budgets = budgets_from_shares(capacity, &shares);
                let total: u64 = budgets.iter().map(|&b| u64::from(b)).sum();
                assert!(
                    total <= u64::from(capacity),
                    "shares {shares:?} of {capacity} allocated {total}"
                );
            }
        }
        // Feasibility is guaranteed on the function's own output when
        // the capacity itself came from the period arithmetic.
        let period = 65_536u64;
        let cap = period_capacity_txns(period, 16, 22);
        let budgets = budgets_from_shares(cap, &[33, 33, 34]);
        assert!(m.budgets_feasible(&budgets, period));
    }

    #[test]
    fn budget_shares_survive_large_capacities() {
        // 100M transactions: the old 32-bit `capacity * share` multiply
        // wrapped here (100M * 90 > u32::MAX) and returned garbage in
        // release builds.
        let budgets = budgets_from_shares(100_000_000, &[90, 10]);
        assert_eq!(budgets, vec![90_000_000, 10_000_000]);
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn share_sum_check_is_wrap_proof() {
        // Sums past u32::MAX must panic, not wrap back around to 100.
        let wrap_to_100 = [u32::MAX, 1, 100, 0];
        let sum_wrapped = wrap_to_100.iter().fold(0u32, |acc, &s| acc.wrapping_add(s));
        assert_eq!(sum_wrapped, 100); // the adversarial premise
        let _ = budgets_from_shares(10, &wrap_to_100);
    }

    #[test]
    fn regulated_bounds_reduce_to_unregulated_when_uncapped() {
        let m = ServiceModel::hyperconnect(4, 16, 22);
        let caps: Vec<Option<RegulationCap>> = vec![None; 4];
        for p in 0..4 {
            assert_eq!(
                m.regulated_staged_read_latency(&caps, p),
                m.worst_case_staged_read_latency()
            );
            assert_eq!(
                m.regulated_staged_write_latency(&caps, p),
                m.worst_case_staged_write_latency()
            );
        }
        // Explicitly-unlimited caps (all fields None/huge) reduce too.
        let inert = Some(RegulationCap {
            rate: None,
            burst: 1,
            out_cap: None,
        });
        let caps = vec![inert; 4];
        assert_eq!(
            m.regulated_staged_read_latency(&caps, 0),
            m.worst_case_staged_read_latency()
        );
    }

    #[test]
    fn regulated_bounds_tighten_with_capped_competitors() {
        // The pinned 4-port scenario: unregulated staged read bound 588.
        let m = ServiceModel::hyperconnect(4, 16, 22);
        // Every competitor capped at 1 outstanding sub-transaction.
        let cap = Some(RegulationCap {
            rate: None,
            burst: 1,
            out_cap: Some(1),
        });
        let caps = vec![None, cap, cap, cap];
        // queued = (2K-1) + 3*1 = 10, round = 3 -> 13*16 + 38 + 6.
        assert_eq!(m.regulated_staged_read_latency(&caps, 0), 13 * 16 + 38 + 6);
        assert!(m.regulated_staged_read_latency(&caps, 0) < m.worst_case_staged_read_latency());
        // Writes: + write_population = K (own) + 3*1 = 7 jobs.
        assert_eq!(
            m.regulated_staged_write_latency(&caps, 0),
            (10 + 3 + 7) * 16 + 16 + 38 + 4 + 8
        );
        // Rate caps tighten through burst + rate.
        let paced = Some(RegulationCap {
            rate: Some(1),
            burst: 2,
            out_cap: None,
        });
        let caps = vec![None, paced, paced, paced];
        // Competitor population min(2K=8, burst+rate=3) = 3.
        // queued = 7 + 9 = 16, round = 3 -> 19*16 + 38 + 6.
        assert_eq!(m.regulated_staged_read_latency(&caps, 0), 19 * 16 + 38 + 6);
        // A fully-blocked competitor (out_cap 0) leaves the round too.
        let off = Some(RegulationCap {
            rate: None,
            burst: 1,
            out_cap: Some(0),
        });
        let caps = vec![None, off, off, off];
        // queued = 7, round = 0: only the port's own pipeline remains.
        assert_eq!(m.regulated_staged_read_latency(&caps, 0), 7 * 16 + 38 + 6);
    }

    #[test]
    fn capacity_and_feasibility() {
        let cap = period_capacity_txns(65_536, 16, 22);
        assert_eq!(cap, (65_536 - 22) / 16);
        let m = ServiceModel::hyperconnect(2, 16, 22);
        let budgets = budgets_from_shares(cap, &[70, 30]);
        assert!(m.budgets_feasible(&budgets, 65_536));
        assert!(!m.budgets_feasible(&[u32::MAX / 32, 0], 65_536));
    }

    #[test]
    fn guaranteed_bandwidth() {
        let m = ServiceModel::hyperconnect(2, 16, 22);
        // 100 txns * 16 beats * 16 bytes.
        assert_eq!(m.guaranteed_bytes_per_period(100, 16), 25_600);
    }
}
