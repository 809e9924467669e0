//! Fault-injection acceptance tests: a misbehaving accelerator must
//! trigger structured violations, the hypervisor watchdog must decouple
//! it within one reservation period, and every well-behaved victim must
//! stay within its `analysis` worst-case bounds for the whole run —
//! before, during and after the fault (the paper's §III/§V isolation
//! argument, exercised end to end).

use axi::checker::ViolationKind;
use axi::lite::LiteBus;
use axi::types::{BurstSize, PortId};
use axi::{ArBeat, AxiPort};
use axi_hyperconnect::SocSystem;
use ha::dma::{Dma, DmaConfig};
use ha::fault::{BoundaryViolator, RogueReader, RunawayMaster, StalledWriter, WlastViolator};
use ha::traffic::PeriodicReader;
use hyperconnect::analysis::ServiceModel;
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::{Hypervisor, WatchdogPolicy, WatchdogReason};
use mem::{MemConfig, MemoryController};
use sim::Cycle;

const HC_BASE: u64 = 0xA000_0000;
const PERIOD: u32 = 2_000;

/// Builds a hypervisor owning the given HyperConnect's register file.
/// Must be called before the interconnect moves into the `SocSystem`;
/// the AXI-Lite handle stays shared afterwards.
fn boot_hypervisor(hc: &HyperConnect) -> Hypervisor {
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let hv = Hypervisor::new(bus, HC_BASE).unwrap();
    hv.hc().set_period(PERIOD).unwrap();
    hv
}

/// Runs `cycles` cycles with the hypervisor polling the watchdog
/// registers every `every` cycles. Returns the poll cycle that first
/// decoupled a port.
fn watch(
    sys: &mut SocSystem<HyperConnect>,
    hv: &mut Hypervisor,
    cycles: Cycle,
    every: Cycle,
) -> Option<Cycle> {
    let mut decoupled_at = None;
    sys.run_polled(cycles, every, |now, _| {
        if !hv.poll_watchdog().unwrap().is_empty() {
            decoupled_at.get_or_insert(now);
        }
    });
    decoupled_at
}

/// The analysis bound every victim is held to: nominal-sized bursts
/// through an `ports`-port HyperConnect against the ZCU102 memory
/// model, with the default outstanding limit K=4 programmed at reset.
fn victim_model(ports: usize) -> ServiceModel {
    ServiceModel::hyperconnect(ports, 16, MemConfig::zcu102().first_word_latency).max_outstanding(4)
}

/// The full acceptance scenario: two well-behaved periodic readers
/// around a WLAST-corrupting writer. The interconnect reports the
/// violation, the watchdog decouples the offender within one
/// reservation period of the first report, and both victims' worst-case
/// read latencies stay within the analysis bound across the entire run.
#[test]
fn wlast_fault_is_reported_decoupled_and_victims_stay_bounded() {
    let hc = HyperConnect::new(HcConfig::new(3));
    let mut hv = boot_hypervisor(&hc);
    hv.set_watchdog_policy(
        PortId(1),
        WatchdogPolicy {
            violations_allowed: 0,
            outstanding_allowed: None,
            stall_polls_allowed: None,
        },
    );

    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim_a",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        40,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(WlastViolator::new(
        "faulty",
        0x2000_0000,
        16,
        BurstSize::B16,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim_b",
        0x3000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        40,
    )))
    .unwrap();

    // The hypervisor polls the watchdog registers every 100 cycles.
    let decoupled_at = watch(&mut sys, &mut hv, 40_000, 100);

    // 1. The fault produced at least one structured violation, on the
    //    right port and of the right kind.
    let violations = sys.interconnect_ref().violations(1);
    assert!(!violations.is_empty(), "no violation reported");
    let first = &violations[0];
    assert_eq!(first.kind, ViolationKind::WlastMismatch);
    assert_eq!(first.port, Some(1));
    assert!(
        sys.interconnect_ref()
            .violation_count(1, ViolationKind::WlastMismatch)
            >= 1
    );
    // The well-behaved ports reported nothing.
    assert_eq!(sys.interconnect_ref().total_violations(0), 0);
    assert_eq!(sys.interconnect_ref().total_violations(2), 0);

    // 2. The watchdog decoupled the offender within one reservation
    //    period of the first violation.
    let decoupled_at = decoupled_at.expect("watchdog never fired");
    assert!(hv.hc().is_decoupled(1).unwrap());
    assert!(!hv.hc().is_decoupled(0).unwrap());
    assert!(!hv.hc().is_decoupled(2).unwrap());
    assert!(
        decoupled_at - first.cycle <= PERIOD as u64,
        "decouple at {} but first violation at {} (period {})",
        decoupled_at,
        first.cycle,
        PERIOD
    );
    let event = hv.watchdog_log().get(0).expect("a watchdog event");
    assert_eq!(event.port, PortId(1));
    assert_eq!(event.reason, WatchdogReason::Violations);
    assert!(event.violations >= 1);

    // 3. Every victim's worst-case latency over the whole run — fault
    //    onset included — is within the analysis bound.
    let bound = victim_model(3).worst_case_read_latency();
    for port in [0usize, 2] {
        let observed = sys.interconnect_ref().read_latency(port).max().unwrap();
        assert!(
            observed <= bound,
            "victim on port {} saw {} > bound {}",
            port,
            observed,
            bound
        );
    }

    // 4. Victims keep progressing after the decoupling; the decoupled
    //    offender completes nothing more.
    let victim_jobs = sys.accelerator(0).unwrap().jobs_completed();
    let faulty_jobs = sys.accelerator(1).unwrap().jobs_completed();
    sys.run_for(10_000);
    assert!(sys.accelerator(0).unwrap().jobs_completed() > victim_jobs);
    assert_eq!(sys.accelerator(1).unwrap().jobs_completed(), faulty_jobs);
}

/// A writer that posts an address and never drives data would wedge an
/// unprotected write pipeline forever. Here the hang is reported, the
/// watchdog decouples the port, and the EXBAR's firewall beats complete
/// the granted burst so the victim's writes flow again.
#[test]
fn stalled_writer_cannot_wedge_the_write_path() {
    let hc = HyperConnect::new(HcConfig::new(2));
    let mut hv = boot_hypervisor(&hc);
    hv.set_watchdog_policy(
        PortId(1),
        WatchdogPolicy {
            violations_allowed: 0,
            outstanding_allowed: None,
            stall_polls_allowed: None,
        },
    );

    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    // Write-only victim streaming 16-beat bursts.
    sys.add_accelerator(Box::new(Dma::new(
        "victim",
        DmaConfig {
            src_base: 0,
            dst_base: 0x2000_0000,
            read_bytes: 0,
            write_bytes: 16 * 1024,
            burst_beats: 16,
            max_outstanding: 1,
            jobs: None,
            size: BurstSize::B16,
        },
    )))
    .unwrap();
    sys.add_accelerator(Box::new(StalledWriter::new(
        "hung",
        0x3000_0000,
        16,
        BurstSize::B16,
    )))
    .unwrap();

    let decoupled_at = watch(&mut sys, &mut hv, 20_000, 64);

    // The hang was classified, the port decoupled, and the stranded
    // write burst completed with strobe-disabled firewall beats.
    assert!(
        sys.interconnect_ref()
            .violation_count(1, ViolationKind::HandshakeHang)
            >= 1,
        "hang not reported: {:?}",
        sys.interconnect_ref().violations(1)
    );
    assert!(decoupled_at.is_some(), "watchdog never fired");
    assert!(hv.hc().is_decoupled(1).unwrap());
    assert!(
        sys.interconnect_ref().firewall_beats() > 0,
        "firewall never completed the stranded burst"
    );

    // The victim makes progress after the decoupling...
    let jobs = sys.accelerator(0).unwrap().jobs_completed();
    sys.run_for(20_000);
    assert!(sys.accelerator(0).unwrap().jobs_completed() > jobs);
    // ...and its worst write latency is the steady-state bound plus the
    // bounded reaction window: a hung W channel genuinely suspends the
    // shared write pipeline until the hang detector fires
    // (`W_HANG_THRESHOLD` starved cycles) and the next watchdog poll
    // (every 64 cycles here) decouples the offender. No interconnect
    // can hide that window, but it is a constant, not an open-ended
    // denial of service.
    let reaction = hyperconnect::supervisor::W_HANG_THRESHOLD as u64 + 64;
    let bound = victim_model(2).worst_case_write_latency() + reaction;
    let observed = sys.interconnect_ref().write_latency(0).max().unwrap();
    assert!(observed <= bound, "victim saw {observed} > bound {bound}");
    // Nothing the stalled port did corrupted memory: the firewall beats
    // carry no strobes, so the victim's region is intact and the hung
    // port's target region was never written.
    assert!(sys.memory().stats().error_responses == 0);
}

/// Reads beyond the decoded address range earn real DECERRs end to end:
/// the memory reports them, the TS classifies them as address-decode
/// violations, the rogue master observes the error responses, and the
/// victim is untouched.
#[test]
fn rogue_reader_gets_decerr_and_victims_are_unaffected() {
    let hc = HyperConnect::new(HcConfig::new(2));
    let mut hv = boot_hypervisor(&hc);
    hv.set_watchdog_policy(
        PortId(1),
        WatchdogPolicy {
            violations_allowed: 2,
            outstanding_allowed: None,
            stall_polls_allowed: None,
        },
    );

    let memory = MemoryController::new(MemConfig::zcu102().decode_limit(0x4000_0000));
    let mut sys = SocSystem::new(hc, memory);
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        40,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(RogueReader::new(
        "rogue",
        0x8000_0000,
        16,
        BurstSize::B16,
    )))
    .unwrap();

    watch(&mut sys, &mut hv, 20_000, 100);

    // The error propagated through every layer: memory decode → R
    // response → TS classification → watchdog decouple.
    assert!(sys.memory().stats().error_responses > 0);
    assert!(
        sys.interconnect_ref()
            .violation_count(1, ViolationKind::AddressDecode)
            >= 1,
        "{:?}",
        sys.interconnect_ref().violations(1)
    );
    let rogue = sys
        .accelerator(1)
        .unwrap()
        .as_any()
        .downcast_ref::<RogueReader>()
        .unwrap();
    assert!(rogue.error_responses() > 0, "rogue never saw its DECERRs");
    assert!(hv.hc().is_decoupled(1).unwrap());
    assert_eq!(
        hv.watchdog_log().get(0).map(|e| e.reason),
        Some(WatchdogReason::Violations)
    );

    // The victim never saw an error and stays within its bound.
    assert_eq!(sys.interconnect_ref().total_violations(0), 0);
    let bound = victim_model(2).worst_case_read_latency();
    let observed = sys.interconnect_ref().read_latency(0).max().unwrap();
    assert!(observed <= bound, "victim saw {observed} > bound {bound}");
    assert!(sys.accelerator(0).unwrap().jobs_completed() > 0);
}

/// INCR bursts crossing a 4 KiB boundary are detected at the TS on
/// arrival (before splitting hides them from the memory).
#[test]
fn boundary_crossing_bursts_are_reported() {
    let hc = HyperConnect::new(HcConfig::new(1));
    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.add_accelerator(Box::new(BoundaryViolator::new(
        "cross",
        0x1000_0000,
        16,
        BurstSize::B16,
    )))
    .unwrap();
    sys.run_for(2_000);
    assert!(
        sys.interconnect_ref()
            .violation_count(0, ViolationKind::Boundary4K)
            >= 1,
        "{:?}",
        sys.interconnect_ref().violations(0)
    );
    // Splitting still clamps the burst, so the memory stays clean.
    assert_eq!(sys.memory().stats().error_responses, 0);
}

/// A runaway master issuing protocol-legal reads as fast as the port
/// accepts them produces no violations — it is caught by the
/// outstanding-transaction counter instead.
#[test]
fn runaway_master_is_decoupled_on_outstanding_cap() {
    let hc = HyperConnect::new(HcConfig::new(2));
    let mut hv = boot_hypervisor(&hc);
    hv.set_watchdog_policy(
        PortId(1),
        WatchdogPolicy {
            violations_allowed: u32::MAX,
            outstanding_allowed: Some(2),
            stall_polls_allowed: None,
        },
    );

    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        40,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(RunawayMaster::new(
        "runaway",
        0x3000_0000,
        1 << 20,
        64,
        BurstSize::B16,
    )))
    .unwrap();

    watch(&mut sys, &mut hv, 20_000, 50);

    assert!(hv.hc().is_decoupled(1).unwrap());
    let event = hv.watchdog_log().get(0).expect("a watchdog event");
    assert_eq!(event.reason, WatchdogReason::Outstanding);
    assert!(event.outstanding > 2);
    // Legal traffic, so the interconnect reported no protocol
    // violations — the envelope breach is a resource-policy matter.
    assert_eq!(sys.interconnect_ref().total_violations(1), 0);
    // The victim is unharmed either way.
    let bound = victim_model(2).worst_case_read_latency();
    let observed = sys.interconnect_ref().read_latency(0).max().unwrap();
    assert!(observed <= bound, "victim saw {observed} > bound {bound}");
}

/// Stuck-VALID stall detection: a writer that asserts AWVALID and then
/// never drives a W beat freezes the port's progress fingerprint
/// (completed transactions and outstanding count both stop moving while
/// work is outstanding). With the violation and outstanding triggers
/// disabled, only the stall detector can catch it — and it does,
/// classifying the event as [`WatchdogReason::Stalled`].
#[test]
fn stuck_valid_writer_trips_the_stall_detector() {
    let hc = HyperConnect::new(HcConfig::new(2));
    let mut hv = boot_hypervisor(&hc);
    hv.set_watchdog_policy(
        PortId(1),
        WatchdogPolicy {
            violations_allowed: u32::MAX, // ignore the HandshakeHang report
            outstanding_allowed: None,
            stall_polls_allowed: Some(2),
        },
    );

    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        40,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(StalledWriter::new(
        "stuck_valid",
        0x3000_0000,
        16,
        BurstSize::B16,
    )))
    .unwrap();

    let decoupled_at = watch(&mut sys, &mut hv, 10_000, 100).expect("stall detector never fired");
    assert!(hv.hc().is_decoupled(1).unwrap());
    let event = hv.watchdog_log().get(0).expect("a watchdog event");
    assert_eq!(event.port, PortId(1));
    assert_eq!(event.reason, WatchdogReason::Stalled);
    assert!(
        event.outstanding >= 1,
        "stall tripped with nothing in flight"
    );
    // The fingerprint must be observed frozen for stall_polls_allowed+1
    // consecutive polls past the first sample before the trip.
    assert!(
        decoupled_at <= 100 * 5,
        "detection took too long: {decoupled_at}"
    );
    // The read-only victim never shared a pipeline with the hung W
    // channel, so it is held to the plain analysis bound.
    let bound = victim_model(2).worst_case_read_latency();
    let observed = sys.interconnect_ref().read_latency(0).max().unwrap();
    assert!(observed <= bound, "victim saw {observed} > bound {bound}");
}

/// A reader that issues one legal burst and then never accepts a single
/// R beat — RREADY wedged low forever. The response path backs up behind
/// its full eFIFO R queue; the transaction can never retire.
struct StuckReadyReader {
    posted: bool,
}

impl ha::Accelerator for StuckReadyReader {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        if !self.posted && !port.ar.is_full() {
            // Longer than the eFIFO R queue (32 beats), so the burst can
            // never fully retire into the buffer: the consumer must pop.
            let beat = ArBeat::new(0x1080_0000, 64, BurstSize::B16).with_issued_at(now);
            port.ar.push(now, beat).expect("checked space");
            self.posted = true;
            return true;
        }
        // Never pops R: the consumer side of the handshake is wedged.
        false
    }
    fn name(&self) -> &str {
        "stuck_ready"
    }
    fn is_done(&self) -> bool {
        false
    }
    fn jobs_completed(&self) -> u64 {
        0
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn save_state(&self, w: &mut sim::persist::SnapshotWriter) {
        w.put_bool(self.posted);
    }
    fn restore_state(
        &mut self,
        r: &mut sim::persist::SnapshotReader<'_>,
    ) -> Result<(), sim::persist::PersistError> {
        self.posted = r.take_bool()?;
        Ok(())
    }
}

/// Stuck-READY stall detection: the wedged consumer issues no protocol
/// violation at all — every beat it *did* exchange was legal — yet its
/// read can never complete, so the progress fingerprint freezes with
/// one transaction outstanding. The stall detector classifies it,
/// decoupling grounds the blocked response path (the eFIFO accepts and
/// drops the stranded beats on the dead port's behalf), and the victim
/// resumes within a bounded reaction window.
#[test]
fn stuck_ready_reader_trips_the_stall_detector() {
    let hc = HyperConnect::new(HcConfig::new(2));
    let mut hv = boot_hypervisor(&hc);
    hv.set_watchdog_policy(
        PortId(1),
        WatchdogPolicy {
            violations_allowed: u32::MAX,
            outstanding_allowed: None,
            stall_polls_allowed: Some(2),
        },
    );

    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        40,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(StuckReadyReader { posted: false }))
        .unwrap();

    let decoupled_at = watch(&mut sys, &mut hv, 10_000, 100);

    assert!(decoupled_at.is_some(), "stall detector never fired");
    assert!(hv.hc().is_decoupled(1).unwrap());
    let event = hv.watchdog_log().get(0).expect("a watchdog event");
    assert_eq!(event.port, PortId(1));
    assert_eq!(event.reason, WatchdogReason::Stalled);
    // Legal traffic throughout: the checker saw nothing.
    assert_eq!(sys.interconnect_ref().total_violations(1), 0);
    // The stranded burst drained into the decoupler's grounded R path.
    assert!(
        sys.interconnect_ref().dropped_responses(1) > 0,
        "decoupling never grounded the stranded R beats"
    );
    // Until the decouple, beats routed to the wedged port head-of-line
    // block the shared return path, so the victim is held to the bound
    // plus the stall-detection reaction window (frozen fingerprint must
    // persist for stall_polls_allowed+1 polls past the first sample).
    let reaction = 6 * 100u64;
    let bound = victim_model(2).worst_case_read_latency() + reaction;
    let observed = sys.interconnect_ref().read_latency(0).max().unwrap();
    assert!(observed <= bound, "victim saw {observed} > bound {bound}");
    // And it keeps progressing once the path is unclogged.
    let jobs = sys.accelerator(0).unwrap().jobs_completed();
    sys.run_for(10_000);
    assert!(sys.accelerator(0).unwrap().jobs_completed() > jobs);
}
