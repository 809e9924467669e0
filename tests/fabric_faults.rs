//! End-to-end fabric/memory fault injection and data integrity: the
//! seeded memory-side injector and the `FaultyBridge` wrapper corrupt
//! real traffic, the `ScoreboardMaster` oracle proves every mismatch is
//! announced (or catches the silent ones when protection is off), the
//! retry policy absorbs transient SLVERRs within its closed-form bound,
//! and the hypervisor quarantines hard-error regions through the
//! `ERR_TOTAL` health register path.

use axi::fault::{FaultyBridge, FaultyBridgeConfig};
use axi::lite::LiteBus;
use axi::retry::RetryPolicy;
use axi::types::{BurstSize, PortId};
use axi::AxiPort;
use axi_hyperconnect::SocSystem;
use ha::dma::{Dma, DmaConfig};
use ha::scoreboard::ScoreboardMaster;
use ha::traffic::PeriodicReader;
use ha::Accelerator;
use hyperconnect::analysis::ServiceModel;
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::{HcDriver, Hypervisor, IntegrityPolicy};
use mem::{MemConfig, MemFaultConfig, MemoryController, RegionRemap};

const HC_BASE: u64 = 0xA000_0000;
const ORACLE_BASE: u64 = 0x2000_0000;
const ORACLE_SPAN: u64 = 16 * 256;

fn oracle(seed: u64) -> ScoreboardMaster {
    ScoreboardMaster::new("oracle", ORACLE_BASE, ORACLE_SPAN, 16, BurstSize::B16, seed).jobs(25)
}

fn oracle_stats(
    sys: &SocSystem<HyperConnect>,
    port: usize,
) -> (ha::scoreboard::ScoreboardStats, bool) {
    let sb = sys
        .accelerator(port)
        .expect("oracle port")
        .as_any()
        .downcast_ref::<ScoreboardMaster>()
        .expect("scoreboard on oracle port");
    (sb.stats(), sb.is_done())
}

/// Unprotected single-bit flips reach the master as wrong payloads with
/// OK responses — the oracle must flag every one as silent corruption.
#[test]
fn scoreboard_catches_silent_flips_through_the_full_system() {
    let mut sys = SocSystem::new(
        HyperConnect::new(HcConfig::new(2)),
        MemoryController::new(MemConfig::zcu102()),
    );
    sys.memory_mut()
        .attach_fault_injector(MemFaultConfig::new(7).flip_single(0.6));
    sys.add_accelerator(Box::new(oracle(3))).unwrap();
    sys.run_for(40_000);
    let (s, done) = oracle_stats(&sys, 0);
    assert!(done, "{s:?}");
    assert!(s.silent_corruptions > 0, "{s:?}");
    assert_eq!(s.announced_errors, 0, "flips were silent, not announced");
    let inj = sys.memory().fault_stats().expect("injector armed");
    assert!(inj.single_flips > 0);
    assert_eq!(inj.corrected, 0, "no ECC armed");
}

/// The same flip stream under the ECC model: every single-bit flip is
/// detected and corrected in-line, so the oracle sees clean data and
/// the injector accounts every correction.
#[test]
fn ecc_scrubs_the_same_flips_end_to_end() {
    let mut sys = SocSystem::new(
        HyperConnect::new(HcConfig::new(2)),
        MemoryController::new(MemConfig::zcu102()),
    );
    sys.memory_mut()
        .attach_fault_injector(MemFaultConfig::new(7).flip_single(0.6).ecc(true));
    sys.add_accelerator(Box::new(oracle(3))).unwrap();
    sys.run_for(40_000);
    let (s, done) = oracle_stats(&sys, 0);
    assert!(done, "{s:?}");
    assert_eq!(s.silent_corruptions, 0, "{s:?}");
    assert_eq!(s.bursts_verified, 25);
    let inj = sys.memory().fault_stats().expect("injector armed");
    assert!(inj.corrected > 0, "{inj:?}");
    assert_eq!(inj.silent_flips(), 0, "{inj:?}");
}

/// Transient SLVERR bursts through the full interconnect: the retry
/// policy re-issues them with capped exponential backoff, every burst
/// eventually completes with correct data, the worst completion stays
/// within the analysis bound, and the `ERR_TOTAL` health register
/// surfaced the announced errors to the (would-be) hypervisor.
#[test]
fn transient_slverr_bursts_retry_within_the_derived_bound() {
    let policy = RetryPolicy {
        max_attempts: 12,
        backoff_base: 2,
        backoff_cap: 64,
    };
    let hc = HyperConnect::new(HcConfig::new(3));
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let drv = HcDriver::probe(&bus, HC_BASE).expect("HyperConnect at HC_BASE");

    let first_word = MemConfig::zcu102().first_word_latency;
    let model = ServiceModel::hyperconnect(3, 16, first_word).max_outstanding(4);
    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.memory_mut()
        .attach_fault_injector(MemFaultConfig::new(11).spurious_slverr(0.25));
    sys.add_accelerator(Box::new(oracle(5).policy(policy)))
        .unwrap();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        40,
    )))
    .unwrap();
    sys.run_for(60_000);

    let (s, done) = oracle_stats(&sys, 0);
    assert!(done, "{s:?}");
    assert_eq!(s.silent_corruptions, 0, "{s:?}");
    assert_eq!(s.aborted_ops, 0, "{s:?}");
    assert_eq!(s.bursts_verified, 25);
    assert!(s.retries > 0, "fault rate 0.25 must trigger retries");
    let bound = model.retry_completion_bound(&policy, s.worst_faults_per_op + 1);
    assert!(
        s.worst_completion <= bound,
        "worst {} exceeds bound {bound}",
        s.worst_completion
    );
    // The announced errors are visible through the health register the
    // hypervisor polls. The injector is memory-side, so both the oracle
    // and the victim accumulate per-port counts.
    assert!(drv.err_total(0).expect("ERR_TOTAL register") > 0);
    assert_eq!(
        drv.err_total(2).expect("ERR_TOTAL register"),
        0,
        "idle port"
    );
}

/// A `FaultyBridge` on the fabric edge corrupting R payloads: requests
/// pass unfaulted, flipped read data arrives with OK responses, and the
/// oracle convicts every flip as silent corruption.
#[test]
fn faulty_bridge_flips_are_caught_by_the_oracle() {
    let mut sb = ScoreboardMaster::new("sb", 0x1000, 4096, 4, BurstSize::B4, 9).jobs(15);
    let mut bridge = FaultyBridge::new(FaultyBridgeConfig::new(21).flip_r(0.5));
    let mut ctrl = MemoryController::new(MemConfig::ideal());
    let mut up = AxiPort::default();
    let mut down = AxiPort::default();
    for now in 0..6_000 {
        sb.tick(now, &mut up);
        bridge.transfer(now, &mut up, &mut down);
        ctrl.tick(now, &mut down);
    }
    let s = sb.stats();
    assert!(sb.is_done(), "{s:?}");
    assert!(s.silent_corruptions > 0, "{s:?}");
    let b = bridge.stats();
    assert!(b.flipped_beats > 0, "{b:?}");
    assert!(b.beats_down > 0 && b.beats_up > 0);
}

/// Bridge stalls freeze the edge for a window but corrupt nothing:
/// traffic is delayed, never damaged.
#[test]
fn faulty_bridge_stalls_only_delay_traffic() {
    let mut sb = ScoreboardMaster::new("sb", 0x1000, 4096, 4, BurstSize::B4, 9).jobs(15);
    let mut bridge = FaultyBridge::new(FaultyBridgeConfig::new(21).stall(0.2, 5));
    let mut ctrl = MemoryController::new(MemConfig::ideal());
    let mut up = AxiPort::default();
    let mut down = AxiPort::default();
    for now in 0..10_000 {
        sb.tick(now, &mut up);
        bridge.transfer(now, &mut up, &mut down);
        ctrl.tick(now, &mut down);
    }
    let s = sb.stats();
    assert!(sb.is_done(), "{s:?}");
    assert_eq!(s.silent_corruptions, 0, "{s:?}");
    assert_eq!(s.bursts_verified, 15);
    assert!(bridge.stats().stalls > 0, "{:?}", bridge.stats());
}

/// The full degraded-mode story on one system: a hard-error region
/// under the oracle's window aborts its first ops, the hypervisor's
/// integrity monitor trips past its error budget via the `ERR_TOTAL`
/// register, the region is quarantined onto a zeroed spare, and
/// verified round trips resume — with zero silent corruption across
/// the whole episode.
#[test]
fn hard_errors_quarantine_and_recover_end_to_end() {
    let hc = HyperConnect::new(HcConfig::new(2));
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let mut hv = Hypervisor::new(bus, HC_BASE).expect("valid regfile");
    hv.set_integrity_policy(PortId(0), IntegrityPolicy { errors_allowed: 2 })
        .unwrap();

    let mut sys = SocSystem::new(
        hc,
        MemoryController::new(
            MemConfig::zcu102().slverr_range(ORACLE_BASE, ORACLE_BASE + ORACLE_SPAN),
        ),
    );
    sys.add_accelerator(Box::new(oracle(13).policy(RetryPolicy {
        max_attempts: 6,
        backoff_base: 2,
        backoff_cap: 32,
    })))
    .unwrap();

    let mut quarantines = 0u64;
    sys.run_polled(60_000, 50, |_, sys| {
        for ev in hv.poll_integrity().expect("AXI-Lite poll") {
            assert_eq!(ev.port, PortId(0));
            assert!(ev.err_total > ev.errors_allowed);
            sys.memory_mut().quarantine_remap(RegionRemap {
                lo: ORACLE_BASE,
                hi: ORACLE_BASE + ORACLE_SPAN,
                spare_base: 0x2800_0000,
            });
            let sb = (sys.accelerator_mut(0).expect("oracle port") as &mut dyn std::any::Any)
                .downcast_mut::<ScoreboardMaster>()
                .expect("scoreboard on port 0");
            sb.note_remap(ORACLE_BASE, ORACLE_BASE + ORACLE_SPAN);
            quarantines += 1;
        }
    });

    assert_eq!(quarantines, 1, "integrity event latches after firing once");
    assert_eq!(hv.integrity_log().len(), 1);
    assert_eq!(sys.memory().remaps().len(), 1);
    let (s, done) = oracle_stats(&sys, 0);
    assert!(done, "{s:?}");
    assert_eq!(s.silent_corruptions, 0, "{s:?}");
    assert!(s.announced_errors > 0, "{s:?}");
    assert!(s.verified_after_remap > 0, "{s:?}");
}

/// The metrics snapshot grows an `"ecc"` section only when a fault
/// injector is armed — fault-free systems keep the exact pre-fault JSON
/// shape, so the flat schema golden never churns.
#[test]
fn metrics_snapshot_gains_ecc_section_only_when_armed() {
    let run = |armed: bool| {
        let mut sys = SocSystem::new(
            HyperConnect::new(HcConfig::new(2)),
            MemoryController::new(MemConfig::zcu102()),
        );
        if armed {
            sys.memory_mut()
                .attach_fault_injector(MemFaultConfig::new(5).flip_single(0.3).ecc(true));
        }
        sys.enable_observability();
        sys.add_accelerator(Box::new(Dma::new(
            "d",
            DmaConfig::reader(4096, 16, BurstSize::B16).jobs(1),
        )))
        .unwrap();
        assert!(sys.run_until_done(1_000_000).is_done());
        sys.metrics_snapshot_json().expect("metrics armed")
    };
    let clean = run(false);
    assert!(!clean.contains("\"ecc\""), "clean snapshot must not change");
    let armed = run(true);
    assert!(armed.contains("\"ecc\":{\"spurious_errors\":0"), "{armed}");
    assert!(armed.contains("\"corrected\":"), "{armed}");
}
