//! Wire-format pins for `hcsim-snapshot/v1`: the CRC-32 and length of
//! saved images that, together, reach every persisted type in the
//! workspace — every `PersistValue` impl and every component's
//! `save_state`.
//!
//! The snapshot oracles elsewhere compare a run against itself, so a
//! change that moves the bytes *symmetrically* (save and load both
//! reordered) passes them unnoticed while silently invalidating every
//! stored snapshot. These constants catch exactly that. They were
//! generated once from the reference encoding; a mismatch means a
//! type's wire layout moved. Do not re-bless them to make a refactor
//! pass — fix the encoding instead, or bump `FORMAT_TAG` for an
//! intentional format change.

mod scenarios;

use axi::fault::{FaultyBridge, FaultyBridgeConfig};
use axi::lite::LiteBus;
use axi::retry::RetryPolicy;
use axi::types::{BurstSize, PortId};
use axi::AxiPort;
use axi_hyperconnect::{SchedulerMode, SocSystem};
use ha::chaidnn::{Chaidnn, ChaidnnConfig};
use ha::dma::{Dma, DmaConfig};
use ha::fault::{BoundaryViolator, RogueReader, RunawayMaster, WlastViolator};
use ha::scoreboard::ScoreboardMaster;
use ha::traffic::{BandwidthStealer, PeriodicReader, RandomTraffic};
use ha::Accelerator;
use hyperconnect::analysis::ServiceModel;
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::{
    Criticality, Hypervisor, IntegrityPolicy, MonitorPolicy, RecoveryPolicy, WatchdogPolicy,
};
use mem::ps::PsCpu;
use mem::{MemConfig, MemFaultConfig, MemoryController, RegionRemap};
use scenarios::*;
use sim::persist::{crc32, PersistValue, SnapshotWriter};
use sim::stats::EventLog;
use smartconnect::{ScConfig, SmartConnect};

const HC_BASE: u64 = 0xA000_0000;

/// `(crc32, length)` of one saved image.
type Pin = (u32, usize);

fn pin_of(bytes: &[u8]) -> Pin {
    (crc32(bytes), bytes.len())
}

fn assert_pinned(label: &str, bytes: &[u8], expected: Pin) {
    let (crc, len) = pin_of(bytes);
    assert_eq!(
        (crc, len),
        expected,
        "{label}: wire image moved (got crc 0x{crc:08X}, {len} B)"
    );
}

// ---------------------------------------------------------------------
// The six snapshot-oracle scenarios at their split cycles.
// ---------------------------------------------------------------------

fn system_at(build: fn(SchedulerMode) -> SocSystem<HyperConnect>, split: u64) -> Vec<u8> {
    let mut sys = build(SchedulerMode::FastForward);
    sys.run_for(split);
    sys.snapshot_bytes()
}

#[test]
fn stress_image_is_pinned() {
    assert_pinned(
        "stress",
        &system_at(build_stress, 26_371),
        (0xCA13_AE20, 682_519),
    );
}

#[test]
fn fault_image_is_pinned() {
    assert_pinned(
        "fault",
        &system_at(build_fault, 17_203),
        (0xC122_CF49, 58_125),
    );
}

#[test]
fn qos_image_is_pinned() {
    assert_pinned("qos", &system_at(build_qos, 23_917), (0xEDB3_45B5, 34_014));
}

#[test]
fn chaos_seed_image_is_pinned() {
    assert_pinned(
        "chaos-seed",
        &system_at(build_chaos_seed, 15_551),
        (0x5A7A_0029, 627_504),
    );
}

#[test]
fn tree3_image_is_pinned() {
    let mut topo = build_tree3(SchedulerMode::FastForward);
    topo.run_for(33_331);
    assert_pinned("tree3", &topo.snapshot_bytes(), (0x0AB2_6D35, 1_041_237));
}

#[test]
fn fabric_fault_image_is_pinned() {
    assert_pinned(
        "fabric-fault",
        &system_at(build_fabric_fault, 19_777),
        (0x7692_8390, 375_995),
    );
}

// ---------------------------------------------------------------------
// A SmartConnect system: the baseline interconnect's own state, its
// metrics registry, and the DNN/DMA accelerator models (including a
// write engine mid-burst).
// ---------------------------------------------------------------------

#[test]
fn smartconnect_image_is_pinned() {
    let mut sc = SmartConnect::new(ScConfig::new(3).seed(5));
    sc.enable_metrics();
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_monitor();
    memory.attach_request_trace();
    let mut sys = SocSystem::new(sc, memory);
    sys.add_accelerator(Box::new(Chaidnn::googlenet(ChaidnnConfig {
        frames: Some(2),
        ..ChaidnnConfig::default()
    })))
    .unwrap();
    sys.add_accelerator(Box::new(Dma::new(
        "copy",
        DmaConfig {
            write_bytes: 64 * 1024,
            jobs: None,
            ..DmaConfig::reader(64 * 1024, 16, BurstSize::B16)
        },
    )))
    .unwrap();
    sys.add_accelerator(Box::new(RandomTraffic::new(
        "rnd",
        0x7000_0000,
        1 << 20,
        BurstSize::B8,
        32,
        30,
        41,
    )))
    .unwrap();
    sys.run_for(12_347);
    assert_pinned(
        "smartconnect",
        &sys.snapshot_bytes(),
        (0x8454_B15A, 179_679),
    );
}

// ---------------------------------------------------------------------
// A HyperConnect system with every optional layer switched on: event
// trace, waveform probe, PS port, request traces, quarantine remap and
// the bound monitor, around the rogue / boundary / runaway fault
// masters and a DNN accelerator.
// ---------------------------------------------------------------------

#[test]
fn instrumented_image_is_pinned() {
    let mut hc = HyperConnect::new(HcConfig::new(4));
    hc.enable_trace(32);
    let mut memory =
        MemoryController::new(MemConfig::zcu102().row_policy(mem::RowPolicy::default()));
    memory.attach_monitor();
    memory.attach_request_trace();
    memory.enable_ps_port();
    memory.quarantine_remap(RegionRemap {
        lo: 0x6000_0000,
        hi: 0x6000_1000,
        spare_base: 0x6800_0000,
    });
    let mut sys = SocSystem::new(hc, memory);
    sys.attach_waveform();
    sys.enable_observability();
    sys.add_accelerator(Box::new(RogueReader::new(
        "rogue",
        0xF000_0000,
        4,
        BurstSize::B4,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(BoundaryViolator::new(
        "straddle",
        0x2000_0FC0,
        16,
        BurstSize::B16,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(RunawayMaster::new(
        "runaway",
        0x6000_0000,
        1 << 16,
        8,
        BurstSize::B16,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(Chaidnn::alexnet(ChaidnnConfig::default())))
        .unwrap();
    sys.run_for(9_001);
    assert_pinned("instrumented", &sys.snapshot_bytes(), (0x4803_2063, 78_168));
}

// ---------------------------------------------------------------------
// A hypervisor with monitor, watchdog, recovery and integrity policies
// armed and every event log non-empty.
// ---------------------------------------------------------------------

#[test]
fn hypervisor_image_is_pinned() {
    let hc = HyperConnect::new(HcConfig::new(4));
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let mut hv = Hypervisor::new(bus, HC_BASE).unwrap();
    hv.hc().set_period(2_000).unwrap();
    let safety = hv.create_domain("vision", Criticality::Safety);
    let mission = hv.create_domain("control", Criticality::Mission);
    let best = hv.create_domain("logging", Criticality::BestEffort);
    hv.assign_port(safety, PortId(0)).unwrap();
    hv.assign_port(mission, PortId(1)).unwrap();
    hv.assign_port(best, PortId(2)).unwrap();
    hv.assign_port(best, PortId(3)).unwrap();
    hv.set_integrity_policy(PortId(0), IntegrityPolicy { errors_allowed: 1 })
        .unwrap();
    hv.set_watchdog_policy(
        PortId(1),
        WatchdogPolicy {
            violations_allowed: 0,
            outstanding_allowed: Some(40),
            stall_polls_allowed: Some(5),
        },
    );
    hv.set_recovery_policy(
        PortId(1),
        RecoveryPolicy {
            suspect_polls: 2,
            ..RecoveryPolicy::default()
        },
    );
    hv.set_monitor_policy(
        PortId(2),
        MonitorPolicy {
            declared_txns_per_period: 4,
            violations_allowed: 0,
        },
    );

    let oracle_base = 0x2000_0000;
    let oracle_span = 16 * 256;
    let memory = MemoryController::new(
        MemConfig::zcu102().slverr_range(oracle_base, oracle_base + oracle_span),
    );
    let mut sys = SocSystem::new(hc, memory);
    sys.add_accelerator(Box::new(
        ScoreboardMaster::new("oracle", oracle_base, oracle_span, 16, BurstSize::B16, 13).policy(
            RetryPolicy {
                max_attempts: 4,
                backoff_base: 2,
                backoff_cap: 16,
            },
        ),
    ))
    .unwrap();
    sys.add_accelerator(Box::new(WlastViolator::new(
        "faulty",
        0x3000_0000,
        16,
        BurstSize::B16,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(BandwidthStealer::new(
        "stealer",
        0x5000_0000,
        1 << 20,
        256,
        BurstSize::B16,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "periodic",
        0x7000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        60,
    )))
    .unwrap();
    sys.run_polled(30_000, 100, |_, sys| {
        for port in sys.take_irq_events() {
            hv.route_irq(port).unwrap();
        }
        hv.poll_health().unwrap();
        hv.poll_watchdog().unwrap();
        hv.poll_integrity().unwrap();
        hv.poll_recovery().unwrap();
    });
    assert!(!hv.decouple_log().is_empty(), "monitor never fired");
    assert!(!hv.watchdog_log().is_empty(), "watchdog never fired");
    assert!(!hv.recovery_log().is_empty(), "recovery never moved");
    assert!(!hv.integrity_log().is_empty(), "integrity never fired");

    let mut w = SnapshotWriter::new();
    hv.save_state(&mut w);
    assert_pinned("hypervisor", &w.into_bytes(), (0x3B93_FE04, 650));
    assert_pinned(
        "hypervisor system",
        &sys.snapshot_bytes(),
        (0x0B7E_780C, 46_492),
    );
}

// ---------------------------------------------------------------------
// A scoreboard → FaultyBridge → memory chain frozen while the
// scoreboard is backing off from a failed op.
// ---------------------------------------------------------------------

#[test]
fn faulty_bridge_chain_image_is_pinned() {
    let mut sb = ScoreboardMaster::new("sb", 0x1000, 4096, 4, BurstSize::B4, 9)
        .policy(RetryPolicy {
            max_attempts: 8,
            backoff_base: 3,
            backoff_cap: 48,
        })
        .jobs(40);
    let mut bridge = FaultyBridge::new(
        FaultyBridgeConfig::new(21)
            .flip_r(0.2)
            .drop_r(0.0)
            .stall(0.1, 4),
    );
    let mut ctrl = MemoryController::new(MemConfig::ideal());
    ctrl.attach_fault_injector(MemFaultConfig::new(5).spurious_slverr(0.3));
    let mut up = AxiPort::default();
    let mut down = AxiPort::default();
    let mut now = 0;
    // Run until the first retry is scheduled, then a few cycles into
    // its backoff window.
    while sb.stats().retries == 0 {
        sb.tick(now, &mut up);
        bridge.transfer(now, &mut up, &mut down);
        ctrl.tick(now, &mut down);
        now += 1;
        assert!(now < 50_000, "no retry within the budget");
    }
    for _ in 0..2 {
        sb.tick(now, &mut up);
        bridge.transfer(now, &mut up, &mut down);
        ctrl.tick(now, &mut down);
        now += 1;
    }
    let mut w = SnapshotWriter::new();
    sb.save_state(&mut w);
    bridge.save_value(&mut w);
    up.save_value(&mut w);
    down.save_value(&mut w);
    ctrl.save_state(&mut w);
    assert_pinned("faulty-bridge chain", &w.into_bytes(), (0x0F17_E970, 5_341));
}

// ---------------------------------------------------------------------
// Value types no system snapshot carries: the PS-side CPU model, event
// logs, retry policies and the analysis service model.
// ---------------------------------------------------------------------

#[test]
fn standalone_values_are_pinned() {
    let mut w = SnapshotWriter::new();
    let mut log = EventLog::new();
    for c in [3, 17, 400] {
        log.record(c);
    }
    log.save_value(&mut w);
    RetryPolicy {
        max_attempts: 5,
        backoff_base: 4,
        backoff_cap: 64,
    }
    .save_value(&mut w);
    let mut ctrl = MemoryController::new(MemConfig::zcu102());
    ctrl.enable_ps_port();
    let mut cpu = PsCpu::new(50);
    let mut fpga = AxiPort::default();
    for now in 0..700 {
        cpu.tick(now, ctrl.ps_port_mut());
        ctrl.tick(now, &mut fpga);
    }
    cpu.save_value(&mut w);
    ServiceModel::hyperconnect(3, 16, 30)
        .max_outstanding(4)
        .save_value(&mut w);
    assert_pinned("standalone values", &w.into_bytes(), (0x39E7_0B05, 180));
}
