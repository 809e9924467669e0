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

// ---------------------------------------------------------------------
// The accelerator models with write engines, each frozen alone on a
// one-port HyperConnect mid-stream: a copy DMA with W beats still
// queued behind issued AWs, a CHaiDNN in every phase of its layer
// machine, and a random master with a write burst in flight.
// ---------------------------------------------------------------------

/// Drives `acc` alone through a one-port HyperConnect into memory,
/// calling `each(now, image)` with the model's saved state after every
/// cycle until it returns `true` (or `max` cycles pass).
fn freeze_when(acc: &mut dyn Accelerator, max: u64, mut each: impl FnMut(u64, &[u8]) -> bool) {
    use axi::AxiInterconnect;
    use sim::Component;
    let mut hc = HyperConnect::new(HcConfig::new(1));
    let mut ctrl = MemoryController::new(MemConfig::default());
    for now in 0..max {
        acc.tick(now, hc.port(0));
        hc.tick(now);
        ctrl.tick(now, hc.mem_port());
        if each(now, &model_image(acc)) {
            return;
        }
    }
    panic!(
        "{}: the wanted state never came within {max} cycles",
        acc.name()
    );
}

fn model_image(acc: &dyn Accelerator) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    acc.save_state(&mut w);
    w.into_bytes()
}

#[test]
fn copy_dma_image_is_pinned() {
    // 4 outstanding 16-beat AWs enqueue 64 W beats by cycle 4, and the
    // W channel drains at most one a cycle: at cycle 40 the write
    // stream has bursts issued and W beats still queued.
    let mut dma = Dma::new(
        "copy",
        DmaConfig {
            src_base: 0x10_0000,
            dst_base: 0x20_0000,
            read_bytes: 16 * 1024,
            write_bytes: 64 * 1024,
            burst_beats: 16,
            size: BurstSize::B16,
            max_outstanding: 4,
            jobs: None,
        },
    );
    let mut image = Vec::new();
    freeze_when(&mut dma, 41, |now, bytes| {
        image = bytes.to_vec();
        now == 40
    });
    assert_pinned("copy dma", &image, (0x6994_FD5F, 474));
}

/// A three-layer schedule small enough to walk every phase quickly.
fn tiny_layers() -> Vec<ha::chaidnn::Layer> {
    let layer = |name, weight_bytes, compute_cycles| ha::chaidnn::Layer {
        name,
        weight_bytes,
        input_bytes: 128,
        output_bytes: 96,
        compute_cycles,
    };
    vec![
        layer("l0", 256, 40),
        layer("l1", 512, 25),
        layer("l2", 128, 60),
    ]
}

#[test]
fn chaidnn_phase_images_are_pinned() {
    // Wire code of the layer machine's phase: the byte after the
    // 8-byte layer index. 0 = between layers (taken after the first
    // layer finished), 1 = weights, 2 = inputs, 3 = compute,
    // 4 = outputs.
    const PINS: [Pin; 5] = [
        (0xAC75_DFA9, 60),
        (0x21AA_18ED, 159),
        (0x498C_6000, 151),
        (0x0C52_5DD5, 68),
        (0x0771_999A, 159),
    ];
    let mut dnn = Chaidnn::new("dnn", tiny_layers(), ChaidnnConfig::default());
    let mut first: [Option<Vec<u8>>; 5] = Default::default();
    freeze_when(&mut dnn, 20_000, |_, bytes| {
        let code = usize::from(bytes[8]);
        let layer_done = first[4].is_some();
        if first[code].is_none() && (code != 0 || layer_done) {
            first[code] = Some(bytes.to_vec());
        }
        first.iter().all(Option::is_some)
    });
    for (code, (image, pin)) in first.iter().zip(PINS).enumerate() {
        let image = image.as_ref().expect("every phase seen");
        assert_pinned(&format!("chaidnn phase {code}"), image, pin);
    }
}

#[test]
fn random_traffic_write_image_is_pinned() {
    // After the 40-byte RNG come the read engine's and the write
    // engine's presence flags; freeze four cycles into the first write.
    let mut rnd = RandomTraffic::new("rnd", 0x7000_0000, 1 << 20, BurstSize::B8, 32, 30, 41);
    let mut writing = 0;
    let mut image = Vec::new();
    freeze_when(&mut rnd, 20_000, |_, bytes| {
        writing = if bytes[40..42] == [0, 1] {
            writing + 1
        } else {
            0
        };
        image = bytes.to_vec();
        writing == 4
    });
    assert_pinned("random traffic write", &image, (0xD74F_4A9F, 291));
}
