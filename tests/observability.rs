//! Transaction-level observability suite: the metrics registry and the
//! runtime bound monitor watching *real* end-to-end traffic.
//!
//! Four properties are pinned here:
//!
//! 1. **Propagation floors.** No observed per-channel latency may ever
//!    undercut the HyperConnect's pipeline propagation constants
//!    (`analysis::propagation`) — a sample below the floor means a
//!    timestamp was taken at the wrong hop, not that the fabric got
//!    faster.
//! 2. **Contention-free minima equal the Fig. 3(a) goldens.** With a
//!    single master and an idle fabric, the *minimum* observed channel
//!    latency equals the golden constant exactly: the observability
//!    layer measures the same d_AR/d_AW/d_R/d_W/d_B the conformance
//!    probes pin.
//! 3. **Zero bound violations on clean scenarios.** Randomized traffic
//!    against the real ZCU102-model memory controller must stay inside
//!    the closed-form worst-case bounds at every port count.
//! 4. **Value pins.** The full metrics snapshot and the saved image of
//!    two observed systems hash to fixed values mid-flight and at the
//!    end, under both schedulers: the recorder's layout may change, the
//!    bytes it produces may not.

use axi::lite::LiteBus;
use axi::observe::ObsChannel;
use axi::types::BurstSize;
use axi::AxiInterconnect;
use axi_hyperconnect::{SchedulerMode, SocSystem};
use ha::dma::{Dma, DmaConfig};
use ha::traffic::{PeriodicReader, RandomTraffic};
use hyperconnect::analysis::propagation;
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::HcDriver;
use mem::{MemConfig, MemoryController};

/// Builds an observed system: HyperConnect with metrics + bound monitor
/// armed, ZCU102-model memory with the protocol monitor attached.
fn observed_system(ports: usize) -> SocSystem<HyperConnect> {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_monitor();
    memory.memory_mut().fill_pattern(0x1000_0000, 64 * 1024);
    let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(ports)), memory);
    sys.enable_observability();
    sys
}

/// Every channel's observed minimum latency must respect the pipeline
/// propagation floor; end-to-end transactions must respect the summed
/// address + data floors.
fn assert_propagation_floors(sys: &SocSystem<HyperConnect>) {
    let metrics = sys.interconnect_ref().metrics().expect("armed");
    let floors = [
        (ObsChannel::Ar, propagation::D_AR),
        (ObsChannel::Aw, propagation::D_AW),
        (ObsChannel::R, propagation::D_R),
        (ObsChannel::W, propagation::D_W),
        (ObsChannel::B, propagation::D_B),
    ];
    for port in 0..metrics.num_ports() {
        let p = metrics.port(port);
        for (channel, floor) in floors {
            if let Some(min) = p.channel(channel).latency.min() {
                assert!(
                    min >= floor,
                    "port {port} {channel:?} min latency {min} < propagation floor {floor}"
                );
            }
        }
        if let Some(min) = p.read_txns.min() {
            assert!(
                min >= propagation::READ_TOTAL,
                "port {port} read txn min {min} < {}",
                propagation::READ_TOTAL
            );
        }
        if let Some(min) = p.write_txns.min() {
            assert!(
                min >= propagation::WRITE_TOTAL,
                "port {port} write txn min {min} < {}",
                propagation::WRITE_TOTAL
            );
        }
    }
}

#[test]
fn randomized_traffic_respects_propagation_floors() {
    let mut sys = observed_system(4);
    for (i, seed) in [11u64, 23, 47].iter().enumerate() {
        sys.add_accelerator(Box::new(RandomTraffic::new(
            "rnd",
            0x1000_0000 + ((i as u64) << 24),
            1 << 20,
            BurstSize::B16,
            64,
            10,
            *seed,
        )))
        .unwrap();
    }
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "periodic",
        0x5000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        100,
    )))
    .unwrap();
    sys.run_for(400_000);

    assert_propagation_floors(&sys);
    let metrics = sys.interconnect_ref().metrics().unwrap();
    // Every master actually produced samples on its port.
    for port in 0..4 {
        assert!(
            metrics.port(port).read_txns.count() > 0,
            "port {port} recorded no read transactions"
        );
    }
    // And the fabric stayed inside the analytical worst case throughout.
    let report = sys.interconnect_ref().bound_report().unwrap();
    assert!(report.checked_reads > 100, "{report:?}");
    assert_eq!(
        report.violations,
        0,
        "{:?}",
        sys.interconnect_ref().bound_violations().first()
    );
    assert!(sys.memory().monitor().unwrap().is_clean());
}

#[test]
fn contention_free_minima_equal_fig3a_goldens() {
    // One DMA on an otherwise idle 2-port fabric: the minimum observed
    // latency of each channel is the pure pipeline propagation delay —
    // the same constants `tests/conformance.rs` pins with beat probes.
    let mut sys = observed_system(2);
    sys.add_accelerator(Box::new(Dma::new(
        "dma0",
        DmaConfig {
            src_base: 0x1000_0000,
            dst_base: 0x2000_0000,
            read_bytes: 16 * 1024,
            write_bytes: 16 * 1024,
            jobs: Some(2),
            ..DmaConfig::case_study()
        },
    )))
    .unwrap();
    let outcome = sys.run_until_done(4_000_000);
    assert!(outcome.is_done(), "DMA did not finish: {outcome}");

    let metrics = sys.interconnect_ref().metrics().unwrap();
    let p = metrics.port(0);
    assert_eq!(p.ar.latency.min(), Some(propagation::D_AR), "d_AR");
    assert_eq!(p.aw.latency.min(), Some(propagation::D_AW), "d_AW");
    assert_eq!(p.r.latency.min(), Some(propagation::D_R), "d_R");
    // The DMA streams W beats back-to-back, so even the fastest beat
    // queues one cycle behind its predecessor in the W stage; the pure
    // d_W propagation (an isolated beat on an established route) is
    // pinned by the injection probes in the conformance suite.
    assert_eq!(p.w.latency.min(), Some(propagation::D_W + 1), "d_W");
    assert_eq!(p.b.latency.min(), Some(propagation::D_B), "d_B");
    assert_propagation_floors(&sys);

    let report = sys.interconnect_ref().bound_report().unwrap();
    assert!(report.checked_reads > 0 && report.checked_writes > 0);
    assert_eq!(report.violations, 0, "{report:?}");
}

#[test]
fn bound_monitor_clean_across_port_counts() {
    for ports in [1usize, 2, 4] {
        let mut sys = observed_system(ports);
        for port in 0..ports {
            sys.add_accelerator(Box::new(RandomTraffic::new(
                "rnd",
                0x1000_0000 + ((port as u64) << 24),
                1 << 20,
                BurstSize::B16,
                64,
                20,
                100 + port as u64,
            )))
            .unwrap();
        }
        sys.run_for(200_000);
        let report = sys.interconnect_ref().bound_report().unwrap();
        assert!(report.checked_reads > 0, "{ports} ports: {report:?}");
        assert_eq!(
            report.violations,
            0,
            "{ports} ports: {:?}",
            sys.interconnect_ref().bound_violations().first()
        );
        assert_propagation_floors(&sys);
    }
}

/// FNV-1a 64 over a byte string.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The quickstart example's system: two DMAs moving 64 KiB in and out
/// per job, four jobs each, on a 2-port HyperConnect.
fn quickstart_system(mode: SchedulerMode) -> SocSystem<HyperConnect> {
    let mut sys = observed_system(2);
    sys.set_scheduler(mode);
    for (name, src, dst) in [
        ("dma0", 0x1000_0000u64, 0x2000_0000u64),
        ("dma1", 0x3000_0000, 0x3800_0000),
    ] {
        sys.add_accelerator(Box::new(Dma::new(
            name,
            DmaConfig {
                src_base: src,
                dst_base: dst,
                read_bytes: 64 * 1024,
                write_bytes: 64 * 1024,
                jobs: Some(4),
                ..DmaConfig::case_study()
            },
        )))
        .unwrap();
    }
    sys
}

/// The regulated QoS shape: a hard-RT periodic victim plus three greedy
/// DMA readers on a 4-port HyperConnect, the swarm's regulators
/// programmed over AXI-Lite before observability is armed.
fn observed_qos_system(mode: SchedulerMode) -> SocSystem<HyperConnect> {
    let hc = HyperConnect::new(HcConfig::new(4));
    let mut bus = LiteBus::new();
    bus.map(0xA000_0000, 0x1000, hc.regs().clone());
    let drv = HcDriver::probe(&bus, 0xA000_0000).expect("HyperConnect regfile");
    drv.set_regulation_window(256).expect("window register");
    for port in 1..4 {
        drv.set_rate(port, 2).expect("rate register");
        drv.set_reg_burst(port, 2).expect("burst register");
        drv.set_out_cap(port, 2).expect("out-cap register");
    }
    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.set_scheduler(mode);
    sys.enable_observability();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        200,
    )))
    .unwrap();
    for i in 0..3u64 {
        sys.add_accelerator(Box::new(Dma::new(
            format!("swarm{i}"),
            DmaConfig {
                src_base: 0x3000_0000 + i * 0x0100_0000,
                jobs: None,
                ..DmaConfig::reader(256 * 1024, 16, BurstSize::B16)
            },
        )))
        .unwrap();
    }
    sys
}

/// `(fnv64 of metrics_snapshot_json, fnv64 of snapshot_bytes)`.
fn value_pin(sys: &SocSystem<HyperConnect>) -> (u64, u64) {
    let json = sys.metrics_snapshot_json().expect("observability armed");
    (fnv64(json.as_bytes()), fnv64(&sys.snapshot_bytes()))
}

/// Runs `build` to `mid` (asserting transactions are in flight there)
/// and then on to its end, checking both points' pins under both
/// schedulers.
fn assert_value_pins(
    label: &str,
    build: fn(SchedulerMode) -> SocSystem<HyperConnect>,
    mid: u64,
    finish: impl Fn(&mut SocSystem<HyperConnect>),
    expected: [(u64, u64); 2],
) {
    for mode in [SchedulerMode::Naive, SchedulerMode::FastForward] {
        let mut sys = build(mode);
        sys.run_for(mid);
        let inflight = sys.interconnect_ref().metrics().unwrap().inflight_len();
        assert!(inflight > 0, "{label} {mode:?}: nothing in flight at {mid}");
        let got_mid = value_pin(&sys);
        finish(&mut sys);
        let got_end = value_pin(&sys);
        assert_eq!(
            [got_mid, got_end],
            expected,
            "{label} {mode:?}: observability values moved (mid {got_mid:#x?}, end {got_end:#x?})"
        );
    }
}

#[test]
fn quickstart_values_are_pinned() {
    assert_value_pins(
        "quickstart",
        quickstart_system,
        20_011,
        |sys| assert!(sys.run_until_done(10_000_000).is_done()),
        [
            (0xd636_c1d6_a589_268d, 0xc3ae_ddd0_7dfd_19b1),
            (0xa353_433b_af82_1f79, 0xb3af_d2c3_0dd0_055b),
        ],
    );
}

#[test]
fn observed_qos_values_are_pinned() {
    assert_value_pins(
        "observed_qos",
        observed_qos_system,
        23_917,
        |sys| sys.run_for(76_083),
        [
            (0x763f_dc26_68b2_25d7, 0x27d1_bca7_9e24_416c),
            (0xffc4_d1a1_2814_174f, 0x05fd_0bec_3ea0_9f01),
        ],
    );
}
