//! Runtime reconfiguration and decoupling, in two acts.
//!
//! **Act 1** — the hypervisor detects a misbehaving accelerator (it
//! exceeds its declared traffic) and decouples it from the memory
//! subsystem without touching the other accelerator — the paper's §V-A
//! *Decoupling from the memory subsystem*.
//!
//! **Act 2** — the road back: a hung writer is driven through the full
//! recovery lifecycle (quiescent drain → decouple → reset → reattach →
//! probation) by `Hypervisor::poll_recovery`, ending healthy again —
//! see DESIGN.md §10.
//!
//! Run with: `cargo run --release --example runtime_reconfig`

use axi::lite::LiteBus;
use axi::types::{BurstSize, PortId};
use axi_hyperconnect::SocSystem;
use ha::fault::StalledWriter;
use ha::traffic::{BandwidthStealer, PeriodicReader};
use hyperconnect::analysis::ServiceModel;
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::{Hypervisor, MonitorPolicy, RecoveryPolicy, RecoveryState, WatchdogPolicy};
use mem::{MemConfig, MemoryController};

const HC_BASE: u64 = 0xA000_0000;
const PERIOD: u32 = 20_000;

fn main() {
    decouple_a_bandwidth_thief();
    reset_and_reattach_a_hung_writer();
}

/// Act 1: monitor-driven decoupling of an over-budget accelerator.
fn decouple_a_bandwidth_thief() {
    let hc = HyperConnect::new(HcConfig::new(2));
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let mut hv = Hypervisor::new(bus, HC_BASE).expect("device present");
    hv.hc().set_period(PERIOD).unwrap();

    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    // Port 0: a well-behaved periodic reader (e.g. a sensor-fusion HA).
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "sensor",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        200,
    )))
    .unwrap();
    // Port 1: declared as low-rate, actually floods the bus (faulty or
    // malicious silicon).
    sys.add_accelerator(Box::new(BandwidthStealer::new(
        "rogue",
        0x3000_0000,
        1 << 20,
        256,
        BurstSize::B16,
    )))
    .unwrap();

    // The rogue HA declared it needs at most 64 sub-transactions per
    // period; two violating periods are tolerated before decoupling.
    hv.set_monitor_policy(
        PortId(1),
        MonitorPolicy {
            declared_txns_per_period: 64,
            violations_allowed: 2,
        },
    );

    let mut decoupled_at = None;
    let mut sensor_before = 0.0;
    for epoch in 0..40u64 {
        sys.run_for(PERIOD as u64);
        // The hypervisor polls once per reservation period.
        let events = hv.poll_health().unwrap();
        for e in &events {
            println!(
                "[{:>9} cycles] hypervisor DECOUPLED {}: {} sub-txns observed, {} declared",
                sys.now(),
                e.port,
                e.observed,
                e.declared
            );
            decoupled_at = Some(sys.now());
        }
        if epoch == 9 {
            sensor_before = sys.rate_per_second(0);
        }
    }

    let sensor_after = sys.rate_per_second(0);
    println!(
        "\nsensor HA completed bursts/s: {sensor_before:.0} (early) -> {sensor_after:.0} (final)"
    );
    println!(
        "rogue HA responses grounded while decoupled: {}",
        sys.interconnect().dropped_responses(1)
    );
    let events: Vec<_> = hv.decouple_log().iter().collect();
    println!("decoupling log: {events:?}");

    let decoupled_at = decoupled_at.expect("the rogue HA must have been decoupled");
    assert!(hv.hc().is_decoupled(1).unwrap());
    assert!(
        sensor_after >= sensor_before,
        "the well-behaved HA must not be worse off after isolation"
    );
    println!(
        "\nrogue accelerator isolated after {decoupled_at} cycles; \
         the sensor HA kept its service.\n"
    );
}

/// Act 2: the full recovery lifecycle on a recoverable fault. A writer
/// hangs its W channel; the stall detector trips, the recovery state
/// machine drains and decouples the port, cues us to pulse the
/// accelerator reset, reattaches it under probation, and — since the
/// reset cured the fault — promotes it back to `Healthy`.
fn reset_and_reattach_a_hung_writer() {
    const POLL: u64 = 100;

    let mut hc = HyperConnect::new(HcConfig::new(2));
    // The drain deadline is derived from the worst-case analysis of the
    // configured service model, not guessed.
    hc.set_drain_model(
        ServiceModel::hyperconnect(2, 16, MemConfig::zcu102().first_word_latency)
            .max_outstanding(4),
    );
    println!(
        "[recovery] drain deadline from analysis: {} cycles",
        hc.drain_deadline()
    );

    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let mut hv = Hypervisor::new(bus, HC_BASE).expect("device present");
    hv.hc().set_period(2_000).unwrap();
    hv.set_watchdog_policy(
        PortId(1),
        WatchdogPolicy {
            violations_allowed: 0,
            outstanding_allowed: None,
            stall_polls_allowed: Some(2),
        },
    );
    hv.set_recovery_policy(PortId(1), RecoveryPolicy::default());

    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "sensor",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        200,
    )))
    .unwrap();
    // A recoverable fault: the hung W channel clears on reset.
    sys.add_accelerator(Box::new(StalledWriter::new(
        "hung",
        0x3000_0000,
        16,
        BurstSize::B16,
    )))
    .unwrap();

    let mut resets = 0u32;
    sys.run_polled(40_000, POLL, |now, sys| {
        for t in hv.poll_recovery().unwrap() {
            println!(
                "[{now:>9} cycles] recovery {}: {:?} -> {:?}{}",
                t.port,
                t.from,
                t.to,
                if t.dropped_txns > 0 {
                    format!(" ({} sub-txns force-flushed)", t.dropped_txns)
                } else {
                    String::new()
                }
            );
            // The transition into Resetting is the hypervisor's cue to
            // pulse the accelerator's PL reset line.
            if t.to == RecoveryState::Resetting {
                sys.accelerator_mut(t.port.0).unwrap().reset();
                resets += 1;
            }
        }
    });

    let state = hv.recovery_state(PortId(1)).unwrap();
    println!("\nfinal recovery state of port 1: {state:?} after {resets} reset(s)");
    assert_eq!(
        state,
        RecoveryState::Healthy,
        "the cured port must reattach"
    );
    assert_eq!(
        resets, 1,
        "one reset pulse suffices for a recoverable fault"
    );
    assert!(!hv.hc().is_decoupled(1).unwrap());
    println!("hung writer reset, reattached and promoted back to Healthy.");
}
