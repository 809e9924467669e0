//! Fault injection end to end: a WLAST-corrupting accelerator is
//! detected by the Transaction Supervisor, reported through the
//! AXI-Lite health registers, and auto-decoupled by the hypervisor
//! watchdog — while the well-behaved accelerators keep their
//! worst-case latency guarantee (the paper's §III/§V isolation
//! argument).
//!
//! Run with: `cargo run --release --example fault_injection`

use axi::lite::LiteBus;
use axi::types::{BurstSize, PortId};
use axi_hyperconnect::SocSystem;
use ha::fault::WlastViolator;
use ha::traffic::PeriodicReader;
use hyperconnect::analysis::ServiceModel;
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::{Hypervisor, WatchdogPolicy};
use mem::{MemConfig, MemoryController};

const HC_BASE: u64 = 0xA000_0000;
const PERIOD: u32 = 2_000;

fn main() {
    let hc = HyperConnect::new(HcConfig::new(3));
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let mut hv = Hypervisor::new(bus, HC_BASE).expect("device present");
    hv.hc().set_period(PERIOD).unwrap();
    // Zero tolerance: one structured violation decouples the port.
    hv.set_watchdog_policy(
        PortId(1),
        WatchdogPolicy {
            violations_allowed: 0,
            outstanding_allowed: None,
            stall_polls_allowed: None,
        },
    );

    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    // Ports 0 and 2: well-behaved periodic readers (the victims).
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim_a",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        40,
    )))
    .unwrap();
    // Port 1: a writer whose WLAST lands one beat early — an off-by-one
    // in its end-of-frame logic.
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
    let mut decoupled_at = None;
    sys.run_polled(40_000, 100, |now, _sys| {
        for e in hv.poll_watchdog().unwrap() {
            println!(
                "[{now:>6} cycles] watchdog DECOUPLED {}: {:?}, {} violations on record",
                e.port, e.reason, e.violations
            );
            decoupled_at.get_or_insert(now);
        }
    });

    let hc = sys.interconnect_ref();
    println!("\nviolations recorded on port 1:");
    for v in hc.violations(1).iter().take(3) {
        println!("  {v}");
    }
    println!(
        "  ... {} total; ports 0/2 reported {}/{}",
        hc.total_violations(1),
        hc.total_violations(0),
        hc.total_violations(2)
    );

    let bound = ServiceModel::hyperconnect(3, 16, MemConfig::zcu102().first_word_latency)
        .max_outstanding(4)
        .worst_case_read_latency();
    println!("\nvictim worst-case read latency vs. analysis bound ({bound} cycles):");
    for port in [0usize, 2] {
        let observed = hc.read_latency(port).max().unwrap();
        println!(
            "  port {port}: {observed} cycles ({} bursts completed)",
            sys.accelerator(port).unwrap().jobs_completed()
        );
        assert!(observed <= bound, "victim exceeded its bound");
    }

    let first = &sys.interconnect_ref().violations(1)[0];
    let decoupled_at = decoupled_at.expect("the faulty HA must have been decoupled");
    assert!(hv.hc().is_decoupled(1).unwrap());
    assert!(decoupled_at - first.cycle <= PERIOD as u64);
    println!(
        "\nfault at cycle {}, decoupled at cycle {decoupled_at} — within one \
         reservation period ({PERIOD} cycles); both victims kept their bound.",
        first.cycle
    );
}
