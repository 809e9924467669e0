//! Scenario builders shared by the snapshot oracles and the wire-format
//! pins: each call assembles the identical system (same shapes, same
//! seeds), so two builds differ only in the scheduler they run under.

#![allow(dead_code)]

use axi::types::BurstSize;
use axi::BridgeConfig;
use axi_hyperconnect::{SchedulerMode, SocSystem, SocTopology, TopologyBuilder};
use ha::dma::{Dma, DmaConfig};
use ha::fault::{DelayedFault, StalledWriter, WlastViolator};
use ha::traffic::{BandwidthStealer, PeriodicReader, RandomTraffic};
use ha::Accelerator;
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::HcDriver;
use mem::{MemConfig, MemoryController};

pub fn build_stress(mode: SchedulerMode) -> SocSystem<HyperConnect> {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_monitor();
    let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(4)), memory);
    sys.set_scheduler(mode);
    sys.add_accelerator(Box::new(RandomTraffic::new(
        "rnd0",
        0x1000_0000,
        1 << 20,
        BurstSize::B16,
        64,
        10,
        11,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(BandwidthStealer::new(
        "steal",
        0x3000_0000,
        1 << 20,
        256,
        BurstSize::B16,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "periodic",
        0x5000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        100,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(RandomTraffic::new(
        "rnd1",
        0x7000_0000,
        1 << 20,
        BurstSize::B4,
        32,
        50,
        23,
    )))
    .unwrap();
    sys
}

pub fn build_fault(mode: SchedulerMode) -> SocSystem<HyperConnect> {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_monitor();
    let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(3)), memory);
    sys.set_scheduler(mode);
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
    sys
}

pub fn build_qos(mode: SchedulerMode) -> SocSystem<HyperConnect> {
    let hc = HyperConnect::new(HcConfig::new(4));
    let mut bus = axi::lite::LiteBus::new();
    bus.map(0xA000_0000, 0x1000, hc.regs().clone());
    let drv = HcDriver::probe(&bus, 0xA000_0000).expect("HyperConnect regfile");
    drv.set_regulation_window(128).expect("window register");
    for p in 1..4 {
        drv.set_rate(p, 8).expect("rate register");
        drv.set_reg_burst(p, 4).expect("burst register");
        drv.set_out_cap(p, 2).expect("out-cap register");
    }
    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.set_scheduler(mode);
    sys.enable_observability();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "qos_victim",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        200,
    )))
    .unwrap();
    for p in 1..4u64 {
        sys.add_accelerator(Box::new(Dma::new(
            format!("qos_swarm{p}"),
            DmaConfig {
                src_base: 0x3000_0000 + p * 0x0100_0000,
                jobs: None,
                ..DmaConfig::reader(256 * 1024, 16, BurstSize::B16)
            },
        )))
        .unwrap();
    }
    sys
}

pub fn build_chaos_seed(mode: SchedulerMode) -> SocSystem<HyperConnect> {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_monitor();
    let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(3)), memory);
    sys.set_scheduler(mode);
    sys.add_accelerator(Box::new(RandomTraffic::new(
        "seeded0",
        0x1000_0000,
        1 << 20,
        BurstSize::B16,
        48,
        20,
        23, // PINNED_SEEDS member
    )))
    .unwrap();
    sys.add_accelerator(Box::new(DelayedFault::new(
        Box::new(StalledWriter::new("stall", 0x2000_0000, 16, BurstSize::B16)),
        21_000,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(RandomTraffic::new(
        "seeded1",
        0x5000_0000,
        1 << 20,
        BurstSize::B4,
        32,
        60,
        29, // PINNED_SEEDS member
    )))
    .unwrap();
    sys
}

pub fn build_tree3(mode: SchedulerMode) -> SocTopology {
    let mut b = TopologyBuilder::new();
    let root = b
        .add_interconnect("root", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let mid = b
        .add_interconnect("mid", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let leaf = b
        .add_interconnect("leaf", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.cascade_with(leaf, mid, 0, BridgeConfig::wire().latency(2))
        .unwrap();
    b.cascade_with(mid, root, 0, BridgeConfig::wire().latency(1))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    let placements: [(&str, Box<dyn Accelerator>, _, usize); 4] = [
        (
            "l0",
            Box::new(RandomTraffic::new(
                "leaf_rnd",
                0x1000_0000,
                1 << 20,
                BurstSize::B16,
                40,
                15,
                31,
            )),
            leaf,
            0,
        ),
        (
            "l1",
            Box::new(PeriodicReader::new(
                "leaf_per",
                0x2000_0000,
                1 << 20,
                16,
                BurstSize::B16,
                90,
            )),
            leaf,
            1,
        ),
        (
            "m1",
            Box::new(PeriodicReader::new(
                "mid_per",
                0x5000_0000,
                1 << 20,
                16,
                BurstSize::B16,
                130,
            )),
            mid,
            1,
        ),
        (
            "r1",
            Box::new(RandomTraffic::new(
                "root_rnd",
                0x9000_0000,
                1 << 20,
                BurstSize::B16,
                48,
                35,
                47,
            )),
            root,
            1,
        ),
    ];
    for (name, acc, node, port) in placements {
        let a = b.add_accelerator(name, acc).unwrap();
        b.attach(a, node, port).unwrap();
    }
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

pub fn build_fabric_fault(mode: SchedulerMode) -> SocSystem<HyperConnect> {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_fault_injector(
        mem::MemFaultConfig::new(17)
            .spurious_slverr(0.08)
            .flip_single(0.05)
            .ecc(true),
    );
    let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(3)), memory);
    sys.set_scheduler(mode);
    sys.add_accelerator(Box::new(
        ha::scoreboard::ScoreboardMaster::new(
            "fabric_oracle",
            0x2000_0000,
            16 * 256,
            16,
            BurstSize::B16,
            13,
        )
        .policy(axi::retry::RetryPolicy {
            max_attempts: 8,
            backoff_base: 2,
            backoff_cap: 64,
        })
        .gap(40),
    ))
    .unwrap();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim",
        0x1000_0000,
        1 << 20,
        16,
        BurstSize::B16,
        50,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(RandomTraffic::new(
        "rnd",
        0x5000_0000,
        1 << 20,
        BurstSize::B16,
        48,
        25,
        31, // FABRIC_PINNED_SEEDS member
    )))
    .unwrap();
    sys
}

/// Two finite DMA readers through a 2-port HyperConnect — the Fig 3(a)
/// measurement shape, sized to finish in a few hundred cycles.
pub fn build_fig3a_short(mode: SchedulerMode) -> SocSystem<HyperConnect> {
    let mut sys = SocSystem::new(
        HyperConnect::new(HcConfig::new(2)),
        MemoryController::new(MemConfig::zcu102()),
    );
    sys.set_scheduler(mode);
    for p in 0..2u64 {
        sys.add_accelerator(Box::new(Dma::new(
            format!("fig3a_dma{p}"),
            DmaConfig {
                src_base: 0x1000_0000 + p * 0x0100_0000,
                jobs: Some(2),
                ..DmaConfig::reader(1024, 16, BurstSize::B16)
            },
        )))
        .unwrap();
    }
    sys
}
