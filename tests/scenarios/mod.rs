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

/// A HyperConnect with metrics enabled, so `metrics_snapshot_json`
/// carries the instance's hop aggregates.
fn observed_hc(ports: usize) -> HyperConnect {
    let mut hc = HyperConnect::new(HcConfig::new(ports));
    hc.enable_metrics();
    hc
}

/// The `bench::tree100` scenario, node for node (metrics enabled): a
/// root HyperConnect
/// and seven 13-accelerator clusters behind latency-32 bridges.
/// Cluster 0's random masters keep it busy nearly every cycle; the other
/// six clusters' periodic readers idle 8 000–11 000 cycles between
/// bursts, so those clusters sleep most of the time.
pub fn build_tree100(mode: SchedulerMode) -> SocTopology {
    const CLUSTERS: usize = 7;
    const ACCS_PER_CLUSTER: usize = 13;
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", observed_hc(CLUSTERS)).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    let mut acc_idx = 0usize;
    for c in 0..CLUSTERS {
        let cluster = b
            .add_interconnect(format!("cluster{c}"), observed_hc(ACCS_PER_CLUSTER))
            .unwrap();
        let bridge = BridgeConfig {
            addr_capacity: 32,
            data_capacity: 256,
            resp_capacity: 32,
            ..BridgeConfig::wire()
        }
        .latency(32);
        b.cascade_with(cluster, root, c, bridge).unwrap();
        for p in 0..ACCS_PER_CLUSTER {
            let base = 0x1000_0000 + acc_idx as u64 * 0x0020_0000;
            let name = format!("a{acc_idx}");
            let acc: Box<dyn Accelerator> = if c == 0 {
                Box::new(RandomTraffic::new(
                    &name,
                    base,
                    1 << 19,
                    BurstSize::B16,
                    16,
                    250 + (p as u64 * 37) % 250,
                    p as u64 * 31 + 17,
                ))
            } else {
                Box::new(PeriodicReader::new(
                    &name,
                    base,
                    1 << 19,
                    16,
                    BurstSize::B16,
                    8_000 + (acc_idx as u64 * 211) % 3_000,
                ))
            };
            let a = b.add_accelerator(&name, acc).unwrap();
            b.attach(a, cluster, p).unwrap();
            acc_idx += 1;
        }
    }
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

/// A tree mixing wire and registered bridges: `root` ─wire─ `hub`
/// ─latency 3─ `edge`, and `root` ─latency 5─ `far` ─wire─ `far_leaf`,
/// with periodic readers of different gaps, a two-job DMA and a random
/// master spread over the levels.
pub fn build_mixed_tree(mode: SchedulerMode) -> SocTopology {
    let mut b = TopologyBuilder::new();
    let hc = |b: &mut TopologyBuilder, label: &str, ports: usize| {
        b.add_interconnect(label, observed_hc(ports)).unwrap()
    };
    let root = hc(&mut b, "root", 3);
    let hub = hc(&mut b, "hub", 2);
    let edge = hc(&mut b, "edge", 2);
    let far = hc(&mut b, "far", 2);
    let far_leaf = hc(&mut b, "far_leaf", 1);
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    b.cascade(hub, root, 0).unwrap();
    b.cascade_with(edge, hub, 0, BridgeConfig::wire().latency(3))
        .unwrap();
    b.cascade_with(far, root, 1, BridgeConfig::wire().latency(5))
        .unwrap();
    b.cascade(far_leaf, far, 0).unwrap();
    let reader = |name: &str, base: u64, gap: u64| -> Box<dyn Accelerator> {
        Box::new(PeriodicReader::new(
            name,
            base,
            1 << 20,
            16,
            BurstSize::B16,
            gap,
        ))
    };
    let placements: [(&str, Box<dyn Accelerator>, _, usize); 6] = [
        (
            "rnd",
            Box::new(RandomTraffic::new(
                "rnd",
                0x1000_0000,
                1 << 20,
                BurstSize::B16,
                32,
                900,
                5,
            )),
            root,
            2,
        ),
        ("hub_per", reader("hub_per", 0x2000_0000, 700), hub, 1),
        ("edge_per", reader("edge_per", 0x3000_0000, 2_500), edge, 0),
        (
            "edge_dma",
            Box::new(Dma::new(
                "edge_dma",
                DmaConfig {
                    src_base: 0x4000_0000,
                    dst_base: 0x4800_0000,
                    ..DmaConfig::reader(8192, 16, BurstSize::B16).jobs(2)
                },
            )),
            edge,
            1,
        ),
        ("far_per", reader("far_per", 0x5000_0000, 1_900), far, 1),
        (
            "leaf_per",
            reader("leaf_per", 0x6000_0000, 3_100),
            far_leaf,
            0,
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

/// A root with a periodic victim and two clusters behind latency-4
/// bridges: `faulty` carries the protocol-fault masters (a W-last
/// violator, a stalled writer that arms late, a rogue reader and a
/// runaway master) beside a periodic reader; `calm` carries two sparse
/// readers and sleeps between their bursts.
pub fn build_fault_tree(mode: SchedulerMode) -> SocTopology {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_monitor();
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", observed_hc(3)).unwrap();
    let faulty = b.add_interconnect("faulty", observed_hc(5)).unwrap();
    let calm = b.add_interconnect("calm", observed_hc(2)).unwrap();
    let mem = b.add_memory("ddr", memory).unwrap();
    b.connect_memory(root, mem).unwrap();
    b.cascade_with(faulty, root, 0, BridgeConfig::wire().latency(4))
        .unwrap();
    b.cascade_with(calm, root, 1, BridgeConfig::wire().latency(4))
        .unwrap();
    let placements: [(&str, Box<dyn Accelerator>, _, usize); 8] = [
        (
            "wlast",
            Box::new(WlastViolator::new("wlast", 0x1000_0000, 8, BurstSize::B16)),
            faulty,
            0,
        ),
        (
            "stall",
            Box::new(DelayedFault::new(
                Box::new(StalledWriter::new("stall", 0x2000_0000, 8, BurstSize::B16)),
                6_000,
            )),
            faulty,
            1,
        ),
        (
            "rogue",
            Box::new(ha::fault::RogueReader::new(
                "rogue",
                0xF000_0000,
                4,
                BurstSize::B4,
            )),
            faulty,
            2,
        ),
        (
            "runaway",
            Box::new(ha::fault::RunawayMaster::new(
                "runaway",
                0x3000_0000,
                1 << 16,
                8,
                BurstSize::B16,
            )),
            faulty,
            3,
        ),
        (
            "faulty_per",
            Box::new(PeriodicReader::new(
                "faulty_per",
                0x4000_0000,
                1 << 20,
                16,
                BurstSize::B16,
                400,
            )),
            faulty,
            4,
        ),
        (
            "calm_a",
            Box::new(PeriodicReader::new(
                "calm_a",
                0x5000_0000,
                1 << 20,
                16,
                BurstSize::B16,
                3_000,
            )),
            calm,
            0,
        ),
        (
            "calm_b",
            Box::new(PeriodicReader::new(
                "calm_b",
                0x6000_0000,
                1 << 20,
                16,
                BurstSize::B16,
                4_700,
            )),
            calm,
            1,
        ),
        (
            "victim",
            Box::new(PeriodicReader::new(
                "victim",
                0x7000_0000,
                1 << 20,
                16,
                BurstSize::B16,
                150,
            )),
            root,
            2,
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

/// Finite DMA jobs of different lengths across a 3-level tree
/// (`root` ─latency 2─ `c0`, `root` ─latency 8─ `c1` ─wire─ `c2`), so
/// clusters finish at different cycles and sleep while others stream.
pub fn build_dma_tree(mode: SchedulerMode) -> SocTopology {
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", observed_hc(3)).unwrap();
    let c0 = b.add_interconnect("c0", observed_hc(2)).unwrap();
    let c1 = b.add_interconnect("c1", observed_hc(2)).unwrap();
    let c2 = b.add_interconnect("c2", observed_hc(1)).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    b.cascade_with(c0, root, 0, BridgeConfig::wire().latency(2))
        .unwrap();
    b.cascade_with(c1, root, 1, BridgeConfig::wire().latency(8))
        .unwrap();
    b.cascade(c2, c1, 0).unwrap();
    let dma = |name: &str, base: u64, bytes: u64, jobs: u64| -> Box<dyn Accelerator> {
        Box::new(Dma::new(
            name,
            DmaConfig {
                src_base: base,
                dst_base: base + 0x0080_0000,
                ..DmaConfig::reader(bytes, 16, BurstSize::B16).jobs(jobs)
            },
        ))
    };
    let placements: [(&str, Box<dyn Accelerator>, _, usize); 5] = [
        ("d0", dma("d0", 0x1000_0000, 2048, 1), c0, 0),
        ("d1", dma("d1", 0x2000_0000, 64 * 1024, 2), c0, 1),
        ("d2", dma("d2", 0x3000_0000, 4096, 3), c1, 1),
        ("d3", dma("d3", 0x4000_0000, 32 * 1024, 1), c2, 0),
        ("d4", dma("d4", 0x5000_0000, 1024, 1), root, 2),
    ];
    for (name, acc, node, port) in placements {
        let a = b.add_accelerator(name, acc).unwrap();
        b.attach(a, node, port).unwrap();
    }
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

/// A root whose reservation is armed (a finite budget on its sparse
/// periodic reader's port, so it ticks on every period boundary even
/// when idle) and a `sleeper` cluster behind a latency-4 bridge whose
/// single reader bursts once and then sleeps: the sleeper's unarmed
/// HyperConnect counts period boundaries only when it next ticks.
pub fn build_sleeper_tree(mode: SchedulerMode) -> SocTopology {
    let root_hc = observed_hc(2);
    let mut bus = axi::lite::LiteBus::new();
    bus.map(0xA000_0000, 0x1000, root_hc.regs().clone());
    let drv = HcDriver::probe(&bus, 0xA000_0000).expect("HyperConnect regfile");
    drv.set_budget(1, 1_000).expect("budget register");
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", root_hc).unwrap();
    let sleeper = b.add_interconnect("sleeper", observed_hc(1)).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    b.cascade_with(sleeper, root, 0, BridgeConfig::wire().latency(4))
        .unwrap();
    for (name, gap, ic, port) in [("sleepy", 1 << 40, sleeper, 0), ("pulse", 20_000, root, 1)] {
        let a = b
            .add_accelerator(
                name,
                Box::new(PeriodicReader::new(
                    name,
                    0x1000_0000 + port as u64 * 0x0100_0000,
                    1 << 20,
                    16,
                    BurstSize::B16,
                    gap,
                )),
            )
            .unwrap();
        b.attach(a, ic, port).unwrap();
    }
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}
