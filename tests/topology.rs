//! Acceptance tests for the topology graph layer: deep cascades stay
//! byte-identical between naive and fast-forward scheduling, metrics
//! namespace per interconnect instance, the hypervisor watchdog
//! decouples faults at any tree level, and the builder rejects every
//! misconfiguration with a typed error.

use axi::types::{BurstSize, PortId};
use axi::AxiInterconnect;
use axi_hyperconnect::{SchedulerMode, SocSystem, TopologyBuilder, TopologyError};
use ha::dma::{Dma, DmaConfig};
use ha::fault::WlastViolator;
use ha::traffic::PeriodicReader;
use ha::Accelerator;
use hyperconnect::{HcConfig, HyperConnect};
use mem::{MemConfig, MemoryController};
use smartconnect::{ScConfig, SmartConnect};

fn copy_dma(i: u64) -> Box<dyn Accelerator> {
    Box::new(Dma::new(
        format!("dma{i}"),
        DmaConfig {
            src_base: 0x1000_0000 + i * 0x0100_0000,
            dst_base: 0x5000_0000 + i * 0x0100_0000,
            read_bytes: 8 * 1024,
            write_bytes: 8 * 1024,
            burst_beats: 32,
            size: BurstSize::B16,
            max_outstanding: 4,
            jobs: Some(1),
        },
    ))
}

/// A 3-level HC → HC → HC chain with two DMAs at the deepest level and
/// one DMA at each intermediate level.
fn build_three_level_cascade(mode: SchedulerMode) -> axi_hyperconnect::SocTopology {
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
    b.cascade(mid, root, 0).unwrap();
    b.cascade(leaf, mid, 0).unwrap();
    b.connect_memory(root, mem).unwrap();
    for (i, (ic, port)) in [(leaf, 0), (leaf, 1), (mid, 1), (root, 1)]
        .into_iter()
        .enumerate()
    {
        let d = b
            .add_accelerator(format!("d{i}"), copy_dma(i as u64))
            .unwrap();
        b.attach(d, ic, port).unwrap();
    }
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

#[test]
fn three_level_cascade_is_identical_under_both_schedulers() {
    let mut naive = build_three_level_cascade(SchedulerMode::Naive);
    let mut fast = build_three_level_cascade(SchedulerMode::FastForward);
    let out_naive = naive.run_until_done(10_000_000);
    let out_fast = fast.run_until_done(10_000_000);
    assert!(out_naive.is_done(), "{out_naive}");
    assert_eq!(out_naive, out_fast, "fast-forward diverged from naive");
    assert_eq!(naive.now(), fast.now());
    assert!(fast.skipped_cycles() > 0, "nothing was fast-forwarded");
    assert_eq!(naive.skipped_cycles(), 0);
    // Same observable state on every hop: per-port stats of each level
    // and the bridge beat counters.
    for label in ["root", "mid", "leaf"] {
        let id_n = naive.node_by_label(label).unwrap();
        let id_f = fast.node_by_label(label).unwrap();
        let hc_n = naive.interconnect_as::<HyperConnect>(id_n).unwrap();
        let hc_f = fast.interconnect_as::<HyperConnect>(id_f).unwrap();
        for p in 0..2 {
            assert_eq!(
                hc_n.port_stats(p).subs_issued,
                hc_f.port_stats(p).subs_issued,
                "{label} port {p} diverged"
            );
        }
    }
    for label in ["mid", "leaf"] {
        let id_n = naive.node_by_label(label).unwrap();
        let id_f = fast.node_by_label(label).unwrap();
        let s_n = naive.bridge_stats(id_n).unwrap();
        let s_f = fast.bridge_stats(id_f).unwrap();
        assert_eq!(
            (s_n.beats_down, s_n.beats_up),
            (s_f.beats_down, s_f.beats_up)
        );
        assert!(s_n.beats_down > 0);
    }
    // Data integrity through three levels.
    let mem_id = naive.node_by_label("ddr").unwrap();
    let memory = naive.memory(mem_id).unwrap();
    for i in 0..4u64 {
        let dst = 0x5000_0000 + i * 0x0100_0000;
        assert!(
            memory.memory().verify_pattern(dst, dst, 8 * 1024),
            "dma{i} corrupted through the cascade"
        );
    }
}

fn build_hc_under_smartconnect(mode: SchedulerMode) -> axi_hyperconnect::SocTopology {
    let mut b = TopologyBuilder::new();
    let root = b
        .add_interconnect("sc_root", SmartConnect::new(ScConfig::new(2)))
        .unwrap();
    let leaf = b
        .add_interconnect("hc_leaf", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.cascade(leaf, root, 0).unwrap();
    b.connect_memory(root, mem).unwrap();
    for (i, (ic, port)) in [(leaf, 0), (leaf, 1), (root, 1)].into_iter().enumerate() {
        let d = b
            .add_accelerator(format!("d{i}"), copy_dma(i as u64))
            .unwrap();
        b.attach(d, ic, port).unwrap();
    }
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

#[test]
fn hyperconnect_under_smartconnect_is_identical_under_both_schedulers() {
    let mut naive = build_hc_under_smartconnect(SchedulerMode::Naive);
    let mut fast = build_hc_under_smartconnect(SchedulerMode::FastForward);
    let out_naive = naive.run_until_done(10_000_000);
    let out_fast = fast.run_until_done(10_000_000);
    assert!(out_naive.is_done(), "{out_naive}");
    assert_eq!(out_naive, out_fast, "fast-forward diverged from naive");
    assert!(fast.skipped_cycles() > 0);
    for i in 0..3 {
        assert_eq!(
            naive.accelerator(i).unwrap().jobs_completed(),
            fast.accelerator(i).unwrap().jobs_completed()
        );
    }
    let mem_id = naive.node_by_label("ddr").unwrap();
    let memory = naive.memory(mem_id).unwrap();
    for i in 0..3u64 {
        let dst = 0x5000_0000 + i * 0x0100_0000;
        assert!(memory.memory().verify_pattern(dst, dst, 8 * 1024));
    }
}

#[test]
fn metrics_are_namespaced_per_interconnect_instance() {
    let mut b = TopologyBuilder::new();
    let mut root_hc = HyperConnect::new(HcConfig::new(2));
    let mut leaf_hc = HyperConnect::new(HcConfig::new(2));
    root_hc.enable_metrics();
    leaf_hc.enable_metrics();
    let root = b.add_interconnect("tree_root", root_hc).unwrap();
    let leaf = b.add_interconnect("tree_leaf", leaf_hc).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.cascade(leaf, root, 0).unwrap();
    b.connect_memory(root, mem).unwrap();
    let d0 = b.add_accelerator("d0", copy_dma(0)).unwrap();
    let d1 = b.add_accelerator("d1", copy_dma(1)).unwrap();
    b.attach(d0, leaf, 0).unwrap();
    b.attach(d1, root, 1).unwrap();
    let mut topo = b.build().unwrap();
    assert!(topo.run_until_done(10_000_000).is_done());

    // Each instance's registry is stamped with its node label.
    for (id, label) in [(root, "tree_root"), (leaf, "tree_leaf")] {
        let hc = topo.interconnect_as::<HyperConnect>(id).unwrap();
        let metrics = hc.metrics().expect("metrics enabled");
        assert_eq!(metrics.instance(), label);
    }
    // The tree snapshot keys every section on node labels, so the two
    // HyperConnects don't collide.
    let json = topo.metrics_snapshot_json();
    assert!(json.contains("\"schema\":\"axi-hyperconnect/topology-metrics/v1\""));
    assert!(json.contains("\"node\":\"tree_root\""));
    assert!(json.contains("\"node\":\"tree_leaf\""));
    assert!(json.contains("\"node\":\"ddr\""));
    assert_eq!(json.matches("\"model\":\"HyperConnect\"").count(), 2);
    // The leaf appears in the bridge section with real traffic counted.
    assert!(json.contains("\"beats_down\""));
    let stats = topo.bridge_stats(leaf).unwrap();
    assert!(stats.beats_down > 0 && stats.beats_up > 0);
}

#[test]
fn watchdog_decouples_a_faulty_accelerator_on_a_leaf() {
    use axi::lite::LiteBus;
    use hypervisor::{Hypervisor, WatchdogPolicy};

    const LEAF_BASE: u64 = 0xA000_0000;
    const PERIOD: u32 = 2_000;

    let leaf_hc = HyperConnect::new(HcConfig::new(2));
    let mut bus = LiteBus::new();
    bus.map(LEAF_BASE, 0x1000, leaf_hc.regs().clone());
    let mut hv = Hypervisor::new(bus, LEAF_BASE).unwrap();
    hv.hc().set_period(PERIOD).unwrap();
    hv.set_watchdog_policy(
        PortId(1),
        WatchdogPolicy {
            violations_allowed: 0,
            outstanding_allowed: None,
            stall_polls_allowed: None,
        },
    );

    let mut b = TopologyBuilder::new();
    let root = b
        .add_interconnect("root", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let leaf = b.add_interconnect("leaf", leaf_hc).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.cascade(leaf, root, 0).unwrap();
    b.connect_memory(root, mem).unwrap();
    let victim_leaf = b
        .add_accelerator(
            "victim_leaf",
            Box::new(PeriodicReader::new(
                "victim_leaf",
                0x1000_0000,
                1 << 20,
                16,
                BurstSize::B16,
                40,
            )),
        )
        .unwrap();
    let faulty = b
        .add_accelerator(
            "faulty",
            Box::new(WlastViolator::new(
                "faulty",
                0x2000_0000,
                16,
                BurstSize::B16,
            )),
        )
        .unwrap();
    let victim_root = b
        .add_accelerator(
            "victim_root",
            Box::new(PeriodicReader::new(
                "victim_root",
                0x3000_0000,
                1 << 20,
                16,
                BurstSize::B16,
                40,
            )),
        )
        .unwrap();
    b.attach(victim_leaf, leaf, 0).unwrap();
    b.attach(faulty, leaf, 1).unwrap();
    b.attach(victim_root, root, 1).unwrap();
    let mut topo = b.build().unwrap();

    // The hypervisor polls the *leaf's* watchdog registers while the
    // whole tree runs.
    let mut decoupled_at = None;
    topo.run_polled(40_000, 100, |now, _topo| {
        let events = hv.poll_watchdog().unwrap();
        if decoupled_at.is_none() && !events.is_empty() {
            decoupled_at = Some(now);
        }
    });
    assert!(decoupled_at.is_some(), "watchdog never fired on the leaf");
    assert!(hv.hc().is_decoupled(1).unwrap());
    assert!(!hv.hc().is_decoupled(0).unwrap());

    // The leaf reported the violation; both victims keep working after
    // the fault is fenced off.
    let leaf_hc = topo.interconnect_as::<HyperConnect>(leaf).unwrap();
    assert!(!leaf_hc.violations(1).is_empty());
    assert_eq!(leaf_hc.total_violations(0), 0);
    let before = (
        topo.accelerator(0).unwrap().jobs_completed(),
        topo.accelerator(2).unwrap().jobs_completed(),
    );
    topo.run_for(40_000);
    assert!(topo.accelerator(0).unwrap().jobs_completed() > before.0);
    assert!(topo.accelerator(2).unwrap().jobs_completed() > before.1);
}

#[test]
fn stall_diagnostics_name_the_quiet_tree() {
    let mut b = TopologyBuilder::new();
    let root = b
        .add_interconnect("root", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    let d = b.add_accelerator("d0", copy_dma(0)).unwrap();
    b.attach(d, root, 0).unwrap();
    b.connect_memory(root, mem).unwrap();
    let mut topo = b.build().unwrap();
    assert!(topo.run_until_done(10_000_000).is_done());

    // With every job finished nothing can ever progress again; the
    // attribution names the component(s) that moved last, and quiet
    // cycles after the drain leave it unchanged.
    let last_active = topo.last_active();
    assert!(
        !last_active.is_empty(),
        "stall attribution lost the active set"
    );
    // The last movement in a drained run is the response path: memory
    // and/or the interconnect above it.
    for name in &last_active {
        assert!(
            ["root", "ddr", "d0"].contains(&name.as_str()),
            "unknown component {name:?} in stall diagnostics"
        );
    }
    topo.run_for(1_000);
    assert_eq!(topo.last_active(), last_active);
}

#[test]
fn facade_matches_raw_topology_cycle_for_cycle() {
    // The flat SocSystem facade and a hand-built single-interconnect
    // topology must be the same machine.
    let mut sys = SocSystem::new(
        HyperConnect::new(HcConfig::new(2)),
        MemoryController::new(MemConfig::zcu102()),
    );
    sys.add_accelerator(copy_dma(0)).unwrap();
    sys.add_accelerator(copy_dma(1)).unwrap();
    let out_sys = sys.run_until_done(10_000_000);

    let mut b = TopologyBuilder::new();
    let ic = b
        .add_interconnect("hc", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.connect_memory(ic, mem).unwrap();
    let d0 = b.add_accelerator("d0", copy_dma(0)).unwrap();
    let d1 = b.add_accelerator("d1", copy_dma(1)).unwrap();
    b.attach(d0, ic, 0).unwrap();
    b.attach(d1, ic, 1).unwrap();
    let mut topo = b.build().unwrap();
    let out_topo = topo.run_until_done(10_000_000);

    assert!(out_sys.is_done());
    assert_eq!(out_sys, out_topo);
    assert_eq!(sys.now(), topo.now());
    assert_eq!(sys.skipped_cycles(), topo.skipped_cycles());
}

#[test]
fn builder_rejects_kind_mismatches_and_foreign_handles() {
    let mut b = TopologyBuilder::new();
    let ic = b
        .add_interconnect("hc", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::ideal()))
        .unwrap();
    let acc = b.add_accelerator("d", copy_dma(0)).unwrap();
    // Wrong kinds in every slot.
    assert!(matches!(
        b.attach(mem, ic, 0).unwrap_err(),
        TopologyError::KindMismatch { .. }
    ));
    assert!(matches!(
        b.attach(acc, mem, 0).unwrap_err(),
        TopologyError::KindMismatch { .. }
    ));
    assert!(matches!(
        b.connect_memory(ic, acc).unwrap_err(),
        TopologyError::KindMismatch { .. }
    ));
    assert!(matches!(
        b.cascade(acc, ic, 0).unwrap_err(),
        TopologyError::KindMismatch { .. }
    ));
    // A handle from a different (larger) builder is rejected, not
    // misinterpreted.
    let mut other = TopologyBuilder::new();
    other
        .add_interconnect("a", HyperConnect::new(HcConfig::new(1)))
        .unwrap();
    other
        .add_interconnect("b", HyperConnect::new(HcConfig::new(1)))
        .unwrap();
    other
        .add_interconnect("c", HyperConnect::new(HcConfig::new(1)))
        .unwrap();
    let foreign = other
        .add_interconnect("dd", HyperConnect::new(HcConfig::new(1)))
        .unwrap();
    assert!(matches!(
        b.attach(acc, foreign, 0).unwrap_err(),
        TopologyError::UnknownNode { .. }
    ));
}

#[test]
fn builder_rejects_double_driven_memory() {
    let mut b = TopologyBuilder::new();
    let ic0 = b
        .add_interconnect("hc0", HyperConnect::new(HcConfig::new(1)))
        .unwrap();
    let ic1 = b
        .add_interconnect("hc1", HyperConnect::new(HcConfig::new(1)))
        .unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::ideal()))
        .unwrap();
    b.connect_memory(ic0, mem).unwrap();
    assert_eq!(
        b.connect_memory(ic1, mem).unwrap_err(),
        TopologyError::MemoryAlreadyBound {
            label: "ddr".to_owned()
        }
    );
}

#[test]
fn two_root_forest_with_independent_memories() {
    // Two PS ports: each root interconnect drives its own memory
    // controller; both subtrees complete independently.
    let mut b = TopologyBuilder::new();
    let hc0 = b
        .add_interconnect("hc0", HyperConnect::new(HcConfig::new(1)))
        .unwrap();
    let hc1 = b
        .add_interconnect("hc1", HyperConnect::new(HcConfig::new(1)))
        .unwrap();
    let mem0 = b
        .add_memory("ddr0", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    let mem1 = b
        .add_memory("ddr1", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.connect_memory(hc0, mem0).unwrap();
    b.connect_memory(hc1, mem1).unwrap();
    let d0 = b.add_accelerator("d0", copy_dma(0)).unwrap();
    let d1 = b.add_accelerator("d1", copy_dma(1)).unwrap();
    b.attach(d0, hc0, 0).unwrap();
    b.attach(d1, hc1, 0).unwrap();
    let mut topo = b.build().unwrap();
    assert!(topo.run_until_done(10_000_000).is_done());
    for (label, i) in [("ddr0", 0u64), ("ddr1", 1)] {
        let id = topo.node_by_label(label).unwrap();
        let dst = 0x5000_0000 + i * 0x0100_0000;
        assert!(topo
            .memory(id)
            .unwrap()
            .memory()
            .verify_pattern(dst, dst, 8 * 1024));
    }
}

#[test]
fn topology_exports_an_integration_design() {
    let mut b = TopologyBuilder::new();
    let root = b
        .add_interconnect("root", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let leaf = b
        .add_interconnect("leaf", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::ideal()))
        .unwrap();
    b.cascade(leaf, root, 0).unwrap();
    b.connect_memory(root, mem).unwrap();
    let d0 = b.add_accelerator("d0", copy_dma(0)).unwrap();
    b.attach(d0, leaf, 0).unwrap();
    let topo = b.build().unwrap();

    let design = topo.export_design();
    let conns: Vec<String> = design
        .connections
        .iter()
        .map(|c| format!("{} -> {}", c.from, c.to))
        .collect();
    assert!(conns.contains(&"leaf.M00_AXI -> root.S00_AXI".to_string()));
    assert!(conns.contains(&"d0.M_AXI -> leaf.S00_AXI".to_string()));
    assert!(conns.contains(&"root.M00_AXI -> ps.ddr".to_string()));
    assert!(conns.contains(&"ps.M_AXI_HPM0 -> leaf.S_AXI_CTRL".to_string()));
    assert_eq!(design.instances.len(), 3);
}
