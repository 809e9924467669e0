//! Scheduler-equivalence suite: the event-horizon fast-forward
//! scheduler must be *observationally identical* to naive per-cycle
//! stepping. Every scenario here runs twice with the same seeds — once
//! under `SchedulerMode::Naive`, once under `SchedulerMode::FastForward`
//! — and the two runs must produce byte-identical fingerprints: cycle
//! counts, per-master completions, memory-side service counters,
//! protocol-monitor tallies and structured violation logs.
//!
//! The suite also re-pins the Fig. 3(a) channel-latency goldens (the
//! paper's d_AR = d_AW = 4, d_R = d_W = d_B = 2 for the HyperConnect),
//! so a scheduler or component-hint change that warps timing is caught
//! at the source, and asserts that fast-forward actually skips cycles
//! on idle-heavy workloads (the optimization is live, not vacuous).
//!
//! The tree family pins the wake calendar, where every node and bridge
//! sleeps until its own wake or a neighbour's touch on its ports:
//! topologies whose clusters sleep while others stay busy, compared
//! against naive stepping on clock, IRQ order, stall attribution, bridge
//! counters, the per-instance metrics snapshot and the full persisted
//! image.

mod scenarios;

use axi::beat::{ArBeat, AwBeat, BBeat, RBeat, WBeat};
use axi::lite::LiteBus;
use axi::types::{AxiId, BurstSize, PortId};
use axi::{AxiInterconnect, BridgeConfig};
use axi_hyperconnect::{SchedulerMode, SocSystem, SocTopology, TopologyBuilder};
use ha::chaidnn::{Chaidnn, ChaidnnConfig, Layer};
use ha::dma::{Dma, DmaConfig};
use ha::fault::WlastViolator;
use ha::traffic::{BandwidthStealer, PeriodicReader, RandomTraffic};
use ha::Accelerator;
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::{HcDriver, Hypervisor, WatchdogPolicy};
use mem::{MemConfig, MemoryController};
use sim::{Component, Cycle};
use smartconnect::{ScConfig, SmartConnect};

/// A byte-exact fingerprint of everything observable after a run.
/// Debug-formats the violation log so even diagnostic strings and
/// cycle stamps must match between schedulers.
fn fingerprint<I: AxiInterconnect>(sys: &SocSystem<I>, violations: &str) -> String {
    let stats = sys.memory().stats();
    let mut fp = format!("now={}", sys.now());
    for i in 0..sys.num_accelerators() {
        fp.push_str(&format!(
            " {}={}",
            sys.accelerator(i).unwrap().name(),
            sys.accelerator(i).unwrap().jobs_completed()
        ));
    }
    fp.push_str(&format!(
        " mem=[{} {} {} {} {} {}]",
        stats.reads_served,
        stats.writes_served,
        stats.beats_served,
        stats.bytes_served,
        stats.busy_cycles,
        stats.error_responses,
    ));
    if let Some(monitor) = sys.memory().monitor() {
        fp.push_str(&format!(
            " mon=[{} {} {}]",
            monitor.reads_completed(),
            monitor.writes_completed(),
            monitor.errors().len(),
        ));
    }
    fp.push_str(" violations=");
    fp.push_str(violations);
    fp
}

fn num_hc(ports: usize) -> HyperConnect {
    HyperConnect::new(HcConfig::new(ports))
}

/// The four-master soak scenario from `tests/stress.rs`, parameterized
/// by scheduler mode.
fn stress<I: AxiInterconnect>(interconnect: I, mode: SchedulerMode, cycles: u64) -> SocSystem<I> {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_monitor();
    let mut sys = SocSystem::new(interconnect, memory);
    sys.set_scheduler(mode);
    populate(&mut sys);
    sys.run_for(cycles);
    sys
}

/// The four-master accelerator mix of the soak scenario.
fn soak_masters() -> [Box<dyn Accelerator>; 4] {
    [
        Box::new(RandomTraffic::new(
            "rnd0",
            0x1000_0000,
            1 << 20,
            BurstSize::B16,
            64,
            10,
            11,
        )),
        Box::new(BandwidthStealer::new(
            "steal",
            0x3000_0000,
            1 << 20,
            256,
            BurstSize::B16,
        )),
        Box::new(PeriodicReader::new(
            "periodic",
            0x5000_0000,
            1 << 20,
            16,
            BurstSize::B16,
            100,
        )),
        Box::new(RandomTraffic::new(
            "rnd1",
            0x7000_0000,
            1 << 20,
            BurstSize::B4,
            32,
            50,
            23,
        )),
    ]
}

/// Adds the soak masters to a flat system.
fn populate<I: AxiInterconnect>(sys: &mut SocSystem<I>) {
    for acc in soak_masters() {
        sys.add_accelerator(acc).unwrap();
    }
}

/// The soak masters in a `cluster` behind a latency-2 bridge, with a
/// random master and a periodic reader flat on the root.
fn build_stress_tree(mode: SchedulerMode) -> SocTopology {
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", num_hc(3)).unwrap();
    let cluster = b.add_interconnect("cluster", num_hc(4)).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.cascade_with(cluster, root, 0, BridgeConfig::wire().latency(2))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    for (i, acc) in soak_masters().into_iter().enumerate() {
        let a = b.add_accelerator(format!("c{i}"), acc).unwrap();
        b.attach(a, cluster, i).unwrap();
    }
    let root_masters: [Box<dyn Accelerator>; 2] = [
        Box::new(RandomTraffic::new(
            "root_rnd",
            0x9000_0000,
            1 << 20,
            BurstSize::B16,
            48,
            30,
            47,
        )),
        Box::new(PeriodicReader::new(
            "root_per",
            0xB000_0000,
            1 << 20,
            16,
            BurstSize::B16,
            250,
        )),
    ];
    for (port, acc) in (1..).zip(root_masters) {
        let a = b.add_accelerator(acc.name().to_string(), acc).unwrap();
        b.attach(a, root, port).unwrap();
    }
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

#[test]
fn stress_suite_fingerprints_identical() {
    const CYCLES: u64 = 300_000;
    let naive = stress(
        HyperConnect::new(HcConfig::new(4)),
        SchedulerMode::Naive,
        CYCLES,
    );
    let fast = stress(
        HyperConnect::new(HcConfig::new(4)),
        SchedulerMode::FastForward,
        CYCLES,
    );
    let hc_violations = |sys: &SocSystem<HyperConnect>| {
        format!(
            "{:?}",
            (0..4)
                .map(|i| sys.interconnect_ref().violations(i))
                .collect::<Vec<_>>()
        )
    };
    assert_eq!(
        fingerprint(&naive, &hc_violations(&naive)),
        fingerprint(&fast, &hc_violations(&fast)),
        "HyperConnect stress run diverged between schedulers"
    );

    let naive = stress(
        SmartConnect::new(ScConfig::new(4)),
        SchedulerMode::Naive,
        CYCLES,
    );
    let fast = stress(
        SmartConnect::new(ScConfig::new(4)),
        SchedulerMode::FastForward,
        CYCLES,
    );
    assert_eq!(
        fingerprint(&naive, "[]"),
        fingerprint(&fast, "[]"),
        "SmartConnect stress run diverged between schedulers"
    );

    assert_tree_equivalent("stress-tree", build_stress_tree, &["cluster"], |topo| {
        topo.run_for(120_000);
        String::new()
    });
}

/// The observability layer is part of the equivalence contract: every
/// latency sample, histogram bucket, bandwidth count, occupancy gauge
/// and bound-monitor verdict is recorded at event sites inside `tick`,
/// so the full metrics snapshot must be *byte-identical* between naive
/// stepping and fast-forward — a skipped cycle that would have produced
/// (or suppressed) a sample shows up here as a JSON diff.
#[test]
fn metrics_snapshot_byte_identical_across_schedulers() {
    const CYCLES: u64 = 300_000;
    let run = |mode: SchedulerMode| {
        let mut memory = MemoryController::new(MemConfig::zcu102());
        memory.attach_monitor();
        let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(4)), memory);
        sys.set_scheduler(mode);
        sys.enable_observability();
        // Sparse traffic with long idle gaps: the fast path must skip
        // real spans *and* still record identical metrics.
        sys.add_accelerator(Box::new(RandomTraffic::new(
            "sparse0",
            0x1000_0000,
            1 << 20,
            BurstSize::B16,
            64,
            300,
            11,
        )))
        .unwrap();
        sys.add_accelerator(Box::new(RandomTraffic::new(
            "sparse1",
            0x3000_0000,
            1 << 20,
            BurstSize::B16,
            32,
            500,
            23,
        )))
        .unwrap();
        sys.add_accelerator(Box::new(PeriodicReader::new(
            "periodic",
            0x5000_0000,
            1 << 20,
            16,
            BurstSize::B16,
            1_000,
        )))
        .unwrap();
        sys.add_accelerator(Box::new(RandomTraffic::new(
            "sparse2",
            0x7000_0000,
            1 << 20,
            BurstSize::B4,
            32,
            400,
            47,
        )))
        .unwrap();
        sys.run_for(CYCLES);
        sys
    };
    let naive = run(SchedulerMode::Naive);
    let fast = run(SchedulerMode::FastForward);
    let naive_json = naive.metrics_snapshot_json().expect("metrics armed");
    let fast_json = fast.metrics_snapshot_json().expect("metrics armed");
    assert!(
        fast.skipped_cycles() > 0,
        "fast-forward never skipped — the comparison is vacuous"
    );
    assert_eq!(
        naive_json, fast_json,
        "metrics snapshot diverged between schedulers"
    );
    // The snapshot carried real content, and a clean bound verdict.
    assert!(naive_json.contains("\"read_txns\":{\"count\":"));
    let report = naive.interconnect_ref().bound_report().unwrap();
    assert!(report.checked_reads > 0, "{report:?}");
    assert_eq!(report.violations, 0, "{report:?}");
}

/// The fault-injection scenario from `tests/fault_injection.rs`: a
/// WLAST-corrupting writer between two periodic victims, with the
/// hypervisor watchdog polling every 100 cycles through a `run_polled`
/// hook. The violation log, the decoupling cycle and the hook cadence
/// (one call per poll cycle) must all be identical under both
/// schedulers.
fn fault_run(mode: SchedulerMode) -> (String, Option<Cycle>, u64) {
    const HC_BASE: u64 = 0xA000_0000;
    let hc = HyperConnect::new(HcConfig::new(3));
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let mut hv = Hypervisor::new(bus, HC_BASE).unwrap();
    hv.hc().set_period(2_000).unwrap();
    hv.set_watchdog_policy(
        PortId(1),
        WatchdogPolicy {
            violations_allowed: 0,
            outstanding_allowed: None,
            stall_polls_allowed: None,
        },
    );

    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
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

    let mut decoupled_at: Option<Cycle> = None;
    let mut hook_calls = 0u64;
    sys.run_polled(40_000, 100, |now, _sys| {
        hook_calls += 1;
        let events = hv.poll_watchdog().unwrap();
        if decoupled_at.is_none() && !events.is_empty() {
            decoupled_at = Some(now);
        }
    });

    let violations = format!(
        "{:?}",
        (0..3)
            .map(|i| sys.interconnect_ref().violations(i))
            .collect::<Vec<_>>()
    );
    (fingerprint(&sys, &violations), decoupled_at, hook_calls)
}

#[test]
fn fault_suite_violation_logs_byte_identical() {
    let (fp_naive, decoupled_naive, hooks_naive) = fault_run(SchedulerMode::Naive);
    let (fp_fast, decoupled_fast, hooks_fast) = fault_run(SchedulerMode::FastForward);
    assert_eq!(fp_naive, fp_fast, "fault run diverged between schedulers");
    assert_eq!(decoupled_naive, decoupled_fast, "decoupling cycle moved");
    // One hook call per poll cycle, even where fast-forward skips.
    assert_eq!(hooks_naive, 400);
    assert_eq!(hooks_fast, 400);
    // Sanity: the scenario actually reported the fault.
    assert!(fp_naive.contains("WlastMismatch"), "{fp_naive}");
    assert!(decoupled_naive.is_some(), "watchdog never fired");
}

/// Compute-heavy DNN frames: long bus-idle stretches that the
/// fast-forward scheduler must skip without moving the completion
/// cycle of `run_until_done` by even one cycle.
fn chaidnn_run(mode: SchedulerMode) -> (SocSystem<HyperConnect>, Cycle, bool) {
    let mut sys = SocSystem::new(num_hc(1), MemoryController::new(MemConfig::zcu102()));
    sys.set_scheduler(mode);
    sys.add_accelerator(Box::new(two_frame_dnn())).unwrap();
    let outcome = sys.run_until_done(10_000_000);
    let done = outcome.is_done();
    let now = sys.now();
    (sys, now, done)
}

/// Two frames of two layers with 20k- and 35k-cycle compute phases.
fn two_frame_dnn() -> Chaidnn {
    let layers = vec![
        Layer {
            name: "conv1",
            weight_bytes: 4 << 10,
            input_bytes: 2 << 10,
            output_bytes: 2 << 10,
            compute_cycles: 20_000,
        },
        Layer {
            name: "fc",
            weight_bytes: 8 << 10,
            input_bytes: 1 << 10,
            output_bytes: 512,
            compute_cycles: 35_000,
        },
    ];
    Chaidnn::new(
        "dnn",
        layers,
        ChaidnnConfig {
            frames: Some(2),
            ..ChaidnnConfig::default()
        },
    )
}

/// The DNN alone in a `leaf` cluster behind a latency-4 bridge, beside
/// a three-job DMA on the root.
fn build_chaidnn_tree(mode: SchedulerMode) -> SocTopology {
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", num_hc(2)).unwrap();
    let leaf = b.add_interconnect("leaf", num_hc(1)).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.cascade_with(leaf, root, 0, BridgeConfig::wire().latency(4))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    let dnn = b.add_accelerator("dnn", Box::new(two_frame_dnn())).unwrap();
    b.attach(dnn, leaf, 0).unwrap();
    let dma = Dma::new(
        "root_dma",
        DmaConfig::reader(64 * 1024, 16, BurstSize::B16).jobs(3),
    );
    let d = b.add_accelerator("root_dma", Box::new(dma)).unwrap();
    b.attach(d, root, 1).unwrap();
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

#[test]
fn chaidnn_completion_cycle_exact_and_compute_skipped() {
    let (naive_sys, naive_now, naive_done) = chaidnn_run(SchedulerMode::Naive);
    let (fast_sys, fast_now, fast_done) = chaidnn_run(SchedulerMode::FastForward);
    assert!(naive_done && fast_done, "DNN did not finish");
    assert_eq!(naive_now, fast_now, "completion cycle moved");
    assert_eq!(fingerprint(&naive_sys, "[]"), fingerprint(&fast_sys, "[]"));
    assert_eq!(naive_sys.skipped_cycles(), 0);
    // Four compute phases of 20k/35k cycles each: the fast path must
    // have skipped the bulk of them.
    assert!(
        fast_sys.skipped_cycles() > 100_000,
        "fast-forward only skipped {} cycles",
        fast_sys.skipped_cycles()
    );
}

/// Idle-heavy periodic traffic: a short burst every 5 000 cycles. This
/// is the scenario class the optimization targets; equivalence must
/// hold *and* the skip counter must show the scheduler is live.
#[test]
fn idle_heavy_periodic_equivalence_with_skips() {
    let run = |mode: SchedulerMode| {
        let mut sys = SocSystem::new(
            HyperConnect::new(HcConfig::new(1)),
            MemoryController::new(MemConfig::zcu102()),
        );
        sys.set_scheduler(mode);
        sys.add_accelerator(Box::new(PeriodicReader::new(
            "sparse",
            0x1000_0000,
            1 << 20,
            16,
            BurstSize::B16,
            5_000,
        )))
        .unwrap();
        sys.run_for(1_000_000);
        sys
    };
    let naive = run(SchedulerMode::Naive);
    let fast = run(SchedulerMode::FastForward);
    assert_eq!(fingerprint(&naive, "[]"), fingerprint(&fast, "[]"));
    assert!(
        fast.skipped_cycles() > 500_000,
        "idle-heavy run only skipped {} of 1M cycles",
        fast.skipped_cycles()
    );
}

/// `run_until_done` must report the same completion cycle under both
/// schedulers for a plain DMA workload, and an attached waveform probe
/// must force cycle-exact stepping (no skips while sampling).
#[test]
fn run_until_done_and_waveform_disable_skipping() {
    let run = |mode: SchedulerMode, wave: bool| {
        let mut sys = SocSystem::new(
            HyperConnect::new(HcConfig::new(2)),
            MemoryController::new(MemConfig::zcu102()),
        );
        sys.set_scheduler(mode);
        if wave {
            sys.attach_waveform();
        }
        sys.add_accelerator(Box::new(Dma::new(
            "dma0",
            DmaConfig {
                jobs: Some(3),
                ..DmaConfig::reader(64 * 1024, 16, BurstSize::B16)
            },
        )))
        .unwrap();
        let outcome = sys.run_until_done(5_000_000);
        assert!(outcome.is_done());
        sys
    };
    let naive = run(SchedulerMode::Naive, false);
    let fast = run(SchedulerMode::FastForward, false);
    assert_eq!(naive.now(), fast.now(), "completion cycle moved");
    assert_eq!(fingerprint(&naive, "[]"), fingerprint(&fast, "[]"));

    let traced = run(SchedulerMode::FastForward, true);
    assert_eq!(traced.now(), naive.now());
    assert_eq!(
        traced.skipped_cycles(),
        0,
        "waveform capture must force naive stepping"
    );

    // On a tree the probe keeps every node awake: the VCD bytes match
    // naive stepping's.
    assert_tree_equivalent("waveform-tree", scenarios::build_fault_tree, &[], |topo| {
        let mem = topo.node_by_label("ddr").unwrap();
        topo.attach_waveform(mem);
        topo.run_for(20_000);
        assert_eq!(topo.skipped_cycles(), 0, "waveform capture skipped cycles");
        topo.waveform_vcd(mem).expect("probe attached")
    });
}

/// Re-pins the Fig. 3(a) channel-latency goldens at the source: the
/// HyperConnect's per-channel propagation latencies (paper, ZCU102:
/// d_AR = d_AW = 4 cycles, d_R = d_W = d_B = 2 cycles) measured with
/// the same beat-injection probes the bench harness uses. A component
/// `next_event` hint that warps pipeline timing shows up here.
#[test]
fn fig3a_channel_latency_goldens_hold() {
    const PROBE_LIMIT: Cycle = 200;
    fn tick_until(
        hc: &mut HyperConnect,
        start: Cycle,
        mut probe: impl FnMut(&mut HyperConnect, Cycle) -> bool,
    ) -> Cycle {
        for now in start..start + PROBE_LIMIT {
            hc.tick(now);
            if probe(hc, now) {
                return now;
            }
        }
        panic!("probe not observed within {PROBE_LIMIT} cycles");
    }

    // d_AR: inject at the slave port, observe at the master port.
    let mut hc = HyperConnect::new(HcConfig::new(2));
    hc.port(0)
        .ar
        .push(0, ArBeat::new(0x100, 1, BurstSize::B4))
        .unwrap();
    let d_ar = tick_until(&mut hc, 0, |hc, now| hc.mem_port().ar.has_ready(now));
    assert_eq!(d_ar, 4, "d_AR golden");

    // d_AW.
    let mut hc = HyperConnect::new(HcConfig::new(2));
    hc.port(0)
        .aw
        .push(0, AwBeat::new(0x100, 1, BurstSize::B4))
        .unwrap();
    let d_aw = tick_until(&mut hc, 0, |hc, now| hc.mem_port().aw.has_ready(now));
    assert_eq!(d_aw, 4, "d_AW golden");

    // d_R: establish routing with a read, then time a data beat.
    let mut hc = HyperConnect::new(HcConfig::new(2));
    hc.port(0)
        .ar
        .push(0, ArBeat::new(0x100, 1, BurstSize::B4))
        .unwrap();
    let granted = tick_until(&mut hc, 0, |hc, now| {
        hc.mem_port().ar.pop_ready(now).is_some()
    });
    let inject = granted + 1;
    hc.mem_port()
        .r
        .push(inject, RBeat::new(AxiId(0), vec![0; 4], true))
        .unwrap();
    let seen = tick_until(&mut hc, inject, |hc, now| hc.port(0).r.has_ready(now));
    assert_eq!(seen - inject, 2, "d_R golden");

    // d_W: steady-state write-data beat after routing is established.
    let mut hc = HyperConnect::new(HcConfig::new(2));
    hc.port(0)
        .aw
        .push(0, AwBeat::new(0x100, 2, BurstSize::B4))
        .unwrap();
    hc.port(0).w.push(0, WBeat::new(vec![0; 4], false)).unwrap();
    let first = tick_until(&mut hc, 0, |hc, now| {
        hc.mem_port().w.pop_ready(now).is_some()
    });
    let inject = first + 1;
    hc.port(0)
        .w
        .push(inject, WBeat::new(vec![0; 4], true))
        .unwrap();
    let seen = tick_until(&mut hc, inject, |hc, now| hc.mem_port().w.has_ready(now));
    assert_eq!(seen - inject, 2, "d_W golden");

    // d_B: complete the write's routing, then inject the response.
    let mut hc = HyperConnect::new(HcConfig::new(2));
    hc.port(0)
        .aw
        .push(0, AwBeat::new(0x100, 1, BurstSize::B4))
        .unwrap();
    hc.port(0).w.push(0, WBeat::new(vec![0; 4], true)).unwrap();
    let drained = tick_until(&mut hc, 0, |hc, now| {
        hc.mem_port().aw.pop_ready(now);
        hc.mem_port().w.pop_ready(now).is_some()
    });
    let inject = drained + 1;
    hc.mem_port().b.push(inject, BBeat::new(AxiId(0))).unwrap();
    let seen = tick_until(&mut hc, inject, |hc, now| hc.port(0).b.has_ready(now));
    assert_eq!(seen - inject, 2, "d_B golden");
}

/// Tight-budget reservation with sparse demand: between bursts every
/// component reports a far horizon, but port 0 still holds a finite
/// budget, so the central unit must keep surfacing the period boundary
/// as its event horizon. Leaving the boundary out of the HyperConnect's
/// `next_event` lets fast-forward jump across recharges and diverge
/// from the naive run (periods elapsed, budget stalls and issue counts
/// all drift) — this test pins the fix.
fn tight_budget_run(mode: SchedulerMode) -> (String, Cycle) {
    let hc = HyperConnect::new(HcConfig::new(2));
    hc.regs()
        .write32(hyperconnect::regfile::offsets::PERIOD, 1_000);
    let p0 =
        hyperconnect::regfile::port_block_offset(0) + hyperconnect::regfile::offsets::PORT_BUDGET;
    hc.regs().write32(p0, 2);
    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.set_scheduler(mode);
    // Bursty but sparse: 8 subs of demand every 5_000 cycles, idle in
    // between.
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "victim",
        0x1000_0000,
        1 << 20,
        128,
        BurstSize::B16,
        5_000,
    )))
    .unwrap();
    sys.run_for(100_000);
    let stats = sys.memory().stats();
    let hc = sys.interconnect_ref();
    let ts = hc.port_stats(0);
    let fp = format!(
        "now={} mem=[{} {} {}] periods={} subs={} stall={} txn_total={}",
        sys.now(),
        stats.reads_served,
        stats.beats_served,
        stats.busy_cycles,
        hc.periods_elapsed(),
        ts.subs_issued,
        ts.budget_stall_cycles,
        hc.regs().read32(
            hyperconnect::regfile::port_block_offset(0)
                + hyperconnect::regfile::offsets::PORT_TXN_TOTAL
        ),
    );
    (fp, sys.skipped_cycles())
}

#[test]
fn tight_budget_reservation_identical_under_fast_forward() {
    let (naive, naive_skipped) = tight_budget_run(SchedulerMode::Naive);
    let (fast, fast_skipped) = tight_budget_run(SchedulerMode::FastForward);
    assert_eq!(naive, fast);
    // The equivalence must not be vacuous: fast-forward really skipped
    // idle spans (without ever skipping a recharge boundary).
    assert_eq!(naive_skipped, 0);
    assert!(fast_skipped > 0, "fast-forward never engaged");
}

// ---------------------------------------------------------------------
// Trees: the wake calendar against naive stepping.
// ---------------------------------------------------------------------

/// Everything a tree run exposes: clock, IRQ order, stall attribution,
/// the bridge counters above every `cascaded` interconnect and the
/// per-instance metrics snapshot.
fn tree_fingerprint(topo: &mut SocTopology, cascaded: &[&str]) -> String {
    let mut fp = format!(
        "now={} irqs={:?} last_active={:?}",
        topo.now(),
        topo.take_irq_events(),
        topo.last_active()
    );
    for label in cascaded {
        let id = topo.node_by_label(label).expect("cascaded label");
        fp.push_str(&format!(" {label}={:?}", topo.bridge_stats(id)));
    }
    fp.push_str(&format!(" metrics={}", topo.metrics_snapshot_json()));
    fp
}

/// Builds the tree under naive stepping and under fast-forward, drives
/// both with `drive` (whose output joins the fingerprint) and asserts
/// the fingerprints and persisted images are byte-identical. Returns
/// the fast-forward run.
fn assert_tree_equivalent(
    label: &str,
    build: fn(SchedulerMode) -> SocTopology,
    cascaded: &[&str],
    drive: impl Fn(&mut SocTopology) -> String,
) -> SocTopology {
    let [(naive, naive_fp), (fast, fast_fp)] = [SchedulerMode::Naive, SchedulerMode::FastForward]
        .map(|mode| {
            let mut topo = build(mode);
            let driven = drive(&mut topo);
            let fp = format!("{driven} {}", tree_fingerprint(&mut topo, cascaded));
            (topo, fp)
        });
    assert_eq!(
        naive_fp, fast_fp,
        "{label}: fast-forward diverged from naive"
    );
    assert!(
        naive.snapshot_bytes() == fast.snapshot_bytes(),
        "{label}: persisted images differ"
    );
    assert_eq!(naive.skipped_cycles(), 0);
    fast
}

const TREE100_CLUSTERS: [&str; 7] = [
    "cluster0", "cluster1", "cluster2", "cluster3", "cluster4", "cluster5", "cluster6",
];

/// `bench::tree100` over a short window: one busy cluster, six sleeping
/// ones. The skip counter keeps its meaning — cycles on which no
/// component ticked — so the busy cluster still holds it low.
#[test]
fn tree100_wake_calendar_matches_naive() {
    let fast = assert_tree_equivalent(
        "tree100",
        scenarios::build_tree100,
        &TREE100_CLUSTERS,
        |topo| {
            topo.run_for(30_000);
            String::new()
        },
    );
    assert!(fast.skipped_cycles() > 0, "fast-forward never engaged");
    assert!(
        fast.skipped_cycles() < 15_000,
        "the busy cluster pins most cycles, yet {} were skipped",
        fast.skipped_cycles()
    );
}

/// Copy DMAs on every spare port of root ─1─ mid ─3─ leaf.
fn build_copy_cascade(mode: SchedulerMode) -> SocTopology {
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", num_hc(2)).unwrap();
    let mid = b.add_interconnect("mid", num_hc(2)).unwrap();
    let leaf = b.add_interconnect("leaf", num_hc(2)).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.cascade_with(mid, root, 0, BridgeConfig::wire().latency(1))
        .unwrap();
    b.cascade_with(leaf, mid, 0, BridgeConfig::wire().latency(3))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    for (i, (ic, port)) in [(leaf, 0), (leaf, 1), (mid, 1), (root, 1)]
        .into_iter()
        .enumerate()
    {
        let dma = Dma::new(
            format!("d{i}"),
            DmaConfig {
                src_base: 0x1000_0000 + i as u64 * 0x0100_0000,
                dst_base: 0x5000_0000 + i as u64 * 0x0100_0000,
                read_bytes: 8 * 1024,
                write_bytes: 8 * 1024,
                burst_beats: 32,
                size: BurstSize::B16,
                max_outstanding: 4,
                jobs: Some(2),
            },
        );
        let d = b.add_accelerator(format!("d{i}"), Box::new(dma)).unwrap();
        b.attach(d, ic, port).unwrap();
    }
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo
}

/// Three-level cascades with two nested registered bridges, split over
/// several `run_for` calls: random and periodic masters
/// (root ─1─ mid ─2─ leaf), and copy DMAs whose data must land intact
/// (root ─1─ mid ─3─ leaf).
#[test]
fn tree3_wake_calendar_matches_naive() {
    assert_tree_equivalent("tree3", scenarios::build_tree3, &["mid", "leaf"], |topo| {
        for chunk in [1, 999, 20_000, 19_000] {
            topo.run_for(chunk);
        }
        String::new()
    });
    let copies = assert_tree_equivalent(
        "copy-cascade",
        build_copy_cascade,
        &["mid", "leaf"],
        |topo| {
            for chunk in [7, 20_000, 39_993] {
                topo.run_for(chunk);
            }
            String::new()
        },
    );
    let mem = copies.node_by_label("ddr").unwrap();
    let memory = copies.memory(mem).unwrap().memory();
    for i in 0..4u64 {
        let dst = 0x5000_0000 + i * 0x0100_0000;
        assert!(
            memory.verify_pattern(dst, dst, 8 * 1024),
            "d{i}'s copy was corrupted across the bridges"
        );
    }
}

/// Wire and registered bridges mixed: a wire-cascaded hub with a
/// registered grandchild, and a registered child with a wire leaf.
#[test]
fn mixed_bridge_tree_matches_naive() {
    assert_tree_equivalent(
        "mixed",
        scenarios::build_mixed_tree,
        &["hub", "edge", "far", "far_leaf"],
        |topo| {
            topo.run_for(40_000);
            String::new()
        },
    );
}

/// A cluster of protocol-fault masters beside a sleeping cluster: the
/// violation logs join the fingerprint with their cycle stamps.
#[test]
fn fault_master_cluster_matches_naive() {
    assert_tree_equivalent(
        "fault-tree",
        scenarios::build_fault_tree,
        &["faulty", "calm"],
        |topo| {
            topo.run_for(30_000);
            let faulty = topo.node_by_label("faulty").unwrap();
            let hc = topo.interconnect_as::<HyperConnect>(faulty).unwrap();
            let violations: Vec<_> = (0..5).map(|i| hc.violations(i)).collect();
            assert!(
                violations.iter().any(|v| !v.is_empty()),
                "the fault masters must trip the supervisor"
            );
            format!("violations={violations:?}")
        },
    );
}

/// `run_until_done` on a tree whose clusters finish at different
/// cycles: the same Done cycle under both schedulers.
#[test]
fn tree_run_until_done_matches_naive() {
    assert_tree_equivalent(
        "dma-tree",
        scenarios::build_dma_tree,
        &["c0", "c1", "c2"],
        |topo| {
            let outcome = topo.run_until_done(2_000_000);
            assert!(outcome.is_done(), "{outcome}");
            format!("{outcome}")
        },
    );
    let dnn = assert_tree_equivalent("chaidnn-tree", build_chaidnn_tree, &["leaf"], |topo| {
        let outcome = topo.run_until_done(10_000_000);
        assert!(outcome.is_done(), "{outcome}");
        format!("{outcome}")
    });
    assert!(
        dnn.skipped_cycles() > 10_000,
        "only {} cycles skipped across the compute phases",
        dnn.skipped_cycles()
    );
}

/// The hypervisor reprograms a sleeping cluster between two `run_for`
/// calls — decouples one port and programs a reservation budget on
/// another over AXI-Lite. Every node wakes at the next call, so the
/// cluster applies the writes on the same cycle naive stepping does
/// (the cluster's event trace stamps it).
#[test]
fn reprogramming_a_sleeping_cluster_matches_naive() {
    assert_tree_equivalent(
        "tree100-reprogram",
        scenarios::build_tree100,
        &TREE100_CLUSTERS,
        |topo| {
            let id = topo.node_by_label("cluster3").unwrap();
            topo.interconnect_as_mut::<HyperConnect>(id)
                .unwrap()
                .enable_trace(64);
            topo.run_for(4_000);
            let hc = topo.interconnect_as::<HyperConnect>(id).unwrap();
            assert!(hc.is_idle(), "cluster3 must be idle at the reprogram");
            let mut bus = LiteBus::new();
            bus.map(0xA000_0000, 0x1000, hc.regs().clone());
            let drv = HcDriver::probe(&bus, 0xA000_0000).expect("HyperConnect regfile");
            drv.set_decoupled(0, true).unwrap();
            drv.set_budget(1, 2).unwrap();
            topo.run_for(100);
            let hc = topo.interconnect_as::<HyperConnect>(id).unwrap();
            let applied = hc.trace().dump();
            assert!(
                applied.iter().any(|l| l.contains("DECOUPLED")),
                "the decouple must take effect within the call: {applied:?}"
            );
            topo.run_for(20_000);
            let hc = topo.interconnect_as::<HyperConnect>(id).unwrap();
            format!("trace={:?} stats={:?}", hc.trace().dump(), hc.port_stats(1))
        },
    );
}

/// A cluster sleeping across a reservation-period boundary while the
/// root ticks on it. The cluster's burst at cycle 0 arms its
/// reservation for the first period only; from the boundary at 65 536
/// on every port is unlimited and idle. A recharge still counts as
/// progress (and advances the period counter), so the cluster must wake
/// on the next boundary (131 072) by its own horizon: after every short
/// chunk — the one holding the boundary ends in an idle span — the
/// persisted image, period counters and stall stamps included, matches
/// naive stepping.
#[test]
fn sleeping_cluster_recharges_on_every_period_boundary() {
    let [mut naive, mut fast] =
        [SchedulerMode::Naive, SchedulerMode::FastForward].map(scenarios::build_sleeper_tree);
    for topo in [&mut naive, &mut fast] {
        topo.run_for(131_000);
    }
    for _ in 0..20 {
        for topo in [&mut naive, &mut fast] {
            topo.run_for(97);
        }
        assert!(
            naive.snapshot_bytes() == fast.snapshot_bytes(),
            "images differ after the call ending at cycle {}",
            fast.now()
        );
    }
    let id = fast.node_by_label("sleeper").unwrap();
    let hc = fast.interconnect_as::<HyperConnect>(id).unwrap();
    assert!(hc.is_idle());
    assert_eq!(hc.periods_elapsed(), 3, "the sleeper counted the boundary");
    assert!(fast.skipped_cycles() > 0, "fast-forward never engaged");
}

// ---------------------------------------------------------------------
// Accelerators that sleep beside busy neighbours.
// ---------------------------------------------------------------------

/// A `blocked` cluster behind a latency-2 bridge: a runaway master that
/// keeps its AR queue full, a copy DMA whose writes back up behind a
/// two-beat reservation budget, and a busy random master beside them;
/// a periodic reader and a random master sit on the root.
fn build_blocked_tree(mode: SchedulerMode) -> SocTopology {
    let cluster_hc = num_hc(3);
    let mut bus = LiteBus::new();
    bus.map(0xA000_0000, 0x1000, cluster_hc.regs().clone());
    let drv = HcDriver::probe(&bus, 0xA000_0000).expect("HyperConnect regfile");
    drv.set_period(2_000).expect("period register");
    drv.set_budget(1, 2).expect("budget register");
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", num_hc(3)).unwrap();
    let blocked = b.add_interconnect("blocked", cluster_hc).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    b.cascade_with(blocked, root, 0, BridgeConfig::wire().latency(2))
        .unwrap();
    let placements: [(&str, Box<dyn Accelerator>, _, usize); 5] = [
        (
            "runaway",
            Box::new(ha::fault::RunawayMaster::new(
                "runaway",
                0x1000_0000,
                1 << 16,
                16,
                BurstSize::B16,
            )),
            blocked,
            0,
        ),
        (
            "writer",
            Box::new(Dma::new(
                "writer",
                DmaConfig {
                    src_base: 0x2000_0000,
                    dst_base: 0x2800_0000,
                    read_bytes: 4 * 1024,
                    write_bytes: 16 * 1024,
                    burst_beats: 64,
                    size: BurstSize::B16,
                    max_outstanding: 4,
                    jobs: None,
                },
            )),
            blocked,
            1,
        ),
        (
            "busy",
            Box::new(RandomTraffic::new(
                "busy",
                0x3000_0000,
                1 << 18,
                BurstSize::B16,
                16,
                20,
                11,
            )),
            blocked,
            2,
        ),
        (
            "per",
            Box::new(PeriodicReader::new(
                "per",
                0x4000_0000,
                1 << 18,
                16,
                BurstSize::B16,
                900,
            )),
            root,
            1,
        ),
        (
            "rnd",
            Box::new(RandomTraffic::new(
                "rnd",
                0x5000_0000,
                1 << 18,
                BurstSize::B16,
                8,
                400,
                5,
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

/// Accelerators blocked on a full AR queue (the runaway master) and a
/// full W queue (the budget-starved writer) sleep until the interconnect
/// pops, while a busy sibling keeps their interconnect awake. Both
/// blocks must actually occur, and the skip count is pinned.
#[test]
fn leaves_blocked_on_full_queues_match_naive() {
    let fast = assert_tree_equivalent("blocked", build_blocked_tree, &["blocked"], |topo| {
        let id = topo.node_by_label("blocked").unwrap();
        let (mut ar_full, mut w_full) = (0, 0);
        for _ in 0..40 {
            topo.run_for(1_000);
            let hc = topo.interconnect_dyn_mut(id).unwrap();
            ar_full += hc.port(0).ar.is_full() as u32;
            w_full += hc.port(1).w.is_full() as u32;
        }
        assert!(ar_full > 0 && w_full > 0, "ar {ar_full} w {w_full}");
        format!("ar_full={ar_full} w_full={w_full}")
    });
    assert_eq!(fast.skipped_cycles(), BLOCKED_SKIPPED);
    let work = fast.engine_work();
    assert!(work.leaf_skips > 0, "no accelerator ever slept: {work:?}");
}

/// A scoreboard master pacing its jobs 3 000 cycles apart and a sparse
/// periodic reader in a `gapped` cluster behind a latency-4 bridge, and
/// another sparse reader on the root: every accelerator sleeps most of
/// the time, and often every node does.
fn build_gapped_tree(mode: SchedulerMode) -> SocTopology {
    let mut b = TopologyBuilder::new();
    let root = b.add_interconnect("root", num_hc(2)).unwrap();
    let gapped = b.add_interconnect("gapped", num_hc(2)).unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    b.cascade_with(gapped, root, 0, BridgeConfig::wire().latency(4))
        .unwrap();
    let placements: [(&str, Box<dyn Accelerator>, _, usize); 3] = [
        (
            "sb",
            Box::new(
                ha::scoreboard::ScoreboardMaster::new("sb", 0x4000_0000, 4096, 8, BurstSize::B8, 9)
                    .gap(3_000),
            ),
            gapped,
            0,
        ),
        (
            "per_a",
            Box::new(PeriodicReader::new(
                "per_a",
                0x5000_0000,
                1 << 18,
                16,
                BurstSize::B16,
                7_000,
            )),
            gapped,
            1,
        ),
        (
            "per_b",
            Box::new(PeriodicReader::new(
                "per_b",
                0x6000_0000,
                1 << 18,
                16,
                BurstSize::B16,
                5_000,
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

/// A `run_polled` hook resets the sleeping scoreboard master and
/// reprograms a sleeping periodic reader (restoring the other reader's
/// state into it). Every poll is a run entry, so each change is seen on
/// the next cycle exactly as naive stepping sees it.
#[test]
fn hook_resetting_and_reprogramming_sleeping_leaves_matches_naive() {
    let fast = assert_tree_equivalent("gapped-hook", build_gapped_tree, &["gapped"], |topo| {
        let mut log = Vec::new();
        topo.run_polled(40_000, 2_500, |t, topo| {
            match t {
                10_000 | 25_000 => topo.accelerator_mut(0).unwrap().reset(),
                15_000 => {
                    let mut w = sim::persist::SnapshotWriter::new();
                    topo.accelerator(2).unwrap().save_state(&mut w);
                    let bytes = w.into_bytes();
                    topo.accelerator_mut(1)
                        .unwrap()
                        .restore_state(&mut sim::persist::SnapshotReader::new(&bytes))
                        .expect("same model");
                }
                _ => {}
            }
            log.push((t, topo.take_irq_events()));
        });
        format!("polls={log:?}")
    });
    assert_eq!(fast.skipped_cycles(), HOOK_SKIPPED);
}

/// A sleeping accelerator's port is flushed between two calls: the
/// runaway master's full AR queue (it resumes issuing), and on the
/// gapped tree the ports of the scoreboard master and of a periodic
/// reader, whatever they hold (a reader flushed mid-burst then waits
/// forever).
#[test]
fn clearing_a_sleeping_leaf_port_between_calls_matches_naive() {
    assert_tree_equivalent("blocked-clear", build_blocked_tree, &["blocked"], |topo| {
        let blocked = topo.node_by_label("blocked").unwrap();
        let mut flushed = Vec::new();
        for _ in 0..30 {
            topo.run_for(977);
            let port = topo.interconnect_dyn_mut(blocked).unwrap().port(0);
            flushed.push(port.ar.len());
            port.clear();
        }
        topo.run_for(5_000);
        format!("flushed={flushed:?}")
    });
    let fast = assert_tree_equivalent("gapped-clear", build_gapped_tree, &["gapped"], |topo| {
        let mut flushed = Vec::new();
        for (label, port) in [("gapped", 0), ("root", 1)].into_iter().cycle().take(24) {
            topo.run_for(1_733);
            let id = topo.node_by_label(label).unwrap();
            let port = topo.interconnect_dyn_mut(id).unwrap().port(port);
            flushed.push(port.occupancy());
            port.clear();
        }
        topo.run_for(10_000);
        format!("flushed={flushed:?}")
    });
    assert_eq!(fast.skipped_cycles(), CLEAR_SKIPPED);
}

/// Cycles the wake calendar skips in the three scenarios above. An
/// engine that ticks every node of a bridge-delimited cluster whenever
/// any of them is due skips exactly these: a sleeping node or bridge
/// must not move the calendar.
const BLOCKED_SKIPPED: Cycle = 0;
const HOOK_SKIPPED: Cycle = 24_240;
const CLEAR_SKIPPED: Cycle = 49_902;
