//! QoS traffic-regulation scenarios: per-port credit regulators keep
//! hard real-time victims inside *tightened* worst-case bounds while
//! best-effort swarms run free — under every scheduler, byte-identical.
//!
//! Three layers of evidence:
//! 1. a mixed-criticality matrix (hard-RT victim + best-effort DMA
//!    swarm + bursty ChaiDNN) where the armed bound monitor verifies
//!    the victim against the regulated (tighter) bound with zero
//!    violations under naive and fast-forward scheduling;
//! 2. a 16-port noisy-neighbor suite where regulated HyperConnect
//!    holds the victim's tightened bound while SmartConnect — no
//!    regulation, positional round-robin — blows straight through it;
//! 3. a cascaded tree where regulation programmed on a leaf register
//!    file keeps working at depth, byte-identically across schedulers.

use axi::observe::ObsChannel;
use axi::types::BurstSize;
use axi::AxiInterconnect;
use axi_hyperconnect::{SchedulerMode, SocSystem, TopologyBuilder};
use ha::chaidnn::{Chaidnn, ChaidnnConfig, Layer};
use ha::dma::{Dma, DmaConfig};
use ha::traffic::PeriodicReader;
use hyperconnect::regfile::{offsets, port_block_offset};
use hyperconnect::regulate::{CreditRegulator, RegulatorConfig};
use hyperconnect::{HcConfig, HyperConnect};
use mem::{MemConfig, MemoryController};
use proptest::prelude::*;
use smartconnect::{ScConfig, SmartConnect};

/// Programs one port's regulator over the AXI-Lite register file — the
/// same path a hypervisor takes, no model internals touched.
fn regulate(hc: &HyperConnect, port: usize, rate: u32, burst: u32, out_cap: u32) {
    let block = port_block_offset(port);
    hc.regs().write32(block + offsets::PORT_REG_RATE, rate);
    hc.regs().write32(block + offsets::PORT_REG_BURST, burst);
    hc.regs()
        .write32(block + offsets::PORT_REG_OUT_CAP, out_cap);
}

/// The hard-RT victim: one 16-beat read burst every 200 cycles.
fn victim() -> PeriodicReader {
    PeriodicReader::new("victim", 0x1000_0000, 1 << 20, 16, BurstSize::B16, 200)
}

/// One free-running best-effort DMA of the swarm.
fn swarm_dma(i: u64) -> Dma {
    Dma::new(
        format!("swarm{i}"),
        DmaConfig {
            src_base: 0x3000_0000 + i * 0x0100_0000,
            jobs: None,
            ..DmaConfig::reader(256 * 1024, 16, BurstSize::B16)
        },
    )
}

/// The bursty ChaiDNN: weight/feature bursts separated by compute.
fn bursty_dnn() -> Chaidnn {
    Chaidnn::new(
        "dnn",
        vec![
            Layer {
                name: "conv",
                weight_bytes: 8 << 10,
                input_bytes: 4 << 10,
                output_bytes: 4 << 10,
                compute_cycles: 3_000,
            },
            Layer {
                name: "fc",
                weight_bytes: 16 << 10,
                input_bytes: 2 << 10,
                output_bytes: 1 << 10,
                compute_cycles: 5_000,
            },
        ],
        ChaidnnConfig::default(),
    )
}

/// Mixed-criticality matrix run: returns the full metrics snapshot,
/// the bound-violation count, the victim's armed read bound and the
/// unregulated global read bound.
fn mixed_criticality(mode: SchedulerMode) -> (String, usize, u64, u64, u64) {
    let hc = HyperConnect::new(HcConfig::new(4));
    hc.regs().write32(offsets::REG_WINDOW, 256);
    // Aggressors throttled hard; the victim (port 0) runs unregulated.
    for p in 1..4 {
        regulate(&hc, p, 2, 2, 2);
    }
    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.set_scheduler(mode);
    sys.add_accelerator(Box::new(victim())).unwrap();
    sys.add_accelerator(Box::new(swarm_dma(0))).unwrap();
    sys.add_accelerator(Box::new(swarm_dma(1))).unwrap();
    sys.add_accelerator(Box::new(bursty_dnn())).unwrap();
    sys.enable_observability();
    sys.run_for(60_000);
    let victim_jobs = sys.accelerator(0).unwrap().jobs_completed();
    let mon = sys.interconnect_ref().bound_monitor().expect("armed");
    (
        sys.metrics_snapshot_json().expect("metrics armed"),
        mon.violations().len(),
        mon.port_read_bound(0),
        mon.read_bound(),
        victim_jobs,
    )
}

#[test]
fn mixed_criticality_matrix_holds_tightened_victim_bound() {
    let (json, violations, victim_bound, global_bound, victim_jobs) =
        mixed_criticality(SchedulerMode::Naive);
    // The monitor armed the regulated (tighter) bound for the victim
    // and nothing — victim or best-effort — violated it.
    assert!(
        victim_bound < global_bound,
        "regulation did not tighten the victim bound ({victim_bound} vs {global_bound})"
    );
    assert_eq!(violations, 0, "bound violations under regulation");
    assert!(victim_jobs > 100, "victim starved: {victim_jobs} bursts");
    // Regulated ports surface throttle counters in the snapshot; the
    // unregulated victim keeps the flat schema.
    assert!(json.contains("\"regulator\":{\"throttle_events\":"));
    let port0 = json.split("{\"port\":1").next().unwrap();
    assert!(
        !port0.contains("\"regulator\""),
        "unregulated port 0 grew a regulator section"
    );
}

#[test]
fn mixed_criticality_matrix_byte_identical_across_schedulers() {
    let naive = mixed_criticality(SchedulerMode::Naive);
    let fast = mixed_criticality(SchedulerMode::FastForward);
    assert_eq!(naive, fast, "naive vs fast-forward diverged");
}

/// 16-port noisy-neighbor run on HyperConnect with regulation: the
/// victim shares the fabric with fifteen greedy DMAs, each capped to a
/// single in-flight transaction.
fn hc_noisy_neighbor(mode: SchedulerMode) -> (usize, u64, u64, u64) {
    let hc = HyperConnect::new(HcConfig::new(16));
    for p in 1..16 {
        regulate(&hc, p, u32::MAX, 1, 1);
    }
    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.set_scheduler(mode);
    sys.add_accelerator(Box::new(victim())).unwrap();
    for i in 0..15 {
        sys.add_accelerator(Box::new(swarm_dma(i))).unwrap();
    }
    sys.enable_observability();
    sys.run_for(60_000);
    let mon = sys.interconnect_ref().bound_monitor().expect("armed");
    let worst = sys
        .interconnect_ref()
        .metrics()
        .expect("metrics armed")
        .port(0)
        .read_txns
        .max()
        .expect("victim completed reads");
    (
        mon.violations().len(),
        mon.port_read_bound(0),
        mon.read_bound(),
        worst,
    )
}

/// The same 16-port workload on SmartConnect, which has no regulator.
/// SmartConnect's registry tracks channel-level latencies only, so
/// this returns the victim's worst AR-grant latency — a *lower* bound
/// on its worst end-to-end read latency (data return and memory
/// service come on top), which makes the comparison conservative.
fn sc_noisy_neighbor() -> u64 {
    let mut sc = SmartConnect::new(ScConfig::new(16));
    sc.enable_metrics();
    let mut sys = SocSystem::new(sc, MemoryController::new(MemConfig::zcu102()));
    sys.add_accelerator(Box::new(victim())).unwrap();
    for i in 0..15 {
        sys.add_accelerator(Box::new(swarm_dma(i))).unwrap();
    }
    sys.run_for(60_000);
    sys.interconnect_ref()
        .metrics()
        .expect("metrics armed")
        .port(0)
        .channel(ObsChannel::Ar)
        .latency
        .max()
        .expect("victim issued reads")
}

#[test]
fn noisy_neighbor_16_ports_regulated_hc_holds_where_smartconnect_does_not() {
    let (violations, victim_bound, global_bound, hc_worst) =
        hc_noisy_neighbor(SchedulerMode::FastForward);
    assert_eq!(violations, 0, "regulated HyperConnect blew a bound");
    assert!(
        victim_bound < global_bound,
        "out-capped swarm did not tighten the victim bound"
    );
    assert!(
        hc_worst <= victim_bound,
        "victim latency {hc_worst} above the tightened bound {victim_bound}"
    );
    // SmartConnect, same workload, no regulation: even the victim's
    // worst *grant* latency (a lower bound on end-to-end) lands beyond
    // the bound regulation guarantees on HyperConnect.
    let sc_worst = sc_noisy_neighbor();
    assert!(
        sc_worst > victim_bound,
        "SmartConnect victim worst {sc_worst} unexpectedly within {victim_bound}"
    );
}

#[test]
fn noisy_neighbor_byte_identical_across_schedulers() {
    let naive = hc_noisy_neighbor(SchedulerMode::Naive);
    let fast = hc_noisy_neighbor(SchedulerMode::FastForward);
    assert_eq!(naive, fast);
}

/// Two-level tree with regulation programmed on a leaf register file:
/// `victim` and a greedy DMA share leaf0; leaf1 carries another DMA.
/// Returns (topology snapshot, aggressor throttle events, aggressor
/// subs issued, victim bursts completed).
fn tree_run(mode: SchedulerMode, regulated: bool) -> (String, u32, u64, u64) {
    let mut b = TopologyBuilder::new();
    let leaf0_hc = {
        let mut hc = HyperConnect::new(HcConfig::new(2));
        hc.enable_metrics();
        if regulated {
            hc.regs().write32(offsets::REG_WINDOW, 128);
            regulate(&hc, 1, 2, 1, 1);
        }
        hc
    };
    let root = b
        .add_interconnect("root", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let leaf0 = b.add_interconnect("leaf0", leaf0_hc).unwrap();
    let leaf1 = b
        .add_interconnect("leaf1", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.cascade(leaf0, root, 0).unwrap();
    b.cascade(leaf1, root, 1).unwrap();
    let v = b.add_accelerator("victim", Box::new(victim())).unwrap();
    b.attach(v, leaf0, 0).unwrap();
    let a0 = b.add_accelerator("swarm0", Box::new(swarm_dma(0))).unwrap();
    b.attach(a0, leaf0, 1).unwrap();
    let a1 = b.add_accelerator("swarm1", Box::new(swarm_dma(1))).unwrap();
    b.attach(a1, leaf1, 0).unwrap();
    b.connect_memory(root, mem).unwrap();
    let mut topo = b.build().unwrap();
    topo.set_scheduler(mode);
    topo.run_for(40_000);
    let leaf = topo
        .interconnect_as::<HyperConnect>(leaf0)
        .expect("leaf0 is a HyperConnect");
    let throttle = leaf
        .regs()
        .read32(port_block_offset(1) + offsets::PORT_REG_THROTTLE);
    let aggressor_subs = leaf.port_stats(1).subs_issued;
    // The victim was added first: insertion order index 0.
    let victim_jobs = topo.accelerator(0).expect("victim").jobs_completed();
    (
        topo.metrics_snapshot_json(),
        throttle,
        aggressor_subs,
        victim_jobs,
    )
}

#[test]
fn regulation_works_at_tree_depth_under_all_schedulers() {
    let naive = tree_run(SchedulerMode::Naive, true);
    let fast = tree_run(SchedulerMode::FastForward, true);
    assert_eq!(naive, fast, "regulated tree diverged under fast-forward");
    let (_, throttle, regulated_subs, victim_regulated) = naive;
    assert!(throttle > 0, "leaf regulator never throttled");
    // Against the unregulated baseline the aggressor is visibly paced
    // and the victim's progress does not degrade.
    let (_, baseline_throttle, baseline_subs, victim_baseline) =
        tree_run(SchedulerMode::Naive, false);
    assert_eq!(baseline_throttle, 0);
    assert!(
        regulated_subs < baseline_subs,
        "regulation did not pace the aggressor ({regulated_subs} vs {baseline_subs})"
    );
    assert!(victim_regulated >= victim_baseline);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Liveness: a regulator with a nonzero rate can never deadlock a
    /// demanding port — from any cycle, credits become available again
    /// within one refill window, so across `windows` full windows at
    /// least one consume per window succeeds.
    #[test]
    fn regulator_with_nonzero_rate_never_deadlocks(
        rate in 1u32..5,
        burst in 1u32..6,
        window in 1u32..40,
        windows in 2u64..20,
    ) {
        let cfg = RegulatorConfig {
            rate,
            burst,
            out_cap: hyperconnect::regulate::OUT_CAP_UNLIMITED,
            window,
        };
        let mut reg = CreditRegulator::default();
        reg.sync(0, cfg);
        let horizon = windows * u64::from(window);
        let mut issued = 0u64;
        let mut last_issue = 0u64;
        for now in 0..horizon {
            if reg.read_available(now) {
                reg.consume_read(now);
                issued += 1;
                last_issue = now;
            } else {
                // Blocked ports always learn a finite wake-up cycle
                // within one window.
                let refill = reg.next_refill(now);
                prop_assert!(refill > now && refill - now <= u64::from(window));
            }
        }
        prop_assert!(issued >= windows - 1, "starved: {} issues in {} windows", issued, windows);
        prop_assert!(horizon - last_issue <= 2 * u64::from(window));
    }

    /// An unlimited-rate regulator is inert regardless of burst/window
    /// programming: the full metrics snapshot — every latency, every
    /// gauge — is byte-identical to a run that never touched the
    /// regulator registers.
    #[test]
    fn unlimited_rate_is_byte_identical_to_unregulated(
        burst in 1u32..8,
        window in 1u32..200,
    ) {
        let run = |program: bool| {
            let hc = HyperConnect::new(HcConfig::new(2));
            if program {
                hc.regs().write32(offsets::REG_WINDOW, window);
                let block = port_block_offset(1);
                hc.regs().write32(block + offsets::PORT_REG_BURST, burst);
                // Rate and out-cap stay unlimited: the regulator must
                // remain inert.
            }
            let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
            sys.add_accelerator(Box::new(victim())).unwrap();
            sys.add_accelerator(Box::new(swarm_dma(0))).unwrap();
            sys.enable_observability();
            sys.run_for(3_000);
            sys.metrics_snapshot_json().expect("metrics armed")
        };
        prop_assert_eq!(run(true), run(false));
    }
}
