//! The 100-node tree scenario: one busy cluster beside six sleeping
//! ones.
//!
//! Seven accelerator clusters hang off a single root HyperConnect, each
//! behind a deeply registered [`axi::AxiBridge`] (latency
//! [`BRIDGE_LATENCY`]), for 100 nodes total: 1 memory + 1 root + 7
//! cluster interconnects + 91 accelerators. Cluster 0 carries thirteen
//! random-traffic masters whose staggered bursts keep the cluster
//! active nearly every cycle — so the clock itself can almost never
//! skip — while staying below the bridge's beat-per-cycle capacity. The
//! other six clusters carry periodic readers with long, staggered idle
//! gaps.
//!
//! Every node wakes on its own: the engine ticks the busy cluster's
//! nodes when they are due and passes each idle cluster over whole
//! until its own next event. The `perf` bin times naive stepping and
//! the wake calendar on this scenario and checks the two runs
//! byte-identical.

use std::time::Instant;

use axi::types::BurstSize;
use axi::BridgeConfig;
use axi_hyperconnect::{EngineWork, SchedulerMode, SocTopology, TopologyBuilder};
use ha::traffic::{PeriodicReader, RandomTraffic};
use ha::Accelerator;
use hyperconnect::{HcConfig, HyperConnect};
use mem::{MemConfig, MemoryController};
use sim::Cycle;

/// Clusters cascaded off the root interconnect.
pub const CLUSTERS: usize = 7;

/// Accelerators per cluster.
pub const ACCS_PER_CLUSTER: usize = 13;

/// Latency of every root→cluster bridge.
pub const BRIDGE_LATENCY: Cycle = 32;

/// Default measurement window for the perf harness.
pub const DEFAULT_CYCLES: Cycle = 400_000;

/// Total node count of the scenario (memory + root + clusters +
/// accelerators).
pub fn node_count() -> usize {
    2 + CLUSTERS * (1 + ACCS_PER_CLUSTER)
}

/// Builds the tree under the given scheduler mode.
pub fn build(mode: SchedulerMode) -> SocTopology {
    let mut b = TopologyBuilder::new();
    let root = b
        .add_interconnect("root", HyperConnect::new(HcConfig::new(CLUSTERS)))
        .unwrap();
    let mem = b
        .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
        .unwrap();
    b.connect_memory(root, mem).unwrap();

    let mut acc_idx = 0usize;
    for c in 0..CLUSTERS {
        let cluster = b
            .add_interconnect(
                format!("cluster{c}"),
                HyperConnect::new(HcConfig::new(ACCS_PER_CLUSTER)),
            )
            .unwrap();
        // Deep elastic staging: headroom above the default port
        // capacities so burst collisions never pin a pipe at capacity.
        let bridge = BridgeConfig {
            addr_capacity: 32,
            data_capacity: 256,
            resp_capacity: 32,
            ..BridgeConfig::wire()
        }
        .latency(BRIDGE_LATENCY);
        b.cascade_with(cluster, root, c, bridge).unwrap();
        for p in 0..ACCS_PER_CLUSTER {
            let base = 0x1000_0000 + acc_idx as u64 * 0x0020_0000;
            let name = format!("a{acc_idx}");
            let acc: Box<dyn Accelerator> = if c == 0 {
                // The busy cluster: thirteen random masters whose
                // staggered short bursts keep the cluster active nearly
                // every cycle at ~0.3 beats/cycle aggregate — well
                // under the cut's 1 beat/cycle, so the bridge pipes
                // never fill.
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
                // Idle clusters: short periodic bursts separated by
                // long, staggered gaps — the local fast-forward target.
                Box::new(PeriodicReader::new(
                    &name,
                    base,
                    1 << 19,
                    16,
                    BurstSize::B16,
                    8_000 + (acc_idx as Cycle * 211) % 3_000,
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

/// Byte-exact digest of everything observable after a run: the clock,
/// every accelerator's job counter, the memory service counters, every
/// cluster bridge's beat counters and the full metrics snapshot.
pub fn fingerprint(topo: &mut SocTopology) -> String {
    let mut fp = format!("now={}", topo.now());
    for i in 0..topo.num_accelerators() {
        let acc = topo.accelerator(i).unwrap();
        fp.push_str(&format!(" {}={}", acc.name(), acc.jobs_completed()));
    }
    for c in 0..CLUSTERS {
        let id = topo.node_by_label(&format!("cluster{c}")).unwrap();
        let s = topo.bridge_stats(id).unwrap();
        fp.push_str(&format!(" b{c}={}/{}", s.beats_down, s.beats_up));
    }
    let mem_id = topo.node_by_label("ddr").unwrap();
    let stats = topo.memory(mem_id).unwrap().stats();
    fp.push_str(&format!(
        " mem=[{} {} {} {} {}]",
        stats.reads_served,
        stats.writes_served,
        stats.beats_served,
        stats.bytes_served,
        stats.busy_cycles,
    ));
    fp.push_str(" metrics=");
    fp.push_str(&topo.metrics_snapshot_json());
    fp
}

/// One timed run of the scenario.
#[derive(Debug, Clone)]
pub struct TreeRun {
    /// Wall-clock time of the `run_for` call.
    pub wall_ms: f64,
    /// Byte-exact state digest (see [`fingerprint`]).
    pub fingerprint: String,
    /// Cycles the scheduler fast-forwarded.
    pub skipped: Cycle,
    /// Node ticks and bridge transfers, run and passed over.
    pub work: EngineWork,
}

/// Builds and runs the tree for `cycles` under `mode`, returning the
/// timing and the state digest.
pub fn run(mode: SchedulerMode, cycles: Cycle) -> TreeRun {
    let mut topo = build(mode);
    let t0 = Instant::now();
    topo.run_for(cycles);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    TreeRun {
        wall_ms,
        fingerprint: fingerprint(&mut topo),
        skipped: topo.skipped_cycles(),
        work: topo.engine_work(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_has_one_hundred_nodes() {
        let topo = build(SchedulerMode::FastForward);
        assert_eq!(topo.num_nodes(), node_count());
        assert_eq!(node_count(), 100);
    }

    /// On every cycle the engine ticks, each node and bridge either
    /// ticks or is passed over, and the six idle clusters' interconnects
    /// sleep: at least nine in ten of their ticks are passed over.
    #[test]
    fn idle_cluster_interconnects_are_passed_over() {
        let run = run(SchedulerMode::FastForward, DEFAULT_CYCLES);
        let (w, ticked) = (run.work, DEFAULT_CYCLES - run.skipped);
        let count = |n: usize| n as u64 * ticked;
        assert_eq!(w.ic_ticks + w.ic_skips, count(CLUSTERS + 1), "{w:?}");
        assert_eq!(w.mem_ticks + w.mem_skips, count(1), "{w:?}");
        assert_eq!(
            w.leaf_ticks + w.leaf_skips,
            count(CLUSTERS * ACCS_PER_CLUSTER)
        );
        assert_eq!(w.bridge_transfers + w.bridge_skips, count(CLUSTERS));
        let idle = count(CLUSTERS - 1);
        assert!(
            w.ic_skips >= idle - idle / 10,
            "{w:?}, {ticked} cycles ticked"
        );
    }
}
