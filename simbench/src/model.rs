//! The four workloads as component sets, and their assembly through the
//! simulator's public entry points.
//!
//! A workload is built as [`Parts`]: a root HyperConnect, its memory
//! controller and the children of its slave ports (accelerators, or
//! cascaded cluster HyperConnects behind a bridge). The same `Parts`
//! value can be assembled into the public engine ([`Public`]:
//! `SocSystem` for the flat systems, `SocTopology` for the tree) or
//! into the benchmark's own traced cycle loop ([`crate::replica::Rig`]).
//! Both expose a [`View`], and [`fingerprint`] digests a view, so the
//! two engines can be compared byte for byte.

use axi::bridge::{BridgeConfig, BridgeStats};
use axi::lite::LiteBus;
use axi::types::BurstSize;
use axi::AxiInterconnect;
use axi_hyperconnect::{NodeId, SocSystem, SocTopology, TopologyBuilder};
use ha::chaidnn::{Chaidnn, ChaidnnConfig};
use ha::dma::{Dma, DmaConfig};
use ha::fault::{DelayedFault, RogueReader, RunawayMaster, StalledWriter, WlastViolator};
use ha::traffic::{PeriodicReader, RandomTraffic};
use ha::Accelerator;
use hyperconnect::analysis::ServiceModel;
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::{HcDriver, Hypervisor};
use mem::{MemConfig, MemoryController};
use sim::{Cycle, SimRng};

/// AXI-Lite base every workload maps its HyperConnect register file at.
const HC_BASE: u64 = 0xA000_0000;

/// Workload names, in the order the benchmark reports them.
pub const WORKLOADS: [&str; 4] = [
    "contended_reservation",
    "observed_qos",
    "tree_sparse",
    "campaign_fork",
];

/// The accelerator model classes the per-layer split reports
/// separately (`ha.<class>.tick_ns`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaClass {
    /// `ha::dma::Dma`.
    Dma = 0,
    /// `ha::chaidnn::Chaidnn`.
    Chaidnn = 1,
    /// `ha::traffic` generators.
    Traffic = 2,
    /// `ha::fault` models (dormant in the campaign shape).
    Fault = 3,
}

impl HaClass {
    /// Every class, indexed by its discriminant.
    pub const ALL: [HaClass; 4] = [
        HaClass::Dma,
        HaClass::Chaidnn,
        HaClass::Traffic,
        HaClass::Fault,
    ];
}

/// One accelerator and its class.
pub struct Leaf {
    pub acc: Box<dyn Accelerator>,
    pub class: HaClass,
}

impl Leaf {
    fn new(acc: impl Accelerator, class: HaClass) -> Self {
        Self {
            acc: Box::new(acc),
            class,
        }
    }
}

/// A cluster HyperConnect cascaded under one root slave port.
pub struct Cluster {
    pub label: String,
    pub hc: HyperConnect,
    pub bridge: BridgeConfig,
    pub leaves: Vec<Leaf>,
}

/// What sits on one root slave port.
pub enum Child {
    Acc(Leaf),
    Cluster(Box<Cluster>),
}

/// A workload's components before assembly.
pub struct Parts {
    pub root: HyperConnect,
    pub mem: MemoryController,
    /// Children in root slave-port order; every port is occupied.
    pub children: Vec<Child>,
    /// Arm transaction metrics and the bound monitor on the root
    /// (`SocSystem::enable_observability`).
    pub observe: bool,
}

/// Cycle spans of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spans {
    /// Warm-up simulated during set-up, so lazily sized rings are grown
    /// before timing starts.
    pub warm: Cycle,
    /// One measured operation: a `run_for` call of this many cycles.
    pub chunk: Cycle,
    /// Chunks in the traced window (scaled by `--seconds / 10`).
    pub trace_chunks: u64,
}

/// The spans of a simulation workload (`campaign_fork` uses them for
/// its campaign-shaped traced window).
pub fn spans(workload: &str) -> Spans {
    match workload {
        "contended_reservation" => Spans {
            warm: 200_000,
            chunk: 2_000_000,
            trace_chunks: 2,
        },
        "observed_qos" => Spans {
            warm: 50_000,
            chunk: 200_000,
            trace_chunks: 12,
        },
        "tree_sparse" => Spans {
            warm: 20_000,
            chunk: 50_000,
            trace_chunks: 6,
        },
        "campaign_fork" => Spans {
            warm: 2_000,
            chunk: 200_000,
            trace_chunks: 12,
        },
        other => panic!("unknown workload {other:?}"),
    }
}

/// Builds the components of `workload` for `seed`.
pub fn build(workload: &str, seed: u64) -> Parts {
    match workload {
        "contended_reservation" => contended_reservation(),
        "observed_qos" => observed_qos(),
        "tree_sparse" => tree_sparse(seed),
        "campaign_fork" => campaign_shape(campaign_base_seeds(seed)[0]),
        other => panic!("unknown workload {other:?}"),
    }
}

/// The paper's Fig. 5 `HC-50-50` system: CHaiDNN plus the case-study
/// `HA_DMA` on a 2-port HyperConnect whose period (50 000 cycles) and
/// 50/50 bandwidth shares the hypervisor programs over AXI-Lite. The
/// DMA's 4 MiB source buffer is pre-filled.
fn contended_reservation() -> Parts {
    let root = HyperConnect::new(HcConfig::new(2));
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, root.regs().clone());
    let hv = Hypervisor::new(bus, HC_BASE).expect("HyperConnect at HC_BASE");
    hv.hc().set_period(50_000).expect("period register");
    hv.set_bandwidth_shares(&[50, 50], MemConfig::zcu102().first_word_latency)
        .expect("shares fit the period");
    let dma = DmaConfig::case_study();
    let mut mem = MemoryController::new(MemConfig::zcu102());
    mem.memory_mut()
        .fill_pattern(dma.src_base, dma.read_bytes as usize);
    Parts {
        root,
        mem,
        children: vec![
            Child::Acc(Leaf::new(
                Chaidnn::googlenet(ChaidnnConfig::default()),
                HaClass::Chaidnn,
            )),
            Child::Acc(Leaf::new(Dma::new("HA_DMA", dma), HaClass::Dma)),
        ],
        observe: false,
    }
}

/// The `perf` QoS probe's mixed-criticality system, regulated: a
/// hard-RT periodic victim plus three greedy DMA readers on a 4-port
/// HyperConnect, the swarm's credit regulators programmed over
/// AXI-Lite, observability and the bound monitor armed.
fn observed_qos() -> Parts {
    let root = HyperConnect::new(HcConfig::new(4));
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, root.regs().clone());
    let drv = HcDriver::probe(&bus, HC_BASE).expect("HyperConnect at HC_BASE");
    drv.set_regulation_window(256).expect("regulation window");
    for port in 1..4 {
        drv.set_rate(port, 2).expect("rate register");
        drv.set_reg_burst(port, 2).expect("burst register");
        drv.set_out_cap(port, 2).expect("outstanding cap register");
    }
    let mut children = vec![Child::Acc(Leaf::new(
        PeriodicReader::new("victim", 0x1000_0000, 1 << 20, 16, BurstSize::B16, 200),
        HaClass::Traffic,
    ))];
    for i in 0..3u64 {
        children.push(Child::Acc(Leaf::new(
            Dma::new(
                format!("swarm{i}"),
                DmaConfig {
                    src_base: 0x3000_0000 + i * 0x0100_0000,
                    jobs: None,
                    ..DmaConfig::reader(256 * 1024, 16, BurstSize::B16)
                },
            ),
            HaClass::Dma,
        )));
    }
    Parts {
        root,
        mem: MemoryController::new(MemConfig::zcu102()),
        children,
        observe: true,
    }
}

/// Clusters of the tree, accelerators per cluster and bridge latency:
/// the `bench::tree100` shape.
const CLUSTERS: usize = bench::tree100::CLUSTERS;
const ACCS_PER_CLUSTER: usize = bench::tree100::ACCS_PER_CLUSTER;

/// The `bench::tree100` 100-node tree: one busy cluster of thirteen
/// random masters and six clusters of sparse periodic readers, each
/// behind a latency-32 bridge. The seed moves the random masters'
/// streams; seed 0 is exactly `bench::tree100::build`.
fn tree_sparse(seed: u64) -> Parts {
    let mut children = Vec::new();
    let mut acc_idx = 0usize;
    for c in 0..CLUSTERS {
        let mut leaves = Vec::new();
        for p in 0..ACCS_PER_CLUSTER {
            let base = 0x1000_0000 + acc_idx as u64 * 0x0020_0000;
            let name = format!("a{acc_idx}");
            leaves.push(if c == 0 {
                Leaf::new(
                    RandomTraffic::new(
                        &name,
                        base,
                        1 << 19,
                        BurstSize::B16,
                        16,
                        250 + (p as u64 * 37) % 250,
                        (p as u64 * 31 + 17).wrapping_add(seed.wrapping_mul(1_000_003)),
                    ),
                    HaClass::Traffic,
                )
            } else {
                Leaf::new(
                    PeriodicReader::new(
                        &name,
                        base,
                        1 << 19,
                        16,
                        BurstSize::B16,
                        8_000 + (acc_idx as Cycle * 211) % 3_000,
                    ),
                    HaClass::Traffic,
                )
            });
            acc_idx += 1;
        }
        children.push(Child::Cluster(Box::new(Cluster {
            label: format!("cluster{c}"),
            hc: HyperConnect::new(HcConfig::new(ACCS_PER_CLUSTER)),
            bridge: BridgeConfig {
                addr_capacity: 32,
                data_capacity: 256,
                resp_capacity: 32,
                ..BridgeConfig::wire()
            }
            .latency(bench::tree100::BRIDGE_LATENCY),
            leaves,
        })));
    }
    Parts {
        root: HyperConnect::new(HcConfig::new(CLUSTERS)),
        mem: MemoryController::new(MemConfig::zcu102()),
        children,
        observe: false,
    }
}

/// The campaign scenario a base seed draws, in the campaign's draw
/// order (`chaos::derive_scenario(base, 3, 4)`).
struct CampaignScenario {
    ports: usize,
    fault_port: usize,
    /// Index into `chaos::FaultKind`'s declaration order.
    kind: usize,
    permanent: bool,
    victim_periods: Vec<u64>,
}

impl CampaignScenario {
    fn draw(base_seed: u64) -> Self {
        let mut rng = SimRng::seed(base_seed);
        let ports = rng.range_usize(3, 4);
        let fault_port = rng.index(ports);
        let kind = rng.index(4);
        let permanent = rng.chance(0.25);
        let _poll_interval = rng.index(3);
        let victim_periods = (0..ports).map(|_| rng.range_u64(32, 64)).collect();
        Self {
            ports,
            fault_port,
            kind,
            permanent,
            victim_periods,
        }
    }
}

/// The campaign base seeds of a benchmark seed: scanning
/// `campaign::variant_seed(seed, k)` for k = 0, 1, …, the first base
/// seed of each combination of fault kind, port count and permanence.
/// Every seed's run thus covers the same mix of scenario shapes,
/// sixteen campaigns.
pub fn campaign_base_seeds(seed: u64) -> Vec<u64> {
    let mut picked: Vec<((usize, usize, bool), u64)> = Vec::new();
    for k in 0.. {
        let base = axi_hyperconnect::campaign::variant_seed(seed, k);
        let s = CampaignScenario::draw(base);
        let shape = (s.kind, s.ports, s.permanent);
        if !picked.iter().any(|&(p, _)| p == shape) {
            picked.push((shape, base));
            if picked.len() == 16 {
                break;
            }
        }
    }
    picked.into_iter().map(|(_, base)| base).collect()
}

/// A system of the forking campaign's shape for `base_seed`: a
/// HyperConnect with a declared drain model and a 2 000-cycle period in
/// front of a decode-limited memory, periodic victims on every port but
/// the fault port, and the fault model wrapped dormant. Here the fault
/// never arms: the traced loop measures the fault-free campaign system.
fn campaign_shape(base_seed: u64) -> Parts {
    let CampaignScenario {
        ports,
        fault_port,
        kind,
        permanent,
        victim_periods: periods,
    } = CampaignScenario::draw(base_seed);

    let mut root = HyperConnect::new(HcConfig::new(ports));
    let first_word = MemConfig::zcu102().first_word_latency;
    root.set_drain_model(ServiceModel::hyperconnect(ports, 16, first_word).max_outstanding(4));
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, root.regs().clone());
    HcDriver::probe(&bus, HC_BASE)
        .expect("HyperConnect at HC_BASE")
        .set_period(2_000)
        .expect("period register");
    let children = (0..ports)
        .map(|p| {
            Child::Acc(if p == fault_port {
                Leaf::new(
                    DelayedFault::new(fault_model(kind, permanent), 1 << 60),
                    HaClass::Fault,
                )
            } else {
                Leaf::new(
                    PeriodicReader::new(
                        format!("victim{p}"),
                        0x1000_0000 + p as u64 * 0x0400_0000,
                        1 << 20,
                        16,
                        BurstSize::B16,
                        periods[p],
                    ),
                    HaClass::Traffic,
                )
            })
        })
        .collect();
    Parts {
        root,
        mem: MemoryController::new(MemConfig::zcu102().decode_limit(0x4000_0000)),
        children,
        observe: false,
    }
}

/// The campaign's misbehaving master for draw `kind` (the order of
/// `chaos::FaultKind`).
fn fault_model(kind: usize, permanent: bool) -> Box<dyn Accelerator> {
    macro_rules! boxed {
        ($m:expr) => {{
            let m = $m;
            if permanent {
                Box::new(m.permanent()) as Box<dyn Accelerator>
            } else {
                Box::new(m)
            }
        }};
    }
    match kind {
        0 => boxed!(StalledWriter::new(
            "chaos_stall",
            0x2000_0000,
            16,
            BurstSize::B16
        )),
        1 => boxed!(WlastViolator::new(
            "chaos_wlast",
            0x2000_0000,
            16,
            BurstSize::B16
        )),
        2 => boxed!(RogueReader::new(
            "chaos_rogue",
            0x8000_0000,
            16,
            BurstSize::B16
        )),
        _ => boxed!(RunawayMaster::new(
            "chaos_runaway",
            0x3000_0000,
            1 << 20,
            64,
            BurstSize::B16
        )),
    }
}

/// Arms metrics and the runtime bound monitor on `hc` exactly as
/// `SocSystem::enable_observability` does.
pub fn arm_observability(hc: &mut HyperConnect, mem: &MemConfig) {
    let n = hc.num_ports();
    let (nominal, max_out) = hc.regs().with(|rf| {
        let max_out = (0..n)
            .map(|i| rf.port(i).max_outstanding)
            .max()
            .unwrap_or(1);
        (rf.nominal_burst(), max_out)
    });
    let mut model =
        ServiceModel::hyperconnect(n, nominal, mem.first_word_latency).max_outstanding(max_out);
    model.write_resp_latency = mem.write_resp_latency;
    hc.enable_bound_monitor(model);
}

/// A workload assembled through the public entry points.
pub enum Public {
    Flat(Box<SocSystem<HyperConnect>>),
    Tree {
        topo: Box<SocTopology>,
        root: NodeId,
        clusters: Vec<NodeId>,
        mem: NodeId,
    },
}

impl Public {
    /// Assembles `parts`: a flat `SocSystem` when every root port holds
    /// an accelerator, a `TopologyBuilder` tree otherwise.
    pub fn assemble(parts: Parts) -> Self {
        let Parts {
            root,
            mem,
            children,
            observe,
        } = parts;
        if children.iter().all(|c| matches!(c, Child::Acc(_))) {
            let mut sys = SocSystem::new(root, mem);
            if observe {
                sys.enable_observability();
            }
            for child in children {
                let Child::Acc(leaf) = child else {
                    unreachable!("checked flat")
                };
                sys.add_accelerator(leaf.acc).expect("free slave port");
            }
            return Public::Flat(Box::new(sys));
        }
        assert!(!observe, "observability is armed on flat systems only");
        let mut b = TopologyBuilder::new();
        let root_id = b.add_interconnect("root", root).expect("fresh label");
        let mem_id = b.add_memory("ddr", mem).expect("fresh label");
        b.connect_memory(root_id, mem_id)
            .expect("unbound endpoints");
        let mut clusters = Vec::new();
        for (port, child) in children.into_iter().enumerate() {
            match child {
                Child::Acc(leaf) => {
                    let label = leaf.acc.name().to_owned();
                    let a = b.add_accelerator(label, leaf.acc).expect("unique label");
                    b.attach(a, root_id, port).expect("free slave port");
                }
                Child::Cluster(c) => {
                    let id = b.add_interconnect(c.label, c.hc).expect("unique label");
                    b.cascade_with(id, root_id, port, c.bridge)
                        .expect("free slave port");
                    for (p, leaf) in c.leaves.into_iter().enumerate() {
                        let label = leaf.acc.name().to_owned();
                        let a = b.add_accelerator(label, leaf.acc).expect("unique label");
                        b.attach(a, id, p).expect("free slave port");
                    }
                    clusters.push(id);
                }
            }
        }
        Public::Tree {
            topo: Box::new(b.build().expect("valid tree")),
            root: root_id,
            clusters,
            mem: mem_id,
        }
    }

    /// `SocSystem::run_for` / `SocTopology::run_for`.
    pub fn run_for(&mut self, cycles: Cycle) {
        match self {
            Public::Flat(sys) => sys.run_for(cycles),
            Public::Tree { topo, .. } => topo.run_for(cycles),
        }
    }

    /// The metrics export users call at the end of a run.
    pub fn export_metrics(&mut self) -> String {
        match self {
            Public::Flat(sys) => sys.metrics_snapshot_json().unwrap_or_default(),
            Public::Tree { topo, .. } => topo.metrics_snapshot_json(),
        }
    }

    pub fn snapshot_bytes(&self) -> Vec<u8> {
        match self {
            Public::Flat(sys) => sys.snapshot_bytes(),
            Public::Tree { topo, .. } => topo.snapshot_bytes(),
        }
    }

    pub fn restore_snapshot_bytes(&mut self, bytes: &[u8]) -> bool {
        match self {
            Public::Flat(sys) => sys.restore_snapshot_bytes(bytes).is_ok(),
            Public::Tree { topo, .. } => topo.restore_snapshot_bytes(bytes).is_ok(),
        }
    }

    /// The root interconnect.
    pub fn root(&self) -> &HyperConnect {
        match self {
            Public::Flat(sys) => sys.interconnect_ref(),
            Public::Tree { topo, root, .. } => topo
                .interconnect_as::<HyperConnect>(*root)
                .expect("root is a HyperConnect"),
        }
    }
}

/// Read access to an assembled system, whichever engine runs it.
pub trait View {
    fn now(&self) -> Cycle;
    fn skipped(&self) -> Cycle;
    /// The root HyperConnect first, then the clusters in port order.
    fn hcs(&self) -> Vec<&HyperConnect>;
    fn mem(&self) -> &MemoryController;
    /// Accelerators in insertion order.
    fn accs(&self) -> Vec<&dyn Accelerator>;
    /// Bridge counters, in cluster order.
    fn bridges(&self) -> Vec<BridgeStats>;
}

impl View for Public {
    fn now(&self) -> Cycle {
        match self {
            Public::Flat(sys) => sys.now(),
            Public::Tree { topo, .. } => topo.now(),
        }
    }

    fn skipped(&self) -> Cycle {
        match self {
            Public::Flat(sys) => sys.skipped_cycles(),
            Public::Tree { topo, .. } => topo.skipped_cycles(),
        }
    }

    fn hcs(&self) -> Vec<&HyperConnect> {
        let mut out = vec![self.root()];
        if let Public::Tree { topo, clusters, .. } = self {
            out.extend(clusters.iter().map(|&id| {
                topo.interconnect_as::<HyperConnect>(id)
                    .expect("cluster is a HyperConnect")
            }));
        }
        out
    }

    fn mem(&self) -> &MemoryController {
        match self {
            Public::Flat(sys) => sys.memory(),
            Public::Tree { topo, mem, .. } => topo.memory(*mem).expect("memory node"),
        }
    }

    fn accs(&self) -> Vec<&dyn Accelerator> {
        match self {
            Public::Flat(sys) => (0..sys.num_accelerators())
                .map(|i| sys.accelerator(i).expect("ordinal in range"))
                .collect(),
            Public::Tree { topo, .. } => (0..topo.num_accelerators())
                .map(|i| topo.accelerator(i).expect("ordinal in range"))
                .collect(),
        }
    }

    fn bridges(&self) -> Vec<BridgeStats> {
        match self {
            Public::Flat(_) => Vec::new(),
            Public::Tree { topo, clusters, .. } => clusters
                .iter()
                .map(|&id| topo.bridge_stats(id).expect("cascaded cluster"))
                .collect(),
        }
    }
}

/// Byte-exact digest of the simulated state a view exposes: clock and
/// skipped cycles, every accelerator's job count, every HyperConnect's
/// per-port TS statistics, violation totals, periods and metrics, the
/// memory statistics and the bridge counters.
pub fn fingerprint(v: &dyn View) -> String {
    let mut fp = format!("now={} skipped={}", v.now(), v.skipped());
    for acc in v.accs() {
        fp.push_str(&format!(" {}={}", acc.name(), acc.jobs_completed()));
    }
    for (i, hc) in v.hcs().into_iter().enumerate() {
        fp.push_str(&format!(" hc{i}[periods={}", hc.periods_elapsed()));
        for p in 0..hc.config().num_ports {
            fp.push_str(&format!(
                " {:?} viol={}",
                hc.port_stats(p),
                hc.total_violations(p)
            ));
        }
        if let Some(m) = hc.metrics() {
            fp.push_str(&format!(" metrics={}", m.to_json()));
        }
        if let Some(r) = hc.bound_report() {
            fp.push_str(&format!(" bound={}", r.to_json()));
        }
        fp.push(']');
    }
    fp.push_str(&format!(" mem={:?}", v.mem().stats()));
    for b in v.bridges() {
        fp.push_str(&format!(" bridge={}/{}", b.beats_down, b.beats_up));
    }
    fp
}

/// FNV-1a 64 of a fingerprint, the form the pinned values take.
pub fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The exact simulated work counters the per-layer table reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub subs_issued: u64,
    pub budget_stall_cycles: u64,
    pub periods: u64,
    pub throttle_events: u64,
    pub beats_served: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub busy_cycles: u64,
    pub jobs: u64,
    pub bridge_beats: u64,
}

impl Counts {
    pub fn of(v: &dyn View) -> Self {
        let mut c = Counts::default();
        for hc in v.hcs() {
            c.periods += hc.periods_elapsed();
            for p in 0..hc.config().num_ports {
                let s = hc.port_stats(p);
                c.subs_issued += s.subs_issued;
                c.budget_stall_cycles += s.budget_stall_cycles;
            }
            c.throttle_events += throttle_events(hc);
        }
        let m = v.mem().stats();
        c.beats_served = m.beats_served;
        c.row_hits = m.row_hits;
        c.row_misses = m.row_misses;
        c.busy_cycles = m.busy_cycles;
        c.jobs = v.accs().iter().map(|a| a.jobs_completed()).sum();
        c.bridge_beats = v.bridges().iter().map(|b| b.beats_down + b.beats_up).sum();
        c
    }

    /// Counter growth from `before` to `self`.
    pub fn since(self, before: Counts) -> Counts {
        Counts {
            subs_issued: self.subs_issued - before.subs_issued,
            budget_stall_cycles: self.budget_stall_cycles - before.budget_stall_cycles,
            periods: self.periods - before.periods,
            throttle_events: self.throttle_events - before.throttle_events,
            beats_served: self.beats_served - before.beats_served,
            row_hits: self.row_hits - before.row_hits,
            row_misses: self.row_misses - before.row_misses,
            busy_cycles: self.busy_cycles - before.busy_cycles,
            jobs: self.jobs - before.jobs,
            bridge_beats: self.bridge_beats - before.bridge_beats,
        }
    }
}

/// Regulator throttle events of every port, read over AXI-Lite.
fn throttle_events(hc: &HyperConnect) -> u64 {
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let drv = HcDriver::probe(&bus, HC_BASE).expect("HyperConnect at HC_BASE");
    (0..hc.config().num_ports)
        .map(|p| u64::from(drv.throttle_events(p).expect("throttle register")))
        .sum()
}
