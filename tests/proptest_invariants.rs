//! Property-based tests of the system-level invariants, driven by a
//! scripted master executing randomized operation sequences through the
//! full stack (HyperConnect + memory controller).

use std::collections::VecDeque;

use axi::checker::ProtocolMonitor;
use axi::txn::{ReadRequest, WriteRequest};
use axi::types::BurstSize;
use axi::{AxiInterconnect, AxiPort, BridgeConfig, WBeat};
use axi_hyperconnect::{NodeId, SchedulerMode, SocTopology, TopologyBuilder};
use hyperconnect::{HcConfig, HyperConnect};
use mem::{MemConfig, MemoryController};
use proptest::prelude::*;
use sim::{Component, Cycle};
use smartconnect::{ScConfig, SmartConnect};

/// One randomized operation.
#[derive(Debug, Clone)]
enum Op {
    Read { addr: u64, beats: u32 },
    Write { addr: u64, beats: u32, seed: u8 },
}

/// A master that executes operations strictly in sequence (one at a
/// time), recording read-back data for comparison with a shadow model.
struct ScriptedMaster {
    ops: VecDeque<Op>,
    current: Option<Op>,
    // Progress within the current op.
    issued: bool,
    w_sent: u32,
    beats_seen: u32,
    read_back: Vec<u8>,
    tag: u64,
    /// (op index, data) for each completed read.
    reads_done: Vec<Vec<u8>>,
    writes_done: usize,
}

impl ScriptedMaster {
    fn new(ops: Vec<Op>) -> Self {
        Self {
            ops: ops.into(),
            current: None,
            issued: false,
            w_sent: 0,
            beats_seen: 0,
            read_back: Vec::new(),
            tag: 0,
            reads_done: Vec::new(),
            writes_done: 0,
        }
    }

    fn is_done(&self) -> bool {
        self.ops.is_empty() && self.current.is_none()
    }

    fn fill_byte(addr: u64, seed: u8) -> u8 {
        (addr as u8).wrapping_mul(31).wrapping_add(seed)
    }

    fn tick(&mut self, now: Cycle, port: &mut AxiPort) {
        if self.current.is_none() {
            self.current = self.ops.pop_front();
            self.issued = false;
            self.w_sent = 0;
            self.beats_seen = 0;
            self.read_back.clear();
        }
        let Some(op) = self.current.clone() else {
            return;
        };
        match op {
            Op::Read { addr, beats } => {
                if !self.issued && !port.ar.is_full() {
                    let req = ReadRequest::new(addr, beats, BurstSize::B4)
                        .expect("generated reads are legal");
                    port.ar.push(now, req.to_ar(self.tag, now)).unwrap();
                    self.tag += 1;
                    self.issued = true;
                }
                while let Some(beat) = port.r.pop_ready(now) {
                    self.read_back.extend_from_slice(&beat.data);
                    self.beats_seen += 1;
                    if beat.last {
                        assert_eq!(self.beats_seen, beats, "merged read beat count");
                        self.reads_done.push(std::mem::take(&mut self.read_back));
                        self.current = None;
                    }
                }
            }
            Op::Write { addr, beats, seed } => {
                if !self.issued && !port.aw.is_full() {
                    let req = WriteRequest::new(addr, beats, BurstSize::B4)
                        .expect("generated writes are legal");
                    let (aw, _) = req.to_beats(self.tag, now, |_, _| 0);
                    port.aw.push(now, aw).unwrap();
                    self.tag += 1;
                    self.issued = true;
                }
                if self.issued && self.w_sent < beats && !port.w.is_full() {
                    let beat_addr = addr + self.w_sent as u64 * 4;
                    let data: Vec<u8> = (0..4)
                        .map(|b| Self::fill_byte(beat_addr + b, seed))
                        .collect();
                    port.w
                        .push(now, WBeat::new(data, self.w_sent + 1 == beats))
                        .unwrap();
                    self.w_sent += 1;
                }
                if port.b.pop_ready(now).is_some() {
                    self.writes_done += 1;
                    self.current = None;
                }
            }
        }
    }
}

/// A shadow memory model: applies the same ops in order.
fn shadow_expected_reads(ops: &[Op]) -> Vec<Vec<u8>> {
    let mut mem = std::collections::HashMap::<u64, u8>::new();
    let mut reads = Vec::new();
    for op in ops {
        match *op {
            Op::Write { addr, beats, seed } => {
                for i in 0..beats as u64 * 4 {
                    mem.insert(addr + i, ScriptedMaster::fill_byte(addr + i, seed));
                }
            }
            Op::Read { addr, beats } => {
                let data: Vec<u8> = (0..beats as u64 * 4)
                    .map(|i| mem.get(&(addr + i)).copied().unwrap_or(0))
                    .collect();
                reads.push(data);
            }
        }
    }
    reads
}

/// Strategy: ops at 4-byte-aligned addresses inside one 4 KiB page per
/// slot so no burst crosses a page.
fn op_strategy() -> impl Strategy<Value = Op> {
    let place = (0u64..16, 1u32..64).prop_flat_map(|(page, beats)| {
        // Keep the burst inside the page.
        let max_start = 4096 - beats as u64 * 4;
        (Just(page), Just(beats), 0..=max_start / 4)
    });
    prop_oneof![
        place.clone().prop_map(|(page, beats, slot)| Op::Read {
            addr: 0x1_0000 + page * 4096 + slot * 4,
            beats,
        }),
        (place, any::<u8>()).prop_map(|((page, beats, slot), seed)| Op::Write {
            addr: 0x1_0000 + page * 4096 + slot * 4,
            beats,
            seed,
        }),
    ]
}

fn run_script(ops: Vec<Op>, nominal: u32) -> (ScriptedMaster, ProtocolMonitor) {
    let hc = HyperConnect::new(HcConfig::new(2));
    hc.regs()
        .write32(hyperconnect::regfile::offsets::NOMINAL, nominal);
    let mut hc = hc;
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.attach_monitor();
    let mut master = ScriptedMaster::new(ops);
    let mut now = 0;
    while !master.is_done() {
        master.tick(now, hc.port(0));
        hc.tick(now);
        memory.tick(now, hc.mem_port());
        now += 1;
        assert!(now < 5_000_000, "script did not complete");
    }
    // Drain the pipeline.
    for extra in now..now + 200 {
        hc.tick(extra);
        memory.tick(extra, hc.mem_port());
    }
    let monitor = memory.monitor().unwrap().clone();
    (master, monitor)
}

/// The models a generated topology draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Draw {
    /// Clean periodic readers and read-only DMAs.
    Clean,
    /// The whole accelerator zoo — the retrying scoreboard oracle,
    /// random mixed traffic, and the protocol-fault masters (some
    /// behind a dormant arm cycle) — plus a seeded transient-fault
    /// injector on the memory.
    Faults,
    /// `Faults`, plus read+write DMAs, a small CHaiDNN, and
    /// SmartConnect as well as HyperConnect cascade children.
    Everything,
}

/// A two-layer CHaiDNN schedule small enough to cycle through every
/// phase of its layer machine within a short run.
fn tiny_dnn_layers() -> Vec<ha::chaidnn::Layer> {
    let layer = |name, weight_bytes, compute_cycles| ha::chaidnn::Layer {
        name,
        weight_bytes,
        input_bytes: 256,
        output_bytes: 128,
        compute_cycles,
    };
    vec![layer("l0", 512, 90), layer("l1", 256, 40)]
}

/// Deterministically interprets a byte string as a cascaded topology: a
/// worklist of open slave ports is consumed one command byte at a time,
/// each byte either cascading a child interconnect behind a bridge of
/// pseudo-random latency (0 = wire, up to 4), leaving the port empty,
/// or attaching an accelerator. Byte strings are the proptest search
/// space; the interpreter guarantees every produced graph is legal.
///
/// `draw` picks the model zoo (see [`Draw`]).
fn topology_from_bytes(bytes: &[u8], draw: Draw) -> SocTopology {
    let mut b = TopologyBuilder::new();
    let mut memory = MemoryController::new(MemConfig::zcu102());
    if draw != Draw::Clean {
        let seed = bytes
            .iter()
            .fold(17u64, |h, &x| h.wrapping_mul(31) ^ u64::from(x));
        memory.attach_fault_injector(
            mem::MemFaultConfig::new(seed)
                .spurious_slverr(0.02)
                .flip_single(0.02)
                .ecc(true),
        );
    }
    let mem = b.add_memory("ddr", memory).unwrap();
    let root = b
        .add_interconnect("ic0", HyperConnect::new(HcConfig::new(2)))
        .unwrap();
    b.connect_memory(root, mem).unwrap();
    let mut ics = 1usize;
    let mut accs = 0usize;
    // Open (interconnect, slave port, depth) slots, consumed LIFO.
    let mut slots = vec![(root, 0usize, 0usize), (root, 1, 0)];
    let attach_acc =
        |b: &mut TopologyBuilder, accs: &mut usize, ic: NodeId, port: usize, cmd: u8| {
            let name = format!("acc{accs}");
            let base = 0x1000_0000 + *accs as u64 * 0x0080_0000;
            let kind = match draw {
                Draw::Clean => cmd % 2,
                Draw::Faults => cmd % 8,
                Draw::Everything => cmd % 10,
            };
            let acc: Box<dyn ha::Accelerator> = match kind {
                0 => Box::new(ha::traffic::PeriodicReader::new(
                    name.clone(),
                    base,
                    1 << 19,
                    16,
                    BurstSize::B16,
                    20 + u64::from(cmd) * 3,
                )),
                1 => Box::new(ha::dma::Dma::new(
                    name.clone(),
                    ha::dma::DmaConfig {
                        src_base: base,
                        dst_base: base + 0x0040_0000,
                        ..ha::dma::DmaConfig::reader(4096, 16, BurstSize::B16).jobs(2)
                    },
                )),
                2 => Box::new(
                    ha::scoreboard::ScoreboardMaster::new(
                        name.clone(),
                        base,
                        16 * 256,
                        16,
                        BurstSize::B16,
                        u64::from(cmd),
                    )
                    .policy(axi::retry::RetryPolicy {
                        max_attempts: 6,
                        backoff_base: 2,
                        backoff_cap: 32,
                    })
                    .gap(30),
                ),
                3 => Box::new(ha::traffic::RandomTraffic::new(
                    name.clone(),
                    base,
                    1 << 19,
                    BurstSize::B8,
                    32,
                    25,
                    u64::from(cmd),
                )),
                4 => Box::new(ha::fault::WlastViolator::new(
                    name.clone(),
                    base,
                    8,
                    BurstSize::B16,
                )),
                5 => Box::new(ha::fault::DelayedFault::new(
                    Box::new(ha::fault::StalledWriter::new(
                        name.clone(),
                        base,
                        8,
                        BurstSize::B16,
                    )),
                    200 + u64::from(cmd) * 7,
                )),
                6 => Box::new(ha::fault::RogueReader::new(
                    name.clone(),
                    0xF000_0000,
                    4,
                    BurstSize::B4,
                )),
                7 => Box::new(ha::fault::RunawayMaster::new(
                    name.clone(),
                    base,
                    1 << 16,
                    8,
                    BurstSize::B16,
                )),
                8 => Box::new(ha::dma::Dma::new(
                    name.clone(),
                    ha::dma::DmaConfig {
                        src_base: base,
                        dst_base: base + 0x0040_0000,
                        write_bytes: 2048,
                        max_outstanding: 2,
                        ..ha::dma::DmaConfig::reader(4096, 16, BurstSize::B16).jobs(3)
                    },
                )),
                _ => Box::new(ha::chaidnn::Chaidnn::new(
                    name.clone(),
                    tiny_dnn_layers(),
                    ha::chaidnn::ChaidnnConfig {
                        weights_base: base,
                        activations_base: base + 0x0020_0000,
                        ..ha::chaidnn::ChaidnnConfig::default()
                    },
                )),
            };
            let a = b.add_accelerator(name, acc).unwrap();
            b.attach(a, ic, port).unwrap();
            *accs += 1;
        };
    let mut cmds = bytes.iter().copied();
    let mut freed: Option<(NodeId, usize)> = None;
    while let Some((ic, port, depth)) = slots.pop() {
        let Some(cmd) = cmds.next() else {
            slots.push((ic, port, depth));
            break;
        };
        match cmd % 3 {
            0 if depth < 3 && ics < 6 => {
                let ports = 1 + (cmd as usize / 3) % 2;
                let label = format!("ic{ics}");
                let child = if draw == Draw::Everything && (cmd / 6) % 2 == 1 {
                    b.add_interconnect(
                        label,
                        SmartConnect::new(ScConfig::new(ports).seed(cmd.into())),
                    )
                } else {
                    b.add_interconnect(label, HyperConnect::new(HcConfig::new(ports)))
                }
                .unwrap();
                let latency = u64::from(cmd / 16) % 5;
                b.cascade_with(child, ic, port, BridgeConfig::wire().latency(latency))
                    .unwrap();
                for p in (0..ports).rev() {
                    slots.push((child, p, depth + 1));
                }
                ics += 1;
            }
            1 => freed = Some((ic, port)), // port left unconnected
            _ => attach_acc(&mut b, &mut accs, ic, port, cmd),
        }
    }
    // Keep the workload non-trivial: at least one traffic source. The
    // worklist starts with the root's two ports and only shrinks when a
    // port is dropped or filled, so with zero accelerators either an
    // open slot or a dropped port must exist.
    if accs == 0 {
        let (ic, port) = slots
            .pop()
            .map(|(ic, p, _)| (ic, p))
            .or(freed)
            .expect("no open or dropped port despite zero accelerators");
        attach_acc(&mut b, &mut accs, ic, port, 5);
    }
    b.build().unwrap()
}

/// A retrying scoreboard reaching a fault-injecting memory through a
/// seeded `FaultyBridge`, driven cycle by cycle.
struct FaultyChain {
    sb: ha::scoreboard::ScoreboardMaster,
    bridge: axi::FaultyBridge,
    ctrl: MemoryController,
    up: AxiPort,
    down: AxiPort,
}

impl FaultyChain {
    fn new(seed: u64, flip_milli: u64, drop_milli: u64, stall_milli: u64) -> Self {
        let milli = |m: u64| m as f64 / 1000.0;
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        ctrl.attach_fault_injector(mem::MemFaultConfig::new(seed ^ 0x55).spurious_slverr(0.05));
        Self {
            sb: ha::scoreboard::ScoreboardMaster::new("sb", 0x1000, 4096, 4, BurstSize::B4, seed)
                .policy(axi::retry::RetryPolicy {
                    max_attempts: 8,
                    backoff_base: 3,
                    backoff_cap: 48,
                }),
            bridge: axi::FaultyBridge::new(
                axi::FaultyBridgeConfig::new(seed)
                    .flip_r(milli(flip_milli))
                    .drop_r(milli(drop_milli))
                    .stall(milli(stall_milli), 4),
            ),
            ctrl,
            up: AxiPort::default(),
            down: AxiPort::default(),
        }
    }

    fn run(&mut self, from: Cycle, to: Cycle) {
        use ha::Accelerator;
        for now in from..to {
            self.sb.tick(now, &mut self.up);
            self.bridge.transfer(now, &mut self.up, &mut self.down);
            self.ctrl.tick(now, &mut self.down);
        }
    }

    fn image(&self) -> Vec<u8> {
        use ha::Accelerator;
        use sim::persist::PersistValue;
        let mut w = sim::persist::SnapshotWriter::new();
        self.sb.save_state(&mut w);
        self.bridge.save_value(&mut w);
        self.up.save_value(&mut w);
        self.down.save_value(&mut w);
        self.ctrl.save_state(&mut w);
        w.into_bytes()
    }

    fn restore(&mut self, image: &[u8]) {
        use ha::Accelerator;
        use sim::persist::Persist;
        let mut r = sim::persist::SnapshotReader::new(image);
        self.sb.restore_state(&mut r).unwrap();
        self.bridge.restore(&mut r).unwrap();
        self.up.restore(&mut r).unwrap();
        self.down.restore(&mut r).unwrap();
        self.ctrl.restore_state(&mut r).unwrap();
        assert_eq!(r.remaining(), 0, "image not fully consumed");
    }
}

/// Runs a probe DMA reading beside a saturating `BandwidthStealer` on a
/// two-port HyperConnect (nominal `1 << nominal_pow`, `max_out`
/// outstanding per port) and checks the worst observed read latency
/// against the closed-form bound.
fn read_bound_holds(nominal_pow: u32, max_out: u32) {
    use ha::Accelerator;
    let nominal = 1 << nominal_pow;
    let hc = HyperConnect::new(HcConfig::new(2));
    hc.regs()
        .write32(hyperconnect::regfile::offsets::NOMINAL, nominal);
    for p in 0..2 {
        let off = hyperconnect::regfile::port_block_offset(p)
            + hyperconnect::regfile::offsets::PORT_MAX_OUT;
        hc.regs().write32(off, max_out);
    }
    let mut hc = hc;
    let mut memory = MemoryController::new(MemConfig::zcu102());
    let mut probe = ha::dma::Dma::new(
        "probe",
        ha::dma::DmaConfig {
            read_bytes: 1 << 16,
            write_bytes: 0,
            burst_beats: nominal,
            max_outstanding: 1,
            jobs: None,
            ..ha::dma::DmaConfig::case_study()
        },
    );
    let mut aggr =
        ha::traffic::BandwidthStealer::new("a", 0x3000_0000, 1 << 20, 256, BurstSize::B16);
    for now in 0..300_000u64 {
        probe.tick(now, hc.port(0));
        aggr.tick(now, hc.port(1));
        hc.tick(now);
        memory.tick(now, hc.mem_port());
    }
    let observed = probe.read_txn_latency().and_then(|l| l.max()).unwrap_or(0);
    let model = hyperconnect::analysis::ServiceModel::hyperconnect(
        2,
        nominal,
        MemConfig::zcu102().first_word_latency,
    )
    .max_outstanding(max_out);
    prop_assert!(
        observed <= model.worst_case_read_latency(),
        "observed {} > bound {} (nominal {}, K {})",
        observed,
        model.worst_case_read_latency(),
        nominal,
        max_out
    );
}

/// Runs a write-only probe DMA beside a write-only aggressor DMA on a
/// two-port HyperConnect (nominal `1 << nominal_pow`, `max_out`
/// outstanding per port) and checks the worst observed write latency
/// against the closed-form bound.
fn write_bound_holds(nominal_pow: u32, max_out: u32) {
    use ha::Accelerator;
    let nominal = 1 << nominal_pow;
    let hc = HyperConnect::new(HcConfig::new(2));
    hc.regs()
        .write32(hyperconnect::regfile::offsets::NOMINAL, nominal);
    for p in 0..2 {
        let off = hyperconnect::regfile::port_block_offset(p)
            + hyperconnect::regfile::offsets::PORT_MAX_OUT;
        hc.regs().write32(off, max_out);
    }
    let mut hc = hc;
    let mut memory = MemoryController::new(MemConfig::zcu102());
    // Write-only probe with a one-transaction window.
    let mut probe = ha::dma::Dma::new(
        "probe",
        ha::dma::DmaConfig {
            src_base: 0,
            dst_base: 0x2000_0000,
            read_bytes: 0,
            write_bytes: 1 << 16,
            burst_beats: nominal,
            max_outstanding: 1,
            jobs: None,
            size: axi::types::BurstSize::B16,
        },
    );
    // Write-only aggressor saturating the bus.
    let mut aggr = ha::dma::Dma::new(
        "aggr",
        ha::dma::DmaConfig {
            src_base: 0,
            dst_base: 0x3000_0000,
            read_bytes: 0,
            write_bytes: 1 << 20,
            burst_beats: 256,
            max_outstanding: 8,
            jobs: None,
            size: axi::types::BurstSize::B16,
        },
    );
    for now in 0..300_000u64 {
        probe.tick(now, hc.port(0));
        aggr.tick(now, hc.port(1));
        hc.tick(now);
        memory.tick(now, hc.mem_port());
    }
    let observed = hc.write_latency(0).max().unwrap_or(0);
    prop_assert!(observed > 0, "probe never completed a write");
    let model = hyperconnect::analysis::ServiceModel::hyperconnect(
        2,
        nominal,
        MemConfig::zcu102().first_word_latency,
    )
    .max_outstanding(max_out);
    prop_assert!(
        observed <= model.worst_case_write_latency(),
        "observed {} > bound {} (nominal {}, K {})",
        observed,
        model.worst_case_write_latency(),
        nominal,
        max_out
    );
}

/// The case once recorded as a shrunk failure (nominal 16, one
/// outstanding transaction per port), run on every test pass: the
/// properties below draw their inputs at random and need not hit it.
#[test]
fn bounds_hold_at_nominal_16_single_outstanding() {
    read_bound_holds(4, 1);
    write_bound_holds(4, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The wake calendar on arbitrary graphs: any generated topology
    /// (bridge latencies 0–4, so wire and registered edges mix; the
    /// fault zoo optional), run through `run_polled` at a random cadence,
    /// is byte-identical under fast-forward and naive stepping — clock,
    /// IRQ order, stall attribution, metrics snapshot and the full
    /// persisted image. The hook drains IRQs on every poll and, at the
    /// first poll at or after `poke`, rewrites port 0's budget and the
    /// period of HyperConnect `ic{target}` (`ic0` when there is none),
    /// which may be asleep.
    #[test]
    fn naive_runs_match_fast_forward_on_any_topology(
        bytes in proptest::collection::vec(any::<u8>(), 4..48),
        faults in any::<bool>(),
        split in 1u64..6_000,
        target in 0usize..6,
        poke in 0u64..12_000,
    ) {
        use hyperconnect::regfile::{offsets, port_block_offset};
        const CYCLES: Cycle = 12_000;
        let run = |mode: SchedulerMode| {
            let draw = if faults { Draw::Faults } else { Draw::Clean };
            let mut topo = topology_from_bytes(&bytes, draw);
            topo.set_scheduler(mode);
            let ic = topo
                .node_by_label(&format!("ic{target}"))
                .or_else(|| topo.node_by_label("ic0"))
                .unwrap();
            let mut irqs = Vec::new();
            let mut poked = false;
            topo.run_polled(CYCLES, split, |now, topo| {
                irqs.extend(topo.take_irq_events());
                if !poked && now >= poke {
                    poked = true;
                    let regs = topo.interconnect_as::<HyperConnect>(ic).unwrap().regs();
                    regs.write32(port_block_offset(0) + offsets::PORT_BUDGET, 3);
                    regs.write32(offsets::PERIOD, 700);
                }
            });
            irqs.extend(topo.take_irq_events());
            (topo, irqs)
        };
        let (mut naive, naive_irqs) = run(SchedulerMode::Naive);
        let (mut fast, fast_irqs) = run(SchedulerMode::FastForward);
        prop_assert_eq!(naive.now(), fast.now());
        prop_assert_eq!(naive_irqs, fast_irqs);
        prop_assert_eq!(naive.last_active(), fast.last_active());
        prop_assert_eq!(naive.metrics_snapshot_json(), fast.metrics_snapshot_json());
        prop_assert!(
            naive.snapshot_bytes() == fast.snapshot_bytes(),
            "persisted images differ after {} cycles", CYCLES
        );
    }

    /// Save/restore symmetry across every persisted layer: any
    /// generated topology (every model of [`Draw::Everything`]: fault
    /// models, scoreboard, fault injector, write-back DMAs, CHaiDNN and
    /// SmartConnect children), frozen at any cycle, restores into a
    /// fresh identical build that re-saves the same bytes and then runs
    /// in lockstep with the original to the same final image.
    #[test]
    fn snapshot_roundtrip_is_exact_on_any_topology(
        bytes in proptest::collection::vec(any::<u8>(), 4..48),
        warm in 1u64..3_000,
        tail in 1u64..2_000,
    ) {
        let mut original = topology_from_bytes(&bytes, Draw::Everything);
        original.run_for(warm);
        let image = original.snapshot_bytes();
        let mut restored = topology_from_bytes(&bytes, Draw::Everything);
        if let Err(e) = restored.restore_snapshot_bytes(&image) {
            panic!("restore into an identical build failed: {e:?}");
        }
        prop_assert!(
            restored.snapshot_bytes() == image,
            "re-saved image differs from the restored one at cycle {}", warm
        );
        let mut left = tail;
        while left > 0 {
            let step = left.min(250);
            original.run_for(step);
            restored.run_for(step);
            left -= step;
        }
        prop_assert!(
            original.snapshot_bytes() == restored.snapshot_bytes(),
            "restored copy diverged within {} cycles of cycle {}", tail, warm
        );
    }

    /// The same symmetry for `FaultyBridge` edges, which the topology
    /// builder does not place: a retrying scoreboard → FaultyBridge →
    /// faulty memory chain with any flip/drop/stall mix, frozen at any
    /// cycle, restores into a fresh identical chain that re-saves the
    /// same bytes and then runs in lockstep to the same final image.
    #[test]
    fn snapshot_roundtrip_is_exact_through_a_faulty_bridge(
        seed in 1u64..1u64 << 32,
        flip_milli in 0u64..300,
        drop_milli in 0u64..100,
        warm in 1u64..3_000,
        tail in 1u64..2_000,
    ) {
        let stall_milli = seed % 200;
        let mut original = FaultyChain::new(seed, flip_milli, drop_milli, stall_milli);
        original.run(0, warm);
        let image = original.image();
        let mut restored = FaultyChain::new(seed, flip_milli, drop_milli, stall_milli);
        restored.restore(&image);
        prop_assert!(
            restored.image() == image,
            "re-saved image differs from the restored one at cycle {}", warm
        );
        original.run(warm, warm + tail);
        restored.run(warm, warm + tail);
        prop_assert!(
            original.image() == restored.image(),
            "restored chain diverged within {} cycles of cycle {}", tail, warm
        );
    }

    /// End-to-end sequential consistency: reads observe exactly the
    /// data of the writes that preceded them, through splitting,
    /// merging, arbitration and the real memory controller — for any
    /// operation sequence and any nominal burst size.
    #[test]
    fn scripted_ops_are_sequentially_consistent(
        ops in proptest::collection::vec(op_strategy(), 1..24),
        nominal in 1u32..32,
    ) {
        let expected = shadow_expected_reads(&ops);
        let (master, monitor) = run_script(ops, nominal);
        prop_assert_eq!(master.reads_done.len(), expected.len());
        for (i, (got, want)) in master.reads_done.iter().zip(&expected).enumerate() {
            prop_assert_eq!(got, want, "read {} data mismatch", i);
        }
        prop_assert!(monitor.is_clean(), "{:?}", monitor.errors());
        prop_assert_eq!(monitor.reads_outstanding(), 0);
        prop_assert_eq!(monitor.writes_outstanding(), 0);
    }

    /// The reservation budget is never exceeded in any period, for any
    /// budget/period combination, measured at the memory boundary.
    #[test]
    fn budget_never_exceeded(
        budget in 1u32..40,
        period in 500u32..4000,
    ) {
        use ha::Accelerator;
        let hc = HyperConnect::new(HcConfig::new(1));
        hc.regs().write32(hyperconnect::regfile::offsets::PERIOD, period);
        let p0 = hyperconnect::regfile::port_block_offset(0);
        hc.regs().write32(p0 + hyperconnect::regfile::offsets::PORT_BUDGET, budget);
        let mut hc = hc;
        let mut memory = MemoryController::new(MemConfig::zcu102());
        memory.attach_request_trace();
        let mut gen = ha::traffic::BandwidthStealer::new(
            "g", 0x1000_0000, 1 << 20, 64, BurstSize::B16);
        for now in 0..20_000u64 {
            gen.tick(now, hc.port(0));
            hc.tick(now);
            memory.tick(now, hc.mem_port());
        }
        let mut log = sim::stats::EventLog::new();
        for &(cycle, _) in memory.ar_trace().unwrap() {
            log.record(cycle);
        }
        // Aligned windows, shifted by the 3-cycle EXBAR-to-memory lag.
        for start in (0..20_000u64).step_by(period as usize) {
            let n = log.count_in_window(start + 3, period as u64);
            prop_assert!(
                n as u32 <= budget,
                "{} sub-txns in period at {} exceeds budget {}", n, start, budget
            );
        }
    }

    /// The worst-case latency bound holds for random nominal sizes and
    /// outstanding limits under adversarial two-port contention.
    #[test]
    fn analysis_bound_is_sound(
        nominal_pow in 2u32..6, // nominal = 4..32
        max_out in 1u32..6,
    ) {
        read_bound_holds(nominal_pow, max_out);
    }

    /// Interleaving any misbehaving master with a well-behaved scripted
    /// master never corrupts the well-behaved port's data: reads still
    /// observe exactly the writes that preceded them, the memory-side
    /// protocol monitor stays clean, and a zero-tolerance watchdog
    /// (decouple at the first structured violation) is enough to keep
    /// the script completing.
    #[test]
    fn faults_never_corrupt_well_behaved_data(
        ops in proptest::collection::vec(op_strategy(), 1..16),
        nominal in 4u32..32,
        fault in 0usize..5,
    ) {
        use ha::Accelerator;
        let expected = shadow_expected_reads(&ops);
        let hc = HyperConnect::new(HcConfig::new(2));
        hc.regs().write32(hyperconnect::regfile::offsets::NOMINAL, nominal);
        let mut hc = hc;
        let mut memory = MemoryController::new(
            MemConfig::zcu102().decode_limit(0x4000_0000));
        memory.attach_monitor();
        let mut faulty: Box<dyn Accelerator> = match fault {
            0 => Box::new(ha::fault::RogueReader::new(
                "rogue", 0x8000_0000, 8, BurstSize::B16)),
            1 => Box::new(ha::fault::BoundaryViolator::new(
                "cross", 0x2000_0000, 16, BurstSize::B16)),
            2 => Box::new(ha::fault::WlastViolator::new(
                "wlast", 0x2000_0000, 8, BurstSize::B16)),
            3 => Box::new(ha::fault::StalledWriter::new(
                "hung", 0x2000_0000, 8, BurstSize::B16)),
            _ => Box::new(ha::fault::RunawayMaster::new(
                "runaway", 0x2000_0000, 1 << 20, 16, BurstSize::B16)),
        };
        let mut master = ScriptedMaster::new(ops);
        let mut decoupled = false;
        let mut now = 0;
        while !master.is_done() {
            master.tick(now, hc.port(0));
            if !decoupled {
                faulty.tick(now, hc.port(1));
            }
            hc.tick(now);
            memory.tick(now, hc.mem_port());
            // Zero-tolerance watchdog: the first structured violation
            // decouples the offender.
            if !decoupled && hc.total_violations(1) > 0 {
                let off = hyperconnect::regfile::port_block_offset(1)
                    + hyperconnect::regfile::offsets::PORT_CTRL;
                hc.regs().write32(off, 0);
                decoupled = true;
            }
            now += 1;
            prop_assert!(now < 5_000_000, "script did not complete");
        }
        for extra in now..now + 400 {
            hc.tick(extra);
            memory.tick(extra, hc.mem_port());
        }
        prop_assert_eq!(master.reads_done.len(), expected.len());
        for (i, (got, want)) in master.reads_done.iter().zip(&expected).enumerate() {
            prop_assert_eq!(got, want, "read {} data mismatch under fault {}", i, fault);
        }
        let monitor = memory.monitor().unwrap();
        prop_assert!(monitor.is_clean(), "{:?}", monitor.errors());
        // The well-behaved port itself reported nothing.
        prop_assert_eq!(hc.total_violations(0), 0);
    }

    /// A decoupled port never completes a transfer, whatever traffic its
    /// master generates — the eFIFO grounds everything.
    #[test]
    fn decoupled_port_never_completes(
        seed in any::<u64>(),
        nominal in 4u32..32,
    ) {
        use ha::Accelerator;
        let hc = HyperConnect::new(HcConfig::new(2));
        hc.regs().write32(hyperconnect::regfile::offsets::NOMINAL, nominal);
        let off = hyperconnect::regfile::port_block_offset(0)
            + hyperconnect::regfile::offsets::PORT_CTRL;
        hc.regs().write32(off, 0); // decoupled before any traffic
        let mut hc = hc;
        let mut memory = MemoryController::new(MemConfig::zcu102());
        let mut gen = ha::traffic::RandomTraffic::new(
            "g", 0x1000_0000, 1 << 20, BurstSize::B16, 16, 3, seed);
        for now in 0..20_000u64 {
            gen.tick(now, hc.port(0));
            hc.tick(now);
            memory.tick(now, hc.mem_port());
        }
        prop_assert_eq!(gen.jobs_completed(), 0);
        // Nothing from the decoupled port ever reached the memory.
        prop_assert_eq!(memory.stats().reads_served, 0);
        prop_assert_eq!(memory.stats().writes_served, 0);
    }

    /// The write-path bound holds under adversarial write interference.
    #[test]
    fn write_bound_is_sound(
        nominal_pow in 2u32..6,
        max_out in 1u32..5,
    ) {
        write_bound_holds(nominal_pow, max_out);
    }

    /// Quiescent drain terminates within the analysis-derived deadline
    /// for protocol-compliant masters: after a quiesce request the port
    /// reports `DRAINED` within `ServiceModel::drain_deadline()` cycles
    /// and never needs the force-flush escape hatch — for any nominal
    /// size, outstanding limit and request instant, under adversarial
    /// interference on the other port.
    #[test]
    fn drain_completes_within_deadline_for_compliant_masters(
        nominal_pow in 2u32..6, // nominal = 4..32
        max_out in 1u32..5,
        warmup in 500u64..3000,
    ) {
        use ha::Accelerator;
        let nominal = 1 << nominal_pow;
        let mut model = hyperconnect::analysis::ServiceModel::hyperconnect(
            2, nominal, MemConfig::zcu102().first_word_latency,
        ).max_outstanding(max_out);
        model.write_resp_latency = MemConfig::zcu102().write_resp_latency;
        let hc = HyperConnect::new(HcConfig::new(2));
        hc.regs().write32(hyperconnect::regfile::offsets::NOMINAL, nominal);
        for p in 0..2 {
            let off = hyperconnect::regfile::port_block_offset(p)
                + hyperconnect::regfile::offsets::PORT_MAX_OUT;
            hc.regs().write32(off, max_out);
        }
        let mut hc = hc;
        hc.set_drain_model(model);
        let mut memory = MemoryController::new(MemConfig::zcu102());
        // Mixed read+write compliant master on the quiesced port; an
        // aggressor keeps the shared pipeline saturated throughout.
        let mut probe = ha::dma::Dma::new("probe", ha::dma::DmaConfig {
            read_bytes: 1 << 14,
            write_bytes: 1 << 14,
            burst_beats: nominal,
            max_outstanding: max_out,
            jobs: None,
            ..ha::dma::DmaConfig::case_study()
        });
        let mut aggr = ha::traffic::BandwidthStealer::new(
            "a", 0x3000_0000, 1 << 20, 64, BurstSize::B16);
        for now in 0..warmup {
            probe.tick(now, hc.port(0));
            aggr.tick(now, hc.port(1));
            hc.tick(now);
            memory.tick(now, hc.mem_port());
        }
        let q = hyperconnect::regfile::port_block_offset(0)
            + hyperconnect::regfile::offsets::PORT_QUIESCE;
        hc.regs().write32(q, hyperconnect::regfile::QUIESCE_REQUESTED);
        let deadline = model.drain_deadline();
        let mut drained_at = None;
        for now in warmup..warmup + deadline + 2 {
            // The compliant master keeps ticking: a quiesced port still
            // owes W beats for writes already ingested.
            probe.tick(now, hc.port(0));
            aggr.tick(now, hc.port(1));
            hc.tick(now);
            memory.tick(now, hc.mem_port());
            let status = hc.regs().read32(q);
            prop_assert_eq!(
                status & hyperconnect::regfile::QUIESCE_FLUSHED, 0,
                "compliant drain force-flushed at cycle {}", now
            );
            if status & hyperconnect::regfile::QUIESCE_DRAINED != 0 {
                drained_at = Some(now);
                break;
            }
        }
        prop_assert!(
            drained_at.is_some(),
            "drain missed deadline {} (nominal {}, K {}, warmup {})",
            deadline, nominal, max_out, warmup
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Transient-fault liveness and integrity: for ANY bounded
    /// transient-fault stream (random seed, spurious-SLVERR and
    /// single-bit-flip rates) the retry policy eventually completes
    /// every burst with correct, verified data — no aborts, no silent
    /// corruption, and every completion inside the closed-form bound.
    /// The naive and fast-forward schedulers must agree byte-for-byte
    /// on the final system image, so fault draws are schedule-invariant.
    #[test]
    fn retries_complete_any_bounded_transient_fault_stream(
        seed in 1u64..u64::MAX,
        slverr_milli in 10u64..180,
        flip_milli in 0u64..80,
        oracle_seed in 1u64..1u64 << 32,
    ) {
        let policy = axi::retry::RetryPolicy {
            max_attempts: 12,
            backoff_base: 2,
            backoff_cap: 64,
        };
        let build = |mode: SchedulerMode| {
            let mut memory = MemoryController::new(MemConfig::zcu102());
            memory.attach_fault_injector(
                mem::MemFaultConfig::new(seed)
                    .spurious_slverr(slverr_milli as f64 / 1000.0)
                    .flip_single(flip_milli as f64 / 1000.0)
                    .ecc(true),
            );
            let mut sys = axi_hyperconnect::SocSystem::new(
                HyperConnect::new(HcConfig::new(2)),
                memory,
            );
            sys.set_scheduler(mode);
            sys.add_accelerator(Box::new(
                ha::scoreboard::ScoreboardMaster::new(
                    "oracle", 0x2000_0000, 16 * 256, 16, BurstSize::B16, oracle_seed,
                )
                .policy(policy)
                .jobs(12),
            ))
            .unwrap();
            sys.add_accelerator(Box::new(ha::traffic::PeriodicReader::new(
                "victim", 0x1000_0000, 1 << 20, 16, BurstSize::B16, 60,
            )))
            .unwrap();
            sys
        };

        use ha::Accelerator as _;
        let mut naive = build(SchedulerMode::Naive);
        naive.run_for(60_000);
        let sb = naive
            .accelerator(0)
            .unwrap()
            .as_any()
            .downcast_ref::<ha::scoreboard::ScoreboardMaster>()
            .unwrap();
        let s = sb.stats();
        prop_assert!(sb.is_done(), "oracle did not finish: {:?}", s);
        prop_assert_eq!(s.bursts_verified, 12, "{:?}", s);
        prop_assert_eq!(s.silent_corruptions, 0, "{:?}", s);
        prop_assert_eq!(s.aborted_ops, 0, "{:?}", s);
        let model = hyperconnect::analysis::ServiceModel::hyperconnect(
            2, 16, MemConfig::zcu102().first_word_latency,
        ).max_outstanding(4);
        let bound = model.retry_completion_bound(&policy, s.worst_faults_per_op + 1);
        prop_assert!(
            s.worst_completion <= bound,
            "worst completion {} exceeds bound {}", s.worst_completion, bound
        );

        let mut ff = build(SchedulerMode::FastForward);
        ff.run_for(60_000);
        prop_assert_eq!(
            naive.snapshot_bytes(),
            ff.snapshot_bytes(),
            "fault draws drifted between naive and fast-forward schedules"
        );
    }
}
