//! Sharded execution of a [`SocTopology`]: partition the interconnect
//! forest at registered-bridge boundaries and run each shard on a
//! worker thread of the conservative-lookahead engine in
//! [`sim::parallel`].
//!
//! # Partitioning rule
//!
//! Every cascade edge carrying an [`AxiBridge`] with latency ≥ 1 is a
//! *cut*: the child subtree becomes its own shard. Wire (latency-0)
//! bridges provide no lookahead and keep the child in its parent's
//! shard. Accelerators stay with the interconnect that owns their
//! slave port; each memory controller stays with its root. Every node
//! therefore lands in exactly one shard — the invariant the property
//! tests pin via [`SocTopology::shard_plan`].
//!
//! # Exactness
//!
//! Within a shard, the per-cycle schedule is the sequential engine's
//! schedule restricted to the shard's nodes — same loop, same order.
//! Across a cut, the bridge is split into the half-pair of
//! [`axi::bridge`]: beats travel in batches exchanged every
//! `W = min cut latency` cycles, land in consumer-side mirror pipes at
//! their original entry cycles, and therefore become ready on exactly
//! the sequential schedule (a beat entering at cycle `c` is ready at
//! `c + L ≥ c + W`, always after the next exchange). The only
//! approximate coupling is the entry-occupancy gate, which stalls
//! conservatively and counts every decision that was not provably
//! identical to the sequential one — a run reporting zero
//! [`ShardRunReport::ambiguous_stalls`] is byte-identical.

use axi::{AxiBridge, BridgeBatch, ChildHalf, ParentHalf};
use sim::parallel::{RunOptions, ShardTask, ShardedEngine, WindowReport};
use sim::Cycle;

use super::{partition, Node, NodeId, NodeKind, ShardCut, SocTopology};

/// Disjoint mutable access to two owned slots of a sparse node table.
fn two_nodes_opt(nodes: &mut [Option<Node>], a: usize, b: usize) -> (&mut Node, &mut Node) {
    debug_assert_ne!(a, b);
    let (x, y) = if a < b {
        let (lo, hi) = nodes.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = nodes.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    };
    (
        x.as_mut().expect("owned node"),
        y.as_mut().expect("owned node"),
    )
}

/// How a topology would be partitioned for sharded execution.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Node membership per shard; every topology node appears in
    /// exactly one entry.
    pub shards: Vec<Vec<NodeId>>,
    /// The exchange window: the minimum cut latency, or `None` when
    /// the forest has no cut (single-shard topologies run sequentially).
    pub window: Option<Cycle>,
    /// The severed cascade edges.
    pub cuts: Vec<ShardCut>,
}

/// What the most recent sharded run did — the observability the
/// differential suite and the benchmark harness assert against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRunReport {
    /// Shards the forest was partitioned into.
    pub shards: usize,
    /// Worker threads actually used.
    pub workers: usize,
    /// Exchange window in cycles (0 for a single-shard fallback run).
    pub window: Cycle,
    /// Bulk-synchronous rounds executed.
    pub rounds: u64,
    /// Cycles the engine-level fast-forward jumped over.
    pub engine_skipped: Cycle,
    /// Cross-shard batches routed.
    pub messages: u64,
    /// Entry-gate decisions that could not be proven identical to the
    /// sequential schedule (see [`axi::ParentHalf::ambiguous_stalls`]).
    /// Zero ⇒ the run is byte-identical to the sequential scheduler.
    pub ambiguous_stalls: u64,
}

impl SocTopology {
    /// Computes how the sharded scheduler would partition this
    /// topology, without running anything: node membership per shard,
    /// the severed edges, and the exchange window. The partition is a
    /// pure function of the graph, so it is identical before and after
    /// any run.
    pub fn shard_plan(&self) -> ShardPlan {
        let p = partition(&self.nodes, &self.roots);
        ShardPlan {
            shards: p
                .members
                .iter()
                .map(|m| m.iter().map(|&g| NodeId(g)).collect())
                .collect(),
            window: p.cuts.iter().map(|c| c.latency).min(),
            cuts: p.cuts,
        }
    }
}

/// A batch crossing a cut, tagged with its edge and direction.
struct ShardMsg {
    edge: usize,
    to_parent: bool,
    batch: BridgeBatch,
}

/// Which kind of root a shard executes.
enum ShardRoot {
    /// A forest root: owns a memory controller (global id).
    Global { mem: usize },
    /// A severed cascade child: owns the child half of cut `edge`.
    CutChild { edge: usize },
}

/// One shard: a sparse (globally-indexed) slice of the topology plus
/// the bridge halves of its cut edges.
struct ShardExec {
    /// `Some` exactly for owned nodes; global indexing throughout.
    nodes: Vec<Option<Node>>,
    stamps: Vec<Option<Cycle>>,
    root: usize,
    root_kind: ShardRoot,
    /// Cut ports owned by this shard's interconnects:
    /// `(interconnect global id, slave port, cut-edge id)`.
    cut_ports: Vec<(usize, usize, usize)>,
    /// Parent-side halves, indexed by cut-edge id (`None` when the
    /// edge's parent is another shard).
    parent_halves: Vec<Option<ParentHalf>>,
    child_half: Option<ChildHalf>,
    /// Destination shard per edge, as seen from this shard.
    edge_child_shard: Vec<usize>,
    edge_parent_shard: Vec<usize>,
    /// Global DFS rank per node (IRQ merge key).
    rank: Vec<u64>,
    /// IRQ emissions: `(cycle, rank, ordinal)`.
    irq: Vec<(Cycle, u64, usize)>,
    done_local: usize,
    acc_total: usize,
    now: Cycle,
    has_wave: bool,
    /// Exit confirmations already sent per edge, to suppress
    /// no-information batches (which would defeat the engine skip).
    sent_popped: Vec<[u64; 5]>,
}

impl ShardExec {
    /// Sequential `tick_subtree`, restricted to this shard: identical
    /// loop and order, with cut child ports running the parent bridge
    /// half in place of the recursion + transfer.
    fn tick_subtree(&mut self, id: usize, now: Cycle) -> bool {
        let mut progress = false;
        let num_ports = match &self.nodes[id].as_ref().expect("owned").kind {
            NodeKind::Interconnect(icn) => icn.children.len(),
            _ => unreachable!("subtree roots are interconnects"),
        };
        for port in 0..num_ports {
            let child = match &self.nodes[id].as_ref().expect("owned").kind {
                NodeKind::Interconnect(icn) => icn.children[port]
                    .as_ref()
                    .map(|c| (c.node, c.bridge.is_some())),
                _ => None,
            };
            let Some((cid, cascaded)) = child else {
                continue;
            };
            if let Some(edge) = self.edge_for_port(id, port) {
                // Cut port: the child subtree runs in another shard;
                // this side's bridge work is the parent half.
                debug_assert!(self.nodes[cid].is_none(), "cut child is not owned");
                let mut half = self.parent_halves[edge].take().expect("parent half");
                let NodeKind::Interconnect(picn) =
                    &mut self.nodes[id].as_mut().expect("owned").kind
                else {
                    unreachable!("parent is an interconnect");
                };
                let moved = half.run_cycle(now, picn.ic.port(port));
                self.parent_halves[edge] = Some(half);
                if moved {
                    self.stamps[cid] = Some(now);
                }
                progress |= moved;
                continue;
            }
            if cascaded {
                progress |= self.tick_subtree(cid, now);
                let (parent, child_node) = two_nodes_opt(&mut self.nodes, id, cid);
                let NodeKind::Interconnect(picn) = &mut parent.kind else {
                    unreachable!("parent is an interconnect");
                };
                let NodeKind::Interconnect(cicn) = &mut child_node.kind else {
                    unreachable!("cascaded child is an interconnect");
                };
                let bridge = picn.children[port]
                    .as_mut()
                    .and_then(|c| c.bridge.as_mut())
                    .expect("cascaded child has a bridge");
                let moved = bridge.transfer(now, cicn.ic.mem_port(), picn.ic.port(port));
                if moved {
                    self.stamps[cid] = Some(now);
                }
                progress |= moved;
            } else {
                let (parent, child_node) = two_nodes_opt(&mut self.nodes, id, cid);
                let NodeKind::Interconnect(picn) = &mut parent.kind else {
                    unreachable!("parent is an interconnect");
                };
                let NodeKind::Accelerator(a) = &mut child_node.kind else {
                    unreachable!("non-cascaded child is an accelerator");
                };
                let p = a.acc.tick(now, picn.ic.port(port));
                if p {
                    self.stamps[cid] = Some(now);
                }
                progress |= p;
                let jobs = a.acc.jobs_completed();
                for _ in a.last_jobs..jobs {
                    self.irq.push((now, self.rank[cid], a.ordinal));
                }
                if !a.was_done && a.acc.is_done() {
                    a.was_done = true;
                    self.done_local += 1;
                }
                a.last_jobs = jobs;
            }
        }
        let NodeKind::Interconnect(icn) = &mut self.nodes[id].as_mut().expect("owned").kind else {
            unreachable!("subtree roots are interconnects");
        };
        let p = icn.ic.tick(now);
        if p {
            self.stamps[id] = Some(now);
        }
        progress |= p;
        progress
    }

    /// Looks up the cut-edge id for a parent-side (interconnect, port).
    fn edge_for_port(&self, ic: usize, port: usize) -> Option<usize> {
        self.cut_ports
            .iter()
            .find(|&&(g, p, _)| g == ic && p == port)
            .map(|&(_, _, e)| e)
    }

    /// One full shard cycle, mirroring `SocTopology::tick` for the
    /// shard's root.
    fn tick_cycle(&mut self, now: Cycle) -> bool {
        let mut progress = self.tick_subtree(self.root, now);
        match self.root_kind {
            ShardRoot::Global { mem } => {
                let (ic_node, mem_node) = two_nodes_opt(&mut self.nodes, self.root, mem);
                let NodeKind::Interconnect(icn) = &mut ic_node.kind else {
                    unreachable!("roots are interconnects");
                };
                let NodeKind::Memory(m) = &mut mem_node.kind else {
                    unreachable!("memory edge points at a memory node");
                };
                if let Some(wave) = m.wave.as_mut() {
                    wave.sample(now, icn.ic.mem_port());
                }
                let p = m.mem.tick(now, icn.ic.mem_port());
                if p {
                    self.stamps[mem] = Some(now);
                }
                progress |= p;
            }
            ShardRoot::CutChild { edge: _ } => {
                let NodeKind::Interconnect(icn) =
                    &mut self.nodes[self.root].as_mut().expect("owned").kind
                else {
                    unreachable!("shard roots are interconnects");
                };
                let half = self.child_half.as_mut().expect("cut child has a half");
                let moved = half.run_cycle(now, icn.ic.mem_port());
                if moved {
                    self.stamps[self.root] = Some(now);
                }
                progress |= moved;
            }
        }
        progress
    }

    /// Local event horizon: the sequential `horizon()` restricted to
    /// owned nodes, plus the bridge halves' mirror pipes.
    fn local_horizon(&self, now: Cycle) -> Option<Cycle> {
        let mut horizon: Option<Cycle> = None;
        let mut merge = |c: Option<Cycle>| {
            horizon = match (horizon, c) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        };
        for node in self.nodes.iter().flatten() {
            match &node.kind {
                NodeKind::Accelerator(a) => merge(a.acc.next_event(now)),
                NodeKind::Interconnect(icn) => {
                    merge(icn.ic.next_event(now));
                    for child in icn.children.iter().flatten() {
                        if let Some(bridge) = &child.bridge {
                            merge(bridge.next_event());
                        }
                    }
                }
                NodeKind::Memory(m) => merge(m.mem.next_event(now)),
            }
        }
        for half in self.parent_halves.iter().flatten() {
            merge(half.next_event());
        }
        if let Some(half) = &self.child_half {
            merge(half.next_event());
        }
        horizon
    }

    fn ambiguous_stalls(&self) -> u64 {
        self.parent_halves
            .iter()
            .flatten()
            .map(ParentHalf::ambiguous_stalls)
            .sum::<u64>()
            + self
                .child_half
                .as_ref()
                .map_or(0, ChildHalf::ambiguous_stalls)
    }
}

impl ShardTask for ShardExec {
    type Msg = ShardMsg;

    fn deliver(&mut self, msgs: Vec<ShardMsg>) {
        for msg in msgs {
            if msg.to_parent {
                self.parent_halves[msg.edge]
                    .as_mut()
                    .expect("batch routed to the parent shard")
                    .deliver(msg.batch);
            } else {
                debug_assert!(matches!(
                    self.root_kind,
                    ShardRoot::CutChild { edge } if edge == msg.edge
                ));
                self.child_half
                    .as_mut()
                    .expect("batch routed to the child shard")
                    .deliver(msg.batch);
            }
        }
    }

    fn run_window(&mut self, from: Cycle, to: Cycle) -> WindowReport<ShardMsg> {
        // A gap before `from` is a globally proven idle span.
        self.now = self.now.max(from);
        let mut progressed = false;
        let mut t = from;
        while t < to {
            let p = self.tick_cycle(t);
            progressed |= p;
            if !p && !self.has_wave {
                // Local fast-forward: no external input can arrive
                // before `to`, so the shard horizon is exact here.
                t = self.local_horizon(t).map_or(to, |h| h.clamp(t + 1, to));
            } else {
                t += 1;
            }
        }
        self.now = to;

        let mut outbox = Vec::new();
        for (edge, half) in self.parent_halves.iter_mut().enumerate() {
            if let Some(half) = half.as_mut() {
                let batch = half.take_batch();
                if !batch.is_empty() || batch.popped != self.sent_popped[edge] {
                    self.sent_popped[edge] = batch.popped;
                    outbox.push((
                        self.edge_child_shard[edge],
                        ShardMsg {
                            edge,
                            to_parent: false,
                            batch,
                        },
                    ));
                }
            }
        }
        if let Some(half) = self.child_half.as_mut() {
            let ShardRoot::CutChild { edge } = self.root_kind else {
                unreachable!("child half implies a cut-child root");
            };
            let batch = half.take_batch();
            if !batch.is_empty() || batch.popped != self.sent_popped[edge] {
                self.sent_popped[edge] = batch.popped;
                outbox.push((
                    self.edge_parent_shard[edge],
                    ShardMsg {
                        edge,
                        to_parent: true,
                        batch,
                    },
                ));
            }
        }

        let horizon = if progressed {
            None
        } else if self.has_wave {
            // A waveform probe samples every cycle: never skip.
            Some(to)
        } else {
            // Query at `to - 1`, the last cycle this window simulated:
            // `next_event(now)` promises events strictly after a tick
            // at `now`, so asking at the un-simulated `to` would hide
            // an event landing exactly on the window boundary.
            self.local_horizon(to - 1)
        };
        WindowReport {
            progressed,
            horizon,
            outbox,
            done: self.done_local == self.acc_total,
        }
    }
}

/// Exchange window used when the forest splits into independent root
/// shards with no cut edge between them: no cross-shard traffic exists,
/// so any window is exact; this one just bounds the round overhead.
const ROOT_ONLY_WINDOW: Cycle = 64;

/// Runs the topology sharded for `cycles` cycles (at most, when
/// `stop_when_all_done`). Returns `None` without touching anything when
/// the forest is a single shard — the caller falls back to the
/// sequential fast-forward path, which is exact and cheaper than a
/// one-shard engine round-trip. On `Some`, the topology has advanced
/// (clock, metrics, IRQ events, bridge residues all merged back) and
/// the contained flag reports whether every accelerator was done at the
/// final window boundary.
pub(super) fn run(
    topo: &mut SocTopology,
    workers: usize,
    cycles: Cycle,
    stop_when_all_done: bool,
) -> Option<bool> {
    let p = partition(&topo.nodes, &topo.roots);
    let num_shards = p.members.len();
    if num_shards <= 1 {
        topo.last_shard_report = Some(ShardRunReport {
            shards: num_shards.max(1),
            workers: 1,
            window: 0,
            rounds: 0,
            engine_skipped: 0,
            messages: 0,
            ambiguous_stalls: 0,
        });
        return None;
    }
    let window = p
        .cuts
        .iter()
        .map(|c| c.latency)
        .min()
        .unwrap_or(ROOT_ONLY_WINDOW);
    let num_edges = p.cuts.len();
    let n = topo.nodes.len();

    // Sever: distribute nodes into sparse per-shard tables and split
    // every cut bridge into its half-pair.
    let mut shard_nodes: Vec<Vec<Option<Node>>> = (0..num_shards)
        .map(|_| (0..n).map(|_| None).collect())
        .collect();
    for (gid, node) in std::mem::take(&mut topo.nodes).into_iter().enumerate() {
        shard_nodes[p.shard_of[gid]][gid] = Some(node);
    }
    let mut parent_halves: Vec<Vec<Option<ParentHalf>>> = (0..num_shards)
        .map(|_| (0..num_edges).map(|_| None).collect())
        .collect();
    let mut child_halves: Vec<Option<ChildHalf>> = (0..num_shards).map(|_| None).collect();
    for (edge, cut) in p.cuts.iter().enumerate() {
        let parent_gid = cut.parent.0;
        let NodeKind::Interconnect(picn) = &mut shard_nodes[cut.parent_shard][parent_gid]
            .as_mut()
            .expect("parent node owned by parent shard")
            .kind
        else {
            unreachable!("cut parents are interconnects");
        };
        let bridge = picn.children[cut.port]
            .as_mut()
            .and_then(|c| c.bridge.take())
            .expect("cut edges carry a bridge");
        let (ph, ch) = bridge.split();
        parent_halves[cut.parent_shard][edge] = Some(ph);
        child_halves[cut.child_shard] = Some(ch);
    }

    let edge_parent_shard: Vec<usize> = p.cuts.iter().map(|c| c.parent_shard).collect();
    let edge_child_shard: Vec<usize> = p.cuts.iter().map(|c| c.child_shard).collect();

    let mut shards: Vec<ShardExec> = Vec::with_capacity(num_shards);
    for (s, nodes) in shard_nodes.into_iter().enumerate() {
        let root = p.root_of[s];
        let root_kind = match &nodes[root].as_ref().expect("root owned").kind {
            NodeKind::Interconnect(icn) => match icn.memory {
                Some(mem) => ShardRoot::Global { mem },
                None => ShardRoot::CutChild {
                    edge: p
                        .cuts
                        .iter()
                        .position(|c| c.child.0 == root)
                        .expect("non-root shard heads are cut children"),
                },
            },
            _ => unreachable!("shard roots are interconnects"),
        };
        let mut acc_total = 0;
        let mut done_local = 0;
        let mut has_wave = false;
        for node in nodes.iter().flatten() {
            match &node.kind {
                NodeKind::Accelerator(a) => {
                    acc_total += 1;
                    if a.was_done {
                        done_local += 1;
                    }
                }
                NodeKind::Memory(m) => has_wave |= m.wave.is_some(),
                NodeKind::Interconnect(_) => {}
            }
        }
        shards.push(ShardExec {
            nodes,
            stamps: vec![None; n],
            root,
            root_kind,
            cut_ports: p
                .cuts
                .iter()
                .enumerate()
                .filter(|(_, c)| c.parent_shard == s)
                .map(|(e, c)| (c.parent.0, c.port, e))
                .collect(),
            parent_halves: std::mem::take(&mut parent_halves[s]),
            child_half: child_halves[s].take(),
            edge_child_shard: edge_child_shard.clone(),
            edge_parent_shard: edge_parent_shard.clone(),
            rank: p.rank.clone(),
            irq: Vec::new(),
            done_local,
            acc_total,
            now: topo.now,
            has_wave,
            sent_popped: vec![[0; 5]; num_edges],
        });
    }

    let engine = ShardedEngine::new(workers, window);
    let report = engine.run(
        &mut shards,
        topo.now,
        topo.now + cycles,
        RunOptions {
            allow_skip: true,
            stop_when_all_done,
        },
    );

    // Reassemble: nodes back into the dense table, halves reunited into
    // their bridges, bookkeeping merged in deterministic order.
    let mut merged: Vec<Option<Node>> = (0..n).map(|_| None).collect();
    let mut ambiguous = 0;
    let mut irq: Vec<(Cycle, u64, usize)> = Vec::new();
    let mut reunite_parent: Vec<Option<ParentHalf>> = (0..num_edges).map(|_| None).collect();
    let mut reunite_child: Vec<Option<ChildHalf>> = (0..num_edges).map(|_| None).collect();
    for (s, shard) in shards.into_iter().enumerate() {
        ambiguous += shard.ambiguous_stalls();
        irq.extend(shard.irq);
        for (gid, node) in shard.nodes.into_iter().enumerate() {
            if let Some(node) = node {
                debug_assert_eq!(p.shard_of[gid], s);
                merged[gid] = Some(node);
            }
        }
        for (gid, stamp) in shard.stamps.into_iter().enumerate() {
            if stamp > topo.stamps[gid] {
                topo.stamps[gid] = stamp;
            }
        }
        for (edge, half) in shard.parent_halves.into_iter().enumerate() {
            if let Some(half) = half {
                reunite_parent[edge] = Some(half);
            }
        }
        if let Some(half) = shard.child_half {
            let edge = p
                .cuts
                .iter()
                .position(|c| c.child_shard == s)
                .expect("child half belongs to a cut");
            reunite_child[edge] = Some(half);
        }
    }
    topo.nodes = merged
        .into_iter()
        .map(|n| n.expect("every node belongs to exactly one shard"))
        .collect();
    for (edge, cut) in p.cuts.iter().enumerate() {
        let bridge = AxiBridge::reunite(
            reunite_parent[edge].take().expect("parent half returned"),
            reunite_child[edge].take().expect("child half returned"),
        );
        let NodeKind::Interconnect(picn) = &mut topo.nodes[cut.parent.0].kind else {
            unreachable!("cut parents are interconnects");
        };
        picn.children[cut.port]
            .as_mut()
            .expect("cut port is bound")
            .bridge = Some(bridge);
    }

    // IRQ streams merge on (cycle, global DFS rank): within a cycle the
    // sequential engine emits completions in traversal order, and the
    // sort is stable so one accelerator's same-cycle jobs stay ordered.
    irq.sort_by_key(|&(cycle, rank, _)| (cycle, rank));
    topo.irq_events
        .extend(irq.into_iter().map(|(_, _, ordinal)| ordinal));

    topo.done_count = topo
        .acc_nodes
        .iter()
        .filter(|&&idx| match &topo.nodes[idx].kind {
            NodeKind::Accelerator(a) => a.was_done,
            _ => unreachable!("acc_nodes indexes accelerator nodes"),
        })
        .count();
    topo.now = report.ended_at;
    topo.skipped_cycles += report.skipped_cycles;
    topo.last_shard_report = Some(ShardRunReport {
        shards: num_shards,
        workers: report.workers,
        window,
        rounds: report.rounds,
        engine_skipped: report.skipped_cycles,
        messages: report.messages_routed,
        ambiguous_stalls: ambiguous,
    });
    Some(report.all_done)
}

#[cfg(test)]
mod tests {
    use super::super::{SchedulerMode, SocTopology, TopologyBuilder};
    use axi::types::BurstSize;
    use axi::BridgeConfig;
    use ha::dma::{Dma, DmaConfig};
    use ha::Accelerator;
    use hyperconnect::{HcConfig, HyperConnect};
    use mem::{MemConfig, MemoryController};
    use sim::Cycle;

    fn dma(name: &str) -> Box<dyn Accelerator> {
        Box::new(Dma::new(
            name,
            DmaConfig::reader(2048, 16, BurstSize::B16).jobs(2),
        ))
    }

    /// root ── (latency 2) ── mid ── (latency 3) ── leaf, one DMA on
    /// every spare slave port: a 3-shard plan with window 2.
    fn cascade(mode: SchedulerMode) -> SocTopology {
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
        b.cascade_with(mid, root, 0, BridgeConfig::wire().latency(2))
            .unwrap();
        b.cascade_with(leaf, mid, 0, BridgeConfig::wire().latency(3))
            .unwrap();
        b.connect_memory(root, mem).unwrap();
        for (i, (ic, port)) in [(leaf, 0), (leaf, 1), (mid, 1), (root, 1)]
            .into_iter()
            .enumerate()
        {
            let d = b
                .add_accelerator(format!("d{i}"), dma(&format!("d{i}")))
                .unwrap();
            b.attach(d, ic, port).unwrap();
        }
        let mut topo = b.build().unwrap();
        topo.set_scheduler(mode);
        topo
    }

    fn flat(mode: SchedulerMode) -> SocTopology {
        let mut b = TopologyBuilder::new();
        let ic = b
            .add_interconnect("hc", HyperConnect::new(HcConfig::new(2)))
            .unwrap();
        let mem = b
            .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
            .unwrap();
        for i in 0..2 {
            let d = b
                .add_accelerator(format!("d{i}"), dma(&format!("d{i}")))
                .unwrap();
            b.attach(d, ic, i).unwrap();
        }
        b.connect_memory(ic, mem).unwrap();
        let mut topo = b.build().unwrap();
        topo.set_scheduler(mode);
        topo
    }

    #[test]
    fn plan_covers_every_node_exactly_once() {
        let topo = cascade(SchedulerMode::FastForward);
        let plan = topo.shard_plan();
        assert_eq!(plan.shards.len(), 3);
        assert_eq!(plan.window, Some(2));
        assert_eq!(plan.cuts.len(), 2);
        let mut seen = vec![0usize; topo.nodes.len()];
        for shard in &plan.shards {
            for id in shard {
                seen[id.0] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "coverage: {seen:?}");
        // The plan is a pure function of the graph: identical after a run.
        let mut topo = topo;
        topo.run_for(1000);
        let again = topo.shard_plan();
        assert_eq!(again.cuts, plan.cuts);
    }

    #[test]
    fn wire_cascades_stay_single_shard() {
        let mut b = TopologyBuilder::new();
        let root = b
            .add_interconnect("root", HyperConnect::new(HcConfig::new(2)))
            .unwrap();
        let leaf = b
            .add_interconnect("leaf", HyperConnect::new(HcConfig::new(2)))
            .unwrap();
        let mem = b
            .add_memory("ddr", MemoryController::new(MemConfig::zcu102()))
            .unwrap();
        b.cascade(leaf, root, 0).unwrap();
        b.connect_memory(root, mem).unwrap();
        let d = b.add_accelerator("d", dma("d")).unwrap();
        b.attach(d, leaf, 0).unwrap();
        let topo = b.build().unwrap();
        let plan = topo.shard_plan();
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(plan.window, None);
        assert!(plan.cuts.is_empty());
    }

    #[test]
    fn sharded_run_is_byte_identical_to_fast_forward() {
        const CYCLES: Cycle = 40_000;
        let mut seq = cascade(SchedulerMode::FastForward);
        seq.run_for(CYCLES);
        for workers in [1usize, 2, 4] {
            let mut sh = cascade(SchedulerMode::Sharded { workers });
            sh.run_for(CYCLES);
            assert_eq!(sh.now(), seq.now(), "workers {workers}");
            assert_eq!(
                sh.take_irq_events(),
                seq.irq_events.clone(),
                "workers {workers}: IRQ order diverged"
            );
            assert_eq!(
                sh.metrics_snapshot_json(),
                seq.metrics_snapshot_json(),
                "workers {workers}: metrics diverged"
            );
            let rep = *sh.shard_run_report().expect("sharded run ran");
            assert_eq!(rep.shards, 3);
            assert_eq!(rep.window, 2);
            assert_eq!(rep.ambiguous_stalls, 0, "workers {workers}");
            assert!(rep.messages > 0);
            assert!(rep.rounds > 0);
        }
    }

    #[test]
    fn sharded_run_until_done_completes_and_is_deterministic() {
        let mut seq = cascade(SchedulerMode::FastForward);
        assert!(seq.run_until_done(10_000_000).is_done());
        let reference: Option<(Cycle, String)> = None;
        let mut reference = reference;
        for workers in [1usize, 2, 4] {
            let mut sh = cascade(SchedulerMode::Sharded { workers });
            let out = sh.run_until_done(10_000_000);
            assert!(out.is_done(), "workers {workers}: {out}");
            // Completion is window-quantized: at or minimally after the
            // sequential completion cycle.
            assert!(sh.now() >= seq.now(), "workers {workers}");
            assert!(
                sh.now() < seq.now() + 2,
                "workers {workers}: done at {} vs sequential {}",
                sh.now(),
                seq.now()
            );
            let state = (sh.now(), sh.metrics_snapshot_json());
            match &reference {
                None => reference = Some(state),
                Some(r) => assert_eq!(*r, state, "workers {workers}: nondeterministic"),
            }
        }
    }

    #[test]
    fn single_shard_topology_falls_back_to_sequential() {
        let mut seq = flat(SchedulerMode::FastForward);
        seq.run_for(40_000);
        let mut sh = flat(SchedulerMode::Sharded { workers: 4 });
        sh.run_for(40_000);
        assert_eq!(sh.now(), seq.now());
        assert_eq!(sh.metrics_snapshot_json(), seq.metrics_snapshot_json());
        assert_eq!(sh.skipped_cycles(), seq.skipped_cycles());
        let rep = *sh.shard_run_report().expect("fallback still reports");
        assert_eq!(rep.shards, 1);
        assert_eq!(rep.workers, 1);
    }
}
