//! The topology graph layer: compose arbitrary interconnect trees
//! behind one declarative builder.
//!
//! The paper's Fig. 1 shows the flat architecture — N accelerators on
//! one HyperConnect, one FPGA-PS port — but §IV's integration flow and
//! the cascading experiments need *trees*: HyperConnects behind
//! HyperConnects, a HyperConnect under a SmartConnect, several PS
//! ports. This module provides that as a first-class typed graph:
//!
//! * [`TopologyBuilder`] — declarative assembly (`add_*`, `attach`,
//!   `cascade`, `connect_memory`) with **validation at build time**:
//!   cycles, dangling master ports, double-bound slave ports and
//!   unreachable memories are all rejected with a typed
//!   [`TopologyError`] instead of a panic deep inside a tick loop;
//! * [`SocTopology`] — the built system: a deterministic tick engine
//!   over the tree (post-order: leaves before parents, bridges between
//!   them), the event-horizon fast-forward scheduler with one wake
//!   cycle per node and bridge, per-instance metrics namespacing, and
//!   the fault-injection/hypervisor hooks of the flat `SocSystem`,
//!   which is now a thin facade over this graph.
//!
//! Cascaded interconnects are joined by an [`axi::AxiBridge`] — a
//! latency-configurable adapter whose timing contract is: latency 0
//! behaves exactly like a direct wire (the hierarchy conformance test
//! pins this cycle-for-cycle), latency N adds exactly N cycles each
//! way.

use std::any::Any;

use axi::bridge::{AxiBridge, BridgeConfig, BridgeStats};
use axi::AxiInterconnect;
use ha::Accelerator;
use mem::MemoryController;
use sim::vcd::{SignalId, VcdWriter};
use sim::{ClockConfig, Component, Cycle};

/// How a [`SocTopology`] (and the `SocSystem` facade) advances
/// simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Event-horizon scheduling, per node: a node whose tick makes no
    /// progress sleeps until the cycle it promises activity at (its
    /// [`Component::next_event`] hint) or until a neighbour touches one
    /// of its ports, and when every node sleeps `now` jumps to the
    /// earliest wake, skipping the provably idle span. Cycle-exact with respect to [`SchedulerMode::Naive`]:
    /// components may under-promise but never over-promise, and no
    /// observable state advances on skipped ticks.
    #[default]
    FastForward,
    /// Plain cycle-by-cycle stepping — the reference behavior the
    /// equivalence tests pin fast-forward against.
    Naive,
}

/// Opaque handle to one node of a topology graph, issued by
/// [`TopologyBuilder`] and only meaningful for the builder (and the
/// [`SocTopology`]) that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

/// Typed assembly-time errors: everything the builder (or the built
/// topology's late-binding API) can reject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A node label was used twice.
    DuplicateLabel {
        /// The repeated label.
        label: String,
    },
    /// A [`NodeId`] from a different builder (or out of range).
    UnknownNode {
        /// The raw index of the offending handle.
        index: usize,
    },
    /// A node of the wrong kind was passed (e.g. an accelerator where
    /// an interconnect was expected).
    KindMismatch {
        /// Label of the offending node.
        label: String,
        /// The kind the operation required.
        expected: &'static str,
    },
    /// A slave-port index beyond the interconnect's port count.
    PortOutOfRange {
        /// Label of the interconnect.
        label: String,
        /// The requested port.
        port: usize,
        /// The interconnect's port count.
        num_ports: usize,
    },
    /// Two children bound to the same slave port.
    SlavePortTaken {
        /// Label of the interconnect.
        label: String,
        /// The contested port.
        port: usize,
    },
    /// An interconnect's master port bound twice (to a parent and/or a
    /// memory).
    MasterAlreadyBound {
        /// Label of the interconnect.
        label: String,
    },
    /// An accelerator attached to two slave ports.
    AcceleratorAlreadyBound {
        /// Label of the accelerator.
        label: String,
    },
    /// A memory controller driven by two interconnects.
    MemoryAlreadyBound {
        /// Label of the memory.
        label: String,
    },
    /// No free slave port left on the interconnect.
    PortsExhausted {
        /// Label of the interconnect.
        label: String,
        /// The interconnect's port count.
        num_ports: usize,
    },
    /// The requested cascade would close a loop of interconnects.
    CycleDetected {
        /// Label of the interconnect whose cascade closed the loop.
        label: String,
    },
    /// An accelerator was added but never attached to a slave port.
    UnboundAccelerator {
        /// Label of the accelerator.
        label: String,
    },
    /// An interconnect whose master port reaches no memory controller.
    DanglingInterconnect {
        /// Label of the interconnect.
        label: String,
    },
    /// A memory controller no interconnect drives.
    UnboundMemory {
        /// Label of the memory.
        label: String,
    },
    /// The topology contains no memory controller at all.
    NoMemory,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::DuplicateLabel { label } => {
                write!(f, "node label {label:?} is already in use")
            }
            TopologyError::UnknownNode { index } => {
                write!(f, "node handle #{index} does not belong to this topology")
            }
            TopologyError::KindMismatch { label, expected } => {
                write!(f, "node {label:?} is not {expected}")
            }
            TopologyError::PortOutOfRange {
                label,
                port,
                num_ports,
            } => write!(
                f,
                "interconnect {label:?} has {num_ports} slave ports; port {port} does not exist"
            ),
            TopologyError::SlavePortTaken { label, port } => {
                write!(
                    f,
                    "slave port {port} of interconnect {label:?} is already bound"
                )
            }
            TopologyError::MasterAlreadyBound { label } => {
                write!(
                    f,
                    "the master port of interconnect {label:?} is already bound"
                )
            }
            TopologyError::AcceleratorAlreadyBound { label } => {
                write!(
                    f,
                    "accelerator {label:?} is already attached to a slave port"
                )
            }
            TopologyError::MemoryAlreadyBound { label } => {
                write!(f, "memory {label:?} is already driven by an interconnect")
            }
            TopologyError::PortsExhausted { label, num_ports } => {
                write!(
                    f,
                    "all {num_ports} slave ports of interconnect {label:?} are taken"
                )
            }
            TopologyError::CycleDetected { label } => {
                write!(f, "cascading interconnect {label:?} would create a cycle")
            }
            TopologyError::UnboundAccelerator { label } => {
                write!(f, "accelerator {label:?} is not attached to any slave port")
            }
            TopologyError::DanglingInterconnect { label } => write!(
                f,
                "interconnect {label:?} has no path from its master port to a memory controller"
            ),
            TopologyError::UnboundMemory { label } => {
                write!(f, "memory {label:?} is not driven by any interconnect")
            }
            TopologyError::NoMemory => {
                write!(f, "the topology contains no memory controller")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Beat-level waveform probe at one FPGA-PS boundary (the signals the
/// paper's custom FPGA timer watches).
#[derive(Debug, Clone)]
struct WaveProbe {
    vcd: VcdWriter,
    ar_valid: SignalId,
    ar_addr: SignalId,
    aw_valid: SignalId,
    w_valid: SignalId,
    r_valid: SignalId,
    b_valid: SignalId,
}

impl WaveProbe {
    fn new() -> Self {
        let mut vcd = VcdWriter::new("fpga_ps_interface");
        let ar_valid = vcd.add_wire("ar_valid");
        let ar_addr = vcd.add_bus("ar_addr", 40);
        let aw_valid = vcd.add_wire("aw_valid");
        let w_valid = vcd.add_wire("w_valid");
        let r_valid = vcd.add_wire("r_valid");
        let b_valid = vcd.add_wire("b_valid");
        Self {
            vcd,
            ar_valid,
            ar_addr,
            aw_valid,
            w_valid,
            r_valid,
            b_valid,
        }
    }

    fn sample(&mut self, now: Cycle, port: &mut axi::AxiPort) {
        let ar = port.ar.peek_ready(now);
        self.vcd.change_wire(now, self.ar_valid, ar.is_some());
        if let Some(beat) = ar {
            self.vcd.change_bus(now, self.ar_addr, beat.addr);
        }
        self.vcd
            .change_wire(now, self.aw_valid, port.aw.has_ready(now));
        self.vcd
            .change_wire(now, self.w_valid, port.w.has_ready(now));
        self.vcd
            .change_wire(now, self.r_valid, port.r.has_ready(now));
        self.vcd
            .change_wire(now, self.b_valid, port.b.has_ready(now));
    }
}

/// An accelerator node plus the bookkeeping `run_until_done` and the
/// IRQ plumbing need.
struct AccNode {
    acc: Box<dyn Accelerator>,
    /// Insertion order among accelerators (the facade's `PortId`).
    ordinal: usize,
    bound: bool,
    last_jobs: u64,
    was_done: bool,
}

/// One bound slave-port child of an interconnect.
struct Child {
    node: usize,
    /// `Some` for cascaded interconnect children, `None` for
    /// accelerators (which tick directly against the slave port).
    bridge: Option<AxiBridge>,
}

struct IcNode {
    ic: Box<dyn AxiInterconnect>,
    /// Children indexed by slave port.
    children: Vec<Option<Child>>,
    /// The memory controller on the master port, when this is a root.
    memory: Option<usize>,
    /// `(parent interconnect node, slave port)` when cascaded.
    parent: Option<(usize, usize)>,
}

struct MemNode {
    mem: MemoryController,
    bound: bool,
    wave: Option<WaveProbe>,
}

enum NodeKind {
    Accelerator(AccNode),
    Interconnect(IcNode),
    Memory(Box<MemNode>),
}

struct Node {
    label: String,
    kind: NodeKind,
}

/// Disjoint mutable access to two distinct nodes.
fn two_nodes(nodes: &mut [Node], a: usize, b: usize) -> (&mut Node, &mut Node) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = nodes.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = nodes.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// One bound slave port in an interconnect's child table: everything
/// the engine's per-child step reads before it decides whether the
/// child moves, so a child that does not move costs a table lookup.
/// `build_tables` builds the table in slave-port order; the wake
/// fields are scheduler state, reset at every run entry and never
/// persisted.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// An accelerator ticking directly against slave port `port`.
    Leaf {
        port: usize,
        node: usize,
        /// First cycle the accelerator must tick at again if nobody
        /// touches its port before then.
        wake: Cycle,
        /// No tick since the last run entry: the first one runs the IRQ
        /// and done bookkeeping whatever its outcome.
        fresh: bool,
    },
    /// A cascaded interconnect behind the bridge on slave port `port`.
    Cascade {
        port: usize,
        node: usize,
        /// First cycle the bridge must transfer at again if neither
        /// side touches its ports: the earliest of its stage's next
        /// beat, the requests in the child's master port and the
        /// responses in the parent's slave port.
        wake: Cycle,
    },
}

/// Nodes and bridges in one interconnect's subtree, itself included:
/// what passing the subtree over saves (see [`EngineWork`]).
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    ics: u64,
    leaves: u64,
    bridges: u64,
}

/// One node's wake state and, for an interconnect, its run of the
/// child tables. Scheduler state, like the slots'.
#[derive(Debug, Clone, Copy, Default)]
struct Table {
    first: usize,
    end: usize,
    /// Where the interconnect's slave ports start in `seen` and
    /// `slot_at`.
    ports: usize,
    /// First cycle the node (an interconnect or a memory) must tick at
    /// again if nobody touches its ports before then.
    wake: Cycle,
    /// An interconnect's earliest wake over its subtree: its own, its
    /// slots' and its cascaded children's subtrees'. Nothing in the
    /// subtree ticks before this cycle.
    subtree_wake: Cycle,
    /// An interconnect's master-port [`axi::AxiPort::activity`] stamp
    /// when the engine last looked.
    master_seen: u64,
    /// An interconnect's subtree counts, for [`EngineWork`].
    span: Span,
}

/// How much per-node work the engine did (see
/// [`SocTopology::engine_work`]). Execution counters, never persisted.
///
/// On every cycle the engine ticks, each node and bridge either ticks
/// or is passed over: its wake had not come and nobody touched its
/// ports. So for each kind, run plus passed over is the node count
/// times the cycles ticked, and the cycles skipped count in neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineWork {
    /// Accelerator ticks run.
    pub leaf_ticks: u64,
    /// Accelerator ticks passed over.
    pub leaf_skips: u64,
    /// Bridge transfers run.
    pub bridge_transfers: u64,
    /// Bridge transfers passed over.
    pub bridge_skips: u64,
    /// Interconnect ticks run.
    pub ic_ticks: u64,
    /// Interconnect ticks passed over.
    pub ic_skips: u64,
    /// Memory-controller ticks run.
    pub mem_ticks: u64,
    /// Memory-controller ticks passed over.
    pub mem_skips: u64,
}

/// The span of the subtree under interconnect `id`.
fn span(nodes: &[Node], id: usize) -> Span {
    let NodeKind::Interconnect(icn) = &nodes[id].kind else {
        unreachable!("subtree roots are interconnects");
    };
    let mut s = Span {
        ics: 1,
        ..Span::default()
    };
    for c in icn.children.iter().flatten() {
        if c.bridge.is_none() {
            s.leaves += 1;
            continue;
        }
        let child = span(nodes, c.node);
        s.ics += child.ics;
        s.leaves += child.leaves;
        s.bridges += child.bridges + 1;
    }
    s
}

/// Declarative, validating assembly of a [`SocTopology`].
///
/// # Example
///
/// ```
/// use axi_hyperconnect::TopologyBuilder;
/// use axi::types::BurstSize;
/// use ha::dma::{Dma, DmaConfig};
/// use hyperconnect::{HcConfig, HyperConnect};
/// use mem::{MemConfig, MemoryController};
///
/// let mut b = TopologyBuilder::new();
/// let root = b.add_interconnect("root", HyperConnect::new(HcConfig::new(2)))?;
/// let leaf = b.add_interconnect("leaf", HyperConnect::new(HcConfig::new(2)))?;
/// let mem = b.add_memory("ddr", MemoryController::new(MemConfig::default()))?;
/// let dma = b.add_accelerator(
///     "dma0",
///     Box::new(Dma::new("dma0", DmaConfig::reader(4096, 16, BurstSize::B16))),
/// )?;
/// b.cascade(leaf, root, 0)?;
/// b.attach(dma, leaf, 0)?;
/// b.connect_memory(root, mem)?;
/// let mut topo = b.build()?;
/// assert!(topo.run_until_done(1_000_000).is_done());
/// # Ok::<(), axi_hyperconnect::TopologyError>(())
/// ```
#[derive(Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
}

impl TopologyBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_node(&mut self, label: String, kind: NodeKind) -> Result<NodeId, TopologyError> {
        if self.nodes.iter().any(|n| n.label == label) {
            return Err(TopologyError::DuplicateLabel { label });
        }
        self.nodes.push(Node { label, kind });
        Ok(NodeId(self.nodes.len() - 1))
    }

    fn check(&self, id: NodeId) -> Result<usize, TopologyError> {
        if id.0 >= self.nodes.len() {
            return Err(TopologyError::UnknownNode { index: id.0 });
        }
        Ok(id.0)
    }

    fn label(&self, idx: usize) -> String {
        self.nodes[idx].label.clone()
    }

    fn ic(&mut self, idx: usize) -> Result<&mut IcNode, TopologyError> {
        let label = self.nodes[idx].label.clone();
        match &mut self.nodes[idx].kind {
            NodeKind::Interconnect(icn) => Ok(icn),
            _ => Err(TopologyError::KindMismatch {
                label,
                expected: "an interconnect",
            }),
        }
    }

    /// Adds an interconnect node (any [`AxiInterconnect`] model).
    ///
    /// # Errors
    ///
    /// [`TopologyError::DuplicateLabel`] if the label is taken.
    pub fn add_interconnect(
        &mut self,
        label: impl Into<String>,
        ic: impl AxiInterconnect + 'static,
    ) -> Result<NodeId, TopologyError> {
        let ic: Box<dyn AxiInterconnect> = Box::new(ic);
        let children = (0..ic.num_ports()).map(|_| None).collect();
        self.add_node(
            label.into(),
            NodeKind::Interconnect(IcNode {
                ic,
                children,
                memory: None,
                parent: None,
            }),
        )
    }

    /// Adds an accelerator node. The accelerator stays idle until
    /// attached to a slave port with [`TopologyBuilder::attach`].
    ///
    /// # Errors
    ///
    /// [`TopologyError::DuplicateLabel`] if the label is taken.
    pub fn add_accelerator(
        &mut self,
        label: impl Into<String>,
        acc: Box<dyn Accelerator>,
    ) -> Result<NodeId, TopologyError> {
        let ordinal = self
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Accelerator(_)))
            .count();
        let was_done = acc.is_done();
        self.add_node(
            label.into(),
            NodeKind::Accelerator(AccNode {
                acc,
                ordinal,
                bound: false,
                last_jobs: 0,
                was_done,
            }),
        )
    }

    /// Adds a memory-controller node (one FPGA-PS interface port).
    ///
    /// # Errors
    ///
    /// [`TopologyError::DuplicateLabel`] if the label is taken.
    pub fn add_memory(
        &mut self,
        label: impl Into<String>,
        mem: MemoryController,
    ) -> Result<NodeId, TopologyError> {
        self.add_node(
            label.into(),
            NodeKind::Memory(Box::new(MemNode {
                mem,
                bound: false,
                wave: None,
            })),
        )
    }

    /// Attaches accelerator `acc` to slave port `port` of `ic`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::KindMismatch`], [`TopologyError::PortOutOfRange`],
    /// [`TopologyError::SlavePortTaken`] or
    /// [`TopologyError::AcceleratorAlreadyBound`].
    pub fn attach(&mut self, acc: NodeId, ic: NodeId, port: usize) -> Result<(), TopologyError> {
        let (acc, ic) = (self.check(acc)?, self.check(ic)?);
        match &self.nodes[acc].kind {
            NodeKind::Accelerator(a) if a.bound => {
                return Err(TopologyError::AcceleratorAlreadyBound {
                    label: self.label(acc),
                });
            }
            NodeKind::Accelerator(_) => {}
            _ => {
                return Err(TopologyError::KindMismatch {
                    label: self.label(acc),
                    expected: "an accelerator",
                });
            }
        }
        let label = self.label(ic);
        let icn = self.ic(ic)?;
        if port >= icn.children.len() {
            return Err(TopologyError::PortOutOfRange {
                label,
                port,
                num_ports: icn.children.len(),
            });
        }
        if icn.children[port].is_some() {
            return Err(TopologyError::SlavePortTaken { label, port });
        }
        icn.children[port] = Some(Child {
            node: acc,
            bridge: None,
        });
        let NodeKind::Accelerator(a) = &mut self.nodes[acc].kind else {
            unreachable!("checked above");
        };
        a.bound = true;
        Ok(())
    }

    /// Attaches accelerator `acc` to the lowest free slave port of
    /// `ic`, returning the port index.
    ///
    /// # Errors
    ///
    /// As [`TopologyBuilder::attach`], plus
    /// [`TopologyError::PortsExhausted`] when no port is free.
    pub fn attach_next(&mut self, acc: NodeId, ic: NodeId) -> Result<usize, TopologyError> {
        let ic_idx = self.check(ic)?;
        let icn = self.ic(ic_idx)?;
        let Some(port) = icn.children.iter().position(Option::is_none) else {
            let num_ports = icn.children.len();
            return Err(TopologyError::PortsExhausted {
                label: self.label(ic_idx),
                num_ports,
            });
        };
        self.attach(acc, ic, port)?;
        Ok(port)
    }

    /// Cascades interconnect `child` under slave port `port` of
    /// `parent` through a zero-latency wire bridge.
    ///
    /// # Errors
    ///
    /// See [`TopologyBuilder::cascade_with`].
    pub fn cascade(
        &mut self,
        child: NodeId,
        parent: NodeId,
        port: usize,
    ) -> Result<(), TopologyError> {
        self.cascade_with(child, parent, port, BridgeConfig::wire())
    }

    /// Cascades interconnect `child` under slave port `port` of
    /// `parent` through an [`AxiBridge`] with the given configuration.
    ///
    /// # Errors
    ///
    /// [`TopologyError::KindMismatch`], [`TopologyError::PortOutOfRange`],
    /// [`TopologyError::SlavePortTaken`],
    /// [`TopologyError::MasterAlreadyBound`] (the child already has a
    /// parent or memory) or [`TopologyError::CycleDetected`].
    pub fn cascade_with(
        &mut self,
        child: NodeId,
        parent: NodeId,
        port: usize,
        bridge: BridgeConfig,
    ) -> Result<(), TopologyError> {
        let (child, parent) = (self.check(child)?, self.check(parent)?);
        {
            let c = self.ic(child)?;
            if c.parent.is_some() || c.memory.is_some() {
                return Err(TopologyError::MasterAlreadyBound {
                    label: self.label(child),
                });
            }
        }
        // Walk the parent chain upward from `parent`; reaching `child`
        // (or `parent == child`) means the new edge would close a loop.
        let mut at = parent;
        loop {
            if at == child {
                return Err(TopologyError::CycleDetected {
                    label: self.label(child),
                });
            }
            match &self.nodes[at].kind {
                NodeKind::Interconnect(icn) => match icn.parent {
                    Some((up, _)) => at = up,
                    None => break,
                },
                _ => break,
            }
        }
        let label = self.label(parent);
        let picn = self.ic(parent)?;
        if port >= picn.children.len() {
            return Err(TopologyError::PortOutOfRange {
                label,
                port,
                num_ports: picn.children.len(),
            });
        }
        if picn.children[port].is_some() {
            return Err(TopologyError::SlavePortTaken { label, port });
        }
        picn.children[port] = Some(Child {
            node: child,
            bridge: Some(AxiBridge::new(bridge)),
        });
        let NodeKind::Interconnect(cicn) = &mut self.nodes[child].kind else {
            unreachable!("checked above");
        };
        cicn.parent = Some((parent, port));
        Ok(())
    }

    /// Connects the master port of `ic` to memory controller `mem`,
    /// making `ic` a root of the topology forest.
    ///
    /// # Errors
    ///
    /// [`TopologyError::KindMismatch`],
    /// [`TopologyError::MasterAlreadyBound`] or
    /// [`TopologyError::MemoryAlreadyBound`].
    pub fn connect_memory(&mut self, ic: NodeId, mem: NodeId) -> Result<(), TopologyError> {
        let (ic, mem) = (self.check(ic)?, self.check(mem)?);
        match &self.nodes[mem].kind {
            NodeKind::Memory(m) if m.bound => {
                return Err(TopologyError::MemoryAlreadyBound {
                    label: self.label(mem),
                });
            }
            NodeKind::Memory(_) => {}
            _ => {
                return Err(TopologyError::KindMismatch {
                    label: self.label(mem),
                    expected: "a memory controller",
                });
            }
        }
        {
            let icn = self.ic(ic)?;
            if icn.parent.is_some() || icn.memory.is_some() {
                return Err(TopologyError::MasterAlreadyBound {
                    label: self.label(ic),
                });
            }
        }
        let icn = self.ic(ic)?;
        icn.memory = Some(mem);
        let NodeKind::Memory(m) = &mut self.nodes[mem].kind else {
            unreachable!("checked above");
        };
        m.bound = true;
        Ok(())
    }

    /// Validates the graph and builds the runnable [`SocTopology`].
    ///
    /// # Errors
    ///
    /// [`TopologyError::NoMemory`], [`TopologyError::UnboundMemory`],
    /// [`TopologyError::UnboundAccelerator`],
    /// [`TopologyError::DanglingInterconnect`] or (defensively)
    /// [`TopologyError::CycleDetected`].
    pub fn build(self) -> Result<SocTopology, TopologyError> {
        let mut nodes = self.nodes;
        let mut roots = Vec::new();
        let mut acc_nodes = Vec::new();
        let mut ic_nodes = Vec::new();
        let mut mem_nodes = Vec::new();
        let mut any_memory = false;
        for (idx, node) in nodes.iter().enumerate() {
            match &node.kind {
                NodeKind::Accelerator(a) => {
                    if !a.bound {
                        return Err(TopologyError::UnboundAccelerator {
                            label: node.label.clone(),
                        });
                    }
                    acc_nodes.push((a.ordinal, idx));
                }
                NodeKind::Memory(m) => {
                    any_memory = true;
                    if !m.bound {
                        return Err(TopologyError::UnboundMemory {
                            label: node.label.clone(),
                        });
                    }
                    mem_nodes.push(idx);
                }
                NodeKind::Interconnect(icn) => {
                    ic_nodes.push(idx);
                    if let Some(mem) = icn.memory {
                        roots.push((idx, mem));
                    }
                    // Every interconnect must reach a memory through its
                    // master-port chain; the chain is acyclic by the
                    // cascade-time check, re-verified here with a step
                    // bound as defense in depth.
                    let mut at = idx;
                    let mut steps = 0;
                    loop {
                        if steps > nodes.len() {
                            return Err(TopologyError::CycleDetected {
                                label: node.label.clone(),
                            });
                        }
                        steps += 1;
                        match &nodes[at].kind {
                            NodeKind::Interconnect(i) => {
                                if i.memory.is_some() {
                                    break;
                                }
                                match i.parent {
                                    Some((up, _)) => at = up,
                                    None => {
                                        return Err(TopologyError::DanglingInterconnect {
                                            label: node.label.clone(),
                                        });
                                    }
                                }
                            }
                            _ => unreachable!("parent edges only point at interconnects"),
                        }
                    }
                }
            }
        }
        if !any_memory {
            return Err(TopologyError::NoMemory);
        }
        acc_nodes.sort_unstable();
        let acc_nodes = acc_nodes.into_iter().map(|(_, idx)| idx).collect();
        // Namespace each instance's metrics registry with its node
        // label so multi-interconnect snapshots don't collide.
        for &idx in &ic_nodes {
            let label = nodes[idx].label.clone();
            if let NodeKind::Interconnect(icn) = &mut nodes[idx].kind {
                if let Some(m) = icn.ic.metrics_mut() {
                    m.set_instance(label);
                }
            }
        }
        let stamps = vec![None; nodes.len()];
        let mut topo = SocTopology {
            nodes,
            roots,
            acc_nodes,
            ic_nodes,
            mem_nodes,
            stamps,
            slots: Vec::new(),
            tables: Vec::new(),
            seen: Vec::new(),
            slot_at: Vec::new(),
            activity: Vec::new(),
            work: EngineWork::default(),
            clock: ClockConfig::default(),
            now: 0,
            irq_events: Vec::new(),
            done_count: 0,
            scheduler: SchedulerMode::default(),
            skipped_cycles: 0,
        };
        topo.build_tables();
        Ok(topo)
    }
}

/// A built interconnect topology: the runnable tree of accelerators,
/// interconnects, bridges and memory controllers.
///
/// Constructed by [`TopologyBuilder::build`]; the flat
/// [`crate::SocSystem`] is a thin facade over a single-interconnect
/// instance of this graph.
pub struct SocTopology {
    nodes: Vec<Node>,
    /// Interconnects with a memory bound, in insertion order — the
    /// forest's tick roots — each with its memory.
    roots: Vec<(usize, usize)>,
    /// Accelerator nodes in insertion (ordinal) order.
    acc_nodes: Vec<usize>,
    ic_nodes: Vec<usize>,
    mem_nodes: Vec<usize>,
    /// Per-node cycle of most recent progress (stall attribution).
    stamps: Vec<Option<Cycle>>,
    /// Every interconnect's child table, back to back.
    slots: Vec<Slot>,
    /// Per node, its wake state and the run of `slots` it owns (empty
    /// for non-interconnects). Accelerators wake in their slots.
    tables: Vec<Table>,
    /// Per slave port of every interconnect, its [`axi::AxiPort::activity`]
    /// stamp when the engine last looked: after its child's last tick or
    /// transfer, or after its interconnect's last tick.
    seen: Vec<u64>,
    /// Per slave port of every interconnect, the slot of its child
    /// (`usize::MAX` when unbound).
    slot_at: Vec<usize>,
    /// Scratch for one interconnect's port activity stamps.
    activity: Vec<u64>,
    work: EngineWork,
    clock: ClockConfig,
    now: Cycle,
    /// Completion interrupts as accelerator ordinals, drained by
    /// [`SocTopology::take_irq_events`].
    irq_events: Vec<usize>,
    done_count: usize,
    scheduler: SchedulerMode,
    skipped_cycles: Cycle,
}

impl SocTopology {
    /// Selects how the run loops advance time (default:
    /// [`SchedulerMode::FastForward`]).
    pub fn set_scheduler(&mut self, mode: SchedulerMode) {
        self.scheduler = mode;
    }

    /// The active scheduler mode.
    pub fn scheduler(&self) -> SchedulerMode {
        self.scheduler
    }

    /// Cycles the fast-forward scheduler skipped so far: cycles on which
    /// no component ticked (zero under [`SchedulerMode::Naive`]). A
    /// cycle on which only some nodes ticked is not skipped.
    pub fn skipped_cycles(&self) -> Cycle {
        self.skipped_cycles
    }

    /// How much per-node work the engine has done so far: accelerator,
    /// interconnect and memory ticks and bridge transfers, run and
    /// passed over. Under [`SchedulerMode::Naive`] nothing is passed
    /// over.
    pub fn engine_work(&self) -> EngineWork {
        self.work
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Labels of the nodes that made progress on the most recent cycle
    /// on which any node did: who moved last, for triaging a run that
    /// went quiet. Empty before anything has moved.
    pub fn last_active(&self) -> Vec<String> {
        let latest = self.stamps.iter().flatten().max().copied();
        let Some(latest) = latest else {
            return Vec::new();
        };
        self.stamps
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Some(latest))
            .map(|(i, _)| self.nodes[i].label.clone())
            .collect()
    }

    /// The fabric clock configuration.
    pub fn clock(&self) -> ClockConfig {
        self.clock
    }

    /// Overrides the fabric clock used for time-based reporting.
    pub fn set_clock(&mut self, clock: ClockConfig) {
        self.clock = clock;
    }

    /// Number of accelerators in the topology.
    pub fn num_accelerators(&self) -> usize {
        self.acc_nodes.len()
    }

    /// Total number of nodes (accelerators, interconnects, memories).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The `i`-th accelerator in insertion order, or `None` when `i`
    /// is out of range.
    pub fn accelerator(&self, i: usize) -> Option<&dyn Accelerator> {
        let &idx = self.acc_nodes.get(i)?;
        match &self.nodes[idx].kind {
            NodeKind::Accelerator(a) => Some(a.acc.as_ref()),
            _ => unreachable!("acc_nodes indexes accelerator nodes"),
        }
    }

    /// Mutable access to the `i`-th accelerator — recovery flows use
    /// this to pulse the model's reset line when the hypervisor
    /// commands a reset (see [`ha::Accelerator::reset`]).
    pub fn accelerator_mut(&mut self, i: usize) -> Option<&mut dyn Accelerator> {
        let &idx = self.acc_nodes.get(i)?;
        match &mut self.nodes[idx].kind {
            NodeKind::Accelerator(a) => Some(a.acc.as_mut()),
            _ => unreachable!("acc_nodes indexes accelerator nodes"),
        }
    }

    /// Completion interrupts raised since the last call: one entry per
    /// job completion, identifying the accelerator by insertion
    /// ordinal.
    pub fn take_irq_events(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.irq_events)
    }

    /// The label of a node.
    ///
    /// # Panics
    ///
    /// Panics when the handle is from a different topology.
    pub fn label(&self, id: NodeId) -> &str {
        &self.nodes[id.0].label
    }

    /// Looks a node up by its label.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.label == label).map(NodeId)
    }

    fn ic_node(&self, id: NodeId) -> Option<&IcNode> {
        match &self.nodes.get(id.0)?.kind {
            NodeKind::Interconnect(icn) => Some(icn),
            _ => None,
        }
    }

    fn ic_node_mut(&mut self, id: NodeId) -> Option<&mut IcNode> {
        match &mut self.nodes.get_mut(id.0)?.kind {
            NodeKind::Interconnect(icn) => Some(icn),
            _ => None,
        }
    }

    /// The interconnect at `id` as a trait object, or `None` when the
    /// node is not an interconnect.
    pub fn interconnect_dyn(&self, id: NodeId) -> Option<&dyn AxiInterconnect> {
        self.ic_node(id).map(|icn| &*icn.ic as &dyn AxiInterconnect)
    }

    /// Mutable trait-object view of the interconnect at `id`.
    pub fn interconnect_dyn_mut(&mut self, id: NodeId) -> Option<&mut dyn AxiInterconnect> {
        self.ic_node_mut(id)
            .map(|icn| &mut *icn.ic as &mut dyn AxiInterconnect)
    }

    /// Downcasts the interconnect at `id` to its concrete model.
    pub fn interconnect_as<T: AxiInterconnect + 'static>(&self, id: NodeId) -> Option<&T> {
        self.ic_node(id)?.ic.as_any().downcast_ref::<T>()
    }

    /// Mutable downcast of the interconnect at `id` (for model-specific
    /// configuration — register files, fault injection, decoupling).
    pub fn interconnect_as_mut<T: AxiInterconnect + 'static>(
        &mut self,
        id: NodeId,
    ) -> Option<&mut T> {
        self.ic_node_mut(id)?.ic.as_any_mut().downcast_mut::<T>()
    }

    /// Direct access to the boxed interconnect payload (facade
    /// internals).
    #[allow(clippy::borrowed_box)]
    pub(crate) fn ic_box(&self, id: NodeId) -> &Box<dyn AxiInterconnect> {
        &self.ic_node(id).expect("facade node is an interconnect").ic
    }

    /// Mutable access to the boxed interconnect payload (facade
    /// internals).
    pub(crate) fn ic_box_mut(&mut self, id: NodeId) -> &mut Box<dyn AxiInterconnect> {
        &mut self
            .ic_node_mut(id)
            .expect("facade node is an interconnect")
            .ic
    }

    /// The memory controller at `id`, or `None` when the node is not a
    /// memory.
    pub fn memory(&self, id: NodeId) -> Option<&MemoryController> {
        match &self.nodes.get(id.0)?.kind {
            NodeKind::Memory(m) => Some(&m.mem),
            _ => None,
        }
    }

    /// Mutable access to the memory controller at `id`.
    pub fn memory_mut(&mut self, id: NodeId) -> Option<&mut MemoryController> {
        match &mut self.nodes.get_mut(id.0)?.kind {
            NodeKind::Memory(m) => Some(&mut m.mem),
            _ => None,
        }
    }

    /// Beat counters of the bridge above cascaded interconnect `child`,
    /// or `None` when `child` is a root (no bridge) or not an
    /// interconnect.
    pub fn bridge_stats(&self, child: NodeId) -> Option<BridgeStats> {
        let (parent, port) = self.ic_node(child)?.parent?;
        match &self.nodes[parent].kind {
            NodeKind::Interconnect(p) => p.children[port]
                .as_ref()
                .and_then(|c| c.bridge.as_ref())
                .map(AxiBridge::stats),
            _ => None,
        }
    }

    /// Connects an accelerator to the lowest free slave port of the
    /// interconnect at `ic` after the topology was built, returning the
    /// port it occupies. This is the facade's `add_accelerator`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::KindMismatch`] when `ic` is not an
    /// interconnect, [`TopologyError::PortsExhausted`] when every slave
    /// port is taken.
    pub fn add_accelerator(
        &mut self,
        ic: NodeId,
        acc: Box<dyn Accelerator>,
    ) -> Result<usize, TopologyError> {
        let ic_idx = ic.0;
        let Some(icn) = self.ic_node(ic) else {
            let label = self
                .nodes
                .get(ic_idx)
                .map_or_else(|| format!("#{ic_idx}"), |n| n.label.clone());
            return Err(TopologyError::KindMismatch {
                label,
                expected: "an interconnect",
            });
        };
        let Some(port) = icn.children.iter().position(Option::is_none) else {
            return Err(TopologyError::PortsExhausted {
                label: self.nodes[ic_idx].label.clone(),
                num_ports: icn.children.len(),
            });
        };
        let ordinal = self.acc_nodes.len();
        let mut label = format!("acc{ordinal}");
        while self.nodes.iter().any(|n| n.label == label) {
            label.push('\'');
        }
        let was_done = acc.is_done();
        self.done_count += was_done as usize;
        self.nodes.push(Node {
            label,
            kind: NodeKind::Accelerator(AccNode {
                acc,
                ordinal,
                bound: true,
                last_jobs: 0,
                was_done,
            }),
        });
        let node = self.nodes.len() - 1;
        self.stamps.push(None);
        self.acc_nodes.push(node);
        let NodeKind::Interconnect(icn) = &mut self.nodes[ic_idx].kind else {
            unreachable!("checked above");
        };
        icn.children[port] = Some(Child { node, bridge: None });
        self.build_tables();
        Ok(port)
    }

    /// Starts recording a beat-level waveform (VCD) at the FPGA-PS
    /// boundary of memory node `mem`; retrieve it with
    /// [`SocTopology::waveform_vcd`]. Recording samples every cycle,
    /// so it forces naive stepping.
    pub fn attach_waveform(&mut self, mem: NodeId) {
        if let NodeKind::Memory(m) = &mut self.nodes[mem.0].kind {
            m.wave = Some(WaveProbe::new());
        }
    }

    /// Renders the waveform recorded at memory node `mem` as a VCD
    /// file, if recording was enabled.
    pub fn waveform_vcd(&self, mem: NodeId) -> Option<String> {
        match &self.nodes.get(mem.0)?.kind {
            NodeKind::Memory(m) => m.wave.as_ref().map(|w| w.vcd.render()),
            _ => None,
        }
    }

    /// Jobs/frames per *simulated second* completed by accelerator `i`
    /// so far — the paper's "rate per second" performance index.
    ///
    /// # Panics
    ///
    /// Panics when no accelerator has ordinal `i`.
    pub fn rate_per_second(&self, i: usize) -> f64 {
        let acc = self.accelerator(i).expect("no accelerator at this ordinal");
        self.clock.events_per_second(acc.jobs_completed(), self.now)
    }

    /// Whether the fast-forward scheduler may skip cycles right now.
    fn fast_forward_active(&self) -> bool {
        self.scheduler == SchedulerMode::FastForward
            && !self
                .mem_nodes
                .iter()
                .any(|&idx| match &self.nodes[idx].kind {
                    NodeKind::Memory(m) => m.wave.is_some(),
                    _ => false,
                })
    }

    /// Rebuilds the child tables from the graph (at build time and
    /// whenever a post-build accelerator joins it).
    fn build_tables(&mut self) {
        self.slots.clear();
        self.seen.clear();
        self.slot_at.clear();
        self.tables = vec![Table::default(); self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            let NodeKind::Interconnect(icn) = &node.kind else {
                continue;
            };
            let first = self.slots.len();
            let ports = self.seen.len();
            self.seen.resize(ports + icn.children.len(), 0);
            self.slot_at.resize(ports + icn.children.len(), usize::MAX);
            for (port, c) in icn.children.iter().enumerate() {
                let Some(c) = c else { continue };
                self.slot_at[ports + port] = self.slots.len();
                self.slots.push(match c.bridge {
                    None => Slot::Leaf {
                        port,
                        node: c.node,
                        wake: self.now,
                        fresh: true,
                    },
                    Some(_) => Slot::Cascade {
                        port,
                        node: c.node,
                        wake: self.now,
                    },
                });
            }
            self.tables[id] = Table {
                first,
                end: self.slots.len(),
                ports,
                span: span(&self.nodes, id),
                ..Table::default()
            };
            self.activity
                .resize(self.activity.len().max(icn.children.len()), 0);
        }
    }

    /// Wakes every node and bridge at `now`: a run entry, after which
    /// whatever changed between calls is seen.
    fn wake_all(&mut self, now: Cycle) {
        for table in &mut self.tables {
            table.wake = now;
            table.subtree_wake = now;
        }
        for slot in &mut self.slots {
            match slot {
                Slot::Leaf { wake, fresh, .. } => {
                    *wake = now;
                    *fresh = true;
                }
                Slot::Cascade { wake, .. } => *wake = now,
            }
        }
    }

    /// One node's event-horizon hint; an interconnect's includes the
    /// bridges it drives.
    fn node_horizon(&self, node: usize, now: Cycle) -> Option<Cycle> {
        match &self.nodes[node].kind {
            NodeKind::Accelerator(a) => a.acc.next_event(now),
            NodeKind::Interconnect(icn) => icn
                .children
                .iter()
                .flatten()
                .filter_map(|c| c.bridge.as_ref()?.next_event())
                .chain(icn.ic.next_event(now))
                .min(),
            NodeKind::Memory(m) => m.mem.next_event(now),
        }
    }

    /// Records a node's tick outcome.
    fn note_progress(&mut self, node: usize, now: Cycle, progress: bool) -> bool {
        if progress {
            self.stamps[node] = Some(now);
        }
        progress
    }

    /// Counts the subtree under interconnect `id` as passed over.
    fn pass_over(&mut self, id: usize) {
        let span = self.tables[id].span;
        self.work.ic_skips += span.ics;
        self.work.leaf_skips += span.leaves;
        self.work.bridge_skips += span.bridges;
    }

    /// Ticks the forest for cycle `now` in the deterministic order: each
    /// root's subtree, then its memory. A node ticks only when its wake
    /// has come; with `skip` off (naive stepping, a waveform,
    /// `Component::tick`) every wake is the next cycle, so every node
    /// ticks and every bridge transfers.
    fn tick_forest(&mut self, now: Cycle, skip: bool) -> bool {
        let mut progress = false;
        for i in 0..self.roots.len() {
            let (root, mem) = self.roots[i];
            if self.tables[root].subtree_wake <= now {
                progress |= self.tick_subtree(root, now, skip);
            } else {
                self.pass_over(root);
            }
            if self.tables[mem].wake <= now {
                progress |= self.tick_memory(root, mem, now, skip);
            } else {
                self.work.mem_skips += 1;
            }
        }
        progress
    }

    /// The earliest wake in the forest: the next cycle anything ticks.
    fn next_wake(&self) -> Cycle {
        self.roots
            .iter()
            .map(|&(root, mem)| self.tables[root].subtree_wake.min(self.tables[mem].wake))
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// Ticks the due nodes of one interconnect subtree in the
    /// deterministic order: children in slave-port order (accelerators
    /// directly, cascaded interconnects recursively followed by their
    /// bridge), then the interconnect itself. A cascaded subtree with
    /// nothing due is passed over whole.
    fn tick_subtree(&mut self, id: usize, now: Cycle, skip: bool) -> bool {
        let mut progress = false;
        let mut wake = Cycle::MAX;
        for k in self.tables[id].first..self.tables[id].end {
            match self.slots[k] {
                Slot::Leaf { wake: due, .. } => {
                    if due <= now {
                        progress |= self.tick_leaf(id, k, now, skip);
                    } else {
                        self.work.leaf_skips += 1;
                    }
                }
                Slot::Cascade { node, .. } => {
                    if self.tables[node].subtree_wake <= now {
                        progress |= self.tick_subtree(node, now, skip);
                    } else {
                        self.pass_over(node);
                    }
                    // Re-read: the child's tick may have pulled the bridge.
                    let Slot::Cascade { wake: due, .. } = self.slots[k] else {
                        unreachable!("slots keep their kind");
                    };
                    if due <= now {
                        progress |= self.transfer(id, k, now, skip);
                    } else {
                        self.work.bridge_skips += 1;
                    }
                    wake = wake.min(self.tables[node].subtree_wake);
                }
            }
            let (Slot::Leaf { wake: w, .. } | Slot::Cascade { wake: w, .. }) = self.slots[k];
            wake = wake.min(w);
        }
        self.tables[id].subtree_wake = wake;
        if self.tables[id].wake <= now {
            progress |= self.tick_interconnect(id, now, skip);
        } else {
            self.work.ic_skips += 1;
        }
        let table = &mut self.tables[id];
        table.subtree_wake = table.subtree_wake.min(table.wake);
        progress
    }

    /// Ticks interconnect `id`, then sets its wake: the next cycle after
    /// progress (or always, without `skip`), else its own `next_event`.
    fn tick_interconnect(&mut self, id: usize, now: Cycle, skip: bool) -> bool {
        let NodeKind::Interconnect(icn) = &mut self.nodes[id].kind else {
            unreachable!("subtree roots are interconnects");
        };
        let p = icn.ic.tick(now);
        self.tables[id].wake = if p || !skip {
            now + 1
        } else {
            icn.ic
                .next_event(now)
                .map_or(Cycle::MAX, |h| h.max(now + 1))
        };
        self.work.ic_ticks += 1;
        // Without `skip` every node wakes next cycle anyway.
        if skip {
            self.watch_ports(id, now);
        }
        self.note_progress(id, now, p)
    }

    /// Ticks the memory controller on root `root`'s master port, then
    /// sets its wake: the next cycle after progress (or always, without
    /// `skip`), else the earliest of its own `next_event` and the next
    /// request due on the port. A port it touched wakes the root next
    /// cycle.
    fn tick_memory(&mut self, root: usize, mem: usize, now: Cycle, skip: bool) -> bool {
        let (ic_node, mem_node) = two_nodes(&mut self.nodes, root, mem);
        let NodeKind::Interconnect(icn) = &mut ic_node.kind else {
            unreachable!("roots are interconnects");
        };
        let NodeKind::Memory(m) = &mut mem_node.kind else {
            unreachable!("memory edge points at a memory node");
        };
        let port = icn.ic.mem_port();
        if let Some(wave) = m.wave.as_mut() {
            wave.sample(now, port);
        }
        let p = m.mem.tick(now, port);
        self.tables[mem].wake = if p || !skip {
            now + 1
        } else {
            [
                m.mem.next_event(now),
                port.ar.next_ready_at(),
                port.aw.next_ready_at(),
                port.w.next_ready_at(),
            ]
            .into_iter()
            .flatten()
            .min()
            .map_or(Cycle::MAX, |w| w.max(now + 1))
        };
        let stamp = port.activity();
        let table = &mut self.tables[root];
        if stamp != table.master_seen {
            table.master_seen = stamp;
            table.wake = table.wake.min(now + 1);
            table.subtree_wake = table.subtree_wake.min(now + 1);
        }
        self.work.mem_ticks += 1;
        self.note_progress(mem, now, p)
    }

    /// Ticks the accelerator of leaf slot `k` against its port on
    /// interconnect `id`, then sets its wake: the next cycle after
    /// progress (or always, without `skip`), else the earliest of its own
    /// `next_event` and the next R or B beat due on its port. A port it
    /// touched wakes the interconnect this cycle. The IRQ and done
    /// bookkeeping runs after progress and on the first tick after a
    /// run entry, the only ticks that can change what it reads.
    fn tick_leaf(&mut self, id: usize, k: usize, now: Cycle, skip: bool) -> bool {
        let Slot::Leaf {
            port, node, fresh, ..
        } = self.slots[k]
        else {
            unreachable!("tick_leaf takes a leaf slot");
        };
        let (parent, child) = two_nodes(&mut self.nodes, id, node);
        let NodeKind::Interconnect(picn) = &mut parent.kind else {
            unreachable!("parent is an interconnect");
        };
        let NodeKind::Accelerator(a) = &mut child.kind else {
            unreachable!("leaf slots hold accelerators");
        };
        let port_ref = picn.ic.port(port);
        let p = a.acc.tick(now, port_ref);
        if p || fresh {
            let jobs = a.acc.jobs_completed();
            for _ in a.last_jobs..jobs {
                self.irq_events.push(a.ordinal);
            }
            if !a.was_done && a.acc.is_done() {
                a.was_done = true;
                self.done_count += 1;
            }
            a.last_jobs = jobs;
        }
        let wake = if p || !skip {
            now + 1
        } else {
            [
                a.acc.next_event(now),
                port_ref.r.next_ready_at(),
                port_ref.b.next_ready_at(),
            ]
            .into_iter()
            .flatten()
            .min()
            .map_or(Cycle::MAX, |w| w.max(now + 1))
        };
        let stamp = port_ref.activity();
        self.look(id, port, stamp, now);
        self.slots[k] = Slot::Leaf {
            port,
            node,
            wake,
            fresh: false,
        };
        self.work.leaf_ticks += 1;
        self.note_progress(node, now, p)
    }

    /// Runs the bridge of cascade slot `k` under interconnect `id`, then
    /// sets its wake: the next cycle after it moved a beat (or always,
    /// without `skip`), else the earliest beat it could move. A port it
    /// touched wakes its owner: the parent this cycle, the child (whose
    /// subtree already ticked) the next.
    fn transfer(&mut self, id: usize, k: usize, now: Cycle, skip: bool) -> bool {
        let Slot::Cascade { port, node, .. } = self.slots[k] else {
            unreachable!("transfer takes a cascade slot");
        };
        let (parent, child) = two_nodes(&mut self.nodes, id, node);
        let NodeKind::Interconnect(picn) = &mut parent.kind else {
            unreachable!("parent is an interconnect");
        };
        let NodeKind::Interconnect(cicn) = &mut child.kind else {
            unreachable!("cascaded child is an interconnect");
        };
        let bridge = picn.children[port]
            .as_mut()
            .and_then(|c| c.bridge.as_mut())
            .expect("cascaded child has a bridge");
        let (up, down) = (cicn.ic.mem_port(), picn.ic.port(port));
        let moved = bridge.transfer(now, up, down);
        let wake = if moved || !skip {
            now + 1
        } else {
            [
                bridge.next_event(),
                up.ar.next_ready_at(),
                up.aw.next_ready_at(),
                up.w.next_ready_at(),
                down.r.next_ready_at(),
                down.b.next_ready_at(),
            ]
            .into_iter()
            .flatten()
            .min()
            .map_or(Cycle::MAX, |w| w.max(now + 1))
        };
        let (down_stamp, up_stamp) = (down.activity(), up.activity());
        self.slots[k] = Slot::Cascade { port, node, wake };
        self.look(id, port, down_stamp, now);
        let table = &mut self.tables[node];
        if up_stamp != table.master_seen {
            table.master_seen = up_stamp;
            table.wake = table.wake.min(now + 1);
            table.subtree_wake = table.subtree_wake.min(now + 1);
        }
        self.work.bridge_transfers += 1;
        if moved {
            self.stamps[node] = Some(now);
        }
        moved
    }

    /// After the child on slave port `port` of interconnect `id` acted at
    /// `now`, leaving the port's activity stamp at `stamp`: when it
    /// touched the port, the interconnect wakes this cycle (it ticks
    /// after its children).
    fn look(&mut self, id: usize, port: usize, stamp: u64, now: Cycle) {
        let table = &mut self.tables[id];
        let seen = &mut self.seen[table.ports + port];
        if stamp != *seen {
            *seen = stamp;
            table.wake = table.wake.min(now);
        }
    }

    /// After interconnect `id` ticked at `now`: wakes, for the next
    /// cycle, every child whose slave port it touched, and for this
    /// cycle the memory or bridge on its master port if it touched that
    /// (both act after it). Nothing else touches those ports before
    /// then, so the wake state stays exact.
    fn watch_ports(&mut self, id: usize, now: Cycle) {
        let NodeKind::Interconnect(icn) = &mut self.nodes[id].kind else {
            unreachable!("only interconnects have child tables");
        };
        let stamp = icn.ic.mem_port().activity();
        if stamp != self.tables[id].master_seen {
            self.tables[id].master_seen = stamp;
            let wake = match icn.parent {
                Some((parent, port)) => {
                    match &mut self.slots[self.slot_at[self.tables[parent].ports + port]] {
                        Slot::Cascade { wake, .. } => wake,
                        Slot::Leaf { .. } => unreachable!("a parent port holds a bridge"),
                    }
                }
                None => &mut self.tables[icn.memory.expect("roots have memory")].wake,
            };
            *wake = (*wake).min(now);
        }
        let table = &mut self.tables[id];
        if table.first == table.end {
            return;
        }
        let ports = table.ports..table.ports + icn.children.len();
        icn.ic.port_activity(&mut self.activity);
        let stamps = self.activity.iter().zip(&mut self.seen[ports.clone()]);
        for ((&stamp, seen), &k) in stamps.zip(&self.slot_at[ports]) {
            if stamp == *seen {
                continue;
            }
            *seen = stamp;
            // An unbound port has no slot (`usize::MAX`).
            let Some(Slot::Leaf { wake, .. } | Slot::Cascade { wake, .. }) = self.slots.get_mut(k)
            else {
                continue;
            };
            *wake = (*wake).min(now + 1);
            table.subtree_wake = table.subtree_wake.min(now + 1);
        }
    }

    /// The fast-forward calendar behind [`SocTopology::run_for`] and
    /// [`SocTopology::run_until_done`]: ticks until `bound`, or until
    /// every accelerator is done when `until_done` is set.
    ///
    /// Every node wakes at entry (covering mutations made between
    /// calls). Each cycle ticks the nodes whose wake has come, and each
    /// sets its next wake as it ticks. When no node is due at the next
    /// cycle, `now` jumps to the earliest wake — those are the skipped
    /// cycles.
    fn run_calendar(&mut self, bound: Cycle, until_done: bool) {
        let skip = self.fast_forward_active();
        self.wake_all(self.now);
        while self.now < bound && !(until_done && self.done_count == self.acc_nodes.len()) {
            let t = self.now;
            self.tick_forest(t, skip);
            let next = self.next_wake().min(bound);
            self.now = t + 1;
            if next > self.now {
                self.skipped_cycles += next - self.now;
                self.now = next;
            }
        }
    }
    /// Runs for exactly `cycles` cycles.
    pub fn run_for(&mut self, cycles: Cycle) {
        self.run_calendar(self.now + cycles, false);
    }

    /// Runs for exactly `cycles` cycles, calling `hook(t, self)` after
    /// every cycle `t` with `t % every == 0` has been simulated (so
    /// `now() == t + 1` inside the hook).
    ///
    /// This is how a hypervisor rides along: it polls health registers,
    /// decouples ports and rewrites budgets at its own software rate.
    /// The cadence is absolute, so a run resumed mid-way sees the polls
    /// a run from cycle 0 would. Between polls the wake calendar runs
    /// unchanged; each poll ends one [`SocTopology::run_for`] and the
    /// next wakes every node at entry, so whatever the hook changed is
    /// seen on the following cycle.
    ///
    /// # Panics
    ///
    /// Panics when `every` is 0.
    pub fn run_polled(&mut self, cycles: Cycle, every: Cycle, hook: impl FnMut(Cycle, &mut Self)) {
        poll_loop(self, |topo| topo, cycles, every, hook);
    }

    /// Runs until every finite accelerator reports done (at most
    /// `max_cycles`). Returns the outcome.
    pub fn run_until_done(&mut self, max_cycles: Cycle) -> sim::RunOutcome {
        self.run_calendar(self.now + max_cycles, true);
        if self.done_count == self.acc_nodes.len() {
            sim::RunOutcome::Done(self.now)
        } else {
            sim::RunOutcome::CycleLimit(self.now)
        }
    }

    fn json_escape(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }

    /// One JSON object capturing the whole tree's observability state,
    /// keyed on node labels so multi-interconnect snapshots don't
    /// collide (schema `axi-hyperconnect/topology-metrics/v1`; the flat
    /// facade keeps emitting the original
    /// `axi-hyperconnect/metrics-snapshot/v1` unchanged).
    pub fn metrics_snapshot_json(&mut self) -> String {
        // Re-stamp instance labels: observability may have been armed
        // after build.
        for i in 0..self.ic_nodes.len() {
            let idx = self.ic_nodes[i];
            let label = self.nodes[idx].label.clone();
            if let NodeKind::Interconnect(icn) = &mut self.nodes[idx].kind {
                if let Some(m) = icn.ic.metrics_mut() {
                    m.set_instance(label);
                }
            }
        }
        let mut ics = Vec::new();
        for &idx in &self.ic_nodes {
            let NodeKind::Interconnect(icn) = &self.nodes[idx].kind else {
                continue;
            };
            let metrics = icn
                .ic
                .metrics()
                .map_or_else(|| "null".to_owned(), |m| m.to_json());
            let bound = icn
                .ic
                .bound_report()
                .map_or_else(|| "{\"enabled\":false}".to_owned(), |r| r.to_json());
            ics.push(format!(
                "{{\"node\":\"{}\",\"model\":\"{}\",\"metrics\":{metrics},\"bound_monitor\":{bound}}}",
                Self::json_escape(&self.nodes[idx].label),
                icn.ic.name(),
            ));
        }
        let mut mems = Vec::new();
        for &idx in &self.mem_nodes {
            let NodeKind::Memory(m) = &self.nodes[idx].kind else {
                continue;
            };
            let out = m.mem.outstanding_gauge();
            mems.push(format!(
                "{{\"node\":\"{}\",\"outstanding\":{{\"current\":{},\"peak\":{}}}}}",
                Self::json_escape(&self.nodes[idx].label),
                out.current(),
                out.peak(),
            ));
        }
        let mut bridges = Vec::new();
        for &idx in &self.ic_nodes {
            let NodeKind::Interconnect(icn) = &self.nodes[idx].kind else {
                continue;
            };
            for child in icn.children.iter().flatten() {
                if let Some(bridge) = &child.bridge {
                    let stats = bridge.stats();
                    bridges.push(format!(
                        "{{\"node\":\"{}\",\"latency\":{},\"beats_down\":{},\"beats_up\":{}}}",
                        Self::json_escape(&self.nodes[child.node].label),
                        bridge.config().latency,
                        stats.beats_down,
                        stats.beats_up,
                    ));
                }
            }
        }
        format!(
            "{{\"schema\":\"axi-hyperconnect/topology-metrics/v1\",\"cycles\":{},\
             \"interconnects\":[{}],\"memories\":[{}],\"bridges\":[{}]}}",
            self.now,
            ics.join(","),
            mems.join(","),
            bridges.join(","),
        )
    }

    /// Exports the topology as an integration-flow
    /// [`hypervisor::integrator::Design`] netlist: one component per
    /// node, accelerator masters wired to slave ports, cascaded
    /// interconnect masters wired to their parent's slave ports, every
    /// root master wired to its PS port, every control interface to the
    /// hypervisor's PS-FPGA port.
    ///
    /// # Panics
    ///
    /// Never: a built topology always satisfies the integrator's
    /// connection rules.
    pub fn export_design(&self) -> hypervisor::integrator::Design {
        use hypervisor::integrator::{ComponentDesc, DesignBuilder};
        let mut b = DesignBuilder::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            match &node.kind {
                NodeKind::Interconnect(icn) => {
                    b.add_instance(
                        &node.label,
                        ComponentDesc::interconnect(icn.ic.name(), icn.ic.num_ports()),
                    )
                    .expect("topology labels are unique");
                }
                NodeKind::Accelerator(_) => {
                    b.add_instance(&node.label, ComponentDesc::accelerator(&node.label))
                        .expect("topology labels are unique");
                }
                NodeKind::Memory(_) => {
                    let _ = idx;
                }
            }
        }
        for node in &self.nodes {
            let NodeKind::Interconnect(icn) = &node.kind else {
                continue;
            };
            for (port, child) in icn.children.iter().enumerate() {
                let Some(child) = child else { continue };
                let child_label = &self.nodes[child.node].label;
                let master = match &self.nodes[child.node].kind {
                    NodeKind::Interconnect(_) => "M00_AXI",
                    _ => "M_AXI",
                };
                b.connect(child_label, master, &node.label, &format!("S{port:02}_AXI"))
                    .expect("built topology satisfies connection rules");
            }
            if let Some(mem) = icn.memory {
                b.connect_ps_master(&node.label, "M00_AXI", &self.nodes[mem].label)
                    .expect("root masters are bound exactly once");
            }
            b.connect_ctrl(&node.label, "S_AXI_CTRL")
                .expect("interconnect descriptions expose a control slave");
        }
        for node in &self.nodes {
            if matches!(node.kind, NodeKind::Accelerator(_)) {
                b.connect_ctrl(&node.label, "S_AXI_CTRL")
                    .expect("accelerator descriptions expose a control slave");
            }
        }
        b.build().expect("built topology is a valid design")
    }
}

mod persist_impls {
    use super::{NodeKind, SocTopology, WaveProbe};
    use sim::persist::{
        Persist, PersistError, PersistValue, Snapshot, SnapshotReader, SnapshotWriter,
    };

    impl Persist for WaveProbe {
        sim::persist_state! {
            WaveProbe as save, restore { vcd }
            skip "signal handles, assigned deterministically by `WaveProbe::new`" {
                ar_valid, ar_addr, aw_valid, w_valid, r_valid, b_valid
            }
        }
    }

    /// Section names of a topology snapshot, in container order. The CI
    /// schema checker pins these against a committed golden.
    pub const SECTION_SHAPE: &str = "topology/shape";
    /// Scheduler, clock and run-loop scalars.
    pub const SECTION_CONTROL: &str = "topology/control";
    /// Per-node component state in node-index order.
    pub const SECTION_NODES: &str = "topology/nodes";

    /// Kind tags used in the shape section (append-only).
    fn kind_tag(kind: &NodeKind) -> u8 {
        match kind {
            NodeKind::Accelerator(_) => 0,
            NodeKind::Interconnect(_) => 1,
            NodeKind::Memory(_) => 2,
        }
    }

    impl SocTopology {
        /// Serializes the shape fingerprint a restore target must match:
        /// node labels, kinds and the full wiring (children, bridges,
        /// parents, memory edges).
        fn save_shape(&self, w: &mut SnapshotWriter) {
            w.put_usize(self.nodes.len());
            for node in &self.nodes {
                w.put_str(&node.label);
                w.put_u8(kind_tag(&node.kind));
                if let NodeKind::Interconnect(icn) = &node.kind {
                    w.put_usize(icn.children.len());
                    for child in &icn.children {
                        match child {
                            None => w.put_bool(false),
                            Some(c) => {
                                w.put_bool(true);
                                w.put_usize(c.node);
                                w.put_bool(c.bridge.is_some());
                            }
                        }
                    }
                    icn.memory.save_value(w);
                    icn.parent.save_value(w);
                }
            }
        }

        /// Checks the shape stream against this topology, consuming it.
        fn check_shape(&self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
            if r.take_usize()? != self.nodes.len() {
                return Err(PersistError::ShapeMismatch("topology node count"));
            }
            for node in &self.nodes {
                if r.take_str()? != node.label {
                    return Err(PersistError::ShapeMismatch("topology node label"));
                }
                if r.take_u8()? != kind_tag(&node.kind) {
                    return Err(PersistError::ShapeMismatch("topology node kind"));
                }
                if let NodeKind::Interconnect(icn) = &node.kind {
                    if r.take_usize()? != icn.children.len() {
                        return Err(PersistError::ShapeMismatch("interconnect port count"));
                    }
                    for child in &icn.children {
                        let bound = r.take_bool()?;
                        match (bound, child) {
                            (false, None) => {}
                            (true, Some(c)) => {
                                if r.take_usize()? != c.node || r.take_bool()? != c.bridge.is_some()
                                {
                                    return Err(PersistError::ShapeMismatch("slave-port binding"));
                                }
                            }
                            _ => {
                                return Err(PersistError::ShapeMismatch("slave-port binding"));
                            }
                        }
                    }
                    let memory: Option<usize> = Option::load_value(r)?;
                    let parent: Option<(usize, usize)> = Option::load_value(r)?;
                    if memory != icn.memory || parent != icn.parent {
                        return Err(PersistError::ShapeMismatch("master-port binding"));
                    }
                }
            }
            Ok(())
        }

        /// Captures the complete dynamic state of the topology as a
        /// versioned `hcsim-snapshot/v1` container: every accelerator,
        /// interconnect, bridge and memory controller plus the run-loop
        /// scalars (cycle, completion count, clock, IRQ backlog, stall
        /// stamps).
        ///
        /// Restoring the returned snapshot into an identically built
        /// topology and resuming produces byte-identical behavior to
        /// the uninterrupted run — the property the snapshot oracle
        /// pins under both naive and fast-forward execution.
        pub fn save_snapshot(&self) -> Snapshot {
            let mut snap = Snapshot::new();
            let mut w = SnapshotWriter::new();
            self.save_shape(&mut w);
            snap.push_section(SECTION_SHAPE, w);

            // Scheduler choice and skipped-cycle counters are execution
            // artifacts, not simulator state: excluding them keeps
            // snapshots byte-comparable across naive and fast-forward
            // runs of the same state.
            let mut w = SnapshotWriter::new();
            w.put_u64(self.now);
            w.put_usize(self.done_count);
            self.clock.save_value(&mut w);
            self.stamps.save_value(&mut w);
            self.irq_events.save_value(&mut w);
            snap.push_section(SECTION_CONTROL, w);

            let mut w = SnapshotWriter::new();
            for node in &self.nodes {
                match &node.kind {
                    NodeKind::Accelerator(a) => {
                        a.acc.save_state(&mut w);
                        w.put_u64(a.last_jobs);
                        w.put_bool(a.was_done);
                    }
                    NodeKind::Interconnect(icn) => {
                        icn.ic.save_state(&mut w);
                        for child in icn.children.iter().flatten() {
                            if let Some(bridge) = &child.bridge {
                                bridge.save_value(&mut w);
                            }
                        }
                    }
                    NodeKind::Memory(m) => {
                        m.mem.save_state(&mut w);
                        match &m.wave {
                            None => w.put_bool(false),
                            Some(wave) => {
                                w.put_bool(true);
                                wave.save(&mut w);
                            }
                        }
                    }
                }
            }
            snap.push_section(SECTION_NODES, w);
            snap
        }

        /// Restores a snapshot produced by
        /// [`SocTopology::save_snapshot`] into this topology, which must
        /// have been built through the identical sequence of builder
        /// calls (same labels, wiring and component configurations).
        ///
        /// The shape section is verified in full before any node state
        /// is touched; node restores then proceed in index order, each
        /// guarded by the container's per-section CRC.
        ///
        /// # Errors
        ///
        /// [`PersistError::ShapeMismatch`] when the snapshot came from a
        /// differently built topology, or any decode error from a
        /// truncated/corrupt stream.
        pub fn restore_snapshot(&mut self, snap: &Snapshot) -> Result<(), PersistError> {
            let mut r = snap.require_section(SECTION_SHAPE)?;
            self.check_shape(&mut r)?;

            let mut r = snap.require_section(SECTION_CONTROL)?;
            let now = r.take_u64()?;
            let done_count = r.take_usize()?;
            let clock = sim::ClockConfig::load_value(&mut r)?;
            let stamps: Vec<Option<u64>> = Vec::load_value(&mut r)?;
            let irq_events: Vec<usize> = Vec::load_value(&mut r)?;
            if stamps.len() != self.nodes.len() {
                return Err(PersistError::ShapeMismatch("stall-stamp count"));
            }

            let mut r = snap.require_section(SECTION_NODES)?;
            for node in &mut self.nodes {
                match &mut node.kind {
                    NodeKind::Accelerator(a) => {
                        a.acc.restore_state(&mut r)?;
                        a.last_jobs = r.take_u64()?;
                        a.was_done = r.take_bool()?;
                    }
                    NodeKind::Interconnect(icn) => {
                        icn.ic.restore_state(&mut r)?;
                        for child in icn.children.iter_mut().flatten() {
                            if let Some(bridge) = &mut child.bridge {
                                *bridge = axi::AxiBridge::load_value(&mut r)?;
                            }
                        }
                    }
                    NodeKind::Memory(m) => {
                        m.mem.restore_state(&mut r)?;
                        if r.take_bool()? {
                            let wave = m.wave.get_or_insert_with(WaveProbe::new);
                            wave.restore(&mut r)?;
                        } else {
                            m.wave = None;
                        }
                    }
                }
            }

            self.now = now;
            self.done_count = done_count;
            self.clock = clock;
            self.stamps = stamps;
            self.irq_events = irq_events;
            Ok(())
        }

        /// Serializes [`SocTopology::save_snapshot`] straight to bytes.
        pub fn snapshot_bytes(&self) -> Vec<u8> {
            self.save_snapshot().to_bytes()
        }

        /// Parses `bytes` as a `hcsim-snapshot/v1` container and
        /// restores it via [`SocTopology::restore_snapshot`].
        ///
        /// # Errors
        ///
        /// Any container or decode error from
        /// [`Snapshot::from_bytes`] / [`SocTopology::restore_snapshot`].
        pub fn restore_snapshot_bytes(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
            self.restore_snapshot(&Snapshot::from_bytes(bytes)?)
        }
    }
}

pub use persist_impls::{SECTION_CONTROL, SECTION_NODES, SECTION_SHAPE};

impl std::fmt::Debug for SocTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocTopology")
            .field("nodes", &self.nodes.len())
            .field("roots", &self.roots.len())
            .field("accelerators", &self.acc_nodes.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl Component for SocTopology {
    /// Ticks every node and bridge, in the engine's order.
    fn tick(&mut self, now: Cycle) -> bool {
        debug_assert_eq!(now, self.now, "SocTopology must be ticked monotonically");
        self.wake_all(now);
        let progress = self.tick_forest(now, false);
        self.now = now + 1;
        progress
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.fast_forward_active() && self.scheduler == SchedulerMode::FastForward {
            // A waveform probe samples the boundary every cycle.
            return Some(now + 1);
        }
        (0..self.nodes.len())
            .filter_map(|n| self.node_horizon(n, now))
            .min()
    }
}

/// The one poll loop behind [`SocTopology::run_polled`] and
/// `SocSystem::run_polled`: runs the calendar up to and including each
/// poll cycle `t` (`t % every == 0`) of the next `cycles`, then calls
/// `hook(t, sys)`. `topo` projects the driven system onto its topology.
pub(crate) fn poll_loop<S>(
    sys: &mut S,
    topo: fn(&mut S) -> &mut SocTopology,
    cycles: Cycle,
    every: Cycle,
    mut hook: impl FnMut(Cycle, &mut S),
) {
    assert!(every > 0, "run_polled: `every` must be at least 1");
    let end = topo(sys).now + cycles;
    loop {
        let now = topo(sys).now;
        let t = now.next_multiple_of(every);
        if t >= end {
            topo(sys).run_for(end - now);
            return;
        }
        topo(sys).run_for(t + 1 - now);
        hook(t, sys);
    }
}

/// Typed access used by the facade: recover `&I` from the node's boxed
/// payload, accepting both concrete models and `Box<dyn
/// AxiInterconnect>` itself.
#[allow(clippy::borrowed_box)]
pub(crate) fn downcast_ic<I: AxiInterconnect + 'static>(b: &Box<dyn AxiInterconnect>) -> &I {
    if (b as &dyn Any).is::<I>() {
        return (b as &dyn Any).downcast_ref::<I>().expect("checked");
    }
    (**b)
        .as_any()
        .downcast_ref::<I>()
        .expect("facade node holds the system's interconnect type")
}

/// Mutable variant of [`downcast_ic`].
pub(crate) fn downcast_ic_mut<I: AxiInterconnect + 'static>(
    b: &mut Box<dyn AxiInterconnect>,
) -> &mut I {
    if (b as &dyn Any).is::<I>() {
        return (b as &mut dyn Any).downcast_mut::<I>().expect("checked");
    }
    (**b)
        .as_any_mut()
        .downcast_mut::<I>()
        .expect("facade node holds the system's interconnect type")
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi::types::BurstSize;
    use ha::dma::{Dma, DmaConfig};
    use hyperconnect::{HcConfig, HyperConnect};
    use mem::{MemConfig, MemoryController};

    fn dma(name: &str) -> Box<dyn Accelerator> {
        Box::new(Dma::new(
            name,
            DmaConfig::reader(1024, 16, BurstSize::B16).jobs(1),
        ))
    }

    #[test]
    fn flat_topology_runs_to_completion() {
        let mut b = TopologyBuilder::new();
        let ic = b
            .add_interconnect("hc", HyperConnect::new(HcConfig::new(2)))
            .unwrap();
        let mem = b
            .add_memory("ddr", MemoryController::new(MemConfig::default()))
            .unwrap();
        let d = b.add_accelerator("d", dma("d")).unwrap();
        b.attach(d, ic, 0).unwrap();
        b.connect_memory(ic, mem).unwrap();
        let mut topo = b.build().unwrap();
        assert!(topo.run_until_done(1_000_000).is_done());
        assert_eq!(topo.accelerator(0).unwrap().jobs_completed(), 1);
        assert_eq!(topo.take_irq_events(), vec![0]);
    }

    #[test]
    fn builder_rejects_duplicate_labels() {
        let mut b = TopologyBuilder::new();
        b.add_interconnect("x", HyperConnect::new(HcConfig::new(1)))
            .unwrap();
        let err = b
            .add_memory("x", MemoryController::new(MemConfig::ideal()))
            .unwrap_err();
        assert_eq!(
            err,
            TopologyError::DuplicateLabel {
                label: "x".to_owned()
            }
        );
    }

    #[test]
    fn builder_rejects_cycles() {
        let mut b = TopologyBuilder::new();
        let a = b
            .add_interconnect("a", HyperConnect::new(HcConfig::new(2)))
            .unwrap();
        let c = b
            .add_interconnect("c", HyperConnect::new(HcConfig::new(2)))
            .unwrap();
        b.cascade(a, c, 0).unwrap();
        let err = b.cascade(c, a, 0).unwrap_err();
        assert_eq!(
            err,
            TopologyError::CycleDetected {
                label: "c".to_owned()
            }
        );
        // Self-loops are cycles too.
        let mut b2 = TopologyBuilder::new();
        let solo = b2
            .add_interconnect("solo", HyperConnect::new(HcConfig::new(2)))
            .unwrap();
        assert!(matches!(
            b2.cascade(solo, solo, 0).unwrap_err(),
            TopologyError::CycleDetected { .. }
        ));
    }

    #[test]
    fn builder_rejects_double_bound_ports_and_masters() {
        let mut b = TopologyBuilder::new();
        let ic = b
            .add_interconnect("hc", HyperConnect::new(HcConfig::new(2)))
            .unwrap();
        let mem = b
            .add_memory("ddr", MemoryController::new(MemConfig::ideal()))
            .unwrap();
        let d0 = b.add_accelerator("d0", dma("d0")).unwrap();
        let d1 = b.add_accelerator("d1", dma("d1")).unwrap();
        b.attach(d0, ic, 0).unwrap();
        assert_eq!(
            b.attach(d1, ic, 0).unwrap_err(),
            TopologyError::SlavePortTaken {
                label: "hc".to_owned(),
                port: 0
            }
        );
        assert_eq!(
            b.attach(d0, ic, 1).unwrap_err(),
            TopologyError::AcceleratorAlreadyBound {
                label: "d0".to_owned()
            }
        );
        assert!(matches!(
            b.attach(d1, ic, 7).unwrap_err(),
            TopologyError::PortOutOfRange { port: 7, .. }
        ));
        b.connect_memory(ic, mem).unwrap();
        let mem2 = b
            .add_memory("ddr2", MemoryController::new(MemConfig::ideal()))
            .unwrap();
        assert_eq!(
            b.connect_memory(ic, mem2).unwrap_err(),
            TopologyError::MasterAlreadyBound {
                label: "hc".to_owned()
            }
        );
    }

    #[test]
    fn build_rejects_dangling_nodes() {
        // Unattached accelerator.
        let mut b = TopologyBuilder::new();
        let ic = b
            .add_interconnect("hc", HyperConnect::new(HcConfig::new(1)))
            .unwrap();
        let mem = b
            .add_memory("ddr", MemoryController::new(MemConfig::ideal()))
            .unwrap();
        b.connect_memory(ic, mem).unwrap();
        b.add_accelerator("lost", dma("lost")).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::UnboundAccelerator { .. }
        ));
        // Interconnect with no path to memory.
        let mut b = TopologyBuilder::new();
        b.add_interconnect("hc", HyperConnect::new(HcConfig::new(1)))
            .unwrap();
        b.add_memory("ddr", MemoryController::new(MemConfig::ideal()))
            .unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::UnboundMemory { .. } | TopologyError::DanglingInterconnect { .. }
        ));
        // No memory at all.
        let mut b = TopologyBuilder::new();
        b.add_interconnect("hc", HyperConnect::new(HcConfig::new(1)))
            .unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::DanglingInterconnect { .. }
        ));
        assert_eq!(
            TopologyBuilder::new().build().unwrap_err(),
            TopologyError::NoMemory
        );
    }

    #[test]
    fn error_display_is_informative() {
        let errs: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(TopologyError::DuplicateLabel { label: "x".into() }),
            Box::new(TopologyError::CycleDetected { label: "y".into() }),
            Box::new(TopologyError::PortsExhausted {
                label: "z".into(),
                num_ports: 2,
            }),
            Box::new(TopologyError::NoMemory),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
        assert_eq!(
            TopologyError::SlavePortTaken {
                label: "hc".into(),
                port: 1
            }
            .to_string(),
            "slave port 1 of interconnect \"hc\" is already bound"
        );
    }

    #[test]
    fn post_build_add_accelerator_assigns_ports_in_order() {
        let mut b = TopologyBuilder::new();
        let ic = b
            .add_interconnect("hc", HyperConnect::new(HcConfig::new(2)))
            .unwrap();
        let mem = b
            .add_memory("ddr", MemoryController::new(MemConfig::ideal()))
            .unwrap();
        b.connect_memory(ic, mem).unwrap();
        let mut topo = b.build().unwrap();
        assert_eq!(topo.add_accelerator(ic, dma("a")).unwrap(), 0);
        assert_eq!(topo.add_accelerator(ic, dma("b")).unwrap(), 1);
        assert_eq!(
            topo.add_accelerator(ic, dma("c")).unwrap_err(),
            TopologyError::PortsExhausted {
                label: "hc".to_owned(),
                num_ports: 2
            }
        );
        assert_eq!(topo.num_accelerators(), 2);
    }

    #[test]
    fn cascaded_topology_completes_and_counts_bridge_beats() {
        let mut b = TopologyBuilder::new();
        let root = b
            .add_interconnect("root", HyperConnect::new(HcConfig::new(2)))
            .unwrap();
        let leaf = b
            .add_interconnect("leaf", HyperConnect::new(HcConfig::new(2)))
            .unwrap();
        let mem = b
            .add_memory("ddr", MemoryController::new(MemConfig::default()))
            .unwrap();
        let d = b.add_accelerator("d", dma("d")).unwrap();
        b.cascade(leaf, root, 0).unwrap();
        b.attach(d, leaf, 0).unwrap();
        b.connect_memory(root, mem).unwrap();
        let mut topo = b.build().unwrap();
        assert!(topo.run_until_done(1_000_000).is_done());
        let stats = topo.bridge_stats(leaf).expect("leaf has a bridge");
        assert!(stats.beats_down > 0 && stats.beats_up > 0);
        assert!(topo.bridge_stats(root).is_none(), "roots have no bridge");
    }

    #[test]
    fn topology_snapshot_uses_node_labels() {
        let mut b = TopologyBuilder::new();
        let ic = b
            .add_interconnect("hc_main", HyperConnect::new(HcConfig::new(1)))
            .unwrap();
        let mem = b
            .add_memory("ddr0", MemoryController::new(MemConfig::ideal()))
            .unwrap();
        let d = b.add_accelerator("d", dma("d")).unwrap();
        b.attach(d, ic, 0).unwrap();
        b.connect_memory(ic, mem).unwrap();
        let mut topo = b.build().unwrap();
        topo.run_until_done(1_000_000);
        let json = topo.metrics_snapshot_json();
        assert!(json.contains("\"schema\":\"axi-hyperconnect/topology-metrics/v1\""));
        assert!(json.contains("\"node\":\"hc_main\""));
        assert!(json.contains("\"node\":\"ddr0\""));
    }

    fn cascaded_pair() -> (TopologyBuilder, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let root = b
            .add_interconnect("root", HyperConnect::new(HcConfig::new(2)))
            .unwrap();
        let leaf = b
            .add_interconnect("leaf", HyperConnect::new(HcConfig::new(2)))
            .unwrap();
        let mem = b
            .add_memory("ddr", MemoryController::new(MemConfig::default()))
            .unwrap();
        let d0 = b.add_accelerator("d0", dma("d0")).unwrap();
        let d1 = b.add_accelerator("d1", dma("d1")).unwrap();
        b.cascade_with(leaf, root, 0, BridgeConfig::registered().latency(2))
            .unwrap();
        b.attach(d0, leaf, 0).unwrap();
        b.attach(d1, root, 1).unwrap();
        b.connect_memory(root, mem).unwrap();
        (b, root, leaf, mem)
    }

    #[test]
    fn snapshot_midrun_restore_finishes_identically() {
        // Reference: run uninterrupted to completion.
        let (b, ..) = cascaded_pair();
        let mut reference = b.build().unwrap();
        assert!(reference.run_until_done(1_000_000).is_done());
        let done_cycle = reference.now();
        let reference_final = reference.snapshot_bytes();
        assert!(done_cycle > 2, "job must take a few cycles");

        // Split run: advance to the halfway point, snapshot, restore
        // into a fresh identically built topology, finish there.
        let (b, ..) = cascaded_pair();
        let mut first = b.build().unwrap();
        first.run_for(done_cycle / 2);
        let mid = first.snapshot_bytes();

        let (b, ..) = cascaded_pair();
        let mut resumed = b.build().unwrap();
        resumed.restore_snapshot_bytes(&mid).unwrap();
        assert_eq!(resumed.now(), first.now());
        // The restored topology re-saves byte-identically.
        assert_eq!(resumed.snapshot_bytes(), mid);
        assert!(resumed.run_until_done(1_000_000).is_done());
        assert_eq!(resumed.now(), done_cycle);
        assert_eq!(resumed.snapshot_bytes(), reference_final);
        assert_eq!(resumed.accelerator(0).unwrap().jobs_completed(), 1);
        assert_eq!(resumed.accelerator(1).unwrap().jobs_completed(), 1);
    }

    #[test]
    fn snapshot_rejects_differently_shaped_target() {
        let (b, ..) = cascaded_pair();
        let topo = b.build().unwrap();
        let snap = topo.save_snapshot();

        // A flat single-interconnect topology must refuse the snapshot.
        let mut b = TopologyBuilder::new();
        let ic = b
            .add_interconnect("hc", HyperConnect::new(HcConfig::new(2)))
            .unwrap();
        let mem = b
            .add_memory("ddr", MemoryController::new(MemConfig::ideal()))
            .unwrap();
        let d = b.add_accelerator("d", dma("d")).unwrap();
        b.attach(d, ic, 0).unwrap();
        b.connect_memory(ic, mem).unwrap();
        let mut other = b.build().unwrap();
        assert!(matches!(
            other.restore_snapshot(&snap),
            Err(sim::persist::PersistError::ShapeMismatch(_))
        ));
        // Untouched target still starts at cycle zero.
        assert_eq!(other.now(), 0);
    }

    #[test]
    fn snapshot_sections_are_pinned() {
        let (b, ..) = cascaded_pair();
        let topo = b.build().unwrap();
        let snap = topo.save_snapshot();
        assert_eq!(
            snap.section_names(),
            vec![SECTION_SHAPE, SECTION_CONTROL, SECTION_NODES]
        );
        let bytes = snap.to_bytes();
        assert!(bytes.starts_with(b"hcsim-snapshot/v1\n"));
    }

    #[test]
    fn node_lookup_by_label() {
        let mut b = TopologyBuilder::new();
        let ic = b
            .add_interconnect("hc", HyperConnect::new(HcConfig::new(1)))
            .unwrap();
        let mem = b
            .add_memory("ddr", MemoryController::new(MemConfig::ideal()))
            .unwrap();
        b.connect_memory(ic, mem).unwrap();
        let topo = b.build().unwrap();
        assert_eq!(topo.node_by_label("hc"), Some(ic));
        assert_eq!(topo.label(mem), "ddr");
        assert!(topo.node_by_label("nope").is_none());
        assert!(topo.interconnect_as::<HyperConnect>(ic).is_some());
        assert!(topo.interconnect_as::<HyperConnect>(mem).is_none());
        assert_eq!(topo.interconnect_dyn(ic).unwrap().name(), "HyperConnect");
    }
}
