//! The benchmark's own copy of the topology cycle loop, timed per call.
//!
//! `Rig` owns the same components `SocTopology` would and drives them
//! through public functions only, in the engine's order: within each
//! root slave port, a cascaded cluster ticks its accelerators in port
//! order (`Accelerator::tick(now, port)`), then its HyperConnect
//! (`Component::tick`), then its bridge (`AxiBridge::transfer`); a
//! directly attached accelerator just ticks. The root HyperConnect and
//! the memory controller (`MemoryController::tick(now, mem_port)`)
//! follow. After a cycle without progress the fast-forward target is
//! the minimum of every `next_event`, clamped exactly as `run_for`
//! clamps it.
//!
//! Timing chains one `Instant` per call: the stamp taken after a call
//! closes that call's span and opens the next. Each span therefore holds
//! the call plus one timer read; [`lap_cost_ns`] measures that timer
//! cost once, and [`Span::net_ns`] takes it out again, so the layer
//! times estimate the untraced engine's own cost and the residue against
//! the outer wall clock (`trace.unattributed_frac`) is the tracing cost.

use std::time::Instant;

use axi::bridge::{AxiBridge, BridgeStats};
use axi::AxiInterconnect;
use ha::Accelerator;
use hyperconnect::HyperConnect;
use mem::MemoryController;
use sim::{Component, Cycle};

use crate::model::{arm_observability, Child, Leaf, Parts, View};

/// The timed calls of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Nanoseconds between the stamps around the calls, timer included.
    pub ns: u64,
    /// Calls timed.
    pub calls: u64,
}

impl Span {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
    }

    /// Nanoseconds of the calls themselves: the spans less `lap_ns` of
    /// timer cost per call.
    pub fn net_ns(&self, lap_ns: f64) -> f64 {
        (self.ns as f64 - self.calls as f64 * lap_ns).max(0.0)
    }
}

/// Time spent per layer, plus the scheduler's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profile {
    /// `Accelerator::tick`, indexed by [`crate::model::HaClass`].
    pub ha: [Span; 4],
    /// The root HyperConnect's `Component::tick`.
    pub root: Span,
    /// Every cluster HyperConnect's `Component::tick`.
    pub cluster: Span,
    /// `AxiBridge::transfer`.
    pub bridge: Span,
    /// `MemoryController::tick`.
    pub mem: Span,
    /// The `next_event` minimum after a cycle without progress; one call
    /// per horizon probe.
    pub horizon: Span,
    /// Cycles ticked (not skipped).
    pub ticks: u64,
}

impl Profile {
    /// Every layer's net nanoseconds (see [`Span::net_ns`]).
    pub fn attributed_ns(&self, lap_ns: f64) -> f64 {
        self.ha
            .iter()
            .chain([
                &self.root,
                &self.cluster,
                &self.bridge,
                &self.mem,
                &self.horizon,
            ])
            .map(|s| s.net_ns(lap_ns))
            .sum()
    }
}

struct RigCluster {
    hc: HyperConnect,
    bridge: AxiBridge,
    leaves: Vec<Leaf>,
}

enum RigChild {
    Acc(Leaf),
    Cluster(Box<RigCluster>),
}

/// A workload driven by the benchmark's traced cycle loop.
pub struct Rig {
    root: HyperConnect,
    mem: MemoryController,
    children: Vec<RigChild>,
    now: Cycle,
    skipped: Cycle,
    /// Time and probe counters accumulated by [`Rig::run_for`].
    pub prof: Profile,
}

/// Closes the span opened at `*t`, opens the next, and returns the
/// closed span's length.
#[inline(always)]
fn lap(t: &mut Instant) -> u64 {
    let n = Instant::now();
    let d = n.duration_since(*t).as_nanos() as u64;
    *t = n;
    d
}

/// Host cost of one [`lap`]: the span an empty chain of laps measures
/// per lap, the fastest of five batches of 100 000 (preemption only
/// ever inflates it).
pub fn lap_cost_ns() -> f64 {
    const LAPS: u32 = 100_000;
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut t = start;
            let mut sink = 0u64;
            for _ in 0..LAPS {
                sink = sink.wrapping_add(lap(&mut t));
            }
            std::hint::black_box(sink);
            t.duration_since(start).as_nanos() as f64 / f64::from(LAPS)
        })
        .fold(f64::INFINITY, f64::min)
}

fn merge(h: &mut Option<Cycle>, c: Option<Cycle>) {
    *h = match (*h, c) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
}

impl Rig {
    /// Assembles `parts` for the traced loop.
    pub fn assemble(parts: Parts) -> Self {
        let Parts {
            mut root,
            mem,
            children,
            observe,
        } = parts;
        if observe {
            arm_observability(&mut root, mem.config());
        }
        let children = children
            .into_iter()
            .map(|c| match c {
                Child::Acc(leaf) => RigChild::Acc(leaf),
                Child::Cluster(c) => RigChild::Cluster(Box::new(RigCluster {
                    hc: c.hc,
                    bridge: AxiBridge::new(c.bridge),
                    leaves: c.leaves,
                })),
            })
            .collect();
        Self {
            root,
            mem,
            children,
            now: 0,
            skipped: 0,
            prof: Profile::default(),
        }
    }

    /// One cycle in the topology engine's order, every call timed.
    fn tick(&mut self, now: Cycle, t: &mut Instant) -> bool {
        let Self {
            root,
            mem,
            children,
            prof,
            ..
        } = self;
        let mut progress = false;
        for (port, child) in children.iter_mut().enumerate() {
            match child {
                RigChild::Acc(leaf) => {
                    progress |= leaf.acc.tick(now, root.port(port));
                    prof.ha[leaf.class as usize].add(lap(t));
                }
                RigChild::Cluster(c) => {
                    for (p, leaf) in c.leaves.iter_mut().enumerate() {
                        progress |= leaf.acc.tick(now, c.hc.port(p));
                        prof.ha[leaf.class as usize].add(lap(t));
                    }
                    progress |= c.hc.tick(now);
                    prof.cluster.add(lap(t));
                    progress |= c.bridge.transfer(now, c.hc.mem_port(), root.port(port));
                    prof.bridge.add(lap(t));
                }
            }
        }
        progress |= root.tick(now);
        prof.root.add(lap(t));
        progress |= mem.tick(now, root.mem_port());
        prof.mem.add(lap(t));
        self.now = now + 1;
        progress
    }

    /// The earliest cycle any component promises activity at.
    fn horizon(&self, now: Cycle) -> Option<Cycle> {
        let mut h = None;
        for child in &self.children {
            match child {
                RigChild::Acc(leaf) => merge(&mut h, leaf.acc.next_event(now)),
                RigChild::Cluster(c) => {
                    for leaf in &c.leaves {
                        merge(&mut h, leaf.acc.next_event(now));
                    }
                    merge(&mut h, c.hc.next_event(now));
                    merge(&mut h, c.bridge.next_event());
                }
            }
        }
        merge(&mut h, self.root.next_event(now));
        merge(&mut h, self.mem.next_event(now));
        h
    }

    /// Runs exactly `cycles` cycles under fast-forward scheduling, the
    /// way `SocTopology::run_for` does.
    pub fn run_for(&mut self, cycles: Cycle) {
        let end = self.now + cycles;
        let mut t = Instant::now();
        while self.now < end {
            let now = self.now;
            let progress = self.tick(now, &mut t);
            self.prof.ticks += 1;
            if !progress {
                let target = match self.horizon(now) {
                    Some(e) => e.max(now + 1).min(end),
                    None => end,
                };
                self.skipped += target - self.now;
                self.now = target;
                self.prof.horizon.add(lap(&mut t));
            }
        }
    }
}

impl View for Rig {
    fn now(&self) -> Cycle {
        self.now
    }

    fn skipped(&self) -> Cycle {
        self.skipped
    }

    fn hcs(&self) -> Vec<&HyperConnect> {
        let mut out = vec![&self.root];
        for child in &self.children {
            if let RigChild::Cluster(c) = child {
                out.push(&c.hc);
            }
        }
        out
    }

    fn mem(&self) -> &MemoryController {
        &self.mem
    }

    fn accs(&self) -> Vec<&dyn Accelerator> {
        let mut out = Vec::new();
        for child in &self.children {
            match child {
                RigChild::Acc(leaf) => out.push(leaf.acc.as_ref()),
                RigChild::Cluster(c) => out.extend(c.leaves.iter().map(|l| l.acc.as_ref())),
            }
        }
        out
    }

    fn bridges(&self) -> Vec<BridgeStats> {
        self.children
            .iter()
            .filter_map(|c| match c {
                RigChild::Cluster(c) => Some(c.bridge.stats()),
                RigChild::Acc(_) => None,
            })
            .collect()
    }
}
