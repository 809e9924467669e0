//! The in-order memory controller model.

use axi::beat::{AwBeat, BBeat, RBeat, WBeat};
use axi::burst::beat_addr;
use axi::checker::ProtocolMonitor;
use axi::types::{BurstKind, BurstSize, Resp};
use axi::{AxiPort, Payload, PortConfig};
use sim::fifo::DelayQueue;
use sim::stats::Gauge;
use sim::{Cycle, TimedFifo};
use std::collections::VecDeque;

use crate::backing::SparseMemory;
use crate::config::MemConfig;
use crate::fault::{BeatAction, FaultInjector, FaultStats, MemFaultConfig};

/// Per-port attribution slots in [`MemStats::error_responses_by_port`]:
/// slot 0 collects untagged traffic (the PS port, or masters wired
/// directly without observability), slots `1..` map interconnect slave
/// ports `0..` via the transaction uid's 10-bit port salt, and the last
/// slot aggregates any higher-numbered ports.
pub const ERROR_PORT_SLOTS: usize = 16;

/// Aggregate counters exposed by [`MemoryController::stats`].
///
/// The error counters saturate instead of wrapping: a fault campaign
/// left running arbitrarily long degrades to a pinned `u64::MAX`
/// reading rather than silently restarting from zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Read bursts fully served.
    pub reads_served: u64,
    /// Write bursts fully served (data committed, B issued).
    pub writes_served: u64,
    /// Data beats moved in either direction.
    pub beats_served: u64,
    /// Bytes moved in either direction.
    pub bytes_served: u64,
    /// Cycles the data path was busy serving a burst.
    pub busy_cycles: u64,
    /// Read bursts served for the PS-side port.
    pub ps_reads_served: u64,
    /// Row-buffer hits (0 unless a row policy is enabled).
    pub row_hits: u64,
    /// Row-buffer misses (0 unless a row policy is enabled).
    pub row_misses: u64,
    /// Bursts completed with an SLVERR or DECERR response (saturating).
    pub error_responses: u64,
    /// [`Self::error_responses`] split by requesting port (saturating;
    /// see [`ERROR_PORT_SLOTS`] for the slot mapping).
    pub error_responses_by_port: [u64; ERROR_PORT_SLOTS],
}

impl MemStats {
    /// Data-path utilization over `elapsed` cycles (0.0 when `elapsed`
    /// is zero).
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / elapsed as f64
        }
    }

    /// Error responses attributed to interconnect slave port `port`
    /// (ports at or above the last slot share it).
    pub fn errors_for_port(&self, port: usize) -> u64 {
        self.error_responses_by_port[(port + 1).min(ERROR_PORT_SLOTS - 1)]
    }

    /// Error responses that carried no port attribution (PS traffic or
    /// directly wired masters without observability uids).
    pub fn untagged_errors(&self) -> u64 {
        self.error_responses_by_port[0]
    }

    /// Records one completed error burst, attributed through the uid's
    /// port salt. Both the aggregate and the per-port slot saturate.
    fn note_error(&mut self, uid: u64) {
        self.error_responses = self.error_responses.saturating_add(1);
        let slot = ((uid & 0x3FF) as usize).min(ERROR_PORT_SLOTS - 1);
        let per_port = &mut self.error_responses_by_port[slot];
        *per_port = per_port.saturating_add(1);
    }
}

/// A quarantine remap installed by [`MemoryController::quarantine_remap`]:
/// bursts whose start address lands in `[lo, hi)` are redirected to the
/// spare region before decode and service. Remap whole, burst-aligned
/// regions — a burst straddling the boundary translates by its start
/// address only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionRemap {
    /// Inclusive start of the quarantined region.
    pub lo: u64,
    /// Exclusive end of the quarantined region.
    pub hi: u64,
    /// Base address of the spare region standing in for `[lo, hi)`.
    pub spare_base: u64,
}

/// Which requester a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// The FPGA-PS interface (the interconnect under test).
    Fpga,
    /// The processing system's own port (CPU traffic).
    Ps,
}

#[derive(Debug)]
enum Job {
    Read(axi::ArBeat, Origin, Resp),
    Write(AwBeat, Vec<WBeat>, Resp),
}

/// Byte extent `[start, end)` a burst's data transfer touches, used for
/// address decoding.
fn burst_extent(burst: BurstKind, addr: u64, len: u32, size: BurstSize) -> (u64, u64) {
    let bytes = size.bytes();
    match burst {
        BurstKind::Fixed => (addr, addr.saturating_add(bytes)),
        BurstKind::Incr => (addr, addr.saturating_add(len as u64 * bytes)),
        BurstKind::Wrap => {
            let container = len as u64 * bytes;
            let base = addr - (addr % container.max(1));
            (base, base.saturating_add(container))
        }
    }
}

#[derive(Debug)]
struct Active {
    job: Job,
    beats_done: u32,
    /// Whether any delivered beat of this burst carried an error
    /// response (the acceptance-time response, or an ECC-uncorrectable
    /// beat injected mid-burst).
    errored: bool,
}

/// An in-order AXI memory controller with a real backing store.
///
/// # Example
///
/// ```
/// use mem::{MemConfig, MemoryController};
///
/// let mut ctrl = MemoryController::new(MemConfig::zcu102());
/// ctrl.memory_mut().write(0x100, &[1, 2, 3]);
/// assert_eq!(ctrl.memory().read(0x100, 3), vec![1, 2, 3]);
/// assert!(ctrl.is_idle());
/// ```
///
/// Service model: accepted requests enter a fixed-latency service
/// pipeline (`first_word_latency` cycles, overlapped across requests as
/// in a real pipelined controller), then stream on the single data path
/// at one beat per cycle. Reads and writes share the data path; requests
/// are served strictly in acceptance order. Writes are accepted into
/// service only once all their data beats have arrived; when a read
/// request and a fully assembled write compete for a service slot they
/// are admitted alternately (write-starvation avoidance — under strict
/// read priority, masters recycling their read-outstanding slots could
/// delay an assembled write without bound).
pub struct MemoryController {
    config: MemConfig,
    memory: SparseMemory,
    service: DelayQueue<Job>,
    /// Open row per bank, when a row policy is enabled.
    open_rows: Vec<Option<u64>>,
    /// Optional PS-side read port (CPU traffic), accepted with priority
    /// over the FPGA port as on real Zynq DDR controllers.
    ps_port: Option<AxiPort>,
    active: Option<Active>,
    /// AWs accepted, oldest first; data is assembled for the head.
    aw_pending: VecDeque<AwBeat>,
    assembly: Vec<WBeat>,
    /// Cleared assembly buffers recycled by [`finalize_write`]
    /// (zero-alloc steady state: one buffer per concurrent write job,
    /// returned when the job's beats finish committing).
    spare_assemblies: Vec<Vec<WBeat>>,
    b_pipe: TimedFifo<BBeat>,
    stats: MemStats,
    monitor: Option<ProtocolMonitor>,
    /// Optional `(cycle, address)` trace of accepted read requests.
    ar_trace: Option<Vec<(Cycle, u64)>>,
    /// Optional `(cycle, address)` trace of accepted write requests.
    aw_trace: Option<Vec<(Cycle, u64)>>,
    /// Outstanding-request gauge: accepted jobs not yet fully served
    /// (service pipeline + active burst + assembling writes).
    outstanding: Gauge,
    /// Write-starvation avoidance: set when a read is admitted to
    /// service, cleared when a write is; an assembled write contending
    /// with reads for a slot waits for at most one of them.
    prefer_write: bool,
    /// Optional seeded fault injector (transient errors, bit flips,
    /// ECC model) — see [`crate::fault`].
    fault: Option<FaultInjector>,
    /// Active quarantine remaps, applied at acceptance in installation
    /// order (first match wins).
    remaps: Vec<RegionRemap>,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("config", &self.config)
            .field("pipeline", &self.service.len())
            .field("active", &self.active.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

impl MemoryController {
    /// Creates a controller with an empty backing store.
    pub fn new(config: MemConfig) -> Self {
        Self::with_memory(config, SparseMemory::new())
    }

    /// Creates a controller around an existing memory image.
    fn with_memory(config: MemConfig, memory: SparseMemory) -> Self {
        Self {
            config,
            memory,
            service: DelayQueue::new(config.pipeline_depth),
            open_rows: vec![None; config.row_policy.map_or(0, |p| p.banks as usize)],
            ps_port: None,
            active: None,
            aw_pending: VecDeque::new(),
            assembly: Vec::new(),
            spare_assemblies: Vec::new(),
            b_pipe: TimedFifo::new(16, config.write_resp_latency),
            stats: MemStats::default(),
            monitor: None,
            ar_trace: None,
            aw_trace: None,
            outstanding: Gauge::default(),
            prefer_write: false,
            fault: None,
            remaps: Vec::new(),
        }
    }

    /// The service configuration this controller was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Current and peak outstanding requests (accepted but not fully
    /// served). Updated once per tick, idempotently, so identical under
    /// the fast-forward scheduler.
    pub fn outstanding_gauge(&self) -> Gauge {
        self.outstanding
    }

    /// Attaches an AXI protocol monitor at the FPGA-PS boundary: every
    /// beat the controller accepts or produces is checked against the
    /// channel-ordering rules.
    pub fn attach_monitor(&mut self) {
        self.monitor = Some(ProtocolMonitor::new());
    }

    /// The attached protocol monitor, if any.
    pub fn monitor(&self) -> Option<&ProtocolMonitor> {
        self.monitor.as_ref()
    }

    /// Starts recording a `(cycle, address)` trace of every accepted
    /// request (used by tests to verify reservation bounds at the
    /// memory side, independently of the interconnect's own counters).
    pub fn attach_request_trace(&mut self) {
        self.ar_trace = Some(Vec::new());
        self.aw_trace = Some(Vec::new());
    }

    /// Accepted read requests, if tracing is on.
    pub fn ar_trace(&self) -> Option<&[(Cycle, u64)]> {
        self.ar_trace.as_deref()
    }

    /// Enables the PS-side read port: a second requester (the
    /// processing system's CPUs) whose requests are accepted with
    /// priority but share the in-order service path — the reason the
    /// paper wants to bound "the overall memory traffic coming from the
    /// FPGA fabric" (§V-A).
    pub fn enable_ps_port(&mut self) {
        self.ps_port = Some(AxiPort::new(PortConfig::wire()));
    }

    /// The PS-side port, if enabled (push AR, pop R).
    ///
    /// # Panics
    ///
    /// Panics if [`Self::enable_ps_port`] was not called.
    pub fn ps_port_mut(&mut self) -> &mut AxiPort {
        self.ps_port.as_mut().expect("PS port not enabled")
    }

    /// First-word latency for a request at `addr`: flat, or row-buffer
    /// dependent when a row policy is enabled (bank state updates at
    /// acceptance, approximating an open-page controller).
    fn service_delay(&mut self, addr: u64) -> Cycle {
        match self.config.row_policy {
            None => self.config.first_word_latency,
            Some(p) => {
                let bank = ((addr / p.row_bytes) % p.banks as u64) as usize;
                let row = addr / (p.row_bytes * p.banks as u64);
                if self.open_rows[bank] == Some(row) {
                    self.stats.row_hits += 1;
                    p.hit_latency
                } else {
                    self.open_rows[bank] = Some(row);
                    self.stats.row_misses += 1;
                    p.miss_latency
                }
            }
        }
    }

    /// Arms seeded fault injection (transient SLVERRs, payload bit
    /// flips, the ECC model) — see [`crate::fault`] for the fault
    /// surface. Re-arming replaces any previous injector and restarts
    /// its RNG stream.
    pub fn attach_fault_injector(&mut self, config: MemFaultConfig) {
        self.fault = Some(FaultInjector::new(config));
    }

    /// Injection counters, when a fault injector is armed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(|f| f.stats())
    }

    /// Installs a quarantine remap: bursts starting inside the region
    /// are redirected to the spare region before decode and service —
    /// the hypervisor's degraded-mode answer to a region that keeps
    /// returning hard errors. Remaps stack; the first matching region
    /// wins.
    pub fn quarantine_remap(&mut self, remap: RegionRemap) {
        self.remaps.push(remap);
    }

    /// The quarantine remaps installed so far, in installation order.
    pub fn remaps(&self) -> &[RegionRemap] {
        &self.remaps
    }

    /// Applies quarantine remaps to a burst's start address.
    fn translate(&self, addr: u64) -> u64 {
        for m in &self.remaps {
            if addr >= m.lo && addr < m.hi {
                return m.spare_base + (addr - m.lo);
            }
        }
        addr
    }

    /// The backing store (e.g. to pre-fill DMA source buffers).
    pub fn memory(&self) -> &SparseMemory {
        &self.memory
    }

    /// Mutable access to the backing store.
    pub fn memory_mut(&mut self) -> &mut SparseMemory {
        &mut self.memory
    }

    /// Aggregate service counters.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Whether no request is queued, assembling, in service or awaiting
    /// a response.
    pub fn is_idle(&self) -> bool {
        self.service.is_empty()
            && self.active.is_none()
            && self.aw_pending.is_empty()
            && self.b_pipe.is_empty()
    }

    /// Advances the controller one cycle against the interconnect's
    /// master port. Returns `true` if any state changed.
    pub fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        let mut progress = false;
        progress |= self.drain_b(now, port);
        progress |= self.accept_aw(now, port);
        // Fair service-slot arbitration: when an assembled write is due
        // a slot, let it finalize before reads claim the space.
        if self.prefer_write && self.write_assembled() {
            progress |= self.accept_w(now, port);
            progress |= self.accept_ar(now, port);
        } else {
            progress |= self.accept_ar(now, port);
            progress |= self.accept_w(now, port);
        }
        progress |= self.promote(now);
        progress |= self.serve(now, port);
        self.outstanding.set(
            (self.service.len() + usize::from(self.active.is_some()) + self.aw_pending.len())
                as u64,
        );
        progress
    }

    /// Event-horizon hint (see [`sim::Component::next_event`]): the
    /// earliest future cycle this controller could make progress at,
    /// assuming nothing new arrives on the interconnect's master port
    /// before then (arrivals there are covered by the interconnect's own
    /// hint). `None` means fully idle.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // An active job streams (or retries a blocked) beat every cycle.
        if self.active.is_some() {
            return Some(now + 1);
        }
        let ps_ar = self.ps_port.as_ref().and_then(|p| p.ar.next_ready_at());
        [
            self.service.next_ready_at(),
            self.b_pipe.next_ready_at(),
            ps_ar,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn drain_b(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        if self.b_pipe.has_ready(now) && !port.b.is_full() {
            let mut beat = self.b_pipe.pop_ready(now).expect("checked ready");
            // Observability: the response-latency pipe is part of the
            // memory's service, so the emission stamp is taken here.
            beat.hopped_at = now;
            if let Some(m) = self.monitor.as_mut() {
                m.observe_b(now, &beat);
            }
            port.b.push(now, beat).expect("checked space");
            return true;
        }
        false
    }

    /// Whether the head write has all its data and is waiting only for
    /// a service slot.
    fn write_assembled(&self) -> bool {
        self.aw_pending
            .front()
            .is_some_and(|aw| self.assembly.len() >= aw.len as usize)
    }

    fn accept_ar(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        if self.service.is_full() {
            return false;
        }
        // PS port has acceptance priority.
        let ps_ready = self.ps_port.as_ref().is_some_and(|p| p.ar.has_ready(now));
        if ps_ready {
            let mut ar = self
                .ps_port
                .as_mut()
                .expect("checked above")
                .ar
                .pop_ready(now)
                .expect("checked ready");
            ar.addr = self.translate(ar.addr);
            let delay = self.service_delay(ar.addr);
            let (lo, hi) = burst_extent(ar.burst, ar.addr, ar.len, ar.size);
            let mut resp = self.config.response_for(lo, hi);
            if let Some(f) = self.fault.as_mut() {
                resp = f.override_response(resp);
            }
            self.service
                .push(now, delay, Job::Read(ar, Origin::Ps, resp))
                .expect("checked space");
            self.prefer_write = true;
            return true;
        }
        if port.ar.has_ready(now) {
            let mut ar = port.ar.pop_ready(now).expect("checked ready");
            if let Some(m) = self.monitor.as_mut() {
                m.observe_ar(now, &ar);
            }
            if let Some(t) = self.ar_trace.as_mut() {
                t.push((now, ar.addr));
            }
            ar.addr = self.translate(ar.addr);
            let delay = self.service_delay(ar.addr);
            let (lo, hi) = burst_extent(ar.burst, ar.addr, ar.len, ar.size);
            let mut resp = self.config.response_for(lo, hi);
            if let Some(f) = self.fault.as_mut() {
                resp = f.override_response(resp);
            }
            self.service
                .push(now, delay, Job::Read(ar, Origin::Fpga, resp))
                .expect("checked space");
            self.prefer_write = true;
            return true;
        }
        false
    }

    fn accept_aw(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        if port.aw.has_ready(now) && self.aw_pending.len() < self.config.write_buffer_depth {
            let aw = port.aw.pop_ready(now).expect("checked ready");
            if let Some(m) = self.monitor.as_mut() {
                m.observe_aw(now, &aw);
            }
            if let Some(t) = self.aw_trace.as_mut() {
                t.push((now, aw.addr));
            }
            self.aw_pending.push_back(aw);
            return true;
        }
        false
    }

    fn accept_w(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        let Some(head) = self.aw_pending.front() else {
            return false; // data may not lead its address in this model
        };
        let needed = head.len as usize;
        if self.assembly.len() >= needed {
            // Assembly complete but the service pipeline is full; wait.
            return self.finalize_write(now);
        }
        if let Some(w) = port.w.pop_ready(now) {
            if let Some(m) = self.monitor.as_mut() {
                m.observe_w(now, &w);
            }
            self.assembly.push(w);
            if self.assembly.len() >= needed {
                self.finalize_write(now);
            }
            return true;
        }
        false
    }

    fn finalize_write(&mut self, now: Cycle) -> bool {
        if self.service.is_full() {
            return false;
        }
        let mut aw = self.aw_pending.pop_front().expect("assembly implies head");
        aw.addr = self.translate(aw.addr);
        let fresh = self.spare_assemblies.pop().unwrap_or_default();
        let data = std::mem::replace(&mut self.assembly, fresh);
        let delay = self.service_delay(aw.addr);
        let (lo, hi) = burst_extent(aw.burst, aw.addr, aw.len, aw.size);
        let mut resp = self.config.response_for(lo, hi);
        if let Some(f) = self.fault.as_mut() {
            resp = f.override_response(resp);
        }
        self.service
            .push(now, delay, Job::Write(aw, data, resp))
            .expect("checked space");
        self.prefer_write = false;
        true
    }

    fn promote(&mut self, now: Cycle) -> bool {
        if self.active.is_none() && self.service.has_ready(now) {
            let job = self.service.pop_ready(now).expect("checked ready");
            self.active = Some(Active {
                job,
                beats_done: 0,
                errored: false,
            });
            return true;
        }
        false
    }

    fn serve(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        let Some(active) = self.active.as_mut() else {
            return false;
        };
        match &mut active.job {
            Job::Read(ar, origin, resp) => {
                let origin = *origin;
                let resp = *resp;
                let target_full = match origin {
                    Origin::Fpga => port.r.is_full(),
                    Origin::Ps => self
                        .ps_port
                        .as_ref()
                        .expect("PS job implies PS port")
                        .r
                        .is_full(),
                };
                if target_full {
                    return false;
                }
                let idx = active.beats_done;
                let addr = beat_addr(ar.burst, ar.addr, ar.len, ar.size, idx);
                let bytes = ar.size.bytes() as usize;
                // Error reads still stream the full beat count (AXI
                // requires it), but data is undefined — modeled as
                // zeros, never touching backing storage.
                let mut data = Payload::zeroed(bytes);
                if resp.is_ok() {
                    self.memory.read_into(addr, data.as_mut_slice());
                }
                // Fabric/ECC fault hooks perturb OK beats only: flips
                // (possibly caught by ECC) and return-path loss.
                let mut beat_resp = resp;
                let mut action = BeatAction::Deliver;
                if resp.is_ok() {
                    if let Some(f) = self.fault.as_mut() {
                        beat_resp = f.mutate_read_beat(data.as_mut_slice());
                        action = f.beat_action();
                    }
                }
                if !beat_resp.is_ok() {
                    active.errored = true;
                }
                let last = idx + 1 == ar.len;
                let uid = ar.uid;
                if action != BeatAction::Drop {
                    let mut beat = RBeat::new(ar.id, data, last)
                        .with_tag(ar.tag)
                        .with_issued_at(ar.issued_at)
                        .with_uid(uid)
                        .with_resp(beat_resp);
                    // Observability: when the controller emitted this beat.
                    beat.hopped_at = now;
                    let dup = (action == BeatAction::Duplicate).then(|| beat.clone());
                    match origin {
                        Origin::Fpga => {
                            if let Some(m) = self.monitor.as_mut() {
                                m.observe_r(now, &beat);
                            }
                            port.r.push(now, beat).expect("checked space");
                            if let Some(extra) = dup {
                                if !port.r.is_full() {
                                    let _ = port.r.push(now, extra);
                                }
                            }
                        }
                        Origin::Ps => {
                            let ps = self.ps_port.as_mut().expect("PS job implies PS port");
                            ps.r.push(now, beat).expect("checked space");
                            if let Some(extra) = dup {
                                if !ps.r.is_full() {
                                    let _ = ps.r.push(now, extra);
                                }
                            }
                        }
                    }
                }
                active.beats_done += 1;
                let errored = active.errored;
                self.stats.beats_served += 1;
                self.stats.bytes_served += bytes as u64;
                self.stats.busy_cycles += 1;
                if last {
                    match origin {
                        Origin::Fpga => self.stats.reads_served += 1,
                        Origin::Ps => self.stats.ps_reads_served += 1,
                    }
                    if errored {
                        self.stats.note_error(uid);
                    }
                    self.active = None;
                }
                true
            }
            Job::Write(aw, data, resp) => {
                let resp = *resp;
                let idx = active.beats_done;
                if (idx as usize) < data.len() {
                    let addr = beat_addr(aw.burst, aw.addr, aw.len, aw.size, idx);
                    let beat = &data[idx as usize];
                    // Erroring writes occupy the data path but never
                    // commit to backing storage.
                    if !resp.is_ok() {
                        // no commit
                    } else if beat.strb == axi::beat::STRB_ALL {
                        self.memory.write(addr, &beat.data);
                    } else {
                        // Sparse (strobed) commit: only enabled bytes.
                        for (i, &byte) in beat.data.iter().enumerate() {
                            if beat.byte_enabled(i) {
                                self.memory.write(addr + i as u64, &[byte]);
                            }
                        }
                    }
                    let payload = &data[idx as usize].data;
                    active.beats_done += 1;
                    self.stats.beats_served += 1;
                    self.stats.bytes_served += payload.len() as u64;
                    self.stats.busy_cycles += 1;
                    true
                } else {
                    // All beats committed; issue the response.
                    if self.b_pipe.is_full() {
                        return false;
                    }
                    let uid = aw.uid;
                    let beat = BBeat::new(aw.id)
                        .with_tag(aw.tag)
                        .with_issued_at(aw.issued_at)
                        .with_uid(uid)
                        .with_resp(resp);
                    self.b_pipe.push(now, beat).expect("checked space");
                    self.stats.writes_served += 1;
                    if !resp.is_ok() {
                        self.stats.note_error(uid);
                    }
                    // Recycle the assembly buffer for future writes.
                    if let Some(done) = self.active.take() {
                        if let Job::Write(_, mut buf, _) = done.job {
                            buf.clear();
                            self.spare_assemblies.push(buf);
                        }
                    }
                    true
                }
            }
        }
    }
}

mod persist_impls {
    use super::*;
    use sim::persist::{PersistError, PersistValue, SnapshotReader, SnapshotWriter};

    sim::persist_fields!(MemStats {
        reads_served,
        writes_served,
        beats_served,
        bytes_served,
        busy_cycles,
        ps_reads_served,
        row_hits,
        row_misses,
        error_responses,
        error_responses_by_port,
    });
    sim::persist_fields!(RegionRemap { lo, hi, spare_base });
    sim::persist_enum!(Origin, "unknown job origin", [Fpga, Ps]);

    impl PersistValue for Job {
        fn save_value(&self, w: &mut SnapshotWriter) {
            match self {
                Job::Read(ar, origin, resp) => {
                    w.put_u8(0);
                    ar.save_value(w);
                    origin.save_value(w);
                    resp.save_value(w);
                }
                Job::Write(aw, data, resp) => {
                    w.put_u8(1);
                    aw.save_value(w);
                    data.save_value(w);
                    resp.save_value(w);
                }
            }
        }

        fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            match r.take_u8()? {
                0 => Ok(Job::Read(
                    axi::ArBeat::load_value(r)?,
                    Origin::load_value(r)?,
                    Resp::load_value(r)?,
                )),
                1 => Ok(Job::Write(
                    AwBeat::load_value(r)?,
                    Vec::load_value(r)?,
                    Resp::load_value(r)?,
                )),
                _ => Err(PersistError::Corrupt("unknown memory job kind")),
            }
        }
    }

    sim::persist_fields!(Active {
        job,
        beats_done,
        errored
    });

    impl MemoryController {
        // Full dynamic state: backing store, service pipeline,
        // assembling writes, response pipe, row-buffer state, traces,
        // counters, the fault injector (with its RNG position) and
        // quarantine remaps.
        sim::persist_state! {
            pub MemoryController {
                memory,
                service,
                open_rows,
                ps_port,
                active,
                aw_pending,
                assembly,
                b_pipe,
                stats,
                monitor,
                ar_trace,
                aw_trace,
                outstanding,
                prefer_write,
                fault,
                remaps,
            }
            skip "construction-time configuration" { config }
            skip "recycled empty buffers, not observable state" { spare_assemblies }
            check |ctrl| {
                let banks = ctrl.config.row_policy.map_or(0, |p| p.banks as usize);
                if open_rows.len() != banks {
                    return Err(PersistError::ShapeMismatch("memory controller bank count"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi::types::BurstSize;
    use axi::ArBeat;

    fn run(ctrl: &mut MemoryController, port: &mut AxiPort, cycles: Cycle) {
        for now in 0..cycles {
            ctrl.tick(now, port);
        }
    }

    fn drain_r(port: &mut AxiPort, now: Cycle) -> Vec<RBeat> {
        let mut out = Vec::new();
        while let Some(beat) = port.r.pop_ready(now) {
            out.push(beat);
        }
        out
    }

    #[test]
    fn single_beat_read_latency() {
        let cfg = MemConfig::default().first_word_latency(10);
        let mut ctrl = MemoryController::new(cfg);
        ctrl.memory_mut().write(0x100, &[0xAB, 0xCD, 0xEF, 0x01]);
        let mut port = AxiPort::default();
        port.ar
            .push(0, ArBeat::new(0x100, 1, BurstSize::B4))
            .unwrap();
        // Accepted at cycle 0, enters service pipe (latency 10), first
        // beat served the cycle it becomes ready.
        let mut first_beat_at = None;
        for now in 0..40 {
            ctrl.tick(now, &mut port);
            if first_beat_at.is_none() && port.r.has_ready(now) {
                first_beat_at = Some(now);
            }
        }
        assert_eq!(first_beat_at, Some(10));
        let beats = drain_r(&mut port, 40);
        assert_eq!(beats.len(), 1);
        assert!(beats[0].last);
        assert_eq!(beats[0].data, vec![0xAB, 0xCD, 0xEF, 0x01]);
    }

    #[test]
    fn burst_read_streams_one_beat_per_cycle() {
        let mut ctrl = MemoryController::new(MemConfig::default().first_word_latency(5));
        let mut port = AxiPort::default();
        port.ar.push(0, ArBeat::new(0, 8, BurstSize::B16)).unwrap();
        let mut beat_cycles = Vec::new();
        for now in 0..40 {
            ctrl.tick(now, &mut port);
            for _ in drain_r(&mut port, now) {
                beat_cycles.push(now);
            }
        }
        assert_eq!(beat_cycles.len(), 8);
        // Consecutive beats on consecutive cycles.
        for pair in beat_cycles.windows(2) {
            assert_eq!(pair[1], pair[0] + 1);
        }
    }

    #[test]
    fn back_to_back_bursts_have_no_bubble() {
        // The pipeline overlaps first-word latency across requests.
        let mut ctrl = MemoryController::new(MemConfig::default().first_word_latency(6));
        let mut port = AxiPort::default();
        port.ar.push(0, ArBeat::new(0, 16, BurstSize::B16)).unwrap();
        port.ar
            .push(0, ArBeat::new(4096, 16, BurstSize::B16))
            .unwrap();
        let mut beat_cycles = Vec::new();
        for now in 0..100 {
            ctrl.tick(now, &mut port);
            for _ in drain_r(&mut port, now) {
                beat_cycles.push(now);
            }
        }
        assert_eq!(beat_cycles.len(), 32);
        // All 32 beats within a contiguous window: latency + 32 cycles.
        assert_eq!(beat_cycles.last().unwrap() - beat_cycles[0], 31);
    }

    #[test]
    fn write_then_read_returns_data() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        let mut port = AxiPort::default();
        let aw = AwBeat::new(0x200, 2, BurstSize::B4);
        port.aw.push(0, aw).unwrap();
        port.w.push(0, WBeat::new(vec![1, 2, 3, 4], false)).unwrap();
        port.w.push(0, WBeat::new(vec![5, 6, 7, 8], true)).unwrap();
        run(&mut ctrl, &mut port, 30);
        // B response arrived.
        let b = port.b.pop_ready(30);
        assert!(b.is_some());
        assert_eq!(ctrl.memory().read(0x200, 8), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(ctrl.stats().writes_served, 1);
    }

    #[test]
    fn write_waits_for_all_data() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        let mut port = AxiPort::default();
        port.aw.push(0, AwBeat::new(0, 2, BurstSize::B4)).unwrap();
        port.w.push(0, WBeat::new(vec![9; 4], false)).unwrap();
        run(&mut ctrl, &mut port, 20);
        // Only one beat arrived: no commit, no B.
        assert!(port.b.pop_ready(20).is_none());
        assert_eq!(ctrl.stats().writes_served, 0);
        // Supply the final beat; the write completes.
        port.w.push(20, WBeat::new(vec![7; 4], true)).unwrap();
        for now in 20..40 {
            ctrl.tick(now, &mut port);
        }
        assert!(port.b.pop_ready(40).is_some());
        assert_eq!(ctrl.memory().read(4, 4), vec![7; 4]);
    }

    #[test]
    fn reads_and_writes_served_in_acceptance_order() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        let mut port = AxiPort::default();
        ctrl.memory_mut().fill_pattern(0, 64);
        // Write at cycle 0, read accepted after it.
        port.aw
            .push(0, AwBeat::new(0x100, 1, BurstSize::B4).with_tag(1))
            .unwrap();
        port.w.push(0, WBeat::new(vec![1; 4], true)).unwrap();
        port.ar
            .push(0, ArBeat::new(0, 1, BurstSize::B4).with_tag(2))
            .unwrap();
        run(&mut ctrl, &mut port, 30);
        assert_eq!(ctrl.stats().reads_served, 1);
        assert_eq!(ctrl.stats().writes_served, 1);
    }

    #[test]
    fn respects_r_backpressure() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        let mut port = AxiPort::new(axi::PortConfig::wire().data_capacity(2));
        port.ar.push(0, ArBeat::new(0, 8, BurstSize::B4)).unwrap();
        run(&mut ctrl, &mut port, 50);
        // Only 2 beats fit; the controller must not lose the rest.
        assert_eq!(port.r.len(), 2);
        let mut got = 0;
        for now in 50..200 {
            got += drain_r(&mut port, now).len();
            ctrl.tick(now, &mut port);
        }
        assert_eq!(got, 8);
        assert_eq!(ctrl.stats().reads_served, 1);
    }

    #[test]
    fn pipeline_depth_limits_acceptance() {
        let mut ctrl = MemoryController::new(MemConfig::ideal().pipeline_depth(2));
        let mut port = AxiPort::default();
        for i in 0..4 {
            port.ar
                .push(0, ArBeat::new(i * 64, 1, BurstSize::B4))
                .unwrap();
        }
        // One tick at cycle 0: at most one AR accepted per cycle.
        ctrl.tick(0, &mut port);
        assert_eq!(port.ar.len(), 3);
        ctrl.tick(1, &mut port);
        assert_eq!(port.ar.len(), 2);
        // Pipe is now full (depth 2) and nothing is served yet at cycle 2
        // (latency 1 means the first job becomes active this cycle).
        run(&mut ctrl, &mut port, 100);
        assert_eq!(ctrl.stats().reads_served, 4);
    }

    #[test]
    fn utilization_and_idle() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        assert!(ctrl.is_idle());
        let mut port = AxiPort::default();
        port.ar.push(0, ArBeat::new(0, 4, BurstSize::B4)).unwrap();
        run(&mut ctrl, &mut port, 50);
        drain_r(&mut port, 50);
        assert!(ctrl.is_idle());
        let stats = ctrl.stats();
        assert_eq!(stats.beats_served, 4);
        assert_eq!(stats.bytes_served, 16);
        assert!(stats.utilization(50) > 0.0);
        assert_eq!(stats.utilization(0), 0.0);
    }

    #[test]
    fn row_policy_hits_are_faster_than_misses() {
        use crate::config::RowPolicy;
        let policy = RowPolicy::default();
        let cfg = MemConfig::zcu102().row_policy(policy);
        // Second read issued once the pipe is empty, to the same row
        // (hit) versus another row of the same bank (miss).
        let run = |second_addr: u64| {
            let mut ctrl = MemoryController::new(cfg);
            let mut port = AxiPort::default();
            port.ar.push(0, ArBeat::new(0, 1, BurstSize::B16)).unwrap();
            port.ar
                .push(100, ArBeat::new(second_addr, 1, BurstSize::B16))
                .unwrap();
            let mut arrivals = Vec::new();
            for now in 0..400 {
                ctrl.tick(now, &mut port);
                while drain_r(&mut port, now).pop().is_some() {
                    arrivals.push(now);
                }
            }
            assert_eq!(arrivals.len(), 2);
            (arrivals[1], ctrl.stats())
        };
        let (hit_at, hit_stats) = run(16);
        let stride = policy.row_bytes * policy.banks as u64;
        let (miss_at, miss_stats) = run(stride);
        assert_eq!(hit_stats.row_hits, 1);
        assert_eq!(hit_stats.row_misses, 1);
        assert_eq!(miss_stats.row_misses, 2);
        assert_eq!(
            miss_at - hit_at,
            policy.miss_latency - policy.hit_latency,
            "latency gap must equal the policy delta"
        );
    }

    #[test]
    fn row_policy_off_counts_nothing() {
        let mut ctrl = MemoryController::new(MemConfig::zcu102());
        let mut port = AxiPort::default();
        port.ar.push(0, ArBeat::new(0, 4, BurstSize::B16)).unwrap();
        for now in 0..100 {
            ctrl.tick(now, &mut port);
            drain_r(&mut port, now);
        }
        assert_eq!(ctrl.stats().row_hits, 0);
        assert_eq!(ctrl.stats().row_misses, 0);
    }

    #[test]
    fn sequential_streaming_is_mostly_row_hits() {
        let cfg = MemConfig::zcu102().row_policy(crate::config::RowPolicy::default());
        let mut ctrl = MemoryController::new(cfg);
        let mut port = AxiPort::default();
        let mut pushed = 0u64;
        for now in 0..4_000u64 {
            if pushed < 64 && !port.ar.is_full() {
                let _ = port
                    .ar
                    .push(now, ArBeat::new(pushed * 256, 16, BurstSize::B16));
                pushed += 1;
            }
            ctrl.tick(now, &mut port);
            drain_r(&mut port, now);
        }
        let s = ctrl.stats();
        assert!(
            s.row_hits > 3 * s.row_misses,
            "hits {} misses {}",
            s.row_hits,
            s.row_misses
        );
    }

    #[test]
    fn strobed_write_touches_only_enabled_bytes() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        ctrl.memory_mut().write(0x100, &[0xAA; 8]);
        let mut port = AxiPort::default();
        port.aw
            .push(0, AwBeat::new(0x100, 2, BurstSize::B4))
            .unwrap();
        // First beat writes bytes 0 and 3; second beat writes byte 1.
        port.w
            .push(0, WBeat::new(vec![1, 2, 3, 4], false).with_strobe(0b1001))
            .unwrap();
        port.w
            .push(0, WBeat::new(vec![5, 6, 7, 8], true).with_strobe(0b0010))
            .unwrap();
        for now in 0..30 {
            ctrl.tick(now, &mut port);
        }
        assert!(port.b.pop_ready(30).is_some());
        assert_eq!(
            ctrl.memory().read(0x100, 8),
            vec![1, 0xAA, 0xAA, 4, 0xAA, 6, 0xAA, 0xAA]
        );
    }

    #[test]
    fn read_beyond_decode_limit_returns_decerr() {
        let cfg = MemConfig::ideal().decode_limit(0x1000);
        let mut ctrl = MemoryController::new(cfg);
        ctrl.memory_mut().write(0x2000, &[0xFF; 16]);
        let mut port = AxiPort::default();
        port.ar
            .push(0, ArBeat::new(0x2000, 4, BurstSize::B4))
            .unwrap();
        run(&mut ctrl, &mut port, 30);
        let beats = drain_r(&mut port, 30);
        assert_eq!(beats.len(), 4, "error reads still stream every beat");
        for beat in &beats {
            assert_eq!(beat.resp, axi::types::Resp::DecErr);
            assert_eq!(beat.data, vec![0; 4], "no backing-store data on DECERR");
        }
        assert!(beats[3].last);
        assert_eq!(ctrl.stats().error_responses, 1);
    }

    #[test]
    fn write_into_fault_region_returns_slverr_and_does_not_commit() {
        let cfg = MemConfig::ideal().slverr_range(0x100, 0x200);
        let mut ctrl = MemoryController::new(cfg);
        ctrl.memory_mut().write(0x100, &[0xAA; 8]);
        let mut port = AxiPort::default();
        port.aw
            .push(0, AwBeat::new(0x100, 2, BurstSize::B4))
            .unwrap();
        port.w.push(0, WBeat::new(vec![1; 4], false)).unwrap();
        port.w.push(0, WBeat::new(vec![2; 4], true)).unwrap();
        run(&mut ctrl, &mut port, 30);
        let b = port.b.pop_ready(30).expect("B response issued");
        assert_eq!(b.resp, axi::types::Resp::SlvErr);
        assert_eq!(ctrl.memory().read(0x100, 8), vec![0xAA; 8]);
        assert_eq!(ctrl.stats().error_responses, 1);
    }

    #[test]
    fn in_range_traffic_unaffected_by_error_regions() {
        let cfg = MemConfig::ideal()
            .decode_limit(0x1_0000)
            .slverr_range(0x8000, 0x9000);
        let mut ctrl = MemoryController::new(cfg);
        ctrl.memory_mut().write(0x400, &[7; 4]);
        let mut port = AxiPort::default();
        port.ar
            .push(0, ArBeat::new(0x400, 1, BurstSize::B4))
            .unwrap();
        run(&mut ctrl, &mut port, 30);
        let beats = drain_r(&mut port, 30);
        assert_eq!(beats[0].resp, axi::types::Resp::Okay);
        assert_eq!(beats[0].data, vec![7; 4]);
        assert_eq!(ctrl.stats().error_responses, 0);
    }

    #[test]
    fn snapshot_roundtrip_resumes_byte_identical() {
        use sim::persist::{PersistValue, SnapshotReader, SnapshotWriter};
        let cfg = MemConfig::zcu102().row_policy(crate::config::RowPolicy::default());
        let mut ctrl = MemoryController::new(cfg);
        ctrl.enable_ps_port();
        ctrl.attach_monitor();
        ctrl.attach_request_trace();
        ctrl.memory_mut().fill_pattern(0, 8192);
        let mut port = AxiPort::default();
        // Split mid-burst, mid-assembly, with a PS read in flight.
        port.ar.push(0, ArBeat::new(0, 16, BurstSize::B16)).unwrap();
        port.aw
            .push(0, AwBeat::new(0x3000, 4, BurstSize::B4))
            .unwrap();
        port.w.push(0, WBeat::new(vec![1; 4], false)).unwrap();
        port.w.push(0, WBeat::new(vec![2; 4], false)).unwrap();
        ctrl.ps_port_mut()
            .ar
            .push(0, ArBeat::new(0x1000, 4, BurstSize::B16))
            .unwrap();
        for now in 0..25 {
            ctrl.tick(now, &mut port);
        }
        let mut w = SnapshotWriter::new();
        ctrl.save_state(&mut w);
        port.save_value(&mut w);
        let bytes = w.into_bytes();

        // Restore into a fresh controller built with the same config but
        // none of the optional features pre-enabled at the call sites.
        let mut restored = MemoryController::new(cfg);
        let mut r = SnapshotReader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        let mut restored_port = AxiPort::load_value(&mut r).unwrap();

        let drive = |ctrl: &mut MemoryController, port: &mut AxiPort| {
            for now in 25..120u64 {
                // Finish the write burst and keep draining responses.
                if now == 30 {
                    let _ = port.w.push(now, WBeat::new(vec![3; 4], false));
                    let _ = port.w.push(now, WBeat::new(vec![4; 4], true));
                }
                ctrl.tick(now, port);
                while port.r.pop_ready(now).is_some() {}
                while port.b.pop_ready(now).is_some() {}
                while ctrl.ps_port_mut().r.pop_ready(now).is_some() {}
            }
            let mut w = SnapshotWriter::new();
            ctrl.save_state(&mut w);
            port.save_value(&mut w);
            w.into_bytes()
        };
        assert_eq!(
            drive(&mut ctrl, &mut port),
            drive(&mut restored, &mut restored_port)
        );
        assert_eq!(restored.stats().writes_served, 1);
    }

    #[test]
    fn restore_rejects_bank_count_mismatch() {
        use sim::persist::{PersistError, SnapshotReader, SnapshotWriter};
        let ctrl = MemoryController::new(
            MemConfig::zcu102().row_policy(crate::config::RowPolicy::default()),
        );
        let mut w = SnapshotWriter::new();
        ctrl.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut flat = MemoryController::new(MemConfig::zcu102());
        let err = flat
            .restore_state(&mut SnapshotReader::new(&bytes))
            .unwrap_err();
        assert!(matches!(err, PersistError::ShapeMismatch(_)));
    }

    #[test]
    fn spurious_slverr_reads_are_zeroed_and_counted() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        ctrl.memory_mut().fill_pattern(0, 256);
        ctrl.attach_fault_injector(MemFaultConfig::new(5).spurious_slverr(1.0));
        let mut port = AxiPort::default();
        port.ar.push(0, ArBeat::new(0, 4, BurstSize::B4)).unwrap();
        run(&mut ctrl, &mut port, 30);
        let beats = drain_r(&mut port, 30);
        assert_eq!(beats.len(), 4, "error reads still stream every beat");
        for beat in &beats {
            assert_eq!(beat.resp, axi::types::Resp::SlvErr);
            assert_eq!(beat.data, vec![0; 4], "no backing-store data on SLVERR");
        }
        assert_eq!(ctrl.stats().error_responses, 1);
        assert_eq!(ctrl.fault_stats().unwrap().spurious_errors, 1);
    }

    #[test]
    fn spurious_slverr_writes_do_not_commit_so_retry_is_idempotent() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        ctrl.memory_mut().write(0x100, &[0xAA; 4]);
        ctrl.attach_fault_injector(MemFaultConfig::new(5).spurious_slverr(1.0));
        let mut port = AxiPort::default();
        port.aw
            .push(0, AwBeat::new(0x100, 1, BurstSize::B4))
            .unwrap();
        port.w.push(0, WBeat::new(vec![1; 4], true)).unwrap();
        run(&mut ctrl, &mut port, 30);
        let b = port.b.pop_ready(30).expect("B response issued");
        assert_eq!(b.resp, axi::types::Resp::SlvErr);
        assert_eq!(ctrl.memory().read(0x100, 4), vec![0xAA; 4], "no commit");
        assert_eq!(ctrl.stats().error_responses, 1);
    }

    #[test]
    fn ecc_corrects_single_flips_end_to_end() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        ctrl.memory_mut().fill_pattern(0, 256);
        ctrl.attach_fault_injector(MemFaultConfig::new(9).flip_single(1.0).ecc(true));
        let mut port = AxiPort::default();
        port.ar.push(0, ArBeat::new(0, 8, BurstSize::B16)).unwrap();
        run(&mut ctrl, &mut port, 40);
        let beats = drain_r(&mut port, 40);
        assert_eq!(beats.len(), 8);
        for (i, beat) in beats.iter().enumerate() {
            assert_eq!(beat.resp, axi::types::Resp::Okay);
            let expect: Vec<u8> = (0..16)
                .map(|b| crate::backing::pattern_byte(i as u64 * 16 + b))
                .collect();
            assert_eq!(beat.data, expect, "beat {i} delivered corrected data");
        }
        let fs = ctrl.fault_stats().unwrap();
        assert_eq!(fs.corrected, 8);
        assert_eq!(fs.silent_flips(), 0);
        assert_eq!(ctrl.stats().error_responses, 0);
    }

    #[test]
    fn ecc_double_flip_fails_the_beat_with_slverr() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        ctrl.memory_mut().fill_pattern(0, 256);
        ctrl.attach_fault_injector(MemFaultConfig::new(9).flip_double(1.0).ecc(true));
        let mut port = AxiPort::default();
        port.ar.push(0, ArBeat::new(0, 4, BurstSize::B16)).unwrap();
        run(&mut ctrl, &mut port, 30);
        let beats = drain_r(&mut port, 30);
        assert_eq!(beats.len(), 4);
        for beat in &beats {
            assert_eq!(beat.resp, axi::types::Resp::SlvErr, "uncorrectable beat");
        }
        let fs = ctrl.fault_stats().unwrap();
        assert_eq!(fs.uncorrectable, 4);
        assert_eq!(fs.silent_flips(), 0);
        // One burst, one error response (even though the acceptance-time
        // response was OK — the error arose mid-burst in the ECC model).
        assert_eq!(ctrl.stats().error_responses, 1);
    }

    #[test]
    fn flips_without_ecc_corrupt_silently() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        ctrl.memory_mut().fill_pattern(0, 256);
        ctrl.attach_fault_injector(MemFaultConfig::new(13).flip_single(1.0));
        let mut port = AxiPort::default();
        port.ar.push(0, ArBeat::new(0, 4, BurstSize::B16)).unwrap();
        run(&mut ctrl, &mut port, 30);
        let beats = drain_r(&mut port, 30);
        assert_eq!(beats.len(), 4);
        let mut wrong = 0;
        for (i, beat) in beats.iter().enumerate() {
            assert_eq!(beat.resp, axi::types::Resp::Okay, "nothing announced");
            let expect: Vec<u8> = (0..16)
                .map(|b| crate::backing::pattern_byte(i as u64 * 16 + b))
                .collect();
            if beat.data.as_slice() != expect.as_slice() {
                wrong += 1;
            }
        }
        assert_eq!(wrong, 4, "every beat silently corrupted");
        assert_eq!(ctrl.fault_stats().unwrap().silent_flips(), 4);
        assert_eq!(ctrl.stats().error_responses, 0, "and nothing counted");
    }

    #[test]
    fn dropped_beats_never_reach_the_port() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        ctrl.attach_fault_injector(MemFaultConfig::new(21).drop_r(1.0));
        let mut port = AxiPort::default();
        port.ar.push(0, ArBeat::new(0, 4, BurstSize::B4)).unwrap();
        run(&mut ctrl, &mut port, 40);
        assert!(drain_r(&mut port, 40).is_empty(), "all beats lost");
        // The controller itself completed the burst and is reusable.
        assert_eq!(ctrl.stats().reads_served, 1);
        assert_eq!(ctrl.fault_stats().unwrap().dropped_beats, 4);
        assert!(ctrl.is_idle());
    }

    #[test]
    fn duplicated_beats_arrive_twice() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        ctrl.attach_fault_injector(MemFaultConfig::new(21).dup_r(1.0));
        let mut port = AxiPort::default();
        port.ar.push(0, ArBeat::new(0, 2, BurstSize::B4)).unwrap();
        let mut got = 0;
        for now in 0..40 {
            ctrl.tick(now, &mut port);
            got += drain_r(&mut port, now).len();
        }
        assert_eq!(got, 4, "every beat delivered twice");
        assert_eq!(ctrl.fault_stats().unwrap().duplicated_beats, 2);
    }

    #[test]
    fn error_attribution_follows_the_uid_port_salt() {
        let mut ctrl = MemoryController::new(MemConfig::ideal().slverr_range(0x100, 0x200));
        let mut port = AxiPort::default();
        // uid salted as port 2 (salt = port + 1).
        port.ar
            .push(
                0,
                ArBeat::new(0x100, 1, BurstSize::B4).with_uid((1 << 10) | 3),
            )
            .unwrap();
        // Untagged read into the same fault region.
        port.ar
            .push(0, ArBeat::new(0x140, 1, BurstSize::B4))
            .unwrap();
        run(&mut ctrl, &mut port, 40);
        drain_r(&mut port, 40);
        let stats = ctrl.stats();
        assert_eq!(stats.error_responses, 2);
        assert_eq!(stats.errors_for_port(2), 1);
        assert_eq!(stats.untagged_errors(), 1);
        assert_eq!(stats.errors_for_port(5), 0);
    }

    #[test]
    fn error_counters_saturate_instead_of_wrapping() {
        let mut stats = MemStats {
            error_responses: u64::MAX,
            ..MemStats::default()
        };
        stats.error_responses_by_port[0] = u64::MAX;
        stats.note_error(0);
        assert_eq!(stats.error_responses, u64::MAX, "aggregate pinned");
        assert_eq!(stats.untagged_errors(), u64::MAX, "per-port pinned");
    }

    #[test]
    fn quarantine_remap_redirects_bursts_to_the_spare_region() {
        // [0x100, 0x200) is a hard-error region; the spare lives at
        // 0x10_0000.
        let mut ctrl = MemoryController::new(MemConfig::ideal().slverr_range(0x100, 0x200));
        let mut port = AxiPort::default();
        port.aw
            .push(0, AwBeat::new(0x100, 1, BurstSize::B4))
            .unwrap();
        port.w.push(0, WBeat::new(vec![7; 4], true)).unwrap();
        run(&mut ctrl, &mut port, 20);
        assert_eq!(
            port.b.pop_ready(20).unwrap().resp,
            axi::types::Resp::SlvErr,
            "hard error before quarantine"
        );
        ctrl.quarantine_remap(RegionRemap {
            lo: 0x100,
            hi: 0x200,
            spare_base: 0x10_0000,
        });
        // The retried write now lands in the spare region and succeeds.
        port.aw
            .push(20, AwBeat::new(0x100, 1, BurstSize::B4))
            .unwrap();
        port.w.push(20, WBeat::new(vec![7; 4], true)).unwrap();
        for now in 20..40 {
            ctrl.tick(now, &mut port);
        }
        assert_eq!(port.b.pop_ready(40).unwrap().resp, axi::types::Resp::Okay);
        // Reading back through the same logical address sees the data.
        port.ar
            .push(40, ArBeat::new(0x100, 1, BurstSize::B4))
            .unwrap();
        for now in 40..60 {
            ctrl.tick(now, &mut port);
        }
        let beats = drain_r(&mut port, 60);
        assert_eq!(beats[0].resp, axi::types::Resp::Okay);
        assert_eq!(beats[0].data, vec![7; 4]);
        // Physically the bytes live in the spare region.
        assert_eq!(ctrl.memory().read(0x10_0000, 4), vec![7; 4]);
        assert_eq!(ctrl.memory().read(0x100, 4), vec![0; 4]);
    }

    #[test]
    fn fault_and_remap_state_survive_snapshots() {
        use sim::persist::{PersistValue, SnapshotReader, SnapshotWriter};
        let cfg = MemConfig::zcu102();
        let build = || {
            let mut ctrl = MemoryController::new(cfg);
            ctrl.memory_mut().fill_pattern(0, 4096);
            ctrl
        };
        let mut ctrl = build();
        ctrl.attach_fault_injector(
            MemFaultConfig::new(31)
                .spurious_slverr(0.3)
                .flip_single(0.2)
                .ecc(true),
        );
        ctrl.quarantine_remap(RegionRemap {
            lo: 0x800,
            hi: 0xC00,
            spare_base: 0x20_0000,
        });
        let mut port = AxiPort::default();
        for i in 0..6u64 {
            port.ar
                .push(0, ArBeat::new(i * 256, 4, BurstSize::B16))
                .unwrap();
        }
        for now in 0..40 {
            ctrl.tick(now, &mut port);
        }
        let mut w = SnapshotWriter::new();
        ctrl.save_state(&mut w);
        port.save_value(&mut w);
        let bytes = w.into_bytes();

        // The restored controller was never armed by API — the injector
        // and remaps arrive purely through the snapshot.
        let mut restored = build();
        let mut r = SnapshotReader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        let mut restored_port = AxiPort::load_value(&mut r).unwrap();
        assert!(restored.fault.is_some());
        assert_eq!(restored.remaps().len(), 1);

        let drive = |ctrl: &mut MemoryController, port: &mut AxiPort| {
            for now in 40..200u64 {
                if now == 50 {
                    let _ = port.ar.push(now, ArBeat::new(0x900, 4, BurstSize::B16));
                }
                ctrl.tick(now, port);
                while port.r.pop_ready(now).is_some() {}
            }
            let mut w = SnapshotWriter::new();
            ctrl.save_state(&mut w);
            port.save_value(&mut w);
            w.into_bytes()
        };
        assert_eq!(
            drive(&mut ctrl, &mut port),
            drive(&mut restored, &mut restored_port),
            "fault draws diverged after restore"
        );
    }

    #[test]
    fn wrap_burst_reads_container() {
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        ctrl.memory_mut()
            .write(0x100, &(0u8..16).collect::<Vec<_>>());
        let mut port = AxiPort::default();
        let mut ar = ArBeat::new(0x108, 4, BurstSize::B4);
        ar.burst = axi::types::BurstKind::Wrap;
        port.ar.push(0, ar).unwrap();
        run(&mut ctrl, &mut port, 30);
        let beats = drain_r(&mut port, 30);
        assert_eq!(beats.len(), 4);
        let data: Vec<u8> = beats.iter().flat_map(|b| b.data.to_vec()).collect();
        // 0x108..0x110 then wrap to 0x100..0x108.
        assert_eq!(
            data,
            vec![8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7]
        );
    }
}
