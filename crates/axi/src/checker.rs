//! A passive AXI protocol monitor.
//!
//! The monitor observes the beats crossing one AXI boundary (in the
//! reproduction it is wired at the interconnect's master port, i.e. the
//! FPGA-PS interface) and records violations of the channel-ordering
//! rules the models rely on:
//!
//! * every burst transfers exactly `len` data beats, with `LAST` set on
//!   the final beat only;
//! * write data follows its address request (the paper notes data
//!   channels depend on address channels on today's platforms, §II);
//! * responses arrive in request order (in-order memory subsystem);
//! * every R/W data beat carries exactly `AxSIZE` bytes.
//!
//! Violations are collected rather than panicking so integration tests
//! can assert `is_clean()` and print all diagnostics on failure.

use std::collections::VecDeque;

use sim::stats::CounterBank;
use sim::Cycle;

use crate::beat::{ArBeat, AwBeat, BBeat, RBeat, WBeat};

/// One recorded protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Cycle at which the violation was observed.
    pub cycle: Cycle,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cycle {}: {}", self.cycle, self.message)
    }
}

/// Category of a structured [`Violation`].
///
/// The discriminants double as indices into a
/// [`sim::stats::CounterBank`] of [`COUNT`](Self::COUNT)
/// slots, which is how the HyperConnect exposes per-port violation
/// counters through its register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Request addressed a region no slave decodes (surfaces as DECERR).
    AddressDecode,
    /// An INCR burst crossed a 4 KiB address boundary.
    Boundary4K,
    /// WLAST asserted on the wrong beat of a write burst.
    WlastMismatch,
    /// Data or response beat inconsistent with the request stream
    /// (orphan beat, ID mismatch, early/late LAST on R).
    StreamIntegrity,
    /// A channel handshake stalled beyond the hang threshold.
    HandshakeHang,
    /// A port demanded more transactions than its reserved budget.
    BudgetOverrun,
    /// An error response (SLVERR/DECERR) crossed the boundary.
    ErrorResponse,
    /// A malformed beat (zero-length burst, wrong beat width).
    Malformed,
}

impl ViolationKind {
    /// Number of violation categories.
    pub const COUNT: usize = 8;

    /// Every category, in index order.
    pub const ALL: [ViolationKind; Self::COUNT] = [
        ViolationKind::AddressDecode,
        ViolationKind::Boundary4K,
        ViolationKind::WlastMismatch,
        ViolationKind::StreamIntegrity,
        ViolationKind::HandshakeHang,
        ViolationKind::BudgetOverrun,
        ViolationKind::ErrorResponse,
        ViolationKind::Malformed,
    ];

    /// Stable index of this category (counter-bank slot).
    pub fn index(self) -> usize {
        match self {
            ViolationKind::AddressDecode => 0,
            ViolationKind::Boundary4K => 1,
            ViolationKind::WlastMismatch => 2,
            ViolationKind::StreamIntegrity => 3,
            ViolationKind::HandshakeHang => 4,
            ViolationKind::BudgetOverrun => 5,
            ViolationKind::ErrorResponse => 6,
            ViolationKind::Malformed => 7,
        }
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::AddressDecode => "address-decode",
            ViolationKind::Boundary4K => "4k-boundary",
            ViolationKind::WlastMismatch => "wlast-mismatch",
            ViolationKind::StreamIntegrity => "stream-integrity",
            ViolationKind::HandshakeHang => "handshake-hang",
            ViolationKind::BudgetOverrun => "budget-overrun",
            ViolationKind::ErrorResponse => "error-response",
            ViolationKind::Malformed => "malformed",
        }
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured misbehavior report: what happened, when, and on which
/// slave port (when the observer knows it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle at which the violation was observed.
    pub cycle: Cycle,
    /// Slave-port index the offending traffic entered through, when the
    /// observing component is port-attributed.
    pub port: Option<usize>,
    /// Category of the violation.
    pub kind: ViolationKind,
    /// Free-form diagnostic detail.
    pub detail: String,
}

impl Violation {
    /// Creates a violation report with no port attribution.
    pub fn new(cycle: Cycle, kind: ViolationKind, detail: impl Into<String>) -> Self {
        Self {
            cycle,
            port: None,
            kind,
            detail: detail.into(),
        }
    }

    /// Attributes the violation to a slave port.
    pub fn at_port(mut self, port: usize) -> Self {
        self.port = Some(port);
        self
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.port {
            Some(p) => write!(
                f,
                "cycle {} port {}: [{}] {}",
                self.cycle, p, self.kind, self.detail
            ),
            None => write!(f, "cycle {}: [{}] {}", self.cycle, self.kind, self.detail),
        }
    }
}

#[derive(Debug, Clone)]
struct PendingRead {
    ar: ArBeat,
    beats_seen: u32,
}

#[derive(Debug, Clone)]
struct PendingWrite {
    aw: AwBeat,
    beats_seen: u32,
}

/// Passive monitor for one AXI boundary. Feed it every beat crossing the
/// boundary via the `observe_*` methods.
///
/// # Example
///
/// ```
/// use axi::checker::ProtocolMonitor;
/// use axi::beat::{ArBeat, RBeat};
/// use axi::types::{AxiId, BurstSize};
///
/// let mut mon = ProtocolMonitor::new();
/// mon.observe_ar(0, &ArBeat::new(0x100, 2, BurstSize::B4));
/// mon.observe_r(5, &RBeat::new(AxiId(0), vec![0; 4], false));
/// mon.observe_r(6, &RBeat::new(AxiId(0), vec![0; 4], true));
/// assert!(mon.is_clean());
/// assert_eq!(mon.reads_completed(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ProtocolMonitor {
    reads: VecDeque<PendingRead>,
    writes: VecDeque<PendingWrite>,
    /// Writes whose data completed, awaiting a B response.
    awaiting_b: VecDeque<AwBeat>,
    errors: Vec<ProtocolError>,
    violations: Vec<Violation>,
    counters: CounterBank,
    port: Option<usize>,
    reads_completed: u64,
    writes_completed: u64,
}

impl Default for ProtocolMonitor {
    fn default() -> Self {
        Self {
            reads: VecDeque::new(),
            writes: VecDeque::new(),
            awaiting_b: VecDeque::new(),
            errors: Vec::new(),
            violations: Vec::new(),
            counters: CounterBank::new(ViolationKind::COUNT),
            port: None,
            reads_completed: 0,
            writes_completed: 0,
        }
    }
}

impl ProtocolMonitor {
    /// Creates a monitor with no observed traffic.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a structured violation, counting it in the per-kind
    /// bank. Protocol-rule categories also surface through
    /// [`errors`](Self::errors)/[`is_clean`](Self::is_clean);
    /// [`ViolationKind::ErrorResponse`] does not, because error
    /// responses are protocol-legal.
    fn error(&mut self, cycle: Cycle, kind: ViolationKind, detail: impl Into<String>) {
        let detail = detail.into();
        self.counters.incr(kind.index());
        if kind != ViolationKind::ErrorResponse {
            self.errors.push(ProtocolError {
                cycle,
                message: detail.clone(),
            });
        }
        let mut v = Violation::new(cycle, kind, detail);
        v.port = self.port;
        self.violations.push(v);
    }

    /// Observes a read request crossing the boundary.
    pub fn observe_ar(&mut self, cycle: Cycle, ar: &ArBeat) {
        if ar.len == 0 {
            self.error(
                cycle,
                ViolationKind::Malformed,
                format!("AR with zero length at {:#x}", ar.addr),
            );
        }
        self.reads.push_back(PendingRead {
            ar: ar.clone(),
            beats_seen: 0,
        });
    }

    /// Observes a write request crossing the boundary.
    pub fn observe_aw(&mut self, cycle: Cycle, aw: &AwBeat) {
        if aw.len == 0 {
            self.error(
                cycle,
                ViolationKind::Malformed,
                format!("AW with zero length at {:#x}", aw.addr),
            );
        }
        self.writes.push_back(PendingWrite {
            aw: aw.clone(),
            beats_seen: 0,
        });
    }

    /// Observes a write-data beat crossing the boundary.
    pub fn observe_w(&mut self, cycle: Cycle, w: &WBeat) {
        let mut problems: Vec<(ViolationKind, String)> = Vec::new();
        let mut finished = false;
        match self.writes.front_mut() {
            None => problems.push((
                ViolationKind::StreamIntegrity,
                "W beat with no outstanding AW".into(),
            )),
            Some(head) => {
                if w.data.len() as u64 != head.aw.size.bytes() {
                    problems.push((
                        ViolationKind::Malformed,
                        format!(
                            "W beat carries {} bytes, burst size is {}",
                            w.data.len(),
                            head.aw.size.bytes()
                        ),
                    ));
                }
                head.beats_seen += 1;
                let is_final = head.beats_seen == head.aw.len;
                if w.last != is_final {
                    problems.push((
                        ViolationKind::WlastMismatch,
                        format!(
                            "WLAST={} on beat {}/{} of write at {:#x}",
                            w.last, head.beats_seen, head.aw.len, head.aw.addr
                        ),
                    ));
                }
                finished = is_final || w.last;
            }
        }
        for (kind, msg) in problems {
            self.error(cycle, kind, msg);
        }
        if finished {
            // Close out the burst on `last` even if the count mismatched,
            // so one error doesn't cascade into spurious ones.
            let done = self.writes.pop_front().expect("head exists");
            self.awaiting_b.push_back(done.aw);
        }
    }

    /// Observes a read-data beat crossing the boundary.
    pub fn observe_r(&mut self, cycle: Cycle, r: &RBeat) {
        let mut problems: Vec<(ViolationKind, String)> = Vec::new();
        let mut finished = false;
        if !r.resp.is_ok() {
            problems.push((
                ViolationKind::ErrorResponse,
                format!("R beat carries {:?} response", r.resp),
            ));
        }
        match self.reads.front_mut() {
            None => problems.push((
                ViolationKind::StreamIntegrity,
                "R beat with no outstanding AR".into(),
            )),
            Some(head) => {
                if r.data.len() as u64 != head.ar.size.bytes() {
                    problems.push((
                        ViolationKind::Malformed,
                        format!(
                            "R beat carries {} bytes, burst size is {}",
                            r.data.len(),
                            head.ar.size.bytes()
                        ),
                    ));
                }
                if r.id != head.ar.id {
                    problems.push((
                        ViolationKind::StreamIntegrity,
                        format!(
                            "R beat id {} does not match in-order AR id {}",
                            r.id, head.ar.id
                        ),
                    ));
                }
                head.beats_seen += 1;
                let is_final = head.beats_seen == head.ar.len;
                if r.last != is_final {
                    problems.push((
                        ViolationKind::StreamIntegrity,
                        format!(
                            "RLAST={} on beat {}/{} of read at {:#x}",
                            r.last, head.beats_seen, head.ar.len, head.ar.addr
                        ),
                    ));
                }
                finished = is_final || r.last;
            }
        }
        for (kind, msg) in problems {
            self.error(cycle, kind, msg);
        }
        if finished {
            self.reads.pop_front();
            self.reads_completed += 1;
        }
    }

    /// Observes a write response crossing the boundary.
    pub fn observe_b(&mut self, cycle: Cycle, b: &BBeat) {
        if !b.resp.is_ok() {
            self.error(
                cycle,
                ViolationKind::ErrorResponse,
                format!("B response carries {:?}", b.resp),
            );
        }
        match self.awaiting_b.pop_front() {
            Some(aw) => {
                if b.id != aw.id {
                    let msg = format!("B id {} does not match in-order AW id {}", b.id, aw.id);
                    self.error(cycle, ViolationKind::StreamIntegrity, msg);
                }
                self.writes_completed += 1;
            }
            None => self.error(
                cycle,
                ViolationKind::StreamIntegrity,
                "B response with no completed write burst",
            ),
        }
    }

    /// Whether no violations have been recorded.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// All recorded violations, in observation order.
    pub fn errors(&self) -> &[ProtocolError] {
        &self.errors
    }

    /// All structured violation reports, in observation order
    /// (includes [`ViolationKind::ErrorResponse`] observations that do
    /// not appear in [`errors`](Self::errors)).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations recorded in category `kind`.
    pub fn violation_count(&self, kind: ViolationKind) -> u64 {
        self.counters.get(kind.index())
    }

    /// Total structured violations across all categories.
    pub fn total_violations(&self) -> u64 {
        self.counters.total()
    }

    /// The per-kind violation counter bank (indexed by
    /// [`ViolationKind::index`]).
    pub fn violation_counters(&self) -> &CounterBank {
        &self.counters
    }

    /// Read bursts fully completed (all beats observed).
    pub fn reads_completed(&self) -> u64 {
        self.reads_completed
    }

    /// Write bursts fully completed (data and response observed).
    pub fn writes_completed(&self) -> u64 {
        self.writes_completed
    }

    /// Read bursts issued but not yet complete.
    pub fn reads_outstanding(&self) -> usize {
        self.reads.len()
    }

    /// Write bursts with data or response still pending.
    pub fn writes_outstanding(&self) -> usize {
        self.writes.len() + self.awaiting_b.len()
    }
}

mod persist_impls {
    //! Snapshot support: violation records are a fingerprint surface
    //! (tests compare violation logs byte for byte across a
    //! snapshot/restore split), and the monitor's pending-burst queues
    //! must survive so post-restore beats match against the right
    //! outstanding requests.

    use super::*;
    use sim::persist::{PersistError, PersistValue, SnapshotReader, SnapshotWriter};

    impl PersistValue for ViolationKind {
        fn save_value(&self, w: &mut SnapshotWriter) {
            w.put_u8(self.index() as u8);
        }
        fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
            let idx = r.take_u8()? as usize;
            ViolationKind::ALL
                .get(idx)
                .copied()
                .ok_or(PersistError::Corrupt("ViolationKind discriminant"))
        }
    }

    sim::persist_fields!(Violation {
        cycle,
        port,
        kind,
        detail
    });
    sim::persist_fields!(ProtocolError { cycle, message });
    sim::persist_fields!(PendingRead { ar, beats_seen });
    sim::persist_fields!(PendingWrite { aw, beats_seen });
    sim::persist_fields!(ProtocolMonitor {
        reads,
        writes,
        awaiting_b,
        errors,
        violations,
        counters,
        port,
        reads_completed,
        writes_completed,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AxiId, BurstSize};

    fn wbeat(bytes: usize, last: bool) -> WBeat {
        WBeat::new(vec![0; bytes], last)
    }

    #[test]
    fn clean_read_burst() {
        let mut mon = ProtocolMonitor::new();
        mon.observe_ar(0, &ArBeat::new(0, 3, BurstSize::B8));
        for i in 0..3 {
            mon.observe_r(i, &RBeat::new(AxiId(0), vec![0; 8], i == 2));
        }
        assert!(mon.is_clean(), "{:?}", mon.errors());
        assert_eq!(mon.reads_completed(), 1);
        assert_eq!(mon.reads_outstanding(), 0);
    }

    #[test]
    fn clean_write_burst() {
        let mut mon = ProtocolMonitor::new();
        mon.observe_aw(0, &AwBeat::new(0, 2, BurstSize::B4));
        mon.observe_w(1, &wbeat(4, false));
        mon.observe_w(2, &wbeat(4, true));
        assert_eq!(mon.writes_outstanding(), 1); // awaiting B
        mon.observe_b(5, &BBeat::new(AxiId(0)));
        assert!(mon.is_clean(), "{:?}", mon.errors());
        assert_eq!(mon.writes_completed(), 1);
        assert_eq!(mon.writes_outstanding(), 0);
    }

    #[test]
    fn detects_missing_last_on_read() {
        let mut mon = ProtocolMonitor::new();
        mon.observe_ar(0, &ArBeat::new(0, 1, BurstSize::B4));
        mon.observe_r(1, &RBeat::new(AxiId(0), vec![0; 4], false));
        assert!(!mon.is_clean());
        assert!(mon.errors()[0].message.contains("RLAST"));
    }

    #[test]
    fn detects_early_last_on_write() {
        let mut mon = ProtocolMonitor::new();
        mon.observe_aw(0, &AwBeat::new(0, 4, BurstSize::B4));
        mon.observe_w(1, &wbeat(4, true)); // last on beat 1 of 4
        assert!(!mon.is_clean());
        assert!(mon.errors()[0].message.contains("WLAST"));
        // Burst was closed out on last; no cascade on the next burst.
        mon.observe_aw(2, &AwBeat::new(64, 1, BurstSize::B4));
        mon.observe_w(3, &wbeat(4, true));
        assert_eq!(mon.errors().len(), 1);
    }

    #[test]
    fn detects_orphan_data_and_response() {
        let mut mon = ProtocolMonitor::new();
        mon.observe_w(0, &wbeat(4, true));
        mon.observe_r(1, &RBeat::new(AxiId(0), vec![0; 4], true));
        mon.observe_b(2, &BBeat::new(AxiId(0)));
        assert_eq!(mon.errors().len(), 3);
        assert!(mon.errors()[0].message.contains("no outstanding AW"));
        assert!(mon.errors()[1].message.contains("no outstanding AR"));
        assert!(mon.errors()[2].message.contains("no completed write"));
    }

    #[test]
    fn detects_wrong_beat_width() {
        let mut mon = ProtocolMonitor::new();
        mon.observe_ar(0, &ArBeat::new(0, 1, BurstSize::B16));
        mon.observe_r(1, &RBeat::new(AxiId(0), vec![0; 4], true));
        assert!(!mon.is_clean());
        assert!(mon.errors()[0].message.contains("16"));
    }

    #[test]
    fn detects_id_mismatch_in_order() {
        let mut mon = ProtocolMonitor::new();
        mon.observe_ar(0, &ArBeat::new(0, 1, BurstSize::B4).with_id(AxiId(1)));
        mon.observe_r(1, &RBeat::new(AxiId(2), vec![0; 4], true));
        assert!(!mon.is_clean());
        assert!(mon.errors()[0].message.contains("id"));
    }

    #[test]
    fn interleaved_reads_and_writes_stay_independent() {
        let mut mon = ProtocolMonitor::new();
        mon.observe_ar(0, &ArBeat::new(0, 1, BurstSize::B4));
        mon.observe_aw(0, &AwBeat::new(64, 1, BurstSize::B4));
        mon.observe_w(1, &wbeat(4, true));
        mon.observe_r(1, &RBeat::new(AxiId(0), vec![0; 4], true));
        mon.observe_b(2, &BBeat::new(AxiId(0)));
        assert!(mon.is_clean(), "{:?}", mon.errors());
        assert_eq!(mon.reads_completed(), 1);
        assert_eq!(mon.writes_completed(), 1);
    }

    #[test]
    fn zero_length_requests_flagged() {
        let mut mon = ProtocolMonitor::new();
        let mut ar = ArBeat::new(0, 1, BurstSize::B4);
        ar.len = 0;
        mon.observe_ar(0, &ar);
        assert!(!mon.is_clean());
    }

    #[test]
    fn error_display_contains_cycle() {
        let e = ProtocolError {
            cycle: 12,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "cycle 12: boom");
    }

    #[test]
    fn violation_kind_indices_are_stable() {
        for (i, kind) in ViolationKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        assert_eq!(ViolationKind::ALL.len(), ViolationKind::COUNT);
    }

    #[test]
    fn violations_are_classified_and_counted() {
        let mut mon = ProtocolMonitor {
            port: Some(3),
            ..ProtocolMonitor::default()
        };
        mon.observe_aw(0, &AwBeat::new(0, 4, BurstSize::B4));
        mon.observe_w(1, &wbeat(4, true)); // WLAST on beat 1 of 4
        mon.observe_r(2, &RBeat::new(AxiId(0), vec![0; 4], true)); // orphan
        assert_eq!(mon.violation_count(ViolationKind::WlastMismatch), 1);
        assert_eq!(mon.violation_count(ViolationKind::StreamIntegrity), 1);
        assert_eq!(mon.total_violations(), 2);
        assert_eq!(mon.violations().len(), 2);
        assert_eq!(mon.violations()[0].port, Some(3));
        assert_eq!(mon.violations()[0].kind, ViolationKind::WlastMismatch);
        // Structured reports and legacy errors stay in lockstep for
        // protocol-rule categories.
        assert_eq!(mon.errors().len(), 2);
    }

    #[test]
    fn error_responses_counted_but_boundary_stays_clean() {
        use crate::types::Resp;
        let mut mon = ProtocolMonitor::new();
        mon.observe_ar(0, &ArBeat::new(0, 1, BurstSize::B4));
        mon.observe_r(
            4,
            &RBeat::new(AxiId(0), vec![0; 4], true).with_resp(Resp::DecErr),
        );
        mon.observe_aw(5, &AwBeat::new(64, 1, BurstSize::B4));
        mon.observe_w(6, &wbeat(4, true));
        mon.observe_b(8, &BBeat::new(AxiId(0)).with_resp(Resp::SlvErr));
        // Error responses are protocol-legal: the boundary is clean but
        // the structured reports record them.
        assert!(mon.is_clean(), "{:?}", mon.errors());
        assert_eq!(mon.violation_count(ViolationKind::ErrorResponse), 2);
        assert_eq!(mon.violations().len(), 2);
    }

    #[test]
    fn recorded_violations_carry_port_and_kind() {
        let mut mon = ProtocolMonitor {
            port: Some(1),
            ..ProtocolMonitor::default()
        };
        mon.error(9, ViolationKind::Boundary4K, "burst crosses 4 KiB");
        assert!(!mon.is_clean());
        assert_eq!(mon.violation_count(ViolationKind::Boundary4K), 1);
        let v = &mon.violations()[0];
        assert_eq!(v.cycle, 9);
        assert_eq!(v.port, Some(1));
        assert!(v.to_string().contains("port 1"));
        assert!(v.to_string().contains("4k-boundary"));
    }
}
