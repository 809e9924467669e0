//! The hypervisor proper: domains, bandwidth partitioning, interrupt
//! routing, and run-time health monitoring.

use std::collections::HashMap;

use axi::lite::LiteBus;
use axi::types::PortId;
use std::collections::VecDeque;

use crate::domain::{Criticality, Domain, DomainId};
use crate::driver::{DriverError, HcDriver};

/// Errors surfaced by hypervisor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HvError {
    /// Underlying register-driver failure.
    Driver(DriverError),
    /// The referenced domain does not exist.
    UnknownDomain(DomainId),
    /// The referenced port is already assigned to a domain.
    PortTaken(PortId),
    /// The referenced port is not assigned to any domain.
    UnassignedPort(PortId),
}

impl std::fmt::Display for HvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HvError::Driver(e) => write!(f, "driver: {e}"),
            HvError::UnknownDomain(d) => write!(f, "unknown domain {d}"),
            HvError::PortTaken(p) => write!(f, "{p} is already assigned"),
            HvError::UnassignedPort(p) => write!(f, "{p} is not assigned to any domain"),
        }
    }
}

impl std::error::Error for HvError {}

impl From<DriverError> for HvError {
    fn from(e: DriverError) -> Self {
        HvError::Driver(e)
    }
}

/// Health-monitoring policy for a port: how many sub-transactions per
/// reservation period the accelerator *declared* it needs, and how many
/// consecutive violations are tolerated before the hypervisor decouples
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorPolicy {
    /// Declared sub-transactions per period.
    pub declared_txns_per_period: u32,
    /// Consecutive violating polls tolerated before decoupling.
    pub violations_allowed: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct MonitorState {
    consecutive_violations: u32,
    decoupled_by_monitor: bool,
}

/// Watchdog policy for a port: thresholds on the interconnect's
/// *structured violation* counter and on the in-flight transaction count,
/// read over AXI-Lite from the `VIOLATIONS` / `OUTSTANDING` registers.
///
/// Complements [`MonitorPolicy`] (which reacts to bandwidth overuse):
/// the watchdog reacts to protocol-level misbehavior — illegal
/// addresses, 4 KiB crossings, WLAST corruption, hung handshakes — and
/// to runaway issue rates that exceed the declared in-flight envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogPolicy {
    /// Total structured violations tolerated before decoupling.
    pub violations_allowed: u32,
    /// Optional cap on in-flight sub-transactions; `None` disables the
    /// outstanding check.
    pub outstanding_allowed: Option<u32>,
    /// Consecutive polls tolerated with in-flight work but frozen
    /// progress counters before declaring a forward-progress stall
    /// (stuck-valid / stuck-ready); `None` disables stall detection.
    pub stall_polls_allowed: Option<u32>,
}

impl Default for WatchdogPolicy {
    /// A fully permissive policy: every check disabled.
    fn default() -> Self {
        Self {
            violations_allowed: u32::MAX,
            outstanding_allowed: None,
            stall_polls_allowed: None,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct WatchdogState {
    decoupled_by_watchdog: bool,
    /// `VIOLATIONS` is cumulative since reset; the watchdog compares
    /// against this baseline so a reattached port is not re-tripped by
    /// its pre-recovery history.
    violations_baseline: u32,
    /// `(TXN_TOTAL, OUTSTANDING)` observed at the previous poll — the
    /// forward-progress fingerprint for stall detection.
    last_progress: Option<(u32, u32)>,
    stalled_polls: u32,
}

/// Why the watchdog decoupled a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogReason {
    /// The structured-violation counter exceeded the policy threshold.
    Violations,
    /// The in-flight transaction count exceeded the policy cap.
    Outstanding,
    /// Work was outstanding but the handshake counters stopped
    /// advancing for longer than the policy tolerates — a stuck-valid
    /// or stuck-ready accelerator.
    Stalled,
}

/// A decoupling event recorded by the watchdog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogEvent {
    /// The offending port.
    pub port: PortId,
    /// What tripped the watchdog.
    pub reason: WatchdogReason,
    /// Violation count observed at the decoupling poll.
    pub violations: u32,
    /// In-flight sub-transactions observed at the decoupling poll.
    pub outstanding: u32,
}

/// Data-integrity policy for a port: how many error-completed
/// transactions (the `ERR_TOTAL` health register — transient SLVERR
/// bursts, uncorrectable ECC events) the hypervisor tolerates before
/// flagging the port's memory region for quarantine.
///
/// Complements [`WatchdogPolicy`] (protocol misbehavior) and
/// [`MonitorPolicy`] (bandwidth overuse): this one reacts to the
/// *slave/fabric* fault surface. The hypervisor does not remap memory
/// itself — the returned [`IntegrityEvent`]s are cues for the platform
/// layer to install a region remap or shed best-effort traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityPolicy {
    /// Error-completed transactions tolerated (relative to the baseline
    /// captured when the policy was armed) before an event fires.
    pub errors_allowed: u32,
}

impl Default for IntegrityPolicy {
    /// Tolerate nothing: the first error-completed transaction fires.
    fn default() -> Self {
        Self { errors_allowed: 0 }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct IntegrityState {
    /// `ERR_TOTAL` is cumulative since reset; events fire on the delta
    /// against this baseline.
    errors_baseline: u32,
    /// The event already fired; latched until re-armed so one sick
    /// region does not flood the log at every poll.
    flagged: bool,
}

/// A data-integrity threshold crossing recorded by
/// [`Hypervisor::poll_integrity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityEvent {
    /// The port whose error counter crossed the threshold.
    pub port: PortId,
    /// `ERR_TOTAL` observed at the firing poll.
    pub err_total: u32,
    /// The armed threshold (errors above baseline).
    pub errors_allowed: u32,
}

/// A decoupling event recorded by the health monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecoupleEvent {
    /// The offending port.
    pub port: PortId,
    /// Sub-transactions observed in the violating period.
    pub observed: u32,
    /// The declared limit.
    pub declared: u32,
}

/// Where a port stands in the hypervisor's recovery lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryState {
    /// Nominal operation.
    #[default]
    Healthy,
    /// Early misbehavior signals (accumulating violations or stall
    /// polls); the port runs under a throttled budget while the
    /// hypervisor waits to see whether it settles.
    Suspect,
    /// A quiescent drain is in progress; in-flight work is completing
    /// (or will be force-flushed at the drain deadline).
    Draining,
    /// Drained and decoupled, waiting out the reattach backoff.
    Decoupled,
    /// The accelerator reset is in progress (modeled as a fixed number
    /// of polls).
    Resetting,
    /// Reattached and under scrutiny before being declared healthy.
    Probation,
    /// Permanently decoupled after too many failed recoveries.
    Quarantined,
}

/// Configures the escalating recovery ladder for a port:
/// throttle → drain → decouple → reset → reattach, with exponential
/// backoff between attempts and permanent quarantine after repeated
/// failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Budget (sub-transactions per period) imposed while `Suspect`.
    pub throttle_budget: u32,
    /// Polls to observe a `Suspect` port before escalating to a drain
    /// (it returns to `Healthy` earlier if the signals clear).
    pub suspect_polls: u32,
    /// Polls the modeled accelerator reset takes.
    pub reset_polls: u32,
    /// Consecutive clean polls required in `Probation` before the port
    /// is declared `Healthy` again.
    pub probation_polls: u32,
    /// Backoff (in polls) before the first reset attempt; doubles on
    /// every failed recovery.
    pub backoff_base: u32,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: u32,
    /// Failed recoveries (misbehavior during `Probation`) tolerated
    /// before the port is permanently `Quarantined`.
    pub max_recoveries: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            throttle_budget: 1,
            suspect_polls: 2,
            reset_polls: 2,
            probation_polls: 4,
            backoff_base: 1,
            backoff_cap: 8,
            max_recoveries: 3,
        }
    }
}

impl RecoveryPolicy {
    /// Upper bound, in polls, from the poll that detects a fault to the
    /// reattach of the *last* allowed recovery attempt — the SLA the
    /// chaos campaign asserts against. `drain_polls` is the caller's
    /// bound on drain duration (e.g. the device drain deadline divided
    /// by the poll interval, rounded up, plus one write-back poll).
    pub fn reattach_sla_polls(&self, drain_polls: u32) -> u32 {
        let per_attempt = drain_polls + self.backoff_cap + self.reset_polls + 2;
        self.suspect_polls + 1 + (self.max_recoveries.max(1)) * (per_attempt + 1)
    }
}

/// A state-machine transition recorded by [`Hypervisor::poll_recovery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryTransition {
    /// The port that moved.
    pub port: PortId,
    /// State before this poll.
    pub from: RecoveryState,
    /// State after this poll.
    pub to: RecoveryState,
    /// Sub-transactions reported dropped by a force-flush, observed on
    /// the `Draining → Decoupled` edge (0 elsewhere, and 0 for clean
    /// drains).
    pub dropped_txns: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct RecoveryPortState {
    state: RecoveryState,
    /// Polls spent in the current state (meaning varies per state).
    polls_in_state: u32,
    failed_recoveries: u32,
    /// Polls left to wait in `Decoupled` before resetting.
    backoff_left: u32,
    /// Budget register value saved when entering `Suspect`.
    saved_budget: u32,
}

/// The hypervisor: owns the control bus, the domain table and the
/// monitoring state for one HyperConnect instance.
///
/// # Example
///
/// ```
/// use axi::lite::LiteBus;
/// use axi::types::PortId;
/// use hyperconnect::{HcConfig, HyperConnect};
/// use hypervisor::{Criticality, Hypervisor};
///
/// # fn main() -> Result<(), hypervisor::HvError> {
/// let hc = HyperConnect::new(HcConfig::new(2));
/// let mut bus = LiteBus::new();
/// bus.map(0xA000_0000, 0x1000, hc.regs().clone());
/// let mut hv = Hypervisor::new(bus, 0xA000_0000)?;
/// let dom = hv.create_domain("perception", Criticality::Safety);
/// hv.assign_port(dom, PortId(0))?;
/// hv.hc().set_period(50_000)?;
/// hv.set_bandwidth_shares(&[90, 10], 22)?;
/// # Ok(())
/// # }
/// ```
pub struct Hypervisor {
    bus: LiteBus,
    hc_base: u64,
    domains: Vec<Domain>,
    port_owner: HashMap<usize, DomainId>,
    monitor: Watch<MonitorPolicy, MonitorState, DecoupleEvent>,
    watchdog: Watch<WatchdogPolicy, WatchdogState, WatchdogEvent>,
    recovery: Watch<RecoveryPolicy, RecoveryPortState, RecoveryTransition>,
    integrity: Watch<IntegrityPolicy, IntegrityState, IntegrityEvent>,
}

/// Capacity of each hypervisor event log. Like the tracer, the logs
/// are bounded so a flapping accelerator cannot grow hypervisor memory
/// without limit: the oldest events are dropped and counted.
pub const HEALTH_LOG_CAPACITY: usize = 256;

/// A bounded hypervisor event log: the newest [`HEALTH_LOG_CAPACITY`]
/// events, oldest first, and the count of older ones evicted to make
/// room.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthLog<E> {
    events: VecDeque<E>,
    dropped: u64,
}

impl<E> HealthLog<E> {
    fn push(&mut self, event: E) {
        if self.events.len() == HEALTH_LOG_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events held (at most [`HEALTH_LOG_CAPACITY`]).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event is held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The `i`-th held event, 0 being the oldest.
    pub fn get(&self, i: usize) -> Option<&E> {
        self.events.get(i)
    }

    /// The held events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &E> + '_ {
        self.events.iter()
    }

    /// Events evicted because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<E> Default for HealthLog<E> {
    fn default() -> Self {
        Self {
            events: VecDeque::new(),
            dropped: 0,
        }
    }
}

/// One monitoring kind (health monitor, watchdog, recovery, integrity):
/// its per-port policies, the per-port state its poll keeps, and the
/// log of the events it raised.
struct Watch<P, S, E> {
    policies: HashMap<usize, P>,
    state: HashMap<usize, S>,
    log: HealthLog<E>,
}

impl<P, S, E> Default for Watch<P, S, E> {
    fn default() -> Self {
        Self {
            policies: HashMap::new(),
            state: HashMap::new(),
            log: HealthLog::default(),
        }
    }
}

impl<P: Copy, S: Default, E> Watch<P, S, E> {
    /// Installs `policy` on `port`, keeping any state the port has.
    fn arm(&mut self, port: PortId, policy: P) {
        self.policies.insert(port.0, policy);
        self.state.entry(port.0).or_default();
    }

    /// The watched ports with their policies, in ascending port order
    /// (the order every poll visits them).
    fn watched(&self) -> Vec<(usize, P)> {
        let mut ports: Vec<(usize, P)> = self.policies.iter().map(|(&p, &v)| (p, v)).collect();
        ports.sort_unstable_by_key(|&(p, _)| p);
        ports
    }
}

impl std::fmt::Debug for Hypervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hypervisor")
            .field("domains", &self.domains.len())
            .field("assigned_ports", &self.port_owner.len())
            .finish()
    }
}

impl Hypervisor {
    /// Creates a hypervisor controlling the HyperConnect mapped at
    /// `hc_base` on `bus`.
    ///
    /// # Errors
    ///
    /// Fails if no HyperConnect responds at `hc_base`.
    pub fn new(bus: LiteBus, hc_base: u64) -> Result<Self, HvError> {
        // Probe once to validate the mapping.
        HcDriver::probe(&bus, hc_base)?;
        Ok(Self {
            bus,
            hc_base,
            domains: Vec::new(),
            port_owner: HashMap::new(),
            monitor: Watch::default(),
            watchdog: Watch::default(),
            recovery: Watch::default(),
            integrity: Watch::default(),
        })
    }

    /// A register driver bound to the managed device.
    pub fn hc(&self) -> HcDriver<'_> {
        HcDriver::probe(&self.bus, self.hc_base).expect("validated at construction")
    }

    /// Creates a new domain and returns its ID.
    pub fn create_domain(&mut self, name: impl Into<String>, criticality: Criticality) -> DomainId {
        let id = DomainId(self.domains.len() as u32);
        self.domains.push(Domain::new(id, name, criticality));
        id
    }

    /// The domain table.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Looks up a domain.
    pub fn domain(&self, id: DomainId) -> Result<&Domain, HvError> {
        self.domains
            .get(id.0 as usize)
            .ok_or(HvError::UnknownDomain(id))
    }

    fn domain_mut(&mut self, id: DomainId) -> Result<&mut Domain, HvError> {
        self.domains
            .get_mut(id.0 as usize)
            .ok_or(HvError::UnknownDomain(id))
    }

    /// Assigns interconnect port `port` to `domain` (each port belongs
    /// to exactly one domain — the isolation granted via standard memory
    /// virtualization in the paper's framework).
    pub fn assign_port(&mut self, domain: DomainId, port: PortId) -> Result<(), HvError> {
        if self.port_owner.contains_key(&port.0) {
            return Err(HvError::PortTaken(port));
        }
        self.domain_mut(domain)?.assign(port);
        self.port_owner.insert(port.0, domain);
        Ok(())
    }

    /// The domain owning `port`, if any.
    fn owner_of(&self, port: PortId) -> Option<DomainId> {
        self.port_owner.get(&port.0).copied()
    }

    /// Routes an accelerator-completion interrupt from `port` to its
    /// owning domain.
    ///
    /// # Errors
    ///
    /// [`HvError::UnassignedPort`] if no domain owns the port.
    pub fn route_irq(&mut self, port: PortId) -> Result<DomainId, HvError> {
        let owner = self.owner_of(port).ok_or(HvError::UnassignedPort(port))?;
        self.domain_mut(owner)?.raise_irq();
        Ok(owner)
    }

    /// Partitions bandwidth by percentage shares across ports (the
    /// paper's `HC-X-Y` configurations).
    pub fn set_bandwidth_shares(
        &self,
        shares_percent: &[u32],
        mem_first_word_latency: u64,
    ) -> Result<Vec<u32>, HvError> {
        Ok(self
            .hc()
            .set_bandwidth_shares(shares_percent, mem_first_word_latency)?)
    }

    /// Installs a health-monitoring policy for a port.
    pub fn set_monitor_policy(&mut self, port: PortId, policy: MonitorPolicy) {
        self.monitor.arm(port, policy);
    }

    /// Polls the per-period transaction counters and decouples any port
    /// that exceeded its declared budget for more than the allowed
    /// number of consecutive polls. Returns the ports decoupled by this
    /// poll. Intended to be called once per reservation period.
    pub fn poll_health(&mut self) -> Result<Vec<DecoupleEvent>, HvError> {
        let mut events = Vec::new();
        for (p, policy) in self.monitor.watched() {
            if self
                .monitor
                .state
                .get(&p)
                .is_some_and(|s| s.decoupled_by_monitor)
            {
                // The flag says we decoupled this port, but the device
                // may have been recoupled behind our back (e.g. via
                // `HcDriver::set_decoupled(p, false)`). Re-arm the
                // monitor instead of skipping the port forever on
                // stale state.
                if self.hc().is_decoupled(p)? {
                    continue;
                }
                self.monitor.state.insert(p, MonitorState::default());
            }
            let observed = self.hc().txns_this_period(p)?;
            let violating = observed > policy.declared_txns_per_period;
            let violations = {
                let state = self.monitor.state.entry(p).or_default();
                if violating {
                    state.consecutive_violations += 1;
                } else {
                    state.consecutive_violations = 0;
                }
                state.consecutive_violations
            };
            if violating && violations > policy.violations_allowed {
                self.hc().set_decoupled(p, true)?;
                self.monitor
                    .state
                    .get_mut(&p)
                    .expect("inserted above")
                    .decoupled_by_monitor = true;
                let event = DecoupleEvent {
                    port: PortId(p),
                    observed,
                    declared: policy.declared_txns_per_period,
                };
                self.monitor.log.push(event.clone());
                events.push(event);
            }
        }
        Ok(events)
    }

    /// The health monitor's decoupling events.
    pub fn decouple_log(&self) -> &HealthLog<DecoupleEvent> {
        &self.monitor.log
    }

    /// Installs a watchdog policy for a port.
    pub fn set_watchdog_policy(&mut self, port: PortId, policy: WatchdogPolicy) {
        self.watchdog.arm(port, policy);
    }

    /// Polls the violation and outstanding counters of every watched
    /// port and decouples any port over its [`WatchdogPolicy`]
    /// thresholds. Returns the ports decoupled by this poll.
    ///
    /// Unlike [`Hypervisor::poll_health`] (periodic, bandwidth-oriented)
    /// this can be called at any rate; a port is decoupled at the first
    /// poll that observes it over threshold.
    pub fn poll_watchdog(&mut self) -> Result<Vec<WatchdogEvent>, HvError> {
        let mut events = Vec::new();
        for (p, policy) in self.watchdog.watched() {
            if self
                .watchdog
                .state
                .get(&p)
                .is_some_and(|s| s.decoupled_by_watchdog)
            {
                // Same stale-state hazard as the health monitor: if the
                // device was recoupled directly, re-arm rather than
                // skipping the port forever.
                if self.hc().is_decoupled(p)? {
                    continue;
                }
                self.rearm_watchdog(p)?;
            }
            let violations = self.hc().violations(p)?;
            let outstanding = self.hc().outstanding(p)?;
            let txns_total = self.hc().txns_total(p)?;
            let (stall_tripped, baseline) = {
                let state = self.watchdog.state.entry(p).or_default();
                let frozen =
                    outstanding > 0 && state.last_progress == Some((txns_total, outstanding));
                if frozen {
                    state.stalled_polls += 1;
                } else {
                    state.stalled_polls = 0;
                }
                state.last_progress = Some((txns_total, outstanding));
                let over = policy
                    .stall_polls_allowed
                    .is_some_and(|cap| state.stalled_polls > cap);
                (over, state.violations_baseline)
            };
            let reason = if violations.saturating_sub(baseline) > policy.violations_allowed {
                Some(WatchdogReason::Violations)
            } else if policy
                .outstanding_allowed
                .is_some_and(|cap| outstanding > cap)
            {
                Some(WatchdogReason::Outstanding)
            } else if stall_tripped {
                Some(WatchdogReason::Stalled)
            } else {
                None
            };
            if let Some(reason) = reason {
                self.hc().set_decoupled(p, true)?;
                self.watchdog
                    .state
                    .entry(p)
                    .or_default()
                    .decoupled_by_watchdog = true;
                let event = WatchdogEvent {
                    port: PortId(p),
                    reason,
                    violations,
                    outstanding,
                };
                self.watchdog.log.push(event.clone());
                events.push(event);
            }
        }
        Ok(events)
    }

    /// Resets a port's watchdog state, rebasing the cumulative
    /// violation counter at its current value so pre-recovery history
    /// does not immediately re-trip the watchdog.
    fn rearm_watchdog(&mut self, p: usize) -> Result<(), HvError> {
        let baseline = self.hc().violations(p)?;
        self.watchdog.state.insert(
            p,
            WatchdogState {
                violations_baseline: baseline,
                ..WatchdogState::default()
            },
        );
        Ok(())
    }

    /// The watchdog's decoupling events.
    pub fn watchdog_log(&self) -> &HealthLog<WatchdogEvent> {
        &self.watchdog.log
    }

    /// Installs (or re-arms) a data-integrity policy for a port,
    /// rebasing the cumulative `ERR_TOTAL` counter at its current value
    /// so pre-existing history does not immediately fire.
    ///
    /// # Errors
    ///
    /// Propagates register-read failures from the baseline capture.
    pub fn set_integrity_policy(
        &mut self,
        port: PortId,
        policy: IntegrityPolicy,
    ) -> Result<(), HvError> {
        let baseline = self.hc().err_total(port.0)?;
        self.integrity.policies.insert(port.0, policy);
        self.integrity.state.insert(
            port.0,
            IntegrityState {
                errors_baseline: baseline,
                flagged: false,
            },
        );
        Ok(())
    }

    /// Polls the `ERR_TOTAL` health register of every integrity-watched
    /// port and returns an event for each port whose error count
    /// crossed its threshold since the policy was armed. Each crossing
    /// fires exactly once (latched until the policy is re-armed with
    /// [`Hypervisor::set_integrity_policy`] — typically after the
    /// platform layer quarantined the sick region).
    pub fn poll_integrity(&mut self) -> Result<Vec<IntegrityEvent>, HvError> {
        let mut events = Vec::new();
        for (p, policy) in self.integrity.watched() {
            if self.integrity.state.get(&p).is_some_and(|s| s.flagged) {
                continue;
            }
            let err_total = self.hc().err_total(p)?;
            let state = self.integrity.state.entry(p).or_default();
            if err_total.saturating_sub(state.errors_baseline) > policy.errors_allowed {
                state.flagged = true;
                let event = IntegrityEvent {
                    port: PortId(p),
                    err_total,
                    errors_allowed: policy.errors_allowed,
                };
                self.integrity.log.push(event);
                events.push(event);
            }
        }
        Ok(events)
    }

    /// The data-integrity monitor's events.
    pub fn integrity_log(&self) -> &HealthLog<IntegrityEvent> {
        &self.integrity.log
    }

    /// Manually recouples a port (e.g. after the offending domain was
    /// restarted) and clears its monitor and watchdog state.
    ///
    /// The interconnect's violation counter is cumulative since reset,
    /// so the watchdog's baseline is rebased at the current reading —
    /// only *new* violations count against the recoupled port.
    pub fn recouple(&mut self, port: PortId) -> Result<(), HvError> {
        self.hc().set_decoupled(port.0, false)?;
        self.monitor.state.insert(port.0, MonitorState::default());
        self.rearm_watchdog(port.0)?;
        Ok(())
    }

    /// Installs a recovery policy for a port, arming the
    /// [`RecoveryState`] machine driven by
    /// [`Hypervisor::poll_recovery`].
    pub fn set_recovery_policy(&mut self, port: PortId, policy: RecoveryPolicy) {
        self.recovery.arm(port, policy);
    }

    /// Current recovery state of a port (if a policy is installed).
    pub fn recovery_state(&self, port: PortId) -> Option<RecoveryState> {
        self.recovery.state.get(&port.0).map(|s| s.state)
    }

    /// The recovery state machine's transitions.
    pub fn recovery_log(&self) -> &HealthLog<RecoveryTransition> {
        &self.recovery.log
    }

    /// Whether a port's health signals look bad *right now*: it was
    /// decoupled by the monitor or watchdog, or violations / stall
    /// polls are accumulating toward a threshold.
    fn port_suspect_signals(&self, p: usize) -> (bool, bool) {
        let monitor = self.monitor.state.get(&p);
        let watchdog = self.watchdog.state.get(&p);
        let hard = monitor.is_some_and(|s| s.decoupled_by_monitor)
            || watchdog.is_some_and(|s| s.decoupled_by_watchdog);
        let soft = monitor.is_some_and(|s| s.consecutive_violations > 0)
            || watchdog.is_some_and(|s| s.stalled_polls > 0);
        (hard, soft)
    }

    /// One tick of the recovery state machine, intended to run once per
    /// reservation period *after* [`Hypervisor::poll_health`] and
    /// [`Hypervisor::poll_watchdog`] (this method calls both itself, so
    /// a caller using `poll_recovery` alone gets the full pipeline).
    ///
    /// Escalation ladder per port with a [`RecoveryPolicy`]:
    ///
    /// 1. `Healthy → Suspect` on accumulating-but-subcritical signals:
    ///    the budget is throttled while the hypervisor watches.
    /// 2. `Healthy/Suspect → Draining` once the port is decoupled by
    ///    the monitor or watchdog (or stays suspect too long): a
    ///    quiescent drain lets in-flight work finish; the device
    ///    force-flushes at the drain deadline if it does not.
    /// 3. `Draining → Decoupled` when the status word reports drained
    ///    or force-flushed; the reattach backoff (exponential in the
    ///    number of failed recoveries) elapses here.
    /// 4. `Decoupled → Resetting` issues [`HcDriver::reset_port`]. The
    ///    transition is the caller's cue to reset the accelerator
    ///    itself (PL reset line / bitstream swap, outside this model).
    /// 5. `Resetting → Probation` after `reset_polls`: the port is
    ///    reattached with monitor and watchdog state re-armed.
    /// 6. `Probation → Healthy` after `probation_polls` clean polls, or
    ///    back to `Draining` on renewed misbehavior — after
    ///    `max_recoveries` failures the port is `Quarantined` for good.
    pub fn poll_recovery(&mut self) -> Result<Vec<RecoveryTransition>, HvError> {
        self.poll_health()?;
        self.poll_watchdog()?;
        let mut transitions = Vec::new();
        for (p, policy) in self.recovery.watched() {
            let (hard, soft) = self.port_suspect_signals(p);
            let state = *self.recovery.state.entry(p).or_default();
            let mut next = state;
            let mut dropped = 0;
            match state.state {
                RecoveryState::Healthy => {
                    if hard {
                        self.hc().request_quiesce(p)?;
                        next.state = RecoveryState::Draining;
                    } else if soft {
                        next.saved_budget = self.hc().budget(p)?;
                        self.hc().set_budget(p, policy.throttle_budget)?;
                        next.state = RecoveryState::Suspect;
                        next.polls_in_state = 0;
                    }
                }
                RecoveryState::Suspect => {
                    next.polls_in_state += 1;
                    if hard || next.polls_in_state > policy.suspect_polls {
                        self.hc().set_budget(p, state.saved_budget)?;
                        self.hc().request_quiesce(p)?;
                        next.state = RecoveryState::Draining;
                    } else if !soft {
                        self.hc().set_budget(p, state.saved_budget)?;
                        next.state = RecoveryState::Healthy;
                    }
                }
                RecoveryState::Draining => {
                    let status = self.hc().quiesce_status(p)?;
                    if status.drained || status.force_flushed {
                        dropped = status.dropped_txns;
                        self.hc().set_decoupled(p, true)?;
                        next.state = RecoveryState::Decoupled;
                        next.backoff_left = (policy.backoff_base
                            << state.failed_recoveries.min(16))
                        .min(policy.backoff_cap);
                    }
                }
                RecoveryState::Decoupled => {
                    if state.backoff_left > 0 {
                        next.backoff_left = state.backoff_left - 1;
                    } else {
                        self.hc().reset_port(p)?;
                        next.state = RecoveryState::Resetting;
                        next.polls_in_state = 0;
                    }
                }
                RecoveryState::Resetting => {
                    next.polls_in_state += 1;
                    if next.polls_in_state >= policy.reset_polls {
                        self.hc().reattach_port(p)?;
                        self.monitor.state.insert(p, MonitorState::default());
                        self.rearm_watchdog(p)?;
                        next.state = RecoveryState::Probation;
                        next.polls_in_state = 0;
                    }
                }
                RecoveryState::Probation => {
                    if hard || soft {
                        next.failed_recoveries = state.failed_recoveries + 1;
                        if next.failed_recoveries >= policy.max_recoveries {
                            self.hc().set_decoupled(p, true)?;
                            next.state = RecoveryState::Quarantined;
                        } else {
                            self.hc().request_quiesce(p)?;
                            next.state = RecoveryState::Draining;
                        }
                    } else {
                        next.polls_in_state += 1;
                        if next.polls_in_state >= policy.probation_polls {
                            next.state = RecoveryState::Healthy;
                            next.failed_recoveries = 0;
                        }
                    }
                }
                RecoveryState::Quarantined => {}
            }
            if next.state != state.state {
                let transition = RecoveryTransition {
                    port: PortId(p),
                    from: state.state,
                    to: next.state,
                    dropped_txns: dropped,
                };
                self.recovery.log.push(transition);
                transitions.push(transition);
                next.polls_in_state = 0;
            }
            self.recovery.state.insert(p, next);
        }
        Ok(transitions)
    }
}

mod persist_impls {
    use super::*;

    sim::persist_fields!(MonitorPolicy {
        declared_txns_per_period,
        violations_allowed
    });
    sim::persist_fields!(MonitorState {
        consecutive_violations,
        decoupled_by_monitor
    });
    sim::persist_fields!(WatchdogPolicy {
        violations_allowed,
        outstanding_allowed,
        stall_polls_allowed
    });
    sim::persist_fields!(WatchdogState {
        decoupled_by_watchdog,
        violations_baseline,
        last_progress,
        stalled_polls
    });
    sim::persist_enum!(
        WatchdogReason,
        "unknown watchdog reason",
        [Violations, Outstanding, Stalled]
    );
    sim::persist_fields!(WatchdogEvent {
        port,
        reason,
        violations,
        outstanding
    });
    sim::persist_fields!(DecoupleEvent {
        port,
        observed,
        declared
    });
    sim::persist_enum!(
        RecoveryState,
        "unknown recovery state",
        [
            Healthy,
            Suspect,
            Draining,
            Decoupled,
            Resetting,
            Probation,
            Quarantined
        ]
    );
    sim::persist_fields!(RecoveryPolicy {
        throttle_budget,
        suspect_polls,
        reset_polls,
        probation_polls,
        backoff_base,
        backoff_cap,
        max_recoveries,
    });
    sim::persist_fields!(RecoveryTransition {
        port,
        from,
        to,
        dropped_txns
    });
    sim::persist_fields!(RecoveryPortState {
        state,
        polls_in_state,
        failed_recoveries,
        backoff_left,
        saved_budget,
    });
    sim::persist_fields!(IntegrityPolicy { errors_allowed });
    sim::persist_fields!(IntegrityState {
        errors_baseline,
        flagged
    });
    sim::persist_fields!(IntegrityEvent {
        port,
        err_total,
        errors_allowed
    });

    sim::persist_fields!(impl<E> HealthLog<E> { events, dropped } check |log| {
        if log.events.len() > HEALTH_LOG_CAPACITY {
            return Err(sim::persist::PersistError::Corrupt("health log over capacity"));
        }
    });
    sim::persist_fields!(impl<P, S, E> Watch<P, S, E> { policies, state, log });

    impl Hypervisor {
        // The software state: the domain table, port ownership, and
        // for each monitoring kind its policies, per-port state, and
        // bounded event log with its dropped counter. Port-keyed maps
        // serialize sorted by port. The HyperConnect persists its own
        // register file.
        sim::persist_state! {
            pub Hypervisor {
                domains,
                port_owner,
                monitor,
                watchdog,
                recovery,
                integrity,
            }
            skip "the control bus stays wired to the live device" { bus, hc_base }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperconnect::{HcConfig, HyperConnect};

    const BASE: u64 = 0xA000_0000;

    /// Failed recovery attempts recorded for `port` so far.
    fn failed_recoveries(hv: &Hypervisor, port: PortId) -> u32 {
        hv.recovery
            .state
            .get(&port.0)
            .map_or(0, |s| s.failed_recoveries)
    }

    fn hypervisor(n: usize) -> (Hypervisor, HyperConnect) {
        let hc = HyperConnect::new(HcConfig::new(n));
        let mut bus = LiteBus::new();
        bus.map(BASE, 0x1000, hc.regs().clone());
        (Hypervisor::new(bus, BASE).unwrap(), hc)
    }

    #[test]
    fn construction_probes_device() {
        let bus = LiteBus::new();
        assert!(matches!(
            Hypervisor::new(bus, BASE),
            Err(HvError::Driver(_))
        ));
    }

    #[test]
    fn domain_and_port_assignment() {
        let (mut hv, _hc) = hypervisor(2);
        let crit = hv.create_domain("vision", Criticality::Safety);
        let best = hv.create_domain("logging", Criticality::BestEffort);
        hv.assign_port(crit, PortId(0)).unwrap();
        hv.assign_port(best, PortId(1)).unwrap();
        assert_eq!(hv.owner_of(PortId(0)), Some(crit));
        assert_eq!(
            hv.assign_port(best, PortId(0)).unwrap_err(),
            HvError::PortTaken(PortId(0))
        );
        assert_eq!(hv.domains().len(), 2);
        assert!(hv.domain(crit).unwrap().owns(PortId(0)));
        assert!(matches!(
            hv.domain(DomainId(9)),
            Err(HvError::UnknownDomain(_))
        ));
    }

    #[test]
    fn irq_routing() {
        let (mut hv, _hc) = hypervisor(2);
        let d = hv.create_domain("vm", Criticality::Mission);
        hv.assign_port(d, PortId(1)).unwrap();
        assert_eq!(hv.route_irq(PortId(1)).unwrap(), d);
        assert_eq!(hv.domain(d).unwrap().total_irqs(), 1);
        assert_eq!(
            hv.route_irq(PortId(0)).unwrap_err(),
            HvError::UnassignedPort(PortId(0))
        );
    }

    #[test]
    fn bandwidth_shares_reach_device() {
        let (hv, _hc) = hypervisor(2);
        hv.hc().set_period(16_022).unwrap();
        let budgets = hv.set_bandwidth_shares(&[70, 30], 22).unwrap();
        assert_eq!(budgets, vec![700, 300]);
        assert_eq!(hv.hc().budget(0).unwrap(), 700);
    }

    #[test]
    fn health_monitor_decouples_after_tolerance() {
        let (mut hv, mut hc) = hypervisor(2);
        hv.set_monitor_policy(
            PortId(0),
            MonitorPolicy {
                declared_txns_per_period: 10,
                violations_allowed: 1,
            },
        );
        // Make the device report a violating counter: issue real traffic.
        use axi::types::BurstSize;
        use axi::{ArBeat, AxiInterconnect};
        use sim::Component;
        // Raise the outstanding limit so all 16 sub-transactions issue
        // without waiting for read data (none is returned here).
        hv.hc().set_max_outstanding(0, 64).unwrap();
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 256, BurstSize::B4)) // 16 subs > 10
            .unwrap();
        for now in 0..80 {
            hc.tick(now);
            while hc.mem_port().ar.pop_ready(now).is_some() {}
        }
        // First poll: violation 1 (tolerated).
        assert!(hv.poll_health().unwrap().is_empty());
        // Second poll: violation 2 > allowed 1 -> decouple.
        let events = hv.poll_health().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].port, PortId(0));
        assert!(hv.hc().is_decoupled(0).unwrap());
        assert_eq!(hv.decouple_log().len(), 1);
        // Already-decoupled ports are not re-reported.
        assert!(hv.poll_health().unwrap().is_empty());
        // Recoupling clears state.
        hv.recouple(PortId(0)).unwrap();
        assert!(!hv.hc().is_decoupled(0).unwrap());
    }

    /// Issues one read on port 0 and answers it from the memory side
    /// with the given response, ticking until the counters settle.
    fn run_errored_read(hc: &mut HyperConnect, resp: axi::types::Resp) {
        use axi::types::{AxiId, BurstSize};
        use axi::{ArBeat, AxiInterconnect, RBeat};
        use sim::Component;

        hc.port(0)
            .ar
            .push(0, ArBeat::new(0x100, 1, BurstSize::B4))
            .unwrap();
        for now in 0..6 {
            hc.tick(now);
            hc.mem_port().ar.pop_ready(now);
        }
        hc.mem_port()
            .r
            .push(6, RBeat::new(AxiId(0), vec![0; 4], true).with_resp(resp))
            .unwrap();
        for now in 6..20 {
            hc.tick(now);
            hc.port(0).r.pop_ready(now);
        }
    }

    #[test]
    fn integrity_monitor_fires_once_past_the_threshold() {
        use axi::types::Resp;

        let (mut hv, mut hc) = hypervisor(2);
        hv.set_integrity_policy(PortId(0), IntegrityPolicy { errors_allowed: 1 })
            .unwrap();
        // One error: within tolerance.
        run_errored_read(&mut hc, Resp::SlvErr);
        assert!(hv.poll_integrity().unwrap().is_empty());
        // Second error crosses the threshold and latches.
        run_errored_read(&mut hc, Resp::SlvErr);
        let events = hv.poll_integrity().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].port, PortId(0));
        assert_eq!(events[0].err_total, 2);
        assert_eq!(events[0].errors_allowed, 1);
        assert_eq!(hv.integrity_log().len(), 1);
        assert_eq!(hv.integrity_log().dropped(), 0);
        // Latched: more errors do not re-fire until re-armed.
        run_errored_read(&mut hc, Resp::SlvErr);
        assert!(hv.poll_integrity().unwrap().is_empty());
        // Re-arming rebases at the current count.
        hv.set_integrity_policy(PortId(0), IntegrityPolicy { errors_allowed: 1 })
            .unwrap();
        assert!(hv.poll_integrity().unwrap().is_empty());
    }

    #[test]
    fn integrity_policy_rebases_on_preexisting_errors() {
        use axi::types::Resp;

        let (mut hv, mut hc) = hypervisor(2);
        // History that predates the policy must not count against it.
        run_errored_read(&mut hc, Resp::SlvErr);
        run_errored_read(&mut hc, Resp::SlvErr);
        hv.set_integrity_policy(PortId(0), IntegrityPolicy::default())
            .unwrap();
        assert!(hv.poll_integrity().unwrap().is_empty());
        // The default policy tolerates zero *new* errors.
        run_errored_read(&mut hc, Resp::SlvErr);
        assert_eq!(hv.poll_integrity().unwrap().len(), 1);
    }

    #[test]
    fn integrity_state_round_trips_through_snapshots() {
        use axi::types::Resp;
        use sim::persist::{SnapshotReader, SnapshotWriter};

        let (mut hv, mut hc) = hypervisor(2);
        hv.set_integrity_policy(PortId(0), IntegrityPolicy::default())
            .unwrap();
        run_errored_read(&mut hc, Resp::SlvErr);
        assert_eq!(hv.poll_integrity().unwrap().len(), 1);

        let mut w = SnapshotWriter::new();
        hv.save_state(&mut w);
        let bytes = w.into_bytes();

        let (mut hv2, _hc2) = hypervisor(2);
        let mut r = SnapshotReader::new(&bytes);
        hv2.restore_state(&mut r).unwrap();
        assert_eq!(hv2.integrity_log(), hv.integrity_log());
        // The latch survived the snapshot: no duplicate event.
        assert!(hv2.poll_integrity().unwrap().is_empty());

        let mut w2 = SnapshotWriter::new();
        hv2.save_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn well_behaved_port_never_decoupled() {
        let (mut hv, _hc) = hypervisor(2);
        hv.set_monitor_policy(
            PortId(1),
            MonitorPolicy {
                declared_txns_per_period: 100,
                violations_allowed: 0,
            },
        );
        for _ in 0..10 {
            assert!(hv.poll_health().unwrap().is_empty());
        }
    }

    #[test]
    fn watchdog_decouples_on_violations() {
        use axi::types::BurstSize;
        use axi::{AwBeat, AxiInterconnect, WBeat};
        use sim::Component;

        let (mut hv, mut hc) = hypervisor(2);
        hv.set_watchdog_policy(
            PortId(0),
            WatchdogPolicy {
                violations_allowed: 0,
                outstanding_allowed: None,
                stall_polls_allowed: None,
            },
        );
        // Clean device: nothing trips.
        assert!(hv.poll_watchdog().unwrap().is_empty());
        // Port 0 corrupts WLAST on a 4-beat write.
        hc.port(0)
            .aw
            .push(0, AwBeat::new(0x0, 4, BurstSize::B4))
            .unwrap();
        for i in 0..4u32 {
            hc.port(0)
                .w
                .push(0, WBeat::new(vec![0; 4], i == 1))
                .unwrap();
        }
        for now in 0..20 {
            hc.tick(now);
        }
        let events = hv.poll_watchdog().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].port, PortId(0));
        assert_eq!(events[0].reason, WatchdogReason::Violations);
        assert!(events[0].violations > 0);
        assert!(hv.hc().is_decoupled(0).unwrap());
        assert_eq!(hv.watchdog_log().len(), 1);
        // Already decoupled: no duplicate reports.
        assert!(hv.poll_watchdog().unwrap().is_empty());
    }

    #[test]
    fn watchdog_decouples_on_outstanding_cap() {
        use axi::types::BurstSize;
        use axi::{ArBeat, AxiInterconnect};
        use sim::Component;

        let (mut hv, mut hc) = hypervisor(2);
        hv.set_watchdog_policy(
            PortId(0),
            WatchdogPolicy {
                violations_allowed: u32::MAX,
                outstanding_allowed: Some(2),
                stall_polls_allowed: None,
            },
        );
        hv.hc().set_max_outstanding(0, 64).unwrap();
        // A long read issues many subs; no data returns, so the
        // in-flight count climbs past the declared cap.
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 256, BurstSize::B4))
            .unwrap();
        for now in 0..40 {
            hc.tick(now);
            while hc.mem_port().ar.pop_ready(now).is_some() {}
        }
        let events = hv.poll_watchdog().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].reason, WatchdogReason::Outstanding);
        assert!(events[0].outstanding > 2);
        assert!(hv.hc().is_decoupled(0).unwrap());
    }

    #[test]
    fn recouple_clears_watchdog_state() {
        let (mut hv, _hc) = hypervisor(2);
        hv.set_watchdog_policy(
            PortId(1),
            WatchdogPolicy {
                violations_allowed: 5,
                outstanding_allowed: Some(8),
                stall_polls_allowed: None,
            },
        );
        assert!(hv.poll_watchdog().unwrap().is_empty());
        hv.recouple(PortId(1)).unwrap();
        assert!(hv.poll_watchdog().unwrap().is_empty());
    }

    #[test]
    fn watchdog_detects_forward_progress_stall() {
        use axi::types::BurstSize;
        use axi::{AwBeat, AxiInterconnect};
        use sim::Component;

        let (mut hv, mut hc) = hypervisor(2);
        hv.set_watchdog_policy(
            PortId(0),
            WatchdogPolicy {
                stall_polls_allowed: Some(2),
                ..WatchdogPolicy::default()
            },
        );
        // A stuck-valid writer: posts an address, never drives data, so
        // the staged sub-transaction sits with frozen counters.
        hc.port(0)
            .aw
            .push(0, AwBeat::new(0x0, 4, BurstSize::B4))
            .unwrap();
        for now in 0..20 {
            hc.tick(now);
        }
        // Poll 1 records the fingerprint; polls 2-3 count frozen ones.
        for _ in 0..3 {
            assert!(hv.poll_watchdog().unwrap().is_empty());
        }
        let events = hv.poll_watchdog().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].reason, WatchdogReason::Stalled);
        assert!(events[0].outstanding > 0);
        assert!(hv.hc().is_decoupled(0).unwrap());
    }

    #[test]
    fn device_level_recouple_rearms_health_monitor() {
        use axi::types::BurstSize;
        use axi::{ArBeat, AxiInterconnect};
        use sim::Component;

        let (mut hv, mut hc) = hypervisor(2);
        hv.set_monitor_policy(
            PortId(0),
            MonitorPolicy {
                declared_txns_per_period: 10,
                violations_allowed: 1,
            },
        );
        hv.hc().set_max_outstanding(0, 64).unwrap();
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 256, BurstSize::B4))
            .unwrap();
        for now in 0..80 {
            hc.tick(now);
            while hc.mem_port().ar.pop_ready(now).is_some() {}
        }
        assert!(hv.poll_health().unwrap().is_empty());
        assert_eq!(hv.poll_health().unwrap().len(), 1);
        assert!(hv.hc().is_decoupled(0).unwrap());
        // Recouple directly at the device, bypassing
        // Hypervisor::recouple — the monitor state is now stale.
        hv.hc().set_decoupled(0, false).unwrap();
        // The next poll re-arms instead of skipping the port forever,
        // so the still-violating counter decouples it again after the
        // usual tolerance.
        assert!(hv.poll_health().unwrap().is_empty());
        let events = hv.poll_health().unwrap();
        assert_eq!(events.len(), 1);
        assert!(hv.hc().is_decoupled(0).unwrap());
        assert_eq!(hv.decouple_log().len(), 2);
    }

    #[test]
    fn device_level_recouple_rearms_watchdog_with_baseline() {
        use axi::types::BurstSize;
        use axi::{AwBeat, AxiInterconnect, WBeat};
        use sim::Component;

        let (mut hv, mut hc) = hypervisor(2);
        hv.set_watchdog_policy(
            PortId(0),
            WatchdogPolicy {
                violations_allowed: 0,
                ..WatchdogPolicy::default()
            },
        );
        hc.port(0)
            .aw
            .push(0, AwBeat::new(0x0, 4, BurstSize::B4))
            .unwrap();
        for i in 0..4u32 {
            hc.port(0)
                .w
                .push(0, WBeat::new(vec![0; 4], i == 1))
                .unwrap();
        }
        for now in 0..20 {
            hc.tick(now);
        }
        assert_eq!(hv.poll_watchdog().unwrap().len(), 1);
        // Device-level recouple: the watchdog re-arms with the
        // cumulative violation counter rebased, so the old history does
        // not instantly re-trip it.
        hv.hc().set_decoupled(0, false).unwrap();
        assert!(hv.poll_watchdog().unwrap().is_empty());
        assert!(!hv.hc().is_decoupled(0).unwrap());
    }

    #[test]
    fn watchdog_log_is_bounded() {
        use axi::types::BurstSize;
        use axi::{ArBeat, AxiInterconnect};
        use sim::Component;

        let (mut hv, mut hc) = hypervisor(2);
        hv.set_watchdog_policy(
            PortId(0),
            WatchdogPolicy {
                outstanding_allowed: Some(0),
                ..WatchdogPolicy::default()
            },
        );
        hv.hc().set_max_outstanding(0, 64).unwrap();
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 256, BurstSize::B4))
            .unwrap();
        for now in 0..40 {
            hc.tick(now);
            while hc.mem_port().ar.pop_ready(now).is_some() {}
        }
        // The outstanding count stays over the cap, so every
        // poll/recouple round logs one more event.
        for _ in 0..(HEALTH_LOG_CAPACITY + 10) {
            assert_eq!(hv.poll_watchdog().unwrap().len(), 1);
            hv.recouple(PortId(0)).unwrap();
        }
        assert_eq!(hv.watchdog_log().len(), HEALTH_LOG_CAPACITY);
        assert_eq!(hv.watchdog_log().dropped(), 10);
        assert_eq!(hv.decouple_log().dropped(), 0);
    }

    #[test]
    fn health_log_evicts_oldest_first_and_round_trips() {
        use sim::persist::{PersistError, PersistValue, SnapshotReader, SnapshotWriter};

        let mut log = HealthLog::default();
        for i in 0..HEALTH_LOG_CAPACITY as u64 + 44 {
            log.push(i);
        }
        assert_eq!((log.len(), log.dropped()), (HEALTH_LOG_CAPACITY, 44));
        assert_eq!(log.get(0), Some(&44));
        assert_eq!(log.iter().last(), Some(&(HEALTH_LOG_CAPACITY as u64 + 43)));

        let mut w = SnapshotWriter::new();
        log.save_value(&mut w);
        let bytes = w.into_bytes();
        let back = HealthLog::<u64>::load_value(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(back, log);

        let mut over = SnapshotWriter::new();
        (HEALTH_LOG_CAPACITY + 1).save_value(&mut over);
        for e in log.iter().chain([&0]) {
            e.save_value(&mut over);
        }
        0u64.save_value(&mut over);
        let over = over.into_bytes();
        assert_eq!(
            HealthLog::<u64>::load_value(&mut SnapshotReader::new(&over)).err(),
            Some(PersistError::Corrupt("health log over capacity"))
        );
    }

    #[test]
    fn recovery_throttles_suspect_ports_then_escalates() {
        use axi::types::BurstSize;
        use axi::{ArBeat, AxiInterconnect};
        use sim::Component;

        let (mut hv, mut hc) = hypervisor(2);
        // High tolerance: the monitor signals violations but does not
        // decouple on its own, leaving escalation to poll_recovery.
        hv.set_monitor_policy(
            PortId(0),
            MonitorPolicy {
                declared_txns_per_period: 10,
                violations_allowed: 100,
            },
        );
        hv.set_recovery_policy(
            PortId(0),
            RecoveryPolicy {
                suspect_polls: 1,
                ..RecoveryPolicy::default()
            },
        );
        hv.hc().set_budget(0, 500).unwrap();
        hv.hc().set_max_outstanding(0, 64).unwrap();
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 256, BurstSize::B4))
            .unwrap();
        for now in 0..80 {
            hc.tick(now);
            while hc.mem_port().ar.pop_ready(now).is_some() {}
        }
        // Poll 1: violation signal -> Suspect with throttled budget.
        let t = hv.poll_recovery().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].from, RecoveryState::Healthy);
        assert_eq!(t[0].to, RecoveryState::Suspect);
        assert_eq!(hv.hc().budget(0).unwrap(), 1);
        // Poll 2: still violating, within suspect tolerance.
        assert!(hv.poll_recovery().unwrap().is_empty());
        assert_eq!(hv.recovery_state(PortId(0)), Some(RecoveryState::Suspect));
        // Poll 3: escalate to a drain; the budget is restored first.
        let t = hv.poll_recovery().unwrap();
        assert_eq!(t[0].to, RecoveryState::Draining);
        assert_eq!(hv.hc().budget(0).unwrap(), 500);
    }

    #[test]
    fn recovery_walks_drain_reset_reattach_to_healthy() {
        use axi::types::BurstSize;
        use axi::{AwBeat, AxiInterconnect};
        use sim::Component;

        let (mut hv, mut hc) = hypervisor(2);
        hv.set_watchdog_policy(
            PortId(0),
            WatchdogPolicy {
                stall_polls_allowed: Some(0),
                ..WatchdogPolicy::default()
            },
        );
        hv.set_recovery_policy(
            PortId(0),
            RecoveryPolicy {
                reset_polls: 1,
                probation_polls: 2,
                backoff_base: 0,
                backoff_cap: 0,
                ..RecoveryPolicy::default()
            },
        );
        // Stuck-valid writer: the staged AW never gets its data.
        hc.port(0)
            .aw
            .push(0, AwBeat::new(0x0, 4, BurstSize::B4))
            .unwrap();
        for now in 0..20 {
            hc.tick(now);
        }
        // Poll 1 records the progress fingerprint.
        assert!(hv.poll_recovery().unwrap().is_empty());
        // Poll 2: frozen counters with outstanding work -> stall ->
        // the port decouples and a drain starts.
        let t = hv.poll_recovery().unwrap();
        assert_eq!(t[0].from, RecoveryState::Healthy);
        assert_eq!(t[0].to, RecoveryState::Draining);
        assert_eq!(
            hv.watchdog_log().get(0).map(|e| e.reason),
            Some(WatchdogReason::Stalled)
        );
        // The watchdog decoupled the port, so the granted-but-starved
        // write completes through firewall-beat synthesis (memory side
        // serviced below). The accelerator still owes the TS its W
        // beats, though, so the drain can only finish when the
        // deadline blows and force-flushes that dead bookkeeping — no
        // staged sub-transactions are dropped in the process.
        let mut pending_b = 0u32;
        for now in 20..4000 {
            hc.tick(now);
            while hc.mem_port().aw.pop_ready(now).is_some() {}
            while let Some(w) = hc.mem_port().w.pop_ready(now) {
                if w.last {
                    pending_b += 1;
                }
            }
            while pending_b > 0 {
                hc.mem_port()
                    .b
                    .push(now, axi::BBeat::new(axi::types::AxiId(0)))
                    .unwrap();
                pending_b -= 1;
            }
        }
        let t = hv.poll_recovery().unwrap();
        assert_eq!(t[0].to, RecoveryState::Decoupled);
        assert_eq!(t[0].dropped_txns, 0);
        // Zero backoff: the next poll issues the reset.
        assert_eq!(hv.poll_recovery().unwrap()[0].to, RecoveryState::Resetting);
        // Reset done: reattach into probation, recoupled.
        let t = hv.poll_recovery().unwrap();
        assert_eq!(t[0].to, RecoveryState::Probation);
        assert!(!hv.hc().is_decoupled(0).unwrap());
        // Two clean polls bring it back to healthy.
        assert!(hv.poll_recovery().unwrap().is_empty());
        let t = hv.poll_recovery().unwrap();
        assert_eq!(t[0].to, RecoveryState::Healthy);
        assert_eq!(hv.recovery_state(PortId(0)), Some(RecoveryState::Healthy));
        assert_eq!(failed_recoveries(&hv, PortId(0)), 0);
        assert_eq!(hv.recovery_log().len(), 5);
    }

    #[test]
    fn repeated_failures_quarantine_the_port() {
        use axi::types::BurstSize;
        use axi::{AwBeat, AxiInterconnect};
        use sim::Component;

        let (mut hv, mut hc) = hypervisor(2);
        hv.set_watchdog_policy(
            PortId(0),
            WatchdogPolicy {
                stall_polls_allowed: Some(0),
                ..WatchdogPolicy::default()
            },
        );
        hv.set_recovery_policy(
            PortId(0),
            RecoveryPolicy {
                reset_polls: 1,
                probation_polls: 4,
                backoff_base: 0,
                backoff_cap: 0,
                max_recoveries: 1,
                ..RecoveryPolicy::default()
            },
        );
        hc.port(0)
            .aw
            .push(0, AwBeat::new(0x0, 4, BurstSize::B4))
            .unwrap();
        for now in 0..20 {
            hc.tick(now);
        }
        assert!(hv.poll_recovery().unwrap().is_empty());
        assert_eq!(hv.poll_recovery().unwrap()[0].to, RecoveryState::Draining);
        for now in 20..4000 {
            hc.tick(now);
        }
        assert_eq!(hv.poll_recovery().unwrap()[0].to, RecoveryState::Decoupled);
        assert_eq!(hv.poll_recovery().unwrap()[0].to, RecoveryState::Resetting);
        assert_eq!(hv.poll_recovery().unwrap()[0].to, RecoveryState::Probation);
        // The accelerator comes back still broken: it stalls again
        // during probation.
        hc.port(0)
            .aw
            .push(0, AwBeat::new(0x0, 4, BurstSize::B4))
            .unwrap();
        for now in 4000..4020 {
            hc.tick(now);
        }
        assert!(hv.poll_recovery().unwrap().is_empty());
        let t = hv.poll_recovery().unwrap();
        assert_eq!(t[0].from, RecoveryState::Probation);
        assert_eq!(t[0].to, RecoveryState::Quarantined);
        assert!(hv.hc().is_decoupled(0).unwrap());
        assert_eq!(failed_recoveries(&hv, PortId(0)), 1);
        // Terminal state: nothing moves the port again.
        assert!(hv.poll_recovery().unwrap().is_empty());
        assert_eq!(
            hv.recovery_state(PortId(0)),
            Some(RecoveryState::Quarantined)
        );
    }

    #[test]
    fn snapshot_roundtrip_preserves_all_health_state() {
        use axi::types::BurstSize;
        use axi::{ArBeat, AxiInterconnect};
        use sim::persist::{SnapshotReader, SnapshotWriter};
        use sim::Component;

        let (mut hv, mut hc) = hypervisor(2);
        let crit = hv.create_domain("vision", Criticality::Safety);
        let best = hv.create_domain("logging", Criticality::BestEffort);
        hv.assign_port(crit, PortId(0)).unwrap();
        hv.assign_port(best, PortId(1)).unwrap();
        hv.route_irq(PortId(0)).unwrap();
        hv.set_monitor_policy(
            PortId(0),
            MonitorPolicy {
                declared_txns_per_period: 10,
                violations_allowed: 100,
            },
        );
        hv.set_watchdog_policy(
            PortId(0),
            WatchdogPolicy {
                violations_allowed: 3,
                outstanding_allowed: Some(40),
                stall_polls_allowed: Some(5),
            },
        );
        hv.set_recovery_policy(
            PortId(0),
            RecoveryPolicy {
                suspect_polls: 5,
                ..RecoveryPolicy::default()
            },
        );
        hv.hc().set_max_outstanding(0, 64).unwrap();
        hc.port(0)
            .ar
            .push(0, ArBeat::new(0, 256, BurstSize::B4))
            .unwrap();
        for now in 0..80 {
            hc.tick(now);
            while hc.mem_port().ar.pop_ready(now).is_some() {}
        }
        // Two recovery polls: port 0 goes Suspect with accumulated
        // violation counts, a throttled budget and a saved one.
        hv.poll_recovery().unwrap();
        hv.poll_recovery().unwrap();
        assert_eq!(hv.recovery_state(PortId(0)), Some(RecoveryState::Suspect));

        let mut w = SnapshotWriter::new();
        hv.save_state(&mut w);
        let bytes = w.into_bytes();

        // Restore into a hypervisor with none of that state.
        let (mut fresh, _hc2) = hypervisor(2);
        fresh
            .restore_state(&mut SnapshotReader::new(&bytes))
            .unwrap();
        assert_eq!(fresh.domains().len(), 2);
        assert_eq!(fresh.owner_of(PortId(0)), Some(crit));
        assert_eq!(fresh.domain(crit).unwrap().total_irqs(), 1);
        assert_eq!(
            fresh.recovery_state(PortId(0)),
            Some(RecoveryState::Suspect)
        );

        let mut w2 = SnapshotWriter::new();
        fresh.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "re-saved snapshot must match");
    }

    #[test]
    fn integrity_flag_rejects_non_bool_bytes() {
        use sim::persist::{PersistError, PersistValue, SnapshotReader};

        // `errors_baseline` (u32), then the `flagged` byte.
        let image = |flag: u8| {
            let mut bytes = 7u32.to_le_bytes().to_vec();
            bytes.push(flag);
            bytes
        };
        for (flag, flagged) in [(0u8, false), (1, true)] {
            let state = IntegrityState::load_value(&mut SnapshotReader::new(&image(flag))).unwrap();
            assert_eq!((state.errors_baseline, state.flagged), (7, flagged));
        }
        for flag in [0x02u8, 0xFF] {
            assert_eq!(
                IntegrityState::load_value(&mut SnapshotReader::new(&image(flag))).err(),
                Some(PersistError::Corrupt("bool")),
                "flag byte {flag:#04x} must not decode as true"
            );
        }
    }

    #[test]
    fn restore_rejects_truncated_stream() {
        use sim::persist::{SnapshotReader, SnapshotWriter};

        let (mut hv, _hc) = hypervisor(2);
        hv.create_domain("x", Criticality::Mission);
        let mut w = SnapshotWriter::new();
        hv.save_state(&mut w);
        let bytes = w.into_bytes();
        let before_domains = hv.domains().len();
        let err = hv.restore_state(&mut SnapshotReader::new(&bytes[..bytes.len() - 4]));
        assert!(err.is_err());
        // Decode-before-apply: the failed restore left state untouched.
        assert_eq!(hv.domains().len(), before_domains);
    }

    #[test]
    fn error_display() {
        assert!(HvError::PortTaken(PortId(1)).to_string().contains("port1"));
        assert!(HvError::UnknownDomain(DomainId(3))
            .to_string()
            .contains("dom3"));
    }
}
