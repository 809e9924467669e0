//! The snapshot-forking chaos campaign service.
//!
//! The classic chaos runner ([`crate::chaos`]) cold-starts every
//! scenario from cycle 0, which means N seeded variants of the same
//! base scenario re-simulate the identical fault-free warm-up N times.
//! This module turns that engine into a *forking campaign service* built
//! on the [`sim::persist`] snapshot layer:
//!
//! 1. **Warm once** — the base scenario (shape, victims, fault kind —
//!    all derived from the base seed) is built with its fault wrapped in
//!    a dormant [`ha::fault::DelayedFault`] and simulated fault-free to
//!    the warm cycle, then captured as one in-memory
//!    `hcsim-snapshot/v1` image.
//! 2. **Fork N variants** — a `std::thread` pool rebuilds the identical
//!    system per variant, restores the warm image (byte-exact, so every
//!    fork observes the same pre-injection world), and runs to the end
//!    with the variant's own seed-derived injection cycle, hypervisor
//!    poll cadence and recovery policy.
//! 3. **Stream progress** — each warm/fork/bisect step is reported
//!    through a caller-supplied callback as it completes (the `hcsim
//!    campaign` subcommand prints one line per event).
//! 4. **Aggregate** — the report serializes to the
//!    `axi-hyperconnect/chaos-campaign/v1` summary (mode `"forked"`,
//!    per-run `rng_position`, injection cycle and wall time) plus a
//!    separate `campaign-metrics/v1` document.
//! 5. **Auto-bisect failures** — any variant that violates a campaign
//!    invariant is binary-searched against its own fault-free baseline
//!    (same build, fault never armed) for the first cycle at which the
//!    two snapshot byte streams diverge: the exact cycle the fault
//!    first perturbed architectural state.
//!
//! Forking is *sound*, not merely fast: [`run_variant_cold`] replays any
//! variant from cycle 0 and must produce a byte-identical
//! [`crate::chaos::ChaosOutcome::fingerprint`] — the campaign tests
//! gate on exactly that equivalence.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use axi::lite::LiteBus;
use axi::types::{BurstSize, PortId};
use axi::AxiInterconnect;
use ha::fault::DelayedFault;
use ha::traffic::PeriodicReader;
use hyperconnect::analysis::ServiceModel;
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::{Hypervisor, RecoveryPolicy, RecoveryState};
use mem::{MemConfig, MemoryController};
use sim::{Cycle, SimRng};

use crate::chaos::{
    arm_hypervisor, derive_scenario, fault_model, flush_port_queues, ChaosOutcome, Scenario,
    TransitionRecord, DECODE_LIMIT, HC_BASE, PERIOD, POLL_CHOICES,
};
use crate::{SchedulerMode, SocSystem};

/// An arm cycle no run ever reaches: the fault-free baseline used for
/// warming and bisection. Kept far below `u64::MAX` so event-horizon
/// arithmetic can never overflow.
const NEVER: Cycle = 1 << 60;

/// Configuration of one forking campaign.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Base seed: derives the scenario *shape* (ports, fault port,
    /// fault kind, permanence, victim cadences) every variant shares —
    /// the shape must be common or the forks could not share one warm
    /// snapshot.
    pub base_seed: u64,
    /// Number of seeded variants to fork from the warm snapshot.
    pub variants: usize,
    /// Cycle the warm phase runs to before the snapshot is taken; every
    /// variant injects its fault at or after this cycle.
    pub warm_cycles: Cycle,
    /// Total cycles each variant simulates (from cycle 0).
    pub cycles: Cycle,
    /// Worker threads the fork pool uses.
    pub workers: usize,
    /// Scheduler every run uses. Snapshots exclude scheduler artifacts,
    /// so the warm image restores under any mode.
    pub scheduler: SchedulerMode,
    /// Whether invariant failures are auto-bisected to the first cycle
    /// their state diverges from the fault-free baseline.
    pub bisect: bool,
}

impl CampaignConfig {
    /// A campaign for `base_seed` with the default shape: 8 variants,
    /// 2 000 warm cycles, the chaos engine's 60 000-cycle budget, two
    /// workers, fast-forward scheduling, bisection on.
    pub fn new(base_seed: u64) -> Self {
        Self {
            base_seed,
            variants: 8,
            warm_cycles: 2_000,
            cycles: 60_000,
            workers: 2,
            scheduler: SchedulerMode::FastForward,
            bisect: true,
        }
    }

    /// Overrides the variant count.
    pub fn variants(mut self, n: usize) -> Self {
        self.variants = n;
        self
    }

    /// Overrides the warm cycle.
    pub fn warm_cycles(mut self, warm: Cycle) -> Self {
        self.warm_cycles = warm;
        self
    }

    /// Overrides the total cycle budget.
    pub fn cycles(mut self, cycles: Cycle) -> Self {
        self.cycles = cycles.max(self.warm_cycles + 1);
        self
    }

    /// Overrides the fork-pool worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the scheduler mode.
    pub fn scheduler(mut self, mode: SchedulerMode) -> Self {
        self.scheduler = mode;
        self
    }

    /// Enables or disables failure bisection.
    pub fn bisect(mut self, on: bool) -> Self {
        self.bisect = on;
        self
    }
}

/// The deterministic seed of variant `index` within a campaign — a
/// SplitMix64-style mix of the base seed, so neighbouring indices land
/// on unrelated scenario draws.
pub fn variant_seed(base_seed: u64, index: usize) -> u64 {
    let mut x = base_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Everything a variant derives from its own seed: the knobs that vary
/// *after* the fork point. The draw order is fixed (injection delay,
/// poll cadence, recovery policy) — changing it changes what every
/// variant seed means.
struct Variant {
    seed: u64,
    inject_at: Cycle,
    poll_interval: u64,
    policy: RecoveryPolicy,
    rng_position: u64,
}

fn derive_variant(seed: u64, warm: Cycle) -> Variant {
    let mut rng = SimRng::seed(seed);
    let inject_at = warm + rng.range_u64(0, 1_500);
    let poll_interval = POLL_CHOICES[rng.index(POLL_CHOICES.len())];
    // Same policy envelope as the cold chaos engine's scenarios (see
    // `chaos::derive_scenario`): probation must outlast stall
    // detection so permanently hung ports fail probation.
    let policy = RecoveryPolicy {
        throttle_budget: 1,
        suspect_polls: rng.range_u64(1, 2) as u32,
        reset_polls: rng.range_u64(1, 2) as u32,
        probation_polls: rng.range_u64(4, 6) as u32,
        backoff_base: rng.range_u64(0, 1) as u32,
        backoff_cap: 4,
        max_recoveries: rng.range_u64(2, 3) as u32,
    };
    Variant {
        seed,
        inject_at,
        poll_interval,
        policy,
        rng_position: rng.draws(),
    }
}

/// Builds the campaign system for one variant: the *shape* comes from
/// the shared base scenario (identical across every fork, so the warm
/// snapshot restores), the injection cycle and hypervisor programming
/// from the variant. Returns the system, the armed hypervisor, the
/// drain deadline and the closed-form victim bound.
fn build_variant(
    base: &Scenario,
    inject_at: Cycle,
    policy: RecoveryPolicy,
    scheduler: SchedulerMode,
) -> (SocSystem<HyperConnect>, Hypervisor, u64, u64) {
    let mut hc = HyperConnect::new(HcConfig::new(base.ports));
    let first_word = MemConfig::zcu102().first_word_latency;
    let model = ServiceModel::hyperconnect(base.ports, 16, first_word).max_outstanding(4);
    hc.set_drain_model(model);
    let drain_deadline = hc.drain_deadline();
    let victim_bound = model.worst_case_read_latency();
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let mut hv = Hypervisor::new(bus, HC_BASE).expect("valid HyperConnect regfile");
    hv.hc().set_period(PERIOD).expect("period register");
    arm_hypervisor(&mut hv, base.fault_port, policy);

    let mut sys = SocSystem::new(
        hc,
        MemoryController::new(MemConfig::zcu102().decode_limit(DECODE_LIMIT)),
    );
    sys.set_scheduler(scheduler);
    for p in 0..base.ports {
        if p == base.fault_port {
            sys.add_accelerator(Box::new(DelayedFault::new(
                fault_model(base.kind, base.permanent),
                inject_at,
            )))
            .expect("port available");
        } else {
            sys.add_accelerator(Box::new(PeriodicReader::new(
                format!("victim{p}"),
                0x1000_0000 + p as u64 * 0x0400_0000,
                1 << 20,
                16,
                BurstSize::B16,
                base.victim_periods[p],
            )))
            .expect("port available");
        }
    }
    (sys, hv, drain_deadline, victim_bound)
}

/// Advances the system to cycle `until`, polling the hypervisor's
/// recovery machine every `poll` cycles — but only from the warm cycle
/// on, so a cold replay from cycle 0 and a fork resumed at the warm
/// cycle observe the identical poll sequence. The cold flat chaos
/// campaign drives through it too, with `warm = 0`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive(
    sys: &mut SocSystem<HyperConnect>,
    hv: &mut Hypervisor,
    fault_port: usize,
    poll: u64,
    warm: Cycle,
    until: Cycle,
    transitions: &mut Vec<TransitionRecord>,
    resets: &mut u64,
) {
    let span = until.saturating_sub(sys.now());
    sys.run_polled(span, poll, |now, sys| {
        if now < warm {
            return;
        }
        for t in hv.poll_recovery().expect("AXI-Lite poll") {
            if t.to == RecoveryState::Resetting {
                // The hypervisor just commanded a port reset: pulse the
                // accelerator's reset line in the same cycle.
                sys.accelerator_mut(fault_port)
                    .expect("fault port occupied")
                    .reset();
                flush_port_queues(sys.interconnect().port(fault_port), now);
                *resets += 1;
            }
            transitions.push(TransitionRecord {
                cycle: now,
                port: t.port.0,
                from: format!("{:?}", t.from),
                to: format!("{:?}", t.to),
                dropped: t.dropped_txns,
            });
        }
    });
}

/// Collects the end-of-run record, mirroring the cold chaos engine's
/// outcome assembly so forked and cold runs are directly comparable.
#[allow(clippy::too_many_arguments)]
fn assemble_outcome(
    sys: &SocSystem<HyperConnect>,
    hv: &Hypervisor,
    base: &Scenario,
    variant: &Variant,
    drain_deadline: u64,
    victim_bound: u64,
    transitions: Vec<TransitionRecord>,
    resets: u64,
) -> ChaosOutcome {
    let mut victim_worst = 0u64;
    let mut victim_jobs = Vec::new();
    for p in 0..base.ports {
        if p == base.fault_port {
            continue;
        }
        victim_worst = victim_worst.max(sys.interconnect_ref().read_latency(p).max().unwrap_or(0));
        victim_jobs.push(sys.accelerator(p).expect("victim port").jobs_completed());
    }
    let final_state = format!(
        "{:?}",
        hv.recovery_state(PortId(base.fault_port))
            .unwrap_or(RecoveryState::Healthy)
    );
    let dropped_subs = transitions
        .iter()
        .filter(|t| t.to == "Decoupled")
        .map(|t| t.dropped)
        .sum();
    let drain_polls = (drain_deadline / variant.poll_interval) as u32 + 2;
    ChaosOutcome {
        seed: variant.seed,
        scenario: "campaign-flat",
        scheduler: sys.scheduler(),
        ports: base.ports,
        fault_port: base.fault_port,
        fault_kind: base.kind,
        permanent: base.permanent,
        poll_interval: variant.poll_interval,
        drain_deadline,
        sla_polls: variant.policy.reattach_sla_polls(drain_polls),
        transitions,
        final_state,
        resets,
        dropped_subs,
        victim_bound: Some(victim_bound),
        victim_worst,
        victim_jobs,
        end_cycle: sys.now(),
        rng_position: variant.rng_position,
    }
}

/// One finished campaign variant.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The full chaos record, comparable 1:1 with a cold replay.
    pub outcome: ChaosOutcome,
    /// Cycle the fault armed at (seed-derived, ≥ the warm cycle).
    pub inject_at: Cycle,
    /// Wall-clock milliseconds the fork spent (restore + run).
    pub wall_ms: f64,
    /// When the variant failed an invariant and bisection ran: the
    /// first cycle its snapshot bytes diverged from the fault-free
    /// baseline forked from the same warm image.
    pub first_divergence: Option<Cycle>,
}

/// A progress event streamed while a campaign runs.
#[derive(Debug, Clone)]
pub enum CampaignEvent {
    /// The shared warm phase finished and the fork image was captured.
    Warmed {
        /// Cycle the snapshot was taken at.
        cycle: Cycle,
        /// Size of the in-memory snapshot image in bytes.
        snapshot_bytes: usize,
        /// Wall-clock milliseconds of the warm simulation + save.
        wall_ms: f64,
    },
    /// One forked variant finished.
    VariantFinished {
        /// 1-based completion count (arrival order, not seed order).
        completed: usize,
        /// Total variants in the campaign.
        total: usize,
        /// The variant's seed.
        seed: u64,
        /// Cycle its fault armed at.
        inject_at: Cycle,
        /// Invariant violations (0 = verdict PASS).
        violations: usize,
        /// Wall-clock milliseconds for the fork.
        wall_ms: f64,
    },
    /// A failing variant was bisected against its fault-free baseline.
    Bisected {
        /// The variant's seed.
        seed: u64,
        /// First cycle the faulty run's snapshot differed from the
        /// baseline's, or `None` if the fault never perturbed state.
        first_divergence: Option<Cycle>,
        /// Wall-clock milliseconds the binary search spent.
        wall_ms: f64,
    },
}

/// The aggregated result of one forking campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Seed the shared scenario shape derived from.
    pub base_seed: u64,
    /// RNG position after the base-scenario derivation.
    pub base_rng_position: u64,
    /// Cycle the warm snapshot was taken at.
    pub warm_cycles: Cycle,
    /// Total cycles each variant covered.
    pub cycles: Cycle,
    /// Worker threads the fork pool used.
    pub workers: usize,
    /// Size of the warm snapshot image in bytes.
    pub snapshot_bytes: usize,
    /// Wall-clock milliseconds of the shared warm phase.
    pub warm_wall_ms: f64,
    /// Wall-clock milliseconds of the whole campaign.
    pub total_wall_ms: f64,
    /// Every variant, in seed-index order.
    pub runs: Vec<CampaignRun>,
}

impl CampaignReport {
    /// Total invariant violations across all variants.
    pub fn violations(&self) -> usize {
        self.runs
            .iter()
            .map(|r| r.outcome.invariant_violations().len())
            .sum()
    }

    /// The `axi-hyperconnect/chaos-campaign/v1` summary document —
    /// the same schema the cold chaos-smoke artifact uses, extended
    /// with the forking fields (`mode`, `warm_cycle`, per-run
    /// `inject_at`, `wall_ms` and `first_divergence`).
    pub fn summary_json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                let body = r.outcome.to_json();
                let body = body.strip_suffix('}').expect("chaos run JSON object");
                format!(
                    "{body},\"inject_at\":{},\"wall_ms\":{:.3},\"first_divergence\":{}}}",
                    r.inject_at,
                    r.wall_ms,
                    r.first_divergence
                        .map_or_else(|| "null".to_owned(), |c| c.to_string()),
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"axi-hyperconnect/chaos-campaign/v1\",\"mode\":\"forked\",\
             \"base_seed\":{},\"base_rng_position\":{},\"warm_cycle\":{},\"cycles\":{},\
             \"workers\":{},\"snapshot_bytes\":{},\"campaigns\":{},\
             \"invariant_violations\":{},\"runs\":[{}]}}",
            self.base_seed,
            self.base_rng_position,
            self.warm_cycles,
            self.cycles,
            self.workers,
            self.snapshot_bytes,
            self.runs.len(),
            self.violations(),
            runs.join(","),
        )
    }

    /// The host-side metrics document
    /// (`axi-hyperconnect/campaign-metrics/v1`): warm amortization,
    /// per-variant wall time and aggregate forked throughput.
    pub fn metrics_json(&self) -> String {
        let fork_ms: f64 = self.runs.iter().map(|r| r.wall_ms).sum();
        let sim_cycles: u64 = self
            .runs
            .iter()
            .map(|r| r.outcome.end_cycle - self.warm_cycles)
            .sum();
        let per_run: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                format!(
                    "{{\"seed\":{},\"wall_ms\":{:.3},\"end_cycle\":{},\"violations\":{}}}",
                    r.outcome.seed,
                    r.wall_ms,
                    r.outcome.end_cycle,
                    r.outcome.invariant_violations().len(),
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"axi-hyperconnect/campaign-metrics/v1\",\
             \"warm_wall_ms\":{:.3},\"warm_cycles_amortized\":{},\
             \"snapshot_bytes\":{},\"fork_wall_ms_sum\":{:.3},\
             \"total_wall_ms\":{:.3},\"forked_sim_cycles\":{},\
             \"forked_cycles_per_sec\":{:.0},\"workers\":{},\"runs\":[{}]}}",
            self.warm_wall_ms,
            self.warm_cycles * self.runs.len() as u64,
            self.snapshot_bytes,
            fork_ms,
            self.total_wall_ms,
            sim_cycles,
            sim_cycles as f64 / (self.total_wall_ms / 1e3).max(1e-9),
            self.workers,
            per_run.join(","),
        )
    }
}

/// Snapshot bytes of the variant's world at exactly cycle `k`, obtained
/// by restoring the warm image and replaying forward. Deterministic:
/// the same `(base, inject_at, variant knobs, k)` always produces the
/// same bytes.
fn state_at(
    cfg: &CampaignConfig,
    base: &Scenario,
    variant: &Variant,
    inject_at: Cycle,
    warm_bytes: &[u8],
    k: Cycle,
) -> Vec<u8> {
    let (mut sys, mut hv, _, _) = build_variant(base, inject_at, variant.policy, cfg.scheduler);
    sys.restore_snapshot_bytes(warm_bytes)
        .expect("warm snapshot restores into identically-built system");
    let mut transitions = Vec::new();
    let mut resets = 0u64;
    drive(
        &mut sys,
        &mut hv,
        base.fault_port,
        variant.poll_interval,
        cfg.warm_cycles,
        k,
        &mut transitions,
        &mut resets,
    );
    sys.snapshot_bytes()
}

/// Binary-searches the first cycle at which the faulty variant's
/// snapshot bytes differ from its fault-free baseline (identical build,
/// fault never armed, same hypervisor cadence), both forked from the
/// same warm image.
///
/// Divergence is monotone once the fault has perturbed state — the
/// per-port transaction counters in the HyperConnect register file
/// never reconverge — so bisection is sound. Returns `None` if even the
/// final states match (the fault never had an observable effect).
fn bisect_first_divergence(
    cfg: &CampaignConfig,
    base: &Scenario,
    variant: &Variant,
    warm_bytes: &[u8],
) -> Option<Cycle> {
    let faulty_end = state_at(
        cfg,
        base,
        variant,
        variant.inject_at,
        warm_bytes,
        cfg.cycles,
    );
    let clean_end = state_at(cfg, base, variant, NEVER, warm_bytes, cfg.cycles);
    if faulty_end == clean_end {
        return None;
    }
    // Invariant: states match at `lo`, differ at `hi`.
    let mut lo = variant.inject_at;
    let mut hi = cfg.cycles;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let faulty = state_at(cfg, base, variant, variant.inject_at, warm_bytes, mid);
        let clean = state_at(cfg, base, variant, NEVER, warm_bytes, mid);
        if faulty == clean {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

/// Warms the campaign's base scenario and bisects one variant against
/// its fault-free baseline, regardless of verdict: the first cycle the
/// variant's snapshot bytes diverge from a world where the fault never
/// arms. `None` means the fault had no observable architectural effect
/// within the cycle budget.
pub fn bisect_variant(cfg: &CampaignConfig, seed: u64) -> Option<Cycle> {
    let base = derive_scenario(cfg.base_seed, 3, 4);
    let variant = derive_variant(seed, cfg.warm_cycles);
    let (mut warm_sys, _hv, _, _) = build_variant(&base, NEVER, variant.policy, cfg.scheduler);
    warm_sys.run_for(cfg.warm_cycles);
    let warm_bytes = warm_sys.snapshot_bytes();
    bisect_first_divergence(cfg, &base, &variant, &warm_bytes)
}

/// Forks one variant from the warm image and runs it to the end.
fn run_variant_forked(
    cfg: &CampaignConfig,
    base: &Scenario,
    seed: u64,
    warm_bytes: &[u8],
) -> CampaignRun {
    let variant = derive_variant(seed, cfg.warm_cycles);
    let t0 = Instant::now();
    let (mut sys, mut hv, drain_deadline, bound) =
        build_variant(base, variant.inject_at, variant.policy, cfg.scheduler);
    sys.restore_snapshot_bytes(warm_bytes)
        .expect("warm snapshot restores into identically-built variant");
    let mut transitions = Vec::new();
    let mut resets = 0u64;
    drive(
        &mut sys,
        &mut hv,
        base.fault_port,
        variant.poll_interval,
        cfg.warm_cycles,
        cfg.cycles,
        &mut transitions,
        &mut resets,
    );
    let outcome = assemble_outcome(
        &sys,
        &hv,
        base,
        &variant,
        drain_deadline,
        bound,
        transitions,
        resets,
    );
    CampaignRun {
        inject_at: variant.inject_at,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        first_divergence: None,
        outcome,
    }
}

/// Cold-starts one campaign variant from cycle 0 — no snapshot, no
/// fork — and runs it under the exact same protocol (polls gated to the
/// warm cycle). This is the soundness oracle for the forking service:
/// its [`ChaosOutcome::fingerprint`] must be byte-identical to the
/// forked run of the same seed.
pub fn run_variant_cold(cfg: &CampaignConfig, seed: u64) -> CampaignRun {
    let base = derive_scenario(cfg.base_seed, 3, 4);
    let variant = derive_variant(seed, cfg.warm_cycles);
    let t0 = Instant::now();
    let (mut sys, mut hv, drain_deadline, bound) =
        build_variant(&base, variant.inject_at, variant.policy, cfg.scheduler);
    let mut transitions = Vec::new();
    let mut resets = 0u64;
    drive(
        &mut sys,
        &mut hv,
        base.fault_port,
        variant.poll_interval,
        cfg.warm_cycles,
        cfg.cycles,
        &mut transitions,
        &mut resets,
    );
    let outcome = assemble_outcome(
        &sys,
        &hv,
        &base,
        &variant,
        drain_deadline,
        bound,
        transitions,
        resets,
    );
    CampaignRun {
        inject_at: variant.inject_at,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        first_divergence: None,
        outcome,
    }
}

/// Runs a full forking campaign: warm once, fork every variant across
/// the worker pool, stream progress through `progress`, bisect
/// failures, aggregate the report.
pub fn run_campaign(
    cfg: &CampaignConfig,
    mut progress: impl FnMut(CampaignEvent),
) -> CampaignReport {
    let campaign_t0 = Instant::now();
    let base = derive_scenario(cfg.base_seed, 3, 4);

    // Phase 1: the shared fault-free warm phase, simulated exactly once.
    let warm_t0 = Instant::now();
    let (mut warm_sys, _warm_hv, _, _) = build_variant(
        &base,
        NEVER,
        derive_variant(cfg.base_seed, cfg.warm_cycles).policy,
        cfg.scheduler,
    );
    warm_sys.run_for(cfg.warm_cycles);
    let warm_bytes = warm_sys.snapshot_bytes();
    let warm_wall_ms = warm_t0.elapsed().as_secs_f64() * 1e3;
    progress(CampaignEvent::Warmed {
        cycle: cfg.warm_cycles,
        snapshot_bytes: warm_bytes.len(),
        wall_ms: warm_wall_ms,
    });

    // Phase 2: fork the variants across the pool, streaming completion
    // events back to this thread as they happen.
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<CampaignRun>>> =
        Mutex::new((0..cfg.variants).map(|_| None).collect());
    let (tx, rx) = mpsc::channel::<CampaignEvent>();
    let workers = cfg.workers.max(1).min(cfg.variants.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let completed = &completed;
            let results = &results;
            let base = &base;
            let warm_bytes = &warm_bytes;
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= cfg.variants {
                    return;
                }
                let seed = variant_seed(cfg.base_seed, index);
                let mut run = run_variant_forked(cfg, base, seed, warm_bytes);
                let violations = run.outcome.invariant_violations().len();
                let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                let _ = tx.send(CampaignEvent::VariantFinished {
                    completed: done,
                    total: cfg.variants,
                    seed,
                    inject_at: run.inject_at,
                    violations,
                    wall_ms: run.wall_ms,
                });
                if violations > 0 && cfg.bisect {
                    let bisect_t0 = Instant::now();
                    let variant = derive_variant(seed, cfg.warm_cycles);
                    run.first_divergence = bisect_first_divergence(cfg, base, &variant, warm_bytes);
                    let _ = tx.send(CampaignEvent::Bisected {
                        seed,
                        first_divergence: run.first_divergence,
                        wall_ms: bisect_t0.elapsed().as_secs_f64() * 1e3,
                    });
                }
                results.lock().expect("no poisoned forks")[index] = Some(run);
            });
        }
        drop(tx);
        // Stream events on the caller's thread until every worker hangs
        // up its sender.
        while let Ok(event) = rx.recv() {
            progress(event);
        }
    });

    let runs: Vec<CampaignRun> = results
        .into_inner()
        .expect("no poisoned forks")
        .into_iter()
        .map(|r| r.expect("every variant ran"))
        .collect();
    CampaignReport {
        base_seed: cfg.base_seed,
        base_rng_position: base.rng_position,
        warm_cycles: cfg.warm_cycles,
        cycles: cfg.cycles,
        workers,
        snapshot_bytes: warm_bytes.len(),
        warm_wall_ms,
        total_wall_ms: campaign_t0.elapsed().as_secs_f64() * 1e3,
        runs,
    }
}
