//! The snapshot-forking chaos campaign service.
//!
//! The chaos runner ([`crate::chaos::run`]) cold-starts every scenario
//! from cycle 0, which means N seeded variants of the same base
//! scenario re-simulate the identical fault-free warm-up N times. This
//! module forks the flat recovery family instead, on the
//! [`sim::persist`] snapshot layer. It adds no runner of its own: every
//! run, warm or forked or cold, is the recovery family's build, poll and
//! judge, and differs only in the warm image it restores (if any) and
//! the cycle its fault arms at.
//!
//! 1. **Warm once** — the base scenario (ports, victims, fault kind —
//!    all derived from the base seed) is built with its fault dormant
//!    ([`ha::fault::DelayedFault`] never armed) and simulated to the
//!    warm cycle, then captured as one in-memory `hcsim-snapshot/v1`
//!    image.
//! 2. **Fork N variants** — a `std::thread` pool rebuilds the identical
//!    world per variant, restores the warm image (byte-exact, so every
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
//!    invariant is searched against its own fault-free baseline (same
//!    build, fault never armed) for the first cycle at which the two
//!    snapshot byte streams diverge: the exact cycle the fault first
//!    perturbed architectural state. The pair runs in lockstep over
//!    doubling checkpoints, so the search costs what the divergence
//!    distance costs, not the cycle budget.
//!
//! Forking is *sound*, not merely fast: [`run_variant_cold`] replays any
//! variant from cycle 0 and must produce a byte-identical
//! [`crate::chaos::Outcome::fingerprint`] — the campaign tests gate on
//! exactly that equivalence. Only the recovery family forks so far:
//! forking another family needs a per-family variant draw.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use sim::{Cycle, SimRng};

use crate::chaos::{
    derive_scenario, json_opt, recovery_policy, Outcome, RecoveryDraw, Shape, World, POLL_CHOICES,
};
use crate::SchedulerMode;

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
    /// Total cycles each variant simulates (from cycle 0); always past
    /// `warm_cycles`, whichever builder call came last.
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

    /// Overrides the warm cycle, raising the cycle budget past it when
    /// needed.
    pub fn warm_cycles(mut self, warm: Cycle) -> Self {
        self.warm_cycles = warm;
        self.cycles = self.cycles.max(warm + 1);
        self
    }

    /// Overrides the total cycle budget (at least one cycle past the
    /// warm cycle).
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
    inject_at: Cycle,
    /// The base scenario with this variant's poll cadence and recovery
    /// policy.
    draw: RecoveryDraw,
}

fn derive_variant(base: &RecoveryDraw, seed: u64, warm: Cycle) -> Variant {
    let mut rng = SimRng::seed(seed);
    let inject_at = warm + rng.range_u64(0, 1_500);
    let poll_interval = POLL_CHOICES[rng.index(POLL_CHOICES.len())];
    // Same policy envelope as the cold chaos scenarios.
    let policy = recovery_policy(&mut rng);
    Variant {
        inject_at,
        draw: RecoveryDraw {
            poll_interval,
            policy,
            rng_position: rng.draws(),
            ..base.clone()
        },
    }
}

/// The one way a variant world starts: the flat recovery world with the
/// fault armed at `arm_at`, restored from `warm_image` when forking
/// (`None` replays cold from cycle 0). Callers drive it with
/// `drive(cfg.warm_cycles, until)`, which gates hypervisor polls to the
/// warm cycle — so a fork and a cold replay observe the identical poll
/// sequence.
fn variant_world(
    cfg: &CampaignConfig,
    draw: &RecoveryDraw,
    arm_at: Cycle,
    warm_image: Option<&[u8]>,
) -> World {
    let mut world = draw.build(Shape::Flat, cfg.scheduler, arm_at);
    if let Some(image) = warm_image {
        world
            .topo()
            .restore_snapshot_bytes(image)
            .expect("warm snapshot restores into an identically built world");
    }
    world
}

/// Runs variant `seed` to the end, forked from `warm_image` or cold.
fn run_variant(
    cfg: &CampaignConfig,
    base: &RecoveryDraw,
    seed: u64,
    warm_image: Option<&[u8]>,
) -> CampaignRun {
    let variant = derive_variant(base, seed, cfg.warm_cycles);
    let t0 = Instant::now();
    let mut world = variant_world(cfg, &variant.draw, variant.inject_at, warm_image);
    world.drive(cfg.warm_cycles, cfg.cycles);
    CampaignRun {
        outcome: world.judge(seed, "campaign-flat", variant.draw.rng_position),
        inject_at: variant.inject_at,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        first_divergence: None,
    }
}

/// One finished campaign variant.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The full chaos record, comparable 1:1 with a cold replay.
    pub outcome: Outcome,
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
        /// Wall-clock milliseconds the search spent.
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
                    json_opt(r.first_divergence),
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

/// Snapshot bytes of the variant's world at exactly cycle `k`, with the
/// fault armed at `arm_at`: replayed forward from `warm_image`, or from
/// cycle 0 without one. Deterministic: the same inputs always produce
/// the same bytes.
fn state_at(
    cfg: &CampaignConfig,
    variant: &Variant,
    arm_at: Cycle,
    warm_image: Option<&[u8]>,
    k: Cycle,
) -> Vec<u8> {
    let mut world = variant_world(cfg, &variant.draw, arm_at, warm_image);
    world.drive(cfg.warm_cycles, k);
    world.topo().snapshot_bytes()
}

/// The shared fault-free warm image: the world with the fault never
/// armed, run to the warm cycle.
fn warm_image(cfg: &CampaignConfig, variant: &Variant) -> Vec<u8> {
    state_at(cfg, variant, NEVER, None, cfg.warm_cycles)
}

/// The first cycle at which the faulty variant's snapshot bytes differ
/// from its fault-free baseline (identical build, fault never armed,
/// same hypervisor cadence), both forked from the same warm image.
///
/// Divergence is monotone once the fault has perturbed state — the
/// per-port transaction counters in the HyperConnect register file
/// never reconverge — so the first differing cycle can be found by
/// search. The two worlds are built once and driven in lockstep to
/// checkpoints `inject_at + 1, + 2, + 4, …` ([`gallop`]); only the first
/// window whose end differs is then bisected with [`state_at`] replays.
/// The cost follows the divergence distance, not the cycle budget.
/// Returns `None` if even the final states match (the fault never had
/// an observable effect) — in particular when the fault arms at or
/// after the budget's end.
fn bisect_first_divergence(cfg: &CampaignConfig, variant: &Variant, warm: &[u8]) -> Option<Cycle> {
    if variant.inject_at >= cfg.cycles {
        return None;
    }
    let window = {
        let mut faulty = variant_world(cfg, &variant.draw, variant.inject_at, Some(warm));
        let mut clean = variant_world(cfg, &variant.draw, NEVER, Some(warm));
        gallop(variant.inject_at, cfg.cycles, |k| {
            faulty.drive(cfg.warm_cycles, k);
            clean.drive(cfg.warm_cycles, k);
            faulty.topo().snapshot_bytes() != clean.topo().snapshot_bytes()
        })
        // The lockstep pair drops here: at most two worlds live at once.
    };
    let (lo, hi) = window?;
    Some(bisect_window(lo, hi, |k| {
        state_at(cfg, variant, variant.inject_at, Some(warm), k)
            != state_at(cfg, variant, NEVER, Some(warm), k)
    }))
}

/// Probes `differs_at` at the checkpoints `from + 1, from + 2, from + 4,
/// …` (the last one capped at `end`), in increasing order, and returns
/// the first window `(lo, hi]` whose end differs: `lo` is the previous
/// checkpoint (or `from`), which matched. `None` when even `end`
/// matches.
fn gallop(
    from: Cycle,
    end: Cycle,
    mut differs_at: impl FnMut(Cycle) -> bool,
) -> Option<(Cycle, Cycle)> {
    let mut lo = from;
    let mut step = 1;
    loop {
        let k = from.saturating_add(step).min(end);
        if differs_at(k) {
            return Some((lo, k));
        }
        if k == end {
            return None;
        }
        lo = k;
        step = step.saturating_mul(2);
    }
}

/// Binary-searches `(lo, hi]` for the first cycle that differs, given
/// that `lo` matches and `hi` differs.
fn bisect_window(mut lo: Cycle, mut hi: Cycle, differs: impl Fn(Cycle) -> bool) -> Cycle {
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if differs(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Warms the campaign's base scenario and bisects one variant against
/// its fault-free baseline, regardless of verdict: the first cycle the
/// variant's snapshot bytes diverge from a world where the fault never
/// arms. `None` means the fault had no observable architectural effect
/// within the cycle budget.
pub fn bisect_variant(cfg: &CampaignConfig, seed: u64) -> Option<Cycle> {
    let base = derive_scenario(cfg.base_seed, 3, 4);
    let variant = derive_variant(&base, seed, cfg.warm_cycles);
    bisect_first_divergence(cfg, &variant, &warm_image(cfg, &variant))
}

/// Cold-starts one campaign variant from cycle 0 — no snapshot, no
/// fork — and runs it under the exact same protocol (polls gated to the
/// warm cycle). This is the soundness oracle for the forking service:
/// its [`Outcome::fingerprint`] must be byte-identical to the forked run
/// of the same seed.
pub fn run_variant_cold(cfg: &CampaignConfig, seed: u64) -> CampaignRun {
    run_variant(cfg, &derive_scenario(cfg.base_seed, 3, 4), seed, None)
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
    let warm_bytes = warm_image(cfg, &derive_variant(&base, cfg.base_seed, cfg.warm_cycles));
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
                let mut run = run_variant(cfg, base, seed, Some(warm_bytes));
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
                    let variant = derive_variant(base, seed, cfg.warm_cycles);
                    run.first_divergence = bisect_first_divergence(cfg, &variant, warm_bytes);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The search this module used before galloping: a binary search
    /// over the whole `(inject_at, cycles]` budget, every probe replayed
    /// from the warm image. Kept as the oracle the galloping search must
    /// agree with.
    fn full_budget_bisection(
        cfg: &CampaignConfig,
        variant: &Variant,
        warm: &[u8],
    ) -> Option<Cycle> {
        let differs = |k| {
            state_at(cfg, variant, variant.inject_at, Some(warm), k)
                != state_at(cfg, variant, NEVER, Some(warm), k)
        };
        if !differs(cfg.cycles) {
            return None;
        }
        let mut lo = variant.inject_at;
        let mut hi = cfg.cycles;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if differs(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    #[test]
    fn galloping_search_matches_full_budget_bisection() {
        for base_seed in 0..8 {
            let cfg = CampaignConfig::new(base_seed).cycles(12_000);
            let base = derive_scenario(base_seed, 3, 4);
            for index in 0..2 {
                let seed = variant_seed(base_seed, index);
                let variant = derive_variant(&base, seed, cfg.warm_cycles);
                let warm = warm_image(&cfg, &variant);
                assert_eq!(
                    bisect_first_divergence(&cfg, &variant, &warm),
                    full_budget_bisection(&cfg, &variant, &warm),
                    "base seed {base_seed}, variant {index}"
                );
            }
        }
    }

    /// A monotone predicate that first holds at `d`, searched from every
    /// start below it: the galloping window plus its inner bisection
    /// find exactly `d`, and `None` when `d` lies past the end.
    #[test]
    fn gallop_then_bisect_finds_any_monotone_divergence() {
        let end = 300;
        for from in [0, 1, 7, 100] {
            for d in from + 1..=end + 1 {
                let mut probes = Vec::new();
                let window = gallop(from, end, |k| {
                    probes.push(k);
                    k >= d
                });
                assert!(probes.windows(2).all(|w| w[0] < w[1]), "{probes:?}");
                let found = window.map(|(lo, hi)| {
                    assert!(lo < d && d <= hi, "window ({lo}, {hi}] misses {d}");
                    bisect_window(lo, hi, |k| k >= d)
                });
                assert_eq!(found, (d <= end).then_some(d), "from {from}, d {d}");
            }
        }
    }
}
