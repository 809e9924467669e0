//! Seeded chaos campaigns over the recovery lifecycle: every pinned
//! seed derives a full inject → detect → drain → reset → reattach
//! scenario (fault kind, port, permanence, policies, poll cadence) and
//! must satisfy the three campaign invariants — bounded victims,
//! SLA-compliant recovery, and naive/fast-forward equivalence (see
//! `axi_hyperconnect::chaos`).
//!
//! The CI chaos-smoke job runs exactly these tests and uploads the
//! campaign summary JSON written by `campaign_summary_artifact`.

use axi_hyperconnect::chaos::{
    campaign_summary_json, fabric_campaign_summary_json, fabric_scenario_rng_position,
    run_fabric_flat_campaign, run_fabric_tree_campaign, run_flat_campaign,
    run_noisy_neighbor_campaign, run_tree_campaign, scenario_rng_position, ChaosConfig,
    ChaosOutcome, FabricOutcome, FaultKind, FABRIC_PINNED_SEEDS, PINNED_SEEDS,
};
use axi_hyperconnect::SchedulerMode;

fn assert_invariants(outcome: &ChaosOutcome) {
    let violations = outcome.invariant_violations();
    assert!(
        violations.is_empty(),
        "seed {} ({} {}) violated invariants: {:?}\n{}",
        outcome.seed,
        outcome.scenario,
        outcome.fault_kind.as_str(),
        violations,
        outcome.to_json(),
    );
}

/// Every pinned seed passes invariants 1 and 2 on the flat Fig. 1
/// shape, and the campaign visited the full recovery lifecycle.
#[test]
fn flat_campaigns_pass_invariants_on_pinned_seeds() {
    for &seed in &PINNED_SEEDS {
        let outcome = run_flat_campaign(&ChaosConfig::new(seed));
        assert_invariants(&outcome);
        // The lifecycle really ran: detection, a completed drain, at
        // least one reset-and-reattach round trip.
        for to in ["Draining", "Decoupled", "Resetting", "Probation"] {
            assert!(
                outcome.transitions.iter().any(|t| t.to == to),
                "seed {seed}: lifecycle never reached {to}: {:?}",
                outcome.transitions
            );
        }
        assert!(outcome.resets >= 1, "seed {seed}: no reset pulsed");
    }
}

/// Same invariants over the two-level tree (fault on the child
/// interconnect, victims on both levels).
#[test]
fn tree_campaigns_pass_invariants_on_pinned_seeds() {
    for &seed in &PINNED_SEEDS {
        let outcome = run_tree_campaign(&ChaosConfig::new(seed));
        assert_invariants(&outcome);
        assert!(outcome.resets >= 1, "seed {seed}: no reset pulsed");
    }
}

/// The pinned set was chosen to cover all four fault kinds, each in
/// both the recoverable and the permanent variant — so the drain
/// force-flush path (stalled writer), the resume-nominal path (cured
/// WLAST violator) and the quarantine path are all exercised.
#[test]
fn pinned_seeds_cover_the_fault_matrix() {
    let outcomes: Vec<ChaosOutcome> = PINNED_SEEDS
        .iter()
        .map(|&s| run_flat_campaign(&ChaosConfig::new(s)))
        .collect();
    for kind in [
        FaultKind::StalledWriter,
        FaultKind::WlastViolator,
        FaultKind::RogueReader,
        FaultKind::RunawayMaster,
    ] {
        for permanent in [false, true] {
            assert!(
                outcomes
                    .iter()
                    .any(|o| o.fault_kind == kind && o.permanent == permanent),
                "no pinned seed covers {} permanent={permanent}",
                kind.as_str()
            );
        }
    }
    // Permanent faults quarantine, recoverable ones return to service.
    for o in &outcomes {
        let expected = if o.permanent {
            "Quarantined"
        } else {
            "Healthy"
        };
        assert_eq!(o.final_state, expected, "seed {}", o.seed);
    }
}

/// Invariant 3: the event-horizon fast-forward scheduler must not
/// change anything recovery observes. The full campaign record —
/// transition cycles, drop counts, victim latencies and job counts —
/// is byte-identical under naive and fast-forward scheduling.
#[test]
fn recovery_is_scheduler_equivalent_on_pinned_seeds() {
    for &seed in &PINNED_SEEDS {
        let ff = run_flat_campaign(&ChaosConfig::new(seed));
        let naive = run_flat_campaign(&ChaosConfig::new(seed).scheduler(SchedulerMode::Naive));
        assert_eq!(
            ff.fingerprint(),
            naive.fingerprint(),
            "seed {seed}: flat campaign diverges across schedulers"
        );
    }
}

/// Scheduler equivalence also holds through the cascaded tree (a
/// subset of seeds keeps the naive runs cheap).
#[test]
fn tree_recovery_is_scheduler_equivalent() {
    for &seed in &PINNED_SEEDS[..3] {
        let ff = run_tree_campaign(&ChaosConfig::new(seed));
        let naive = run_tree_campaign(&ChaosConfig::new(seed).scheduler(SchedulerMode::Naive));
        assert_eq!(
            ff.fingerprint(),
            naive.fingerprint(),
            "seed {seed}: tree campaign diverges across schedulers"
        );
    }
}

/// A campaign is replayable: the same seed and config produce the same
/// outcome, and different seeds produce different scenarios.
#[test]
fn campaigns_are_deterministic_per_seed() {
    let a = run_flat_campaign(&ChaosConfig::new(PINNED_SEEDS[0]));
    let b = run_flat_campaign(&ChaosConfig::new(PINNED_SEEDS[0]));
    assert_eq!(a.fingerprint(), b.fingerprint());
    let c = run_flat_campaign(&ChaosConfig::new(PINNED_SEEDS[1]));
    assert_ne!(a.fingerprint(), c.fingerprint());
}

/// Writes the campaign summary JSON the CI job uploads as an artifact
/// (to `target/chaos-campaign-summary.json`, or `$CHAOS_SUMMARY_PATH`),
/// and sanity-checks its shape.
#[test]
fn campaign_summary_artifact() {
    let mut outcomes: Vec<ChaosOutcome> = Vec::new();
    for &seed in &PINNED_SEEDS {
        outcomes.push(run_flat_campaign(&ChaosConfig::new(seed)));
        outcomes.push(run_tree_campaign(&ChaosConfig::new(seed)));
    }
    let json = campaign_summary_json(&outcomes);
    assert!(json.contains("\"schema\":\"axi-hyperconnect/chaos-campaign/v1\""));
    assert!(json.contains("\"campaigns\":16"));
    assert!(json.contains("\"invariant_violations\":0"));
    let path = std::env::var("CHAOS_SUMMARY_PATH")
        .unwrap_or_else(|_| "target/chaos-campaign-summary.json".to_owned());
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("note: could not write {path}: {e}");
    }
}

/// The QoS campaign family: every pinned seed derives a noisy-neighbor
/// scenario (victim + greedy reader swarm, seeded credit programming)
/// and must hold its *tightened* victim bound with every regulator
/// demonstrably engaged.
#[test]
fn qos_campaigns_hold_tightened_bounds_on_pinned_seeds() {
    for &seed in &PINNED_SEEDS {
        let outcome = run_noisy_neighbor_campaign(&ChaosConfig::new(seed));
        let violations = outcome.invariant_violations();
        assert!(
            violations.is_empty(),
            "seed {seed}: QoS invariants violated: {violations:?}\n{}",
            outcome.fingerprint(),
        );
    }
}

/// Regulation is scheduler-transparent: the full QoS campaign record —
/// victim latency, job count, per-port throttle tallies — is
/// byte-identical under naive and fast-forward scheduling.
#[test]
fn qos_campaigns_are_scheduler_equivalent() {
    for &seed in &PINNED_SEEDS[..4] {
        let ff = run_noisy_neighbor_campaign(&ChaosConfig::new(seed));
        let naive =
            run_noisy_neighbor_campaign(&ChaosConfig::new(seed).scheduler(SchedulerMode::Naive));
        assert_eq!(
            ff.fingerprint(),
            naive.fingerprint(),
            "seed {seed}: QoS campaign diverges under naive scheduling"
        );
    }
}

/// A pulled-from-JSON integer field, by exact key.
fn json_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} missing from {json}"));
    json[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer field")
}

/// The campaign summary must record each scenario's RNG stream position
/// (raw 64-bit draws consumed deriving it), and that position must
/// round-trip: re-deriving the scenario from the recorded seed consumes
/// exactly the recorded number of draws, so a campaign resumed from its
/// summary replays the same scenarios.
#[test]
fn summary_records_reproducible_rng_positions() {
    for &seed in &PINNED_SEEDS[..4] {
        let flat = run_flat_campaign(&ChaosConfig::new(seed));
        assert_eq!(
            flat.rng_position,
            scenario_rng_position(seed),
            "seed {seed}"
        );
        let json = flat.to_json();
        assert_eq!(json_u64(&json, "seed"), seed);
        assert_eq!(
            json_u64(&json, "rng_position"),
            scenario_rng_position(seed),
            "seed {seed}: JSON rng_position does not round-trip"
        );
        // The aggregated summary carries the field for every run too.
        let summary = campaign_summary_json(&[flat]);
        assert_eq!(
            json_u64(&summary, "rng_position"),
            scenario_rng_position(seed)
        );
    }
}

fn assert_fabric_invariants(outcome: &FabricOutcome) {
    let violations = outcome.invariant_violations();
    assert!(
        violations.is_empty(),
        "seed {} ({} hard={}) violated invariants: {:?}\n{}",
        outcome.seed,
        outcome.scenario,
        outcome.hard,
        violations,
        outcome.to_json(),
    );
}

/// The fabric-fault family on the flat shape: every pinned seed holds
/// zero-silent-corruption, bounded victims, the derived retry
/// completion bound, and — for hard seeds — the quarantine path.
#[test]
fn fabric_flat_campaigns_pass_invariants_on_pinned_seeds() {
    for &seed in &FABRIC_PINNED_SEEDS {
        assert_fabric_invariants(&run_fabric_flat_campaign(&ChaosConfig::new(seed)));
    }
}

/// Same invariants through the cascaded tree: faults at the memory
/// behind the parent, the oracle and the hypervisor one level down.
#[test]
fn fabric_tree_campaigns_pass_invariants_on_pinned_seeds() {
    for &seed in &FABRIC_PINNED_SEEDS {
        assert_fabric_invariants(&run_fabric_tree_campaign(&ChaosConfig::new(seed)));
    }
}

/// The pinned set covers both fault modes in both shapes: transient
/// scenarios that retry to success, and hard scenarios that end in a
/// hypervisor-commanded quarantine with verified traffic on the spare.
#[test]
fn fabric_pinned_seeds_cover_both_fault_modes() {
    for run in [run_fabric_flat_campaign, run_fabric_tree_campaign] {
        let outcomes: Vec<FabricOutcome> = FABRIC_PINNED_SEEDS
            .iter()
            .map(|&s| run(&ChaosConfig::new(s)))
            .collect();
        for hard in [false, true] {
            assert!(
                outcomes.iter().any(|o| o.hard == hard),
                "no pinned fabric seed covers hard={hard} in {}",
                outcomes[0].scenario
            );
        }
        for o in &outcomes {
            if o.hard {
                assert!(o.quarantines >= 1, "seed {}: no quarantine", o.seed);
                assert!(
                    o.oracle.verified_after_remap > 0,
                    "seed {}: spare region never verified",
                    o.seed
                );
            } else {
                assert!(
                    o.oracle.retries > 0,
                    "seed {}: no retries exercised",
                    o.seed
                );
                assert_eq!(o.quarantines, 0, "seed {}: spurious quarantine", o.seed);
            }
            assert_eq!(o.oracle.silent_corruptions, 0, "seed {}", o.seed);
        }
    }
}

/// Fault injection is scheduler-transparent: draws are tied to beat
/// crossings, not bare cycles, so the full fabric campaign record is
/// byte-identical under naive and fast-forward scheduling.
#[test]
fn fabric_campaigns_are_scheduler_equivalent() {
    for &seed in &FABRIC_PINNED_SEEDS[..4] {
        let ff = run_fabric_flat_campaign(&ChaosConfig::new(seed));
        let naive =
            run_fabric_flat_campaign(&ChaosConfig::new(seed).scheduler(SchedulerMode::Naive));
        assert_eq!(
            ff.fingerprint(),
            naive.fingerprint(),
            "seed {seed}: fabric campaign diverges under naive scheduling"
        );
    }
}

/// Scheduler equivalence also holds through the cascade (a subset of
/// seeds keeps the naive runs cheap).
#[test]
fn fabric_tree_campaigns_are_scheduler_equivalent() {
    for &seed in &FABRIC_PINNED_SEEDS[..3] {
        let ff = run_fabric_tree_campaign(&ChaosConfig::new(seed));
        let naive =
            run_fabric_tree_campaign(&ChaosConfig::new(seed).scheduler(SchedulerMode::Naive));
        assert_eq!(
            ff.fingerprint(),
            naive.fingerprint(),
            "seed {seed}: fabric tree campaign diverges across schedulers"
        );
    }
}

/// A fabric campaign is replayable: same seed, same record; different
/// seed, different scenario.
#[test]
fn fabric_campaigns_are_deterministic_per_seed() {
    let a = run_fabric_flat_campaign(&ChaosConfig::new(FABRIC_PINNED_SEEDS[0]));
    let b = run_fabric_flat_campaign(&ChaosConfig::new(FABRIC_PINNED_SEEDS[0]));
    assert_eq!(a.fingerprint(), b.fingerprint());
    let c = run_fabric_flat_campaign(&ChaosConfig::new(FABRIC_PINNED_SEEDS[1]));
    assert_ne!(a.fingerprint(), c.fingerprint());
}

/// Writes the fabric campaign summary the CI integrity-smoke job
/// uploads (to `target/fabric-campaign-summary.json`, or
/// `$FABRIC_SUMMARY_PATH`), and sanity-checks its shape. Separate from
/// `campaign_summary_artifact` so the two CI jobs upload independent
/// artifacts.
#[test]
fn fabric_campaign_summary_artifact() {
    let mut outcomes: Vec<FabricOutcome> = Vec::new();
    for &seed in &FABRIC_PINNED_SEEDS {
        outcomes.push(run_fabric_flat_campaign(&ChaosConfig::new(seed)));
        outcomes.push(run_fabric_tree_campaign(&ChaosConfig::new(seed)));
    }
    let json = fabric_campaign_summary_json(&outcomes);
    assert!(json.contains("\"schema\":\"axi-hyperconnect/chaos-campaign/v1\""));
    assert!(json.contains("\"schema\":\"axi-hyperconnect/fabric-run/v1\""));
    assert!(json.contains("\"campaigns\":16"));
    assert!(json.contains("\"invariant_violations\":0"));
    let path = std::env::var("FABRIC_SUMMARY_PATH")
        .unwrap_or_else(|_| "target/fabric-campaign-summary.json".to_owned());
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("note: could not write {path}: {e}");
    }
}

/// Fabric campaign JSON records a reproducible RNG stream position,
/// exactly like the recovery family.
#[test]
fn fabric_summary_records_reproducible_rng_positions() {
    for &seed in &FABRIC_PINNED_SEEDS[..4] {
        let flat = run_fabric_flat_campaign(&ChaosConfig::new(seed));
        assert_eq!(
            flat.rng_position,
            fabric_scenario_rng_position(seed),
            "seed {seed}"
        );
        let json = flat.to_json();
        assert_eq!(json_u64(&json, "seed"), seed);
        assert_eq!(
            json_u64(&json, "rng_position"),
            fabric_scenario_rng_position(seed),
            "seed {seed}: JSON rng_position does not round-trip"
        );
    }
}
