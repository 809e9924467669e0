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
    run, summary_json, ChaosConfig, Detail, FabricRecord, FaultKind, Outcome, RecoveryRecord,
    Scenario, Shape, FABRIC_PINNED_SEEDS, PINNED_SEEDS,
};
use axi_hyperconnect::SchedulerMode;

const FLAT: Scenario = Scenario::Recovery(Shape::Flat);
const TREE: Scenario = Scenario::Recovery(Shape::Tree);
const QOS: Scenario = Scenario::NoisyNeighbor;
const FABRIC_FLAT: Scenario = Scenario::Fabric(Shape::Flat);
const FABRIC_TREE: Scenario = Scenario::Fabric(Shape::Tree);

/// FNV-1a 64 over UTF-8 bytes: pins a whole campaign artifact in one
/// number, so a change that shifts every run alike still fails.
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn recovery(outcome: &Outcome) -> &RecoveryRecord {
    match &outcome.detail {
        Detail::Recovery(r) => r,
        other => panic!("not a recovery run: {other:?}"),
    }
}

fn fabric(outcome: &Outcome) -> &FabricRecord {
    match &outcome.detail {
        Detail::Fabric(f) => f,
        other => panic!("not a fabric run: {other:?}"),
    }
}

/// Every family's failure message: the seed, the shape and the full
/// per-run JSON record.
fn assert_invariants(outcome: &Outcome) {
    let violations = outcome.invariant_violations();
    assert!(
        violations.is_empty(),
        "seed {} ({}) violated invariants: {:?}\n{}",
        outcome.seed,
        outcome.label,
        violations,
        outcome.to_json(),
    );
}

/// Every pinned seed passes invariants 1 and 2 on the flat Fig. 1
/// shape, and the campaign visited the full recovery lifecycle.
#[test]
fn flat_campaigns_pass_invariants_on_pinned_seeds() {
    for &seed in &PINNED_SEEDS {
        let outcome = run(FLAT, &ChaosConfig::new(seed));
        assert_invariants(&outcome);
        let r = recovery(&outcome);
        // The lifecycle really ran: detection, a completed drain, at
        // least one reset-and-reattach round trip.
        for to in ["Draining", "Decoupled", "Resetting", "Probation"] {
            assert!(
                r.transitions.iter().any(|t| t.to == to),
                "seed {seed}: lifecycle never reached {to}: {:?}",
                r.transitions
            );
        }
        assert!(r.resets >= 1, "seed {seed}: no reset pulsed");
    }
}

/// Same invariants over the two-level tree (fault on the child
/// interconnect, victims on both levels).
#[test]
fn tree_campaigns_pass_invariants_on_pinned_seeds() {
    for &seed in &PINNED_SEEDS {
        let outcome = run(TREE, &ChaosConfig::new(seed));
        assert_invariants(&outcome);
        assert!(
            recovery(&outcome).resets >= 1,
            "seed {seed}: no reset pulsed"
        );
    }
}

/// The pinned set was chosen to cover all four fault kinds, each in
/// both the recoverable and the permanent variant — so the drain
/// force-flush path (stalled writer), the resume-nominal path (cured
/// WLAST violator) and the quarantine path are all exercised.
#[test]
fn pinned_seeds_cover_the_fault_matrix() {
    let outcomes: Vec<Outcome> = PINNED_SEEDS
        .iter()
        .map(|&s| run(FLAT, &ChaosConfig::new(s)))
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
                    .map(recovery)
                    .any(|r| r.fault_kind == kind && r.permanent == permanent),
                "no pinned seed covers {} permanent={permanent}",
                kind.as_str()
            );
        }
    }
    // Permanent faults quarantine, recoverable ones return to service.
    for o in &outcomes {
        let r = recovery(o);
        let expected = if r.permanent {
            "Quarantined"
        } else {
            "Healthy"
        };
        assert_eq!(r.final_state, expected, "seed {}", o.seed);
    }
}

/// Invariant 3: the event-horizon fast-forward scheduler must not
/// change anything recovery observes. The full campaign record —
/// transition cycles, drop counts, victim latencies and job counts —
/// is byte-identical under naive and fast-forward scheduling.
#[test]
fn recovery_is_scheduler_equivalent_on_pinned_seeds() {
    for &seed in &PINNED_SEEDS {
        let ff = run(FLAT, &ChaosConfig::new(seed));
        let naive = run(
            FLAT,
            &ChaosConfig::new(seed).scheduler(SchedulerMode::Naive),
        );
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
        let ff = run(TREE, &ChaosConfig::new(seed));
        let naive = run(
            TREE,
            &ChaosConfig::new(seed).scheduler(SchedulerMode::Naive),
        );
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
    let a = run(FLAT, &ChaosConfig::new(PINNED_SEEDS[0]));
    let b = run(FLAT, &ChaosConfig::new(PINNED_SEEDS[0]));
    assert_eq!(a.fingerprint(), b.fingerprint());
    let c = run(FLAT, &ChaosConfig::new(PINNED_SEEDS[1]));
    assert_ne!(a.fingerprint(), c.fingerprint());
}

/// Writes the campaign summary JSON the CI job uploads as an artifact
/// (to `target/chaos-campaign-summary.json`, or `$CHAOS_SUMMARY_PATH`),
/// and sanity-checks its shape.
#[test]
fn campaign_summary_artifact() {
    let mut outcomes: Vec<Outcome> = Vec::new();
    for &seed in &PINNED_SEEDS {
        outcomes.push(run(FLAT, &ChaosConfig::new(seed)));
        outcomes.push(run(TREE, &ChaosConfig::new(seed)));
    }
    let json = summary_json(&outcomes);
    assert!(json.contains("\"schema\":\"axi-hyperconnect/chaos-campaign/v1\""));
    assert!(json.contains("\"campaigns\":16"));
    assert!(json.contains("\"invariant_violations\":0"));
    assert_eq!(
        (fnv64(&json), json.len()),
        (0xb553_806d_3c0f_0968, 15_902),
        "recovery campaign summary moved"
    );
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
    let mut fingerprints = String::new();
    for &seed in &PINNED_SEEDS {
        let outcome = run(QOS, &ChaosConfig::new(seed));
        assert_invariants(&outcome);
        fingerprints.push_str(&outcome.fingerprint());
        fingerprints.push('\n');
    }
    assert_eq!(
        fnv64(&fingerprints),
        0xa7d7_a289_5abb_089e,
        "QoS fingerprints moved:\n{fingerprints}"
    );
}

/// Regulation is scheduler-transparent: the full QoS campaign record —
/// victim latency, job count, per-port throttle tallies — is
/// byte-identical under naive and fast-forward scheduling.
#[test]
fn qos_campaigns_are_scheduler_equivalent() {
    for &seed in &PINNED_SEEDS[..4] {
        let ff = run(QOS, &ChaosConfig::new(seed));
        let naive = run(QOS, &ChaosConfig::new(seed).scheduler(SchedulerMode::Naive));
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
        let flat = run(FLAT, &ChaosConfig::new(seed));
        assert_eq!(flat.rng_position, FLAT.rng_position(seed), "seed {seed}");
        let json = flat.to_json();
        assert_eq!(json_u64(&json, "seed"), seed);
        assert_eq!(
            json_u64(&json, "rng_position"),
            FLAT.rng_position(seed),
            "seed {seed}: JSON rng_position does not round-trip"
        );
        // The aggregated summary carries the field for every run too.
        let summary = summary_json(&[flat]);
        assert_eq!(json_u64(&summary, "rng_position"), FLAT.rng_position(seed));
    }
}

/// The fabric-fault family on the flat shape: every pinned seed holds
/// zero-silent-corruption, bounded victims, the derived retry
/// completion bound, and — for hard seeds — the quarantine path.
#[test]
fn fabric_flat_campaigns_pass_invariants_on_pinned_seeds() {
    for &seed in &FABRIC_PINNED_SEEDS {
        assert_invariants(&run(FABRIC_FLAT, &ChaosConfig::new(seed)));
    }
}

/// Same invariants through the cascaded tree: faults at the memory
/// behind the parent, the oracle and the hypervisor one level down.
#[test]
fn fabric_tree_campaigns_pass_invariants_on_pinned_seeds() {
    for &seed in &FABRIC_PINNED_SEEDS {
        assert_invariants(&run(FABRIC_TREE, &ChaosConfig::new(seed)));
    }
}

/// The pinned set covers both fault modes in both shapes: transient
/// scenarios that retry to success, and hard scenarios that end in a
/// hypervisor-commanded quarantine with verified traffic on the spare.
#[test]
fn fabric_pinned_seeds_cover_both_fault_modes() {
    for scenario in [FABRIC_FLAT, FABRIC_TREE] {
        let outcomes: Vec<Outcome> = FABRIC_PINNED_SEEDS
            .iter()
            .map(|&s| run(scenario, &ChaosConfig::new(s)))
            .collect();
        for hard in [false, true] {
            assert!(
                outcomes.iter().any(|o| fabric(o).hard == hard),
                "no pinned fabric seed covers hard={hard} in {scenario:?}"
            );
        }
        for o in &outcomes {
            let f = fabric(o);
            if f.hard {
                assert!(f.quarantines >= 1, "seed {}: no quarantine", o.seed);
                assert!(
                    f.oracle.verified_after_remap > 0,
                    "seed {}: spare region never verified",
                    o.seed
                );
            } else {
                assert!(
                    f.oracle.retries > 0,
                    "seed {}: no retries exercised",
                    o.seed
                );
                assert_eq!(f.quarantines, 0, "seed {}: spurious quarantine", o.seed);
            }
            assert_eq!(f.oracle.silent_corruptions, 0, "seed {}", o.seed);
        }
    }
}

/// Fault injection is scheduler-transparent: draws are tied to beat
/// crossings, not bare cycles, so the full fabric campaign record is
/// byte-identical under naive and fast-forward scheduling.
#[test]
fn fabric_campaigns_are_scheduler_equivalent() {
    for &seed in &FABRIC_PINNED_SEEDS[..4] {
        let ff = run(FABRIC_FLAT, &ChaosConfig::new(seed));
        let naive = run(
            FABRIC_FLAT,
            &ChaosConfig::new(seed).scheduler(SchedulerMode::Naive),
        );
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
        let ff = run(FABRIC_TREE, &ChaosConfig::new(seed));
        let naive = run(
            FABRIC_TREE,
            &ChaosConfig::new(seed).scheduler(SchedulerMode::Naive),
        );
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
    let a = run(FABRIC_FLAT, &ChaosConfig::new(FABRIC_PINNED_SEEDS[0]));
    let b = run(FABRIC_FLAT, &ChaosConfig::new(FABRIC_PINNED_SEEDS[0]));
    assert_eq!(a.fingerprint(), b.fingerprint());
    let c = run(FABRIC_FLAT, &ChaosConfig::new(FABRIC_PINNED_SEEDS[1]));
    assert_ne!(a.fingerprint(), c.fingerprint());
}

/// Writes the fabric campaign summary the CI integrity-smoke job
/// uploads (to `target/fabric-campaign-summary.json`, or
/// `$FABRIC_SUMMARY_PATH`), and sanity-checks its shape. Separate from
/// `campaign_summary_artifact` so the two CI jobs upload independent
/// artifacts.
#[test]
fn fabric_campaign_summary_artifact() {
    let mut outcomes: Vec<Outcome> = Vec::new();
    for &seed in &FABRIC_PINNED_SEEDS {
        outcomes.push(run(FABRIC_FLAT, &ChaosConfig::new(seed)));
        outcomes.push(run(FABRIC_TREE, &ChaosConfig::new(seed)));
    }
    let json = summary_json(&outcomes);
    assert!(json.contains("\"schema\":\"axi-hyperconnect/chaos-campaign/v1\""));
    assert!(json.contains("\"schema\":\"axi-hyperconnect/fabric-run/v1\""));
    assert!(json.contains("\"campaigns\":16"));
    assert!(json.contains("\"invariant_violations\":0"));
    assert_eq!(
        (fnv64(&json), json.len()),
        (0x29b3_7c9a_fbbc_0cbf, 12_197),
        "fabric campaign summary moved"
    );
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
        let flat = run(FABRIC_FLAT, &ChaosConfig::new(seed));
        assert_eq!(
            flat.rng_position,
            FABRIC_FLAT.rng_position(seed),
            "seed {seed}"
        );
        let json = flat.to_json();
        assert_eq!(json_u64(&json, "seed"), seed);
        assert_eq!(
            json_u64(&json, "rng_position"),
            FABRIC_FLAT.rng_position(seed),
            "seed {seed}: JSON rng_position does not round-trip"
        );
    }
}
