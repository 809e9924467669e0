//! Soundness and schema tests for the snapshot-forking campaign
//! service: a forked variant must be indistinguishable from a cold
//! replay of the same seed, the summary JSON must carry the forking
//! fields, and bisection must localize a fault's first architectural
//! effect at or after its injection cycle.

use axi_hyperconnect::campaign::{
    bisect_variant, run_campaign, run_variant_cold, variant_seed, CampaignConfig, CampaignEvent,
};
use axi_hyperconnect::SchedulerMode;

/// FNV-1a 64 over UTF-8 bytes (pins the forked fingerprints).
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A small campaign that still detects and recovers faults: the chaos
/// engine's invariants need enough post-injection cycles to observe the
/// full recovery arc.
fn small_cfg(seed: u64) -> CampaignConfig {
    CampaignConfig::new(seed)
        .variants(3)
        .warm_cycles(2_000)
        .cycles(40_000)
        .workers(2)
        .bisect(false)
}

#[test]
fn forked_variants_match_cold_replays() {
    let mut fingerprints = String::new();
    for base_seed in [1, 7] {
        let cfg = small_cfg(base_seed);
        let report = run_campaign(&cfg, |_| {});
        assert_eq!(report.runs.len(), cfg.variants);
        for (i, run) in report.runs.iter().enumerate() {
            let seed = variant_seed(base_seed, i);
            assert_eq!(run.outcome.seed, seed);
            let cold = run_variant_cold(&cfg, seed);
            assert_eq!(
                run.outcome.fingerprint(),
                cold.outcome.fingerprint(),
                "fork of seed {seed} (base {base_seed}) diverged from cold replay"
            );
            fingerprints.push_str(&run.outcome.fingerprint());
            fingerprints.push('\n');
        }
    }
    assert_eq!(
        fnv64(&fingerprints),
        0x9eeb_8c5c_b605_d528,
        "forked fingerprints moved:\n{fingerprints}"
    );
}

#[test]
fn forked_campaign_is_scheduler_independent() {
    let ff = run_campaign(&small_cfg(5), |_| {});
    let naive = run_campaign(&small_cfg(5).scheduler(SchedulerMode::Naive), |_| {});
    for (a, b) in ff.runs.iter().zip(naive.runs.iter()) {
        // Fingerprints embed the scheduler-agnostic trajectory; only the
        // scheduler tag itself may differ, and it is not part of the
        // fingerprint.
        assert_eq!(a.outcome.fingerprint(), b.outcome.fingerprint());
    }
}

#[test]
fn campaign_events_stream_and_cover_every_variant() {
    let cfg = small_cfg(3);
    let mut warmed = 0usize;
    let mut finished = Vec::new();
    let report = run_campaign(&cfg, |ev| match ev {
        CampaignEvent::Warmed {
            cycle,
            snapshot_bytes,
            ..
        } => {
            warmed += 1;
            assert_eq!(cycle, cfg.warm_cycles);
            assert!(snapshot_bytes > 0);
        }
        CampaignEvent::VariantFinished {
            total,
            seed,
            inject_at,
            ..
        } => {
            assert_eq!(total, cfg.variants);
            assert!(inject_at >= cfg.warm_cycles);
            finished.push(seed);
        }
        CampaignEvent::Bisected { .. } => {}
    });
    assert_eq!(warmed, 1);
    finished.sort_unstable();
    let mut expected: Vec<u64> = (0..cfg.variants)
        .map(|i| variant_seed(cfg.base_seed, i))
        .collect();
    expected.sort_unstable();
    assert_eq!(finished, expected);
    assert!(report.snapshot_bytes > 0);
    assert!(report.warm_wall_ms >= 0.0);
}

#[test]
fn summary_json_carries_forking_fields() {
    let cfg = small_cfg(1);
    let report = run_campaign(&cfg, |_| {});
    let json = report.summary_json();
    assert!(json.starts_with("{\"schema\":\"axi-hyperconnect/chaos-campaign/v1\""));
    assert!(json.contains("\"mode\":\"forked\""));
    assert!(json.contains(&format!("\"base_seed\":{}", cfg.base_seed)));
    assert!(json.contains(&format!("\"warm_cycle\":{}", cfg.warm_cycles)));
    assert!(json.contains(&format!("\"campaigns\":{}", cfg.variants)));
    assert!(json.contains("\"rng_position\":"));
    assert!(json.contains("\"inject_at\":"));
    assert!(json.contains("\"first_divergence\":"));
    // Every run object must remain valid JSON after the splice: count
    // braces balance.
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes);

    let metrics = report.metrics_json();
    assert!(metrics.starts_with("{\"schema\":\"axi-hyperconnect/campaign-metrics/v1\""));
    assert!(metrics.contains("\"forked_cycles_per_sec\":"));
    assert!(metrics.contains("\"warm_cycles_amortized\":"));
}

/// The cycle budget stays past the warm cycle whichever builder call
/// comes last, so every variant runs exactly `cycles` cycles.
#[test]
fn cycle_budget_stays_past_warm_in_either_builder_order() {
    let base = CampaignConfig::new(1).variants(2).bisect(false);
    for cfg in [
        base.cycles(3_000).warm_cycles(5_000),
        base.warm_cycles(5_000).cycles(3_000),
    ] {
        assert!(cfg.cycles > cfg.warm_cycles, "{cfg:?}");
        for run in run_campaign(&cfg, |_| {}).runs {
            assert_eq!(run.outcome.end_cycle, cfg.cycles, "{cfg:?}");
        }
    }
}

#[test]
fn bisection_localizes_first_divergence_after_injection() {
    let cfg = small_cfg(1).cycles(12_000);
    let seed = variant_seed(cfg.base_seed, 0);
    let run = run_variant_cold(&cfg, seed);
    let divergence = bisect_variant(&cfg, seed);
    let k = divergence.expect("an injected fault must perturb architectural state");
    // The fault arms at inject_at and first ticks on that cycle, so the
    // earliest possible divergence is the snapshot taken after it —
    // cycle inject_at + 1 from the state_at() perspective.
    assert!(
        k > run.inject_at,
        "divergence cycle {k} not after injection {}",
        run.inject_at
    );
    assert!(k <= cfg.cycles);
}

/// Bisection results are pinned: the `first_divergence` list of a full
/// campaign whose failures are auto-bisected. Base seed 4 has three
/// violating variants; the others are never bisected.
#[test]
fn campaign_bisection_results_are_pinned() {
    let cfg = CampaignConfig::new(4)
        .variants(8)
        .warm_cycles(2_000)
        .cycles(60_000)
        .workers(2)
        .bisect(true);
    let report = run_campaign(&cfg, |_| {});
    let divergences: Vec<Option<u64>> = report.runs.iter().map(|r| r.first_divergence).collect();
    let rendered = format!("{divergences:?}");
    assert_eq!(
        fnv64(&rendered),
        0x4969_f43b_ae5b_f52f,
        "first_divergence list moved: {rendered}"
    );
}

/// A fault that arms at or after the end of the budget never ticks, so
/// there is nothing to find; one more cycle of budget covers its arming
/// tick, and the search finds the divergence right there.
#[test]
fn bisection_is_empty_when_the_fault_arms_past_the_budget() {
    let seed = variant_seed(1, 0);
    let inject_at = run_variant_cold(&small_cfg(1).cycles(2_001), seed).inject_at;
    assert!(inject_at > 2_001, "variant must arm past the warm cycle");
    for cycles in [2_001, inject_at - 1, inject_at] {
        assert_eq!(bisect_variant(&small_cfg(1).cycles(cycles), seed), None);
    }
    assert_eq!(
        bisect_variant(&small_cfg(1).cycles(inject_at + 1), seed),
        Some(inject_at + 1)
    );
}
