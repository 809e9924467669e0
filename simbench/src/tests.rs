//! Self-checks: short windows of every workload. Run with
//! `cargo test --release --manifest-path simbench/Cargo.toml`.

use super::*;
use metrics::{valid_name, END_TO_END, PER_LAYER};

fn args(workload: &str, seconds: f64) -> Args {
    Args {
        workload: workload.to_owned(),
        seed: DEFAULT_SEED,
        seconds,
        trace: false,
    }
}

#[test]
fn metric_names_are_valid_and_unique() {
    let mut seen = std::collections::HashSet::new();
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(seen.insert(name), "metric {name} declared twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "invalid unit {unit:?} of {name}"
        );
    }
    assert!(!valid_name("_leading"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
}

#[test]
fn replica_and_public_fingerprints_agree_on_a_short_window() {
    for workload in model::WORKLOADS {
        for seed in [DEFAULT_SEED, 7] {
            let s = spans(workload);
            let mut public = Public::assemble(build(workload, seed));
            let mut rig = Rig::assemble(build(workload, seed));
            for span in [s.warm, 20_000, 20_000] {
                public.run_for(span);
                rig.run_for(span);
            }
            let fp = fingerprint(&public);
            assert_eq!(fp, fingerprint(&rig), "{workload} seed {seed}");
            assert!(rig.prof.ticks > 0);
        }
    }
}

#[test]
fn the_seed_moves_only_the_seeded_workloads() {
    let fp = |workload: &str, seed| {
        let mut public = Public::assemble(build(workload, seed));
        public.run_for(spans(workload).warm);
        fingerprint(&public)
    };
    assert_eq!(
        fp("contended_reservation", 1),
        fp("contended_reservation", 2)
    );
    assert_eq!(fp("observed_qos", 1), fp("observed_qos", 2));
    assert_ne!(fp("tree_sparse", 1), fp("tree_sparse", 2));
    assert_ne!(campaign_base_seeds(1), campaign_base_seeds(2));
    assert_eq!(campaign_base_seeds(1).len(), 16);
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for workload in model::WORKLOADS {
        let mut tally = Tally::default();
        let mut m = Metrics::default();
        let a = args(workload, 0.05);
        if workload == "campaign_fork" {
            measure_campaign(&a, &mut tally, &mut m);
        } else {
            measure_sim(workload, &a, &mut tally, &mut m);
        }
        m.set("peak_rss_mib", peak_rss_mib());
        assert_eq!(tally.failed, 0, "{workload}");
        assert!(tally.attempted > 0);
        for &(name, _) in END_TO_END {
            let v = m
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert!(v > 0.0, "{workload}: {name} = {v}");
        }
        m.result_json(END_TO_END, tally.attempted, tally.failed);
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_reconcile() {
    for workload in model::WORKLOADS {
        let mut tally = Tally::default();
        let mut m = Metrics::default();
        trace(workload, &args(workload, 0.1), &mut tally, &mut m);
        assert_eq!(tally.failed, 0, "{workload}");
        m.result_json(PER_LAYER, tally.attempted, tally.failed);
        let get = |name| m.get(name).expect("set");
        // The layer times plus the unattributed residue make up the
        // traced wall time.
        let layers_ms = ["hyperconnect.tick_ns", "mem.tick_ns", "ha.tick_ns"]
            .iter()
            .chain(&["axi.bridge.transfer_ns", "sim.sched.horizon_ns"])
            .map(|n| get(n))
            .sum::<f64>()
            * get("trace.sim_cycles")
            / 1e6;
        let wall = get("trace.wall_ms");
        let residue = get("trace.unattributed_frac");
        let rebuilt = layers_ms + wall * residue;
        assert!(
            (rebuilt - wall).abs() <= 1e-6 * wall,
            "{workload}: layers {layers_ms} ms + residue != wall {wall} ms"
        );
        // With the timer cost taken out, the layers account for about
        // the untraced engine's time over the same window, and the
        // residue is what tracing added.
        let untraced = wall / get("trace.overhead_x");
        let share = layers_ms / untraced;
        assert!(
            (0.5..1.5).contains(&share),
            "{workload}: layers {layers_ms} ms against untraced {untraced} ms"
        );
        assert!(residue > 0.0, "{workload}: unattributed share {residue}");
        let split: f64 = HaClass::ALL
            .iter()
            .map(|&c| get(metrics::ha_class_metric(c)))
            .sum();
        assert!((split - get("ha.tick_ns")).abs() <= 1e-9 * split.max(1.0));
        assert!(get("trace.overhead_x") > 0.0);
        assert!(get("hyperconnect.ts.subs_issued") > 0.0);
    }
}
