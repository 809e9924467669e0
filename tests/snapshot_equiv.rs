//! The snapshot-exactness oracle: for every scenario family and every
//! scheduler, *run-to-cycle-K → snapshot → restore into a freshly built
//! system → finish* must land in a state **byte-identical** to the
//! uninterrupted run — compared via the full `hcsim-snapshot/v1` image,
//! which covers every persisted register, queue, counter and RNG across
//! all layers.
//!
//! Because snapshots deliberately exclude scheduler artifacts
//! (scheduler mode, fast-forward skip counters), one single naive-mode
//! reference image pins both schedulers' split runs, and a snapshot
//! taken under one scheduler must resume under the other without drift.

mod scenarios;

use axi_hyperconnect::{SchedulerMode, SocSystem, SocTopology};
use hyperconnect::HyperConnect;
use scenarios::*;
use sim::Cycle;

/// Every scheduler the split runs are swept over.
const MODES: [SchedulerMode; 2] = [SchedulerMode::Naive, SchedulerMode::FastForward];

/// Drives the oracle for a flat [`SocSystem`] scenario: `build` must
/// assemble the identical system every call (same shapes, same seeds —
/// only the scheduler differs).
fn oracle_system(
    build: &dyn Fn(SchedulerMode) -> SocSystem<HyperConnect>,
    cycles: Cycle,
    split_at: Cycle,
    label: &str,
) {
    let mut reference = build(SchedulerMode::Naive);
    reference.run_for(cycles);
    let reference_bytes = reference.snapshot_bytes();

    for mode in MODES {
        let mut first = build(mode);
        first.run_for(split_at);
        let mid = first.snapshot_bytes();

        let mut resumed = build(mode);
        resumed
            .restore_snapshot_bytes(&mid)
            .unwrap_or_else(|e| panic!("{label}: restore under {mode:?} failed: {e:?}"));
        assert_eq!(resumed.now(), split_at, "{label}: restored clock");
        resumed.run_for(cycles - split_at);
        assert_eq!(
            resumed.snapshot_bytes(),
            reference_bytes,
            "{label}: split run under {mode:?} diverged from uninterrupted naive run"
        );
    }

    // Cross-scheduler resume: freeze under fast-forward, thaw naive.
    let mut first = build(SchedulerMode::FastForward);
    first.run_for(split_at);
    let mid = first.snapshot_bytes();
    let mut resumed = build(SchedulerMode::Naive);
    resumed
        .restore_snapshot_bytes(&mid)
        .unwrap_or_else(|e| panic!("{label}: cross-scheduler restore failed: {e:?}"));
    resumed.run_for(cycles - split_at);
    assert_eq!(
        resumed.snapshot_bytes(),
        reference_bytes,
        "{label}: fast-forward snapshot resumed under naive diverged"
    );
}

/// Same oracle over a cascaded [`SocTopology`].
fn oracle_topology(
    build: &dyn Fn(SchedulerMode) -> SocTopology,
    cycles: Cycle,
    split_at: Cycle,
    label: &str,
) {
    let mut reference = build(SchedulerMode::Naive);
    reference.run_for(cycles);
    let reference_bytes = reference.snapshot_bytes();

    for mode in MODES {
        let mut first = build(mode);
        first.run_for(split_at);
        let mid = first.snapshot_bytes();

        let mut resumed = build(mode);
        resumed
            .restore_snapshot_bytes(&mid)
            .unwrap_or_else(|e| panic!("{label}: restore under {mode:?} failed: {e:?}"));
        assert_eq!(resumed.now(), split_at, "{label}: restored clock");
        resumed.run_for(cycles - split_at);
        assert_eq!(
            resumed.snapshot_bytes(),
            reference_bytes,
            "{label}: split run under {mode:?} diverged from uninterrupted naive run"
        );
    }
}

// ---------------------------------------------------------------------
// Scenario 1: the four-master stress soak.
// ---------------------------------------------------------------------

#[test]
fn stress_snapshot_split_is_exact() {
    oracle_system(&build_stress, 60_000, 26_371, "stress");
}

// ---------------------------------------------------------------------
// Scenario 2: fault injection (protocol violations mid-flight).
// ---------------------------------------------------------------------

#[test]
fn fault_snapshot_split_is_exact() {
    oracle_system(&build_fault, 40_000, 17_203, "fault");
}

// ---------------------------------------------------------------------
// Scenario 3: QoS regulation (credit regulators + bound monitor live).
// ---------------------------------------------------------------------

#[test]
fn qos_snapshot_split_is_exact() {
    oracle_system(&build_qos, 50_000, 23_917, "qos");
}

// ---------------------------------------------------------------------
// Scenario 4: chaos-seed — a dormant fault arming mid-run between
// seeded traffic, exercising DelayedFault + SimRng persistence. The
// split point lands *before* the fault arms, so the restore must carry
// the dormant wrapper's inner state faithfully into the injection.
// ---------------------------------------------------------------------

#[test]
fn chaos_seed_snapshot_split_is_exact() {
    oracle_system(&build_chaos_seed, 45_000, 15_551, "chaos-seed");
}

// ---------------------------------------------------------------------
// Scenario 5: a three-level cascade (leaf → mid → root → DDR) with
// registered bridges at both cuts, so each level sleeps on its own.
// ---------------------------------------------------------------------

#[test]
fn tree3_snapshot_split_is_exact() {
    oracle_topology(&build_tree3, 80_000, 33_331, "tree3");
}

// ---------------------------------------------------------------------
// Scenario 6: fabric faults — an armed memory-side injector (spurious
// SLVERRs + ECC-corrected bit flips) under a retrying scoreboard
// oracle. The split must carry the injector's RNG and counters, the
// controller's error-region bookkeeping, and the scoreboard's
// mid-retry/backoff state byte-faithfully across the restore.
// ---------------------------------------------------------------------

#[test]
fn fabric_fault_snapshot_split_is_exact() {
    oracle_system(&build_fabric_fault, 45_000, 19_777, "fabric-fault");
}

// ---------------------------------------------------------------------
// Scenario 7: the tree100 shape, split while its six periodic clusters
// sleep. Wake cycles are scheduler state and never persisted: a
// restore wakes every node, so the image frozen mid-sleep resumes
// exactly under naive stepping, under fast-forward and across the two.
// ---------------------------------------------------------------------

#[test]
fn tree100_snapshot_split_while_clusters_sleep_is_exact() {
    const CYCLES: Cycle = 24_000;
    const SPLIT: Cycle = 4_000;
    let mut reference = build_tree100(SchedulerMode::Naive);
    reference.run_for(CYCLES);
    let reference_bytes = reference.snapshot_bytes();

    for (freeze, thaw) in [
        (SchedulerMode::FastForward, SchedulerMode::FastForward),
        (SchedulerMode::FastForward, SchedulerMode::Naive),
        (SchedulerMode::Naive, SchedulerMode::FastForward),
    ] {
        let mut first = build_tree100(freeze);
        first.run_for(SPLIT);
        // The first bursts are long done; every periodic reader is in
        // its 8 000+ cycle gap, so clusters 1–6 sleep at the split.
        for c in 1..7 {
            let id = first.node_by_label(&format!("cluster{c}")).unwrap();
            assert!(
                first.interconnect_dyn(id).unwrap().is_idle(),
                "cluster{c} must be idle at the split"
            );
        }
        let mid = first.snapshot_bytes();
        let mut resumed = build_tree100(thaw);
        resumed
            .restore_snapshot_bytes(&mid)
            .unwrap_or_else(|e| panic!("tree100: restore under {thaw:?} failed: {e:?}"));
        resumed.run_for(CYCLES - SPLIT);
        assert_eq!(
            resumed.snapshot_bytes(),
            reference_bytes,
            "tree100: frozen under {freeze:?}, resumed under {thaw:?}, diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Negative space: a snapshot must refuse a differently-shaped host.
// ---------------------------------------------------------------------

#[test]
fn snapshot_rejects_mismatched_shape() {
    let mut donor = build_stress(SchedulerMode::FastForward);
    donor.run_for(5_000);
    let bytes = donor.snapshot_bytes();
    let mut other = build_fault(SchedulerMode::FastForward);
    assert!(
        other.restore_snapshot_bytes(&bytes).is_err(),
        "a stress snapshot must not restore into the fault topology"
    );
}

// ---------------------------------------------------------------------
// Satellite sweep: snapshot at EVERY cycle of a short Fig 3(a)-style
// run. Restore-and-finish from every split point must reproduce the
// pinned goldens: the run's completion cycle and the CRC of the final
// state image. This is the exhaustive version of the spot-check oracles
// above — no cycle, including the cycles around channel-stage
// boundaries (the d_AR/d_R latency pipeline of Fig. 3(a)), may hold
// unserialized state.
// ---------------------------------------------------------------------

#[test]
fn fig3a_snapshot_sweep_every_cycle() {
    // Goldens pinned from the uninterrupted naive run; a change here
    // means the simulated microarchitecture itself changed.
    const DONE_CYCLE: Cycle = 296;
    const FINAL_STATE_CRC: u32 = 0x7890_99F8;

    let mut reference = build_fig3a_short(SchedulerMode::Naive);
    let outcome = reference.run_until_done(5_000);
    assert_eq!(
        outcome,
        sim::RunOutcome::Done(DONE_CYCLE),
        "golden completion cycle moved"
    );
    let reference_bytes = reference.snapshot_bytes();
    assert_eq!(
        sim::persist::crc32(&reference_bytes),
        FINAL_STATE_CRC,
        "golden final-state CRC moved"
    );

    // One continuous pass captures the snapshot at every cycle...
    let mut sweeper = build_fig3a_short(SchedulerMode::Naive);
    let mut per_cycle: Vec<Vec<u8>> = vec![sweeper.snapshot_bytes()];
    for _ in 0..DONE_CYCLE {
        sweeper.run_for(1);
        per_cycle.push(sweeper.snapshot_bytes());
    }

    // ...and every one of them must restore and finish on the goldens.
    for (k, bytes) in per_cycle.iter().enumerate() {
        let mut resumed = build_fig3a_short(SchedulerMode::FastForward);
        resumed
            .restore_snapshot_bytes(bytes)
            .unwrap_or_else(|e| panic!("cycle {k}: restore failed: {e:?}"));
        assert_eq!(resumed.now(), k as Cycle, "cycle {k}: restored clock");
        resumed.run_for(DONE_CYCLE - k as Cycle);
        assert_eq!(
            resumed.snapshot_bytes(),
            reference_bytes,
            "cycle {k}: restore-and-finish diverged from the pinned final state"
        );
    }
}
