//! Fabric faults end to end: a seeded memory-side injector corrupts
//! live read traffic (spurious SLVERRs plus single- and double-bit
//! payload flips), the ECC model corrects what it can and announces
//! what it cannot, the scoreboard oracle retries transient errors with
//! capped exponential backoff inside the closed-form completion bound,
//! and the hypervisor's integrity monitor quarantines a hard-error
//! region onto a spare — with zero silent corruption across every
//! stage.
//!
//! Run with: `cargo run --release --example memory_integrity`

use axi::lite::LiteBus;
use axi::retry::RetryPolicy;
use axi::types::{BurstSize, PortId};
use axi_hyperconnect::SocSystem;
use ha::scoreboard::ScoreboardMaster;
use hyperconnect::analysis::ServiceModel;
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::{Hypervisor, IntegrityPolicy};
use mem::{MemConfig, MemFaultConfig, MemoryController, RegionRemap};

const HC_BASE: u64 = 0xA000_0000;
const ORACLE_BASE: u64 = 0x2000_0000;
const ORACLE_SPAN: u64 = 16 * 256;
const SPARE_BASE: u64 = 0x2800_0000;

const POLICY: RetryPolicy = RetryPolicy {
    max_attempts: 10,
    backoff_base: 2,
    backoff_cap: 64,
};

fn oracle(seed: u64) -> ScoreboardMaster {
    ScoreboardMaster::new("oracle", ORACLE_BASE, ORACLE_SPAN, 16, BurstSize::B16, seed)
        .policy(POLICY)
        .jobs(30)
}

/// Stage 1+2: transient faults (spurious SLVERR + bit flips under ECC).
/// Every burst retries to a verified completion.
fn transient_stage() {
    let mut sys = SocSystem::new(
        HyperConnect::new(HcConfig::new(2)),
        MemoryController::new(MemConfig::zcu102()),
    );
    sys.memory_mut().attach_fault_injector(
        MemFaultConfig::new(11)
            .spurious_slverr(0.12)
            .flip_single(0.08)
            .flip_double(0.02)
            .ecc(true),
    );
    sys.add_accelerator(Box::new(oracle(5))).unwrap();
    sys.run_for(80_000);

    let sb = sys
        .accelerator(0)
        .unwrap()
        .as_any()
        .downcast_ref::<ScoreboardMaster>()
        .unwrap();
    let s = sb.stats();
    let inj = sys.memory().fault_stats().unwrap();
    println!("== transient faults under ECC + retry ==");
    println!(
        "injector: {} spurious SLVERRs, {} single flips (ECC-corrected {}), \
         {} double flips (detected, uncorrectable {})",
        inj.spurious_errors, inj.single_flips, inj.corrected, inj.double_flips, inj.uncorrectable
    );
    println!(
        "oracle:   {} bursts verified, {} announced errors retried ({} retries), \
         {} aborted, {} SILENT CORRUPTIONS",
        s.bursts_verified, s.announced_errors, s.retries, s.aborted_ops, s.silent_corruptions
    );
    let first_word = MemConfig::zcu102().first_word_latency;
    let model = ServiceModel::hyperconnect(2, 16, first_word).max_outstanding(4);
    let bound = model.retry_completion_bound(&POLICY, s.worst_faults_per_op + 1);
    println!(
        "bound:    worst op completion {} cycles <= derived bound {} cycles\n",
        s.worst_completion, bound
    );
    assert_eq!(s.silent_corruptions, 0);
    assert!(s.worst_completion <= bound);
}

/// Stage 3: a hard-error region. The integrity monitor trips past its
/// error budget, the hypervisor quarantines the region onto a spare,
/// and verified round trips resume.
fn quarantine_stage() {
    let hc = HyperConnect::new(HcConfig::new(2));
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let mut hv = Hypervisor::new(bus, HC_BASE).unwrap();
    hv.set_integrity_policy(PortId(0), IntegrityPolicy { errors_allowed: 2 })
        .unwrap();

    let mut sys = SocSystem::new(
        hc,
        MemoryController::new(
            MemConfig::zcu102().slverr_range(ORACLE_BASE, ORACLE_BASE + ORACLE_SPAN),
        ),
    );
    sys.add_accelerator(Box::new(oracle(13))).unwrap();

    println!("== hard-error region quarantine ==");
    sys.run_polled(80_000, 50, |now, sys| {
        for ev in hv.poll_integrity().unwrap() {
            println!(
                "cycle {now}: port {} exceeded its error budget \
                 (ERR_TOTAL {} > {} allowed) — quarantining {:#x}..{:#x} onto {SPARE_BASE:#x}",
                ev.port.0,
                ev.err_total,
                ev.errors_allowed,
                ORACLE_BASE,
                ORACLE_BASE + ORACLE_SPAN
            );
            sys.memory_mut().quarantine_remap(RegionRemap {
                lo: ORACLE_BASE,
                hi: ORACLE_BASE + ORACLE_SPAN,
                spare_base: SPARE_BASE,
            });
            (sys.accelerator_mut(0).unwrap() as &mut dyn std::any::Any)
                .downcast_mut::<ScoreboardMaster>()
                .unwrap()
                .note_remap(ORACLE_BASE, ORACLE_BASE + ORACLE_SPAN);
        }
    });

    let sb = sys
        .accelerator(0)
        .unwrap()
        .as_any()
        .downcast_ref::<ScoreboardMaster>()
        .unwrap();
    let s = sb.stats();
    println!(
        "oracle:   {} announced errors before quarantine, {} aborted ops, \
         {} bursts verified of which {} after the remap, {} SILENT CORRUPTIONS",
        s.announced_errors,
        s.aborted_ops,
        s.bursts_verified,
        s.verified_after_remap,
        s.silent_corruptions
    );
    assert_eq!(s.silent_corruptions, 0);
    assert!(s.verified_after_remap > 0);
    println!("degraded mode: region remapped, data integrity preserved");
}

fn main() {
    transient_stage();
    quarantine_stage();
}
