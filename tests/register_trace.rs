//! Register-trace golden: the hypervisor-visible register file of a
//! 14-port HyperConnect, sampled on every cycle and on every 100th.
//!
//! The scenario mixes busy DMAs with idle ports, a regulated port that
//! throttles, a budgeted port that stalls across period boundaries, and
//! a port that is decoupled and later recoupled. A `run_polled` hook
//! reads every `PORT_*` register of every port over AXI-Lite, plus the
//! EXBAR grant counters, and folds them into one FNV-1a digest per run.
//! Naive stepping and fast-forward must both reproduce the pinned
//! digest at each cadence, so any change to when or what the
//! interconnect writes back to its counter registers fails here.

use axi::lite::LiteBus;
use axi::types::BurstSize;
use axi_hyperconnect::{SchedulerMode, SocSystem};
use ha::dma::{Dma, DmaConfig};
use ha::traffic::PeriodicReader;
use hyperconnect::regfile::{offsets, port_block_offset};
use hyperconnect::{HcConfig, HyperConnect};
use mem::{MemConfig, MemoryController};
use sim::Cycle;

const HC_BASE: u64 = 0xA000_0000;
const PORTS: usize = 14;
const PERIOD: u32 = 2_500;
const CYCLES: Cycle = 40_000;
/// Port whose long-burst reader is rate-limited by its regulator.
const REGULATED: usize = 2;
/// Port whose DMA runs out of reservation budget every period.
const BUDGETED: usize = 3;
/// Port decoupled at `DECOUPLE_AT` and recoupled at `RECOUPLE_AT`.
const TOGGLED: usize = 4;
const DECOUPLE_AT: Cycle = 9_000;
const RECOUPLE_AT: Cycle = 15_000;
/// Byte offsets of the per-port registers, `BUDGET` through `ERR_TOTAL`.
const PORT_REGS: [u64; 14] = [
    offsets::PORT_BUDGET,
    offsets::PORT_CTRL,
    offsets::PORT_MAX_OUT,
    offsets::PORT_TXN_PERIOD,
    offsets::PORT_TXN_TOTAL,
    offsets::PORT_VIOLATIONS,
    offsets::PORT_OUTSTANDING,
    offsets::PORT_QUIESCE,
    offsets::PORT_REG_RATE,
    offsets::PORT_REG_BURST,
    offsets::PORT_REG_OUT_CAP,
    offsets::PORT_REG_THROTTLE,
    offsets::PORT_REG_CREDITS,
    offsets::PORT_ERR_TOTAL,
];

/// The register-trace digest both schedulers must reproduce, sampled
/// on every cycle.
const GOLDEN_DIGEST: u64 = 0x8a67_4967_e090_819d;
/// The same trace sampled on every 100th cycle (`DECOUPLE_AT` and
/// `RECOUPLE_AT` are poll cycles), where fast-forward skips between
/// polls.
const GOLDEN_DIGEST_EVERY_100: u64 = 0xa9a6_8cbe_6d21_81e8;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn dma(src: u64, dst: u64, bytes: u64, burst_beats: u32, jobs: u64) -> Dma {
    Dma::new(
        "dma",
        DmaConfig {
            src_base: src,
            dst_base: dst,
            read_bytes: bytes,
            write_bytes: bytes,
            burst_beats,
            size: BurstSize::B16,
            max_outstanding: 4,
            jobs: Some(jobs),
        },
    )
}

/// Result of one traced run.
struct Trace {
    digest: u64,
    skipped: Cycle,
    toggled_jobs_at_recouple: u64,
    toggled_jobs_at_end: u64,
    throttle_events: u32,
    budget_stall_cycles: u64,
}

fn run(mode: SchedulerMode, every: Cycle) -> Trace {
    let hc = HyperConnect::new(HcConfig::new(PORTS));
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let port_reg = |port: usize, off: u64| HC_BASE + port_block_offset(port) + off;
    bus.write32(HC_BASE + offsets::PERIOD, PERIOD).unwrap();
    // One credit per 64-cycle window, at most two banked, per lane.
    bus.write32(port_reg(REGULATED, offsets::PORT_REG_RATE), 1)
        .unwrap();
    bus.write32(port_reg(REGULATED, offsets::PORT_REG_BURST), 2)
        .unwrap();
    bus.write32(port_reg(BUDGETED, offsets::PORT_BUDGET), 8)
        .unwrap();

    let mut sys = SocSystem::new(hc, MemoryController::new(MemConfig::zcu102()));
    sys.set_scheduler(mode);
    sys.add_accelerator(Box::new(dma(0x1000_0000, 0x1100_0000, 32 * 1024, 16, 2)))
        .unwrap();
    sys.add_accelerator(Box::new(dma(0x1200_0000, 0x1300_0000, 16 * 1024, 64, 3)))
        .unwrap();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "regulated",
        0x2000_0000,
        1 << 20,
        256,
        BurstSize::B16,
        200,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(dma(0x3000_0000, 0x3100_0000, 8 * 1024, 16, 1)))
        .unwrap();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "toggled",
        0x4000_0000,
        1 << 16,
        16,
        BurstSize::B16,
        300,
    )))
    .unwrap();
    sys.add_accelerator(Box::new(PeriodicReader::new(
        "sparse",
        0x5000_0000,
        1 << 16,
        8,
        BurstSize::B16,
        1_500,
    )))
    .unwrap();
    // Ports 6..14 stay idle for the whole run.

    let mut fnv = Fnv::new();
    let mut toggled_jobs_at_recouple = 0;
    sys.run_polled(CYCLES, every, |now, sys| {
        if now == DECOUPLE_AT {
            bus.write32(port_reg(TOGGLED, offsets::PORT_CTRL), 0)
                .unwrap();
        }
        if now == RECOUPLE_AT {
            toggled_jobs_at_recouple = sys.accelerator(TOGGLED).unwrap().jobs_completed();
            bus.write32(port_reg(TOGGLED, offsets::PORT_CTRL), 1)
                .unwrap();
        }
        fnv.fold(&now.to_le_bytes());
        for port in 0..PORTS {
            for off in PORT_REGS {
                fnv.fold(&bus.read32(port_reg(port, off)).unwrap().to_le_bytes());
            }
        }
        let grants = sys.interconnect_ref().grant_stats();
        for g in grants.ar_grants.iter().chain(&grants.aw_grants) {
            fnv.fold(&g.to_le_bytes());
        }
    });
    Trace {
        digest: fnv.0,
        skipped: sys.skipped_cycles(),
        toggled_jobs_at_recouple,
        toggled_jobs_at_end: sys.accelerator(TOGGLED).unwrap().jobs_completed(),
        throttle_events: bus
            .read32(port_reg(REGULATED, offsets::PORT_REG_THROTTLE))
            .unwrap(),
        budget_stall_cycles: sys
            .interconnect_ref()
            .port_stats(BUDGETED)
            .budget_stall_cycles,
    }
}

#[test]
fn register_trace_matches_golden_under_both_schedulers() {
    for (every, golden) in [(1, GOLDEN_DIGEST), (100, GOLDEN_DIGEST_EVERY_100)] {
        let naive = run(SchedulerMode::Naive, every);
        let ff = run(SchedulerMode::FastForward, every);
        // The scenario exercises what it claims to.
        assert!(naive.throttle_events > 0, "regulated port never throttled");
        assert!(naive.budget_stall_cycles > 0, "budgeted port never stalled");
        assert!(
            naive.toggled_jobs_at_end > naive.toggled_jobs_at_recouple,
            "recoupled port made no progress"
        );
        // At `every = 1` each cycle is its own run entry, so only the
        // sparse cadence leaves spans for fast-forward to skip.
        if every > 1 {
            assert!(ff.skipped > 0, "fast-forward skipped nothing");
        }
        assert_eq!(
            naive.digest, ff.digest,
            "every {every}: schedulers disagree on the register trace"
        );
        assert_eq!(
            naive.digest, golden,
            "every {every}: register trace moved: {:#018x}",
            naive.digest
        );
    }
}
