//! The wake contract every node keeps, which lets the topology engine
//! leave a node untouched while it sleeps.
//!
//! Each accelerator model runs on port 0 of a one-port HyperConnect in
//! front of a memory controller. After every tick that returns `false`
//! at cycle `t`, a copy of the model (restored from its saved bytes) is
//! ticked on every cycle before its horizon — the earlier of its own
//! `next_event` and the next R or B beat due on its port — against a
//! copy of the port nobody else touches. Every such tick must return
//! `false`, leave the saved bytes as they were and leave `next_event`
//! where it was (the stability clause of the contract). Separately, a
//! tick that changes `jobs_completed()` or `is_done()` must return
//! `true`.
//!
//! The HyperConnect, the SmartConnect and the memory controller take
//! the same sleep check: after a no-progress tick, a restored copy with
//! ports nobody touches is ticked on every cycle before its horizon
//! (for the memory, the earlier of its own `next_event` and the next
//! request due on its master port), and every tick must return
//! `false`, keep the saved bytes and report the same horizon.

use axi::types::BurstSize;
use axi::{AxiInterconnect, AxiPort};
use ha::chaidnn::{Chaidnn, ChaidnnConfig, Layer};
use ha::dma::{Dma, DmaConfig};
use ha::fault::{
    BoundaryViolator, DelayedFault, RogueReader, RunawayMaster, StalledWriter, WlastViolator,
};
use ha::scoreboard::ScoreboardMaster;
use ha::traffic::{BandwidthStealer, PeriodicReader, RandomTraffic};
use ha::Accelerator;
use hyperconnect::regfile::{offsets, port_block_offset};
use hyperconnect::{HcConfig, HyperConnect};
use mem::{MemConfig, MemoryController};
use sim::persist::{SnapshotReader, SnapshotWriter};
use sim::{Component, Cycle};
use smartconnect::{ScConfig, SmartConnect};

/// Cycles of quiet ticking checked after each no-progress tick, at most.
const LOOKAHEAD: Cycle = 24;

fn saved(acc: &dyn Accelerator) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    acc.save_state(&mut w);
    w.into_bytes()
}

/// The cycle the engine would next tick a model that just returned
/// `false` at `now` (`Cycle::MAX` when only port traffic can wake it).
fn horizon(acc: &dyn Accelerator, port: &AxiPort, now: Cycle) -> Cycle {
    [
        acc.next_event(now),
        port.r.next_ready_at(),
        port.b.next_ready_at(),
    ]
    .into_iter()
    .flatten()
    .min()
    .map_or(Cycle::MAX, |h| h.max(now + 1))
}

/// Runs the model built by `make` for `cycles` and checks the contract
/// after every no-progress tick; returns how many ticks were checked.
fn check(make: impl Fn() -> Box<dyn Accelerator>, cycles: Cycle) -> u64 {
    let mut acc = make();
    let name = acc.name().to_owned();
    let mut hc = HyperConnect::new(HcConfig::new(1));
    let mut memory = MemoryController::new(MemConfig::default());
    let mut checked = 0;
    for now in 0..cycles {
        let (jobs, done) = (acc.jobs_completed(), acc.is_done());
        let progress = acc.tick(now, hc.port(0));
        assert!(
            progress || (acc.jobs_completed(), acc.is_done()) == (jobs, done),
            "{name}: a tick at {now} changed the job count or done flag without progress"
        );
        if !progress {
            let bytes = saved(acc.as_ref());
            let hint = acc.next_event(now);
            let mut port = hc.port(0).clone();
            let until = horizon(acc.as_ref(), &port, now).min(now + 1 + LOOKAHEAD);
            let mut copy = make();
            copy.restore_state(&mut SnapshotReader::new(&bytes))
                .expect("a model restores its own bytes");
            for t in now + 1..until {
                assert!(
                    !copy.tick(t, &mut port),
                    "{name}: asleep since {now}, progressed at {t}"
                );
                assert_eq!(
                    saved(copy.as_ref()),
                    bytes,
                    "{name}: asleep since {now}, changed state at {t}"
                );
                assert_eq!(
                    copy.next_event(t),
                    hint,
                    "{name}: asleep since {now}, moved its horizon at {t}"
                );
            }
            checked += until - now - 1;
        }
        hc.tick(now);
        memory.tick(now, hc.mem_port());
    }
    checked
}

/// The first cycle a node that returned `false` at `now` must tick at
/// again, at most [`LOOKAHEAD`] cycles on.
fn wake(heads: impl IntoIterator<Item = Option<Cycle>>, now: Cycle) -> Cycle {
    heads
        .into_iter()
        .flatten()
        .min()
        .map_or(Cycle::MAX, |h| h.max(now + 1))
        .min(now + 1 + LOOKAHEAD)
}

/// Runs three masters on the interconnect built by `make`, in front of
/// a memory controller, for `cycles`, and puts the interconnect and the
/// memory through the sleep check after each of their no-progress
/// ticks. Returns the cycles checked for each.
fn check_fabric<I: AxiInterconnect>(make: impl Fn() -> I, cycles: Cycle) -> (u64, u64) {
    let mut accs: [Box<dyn Accelerator>; 3] = [
        Box::new(PeriodicReader::new(
            "per",
            0,
            1 << 16,
            8,
            BurstSize::B16,
            300,
        )),
        Box::new(PeriodicReader::new(
            "long",
            1 << 20,
            1 << 16,
            256,
            BurstSize::B16,
            200,
        )),
        Box::new(Dma::new(
            "dma",
            DmaConfig {
                read_bytes: 2048,
                write_bytes: 2048,
                jobs: Some(4),
                ..DmaConfig::case_study()
            },
        )),
    ];
    let mut ic = make();
    let name = ic.name();
    let new_memory = || MemoryController::new(MemConfig::zcu102());
    let mut memory = new_memory();
    let (mut ic_checked, mut mem_checked) = (0, 0);
    for now in 0..cycles {
        for (i, acc) in accs.iter_mut().enumerate() {
            acc.tick(now, ic.port(i));
        }
        if !ic.tick(now) {
            let mut w = SnapshotWriter::new();
            ic.save_state(&mut w);
            let bytes = w.into_bytes();
            let hint = ic.next_event(now);
            let mut copy = make();
            copy.restore_state(&mut SnapshotReader::new(&bytes))
                .expect("an interconnect restores its own bytes");
            let until = wake([hint], now);
            for t in now + 1..until {
                assert!(
                    !copy.tick(t),
                    "{name}: asleep since {now}, progressed at {t}"
                );
                let mut w = SnapshotWriter::new();
                copy.save_state(&mut w);
                assert!(
                    w.into_bytes() == bytes,
                    "{name}: asleep since {now}, changed state at {t}"
                );
                assert_eq!(
                    copy.next_event(t),
                    hint,
                    "{name}: asleep since {now}, moved its horizon at {t}"
                );
            }
            ic_checked += until - now - 1;
        }
        if !memory.tick(now, ic.mem_port()) {
            let mut w = SnapshotWriter::new();
            memory.save_state(&mut w);
            let bytes = w.into_bytes();
            let hint = memory.next_event(now);
            let mut port = ic.mem_port().clone();
            let activity = port.activity();
            let until = wake(
                [
                    hint,
                    port.ar.next_ready_at(),
                    port.aw.next_ready_at(),
                    port.w.next_ready_at(),
                ],
                now,
            );
            let mut copy = new_memory();
            copy.restore_state(&mut SnapshotReader::new(&bytes))
                .expect("a memory controller restores its own bytes");
            for t in now + 1..until {
                assert!(
                    !copy.tick(t, &mut port),
                    "memory behind {name}: asleep since {now}, progressed at {t}"
                );
                let mut w = SnapshotWriter::new();
                copy.save_state(&mut w);
                assert!(
                    w.into_bytes() == bytes && port.activity() == activity,
                    "memory behind {name}: asleep since {now}, changed state at {t}"
                );
                assert_eq!(
                    copy.next_event(t),
                    hint,
                    "memory behind {name}: asleep since {now}, moved its horizon at {t}"
                );
            }
            mem_checked += until - now - 1;
        }
    }
    (ic_checked, mem_checked)
}

/// A three-port HyperConnect with reservation on (port 0 holds a
/// budget of 3 sub-transactions per 700-cycle period) and port 1
/// regulated to 1 credit per 64-cycle window with one sub-transaction
/// outstanding, so its long bursts throttle right after a completion.
fn reserved_hyperconnect() -> HyperConnect {
    let hc = HyperConnect::new(HcConfig::new(3));
    let regs = hc.regs();
    regs.write32(offsets::PERIOD, 700);
    regs.write32(port_block_offset(0) + offsets::PORT_BUDGET, 3);
    let p1 = port_block_offset(1);
    regs.write32(p1 + offsets::PORT_REG_RATE, 1);
    regs.write32(p1 + offsets::PORT_REG_BURST, 1);
    regs.write32(p1 + offsets::PORT_MAX_OUT, 1);
    hc
}

#[test]
fn hyperconnect_and_memory_keep_the_wake_contract() {
    let (ic, mem) = check_fabric(reserved_hyperconnect, 12_000);
    assert!(
        ic > 0 && mem > 0,
        "checked {ic} interconnect and {mem} memory cycles"
    );
}

#[test]
fn smartconnect_and_memory_keep_the_wake_contract() {
    let make = || SmartConnect::new(ScConfig::new(3));
    let (ic, mem) = check_fabric(make, 12_000);
    assert!(
        ic > 0 && mem > 0,
        "checked {ic} interconnect and {mem} memory cycles"
    );
}

#[test]
fn dma_keeps_the_wake_contract() {
    let copy = || -> Box<dyn Accelerator> {
        Box::new(Dma::new(
            "dma",
            DmaConfig {
                read_bytes: 4096,
                write_bytes: 4096,
                jobs: Some(3),
                ..DmaConfig::case_study()
            },
        ))
    };
    assert!(check(copy, 8_000) > 0);
    let reader = || -> Box<dyn Accelerator> {
        Box::new(Dma::new("rd", DmaConfig::reader(8192, 16, BurstSize::B16)))
    };
    assert!(check(reader, 4_000) > 0);
}

#[test]
fn chaidnn_keeps_the_wake_contract() {
    let make = || -> Box<dyn Accelerator> {
        let layers = vec![
            Layer {
                name: "conv1",
                weight_bytes: 2048,
                input_bytes: 1024,
                output_bytes: 1024,
                compute_cycles: 300,
            },
            Layer {
                name: "fc",
                weight_bytes: 512,
                input_bytes: 256,
                output_bytes: 64,
                compute_cycles: 40,
            },
        ];
        Box::new(Chaidnn::new(
            "dnn",
            layers,
            ChaidnnConfig {
                frames: Some(2),
                ..ChaidnnConfig::default()
            },
        ))
    };
    assert!(check(make, 6_000) > 0);
}

#[test]
fn traffic_generators_keep_the_wake_contract() {
    let periodic = || -> Box<dyn Accelerator> {
        Box::new(PeriodicReader::new(
            "per",
            0,
            1 << 16,
            8,
            BurstSize::B16,
            200,
        ))
    };
    assert!(check(periodic, 5_000) > 0);
    let stealer = || -> Box<dyn Accelerator> {
        Box::new(BandwidthStealer::new(
            "steal",
            0,
            1 << 16,
            64,
            BurstSize::B16,
        ))
    };
    assert!(check(stealer, 3_000) > 0);
    let random = || -> Box<dyn Accelerator> {
        Box::new(RandomTraffic::new(
            "rnd",
            0,
            1 << 16,
            BurstSize::B16,
            16,
            60,
            7,
        ))
    };
    assert!(check(random, 6_000) > 0);
}

#[test]
fn scoreboard_keeps_the_wake_contract() {
    let make = || -> Box<dyn Accelerator> {
        Box::new(ScoreboardMaster::new("sb", 0x4000, 4096, 8, BurstSize::B8, 3).gap(50))
    };
    assert!(check(make, 6_000) > 0);
}

#[test]
fn fault_models_keep_the_wake_contract() {
    let rogue = || -> Box<dyn Accelerator> {
        Box::new(RogueReader::new(
            "rogue",
            0xFFFF_F000_0000,
            4,
            BurstSize::B8,
        ))
    };
    let boundary = || -> Box<dyn Accelerator> {
        Box::new(BoundaryViolator::new("4k", 0x0FC0, 16, BurstSize::B16))
    };
    let wlast = || -> Box<dyn Accelerator> {
        Box::new(WlastViolator::new("wlast", 0x2000, 8, BurstSize::B8))
    };
    let stalled = || -> Box<dyn Accelerator> {
        Box::new(StalledWriter::new("stall", 0x3000, 8, BurstSize::B8))
    };
    let runaway = || -> Box<dyn Accelerator> {
        Box::new(RunawayMaster::new("runaway", 0, 1 << 16, 8, BurstSize::B16))
    };
    let delayed = || -> Box<dyn Accelerator> {
        Box::new(DelayedFault::new(
            Box::new(StalledWriter::new("late", 0x5000, 8, BurstSize::B8)),
            700,
        ))
    };
    for (make, cycles) in [
        (&rogue as &dyn Fn() -> Box<dyn Accelerator>, 3_000),
        (&boundary, 3_000),
        (&wlast, 3_000),
        (&stalled, 3_000),
        (&runaway, 3_000),
        (&delayed, 3_000),
    ] {
        check(make, cycles);
    }
}
