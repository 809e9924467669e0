//! Criterion benches of the simulator itself: how fast the models run
//! on the host. Useful to size experiments and catch performance
//! regressions in the kernel primitives.

use axi::types::BurstSize;
use axi::{ArBeat, AxiInterconnect};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_timed_fifo(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/timed_fifo");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("push_pop_1k", |b| {
        b.iter(|| {
            let mut f = sim::TimedFifo::new(16, 1);
            for now in 0..1024u64 {
                let _ = f.push(now, now);
                black_box(f.pop_ready(now));
            }
            f
        })
    });
    g.finish();
}

fn bench_hyperconnect_cycles(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/system_cycles");
    const CYCLES: u64 = 100_000;
    g.throughput(Throughput::Elements(CYCLES));
    g.bench_function("contended_2port_100k", |b| {
        b.iter(|| {
            let mut sys = bench::make_system(bench::Design::HyperConnect);
            sys.add_accelerator(Box::new(ha::traffic::BandwidthStealer::new(
                "a",
                0x1000_0000,
                1 << 20,
                16,
                BurstSize::B16,
            )))
            .unwrap();
            sys.add_accelerator(Box::new(ha::traffic::BandwidthStealer::new(
                "b",
                0x3000_0000,
                1 << 20,
                256,
                BurstSize::B16,
            )))
            .unwrap();
            sys.run_for(CYCLES);
            black_box(sys.now())
        })
    });
    g.finish();
}

fn bench_interconnect_only(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/interconnect_tick");
    const CYCLES: u64 = 100_000;
    g.throughput(Throughput::Elements(CYCLES));
    g.bench_function("hyperconnect_idle_100k", |b| {
        b.iter(|| {
            use sim::Component;
            let mut hc = hyperconnect::HyperConnect::new(hyperconnect::HcConfig::new(2));
            for now in 0..CYCLES {
                hc.tick(now);
            }
            black_box(hc.is_idle())
        })
    });
    g.bench_function("hyperconnect_loaded_100k", |b| {
        b.iter(|| {
            use sim::Component;
            let mut hc = hyperconnect::HyperConnect::new(hyperconnect::HcConfig::new(2));
            for now in 0..CYCLES {
                let _ = hc
                    .port((now % 2) as usize)
                    .ar
                    .push(now, ArBeat::new(now * 64, 16, BurstSize::B4));
                hc.tick(now);
                while hc.mem_port().ar.pop_ready(now).is_some() {}
            }
            black_box(hc.num_ports())
        })
    });
    g.finish();
}

fn bench_efifo(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/efifo");
    const BEATS: u64 = 1024;
    g.throughput(Throughput::Elements(BEATS));
    g.bench_function("ar_push_pop_1k", |b| {
        b.iter(|| {
            let mut e = hyperconnect::efifo::EFifo::new(8, 64, 8);
            let mut popped = 0u64;
            for now in 0..BEATS {
                let _ = e
                    .port
                    .ar
                    .push(now, ArBeat::new(now * 64, 16, BurstSize::B4));
                popped += e.pop_ar(now).is_some() as u64;
            }
            black_box(popped)
        })
    });
    g.finish();
}

fn bench_efifo_contended(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/efifo");
    const CYCLES: u64 = 1024;
    g.throughput(Throughput::Elements(CYCLES));
    // Full-queue backpressure: a producer pushes every cycle but the
    // consumer drains only every other cycle, so the queue saturates
    // and half the pushes bounce off the full FIFO — the contended
    // steady state of Fig. 3(b)'s 4 MiB point.
    g.bench_function("ar_contended_backpressure_1k", |b| {
        b.iter(|| {
            let mut e = hyperconnect::efifo::EFifo::new(8, 64, 8);
            let mut accepted = 0u64;
            for now in 0..CYCLES {
                accepted += e
                    .port
                    .ar
                    .push(now, ArBeat::new(now * 64, 16, BurstSize::B4))
                    .is_ok() as u64;
                if now % 2 == 0 {
                    black_box(e.pop_ar(now));
                }
            }
            black_box(accepted)
        })
    });
    g.finish();
}

fn bench_payload_transfer(c: &mut Criterion) {
    use axi::{Payload, WBeat};

    let mut g = c.benchmark_group("kernel/payload");
    const BEATS: u64 = 1024;
    g.throughput(Throughput::Bytes(BEATS * 64));
    // The per-beat data path of every W/R channel: synthesize a 64-byte
    // payload, move the beat through a ring-backed FIFO, and read it on
    // the far side. With inline payload storage this is alloc-free; the
    // bench guards the zero-heap property's cycle cost.
    g.bench_function("wbeat_64b_through_fifo_1k", |b| {
        b.iter(|| {
            let mut f: sim::TimedFifo<WBeat> = sim::TimedFifo::new(16, 1);
            let mut sum = 0u64;
            for now in 0..BEATS {
                let data = Payload::from_fn(64, |i| (now as u8).wrapping_add(i as u8));
                let _ = f.push(now, WBeat::new(data, true));
                if let Some(beat) = f.pop_ready(now) {
                    sum += beat.data[0] as u64;
                }
            }
            black_box(sum)
        })
    });
    g.finish();
}

fn bench_exbar_arbitration(c: &mut Criterion) {
    use hyperconnect::exbar::Exbar;
    use hyperconnect::portset::PortSet;
    use hyperconnect::supervisor::SubAr;
    use hyperconnect::TransactionSupervisor;

    let mut g = c.benchmark_group("kernel/exbar");
    const CYCLES: u64 = 4096;
    const PORTS: usize = 4;
    g.throughput(Throughput::Elements(CYCLES));
    g.bench_function("arbitrate_ar_4port", |b| {
        b.iter(|| {
            // Routing depth sized so the route queue never backpressures:
            // the bench measures round-robin grant cost, not R-channel
            // completion flow.
            let mut exbar = Exbar::new(PORTS, CYCLES as usize);
            let mut sups: Vec<TransactionSupervisor> =
                (0..PORTS).map(|_| TransactionSupervisor::new(64)).collect();
            let mut mem_port = axi::AxiPort::new(axi::PortConfig::wire());
            // Every port keeps a sub-request staged.
            let staged = PortSet::full(PORTS);
            for now in 0..CYCLES {
                for (p, ts) in sups.iter_mut().enumerate() {
                    if !ts.ar_stage.is_full() {
                        let beat = ArBeat::new(((p as u64) << 28) | (now * 64), 15, BurstSize::B4);
                        let _ = ts.ar_stage.push(
                            now,
                            SubAr {
                                beat,
                                final_sub: true,
                            },
                        );
                    }
                }
                exbar.arbitrate_ar(now, &mut sups, &staged);
                exbar.move_to_mem(now, &mut mem_port);
                while mem_port.ar.pop_ready(now).is_some() {}
            }
            black_box(exbar.stats().ar_grants.iter().sum::<u64>())
        })
    });
    g.finish();
}

criterion_group!(
    kernel,
    bench_timed_fifo,
    bench_hyperconnect_cycles,
    bench_interconnect_only,
    bench_efifo,
    bench_efifo_contended,
    bench_payload_transfer,
    bench_exbar_arbitration
);
criterion_main!(kernel);
