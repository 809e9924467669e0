//! The steady state of the bare quickstart system allocates nothing.
//!
//! Two case-study DMAs (64 KiB read plus 64 KiB write per job, eight
//! jobs each) run behind a 2-port HyperConnect against the ZCU102 memory
//! model, observability off. Once every ring, queue and scratch buffer
//! has reached its working size (40 000 cycles in), running the rest of
//! the workload to completion must make almost no heap allocations: the
//! per-transaction paths (burst splitting, beat payloads, queue slots)
//! reuse storage. A per-transaction allocation shows up here as hundreds.
//!
//! The counter is process-wide, so this binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use axi_hyperconnect::SocSystem;
use ha::dma::{Dma, DmaConfig};
use hyperconnect::{HcConfig, HyperConnect};
use mem::{MemConfig, MemoryController};

/// Allocations (including reallocations) since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to the system allocator with the
// caller's own arguments, so `System`'s guarantees carry over; the
// counter is a relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Cycles run before counting starts.
const WARM: u64 = 40_000;

/// Allocations allowed from the warm point to completion.
const MAX_ALLOCS: u64 = 8;

#[test]
fn warm_quickstart_runs_to_completion_without_allocating() {
    let mut memory = MemoryController::new(MemConfig::zcu102());
    memory.memory_mut().fill_pattern(0x1000_0000, 64 * 1024);
    let mut sys = SocSystem::new(HyperConnect::new(HcConfig::new(2)), memory);
    for (name, src, dst) in [
        ("dma0", 0x1000_0000u64, 0x2000_0000u64),
        ("dma1", 0x3000_0000, 0x3800_0000),
    ] {
        sys.add_accelerator(Box::new(Dma::new(
            name,
            DmaConfig {
                src_base: src,
                dst_base: dst,
                read_bytes: 64 * 1024,
                write_bytes: 64 * 1024,
                jobs: Some(8),
                ..DmaConfig::case_study()
            },
        )))
        .unwrap();
    }
    sys.run_for(WARM);
    let before = ALLOCS.load(Ordering::Relaxed);
    let outcome = sys.run_until_done(10_000_000);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(outcome.is_done(), "{outcome}");
    assert!(
        sys.now() > 2 * WARM,
        "the measured window must cover most of the run"
    );
    assert!(
        allocs <= MAX_ALLOCS,
        "{allocs} allocations from cycle {WARM} to completion at {}",
        sys.now()
    );
}
