//! Fig. 3(b): maximum memory access time versus amount of data.
//!
//! Paper reference (ZCU102): with the HyperConnect, response times for
//! single-word (4 B) and 16-word-burst (64 B) accesses improve by 28%
//! and 25% respectively over the SmartConnect, while the throughput on
//! 16 KiB (256 bursts) and 4 MiB (65536 bursts) transfers is the same
//! (the interconnect latency is amortized by pipelining).
//!
//! The experiment issues a DMA read of each size through each design
//! into the modeled ZCU102 memory and records the completion time from
//! first request to last data beat, repeating each access several times
//! and keeping the maximum (the paper reports maxima; averages differ
//! by less than 5%).

use axi::types::BurstSize;
use ha::dma::{Dma, DmaConfig};
use sim::Cycle;

use crate::{make_system, Design};

/// The data sizes of the paper's sweep.
pub const SIZES: [u64; 4] = [4, 64, 16 << 10, 4 << 20];

/// Result row: one data size, both designs.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Max completion cycles through the HyperConnect.
    pub hc_cycles: Cycle,
    /// Max completion cycles through the SmartConnect.
    pub sc_cycles: Cycle,
    /// Mean completion cycles through the HyperConnect.
    pub hc_mean: f64,
    /// Mean completion cycles through the SmartConnect.
    pub sc_mean: f64,
}

impl Row {
    /// Percent improvement of the HyperConnect over the SmartConnect.
    pub fn improvement_percent(&self) -> f64 {
        crate::report::improvement_percent(self.sc_cycles as f64, self.hc_cycles as f64)
    }

    /// Largest mean-to-max deviation across both designs, as a
    /// fraction — the paper reports averages differ from maxima by
    /// less than 5%.
    pub fn mean_max_gap(&self) -> f64 {
        let hc = 1.0 - self.hc_mean / self.hc_cycles.max(1) as f64;
        let sc = 1.0 - self.sc_mean / self.sc_cycles.max(1) as f64;
        hc.max(sc)
    }
}

/// Maximum access time over `repeats` accesses of `bytes` via `design`.
pub fn access_time(design: Design, bytes: u64, repeats: u64) -> Cycle {
    access_stats(design, bytes, repeats).0
}

/// `(max, mean)` access time over `repeats` accesses.
pub fn access_stats(design: Design, bytes: u64, repeats: u64) -> (Cycle, f64) {
    let mut sys = make_system(design);
    // The paper's DMAs issue 16-word (16 x 4 B) bursts.
    let cfg = DmaConfig::reader(bytes, 16, BurstSize::B4).jobs(repeats);
    sys.add_accelerator(Box::new(Dma::new("probe", cfg)))
        .unwrap();
    let out = sys.run_until_done(1_000_000_000);
    assert!(out.is_done(), "access did not complete: {out}");
    // Job latency covers issue-to-last-beat of the whole access.
    let dma: &Dma = sys
        .accelerator(0)
        .unwrap()
        .as_any()
        .downcast_ref()
        .expect("probe is a Dma");
    (
        dma.job_latency().max().expect("at least one job"),
        dma.job_latency().mean().expect("at least one job"),
    )
}

/// Runs the full sweep.
pub fn run() -> Vec<Row> {
    run_with_repeats(5)
}

/// Runs the sweep with a configurable repeat count (the big transfers
/// are deterministic; repeats mostly matter for the small ones).
fn run_with_repeats(repeats: u64) -> Vec<Row> {
    SIZES
        .iter()
        .map(|&bytes| {
            let (hc_cycles, hc_mean) = access_stats(Design::HyperConnect, bytes, repeats);
            let (sc_cycles, sc_mean) = access_stats(Design::SmartConnect, bytes, repeats);
            Row {
                bytes,
                hc_cycles,
                sc_cycles,
                hc_mean,
                sc_mean,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_accesses_improve_like_the_paper() {
        // Single word: paper reports 28% improvement; 16-word burst 25%.
        let (hc_cycles, hc_mean) = access_stats(Design::HyperConnect, 4, 3);
        let (sc_cycles, sc_mean) = access_stats(Design::SmartConnect, 4, 3);
        let one_word = Row {
            bytes: 4,
            hc_cycles,
            sc_cycles,
            hc_mean,
            sc_mean,
        };
        let imp = one_word.improvement_percent();
        assert!((20.0..45.0).contains(&imp), "1-word improvement {imp}%");
        let (hc_cycles, hc_mean) = access_stats(Design::HyperConnect, 64, 3);
        let (sc_cycles, sc_mean) = access_stats(Design::SmartConnect, 64, 3);
        let burst = Row {
            bytes: 64,
            hc_cycles,
            sc_cycles,
            hc_mean,
            sc_mean,
        };
        let imp = burst.improvement_percent();
        assert!((15.0..40.0).contains(&imp), "16-word improvement {imp}%");
    }

    #[test]
    fn averages_within_five_percent_of_maxima() {
        // Paper: "Average times differ by less than 5% with respect to
        // maximum times".
        for row in run_with_repeats(5) {
            if row.bytes > 4 << 20 {
                continue;
            }
            assert!(
                row.mean_max_gap() < 0.05,
                "{} B: mean/max gap {:.3}",
                row.bytes,
                row.mean_max_gap()
            );
        }
    }

    #[test]
    fn throughput_comparable_at_16kib() {
        let hc = access_time(Design::HyperConnect, 16 << 10, 1);
        let sc = access_time(Design::SmartConnect, 16 << 10, 1);
        let ratio = sc as f64 / hc as f64;
        assert!(
            (0.95..1.1).contains(&ratio),
            "16 KiB throughput must be comparable: {hc} vs {sc}"
        );
    }
}
