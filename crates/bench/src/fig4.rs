//! Fig. 4: CHaiDNN and `HA_DMA` performance *in isolation* under both
//! interconnects.
//!
//! Paper reference: no performance degradation when using the
//! HyperConnect with respect to the SmartConnect — each accelerator,
//! running alone, achieves the same rate per second through either
//! design (the HyperConnect's latency advantage is negligible against
//! whole-workload runtimes; its equalization does not reduce
//! throughput).

use sim::Cycle;

use crate::{make_system, Design};
use ha::chaidnn::{Chaidnn, ChaidnnConfig};
use ha::dma::{Dma, DmaConfig};

/// Default measurement window: 200 ms at 150 MHz.
pub const DEFAULT_WINDOW: Cycle = 30_000_000;

/// One accelerator's isolation rates under both designs.
#[derive(Debug, Clone, Copy)]
pub struct IsolationRow {
    /// Accelerator label.
    pub name: &'static str,
    /// Rate per second through the HyperConnect.
    pub hc_rate: f64,
    /// Rate per second through the SmartConnect.
    pub sc_rate: f64,
}

impl IsolationRow {
    /// `hc_rate / sc_rate` — the paper expects ≈ 1.0.
    pub fn ratio(&self) -> f64 {
        self.hc_rate / self.sc_rate.max(1e-12)
    }
}

/// CHaiDNN frames/s alone on `design` over `window` cycles.
pub fn chaidnn_isolation(design: Design, window: Cycle) -> f64 {
    let mut sys = make_system(design);
    sys.add_accelerator(Box::new(Chaidnn::googlenet(ChaidnnConfig::default())))
        .unwrap();
    sys.run_for(window);
    sys.rate_per_second(0)
}

/// DMA jobs/s (4 MiB in + 4 MiB out per job) alone on `design`.
pub fn dma_isolation(design: Design, window: Cycle) -> f64 {
    let mut sys = make_system(design);
    sys.add_accelerator(Box::new(Dma::new("HA_DMA", DmaConfig::case_study())))
        .unwrap();
    sys.run_for(window);
    sys.rate_per_second(0)
}

/// Runs the full Fig. 4 experiment.
pub fn run() -> Vec<IsolationRow> {
    run_with_window(DEFAULT_WINDOW)
}

/// Runs with a custom measurement window.
pub fn run_with_window(window: Cycle) -> Vec<IsolationRow> {
    vec![
        IsolationRow {
            name: "CHaiDNN (fps)",
            hc_rate: chaidnn_isolation(Design::HyperConnect, window),
            sc_rate: chaidnn_isolation(Design::SmartConnect, window),
        },
        IsolationRow {
            name: "HA_DMA (jobs/s)",
            hc_rate: dma_isolation(Design::HyperConnect, window),
            sc_rate: dma_isolation(Design::SmartConnect, window),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolation_rates_match_across_designs() {
        // A shorter window keeps the test fast; rates are per-second so
        // the comparison is window-independent once a few jobs land.
        let rows = run_with_window(8_000_000);
        for row in &rows {
            assert!(row.hc_rate > 0.0, "{} idle on HyperConnect", row.name);
            assert!(row.sc_rate > 0.0, "{} idle on SmartConnect", row.name);
            let ratio = row.ratio();
            assert!(
                (0.9..1.15).contains(&ratio),
                "{}: isolation ratio {ratio} (hc {} vs sc {})",
                row.name,
                row.hc_rate,
                row.sc_rate
            );
        }
    }
}
