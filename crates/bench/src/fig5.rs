//! Fig. 5: CHaiDNN + interfering `HA_DMA` under contention, with the
//! HyperConnect's bandwidth reservation sweep (`HC-X-Y`).
//!
//! Paper reference: with the SmartConnect the greedy DMA takes most of
//! the bandwidth and CHaiDNN keeps only a small share, with no way to
//! redistribute; with the HyperConnect, assigning X% of the bandwidth
//! to CHaiDNN (X ∈ {90, 70, 50, 30, 10}) trades DNN frames for DMA
//! jobs, and `HC-90-10` brings CHaiDNN close to its isolation rate.

use axi::lite::LiteBus;
use mem::MemConfig;
use sim::Cycle;

use crate::{make_system, Design};
use ha::chaidnn::{Chaidnn, ChaidnnConfig};
use ha::dma::{Dma, DmaConfig};
use hyperconnect::{HcConfig, HyperConnect};
use hypervisor::Hypervisor;
use mem::MemoryController;

/// Default measurement window: 200 ms at 150 MHz.
pub const DEFAULT_WINDOW: Cycle = 30_000_000;

/// Reservation period used for the sweep.
pub const PERIOD: u32 = 50_000;

/// The `X` values of the paper's `HC-X-Y` bars (CHaiDNN's share).
pub const SHARES: [u32; 5] = [90, 70, 50, 30, 10];

/// One bar pair of Fig. 5.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Configuration label (`isolation`, `SC`, `HC-90-10`, ...).
    pub label: String,
    /// CHaiDNN frames per second.
    pub chaidnn_fps: f64,
    /// DMA jobs per second.
    pub dma_jobs: f64,
}

fn contended_system(design: Design) -> crate::SocSystemBoxed {
    let mut sys = make_system(design);
    sys.add_accelerator(Box::new(Chaidnn::googlenet(ChaidnnConfig::default())))
        .unwrap();
    sys.add_accelerator(Box::new(Dma::new("HA_DMA", DmaConfig::case_study())))
        .unwrap();
    sys
}

/// Contention run on the SmartConnect (no reservation possible).
pub fn smartconnect_contention(window: Cycle) -> Bar {
    let mut sys = contended_system(Design::SmartConnect);
    sys.run_for(window);
    Bar {
        label: "SC".into(),
        chaidnn_fps: sys.rate_per_second(0),
        dma_jobs: sys.rate_per_second(1),
    }
}

/// Contention run on the HyperConnect with `share`% of the bandwidth
/// reserved to CHaiDNN via the hypervisor (the paper's `HC-X-Y`).
pub fn hyperconnect_contention(share: u32, window: Cycle) -> Bar {
    const HC_BASE: u64 = 0xA000_0000;
    let hc = HyperConnect::new(HcConfig::new(2));
    let mut bus = LiteBus::new();
    bus.map(HC_BASE, 0x1000, hc.regs().clone());
    let hv = Hypervisor::new(bus, HC_BASE).expect("device present");
    hv.hc().set_period(PERIOD).unwrap();
    hv.set_bandwidth_shares(
        &[share, 100 - share],
        MemConfig::zcu102().first_word_latency,
    )
    .unwrap();

    let mut sys = axi_hyperconnect::SocSystem::new(
        Box::new(hc) as Box<dyn axi::AxiInterconnect>,
        MemoryController::new(MemConfig::zcu102()),
    );
    sys.add_accelerator(Box::new(Chaidnn::googlenet(ChaidnnConfig::default())))
        .unwrap();
    sys.add_accelerator(Box::new(Dma::new("HA_DMA", DmaConfig::case_study())))
        .unwrap();
    sys.run_for(window);
    Bar {
        label: format!("HC-{share}-{}", 100 - share),
        chaidnn_fps: sys.rate_per_second(0),
        dma_jobs: sys.rate_per_second(1),
    }
}

/// Isolation reference bar (leftmost pair of the figure).
pub fn isolation(window: Cycle) -> Bar {
    Bar {
        label: "isolation".into(),
        chaidnn_fps: crate::fig4::chaidnn_isolation(Design::HyperConnect, window),
        dma_jobs: crate::fig4::dma_isolation(Design::HyperConnect, window),
    }
}

/// Runs the full Fig. 5 experiment: isolation, SmartConnect contention,
/// and the five `HC-X-Y` configurations.
pub fn run() -> Vec<Bar> {
    run_with_window(DEFAULT_WINDOW)
}

/// Runs with a custom measurement window.
pub fn run_with_window(window: Cycle) -> Vec<Bar> {
    let mut bars = vec![isolation(window), smartconnect_contention(window)];
    for share in SHARES {
        bars.push(hyperconnect_contention(share, window));
    }
    bars
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: Cycle = 10_000_000;

    #[test]
    fn smartconnect_contention_starves_the_dnn() {
        let iso = isolation(W);
        let sc = smartconnect_contention(W);
        assert!(
            sc.chaidnn_fps < 0.7 * iso.chaidnn_fps,
            "expected starvation: {} vs isolation {}",
            sc.chaidnn_fps,
            iso.chaidnn_fps
        );
    }

    #[test]
    fn hc_90_10_restores_near_isolation() {
        let iso = isolation(W);
        let hc90 = hyperconnect_contention(90, W);
        assert!(
            hc90.chaidnn_fps > 0.8 * iso.chaidnn_fps,
            "HC-90-10 must be close to isolation: {} vs {}",
            hc90.chaidnn_fps,
            iso.chaidnn_fps
        );
        let sc = smartconnect_contention(W);
        assert!(hc90.chaidnn_fps > sc.chaidnn_fps);
    }

    #[test]
    fn reservation_sweep_trades_fps_for_dma_jobs() {
        let bars: Vec<Bar> = [90u32, 50, 10]
            .iter()
            .map(|&s| hyperconnect_contention(s, W))
            .collect();
        // CHaiDNN fps decreases monotonically as its share shrinks...
        assert!(bars[0].chaidnn_fps > bars[1].chaidnn_fps);
        assert!(bars[1].chaidnn_fps >= bars[2].chaidnn_fps);
        // ...while the DMA picks up the released bandwidth.
        assert!(bars[2].dma_jobs > bars[0].dma_jobs);
    }
}
