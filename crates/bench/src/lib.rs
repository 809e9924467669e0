//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment lives in its own module and returns a structured
//! result; thin binaries (`src/bin/*`) print the paper-style rows, and
//! the Criterion benches (`benches/`) wrap the same functions. The
//! absolute numbers come from the behavioral models and the modeled
//! ZCU102 memory, so they are not expected to match the paper's
//! hardware measurements exactly — the *shape* (who wins, by what
//! factor, where crossovers fall) is the reproduction target, and each
//! module documents the paper's reference values next to the measured
//! ones.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig3a`] | Fig. 3(a) — per-channel propagation latency |
//! | [`fig3b`] | Fig. 3(b) — memory access time vs data size |
//! | [`fig4`] | Fig. 4 — CHaiDNN / DMA performance in isolation |
//! | [`fig5`] | Fig. 5 — contention + `HC-X-Y` reservation sweep |
//! | [`table1`] | Table I — resource consumption |
//! | [`ablation`] | design-choice ablations (granularity, fairness, reservation, scaling, worst-case bounds) |
//! | [`tree100`] | 100-node cascaded tree — the per-node fast-forward calendar's showcase scenario |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig3a;
pub mod fig3b;
pub mod fig4;
pub mod fig5;
pub mod report;
pub mod table1;
pub mod tree100;

use axi::AxiInterconnect;
use axi_hyperconnect::SocSystem;
use hyperconnect::{HcConfig, HyperConnect};
use mem::{MemConfig, MemoryController};
use smartconnect::{ScConfig, SmartConnect};

/// Which interconnect an experiment instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// The paper's contribution.
    HyperConnect,
    /// The Xilinx baseline model.
    SmartConnect,
}

impl Design {
    /// Both designs, in report order.
    pub const BOTH: [Design; 2] = [Design::HyperConnect, Design::SmartConnect];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Design::HyperConnect => "HyperConnect",
            Design::SmartConnect => "SmartConnect",
        }
    }
}

/// A fresh two-port instance of the given design.
pub fn make_interconnect(design: Design) -> Box<dyn AxiInterconnect> {
    make_interconnect_n(design, 2)
}

/// A fresh N-port instance of the given design.
pub fn make_interconnect_n(design: Design, n: usize) -> Box<dyn AxiInterconnect> {
    match design {
        Design::HyperConnect => Box::new(HyperConnect::new(HcConfig::new(n))),
        Design::SmartConnect => Box::new(SmartConnect::new(ScConfig::new(n))),
    }
}

/// A system whose interconnect is selected at run time.
pub type SocSystemBoxed = SocSystem<Box<dyn AxiInterconnect>>;

/// The standard system used by the figure experiments: the given
/// design with the ZCU102-like memory model.
pub fn make_system(design: Design) -> SocSystemBoxed {
    SocSystem::new(
        make_interconnect(design),
        MemoryController::new(MemConfig::zcu102()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factories_produce_the_right_designs() {
        assert_eq!(
            make_interconnect(Design::HyperConnect).name(),
            "HyperConnect"
        );
        assert_eq!(
            make_interconnect(Design::SmartConnect).name(),
            "SmartConnect"
        );
        assert_eq!(make_interconnect_n(Design::HyperConnect, 4).num_ports(), 4);
    }

    #[test]
    fn boxed_interconnect_ticks() {
        use sim::Component;
        let mut ic = make_interconnect(Design::HyperConnect);
        ic.tick(0);
        assert!(ic.is_idle());
    }
}
