//! Static (synthesis-time) configuration of a HyperConnect instance.
//!
//! These parameters mirror what a system integrator would fix when
//! instantiating the IP in a block design; everything that the paper
//! describes as *runtime*-configurable (budgets, period, nominal burst,
//! per-port enables) lives in the register file instead and is set
//! through the AXI-Lite control interface.

use axi::types::AxiVersion;

/// Synthesis-time parameters of a [`crate::HyperConnect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HcConfig {
    /// Number of slave (accelerator-facing) input ports.
    pub num_ports: usize,
    /// AXI revision spoken on the ports (bounds legal burst lengths).
    pub version: AxiVersion,
    /// Depth of each eFIFO address queue (AR/AW), in requests.
    pub efifo_addr_depth: usize,
    /// Depth of each eFIFO data queue (W/R), in beats.
    pub efifo_data_depth: usize,
    /// Depth of each eFIFO response queue (B), in responses.
    pub efifo_resp_depth: usize,
    /// Capacity of the EXBAR routing-information buffers, in
    /// outstanding transactions (the paper's circular buffer).
    pub routing_depth: usize,
}

impl HcConfig {
    /// A HyperConnect with `num_ports` inputs and default buffer depths
    /// (matching the slim instance evaluated in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `num_ports` is zero.
    pub fn new(num_ports: usize) -> Self {
        assert!(num_ports > 0, "an interconnect needs at least one port");
        Self {
            num_ports,
            version: AxiVersion::Axi4,
            efifo_addr_depth: 4,
            efifo_data_depth: 32,
            efifo_resp_depth: 4,
            routing_depth: 32,
        }
    }

    /// Sets the AXI revision.
    pub fn version(mut self, version: AxiVersion) -> Self {
        self.version = version;
        self
    }

    /// Sets the eFIFO data-queue depth.
    pub fn efifo_data_depth(mut self, depth: usize) -> Self {
        self.efifo_data_depth = depth;
        self
    }

    /// Sets the routing-buffer depth.
    pub fn routing_depth(mut self, depth: usize) -> Self {
        self.routing_depth = depth;
        self
    }
}

impl Default for HcConfig {
    /// The two-port instance used throughout the paper's evaluation.
    fn default() -> Self {
        Self::new(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_case_study() {
        let cfg = HcConfig::default();
        assert_eq!(cfg.num_ports, 2);
        assert_eq!(cfg.version, AxiVersion::Axi4);
    }

    #[test]
    fn builders_override() {
        let cfg = HcConfig::new(4)
            .version(AxiVersion::Axi3)
            .efifo_data_depth(64)
            .routing_depth(8);
        assert_eq!(cfg.num_ports, 4);
        assert_eq!(cfg.version, AxiVersion::Axi3);
        assert_eq!(cfg.efifo_data_depth, 64);
        assert_eq!(cfg.routing_depth, 8);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_panics() {
        let _ = HcConfig::new(0);
    }
}
