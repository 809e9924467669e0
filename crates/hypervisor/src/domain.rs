//! Execution domains: the isolated applications of the mixed-criticality
//! framework.

use axi::types::PortId;

/// Identifier of an execution domain (a guest/VM under the hypervisor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u32);

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// Criticality level of a domain, driving default resource policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Criticality {
    /// Best-effort: untrusted, first to be throttled or decoupled.
    BestEffort,
    /// Mission-critical: important but not safety-relevant.
    Mission,
    /// Safety-critical: must keep its reserved bandwidth at all times.
    Safety,
}

impl std::fmt::Display for Criticality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Criticality::BestEffort => write!(f, "best-effort"),
            Criticality::Mission => write!(f, "mission"),
            Criticality::Safety => write!(f, "safety"),
        }
    }
}

/// One execution domain: a software system on the PS plus a set of
/// accelerators on the FPGA fabric, isolated from other domains.
#[derive(Debug, Clone)]
pub struct Domain {
    id: DomainId,
    name: String,
    criticality: Criticality,
    ports: Vec<PortId>,
    pending_irqs: u64,
    total_irqs: u64,
}

impl Domain {
    /// Creates a domain with no assigned accelerators.
    pub fn new(id: DomainId, name: impl Into<String>, criticality: Criticality) -> Self {
        Self {
            id,
            name: name.into(),
            criticality,
            ports: Vec::new(),
            pending_irqs: 0,
            total_irqs: 0,
        }
    }

    /// The domain identifier.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// The domain name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The criticality level.
    pub fn criticality(&self) -> Criticality {
        self.criticality
    }

    /// Interconnect ports owned by this domain's accelerators.
    pub fn ports(&self) -> &[PortId] {
        &self.ports
    }

    /// Whether the domain owns `port`.
    pub fn owns(&self, port: PortId) -> bool {
        self.ports.contains(&port)
    }

    pub(crate) fn assign(&mut self, port: PortId) {
        self.ports.push(port);
    }

    /// Delivers one accelerator-completion interrupt to the domain.
    pub fn raise_irq(&mut self) {
        self.pending_irqs += 1;
        self.total_irqs += 1;
    }

    /// Consumes all pending interrupts (the guest's handler ran),
    /// returning how many there were.
    pub fn take_irqs(&mut self) -> u64 {
        std::mem::take(&mut self.pending_irqs)
    }

    /// Interrupts delivered over the domain's lifetime.
    pub fn total_irqs(&self) -> u64 {
        self.total_irqs
    }
}

sim::persist_fields!(DomainId { 0 });
sim::persist_enum!(
    Criticality,
    "unknown criticality level",
    [BestEffort, Mission, Safety]
);
sim::persist_fields!(Domain {
    id,
    name,
    criticality,
    ports,
    pending_irqs,
    total_irqs,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_types() {
        assert_eq!(DomainId(2).to_string(), "dom2");
        assert_eq!(Criticality::Safety.to_string(), "safety");
        assert!(Criticality::Safety > Criticality::Mission);
        assert!(Criticality::Mission > Criticality::BestEffort);
    }

    #[test]
    fn port_ownership() {
        let mut d = Domain::new(DomainId(0), "vision", Criticality::Safety);
        assert!(d.ports().is_empty());
        d.assign(PortId(1));
        assert!(d.owns(PortId(1)));
        assert!(!d.owns(PortId(0)));
    }

    #[test]
    fn irq_accounting() {
        let mut d = Domain::new(DomainId(0), "x", Criticality::Mission);
        d.raise_irq();
        d.raise_irq();
        assert_eq!(d.take_irqs(), 2);
        assert_eq!(d.take_irqs(), 0);
        assert_eq!(d.total_irqs(), 2);
    }
}
