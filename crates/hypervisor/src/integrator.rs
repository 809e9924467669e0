//! The system-integration flow: IP-XACT component descriptions and
//! design assembly.
//!
//! The paper's framework (§IV) assumes accelerators are delivered as IP
//! with an XML description (IP-XACT) and that a *system integrator*
//! connects every HA master port to a HyperConnect slave port, the
//! HyperConnect master port to the FPGA-PS interface, and the control
//! ports to the PS-FPGA interface. This module models that flow: typed
//! component descriptions, an IP-XACT 2014 XML exporter, and a design
//! assembler that validates the connection rules before "synthesis".

/// Direction/role of an AXI bus interface on a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IfaceRole {
    /// An AXI master (initiator) interface.
    Master,
    /// An AXI slave (target) interface.
    Slave,
    /// An AXI4-Lite control slave interface.
    ControlSlave,
}

impl IfaceRole {
    fn ipxact_mode(self) -> &'static str {
        match self {
            IfaceRole::Master => "master",
            IfaceRole::Slave | IfaceRole::ControlSlave => "slave",
        }
    }
}

/// One bus interface of a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusInterface {
    /// Interface name (e.g. `M00_AXI`).
    pub name: String,
    /// Role of the interface.
    pub role: IfaceRole,
}

/// An IP component description (the unit of exchange between
/// application developers and the system integrator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDesc {
    /// Vendor identifier (reverse-DNS style).
    pub vendor: String,
    /// IP library name.
    pub library: String,
    /// Component name.
    pub name: String,
    /// Version string.
    pub version: String,
    /// The component's bus interfaces.
    pub interfaces: Vec<BusInterface>,
    /// Named integer parameters (e.g. `NUM_PORTS`).
    pub parameters: Vec<(String, u64)>,
}

impl ComponentDesc {
    /// A generic N-port interconnect description: `S{i:02}_AXI` slave
    /// ports, one `M00_AXI` master, one `S_AXI_CTRL` control slave and
    /// a `NUM_PORTS` parameter. This is the shared shape of every
    /// interconnect model the simulator can instantiate (HyperConnect,
    /// SmartConnect, ...).
    pub fn interconnect(name: impl Into<String>, num_ports: usize) -> Self {
        let mut interfaces: Vec<BusInterface> = (0..num_ports)
            .map(|i| BusInterface {
                name: format!("S{i:02}_AXI"),
                role: IfaceRole::Slave,
            })
            .collect();
        interfaces.push(BusInterface {
            name: "M00_AXI".into(),
            role: IfaceRole::Master,
        });
        interfaces.push(BusInterface {
            name: "S_AXI_CTRL".into(),
            role: IfaceRole::ControlSlave,
        });
        Self {
            vendor: "com.example".into(),
            library: "interconnect".into(),
            name: name.into(),
            version: "1.0".into(),
            interfaces,
            parameters: vec![("NUM_PORTS".into(), num_ports as u64)],
        }
    }

    /// The description of an N-port HyperConnect as exported by this
    /// reproduction.
    pub fn hyperconnect(num_ports: usize) -> Self {
        let mut desc = Self::interconnect("axi_hyperconnect", num_ports);
        desc.vendor = "it.sssup.retis".into();
        // Feature flag: per-port credit regulators (traffic regulation
        // & QoS layer) are present in this IP revision.
        desc.parameters.push(("QOS_REGULATION".into(), 1));
        desc
    }

    /// A generic accelerator description with one master and one
    /// control-slave interface (the standard HA shape of §II).
    pub fn accelerator(name: impl Into<String>) -> Self {
        Self {
            vendor: "com.example".into(),
            library: "accelerators".into(),
            name: name.into(),
            version: "1.0".into(),
            interfaces: vec![
                BusInterface {
                    name: "M_AXI".into(),
                    role: IfaceRole::Master,
                },
                BusInterface {
                    name: "S_AXI_CTRL".into(),
                    role: IfaceRole::ControlSlave,
                },
            ],
            parameters: Vec::new(),
        }
    }

    /// Interfaces with the given role.
    fn interfaces_with_role(&self, role: IfaceRole) -> impl Iterator<Item = &BusInterface> {
        self.interfaces.iter().filter(move |i| i.role == role)
    }

    /// Serializes the component as IP-XACT 2014 XML.
    pub fn to_ipxact_xml(&self) -> String {
        let mut xml = String::new();
        xml.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        xml.push_str(
            "<ipxact:component xmlns:ipxact=\"http://www.accellera.org/XMLSchema/IPXACT/1685-2014\">\n",
        );
        xml.push_str(&format!(
            "  <ipxact:vendor>{}</ipxact:vendor>\n",
            escape(&self.vendor)
        ));
        xml.push_str(&format!(
            "  <ipxact:library>{}</ipxact:library>\n",
            escape(&self.library)
        ));
        xml.push_str(&format!(
            "  <ipxact:name>{}</ipxact:name>\n",
            escape(&self.name)
        ));
        xml.push_str(&format!(
            "  <ipxact:version>{}</ipxact:version>\n",
            escape(&self.version)
        ));
        xml.push_str("  <ipxact:busInterfaces>\n");
        for iface in &self.interfaces {
            xml.push_str("    <ipxact:busInterface>\n");
            xml.push_str(&format!(
                "      <ipxact:name>{}</ipxact:name>\n",
                escape(&iface.name)
            ));
            xml.push_str(&format!(
                "      <ipxact:{mode}/>\n",
                mode = iface.role.ipxact_mode()
            ));
            xml.push_str("    </ipxact:busInterface>\n");
        }
        xml.push_str("  </ipxact:busInterfaces>\n");
        if !self.parameters.is_empty() {
            xml.push_str("  <ipxact:parameters>\n");
            for (name, value) in &self.parameters {
                xml.push_str("    <ipxact:parameter>\n");
                xml.push_str(&format!(
                    "      <ipxact:name>{}</ipxact:name>\n",
                    escape(name)
                ));
                xml.push_str(&format!("      <ipxact:value>{value}</ipxact:value>\n"));
                xml.push_str("    </ipxact:parameter>\n");
            }
            xml.push_str("  </ipxact:parameters>\n");
        }
        xml.push_str("</ipxact:component>\n");
        xml
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Errors detected while assembling a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrationError {
    /// More accelerators than interconnect slave ports.
    NotEnoughPorts {
        /// Accelerators to connect.
        accelerators: usize,
        /// Available slave ports.
        ports: usize,
    },
    /// An accelerator exposes no AXI master interface to connect.
    NoMasterInterface {
        /// The offending component name.
        component: String,
    },
    /// Two instances added under the same name.
    DuplicateInstance {
        /// The repeated instance name.
        instance: String,
    },
    /// A connection referenced an instance that was never added.
    UnknownInstance {
        /// The unknown instance name.
        instance: String,
    },
    /// A connection referenced an interface the component lacks.
    NoSuchInterface {
        /// The instance name.
        instance: String,
        /// The missing interface name.
        interface: String,
    },
    /// An interface was used in the wrong direction (e.g. a slave as
    /// the initiating side of a connection).
    RoleMismatch {
        /// The instance name.
        instance: String,
        /// The interface name.
        interface: String,
        /// The role the connection required.
        expected: &'static str,
    },
    /// Two connections target the same slave interface.
    SlaveAlreadyBound {
        /// The instance name.
        instance: String,
        /// The double-bound interface.
        interface: String,
    },
    /// Two connections start from the same master interface.
    MasterAlreadyBound {
        /// The instance name.
        instance: String,
        /// The double-bound interface.
        interface: String,
    },
    /// A master interface left dangling at build time.
    UnconnectedMaster {
        /// The instance name.
        instance: String,
        /// The dangling interface.
        interface: String,
    },
    /// The design contains no interconnect component.
    NoInterconnect,
}

impl std::fmt::Display for IntegrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrationError::NotEnoughPorts {
                accelerators,
                ports,
            } => write!(
                f,
                "{accelerators} accelerators but only {ports} interconnect ports"
            ),
            IntegrationError::NoMasterInterface { component } => {
                write!(f, "component {component} has no AXI master interface")
            }
            IntegrationError::DuplicateInstance { instance } => {
                write!(f, "instance name {instance} is already in use")
            }
            IntegrationError::UnknownInstance { instance } => {
                write!(f, "instance {instance} does not exist in this design")
            }
            IntegrationError::NoSuchInterface {
                instance,
                interface,
            } => write!(f, "instance {instance} has no interface {interface}"),
            IntegrationError::RoleMismatch {
                instance,
                interface,
                expected,
            } => write!(f, "interface {instance}.{interface} is not {expected}"),
            IntegrationError::SlaveAlreadyBound {
                instance,
                interface,
            } => write!(f, "slave interface {instance}.{interface} is already bound"),
            IntegrationError::MasterAlreadyBound {
                instance,
                interface,
            } => write!(
                f,
                "master interface {instance}.{interface} is already bound"
            ),
            IntegrationError::UnconnectedMaster {
                instance,
                interface,
            } => write!(
                f,
                "master interface {instance}.{interface} is left unconnected"
            ),
            IntegrationError::NoInterconnect => {
                write!(f, "the design contains no interconnect component")
            }
        }
    }
}

impl std::error::Error for IntegrationError {}

/// One validated connection of the assembled design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// `instance.interface` on the initiating side.
    pub from: String,
    /// `instance.interface` on the target side.
    pub to: String,
}

/// One named component instantiation of a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// The instance name (unique within the design).
    pub name: String,
    /// The instantiated component description.
    pub component: ComponentDesc,
}

/// A validated design: one or more interconnects plus connected
/// accelerators.
#[derive(Debug, Clone)]
pub struct Design {
    /// The (first) interconnect component — the root of flat designs.
    pub interconnect: ComponentDesc,
    /// The accelerator components, in instantiation order.
    pub accelerators: Vec<ComponentDesc>,
    /// Every instantiated component, in instantiation order.
    pub instances: Vec<Instance>,
    /// All validated connections.
    pub connections: Vec<Connection>,
}

/// Incremental, validating assembly of a [`Design`] — the netlist
/// counterpart of the simulator's `TopologyBuilder`. Connections are
/// checked as they are made (instances and interfaces must exist,
/// directions must match, no endpoint is bound twice); [`DesignBuilder::build`]
/// additionally rejects dangling master interfaces.
#[derive(Debug, Clone, Default)]
pub struct DesignBuilder {
    instances: Vec<Instance>,
    connections: Vec<Connection>,
    bound_from: Vec<String>,
    bound_to: Vec<String>,
}

impl DesignBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The instances added so far.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    fn find(&self, instance: &str) -> Result<&Instance, IntegrationError> {
        self.instances
            .iter()
            .find(|i| i.name == instance)
            .ok_or_else(|| IntegrationError::UnknownInstance {
                instance: instance.to_owned(),
            })
    }

    fn iface(&self, instance: &str, interface: &str) -> Result<&BusInterface, IntegrationError> {
        self.find(instance)?
            .component
            .interfaces
            .iter()
            .find(|i| i.name == interface)
            .ok_or_else(|| IntegrationError::NoSuchInterface {
                instance: instance.to_owned(),
                interface: interface.to_owned(),
            })
    }

    /// Adds a named component instance.
    ///
    /// # Errors
    ///
    /// [`IntegrationError::DuplicateInstance`] if the name is taken.
    pub fn add_instance(
        &mut self,
        name: impl Into<String>,
        component: ComponentDesc,
    ) -> Result<(), IntegrationError> {
        let name = name.into();
        if self.instances.iter().any(|i| i.name == name) {
            return Err(IntegrationError::DuplicateInstance { instance: name });
        }
        self.instances.push(Instance { name, component });
        Ok(())
    }

    /// Connects a master interface to a slave interface between two
    /// instances of the design.
    ///
    /// # Errors
    ///
    /// [`IntegrationError::UnknownInstance`],
    /// [`IntegrationError::NoSuchInterface`],
    /// [`IntegrationError::RoleMismatch`],
    /// [`IntegrationError::MasterAlreadyBound`] or
    /// [`IntegrationError::SlaveAlreadyBound`].
    pub fn connect(
        &mut self,
        from_instance: &str,
        from_interface: &str,
        to_instance: &str,
        to_interface: &str,
    ) -> Result<(), IntegrationError> {
        if self.iface(from_instance, from_interface)?.role != IfaceRole::Master {
            return Err(IntegrationError::RoleMismatch {
                instance: from_instance.to_owned(),
                interface: from_interface.to_owned(),
                expected: "a master",
            });
        }
        if self.iface(to_instance, to_interface)?.role != IfaceRole::Slave {
            return Err(IntegrationError::RoleMismatch {
                instance: to_instance.to_owned(),
                interface: to_interface.to_owned(),
                expected: "a slave",
            });
        }
        let from = format!("{from_instance}.{from_interface}");
        let to = format!("{to_instance}.{to_interface}");
        if self.bound_from.contains(&from) {
            return Err(IntegrationError::MasterAlreadyBound {
                instance: from_instance.to_owned(),
                interface: from_interface.to_owned(),
            });
        }
        if self.bound_to.contains(&to) {
            return Err(IntegrationError::SlaveAlreadyBound {
                instance: to_instance.to_owned(),
                interface: to_interface.to_owned(),
            });
        }
        self.bound_from.push(from.clone());
        self.bound_to.push(to.clone());
        self.connections.push(Connection { from, to });
        Ok(())
    }

    /// Connects a master interface of an instance to a port of the
    /// processing system (`ps.<ps_port>`, e.g. the FPGA-PS interface
    /// `S_AXI_HP0`).
    ///
    /// # Errors
    ///
    /// As [`DesignBuilder::connect`], minus the slave-side checks (the
    /// PS is a pseudo-instance).
    pub fn connect_ps_master(
        &mut self,
        instance: &str,
        interface: &str,
        ps_port: &str,
    ) -> Result<(), IntegrationError> {
        if self.iface(instance, interface)?.role != IfaceRole::Master {
            return Err(IntegrationError::RoleMismatch {
                instance: instance.to_owned(),
                interface: interface.to_owned(),
                expected: "a master",
            });
        }
        let from = format!("{instance}.{interface}");
        if self.bound_from.contains(&from) {
            return Err(IntegrationError::MasterAlreadyBound {
                instance: instance.to_owned(),
                interface: interface.to_owned(),
            });
        }
        self.bound_from.push(from.clone());
        self.connections.push(Connection {
            from,
            to: format!("ps.{ps_port}"),
        });
        Ok(())
    }

    /// Connects a control-slave interface of an instance to the
    /// hypervisor-owned PS-FPGA port (`ps.M_AXI_HPM0`).
    ///
    /// # Errors
    ///
    /// As [`DesignBuilder::connect`], minus the master-side checks.
    pub fn connect_ctrl(
        &mut self,
        instance: &str,
        interface: &str,
    ) -> Result<(), IntegrationError> {
        if self.iface(instance, interface)?.role != IfaceRole::ControlSlave {
            return Err(IntegrationError::RoleMismatch {
                instance: instance.to_owned(),
                interface: interface.to_owned(),
                expected: "a control slave",
            });
        }
        let to = format!("{instance}.{interface}");
        if self.bound_to.contains(&to) {
            return Err(IntegrationError::SlaveAlreadyBound {
                instance: instance.to_owned(),
                interface: interface.to_owned(),
            });
        }
        self.bound_to.push(to.clone());
        self.connections.push(Connection {
            from: "ps.M_AXI_HPM0".into(),
            to,
        });
        Ok(())
    }

    /// Validates the netlist and produces the [`Design`].
    ///
    /// # Errors
    ///
    /// [`IntegrationError::UnconnectedMaster`] for any dangling master
    /// interface, [`IntegrationError::NoInterconnect`] when no
    /// interconnect component was instantiated.
    pub fn build(self) -> Result<Design, IntegrationError> {
        for inst in &self.instances {
            for master in inst.component.interfaces_with_role(IfaceRole::Master) {
                let endpoint = format!("{}.{}", inst.name, master.name);
                if !self.bound_from.contains(&endpoint) {
                    return Err(IntegrationError::UnconnectedMaster {
                        instance: inst.name.clone(),
                        interface: master.name.clone(),
                    });
                }
            }
        }
        let interconnect = self
            .instances
            .iter()
            .find(|i| i.component.library == "interconnect")
            .map(|i| i.component.clone())
            .ok_or(IntegrationError::NoInterconnect)?;
        let accelerators = self
            .instances
            .iter()
            .filter(|i| i.component.library != "interconnect")
            .map(|i| i.component.clone())
            .collect();
        Ok(Design {
            interconnect,
            accelerators,
            instances: self.instances,
            connections: self.connections,
        })
    }
}

impl Design {
    /// Assembles and validates a flat design on [`DesignBuilder`]: each
    /// accelerator's master interface is connected to the next
    /// interconnect slave port; the interconnect master port goes to
    /// the FPGA-PS interface; all control interfaces go to the PS-FPGA
    /// interface (owned by the hypervisor).
    ///
    /// # Errors
    ///
    /// See [`IntegrationError`].
    pub fn assemble(
        interconnect: ComponentDesc,
        accelerators: Vec<ComponentDesc>,
    ) -> Result<Self, IntegrationError> {
        let slave_ports: Vec<String> = interconnect
            .interfaces_with_role(IfaceRole::Slave)
            .map(|i| i.name.clone())
            .collect();
        if accelerators.len() > slave_ports.len() {
            return Err(IntegrationError::NotEnoughPorts {
                accelerators: accelerators.len(),
                ports: slave_ports.len(),
            });
        }
        let ic_name = interconnect.name.clone();
        let mut b = DesignBuilder::new();
        b.add_instance(&ic_name, interconnect)?;
        for acc in accelerators {
            let name = acc.name.clone();
            if acc.interfaces_with_role(IfaceRole::Master).next().is_none() {
                return Err(IntegrationError::NoMasterInterface { component: name });
            }
            b.add_instance(&name, acc)?;
        }
        for (i, port) in slave_ports
            .iter()
            .enumerate()
            .take(b.instances.len().saturating_sub(1))
        {
            let acc = b.instances[i + 1].component.clone();
            let master = acc
                .interfaces_with_role(IfaceRole::Master)
                .next()
                .expect("checked at add time")
                .name
                .clone();
            b.connect(&acc.name, &master, &ic_name, port)?;
            for ctrl in acc.interfaces_with_role(IfaceRole::ControlSlave) {
                b.connect_ctrl(&acc.name, &ctrl.name)?;
            }
        }
        b.connect_ps_master(&ic_name, "M00_AXI", "S_AXI_HP0")?;
        b.connect_ctrl(&ic_name, "S_AXI_CTRL")?;
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hyperconnect_description_shape() {
        let desc = ComponentDesc::hyperconnect(3);
        assert_eq!(desc.interfaces_with_role(IfaceRole::Slave).count(), 3);
        assert_eq!(desc.interfaces_with_role(IfaceRole::Master).count(), 1);
        assert_eq!(
            desc.interfaces_with_role(IfaceRole::ControlSlave).count(),
            1
        );
        assert_eq!(desc.parameters[0], ("NUM_PORTS".into(), 3));
        assert_eq!(desc.parameters[1], ("QOS_REGULATION".into(), 1));
    }

    #[test]
    fn ipxact_export_is_wellformed_enough() {
        let xml = ComponentDesc::hyperconnect(2).to_ipxact_xml();
        assert!(xml.starts_with("<?xml"));
        assert!(xml.contains("<ipxact:name>axi_hyperconnect</ipxact:name>"));
        assert!(xml.contains("S00_AXI"));
        assert!(xml.contains("S01_AXI"));
        assert!(xml.contains("M00_AXI"));
        assert!(xml.contains("NUM_PORTS"));
        assert!(xml.ends_with("</ipxact:component>\n"));
        // Balanced open/close of busInterface elements.
        assert_eq!(
            xml.matches("<ipxact:busInterface>").count(),
            xml.matches("</ipxact:busInterface>").count()
        );
    }

    #[test]
    fn xml_escaping() {
        let mut desc = ComponentDesc::accelerator("a<b>&\"c");
        desc.vendor = "v&v".into();
        let xml = desc.to_ipxact_xml();
        assert!(xml.contains("a&lt;b&gt;&amp;&quot;c"));
        assert!(xml.contains("v&amp;v"));
        assert!(!xml.contains("a<b>"));
    }

    #[test]
    fn assemble_connects_everything() {
        let design = Design::assemble(
            ComponentDesc::hyperconnect(2),
            vec![
                ComponentDesc::accelerator("chaidnn"),
                ComponentDesc::accelerator("dma"),
            ],
        )
        .unwrap();
        let conns: Vec<String> = design
            .connections
            .iter()
            .map(|c| format!("{} -> {}", c.from, c.to))
            .collect();
        assert!(conns.contains(&"chaidnn.M_AXI -> axi_hyperconnect.S00_AXI".to_string()));
        assert!(conns.contains(&"dma.M_AXI -> axi_hyperconnect.S01_AXI".to_string()));
        assert!(conns.contains(&"axi_hyperconnect.M00_AXI -> ps.S_AXI_HP0".to_string()));
        assert!(conns.contains(&"ps.M_AXI_HPM0 -> axi_hyperconnect.S_AXI_CTRL".to_string()));
    }

    #[test]
    fn assemble_rejects_too_many_accelerators() {
        let err = Design::assemble(
            ComponentDesc::hyperconnect(1),
            vec![
                ComponentDesc::accelerator("a"),
                ComponentDesc::accelerator("b"),
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            IntegrationError::NotEnoughPorts {
                accelerators: 2,
                ports: 1
            }
        );
        assert!(err.to_string().contains("2 accelerators"));
    }

    #[test]
    fn assemble_rejects_masterless_component() {
        let mut acc = ComponentDesc::accelerator("broken");
        acc.interfaces.retain(|i| i.role != IfaceRole::Master);
        let err = Design::assemble(ComponentDesc::hyperconnect(1), vec![acc]).unwrap_err();
        assert!(matches!(err, IntegrationError::NoMasterInterface { .. }));
    }

    #[test]
    fn builder_rejects_duplicate_and_unknown_instances() {
        let mut b = DesignBuilder::new();
        b.add_instance("hc", ComponentDesc::hyperconnect(2))
            .unwrap();
        assert_eq!(
            b.add_instance("hc", ComponentDesc::accelerator("hc"))
                .unwrap_err(),
            IntegrationError::DuplicateInstance {
                instance: "hc".into()
            }
        );
        assert_eq!(
            b.connect("ghost", "M_AXI", "hc", "S00_AXI").unwrap_err(),
            IntegrationError::UnknownInstance {
                instance: "ghost".into()
            }
        );
        b.add_instance("dma", ComponentDesc::accelerator("dma"))
            .unwrap();
        assert_eq!(
            b.connect("dma", "M_AXI", "hc", "S99_AXI").unwrap_err(),
            IntegrationError::NoSuchInterface {
                instance: "hc".into(),
                interface: "S99_AXI".into()
            }
        );
    }

    #[test]
    fn builder_rejects_role_mismatches() {
        let mut b = DesignBuilder::new();
        b.add_instance("hc", ComponentDesc::hyperconnect(2))
            .unwrap();
        b.add_instance("dma", ComponentDesc::accelerator("dma"))
            .unwrap();
        // Slave used as the initiating side.
        let err = b.connect("hc", "S00_AXI", "dma", "S_AXI_CTRL").unwrap_err();
        assert!(matches!(
            err,
            IntegrationError::RoleMismatch {
                expected: "a master",
                ..
            }
        ));
        // Master used as the target side.
        let err = b.connect("dma", "M_AXI", "hc", "M00_AXI").unwrap_err();
        assert!(matches!(
            err,
            IntegrationError::RoleMismatch {
                expected: "a slave",
                ..
            }
        ));
        // A plain slave is not a control slave.
        let err = b.connect_ctrl("hc", "S00_AXI").unwrap_err();
        assert!(matches!(
            err,
            IntegrationError::RoleMismatch {
                expected: "a control slave",
                ..
            }
        ));
        assert!(err.to_string().contains("control slave"));
    }

    #[test]
    fn builder_rejects_double_bound_endpoints() {
        let mut b = DesignBuilder::new();
        b.add_instance("hc", ComponentDesc::hyperconnect(2))
            .unwrap();
        b.add_instance("a", ComponentDesc::accelerator("a"))
            .unwrap();
        b.add_instance("b", ComponentDesc::accelerator("b"))
            .unwrap();
        b.connect("a", "M_AXI", "hc", "S00_AXI").unwrap();
        assert_eq!(
            b.connect("a", "M_AXI", "hc", "S01_AXI").unwrap_err(),
            IntegrationError::MasterAlreadyBound {
                instance: "a".into(),
                interface: "M_AXI".into()
            }
        );
        assert_eq!(
            b.connect("b", "M_AXI", "hc", "S00_AXI").unwrap_err(),
            IntegrationError::SlaveAlreadyBound {
                instance: "hc".into(),
                interface: "S00_AXI".into()
            }
        );
        b.connect_ctrl("hc", "S_AXI_CTRL").unwrap();
        assert!(matches!(
            b.connect_ctrl("hc", "S_AXI_CTRL").unwrap_err(),
            IntegrationError::SlaveAlreadyBound { .. }
        ));
    }

    #[test]
    fn builder_build_requires_bound_masters_and_an_interconnect() {
        // Dangling master interface.
        let mut b = DesignBuilder::new();
        b.add_instance("hc", ComponentDesc::hyperconnect(1))
            .unwrap();
        b.add_instance("dma", ComponentDesc::accelerator("dma"))
            .unwrap();
        b.connect("dma", "M_AXI", "hc", "S00_AXI").unwrap();
        // hc.M00_AXI is still dangling.
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            IntegrationError::UnconnectedMaster {
                instance: "hc".into(),
                interface: "M00_AXI".into()
            }
        );
        assert!(err.to_string().contains("unconnected"));

        // No interconnect at all.
        let mut b = DesignBuilder::new();
        b.add_instance("dma", ComponentDesc::accelerator("dma"))
            .unwrap();
        b.connect_ps_master("dma", "M_AXI", "S_AXI_HP0").unwrap();
        assert_eq!(b.build().unwrap_err(), IntegrationError::NoInterconnect);
    }

    #[test]
    fn builder_assembles_a_two_level_tree() {
        // The shape TopologyBuilder::export_design produces: a leaf
        // interconnect's master feeding a root slave port.
        let mut b = DesignBuilder::new();
        b.add_instance("root", ComponentDesc::interconnect("axi_ic", 2))
            .unwrap();
        b.add_instance("leaf", ComponentDesc::interconnect("axi_ic", 2))
            .unwrap();
        b.add_instance("dma", ComponentDesc::accelerator("dma"))
            .unwrap();
        b.connect("leaf", "M00_AXI", "root", "S00_AXI").unwrap();
        b.connect("dma", "M_AXI", "leaf", "S00_AXI").unwrap();
        b.connect_ps_master("root", "M00_AXI", "S_AXI_HP0").unwrap();
        for inst in ["root", "leaf", "dma"] {
            b.connect_ctrl(inst, "S_AXI_CTRL").unwrap();
        }
        let design = b.build().unwrap();
        assert_eq!(design.instances.len(), 3);
        assert_eq!(design.accelerators.len(), 1);
        let conns: Vec<String> = design
            .connections
            .iter()
            .map(|c| format!("{} -> {}", c.from, c.to))
            .collect();
        assert!(conns.contains(&"leaf.M00_AXI -> root.S00_AXI".to_string()));
        assert!(conns.contains(&"root.M00_AXI -> ps.S_AXI_HP0".to_string()));
    }
}
