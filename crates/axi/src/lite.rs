//! AXI4-Lite control plane.
//!
//! The HyperConnect exports a control AXI slave interface so the
//! hypervisor can reconfigure it at run time as a standard memory-mapped
//! device (paper §V-A, *Runtime reconfiguration*). This module models
//! that path: register-file devices implement [`LiteDevice`], a
//! [`LiteBus`] routes 32-bit accesses by address, and [`LiteHandle`]
//! gives the (software-model) hypervisor shared access to a device that
//! is simultaneously owned by a simulated component.
//!
//! Control-plane accesses are modeled as immediate (same-cycle) function
//! calls: the paper's evaluation never measures control-path timing, and
//! configuration happens at integration time or between workload phases.

use std::sync::{Arc, Mutex};

/// A memory-mapped 32-bit register device (AXI4-Lite slave).
pub trait LiteDevice {
    /// Reads the 32-bit register at byte `offset` within the device.
    ///
    /// Unmapped offsets return `0` (reads of reserved addresses return
    /// zero on the modeled hardware rather than erroring).
    fn read32(&mut self, offset: u64) -> u32;

    /// Writes the 32-bit register at byte `offset` within the device.
    ///
    /// Writes to unmapped or read-only offsets are ignored.
    fn write32(&mut self, offset: u64, value: u32);
}

/// Error returned by [`LiteBus`] accesses that decode to no device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The address that failed to decode.
    pub addr: u64,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no device mapped at address {:#x}", self.addr)
    }
}

impl std::error::Error for DecodeError {}

/// A shared, clonable handle to a [`LiteDevice`].
///
/// The simulated component (e.g. the HyperConnect) holds one clone and
/// consults the registers every cycle; the hypervisor driver holds
/// another and performs reads/writes. The mutex is uncontended in the
/// single-threaded simulator and exists to keep the handle `Send + Sync`.
#[derive(Debug, Default)]
pub struct LiteHandle<T>(Arc<Mutex<T>>);

impl<T> Clone for LiteHandle<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T: LiteDevice> LiteHandle<T> {
    /// Wraps a device in a shared handle.
    pub fn new(device: T) -> Self {
        Self(Arc::new(Mutex::new(device)))
    }

    /// Performs a 32-bit register read.
    pub fn read32(&self, offset: u64) -> u32 {
        self.0
            .lock()
            .expect("poisoned register lock")
            .read32(offset)
    }

    /// Performs a 32-bit register write.
    pub fn write32(&self, offset: u64, value: u32) {
        self.0
            .lock()
            .expect("poisoned register lock")
            .write32(offset, value)
    }

    /// Runs `f` with exclusive access to the underlying device — used by
    /// the owning simulated component to consult configuration state.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.0.lock().expect("poisoned register lock"))
    }
}

/// An address-decoding bus routing 32-bit accesses to [`LiteDevice`]s.
///
/// # Example
///
/// ```
/// use axi::lite::{LiteBus, LiteDevice, LiteHandle};
///
/// #[derive(Default)]
/// struct Scratch(u32);
/// impl LiteDevice for Scratch {
///     fn read32(&mut self, _o: u64) -> u32 { self.0 }
///     fn write32(&mut self, _o: u64, v: u32) { self.0 = v }
/// }
///
/// let dev = LiteHandle::new(Scratch::default());
/// let mut bus = LiteBus::new();
/// bus.map(0x4000_0000, 0x1000, dev.clone());
/// bus.write32(0x4000_0004, 7)?;
/// assert_eq!(bus.read32(0x4000_0004)?, 7);
/// # Ok::<(), axi::lite::DecodeError>(())
/// ```
#[derive(Default)]
pub struct LiteBus {
    regions: Vec<Region>,
}

struct Region {
    base: u64,
    size: u64,
    read: Box<dyn Fn(u64) -> u32 + Send>,
    write: Box<dyn Fn(u64, u32) + Send>,
}

impl std::fmt::Debug for LiteBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiteBus")
            .field(
                "regions",
                &self
                    .regions
                    .iter()
                    .map(|r| (r.base, r.size))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl LiteBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps `device` at `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if the region overlaps an existing mapping or `size` is 0.
    pub fn map<T: LiteDevice + Send + 'static>(
        &mut self,
        base: u64,
        size: u64,
        device: LiteHandle<T>,
    ) {
        assert!(size > 0, "region size must be non-zero");
        for r in &self.regions {
            let overlaps = base < r.base + r.size && r.base < base + size;
            assert!(
                !overlaps,
                "region {:#x}+{:#x} overlaps existing {:#x}+{:#x}",
                base, size, r.base, r.size
            );
        }
        let read_dev = device.clone();
        let write_dev = device;
        self.regions.push(Region {
            base,
            size,
            read: Box::new(move |off| read_dev.read32(off)),
            write: Box::new(move |off, v| write_dev.write32(off, v)),
        });
    }

    fn decode(&self, addr: u64) -> Result<(&Region, u64), DecodeError> {
        self.regions
            .iter()
            .find(|r| addr >= r.base && addr < r.base + r.size)
            .map(|r| (r, addr - r.base))
            .ok_or(DecodeError { addr })
    }

    /// Reads the 32-bit register at absolute address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if no device is mapped at `addr`.
    pub fn read32(&self, addr: u64) -> Result<u32, DecodeError> {
        let (region, off) = self.decode(addr)?;
        Ok((region.read)(off))
    }

    /// Writes the 32-bit register at absolute address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if no device is mapped at `addr`.
    pub fn write32(&self, addr: u64, value: u32) -> Result<(), DecodeError> {
        let (region, off) = self.decode(addr)?;
        (region.write)(off, value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct RegArray {
        regs: [u32; 4],
    }

    impl LiteDevice for RegArray {
        fn read32(&mut self, offset: u64) -> u32 {
            let idx = (offset / 4) as usize;
            self.regs.get(idx).copied().unwrap_or(0)
        }
        fn write32(&mut self, offset: u64, value: u32) {
            let idx = (offset / 4) as usize;
            if let Some(slot) = self.regs.get_mut(idx) {
                *slot = value;
            }
        }
    }

    #[test]
    fn handle_shares_state() {
        let a = LiteHandle::new(RegArray::default());
        let b = a.clone();
        a.write32(4, 0xDEAD);
        assert_eq!(b.read32(4), 0xDEAD);
        b.with(|d| d.regs[0] = 3);
        assert_eq!(a.read32(0), 3);
    }

    #[test]
    fn bus_routes_by_address() {
        let d0 = LiteHandle::new(RegArray::default());
        let d1 = LiteHandle::new(RegArray::default());
        let mut bus = LiteBus::new();
        bus.map(0x1000, 0x100, d0.clone());
        bus.map(0x2000, 0x100, d1.clone());
        assert_eq!(bus.regions.len(), 2);
        bus.write32(0x1004, 11).unwrap();
        bus.write32(0x2004, 22).unwrap();
        assert_eq!(d0.read32(4), 11);
        assert_eq!(d1.read32(4), 22);
        assert_eq!(bus.read32(0x2004).unwrap(), 22);
    }

    #[test]
    fn bus_decode_error() {
        let bus = LiteBus::new();
        let err = bus.read32(0x5000).unwrap_err();
        assert_eq!(err, DecodeError { addr: 0x5000 });
        assert!(err.to_string().contains("0x5000"));
    }

    #[test]
    fn region_boundaries_are_half_open() {
        let d = LiteHandle::new(RegArray::default());
        let mut bus = LiteBus::new();
        bus.map(0x1000, 0x10, d);
        assert!(bus.read32(0x100F).is_ok());
        assert!(bus.read32(0x1010).is_err());
        assert!(bus.read32(0xFFF).is_err());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_regions_panic() {
        let d0 = LiteHandle::new(RegArray::default());
        let d1 = LiteHandle::new(RegArray::default());
        let mut bus = LiteBus::new();
        bus.map(0x1000, 0x100, d0);
        bus.map(0x10F0, 0x100, d1);
    }

    #[test]
    fn unmapped_offsets_read_zero_write_ignored() {
        let d = LiteHandle::new(RegArray::default());
        assert_eq!(d.read32(0x100), 0);
        d.write32(0x100, 5); // ignored, no panic
        assert_eq!(d.read32(0x100), 0);
    }
}
