//! A minimal Value Change Dump (VCD, IEEE 1364) writer.
//!
//! Lets the behavioral models dump waveforms that standard EDA viewers
//! (GTKWave, Surfer, ...) open directly — handy when debugging handshake
//! or arbitration timing the way one would on the real RTL.
//!
//! The writer is deliberately small: scalar wires and vector buses,
//! one timescale, value changes deduplicated per signal.
//!
//! # Example
//!
//! ```
//! use sim::vcd::VcdWriter;
//!
//! let mut vcd = VcdWriter::new("hyperconnect");
//! let valid = vcd.add_wire("ar_valid");
//! let addr = vcd.add_bus("ar_addr", 32);
//! vcd.change_wire(0, valid, true);
//! vcd.change_bus(0, addr, 0x1000);
//! vcd.change_wire(1, valid, false);
//! let dump = vcd.render();
//! assert!(dump.contains("$timescale"));
//! assert!(dump.contains("ar_valid"));
//! ```

use crate::clock::Cycle;

/// Handle to a declared signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalId(usize);

#[derive(Debug, Clone)]
struct Signal {
    name: String,
    width: u32,
    code: String,
    last: Option<u64>,
}

#[derive(Debug, Clone)]
struct Change {
    time: Cycle,
    signal: usize,
    value: u64,
}

/// An in-memory VCD builder; call [`VcdWriter::render`] to produce the
/// file contents.
#[derive(Debug, Clone)]
pub struct VcdWriter {
    module: String,
    signals: Vec<Signal>,
    changes: Vec<Change>,
}

/// Generates the short ASCII identifier code for signal `i`.
fn id_code(mut i: usize) -> String {
    // Printable ASCII 33..=126, base-94, as real tools emit.
    let mut code = String::new();
    loop {
        code.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    code
}

impl VcdWriter {
    /// Creates a writer for one module scope, timescale 1 ns per cycle
    /// step (the viewer's x-axis is in cycles).
    pub fn new(module: impl Into<String>) -> Self {
        Self {
            module: module.into(),
            signals: Vec::new(),
            changes: Vec::new(),
        }
    }

    /// Declares a 1-bit wire.
    pub fn add_wire(&mut self, name: impl Into<String>) -> SignalId {
        self.add_bus(name, 1)
    }

    /// Declares a `width`-bit bus (at most 64 bits).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64.
    pub fn add_bus(&mut self, name: impl Into<String>, width: u32) -> SignalId {
        assert!((1..=64).contains(&width), "bus width must be 1–64 bits");
        let idx = self.signals.len();
        self.signals.push(Signal {
            name: name.into(),
            width,
            code: id_code(idx),
            last: None,
        });
        SignalId(idx)
    }

    /// Records a wire change at `time` (deduplicated: unchanged values
    /// are dropped).
    pub fn change_wire(&mut self, time: Cycle, id: SignalId, value: bool) {
        self.change_bus(time, id, value as u64);
    }

    /// Records a bus change at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not declared by this writer.
    pub fn change_bus(&mut self, time: Cycle, id: SignalId, value: u64) {
        let signal = &mut self.signals[id.0];
        if signal.last == Some(value) {
            return;
        }
        signal.last = Some(value);
        self.changes.push(Change {
            time,
            signal: id.0,
            value,
        });
    }

    /// Renders the complete VCD file.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("$date reproduction run $end\n");
        out.push_str("$version axi-hyperconnect sim $end\n");
        out.push_str("$timescale 1ns $end\n");
        out.push_str(&format!("$scope module {} $end\n", self.module));
        for s in &self.signals {
            out.push_str(&format!(
                "$var wire {} {} {} $end\n",
                s.width, s.code, s.name
            ));
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        // Changes must be grouped by non-decreasing time.
        let mut sorted: Vec<&Change> = self.changes.iter().collect();
        sorted.sort_by_key(|c| c.time);
        let mut current_time: Option<Cycle> = None;
        for c in sorted {
            if current_time != Some(c.time) {
                out.push_str(&format!("#{}\n", c.time));
                current_time = Some(c.time);
            }
            let s = &self.signals[c.signal];
            if s.width == 1 {
                out.push_str(&format!("{}{}\n", c.value & 1, s.code));
            } else {
                out.push_str(&format!("b{:b} {}\n", c.value, s.code));
            }
        }
        out
    }
}

impl crate::persist::PersistValue for VcdWriter {
    /// Serializes declarations *and* accumulated changes plus each
    /// signal's dedup state (`last`), so a restored writer continues
    /// appending — and later [`render`](VcdWriter::render)s — exactly as
    /// the uninterrupted one would.
    fn save_value(&self, w: &mut crate::persist::SnapshotWriter) {
        w.put_str(&self.module);
        w.put_usize(self.signals.len());
        for s in &self.signals {
            w.put_str(&s.name);
            w.put_u32(s.width);
            s.last.save_value(w);
        }
        w.put_usize(self.changes.len());
        for c in &self.changes {
            w.put_u64(c.time);
            w.put_usize(c.signal);
            w.put_u64(c.value);
        }
    }

    fn load_value(
        r: &mut crate::persist::SnapshotReader<'_>,
    ) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::PersistError;
        let module = r.take_str()?;
        let n_signals = r.take_usize()?;
        let mut signals = Vec::with_capacity(n_signals.min(4096));
        for idx in 0..n_signals {
            let name = r.take_str()?;
            let width = r.take_u32()?;
            if !(1..=64).contains(&width) {
                return Err(PersistError::Corrupt("vcd bus width"));
            }
            let last = Option::load_value(r)?;
            signals.push(Signal {
                name,
                width,
                code: id_code(idx),
                last,
            });
        }
        let n_changes = r.take_usize()?;
        let mut changes = Vec::with_capacity(n_changes.min(1 << 20));
        for _ in 0..n_changes {
            let time = r.take_u64()?;
            let signal = r.take_usize()?;
            if signal >= signals.len() {
                return Err(PersistError::Corrupt("vcd change signal index"));
            }
            changes.push(Change {
                time,
                signal,
                value: r.take_u64()?,
            });
        }
        Ok(Self {
            module,
            signals,
            changes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_codes_are_unique_and_printable() {
        let codes: Vec<String> = (0..500).map(id_code).collect();
        let set: std::collections::HashSet<&String> = codes.iter().collect();
        assert_eq!(set.len(), codes.len());
        for code in &codes {
            assert!(code.chars().all(|c| ('!'..='~').contains(&c)));
        }
    }

    #[test]
    fn header_declares_all_signals() {
        let mut v = VcdWriter::new("top");
        v.add_wire("valid");
        v.add_bus("addr", 32);
        let dump = v.render();
        assert!(dump.contains("$scope module top $end"));
        assert!(dump.contains("$var wire 1 ! valid $end"));
        assert!(dump.contains("$var wire 32 \" addr $end"));
        assert!(dump.contains("$enddefinitions $end"));
    }

    #[test]
    fn changes_grouped_by_time_and_deduplicated() {
        let mut v = VcdWriter::new("m");
        let w = v.add_wire("w");
        v.change_wire(0, w, true);
        v.change_wire(1, w, true); // duplicate: dropped
        v.change_wire(2, w, false);
        assert_eq!(v.changes.len(), 2);
        let dump = v.render();
        let body = dump.split("$enddefinitions $end\n").nth(1).unwrap();
        assert_eq!(body, "#0\n1!\n#2\n0!\n");
    }

    #[test]
    fn bus_values_render_binary() {
        let mut v = VcdWriter::new("m");
        let b = v.add_bus("data", 8);
        v.change_bus(5, b, 0xA5);
        let dump = v.render();
        assert!(dump.contains("#5\nb10100101 !\n"));
    }

    #[test]
    fn out_of_order_times_are_sorted() {
        let mut v = VcdWriter::new("m");
        let a = v.add_wire("a");
        let b = v.add_wire("b");
        v.change_wire(10, a, true);
        v.change_wire(3, b, true);
        let dump = v.render();
        let pos3 = dump.find("#3").unwrap();
        let pos10 = dump.find("#10").unwrap();
        assert!(pos3 < pos10);
    }

    #[test]
    #[should_panic(expected = "1–64")]
    fn oversized_bus_panics() {
        let mut v = VcdWriter::new("m");
        let _ = v.add_bus("x", 65);
    }
}
