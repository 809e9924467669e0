//! Clock-domain bookkeeping: cycle counting and cycle/time conversion.

/// A simulation time point, measured in clock cycles since reset.
///
/// Cycles are plain `u64` values rather than a newtype: they participate in
/// arithmetic everywhere in the models, and a newtype would force a
/// conversion at nearly every use site without ruling out any real bug
/// class (there is only one clock domain in the modeled designs).
pub type Cycle = u64;

/// Description of the (single) clock domain driving a simulated design.
///
/// The paper's measurements are taken on the FPGA fabric clock of a Xilinx
/// ZCU102; all results in this reproduction are primarily reported in
/// cycles and converted to wall-clock time with a `ClockConfig` only for
/// presentation (frames per second, MB/s, ...).
///
/// # Example
///
/// ```
/// use sim::ClockConfig;
///
/// let clk = ClockConfig::new(150_000_000);
/// assert_eq!(clk.freq_hz(), 150_000_000);
/// // 150 cycles at 150 MHz is one microsecond.
/// assert!((clk.cycles_to_seconds(150) - 1e-6).abs() < 1e-15);
/// assert_eq!(clk.seconds_to_cycles(1e-6), 150);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockConfig {
    freq_hz: u64,
}

impl ClockConfig {
    /// Default fabric clock used throughout the reproduction: 150 MHz,
    /// a common Zynq UltraScale+ programmable-logic clock.
    pub const DEFAULT_FABRIC_HZ: u64 = 150_000_000;

    /// Creates a clock domain with the given frequency in Hertz.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is zero.
    pub fn new(freq_hz: u64) -> Self {
        assert!(freq_hz > 0, "clock frequency must be non-zero");
        Self { freq_hz }
    }

    /// The clock frequency in Hertz.
    pub fn freq_hz(&self) -> u64 {
        self.freq_hz
    }

    /// The clock period in seconds.
    pub fn period_seconds(&self) -> f64 {
        1.0 / self.freq_hz as f64
    }

    /// Converts a cycle count to seconds.
    pub fn cycles_to_seconds(&self, cycles: Cycle) -> f64 {
        cycles as f64 / self.freq_hz as f64
    }

    /// Converts a duration in seconds to the nearest cycle count.
    pub fn seconds_to_cycles(&self, seconds: f64) -> Cycle {
        (seconds * self.freq_hz as f64).round() as Cycle
    }

    /// Throughput in bytes/second given bytes moved over a cycle span.
    ///
    /// Returns 0.0 for a zero-cycle span (no time has elapsed, throughput
    /// is undefined; 0.0 keeps report code branch-free).
    pub fn bytes_per_second(&self, bytes: u64, cycles: Cycle) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        bytes as f64 / self.cycles_to_seconds(cycles)
    }

    /// Events per second (e.g. frames/s, DMA jobs/s) over a cycle span.
    ///
    /// Returns 0.0 for a zero-cycle span.
    pub fn events_per_second(&self, events: u64, cycles: Cycle) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        events as f64 / self.cycles_to_seconds(cycles)
    }
}

impl Default for ClockConfig {
    fn default() -> Self {
        Self::new(Self::DEFAULT_FABRIC_HZ)
    }
}

crate::persist_fields!(ClockConfig { freq_hz } check |clock| {
    if clock.freq_hz == 0 {
        return Err(crate::persist::PersistError::Corrupt(
            "zero clock frequency",
        ));
    }
});

impl std::fmt::Display for ClockConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} MHz", self.freq_hz as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_150mhz() {
        assert_eq!(ClockConfig::default().freq_hz(), 150_000_000);
    }

    #[test]
    fn period_matches_frequency() {
        let clk = ClockConfig::new(100_000_000);
        assert!((clk.period_seconds() - 10e-9).abs() < 1e-18);
    }

    #[test]
    fn roundtrip_cycles_seconds() {
        let clk = ClockConfig::new(200_000_000);
        for cycles in [0u64, 1, 7, 1_000_000] {
            let s = clk.cycles_to_seconds(cycles);
            assert_eq!(clk.seconds_to_cycles(s), cycles);
        }
    }

    #[test]
    fn bytes_per_second_zero_span_is_zero() {
        let clk = ClockConfig::default();
        assert_eq!(clk.bytes_per_second(1024, 0), 0.0);
    }

    #[test]
    fn bytes_per_second_full_rate() {
        // 16 bytes per cycle at 150 MHz = 2.4 GB/s.
        let clk = ClockConfig::default();
        let bps = clk.bytes_per_second(16 * 1000, 1000);
        assert!((bps - 2.4e9).abs() < 1.0);
    }

    #[test]
    fn events_per_second() {
        let clk = ClockConfig::new(150_000_000);
        // 30 events over one simulated second.
        let eps = clk.events_per_second(30, 150_000_000);
        assert!((eps - 30.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_panics() {
        let _ = ClockConfig::new(0);
    }

    #[test]
    fn display_mentions_mhz() {
        assert_eq!(ClockConfig::default().to_string(), "150.0 MHz");
    }
}
