//! Measurement primitives used to regenerate the paper's figures.

use crate::clock::Cycle;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use sim::stats::Counter;
///
/// let mut c = Counter::new();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.value(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` events, saturating at `u64::MAX`.
    ///
    /// Saturating rather than wrapping/panicking: fast-forwarded runs
    /// cover billions of cycles and a debug-build overflow panic in a
    /// metrics counter must never abort a simulation.
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// Adds one event, saturating at `u64::MAX`.
    pub fn incr(&mut self) {
        self.value = self.value.saturating_add(1);
    }

    /// The current count.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Resets the count to zero.
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

/// A fixed-size bank of [`Counter`]s indexed by a small category index
/// (e.g. a violation-kind discriminant).
///
/// The bank is deliberately index-typed rather than enum-typed so the
/// simulation kernel stays independent of the protocol layers that
/// define the categories.
///
/// # Example
///
/// ```
/// use sim::stats::CounterBank;
///
/// let mut bank = CounterBank::new(3);
/// bank.incr(0);
/// bank.add(2, 5);
/// assert_eq!(bank.get(0), 1);
/// assert_eq!(bank.get(2), 5);
/// assert_eq!(bank.total(), 6);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterBank {
    counters: Vec<Counter>,
}

impl CounterBank {
    /// Creates a bank of `categories` counters, all at zero.
    pub fn new(categories: usize) -> Self {
        Self {
            counters: vec![Counter::new(); categories],
        }
    }

    /// Number of categories in the bank.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the bank has no categories.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Adds one event to category `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn incr(&mut self, idx: usize) {
        self.counters[idx].incr();
    }

    /// Adds `n` events to category `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn add(&mut self, idx: usize, n: u64) {
        self.counters[idx].add(n);
    }

    /// Count in category `idx`, or zero when out of range.
    pub fn get(&self, idx: usize) -> u64 {
        self.counters.get(idx).map_or(0, Counter::value)
    }

    /// Sum over all categories.
    pub fn total(&self) -> u64 {
        self.counters.iter().map(Counter::value).sum()
    }

    /// Per-category counts in index order.
    pub fn values(&self) -> Vec<u64> {
        self.counters.iter().map(Counter::value).collect()
    }

    /// Resets every category to zero.
    pub fn reset(&mut self) {
        for c in &mut self.counters {
            c.reset();
        }
    }
}

/// Min/max/mean aggregate of observed latencies (in cycles).
///
/// The paper reports both *maximum* memory access times (Fig. 3b) and
/// notes average times differ by less than 5%; this recorder captures
/// both without storing every sample.
///
/// # Example
///
/// ```
/// use sim::stats::LatencyStat;
///
/// let mut l = LatencyStat::new();
/// l.record(10);
/// l.record(20);
/// assert_eq!(l.min(), Some(10));
/// assert_eq!(l.max(), Some(20));
/// assert_eq!(l.mean(), Some(15.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStat {
    count: u64,
    sum: u128,
    min: Option<Cycle>,
    max: Option<Cycle>,
}

impl LatencyStat {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample (count and sum saturate rather than
    /// overflow on multi-billion-sample runs).
    pub fn record(&mut self, cycles: Cycle) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(cycles as u128);
        self.min = Some(self.min.map_or(cycles, |m| m.min(cycles)));
        self.max = Some(self.max.map_or(cycles, |m| m.max(cycles)));
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample, if any was recorded.
    pub fn min(&self) -> Option<Cycle> {
        self.min
    }

    /// Largest sample, if any was recorded.
    pub fn max(&self) -> Option<Cycle> {
        self.max
    }

    /// Arithmetic mean of samples, if any was recorded.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Merges another recorder's samples into this one (saturating).
    pub fn merge(&mut self, other: &LatencyStat) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// A fixed-bucket histogram over `u64` samples with linear bucket width.
///
/// Samples above the covered range land in an explicit overflow bucket so
/// nothing is silently dropped.
///
/// # Example
///
/// ```
/// use sim::stats::Histogram;
///
/// let mut h = Histogram::new(10, 4); // 4 buckets of width 10: 0..40
/// h.record(5);
/// h.record(15);
/// h.record(100); // overflow
/// assert_eq!(h.quantile(0.0), Some(10)); // 5 falls in 0..10
/// assert_eq!(h.quantile(0.5), Some(20)); // 15 falls in 10..20
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets of `bucket_width` each.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` or `buckets` is zero.
    pub fn new(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be non-zero");
        assert!(buckets > 0, "bucket count must be non-zero");
        Self {
            bucket_width,
            buckets: vec![0; buckets],
            overflow: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        // A power-of-two width (the observability registry's) divides
        // by shifting, off the latency of a 64-bit division.
        let idx = if self.bucket_width.is_power_of_two() {
            sample >> self.bucket_width.trailing_zeros()
        } else {
            sample / self.bucket_width
        } as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of samples beyond the covered range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded, including overflow.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.overflow
    }

    /// The sample value below which `q` (0.0..=1.0) of samples fall,
    /// resolved to bucket upper bounds.
    ///
    /// Returns `None` when the histogram is empty, and also when the
    /// requested quantile falls inside the *overflow* bucket: samples
    /// beyond the covered range have no meaningful upper bound, so the
    /// caller must consult [`Self::overflow`] rather than receive a
    /// fabricated value. `q` at or below 0.0 resolves to the first
    /// *non-empty* bucket (the smallest recorded sample's bucket), never
    /// to an empty leading bucket.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        // At least one sample must be covered: q = 0.0 means "the bucket
        // holding the smallest sample", not "bucket 0 unconditionally".
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, count) in self.buckets.iter().enumerate() {
            seen += count;
            // `seen` only crosses `target` (>= 1) inside a non-empty
            // bucket, so this never resolves to an empty leading bucket.
            if seen >= target {
                return Some((idx as u64 + 1) * self.bucket_width);
            }
        }
        // Target lands in the overflow bucket: no bounded answer exists.
        None
    }
}

/// Tracks bytes transferred over a cycle span to report bandwidth.
///
/// # Example
///
/// ```
/// use sim::stats::BandwidthMeter;
///
/// let mut bw = BandwidthMeter::new();
/// bw.record(100, 16);
/// bw.record(200, 16);
/// assert_eq!(bw.bytes(), 32);
/// // 32 bytes over cycles 100..=200.
/// assert!((bw.bytes_per_cycle(0, 200) - 0.16).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BandwidthMeter {
    bytes: u64,
    first: Option<Cycle>,
    last: Option<Cycle>,
}

impl BandwidthMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` transferred at cycle `now` (saturating, so long
    /// fast-forwarded runs cannot overflow the byte total).
    pub fn record(&mut self, now: Cycle, bytes: u64) {
        self.bytes = self.bytes.saturating_add(bytes);
        if self.first.is_none() {
            self.first = Some(now);
        }
        self.last = Some(now);
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Average bytes per cycle over an explicit window.
    ///
    /// Returns 0.0 for an empty window.
    pub fn bytes_per_cycle(&self, window_start: Cycle, window_end: Cycle) -> f64 {
        if window_end <= window_start {
            return 0.0;
        }
        self.bytes as f64 / (window_end - window_start) as f64
    }

    /// Resets the meter.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// A level gauge tracking a current value and its high-water mark.
///
/// Unlike a counter, [`Gauge::set`] is *idempotent*: setting the same
/// value twice is indistinguishable from setting it once. That makes
/// gauges safe to sample from `tick()` under the fast-forward scheduler —
/// skipped no-progress cycles would have re-set the same level, so the
/// observable state (current + peak) is identical in both scheduler
/// modes.
///
/// # Example
///
/// ```
/// use sim::stats::Gauge;
///
/// let mut g = Gauge::new();
/// g.set(3);
/// g.set(7);
/// g.set(2);
/// assert_eq!(g.current(), 2);
/// assert_eq!(g.peak(), 7);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    current: u64,
    peak: u64,
}

impl Gauge {
    /// Creates a gauge at level zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current level, updating the peak if exceeded.
    pub fn set(&mut self, level: u64) {
        self.current = level;
        if level > self.peak {
            self.peak = level;
        }
    }

    /// The most recently set level.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// The highest level ever set.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Resets both level and peak to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Sliding-window transaction counter used to *verify* reservation:
/// records event cycles and answers "how many events fell inside any
/// window of length `w`" — the paper's bandwidth-reservation invariant is
/// that this never exceeds the budget (+ boundary effects across two
/// adjacent periods).
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    cycles: Vec<Cycle>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an event at cycle `now`. Events must be recorded in
    /// non-decreasing cycle order.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than the previously recorded event.
    pub fn record(&mut self, now: Cycle) {
        if let Some(&last) = self.cycles.last() {
            assert!(now >= last, "events must be recorded in order");
        }
        self.cycles.push(now);
    }

    /// Total recorded events.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// All recorded event cycles, in order.
    pub fn cycles(&self) -> &[Cycle] {
        &self.cycles
    }

    /// Number of events in the half-open cycle window `[start, start+w)`.
    pub fn count_in_window(&self, start: Cycle, w: Cycle) -> usize {
        let lo = self.cycles.partition_point(|&c| c < start);
        let hi = self
            .cycles
            .partition_point(|&c| c < start.saturating_add(w));
        hi - lo
    }

    /// The maximum number of events observed in any sliding window of
    /// length `w` (windows anchored at each event).
    pub fn max_in_any_window(&self, w: Cycle) -> usize {
        self.cycles
            .iter()
            .map(|&start| self.count_in_window(start, w))
            .max()
            .unwrap_or(0)
    }
}

mod persist_impls {
    //! [`PersistValue`](crate::persist::PersistValue) for every
    //! measurement primitive — statistics feed fingerprint surfaces
    //! (metrics JSON, violation reports), so they must survive
    //! snapshot/restore bit-exactly.

    use super::*;
    use crate::persist::PersistError;

    crate::persist_fields!(Counter { value });
    crate::persist_fields!(CounterBank { counters });
    crate::persist_fields!(LatencyStat {
        count,
        sum,
        min,
        max
    });
    crate::persist_fields!(Histogram { bucket_width, buckets, overflow } check |h| {
        if h.bucket_width == 0 || h.buckets.is_empty() {
            return Err(PersistError::Corrupt("histogram shape"));
        }
    });
    crate::persist_fields!(BandwidthMeter { bytes, first, last });
    crate::persist_fields!(Gauge { current, peak });
    crate::persist_fields!(EventLog { cycles });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_resets() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.value(), 10);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn counter_bank_indexes_and_totals() {
        let mut bank = CounterBank::new(4);
        assert_eq!(bank.len(), 4);
        assert!(!bank.is_empty());
        bank.incr(1);
        bank.incr(1);
        bank.add(3, 7);
        assert_eq!(bank.get(0), 0);
        assert_eq!(bank.get(1), 2);
        assert_eq!(bank.get(3), 7);
        assert_eq!(bank.get(99), 0); // out of range reads as zero
        assert_eq!(bank.total(), 9);
        assert_eq!(bank.values(), vec![0, 2, 0, 7]);
        bank.reset();
        assert_eq!(bank.total(), 0);
    }

    #[test]
    #[should_panic]
    fn counter_bank_incr_out_of_range_panics() {
        CounterBank::new(2).incr(2);
    }

    #[test]
    fn latency_stat_empty() {
        let l = LatencyStat::new();
        assert_eq!(l.count(), 0);
        assert_eq!(l.min(), None);
        assert_eq!(l.max(), None);
        assert_eq!(l.mean(), None);
    }

    #[test]
    fn latency_stat_single_sample() {
        let mut l = LatencyStat::new();
        l.record(42);
        assert_eq!(l.min(), Some(42));
        assert_eq!(l.max(), Some(42));
        assert_eq!(l.mean(), Some(42.0));
    }

    #[test]
    fn latency_stat_merge() {
        let mut a = LatencyStat::new();
        a.record(10);
        let mut b = LatencyStat::new();
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(30));
        assert_eq!(a.mean(), Some(20.0));
    }

    #[test]
    fn latency_stat_merge_with_empty() {
        let mut a = LatencyStat::new();
        a.record(5);
        a.merge(&LatencyStat::new());
        assert_eq!(a.count(), 1);
        assert_eq!(a.min(), Some(5));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(4, 2); // 0..4, 4..8
        h.record(0);
        h.record(3);
        h.record(4);
        h.record(8);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(10, 10);
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(Histogram::new(1, 1).quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn histogram_zero_width_panics() {
        let _ = Histogram::new(0, 4);
    }

    #[test]
    fn histogram_quantile_zero_skips_empty_leading_buckets() {
        // Regression: quantile(0.0) used to return bucket 0's upper bound
        // (10) even though bucket 0 holds no samples.
        let mut h = Histogram::new(10, 10);
        h.record(25); // bucket 2
        h.record(27);
        assert_eq!(h.quantile(0.0), Some(30));
        assert_eq!(h.quantile(1.0), Some(30));
    }

    #[test]
    fn histogram_quantile_in_overflow_is_none() {
        // Regression: quantiles landing in the overflow bucket used to
        // resolve to Some(u64::MAX) as if that were a real upper bound.
        let mut h = Histogram::new(10, 2); // covers 0..20
        h.record(5);
        h.record(1000); // overflow
        assert_eq!(h.quantile(0.5), Some(10));
        assert_eq!(h.quantile(1.0), None);
        assert_eq!(h.overflow(), 1);
        // All samples in overflow: every quantile is unbounded.
        let mut h = Histogram::new(10, 2);
        h.record(999);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let mut c = Counter::new();
        c.add(u64::MAX - 1);
        c.incr();
        c.incr(); // would overflow with bare `+=`
        c.add(7);
        assert_eq!(c.value(), u64::MAX);
    }

    #[test]
    fn latency_stat_saturates_instead_of_overflowing() {
        let mut l = LatencyStat {
            count: u64::MAX,
            sum: u128::MAX,
            min: Some(1),
            max: Some(1),
        };
        l.record(10); // would overflow both count and sum
        assert_eq!(l.count(), u64::MAX);
        assert_eq!(l.max(), Some(10));
        let mut other = LatencyStat::new();
        other.record(5);
        l.merge(&other); // merge saturates too
        assert_eq!(l.count(), u64::MAX);
    }

    #[test]
    fn bandwidth_meter_saturates_instead_of_overflowing() {
        let mut bw = BandwidthMeter::new();
        bw.record(0, u64::MAX - 10);
        bw.record(1, 100); // would overflow with bare `+=`
        assert_eq!(bw.bytes(), u64::MAX);
        assert_eq!(bw.last, Some(1));
    }

    #[test]
    fn gauge_tracks_current_and_peak() {
        let mut g = Gauge::new();
        assert_eq!(g.current(), 0);
        assert_eq!(g.peak(), 0);
        g.set(5);
        g.set(5); // idempotent: re-setting changes nothing
        let snap = g;
        g.set(5);
        assert_eq!(g, snap);
        g.set(9);
        g.set(2);
        assert_eq!(g.current(), 2);
        assert_eq!(g.peak(), 9);
        g.reset();
        assert_eq!(g, Gauge::new());
    }

    #[test]
    fn bandwidth_meter_window() {
        let mut bw = BandwidthMeter::new();
        bw.record(10, 64);
        bw.record(20, 64);
        assert_eq!(bw.first, Some(10));
        assert_eq!(bw.last, Some(20));
        assert!((bw.bytes_per_cycle(0, 128) - 1.0).abs() < 1e-12);
        assert_eq!(bw.bytes_per_cycle(10, 10), 0.0);
        bw.reset();
        assert_eq!(bw.bytes(), 0);
    }

    #[test]
    fn event_log_window_counts() {
        let mut log = EventLog::new();
        for c in [0u64, 5, 9, 10, 11, 30] {
            log.record(c);
        }
        assert_eq!(log.count_in_window(0, 10), 3); // 0,5,9
        assert_eq!(log.count_in_window(10, 10), 2); // 10,11
        assert_eq!(log.max_in_any_window(10), 4); // window [5,15): 5,9,10,11
    }

    #[test]
    fn event_log_max_window_anchored_at_events() {
        let mut log = EventLog::new();
        for c in [5u64, 9, 10, 11] {
            log.record(c);
        }
        // Window [5, 15) contains all four events.
        assert_eq!(log.max_in_any_window(10), 4);
    }

    #[test]
    #[should_panic(expected = "order")]
    fn event_log_rejects_out_of_order() {
        let mut log = EventLog::new();
        log.record(10);
        log.record(5);
    }

    #[test]
    fn event_log_empty() {
        let log = EventLog::new();
        assert!(log.is_empty());
        assert_eq!(log.max_in_any_window(100), 0);
    }
}
