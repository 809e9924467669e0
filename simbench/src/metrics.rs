//! The metric tables and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the benchmark's declared metrics
//! (name, unit); a run reports exactly one of the two tables, in table
//! order. The tables mirror `BENCHMARK.json` at the repository root,
//! which the self-check compares them against.

use std::collections::BTreeMap;

use crate::model::HaClass;

/// Metrics of the untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Metrics of the traced run (`--trace 1`). Times named `*_ns` are host
/// nanoseconds per simulated cycle of the traced window.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hyperconnect.tick_ns", "ns"),
    ("hyperconnect.root.tick_ns", "ns"),
    ("hyperconnect.cluster.tick_ns", "ns"),
    ("mem.tick_ns", "ns"),
    ("ha.tick_ns", "ns"),
    ("ha.dma.tick_ns", "ns"),
    ("ha.chaidnn.tick_ns", "ns"),
    ("ha.traffic.tick_ns", "ns"),
    ("ha.fault.tick_ns", "ns"),
    ("axi.bridge.transfer_ns", "ns"),
    ("sim.sched.horizon_ns", "ns"),
    ("sim.sched.horizon_probes", "count"),
    ("sim.sched.skip_frac", "ratio"),
    ("sim.sched.ticked_cycles", "count"),
    ("observe.overhead_x", "x"),
    ("observe.export_ms", "ms"),
    ("sim.persist.save_ms", "ms"),
    ("sim.persist.restore_ms", "ms"),
    ("sim.persist.image_bytes", "bytes"),
    ("campaign.warm_ms", "ms"),
    ("campaign.fork_ms_p50", "ms"),
    ("campaign.fork_ms_p90", "ms"),
    ("campaign.forks_per_s", "1/s"),
    ("campaign.bisect_s", "s"),
    ("hyperconnect.ts.subs_issued", "count"),
    ("hyperconnect.ts.budget_stall_cycles", "count"),
    ("hyperconnect.central.periods", "count"),
    ("regulate.throttle_events", "count"),
    ("mem.beats_served", "count"),
    ("mem.row_hits", "count"),
    ("mem.row_misses", "count"),
    ("mem.busy_cycles", "count"),
    ("ha.jobs", "count"),
    ("axi.bridge.beats", "count"),
    ("trace.overhead_x", "x"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.wall_ms", "ms"),
    ("trace.sim_cycles", "count"),
];

/// The per-model split of `ha.tick_ns`.
pub fn ha_class_metric(class: HaClass) -> &'static str {
    match class {
        HaClass::Dma => "ha.dma.tick_ns",
        HaClass::Chaidnn => "ha.chaidnn.tick_ns",
        HaClass::Traffic => "ha.traffic.tick_ns",
        HaClass::Fault => "ha.fault.tick_ns",
    }
}

/// Whether `name` is a valid metric name: a letter or digit, then at
/// most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Metric values collected by a run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The result line: every metric of `table` in order. A metric the
    /// run did not set, or a value that is not finite, is a bug.
    pub fn result_json(&self, table: &[(&str, &str)], attempted: u64, failed: u64) -> String {
        let body: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                debug_assert!(valid_name(name), "invalid metric name {name}");
                let v = self.0.get(name).copied().unwrap_or(f64::NAN);
                assert!(v.is_finite(), "metric {name} not measured ({v})");
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            failed == 0,
            body.join(",")
        )
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Operations whose rates `fastest_mean` averages.
pub const FASTEST: usize = 5;

/// Mean of the [`FASTEST`] highest rates in `v`: the throughput of the
/// least-disturbed operations of a run.
pub fn fastest_mean(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| b.total_cmp(a));
    let top = &v[..v.len().min(FASTEST)];
    top.iter().sum::<f64>() / top.len() as f64
}

/// Mean of the [`FASTEST`] lowest times in `v`: the duration of the
/// least-disturbed operations of a run.
pub fn shortest_mean(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let top = &v[..v.len().min(FASTEST)];
    top.iter().sum::<f64>() / top.len() as f64
}

/// Nearest-rank `q` quantile of `v`.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
