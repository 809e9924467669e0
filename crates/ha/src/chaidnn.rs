//! A CHaiDNN-style DNN accelerator model — the paper's `HA_CHaiDNN`.
//!
//! CHaiDNN (Xilinx) accelerates DNN inference on FPGA SoCs with a
//! shared-memory paradigm: per layer it streams weights and input
//! activations from DRAM, computes on the DSP array, and writes output
//! activations back (paper §VI-C). What matters for the interconnect
//! experiments is its *bus traffic pattern* — memory-intensive but with
//! dependent, shallow-outstanding accesses, i.e. far less greedy than a
//! DMA — and its frames-per-second completion rate. This model replays
//! a per-layer traffic schedule; the bundled [`googlenet`] schedule is
//! derived from the quantized GoogleNet the paper runs (layer parameter
//! and activation sizes from the GoogleNet architecture, compute cycles
//! scaled to a CHaiDNN-class DSP array).
//!
//! [`googlenet`]: Chaidnn::googlenet

use axi::types::{AxiId, BurstSize};
use axi::AxiPort;
use sim::persist::{PersistError, PersistValue, SnapshotReader, SnapshotWriter};
use sim::stats::LatencyStat;
use sim::Cycle;

use crate::engine::{ReadEngine, WriteEngine};
use crate::Accelerator;

/// One layer of the traffic schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Layer name, for reports.
    pub name: &'static str,
    /// Weight bytes streamed from DRAM.
    pub weight_bytes: u64,
    /// Input-activation bytes read from DRAM.
    pub input_bytes: u64,
    /// Output-activation bytes written to DRAM.
    pub output_bytes: u64,
    /// Cycles the DSP array computes with the bus idle.
    pub compute_cycles: u64,
}

/// Configuration of a [`Chaidnn`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaidnnConfig {
    /// Base address of the weight arena.
    pub weights_base: u64,
    /// Base address of the activation arena.
    pub activations_base: u64,
    /// Burst length used on the bus.
    pub burst_beats: u32,
    /// Beat size.
    pub size: BurstSize,
    /// Outstanding requests — dependent accesses keep this shallow.
    pub max_outstanding: u32,
    /// Frames to process (`None` = free-running).
    pub frames: Option<u64>,
}

impl Default for ChaidnnConfig {
    fn default() -> Self {
        Self {
            weights_base: 0x4000_0000,
            activations_base: 0x5000_0000,
            burst_beats: 16,
            size: BurstSize::B16,
            max_outstanding: 4,
            frames: None,
        }
    }
}

/// Where the layer machine stands. Wire codes (append-only):
/// 0 = between layers, 1 = weights, 2 = inputs, 3 = compute,
/// 4 = outputs.
#[derive(Debug)]
enum Phase {
    /// Between layers: the next tick enters layer `layer_idx`.
    BetweenLayers,
    Weights(ReadEngine),
    Inputs(ReadEngine),
    /// Busy-computing until the stored absolute cycle (exclusive: the
    /// layer advances on the first tick at or after `until`).
    Compute {
        until: Cycle,
    },
    Outputs(WriteEngine),
}

impl PersistValue for Phase {
    fn save_value(&self, w: &mut SnapshotWriter) {
        match self {
            Phase::BetweenLayers => w.put_u8(0),
            Phase::Weights(eng) => {
                w.put_u8(1);
                eng.save_value(w);
            }
            Phase::Inputs(eng) => {
                w.put_u8(2);
                eng.save_value(w);
            }
            Phase::Compute { until } => {
                w.put_u8(3);
                w.put_u64(*until);
            }
            Phase::Outputs(eng) => {
                w.put_u8(4);
                eng.save_value(w);
            }
        }
    }

    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(match r.take_u8()? {
            0 => Phase::BetweenLayers,
            1 => Phase::Weights(ReadEngine::load_value(r)?),
            2 => Phase::Inputs(ReadEngine::load_value(r)?),
            3 => Phase::Compute {
                until: r.take_u64()?,
            },
            4 => Phase::Outputs(WriteEngine::load_value(r)?),
            _ => return Err(PersistError::Corrupt("unknown chaidnn phase")),
        })
    }
}

/// The DNN accelerator model: replays a layer schedule frame by frame.
///
/// # Example
///
/// ```
/// use ha::chaidnn::{Chaidnn, ChaidnnConfig};
///
/// let dnn = Chaidnn::googlenet(ChaidnnConfig::default());
/// // Quantized GoogleNet moves >10 MiB of bus traffic per frame.
/// assert!(dnn.frame_traffic_bytes() > 10 << 20);
/// ```
#[derive(Debug)]
pub struct Chaidnn {
    name: String,
    config: ChaidnnConfig,
    layers: Vec<Layer>,
    layer_idx: usize,
    phase: Phase,
    frames_completed: u64,
    frame_started_at: Option<Cycle>,
    frame_latency: LatencyStat,
    bytes_moved: u64,
}

/// Rounds a byte count up to a whole number of beats.
fn round_beats(bytes: u64, size: BurstSize) -> u64 {
    let b = size.bytes();
    bytes.div_ceil(b) * b
}

impl Chaidnn {
    /// Creates an accelerator replaying `layers`.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(name: impl Into<String>, layers: Vec<Layer>, config: ChaidnnConfig) -> Self {
        assert!(!layers.is_empty(), "a schedule needs at least one layer");
        Self {
            name: name.into(),
            config,
            layers,
            layer_idx: 0,
            phase: Phase::BetweenLayers,
            frames_completed: 0,
            frame_started_at: None,
            frame_latency: LatencyStat::new(),
            bytes_moved: 0,
        }
    }

    /// The quantized-GoogleNet schedule of the paper's case study.
    ///
    /// Weight sizes follow the GoogleNet layer parameter counts at
    /// 8-bit quantization; activation sizes follow the 224×224
    /// architecture; compute cycles model a CHaiDNN-class DSP array
    /// (~1 GMAC of work spread across the layers).
    pub fn googlenet(config: ChaidnnConfig) -> Self {
        // (name, weights, input act, output act, compute cycles)
        const L: &[(&str, u64, u64, u64, u64)] = &[
            ("conv1-7x7", 9_600, 150_528, 802_816, 60_000),
            ("conv2-3x3", 114_688, 200_704, 602_112, 110_000),
            ("incep-3a", 163_840, 150_528, 200_704, 40_000),
            ("incep-3b", 389_120, 200_704, 376_320, 80_000),
            ("incep-4a", 376_832, 94_080, 100_352, 50_000),
            ("incep-4b", 449_536, 100_352, 100_352, 55_000),
            ("incep-4c", 510_976, 100_352, 100_352, 60_000),
            ("incep-4d", 605_184, 100_352, 103_488, 65_000),
            ("incep-4e", 868_352, 103_488, 163_072, 90_000),
            ("incep-5a", 1_071_104, 40_768, 50_176, 70_000),
            ("incep-5b", 1_388_544, 50_176, 50_176, 85_000),
            ("fc-1000", 1_024_000, 1_024, 1_024, 20_000),
        ];
        let layers = L
            .iter()
            .map(|&(name, w, i, o, c)| Layer {
                name,
                weight_bytes: w,
                input_bytes: i,
                output_bytes: o,
                compute_cycles: c,
            })
            .collect();
        Self::new("CHaiDNN-GoogleNet", layers, config)
    }

    /// A quantized-AlexNet schedule (the other classic network CHaiDNN
    /// ships support for). AlexNet is weight-dominated: its fully
    /// connected layers stream far more parameters per frame than
    /// GoogleNet, making it an even more memory-bound workload.
    pub fn alexnet(config: ChaidnnConfig) -> Self {
        const L: &[(&str, u64, u64, u64, u64)] = &[
            ("conv1-11x11", 35_000, 154_587, 290_400, 50_000),
            ("conv2-5x5", 307_200, 69_984, 186_624, 90_000),
            ("conv3-3x3", 884_736, 43_264, 64_896, 60_000),
            ("conv4-3x3", 663_552, 64_896, 64_896, 45_000),
            ("conv5-3x3", 442_368, 64_896, 43_264, 30_000),
            ("fc6", 37_748_736, 9_216, 4_096, 40_000),
            ("fc7", 16_777_216, 4_096, 4_096, 18_000),
            ("fc8", 4_096_000, 4_096, 1_000, 5_000),
        ];
        let layers = L
            .iter()
            .map(|&(name, w, i, o, c)| Layer {
                name,
                weight_bytes: w,
                input_bytes: i,
                output_bytes: o,
                compute_cycles: c,
            })
            .collect();
        Self::new("CHaiDNN-AlexNet", layers, config)
    }

    /// The layer schedule.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Bus bytes one frame moves (after beat rounding).
    pub fn frame_traffic_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| {
                round_beats(l.weight_bytes, self.config.size)
                    + round_beats(l.input_bytes, self.config.size)
                    + round_beats(l.output_bytes, self.config.size)
            })
            .sum()
    }

    fn enter_layer(&mut self) {
        let layer = &self.layers[self.layer_idx];
        let c = &self.config;
        let bytes = round_beats(layer.weight_bytes, c.size);
        self.phase = Phase::Weights(
            ReadEngine::new(c.weights_base, bytes, c.burst_beats, c.size)
                .max_outstanding(c.max_outstanding)
                .id(AxiId(2)),
        );
    }

    fn advance_phase(&mut self, now: Cycle) {
        let layer = self.layers[self.layer_idx].clone();
        let c = self.config;
        self.phase = match std::mem::replace(&mut self.phase, Phase::BetweenLayers) {
            Phase::BetweenLayers => unreachable!("a layer is in progress"),
            Phase::Weights(_) => {
                let bytes = round_beats(layer.input_bytes, c.size);
                Phase::Inputs(
                    ReadEngine::new(c.activations_base, bytes, c.burst_beats, c.size)
                        .max_outstanding(c.max_outstanding)
                        .id(AxiId(2)),
                )
            }
            Phase::Inputs(_) => Phase::Compute {
                until: now + layer.compute_cycles,
            },
            Phase::Compute { .. } => {
                let bytes = round_beats(layer.output_bytes, c.size);
                Phase::Outputs(
                    WriteEngine::new(
                        c.activations_base + 0x0100_0000,
                        bytes,
                        c.burst_beats,
                        c.size,
                    )
                    .max_outstanding(c.max_outstanding)
                    .id(AxiId(3)),
                )
            }
            Phase::Outputs(_) => {
                // Layer done.
                self.layer_idx += 1;
                if self.layer_idx >= self.layers.len() {
                    self.layer_idx = 0;
                    self.frames_completed += 1;
                    let started = self.frame_started_at.take().expect("frame started");
                    self.frame_latency.record(now.saturating_sub(started));
                }
                Phase::BetweenLayers
            }
        };
    }
}

impl Accelerator for Chaidnn {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        if self.is_done() {
            return false;
        }
        if let Phase::BetweenLayers = self.phase {
            if self.frame_started_at.is_none() {
                self.frame_started_at = Some(now);
            }
            self.enter_layer();
        }
        let mut progress = false;
        let advance = match &mut self.phase {
            Phase::BetweenLayers => unreachable!("entered above"),
            Phase::Weights(eng) | Phase::Inputs(eng) => {
                let before = eng.received_beats();
                progress |= eng.tick(now, port);
                self.bytes_moved += (eng.received_beats() - before) * self.config.size.bytes();
                eng.is_done()
            }
            Phase::Compute { until } => {
                // Pure waiting: no observable state changes until the
                // compute window elapses, so the fast-forward scheduler
                // may jump straight to `until`.
                now >= *until
            }
            Phase::Outputs(eng) => {
                progress |= eng.tick(now, port, mem::backing::pattern_byte);
                eng.is_done()
            }
        };
        if advance {
            if let Phase::Outputs(_) = self.phase {
                self.bytes_moved +=
                    round_beats(self.layers[self.layer_idx].output_bytes, self.config.size);
            }
            self.advance_phase(now);
            progress = true;
        }
        progress
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn is_done(&self) -> bool {
        self.config
            .frames
            .is_some_and(|frames| self.frames_completed >= frames)
    }

    fn jobs_completed(&self) -> u64 {
        self.frames_completed
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.is_done() {
            return None;
        }
        match self.phase {
            // Next tick enters the next layer (or a new frame's first).
            Phase::BetweenLayers => Some(now + 1),
            // The compute window is the one place the model idles with a
            // known wake-up time.
            Phase::Compute { until } => Some(until.max(now + 1)),
            // Burst engines are purely reactive: they wake when the port
            // drains or data returns, both covered by the interconnect.
            _ => None,
        }
    }

    sim::persist_state! {
        Chaidnn {
            layer_idx,
            phase,
            frames_completed,
            frame_started_at,
            frame_latency,
            bytes_moved,
        }
        skip "construction-time configuration" { name, config, layers }
        check |this| {
            if layer_idx >= this.layers.len() {
                return Err(PersistError::ShapeMismatch("chaidnn layer index"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi::AxiInterconnect;
    use hyperconnect::{HcConfig, HyperConnect};
    use mem::{MemConfig, MemoryController};
    use sim::Component;

    fn tiny_schedule() -> Vec<Layer> {
        vec![
            Layer {
                name: "l0",
                weight_bytes: 256,
                input_bytes: 128,
                output_bytes: 128,
                compute_cycles: 50,
            },
            Layer {
                name: "l1",
                weight_bytes: 128,
                input_bytes: 128,
                output_bytes: 64,
                compute_cycles: 30,
            },
        ]
    }

    fn run_frames(mut dnn: Chaidnn, max_cycles: Cycle) -> Chaidnn {
        let mut hc = HyperConnect::new(HcConfig::new(1));
        let mut ctrl = MemoryController::new(MemConfig::default());
        for now in 0..max_cycles {
            dnn.tick(now, hc.port(0));
            hc.tick(now);
            ctrl.tick(now, hc.mem_port());
            if dnn.is_done() {
                break;
            }
        }
        dnn
    }

    #[test]
    fn completes_one_frame() {
        let cfg = ChaidnnConfig {
            frames: Some(1),
            ..ChaidnnConfig::default()
        };
        let dnn = run_frames(Chaidnn::new("t", tiny_schedule(), cfg), 50_000);
        assert_eq!(dnn.jobs_completed(), 1);
        assert!(dnn.is_done());
        assert_eq!(dnn.frame_latency.count(), 1);
        // The frame takes at least the pure compute time.
        assert!(dnn.frame_latency.min().unwrap() >= 80);
    }

    #[test]
    fn frame_traffic_accounts_all_phases() {
        let dnn = Chaidnn::new("t", tiny_schedule(), ChaidnnConfig::default());
        // 256+128+128 + 128+128+64 = 832 bytes, already beat-aligned.
        assert_eq!(dnn.frame_traffic_bytes(), 832);
    }

    #[test]
    fn free_running_processes_multiple_frames() {
        let dnn = run_frames(
            Chaidnn::new("t", tiny_schedule(), ChaidnnConfig::default()),
            100_000,
        );
        assert!(dnn.jobs_completed() >= 2, "{}", dnn.jobs_completed());
        assert!(!dnn.is_done());
    }

    #[test]
    fn googlenet_schedule_is_plausible() {
        let dnn = Chaidnn::googlenet(ChaidnnConfig::default());
        assert_eq!(dnn.layers().len(), 12);
        let weights: u64 = dnn.layers().iter().map(|l| l.weight_bytes).sum();
        // Quantized GoogleNet weighs in around 7 MB at 8 bits.
        assert!((6 << 20..8 << 20).contains(&weights), "{weights}");
        let traffic = dnn.frame_traffic_bytes();
        assert!(traffic > 10 << 20, "memory-intensive workload: {traffic}");
        let compute: u64 = dnn.layers().iter().map(|l| l.compute_cycles).sum();
        assert!((500_000..1_500_000).contains(&compute), "{compute}");
    }

    #[test]
    fn alexnet_is_weight_dominated() {
        let alex = Chaidnn::alexnet(ChaidnnConfig::default());
        assert_eq!(alex.layers().len(), 8);
        let weights: u64 = alex.layers().iter().map(|l| l.weight_bytes).sum();
        // ~61M parameters at 8 bits.
        assert!((55 << 20..65 << 20).contains(&weights), "{weights}");
        // Weights dominate the per-frame traffic by a wide margin.
        let acts: u64 = alex
            .layers()
            .iter()
            .map(|l| l.input_bytes + l.output_bytes)
            .sum();
        assert!(weights > 20 * acts);
        // And its frame is heavier than GoogleNet's.
        let goog = Chaidnn::googlenet(ChaidnnConfig::default());
        assert!(alex.frame_traffic_bytes() > 4 * goog.frame_traffic_bytes());
    }

    #[test]
    fn alexnet_completes_a_frame() {
        let cfg = ChaidnnConfig {
            frames: Some(1),
            ..ChaidnnConfig::default()
        };
        let dnn = run_frames(Chaidnn::alexnet(cfg), 30_000_000);
        assert_eq!(dnn.jobs_completed(), 1);
    }

    #[test]
    fn bytes_rounded_to_beats() {
        let layers = vec![Layer {
            name: "odd",
            weight_bytes: 100, // not a multiple of 16
            input_bytes: 7,
            output_bytes: 1,
            compute_cycles: 1,
        }];
        let dnn = Chaidnn::new("odd", layers, ChaidnnConfig::default());
        assert_eq!(dnn.frame_traffic_bytes(), 112 + 16 + 16);
    }

    #[test]
    fn restore_into_a_shorter_schedule_is_rejected_whole() {
        let mut layers = tiny_schedule();
        layers.push(Layer {
            name: "l2",
            ..layers[0].clone()
        });
        let mut three = Chaidnn::new("t", layers.clone(), ChaidnnConfig::default());
        let mut hc = HyperConnect::new(HcConfig::new(1));
        let mut ctrl = MemoryController::new(MemConfig::default());
        let mut now = 0;
        while three.layer_idx < 2 {
            three.tick(now, hc.port(0));
            hc.tick(now);
            ctrl.tick(now, hc.mem_port());
            now += 1;
            assert!(now < 50_000, "never reached the third layer");
        }
        let bytes = crate::saved_state(&three);

        let mut one = Chaidnn::new("t", layers[..1].to_vec(), ChaidnnConfig::default());
        let before = crate::saved_state(&one);
        assert_eq!(
            one.restore_state(&mut SnapshotReader::new(&bytes)),
            Err(PersistError::ShapeMismatch("chaidnn layer index"))
        );
        assert_eq!(
            crate::saved_state(&one),
            before,
            "a failed restore changed the model"
        );
        let one = run_frames(one, 20_000);
        assert!(
            one.jobs_completed() > 0,
            "the rejected model no longer runs"
        );
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_schedule_panics() {
        let _ = Chaidnn::new("e", vec![], ChaidnnConfig::default());
    }
}
