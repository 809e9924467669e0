//! A Xilinx-AXI-DMA-like engine — the paper's `HA_DMA`.
//!
//! The paper uses AXI DMAs as representative accelerators because they
//! "can mimic the behavior on the bus of many HAs" and saturate the
//! platform's memory bandwidth (§VI-B). This model moves a configurable
//! amount of data per *job* (the case study uses 4 MiB read + 4 MiB
//! written back) with deep outstanding pipelining, and reports completed
//! jobs — the paper's DMA performance index is jobs per second.

use axi::types::{AxiId, BurstSize};
use axi::AxiPort;
use sim::stats::LatencyStat;
use sim::Cycle;

use crate::engine::{ReadEngine, WriteEngine};
use crate::Accelerator;

/// Configuration of a [`Dma`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaConfig {
    /// Source region base address (4 KiB aligned recommended).
    pub src_base: u64,
    /// Destination region base address.
    pub dst_base: u64,
    /// Bytes read from the source per job (0 disables the read stream).
    pub read_bytes: u64,
    /// Bytes written to the destination per job (0 disables writes).
    pub write_bytes: u64,
    /// Burst length in beats.
    pub burst_beats: u32,
    /// Beat size.
    pub size: BurstSize,
    /// Outstanding requests per direction — DMAs are greedy.
    pub max_outstanding: u32,
    /// Number of jobs to run (`None` = free-running).
    pub jobs: Option<u64>,
}

impl DmaConfig {
    /// The paper's case-study `HA_DMA`: move 4 MiB in and 4 MiB out per
    /// job with maximum-length bursts and deep pipelining — the paper
    /// notes this DMA "is more greedy in accessing the bus" than the
    /// DNN accelerator, which is exactly what lets it monopolize a
    /// plain round-robin interconnect.
    pub fn case_study() -> Self {
        Self {
            src_base: 0x1000_0000,
            dst_base: 0x2000_0000,
            read_bytes: 4 << 20,
            write_bytes: 4 << 20,
            burst_beats: 256,
            size: BurstSize::B16,
            max_outstanding: 8,
            jobs: None,
        }
    }

    /// A pure-read DMA of `bytes` (used for the Fig. 3(b) access-time
    /// sweep).
    pub fn reader(bytes: u64, burst_beats: u32, size: BurstSize) -> Self {
        Self {
            src_base: 0x1000_0000,
            dst_base: 0,
            read_bytes: bytes,
            write_bytes: 0,
            burst_beats,
            size,
            max_outstanding: 8,
            jobs: Some(1),
        }
    }

    /// Limits the number of jobs.
    pub fn jobs(mut self, jobs: u64) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Sets the outstanding-request limit per direction.
    pub fn max_outstanding(mut self, n: u32) -> Self {
        self.max_outstanding = n;
        self
    }
}

/// The DMA model. Each job reads `read_bytes` from the source region
/// and independently writes `write_bytes` to the destination region;
/// the job completes when both streams finish.
///
/// # Example
///
/// ```
/// use axi::types::BurstSize;
/// use ha::dma::{Dma, DmaConfig};
/// use ha::Accelerator;
///
/// let dma = Dma::new("probe", DmaConfig::reader(4096, 16, BurstSize::B16));
/// assert_eq!(dma.name(), "probe");
/// assert!(!dma.is_done());
/// ```
#[derive(Debug)]
pub struct Dma {
    name: String,
    config: DmaConfig,
    reader: Option<ReadEngine>,
    writer: Option<WriteEngine>,
    jobs_completed: u64,
    job_started_at: Option<Cycle>,
    job_latency: LatencyStat,
}

impl Dma {
    /// Creates a DMA with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if both streams are disabled (`read_bytes == 0` and
    /// `write_bytes == 0`).
    pub fn new(name: impl Into<String>, config: DmaConfig) -> Self {
        assert!(
            config.read_bytes > 0 || config.write_bytes > 0,
            "a DMA must read or write something"
        );
        let mut dma = Self {
            name: name.into(),
            config,
            reader: None,
            writer: None,
            jobs_completed: 0,
            job_started_at: None,
            job_latency: LatencyStat::new(),
        };
        dma.arm();
        dma
    }

    fn arm(&mut self) {
        let c = &self.config;
        self.reader = (c.read_bytes > 0).then(|| {
            ReadEngine::new(c.src_base, c.read_bytes, c.burst_beats, c.size)
                .max_outstanding(c.max_outstanding)
                .id(AxiId(0))
        });
        self.writer = (c.write_bytes > 0).then(|| {
            WriteEngine::new(c.dst_base, c.write_bytes, c.burst_beats, c.size)
                .max_outstanding(c.max_outstanding)
                .id(AxiId(1))
        });
        self.job_started_at = None;
    }

    /// Per-job completion-time distribution, in cycles.
    pub fn job_latency(&self) -> &LatencyStat {
        &self.job_latency
    }

    /// Per-read-burst latency distribution of the current/last job.
    pub fn read_txn_latency(&self) -> Option<&LatencyStat> {
        self.reader.as_ref().map(ReadEngine::txn_latency)
    }

    /// The configuration.
    pub fn config(&self) -> &DmaConfig {
        &self.config
    }

    fn streams_done(&self) -> bool {
        self.reader.as_ref().is_none_or(ReadEngine::is_done)
            && self.writer.as_ref().is_none_or(WriteEngine::is_done)
    }
}

impl Accelerator for Dma {
    fn tick(&mut self, now: Cycle, port: &mut AxiPort) -> bool {
        if self.is_done() {
            return false;
        }
        if self.job_started_at.is_none() {
            self.job_started_at = Some(now);
        }
        let mut progress = false;
        if let Some(r) = self.reader.as_mut() {
            progress |= r.tick(now, port);
        }
        if let Some(w) = self.writer.as_mut() {
            progress |= w.tick(now, port, mem::backing::pattern_byte);
        }
        if self.streams_done() {
            self.jobs_completed += 1;
            let started = self.job_started_at.expect("job was started");
            self.job_latency.record(now.saturating_sub(started));
            if !self.is_done() {
                // Immediately start the next job (greedy back-to-back).
                if let Some(r) = self.reader.as_mut() {
                    r.restart();
                }
                if let Some(w) = self.writer.as_mut() {
                    w.restart();
                }
                self.job_started_at = None;
            }
            progress = true;
        }
        progress
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn is_done(&self) -> bool {
        self.config
            .jobs
            .is_some_and(|jobs| self.jobs_completed >= jobs)
    }

    fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        // Purely reactive: the greedy engines issue whenever the port has
        // space and otherwise wait for responses, so only port traffic
        // (covered by the interconnect's hint) can wake a blocked DMA.
        None
    }

    sim::persist_state! {
        Dma { reader, writer, jobs_completed, job_started_at, job_latency }
        skip "construction-time configuration" { name, config }
        check |this| {
            // A write stream cannot appear in a DMA built without one.
            if writer.is_some() && this.writer.is_none() {
                return Err(sim::persist::PersistError::ShapeMismatch("dma write stream"));
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
    use sim::persist::{PersistError, SnapshotReader};
    use sim::Component;

    /// Drives a single DMA through a HyperConnect into a memory model.
    fn run_system(dma: &mut Dma, cycles: Cycle) -> (MemoryController, u64) {
        let mut hc = HyperConnect::new(HcConfig::new(1));
        let mut ctrl = MemoryController::new(MemConfig::default());
        ctrl.memory_mut().fill_pattern(
            dma.config().src_base,
            dma.config().read_bytes.max(64) as usize,
        );
        let mut finished_at = 0;
        for now in 0..cycles {
            dma.tick(now, hc.port(0));
            hc.tick(now);
            ctrl.tick(now, hc.mem_port());
            if dma.is_done() && finished_at == 0 {
                finished_at = now;
                break;
            }
        }
        (ctrl, finished_at)
    }

    #[test]
    fn single_job_reader_completes() {
        let mut dma = Dma::new("rd", DmaConfig::reader(4096, 16, BurstSize::B16));
        let (_, finished) = run_system(&mut dma, 20_000);
        assert!(finished > 0, "reader never finished");
        assert_eq!(dma.jobs_completed(), 1);
        assert_eq!(dma.job_latency().count(), 1);
    }

    #[test]
    fn copy_job_writes_pattern_to_memory() {
        let cfg = DmaConfig {
            src_base: 0x10_0000,
            dst_base: 0x20_0000,
            read_bytes: 1024,
            write_bytes: 1024,
            burst_beats: 16,
            size: BurstSize::B16,
            max_outstanding: 4,
            jobs: Some(1),
        };
        let mut dma = Dma::new("copy", cfg);
        let (ctrl, finished) = run_system(&mut dma, 50_000);
        assert!(finished > 0);
        // The write stream fills the destination with the pattern keyed
        // by destination address.
        assert!(ctrl.memory().verify_pattern(0x20_0000, 0x20_0000, 1024));
    }

    #[test]
    fn free_running_dma_repeats_jobs() {
        let cfg = DmaConfig {
            read_bytes: 256,
            write_bytes: 0,
            jobs: None,
            ..DmaConfig::case_study()
        };
        let mut dma = Dma::new("loop", cfg);
        let mut hc = HyperConnect::new(HcConfig::new(1));
        let mut ctrl = MemoryController::new(MemConfig::default());
        for now in 0..20_000 {
            dma.tick(now, hc.port(0));
            hc.tick(now);
            ctrl.tick(now, hc.mem_port());
        }
        assert!(dma.jobs_completed() > 5, "only {}", dma.jobs_completed());
        assert!(!dma.is_done());
    }

    #[test]
    fn job_limit_respected() {
        let cfg = DmaConfig::reader(64, 16, BurstSize::B16).jobs(3);
        let mut dma = Dma::new("lim", cfg);
        let mut hc = HyperConnect::new(HcConfig::new(1));
        let mut ctrl = MemoryController::new(MemConfig::ideal());
        for now in 0..50_000 {
            dma.tick(now, hc.port(0));
            hc.tick(now);
            ctrl.tick(now, hc.mem_port());
        }
        assert_eq!(dma.jobs_completed(), 3);
        assert!(dma.is_done());
    }

    fn copy_config() -> DmaConfig {
        DmaConfig {
            src_base: 0x10_0000,
            dst_base: 0x20_0000,
            read_bytes: 4096,
            write_bytes: 4096,
            burst_beats: 16,
            size: BurstSize::B16,
            max_outstanding: 4,
            jobs: None,
        }
    }

    /// A copy DMA run `cycles` cycles into its first job.
    fn busy_copy(cycles: Cycle) -> Dma {
        let mut dma = Dma::new("copy", copy_config());
        let mut hc = HyperConnect::new(HcConfig::new(1));
        let mut ctrl = MemoryController::new(MemConfig::default());
        for now in 0..cycles {
            dma.tick(now, hc.port(0));
            hc.tick(now);
            ctrl.tick(now, hc.mem_port());
        }
        dma
    }

    #[test]
    fn snapshot_roundtrip_resumes_the_write_stream() {
        let bytes = crate::saved_state(&busy_copy(60));
        let mut fresh = Dma::new("copy", copy_config());
        fresh
            .restore_state(&mut SnapshotReader::new(&bytes))
            .unwrap();
        assert_eq!(crate::saved_state(&fresh), bytes);
    }

    #[test]
    fn truncated_restore_changes_nothing() {
        let bytes = crate::saved_state(&busy_copy(60));
        let mut target = busy_copy(25);
        let before = crate::saved_state(&target);
        let cut = &bytes[..bytes.len() - 8];
        assert!(matches!(
            target.restore_state(&mut SnapshotReader::new(cut)),
            Err(PersistError::Truncated { .. })
        ));
        assert_eq!(
            crate::saved_state(&target),
            before,
            "a failed restore changed the DMA"
        );
    }

    #[test]
    fn write_stream_into_a_reader_is_a_shape_mismatch() {
        let bytes = crate::saved_state(&busy_copy(60));
        let mut reader = Dma::new(
            "copy",
            DmaConfig {
                write_bytes: 0,
                ..copy_config()
            },
        );
        let before = crate::saved_state(&reader);
        assert_eq!(
            reader.restore_state(&mut SnapshotReader::new(&bytes)),
            Err(PersistError::ShapeMismatch("dma write stream"))
        );
        assert_eq!(
            crate::saved_state(&reader),
            before,
            "a failed restore changed the DMA"
        );
    }

    #[test]
    #[should_panic(expected = "read or write")]
    fn empty_dma_panics() {
        let cfg = DmaConfig {
            read_bytes: 0,
            write_bytes: 0,
            ..DmaConfig::case_study()
        };
        let _ = Dma::new("nil", cfg);
    }
}
