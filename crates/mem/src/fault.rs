//! Seeded transient-fault injection and the ECC model for the memory
//! controller.
//!
//! The master-side fault library (`ha::fault`) covers everything an
//! accelerator can do wrong; this module covers the other half of the
//! fault surface — the slave and the fabric between the interconnect
//! and the DRAM. An armed [`FaultInjector`] perturbs the controller at
//! exactly two deterministic event classes:
//!
//! * **acceptance** — an otherwise-good burst may be spuriously failed
//!   with `SLVERR` ([`MemFaultConfig::spurious_slverr`]). The
//!   controller's existing error semantics then apply unchanged: error
//!   reads stream zeroed beats, error writes never commit, so a
//!   spuriously failed transaction is always safe to retry;
//! * **read service** — each delivered OK beat may take a single- or
//!   double-bit payload flip, be dropped, or be duplicated.
//!
//! When the ECC model is armed ([`MemFaultConfig::ecc`]), single-bit
//! flips are detected and corrected (the payload reaches the master
//! intact and [`FaultStats::corrected`] counts the scrub) while
//! double-bit flips are detected but uncorrectable — the beat is
//! delivered with `SLVERR` so the master knows to discard and retry.
//! Without ECC, every flip is *silent corruption*: the data is wrong
//! and nothing announces it. That case exists precisely so the
//! `ha::ScoreboardMaster` data-integrity oracle has something to catch.
//!
//! Because every RNG draw happens on a controller accept/serve event —
//! all of which occur inside the controller's own `tick` — an armed
//! injector is transparent to the naive and fast-forward schedulers
//! alike.
//!
//! Beat **drops** and **duplicates** model loss on the return fabric.
//! They violate the AXI beat-count contract by design (that is the
//! fault), so they must only be armed on directly wired ports: routed
//! through an interconnect's EXBAR they would desynchronize R-routing
//! records. Campaign scenarios therefore keep
//! [`MemFaultConfig::drop_r`] and [`MemFaultConfig::dup_r`] at zero and
//! exercise them in unit tests instead.

use axi::types::Resp;
use sim::SimRng;

/// Seeded fault probabilities for a [`FaultInjector`].
///
/// All probabilities are per-event (per accepted burst, or per
/// delivered OK read beat) and default to zero; a default config with
/// only a seed injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemFaultConfig {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// Probability an otherwise-good accepted burst is failed with
    /// `SLVERR` (a transient slave error: retrying succeeds).
    pub spurious_slverr: f64,
    /// Probability a delivered OK read beat takes a single-bit flip.
    pub flip_single: f64,
    /// Probability a delivered OK read beat takes a double-bit flip.
    pub flip_double: f64,
    /// Probability a delivered OK read beat is dropped (never reaches
    /// the port). Unit-test only — see the module docs.
    pub drop_r: f64,
    /// Probability a delivered OK read beat is duplicated. Unit-test
    /// only — see the module docs.
    pub dup_r: f64,
    /// Arms the ECC model: single-bit flips are corrected in flight,
    /// double-bit flips are detected and fail the beat with `SLVERR`.
    pub ecc: bool,
}

impl MemFaultConfig {
    /// A config that injects nothing yet (all probabilities zero).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            spurious_slverr: 0.0,
            flip_single: 0.0,
            flip_double: 0.0,
            drop_r: 0.0,
            dup_r: 0.0,
            ecc: false,
        }
    }

    /// Sets the spurious-`SLVERR` probability per accepted burst.
    pub fn spurious_slverr(mut self, p: f64) -> Self {
        self.spurious_slverr = p;
        self
    }

    /// Sets the single-bit-flip probability per delivered OK read beat.
    pub fn flip_single(mut self, p: f64) -> Self {
        self.flip_single = p;
        self
    }

    /// Sets the double-bit-flip probability per delivered OK read beat.
    pub fn flip_double(mut self, p: f64) -> Self {
        self.flip_double = p;
        self
    }

    /// Sets the R-beat drop probability (unit-test only).
    pub fn drop_r(mut self, p: f64) -> Self {
        self.drop_r = p;
        self
    }

    /// Sets the R-beat duplication probability (unit-test only).
    pub fn dup_r(mut self, p: f64) -> Self {
        self.dup_r = p;
        self
    }

    /// Arms the ECC model.
    pub fn ecc(mut self, on: bool) -> Self {
        self.ecc = on;
        self
    }
}

/// Saturating counters kept by a [`FaultInjector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Otherwise-good bursts spuriously failed with `SLVERR`.
    pub spurious_errors: u64,
    /// Single-bit payload flips injected.
    pub single_flips: u64,
    /// Double-bit payload flips injected.
    pub double_flips: u64,
    /// Single-bit flips the ECC model detected and corrected.
    pub corrected: u64,
    /// Double-bit flips the ECC model detected but could not correct
    /// (the beat was failed with `SLVERR`).
    pub uncorrectable: u64,
    /// R beats dropped on the return path.
    pub dropped_beats: u64,
    /// R beats duplicated on the return path.
    pub duplicated_beats: u64,
}

impl FaultStats {
    /// Flips delivered to the master as wrong data with an OK response
    /// — the injector's own tally of the silent corruption it caused
    /// (what a scoreboard must catch).
    pub fn silent_flips(&self) -> u64 {
        (self.single_flips + self.double_flips).saturating_sub(self.corrected + self.uncorrectable)
    }
}

/// What happens to one delivered read beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeatAction {
    /// Deliver normally.
    Deliver,
    /// The beat is lost on the return fabric.
    Drop,
    /// The beat arrives twice.
    Duplicate,
}

fn saturating_bump(counter: &mut u64) {
    *counter = counter.saturating_add(1);
}

fn flip_bit(data: &mut [u8], bit: usize) {
    data[bit / 8] ^= 1 << (bit % 8);
}

/// The seeded fault source the controller consults on accept and serve
/// events. See the module docs for the fault surface and determinism
/// argument.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: MemFaultConfig,
    rng: SimRng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector, seeding its private RNG from the config.
    pub fn new(config: MemFaultConfig) -> Self {
        Self {
            config,
            rng: SimRng::seed(config.seed),
            stats: FaultStats::default(),
        }
    }

    /// The config this injector was armed with.
    pub fn config(&self) -> &MemFaultConfig {
        &self.config
    }

    /// Saturating injection counters.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Acceptance hook: may spuriously fail an otherwise-good burst.
    /// Already-failing responses (decode errors, static fault regions)
    /// pass through untouched.
    pub(crate) fn override_response(&mut self, resp: Resp) -> Resp {
        if resp.is_ok()
            && self.config.spurious_slverr > 0.0
            && self.rng.chance(self.config.spurious_slverr)
        {
            saturating_bump(&mut self.stats.spurious_errors);
            return Resp::SlvErr;
        }
        resp
    }

    /// Read-service hook: may flip payload bits in a delivered OK beat.
    /// Returns the beat's response after the ECC model has had its say.
    pub(crate) fn mutate_read_beat(&mut self, data: &mut [u8]) -> Resp {
        let bits = data.len() * 8;
        if bits == 0 {
            return Resp::Okay;
        }
        if self.config.flip_double > 0.0 && self.rng.chance(self.config.flip_double) {
            saturating_bump(&mut self.stats.double_flips);
            // Two distinct bits in one draw pair (a repeated bit would
            // cancel itself out).
            let first = self.rng.range_usize(0, bits - 1);
            let second = (first + 1 + self.rng.range_usize(0, bits - 2)) % bits;
            flip_bit(data, first);
            flip_bit(data, second);
            if self.config.ecc {
                // Detected but uncorrectable: fail the beat so the
                // master discards the (corrupt) payload.
                saturating_bump(&mut self.stats.uncorrectable);
                return Resp::SlvErr;
            }
            return Resp::Okay; // silent corruption
        }
        if self.config.flip_single > 0.0 && self.rng.chance(self.config.flip_single) {
            saturating_bump(&mut self.stats.single_flips);
            if self.config.ecc {
                // Detected and corrected: the payload stays intact.
                saturating_bump(&mut self.stats.corrected);
                return Resp::Okay;
            }
            let bit = self.rng.range_usize(0, bits - 1);
            flip_bit(data, bit);
            return Resp::Okay; // silent corruption
        }
        Resp::Okay
    }

    /// Read-service hook: fate of the current beat on the return path.
    pub(crate) fn beat_action(&mut self) -> BeatAction {
        if self.config.drop_r > 0.0 && self.rng.chance(self.config.drop_r) {
            saturating_bump(&mut self.stats.dropped_beats);
            return BeatAction::Drop;
        }
        if self.config.dup_r > 0.0 && self.rng.chance(self.config.dup_r) {
            saturating_bump(&mut self.stats.duplicated_beats);
            return BeatAction::Duplicate;
        }
        BeatAction::Deliver
    }
}

sim::persist_fields!(MemFaultConfig {
    seed,
    spurious_slverr,
    flip_single,
    flip_double,
    drop_r,
    dup_r,
    ecc,
});
sim::persist_fields!(FaultStats {
    spurious_errors,
    single_flips,
    double_flips,
    corrected,
    uncorrectable,
    dropped_beats,
    duplicated_beats,
});
// The config rides along with the RNG position and counters, so a forked
// chaos campaign restoring this state replays the exact same fault
// sequence without re-arming anything.
sim::persist_fields!(FaultInjector { config, rng, stats });

#[cfg(test)]
mod tests {
    use super::*;
    use sim::persist::{PersistValue, SnapshotReader, SnapshotWriter};

    #[test]
    fn spurious_override_only_touches_ok_responses() {
        let mut f = FaultInjector::new(MemFaultConfig::new(7).spurious_slverr(1.0));
        assert_eq!(f.override_response(Resp::Okay), Resp::SlvErr);
        assert_eq!(f.override_response(Resp::DecErr), Resp::DecErr);
        assert_eq!(f.stats().spurious_errors, 1);
    }

    #[test]
    fn single_flip_without_ecc_corrupts_silently() {
        let mut f = FaultInjector::new(MemFaultConfig::new(3).flip_single(1.0));
        let mut data = [0u8; 16];
        assert_eq!(f.mutate_read_beat(&mut data), Resp::Okay);
        let flipped: u32 = data.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped");
        assert_eq!(f.stats().silent_flips(), 1);
    }

    #[test]
    fn ecc_corrects_single_and_fails_double() {
        let mut f = FaultInjector::new(MemFaultConfig::new(3).flip_single(1.0).ecc(true));
        let mut data = [0u8; 16];
        assert_eq!(f.mutate_read_beat(&mut data), Resp::Okay);
        assert_eq!(data, [0u8; 16], "corrected payload is intact");
        assert_eq!(f.stats().corrected, 1);

        let mut f = FaultInjector::new(MemFaultConfig::new(3).flip_double(1.0).ecc(true));
        let mut data = [0u8; 16];
        assert_eq!(f.mutate_read_beat(&mut data), Resp::SlvErr);
        let flipped: u32 = data.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 2, "double flip hits two distinct bits");
        assert_eq!(f.stats().uncorrectable, 1);
        assert_eq!(f.stats().silent_flips(), 0);
    }

    #[test]
    fn injector_state_round_trips() {
        let mut f = FaultInjector::new(
            MemFaultConfig::new(11)
                .spurious_slverr(0.5)
                .flip_single(0.25)
                .ecc(true),
        );
        let mut data = [0xAAu8; 8];
        for _ in 0..10 {
            f.override_response(Resp::Okay);
            f.mutate_read_beat(&mut data);
        }
        let mut w = SnapshotWriter::new();
        f.save_value(&mut w);
        let bytes = w.into_bytes();
        let restored = FaultInjector::load_value(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(restored.config(), f.config());
        assert_eq!(restored.stats(), f.stats());
        let mut w2 = SnapshotWriter::new();
        restored.save_value(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "re-encode is byte-identical");
    }
}
