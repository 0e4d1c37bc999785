//! Versioned, bit-exact session checkpoints.
//!
//! A [`SessionCheckpoint`] captures everything a sampling-phase estimation
//! session needs to continue *as if it had never stopped*: the exact RNG
//! position of the input stream, the circuit's latch state and input pattern
//! (from which the zero-delay simulator's settled values are reconstructed
//! deterministically, on whichever zero-delay kernel the restoring sampler
//! runs), the cycle accounting, the selected independence interval with its
//! trial trace, and the pooled power sample stored as raw IEEE-754 bits
//! ([`seqstats::PooledSampleState`]). The measurement simulator — the
//! event-driven wheel every session sample measures on — carries no state
//! across cycles, so nothing of it needs to be captured.
//! Neither does the stopping rule's fold of the sample's running moments: a
//! resumed session folds the restored sample once, at its first block
//! boundary.
//!
//! The contract — asserted by tests in [`crate::estimator`] and relied on by
//! the `dipe-serve` checkpoint/resume RPCs — is that a session restored from
//! a checkpoint produces an [`Estimate`](crate::Estimate) whose power mean,
//! sample, cycle counts and selection are **bit-for-bit identical** to those
//! of an uninterrupted run with the same seed. Only wall-clock diagnostics
//! (`elapsed_seconds`) may differ.
//!
//! Two kinds of checkpoints exist, distinguished only by where they were
//! taken:
//!
//! * a **warm checkpoint** is captured automatically the moment a session
//!   enters its sampling phase (empty sample). Because no accuracy-dependent
//!   decision has been made yet, it can seed a fresh session under *any*
//!   convergence target — this is what the `dipe-serve` warm cache stores to
//!   let repeat jobs skip warm-up and interval selection;
//! * a **mid-sampling checkpoint** additionally carries the pooled sample
//!   collected so far (and, for breakdown sessions, the per-net integer
//!   moment sums), and must be resumed under the same configuration.
//!
//! The format carries a version number ([`CHECKPOINT_VERSION`]); restoring
//! rejects unknown versions instead of misinterpreting state.

use crate::independence::IndependenceSelection;
use crate::sampler::CycleCounts;
use seqstats::{MomentAccumulatorState, PooledSampleState};

/// Version number embedded in every checkpoint this build produces.
///
/// Bumped whenever the meaning or layout of any captured field changes;
/// resume paths reject checkpoints whose version they do not understand.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Exact position of an [`InputStream`](crate::input::InputStream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputStreamState {
    /// The full 256-bit xoshiro256++ state of the stream's generator.
    pub rng_state: [u64; 4],
    /// The previous cycle's pattern (drives temporally correlated models).
    pub previous: Vec<bool>,
    /// Whether `previous` holds a real pattern yet.
    pub has_previous: bool,
    /// Position in the replayed trace (trace models only).
    pub trace_cursor: u64,
}

/// Exact state of a [`PowerSampler`](crate::sampler::PowerSampler).
///
/// The compiled zero-delay simulator's settled net values are a deterministic
/// function of `(latch_state, input_pattern)`, so those two vectors — not the
/// full per-net value array — are what gets captured; restoring settles the
/// combinational logic and arrives at identical values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplerState {
    /// Position of the input-pattern stream.
    pub input_stream: InputStreamState,
    /// Flip-flop outputs at the capture point.
    pub latch_state: Vec<bool>,
    /// Primary-input pattern applied in the last simulated cycle.
    pub input_pattern: Vec<bool>,
    /// Cycle bookkeeping at the capture point. Restored verbatim so a
    /// resumed run's final cycle accounting matches the uninterrupted run.
    pub cycle_counts: CycleCounts,
}

/// A complete sampling-phase session snapshot.
///
/// Produced by [`EstimationSession::checkpoint`](crate::EstimationSession::checkpoint)
/// / [`warm_checkpoint`](crate::EstimationSession::warm_checkpoint) and
/// consumed by [`DipeEstimator::resume`](crate::DipeEstimator::resume) (and
/// the breakdown estimator's equivalent in the `activity` crate).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// Format version; see [`CHECKPOINT_VERSION`].
    pub version: u32,
    /// Name of the estimator that produced this checkpoint. Resume paths
    /// reject checkpoints from a different estimator rather than silently
    /// reinterpreting their state.
    pub estimator: String,
    /// Sampler state (RNG position, circuit state, cycle accounting).
    pub sampler: SamplerState,
    /// The selected independence interval and its trial trace.
    pub selection: IndependenceSelection,
    /// The pooled power sample collected so far, as raw IEEE-754 bits.
    /// Empty for a warm checkpoint.
    pub sample: PooledSampleState,
    /// The relative half-width at the last stopping-criterion evaluation,
    /// stored as raw bits (`None` before the first block boundary).
    pub last_rhw_bits: Option<u64>,
    /// Wall-clock seconds accumulated before the capture (diagnostic only —
    /// explicitly *not* part of the bit-exactness contract).
    pub elapsed_seconds: f64,
    /// Per-net integer moment sums, for breakdown sessions only. `None` for
    /// scalar DIPE sessions.
    pub accumulator: Option<MomentAccumulatorState>,
}

impl SessionCheckpoint {
    /// Whether this is a warm checkpoint (sampling entry, nothing collected).
    pub fn is_warm(&self) -> bool {
        self.sample.is_empty()
    }

    /// The relative half-width at the last criterion evaluation, decoded.
    pub fn last_rhw(&self) -> Option<f64> {
        self.last_rhw_bits.map(f64::from_bits)
    }

    /// Checks version and estimator identity against a resume target.
    ///
    /// # Errors
    ///
    /// Returns [`DipeError::InvalidCheckpoint`](crate::DipeError::InvalidCheckpoint)
    /// on a version or estimator mismatch.
    pub fn validate_for(&self, estimator: &str) -> Result<(), crate::DipeError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(crate::DipeError::InvalidCheckpoint {
                message: format!(
                    "checkpoint version {} is not supported (this build reads version {})",
                    self.version, CHECKPOINT_VERSION
                ),
            });
        }
        if self.estimator != estimator {
            return Err(crate::DipeError::InvalidCheckpoint {
                message: format!(
                    "checkpoint was taken by estimator {:?}, cannot resume as {estimator:?}",
                    self.estimator
                ),
            });
        }
        Ok(())
    }
}
