//! DIPE — distribution-independent statistical estimation of average power
//! dissipation in sequential circuits.
//!
//! This crate is a from-scratch reproduction of the method of Yuan, Teng and
//! Kang, *"Statistical Estimation of Average Power Dissipation in Sequential
//! Circuits"*, DAC 1997. The estimator treats per-cycle power as a
//! stationary, φ-mixing random process and:
//!
//! 1. selects an **independence interval** with a sequential procedure built
//!    on the ordinary runs test ([`independence`], Fig. 2 of the paper) —
//!    the number of clock cycles the circuit must be simulated between two
//!    power samples for the samples to behave like i.i.d. draws;
//! 2. generates a **random power sample** with a two-phase simulation scheme
//!    ([`sampler`]): cheap zero-delay simulation during the interval, a
//!    general-delay (event-driven, glitch-aware) measurement at each sampling
//!    cycle;
//! 3. applies a **stopping criterion** to the growing sample until the
//!    requested accuracy (default 5 % at 0.99 confidence) is met
//!    ([`estimator`]).
//!
//! The crate also contains the comparison points used in the paper's
//! discussion: the brute-force long-simulation reference ([`mod@reference`], the
//! `SIM` column of Table 1), a decoupled estimator that ignores latch
//! correlations, and a fixed conservative warm-up Monte-Carlo estimator
//! ([`baselines`]).
//!
//! # The unified estimation API
//!
//! All four estimators implement one trait pair ([`estimate`]):
//! [`PowerEstimator::start`] opens a re-entrant [`EstimationSession`] whose
//! [`step`](EstimationSession::step) advances the run by a bounded
//! [`CycleBudget`] and reports [`Progress`] — incremental progress,
//! deadlines and cancellation instead of a monolithic blocking call. Every
//! session finishes with the same [`Estimate`] record, so estimators compare
//! column-for-column. The batch [`Engine`] ([`engine`]) runs whole job lists
//! (circuit × estimator × seed) across threads with deterministic per-job
//! seeding — it powers the Table 1 and Table 2 sweeps.
//!
//! # Quick start
//!
//! ```
//! use dipe::input::InputModel;
//! use dipe::{CycleBudget, DipeConfig, DipeEstimator, PowerEstimator, Progress};
//! use netlist::iscas89;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = iscas89::load("s27")?;
//! let config = DipeConfig::default().with_seed(42);
//! let mut session =
//!     DipeEstimator::new().start(&circuit, &config, &InputModel::uniform(), 0)?;
//! let result = loop {
//!     match session.step(CycleBudget::cycles(25_000))? {
//!         Progress::Running { cycles_done, samples, .. } => {
//!             eprintln!("... {cycles_done} cycles, {samples} samples");
//!         }
//!         Progress::Done(estimate) => break estimate,
//!     }
//! };
//! println!(
//!     "s27: {:.3} mW from {} samples (independence interval {:?})",
//!     result.mean_power_mw(),
//!     result.sample_size,
//!     result.independence_interval()
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod error;

pub mod baselines;
pub mod checkpoint;
pub mod engine;
pub mod estimate;
pub mod estimator;
pub mod independence;
pub mod input;
pub mod lanes;
pub mod reference;
pub mod remote;
pub mod report;
pub mod sampler;
pub mod session;
pub mod shards;

pub use baselines::{DecoupledCombinationalEstimator, FixedWarmupEstimator};
pub use checkpoint::{InputStreamState, SamplerState, SessionCheckpoint, CHECKPOINT_VERSION};
pub use config::{CriterionKind, DipeConfig, EvalMode, MeasureMode};
pub use engine::{Engine, EstimationJob, JobOutcome, ReplicatedJob, ReplicatedOutcome};
pub use error::DipeError;
pub use estimate::{
    run_to_completion, CycleBudget, Diagnostics, Estimate, EstimationSession,
    NodeBreakdownDiagnostics, PowerEstimator, Progress, SessionPhase, SimProfile,
};
pub use estimator::{DipeEstimator, DipeResult};
pub use independence::{IndependenceSelection, IntervalTrial};
pub use lanes::{
    run_replicated_dipe, run_replicated_dipe_cancellable, run_replicated_dipe_with_glitch,
    LaneGlitchSummary,
};
pub use reference::{LongSimulationReference, ReferenceResult};
pub use remote::{
    retry_backoff, Assignment, BlockOutcome, FaultPlan, RemoteBlock, RemoteStats, StreamMerger,
    StreamWorker,
};
pub use sampler::PowerSampler;
pub use shards::ShardedDipeEstimator;
