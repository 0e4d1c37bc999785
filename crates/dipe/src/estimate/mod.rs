//! The unified estimation API.
//!
//! Every estimator in this crate — the paper's DIPE procedure, the two
//! baselines it is compared against, and the brute-force long-simulation
//! reference — is exposed through one trait pair:
//!
//! * [`PowerEstimator`] turns a (circuit, configuration, input model, seed)
//!   quadruple into a running [`EstimationSession`];
//! * [`EstimationSession::step`] advances the session by a bounded number of
//!   simulated clock cycles (a [`CycleBudget`]) and reports [`Progress`] —
//!   either `Running` with live counters or `Done` with the final
//!   [`Estimate`].
//!
//! The session design makes every estimator *re-entrant*: callers decide how
//! many cycles to spend per step, so they get incremental progress reporting,
//! deadlines and cancellation for free. [`PowerEstimator::run`] is the one
//! blocking entry point on top. Stepping never changes the result — a
//! session driven with a tiny budget produces exactly the same [`Estimate`]
//! as one driven to completion in a single call, because the underlying
//! simulation sequence is identical.
//!
//! All estimators produce the same [`Estimate`] record (mean power, CI
//! half-width, sample size, cycle accounting, wall-clock time), with
//! per-estimator extras carried in the [`Diagnostics`] tagged enum, so
//! cross-estimator comparison — the substance of Tables 1 and 2 — is a
//! matter of lining up identical records.
//!
//! Batch execution over many (circuit × estimator × seed) jobs lives in
//! [`crate::engine`].
//!
//! # Example
//!
//! ```
//! use dipe::estimate::{CycleBudget, PowerEstimator, Progress};
//! use dipe::input::InputModel;
//! use dipe::{DipeConfig, DipeEstimator};
//! use netlist::iscas89;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = iscas89::load("s27")?;
//! let config = DipeConfig::default().with_seed(7);
//! let mut session = DipeEstimator::new().start(&circuit, &config, &InputModel::uniform(), 0)?;
//! let estimate = loop {
//!     match session.step(CycleBudget::cycles(10_000))? {
//!         Progress::Running { cycles_done, .. } => eprintln!("{cycles_done} cycles so far"),
//!         Progress::Done(estimate) => break estimate,
//!     }
//! };
//! println!("{}: {:.3} mW", estimate.estimator, estimate.mean_power_mw());
//! # Ok(())
//! # }
//! ```

mod baseline_sessions;
mod reference_session;

pub(crate) use baseline_sessions::DecoupledSession;
pub(crate) use reference_session::ReferenceSession;

use netlist::Circuit;

use crate::config::DipeConfig;
use crate::error::DipeError;
use crate::independence::IndependenceSelection;
use crate::input::InputModel;
use crate::sampler::CycleCounts;

/// An upper bound on the number of clock cycles (zero-delay and measured
/// combined) one [`EstimationSession::step`] call may simulate.
///
/// Sessions stop at the first convenient point *at or after* the budget is
/// consumed (they never split a power sample), so a step may overshoot by a
/// few cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CycleBudget(u64);

impl CycleBudget {
    /// A budget of `n` simulated clock cycles.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — a zero budget could never make progress.
    pub fn cycles(n: u64) -> Self {
        assert!(n > 0, "a cycle budget must allow at least one cycle");
        CycleBudget(n)
    }

    /// An effectively unlimited budget: the session runs to completion in a
    /// single step.
    pub const fn unbounded() -> Self {
        CycleBudget(u64::MAX)
    }

    /// The number of cycles this budget allows.
    pub const fn get(self) -> u64 {
        self.0
    }
}

/// Which stage of its flow a session is currently in (reported in
/// [`Progress::Running`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum SessionPhase {
    /// Initial warm-up: the FSM is forgetting its reset state.
    Warmup,
    /// Sequential independence-interval selection (DIPE, Fig. 2).
    IntervalSelection,
    /// Signal-probability characterisation (decoupled baseline).
    Characterization,
    /// Collecting power samples until the stopping criterion fires.
    Sampling,
    /// Measuring consecutive cycles (long-simulation reference).
    Measurement,
}

/// The outcome of one [`EstimationSession::step`] call.
///
/// `Done` carries the full [`Estimate`] by value — one `Progress` exists
/// per `step` call, so the variant-size skew costs nothing, and boxing
/// would push an allocation into every caller of the session API.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Progress {
    /// The session consumed its cycle budget without finishing.
    Running {
        /// Total simulated cycles so far (all kinds, across all steps).
        cycles_done: u64,
        /// Power samples collected so far.
        samples: usize,
        /// Relative confidence-interval half-width at the most recent
        /// stopping-criterion evaluation, when the estimator has one.
        current_rhw: Option<f64>,
        /// The stage the session is currently in.
        phase: SessionPhase,
    },
    /// The session finished and produced its estimate. Subsequent `step`
    /// calls return the same value.
    Done(Estimate),
}

/// Estimator-specific diagnostics attached to an [`Estimate`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum Diagnostics {
    /// DIPE: the independence-interval selection trace, the stopping
    /// criterion used, and the raw power sample.
    Dipe {
        /// Outcome of the sequential interval-selection procedure.
        selection: IndependenceSelection,
        /// Name of the stopping criterion that terminated sampling.
        criterion: String,
        /// The raw power sample in watts, in collection order.
        sample: Vec<f64>,
    },
    /// Decoupled-combinational baseline: the per-latch stationary signal
    /// probabilities it sampled present states from.
    Decoupled {
        /// Estimated stationary one-probability of each latch.
        latch_probabilities: Vec<f64>,
        /// Zero-delay cycles spent estimating them.
        characterization_cycles: usize,
    },
    /// Fixed conservative warm-up baseline.
    FixedWarmup {
        /// Zero-delay cycles simulated before every sample.
        warmup_per_sample: usize,
        /// Name of the stopping criterion that terminated sampling.
        criterion: String,
    },
    /// Long-simulation reference: the full per-cycle power summary.
    Reference {
        /// Min/max/mean/variance of per-cycle power over the measured run.
        summary: power::PowerSummary,
    },
    /// Node-resolved (per-net) breakdown estimation: the spatial power report
    /// and the per-node stopping verdict, alongside the DIPE-style interval
    /// selection it rode on. Produced by the `activity` crate's estimator.
    /// Boxed so this largest payload does not inflate every [`Estimate`] (and
    /// every session-state enum holding one).
    NodeBreakdown(Box<NodeBreakdownDiagnostics>),
}

/// The payload of [`Diagnostics::NodeBreakdown`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NodeBreakdownDiagnostics {
    /// Outcome of the sequential interval-selection procedure.
    pub selection: IndependenceSelection,
    /// Name of the stopping rule that terminated sampling.
    pub criterion: String,
    /// Per-net activity mapped through capacitance to power.
    pub breakdown: power::PowerBreakdown,
    /// The per-node stopping verdict at termination.
    pub node_decision: seqstats::NodeStoppingDecision,
    /// The raw total-power sample in watts, in collection order.
    pub sample: Vec<f64>,
}

/// Simulator profiling counters accumulated over one estimation run —
/// [`logicsim::SimCounters`] from the event-driven measurement backend plus
/// the partitioned backend's settle-pass count, mapped into one flat,
/// serialisable record. Attached to [`Estimate::sim_profile`] by sessions
/// that own a [`PowerSampler`](crate::sampler::PowerSampler); sharded runs
/// report the sum over all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SimProfile {
    /// Events pushed onto the timing wheel.
    pub events_scheduled: u64,
    /// Events cancelled by inertial pulse filtering.
    pub events_cancelled: u64,
    /// Complete revolutions of the timing wheel.
    pub wheel_revolutions: u64,
    /// Gate evaluations dispatched through the inline fast path.
    pub inline_evals: u64,
    /// Gate evaluations dispatched through the general gather path.
    pub gather_evals: u64,
    /// Measured cycles that ran the levelized (zero-delay) dispatch.
    pub levelized_cycles: u64,
    /// Measured cycles that ran the timing-wheel dispatch.
    pub wheel_cycles: u64,
    /// Tiles settled by the partitioned zero-delay backend (0 under the
    /// compiled backend).
    pub tiles_settled: u64,
    /// Measured cycles run on the time-sliced lane-parallel backend. A
    /// [`PowerSampler`](crate::sampler::PowerSampler) measures on the
    /// event-driven wheel, so this and the other `time_sliced_*` counters
    /// read 0 in every session's profile.
    #[serde(default)]
    pub time_sliced_cycles: u64,
    /// Word-wide (64-lane) gate evaluations by the time-sliced backend.
    #[serde(default)]
    pub time_sliced_word_evals: u64,
    /// Lane-granular events scheduled by the time-sliced backend.
    #[serde(default)]
    pub time_sliced_lane_events: u64,
    /// Lane-granular inertial cancellations by the time-sliced backend.
    #[serde(default)]
    pub time_sliced_lane_cancellations: u64,
}

impl SimProfile {
    /// Adds another profile's counters into this one (used to pool the
    /// per-shard profiles of a sharded run).
    pub fn merge(&mut self, other: &SimProfile) {
        self.events_scheduled += other.events_scheduled;
        self.events_cancelled += other.events_cancelled;
        self.wheel_revolutions += other.wheel_revolutions;
        self.inline_evals += other.inline_evals;
        self.gather_evals += other.gather_evals;
        self.levelized_cycles += other.levelized_cycles;
        self.wheel_cycles += other.wheel_cycles;
        self.tiles_settled += other.tiles_settled;
        self.time_sliced_cycles += other.time_sliced_cycles;
        self.time_sliced_word_evals += other.time_sliced_word_evals;
        self.time_sliced_lane_events += other.time_sliced_lane_events;
        self.time_sliced_lane_cancellations += other.time_sliced_lane_cancellations;
    }

    /// Total gate evaluations across both dispatch paths.
    pub fn total_evals(&self) -> u64 {
        self.inline_evals + self.gather_evals
    }
}

/// The unified result record every estimator produces.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Estimate {
    /// Name of the estimator that produced this estimate.
    pub estimator: String,
    /// Estimated average power in watts.
    pub mean_power_w: f64,
    /// Relative half-width of the confidence interval achieved when the
    /// estimator stopped, when it monitors one.
    pub relative_half_width: Option<f64>,
    /// Number of power samples behind the estimate (for the reference, the
    /// number of measured cycles).
    pub sample_size: usize,
    /// Cycle bookkeeping (zero-delay vs measured cycles).
    pub cycle_counts: CycleCounts,
    /// Wall-clock seconds spent inside `step` calls, summed over the
    /// session's lifetime.
    pub elapsed_seconds: f64,
    /// Simulator profiling counters for the run, when the session surfaces
    /// them (sessions that own their samplers do; estimators built on
    /// foreign simulation loops may leave this `None`).
    pub sim_profile: Option<SimProfile>,
    /// Estimator-specific extras.
    pub diagnostics: Diagnostics,
}

impl Estimate {
    /// Estimated average power in milliwatts (the unit of Table 1).
    pub fn mean_power_mw(&self) -> f64 {
        self.mean_power_w * 1e3
    }

    /// Relative deviation from a reference power (Eq. 8, single run), as a
    /// fraction.
    pub fn relative_deviation_from(&self, reference_power_w: f64) -> f64 {
        crate::report::relative_deviation(reference_power_w, self.mean_power_w)
    }

    /// The selected independence interval, when this estimate came from DIPE
    /// or the node-breakdown estimator built on it.
    pub fn independence_interval(&self) -> Option<usize> {
        match &self.diagnostics {
            Diagnostics::Dipe { selection, .. } => Some(selection.interval),
            Diagnostics::NodeBreakdown(node) => Some(node.selection.interval),
            _ => None,
        }
    }

    /// The spatial power breakdown, when this estimate carries one.
    pub fn breakdown(&self) -> Option<&power::PowerBreakdown> {
        match &self.diagnostics {
            Diagnostics::NodeBreakdown(node) => Some(&node.breakdown),
            _ => None,
        }
    }

    /// The full node-breakdown diagnostics, when this estimate carries them.
    pub fn node_diagnostics(&self) -> Option<&NodeBreakdownDiagnostics> {
        match &self.diagnostics {
            Diagnostics::NodeBreakdown(node) => Some(node),
            _ => None,
        }
    }
}

/// A configured estimation algorithm that can open sessions on circuits.
///
/// Implementations are plain value types carrying only algorithm parameters;
/// everything run-specific (circuit, configuration, input model, seed) is
/// supplied to [`start`](Self::start). `Send + Sync` is required so the batch
/// [`Engine`](crate::engine::Engine) can share estimators across worker
/// threads.
///
/// # Example
///
/// A complete end-to-end estimate on a tiny inline `.bench` netlist — a
/// 1-bit toggle register with an XOR next-state function:
///
/// ```
/// use dipe::input::InputModel;
/// use dipe::{run_to_completion, DipeConfig, DipeEstimator, PowerEstimator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = netlist::bench_format::parse(
///     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(d)\nd = XOR(a, q)\ny = NAND(b, q)\n",
///     "toggle",
/// )?;
/// let config = DipeConfig::default()
///     .with_seed(7)
///     .with_warmup_cycles(32)
///     .with_accuracy(0.2, 0.9);
/// let session = DipeEstimator::new().start(&circuit, &config, &InputModel::uniform(), 0)?;
/// let estimate = run_to_completion(session)?;
/// assert!(estimate.mean_power_w > 0.0);
/// assert!(estimate.independence_interval().is_some());
/// # Ok(())
/// # }
/// ```
pub trait PowerEstimator: Send + Sync {
    /// Human-readable estimator name, used in reports and [`Estimate`]s.
    fn name(&self) -> String;

    /// Opens a session estimating the average power of `circuit` under
    /// `input_model`.
    ///
    /// `seed_offset` is mixed into the RNG seed from `config.seed`, so batch
    /// runs can make jobs statistically independent while staying
    /// reproducible: the estimate depends only on the inputs to this call,
    /// never on scheduling.
    ///
    /// # Errors
    ///
    /// Returns [`DipeError::InvalidConfig`] or
    /// [`DipeError::InputModelMismatch`] if `config` or `input_model` is
    /// unusable for this circuit.
    fn start<'c>(
        &self,
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
        seed_offset: u64,
    ) -> Result<Box<dyn EstimationSession + 'c>, DipeError>;

    /// Runs a session with seed offset 0 to completion — the blocking
    /// counterpart of [`start`](Self::start). Use `start` directly for
    /// incremental progress, deadlines or cancellation.
    ///
    /// # Errors
    ///
    /// As for [`start`](Self::start), plus the first error the session
    /// reports (see [`EstimationSession::step`]).
    fn run(
        &self,
        circuit: &Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
    ) -> Result<Estimate, DipeError> {
        run_to_completion(self.start(circuit, config, input_model, 0)?)
    }
}

/// A running, re-entrant estimation.
///
/// Obtained from [`PowerEstimator::start`]. Call [`step`](Self::step)
/// repeatedly; each call simulates at most the given [`CycleBudget`] and
/// reports progress. After `Done` is returned, further calls keep returning
/// the same `Done` value; after an error, further calls keep returning the
/// same error.
///
/// # Example
///
/// Stepping a session in small budget slices on a tiny inline `.bench`
/// circuit — the result is identical to a blocking run:
///
/// ```
/// use dipe::input::InputModel;
/// use dipe::{CycleBudget, DipeConfig, DipeEstimator, PowerEstimator, Progress};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = netlist::bench_format::parse(
///     "INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = XOR(a, q)\ny = NOT(q)\n",
///     "tiny",
/// )?;
/// let config = DipeConfig::default()
///     .with_seed(3)
///     .with_warmup_cycles(32)
///     .with_accuracy(0.2, 0.9);
/// let mut session =
///     DipeEstimator::new().start(&circuit, &config, &InputModel::uniform(), 0)?;
/// let estimate = loop {
///     match session.step(CycleBudget::cycles(500))? {
///         Progress::Running { cycles_done, .. } => assert!(cycles_done > 0),
///         Progress::Done(estimate) => break estimate,
///     }
/// };
/// assert!(estimate.sample_size >= 64);
/// # Ok(())
/// # }
/// ```
pub trait EstimationSession {
    /// Name of the estimator driving this session.
    fn estimator(&self) -> &str;

    /// Total simulated cycles so far (all kinds, across all steps).
    fn cycles_done(&self) -> u64;

    /// Advances the estimation by at most `budget` simulated cycles.
    ///
    /// # Errors
    ///
    /// * [`DipeError::NoIndependenceInterval`] if no interval up to the
    ///   configured maximum passes the randomness test (DIPE only);
    /// * [`DipeError::SampleBudgetExhausted`] if the accuracy specification
    ///   is not met within `config.max_samples` samples.
    fn step(&mut self, budget: CycleBudget) -> Result<Progress, DipeError>;

    /// Captures the session's exact state so it can be resumed later,
    /// bit-identically (see [`crate::checkpoint`]).
    ///
    /// Returns `None` when the session is not checkpointable right now —
    /// either it has not reached its sampling phase yet (warm-up and interval
    /// selection carry transient trial state that is cheaper to replay than
    /// to capture), it has already finished, or the estimator simply does not
    /// support checkpoints (the default).
    fn checkpoint(&self) -> Option<crate::checkpoint::SessionCheckpoint> {
        None
    }

    /// The warm checkpoint captured when this session entered its sampling
    /// phase (empty sample, RNG positioned right after interval selection),
    /// if it supports one and has got that far.
    ///
    /// Resuming from a warm checkpoint skips warm-up and interval selection
    /// while still producing the bit-identical estimate — under *any*
    /// accuracy target, because no accuracy-dependent decision has been made
    /// at the capture point. This is what the `dipe-serve` warm cache stores.
    fn warm_checkpoint(&self) -> Option<crate::checkpoint::SessionCheckpoint> {
        None
    }

    /// Attaches a [`telemetry::Tracer`] so the session emits structured
    /// lifecycle events (warm-up, interval trials, stopping evaluations…)
    /// while it runs. Call right after [`PowerEstimator::start`], before the
    /// first [`step`](Self::step). The default is a no-op: estimators that
    /// have not been instrumented simply stay silent, and the disabled
    /// tracer costs instrumented ones a single branch per event site.
    fn set_tracer(&mut self, tracer: telemetry::Tracer) {
        let _ = tracer;
    }
}

/// Advances a sampler-backed warm-up by as much of the remaining budget as
/// possible (shared by the serial front and the reference session).
/// Returns `true` once the warm-up has completed; `false` means the cycle
/// budget ran out first and the session should report `Running`.
pub(crate) fn advance_warmup(
    sampler: &mut crate::sampler::PowerSampler<'_>,
    remaining: &mut usize,
    deadline: u64,
) -> bool {
    let allowed = deadline.saturating_sub(sampler.cycle_counts().total());
    let chunk = (*remaining).min(allowed.min(usize::MAX as u64) as usize);
    sampler.advance(chunk);
    *remaining -= chunk;
    *remaining == 0
}

/// Emits the warm-up bracket events of the serial front: `warmup_start`
/// when the warm-up phase first runs and `warmup_end` with the sampler's
/// cycle ledger once it completes.
pub(crate) fn emit_warmup_start(tracer: &telemetry::Tracer, cycles: usize) {
    tracer.emit("warmup_start", |e| {
        e.field_u64("cycles", cycles as u64);
    });
}

/// See [`emit_warmup_start`].
pub(crate) fn emit_warmup_end(tracer: &telemetry::Tracer, counts: CycleCounts) {
    tracer.emit("warmup_end", |e| {
        e.field_u64("zero_delay_cycles", counts.zero_delay_cycles)
            .field_u64("measured_cycles", counts.measured_cycles);
    });
}

/// Emits the interval-selection trace: one `interval_trial` event per runs
/// test (with the continuity-corrected z statistic, bit-exact) followed by
/// `interval_accepted`. Emitted at acceptance — the trial records carry the
/// identical content they had when each test ran, and batching them keeps
/// the selector itself tracer-free.
pub(crate) fn emit_selection(tracer: &telemetry::Tracer, selection: &IndependenceSelection) {
    if !tracer.is_enabled() {
        return;
    }
    for trial in &selection.trials {
        tracer.emit("interval_trial", |e| {
            e.field_u64("interval", trial.interval as u64)
                .field_f64_bits("z", trial.z)
                .field_u64("runs", trial.runs as u64)
                .field_bool("accepted", trial.accepted);
        });
    }
    tracer.emit("interval_accepted", |e| {
        e.field_u64("interval", selection.interval as u64)
            .field_u64("trials", selection.trials.len() as u64);
    });
}

/// Emits the `session_done` trace event closing every successful trace —
/// the final record a consumer checks the reconstructed run against.
pub(crate) fn emit_session_done(tracer: &telemetry::Tracer, estimate: &Estimate) {
    tracer.emit("session_done", |e| {
        e.field_u64("sample_size", estimate.sample_size as u64)
            .field_f64_bits("mean_power_w", estimate.mean_power_w);
        if let Some(rhw) = estimate.relative_half_width {
            e.field_f64_bits("rhw", rhw);
        }
        e.field_u64("zero_delay_cycles", estimate.cycle_counts.zero_delay_cycles)
            .field_u64("measured_cycles", estimate.cycle_counts.measured_cycles);
    });
}

/// Drives `session` to completion and returns its estimate — the bridge from
/// the session API back to a blocking call.
///
/// # Errors
///
/// Propagates the first error the session reports.
pub fn run_to_completion(
    mut session: Box<dyn EstimationSession + '_>,
) -> Result<Estimate, DipeError> {
    loop {
        if let Progress::Done(estimate) = session.step(CycleBudget::unbounded())? {
            return Ok(estimate);
        }
    }
}
