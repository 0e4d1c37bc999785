//! The one estimation core.
//!
//! Every DIPE run — total power or per-net breakdown, on the session's own
//! sampler, on shard threads or on remote workers — is the paper's Fig. 1
//! flow through the same four stages:
//!
//! 1. **front** — warm-up and runs-test interval selection on stream 0's
//!    sampler ([`SerialFront`]);
//! 2. **block source** — where the sample blocks are drawn: inline on the
//!    session's own sampler ([`Source::Inline`]), on N scoped shard threads
//!    ([`Source::Threads`]), or on remote workers (the `dipe-serve`
//!    coordinator);
//! 3. **merger** — the [`StreamMerger`] folds the streams' blocks into the
//!    pooled sample in deterministic round-robin rounds, and the
//!    [`ShardFold`] pools each block's payload. An inline source is a single
//!    in-order stream, so its rounds are its blocks and they are appended in
//!    place;
//! 4. **stopping rule and estimate** — the one [`StoppingRule`] decides at
//!    every round boundary, and [`assemble`] builds the [`Estimate`] once it
//!    stops.
//!
//! [`Session`] is the [`EstimationSession`] behind every DIPE-flow estimator
//! ([`DipeEstimator`](crate::DipeEstimator),
//! [`ShardedDipeEstimator`](crate::ShardedDipeEstimator) and the `activity`
//! crate's breakdown estimators). With one stream, the thread source
//! reproduces the inline source bit for bit: same pooled sample, same
//! stopping trajectory, same cycle accounting.

use std::time::Instant;

use logicsim::GlitchActivity;
use seqstats::{
    MomentAccumulatorState, NodeStoppingDecision, PooledSampleState, SampleMoments,
    StoppingCriterion, StoppingDecision,
};
use telemetry::Tracer;

use crate::checkpoint::{SessionCheckpoint, CHECKPOINT_VERSION};
use crate::config::DipeConfig;
use crate::error::DipeError;
use crate::estimate::{
    CycleBudget, Diagnostics, Estimate, EstimationSession, Progress, SessionPhase, SimProfile,
};
use crate::independence::IndependenceSelection;
use crate::remote::StreamMerger;
use crate::sampler::{CycleCounts, PowerSampler};
use crate::shards::{FrontStep, SerialFront, ShardThreads};

/// A fold over the measured cycles of each sample block, and the pooled
/// state the core builds from the blocks' payloads.
///
/// Total-power estimation uses the trivial [`NoFold`]; node-resolved
/// estimators (the `activity` crate) supply a fold whose payload is a
/// per-net activity accumulator and which brings the per-node stopping
/// policy and the breakdown report. The fold value itself is shared
/// read-only across shard threads.
pub trait ShardFold: Sync {
    /// The per-block payload a source builds while sampling. The pooled
    /// state is a payload too: the merge of every consumed block's.
    type Block: Send;

    /// Creates an empty payload.
    fn new_block(&self) -> Self::Block;

    /// Folds one measured cycle's glitch-decomposed transition record into
    /// a payload.
    fn observe(&self, block: &mut Self::Block, activity: &GlitchActivity);

    /// Merges a consumed block's payload into the pooled one.
    fn merge(&self, pooled: &mut Self::Block, block: &Self::Block);

    /// The per-node stopping verdict on the pooled payload, for folds with a
    /// node policy.
    fn node_decision(&self, _pooled: &Self::Block) -> Option<NodeStoppingDecision> {
        None
    }

    /// Whether the node verdict, rather than the total-power criterion,
    /// decides when sampling stops.
    fn node_decides(&self) -> bool {
        false
    }

    /// Builds the estimate's diagnostics from the pooled payload, the
    /// accepted interval, the total-power criterion's name, the pooled
    /// sample and the deciding round's node verdict.
    fn diagnostics(
        &self,
        _pooled: &Self::Block,
        selection: IndependenceSelection,
        criterion: String,
        sample: Vec<f64>,
        _node: Option<NodeStoppingDecision>,
    ) -> Diagnostics {
        Diagnostics::Dipe {
            selection,
            criterion,
            sample,
        }
    }

    /// The pooled payload as checkpoint state (`None` when it carries none).
    fn snapshot(&self, _pooled: &Self::Block) -> Option<MomentAccumulatorState> {
        None
    }

    /// Rebuilds the pooled payload from a checkpoint's state.
    ///
    /// # Errors
    ///
    /// Returns why the state does not fit this fold.
    fn restore(&self, state: Option<&MomentAccumulatorState>) -> Result<Self::Block, String>;
}

/// The fold of plain total-power estimation: blocks carry no payload.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFold;

impl ShardFold for NoFold {
    type Block = ();

    fn new_block(&self) {}

    fn observe(&self, _block: &mut (), _activity: &GlitchActivity) {}

    fn merge(&self, _pooled: &mut (), _block: &()) {}

    fn restore(&self, state: Option<&MomentAccumulatorState>) -> Result<(), String> {
        if state.is_some() {
            return Err(
                "checkpoint carries per-net accumulator state; resume it with the \
                        breakdown estimator"
                    .to_string(),
            );
        }
        Ok(())
    }
}

/// The pooled decision after one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundVerdict {
    /// Keep sampling.
    Continue,
    /// The stopping rule fired; finish.
    Satisfied,
    /// The sample budget is exhausted without satisfying the rule.
    Exhausted,
}

/// The block-boundary stopping rule, in one place: the configured
/// total-power criterion, then the fold's node policy when it has one, then
/// the `max_samples` budget. Every DIPE-flow session, the remote
/// coordinator, the lane runner and the fixed warm-up baseline decide
/// through it, so they stop on the same sample for the same pooled sample.
///
/// A rule watches one append-only sample — an inline session's, a merger's
/// pooled one or one lane's — and folds each of its samples once into
/// running moments, so the normal and DKW criteria decide in O(1) per block
/// boundary. A rule opened on a restored sample folds it whole at its first
/// boundary.
pub struct StoppingRule {
    criterion: Box<dyn StoppingCriterion>,
    moments: SampleMoments,
    block_size: usize,
    max_samples: usize,
}

/// One evaluation of the [`StoppingRule`].
#[derive(Debug, Clone)]
pub struct Decision {
    /// The total-power criterion's verdict.
    pub total: StoppingDecision,
    /// The node policy's verdict, for folds with one.
    pub node: Option<NodeStoppingDecision>,
    /// What the run does next.
    pub verdict: RoundVerdict,
    /// Name of the total-power criterion.
    pub criterion: &'static str,
    node_decides: bool,
}

impl Decision {
    /// The relative half-width of the rule that decides: the worst top-K
    /// net's when the node policy decides, the total power's otherwise.
    pub(crate) fn deciding_rhw(&self) -> f64 {
        match &self.node {
            Some(node) if self.node_decides => node.worst_relative_half_width,
            _ => self.total.relative_half_width,
        }
    }

    /// The error of a run whose sample budget ran out at this decision,
    /// traced as `sample_budget_exhausted`.
    pub fn exhausted(&self, tracer: &Tracer) -> DipeError {
        let samples = self.total.sample_size;
        let achieved = self.deciding_rhw();
        tracer.emit("sample_budget_exhausted", |e| {
            e.field_u64("samples", samples as u64)
                .field_f64_bits("rhw", achieved);
        });
        DipeError::SampleBudgetExhausted {
            samples,
            achieved_relative_half_width: achieved,
        }
    }
}

impl StoppingRule {
    /// The rule of a run configuration.
    pub fn new(config: &DipeConfig) -> Self {
        StoppingRule {
            criterion: config.build_criterion(),
            moments: SampleMoments::new(),
            block_size: config.block_size,
            max_samples: config.max_samples,
        }
    }

    /// The total-power criterion's display name.
    pub fn criterion_name(&self) -> &'static str {
        self.criterion.name()
    }

    /// Whether a sample of `samples` ends a block — the only points the
    /// rule is evaluated at.
    pub(crate) fn at_boundary(&self, samples: usize) -> bool {
        samples.is_multiple_of(self.block_size)
    }

    /// Evaluates the pooled sample and the fold's pooled payload at a block
    /// boundary, traced as `stopping_eval`. `sample` extends the sample of
    /// the rule's previous decision; only its new suffix is folded.
    pub fn decide<F: ShardFold>(
        &mut self,
        sample: &[f64],
        fold: &F,
        pooled: &F::Block,
        tracer: &Tracer,
    ) -> Decision {
        let total = self.moments.evaluate(&*self.criterion, sample);
        let node = fold.node_decision(pooled);
        let node_decides = node.is_some() && fold.node_decides();
        let satisfied = match &node {
            Some(node) if node_decides => node.satisfied,
            _ => total.satisfied,
        };
        let verdict = if satisfied {
            RoundVerdict::Satisfied
        } else if sample.len() >= self.max_samples {
            RoundVerdict::Exhausted
        } else {
            RoundVerdict::Continue
        };
        tracer.emit("stopping_eval", |e| {
            e.field_u64("samples", total.sample_size as u64)
                .field_str("criterion", self.criterion.name())
                .field_f64_bits("estimate_w", total.estimate)
                .field_f64_bits("rhw", total.relative_half_width)
                .field_f64_bits("target", self.criterion.relative_error())
                .field_bool("satisfied", total.satisfied);
            if let Some(node) = &node {
                e.field_f64_bits("worst_node_rhw", node.worst_relative_half_width)
                    .field_bool("node_satisfied", node.satisfied);
            }
        });
        Decision {
            total,
            node,
            verdict,
            criterion: self.criterion.name(),
            node_decides,
        }
    }
}

/// Consumes every complete round `merger` holds: merges each block's payload
/// into `pooled` in stream order, reports the round to `on_round` (with the
/// count of rounds consumed so far) and as `round_merged`, and applies the
/// stopping rule to the pooled sample. Returns the decision of the round at
/// which the rule stops, or `None` once the merger waits for more blocks.
pub fn consume_rounds<F: ShardFold>(
    merger: &mut StreamMerger<F::Block>,
    fold: &F,
    pooled: &mut F::Block,
    rule: &mut StoppingRule,
    tracer: &Tracer,
    mut on_round: impl FnMut(u64),
) -> Option<Decision> {
    while merger.consume_round_with(|block| fold.merge(pooled, &block)) {
        let rounds = merger.rounds();
        on_round(rounds);
        tracer.emit("round_merged", |e| {
            e.field_u64("round", rounds)
                .field_u64("pooled_samples", merger.sample().len() as u64)
                .field_u64("shards", merger.streams() as u64);
        });
        let decision = rule.decide(merger.sample(), fold, pooled, tracer);
        if decision.verdict != RoundVerdict::Continue {
            return Some(decision);
        }
    }
    None
}

/// Everything a finished run's [`Estimate`] is assembled from.
pub struct FinishedRun {
    /// Name of the estimator.
    pub estimator: String,
    /// The accepted independence interval and its trials.
    pub selection: IndependenceSelection,
    /// The pooled power sample in merge order.
    pub sample: Vec<f64>,
    /// The decision of the round at which the rule was satisfied.
    pub decision: Decision,
    /// The run's cycle accounting.
    pub cycle_counts: CycleCounts,
    /// Wall-clock seconds the run took.
    pub elapsed_seconds: f64,
    /// Simulator counters, when the run's simulators were local.
    pub sim_profile: Option<SimProfile>,
}

/// The estimate assembly of every DIPE-flow run, traced as `session_done`:
/// the pooled sample's mean is the reported power (the criterion's own point
/// estimate only governs termination), the deciding round's total-power
/// half-width its accuracy, and the fold builds the diagnostics.
pub fn assemble<F: ShardFold>(
    fold: &F,
    pooled: &F::Block,
    run: FinishedRun,
    tracer: &Tracer,
) -> Estimate {
    let estimate = Estimate {
        estimator: run.estimator,
        mean_power_w: seqstats::descriptive::mean(&run.sample),
        relative_half_width: Some(run.decision.total.relative_half_width),
        sample_size: run.sample.len(),
        cycle_counts: run.cycle_counts,
        elapsed_seconds: run.elapsed_seconds,
        sim_profile: run.sim_profile,
        diagnostics: fold.diagnostics(
            pooled,
            run.selection,
            run.decision.criterion.to_string(),
            run.sample,
            run.decision.node,
        ),
    };
    crate::estimate::emit_session_done(tracer, &estimate);
    estimate
}

/// Emits `sampling_start`, the record of the sampling design a run fans out
/// with.
pub fn emit_sampling_start(
    tracer: &Tracer,
    config: &DipeConfig,
    selection: &IndependenceSelection,
    criterion: &str,
    streams: usize,
) {
    tracer.emit("sampling_start", |e| {
        e.field_u64("interval", selection.interval as u64)
            .field_u64("block_size", config.block_size as u64)
            .field_u64("max_samples", config.max_samples as u64)
            .field_u64("shards", streams as u64)
            .field_f64_bits("target", config.relative_error)
            .field_str("criterion", criterion);
    });
}

/// Where a [`Session`]'s sample blocks come from.
pub enum Source {
    /// The session's own sampler, one sample at a time: the session honours
    /// its cycle budget and stays checkpointable throughout sampling.
    Inline,
    /// Scoped shard threads, one seed stream each; the fan-out runs to
    /// completion within the step that starts it.
    Threads(ShardThreads),
}

/// The sampling phase: stream 0's sampler, the accepted interval, the
/// pooled sample and fold payload, and the rule's last readings.
pub(crate) struct Sampling<'c, F: ShardFold> {
    pub(crate) sampler: Box<PowerSampler<'c>>,
    pub(crate) selection: IndependenceSelection,
    pub(crate) sample: Vec<f64>,
    pub(crate) pooled: F::Block,
    /// Total-power half-width at the last block boundary (checkpointed).
    last_rhw: Option<f64>,
    /// The deciding rule's half-width at the last block boundary.
    current_rhw: Option<f64>,
}

impl<F: ShardFold> Sampling<'_, F> {
    /// The inline source: draws samples on stream 0's sampler until a block
    /// boundary stops the rule (`Some`) or the cycle deadline is reached
    /// (`None`). The deadline is honoured per sample, so a step overshoots
    /// by at most one sample.
    fn draw_inline(
        &mut self,
        fold: &F,
        rule: &mut StoppingRule,
        deadline: u64,
        tracer: &Tracer,
    ) -> Option<Decision> {
        loop {
            if self.sampler.cycle_counts().total() >= deadline {
                return None;
            }
            let pooled = &mut self.pooled;
            let power_w = self
                .sampler
                .sample_power_w_observing(self.selection.interval, |activity| {
                    fold.observe(pooled, activity)
                });
            self.sample.push(power_w);
            if rule.at_boundary(self.sample.len()) {
                let decision = rule.decide(&self.sample, fold, &self.pooled, tracer);
                self.last_rhw = Some(decision.total.relative_half_width);
                self.current_rhw = Some(decision.deciding_rhw());
                if decision.verdict != RoundVerdict::Continue {
                    return Some(decision);
                }
            }
        }
    }
}

enum State<'c, F: ShardFold> {
    Front(SerialFront<'c>),
    Sampling(Sampling<'c, F>),
    Done(Estimate),
    Failed(DipeError),
}

/// The session behind every DIPE-flow estimator: a [`SerialFront`], a block
/// [`Source`], the pooled fold and the [`StoppingRule`].
///
/// Stepping an inline session in any budget increments produces the same
/// simulation sequence — and the same estimate — as running it to
/// completion in one call. A thread-sourced session honours the budget
/// through warm-up and interval selection; its fan-out then runs to
/// completion within one step, bounded by the pooled stopping rule.
pub struct Session<'c, F: ShardFold> {
    name: String,
    config: DipeConfig,
    fold: F,
    rule: StoppingRule,
    source: Source,
    state: State<'c, F>,
    elapsed_seconds: f64,
    /// Snapshot taken the moment an inline session entered its sampling
    /// phase — see [`EstimationSession::warm_checkpoint`].
    warm: Option<SessionCheckpoint>,
    tracer: Tracer,
}

impl<'c, F: ShardFold> Session<'c, F> {
    /// Opens a session at the beginning of its front's warm-up.
    pub fn start(
        name: String,
        config: &DipeConfig,
        front: SerialFront<'c>,
        fold: F,
        source: Source,
    ) -> Self {
        Session {
            name,
            rule: StoppingRule::new(config),
            state: State::Front(front),
            config: config.clone(),
            fold,
            source,
            elapsed_seconds: 0.0,
            warm: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Reopens an inline session at a checkpoint's exact position, directly
    /// in the sampling phase. `sampler` must be a fresh sampler of the
    /// checkpointed run's circuit, configuration and input model; it is
    /// restored to the checkpoint's state.
    ///
    /// # Errors
    ///
    /// Returns [`DipeError::InvalidCheckpoint`] on a version or estimator
    /// mismatch, fold state the fold cannot restore, or sampler state that
    /// does not fit the circuit.
    pub fn resume(
        name: String,
        config: &DipeConfig,
        mut sampler: PowerSampler<'c>,
        fold: F,
        checkpoint: &SessionCheckpoint,
    ) -> Result<Self, DipeError> {
        checkpoint.validate_for(&name)?;
        let pooled = fold
            .restore(checkpoint.accumulator.as_ref())
            .map_err(|message| DipeError::InvalidCheckpoint { message })?;
        sampler.restore(&checkpoint.sampler)?;
        let sampling = Sampling {
            sampler: Box::new(sampler),
            selection: checkpoint.selection.clone(),
            sample: checkpoint.sample.to_values(),
            pooled,
            last_rhw: checkpoint.last_rhw(),
            // The node verdict is re-established at the next block boundary.
            current_rhw: checkpoint.last_rhw().filter(|_| !fold.node_decides()),
        };
        Ok(Session {
            name,
            rule: StoppingRule::new(config),
            state: State::Sampling(sampling),
            config: config.clone(),
            fold,
            source: Source::Inline,
            elapsed_seconds: checkpoint.elapsed_seconds,
            // A warm checkpoint restores to sampling entry, so it is still
            // this session's warm checkpoint; a mid-sampling one is not.
            warm: checkpoint.is_warm().then(|| checkpoint.clone()),
            tracer: Tracer::disabled(),
        })
    }

    fn checkpoint_of(&self, sampling: &Sampling<'c, F>) -> SessionCheckpoint {
        SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            estimator: self.name.clone(),
            sampler: sampling.sampler.snapshot(),
            selection: sampling.selection.clone(),
            sample: PooledSampleState::from_values(&sampling.sample),
            last_rhw_bits: sampling.last_rhw.map(f64::to_bits),
            elapsed_seconds: self.elapsed_seconds,
            accumulator: self.fold.snapshot(&sampling.pooled),
        }
    }

    fn enter_sampling(&mut self, sampler: Box<PowerSampler<'c>>, selection: IndependenceSelection) {
        let streams = match &self.source {
            Source::Inline => 1,
            Source::Threads(threads) => threads.shards(),
        };
        emit_sampling_start(
            &self.tracer,
            &self.config,
            &selection,
            self.rule.criterion_name(),
            streams,
        );
        let sampling = Sampling {
            sampler,
            selection,
            sample: Vec::with_capacity(self.config.min_samples.max(256)),
            pooled: self.fold.new_block(),
            last_rhw: None,
            current_rhw: None,
        };
        if matches!(self.source, Source::Inline) {
            // Nothing accuracy-dependent has happened yet, so this snapshot
            // can seed a resume under any convergence target.
            self.warm = Some(self.checkpoint_of(&sampling));
        }
        self.state = State::Sampling(sampling);
    }

    fn fail(&mut self, error: DipeError) -> DipeError {
        self.state = State::Failed(error.clone());
        error
    }

    fn running(&mut self, step_start: Instant) -> Progress {
        self.elapsed_seconds += step_start.elapsed().as_secs_f64();
        let (phase, samples, current_rhw) = match &self.state {
            State::Front(front) => (front.phase(), 0, None),
            State::Sampling(sampling) => (
                SessionPhase::Sampling,
                sampling.sample.len(),
                sampling.current_rhw,
            ),
            State::Done(_) | State::Failed(_) => unreachable!("terminal states never run"),
        };
        Progress::Running {
            cycles_done: self.cycles_done(),
            samples,
            current_rhw,
            phase,
        }
    }
}

impl<F: ShardFold> EstimationSession for Session<'_, F> {
    fn estimator(&self) -> &str {
        &self.name
    }

    fn cycles_done(&self) -> u64 {
        match &self.state {
            State::Front(front) => front.cycles_done(),
            State::Sampling(sampling) => sampling.sampler.cycle_counts().total(),
            State::Done(estimate) => estimate.cycle_counts.total(),
            State::Failed(_) => 0,
        }
    }

    fn step(&mut self, budget: CycleBudget) -> Result<Progress, DipeError> {
        match &self.state {
            State::Done(estimate) => return Ok(Progress::Done(estimate.clone())),
            State::Failed(error) => return Err(error.clone()),
            State::Front(_) | State::Sampling(_) => {}
        }
        let step_start = Instant::now();
        let deadline = self.cycles_done().saturating_add(budget.get());
        if let State::Front(front) = &mut self.state {
            match front.advance(&self.config, deadline, &self.tracer) {
                Ok(FrontStep::OutOfBudget) => return Ok(self.running(step_start)),
                Ok(FrontStep::Selected(sampler, selection)) => {
                    self.enter_sampling(sampler, selection);
                }
                Err(error) => return Err(self.fail(error)),
            }
        }
        let State::Sampling(sampling) = &mut self.state else {
            unreachable!("the front hands over to sampling");
        };
        let outcome = match &self.source {
            Source::Inline => Ok(sampling
                .draw_inline(&self.fold, &mut self.rule, deadline, &self.tracer)
                .map(|decision| {
                    let sampler = &sampling.sampler;
                    (decision, sampler.cycle_counts(), sampler.sim_profile())
                })),
            Source::Threads(threads) => threads
                .run(
                    sampling,
                    &self.config,
                    &self.fold,
                    &mut self.rule,
                    &self.tracer,
                )
                .map(Some),
        };
        let (decision, cycle_counts, sim_profile) = match outcome {
            Ok(None) => return Ok(self.running(step_start)),
            Ok(Some(finished)) => finished,
            Err(error) => return Err(self.fail(error)),
        };
        if decision.verdict == RoundVerdict::Exhausted {
            let error = decision.exhausted(&self.tracer);
            return Err(self.fail(error));
        }
        let estimate = assemble(
            &self.fold,
            &sampling.pooled,
            FinishedRun {
                estimator: self.name.clone(),
                selection: sampling.selection.clone(),
                sample: std::mem::take(&mut sampling.sample),
                decision,
                cycle_counts,
                elapsed_seconds: self.elapsed_seconds + step_start.elapsed().as_secs_f64(),
                sim_profile: Some(sim_profile),
            },
            &self.tracer,
        );
        self.state = State::Done(estimate.clone());
        Ok(Progress::Done(estimate))
    }

    fn checkpoint(&self) -> Option<SessionCheckpoint> {
        match (&self.source, &self.state) {
            (Source::Inline, State::Sampling(sampling)) => Some(self.checkpoint_of(sampling)),
            _ => None,
        }
    }

    fn warm_checkpoint(&self) -> Option<SessionCheckpoint> {
        self.warm.clone()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deciding_at_every_boundary_is_linear_in_the_pool() {
        // A 400k-sample pool decided on at every 32-sample boundary: a rule
        // that refolds the pool per decision needs ~2.5·10⁹ Welford updates
        // (over 20 s even in release); folding each sample once needs 400k.
        let mut config = DipeConfig::default().with_accuracy(0.0001, 0.99);
        config.block_size = 32;
        config.max_samples = 400_000;
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut rule = StoppingRule::new(&config);
            let tracer = Tracer::disabled();
            let mut pool = Vec::with_capacity(config.max_samples);
            let mut last = None;
            for i in 0..config.max_samples as u64 {
                pool.push(1.0 + (i.wrapping_mul(2_654_435_761) % 1000) as f64 * 1e-3);
                if rule.at_boundary(pool.len()) {
                    last = Some(rule.decide(&pool, &NoFold, &(), &tracer));
                }
            }
            let last = last.map(|decision| (decision.total.sample_size, decision.verdict));
            tx.send(last).expect("the test waits for the last decision");
        });
        let last = rx.recv_timeout(std::time::Duration::from_secs(5));
        let last = last.expect("12.5k decisions on a 400k pool must finish well within 5 s");
        worker.join().expect("the rule never panics");
        assert_eq!(last, Some((400_000, RoundVerdict::Exhausted)));
    }
}
