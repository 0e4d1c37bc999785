//! Sharded parallel estimation: one estimation run spread across cores.
//!
//! The paper's estimator is embarrassingly parallel in exactly one place:
//! samples separated by the accepted independence interval behave like
//! i.i.d. draws from the stationary per-cycle power distribution, so
//! *independent sampling chains* with disjoint RNG streams can be merged
//! without biasing the mean, the variance estimate, or the stopping rule.
//! [`ShardedDipeEstimator`] exploits this: the warm-up and the sequential
//! interval-selection procedure run once ([`SerialFront`] — they are cheap
//! and inherently serial, each trial depends on the previous rejection),
//! then the block-sampling phase fans out to N worker shards
//! ([`ShardThreads`]). Each shard owns its own simulators and input stream
//! ([`PowerSampler`]), seeded deterministically from the run's seed and the
//! shard index, warms its own FSM up, and then draws sample blocks at the
//! shared interval, pushing them through a channel to the core's
//! [`StreamMerger`].
//!
//! The merger assembles *rounds* — one block from every shard, in shard
//! order — appends them to the pooled sample, and the core's stopping rule
//! decides on the pool; once it fires the shards are told to stop. Blocks a
//! shard produced beyond the deciding round are discarded, and cycle
//! accounting is derived from the *consumed* sample, so the result is a
//! pure function of `(circuit, config, input model, seed, shard count)`:
//! worker scheduling, thread interleaving and channel timing cannot change
//! a single bit of it. With one shard the pooled sample, the stopping
//! trace and the cycle counts are identical to the inline
//! [`DipeEstimator`](crate::DipeEstimator) session for the same seed; with
//! K shards the estimate differs statistically (different streams) but is
//! drawn from the same sampling design, so it stays valid for any shard
//! count.
//!
//! The shards fold their measured cycles through the session's
//! [`ShardFold`], so node-resolved estimators (the `activity` crate) ride
//! the same runtime: each shard folds into its own per-block payload, and
//! the merger hands every round's payloads to the pooled fold in
//! deterministic shard order (per-net integer sums make the merge itself
//! order-independent).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use netlist::Circuit;

use crate::config::DipeConfig;
use crate::error::DipeError;
use crate::estimate::{EstimationSession, PowerEstimator, SessionPhase, SimProfile};
use crate::independence::{IndependenceSelection, IntervalSelector, SelectorStep};
use crate::input::InputModel;
use crate::remote::StreamMerger;
use crate::sampler::{CycleCounts, PowerSampler};
use crate::session::{
    consume_rounds, Decision, NoFold, Sampling, Session, ShardFold, Source, StoppingRule,
};

/// How many rounds a shard may run ahead of the merger before it parks.
/// Bounds the channel backlog (and therefore memory) when shards progress
/// at different speeds without ever stalling the steady state. The remote
/// runtime ([`crate::remote`]) uses the same lead as its per-stream credit
/// so local and distributed runs speculate identically.
pub const MAX_LEAD_ROUNDS: u64 = 4;

/// How a shard's seed offset is derived: shard 0 continues the session's
/// own stream (bit-identity with the single-threaded run), every other
/// shard gets a splitmix64-mixed offset so the streams are disjoint for
/// any base seed and cannot collide with the small consecutive offsets
/// batch harnesses use.
pub fn shard_seed_offset(base_seed_offset: u64, shard: usize) -> u64 {
    if shard == 0 {
        return base_seed_offset;
    }
    base_seed_offset.wrapping_add(splitmix64(0x5AD5_C0DE_u64 ^ (shard as u64) << 1))
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard-thread block source: `shards` scoped threads, one seed stream
/// each. Stream 0 continues the session's own sampler; streams `1..shards`
/// get fresh samplers seeded via [`shard_seed_offset`] that warm up on
/// their own thread.
#[derive(Debug, Clone)]
pub struct ShardThreads {
    shards: usize,
    input_model: InputModel,
    base_seed_offset: u64,
}

impl ShardThreads {
    /// A source of `shards` streams for a run started with `input_model` and
    /// `base_seed_offset`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, input_model: InputModel, base_seed_offset: u64) -> Self {
        assert!(shards >= 1, "at least one shard is required");
        ShardThreads {
            shards,
            input_model,
            base_seed_offset,
        }
    }

    /// The number of shard threads (seed streams).
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Runs the fan-out until the stopping rule decides: every shard draws
    /// blocks of `config.block_size` samples at the accepted interval, the
    /// merger consumes them in rounds, and the pooled sample lands in
    /// `sampling`. Returns the deciding round's decision with the
    /// consumed sample's cycle accounting and the shards' summed simulator
    /// counters.
    ///
    /// `tracer` receives `round_merged` per merged round (from the merger
    /// thread) and, once the fan-out has drained, a `shard_done` summary per
    /// shard plus a `speculative_discard` total. Tracing never runs on the
    /// shard threads' hot paths.
    ///
    /// # Errors
    ///
    /// Returns an error only if a fresh shard sampler cannot be constructed
    /// (the configuration and input model were already validated by the
    /// session, so this is effectively unreachable).
    pub(crate) fn run<F: ShardFold>(
        &self,
        sampling: &mut Sampling<'_, F>,
        config: &DipeConfig,
        fold: &F,
        rule: &mut StoppingRule,
        tracer: &telemetry::Tracer,
    ) -> Result<(Decision, CycleCounts, SimProfile), DipeError> {
        let Sampling {
            sampler: stream0,
            selection,
            sample,
            pooled,
            ..
        } = sampling;
        let interval = selection.interval;
        let counts_at_fanout = stream0.cycle_counts();
        let circuit = stream0.circuit();
        // Build every fresh sampler up front so construction errors surface
        // before any thread is spawned.
        let mut fresh = (1..self.shards)
            .map(|shard| {
                PowerSampler::new(
                    circuit,
                    config,
                    &self.input_model,
                    shard_seed_offset(self.base_seed_offset, shard),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;

        let stop = AtomicBool::new(false);
        let consumed = (Mutex::new(0u64), Condvar::new());
        // Produced blocks: stream, block index, powers and fold payload.
        let (tx, rx) = mpsc::channel::<(usize, u64, Vec<f64>, F::Block)>();
        let mut merger = StreamMerger::local(self.shards);
        let (decision, produced) = std::thread::scope(|scope| {
            let workers: Vec<_> = std::iter::once(&mut **stream0)
                .chain(fresh.iter_mut())
                .enumerate()
                .map(|(shard, sampler)| {
                    let tx = tx.clone();
                    let (stop, consumed) = (&stop, &consumed);
                    scope.spawn(move || {
                        if shard > 0 {
                            // A fresh shard must forget its reset state
                            // before its samples may join the stationary
                            // pool.
                            sampler.advance(config.warmup_cycles);
                        }
                        let mut produced = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            // Flow control: stay within MAX_LEAD_ROUNDS of
                            // the merger so a fast shard cannot grow the
                            // backlog unboundedly.
                            {
                                let (lock, condvar) = consumed;
                                let mut done = lock.lock().expect("merger never panics");
                                while produced >= *done + MAX_LEAD_ROUNDS
                                    && !stop.load(Ordering::Relaxed)
                                {
                                    let (guard, _) = condvar
                                        .wait_timeout(done, Duration::from_millis(20))
                                        .expect("merger never panics");
                                    done = guard;
                                }
                            }
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let mut powers = Vec::with_capacity(config.block_size);
                            let mut payload = fold.new_block();
                            for _ in 0..config.block_size {
                                powers.push(
                                    sampler.sample_power_w_observing(interval, |activity| {
                                        fold.observe(&mut payload, activity)
                                    }),
                                );
                            }
                            produced += 1;
                            if tx.send((shard, produced - 1, powers, payload)).is_err() {
                                break; // the merger is gone; nothing left to do
                            }
                        }
                        produced
                    })
                })
                .collect();
            drop(tx);

            let decision = loop {
                let stopped = consume_rounds(&mut merger, fold, pooled, rule, tracer, |rounds| {
                    let (lock, condvar) = &consumed;
                    *lock.lock().expect("workers never panic") = rounds;
                    condvar.notify_all();
                });
                if let Some(decision) = stopped {
                    break decision;
                }
                let (shard, index, powers, payload) = rx
                    .recv()
                    .expect("workers only exit after the stop broadcast");
                merger.offer_local(shard, index, powers, payload);
            };
            stop.store(true, Ordering::Relaxed);
            consumed.1.notify_all();
            let produced: Vec<u64> = workers
                .into_iter()
                .map(|worker| worker.join().expect("shard workers never panic"))
                .collect();
            (decision, produced)
        });

        // The profiling ledger, in shard order so the trace is stable to
        // read even though the counts themselves are scheduling-dependent:
        // how far each shard speculated past the deciding round depends on
        // timing, so none of it may feed back into the estimate.
        let mut sim_profile = SimProfile::default();
        for (shard, (sampler, produced)) in std::iter::once(&**stream0)
            .chain(&fresh)
            .zip(&produced)
            .enumerate()
        {
            sim_profile.merge(&sampler.sim_profile());
            let counts = sampler.cycle_counts();
            tracer.emit("shard_done", |e| {
                e.field_u64("shard", shard as u64)
                    .field_u64("blocks_produced", *produced)
                    .field_u64("zero_delay_cycles", counts.zero_delay_cycles)
                    .field_u64("measured_cycles", counts.measured_cycles);
            });
        }
        let discarded = produced
            .iter()
            .sum::<u64>()
            .saturating_sub(merger.rounds() * self.shards as u64);
        tracer.emit("speculative_discard", |e| {
            e.field_u64("blocks", discarded)
                .field_u64("rounds_consumed", merger.rounds());
        });
        *sample = merger.into_sample();
        let cycle_counts = pooled_cycle_counts(
            counts_at_fanout,
            config,
            self.shards,
            interval,
            sample.len(),
        );
        Ok((decision, cycle_counts, sim_profile))
    }
}

/// Deterministic cycle accounting of a finished sharded run: the warm-up
/// and selection cycles of the primary shard, the warm-ups of the extra
/// shards, and `interval + 1` cycles for every *consumed* pooled sample.
/// Speculative blocks a shard produced past the deciding round are excluded
/// — they are wasted wall-clock, not part of the estimate — which is what
/// keeps the counts independent of thread interleaving.
pub fn pooled_cycle_counts(
    counts_at_fanout: CycleCounts,
    config: &DipeConfig,
    shards: usize,
    interval: usize,
    consumed_samples: usize,
) -> CycleCounts {
    CycleCounts {
        zero_delay_cycles: counts_at_fanout.zero_delay_cycles
            + (shards as u64 - 1) * config.warmup_cycles as u64
            + consumed_samples as u64 * interval as u64,
        measured_cycles: counts_at_fanout.measured_cycles + consumed_samples as u64,
    }
}

/// The front of every DIPE-flow run: warm-up plus runs-test interval
/// selection on stream 0's sampler, honouring cycle budgets. Every
/// [`Session`] and the remote coordinator drive
/// their pre-sampling phases through this one state machine, so budget
/// handling, progress reporting and the front's trace cannot diverge
/// between them.
pub struct SerialFront<'c> {
    state: FrontState<'c>,
    /// An a-priori interval that replaces runs-test selection.
    fixed_interval: Option<usize>,
}

enum FrontState<'c> {
    Warmup {
        sampler: Box<PowerSampler<'c>>,
        remaining: usize,
    },
    SelectInterval {
        sampler: Box<PowerSampler<'c>>,
        selector: IntervalSelector,
    },
    /// Terminal marker once the sampler has moved on to sampling (or the
    /// selection failed); the owner never advances the front again.
    Consumed,
}

/// Outcome of one [`SerialFront::advance`] call.
pub enum FrontStep<'c> {
    /// The cycle deadline was reached; call again with more budget.
    OutOfBudget,
    /// Selection finished: stream 0's sampler (carrying the post-selection
    /// simulation state, boxed — it is ~KBs of simulator scratch) and the
    /// accepted interval, ready for sampling.
    Selected(Box<PowerSampler<'c>>, IndependenceSelection),
}

impl<'c> SerialFront<'c> {
    /// Starts the front at the beginning of warm-up.
    pub fn new(sampler: PowerSampler<'c>, config: &DipeConfig) -> Self {
        SerialFront {
            state: FrontState::Warmup {
                sampler: Box::new(sampler),
                remaining: config.warmup_cycles,
            },
            fixed_interval: None,
        }
    }

    /// A front without interval selection: after warm-up it hands over at
    /// the a-priori `interval` (the fixed warm-up baseline's flow).
    pub(crate) fn with_fixed_interval(
        sampler: PowerSampler<'c>,
        config: &DipeConfig,
        interval: usize,
    ) -> Self {
        SerialFront {
            fixed_interval: Some(interval),
            ..SerialFront::new(sampler, config)
        }
    }

    /// Total simulated cycles so far (0 once the sampler has moved on).
    pub fn cycles_done(&self) -> u64 {
        match &self.state {
            FrontState::Warmup { sampler, .. } | FrontState::SelectInterval { sampler, .. } => {
                sampler.cycle_counts().total()
            }
            FrontState::Consumed => 0,
        }
    }

    /// The phase to report in [`Progress::Running`](crate::Progress::Running).
    pub fn phase(&self) -> SessionPhase {
        match &self.state {
            FrontState::Warmup { .. } => SessionPhase::Warmup,
            _ => SessionPhase::IntervalSelection,
        }
    }

    /// Advances warm-up and interval selection until the cycle deadline is
    /// reached or an interval is accepted. `tracer` receives the warm-up
    /// bracket and the per-trial runs-test events.
    ///
    /// # Errors
    ///
    /// Propagates [`DipeError::NoIndependenceInterval`] from the selection
    /// procedure; the front is consumed and must not be advanced again.
    pub fn advance(
        &mut self,
        config: &DipeConfig,
        deadline: u64,
        tracer: &telemetry::Tracer,
    ) -> Result<FrontStep<'c>, DipeError> {
        loop {
            match std::mem::replace(&mut self.state, FrontState::Consumed) {
                FrontState::Warmup {
                    mut sampler,
                    mut remaining,
                } => {
                    if sampler.cycle_counts().total() == 0 {
                        crate::estimate::emit_warmup_start(tracer, config.warmup_cycles);
                    }
                    if !crate::estimate::advance_warmup(&mut sampler, &mut remaining, deadline) {
                        self.state = FrontState::Warmup { sampler, remaining };
                        return Ok(FrontStep::OutOfBudget);
                    }
                    crate::estimate::emit_warmup_end(tracer, sampler.cycle_counts());
                    if let Some(interval) = self.fixed_interval {
                        let selection = IndependenceSelection {
                            interval,
                            trials: Vec::new(),
                        };
                        return Ok(FrontStep::Selected(sampler, selection));
                    }
                    self.state = FrontState::SelectInterval {
                        selector: IntervalSelector::new(config),
                        sampler,
                    };
                }
                FrontState::SelectInterval {
                    mut sampler,
                    mut selector,
                } => match selector.advance(&mut sampler, deadline) {
                    Ok(SelectorStep::OutOfBudget) => {
                        self.state = FrontState::SelectInterval { sampler, selector };
                        return Ok(FrontStep::OutOfBudget);
                    }
                    Ok(SelectorStep::Selected(selection)) => {
                        crate::estimate::emit_selection(tracer, &selection);
                        return Ok(FrontStep::Selected(sampler, selection));
                    }
                    Err(error) => return Err(error),
                },
                FrontState::Consumed => {
                    unreachable!("a consumed front is never advanced again")
                }
            }
        }
    }
}

/// The paper's DIPE estimator with the block-sampling phase fanned out
/// across worker shards.
///
/// Warm-up and interval selection run once, on shard 0's sampler; sampling
/// then runs on `shards` concurrent chains whose pooled sample feeds the
/// configured stopping criterion. See the [module docs](self) for the
/// determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedDipeEstimator {
    shards: usize,
}

impl ShardedDipeEstimator {
    /// Creates the estimator with the given shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard is required");
        ShardedDipeEstimator { shards }
    }

    /// One shard per available CPU.
    pub fn available_parallelism() -> Self {
        ShardedDipeEstimator::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl PowerEstimator for ShardedDipeEstimator {
    fn name(&self) -> String {
        format!("DIPE (runs-test interval, {} shards)", self.shards)
    }

    fn start<'c>(
        &self,
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
        seed_offset: u64,
    ) -> Result<Box<dyn EstimationSession + 'c>, DipeError> {
        let sampler = PowerSampler::new(circuit, config, input_model, seed_offset)?;
        let threads = ShardThreads::new(self.shards, input_model.clone(), seed_offset);
        Ok(Box::new(Session::start(
            self.name(),
            config,
            SerialFront::new(sampler, config),
            NoFold,
            Source::Threads(threads),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{run_to_completion, CycleBudget, Estimate, Progress};
    use crate::DipeEstimator;
    use netlist::iscas89;

    fn config() -> DipeConfig {
        DipeConfig::default().with_seed(2027)
    }

    fn run(estimator: &dyn PowerEstimator, circuit: &Circuit, seed_offset: u64) -> Estimate {
        run_to_completion(
            estimator
                .start(circuit, &config(), &InputModel::uniform(), seed_offset)
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn one_shard_is_bit_identical_to_the_scalar_session() {
        let circuit = iscas89::load("s298").unwrap();
        let scalar = run(&DipeEstimator::new(), &circuit, 3);
        let sharded = run(&ShardedDipeEstimator::new(1), &circuit, 3);
        assert_eq!(sharded.mean_power_w, scalar.mean_power_w);
        assert_eq!(sharded.relative_half_width, scalar.relative_half_width);
        assert_eq!(sharded.sample_size, scalar.sample_size);
        assert_eq!(sharded.cycle_counts, scalar.cycle_counts);
        assert_eq!(sharded.diagnostics, scalar.diagnostics);
    }

    #[test]
    fn sharded_runs_are_deterministic_across_repeats() {
        let circuit = iscas89::load("s27").unwrap();
        let estimator = ShardedDipeEstimator::new(3);
        let first = run(&estimator, &circuit, 0);
        let second = run(&estimator, &circuit, 0);
        assert_eq!(first.mean_power_w, second.mean_power_w);
        assert_eq!(first.sample_size, second.sample_size);
        assert_eq!(first.cycle_counts, second.cycle_counts);
        assert_eq!(first.diagnostics, second.diagnostics);
    }

    #[test]
    fn shard_estimates_agree_statistically() {
        let circuit = iscas89::load("s27").unwrap();
        let one = run(&ShardedDipeEstimator::new(1), &circuit, 0);
        let four = run(&ShardedDipeEstimator::new(4), &circuit, 0);
        // Different pooled samples, same target quantity: both runs met the
        // 5 % / 0.99 specification, so they agree well within 3 half-widths.
        let gap = (one.mean_power_w - four.mean_power_w).abs() / one.mean_power_w;
        assert!(gap < 0.15, "1-shard vs 4-shard gap {gap}");
        assert!(four.relative_half_width.unwrap() < config().relative_error);
        assert_eq!(
            four.sample_size % (4 * config().block_size),
            0,
            "pooled samples arrive in complete rounds"
        );
    }

    #[test]
    fn pooled_accounting_matches_the_consumed_sample() {
        let circuit = iscas89::load("s27").unwrap();
        let estimate = run(&ShardedDipeEstimator::new(2), &circuit, 5);
        let interval = estimate.independence_interval().unwrap();
        let config = config();
        // Reconstruct: the primary shard's pre-fanout cycles are the
        // warm-up plus the selection trials; every consumed sample costs
        // interval + 1 cycles; the second shard adds one warm-up.
        let selection_samples: usize = match &estimate.diagnostics {
            crate::estimate::Diagnostics::Dipe { selection, .. } => {
                selection.trials.len() * config.sequence_length
            }
            other => panic!("unexpected diagnostics {other:?}"),
        };
        let selection_zero_delay: u64 = match &estimate.diagnostics {
            crate::estimate::Diagnostics::Dipe { selection, .. } => selection
                .trials
                .iter()
                .map(|t| (t.interval * config.sequence_length) as u64)
                .sum(),
            other => panic!("unexpected diagnostics {other:?}"),
        };
        let expected_measured = selection_samples as u64 + estimate.sample_size as u64;
        let expected_zero = 2 * config.warmup_cycles as u64
            + selection_zero_delay
            + (estimate.sample_size * interval) as u64;
        assert_eq!(estimate.cycle_counts.measured_cycles, expected_measured);
        assert_eq!(estimate.cycle_counts.zero_delay_cycles, expected_zero);
    }

    #[test]
    fn exhausted_budget_is_reported() {
        let circuit = iscas89::load("s27").unwrap();
        let mut config = config().with_accuracy(0.001, 0.99);
        config.max_samples = 640;
        let result = run_to_completion(
            ShardedDipeEstimator::new(2)
                .start(&circuit, &config, &InputModel::uniform(), 0)
                .unwrap(),
        );
        match result {
            Err(DipeError::SampleBudgetExhausted { samples, .. }) => assert!(samples >= 640),
            other => panic!("expected SampleBudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn stepping_through_warmup_and_selection_reports_progress() {
        let circuit = iscas89::load("s27").unwrap();
        let mut session = ShardedDipeEstimator::new(2)
            .start(&circuit, &config(), &InputModel::uniform(), 0)
            .unwrap();
        let mut saw_running = false;
        let estimate = loop {
            match session.step(CycleBudget::cycles(100)).unwrap() {
                Progress::Running { phase, .. } => {
                    saw_running = true;
                    assert!(matches!(
                        phase,
                        SessionPhase::Warmup | SessionPhase::IntervalSelection
                    ));
                }
                Progress::Done(estimate) => break estimate,
            }
        };
        assert!(saw_running, "a 100-cycle budget must interrupt the run");
        assert!(estimate.mean_power_w > 0.0);
        // Done is sticky.
        assert!(matches!(
            session.step(CycleBudget::cycles(1)).unwrap(),
            Progress::Done(_)
        ));
    }

    #[test]
    fn shard_seed_offsets_are_disjoint() {
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 7, 1997] {
            for shard in 0..64 {
                assert!(seen.insert(shard_seed_offset(base, shard)));
            }
        }
        assert_eq!(shard_seed_offset(42, 0), 42, "shard 0 continues the base");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedDipeEstimator::new(0);
    }
}
