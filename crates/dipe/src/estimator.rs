//! The DIPE estimator: warm-up, independence-interval selection, sampling and
//! stopping (Fig. 1 of the paper), exposed through the unified
//! [`PowerEstimator`] session API.

use netlist::Circuit;

use crate::config::DipeConfig;
use crate::error::DipeError;
use crate::estimate::{
    run_to_completion, Diagnostics, Estimate, EstimationSession, PowerEstimator,
};
use crate::independence::IndependenceSelection;
use crate::input::InputModel;
use crate::sampler::{CycleCounts, PowerSampler};
use crate::session::{NoFold, Session, Source};
use crate::shards::SerialFront;

/// The result of one DIPE estimation run — the DIPE-shaped view of an
/// [`Estimate`], kept for callers that want the selection diagnostics and
/// raw sample without matching on [`Diagnostics`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DipeResult {
    mean_power_w: f64,
    relative_half_width: f64,
    sample: Vec<f64>,
    selection: IndependenceSelection,
    cycle_counts: CycleCounts,
    elapsed_seconds: f64,
    criterion_name: String,
}

impl DipeResult {
    fn from_estimate(estimate: Estimate) -> DipeResult {
        let Estimate {
            mean_power_w,
            relative_half_width,
            cycle_counts,
            elapsed_seconds,
            diagnostics,
            ..
        } = estimate;
        match diagnostics {
            Diagnostics::Dipe {
                selection,
                criterion,
                sample,
            } => DipeResult {
                mean_power_w,
                relative_half_width: relative_half_width.unwrap_or(f64::NAN),
                sample,
                selection,
                cycle_counts,
                elapsed_seconds,
                criterion_name: criterion,
            },
            _ => unreachable!("a DIPE session always attaches DIPE diagnostics"),
        }
    }

    /// The estimated average power in watts.
    #[inline]
    pub fn mean_power_w(&self) -> f64 {
        self.mean_power_w
    }

    /// The estimated average power in milliwatts (the unit of Table 1).
    #[inline]
    pub fn mean_power_mw(&self) -> f64 {
        self.mean_power_w * 1e3
    }

    /// The relative half-width of the confidence interval achieved when
    /// sampling stopped.
    #[inline]
    pub fn relative_half_width(&self) -> f64 {
        self.relative_half_width
    }

    /// The number of power samples collected (the "Sample Size" column of
    /// Table 1).
    #[inline]
    pub fn sample_size(&self) -> usize {
        self.sample.len()
    }

    /// The raw power sample in watts, in collection order.
    #[inline]
    pub fn sample(&self) -> &[f64] {
        &self.sample
    }

    /// The selected independence interval in clock cycles (the "I.I." column
    /// of Table 1).
    #[inline]
    pub fn independence_interval(&self) -> usize {
        self.selection.interval
    }

    /// The full independence-interval selection diagnostics.
    #[inline]
    pub fn selection(&self) -> &IndependenceSelection {
        &self.selection
    }

    /// Cycle bookkeeping (zero-delay vs measured cycles).
    #[inline]
    pub fn cycle_counts(&self) -> CycleCounts {
        self.cycle_counts
    }

    /// Wall-clock seconds the run took (the "CPU Time" column of Table 1,
    /// measured on the host rather than a SPARC 20).
    #[inline]
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed_seconds
    }

    /// The name of the stopping criterion that terminated the run.
    #[inline]
    pub fn criterion_name(&self) -> &str {
        &self.criterion_name
    }

    /// The relative deviation of this estimate from a reference value
    /// (Eq. 8 of the paper, for a single run), as a fraction.
    pub fn relative_deviation_from(&self, reference_power_w: f64) -> f64 {
        crate::report::relative_deviation(reference_power_w, self.mean_power_w)
    }
}

/// The paper's estimator. A plain specification value: the circuit,
/// configuration and input model are supplied when a session is
/// [started](PowerEstimator::start) (or to the blocking [`run`](Self::run)
/// wrapper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DipeEstimator {
    seed_offset: u64,
}

impl DipeEstimator {
    /// Creates the estimator with a seed offset of zero.
    pub fn new() -> Self {
        DipeEstimator::default()
    }

    /// Sets an additional seed offset mixed into the sampler's RNG (builder
    /// style). Used by repeated-run harnesses (Table 2) to make runs
    /// statistically independent while keeping the whole experiment
    /// reproducible.
    pub fn with_seed_offset(mut self, seed_offset: u64) -> Self {
        self.seed_offset = seed_offset;
        self
    }

    /// Runs the full estimation flow of Fig. 1 to completion — a thin
    /// compatibility wrapper that opens a session and drives it with an
    /// unbounded budget. Use [`PowerEstimator::start`] directly for
    /// incremental progress, deadlines or cancellation.
    ///
    /// # Errors
    ///
    /// * [`DipeError::InvalidConfig`] / [`DipeError::InputModelMismatch`]
    ///   for unusable configurations or input models;
    /// * [`DipeError::NoIndependenceInterval`] if no interval up to the
    ///   configured maximum passes the randomness test;
    /// * [`DipeError::SampleBudgetExhausted`] if the accuracy specification is
    ///   not met within `max_samples` samples.
    pub fn run(
        &self,
        circuit: &Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
    ) -> Result<DipeResult, DipeError> {
        let session = self.start(circuit, config, input_model, 0)?;
        Ok(DipeResult::from_estimate(run_to_completion(session)?))
    }

    /// Reopens a session at a [checkpoint](crate::checkpoint) captured from
    /// an earlier session with
    /// [`EstimationSession::checkpoint`]
    /// (or its warm variant). `circuit`, `config` and `input_model` must be
    /// the ones the checkpointed session was started with; the resumed
    /// session then continues the identical simulation sequence, so its final
    /// estimate matches the uninterrupted run bit-for-bit (wall-clock
    /// diagnostics aside).
    ///
    /// # Errors
    ///
    /// * [`DipeError::InvalidCheckpoint`] on a version or estimator mismatch,
    ///   or when the checkpoint's state vectors do not fit `circuit`;
    /// * the usual [`DipeError::InvalidConfig`] /
    ///   [`DipeError::InputModelMismatch`] for unusable inputs.
    pub fn resume<'c>(
        &self,
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
        checkpoint: &crate::checkpoint::SessionCheckpoint,
    ) -> Result<Box<dyn EstimationSession + 'c>, DipeError> {
        // The seed only positions the RNG, which the restore overwrites with
        // the checkpoint's exact stream state.
        let sampler = PowerSampler::new(circuit, config, input_model, self.seed_offset)?;
        self.resume_with(sampler, config, checkpoint)
    }

    /// [`PowerEstimator::start`] with a precompiled program and delay
    /// annotation (see [`PowerSampler::with_compiled`]) — the cache-hit path
    /// of `dipe-serve`. Produces exactly the session
    /// [`PowerEstimator::start`] would.
    ///
    /// # Errors
    ///
    /// As for [`PowerEstimator::start`].
    pub fn start_compiled<'c>(
        &self,
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
        seed_offset: u64,
        program: netlist::CompiledCircuit,
        delays: &netlist::GateDelays,
    ) -> Result<Box<dyn EstimationSession + 'c>, DipeError> {
        let sampler = PowerSampler::with_compiled(
            circuit,
            config,
            input_model,
            self.seed_offset.wrapping_add(seed_offset),
            program,
            delays,
        )?;
        Ok(self.session(config, sampler))
    }

    /// [`resume`](Self::resume) with a precompiled program and delay
    /// annotation — the warm-cache path of `dipe-serve`.
    ///
    /// # Errors
    ///
    /// As for [`resume`](Self::resume).
    pub fn resume_compiled<'c>(
        &self,
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
        checkpoint: &crate::checkpoint::SessionCheckpoint,
        program: netlist::CompiledCircuit,
        delays: &netlist::GateDelays,
    ) -> Result<Box<dyn EstimationSession + 'c>, DipeError> {
        let sampler = PowerSampler::with_compiled(
            circuit,
            config,
            input_model,
            self.seed_offset,
            program,
            delays,
        )?;
        self.resume_with(sampler, config, checkpoint)
    }

    fn resume_with<'c>(
        &self,
        sampler: PowerSampler<'c>,
        config: &DipeConfig,
        checkpoint: &crate::checkpoint::SessionCheckpoint,
    ) -> Result<Box<dyn EstimationSession + 'c>, DipeError> {
        let session = Session::resume(self.name(), config, sampler, NoFold, checkpoint)?;
        Ok(Box::new(session))
    }

    fn session<'c>(
        &self,
        config: &DipeConfig,
        sampler: PowerSampler<'c>,
    ) -> Box<dyn EstimationSession + 'c> {
        let front = SerialFront::new(sampler, config);
        Box::new(Session::start(
            self.name(),
            config,
            front,
            NoFold,
            Source::Inline,
        ))
    }
}

impl PowerEstimator for DipeEstimator {
    fn name(&self) -> String {
        "DIPE (runs-test interval)".to_string()
    }

    fn start<'c>(
        &self,
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
        seed_offset: u64,
    ) -> Result<Box<dyn EstimationSession + 'c>, DipeError> {
        let sampler = PowerSampler::new(
            circuit,
            config,
            input_model,
            self.seed_offset.wrapping_add(seed_offset),
        )?;
        Ok(self.session(config, sampler))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CriterionKind;
    use netlist::iscas89;

    fn run_on(name: &str, seed: u64) -> DipeResult {
        let c = iscas89::load(name).unwrap();
        let config = DipeConfig::default().with_seed(seed);
        DipeEstimator::new()
            .run(&c, &config, &InputModel::uniform())
            .unwrap()
    }

    #[test]
    fn s27_estimate_is_reasonable() {
        let result = run_on("s27", 1);
        assert!(result.mean_power_mw() > 0.001 && result.mean_power_mw() < 10.0);
        assert!(result.sample_size() >= 64);
        assert!(result.independence_interval() <= 10);
        assert!(result.relative_half_width() < 0.05);
        assert!(result.cycle_counts().measured_cycles >= result.sample_size() as u64);
        assert!(result.elapsed_seconds() >= 0.0);
        assert!(result.criterion_name().contains("CLT"));
    }

    #[test]
    fn estimate_matches_long_simulation_within_tolerance() {
        let c = iscas89::load("s27").unwrap();
        let config = DipeConfig::default().with_seed(5);
        let result = DipeEstimator::new()
            .run(&c, &config, &InputModel::uniform())
            .unwrap();
        let reference = crate::reference::LongSimulationReference::new(30_000)
            .run(&c, &config, &InputModel::uniform())
            .unwrap();
        let deviation = result.relative_deviation_from(reference.mean_power_w());
        // The spec is 5% at 99% confidence; allow a small margin on top for
        // the finite reference.
        assert!(
            deviation < 0.07,
            "deviation {:.3} (estimate {:.4} mW vs reference {:.4} mW)",
            deviation,
            result.mean_power_mw(),
            reference.mean_power_mw()
        );
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let a = run_on("s27", 9);
        let b = run_on("s27", 9);
        assert_eq!(a.mean_power_w(), b.mean_power_w());
        assert_eq!(a.sample_size(), b.sample_size());
        assert_eq!(a.independence_interval(), b.independence_interval());
    }

    #[test]
    fn stepped_session_matches_blocking_run_exactly() {
        // The re-entrancy contract: driving the session in tiny budget
        // increments must produce the identical estimate, because the
        // simulation sequence does not depend on the step boundaries.
        use crate::estimate::{CycleBudget, Progress};
        let c = iscas89::load("s27").unwrap();
        let config = DipeConfig::default().with_seed(9);
        let blocking = DipeEstimator::new()
            .run(&c, &config, &InputModel::uniform())
            .unwrap();

        let mut session = DipeEstimator::new()
            .start(&c, &config, &InputModel::uniform(), 0)
            .unwrap();
        let mut running_reports = 0usize;
        let stepped = loop {
            match session.step(CycleBudget::cycles(500)).unwrap() {
                Progress::Running { .. } => running_reports += 1,
                Progress::Done(estimate) => break estimate,
            }
        };
        assert!(
            running_reports > 1,
            "a 500-cycle budget must interrupt the run"
        );
        assert_eq!(stepped.mean_power_w, blocking.mean_power_w());
        assert_eq!(stepped.sample_size, blocking.sample_size());
        assert_eq!(
            stepped.independence_interval(),
            Some(blocking.independence_interval())
        );
        // A finished session keeps reporting Done with the same estimate.
        match session.step(CycleBudget::cycles(1)).unwrap() {
            Progress::Done(again) => assert_eq!(again.mean_power_w, stepped.mean_power_w),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn seed_offset_changes_the_run_but_not_the_ballpark() {
        let c = iscas89::load("s27").unwrap();
        let config = DipeConfig::default().with_seed(3);
        let a = DipeEstimator::new()
            .with_seed_offset(1)
            .run(&c, &config, &InputModel::uniform())
            .unwrap();
        let b = DipeEstimator::new()
            .with_seed_offset(2)
            .run(&c, &config, &InputModel::uniform())
            .unwrap();
        assert_ne!(a.sample(), b.sample());
        let rel = (a.mean_power_w() - b.mean_power_w()).abs() / a.mean_power_w();
        assert!(rel < 0.15, "two runs differ by {rel}");
    }

    #[test]
    fn sample_is_block_aligned() {
        let result = run_on("s27", 13);
        assert_eq!(result.sample_size() % DipeConfig::default().block_size, 0);
    }

    #[test]
    fn alternative_criteria_also_converge() {
        let c = iscas89::load("s27").unwrap();
        for kind in [CriterionKind::OrderStatistic, CriterionKind::Dkw] {
            let config = DipeConfig::default().with_seed(21).with_criterion(kind);
            let result = DipeEstimator::new()
                .run(&c, &config, &InputModel::uniform())
                .unwrap();
            assert!(result.mean_power_w() > 0.0, "{kind:?}");
            assert!(result.relative_half_width() < 0.05, "{kind:?}");
        }
    }

    #[test]
    fn correlated_inputs_are_handled() {
        let c = iscas89::load("s27").unwrap();
        let config = DipeConfig::default().with_seed(33);
        let model = InputModel::TemporallyCorrelated {
            p_one: 0.5,
            correlation: 0.7,
        };
        let result = DipeEstimator::new().run(&c, &config, &model).unwrap();
        assert!(result.mean_power_w() > 0.0);
        // Correlated inputs slow the mixing, so the interval may be larger,
        // but it must still be found.
        assert!(result.independence_interval() <= DipeConfig::default().max_independence_interval);
    }

    #[test]
    fn tight_accuracy_needs_more_samples() {
        let c = iscas89::load("s27").unwrap();
        let loose = DipeEstimator::new()
            .run(
                &c,
                &DipeConfig::default()
                    .with_seed(41)
                    .with_accuracy(0.10, 0.95),
                &InputModel::uniform(),
            )
            .unwrap();
        let tight = DipeEstimator::new()
            .run(
                &c,
                &DipeConfig::default()
                    .with_seed(41)
                    .with_accuracy(0.02, 0.99),
                &InputModel::uniform(),
            )
            .unwrap();
        assert!(tight.sample_size() > loose.sample_size());
    }

    #[test]
    fn sample_budget_exhaustion_is_reported() {
        let c = iscas89::load("s27").unwrap();
        let mut config = DipeConfig::default()
            .with_seed(55)
            .with_accuracy(0.001, 0.99);
        config.max_samples = 320;
        let err = DipeEstimator::new()
            .run(&c, &config, &InputModel::uniform())
            .unwrap_err();
        assert!(matches!(err, DipeError::SampleBudgetExhausted { samples, .. } if samples >= 320));
    }

    #[test]
    fn failed_sessions_keep_reporting_their_error() {
        use crate::estimate::CycleBudget;
        let c = iscas89::load("s27").unwrap();
        let mut config = DipeConfig::default()
            .with_seed(55)
            .with_accuracy(0.001, 0.99);
        config.max_samples = 320;
        let mut session = DipeEstimator::new()
            .start(&c, &config, &InputModel::uniform(), 0)
            .unwrap();
        let first = loop {
            match session.step(CycleBudget::unbounded()) {
                Ok(_) => continue,
                Err(error) => break error,
            }
        };
        assert!(matches!(first, DipeError::SampleBudgetExhausted { .. }));
        let second = session.step(CycleBudget::cycles(1)).unwrap_err();
        assert!(matches!(second, DipeError::SampleBudgetExhausted { .. }));
    }

    #[test]
    fn checkpointed_session_resumes_bit_for_bit() {
        use crate::estimate::{CycleBudget, Progress};
        let c = iscas89::load("s27").unwrap();
        let config = DipeConfig::default().with_seed(17);
        let model = InputModel::uniform();
        let uninterrupted = DipeEstimator::new().run(&c, &config, &model).unwrap();

        // Step a fresh session until it is mid-sampling, then kill it and
        // keep only its checkpoint — the serve-layer crash/resume scenario.
        let mut session = DipeEstimator::new().start(&c, &config, &model, 0).unwrap();
        let checkpoint = loop {
            match session.step(CycleBudget::cycles(2_000)).unwrap() {
                Progress::Running { .. } => {
                    if let Some(cp) = session.checkpoint() {
                        if !cp.is_warm() {
                            break cp;
                        }
                    }
                }
                Progress::Done(_) => panic!("session finished before a mid-sampling checkpoint"),
            }
        };
        assert!(!checkpoint.sample.is_empty());
        drop(session);

        let resumed = crate::run_to_completion(
            DipeEstimator::new()
                .resume(&c, &config, &model, &checkpoint)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            resumed.mean_power_w.to_bits(),
            uninterrupted.mean_power_w().to_bits()
        );
        assert_eq!(resumed.sample_size, uninterrupted.sample_size());
        assert_eq!(resumed.cycle_counts, uninterrupted.cycle_counts());
        match &resumed.diagnostics {
            Diagnostics::Dipe {
                selection, sample, ..
            } => {
                assert_eq!(selection, uninterrupted.selection());
                let expected: Vec<u64> =
                    uninterrupted.sample().iter().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = sample.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, expected, "resumed sample must match bit-for-bit");
            }
            other => panic!("unexpected diagnostics {other:?}"),
        }
    }

    #[test]
    fn warm_checkpoint_resumes_under_any_accuracy_target() {
        use crate::estimate::{CycleBudget, Progress};
        let c = iscas89::load("s298").unwrap();
        let model = InputModel::uniform();
        let loose = DipeConfig::default()
            .with_seed(23)
            .with_accuracy(0.10, 0.95);
        // Harvest the warm checkpoint from a completed loose run.
        let mut session = DipeEstimator::new().start(&c, &loose, &model, 0).unwrap();
        while !matches!(
            session.step(CycleBudget::unbounded()).unwrap(),
            Progress::Done(_)
        ) {}
        let warm = session
            .warm_checkpoint()
            .expect("finished run has a warm checkpoint");
        assert!(warm.is_warm());

        // Resume it under a *different* (tighter) accuracy target: the warm
        // snapshot predates every accuracy-dependent decision, so the result
        // matches a cold run under that target bit-for-bit.
        let tight = DipeConfig::default()
            .with_seed(23)
            .with_accuracy(0.04, 0.99);
        let cold = DipeEstimator::new().run(&c, &tight, &model).unwrap();
        let resumed = crate::run_to_completion(
            DipeEstimator::new()
                .resume(&c, &tight, &model, &warm)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            resumed.mean_power_w.to_bits(),
            cold.mean_power_w().to_bits()
        );
        assert_eq!(resumed.sample_size, cold.sample_size());
        assert_eq!(resumed.cycle_counts, cold.cycle_counts());
    }

    #[test]
    fn resume_rejects_bad_checkpoints() {
        use crate::estimate::{CycleBudget, Progress};
        let c = iscas89::load("s27").unwrap();
        let config = DipeConfig::default().with_seed(3);
        let model = InputModel::uniform();
        let mut session = DipeEstimator::new().start(&c, &config, &model, 0).unwrap();
        let checkpoint = loop {
            if let Progress::Done(_) = session.step(CycleBudget::cycles(2_000)).unwrap() {
                panic!("finished early");
            }
            if let Some(cp) = session.checkpoint() {
                break cp;
            }
        };

        let mut wrong_version = checkpoint.clone();
        wrong_version.version += 1;
        assert!(matches!(
            DipeEstimator::new().resume(&c, &config, &model, &wrong_version),
            Err(DipeError::InvalidCheckpoint { .. })
        ));

        let mut wrong_estimator = checkpoint.clone();
        wrong_estimator.estimator = "someone else".to_string();
        assert!(matches!(
            DipeEstimator::new().resume(&c, &config, &model, &wrong_estimator),
            Err(DipeError::InvalidCheckpoint { .. })
        ));

        // A checkpoint from one circuit cannot restore onto another.
        let other = iscas89::load("s298").unwrap();
        assert!(matches!(
            DipeEstimator::new().resume(&other, &config, &model, &checkpoint),
            Err(DipeError::InvalidCheckpoint { .. })
        ));

        let mut zero_rng = checkpoint.clone();
        zero_rng.sampler.input_stream.rng_state = [0; 4];
        assert!(matches!(
            DipeEstimator::new().resume(&c, &config, &model, &zero_rng),
            Err(DipeError::InvalidCheckpoint { .. })
        ));
    }

    #[test]
    fn sessions_before_sampling_have_no_checkpoint() {
        use crate::estimate::{CycleBudget, Progress};
        let c = iscas89::load("s27").unwrap();
        let config = DipeConfig::default().with_seed(5);
        let mut session = DipeEstimator::new()
            .start(&c, &config, &InputModel::uniform(), 0)
            .unwrap();
        // One tiny step: still warming up.
        match session.step(CycleBudget::cycles(10)).unwrap() {
            Progress::Running { .. } => {}
            Progress::Done(_) => panic!("cannot finish in 10 cycles"),
        }
        assert!(session.checkpoint().is_none());
        assert!(session.warm_checkpoint().is_none());
    }

    #[test]
    fn invalid_input_model_rejected_at_start() {
        let c = iscas89::load("s27").unwrap();
        let model = InputModel::PerInput {
            probabilities: vec![0.5],
        };
        assert!(DipeEstimator::new()
            .run(&c, &DipeConfig::default(), &model)
            .is_err());
        assert!(DipeEstimator::new()
            .start(&c, &DipeConfig::default(), &model, 0)
            .is_err());
    }
}
