//! The DIPE estimator: warm-up, independence-interval selection, sampling and
//! stopping (Fig. 1 of the paper), exposed through the unified
//! [`PowerEstimator`] session API.

use netlist::Circuit;

use crate::config::DipeConfig;
use crate::error::DipeError;
use crate::estimate::{EstimationSession, PowerEstimator};
use crate::input::InputModel;
use crate::sampler::PowerSampler;
use crate::session::{NoFold, Session, Source};
use crate::shards::SerialFront;

/// The paper's estimator. A plain specification value: the circuit,
/// configuration and input model are supplied when a session is
/// [started](PowerEstimator::start) (or to the blocking
/// [`run`](PowerEstimator::run)).
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
    use crate::estimate::{Diagnostics, Estimate};
    use crate::independence::IndependenceSelection;
    use netlist::iscas89;

    fn run_on(name: &str, seed: u64) -> Estimate {
        let c = iscas89::load(name).unwrap();
        let config = DipeConfig::default().with_seed(seed);
        DipeEstimator::new()
            .run(&c, &config, &InputModel::uniform())
            .unwrap()
    }

    /// The DIPE diagnostics: interval selection, criterion name and sample.
    fn dipe_parts(estimate: &Estimate) -> (&IndependenceSelection, &str, &[f64]) {
        match &estimate.diagnostics {
            Diagnostics::Dipe {
                selection,
                criterion,
                sample,
            } => (selection, criterion, sample),
            other => panic!("expected DIPE diagnostics, got {other:?}"),
        }
    }

    #[test]
    fn s27_estimate_is_reasonable() {
        let result = run_on("s27", 1);
        assert!(result.mean_power_mw() > 0.001 && result.mean_power_mw() < 10.0);
        assert!(result.sample_size >= 64);
        assert!(result.independence_interval().unwrap() <= 10);
        assert!(result.relative_half_width.unwrap() < 0.05);
        assert!(result.cycle_counts.measured_cycles >= result.sample_size as u64);
        assert!(result.elapsed_seconds >= 0.0);
        assert!(dipe_parts(&result).1.contains("CLT"));
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
        let deviation = result.relative_deviation_from(reference.mean_power_w);
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
        assert_eq!(a.mean_power_w, b.mean_power_w);
        assert_eq!(a.sample_size, b.sample_size);
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
        assert_eq!(stepped.mean_power_w, blocking.mean_power_w);
        assert_eq!(stepped.sample_size, blocking.sample_size);
        assert_eq!(
            stepped.independence_interval(),
            blocking.independence_interval()
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
        assert_ne!(dipe_parts(&a).2, dipe_parts(&b).2);
        let rel = (a.mean_power_w - b.mean_power_w).abs() / a.mean_power_w;
        assert!(rel < 0.15, "two runs differ by {rel}");
    }

    #[test]
    fn sample_is_block_aligned() {
        let result = run_on("s27", 13);
        assert_eq!(result.sample_size % DipeConfig::default().block_size, 0);
    }

    #[test]
    fn alternative_criteria_also_converge() {
        let c = iscas89::load("s27").unwrap();
        for kind in [CriterionKind::OrderStatistic, CriterionKind::Dkw] {
            let config = DipeConfig::default().with_seed(21).with_criterion(kind);
            let result = DipeEstimator::new()
                .run(&c, &config, &InputModel::uniform())
                .unwrap();
            assert!(result.mean_power_w > 0.0, "{kind:?}");
            assert!(result.relative_half_width.unwrap() < 0.05, "{kind:?}");
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
        assert!(result.mean_power_w > 0.0);
        // Correlated inputs slow the mixing, so the interval may be larger,
        // but it must still be found.
        assert!(
            result.independence_interval().unwrap()
                <= DipeConfig::default().max_independence_interval
        );
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
        assert!(tight.sample_size > loose.sample_size);
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
            uninterrupted.mean_power_w.to_bits()
        );
        assert_eq!(resumed.sample_size, uninterrupted.sample_size);
        assert_eq!(resumed.cycle_counts, uninterrupted.cycle_counts);
        let (selection, _, sample) = dipe_parts(&resumed);
        let (expected_selection, _, expected_sample) = dipe_parts(&uninterrupted);
        assert_eq!(selection, expected_selection);
        let expected: Vec<u64> = expected_sample.iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = sample.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, expected, "resumed sample must match bit-for-bit");
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
        assert_eq!(resumed.mean_power_w.to_bits(), cold.mean_power_w.to_bits());
        assert_eq!(resumed.sample_size, cold.sample_size);
        assert_eq!(resumed.cycle_counts, cold.cycle_counts);
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
