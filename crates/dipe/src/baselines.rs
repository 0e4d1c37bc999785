//! Baseline estimators the paper compares against (Sections I and III),
//! exposed through the same [`PowerEstimator`] session API as DIPE itself.
//!
//! * [`DecoupledCombinationalEstimator`] — the "partition into combinational
//!   part + latches" family of approaches (refs. [1–4] of the paper): the FSM
//!   is lumped into per-latch signal probabilities, and present states are
//!   then drawn with *independent* latch bits, discarding all spatial and
//!   temporal correlation between latches. Its bias against the
//!   long-simulation reference demonstrates the accuracy claim that motivates
//!   DIPE.
//! * [`FixedWarmupEstimator`] — a Chou–Roy style Monte-Carlo estimator
//!   (ref. \[9]): statistically sound (each sample is preceded by a long fixed
//!   warm-up, so samples are essentially independent draws from the
//!   stationary process), but pessimistic — the warm-up is chosen a priori
//!   without looking at the circuit, so it simulates one to two orders of
//!   magnitude more cycles per sample than DIPE's dynamically selected
//!   independence interval.
//!
//! Both produce the unified [`Estimate`] record, so their results line up
//! column-for-column against DIPE and the reference.

use logicsim::GlitchActivity;
use netlist::Circuit;
use seqstats::{MomentAccumulatorState, NodeStoppingDecision};

use crate::config::DipeConfig;
use crate::error::DipeError;
use crate::estimate::{
    run_to_completion, DecoupledSession, Diagnostics, Estimate, EstimationSession, PowerEstimator,
};
use crate::independence::IndependenceSelection;
use crate::input::InputModel;
use crate::sampler::PowerSampler;
use crate::session::{NoFold, Session, ShardFold, Source};
use crate::shards::SerialFront;

/// The decoupled estimator: latch bits drawn independently from their
/// stationary signal probabilities, ignoring correlations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DecoupledCombinationalEstimator {
    /// Number of zero-delay characterisation cycles used to estimate the
    /// per-latch signal probabilities.
    pub characterization_cycles: usize,
    /// Number of Monte-Carlo samples drawn in the estimation phase.
    pub samples: usize,
}

impl Default for DecoupledCombinationalEstimator {
    fn default() -> Self {
        DecoupledCombinationalEstimator {
            characterization_cycles: 20_000,
            samples: 2_000,
        }
    }
}

impl DecoupledCombinationalEstimator {
    /// Runs the decoupled estimation to completion — a thin wrapper driving
    /// a [session](PowerEstimator::start) with an unbounded budget.
    ///
    /// # Errors
    ///
    /// Propagates configuration and input-model errors.
    pub fn run(
        &self,
        circuit: &Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
    ) -> Result<Estimate, DipeError> {
        run_to_completion(self.start(circuit, config, input_model, 0)?)
    }
}

impl PowerEstimator for DecoupledCombinationalEstimator {
    fn name(&self) -> String {
        "decoupled (independent latch bits)".to_string()
    }

    fn start<'c>(
        &self,
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
        seed_offset: u64,
    ) -> Result<Box<dyn EstimationSession + 'c>, DipeError> {
        Ok(Box::new(DecoupledSession::new(
            self.name(),
            circuit,
            config,
            input_model,
            seed_offset,
            self.characterization_cycles,
            self.samples,
        )?))
    }
}

/// The fixed conservative warm-up Monte-Carlo estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FixedWarmupEstimator {
    /// Number of zero-delay cycles simulated before *every* power sample.
    pub warmup_per_sample: usize,
}

impl Default for FixedWarmupEstimator {
    /// The conservative warm-up prescribed by the Chou–Roy style analysis for
    /// a crossing probability of 0.01 and ε = 0.05 (≈ 300 cycles).
    fn default() -> Self {
        FixedWarmupEstimator {
            warmup_per_sample: markov::warmup::conservative_warmup(0.01, 0.05),
        }
    }
}

impl FixedWarmupEstimator {
    /// Creates an estimator with an explicit per-sample warm-up.
    pub fn new(warmup_per_sample: usize) -> Self {
        FixedWarmupEstimator { warmup_per_sample }
    }

    /// Runs the estimation to completion with the same stopping criterion as
    /// DIPE, but a fixed warm-up between samples instead of the runs-test
    /// interval.
    ///
    /// # Errors
    ///
    /// Propagates configuration/input-model errors and reports
    /// [`DipeError::SampleBudgetExhausted`] when the accuracy is not reached.
    pub fn run(
        &self,
        circuit: &Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
    ) -> Result<Estimate, DipeError> {
        run_to_completion(self.start(circuit, config, input_model, 0)?)
    }
}

impl PowerEstimator for FixedWarmupEstimator {
    fn name(&self) -> String {
        format!("fixed warm-up ({} cycles/sample)", self.warmup_per_sample)
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
            0xC0FFEE_u64.wrapping_add(seed_offset),
        )?;
        // The DIPE flow with the a-priori warm-up in place of the runs-test
        // interval: same stopping rule, no selection.
        let front = SerialFront::with_fixed_interval(sampler, config, self.warmup_per_sample);
        let fold = FixedWarmupFold {
            warmup_per_sample: self.warmup_per_sample,
        };
        Ok(Box::new(Session::start(
            self.name(),
            config,
            front,
            fold,
            Source::Inline,
        )))
    }
}

/// The fixed warm-up baseline's fold: no per-block payload, and diagnostics
/// that report the per-sample warm-up instead of a selection.
struct FixedWarmupFold {
    warmup_per_sample: usize,
}

impl ShardFold for FixedWarmupFold {
    type Block = ();

    fn new_block(&self) {}

    fn observe(&self, _block: &mut (), _activity: &GlitchActivity) {}

    fn merge(&self, _pooled: &mut (), _block: &()) {}

    fn diagnostics(
        &self,
        _pooled: &(),
        _selection: IndependenceSelection,
        criterion: String,
        _sample: Vec<f64>,
        _node: Option<NodeStoppingDecision>,
    ) -> Diagnostics {
        Diagnostics::FixedWarmup {
            warmup_per_sample: self.warmup_per_sample,
            criterion,
        }
    }

    fn restore(&self, state: Option<&MomentAccumulatorState>) -> Result<(), String> {
        NoFold.restore(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::Diagnostics;
    use crate::estimator::DipeEstimator;
    use crate::reference::LongSimulationReference;
    use netlist::iscas89;

    #[test]
    fn decoupled_estimator_runs_and_is_plausible() {
        let c = iscas89::load("s27").unwrap();
        let config = DipeConfig::default().with_seed(2);
        let baseline = DecoupledCombinationalEstimator {
            characterization_cycles: 5_000,
            samples: 1_000,
        }
        .run(&c, &config, &InputModel::uniform())
        .unwrap();
        assert!(baseline.mean_power_mw() > 0.0);
        assert_eq!(baseline.sample_size, 1_000);
        assert!(baseline.cycle_counts.zero_delay_cycles >= 5_000);
        assert!(baseline.estimator.contains("decoupled"));
        match &baseline.diagnostics {
            Diagnostics::Decoupled {
                latch_probabilities,
                characterization_cycles,
            } => {
                assert_eq!(latch_probabilities.len(), c.num_flip_flops());
                assert!(latch_probabilities.iter().all(|p| (0.0..=1.0).contains(p)));
                assert_eq!(*characterization_cycles, 5_000);
            }
            other => panic!("expected decoupled diagnostics, got {other:?}"),
        }
    }

    #[test]
    fn fixed_warmup_estimator_matches_reference_but_costs_more_cycles() {
        let c = iscas89::load("s27").unwrap();
        let config = DipeConfig::default().with_seed(4);
        let reference = LongSimulationReference::new(20_000)
            .run(&c, &config, &InputModel::uniform())
            .unwrap();

        let warmup = FixedWarmupEstimator::new(100)
            .run(&c, &config, &InputModel::uniform())
            .unwrap();
        assert!(warmup.relative_deviation_from(reference.mean_power_w()) < 0.08);

        let dipe = DipeEstimator::new()
            .run(&c, &config, &InputModel::uniform())
            .unwrap();
        // Same accuracy class, but the fixed warm-up simulates far more
        // zero-delay cycles per measured sample.
        let warmup_ratio = warmup.cycle_counts.zero_delay_cycles as f64 / warmup.sample_size as f64;
        let dipe_ratio = dipe.cycle_counts().zero_delay_cycles as f64 / dipe.sample_size() as f64;
        assert!(
            warmup_ratio > 5.0 * dipe_ratio,
            "fixed warm-up ratio {warmup_ratio:.1} vs DIPE ratio {dipe_ratio:.1}"
        );
    }

    #[test]
    fn default_fixed_warmup_matches_chou_roy_figure() {
        let w = FixedWarmupEstimator::default();
        assert!((298..=300).contains(&w.warmup_per_sample));
        assert!(w.name().contains("cycles/sample"));
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let c = iscas89::load("s27").unwrap();
        let config = DipeConfig::default();
        let bad_model = InputModel::PerInput {
            probabilities: vec![0.5],
        };
        assert!(DecoupledCombinationalEstimator::default()
            .run(&c, &config, &bad_model)
            .is_err());
        assert!(FixedWarmupEstimator::new(10)
            .run(&c, &config, &bad_model)
            .is_err());
    }
}
