//! The node-breakdown estimator: the DIPE flow (warm-up, runs-test interval
//! selection, block-wise sampling) run through the core
//! [`dipe::session::Session`] with a per-net fold — every measured cycle's
//! transition record lands in a [`NodeActivityAccumulator`], and the run
//! stops on either the scalar total-power criterion or the two-tier
//! per-node policy.

use dipe::checkpoint::SessionCheckpoint;
use dipe::estimate::{EstimationSession, NodeBreakdownDiagnostics};
use dipe::independence::IndependenceSelection;
use dipe::session::{Session, ShardFold, Source};
use dipe::shards::SerialFront;
use dipe::{Diagnostics, DipeConfig, DipeError, PowerEstimator, PowerSampler};
use logicsim::GlitchActivity;
use netlist::Circuit;
use seqstats::{MomentAccumulatorState, NodeStoppingDecision, NodeStoppingPolicy};

use crate::accumulator::NodeActivityAccumulator;

/// What a breakdown session waits for before declaring the estimate done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ConvergenceTarget {
    /// Stop when the scalar total-power criterion of the [`DipeConfig`] is
    /// satisfied — the paper's stopping rule, with the per-net breakdown
    /// reported at whatever accuracy it reached by then.
    TotalPower,
    /// Stop when the per-node policy is satisfied: maximum relative error
    /// over the top-K (power-ranked) nets, absolute floor for the rest.
    NodeBreakdown,
}

/// A [`PowerEstimator`] producing spatial (per-net) power breakdowns.
///
/// The interval-selection phase is identical to DIPE — trial sequences are
/// *not* folded into the activity estimate, which is built exclusively from
/// the i.i.d. post-selection sample, so every per-net confidence interval
/// rests on the same independence argument as the paper's scalar estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakdownEstimator {
    node_policy: NodeStoppingPolicy,
    target: ConvergenceTarget,
}

impl BreakdownEstimator {
    /// Creates an estimator with the given per-node policy and target.
    pub fn new(node_policy: NodeStoppingPolicy, target: ConvergenceTarget) -> Self {
        BreakdownEstimator {
            node_policy,
            target,
        }
    }

    /// Per-node convergence with the default policy spec
    /// ([`NodeStoppingPolicy::default_spec`]).
    pub fn per_node() -> Self {
        BreakdownEstimator::new(
            NodeStoppingPolicy::default_spec(),
            ConvergenceTarget::NodeBreakdown,
        )
    }

    /// Total-power convergence (DIPE's stopping rule) with the breakdown
    /// reported as a by-product.
    pub fn total_power() -> Self {
        BreakdownEstimator::new(
            NodeStoppingPolicy::default_spec(),
            ConvergenceTarget::TotalPower,
        )
    }

    /// The per-node stopping policy.
    pub fn node_policy(&self) -> NodeStoppingPolicy {
        self.node_policy
    }

    /// The convergence target.
    pub fn target(&self) -> ConvergenceTarget {
        self.target
    }

    /// Reopens a session at a [checkpoint](dipe::checkpoint) captured from an
    /// earlier breakdown session. The inputs must be the ones the
    /// checkpointed session was started with; the resumed session continues
    /// the identical simulation sequence, so its final estimate *and per-net
    /// breakdown* match the uninterrupted run bit-for-bit (wall-clock
    /// diagnostics aside).
    ///
    /// # Errors
    ///
    /// * [`DipeError::InvalidCheckpoint`] on a version or estimator mismatch,
    ///   a missing or circuit-incompatible accumulator state, or sampler
    ///   state that does not fit `circuit`;
    /// * the usual [`DipeError::InvalidConfig`] /
    ///   [`DipeError::InputModelMismatch`] for unusable inputs.
    pub fn resume<'c>(
        &self,
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &dipe::input::InputModel,
        checkpoint: &SessionCheckpoint,
    ) -> Result<Box<dyn EstimationSession + 'c>, DipeError> {
        let sampler = PowerSampler::new(circuit, config, input_model, 0)?;
        let fold = self.fold(&sampler);
        let session = Session::resume(self.name(), config, sampler, fold, checkpoint)?;
        Ok(Box::new(session))
    }

    /// The stopping rule's part of the estimator name.
    pub(crate) fn stop_label(&self) -> String {
        match self.target {
            ConvergenceTarget::TotalPower => "total-power stop".to_string(),
            ConvergenceTarget::NodeBreakdown => {
                format!("top-{} per-node stop", self.node_policy.top_k())
            }
        }
    }

    /// The per-net fold of a run on `sampler`'s circuit and loads.
    pub(crate) fn fold<'c>(&self, sampler: &PowerSampler<'c>) -> ActivityFold<'c> {
        ActivityFold {
            circuit: sampler.circuit(),
            technology: sampler.calculator().technology(),
            loads: sampler.calculator().loads().clone(),
            node_policy: self.node_policy,
            target: self.target,
        }
    }
}

impl PowerEstimator for BreakdownEstimator {
    fn name(&self) -> String {
        format!("node breakdown ({})", self.stop_label())
    }

    fn start<'c>(
        &self,
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &dipe::input::InputModel,
        seed_offset: u64,
    ) -> Result<Box<dyn EstimationSession + 'c>, DipeError> {
        let sampler = PowerSampler::new(circuit, config, input_model, seed_offset)?;
        let fold = self.fold(&sampler);
        Ok(Box::new(Session::start(
            self.name(),
            config,
            SerialFront::new(sampler, config),
            fold,
            Source::Inline,
        )))
    }
}

/// The per-net fold of node-resolved estimation: every block carries an
/// exact per-net activity delta for its measured cycles, the pooled payload
/// is their merge (per-net integer sums make the merge order-independent,
/// and the glitch decomposition merges exactly), and the per-node policy
/// ranks nets by estimated power — capacitance-weighted activity, not raw
/// activity.
pub(crate) struct ActivityFold<'c> {
    circuit: &'c Circuit,
    technology: power::Technology,
    loads: power::LoadCapacitances,
    node_policy: NodeStoppingPolicy,
    target: ConvergenceTarget,
}

impl ShardFold for ActivityFold<'_> {
    type Block = NodeActivityAccumulator;

    fn new_block(&self) -> NodeActivityAccumulator {
        NodeActivityAccumulator::for_circuit(self.circuit)
    }

    fn observe(&self, block: &mut NodeActivityAccumulator, activity: &GlitchActivity) {
        block.add_glitch_cycle(activity);
    }

    fn merge(&self, pooled: &mut NodeActivityAccumulator, block: &NodeActivityAccumulator) {
        pooled.merge(block);
    }

    fn node_decision(&self, pooled: &NodeActivityAccumulator) -> Option<NodeStoppingDecision> {
        let means = pooled.means();
        let std_errors = pooled.std_errors();
        let weights: Vec<f64> = means
            .iter()
            .zip(self.loads.as_slice())
            .map(|(&mean, &cap)| mean * cap)
            .collect();
        Some(self.node_policy.evaluate(
            &means,
            &std_errors,
            &weights,
            pooled.observations() as usize,
        ))
    }

    fn node_decides(&self) -> bool {
        self.target == ConvergenceTarget::NodeBreakdown
    }

    fn diagnostics(
        &self,
        pooled: &NodeActivityAccumulator,
        selection: IndependenceSelection,
        criterion: String,
        sample: Vec<f64>,
        node: Option<NodeStoppingDecision>,
    ) -> Diagnostics {
        // By Eq. (1) the breakdown's capacitance-weighted activity total
        // equals the estimate's sample mean up to floating-point
        // association.
        let breakdown = power::PowerBreakdown::from_activity(
            self.circuit,
            self.technology,
            &self.loads,
            &pooled.means(),
            &pooled.std_errors(),
            &pooled.glitch_means(),
            pooled.observations(),
        );
        let criterion = match self.target {
            ConvergenceTarget::TotalPower => criterion,
            ConvergenceTarget::NodeBreakdown => format!(
                "per-node top-{} (eps {}, confidence {}, floor {})",
                self.node_policy.top_k(),
                self.node_policy.relative_error(),
                self.node_policy.confidence(),
                self.node_policy.activity_floor()
            ),
        };
        Diagnostics::NodeBreakdown(Box::new(NodeBreakdownDiagnostics {
            selection,
            criterion,
            breakdown,
            node_decision: node.expect("the per-net fold always has a node verdict"),
            sample,
        }))
    }

    fn snapshot(&self, pooled: &NodeActivityAccumulator) -> Option<MomentAccumulatorState> {
        Some(pooled.snapshot())
    }

    fn restore(
        &self,
        state: Option<&MomentAccumulatorState>,
    ) -> Result<NodeActivityAccumulator, String> {
        let state = state.ok_or(
            "checkpoint carries no per-net accumulator state; it was not taken from a \
             breakdown session",
        )?;
        NodeActivityAccumulator::from_state(state, self.circuit.num_nets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dipe::estimate::run_to_completion;
    use dipe::input::InputModel;
    use dipe::{CycleBudget, Estimate, Progress};
    use netlist::iscas89;

    fn relaxed_policy() -> NodeStoppingPolicy {
        NodeStoppingPolicy::new(0.15, 0.90, 5, 0.05, 64)
    }

    fn config() -> DipeConfig {
        DipeConfig::default().with_seed(11)
    }

    fn run(circuit: &Circuit, estimator: &BreakdownEstimator) -> Estimate {
        estimator
            .run(circuit, &config(), &InputModel::uniform())
            .unwrap()
    }

    #[test]
    fn per_node_target_converges_on_s27() {
        let c = iscas89::load("s27").unwrap();
        let estimate = run(
            &c,
            &BreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::NodeBreakdown),
        );
        let node = estimate
            .node_diagnostics()
            .unwrap_or_else(|| panic!("wrong diagnostics: {:?}", estimate.diagnostics));
        let (node_decision, breakdown) = (&node.node_decision, &node.breakdown);
        assert!(node_decision.satisfied);
        assert!(node_decision.relative_nets >= 1);
        assert_eq!(breakdown.per_net().len(), c.num_nets());
        assert_eq!(breakdown.observations() as usize, estimate.sample_size);
        // The breakdown total and the scalar power estimate are the same
        // number (Eq. 1 over the same measured cycles).
        let relative_gap =
            (breakdown.total_power_w() - estimate.mean_power_w).abs() / estimate.mean_power_w;
        assert!(relative_gap < 1e-9, "gap {relative_gap}");
    }

    #[test]
    fn total_power_target_matches_dipe_sampling_spec() {
        let c = iscas89::load("s298").unwrap();
        let estimate = run(
            &c,
            &BreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::TotalPower),
        );
        assert!(estimate.relative_half_width.unwrap() < config().relative_error);
        assert!(estimate.breakdown().is_some());
        assert!(estimate.independence_interval().is_some());
    }

    #[test]
    fn stepping_granularity_does_not_change_the_result() {
        let c = iscas89::load("s27").unwrap();
        let estimator = BreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::NodeBreakdown);
        let blocking = run(&c, &estimator);
        let mut session = estimator
            .start(&c, &config(), &InputModel::uniform(), 0)
            .unwrap();
        let stepped = loop {
            match session.step(CycleBudget::cycles(777)).unwrap() {
                Progress::Running { .. } => {}
                Progress::Done(estimate) => break estimate,
            }
        };
        assert_eq!(blocking.mean_power_w, stepped.mean_power_w);
        assert_eq!(blocking.sample_size, stepped.sample_size);
        assert_eq!(blocking.cycle_counts, stepped.cycle_counts);
        assert_eq!(blocking.breakdown(), stepped.breakdown());
        // Done is sticky.
        assert!(matches!(
            session.step(CycleBudget::cycles(1)).unwrap(),
            Progress::Done(_)
        ));
    }

    #[test]
    fn checkpointed_breakdown_resumes_bit_for_bit() {
        let c = iscas89::load("s27").unwrap();
        let estimator = BreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::NodeBreakdown);
        let uninterrupted = run(&c, &estimator);

        // Kill a session mid-sampling; keep only its checkpoint.
        let mut session = estimator
            .start(&c, &config(), &InputModel::uniform(), 0)
            .unwrap();
        let checkpoint = loop {
            match session.step(CycleBudget::cycles(2_000)).unwrap() {
                Progress::Running { .. } => {
                    if let Some(cp) = session.checkpoint() {
                        if !cp.is_warm() {
                            break cp;
                        }
                    }
                }
                Progress::Done(_) => panic!("finished before a mid-sampling checkpoint"),
            }
        };
        assert!(checkpoint.accumulator.is_some());
        drop(session);

        let resumed = run_to_completion(
            estimator
                .resume(&c, &config(), &InputModel::uniform(), &checkpoint)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            resumed.mean_power_w.to_bits(),
            uninterrupted.mean_power_w.to_bits()
        );
        assert_eq!(resumed.sample_size, uninterrupted.sample_size);
        assert_eq!(resumed.cycle_counts, uninterrupted.cycle_counts);
        // The per-net breakdown — built from the restored integer moment
        // sums — is also identical, not merely close.
        assert_eq!(resumed.breakdown(), uninterrupted.breakdown());
    }

    #[test]
    fn resume_requires_accumulator_state() {
        let c = iscas89::load("s27").unwrap();
        let estimator = BreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::NodeBreakdown);
        let mut session = estimator
            .start(&c, &config(), &InputModel::uniform(), 0)
            .unwrap();
        let checkpoint = loop {
            if let Progress::Done(_) = session.step(CycleBudget::cycles(2_000)).unwrap() {
                panic!("finished early");
            }
            if let Some(cp) = session.checkpoint() {
                break cp;
            }
        };
        let mut stripped = checkpoint.clone();
        stripped.accumulator = None;
        assert!(matches!(
            estimator.resume(&c, &config(), &InputModel::uniform(), &stripped),
            Err(DipeError::InvalidCheckpoint { .. })
        ));
        // And a scalar DIPE estimator refuses a breakdown checkpoint.
        assert!(matches!(
            dipe::DipeEstimator::new().resume(&c, &config(), &InputModel::uniform(), &checkpoint),
            Err(DipeError::InvalidCheckpoint { .. })
        ));
    }

    #[test]
    fn accumulator_snapshot_round_trips_exactly() {
        let c = iscas89::load("s298").unwrap();
        let estimator = BreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::TotalPower);
        let mut session = estimator
            .start(&c, &config(), &InputModel::uniform(), 0)
            .unwrap();
        let checkpoint = loop {
            if let Progress::Done(_) = session.step(CycleBudget::cycles(500)).unwrap() {
                panic!("finished early");
            }
            if let Some(cp) = session.checkpoint() {
                if !cp.is_warm() {
                    break cp;
                }
            }
        };
        let state = checkpoint.accumulator.as_ref().unwrap();
        assert!(state.observations > 0, "mid-sampling accumulator is live");
        let restored = NodeActivityAccumulator::from_state(state, c.num_nets()).unwrap();
        assert_eq!(restored.snapshot(), *state);
        // Wrong net count is rejected.
        assert!(NodeActivityAccumulator::from_state(state, c.num_nets() + 1).is_err());
    }

    #[test]
    fn estimator_metadata() {
        let per_node = BreakdownEstimator::per_node();
        assert_eq!(per_node.target(), ConvergenceTarget::NodeBreakdown);
        assert!(per_node.name().contains("top-20"));
        let total = BreakdownEstimator::total_power();
        assert_eq!(total.target(), ConvergenceTarget::TotalPower);
        assert!(total.name().contains("total-power"));
        assert_eq!(per_node.node_policy().top_k(), 20);
    }

    #[test]
    fn impossible_node_spec_exhausts_the_sample_budget() {
        let c = iscas89::load("s27").unwrap();
        // A 1e-6 absolute floor on every quiet net cannot be met within a
        // 400-sample budget: the session must fail loudly, not loop.
        let estimator = BreakdownEstimator::new(
            NodeStoppingPolicy::new(0.05, 0.99, 3, 1e-6, 64),
            ConvergenceTarget::NodeBreakdown,
        );
        let config = config().with_sample_budget(64, 400);
        let result = run_to_completion(
            estimator
                .start(&c, &config, &InputModel::uniform(), 0)
                .unwrap(),
        );
        match result {
            // The budget check fires at the first block boundary at or past
            // the maximum, like the scalar sessions.
            Err(DipeError::SampleBudgetExhausted { samples, .. }) => assert!(samples >= 400),
            other => panic!("expected SampleBudgetExhausted, got {other:?}"),
        }
    }
}
