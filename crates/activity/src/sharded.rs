//! Sharded node-resolved estimation: the breakdown estimator's sampling
//! phase fanned out across shard threads ([`dipe::shards::ShardThreads`]).
//!
//! Warm-up and interval selection run once on the primary shard; block
//! sampling then runs on N concurrent chains. Each shard folds its measured
//! cycles into its **own** per-block [`NodeActivityAccumulator`] delta, and
//! the core's merger absorbs every round's deltas in deterministic shard
//! order into the pooled accumulator before the stopping rule evaluates the
//! scalar total-power criterion and the two-tier
//! [`seqstats::NodeStoppingPolicy`]. The glitch decomposition rides along
//! untouched — per-shard glitch sums merge exactly, so the `power ≡
//! functional + glitch` identity of the breakdown holds on the sharded path
//! bit-for-bit as it does on the inline one.
//!
//! With one shard the pooled sample, the accumulator, the stopping trace
//! and the cycle accounting are identical to the inline session for the
//! same seed (asserted by the workspace determinism tests); with K shards
//! the estimate is statistically equivalent and independent of thread
//! scheduling.
//!
//! [`NodeActivityAccumulator`]: crate::NodeActivityAccumulator

use dipe::estimate::EstimationSession;
use dipe::session::{Session, Source};
use dipe::shards::{SerialFront, ShardThreads};
use dipe::{DipeError, PowerEstimator, PowerSampler};
use netlist::Circuit;
use seqstats::NodeStoppingPolicy;

use crate::{BreakdownEstimator, ConvergenceTarget};

/// A [`PowerEstimator`] producing spatial power breakdowns with the
/// sampling phase sharded across cores.
///
/// The sharded counterpart of [`BreakdownEstimator`]; construct one with
/// [`sharded`](BreakdownEstimator::sharded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedBreakdownEstimator {
    base: BreakdownEstimator,
    shards: usize,
}

impl ShardedBreakdownEstimator {
    /// Creates an estimator with the given per-node policy, target and
    /// shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(node_policy: NodeStoppingPolicy, target: ConvergenceTarget, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard is required");
        ShardedBreakdownEstimator {
            base: BreakdownEstimator::new(node_policy, target),
            shards,
        }
    }

    /// The number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The per-node stopping policy.
    pub fn node_policy(&self) -> NodeStoppingPolicy {
        self.base.node_policy()
    }

    /// The convergence target.
    pub fn target(&self) -> ConvergenceTarget {
        self.base.target()
    }
}

impl BreakdownEstimator {
    /// The sharded counterpart of this estimator: same policy and target,
    /// with the sampling phase fanned out across `shards` workers.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn sharded(&self, shards: usize) -> ShardedBreakdownEstimator {
        ShardedBreakdownEstimator::new(self.node_policy(), self.target(), shards)
    }
}

impl PowerEstimator for ShardedBreakdownEstimator {
    fn name(&self) -> String {
        format!(
            "node breakdown ({}, {} shards)",
            self.base.stop_label(),
            self.shards
        )
    }

    fn start<'c>(
        &self,
        circuit: &'c Circuit,
        config: &dipe::DipeConfig,
        input_model: &dipe::input::InputModel,
        seed_offset: u64,
    ) -> Result<Box<dyn EstimationSession + 'c>, DipeError> {
        let sampler = PowerSampler::new(circuit, config, input_model, seed_offset)?;
        let fold = self.base.fold(&sampler);
        let threads = ShardThreads::new(self.shards, input_model.clone(), seed_offset);
        Ok(Box::new(Session::start(
            self.name(),
            config,
            SerialFront::new(sampler, config),
            fold,
            Source::Threads(threads),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BreakdownEstimator;
    use dipe::estimate::run_to_completion;
    use dipe::input::InputModel;
    use dipe::{DipeConfig, Estimate};
    use netlist::iscas89;

    fn relaxed_policy() -> NodeStoppingPolicy {
        NodeStoppingPolicy::new(0.15, 0.90, 5, 0.05, 64)
    }

    fn config() -> DipeConfig {
        DipeConfig::default().with_seed(11)
    }

    fn run(circuit: &Circuit, estimator: &dyn PowerEstimator) -> Estimate {
        run_to_completion(
            estimator
                .start(circuit, &config(), &InputModel::uniform(), 0)
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn one_shard_matches_the_single_threaded_breakdown_session() {
        let circuit = iscas89::load("s27").unwrap();
        let base = BreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::NodeBreakdown);
        let scalar = run(&circuit, &base);
        let sharded = run(&circuit, &base.sharded(1));
        assert_eq!(sharded.mean_power_w, scalar.mean_power_w);
        assert_eq!(sharded.relative_half_width, scalar.relative_half_width);
        assert_eq!(sharded.sample_size, scalar.sample_size);
        assert_eq!(sharded.cycle_counts, scalar.cycle_counts);
        assert_eq!(sharded.breakdown(), scalar.breakdown());
        let a = sharded.node_diagnostics().unwrap();
        let b = scalar.node_diagnostics().unwrap();
        assert_eq!(a.node_decision, b.node_decision);
        assert_eq!(a.selection, b.selection);
        assert_eq!(a.sample, b.sample);
    }

    #[test]
    fn sharded_breakdown_is_deterministic_and_internally_consistent() {
        let circuit = iscas89::load("s27").unwrap();
        let estimator =
            ShardedBreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::NodeBreakdown, 3);
        let first = run(&circuit, &estimator);
        let second = run(&circuit, &estimator);
        assert_eq!(first.mean_power_w, second.mean_power_w);
        assert_eq!(first.breakdown(), second.breakdown());
        assert_eq!(first.cycle_counts, second.cycle_counts);
        // The pooled breakdown total still equals the scalar estimate
        // (Eq. 1 over the same measured cycles).
        let breakdown = first.breakdown().unwrap();
        let gap = (breakdown.total_power_w() - first.mean_power_w).abs() / first.mean_power_w;
        assert!(gap < 1e-9, "gap {gap}");
        assert_eq!(breakdown.observations() as usize, first.sample_size);
        // And the glitch identity survives pooling: per net,
        // power == functional + glitch.
        for net in breakdown.per_net() {
            let recombined = net.functional_power_w + net.glitch_power_w;
            assert!(
                (recombined - net.power_w).abs() <= 1e-12 * net.power_w.max(f64::MIN_POSITIVE),
                "net {}: {} != {}",
                net.name,
                recombined,
                net.power_w
            );
        }
    }

    #[test]
    fn total_power_target_converges_sharded() {
        let circuit = iscas89::load("s298").unwrap();
        let estimator =
            ShardedBreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::TotalPower, 2);
        let estimate = run(&circuit, &estimator);
        assert!(estimate.relative_half_width.unwrap() < config().relative_error);
        assert!(estimate.breakdown().is_some());
        assert_eq!(
            estimate.sample_size % (2 * config().block_size),
            0,
            "pooled samples arrive in complete rounds"
        );
    }

    #[test]
    fn estimator_metadata_and_conversion() {
        let base = BreakdownEstimator::per_node();
        let sharded = base.sharded(4);
        assert_eq!(sharded.shards(), 4);
        assert_eq!(sharded.target(), ConvergenceTarget::NodeBreakdown);
        assert_eq!(sharded.node_policy().top_k(), base.node_policy().top_k());
        assert!(sharded.name().contains("4 shards"));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = BreakdownEstimator::per_node().sharded(0);
    }
}
