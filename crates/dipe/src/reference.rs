//! Brute-force long-simulation reference (the `SIM` column of Table 1).
//!
//! The paper's reference is the sample average of the power dissipated in one
//! million *consecutive* clock cycles, measured with the general-delay
//! simulator. This is the quantity the statistical estimator tries to match
//! with a sample that is orders of magnitude smaller.

use netlist::Circuit;

use crate::config::DipeConfig;
use crate::error::DipeError;
use crate::estimate::{EstimationSession, PowerEstimator, ReferenceSession};
use crate::input::InputModel;
use crate::sampler::PowerSampler;

/// Configuration of the reference simulation: just the number of consecutive
/// cycles to measure. The `config` a session starts with supplies the
/// technology, capacitance and delay models plus the seed and warm-up
/// length; its accuracy-related fields are ignored. The estimate's
/// [`Diagnostics::Reference`](crate::Diagnostics::Reference) carries the
/// full per-cycle power summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LongSimulationReference {
    cycles: usize,
}

impl LongSimulationReference {
    /// Creates a reference simulation of `cycles` consecutive measured cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn new(cycles: usize) -> Self {
        assert!(cycles > 0, "the reference needs at least one cycle");
        LongSimulationReference { cycles }
    }

    /// The paper's reference length: one million consecutive cycles.
    pub fn paper_length() -> Self {
        LongSimulationReference { cycles: 1_000_000 }
    }

    /// Number of cycles this reference will measure.
    pub fn cycles(&self) -> usize {
        self.cycles
    }
}

impl PowerEstimator for LongSimulationReference {
    fn name(&self) -> String {
        format!("long simulation ({} consecutive cycles)", self.cycles)
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
            (u64::MAX / 2).wrapping_add(seed_offset),
        )?;
        Ok(Box::new(ReferenceSession::new(
            self.name(),
            config.warmup_cycles,
            self.cycles,
            sampler,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{Diagnostics, Estimate};
    use netlist::iscas89;
    use power::PowerSummary;

    fn summary(estimate: &Estimate) -> PowerSummary {
        match estimate.diagnostics {
            Diagnostics::Reference { summary } => summary,
            ref other => panic!("expected reference diagnostics, got {other:?}"),
        }
    }

    #[test]
    fn reference_produces_stable_positive_power() {
        let c = iscas89::load("s27").unwrap();
        let config = DipeConfig::default().with_seed(3);
        let a = LongSimulationReference::new(20_000)
            .run(&c, &config, &InputModel::uniform())
            .unwrap();
        assert!(a.mean_power_mw() > 0.0);
        assert_eq!(a.sample_size, 20_000);
        assert_eq!(a.cycle_counts.measured_cycles, 20_000);
        assert!(summary(&a).coefficient_of_variation() > 0.0);
        assert!(a.elapsed_seconds >= 0.0);
        assert!(summary(&a).max_w() >= summary(&a).min_w());

        // Two independent halves of the same length agree within a couple of
        // percent — the reference itself is converged at this length.
        let b = LongSimulationReference::new(20_000)
            .run(
                &c,
                &DipeConfig::default().with_seed(1234),
                &InputModel::uniform(),
            )
            .unwrap();
        let rel = (a.mean_power_w - b.mean_power_w).abs() / a.mean_power_w;
        assert!(rel < 0.05, "two references differ by {rel}");
    }

    #[test]
    fn paper_length_is_one_million() {
        assert_eq!(LongSimulationReference::paper_length().cycles(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_cycles_rejected() {
        LongSimulationReference::new(0);
    }

    #[test]
    fn reference_is_deterministic_per_seed() {
        let c = iscas89::load("s27").unwrap();
        let config = DipeConfig::default().with_seed(8);
        let a = LongSimulationReference::new(2_000)
            .run(&c, &config, &InputModel::uniform())
            .unwrap();
        let b = LongSimulationReference::new(2_000)
            .run(&c, &config, &InputModel::uniform())
            .unwrap();
        assert_eq!(a.mean_power_w, b.mean_power_w);
    }
}
