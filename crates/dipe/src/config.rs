//! Configuration of the DIPE estimator.

use logicsim::DelayModel;
use power::{CapacitanceModel, Technology};
use seqstats::{DkwCriterion, NormalCriterion, OrderStatisticCriterion, StoppingCriterion};

use crate::error::DipeError;

/// Which stopping criterion the estimator uses to decide when the accuracy
/// specification has been met (Section IV of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CriterionKind {
    /// The parametric criterion based on the central limit theorem
    /// (refs. \[1] and \[11] of the paper). Default for the reproduction tables.
    Normal,
    /// A distribution-free criterion built on the binomial confidence
    /// interval for the median (order statistics), standing in for ref. \[7].
    OrderStatistic,
    /// A conservative distribution-free criterion based on the
    /// Dvoretzky–Kiefer–Wolfowitz bound.
    Dkw,
}

/// Which zero-delay backend executes the decorrelation (state-advance)
/// cycles between measurements.
///
/// Both backends run the same [`netlist::CompiledCircuit`] instruction
/// stream and are bit-identical; they differ only in traversal strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum EvalMode {
    /// Straight-line sweep over the full instruction stream
    /// ([`logicsim::CompiledSimulator`]). Default; best for small and
    /// mid-size circuits.
    #[default]
    Compiled,
    /// Cache-blocked levelised traversal in fixed-size tiles
    /// ([`logicsim::PartitionedSimulator`]); the megagate (10^5+ gate)
    /// backend.
    Partitioned,
}

impl EvalMode {
    /// Short stable identifier: `"compiled"` or `"partitioned"`.
    pub fn id(self) -> &'static str {
        match self {
            EvalMode::Compiled => "compiled",
            EvalMode::Partitioned => "partitioned",
        }
    }
}

impl std::fmt::Display for EvalMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// Which delay-aware backend executes the measured (glitch-counting)
/// cycles of a lane group ([`crate::run_replicated_dipe`], `--lanes`).
///
/// Scalar, sharded and remote runs ignore it: a scalar sample is one
/// replication, so it always measures on [`logicsim::EventDrivenSimulator`].
/// The two lane-group backends are bit-identical wherever both apply — the
/// per-net `GlitchActivity` counts and hence every power figure match bit
/// for bit — so [`Auto`](MeasureMode::Auto) switching is numerically
/// invisible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum MeasureMode {
    /// Pick [`logicsim::TimeSlicedSimulator`] when the configured delay
    /// annotation is slot-representable, else fall back to
    /// [`logicsim::EventDrivenSimulator`]. Default.
    #[default]
    Auto,
    /// Force the scalar event-driven timing wheel, one cycle per sampling
    /// lane.
    EventDriven,
    /// Force the 64-lane time-sliced backend; a lane group fails with
    /// [`DipeError::InvalidConfig`] when the annotation is not
    /// slot-representable.
    TimeSliced,
}

impl MeasureMode {
    /// Short stable identifier: `"auto"`, `"event-driven"` or
    /// `"time-sliced"`.
    pub fn id(self) -> &'static str {
        match self {
            MeasureMode::Auto => "auto",
            MeasureMode::EventDriven => "event-driven",
            MeasureMode::TimeSliced => "time-sliced",
        }
    }

    /// Parses an [`id`](Self::id) string.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(MeasureMode::Auto),
            "event-driven" => Some(MeasureMode::EventDriven),
            "time-sliced" => Some(MeasureMode::TimeSliced),
            _ => None,
        }
    }
}

impl std::fmt::Display for MeasureMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// Complete configuration of a DIPE run.
///
/// The default values reproduce the paper's experimental setup: significance
/// level 0.20 for the runs test, a 320-sample power sequence for the test,
/// 5 % maximum error at 0.99 confidence, independent inputs (the input model
/// itself is supplied separately), 5 V / 20 MHz operating point.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DipeConfig {
    /// Significance level α of the randomness test (paper: 0.20).
    pub significance_level: f64,
    /// Maximum relative error ε of the mean estimate (paper: 0.05).
    pub relative_error: f64,
    /// Confidence level of the accuracy specification (paper: 0.99).
    pub confidence: f64,
    /// Length of the power sequence collected for each randomness test
    /// (paper: 320).
    pub sequence_length: usize,
    /// Largest trial independence interval before the selection procedure
    /// gives up.
    pub max_independence_interval: usize,
    /// Number of cycles simulated (zero-delay) before any sampling, to let
    /// the FSM forget its reset state.
    pub warmup_cycles: usize,
    /// Number of samples collected between consecutive evaluations of the
    /// stopping criterion.
    pub block_size: usize,
    /// Minimum number of samples before the stopping criterion may fire.
    pub min_samples: usize,
    /// Hard upper bound on the sample size (safety net).
    pub max_samples: usize,
    /// Which stopping criterion to use.
    pub criterion: CriterionKind,
    /// Which zero-delay backend runs the decorrelation cycles.
    #[serde(default)]
    pub eval_mode: EvalMode,
    /// Which delay-aware backend runs the measured (glitch-counting)
    /// cycles.
    #[serde(default)]
    pub measure_mode: MeasureMode,
    /// Gate delay model for the measurement (general-delay) simulator.
    pub delay_model: DelayModel,
    /// Electrical operating point.
    pub technology: Technology,
    /// Load-capacitance model.
    pub capacitance: CapacitanceModel,
    /// Seed of all random number generation in the run. Identical seeds give
    /// identical results.
    pub seed: u64,
}

impl Default for DipeConfig {
    fn default() -> Self {
        DipeConfig {
            significance_level: 0.20,
            relative_error: 0.05,
            confidence: 0.99,
            sequence_length: 320,
            max_independence_interval: 64,
            warmup_cycles: 256,
            block_size: 32,
            min_samples: 64,
            max_samples: 200_000,
            criterion: CriterionKind::Normal,
            eval_mode: EvalMode::default(),
            measure_mode: MeasureMode::default(),
            delay_model: DelayModel::default(),
            technology: Technology::default(),
            capacitance: CapacitanceModel::default(),
            seed: 0,
        }
    }
}

impl DipeConfig {
    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the accuracy specification (builder style).
    pub fn with_accuracy(mut self, relative_error: f64, confidence: f64) -> Self {
        self.relative_error = relative_error;
        self.confidence = confidence;
        self
    }

    /// Sets the randomness-test significance level (builder style).
    pub fn with_significance_level(mut self, alpha: f64) -> Self {
        self.significance_level = alpha;
        self
    }

    /// Sets the stopping criterion (builder style).
    pub fn with_criterion(mut self, criterion: CriterionKind) -> Self {
        self.criterion = criterion;
        self
    }

    /// Sets the randomness-test sequence length (builder style).
    pub fn with_sequence_length(mut self, length: usize) -> Self {
        self.sequence_length = length;
        self
    }

    /// Sets the initial warm-up length in clock cycles (builder style).
    pub fn with_warmup_cycles(mut self, warmup_cycles: usize) -> Self {
        self.warmup_cycles = warmup_cycles;
        self
    }

    /// Sets the sample budget (builder style): the minimum sample size before
    /// the stopping criterion may fire and the hard maximum after which the
    /// run fails with [`DipeError::SampleBudgetExhausted`].
    pub fn with_sample_budget(mut self, min_samples: usize, max_samples: usize) -> Self {
        self.min_samples = min_samples;
        self.max_samples = max_samples;
        self
    }

    /// Sets the zero-delay backend for the decorrelation cycles (builder
    /// style).
    pub fn with_eval_mode(mut self, eval_mode: EvalMode) -> Self {
        self.eval_mode = eval_mode;
        self
    }

    /// Sets the delay-aware backend for the measured cycles (builder
    /// style).
    pub fn with_measure_mode(mut self, measure_mode: MeasureMode) -> Self {
        self.measure_mode = measure_mode;
        self
    }

    /// Sets the delay model of the measurement simulator (builder style).
    pub fn with_delay_model(mut self, delay_model: DelayModel) -> Self {
        self.delay_model = delay_model;
        self
    }

    /// Sets the operating point (builder style).
    pub fn with_technology(mut self, technology: Technology) -> Self {
        self.technology = technology;
        self
    }

    /// Checks the configuration for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`DipeError::InvalidConfig`] describing the first problem found.
    pub fn validate(&self) -> Result<(), DipeError> {
        let fail = |message: String| Err(DipeError::InvalidConfig { message });
        if !(self.significance_level > 0.0 && self.significance_level < 1.0) {
            return fail(format!(
                "significance level must be in (0, 1), got {}",
                self.significance_level
            ));
        }
        if !(self.relative_error > 0.0 && self.relative_error < 1.0) {
            return fail(format!(
                "relative error must be in (0, 1), got {}",
                self.relative_error
            ));
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return fail(format!(
                "confidence must be in (0, 1), got {}",
                self.confidence
            ));
        }
        if self.sequence_length < 16 {
            return fail(format!(
                "randomness-test sequence length must be at least 16, got {}",
                self.sequence_length
            ));
        }
        if self.max_independence_interval == 0 {
            return fail(
                "the maximum independence interval must be at least 1 — with a maximum of 0 \
                 the selection procedure could only ever test consecutive sampling"
                    .into(),
            );
        }
        if self.warmup_cycles == 0 {
            return fail(
                "at least one warm-up cycle is required so the FSM leaves its reset state".into(),
            );
        }
        if self.block_size == 0 {
            return fail("block size must be positive".into());
        }
        if self.min_samples < 2 {
            return fail("at least two samples are required".into());
        }
        if self.max_samples < self.min_samples {
            return fail(format!(
                "maximum sample size {} is below the minimum {}",
                self.max_samples, self.min_samples
            ));
        }
        if self.sequence_length > self.max_samples {
            return fail(format!(
                "randomness-test sequence length {} exceeds the sample budget {} — every \
                 interval trial would cost more samples than the whole estimation may use",
                self.sequence_length, self.max_samples
            ));
        }
        Ok(())
    }

    /// Instantiates the configured stopping criterion.
    pub fn build_criterion(&self) -> Box<dyn StoppingCriterion> {
        match self.criterion {
            CriterionKind::Normal => Box::new(NormalCriterion::new(
                self.relative_error,
                self.confidence,
                self.min_samples,
            )),
            CriterionKind::OrderStatistic => Box::new(OrderStatisticCriterion::new(
                self.relative_error,
                self.confidence,
                self.min_samples,
            )),
            CriterionKind::Dkw => Box::new(DkwCriterion::new(
                self.relative_error,
                self.confidence,
                self.min_samples,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = DipeConfig::default();
        assert_eq!(c.significance_level, 0.20);
        assert_eq!(c.relative_error, 0.05);
        assert_eq!(c.confidence, 0.99);
        assert_eq!(c.sequence_length, 320);
        assert_eq!(c.criterion, CriterionKind::Normal);
        assert_eq!(c.eval_mode, EvalMode::Compiled);
        assert_eq!(c.measure_mode, MeasureMode::Auto);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_chain() {
        let c = DipeConfig::default()
            .with_seed(7)
            .with_accuracy(0.02, 0.95)
            .with_significance_level(0.1)
            .with_criterion(CriterionKind::Dkw)
            .with_sequence_length(128)
            .with_warmup_cycles(512)
            .with_sample_budget(128, 50_000)
            .with_eval_mode(EvalMode::Partitioned)
            .with_measure_mode(MeasureMode::TimeSliced)
            .with_delay_model(logicsim::DelayModel::Unit(100))
            .with_technology(Technology::new(3.3, 50.0e6));
        assert_eq!(c.seed, 7);
        assert_eq!(c.relative_error, 0.02);
        assert_eq!(c.confidence, 0.95);
        assert_eq!(c.significance_level, 0.1);
        assert_eq!(c.criterion, CriterionKind::Dkw);
        assert_eq!(c.sequence_length, 128);
        assert_eq!(c.warmup_cycles, 512);
        assert_eq!(c.min_samples, 128);
        assert_eq!(c.max_samples, 50_000);
        assert_eq!(c.eval_mode, EvalMode::Partitioned);
        assert_eq!(c.measure_mode, MeasureMode::TimeSliced);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn measure_mode_ids_round_trip() {
        for mode in [
            MeasureMode::Auto,
            MeasureMode::EventDriven,
            MeasureMode::TimeSliced,
        ] {
            assert_eq!(MeasureMode::parse(mode.id()), Some(mode));
            assert_eq!(format!("{mode}"), mode.id());
        }
        assert_eq!(MeasureMode::parse("wheel"), None);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = |f: fn(&mut DipeConfig)| {
            let mut c = DipeConfig::default();
            f(&mut c);
            c.validate()
        };
        assert!(bad(|c| c.significance_level = 0.0).is_err());
        assert!(bad(|c| c.relative_error = 1.5).is_err());
        assert!(bad(|c| c.confidence = 0.0).is_err());
        assert!(bad(|c| c.sequence_length = 4).is_err());
        assert!(bad(|c| c.max_independence_interval = 0).is_err());
        assert!(bad(|c| c.warmup_cycles = 0).is_err());
        assert!(bad(|c| c.block_size = 0).is_err());
        assert!(bad(|c| c.min_samples = 1).is_err());
        assert!(bad(|c| {
            c.min_samples = 100;
            c.max_samples = 50;
        })
        .is_err());
        // The 320-sample randomness-test sequence must fit into the overall
        // sample budget.
        assert!(bad(|c| c.max_samples = 300).is_err());
    }

    #[test]
    fn criterion_factory_respects_kind() {
        for (kind, name_fragment) in [
            (CriterionKind::Normal, "CLT"),
            (CriterionKind::OrderStatistic, "order"),
            (CriterionKind::Dkw, "Dvoretzky"),
        ] {
            let c = DipeConfig::default().with_criterion(kind);
            let criterion = c.build_criterion();
            assert!(
                criterion.name().contains(name_fragment),
                "{kind:?} -> {}",
                criterion.name()
            );
            assert_eq!(criterion.relative_error(), 0.05);
            assert_eq!(criterion.confidence(), 0.99);
        }
    }
}
