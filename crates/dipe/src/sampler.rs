//! Two-phase power sampling (Section IV of the paper).
//!
//! During the independence interval the circuit only needs to be *advanced*:
//! a zero-delay simulation of the next-state logic is enough and no power is
//! recorded. At a sampling cycle the captured state and input pattern are
//! handed to the general-delay simulator — the event-driven timing wheel,
//! [`EventDrivenSimulator`] — and the dissipated power of that one cycle is
//! computed from the observed transitions via Eq. (1). A scalar sample is
//! one replication, so it always measures on the wheel: scalar, sharded and
//! remote runs ignore [`MeasureMode`](crate::MeasureMode), which selects the
//! backend of lane groups only (`crate::lanes`), where the 64 lanes of the
//! time-sliced backend carry distinct samples. The [`PowerSampler`]
//! encapsulates this machinery and keeps the cycle accounting that the
//! efficiency comparisons need.

use logicsim::{CompiledSimulator, EventDrivenSimulator, GlitchActivity, PartitionedSimulator};
use netlist::Circuit;
use power::PowerCalculator;

use crate::config::{DipeConfig, EvalMode};
use crate::error::DipeError;
use crate::input::{InputModel, InputStream};

/// Cycle bookkeeping of a sampling session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CycleCounts {
    /// Cycles simulated with the cheap zero-delay simulator (warm-up and
    /// decorrelation cycles).
    pub zero_delay_cycles: u64,
    /// Cycles simulated with the general-delay simulator (power measurements).
    pub measured_cycles: u64,
}

impl CycleCounts {
    /// Total simulated cycles of both kinds.
    pub fn total(&self) -> u64 {
        self.zero_delay_cycles + self.measured_cycles
    }
}

/// The zero-delay backend the decorrelation cycles run on, selected by
/// [`EvalMode`]. Both variants execute the same compiled instruction stream
/// and are bit-identical; [`PartitionedSimulator`] walks it in cache-resident
/// level tiles, which pays off from ~10^5 gates up.
#[derive(Debug)]
enum ZeroSim<'c> {
    Compiled(CompiledSimulator<'c>),
    Partitioned(PartitionedSimulator<'c>),
}

impl<'c> ZeroSim<'c> {
    fn new(circuit: &'c Circuit, mode: EvalMode) -> ZeroSim<'c> {
        match mode {
            EvalMode::Compiled => ZeroSim::Compiled(CompiledSimulator::new(circuit)),
            EvalMode::Partitioned => ZeroSim::Partitioned(PartitionedSimulator::new(circuit)),
        }
    }

    fn with_program(
        circuit: &'c Circuit,
        program: netlist::CompiledCircuit,
        mode: EvalMode,
    ) -> ZeroSim<'c> {
        match mode {
            EvalMode::Compiled => {
                ZeroSim::Compiled(CompiledSimulator::with_program(circuit, program))
            }
            EvalMode::Partitioned => {
                ZeroSim::Partitioned(PartitionedSimulator::with_program(circuit, program))
            }
        }
    }

    #[inline]
    fn step_state_only(&mut self, inputs: &[bool]) {
        match self {
            ZeroSim::Compiled(sim) => sim.step_state_only(inputs),
            ZeroSim::Partitioned(sim) => sim.step_state_only(inputs),
        }
    }

    #[inline]
    fn values(&self) -> &[bool] {
        match self {
            ZeroSim::Compiled(sim) => sim.values(),
            ZeroSim::Partitioned(sim) => sim.values(),
        }
    }

    fn latch_state(&self) -> Vec<bool> {
        match self {
            ZeroSim::Compiled(sim) => sim.latch_state(),
            ZeroSim::Partitioned(sim) => sim.latch_state(),
        }
    }

    fn input_pattern(&self) -> Vec<bool> {
        match self {
            ZeroSim::Compiled(sim) => sim.input_pattern(),
            ZeroSim::Partitioned(sim) => sim.input_pattern(),
        }
    }

    fn reset_to(&mut self, latch_state: &[bool], input_pattern: &[bool]) {
        match self {
            ZeroSim::Compiled(sim) => sim.reset_to(latch_state, input_pattern),
            ZeroSim::Partitioned(sim) => sim.reset_to(latch_state, input_pattern),
        }
    }
}

/// Generates per-cycle power observations from a circuit under an input
/// model, using the two-phase zero-delay / general-delay scheme.
///
/// The zero-delay phase runs on a compiled backend selected by
/// [`EvalMode`] — the straight-line [`CompiledSimulator`] by default, the
/// cache-blocked [`PartitionedSimulator`] for megagate circuits; both are
/// bit-exact with the interpreted [`logicsim::ZeroDelaySimulator`] — and
/// draws input patterns into reused buffers, so decorrelation cycles — the
/// dominant cost of the whole estimator (Section IV) — perform no per-cycle
/// allocation and no per-gate dispatch.
#[derive(Debug)]
pub struct PowerSampler<'c> {
    circuit: &'c Circuit,
    zero: ZeroSim<'c>,
    full: EventDrivenSimulator<'c>,
    calculator: PowerCalculator,
    stream: InputStream,
    counts: CycleCounts,
    /// Reused input-pattern buffer (one slot per primary input).
    pattern: Vec<bool>,
    /// Reused previous-stable-values buffer for measured cycles.
    prev: Vec<bool>,
}

impl<'c> PowerSampler<'c> {
    /// Creates a sampler for `circuit` with the given configuration and input
    /// model. The RNG is seeded from `config.seed` xored with `seed_offset`,
    /// so repeated runs (Table 2) can use statistically independent streams
    /// while staying reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`DipeError::InvalidConfig`] or
    /// [`DipeError::InputModelMismatch`] if the configuration or input model
    /// is unusable for this circuit.
    pub fn new(
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
        seed_offset: u64,
    ) -> Result<Self, DipeError> {
        config.validate()?;
        let stream = input_model.stream(circuit, config.seed.wrapping_add(seed_offset))?;
        let calculator = PowerCalculator::new(circuit, config.technology, &config.capacitance);
        let delays = config.delay_model.annotate(circuit);
        Ok(PowerSampler {
            circuit,
            zero: ZeroSim::new(circuit, config.eval_mode),
            full: EventDrivenSimulator::with_delays(circuit, config.delay_model, &delays),
            calculator,
            stream,
            counts: CycleCounts::default(),
            pattern: vec![false; circuit.num_primary_inputs()],
            prev: vec![false; circuit.num_nets()],
        })
    }

    /// Like [`new`](Self::new), but reuses a previously compiled zero-delay
    /// program and delay annotation instead of recompiling them — the
    /// constructor behind the `dipe-serve` compiled-circuit cache. Both
    /// compilation and annotation are deterministic, so a sampler built this
    /// way is indistinguishable from one built with [`new`](Self::new) for
    /// the same circuit and configuration.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new).
    ///
    /// # Panics
    ///
    /// Panics if `program` or `delays` was not built for `circuit` (the
    /// underlying simulators check the sizes).
    pub fn with_compiled(
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
        seed_offset: u64,
        program: netlist::CompiledCircuit,
        delays: &netlist::GateDelays,
    ) -> Result<Self, DipeError> {
        config.validate()?;
        let stream = input_model.stream(circuit, config.seed.wrapping_add(seed_offset))?;
        let calculator = PowerCalculator::new(circuit, config.technology, &config.capacitance);
        Ok(PowerSampler {
            circuit,
            zero: ZeroSim::with_program(circuit, program, config.eval_mode),
            full: EventDrivenSimulator::with_delays(circuit, config.delay_model, delays),
            calculator,
            stream,
            counts: CycleCounts::default(),
            pattern: vec![false; circuit.num_primary_inputs()],
            prev: vec![false; circuit.num_nets()],
        })
    }

    /// The circuit being sampled.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The power calculator in use (technology and capacitance bound).
    pub fn calculator(&self) -> &PowerCalculator {
        &self.calculator
    }

    /// Cycle bookkeeping so far.
    pub fn cycle_counts(&self) -> CycleCounts {
        self.counts
    }

    /// The simulator profiling counters accumulated by this sampler's
    /// backends so far — the event-driven wheel's counters plus the
    /// partitioned zero-delay backend's settle-pass count, flattened into
    /// one [`SimProfile`](crate::estimate::SimProfile) record. Its
    /// `time_sliced_*` fields are 0: only lane groups measure time-sliced.
    pub fn sim_profile(&self) -> crate::estimate::SimProfile {
        let counters = self.full.counters();
        crate::estimate::SimProfile {
            events_scheduled: counters.events_scheduled,
            events_cancelled: counters.events_cancelled,
            wheel_revolutions: counters.wheel_revolutions,
            inline_evals: counters.inline_evals,
            gather_evals: counters.gather_evals,
            levelized_cycles: counters.levelized_cycles,
            wheel_cycles: counters.wheel_cycles,
            tiles_settled: match &self.zero {
                ZeroSim::Compiled(_) => 0,
                ZeroSim::Partitioned(sim) => sim.tiles_settled(),
            },
            ..Default::default()
        }
    }

    /// Advances the circuit by `cycles` clock cycles with zero-delay
    /// simulation only (no power recorded). Used for the initial warm-up and
    /// for the decorrelation cycles of the independence interval.
    pub fn advance(&mut self, cycles: usize) {
        for _ in 0..cycles {
            self.stream.next_pattern_into(&mut self.pattern);
            self.zero.step_state_only(&self.pattern);
        }
        self.counts.zero_delay_cycles += cycles as u64;
    }

    /// The delay model of the measurement simulator in use.
    pub fn delay_model(&self) -> logicsim::DelayModel {
        self.full.delay_model()
    }

    /// Simulates one clock cycle with the general-delay simulator and returns
    /// the power dissipated in that cycle, in watts. The circuit state
    /// advances exactly one cycle.
    pub fn measure_cycle_power_w(&mut self) -> f64 {
        self.measure_cycle(|_| {})
    }

    /// Like [`measure_cycle_power_w`](Self::measure_cycle_power_w), but hands
    /// the measured cycle's glitch-decomposed per-net transition record to
    /// `observe` before it is recycled — the hook node-resolved (per-net)
    /// accumulators attach to, without the sampler knowing about them.
    pub fn measure_cycle_power_w_observing<F>(&mut self, observe: F) -> f64
    where
        F: FnOnce(&GlitchActivity),
    {
        self.measure_cycle(observe)
    }

    fn measure_cycle<F>(&mut self, observe: F) -> f64
    where
        F: FnOnce(&GlitchActivity),
    {
        self.stream.next_pattern_into(&mut self.pattern);
        self.prev.copy_from_slice(self.zero.values());
        let activity = self.full.simulate_cycle(&self.prev, &self.pattern);
        observe(activity);
        // Eq. (1) charges every transition, glitches included.
        let power_w = self.calculator.cycle_power_w(activity.total());
        // Keep the cheap simulator's state in sync (same stable values).
        self.zero.step_state_only(&self.pattern);
        debug_assert_eq!(self.full.stable_values(), self.zero.values());
        self.counts.measured_cycles += 1;
        power_w
    }

    /// Draws one power sample at the given independence interval: advances
    /// `interval` decorrelation cycles, then measures one cycle.
    pub fn sample_power_w(&mut self, interval: usize) -> f64 {
        self.advance(interval);
        self.measure_cycle_power_w()
    }

    /// Like [`sample_power_w`](Self::sample_power_w), exposing the measured
    /// cycle's glitch-decomposed per-net transition record to `observe`.
    pub fn sample_power_w_observing<F>(&mut self, interval: usize, observe: F) -> f64
    where
        F: FnOnce(&GlitchActivity),
    {
        self.advance(interval);
        self.measure_cycle(observe)
    }

    /// Collects an ordered power sequence of `length` observations in which
    /// consecutive observations are separated by `interval` decorrelation
    /// cycles. This is the sequence fed to the randomness test (Fig. 2).
    pub fn collect_sequence(&mut self, length: usize, interval: usize) -> Vec<f64> {
        (0..length).map(|_| self.sample_power_w(interval)).collect()
    }

    /// Measures `cycles` *consecutive* clock cycles and returns their power
    /// values — the brute-force reference simulation of the `SIM` column.
    pub fn measure_consecutive_cycles_w(&mut self, cycles: usize) -> Vec<f64> {
        (0..cycles).map(|_| self.measure_cycle_power_w()).collect()
    }

    /// Captures the sampler's exact state: input-stream position, latch
    /// state, last applied input pattern and cycle accounting.
    ///
    /// The zero-delay simulator's settled values are a deterministic function
    /// of the latch state and input pattern, and the event-driven measurement
    /// simulator carries no state across cycles, so these four pieces are
    /// sufficient: a sampler [restored](Self::restore) from this snapshot
    /// produces the identical observation sequence bit-for-bit.
    pub fn snapshot(&self) -> crate::checkpoint::SamplerState {
        crate::checkpoint::SamplerState {
            input_stream: self.stream.state(),
            latch_state: self.zero.latch_state(),
            input_pattern: self.zero.input_pattern(),
            cycle_counts: self.counts,
        }
    }

    /// Repositions this sampler at a previously
    /// [captured](Self::snapshot) state. The sampler must have been created
    /// for the same circuit, configuration and input model as the captured
    /// one; the RNG seed it was created with is overwritten by the restored
    /// stream position.
    ///
    /// # Errors
    ///
    /// Returns [`DipeError::InvalidCheckpoint`] if the state's vectors do not
    /// match this circuit.
    pub fn restore(&mut self, state: &crate::checkpoint::SamplerState) -> Result<(), DipeError> {
        if state.latch_state.len() != self.circuit.num_flip_flops() {
            return Err(DipeError::InvalidCheckpoint {
                message: format!(
                    "sampler state has {} latch values for {} flip-flops",
                    state.latch_state.len(),
                    self.circuit.num_flip_flops()
                ),
            });
        }
        if state.input_pattern.len() != self.circuit.num_primary_inputs() {
            return Err(DipeError::InvalidCheckpoint {
                message: format!(
                    "sampler state has {} input values for {} primary inputs",
                    state.input_pattern.len(),
                    self.circuit.num_primary_inputs()
                ),
            });
        }
        self.stream.restore(&state.input_stream)?;
        self.zero.reset_to(&state.latch_state, &state.input_pattern);
        self.counts = state.cycle_counts;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MeasureMode;
    use netlist::iscas89;

    fn sampler_for(name: &str, seed: u64) -> (netlist::Circuit, DipeConfig) {
        let c = iscas89::load(name).unwrap();
        let config = DipeConfig::default().with_seed(seed);
        (c, config)
    }

    #[test]
    fn cycle_accounting_is_exact() {
        let (c, config) = sampler_for("s27", 1);
        let mut s = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        s.advance(10);
        assert_eq!(s.cycle_counts().zero_delay_cycles, 10);
        assert_eq!(s.cycle_counts().measured_cycles, 0);
        let _ = s.measure_cycle_power_w();
        let _ = s.sample_power_w(3);
        assert_eq!(s.cycle_counts().zero_delay_cycles, 13);
        assert_eq!(s.cycle_counts().measured_cycles, 2);
        assert_eq!(s.cycle_counts().total(), 15);
    }

    #[test]
    fn power_samples_are_positive_and_finite() {
        let (c, config) = sampler_for("s298", 2);
        let mut s = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        s.advance(64);
        let seq = s.collect_sequence(100, 2);
        assert_eq!(seq.len(), 100);
        assert!(seq.iter().all(|p| p.is_finite() && *p >= 0.0));
        // At probability 0.5 inputs, a mid-size circuit dissipates measurable
        // power in almost every cycle.
        let mean = seqstats::descriptive::mean(&seq);
        assert!(mean > 0.0, "mean power {mean}");
    }

    #[test]
    fn sampling_is_deterministic_for_equal_seeds() {
        let (c, config) = sampler_for("s27", 7);
        let mut a = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        let mut b = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        assert_eq!(a.collect_sequence(50, 1), b.collect_sequence(50, 1));
    }

    #[test]
    fn partitioned_mode_is_bit_identical_to_compiled() {
        for name in ["s27", "s298", "s641"] {
            let c = iscas89::load(name).unwrap();
            let compiled_cfg = DipeConfig::default().with_seed(11);
            let partitioned_cfg = compiled_cfg.clone().with_eval_mode(EvalMode::Partitioned);
            let mut a = PowerSampler::new(&c, &compiled_cfg, &InputModel::uniform(), 0).unwrap();
            let mut b = PowerSampler::new(&c, &partitioned_cfg, &InputModel::uniform(), 0).unwrap();
            a.advance(32);
            b.advance(32);
            assert_eq!(
                a.collect_sequence(40, 2),
                b.collect_sequence(40, 2),
                "{name}: partitioned decorrelation diverged from compiled"
            );
            assert_eq!(a.cycle_counts(), b.cycle_counts());
        }
    }

    #[test]
    fn partitioned_mode_snapshots_restore_across_modes() {
        let (c, config) = sampler_for("s298", 5);
        let partitioned = config.clone().with_eval_mode(EvalMode::Partitioned);
        let mut a = PowerSampler::new(&c, &partitioned, &InputModel::uniform(), 0).unwrap();
        a.advance(48);
        let snap = a.snapshot();
        let expected = a.collect_sequence(20, 1);
        // A compiled-mode sampler restored from a partitioned-mode snapshot
        // continues the identical observation sequence.
        let mut b = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        b.restore(&snap).unwrap();
        assert_eq!(b.collect_sequence(20, 1), expected);
    }

    #[test]
    fn seed_offset_changes_the_stream() {
        let (c, config) = sampler_for("s27", 7);
        let mut a = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        let mut b = PowerSampler::new(&c, &config, &InputModel::uniform(), 1).unwrap();
        assert_ne!(a.collect_sequence(50, 1), b.collect_sequence(50, 1));
    }

    #[test]
    fn consecutive_cycles_show_temporal_structure() {
        // Not a strict statistical assertion — just verifies the plumbing:
        // the consecutive-cycle sequence has the same length as requested and
        // a strictly positive variance (the circuit is actually switching).
        let (c, config) = sampler_for("s298", 3);
        let mut s = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        s.advance(64);
        let seq = s.measure_consecutive_cycles_w(200);
        assert_eq!(seq.len(), 200);
        assert!(seqstats::descriptive::variance(&seq) > 0.0);
    }

    #[test]
    fn observing_variant_matches_plain_measurement() {
        let (c, config) = sampler_for("s298", 9);
        let mut plain = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        let mut observed = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        let calc = observed.calculator().clone();
        for interval in [0usize, 1, 3] {
            let expected = plain.sample_power_w(interval);
            let mut from_activity = None;
            let got = observed.sample_power_w_observing(interval, |activity| {
                from_activity = Some(calc.cycle_power_w(activity.total()));
            });
            assert_eq!(expected, got);
            // The observed record is exactly the one the power came from.
            assert_eq!(from_activity, Some(got));
        }
        assert_eq!(plain.cycle_counts(), observed.cycle_counts());
    }

    #[test]
    fn scalar_samples_measure_on_the_event_driven_wheel() {
        // Unit delay is slot-representable, yet a scalar sample is one
        // replication: it measures on the wheel under the default mode, and
        // a forced time-sliced mode (the lane groups' backend) is ignored.
        let (c, config) = sampler_for("s27", 1);
        let unit = config.with_delay_model(logicsim::DelayModel::Unit(100));
        for mode in [MeasureMode::default(), MeasureMode::TimeSliced] {
            let config = unit.clone().with_measure_mode(mode);
            let mut s = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
            s.advance(16);
            let _ = s.collect_sequence(20, 1);
            let profile = s.sim_profile();
            assert_eq!(profile.time_sliced_cycles, 0, "{mode}");
            assert_eq!(
                profile.levelized_cycles + profile.wheel_cycles,
                20,
                "{mode}"
            );
        }
    }

    #[test]
    fn invalid_input_model_is_rejected() {
        let (c, config) = sampler_for("s27", 1);
        let model = InputModel::PerInput {
            probabilities: vec![0.5; 2],
        };
        assert!(matches!(
            PowerSampler::new(&c, &config, &model, 0),
            Err(DipeError::InputModelMismatch { .. })
        ));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (c, mut config) = sampler_for("s27", 1);
        config.relative_error = 0.0;
        assert!(matches!(
            PowerSampler::new(&c, &config, &InputModel::uniform(), 0),
            Err(DipeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn accessors_work() {
        let (c, config) = sampler_for("s27", 1);
        let s = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        assert_eq!(s.circuit().name(), "s27");
        assert!(s.calculator().loads().total_farads() > 0.0);
    }
}
