//! The re-entrant session behind the decoupled-combinational baseline the
//! paper discusses (the fixed conservative warm-up baseline runs on the
//! estimation core, [`crate::session`]).

use std::time::Instant;

use logicsim::{CompiledSimulator, EventDrivenSimulator};
use netlist::Circuit;
use power::PowerCalculator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::DipeConfig;
use crate::error::DipeError;
use crate::estimate::{
    CycleBudget, Diagnostics, Estimate, EstimationSession, Progress, SessionPhase,
};
use crate::input::InputStream;
use crate::sampler::CycleCounts;

/// Maps a raw event-driven simulator's counters into a [`SimProfile`] for
/// the sessions that drive [`EventDrivenSimulator`] directly instead of
/// through a [`PowerSampler`] (their zero-delay backend is always the
/// compiled one, so `tiles_settled` is 0).
fn decoupled_sim_profile(full: &EventDrivenSimulator<'_>) -> crate::estimate::SimProfile {
    let counters = full.counters();
    crate::estimate::SimProfile {
        events_scheduled: counters.events_scheduled,
        events_cancelled: counters.events_cancelled,
        wheel_revolutions: counters.wheel_revolutions,
        inline_evals: counters.inline_evals,
        gather_evals: counters.gather_evals,
        levelized_cycles: counters.levelized_cycles,
        wheel_cycles: counters.wheel_cycles,
        tiles_settled: 0,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// Decoupled combinational
// ---------------------------------------------------------------------------

// Terminal variants carry the full Estimate by value: sessions are few
// and short-lived, so the variant-size skew costs nothing.
#[allow(clippy::large_enum_variant)]
enum DecoupledState {
    Characterize {
        remaining: usize,
        ones: Vec<u64>,
    },
    MonteCarlo {
        latch_probabilities: Vec<f64>,
        drawn: usize,
        sum: f64,
    },
    Done(Estimate),
}

/// Session for the decoupled estimator: a long zero-delay characterisation
/// of per-latch signal probabilities, then Monte-Carlo sampling with
/// *independently* drawn latch bits (discarding latch correlations — the
/// accuracy problem that motivates the paper).
pub(crate) struct DecoupledSession<'c> {
    name: String,
    characterization_cycles: usize,
    samples: usize,
    zero: CompiledSimulator<'c>,
    full: EventDrivenSimulator<'c>,
    calculator: PowerCalculator,
    stream: InputStream,
    rng: StdRng,
    counts: CycleCounts,
    state: DecoupledState,
    elapsed_seconds: f64,
    /// Reused input-pattern buffer (one slot per primary input).
    pattern: Vec<bool>,
    /// Second pattern buffer for the Monte-Carlo measurement cycle.
    next_pattern: Vec<bool>,
    /// Reused previous-stable-values buffer for measured cycles.
    prev: Vec<bool>,
}

impl<'c> DecoupledSession<'c> {
    pub(crate) fn new(
        name: String,
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &crate::input::InputModel,
        seed_offset: u64,
        characterization_cycles: usize,
        samples: usize,
    ) -> Result<DecoupledSession<'c>, DipeError> {
        config.validate()?;
        let base_seed = config.seed.wrapping_add(seed_offset);
        let stream = input_model.stream(circuit, base_seed ^ 0xDECA_F000)?;
        Ok(DecoupledSession {
            name,
            characterization_cycles,
            samples,
            zero: CompiledSimulator::new(circuit),
            full: EventDrivenSimulator::new(circuit, config.delay_model),
            calculator: PowerCalculator::new(circuit, config.technology, &config.capacitance),
            stream,
            rng: StdRng::seed_from_u64(base_seed ^ 0xDECA_F001),
            counts: CycleCounts::default(),
            state: DecoupledState::Characterize {
                remaining: characterization_cycles,
                ones: vec![0u64; circuit.num_flip_flops()],
            },
            elapsed_seconds: 0.0,
            pattern: vec![false; circuit.num_primary_inputs()],
            next_pattern: vec![false; circuit.num_primary_inputs()],
            prev: vec![false; circuit.num_nets()],
        })
    }
}

impl EstimationSession for DecoupledSession<'_> {
    fn estimator(&self) -> &str {
        &self.name
    }

    fn cycles_done(&self) -> u64 {
        self.counts.total()
    }

    fn step(&mut self, budget: CycleBudget) -> Result<Progress, DipeError> {
        if let DecoupledState::Done(estimate) = &self.state {
            return Ok(Progress::Done(estimate.clone()));
        }
        let step_start = Instant::now();
        let deadline = self.counts.total().saturating_add(budget.get());

        loop {
            match &mut self.state {
                DecoupledState::Characterize { remaining, ones } => {
                    if *remaining > 0 && self.counts.total() >= deadline {
                        break;
                    }
                    if *remaining > 0 {
                        self.stream.next_pattern_into(&mut self.pattern);
                        self.zero.step_state_only(&self.pattern);
                        for (count, &q) in ones.iter_mut().zip(self.zero.latch_state().iter()) {
                            if q {
                                *count += 1;
                            }
                        }
                        self.counts.zero_delay_cycles += 1;
                        *remaining -= 1;
                    }
                    if *remaining == 0 {
                        let denominator = self.characterization_cycles.max(1) as f64;
                        self.state = DecoupledState::MonteCarlo {
                            latch_probabilities: ones
                                .iter()
                                .map(|&c| c as f64 / denominator)
                                .collect(),
                            drawn: 0,
                            sum: 0.0,
                        };
                    }
                }
                DecoupledState::MonteCarlo {
                    latch_probabilities,
                    drawn,
                    sum,
                } => {
                    if *drawn < self.samples && self.counts.total() >= deadline {
                        break;
                    }
                    if *drawn < self.samples {
                        let state: Vec<bool> = latch_probabilities
                            .iter()
                            .map(|&p| self.rng.gen_bool(p.clamp(0.0, 1.0)))
                            .collect();
                        self.stream.next_pattern_into(&mut self.pattern);
                        self.stream.next_pattern_into(&mut self.next_pattern);
                        self.zero.reset_to(&state, &self.pattern);
                        self.prev.copy_from_slice(self.zero.values());
                        let activity = self.full.simulate_cycle(&self.prev, &self.next_pattern);
                        *sum += self.calculator.cycle_power_w(activity.total());
                        self.counts.measured_cycles += 1;
                        *drawn += 1;
                    }
                    if *drawn == self.samples {
                        let estimate = Estimate {
                            estimator: self.name.clone(),
                            mean_power_w: *sum / self.samples.max(1) as f64,
                            relative_half_width: None,
                            sample_size: self.samples,
                            cycle_counts: self.counts,
                            elapsed_seconds: self.elapsed_seconds
                                + step_start.elapsed().as_secs_f64(),
                            sim_profile: Some(decoupled_sim_profile(&self.full)),
                            diagnostics: Diagnostics::Decoupled {
                                latch_probabilities: std::mem::take(latch_probabilities),
                                characterization_cycles: self.characterization_cycles,
                            },
                        };
                        self.state = DecoupledState::Done(estimate.clone());
                        return Ok(Progress::Done(estimate));
                    }
                }
                DecoupledState::Done(_) => unreachable!("handled at entry"),
            }
        }

        self.elapsed_seconds += step_start.elapsed().as_secs_f64();
        let (samples, phase) = match &self.state {
            DecoupledState::MonteCarlo { drawn, .. } => (*drawn, SessionPhase::Sampling),
            _ => (0, SessionPhase::Characterization),
        };
        Ok(Progress::Running {
            cycles_done: self.counts.total(),
            samples,
            current_rhw: None,
            phase,
        })
    }
}
