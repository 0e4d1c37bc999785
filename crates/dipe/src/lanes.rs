//! Lane-parallel replicated estimation: up to 64 independent DIPE runs on
//! one shared bit-parallel simulation.
//!
//! Repeated-run experiments (Table 2 of the paper) execute the *same*
//! estimation many times with different seeds. The dominant cost of each run
//! is its zero-delay cycles — warm-up plus `l` decorrelation cycles per
//! power sample — and those cycles are pure next-state simulation, which the
//! [`BitParallelSimulator`] evaluates for 64 independent replications in a
//! single pass (one `u64` word per net, one bit per replication).
//!
//! [`run_replicated_dipe`] maps each run onto a lane: every shared clock
//! cycle draws one input pattern per live lane (deterministic per-lane
//! seeding, identical to the scalar [`crate::PowerSampler`]'s stream), packs the
//! patterns into words and steps all lanes at once. Lanes that reach a
//! sampling cycle measure that cycle with the general-delay backend and feed
//! the observation into their own per-lane DIPE state machine — warm-up,
//! runs-test interval selection ([`IntervalSelector::push_sample`]),
//! block-wise stopping. When the configured delay annotation is
//! slot-representable, the measurement itself is word-parallel too: one
//! [`TimeSlicedSimulator`] pass glitch-simulates **all** sampling lanes of
//! the cycle at once, and each lane projects its own per-net counts out of
//! the shared [`logicsim::WordGlitchActivity`]. Otherwise every sampling
//! lane falls back to a scalar [`EventDrivenSimulator`] cycle — bit-identical
//! counts, scalar speed — and the group's [`LaneGlitchSummary`] names the
//! backend and the [`SlotRejection`] behind the fallback. Lanes finish
//! independently; finished lanes stop consuming their input stream and
//! their word bits become don't-cares.
//!
//! Every statistical field of the per-lane [`Estimate`] is **bit-exact**
//! with the scalar session the [`crate::engine::Engine`] would have run for
//! the same seed offset (asserted by the equivalence tests below); only the
//! wall-clock `elapsed_seconds` differs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use logicsim::{
    pack_lane_bit, BitParallelSimulator, EventDrivenSimulator, GlitchActivity, SlotRejection,
    TimeSlicedSimulator, LANES,
};
use netlist::Circuit;
use power::PowerCalculator;
use telemetry::Tracer;

use crate::config::DipeConfig;
use crate::error::DipeError;
use crate::estimate::{Estimate, PowerEstimator};
use crate::independence::{IndependenceSelection, IntervalSelector};
use crate::input::{InputModel, InputStream};
use crate::sampler::CycleCounts;
use crate::session::{assemble, FinishedRun, NoFold, RoundVerdict, StoppingRule};

/// The per-lane DIPE flow position.
enum LanePhase {
    Warmup {
        remaining: usize,
    },
    Selecting {
        selector: IntervalSelector,
    },
    Sampling {
        selection: IndependenceSelection,
        sample: Vec<f64>,
    },
    Finished(Result<Estimate, DipeError>),
}

/// One replication: its input stream, stopping rule, cycle accounting and
/// flow position.
struct Lane {
    stream: InputStream,
    rule: StoppingRule,
    counts: CycleCounts,
    /// Zero-delay cycles still to simulate before this lane's next measured
    /// cycle (meaningless during warm-up).
    decorrelate: usize,
    phase: LanePhase,
}

impl Lane {
    fn is_finished(&self) -> bool {
        matches!(self.phase, LanePhase::Finished(_))
    }
}

/// The backend that measured a lane group's sampling cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneBackend {
    /// The 64-lane time-sliced word backend: one pass measures every
    /// sampling lane of a cycle.
    TimeSliced,
    /// The scalar event-driven wheel, one cycle per sampling lane.
    EventDriven,
}

impl std::fmt::Display for LaneBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LaneBackend::TimeSliced => "time-sliced (64-lane delay slots)",
            LaneBackend::EventDriven => "event-driven (scalar wheel per sampling lane)",
        })
    }
}

/// Aggregate glitch accounting over every measured cycle of a replicated
/// run, summed across lanes, and the backend that measured them. The counts
/// — and the derived glitch power — are bit-identical whichever backend
/// produced them.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LaneGlitchSummary {
    /// The backend that measured the group.
    pub backend: LaneBackend,
    /// Why the slot schedule rejected the delay annotation, when it did —
    /// the reason the group measured on the event-driven wheel.
    pub slot_rejection: Option<SlotRejection>,
    /// Measured (general-delay) cycles across all lanes.
    pub measured_cycles: u64,
    /// Net transitions observed in those cycles, glitches included.
    pub total_transitions: u64,
    /// Settled (functional) transitions in those cycles.
    pub settled_transitions: u64,
    /// Mean per-cycle glitch power in watts: the capacitance-weighted
    /// difference between total and settled activity, averaged over the
    /// measured cycles (0 when nothing was measured).
    pub mean_glitch_power_w: f64,
}

impl LaneGlitchSummary {
    /// Glitch (hazard) transitions: total minus settled.
    pub fn glitch_transitions(&self) -> u64 {
        self.total_transitions - self.settled_transitions
    }
}

/// The measurement backend of a lane group: word-parallel when the delay
/// annotation is slot-representable, scalar per sampling lane otherwise,
/// with the slot schedule's rejection.
enum GroupMeasure<'c> {
    EventDriven(Box<EventDrivenSimulator<'c>>, Option<SlotRejection>),
    TimeSliced(Box<TimeSlicedSimulator<'c>>),
}

impl<'c> GroupMeasure<'c> {
    fn new(circuit: &'c Circuit, config: &DipeConfig) -> Self {
        let delays = config.delay_model.annotate(circuit);
        match TimeSlicedSimulator::with_delays(circuit, config.delay_model, &delays) {
            Ok(sim) => GroupMeasure::TimeSliced(Box::new(sim)),
            Err(rejection) => GroupMeasure::EventDriven(
                Box::new(EventDrivenSimulator::with_delays(
                    circuit,
                    config.delay_model,
                    &delays,
                )),
                Some(rejection),
            ),
        }
    }

    /// A summary of no measured cycles that names this backend.
    fn empty_summary(&self) -> LaneGlitchSummary {
        let (backend, slot_rejection) = match self {
            GroupMeasure::TimeSliced(_) => (LaneBackend::TimeSliced, None),
            GroupMeasure::EventDriven(_, rejection) => (LaneBackend::EventDriven, *rejection),
        };
        LaneGlitchSummary {
            backend,
            slot_rejection,
            measured_cycles: 0,
            total_transitions: 0,
            settled_transitions: 0,
            mean_glitch_power_w: 0.0,
        }
    }
}

/// Runs up to [`LANES`] replications of the DIPE flow concurrently on one
/// shared bit-parallel simulation, one replication per `seed_offsets` entry.
/// Replication `r` is seeded exactly like a scalar
/// [`crate::DipeEstimator`] session started with `seed_offsets[r]`, and its
/// estimate is bit-exact with that session (except `elapsed_seconds`).
///
/// Replications fail independently: one lane exhausting its sample budget
/// (or finding no independence interval) does not poison the others.
///
/// # Errors
///
/// Returns an error only for conditions that would fail *every* replication
/// before simulation starts: an invalid configuration or an input model that
/// does not fit the circuit.
///
/// # Panics
///
/// Panics if `seed_offsets` is empty or longer than [`LANES`].
pub fn run_replicated_dipe(
    circuit: &Circuit,
    config: &DipeConfig,
    input_model: &InputModel,
    seed_offsets: &[u64],
) -> Result<Vec<Result<Estimate, DipeError>>, DipeError> {
    run_replicated_dipe_cancellable(
        circuit,
        config,
        input_model,
        seed_offsets,
        &AtomicBool::new(false),
    )
}

/// Like [`run_replicated_dipe`], additionally returning the aggregate
/// [`LaneGlitchSummary`] of every measured cycle (the CLI's glitch
/// columns).
///
/// # Errors
///
/// As for [`run_replicated_dipe`].
///
/// # Panics
///
/// Panics if `seed_offsets` is empty or longer than [`LANES`].
pub fn run_replicated_dipe_with_glitch(
    circuit: &Circuit,
    config: &DipeConfig,
    input_model: &InputModel,
    seed_offsets: &[u64],
) -> Result<(Vec<Result<Estimate, DipeError>>, LaneGlitchSummary), DipeError> {
    run_group(
        GroupMeasure::new(circuit, config),
        circuit,
        config,
        input_model,
        seed_offsets,
        &AtomicBool::new(false),
    )
}

/// Like [`run_replicated_dipe`], polling `cancel` once per shared clock
/// cycle: when the flag is set, every unfinished replication completes with
/// [`DipeError::Cancelled`] (finished replications keep their results), so
/// a large replicated batch can be stopped with bounded latency.
///
/// # Errors
///
/// As for [`run_replicated_dipe`].
///
/// # Panics
///
/// Panics if `seed_offsets` is empty or longer than [`LANES`].
pub fn run_replicated_dipe_cancellable(
    circuit: &Circuit,
    config: &DipeConfig,
    input_model: &InputModel,
    seed_offsets: &[u64],
    cancel: &AtomicBool,
) -> Result<Vec<Result<Estimate, DipeError>>, DipeError> {
    run_group(
        GroupMeasure::new(circuit, config),
        circuit,
        config,
        input_model,
        seed_offsets,
        cancel,
    )
    .map(|(estimates, _)| estimates)
}

fn run_group(
    mut measure: GroupMeasure<'_>,
    circuit: &Circuit,
    config: &DipeConfig,
    input_model: &InputModel,
    seed_offsets: &[u64],
    cancel: &AtomicBool,
) -> Result<(Vec<Result<Estimate, DipeError>>, LaneGlitchSummary), DipeError> {
    assert!(
        !seed_offsets.is_empty() && seed_offsets.len() <= LANES,
        "a lane group holds 1..={LANES} replications, got {}",
        seed_offsets.len()
    );
    config.validate()?;
    let started = Instant::now();
    let estimator_name = crate::DipeEstimator::new().name();

    let mut lanes = seed_offsets
        .iter()
        .map(|&offset| {
            Ok(Lane {
                stream: input_model.stream(circuit, config.seed.wrapping_add(offset))?,
                rule: StoppingRule::new(config),
                counts: CycleCounts::default(),
                decorrelate: 0,
                phase: LanePhase::Warmup {
                    remaining: config.warmup_cycles,
                },
            })
        })
        .collect::<Result<Vec<Lane>, DipeError>>()?;

    let mut sim = BitParallelSimulator::new(circuit);
    let calculator = PowerCalculator::new(circuit, config.technology, &config.capacitance);

    let mut pattern = vec![false; circuit.num_primary_inputs()];
    let mut words = vec![0u64; circuit.num_primary_inputs()];
    let mut prev = vec![false; circuit.num_nets()];
    let mut scratch = GlitchActivity::zeroed(circuit.num_nets());
    let mut measuring: Vec<usize> = Vec::with_capacity(seed_offsets.len());
    let mut glitch = measure.empty_summary();
    let mut glitch_power_sum = 0.0f64;

    while lanes.iter().any(|lane| !lane.is_finished()) {
        if cancel.load(Ordering::Relaxed) {
            for lane in lanes.iter_mut().filter(|lane| !lane.is_finished()) {
                lane.phase = LanePhase::Finished(Err(DipeError::Cancelled));
            }
            break;
        }
        // Pass 1: draw and pack every live lane's pattern, advance the
        // bookkeeping of the non-sampling lanes, and collect the lanes that
        // measure this cycle.
        measuring.clear();
        for (lane_index, lane) in lanes.iter_mut().enumerate() {
            if lane.is_finished() {
                continue; // word bits of finished lanes are don't-cares
            }
            lane.stream.next_pattern_into(&mut pattern);
            for (word, &bit) in words.iter_mut().zip(&pattern) {
                pack_lane_bit(word, lane_index, bit);
            }
            let measure_now =
                !matches!(lane.phase, LanePhase::Warmup { .. }) && lane.decorrelate == 0;
            if measure_now {
                measuring.push(lane_index);
            } else {
                lane.counts.zero_delay_cycles += 1;
                match &mut lane.phase {
                    LanePhase::Warmup { remaining } => {
                        *remaining -= 1;
                        if *remaining == 0 {
                            // First selection sample measures on the next
                            // cycle (the selector starts at interval 0).
                            lane.decorrelate = 0;
                            lane.phase = LanePhase::Selecting {
                                selector: IntervalSelector::new(config),
                            };
                        }
                    }
                    _ => lane.decorrelate -= 1,
                }
            }
        }
        // Pass 2: general-delay measurement of the sampling lanes, exactly
        // like `PowerSampler::measure_cycle_power_w` per lane. The shared
        // bit-parallel step below advances every lane to the same stable
        // values the measurement backend settles to.
        match (&mut measure, measuring.as_slice()) {
            (_, []) => {}
            (GroupMeasure::TimeSliced(ts), sampling) => {
                // One word pass glitch-simulates all 64 lanes; each sampling
                // lane projects its own per-net counts out of the shared
                // record (non-sampling lanes' bits are simulated but never
                // read — their stimulus is the same next-state step the
                // bit-parallel simulator takes anyway).
                let activity = ts.simulate_cycle(sim.words(), &words);
                for &lane_index in sampling {
                    activity.lane_activity_into(lane_index, &mut scratch);
                    let power_w = calculator.cycle_power_w(scratch.total());
                    glitch.measured_cycles += 1;
                    glitch.total_transitions += scratch.total().total_transitions();
                    glitch.settled_transitions += scratch.settled().total_transitions();
                    glitch_power_sum += power_w - calculator.cycle_power_w(scratch.settled());
                    let lane = &mut lanes[lane_index];
                    lane.counts.measured_cycles += 1;
                    record_measurement(lane, power_w, config, &estimator_name, &started);
                }
            }
            (GroupMeasure::EventDriven(full, _), sampling) => {
                for &lane_index in sampling {
                    sim.lane_values_into(lane_index, &mut prev);
                    for (bit, word) in pattern.iter_mut().zip(&words) {
                        *bit = (word >> lane_index) & 1 != 0;
                    }
                    let activity = full.simulate_cycle(&prev, &pattern);
                    let power_w = calculator.cycle_power_w(activity.total());
                    glitch.measured_cycles += 1;
                    glitch.total_transitions += activity.total().total_transitions();
                    glitch.settled_transitions += activity.settled().total_transitions();
                    glitch_power_sum += power_w - calculator.cycle_power_w(activity.settled());
                    let lane = &mut lanes[lane_index];
                    lane.counts.measured_cycles += 1;
                    record_measurement(lane, power_w, config, &estimator_name, &started);
                }
            }
        }
        sim.step_state_only(&words);
    }

    if glitch.measured_cycles > 0 {
        glitch.mean_glitch_power_w = glitch_power_sum / glitch.measured_cycles as f64;
    }
    let estimates = lanes
        .into_iter()
        .map(|lane| match lane.phase {
            LanePhase::Finished(result) => result,
            _ => unreachable!("the group loop runs until every lane finishes"),
        })
        .collect();
    Ok((estimates, glitch))
}

/// Feeds one measured power observation into a lane's state machine and
/// schedules its next measurement (mirrors the scalar
/// `sample_power_w(interval)` = `interval` decorrelation cycles + 1 measured
/// cycle contract).
fn record_measurement(
    lane: &mut Lane,
    power_w: f64,
    config: &DipeConfig,
    estimator_name: &str,
    started: &Instant,
) {
    match &mut lane.phase {
        LanePhase::Selecting { selector } => match selector.push_sample(power_w) {
            Ok(Some(selection)) => {
                lane.decorrelate = selection.interval;
                lane.phase = LanePhase::Sampling {
                    selection,
                    sample: Vec::with_capacity(config.min_samples.max(256)),
                };
            }
            Ok(None) => lane.decorrelate = selector.current_interval(),
            Err(error) => lane.phase = LanePhase::Finished(Err(error)),
        },
        LanePhase::Sampling { selection, sample } => {
            lane.decorrelate = selection.interval;
            sample.push(power_w);
            if !lane.rule.at_boundary(sample.len()) {
                return;
            }
            let decision = lane.rule.decide(sample, &NoFold, &(), &Tracer::disabled());
            lane.phase = match decision.verdict {
                RoundVerdict::Continue => return,
                RoundVerdict::Exhausted => {
                    LanePhase::Finished(Err(decision.exhausted(&Tracer::disabled())))
                }
                RoundVerdict::Satisfied => {
                    let run = FinishedRun {
                        estimator: estimator_name.to_string(),
                        selection: std::mem::replace(
                            selection,
                            IndependenceSelection {
                                interval: 0,
                                trials: Vec::new(),
                            },
                        ),
                        sample: std::mem::take(sample),
                        decision,
                        cycle_counts: lane.counts,
                        elapsed_seconds: started.elapsed().as_secs_f64(),
                        sim_profile: None,
                    };
                    LanePhase::Finished(Ok(assemble(&NoFold, &(), run, &Tracer::disabled())))
                }
            };
        }
        LanePhase::Warmup { .. } | LanePhase::Finished(_) => {
            unreachable!("measurements only occur in the selecting/sampling phases")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{run_to_completion, PowerEstimator};
    use crate::DipeEstimator;
    use netlist::iscas89;

    fn scalar_estimate(
        circuit: &Circuit,
        config: &DipeConfig,
        seed_offset: u64,
    ) -> Result<Estimate, DipeError> {
        let session =
            DipeEstimator::new().start(circuit, config, &InputModel::uniform(), seed_offset)?;
        run_to_completion(session)
    }

    /// Field-by-field equality modulo wall-clock time.
    fn assert_estimates_match(lane: &Estimate, scalar: &Estimate, label: &str) {
        assert_eq!(lane.estimator, scalar.estimator, "{label}: estimator");
        assert_eq!(lane.mean_power_w, scalar.mean_power_w, "{label}: mean");
        assert_eq!(
            lane.relative_half_width, scalar.relative_half_width,
            "{label}: rhw"
        );
        assert_eq!(lane.sample_size, scalar.sample_size, "{label}: samples");
        assert_eq!(lane.cycle_counts, scalar.cycle_counts, "{label}: cycles");
        assert_eq!(lane.diagnostics, scalar.diagnostics, "{label}: diagnostics");
    }

    #[test]
    fn lane_runs_are_bit_exact_with_scalar_sessions() {
        let circuit = iscas89::load("s27").unwrap();
        let config = DipeConfig::default().with_seed(1997);
        let offsets: Vec<u64> = (1..=6).collect();
        let replicated =
            run_replicated_dipe(&circuit, &config, &InputModel::uniform(), &offsets).unwrap();
        assert_eq!(replicated.len(), offsets.len());
        for (&offset, result) in offsets.iter().zip(&replicated) {
            let lane = result.as_ref().expect("replication converges on s27");
            let scalar = scalar_estimate(&circuit, &config, offset).unwrap();
            assert_estimates_match(lane, &scalar, &format!("offset {offset}"));
        }
    }

    #[test]
    fn lane_runs_are_bit_exact_on_a_larger_circuit() {
        let circuit = iscas89::load("s298").unwrap();
        let config = DipeConfig::default().with_seed(7);
        let offsets = [1u64, 2];
        let replicated =
            run_replicated_dipe(&circuit, &config, &InputModel::uniform(), &offsets).unwrap();
        for (&offset, result) in offsets.iter().zip(&replicated) {
            let lane = result.as_ref().expect("replication converges on s298");
            let scalar = scalar_estimate(&circuit, &config, offset).unwrap();
            assert_estimates_match(lane, &scalar, &format!("offset {offset}"));
        }
    }

    #[test]
    fn lanes_fail_independently_on_budget_exhaustion() {
        let circuit = iscas89::load("s27").unwrap();
        // An accuracy nobody reaches within the budget: every lane must
        // report SampleBudgetExhausted, mirroring the scalar behaviour.
        let mut config = DipeConfig::default()
            .with_seed(55)
            .with_accuracy(0.001, 0.99);
        config.max_samples = 320;
        let replicated =
            run_replicated_dipe(&circuit, &config, &InputModel::uniform(), &[0, 1]).unwrap();
        for (offset, result) in replicated.iter().enumerate() {
            let error = result.as_ref().unwrap_err();
            assert!(
                matches!(error, DipeError::SampleBudgetExhausted { samples, .. } if *samples >= 320),
                "offset {offset}: {error:?}"
            );
            let scalar = scalar_estimate(&circuit, &config, offset as u64).unwrap_err();
            assert_eq!(format!("{error}"), format!("{scalar}"));
        }
    }

    #[test]
    fn measurement_backends_agree_on_estimates_and_glitch_summary() {
        // Unit delay is slot-representable: the group measures on the
        // time-sliced word backend. The same group built on the event-driven
        // wheel must give bit-identical estimates AND the bit-identical
        // aggregate glitch summary.
        let circuit = iscas89::load("s298").unwrap();
        let config = DipeConfig::default()
            .with_seed(23)
            .with_delay_model(logicsim::DelayModel::Unit(100));
        let offsets = [1u64, 2, 3, 4];
        let (auto, auto_glitch) =
            run_replicated_dipe_with_glitch(&circuit, &config, &InputModel::uniform(), &offsets)
                .unwrap();
        let delays = config.delay_model.annotate(&circuit);
        let wheel = EventDrivenSimulator::with_delays(&circuit, config.delay_model, &delays);
        let (scalar, scalar_glitch) = run_group(
            GroupMeasure::EventDriven(Box::new(wheel), None),
            &circuit,
            &config,
            &InputModel::uniform(),
            &offsets,
            &AtomicBool::new(false),
        )
        .unwrap();
        for (offset, (a, s)) in offsets.iter().zip(auto.iter().zip(&scalar)) {
            assert_estimates_match(
                a.as_ref().unwrap(),
                s.as_ref().unwrap(),
                &format!("offset {offset}"),
            );
        }
        assert_eq!(auto_glitch.backend, LaneBackend::TimeSliced);
        assert_eq!(scalar_glitch.backend, LaneBackend::EventDriven);
        assert_eq!(
            LaneGlitchSummary {
                backend: LaneBackend::TimeSliced,
                ..scalar_glitch
            },
            auto_glitch,
            "glitch summary diverged"
        );
        assert!(auto_glitch.measured_cycles > 0);
        assert!(auto_glitch.total_transitions >= auto_glitch.settled_transitions);
        assert!(auto_glitch.glitch_transitions() > 0, "unit delay glitches");
        assert!(auto_glitch.mean_glitch_power_w > 0.0);
    }

    #[test]
    fn unrepresentable_annotations_fall_back_bit_exactly_to_the_wheel() {
        // Random delays have gcd ~1 over a 60–340 ps range: not
        // slot-representable, so the group measures every sampling lane on
        // the event-driven wheel, names the rejection, and still reproduces
        // the scalar sessions bit for bit.
        let circuit = iscas89::load("s27").unwrap();
        let config = DipeConfig::default()
            .with_seed(1997)
            .with_delay_model(logicsim::DelayModel::random(7));
        let offsets: Vec<u64> = (1..=4).collect();
        let (replicated, glitch) =
            run_replicated_dipe_with_glitch(&circuit, &config, &InputModel::uniform(), &offsets)
                .unwrap();
        assert_eq!(glitch.backend, LaneBackend::EventDriven);
        assert!(
            matches!(
                glitch.slot_rejection,
                Some(SlotRejection::HorizonExceeded { .. })
            ),
            "{:?}",
            glitch.slot_rejection
        );
        assert!(glitch.glitch_transitions() > 0, "random delays glitch");
        for (&offset, result) in offsets.iter().zip(&replicated) {
            let lane = result.as_ref().expect("replication converges on s27");
            let scalar = scalar_estimate(&circuit, &config, offset).unwrap();
            assert_estimates_match(lane, &scalar, &format!("random-delay offset {offset}"));
        }
    }

    #[test]
    fn lane_runs_stay_bit_exact_with_scalar_sessions_under_unit_delay() {
        // The word-parallel measurement path must reproduce the scalar
        // DipeEstimator sessions bit for bit, like the zero-delay path does.
        let circuit = iscas89::load("s27").unwrap();
        let config = DipeConfig::default()
            .with_seed(1997)
            .with_delay_model(logicsim::DelayModel::Unit(100));
        let offsets: Vec<u64> = (1..=5).collect();
        let replicated =
            run_replicated_dipe(&circuit, &config, &InputModel::uniform(), &offsets).unwrap();
        for (&offset, result) in offsets.iter().zip(&replicated) {
            let lane = result.as_ref().expect("replication converges on s27");
            let scalar = scalar_estimate(&circuit, &config, offset).unwrap();
            assert_estimates_match(lane, &scalar, &format!("unit-delay offset {offset}"));
        }
    }

    #[test]
    fn invalid_input_model_is_rejected_up_front() {
        let circuit = iscas89::load("s27").unwrap();
        let config = DipeConfig::default();
        let model = InputModel::PerInput {
            probabilities: vec![0.5; 2],
        };
        assert!(matches!(
            run_replicated_dipe(&circuit, &config, &model, &[0]),
            Err(DipeError::InputModelMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "lane group")]
    fn oversized_groups_are_rejected() {
        let circuit = iscas89::load("s27").unwrap();
        let offsets: Vec<u64> = (0..65).collect();
        let _ = run_replicated_dipe(
            &circuit,
            &DipeConfig::default(),
            &InputModel::uniform(),
            &offsets,
        );
    }
}
