//! Replay harness for the layers that sit inside `EstimationSession::step`.
//!
//! A fresh stream-0 sampler re-issues the run's exact calls, each in its own
//! span: the warm-up and every runs-test trial sequence, then — restored
//! from the session's warm checkpoint where the session has one — the
//! sampling phase. The spans cover `advance` and
//! `measure_cycle_power_w_observing` (logicsim), `cycle_power_w` on each
//! captured transition record (power), the runs test and the stopping
//! criterion at every evaluation point of the run (seqstats), and
//! `add_glitch_cycle` plus the node policy (activity). Every replayed z
//! statistic and power value must equal the run's bit for bit, so the
//! per-layer numbers measure the work the run did. Sharded and remote runs
//! replay stream 0 only.

use std::hint::black_box;

use activity::NodeActivityAccumulator;
use dipe::input::InputModel;
use dipe::remote::{StreamMerger, StreamWorker, DEFAULT_LEAD_BLOCKS};
use dipe::shards::{FrontStep, SerialFront};
use dipe::{DipeConfig, IndependenceSelection, PowerSampler, SamplerState, SimProfile};
use netlist::Circuit;
use power::PowerCalculator;
use seqstats::{NodeStoppingPolicy, RunsTest};

use crate::trace::Recorder;

/// Cycle budget of one traced `step` (and of one serial-front advance): small
/// enough that a step straddling two phases misattributes little.
pub const STEP_CYCLES: u64 = 256;

/// What the run produced and the replay must reproduce.
pub struct RunRecord<'a> {
    pub circuit: &'a Circuit,
    pub config: &'a DipeConfig,
    pub selection: &'a IndependenceSelection,
    /// Stream 0's sampler state at sampling entry, from the session's warm
    /// checkpoint (sharded and remote sessions have none).
    pub warm: Option<SamplerState>,
    /// The run's pooled sample, in merge order.
    pub sample: &'a [f64],
    /// Seed streams the run merged round by round (1 for scalar sessions).
    pub streams: usize,
    /// The per-node policy of breakdown runs.
    pub node_policy: Option<NodeStoppingPolicy>,
}

pub struct Replayed {
    /// Stream 0's sampler state at sampling entry.
    pub stream0: SamplerState,
    /// Cycles the replayed stream-0 sampler simulated, by kind.
    pub zero_delay_cycles: u64,
    pub measured_cycles: u64,
    /// Replayed values (z statistics, front state, power samples) whose bits
    /// differ from the run's; 0 when the replay is faithful.
    pub mismatches: usize,
    pub sim_profile: SimProfile,
}

/// One `advance` and one observed measurement, each in its own span. The
/// observer times Eq. 1 on the captured record and, for breakdown runs, folds
/// it into the accumulator.
fn sample(
    rec: &mut Recorder,
    sampler: &mut PowerSampler<'_>,
    calculator: &PowerCalculator,
    accumulator: Option<&mut NodeActivityAccumulator>,
    interval: usize,
) -> f64 {
    rec.time("logicsim.decorrelate", || sampler.advance(interval));
    let measure = rec.enter("logicsim.measure");
    let power_w = sampler.measure_cycle_power_w_observing(|record| {
        black_box(rec.time("power.eq1", || calculator.cycle_power_w(record.total())));
        if let Some(accumulator) = accumulator {
            rec.time("activity.accumulate", || {
                accumulator.add_glitch_cycle(record)
            });
        }
    });
    rec.exit(measure);
    power_w
}

/// Replays stream 0 of `run` inside a `replay` root span.
pub fn replay(rec: &mut Recorder, run: &RunRecord<'_>) -> Result<Replayed, String> {
    let config = run.config;
    let mut sampler = PowerSampler::new(run.circuit, config, &InputModel::uniform(), 0)
        .map_err(|e| e.to_string())?;
    let calculator = sampler.calculator().clone();
    let capacitances_f = calculator.loads().as_slice().to_vec();
    let criterion = config.build_criterion();
    let runs_test = RunsTest::new(config.significance_level);
    let mut accumulator = run
        .node_policy
        .map(|_| NodeActivityAccumulator::for_circuit(run.circuit));
    let mut mismatches = 0;

    let root = rec.enter("replay");
    rec.time("logicsim.decorrelate", || {
        sampler.advance(config.warmup_cycles)
    });
    for trial in &run.selection.trials {
        let sequence: Vec<f64> = (0..config.sequence_length)
            .map(|_| sample(rec, &mut sampler, &calculator, None, trial.interval))
            .collect();
        let outcome = rec.time("seqstats.runs_test", || runs_test.evaluate(&sequence));
        if outcome.z.to_bits() != trial.z.to_bits() {
            mismatches += 1;
        }
    }
    if let Some(warm) = &run.warm {
        if sampler.snapshot() != *warm {
            mismatches += 1;
        }
        sampler.restore(warm).map_err(|e| e.to_string())?;
    }
    let stream0 = sampler.snapshot();

    let interval = run.selection.interval;
    let block = config.block_size;
    let round = block * run.streams;
    for r in 0..run.sample.len() / round {
        for j in 0..block {
            let power_w = sample(
                rec,
                &mut sampler,
                &calculator,
                accumulator.as_mut(),
                interval,
            );
            if power_w.to_bits() != run.sample[r * round + j].to_bits() {
                mismatches += 1;
            }
        }
        if let (Some(policy), Some(accumulator)) = (run.node_policy, accumulator.as_ref()) {
            black_box(rec.time("activity.node_eval", || {
                let means = accumulator.means();
                let std_errors = accumulator.std_errors();
                let weights: Vec<f64> = means
                    .iter()
                    .zip(&capacitances_f)
                    .map(|(mean, cap)| mean * cap)
                    .collect();
                policy.evaluate(
                    &means,
                    &std_errors,
                    &weights,
                    accumulator.observations() as usize,
                )
            }));
        }
        let prefix = &run.sample[..(r + 1) * round];
        black_box(rec.time("seqstats.stop_eval", || criterion.evaluate(prefix)));
    }
    rec.exit(root);
    let counts = sampler.cycle_counts();
    Ok(Replayed {
        stream0,
        zero_delay_cycles: counts.zero_delay_cycles,
        measured_cycles: counts.measured_cycles,
        mismatches,
        sim_profile: sampler.sim_profile(),
    })
}

/// The serial front (warm-up + interval selection) of a remote run, stepped
/// in `STEP_CYCLES` slices with one span per slice named by its phase.
/// Returns the selected interval.
pub fn serial_front(
    rec: &mut Recorder,
    circuit: &Circuit,
    config: &DipeConfig,
) -> Result<usize, String> {
    let sampler =
        PowerSampler::new(circuit, config, &InputModel::uniform(), 0).map_err(|e| e.to_string())?;
    let mut front = SerialFront::new(sampler, config);
    let tracer = telemetry::Tracer::disabled();
    let mut deadline = 0;
    loop {
        deadline += STEP_CYCLES;
        let name = crate::jobs::phase_span(front.phase());
        let start = rec.now();
        let step = front
            .advance(config, deadline, &tracer)
            .map_err(|e| e.to_string())?;
        let end = rec.now();
        rec.record(name, start, end);
        if let FrontStep::Selected(_, selection) = step {
            return Ok(selection.interval);
        }
    }
}

/// Re-produces a remote run's blocks in-process with `StreamWorker::produce`
/// on the coordinator's own assignments, one `remote.produce` span per
/// block, and returns the pooled sample the merger folds them into.
pub fn produce_blocks(
    rec: &mut Recorder,
    circuit: &Circuit,
    config: &DipeConfig,
    stream0: SamplerState,
    interval: usize,
    streams: usize,
    rounds: usize,
) -> Result<Vec<f64>, String> {
    let mut merger = StreamMerger::new(streams, stream0);
    let mut worker = StreamWorker::new(
        circuit,
        config.clone(),
        InputModel::uniform(),
        0,
        interval,
        DEFAULT_LEAD_BLOCKS,
    );
    for stream in 0..streams {
        let assignment = merger.assignment(stream);
        worker
            .assign(
                stream as u32,
                assignment.from_block,
                assignment.state.as_ref(),
            )
            .map_err(|e| e.to_string())?;
    }
    let root = rec.enter("remote.replay");
    for _ in 0..rounds {
        for stream in 0..streams {
            let block = rec.time("remote.produce", || worker.produce(stream as u32));
            merger.offer(block);
        }
        if !merger.consume_round() {
            return Err("in-process blocks did not complete a round".to_string());
        }
    }
    rec.exit(root);
    Ok(merger.sample().to_vec())
}
