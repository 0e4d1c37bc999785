//! The estimation trace is a faithful, bit-exact record of the run: a
//! consumer holding only the JSONL events must be able to reconstruct the
//! warm-up length, the accepted independence interval, the full rhw
//! trajectory and the final estimate — and get exactly the numbers the
//! session reported in its [`Estimate`]. These tests drive real sessions
//! with an in-memory sink and check that contract, including invariance
//! under stepping granularity and scalar/one-shard equivalence.

use std::sync::Arc;

use dipe::input::InputModel;
use dipe::{
    CycleBudget, DipeConfig, DipeEstimator, Estimate, PowerEstimator, Progress,
    ShardedDipeEstimator,
};
use netlist::iscas89;
use telemetry::{BufferSink, Tracer};

fn config() -> DipeConfig {
    DipeConfig::default().with_seed(1997)
}

/// Extracts a bare (unquoted) field value from one JSON trace line.
fn raw_field<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\":");
    let start = line
        .find(&key)
        .unwrap_or_else(|| panic!("no field {name} in {line}"))
        + key.len();
    let rest = &line[start..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated field {name} in {line}"));
    &rest[..end]
}

fn u64_field(line: &str, name: &str) -> u64 {
    raw_field(line, name).parse().unwrap()
}

fn event_name(line: &str) -> &str {
    raw_field(line, "event").trim_matches('"')
}

fn traced_run(estimator: &dyn PowerEstimator, budget: CycleBudget) -> (Estimate, Vec<String>) {
    let circuit = iscas89::load("s27").unwrap();
    let sink = Arc::new(BufferSink::bounded(100_000));
    let mut session = estimator
        .start(&circuit, &config(), &InputModel::uniform(), 0)
        .unwrap();
    session.set_tracer(Tracer::to_sink(sink.clone()));
    let estimate = loop {
        match session.step(budget).unwrap() {
            Progress::Running { .. } => {}
            Progress::Done(estimate) => break estimate,
        }
    };
    assert_eq!(sink.dropped(), 0, "the trace buffer must not wrap");
    (estimate, sink.lines())
}

#[test]
fn trace_reconstructs_the_estimate_bit_for_bit() {
    let config = config();
    let (estimate, lines) = traced_run(&DipeEstimator::new(), CycleBudget::unbounded());

    // Every line carries the schema version.
    for line in &lines {
        assert_eq!(
            u64_field(line, "trace_version"),
            telemetry::TRACE_VERSION as u64
        );
    }

    // Warm-up bracket: the configured length, then the cycle ledger.
    let starts: Vec<&String> = lines
        .iter()
        .filter(|l| event_name(l) == "warmup_start")
        .collect();
    assert_eq!(starts.len(), 1);
    assert_eq!(u64_field(starts[0], "cycles"), config.warmup_cycles as u64);
    let ends: Vec<&String> = lines
        .iter()
        .filter(|l| event_name(l) == "warmup_end")
        .collect();
    assert_eq!(ends.len(), 1);
    assert_eq!(
        u64_field(ends[0], "zero_delay_cycles"),
        config.warmup_cycles as u64
    );

    // Interval selection: one trial per runs test, the last one accepted,
    // and the accepted interval equal to the estimate's.
    let trials: Vec<&String> = lines
        .iter()
        .filter(|l| event_name(l) == "interval_trial")
        .collect();
    let accepted: Vec<&String> = lines
        .iter()
        .filter(|l| event_name(l) == "interval_accepted")
        .collect();
    assert_eq!(accepted.len(), 1);
    let interval = estimate.independence_interval().unwrap() as u64;
    assert_eq!(u64_field(accepted[0], "interval"), interval);
    assert_eq!(u64_field(accepted[0], "trials"), trials.len() as u64);
    assert_eq!(raw_field(trials.last().unwrap(), "accepted"), "true");
    assert_eq!(u64_field(trials.last().unwrap(), "interval"), interval);

    // The rhw trajectory: one stopping evaluation per completed block, the
    // last one satisfied at exactly the reported half-width and estimate
    // (IEEE-754 bits, not decimal text).
    let evals: Vec<&String> = lines
        .iter()
        .filter(|l| event_name(l) == "stopping_eval")
        .collect();
    assert_eq!(
        evals.len(),
        estimate.sample_size / config.block_size,
        "one evaluation per completed block"
    );
    let last = evals.last().unwrap();
    assert_eq!(raw_field(last, "satisfied"), "true");
    assert_eq!(u64_field(last, "samples"), estimate.sample_size as u64);
    assert_eq!(
        u64_field(last, "rhw_bits"),
        estimate.relative_half_width.unwrap().to_bits()
    );
    for eval in &evals[..evals.len() - 1] {
        assert_eq!(raw_field(eval, "satisfied"), "false");
    }

    // The closing record: the final sample size, mean and cycle ledger.
    let done: Vec<&String> = lines
        .iter()
        .filter(|l| event_name(l) == "session_done")
        .collect();
    assert_eq!(done.len(), 1);
    assert_eq!(
        u64_field(done[0], "sample_size"),
        estimate.sample_size as u64
    );
    assert_eq!(
        u64_field(done[0], "mean_power_w_bits"),
        estimate.mean_power_w.to_bits()
    );
    assert_eq!(
        u64_field(done[0], "zero_delay_cycles"),
        estimate.cycle_counts.zero_delay_cycles
    );
    assert_eq!(
        u64_field(done[0], "measured_cycles"),
        estimate.cycle_counts.measured_cycles
    );
}

#[test]
fn stepping_granularity_does_not_change_the_trace() {
    let (whole_estimate, whole) = traced_run(&DipeEstimator::new(), CycleBudget::unbounded());
    let (stepped_estimate, stepped) = traced_run(&DipeEstimator::new(), CycleBudget::cycles(311));
    assert_eq!(whole_estimate.mean_power_w, stepped_estimate.mean_power_w);
    assert_eq!(whole, stepped, "trace lines must be identical");
}

#[test]
fn one_shard_trace_matches_the_scalar_trace() {
    // A one-shard pooled round is one block, so the sharded run evaluates
    // the stopping rule at the same sample counts as the scalar session and
    // every shared event must come out identical. Sharded-only events
    // (round merges, shard summaries) are extra.
    let shared = |lines: Vec<String>| -> Vec<String> {
        lines
            .into_iter()
            .filter(|l| {
                matches!(
                    event_name(l),
                    "warmup_start"
                        | "warmup_end"
                        | "interval_trial"
                        | "interval_accepted"
                        | "stopping_eval"
                        | "session_done"
                )
            })
            .collect()
    };
    let (scalar_estimate, scalar) = traced_run(&DipeEstimator::new(), CycleBudget::unbounded());
    let (sharded_estimate, sharded) =
        traced_run(&ShardedDipeEstimator::new(1), CycleBudget::unbounded());
    assert_eq!(scalar_estimate.mean_power_w, sharded_estimate.mean_power_w);
    assert_eq!(shared(scalar), shared(sharded));
    // The sharded trace additionally recorded its rounds and shard summary.
    let (_, sharded_again) = traced_run(&ShardedDipeEstimator::new(1), CycleBudget::unbounded());
    assert!(sharded_again
        .iter()
        .any(|l| event_name(l) == "round_merged"));
    assert!(sharded_again.iter().any(|l| event_name(l) == "shard_done"));
    assert!(sharded_again
        .iter()
        .any(|l| event_name(l) == "speculative_discard"));
}

#[test]
fn sim_profile_accounts_for_every_measured_cycle() {
    let (estimate, _) = traced_run(&DipeEstimator::new(), CycleBudget::unbounded());
    let profile = estimate.sim_profile.unwrap();
    // Every measured cycle went through exactly one dispatch path of the
    // scalar wheel, its levelized or its wheel sweep. The time-sliced
    // backend is the lane groups' alone, even though the default fanout
    // annotation of s27 is slot-representable.
    assert_eq!(
        profile.levelized_cycles + profile.wheel_cycles,
        estimate.cycle_counts.measured_cycles
    );
    assert_eq!(profile.time_sliced_cycles, 0);
    assert!(profile.total_evals() > 0);
}
