//! Breakdown runs trace the same lifecycle as total-power runs: the
//! warm-up bracket, the accepted interval, the sampling design, a stopping
//! trajectory whose last point is the only one that meets the run's
//! convergence target, and a closing record that matches the [`Estimate`]
//! bit for bit — inline, on one shard thread and on two.

use std::sync::Arc;

use activity::{BreakdownEstimator, ConvergenceTarget};
use dipe::input::InputModel;
use dipe::{run_to_completion, DipeConfig, Estimate, PowerEstimator};
use netlist::iscas89;
use seqstats::NodeStoppingPolicy;
use telemetry::{BufferSink, Tracer};

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

fn estimator() -> BreakdownEstimator {
    BreakdownEstimator::new(
        NodeStoppingPolicy::new(0.15, 0.90, 5, 0.05, 64),
        ConvergenceTarget::NodeBreakdown,
    )
}

fn traced_run(estimator: &dyn PowerEstimator) -> (Estimate, Vec<String>) {
    let circuit = iscas89::load("s27").unwrap();
    let config = DipeConfig::default().with_seed(1997);
    let sink = Arc::new(BufferSink::bounded(100_000));
    let mut session = estimator
        .start(&circuit, &config, &InputModel::uniform(), 0)
        .unwrap();
    session.set_tracer(Tracer::to_sink(sink.clone()));
    let estimate = run_to_completion(session).unwrap();
    assert_eq!(sink.dropped(), 0, "the trace buffer must not wrap");
    (estimate, sink.lines())
}

fn events<'a>(lines: &'a [String], name: &str) -> Vec<&'a String> {
    lines.iter().filter(|l| event_name(l) == name).collect()
}

fn assert_lifecycle(estimate: &Estimate, lines: &[String], label: &str) {
    for name in [
        "warmup_start",
        "warmup_end",
        "interval_accepted",
        "sampling_start",
        "session_done",
    ] {
        assert_eq!(events(lines, name).len(), 1, "{label}: one {name}");
    }
    let done = events(lines, "session_done")[0];
    assert_eq!(
        u64_field(done, "sample_size"),
        estimate.sample_size as u64,
        "{label}: session_done sample size"
    );
    assert_eq!(
        u64_field(done, "mean_power_w_bits"),
        estimate.mean_power_w.to_bits(),
        "{label}: session_done mean"
    );

    // The node target decides, so `node_satisfied` is the run's verdict:
    // met at the last evaluation and at no earlier one.
    let evals = events(lines, "stopping_eval");
    let (last, earlier) = evals.split_last().expect("a stopping trajectory");
    assert_eq!(raw_field(last, "node_satisfied"), "true", "{label}");
    assert_eq!(u64_field(last, "samples"), estimate.sample_size as u64);
    for eval in earlier {
        assert_eq!(
            raw_field(eval, "node_satisfied"),
            "false",
            "{label}: {eval}"
        );
    }
}

#[test]
fn breakdown_traces_record_the_whole_lifecycle() {
    let base = estimator();
    let (inline_estimate, inline) = traced_run(&base);
    assert_lifecycle(&inline_estimate, &inline, "1 shard");
    let (one_estimate, one) = traced_run(&base.sharded(1));
    assert_lifecycle(&one_estimate, &one, "sharded(1)");
    let (two_estimate, two) = traced_run(&base.sharded(2));
    assert_lifecycle(&two_estimate, &two, "sharded(2)");

    // A one-shard round is one block, so the thread source evaluates the
    // stopping rule at the same sample counts as the inline source and
    // every shared event comes out identical; rounds and shard summaries
    // are the thread source's own.
    let shared = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .filter(|l| {
                matches!(
                    event_name(l),
                    "warmup_start"
                        | "warmup_end"
                        | "interval_trial"
                        | "interval_accepted"
                        | "sampling_start"
                        | "stopping_eval"
                        | "session_done"
                )
            })
            .cloned()
            .collect()
    };
    assert_eq!(shared(&inline), shared(&one));
    assert!(one.iter().any(|l| event_name(l) == "round_merged"));
    assert!(one.iter().any(|l| event_name(l) == "shard_done"));
}
