//! End-to-end fault-injection tests of the distributed shard runtime:
//! real workers, real sockets, real injected faults — and a bit-identity
//! assertion against the local `--shards` runtime for every one of them.

use std::net::TcpListener;
use std::time::Duration;

use dipe::input::InputModel;
use dipe::remote::FaultPlan;
use dipe::{run_to_completion, Estimate, PowerEstimator, ShardedDipeEstimator};
use dipe_serve::coordinator::{run_remote_total, CoordinatorConfig, RemoteOutcome};
use dipe_serve::{run_worker, JobSpec};

/// Starts an in-process worker on an ephemeral port; returns its endpoint.
fn spawn_worker(fault: FaultPlan) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
    let endpoint = listener.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || {
        let _ = run_worker(listener, &fault, true);
    });
    endpoint
}

fn spec() -> JobSpec {
    JobSpec::named("s27").with_seed(2027)
}

/// The local reference: the same `(seed, stream count)` through the
/// in-process sharded estimator.
fn local_reference(streams: usize) -> Estimate {
    let spec = spec();
    let circuit = spec.circuit.load().unwrap();
    run_to_completion(
        ShardedDipeEstimator::new(streams)
            .start(&circuit, &spec.config(), &InputModel::uniform(), 0)
            .unwrap(),
    )
    .unwrap()
}

fn coordinator_config(endpoints: Vec<String>, streams: usize) -> CoordinatorConfig {
    let mut config = CoordinatorConfig::new(endpoints, streams);
    config.block_deadline = Duration::from_secs(20);
    config.backoff_base = Duration::from_millis(20);
    config.backoff_cap = Duration::from_millis(200);
    config.quiet = true;
    config
}

fn run(config: &CoordinatorConfig) -> RemoteOutcome {
    run_remote_total(&spec(), config, &telemetry::Tracer::disabled()).expect("coordinated run")
}

/// The bit-identity contract: everything except wall-clock diagnostics and
/// the (machine-local) simulator profile must match the local run exactly.
fn assert_bit_identical(remote: &Estimate, local: &Estimate) {
    assert_eq!(remote.estimator, local.estimator);
    assert_eq!(remote.mean_power_w.to_bits(), local.mean_power_w.to_bits());
    assert_eq!(remote.relative_half_width, local.relative_half_width);
    assert_eq!(remote.sample_size, local.sample_size);
    assert_eq!(remote.cycle_counts, local.cycle_counts);
    assert_eq!(remote.diagnostics, local.diagnostics);
}

#[test]
fn faultless_fleet_matches_local_shards_bit_for_bit() {
    let local = local_reference(3);
    let endpoints: Vec<String> = (0..3).map(|_| spawn_worker(FaultPlan::default())).collect();
    let outcome = run(&coordinator_config(endpoints, 3));
    assert_bit_identical(&outcome.estimate, &local);
    assert_eq!(outcome.stats.workers_connected, 3);
    assert_eq!(outcome.stats.workers_lost, 0);
    assert_eq!(outcome.stats.assignments, 3);
    assert!(!outcome.stats.fell_back_local);
    assert!(outcome.workers.iter().any(|w| w.blocks > 0));
    // A worker produces as soon as it has credit, so blocks follow each
    // other at compute speed, not at a read-poll interval.
    for worker in outcome.workers.iter().filter(|w| w.blocks >= 2) {
        let p50 = worker.p50_block_ms.expect("two blocks give a latency");
        assert!(p50 < 10.0, "{}: p50 {p50} ms", worker.endpoint);
    }
}

#[test]
fn killed_worker_is_reassigned_bit_identically() {
    let local = local_reference(3);
    let endpoints = vec![
        spawn_worker(FaultPlan::default()),
        spawn_worker(FaultPlan::parse("kill-after-blocks:2").unwrap()),
        spawn_worker(FaultPlan::default()),
    ];
    let outcome = run(&coordinator_config(endpoints, 3));
    assert_bit_identical(&outcome.estimate, &local);
    assert!(outcome.stats.workers_lost >= 1, "{:?}", outcome.stats);
    assert!(outcome.stats.reassignments >= 1, "{:?}", outcome.stats);
    assert!(!outcome.stats.fell_back_local);
    assert!(outcome.workers.iter().any(|w| w.lost));
    // Recovered by the closed socket, not by the block deadline.
    assert_eq!(outcome.stats.timeouts, 0, "{:?}", outcome.stats);
}

#[test]
fn dropped_connection_reconnects_bit_identically() {
    let local = local_reference(2);
    let endpoints = vec![
        spawn_worker(FaultPlan::parse("drop-after-blocks:2").unwrap()),
        spawn_worker(FaultPlan::default()),
    ];
    let outcome = run(&coordinator_config(endpoints, 2));
    assert_bit_identical(&outcome.estimate, &local);
    assert!(outcome.stats.workers_lost >= 1, "{:?}", outcome.stats);
    assert!(outcome.stats.retries >= 1, "{:?}", outcome.stats);
    assert!(!outcome.stats.fell_back_local);
    assert_eq!(outcome.stats.timeouts, 0, "{:?}", outcome.stats);
}

#[test]
fn corrupt_payload_is_detected_and_recovered_bit_identically() {
    let local = local_reference(2);
    let endpoints = vec![
        spawn_worker(FaultPlan::parse("corrupt-block:2").unwrap()),
        spawn_worker(FaultPlan::default()),
    ];
    let outcome = run(&coordinator_config(endpoints, 2));
    assert_bit_identical(&outcome.estimate, &local);
    assert!(outcome.stats.corrupt_blocks >= 1, "{:?}", outcome.stats);
    assert!(outcome.stats.workers_lost >= 1, "{:?}", outcome.stats);
    assert_eq!(outcome.stats.timeouts, 0, "{:?}", outcome.stats);
}

#[test]
fn unreachable_fleet_degrades_to_local_execution() {
    let local = local_reference(2);
    // Bind-and-drop: the ports existed a moment ago, now nothing listens.
    let dead: Vec<String> = (0..2)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        })
        .collect();
    let mut config = coordinator_config(dead, 2);
    config.connect_attempts = 2;
    let outcome = run(&config);
    assert_bit_identical(&outcome.estimate, &local);
    assert!(outcome.stats.fell_back_local);
    assert_eq!(outcome.stats.workers_connected, 0);
    assert!(outcome.stats.retries >= 1, "{:?}", outcome.stats);
    assert!(outcome.workers.iter().all(|w| w.blocks == 0));
}
