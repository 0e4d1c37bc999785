//! End-to-end tests of the `dipe-serve` job server over real TCP sockets.
//!
//! Every estimate the service produces is checked against the *serial*
//! library path (`DipeEstimator::start` + `run_to_completion`) bit-for-bit:
//! the service, its caches and its checkpoint files must be invisible in the
//! numbers.

use std::net::SocketAddr;
use std::thread::JoinHandle;

use dipe::{run_to_completion, DipeEstimator, Estimate, PowerEstimator};
use dipe_serve::{CachePath, Client, JobSpec, Server, ServerConfig};

fn start_server(workers: usize, slice_cycles: u64) -> (SocketAddr, JoinHandle<()>) {
    let dir = std::env::temp_dir().join(format!(
        "dipe-serve-test-{}-{workers}-{slice_cycles}",
        std::process::id()
    ));
    let config = ServerConfig {
        workers,
        slice_cycles,
        checkpoint_dir: dir,
        idle_timeout_seconds: 0.0,
        quiet: true,
    };
    let server = Server::bind(("127.0.0.1", 0), config).expect("bind");
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    (addr, thread)
}

fn shutdown(addr: SocketAddr, thread: JoinHandle<()>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    thread.join().expect("server thread");
}

/// The serial reference: same spec, same seed, no service in the loop.
fn serial_estimate(spec: &JobSpec) -> Estimate {
    let circuit = spec.circuit.load().expect("load");
    let config = spec.config();
    let input_model = spec.parsed_input_model().expect("input model");
    let session = DipeEstimator::new()
        .start(&circuit, &config, &input_model, 0)
        .expect("start");
    run_to_completion(session).expect("serial run")
}

fn assert_matches_serial(result: &dipe_serve::JobResult, reference: &Estimate) {
    assert_eq!(
        result.mean_power_w.to_bits(),
        reference.mean_power_w.to_bits(),
        "service mean ({}) != serial mean ({})",
        result.mean_power_w,
        reference.mean_power_w
    );
    assert_eq!(result.sample_size, reference.sample_size as u64);
    assert_eq!(
        result.zero_delay_cycles,
        reference.cycle_counts.zero_delay_cycles
    );
    assert_eq!(
        result.measured_cycles,
        reference.cycle_counts.measured_cycles
    );
    assert_eq!(
        result.independence_interval,
        reference.independence_interval().map(|i| i as u64)
    );
    assert_eq!(
        result.relative_half_width.map(f64::to_bits),
        reference.relative_half_width.map(f64::to_bits)
    );
}

#[test]
fn service_estimate_matches_serial_run_bit_for_bit() {
    // 400-cycle slices: the ~1600-cycle job spans several slices, so the
    // progress stream is observable.
    let (addr, thread) = start_server(2, 400);
    let spec = JobSpec::named("s27").with_seed(7).with_accuracy(0.10, 0.95);
    let reference = serial_estimate(&spec);

    let mut client = Client::connect(addr).expect("connect");
    let job_id = client.submit(&spec).expect("submit");
    let result = client.wait_result(job_id).expect("result");

    assert_matches_serial(&result, &reference);
    assert_eq!(result.cache, CachePath::Cold);
    assert!(
        client.progress_count(job_id) >= 1,
        "expected streamed progress events before the result"
    );
    assert_eq!(result.executed_cycles, reference.cycle_counts.total());
    shutdown(addr, thread);
}

#[test]
fn eight_concurrent_jobs_multiplex_over_two_workers() {
    let (addr, thread) = start_server(2, 2_000);
    let mut client = Client::connect(addr).expect("connect");

    // Eight distinct streams (different seeds), all in flight at once on a
    // two-permit worker pool, submitted before any result is consumed.
    let specs: Vec<JobSpec> = (0..8)
        .map(|i| {
            JobSpec::named("s27")
                .with_seed(100 + i)
                .with_accuracy(0.15, 0.90)
        })
        .collect();
    let ids: Vec<u64> = specs
        .iter()
        .map(|spec| client.submit(spec).expect("submit"))
        .collect();

    // While they run, the server must still answer control requests.
    client.ping().expect("ping under load");
    let stats = client.stats().expect("stats under load");
    assert_eq!(
        stats.get("workers").and_then(dipe_serve::Json::as_u64),
        Some(2)
    );

    for (spec, id) in specs.iter().zip(&ids) {
        let result = client.wait_result(*id).expect("result");
        let reference = serial_estimate(spec);
        assert_matches_serial(&result, &reference);
    }
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats
            .get("jobs_completed")
            .and_then(dipe_serve::Json::as_u64),
        Some(8)
    );
    shutdown(addr, thread);
}

#[test]
fn duplicate_submission_hits_both_cache_tiers_and_matches() {
    let (addr, thread) = start_server(2, 2_000);
    let mut client = Client::connect(addr).expect("connect");
    let spec = JobSpec::named("s298")
        .with_seed(41)
        .with_accuracy(0.15, 0.90);

    let first_id = client.submit(&spec).expect("submit");
    let first = client.wait_result(first_id).expect("first result");
    assert_eq!(first.cache, CachePath::Cold);

    let second_id = client.submit(&spec).expect("resubmit");
    let second = client.wait_result(second_id).expect("second result");

    // The warm hit skips parse+compile AND warm-up+interval selection...
    assert_eq!(second.cache, CachePath::Warm);
    assert!(
        second.executed_cycles < first.executed_cycles,
        "warm job executed {} cycles, cold executed {}",
        second.executed_cycles,
        first.executed_cycles
    );
    // ...yet the estimate is byte-identical.
    assert_eq!(second.mean_power_w.to_bits(), first.mean_power_w.to_bits());
    assert_eq!(second.sample_size, first.sample_size);
    assert_eq!(second.measured_cycles, first.measured_cycles);

    // The skipped work is an instrumented fact, not a timing inference.
    let stats = client.stats().expect("stats");
    let count = |k: &str| stats.get(k).and_then(dipe_serve::Json::as_u64).unwrap();
    assert!(count("compiled_hits") >= 1, "stats: {}", stats.to_line());
    assert!(count("warm_hits") >= 1, "stats: {}", stats.to_line());
    shutdown(addr, thread);
}

#[test]
fn checkpoint_stop_resume_reproduces_the_uninterrupted_estimate() {
    // Small slices so the checkpoint lands mid-sampling, not at the end.
    let (addr, thread) = start_server(2, 400);
    let spec = JobSpec::named("s27")
        .with_seed(23)
        .with_accuracy(0.04, 0.99);
    let reference = serial_estimate(&spec);

    let mut client = Client::connect(addr).expect("connect");
    let job_id = client.submit(&spec).expect("submit");
    // Kill the job the moment it becomes checkpointable (first sampling
    // slice): the server parks this request until then, writes the file,
    // then cancels the job.
    let path = client.checkpoint(job_id, true).expect("checkpoint");
    let killed = client.wait_result(job_id);
    assert!(
        killed.is_err(),
        "job should have been stopped, got {killed:?}"
    );

    let resumed_id = client.resume(&path).expect("resume");
    let resumed = client.wait_result(resumed_id).expect("resumed result");
    assert_eq!(resumed.cache, CachePath::Resumed);
    assert_matches_serial(&resumed, &reference);
    assert!(
        resumed.executed_cycles < reference.cycle_counts.total(),
        "a resumed job must not redo the pre-checkpoint work"
    );
    shutdown(addr, thread);
}

#[test]
fn progress_events_stream_in_monotone_cycle_order() {
    use std::collections::HashMap;
    // Eight jobs multiplexed over two permits, small slices: progress lines
    // from different jobs interleave heavily on the one socket, but each
    // job's own cycle counter must still only ever move forward.
    let (addr, thread) = start_server(2, 400);
    let mut client = Client::connect(addr).expect("connect");
    let ids: Vec<u64> = (0..8)
        .map(|i| {
            client
                .submit(
                    &JobSpec::named("s27")
                        .with_seed(300 + i)
                        .with_accuracy(0.15, 0.90),
                )
                .expect("submit")
        })
        .collect();

    let mut last_cycles: HashMap<u64, u64> = HashMap::new();
    let mut progress_events: HashMap<u64, u64> = HashMap::new();
    let mut finished = 0;
    while finished < ids.len() {
        match client.next_event().expect("event") {
            dipe_serve::Event::Progress {
                job_id,
                cycles_done,
                ..
            } => {
                let last = last_cycles.entry(job_id).or_insert(0);
                assert!(
                    cycles_done >= *last,
                    "job {job_id} went backwards: {cycles_done} after {last}"
                );
                *last = cycles_done;
                *progress_events.entry(job_id).or_insert(0) += 1;
            }
            dipe_serve::Event::Result(result) => {
                assert!(ids.contains(&result.job_id));
                finished += 1;
            }
            dipe_serve::Event::Failed { job_id, message } => {
                panic!("job {job_id} failed: {message}");
            }
        }
    }
    for id in &ids {
        assert!(
            progress_events.get(id).copied().unwrap_or(0) >= 1,
            "job {id} produced no progress events at 400-cycle slices"
        );
    }
    let total: u64 = progress_events.values().sum();
    assert!(
        total >= ids.len() as u64 * 2,
        "expected heavy interleaving, saw only {total} progress events"
    );
    shutdown(addr, thread);
}

#[test]
fn metrics_exposition_is_parseable_and_consistent_with_stats() {
    let (addr, thread) = start_server(2, 2_000);
    let mut client = Client::connect(addr).expect("connect");
    let spec = JobSpec::named("s27").with_seed(9).with_accuracy(0.15, 0.90);
    let job_id = client.submit(&spec).expect("submit");
    let result = client.wait_result(job_id).expect("result");

    let text = client.metrics().expect("metrics");
    let stats = client.stats().expect("stats");

    // Every line is either a `# TYPE` comment or `name[{labels}] value`
    // with a numeric value — i.e. the exposition is mechanically parseable.
    let mut samples = std::collections::HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(line.starts_with("# TYPE "), "odd comment: {line}");
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("name/value split");
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample on `{line}`"
        );
        samples.insert(name.to_string(), value.to_string());
    }
    let sample_u64 = |name: &str| -> u64 {
        samples
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} missing from exposition:\n{text}"))
            .parse()
            .unwrap()
    };
    let stat_u64 = |key: &str| {
        stats
            .get(key)
            .and_then(dipe_serve::Json::as_u64)
            .unwrap_or_else(|| panic!("stats field {key} missing"))
    };

    // Counters: rendered from the very atomics `stats` reads.
    assert_eq!(
        sample_u64("dipe_serve_jobs_submitted_total"),
        stat_u64("jobs_submitted")
    );
    assert_eq!(
        sample_u64("dipe_serve_jobs_completed_total"),
        stat_u64("jobs_completed")
    );
    assert_eq!(
        sample_u64("dipe_serve_executed_cycles_total"),
        stat_u64("executed_cycles_total")
    );
    assert_eq!(
        sample_u64("dipe_serve_executed_cycles_total"),
        result.executed_cycles
    );
    assert_eq!(sample_u64("dipe_serve_workers"), stat_u64("workers"));
    assert_eq!(
        sample_u64("dipe_serve_worker_high_water"),
        stat_u64("worker_high_water")
    );
    // One finished job: the per-job histogram and latency window saw it.
    assert_eq!(sample_u64("dipe_serve_job_executed_cycles_count"), 1);
    assert_eq!(
        sample_u64("dipe_serve_job_executed_cycles_sum"),
        result.executed_cycles
    );
    assert_eq!(sample_u64("dipe_serve_job_wall_window"), 1);
    shutdown(addr, thread);
}

#[test]
fn trace_rpc_returns_the_jobs_estimation_trace() {
    let (addr, thread) = start_server(1, 2_000);
    let mut client = Client::connect(addr).expect("connect");
    assert!(client.trace(42).is_err(), "unknown job must error");

    let spec = JobSpec::named("s27")
        .with_seed(11)
        .with_accuracy(0.15, 0.90);
    let job_id = client.submit(&spec).expect("submit");
    let result = client.wait_result(job_id).expect("result");

    let (lines, dropped) = client.trace(job_id).expect("trace");
    assert_eq!(dropped, 0, "an s27 trace fits the buffer");
    assert!(!lines.is_empty());
    // The server prologue records how the session was seeded...
    assert!(lines[0].contains("\"event\":\"job_start\""));
    assert!(lines[0].contains("\"cache_path\":\"cold\""));
    // ...and the session's own events follow, ending in a closing record
    // whose bits match the wire result exactly.
    assert!(lines
        .iter()
        .any(|l| l.contains("\"event\":\"warmup_start\"")));
    let done = lines
        .iter()
        .find(|l| l.contains("\"event\":\"session_done\""))
        .expect("session_done in trace");
    assert!(done.contains(&format!(
        "\"mean_power_w_bits\":{}",
        result.mean_power_w.to_bits()
    )));
    shutdown(addr, thread);
}

#[test]
fn error_paths_and_clean_shutdown() {
    let (addr, thread) = start_server(1, 2_000);
    let mut client = Client::connect(addr).expect("connect");

    client.ping().expect("ping");

    // Unknown benchmark: accepted (the name is only resolved at job start),
    // then a `failed` event.
    let job_id = client.submit(&JobSpec::named("nonesuch")).expect("submit");
    let failure = client.wait_result(job_id).expect_err("must fail");
    assert!(
        failure.contains("nonesuch"),
        "failure should name the circuit: {failure}"
    );

    // Control errors come back as error responses, not disconnects.
    assert!(client.cancel(9999).is_err());
    assert!(client.status(9999).is_err());
    assert!(client.checkpoint(job_id, false).is_err(), "job not running");

    // A long-ish job can be cancelled.
    let spec = JobSpec::named("s298")
        .with_seed(5)
        .with_accuracy(0.01, 0.99);
    let victim = client.submit(&spec).expect("submit victim");
    client.cancel(victim).expect("cancel");
    let outcome = client.wait_result(victim).expect_err("cancelled job fails");
    assert!(outcome.contains("cancelled"), "got: {outcome}");

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats
            .get("jobs_cancelled")
            .and_then(dipe_serve::Json::as_u64),
        Some(1)
    );
    shutdown(addr, thread);
}

#[test]
fn an_oversized_request_line_is_refused_and_the_server_lives_on() {
    use std::io::{BufRead, BufReader, Read};
    let (addr, thread) = start_server(1, 2_000);
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    // One byte past the limit and no newline: the server must give up
    // reading by itself, with every byte sent consumed.
    std::io::copy(
        &mut std::io::repeat(b'x').take(dipe_serve::MAX_LINE_BYTES as u64 + 1),
        &mut raw,
    )
    .expect("send the oversized line");
    let mut reply = String::new();
    BufReader::new(&raw)
        .read_line(&mut reply)
        .expect("an answer within the read timeout");
    let reply = dipe_serve::Json::parse(reply.trim()).expect("a JSON reply");
    assert_eq!(
        reply.get("type").and_then(dipe_serve::Json::as_str),
        Some("error"),
        "{reply:?}"
    );

    let mut client = Client::connect(addr).expect("reconnect");
    client.ping().expect("ping after the oversized line");
    shutdown(addr, thread);
}

#[test]
fn drained_shutdown_lets_inflight_jobs_finish() {
    let (addr, thread) = start_server(2, 400);
    let spec = JobSpec::named("s27").with_seed(7).with_accuracy(0.10, 0.95);
    let reference = serial_estimate(&spec);

    let mut client = Client::connect(addr).expect("connect");
    let job_id = client.submit(&spec).expect("submit");
    // Shut down immediately with a generous drain window: the in-flight job
    // must be allowed to finish (cancelled count 0) and its result event
    // must still reach us — stashed while we waited for the `bye`.
    let cancelled = client.shutdown_drain(30.0).expect("drained shutdown");
    assert_eq!(cancelled, 0, "job should finish inside the drain window");
    let result = client.wait_result(job_id).expect("result after drain");
    assert_matches_serial(&result, &reference);
    thread.join().expect("server thread");
}

#[test]
fn drain_deadline_cancels_stragglers() {
    let (addr, thread) = start_server(1, 400);
    // A job too long for a 50 ms drain window (same spec the cancel test
    // uses as its long-running victim).
    let spec = JobSpec::named("s298")
        .with_seed(5)
        .with_accuracy(0.01, 0.99);
    let mut client = Client::connect(addr).expect("connect");
    let job_id = client.submit(&spec).expect("submit");
    let cancelled = client.shutdown_drain(0.05).expect("forced shutdown");
    assert_eq!(cancelled, 1, "the straggler must be cancelled at deadline");
    let outcome = client.wait_result(job_id).expect_err("cancelled job fails");
    assert!(outcome.contains("cancelled"), "got: {outcome}");
    thread.join().expect("server thread");
}

#[test]
fn idle_connections_are_reaped_but_working_ones_are_not() {
    let dir = std::env::temp_dir().join(format!("dipe-serve-idle-{}", std::process::id()));
    let config = ServerConfig {
        workers: 1,
        slice_cycles: 400,
        checkpoint_dir: dir,
        idle_timeout_seconds: 0.2,
        quiet: true,
    };
    let server = Server::bind(("127.0.0.1", 0), config).expect("bind");
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run().expect("server run"));

    // Grace: a connection with a running job survives quiet periods longer
    // than the idle timeout — the result must still be deliverable.
    let mut client = Client::connect(addr).expect("connect");
    let spec = JobSpec::named("s27").with_seed(7).with_accuracy(0.10, 0.95);
    let job_id = client.submit(&spec).expect("submit");
    client
        .wait_result(job_id)
        .expect("result despite idle timer");

    // Reaping: once nothing is running, a quiet connection is dropped and
    // the drop is counted.
    std::thread::sleep(std::time::Duration::from_millis(700));
    assert!(
        client.ping().is_err(),
        "idle connection should have been reaped"
    );
    let mut fresh = Client::connect(addr).expect("reconnect");
    let stats = fresh.stats().expect("stats");
    assert_eq!(
        stats
            .get("idle_disconnects")
            .and_then(dipe_serve::Json::as_u64),
        Some(1)
    );
    let metrics = fresh.metrics().expect("metrics");
    assert!(
        metrics.contains("dipe_serve_idle_disconnects_total 1"),
        "metrics should surface the idle counter: {metrics}"
    );
    fresh.shutdown().expect("shutdown");
    thread.join().expect("server thread");
}

#[test]
fn connect_retry_reports_every_endpoint_and_finds_the_live_one() {
    // Two bound-then-dropped ports: nothing listens on either.
    let dead: Vec<String> = (0..2)
        .map(|_| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        })
        .collect();
    let error = match Client::connect_retry(&dead, 2) {
        Ok(_) => panic!("a dead fleet must not connect"),
        Err(error) => error,
    };
    for endpoint in &dead {
        assert!(
            error.contains(endpoint.as_str()),
            "error must name {endpoint}: {error}"
        );
    }

    // A live server behind a dead first endpoint is still found.
    let (addr, thread) = start_server(1, 2_000);
    let endpoints = vec![dead[0].clone(), addr.to_string()];
    let mut client = Client::connect_retry(&endpoints, 1).expect("live endpoint");
    client.ping().expect("ping");
    client.shutdown().expect("shutdown");
    thread.join().expect("server thread");
}
